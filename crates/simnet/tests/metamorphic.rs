//! Metamorphic checks of the simulator: invariants that need no reference
//! solver.
//!
//! Scaling by a power of two is exact in binary floating point (away from
//! overflow and subnormals): every subtraction and division the
//! water-fill performs on scaled operands yields the scaled result, and
//! every comparison between shares comes out the same. So scaling every
//! capacity by `2^k` must scale every max-min rate by exactly `2^k`, and
//! scaling every bandwidth of a model with zero latencies must scale every
//! round time by exactly `2^-k` — bit for bit, at any rail count.
//!
//! Translation symmetry: on a digit-box layout every communicator is a
//! translate of communicator 0, so when all of them run the same
//! rank-space schedule, communicator `c`'s message `i` finishes (fluid) or
//! is rated (lockstep) bit-identically to communicator 0's message `i` —
//! on one rail and under round-robin or affinity railing. Source-hash
//! railing breaks the symmetry (each core hashes its own messages onto
//! rails); `tests/fluid_classes.rs` at the repository root keeps a
//! counterexample and checks that the fluid engine refuses to reduce it.

use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_rng::{propcheck, SmallRng};
use mre_simnet::{
    fluid_timeline, max_min_rates, LinkParams, Message, NetworkModel, RailPolicy, Round, Schedule,
};

const EXPONENTS: [i32; 4] = [-7, -1, 3, 20];

#[test]
fn scaling_capacities_by_a_power_of_two_scales_rates_exactly() {
    propcheck(400, 0xD0C0_0019, |rng| {
        let nl = rng.gen_range(1usize..12);
        let nf = rng.gen_range(1usize..50);
        let caps: Vec<f64> = (0..nl).map(|_| rng.gen_range(0.1f64..1e3)).collect();
        let flows: Vec<Vec<usize>> = (0..nf)
            .map(|_| (0..nl).filter(|_| rng.gen_bool(0.3)).collect())
            .collect();
        let base = max_min_rates(&flows, &caps);
        for k in EXPONENTS {
            let c = 2f64.powi(k);
            let scaled_caps: Vec<f64> = caps.iter().map(|&x| x * c).collect();
            let scaled = max_min_rates(&flows, &scaled_caps);
            for (f, (&r, &s)) in base.iter().zip(&scaled).enumerate() {
                assert_eq!(s.to_bits(), (r * c).to_bits(), "flow {f}, k = {k}");
            }
        }
    });
}

/// A 2–4-level machine with zero latencies and random bandwidths, scaled
/// by `scale`; `nics` rails on the node level under `policy`.
fn model(
    levels: &[usize],
    bandwidths: &[f64],
    scale: f64,
    nics: usize,
    policy: RailPolicy,
) -> NetworkModel {
    let h = Hierarchy::new(levels.to_vec()).expect("non-zero levels");
    let links = bandwidths[1..]
        .iter()
        .map(|&bw| LinkParams {
            uplink_bandwidth: bw * scale,
            crossing_latency: 0.0,
        })
        .collect();
    NetworkModel::new(h, links, bandwidths[0] * scale).with_node_rails(nics, policy)
}

fn arb_round(rng: &mut SmallRng, size: usize) -> Vec<Message> {
    (0..rng.gen_range(1usize..32))
        .map(|_| {
            Message::new(
                rng.gen_range(0usize..size),
                rng.gen_range(0usize..size),
                rng.gen_range(0u64..1 << 22),
            )
        })
        .collect()
}

#[test]
fn scaling_bandwidths_by_a_power_of_two_scales_round_time_exactly() {
    for nics in [1, 2, 4] {
        propcheck(60, 0xD0C0_0119 + nics as u64, |rng| {
            let depth = rng.gen_range(2usize..5);
            let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..5)).collect();
            // Local copy bandwidth first, then one per level.
            let bandwidths: Vec<f64> = (0..=depth).map(|_| rng.gen_range(1e8f64..1e11)).collect();
            let policy = *rng
                .choose(&[
                    RailPolicy::RoundRobin,
                    RailPolicy::SrcHash,
                    RailPolicy::Affinity,
                ])
                .expect("non-empty");
            let base = model(&levels, &bandwidths, 1.0, nics, policy);
            let size = base.hierarchy().size();
            let rounds: Vec<Vec<Message>> = (0..4).map(|_| arb_round(rng, size)).collect();
            for k in EXPONENTS {
                let scaled = model(&levels, &bandwidths, 2f64.powi(k), nics, policy);
                for round in &rounds {
                    let t = base.round_time(round);
                    assert_eq!(
                        scaled.round_time(round).to_bits(),
                        (t * 2f64.powi(-k)).to_bits(),
                        "{nics} rails ({policy:?}), k = {k}, levels {levels:?}"
                    );
                }
            }
        });
    }
}

/// A random 2–4-level machine with power-of-two radices (at most 512
/// cores), random link parameters and `nics` node rails under `policy`,
/// with the communicators of a random order's quotient layout: a digit
/// box and its translates.
fn box_layout(
    rng: &mut SmallRng,
    nics: usize,
    policy: RailPolicy,
) -> (NetworkModel, Vec<Vec<usize>>) {
    loop {
        let depth = rng.gen_range(2usize..5);
        let levels: Vec<usize> = (0..depth)
            .map(|_| *rng.choose(&[1usize, 2, 4, 8]).expect("non-empty"))
            .collect();
        let h = Hierarchy::new(levels).expect("non-zero levels");
        let size = h.size();
        let sizes: Vec<usize> = (2..size).filter(|&d| size.is_multiple_of(d)).collect();
        let Some(&s) = rng.choose(&sizes).filter(|_| size <= 512) else {
            continue;
        };
        let mut order: Vec<usize> = (0..depth).collect();
        rng.shuffle(&mut order);
        let order = Permutation::new(order).expect("a permutation");
        let layout =
            subcommunicators(&h, &order, s, ColorScheme::Quotient).expect("s divides size");
        let links = (0..depth)
            .map(|_| LinkParams {
                uplink_bandwidth: rng.gen_range(1e9f64..1e11),
                crossing_latency: rng.gen_range(0.0f64..1e-5),
            })
            .collect();
        let net = NetworkModel::new(h, links, 1e11).with_node_rails(nics, policy);
        return (net, layout.comms().to_vec());
    }
}

/// A random rank-space round over `s` ranks: pairwise shifts or random
/// pairs (self-messages included), with random payloads.
fn rank_round(rng: &mut SmallRng, s: usize) -> Vec<(usize, usize, u64)> {
    if rng.gen_bool(0.5) {
        let shift = rng.gen_range(1..s);
        let bytes = rng.gen_range(1u64..1 << 20);
        (0..s).map(|i| (i, (i + shift) % s, bytes)).collect()
    } else {
        (0..rng.gen_range(1..2 * s))
            .map(|_| {
                (
                    rng.gen_range(0..s),
                    rng.gen_range(0..s),
                    rng.gen_range(1u64..1 << 20),
                )
            })
            .collect()
    }
}

/// `round` run by the communicator with members `comm`.
fn translate(round: &[(usize, usize, u64)], comm: &[usize]) -> Vec<Message> {
    round
        .iter()
        .map(|&(i, j, bytes)| Message::new(comm[i], comm[j], bytes))
        .collect()
}

const SYMMETRIC_FABRICS: [(usize, RailPolicy); 5] = [
    (1, RailPolicy::RoundRobin),
    (2, RailPolicy::RoundRobin),
    (2, RailPolicy::Affinity),
    (4, RailPolicy::RoundRobin),
    (4, RailPolicy::Affinity),
];

#[test]
fn translated_fluid_jobs_finish_bit_identically() {
    for (nics, policy) in SYMMETRIC_FABRICS {
        propcheck(200, 0xD0C0_0022 + nics as u64, |rng| {
            let (net, comms) = box_layout(rng, nics, policy);
            let s = comms[0].len();
            let rounds: Vec<_> = (0..rng.gen_range(1usize..4))
                .map(|_| rank_round(rng, s))
                .collect();
            let jobs: Vec<Schedule> = comms
                .iter()
                .map(|comm| {
                    Schedule::with(
                        rounds
                            .iter()
                            .map(|r| Round::with(translate(r, comm)))
                            .collect(),
                    )
                })
                .collect();
            let timeline = fluid_timeline(&net, &jobs);
            let per_job = timeline.spans.len() / jobs.len();
            let job0 = &timeline.spans[..per_job];
            for spans in timeline.spans.chunks(per_job) {
                for (span, span0) in spans.iter().zip(job0) {
                    assert_eq!((span.round, span.seq), (span0.round, span0.seq));
                    assert_eq!(
                        span.finish.to_bits(),
                        span0.finish.to_bits(),
                        "{nics} rails ({policy:?}): job {} message {}/{}",
                        span.job,
                        span.round,
                        span.seq
                    );
                }
            }
        });
    }
}

#[test]
fn translated_messages_of_a_merged_lockstep_round_get_bit_equal_rates() {
    for (nics, policy) in SYMMETRIC_FABRICS {
        propcheck(300, 0xD0C0_0122 + nics as u64, |rng| {
            let (net, comms) = box_layout(rng, nics, policy);
            let round = rank_round(rng, comms[0].len());
            let merged: Vec<Message> = comms.iter().flat_map(|c| translate(&round, c)).collect();
            let profile = net.round_profile(&merged);
            let n = round.len();
            for (c, entries) in profile.entries.chunks(n).enumerate() {
                for (i, (&(_, rate), &(_, rate0))) in
                    entries.iter().zip(&profile.entries).enumerate()
                {
                    assert_eq!(
                        rate.to_bits(),
                        rate0.to_bits(),
                        "{nics} rails ({policy:?}): communicator {c} message {i}"
                    );
                }
            }
            // The round time is communicator 0's slowest message.
            let job0 = &merged[..n];
            let time0 = job0
                .iter()
                .zip(&profile.entries)
                .map(|(m, &(latency, rate))| latency + m.bytes as f64 / rate)
                .fold(0.0, f64::max);
            assert_eq!(profile.time(&merged).to_bits(), time0.to_bits());
        });
    }
}
