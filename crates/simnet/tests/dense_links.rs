//! The dense rail-link numbering behind the round kernels, checked against
//! the tuple-keyed spelling it replaced.
//!
//! `round_load` counts distinct active `(instance, rail)` links and
//! `round_profile` interns links in first-seen order, both by marking a
//! link's id in the model's `RailLinkTable` in an epoch-stamped array. The
//! reference here keeps the previous accumulation: a `HashSet` (and
//! `HashMap`) keyed on `(level, instance, up, rail)`, walked hop by hop,
//! with a level's minimum latency taken over its byte-carrying messages.
//! Over random rounds — self-messages, zero-byte messages and repeated
//! endpoints included — on 3–4-level hierarchies × 1/2/4 rails × every
//! `RailPolicy`, and on the Hydra (1/2/4 rails × every policy) and LUMI
//! presets, the two must agree field for field and bit for bit. A second
//! test checks that one thread's workspace, reused across models of
//! different sizes, gives exactly what a fresh workspace gives.
//!
//! The kernels now read a message's crossing level and link ids from the
//! table's per-core rows (`RailLinkTable::path`). A property test checks
//! that path against the division formula (`src / stride`, `assign_rail`,
//! `link_id`) for every ordered core pair of random 2–5-level machines
//! with 1, 2 or 4 rails on any level, under every policy. The engines
//! that route through it are pinned elsewhere too: the fluid engine
//! against its message-link oracle (`railed_engine_matches_reference_randomized`
//! in `fluid.rs`), the congestion probe's per-link bytes against a
//! message-link ledger on 1/2/4-rail fabrics
//! (`congestion_probe_conserves_routed_bytes` in `tests/proptests.rs`),
//! and both bit for bit by the last test here.

use std::collections::{HashMap, HashSet};

use mre_core::Hierarchy;
use mre_rng::{propcheck, SmallRng};
use mre_simnet::presets::{hydra_network_rails, lumi_network};
use mre_simnet::{
    assign_rail, bound_gap_fluid, fluid_lower_bound, fluid_lower_bound_aggregate, max_min_rates,
    schedule_lower_bound, schedule_lower_bound_aggregate, CongestionProbe, FluidSim, LinkParams,
    Message, NetworkModel, PathHop, RailPolicy, Round, RoundLoad, Schedule,
};

/// A 3–4-level machine with random per-level calibration; `nics` rails on
/// the node level and on a random subset of the inner levels.
fn arb_model(rng: &mut SmallRng, nics: usize, policy: RailPolicy) -> NetworkModel {
    let depth = rng.gen_range(3usize..5);
    let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..5)).collect();
    let h = Hierarchy::new(levels).expect("non-zero levels");
    let links = (0..depth)
        .map(|_| LinkParams {
            uplink_bandwidth: rng.gen_range(1.0f64..100.0),
            crossing_latency: rng.gen_range(0.0f64..1e-3),
        })
        .collect();
    let rails = (0..depth)
        .map(|l| if l == 0 || rng.gen_bool(0.5) { nics } else { 1 })
        .collect();
    NetworkModel::new(h, links, rng.gen_range(50.0f64..500.0)).with_rails(rails, policy)
}

/// A random round: fresh endpoints, self-messages, and repeats of earlier
/// endpoints (so links are revisited within the round). Half the rounds
/// hold zero-byte messages, a quarter of their messages.
fn arb_round(rng: &mut SmallRng, size: usize) -> Vec<Message> {
    let mut msgs = arb_messages(rng, size);
    if rng.gen_bool(0.5) {
        for m in &mut msgs {
            if rng.gen_bool(0.25) {
                m.bytes = 0;
            }
        }
    }
    msgs
}

/// [`arb_round`]'s endpoints with payloads drawn from `0..2^20` (so almost
/// never zero) — the rounds `multi_rail_fluid_and_probe_bits_are_pinned`
/// was recorded with.
fn arb_messages(rng: &mut SmallRng, size: usize) -> Vec<Message> {
    let n = rng.gen_range(1usize..24);
    let mut msgs: Vec<Message> = Vec::with_capacity(n);
    for _ in 0..n {
        let bytes = rng.gen_range(0u64..1 << 20);
        let m = match rng.gen_range(0usize..4) {
            0 => {
                let core = rng.gen_range(0usize..size);
                Message::new(core, core, bytes)
            }
            1 if !msgs.is_empty() => {
                let prev = *rng.choose(&msgs).expect("non-empty");
                Message::new(prev.src, prev.dst, bytes)
            }
            _ => Message::new(
                rng.gen_range(0usize..size),
                rng.gen_range(0usize..size),
                bytes,
            ),
        };
        msgs.push(m);
    }
    msgs
}

/// The tuple-`HashSet` load accumulation the dense numbering replaced.
fn reference_load<'m>(
    net: &NetworkModel,
    messages: impl IntoIterator<Item = &'m Message>,
) -> RoundLoad {
    let strides = net.hierarchy().strides();
    let k = strides.len();
    let rails = net.rail_counts();
    let rows = || -> Vec<Vec<u64>> { rails.iter().map(|&r| vec![0; r.max(1)]).collect() };
    let counts = || -> Vec<Vec<usize>> { rails.iter().map(|&r| vec![0; r.max(1)]).collect() };
    let mut load = RoundLoad {
        bytes_through: vec![0; k],
        active_up: vec![0; k],
        active_down: vec![0; k],
        min_latency_through: vec![0.0; k],
        max_latency: 0.0,
        max_local_bytes: 0,
        rail_bytes_up: rows(),
        rail_bytes_down: rows(),
        rail_active_up: counts(),
        rail_active_down: counts(),
    };
    let mut seen: HashSet<(usize, usize, bool, usize)> = HashSet::new();
    for m in messages {
        if m.src == m.dst {
            load.max_local_bytes = load.max_local_bytes.max(m.bytes);
            continue;
        }
        let j = strides
            .iter()
            .position(|&s| m.src / s != m.dst / s)
            .expect("distinct cores differ at some level");
        let latency = net.links()[j].crossing_latency;
        load.max_latency = load.max_latency.max(latency);
        for (level, &stride) in strides.iter().enumerate().skip(j) {
            load.bytes_through[level] += m.bytes;
            let up_rail = net.message_rail(level, m.src, m.dst, true);
            load.rail_bytes_up[level][up_rail] += m.bytes;
            if seen.insert((level, m.src / stride, true, up_rail)) {
                load.active_up[level] += 1;
                load.rail_active_up[level][up_rail] += 1;
            }
            let down_rail = net.message_rail(level, m.src, m.dst, false);
            load.rail_bytes_down[level][down_rail] += m.bytes;
            if seen.insert((level, m.dst / stride, false, down_rail)) {
                load.active_down[level] += 1;
                load.rail_active_down[level][down_rail] += 1;
            }
            // The minimum ranges over byte-carrying messages: the first
            // one through the level sets it.
            if m.bytes > 0 {
                let entry = &mut load.min_latency_through[level];
                *entry = if load.bytes_through[level] == m.bytes {
                    latency
                } else {
                    entry.min(latency)
                };
            }
        }
    }
    load
}

/// Max-min rates of a round with links interned in first-seen order
/// through a tuple-keyed `HashMap` — the profile's previous interning.
fn reference_rates(net: &NetworkModel, messages: &[Message]) -> Vec<f64> {
    let strides = net.hierarchy().strides();
    let mut index: HashMap<(usize, usize, bool, usize), usize> = HashMap::new();
    let mut capacities = Vec::new();
    let flows: Vec<Vec<usize>> = messages
        .iter()
        .map(|m| {
            let Some(j) = strides.iter().position(|&s| m.src / s != m.dst / s) else {
                return Vec::new();
            };
            let mut path = Vec::new();
            for (level, &stride) in strides.iter().enumerate().skip(j) {
                for (core, up) in [(m.src, true), (m.dst, false)] {
                    let rail = net.message_rail(level, m.src, m.dst, up);
                    let next = index.len();
                    let idx = *index
                        .entry((level, core / stride, up, rail))
                        .or_insert(next);
                    if idx == capacities.len() {
                        capacities.push(net.links()[level].uplink_bandwidth);
                    }
                    path.push(idx);
                }
            }
            path
        })
        .collect();
    max_min_rates(&flows, &capacities)
}

/// One random round on `net`, against the references.
fn check_round(rng: &mut SmallRng, net: &NetworkModel) {
    let msgs = arb_round(rng, net.hierarchy().size());
    let label = format!("{} x{:?}: {msgs:?}", net.rail_policy(), net.rail_counts());
    let reference = reference_load(net, &msgs);
    assert_eq!(net.round_load(&msgs), reference, "{label}");
    // The thread-local rungs read the same load.
    assert_eq!(
        net.round_lower_bound(&msgs).to_bits(),
        net.round_lower_bound_from(&reference).to_bits()
    );
    assert_eq!(
        net.round_lower_bound_aggregate(&msgs).to_bits(),
        net.round_lower_bound_aggregate_from(&reference).to_bits()
    );
    // First-seen interning: every rate bit is unchanged.
    let profile = net.round_profile(&msgs);
    let expected = reference_rates(net, &msgs);
    for ((m, &(_, rate)), &want) in msgs.iter().zip(&profile.entries).zip(&expected) {
        if m.src != m.dst {
            assert_eq!(rate.to_bits(), want.to_bits(), "{label}");
        }
    }
}

/// Random machines, and the preset fabrics the search runs on: Hydra at
/// 1, 2 and 4 node rails under every policy, and LUMI.
#[test]
fn round_load_matches_the_tuple_set_reference() {
    let mut presets = vec![lumi_network(2)];
    for nics in [1, 2, 4] {
        for policy in RailPolicy::ALL {
            presets.push(hydra_network_rails(4, nics, policy));
        }
    }
    propcheck(48, 0xD15E_0001, |rng| {
        for nics in [1usize, 2, 4] {
            for policy in RailPolicy::ALL {
                let net = arb_model(rng, nics, policy);
                for _ in 0..4 {
                    check_round(rng, &net);
                }
            }
        }
        for net in &presets {
            check_round(rng, net);
        }
    });
}

/// A `bytes`-byte message between two cores that first differ at a
/// random level with more than one instance.
fn crossing_message(rng: &mut SmallRng, net: &NetworkModel, bytes: u64) -> Option<Message> {
    let h = net.hierarchy();
    let split: Vec<usize> = (0..h.depth()).filter(|&l| h.levels()[l] > 1).collect();
    let &level = rng.choose(&split)?;
    // Move `src`'s digit at `level` to another value.
    let stride = h.strides()[level];
    let radix = h.levels()[level];
    let src = rng.gen_range(0..h.size());
    let digit = src / stride % radix;
    let other = (digit + rng.gen_range(1..radix)) % radix;
    Some(Message::new(
        src,
        src - digit * stride + other * stride,
        bytes,
    ))
}

/// A random fluid job of 0–5 rounds: long random rounds with zero-byte
/// crossing messages planted at the front and anywhere, short rounds of
/// a zero-byte crossing message followed by 0–2 positive-byte ones,
/// empty rounds, and adjacent repeats of the round before. Every crossing
/// message traverses the innermost level, so a zero-byte message shares a
/// level with each positive-byte one; in short rounds its latency is
/// often the level's lowest, which the minimum must leave out.
fn arb_job(rng: &mut SmallRng, net: &NetworkModel) -> Schedule {
    let mut rounds: Vec<Round> = Vec::new();
    for _ in 0..rng.gen_range(0usize..6) {
        let round = match (rng.gen_range(0usize..6), rounds.last()) {
            (0 | 1, Some(previous)) => previous.clone(),
            (2, _) => Round::new(),
            (3, _) => {
                let mut msgs = arb_round(rng, net.hierarchy().size());
                for at in [0, rng.gen_range(0..msgs.len() + 1)] {
                    if let Some(m) = crossing_message(rng, net, 0).filter(|_| rng.gen_bool(0.5)) {
                        msgs.insert(at, m);
                    }
                }
                Round::with(msgs)
            }
            _ => Round::with(
                (0..rng.gen_range(1usize..4))
                    .filter_map(|i| {
                        let bytes = if i == 0 {
                            0
                        } else {
                            rng.gen_range(1u64..1 << 20)
                        };
                        crossing_message(rng, net, bytes)
                    })
                    .collect(),
            ),
        };
        rounds.push(round);
    }
    Schedule::with(rounds)
}

/// The level term `bound_gap_fluid` reports, from a reference load.
fn level_term(net: &NetworkModel, load: &RoundLoad, level: usize) -> f64 {
    if load.bytes_through[level] == 0 {
        return 0.0;
    }
    let active = load.active_up[level].min(load.active_down[level]).max(1) as f64;
    load.min_latency_through[level]
        + load.bytes_through[level] as f64 / (active * net.links()[level].uplink_bandwidth)
}

/// The fluid bounds walk each distinct round once and sum adjacent
/// repeats into the pooled load without walking them; both rungs and
/// `bound_gap_fluid`'s per-level terms must still equal, bit for bit, the
/// bounds of every message copied into one virtual round. The jobs are
/// ragged (0–5 rounds) and hold empty rounds, adjacent repeats and
/// zero-byte messages, whose latencies the pooled minimum leaves out on
/// every copy of a round.
#[test]
fn pooled_fluid_bounds_match_the_copied_message_reference() {
    propcheck(32, 0xD15E_0002, |rng| {
        for nics in [1usize, 2, 4] {
            for policy in RailPolicy::ALL {
                let net = arb_model(rng, nics, policy);
                let jobs: Vec<Schedule> = (0..rng.gen_range(1usize..5))
                    .map(|_| arb_job(rng, &net))
                    .collect();
                let copied: Vec<Message> = jobs
                    .iter()
                    .flat_map(|s| &s.rounds)
                    .flat_map(|r| r.messages.iter().copied())
                    .collect();
                let pooled = reference_load(&net, &copied);
                let tight = jobs
                    .iter()
                    .map(|s| schedule_lower_bound(&net, s))
                    .fold(0.0, f64::max)
                    .max(net.round_lower_bound_from(&pooled));
                let cheap = jobs
                    .iter()
                    .map(|s| schedule_lower_bound_aggregate(&net, s))
                    .fold(0.0, f64::max)
                    .max(net.round_lower_bound_aggregate_from(&pooled));
                assert_eq!(
                    fluid_lower_bound(&net, &jobs).to_bits(),
                    tight.to_bits(),
                    "{policy} x{nics}"
                );
                assert_eq!(
                    fluid_lower_bound_aggregate(&net, &jobs).to_bits(),
                    cheap.to_bits(),
                    "{policy} x{nics}"
                );
                let gaps = bound_gap_fluid(&net, &jobs, &CongestionProbe::new(&net));
                for gap in &gaps {
                    assert_eq!(
                        gap.bound.to_bits(),
                        level_term(&net, &pooled, gap.level).to_bits(),
                        "{policy} x{nics} level {}",
                        gap.level
                    );
                }
            }
        }
    });
}

/// Every bound and profile bit of `rounds` on `net`, computed through the
/// calling thread's workspace.
fn fingerprint(net: &NetworkModel, rounds: &[Vec<Message>]) -> Vec<u64> {
    let mut bits = Vec::new();
    for msgs in rounds {
        bits.push(net.round_lower_bound(msgs).to_bits());
        bits.push(net.round_lower_bound_aggregate(msgs).to_bits());
        for &(latency, rate) in &net.round_profile(msgs).entries {
            bits.push(latency.to_bits());
            bits.push(rate.to_bits());
        }
    }
    let jobs: Vec<Schedule> = rounds
        .iter()
        .map(|msgs| Schedule::with(vec![Round::with(msgs.clone())]))
        .collect();
    bits.push(fluid_lower_bound(net, &jobs).to_bits());
    bits.push(fluid_lower_bound_aggregate(net, &jobs).to_bits());
    bits
}

#[test]
fn reused_workspace_across_model_sizes_is_bit_identical_to_fresh() {
    let mut rng = SmallRng::seed_from_u64(0xD15E_0003);
    let small = arb_model(&mut rng, 2, RailPolicy::RoundRobin);
    let large = NetworkModel::new(
        Hierarchy::new(vec![4, 2, 2, 8]).expect("non-zero levels"),
        (0..4)
            .map(|l| LinkParams {
                uplink_bandwidth: 10.0 * (l + 1) as f64,
                crossing_latency: 1e-5 / (l + 1) as f64,
            })
            .collect(),
        200.0,
    )
    .with_rails(vec![4, 2, 1, 1], RailPolicy::Affinity);
    assert!(large.link_table().num_links() > small.link_table().num_links());
    let small_rounds: Vec<Vec<Message>> = (0..6)
        .map(|_| arb_round(&mut rng, small.hierarchy().size()))
        .collect();
    let large_rounds: Vec<Vec<Message>> = (0..6)
        .map(|_| arb_round(&mut rng, large.hierarchy().size()))
        .collect();

    // Fresh: each model on a brand-new thread, whose workspace has never
    // been touched.
    let fresh = |net: &NetworkModel, rounds: &[Vec<Message>]| {
        std::thread::scope(|s| s.spawn(|| fingerprint(net, rounds)).join().unwrap())
    };
    let fresh_small = fresh(&small, &small_rounds);
    let fresh_large = fresh(&large, &large_rounds);

    // Reused: one thread goes small → large (the stamped arrays grow) →
    // small again (they keep the larger size and stale marks).
    std::thread::scope(|s| {
        s.spawn(|| {
            assert_eq!(fingerprint(&small, &small_rounds), fresh_small);
            assert_eq!(fingerprint(&large, &large_rounds), fresh_large);
            assert_eq!(fingerprint(&small, &small_rounds), fresh_small);
        })
        .join()
        .unwrap()
    });
}

/// A 2–5-level machine of up to 243 cores whose every level draws 1, 2
/// or 4 rails.
fn arb_railed_model(rng: &mut SmallRng, policy: RailPolicy) -> NetworkModel {
    let depth = rng.gen_range(2usize..6);
    let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..4)).collect();
    let h = Hierarchy::new(levels).expect("non-zero levels");
    let links = (0..depth)
        .map(|_| LinkParams {
            uplink_bandwidth: rng.gen_range(1.0f64..100.0),
            crossing_latency: rng.gen_range(0.0f64..1e-3),
        })
        .collect();
    let rails = (0..depth)
        .map(|_| *rng.choose(&[1usize, 2, 4]).expect("three counts"))
        .collect();
    NetworkModel::new(h, links, 100.0).with_rails(rails, policy)
}

#[test]
fn path_kernel_matches_the_division_formula() {
    propcheck(24, 0xD15E_0004, |rng| {
        for policy in RailPolicy::ALL {
            let net = arb_railed_model(rng, policy);
            let table = net.link_table();
            let strides = net.hierarchy().strides();
            let rails = net.rail_counts();
            let size = net.hierarchy().size();
            for src in 0..size {
                for dst in 0..size {
                    let Some(path) = table.path(src, dst) else {
                        assert_eq!(src, dst, "only a self-message has no path");
                        continue;
                    };
                    assert_ne!(src, dst, "a self-message occupies no link");
                    let j = strides
                        .iter()
                        .position(|&s| src / s != dst / s)
                        .expect("distinct cores differ at some level");
                    assert_eq!(path.crossing(), j, "{policy} {src}->{dst}");
                    let expected: Vec<PathHop> = (j..strides.len())
                        .map(|level| {
                            let stride = strides[level];
                            let up_rail = assign_rail(policy, rails[level], stride, src, dst);
                            let down_rail = assign_rail(policy, rails[level], stride, dst, src);
                            PathHop {
                                level,
                                up: table.link_id(level, src / stride, true, up_rail),
                                down: table.link_id(level, dst / stride, false, down_rail),
                                up_rail,
                                down_rail,
                            }
                        })
                        .collect();
                    let hops: Vec<PathHop> = path.collect();
                    assert_eq!(hops, expected, "{policy} rails {rails:?}: {src}->{dst}");
                    for hop in &hops {
                        assert_eq!(hop.up, table.message_link(hop.level, src, dst, true));
                        assert_eq!(hop.down, table.message_link(hop.level, src, dst, false));
                    }
                }
            }
        }
    });
}

/// Folds `bits` into one 64-bit FNV-1a digest.
fn digest(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fluid makespan, the lockstep time of the first job, and every
/// link's probed bytes under both engines, on three multi-rail fabrics —
/// pinned bit for bit, so a path kernel that moved any byte to another
/// link, or changed any solve, fails here.
#[test]
fn multi_rail_fluid_and_probe_bits_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(0xD15E_0005);
    let mut bits = Vec::new();
    for (rails, policy) in [
        (vec![2, 1, 2, 1], RailPolicy::RoundRobin),
        (vec![4, 2, 1, 1], RailPolicy::Affinity),
        (vec![2, 2, 2, 2], RailPolicy::SrcHash),
    ] {
        let net = NetworkModel::new(
            Hierarchy::new(vec![4, 2, 2, 4]).expect("non-zero levels"),
            (0..4)
                .map(|l| LinkParams {
                    uplink_bandwidth: 10.0 * (l + 1) as f64,
                    crossing_latency: 1e-5 / (l + 1) as f64,
                })
                .collect(),
            200.0,
        )
        .with_rails(rails, policy);
        let size = net.hierarchy().size();
        let jobs: Vec<Schedule> = (0..3)
            .map(|_| {
                Schedule::with(
                    (0..3)
                        .map(|_| Round::with(arb_messages(&mut rng, size)))
                        .collect(),
                )
            })
            .collect();
        let mut probe = CongestionProbe::new(&net);
        bits.push(FluidSim::new(&net).run_probed(&jobs, &mut probe).to_bits());
        bits.push(digest(
            (0..probe.num_links() as u32).map(|l| probe.link_bytes(l).to_bits()),
        ));
        let mut probe = CongestionProbe::new(&net);
        bits.push(net.schedule_time_probed(&jobs[0], &mut probe).to_bits());
        bits.push(digest(
            (0..probe.num_links() as u32).map(|l| probe.link_bytes(l).to_bits()),
        ));
    }
    // Recorded before the path kernel read the per-core rows.
    let pinned: [u64; 12] = [
        0x4129_5874_999a_e925,
        0xfadd_9b4b_7204_54b4,
        0x4124_738e_0003_eea2,
        0xfee3_bc06_2762_23e7,
        0x412c_2e46_eb88_8723,
        0xf2eb_7f03_6c09_cdd8,
        0x412a_1118_0003_eea2,
        0x43b5_ceb1_62d2_8cc5,
        0x412b_0eb7_4cd0_56c4,
        0xae37_8770_813a_79a6,
        0x4125_6f36_ccd0_bb6f,
        0xa736_98ae_fa85_52d3,
    ];
    assert_eq!(bits, pinned, "got {bits:#018x?}");
}
