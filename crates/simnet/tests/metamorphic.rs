//! Metamorphic checks of the lockstep costing: invariants that need no
//! reference solver.
//!
//! Scaling by a power of two is exact in binary floating point (away from
//! overflow and subnormals): every subtraction and division the
//! water-fill performs on scaled operands yields the scaled result, and
//! every comparison between shares comes out the same. So scaling every
//! capacity by `2^k` must scale every max-min rate by exactly `2^k`, and
//! scaling every bandwidth of a model with zero latencies must scale every
//! round time by exactly `2^-k` — bit for bit, at any rail count.

use mre_core::Hierarchy;
use mre_rng::{propcheck, SmallRng};
use mre_simnet::{max_min_rates, LinkParams, Message, NetworkModel, RailPolicy};

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
