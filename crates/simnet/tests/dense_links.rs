//! The dense rail-link numbering behind the round kernels, checked against
//! the tuple-keyed spelling it replaced.
//!
//! `round_load` counts distinct active `(instance, rail)` links and
//! `round_profile` interns links in first-seen order, both by marking a
//! link's id in the model's `RailLinkTable` in an epoch-stamped array. The
//! reference here keeps the previous accumulation verbatim: a `HashSet`
//! (and `HashMap`) keyed on `(level, instance, up, rail)`. Over random
//! rounds — self-messages and repeated endpoints included — on 3–4-level
//! hierarchies × 1/2/4 rails × every `RailPolicy`, the two must agree
//! field for field and bit for bit. A second test checks that one
//! thread's workspace, reused across models of different sizes, gives
//! exactly what a fresh workspace gives.

use std::collections::{HashMap, HashSet};

use mre_core::Hierarchy;
use mre_rng::{propcheck, SmallRng};
use mre_simnet::{
    fluid_lower_bound, fluid_lower_bound_aggregate, max_min_rates, schedule_lower_bound,
    schedule_lower_bound_aggregate, LinkParams, Message, NetworkModel, RailPolicy, Round,
    RoundLoad, Schedule,
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
/// endpoints (so links are revisited within the round).
fn arb_round(rng: &mut SmallRng, size: usize) -> Vec<Message> {
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
            let entry = &mut load.min_latency_through[level];
            if load.bytes_through[level] == m.bytes {
                *entry = latency;
            } else {
                *entry = entry.min(latency);
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

#[test]
fn round_load_matches_the_tuple_set_reference() {
    propcheck(48, 0xD15E_0001, |rng| {
        for nics in [1usize, 2, 4] {
            for policy in RailPolicy::ALL {
                let net = arb_model(rng, nics, policy);
                let size = net.hierarchy().size();
                for _ in 0..4 {
                    let msgs = arb_round(rng, size);
                    let reference = reference_load(&net, &msgs);
                    assert_eq!(net.round_load(&msgs), reference, "{policy} x{nics}");
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
                    let expected = reference_rates(&net, &msgs);
                    for ((m, &(_, rate)), &want) in msgs.iter().zip(&profile.entries).zip(&expected)
                    {
                        if m.src != m.dst {
                            assert_eq!(rate.to_bits(), want.to_bits(), "{policy} x{nics}");
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn pooled_fluid_bounds_match_the_copied_message_reference() {
    propcheck(32, 0xD15E_0002, |rng| {
        for nics in [1usize, 2, 4] {
            for policy in RailPolicy::ALL {
                let net = arb_model(rng, nics, policy);
                let size = net.hierarchy().size();
                let jobs: Vec<Schedule> = (0..rng.gen_range(1usize..4))
                    .map(|_| {
                        Schedule::with(
                            (0..rng.gen_range(1usize..4))
                                .map(|_| Round::with(arb_round(rng, size)))
                                .collect(),
                        )
                    })
                    .collect();
                let pooled = reference_load(
                    &net,
                    jobs.iter()
                        .flat_map(|s| &s.rounds)
                        .flat_map(|r| &r.messages),
                );
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
                assert_eq!(fluid_lower_bound(&net, &jobs).to_bits(), tight.to_bits());
                assert_eq!(
                    fluid_lower_bound_aggregate(&net, &jobs).to_bits(),
                    cheap.to_bits()
                );
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
