//! Property-based tests over the whole stack: algebraic invariants of the
//! mixed-radix machinery, conservation laws of the contention model, and
//! correctness of the collective algorithms on arbitrary payloads.
//!
//! Runs on the in-tree `mre_rng::propcheck` harness (deterministic seeded
//! cases; a failing case prints its seed for replay) since the build
//! environment cannot fetch `proptest`.

use mixed_radix_enum::core::metrics::{
    distance, order_ring_cost, pair_counts_per_level, pairs_per_level, ring_cost,
};
use mixed_radix_enum::core::subcomm::{subcommunicators, ColorScheme};
use mixed_radix_enum::core::{
    compose, coordinates, rank_from_coordinates, Hierarchy, Permutation, RankReordering,
};
use mixed_radix_enum::mpi::{run, schedules, AllgatherAlg, AllreduceAlg, AlltoallAlg, Comm};
use mixed_radix_enum::simnet::{
    fluid_time, max_min_rates, LinkParams, Message, NetworkModel, Round, Schedule,
};
use mre_rng::{propcheck, SmallRng};

/// Arbitrary small hierarchy: 2–5 levels of size 1–6.
fn arb_hierarchy(rng: &mut SmallRng) -> Hierarchy {
    let depth = rng.gen_range(2usize..6);
    let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..7)).collect();
    Hierarchy::new(levels).expect("non-zero levels")
}

/// A hierarchy together with a random permutation of its levels.
fn arb_hierarchy_and_order(rng: &mut SmallRng) -> (Hierarchy, Permutation) {
    let h = arb_hierarchy(rng);
    let all = Permutation::all(h.depth());
    let sigma = rng.choose(&all).expect("k! ≥ 1 orders").clone();
    (h, sigma)
}

/// Algorithm 1 ∘ its inverse is the identity for every rank.
#[test]
fn decompose_compose_roundtrip() {
    propcheck(64, 0xD0C0_0001, |rng| {
        let (h, sigma) = arb_hierarchy_and_order(rng);
        let rank = rng.gen_range(0usize..10_000) % h.size();
        let c = coordinates(&h, rank).unwrap();
        assert_eq!(rank_from_coordinates(&h, &c).unwrap(), rank);
        // Algorithm 2 with the reversal order is also the identity.
        let rev = Permutation::reversal(h.depth());
        assert_eq!(compose(&h, &c, &rev).unwrap(), rank);
        // Any order produces an in-range rank.
        assert!(compose(&h, &c, &sigma).unwrap() < h.size());
    });
}

/// Reordering is a bijection and its bulk map matches pointwise
/// computation.
#[test]
fn reordering_bijection() {
    propcheck(64, 0xD0C0_0002, |rng| {
        let (h, sigma) = arb_hierarchy_and_order(rng);
        let map = RankReordering::new(&h, &sigma).unwrap();
        let mut seen = vec![false; h.size()];
        for r in 0..h.size() {
            let n = map.new_rank(r);
            assert!(!seen[n]);
            seen[n] = true;
            assert_eq!(map.old_rank(n), r);
        }
    });
}

/// Metrics invariants: percentages sum to 100, ring cost is bounded by
/// `(m−1)·[1, k]`, pair counts total C(m,2).
#[test]
fn metric_invariants() {
    propcheck(64, 0xD0C0_0003, |rng| {
        let (h, sigma) = arb_hierarchy_and_order(rng);
        // Pick a subcommunicator size dividing the world.
        let world = h.size();
        let mut s = world;
        for _ in 0..rng.gen_range(1usize..4) {
            if s % 2 == 0 {
                s /= 2;
            }
        }
        if s < 2 {
            return; // degenerate world; nothing to measure
        }
        let layout = subcommunicators(&h, &sigma, s, ColorScheme::Quotient).unwrap();
        let members = layout.members(0);
        let rc = ring_cost(&h, members);
        assert!(rc >= members.len() - 1);
        assert!(rc <= (members.len() - 1) * h.depth());
        let pct = pairs_per_level(&h, members);
        let sum: f64 = pct.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6);
        let counts = pair_counts_per_level(&h, members);
        assert_eq!(counts.iter().sum::<usize>(), s * (s - 1) / 2);
    });
}

/// Subcommunicators partition the machine exactly, under both color
/// schemes.
#[test]
fn subcomms_partition() {
    propcheck(64, 0xD0C0_0004, |rng| {
        let (h, sigma) = arb_hierarchy_and_order(rng);
        let world = h.size();
        let s = if world % 2 == 0 { world / 2 } else { world };
        for scheme in [ColorScheme::Quotient, ColorScheme::Modulo] {
            let layout = subcommunicators(&h, &sigma, s, scheme).unwrap();
            let mut seen = vec![false; world];
            for c in 0..layout.count() {
                for &m in layout.members(c) {
                    assert!(!seen[m]);
                    seen[m] = true;
                }
            }
            assert!(seen.iter().all(|&x| x));
        }
    });
}

/// Max-min fairness never oversubscribes a link and always saturates
/// every flow's bottleneck.
#[test]
fn contention_conservation() {
    propcheck(64, 0xD0C0_0005, |rng| {
        let nl = rng.gen_range(1usize..6);
        let caps: Vec<f64> = (0..nl).map(|_| rng.gen_range(1.0f64..100.0)).collect();
        let nf = rng.gen_range(1usize..20);
        let flows: Vec<Vec<usize>> = (0..nf)
            .map(|_| {
                let len = rng.gen_range(1usize..4);
                let mut q: Vec<usize> = (0..len).map(|_| rng.gen_range(0usize..nl)).collect();
                q.sort_unstable();
                q.dedup();
                q
            })
            .collect();
        let rates = max_min_rates(&flows, &caps);
        let mut totals = vec![0.0f64; nl];
        for (f, links) in flows.iter().enumerate() {
            assert!(rates[f] > 0.0);
            for &l in links {
                totals[l] += rates[f];
            }
        }
        for (l, &t) in totals.iter().enumerate() {
            assert!(t <= caps[l] * (1.0 + 1e-9), "link {l} oversubscribed");
        }
    });
}

/// The O(m·k) prefix-group pair counting agrees with the naive O(m²·k)
/// pairwise scan on arbitrary hierarchies and arbitrary (unsorted,
/// non-layout) member sets.
#[test]
fn fast_pair_counts_match_naive() {
    propcheck(64, 0xD0C0_000D, |rng| {
        let h = arb_hierarchy(rng);
        let world = h.size();
        let m = rng.gen_range(2usize..world.max(3)).min(world);
        let mut cores: Vec<usize> = (0..world).collect();
        rng.shuffle(&mut cores);
        let members = &cores[..m];
        let mut naive = vec![0usize; h.depth()];
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                naive[distance(&h, a, b) - 1] += 1;
            }
        }
        assert_eq!(pair_counts_per_level(&h, members), naive);
    });
}

/// The closed-form ring cost the class walk uses equals the ring cost of
/// communicator 0's built layout, for every order and every divisor
/// subcommunicator size of arbitrary hierarchies (1–5 levels of size 1–6).
#[test]
fn closed_form_ring_cost_matches_layout() {
    propcheck(64, 0xD0C0_0032, |rng| {
        let depth = rng.gen_range(1usize..6);
        let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..7)).collect();
        let h = Hierarchy::new(levels).expect("non-zero levels");
        let world = h.size();
        for s in (1..=world).filter(|s| world.is_multiple_of(*s)) {
            for sigma in Permutation::all(depth) {
                let layout = subcommunicators(&h, &sigma, s, ColorScheme::Quotient).unwrap();
                assert_eq!(
                    order_ring_cost(&h, &sigma, s).unwrap(),
                    ring_cost(&h, layout.members(0)),
                    "{h} order {sigma} s {s}"
                );
            }
        }
    });
}

/// The parallel ranking engine returns byte-identical results to a
/// serial stable sort of the representatives for arbitrary machines and
/// a cost function with frequent ties (ties are where nondeterministic
/// ordering would first show).
#[test]
fn parallel_ranking_matches_serial() {
    use mixed_radix_enum::core::order_search::{rank_orders_by_par, representatives, spreadness};
    propcheck(16, 0xD0C0_000E, |rng| {
        let (h, _) = arb_hierarchy_and_order(rng);
        let world = h.size();
        if world < 4 || world % 2 != 0 {
            return;
        }
        let s = if world % 4 == 0 && rng.gen_bool(0.5) {
            world / 4
        } else {
            world / 2
        };
        if s < 2 {
            return;
        }
        let cost =
            |sigma: &Permutation| (spreadness(&h, sigma, s).expect("valid order") * 4.0).round();
        let mut serial: Vec<_> = representatives(&h, s)
            .unwrap()
            .into_iter()
            .map(|c| {
                let t = cost(&c.order);
                (c, t)
            })
            .collect();
        serial.sort_by(|a, b| a.1.total_cmp(&b.1));
        let parallel = rank_orders_by_par(&h, s, cost).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for ((cs, ts), (cp, tp)) in serial.iter().zip(&parallel) {
            assert_eq!(cs.order, cp.order);
            assert_eq!(ts.to_bits(), tp.to_bits());
        }
    });
}

/// Dense progressive filling: each pass gives every unfrozen flow the
/// smallest equal share left on any link, and freezes the flows crossing
/// a link at that share. Flows with no links are unconstrained.
fn water_filling(flows: &[Vec<usize>], caps: &[f64]) -> Vec<f64> {
    let mut rates = vec![f64::INFINITY; flows.len()];
    let mut remaining = caps.to_vec();
    let mut active: Vec<usize> = (0..flows.len()).filter(|&f| !flows[f].is_empty()).collect();
    while !active.is_empty() {
        let mut count = vec![0usize; caps.len()];
        for &f in &active {
            for &l in &flows[f] {
                count[l] += 1;
            }
        }
        let share = |l: usize| remaining[l].max(0.0) / count[l] as f64;
        let bottleneck = (0..caps.len())
            .filter(|&l| count[l] > 0)
            .map(share)
            .fold(f64::INFINITY, f64::min);
        // Ties are judged relative to each link's own remaining capacity,
        // the scale its rounding error lives at.
        let tight: Vec<bool> = (0..caps.len())
            .map(|l| {
                count[l] > 0
                    && share(l)
                        <= bottleneck
                            + remaining[l].max(0.0) * 1e-12 / count[l] as f64
                            + f64::MIN_POSITIVE
            })
            .collect();
        let (done, rest): (Vec<usize>, Vec<usize>) = active
            .into_iter()
            .partition(|&f| flows[f].iter().any(|&l| tight[l]));
        assert!(!done.is_empty(), "water-filling must progress");
        for f in done {
            rates[f] = bottleneck;
            for &l in &flows[f] {
                remaining[l] -= bottleneck;
            }
        }
        active = rest;
    }
    rates
}

/// The incremental heap-based contention solver matches dense water
/// filling on random flow populations.
#[test]
fn incremental_contention_matches_reference() {
    propcheck(64, 0xD0C0_000F, |rng| {
        let nl = rng.gen_range(1usize..8);
        let caps: Vec<f64> = (0..nl).map(|_| rng.gen_range(0.5f64..500.0)).collect();
        let nf = rng.gen_range(1usize..50);
        let flows: Vec<Vec<usize>> = (0..nf)
            .map(|_| {
                let mut q: Vec<usize> = (0..nl).filter(|_| rng.gen_bool(0.4)).collect();
                if q.is_empty() && rng.gen_bool(0.9) {
                    q.push(rng.gen_range(0usize..nl));
                }
                q
            })
            .collect();
        let fast = max_min_rates(&flows, &caps);
        let reference = water_filling(&flows, &caps);
        for (f, (&x, &y)) in fast.iter().zip(&reference).enumerate() {
            if x.is_infinite() || y.is_infinite() {
                assert_eq!(x, y, "flow {f}");
            } else {
                let scale = x.abs().max(y.abs()).max(1e-300);
                assert!((x - y).abs() <= 1e-6 * scale, "flow {f}: {x} vs {y}");
            }
        }
    });
}

fn small_test_network() -> NetworkModel {
    let h = Hierarchy::new(vec![2, 2, 4]).unwrap();
    NetworkModel::new(
        h,
        vec![
            LinkParams {
                uplink_bandwidth: 10.0e9,
                crossing_latency: 1e-6,
            },
            LinkParams {
                uplink_bandwidth: 20.0e9,
                crossing_latency: 5e-7,
            },
            LinkParams {
                uplink_bandwidth: 8.0e9,
                crossing_latency: 2e-7,
            },
        ],
        20.0e9,
    )
}

/// Round-time invariants. Note max-min fairness is *not* monotone
/// under flow removal (removing a flow can shift a bottleneck and
/// lower another flow's allocation), so we assert what does hold:
/// a round is never faster than its slowest message run alone, and
/// growing a message never speeds the round up.
#[test]
fn round_time_invariants() {
    propcheck(64, 0xD0C0_0006, |rng| {
        let net = small_test_network();
        let n = rng.gen_range(1usize..12);
        let msgs: Vec<Message> = (0..n)
            .map(|_| {
                Message::new(
                    rng.gen_range(0usize..16),
                    rng.gen_range(0usize..16),
                    rng.gen_range(1u64..100_000),
                )
            })
            .collect();
        let t_all = net.round_time(&msgs);
        // In a round every message's rate is at most its alone rate, so
        // the round is at least as slow as the slowest isolated message.
        let slowest_alone = msgs
            .iter()
            .map(|&m| net.message_time(m))
            .fold(0.0f64, f64::max);
        assert!(t_all >= slowest_alone * (1.0 - 1e-12));
        // Growing a message never speeds the round up (rates depend only
        // on paths, not sizes).
        let mut bigger = msgs.clone();
        bigger[0].bytes *= 2;
        assert!(net.round_time(&bigger) >= t_all - 1e-15);
    });
}

/// Fluid simulation invariants: a single schedule costs exactly its
/// round-based time; concurrent schedules stay close to (and usually
/// below) the lockstep model — barriers can occasionally *help* by
/// avoiding convoy sharing, so the upper bound carries a tolerance —
/// and never beat the longest job run alone.
#[test]
fn fluid_bounds() {
    propcheck(64, 0xD0C0_0007, |rng| {
        let net = small_test_network();
        let njobs = rng.gen_range(1usize..4);
        let schedules: Vec<Schedule> = (0..njobs)
            .map(|_| {
                // Each job: its messages as successive one-message rounds.
                let nmsgs = rng.gen_range(1usize..5);
                Schedule::with(
                    (0..nmsgs)
                        .map(|_| {
                            Round::with(vec![Message::new(
                                rng.gen_range(0usize..16),
                                rng.gen_range(0usize..16),
                                rng.gen_range(1u64..100_000),
                            )])
                        })
                        .collect(),
                )
            })
            .collect();
        for s in &schedules {
            let fluid = fluid_time(&net, std::slice::from_ref(s));
            let rounds = net.schedule_time(s);
            assert!(
                (fluid - rounds).abs() <= 1e-9 * rounds.max(1e-12),
                "single-schedule fluid {fluid} != rounds {rounds}"
            );
        }
        let fluid_all = fluid_time(&net, &schedules);
        let lockstep = net.concurrent_time(&schedules);
        assert!(
            fluid_all <= lockstep * 1.25,
            "fluid {fluid_all} far exceeds lockstep {lockstep}"
        );
        // The makespan is at least the longest isolated job.
        let longest = schedules
            .iter()
            .map(|s| net.schedule_time(s))
            .fold(0.0f64, f64::max);
        assert!(fluid_all >= longest * (1.0 - 1e-9));
    });
}

/// Ragged layouts partition the machine for arbitrary size splits.
#[test]
fn ragged_partition() {
    propcheck(64, 0xD0C0_0008, |rng| {
        use mixed_radix_enum::core::subcommunicators_ragged;
        let (h, sigma) = arb_hierarchy_and_order(rng);
        // Derive sizes that sum to the world from random cuts.
        let world = h.size();
        let mut sizes = Vec::new();
        let mut remaining = world;
        for _ in 0..rng.gen_range(0usize..3) {
            let c = rng.gen_range(1usize..5);
            let take = c.min(remaining.saturating_sub(1));
            if take > 0 {
                sizes.push(take);
                remaining -= take;
            }
        }
        sizes.push(remaining);
        let layout = subcommunicators_ragged(&h, &sigma, &sizes).unwrap();
        let mut seen = vec![false; world];
        for c in 0..layout.count() {
            for &m in layout.members(c) {
                assert!(!seen[m]);
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
        // Members are ordered by reordered rank: consecutive comms cover
        // consecutive reordered rank ranges.
        let reordering = RankReordering::new(&h, &sigma).unwrap();
        let mut next = 0usize;
        for c in 0..layout.count() {
            for &m in layout.members(c) {
                assert_eq!(reordering.new_rank(m), next);
                next += 1;
            }
        }
    });
}

/// Schedule generators conserve payload: the bytes a collective moves
/// equal the algorithm's theoretical volume.
#[test]
fn schedule_volumes() {
    propcheck(64, 0xD0C0_0009, |rng| {
        let p = rng.gen_range(2usize..24);
        let bytes = rng.gen_range(1u64..10_000);
        let members: Vec<usize> = (0..p).collect();
        assert_eq!(
            schedules::alltoall_pairwise(&members, bytes).total_bytes(),
            (p * (p - 1)) as u64 * bytes
        );
        assert_eq!(
            schedules::allgather_ring(&members, bytes).total_bytes(),
            (p * (p - 1)) as u64 * bytes
        );
        assert_eq!(
            schedules::allgather_bruck(&members, bytes).total_bytes(),
            (p * (p - 1)) as u64 * bytes
        );
        // Ring allreduce moves 2(p−1)/p of the vector per rank.
        let ring = schedules::allreduce_ring(&members, bytes * p as u64);
        assert_eq!(ring.total_bytes(), 2 * (p as u64 - 1) * bytes * p as u64);
    });
}

// Thread-spawning cases are expensive; keep the case count low.

/// Allreduce computes the exact integer sum for arbitrary payloads,
/// rank counts and algorithms.
#[test]
fn functional_allreduce_sums() {
    propcheck(8, 0xD0C0_000A, |rng| {
        let p = rng.gen_range(2usize..10);
        let len = rng.gen_range(1usize..40);
        let alg = if rng.gen_bool(0.5) {
            AllreduceAlg::Ring
        } else {
            AllreduceAlg::RecursiveDoubling
        };
        let results = run(p, move |proc_| {
            let world = Comm::world(proc_);
            let mine: Vec<u64> = (0..len)
                .map(|i| (proc_.world_rank() * 1009 + i * 31) as u64)
                .collect();
            world.allreduce(mine, |a, b| a + b, alg)
        });
        let expected: Vec<u64> = (0..len)
            .map(|i| (0..p).map(|r| (r * 1009 + i * 31) as u64).sum())
            .collect();
        for r in results {
            assert_eq!(&r, &expected);
        }
    });
}

/// Alltoallv delivers exactly the payload addressed to each rank,
/// via both routing algorithms.
#[test]
fn functional_alltoallv_delivers() {
    propcheck(8, 0xD0C0_000B, |rng| {
        let p = rng.gen_range(2usize..9);
        let alg = if rng.gen_bool(0.5) {
            AlltoallAlg::Bruck
        } else {
            AlltoallAlg::Pairwise
        };
        let results = run(p, move |proc_| {
            let world = Comm::world(proc_);
            let me = world.rank();
            let send: Vec<Vec<u32>> = (0..p)
                .map(|d| vec![(me * 100 + d) as u32; (me + d) % 3 + 1])
                .collect();
            world.alltoallv(send, alg)
        });
        for (me, blocks) in results.iter().enumerate() {
            for (src, block) in blocks.iter().enumerate() {
                assert_eq!(block, &vec![(src * 100 + me) as u32; (src + me) % 3 + 1]);
            }
        }
    });
}

/// Allgather preserves block identity under all algorithms.
#[test]
fn functional_allgather_orders_blocks() {
    propcheck(8, 0xD0C0_000C, |rng| {
        let p = rng.gen_range(2usize..9);
        let alg = *rng
            .choose(&[
                AllgatherAlg::Ring,
                AllgatherAlg::Bruck,
                AllgatherAlg::RecursiveDoubling,
            ])
            .unwrap();
        let results = run(p, move |proc_| {
            let world = Comm::world(proc_);
            world.allgather(vec![world.rank() as u16 * 7], alg)
        });
        for blocks in results {
            for (src, block) in blocks.iter().enumerate() {
                assert_eq!(block, &vec![src as u16 * 7]);
            }
        }
    });
}

/// The physics lower bound is admissible for every schedule generator
/// under both contention modes: `schedule_lower_bound ≤ schedule_time`
/// (up to 1e-12 relative tolerance) for arbitrary member placements and
/// payload sizes.
#[test]
fn lower_bound_is_admissible_for_every_generator() {
    use mixed_radix_enum::simnet::{schedule_lower_bound, ContentionMode};
    propcheck(48, 0xD0C0_0010, |rng| {
        let base = small_test_network();
        let p = rng.gen_range(2usize..13);
        let mut cores: Vec<usize> = (0..16).collect();
        rng.shuffle(&mut cores);
        let members = &cores[..p];
        let bytes = rng.gen_range(1u64..1_000_000);
        let mut gens: Vec<(&str, Schedule)> = vec![
            (
                "alltoall_pairwise",
                schedules::alltoall_pairwise(members, bytes),
            ),
            ("alltoall_bruck", schedules::alltoall_bruck(members, bytes)),
            ("allgather_ring", schedules::allgather_ring(members, bytes)),
            (
                "allgather_bruck",
                schedules::allgather_bruck(members, bytes),
            ),
            ("allreduce_ring", schedules::allreduce_ring(members, bytes)),
            (
                "allreduce_recursive_doubling",
                schedules::allreduce_recursive_doubling(members, bytes),
            ),
            (
                "reduce_scatter_ring",
                schedules::reduce_scatter_ring(members, bytes),
            ),
            (
                "scan_hillis_steele",
                schedules::scan_hillis_steele(members, bytes),
            ),
        ];
        if p.is_power_of_two() {
            gens.push((
                "allgather_recursive_doubling",
                schedules::allgather_recursive_doubling(members, bytes),
            ));
        }
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = base.clone().with_contention_mode(mode);
            for (name, s) in &gens {
                let bound = schedule_lower_bound(&net, s);
                let time = net.schedule_time(s);
                assert!(
                    bound <= time * (1.0 + 1e-12),
                    "{name} (p={p}, bytes={bytes}, {mode:?}): \
                     bound {bound} exceeds schedule time {time}"
                );
            }
        }
    });
}

/// The barrier-free fluid makespan of concurrent schedules is never
/// below any constituent schedule's lower bound: relaxing barriers can
/// beat the lockstep time, but not physics.
#[test]
fn fluid_never_beats_a_constituent_lower_bound() {
    use mixed_radix_enum::simnet::schedule_lower_bound;
    propcheck(48, 0xD0C0_0011, |rng| {
        let net = small_test_network();
        let njobs = rng.gen_range(1usize..4);
        let schedules: Vec<Schedule> = (0..njobs)
            .map(|_| {
                let nrounds = rng.gen_range(1usize..4);
                Schedule::with(
                    (0..nrounds)
                        .map(|_| {
                            let nmsgs = rng.gen_range(1usize..5);
                            Round::with(
                                (0..nmsgs)
                                    .map(|_| {
                                        Message::new(
                                            rng.gen_range(0usize..16),
                                            rng.gen_range(0usize..16),
                                            rng.gen_range(1u64..100_000),
                                        )
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let makespan = fluid_time(&net, &schedules);
        for (j, s) in schedules.iter().enumerate() {
            let bound = schedule_lower_bound(&net, s);
            assert!(
                makespan >= bound * (1.0 - 1e-12),
                "job {j}: fluid makespan {makespan} below its own bound {bound}"
            );
        }
    });
}

/// The branch-and-bound sweep returns byte-identical per-cell best orders
/// to the exhaustive sweep on a Hydra-preset grid with the real
/// microbenchmark cost — and actually prunes.
#[test]
fn pruned_sweep_matches_exhaustive_on_hydra_microbench() {
    use mixed_radix_enum::core::order_search::{sweep, sweep_pruned_axis, SweepSpec};
    use mixed_radix_enum::simnet::presets::hydra_network;
    use mixed_radix_enum::simnet::schedule_lower_bound;
    use mixed_radix_enum::workloads::microbench::{Collective, Microbench};

    let net = hydra_network(4, 1);
    let machine = net.hierarchy().clone();
    let spec = SweepSpec {
        subcomm_sizes: vec![16, 32],
        payload_sizes: vec![64 << 10, 4 << 20],
    };
    let bench = |sigma: &Permutation, s: usize, bytes: u64| Microbench {
        machine: machine.clone(),
        order: sigma.clone(),
        subcomm_size: s,
        collective: Collective::Allgather(AllgatherAlg::Ring),
        total_bytes: bytes,
    };
    let cost = |sigma: &Permutation, s: usize, bytes: u64| {
        bench(sigma, s, bytes)
            .run(&net)
            .expect("valid configuration")
            .simultaneous_duration
    };
    let bound = |sigma: &Permutation, s: usize, bytes: u64| {
        let b = bench(sigma, s, bytes);
        let layout = subcommunicators(&machine, sigma, s, ColorScheme::Quotient)
            .expect("valid configuration");
        let all: Vec<Schedule> = (0..layout.count())
            .map(|c| b.schedule_for_rails(layout.members(c), 1))
            .collect();
        schedule_lower_bound(&net, &Schedule::lockstep(&all))
    };
    let exhaustive = sweep(&machine, &spec, cost).expect("valid spec");
    let pruned = sweep_pruned_axis(
        &machine,
        &spec,
        |_, _| (),
        |sigma, s, bytes, _| bound(sigma, s, bytes),
        |_, _, _, _| f64::NEG_INFINITY,
        |sigma, s, bytes, _| cost(sigma, s, bytes),
    )
    .expect("valid spec");
    assert_eq!(exhaustive.len(), pruned.len());
    let mut total_pruned = 0;
    for (e, p) in exhaustive.iter().zip(&pruned) {
        assert_eq!(e.subcomm_size, p.subcomm_size);
        assert_eq!(e.payload, p.payload);
        let (best_c, best_t) = &e.ranked[0];
        assert_eq!(best_c.order, p.best.0.order, "best order must be identical");
        assert_eq!(
            best_t.to_bits(),
            p.best.1.to_bits(),
            "best cost must be byte-identical"
        );
        assert_eq!(
            p.stats.candidates() as usize,
            e.ranked.len(),
            "every representative must be accounted for"
        );
        total_pruned += p.stats.pruned;
    }
    assert!(
        total_pruned > 0,
        "the bound must actually prune on the Hydra grid"
    );
}

/// The barrier-free fluid bound is admissible for every schedule
/// generator under both contention modes: `fluid_lower_bound ≤
/// fluid_time` for arbitrary member placements, payload sizes, and
/// multi-job splits.
#[test]
fn fluid_lower_bound_is_admissible_for_every_generator() {
    use mixed_radix_enum::simnet::{fluid_lower_bound, ContentionMode};
    propcheck(48, 0xD0C0_0012, |rng| {
        let base = small_test_network();
        let p = rng.gen_range(2usize..9);
        let mut cores: Vec<usize> = (0..16).collect();
        rng.shuffle(&mut cores);
        // Two disjoint member sets of size p: each generator runs as two
        // concurrent jobs (the single-job case is subsumed by taking the
        // max over jobs in the bound).
        let (a, b) = (&cores[..p], &cores[p..2 * p]);
        let bytes = rng.gen_range(1u64..1_000_000);
        let mut gens: Vec<(&str, Vec<Schedule>)> = vec![
            (
                "alltoall_pairwise",
                vec![
                    schedules::alltoall_pairwise(a, bytes),
                    schedules::alltoall_pairwise(b, bytes),
                ],
            ),
            (
                "alltoall_bruck",
                vec![
                    schedules::alltoall_bruck(a, bytes),
                    schedules::alltoall_bruck(b, bytes),
                ],
            ),
            (
                "allgather_ring",
                vec![
                    schedules::allgather_ring(a, bytes),
                    schedules::allgather_ring(b, bytes),
                ],
            ),
            (
                "allgather_bruck",
                vec![
                    schedules::allgather_bruck(a, bytes),
                    schedules::allgather_bruck(b, bytes),
                ],
            ),
            (
                "allreduce_ring",
                vec![
                    schedules::allreduce_ring(a, bytes),
                    schedules::allreduce_ring(b, bytes),
                ],
            ),
            (
                "allreduce_recursive_doubling",
                vec![
                    schedules::allreduce_recursive_doubling(a, bytes),
                    schedules::allreduce_recursive_doubling(b, bytes),
                ],
            ),
            (
                "reduce_scatter_ring",
                vec![
                    schedules::reduce_scatter_ring(a, bytes),
                    schedules::reduce_scatter_ring(b, bytes),
                ],
            ),
            (
                "scan_hillis_steele",
                vec![
                    schedules::scan_hillis_steele(a, bytes),
                    schedules::scan_hillis_steele(b, bytes),
                ],
            ),
        ];
        if p.is_power_of_two() {
            gens.push((
                "allgather_recursive_doubling",
                vec![
                    schedules::allgather_recursive_doubling(a, bytes),
                    schedules::allgather_recursive_doubling(b, bytes),
                ],
            ));
        }
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = base.clone().with_contention_mode(mode);
            for (name, jobs) in &gens {
                let bound = fluid_lower_bound(&net, jobs);
                let time = fluid_time(&net, jobs);
                assert!(
                    bound <= time * (1.0 + 1e-12),
                    "{name} (p={p}, bytes={bytes}, {mode:?}): \
                     fluid bound {bound} exceeds fluid makespan {time}"
                );
            }
        }
    });
}

/// Fluid timeline consistency: the recorded spans reproduce the
/// makespan (last finish == makespan at 1e-12 relative), account for
/// every payload byte, never finish faster than the message could
/// alone, and the engine never oversubscribes a traversed link in any
/// event interval (peak utilization ≤ 1).
#[test]
fn fluid_timeline_is_consistent() {
    use mixed_radix_enum::simnet::fluid_timeline;
    propcheck(48, 0xD0C0_0013, |rng| {
        let net = small_test_network();
        let njobs = rng.gen_range(1usize..4);
        let schedules: Vec<Schedule> = (0..njobs)
            .map(|_| {
                let nrounds = rng.gen_range(1usize..4);
                Schedule::with(
                    (0..nrounds)
                        .map(|_| {
                            let nmsgs = rng.gen_range(1usize..5);
                            Round::with(
                                (0..nmsgs)
                                    .map(|_| {
                                        Message::new(
                                            rng.gen_range(0usize..16),
                                            rng.gen_range(0usize..16),
                                            rng.gen_range(1u64..100_000),
                                        )
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let tl = fluid_timeline(&net, &schedules);
        assert!(
            (tl.last_finish() - tl.makespan).abs() <= 1e-12 * tl.makespan,
            "last finish {} vs makespan {}",
            tl.last_finish(),
            tl.makespan
        );
        assert_eq!(tl.makespan, fluid_time(&net, &schedules));
        let expected_bytes: u64 = schedules.iter().map(Schedule::total_bytes).sum();
        assert_eq!(tl.total_bytes(), expected_bytes);
        for s in &tl.spans {
            let alone = net.message_time(Message::new(s.src, s.dst, s.bytes));
            assert!(
                s.duration() >= alone * (1.0 - 1e-9),
                "span {}→{} ({} B) ran in {} < alone time {}",
                s.src,
                s.dst,
                s.bytes,
                s.duration(),
                alone
            );
        }
        assert!(
            tl.stats.peak_link_utilization <= 1.0 + 1e-9,
            "a link was oversubscribed: peak utilization {}",
            tl.stats.peak_link_utilization
        );
    });
}

/// The branch-and-bound sweep with the fluid cost and the fluid bound
/// returns byte-identical per-cell best orders to the exhaustive fluid
/// sweep on a Hydra-preset grid — and actually prunes.
#[test]
fn pruned_fluid_sweep_matches_exhaustive_on_hydra_microbench() {
    use mixed_radix_enum::core::order_search::{sweep, sweep_pruned_axis, SweepSpec};
    use mixed_radix_enum::simnet::fluid_lower_bound;
    use mixed_radix_enum::simnet::presets::hydra_network;
    use mixed_radix_enum::workloads::microbench::{Collective, Microbench};

    let net = hydra_network(4, 1);
    let machine = net.hierarchy().clone();
    let spec = SweepSpec {
        subcomm_sizes: vec![16, 32],
        payload_sizes: vec![64 << 10, 4 << 20],
    };
    let schedules_for = |sigma: &Permutation, s: usize, bytes: u64| -> Vec<Schedule> {
        let b = Microbench {
            machine: machine.clone(),
            order: sigma.clone(),
            subcomm_size: s,
            collective: Collective::Allgather(AllgatherAlg::Ring),
            total_bytes: bytes,
        };
        let layout = subcommunicators(&machine, sigma, s, ColorScheme::Quotient)
            .expect("valid configuration");
        (0..layout.count())
            .map(|c| b.schedule_for_rails(layout.members(c), 1))
            .collect()
    };
    let cost = |sigma: &Permutation, s: usize, bytes: u64| {
        fluid_time(&net, &schedules_for(sigma, s, bytes))
    };
    let bound = |sigma: &Permutation, s: usize, bytes: u64| {
        fluid_lower_bound(&net, &schedules_for(sigma, s, bytes))
    };
    let exhaustive = sweep(&machine, &spec, cost).expect("valid spec");
    let pruned = sweep_pruned_axis(
        &machine,
        &spec,
        |_, _| (),
        |sigma, s, bytes, _| bound(sigma, s, bytes),
        |_, _, _, _| f64::NEG_INFINITY,
        |sigma, s, bytes, _| cost(sigma, s, bytes),
    )
    .expect("valid spec");
    assert_eq!(exhaustive.len(), pruned.len());
    let mut total_pruned = 0;
    for (e, p) in exhaustive.iter().zip(&pruned) {
        let (best_c, best_t) = &e.ranked[0];
        assert_eq!(best_c.order, p.best.0.order, "best order must be identical");
        assert_eq!(
            best_t.to_bits(),
            p.best.1.to_bits(),
            "best fluid cost must be byte-identical"
        );
        total_pruned += p.stats.pruned;
    }
    assert!(
        total_pruned > 0,
        "the fluid bound must actually prune on the Hydra grid"
    );
}

/// A multi-rail network declared with one rail per level is the
/// single-pipe network, bit for bit: `fluid_time` and `schedule_time`
/// agree exactly under every rail policy for arbitrary concurrent
/// schedules (far stronger than the 1e-12 relative acceptance bar).
#[test]
fn one_rail_fabric_is_byte_identical_to_the_aggregate() {
    use mixed_radix_enum::simnet::RailPolicy;
    propcheck(48, 0xD0C0_0020, |rng| {
        let net = small_test_network();
        let njobs = rng.gen_range(1usize..4);
        let schedules: Vec<Schedule> = (0..njobs)
            .map(|_| {
                let nrounds = rng.gen_range(1usize..4);
                Schedule::with(
                    (0..nrounds)
                        .map(|_| {
                            let nmsgs = rng.gen_range(1usize..5);
                            Round::with(
                                (0..nmsgs)
                                    .map(|_| {
                                        Message::new(
                                            rng.gen_range(0usize..16),
                                            rng.gen_range(0usize..16),
                                            rng.gen_range(1u64..100_000),
                                        )
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let fluid = fluid_time(&net, &schedules);
        let lockstep = net.concurrent_time(&schedules);
        for policy in RailPolicy::ALL {
            let railed = net.clone().with_rails(vec![1; 3], policy);
            assert_eq!(
                fluid.to_bits(),
                fluid_time(&railed, &schedules).to_bits(),
                "1-rail fluid must be byte-identical ({policy})"
            );
            assert_eq!(
                lockstep.to_bits(),
                railed.concurrent_time(&schedules).to_bits(),
                "1-rail lockstep must be byte-identical ({policy})"
            );
        }
    });
}

/// The physics lower bound stays admissible on multi-rail fabrics under
/// both contention modes: for every generator — including the
/// rail-striped pairwise Alltoall — and every rail policy,
/// `schedule_lower_bound ≤ schedule_time`.
#[test]
fn railed_lower_bound_is_admissible_under_both_contention_modes() {
    use mixed_radix_enum::simnet::{schedule_lower_bound, ContentionMode, RailPolicy};
    propcheck(48, 0xD0C0_0021, |rng| {
        let base = small_test_network();
        let nics = rng.gen_range(2usize..5);
        let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
        let p = rng.gen_range(2usize..13);
        let mut cores: Vec<usize> = (0..16).collect();
        rng.shuffle(&mut cores);
        let members = &cores[..p];
        let bytes = rng.gen_range(1u64..1_000_000);
        let gens: Vec<(&str, Schedule)> = vec![
            (
                "alltoall_pairwise_railed",
                schedules::alltoall_pairwise_railed(members, bytes, nics),
            ),
            (
                "alltoall_pairwise",
                schedules::alltoall_pairwise(members, bytes),
            ),
            ("alltoall_bruck", schedules::alltoall_bruck(members, bytes)),
            ("allgather_ring", schedules::allgather_ring(members, bytes)),
            ("allreduce_ring", schedules::allreduce_ring(members, bytes)),
            (
                "allreduce_recursive_doubling",
                schedules::allreduce_recursive_doubling(members, bytes),
            ),
        ];
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = base
                .clone()
                .with_rails(vec![nics, 1, nics], policy)
                .with_contention_mode(mode);
            for (name, s) in &gens {
                let bound = schedule_lower_bound(&net, s);
                let time = net.schedule_time(s);
                assert!(
                    bound <= time * (1.0 + 1e-12),
                    "{name} (p={p}, bytes={bytes}, nics={nics}, {policy}, {mode:?}): \
                     bound {bound} exceeds schedule time {time}"
                );
            }
        }
    });
}

/// Rail assignment is a pure function of (level, src, dst, direction):
/// computing it concurrently from the worker pool matches the serial
/// answer exactly, for every policy — no hidden state, no thread
/// dependence.
#[test]
fn rail_assignment_is_deterministic_across_threads() {
    use mixed_radix_enum::simnet::RailPolicy;
    propcheck(16, 0xD0C0_0022, |rng| {
        let nics = rng.gen_range(2usize..5);
        let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
        let net = small_test_network().with_rails(vec![nics, nics, nics], policy);
        let cases: Vec<(usize, usize, usize, bool)> = (0..256)
            .map(|_| {
                (
                    rng.gen_range(0usize..3),
                    rng.gen_range(0usize..16),
                    rng.gen_range(0usize..16),
                    rng.gen_range(0usize..2) == 0,
                )
            })
            .collect();
        let serial: Vec<usize> = cases
            .iter()
            .map(|&(level, src, dst, up)| net.message_rail(level, src, dst, up))
            .collect();
        for _ in 0..4 {
            let parallel = mixed_radix_enum::core::par::map(&cases, |_, &(level, src, dst, up)| {
                net.message_rail(level, src, dst, up)
            });
            assert_eq!(serial, parallel, "{policy} must be thread-deterministic");
        }
    });
}

/// Random concurrent schedules on the 16-core test machine: 1–3 jobs of
/// 1–3 rounds of 1–4 messages each.
fn arb_concurrent_schedules(rng: &mut SmallRng) -> Vec<Schedule> {
    let njobs = rng.gen_range(1usize..4);
    (0..njobs)
        .map(|_| {
            let nrounds = rng.gen_range(1usize..4);
            Schedule::with(
                (0..nrounds)
                    .map(|_| {
                        let nmsgs = rng.gen_range(1usize..5);
                        Round::with(
                            (0..nmsgs)
                                .map(|_| {
                                    Message::new(
                                        rng.gen_range(0usize..16),
                                        rng.gen_range(0usize..16),
                                        rng.gen_range(1u64..100_000),
                                    )
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Reference byte ledger for a probed run: every crossing message routes
/// its full payload over both directed links of every level from its
/// crossing level down, independent of engine, timing or contention.
fn routed_link_bytes(
    net: &NetworkModel,
    probe: &mixed_radix_enum::simnet::CongestionProbe,
    schedules: &[Schedule],
) -> Vec<f64> {
    let h = net.hierarchy();
    let mut expected = vec![0.0f64; probe.num_links()];
    for m in schedules
        .iter()
        .flat_map(|s| s.rounds.iter())
        .flat_map(|r| r.messages.iter())
    {
        if m.src == m.dst {
            continue;
        }
        let cs = coordinates(h, m.src).unwrap();
        let cd = coordinates(h, m.dst).unwrap();
        let j = (0..h.depth()).find(|&l| cs[l] != cd[l]).unwrap();
        for level in j..h.depth() {
            for up in [true, false] {
                let link = probe.table().message_link(level, m.src, m.dst, up);
                expected[link as usize] += m.bytes as f64;
            }
        }
    }
    expected
}

/// Byte conservation of the congestion observatory: the integral of a
/// link's recorded rate segments equals the bytes routed over that link —
/// for both engines, both contention modes, and 1/2/4 node rails under
/// every rail policy. This pins the probe to the ground truth of the
/// schedule itself, not to the engine that fed it.
#[test]
fn congestion_probe_conserves_routed_bytes() {
    use mixed_radix_enum::simnet::{CongestionProbe, ContentionMode, FluidSim, RailPolicy};
    propcheck(16, 0xD0C0_0023, |rng| {
        let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
        let schedules = arb_concurrent_schedules(rng);
        for nics in [1usize, 2, 4] {
            for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
                let net = small_test_network()
                    .with_rails(vec![nics, 1, nics], policy)
                    .with_contention_mode(mode);
                // Fluid feed over the concurrent job set.
                let mut probe = CongestionProbe::new(&net);
                FluidSim::new(&net).run_probed(&schedules, &mut probe);
                let expected = routed_link_bytes(&net, &probe, &schedules);
                for l in 0..probe.num_links() as u32 {
                    let got = probe.link_bytes(l);
                    let want = expected[l as usize];
                    assert!(
                        (got - want).abs() <= 1e-9 * want.max(1.0),
                        "fluid link {l} carried {got} B, routed {want} B \
                         (nics={nics}, {policy}, {mode:?})"
                    );
                }
                // Lockstep feed over the first job.
                let mut probe = CongestionProbe::new(&net);
                net.schedule_time_probed(&schedules[0], &mut probe);
                let expected = routed_link_bytes(&net, &probe, std::slice::from_ref(&schedules[0]));
                for l in 0..probe.num_links() as u32 {
                    let got = probe.link_bytes(l);
                    let want = expected[l as usize];
                    assert!(
                        (got - want).abs() <= 1e-9 * want.max(1.0),
                        "lockstep link {l} carried {got} B, routed {want} B \
                         (nics={nics}, {policy}, {mode:?})"
                    );
                }
            }
        }
    });
}

/// Zero-cost contract of the probe: attaching one never changes the
/// simulated cost — the probed entry points are bit-identical to the
/// unprobed ones, under both engines, both contention modes and random
/// rail fabrics.
#[test]
fn attaching_a_congestion_probe_never_changes_costs() {
    use mixed_radix_enum::simnet::{CongestionProbe, ContentionMode, FluidSim, RailPolicy};
    propcheck(24, 0xD0C0_0024, |rng| {
        let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
        let nics = rng.gen_range(1usize..5);
        let schedules = arb_concurrent_schedules(rng);
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = small_test_network()
                .with_rails(vec![nics, 1, nics], policy)
                .with_contention_mode(mode);
            let mut probe = CongestionProbe::new(&net);
            assert_eq!(
                net.schedule_time(&schedules[0]).to_bits(),
                net.schedule_time_probed(&schedules[0], &mut probe)
                    .to_bits(),
                "lockstep probed run must be bit-identical ({policy}, {mode:?})"
            );
            let mut probe = CongestionProbe::new(&net);
            assert_eq!(
                FluidSim::new(&net).run(&schedules).to_bits(),
                FluidSim::new(&net)
                    .run_probed(&schedules, &mut probe)
                    .to_bits(),
                "fluid probed run must be bit-identical ({policy}, {mode:?})"
            );
        }
    });
}

/// The per-level bound-gap telemetry is sound: for every collective
/// generator, the observed busy span of a level is at least that level's
/// admissible bound contribution (gap ≥ 0 everywhere), under both engines
/// and contention modes on single- and multi-rail fabrics.
#[test]
fn congestion_bound_gaps_are_non_negative() {
    use mixed_radix_enum::simnet::{
        bound_gap_fluid, bound_gap_lockstep, CongestionProbe, ContentionMode, FluidSim, RailPolicy,
    };
    propcheck(24, 0xD0C0_0025, |rng| {
        let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
        let nics = rng.gen_range(1usize..4);
        let p = rng.gen_range(2usize..13);
        let mut cores: Vec<usize> = (0..16).collect();
        rng.shuffle(&mut cores);
        let members = &cores[..p];
        let bytes = rng.gen_range(1u64..1_000_000);
        let gens: Vec<(&str, Schedule)> = vec![
            (
                "alltoall_pairwise_railed",
                schedules::alltoall_pairwise_railed(members, bytes, nics),
            ),
            (
                "alltoall_pairwise",
                schedules::alltoall_pairwise(members, bytes),
            ),
            ("allgather_ring", schedules::allgather_ring(members, bytes)),
            ("allreduce_ring", schedules::allreduce_ring(members, bytes)),
        ];
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = small_test_network()
                .with_rails(vec![nics, 1, nics], policy)
                .with_contention_mode(mode);
            for (name, s) in &gens {
                let mut probe = CongestionProbe::new(&net);
                net.schedule_time_probed(s, &mut probe);
                for g in bound_gap_lockstep(&net, s, &probe) {
                    assert!(
                        g.gap() >= -1e-9 * g.actual.max(1e-12),
                        "{name} lockstep level {} gap {} < 0 \
                         (bound {}, actual {}, nics={nics}, {policy}, {mode:?})",
                        g.level,
                        g.gap(),
                        g.bound,
                        g.actual
                    );
                }
                let mut probe = CongestionProbe::new(&net);
                FluidSim::new(&net).run_probed(std::slice::from_ref(s), &mut probe);
                for g in bound_gap_fluid(&net, std::slice::from_ref(s), &probe) {
                    assert!(
                        g.gap() >= -1e-9 * g.actual.max(1e-12),
                        "{name} fluid level {} gap {} < 0 \
                         (bound {}, actual {}, nics={nics}, {policy}, {mode:?})",
                        g.level,
                        g.gap(),
                        g.bound,
                        g.actual
                    );
                }
            }
        }
    });
}

/// The parallel best-first branch-and-bound frontier is equivalent to
/// the exhaustive ranking on random hierarchies: same winner order,
/// byte-identical best cost, and every representative accounted for, for
/// an arbitrary admissible bound. (The evaluated/pruned *split* is
/// interleaving-dependent by design and is not compared; the
/// `serial_search` test of `mre-core` pins it on one worker.)
#[test]
fn pruned_parallel_frontier_matches_exhaustive() {
    use mixed_radix_enum::core::order_search::{
        rank_orders_by_par, rank_orders_pruned_ladder, spreadness,
    };
    propcheck(24, 0xD0C0_0030, |rng| {
        let (h, _) = arb_hierarchy_and_order(rng);
        let world = h.size();
        if world < 4 || world % 2 != 0 {
            return;
        }
        let s = if world % 4 == 0 && rng.gen_bool(0.5) {
            world / 4
        } else {
            world / 2
        };
        if s < 2 {
            return;
        }
        // Deliberately coarse cost: rounding forces cost ties, so the
        // deterministic (cost, enumeration index) tie-break is exercised.
        // Halving keeps the bound admissible while still pruning.
        let cost =
            |sigma: &Permutation| (spreadness(&h, sigma, s).expect("valid order") * 4.0).round();
        let exhaustive = rank_orders_by_par(&h, s, cost).unwrap();
        let parallel = rank_orders_pruned_ladder(
            &h,
            s,
            |_| (),
            |sigma, _| cost(sigma) * 0.5,
            |_, _| f64::NEG_INFINITY,
            |sigma, _| cost(sigma),
        )
        .unwrap();
        assert_eq!(
            exhaustive[0].0.order, parallel.best.0.order,
            "winner order must be identical"
        );
        assert_eq!(
            exhaustive[0].1.to_bits(),
            parallel.best.1.to_bits(),
            "winner cost must be byte-identical"
        );
        assert_eq!(
            exhaustive.len() as u64,
            parallel.stats.candidates(),
            "every representative must be accounted for"
        );
    });
}

/// The per-rail histogram bound **dominates** the aggregate bound on
/// multi-rail fabrics — `schedule_lower_bound ≥
/// schedule_lower_bound_aggregate` (and the fluid pair likewise) — for
/// 2- and 4-rail fabrics under every rail policy and both contention
/// modes, across the schedule generators. Together with admissibility
/// (tested above) this is exactly what makes the bound ladder's second
/// rung sound: it can only prune *more*, never the true optimum.
#[test]
fn per_rail_bound_dominates_aggregate_on_railed_fabrics() {
    use mixed_radix_enum::simnet::{
        fluid_lower_bound, fluid_lower_bound_aggregate, schedule_lower_bound,
        schedule_lower_bound_aggregate, ContentionMode, RailPolicy,
    };
    propcheck(48, 0xD0C0_0031, |rng| {
        let base = small_test_network();
        let nics = if rng.gen_bool(0.5) { 2usize } else { 4 };
        let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
        let p = rng.gen_range(2usize..13);
        let mut cores: Vec<usize> = (0..16).collect();
        rng.shuffle(&mut cores);
        let members = &cores[..p];
        let bytes = rng.gen_range(1u64..1_000_000);
        let gens: Vec<(&str, Schedule)> = vec![
            (
                "alltoall_pairwise_railed",
                schedules::alltoall_pairwise_railed(members, bytes, nics),
            ),
            (
                "alltoall_pairwise",
                schedules::alltoall_pairwise(members, bytes),
            ),
            ("alltoall_bruck", schedules::alltoall_bruck(members, bytes)),
            ("allgather_ring", schedules::allgather_ring(members, bytes)),
            ("allreduce_ring", schedules::allreduce_ring(members, bytes)),
            (
                "reduce_scatter_ring",
                schedules::reduce_scatter_ring(members, bytes),
            ),
        ];
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = base
                .clone()
                .with_rails(vec![nics, 1, nics], policy)
                .with_contention_mode(mode);
            for (name, s) in &gens {
                let per_rail = schedule_lower_bound(&net, s);
                let aggregate = schedule_lower_bound_aggregate(&net, s);
                assert!(
                    per_rail >= aggregate * (1.0 - 1e-12),
                    "{name} (p={p}, bytes={bytes}, nics={nics}, {policy}, {mode:?}): \
                     per-rail {per_rail} below aggregate {aggregate}"
                );
            }
            // The fluid pair, over a multi-job split of the same traffic.
            let jobs: Vec<Schedule> = gens.iter().map(|(_, s)| s.clone()).collect();
            let per_rail = fluid_lower_bound(&net, &jobs);
            let aggregate = fluid_lower_bound_aggregate(&net, &jobs);
            assert!(
                per_rail >= aggregate * (1.0 - 1e-12),
                "fluid (p={p}, bytes={bytes}, nics={nics}, {policy}, {mode:?}): \
                 per-rail {per_rail} below aggregate {aggregate}"
            );
        }
    });
}

/// Text fragments the no-panic property splices into its inputs: the
/// tokens of every grammar below, huge and negative numbers, empty
/// fields, stray separators and a multi-byte character.
const TEXT_FRAGMENTS: &[&str] = &[
    "0",
    "1",
    "2",
    "7",
    "16",
    "99",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "",
    " ",
    ",",
    ",,",
    "x",
    "-",
    "--",
    "[",
    "]",
    ":",
    "=",
    "\n",
    "#",
    "rank ",
    "node",
    " slot=",
    "block",
    "cyclic",
    "plane=",
    "<topology>",
    "</topology>",
    "<object ",
    "type=\"",
    "arity=\"",
    "\"",
    "/>",
    ">",
    "</object>",
    "core",
    "socket",
    "é",
];

/// Numeric fields the no-panic property substitutes into valid inputs:
/// in range, just past a `[2, 2, 4]` machine, huge, negative and empty.
const NUMBER_FIELDS: &[&str] = &[
    "0",
    "1",
    "7",
    "8",
    "99",
    "-1",
    "",
    "18446744073709551615",
    "99999999999999999999999999",
];

/// A seeded random string: a splice of fragments, or one of the `valid`
/// spellings with about half its numeric fields replaced from
/// [`NUMBER_FIELDS`], or one with spans replaced, deleted, duplicated or
/// interleaved with fragments.
fn arb_text(rng: &mut SmallRng, valid: &[String]) -> String {
    let fragment = |rng: &mut SmallRng| *rng.choose(TEXT_FRAGMENTS).expect("fragments");
    let base = rng.choose(valid).expect("valid inputs");
    match rng.gen_range(0u32..3) {
        0 => (0..rng.gen_range(0usize..12))
            .map(|_| fragment(rng))
            .collect(),
        1 => {
            let mut out = String::new();
            let mut rest = base.as_str();
            while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
                let end = rest[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(rest.len(), |len| start + len);
                out.push_str(&rest[..start]);
                out.push_str(if rng.gen_bool(0.5) {
                    rng.choose(NUMBER_FIELDS).expect("fields")
                } else {
                    &rest[start..end]
                });
                rest = &rest[end..];
            }
            out + rest
        }
        _ => {
            let mut chars: Vec<char> = base.chars().collect();
            for _ in 0..rng.gen_range(1usize..4) {
                let at = rng.gen_range(0..chars.len() + 1);
                let end = (at + rng.gen_range(0usize..6)).min(chars.len());
                match rng.gen_range(0u32..4) {
                    0 => {
                        chars.splice(at..end, fragment(rng).chars());
                    }
                    1 => {
                        chars.drain(at..end);
                    }
                    2 => {
                        let span: Vec<char> = chars[at..end].to_vec();
                        chars.splice(at..at, span);
                    }
                    _ => {
                        chars.splice(at..at, fragment(rng).chars());
                    }
                }
            }
            chars.into_iter().collect()
        }
    }
}

/// Every text input surface returns `Ok` or `Err` on arbitrary input —
/// hierarchies, permutations, rankfiles (through to a job layout), Slurm
/// distributions (through to an order) and topology XML — never a panic.
#[test]
fn text_inputs_never_panic() {
    use mixed_radix_enum::core::rankfile::Rankfile;
    use mixed_radix_enum::slurm::{Distribution, JobLayout};
    use mixed_radix_enum::topology::machines::hydra;
    use mixed_radix_enum::topology::xml::{from_xml, to_xml};

    let machine = Hierarchy::new(vec![2, 2, 4]).unwrap();
    let rankfile = Rankfile::from_order(&machine, &Permutation::new(vec![0, 2, 1]).unwrap())
        .unwrap()
        .render();
    let valid: Vec<String> = [
        "2,2,4",
        "2x2x4",
        "[16, 2, 2, 8]",
        "2-0-1",
        "[3, 2, 1, 0]",
        "block:cyclic",
        "cyclic",
        "plane=4",
        "rank 0=node0 slot=0",
        "rank 0=node1 slot=7\nrank 1=node0 slot=0\n",
        &rankfile,
        &to_xml(&hydra(2).spec),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    propcheck(20_000, 0x7E47_0001, |rng| {
        let text = arb_text(rng, &valid);
        let _ = Hierarchy::parse(&text);
        let _ = Permutation::parse(&text);
        if let Ok(rf) = Rankfile::parse(&text) {
            let _ = JobLayout::from_rankfile(&machine, &rf);
        }
        if let Ok(dist) = Distribution::parse(&text) {
            let _ = dist.to_order(&machine);
        }
        if let Ok(spec) = from_xml(&text) {
            let _ = spec.hierarchy();
        }
    });
}
