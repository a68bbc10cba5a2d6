//! Exactness and allocation properties of the batch costing kernel
//! (DESIGN.md §7h): the symbolic payload envelope, the round-level memo,
//! and the pooled thread-local workspaces.
//!
//! Three families of properties, each over the full configuration
//! product (collective generator × contention mode × 1/2/4 rails × rail
//! policy):
//!
//! 1. **Symbolic ≡ exact**: the piecewise-linear envelope is within
//!    1e-12 relative of `schedule_time` at every payload grid point, and
//!    the symbolic *replay* (`time_at_payload`) is bit-identical to it.
//! 2. **Memoized ≡ memo-free**: `SharedCostCache::schedule_time_rounds`
//!    returns bit-identical results to a direct `schedule_time`, cold and
//!    warm, with the round tier actually hitting across payloads.
//! 3. **Pooled ≡ fresh**: costing through a dirty, much-reused
//!    thread-local workspace is bit-identical to costing on a brand-new
//!    thread whose workspace has never been touched.
//! 4. **Pruned ≡ exhaustive**: on the 8-node Hydra rail grid, the bound
//!    ladder over memoized costs and the symbolic payload axis pick every
//!    cell's winner, cost bits included, exactly as the exhaustive sweep.
//! 5. **Round reuse ≡ per-round work**: both schedule bounds, the memoized
//!    schedule cost and the symbolic build reuse a round equal to its
//!    predecessor; each equals its memo-free per-round spelling bit for
//!    bit, and the memo counters do not move.
//!
//! A counting global allocator (gated to the measuring thread, so the
//! parallel test harness cannot pollute the count) then asserts the
//! steady-state claim: after warm-up, costing a candidate through the
//! memo, evaluating the symbolic envelope and bounding a round or a whole
//! schedule with either rung perform **zero** heap allocations, a warm
//! round profile allocates only the profile's two vectors, and the
//! schedule generators and the lockstep merge allocate each round once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mre_core::order_search::{rank_orders_pruned_ladder, sweep, sweep_pruned_axis, SweepSpec};
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_mpi::schedules;
use mre_mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mre_simnet::presets::hydra_network_rails;
use mre_simnet::{
    schedule_lower_bound, schedule_lower_bound_aggregate, thread_workspace_rounds, ContentionMode,
    Message, NetworkModel, RailPolicy, Round, RoundProfile, RoundWorkspace, Schedule,
    SharedCostCache, SymbolicScheduleCost,
};
use mre_workloads::microbench::{Collective, Microbench};

// ---------------------------------------------------------------------
// Counting allocator, gated per thread: only allocations made while the
// current thread is inside `count_allocations` are counted, so the other
// test threads of the harness never perturb the measurement.

struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn tracking() -> bool {
    // `try_with`: the allocator can be called during TLS teardown.
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted; returns the count.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    TRACKING.with(|t| t.set(true));
    let before = ALLOCS.load(Ordering::SeqCst);
    let result = f();
    let after = ALLOCS.load(Ordering::SeqCst);
    TRACKING.with(|t| t.set(false));
    (after - before, result)
}

// ---------------------------------------------------------------------
// The configuration product.

/// 2 Hydra nodes — small enough for the full product in debug tests,
/// large enough that internode traffic exists and rail policies differ.
const NODES: usize = 2;
/// Smallest grid point; every other point is an integer multiple.
const REF_PAYLOAD: u64 = 64 << 10;
const PAYLOADS: [u64; 3] = [64 << 10, 128 << 10, 256 << 10];
const SUBCOMM: usize = 16;

/// Every non-`Auto` generator (`Auto` switches algorithms across the
/// payload threshold, which is exactly the non-linearity `matches` is
/// there to reject — exercised separately below).
fn generators() -> Vec<Collective> {
    vec![
        Collective::Alltoall(AlltoallAlg::Pairwise),
        Collective::Alltoall(AlltoallAlg::Bruck),
        Collective::Allgather(AllgatherAlg::Ring),
        Collective::Allgather(AllgatherAlg::Bruck),
        Collective::Allgather(AllgatherAlg::RecursiveDoubling),
        Collective::Allreduce(AllreduceAlg::Ring),
        Collective::Allreduce(AllreduceAlg::RecursiveDoubling),
    ]
}

fn policies() -> [RailPolicy; 3] {
    [
        RailPolicy::RoundRobin,
        RailPolicy::SrcHash,
        RailPolicy::Affinity,
    ]
}

/// The candidate's merged lockstep schedule on the identity order.
fn merged(machine: &Hierarchy, collective: Collective, bytes: u64, nics: usize) -> Schedule {
    let identity = Permutation::identity(machine.depth());
    merged_on(machine, &identity, SUBCOMM, collective, bytes, nics)
}

/// The merged lockstep schedule of every `s`-process subcommunicator of
/// `order`'s layout.
fn merged_on(
    machine: &Hierarchy,
    order: &Permutation,
    s: usize,
    collective: Collective,
    bytes: u64,
    nics: usize,
) -> Schedule {
    let b = Microbench {
        machine: machine.clone(),
        order: order.clone(),
        subcomm_size: s,
        collective,
        total_bytes: bytes,
    };
    let layout =
        subcommunicators(machine, order, s, ColorScheme::Quotient).expect("valid configuration");
    let jobs: Vec<Schedule> = (0..layout.count())
        .map(|c| b.schedule_for_rails(layout.members(c), nics))
        .collect();
    Schedule::lockstep(&jobs)
}

fn fabric(nics: usize, policy: RailPolicy, mode: ContentionMode) -> NetworkModel {
    hydra_network_rails(NODES, nics, policy).with_contention_mode(mode)
}

#[test]
fn envelope_matches_schedule_time_across_the_full_product() {
    for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
        for nics in [1usize, 2, 4] {
            for policy in policies() {
                let net = fabric(nics, policy, mode);
                let machine = net.hierarchy().clone();
                let cache = SharedCostCache::new();
                // The build reuses a round equal to its predecessor; it must
                // count exactly the hits of one profile lookup per round.
                let per_round = SharedCostCache::new();
                for collective in generators() {
                    let reference = merged(&machine, collective, REF_PAYLOAD, nics);
                    let sym = SymbolicScheduleCost::build(&net, &cache, &reference, REF_PAYLOAD)
                        .expect("non-zero reference payload");
                    for r in &reference.rounds {
                        per_round.round_time_memo(&net, r);
                    }
                    assert_eq!(
                        cache.cache_stats(),
                        per_round.cache_stats(),
                        "{collective:?}: round reuse must count the hits it replaces"
                    );
                    for payload in PAYLOADS {
                        let m = merged(&machine, collective, payload, nics);
                        assert!(
                            sym.matches(&m, payload),
                            "{collective:?} must scale linearly on this grid \
                             ({mode:?}, {nics} rails, {policy}, payload {payload})"
                        );
                        let exact = net.schedule_time(&m);
                        let replay = sym.time_at_payload(payload).expect("integral scaling");
                        assert_eq!(
                            replay.to_bits(),
                            exact.to_bits(),
                            "symbolic replay must be bit-identical to schedule_time \
                             ({collective:?}, {mode:?}, {nics} rails, {policy}, {payload})"
                        );
                        let envelope = sym.envelope().value(payload as f64);
                        assert!(
                            (envelope - exact).abs() <= 1e-12 * exact.abs(),
                            "envelope {envelope} vs exact {exact} out of 1e-12 rel \
                             ({collective:?}, {mode:?}, {nics} rails, {policy}, {payload})"
                        );
                        let bound = sym.bound_at(payload);
                        assert!(
                            bound <= exact,
                            "envelope bound {bound} must stay admissible vs {exact}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn auto_algorithm_switch_is_rejected_by_matches() {
    // Auto crosses the small-message threshold between these payloads, so
    // the generated schedule stops being the linear image of the
    // reference — `matches` must say so (the axis sweep then falls back
    // to the exact engine instead of replaying a wrong envelope).
    let net = fabric(1, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let machine = net.hierarchy().clone();
    let cache = SharedCostCache::new();
    let small = 8 << 10;
    let reference = merged(&machine, Collective::Alltoall(AlltoallAlg::Auto), small, 1);
    let sym = SymbolicScheduleCost::build(&net, &cache, &reference, small).expect("non-zero");
    let large = merged(
        &machine,
        Collective::Alltoall(AlltoallAlg::Auto),
        16 << 20,
        1,
    );
    assert!(
        !sym.matches(&large, 16 << 20),
        "a Bruck-to-pairwise algorithm switch must not pass the linearity check"
    );
}

#[test]
fn round_memo_is_bit_identical_to_memo_free() {
    for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
        for nics in [1usize, 2, 4] {
            let net = fabric(nics, RailPolicy::RoundRobin, mode);
            let machine = net.hierarchy().clone();
            let cache = SharedCostCache::new();
            for collective in [
                Collective::Alltoall(AlltoallAlg::Pairwise),
                Collective::Allreduce(AllreduceAlg::Ring),
            ] {
                for payload in PAYLOADS {
                    let m = merged(&machine, collective, payload, nics);
                    let direct = net.schedule_time(&m);
                    let cold = cache.schedule_time_rounds(&net, &m, payload);
                    let warm = cache.schedule_time_rounds(&net, &m, payload);
                    assert_eq!(
                        direct.to_bits(),
                        cold.to_bits(),
                        "cold memo ({collective:?})"
                    );
                    assert_eq!(
                        direct.to_bits(),
                        warm.to_bits(),
                        "warm memo ({collective:?})"
                    );
                }
            }
            let stats = cache.cache_stats();
            assert!(
                stats.round_hits > 0,
                "re-costing shared rounds across payloads must hit the round tier \
                 ({mode:?}, {nics} rails): {stats:?}"
            );
        }
    }
    // A ring allreduce whose payload s² does not divide: its rounds repeat
    // the same endpoints with rotating block sizes, so a time tier keyed
    // on endpoints alone replays the first round's time for the others.
    let net = fabric(1, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let machine = net.hierarchy().clone();
    let order = Permutation::parse("1-2-3-0").expect("valid order");
    let payload = 100_001;
    let m = merged_on(
        &machine,
        &order,
        64,
        Collective::Allreduce(AllreduceAlg::Ring),
        payload,
        1,
    );
    let cache = SharedCostCache::new();
    assert_eq!(
        cache.schedule_time_rounds(&net, &m, payload).to_bits(),
        net.schedule_time(&m).to_bits(),
        "rounds with equal endpoints but different bytes must not share a time"
    );
}

/// The pruned searches on the 1/2/4-rail, 8-node Hydra grid with pairwise
/// alltoall pick the exhaustive sweep's winner in every cell, cost bits
/// included: the per-cell bound ladder (aggregate rung, per-rail rung,
/// round-memoized cost) and the symbolic payload axis. (The autotune grid
/// — ring allgather on 4 nodes, where the bound must also prune — is
/// `pruned_sweep_matches_exhaustive_on_hydra_microbench` in the root
/// package's proptests.)
#[test]
fn pruned_winners_match_exhaustive_on_the_rail_grid() {
    let alltoall = Collective::Alltoall(AlltoallAlg::Pairwise);
    let spec = SweepSpec {
        subcomm_sizes: vec![16, 64],
        payload_sizes: vec![64 << 10, 256 << 10, 1 << 20, 4 << 20],
    };
    let reference = spec.payload_sizes[0];
    for nics in [1usize, 2, 4] {
        let net = hydra_network_rails(8, nics, RailPolicy::RoundRobin);
        let machine = net.hierarchy().clone();
        let schedule = |sigma: &Permutation, s: usize, bytes: u64| {
            merged_on(&machine, sigma, s, alltoall, bytes, nics)
        };
        let exhaustive = sweep(&machine, &spec, |sigma, s, bytes| {
            net.schedule_time(&schedule(sigma, s, bytes))
        })
        .expect("valid spec");
        let cache = SharedCostCache::new();
        let symbolic = sweep_pruned_axis(
            &machine,
            &spec,
            |sigma, s| {
                SymbolicScheduleCost::build(&net, &cache, &schedule(sigma, s, reference), reference)
                    .expect("non-zero reference payload")
            },
            |_, _, bytes, sym| sym.bound_at(bytes),
            |_, _, _, _| f64::NEG_INFINITY,
            |sigma, s, bytes, sym| {
                let m = schedule(sigma, s, bytes);
                if sym.matches(&m, bytes) {
                    sym.time_at_payload(bytes).expect("integral scaling")
                } else {
                    cache.schedule_time_rounds(&net, &m, bytes)
                }
            },
        )
        .expect("valid spec");
        for (e, sym) in exhaustive.iter().zip(&symbolic) {
            let (s, bytes) = (e.subcomm_size, e.payload);
            let ladder = rank_orders_pruned_ladder(
                &machine,
                s,
                |sigma| schedule(sigma, s, bytes),
                |_, m| schedule_lower_bound_aggregate(&net, m),
                |_, m| schedule_lower_bound(&net, m),
                |_, m| cache.schedule_time_rounds(&net, m, bytes),
            )
            .expect("valid configuration");
            for (name, best) in [("ladder", &ladder.best), ("symbolic axis", &sym.best)] {
                assert_eq!(
                    (best.0.order.clone(), best.1.to_bits()),
                    (e.best.0.order.clone(), e.best.1.to_bits()),
                    "{name} winner, {nics} rails, cell ({s}, {bytes})"
                );
            }
            assert_eq!(ladder.stats.candidates(), e.ranked.len() as u64);
        }
    }
}

#[test]
fn pooled_workspace_is_bit_identical_to_fresh_threads() {
    let net = fabric(2, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let machine = net.hierarchy().clone();
    // Dirty this thread's workspace with unrelated solves of every
    // generator, then cost the probe schedules through the reused arenas.
    for collective in generators() {
        let m = merged(&machine, collective, 32 << 10, 2);
        let _ = net.schedule_time(&m);
    }
    let probes: Vec<Schedule> = generators()
        .into_iter()
        .map(|c| merged(&machine, c, REF_PAYLOAD, 2))
        .collect();
    let rounds_before = thread_workspace_rounds();
    let dirty: Vec<f64> = probes.iter().map(|m| net.schedule_time(m)).collect();
    assert!(
        thread_workspace_rounds() > rounds_before,
        "the lockstep engine must route solves through the pooled workspace"
    );
    // A brand-new thread gets a brand-new thread-local workspace.
    let fresh: Vec<f64> = std::thread::scope(|s| {
        s.spawn(|| probes.iter().map(|m| net.schedule_time(m)).collect())
            .join()
            .expect("fresh-workspace thread")
    });
    for (d, f) in dirty.iter().zip(&fresh) {
        assert_eq!(
            d.to_bits(),
            f.to_bits(),
            "pooled-workspace costing must be bit-identical to a fresh workspace"
        );
    }
}

#[test]
fn steady_state_costing_is_allocation_free() {
    let net = fabric(2, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let machine = net.hierarchy().clone();
    let cache = SharedCostCache::new();
    let m = merged(
        &machine,
        Collective::Alltoall(AlltoallAlg::Pairwise),
        REF_PAYLOAD,
        2,
    );

    // Warm-up: the cold call pays the contention solves, populates the
    // pattern and round memo tiers, and sizes the pooled workspace.
    let cold = cache.schedule_time_rounds(&net, &m, REF_PAYLOAD);
    let sym = SymbolicScheduleCost::build(&net, &cache, &m, REF_PAYLOAD).expect("non-zero");

    // Steady state: costing the candidate again is a pattern-tier hit —
    // fingerprint hashing, one shard lookup, no heap traffic at all.
    let (allocs, warm) = count_allocations(|| cache.schedule_time_rounds(&net, &m, REF_PAYLOAD));
    assert_eq!(warm.to_bits(), cold.to_bits());
    assert_eq!(
        allocs, 0,
        "memoized candidate costing must not allocate after warm-up"
    );

    // The symbolic evaluations backing the axis sweep's bound and cost
    // rungs are allocation-free too: envelope lookup and profile replay.
    let (allocs, bound) = count_allocations(|| sym.bound_at(4 * REF_PAYLOAD));
    assert!(bound.is_finite());
    assert_eq!(allocs, 0, "envelope bound must not allocate");
    let (allocs, replay) = count_allocations(|| sym.time_at_payload(4 * REF_PAYLOAD));
    assert!(replay.expect("integral scaling").is_finite());
    assert_eq!(allocs, 0, "symbolic replay must not allocate");

    // Both round-bound rungs accumulate into the pooled load and stamped
    // link marks: once warm, bounding a round touches no heap either.
    let round = &m.rounds[0].messages;
    let warm_aggregate = net.round_lower_bound_aggregate(round);
    let warm_tight = net.round_lower_bound(round);
    let (allocs, aggregate) = count_allocations(|| net.round_lower_bound_aggregate(round));
    assert_eq!(aggregate.to_bits(), warm_aggregate.to_bits());
    assert_eq!(allocs, 0, "warm cheap round bound must not allocate");
    let (allocs, tight) = count_allocations(|| net.round_lower_bound(round));
    assert_eq!(tight.to_bits(), warm_tight.to_bits());
    assert_eq!(allocs, 0, "warm per-rail round bound must not allocate");
}

#[test]
fn warm_schedule_bounds_are_allocation_free() {
    let net = fabric(2, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let machine = net.hierarchy().clone();
    for collective in generators() {
        let m = merged(&machine, collective, REF_PAYLOAD, 2);
        let warm_aggregate = schedule_lower_bound_aggregate(&net, &m);
        let warm_tight = schedule_lower_bound(&net, &m);
        let (allocs, aggregate) = count_allocations(|| schedule_lower_bound_aggregate(&net, &m));
        assert_eq!(aggregate.to_bits(), warm_aggregate.to_bits());
        assert_eq!(
            allocs, 0,
            "warm cheap schedule bound must not allocate ({collective:?})"
        );
        let (allocs, tight) = count_allocations(|| schedule_lower_bound(&net, &m));
        assert_eq!(tight.to_bits(), warm_tight.to_bits());
        assert_eq!(
            allocs, 0,
            "warm tight schedule bound must not allocate ({collective:?})"
        );
    }
}

#[test]
fn warm_round_profile_allocates_only_the_profile() {
    // Pairwise rounds on a 2-rail fabric: every core's leaf links carry one
    // flow (the solver's sorted solo list) and the rails and inner links
    // are shared (its heap), so every solver buffer is exercised.
    let net = fabric(2, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
    let m = merged(
        net.hierarchy(),
        Collective::Alltoall(AlltoallAlg::Pairwise),
        REF_PAYLOAD,
        2,
    );
    let mut ws = RoundWorkspace::new();
    let warm: Vec<RoundProfile> = m
        .rounds
        .iter()
        .map(|r| net.round_profile_with(&mut ws, &r.messages))
        .collect();
    for (round, expected) in m.rounds.iter().zip(&warm) {
        let (allocs, profile) =
            count_allocations(|| net.round_profile_with(&mut ws, &round.messages));
        assert_eq!(&profile, expected);
        assert_eq!(allocs, 1, "a warm round profile allocates its entries only");
    }
}

#[test]
fn generators_and_lockstep_allocate_each_round_once() {
    // 12 ranks spread over both nodes: not a power of two, so recursive
    // doubling also emits its fold and unfold rounds.
    let members: Vec<usize> = (0..12).map(|i| i * 5).collect();
    type Generator = fn(&[usize]) -> Schedule;
    let generated: [(&str, Generator); 13] = [
        ("alltoall_pairwise", |m| schedules::alltoall_pairwise(m, 64)),
        ("alltoall_pairwise_railed", |m| {
            schedules::alltoall_pairwise_railed(m, 64, 4)
        }),
        ("alltoall_bruck", |m| schedules::alltoall_bruck(m, 64)),
        ("allgather_ring", |m| schedules::allgather_ring(m, 64)),
        ("allgather_bruck", |m| schedules::allgather_bruck(m, 64)),
        ("allgather_recursive_doubling (p = 8)", |m| {
            schedules::allgather_recursive_doubling(&m[..8], 64)
        }),
        ("allreduce_ring", |m| schedules::allreduce_ring(m, 1000)),
        ("allreduce_recursive_doubling", |m| {
            schedules::allreduce_recursive_doubling(m, 1000)
        }),
        ("allreduce_recursive_doubling (p = 8)", |m| {
            schedules::allreduce_recursive_doubling(&m[..8], 1000)
        }),
        ("barrier_dissemination", schedules::barrier_dissemination),
        ("bcast_binomial", |m| schedules::bcast_binomial(m, 5, 64)),
        ("reduce_binomial", |m| schedules::reduce_binomial(m, 5, 64)),
        ("reduce_scatter_ring", |m| {
            schedules::reduce_scatter_ring(m, 1000)
        }),
    ];
    for (name, generate) in generated {
        let (allocs, s) = count_allocations(|| generate(&members));
        assert!(s.num_rounds() > 0);
        assert_eq!(
            allocs,
            s.num_rounds() as u64 + 1,
            "{name}: one buffer per round plus the round list"
        );
    }
    let jobs: Vec<Schedule> = (0..4)
        .map(|c| {
            let members: Vec<usize> = (0..3 + c).map(|i| c + 8 * i).collect();
            schedules::allgather_ring(&members, 64)
        })
        .collect();
    let (allocs, merged) = count_allocations(|| Schedule::lockstep(&jobs));
    assert_eq!(merged.num_rounds(), 5);
    assert_eq!(
        allocs,
        merged.num_rounds() as u64 + 1,
        "lockstep: one buffer per merged round plus the round list"
    );
}

/// The memo-free spelling of a schedule bound: every round bounded on its
/// own, summed in round order.
fn per_round_sum(schedule: &Schedule, round_bound: impl Fn(&[Message]) -> f64) -> f64 {
    schedule
        .rounds
        .iter()
        .map(|r| round_bound(&r.messages))
        .sum()
}

/// A hand-built `A A B A` schedule: one adjacent and one non-adjacent
/// repeat, with rounds that differ only in bytes or only in endpoints.
fn repeats() -> Vec<Schedule> {
    let a = Round::with(vec![Message::new(0, 16, 4096), Message::new(1, 17, 512)]);
    let b = Round::with(vec![Message::new(0, 16, 4096), Message::new(1, 17, 513)]);
    let c = Round::with(vec![Message::new(17, 1, 512), Message::new(0, 16, 4096)]);
    vec![
        Schedule::with(vec![a.clone(), a.clone(), b.clone(), a.clone()]),
        Schedule::with(vec![
            a.clone(),
            c.clone(),
            c,
            a.clone(),
            Round::new(),
            Round::new(),
            a,
        ]),
        Schedule::with(vec![b.clone(), b]),
    ]
}

#[test]
fn schedule_bounds_equal_the_memo_free_per_round_sum() {
    for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
        for nics in [1usize, 2, 4] {
            for policy in policies() {
                let net = fabric(nics, policy, mode);
                let machine = net.hierarchy().clone();
                let mut cases = repeats();
                cases.extend(
                    generators()
                        .into_iter()
                        .map(|c| merged(&machine, c, REF_PAYLOAD, nics)),
                );
                for (i, m) in cases.iter().enumerate() {
                    assert_eq!(
                        schedule_lower_bound(&net, m).to_bits(),
                        per_round_sum(m, |r| net.round_lower_bound(r)).to_bits(),
                        "tight bound, case {i} ({mode:?}, {nics} rails, {policy})"
                    );
                    assert_eq!(
                        schedule_lower_bound_aggregate(&net, m).to_bits(),
                        per_round_sum(m, |r| net.round_lower_bound_aggregate(r)).to_bits(),
                        "cheap bound, case {i} ({mode:?}, {nics} rails, {policy})"
                    );
                }
            }
        }
    }
}

#[test]
fn schedule_time_rounds_equals_summed_round_memo() {
    for nics in [1usize, 2, 4] {
        let net = fabric(nics, RailPolicy::RoundRobin, ContentionMode::MaxMinFair);
        let machine = net.hierarchy().clone();
        let mut cases = repeats();
        cases.extend(
            generators()
                .into_iter()
                .map(|c| merged(&machine, c, REF_PAYLOAD, nics)),
        );
        for (i, m) in cases.iter().enumerate() {
            let memoized = SharedCostCache::new();
            let per_round = SharedCostCache::new();
            let t = memoized.schedule_time_rounds(&net, m, REF_PAYLOAD);
            let summed: f64 = m
                .rounds
                .iter()
                .map(|r| per_round.round_time_memo(&net, r))
                .sum();
            assert_eq!(t.to_bits(), summed.to_bits(), "case {i}, {nics} rails");
            assert_eq!(
                memoized.cache_stats(),
                per_round.cache_stats(),
                "case {i}, {nics} rails: round reuse must count the hits it replaces"
            );
        }
    }
}
