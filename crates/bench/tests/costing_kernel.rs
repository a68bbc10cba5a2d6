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
//!
//! A counting global allocator (gated to the measuring thread, so the
//! parallel test harness cannot pollute the count) then asserts the
//! steady-state claim: after warm-up, costing a candidate through the
//! memo and evaluating the symbolic envelope perform **zero** heap
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mre_core::order_search::{rank_orders_pruned_ladder, sweep, sweep_pruned_axis, SweepSpec};
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mre_simnet::presets::hydra_network_rails;
use mre_simnet::{
    schedule_lower_bound, schedule_lower_bound_aggregate, thread_workspace_rounds, ContentionMode,
    NetworkModel, RailPolicy, Schedule, SharedCostCache, SymbolicScheduleCost,
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
                for collective in generators() {
                    let reference = merged(&machine, collective, REF_PAYLOAD, nics);
                    let sym = SymbolicScheduleCost::build(&net, &cache, &reference, REF_PAYLOAD)
                        .expect("non-zero reference payload");
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
}
