//! Each count reaches callers through one channel. The search, memo, fluid,
//! autotune and pool counts come back in the values their APIs return
//! (`PruneStats`, `CacheStats`, `FluidStats`, `AlgorithmChoice`,
//! `par::pool_stats`), and a timeline's bytes per crossing level come from
//! `mre_trace::level_occupancy`. The process-global `mre_core::telemetry`
//! sink carries only what no API returns: the contention solver's
//! `simnet.maxmin.*` block.
//!
//! This file holds one test, so it is its own binary and no other test
//! shares the sink while the collector below is installed.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mre_core::order_search::rank_orders_pruned_ladder;
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::telemetry::{self, Collector};
use mre_core::{par, Permutation};
use mre_mpi::{AlgorithmSelector, AllgatherAlg};
use mre_simnet::presets::hydra_network;
use mre_simnet::{
    schedule_lower_bound, schedule_lower_bound_aggregate, FluidSim, Schedule, SharedCostCache,
};
use mre_workloads::microbench::{Collective, Microbench};

/// Sums every counter and counts every observation it receives, by name.
#[derive(Default)]
struct Capture {
    counts: Mutex<BTreeMap<String, u64>>,
}

impl Capture {
    fn get(&self, name: &str) -> u64 {
        self.counts.lock().unwrap().get(name).copied().unwrap_or(0)
    }

    fn add(&self, name: &str, value: u64) {
        *self.counts.lock().unwrap().entry(name.into()).or_default() += value;
    }
}

impl Collector for Capture {
    fn counter_add(&self, name: &str, value: u64) {
        self.add(name, value);
    }
    fn observe(&self, name: &str, _value: f64) {
        self.add(name, 1);
    }
}

#[test]
fn only_the_contention_solver_feeds_the_sink() {
    par::set_threads(1);
    // Built before the collector is installed: calibrating the preset's
    // local-copy rate runs a contention solve of its own.
    let net = hydra_network(16, 1);
    let capture = Arc::new(Capture::default());
    telemetry::install(capture.clone());

    // A one-thread pruned lockstep search: Hydra 16,2,2,8, subcommunicators
    // of 16, ring allgather of 4 MiB, costed through the round memo.
    let machine = net.hierarchy().clone();
    let (subcomm, size) = (16, 4 << 20);
    let schedules_for = |sigma: &Permutation| -> Vec<Schedule> {
        let bench = Microbench {
            machine: machine.clone(),
            order: sigma.clone(),
            subcomm_size: subcomm,
            collective: Collective::Allgather(AllgatherAlg::Ring),
            total_bytes: size,
        };
        let layout = subcommunicators(&machine, sigma, subcomm, ColorScheme::Quotient).unwrap();
        (0..layout.count())
            .map(|c| bench.schedule_for_rails(layout.members(c), 1))
            .collect()
    };
    let cache = SharedCostCache::new();
    let ranking = rank_orders_pruned_ladder(
        &machine,
        subcomm,
        |sigma| Schedule::lockstep(&schedules_for(sigma)),
        |_, merged| schedule_lower_bound_aggregate(&net, merged),
        |_, merged| schedule_lower_bound(&net, merged),
        |_, merged| cache.schedule_time_rounds(&net, merged, size),
    )
    .unwrap();
    assert!(ranking.stats.pruned > 0, "{:?}", ranking.stats);
    // Every round the memo could not answer took exactly one solve.
    let misses = cache.cache_stats().misses;
    assert!(misses > 0);
    assert_eq!(capture.get("simnet.maxmin.solves"), misses);

    // A fluid run, both autotune selections (they build timelines) and one
    // pooled fan-out.
    let winner = schedules_for(&ranking.best.0.order);
    assert!(FluidSim::new(&net).run(&winner) > 0.0);
    let selector_cache = SharedCostCache::new();
    let selector = AlgorithmSelector::new(&net, &selector_cache);
    let members: Vec<usize> = (0..subcomm).collect();
    selector.select(Collective::Allgather(AllgatherAlg::Auto), &members, size);
    selector.select_fluid(Collective::Allgather(AllgatherAlg::Auto), &members, size);
    par::set_threads(2);
    assert_eq!(par::map(&[1u64, 2, 3, 4], |_, x| x * 2), vec![2, 4, 6, 8]);
    assert!(par::pool_stats().is_some_and(|s| s.broadcasts > 0));

    telemetry::uninstall();
    let counts = capture.counts.lock().unwrap();
    assert!(counts.contains_key("simnet.maxmin.iterations"));
    for name in counts.keys() {
        assert!(
            name.starts_with("simnet.maxmin."),
            "{name} reached the sink: {counts:?}"
        );
    }
}
