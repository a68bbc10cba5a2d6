//! The order search on 2 and 4 workers: seeded cells keep the exhaustive
//! winners, bound the extra costing, and free every artifact on the pool.
//!
//! This is its own test binary because `par::set_threads` is
//! process-global: in a shared binary it would race with every other
//! test's fan-outs. Everything runs in one test function for the same
//! reason.

use mre_core::metrics::characterize_order;
use mre_core::order_search::{
    rank_orders_by_par, rank_orders_pruned_ladder, representatives, sweep, sweep_pruned_axis,
    PrunedRanking, SweepCell, SweepSpec,
};
use mre_core::{par, Hierarchy, Permutation};
use std::sync::Mutex;

/// A toy cost with an informative payload axis: ring cost × (1 + bytes).
fn cost(h: &Hierarchy, sigma: &Permutation, s: usize, bytes: u64) -> f64 {
    characterize_order(h, sigma, s).unwrap().ring_cost as f64 * (1.0 + bytes as f64)
}

/// The rungs are fixed fractions of the cost, so both are admissible and
/// each cell's bound-minimal candidate is its optimum. The incumbent is
/// then optimal from the first seed on, and no interleaving costs a
/// candidate the one-worker loop would not — only the extra seeds.
const CHEAP: f64 = 0.4;
const TIGHT: f64 = 0.95;

/// The prepared artifact: the payload-independent ring cost, plus a
/// record of the thread names that dropped it.
struct Artifact<'a> {
    ring: f64,
    drops: &'a Mutex<Vec<String>>,
}

impl Drop for Artifact<'_> {
    fn drop(&mut self) {
        let name = std::thread::current().name().unwrap_or("").to_string();
        self.drops.lock().unwrap().push(name);
    }
}

fn pruned_sweep(h: &Hierarchy, spec: &SweepSpec, drops: &Mutex<Vec<String>>) -> Vec<SweepCell> {
    sweep_pruned_axis(
        h,
        spec,
        |sigma, s| Artifact {
            ring: cost(h, sigma, s, 0),
            drops,
        },
        |_, _, b, p| p.ring * (1.0 + b as f64) * CHEAP,
        |_, _, b, p| p.ring * (1.0 + b as f64) * TIGHT,
        |_, _, b, p| p.ring * (1.0 + b as f64),
    )
    .unwrap()
}

fn pruned_ranking(h: &Hierarchy, s: usize, bytes: u64) -> PrunedRanking {
    rank_orders_pruned_ladder(
        h,
        s,
        |sigma| cost(h, sigma, s, bytes),
        |_, &c| c * CHEAP,
        |_, &c| c * TIGHT,
        |_, &c| c,
    )
    .unwrap()
}

#[test]
fn seeded_parallel_search_keeps_winners_and_frees_artifacts_on_the_pool() {
    let h = Hierarchy::new(vec![16, 2, 2, 8]).unwrap();
    let spec = SweepSpec {
        subcomm_sizes: vec![16, 64],
        payload_sizes: vec![1 << 10, 1 << 20],
    };
    let cells_per_size = spec.payload_sizes.len();
    let (s1, b1) = (16, 1 << 10);

    par::set_threads(1);
    let serial_drops = Mutex::new(Vec::new());
    let serial_cells = pruned_sweep(&h, &spec, &serial_drops);
    let serial_ranking = pruned_ranking(&h, s1, b1);
    let exhaustive = sweep(&h, &spec, |sigma, s, b| cost(&h, sigma, s, b)).unwrap();
    let exhaustive_ranking = rank_orders_by_par(&h, s1, |sigma| cost(&h, sigma, s1, b1)).unwrap();

    // Four first: the pool is sized on its first parallel use, so this
    // gives it four threads even on a smaller host.
    for workers in [4, 2] {
        par::set_threads(workers);
        let drops = Mutex::new(Vec::new());
        let cells = pruned_sweep(&h, &spec, &drops);
        let extra = workers.div_ceil(cells_per_size) as u64 - 1;
        assert_eq!(cells.len(), exhaustive.len());
        let mut classes = 0;
        for ((cell, e), one) in cells.iter().zip(&exhaustive).zip(&serial_cells) {
            let at = (workers, cell.subcomm_size, cell.payload);
            assert_eq!(
                (cell.subcomm_size, cell.payload),
                (e.subcomm_size, e.payload)
            );
            assert_eq!(cell.best.0, e.best.0, "{at:?}");
            assert_eq!(cell.best.1.to_bits(), e.best.1.to_bits(), "{at:?}");
            let n = representatives(&h, cell.subcomm_size).unwrap().len() as u64;
            assert_eq!(cell.stats.candidates(), n, "{at:?}");
            assert!(
                cell.stats.evaluated <= one.stats.evaluated + extra,
                "{at:?}: {:?} vs one worker's {:?}",
                cell.stats,
                one.stats
            );
            if cell.payload == spec.payload_sizes[0] {
                classes += n as usize;
            }
        }
        // One artifact per (size, candidate), each dropped once, on the pool.
        let drops = drops.into_inner().unwrap();
        assert_eq!(drops.len(), classes, "{workers} workers");
        assert!(
            drops.iter().all(|name| name.starts_with("mre-par-")),
            "{workers} workers: dropped on {drops:?}"
        );

        let ranking = pruned_ranking(&h, s1, b1);
        assert_eq!(ranking.best.0, exhaustive_ranking[0].0);
        assert_eq!(ranking.best.1.to_bits(), exhaustive_ranking[0].1.to_bits());
        assert_eq!(ranking.stats.candidates(), exhaustive_ranking.len() as u64);
        // A 1 × 1 grid seeds W candidates at once: ⌈W/1⌉ − 1 extra.
        let extra = workers as u64 - 1;
        assert!(ranking.stats.evaluated <= serial_ranking.stats.evaluated + extra);
    }
    assert_eq!(
        serial_drops.into_inner().unwrap().len(),
        serial_cells
            .iter()
            .filter(|c| c.payload == spec.payload_sizes[0])
            .map(|c| c.stats.candidates() as usize)
            .sum::<usize>()
    );
    par::set_threads(0);
}
