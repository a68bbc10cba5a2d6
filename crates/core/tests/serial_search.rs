//! The order search on one worker: its evaluated/pruned/tight_pruned split
//! is exact and repeats run after run.
//!
//! This is its own test binary because `par::set_threads(1)` is
//! process-global: in a shared binary it would serialize, and race with,
//! every other test's fan-outs.

use mre_core::metrics::characterize_order;
use mre_core::order_search::{
    rank_orders_pruned_ladder, representatives, sweep, sweep_pruned_axis, PruneStats, SweepSpec,
};
use mre_core::{par, Hierarchy, Permutation};

/// A toy cost with an informative payload axis: ring cost × (1 + bytes).
fn cost(h: &Hierarchy, sigma: &Permutation, s: usize, bytes: u64) -> f64 {
    characterize_order(h, sigma, s).unwrap().ring_cost as f64 * (1.0 + bytes as f64)
}

/// The serial incumbent loop written out: visit candidates by `(cheap,
/// index)`, stop at the first cheap bound above the incumbent, skip a
/// tight bound above it, cost the rest.
fn reference_split(cheap: &[f64], tight: &[f64], costs: &[f64]) -> PruneStats {
    let mut visit: Vec<usize> = (0..cheap.len()).collect();
    visit.sort_by(|&a, &b| cheap[a].total_cmp(&cheap[b]).then(a.cmp(&b)));
    let mut best = f64::INFINITY;
    let mut stats = PruneStats::default();
    for (pos, &i) in visit.iter().enumerate() {
        if pos > 0 && cheap[i] > best {
            stats.pruned += (visit.len() - pos) as u64;
            break;
        }
        if pos > 0 && tight[i] > best {
            stats.pruned += 1;
            stats.tight_pruned += 1;
            continue;
        }
        stats.evaluated += 1;
        best = best.min(costs[i]);
    }
    stats
}

#[test]
fn one_worker_search_split_is_exact_and_repeats() {
    par::set_threads(1);
    let h = Hierarchy::new(vec![16, 2, 2, 8]).unwrap();
    let spec = SweepSpec {
        subcomm_sizes: vec![16, 64],
        payload_sizes: vec![1 << 10, 1 << 20],
    };
    // The cheap rung is weak and the tight rung strong, so both prune.
    let (cheap_scale, tight_scale) = (0.4, 0.95);
    let run_sweep = || {
        sweep_pruned_axis(
            &h,
            &spec,
            |sigma, s| cost(&h, sigma, s, 0),
            |_, _, b, &r| r * (1.0 + b as f64) * cheap_scale,
            |_, _, b, &r| r * (1.0 + b as f64) * tight_scale,
            |_, _, b, &r| r * (1.0 + b as f64),
        )
        .unwrap()
    };
    let first = run_sweep();
    let exhaustive = sweep(&h, &spec, |sigma, s, b| cost(&h, sigma, s, b)).unwrap();
    for _ in 0..3 {
        for (a, b) in first.iter().zip(run_sweep()) {
            assert_eq!(a.stats, b.stats, "the one-worker split must repeat");
            assert_eq!(a.ranked, b.ranked);
        }
    }
    let mut tight_pruned = 0;
    for (cell, e) in first.iter().zip(&exhaustive) {
        assert_eq!(cell.best.0, e.best.0);
        assert_eq!(cell.best.1.to_bits(), e.best.1.to_bits());
        let costs: Vec<f64> = representatives(&h, cell.subcomm_size)
            .unwrap()
            .iter()
            .map(|c| cost(&h, &c.order, cell.subcomm_size, cell.payload))
            .collect();
        let scaled = |k: f64| costs.iter().map(|c| c * k).collect::<Vec<_>>();
        assert_eq!(
            cell.stats,
            reference_split(&scaled(cheap_scale), &scaled(tight_scale), &costs),
            "cell ({}, {})",
            cell.subcomm_size,
            cell.payload
        );
        tight_pruned += cell.stats.tight_pruned;
    }
    assert!(tight_pruned > 0, "the tight rung must prune on this grid");

    // The 1 × 1 ranking runs the same engine and repeats the same way.
    let rank = || {
        rank_orders_pruned_ladder(
            &h,
            16,
            |sigma| cost(&h, sigma, 16, 1 << 10),
            |_, &c| c * cheap_scale,
            |_, &c| c * tight_scale,
            |_, &c| c,
        )
        .unwrap()
    };
    let ranking = rank();
    assert_eq!(ranking.stats, rank().stats);
    assert_eq!(ranking.stats, first[0].stats);
    par::set_threads(0);
}
