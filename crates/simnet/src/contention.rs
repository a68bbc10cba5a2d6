//! Max-min fair bandwidth allocation (progressive water-filling).
//!
//! Given a set of flows, each traversing a set of capacitated links, the
//! max-min fair allocation repeatedly saturates the most contended link:
//! the link whose equal share `capacity / active_flows` is smallest fixes
//! the rate of every flow through it; those flows are frozen, their rate is
//! subtracted from every link they traverse, and the process repeats until
//! all flows are frozen.
//!
//! This is the standard fluid model of TCP-fair networks and is a good
//! first-order model for how concurrent MPI messages share NICs,
//! inter-socket links and memory systems.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A heap candidate: link `link` offered share `share` at state `version`.
/// Ordered by share (then link index for determinism); stale versions are
/// discarded on pop.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    share: f64,
    version: u64,
    link: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.share
            .total_cmp(&other.share)
            .then_with(|| self.link.cmp(&other.link))
    }
}

/// Reusable scratch for [`max_min_rates_csr`]: every per-solve vector and
/// the candidate heap's backing buffer. After the first few solves the
/// buffers reach their high-water marks and subsequent solves perform no
/// heap allocation — the property the sweep loops' steady state relies on.
#[derive(Debug, Default)]
pub(crate) struct ContentionWorkspace {
    count: Vec<usize>,
    offsets: Vec<usize>,
    link_flows: Vec<usize>,
    remaining: Vec<f64>,
    version: Vec<u64>,
    frozen: Vec<bool>,
    heap_buf: Vec<Reverse<Candidate>>,
    touched: Vec<usize>,
}

/// Computes max-min fair rates.
///
/// * `flows[f]` — the list of link indices flow `f` traverses. A flow with
///   an empty link list is unconstrained and gets `f64::INFINITY`.
/// * `capacities[l]` — capacity of link `l` (any unit; results share it).
///
/// Returns the per-flow rates. Guarantees (tested):
/// * **feasibility** — the total rate through every link never exceeds its
///   capacity (up to floating-point slack);
/// * **saturation** — every flow is bottlenecked by at least one saturated
///   link (no rate can be raised without lowering another);
/// * **symmetry** — flows with identical link sets get identical rates
///   (exactly: they freeze together on the same bottleneck link).
///
/// This is the incremental solver: per-link flow lists plus a lazy
/// min-heap of link shares. Each freezing iteration pops the bottleneck
/// link, freezes only *its* flows, and updates only the links those flows
/// traverse — `O((Σ|flows[f]| + #links) · log #links)` total, versus the
/// reference solver's full rescan of every flow per iteration. The lazy
/// heap is sound because a link's equal share never decreases as other
/// flows freeze (water-filling monotonicity), so a popped up-to-date entry
/// is the true minimum. No tie tolerance is needed at all: links tied with
/// the bottleneck simply pop next with an unchanged share.
///
/// This is the public format adapter over the crate's one solver: it
/// packs `flows` into CSR form and solves with a throwaway workspace. The
/// hot path, [`NetworkModel::round_profile`](crate::NetworkModel::round_profile),
/// builds the CSR lists itself and solves into a reused per-thread
/// workspace, bit-identically. The original dense solver,
/// `max_min_rates_reference`, is kept in this module's tests as the
/// oracle.
pub fn max_min_rates(flows: &[Vec<usize>], capacities: &[f64]) -> Vec<f64> {
    let mut offsets = Vec::with_capacity(flows.len() + 1);
    offsets.push(0usize);
    let mut links = Vec::with_capacity(flows.iter().map(Vec::len).sum());
    for f in flows {
        links.extend_from_slice(f);
        offsets.push(links.len());
    }
    let mut ws = ContentionWorkspace::default();
    let mut rates = Vec::new();
    max_min_rates_csr(&mut ws, &offsets, &links, capacities, &mut rates);
    rates
}

/// [`max_min_rates`] over flows in CSR layout, with caller-owned scratch
/// and output: flow `f`'s links are
/// `flow_links[flow_offsets[f]..flow_offsets[f + 1]]`, rates are written
/// into `rates` (cleared first). Bit-identical to [`max_min_rates`] — the
/// freezing schedule depends only on the data, not the containers — while
/// allocating nothing once `ws` and `rates` are warm.
pub(crate) fn max_min_rates_csr(
    ws: &mut ContentionWorkspace,
    flow_offsets: &[usize],
    flow_links: &[usize],
    capacities: &[f64],
    rates: &mut Vec<f64>,
) {
    let nf = flow_offsets.len().saturating_sub(1);
    let nl = capacities.len();
    rates.clear();
    rates.resize(nf, f64::INFINITY);
    if nf == 0 {
        return;
    }
    let flow = |f: usize| &flow_links[flow_offsets[f]..flow_offsets[f + 1]];
    ws.count.clear();
    ws.count.resize(nl, 0);
    let mut active = 0usize;
    for f in 0..nf {
        for &l in flow(f) {
            assert!(l < nl, "flow {f} references unknown link {l}");
            ws.count[l] += 1;
        }
        if !flow(f).is_empty() {
            active += 1;
        }
    }
    // Per-link flow lists in CSR layout (frozen flows are lazily skipped,
    // not removed): link `l`'s flows live at
    // `link_flows[offsets[l]..offsets[l + 1]]`.
    ws.offsets.clear();
    ws.offsets.resize(nl + 1, 0);
    for l in 0..nl {
        ws.offsets[l + 1] = ws.offsets[l] + ws.count[l];
    }
    ws.link_flows.clear();
    ws.link_flows.resize(ws.offsets[nl], 0);
    // `count` doubles as the fill cursor (offset from each link's start);
    // it is rebuilt to flow counts right after.
    for c in ws.count.iter_mut() {
        *c = 0;
    }
    for f in 0..nf {
        for &l in flow(f) {
            ws.link_flows[ws.offsets[l] + ws.count[l]] = f;
            ws.count[l] += 1;
        }
    }
    ws.remaining.clear();
    ws.remaining.extend_from_slice(capacities);
    ws.version.clear();
    ws.version.resize(nl, 0);
    ws.frozen.clear();
    ws.frozen.resize(nf, false);
    ws.heap_buf.clear();
    ws.heap_buf
        .extend((0..nl).filter(|&l| ws.count[l] > 0).map(|l| {
            Reverse(Candidate {
                share: ws.remaining[l].max(0.0) / ws.count[l] as f64,
                version: 0,
                link: l,
            })
        }));
    // Heapify the reused buffer; its allocation returns to `ws` below.
    let mut heap = BinaryHeap::from(std::mem::take(&mut ws.heap_buf));
    let mut freeze_iterations = 0u64;
    while active > 0 {
        let Reverse(candidate) = heap.pop().expect("active flows imply a candidate link");
        let l = candidate.link;
        if candidate.version != ws.version[l] || ws.count[l] == 0 {
            continue; // superseded by a later state change
        }
        freeze_iterations += 1;
        let bottleneck_share = candidate.share;
        debug_assert!(bottleneck_share.is_finite());
        // Freeze every still-active flow through the bottleneck link and
        // return its rate to the links it traverses.
        ws.touched.clear();
        for idx in ws.offsets[l]..ws.offsets[l + 1] {
            let f = ws.link_flows[idx];
            if ws.frozen[f] {
                continue;
            }
            ws.frozen[f] = true;
            active -= 1;
            rates[f] = bottleneck_share;
            for &l2 in flow(f) {
                ws.remaining[l2] -= bottleneck_share;
                ws.count[l2] -= 1;
                ws.version[l2] += 1;
                if l2 != l {
                    ws.touched.push(l2);
                }
            }
        }
        debug_assert_eq!(ws.count[l], 0, "bottleneck link fully drained");
        // One refreshed candidate per touched link, reflecting all of this
        // round's freezes at once (per-update pushes would all be stale).
        ws.touched.sort_unstable();
        ws.touched.dedup();
        for &l2 in &ws.touched {
            if ws.count[l2] > 0 {
                heap.push(Reverse(Candidate {
                    share: ws.remaining[l2].max(0.0) / ws.count[l2] as f64,
                    version: ws.version[l2],
                    link: l2,
                }));
            }
        }
    }
    // Hand the heap's buffer back to the workspace for the next solve.
    ws.heap_buf = heap.into_vec();
    ws.heap_buf.clear();
    // One coarse telemetry emission per solve (a relaxed load when no
    // collector is installed).
    if mre_core::telemetry::enabled() {
        mre_core::telemetry::counter_add("simnet.maxmin.solves", 1);
        mre_core::telemetry::counter_add("simnet.maxmin.iterations", freeze_iterations);
        mre_core::telemetry::counter_add("simnet.maxmin.flows", nf as u64);
        mre_core::telemetry::observe("simnet.maxmin.iterations.hist", freeze_iterations as f64);
    }
}

/// The original dense water-filling solver: every iteration scans all
/// links for the bottleneck share and rescans all unfrozen flows to
/// freeze the constrained ones. `O(iterations · Σ|flows[f]|)` with up to
/// `min(#flows, #links)` iterations.
///
/// Kept as the test-only correctness oracle for [`max_min_rates`]
/// (property-tested to match).
///
/// The freeze tolerance is relative to each link's remaining capacity:
/// the cancellation error accumulated in `remaining_cap[l]` scales with
/// the capacity magnitude, so on machines mixing a 100 Gb/s NIC with
/// megabyte-scale local links a tolerance derived from the (possibly
/// tiny) bottleneck share — as this solver originally used — fails to
/// recognize ties on the large links and splits simultaneous freezes
/// across iterations.
#[cfg(test)]
fn max_min_rates_reference(flows: &[Vec<usize>], capacities: &[f64]) -> Vec<f64> {
    let nf = flows.len();
    let nl = capacities.len();
    let mut rates = vec![f64::INFINITY; nf];
    if nf == 0 {
        return rates;
    }
    for (f, links) in flows.iter().enumerate() {
        for &l in links {
            assert!(l < nl, "flow {f} references unknown link {l}");
        }
    }
    let mut remaining_cap = capacities.to_vec();
    let mut link_flow_count = vec![0usize; nl];
    let mut frozen = vec![false; nf];
    for (f, links) in flows.iter().enumerate() {
        if links.is_empty() {
            frozen[f] = true; // unconstrained
        } else {
            for &l in links {
                link_flow_count[l] += 1;
            }
        }
    }
    let mut unfrozen = frozen.iter().filter(|&&f| !f).count();
    while unfrozen > 0 {
        // The bottleneck link: smallest equal share among links with
        // active flows.
        let mut bottleneck_share = f64::INFINITY;
        for l in 0..nl {
            if link_flow_count[l] > 0 {
                let share = remaining_cap[l].max(0.0) / link_flow_count[l] as f64;
                if share < bottleneck_share {
                    bottleneck_share = share;
                }
            }
        }
        debug_assert!(bottleneck_share.is_finite());
        // Freeze every flow passing through a link at (or numerically at)
        // the bottleneck share. The slack is relative to the link's own
        // remaining capacity — the scale its rounding error lives at —
        // not to the bottleneck share, which may be orders of magnitude
        // smaller on mixed-magnitude machines.
        let mut to_freeze = Vec::new();
        for (f, links) in flows.iter().enumerate() {
            if frozen[f] {
                continue;
            }
            let constrained = links.iter().any(|&l| {
                let n = link_flow_count[l] as f64;
                let share = remaining_cap[l].max(0.0) / n;
                let epsilon = remaining_cap[l].max(0.0) * 1e-12 / n + f64::MIN_POSITIVE;
                share <= bottleneck_share + epsilon
            });
            if constrained {
                to_freeze.push(f);
            }
        }
        debug_assert!(!to_freeze.is_empty(), "water-filling must progress");
        for f in to_freeze {
            frozen[f] = true;
            unfrozen -= 1;
            rates[f] = bottleneck_share;
            for &l in &flows[f] {
                remaining_cap[l] -= bottleneck_share;
                link_flow_count[l] -= 1;
            }
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_per_link(flows: &[Vec<usize>], rates: &[f64], nl: usize) -> Vec<f64> {
        let mut totals = vec![0.0; nl];
        for (f, links) in flows.iter().enumerate() {
            for &l in links {
                totals[l] += rates[f];
            }
        }
        totals
    }

    #[test]
    fn single_flow_gets_path_minimum() {
        let flows = vec![vec![0, 1, 2]];
        let caps = vec![10.0, 4.0, 7.0];
        let rates = max_min_rates(&flows, &caps);
        assert_eq!(rates, vec![4.0]);
    }

    #[test]
    fn equal_flows_share_equally() {
        let flows = vec![vec![0], vec![0], vec![0], vec![0]];
        let caps = vec![8.0];
        let rates = max_min_rates(&flows, &caps);
        assert_eq!(rates, vec![2.0; 4]);
    }

    #[test]
    fn classic_three_flow_example() {
        // Flow A uses links 0 and 1; B uses 0; C uses 1.
        // caps: link0 = 10, link1 = 4.
        // Water-filling: link1 share = 2 → freeze A and C at 2;
        // link0 then has 8 left for B alone → 8.
        let flows = vec![vec![0, 1], vec![0], vec![1]];
        let caps = vec![10.0, 4.0];
        let rates = max_min_rates(&flows, &caps);
        assert_eq!(rates[0], 2.0);
        assert_eq!(rates[2], 2.0);
        assert_eq!(rates[1], 8.0);
    }

    #[test]
    fn unconstrained_flow_is_infinite() {
        let flows = vec![vec![], vec![0]];
        let caps = vec![5.0];
        let rates = max_min_rates(&flows, &caps);
        assert!(rates[0].is_infinite());
        assert_eq!(rates[1], 5.0);
    }

    #[test]
    fn no_flows() {
        assert!(max_min_rates(&[], &[1.0]).is_empty());
    }

    #[test]
    fn feasibility_and_symmetry_random() {
        use mre_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..50 {
            let nl = rng.gen_range(1..8);
            let nf = rng.gen_range(1..40);
            let caps: Vec<f64> = (0..nl).map(|_| rng.gen_range(1.0..100.0)).collect();
            let flows: Vec<Vec<usize>> = (0..nf)
                .map(|_| {
                    let mut path: Vec<usize> = (0..nl).filter(|_| rng.gen_bool(0.5)).collect();
                    if path.is_empty() {
                        path.push(rng.gen_range(0..nl));
                    }
                    path
                })
                .collect();
            let rates = max_min_rates(&flows, &caps);
            // Feasibility.
            for (l, &total) in total_per_link(&flows, &rates, nl).iter().enumerate() {
                assert!(
                    total <= caps[l] * (1.0 + 1e-9),
                    "link {l} oversubscribed: {total} > {}",
                    caps[l]
                );
            }
            // Symmetry: same path ⇒ same rate.
            for a in 0..nf {
                for b in (a + 1)..nf {
                    let (mut pa, mut pb) = (flows[a].clone(), flows[b].clone());
                    pa.sort_unstable();
                    pb.sort_unstable();
                    if pa == pb {
                        assert!((rates[a] - rates[b]).abs() < 1e-9 * rates[a].max(1.0));
                    }
                }
            }
            // Every flow touches at least one (near-)saturated link.
            let totals = total_per_link(&flows, &rates, nl);
            for (f, links) in flows.iter().enumerate() {
                let bottlenecked = links.iter().any(|&l| totals[l] >= caps[l] * (1.0 - 1e-6));
                assert!(bottlenecked, "flow {f} is not bottlenecked anywhere");
            }
        }
    }

    #[test]
    fn adding_flows_never_raises_existing_rates() {
        let caps = vec![12.0, 6.0];
        let base = vec![vec![0], vec![0, 1]];
        let more = vec![vec![0], vec![0, 1], vec![1], vec![0]];
        let r1 = max_min_rates(&base, &caps);
        let r2 = max_min_rates(&more, &caps);
        assert!(r2[0] <= r1[0] + 1e-12);
        assert!(r2[1] <= r1[1] + 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_link_index_panics() {
        max_min_rates(&[vec![3]], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_link_index_panics_in_reference() {
        max_min_rates_reference(&[vec![3]], &[1.0]);
    }

    /// Relative tolerance comparing `a` and `b` elementwise.
    fn assert_rates_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            if x.is_infinite() || y.is_infinite() {
                assert_eq!(x, y, "flow {i}");
            } else {
                let scale = x.abs().max(y.abs()).max(1e-300);
                assert!((x - y).abs() <= tol * scale, "flow {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn incremental_matches_reference_random() {
        use mre_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        // 200 populations with capacities up to 200, then 64 up to 500.
        for case in 0..264 {
            let max_cap = if case < 200 { 200.0 } else { 500.0 };
            let nl = rng.gen_range(1usize..10);
            let nf = rng.gen_range(1usize..60);
            let caps: Vec<f64> = (0..nl).map(|_| rng.gen_range(0.5f64..max_cap)).collect();
            let flows: Vec<Vec<usize>> = (0..nf)
                .map(|_| {
                    let mut path: Vec<usize> = (0..nl).filter(|_| rng.gen_bool(0.4)).collect();
                    if path.is_empty() && rng.gen_bool(0.8) {
                        path.push(rng.gen_range(0..nl));
                    }
                    path
                })
                .collect();
            let fast = max_min_rates(&flows, &caps);
            let reference = max_min_rates_reference(&flows, &caps);
            // Freezing order differs between the solvers, so rates agree
            // up to floating-point rounding, not bit-for-bit.
            assert_rates_close(&fast, &reference, 1e-6);
        }
    }

    /// Regression for the epsilon fix: capacities spanning eight orders of
    /// magnitude (100 Gb/s NIC, kB/s-scale slow links). A tolerance
    /// derived from the bottleneck share is far below the rounding error
    /// of the big link's remaining capacity; the per-link relative
    /// tolerance (reference) and the tolerance-free heap (incremental)
    /// must both keep symmetric flows identical and links feasible.
    #[test]
    fn mixed_magnitude_capacities() {
        // 32 flows through a shared 100 Gb/s NIC; 16 of them also cross a
        // slow 1 kB/s control link each (two flows per slow link), so the
        // slow links freeze first at hugely smaller shares.
        let nic = 100.0e9 / 8.0;
        let slow = 1e3;
        let mut caps = vec![nic];
        let mut flows = Vec::new();
        for f in 0..32usize {
            if f < 16 {
                let slow_link = 1 + f / 2;
                if caps.len() <= slow_link {
                    caps.push(slow);
                }
                flows.push(vec![0, slow_link]);
            } else {
                flows.push(vec![0]);
            }
        }
        for rates in [
            max_min_rates(&flows, &caps),
            max_min_rates_reference(&flows, &caps),
        ] {
            // Slow-link flows: 2 per 1 kB/s link → 500 B/s each, exactly.
            for (f, &rate) in rates.iter().enumerate().take(16) {
                assert_eq!(rate, 500.0, "flow {f}");
            }
            // NIC-only flows split the NIC remainder equally — and
            // *exactly* equally (symmetry), despite the magnitude mix.
            let expected = (nic - 16.0 * 500.0) / 16.0;
            for f in 16..32 {
                assert_eq!(rates[f], rates[16], "flow {f} breaks symmetry");
                assert!((rates[f] - expected).abs() <= 1e-9 * expected);
            }
            // Feasibility on the NIC.
            let total: f64 = rates.iter().sum();
            assert!(total <= nic * (1.0 + 1e-9));
        }
    }

    /// The scenario the old epsilon mishandled: many freeze iterations
    /// chip away at a huge shared link, then symmetric flows remain. After
    /// hundreds of subtractions the big link's remaining capacity carries
    /// rounding error well above `bottleneck_share * 1e-12`; ties must
    /// still be honored.
    #[test]
    fn many_iterations_on_huge_shared_link() {
        let nic = 12.5e9;
        let n_private = 400usize;
        let mut caps = vec![nic];
        let mut flows = Vec::new();
        for f in 0..n_private {
            // Irrational-ish ascending private caps force one freeze
            // iteration each, all touching the shared link.
            caps.push(1.0 + f as f64 * std::f64::consts::SQRT_2 * 1e-3);
            flows.push(vec![0, 1 + f]);
        }
        // Two symmetric NIC-only flows freeze last.
        flows.push(vec![0]);
        flows.push(vec![0]);
        for rates in [
            max_min_rates(&flows, &caps),
            max_min_rates_reference(&flows, &caps),
        ] {
            for f in 0..n_private {
                assert!((rates[f] - caps[1 + f]).abs() <= 1e-9 * caps[1 + f]);
            }
            assert_eq!(
                rates[n_private],
                rates[n_private + 1],
                "symmetric tail flows diverged"
            );
            let total: f64 = rates.iter().sum();
            assert!(total <= nic * (1.0 + 1e-9), "NIC oversubscribed: {total}");
        }
    }

    #[test]
    fn reference_matches_incremental_on_paper_examples() {
        let cases: Vec<(Vec<Vec<usize>>, Vec<f64>)> = vec![
            (vec![vec![0, 1, 2]], vec![10.0, 4.0, 7.0]),
            (vec![vec![0], vec![0], vec![0], vec![0]], vec![8.0]),
            (vec![vec![0, 1], vec![0], vec![1]], vec![10.0, 4.0]),
            (vec![vec![], vec![0]], vec![5.0]),
        ];
        for (flows, caps) in cases {
            assert_rates_close(
                &max_min_rates(&flows, &caps),
                &max_min_rates_reference(&flows, &caps),
                1e-12,
            );
        }
    }
}
