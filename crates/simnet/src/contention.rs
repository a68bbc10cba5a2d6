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

/// A bottleneck candidate: link `link` offered share `share`, computed
/// right after freeze step `version` touched it (0: the initial share).
/// Ordered by share (then link index for determinism); a heap entry whose
/// version is not its link's latest stamp is stale and discarded on pop.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    share: f64,
    version: usize,
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

/// Reusable scratch for [`max_min_rates_csr`]: every per-solve vector, the
/// candidate heap's backing buffer and the sorted solo-link list. After
/// the first few solves the buffers reach their high-water marks and
/// subsequent solves perform no heap allocation — the property the sweep
/// loops' steady state relies on.
#[derive(Debug, Default)]
pub(crate) struct ContentionWorkspace {
    count: Vec<usize>,
    offsets: Vec<usize>,
    link_flows: Vec<usize>,
    remaining: Vec<f64>,
    /// Per link, the last freeze step that touched it: deduplicates the
    /// step's refreshes and versions the heap entries.
    stamp: Vec<usize>,
    frozen: Vec<bool>,
    heap_buf: Vec<Reverse<Candidate>>,
    /// Links that carry exactly one flow when the solve starts, sorted by
    /// `(share, link)`; their share is fixed until that flow freezes.
    solo: Vec<Candidate>,
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
/// This is the incremental solver: per-link flow lists, a lazy min-heap
/// of shared links' shares and a pre-sorted list of solo links. Each
/// freezing step takes the smallest `(share, link)` among the live links,
/// freezes only *its* flows and refreshes only the links those flows
/// traverse — `O(S log S + Σ|flows[f]| · log H)` total for `S` solo and
/// `H` shared links, versus the reference solver's full rescan of every
/// flow per iteration. A link carries at most one up-to-date candidate,
/// so the freezing sequence is the order of `(share, link)` alone,
/// whatever order candidates were pushed in; no tie tolerance is needed,
/// since links tied with the bottleneck pop next.
///
/// * A per-solve stamp (`stamp[l] == step`) marks each link the first time
///   a step touches it: one refreshed candidate per touched link, and the
///   stamp doubles as the candidate's version.
/// * A **solo** link — exactly one flow when the solve starts, such as a
///   core's leaf uplink — keeps the share `capacity.max(0) / 1` until that
///   flow freezes, when it dies. Solo links are therefore sorted once into
///   a side list instead of entering the heap; each step takes the smaller
///   of the heap's first up-to-date entry and the side list's first live
///   entry.
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
    max_min_rates_csr::<false>(&mut ws, &offsets, &links, capacities, &[], &mut rates);
    rates
}

/// [`max_min_rates`] over flows in CSR layout, with caller-owned scratch
/// and output: flow `f`'s links are
/// `flow_links[flow_offsets[f]..flow_offsets[f + 1]]`, rates are written
/// into `rates` (cleared first). Bit-identical to [`max_min_rates`] — the
/// freezing schedule depends only on the data, not the containers — while
/// allocating nothing once `ws` and `rates` are warm.
///
/// `QUOTIENT` solves a certified job set on communicator 0's flows
/// (DESIGN.md §7j): link `l` carries `mults[l]` copies of each of its
/// flows, so its flow count moves by `mults[l]`, and a freeze replays
/// `remaining -= share` `mults[l]` times — never `mults[l] · share` — so
/// each link sees the full solve's subtractions. Without it `mults` is
/// never read.
pub(crate) fn max_min_rates_csr<const QUOTIENT: bool>(
    ws: &mut ContentionWorkspace,
    flow_offsets: &[usize],
    flow_links: &[usize],
    capacities: &[f64],
    mults: &[u32],
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
    if QUOTIENT {
        for (c, &m) in ws.count.iter_mut().zip(mults) {
            *c *= m as usize;
        }
    }
    ws.remaining.clear();
    ws.remaining.extend_from_slice(capacities);
    ws.stamp.clear();
    ws.stamp.resize(nl, 0);
    ws.frozen.clear();
    ws.frozen.resize(nf, false);
    // Every live link's initial candidate: solo links into the side list,
    // shared links into the heap.
    ws.heap_buf.clear();
    ws.solo.clear();
    for l in 0..nl {
        let n = ws.count[l];
        if n == 0 {
            continue;
        }
        let candidate = Candidate {
            share: ws.remaining[l].max(0.0) / n as f64,
            version: 0,
            link: l,
        };
        if n == 1 {
            ws.solo.push(candidate);
        } else {
            ws.heap_buf.push(Reverse(candidate));
        }
    }
    ws.solo.sort_unstable();
    // Heapify the reused buffer; its allocation returns to `ws` below.
    let mut heap = BinaryHeap::from(std::mem::take(&mut ws.heap_buf));
    let mut next_solo = 0usize;
    let mut step = 0usize;
    while active > 0 {
        // The smallest up-to-date candidate of either list.
        while let Some(&Reverse(top)) = heap.peek() {
            if top.version == ws.stamp[top.link] {
                break;
            }
            heap.pop(); // superseded by a later refresh
        }
        while next_solo < ws.solo.len() && ws.count[ws.solo[next_solo].link] == 0 {
            next_solo += 1; // its flow froze on another link
        }
        let solo = ws.solo.get(next_solo).copied();
        let candidate = match heap.peek() {
            Some(&Reverse(shared)) if solo.is_none_or(|solo| shared < solo) => {
                heap.pop();
                shared
            }
            _ => {
                next_solo += 1;
                solo.expect("active flows imply a candidate link")
            }
        };
        step += 1;
        let l = candidate.link;
        let bottleneck_share = candidate.share;
        debug_assert!(bottleneck_share.is_finite());
        // Freeze every still-active flow through the bottleneck link and
        // return its rate to the links it traverses. Stamping the
        // bottleneck first keeps it out of the refresh list.
        ws.stamp[l] = step;
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
                if QUOTIENT {
                    let m = mults[l2] as usize;
                    for _ in 0..m {
                        ws.remaining[l2] -= bottleneck_share;
                    }
                    ws.count[l2] -= m;
                } else {
                    ws.remaining[l2] -= bottleneck_share;
                    ws.count[l2] -= 1;
                }
                if ws.stamp[l2] != step {
                    ws.stamp[l2] = step;
                    ws.touched.push(l2);
                }
            }
        }
        debug_assert_eq!(ws.count[l], 0, "bottleneck link fully drained");
        // One refreshed candidate per touched link, reflecting all of this
        // step's freezes at once (per-update pushes would all be stale). A
        // touched solo link has just lost its only flow, so only shared
        // links are pushed.
        for &l2 in &ws.touched {
            if ws.count[l2] > 0 {
                heap.push(Reverse(Candidate {
                    share: ws.remaining[l2].max(0.0) / ws.count[l2] as f64,
                    version: step,
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
        mre_core::telemetry::counter_add("simnet.maxmin.iterations", step as u64);
        mre_core::telemetry::counter_add("simnet.maxmin.flows", nf as u64);
        mre_core::telemetry::observe("simnet.maxmin.iterations.hist", step as f64);
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

    /// Capacities for the digest corpus. Few distinct values, so that
    /// shares of links with different flow counts tie exactly (`4/2 = 2/1`,
    /// `12/4 = 3/1`), plus a zero and non-dyadic values whose subtractions
    /// round.
    const CORPUS_CAPACITIES: [f64; 9] = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 12.0, 0.3];

    /// A seeded corpus of 2000 instances: 1000 of the random shape
    /// `incremental_matches_reference_random` uses, and 1000 tree-shaped
    /// populations in which every flow has a private first and last link
    /// (solo links: one flow each) around a few shared middle links, with
    /// link ids shuffled so solo and shared links interleave.
    fn digest_corpus() -> Vec<(Vec<Vec<usize>>, Vec<f64>)> {
        use mre_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x50_10_D1_6E);
        let cap = |rng: &mut SmallRng| {
            if rng.gen_bool(0.03) {
                0.0
            } else {
                *rng.choose(&CORPUS_CAPACITIES[1..]).expect("non-empty")
            }
        };
        let mut corpus = Vec::with_capacity(2000);
        for _ in 0..1000 {
            let nl = rng.gen_range(1usize..10);
            let nf = rng.gen_range(1usize..60);
            let caps: Vec<f64> = (0..nl).map(|_| cap(&mut rng)).collect();
            let flows: Vec<Vec<usize>> = (0..nf)
                .map(|_| {
                    let mut path: Vec<usize> = (0..nl).filter(|_| rng.gen_bool(0.4)).collect();
                    if path.is_empty() && rng.gen_bool(0.8) {
                        path.push(rng.gen_range(0..nl));
                    }
                    path
                })
                .collect();
            corpus.push((flows, caps));
        }
        for _ in 0..1000 {
            let nf = rng.gen_range(1usize..40);
            let shared = rng.gen_range(0usize..6);
            // Ids 0..shared are the middle links; each flow then takes a
            // fresh first link (or, now and then, its predecessor's, which
            // makes that link shared) and a fresh last link.
            let mut next = shared;
            let mut flows: Vec<Vec<usize>> = Vec::with_capacity(nf);
            for f in 0..nf {
                let first = if f > 0 && rng.gen_bool(0.15) {
                    flows[f - 1][0]
                } else {
                    next += 1;
                    next - 1
                };
                let mut path = vec![first];
                path.extend((0..shared).filter(|_| rng.gen_bool(0.5)));
                path.push(next);
                next += 1;
                flows.push(path);
            }
            let mut ids: Vec<usize> = (0..next).collect();
            rng.shuffle(&mut ids);
            for path in &mut flows {
                for l in path.iter_mut() {
                    *l = ids[*l];
                }
            }
            let caps: Vec<f64> = (0..next).map(|_| cap(&mut rng)).collect();
            corpus.push((flows, caps));
        }
        corpus
    }

    /// FNV-1a over the rate count and every rate's bits, instance by
    /// instance.
    fn rates_digest(corpus: &[(Vec<Vec<usize>>, Vec<f64>)]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (flows, caps) in corpus {
            let rates = max_min_rates(flows, caps);
            word(rates.len() as u64);
            for r in rates {
                word(r.to_bits());
            }
        }
        h
    }

    /// Every rate bit of the corpus, pinned: the freezing sequence (pops
    /// ordered by `(share, link)`) decides the bits where solo and shared
    /// shares tie, so any change to it shows here. Recorded from the
    /// heap-only solver that sorted and deduplicated each step's touched
    /// links.
    #[test]
    fn rate_bits_match_the_pinned_digest() {
        let corpus = digest_corpus();
        assert_eq!(corpus.len(), 2000);
        assert_eq!(rates_digest(&corpus), 0xa3ff_045c_98db_95b8);
    }

    #[test]
    fn all_solo_links_need_no_heap() {
        // Every link carries one flow, so no candidate is ever pushed.
        assert_eq!(
            max_min_rates(&[vec![0], vec![1], vec![2]], &[3.0, 1.0, 2.0]),
            vec![3.0, 1.0, 2.0]
        );
        assert_eq!(
            max_min_rates(&[vec![3, 0], vec![1, 2]], &[5.0, 2.0, 1.0, 4.0]),
            vec![4.0, 1.0]
        );
    }

    #[test]
    fn solo_link_as_the_first_bottleneck() {
        // Link 0 (solo, share 1) freezes flow 0 before shared link 1
        // (share 3), which then splits its remaining 8 between two flows.
        assert_eq!(
            max_min_rates(&[vec![0, 1], vec![1], vec![1]], &[1.0, 9.0]),
            vec![1.0, 4.0, 4.0]
        );
        // Same with the solo link behind the shared one in id order.
        assert_eq!(
            max_min_rates(&[vec![1, 0], vec![0], vec![0]], &[9.0, 1.0]),
            vec![1.0, 4.0, 4.0]
        );
    }

    #[test]
    fn solo_and_shared_tie_breaks_on_link_index() {
        // Shared link S (capacity 1, three flows) and flow 0's solo link
        // (capacity 1/3) offer the same share s. If S pops first, all
        // three flows freeze at s; if the solo link does, flows 1 and 2
        // split S's remainder, `(1 - s) / 2`, which rounds differently.
        let s = 1.0f64 / 3.0;
        let split = (1.0 - s) / 2.0;
        assert_ne!(split.to_bits(), s.to_bits());
        // S = link 0 wins the tie.
        assert_eq!(
            max_min_rates(&[vec![0, 1], vec![0], vec![0]], &[1.0, s]),
            vec![s, s, s]
        );
        // Solo = link 0 wins the tie.
        assert_eq!(
            max_min_rates(&[vec![1, 0], vec![1], vec![1]], &[s, 1.0]),
            vec![s, split, split]
        );
    }

    /// Solves `flows` on the quotient: each link `l` counted `mults[l]`
    /// times.
    fn quotient_rates(flows: &[Vec<usize>], caps: &[f64], mults: &[u32]) -> Vec<f64> {
        let mut offsets = vec![0];
        let mut links = Vec::new();
        for f in flows {
            links.extend_from_slice(f);
            offsets.push(links.len());
        }
        let mut rates = Vec::new();
        let mut ws = ContentionWorkspace::default();
        max_min_rates_csr::<true>(&mut ws, &offsets, &links, caps, mults, &mut rates);
        rates
    }

    #[test]
    fn quotient_solve_matches_the_full_solve_it_stands_for() {
        // Three translated jobs of three flows through one shared link
        // (1): each flow also crosses a private link of capacity 0.7, 0.3
        // or 1.1. Job 0's links come first, as in a merged round, and the
        // shares are not dyadic, so replayed subtractions round as the
        // full solve's do.
        let mut caps = vec![0.7, 6.0, 0.3, 1.1];
        let mut full = vec![vec![0, 1], vec![1, 2], vec![1, 3]];
        for job in 1..3 {
            let base = 1 + 3 * job;
            caps.extend([0.7, 0.3, 1.1]);
            full.extend([vec![base, 1], vec![1, base + 1], vec![1, base + 2]]);
        }
        let rates = max_min_rates(&full, &caps);
        // Job 0 alone, with the shared link counted thrice.
        let quotient = quotient_rates(&full[..3], &caps[..4], &[1, 3, 1, 1]);
        for job in rates.chunks(3) {
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(job), bits(&quotient));
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
