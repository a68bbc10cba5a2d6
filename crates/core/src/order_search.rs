//! Order-space search utilities — toward the paper's future direction of
//! *automatically applying the best order*.
//!
//! The paper deliberately does not evaluate all `k!` orders on hardware;
//! instead it proposes metrics that characterize an order without running
//! it. This module builds on those metrics:
//!
//! * [`spreadness`] condenses the pairs-per-level percentages into a
//!   single `[0, 1]` score (0 = fully packed, 1 = fully spread);
//! * [`representatives`] prunes the order space to one order per
//!   mapping-equivalence class, preferring the lowest ring cost in each
//!   class (the cheapest rank assignment on the same resources). One
//!   allocation-free pass over the `k!` orders finds the classes from
//!   per-level digit counts and each order's ring cost in closed form;
//!   only the class winners are characterized (DESIGN.md §7i).
//!
//! Every search then performs the paper's single operation (§3.3): cost
//! one representative per class and return the best. One private engine
//! runs it over a (subcommunicator size × payload size) grid, and four
//! entry points spell the grid shapes callers need:
//!
//! | entry point | grid | pruning |
//! |---|---|---|
//! | [`rank_orders_by_par`] | 1 × 1 | none: every representative is costed |
//! | [`rank_orders_pruned_ladder`] | 1 × 1 | cheap and tight bound rungs |
//! | [`sweep`] | sizes × payloads | none |
//! | [`sweep_pruned_axis`] | sizes × payloads | cheap and tight bound rungs |
//!
//! Per distinct subcommunicator size the engine computes the
//! representatives once and runs three fan-outs on the [`crate::par`]
//! pool. The first builds each candidate's `prepare` artifact together
//! with its cheap bound at every payload; each grid cell's frontier is its
//! candidates in ascending `(cheap bound, enumeration index)` order. The
//! second costs the first `⌈W/C⌉` candidates of every cell's frontier as
//! seeds (`W` = [`crate::par::threads`], `C` = the size's payload cells),
//! so no worker idles while the incumbents are seeded. Each cell then
//! drains the rest of its frontier with one claim loop against a shared
//! CAS-min incumbent, starting from its seeds' minimum: a candidate whose
//! cheap bound exceeds the incumbent ends the cell, one whose lazily
//! evaluated tight bound does is skipped, and only the rest pay the full
//! cost (DESIGN.md §7e, §7g). The third frees the prepared artifacts.
//! Every fan-out runs inline on one worker, where the engine is exactly
//! the serial incumbent loop. An exhaustive search is the same engine with
//! both rungs at `f64::NEG_INFINITY`, which never prune.
//!
//! With admissible bounds (`bound ≤ cost` pointwise) every cell's winner
//! and its cost bits equal the exhaustive search's in every thread
//! interleaving and for every seed set. [`PruneStats`]'s evaluated/pruned
//! split is exact and repeatable on one worker (`MRE_PAR_THREADS=1` or
//! [`crate::par::set_threads`]`(1)`); on more it may vary — the seeds add
//! at most `⌈W/C⌉ − 1` costed candidates per cell — its total never does.
//! The returned [`PruneStats`] are the only channel for these counts: the
//! search emits nothing into [`crate::telemetry`] and measures no time.

use crate::error::Error;
use crate::hierarchy::Hierarchy;
use crate::metrics::{characterize_order, fold_classes, OrderCharacterization};
use crate::par;
use crate::permutation::Permutation;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Spreadness score of an order for a given subcommunicator size: the
/// mean crossing level of a communicator's process pairs, normalized to
/// `[0, 1]`. A mapping whose pairs all sit inside the lowest level scores
/// 0; one whose pairs all cross the outermost level scores 1.
pub fn spreadness(h: &Hierarchy, sigma: &Permutation, subcomm_size: usize) -> Result<f64, Error> {
    let c = characterize_order(h, sigma, subcomm_size)?;
    let k = h.depth();
    if k <= 1 {
        return Ok(0.0);
    }
    let mean_level: f64 = c
        .percentages
        .iter()
        .enumerate()
        .map(|(i, pct)| pct / 100.0 * i as f64)
        .sum();
    Ok(mean_level / (k - 1) as f64)
}

/// One representative order per mapping-equivalence class: within each
/// class the order with the lowest ring cost (ties broken
/// lexicographically). Evaluating only these avoids the paper's redundant
/// measurements.
///
/// Classes come in [`crate::metrics::equivalence_classes`] order. The
/// class walk costs every order's ring in closed form
/// ([`crate::metrics::order_ring_cost`]), so only each class winner is
/// characterized. Hierarchies deeper than
/// [`crate::permutation::MAX_ENUMERATED_DEPTH`] return
/// [`Error::TooManyOrders`].
pub fn representatives(
    h: &Hierarchy,
    subcomm_size: usize,
) -> Result<Vec<OrderCharacterization>, Error> {
    let winners = fold_classes(
        h,
        subcomm_size,
        |best: &mut Option<(usize, Vec<usize>)>, order, ring| match best {
            // Orders arrive in lexicographic order: a tie keeps the first.
            Some((best_ring, _)) if ring >= *best_ring => {}
            Some((best_ring, best_order)) => {
                *best_ring = ring;
                best_order.copy_from_slice(order);
            }
            None => *best = Some((ring, order.to_vec())),
        },
    )?;
    winners
        .into_iter()
        .flatten()
        .map(|(_, order)| characterize_order(h, &Permutation::from_valid(order), subcomm_size))
        .collect()
}

/// Outcome counters of a branch-and-bound search: how many candidates
/// paid the full cost evaluation vs. were skipped on their lower bound
/// alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidates whose full cost was evaluated.
    pub evaluated: u64,
    /// Candidates skipped because a lower bound exceeded the incumbent
    /// best cost (cheap-rung and tight-rung skips combined).
    pub pruned: u64,
    /// The subset of `pruned` skipped by the **tight** ladder rung — the
    /// candidates the cheap bound let through but the lazily-evaluated
    /// tighter bound rejected.
    pub tight_pruned: u64,
}

impl PruneStats {
    /// Total candidates considered (evaluated + pruned). Invariant under
    /// thread count and scheduling, unlike the evaluated/pruned split of
    /// the parallel engine (a worker may cost a candidate a slightly
    /// earlier incumbent would have pruned).
    pub fn candidates(&self) -> u64 {
        self.evaluated + self.pruned
    }
}

/// Result of [`rank_orders_pruned_ladder`]: the provably-best order plus
/// the subset of candidates that were actually evaluated.
#[derive(Debug, Clone)]
pub struct PrunedRanking {
    /// The best `(characterization, cost)` — byte-identical to
    /// `rank_orders_by_par(...)[0]` when both bounds are admissible.
    pub best: (OrderCharacterization, f64),
    /// The evaluated candidates, lowest cost first (pruned candidates are
    /// absent — their exact costs were never computed).
    pub ranked: Vec<(OrderCharacterization, f64)>,
    /// Evaluated/pruned counters.
    pub stats: PruneStats,
}

/// The grid a [`sweep`] or [`sweep_pruned_axis`] evaluates: every
/// representative order of each subcommunicator size, at every payload
/// size.
///
/// **Invariant:** duplicate values within an axis denote the *same* grid
/// cell — the sweep evaluates each distinct `(subcomm_size, payload)`
/// pair exactly once and clones the resulting cell into every spec
/// position that names it, so the output shape always matches
/// `subcomm_sizes.len() × payload_sizes.len()` but the work done matches
/// the deduplicated grid.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Subcommunicator sizes (each must divide the machine size).
    pub subcomm_sizes: Vec<usize>,
    /// Total payload sizes in bytes (the figure sweeps' x-axis).
    pub payload_sizes: Vec<u64>,
}

/// One (subcommunicator size, payload size) cell of a sweep: the best
/// order plus the evaluated candidates ranked best-first.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Processes per subcommunicator for this cell.
    pub subcomm_size: usize,
    /// Payload size (bytes) for this cell.
    pub payload: u64,
    /// The best `(characterization, cost)`, equal to `ranked[0]` — and,
    /// when the bounds are admissible, byte-identical to the exhaustive
    /// [`sweep`]'s.
    pub best: (OrderCharacterization, f64),
    /// The evaluated `(characterization, cost)` pairs, lowest cost first;
    /// ties keep the representatives' deterministic enumeration order. An
    /// exhaustive sweep evaluates every representative; a pruned one
    /// leaves the pruned candidates out.
    pub ranked: Vec<(OrderCharacterization, f64)>,
    /// Evaluated/pruned counters for this cell.
    pub stats: PruneStats,
}

/// Ranks the representative orders by `cost` and returns `(characterization,
/// cost)` pairs sorted best (lowest cost) first, ties in enumeration order.
///
/// `cost` is typically a simulated duration — e.g. closing over an
/// `mre-simnet` network model and a collective schedule generator. The
/// evaluations fan out on the [`crate::par`] worker pool; the ranking is
/// byte-identical for every thread count, because costs are pure and the
/// final `(cost, enumeration index)` sort does not depend on which worker
/// produced them.
pub fn rank_orders_by_par<F>(
    h: &Hierarchy,
    subcomm_size: usize,
    cost: F,
) -> Result<Vec<(OrderCharacterization, f64)>, Error>
where
    F: Fn(&Permutation) -> f64 + Sync,
{
    let cell = search_one(
        h,
        subcomm_size,
        |_| (),
        never_prunes,
        never_prunes,
        |sigma, _| cost(sigma),
    )?;
    Ok(cell.ranked)
}

/// Branch-and-bound ranking with a two-stage **bound ladder** and
/// per-candidate preparation (DESIGN.md §7g).
///
/// Per candidate σ, `prepare(σ)` builds an artifact `P` exactly once —
/// typically the collective schedules, the dominant per-candidate cost —
/// and every later stage receives `(σ, &P)` instead of rebuilding it:
///
/// 1. `cheap(σ, &P)` is evaluated for **every** candidate up front (on
///    the worker pool) and orders the frontier — e.g. the aggregate
///    capacity bound;
/// 2. `tight(σ, &P)` runs **lazily**, only for candidates the cheap rung
///    failed to prune — e.g. the per-rail histogram bound, which
///    dominates the aggregate on railed fabrics;
/// 3. `cost(σ, &P)` runs only for candidates both rungs admit.
///
/// **Both bounds must be admissible** (`cheap(σ) ≤ cost(σ)` and
/// `tight(σ) ≤ cost(σ)` pointwise). Then [`PrunedRanking::best`] is
/// byte-identical to `rank_orders_by_par(...)[0]` in every thread
/// interleaving: any candidate whose cost equals the minimum has both
/// bounds ≤ that cost ≤ every incumbent, so no interleaving skips it, and
/// the final `(cost, enumeration index)` sort breaks ties like the
/// exhaustive path. A non-admissible bound can prune the true optimum.
/// `tight` need not dominate `cheap` for correctness — only for the second
/// rung to ever pay off; `|_, _| f64::NEG_INFINITY` disables it.
/// [`PruneStats::tight_pruned`] counts its wins. The search measures no
/// time: a caller that wants the ladder-vs-cost split times its own
/// closures, as `order_sweep --pruned` does.
pub fn rank_orders_pruned_ladder<P, Prep, B1, B2, F>(
    h: &Hierarchy,
    subcomm_size: usize,
    prepare: Prep,
    cheap: B1,
    tight: B2,
    cost: F,
) -> Result<PrunedRanking, Error>
where
    P: Send + Sync,
    Prep: Fn(&Permutation) -> P + Sync,
    B1: Fn(&Permutation, &P) -> f64 + Sync,
    B2: Fn(&Permutation, &P) -> f64 + Sync,
    F: Fn(&Permutation, &P) -> f64 + Sync,
{
    let cell = search_one(h, subcomm_size, prepare, cheap, tight, cost)?;
    Ok(PrunedRanking {
        best: cell.best,
        ranked: cell.ranked,
        stats: cell.stats,
    })
}

/// Evaluates `cost(order, subcomm_size, payload)` over the whole
/// (order × subcommunicator size × payload size) grid on the worker pool
/// and returns one ranked [`SweepCell`] per grid cell, in `spec` order
/// (subcommunicator sizes outer, payloads inner). Every cell ranks all
/// representatives of its size.
///
/// Representatives are computed once per *distinct* subcommunicator size
/// and duplicate grid cells are evaluated once (see [`SweepSpec`]).
/// Results are deterministic for the same reasons as
/// [`rank_orders_by_par`].
///
/// ```
/// use mre_core::{Hierarchy, order_search::{sweep, SweepSpec}};
/// let h = Hierarchy::new(vec![4, 2, 8]).unwrap();
/// let spec = SweepSpec { subcomm_sizes: vec![8, 16], payload_sizes: vec![1 << 14, 1 << 20] };
/// // A toy cost: spread orders pay per byte, packed ones less.
/// let cells = sweep(&h, &spec, |sigma, s, bytes| {
///     (sigma.apply(0) as f64 + 1.0) * s as f64 * bytes as f64
/// }).unwrap();
/// assert_eq!(cells.len(), 4);
/// assert!(cells.iter().all(|c| c.ranked.windows(2).all(|w| w[0].1 <= w[1].1)));
/// ```
pub fn sweep<F>(h: &Hierarchy, spec: &SweepSpec, cost: F) -> Result<Vec<SweepCell>, Error>
where
    F: Fn(&Permutation, usize, u64) -> f64 + Sync,
{
    search(
        h,
        spec,
        |_, _| (),
        |_, _, _, _| f64::NEG_INFINITY,
        |_, _, _, _| f64::NEG_INFINITY,
        |sigma, s, payload, _| cost(sigma, s, payload),
    )
}

/// Branch-and-bound [`sweep`] with the bound ladder of
/// [`rank_orders_pruned_ladder`] and the per-candidate preparation hoisted
/// out of the payload axis: `prepare(σ, subcomm_size)` runs exactly **once
/// per (subcommunicator size, candidate)** — not once per (candidate,
/// payload) — and every payload cell of that size receives the same `&P`.
///
/// This is the engine behind symbolic payload sweeps (DESIGN.md §7h): the
/// artifact `P` captures everything payload-independent about a candidate
/// — typically its schedule structure and solved contention profiles as a
/// piecewise-linear function of payload bytes — so an axis of `m` payload
/// points pays the expensive preparation once instead of `m` times, and
/// each cell's bound/cost evaluations are cheap per-payload lookups or
/// replays against `&P`. A `prepare` that returns `()` leaves the closures
/// to do all the work per cell.
///
/// Both rungs must be admissible pointwise, now also in `payload`; then
/// every cell's [`SweepCell::best`] is byte-identical to the exhaustive
/// [`sweep`]'s, in every thread interleaving. Each cell's
/// [`SweepCell::stats`] returns its prune counts.
pub fn sweep_pruned_axis<P, Prep, B1, B2, F>(
    h: &Hierarchy,
    spec: &SweepSpec,
    prepare: Prep,
    cheap: B1,
    tight: B2,
    cost: F,
) -> Result<Vec<SweepCell>, Error>
where
    P: Send + Sync,
    Prep: Fn(&Permutation, usize) -> P + Sync,
    B1: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
    B2: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
    F: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
{
    search(h, spec, prepare, cheap, tight, cost)
}

/// The rung of an exhaustive ranking: a lower bound that never prunes.
fn never_prunes<P>(_: &Permutation, _: &P) -> f64 {
    f64::NEG_INFINITY
}

/// A ranking as the engine's 1 × 1 grid (the payload axis is unused).
fn search_one<P, Prep, B1, B2, F>(
    h: &Hierarchy,
    subcomm_size: usize,
    prepare: Prep,
    cheap: B1,
    tight: B2,
    cost: F,
) -> Result<SweepCell, Error>
where
    P: Send + Sync,
    Prep: Fn(&Permutation) -> P + Sync,
    B1: Fn(&Permutation, &P) -> f64 + Sync,
    B2: Fn(&Permutation, &P) -> f64 + Sync,
    F: Fn(&Permutation, &P) -> f64 + Sync,
{
    let spec = SweepSpec {
        subcomm_sizes: vec![subcomm_size],
        payload_sizes: vec![0],
    };
    let mut cells = search(
        h,
        &spec,
        |sigma, _| prepare(sigma),
        |sigma, _, _, p| cheap(sigma, p),
        |sigma, _, _, p| tight(sigma, p),
        |sigma, _, _, p| cost(sigma, p),
    )?;
    Ok(cells.pop().expect("a 1 x 1 grid has one cell"))
}

/// The search engine behind every entry point: deduplicates both axes and,
/// per distinct size, computes the representatives and runs three
/// fan-outs on the pool — prepare-plus-cheap-bounds over the candidates,
/// the seeds of every cell, and freeing the prepared artifacts — around
/// one [`drain`] per distinct cell; then expands the cells back to `spec`
/// order.
fn search<P, Prep, B1, B2, F>(
    h: &Hierarchy,
    spec: &SweepSpec,
    prepare: Prep,
    cheap: B1,
    tight: B2,
    cost: F,
) -> Result<Vec<SweepCell>, Error>
where
    P: Send + Sync,
    Prep: Fn(&Permutation, usize) -> P + Sync,
    B1: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
    B2: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
    F: Fn(&Permutation, usize, u64, &P) -> f64 + Sync,
{
    let (sizes, size_pos) = dedup_axis(&spec.subcomm_sizes);
    let (payloads, payload_pos) = dedup_axis(&spec.payload_sizes);
    let mut unique_cells: Vec<SweepCell> = Vec::with_capacity(sizes.len() * payloads.len());
    for &s in &sizes {
        let reps = representatives(h, s)?;
        let (prepared, cheap_bounds): (Vec<P>, Vec<Vec<f64>>) = par::map(&reps, |_, c| {
            let p = prepare(&c.order, s);
            let bounds = payloads
                .iter()
                .map(|&x| cheap(&c.order, s, x, &p))
                .collect();
            (p, bounds)
        })
        .into_iter()
        .unzip();
        // Each cell's frontier: its candidates in (cheap bound, index) order.
        let frontiers: Vec<(Vec<f64>, Vec<usize>)> = (0..payloads.len())
            .map(|pi| {
                let bounds: Vec<f64> = cheap_bounds.iter().map(|b| b[pi]).collect();
                let mut visit: Vec<usize> = (0..bounds.len()).collect();
                visit.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
                (bounds, visit)
            })
            .collect();
        // Seed every cell's incumbent in one fan-out: the first ⌈W/C⌉
        // positions of each frontier, so all W workers cost seeds at once.
        // One worker costs exactly each cell's bound-minimal candidate.
        let per_cell = par::threads()
            .div_ceil(payloads.len().max(1))
            .min(reps.len());
        let seed_jobs: Vec<(usize, usize)> = frontiers
            .iter()
            .enumerate()
            .flat_map(|(pi, (_, visit))| visit[..per_cell].iter().map(move |&i| (pi, i)))
            .collect();
        let seed_costs = par::map(&seed_jobs, |_, &(pi, i)| {
            cost(&reps[i].order, s, payloads[pi], &prepared[i])
        });
        // Cells drain in sequence — the pool drains each cell's frontier,
        // so a second fan-out across cells would only oversubscribe.
        for (pi, (&payload, (bounds, visit))) in payloads.iter().zip(&frontiers).enumerate() {
            let (evaluated, stats) = drain(
                bounds,
                visit,
                &seed_costs[pi * per_cell..(pi + 1) * per_cell],
                &|i| tight(&reps[i].order, s, payload, &prepared[i]),
                &|i| cost(&reps[i].order, s, payload, &prepared[i]),
            );
            let ranked: Vec<(OrderCharacterization, f64)> = evaluated
                .into_iter()
                .map(|(i, c)| (reps[i].clone(), c))
                .collect();
            unique_cells.push(SweepCell {
                subcomm_size: s,
                payload,
                best: ranked
                    .first()
                    .cloned()
                    .expect("a valid subcommunicator size has at least one representative order"),
                ranked,
                stats,
            });
        }
        // Free the artifacts (typically every candidate's schedules) on
        // the pool rather than one by one on the caller.
        par::map_into(prepared, |_, p| drop(p));
    }
    if unique_cells.len() == size_pos.len() * payload_pos.len() {
        // No duplicates: the distinct cells already are the spec order.
        return Ok(unique_cells);
    }
    let mut cells = Vec::with_capacity(size_pos.len() * payload_pos.len());
    for &si in &size_pos {
        for &pi in &payload_pos {
            cells.push(unique_cells[si * payloads.len() + pi].clone());
        }
    }
    Ok(cells)
}

/// First-occurrence deduplication of a grid axis: the unique values in
/// order of first appearance, plus for each spec position the index of
/// its value in the unique list.
fn dedup_axis<T: Copy + Eq + std::hash::Hash>(values: &[T]) -> (Vec<T>, Vec<usize>) {
    let mut unique: Vec<T> = Vec::new();
    let mut index: std::collections::HashMap<T, usize> = std::collections::HashMap::new();
    let mut positions = Vec::with_capacity(values.len());
    for &v in values {
        let i = *index.entry(v).or_insert_with(|| {
            unique.push(v);
            unique.len() - 1
        });
        positions.push(i);
    }
    (unique, positions)
}

/// Drains one cell's bound-ordered frontier: the claim loop of every
/// search.
///
/// `visit` lists the cell's candidates in `(cheap bound, enumeration
/// index)` order, and `seeds` holds the costs of its first `seeds.len()`
/// positions — at least one when `visit` is not empty. Their minimum seeds
/// the incumbent; without it, `threads ≥
/// candidates` would cost the whole frontier speculatively before any
/// pruning could act. Workers then claim the remaining positions from a
/// shared cursor. A claim whose cheap bound *strictly* exceeds the
/// incumbent proves every later position prunable too (cheap bounds ascend
/// along the visit order and the incumbent only decreases), so the worker
/// forwards the cursor past the end and retires. A claim the cheap rung
/// admits is re-checked against its `tight` bound, whose rejection skips
/// only that candidate (tight bounds are not sorted). Everything else is
/// costed and lowers the incumbent by CAS on the cost's f64 bits. With one
/// worker the engine passes one seed and [`par::broadcast`] runs the loop
/// inline, which makes it the serial incumbent loop with an exact,
/// repeatable evaluated/pruned split.
///
/// Strict inequality is what keeps the winner byte-identical to the
/// exhaustive search: a candidate whose bound *equals* the incumbent could
/// still tie it with a smaller enumeration index, so it must be costed;
/// and a candidate whose true cost equals the final minimum has (by
/// admissibility of both rungs) bounds ≤ that cost ≤ every incumbent, so
/// no interleaving and no seed set skips it.
///
/// Returns the evaluated `(enumeration index, cost)` pairs sorted by
/// `(cost, enumeration index)` — position 0 is the provable optimum —
/// plus the prune counters.
fn drain(
    bounds: &[f64],
    visit: &[usize],
    seeds: &[f64],
    tight: &(dyn Fn(usize) -> f64 + Sync),
    cost: &(dyn Fn(usize) -> f64 + Sync),
) -> (Vec<(usize, f64)>, PruneStats) {
    let Some((&first, rest)) = seeds.split_first() else {
        return (Vec::new(), PruneStats::default());
    };
    let incumbent = AtomicU64::new(first.to_bits());
    for &c in rest {
        cas_min_f64(&incumbent, c);
    }
    let cursor = AtomicUsize::new(seeds.len());
    let workers = par::threads().min(visit.len() - seeds.len());
    let evaluated = std::sync::Mutex::new(
        visit
            .iter()
            .copied()
            .zip(seeds.iter().copied())
            .collect::<Vec<_>>(),
    );
    let tight_pruned = AtomicU64::new(0);
    let exceeds_incumbent = |b: f64| {
        b.total_cmp(&f64::from_bits(incumbent.load(Ordering::Acquire)))
            .is_gt()
    };
    par::broadcast(workers, |_| loop {
        let pos = cursor.fetch_add(1, Ordering::SeqCst);
        if pos >= visit.len() {
            break;
        }
        let i = visit[pos];
        if exceeds_incumbent(bounds[i]) {
            // Every later position is prunable too. Forward the cursor so
            // idle workers retire immediately. (A worker that claimed a
            // position just before this store still prunes it on its own
            // check — same monotonicity.)
            cursor.store(visit.len(), Ordering::SeqCst);
            break;
        }
        if exceeds_incumbent(tight(i)) {
            tight_pruned.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let c = cost(i);
        cas_min_f64(&incumbent, c);
        evaluated
            .lock()
            .expect("no search worker panics while holding the evaluated list")
            .push((i, c));
    });
    let mut evaluated = evaluated
        .into_inner()
        .expect("no search worker panics while holding the evaluated list");
    evaluated.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let stats = PruneStats {
        evaluated: evaluated.len() as u64,
        pruned: (visit.len() - evaluated.len()) as u64,
        tight_pruned: tight_pruned.load(Ordering::Relaxed),
    };
    (evaluated, stats)
}

/// Lowers `current` to `candidate` if smaller (by `total_cmp`), CAS-ing
/// on the f64's bit pattern — the shared incumbent of [`drain`].
fn cas_min_f64(current: &AtomicU64, candidate: f64) {
    let mut cur = current.load(Ordering::Acquire);
    while candidate.total_cmp(&f64::from_bits(cur)).is_lt() {
        match current.compare_exchange_weak(
            cur,
            candidate.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hydra() -> Hierarchy {
        Hierarchy::new(vec![16, 2, 2, 8]).unwrap()
    }

    fn sig(order: &[usize]) -> Permutation {
        Permutation::new(order.to_vec()).unwrap()
    }

    #[test]
    fn spreadness_extremes() {
        let h = hydra();
        // Fully spread: all pairs cross nodes → 1.0 exactly? Entry k−1 =
        // 100 % → mean level = k−1 → score 1.
        let s = spreadness(&h, &sig(&[0, 1, 2, 3]), 16).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
        // Packed socket: pairs at levels 0 and 1 only → score well below
        // 0.5.
        let p = spreadness(&h, &sig(&[3, 2, 1, 0]), 16).unwrap();
        assert!(p < 0.25, "packed score {p}");
        assert!(s > p);
    }

    #[test]
    fn spreadness_orders_the_figure3_legend() {
        // The Fig. 3 legend is sorted from most spread to most packed.
        let h = hydra();
        let legend: [&[usize]; 4] = [&[0, 1, 2, 3], &[2, 1, 0, 3], &[1, 3, 0, 2], &[3, 2, 1, 0]];
        let scores: Vec<f64> = legend
            .iter()
            .map(|o| spreadness(&h, &sig(o), 16).unwrap())
            .collect();
        for pair in scores.windows(2) {
            assert!(pair[0] >= pair[1], "scores must decrease: {scores:?}");
        }
    }

    #[test]
    fn representatives_pick_lowest_ring_cost() {
        let h = hydra();
        let reps = representatives(&h, 16).unwrap();
        // No two representatives share a mapping signature, and each has
        // the minimum ring cost of its class: e.g. the class of
        // {[1,3,0,2], [3,1,0,2], …} must be represented by ring cost 16
        // or 17, not 45.
        for rep in &reps {
            if rep.percentages[0] > 40.0 && rep.percentages[2] > 50.0 {
                assert!(
                    rep.ring_cost <= 17,
                    "class rep {} rc {}",
                    rep.order,
                    rep.ring_cost
                );
            }
        }
        let total_orders = 24;
        assert!(reps.len() < total_orders);
    }

    #[test]
    fn rank_orders_sorts_by_cost() {
        let h = hydra();
        // Cost = ring cost (as a stand-in for a simulated duration).
        let ranked = rank_orders_by_par(&h, 16, |sigma| {
            characterize_order(&h, sigma, 16).unwrap().ring_cost as f64
        })
        .unwrap();
        for pair in ranked.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        // The best-ranked representative has the globally smallest ring
        // cost among representatives.
        assert_eq!(ranked[0].1, ranked[0].0.ring_cost as f64);
    }

    #[test]
    fn ranking_is_byte_identical_to_a_stable_serial_sort() {
        let h = hydra();
        // A cost with deliberate ties (spreadness buckets) so the stable
        // tie-break is exercised, not just the values.
        let cost = |sigma: &Permutation| (spreadness(&h, sigma, 16).unwrap() * 4.0).round();
        let mut serial: Vec<(OrderCharacterization, f64)> = representatives(&h, 16)
            .unwrap()
            .into_iter()
            .map(|c| {
                let t = cost(&c.order);
                (c, t)
            })
            .collect();
        serial.sort_by(|a, b| a.1.total_cmp(&b.1));
        let parallel = rank_orders_by_par(&h, 16, cost).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.0, p.0);
            assert_eq!(s.1.to_bits(), p.1.to_bits());
        }
    }

    #[test]
    fn sweep_covers_grid_and_ranks_cells() {
        let h = hydra();
        let spec = SweepSpec {
            subcomm_sizes: vec![16, 64],
            payload_sizes: vec![1 << 14, 1 << 20, 1 << 26],
        };
        let cells = sweep(&h, &spec, |sigma, s, bytes| {
            spreadness(&h, sigma, s).unwrap() * bytes as f64
        })
        .unwrap();
        assert_eq!(cells.len(), 6);
        // Cells come in spec order and each holds all representatives of
        // its subcommunicator size, sorted by cost.
        let mut i = 0;
        for &s in &spec.subcomm_sizes {
            let n_reps = representatives(&h, s).unwrap().len();
            for &p in &spec.payload_sizes {
                assert_eq!(cells[i].subcomm_size, s);
                assert_eq!(cells[i].payload, p);
                assert_eq!(cells[i].ranked.len(), n_reps);
                assert_eq!(cells[i].stats.evaluated, n_reps as u64);
                assert_eq!(cells[i].stats.pruned, 0);
                assert_eq!(cells[i].best, cells[i].ranked[0]);
                for pair in cells[i].ranked.windows(2) {
                    assert!(pair[0].1 <= pair[1].1);
                }
                i += 1;
            }
        }
    }

    #[test]
    fn sweep_matches_pointwise_ranking() {
        let h = hydra();
        let spec = SweepSpec {
            subcomm_sizes: vec![16],
            payload_sizes: vec![1 << 20],
        };
        let cost_of =
            |sigma: &Permutation| characterize_order(&h, sigma, 16).unwrap().ring_cost as f64;
        let cells = sweep(&h, &spec, |sigma, _, _| cost_of(sigma)).unwrap();
        let direct = rank_orders_by_par(&h, 16, cost_of).unwrap();
        assert_eq!(cells[0].ranked, direct);
    }

    #[test]
    fn sweep_dedups_duplicate_axes() {
        let h = hydra();
        let evals = AtomicU64::new(0);
        let cost = |sigma: &Permutation, s: usize, bytes: u64| {
            evals.fetch_add(1, Ordering::Relaxed);
            spreadness(&h, sigma, s).unwrap() * bytes as f64
        };
        let spec = SweepSpec {
            subcomm_sizes: vec![16, 16, 64],
            payload_sizes: vec![1 << 14, 1 << 14],
        };
        let cells = sweep(&h, &spec, cost).unwrap();
        // Output shape still matches the spec…
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].subcomm_size, 16);
        assert_eq!(cells[5].subcomm_size, 64);
        // …duplicate positions are byte-identical clones…
        assert_eq!(cells[0].ranked, cells[1].ranked);
        assert_eq!(cells[0].ranked, cells[2].ranked);
        assert_eq!(cells[4].ranked, cells[5].ranked);
        // …and the work done matches the deduplicated 2×1 grid.
        let n16 = representatives(&h, 16).unwrap().len() as u64;
        let n64 = representatives(&h, 64).unwrap().len() as u64;
        assert_eq!(evals.load(Ordering::Relaxed), n16 + n64);
    }

    /// A cost with a matching admissible bound for branch-and-bound tests:
    /// cost = ring cost scaled by payload, bound = half of it (admissible
    /// but informative enough to prune).
    fn bb_cost(h: &Hierarchy) -> impl Fn(&Permutation, usize, u64) -> f64 + Sync + '_ {
        |sigma, s, bytes| {
            characterize_order(h, sigma, s).unwrap().ring_cost as f64 * (1.0 + bytes as f64)
        }
    }

    #[test]
    fn ladder_matches_exhaustive_and_prunes_on_the_tight_rung() {
        let h = hydra();
        let cost = bb_cost(&h);
        let prepares = AtomicU64::new(0);
        // prepare carries the exact cost; cheap is a weak admissible bound,
        // tight is the exact cost itself (the tightest admissible bound),
        // so every candidate the cheap rung admits but the incumbent beats
        // is pruned by the tight rung, never costed.
        let result = rank_orders_pruned_ladder(
            &h,
            16,
            |sigma| {
                prepares.fetch_add(1, Ordering::Relaxed);
                cost(sigma, 16, 1024)
            },
            |_, &exact: &f64| exact * 0.4,
            |_, &exact: &f64| exact,
            |_, &exact: &f64| exact,
        )
        .unwrap();
        let exhaustive = rank_orders_by_par(&h, 16, |sigma| cost(sigma, 16, 1024)).unwrap();
        assert_eq!(result.best.0, exhaustive[0].0);
        assert_eq!(result.best.1.to_bits(), exhaustive[0].1.to_bits());
        assert_eq!(result.best, result.ranked[0].clone());
        for pair in result.ranked.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        let n = representatives(&h, 16).unwrap().len() as u64;
        // prepare ran exactly once per candidate, pruned or not.
        assert_eq!(prepares.load(Ordering::Relaxed), n);
        assert_eq!(result.stats.candidates(), n);
        assert!(
            result.stats.tight_pruned > 0,
            "the exact tight rung must catch cheap-rung survivors: {:?}",
            result.stats
        );
        assert!(result.stats.tight_pruned <= result.stats.pruned);
    }

    #[test]
    fn single_rung_ladder_prunes_on_the_cheap_rung() {
        let h = hydra();
        let cost = bb_cost(&h);
        let result = rank_orders_pruned_ladder(
            &h,
            16,
            |_| (),
            |sigma, _| cost(sigma, 16, 1024) * 0.5,
            never_prunes,
            |sigma, _| cost(sigma, 16, 1024),
        )
        .unwrap();
        let exhaustive = rank_orders_by_par(&h, 16, |sigma| cost(sigma, 16, 1024)).unwrap();
        assert_eq!(result.best.0, exhaustive[0].0);
        assert_eq!(result.best.1.to_bits(), exhaustive[0].1.to_bits());
        assert!(result.stats.pruned > 0, "stats {:?}", result.stats);
        assert_eq!(result.stats.tight_pruned, 0);
        assert_eq!(result.stats.candidates(), exhaustive.len() as u64);
    }

    #[test]
    fn sweep_pruned_axis_matches_exhaustive_and_hoists_prepare() {
        let h = hydra();
        let cost = bb_cost(&h);
        let spec = SweepSpec {
            subcomm_sizes: vec![16, 64],
            payload_sizes: vec![1 << 10, 1 << 14, 1 << 20],
        };
        let exhaustive = sweep(&h, &spec, &cost).unwrap();
        let prepares = AtomicU64::new(0);
        // P captures the payload-independent factor of the toy cost
        // (`bb_cost` = ring_cost · (1 + bytes)); the per-cell closures
        // reconstruct cost(σ, s, payload) from it with the exact same
        // arithmetic, so winners must be bit-identical.
        let axis = sweep_pruned_axis(
            &h,
            &spec,
            |sigma: &Permutation, s| {
                prepares.fetch_add(1, Ordering::Relaxed);
                characterize_order(&h, sigma, s).unwrap().ring_cost as f64
            },
            |_, _, b, &r: &f64| r * (1.0 + b as f64) * 0.5,
            |_, _, b, &r: &f64| r * (1.0 + b as f64) * 0.9,
            |_, _, b, &r: &f64| r * (1.0 + b as f64),
        )
        .unwrap();
        assert_eq!(exhaustive.len(), axis.len());
        let mut total_pruned = 0;
        for (e, a) in exhaustive.iter().zip(&axis) {
            assert_eq!(e.subcomm_size, a.subcomm_size);
            assert_eq!(e.payload, a.payload);
            assert_eq!(e.best.0, a.best.0);
            assert_eq!(
                e.best.1.to_bits(),
                a.best.1.to_bits(),
                "axis sweep winner cost drifted at ({}, {})",
                e.subcomm_size,
                e.payload
            );
            assert_eq!(a.stats.candidates(), e.ranked.len() as u64);
            total_pruned += a.stats.pruned;
        }
        assert!(total_pruned > 0);
        let n: u64 = [16usize, 64]
            .iter()
            .map(|&s| representatives(&h, s).unwrap().len() as u64)
            .sum();
        // prepare ran once per (size, candidate) — NOT once per payload.
        assert_eq!(prepares.load(Ordering::Relaxed), n);
    }

    #[test]
    fn pruned_sweep_survives_ties_and_exact_bounds() {
        // A bound equal to the cost (the tightest admissible bound) plus a
        // cost with massive ties is the adversarial case for strict-vs-
        // non-strict pruning: the winner must still be the first minimal
        // candidate in enumeration order.
        let h = hydra();
        let tied = |sigma: &Permutation, s: usize, _: u64| {
            (spreadness(&h, sigma, s).unwrap() * 2.0).round()
        };
        let spec = SweepSpec {
            subcomm_sizes: vec![16],
            payload_sizes: vec![1],
        };
        let exhaustive = sweep(&h, &spec, tied).unwrap();
        let pruned = sweep_pruned_axis(
            &h,
            &spec,
            |_, _| (),
            |sigma, s, b, _| tied(sigma, s, b),
            |sigma, s, b, _| tied(sigma, s, b),
            |sigma, s, b, _| tied(sigma, s, b),
        )
        .unwrap();
        assert_eq!(exhaustive[0].best.0, pruned[0].best.0);
        assert_eq!(exhaustive[0].best.1.to_bits(), pruned[0].best.1.to_bits());
    }
}
