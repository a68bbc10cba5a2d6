//! Characterization metrics for orderings (§3.3 of the paper).
//!
//! Two independent metrics characterize how an order maps a
//! subcommunicator onto the machine:
//!
//! * **Ring cost** — the cost of sending a message around the communicator
//!   in rank order (`rank 0 → 1 → … → m−1`), where a hop inside the lowest
//!   hierarchy level costs 1 and each additional level crossed adds 1. Low
//!   ring cost ⇒ ranks are assigned sequentially (locality); high ⇒
//!   round-robin assignment.
//! * **Percentages of process pairs per level** — of all `C(m,2)` process
//!   pairs of the communicator, the percentage that communicate inside each
//!   hierarchy level (excluding pairs that fit in a smaller level). Entry 0
//!   is the lowest (innermost) level. High percentages in low entries ⇒
//!   *packed* mapping; high percentages in the last entry ⇒ *spread*.
//!
//! Both metrics take the communicator as a list of sequential core ids in
//! rank-in-communicator order, as produced by
//! [`crate::subcomm::subcommunicators`]. [`order_ring_cost`] computes the
//! ring cost of an order's communicator 0 in closed form instead.
//!
//! [`equivalence_classes`] groups the `k!` orders into
//! mapping-equivalence classes in one allocation-free pass over the
//! orders: on machines whose communicators are digit boxes (every
//! power-of-two machine) a class is a vector of per-level digit counts,
//! and no layout is built (DESIGN.md §7i).

use crate::error::Error;
use crate::hierarchy::Hierarchy;
use crate::permutation::{next_lexicographic, Permutation, MAX_ENUMERATED_DEPTH};
use crate::subcomm::{subcommunicators, ColorScheme, SubcommLayout};
use std::collections::BTreeMap;

/// Communication distance between two resources: `0` if equal, else
/// `k − j` where `j` is the outermost level at which their coordinates
/// differ (1 = same lowest level, `k` = crossing the outermost level).
///
/// ```
/// use mre_core::{Hierarchy, metrics};
/// let h = Hierarchy::new(vec![2, 2, 4]).unwrap();
/// assert_eq!(metrics::distance(&h, 0, 1), 1);  // same socket
/// assert_eq!(metrics::distance(&h, 0, 4), 2);  // same node, other socket
/// assert_eq!(metrics::distance(&h, 0, 8), 3);  // different node
/// assert_eq!(metrics::distance(&h, 5, 5), 0);
/// ```
pub fn distance(h: &Hierarchy, a: usize, b: usize) -> usize {
    match first_diff_level(h, a, b) {
        Some(j) => h.depth() - j,
        None => 0,
    }
}

/// The outermost level index at which the coordinates of `a` and `b`
/// differ, or `None` if `a == b`. Level `0` means the pair spans the
/// outermost level (e.g. different compute nodes).
pub fn first_diff_level(h: &Hierarchy, a: usize, b: usize) -> Option<usize> {
    if a == b {
        return None;
    }
    let strides = h.strides();
    strides.iter().position(|&s| a / s != b / s)
}

/// Ring cost of a communicator (§3.3): the sum of [`distance`] over
/// consecutive rank pairs `(p₀,p₁), (p₁,p₂), …, (p₍ₘ₋₂₎,p₍ₘ₋₁₎)`.
///
/// The paper's worked example: on `⟦2,2,4⟧` with 4-process communicators,
/// order `[0,1,2]` gives ring cost 9 and `[1,0,2]` gives 7.
pub fn ring_cost(h: &Hierarchy, members: &[usize]) -> usize {
    members
        .windows(2)
        .map(|pair| distance(h, pair[0], pair[1]))
        .sum()
}

/// Raw pair counts per level: entry `d` counts pairs at distance `d+1`
/// (entry 0 = inside the lowest level, entry `k−1` = crossing the
/// outermost level). The sum of all entries is `C(m,2)`.
///
/// Runs in `O(m·k + m log m)` by prefix-group counting instead of the
/// `O(m²·k)` pairwise scan: two members are within level `j` exactly when
/// their core ids agree after division by `strides[j]`, so after sorting
/// once, the pairs agreeing on a level prefix are runs of equal quotients,
/// and the pairs *first* differing at level `j` are the difference between
/// adjacent prefix counts. The original pairwise scan is kept in this
/// module's tests as the oracle `pair_counts_per_level_naive`.
pub fn pair_counts_per_level(h: &Hierarchy, members: &[usize]) -> Vec<usize> {
    let k = h.depth();
    let mut counts = vec![0usize; k];
    let m = members.len();
    if m < 2 {
        return counts;
    }
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    // `prev` = pairs agreeing on the level prefix 0..j (all C(m,2) pairs
    // for the empty prefix). Division by a stride is monotone, so equal
    // quotients form contiguous runs of the sorted list.
    let mut prev = m * (m - 1) / 2;
    for (j, &stride) in h.strides().iter().enumerate() {
        let mut same = 0usize;
        let mut run = 1usize;
        for pair in sorted.windows(2) {
            if pair[0] / stride == pair[1] / stride {
                run += 1;
            } else {
                same += run * (run - 1) / 2;
                run = 1;
            }
        }
        same += run * (run - 1) / 2;
        // Pairs first differing at level j sit at distance k − j.
        counts[k - 1 - j] = prev - same;
        prev = same;
    }
    // The innermost stride is 1: only duplicate members can still agree.
    debug_assert_eq!(prev, 0, "communicator members must be distinct");
    counts
}

/// The original `O(m²·k)` pairwise implementation of
/// [`pair_counts_per_level`], kept as the test-only correctness oracle.
#[cfg(test)]
fn pair_counts_per_level_naive(h: &Hierarchy, members: &[usize]) -> Vec<usize> {
    let k = h.depth();
    let mut counts = vec![0usize; k];
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            let d = distance(h, a, b);
            debug_assert!(d >= 1, "communicator members must be distinct");
            counts[d - 1] += 1;
        }
    }
    counts
}

/// Percentages of process pairs per level (§3.3): [`pair_counts_per_level`]
/// normalized to percent. Entries sum to 100 (up to rounding).
pub fn pairs_per_level(h: &Hierarchy, members: &[usize]) -> Vec<f64> {
    let counts = pair_counts_per_level(h, members);
    let total: usize = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts
        .iter()
        .map(|&c| 100.0 * c as f64 / total as f64)
        .collect()
}

/// The characterization of one order printed in the paper's figure legends:
/// ring cost and pairs-per-level percentages of the *first* subcommunicator.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderCharacterization {
    /// The order characterized.
    pub order: Permutation,
    /// Ring cost of communicator 0.
    pub ring_cost: usize,
    /// Pairs-per-level percentages of communicator 0 (entry 0 = lowest
    /// level).
    pub percentages: Vec<f64>,
}

impl OrderCharacterization {
    /// Formats like the paper's legends: `"1-3-0-2 (45 - 46.7, 0.0, 53.3, 0.0)"`.
    pub fn legend(&self) -> String {
        let pct = self
            .percentages
            .iter()
            .map(|p| format!("{p:.1}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{} ({} - {})", self.order, self.ring_cost, pct)
    }
}

/// Characterizes communicator 0 under `sigma` with subcommunicators of
/// `subcomm_size` (quotient coloring, as in the paper's legends). Only
/// communicator 0 is built, not the whole-world layout.
pub fn characterize_order(
    h: &Hierarchy,
    sigma: &Permutation,
    subcomm_size: usize,
) -> Result<OrderCharacterization, Error> {
    check_subcomm_size(h, subcomm_size)?;
    check_order_depth(h, sigma)?;
    let members = first_communicator(h, sigma.as_slice(), subcomm_size);
    Ok(OrderCharacterization {
        order: sigma.clone(),
        ring_cost: ring_cost(h, &members),
        percentages: pairs_per_level(h, &members),
    })
}

/// Communicator 0 under `order` (quotient coloring): the cores holding the
/// reordered ranks `0..s`, in rank order — the `members(0)` of
/// [`subcommunicators`] without building the other communicators.
fn first_communicator(h: &Hierarchy, order: &[usize], s: usize) -> Vec<usize> {
    let strides = h.strides();
    let mut digits = vec![0usize; order.len()];
    let mut members = Vec::with_capacity(s);
    let mut core = 0usize;
    for _ in 0..s {
        members.push(core);
        // Next reordered rank: level order[0] varies fastest.
        for (digit, &level) in digits.iter_mut().zip(order) {
            *digit += 1;
            core += strides[level];
            if *digit < h.level(level) {
                break;
            }
            core -= *digit * strides[level];
            *digit = 0;
        }
    }
    members
}

/// Characterization of communicator 0 of an already-built layout — lets
/// callers that also need the layout (or its [`mapping_signature`])
/// construct it once instead of once per metric.
pub fn characterize_layout(
    h: &Hierarchy,
    sigma: &Permutation,
    layout: &SubcommLayout,
) -> OrderCharacterization {
    let members = layout.members(0);
    OrderCharacterization {
        order: sigma.clone(),
        ring_cost: ring_cost(h, members),
        percentages: pairs_per_level(h, members),
    }
}

/// A canonical signature of the *resource mapping* of a layout: for every
/// communicator, the sorted set of cores it occupies; communicators sorted.
/// Orders with equal signatures map communicators to the same resources
/// (possibly exchanging which communicator sits where) — the paper calls
/// such orders *similar* (§3.3: `[2,0,1]` vs `[2,1,0]`).
///
/// Note this is deliberately insensitive to rank order *inside*
/// communicators; the ring cost distinguishes those.
pub fn mapping_signature(layout: &SubcommLayout) -> Vec<Vec<usize>> {
    let mut sig: Vec<Vec<usize>> = layout
        .comms()
        .iter()
        .map(|members| {
            let mut sorted = members.clone();
            sorted.sort_unstable();
            sorted
        })
        .collect();
    sig.sort();
    sig
}

/// Ring cost of communicator 0 under `sigma` with subcommunicators of
/// `subcomm_size` (quotient coloring), in closed form: equal to
/// [`ring_cost`] of the layout's communicator 0, without building it.
///
/// Let `P_t` be the product of the radices at positions `< t` of `sigma`.
/// A hop `n → n+1` between consecutive ranks of communicator 0 carries up
/// to position `t` (level `σ(t)`) when `P_t | n+1` but `P_{t+1} ∤ n+1`,
/// which `⌊(s−1)/P_t⌋ − ⌊(s−1)/P_{t+1}⌋` of the `s − 1` hops do. Such a hop
/// changes every digit at positions `≤ t` whose radix exceeds 1, so its
/// [`distance`] is `k − min{σ(i) : i ≤ t, r_σ(i) > 1}`.
///
/// ```
/// use mre_core::{Hierarchy, Permutation, metrics};
/// let h = Hierarchy::new(vec![2, 2, 4]).unwrap();
/// let sigma = Permutation::new(vec![1, 0, 2]).unwrap();
/// assert_eq!(metrics::order_ring_cost(&h, &sigma, 4).unwrap(), 7);
/// ```
pub fn order_ring_cost(
    h: &Hierarchy,
    sigma: &Permutation,
    subcomm_size: usize,
) -> Result<usize, Error> {
    check_subcomm_size(h, subcomm_size)?;
    check_order_depth(h, sigma)?;
    Ok(closed_form_ring_cost(
        h.levels(),
        sigma.as_slice(),
        subcomm_size,
    ))
}

/// [`order_ring_cost`] on raw level radices and an order's image.
fn closed_form_ring_cost(levels: &[usize], order: &[usize], s: usize) -> usize {
    let k = levels.len();
    let mut ring = 0;
    // ⌊(s−1)/P_t⌋: the hops that carry at least up to position t.
    let mut carried = s - 1;
    let mut product = 1;
    let mut outermost = k;
    for &level in order {
        if carried == 0 {
            break;
        }
        let r = levels[level];
        if r > 1 {
            outermost = outermost.min(level);
            product *= r;
            let next = (s - 1) / product;
            ring += (carried - next) * (k - outermost);
            carried = next;
        }
    }
    ring
}

fn check_order_depth(h: &Hierarchy, sigma: &Permutation) -> Result<(), Error> {
    if sigma.len() != h.depth() {
        return Err(Error::PermutationDepthMismatch {
            hierarchy: h.depth(),
            permutation: sigma.len(),
        });
    }
    Ok(())
}

fn check_subcomm_size(h: &Hierarchy, subcomm_size: usize) -> Result<(), Error> {
    let world = h.size();
    if subcomm_size == 0 || !world.is_multiple_of(subcomm_size) {
        return Err(Error::IndivisibleSubcomm {
            world,
            subcomm: subcomm_size,
        });
    }
    Ok(())
}

/// Groups all `k!` orders into equivalence classes of identical
/// [`mapping_signature`]s. Evaluating one representative per class avoids
/// redundant measurements (§3.3).
///
/// Classes are ordered by signature; members keep lexicographic order.
/// When every communicator of every order is a translate of one digit box
/// (each level spanned whole, by a leading block dividing its radix, or by
/// one digit), the classes follow from those per-level digit counts and no
/// layout is built; otherwise every order's layout is (DESIGN.md §7i).
/// Hierarchies deeper than [`MAX_ENUMERATED_DEPTH`] return
/// [`Error::TooManyOrders`].
pub fn equivalence_classes(
    h: &Hierarchy,
    subcomm_size: usize,
) -> Result<Vec<Vec<Permutation>>, Error> {
    fold_classes(h, subcomm_size, |class: &mut Vec<Permutation>, order, _| {
        class.push(Permutation::from_valid(order.to_vec()));
    })
}

/// Walks the `k!` orders of `h` once, in lexicographic order, and folds
/// each one with its closed-form ring cost (see [`order_ring_cost`]) into
/// the accumulator of its mapping-equivalence class. Returns the
/// accumulators in class order (ascending [`mapping_signature`]). This is
/// the one grouping behind [`equivalence_classes`] and
/// [`crate::order_search::representatives`].
///
/// With quotient coloring communicator 0 holds the reordered ranks
/// `0..s`. When, for every order, those ranks span a *digit box* — each
/// level whole (inner), a leading block `s/P` of it (partial, with `s/P`
/// dividing the radix) or a single digit (outer) — every communicator is
/// an aligned translate of communicator 0's box, so the per-level digit
/// counts fix the signature and the walk needs no layouts
/// ([`digit_count_key`]). Classes are then ordered by communicator 0's
/// sorted cores, the first entry of every signature. If any order's ranks
/// do not form such a box (mixed radices such as `⟦3,2,2⟧`), the whole
/// `(h, s)` falls back to building every order's layout and grouping by
/// its signature — the only place the `k!` layouts survive.
pub(crate) fn fold_classes<A: Default>(
    h: &Hierarchy,
    subcomm_size: usize,
    mut add: impl FnMut(&mut A, &[usize], usize),
) -> Result<Vec<A>, Error> {
    let depth = h.depth();
    if depth > MAX_ENUMERATED_DEPTH {
        return Err(Error::TooManyOrders {
            depth,
            max: MAX_ENUMERATED_DEPTH,
        });
    }
    check_subcomm_size(h, subcomm_size)?;
    match fold_by_digit_counts(h, subcomm_size, &mut add) {
        Some(classes) => Ok(classes),
        None => fold_by_layout_signature(h, subcomm_size, &mut add),
    }
}

/// Visits the `k!` orders of depth `k` in lexicographic order, in place on
/// one stack array, until `visit` fails.
fn walk_orders<E>(k: usize, mut visit: impl FnMut(&[usize]) -> Result<(), E>) -> Result<(), E> {
    let mut image = [0usize; MAX_ENUMERATED_DEPTH];
    let order = &mut image[..k];
    for (i, level) in order.iter_mut().enumerate() {
        *level = i;
    }
    loop {
        visit(order)?;
        if !next_lexicographic(order) {
            return Ok(());
        }
    }
}

/// The digit counts of communicator 0 under `order`, packed: bit `L` is set
/// when level `L` (radix > 1) is inner, and the bits from `k` up hold
/// `1 + L` of the partial level, if any (its count is `s` over the inner
/// radices' product). `None` when the reordered ranks `0..s` are no digit
/// box, or one whose translates straddle a digit wrap.
fn digit_count_key(levels: &[usize], order: &[usize], s: usize) -> Option<usize> {
    let mut inner = 0usize;
    let mut partial = 0usize;
    // The running product P of the levels spanned so far; it divides s.
    let mut product = 1usize;
    for &level in order {
        let r = levels[level];
        let rest = s / product;
        if rest.is_multiple_of(r) {
            if r > 1 {
                inner |= 1 << level;
            }
            product *= r;
        } else if rest > 1 {
            if !r.is_multiple_of(rest) {
                return None;
            }
            partial = level + 1;
            product = s;
        }
    }
    Some(partial << levels.len() | inner)
}

/// Communicator 0's cores in ascending order for a [`digit_count_key`]:
/// every `Σ d_L·stride_L` with `d_L` below level `L`'s count.
fn digit_box_cores(levels: &[usize], strides: &[usize], key: usize, s: usize) -> Vec<usize> {
    let k = levels.len();
    let mut counts: Vec<usize> = (0..k)
        .map(|level| {
            if key >> level & 1 == 1 {
                levels[level]
            } else {
                1
            }
        })
        .collect();
    let partial = key >> k;
    if partial > 0 {
        counts[partial - 1] = s / counts.iter().product::<usize>();
    }
    // Expanding the outermost level first keeps the list sorted.
    let mut cores = vec![0usize];
    for (&count, &stride) in counts.iter().zip(strides) {
        cores = cores
            .iter()
            .flat_map(|&base| (0..count).map(move |d| base + d * stride))
            .collect();
    }
    cores
}

/// [`fold_classes`] keyed by digit counts, or `None` when some order's
/// communicator 0 is no tiling digit box.
fn fold_by_digit_counts<A: Default>(
    h: &Hierarchy,
    s: usize,
    add: &mut impl FnMut(&mut A, &[usize], usize),
) -> Option<Vec<A>> {
    let levels = h.levels();
    let k = levels.len();
    // Class slot of every possible key, then (key, accumulator) per class
    // in discovery order.
    let mut slot_of = vec![usize::MAX; (k + 1) << k];
    let mut classes: Vec<(usize, A)> = Vec::new();
    walk_orders(k, |order| {
        let Some(key) = digit_count_key(levels, order, s) else {
            return Err(());
        };
        let slot = &mut slot_of[key];
        if *slot == usize::MAX {
            *slot = classes.len();
            classes.push((key, A::default()));
        }
        add(
            &mut classes[*slot].1,
            order,
            closed_form_ring_cost(levels, order, s),
        );
        Ok(())
    })
    .ok()?;
    let strides = h.strides();
    let mut sorted: Vec<(Vec<usize>, A)> = classes
        .into_iter()
        .map(|(key, acc)| (digit_box_cores(levels, &strides, key, s), acc))
        .collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    Some(sorted.into_iter().map(|(_, acc)| acc).collect())
}

/// [`fold_classes`] keyed by each order's [`mapping_signature`]: one layout
/// per order.
fn fold_by_layout_signature<A: Default>(
    h: &Hierarchy,
    s: usize,
    add: &mut impl FnMut(&mut A, &[usize], usize),
) -> Result<Vec<A>, Error> {
    let mut classes: BTreeMap<Vec<Vec<usize>>, A> = BTreeMap::new();
    walk_orders(h.depth(), |order| {
        let sigma = Permutation::from_valid(order.to_vec());
        let layout = subcommunicators(h, &sigma, s, ColorScheme::Quotient)?;
        add(
            classes.entry(mapping_signature(&layout)).or_default(),
            order,
            closed_form_ring_cost(h.levels(), order, s),
        );
        Ok::<(), Error>(())
    })?;
    Ok(classes.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(levels: &[usize]) -> Hierarchy {
        Hierarchy::new(levels.to_vec()).unwrap()
    }

    fn sig(order: &[usize]) -> Permutation {
        Permutation::new(order.to_vec()).unwrap()
    }

    /// Asserts a characterization against the paper's legend values
    /// (ring cost exact, percentages to the legend's 1-decimal rounding).
    fn assert_legend(
        hierarchy: &Hierarchy,
        order: &[usize],
        subcomm_size: usize,
        ring: usize,
        pct: &[f64],
    ) {
        let c = characterize_order(hierarchy, &sig(order), subcomm_size).unwrap();
        assert_eq!(c.ring_cost, ring, "ring cost of {:?}", order);
        assert_eq!(c.percentages.len(), pct.len());
        for (i, (&got, &want)) in c.percentages.iter().zip(pct).enumerate() {
            assert!(
                (got - want).abs() < 0.05,
                "order {order:?} level {i}: got {got:.3}, legend says {want}"
            );
        }
    }

    #[test]
    fn distance_levels_on_224() {
        let h = h(&[2, 2, 4]);
        assert_eq!(distance(&h, 0, 0), 0);
        assert_eq!(distance(&h, 0, 3), 1);
        assert_eq!(distance(&h, 0, 4), 2);
        assert_eq!(distance(&h, 3, 4), 2);
        assert_eq!(distance(&h, 7, 8), 3);
        assert_eq!(distance(&h, 0, 15), 3);
    }

    #[test]
    fn distance_is_symmetric() {
        let h = h(&[3, 2, 4]);
        for a in 0..h.size() {
            for b in 0..h.size() {
                assert_eq!(distance(&h, a, b), distance(&h, b, a));
            }
        }
    }

    #[test]
    fn first_diff_level_examples() {
        let h = h(&[2, 2, 4]);
        assert_eq!(first_diff_level(&h, 0, 8), Some(0));
        assert_eq!(first_diff_level(&h, 0, 4), Some(1));
        assert_eq!(first_diff_level(&h, 0, 1), Some(2));
        assert_eq!(first_diff_level(&h, 9, 9), None);
    }

    #[test]
    fn paper_worked_example_ring_costs() {
        // §3.3: on ⟦2,2,4⟧ with 4-process communicators, order [0,1,2] has
        // ring cost 9 and [1,0,2] has ring cost 7.
        let h224 = h(&[2, 2, 4]);
        assert_eq!(
            characterize_order(&h224, &sig(&[0, 1, 2]), 4)
                .unwrap()
                .ring_cost,
            9
        );
        assert_eq!(
            characterize_order(&h224, &sig(&[1, 0, 2]), 4)
                .unwrap()
                .ring_cost,
            7
        );
    }

    #[test]
    fn paper_worked_example_percentages() {
        // §3.3: order [2,1,0] → [100, 0, 0]; order [1,0,2] → [0, 33.3, 66.7].
        let h224 = h(&[2, 2, 4]);
        assert_legend(&h224, &[2, 1, 0], 4, 3, &[100.0, 0.0, 0.0]);
        let c = characterize_order(&h224, &sig(&[1, 0, 2]), 4).unwrap();
        assert!((c.percentages[0] - 0.0).abs() < 0.05);
        assert!((c.percentages[1] - 33.3).abs() < 0.05);
        assert!((c.percentages[2] - 66.7).abs() < 0.05);
    }

    #[test]
    fn figure3_legend_values() {
        // 16 Hydra nodes ⟦16,2,2,8⟧, 16 processes per communicator.
        let hydra = h(&[16, 2, 2, 8]);
        assert_legend(&hydra, &[0, 1, 2, 3], 16, 60, &[0.0, 0.0, 0.0, 100.0]);
        assert_legend(&hydra, &[2, 1, 0, 3], 16, 40, &[0.0, 6.7, 13.3, 80.0]);
        assert_legend(&hydra, &[1, 3, 0, 2], 16, 45, &[46.7, 0.0, 53.3, 0.0]);
        assert_legend(&hydra, &[1, 3, 2, 0], 16, 45, &[46.7, 0.0, 53.3, 0.0]);
        assert_legend(&hydra, &[3, 1, 0, 2], 16, 17, &[46.7, 0.0, 53.3, 0.0]);
        assert_legend(&hydra, &[3, 2, 1, 0], 16, 16, &[46.7, 53.3, 0.0, 0.0]);
    }

    #[test]
    fn figure4_legend_values() {
        // Same machine, 128 processes per communicator.
        let hydra = h(&[16, 2, 2, 8]);
        assert_legend(&hydra, &[0, 1, 2, 3], 128, 508, &[0.8, 1.6, 3.1, 94.5]);
        assert_legend(&hydra, &[2, 1, 0, 3], 128, 348, &[0.8, 1.6, 3.1, 94.5]);
        assert_legend(&hydra, &[1, 3, 0, 2], 128, 388, &[5.5, 0.0, 6.3, 88.2]);
        assert_legend(&hydra, &[3, 1, 0, 2], 128, 164, &[5.5, 0.0, 6.3, 88.2]);
        assert_legend(&hydra, &[1, 3, 2, 0], 128, 384, &[5.5, 6.3, 12.6, 75.6]);
        assert_legend(&hydra, &[3, 2, 1, 0], 128, 152, &[5.5, 6.3, 12.6, 75.6]);
    }

    #[test]
    fn figure5_legend_values() {
        // 16 LUMI nodes ⟦16,2,4,2,8⟧, 16 processes per communicator.
        let lumi = h(&[16, 2, 4, 2, 8]);
        assert_legend(
            &lumi,
            &[0, 1, 2, 3, 4],
            16,
            75,
            &[0.0, 0.0, 0.0, 0.0, 100.0],
        );
        assert_legend(
            &lumi,
            &[1, 2, 3, 0, 4],
            16,
            60,
            &[0.0, 6.7, 40.0, 53.3, 0.0],
        );
        assert_legend(
            &lumi,
            &[3, 2, 1, 4, 0],
            16,
            38,
            &[0.0, 6.7, 40.0, 53.3, 0.0],
        );
        assert_legend(
            &lumi,
            &[3, 4, 0, 1, 2],
            16,
            30,
            &[46.7, 53.3, 0.0, 0.0, 0.0],
        );
        assert_legend(
            &lumi,
            &[4, 3, 2, 1, 0],
            16,
            16,
            &[46.7, 53.3, 0.0, 0.0, 0.0],
        );
    }

    #[test]
    fn figure6_legend_values() {
        // Hydra, 64 processes per communicator (Allreduce figure).
        let hydra = h(&[16, 2, 2, 8]);
        assert_legend(&hydra, &[0, 1, 2, 3], 64, 252, &[0.0, 1.6, 3.2, 95.2]);
        assert_legend(&hydra, &[2, 1, 0, 3], 64, 172, &[0.0, 1.6, 3.2, 95.2]);
        assert_legend(&hydra, &[1, 3, 0, 2], 64, 192, &[11.1, 0.0, 12.7, 76.2]);
        assert_legend(&hydra, &[3, 1, 0, 2], 64, 80, &[11.1, 0.0, 12.7, 76.2]);
        assert_legend(&hydra, &[1, 3, 2, 0], 64, 190, &[11.1, 12.7, 25.4, 50.8]);
        assert_legend(&hydra, &[3, 2, 1, 0], 64, 74, &[11.1, 12.7, 25.4, 50.8]);
    }

    #[test]
    fn figure7_legend_values() {
        // LUMI, 256 processes per communicator (Allgather figure).
        let lumi = h(&[16, 2, 4, 2, 8]);
        assert_legend(
            &lumi,
            &[0, 1, 2, 3, 4],
            256,
            1275,
            &[0.0, 0.4, 2.4, 3.1, 94.1],
        );
        assert_legend(
            &lumi,
            &[1, 2, 3, 0, 4],
            256,
            1035,
            &[0.0, 0.4, 2.4, 3.1, 94.1],
        );
        assert_legend(
            &lumi,
            &[3, 4, 0, 1, 2],
            256,
            555,
            &[2.7, 3.1, 0.0, 0.0, 94.1],
        );
        assert_legend(
            &lumi,
            &[3, 2, 1, 4, 0],
            256,
            669,
            &[2.7, 3.1, 18.8, 25.1, 50.2],
        );
        assert_legend(
            &lumi,
            &[4, 3, 2, 1, 0],
            256,
            305,
            &[2.7, 3.1, 18.8, 25.1, 50.2],
        );
    }

    #[test]
    fn percentages_sum_to_100() {
        let hydra = h(&[16, 2, 2, 8]);
        for sigma in Permutation::all(4) {
            let c = characterize_order(&hydra, &sigma, 16).unwrap();
            let sum: f64 = c.percentages.iter().sum();
            assert!((sum - 100.0).abs() < 1e-9, "order {sigma}: sum {sum}");
        }
    }

    #[test]
    fn pair_counts_total_is_choose_2() {
        let hydra = h(&[16, 2, 2, 8]);
        let layout =
            subcommunicators(&hydra, &sig(&[0, 1, 2, 3]), 64, ColorScheme::Quotient).unwrap();
        let counts = pair_counts_per_level(&hydra, layout.members(0));
        assert_eq!(counts.iter().sum::<usize>(), 64 * 63 / 2);
    }

    #[test]
    fn ring_cost_bounds() {
        // m−1 ≤ ring cost ≤ (m−1)·k for an m-member communicator.
        let lumi = h(&[4, 2, 4, 2, 8]);
        let k = lumi.depth();
        for sigma in Permutation::all(k).into_iter().step_by(7) {
            let c = characterize_order(&lumi, &sigma, 16).unwrap();
            assert!(c.ring_cost >= 15);
            assert!(c.ring_cost <= 15 * k);
        }
    }

    #[test]
    fn legend_format_matches_paper_style() {
        let hydra = h(&[16, 2, 2, 8]);
        let c = characterize_order(&hydra, &sig(&[1, 3, 0, 2]), 16).unwrap();
        assert_eq!(c.legend(), "1-3-0-2 (45 - 46.7, 0.0, 53.3, 0.0)");
    }

    #[test]
    fn similar_orders_share_mapping_signature() {
        // §3.3: on ⟦2,2,4⟧ with 4-member comms, orders [2,0,1] and [2,1,0]
        // map communicators onto the same resource sets.
        let h224 = h(&[2, 2, 4]);
        let a = subcommunicators(&h224, &sig(&[2, 0, 1]), 4, ColorScheme::Quotient).unwrap();
        let b = subcommunicators(&h224, &sig(&[2, 1, 0]), 4, ColorScheme::Quotient).unwrap();
        assert_eq!(mapping_signature(&a), mapping_signature(&b));
        // …while [0,1,2] and [2,1,0] do not.
        let c = subcommunicators(&h224, &sig(&[0, 1, 2]), 4, ColorScheme::Quotient).unwrap();
        assert_ne!(mapping_signature(&a), mapping_signature(&c));
    }

    #[test]
    fn equivalence_classes_partition_all_orders() {
        let h224 = h(&[2, 2, 4]);
        let classes = equivalence_classes(&h224, 4).unwrap();
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, 6);
        // [0,1,2]/[1,0,2] share resources (one core per socket across the
        // machine) and [2,0,1]/[2,1,0] share (whole sockets); [0,2,1] and
        // [1,2,0] each stand alone.
        assert_eq!(classes.len(), 4);
        let mut sizes: Vec<usize> = classes.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 2, 2]);
    }

    #[test]
    fn fast_pair_counts_match_naive_oracle() {
        // Cross-check the O(m·k) prefix-group counting against the O(m²)
        // oracle on every figure configuration.
        for (levels, sizes) in [
            (vec![2usize, 2, 4], vec![2usize, 4, 8]),
            (vec![16, 2, 2, 8], vec![16, 64, 128]),
            (vec![16, 2, 4, 2, 8], vec![16, 256]),
        ] {
            let hier = h(&levels);
            for &s in &sizes {
                for sigma in Permutation::all(hier.depth()).into_iter().step_by(3) {
                    let layout = subcommunicators(&hier, &sigma, s, ColorScheme::Quotient).unwrap();
                    let members = layout.members(0);
                    assert_eq!(
                        pair_counts_per_level(&hier, members),
                        pair_counts_per_level_naive(&hier, members),
                        "levels {levels:?} subcomm {s} order {sigma}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_pair_counts_handle_unsorted_members() {
        // Modulo coloring yields non-contiguous, unsorted member lists.
        let hydra = h(&[16, 2, 2, 8]);
        let layout =
            subcommunicators(&hydra, &sig(&[1, 3, 0, 2]), 32, ColorScheme::Modulo).unwrap();
        for c in 0..layout.count() {
            let members = layout.members(c);
            assert_eq!(
                pair_counts_per_level(&hydra, members),
                pair_counts_per_level_naive(&hydra, members)
            );
        }
        // Arbitrary hierarchies (2–5 levels of size 1–6) and arbitrary
        // shuffled member sets that no layout produces.
        mre_rng::propcheck(64, 0xD0C0_000D, |rng| {
            let depth = rng.gen_range(2usize..6);
            let hier = h(&(0..depth)
                .map(|_| rng.gen_range(1usize..7))
                .collect::<Vec<_>>());
            let world = hier.size();
            let m = rng.gen_range(2usize..world.max(3)).min(world);
            let mut cores: Vec<usize> = (0..world).collect();
            rng.shuffle(&mut cores);
            let members = &cores[..m];
            assert_eq!(
                pair_counts_per_level(&hier, members),
                pair_counts_per_level_naive(&hier, members)
            );
        });
    }

    #[test]
    fn characterized_classes_match_equivalence_classes() {
        // Representatives line up with the classes one to one: each is the
        // (ring cost, order)-minimal member of its class, characterized as
        // characterize_order would.
        let hydra = h(&[16, 2, 2, 8]);
        for s in [16usize, 64] {
            let classes = equivalence_classes(&hydra, s).unwrap();
            let reps = crate::order_search::representatives(&hydra, s).unwrap();
            assert_eq!(classes.len(), reps.len());
            for (class, rep) in classes.iter().zip(&reps) {
                let best = class
                    .iter()
                    .map(|sigma| characterize_order(&hydra, sigma, s).unwrap())
                    .min_by(|a, b| {
                        a.ring_cost
                            .cmp(&b.ring_cost)
                            .then_with(|| a.order.cmp(&b.order))
                    })
                    .unwrap();
                assert_eq!(rep, &best);
            }
        }
    }

    /// The `k!`-layout grouping the class walk replaced: every order's
    /// layout built, grouped by signature, each class's representative the
    /// (ring cost, order)-minimal characterization.
    fn layout_oracle(
        hier: &Hierarchy,
        s: usize,
    ) -> (Vec<Vec<Permutation>>, Vec<OrderCharacterization>) {
        let mut classes: BTreeMap<Vec<Vec<usize>>, Vec<OrderCharacterization>> = BTreeMap::new();
        for sigma in Permutation::all(hier.depth()) {
            let layout = subcommunicators(hier, &sigma, s, ColorScheme::Quotient).unwrap();
            classes
                .entry(mapping_signature(&layout))
                .or_default()
                .push(characterize_layout(hier, &sigma, &layout));
        }
        let members = classes
            .values()
            .map(|class| class.iter().map(|c| c.order.clone()).collect())
            .collect();
        let reps = classes
            .into_values()
            .map(|class| {
                class
                    .into_iter()
                    .min_by(|a, b| {
                        a.ring_cost
                            .cmp(&b.ring_cost)
                            .then_with(|| a.order.cmp(&b.order))
                    })
                    .unwrap()
            })
            .collect();
        (members, reps)
    }

    /// Checks [`equivalence_classes`] and `representatives` against
    /// [`layout_oracle`] (same list, same order, same `f64` bits) for every
    /// divisor `s` in `sizes`, and that exactly the sizes in `fallback`
    /// leave the digit-count walk.
    fn assert_matches_layout_oracle(levels: &[usize], sizes: &[usize], fallback: &[usize]) {
        let hier = h(levels);
        for &s in sizes {
            assert!(hier.size().is_multiple_of(s));
            let fast = fold_by_digit_counts(&hier, s, &mut |_: &mut (), _, _| {}).is_some();
            assert_eq!(
                fast,
                !fallback.contains(&s),
                "levels {levels:?} s {s}: digit-count walk taken = {fast}"
            );
            let (classes, reps) = layout_oracle(&hier, s);
            assert_eq!(
                equivalence_classes(&hier, s).unwrap(),
                classes,
                "levels {levels:?} s {s}"
            );
            let got = crate::order_search::representatives(&hier, s).unwrap();
            assert_eq!(got.len(), reps.len(), "levels {levels:?} s {s}");
            for (g, want) in got.iter().zip(&reps) {
                assert_eq!(g.order, want.order, "levels {levels:?} s {s}");
                assert_eq!(g.ring_cost, want.ring_cost, "order {}", g.order);
                let bits = |c: &OrderCharacterization| {
                    c.percentages
                        .iter()
                        .map(|p| p.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(g), bits(want), "order {}", g.order);
            }
        }
    }

    fn divisors(n: usize) -> Vec<usize> {
        (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
    }

    #[test]
    fn class_walk_matches_layout_oracle_on_product_set_machines() {
        for levels in [
            &[16, 2, 2, 8][..],
            &[4, 2, 4, 2, 8],
            &[2; 6],
            &[4, 2, 4, 2, 8, 2],
            &[4, 2, 2, 2, 2, 2],
            &[2; 7],
            // Radix-1 levels always count as spanned whole.
            &[2, 1, 4, 2],
            &[1, 2, 1, 4],
        ] {
            let world: usize = levels.iter().product();
            assert_matches_layout_oracle(levels, &divisors(world), &[]);
        }
    }

    #[test]
    fn class_walk_matches_layout_oracle_on_2_pow_8() {
        // The oracle builds 40320 layouts per size (~1.3 s in the test
        // profile), so this keeps five of the nine divisors; 1, 4, 8 and
        // 256 run on ⟦2;6⟧ and ⟦2;7⟧ above.
        assert_matches_layout_oracle(&[2; 8], &[2, 16, 32, 64, 128], &[]);
    }

    #[test]
    fn class_walk_falls_back_to_layouts_on_mixed_radices() {
        for (levels, fallback) in [
            (&[3, 2, 2][..], &[2, 3, 4, 6][..]),
            (&[2, 3, 4], &[2, 3, 4, 6, 8, 12]),
            (&[6, 2, 3], &[2, 3, 4, 9, 12, 18]),
            (&[3, 1, 2, 2], &[2, 3, 4, 6]),
        ] {
            let world: usize = levels.iter().product();
            assert_matches_layout_oracle(levels, &divisors(world), fallback);
        }
    }

    #[test]
    fn too_deep_hierarchies_return_an_error_instead_of_panicking() {
        let deep = h(&[1; 13]);
        let err = Error::TooManyOrders { depth: 13, max: 12 };
        assert_eq!(equivalence_classes(&deep, 1), Err(err.clone()));
        assert_eq!(crate::order_search::representatives(&deep, 1), Err(err));
    }

    #[test]
    fn order_ring_cost_rejects_what_subcommunicators_rejects() {
        let h224 = h(&[2, 2, 4]);
        assert!(order_ring_cost(&h224, &sig(&[0, 1]), 4).is_err());
        assert!(order_ring_cost(&h224, &sig(&[0, 1, 2]), 3).is_err());
        assert!(order_ring_cost(&h224, &sig(&[0, 1, 2]), 0).is_err());
        assert_eq!(order_ring_cost(&h224, &sig(&[0, 1, 2]), 4), Ok(9));
    }

    #[test]
    fn characterize_layout_agrees_with_characterize_order() {
        // characterize_order builds communicator 0 alone; it must match
        // the whole layout's for every order and size.
        for levels in [&[2, 2, 4][..], &[3, 1, 2, 4], &[16, 2, 2, 8]] {
            let hier = h(levels);
            for s in divisors(hier.size()) {
                for sigma in Permutation::all(hier.depth()) {
                    let layout = subcommunicators(&hier, &sigma, s, ColorScheme::Quotient).unwrap();
                    assert_eq!(
                        first_communicator(&hier, sigma.as_slice(), s),
                        layout.members(0)
                    );
                    assert_eq!(
                        characterize_layout(&hier, &sigma, &layout),
                        characterize_order(&hier, &sigma, s).unwrap()
                    );
                }
            }
        }
        let h224 = h(&[2, 2, 4]);
        for (sigma, s) in [(sig(&[0, 1]), 4), (sig(&[0, 1, 2]), 3), (sig(&[0, 1]), 0)] {
            assert_eq!(
                characterize_order(&h224, &sigma, s),
                subcommunicators(&h224, &sigma, s, ColorScheme::Quotient)
                    .map(|layout| characterize_layout(&h224, &sigma, &layout))
            );
        }
    }

    #[test]
    fn ring_cost_distinguishes_orders_with_same_pairs() {
        // §3.3: the two metrics are independent — [1,3,0,2] and [3,1,0,2]
        // have identical percentages but different ring costs.
        let hydra = h(&[16, 2, 2, 8]);
        let a = characterize_order(&hydra, &sig(&[1, 3, 0, 2]), 16).unwrap();
        let b = characterize_order(&hydra, &sig(&[3, 1, 0, 2]), 16).unwrap();
        assert_eq!(a.percentages, b.percentages);
        assert_ne!(a.ring_cost, b.ring_cost);
    }

    #[test]
    fn empty_and_singleton_communicators() {
        let h224 = h(&[2, 2, 4]);
        assert_eq!(ring_cost(&h224, &[]), 0);
        assert_eq!(ring_cost(&h224, &[5]), 0);
        assert_eq!(pairs_per_level(&h224, &[5]), vec![0.0, 0.0, 0.0]);
    }
}
