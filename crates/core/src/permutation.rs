//! Level permutations (the paper's *orders*).
//!
//! A permutation σ of `0..k` defines in which order the `k` hierarchy levels
//! are enumerated: `σ(0)` is the **fastest-varying** level of the new
//! numbering. The paper writes orders like `[2, 0, 1]`, meaning σ(0)=2,
//! σ(1)=0, σ(2)=1, and displays them as `2-0-1`.
//!
//! For a hierarchy of depth `k` there are `k!` orders; [`Permutation::all`]
//! yields them in lexicographic order and [`heap_permutations`] via Heap's
//! algorithm (the generator the paper uses).

use crate::error::Error;
use std::fmt;

/// Deepest hierarchy whose `k!` orders are ever enumerated (`12! ≈ 4.8·10⁸`):
/// [`Permutation::all`] asserts it, and the class enumeration of
/// [`crate::metrics::equivalence_classes`] returns
/// [`Error::TooManyOrders`] beyond it.
pub const MAX_ENUMERATED_DEPTH: usize = 12;

/// A permutation σ of `0..k`, stored as the image vector `[σ(0), …, σ(k-1)]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Permutation(Vec<usize>);

impl Permutation {
    /// Validates and wraps an image vector.
    ///
    /// The vector must contain each of `0..len` exactly once.
    pub fn new(image: Vec<usize>) -> Result<Self, Error> {
        if image.is_empty() {
            return Err(Error::InvalidPermutation { reason: "empty" });
        }
        let n = image.len();
        let mut seen = vec![false; n];
        for &v in &image {
            if v >= n {
                return Err(Error::InvalidPermutation {
                    reason: "entry out of range",
                });
            }
            if seen[v] {
                return Err(Error::InvalidPermutation {
                    reason: "duplicate entry",
                });
            }
            seen[v] = true;
        }
        Ok(Self(image))
    }

    /// Wraps an image vector the crate already knows is a permutation,
    /// such as an order of the in-place lexicographic walk.
    pub(crate) fn from_valid(image: Vec<usize>) -> Self {
        debug_assert!(Self::new(image.clone()).is_ok(), "not a permutation");
        Self(image)
    }

    /// The identity permutation `[0, 1, …, n-1]`.
    pub fn identity(n: usize) -> Self {
        Self((0..n).collect())
    }

    /// The reversal `[n-1, …, 1, 0]`.
    ///
    /// Applied as an order, this is the permutation that reproduces the
    /// original sequential enumeration (the paper's `[2,1,0]` for depth 3):
    /// the innermost level varies fastest.
    pub fn reversal(n: usize) -> Self {
        Self((0..n).rev().collect())
    }

    /// Number of elements permuted.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// σ(i).
    pub fn apply(&self, i: usize) -> usize {
        self.0[i]
    }

    /// The image vector `[σ(0), …, σ(k-1)]`.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// The inverse permutation σ⁻¹.
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0usize; self.0.len()];
        for (i, &v) in self.0.iter().enumerate() {
            inv[v] = i;
        }
        Self(inv)
    }

    /// Composition `self ∘ other`: `(self ∘ other)(i) = self(other(i))`.
    pub fn compose(&self, other: &Self) -> Result<Self, Error> {
        if self.len() != other.len() {
            return Err(Error::InvalidPermutation {
                reason: "composition length mismatch",
            });
        }
        Ok(Self(other.0.iter().map(|&i| self.0[i]).collect()))
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.0.iter().enumerate().all(|(i, &v)| i == v)
    }

    /// Parses the paper's notation: `"2-0-1"`, also accepting `"2,0,1"` and
    /// `"[2, 0, 1]"`.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let trimmed = text.trim().trim_start_matches('[').trim_end_matches(']');
        let sep = if trimmed.contains('-') { '-' } else { ',' };
        let image = trimmed
            .split(sep)
            .map(|part| {
                part.trim().parse::<usize>().map_err(|e| Error::Parse {
                    message: format!("bad permutation entry {part:?}: {e}"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(image)
    }

    /// All `n!` permutations of `0..n` in lexicographic order.
    ///
    /// Intended for the small `n` of hierarchy depths (the paper never
    /// exceeds 6); `n` is capped at [`MAX_ENUMERATED_DEPTH`] to avoid
    /// accidental explosions.
    pub fn all(n: usize) -> Vec<Self> {
        assert!(
            n <= MAX_ENUMERATED_DEPTH,
            "refusing to materialize {n}! permutations"
        );
        let mut result = Vec::new();
        let mut current: Vec<usize> = (0..n).collect();
        loop {
            result.push(Self(current.clone()));
            if !next_lexicographic(&mut current) {
                break;
            }
        }
        result
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Advances `perm` to the next permutation in lexicographic order, returning
/// `false` when `perm` was the last one.
pub(crate) fn next_lexicographic(perm: &mut [usize]) -> bool {
    if perm.len() < 2 {
        return false;
    }
    // Find the longest non-increasing suffix.
    let mut i = perm.len() - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    // Find rightmost element greater than the pivot.
    let pivot = i - 1;
    let mut j = perm.len() - 1;
    while perm[j] <= perm[pivot] {
        j -= 1;
    }
    perm.swap(pivot, j);
    perm[i..].reverse();
    true
}

/// Iterator over all permutations of `0..n` generated by Heap's algorithm
/// (Heap, 1963) — the generator cited by the paper (§4). Each step swaps a
/// single pair, so successive permutations differ by one transposition.
#[derive(Debug, Clone)]
pub struct HeapPermutations {
    current: Vec<usize>,
    counters: Vec<usize>,
    depth: usize,
    started: bool,
    done: bool,
}

impl HeapPermutations {
    /// Creates the iterator for permutations of `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            current: (0..n).collect(),
            counters: vec![0; n],
            depth: 0,
            started: false,
            done: n == 0,
        }
    }
}

impl Iterator for HeapPermutations {
    type Item = Permutation;

    fn next(&mut self) -> Option<Permutation> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(Permutation(self.current.clone()));
        }
        // Iterative Heap's algorithm.
        let n = self.current.len();
        while self.depth < n {
            if self.counters[self.depth] < self.depth {
                if self.depth.is_multiple_of(2) {
                    self.current.swap(0, self.depth);
                } else {
                    let c = self.counters[self.depth];
                    self.current.swap(c, self.depth);
                }
                self.counters[self.depth] += 1;
                self.depth = 0;
                return Some(Permutation(self.current.clone()));
            } else {
                self.counters[self.depth] = 0;
                self.depth += 1;
            }
        }
        self.done = true;
        None
    }
}

/// Convenience constructor for [`HeapPermutations`].
pub fn heap_permutations(n: usize) -> HeapPermutations {
    HeapPermutations::new(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn validates_bijection() {
        assert!(Permutation::new(vec![0, 1, 2]).is_ok());
        assert!(Permutation::new(vec![2, 0, 1]).is_ok());
        assert!(Permutation::new(vec![0, 0, 1]).is_err());
        assert!(Permutation::new(vec![0, 3, 1]).is_err());
        assert!(Permutation::new(vec![]).is_err());
    }

    #[test]
    fn identity_and_reversal() {
        assert_eq!(Permutation::identity(3).as_slice(), &[0, 1, 2]);
        assert_eq!(Permutation::reversal(3).as_slice(), &[2, 1, 0]);
        assert!(Permutation::identity(4).is_identity());
        assert!(!Permutation::reversal(4).is_identity());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::new(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        assert!(p.compose(&inv).unwrap().is_identity());
        assert!(inv.compose(&p).unwrap().is_identity());
    }

    #[test]
    fn compose_applies_right_then_left() {
        let p = Permutation::new(vec![1, 2, 0]).unwrap();
        let q = Permutation::new(vec![2, 1, 0]).unwrap();
        let pq = p.compose(&q).unwrap();
        // (p ∘ q)(0) = p(q(0)) = p(2) = 0
        assert_eq!(pq.apply(0), 0);
        assert_eq!(pq.apply(1), 2);
        assert_eq!(pq.apply(2), 1);
    }

    #[test]
    fn compose_length_mismatch_errors() {
        let p = Permutation::identity(3);
        let q = Permutation::identity(4);
        assert!(p.compose(&q).is_err());
    }

    #[test]
    fn display_uses_paper_notation() {
        let p = Permutation::new(vec![2, 0, 1]).unwrap();
        assert_eq!(p.to_string(), "2-0-1");
    }

    #[test]
    fn parse_accepts_paper_notation() {
        for text in ["2-0-1", "2,0,1", "[2, 0, 1]"] {
            let p = Permutation::parse(text).unwrap();
            assert_eq!(p.as_slice(), &[2, 0, 1], "text {text:?}");
        }
        assert!(Permutation::parse("2-0-0").is_err());
        assert!(Permutation::parse("").is_err());
    }

    #[test]
    fn all_generates_factorial_distinct() {
        for n in 1..=6 {
            let perms = Permutation::all(n);
            let expected: usize = (1..=n).product();
            assert_eq!(perms.len(), expected);
            let distinct: HashSet<_> = perms.iter().cloned().collect();
            assert_eq!(distinct.len(), expected);
        }
    }

    #[test]
    fn all_is_lexicographically_sorted() {
        let perms = Permutation::all(4);
        for pair in perms.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert_eq!(perms[0].as_slice(), &[0, 1, 2, 3]);
        assert_eq!(perms.last().unwrap().as_slice(), &[3, 2, 1, 0]);
    }

    #[test]
    fn heap_matches_all_as_sets() {
        for n in 1..=6 {
            let heap: HashSet<_> = heap_permutations(n).collect();
            let lex: HashSet<_> = Permutation::all(n).into_iter().collect();
            assert_eq!(heap, lex, "n = {n}");
        }
    }

    #[test]
    fn heap_successors_differ_by_one_swap() {
        let perms: Vec<_> = heap_permutations(5).collect();
        for pair in perms.windows(2) {
            let differing = pair[0]
                .as_slice()
                .iter()
                .zip(pair[1].as_slice())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(differing, 2, "Heap steps must be single transpositions");
        }
    }

    #[test]
    fn heap_of_zero_is_empty() {
        assert_eq!(heap_permutations(0).count(), 0);
    }

    #[test]
    fn heap_of_one_is_singleton() {
        let perms: Vec<_> = heap_permutations(1).collect();
        assert_eq!(perms.len(), 1);
        assert_eq!(perms[0].as_slice(), &[0]);
    }
}
