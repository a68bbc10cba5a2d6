//! Per-level traffic accounting — the diagnostic view behind the paper's
//! *percentages of process pairs per level* metric, applied to actual
//! schedules: how many bytes does a collective push across each hierarchy
//! level, and which level's links are the busiest?
//!
//! Unlike the timing models this is exact bookkeeping, independent of the
//! contention discipline: useful for explaining *why* an order wins
//! (e.g. a packed alltoall moves zero bytes across NICs).

use crate::schedule::Schedule;
use mre_core::Hierarchy;

/// Traffic breakdown of a schedule over one hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// `bytes_crossing[j]` — total payload whose outermost coordinate
    /// difference is at level `j` (i.e. that crosses level `j`);
    /// `bytes_crossing[k]` counts local (same-core) copies.
    pub bytes_crossing: Vec<u64>,
    /// Peak bytes through a single directed uplink of each level within
    /// one round — the hot-spot measure.
    pub peak_link_bytes: Vec<u64>,
    /// Number of messages per crossing level (same indexing).
    pub message_counts: Vec<usize>,
    /// Sum of `bytes_crossing`, computed once at construction so the
    /// per-level fraction queries don't re-sum on every call.
    total_bytes: u64,
}

impl Utilization {
    /// Total payload bytes transferred by the schedule (including local
    /// copies) — the denominator of [`Self::crossing_fraction`] and of
    /// the time-sliced occupancy view in `mre-trace`.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Fraction of all transferred bytes that cross level `j`.
    pub fn crossing_fraction(&self, j: usize) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.bytes_crossing[j] as f64 / self.total_bytes as f64
        }
    }

    /// The outermost level carrying any traffic (`None` if all traffic is
    /// local).
    pub fn outermost_level_used(&self) -> Option<usize> {
        self.bytes_crossing
            .iter()
            .enumerate()
            .find(|&(j, &b)| j < self.bytes_crossing.len() - 1 && b > 0)
            .map(|(j, _)| j)
    }
}

/// Accounts the traffic of `schedule` on `hierarchy`.
pub fn utilization(hierarchy: &Hierarchy, schedule: &Schedule) -> Utilization {
    let k = hierarchy.depth();
    let strides = hierarchy.strides();
    let mut bytes_crossing = vec![0u64; k + 1];
    let mut message_counts = vec![0usize; k + 1];
    let mut peak_link_bytes = vec![0u64; k];
    // Per-round link loads (directed): (level, instance, up) → bytes.
    let mut per_round: std::collections::HashMap<(usize, usize, bool), u64> =
        std::collections::HashMap::new();
    for round in &schedule.rounds {
        per_round.clear();
        for m in &round.messages {
            let j = if m.src == m.dst {
                k
            } else {
                strides
                    .iter()
                    .position(|&s| m.src / s != m.dst / s)
                    .expect("distinct cores differ at some level")
            };
            bytes_crossing[j] += m.bytes;
            message_counts[j] += 1;
            if j < k {
                for (level, &stride) in strides.iter().enumerate().skip(j) {
                    *per_round.entry((level, m.src / stride, true)).or_insert(0) += m.bytes;
                    *per_round.entry((level, m.dst / stride, false)).or_insert(0) += m.bytes;
                }
            }
        }
        for (&(level, _, _), &bytes) in &per_round {
            peak_link_bytes[level] = peak_link_bytes[level].max(bytes);
        }
    }
    let total_bytes = bytes_crossing.iter().sum();
    Utilization {
        bytes_crossing,
        peak_link_bytes,
        message_counts,
        total_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Message, Round};
    use mre_core::Permutation;

    fn h224() -> Hierarchy {
        Hierarchy::new(vec![2, 2, 4]).unwrap()
    }

    #[test]
    fn classifies_crossing_levels() {
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 1, 10), // same socket (level 2)
            Message::new(0, 4, 20), // cross socket (level 1)
            Message::new(0, 8, 40), // cross node (level 0)
            Message::new(5, 5, 80), // local copy
        ])]);
        let u = utilization(&h224(), &s);
        assert_eq!(u.bytes_crossing, vec![40, 20, 10, 80]);
        assert_eq!(u.message_counts, vec![1, 1, 1, 1]);
        assert_eq!(u.outermost_level_used(), Some(0));
        assert_eq!(u.total_bytes(), 150);
        assert!((u.crossing_fraction(0) - 40.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn packed_alltoall_never_touches_the_nic() {
        // The §4.1.3 explanation of packed invariance, as bookkeeping:
        // a socket-packed communicator's alltoall crosses no node link.
        use mre_core::subcomm::{subcommunicators, ColorScheme};
        let hydra = Hierarchy::new(vec![16, 2, 2, 8]).unwrap();
        let packed = subcommunicators(
            &hydra,
            &Permutation::parse("3-2-1-0").unwrap(),
            16,
            ColorScheme::Quotient,
        )
        .unwrap();
        let members = packed.members(0);
        let sched = {
            let mut s = Schedule::new();
            for r in 1..members.len() {
                let mut round = Round::new();
                for (i, &src) in members.iter().enumerate() {
                    round.push(Message::new(src, members[(i + r) % members.len()], 100));
                }
                s.push(round);
            }
            s
        };
        let u = utilization(&hydra, &sched);
        assert_eq!(u.bytes_crossing[0], 0, "no node-level traffic");
        assert_eq!(u.bytes_crossing[1], 0, "no socket-level traffic either");
        assert_eq!(u.peak_link_bytes[0], 0);
        // Everything stays inside socket 0: the outermost crossing is the
        // fake-group level.
        assert_eq!(u.outermost_level_used(), Some(2));
        // The spread order pushes everything across nodes.
        let spread = subcommunicators(
            &hydra,
            &Permutation::parse("0-1-2-3").unwrap(),
            16,
            ColorScheme::Quotient,
        )
        .unwrap();
        let members = spread.members(0);
        let mut s = Schedule::new();
        let mut round = Round::new();
        for (i, &src) in members.iter().enumerate() {
            round.push(Message::new(src, members[(i + 1) % members.len()], 100));
        }
        s.push(round);
        let u = utilization(&hydra, &s);
        assert_eq!(u.bytes_crossing[0], 1600);
        assert_eq!(u.outermost_level_used(), Some(0));
    }

    #[test]
    fn peak_link_accounts_per_round_aggregation() {
        // Two messages out of the same core in one round aggregate on its
        // uplink; across rounds they do not.
        let one_round = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 10),
            Message::new(0, 12, 30),
        ])]);
        let u = utilization(&h224(), &one_round);
        assert_eq!(u.peak_link_bytes[2], 40); // core 0's uplink, both msgs
        let two_rounds = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 10)]),
            Round::with(vec![Message::new(0, 12, 30)]),
        ]);
        let u = utilization(&h224(), &two_rounds);
        assert_eq!(u.peak_link_bytes[2], 30);
    }

    #[test]
    fn empty_schedule() {
        let u = utilization(&h224(), &Schedule::new());
        assert_eq!(u.bytes_crossing, vec![0, 0, 0, 0]);
        assert_eq!(u.outermost_level_used(), None);
        assert_eq!(u.total_bytes(), 0);
        assert_eq!(u.crossing_fraction(0), 0.0);
    }
}
