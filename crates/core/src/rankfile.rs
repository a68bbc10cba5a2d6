//! Rankfile emission and parsing (§3.2, second reordering method).
//!
//! A rankfile tells the launcher on which core each `MPI_COMM_WORLD` rank
//! must be placed, making the reordering transparent to the application.
//! We use the OpenMPI-style syntax:
//!
//! ```text
//! rank 0=node0 slot=0
//! rank 1=node0 slot=4
//! ```
//!
//! where `slot` is the physical core id within the node.

use crate::decompose::RankReordering;
use crate::error::Error;
use crate::hierarchy::Hierarchy;
use crate::permutation::Permutation;
use std::fmt::Write as _;

/// One rankfile entry: `rank <rank>=<host> slot=<core>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankfileEntry {
    /// The `MPI_COMM_WORLD` rank.
    pub rank: usize,
    /// Host (compute node) index.
    pub node: usize,
    /// Physical core id within the node.
    pub slot: usize,
}

/// A complete rankfile: one entry per world rank, ordered by rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rankfile {
    entries: Vec<RankfileEntry>,
}

impl Rankfile {
    /// Builds the rankfile realizing order `sigma` on `machine_h`, whose
    /// outermost level must be the compute-node level.
    ///
    /// World rank `r` is placed on the core whose *sequential* id is the
    /// `r`-th element of the enumeration (so that after launch, sequential
    /// hardware order corresponds to the reordered numbering).
    pub fn from_order(machine_h: &Hierarchy, sigma: &Permutation) -> Result<Self, Error> {
        let reordering = RankReordering::new(machine_h, sigma)?;
        Ok(Self::from_reordering(machine_h, &reordering))
    }

    /// Builds the rankfile from an existing reordering.
    pub fn from_reordering(machine_h: &Hierarchy, reordering: &RankReordering) -> Self {
        let cores_per_node = machine_h.size() / machine_h.level(0);
        let entries = (0..reordering.len())
            .map(|rank| {
                let core = reordering.old_rank(rank);
                RankfileEntry {
                    rank,
                    node: core / cores_per_node,
                    slot: core % cores_per_node,
                }
            })
            .collect();
        Self { entries }
    }

    /// The entries, ordered by rank.
    pub fn entries(&self) -> &[RankfileEntry] {
        &self.entries
    }

    /// Renders the OpenMPI-style text form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "rank {}=node{} slot={}", e.rank, e.node, e.slot);
        }
        out
    }

    /// Parses the text form produced by [`render`](Self::render).
    /// Blank lines and `#` comments are ignored; entries may appear in any
    /// order but must cover ranks `0..n` exactly once.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse_err = |message: String| Error::Parse {
                message: format!("line {}: {message}", lineno + 1),
            };
            let rest = line
                .strip_prefix("rank ")
                .ok_or_else(|| parse_err("expected `rank `".into()))?;
            let (rank_str, rest) = rest
                .split_once('=')
                .ok_or_else(|| parse_err("expected `=`".into()))?;
            let (host, slot_part) = rest
                .split_once(" slot=")
                .ok_or_else(|| parse_err("expected ` slot=`".into()))?;
            let rank = rank_str
                .trim()
                .parse::<usize>()
                .map_err(|e| parse_err(format!("bad rank: {e}")))?;
            let node = host
                .trim()
                .strip_prefix("node")
                .ok_or_else(|| parse_err("host must look like nodeN".into()))?
                .parse::<usize>()
                .map_err(|e| parse_err(format!("bad node: {e}")))?;
            let slot = slot_part
                .trim()
                .parse::<usize>()
                .map_err(|e| parse_err(format!("bad slot: {e}")))?;
            entries.push(RankfileEntry { rank, node, slot });
        }
        if entries.is_empty() {
            return Err(Error::Parse {
                message: "empty rankfile".into(),
            });
        }
        entries.sort_by_key(|e| e.rank);
        for (i, e) in entries.iter().enumerate() {
            if e.rank != i {
                return Err(Error::Parse {
                    message: format!("ranks are not a contiguous 0..n range (missing {i})"),
                });
            }
        }
        Ok(Self { entries })
    }

    /// Converts back to a world-sized placement vector: `placement[rank]`
    /// is the sequential core id for that rank.
    ///
    /// Fails if an entry names a node outside `0..machine_h.level(0)` or a
    /// slot outside the node's cores — a slot past the end would otherwise
    /// silently land on the next node.
    pub fn placement(&self, machine_h: &Hierarchy) -> Result<Vec<usize>, Error> {
        let nodes = machine_h.level(0);
        let cores_per_node = machine_h.size() / nodes;
        self.entries
            .iter()
            .map(|e| {
                let out_of_range = |what: &str, value: usize, limit: usize| Error::Parse {
                    message: format!(
                        "rank {}: {what} {value} out of range (machine has {limit})",
                        e.rank
                    ),
                };
                if e.node >= nodes {
                    return Err(out_of_range("node", e.node, nodes));
                }
                if e.slot >= cores_per_node {
                    return Err(out_of_range("slot", e.slot, cores_per_node));
                }
                // Both in range, so the id is below `machine_h.size()`,
                // which fits in usize: the arithmetic cannot overflow.
                Ok(e.node * cores_per_node + e.slot)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h224() -> Hierarchy {
        Hierarchy::new(vec![2, 2, 4]).unwrap()
    }

    #[test]
    fn identity_rankfile_is_sequential() {
        let rf = Rankfile::from_order(&h224(), &Permutation::reversal(3)).unwrap();
        assert_eq!(
            rf.entries()[0],
            RankfileEntry {
                rank: 0,
                node: 0,
                slot: 0
            }
        );
        assert_eq!(
            rf.entries()[9],
            RankfileEntry {
                rank: 9,
                node: 1,
                slot: 1
            }
        );
        assert_eq!(
            rf.entries()[15],
            RankfileEntry {
                rank: 15,
                node: 1,
                slot: 7
            }
        );
    }

    #[test]
    fn order_012_rankfile_spreads_nodes() {
        // Order [0,1,2]: rank 0 → core 0, rank 1 → node 1 core 0.
        let sigma = Permutation::new(vec![0, 1, 2]).unwrap();
        let rf = Rankfile::from_order(&h224(), &sigma).unwrap();
        assert_eq!(
            rf.entries()[1],
            RankfileEntry {
                rank: 1,
                node: 1,
                slot: 0
            }
        );
        assert_eq!(
            rf.entries()[2],
            RankfileEntry {
                rank: 2,
                node: 0,
                slot: 4
            }
        );
    }

    #[test]
    fn render_parse_roundtrip() {
        let sigma = Permutation::new(vec![0, 2, 1]).unwrap();
        let rf = Rankfile::from_order(&h224(), &sigma).unwrap();
        let text = rf.render();
        assert!(text.starts_with("rank 0=node0 slot=0"));
        let parsed = Rankfile::parse(&text).unwrap();
        assert_eq!(parsed, rf);
    }

    #[test]
    fn parse_tolerates_comments_and_order() {
        let text = "# my rankfile\nrank 1=node0 slot=3\n\nrank 0=node1 slot=2\n";
        let rf = Rankfile::parse(text).unwrap();
        assert_eq!(
            rf.entries()[0],
            RankfileEntry {
                rank: 0,
                node: 1,
                slot: 2
            }
        );
        assert_eq!(
            rf.entries()[1],
            RankfileEntry {
                rank: 1,
                node: 0,
                slot: 3
            }
        );
    }

    #[test]
    fn parse_rejects_gaps_and_garbage() {
        assert!(Rankfile::parse("rank 1=node0 slot=0\n").is_err());
        assert!(Rankfile::parse("rank 0=host0 slot=0\n").is_err());
        assert!(Rankfile::parse("bogus\n").is_err());
        assert!(Rankfile::parse("").is_err());
    }

    #[test]
    fn placement_inverts_reordering() {
        let h = h224();
        for sigma in Permutation::all(3) {
            let reordering = RankReordering::new(&h, &sigma).unwrap();
            let rf = Rankfile::from_reordering(&h, &reordering);
            let placement = rf.placement(&h).unwrap();
            for (rank, &core) in placement.iter().enumerate() {
                assert_eq!(core, reordering.old_rank(rank));
            }
        }
    }

    #[test]
    fn placement_rejects_out_of_range_nodes_and_slots() {
        let h = h224();
        for text in [
            "rank 0=node18446744073709551615 slot=0\n",
            "rank 0=node2 slot=0\n",
            "rank 0=node0 slot=99\n",
            "rank 0=node0 slot=8\n",
            "rank 0=node1 slot=18446744073709551615\n",
        ] {
            let rf = Rankfile::parse(text).unwrap();
            assert!(rf.placement(&h).is_err(), "{text:?} must be rejected");
        }
        let last = Rankfile::parse("rank 0=node1 slot=7\n").unwrap();
        assert_eq!(last.placement(&h), Ok(vec![15]));
    }
}
