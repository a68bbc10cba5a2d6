//! Explicit placements: job layouts from distributions, `map_cpu` lists
//! and rankfiles.
//!
//! A [`JobLayout`] is the launcher's end product: `placement[rank]` is the
//! global core id (sequential resource id of the machine hierarchy) that
//! MPI rank is bound to. Layouts from all three sources — a
//! `--distribution` policy, a `--cpu-bind=map_cpu:<list>` list applied on
//! every node (§3.4's Algorithm 3 output), or a rankfile — are
//! interchangeable downstream.

use crate::distribution::Distribution;
use mre_core::core_select::map_cpu_list;
use mre_core::rankfile::Rankfile;
use mre_core::{Error, Hierarchy, Permutation, RankReordering};

/// A complete process-to-core binding for one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobLayout {
    placement: Vec<usize>,
}

impl JobLayout {
    /// Builds a layout directly from a placement vector (rank → core).
    ///
    /// Core ids must be distinct.
    pub fn from_placement(placement: Vec<usize>) -> Result<Self, Error> {
        let mut seen = std::collections::HashSet::with_capacity(placement.len());
        for &core in &placement {
            if !seen.insert(core) {
                return Err(Error::Parse {
                    message: format!("core {core} bound twice"),
                });
            }
        }
        Ok(Self { placement })
    }

    /// Layout of a full-machine job under a `--distribution` policy:
    /// equivalent to the policy's enumeration order.
    pub fn from_distribution(machine: &Hierarchy, dist: Distribution) -> Result<Self, Error> {
        let order = dist.to_order(machine)?;
        Self::from_order(machine, &order)
    }

    /// Layout of a full-machine job under an arbitrary enumeration order
    /// (the paper's rank-reordering applied at launch time, e.g. via a
    /// rankfile).
    pub fn from_order(machine: &Hierarchy, sigma: &Permutation) -> Result<Self, Error> {
        let reordering = RankReordering::new(machine, sigma)?;
        // Rank r runs on the r-th core of the enumeration.
        Ok(Self {
            placement: reordering.inverse().to_vec(),
        })
    }

    /// Layout of a partial-node job from a per-node `map_cpu` core list
    /// (Slurm applies the same list on every node and distributes ranks
    /// over nodes in blocks): rank `r` = node `r / n`, list slot `r % n`.
    pub fn from_map_cpu(
        nodes: usize,
        cores_per_node: usize,
        list: &[usize],
    ) -> Result<Self, Error> {
        let n = list.len();
        if n == 0 || n > cores_per_node {
            return Err(Error::TooManyCores {
                requested: n,
                available: cores_per_node,
            });
        }
        if let Some(&bad) = list.iter().find(|&&c| c >= cores_per_node) {
            return Err(Error::RankOutOfRange {
                rank: bad,
                size: cores_per_node,
            });
        }
        let mut placement = Vec::with_capacity(nodes * n);
        for node in 0..nodes {
            for &core in list {
                placement.push(node * cores_per_node + core);
            }
        }
        Self::from_placement(placement)
    }

    /// Layout from the paper's §3.4 pipeline: Algorithm 3 generates the
    /// per-node list for (node hierarchy, order, process count per node),
    /// then the list is applied on every node.
    pub fn from_core_selection(
        nodes: usize,
        node_h: &Hierarchy,
        sigma: &Permutation,
        procs_per_node: usize,
    ) -> Result<Self, Error> {
        let list = map_cpu_list(node_h, sigma, procs_per_node)?;
        Self::from_map_cpu(nodes, node_h.size(), &list)
    }

    /// Layout from a rankfile.
    pub fn from_rankfile(machine: &Hierarchy, rf: &Rankfile) -> Result<Self, Error> {
        Self::from_placement(rf.placement(machine)?)
    }

    /// Number of ranks.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.placement.len()
    }

    /// The core bound to `rank`.
    pub fn core_of(&self, rank: usize) -> usize {
        self.placement[rank]
    }

    /// The full placement vector (rank → core).
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// The cores used, sorted (the "core set" of the paper's Fig. 9
    /// grouping).
    pub fn core_set(&self) -> Vec<usize> {
        let mut set = self.placement.clone();
        set.sort_unstable();
        set
    }

    /// The members (cores in rank order) of each subcommunicator of
    /// `subcomm_size` consecutive ranks — the quotient-coloring of the
    /// paper, applied to this layout.
    pub fn subcomm_members(&self, subcomm_size: usize) -> Result<Vec<Vec<usize>>, Error> {
        if subcomm_size == 0 || !self.placement.len().is_multiple_of(subcomm_size) {
            return Err(Error::IndivisibleSubcomm {
                world: self.placement.len(),
                subcomm: subcomm_size,
            });
        }
        Ok(self
            .placement
            .chunks(subcomm_size)
            .map(|chunk| chunk.to_vec())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h224() -> Hierarchy {
        Hierarchy::new(vec![2, 2, 4]).unwrap()
    }

    #[test]
    fn block_block_is_identity_layout() {
        let layout = JobLayout::from_distribution(&h224(), Distribution::BlockBlock).unwrap();
        assert_eq!(layout.placement(), (0..16).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn cyclic_cyclic_round_robins_nodes_then_sockets() {
        let layout = JobLayout::from_distribution(&h224(), Distribution::CyclicCyclic).unwrap();
        // Rank 0 → core 0; rank 1 → node 1 core 0 (core 8); rank 2 →
        // node 0 socket 1 (core 4); rank 3 → core 12.
        assert_eq!(&layout.placement()[..4], &[0, 8, 4, 12]);
    }

    #[test]
    fn order_layout_matches_distribution_layout() {
        let h = h224();
        for dist in Distribution::all_block_cyclic() {
            let a = JobLayout::from_distribution(&h, dist).unwrap();
            let b = JobLayout::from_order(&h, &dist.to_order(&h).unwrap()).unwrap();
            assert_eq!(a, b, "{}", dist.spelling());
        }
    }

    #[test]
    fn map_cpu_applies_same_list_per_node() {
        // 2 nodes × 8 cores, list [0, 4, 1, 5].
        let layout = JobLayout::from_map_cpu(2, 8, &[0, 4, 1, 5]).unwrap();
        assert_eq!(layout.placement(), &[0, 4, 1, 5, 8, 12, 9, 13]);
        assert_eq!(layout.len(), 8);
    }

    #[test]
    fn map_cpu_validates() {
        assert!(JobLayout::from_map_cpu(2, 8, &[]).is_err());
        assert!(JobLayout::from_map_cpu(2, 8, &[0; 9]).is_err());
        assert!(JobLayout::from_map_cpu(2, 8, &[8]).is_err());
        assert!(JobLayout::from_map_cpu(2, 8, &[1, 1]).is_err());
    }

    #[test]
    fn core_selection_pipeline() {
        // Fig. 1 machine: per-node ⟦2,4⟧, 2 nodes, 4 procs/node,
        // socket-cyclic order.
        let node = Hierarchy::new(vec![2, 4]).unwrap();
        let sigma = Permutation::new(vec![0, 1]).unwrap();
        let layout = JobLayout::from_core_selection(2, &node, &sigma, 4).unwrap();
        assert_eq!(layout.placement(), &[0, 4, 1, 5, 8, 12, 9, 13]);
    }

    #[test]
    fn rankfile_layout_roundtrip() {
        let h = h224();
        let sigma = Permutation::new(vec![0, 2, 1]).unwrap();
        let rf = Rankfile::from_order(&h, &sigma).unwrap();
        let via_rankfile = JobLayout::from_rankfile(&h, &rf).unwrap();
        let via_order = JobLayout::from_order(&h, &sigma).unwrap();
        assert_eq!(via_rankfile, via_order);
    }

    #[test]
    fn rankfile_layout_rejects_out_of_range_entries() {
        // A huge node id once overflowed the core-id multiply; an oversized
        // slot landed on a core that does not exist (slot 99) or silently
        // on the next node (slot 8 of an 8-core node is node 1, core 0).
        let h = h224();
        for text in [
            "rank 0=node18446744073709551615 slot=0",
            "rank 0=node0 slot=99",
            "rank 0=node0 slot=8",
        ] {
            let rf = Rankfile::parse(text).unwrap();
            assert!(
                JobLayout::from_rankfile(&h, &rf).is_err(),
                "{text:?} must be rejected"
            );
        }
    }

    #[test]
    fn core_set_sorts_and_subcomms_chunk() {
        let layout = JobLayout::from_map_cpu(2, 8, &[4, 0]).unwrap();
        assert_eq!(layout.core_set(), vec![0, 4, 8, 12]);
        let subs = layout.subcomm_members(2).unwrap();
        assert_eq!(subs, vec![vec![4, 0], vec![12, 8]]);
        assert!(layout.subcomm_members(3).is_err());
    }

    #[test]
    fn duplicate_cores_rejected() {
        assert!(JobLayout::from_placement(vec![0, 1, 0]).is_err());
    }
}
