//! Collective algorithm selection and schedule generation.
//!
//! The paper leaves the algorithm choice to the MPI implementation ("we do
//! not force a specific algorithm"); implementations pick by message size
//! and communicator size. The `Auto` variants below mimic the usual
//! OpenMPI/MPICH decision shape: logarithmic algorithms for small
//! payloads (latency-bound), bandwidth-optimal linear/ring algorithms for
//! large ones.
//!
//! [`Collective`] pairs one of the paper's non-rooted collectives with its
//! algorithm and is the one home of its schedule generation: the §4.1
//! size rule, the `Auto` resolution and the dispatch to the
//! [`crate::schedules`] generators all live in [`Collective::schedule`].

use crate::schedules;
use mre_simnet::Schedule;

/// Alltoall algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlltoallAlg {
    /// Size-based choice (Bruck below the small-message threshold).
    #[default]
    Auto,
    /// `p−1` rounds, rank `i` exchanges with `(i±r) mod p` in round `r`.
    Pairwise,
    /// `⌈log₂ p⌉` rounds of aggregated blocks (latency-optimal).
    Bruck,
}

/// Allgather algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllgatherAlg {
    /// Size-based choice (Bruck small, ring large).
    #[default]
    Auto,
    /// `p−1` neighbor rounds; bandwidth-optimal, rank-order sensitive.
    Ring,
    /// `⌈log₂ p⌉` rounds of doubling blocks (any `p`).
    Bruck,
    /// `log₂ p` rounds, power-of-two communicators only.
    RecursiveDoubling,
}

/// Allreduce algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllreduceAlg {
    /// Size-based choice (recursive doubling small, ring large).
    #[default]
    Auto,
    /// `⌈log₂ p⌉` full-vector exchanges.
    RecursiveDoubling,
    /// Reduce-scatter + allgather rings: `2(p−1)` rounds of `n/p` blocks;
    /// bandwidth-optimal, rank-order sensitive.
    Ring,
}

/// Payload threshold (bytes per rank) below which latency-optimal
/// algorithms win; mirrors the few-dozen-KB defaults of real MPIs.
pub const SMALL_MESSAGE_BYTES: u64 = 32 * 1024;

impl AlltoallAlg {
    /// Short stable name used in trace span labels.
    pub fn label(self) -> &'static str {
        match self {
            AlltoallAlg::Auto => "auto",
            AlltoallAlg::Pairwise => "pairwise",
            AlltoallAlg::Bruck => "bruck",
        }
    }

    /// Resolves `Auto` for a given per-destination payload.
    pub fn resolve(self, bytes_per_pair: u64, comm_size: usize) -> AlltoallAlg {
        match self {
            AlltoallAlg::Auto => {
                if bytes_per_pair.saturating_mul(comm_size as u64) < SMALL_MESSAGE_BYTES {
                    AlltoallAlg::Bruck
                } else {
                    AlltoallAlg::Pairwise
                }
            }
            other => other,
        }
    }
}

impl AllgatherAlg {
    /// Short stable name used in trace span labels.
    pub fn label(self) -> &'static str {
        match self {
            AllgatherAlg::Auto => "auto",
            AllgatherAlg::Ring => "ring",
            AllgatherAlg::Bruck => "bruck",
            AllgatherAlg::RecursiveDoubling => "recursive-doubling",
        }
    }

    /// Resolves `Auto` for a given per-rank block size.
    pub fn resolve(self, block_bytes: u64, comm_size: usize) -> AllgatherAlg {
        match self {
            AllgatherAlg::Auto => {
                if block_bytes.saturating_mul(comm_size as u64) < SMALL_MESSAGE_BYTES {
                    AllgatherAlg::Bruck
                } else {
                    AllgatherAlg::Ring
                }
            }
            AllgatherAlg::RecursiveDoubling if !comm_size.is_power_of_two() => AllgatherAlg::Bruck,
            other => other,
        }
    }
}

impl AllreduceAlg {
    /// Short stable name used in trace span labels.
    pub fn label(self) -> &'static str {
        match self {
            AllreduceAlg::Auto => "auto",
            AllreduceAlg::RecursiveDoubling => "recursive-doubling",
            AllreduceAlg::Ring => "ring",
        }
    }

    /// Resolves `Auto` for a given vector size.
    pub fn resolve(self, total_bytes: u64, _comm_size: usize) -> AllreduceAlg {
        match self {
            AllreduceAlg::Auto => {
                if total_bytes < SMALL_MESSAGE_BYTES {
                    AllreduceAlg::RecursiveDoubling
                } else {
                    AllreduceAlg::Ring
                }
            }
            other => other,
        }
    }
}

/// A non-rooted collective the paper evaluates, with its algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// `MPI_Alltoall` with a selectable algorithm.
    Alltoall(AlltoallAlg),
    /// `MPI_Allreduce` with a selectable algorithm.
    Allreduce(AllreduceAlg),
    /// `MPI_Allgather` with a selectable algorithm.
    Allgather(AllgatherAlg),
}

impl Collective {
    /// The command-line names [`parse`](Self::parse) accepts.
    pub const NAMES: &'static str = "alltoall|allreduce|allgather";

    /// The `Auto` form of a command-line collective name (one of
    /// [`NAMES`](Self::NAMES)).
    pub fn parse(name: &str) -> Option<Collective> {
        match name {
            "alltoall" => Some(Collective::Alltoall(AlltoallAlg::Auto)),
            "allreduce" => Some(Collective::Allreduce(AllreduceAlg::Auto)),
            "allgather" => Some(Collective::Allgather(AllgatherAlg::Auto)),
            _ => None,
        }
    }

    /// The same collective with its algorithm left to the size
    /// thresholds.
    pub fn auto(self) -> Collective {
        match self {
            Collective::Alltoall(_) => Collective::Alltoall(AlltoallAlg::Auto),
            Collective::Allreduce(_) => Collective::Allreduce(AllreduceAlg::Auto),
            Collective::Allgather(_) => Collective::Allgather(AllgatherAlg::Auto),
        }
    }

    /// Short stable name of the algorithm (its trace span label).
    pub fn label(self) -> &'static str {
        match self {
            Collective::Alltoall(a) => a.label(),
            Collective::Allreduce(a) => a.label(),
            Collective::Allgather(a) => a.label(),
        }
    }

    /// Sizes one call moving `total_bytes` in all on a `comm_size`-process
    /// communicator, by the §4.1 rule: each process contributes
    /// `total_bytes / p`, and each Alltoall pair carries that divided by
    /// `p` again. Returns the concrete algorithm (`Auto` resolved for
    /// that size) and its unit payload — bytes per Alltoall pair, the
    /// Allreduce vector or the Allgather block; at least 1.
    pub fn resolve(self, total_bytes: u64, comm_size: usize) -> (Collective, u64) {
        let p = comm_size as u64;
        let per_process = total_bytes / p;
        match self {
            Collective::Alltoall(alg) => {
                let bytes = (per_process / p).max(1);
                (Collective::Alltoall(alg.resolve(bytes, comm_size)), bytes)
            }
            Collective::Allreduce(alg) => {
                let bytes = per_process.max(1);
                (Collective::Allreduce(alg.resolve(bytes, comm_size)), bytes)
            }
            Collective::Allgather(alg) => {
                let bytes = per_process.max(1);
                (Collective::Allgather(alg.resolve(bytes, comm_size)), bytes)
            }
        }
    }

    /// The schedule of one call moving `total_bytes` in all on the
    /// communicator `members` (its core list in rank order), on a fabric
    /// with `nics` node rails.
    ///
    /// Pairwise Alltoall rounds are merged in chunks of `nics`: the plain
    /// rounds are mutually independent, and under round-robin rail
    /// assignment each of them puts every crossing message on the same
    /// rail parity — one busy rail, `nics − 1` idle. The merged rounds
    /// load all rails (see [`schedules::alltoall_pairwise_railed`]).
    /// Ring-based collectives keep their shape: round `k+1` forwards data
    /// received in round `k`, so their rounds cannot merge.
    pub fn schedule(self, members: &[usize], total_bytes: u64, nics: usize) -> Schedule {
        let (alg, bytes) = self.resolve(total_bytes, members.len());
        match alg {
            Collective::Alltoall(AlltoallAlg::Pairwise) if nics > 1 => {
                schedules::alltoall_pairwise_railed(members, bytes, nics)
            }
            Collective::Alltoall(AlltoallAlg::Pairwise) => {
                schedules::alltoall_pairwise(members, bytes)
            }
            Collective::Alltoall(AlltoallAlg::Bruck) => schedules::alltoall_bruck(members, bytes),
            Collective::Allreduce(AllreduceAlg::RecursiveDoubling) => {
                schedules::allreduce_recursive_doubling(members, bytes)
            }
            Collective::Allreduce(AllreduceAlg::Ring) => schedules::allreduce_ring(members, bytes),
            Collective::Allgather(AllgatherAlg::Ring) => schedules::allgather_ring(members, bytes),
            Collective::Allgather(AllgatherAlg::Bruck) => {
                schedules::allgather_bruck(members, bytes)
            }
            Collective::Allgather(AllgatherAlg::RecursiveDoubling) => {
                schedules::allgather_recursive_doubling(members, bytes)
            }
            Collective::Alltoall(AlltoallAlg::Auto)
            | Collective::Allreduce(AllreduceAlg::Auto)
            | Collective::Allgather(AllgatherAlg::Auto) => {
                unreachable!("resolve() never returns Auto")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_alltoall_switches_on_size() {
        assert_eq!(AlltoallAlg::Auto.resolve(16, 16), AlltoallAlg::Bruck);
        assert_eq!(
            AlltoallAlg::Auto.resolve(1 << 20, 16),
            AlltoallAlg::Pairwise
        );
        assert_eq!(AlltoallAlg::Pairwise.resolve(16, 16), AlltoallAlg::Pairwise);
    }

    #[test]
    fn auto_allgather_switches_on_size() {
        assert_eq!(AllgatherAlg::Auto.resolve(8, 8), AllgatherAlg::Bruck);
        assert_eq!(AllgatherAlg::Auto.resolve(1 << 20, 8), AllgatherAlg::Ring);
    }

    #[test]
    fn recursive_doubling_falls_back_for_odd_sizes() {
        assert_eq!(
            AllgatherAlg::RecursiveDoubling.resolve(1, 6),
            AllgatherAlg::Bruck
        );
        assert_eq!(
            AllgatherAlg::RecursiveDoubling.resolve(1, 8),
            AllgatherAlg::RecursiveDoubling
        );
    }

    #[test]
    fn auto_allreduce_switches_on_size() {
        assert_eq!(
            AllreduceAlg::Auto.resolve(64, 8),
            AllreduceAlg::RecursiveDoubling
        );
        assert_eq!(AllreduceAlg::Auto.resolve(1 << 20, 8), AllreduceAlg::Ring);
    }

    #[test]
    fn parse_accepts_exactly_the_cli_names() {
        for name in Collective::NAMES.split('|') {
            let c = Collective::parse(name).unwrap();
            assert_eq!(c, c.auto(), "{name} parses to its Auto form");
        }
        assert_eq!(Collective::parse("alltoallv"), None);
        assert_eq!(
            Collective::Allgather(AllgatherAlg::Ring).auto(),
            Collective::Allgather(AllgatherAlg::Auto)
        );
    }

    #[test]
    fn resolve_applies_the_size_rule() {
        // 16 processes moving 4 MiB: 256 KiB each, 16 KiB per pair.
        let total = 4 << 20;
        assert_eq!(
            Collective::Alltoall(AlltoallAlg::Auto).resolve(total, 16),
            (Collective::Alltoall(AlltoallAlg::Pairwise), 16 << 10)
        );
        assert_eq!(
            Collective::Allreduce(AllreduceAlg::Auto).resolve(total, 16),
            (Collective::Allreduce(AllreduceAlg::Ring), 256 << 10)
        );
        assert_eq!(
            Collective::Allgather(AllgatherAlg::RecursiveDoubling).resolve(total, 6),
            (Collective::Allgather(AllgatherAlg::Bruck), total / 6)
        );
        // Payloads never round down to zero bytes.
        assert_eq!(
            Collective::Alltoall(AlltoallAlg::Auto).resolve(1, 16),
            (Collective::Alltoall(AlltoallAlg::Bruck), 1)
        );
    }

    #[test]
    fn schedule_dispatches_to_the_sized_generator() {
        let members: Vec<usize> = (0..8).collect();
        let total = 1 << 20;
        let pairwise = Collective::Alltoall(AlltoallAlg::Pairwise);
        assert_eq!(
            pairwise.schedule(&members, total, 1),
            schedules::alltoall_pairwise(&members, total / 64)
        );
        // Railed pairwise only on more than one node rail.
        assert_eq!(
            pairwise.schedule(&members, total, 2),
            schedules::alltoall_pairwise_railed(&members, total / 64, 2)
        );
        assert_eq!(
            Collective::Allreduce(AllreduceAlg::Ring).schedule(&members, total, 2),
            schedules::allreduce_ring(&members, total / 8)
        );
        assert_eq!(
            Collective::Allgather(AllgatherAlg::Auto).schedule(&members, 64, 1),
            schedules::allgather_bruck(&members, 8)
        );
    }
}
