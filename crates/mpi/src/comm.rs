//! Communicators: rank groups with isolated message contexts.
//!
//! A [`Comm`] is an ordered group of world ranks with a private context id:
//! traffic of different communicators never interferes (the context enters
//! every message tag). `split(color, key)` reproduces `MPI_Comm_split` —
//! including the paper's rank-reordering method 1, which is a split of the
//! world with `color = 0` and `key = reordered rank`.
//!
//! All members of a communicator must call its collective operations in
//! the same order (the usual MPI requirement); the per-communicator
//! operation counter that isolates successive collectives relies on it.

use crate::payload::Payload;
use crate::runtime::{Proc, Tag};
use mre_trace::{EventKind, SpanGuard};
use std::cell::Cell;
use std::sync::Arc;

/// A communicator handle, local to one rank's thread.
pub struct Comm<'p> {
    pub(crate) proc_: &'p Proc,
    /// World rank of every member, indexed by communicator rank.
    ranks: Arc<Vec<usize>>,
    /// This process's rank within the communicator.
    rank: usize,
    /// Context id: globally unique per communicator.
    ctx: u64,
    /// Per-communicator operation counter (kept in lockstep by the
    /// same-order-of-collectives requirement).
    seq: Cell<u64>,
}

impl<'p> Comm<'p> {
    /// The world communicator: all ranks, identity order, context 0.
    pub fn world(proc_: &'p Proc) -> Self {
        Self {
            proc_,
            ranks: Arc::new((0..proc_.world_size()).collect()),
            rank: proc_.world_rank(),
            ctx: 0,
            seq: Cell::new(0),
        }
    }

    /// This process's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The communicator's context id.
    pub fn context(&self) -> u64 {
        self.ctx
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.ranks[r]
    }

    /// All members' world ranks, indexed by communicator rank.
    pub fn world_ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Opens a wall-clock span covering one collective invocation, when
    /// this rank runs with a recorder attached (`None` — one branch —
    /// otherwise).
    /// Under `run_instrumented` with metrics attached, also counts the
    /// invocation per algorithm (`mpi.collective.<name>`).
    pub(crate) fn collective_span(&self, name: String) -> Option<SpanGuard<'p>> {
        if let Some(m) = self.proc_.metrics() {
            m.counter_add(&format!("mpi.collective.{name}"), 1);
        }
        self.proc_.recorder().map(|rec| {
            let mut span = rec.span(name, EventKind::Collective);
            span.arg("comm_size", self.size().to_string());
            span.arg("ctx", self.ctx.to_string());
            span
        })
    }

    /// Allocates the tag for the next collective operation.
    pub(crate) fn next_tag(&self) -> Tag {
        let tag = self.seq.get();
        self.seq.set(tag + 1);
        Tag { ctx: self.ctx, tag }
    }

    /// Point-to-point send to a *communicator* rank under a caller-chosen
    /// tag number (namespaced by this communicator's context).
    pub fn send<T: Payload>(&self, dst: usize, tag: u64, value: T) {
        self.proc_.send(
            self.ranks[dst],
            Tag {
                ctx: self.ctx,
                tag: user_tag(tag),
            },
            value,
        );
    }

    /// Point-to-point receive from a *communicator* rank.
    pub fn recv<T: Payload>(&self, src: usize, tag: u64) -> T {
        self.proc_.recv(
            self.ranks[src],
            Tag {
                ctx: self.ctx,
                tag: user_tag(tag),
            },
        )
    }

    /// Combined exchange with communicator ranks (see
    /// [`Proc::sendrecv`]).
    pub(crate) fn sendrecv_internal<T: Payload>(
        &self,
        dst: usize,
        src: usize,
        tag: Tag,
        value: T,
    ) -> T {
        self.proc_
            .sendrecv(self.ranks[dst], self.ranks[src], tag, value)
    }

    /// Splits the communicator: members with equal `color` form a new
    /// communicator, ordered by `(key, rank)`. A negative color returns
    /// `None` (the `MPI_UNDEFINED` idiom).
    ///
    /// The paper's first rank-reordering method is
    /// `world.split(0, reordered_rank)`.
    pub fn split(&self, color: i64, key: i64) -> Option<Comm<'p>> {
        // Gather everybody's (color, key); the split id (current op
        // counter) makes the child context unique and identical on all
        // members.
        let split_id = self.seq.get();
        let triples = self.allgather_pairs((color, key));
        if color < 0 {
            return None;
        }
        let mut members: Vec<(i64, usize)> = triples
            .iter()
            .enumerate()
            .filter(|(_, &(c, _))| c == color)
            .map(|(r, &(_, k))| (k, r))
            .collect();
        members.sort_unstable();
        let my_new_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("this rank has a non-negative color, so it is a member");
        let ranks: Vec<usize> = members.iter().map(|&(_, r)| self.ranks[r]).collect();
        let ctx = child_context(self.ctx, split_id, color as u64);
        Some(Comm {
            proc_: self.proc_,
            ranks: Arc::new(ranks),
            rank: my_new_rank,
            ctx,
            seq: Cell::new(0),
        })
    }

    /// Duplicates the communicator (same group and order, fresh context).
    pub fn dup(&self) -> Comm<'p> {
        let split_id = self.seq.get();
        // Burn one collective slot in lockstep so contexts agree.
        self.seq.set(split_id + 1);
        Comm {
            proc_: self.proc_,
            ranks: Arc::clone(&self.ranks),
            rank: self.rank,
            ctx: child_context(self.ctx, split_id, u64::MAX),
            seq: Cell::new(0),
        }
    }

    /// Ring allgather of one small pair per rank (used by `split`, before
    /// any child context exists).
    fn allgather_pairs(&self, mine: (i64, i64)) -> Vec<(i64, i64)> {
        let p = self.size();
        let tag = self.next_tag();
        let mut all = vec![(0i64, 0i64); p];
        all[self.rank] = mine;
        let right = (self.rank + 1) % p;
        let left = (self.rank + p - 1) % p;
        let mut carry_rank = self.rank;
        for _ in 0..p.saturating_sub(1) {
            let carried = all[carry_rank];
            let received: (usize, (i64, i64)) =
                self.sendrecv_internal(right, left, tag, (carry_rank, carried));
            all[received.0] = received.1;
            carry_rank = received.0;
        }
        all
    }
}

/// User p2p tags live in a high namespace so they never collide with the
/// collective operation counter.
fn user_tag(tag: u64) -> u64 {
    tag | (1 << 63)
}

/// Deterministic child context derivation (FNV-1a over the parent context,
/// split id and color). All members compute the same inputs, hence the
/// same context; distinct splits/colors map to distinct contexts with
/// overwhelming probability.
fn child_context(parent: u64, split_id: u64, color: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for word in [parent, split_id, color, 0x5eed] {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    }
    // Context 0 is reserved for the world.
    hash.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run;

    #[test]
    fn world_is_identity() {
        run(4, |p| {
            let world = Comm::world(p);
            assert_eq!(world.rank(), p.world_rank());
            assert_eq!(world.size(), 4);
            assert_eq!(world.world_ranks(), &[0, 1, 2, 3]);
        });
    }

    #[test]
    fn split_by_parity() {
        let results = run(6, |p| {
            let world = Comm::world(p);
            let color = (p.world_rank() % 2) as i64;
            let sub = world.split(color, p.world_rank() as i64).unwrap();
            (sub.rank(), sub.size(), sub.world_ranks().to_vec())
        });
        assert_eq!(results[0], (0, 3, vec![0, 2, 4]));
        assert_eq!(results[2], (1, 3, vec![0, 2, 4]));
        assert_eq!(results[1], (0, 3, vec![1, 3, 5]));
        assert_eq!(results[5], (2, 3, vec![1, 3, 5]));
    }

    #[test]
    fn split_with_reordering_key() {
        // The paper's method 1: color 0, key = reordered rank.
        let results = run(4, |p| {
            let world = Comm::world(p);
            let reordered = [2i64, 0, 3, 1][p.world_rank()];
            let c = world.split(0, reordered).unwrap();
            c.rank()
        });
        // world rank 1 has key 0 → new rank 0; world 3 → 1; world 0 → 2.
        assert_eq!(results, vec![2, 0, 3, 1]);
    }

    #[test]
    fn negative_color_is_undefined() {
        let results = run(4, |p| {
            let world = Comm::world(p);
            let color = if p.world_rank() < 2 { 0 } else { -1 };
            world.split(color, 0).map(|c| c.size())
        });
        assert_eq!(results, vec![Some(2), Some(2), None, None]);
    }

    #[test]
    fn contexts_differ_between_siblings_and_parent() {
        let results = run(4, |p| {
            let world = Comm::world(p);
            let sub = world.split((p.world_rank() % 2) as i64, 0).unwrap();
            let dup = world.dup();
            (world.context(), sub.context(), dup.context())
        });
        for (w, s, d) in &results {
            assert_ne!(w, s);
            assert_ne!(w, d);
            assert_ne!(s, d);
        }
        // The two color groups have different contexts.
        assert_ne!(results[0].1, results[1].1);
        // Members of the same group share the context.
        assert_eq!(results[0].1, results[2].1);
    }

    #[test]
    fn nested_split() {
        let results = run(8, |p| {
            let world = Comm::world(p);
            let half = world.split((p.world_rank() / 4) as i64, 0).unwrap();
            let quarter = half.split((half.rank() / 2) as i64, 0).unwrap();
            (quarter.size(), quarter.world_ranks().to_vec())
        });
        assert_eq!(results[0].1, vec![0, 1]);
        assert_eq!(results[3].1, vec![2, 3]);
        assert_eq!(results[6].1, vec![6, 7]);
    }

    #[test]
    fn p2p_within_subcommunicator() {
        let results = run(4, |p| {
            let world = Comm::world(p);
            let sub = world.split((p.world_rank() % 2) as i64, 0).unwrap();
            if sub.rank() == 0 {
                sub.send(1, 5, p.world_rank() * 10);
                0
            } else {
                sub.recv::<usize>(0, 5)
            }
        });
        // world 2 (sub rank 1 of even group) receives from world 0.
        assert_eq!(results[2], 0);
        // world 3 receives from world 1.
        assert_eq!(results[3], 10);
    }
}
