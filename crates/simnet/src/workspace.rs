//! Reusable per-thread scratch for round costing — the allocation-free
//! steady state of the sweep loops (DESIGN.md §7h).
//!
//! Profiling a round ([`NetworkModel::round_profile`]) interns directed
//! rail-links, builds per-flow link lists and runs a contention solve;
//! bounding a round ([`NetworkModel::round_lower_bound`]) accumulates a
//! [`RoundLoad`] histogram while counting distinct active rail-links.
//! Both name a link by its dense id in the model's
//! [`RailLinkTable`](crate::rail::RailLinkTable) and track "seen this
//! round" in one epoch-stamped `LinkSlots` array instead of hashing link
//! tuples: a round starts by bumping a `u32` epoch, so clearing the
//! previous round's marks costs nothing. Done naively, every candidate
//! order costed by a sweep re-allocates all of that scratch thousands of
//! times. A
//! [`RoundWorkspace`] owns every one of those buffers and is reused via a
//! thread-local, so after a few warm-up rounds the buffers sit at their
//! high-water marks and the hot loops perform **zero heap allocations**
//! besides the returned profiles (asserted by the counting-allocator test
//! in `crates/bench/tests/costing_kernel.rs`).
//!
//! Reuse is exact, not approximate: interning order (first-seen), CSR
//! layout, the max-min freezing schedule and the load accumulation depend
//! only on the message sequence, never on buffer history or on the epoch,
//! so workspace-pooled results are **bit-identical** to fresh-buffer
//! results (property-tested).
//!
//! The thread-local is handed out by `with_thread_local`; re-entrant
//! borrows (a closure that itself profiles a round) fall back to a
//! temporary empty workspace, trading a few allocations for
//! deadlock-freedom.
//!
//! [`NetworkModel::round_profile`]: crate::network::NetworkModel::round_profile
//! [`NetworkModel::round_lower_bound`]: crate::network::NetworkModel::round_lower_bound

use crate::bound::RoundLoad;
use crate::contention::ContentionWorkspace;
use std::cell::RefCell;

/// Epoch-stamped dense "seen this round" marks over a model's rail-link
/// ids, each carrying a `u32` slot.
///
/// `stamp[id] == epoch` means link `id` was seen since the last
/// [`begin`](Self::begin); `slot[id]` is then the value recorded on first
/// sight (the link's first-seen position when interning). The arrays grow
/// only when a larger model needs them and are never cleared per round:
/// `begin` bumps the epoch instead, and zero-fills the stamps only when
/// the epoch wraps around.
#[derive(Debug, Default)]
pub(crate) struct LinkSlots {
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
}

impl LinkSlots {
    /// Starts a round over links `0..num_links`: every link reads unseen.
    pub(crate) fn begin(&mut self, num_links: usize) {
        if self.stamp.len() < num_links {
            // Fresh stamps are 0, which no live epoch ever equals.
            self.stamp.resize(num_links, 0);
            self.slot.resize(num_links, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `link` seen; true when this round had not seen it yet.
    #[inline]
    pub(crate) fn insert(&mut self, link: u32) -> bool {
        let stamp = &mut self.stamp[link as usize];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }

    /// The slot of `link` this round, recording `next` on first sight.
    #[inline]
    pub(crate) fn slot_or_insert(&mut self, link: u32, next: u32) -> u32 {
        let i = link as usize;
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.slot[i] = next;
        }
        self.slot[i]
    }
}

/// Every scratch buffer one thread needs to profile and bound rounds:
/// the stamped rail-link slots, CSR flow lists, solver rates,
/// the contention solver's own workspace and a [`RoundLoad`] accumulator.
///
/// All state is reset on entry to each operation; only capacity survives.
/// Obtain one with [`RoundWorkspace::new`] for explicit pooling, or let
/// the costing entry points use the thread-local via `with_thread_local`.
#[derive(Debug, Default)]
pub struct RoundWorkspace {
    /// Per-round rail-link marks: the interning slots of round profiles
    /// and the distinct-link counts of round loads.
    pub(crate) links: LinkSlots,
    /// Capacity of each interned link, in interning order.
    pub(crate) capacities: Vec<f64>,
    /// CSR offsets: flow `f`'s links span `flow_links[o[f]..o[f + 1]]`.
    pub(crate) flow_offsets: Vec<usize>,
    /// CSR link indices, all flows concatenated.
    pub(crate) flow_links: Vec<usize>,
    /// Solved per-flow rates (output buffer of the contention solve).
    pub(crate) rates: Vec<f64>,
    /// Multiplicity of each interned link on a quotient solve (empty
    /// otherwise).
    pub(crate) mults: Vec<u32>,
    /// Per-link flow counts (equal-share mode's only scratch).
    pub(crate) counts: Vec<usize>,
    /// The max-min solver's internal buffers.
    pub(crate) contention: ContentionWorkspace,
    /// Reusable [`RoundLoad`] accumulator for bound evaluations (empty
    /// until the first bound on this thread).
    pub(crate) load: RoundLoad,
    /// The pooled load of the fluid bounds: every job's messages in one
    /// virtual round, accumulated alongside each round's own `load`.
    pub(crate) pooled: RoundLoad,
    /// Marks of `pooled`'s active links — the union over every round of
    /// every job, so they persist across the rounds `links` restarts for.
    pub(crate) pooled_links: LinkSlots,
    rounds: u64,
}

impl RoundWorkspace {
    /// An empty workspace; no buffer allocates until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many rounds have been profiled through this workspace — the
    /// reuse counter the allocation-free acceptance check reads (every
    /// count past the first on a warm workspace reused all buffers).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    pub(crate) fn begin_round(&mut self) {
        self.rounds += 1;
    }
}

thread_local! {
    static WORKSPACE: RefCell<RoundWorkspace> = RefCell::new(RoundWorkspace::new());
}

/// Runs `f` with this thread's [`RoundWorkspace`], borrowed in place.
///
/// A re-entrant call from inside `f` finds the workspace borrowed and runs
/// on a fresh temporary workspace instead of panicking on a double borrow.
/// Nothing is moved, so a call's fixed cost does not grow with the
/// workspace (about a kilobyte of buffer headers).
pub(crate) fn with_thread_local<R>(f: impl FnOnce(&mut RoundWorkspace) -> R) -> R {
    WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut RoundWorkspace::new()),
    })
}

/// How many rounds the current thread's workspace has profiled — exposed
/// so harnesses can assert that steady-state costing actually reuses the
/// pooled buffers instead of silently falling back to fresh ones.
pub fn thread_workspace_rounds() -> u64 {
    WORKSPACE.with(|cell| cell.borrow().rounds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ContentionMode, NetworkModel};
    use crate::rail::RailPolicy;
    use crate::schedule::Message;

    fn toy(mode: ContentionMode) -> NetworkModel {
        let h = mre_core::Hierarchy::new(vec![2, 2, 4]).unwrap();
        NetworkModel::new(
            h,
            vec![
                crate::network::LinkParams {
                    uplink_bandwidth: 10.0,
                    crossing_latency: 1e-5,
                },
                crate::network::LinkParams {
                    uplink_bandwidth: 40.0,
                    crossing_latency: 1e-6,
                },
                crate::network::LinkParams {
                    uplink_bandwidth: 100.0,
                    crossing_latency: 1e-7,
                },
            ],
            200.0,
        )
        .with_contention_mode(mode)
    }

    fn cross_round() -> Vec<Message> {
        vec![
            Message::new(0, 8, 1 << 20),
            Message::new(1, 9, 1 << 20),
            Message::new(4, 12, 1 << 20),
            Message::new(2, 2, 1 << 16),
            Message::new(3, 6, 1 << 18),
        ]
    }

    #[test]
    fn reused_workspace_profiles_bit_identically() {
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = toy(mode);
            let msgs = cross_round();
            let mut ws = RoundWorkspace::new();
            let fresh = net.round_profile_with(&mut RoundWorkspace::new(), &msgs);
            // Dirty the workspace with unrelated rounds, then re-profile.
            net.round_profile_with(&mut ws, &[Message::new(0, 15, 123)]);
            net.round_profile_with(&mut ws, &[Message::new(5, 5, 7), Message::new(6, 7, 9)]);
            let reused = net.round_profile_with(&mut ws, &msgs);
            assert_eq!(fresh.entries.len(), reused.entries.len());
            for (a, b) in fresh.entries.iter().zip(&reused.entries) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "latency drifted under reuse");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "rate drifted under reuse");
            }
            assert_eq!(ws.rounds(), 3);
        }
    }

    #[test]
    fn thread_local_counter_advances() {
        let net = toy(ContentionMode::MaxMinFair);
        let before = thread_workspace_rounds();
        net.round_profile(&cross_round());
        net.round_profile(&cross_round());
        assert_eq!(thread_workspace_rounds(), before + 2);
    }

    #[test]
    fn a_reentrant_call_gets_a_temporary_workspace() {
        let net = toy(ContentionMode::MaxMinFair);
        net.round_profile(&cross_round());
        let outer = with_thread_local(|ws| {
            let inner = with_thread_local(|inner| {
                net.round_profile_with(inner, &cross_round());
                inner.rounds()
            });
            assert_eq!(
                inner, 1,
                "the re-entrant call starts from an empty workspace"
            );
            ws.rounds()
        });
        assert!(outer >= 1, "the outer call borrows the warmed workspace");
        assert_eq!(
            thread_workspace_rounds(),
            outer,
            "the temporary is not kept"
        );
    }

    #[test]
    fn link_slots_grow_and_forget_marks_across_the_epoch_wrap() {
        let mut links = LinkSlots::default();
        links.begin(4);
        assert!(links.insert(2));
        assert!(!links.insert(2));
        // Link 2 carries a mark from epoch 1; jump to just before the
        // wrap, where the next bumps reach u32::MAX and then wrap to 1.
        links.epoch = u32::MAX - 1;
        links.begin(16);
        assert_eq!(links.epoch, u32::MAX);
        assert!(links.insert(9), "grown links start unseen");
        assert_eq!(links.slot_or_insert(3, 7), 7);
        assert_eq!(links.slot_or_insert(3, 8), 7, "first sight wins");
        links.begin(16);
        assert_eq!(links.epoch, 1, "epoch 0 is reserved for unseen");
        // Without the zero-fill, the epoch-1 mark on link 2 would read
        // as seen this round.
        assert!(links.insert(2));
        assert!(links.insert(9));
        assert_eq!(links.slot_or_insert(3, 0), 0);
        assert!(!links.insert(2));
        // A smaller model never shrinks the arrays.
        links.begin(4);
        assert_eq!(links.stamp.len(), 16);
    }

    #[test]
    fn profiles_across_the_epoch_wrap_match_fresh() {
        let net = toy(ContentionMode::MaxMinFair).with_node_rails(2, RailPolicy::Affinity);
        let msgs = cross_round();
        let fresh = net.round_profile_with(&mut RoundWorkspace::new(), &msgs);
        let mut ws = RoundWorkspace::new();
        ws.links.epoch = u32::MAX - 2;
        for _ in 0..4 {
            let reused = net.round_profile_with(&mut ws, &msgs);
            assert_eq!(fresh, reused);
        }
        assert_eq!(ws.links.epoch, 2, "the loop crossed the wrap");
    }

    #[test]
    fn reused_load_matches_fresh_bounds() {
        let net = toy(ContentionMode::MaxMinFair);
        let msgs = cross_round();
        let fresh = net.round_lower_bound_from(&net.round_load(&msgs));
        // Dirty the thread-local load with a different round first.
        net.round_lower_bound(&[Message::new(0, 15, 1 << 24)]);
        let reused = net.round_lower_bound(&msgs);
        assert_eq!(fresh.to_bits(), reused.to_bits());
        let fresh_agg = net.round_lower_bound_aggregate_from(&net.round_load(&msgs));
        let reused_agg = net.round_lower_bound_aggregate(&msgs);
        assert_eq!(fresh_agg.to_bits(), reused_agg.to_bits());
    }
}
