//! Multi-rail fabrics: several parallel uplinks ("rails") per hierarchy
//! instance.
//!
//! The base model gives every instance of level `l` exactly one full-duplex
//! uplink. Real deeply hierarchical machines are multi-rail: Hydra's nodes
//! carry one *or two* Omni-Path NICs (the paper's Fig. 8 second-NIC
//! ablation), and current exascale nodes carry four to six. A rail is an
//! independent directed link pair of the *per-rail* bandwidth; a crossing
//! message is bound to exactly one rail per traversed level by a
//! [`RailPolicy`], and only messages on the same rail contend.
//!
//! This differs from the aggregate approximation
//! ([`NetworkModel::with_node_uplink_scale`](crate::NetworkModel::with_node_uplink_scale),
//! `hydra_network(nodes, 2)`), which multiplies one link's bandwidth: with
//! real rails a single flow never exceeds one NIC's bandwidth, and two
//! flows hashed onto the same rail still serialize — exactly the effects
//! that flip packed-vs-spread winners with the NIC count.
//!
//! Every policy is a **pure function of the endpoints and the level
//! geometry** — no round index, no arrival order, no randomness. That is
//! what keeps the subsystem composable with the rest of the stack:
//!
//! * a core's rail part can be precomputed once per model (the
//!   [`RailLinkTable`] rows), and endpoint-keyed memos stay valid across
//!   rounds and runs ([`crate::SharedCostCache`]'s profiles);
//! * rail assignment is deterministic across threads (property-tested);
//! * the admissible bounds of [`crate::bound`] can count distinct
//!   `(instance, rail)` links without simulating anything.
//!
//! [`RailLinkTable`] turns a message into link ids for every costing
//! kernel. Besides the level-major id arithmetic it keeps one core-major
//! row per core — per level, the core's instance link base and its part
//! of the rail choice, two `u32`s, so `size × depth × 8` bytes per model —
//! from which [`RailLinkTable::path`] reads a message's crossing level
//! and its up/down link ids with additions only.
//!
//! With every level at one rail (the default), assignment is constantly
//! rail 0 and the whole subsystem vanishes: link tables, water-fills and
//! costs are **byte-identical** to the single-rail engine (property-tested
//! with the pre-rail solver as oracle).

use std::fmt;

/// How a crossing message picks its rail at each traversed level.
///
/// `side` below is the core whose uplink the message occupies — the
/// *sender* in the up direction, the *receiver* coming down — and `peer`
/// is the other endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RailPolicy {
    /// `(src + dst) mod rails`: pairs cycle through the rails, so the
    /// rounds of a pairwise exchange naturally alternate rails. Symmetric
    /// (both directions of a pair ride the same rail index).
    #[default]
    RoundRobin,
    /// Hash of the owning side's core id: every core keeps all its traffic
    /// on one rail per level — the static NIC binding of rail-bound MPI
    /// launch configurations.
    SrcHash,
    /// Rail → core affinity: the instance's cores are split into `rails`
    /// contiguous blocks and each block is bound to its own rail (the
    /// "closest NIC" binding of multi-rail nodes, where each socket or
    /// NUMA domain owns the adapter on its bus).
    Affinity,
}

impl RailPolicy {
    /// Short lowercase label (`round-robin`, `src-hash`, `affinity`).
    pub fn label(self) -> &'static str {
        match self {
            RailPolicy::RoundRobin => "round-robin",
            RailPolicy::SrcHash => "src-hash",
            RailPolicy::Affinity => "affinity",
        }
    }

    /// Parses a label as produced by [`label`](Self::label) (CLI flag
    /// spelling).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "round-robin" | "rr" => Some(RailPolicy::RoundRobin),
            "src-hash" | "hash" => Some(RailPolicy::SrcHash),
            "affinity" | "aff" => Some(RailPolicy::Affinity),
            _ => None,
        }
    }

    /// All policies, for sweeps and property tests.
    pub const ALL: [RailPolicy; 3] = [
        RailPolicy::RoundRobin,
        RailPolicy::SrcHash,
        RailPolicy::Affinity,
    ];
}

impl fmt::Display for RailPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// SplitMix64 — a fixed-key avalanche hash, so [`RailPolicy::SrcHash`] is
/// reproducible across processes and toolchains (unlike `DefaultHasher`,
/// whose keys are an implementation detail).
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The rail a message occupies on one directed uplink: `side` owns the
/// link (sender going up, receiver coming down), `peer` is the other
/// endpoint, `stride` is the level's subtree size (cores per instance).
///
/// Pure in all arguments; returns 0 whenever `rails <= 1`.
#[inline]
pub fn assign_rail(
    policy: RailPolicy,
    rails: usize,
    stride: usize,
    side: usize,
    peer: usize,
) -> usize {
    if rails <= 1 {
        return 0;
    }
    match policy {
        RailPolicy::RoundRobin => (side + peer) % rails,
        RailPolicy::SrcHash => (splitmix64(side as u64) % rails as u64) as usize,
        RailPolicy::Affinity => (side % stride) * rails / stride,
    }
}

/// The rail-aware directed-link table: the level-major interning of the
/// fluid engine extended with a rail axis.
///
/// Link ids stay pure arithmetic:
/// `id = level_offset[level] + (2·instance + up)·rails[level] + rail`,
/// outer levels first — so the shared (and now per-rail) node links all
/// sit in the same dense cache-hot prefix the single-rail table had, and
/// with every `rails[level] = 1` the ids are **bit-identical** to the
/// pre-rail layout.
///
/// # Per-core rows
///
/// The costing kernels walk every message's path, so the table also keeps
/// one core-major row per core, built once at construction from
/// [`link_id`](Self::link_id) and [`assign_rail`]. Entry `level` of core
/// `c`'s row holds two `u32`s:
///
/// * `base = level_offset[level] + 2·instance·rails[level]` — the id of the
///   rail-0 down link of `c`'s level-`level` instance (`instance = c /
///   stride`);
/// * the core's part of the rail choice — `c mod rails` under
///   [`RailPolicy::RoundRobin`], whose rail `(src + dst) mod rails` is the
///   sum of both parts folded once, and the whole rail under the two
///   policies that depend on the owning side only.
///
/// [`path`](Self::path) then needs no division: the crossing level is the
/// first level whose bases differ, and the link ids are additions (`up =
/// base(src) + rails + rail`, `down = base(dst) + rail`). The rows cost
/// `size × depth × 8` bytes per model — 64 KiB for 2048 cores on four
/// levels. [`message_link`](Self::message_link) remains the rule the rows
/// are built from, and the oracle the path kernel is tested against.
#[derive(Debug, Clone)]
pub struct RailLinkTable {
    strides: Vec<usize>,
    rails: Vec<usize>,
    policy: RailPolicy,
    level_offset: Vec<u32>,
    num_links: usize,
    /// `size × depth` row entries, core-major (see the type docs).
    rows: Vec<RowEntry>,
}

/// One core's entry for one level in [`RailLinkTable`]'s rows.
#[derive(Debug, Clone, Copy)]
struct RowEntry {
    /// Id of the core's level instance's rail-0 down link.
    base: u32,
    /// The core's part of the rail choice.
    rail: u32,
}

/// One traversed level of a message's path: the directed rail-links it
/// occupies going up (sender side) and coming down (receiver side), and
/// the rail each one is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHop {
    /// The hierarchy level (outermost is 0).
    pub level: usize,
    /// Id of the sender-side up link.
    pub up: u32,
    /// Id of the receiver-side down link.
    pub down: u32,
    /// Rail of the up link.
    pub up_rail: usize,
    /// Rail of the down link.
    pub down_rail: usize,
}

/// The levels a `src → dst` message traverses, from its crossing level
/// inwards — returned by [`RailLinkTable::path`].
#[derive(Debug, Clone)]
pub struct LinkPath<'a> {
    src: &'a [RowEntry],
    dst: &'a [RowEntry],
    rails: &'a [usize],
    round_robin: bool,
    crossing: usize,
    level: usize,
}

impl LinkPath<'_> {
    /// The crossing level: the outermost level at which the endpoints sit
    /// in different instances.
    pub fn crossing(&self) -> usize {
        self.crossing
    }
}

impl Iterator for LinkPath<'_> {
    type Item = PathHop;

    #[inline]
    fn next(&mut self) -> Option<PathHop> {
        let level = self.level;
        let (s, d) = (*self.src.get(level)?, self.dst[level]);
        self.level += 1;
        let rails = self.rails[level] as u32;
        let (up_rail, down_rail) = if self.round_robin {
            // `(src + dst) mod rails` from two parts below `rails`.
            let sum = s.rail + d.rail;
            let rail = if sum >= rails { sum - rails } else { sum };
            (rail, rail)
        } else {
            (s.rail, d.rail)
        };
        Some(PathHop {
            level,
            up: s.base + rails + up_rail,
            down: d.base + down_rail,
            up_rail: up_rail as usize,
            down_rail: down_rail as usize,
        })
    }
}

impl RailLinkTable {
    /// Builds the table for a machine of `size` cores with per-level
    /// subtree sizes `strides` and rail counts `rails`.
    pub fn new(size: usize, strides: &[usize], rails: &[usize], policy: RailPolicy) -> Self {
        assert_eq!(strides.len(), rails.len(), "one rail count per level");
        let mut level_offset = Vec::with_capacity(strides.len());
        let mut total = 0usize;
        for (level, &stride) in strides.iter().enumerate() {
            level_offset.push(total as u32);
            total += 2 * (size / stride) * rails[level];
        }
        let mut table = Self {
            strides: strides.to_vec(),
            rails: rails.to_vec(),
            policy,
            level_offset,
            num_links: total,
            rows: Vec::with_capacity(size * strides.len()),
        };
        for core in 0..size {
            for (level, &stride) in strides.iter().enumerate() {
                // Under round-robin `assign_rail(.., core, 0)` is
                // `core mod rails`; the other policies ignore the peer.
                let rail = assign_rail(policy, rails[level], stride, core, 0);
                let base = table.link_id(level, core / stride, false, 0);
                table.rows.push(RowEntry {
                    base,
                    rail: rail as u32,
                });
            }
        }
        table
    }

    /// Total number of directed rail-links.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Per-level subtree sizes (cores per instance), outermost first.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Per-level rail counts.
    pub fn rails(&self) -> &[usize] {
        &self.rails
    }

    /// Number of cores (one row each).
    pub(crate) fn cores(&self) -> usize {
        self.rows.len().checked_div(self.strides.len()).unwrap_or(0)
    }

    /// The assignment policy.
    pub fn policy(&self) -> RailPolicy {
        self.policy
    }

    /// First link id of `level` (level-major layout).
    pub fn level_offset(&self, level: usize) -> u32 {
        self.level_offset[level]
    }

    /// The id of the directed rail-link `(level, instance, up, rail)`.
    #[inline]
    pub fn link_id(&self, level: usize, instance: usize, up: bool, rail: usize) -> u32 {
        debug_assert!(rail < self.rails[level]);
        self.level_offset[level] + ((2 * instance + up as usize) * self.rails[level] + rail) as u32
    }

    /// The directed rail-link a `src → dst` message occupies at `level`
    /// in the given direction (up = sender-side uplink).
    #[inline]
    pub fn message_link(&self, level: usize, src: usize, dst: usize, up: bool) -> u32 {
        let (side, peer) = if up { (src, dst) } else { (dst, src) };
        let stride = self.strides[level];
        let rail = assign_rail(self.policy, self.rails[level], stride, side, peer);
        self.link_id(level, side / stride, up, rail)
    }

    /// The path of a `src → dst` message: its crossing level and, per
    /// traversed level from there inwards, the up and down rail-links it
    /// occupies — [`message_link`](Self::message_link) for every level and
    /// direction, read from the per-core rows with no division. `None`
    /// for a self-message, which occupies no link.
    #[inline]
    pub fn path(&self, src: usize, dst: usize) -> Option<LinkPath<'_>> {
        if src == dst {
            return None;
        }
        let depth = self.strides.len();
        let src = &self.rows[src * depth..][..depth];
        let dst = &self.rows[dst * depth..][..depth];
        let crossing = src
            .iter()
            .zip(dst)
            .position(|(s, d)| s.base != d.base)
            .expect("distinct cores differ at some level");
        Some(LinkPath {
            src,
            dst,
            rails: &self.rails,
            round_robin: self.policy == RailPolicy::RoundRobin,
            crossing,
            level: crossing,
        })
    }

    /// Entry `level` of `core`'s row: the id of its level instance's
    /// rail-0 down link and its part of the rail choice (see the type
    /// docs).
    #[inline]
    pub(crate) fn row_entry(&self, core: usize, level: usize) -> (u32, u32) {
        let e = self.rows[core * self.strides.len() + level];
        (e.base, e.rail)
    }

    /// Decodes a link id back into `(level, instance, up, rail)` — for
    /// labels and diagnostics, not hot paths.
    pub fn decode(&self, id: u32) -> (usize, usize, bool, usize) {
        let level = match self.level_offset.partition_point(|&off| off <= id) {
            0 => 0,
            n => n - 1,
        };
        let local = (id - self.level_offset[level]) as usize;
        let rails = self.rails[level];
        let rail = local % rails;
        let slot = local / rails;
        (level, slot / 2, slot % 2 == 1, rail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rail_is_always_rail_zero() {
        for policy in RailPolicy::ALL {
            for side in 0..64 {
                assert_eq!(assign_rail(policy, 1, 8, side, side + 1), 0);
            }
        }
    }

    #[test]
    fn round_robin_alternates_with_the_pair() {
        // Consecutive peers of one sender cycle through the rails.
        let rails = 2;
        let a = assign_rail(RailPolicy::RoundRobin, rails, 8, 0, 9);
        let b = assign_rail(RailPolicy::RoundRobin, rails, 8, 0, 10);
        assert_ne!(a, b);
        // Symmetric: both directions of a pair share the rail index.
        assert_eq!(
            assign_rail(RailPolicy::RoundRobin, rails, 8, 0, 9),
            assign_rail(RailPolicy::RoundRobin, rails, 8, 9, 0),
        );
    }

    #[test]
    fn src_hash_depends_only_on_the_side() {
        for peer in [1, 5, 100] {
            assert_eq!(
                assign_rail(RailPolicy::SrcHash, 4, 8, 42, peer),
                assign_rail(RailPolicy::SrcHash, 4, 8, 42, 7),
            );
        }
    }

    #[test]
    fn affinity_binds_contiguous_core_blocks() {
        // 8 cores per instance, 2 rails: cores 0..4 on rail 0, 4..8 on 1.
        for core in 0..8 {
            let rail = assign_rail(RailPolicy::Affinity, 2, 8, core, 100);
            assert_eq!(rail, if core % 8 < 4 { 0 } else { 1 }, "core {core}");
        }
        // Every rail gets at least one block when rails divide the stride.
        let hit: std::collections::HashSet<usize> = (0..8)
            .map(|c| assign_rail(RailPolicy::Affinity, 4, 8, c, 0))
            .collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    fn assignment_is_in_range() {
        for policy in RailPolicy::ALL {
            for rails in 1..=4 {
                for side in 0..64 {
                    for peer in 0..64 {
                        let r = assign_rail(policy, rails, 16, side, peer);
                        assert!(r < rails);
                    }
                }
            }
        }
    }

    #[test]
    fn table_ids_match_single_rail_layout_at_one_rail() {
        // ⟦2, 2, 4⟧: strides [8, 4, 1].
        let strides = vec![8, 4, 1];
        let table = RailLinkTable::new(16, &strides, &[1, 1, 1], RailPolicy::RoundRobin);
        // The pre-rail layout: id = level_offset + 2·instance + up.
        let mut expect = 0u32;
        for (level, &stride) in strides.iter().enumerate() {
            for instance in 0..16 / stride {
                for up in [false, true] {
                    assert_eq!(table.link_id(level, instance, up, 0), expect);
                    expect += 1;
                }
            }
        }
        assert_eq!(table.num_links(), expect as usize);
    }

    #[test]
    fn table_decode_roundtrips() {
        let table = RailLinkTable::new(16, &[8, 4, 1], &[2, 1, 3], RailPolicy::Affinity);
        for level in 0..3 {
            let stride = [8, 4, 1][level];
            for instance in 0..16 / stride {
                for up in [false, true] {
                    for rail in 0..table.rails()[level] {
                        let id = table.link_id(level, instance, up, rail);
                        assert!((id as usize) < table.num_links());
                        assert_eq!(table.decode(id), (level, instance, up, rail));
                    }
                }
            }
        }
    }

    #[test]
    fn message_link_uses_src_up_dst_down() {
        let table = RailLinkTable::new(16, &[8, 4, 1], &[2, 2, 2], RailPolicy::Affinity);
        // src 1 (node 0, offset 1 → rail 0 up), dst 12 (node 1, offset 4
        // → rail 1 down) at the node level.
        let up = table.decode(table.message_link(0, 1, 12, true));
        let down = table.decode(table.message_link(0, 1, 12, false));
        assert_eq!(up, (0, 0, true, 0));
        assert_eq!(down, (0, 1, false, 1));
    }

    #[test]
    fn policy_labels_roundtrip() {
        for p in RailPolicy::ALL {
            assert_eq!(RailPolicy::parse(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(RailPolicy::parse("rr"), Some(RailPolicy::RoundRobin));
        assert_eq!(RailPolicy::parse("nope"), None);
    }
}
