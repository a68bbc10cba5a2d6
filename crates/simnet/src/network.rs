//! The hierarchical network model.
//!
//! Every instance of hierarchy level `l` (a node, socket, NUMA domain,
//! group or core) owns one **full-duplex uplink** to its enclosing level
//! `l−1` instance, with a per-level bandwidth. A message between cores
//! whose coordinates first differ at level `j` ascends through the
//! sender-side uplinks of levels `k−1, …, j` (direction *up*), crosses the
//! common level-`j−1` instance, and descends through the receiver-side
//! uplinks (direction *down*).
//!
//! A round of concurrent messages shares every traversed directed link
//! max-min fairly ([`crate::contention::max_min_rates`]); the round time is
//! the slowest message's `latency + bytes / rate`. Latency is calibrated
//! per *crossing level* (the level of the first coordinate difference),
//! matching how per-level ping-pong latencies are measured on real
//! machines.

use crate::contention::max_min_rates_csr;
use crate::rail::{assign_rail, RailLinkTable, RailPolicy};
use crate::schedule::{Message, Schedule};
use mre_core::Hierarchy;

/// How concurrent messages share link capacity (the contention-model
/// ablation of DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionMode {
    /// Progressive water-filling: rates freed by bottlenecked flows are
    /// redistributed (the default, and the realistic model).
    #[default]
    MaxMinFair,
    /// Naive equal split: every flow gets
    /// `min over its links of capacity / flow_count` — no redistribution.
    /// Pessimistic for asymmetric mixes; kept for the ablation study.
    EqualShare,
}

/// Calibration of one hierarchy level's links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Capacity (bytes/s) of the uplink that each instance of this level
    /// has towards its parent, per direction.
    pub uplink_bandwidth: f64,
    /// End-to-end latency (s) of a message whose outermost coordinate
    /// difference is at this level (i.e. that must cross this level).
    pub crossing_latency: f64,
}

/// The calibrated network model of one machine.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    hierarchy: Hierarchy,
    links: Vec<LinkParams>,
    /// Bandwidth of a local (same-core) copy, for self-messages.
    local_copy_bandwidth: f64,
    /// The local copy rate as observed by a probe message, fixed at
    /// construction (see [`Self::calibrated_local_rate`]).
    calibrated_local_rate: f64,
    mode: ContentionMode,
    /// The dense directed rail-link numbering every costing kernel shares:
    /// per-level strides, parallel uplinks ("rails") per instance of each
    /// level (all-1 is the classic single-rail model, and `uplink_bandwidth`
    /// is **per rail**) and the policy binding crossing messages to rails
    /// (see [`crate::rail`]).
    link_table: RailLinkTable,
}

impl NetworkModel {
    /// Builds a model; `links[l]` calibrates hierarchy level `l`
    /// (outermost first, so `links[0]` is the compute-node uplink — the
    /// NIC — when the hierarchy's outermost level is the node level).
    ///
    /// # Panics
    /// If `links.len() != hierarchy.depth()` or any parameter is
    /// non-positive.
    pub fn new(hierarchy: Hierarchy, links: Vec<LinkParams>, local_copy_bandwidth: f64) -> Self {
        assert_eq!(
            links.len(),
            hierarchy.depth(),
            "one LinkParams per hierarchy level"
        );
        assert!(local_copy_bandwidth > 0.0);
        for (l, p) in links.iter().enumerate() {
            assert!(
                p.uplink_bandwidth > 0.0,
                "level {l} bandwidth must be positive"
            );
            assert!(
                p.crossing_latency >= 0.0,
                "level {l} latency must be non-negative"
            );
        }
        let link_table = RailLinkTable::new(
            hierarchy.size(),
            &hierarchy.strides(),
            &vec![1; hierarchy.depth()],
            RailPolicy::default(),
        );
        let mut model = Self {
            hierarchy,
            links,
            local_copy_bandwidth,
            calibrated_local_rate: local_copy_bandwidth,
            mode: ContentionMode::MaxMinFair,
            link_table,
        };
        // Calibrate the local copy rate once, at construction, via the same
        // probe the fluid simulator used to re-derive per call: the rate a
        // 1 MB self-message actually achieves under this model. Self
        // messages carry no latency, so this round-trips the configured
        // bandwidth (up to one rounding), and every consumer — fluid or
        // round-based — now reads the same cached value.
        let probe = Message::new(0, 0, 1_000_000);
        model.calibrated_local_rate = 1_000_000.0 / model.message_time(probe);
        model
    }

    /// Switches the contention model (ablation).
    pub fn with_contention_mode(mut self, mode: ContentionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active contention model.
    pub fn contention_mode(&self) -> ContentionMode {
        self.mode
    }

    /// The hierarchy this model covers.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The per-level link calibration.
    pub fn links(&self) -> &[LinkParams] {
        &self.links
    }

    /// Bandwidth applied to self-messages (intra-core copies).
    pub fn local_copy_bandwidth(&self) -> f64 {
        self.local_copy_bandwidth
    }

    /// The local copy rate as a probe message observes it, cached at
    /// construction. Identical to [`Self::local_copy_bandwidth`] up to one
    /// floating-point rounding; both the fluid simulator and the
    /// round-based profile path use this value, so local copies cost the
    /// same under either model. (The fluid path previously re-derived it
    /// with a fresh 1 MB probe on every call.)
    pub fn calibrated_local_rate(&self) -> f64 {
        self.calibrated_local_rate
    }

    /// Scales the outermost level's uplink bandwidth (e.g. enabling a
    /// second NIC doubles it — the paper's Fig. 8b variant).
    ///
    /// This is the *aggregate* NIC approximation: one link, `factor`× the
    /// bandwidth, so a single flow enjoys the full aggregate. For discrete
    /// rails — one flow per adapter at per-rail bandwidth, the physical
    /// multi-NIC behavior — use [`Self::with_rails`].
    pub fn with_node_uplink_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.links[0].uplink_bandwidth *= factor;
        self
    }

    /// Gives each instance of level `l` `rails[l]` parallel uplinks of the
    /// configured (per-rail) `uplink_bandwidth`, bound by `policy`. All-1
    /// rails reproduce the single-rail model byte for byte.
    ///
    /// # Panics
    /// If `rails.len() != depth` or any count is zero.
    pub fn with_rails(mut self, rails: Vec<usize>, policy: RailPolicy) -> Self {
        assert_eq!(
            rails.len(),
            self.hierarchy.depth(),
            "one rail count per hierarchy level"
        );
        assert!(rails.iter().all(|&r| r >= 1), "rail counts must be >= 1");
        self.link_table = RailLinkTable::new(
            self.hierarchy.size(),
            self.link_table.strides(),
            &rails,
            policy,
        );
        // Multi-rail local copies are unaffected, but the calibrated rate
        // could in principle shift if level 0 were degenerate; re-probe so
        // the invariant "construction calibrates" holds for railed models
        // too (self-messages touch no links, so this is a no-op today).
        let probe = Message::new(0, 0, 1_000_000);
        self.calibrated_local_rate = 1_000_000.0 / self.message_time(probe);
        self
    }

    /// [`Self::with_rails`] for the common case: `nics` rails on the
    /// outermost (node) level, one everywhere else.
    pub fn with_node_rails(self, nics: usize, policy: RailPolicy) -> Self {
        let mut rails = vec![1; self.hierarchy.depth()];
        rails[0] = nics;
        self.with_rails(rails, policy)
    }

    /// Per-level rail counts (all 1 unless [`Self::with_rails`] was used).
    pub fn rail_counts(&self) -> &[usize] {
        self.link_table.rails()
    }

    /// Rail count of the outermost (node) level: the `nics` of
    /// [`Self::with_node_rails`], 1 on single-rail fabrics.
    pub fn node_rails(&self) -> usize {
        self.rail_counts().first().copied().unwrap_or(1)
    }

    /// The rail assignment policy.
    pub fn rail_policy(&self) -> RailPolicy {
        self.link_table.policy()
    }

    /// True when any level has more than one rail.
    pub fn is_multi_rail(&self) -> bool {
        self.rail_counts().iter().any(|&r| r > 1)
    }

    /// The model's directed rail-link numbering, built once per rail
    /// configuration and shared by every costing kernel: the lockstep
    /// profile, the round bounds, [`crate::FluidSim`] and
    /// [`crate::CongestionProbe`] all name a link by the same dense id.
    pub fn link_table(&self) -> &RailLinkTable {
        &self.link_table
    }

    /// The rail a `src → dst` message occupies on the directed level-`level`
    /// uplink: the sender-side rail going up (`up = true`), the
    /// receiver-side rail coming down. Pure in the endpoints — the same
    /// message always rides the same rails.
    pub fn message_rail(&self, level: usize, src: usize, dst: usize, up: bool) -> usize {
        let (side, peer) = if up { (src, dst) } else { (dst, src) };
        let table = &self.link_table;
        assign_rail(
            table.policy(),
            table.rails()[level],
            table.strides()[level],
            side,
            peer,
        )
    }

    /// Time for a single isolated message (ping cost).
    pub fn message_time(&self, m: Message) -> f64 {
        self.round_time(std::slice::from_ref(&m))
    }

    /// Time for a round of concurrent messages under max-min fair link
    /// sharing.
    pub fn round_time(&self, messages: &[Message]) -> f64 {
        self.round_profile(messages).time(messages)
    }

    /// The size-independent cost structure of a round: the latency and
    /// contended rate of every message.
    ///
    /// Both contention modes allocate rates from message *paths* alone —
    /// payload sizes never enter the water-filling — so a profile computed
    /// once can re-cost the same endpoint pattern for any payload sizes
    /// ([`RoundProfile::time`]). The profile tier of
    /// [`crate::SharedCostCache`] serves a whole payload axis from one
    /// solve on exactly this property.
    ///
    /// Delegates to [`round_profile_with`](Self::round_profile_with) on the
    /// thread-local [`RoundWorkspace`](crate::workspace::RoundWorkspace),
    /// so repeated profiling on one thread allocates only the returned
    /// profile.
    pub fn round_profile(&self, messages: &[Message]) -> RoundProfile {
        crate::workspace::with_thread_local(|ws| self.round_profile_with(ws, messages))
    }

    /// [`round_profile`](Self::round_profile) with caller-owned scratch:
    /// the link-interning slots, CSR flow lists and solver state all live
    /// in `ws` and are reused across calls, so the steady state allocates
    /// only the returned [`RoundProfile`]. Bit-identical to a fresh-buffer
    /// build — interning order, capacities and the solver's freezing
    /// schedule depend only on the message sequence, never on buffer
    /// history.
    pub fn round_profile_with(
        &self,
        ws: &mut crate::workspace::RoundWorkspace,
        messages: &[Message],
    ) -> RoundProfile {
        if messages.is_empty() {
            return RoundProfile {
                entries: Vec::new(),
                crossing: Vec::new(),
            };
        }
        ws.begin_round();
        let table = &self.link_table;
        // Intern each traversed rail-link the first time the round touches
        // it: its dense model id selects a stamped slot, and the slot
        // records the link's position in first-seen order. At one rail per
        // level the rail is constantly 0, so the interning order — and
        // with it every capacity and solved rate — is identical to the
        // single-rail model.
        ws.links.begin(table.num_links());
        ws.capacities.clear();
        ws.flow_offsets.clear();
        ws.flow_offsets.push(0);
        ws.flow_links.clear();
        let mut crossing: Vec<Option<usize>> = Vec::with_capacity(messages.len());
        for m in messages {
            debug_assert!(m.src < self.hierarchy.size() && m.dst < self.hierarchy.size());
            let Some(path) = table.path(m.src, m.dst) else {
                ws.flow_offsets.push(ws.flow_links.len());
                crossing.push(None);
                continue;
            };
            crossing.push(Some(path.crossing()));
            for hop in path {
                for id in [hop.up, hop.down] {
                    let next = ws.capacities.len() as u32;
                    let idx = ws.links.slot_or_insert(id, next);
                    if idx == next {
                        ws.capacities.push(self.links[hop.level].uplink_bandwidth);
                    }
                    ws.flow_links.push(idx as usize);
                }
            }
            ws.flow_offsets.push(ws.flow_links.len());
        }
        match self.mode {
            ContentionMode::MaxMinFair => max_min_rates_csr(
                &mut ws.contention,
                &ws.flow_offsets,
                &ws.flow_links,
                &ws.capacities,
                &mut ws.rates,
            ),
            ContentionMode::EqualShare => equal_share_rates_csr(
                &mut ws.counts,
                &ws.flow_offsets,
                &ws.flow_links,
                &ws.capacities,
                &mut ws.rates,
            ),
        };
        let entries = ws
            .rates
            .iter()
            .zip(&crossing)
            .map(|(&rate, j)| match j {
                None => (0.0, self.calibrated_local_rate),
                Some(j) => (self.links[*j].crossing_latency, rate),
            })
            .collect();
        RoundProfile { entries, crossing }
    }

    /// Time for a schedule: the sum of its round times (rounds are
    /// synchronized).
    pub fn schedule_time(&self, schedule: &Schedule) -> f64 {
        schedule
            .rounds
            .iter()
            .map(|r| self.round_time(&r.messages))
            .sum()
    }

    /// Time for several schedules executing concurrently in lockstep —
    /// how simultaneous collectives in different communicators are costed.
    pub fn concurrent_time(&self, schedules: &[Schedule]) -> f64 {
        self.schedule_time(&Schedule::lockstep(schedules))
    }

    /// Convenience: round-trip-normalized point-to-point bandwidth
    /// achieved by an isolated message of `bytes`.
    pub fn effective_bandwidth(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        bytes as f64 / self.message_time(Message::new(src, dst, bytes))
    }

    /// A hash over everything that determines round costs (hierarchy shape,
    /// link calibration, local-copy bandwidth, contention mode, rail
    /// count × rail policy). [`crate::SharedCostCache`] folds it into
    /// every key, so one cache never conflates two models.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hierarchy.levels().hash(&mut h);
        for p in &self.links {
            p.uplink_bandwidth.to_bits().hash(&mut h);
            p.crossing_latency.to_bits().hash(&mut h);
        }
        self.local_copy_bandwidth.to_bits().hash(&mut h);
        (self.mode == ContentionMode::MaxMinFair).hash(&mut h);
        self.rail_counts().hash(&mut h);
        self.rail_policy().hash(&mut h);
        h.finish()
    }
}

/// The size-independent cost structure of one round of messages: per
/// message, the crossing latency and the contended rate it was allocated.
///
/// Computed once by [`NetworkModel::round_profile`] from the messages'
/// endpoints, then reusable to cost the same communication pattern at any
/// payload sizes — the contention solve (the expensive part of round
/// costing) depends only on paths, never on byte counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundProfile {
    /// Per-message `(latency_s, rate_bytes_per_s)`; self-messages carry
    /// `(0.0, local_copy_bandwidth)`.
    pub entries: Vec<(f64, f64)>,
    /// Per-message crossing level (the level of the outermost coordinate
    /// difference between endpoints); `None` for self-messages.
    pub crossing: Vec<Option<usize>>,
}

impl RoundProfile {
    /// Round time for `messages`, which must be the same pattern (count and
    /// endpoint order) the profile was computed from: the slowest message's
    /// `latency + bytes / rate`.
    pub fn time(&self, messages: &[Message]) -> f64 {
        debug_assert_eq!(self.entries.len(), messages.len());
        self.entries
            .iter()
            .zip(messages)
            .map(|(&(latency, rate), m)| latency + m.bytes as f64 / rate)
            .fold(0.0, f64::max)
    }

    /// Per-message `(start, finish, achieved rate)` timings for `messages`
    /// (same pattern the profile was computed from), with every message
    /// starting at `round_start` — rounds are barrier-synchronized, so all
    /// messages of a round are injected together and each finishes at
    /// `round_start + latency + bytes / rate`.
    pub fn message_timings(
        &self,
        messages: &[Message],
        round_start: f64,
    ) -> Vec<crate::timeline::MessageTiming> {
        debug_assert_eq!(self.entries.len(), messages.len());
        self.entries
            .iter()
            .zip(&self.crossing)
            .zip(messages)
            .map(
                |((&(latency, rate), &crossing), m)| crate::timeline::MessageTiming {
                    src: m.src,
                    dst: m.dst,
                    bytes: m.bytes,
                    start: round_start,
                    finish: round_start + latency + m.bytes as f64 / rate,
                    rate,
                    latency,
                    crossing,
                },
            )
            .collect()
    }
}

/// Naive equal-split rates: each flow gets the minimum over its links of
/// `capacity / flows_on_link`, with no redistribution of unused shares.
fn equal_share_rates_csr(
    counts: &mut Vec<usize>,
    flow_offsets: &[usize],
    flow_links: &[usize],
    capacities: &[f64],
    rates: &mut Vec<f64>,
) {
    counts.clear();
    counts.resize(capacities.len(), 0);
    for &l in flow_links {
        counts[l] += 1;
    }
    rates.clear();
    rates.extend((0..flow_offsets.len().saturating_sub(1)).map(|f| {
        flow_links[flow_offsets[f]..flow_offsets[f + 1]]
            .iter()
            .map(|&l| capacities[l] / counts[l] as f64)
            .fold(f64::INFINITY, f64::min)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Round;

    /// A toy two-node machine: [2 nodes, 2 sockets, 4 cores],
    /// NIC 10 B/s, socket uplink 40 B/s, core uplink 100 B/s.
    fn toy() -> NetworkModel {
        let h = Hierarchy::new(vec![2, 2, 4]).unwrap();
        NetworkModel::new(
            h,
            vec![
                LinkParams {
                    uplink_bandwidth: 10.0,
                    crossing_latency: 2.0,
                },
                LinkParams {
                    uplink_bandwidth: 40.0,
                    crossing_latency: 1.0,
                },
                LinkParams {
                    uplink_bandwidth: 100.0,
                    crossing_latency: 0.5,
                },
            ],
            1000.0,
        )
    }

    #[test]
    fn isolated_message_is_latency_plus_bottleneck() {
        let net = toy();
        // Same socket: only core uplinks (100 B/s), latency 0.5.
        let t = net.message_time(Message::new(0, 1, 100));
        assert!((t - (0.5 + 1.0)).abs() < 1e-12, "{t}");
        // Cross-socket: bottleneck is the socket uplink (40 B/s), latency 1.
        let t = net.message_time(Message::new(0, 4, 100));
        assert!((t - (1.0 + 2.5)).abs() < 1e-12, "{t}");
        // Cross-node: bottleneck is the NIC (10 B/s), latency 2.
        let t = net.message_time(Message::new(0, 8, 100));
        assert!((t - (2.0 + 10.0)).abs() < 1e-12, "{t}");
    }

    #[test]
    fn self_message_uses_local_copy() {
        let net = toy();
        let t = net.message_time(Message::new(3, 3, 500));
        assert!((t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nic_contention_splits_bandwidth() {
        let net = toy();
        // Two node-crossing messages from the same node: share the NIC up
        // direction → 5 B/s each.
        let msgs = [Message::new(0, 8, 100), Message::new(1, 9, 100)];
        let t = net.round_time(&msgs);
        assert!((t - (2.0 + 20.0)).abs() < 1e-12, "{t}");
        // Opposite directions don't contend (full duplex).
        let msgs = [Message::new(0, 8, 100), Message::new(9, 1, 100)];
        let t = net.round_time(&msgs);
        assert!((t - (2.0 + 10.0)).abs() < 1e-12, "{t}");
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let net = toy();
        // Messages inside socket 0 of each node.
        let msgs = [Message::new(0, 1, 100), Message::new(8, 9, 100)];
        let t = net.round_time(&msgs);
        let solo = net.message_time(Message::new(0, 1, 100));
        assert!((t - solo).abs() < 1e-12);
    }

    #[test]
    fn round_time_is_max_over_messages() {
        let net = toy();
        let msgs = [Message::new(0, 1, 10), Message::new(0, 8, 10)];
        let t = net.round_time(&msgs);
        // Cross-node message dominates: 2.0 + 10/10 = 3.0.
        assert!((t - 3.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_time_sums_rounds() {
        let net = toy();
        let s = Schedule::with(vec![
            Round::with(vec![Message::new(0, 1, 100)]),
            Round::with(vec![Message::new(0, 8, 100)]),
        ]);
        let expected =
            net.message_time(Message::new(0, 1, 100)) + net.message_time(Message::new(0, 8, 100));
        assert!((net.schedule_time(&s) - expected).abs() < 1e-12);
    }

    #[test]
    fn concurrent_schedules_contend() {
        let net = toy();
        let a = Schedule::with(vec![Round::with(vec![Message::new(0, 8, 100)])]);
        let b = Schedule::with(vec![Round::with(vec![Message::new(1, 9, 100)])]);
        let alone = net.schedule_time(&a);
        let together = net.concurrent_time(&[a, b]);
        assert!(together > alone, "sharing the NIC must slow messages down");
    }

    #[test]
    fn two_nics_halve_cross_node_time() {
        let net = toy();
        let double = toy().with_node_uplink_scale(2.0);
        let m = Message::new(0, 8, 1000);
        let t1 = net.message_time(m) - 2.0; // strip latency
        let t2 = double.message_time(m) - 2.0;
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_round_costs_nothing() {
        assert_eq!(toy().round_time(&[]), 0.0);
    }

    #[test]
    fn single_rail_config_is_byte_identical() {
        use crate::rail::RailPolicy;
        let plain = toy();
        for policy in RailPolicy::ALL {
            let railed = toy().with_rails(vec![1, 1, 1], policy);
            let msgs = [
                Message::new(0, 8, 100),
                Message::new(1, 9, 250),
                Message::new(0, 1, 40),
                Message::new(3, 3, 70),
            ];
            assert_eq!(
                plain.round_time(&msgs).to_bits(),
                railed.round_time(&msgs).to_bits(),
                "{policy}"
            );
        }
    }

    #[test]
    fn two_rails_split_flows_that_would_share_one_nic() {
        use crate::rail::RailPolicy;
        let one = toy();
        let two = toy().with_node_rails(2, RailPolicy::RoundRobin);
        assert!(two.is_multi_rail() && !one.is_multi_rail());
        assert_eq!(two.rail_counts(), &[2, 1, 1]);
        // 0→8 rides rail (0+8)%2 = 0, 1→9 rides rail (1+9)%2 = 0: same
        // rail, still serialized at 5 B/s each.
        let same = [Message::new(0, 8, 100), Message::new(1, 9, 100)];
        assert!((two.round_time(&same) - one.round_time(&same)).abs() < 1e-12);
        // 0→8 (rail 0) and 1→8 (rail 1): disjoint rails, each gets the
        // full per-rail 10 B/s — as fast as running alone.
        let split = [Message::new(0, 8, 100), Message::new(1, 8, 100)];
        let solo = two.message_time(Message::new(0, 8, 100));
        assert!((two.round_time(&split) - solo).abs() < 1e-12);
        assert!(one.round_time(&split) > two.round_time(&split) + 1.0);
    }

    #[test]
    fn one_flow_never_exceeds_a_single_rail() {
        use crate::rail::RailPolicy;
        // The discrete-rail model keeps an isolated flow at per-rail
        // bandwidth; the aggregate approximation doubles it.
        let rails = toy().with_node_rails(2, RailPolicy::RoundRobin);
        let aggregate = toy().with_node_uplink_scale(2.0);
        let m = Message::new(0, 8, 1000);
        assert!((rails.message_time(m) - toy().message_time(m)).abs() < 1e-12);
        assert!(aggregate.message_time(m) < rails.message_time(m));
    }

    #[test]
    fn rails_and_policy_enter_the_fingerprint() {
        use crate::rail::RailPolicy;
        let plain = toy();
        let railed = toy().with_node_rails(2, RailPolicy::RoundRobin);
        let hashed = toy().with_node_rails(2, RailPolicy::SrcHash);
        assert_ne!(plain.fingerprint(), railed.fingerprint());
        assert_ne!(railed.fingerprint(), hashed.fingerprint());
    }

    #[test]
    #[should_panic(expected = "one rail count per hierarchy level")]
    fn rail_count_mismatch_panics() {
        let _ = toy().with_rails(vec![2, 1], crate::rail::RailPolicy::RoundRobin);
    }

    #[test]
    fn effective_bandwidth_approaches_bottleneck_for_large_messages() {
        let net = toy();
        let bw = net.effective_bandwidth(0, 8, 1_000_000);
        assert!(bw > 9.9 && bw <= 10.0, "{bw}");
    }

    #[test]
    fn equal_share_matches_max_min_for_symmetric_flows() {
        let fair = toy();
        let naive = toy().with_contention_mode(ContentionMode::EqualShare);
        // Two identical cross-node flows from the same node.
        let msgs = [Message::new(0, 8, 100), Message::new(1, 9, 100)];
        assert!((fair.round_time(&msgs) - naive.round_time(&msgs)).abs() < 1e-12);
    }

    #[test]
    fn equal_share_is_never_faster_than_max_min() {
        let fair = toy();
        let naive = toy().with_contention_mode(ContentionMode::EqualShare);
        // Asymmetric mix: one in-socket flow shares the core uplink of
        // core 0 with a cross-node flow.
        let msgs = [
            Message::new(0, 1, 1000),
            Message::new(0, 8, 1000),
            Message::new(2, 10, 1000),
        ];
        assert!(naive.round_time(&msgs) >= fair.round_time(&msgs) - 1e-12);
        assert_eq!(naive.contention_mode(), ContentionMode::EqualShare);
    }

    #[test]
    #[should_panic(expected = "one LinkParams per hierarchy level")]
    fn link_count_mismatch_panics() {
        let h = Hierarchy::new(vec![2, 2]).unwrap();
        NetworkModel::new(
            h,
            vec![LinkParams {
                uplink_bandwidth: 1.0,
                crossing_latency: 0.0,
            }],
            1.0,
        );
    }
}
