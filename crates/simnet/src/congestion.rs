//! Link-level congestion observatory: time-resolved per-link/per-rail
//! utilization and bound-gap telemetry for both cost engines.
//!
//! The simulator can price a schedule three ways (lockstep, fluid, railed);
//! `mre_trace::level_occupancy` splits a lockstep timeline's bytes by
//! crossing level, but has no rail axis and no per-link story. A
//! [`CongestionProbe`] closes that gap. It is fed by either engine —
//!
//! * the lockstep path ([`NetworkModel::schedule_time_probed`]) records,
//!   per round, the busy interval of every directed rail link touched by a
//!   message (every path link carries the flow for `latency + bytes/rate`
//!   starting at the round barrier, exactly as the cost model assumes),
//!   aggregated into piecewise-constant allocated-rate segments;
//! * the fluid path ([`crate::FluidSim::run_probed`]) snapshots the
//!   per-link allocated rate at every water-filling re-solve — rates only
//!   change at solves, so the piecewise-constant segments between
//!   consecutive solves reproduce the engine's exact byte flow.
//!
//! Both feeds resolve links through the same [`RailLinkTable`] the engines
//! use, so multi-rail fabrics are observed per rail, not per aggregate
//! uplink. Attaching a probe never changes a cost: the probed entry points
//! run the identical arithmetic and are property-tested bit-identical to
//! their unprobed twins (`tests/proptests.rs`), and the unprobed paths
//! carry no probe code at all (the same `Option`-check contract the
//! runtime's `run_instrumented` established).
//!
//! From the recorded segments the probe derives utilization timelines
//! ([`CongestionProbe::link_segments`]), per-level/per-rail occupancy
//! ([`CongestionProbe::occupancy`]), a rail-imbalance index
//! ([`CongestionProbe::rail_imbalance`]), top-k hot links
//! ([`CongestionProbe::hot_links`]) and per-level **bound gaps**
//! ([`bound_gap_lockstep`], [`bound_gap_fluid`]): the actual time a level
//! stayed busy versus the [`crate::schedule_lower_bound`] /
//! [`crate::fluid_lower_bound`] contribution of that level, i.e. how much
//! pruning headroom each level leaves the branch-and-bound search. Both
//! gaps are ≥ 0 by the same argument that makes the bounds admissible —
//! property-tested alongside them.
//!
//! Exports (CSV and Perfetto counter tracks) live in `mre_trace`; the
//! `congestion_report` binary in `mre-bench` drives the whole pipeline.

use crate::network::{NetworkModel, RoundProfile};
use crate::rail::RailLinkTable;
use crate::schedule::{Message, Schedule};

/// One piecewise-constant span of allocated rate on a directed rail link.
///
/// Segments of a link never overlap and are stored in increasing time
/// order; `rate` is the *sum* of the rates of all flows traversing the
/// link during `[start, finish)`, in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// Segment start, in simulated seconds.
    pub start: f64,
    /// Segment end, in simulated seconds (`finish > start`).
    pub finish: f64,
    /// Aggregate allocated rate over the segment, bytes per second.
    pub rate: f64,
}

impl RateSegment {
    /// Bytes carried during the segment (`rate · (finish − start)`).
    pub fn bytes(&self) -> f64 {
        self.rate * (self.finish - self.start)
    }
}

/// Lockstep round annotation: where the round sat on the time axis and how
/// long each level stayed busy inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMark {
    /// Round start (sum of the preceding round durations).
    pub start: f64,
    /// Round duration (this round's `round_time`).
    pub duration: f64,
    /// Per level, the time from the round barrier to the last instant any
    /// level-`l` link carried traffic (0.0 when the round has no level-`l`
    /// traffic). Never exceeds `duration`.
    pub level_span: Vec<f64>,
}

/// A link's aggregate usage over a whole probed run, with its decoded
/// identity — the row type of [`CongestionProbe::hot_links`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUsage {
    /// Dense [`RailLinkTable`] link id.
    pub link: u32,
    /// Hierarchy level of the uplink (0 = outermost).
    pub level: usize,
    /// Level-`level` instance the link belongs to.
    pub instance: usize,
    /// `true` for the up (sender-side) direction.
    pub up: bool,
    /// Rail index within the instance's uplink bundle.
    pub rail: usize,
    /// Total time the link carried any traffic, in seconds.
    pub busy: f64,
    /// Total bytes carried (integral of the link's rate segments).
    pub bytes: f64,
}

impl LinkUsage {
    /// Busy time as a fraction of `makespan` (0 for an empty run).
    pub fn busy_fraction(&self, makespan: f64) -> f64 {
        if makespan > 0.0 {
            self.busy / makespan
        } else {
            0.0
        }
    }
}

/// Aggregate occupancy of one (level, rail) slice of the fabric — the row
/// type of [`CongestionProbe::occupancy`].
#[derive(Debug, Clone, PartialEq)]
pub struct RailOccupancy {
    /// Hierarchy level (0 = outermost).
    pub level: usize,
    /// Rail index within the level.
    pub rail: usize,
    /// Total bytes carried by all links of this (level, rail), both
    /// directions.
    pub bytes: f64,
    /// Busy time of the busiest single link of this (level, rail).
    pub peak_busy: f64,
    /// Mean busy time over the links that carried any traffic.
    pub mean_busy: f64,
    /// Number of links of this (level, rail) that carried traffic.
    pub active_links: usize,
}

/// One level's row of a bound-gap report: the admissible per-level bound
/// contribution versus the time the level actually stayed busy.
///
/// `actual ≥ bound` always (the bound is admissible); the difference is
/// the headroom the branch-and-bound search cannot see from the bound
/// alone. A small gap means the level's capacity term is tight — pruning
/// decisions driven by that level are near-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundGap {
    /// Hierarchy level (0 = outermost).
    pub level: usize,
    /// The level's contribution to the lower bound, in seconds.
    pub bound: f64,
    /// Observed busy span chargeable to the level, in seconds.
    pub actual: f64,
}

impl BoundGap {
    /// `actual − bound` (≥ 0 up to rounding).
    pub fn gap(&self) -> f64 {
        self.actual - self.bound
    }
}

/// Time-resolved per-link recorder both cost engines can feed.
///
/// Construct one per run with [`CongestionProbe::new`], hand it to
/// [`NetworkModel::schedule_time_probed`] or
/// [`crate::FluidSim::run_probed`], then read the derived reports. A probe
/// records exactly one run; build a fresh one per experiment.
#[derive(Debug, Clone)]
pub struct CongestionProbe {
    table: RailLinkTable,
    depth: usize,
    /// Per link: non-overlapping rate segments in increasing time order.
    segments: Vec<Vec<RateSegment>>,
    /// Per link: Σ segment bytes (kept incrementally).
    link_bytes: Vec<f64>,
    /// Per link: Σ segment durations (segments never overlap).
    busy: Vec<f64>,
    rounds: Vec<RoundMark>,
    makespan: f64,
    // Fluid-feed epoch state: the allocation opened at `since`.
    cur: Vec<f64>,
    active: Vec<u32>,
    since: f64,
    // Lockstep scratch, reused across rounds.
    scratch: Vec<(u32, f64, f64, f64)>,
    events: Vec<(f64, f64, i32)>,
}

impl CongestionProbe {
    /// A probe sized for `net`'s rail-link table, initially empty.
    pub fn new(net: &NetworkModel) -> Self {
        let table = net.link_table().clone();
        let n = table.num_links();
        Self {
            table,
            depth: net.hierarchy().depth(),
            segments: vec![Vec::new(); n],
            link_bytes: vec![0.0; n],
            busy: vec![0.0; n],
            rounds: Vec::new(),
            makespan: 0.0,
            cur: vec![0.0; n],
            active: Vec::new(),
            since: 0.0,
            scratch: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The link table the probe resolves ids through (identical layout to
    /// the engines' own tables for the same model).
    pub fn table(&self) -> &RailLinkTable {
        &self.table
    }

    /// Number of directed rail links the probe observes.
    pub fn num_links(&self) -> usize {
        self.segments.len()
    }

    /// Hierarchy depth of the observed model.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Simulated end of the probed run (0 before any feed).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// The recorded rate segments of link `link`, in time order.
    pub fn link_segments(&self, link: u32) -> &[RateSegment] {
        &self.segments[link as usize]
    }

    /// Total bytes carried by link `link` (integral of its rate segments).
    pub fn link_bytes(&self, link: u32) -> f64 {
        self.link_bytes[link as usize]
    }

    /// Lockstep round marks, in round order (empty for fluid-fed probes —
    /// the fluid execution has no rounds).
    pub fn rounds(&self) -> &[RoundMark] {
        &self.rounds
    }

    // ------------------------------------------------------------------
    // Lockstep feed
    // ------------------------------------------------------------------

    /// Records one lockstep round: every crossing message occupies each of
    /// its path links at its contended `rate` for `bytes / rate` seconds
    /// starting `latency` after the round barrier; per link the overlapping
    /// message intervals are merged into piecewise-constant aggregate-rate
    /// segments.
    pub(crate) fn record_round(
        &mut self,
        messages: &[Message],
        profile: &RoundProfile,
        start: f64,
        duration: f64,
    ) {
        let k = self.depth;
        let mut mark = RoundMark {
            start,
            duration,
            level_span: vec![0.0; k],
        };
        self.scratch.clear();
        for (i, m) in messages.iter().enumerate() {
            let Some(path) = self.table.path(m.src, m.dst) else {
                continue;
            };
            let (latency, rate) = profile.entries[i];
            let s = start + latency;
            let f = s + m.bytes as f64 / rate;
            for hop in path {
                let span = &mut mark.level_span[hop.level];
                *span = span.max(f - start);
                self.scratch.push((hop.up, s, f, rate));
                self.scratch.push((hop.down, s, f, rate));
            }
        }
        // Per link, merge message intervals into aggregate-rate segments.
        self.scratch
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut i = 0;
        while i < self.scratch.len() {
            let link = self.scratch[i].0;
            let mut end = i;
            while end < self.scratch.len() && self.scratch[end].0 == link {
                end += 1;
            }
            self.events.clear();
            for &(_, s, f, rate) in &self.scratch[i..end] {
                self.events.push((s, rate, 1));
                self.events.push((f, rate, -1));
            }
            self.events
                .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            let mut rate = 0.0f64;
            let mut count = 0i32;
            let mut prev = self.events[0].0;
            for e in 0..self.events.len() {
                let (t, r, d) = self.events[e];
                if t > prev && count > 0 {
                    self.push_segment(link, prev, t, rate);
                }
                if t > prev {
                    prev = t;
                }
                rate += f64::from(d) * r;
                count += d;
            }
            i = end;
        }
        self.rounds.push(mark);
        self.makespan = self.makespan.max(start + duration);
    }

    // ------------------------------------------------------------------
    // Fluid feed
    // ------------------------------------------------------------------

    /// Closes the allocation epoch opened at the previous solve (emitting
    /// one segment per link that carried rate) and starts a new, empty one
    /// at `now`. The engine then declares the new allocation with
    /// [`Self::fluid_add`].
    pub(crate) fn fluid_solve_begin(&mut self, now: f64) {
        let dt = now - self.since;
        let since = self.since;
        let mut active = std::mem::take(&mut self.active);
        for &l in &active {
            let rate = self.cur[l as usize];
            if dt > 0.0 && rate > 0.0 {
                self.push_segment(l, since, now, rate);
            }
            self.cur[l as usize] = 0.0;
        }
        active.clear();
        self.active = active;
        self.since = now;
    }

    /// Adds `rate` to the allocation of link `link` in the epoch opened by
    /// the last [`Self::fluid_solve_begin`].
    pub(crate) fn fluid_add(&mut self, link: u32, rate: f64) {
        let cell = &mut self.cur[link as usize];
        if *cell == 0.0 {
            self.active.push(link);
        }
        *cell += rate;
    }

    /// Finalizes a fluid feed at the engine's makespan: closes the last
    /// epoch (normally already empty — every completion triggers a final
    /// zero-allocation snapshot) and records the makespan.
    pub(crate) fn fluid_finish(&mut self, makespan: f64) {
        self.fluid_solve_begin(makespan);
        self.makespan = self.makespan.max(makespan);
    }

    fn push_segment(&mut self, link: u32, start: f64, finish: f64, rate: f64) {
        debug_assert!(finish > start && rate > 0.0);
        self.link_bytes[link as usize] += rate * (finish - start);
        self.busy[link as usize] += finish - start;
        // A solve that didn't change this link's allocation extends the
        // previous segment instead of splitting it.
        if let Some(last) = self.segments[link as usize].last_mut() {
            if last.finish == start && last.rate == rate {
                last.finish = finish;
                return;
            }
        }
        self.segments[link as usize].push(RateSegment {
            start,
            finish,
            rate,
        });
    }

    // ------------------------------------------------------------------
    // Derived reports
    // ------------------------------------------------------------------

    /// The `k` busiest links, ranked by busy time (ties: bytes, then link
    /// id), links that never carried traffic excluded.
    pub fn hot_links(&self, k: usize) -> Vec<LinkUsage> {
        let mut all: Vec<LinkUsage> = (0..self.num_links() as u32)
            .filter(|&l| self.busy[l as usize] > 0.0)
            .map(|l| self.link_usage(l))
            .collect();
        all.sort_by(|a, b| {
            b.busy
                .total_cmp(&a.busy)
                .then(b.bytes.total_cmp(&a.bytes))
                .then(a.link.cmp(&b.link))
        });
        all.truncate(k);
        all
    }

    /// The decoded usage row of one link.
    pub fn link_usage(&self, link: u32) -> LinkUsage {
        let (level, instance, up, rail) = self.table.decode(link);
        LinkUsage {
            link,
            level,
            instance,
            up,
            rail,
            busy: self.busy[link as usize],
            bytes: self.link_bytes[link as usize],
        }
    }

    /// Occupancy per (level, rail), level-major: total bytes, the busiest
    /// link's busy time, the mean busy time over traffic-carrying links
    /// and their count. Every (level, rail) pair of the fabric appears,
    /// idle ones with zeros.
    pub fn occupancy(&self) -> Vec<RailOccupancy> {
        let rails = self.table.rails().to_vec();
        let mut rows = Vec::new();
        for (level, &nrails) in rails.iter().enumerate() {
            for rail in 0..nrails {
                rows.push(RailOccupancy {
                    level,
                    rail,
                    bytes: 0.0,
                    peak_busy: 0.0,
                    mean_busy: 0.0,
                    active_links: 0,
                });
            }
        }
        let row_of =
            |level: usize, rail: usize| -> usize { rails[..level].iter().sum::<usize>() + rail };
        for l in 0..self.num_links() as u32 {
            if self.busy[l as usize] <= 0.0 {
                continue;
            }
            let (level, _, _, rail) = self.table.decode(l);
            let row = &mut rows[row_of(level, rail)];
            row.bytes += self.link_bytes[l as usize];
            row.peak_busy = row.peak_busy.max(self.busy[l as usize]);
            row.mean_busy += self.busy[l as usize];
            row.active_links += 1;
        }
        for row in &mut rows {
            if row.active_links > 0 {
                row.mean_busy /= row.active_links as f64;
            }
        }
        rows
    }

    /// Rail-imbalance index of `level`: max over rails of the
    /// [`occupancy`](Self::occupancy) bytes, divided by the mean — 1.0
    /// means perfectly striped, `rails` means all traffic on one rail.
    /// Levels with no traffic (or a single rail) report 1.0.
    pub fn rail_imbalance(&self, level: usize) -> f64 {
        let bytes: Vec<f64> = self
            .occupancy()
            .into_iter()
            .filter(|row| row.level == level)
            .map(|row| row.bytes)
            .collect();
        let total: f64 = bytes.iter().sum();
        if total <= 0.0 || bytes.len() == 1 {
            return 1.0;
        }
        let mean = total / bytes.len() as f64;
        bytes.iter().fold(0.0f64, |m, &b| m.max(b)) / mean
    }
}

impl NetworkModel {
    /// [`schedule_time`](Self::schedule_time) with a [`CongestionProbe`]
    /// attached: identical arithmetic (the returned cost is bit-identical
    /// to the unprobed call — property-tested), plus per-round recording
    /// of every link's busy intervals into `probe`.
    pub fn schedule_time_probed(&self, schedule: &Schedule, probe: &mut CongestionProbe) -> f64 {
        debug_assert_eq!(
            probe.num_links(),
            self.link_table().num_links(),
            "probe built for a different network model"
        );
        let mut t = 0.0;
        for r in &schedule.rounds {
            let profile = self.round_profile(&r.messages);
            let duration = profile.time(&r.messages);
            probe.record_round(&r.messages, &profile, t, duration);
            t += duration;
        }
        t
    }
}

/// Per-level bound-gap report of a lockstep run recorded by
/// [`NetworkModel::schedule_time_probed`]: per level, the sum over rounds
/// of the level's capacity-bound term (its contribution to
/// [`schedule_lower_bound`](crate::schedule_lower_bound)) versus
/// the sum of observed per-round busy spans of that level.
///
/// `actual ≥ bound` for every level: a round's level-`l` traffic starts no
/// earlier than the barrier plus the smallest level-`l` crossing latency,
/// and the direction with fewer active links must drain all level-`l`
/// bytes through `active · bandwidth` capacity at most — the admissibility
/// argument of DESIGN.md §7e, made visible per level.
pub fn bound_gap_lockstep(
    net: &NetworkModel,
    schedule: &Schedule,
    probe: &CongestionProbe,
) -> Vec<BoundGap> {
    let k = net.hierarchy().depth();
    assert_eq!(
        probe.rounds().len(),
        schedule.rounds.len(),
        "probe was not fed by this schedule"
    );
    let mut gaps: Vec<BoundGap> = (0..k)
        .map(|level| BoundGap {
            level,
            bound: 0.0,
            actual: 0.0,
        })
        .collect();
    for (round, mark) in schedule.rounds.iter().zip(probe.rounds()) {
        // The aggregate term reads no per-rail row: the cheap walk's load.
        net.with_round_load(&round.messages, false, |load| {
            for (level, gap) in gaps.iter_mut().enumerate() {
                if load.bytes_through[level] > 0 {
                    gap.bound += net.aggregate_level_term(load, level);
                    gap.actual += mark.level_span[level];
                }
            }
        });
    }
    gaps
}

/// Per-level bound-gap report of a fluid run recorded by
/// [`crate::FluidSim::run_probed`]: per level, the pooled aggregate
/// capacity term of [`crate::fluid_lower_bound`] versus the observed time
/// from injection to the last instant any level-`l` link carried rate.
///
/// `actual ≥ bound` for every level, by the aggregate-term admissibility
/// argument (all level-`l` bytes drain through at most `active ·
/// bandwidth` joint capacity, and none before the smallest crossing
/// latency).
pub fn bound_gap_fluid(
    net: &NetworkModel,
    schedules: &[Schedule],
    probe: &CongestionProbe,
) -> Vec<BoundGap> {
    let k = net.hierarchy().depth();
    let mut gaps: Vec<BoundGap> = crate::bound::with_pooled_load::<false, _>(
        net,
        schedules,
        NetworkModel::round_lower_bound_aggregate_from,
        |_, load| {
            (0..k)
                .map(|level| BoundGap {
                    level,
                    bound: net.aggregate_level_term(load, level),
                    actual: 0.0,
                })
                .collect()
        },
    );
    for l in 0..probe.num_links() as u32 {
        let (level, _, _, _) = probe.table().decode(l);
        if let Some(last) = probe.link_segments(l).last() {
            gaps[level].actual = gaps[level].actual.max(last.finish);
        }
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::FluidSim;
    use crate::network::{ContentionMode, LinkParams};
    use crate::rail::RailPolicy;
    use crate::schedule::Round;
    use mre_core::Hierarchy;

    /// Two nodes × two sockets × four cores; NIC 10 B/s, socket 40 B/s,
    /// core 100 B/s (the bound.rs toy).
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

    fn two_round_schedule() -> Schedule {
        Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 100), Message::new(1, 9, 100)]),
            Round::with(vec![Message::new(0, 1, 40), Message::new(4, 5, 40)]),
        ])
    }

    /// Expected per-link byte totals by walking message paths directly —
    /// the independent ledger the probe's segment integrals must match.
    fn expected_link_bytes(net: &NetworkModel, schedules: &[Schedule]) -> Vec<f64> {
        let strides = net.hierarchy().strides();
        let table = RailLinkTable::new(
            net.hierarchy().size(),
            &strides,
            net.rail_counts(),
            net.rail_policy(),
        );
        let mut expected = vec![0.0; table.num_links()];
        for s in schedules {
            for r in &s.rounds {
                for m in &r.messages {
                    if m.src == m.dst {
                        continue;
                    }
                    let j = strides
                        .iter()
                        .position(|&s| m.src / s != m.dst / s)
                        .unwrap();
                    for level in j..strides.len() {
                        for up in [true, false] {
                            let l = table.message_link(level, m.src, m.dst, up);
                            expected[l as usize] += m.bytes as f64;
                        }
                    }
                }
            }
        }
        expected
    }

    fn assert_conserves(probe: &CongestionProbe, expected: &[f64]) {
        for (l, &want) in expected.iter().enumerate() {
            let got: f64 = probe
                .link_segments(l as u32)
                .iter()
                .map(|s| s.bytes())
                .sum();
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "link {l}: integral {got} != routed {want}"
            );
            assert!((probe.link_bytes(l as u32) - want).abs() <= 1e-9 * want.max(1.0));
        }
    }

    #[test]
    fn lockstep_probe_cost_is_bit_identical_and_conserves_bytes() {
        let net = toy();
        let s = two_round_schedule();
        let mut probe = CongestionProbe::new(&net);
        let t = net.schedule_time_probed(&s, &mut probe);
        assert_eq!(t.to_bits(), net.schedule_time(&s).to_bits());
        assert_eq!(probe.rounds().len(), 2);
        assert_eq!(probe.makespan(), t);
        // Round marks tile the time axis.
        let total: f64 = probe.rounds().iter().map(|r| r.duration).sum();
        assert!((total - t).abs() < 1e-12 * t);
        assert_conserves(&probe, &expected_link_bytes(&net, std::slice::from_ref(&s)));
        // Level spans never exceed their round's duration.
        for mark in probe.rounds() {
            for &span in &mark.level_span {
                assert!(span <= mark.duration + 1e-12);
            }
        }
    }

    #[test]
    fn fluid_probe_cost_is_bit_identical_and_conserves_bytes() {
        let net = toy();
        let schedules = vec![two_round_schedule(), two_round_schedule()];
        let unprobed = FluidSim::new(&net).run(&schedules);
        let mut probe = CongestionProbe::new(&net);
        let t = FluidSim::new(&net).run_probed(&schedules, &mut probe);
        assert_eq!(t.to_bits(), unprobed.to_bits());
        assert_eq!(probe.makespan(), t);
        assert!(probe.rounds().is_empty(), "fluid runs have no rounds");
        assert_conserves(&probe, &expected_link_bytes(&net, &schedules));
        // Segments of a link never overlap and stay inside the makespan.
        for l in 0..probe.num_links() as u32 {
            let segs = probe.link_segments(l);
            for w in segs.windows(2) {
                assert!(w[1].start >= w[0].finish - 1e-15);
            }
            if let Some(last) = segs.last() {
                assert!(last.finish <= t + 1e-12 * t);
            }
        }
    }

    /// The level-0 (NIC) rows of [`CongestionProbe::occupancy`], as bytes
    /// per rail.
    fn nic_rail_bytes(probe: &CongestionProbe) -> Vec<f64> {
        let rows = probe.occupancy().into_iter().filter(|row| row.level == 0);
        rows.map(|row| row.bytes).collect()
    }

    #[test]
    fn probes_resolve_rails() {
        let net = toy().with_node_rails(2, RailPolicy::RoundRobin);
        // 0 → 8 rides NIC rail (0+8)%2 = 0, 1 → 8 rides rail 1.
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 100),
            Message::new(1, 8, 300),
        ])]);
        let mut probe = CongestionProbe::new(&net);
        net.schedule_time_probed(&s, &mut probe);
        let rails = nic_rail_bytes(&probe);
        // Each NIC rail appears up (node 0) and down (node 1).
        assert!((rails[0] - 200.0).abs() < 1e-9);
        assert!((rails[1] - 600.0).abs() < 1e-9);
        let imbalance = probe.rail_imbalance(0);
        assert!((imbalance - 600.0 / 400.0).abs() < 1e-12);
        // Single-rail levels and idle levels report neutral imbalance.
        assert_eq!(probe.rail_imbalance(1), 1.0);
        let mut fluid_probe = CongestionProbe::new(&net);
        FluidSim::new(&net).run_probed(std::slice::from_ref(&s), &mut fluid_probe);
        let fluid_rails = nic_rail_bytes(&fluid_probe);
        assert!((fluid_rails[0] - 200.0).abs() < 1e-6);
        assert!((fluid_rails[1] - 600.0).abs() < 1e-6);
    }

    #[test]
    fn hot_links_rank_by_busy_time() {
        let net = toy();
        let s = two_round_schedule();
        let mut probe = CongestionProbe::new(&net);
        net.schedule_time_probed(&s, &mut probe);
        let hot = probe.hot_links(4);
        assert_eq!(hot.len(), 4);
        for w in hot.windows(2) {
            assert!(w[0].busy >= w[1].busy);
        }
        // A flow occupies every link of its path for the same interval,
        // so core 0's uplink matches the NIC's busy time in round 1 *and*
        // adds round 2's core-level copy — the innermost link that shows
        // up in every round is the hot one.
        assert_eq!(hot[0].level, 2);
        assert_eq!((hot[0].instance, hot[0].up), (0, true));
        assert!(hot[0].busy > 0.0 && hot[0].bytes > 0.0);
        // Occupancy rows cover every (level, rail) and ledger the same
        // bytes the links carry.
        let occ = probe.occupancy();
        assert_eq!(occ.len(), 3);
        let total_occ: f64 = occ.iter().map(|o| o.bytes).sum();
        let total_links: f64 = (0..probe.num_links() as u32)
            .map(|l| probe.link_bytes(l))
            .sum();
        assert!((total_occ - total_links).abs() < 1e-9);
    }

    #[test]
    fn bound_gaps_are_nonnegative_and_level_resolved() {
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = toy().with_contention_mode(mode);
            let s = two_round_schedule();
            let mut probe = CongestionProbe::new(&net);
            net.schedule_time_probed(&s, &mut probe);
            let gaps = bound_gap_lockstep(&net, &s, &probe);
            assert_eq!(gaps.len(), 3);
            for g in &gaps {
                assert!(
                    g.gap() >= -1e-12 * g.actual.max(1.0),
                    "level {} actual {} < bound {}",
                    g.level,
                    g.actual,
                    g.bound
                );
            }
            // The toy's round 1 crosses the NIC: that level must carry a
            // positive bound and a positive actual span.
            assert!(gaps[0].bound > 0.0 && gaps[0].actual > 0.0);

            let schedules = vec![two_round_schedule(), two_round_schedule()];
            let mut fp = CongestionProbe::new(&net);
            FluidSim::new(&net).run_probed(&schedules, &mut fp);
            for g in bound_gap_fluid(&net, &schedules, &fp) {
                assert!(
                    g.gap() >= -1e-12 * g.actual.max(1.0),
                    "fluid level {} actual {} < bound {}",
                    g.level,
                    g.actual,
                    g.bound
                );
            }
        }
    }
}
