//! Analysis passes over simulated timelines.
//!
//! All passes consume a [`ScheduleTimeline`] (the per-message temporal
//! reconstruction from `mre-simnet`) and, where level semantics matter, the
//! [`Hierarchy`] it was costed on:
//!
//! * [`critical_path`] — the chain of slowest messages, one per non-empty
//!   round, whose durations sum to the schedule time (rounds are
//!   barrier-synchronized, so the slowest message of each round is exactly
//!   what the next round waits for);
//! * [`level_occupancy`] — per-round time slices with bytes and achieved
//!   rates broken down by crossing level; summed over slices
//!   ([`LevelOccupancy::total_bytes_crossing`]) it is the workspace's one
//!   count of a run's bytes per crossing level;
//! * [`rank_activity`] — per-core busy/idle split over the schedule.
//!
//! [`wall_level_bytes`] is the one pass over *wall-clock* traces: since
//! the instrumented runtime stamps every send with its payload size, the
//! same per-level byte-occupancy breakdown the simulator computes is
//! available for recorded runs too.

use crate::event::{EventKind, Trace};
use mre_core::Hierarchy;
use mre_simnet::{FluidTimeline, ScheduleTimeline};
use std::collections::BTreeMap;

/// One hop of the critical path: the slowest message of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Round index in the schedule.
    pub round: usize,
    /// Sending core of the bottleneck message.
    pub src: usize,
    /// Receiving core of the bottleneck message.
    pub dst: usize,
    /// Payload bytes of the bottleneck message.
    pub bytes: u64,
    /// Start of the round (and of the message).
    pub start: f64,
    /// Finish of the message (== finish of the round).
    pub finish: f64,
    /// Crossing level of the bottleneck message (`None` never occurs for
    /// validated schedules but is kept for symmetry with
    /// [`mre_simnet::MessageTiming`]).
    pub crossing: Option<usize>,
    /// Display name of the crossing level (e.g. `node`), `local` if none.
    pub level_name: String,
}

/// The critical path of a barrier-synchronized schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// One hop per non-empty round, in round order.
    pub hops: Vec<CriticalHop>,
    /// End of the last round — equals
    /// [`ScheduleTimeline::total_time`] and therefore
    /// `NetworkModel::schedule_time` of the same schedule.
    pub total_time: f64,
}

/// Extracts the critical path of `timeline` on `hierarchy`.
///
/// Because rounds are barrier-synchronized, the slowest message of round
/// `i` is what round `i + 1` waits for; chaining those messages gives the
/// unique critical path, and its end time equals the costed schedule time
/// to the last bit.
pub fn critical_path(hierarchy: &Hierarchy, timeline: &ScheduleTimeline) -> CriticalPath {
    let mut hops = Vec::new();
    for (round, r) in timeline.rounds.iter().enumerate() {
        let slowest = r
            .messages
            .iter()
            .max_by(|a, b| a.finish.total_cmp(&b.finish));
        if let Some(m) = slowest {
            hops.push(CriticalHop {
                round,
                src: m.src,
                dst: m.dst,
                bytes: m.bytes,
                start: r.start,
                finish: r.finish,
                crossing: m.crossing,
                level_name: m
                    .crossing
                    .map_or_else(|| "local".to_string(), |j| hierarchy.name(j).to_string()),
            });
        }
    }
    CriticalPath {
        hops,
        total_time: timeline.total_time(),
    }
}

/// The critical path of a **fluid** (barrier-free) multi-job execution.
///
/// Under fluid execution there is no global barrier, but rounds *within*
/// one job are still sequential — so the makespan is set by the
/// last-finishing job, and that job's per-round bottleneck messages form
/// a dependency chain tiling `[first injection, makespan]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidCriticalPath {
    /// Index of the last-finishing job (ties break toward the lowest
    /// index), whose rounds the hops walk.
    pub job: usize,
    /// One hop per non-empty round of that job, in round order.
    pub hops: Vec<CriticalHop>,
    /// The fluid makespan — equals the last hop's finish.
    pub makespan: f64,
}

/// Extracts the critical chain of a fluid execution on `hierarchy`.
///
/// The last-finishing job determines the makespan; within it, the
/// slowest message of round `i` is what round `i + 1` waits for (the
/// engine injects a job's round only once the previous round fully
/// completes), so chaining those messages tiles the job's entire
/// execution. Unlike the lockstep [`critical_path`], the hop durations
/// reflect time-varying rates: other jobs' traffic slows a hop down
/// mid-flight without appearing in the chain itself.
pub fn fluid_critical_path(hierarchy: &Hierarchy, timeline: &FluidTimeline) -> FluidCriticalPath {
    let job = (0..timeline.num_jobs())
        .max_by(|&a, &b| {
            let fin = |j: usize| timeline.job_spans(j).map(|s| s.finish).fold(0.0, f64::max);
            fin(a).total_cmp(&fin(b)).then(b.cmp(&a))
        })
        .unwrap_or(0);
    let spans: Vec<_> = timeline.job_spans(job).collect();
    let mut hops: Vec<CriticalHop> = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        let round = spans[i].round;
        let mut j = i;
        while j < spans.len() && spans[j].round == round {
            j += 1;
        }
        let round_spans = &spans[i..j];
        let start = round_spans
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        let slowest = round_spans
            .iter()
            .max_by(|a, b| a.finish.total_cmp(&b.finish))
            .expect("non-empty round group");
        hops.push(CriticalHop {
            round,
            src: slowest.src,
            dst: slowest.dst,
            bytes: slowest.bytes,
            start,
            finish: slowest.finish,
            crossing: slowest.crossing,
            level_name: slowest
                .crossing
                .map_or_else(|| "local".to_string(), |k| hierarchy.name(k).to_string()),
        });
        i = j;
    }
    FluidCriticalPath {
        job,
        hops,
        makespan: timeline.makespan,
    }
}

/// One time slice (= one round) of the per-level occupancy view.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancySlice {
    /// Round index the slice covers.
    pub round: usize,
    /// Slice start time.
    pub start: f64,
    /// Slice finish time.
    pub finish: f64,
    /// `bytes_crossing[j]` — payload moved during this slice whose
    /// crossing level is `j`; index `k` counts local copies. Summing a
    /// column over all slices gives
    /// [`LevelOccupancy::total_bytes_crossing`].
    pub bytes_crossing: Vec<u64>,
    /// Aggregate achieved rate per crossing level during the slice
    /// (`bytes_crossing[j] / duration`, 0 for empty or zero-length
    /// slices).
    pub rates: Vec<f64>,
}

impl OccupancySlice {
    /// Duration of the slice.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// Time-sliced per-level traffic: when each hierarchy level's links carry
/// bytes, not just how many in total.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelOccupancy {
    /// Display names per crossing level, outermost first, with a final
    /// `local` entry (same indexing as the per-slice vectors).
    pub level_names: Vec<String>,
    /// One slice per round, in round order.
    pub slices: Vec<OccupancySlice>,
}

impl LevelOccupancy {
    /// Fraction of total schedule time during which level `j` carries any
    /// traffic (0 for an empty timeline).
    pub fn busy_fraction(&self, j: usize) -> f64 {
        let total: f64 = self.slices.iter().map(|s| s.duration()).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .slices
            .iter()
            .filter(|s| s.bytes_crossing[j] > 0)
            .map(|s| s.duration())
            .sum();
        // An empty sum is -0.0; normalize so idle levels report +0.0.
        (busy + 0.0) / total
    }

    /// Peak aggregate rate seen on level `j` across all slices.
    pub fn peak_rate(&self, j: usize) -> f64 {
        self.slices.iter().map(|s| s.rates[j]).fold(0.0, f64::max)
    }

    /// Total bytes per crossing level, summed over slices: the whole-run
    /// view of which levels a schedule's traffic crosses (index `k` counts
    /// local copies).
    pub fn total_bytes_crossing(&self) -> Vec<u64> {
        let k = self.level_names.len();
        let mut totals = vec![0u64; k];
        for s in &self.slices {
            for (t, &b) in totals.iter_mut().zip(&s.bytes_crossing) {
                *t += b;
            }
        }
        totals
    }
}

/// Computes the time-sliced per-level occupancy of `timeline` on
/// `hierarchy`.
pub fn level_occupancy(hierarchy: &Hierarchy, timeline: &ScheduleTimeline) -> LevelOccupancy {
    let k = hierarchy.depth();
    let mut level_names: Vec<String> = hierarchy.names().to_vec();
    level_names.push("local".to_string());
    let mut slices = Vec::with_capacity(timeline.rounds.len());
    for (round, r) in timeline.rounds.iter().enumerate() {
        let mut bytes_crossing = vec![0u64; k + 1];
        for m in &r.messages {
            bytes_crossing[m.crossing.unwrap_or(k)] += m.bytes;
        }
        let duration = r.finish - r.start;
        let rates = bytes_crossing
            .iter()
            .map(|&b| {
                if duration > 0.0 {
                    b as f64 / duration
                } else {
                    0.0
                }
            })
            .collect();
        slices.push(OccupancySlice {
            round,
            start: r.start,
            finish: r.finish,
            bytes_crossing,
            rates,
        });
    }
    LevelOccupancy {
        level_names,
        slices,
    }
}

/// Busy/idle breakdown of one core over a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RankBreakdown {
    /// Global core id.
    pub core: usize,
    /// Time the core is endpoint of at least one in-flight message.
    pub busy: f64,
    /// `total_time - busy`: time spent waiting at round barriers.
    pub idle: f64,
    /// Number of messages the core sends or receives.
    pub messages: usize,
}

impl RankBreakdown {
    /// Busy fraction of the total schedule time (0 for empty schedules).
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy + self.idle;
        if total > 0.0 {
            self.busy / total
        } else {
            0.0
        }
    }
}

/// Computes per-core busy/idle splits for every core that appears as a
/// message endpoint, sorted by core id.
///
/// A core is *busy* while at least one of its messages is in flight; busy
/// intervals are unioned, so a core sending and receiving concurrently is
/// not double-counted.
pub fn rank_activity(timeline: &ScheduleTimeline) -> Vec<RankBreakdown> {
    let total = timeline.total_time();
    // Per-core in-flight intervals.
    let mut intervals: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for m in timeline.messages() {
        intervals
            .entry(m.src)
            .or_default()
            .push((m.start, m.finish));
        if m.dst != m.src {
            intervals
                .entry(m.dst)
                .or_default()
                .push((m.start, m.finish));
        }
    }
    intervals
        .into_iter()
        .map(|(core, mut spans)| {
            let messages = spans.len();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
            let mut busy = 0.0;
            let mut current: Option<(f64, f64)> = None;
            for (s, f) in spans {
                match current {
                    Some((cs, cf)) if s <= cf => current = Some((cs, cf.max(f))),
                    Some((cs, cf)) => {
                        busy += cf - cs;
                        current = Some((s, f));
                    }
                    None => current = Some((s, f)),
                }
            }
            if let Some((cs, cf)) = current {
                busy += cf - cs;
            }
            RankBreakdown {
                core,
                busy,
                idle: (total - busy).max(0.0),
                messages,
            }
        })
        .collect()
}

/// Per-level payload byte totals of a *wall-clock* trace, keyed by level
/// name (plus `"local"` for same-core traffic) — the wall-side
/// counterpart of [`LevelOccupancy::total_bytes_crossing`].
///
/// Every [`EventKind::Send`] event's `bytes` arg is attributed to the
/// hierarchy level its endpoints cross; `cores[rank]` maps wall lanes
/// (MPI ranks) to global core ids (identity when empty). Send events
/// without a parsable `bytes` or `dst` arg are skipped.
pub fn wall_level_bytes(
    hierarchy: &Hierarchy,
    trace: &Trace,
    cores: &[usize],
) -> BTreeMap<String, u64> {
    let strides = hierarchy.strides();
    let map = |rank: usize| cores.get(rank).copied().unwrap_or(rank);
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for e in &trace.events {
        if e.kind != EventKind::Send {
            continue;
        }
        let find = |key: &str| {
            e.args
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse::<u64>().ok())
        };
        let (Some(dst), Some(bytes)) = (find("dst"), find("bytes")) else {
            continue;
        };
        let src = map(e.lane);
        let dst = map(dst as usize);
        let level = strides
            .iter()
            .position(|&s| src / s != dst / s)
            .map_or("local", |j| hierarchy.name(j));
        *totals.entry(level.to_string()).or_insert(0) += bytes;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Clock, Event};
    use mre_core::metrics::first_diff_level;
    use mre_core::Permutation;
    use mre_simnet::{LinkParams, Message, MessageTiming, NetworkModel, Round, Schedule};

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

    /// The oracle of [`LevelOccupancy::total_bytes_crossing`]: each
    /// message's bytes at its endpoints' `first_diff_level`, local copies
    /// at index `k`.
    fn bytes_by_first_diff_level(h: &Hierarchy, s: &Schedule) -> Vec<u64> {
        let mut totals = vec![0u64; h.depth() + 1];
        for m in s.rounds.iter().flat_map(|r| &r.messages) {
            totals[first_diff_level(h, m.src, m.dst).unwrap_or(h.depth())] += m.bytes;
        }
        totals
    }

    #[test]
    fn critical_path_chains_round_bottlenecks() {
        let net = toy();
        let s = Schedule::with(vec![
            // Node-crossing (slow) next to an intra-socket (fast) message.
            Round::with(vec![Message::new(0, 8, 100), Message::new(1, 2, 10)]),
            Round::with(vec![Message::new(8, 0, 50)]),
        ]);
        let tl = net.schedule_timeline(&s).unwrap();
        let cp = critical_path(net.hierarchy(), &tl);
        assert_eq!(cp.hops.len(), 2);
        assert_eq!((cp.hops[0].src, cp.hops[0].dst), (0, 8));
        assert_eq!(cp.hops[0].level_name, "node");
        assert_eq!(cp.hops[0].start, 0.0);
        assert_eq!(cp.hops[0].finish, cp.hops[1].start);
        assert_eq!(cp.hops[1].finish, cp.total_time);
        assert_eq!(cp.total_time, net.schedule_time(&s));
        // Hops tile the timeline: durations sum to the total.
        let hop_sum: f64 = cp.hops.iter().map(|h| h.finish - h.start).sum();
        assert!((hop_sum - cp.total_time).abs() < 1e-12);
    }

    #[test]
    fn fluid_critical_path_walks_the_last_finishing_job() {
        let net = toy();
        // Job 0 is long (two node-crossing rounds), job 1 is a quick
        // intra-socket copy — the makespan belongs to job 0.
        let jobs = [
            Schedule::with(vec![
                Round::with(vec![Message::new(0, 8, 100), Message::new(1, 2, 10)]),
                Round::with(vec![Message::new(8, 0, 50)]),
            ]),
            Schedule::with(vec![Round::with(vec![Message::new(4, 5, 10)])]),
        ];
        let tl = mre_simnet::fluid_timeline(&net, &jobs);
        let cp = fluid_critical_path(net.hierarchy(), &tl);
        assert_eq!(cp.job, 0);
        assert_eq!(cp.hops.len(), 2);
        assert_eq!((cp.hops[0].src, cp.hops[0].dst), (0, 8));
        assert_eq!(cp.hops[0].level_name, "node");
        assert_eq!(cp.hops[0].start, 0.0);
        // Rounds of one job are sequential: hops tile [0, makespan].
        assert!((cp.hops[0].finish - cp.hops[1].start).abs() < 1e-12 * cp.makespan);
        assert!((cp.hops[1].finish - cp.makespan).abs() < 1e-12 * cp.makespan);
        assert_eq!(cp.makespan, tl.makespan);
        let hop_sum: f64 = cp.hops.iter().map(|h| h.finish - h.start).sum();
        assert!((hop_sum - cp.makespan).abs() < 1e-9 * cp.makespan);
    }

    #[test]
    fn fluid_critical_path_of_empty_timeline_is_empty() {
        let net = toy();
        let tl = mre_simnet::fluid_timeline(&net, &[]);
        let cp = fluid_critical_path(net.hierarchy(), &tl);
        assert!(cp.hops.is_empty());
        assert_eq!(cp.makespan, 0.0);
    }

    #[test]
    fn occupancy_slices_sum_to_static_utilization() {
        let net = toy();
        let s = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 100), Message::new(1, 2, 10)]),
            Round::with(vec![Message::new(0, 4, 30)]),
        ]);
        let tl = net.schedule_timeline(&s).unwrap();
        let occ = level_occupancy(net.hierarchy(), &tl);
        assert_eq!(
            occ.total_bytes_crossing(),
            bytes_by_first_diff_level(net.hierarchy(), &s)
        );
        assert_eq!(occ.level_names, vec!["node", "socket", "core", "local"]);
        // Node level is busy only during round 0.
        assert!(occ.slices[0].bytes_crossing[0] > 0);
        assert_eq!(occ.slices[1].bytes_crossing[0], 0);
        let frac = occ.busy_fraction(0);
        let expected = occ.slices[0].duration() / tl.total_time();
        assert!((frac - expected).abs() < 1e-12);
        assert!(occ.peak_rate(0) > 0.0);
    }

    #[test]
    fn classifies_crossing_levels() {
        let net = toy();
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 1, 10), // same socket (level 2)
            Message::new(0, 4, 20), // cross socket (level 1)
            Message::new(0, 8, 40), // cross node (level 0)
        ])]);
        let mut tl = net.schedule_timeline(&s).unwrap();
        // Schedules reject self-messages, so the local copy's timing is
        // added by hand.
        let first = tl.rounds[0].messages[0];
        tl.rounds[0].messages.push(MessageTiming {
            src: 5,
            dst: 5,
            bytes: 80,
            crossing: None,
            ..first
        });
        let totals = level_occupancy(net.hierarchy(), &tl).total_bytes_crossing();
        assert_eq!(totals, vec![40, 20, 10, 80]);
        assert_eq!(totals.iter().sum::<u64>(), tl.total_bytes());
    }

    #[test]
    fn packed_alltoall_never_touches_the_nic() {
        // The §4.1.3 explanation of packed invariance, as bookkeeping:
        // a socket-packed communicator's alltoall crosses no node link.
        use mre_core::subcomm::{subcommunicators, ColorScheme};
        let net = mre_simnet::presets::hydra_network(16, 1);
        let hydra = net.hierarchy();
        let totals = |order: &str, rounds: usize| {
            let layout = subcommunicators(
                hydra,
                &Permutation::parse(order).unwrap(),
                16,
                ColorScheme::Quotient,
            )
            .unwrap();
            let members = layout.members(0);
            let mut s = Schedule::new();
            for r in 1..=rounds {
                let mut round = Round::new();
                for (i, &src) in members.iter().enumerate() {
                    round.push(Message::new(src, members[(i + r) % members.len()], 100));
                }
                s.push(round);
            }
            let tl = net.schedule_timeline(&s).unwrap();
            level_occupancy(hydra, &tl).total_bytes_crossing()
        };
        let packed = totals("3-2-1-0", 15);
        assert_eq!(packed[0], 0, "no node-level traffic");
        assert_eq!(packed[1], 0, "no socket-level traffic either");
        // Everything stays inside socket 0: the outermost crossing is the
        // fake-group level.
        assert_eq!(packed.iter().position(|&b| b > 0), Some(2));
        // The spread order pushes everything across nodes.
        let spread = totals("0-1-2-3", 1);
        assert_eq!(spread[0], 1600);
        assert_eq!(spread.iter().position(|&b| b > 0), Some(0));
    }

    #[test]
    fn empty_schedule() {
        let net = toy();
        let tl = net.schedule_timeline(&Schedule::new()).unwrap();
        let occ = level_occupancy(net.hierarchy(), &tl);
        assert_eq!(occ.total_bytes_crossing(), vec![0, 0, 0, 0]);
        assert_eq!(occ.busy_fraction(0), 0.0);
        assert_eq!(occ.peak_rate(0), 0.0);
    }

    #[test]
    fn rank_activity_unions_overlapping_intervals() {
        let net = toy();
        // Core 0 sends and receives in the same round: one busy interval.
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 100),
            Message::new(9, 0, 100),
        ])]);
        let tl = net.schedule_timeline(&s).unwrap();
        let acts = rank_activity(&tl);
        let core0 = acts.iter().find(|a| a.core == 0).unwrap();
        assert_eq!(core0.messages, 2);
        assert!(core0.busy <= tl.total_time() + 1e-12);
        // Both of core 0's messages span distinct sub-intervals of the
        // round; busy is the union, not the sum.
        let sum: f64 = tl
            .messages()
            .filter(|m| m.src == 0 || m.dst == 0)
            .map(|m| m.duration())
            .sum();
        assert!(core0.busy < sum);
        assert!((core0.busy + core0.idle - tl.total_time()).abs() < 1e-12);
        assert!(core0.busy_fraction() > 0.0 && core0.busy_fraction() <= 1.0);
    }

    #[test]
    fn wall_level_bytes_classifies_crossings() {
        let h = Hierarchy::new(vec![2, 2, 4]).unwrap();
        let mut trace = Trace::new(Clock::Wall);
        let send = |rank: usize, dst: usize, bytes: u64| Event {
            lane: rank,
            name: format!("send -> {dst}"),
            kind: EventKind::Send,
            start: 0.0,
            finish: 0.0,
            args: vec![
                ("dst".to_string(), dst.to_string()),
                ("bytes".to_string(), bytes.to_string()),
            ],
        };
        // Ranks 0..4 on cores 0, 1, 4, 8 of ⟦2,2,4⟧ (strides 8, 4, 1).
        let cores = vec![0, 1, 4, 8];
        trace.events = vec![
            send(0, 1, 100), // cores 0→1: innermost level
            send(0, 2, 10),  // cores 0→4: middle level
            send(0, 3, 1),   // cores 0→8: outermost level
        ];
        let totals = wall_level_bytes(&h, &trace, &cores);
        assert_eq!(totals.get(h.name(2)), Some(&100));
        assert_eq!(totals.get(h.name(1)), Some(&10));
        assert_eq!(totals.get(h.name(0)), Some(&1));
        // Identity mapping when `cores` is empty.
        let totals = wall_level_bytes(&h, &trace, &[]);
        assert_eq!(totals.values().sum::<u64>(), 111);
    }

    #[test]
    fn empty_timeline_analyses_are_empty() {
        let net = toy();
        let tl = net.schedule_timeline(&Schedule::new()).unwrap();
        assert!(critical_path(net.hierarchy(), &tl).hops.is_empty());
        assert_eq!(critical_path(net.hierarchy(), &tl).total_time, 0.0);
        let occ = level_occupancy(net.hierarchy(), &tl);
        assert!(occ.slices.is_empty());
        assert_eq!(occ.busy_fraction(0), 0.0);
        assert!(rank_activity(&tl).is_empty());
    }
}
