//! Fluid event-driven network simulation.
//!
//! The lockstep model ([`NetworkModel::concurrent_time`]) synchronizes
//! round `i` of every communicator — a pessimistic barrier that real MPI
//! does not have: independent communicators progress at their own pace and
//! only their *own* round structure orders their messages.
//!
//! The fluid simulator removes the cross-communicator barrier. Each
//! schedule is a job whose rounds execute in sequence; all messages of all
//! currently-active rounds share the network max-min fairly; whenever a
//! round completes (all its messages have transferred) the owning job
//! starts its next round and the rates are re-solved. This is the standard
//! fluid-flow approximation of packet networks, driven by completion
//! events.
//!
//! Latency is modeled as a per-message head delay during which the message
//! consumes no bandwidth.
//!
//! # The incremental engine
//!
//! [`FluidSim`] is the event-heap formulation of that model. The original
//! solver (kept verbatim as the test-only oracle `fluid_time_reference`)
//! rebuilds a `flows: Vec<Vec<usize>>` table, re-solves max-min
//! rates over *every* flight, and linearly scans all flights for the next
//! event — at *every* completion, O(events × flows × path-len). The
//! engine instead maintains all of it across events:
//!
//! * **Persistent link ↔ flow adjacency.** Each directed link keeps the
//!   list of flights currently consuming bandwidth through it (swap-remove
//!   with back-pointers, O(path) per join/retire) — the same per-link flow
//!   lists the incremental [`max_min_rates`](crate::max_min_rates)
//!   solver builds in CSR form, except never rebuilt. Rates are re-solved
//!   (a lazy-heap water-fill over the *active* links only) exclusively
//!   when the bandwidth-consuming flow set changes; events that touch only
//!   local copies solve nothing.
//! * **Row-read paths.** A flight's crossing level and link path come
//!   from the model's per-core [`RailLinkTable`] rows — a few additions
//!   per level, cheaper than looking the pair up in a `(src, dst)` memo —
//!   and are written into a per-run arena parallel to the flights'
//!   back-pointer slots.
//! * **Solve-time prediction scan.** Each transferring flight carries its
//!   predicted finish; a solve re-predicts only the flights whose rate
//!   actually changed and tracks the minimum while it freezes them (the
//!   freeze pass visits every active flight exactly once, so the minimum
//!   costs nothing extra). Rates change *only* at solves, so that minimum
//!   stays valid until the next solve — no event needs to be queued per
//!   rate change. The event heap holds only *exact* events — latency
//!   expiries and fixed-rate local copies — which are never invalidated.
//!   (A versioned-heap variant that pushed a fresh completion event per
//!   rate change was tried first: on contended instances nearly every
//!   solve perturbs nearly every rate, and the ~O(events × flows) stale
//!   entries made the heap itself the bottleneck.) Events at the same
//!   instant are drained as one batch with a single re-solve, which
//!   collapses the per-message event storm of symmetric rounds.
//!
//! # One flight per symmetry class
//!
//! The paper's protocol runs the same collective in every subcommunicator
//! at once, and on digit-box layouts those communicators are translates of
//! each other. [`FluidSim`] then simulates one flight per *class* — the
//! messages with the same `(round, seq)` in every job — instead of one per
//! message. At the start of a run it builds the job set's
//! [`TranslationCertificate`] ([`of_jobs`](TranslationCertificate::of_jobs)
//! reads each job's core map off its messages), the one symmetry rule
//! the lockstep engine uses too: the grouping is an equitable partition
//! exactly when the certificate is issued, and then every link job 0 uses
//! carries `n(l)` copies of its flows (DESIGN.md §7j).
//!
//! *Soundness.* Give every member of a class the class's rate. A link's
//! load is then a function of its flow multiset, so links with equal
//! multisets carry equal loads, and each member of a class is bottlenecked
//! exactly where job 0's member is: a max-min fair allocation of job 0's
//! flights on job 0's links, with each link counted `n(l)` times, is
//! max-min fair for the whole set, and max-min allocations are unique. So
//! the water-fill runs over job 0's flights only: `nflows` and `wcount`
//! move by `n(l)`, and a freeze replays `remaining -= share` `n(l)` times
//! — never `n(l) · share` — so each link sees the full solve's
//! subtractions, value for value. That the floating-point bits match as
//! well is tested rather than proven: every rate, prediction, event time
//! and counter equals the full solve's on random box layouts (a unit test
//! against the trivial partition) and on a corpus digest recorded before
//! the reduction (`tests/fluid_classes.rs`, which also checks the
//! certificate against a direct link-map oracle).
//! [`FluidStats`] scales events, flights and repredictions by the class
//! size, and [`run_timeline`](FluidSim::run_timeline) expands each class
//! back into its member messages' spans.
//!
//! A set the certificate refuses — source-hash railing whose owners hash
//! apart, ragged Alltoallv volumes, non-box layouts — runs on the trivial
//! partition (every `m = 1`), which is the same engine, one flight per
//! message. [`run_probed`](FluidSim::run_probed) always does: the probe
//! sums rates per link in the full engine's flow order.
//!
//! Tolerances are **relative**: a flight's residual byte count is snapped
//! to zero only below `payload × 1e-12`, and latency is tracked as an
//! absolute expiry time rather than a decremented remainder — the old
//! absolute `bytes_left <= 1e-9` retire check silently finished byte-scale
//! payloads on slow links early (see the regression test).
//!
//! Properties (tested):
//! * single schedule ⇒ identical to the round-based cost;
//! * multiple schedules ⇒ usually faster than the lockstep cost, and
//!   always at least the longest job's isolated cost. (Removing barriers
//!   is not a strict improvement: a barrier occasionally avoids convoy
//!   sharing, so tiny excesses over lockstep are possible and allowed.)
//! * work conservation: no traversed link is ever oversubscribed
//!   ([`FluidStats::peak_link_utilization`]);
//! * the engine agrees with the `fluid_time_reference` oracle to 1e-9
//!   relative, also on the paper's 1024-core Splatt-like instance;
//! * a class-quotient run equals the trivial-partition run bit for bit:
//!   makespan, counters and every span.

use crate::certificate::TranslationCertificate;
use crate::congestion::CongestionProbe;
use crate::network::NetworkModel;
use crate::rail::RailLinkTable;
use crate::schedule::Schedule;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Residual-byte snap tolerance, relative to the flight's payload size.
const REL_BYTES_EPS: f64 = 1e-12;

const NO_POS: u32 = u32::MAX;

/// Tag bit marking a `busy_pos` entry as an index into `solo` rather
/// than `seed_cands`. `NO_POS` also has the bit set — test it first.
const SOLO_TAG: u32 = 1 << 31;

/// Counters of one or more [`FluidSim`] runs — how much work the full
/// solve does, for benchmarks and regression attribution. A run solved
/// on a class quotient (see the module docs) reports the full job set's
/// counts, so they do not depend on whether the reduction was taken;
/// [`reduced_runs`](Self::reduced_runs) says whether it was.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FluidStats {
    /// Completion / latency-expiry events processed.
    pub events: u64,
    /// Max-min rate solves performed (≤ events: same-instant batches and
    /// local-copy-only events share or skip solves).
    pub solves: u64,
    /// Flights (messages) simulated.
    pub flights: u64,
    /// Finish-time re-predictions issued (rate changes observed by a
    /// solve); flights whose rate a solve left unchanged keep their
    /// existing prediction.
    pub repredictions: u64,
    /// Largest observed `allocated / capacity` over all links and solves —
    /// feasibility demands this never meaningfully exceeds 1.
    pub peak_link_utilization: f64,
    /// Runs solved on a class quotient: one flight per class of
    /// translated messages instead of one per message (see the module
    /// docs). `events`, `flights` and `repredictions` still count every
    /// member message, so they equal the full solve's counts.
    pub reduced_runs: u64,
}

/// One message's span in a fluid execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidMessageSpan {
    /// Index of the owning job (schedule) in the simulated batch.
    pub job: usize,
    /// Round index within the owning schedule.
    pub round: usize,
    /// Position of the message within its round.
    pub seq: usize,
    /// Sending core (global sequential id).
    pub src: usize,
    /// Receiving core (global sequential id).
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Simulated time the message was injected (= its round's start; a
    /// job's round `i + 1` starts exactly when its round `i` finishes).
    pub start: f64,
    /// Simulated time the last byte arrived.
    pub finish: f64,
    /// Hierarchy level of the outermost coordinate difference between the
    /// endpoints (`None` for self-messages, which use the local copy rate).
    pub crossing: Option<usize>,
    /// Rail the message occupied on its crossing-level sender-side uplink
    /// (`None` for self-messages; always `Some(0)` on single-rail models).
    pub rail: Option<usize>,
}

impl FluidMessageSpan {
    /// Wall duration of the message on the simulated clock.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// The full per-message temporal reconstruction of a fluid execution —
/// the barrier-free counterpart of
/// [`ScheduleTimeline`](crate::timeline::ScheduleTimeline). Unlike the
/// lockstep timeline, rounds of *different* jobs overlap freely; within a
/// job, rounds still execute in sequence (span starts are round starts).
#[derive(Debug, Clone, PartialEq)]
pub struct FluidTimeline {
    /// All message spans, sorted by `(job, round, seq)`.
    pub spans: Vec<FluidMessageSpan>,
    /// The simulated makespan — identical to [`fluid_time`] of the same
    /// inputs (and equal to the last span's finish when any span exists).
    pub makespan: f64,
    /// Engine work counters of this run.
    pub stats: FluidStats,
}

impl FluidTimeline {
    /// Largest span finish (0 when there are no spans).
    pub fn last_finish(&self) -> f64 {
        self.spans.iter().map(|s| s.finish).fold(0.0, f64::max)
    }

    /// Number of simulated messages.
    pub fn num_messages(&self) -> usize {
        self.spans.len()
    }

    /// Sum of payload bytes over all spans.
    pub fn total_bytes(&self) -> u64 {
        self.spans.iter().map(|s| s.bytes).sum()
    }

    /// Spans of one job, in `(round, seq)` order.
    pub fn job_spans(&self, job: usize) -> impl Iterator<Item = &FluidMessageSpan> {
        self.spans.iter().filter(move |s| s.job == job)
    }

    /// Number of jobs that contributed at least one span.
    pub fn num_jobs(&self) -> usize {
        self.spans.iter().map(|s| s.job + 1).max().unwrap_or(0)
    }
}

/// An *exact* event — a latency expiry or a fixed-rate local-copy
/// completion. Link-crossing completions are found by the prediction
/// scan instead, because their times shift with every rate solve.
#[derive(Debug, Clone, Copy)]
struct Ev {
    time: f64,
    flight: u32,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.flight.cmp(&other.flight))
    }
}

/// A water-fill heap candidate (the lazy-heap design of
/// [`max_min_rates`](crate::max_min_rates), reused for the per-event
/// re-solves). The heap holds at most one entry per link, so staleness
/// needs no version counter: a popped entry whose share no longer
/// matches the link's current `remaining / wcount` is simply re-pushed
/// up to date (shares only grow as flows freeze, so the pop order stays
/// correct).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    share: f64,
    link: u32,
}

/// Per-link state, packed for cache locality — the water-fill freeze
/// pass hits `remaining`/`wcount` at random link indices, hot.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    /// Unallocated capacity (water-fill scratch).
    remaining: f64,
    /// Link capacity (fixed at interning).
    capacity: f64,
    /// Unfrozen flows still traversing the link (water-fill scratch).
    wcount: u32,
    /// Current number of flows through the link — `link_flows[l].len()`,
    /// mirrored here so solve seeding never chases the `Vec` header.
    nflows: u32,
    /// Solve epoch of the scratch fields; a solve resets them lazily on
    /// first touch instead of sweeping every busy link up front.
    epoch: u64,
}

/// Lazily resets a link's water-fill scratch at its first touch in the
/// solve of `epoch`.
#[inline]
fn fresh(ls: &mut LinkState, epoch: u64) {
    if ls.epoch != epoch {
        ls.epoch = epoch;
        ls.remaining = ls.capacity;
        ls.wcount = ls.nflows;
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.share
            .total_cmp(&other.share)
            .then_with(|| self.link.cmp(&other.link))
    }
}

/// Cold per-flight state: identity, payload, and bookkeeping that only
/// join/leave/retire touch. The fields the per-solve freeze pass and the
/// completion prediction scan sweep live in [`FlightHot`] instead, so
/// those hot loops pull one packed cache line per flight.
struct Flight {
    job: u32,
    round: u32,
    seq: u32,
    /// Crossing level, or -1 for a self-message.
    crossing: i32,
    /// Injection time (the owning round's start), for the timeline.
    injected: f64,
    /// Position in the `transferring` list (NO_POS while not in it).
    tpos: u32,
    /// True until the head latency expires (no bandwidth consumed).
    in_latency: bool,
    alive: bool,
}

/// Hot per-flight state, indexed in lockstep with `flights`: everything
/// the water-fill freeze pass reads or writes per flight, packed into 48
/// bytes.
#[derive(Clone, Copy)]
struct FlightHot {
    /// Current allocated rate; local copies carry the local rate, flights
    /// awaiting their first solve carry -1 (never folded).
    rate: f64,
    /// Remaining payload bytes as of `last_update`.
    bytes_left: f64,
    /// Simulated time `bytes_left` was last folded.
    last_update: f64,
    /// Predicted finish as of the last solve that changed the rate; valid
    /// only while the flight is transferring (rates change only at
    /// solves, so the prediction holds until the next one).
    predicted: f64,
    /// Absolute byte-snap threshold, `bytes * REL_BYTES_EPS` precomputed.
    snap: f64,
    /// Range into the per-run path arena (dense directed-link ids) and,
    /// at the same offsets, into the `link_pos` back-pointer arena (the
    /// flight's position in `link_flows[path[k]]` for each path slot `k`).
    path_start: u32,
    path_len: u32,
    /// Solve epoch that froze this flight last (the visited-mark of the
    /// freeze pass), kept inside the hot record so the pass touches one
    /// cache line per flight. `u32` with a clear-on-wrap guard in
    /// [`FluidSim::fill`].
    epoch: u32,
}

/// The persistent incremental fluid engine. Construct once per network
/// model and [`run`](Self::run) any number of schedule batches — the
/// pre-interned link state and the per-link flow lists survive across
/// runs, which is what a cost oracle evaluated thousands of times
/// by an order sweep wants. [`stats`](Self::stats) accumulates over all
/// runs.
pub struct FluidSim<'a> {
    net: &'a NetworkModel,
    local_rate: f64,
    /// The model's level-major directed rail-link table
    /// ([`NetworkModel::link_table`]): the id of
    /// `(level, instance, up, rail)` is
    /// `level_offset[level] + (2·instance + up)·rails[level] + rail`.
    /// Outer levels get the low ids, so the shared links every solve
    /// touches sit in one dense cache-hot prefix of
    /// [`lstate`](Self::lstate) while the per-core leaf links (numerous,
    /// almost always solo) fill the tail. At one rail per level the ids
    /// are bit-identical to the pre-rail layout.
    table: &'a RailLinkTable,
    /// Per-link capacity, flow count, and water-fill scratch.
    lstate: Vec<LinkState>,
    /// Per-run arena of flight paths (see [`FlightHot::path_start`]).
    path_arena: Vec<u32>,
    /// The current run's link multiplicities, per model link id: how
    /// many member flows of a class cross each link job 0 uses. Empty on
    /// the trivial partition, where every multiplicity is 1.
    link_mult: Vec<u32>,
    /// Messages per flight class in the current run: the job count when
    /// the run is solved on the class quotient, 1 otherwise.
    class_size: usize,
    // Per-run simulation state.
    flights: Vec<Flight>,
    /// Hot freeze-pass fields, parallel to `flights`.
    flights_hot: Vec<FlightHot>,
    events: BinaryHeap<Reverse<Ev>>,
    /// Per-link active flights: `(flight id, slot in its path)`.
    link_flows: Vec<Vec<(u32, u32)>>,
    /// One up-to-date seed candidate (`capacity / nflows`) per *shared*
    /// busy link (two or more flows), maintained incrementally at
    /// join/leave so a solve only memcpys and heapifies instead of
    /// sweeping every busy link.
    seed_cands: Vec<Reverse<Candidate>>,
    /// Busy links carrying exactly one flow, kept out of the solve seed:
    /// on fabrics with fat endpoint links they are the bulk of the busy
    /// set yet almost never bind. A solo link *can* bind only at a
    /// water level at or above its capacity, so a fill whose shares all
    /// stay below [`solo_cap_min`](Self::solo_cap_min) is exact without
    /// them; otherwise [`fill`](Self::fill) restarts with the full seed.
    solo: Vec<u32>,
    /// Conservative (never raised between full fills) lower bound on the
    /// capacities of the links in `solo`.
    solo_cap_min: f64,
    /// Per-link position in `seed_cands` (shared links), or in `solo`
    /// tagged with [`SOLO_TAG`] (solo links), or [`NO_POS`] (idle links).
    busy_pos: Vec<u32>,
    /// Flights currently consuming bandwidth (swap-remove list).
    transferring: Vec<u32>,
    /// Back-pointer arena, parallel to `path_arena`.
    link_pos: Vec<u32>,
    /// Minimum predicted finish over `transferring`, maintained by
    /// [`resolve`](Self::resolve); infinite when nothing transfers.
    next_completion: f64,
    /// Scratch for collecting the flights of one completion batch.
    completions: Vec<u32>,
    outstanding: Vec<usize>,
    next_round: Vec<usize>,
    // Water-fill scratch epoch (also stamped into `FlightHot` / link
    // state so per-solve resets are lazy).
    epoch: u64,
    cheap: BinaryHeap<Reverse<Candidate>>,
    stats: FluidStats,
}

impl<'a> FluidSim<'a> {
    /// Builds an engine over `net` with empty caches.
    pub fn new(net: &'a NetworkModel) -> Self {
        // Every directed rail-link is pre-interned level-major (outermost
        // first) by the model's table: ids are pure arithmetic and the busy
        // shared links cluster at the front of `lstate` instead of
        // interleaving with the per-core links in path-discovery order.
        let size = net.hierarchy().size();
        let table = net.link_table();
        let mut lstate = Vec::with_capacity(table.num_links());
        for (level, &stride) in table.strides().iter().enumerate() {
            let capacity = net.links()[level].uplink_bandwidth;
            let count = 2 * (size / stride) * net.rail_counts()[level];
            lstate.extend((0..count).map(|_| LinkState {
                remaining: 0.0,
                capacity,
                wcount: 0,
                nflows: 0,
                epoch: 0,
            }));
        }
        debug_assert_eq!(lstate.len(), table.num_links());
        let links = lstate.len();
        Self {
            net,
            local_rate: net.calibrated_local_rate(),
            table,
            lstate,
            path_arena: Vec::new(),
            link_mult: Vec::new(),
            class_size: 1,
            flights: Vec::new(),
            flights_hot: Vec::new(),
            events: BinaryHeap::new(),
            link_flows: vec![Vec::new(); links],
            seed_cands: Vec::new(),
            solo: Vec::new(),
            solo_cap_min: f64::INFINITY,
            busy_pos: vec![NO_POS; links],
            transferring: Vec::new(),
            link_pos: Vec::new(),
            next_completion: f64::INFINITY,
            completions: Vec::new(),
            outstanding: Vec::new(),
            next_round: Vec::new(),
            epoch: 0,
            cheap: BinaryHeap::new(),
            stats: FluidStats::default(),
        }
    }

    /// Work counters accumulated over every run of this engine.
    pub fn stats(&self) -> FluidStats {
        self.stats
    }

    /// Simulates `schedules` concurrently (no cross-schedule barriers) and
    /// returns the makespan. Semantics are identical to the test-only
    /// `fluid_time_reference` oracle up to floating-point reassociation.
    pub fn run(&mut self, schedules: &[Schedule]) -> f64 {
        self.execute(schedules, None, None, true)
    }

    /// Like [`run`](Self::run), but feeds `probe` a piecewise-constant
    /// per-link allocated-rate timeline: rates only change at water-fill
    /// solves, so snapshotting the allocation at every solve (and a final
    /// zero-allocation snapshot when the last flow drains) reproduces the
    /// engine's exact byte flow per link. The returned makespan is
    /// bit-identical to the unprobed [`run`](Self::run).
    ///
    /// A probed run always uses the trivial partition: the probe sums the
    /// rates on each link in the full engine's flow order, and
    /// reproducing that order from a quotient would cost as much as the
    /// full solve.
    pub fn run_probed(&mut self, schedules: &[Schedule], probe: &mut CongestionProbe) -> f64 {
        debug_assert_eq!(
            probe.num_links(),
            self.table.num_links(),
            "probe built for a different network model"
        );
        self.execute(schedules, None, Some(probe), false)
    }

    /// Like [`run`](Self::run), but records every message's span.
    pub fn run_timeline(&mut self, schedules: &[Schedule]) -> FluidTimeline {
        self.timeline(schedules, true)
    }

    fn timeline(&mut self, schedules: &[Schedule], reduce: bool) -> FluidTimeline {
        let before = self.stats;
        let mut spans = Vec::new();
        let makespan = self.execute(schedules, Some(&mut spans), None, reduce);
        spans.sort_by_key(|a| (a.job, a.round, a.seq));
        let after = self.stats;
        FluidTimeline {
            spans,
            makespan,
            stats: FluidStats {
                events: after.events - before.events,
                solves: after.solves - before.solves,
                flights: after.flights - before.flights,
                repredictions: after.repredictions - before.repredictions,
                peak_link_utilization: after.peak_link_utilization,
                reduced_runs: after.reduced_runs - before.reduced_runs,
            },
        }
    }

    /// One run. With `reduce`, a job set that earns a
    /// [`TranslationCertificate`] is solved on job 0's flights with the
    /// certificate's link multiplicities; any other set runs on the
    /// trivial partition, one flight per message.
    fn execute(
        &mut self,
        schedules: &[Schedule],
        mut record: Option<&mut Vec<FluidMessageSpan>>,
        mut probe: Option<&mut CongestionProbe>,
        reduce: bool,
    ) -> f64 {
        let before = self.stats;
        // Reset per-run state; caches persist.
        self.flights.clear();
        self.flights_hot.clear();
        self.events.clear();
        let shared = self.seed_cands.iter().map(|&Reverse(c)| c.link);
        for l in shared.chain(self.solo.iter().copied()) {
            self.link_flows[l as usize].clear();
            self.lstate[l as usize].nflows = 0;
            self.busy_pos[l as usize] = NO_POS;
        }
        self.seed_cands.clear();
        self.solo.clear();
        self.solo_cap_min = f64::INFINITY;
        self.transferring.clear();
        self.path_arena.clear();
        self.link_pos.clear();
        self.link_mult = if reduce {
            TranslationCertificate::of_jobs(self.table, schedules).into_mults()
        } else {
            Vec::new()
        };
        self.class_size = if self.link_mult.is_empty() {
            1
        } else {
            schedules.len()
        };
        let jobs = if self.class_size > 1 {
            1
        } else {
            schedules.len()
        };
        self.next_completion = f64::INFINITY;
        self.outstanding.clear();
        self.outstanding.resize(jobs, 0);
        self.next_round.clear();
        self.next_round.resize(jobs, 0);

        let mut needs = false;
        for job in 0..jobs {
            needs |= self.start_round(job, schedules, 0.0);
        }
        if needs && !self.transferring.is_empty() {
            self.resolve(0.0);
        }
        if needs {
            if let Some(p) = probe.as_deref_mut() {
                self.feed_probe(p, 0.0);
            }
        }
        let mut now = 0.0f64;
        loop {
            let heap_next = self
                .events
                .peek()
                .map_or(f64::INFINITY, |&Reverse(ev)| ev.time);
            let t = heap_next.min(self.next_completion);
            if !t.is_finite() {
                break;
            }
            now = t;
            let mut needs = false;
            // Drain every event at this instant as one batch, then solve
            // once; symmetric rounds complete as a single batch.
            while let Some(&Reverse(ev)) = self.events.peek() {
                if ev.time > now {
                    break;
                }
                self.events.pop();
                self.stats.events += 1;
                needs |= self.process(ev.flight, now, schedules, &mut record);
            }
            if self.next_completion <= now {
                // Link-crossing completions of this instant, from the
                // prediction scan (every prediction is ≥ `now`, so the
                // comparison is exact).
                self.completions.clear();
                for &fid in &self.transferring {
                    if self.flights_hot[fid as usize].predicted <= now {
                        self.completions.push(fid);
                    }
                }
                self.completions.sort_unstable();
                let batch = std::mem::take(&mut self.completions);
                for &fid in &batch {
                    self.stats.events += 1;
                    self.complete(fid, now, schedules, &mut record);
                }
                self.completions = batch;
                self.next_completion = f64::INFINITY;
                needs = true;
            }
            if needs && !self.transferring.is_empty() {
                self.resolve(now);
            }
            if needs {
                if let Some(p) = probe.as_deref_mut() {
                    self.feed_probe(p, now);
                }
            }
        }
        if let Some(p) = probe {
            p.fluid_finish(now);
        }
        debug_assert!(self.flights.iter().all(|f| !f.alive));
        if self.class_size > 1 {
            // Every member message of a class had its own events,
            // flight and repredictions in the full solve.
            let k = self.class_size as u64;
            let s = &mut self.stats;
            s.events = before.events + (s.events - before.events) * k;
            s.flights = before.flights + (s.flights - before.flights) * k;
            s.repredictions = before.repredictions + (s.repredictions - before.repredictions) * k;
            s.reduced_runs += 1;
        }
        now
    }

    /// Snapshots the current per-link allocation into `probe` at `now`:
    /// closes the epoch opened at the previous solve and declares every
    /// transferring flight's frozen rate on every link of its path. Called
    /// only when a probe is attached and the flow set changed — the
    /// unprobed path pays a single `Option` check per event batch.
    fn feed_probe(&self, probe: &mut CongestionProbe, now: f64) {
        probe.fluid_solve_begin(now);
        for &fid in &self.transferring {
            let f = &self.flights_hot[fid as usize];
            if f.rate <= 0.0 {
                continue;
            }
            let path = &self.path_arena[f.path_start as usize..][..f.path_len as usize];
            for &l in path {
                probe.fluid_add(l, f.rate);
            }
        }
    }

    /// Handles one heap event — a latency expiry or a local-copy
    /// completion; returns whether the bandwidth-consuming flow set
    /// changed (⇒ rates need re-solving).
    fn process(
        &mut self,
        flight: u32,
        now: f64,
        schedules: &[Schedule],
        record: &mut Option<&mut Vec<FluidMessageSpan>>,
    ) -> bool {
        let fi = flight as usize;
        if self.flights[fi].in_latency {
            // Head latency expired: join the bandwidth-consuming set. The
            // rate stays at the -1 sentinel until the batch's solve.
            self.flights[fi].in_latency = false;
            self.flights_hot[fi].last_update = now;
            self.join_links(flight);
            return true;
        }
        self.complete(flight, now, schedules, record)
    }

    /// Retires a finished flight; returns whether the bandwidth-consuming
    /// flow set changed.
    fn complete(
        &mut self,
        flight: u32,
        now: f64,
        schedules: &[Schedule],
        record: &mut Option<&mut Vec<FluidMessageSpan>>,
    ) -> bool {
        let fi = flight as usize;
        let used_links = self.flights_hot[fi].path_len > 0;
        let net = self.net;
        let f = &mut self.flights[fi];
        f.alive = false;
        let job = f.job as usize;
        if let Some(rec) = record.as_deref_mut() {
            // A class flight stands for the same message of every job.
            let members = if self.class_size > 1 {
                0..self.class_size
            } else {
                job..job + 1
            };
            let (round, seq, crossing) = (f.round as usize, f.seq as usize, f.crossing);
            for member in members {
                let m = &schedules[member].rounds[round].messages[seq];
                rec.push(FluidMessageSpan {
                    job: member,
                    round,
                    seq,
                    src: m.src,
                    dst: m.dst,
                    bytes: m.bytes,
                    start: f.injected,
                    finish: now,
                    crossing: (crossing >= 0).then_some(crossing as usize),
                    rail: (crossing >= 0)
                        .then(|| net.message_rail(crossing as usize, m.src, m.dst, true)),
                });
            }
        }
        if used_links {
            self.leave_links(flight);
        }
        self.outstanding[job] -= 1;
        let mut needs = used_links;
        if self.outstanding[job] == 0 {
            needs |= self.start_round(job, schedules, now);
        }
        needs
    }

    /// Starts the owning job's next non-empty round (if any) at `now`;
    /// returns whether any new flight joined the link fabric immediately.
    fn start_round(&mut self, job: usize, schedules: &[Schedule], now: f64) -> bool {
        let schedule = &schedules[job];
        while self.next_round[job] < schedule.rounds.len() {
            let round_idx = self.next_round[job];
            self.next_round[job] += 1;
            let round = &schedule.rounds[round_idx];
            if round.messages.is_empty() {
                continue;
            }
            let mut joined = false;
            for (seq, m) in round.messages.iter().enumerate() {
                let path_start = self.path_arena.len() as u32;
                let crossing = match self.table.path(m.src, m.dst) {
                    None => -1,
                    Some(path) => {
                        let crossing = path.crossing() as i32;
                        for hop in path {
                            self.path_arena.extend([hop.up, hop.down]);
                        }
                        crossing
                    }
                };
                let path_len = self.path_arena.len() as u32 - path_start;
                let latency = if crossing >= 0 {
                    self.net.links()[crossing as usize].crossing_latency
                } else {
                    0.0
                };
                let id = self.flights.len() as u32;
                self.link_pos.resize(self.path_arena.len(), NO_POS);
                let mut flight = Flight {
                    job: job as u32,
                    round: round_idx as u32,
                    seq: seq as u32,
                    crossing,
                    injected: now,
                    tpos: NO_POS,
                    in_latency: false,
                    alive: true,
                };
                let mut hot = FlightHot {
                    rate: -1.0,
                    bytes_left: m.bytes as f64,
                    last_update: now,
                    predicted: f64::INFINITY,
                    snap: m.bytes as f64 * REL_BYTES_EPS,
                    path_start,
                    path_len,
                    epoch: 0,
                };
                self.stats.flights += 1;
                self.outstanding[job] += 1;
                if path_len == 0 {
                    // Local copy: a fixed rate, so its single completion
                    // event is exact and it never participates in solves.
                    hot.rate = self.local_rate;
                    let finish = now + latency + m.bytes as f64 / self.local_rate;
                    self.flights.push(flight);
                    self.flights_hot.push(hot);
                    self.events.push(Reverse(Ev {
                        time: finish,
                        flight: id,
                    }));
                } else if latency > 0.0 {
                    // Latency phase: tracked as an absolute expiry time
                    // (no decrement-and-clamp).
                    flight.in_latency = true;
                    self.flights.push(flight);
                    self.flights_hot.push(hot);
                    self.events.push(Reverse(Ev {
                        time: now + latency,
                        flight: id,
                    }));
                } else {
                    self.flights.push(flight);
                    self.flights_hot.push(hot);
                    self.join_links(id);
                    joined = true;
                }
            }
            return joined;
        }
        false
    }

    fn join_links(&mut self, flight: u32) {
        let fi = flight as usize;
        let (start, len) = (
            self.flights_hot[fi].path_start as usize,
            self.flights_hot[fi].path_len as usize,
        );
        for slot in 0..len {
            let l = self.path_arena[start + slot] as usize;
            let pos = self.link_flows[l].len() as u32;
            self.link_flows[l].push((flight, slot as u32));
            self.link_pos[start + slot] = pos;
            let m = self.mult(l);
            let ls = &mut self.lstate[l];
            let was = ls.nflows;
            ls.nflows += m;
            match (was, ls.nflows) {
                // Idle → solo: tracked outside the seed.
                (_, 1) => self.push_solo(l),
                // Idle or solo → shared: into the seed candidates.
                (0 | 1, n) => {
                    if was == 1 {
                        self.remove_solo(l);
                    }
                    self.busy_pos[l] = self.seed_cands.len() as u32;
                    self.seed_cands.push(self.seed_candidate(l, n));
                }
                (_, n) => self.seed_cands[self.busy_pos[l] as usize] = self.seed_candidate(l, n),
            }
        }
        self.flights[fi].tpos = self.transferring.len() as u32;
        self.transferring.push(flight);
    }

    fn leave_links(&mut self, flight: u32) {
        let fi = flight as usize;
        let (start, len) = (
            self.flights_hot[fi].path_start as usize,
            self.flights_hot[fi].path_len as usize,
        );
        for slot in 0..len {
            let l = self.path_arena[start + slot] as usize;
            let pos = self.link_pos[start + slot] as usize;
            self.link_flows[l].swap_remove(pos);
            if let Some(&(moved, moved_slot)) = self.link_flows[l].get(pos) {
                let moved_start = self.flights_hot[moved as usize].path_start as usize;
                self.link_pos[moved_start + moved_slot as usize] = pos as u32;
            }
            let m = self.mult(l);
            let ls = &mut self.lstate[l];
            let was = ls.nflows;
            ls.nflows -= m;
            match (was, ls.nflows) {
                // Solo → idle.
                (1, _) => {
                    self.remove_solo(l);
                    self.busy_pos[l] = NO_POS;
                }
                // Shared → idle or solo: out of the seed.
                (_, n @ (0 | 1)) => {
                    let bp = self.busy_pos[l] as usize;
                    self.seed_cands.swap_remove(bp);
                    if let Some(&Reverse(moved_c)) = self.seed_cands.get(bp) {
                        self.busy_pos[moved_c.link as usize] = bp as u32;
                    }
                    if n == 1 {
                        self.push_solo(l);
                    } else {
                        self.busy_pos[l] = NO_POS;
                    }
                }
                (_, n) => self.seed_cands[self.busy_pos[l] as usize] = self.seed_candidate(l, n),
            }
        }
        // Swap-remove from the transferring list, fixing the moved flight.
        let tp = self.flights[fi].tpos as usize;
        self.transferring.swap_remove(tp);
        if let Some(&moved) = self.transferring.get(tp) {
            self.flights[moved as usize].tpos = tp as u32;
        }
        self.flights[fi].tpos = NO_POS;
    }

    /// How many member flows one flight of this run puts on link `l`.
    fn mult(&self, l: usize) -> u32 {
        if self.class_size > 1 {
            self.link_mult[l]
        } else {
            1
        }
    }

    /// The up-to-date seed candidate of shared link `l` carrying `nflows`.
    fn seed_candidate(&self, l: usize, nflows: u32) -> Reverse<Candidate> {
        Reverse(Candidate {
            share: self.lstate[l].capacity / nflows as f64,
            link: l as u32,
        })
    }

    /// Tracks link `l`, now carrying one flow, in the solo list.
    fn push_solo(&mut self, l: usize) {
        self.busy_pos[l] = SOLO_TAG | self.solo.len() as u32;
        self.solo.push(l as u32);
        let cap = self.lstate[l].capacity;
        if cap < self.solo_cap_min {
            self.solo_cap_min = cap;
        }
    }

    /// Swap-removes link `l` from the solo list, fixing the moved link's
    /// back-pointer; the caller re-tags `l` itself.
    fn remove_solo(&mut self, l: usize) {
        let sp = (self.busy_pos[l] & !SOLO_TAG) as usize;
        self.solo.swap_remove(sp);
        if let Some(&moved) = self.solo.get(sp) {
            self.busy_pos[moved as usize] = SOLO_TAG | sp as u32;
        }
    }

    /// Water-fills the active flow set (a lazy candidate heap over busy
    /// links popped in `(share, link)` order, like `max_min_rates`, but
    /// with stale entries revalidated on pop instead of versioned, and
    /// solo links seeded only when the fast fill cannot rule them out),
    /// re-predicts only the flights whose rate changed, and tracks the
    /// minimum predicted finish while freezing — the freeze pass visits
    /// every transferring flight exactly once, so [`next_completion`]
    /// comes out for free.
    ///
    /// [`next_completion`]: Self::next_completion
    fn resolve(&mut self, now: f64) {
        self.stats.solves += 1;
        if self.class_size > 1 {
            self.fast_then_full_fill::<true>(now);
        } else {
            self.fast_then_full_fill::<false>(now);
        }
    }

    /// Fast path: fill without the solo links. Exact whenever every
    /// assigned share stays below the smallest solo capacity (a solo link
    /// cannot bind below its own capacity); otherwise fall back to a fill
    /// over the full busy set.
    fn fast_then_full_fill<const QUOTIENT: bool>(&mut self, now: f64) {
        if !self.fill::<QUOTIENT>(now, true) {
            let ok = self.fill::<QUOTIENT>(now, false);
            debug_assert!(ok, "full-seed fill cannot run dry");
        }
    }

    /// One water-fill over the active flow set. With `fast`, solo links
    /// are left out of the seed and the fill aborts (returning `false`)
    /// as soon as a share at or above [`solo_cap_min`](Self::solo_cap_min)
    /// would freeze — the caller then re-runs with the full seed, which
    /// is idempotent: the aborted attempt only folded byte counts at
    /// their genuine old rates and re-folding over a zero interval is a
    /// no-op. `QUOTIENT` runs replay each subtraction per the link's
    /// multiplicity; trivial-partition runs skip reading it.
    fn fill<const QUOTIENT: bool>(&mut self, now: f64, fast: bool) -> bool {
        self.epoch += 1;
        if self.epoch as u32 == 0 {
            // The truncated stamp wrapped (once per 2³² solves): clear
            // the per-flight marks so pre-wrap stamps cannot alias, and
            // skip the zero stamp new flights are born with.
            for f in &mut self.flights_hot {
                f.epoch = 0;
            }
            self.epoch += 1;
        }
        // Seed from the incrementally-maintained per-link candidates: one
        // memcpy plus an O(n) heapify; per-link scratch resets lazily on
        // first touch (`fresh`) instead of an up-front sweep.
        let mut seeds = std::mem::take(&mut self.cheap).into_vec();
        seeds.clear();
        seeds.extend_from_slice(&self.seed_cands);
        let guard = if fast {
            self.solo_cap_min
        } else {
            // Full seed: include every solo link (share = capacity) and
            // refresh the conservative capacity floor to the true
            // minimum while walking the list.
            let mut true_min = f64::INFINITY;
            for &l in &self.solo {
                let cap = self.lstate[l as usize].capacity;
                true_min = true_min.min(cap);
                seeds.push(Reverse(Candidate {
                    share: cap,
                    link: l,
                }));
            }
            self.solo_cap_min = true_min;
            f64::INFINITY
        };
        self.cheap = BinaryHeap::from(seeds);
        let epoch = self.epoch;
        let epoch32 = epoch as u32;
        let mut batch_min = f64::INFINITY;
        let mut active = self.transferring.len();
        let mut complete = true;
        // Split borrows once so the freeze pass keeps every base pointer
        // in a register (no reload after the heap pushes).
        let Self {
            ref mut lstate,
            ref link_flows,
            ref mut flights_hot,
            ref path_arena,
            ref link_mult,
            ref mut cheap,
            ref mut stats,
            ..
        } = *self;
        'fill: while active > 0 {
            let Some(Reverse(c)) = cheap.pop() else {
                // Fast seed ran dry with flows unfrozen: every link of
                // those flows is solo, so one of them must bind.
                debug_assert!(fast);
                complete = false;
                break 'fill;
            };
            let l = c.link as usize;
            let ls = &mut lstate[l];
            fresh(ls, epoch);
            let ls = *ls;
            if ls.wcount == 0 {
                continue;
            }
            let share = ls.remaining.max(0.0) / ls.wcount as f64;
            if share != c.share {
                // Stale (the link lost flows since this entry was pushed,
                // so its true share only grew): revalidate lazily with
                // one up-to-date re-push instead of eagerly pushing on
                // every decrement. The heap keeps ≤ 1 entry per link.
                cheap.push(Reverse(Candidate {
                    share,
                    link: c.link,
                }));
                continue;
            }
            if share >= guard {
                // A solo link may bind at or below this water level
                // (ties included, to keep the full fill's freeze order
                // authoritative): restart with the full seed.
                complete = false;
                break 'fill;
            }
            debug_assert!(share.is_finite());
            for &(fid, _) in &link_flows[l] {
                let f = &mut flights_hot[fid as usize];
                if f.epoch == epoch32 {
                    continue;
                }
                f.epoch = epoch32;
                active -= 1;
                if f.rate != share {
                    // Fold progress at the old rate, then re-predict.
                    if f.rate > 0.0 {
                        f.bytes_left -= f.rate * (now - f.last_update);
                    }
                    if f.bytes_left < f.snap {
                        f.bytes_left = 0.0;
                    }
                    f.last_update = now;
                    f.rate = share;
                    f.predicted = now + f.bytes_left / share;
                    stats.repredictions += 1;
                }
                if f.predicted < batch_min {
                    batch_min = f.predicted;
                }
                let (ps, pl) = (f.path_start as usize, f.path_len as usize);
                for &link in &path_arena[ps..ps + pl] {
                    let ls = &mut lstate[link as usize];
                    if fast && ls.nflows == 1 {
                        // Solo links are unseeded in the fast fill, so
                        // their scratch is never read: skip the update.
                        continue;
                    }
                    fresh(ls, epoch);
                    if QUOTIENT {
                        // One subtraction per member flow, never
                        // `m · share`: the link sees the full solve's
                        // subtraction sequence.
                        let m = link_mult[link as usize];
                        for _ in 0..m {
                            ls.remaining -= share;
                        }
                        ls.wcount -= m;
                    } else {
                        ls.remaining -= share;
                        ls.wcount -= 1;
                    }
                }
            }
            debug_assert_eq!(lstate[l].wcount, 0, "bottleneck link fully drained");
            // Feasibility bookkeeping: the popped bottleneck ends fully
            // drained, so `capacity − remaining` is exactly its allocated
            // total — and bottlenecks dominate the utilization maximum
            // (links left unsaturated keep `remaining > 0`).
            let ls = lstate[l];
            let util = (ls.capacity - ls.remaining) / ls.capacity;
            if util > stats.peak_link_utilization {
                stats.peak_link_utilization = util;
            }
        }
        if complete {
            self.next_completion = batch_min;
        }
        complete
    }
}

/// Simulates `schedules` concurrently without cross-schedule barriers and
/// returns the makespan (the time at which every schedule has finished).
///
/// Every schedule keeps its internal round ordering: round `i+1` of a
/// schedule starts only when all messages of its round `i` have been
/// delivered.
///
/// This is the incremental [`FluidSim`] engine; use it directly to reuse
/// its link state across many evaluations.
pub fn fluid_time(net: &NetworkModel, schedules: &[Schedule]) -> f64 {
    FluidSim::new(net).run(schedules)
}

/// [`fluid_time`] plus the engine's work counters.
pub fn fluid_time_with_stats(net: &NetworkModel, schedules: &[Schedule]) -> (f64, FluidStats) {
    let mut sim = FluidSim::new(net);
    let t = sim.run(schedules);
    (t, sim.stats())
}

/// Reconstructs the per-message spans of the fluid execution — the data
/// source for fluid traces, critical paths and trace diffing (see
/// `mre-trace`). `timeline.makespan` equals [`fluid_time`] of the same
/// inputs.
pub fn fluid_timeline(net: &NetworkModel, schedules: &[Schedule]) -> FluidTimeline {
    FluidSim::new(net).run_timeline(schedules)
}

/// State of one in-flight message (reference solver).
#[cfg(test)]
struct RefFlight {
    job: usize,
    latency_left: f64,
    bytes_left: f64,
    path: Vec<usize>,
    local_rate: f64,
}

/// Dense directed-link table of the reference solver: links are interned
/// in first-seen order, looked up by their id in the model's
/// [`RailLinkTable`] (which carries the rail axis of
/// [`NetworkModel::message_rail`]); on single-rail models the rail is
/// constantly 0 and the interning — hence every solved rate — is
/// identical to the pre-rail table.
#[cfg(test)]
struct RefLinkTable<'a> {
    net: &'a NetworkModel,
    /// Model link id → interned index (`usize::MAX` until first seen).
    index: Vec<usize>,
    capacities: Vec<f64>,
}

#[cfg(test)]
impl<'a> RefLinkTable<'a> {
    fn new(net: &'a NetworkModel) -> Self {
        Self {
            net,
            index: vec![usize::MAX; net.link_table().num_links()],
            capacities: Vec::new(),
        }
    }

    /// (crossing level, dense link path) of a message.
    fn path(&mut self, src: usize, dst: usize) -> (Option<usize>, Vec<usize>) {
        if src == dst {
            return (None, Vec::new());
        }
        let table = self.net.link_table();
        let k = table.strides().len();
        let j = table
            .strides()
            .iter()
            .position(|&s| src / s != dst / s)
            .expect("distinct cores differ at some level");
        let mut path = Vec::with_capacity(2 * (k - j));
        for level in j..k {
            for up in [true, false] {
                let idx = &mut self.index[table.message_link(level, src, dst, up) as usize];
                if *idx == usize::MAX {
                    *idx = self.capacities.len();
                    self.capacities
                        .push(self.net.links()[level].uplink_bandwidth);
                }
                path.push(*idx);
            }
        }
        (Some(j), path)
    }
}

/// The original fluid solver: rebuilds the flow table, re-solves all
/// rates, and linearly scans for the next event at every completion —
/// O(events × flows × path-len). Kept verbatim (absolute retire
/// tolerances and all) as the test-only oracle the [`FluidSim`] engine
/// is cross-checked against, like `max_min_rates_reference` in
/// `contention.rs`.
#[cfg(test)]
fn fluid_time_reference(net: &NetworkModel, schedules: &[Schedule]) -> f64 {
    let mut table = RefLinkTable::new(net);

    let mut next_round = vec![0usize; schedules.len()];
    let mut active: Vec<RefFlight> = Vec::new();
    let mut now = 0.0f64;
    // Local copies bypass links entirely; the calibrated local rate is the
    // model's probe-observed copy bandwidth.
    let local_bw = net.calibrated_local_rate();
    for (job, schedule) in schedules.iter().enumerate() {
        ref_start_round(
            job,
            schedule,
            &mut next_round[job],
            &mut active,
            &mut table,
            local_bw,
        );
    }
    while !active.is_empty() {
        // Solve rates for messages past their latency phase.
        let flows: Vec<Vec<usize>> = active
            .iter()
            .map(|f| {
                if f.latency_left > 0.0 {
                    Vec::new()
                } else {
                    f.path.clone()
                }
            })
            .collect();
        let rates = crate::contention::max_min_rates(&flows, &table.capacities);
        // Time to the next event: a latency expiry or a completion.
        let mut dt = f64::INFINITY;
        for (f, flight) in active.iter().enumerate() {
            let t = if flight.latency_left > 0.0 {
                flight.latency_left
            } else if flight.path.is_empty() {
                flight.bytes_left / flight.local_rate
            } else {
                flight.bytes_left / rates[f]
            };
            dt = dt.min(t);
        }
        debug_assert!(dt.is_finite() && dt >= 0.0);
        now += dt;
        // Advance all flights.
        for (f, flight) in active.iter_mut().enumerate() {
            if flight.latency_left > 0.0 {
                flight.latency_left -= dt;
                if flight.latency_left < 1e-18 {
                    flight.latency_left = 0.0;
                }
            } else {
                let rate = if flight.path.is_empty() {
                    flight.local_rate
                } else {
                    rates[f]
                };
                flight.bytes_left -= rate * dt;
            }
        }
        // Retire finished flights; collect jobs whose round may be done.
        let mut touched_jobs: Vec<usize> = Vec::new();
        active.retain(|flight| {
            let done = flight.latency_left <= 0.0 && flight.bytes_left <= 1e-9;
            if done {
                touched_jobs.push(flight.job);
            }
            !done
        });
        touched_jobs.sort_unstable();
        touched_jobs.dedup();
        for job in touched_jobs {
            let still_running = active.iter().any(|f| f.job == job);
            if !still_running {
                ref_start_round(
                    job,
                    &schedules[job],
                    &mut next_round[job],
                    &mut active,
                    &mut table,
                    local_bw,
                );
            }
        }
    }
    now
}

#[cfg(test)]
fn ref_start_round(
    job: usize,
    schedule: &Schedule,
    next_round: &mut usize,
    active: &mut Vec<RefFlight>,
    table: &mut RefLinkTable<'_>,
    local_bw: f64,
) {
    while *next_round < schedule.rounds.len() {
        let round = &schedule.rounds[*next_round];
        *next_round += 1;
        if round.messages.is_empty() {
            continue;
        }
        for m in &round.messages {
            let (crossing, path) = table.path(m.src, m.dst);
            let latency = crossing
                .map(|j| table.net.links()[j].crossing_latency)
                .unwrap_or(0.0);
            active.push(RefFlight {
                job,
                latency_left: latency,
                bytes_left: m.bytes as f64,
                path,
                local_rate: local_bw,
            });
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LinkParams;
    use crate::schedule::{Message, Round};
    use mre_core::Hierarchy;

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
    fn single_message_matches_round_model() {
        let net = toy();
        let s = Schedule::with(vec![Round::with(vec![Message::new(0, 8, 100)])]);
        let fluid = fluid_time(&net, std::slice::from_ref(&s));
        let rounds = net.schedule_time(&s);
        assert!((fluid - rounds).abs() < 1e-9, "{fluid} vs {rounds}");
    }

    #[test]
    fn sequential_rounds_accumulate() {
        let net = toy();
        let s = Schedule::with(vec![
            Round::with(vec![Message::new(0, 1, 100)]),
            Round::with(vec![Message::new(0, 8, 100)]),
        ]);
        let fluid = fluid_time(&net, std::slice::from_ref(&s));
        let rounds = net.schedule_time(&s);
        assert!((fluid - rounds).abs() < 1e-9);
    }

    #[test]
    fn symmetric_single_round_matches() {
        // One round with contention: fluid and round-based agree exactly.
        let net = toy();
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 100),
            Message::new(1, 9, 100),
        ])]);
        let fluid = fluid_time(&net, std::slice::from_ref(&s));
        assert!((fluid - net.schedule_time(&s)).abs() < 1e-9);
    }

    #[test]
    fn fluid_never_slower_than_lockstep() {
        // Two jobs of different round counts: the barrier-free execution
        // must be at least as fast.
        let net = toy();
        let a = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 1000)]),
            Round::with(vec![Message::new(8, 0, 1000)]),
        ]);
        let b = Schedule::with(vec![Round::with(vec![Message::new(1, 9, 10)])]);
        let fluid = fluid_time(&net, &[a.clone(), b.clone()]);
        let lockstep = net.concurrent_time(&[a, b]);
        assert!(fluid <= lockstep + 1e-9, "{fluid} > {lockstep}");
    }

    #[test]
    fn unbalanced_jobs_overlap() {
        // Job A: two sequential cross-node rounds. Job B: one short local
        // round. Lockstep stalls B's contribution to round 2; fluid lets A
        // finish round 2 while nothing else runs. Here fluid must beat the
        // *sum* bound whenever overlap exists.
        let net = toy();
        let a = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 500)]),
            Round::with(vec![Message::new(0, 8, 500)]),
        ]);
        // B shares the NIC in lockstep round 1 only.
        let b = Schedule::with(vec![Round::with(vec![Message::new(1, 9, 500)])]);
        let fluid = fluid_time(&net, &[a.clone(), b.clone()]);
        let lockstep = net.concurrent_time(&[a, b]);
        // Fluid: round 1 shares (5 B/s each → 100 s), then round 2 alone
        // (50 s): ≈ latency + 150. Lockstep: identical here, so equality
        // is acceptable — but never slower.
        assert!(fluid <= lockstep + 1e-9);
    }

    #[test]
    fn empty_and_trivial_schedules() {
        let net = toy();
        assert_eq!(fluid_time(&net, &[]), 0.0);
        let empty = Schedule::new();
        assert_eq!(fluid_time(&net, std::slice::from_ref(&empty)), 0.0);
        let zero_round = Schedule::with(vec![Round::new()]);
        assert_eq!(fluid_time(&net, std::slice::from_ref(&zero_round)), 0.0);
    }

    #[test]
    fn local_copies_progress() {
        let net = toy();
        let s = Schedule::with(vec![Round::with(vec![Message::new(3, 3, 2000)])]);
        let fluid = fluid_time(&net, std::slice::from_ref(&s));
        assert!((fluid - 2.0).abs() < 1e-9, "{fluid}");
    }

    #[test]
    fn makespan_dominated_by_longest_job() {
        let net = toy();
        let long = Schedule::with(vec![Round::with(vec![Message::new(0, 4, 100)]); 5]);
        let short = Schedule::with(vec![Round::with(vec![Message::new(8, 12, 10)])]);
        let fluid = fluid_time(&net, &[long.clone(), short]);
        let alone = fluid_time(&net, &[long]);
        // Disjoint paths: the short job cannot slow the long one.
        assert!((fluid - alone).abs() < 1e-9);
    }

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!((a - b).abs() <= tol * scale, "{what}: {a} vs {b}");
    }

    #[test]
    fn engine_matches_reference_on_structured_cases() {
        let net = toy();
        let cases: Vec<Vec<Schedule>> = vec![
            vec![Schedule::with(vec![Round::with(vec![Message::new(
                0, 8, 100,
            )])])],
            vec![Schedule::with(vec![
                Round::with(vec![Message::new(0, 1, 100)]),
                Round::with(vec![Message::new(0, 8, 100)]),
            ])],
            vec![
                Schedule::with(vec![
                    Round::with(vec![Message::new(0, 8, 1000)]),
                    Round::with(vec![Message::new(8, 0, 1000)]),
                ]),
                Schedule::with(vec![Round::with(vec![Message::new(1, 9, 10)])]),
            ],
            vec![
                Schedule::with(vec![Round::with(vec![
                    Message::new(0, 8, 500),
                    Message::new(1, 9, 250),
                    Message::new(3, 3, 800),
                ])]),
                Schedule::with(vec![
                    Round::with(vec![Message::new(2, 10, 100)]),
                    Round::with(vec![Message::new(10, 2, 700)]),
                ]),
                Schedule::with(vec![Round::with(vec![Message::new(4, 12, 50)]); 4]),
            ],
        ];
        for schedules in &cases {
            let engine = fluid_time(&net, schedules);
            let reference = fluid_time_reference(&net, schedules);
            assert_close(engine, reference, 1e-9, "engine vs reference");
        }
    }

    #[test]
    fn engine_matches_reference_randomized() {
        use mre_rng::SmallRng;
        let net = toy();
        let p = net.hierarchy().size();
        let mut rng = SmallRng::seed_from_u64(0xF1D5);
        for _ in 0..60 {
            let jobs = rng.gen_range(1usize..5);
            let schedules: Vec<Schedule> = (0..jobs)
                .map(|_| {
                    let rounds = rng.gen_range(1usize..4);
                    Schedule::with(
                        (0..rounds)
                            .map(|_| {
                                let msgs = rng.gen_range(0usize..6);
                                Round::with(
                                    (0..msgs)
                                        .map(|_| {
                                            Message::new(
                                                rng.gen_range(0..p),
                                                rng.gen_range(0..p),
                                                rng.gen_range(1..5000),
                                            )
                                        })
                                        .collect(),
                                )
                            })
                            .collect(),
                    )
                })
                .collect();
            let engine = fluid_time(&net, &schedules);
            let reference = fluid_time_reference(&net, &schedules);
            assert_close(engine, reference, 1e-9, "randomized engine vs reference");
        }
    }

    /// Regression for the absolute `bytes_left <= 1e-9` retire check: a
    /// 1-byte payload on a 1e-9 B/s link takes 1e9 s, but any event
    /// landing in the final second left the residual below the absolute
    /// epsilon and retired the message a full second early. The engine's
    /// relative tolerance keeps byte-scale payloads exact; the reference
    /// (kept verbatim) still exhibits the early retirement.
    #[test]
    fn byte_scale_payloads_are_not_retired_early() {
        let h = Hierarchy::new(vec![2, 2]).unwrap();
        let net = NetworkModel::new(
            h,
            vec![
                LinkParams {
                    uplink_bandwidth: 1e-9,
                    crossing_latency: 0.0,
                },
                LinkParams {
                    uplink_bandwidth: 1.0,
                    crossing_latency: 0.0,
                },
            ],
            2.0,
        );
        // Job A: one byte across the node link — exactly 1e9 seconds.
        let a = Schedule::with(vec![Round::with(vec![Message::new(0, 2, 1)])]);
        // Job B: a local copy finishing at 1e9 − 0.5, inside A's final
        // second, forcing the reference to advance A there.
        let b = Schedule::with(vec![Round::with(vec![Message::new(1, 1, 1_999_999_999)])]);
        let exact = 1.0 / 1e-9;
        let engine = fluid_time(&net, &[a.clone(), b.clone()]);
        assert_close(engine, exact, 1e-9, "engine stays exact");
        let reference = fluid_time_reference(&net, &[a, b]);
        assert!(
            reference < exact - 0.4,
            "reference no longer retires early ({reference} vs {exact}) — \
             the oracle changed?"
        );
    }

    #[test]
    fn batching_collapses_symmetric_rounds() {
        // A symmetric 4-message round: everything finishes at one instant,
        // so the engine needs only the seed solve (rates never change and
        // the final batch leaves no active flows to re-solve).
        let net = toy();
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 100),
            Message::new(1, 9, 100),
            Message::new(2, 10, 100),
            Message::new(3, 11, 100),
        ])]);
        let (t, stats) = fluid_time_with_stats(&net, std::slice::from_ref(&s));
        assert!((t - net.schedule_time(&s)).abs() < 1e-9);
        assert_eq!(stats.flights, 4);
        // 4 latency expiries + 4 completions.
        assert_eq!(stats.events, 8);
        assert!(
            stats.solves <= 2,
            "symmetric round should batch into ≤ 2 solves, got {}",
            stats.solves
        );
        assert!(stats.peak_link_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn timeline_matches_makespan_and_round_structure() {
        let net = toy();
        let a = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 500), Message::new(1, 9, 250)]),
            Round::with(vec![Message::new(8, 0, 100)]),
        ]);
        let b = Schedule::with(vec![Round::with(vec![Message::new(2, 2, 800)])]);
        let tl = fluid_timeline(&net, &[a.clone(), b.clone()]);
        let t = fluid_time(&net, &[a, b]);
        assert_eq!(tl.makespan, t, "timeline records the same execution");
        assert_close(tl.last_finish(), tl.makespan, 1e-12, "last finish");
        assert_eq!(tl.num_messages(), 4);
        assert_eq!(tl.total_bytes(), 1650);
        assert_eq!(tl.num_jobs(), 2);
        // Spans are sorted by (job, round, seq); within a job, a round
        // starts exactly when the previous round's last message finished.
        let spans: Vec<_> = tl.job_spans(0).collect();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].round, spans[0].seq), (0, 0));
        let round0_finish = spans[0].finish.max(spans[1].finish);
        assert_close(spans[2].start, round0_finish, 1e-12, "round 1 start");
        for s in tl.spans.iter() {
            assert!(s.finish >= s.start);
        }
        // The local copy has no crossing level; cross-node spans do.
        assert_eq!(tl.job_spans(1).next().unwrap().crossing, None);
        assert_eq!(spans[0].crossing, Some(0));
    }

    #[test]
    fn single_rail_fluid_is_byte_identical() {
        use crate::rail::RailPolicy;
        let plain = toy();
        let schedules = vec![
            Schedule::with(vec![
                Round::with(vec![Message::new(0, 8, 500), Message::new(1, 9, 250)]),
                Round::with(vec![Message::new(8, 0, 100)]),
            ]),
            Schedule::with(vec![Round::with(vec![Message::new(2, 2, 800)])]),
        ];
        let baseline = fluid_time(&plain, &schedules);
        for policy in RailPolicy::ALL {
            let one = toy().with_node_rails(1, policy);
            assert_eq!(
                baseline.to_bits(),
                fluid_time(&one, &schedules).to_bits(),
                "{policy}: nic_count = 1 must not perturb the engine"
            );
        }
    }

    #[test]
    fn two_rails_unserialize_a_shared_nic() {
        use crate::rail::RailPolicy;
        // 0→8 and 1→8 leave the same node; one NIC serializes them
        // (2 + 200/10 = 22 s), two round-robin rails carry one each at the
        // full per-rail bandwidth (2 + 100/10 = 12 s).
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 100),
            Message::new(1, 8, 100),
        ])]);
        let serial = fluid_time(&toy(), std::slice::from_ref(&s));
        assert_close(serial, 22.0, 1e-9, "single NIC serializes");
        let railed = toy().with_node_rails(2, RailPolicy::RoundRobin);
        let striped = fluid_time(&railed, std::slice::from_ref(&s));
        assert_close(striped, 12.0, 1e-9, "two rails stripe");
    }

    #[test]
    fn railed_engine_matches_reference_randomized() {
        use crate::rail::RailPolicy;
        use mre_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0xBA11);
        for policy in RailPolicy::ALL {
            for nics in [2usize, 3] {
                let net = toy().with_node_rails(nics, policy);
                let p = net.hierarchy().size();
                for _ in 0..20 {
                    let jobs = rng.gen_range(1usize..4);
                    let schedules: Vec<Schedule> = (0..jobs)
                        .map(|_| {
                            let rounds = rng.gen_range(1usize..4);
                            Schedule::with(
                                (0..rounds)
                                    .map(|_| {
                                        let msgs = rng.gen_range(0usize..6);
                                        Round::with(
                                            (0..msgs)
                                                .map(|_| {
                                                    Message::new(
                                                        rng.gen_range(0..p),
                                                        rng.gen_range(0..p),
                                                        rng.gen_range(1..5000),
                                                    )
                                                })
                                                .collect(),
                                        )
                                    })
                                    .collect(),
                            )
                        })
                        .collect();
                    let engine = fluid_time(&net, &schedules);
                    let reference = fluid_time_reference(&net, &schedules);
                    assert_close(engine, reference, 1e-9, "railed engine vs reference");
                }
            }
        }
    }

    /// Copy of `mre_mpi::schedules::alltoallv_pairwise` (simnet cannot
    /// depend on `mre-mpi`): round `r` sends `sizes[i][(i + r) % p]` from
    /// rank `i`, skipping zero blocks and empty rounds.
    fn alltoallv_pairwise(members: &[usize], sizes: &[Vec<u64>]) -> Schedule {
        let p = members.len();
        let rounds = (0..p).map(|r| {
            Round::with(
                (0..p)
                    .map(|i| (i, (i + r) % p))
                    .filter(|&(i, j)| sizes[i][j] > 0)
                    .map(|(i, j)| Message::new(members[i], members[j], sizes[i][j]))
                    .collect(),
            )
        });
        Schedule::with(rounds.filter(|r| !r.messages.is_empty()).collect())
    }

    /// Copy of `mre_mpi::schedules::alltoall_pairwise_railed`: the `p − 1`
    /// pairwise rounds merged `nics` at a time (`nics = 1` is the plain
    /// pairwise Alltoall).
    fn alltoall_pairwise_railed(members: &[usize], bytes: u64, nics: usize) -> Schedule {
        let p = members.len();
        let round = |r: usize| {
            Round::with(
                (r..(r + nics).min(p))
                    .flat_map(|sub| (0..p).map(move |i| (i, (i + sub) % p)))
                    .map(|(i, j)| Message::new(members[i], members[j], bytes))
                    .collect(),
            )
        };
        Schedule::with((1..p).step_by(nics).map(round).collect())
    }

    /// The 64 sixteen-rank communicators of the fully spread order on
    /// `hydra_network(32, _)`: 1024 cores, the process count of the
    /// paper's `nell-1` Splatt run (its mode-2 layer communicators).
    fn spread_communicators() -> Vec<Vec<usize>> {
        use mre_core::subcomm::{subcommunicators, ColorScheme};
        let machine = Hierarchy::new(vec![32, 2, 2, 8]).unwrap();
        let order = mre_core::Permutation::identity(machine.depth());
        let layout = subcommunicators(&machine, &order, 16, ColorScheme::Quotient).unwrap();
        (0..layout.count())
            .map(|c| layout.members(c).to_vec())
            .collect()
    }

    /// The engine agrees with the oracle on the 1024-core Splatt-like
    /// instance: 64 concurrent ragged pairwise Alltoallvs × 2 CP-ALS
    /// iterations. Per-pair volumes are 0.5×–1.5× the mean, per-comm
    /// totals are staggered, and the dominant diagonal block moves as a
    /// local copy, so completions arrive one by one — the event storm
    /// where the engine's incremental bookkeeping does the most work.
    #[test]
    fn engine_matches_reference_on_the_1024_core_splatt_instance() {
        let net = crate::presets::hydra_network(32, 1);
        let jobs = splatt_jobs();
        let messages = jobs
            .iter()
            .flat_map(|s| &s.rounds)
            .flat_map(|r| &r.messages);
        assert_eq!(messages.clone().count(), 32768);
        assert_eq!(messages.filter(|m| m.src == m.dst).count(), 2048);
        let engine = fluid_time(&net, &jobs);
        let reference = fluid_time_reference(&net, &jobs);
        assert_close(engine, reference, 1e-9, "1024-core engine vs reference");
    }

    /// The Splatt-like instance: the 64 spread communicators' ragged
    /// pairwise Alltoallvs, each run twice.
    fn splatt_jobs() -> Vec<Schedule> {
        const BYTES: u64 = 4 << 20;
        spread_communicators()
            .iter()
            .enumerate()
            .map(|(c, members)| {
                let p = members.len();
                let base = (BYTES + c as u64 * (BYTES / 96)) / (p * p) as u64;
                let sizes: Vec<Vec<u64>> = (0..p)
                    .map(|i| {
                        (0..p)
                            .map(|j| {
                                let eighth = base / 8;
                                if i == j {
                                    4 * base + i as u64 * eighth
                                } else {
                                    base / 2 + ((i * 7 + j * 13 + c * 3) % 9) as u64 * eighth
                                }
                            })
                            .collect()
                    })
                    .collect();
                let exchange = alltoallv_pairwise(members, &sizes);
                let mut schedule = exchange.clone();
                schedule.then(exchange);
                schedule
            })
            .collect()
    }

    /// The 64 × 16 spread pairwise Alltoall (4 MiB per call) on 32 Hydra
    /// nodes: a 1-rail fabric costs it bit-identically to the aggregate
    /// model under every rail policy, lockstep and fluid alike, and on 2
    /// round-robin rails with rail-striped rounds the engine agrees with
    /// the oracle.
    #[test]
    fn spread_alltoall_rail_identity_and_two_rail_agreement() {
        use crate::presets::{hydra_network, hydra_network_rails};
        use crate::rail::RailPolicy;
        let comms = spread_communicators();
        let jobs = |nics: usize| -> Vec<Schedule> {
            comms
                .iter()
                .map(|m| alltoall_pairwise_railed(m, (4 << 20) / 256, nics))
                .collect()
        };
        let (jobs1, jobs2) = (jobs(1), jobs(2));
        let aggregate = hydra_network(32, 1);
        let lockstep = aggregate.concurrent_time(&jobs1);
        let fluid = fluid_time(&aggregate, &jobs1);
        for policy in RailPolicy::ALL {
            let one = hydra_network_rails(32, 1, policy);
            assert_eq!(
                lockstep.to_bits(),
                one.concurrent_time(&jobs1).to_bits(),
                "1-rail lockstep ({policy})"
            );
            assert_eq!(
                fluid.to_bits(),
                fluid_time(&one, &jobs1).to_bits(),
                "1-rail fluid ({policy})"
            );
        }
        let railed = hydra_network_rails(32, 2, RailPolicy::RoundRobin);
        let messages: usize = jobs2
            .iter()
            .flat_map(|s| &s.rounds)
            .map(|r| r.messages.len())
            .sum();
        assert_eq!(messages, 15360);
        let engine = fluid_time(&railed, &jobs2);
        let reference = fluid_time_reference(&railed, &jobs2);
        assert_close(engine, reference, 1e-9, "2-rail engine vs reference");
    }

    #[test]
    fn timeline_spans_carry_rail_labels() {
        use crate::rail::RailPolicy;
        let net = toy().with_node_rails(2, RailPolicy::RoundRobin);
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 100),
            Message::new(1, 8, 100),
            Message::new(2, 2, 50),
        ])]);
        let tl = fluid_timeline(&net, std::slice::from_ref(&s));
        let by_seq: Vec<_> = tl.job_spans(0).collect();
        // Sender-side rail at the crossing level: (0+8)%2 = 0, (1+8)%2 = 1.
        assert_eq!(by_seq[0].rail, Some(0));
        assert_eq!(by_seq[1].rail, Some(1));
        assert_eq!(by_seq[2].rail, None, "local copies ride no rail");
        // Single-rail models still label crossings (rail 0).
        let tl = fluid_timeline(&toy(), std::slice::from_ref(&s));
        assert_eq!(tl.job_spans(0).next().unwrap().rail, Some(0));
    }

    #[test]
    fn engine_reuse_across_runs_is_consistent() {
        // The same engine costs different batches back-to-back; caches
        // persist, results must match fresh engines.
        let net = toy();
        let mut sim = FluidSim::new(&net);
        let a = Schedule::with(vec![Round::with(vec![Message::new(0, 8, 100)])]);
        let b = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 100),
            Message::new(1, 9, 100),
        ])]);
        let first = sim.run(std::slice::from_ref(&a));
        let second = sim.run(std::slice::from_ref(&b));
        let third = sim.run(std::slice::from_ref(&a));
        assert_eq!(first, third, "reused engine must be deterministic");
        assert_eq!(first, fluid_time(&net, std::slice::from_ref(&a)));
        assert_eq!(second, fluid_time(&net, std::slice::from_ref(&b)));
        assert_eq!(sim.stats().flights, 4);
    }

    /// Runs `jobs` on the class quotient (when the check accepts them) and
    /// on the trivial partition; asserts every makespan, count and span
    /// bit agrees and returns whether the quotient was taken.
    fn reduced_matches_trivial(net: &NetworkModel, jobs: &[Schedule]) -> bool {
        let reduced = FluidSim::new(net).timeline(jobs, true);
        let trivial = FluidSim::new(net).timeline(jobs, false);
        assert_eq!(trivial.stats.reduced_runs, 0);
        assert_eq!(reduced.makespan.to_bits(), trivial.makespan.to_bits());
        assert_eq!(
            FluidStats {
                reduced_runs: 0,
                ..reduced.stats
            },
            trivial.stats
        );
        assert_eq!(reduced.spans, trivial.spans);
        let plain = FluidSim::new(net).run(jobs);
        assert_eq!(plain.to_bits(), reduced.makespan.to_bits());
        reduced.stats.reduced_runs == 1
    }

    /// Every communicator of a random digit-box layout runs the same
    /// rank-space schedule (pairwise exchange, recursive doubling or random
    /// rounds with self-messages) on a random 2–4-level machine with random
    /// link parameters, 1/2/4 node rails and every policy: the class
    /// quotient reproduces the trivial partition bit for bit.
    #[test]
    fn reduced_solve_equals_the_trivial_partition_bit_for_bit() {
        use crate::rail::RailPolicy;
        use mre_core::subcomm::{subcommunicators, ColorScheme};
        let (mut runs, mut reduced) = (0, 0);
        mre_rng::propcheck(300, 0x0C1A_55E5, |rng| {
            let depth = rng.gen_range(2usize..5);
            let levels: Vec<usize> = (0..depth)
                .map(|_| *rng.choose(&[1usize, 2, 2, 4, 4, 8]).unwrap())
                .collect();
            let h = Hierarchy::new(levels).unwrap();
            let size = h.size();
            let sizes: Vec<usize> = (2..size).filter(|&d| size.is_multiple_of(d)).collect();
            let (Some(&s), true) = (rng.choose(&sizes), size <= 512) else {
                return;
            };
            let order: Vec<usize> = {
                let mut order: Vec<usize> = (0..depth).collect();
                rng.shuffle(&mut order);
                order
            };
            let order = mre_core::Permutation::new(order).unwrap();
            let layout = subcommunicators(&h, &order, s, ColorScheme::Quotient).unwrap();
            let links = (0..depth)
                .map(|_| LinkParams {
                    uplink_bandwidth: rng.gen_range(1e9f64..1e11),
                    crossing_latency: if rng.gen_bool(0.5) {
                        0.0
                    } else {
                        rng.gen_range(1e-7f64..1e-5)
                    },
                })
                .collect();
            let nics = *rng.choose(&[1usize, 2, 4]).unwrap();
            let policy = *rng.choose(&RailPolicy::ALL).unwrap();
            let net = NetworkModel::new(h, links, 1e11).with_node_rails(nics, policy);
            let rounds: Vec<Vec<(usize, usize, u64)>> = match rng.gen_range(0usize..3) {
                0 => (1..s)
                    .map(|r| {
                        (0..s)
                            .map(|i| (i, (i + r) % s, 1 << rng.gen_range(10u32..20)))
                            .collect()
                    })
                    .collect(),
                1 => {
                    let bytes = rng.gen_range(1u64..1 << 20);
                    (0..s.ilog2())
                        .map(|k| (0..s).map(|i| (i, i ^ 1 << k, bytes)).collect())
                        .collect()
                }
                _ => (0..rng.gen_range(1usize..5))
                    .map(|_| {
                        (0..rng.gen_range(1..3 * s))
                            .map(|_| {
                                let (i, j) = (rng.gen_range(0..s), rng.gen_range(0..s));
                                (i, j, rng.gen_range(1u64..1 << 20))
                            })
                            .collect()
                    })
                    .collect(),
            };
            let jobs: Vec<Schedule> = layout
                .comms()
                .iter()
                .map(|m| {
                    Schedule::with(
                        rounds
                            .iter()
                            .map(|r| {
                                Round::with(
                                    r.iter()
                                        .map(|&(i, j, b)| Message::new(m[i], m[j], b))
                                        .collect(),
                                )
                            })
                            .collect(),
                    )
                })
                .collect();
            runs += 1;
            reduced += reduced_matches_trivial(&net, &jobs) as usize;
        });
        // Source-hash railing and some random rounds fail the check.
        assert!(reduced > runs / 2 && reduced < runs, "{reduced} of {runs}");
    }

    /// The spread Alltoall's 64 translated communicators, on one rail and
    /// on two round-robin rails, take the quotient with the same bits; the
    /// ragged Splatt-like Alltoallvs (per-communicator volumes differ)
    /// fall back to the trivial partition.
    #[test]
    fn spread_alltoall_reduces_and_ragged_alltoallv_falls_back() {
        use crate::presets::{hydra_network, hydra_network_rails};
        use crate::rail::RailPolicy;
        for (net, nics) in [
            (hydra_network(32, 1), 1),
            (hydra_network_rails(32, 2, RailPolicy::RoundRobin), 2),
        ] {
            let jobs: Vec<Schedule> = spread_communicators()
                .iter()
                .map(|m| alltoall_pairwise_railed(m, (4 << 20) / 256, nics))
                .collect();
            assert!(reduced_matches_trivial(&net, &jobs), "{nics} rails");
        }
        let net = hydra_network(32, 1);
        assert!(!reduced_matches_trivial(&net, &splatt_jobs()));
    }
}
