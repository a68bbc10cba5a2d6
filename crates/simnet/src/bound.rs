//! Admissible lower bounds on schedule cost — the pruning oracle of the
//! branch-and-bound order search.
//!
//! Costing a round exactly means solving max-min water-filling over every
//! traversed directed link. This module computes something far cheaper
//! that is **provably never above** the exact cost, so a search can skip
//! any candidate whose bound already exceeds the incumbent best without
//! risking the optimum (DESIGN.md §7e gives the derivation):
//!
//! * **Aggregate-capacity term.** Every message whose endpoints first
//!   differ at level `j` pushes its bytes through exactly one *up*-direction
//!   uplink and one *down*-direction uplink of every level `l ≥ j`. The
//!   flows sharing the round's active level-`l` links can jointly drain at
//!   most `active_links · bandwidth_l` bytes per second, so the round lasts
//!   at least `min_latency + bytes_through(l) / (active_links · bandwidth_l)`.
//! * **Latency term.** The round time is a max of per-message
//!   `latency + bytes/rate`, so it is at least the largest crossing
//!   latency present — summing that over rounds gives the
//!   latency-weighted round count of the schedule.
//! * **Local-copy term.** A self-message drains at the local-copy
//!   bandwidth, so the round lasts at least its largest local payload
//!   divided by that bandwidth.
//!
//! All three hold for both contention modes (no flow is ever allocated
//! more than any traversed link's capacity, and link rate sums never
//! exceed capacity), hence `schedule_lower_bound ≤ schedule_time` always —
//! property-tested against every collective generator in
//! `tests/proptests.rs` at 1e-12 relative tolerance.
//!
//! On multi-rail fabrics the aggregate term is refined **per rail**: the
//! [`RailPolicy`](crate::rail::RailPolicy) is a pure function of message
//! endpoints, so each byte's rail is known before any costing, and the
//! bytes assigned to rail `r` of level `l` in one direction can jointly
//! drain through at most that rail's active links. The level term becomes
//! the *max over (direction, rail)* of `rail_bytes / (rail_active ·
//! bandwidth)`, which dominates the pooled
//! `total / (min_active_direction · bandwidth)` by the mediant inequality
//! (a max of fractions is never below the fraction of the sums) while
//! remaining admissible by the same measure argument applied rail by
//! rail. The pooled arithmetic survives as
//! [`NetworkModel::round_lower_bound_aggregate_from`] — the cheap first
//! rung of the search's bound ladder (DESIGN.md §7g). On single-rail
//! fabrics the two are byte-identical.
//!
//! The per-level totals live in a [`RoundLoad`], built by **one walk**
//! over a round's messages (`walk_round`), which serves
//! [`NetworkModel::round_load`], both lockstep rungs and both fluid rungs;
//! evaluating a bound from a load is O(levels · rails), so a search that
//! keeps loads around re-bounds without touching the messages again. Each
//! message's crossing level and per-level up/down link ids come from the
//! model's [`RailLinkTable`](crate::rail::RailLinkTable) rows: one
//! core-major row per core holding, per level, the instance's link base
//! and the core's part of the rail choice (`size × depth × 8` bytes per
//! model), so the crossing level is the first level whose bases differ and
//! every link id is an addition — no division by level strides per hop.
//!
//! A message's bytes and latency reach every level from its crossing level
//! inwards, so both depend on the crossing level alone. The walk therefore
//! **tallies bytes per crossing level** and notes which levels were
//! crossed; once per round it prefix-sums the tallies into
//! `bytes_through`, takes `max_latency` over every crossed level and each
//! level's `min_latency_through` over the crossed levels that carry bytes.
//! Per hop it only marks the up and the down link, since which links a
//! message occupies depends on its endpoints: distinct active links are
//! counted by marking each traversed link's id in an epoch-stamped array
//! in the thread's [`RoundWorkspace`], so a warm bound neither hashes nor
//! allocates. The per-rail histograms, which only the tight rung reads,
//! are filled per hop on per-rail walks alone. **One rule** defines the
//! minimum latency: it ranges over the byte-carrying messages through the
//! level. A zero-byte message adds nothing to the level's bytes, so the
//! capacity term stays admissible without it, and every field of a load
//! is a sum, a set union or a min/max over the round's messages — none
//! depends on the order in which the round lists them.
//!
//! The fluid bounds need two loads of one job set: each round's own (for
//! the per-job term) and every message of every job pooled into one
//! virtual round (for the aggregate term). Both come from the same walk:
//! each hop also marks the pooled load's own links, in a second stamped
//! array that persists across rounds, and the walked round's byte totals,
//! per-rail rows and min/max latencies are then **absorbed** into the
//! pooled load in O(levels · rails). A round equal to its predecessor in
//! the same job reuses the predecessor's bound, as the schedule bounds do,
//! and is absorbed again without being walked: its links are already
//! marked, and absorbing is a sum or a min/max per field, so the pooled
//! load is bit-identical to walking every message.
//!
//! Each rung of the ladder has one public spelling per engine: the free
//! functions [`schedule_lower_bound`] (tight) and
//! [`schedule_lower_bound_aggregate`] (cheap) for lockstep schedules,
//! [`fluid_lower_bound`] and [`fluid_lower_bound_aggregate`] for fluid job
//! sets. The two rungs are two algorithms, not two spellings: the cheap
//! one skips the per-rail histogram walk, the tight one prunes more.

use crate::network::{LinkParams, NetworkModel};
use crate::rail::PathHop;
use crate::schedule::{Message, Schedule};
use crate::workspace::{LinkSlots, RoundWorkspace};

/// Per-level byte totals and activity of one round — everything a bound
/// evaluation needs, in O(levels) space.
///
/// Built by [`NetworkModel::round_load`]; `bytes_through[l]` aggregates the
/// payloads of all messages whose path traverses level `l` (equivalently:
/// whose crossing level is `≤ l`), which is the same total for the up and
/// the down direction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundLoad {
    /// Total payload bytes traversing level-`l` uplinks (per direction).
    pub bytes_through: Vec<u64>,
    /// Distinct up-direction (sender-side) level-`l` links carrying traffic.
    /// On multi-rail fabrics each active *(instance, rail)* pair counts —
    /// every rail is an independent drain at the per-rail bandwidth.
    pub active_up: Vec<usize>,
    /// Distinct down-direction (receiver-side) level-`l` links carrying
    /// traffic (per *(instance, rail)*, like `active_up`).
    pub active_down: Vec<usize>,
    /// Smallest crossing latency among the **byte-carrying** messages
    /// through level `l` (`0` when none carries bytes there). A zero-byte
    /// message adds nothing to `bytes_through[l]`, so leaving its latency
    /// out keeps the level's capacity term admissible, and the minimum
    /// does not depend on message order.
    pub min_latency_through: Vec<f64>,
    /// Largest crossing latency of any message in the round (`0` when no
    /// message crosses a level).
    pub max_latency: f64,
    /// Largest self-message payload in the round (local copies bypass the
    /// link fabric but still take `bytes / local_copy_bandwidth`).
    pub max_local_bytes: u64,
    /// Per-(level, rail) byte histogram of the **up** (sender-side)
    /// direction: `rail_bytes_up[l][r]` totals the payloads the active
    /// [`RailPolicy`](crate::rail::RailPolicy) assigns to rail `r` of
    /// level `l`. Rows sum to `bytes_through[l]`; single-rail levels have
    /// one column equal to the aggregate.
    pub rail_bytes_up: Vec<Vec<u64>>,
    /// Per-(level, rail) byte histogram of the **down** (receiver-side)
    /// direction (rows also sum to `bytes_through[l]`).
    pub rail_bytes_down: Vec<Vec<u64>>,
    /// Distinct up-direction instances active on each (level, rail):
    /// `rail_active_up[l]` sums to `active_up[l]` across rails.
    pub rail_active_up: Vec<Vec<usize>>,
    /// Distinct down-direction instances active on each (level, rail)
    /// (sums to `active_down[l]` across rails).
    pub rail_active_down: Vec<Vec<usize>>,
}

impl RoundLoad {
    /// Zeroes the load for a machine whose level `l` has `rails[l]` rails,
    /// **keeping every buffer's allocation** when the shape is unchanged.
    /// `reset` + accumulate produces exactly the state a fresh load would
    /// reach, so reusing one load across rounds is bit-identical to
    /// building fresh ones. The four per-rail rows are reset only when
    /// `PER_RAIL`: the cheap rung neither fills nor reads them, so after
    /// its walks they hold whatever the last per-rail walk left.
    pub(crate) fn reset<const PER_RAIL: bool>(&mut self, rails: &[usize]) {
        let depth = rails.len();
        fn reset_rows<T: Copy>(rows: &mut Vec<Vec<T>>, rails: &[usize], zero: T) {
            rows.resize_with(rails.len(), Vec::new);
            for (row, &r) in rows.iter_mut().zip(rails) {
                row.clear();
                row.resize(r.max(1), zero);
            }
        }
        self.bytes_through.clear();
        self.bytes_through.resize(depth, 0);
        self.active_up.clear();
        self.active_up.resize(depth, 0);
        self.active_down.clear();
        self.active_down.resize(depth, 0);
        self.min_latency_through.clear();
        self.min_latency_through.resize(depth, 0.0);
        self.max_latency = 0.0;
        self.max_local_bytes = 0;
        if PER_RAIL {
            reset_rows(&mut self.rail_bytes_up, rails, 0);
            reset_rows(&mut self.rail_bytes_down, rails, 0);
            reset_rows(&mut self.rail_active_up, rails, 0);
            reset_rows(&mut self.rail_active_down, rails, 0);
        }
    }

    /// Marks the up and the down link of `hop` in `links`, counting each
    /// link the first time it is marked (per rail only when `PER_RAIL`).
    #[inline(always)]
    fn mark_hop<const PER_RAIL: bool>(&mut self, links: &mut LinkSlots, hop: &PathHop) {
        // Distinct (instance, rail) pairs: on a multi-rail fabric each rail
        // of a NIC drains independently at the per-rail bandwidth, so
        // activity is counted per rail. Single-rail models always yield
        // rail 0, keeping the counts (and the bound) byte-identical to the
        // pre-rail engine.
        if links.insert(hop.up) {
            self.active_up[hop.level] += 1;
            if PER_RAIL {
                self.rail_active_up[hop.level][hop.up_rail] += 1;
            }
        }
        if links.insert(hop.down) {
            self.active_down[hop.level] += 1;
            if PER_RAIL {
                self.rail_active_down[hop.level][hop.down_rail] += 1;
            }
        }
    }

    /// Turns a walk's tallies into the round's totals. On entry
    /// `bytes_through[l]` holds the bytes of the messages crossing at `l`
    /// and `min_latency_through[l]` is `+∞` where some message crosses
    /// (the walk's mark). On return `bytes_through[l]` sums the crossings
    /// at `0..=l`, `max_latency` is the largest latency of a crossed level
    /// and `min_latency_through[l]` the smallest over the crossed levels
    /// `≤ l` that carry bytes.
    fn sum_crossings(&mut self, params: &[LinkParams]) {
        let mut through = 0;
        let mut min_latency = f64::INFINITY;
        for (l, link) in params.iter().enumerate() {
            let latency = link.crossing_latency;
            if self.min_latency_through[l] == f64::INFINITY {
                self.max_latency = self.max_latency.max(latency);
            }
            if self.bytes_through[l] > 0 {
                min_latency = min_latency.min(latency);
            }
            through += self.bytes_through[l];
            self.bytes_through[l] = through;
            self.min_latency_through[l] = if through > 0 { min_latency } else { 0.0 };
        }
    }

    /// Adds the walked `round` to this pooled load: byte totals (and, when
    /// `PER_RAIL`, per-rail byte rows) add, and the latency minima and
    /// maxima and the largest local copy fold in. The walk's hook has
    /// marked the round's links, so absorbing an adjacent repeat again
    /// equals walking its messages again — O(levels · rails).
    fn absorb<const PER_RAIL: bool>(&mut self, round: &RoundLoad) {
        fn add(sums: &mut [u64], more: &[u64]) {
            for (sum, &bytes) in sums.iter_mut().zip(more) {
                *sum += bytes;
            }
        }
        for (l, &bytes) in round.bytes_through.iter().enumerate() {
            if bytes > 0 {
                let latency = round.min_latency_through[l];
                let min = &mut self.min_latency_through[l];
                *min = if self.bytes_through[l] == 0 {
                    latency
                } else {
                    min.min(latency)
                };
            }
        }
        add(&mut self.bytes_through, &round.bytes_through);
        self.max_latency = self.max_latency.max(round.max_latency);
        self.max_local_bytes = self.max_local_bytes.max(round.max_local_bytes);
        if PER_RAIL {
            for (rows, more) in [
                (&mut self.rail_bytes_up, &round.rail_bytes_up),
                (&mut self.rail_bytes_down, &round.rail_bytes_down),
            ] {
                for (row, more) in rows.iter_mut().zip(more) {
                    add(row, more);
                }
            }
        }
    }
}

impl NetworkModel {
    /// Aggregates one round of messages into a [`RoundLoad`] (one pass over
    /// the messages; bounds evaluated from the load are O(levels)).
    pub fn round_load(&self, messages: &[Message]) -> RoundLoad {
        let mut load = RoundLoad::default();
        crate::workspace::with_thread_local(|ws| {
            self.walk_round::<true>(&mut ws.links, &mut load, messages, |_| {})
        });
        load
    }

    /// Runs `f` on the load of `messages`, accumulated into the
    /// thread-local [`RoundWorkspace`]'s load instead of a fresh one
    /// (bit-identical — see [`RoundLoad::reset`]).
    ///
    /// Without `per_rail` the four per-rail histograms are neither reset
    /// nor filled: the aggregate rung never reads them.
    pub(crate) fn with_round_load<R>(
        &self,
        messages: &[Message],
        per_rail: bool,
        f: impl FnOnce(&RoundLoad) -> R,
    ) -> R {
        crate::workspace::with_thread_local(|ws| {
            if per_rail {
                self.walk_round::<true>(&mut ws.links, &mut ws.load, messages, |_| {});
            } else {
                self.walk_round::<false>(&mut ws.links, &mut ws.load, messages, |_| {});
            }
            f(&ws.load)
        })
    }

    /// The one message walk (module docs): resets `load` and restarts
    /// `links`, then tallies every message of the round by crossing level,
    /// marks each hop's links and hands the hop to `on_hop`; the per-rail
    /// histograms are filled only when `PER_RAIL`. Reusing `load` and
    /// `links` across rounds allocates nothing once warm and accumulates
    /// exactly what a fresh load would.
    #[inline(always)]
    fn walk_round<const PER_RAIL: bool>(
        &self,
        links: &mut LinkSlots,
        load: &mut RoundLoad,
        messages: &[Message],
        mut on_hop: impl FnMut(&PathHop),
    ) {
        let table = self.link_table();
        load.reset::<PER_RAIL>(self.rail_counts());
        links.begin(table.num_links());
        for m in messages {
            let Some(path) = table.path(m.src, m.dst) else {
                load.max_local_bytes = load.max_local_bytes.max(m.bytes);
                continue;
            };
            // Tallied and marked crossed; `sum_crossings` resolves both.
            load.bytes_through[path.crossing()] += m.bytes;
            load.min_latency_through[path.crossing()] = f64::INFINITY;
            for hop in path {
                load.mark_hop::<PER_RAIL>(links, &hop);
                if PER_RAIL {
                    load.rail_bytes_up[hop.level][hop.up_rail] += m.bytes;
                    load.rail_bytes_down[hop.level][hop.down_rail] += m.bytes;
                }
                on_hop(&hop);
            }
        }
        load.sum_crossings(self.links());
    }

    /// Admissible lower bound on [`round_time`](Self::round_time) from a
    /// precomputed [`RoundLoad`] — O(levels · rails).
    ///
    /// The level term is the max over (direction, rail) of
    /// `rail_bytes / (rail_active · bandwidth)`: the bytes the rail policy
    /// pins to one rail of one direction can jointly drain at most through
    /// that rail's active links, so every such fraction lower-bounds the
    /// round. This **dominates** the pooled aggregate term of
    /// [`round_lower_bound_aggregate_from`](Self::round_lower_bound_aggregate_from)
    /// — `max_r (bytes_r / cap_r) ≥ (Σ bytes_r) / (Σ cap_r)` for any
    /// positive capacities (mediant inequality) — and degenerates to it
    /// byte-identically on single-rail fabrics, where each direction has
    /// exactly one fraction and the max over directions reproduces the
    /// divide-by-min-active arithmetic.
    pub fn round_lower_bound_from(&self, load: &RoundLoad) -> f64 {
        let mut t = self.round_floor(load);
        for (l, link) in self.links().iter().enumerate() {
            if load.bytes_through[l] == 0 {
                continue;
            }
            let mut level_term: f64 = 0.0;
            for (rail_bytes, rail_active) in [
                (&load.rail_bytes_up[l], &load.rail_active_up[l]),
                (&load.rail_bytes_down[l], &load.rail_active_down[l]),
            ] {
                for (r, &bytes) in rail_bytes.iter().enumerate() {
                    if bytes == 0 {
                        continue;
                    }
                    let active = rail_active[r].max(1) as f64;
                    level_term = level_term.max(bytes as f64 / (active * link.uplink_bandwidth));
                }
            }
            t = t.max(load.min_latency_through[l] + level_term);
        }
        t
    }

    /// The pre-rail **aggregate** lower bound from a precomputed
    /// [`RoundLoad`] — per-level byte totals divided by the pooled
    /// capacity of the direction with fewer active links. Strictly no
    /// tighter than [`round_lower_bound_from`](Self::round_lower_bound_from)
    /// (and equal on single-rail fabrics), but cheaper to evaluate —
    /// O(levels) — which makes it the first rung of the search's bound
    /// ladder: candidates it already prunes never pay the per-rail
    /// histogram walk.
    pub fn round_lower_bound_aggregate_from(&self, load: &RoundLoad) -> f64 {
        (0..self.links().len()).fold(self.round_floor(load), |t, l| {
            t.max(self.aggregate_level_term(load, l))
        })
    }

    /// Level `l`'s aggregate capacity term of `load`: `min_latency +
    /// bytes / (active · bandwidth)`, with `active` the direction with
    /// fewer active links — either direction caps the round, and the
    /// smaller count gives the tighter (still admissible) bound. `0` when
    /// the level carries no bytes. The cheap rung maxes it over levels, and
    /// the congestion report's bound gaps read it per level.
    pub(crate) fn aggregate_level_term(&self, load: &RoundLoad, l: usize) -> f64 {
        if load.bytes_through[l] == 0 {
            return 0.0;
        }
        let active = load.active_up[l].min(load.active_down[l]).max(1) as f64;
        load.min_latency_through[l]
            + load.bytes_through[l] as f64 / (active * self.links()[l].uplink_bandwidth)
    }

    /// The terms both round bounds share: the largest crossing latency and
    /// the largest local copy over the local-copy bandwidth.
    fn round_floor(&self, load: &RoundLoad) -> f64 {
        let mut t = load.max_latency;
        if load.max_local_bytes > 0 {
            t = t.max(load.max_local_bytes as f64 / self.local_copy_bandwidth());
        }
        t
    }

    /// Admissible lower bound on [`round_time`](Self::round_time).
    ///
    /// Accumulates into the thread-local
    /// [`RoundWorkspace`]'s load instead
    /// of allocating one per call (bit-identical: the load is reset first).
    pub fn round_lower_bound(&self, messages: &[Message]) -> f64 {
        self.with_round_load(messages, true, |load| self.round_lower_bound_from(load))
    }

    /// Aggregate-capacity lower bound on [`round_time`](Self::round_time)
    /// (the cheap rung — see
    /// [`round_lower_bound_aggregate_from`](Self::round_lower_bound_aggregate_from)).
    pub fn round_lower_bound_aggregate(&self, messages: &[Message]) -> f64 {
        self.with_round_load(messages, false, |load| {
            self.round_lower_bound_aggregate_from(load)
        })
    }
}

/// Admissible lower bound on
/// [`NetworkModel::schedule_time`]: the sum of per-round bounds (rounds
/// are barrier-synchronized, so per-round lower bounds add) — the tight
/// rung of the search's bound ladder.
///
/// A round equal to the one before it reuses that round's bound instead
/// of walking its messages again. Ring collectives re-issue the same
/// message set round after round (and lockstep merges of rings keep
/// doing so), so they cost O(distinct runs · messages); pairwise rounds
/// never repeat and are each bounded once. Equality is checked on the
/// whole message slice, and a round's bound is a pure function of its
/// messages, so reuse changes no bit; repeats that are not adjacent are
/// simply bounded again.
pub fn schedule_lower_bound(net: &NetworkModel, schedule: &Schedule) -> f64 {
    schedule_bound_by(schedule, |msgs, repeat| {
        repeat.unwrap_or_else(|| net.round_lower_bound(msgs))
    })
}

/// [`schedule_lower_bound`] built from the cheap aggregate round term
/// instead of the per-rail histogram — the first rung of the bound
/// ladder. Still admissible (it is a sum of strictly weaker per-round
/// terms); equal to the tight bound on single-rail fabrics.
pub fn schedule_lower_bound_aggregate(net: &NetworkModel, schedule: &Schedule) -> f64 {
    schedule_bound_by(schedule, |msgs, repeat| {
        repeat.unwrap_or_else(|| net.round_lower_bound_aggregate(msgs))
    })
}

/// The per-round sum driving every schedule bound: `round_bound(messages,
/// repeat)` bounds one round, where `repeat` is the predecessor's bound
/// when the round equals its predecessor.
fn schedule_bound_by(
    schedule: &Schedule,
    mut round_bound: impl FnMut(&[Message], Option<f64>) -> f64,
) -> f64 {
    let mut previous: Option<(&[Message], f64)> = None;
    schedule
        .rounds
        .iter()
        .map(|r| {
            let messages = r.messages.as_slice();
            let repeat = previous
                .filter(|&(prev, _)| prev == messages)
                .map(|(_, t)| t);
            let t = round_bound(messages, repeat);
            previous = Some((messages, t));
            t
        })
        .sum()
}

/// Admissible lower bound on [`fluid_time`](crate::fluid::fluid_time) of
/// `schedules` executing concurrently — the pruning oracle of fluid-costed
/// order sweeps.
///
/// The fluid execution has no cross-job barriers, so per-round bounds of
/// different jobs do **not** add; two terms survive:
///
/// * **Per-job term.** Contention never accelerates a job, so the fluid
///   makespan is at least each job's isolated cost, and
///   [`schedule_lower_bound`] bounds that from below — take the max over
///   jobs.
/// * **Aggregate term.** Pool *every* message of *every* job into one
///   virtual round and evaluate the per-level capacity bound on it: all
///   bytes that must traverse level `l` drain through the union of active
///   level-`l` links at a joint rate of at most `active · bandwidth_l`,
///   regardless of when their rounds start, and no byte crosses `l`
///   before the smallest crossing latency of any byte-carrying message
///   through `l`.
///   The latency-max and local-copy terms of
///   [`round_lower_bound_from`](NetworkModel::round_lower_bound_from)
///   remain valid verbatim (some message must wait its full latency; some
///   core must push its largest local copy).
///
/// Both terms come from one walk over the job set: one path lookup per
/// message of each distinct round, and none for a round repeating its
/// predecessor (module docs). The result is bit-identical to bounding
/// each job and then the copied pooled round separately.
///
/// This is necessarily looser than [`schedule_lower_bound`] on a single
/// schedule (it forgets round barriers), but it is valid for the
/// barrier-free execution, where the per-round sum is **not** — fluid
/// overlap can beat it. Property-tested against every collective
/// generator under both contention modes in `tests/proptests.rs`.
pub fn fluid_lower_bound(net: &NetworkModel, schedules: &[Schedule]) -> f64 {
    let bound = NetworkModel::round_lower_bound_from;
    with_pooled_load::<true, _>(net, schedules, bound, |per_job, pooled| {
        per_job.max(bound(net, pooled))
    })
}

/// [`fluid_lower_bound`] built from the cheap aggregate round term — the
/// fluid counterpart of [`schedule_lower_bound_aggregate`], and the first
/// rung of the fluid bound ladder. Admissible by the same argument (every
/// term is weakened, never strengthened); equal to [`fluid_lower_bound`]
/// on single-rail fabrics. Its one walk skips the per-rail histograms.
pub fn fluid_lower_bound_aggregate(net: &NetworkModel, schedules: &[Schedule]) -> f64 {
    let bound = NetworkModel::round_lower_bound_aggregate_from;
    with_pooled_load::<false, _>(net, schedules, bound, |per_job, pooled| {
        per_job.max(bound(net, pooled))
    })
}

/// The one walk behind the fluid bounds: runs `f` on the max over jobs of
/// each job's schedule bound (rounds bounded by `round_bound`, repeats
/// reusing their predecessor's) and on the pooled load of every message
/// of every job, both accumulated in the thread-local
/// [`RoundWorkspace`] (per-rail histograms filled when `PER_RAIL`).
pub(crate) fn with_pooled_load<const PER_RAIL: bool, R>(
    net: &NetworkModel,
    schedules: &[Schedule],
    round_bound: impl Fn(&NetworkModel, &RoundLoad) -> f64,
    f: impl FnOnce(f64, &RoundLoad) -> R,
) -> R {
    crate::workspace::with_thread_local(|ws| {
        let RoundWorkspace {
            links,
            load,
            pooled,
            pooled_links,
            ..
        } = ws;
        pooled.reset::<PER_RAIL>(net.rail_counts());
        pooled_links.begin(net.link_table().num_links());
        let per_job = schedules
            .iter()
            .map(|s| {
                schedule_bound_by(s, |messages, repeat| {
                    // A repeat's links are marked, and `load` still holds
                    // its predecessor's walk.
                    if repeat.is_none() {
                        net.walk_round::<PER_RAIL>(links, load, messages, |hop| {
                            pooled.mark_hop::<PER_RAIL>(pooled_links, hop)
                        });
                    }
                    pooled.absorb::<PER_RAIL>(load);
                    repeat.unwrap_or_else(|| round_bound(net, load))
                })
            })
            .fold(0.0, f64::max);
        f(per_job, pooled)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ContentionMode, LinkParams};
    use crate::schedule::Round;
    use mre_core::Hierarchy;

    /// Two nodes × two sockets × four cores; NIC 10 B/s, socket 40 B/s,
    /// core 100 B/s.
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
    fn load_aggregates_per_level() {
        let net = toy();
        // One node-crossing and one same-socket message plus a local copy.
        let load = net.round_load(&[
            Message::new(0, 8, 100),
            Message::new(2, 3, 40),
            Message::new(5, 5, 70),
        ]);
        assert_eq!(load.bytes_through, vec![100, 100, 140]);
        // Node level: 1 sender-side and 1 receiver-side NIC active.
        assert_eq!(load.active_up[0], 1);
        assert_eq!(load.active_down[0], 1);
        // Core level: two distinct senders and two distinct receivers.
        assert_eq!(load.active_up[2], 2);
        assert_eq!(load.active_down[2], 2);
        assert_eq!(load.max_latency, 2.0);
        assert_eq!(load.min_latency_through[0], 2.0);
        assert_eq!(load.min_latency_through[2], 0.5);
        assert_eq!(load.max_local_bytes, 70);
    }

    #[test]
    fn bound_is_exact_for_a_single_message() {
        let net = toy();
        // One isolated cross-node message: bound = latency + bytes/NIC,
        // which is also the exact time.
        let m = [Message::new(0, 8, 100)];
        let lb = net.round_lower_bound(&m);
        assert!((lb - net.round_time(&m)).abs() < 1e-12, "{lb}");
    }

    #[test]
    fn bound_sees_shared_nic_aggregate() {
        let net = toy();
        // Two cross-node flows out of the same node: one active up NIC, so
        // the aggregate term is 2 + 200/10 = 22 — the exact contended time.
        let m = [Message::new(0, 8, 100), Message::new(1, 9, 100)];
        let lb = net.round_lower_bound(&m);
        let t = net.round_time(&m);
        assert!((lb - 22.0).abs() < 1e-12, "{lb}");
        assert!(lb <= t * (1.0 + 1e-12), "{lb} vs {t}");
    }

    #[test]
    fn bound_never_exceeds_time_under_either_mode() {
        let fair = toy();
        let naive = toy().with_contention_mode(ContentionMode::EqualShare);
        let rounds = [
            vec![Message::new(0, 1, 100)],
            vec![Message::new(0, 8, 100), Message::new(1, 9, 50)],
            vec![
                Message::new(0, 4, 1000),
                Message::new(0, 8, 1000),
                Message::new(2, 10, 1000),
                Message::new(3, 3, 5000),
            ],
        ];
        for msgs in &rounds {
            for net in [&fair, &naive] {
                let lb = net.round_lower_bound(msgs);
                let t = net.round_time(msgs);
                assert!(lb <= t * (1.0 + 1e-12), "bound {lb} vs time {t}");
                assert!(lb > 0.0);
            }
        }
    }

    #[test]
    fn schedule_bound_sums_rounds_and_stays_below_time() {
        let net = toy();
        let s = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 100), Message::new(1, 9, 100)]),
            Round::with(vec![Message::new(0, 1, 100)]),
            Round::new(),
        ]);
        let lb = schedule_lower_bound(&net, &s);
        let t = net.schedule_time(&s);
        assert!(lb <= t * (1.0 + 1e-12), "{lb} vs {t}");
        // The empty round contributes nothing.
        assert_eq!(net.round_lower_bound(&[]), 0.0);
        // Per-round loads expose the O(levels) path.
        let from_loads: f64 = s
            .rounds
            .iter()
            .map(|r| net.round_lower_bound_from(&net.round_load(&r.messages)))
            .sum();
        assert_eq!(from_loads, lb);
    }

    #[test]
    fn railed_load_counts_per_rail_activity() {
        use crate::rail::RailPolicy;
        let net = toy().with_node_rails(2, RailPolicy::RoundRobin);
        // 0→8 rides node rail (0+8)%2 = 0, 1→9 rides (1+9)%2 = 0 too — but
        // they leave from the *same* node instance, so with round-robin on
        // distinct (src+dst) parities 0→8 and 1→8 split onto rails 0 and 1.
        let load = net.round_load(&[Message::new(0, 8, 100), Message::new(1, 8, 100)]);
        assert_eq!(load.active_up[0], 2, "two rails of one NIC active");
        assert_eq!(load.active_down[0], 2);
        // Same-rail flows still collapse to one active drain.
        let load = net.round_load(&[Message::new(0, 8, 100), Message::new(2, 10, 100)]);
        assert_eq!(load.active_up[0], 1, "both on rail 0 of the same NIC");
    }

    #[test]
    fn railed_bound_stays_admissible_and_single_rail_is_identical() {
        use crate::rail::RailPolicy;
        let plain = toy();
        let msgs = vec![
            Message::new(0, 8, 100),
            Message::new(1, 8, 100),
            Message::new(2, 10, 50),
            Message::new(4, 12, 70),
            Message::new(3, 3, 900),
        ];
        for policy in RailPolicy::ALL {
            let one = toy().with_node_rails(1, policy);
            assert_eq!(
                plain.round_lower_bound(&msgs).to_bits(),
                one.round_lower_bound(&msgs).to_bits(),
                "single-rail bound must be byte-identical"
            );
            assert_eq!(
                one.round_lower_bound(&msgs).to_bits(),
                one.round_lower_bound_aggregate(&msgs).to_bits(),
                "on one rail the per-rail and aggregate bounds coincide"
            );
            for nics in [2, 3] {
                let railed = toy().with_node_rails(nics, policy);
                for net in [
                    railed.clone(),
                    railed.with_contention_mode(ContentionMode::EqualShare),
                ] {
                    let lb = net.round_lower_bound(&msgs);
                    let agg = net.round_lower_bound_aggregate(&msgs);
                    let t = net.round_time(&msgs);
                    assert!(lb <= t * (1.0 + 1e-12), "{policy} x{nics}: {lb} vs {t}");
                    assert!(agg <= lb * (1.0 + 1e-12), "{policy} x{nics}: {agg} vs {lb}");
                }
            }
        }
    }

    #[test]
    fn rail_histograms_partition_the_level_totals() {
        use crate::rail::RailPolicy;
        let msgs = vec![
            Message::new(0, 8, 100),
            Message::new(1, 8, 60),
            Message::new(2, 10, 50),
            Message::new(4, 12, 70),
        ];
        for policy in RailPolicy::ALL {
            for nics in [1, 2, 3] {
                let net = toy().with_node_rails(nics, policy);
                let load = net.round_load(&msgs);
                for l in 0..net.hierarchy().depth() {
                    assert_eq!(
                        load.rail_bytes_up[l].iter().sum::<u64>(),
                        load.bytes_through[l],
                        "{policy} x{nics} level {l}: up rows must partition the bytes"
                    );
                    assert_eq!(
                        load.rail_bytes_down[l].iter().sum::<u64>(),
                        load.bytes_through[l]
                    );
                    assert_eq!(
                        load.rail_active_up[l].iter().sum::<usize>(),
                        load.active_up[l]
                    );
                    assert_eq!(
                        load.rail_active_down[l].iter().sum::<usize>(),
                        load.active_down[l]
                    );
                    assert_eq!(load.rail_bytes_up[l].len(), net.rail_counts()[l].max(1));
                }
            }
        }
    }

    #[test]
    fn per_rail_bound_is_strict_on_a_skewed_rail_split() {
        use crate::rail::RailPolicy;
        // Two crossings of opposite (src + dst) parity activate both rails
        // of the sender NIC, but 99% of the bytes ride rail 0. The
        // aggregate bound pools 1010 bytes over both active rails; the
        // per-rail histogram sees rail 0 draining 1000 bytes alone and is
        // strictly larger.
        let net = toy().with_node_rails(2, RailPolicy::RoundRobin);
        let msgs = vec![Message::new(0, 8, 1000), Message::new(1, 8, 10)];
        let load = net.round_load(&msgs);
        assert_eq!(load.rail_bytes_up[0], vec![1000, 10]);
        let per_rail = net.round_lower_bound_from(&load);
        let aggregate = net.round_lower_bound_aggregate_from(&load);
        assert!(
            per_rail > aggregate * (1.0 + 1e-9),
            "per-rail {per_rail} must strictly dominate aggregate {aggregate}"
        );
        // …and remains admissible for the exact railed cost.
        assert!(per_rail <= net.round_time(&msgs) * (1.0 + 1e-12));
    }

    #[test]
    fn aggregate_schedule_and_fluid_bounds_stay_admissible_rungs() {
        use crate::rail::RailPolicy;
        let net = toy().with_node_rails(2, RailPolicy::RoundRobin);
        let s = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 1000), Message::new(2, 10, 1000)]),
            Round::with(vec![Message::new(0, 8, 1000), Message::new(2, 10, 1000)]),
            Round::with(vec![Message::new(1, 9, 500)]),
        ]);
        let agg = schedule_lower_bound_aggregate(&net, &s);
        let tight = schedule_lower_bound(&net, &s);
        assert!(agg <= tight, "{agg} vs {tight}");
        assert!(tight <= net.schedule_time(&s) * (1.0 + 1e-12));
        let jobs = [s.clone(), s];
        let fagg = fluid_lower_bound_aggregate(&net, &jobs);
        let ftight = fluid_lower_bound(&net, &jobs);
        assert!(fagg <= ftight, "{fagg} vs {ftight}");
        // Single-rail: both rungs coincide bit-for-bit.
        let one = toy().with_node_rails(1, RailPolicy::RoundRobin);
        assert_eq!(
            schedule_lower_bound(&one, &jobs[0]).to_bits(),
            schedule_lower_bound_aggregate(&one, &jobs[0]).to_bits()
        );
        assert_eq!(
            fluid_lower_bound(&one, &jobs).to_bits(),
            fluid_lower_bound_aggregate(&one, &jobs).to_bits()
        );
    }

    #[test]
    fn a_zero_byte_message_in_a_repeated_round_does_not_lower_the_pooled_latency() {
        // The core level is the bottleneck (1 B/s). The first job repeats
        // a round holding a zero-byte same-socket message (latency 0.5)
        // beside a cross-node one (latency 2). A level's minimum latency
        // ranges over byte-carrying messages only, so the zero-byte
        // message never lowers it, in either listing and on the repeat.
        // With three more jobs sending the cross-node message alone, 800
        // bytes leave through one core link: 2 + 800 = 802.
        let net = NetworkModel::new(
            Hierarchy::new(vec![2, 2, 4]).unwrap(),
            vec![
                LinkParams {
                    uplink_bandwidth: 1000.0,
                    crossing_latency: 2.0,
                },
                LinkParams {
                    uplink_bandwidth: 1000.0,
                    crossing_latency: 1.0,
                },
                LinkParams {
                    uplink_bandwidth: 1.0,
                    crossing_latency: 0.5,
                },
            ],
            1000.0,
        );
        let (zero, cross) = (Message::new(0, 1, 0), Message::new(0, 8, 100));
        for listed in [[zero, cross], [cross, zero]] {
            assert_eq!(net.round_lower_bound(&listed), 102.0, "{listed:?}");
            assert_eq!(net.round_lower_bound_aggregate(&listed), 102.0);
            let round = Round::with(listed.to_vec());
            let mut jobs = vec![Schedule::with(vec![Round::with(vec![cross]); 2]); 4];
            jobs[0] = Schedule::with(vec![round.clone(), round]);
            let copied: Vec<Message> = jobs
                .iter()
                .flat_map(|s| &s.rounds)
                .flat_map(|r| r.messages.iter().copied())
                .collect();
            assert_eq!(net.round_lower_bound(&copied), 802.0);
            assert_eq!(fluid_lower_bound(&net, &jobs), 802.0);
            assert_eq!(fluid_lower_bound_aggregate(&net, &jobs), 802.0);
            // The bound stays below the quantity it bounds.
            let makespan = crate::fluid::fluid_time(&net, &jobs);
            assert!(makespan >= 802.0, "{makespan}");
        }
    }

    #[test]
    fn crossing_tallies_equal_the_per_hop_walk() {
        // The walk adds each message's bytes once, at its crossing level,
        // and `sum_crossings` spreads them inwards; adding them hop by hop
        // over the same link paths must give every field bit for bit, in
        // the per-rail and the cheap walk alike.
        use crate::presets::{hydra_network_rails, lumi_network};
        use crate::rail::RailPolicy;
        use std::collections::HashSet;
        let mut fabrics = vec![lumi_network(2)];
        for nics in [1, 2, 4] {
            for policy in RailPolicy::ALL {
                fabrics.push(hydra_network_rails(4, nics, policy));
            }
        }
        let per_hop = |net: &NetworkModel, messages: &[Message]| -> RoundLoad {
            let mut load = RoundLoad::default();
            load.reset::<true>(net.rail_counts());
            let mut seen: HashSet<(bool, u32)> = HashSet::new();
            for m in messages {
                let Some(path) = net.link_table().path(m.src, m.dst) else {
                    load.max_local_bytes = load.max_local_bytes.max(m.bytes);
                    continue;
                };
                let latency = net.links()[path.crossing()].crossing_latency;
                load.max_latency = load.max_latency.max(latency);
                for hop in path {
                    let l = hop.level;
                    if m.bytes > 0 {
                        let min = &mut load.min_latency_through[l];
                        *min = if load.bytes_through[l] == 0 {
                            latency
                        } else {
                            min.min(latency)
                        };
                    }
                    load.bytes_through[l] += m.bytes;
                    load.rail_bytes_up[l][hop.up_rail] += m.bytes;
                    load.rail_bytes_down[l][hop.down_rail] += m.bytes;
                    if seen.insert((true, hop.up)) {
                        load.active_up[l] += 1;
                        load.rail_active_up[l][hop.up_rail] += 1;
                    }
                    if seen.insert((false, hop.down)) {
                        load.active_down[l] += 1;
                        load.rail_active_down[l][hop.down_rail] += 1;
                    }
                }
            }
            load
        };
        let bits = |load: &RoundLoad| -> Vec<u64> {
            let mins = load.min_latency_through.iter().map(|l| l.to_bits());
            mins.chain([load.max_latency.to_bits()]).collect()
        };
        mre_rng::propcheck(64, 0x07a1_11e5, |rng| {
            for net in &fabrics {
                let cores = net.hierarchy().size();
                let zero_share = if rng.gen_bool(0.5) { 0.0 } else { 0.2 };
                let self_share = rng.unit_f64() * 0.3;
                let messages: Vec<Message> = (0..rng.gen_range(0..64usize))
                    .map(|_| {
                        let src = rng.gen_range(0..cores);
                        let dst = if rng.gen_bool(self_share) {
                            src
                        } else {
                            rng.gen_range(0..cores)
                        };
                        let bytes = if rng.gen_bool(zero_share) {
                            0
                        } else {
                            rng.gen_range(1..1u64 << 20)
                        };
                        Message::new(src, dst, bytes)
                    })
                    .collect();
                let walked = per_hop(net, &messages);
                let tallied = net.round_load(&messages);
                assert_eq!(tallied, walked, "{messages:?}");
                assert_eq!(bits(&tallied), bits(&walked), "{messages:?}");
                net.with_round_load(&messages, false, |cheap| {
                    assert_eq!(cheap.bytes_through, walked.bytes_through);
                    assert_eq!(cheap.active_up, walked.active_up);
                    assert_eq!(cheap.active_down, walked.active_down);
                    assert_eq!(cheap.max_local_bytes, walked.max_local_bytes);
                    assert_eq!(bits(cheap), bits(&walked), "{messages:?}");
                });
            }
        });
    }

    #[test]
    fn local_copies_bound_by_copy_bandwidth() {
        let net = toy();
        let m = [Message::new(3, 3, 5000)];
        let lb = net.round_lower_bound(&m);
        assert!((lb - 5.0).abs() < 1e-12, "{lb}");
        assert!(lb <= net.round_time(&m) * (1.0 + 1e-12));
    }
}
