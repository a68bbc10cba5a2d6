//! Symbolic payload axis — lockstep schedule cost as a piecewise-linear
//! function of payload bytes (DESIGN.md §7h).
//!
//! Every contention solve is payload-independent: a [`RoundProfile`]
//! assigns each message a `(latency, rate)` pair from endpoints alone, so
//! a round's time at payload `P` is `max_i (latency_i + bytes_i(P) /
//! rate_i)`. When the generator's message sizes are **linear in the
//! payload** — `bytes_i(P) = bytes_i(P_ref) · P / P_ref`, which holds for
//! every collective generator on power-of-two payload grids — the round
//! time is the upper envelope of affine functions of `P`, and the
//! schedule time (a sum of round times) is a **convex piecewise-linear
//! function of `P`**. A payload sweep therefore needs the expensive part
//! — the contention solves — exactly once per candidate, not once per
//! (candidate, payload).
//!
//! [`SymbolicScheduleCost::build`] captures a reference schedule's
//! profiles (through the round memo of
//! [`SharedCostCache`], so solves are
//! also shared across candidates) and precomputes the envelope. For each
//! payload grid point the sweep then:
//!
//! 1. generates the candidate's schedule at that payload (cheap — no
//!    solves) and checks [`matches`](SymbolicScheduleCost::matches): same
//!    endpoints, and every message's bytes exactly the linear prediction.
//!    Any non-linearity — `allreduce_ring`'s floor/ceil block splits at
//!    non-divisible sizes, an `Auto` algorithm flip between payloads, a
//!    `.max(1)` clamp — fails the check and the caller falls back to the
//!    memoized exact path, so exactness never rests on the linearity
//!    assumption;
//! 2. on a match, costs it with
//!    [`time_at_payload`](SymbolicScheduleCost::time_at_payload) — a
//!    replay of the captured profiles that is **bit-identical** to
//!    [`NetworkModel::schedule_time`] on the generated schedule (same
//!    per-message arithmetic in the same order), in O(messages) with zero
//!    solves and zero allocations;
//! 3. prunes with [`bound_at`](SymbolicScheduleCost::bound_at) — the
//!    envelope shaved by a 1e-9 relative guard band so floating-point
//!    reassociation between the envelope's `b + m·P` form and the
//!    replay's per-message form can never make the bound inadmissible
//!    (property-tested at 1e-12 relative agreement).

use crate::network::{NetworkModel, RoundProfile};
use crate::schedule::{Round, Schedule, SharedCostCache};
use std::sync::Arc;

/// A convex piecewise-linear function of payload bytes on `[0, ∞)`:
/// segment `k` applies between `breakpoints[k-1]` and `breakpoints[k]`
/// and evaluates as `intercept + slope · payload`.
#[derive(Debug, Clone, PartialEq)]
pub struct PayloadEnvelope {
    /// Ascending interior breakpoints (payload bytes); `segments` has one
    /// more entry than this.
    breakpoints: Vec<f64>,
    /// `(intercept, slope)` of each segment, left to right.
    segments: Vec<(f64, f64)>,
}

impl PayloadEnvelope {
    /// Evaluates the envelope at `payload` bytes by segment lookup —
    /// O(log segments), no allocation.
    pub fn value(&self, payload: f64) -> f64 {
        let (b, m) = self.segment_at(payload);
        b + m * payload
    }

    /// The `(intercept, slope)` active at `payload` bytes.
    pub fn segment_at(&self, payload: f64) -> (f64, f64) {
        let idx = self.breakpoints.partition_point(|&x| x <= payload);
        self.segments[idx]
    }
}

/// One line `intercept + slope · payload` with its hull start.
#[derive(Debug, Clone, Copy)]
struct HullPiece {
    start: f64,
    intercept: f64,
    slope: f64,
}

/// Upper envelope of lines on `[0, ∞)` — the standard convex-hull sweep
/// over lines sorted by slope.
fn upper_envelope(mut lines: Vec<(f64, f64)>) -> Vec<HullPiece> {
    lines.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.total_cmp(&b.0)));
    // Equal slopes: only the largest intercept can appear on the envelope.
    lines.dedup_by(|next, prev| {
        if next.1 == prev.1 {
            prev.0 = prev.0.max(next.0);
            true
        } else {
            false
        }
    });
    let mut hull: Vec<HullPiece> = Vec::with_capacity(lines.len());
    for (intercept, slope) in lines {
        loop {
            let Some(&top) = hull.last() else {
                hull.push(HullPiece {
                    start: 0.0,
                    intercept,
                    slope,
                });
                break;
            };
            // Payload at which this (steeper) line overtakes the hull top.
            let cross = (top.intercept - intercept) / (slope - top.slope);
            if cross <= top.start {
                hull.pop();
                continue;
            }
            hull.push(HullPiece {
                start: cross,
                intercept,
                slope,
            });
            break;
        }
    }
    hull
}

/// One round of the reference schedule in symbolic form.
#[derive(Debug, Clone)]
struct SymbolicRound {
    /// The memoized contention profile of the round's endpoint pattern.
    profile: Arc<RoundProfile>,
    /// `(src, dst, bytes_at_reference)` per message, in round order.
    messages: Vec<(usize, usize, u64)>,
}

/// The cost of one candidate's schedule as a function of payload bytes:
/// captured profiles for exact replay plus the precomputed piecewise-linear
/// envelope for pruning. See the module docs for the exactness contract.
#[derive(Debug, Clone)]
pub struct SymbolicScheduleCost {
    reference_payload: u64,
    rounds: Vec<SymbolicRound>,
    envelope: PayloadEnvelope,
}

impl SymbolicScheduleCost {
    /// Captures `schedule` (generated at `reference_payload` bytes) as a
    /// symbolic cost. Profiles come from `cache`'s round memo, so rounds
    /// shared with other candidates are solved once globally. Returns
    /// `None` only for a zero reference payload (no linear hypothesis to
    /// scale).
    pub fn build(
        net: &NetworkModel,
        cache: &SharedCostCache,
        schedule: &Schedule,
        reference_payload: u64,
    ) -> Option<Self> {
        if reference_payload == 0 {
            return None;
        }
        let inv_ref = reference_payload as f64;
        let mut rounds: Vec<SymbolicRound> = Vec::with_capacity(schedule.rounds.len());
        let mut lines: Vec<(f64, f64)> = Vec::new();
        let mut hulls: Vec<Vec<HullPiece>> = Vec::with_capacity(schedule.rounds.len());
        let mut previous: Option<&Round> = None;
        let model_fp = net.fingerprint();
        for round in &schedule.rounds {
            // A round equal to its predecessor would hit the profile tier
            // the predecessor just filled and rebuild the same hull: reuse
            // both, counting the same round hit.
            let repeat = previous == Some(round);
            previous = Some(round);
            if repeat {
                cache.count_round_lookups(1);
                if !round.messages.is_empty() {
                    hulls.push(hulls.last().expect("the predecessor's hull").clone());
                }
                rounds.push(rounds.last().expect("the predecessor").clone());
                continue;
            }
            let profile = cache.profile_tier(net, model_fp, round);
            lines.clear();
            lines.extend(
                profile
                    .entries
                    .iter()
                    .zip(&round.messages)
                    .map(|(&(latency, rate), m)| (latency, m.bytes as f64 / (inv_ref * rate))),
            );
            if !lines.is_empty() {
                hulls.push(upper_envelope(std::mem::take(&mut lines)));
            }
            rounds.push(SymbolicRound {
                messages: round
                    .messages
                    .iter()
                    .map(|m| (m.src, m.dst, m.bytes))
                    .collect(),
                profile,
            });
        }
        Some(Self {
            reference_payload,
            rounds,
            envelope: sum_envelopes(&hulls),
        })
    }

    /// The schedule's cost as a convex piecewise-linear function of
    /// payload bytes (exact up to floating-point reassociation).
    pub fn envelope(&self) -> &PayloadEnvelope {
        &self.envelope
    }

    /// The linear byte prediction for a reference message of `bytes_ref`
    /// at `payload`: `bytes_ref · payload / reference_payload`, `None`
    /// when that is not an exact integer.
    fn scaled_bytes(&self, bytes_ref: u64, payload: u64) -> Option<u64> {
        let num = bytes_ref as u128 * payload as u128;
        let denom = self.reference_payload as u128;
        if !num.is_multiple_of(denom) {
            return None;
        }
        u64::try_from(num / denom).ok()
    }

    /// Whether `schedule` (generated at `payload` bytes) is exactly the
    /// linear scaling of the captured reference: same round and message
    /// structure, same endpoints in the same order, and every message's
    /// bytes equal to the integer prediction. O(messages), no solves.
    pub fn matches(&self, schedule: &Schedule, payload: u64) -> bool {
        if schedule.rounds.len() != self.rounds.len() {
            return false;
        }
        self.rounds
            .iter()
            .zip(&schedule.rounds)
            .all(|(sym, round)| {
                sym.messages.len() == round.messages.len()
                    && sym.messages.iter().zip(&round.messages).all(
                        |(&(src, dst, bytes_ref), m)| {
                            m.src == src
                                && m.dst == dst
                                && self.scaled_bytes(bytes_ref, payload) == Some(m.bytes)
                        },
                    )
            })
    }

    /// Exact schedule time at `payload` bytes, **bit-identical** to
    /// [`NetworkModel::schedule_time`] on the linearly-scaled schedule:
    /// the same `latency + bytes as f64 / rate` per message, the same
    /// max fold per round, the same round-order sum. Returns `None` when
    /// some message's scaled bytes are not an exact integer (the caller
    /// must fall back to the exact engine — [`matches`](Self::matches)
    /// would have failed too).
    pub fn time_at_payload(&self, payload: u64) -> Option<f64> {
        let mut total = 0.0f64;
        for round in &self.rounds {
            let mut t = 0.0f64;
            for (&(latency, rate), &(_, _, bytes_ref)) in
                round.profile.entries.iter().zip(&round.messages)
            {
                let bytes = self.scaled_bytes(bytes_ref, payload)?;
                t = t.max(latency + bytes as f64 / rate);
            }
            total += t;
        }
        Some(total)
    }

    /// Admissible lower bound at `payload` bytes: the envelope shaved by
    /// a 1e-9 relative guard band, so the bound never exceeds the exact
    /// replay despite their different floating-point association.
    pub fn bound_at(&self, payload: u64) -> f64 {
        self.envelope.value(payload as f64) * (1.0 - 1e-9)
    }
}

/// Sums per-round upper envelopes into one convex piecewise-linear
/// function: merge all hull breakpoints, then add the active
/// `(intercept, slope)` of every round on each merged segment.
fn sum_envelopes(hulls: &[Vec<HullPiece>]) -> PayloadEnvelope {
    let mut breakpoints: Vec<f64> = hulls
        .iter()
        .flat_map(|h| h.iter().skip(1).map(|p| p.start))
        .collect();
    breakpoints.sort_by(f64::total_cmp);
    breakpoints.dedup();
    let mut segments = Vec::with_capacity(breakpoints.len() + 1);
    // Per-hull cursor into its active piece; advance as segments start.
    let mut cursors = vec![0usize; hulls.len()];
    for k in 0..=breakpoints.len() {
        let seg_start = if k == 0 { 0.0 } else { breakpoints[k - 1] };
        let mut intercept = 0.0;
        let mut slope = 0.0;
        for (h, cursor) in hulls.iter().zip(cursors.iter_mut()) {
            while *cursor + 1 < h.len() && h[*cursor + 1].start <= seg_start {
                *cursor += 1;
            }
            intercept += h[*cursor].intercept;
            slope += h[*cursor].slope;
        }
        segments.push((intercept, slope));
    }
    PayloadEnvelope {
        breakpoints,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ContentionMode, LinkParams};
    use crate::schedule::{Message, Round};

    fn toy(mode: ContentionMode) -> NetworkModel {
        let h = mre_core::Hierarchy::new(vec![2, 2, 4]).unwrap();
        NetworkModel::new(
            h,
            vec![
                LinkParams {
                    uplink_bandwidth: 10.0,
                    crossing_latency: 1e-5,
                },
                LinkParams {
                    uplink_bandwidth: 40.0,
                    crossing_latency: 1e-6,
                },
                LinkParams {
                    uplink_bandwidth: 100.0,
                    crossing_latency: 1e-7,
                },
            ],
            200.0,
        )
        .with_contention_mode(mode)
    }

    /// A two-round schedule whose message sizes are linear in `payload`.
    fn linear_schedule(payload: u64) -> Schedule {
        Schedule {
            rounds: vec![
                Round {
                    messages: vec![
                        Message::new(0, 8, payload),
                        Message::new(1, 9, payload / 2),
                        Message::new(4, 12, payload / 4),
                        Message::new(2, 2, payload / 8),
                    ],
                },
                Round {
                    messages: vec![Message::new(3, 6, payload), Message::new(5, 13, payload)],
                },
                Round { messages: vec![] },
            ],
        }
    }

    #[test]
    fn replay_is_bit_identical_to_schedule_time() {
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = toy(mode);
            let cache = SharedCostCache::new();
            let reference = 1 << 16;
            let sym =
                SymbolicScheduleCost::build(&net, &cache, &linear_schedule(reference), reference)
                    .unwrap();
            for payload in [1u64 << 8, 1 << 16, 1 << 20, 3 << 12] {
                let actual = linear_schedule(payload);
                assert!(sym.matches(&actual, payload));
                let exact = net.schedule_time(&actual);
                let replay = sym.time_at_payload(payload).unwrap();
                assert_eq!(exact.to_bits(), replay.to_bits());
            }
        }
    }

    #[test]
    fn envelope_tracks_exact_cost_and_bound_is_admissible() {
        let net = toy(ContentionMode::MaxMinFair);
        let cache = SharedCostCache::new();
        let reference = 1 << 16;
        let sym = SymbolicScheduleCost::build(&net, &cache, &linear_schedule(reference), reference)
            .unwrap();
        for payload in [1u64 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24] {
            let exact = net.schedule_time(&linear_schedule(payload));
            let env = sym.envelope().value(payload as f64);
            assert!(
                (env - exact).abs() <= 1e-12 * exact.abs().max(1e-300),
                "envelope {env} vs exact {exact} at payload {payload}"
            );
            assert!(sym.bound_at(payload) <= exact);
        }
    }

    #[test]
    fn mismatched_schedule_is_rejected() {
        let net = toy(ContentionMode::MaxMinFair);
        let cache = SharedCostCache::new();
        let reference = 1 << 16;
        let sym = SymbolicScheduleCost::build(&net, &cache, &linear_schedule(reference), reference)
            .unwrap();
        // Different endpoints.
        let mut flipped = linear_schedule(1 << 16);
        flipped.rounds[0].messages[0] = Message::new(0, 9, 1 << 16);
        assert!(!sym.matches(&flipped, 1 << 16));
        // Non-linear bytes (off by one from the prediction).
        let mut skewed = linear_schedule(1 << 18);
        skewed.rounds[1].messages[0].bytes += 1;
        assert!(!sym.matches(&skewed, 1 << 18));
        // Non-integer scaling: payload not divisible by the reference's
        // smallest fraction (payload/8 at reference ⇒ payload must keep
        // bytes·P/P_ref integral).
        assert!(!sym.matches(&linear_schedule(12345), 12345));
        assert!(sym.time_at_payload(3).is_none());
    }

    #[test]
    fn envelope_segments_are_convex() {
        let net = toy(ContentionMode::MaxMinFair);
        let cache = SharedCostCache::new();
        let reference = 1 << 16;
        let sym = SymbolicScheduleCost::build(&net, &cache, &linear_schedule(reference), reference)
            .unwrap();
        let env = sym.envelope();
        // Slopes non-decreasing left to right (convexity), value continuous
        // at breakpoints.
        for k in 1..env.segments.len() {
            assert!(env.segments[k].1 >= env.segments[k - 1].1);
            let x = env.breakpoints[k - 1];
            let left = env.segments[k - 1].0 + env.segments[k - 1].1 * x;
            let right = env.segments[k].0 + env.segments[k].1 * x;
            assert!((left - right).abs() <= 1e-9 * left.abs().max(1.0));
        }
    }

    #[test]
    fn build_shares_round_solves_through_the_cache() {
        let net = toy(ContentionMode::MaxMinFair);
        let cache = SharedCostCache::new();
        let reference = 1 << 16;
        let schedule = linear_schedule(reference);
        let a = SymbolicScheduleCost::build(&net, &cache, &schedule, reference).unwrap();
        let before = cache.cache_stats();
        let b = SymbolicScheduleCost::build(&net, &cache, &schedule, reference).unwrap();
        let after = cache.cache_stats();
        assert_eq!(after.misses, before.misses, "second build re-solved rounds");
        assert!(after.round_hits > before.round_hits);
        assert_eq!(
            a.time_at_payload(reference).unwrap().to_bits(),
            b.time_at_payload(reference).unwrap().to_bits()
        );
    }
}
