//! Per-message timelines of costed schedules.
//!
//! [`NetworkModel::schedule_time`](crate::network::NetworkModel::schedule_time)
//! collapses a schedule to one number; this module keeps the full temporal
//! structure instead: when every message starts, when it finishes, and the
//! contended rate it was allocated. Rounds are barrier-synchronized (the
//! lockstep model of DESIGN.md §5), so round `i + 1` starts exactly when
//! the slowest message of round `i` finishes, and every message of a round
//! starts at the round's start.
//!
//! The timeline is the data source of the `mre-trace` subsystem: critical
//! paths, time-sliced link occupancy, per-rank idle breakdowns and the
//! Chrome `trace_event` export are all derived from it.

use crate::network::NetworkModel;
use crate::schedule::Schedule;
use mre_core::Error;

/// One message's placement on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageTiming {
    /// Sending core (global sequential id).
    pub src: usize,
    /// Receiving core (global sequential id).
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Simulated time the message is injected (= its round's start).
    pub start: f64,
    /// Simulated time the last byte arrives:
    /// `start + latency + bytes / rate`.
    pub finish: f64,
    /// The contended rate (bytes/s) the max-min solve allocated.
    pub rate: f64,
    /// The crossing latency charged to the message.
    pub latency: f64,
    /// Hierarchy level of the outermost coordinate difference between the
    /// endpoints (`None` for self-messages, which use the local copy rate).
    pub crossing: Option<usize>,
}

impl MessageTiming {
    /// Wall duration of the message on the simulated clock.
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// One round's slot on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTimeline {
    /// When the round's messages are injected.
    pub start: f64,
    /// When the slowest message finishes (the next round's start).
    pub finish: f64,
    /// Per-message timings, in the round's message order.
    pub messages: Vec<MessageTiming>,
}

impl RoundTimeline {
    /// Duration of the round (the slowest message's duration).
    pub fn duration(&self) -> f64 {
        self.finish - self.start
    }
}

/// The full temporal reconstruction of a costed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleTimeline {
    /// Per-round timelines, in execution order; round starts are
    /// cumulative round times, so the last round's `finish` equals
    /// [`NetworkModel::schedule_time`](crate::network::NetworkModel::schedule_time).
    pub rounds: Vec<RoundTimeline>,
}

impl ScheduleTimeline {
    /// End of the last round — identical (to the last bit) to
    /// [`NetworkModel::schedule_time`](crate::network::NetworkModel::schedule_time)
    /// of the same schedule.
    pub fn total_time(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.finish)
    }

    /// Sum of payload bytes over all traced messages.
    pub fn total_bytes(&self) -> u64 {
        self.messages().map(|m| m.bytes).sum()
    }

    /// All message timings in (round, message) order.
    pub fn messages(&self) -> impl Iterator<Item = &MessageTiming> {
        self.rounds.iter().flat_map(|r| r.messages.iter())
    }

    /// Number of traced messages.
    pub fn num_messages(&self) -> usize {
        self.rounds.iter().map(|r| r.messages.len()).sum()
    }
}

impl NetworkModel {
    /// Reconstructs the per-message timeline of `schedule` under this
    /// model's contention discipline.
    ///
    /// The schedule is validated first ([`Schedule::validate`]):
    /// self-messages and duplicate `(src, dst)` pairs within a round are
    /// rejected with a clear error rather than silently mis-timed — use
    /// [`Schedule::canonicalized`] to clean a schedule that carries them.
    pub fn schedule_timeline(&self, schedule: &Schedule) -> Result<ScheduleTimeline, Error> {
        schedule.validate()?;
        let mut rounds = Vec::with_capacity(schedule.num_rounds());
        let mut clock = 0.0f64;
        for round in &schedule.rounds {
            let profile = self.round_profile(&round.messages);
            // Rounds are barrier-synchronized: every message starts at the
            // round's start and finishes `latency + bytes / rate` later.
            let messages = profile
                .entries
                .iter()
                .zip(&round.messages)
                .map(|(&(latency, rate), m)| MessageTiming {
                    src: m.src,
                    dst: m.dst,
                    bytes: m.bytes,
                    start: clock,
                    finish: clock + latency + m.bytes as f64 / rate,
                    rate,
                    latency,
                    crossing: self.link_table().path(m.src, m.dst).map(|p| p.crossing()),
                })
                .collect();
            let finish = clock + profile.time(&round.messages);
            rounds.push(RoundTimeline {
                start: clock,
                finish,
                messages,
            });
            clock = finish;
        }
        Ok(ScheduleTimeline { rounds })
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
    fn timeline_end_equals_schedule_time() {
        let net = toy();
        let s = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 100), Message::new(1, 9, 100)]),
            Round::with(vec![Message::new(0, 1, 100)]),
        ]);
        let tl = net.schedule_timeline(&s).unwrap();
        assert_eq!(tl.total_time(), net.schedule_time(&s));
        assert_eq!(tl.total_bytes(), s.total_bytes());
        assert_eq!(tl.num_messages(), 3);
    }

    #[test]
    fn rounds_abut_and_messages_start_at_round_start() {
        let net = toy();
        let s = Schedule::with(vec![
            Round::with(vec![Message::new(0, 8, 100)]),
            Round::with(vec![Message::new(8, 0, 50), Message::new(1, 2, 10)]),
        ]);
        let tl = net.schedule_timeline(&s).unwrap();
        assert_eq!(tl.rounds[0].start, 0.0);
        assert_eq!(tl.rounds[1].start, tl.rounds[0].finish);
        for r in &tl.rounds {
            for m in &r.messages {
                assert_eq!(m.start, r.start);
                assert!(m.finish <= r.finish + 1e-15);
                assert!(m.finish >= m.start);
            }
        }
        // The round finish is the slowest message's finish.
        let slowest = tl.rounds[1]
            .messages
            .iter()
            .map(|m| m.finish)
            .fold(0.0, f64::max);
        assert_eq!(tl.rounds[1].finish, slowest);
    }

    #[test]
    fn contended_messages_share_rate() {
        let net = toy();
        // Two node-crossing messages out of the same node: 5 B/s each.
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 100),
            Message::new(1, 9, 100),
        ])]);
        let tl = net.schedule_timeline(&s).unwrap();
        for m in &tl.rounds[0].messages {
            assert!((m.rate - 5.0).abs() < 1e-12, "rate {}", m.rate);
            assert_eq!(m.crossing, Some(0));
            assert_eq!(m.latency, 2.0);
        }
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let net = toy();
        let self_msg = Schedule::with(vec![Round::with(vec![Message::new(3, 3, 1)])]);
        assert_eq!(
            net.schedule_timeline(&self_msg),
            Err(Error::SelfMessage { round: 0, core: 3 })
        );
        let dup = Schedule::with(vec![Round::with(vec![
            Message::new(0, 1, 1),
            Message::new(0, 1, 2),
        ])]);
        assert_eq!(
            net.schedule_timeline(&dup),
            Err(Error::DuplicateMessage {
                round: 0,
                src: 0,
                dst: 1
            })
        );
        // Canonicalization repairs both.
        let tl = net
            .schedule_timeline(&self_msg.canonicalized())
            .expect("canonicalized schedule is valid");
        assert_eq!(tl.num_messages(), 0);
        assert!(net.schedule_timeline(&dup.canonicalized()).is_ok());
    }

    #[test]
    fn empty_schedule_has_empty_timeline() {
        let tl = toy().schedule_timeline(&Schedule::new()).unwrap();
        assert_eq!(tl.total_time(), 0.0);
        assert_eq!(tl.total_bytes(), 0);
        assert_eq!(tl.num_messages(), 0);
    }
}
