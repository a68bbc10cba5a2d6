//! Communication schedules: rounds of concurrent point-to-point messages.
//!
//! A collective operation compiles to a [`Schedule`]: an ordered list of
//! [`Round`]s, each containing the messages that are in flight
//! simultaneously. The network model costs a round under contention and
//! sums rounds; schedules of different communicators executing
//! concurrently are merged in lockstep.
//!
//! Endpoints are **global core ids** (sequential resource ids of the
//! machine hierarchy), so a schedule already encodes the process-to-core
//! mapping under evaluation.

/// One point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending core (global sequential id).
    pub src: usize,
    /// Receiving core (global sequential id).
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
}

impl Message {
    /// Convenience constructor.
    pub fn new(src: usize, dst: usize, bytes: u64) -> Self {
        Self { src, dst, bytes }
    }
}

/// A set of messages in flight simultaneously.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Round {
    /// The concurrent messages.
    pub messages: Vec<Message>,
}

impl Round {
    /// An empty round.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty round with room for `messages` messages, so a generator
    /// that knows the round's final size allocates it once.
    pub fn with_capacity(messages: usize) -> Self {
        Self::with(Vec::with_capacity(messages))
    }

    /// A round holding the given messages.
    pub fn with(messages: Vec<Message>) -> Self {
        Self { messages }
    }

    /// Adds a message.
    pub fn push(&mut self, m: Message) {
        self.messages.push(m);
    }

    /// Sum of payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.bytes).sum()
    }

    /// Merges another round's messages into this one (concurrent union).
    pub fn merge(&mut self, other: &Round) {
        self.messages.extend_from_slice(&other.messages);
    }

    /// Fingerprint of this round's endpoint *sequence* `[(src, dst), …]`,
    /// ignoring payload bytes.
    ///
    /// This is the round-granular analogue of
    /// [`Schedule::pattern_fingerprint`]: two rounds share it exactly when
    /// they send the same `(src, dst)` pairs in the same message order.
    /// Sequence hashing (rather than multiset hashing) is a conservative
    /// refinement — a reordered copy of the same message set occupies a
    /// second entry — and is what makes memoized replay **bit-identical**:
    /// a fingerprint hit guarantees the identical message sequence, hence
    /// the identical contention solve and the identical floating-point
    /// fold. Rail assignment under the active [`crate::rail::RailPolicy`]
    /// is a pure function of `(model, level, endpoints)`, so folding the
    /// model fingerprint into the cache key (as [`SharedCostCache`] does)
    /// covers it without hashing rails here.
    pub fn endpoint_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.messages.len().hash(&mut h);
        for m in &self.messages {
            m.src.hash(&mut h);
            m.dst.hash(&mut h);
        }
        h.finish()
    }

    /// Checks this round's messages for self-messages and duplicate
    /// `(src, dst)` pairs; `round` is the round's index in its schedule,
    /// used only for error reporting.
    fn validate(&self, round: usize) -> Result<(), mre_core::Error> {
        let mut seen = std::collections::HashSet::with_capacity(self.messages.len());
        for m in &self.messages {
            if m.src == m.dst {
                return Err(mre_core::Error::SelfMessage { round, core: m.src });
            }
            if !seen.insert((m.src, m.dst)) {
                return Err(mre_core::Error::DuplicateMessage {
                    round,
                    src: m.src,
                    dst: m.dst,
                });
            }
        }
        Ok(())
    }
}

/// An ordered list of rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The rounds, executed in order with a synchronization between
    /// consecutive rounds.
    pub rounds: Vec<Round>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// A schedule from rounds.
    pub fn with(rounds: Vec<Round>) -> Self {
        Self { rounds }
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Sum of payload bytes over all rounds.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(Round::total_bytes).sum()
    }

    /// Appends a round.
    pub fn push(&mut self, round: Round) {
        self.rounds.push(round);
    }

    /// Appends another schedule's rounds after this one (sequential
    /// composition).
    pub fn then(&mut self, other: Schedule) {
        self.rounds.extend(other.rounds);
    }

    /// Checks the schedule is well-formed for costing: no self-messages
    /// (`src == dst` occupies no network link — the local-copy cost would
    /// silently enter the round max) and no duplicate `(src, dst)` pairs
    /// within a round (the contention solver would treat them as two
    /// independent flows and halve their rates).
    ///
    /// The collective generators in `mre-mpi` always produce valid
    /// schedules; hand-built or merged ones may not — repair those with
    /// [`canonicalized`](Self::canonicalized).
    pub fn validate(&self) -> Result<(), mre_core::Error> {
        for (i, round) in self.rounds.iter().enumerate() {
            round.validate(i)?;
        }
        Ok(())
    }

    /// A cleaned copy that [`validate`](Self::validate) accepts: drops
    /// self-messages and merges duplicate `(src, dst)` pairs within each
    /// round by summing their bytes (first-appearance order is kept).
    /// Empty rounds are preserved so round indices stay aligned with the
    /// original schedule.
    pub fn canonicalized(&self) -> Schedule {
        let rounds = self
            .rounds
            .iter()
            .map(|round| {
                let mut index: std::collections::HashMap<(usize, usize), usize> =
                    std::collections::HashMap::with_capacity(round.messages.len());
                let mut messages: Vec<Message> = Vec::with_capacity(round.messages.len());
                for m in &round.messages {
                    if m.src == m.dst {
                        continue;
                    }
                    match index.entry((m.src, m.dst)) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            messages[*e.get()].bytes += m.bytes;
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(messages.len());
                            messages.push(*m);
                        }
                    }
                }
                Round { messages }
            })
            .collect();
        Schedule { rounds }
    }

    /// Fingerprint of the schedule's communication *pattern*: the round
    /// structure and message endpoints, ignoring payload sizes.
    ///
    /// Two schedules share a fingerprint exactly when they send the same
    /// `(src, dst)` sequences in the same rounds — which is the unit the
    /// shared cost cache keys on: a collective generator re-instantiated
    /// at a different payload produces the same pattern fingerprint, so
    /// `(pattern_fingerprint, payload)` identifies its cost. This is *not*
    /// collision-free (it is a 64-bit hash), but collisions require
    /// adversarial schedules; the generators in `mre-mpi` are safe.
    pub fn pattern_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.rounds.len().hash(&mut h);
        for round in &self.rounds {
            round.messages.len().hash(&mut h);
            for m in &round.messages {
                m.src.hash(&mut h);
                m.dst.hash(&mut h);
            }
        }
        h.finish()
    }

    /// The memo key of a job set's cost under `engine`: a hash of the
    /// engine and every schedule's [`pattern_fingerprint`](Self::pattern_fingerprint),
    /// in job order. The fluid engine keys a job set by it through
    /// [`SharedCostCache::time_keyed`]; the lockstep job-set entry
    /// ([`SharedCostCache::job_set_time`]) keys communicator 0's schedule
    /// by it. The engine tag keeps one job set's lockstep and fluid costs
    /// apart in one cache.
    pub fn job_set_key(engine: JobSetEngine, schedules: &[Schedule]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        engine.hash(&mut h);
        for s in schedules {
            s.pattern_fingerprint().hash(&mut h);
        }
        h.finish()
    }

    /// Merges schedules in lockstep: round `i` of the result is the union
    /// of round `i` of every input (shorter schedules simply stop
    /// contributing). This is how simultaneous collectives in different
    /// communicators are modeled (§4.1.1 step 4).
    pub fn lockstep(schedules: &[Schedule]) -> Schedule {
        let max_rounds = schedules
            .iter()
            .map(Schedule::num_rounds)
            .max()
            .unwrap_or(0);
        let mut rounds = Vec::with_capacity(max_rounds);
        for i in 0..max_rounds {
            let len = schedules
                .iter()
                .filter_map(|s| s.rounds.get(i))
                .map(|r| r.messages.len())
                .sum();
            let mut round = Round::with_capacity(len);
            for s in schedules {
                if let Some(r) = s.rounds.get(i) {
                    round.merge(r);
                }
            }
            rounds.push(round);
        }
        Schedule { rounds }
    }
}

/// The engine a job-set cost belongs to, hashed into
/// [`Schedule::job_set_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobSetEngine {
    /// Rounds merged in lockstep ([`SharedCostCache::job_set_time`]).
    Lockstep,
    /// The barrier-free fluid engine ([`crate::FluidSim`]).
    Fluid,
}

use crate::certificate::TranslationCertificate;
use crate::network::{NetworkModel, RoundProfile};
use std::sync::Arc;

/// Thread-safe memo of `(network model, schedule pattern, payload)` →
/// cost, shared across sweep workers.
///
/// Two tiers behind `&self`: whole-schedule costs (schedule patterns and
/// caller-keyed job sets) and solved round contention *profiles*, so the
/// parallel sweep's workers — and consecutive payload sweeps, and
/// neighbouring grid cells that happen to generate the same schedule
/// pattern or the same rounds — all share one pool. A round's time is its
/// profile replayed over its bytes
/// ([`RoundProfile::time`](crate::network::RoundProfile::time)), so the
/// profile is all the round tier stores. Entries are sharded across
/// several mutex-protected maps to keep lock contention negligible.
///
/// The [`NetworkModel::fingerprint`] — which covers the hierarchy, link
/// calibration, contention mode, **and the rail count × rail policy** —
/// is folded into every key, so one cache safely serves a whole grid of
/// models: a 1/2/4-rail sweep across rail policies (e.g. `fig8_rails`)
/// reuses each configuration's costings without ever conflating two
/// fabrics.
///
/// # Caller contract
///
/// Whole-schedule keys are `(net.fingerprint(),
/// Schedule::pattern_fingerprint(), payload)` (or a caller-chosen pattern
/// key for [`time_keyed`](Self::time_keyed), and a certified job set's
/// key for [`job_set_time`](Self::job_set_time)). The pattern fingerprint
/// covers endpoints and round structure but **not** byte counts, so the
/// cached cost is only correct if the schedule's bytes are a
/// deterministic function of (pattern, payload key) — true for every
/// collective generator in `mre-mpi`, where the payload determines all
/// message sizes. Do not feed hand-built schedules whose byte assignment
/// varies independently of the payload key.
#[derive(Debug)]
pub struct SharedCostCache {
    shards: Vec<CostShard>,
    round_profiles: Vec<ProfileShard>,
    pattern_hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    /// Round lookups of committed costings: every round of an inserted
    /// pattern cost, plus every direct profile-tier lookup.
    round_lookups: std::sync::atomic::AtomicU64,
    /// Profile inserts, one per solved profile key.
    round_misses: std::sync::atomic::AtomicU64,
}

/// One lock-striped shard of the whole-schedule tier: `(model
/// fingerprint, pattern fingerprint, payload key)` → cost.
type CostShard = std::sync::Mutex<std::collections::HashMap<(u64, u64, u64), f64>>;

/// One lock-striped shard of the round-profile tier: `(model fingerprint,
/// round endpoint fingerprint)` → solved contention profile (on a
/// certified job set, the model and certificate fingerprints hashed
/// together take the model's place). Profiles are
/// payload-independent (contended rates depend only on endpoints), so
/// this tier is shared across the whole payload axis.
type ProfileShard = std::sync::Mutex<std::collections::HashMap<(u64, u64), Arc<RoundProfile>>>;

/// Snapshot of the round-granular counters of a [`SharedCostCache`],
/// returned by [`SharedCostCache::cache_stats`]. This is the only channel
/// for these counts: the cache emits nothing into `mre_core::telemetry`.
///
/// The counts are those of a serial run of the same calls, whatever the
/// worker count or interleaving (read them once the calls have
/// returned). Workers cost outside the locks, so two may compute one key
/// at once; the call that inserts the key counts the miss, and a call
/// that finds its key already present after computing counts a hit. A
/// pattern costing that loses such a race counts none of the round
/// lookups it made, so `round_hits` is the round lookups of committed
/// costings minus the profile inserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whole-schedule costs served from the pattern memo.
    pub pattern_hits: u64,
    /// Rounds resolved without a contention solve: the round's profile
    /// was already solved and only the (cheap) payload replay ran.
    pub round_hits: u64,
    /// Rounds that required a full contention solve.
    pub misses: u64,
}

impl Default for SharedCostCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedCostCache {
    const SHARDS: usize = 16;

    /// An empty cache, ready for any mix of models.
    pub fn new() -> Self {
        Self {
            shards: (0..Self::SHARDS)
                .map(|_| std::sync::Mutex::new(std::collections::HashMap::new()))
                .collect(),
            round_profiles: (0..Self::SHARDS)
                .map(|_| std::sync::Mutex::new(std::collections::HashMap::new()))
                .collect(),
            pattern_hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
            round_lookups: std::sync::atomic::AtomicU64::new(0),
            round_misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// `(hits, misses)` — costs served from the pattern memo vs. costs
    /// computed, through either [`schedule_time_rounds`](Self::schedule_time_rounds)
    /// or [`time_keyed`](Self::time_keyed). The hits are
    /// [`CacheStats::pattern_hits`].
    pub fn stats(&self) -> (u64, u64) {
        (
            self.pattern_hits.load(std::sync::atomic::Ordering::Relaxed),
            self.misses.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Number of distinct `(model, pattern, payload)` costs cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no cost has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the round-granular counters: pattern hits, rounds
    /// resolved without a contention solve, and rounds that required one.
    /// These are what [`schedule_time_rounds`](Self::schedule_time_rounds)
    /// and the round memo methods maintain; the flat
    /// [`stats`](Self::stats) pair counts the pattern memo (its hits are
    /// the same `pattern_hits`, its misses the pattern costings).
    pub fn cache_stats(&self) -> CacheStats {
        use std::sync::atomic::Ordering::Relaxed;
        let misses = self.round_misses.load(Relaxed);
        CacheStats {
            pattern_hits: self.pattern_hits.load(Relaxed),
            // A costing in flight may have inserted profiles before its
            // lookups commit; once every call has returned, each insert
            // is covered by a committed lookup.
            round_hits: self.round_lookups.load(Relaxed).saturating_sub(misses),
            misses,
        }
    }

    /// Memoized cost under a caller-chosen pattern key — for evaluations
    /// that are not a single schedule's time (e.g. a fluid job set, keyed
    /// by a hash of its schedules' pattern fingerprints). The model
    /// fingerprint is still folded in, so the same key never crosses
    /// fabrics; `cost()` must be a deterministic function of
    /// `(model, pattern_key, payload)`.
    pub fn time_keyed(
        &self,
        net: &NetworkModel,
        pattern_key: u64,
        payload: u64,
        cost: impl FnOnce() -> f64,
    ) -> f64 {
        let key = (net.fingerprint(), pattern_key, payload);
        self.memo_cost(key, || (cost(), 0))
    }

    /// The pattern tier: the cost under `key`, or `cost()` inserted.
    /// `cost` returns the cost and the round lookups it made, which count
    /// only if this call inserts the key. Counted at insert time, so the
    /// counts are those of a serial run (type docs).
    fn memo_cost(&self, key: (u64, u64, u64), cost: impl FnOnce() -> (f64, u64)) -> f64 {
        use std::sync::atomic::Ordering::Relaxed;
        const POISONED: &str = "no worker panics while holding a cache shard";
        let shard = &self.shards[Self::shard_index(&key)];
        if let Some(&t) = shard.lock().expect(POISONED).get(&key) {
            self.pattern_hits.fetch_add(1, Relaxed);
            return t;
        }
        // Cost outside the lock: a duplicate solve on a race is cheaper
        // than serializing all workers behind one costing.
        let (t, lookups) = cost();
        match shard.lock().expect(POISONED).entry(key) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                self.pattern_hits.fetch_add(1, Relaxed);
                *entry.get()
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Relaxed);
                self.round_lookups.fetch_add(lookups, Relaxed);
                *slot.insert(t)
            }
        }
    }

    fn shard_index<K: std::hash::Hash>(key: &K) -> usize {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % Self::SHARDS
    }

    /// A round's lockstep time, memoized at round granularity: the round's
    /// solved profile, memoized under `(net.fingerprint(),
    /// round.endpoint_fingerprint())`, replayed over its bytes. Only the
    /// contention solve is memoized; the `O(messages)` replay always runs.
    /// Profiles are payload-independent, so one solve serves every payload
    /// on the axis, and a fingerprint hit implies the identical endpoint
    /// sequence, so the time is bit-identical to
    /// `net.round_time(&round.messages)`. Counts a round hit when the
    /// profile was already solved, a miss when this call solved it.
    pub fn round_time_memo(&self, net: &NetworkModel, round: &Round) -> f64 {
        self.profile_tier(net, net.fingerprint(), round)
            .time(&round.messages)
    }

    /// The profile tier under the caller's `model_fp` (`net.fingerprint()`,
    /// which a symbolic build hashes once for all its rounds): one round
    /// lookup, counted as a miss if this call solves and inserts the
    /// profile and as a hit otherwise.
    pub(crate) fn profile_tier(
        &self,
        net: &NetworkModel,
        model_fp: u64,
        round: &Round,
    ) -> Arc<RoundProfile> {
        self.count_round_lookups(1);
        self.memo_profile(model_fp, round, || net.round_profile(&round.messages))
    }

    /// The profile tier under `(context, round.endpoint_fingerprint())`,
    /// solving with `solve` on a miss and counting the miss only if this
    /// call inserts the profile.
    fn memo_profile(
        &self,
        context: u64,
        round: &Round,
        solve: impl FnOnce() -> RoundProfile,
    ) -> Arc<RoundProfile> {
        const POISONED: &str = "no worker panics while holding a profile shard";
        let key = (context, round.endpoint_fingerprint());
        let shard = &self.round_profiles[Self::shard_index(&key)];
        let cached = shard.lock().expect(POISONED).get(&key).cloned();
        if let Some(p) = cached {
            return p;
        }
        // Solve outside the lock; a racing duplicate solve produces the
        // identical profile, and the one that inserts counts the miss.
        let p = Arc::new(solve());
        let mut profiles = shard.lock().expect(POISONED);
        let entry = profiles.entry(key).or_insert_with(|| {
            self.round_misses
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            p
        });
        entry.clone()
    }

    /// Counts `rounds` round lookups made outside a pattern costing; a
    /// lookup that inserted no profile is a round hit.
    pub(crate) fn count_round_lookups(&self, rounds: u64) {
        self.round_lookups
            .fetch_add(rounds, std::sync::atomic::Ordering::Relaxed);
    }

    /// [`NetworkModel::schedule_time`] memoized at **both** pattern and
    /// round granularity: a pattern hit under the key `(net.fingerprint(),
    /// schedule.pattern_fingerprint(), payload)` answers outright; on a
    /// pattern miss each round's time is its memoized profile replayed, as
    /// in [`round_time_memo`](Self::round_time_memo), so candidate orders that
    /// share rounds (or re-cost the same rounds at a new payload) reuse
    /// work at round granularity instead of re-solving the whole schedule.
    /// Under the caller contract on the type the result is bit-for-bit
    /// `net.schedule_time(schedule)`.
    pub fn schedule_time_rounds(
        &self,
        net: &NetworkModel,
        schedule: &Schedule,
        payload: u64,
    ) -> f64 {
        let model_fp = net.fingerprint();
        let key = (model_fp, schedule.pattern_fingerprint(), payload);
        self.memo_rounds(key, schedule, |r| {
            self.memo_profile(model_fp, r, || net.round_profile(&r.messages))
        })
    }

    /// The lockstep cost of a job set — every communicator's schedule
    /// merged round by round, as [`NetworkModel::concurrent_time`] costs
    /// it — from `cert` and `schedule`: communicator 0's schedule, the one
    /// `cert` was built from, when certified, and the merged schedule of
    /// every communicator otherwise.
    ///
    /// Under the trivial certificate this is
    /// [`schedule_time_rounds`](Self::schedule_time_rounds). Under a
    /// certified one only communicator 0's links are interned, each round
    /// is solved on its flows with the certificate's multiplicities, and
    /// the round's time is replayed over its messages,
    /// since every other communicator's message `i` has communicator 0's
    /// bytes, latency and rate (DESIGN.md §7j). Both memo tiers key on
    /// the model and the certificate's fingerprints, so a quotient profile
    /// never answers for a plain one, and the pattern key is
    /// [`Schedule::job_set_key`] of communicator 0's schedule.
    pub fn job_set_time(
        &self,
        net: &NetworkModel,
        cert: &TranslationCertificate,
        schedule: &Schedule,
        payload: u64,
    ) -> f64 {
        if cert.is_trivial() {
            return self.schedule_time_rounds(net, schedule, payload);
        }
        let context = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (net.fingerprint(), cert.fingerprint()).hash(&mut h);
            h.finish()
        };
        let pattern = Schedule::job_set_key(JobSetEngine::Lockstep, std::slice::from_ref(schedule));
        self.memo_rounds((context, pattern, payload), schedule, |r| {
            self.memo_profile(context, r, || {
                net.round_profile_quotient(&r.messages, cert.mults())
            })
        })
    }

    /// The pattern tier under `key` over `schedule`'s rounds, each timed
    /// from the profile `profile` returns.
    fn memo_rounds(
        &self,
        key: (u64, u64, u64),
        schedule: &Schedule,
        profile: impl Fn(&Round) -> Arc<RoundProfile>,
    ) -> f64 {
        self.memo_cost(key, || {
            // A round equal to its predecessor would hit the profile the
            // predecessor just solved and replay to the same time; reuse
            // that time without hashing the round again. It is still one
            // lookup, and so a round hit.
            let mut previous: Option<(&Round, f64)> = None;
            let t: f64 = schedule
                .rounds
                .iter()
                .map(|r| {
                    let t = match previous {
                        Some((prev, t)) if prev == r => t,
                        _ => profile(r).time(&r.messages),
                    };
                    previous = Some((r, t));
                    t
                })
                .sum();
            (t, schedule.rounds.len() as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting() {
        let mut s = Schedule::new();
        s.push(Round::with(vec![
            Message::new(0, 1, 100),
            Message::new(1, 0, 50),
        ]));
        s.push(Round::with(vec![Message::new(2, 3, 25)]));
        assert_eq!(s.num_rounds(), 2);
        assert_eq!(s.total_bytes(), 175);
        assert_eq!(s.rounds[0].total_bytes(), 150);
    }

    #[test]
    fn lockstep_merges_by_round_index() {
        let a = Schedule::with(vec![
            Round::with(vec![Message::new(0, 1, 10)]),
            Round::with(vec![Message::new(1, 0, 10)]),
        ]);
        let b = Schedule::with(vec![Round::with(vec![Message::new(2, 3, 20)])]);
        let merged = Schedule::lockstep(&[a, b]);
        assert_eq!(merged.num_rounds(), 2);
        assert_eq!(merged.rounds[0].messages.len(), 2);
        assert_eq!(merged.rounds[1].messages.len(), 1);
    }

    #[test]
    fn lockstep_of_nothing_is_empty() {
        assert_eq!(Schedule::lockstep(&[]).num_rounds(), 0);
    }

    #[test]
    fn validate_flags_self_messages_and_duplicates() {
        let ok = Schedule::with(vec![Round::with(vec![
            Message::new(0, 1, 10),
            Message::new(1, 0, 10),
        ])]);
        assert_eq!(ok.validate(), Ok(()));
        let self_msg = Schedule::with(vec![
            Round::with(vec![Message::new(0, 1, 10)]),
            Round::with(vec![Message::new(2, 2, 10)]),
        ]);
        assert_eq!(
            self_msg.validate(),
            Err(mre_core::Error::SelfMessage { round: 1, core: 2 })
        );
        let dup = Schedule::with(vec![Round::with(vec![
            Message::new(0, 1, 10),
            Message::new(0, 2, 10),
            Message::new(0, 1, 5),
        ])]);
        assert_eq!(
            dup.validate(),
            Err(mre_core::Error::DuplicateMessage {
                round: 0,
                src: 0,
                dst: 1
            })
        );
    }

    #[test]
    fn canonicalized_repairs_and_preserves_bytes_and_order() {
        let messy = Schedule::with(vec![
            Round::with(vec![
                Message::new(0, 1, 10),
                Message::new(3, 3, 99), // self-message: dropped
                Message::new(0, 2, 7),
                Message::new(0, 1, 5), // duplicate: merged into the first
            ]),
            Round::new(), // empty rounds survive so indices stay aligned
        ]);
        let clean = messy.canonicalized();
        assert_eq!(clean.validate(), Ok(()));
        assert_eq!(clean.num_rounds(), 2);
        assert_eq!(
            clean.rounds[0].messages,
            vec![Message::new(0, 1, 15), Message::new(0, 2, 7)]
        );
        assert!(clean.rounds[1].messages.is_empty());
        // A valid schedule canonicalizes to itself.
        assert_eq!(clean.canonicalized(), clean);
    }

    #[test]
    fn then_concatenates() {
        let mut a = Schedule::with(vec![Round::with(vec![Message::new(0, 1, 1)])]);
        let b = Schedule::with(vec![Round::with(vec![Message::new(1, 2, 2)])]);
        a.then(b);
        assert_eq!(a.num_rounds(), 2);
        assert_eq!(a.total_bytes(), 3);
    }

    use crate::network::{ContentionMode, LinkParams, NetworkModel};
    use mre_core::Hierarchy;

    fn toy_network() -> NetworkModel {
        let h = Hierarchy::new(vec![2, 2, 4]).unwrap();
        NetworkModel::new(
            h,
            vec![
                LinkParams {
                    uplink_bandwidth: 10.0,
                    crossing_latency: 3.0,
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

    fn sweep_rounds() -> Vec<Round> {
        vec![
            Round::with(vec![Message::new(0, 8, 100), Message::new(1, 9, 100)]),
            Round::with(vec![Message::new(0, 1, 100), Message::new(2, 2, 100)]),
            Round::with(vec![Message::new(3, 12, 100)]),
        ]
    }

    #[test]
    fn pattern_fingerprint_ignores_bytes_but_not_endpoints() {
        let small = Schedule::with(vec![Round::with(vec![Message::new(0, 8, 1)])]);
        let large = Schedule::with(vec![Round::with(vec![Message::new(0, 8, 1 << 20)])]);
        let other = Schedule::with(vec![Round::with(vec![Message::new(0, 9, 1)])]);
        let split = Schedule::with(vec![Round::with(vec![Message::new(0, 8, 1)]), Round::new()]);
        assert_eq!(small.pattern_fingerprint(), large.pattern_fingerprint());
        assert_ne!(small.pattern_fingerprint(), other.pattern_fingerprint());
        assert_ne!(small.pattern_fingerprint(), split.pattern_fingerprint());
    }

    #[test]
    fn shared_cache_matches_direct_and_counts_hits() {
        let net = toy_network();
        let cache = SharedCostCache::new();
        let s = Schedule::with(sweep_rounds());
        let t = cache.schedule_time_rounds(&net, &s, 100);
        assert_eq!(t, net.schedule_time(&s));
        // Same pattern + payload: served from cache.
        assert_eq!(cache.schedule_time_rounds(&net, &s, 100), t);
        // Same pattern, new payload key: a distinct entry.
        cache.schedule_time_rounds(&net, &s, 200);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_cache_is_shared_across_threads() {
        let net = toy_network();
        let cache = SharedCostCache::new();
        let s = Schedule::with(sweep_rounds());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for payload in [1u64, 2, 3] {
                        cache.schedule_time_rounds(&net, &s, payload);
                    }
                });
            }
        });
        // All threads agreed on 3 distinct entries; the call that
        // inserted each counts its miss, every other call a hit, racing
        // duplicate solves included.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), (9, 3));
    }

    #[test]
    fn racing_costings_count_what_a_serial_run_counts() {
        // Schedules sharing rounds (and repeating them back to back),
        // costed at repeated payloads, plus fluid-style keyed costs and
        // direct round lookups: every pattern and profile key is asked for
        // many times over.
        let net = toy_network();
        let r = sweep_rounds();
        let schedules = [
            Schedule::with(vec![r[0].clone(), r[1].clone(), r[1].clone()]),
            Schedule::with(vec![r[1].clone(), r[2].clone(), r[0].clone()]),
            Schedule::with(vec![r[2].clone(), r[2].clone()]),
        ];
        let work = |cache: &SharedCostCache, rotate: usize| {
            for i in 0..12 {
                let i = (i + rotate) % 12;
                let (s, payload) = (&schedules[i % 3], (i % 4) as u64);
                cache.schedule_time_rounds(&net, s, payload);
                cache.time_keyed(&net, (i % 3) as u64, payload, || net.schedule_time(s));
                cache.round_time_memo(&net, &r[i % 3]);
            }
        };
        const THREADS: usize = 4;
        let serial = SharedCostCache::new();
        for rotate in 0..THREADS {
            work(&serial, rotate);
        }
        for _ in 0..20 {
            let cache = SharedCostCache::new();
            let barrier = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for rotate in 0..THREADS {
                    let (cache, barrier, work) = (&cache, &barrier, &work);
                    scope.spawn(move || {
                        barrier.wait();
                        work(cache, rotate);
                    });
                }
            });
            assert_eq!(cache.stats(), serial.stats());
            assert_eq!(cache.cache_stats(), serial.cache_stats());
        }
    }

    #[test]
    fn shared_cache_keys_models_apart() {
        // One cache serves a whole model grid: same schedule and payload
        // under different fabrics get distinct entries, never a stale
        // cross-model hit.
        let a = toy_network();
        let b = toy_network().with_contention_mode(ContentionMode::EqualShare);
        let c = toy_network().with_node_uplink_scale(2.0);
        let cache = SharedCostCache::new();
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 1000),
            Message::new(1, 9, 1000),
        ])]);
        let ta = cache.schedule_time_rounds(&a, &s, 1000);
        let tb = cache.schedule_time_rounds(&b, &s, 1000);
        let tc = cache.schedule_time_rounds(&c, &s, 1000);
        assert_eq!(ta, a.schedule_time(&s));
        assert_eq!(tb, b.schedule_time(&s));
        assert_eq!(tc, c.schedule_time(&s));
        assert_eq!(cache.len(), 3);
        // Re-asking under the first model is a hit on its own entry.
        assert_eq!(cache.schedule_time_rounds(&a, &s, 1000), ta);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 3));
    }

    #[test]
    fn shared_cache_keys_rail_grids_apart() {
        use crate::rail::RailPolicy;
        // The model fingerprint covers rails × policy, so a 1/2-rail
        // round-robin/affinity grid shares one cache without conflation.
        let s = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 4096),
            Message::new(1, 8, 4096),
        ])]);
        let cache = SharedCostCache::new();
        for nics in [1usize, 2] {
            for policy in [RailPolicy::RoundRobin, RailPolicy::Affinity] {
                let net = toy_network().with_node_rails(nics, policy);
                assert_eq!(
                    cache.schedule_time_rounds(&net, &s, 4096),
                    net.schedule_time(&s)
                );
            }
        }
        // 1-rail entries collapse across policies (the fingerprint and the
        // physics agree that policy is irrelevant on one rail) but 2-rail
        // entries stay distinct per policy.
        assert!(cache.len() >= 3, "len {}", cache.len());
    }

    #[test]
    fn round_memoized_schedule_time_is_bit_identical() {
        let net = toy_network();
        let cache = SharedCostCache::new();
        let s = Schedule::with(sweep_rounds());
        let direct = net.schedule_time(&s);
        let memo = cache.schedule_time_rounds(&net, &s, 100);
        assert_eq!(memo.to_bits(), direct.to_bits());
        // Second ask: a pattern hit, same bits.
        assert_eq!(
            cache.schedule_time_rounds(&net, &s, 100).to_bits(),
            direct.to_bits()
        );
        let stats = cache.cache_stats();
        assert_eq!(stats.pattern_hits, 1);
        assert_eq!(stats.misses, 3, "one solve per distinct round");
    }

    #[test]
    fn round_memo_hits_across_payloads_without_resolving() {
        let net = toy_network();
        let cache = SharedCostCache::new();
        // The same endpoint pattern at two payload keys: the second sweep
        // point misses at pattern level but replays every round from its
        // cached profile — round hits, no new contention solves.
        let at = |bytes: u64| {
            Schedule::with(
                sweep_rounds()
                    .iter()
                    .map(|r| {
                        Round::with(
                            r.messages
                                .iter()
                                .map(|m| Message::new(m.src, m.dst, bytes))
                                .collect(),
                        )
                    })
                    .collect(),
            )
        };
        let small = at(100);
        let large = at(1 << 20);
        assert_eq!(
            cache.schedule_time_rounds(&net, &small, 100).to_bits(),
            net.schedule_time(&small).to_bits()
        );
        let before = cache.cache_stats();
        assert_eq!(before.misses, 3);
        assert_eq!(
            cache.schedule_time_rounds(&net, &large, 1 << 20).to_bits(),
            net.schedule_time(&large).to_bits()
        );
        let after = cache.cache_stats();
        assert_eq!(after.misses, 3, "no new solves on the payload axis");
        assert_eq!(after.round_hits, before.round_hits + 3);
    }

    #[test]
    fn shared_rounds_hit_across_different_patterns() {
        let net = toy_network();
        let cache = SharedCostCache::new();
        // Two schedules that are different patterns but share round 0.
        let shared = Round::with(vec![Message::new(0, 8, 64), Message::new(1, 9, 64)]);
        let a = Schedule::with(vec![
            shared.clone(),
            Round::with(vec![Message::new(0, 1, 64)]),
        ]);
        let b = Schedule::with(vec![shared, Round::with(vec![Message::new(2, 3, 64)])]);
        assert_ne!(a.pattern_fingerprint(), b.pattern_fingerprint());
        assert_eq!(
            cache.schedule_time_rounds(&net, &a, 64).to_bits(),
            net.schedule_time(&a).to_bits()
        );
        assert_eq!(
            cache.schedule_time_rounds(&net, &b, 64).to_bits(),
            net.schedule_time(&b).to_bits()
        );
        let stats = cache.cache_stats();
        assert_eq!(stats.pattern_hits, 0);
        assert_eq!(
            stats.round_hits, 1,
            "the shared round hit at round granularity"
        );
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn round_profile_memo_matches_direct_profile() {
        let net = toy_network();
        let cache = SharedCostCache::new();
        let round = Round::with(vec![Message::new(0, 8, 100), Message::new(1, 9, 100)]);
        let memo = cache.profile_tier(&net, net.fingerprint(), &round);
        assert_eq!(*memo, net.round_profile(&round.messages));
        // Second ask is a hit returning the same Arc.
        let again = cache.profile_tier(&net, net.fingerprint(), &round);
        assert!(std::sync::Arc::ptr_eq(&memo, &again));
        let stats = cache.cache_stats();
        assert_eq!((stats.round_hits, stats.misses), (1, 1));
    }

    #[test]
    fn endpoint_fingerprint_ignores_bytes_not_order() {
        let a = Round::with(vec![Message::new(0, 8, 1), Message::new(1, 9, 2)]);
        let b = Round::with(vec![Message::new(0, 8, 77), Message::new(1, 9, 99)]);
        let swapped = Round::with(vec![Message::new(1, 9, 1), Message::new(0, 8, 2)]);
        assert_eq!(a.endpoint_fingerprint(), b.endpoint_fingerprint());
        assert_ne!(a.endpoint_fingerprint(), swapped.endpoint_fingerprint());
    }

    #[test]
    fn shared_cache_time_keyed_separates_pattern_keys() {
        let net = toy_network();
        let cache = SharedCostCache::new();
        assert_eq!(cache.time_keyed(&net, 7, 100, || 1.5), 1.5);
        assert_eq!(cache.time_keyed(&net, 8, 100, || 2.5), 2.5);
        // Cached per key; the closure is not consulted again.
        assert_eq!(cache.time_keyed(&net, 7, 100, || unreachable!()), 1.5);
    }

    #[test]
    fn time_keyed_hits_count_as_pattern_hits() {
        let net = toy_network();
        let cache = SharedCostCache::new();
        cache.time_keyed(&net, 7, 100, || 1.5);
        cache.time_keyed(&net, 7, 100, || unreachable!());
        assert_eq!(cache.stats(), (1, 1));
        let stats = cache.cache_stats();
        assert_eq!(stats.pattern_hits, 1, "one counter behind both accessors");
        assert_eq!((stats.round_hits, stats.misses), (0, 0));
    }
}
