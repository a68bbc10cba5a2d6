//! A live metrics registry: counters, gauges and log₂-bucketed
//! histograms collected while the runtime executes.
//!
//! The design mirrors the [`Recorder`](crate::Recorder): the driver
//! creates one [`MetricsRegistry`]; each rank thread gets a
//! [`RankMetrics`] handle that accumulates into thread-local `BTreeMap`s
//! (no locks, no atomics in the hot path) and merges into the shared
//! store exactly once, when the handle drops at thread exit. The one
//! coarse producer below this crate — the contention solver
//! (`simnet.maxmin.*`) — publishes through the [`mre_core::telemetry`]
//! sink instead; [`MetricsRegistry::install_telemetry`] bridges that sink
//! into the same store for the lifetime of the returned guard.
//!
//! A [`MetricsSnapshot`] is a deterministic, sorted copy of everything
//! collected; [`metrics_csv`](crate::export::metrics_csv) and
//! [`chrome_trace_json_with_metrics`](crate::export::chrome_trace_json_with_metrics)
//! export it alongside traces.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A log₂-bucketed histogram: each observation lands in the bucket whose
/// upper bound is the smallest power of two `≥` the value. Non-positive
/// observations land in a dedicated zero bucket; exponents are clamped to
/// `[-64, 64]`, which comfortably covers nanoseconds-to-hours in seconds
/// and bytes-to-exabytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Observations `≤ 0`.
    pub zero: u64,
    /// Bucket counts keyed by exponent `e`: values `v` with
    /// `2^(e-1) < v ≤ 2^e`.
    pub buckets: BTreeMap<i32, u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        if value <= 0.0 {
            self.zero += 1;
        } else {
            let e = value.log2().ceil().clamp(-64.0, 64.0) as i32;
            *self.buckets.entry(e).or_insert(0) += 1;
        }
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn merge(&mut self, other: &Histogram) {
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        for (&e, &c) in &other.buckets {
            *self.buckets.entry(e).or_insert(0) += c;
        }
    }
}

/// The mutable store behind a registry or a rank handle.
#[derive(Debug, Clone, Default)]
struct Store {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Number of recording calls (counter adds, gauge sets, observations)
    /// folded into this store — the event clock streamed snapshots tick on.
    events: u64,
}

impl Store {
    fn counter_add(&mut self, name: &str, value: u64) {
        self.events += 1;
        match self.counters.get_mut(name) {
            Some(c) => *c += value,
            None => {
                self.counters.insert(name.to_string(), value);
            }
        }
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        self.events += 1;
        match self.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.events += 1;
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    fn merge(&mut self, other: &Store) {
        let events_before = self.events;
        for (name, &v) in &other.counters {
            self.counter_add(name, v);
        }
        for (name, &v) in &other.gauges {
            self.gauge_set(name, v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
        // The per-name loops above ticked the clock once per *name*; a
        // merged batch must advance it by the number of recording calls
        // the handle buffered instead.
        self.events = events_before + other.events;
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// Streaming-snapshot state: capture a [`MetricsSnapshot`] every time the
/// event clock crosses a multiple of `every`.
#[derive(Debug, Clone)]
struct StreamState {
    every: u64,
    /// `events / every` as of the last capture, so a batched merge that
    /// jumps the clock across several multiples captures once, not once
    /// per multiple.
    taken: u64,
    snapshots: Vec<(u64, MetricsSnapshot)>,
}

/// The shared state behind a [`MetricsRegistry`]: the store plus optional
/// streaming-snapshot capture.
#[derive(Debug, Clone, Default)]
struct Shared {
    store: Store,
    stream: Option<StreamState>,
}

impl Shared {
    /// Captures a snapshot if the event clock crossed a multiple of the
    /// streaming period since the last capture. Called after every
    /// mutation batch (one direct call, or one rank-handle merge), so at
    /// most one snapshot is taken per batch.
    fn maybe_stream(&mut self) {
        if let Some(stream) = &mut self.stream {
            let due = self.store.events / stream.every;
            if due > stream.taken {
                stream.taken = due;
                stream
                    .snapshots
                    .push((self.store.events, self.store.snapshot()));
            }
        }
    }
}

/// Collects metrics from rank threads and coarse telemetry producers.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    shared: Arc<Mutex<Shared>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffered handle for one rank thread; its accumulations merge into
    /// the registry when the handle drops.
    pub fn rank(&self) -> RankMetrics {
        RankMetrics {
            shared: Arc::clone(&self.shared),
            local: RefCell::new(Store::default()),
        }
    }

    /// Adds `value` to counter `name` directly (takes the shared lock —
    /// meant for coarse, per-run accounting, not per-message hot paths).
    pub fn counter_add(&self, name: &str, value: u64) {
        let mut shared = self.shared.lock().expect("metrics poisoned");
        shared.store.counter_add(name, value);
        shared.maybe_stream();
    }

    /// Sets gauge `name` directly (takes the shared lock).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut shared = self.shared.lock().expect("metrics poisoned");
        shared.store.gauge_set(name, value);
        shared.maybe_stream();
    }

    /// Records a histogram observation directly (takes the shared lock).
    pub fn observe(&self, name: &str, value: f64) {
        let mut shared = self.shared.lock().expect("metrics poisoned");
        shared.store.observe(name, value);
        shared.maybe_stream();
    }

    /// Starts streaming-snapshot capture: from now on, every time the
    /// registry's event clock (one tick per recording call — counter add,
    /// gauge set or observation) crosses a multiple of `n_events`, a full
    /// [`MetricsSnapshot`] is captured. A rank handle that merges a large
    /// buffer advances the clock by its whole batch at once and captures
    /// at most one snapshot. Collect the captures with
    /// [`take_stream`](Self::take_stream); calling `snapshot_every` again
    /// restarts the stream with the new period, discarding pending
    /// captures.
    ///
    /// # Panics
    ///
    /// Panics if `n_events` is zero.
    pub fn snapshot_every(&self, n_events: u64) {
        assert!(n_events > 0, "snapshot period must be positive");
        let mut shared = self.shared.lock().expect("metrics poisoned");
        let taken = shared.store.events / n_events;
        shared.stream = Some(StreamState {
            every: n_events,
            taken,
            snapshots: Vec::new(),
        });
    }

    /// Takes the snapshots streamed since [`snapshot_every`](Self::snapshot_every)
    /// (or the previous `take_stream`), leaving the stream armed.
    /// Returns `None` when streaming was never enabled.
    pub fn take_stream(&self) -> Option<MetricsStream> {
        let mut shared = self.shared.lock().expect("metrics poisoned");
        let stream = shared.stream.as_mut()?;
        Some(MetricsStream {
            every: stream.every,
            snapshots: std::mem::take(&mut stream.snapshots),
        })
    }

    /// The event clock: total recording calls folded into the registry so
    /// far (rank handles count on merge, not per call).
    pub fn events(&self) -> u64 {
        self.shared.lock().expect("metrics poisoned").store.events
    }

    /// Installs this registry as the process-wide
    /// [`mre_core::telemetry`] sink, so the contention solver
    /// (`simnet.maxmin.*`) feeds the same store. The sink is removed when
    /// the returned guard drops. Only one telemetry consumer
    /// can be installed at a time (last install wins).
    pub fn install_telemetry(&self) -> TelemetryGuard {
        mre_core::telemetry::install(Arc::new(self.clone()));
        TelemetryGuard { _private: () }
    }

    /// A sorted, deterministic copy of everything collected so far. Rank
    /// handles still alive have not merged yet — call after the run
    /// returns (the runtime drops each rank's handle at thread exit).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shared
            .lock()
            .expect("metrics poisoned")
            .store
            .snapshot()
    }
}

impl mre_core::telemetry::Collector for MetricsRegistry {
    fn counter_add(&self, name: &str, value: u64) {
        MetricsRegistry::counter_add(self, name, value);
    }
    fn observe(&self, name: &str, value: f64) {
        MetricsRegistry::observe(self, name, value);
    }
}

/// Uninstalls the telemetry bridge on drop.
pub struct TelemetryGuard {
    _private: (),
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        mre_core::telemetry::uninstall();
    }
}

/// Per-rank buffered metrics handle; lock-free to record into, merged
/// into the registry once on drop.
pub struct RankMetrics {
    shared: Arc<Mutex<Shared>>,
    local: RefCell<Store>,
}

impl RankMetrics {
    /// Adds `value` to counter `name` in the rank-local buffer.
    pub fn counter_add(&self, name: &str, value: u64) {
        self.local.borrow_mut().counter_add(name, value);
    }

    /// Sets gauge `name` in the rank-local buffer.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.local.borrow_mut().gauge_set(name, value);
    }

    /// Records a histogram observation in the rank-local buffer.
    pub fn observe(&self, name: &str, value: f64) {
        self.local.borrow_mut().observe(name, value);
    }
}

impl Drop for RankMetrics {
    fn drop(&mut self) {
        let local = self.local.borrow();
        if let Ok(mut shared) = self.shared.lock() {
            shared.store.merge(&local);
            shared.maybe_stream();
        }
    }
}

/// Snapshots streamed by [`MetricsRegistry::snapshot_every`], in capture
/// order. Export with
/// [`metrics_stream_csv`](crate::export::metrics_stream_csv).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsStream {
    /// The snapshot period, in registry events.
    pub every: u64,
    /// `(event_clock_at_capture, snapshot)` pairs, oldest first.
    pub snapshots: Vec<(u64, MetricsSnapshot)>,
}

/// An immutable, sorted view of a registry's contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (last write wins).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if it ever received an observation.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_handles_merge_on_drop_across_threads() {
        let registry = MetricsRegistry::new();
        let handles: Vec<_> = (0..4)
            .map(|rank| {
                let rm = registry.rank();
                std::thread::spawn(move || {
                    rm.counter_add("sends", rank as u64 + 1);
                    rm.observe("bytes", 100.0 * (rank as f64 + 1.0));
                    rm.gauge_set("last_rank", rank as f64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sends"), 1 + 2 + 3 + 4);
        let h = snap.histogram("bytes").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 100.0 + 200.0 + 300.0 + 400.0);
        assert!(snap.gauge("last_rank").is_some());
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        h.observe(0.0); // zero bucket
        h.observe(1.0); // 2^0
        h.observe(3.0); // 2^2
        h.observe(4.0); // 2^2
        h.observe(1e-6); // fractional exponent, rounds up to 2^-19
        assert_eq!(h.zero, 1);
        assert_eq!(h.buckets.get(&0), Some(&1));
        assert_eq!(h.buckets.get(&2), Some(&2));
        assert_eq!(h.buckets.get(&-19), Some(&1));
        assert_eq!(h.count, 5);
        assert!((h.mean() - (1.0 + 3.0 + 4.0 + 1e-6) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn telemetry_bridge_feeds_the_registry() {
        let registry = MetricsRegistry::new();
        {
            let _guard = registry.install_telemetry();
            mre_core::telemetry::counter_add("bridge.counter", 5);
            mre_core::telemetry::observe("bridge.hist", 2.0);
        }
        // Guard dropped: sink uninstalled, later emissions are swallowed.
        mre_core::telemetry::counter_add("bridge.counter", 100);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("bridge.counter"), 5);
        assert_eq!(snap.histogram("bridge.hist").unwrap().count, 1);
    }

    #[test]
    fn streamed_snapshots_fire_on_event_multiples() {
        let registry = MetricsRegistry::new();
        registry.counter_add("warmup", 1); // event 1, before streaming
        registry.snapshot_every(3);
        assert!(registry.take_stream().unwrap().snapshots.is_empty());
        registry.counter_add("c", 1); // 2
        registry.gauge_set("g", 1.0); // 3 → capture
        registry.observe("h", 2.0); // 4
        registry.counter_add("c", 1); // 5
        registry.counter_add("c", 1); // 6 → capture
        assert_eq!(registry.events(), 6);
        let stream = registry.take_stream().unwrap();
        assert_eq!(stream.every, 3);
        assert_eq!(stream.snapshots.len(), 2);
        assert_eq!(stream.snapshots[0].0, 3);
        assert_eq!(stream.snapshots[0].1.counter("c"), 1);
        assert!(stream.snapshots[0].1.histogram("h").is_none());
        assert_eq!(stream.snapshots[1].0, 6);
        assert_eq!(stream.snapshots[1].1.counter("c"), 3);
        assert_eq!(stream.snapshots[1].1.histogram("h").unwrap().count, 1);
        // Drained, stream stays armed.
        assert!(registry.take_stream().unwrap().snapshots.is_empty());
        registry.counter_add("c", 1); // 7
        registry.counter_add("c", 1); // 8
        registry.counter_add("c", 1); // 9 → capture
        assert_eq!(registry.take_stream().unwrap().snapshots.len(), 1);
        // Never-enabled registries stream nothing.
        assert!(MetricsRegistry::new().take_stream().is_none());
    }

    #[test]
    fn rank_merge_advances_the_clock_by_its_batch_and_captures_once() {
        let registry = MetricsRegistry::new();
        registry.snapshot_every(4);
        {
            let rm = registry.rank();
            for _ in 0..7 {
                rm.counter_add("sends", 1); // 7 buffered events
            }
            rm.observe("bytes", 32.0); // 8th
            rm.observe("bytes", 32.0); // 9th
        } // merge: clock 0 → 9, crossing multiples 4 and 8 in one batch
        assert_eq!(registry.events(), 9);
        let stream = registry.take_stream().unwrap();
        assert_eq!(stream.snapshots.len(), 1, "one capture per merge batch");
        assert_eq!(stream.snapshots[0].0, 9);
        assert_eq!(stream.snapshots[0].1.counter("sends"), 7);
    }

    #[test]
    fn direct_registry_calls_and_snapshot_defaults() {
        let registry = MetricsRegistry::new();
        registry.counter_add("c", 2);
        registry.counter_add("c", 3);
        registry.gauge_set("g", 1.0);
        registry.gauge_set("g", 2.5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("g"), Some(2.5));
        assert!(snap.histogram("missing").is_none());
        assert!(!snap.is_empty());
        assert!(MetricsRegistry::new().snapshot().is_empty());
    }
}
