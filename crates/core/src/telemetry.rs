//! A process-wide telemetry sink with one remaining feed.
//!
//! Crates below `mre-trace` in the dependency graph (this crate and
//! `mre-simnet`) cannot hold a `mre_trace::MetricsRegistry` directly, so
//! the counts that no API returns are published through this indirection:
//! a global [`Collector`] that is `None` by default. Every emission site is
//! guarded by one relaxed atomic load, so uninstrumented runs pay nothing
//! measurable.
//!
//! Exactly one site in `mre-simnet` feeds it, once per contention solve:
//! the lockstep water-fill's `simnet.maxmin.{solves,iterations,flows}`
//! counters and `simnet.maxmin.iterations.hist` (`contention.rs`).
//!
//! Every other count reaches callers through the value its API returns:
//! [`crate::order_search::PruneStats`] (bound pruning),
//! `mre_simnet::CacheStats` (memo tiers), `mre_simnet::FluidStats` (fluid
//! events and solves), `mre_mpi::AlgorithmChoice` (autotune candidates),
//! [`crate::par::pool_stats`] (worker pool) and
//! `mre_simnet::thread_workspace_rounds` (round workspace trips), and a
//! lockstep timeline's bytes per crossing level come from
//! `mre_trace::level_occupancy`. No code in this crate emits into the
//! sink.
//!
//! `mre-trace` installs its metrics registry here via
//! [`install`]/[`uninstall`] (wrapped in a guard on its side). The sink is
//! process-global: tests in one binary that run the contention solver
//! while a collector is installed see each other's counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Receives telemetry emitted by the algorithm crates.
pub trait Collector: Send + Sync {
    /// Adds `value` to the monotonic counter `name`.
    fn counter_add(&self, name: &str, value: u64);
    /// Records one observation of `value` into the histogram `name`.
    fn observe(&self, name: &str, value: f64);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);

/// Installs `collector` as the process-wide sink (replacing any previous
/// one). Emission sites become active immediately.
pub fn install(collector: Arc<dyn Collector>) {
    *SINK.write().expect("telemetry sink poisoned") = Some(collector);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the installed sink; emission sites return to the single-load
/// fast path.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *SINK.write().expect("telemetry sink poisoned") = None;
}

/// Whether a collector is currently installed (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `value` to counter `name` if a collector is installed.
#[inline]
pub fn counter_add(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    if let Ok(sink) = SINK.read() {
        if let Some(c) = sink.as_ref() {
            c.counter_add(name, value);
        }
    }
}

/// Records one histogram observation of `value` under `name` if a
/// collector is installed.
#[inline]
pub fn observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    if let Ok(sink) = SINK.read() {
        if let Some(c) = sink.as_ref() {
            c.observe(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Capture {
        counters: Mutex<Vec<(String, u64)>>,
    }

    impl Collector for Capture {
        fn counter_add(&self, name: &str, value: u64) {
            self.counters
                .lock()
                .unwrap()
                .push((name.to_string(), value));
        }
        fn observe(&self, _name: &str, _value: f64) {}
    }

    #[test]
    fn disabled_sink_swallows_and_installed_sink_receives() {
        // The sink is process-global, but nothing in this crate emits
        // into it, so the other tests of this binary cannot add counts.
        counter_add("t.before", 1); // no sink: must not panic
        let cap = Arc::new(Capture {
            counters: Mutex::new(Vec::new()),
        });
        install(cap.clone());
        assert!(enabled());
        counter_add("t.counter", 3);
        counter_add("t.counter", 4);
        uninstall();
        assert!(!enabled());
        counter_add("t.after", 9);
        let got = cap.counters.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![("t.counter".to_string(), 3), ("t.counter".to_string(), 4)]
        );
    }
}
