//! # mre-trace — tracing & timeline profiling for the simulated MPI stack
//!
//! Two sources feed one event model ([`Trace`]):
//!
//! * **Simulated timelines** — [`schedule_trace`] lifts a
//!   [`mre_simnet::ScheduleTimeline`] (per-message start/finish/rate as
//!   reconstructed by the max-min contention solve) into a trace whose
//!   lanes are cores. Analyses operate on the timeline directly:
//!   [`critical_path`] chains each round's bottleneck message,
//!   [`level_occupancy`] slices each round's bytes by crossing level (its
//!   sum over rounds is the one per-level byte count of a run), and
//!   [`rank_activity`] splits each core's time into busy and barrier-idle.
//! * **Wall-clock recording** — a [`Recorder`] hands lock-cheap
//!   [`RankRecorder`] handles to the rank threads of the `mre-mpi`
//!   runtime; sends, receive waits, collective invocations and
//!   application phases record into per-rank buffers that are merged once
//!   at thread exit.
//!
//! Two consumers close the loop between the sources:
//!
//! * **Trace diffing** — [`diff_traces`] aligns a wall-clock trace
//!   against the costed simulated schedule of the same run span-by-span
//!   (matching messages on `(src core, dst core, occurrence)`), computes
//!   per-span and per-level skews and a single model-fidelity score. This
//!   is how the contention model is validated against reality.
//! * **Live metrics** — a [`MetricsRegistry`] collects lock-cheap
//!   counters, gauges and log₂ histograms from the runtime's rank
//!   threads and (through the [`mre_core::telemetry`] bridge) from the
//!   contention solver (`simnet.maxmin.*`). Search counts are not among
//!   them: each search API returns its own (`PruneStats`, `CacheStats`,
//!   `FluidStats`, `AlgorithmChoice`).
//!
//! Either kind of trace exports to Chrome `trace_event` JSON
//! ([`chrome_trace_json`], loadable in Perfetto or `chrome://tracing`) or
//! CSV ([`csv`]); metrics export as CSV ([`metrics_csv`]) or Chrome
//! counter events ([`chrome_trace_json_with_metrics`]). All outputs are
//! byte-deterministic. The `trace_report` and `trace_diff` binaries in
//! `mre-bench` wire it all together for the paper's machines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod congestion;
pub mod diff;
pub mod event;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod simtrace;

pub use analysis::{
    critical_path, fluid_critical_path, level_occupancy, rank_activity, wall_level_bytes,
    CriticalHop, CriticalPath, FluidCriticalPath, LevelOccupancy, OccupancySlice, RankBreakdown,
};
pub use congestion::{
    chrome_trace_json_with_congestion, congestion_counters, congestion_csv, CongestionCounterSeries,
};
pub use diff::{diff_traces, DiffOptions, LevelSkew, SpanDiff, TraceDiff};
pub use event::{Clock, Event, EventKind, Trace};
pub use export::{
    chrome_trace_json, chrome_trace_json_with_metrics, csv, metrics_csv, metrics_stream_csv,
};
pub use metrics::{
    Histogram, MetricsRegistry, MetricsSnapshot, MetricsStream, RankMetrics, TelemetryGuard,
};
pub use recorder::{RankRecorder, Recorder, SpanGuard};
pub use simtrace::{concurrent_schedule_trace, fluid_trace, schedule_trace};
