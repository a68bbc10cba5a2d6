//! Congestion-observatory exports: the time-resolved per-link rate
//! timelines a [`mre_simnet::CongestionProbe`] records, rendered as
//! Perfetto counter tracks and as a deterministic CSV.
//!
//! Two export surfaces, both byte-deterministic (hand-rolled formatting,
//! fixed field order — the same golden-file contract the other exporters
//! honor):
//!
//! * [`congestion_csv`] — one row per recorded rate segment with the
//!   decoded link identity (`link,level,level_name,instance,dir,rail,
//!   start,finish,rate,bytes`), the raw-data sibling of
//!   [`metrics_stream_csv`](crate::metrics_stream_csv).
//! * [`congestion_counters`] + [`chrome_trace_json_with_congestion`] —
//!   piecewise-constant counter series (Chrome `ph: "C"` records): one
//!   aggregate-allocated-rate track per level×rail plus one track per
//!   top-k hot link, merged into the existing Chrome export so the
//!   counters render right under the span timeline.

use crate::event::Trace;
use crate::export::{chrome_impl, counter_json, micros};
use mre_simnet::{CongestionProbe, NetworkModel};
use std::fmt::Write as _;

/// One Perfetto counter track: a named piecewise-constant series sampled
/// at every value change (`(seconds, bytes_per_second)` pairs in time
/// order).
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionCounterSeries {
    /// Track name (`congestion.<level>.rail<r>` or
    /// `hotlink.<level>[<instance>].<dir>.rail<r>`).
    pub name: String,
    /// `(time_seconds, rate_bytes_per_second)` samples; each value holds
    /// until the next sample.
    pub samples: Vec<(f64, f64)>,
}

/// The aggregate allocated rate over all links of one (level, rail) as a
/// piecewise-constant series: event-sweep over the links' segments,
/// sampling at every boundary. Counts open segments so the series returns
/// to exactly 0.0 between bursts.
fn level_rail_series(probe: &CongestionProbe, level: usize, rail: usize) -> Vec<(f64, f64)> {
    let mut events: Vec<(f64, f64)> = Vec::new();
    for l in 0..probe.num_links() as u32 {
        let (lev, _, _, r) = probe.table().decode(l);
        if lev != level || r != rail {
            continue;
        }
        for s in probe.link_segments(l) {
            events.push((s.start, s.rate));
            events.push((s.finish, -s.rate));
        }
    }
    sweep(events)
}

/// A single link's rate series from its own (already disjoint) segments.
fn link_series(probe: &CongestionProbe, link: u32) -> Vec<(f64, f64)> {
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut prev_finish: Option<f64> = None;
    for s in probe.link_segments(link) {
        match prev_finish {
            Some(f) if f < s.start => samples.push((f, 0.0)),
            None if s.start > 0.0 => samples.push((0.0, 0.0)),
            _ => {}
        }
        samples.push((s.start, s.rate));
        prev_finish = Some(s.finish);
    }
    if let Some(f) = prev_finish {
        samples.push((f, 0.0));
    }
    samples
}

/// Turns `(time, ±rate)` boundary events into a sampled-on-change series.
fn sweep(mut events: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    if events.is_empty() {
        return Vec::new();
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut samples: Vec<(f64, f64)> = Vec::new();
    if events[0].0 > 0.0 {
        samples.push((0.0, 0.0));
    }
    let mut rate = 0.0f64;
    let mut open = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            let delta = events[i].1;
            rate += delta;
            open += if delta >= 0.0 { 1 } else { -1 };
            i += 1;
        }
        // Exact zero when no segment is open: the ± cancellation above is
        // only float-exact for a single flow.
        let value = if open == 0 { 0.0 } else { rate };
        samples.push((t, value));
    }
    samples
}

/// Builds the counter-track family of a probed run: one
/// `congestion.<level>.rail<r>` aggregate-rate track per (level, rail) of
/// the fabric that carried traffic, then one
/// `hotlink.<level>[<instance>].<up|down>.rail<r>` track per top-`top_k`
/// hot link. Series and samples are emitted in a fixed order, so the
/// downstream exports are byte-deterministic.
pub fn congestion_counters(
    net: &NetworkModel,
    probe: &CongestionProbe,
    top_k: usize,
) -> Vec<CongestionCounterSeries> {
    let mut series = Vec::new();
    for (level, &rails) in net.rail_counts().iter().enumerate() {
        for rail in 0..rails {
            let samples = level_rail_series(probe, level, rail);
            if samples.is_empty() {
                continue;
            }
            series.push(CongestionCounterSeries {
                name: format!("congestion.{}.rail{rail}", net.hierarchy().name(level)),
                samples,
            });
        }
    }
    for usage in probe.hot_links(top_k) {
        series.push(CongestionCounterSeries {
            name: format!(
                "hotlink.{}[{}].{}.rail{}",
                net.hierarchy().name(usage.level),
                usage.instance,
                if usage.up { "up" } else { "down" },
                usage.rail
            ),
            samples: link_series(probe, usage.link),
        });
    }
    series
}

/// Serializes a probed run as CSV: one row per recorded rate segment,
/// links in id order, segments in time order. Columns:
/// `link,level,level_name,instance,dir,rail,start,finish,rate,bytes` —
/// times in seconds (9 decimals), `rate` in bytes/s and `bytes` with 3
/// decimals.
pub fn congestion_csv(net: &NetworkModel, probe: &CongestionProbe) -> String {
    let mut out = String::from("link,level,level_name,instance,dir,rail,start,finish,rate,bytes\n");
    for l in 0..probe.num_links() as u32 {
        let segments = probe.link_segments(l);
        if segments.is_empty() {
            continue;
        }
        let (level, instance, up, rail) = probe.table().decode(l);
        let name = net.hierarchy().name(level);
        let dir = if up { "up" } else { "down" };
        for s in segments {
            let _ = writeln!(
                out,
                "{l},{level},{name},{instance},{dir},{rail},{:.9},{:.9},{:.3},{:.3}",
                s.start,
                s.finish,
                s.rate,
                s.bytes()
            );
        }
    }
    out
}

/// Like [`chrome_trace_json`](crate::chrome_trace_json), with the
/// congestion counter tracks of [`congestion_counters`] appended as
/// Chrome counter (`ph: "C"`) records — one record per sample, so
/// Perfetto renders each series as a piecewise-constant counter track
/// next to the span timeline.
pub fn chrome_trace_json_with_congestion(
    trace: &Trace,
    counters: &[CongestionCounterSeries],
) -> String {
    let mut rows = Vec::new();
    for series in counters {
        for &(t, v) in &series.samples {
            rows.push(counter_json(&series.name, &micros(t), format!("{v:.3}")));
        }
    }
    chrome_impl(trace, None, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Clock;
    use mre_simnet::presets::hydra_network;
    use mre_simnet::{Message, Round, Schedule};

    fn probed_toy() -> (NetworkModel, CongestionProbe) {
        let net = hydra_network(2, 1);
        let s = Schedule::with(vec![
            Round::with(vec![Message::new(0, 32, 4096), Message::new(1, 33, 4096)]),
            Round::with(vec![Message::new(0, 1, 1024)]),
        ]);
        let mut probe = CongestionProbe::new(&net);
        net.schedule_time_probed(&s, &mut probe);
        (net, probe)
    }

    #[test]
    fn counter_series_are_piecewise_and_deterministic() {
        let (net, probe) = probed_toy();
        let series = congestion_counters(&net, &probe, 3);
        assert_eq!(series, congestion_counters(&net, &probe, 3));
        // One aggregate track per active (level, rail) + 3 hot links.
        assert!(series.iter().any(|s| s.name == "congestion.node.rail0"));
        assert!(
            series
                .iter()
                .filter(|s| s.name.starts_with("hotlink."))
                .count()
                == 3
        );
        for s in &series {
            // Samples are time-ordered and end at zero rate.
            for w in s.samples.windows(2) {
                assert!(w[1].0 >= w[0].0);
            }
            assert_eq!(s.samples.last().unwrap().1, 0.0);
        }
    }

    #[test]
    fn csv_rows_cover_every_segment() {
        let (net, probe) = probed_toy();
        let out = congestion_csv(&net, &probe);
        let total_segments: usize = (0..probe.num_links() as u32)
            .map(|l| probe.link_segments(l).len())
            .sum();
        assert_eq!(out.lines().count(), total_segments + 1);
        assert!(out.starts_with("link,level,level_name,instance,dir,rail,start,finish,rate,bytes"));
        assert!(out.contains(",node,"));
        assert_eq!(out, congestion_csv(&net, &probe));
    }

    #[test]
    fn chrome_export_merges_counter_tracks() {
        let (net, probe) = probed_toy();
        let series = congestion_counters(&net, &probe, 2);
        let trace = Trace::new(Clock::Simulated);
        let json = chrome_trace_json_with_congestion(&trace, &series);
        assert!(json.contains("\"name\":\"congestion.node.rail0\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
