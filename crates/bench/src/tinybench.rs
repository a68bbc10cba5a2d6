//! A dependency-free micro-benchmark harness (offline Criterion stand-in).
//!
//! The build environment cannot fetch crates.io, so `criterion` is
//! unavailable; `benches/figures.rs` is a plain `harness = false` binary
//! driving this module instead. It is the only bench target left: the
//! end-to-end timing of the order search is the seeded `perf` benchmark
//! (`src/bin/perf/`), and `figures.rs` stays because it is the only
//! timing of the Fig. 3–7 points until a figure workload joins `perf`,
//! which is a declared benchmark change. The protocol is deliberately
//! simple and robust:
//!
//! 1. warm up until ~50 ms of wall time has elapsed,
//! 2. pick an iteration batch size targeting ~25 ms per sample,
//! 3. take a fixed number of samples and report min / median / mean
//!    nanoseconds per iteration.
//!
//! [`Bench::finish`] prints an aligned table; [`Stats`] are also returned
//! from every [`Bench::bench`] call.
//!
//! Bench binaries accept an optional substring filter argument, mirroring
//! `cargo bench -- <filter>`, plus `--quick` to cut sample counts for
//! smoke runs.

use std::hint::black_box as bb;
use std::time::{Duration, Instant};

/// Re-exported optimization barrier, so bench targets don't need to
/// import `std::hint` themselves.
pub fn black_box<T>(x: T) -> T {
    bb(x)
}

/// Timing summary of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample — the best estimate of the true cost on a noisy box.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Iterations per sample actually used.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
}

impl Stats {
    /// Human-readable median, scaled to a sensible unit.
    pub fn human(&self) -> String {
        human_ns(self.median_ns)
    }
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A named collection of benchmarks with CLI filtering.
pub struct Bench {
    filter: Option<String>,
    quick: bool,
    results: Vec<(String, Stats)>,
}

impl Bench {
    /// Builds a harness from `std::env::args`: any non-flag argument is a
    /// substring filter; `--quick` reduces sample counts.
    pub fn from_env() -> Self {
        let mut filter = None;
        let mut quick = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => quick = true,
                // `cargo bench` passes `--bench`; ignore flags generally.
                a if a.starts_with('-') => {}
                a => filter = Some(a.to_string()),
            }
        }
        Self {
            filter,
            quick,
            results: Vec::new(),
        }
    }

    /// A harness with explicit settings (for tests).
    pub fn new(filter: Option<String>, quick: bool) -> Self {
        Self {
            filter,
            quick,
            results: Vec::new(),
        }
    }

    /// Runs `f` repeatedly and records its timing under `name`. Returns
    /// the stats, or `None` if the name is filtered out.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Option<Stats> {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        let (warmup, sample_target, samples) = if self.quick {
            (Duration::from_millis(5), Duration::from_millis(5), 5)
        } else {
            (Duration::from_millis(50), Duration::from_millis(25), 12)
        };

        // Warm-up: also yields a first cost estimate.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < warmup || warm_iters == 0 {
            bb(f());
            warm_iters += 1;
        }
        let est_ns = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
        let iters_per_sample = ((sample_target.as_nanos() as f64 / est_ns).ceil() as u64).max(1);

        let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                bb(f());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        per_iter.sort_by(f64::total_cmp);
        let stats = Stats {
            min_ns: per_iter[0],
            median_ns: per_iter[per_iter.len() / 2],
            mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
            iters_per_sample,
            samples,
        };
        println!(
            "{name:<52} {:>12}  (min {:>12}, {} x {} iters)",
            stats.human(),
            human_ns(stats.min_ns),
            samples,
            iters_per_sample,
        );
        self.results.push((name.to_string(), stats));
        Some(stats)
    }

    /// All recorded results in execution order.
    pub fn results(&self) -> &[(String, Stats)] {
        &self.results
    }

    /// Prints a closing summary line.
    pub fn finish(self) {
        println!("\n{} benchmark(s) run.", self.results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = Bench::new(Some("match".into()), true);
        assert!(b.bench("no", || 1).is_none());
        assert!(b.bench("does_match_this", || 1).is_some());
        assert_eq!(b.results().len(), 1);
    }

    #[test]
    fn stats_are_sane() {
        let mut b = Bench::new(None, true);
        let s = b
            .bench("spin", || std::thread::sleep(Duration::from_micros(50)))
            .unwrap();
        assert!(s.min_ns >= 50_000.0 * 0.5, "min {} too small", s.min_ns);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns > 0.0 && s.mean_ns > 0.0);
    }

    #[test]
    fn human_units() {
        assert_eq!(human_ns(12.0), "12.0 ns");
        assert_eq!(human_ns(1_500.0), "1.500 µs");
        assert_eq!(human_ns(2_500_000.0), "2.500 ms");
        assert_eq!(human_ns(3_000_000_000.0), "3.000 s");
    }
}
