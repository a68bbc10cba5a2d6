//! `perf` — the seeded end-to-end and per-layer benchmark of the
//! order-search and costing pipeline. See README.md next to Cargo.toml.
//!
//! ```text
//! perf --seed S [--workload W] [--threads N] [--seconds S] [--trace [0|1]] [--quick]
//! perf --compare A.json[,A2.json…] B.json[,B2.json…]
//! ```
//!
//! With `--workload` the run happens in this process: set-up (repeated,
//! median reported), one untimed pass on one thread (peak RSS), a closed
//! loop with one client over the seeded query list until `--seconds` have
//! passed (whole passes; timings from the faster half of them), then an
//! untimed exhaustive check of every answer. Without it, every workload
//! runs in its own child process. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — end-to-end
//! ones, or with `--trace 1` the per-layer ones.

mod compare;
mod host;
mod json;
mod span;
mod stats;
mod sys;
mod workloads;

use mre_core::par;
use span::{layer_totals, Ctx, Span, Tracer};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Answer, Workload, NAMES};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Where run records and traces go, relative to the working directory.
const OUT_DIR: &str = "target/perf";
/// The regression bounds `--compare` applies, relative to the working
/// directory (the repository root).
const BOUNDS: &str = "BENCHMARK.json";

struct Args {
    seed: u64,
    workload: Option<String>,
    threads: usize,
    seconds: f64,
    trace: bool,
    quick: bool,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        threads: sys::nproc(),
        seconds: 10.0,
        trace: false,
        quick: false,
        compare: None,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--workload" => {
                let v = value("--workload")?;
                if !NAMES.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown workload {v:?} (one of {})",
                        NAMES.join(", ")
                    ));
                }
                args.workload = Some(v);
            }
            "--threads" => {
                let v = value("--threads")?;
                args.threads = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad --threads {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => match argv.next() {
                Some(v) if v == "0" || v == "1" => args.trace = v == "1",
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            "--quick" => args.quick = true,
            "--compare" => {
                let list = |s: String| s.split(',').map(PathBuf::from).collect::<Vec<_>>();
                let a = list(value("--compare")?);
                let b = list(value("--compare")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let code = if let Some((a, b)) = &args.compare {
        compare::run(a, b, Path::new(BOUNDS)).unwrap_or_else(|e| {
            eprintln!("perf: {e}");
            2
        })
    } else if let Some(name) = &args.workload {
        run_workload(name, &args, start)
    } else {
        run_all(&args)
    };
    ExitCode::from(code as u8)
}

/// One timed or traced execution of a query.
struct Execution {
    query: usize,
    latency_s: f64,
    answer: Result<Answer, String>,
}

/// Runs `w.queries` in order, one at a time (a closed loop with one
/// client), each under its own root span.
fn run_pass(w: &Workload, order: &[usize], tracer: &Tracer, qid: &mut u32) -> Vec<Execution> {
    order
        .iter()
        .map(|&i| {
            *qid += 1;
            let ctx = Ctx::root(tracer, *qid);
            let t = Instant::now();
            let answer = {
                let _span = ctx.span("query");
                run_caught(|| w.run(&w.queries[i], ctx))
            };
            Execution {
                query: i,
                latency_s: t.elapsed().as_secs_f64(),
                answer,
            }
        })
        .collect()
}

/// `f()` with panics turned into errors.
fn run_caught(f: impl FnOnce() -> Result<Answer, String>) -> Result<Answer, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// One pass over the query list.
struct Pass {
    traced: bool,
    wall_s: f64,
    cpu_ns: u64,
    executions: Vec<Execution>,
}

/// Wall time, CPU time and queries summed over some passes.
#[derive(Default, Clone, Copy)]
struct PhaseClock {
    wall_s: f64,
    queries: usize,
    cpu_ns: u64,
}

impl PhaseClock {
    fn of<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Self {
        passes.into_iter().fold(Self::default(), |c, p| PhaseClock {
            wall_s: c.wall_s + p.wall_s,
            queries: c.queries + p.executions.len(),
            cpu_ns: c.cpu_ns + p.cpu_ns,
        })
    }

    fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s.max(1e-12)
    }
}

/// The faster half of `passes` (rounded up). Every pass runs the same
/// queries, so a slower pass measures a burst of host slowness — on a
/// shared 2-vCPU host, identical passes differ by up to 50% — not the
/// code; the faster half also drops the first, cold-allocator pass.
fn faster_half<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Vec<&'a Pass> {
    let mut v: Vec<&Pass> = passes.into_iter().collect();
    v.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    v.truncate(v.len().div_ceil(2));
    v
}

/// Everything a traced run collects beyond the end-to-end numbers.
struct TraceData {
    /// Spans and counters of the traced passes at the run's thread count.
    main: (Vec<Span>, BTreeMap<&'static str, u64>),
    /// The standalone enumeration probe, one call per query of a pass.
    enumerate: (Vec<Span>, BTreeMap<&'static str, u64>),
    probe_queries: usize,
    /// The one-thread pass: exact evaluated/pruned split.
    serial: (Vec<Span>, BTreeMap<&'static str, u64>),
    telemetry: mre_trace::MetricsSnapshot,
    /// Faster halves of the traced and untraced passes (tracing overhead).
    traced: PhaseClock,
    untraced: PhaseClock,
    /// Every untraced pass (CPU utilization).
    all_untraced: PhaseClock,
    /// Queries of every traced pass: the per-query denominator of the spans,
    /// counters and telemetry, which cover all traced passes.
    traced_queries: usize,
    pool_jobs: u64,
    pool_broadcasts: u64,
}

fn run_workload(name: &str, args: &Args, start: Instant) -> i32 {
    let rev = sys::git_rev(Path::new("."));
    let idle = Tracer::new();

    // Set-up: models, the query list, the worker pool and one warm-up query
    // from a separate stream, repeated; the first round counts from process
    // start. Set-up and the next pass run on one thread, so every allocation
    // before the peak-RSS reading goes through one allocator arena: on two,
    // the peak depends on how host timing splits candidates between the
    // workers' arenas, which keep freed pages (66–98 MB for identical work).
    par::set_threads(1);
    let mut setups = Vec::new();
    let mut built: Option<Workload> = None;
    let mut warmup_ok = true;
    for round in 0..if args.quick { 1 } else { SETUP_ROUNDS } {
        let t = if round == 0 { start } else { Instant::now() };
        let w = match workloads::generate(name, args.seed) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("perf: {e}");
                return 2;
            }
        };
        par::broadcast(args.threads, |_| {});
        if let Err(e) = run_caught(|| w.run(&w.warmup, Ctx::root(&idle, 0))) {
            eprintln!("perf: {name} warm-up query failed: {e}");
            warmup_ok = false;
        }
        setups.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    let w = built.expect("at least one set-up round");
    let order: Vec<usize> = if args.quick {
        quick_selection(&w)
    } else {
        (0..w.queries.len()).collect()
    };

    // One untimed pass on one thread, then VmHWM (see set-up). A traced run
    // also records this pass: its evaluated/pruned split repeats exactly.
    let serial = Tracer::new();
    serial.set_enabled(args.trace);
    let mut qid = 0u32;
    let untimed = run_pass(&w, &order, &serial, &mut qid);
    par::set_threads(args.threads);
    let peak_rss_mb = sys::peak_rss_mb().unwrap_or(0.0);

    // Timed phase: whole passes until --seconds have passed, each followed
    // by the host-speed reference. A traced run alternates untraced and
    // traced passes, so both see the same drift.
    let mut reference = host::Reference::new();
    let mut reference_s: Vec<f64> = Vec::new();
    let tracer = Tracer::new();
    let registry = mre_trace::MetricsRegistry::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pool_jobs = 0;
    let mut pool_broadcasts = 0;
    let phase_start = Instant::now();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let telemetry = traced.then(|| registry.install_telemetry());
        let pool0 = par::pool_stats();
        let cpu0 = sys::cpu_ns().unwrap_or(0);
        let t = Instant::now();
        let executions = run_pass(&w, &order, &tracer, &mut qid);
        passes.push(Pass {
            traced,
            wall_s: t.elapsed().as_secs_f64(),
            cpu_ns: sys::cpu_ns().unwrap_or(0).saturating_sub(cpu0),
            executions,
        });
        drop(telemetry);
        reference_s.push(reference.run());
        if let (true, Some(a), Some(b)) = (traced, pool0, par::pool_stats()) {
            pool_jobs += b.jobs - a.jobs;
            pool_broadcasts += b.broadcasts - a.broadcasts;
        }
        let enough = args.quick || phase_start.elapsed().as_secs_f64() >= args.seconds;
        if enough && (!args.trace || passes.len() >= 2) {
            break;
        }
    }
    tracer.set_enabled(false);
    let untraced = || passes.iter().filter(|p| !p.traced);
    let kept = faster_half(untraced());
    let kept_clock = PhaseClock::of(kept.iter().copied());

    let trace_data = args.trace.then(|| {
        let main = tracer.take();
        let probe = Tracer::new();
        probe.set_enabled(true);
        for (i, &q) in order.iter().enumerate() {
            let ctx = Ctx::root(&probe, i as u32);
            if let Err(e) = w.enumerate(&w.queries[q], ctx) {
                eprintln!("perf: enumeration probe failed: {e}");
            }
        }
        TraceData {
            main,
            enumerate: probe.take(),
            probe_queries: order.len(),
            serial: serial.take(),
            telemetry: registry.snapshot(),
            traced: PhaseClock::of(faster_half(passes.iter().filter(|p| p.traced))),
            untraced: kept_clock,
            all_untraced: PhaseClock::of(untraced()),
            traced_queries: PhaseClock::of(passes.iter().filter(|p| p.traced)).queries,
            pool_jobs,
            pool_broadcasts,
        }
    });

    // Untimed check of every execution against the exhaustive oracle.
    let oracle: BTreeMap<usize, Result<Answer, String>> = order
        .iter()
        .map(|&i| (i, run_caught(|| w.oracle(&w.queries[i]))))
        .collect();
    let mut failures: BTreeMap<usize, String> = BTreeMap::new();
    let mut failed = 0usize;
    let all_executions = passes.iter().flat_map(|p| &p.executions);
    for e in all_executions.clone().chain(&untimed) {
        let verdict = match (&e.answer, &oracle[&e.query]) {
            (Err(err), _) => Err(err.clone()),
            (_, Err(err)) => Err(format!("oracle failed: {err}")),
            (Ok(got), Ok(want)) if got != want => {
                Err(format!("answer {got:?} differs from exhaustive {want:?}"))
            }
            _ => Ok(()),
        };
        if let Err(msg) = verdict {
            failed += 1;
            failures.entry(e.query).or_insert(msg);
        }
    }
    let attempted = all_executions.count() + untimed.len();
    for (q, msg) in &failures {
        eprintln!(
            "perf: {name} query {q} ({}) failed: {msg}",
            w.describe(&w.queries[*q])
        );
    }

    // End-to-end metrics, from the faster half of the untraced passes, with
    // timings scaled to the nominal host speed (faster half of the
    // reference runs, for the same reason).
    let latencies_ms: Vec<f64> = kept
        .iter()
        .flat_map(|p| &p.executions)
        .map(|e| e.latency_s * 1e3)
        .collect();
    reference_s.sort_by(f64::total_cmp);
    let host_s =
        stats::median(&reference_s[..reference_s.len().div_ceil(2)]).unwrap_or(host::NOMINAL_S);
    let scale = host::NOMINAL_S / host_s;
    let setup = stats::median(&setups).unwrap_or(0.0);
    let p50 = stats::median(&latencies_ms).unwrap_or(0.0);
    let (p90_pct, p90) = stats::tail_percentile(&latencies_ms, 0.90).unwrap_or((0.0, 0.0));
    let end_to_end: Vec<(&str, f64, &str)> = vec![
        ("setup_s", setup * scale, "s"),
        ("query_p50_ms", p50 * scale, "ms"),
        ("query_p90_ms", p90 * scale, "ms"),
        ("queries_per_s", kept_clock.qps() / scale, "1/s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let threads = par::threads();
    println!(
        "# perf {name}: rev {rev}, nproc {}, threads {threads}, seed {}, {} queries/pass, \
         timings from the faster {} of {} untraced passes ({:.2} s of {:.2} s)",
        sys::nproc(),
        args.seed,
        order.len(),
        kept.len(),
        untraced().count(),
        kept_clock.wall_s,
        PhaseClock::of(untraced()).wall_s,
    );
    for (metric, value, unit) in &end_to_end {
        println!("{name} {metric} {value} {unit}");
    }
    println!("{name} failed_frac {failed_frac} frac");
    println!(
        "# {name} host speed: reference {host_s:.5} s vs nominal {} s, timings scaled by {scale:.4}; \
         unscaled setup_s {setup} query_p50_ms {p50} query_p90_ms {p90} queries_per_s {}",
        host::NOMINAL_S,
        kept_clock.qps()
    );
    println!(
        "{name} query_samples {} count (p90 is nearest-rank p{p90_pct:.1}, at least {} samples beyond it)",
        latencies_ms.len(),
        stats::MIN_BEYOND
    );
    println!(
        "# {name} oracle: {} distinct queries, {attempted} executions checked, {failed} failed; {}",
        order.len(),
        oracle_scope(name)
    );
    println!("# {name} digest {:016x}", digest(&oracle));

    let per_layer = trace_data.as_ref().map(|t| {
        let rows = per_layer_metrics(t, threads);
        print_layer_table(name, &rows, t);
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{name}-{}.json", args.seed));
        let phases: [(&str, &[Span]); 3] = [
            ("traced", &t.main.0),
            ("enumerate", &t.enumerate.0),
            ("serial", &t.serial.0),
        ];
        match span::write_trace(&path, &phases) {
            Ok(()) => println!("# {name} trace written to {}", path.display()),
            Err(e) => eprintln!("perf: cannot write {}: {e}", path.display()),
        }
        rows
    });

    let correct = failed == 0 && warmup_ok;
    let metrics = match &per_layer {
        Some(rows) => metrics_json(rows),
        None => metrics_json(&end_to_end),
    };
    let record = format!(
        "{{\"rev\":{},\"nproc\":{},\"threads\":{threads},\"seed\":{},\"trace\":{},\"seconds\":{},\
         \"workloads\":[{{\"workload\":{},\"attempted\":{attempted},\"failed\":{failed},\
         \"digest\":\"{:016x}\",\"metrics\":{metrics}}}]}}\n",
        json::quote(&rev),
        sys::nproc(),
        args.seed,
        args.trace,
        args.seconds,
        json::quote(name),
        digest(&oracle),
    );
    let suffix = if args.trace { "-trace" } else { "" };
    let path = PathBuf::from(OUT_DIR).join(format!("{}-{rev}-{name}{suffix}.json", args.seed));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("perf: cannot write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    );
    0
}

/// The two cheapest-looking queries (smallest machine first), for `--quick`.
fn quick_selection(w: &Workload) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..w.queries.len()).collect();
    idx.sort_by_key(|&i| (w.machines[w.queries[i].machine()].h.size(), i));
    idx.truncate(2);
    idx
}

fn oracle_scope(name: &str) -> &'static str {
    match name {
        "payload_grid" => {
            "every sweep cell's winner and cost bits equal the exhaustive sweep over \
             mapping-equivalence-class representatives (not all k! orders)"
        }
        "splatt_rails" => "every order's CPD time bits and the winner equal uncached estimate_cpd_time over all 24 orders",
        _ => {
            "winner and cost bits equal an exhaustive memo-free ranking over \
             mapping-equivalence-class representatives (not all k! orders)"
        }
    }
}

/// FNV-1a over every distinct query's exhaustive answer, in query order.
fn digest(oracle: &BTreeMap<usize, Result<Answer, String>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (q, answer) in oracle {
        feed(&q.to_le_bytes());
        match answer {
            Ok(pairs) => {
                for (label, bits) in pairs {
                    feed(label.as_bytes());
                    feed(&bits.to_le_bytes());
                }
            }
            Err(e) => feed(e.as_bytes()),
        }
    }
    h
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn metrics_json(rows: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                num(*value),
                json::quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// Counts and times are per traced query; the evaluated/pruned split comes
/// from the one-thread pass, where it repeats exactly.
fn per_layer_metrics(t: &TraceData, threads: usize) -> Vec<(&'static str, f64, &'static str)> {
    let main = layer_totals(&t.main.0);
    let enumerate = layer_totals(&t.enumerate.0);
    let n = t.traced_queries.max(1) as f64;
    let n_enum = t.probe_queries.max(1) as f64;
    let n_serial = t
        .serial
        .0
        .iter()
        .filter(|s| s.name == "query")
        .count()
        .max(1) as f64;
    let span_ns = |name: &str| main.get(name).map_or(0.0, |x| x.ns as f64) / n;
    let span_calls = |name: &str| main.get(name).map_or(0.0, |x| x.calls as f64) / n;
    let counter = |name: &str| t.main.1.get(name).copied().unwrap_or(0) as f64 / n;
    let serial = |name: &str| t.serial.1.get(name).copied().unwrap_or(0) as f64 / n_serial;
    let telemetry = |name: &str| t.telemetry.counter(name) as f64 / n;
    let enum_count = |name: &str| t.enumerate.1.get(name).copied().unwrap_or(0) as f64 / n_enum;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = counter("simnet.cost_cache.pattern_hits") + counter("simnet.cost_cache.round_hits");
    let misses =
        counter("simnet.cost_cache.pattern_misses") + counter("simnet.cost_cache.round_misses");
    let candidates = serial("core.order_search.candidates");
    let evaluated = serial("core.order_search.evaluated");
    const NS: &str = "ns/query";
    const CNT: &str = "count/query";
    vec![
        ("query.wall_ns", span_ns("query"), NS),
        (
            "core.enumerate.ns",
            enumerate.get("core.enumerate").map_or(0.0, |x| x.ns as f64) / n_enum,
            NS,
        ),
        (
            "core.enumerate.orders",
            enum_count("core.enumerate.orders"),
            CNT,
        ),
        (
            "core.enumerate.classes",
            enum_count("core.enumerate.classes"),
            CNT,
        ),
        (
            "core.order_search.self_ns",
            main.get("core.order_search")
                .map_or(0.0, |x| x.self_ns as f64)
                / n,
            NS,
        ),
        ("core.order_search.candidates", candidates, CNT),
        ("core.order_search.evaluated", evaluated, CNT),
        (
            "core.order_search.pruned",
            serial("core.order_search.pruned"),
            CNT,
        ),
        (
            "core.order_search.tight_pruned",
            serial("core.order_search.tight_pruned"),
            CNT,
        ),
        (
            "core.order_search.evaluated_frac",
            ratio(evaluated, candidates),
            "frac",
        ),
        ("core.subcomm.calls", span_calls("core.subcomm"), CNT),
        ("core.subcomm.ns", span_ns("core.subcomm"), NS),
        (
            "workloads.schedule.calls",
            span_calls("workloads.schedule"),
            CNT,
        ),
        ("workloads.schedule.ns", span_ns("workloads.schedule"), NS),
        (
            "workloads.schedule.messages",
            counter("workloads.schedule.messages"),
            CNT,
        ),
        (
            "simnet.bound.cheap.calls",
            span_calls("simnet.bound.cheap"),
            CNT,
        ),
        ("simnet.bound.cheap.ns", span_ns("simnet.bound.cheap"), NS),
        (
            "simnet.bound.tight.calls",
            span_calls("simnet.bound.tight"),
            CNT,
        ),
        ("simnet.bound.tight.ns", span_ns("simnet.bound.tight"), NS),
        ("simnet.cost.calls", span_calls("simnet.cost"), CNT),
        ("simnet.cost.ns", span_ns("simnet.cost"), NS),
        (
            "simnet.cost_cache.pattern_hits",
            counter("simnet.cost_cache.pattern_hits"),
            CNT,
        ),
        (
            "simnet.cost_cache.pattern_misses",
            counter("simnet.cost_cache.pattern_misses"),
            CNT,
        ),
        (
            "simnet.cost_cache.round_hits",
            counter("simnet.cost_cache.round_hits"),
            CNT,
        ),
        (
            "simnet.cost_cache.round_misses",
            counter("simnet.cost_cache.round_misses"),
            CNT,
        ),
        (
            "simnet.cost_cache.hit_frac",
            ratio(hits, hits + misses),
            "frac",
        ),
        (
            "simnet.cost_cache.entries",
            counter("simnet.cost_cache.entries"),
            CNT,
        ),
        (
            "simnet.maxmin.solves",
            telemetry("simnet.maxmin.solves"),
            CNT,
        ),
        (
            "simnet.maxmin.iterations",
            telemetry("simnet.maxmin.iterations"),
            CNT,
        ),
        ("simnet.fluid.ns", span_ns("simnet.fluid"), NS),
        ("simnet.fluid.events", counter("simnet.fluid.events"), CNT),
        ("simnet.fluid.solves", counter("simnet.fluid.solves"), CNT),
        (
            "simnet.fluid.repredictions",
            counter("simnet.fluid.repredictions"),
            CNT,
        ),
        (
            "simnet.symbolic.build.calls",
            span_calls("simnet.symbolic.build"),
            CNT,
        ),
        (
            "simnet.symbolic.build.ns",
            span_ns("simnet.symbolic.build"),
            NS,
        ),
        (
            "simnet.symbolic.replay.calls",
            span_calls("simnet.symbolic.replay"),
            CNT,
        ),
        (
            "simnet.symbolic.replay.ns",
            span_ns("simnet.symbolic.replay"),
            NS,
        ),
        (
            "simnet.symbolic.fallbacks",
            counter("simnet.symbolic.fallbacks"),
            CNT,
        ),
        (
            "workloads.splatt.estimate.calls",
            span_calls("workloads.splatt.estimate"),
            CNT,
        ),
        (
            "workloads.splatt.estimate.ns",
            span_ns("workloads.splatt.estimate"),
            NS,
        ),
        ("core.par.threads", threads as f64, "threads"),
        ("core.par.jobs", t.pool_jobs as f64 / n, CNT),
        ("core.par.broadcasts", t.pool_broadcasts as f64 / n, CNT),
        (
            "process.cpu_util",
            ratio(t.all_untraced.cpu_ns as f64 * 1e-9, t.all_untraced.wall_s),
            "frac",
        ),
        (
            "trace.overhead",
            1.0 - ratio(t.traced.qps(), t.untraced.qps()),
            "frac",
        ),
    ]
}

fn print_layer_table(name: &str, rows: &[(&str, f64, &str)], t: &TraceData) {
    let wall = rows
        .iter()
        .find(|r| r.0 == "query.wall_ns")
        .map_or(0.0, |r| r.1);
    println!(
        "# {name} per-layer (traced, per query; shares are of traced query wall, \
         summed over workers): untraced {:.2} q/s, traced {:.2} q/s",
        t.untraced.qps(),
        t.traced.qps()
    );
    for (metric, value, unit) in rows {
        let share = if unit.starts_with("ns") && wall > 0.0 {
            format!("  ({:.1}% of query wall)", 100.0 * value / wall)
        } else {
            String::new()
        };
        println!("{name} {metric} {value} {unit}{share}");
    }
}

/// Runs every workload in its own child process and combines the results.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf: cannot locate own executable: {e}");
            return 2;
        }
    };
    let rev = sys::git_rev(Path::new("."));
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut combined: Vec<String> = Vec::new();
    let mut entries: Vec<String> = Vec::new();
    for name in NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--threads", &args.threads.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let started = Instant::now();
        let out = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perf: cannot run {name}: {e}");
                return 2;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in &lines {
            println!("{line}");
        }
        println!(
            "# {name} finished in {:.1} s",
            started.elapsed().as_secs_f64()
        );
        let result = match (out.status.success(), json::parse(last)) {
            (true, Ok(v)) => v,
            _ => {
                eprintln!("perf: {name} exited with {} and no result", out.status);
                return 2;
            }
        };
        correct &= result.get("correct") == Some(&json::Value::Bool(true));
        let count = |k: &str| result.get(k).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        let metrics = result.get("metrics").map_or(&[][..], json::Value::fields);
        let rows: Vec<(String, f64, String)> = metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.clone(),
                    v.get("value").and_then(json::Value::as_f64).unwrap_or(0.0),
                    v.get("unit")
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect();
        let rows_ref: Vec<(&str, f64, &str)> = rows
            .iter()
            .map(|(m, v, u)| (m.as_str(), *v, u.as_str()))
            .collect();
        entries.push(format!(
            "{{\"workload\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            json::quote(name),
            count("attempted"),
            count("failed"),
            metrics_json(&rows_ref)
        ));
        combined.extend(rows.iter().map(|(m, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(&format!("{name}.{m}")),
                num(*v),
                json::quote(u)
            )
        }));
    }
    let record = format!(
        "{{\"rev\":{},\"nproc\":{},\"threads\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\
         \"workloads\":[{}]}}\n",
        json::quote(&rev),
        sys::nproc(),
        args.threads,
        args.seed,
        args.trace,
        args.seconds,
        entries.join(",")
    );
    let suffix = if args.trace { "-trace" } else { "" };
    let path = PathBuf::from(OUT_DIR).join(format!("{}-{rev}{suffix}.json", args.seed));
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record)) {
        Ok(()) => println!("# run record written to {}", path.display()),
        Err(e) => eprintln!("perf: cannot write {}: {e}", path.display()),
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        combined.join(",")
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn both_spellings_of_trace_parse() {
        let a = args(&[
            "--workload",
            "recommend",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "0",
        ])
        .unwrap();
        assert!(!a.trace);
        assert_eq!((a.seed, a.seconds), (3, 2.0));
        assert!(args(&["--trace", "1"]).unwrap().trace);
        let bare = args(&["--trace", "--seed", "4"]).unwrap();
        assert!(bare.trace);
        assert_eq!(bare.seed, 4);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--threads", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// `--quick` smoke of every workload: the two cheapest queries, checked
    /// against the exhaustive oracle.
    #[test]
    fn quick_smoke_of_every_workload_has_no_failures() {
        let tracer = Tracer::new();
        for name in NAMES {
            let w = workloads::generate(name, 1).unwrap();
            let picked = quick_selection(&w);
            assert_eq!(picked.len(), 2, "{name}");
            let mut qid = 0;
            for e in run_pass(&w, &picked, &tracer, &mut qid) {
                let got = e.answer.unwrap_or_else(|err| panic!("{name}: {err}"));
                let want = w.oracle(&w.queries[e.query]).unwrap();
                assert_eq!(got, want, "{name}: {}", w.describe(&w.queries[e.query]));
            }
        }
    }
}
