//! Span-by-span validation of the contention model against a real run —
//! the `mre-trace` diffing front end.
//!
//! Runs a distributed workload on the thread runtime with wall-clock
//! recording and live metrics attached, builds the costed-schedule
//! counterpart of its communication, and diffs the two traces with
//! [`mre_trace::diff_traces`]: every message span is matched on
//! `(src core, dst core, occurrence)`, per-span and per-level skews are
//! reported, and a single model-fidelity score summarises how well the
//! max-min contention model explains the observed run.
//!
//! Four workloads validate the model from different angles:
//!
//! * `--workload cg` (default) — the CG solver's collective sequence
//!   ([`mre_workloads::cg::cg_comm_schedule`]);
//! * `--workload stencil` — the halo exchange of a periodic Cartesian
//!   grid ([`mre_workloads::stencil::Stencil::comm_schedule`]), a pure
//!   point-to-point neighbor pattern with no collectives at all;
//! * `--workload cpd` — the Splatt-shaped CP-ALS with its layer
//!   communicators ([`mre_workloads::splatt::cpd_comm_schedule`]):
//!   `--dims` names the process grid, `--n` the (cubic) tensor mode
//!   size, `--cp-rank` the CP rank;
//! * `--workload micro` — `--iters` back-to-back calls of one §4.1
//!   collective (`--collective`, `--bytes`) on the full world
//!   ([`mre_workloads::microbench::microbench_comm_schedule`]).
//!
//! ```text
//! trace_diff --machine hydra --nodes 2 --procs 8 --n 1024 --iters 10 \
//!            --csv spans.csv --metrics-csv metrics.csv --out wall.json
//! trace_diff --workload stencil --dims 2x4 --face-bytes 4096 --iters 10
//! trace_diff --workload cpd --dims 2x2x2 --n 64 --cp-rank 4 --iters 3
//! trace_diff --workload micro --collective alltoall --bytes 1048576 --procs 8
//! ```
//!
//! The wall clock measures host threads, not the modeled machine, so the
//! *absolute* skews mostly reflect the host; the interesting outputs are
//! the matched fraction (does the model send the same messages?) and the
//! normalised per-level skews (does contention bite where the model says
//! it does?).

use mre_bench::cli::{self, Setup};
use mre_simnet::Schedule;
use mre_trace::{
    chrome_trace_json_with_metrics, diff_traces, level_occupancy, metrics_csv, metrics_stream_csv,
    schedule_trace, DiffOptions, MetricsRegistry, Recorder,
};
use mre_workloads::cg::{cg_comm_schedule, cg_distributed_instrumented, generate_matrix};
use mre_workloads::microbench::{microbench_collective_instrumented, microbench_comm_schedule};
use mre_workloads::splatt::{cpd_comm_schedule, cpd_distributed_instrumented, generate_tensor};
use mre_workloads::stencil::{stencil_distributed_instrumented, Stencil};

const USAGE: &str = "trace_diff [--machine hydra|lumi] [--workload cg|stencil|cpd|micro] \
                     [--nodes N] [--procs P] [--n N] [--iters K] [--dims AxBxC] \
                     [--face-bytes B] [--cp-rank R] \
                     [--collective alltoall|allreduce|allgather] [--bytes B] \
                     [--snapshot-every E] [--csv FILE.csv] [--metrics-csv FILE.csv] \
                     [--stream-csv FILE.csv] [--out FILE.json]";

struct Options {
    /// `--machine`, `--nodes`, `--collective` and `--bytes`.
    setup: Setup,
    workload: String,
    procs: usize,
    n: usize,
    iters: usize,
    dims: Vec<usize>,
    face_bytes: u64,
    cp_rank: usize,
    snapshot_every: Option<u64>,
    csv_out: Option<String>,
    metrics_out: Option<String>,
    stream_out: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        setup: Setup {
            nodes: 1,
            bytes: 1 << 20,
            ..Setup::default()
        },
        workload: "cg".into(),
        procs: 4,
        n: 256,
        iters: 10,
        dims: vec![2, 4],
        face_bytes: 4096,
        cp_rank: 4,
        snapshot_every: None,
        csv_out: None,
        metrics_out: None,
        stream_out: None,
        out: None,
    };
    cli::parse_flags(std::env::args().skip(1), Some(USAGE), |flag, args| {
        match flag {
            "--machine" | "--nodes" | "--collective" | "--bytes" => {
                return opts.setup.flag(flag, args)
            }
            "--workload" => opts.workload = args.value(flag)?,
            "--procs" => opts.procs = args.number(flag)?,
            "--n" => opts.n = args.number(flag)?,
            "--iters" => opts.iters = args.number(flag)?,
            "--dims" => {
                opts.dims = args
                    .value(flag)?
                    .split('x')
                    .map(|d| cli::number(flag, d))
                    .collect::<Result<_, _>>()?
            }
            "--face-bytes" => opts.face_bytes = args.number(flag)?,
            "--cp-rank" => opts.cp_rank = args.number(flag)?,
            "--snapshot-every" => opts.snapshot_every = Some(args.count(flag)? as u64),
            "--csv" => opts.csv_out = Some(args.value(flag)?),
            "--metrics-csv" => opts.metrics_out = Some(args.value(flag)?),
            "--stream-csv" => opts.stream_out = Some(args.value(flag)?),
            "--out" => opts.out = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if opts.stream_out.is_some() && opts.snapshot_every.is_none() {
        return Err("--stream-csv needs --snapshot-every to enable streaming".into());
    }
    Ok(opts)
}

/// Runs the selected workload under `recorder`/`metrics` and returns its
/// costed-schedule counterpart plus a result line for the final summary.
fn run_workload(
    opts: &Options,
    procs: usize,
    cores: &[usize],
    recorder: &Recorder,
    metrics: &MetricsRegistry,
) -> Result<(Schedule, String), String> {
    let bytes = opts.setup.bytes;
    Ok(match opts.workload.as_str() {
        "cg" => {
            let a = generate_matrix(opts.n, 7, 20.0, 42);
            let b = vec![1.0; opts.n];
            let results = cg_distributed_instrumented(
                &a,
                &b,
                opts.iters,
                procs,
                Some(recorder),
                Some(metrics),
            );
            let residual = results.first().map_or(f64::NAN, |(_, r)| *r);
            let schedule = cg_comm_schedule(cores, opts.n, opts.iters);
            (
                schedule,
                format!(
                    "CG residual after {} iterations: {residual:.3e}",
                    opts.iters
                ),
            )
        }
        "stencil" => {
            let stencil =
                Stencil::new(opts.dims.clone(), opts.face_bytes).expect("dims validated by caller");
            let checksums = stencil_distributed_instrumented(
                &stencil,
                opts.iters,
                Some(recorder),
                Some(metrics),
            )
            .expect("grid validated by caller");
            let schedule = stencil
                .comm_schedule(cores, opts.iters)
                .expect("grid validated by caller");
            (
                schedule,
                format!(
                    "stencil rank-0 checksum after {} iterations: {:#x}",
                    opts.iters,
                    checksums.first().copied().unwrap_or(0)
                ),
            )
        }
        "cpd" => {
            let grid = [opts.dims[0], opts.dims[1], opts.dims[2]];
            let tensor = generate_tensor([opts.n, opts.n, opts.n], 8 * opts.n, 42);
            let fits = cpd_distributed_instrumented(
                &tensor,
                opts.cp_rank,
                opts.iters,
                grid,
                13,
                Some(recorder),
                Some(metrics),
            );
            let schedule = cpd_comm_schedule(cores, tensor.dims, opts.cp_rank, grid, opts.iters);
            (
                schedule,
                format!(
                    "CPD fit after {} iterations: {:.6}",
                    opts.iters,
                    fits.first().copied().unwrap_or(f64::NAN)
                ),
            )
        }
        "micro" => {
            let collective = cli::collective(&opts.setup.collective)?;
            let checksums = microbench_collective_instrumented(
                collective,
                bytes,
                opts.iters,
                procs,
                Some(recorder),
                Some(metrics),
            );
            let schedule = microbench_comm_schedule(collective, cores, bytes, opts.iters);
            (
                schedule,
                format!(
                    "{} rank-0 checksum after {} calls: {:.6e}",
                    opts.setup.collective,
                    opts.iters,
                    checksums.first().copied().unwrap_or(f64::NAN)
                ),
            )
        }
        other => return Err(format!("unknown workload {other:?} (cg|stencil|cpd|micro)")),
    })
}

fn main() {
    cli::or_exit(run(), 2)
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let net = opts.setup.network()?;
    let machine = net.hierarchy();

    // The stencil and CPD grids fix their own rank counts; CG and the
    // microbenches take --procs.
    let procs = match opts.workload.as_str() {
        "stencil" => {
            if opts.dims.is_empty() || opts.dims.contains(&0) {
                return Err("--dims must name a non-empty grid of positive extents".into());
            }
            opts.dims.iter().product()
        }
        "cpd" => {
            if opts.dims.len() != 3 || opts.dims.contains(&0) {
                return Err(
                    "--dims must name a 3D process grid of positive extents for cpd".into(),
                );
            }
            opts.dims.iter().product()
        }
        _ => opts.procs,
    };
    if procs == 0 || procs > machine.size() {
        return Err(format!(
            "workload needs {} procs, must be in 1..={} ({} with {} nodes)",
            procs,
            machine.size(),
            opts.setup.machine,
            opts.setup.nodes
        ));
    }
    if opts.workload == "cg" && opts.n < opts.procs {
        return Err(format!(
            "--n {} must be at least --procs {}",
            opts.n, opts.procs
        ));
    }

    // Rank r lives on core r: ranks fill the machine depth-first, so the
    // communication crosses the innermost levels first — the placement the
    // costed schedule is charged for.
    let cores: Vec<usize> = (0..procs).collect();

    println!(
        "machine {machine} ({} cores), workload {} iters={} on {} procs (cores 0..{})",
        machine.size(),
        opts.workload,
        opts.iters,
        procs,
        procs
    );

    // Real run: wall-clock recorder + live metrics on the thread runtime.
    let recorder = Recorder::new();
    let metrics = MetricsRegistry::new();
    if let Some(every) = opts.snapshot_every {
        metrics.snapshot_every(every);
    }
    {
        // While the guard lives, the contention solver also feeds the
        // registry.
        let _telemetry = metrics.install_telemetry();
        let (schedule, result_line) = run_workload(&opts, procs, &cores, &recorder, &metrics)?;

        // Costed counterpart: the same message sequence, scheduled and
        // priced on the machine model.
        let timeline = net
            .schedule_timeline(&schedule)
            .expect("canonical schedule");
        metrics.counter_add("simnet.timelines", 1);
        let totals = level_occupancy(machine, &timeline).total_bytes_crossing();
        let (levels, local) = totals.split_at(machine.depth());
        for (j, &bytes) in levels.iter().enumerate() {
            if bytes > 0 {
                let name = format!("simnet.bytes.crossing.{}", machine.name(j));
                metrics.counter_add(&name, bytes);
            }
        }
        if local[0] > 0 {
            metrics.counter_add("simnet.bytes.local", local[0]);
        }
        let wall = recorder.take_trace();
        let sim = schedule_trace(machine, &timeline, &format!("{}:costed", opts.workload));
        println!(
            "wall: {} events; costed: {} rounds, {} messages, {:.3} us simulated",
            wall.events.len(),
            schedule.num_rounds(),
            timeline.num_messages(),
            timeline.total_time() * 1e6
        );

        let diff = diff_traces(
            &wall,
            &sim,
            &DiffOptions {
                cores: cores.clone(),
            },
        );
        println!("\n{}", diff.text_report());

        if let Some(path) = &opts.csv_out {
            cli::write_or_exit(path, diff.csv());
            println!("wrote span diff CSV to {path}");
        }
        if let Some(path) = &opts.out {
            cli::write_or_exit(
                path,
                chrome_trace_json_with_metrics(&wall, &metrics.snapshot()),
            );
            println!("wrote wall-clock Chrome trace_event JSON to {path}");
        }
        println!("{result_line}");
    }
    if let Some(path) = &opts.metrics_out {
        cli::write_or_exit(path, metrics_csv(&metrics.snapshot()));
        println!("wrote metrics CSV to {path}");
    }
    if let Some(path) = &opts.stream_out {
        let stream = metrics
            .take_stream()
            .expect("parse_args pairs --stream-csv with --snapshot-every");
        cli::write_or_exit(path, metrics_stream_csv(&stream));
        println!(
            "wrote {} streamed snapshots (every {} events) to {path}",
            stream.snapshots.len(),
            stream.every
        );
    }
    Ok(())
}
