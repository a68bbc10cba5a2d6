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
//!   ([`mre_workloads::microbench::Microbench::comm_schedule`]).
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

use mre_core::{Hierarchy, Permutation};
use mre_mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mre_simnet::presets::{hydra_network, lumi_network};
use mre_simnet::{NetworkModel, Schedule};
use mre_trace::{
    chrome_trace_json_with_metrics, diff_traces, metrics_csv, metrics_stream_csv, schedule_trace,
    DiffOptions, MetricsRegistry, Recorder,
};
use mre_workloads::cg::{cg_comm_schedule, cg_distributed_instrumented, generate_matrix};
use mre_workloads::microbench::{microbench_collective_instrumented, Collective, Microbench};
use mre_workloads::splatt::{cpd_comm_schedule, cpd_distributed_instrumented, generate_tensor};
use mre_workloads::stencil::{stencil_distributed_instrumented, Stencil};

struct Options {
    machine: String,
    workload: String,
    nodes: usize,
    procs: usize,
    n: usize,
    iters: usize,
    dims: Vec<usize>,
    face_bytes: u64,
    cp_rank: usize,
    collective: String,
    bytes: u64,
    snapshot_every: Option<u64>,
    csv_out: Option<String>,
    metrics_out: Option<String>,
    stream_out: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        machine: "hydra".into(),
        workload: "cg".into(),
        nodes: 1,
        procs: 4,
        n: 256,
        iters: 10,
        dims: vec![2, 4],
        face_bytes: 4096,
        cp_rank: 4,
        collective: "alltoall".into(),
        bytes: 1 << 20,
        snapshot_every: None,
        csv_out: None,
        metrics_out: None,
        stream_out: None,
        out: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        let parse_usize = |name: &str, text: String| -> usize {
            text.parse().unwrap_or_else(|e| {
                eprintln!("bad {name}: {e}");
                std::process::exit(2);
            })
        };
        match flag {
            "--machine" => opts.machine = value("--machine"),
            "--workload" => opts.workload = value("--workload"),
            "--nodes" => {
                opts.nodes = parse_usize("--nodes", value("--nodes"));
                if opts.nodes == 0 {
                    eprintln!("bad --nodes (need an integer >= 1)");
                    std::process::exit(2);
                }
            }
            "--procs" => opts.procs = parse_usize("--procs", value("--procs")),
            "--n" => opts.n = parse_usize("--n", value("--n")),
            "--iters" => opts.iters = parse_usize("--iters", value("--iters")),
            "--dims" => {
                let text = value("--dims");
                opts.dims = text
                    .split('x')
                    .map(|d| parse_usize("--dims", d.to_string()))
                    .collect();
            }
            "--face-bytes" => {
                opts.face_bytes = parse_usize("--face-bytes", value("--face-bytes")) as u64
            }
            "--cp-rank" => opts.cp_rank = parse_usize("--cp-rank", value("--cp-rank")),
            "--collective" => opts.collective = value("--collective"),
            "--bytes" => opts.bytes = parse_usize("--bytes", value("--bytes")) as u64,
            "--snapshot-every" => {
                let every = parse_usize("--snapshot-every", value("--snapshot-every"));
                if every == 0 {
                    eprintln!("bad --snapshot-every (need an integer >= 1)");
                    std::process::exit(2);
                }
                opts.snapshot_every = Some(every as u64);
            }
            "--csv" => opts.csv_out = Some(value("--csv")),
            "--metrics-csv" => opts.metrics_out = Some(value("--metrics-csv")),
            "--stream-csv" => opts.stream_out = Some(value("--stream-csv")),
            "--out" => opts.out = Some(value("--out")),
            "--help" | "-h" => {
                println!(
                    "trace_diff [--machine hydra|lumi] [--workload cg|stencil|cpd|micro] \
                     [--nodes N] [--procs P] [--n N] [--iters K] [--dims AxBxC] \
                     [--face-bytes B] [--cp-rank R] \
                     [--collective alltoall|allreduce|allgather] [--bytes B] \
                     [--snapshot-every E] [--csv FILE.csv] [--metrics-csv FILE.csv] \
                     [--stream-csv FILE.csv] [--out FILE.json]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other:?} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    opts
}

fn network_for(machine: &str, nodes: usize) -> Option<NetworkModel> {
    match machine {
        "hydra" => Some(hydra_network(nodes, 1)),
        "lumi" => Some(lumi_network(nodes)),
        _ => None,
    }
}

/// Runs the selected workload under `recorder`/`metrics` and returns its
/// costed-schedule counterpart plus a result line for the final summary.
fn run_workload(
    opts: &Options,
    machine: &Hierarchy,
    procs: usize,
    cores: &[usize],
    recorder: &Recorder,
    metrics: &MetricsRegistry,
) -> (Schedule, String) {
    match opts.workload.as_str() {
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
            let collective = match opts.collective.as_str() {
                "alltoall" => Collective::Alltoall(AlltoallAlg::Auto),
                "allreduce" => Collective::Allreduce(AllreduceAlg::Auto),
                "allgather" => Collective::Allgather(AllgatherAlg::Auto),
                other => {
                    eprintln!("unknown collective {other:?} (alltoall|allreduce|allgather)");
                    std::process::exit(2);
                }
            };
            let checksums = microbench_collective_instrumented(
                collective,
                opts.bytes,
                opts.iters,
                procs,
                Some(recorder),
                Some(metrics),
            );
            let depth = machine.levels().len();
            let bench = Microbench {
                machine: machine.clone(),
                order: Permutation::new((0..depth).collect()).expect("identity is a permutation"),
                subcomm_size: machine.size(),
                collective,
                total_bytes: opts.bytes,
            };
            let schedule = bench.comm_schedule(cores, opts.iters);
            (
                schedule,
                format!(
                    "{} rank-0 checksum after {} calls: {:.6e}",
                    opts.collective,
                    opts.iters,
                    checksums.first().copied().unwrap_or(f64::NAN)
                ),
            )
        }
        other => {
            eprintln!("unknown workload {other:?} (cg|stencil|cpd|micro)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let opts = parse_args();
    let Some(net) = network_for(&opts.machine, opts.nodes) else {
        eprintln!("unknown machine {:?} (hydra|lumi)", opts.machine);
        std::process::exit(2);
    };
    let machine: Hierarchy = net.hierarchy().clone();

    // The stencil and CPD grids fix their own rank counts; CG and the
    // microbenches take --procs.
    let procs = match opts.workload.as_str() {
        "stencil" => {
            if opts.dims.is_empty() || opts.dims.contains(&0) {
                eprintln!("--dims must name a non-empty grid of positive extents");
                std::process::exit(2);
            }
            opts.dims.iter().product()
        }
        "cpd" => {
            if opts.dims.len() != 3 || opts.dims.contains(&0) {
                eprintln!("--dims must name a 3D process grid of positive extents for cpd");
                std::process::exit(2);
            }
            opts.dims.iter().product()
        }
        _ => opts.procs,
    };
    if procs == 0 || procs > machine.size() {
        eprintln!(
            "workload needs {} procs, must be in 1..={} ({} with {} nodes)",
            procs,
            machine.size(),
            opts.machine,
            opts.nodes
        );
        std::process::exit(2);
    }
    if opts.workload == "cg" && opts.n < opts.procs {
        eprintln!("--n {} must be at least --procs {}", opts.n, opts.procs);
        std::process::exit(2);
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
        // While the guard lives, the contention solver and timeline byte
        // accounting below also feed the registry.
        let _telemetry = metrics.install_telemetry();
        let (schedule, result_line) =
            run_workload(&opts, &machine, procs, &cores, &recorder, &metrics);

        // Costed counterpart: the same message sequence, scheduled and
        // priced on the machine model.
        let timeline = net
            .schedule_timeline(&schedule)
            .expect("canonical schedule");
        let wall = recorder.take_trace();
        let sim = schedule_trace(&machine, &timeline, &format!("{}:costed", opts.workload));
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
            std::fs::write(path, diff.csv()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote span diff CSV to {path}");
        }
        if let Some(path) = &opts.out {
            std::fs::write(
                path,
                chrome_trace_json_with_metrics(&wall, &metrics.snapshot()),
            )
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote wall-clock Chrome trace_event JSON to {path}");
        }
        println!("{result_line}");
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, metrics_csv(&metrics.snapshot())).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote metrics CSV to {path}");
    }
    if let Some(path) = &opts.stream_out {
        match metrics.take_stream() {
            Some(stream) => {
                std::fs::write(path, metrics_stream_csv(&stream)).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!(
                    "wrote {} streamed snapshots (every {} events) to {path}",
                    stream.snapshots.len(),
                    stream.every
                );
            }
            None => {
                eprintln!("--stream-csv needs --snapshot-every to enable streaming");
                std::process::exit(2);
            }
        }
    }
}
