//! Timeline profile of one collective under one order — the `mre-trace`
//! front end.
//!
//! Builds the collective's schedule for **every** subcommunicator of the
//! chosen order, merges them round-for-round into one lockstep schedule
//! (the §4.1 protocol's "concurrent" measurement — all subcommunicators
//! compete for the shared links), reconstructs the per-message timeline
//! under the machine's contention model, and prints the critical path,
//! the time-sliced per-level link occupancy and the per-rank busy/idle
//! breakdown. With `--out` the full timeline is written as Chrome
//! `trace_event` JSON (open in Perfetto or `chrome://tracing`), each
//! message labeled with its subcommunicator; `--csv` writes the same
//! events as CSV.
//!
//! With `--autotune` each subcommunicator runs the algorithm an
//! [`AlgorithmSelector`] found cheapest under the lockstep round model;
//! `--fluid` (implies `--autotune`) costs the candidates with the
//! barrier-free fluid engine instead and reports every
//! per-subcommunicator choice that flips between the two engines.
//!
//! ```text
//! trace_report --machine hydra --collective alltoall --order 3-2-1-0 \
//!              --subcomm 16 --bytes 4194304 --out trace.json
//! trace_report --nodes 32 --order 0-1-2-3 --subcomm 16 --fluid
//! ```

use mre_core::subcomm::ColorScheme;
use mre_core::{Hierarchy, Permutation};
use mre_mpi::AlgorithmSelector;
use mre_simnet::presets::{hydra_network, lumi_network};
use mre_simnet::{NetworkModel, Schedule, SharedCostCache};
use mre_trace::{
    chrome_trace_json, concurrent_schedule_trace, critical_path, csv, level_occupancy,
    rank_activity,
};
use mre_workloads::microbench::{Collective, Microbench};

struct Options {
    machine: String,
    nodes: usize,
    collective: String,
    order: Option<String>,
    subcomm: usize,
    bytes: u64,
    autotune: bool,
    fluid: bool,
    out: Option<String>,
    csv_out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        machine: "hydra".into(),
        nodes: 16,
        collective: "alltoall".into(),
        order: None,
        subcomm: 16,
        bytes: 4 << 20,
        autotune: false,
        fluid: false,
        out: None,
        csv_out: None,
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
        match flag {
            "--machine" => opts.machine = value("--machine"),
            "--nodes" => {
                opts.nodes = value("--nodes")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("bad --nodes (need an integer >= 1)");
                        std::process::exit(2);
                    })
            }
            "--collective" => opts.collective = value("--collective"),
            "--order" => opts.order = Some(value("--order")),
            "--subcomm" => {
                opts.subcomm = value("--subcomm").parse().unwrap_or_else(|e| {
                    eprintln!("bad --subcomm: {e}");
                    std::process::exit(2);
                })
            }
            "--bytes" => {
                opts.bytes = value("--bytes").parse().unwrap_or_else(|e| {
                    eprintln!("bad --bytes: {e}");
                    std::process::exit(2);
                })
            }
            "--autotune" => opts.autotune = true,
            "--fluid" => {
                // Fluid autotuning is a refinement of --autotune.
                opts.autotune = true;
                opts.fluid = true;
            }
            "--out" => opts.out = Some(value("--out")),
            "--csv" => opts.csv_out = Some(value("--csv")),
            "--help" | "-h" => {
                println!(
                    "trace_report [--machine hydra|lumi] [--nodes N] \
                     [--collective alltoall|allreduce|allgather] [--order SPEC] \
                     [--subcomm N] [--bytes N] [--autotune] [--fluid] [--out FILE.json] \
                     [--csv FILE.csv]"
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

fn main() {
    let opts = parse_args();
    if opts.autotune && opts.bytes >= AlgorithmSelector::MAX_TOTAL_BYTES {
        eprintln!(
            "bad --bytes {}: autotuning needs a payload below 2^61 bytes",
            opts.bytes
        );
        std::process::exit(2);
    }
    let Some(net) = network_for(&opts.machine, opts.nodes) else {
        eprintln!("unknown machine {:?} (hydra|lumi)", opts.machine);
        std::process::exit(2);
    };
    let machine: Hierarchy = net.hierarchy().clone();
    let order = match &opts.order {
        None => Permutation::identity(machine.depth()),
        Some(text) => Permutation::parse(text).unwrap_or_else(|e| {
            eprintln!("bad --order {text:?}: {e}");
            std::process::exit(2);
        }),
    };
    if order.len() != machine.depth() {
        eprintln!(
            "order has {} levels but {} ({} levels) needs {}",
            order.len(),
            opts.machine,
            machine.depth(),
            machine.depth()
        );
        std::process::exit(2);
    }
    let Some(collective) = Collective::parse(&opts.collective) else {
        eprintln!(
            "unknown collective {:?} ({})",
            opts.collective,
            Collective::NAMES
        );
        std::process::exit(2);
    };
    if opts.subcomm == 0 || !machine.size().is_multiple_of(opts.subcomm) {
        eprintln!(
            "subcommunicator size {} must divide {}",
            opts.subcomm,
            machine.size()
        );
        std::process::exit(2);
    }

    let bench = Microbench {
        machine: machine.clone(),
        order: order.clone(),
        subcomm_size: opts.subcomm,
        collective,
        total_bytes: opts.bytes,
    };
    let nics = net.node_rails();
    let (layout, mut schedules) = bench
        .layout_schedules(ColorScheme::Quotient, nics)
        .unwrap_or_else(|e| {
            eprintln!("cannot build subcommunicators: {e}");
            std::process::exit(2);
        });
    // Every subcommunicator runs the collective concurrently: merge the
    // per-communicator schedules round-for-round so they contend for the
    // shared links. With --autotune the size-based Auto policy is replaced
    // by the per-subcommunicator selector, which picks whichever algorithm
    // minimizes the costed schedule on this machine.
    if opts.autotune {
        let cache = SharedCostCache::new();
        let selector = AlgorithmSelector::new(&net, &cache);
        let comms = layout.comms();
        let barrier_choices = selector.select_layout(collective, comms, opts.bytes);
        let choices: Vec<_> = if opts.fluid {
            // Re-select under the barrier-free fluid engine: candidate
            // schedules are costed with FluidSim instead of the lockstep
            // round model, so intra-communicator pipelining counts.
            comms
                .iter()
                .map(|members| selector.select_fluid(collective, members, opts.bytes))
                .collect()
        } else {
            barrier_choices.clone()
        };
        println!(
            "autotune: per-subcommunicator algorithm selection ({})",
            if opts.fluid {
                "fluid engine"
            } else {
                "lockstep rounds"
            }
        );
        for (c, choice) in choices.iter().enumerate() {
            println!(
                "  comm {c}: {} ({:.3} us, outer busy {:.1}%, {} evaluated, {} pruned)",
                choice.alg.label(),
                choice.cost * 1e6,
                choice.outer_busy_fraction * 100.0,
                choice.evaluated,
                choice.skipped
            );
            schedules[c] = choice.alg.schedule(&comms[c], opts.bytes, nics);
        }
        if opts.fluid {
            let flips: Vec<usize> = (0..comms.len())
                .filter(|&c| choices[c].alg != barrier_choices[c].alg)
                .collect();
            if flips.is_empty() {
                println!(
                    "  fluid vs lockstep: no per-subcommunicator choice flips \
                     (both engines rank the candidates identically here)"
                );
            } else {
                for &c in &flips {
                    println!(
                        "  fluid flips comm {c}: {} (lockstep) -> {} (fluid)",
                        barrier_choices[c].alg.label(),
                        choices[c].alg.label()
                    );
                }
                println!(
                    "  fluid vs lockstep: {} of {} choices flipped",
                    flips.len(),
                    comms.len()
                );
            }
        }
        let (hits, misses) = cache.stats();
        println!("  cost cache: {hits} hits, {misses} misses\n");
    }
    let schedules: Vec<Schedule> = schedules.iter().map(Schedule::canonicalized).collect();
    let groups: Vec<(String, Vec<usize>)> = (0..layout.count())
        .map(|c| (format!("comm {c}"), layout.members(c).to_vec()))
        .collect();
    let schedule = Schedule::lockstep(&schedules);
    let timeline = net
        .schedule_timeline(&schedule)
        .expect("canonical schedule");
    let label = format!("{}:{}", opts.collective, opts.machine);

    println!(
        "machine {machine} ({} cores), order [{order}], {} comms x {} procs, {} bytes",
        machine.size(),
        layout.count(),
        opts.subcomm,
        opts.bytes
    );
    println!(
        "schedule: {} rounds, {} messages, {} payload bytes",
        schedule.num_rounds(),
        timeline.num_messages(),
        timeline.total_bytes()
    );
    println!(
        "simulated time: {:.3} us (all {} subcommunicators concurrent)\n",
        timeline.total_time() * 1e6,
        layout.count()
    );

    let cp = critical_path(&machine, &timeline);
    println!("critical path ({} hops):", cp.hops.len());
    println!(
        "  {:>5}  {:>14}  {:>12}  {:>10}  level",
        "round", "message", "dur (us)", "bytes"
    );
    for hop in &cp.hops {
        println!(
            "  {:>5}  {:>6} -> {:<5}  {:>12.3}  {:>10}  {}",
            hop.round,
            hop.src,
            hop.dst,
            (hop.finish - hop.start) * 1e6,
            hop.bytes,
            hop.level_name
        );
    }
    println!(
        "  total: {:.3} us (= costed schedule time)\n",
        cp.total_time * 1e6
    );

    let occ = level_occupancy(&machine, &timeline);
    println!("link occupancy by crossing level:");
    for (j, name) in occ.level_names.iter().enumerate() {
        let totals = occ.total_bytes_crossing();
        println!(
            "  {:>8}: {:>12} bytes, busy {:>5.1}% of the time, peak {:>9.2} MB/s",
            name,
            totals[j],
            occ.busy_fraction(j) * 100.0,
            occ.peak_rate(j) / 1e6
        );
    }

    let acts = rank_activity(&timeline);
    let mean_busy = if acts.is_empty() {
        0.0
    } else {
        acts.iter().map(|a| a.busy_fraction()).sum::<f64>() / acts.len() as f64
    };
    println!(
        "\nrank activity: {} active cores, mean busy fraction {:.1}%",
        acts.len(),
        mean_busy * 100.0
    );
    if let Some(most_idle) = acts.iter().min_by(|a, b| {
        a.busy_fraction()
            .partial_cmp(&b.busy_fraction())
            .expect("finite fractions")
    }) {
        println!(
            "  most idle: core {} ({:.1}% busy, {} messages)",
            most_idle.core,
            most_idle.busy_fraction() * 100.0,
            most_idle.messages
        );
    }

    let trace = concurrent_schedule_trace(&machine, &timeline, &label, &groups);
    if let Some(path) = &opts.out {
        std::fs::write(path, chrome_trace_json(&trace)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nwrote Chrome trace_event JSON to {path} (load in Perfetto)");
    }
    if let Some(path) = &opts.csv_out {
        std::fs::write(path, csv(&trace)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote CSV to {path}");
    }
}
