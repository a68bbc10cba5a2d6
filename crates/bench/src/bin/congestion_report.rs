//! Link-level congestion report of one collective under one order — the
//! congestion-observatory front end.
//!
//! Builds the collective's schedule for **every** subcommunicator of the
//! chosen order, runs the merged workload with a
//! [`mre_simnet::CongestionProbe`] attached (lockstep rounds by default,
//! the barrier-free fluid engine with `--fluid`) and prints the
//! time-resolved story the plain cost number hides: per-level/per-rail
//! occupancy, the rail-imbalance index, the top-k hot links, and the
//! per-level bound gap — how far the admissible
//! [`mre_simnet::schedule_lower_bound`] / [`mre_simnet::fluid_lower_bound`]
//! contribution sits below the observed busy span, i.e. the pruning
//! headroom each level leaves the branch-and-bound search. When
//! round-robin railing turns out parity-degenerate (the imbalance index
//! of a railed level equals its rail count), the report says so and
//! suggests `--rail-policy affinity`.
//!
//! `--csv` writes every recorded rate segment
//! ([`mre_trace::congestion_csv`]); `--chrome` writes the message
//! timeline with the congestion counter tracks merged in
//! ([`mre_trace::chrome_trace_json_with_congestion`]) for Perfetto.
//!
//! ```text
//! congestion_report --machine hydra --collective alltoall --order 3-2-1-0
//! congestion_report --nics 2 --order 0-1-2-3 --top-k 12 --chrome cong.json
//! congestion_report --fluid --subcomm 32 --csv segments.csv
//! ```

use mre_core::subcomm::ColorScheme;
use mre_core::{Hierarchy, Permutation};
use mre_simnet::presets::{hydra_network, lumi_network};
use mre_simnet::{
    bound_gap_fluid, bound_gap_lockstep, BoundGap, CongestionProbe, FluidSim, NetworkModel,
    RailPolicy, Schedule,
};
use mre_trace::{
    chrome_trace_json_with_congestion, concurrent_schedule_trace, congestion_counters,
    congestion_csv, fluid_trace,
};
use mre_workloads::microbench::{Collective, Microbench};

struct Options {
    machine: String,
    nodes: usize,
    collective: String,
    order: Option<String>,
    subcomm: usize,
    bytes: u64,
    nics: usize,
    policy: RailPolicy,
    fluid: bool,
    top_k: usize,
    csv_out: Option<String>,
    chrome_out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        machine: "hydra".into(),
        nodes: 16,
        collective: "alltoall".into(),
        order: None,
        subcomm: 16,
        bytes: 4 << 20,
        nics: 1,
        policy: RailPolicy::default(),
        fluid: false,
        top_k: 8,
        csv_out: None,
        chrome_out: None,
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
            "--nics" => {
                opts.nics = value("--nics")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("bad --nics (need an integer >= 1)");
                        std::process::exit(2);
                    })
            }
            "--rail-policy" => {
                let text = value("--rail-policy");
                opts.policy = RailPolicy::parse(&text).unwrap_or_else(|| {
                    eprintln!("bad --rail-policy {text:?} (round-robin|src-hash|affinity)");
                    std::process::exit(2);
                })
            }
            "--fluid" => opts.fluid = true,
            "--top-k" => {
                opts.top_k = value("--top-k").parse().unwrap_or_else(|e| {
                    eprintln!("bad --top-k: {e}");
                    std::process::exit(2);
                })
            }
            "--csv" => opts.csv_out = Some(value("--csv")),
            "--chrome" => opts.chrome_out = Some(value("--chrome")),
            "--help" | "-h" => {
                println!(
                    "congestion_report [--machine hydra|lumi] [--nodes N] \
                     [--collective alltoall|allreduce|allgather] [--order SPEC] \
                     [--subcomm N] [--bytes N] [--nics N] \
                     [--rail-policy round-robin|src-hash|affinity] [--fluid] \
                     [--top-k K] [--csv FILE.csv] [--chrome FILE.json]"
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

fn network_for(
    machine: &str,
    nodes: usize,
    nics: usize,
    policy: RailPolicy,
) -> Option<NetworkModel> {
    let base = match machine {
        "hydra" => hydra_network(nodes, 1),
        "lumi" => lumi_network(nodes),
        _ => return None,
    };
    Some(if nics > 1 {
        base.with_node_rails(nics, policy)
    } else {
        base
    })
}

fn level_label(net: &NetworkModel, level: usize) -> String {
    net.hierarchy()
        .names()
        .get(level)
        .cloned()
        .unwrap_or_else(|| format!("level-{level}"))
}

fn print_bound_gaps(net: &NetworkModel, gaps: &[BoundGap]) {
    println!("bound gap per level (admissible bound contribution vs observed busy span):");
    println!(
        "  {:<10} {:>12} {:>12} {:>12} {:>8}",
        "level", "bound (us)", "actual (us)", "gap (us)", "gap%"
    );
    for g in gaps {
        // The gap is ≥ 0 up to float summation noise; don't print "-0.000".
        let gap = if g.gap().abs() <= 1e-9 * g.actual.abs() {
            0.0
        } else {
            g.gap()
        };
        let pct = if g.actual > 0.0 {
            100.0 * gap / g.actual
        } else {
            0.0
        };
        println!(
            "  {:<10} {:>12.3} {:>12.3} {:>12.3} {:>7.1}%",
            level_label(net, g.level),
            g.bound * 1e6,
            g.actual * 1e6,
            gap * 1e6,
            pct
        );
    }
}

fn main() {
    let opts = parse_args();
    let Some(net) = network_for(&opts.machine, opts.nodes, opts.nics, opts.policy) else {
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
            "order has {} levels but {} needs {}",
            order.len(),
            opts.machine,
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
    // Every subcommunicator runs concurrently; with --nics > 1 each
    // communicator's rounds are rail-striped exactly as the cost engines
    // assume.
    let (layout, schedules) = bench
        .layout_schedules(ColorScheme::Quotient, opts.nics)
        .unwrap_or_else(|e| {
            eprintln!("cannot build subcommunicators: {e}");
            std::process::exit(2);
        });
    let schedules: Vec<Schedule> = schedules.iter().map(Schedule::canonicalized).collect();
    let groups: Vec<(String, Vec<usize>)> = (0..layout.count())
        .map(|c| (format!("comm {c}"), layout.members(c).to_vec()))
        .collect();
    let merged = Schedule::lockstep(&schedules);

    let mut probe = CongestionProbe::new(&net);
    let makespan = if opts.fluid {
        FluidSim::new(&net).run_probed(&schedules, &mut probe)
    } else {
        net.schedule_time_probed(&merged, &mut probe)
    };

    println!(
        "machine {machine} ({} cores), order [{order}], {} comms x {} procs, {} bytes",
        machine.size(),
        layout.count(),
        opts.subcomm,
        opts.bytes
    );
    if opts.nics > 1 {
        println!(
            "multi-rail fabric: {} node rails, {} assignment",
            opts.nics, opts.policy
        );
    }
    println!(
        "engine: {}; {} rounds, {} messages; makespan {:.3} us\n",
        if opts.fluid {
            "fluid (barrier-free)"
        } else {
            "lockstep rounds"
        },
        merged.num_rounds(),
        merged
            .rounds
            .iter()
            .map(|r| r.messages.len())
            .sum::<usize>(),
        makespan * 1e6
    );

    println!("occupancy per level x rail (busy fractions of the makespan):");
    println!(
        "  {:<10} {:>4} {:>7} {:>12} {:>10} {:>10} {:>10}",
        "level", "rail", "links", "bytes (MB)", "peak busy", "mean busy", "imbalance"
    );
    let occupancy = probe.occupancy();
    for row in &occupancy {
        let imbalance = if row.rail == 0 {
            format!("{:>10.3}", probe.rail_imbalance(row.level))
        } else {
            format!("{:>10}", "")
        };
        println!(
            "  {:<10} {:>4} {:>7} {:>12.1} {:>9.1}% {:>9.1}% {}",
            level_label(&net, row.level),
            row.rail,
            row.active_links,
            row.bytes / 1e6,
            100.0 * row.peak_busy / makespan.max(f64::MIN_POSITIVE),
            100.0 * row.mean_busy / makespan.max(f64::MIN_POSITIVE),
            imbalance
        );
    }
    println!();

    // Parity degeneracy (DESIGN.md §9): round-robin picks the rail as
    // `(src + dst) mod rails`, so a collective whose communicating pairs
    // all share one pair parity — ring neighbours a constant stride
    // apart, say — lands *every* crossing byte on a single rail and the
    // imbalance index equals the rail count.
    if opts.policy == RailPolicy::RoundRobin {
        let mut warned = false;
        for (level, &rails) in net.rail_counts().iter().enumerate() {
            if rails <= 1 {
                continue;
            }
            let imbalance = probe.rail_imbalance(level);
            if imbalance >= rails as f64 * (1.0 - 1e-9) {
                println!(
                    "warning: {} traffic is parity-degenerate — the rail-imbalance index \
                     {imbalance:.3} equals the rail count {rails}, so round-robin's \
                     `(src + dst) mod {rails}` steers every crossing byte onto one rail \
                     and the other {} rail(s) sit idle (DESIGN.md \u{a7}9); try \
                     `--rail-policy affinity`, which binds rails to sender positions \
                     instead of pair parity",
                    level_label(&net, level),
                    rails - 1
                );
                warned = true;
            }
        }
        if warned {
            println!();
        }
    }

    println!("top {} hot links (by busy time):", opts.top_k);
    for (rank, usage) in probe.hot_links(opts.top_k).iter().enumerate() {
        println!(
            "  {:>2}. {}[{}].{}.rail{}  busy {:>5.1}%  {:>10.1} MB  avg {:>8.3} GB/s",
            rank + 1,
            level_label(&net, usage.level),
            usage.instance,
            if usage.up { "up" } else { "down" },
            usage.rail,
            100.0 * usage.busy_fraction(makespan),
            usage.bytes / 1e6,
            usage.bytes / usage.busy / 1e9
        );
    }
    println!();

    let gaps = if opts.fluid {
        bound_gap_fluid(&net, &schedules, &probe)
    } else {
        bound_gap_lockstep(&net, &merged, &probe)
    };
    print_bound_gaps(&net, &gaps);

    if let Some(path) = &opts.csv_out {
        std::fs::write(path, congestion_csv(&net, &probe)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nwrote rate segments to {path}");
    }
    if let Some(path) = &opts.chrome_out {
        let counters = congestion_counters(&net, &probe, opts.top_k);
        let label = format!("{}:{}", opts.collective, opts.machine);
        let trace = if opts.fluid {
            let timeline = FluidSim::new(&net).run_timeline(&schedules);
            fluid_trace(&machine, &timeline, &label)
        } else {
            let timeline = net.schedule_timeline(&merged).expect("canonical schedule");
            concurrent_schedule_trace(&machine, &timeline, &label, &groups)
        };
        std::fs::write(path, chrome_trace_json_with_congestion(&trace, &counters)).unwrap_or_else(
            |e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            },
        );
        println!("wrote Chrome trace with congestion counters to {path}");
    }
}
