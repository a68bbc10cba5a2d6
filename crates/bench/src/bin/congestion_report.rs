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

use mre_bench::cli::{self, Setup};
use mre_core::Hierarchy;
use mre_simnet::{BoundGap, FluidSim, RailPolicy, Schedule};
use mre_trace::{
    chrome_trace_json_with_congestion, concurrent_schedule_trace, congestion_counters,
    congestion_csv, fluid_trace,
};

const USAGE: &str = "congestion_report [--machine hydra|lumi] [--nodes N] \
                     [--collective alltoall|allreduce|allgather] [--order SPEC] \
                     [--subcomm N] [--bytes N] [--nics N] \
                     [--rail-policy round-robin|src-hash|affinity] [--fluid] \
                     [--top-k K] [--csv FILE.csv] [--chrome FILE.json]";

struct Options {
    setup: Setup,
    fluid: bool,
    top_k: usize,
    csv_out: Option<String>,
    chrome_out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        setup: Setup::default(),
        fluid: false,
        top_k: 8,
        csv_out: None,
        chrome_out: None,
    };
    cli::parse_flags(std::env::args().skip(1), Some(USAGE), |flag, args| {
        match flag {
            "--fluid" => opts.fluid = true,
            "--top-k" => opts.top_k = args.number(flag)?,
            "--csv" => opts.csv_out = Some(args.value(flag)?),
            "--chrome" => opts.chrome_out = Some(args.value(flag)?),
            // Every shared flag, --nics and --rail-policy included.
            _ => return opts.setup.flag(flag, args),
        }
        Ok(true)
    })?;
    Ok(opts)
}

fn print_bound_gaps(machine: &Hierarchy, gaps: &[BoundGap]) {
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
            machine.name(g.level),
            g.bound * 1e6,
            g.actual * 1e6,
            gap * 1e6,
            pct
        );
    }
}

fn main() {
    cli::or_exit(run(), 2)
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let Setup { nics, policy, .. } = opts.setup;
    let net = opts.setup.network()?;
    let machine = net.hierarchy();
    // Every subcommunicator runs concurrently; with --nics > 1 each
    // communicator's rounds are rail-striped exactly as the cost engines
    // assume.
    let one = opts.setup.one_order(&net)?;
    let schedules = &one.schedules;
    let merged = Schedule::lockstep(schedules);
    let (probe, makespan, gaps) = cli::probed_run(&net, schedules, opts.fluid);

    println!("{}", one.header());
    if nics > 1 {
        println!("multi-rail fabric: {nics} node rails, {policy} assignment");
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
            machine.name(row.level),
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
    if policy == RailPolicy::RoundRobin {
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
                    machine.name(level),
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
            machine.name(usage.level),
            usage.instance,
            if usage.up { "up" } else { "down" },
            usage.rail,
            100.0 * usage.busy_fraction(makespan),
            usage.bytes / 1e6,
            usage.bytes / usage.busy / 1e9
        );
    }
    println!();

    print_bound_gaps(machine, &gaps);

    if let Some(path) = &opts.csv_out {
        cli::write_or_exit(path, congestion_csv(&net, &probe));
        println!("\nwrote rate segments to {path}");
    }
    if let Some(path) = &opts.chrome_out {
        let counters = congestion_counters(&net, &probe, opts.top_k);
        let label = format!("{}:{}", opts.setup.collective, opts.setup.machine);
        let trace = if opts.fluid {
            let timeline = FluidSim::new(&net).run_timeline(schedules);
            fluid_trace(machine, &timeline, &label)
        } else {
            let timeline = net.schedule_timeline(&merged).expect("canonical schedule");
            concurrent_schedule_trace(machine, &timeline, &label, &one.groups)
        };
        cli::write_or_exit(path, chrome_trace_json_with_congestion(&trace, &counters));
        println!("wrote Chrome trace with congestion counters to {path}");
    }
    Ok(())
}
