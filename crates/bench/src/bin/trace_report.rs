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

use mre_bench::cli::{self, Setup};
use mre_mpi::AlgorithmSelector;
use mre_simnet::{Schedule, SharedCostCache};
use mre_trace::{
    chrome_trace_json, concurrent_schedule_trace, critical_path, csv, level_occupancy,
    rank_activity,
};

const USAGE: &str = "trace_report [--machine hydra|lumi] [--nodes N] \
                     [--collective alltoall|allreduce|allgather] [--order SPEC] \
                     [--subcomm N] [--bytes N] [--autotune] [--fluid] [--out FILE.json] \
                     [--csv FILE.csv]";

struct Options {
    setup: Setup,
    autotune: bool,
    fluid: bool,
    out: Option<String>,
    csv_out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        setup: Setup::default(),
        autotune: false,
        fluid: false,
        out: None,
        csv_out: None,
    };
    cli::parse_flags(std::env::args().skip(1), Some(USAGE), |flag, args| {
        match flag {
            "--machine" | "--nodes" | "--collective" | "--order" | "--subcomm" | "--bytes" => {
                return opts.setup.flag(flag, args)
            }
            "--autotune" => opts.autotune = true,
            "--fluid" => {
                // Fluid autotuning is a refinement of --autotune.
                opts.autotune = true;
                opts.fluid = true;
            }
            "--out" => opts.out = Some(args.value(flag)?),
            "--csv" => opts.csv_out = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(opts)
}

fn main() {
    cli::or_exit(run(), 2)
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let bytes = opts.setup.bytes;
    if opts.autotune && bytes >= AlgorithmSelector::MAX_TOTAL_BYTES {
        return Err(format!(
            "bad --bytes {bytes}: autotuning needs a payload below 2^61 bytes"
        ));
    }
    let net = opts.setup.network()?;
    let machine = net.hierarchy();
    let mut one = opts.setup.one_order(&net)?;
    let (layout, collective) = (&one.layout, one.bench.collective);
    let nics = net.node_rails();
    // Every subcommunicator runs the collective concurrently: merge the
    // per-communicator schedules round-for-round so they contend for the
    // shared links. With --autotune the size-based Auto policy is replaced
    // by the per-subcommunicator selector, which picks whichever algorithm
    // minimizes the costed schedule on this machine.
    if opts.autotune {
        let cache = SharedCostCache::new();
        let selector = AlgorithmSelector::new(&net, &cache);
        let comms = layout.comms();
        let barrier_choices = selector.select_layout(collective, comms, bytes);
        let choices: Vec<_> = if opts.fluid {
            // Re-select under the barrier-free fluid engine: candidate
            // schedules are costed with FluidSim instead of the lockstep
            // round model, so intra-communicator pipelining counts.
            comms
                .iter()
                .map(|members| selector.select_fluid(collective, members, bytes))
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
            one.schedules[c] = choice.alg.schedule(&comms[c], bytes, nics).canonicalized();
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
    let schedule = Schedule::lockstep(&one.schedules);
    let timeline = net
        .schedule_timeline(&schedule)
        .expect("canonical schedule");
    let label = format!("{}:{}", opts.setup.collective, opts.setup.machine);

    println!("{}", one.header());
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

    let cp = critical_path(machine, &timeline);
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

    let occ = level_occupancy(machine, &timeline);
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

    let trace = concurrent_schedule_trace(machine, &timeline, &label, &one.groups);
    if let Some(path) = &opts.out {
        cli::write_or_exit(path, chrome_trace_json(&trace));
        println!("\nwrote Chrome trace_event JSON to {path} (load in Perfetto)");
    }
    if let Some(path) = &opts.csv_out {
        cli::write_or_exit(path, csv(&trace));
        println!("wrote CSV to {path}");
    }
    Ok(())
}
