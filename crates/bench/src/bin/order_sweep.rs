//! General order-exploration tool: for any machine hierarchy, collective,
//! subcommunicator size and message size, evaluate every
//! mapping-equivalence-class representative under the simulator and print
//! a ranked table — the "which order should I use?" workflow the paper's
//! §5 sketches.
//!
//! ```text
//! order_sweep [HIERARCHY] [SUBCOMM] [COLLECTIVE] [SIZE_BYTES] [--pruned] [--fluid]
//!             [--nics N] [--rail-policy round-robin|src-hash|affinity]
//!             [--bound aggregate|per-rail] [--congestion] [--threads N]
//! order_sweep 16,2,2,8 16 alltoall 4194304
//! order_sweep 16,2,2,8 16 alltoall 4194304 --nics 2 --fluid
//! ```
//!
//! `--threads N` pins the [`mre_core::par`] worker-pool width for this
//! run; it takes precedence over the `MRE_PAR_THREADS` environment
//! variable, which in turn overrides the autodetected core count (see the
//! README's "Thread-count precedence").
//!
//! With `--pruned` the exhaustive evaluation is replaced by the
//! parallel best-first branch-and-bound search
//! ([`mre_core::order_search::rank_orders_pruned_ladder`]): each
//! candidate's schedules are built exactly once, the cheap *aggregate*
//! capacity bound orders the frontier, the per-rail *histogram* bound
//! ([`mre_simnet::schedule_lower_bound`]) lazily re-checks the
//! survivors, and only candidates both rungs admit pay the full
//! contention solve (memoized in a [`mre_simnet::SharedCostCache`]).
//! The recommended order is byte-identical to the exhaustive one (both
//! bounds are admissible); the table then lists only the candidates
//! that were actually costed. `--bound aggregate` disables the per-rail
//! rung — on a multi-rail fabric it prunes strictly less (the per-rail
//! bound dominates; DESIGN.md §7g), which `ci.sh` asserts.
//!
//! With `--fluid` the contended duration comes from the barrier-free
//! fluid simulator ([`mre_simnet::fluid_time`]) instead of the lockstep
//! round model — subcommunicators progress independently, as real MPI
//! lets them. Combined with `--pruned`, candidates are bounded with the
//! admissible [`mre_simnet::fluid_lower_bound`]; the recommended order
//! is again byte-identical to the exhaustive fluid sweep.
//!
//! With `--nics N` (N > 1) the machine gets N *discrete* node rails at
//! the per-NIC bandwidth instead of one aggregate pipe — the paper's
//! Fig. 8 second-NIC ablation — and `--rail-policy` picks how crossing
//! messages are assigned to rails (default round-robin). Works in all
//! three modes; `--nics 1` is byte-identical to omitting the flag.
//!
//! With `--congestion` the sweep ends with a congestion-observatory
//! comparison of the winner against the runner-up: both orders are
//! re-run with a [`mre_simnet::CongestionProbe`] attached and their
//! per-level bound gaps and rail-imbalance indices printed side by side
//! — *why* the winner wins, in link-capacity terms. Under `--pruned` the
//! second order is the *best costed alternative*: which candidates get
//! costed depends on the worker count, and when the ladder pruned every
//! other class the run says so instead of comparing.
//!
//! `HIERARCHY` must be one of the calibrated machines (a Hydra-shaped
//! `nodes,2,2,8` or a LUMI-shaped `nodes,2,4,2,8`); `COLLECTIVE` is
//! `alltoall`, `allreduce` or `allgather`.

use mre_core::order_search::{rank_orders_by_par, rank_orders_pruned_ladder, spreadness};
use mre_core::subcomm::ColorScheme;
use mre_core::{Hierarchy, Permutation};
use mre_simnet::presets::{hydra_network, lumi_network};
use mre_simnet::{
    bound_gap_fluid, bound_gap_lockstep, fluid_lower_bound, fluid_lower_bound_aggregate,
    fluid_time, schedule_lower_bound, schedule_lower_bound_aggregate, BoundGap, CongestionProbe,
    FluidSim, NetworkModel, RailPolicy, Schedule, SharedCostCache,
};
use mre_slurm::Distribution;
use mre_workloads::microbench::{Collective, Microbench};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn network_for(machine: &Hierarchy, nics: usize, policy: RailPolicy) -> Option<NetworkModel> {
    let base = match machine.levels() {
        [nodes, 2, 2, 8] => hydra_network(*nodes, 1),
        [nodes, 2, 4, 2, 8] => lumi_network(*nodes),
        _ => return None,
    };
    Some(if nics > 1 {
        base.with_node_rails(nics, policy)
    } else {
        base
    })
}

/// Extracts `--flag VALUE` from `args`, parsing with `parse`.
fn take_value_flag<T>(
    args: &mut Vec<String>,
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(1);
    }
    let Some(v) = parse(&args[i + 1]) else {
        eprintln!("bad {flag} value {:?}", args[i + 1]);
        std::process::exit(1);
    };
    args.drain(i..=i + 1);
    Some(v)
}

/// Positional argument `i` parsed as `T`, or `default` when it is absent;
/// exits with a message when it does not parse.
fn positional<T: std::str::FromStr>(args: &[String], i: usize, name: &str, default: T) -> T {
    let Some(text) = args.get(i) else {
        return default;
    };
    text.parse().unwrap_or_else(|_| {
        eprintln!("bad {name} {text:?}: expected a non-negative integer");
        std::process::exit(1);
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let pruned_mode = args.iter().any(|a| a == "--pruned");
    args.retain(|a| a != "--pruned");
    let fluid_mode = args.iter().any(|a| a == "--fluid");
    args.retain(|a| a != "--fluid");
    let congestion_mode = args.iter().any(|a| a == "--congestion");
    args.retain(|a| a != "--congestion");
    let nics = take_value_flag(&mut args, "--nics", |v| {
        v.parse::<usize>().ok().filter(|&n| n >= 1)
    })
    .unwrap_or(1);
    let policy = take_value_flag(&mut args, "--rail-policy", RailPolicy::parse).unwrap_or_default();
    // Explicit worker-pool width: --threads beats MRE_PAR_THREADS beats
    // the autodetected core count. Must run before the pool's first use.
    if let Some(n) = take_value_flag(&mut args, "--threads", |v| {
        v.parse::<usize>().ok().filter(|&n| n >= 1)
    }) {
        mre_core::par::set_threads(n);
    }
    // Which tight rung the pruned search runs: the per-rail histogram
    // bound (default; dominates on railed fabrics) or none — leaving the
    // cheap aggregate rung alone, for before/after pruning comparisons.
    let per_rail_bound = take_value_flag(&mut args, "--bound", |v| match v {
        "aggregate" => Some(false),
        "per-rail" => Some(true),
        _ => None,
    })
    .unwrap_or(true);
    // Whatever is left must be positional: a misspelt flag (`--policy`
    // for `--rail-policy`, `--flud`) must not silently run the defaults.
    if let Some(flag) = args[1..].iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag {flag:?}");
        std::process::exit(1);
    }
    if args.len() > 5 {
        eprintln!(
            "unexpected argument {:?}: at most HIERARCHY SUBCOMM COLLECTIVE SIZE_BYTES",
            args[5]
        );
        std::process::exit(1);
    }
    let hierarchy_text = args.get(1).map(String::as_str).unwrap_or("16,2,2,8");
    let subcomm = positional(&args, 2, "subcommunicator size", 16usize);
    let collective_name = args.get(3).map(String::as_str).unwrap_or("alltoall");
    let size = positional(&args, 4, "message size", 4u64 << 20);

    let machine = match Hierarchy::parse(hierarchy_text) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bad hierarchy {hierarchy_text:?}: {e}");
            std::process::exit(1);
        }
    };
    let Some(net) = network_for(&machine, nics, policy) else {
        eprintln!(
            "no calibrated network for {machine}; use nodes,2,2,8 (Hydra) or nodes,2,4,2,8 (LUMI)"
        );
        std::process::exit(1);
    };
    let Some(collective) = Collective::parse(collective_name) else {
        eprintln!(
            "unknown collective {collective_name:?} ({})",
            Collective::NAMES
        );
        std::process::exit(1);
    };
    if subcomm == 0 || machine.size() % subcomm != 0 {
        eprintln!(
            "subcommunicator size {subcomm} must divide {}",
            machine.size()
        );
        std::process::exit(1);
    }

    println!(
        "machine {machine} ({} cores), {collective_name}, {} comms x {subcomm} procs, {} bytes",
        machine.size(),
        machine.size() / subcomm,
        size
    );
    if nics > 1 {
        println!("multi-rail fabric: {nics} node rails, {policy} assignment");
    }
    println!(
        "(one representative per mapping-equivalence class, ranked by {} duration)\n",
        if fluid_mode {
            "fluid contended"
        } else {
            "contended"
        }
    );
    let bench_for = |sigma: &Permutation| Microbench {
        machine: machine.clone(),
        order: sigma.clone(),
        subcomm_size: subcomm,
        collective,
        total_bytes: size,
    };
    let schedules_for = |sigma: &Permutation| -> Vec<Schedule> {
        bench_for(sigma)
            .layout_schedules(ColorScheme::Quotient, nics)
            .expect("valid configuration")
            .1
    };
    let cost = |sigma: &Permutation| {
        if fluid_mode {
            fluid_time(&net, &schedules_for(sigma))
        } else {
            bench_for(sigma)
                .run(&net)
                .expect("valid configuration")
                .simultaneous_duration
        }
    };
    let (ranked, prune_stats) = if pruned_mode {
        // Per candidate: build the schedules once, bound them with the
        // cheap aggregate rung (which orders the frontier), re-check the
        // survivors with the per-rail histogram rung, and pay the full
        // contention solve only for candidates both rungs admit. Both
        // bounds are admissible lower bounds on the contended duration —
        // under the lockstep model, physics bounds of the merged schedule
        // all subcommunicators execute concurrently; under the fluid
        // model, the barrier-free bounds (max of per-job bounds and the
        // pooled per-level byte bound).
        struct Prepared {
            all: Vec<Schedule>,
            merged: Schedule,
        }
        // Full costs are memoized under (model fingerprint, pattern,
        // payload) so the --congestion re-probes and repeated patterns
        // never re-solve contention.
        let cache = SharedCostCache::new();
        // The ladder-vs-cost time split: wall time in the bound rungs
        // (schedule construction + both bounds) vs in full contention
        // solves, summed across workers.
        let bound_ns = AtomicU64::new(0);
        let cost_ns = AtomicU64::new(0);
        let fluid_key = |all: &[Schedule]| -> u64 {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            for s in all {
                s.pattern_fingerprint().hash(&mut h);
            }
            h.finish()
        };
        let result = rank_orders_pruned_ladder(
            &machine,
            subcomm,
            |sigma| {
                timed(&bound_ns, || {
                    let all = schedules_for(sigma);
                    let merged = if fluid_mode {
                        Schedule::new() // the fluid rungs work on the job set
                    } else {
                        Schedule::lockstep(&all)
                    };
                    Prepared { all, merged }
                })
            },
            |_, p| {
                timed(&bound_ns, || {
                    if fluid_mode {
                        fluid_lower_bound_aggregate(&net, &p.all)
                    } else {
                        schedule_lower_bound_aggregate(&net, &p.merged)
                    }
                })
            },
            |_, p| {
                timed(&bound_ns, || {
                    if !per_rail_bound {
                        // No second rung: an always-true lower bound that
                        // can never prune, leaving the aggregate rung alone.
                        f64::NEG_INFINITY
                    } else if fluid_mode {
                        fluid_lower_bound(&net, &p.all)
                    } else {
                        schedule_lower_bound(&net, &p.merged)
                    }
                })
            },
            |_, p| {
                timed(&cost_ns, || {
                    if fluid_mode {
                        cache.time_keyed(&net, fluid_key(&p.all), size, || fluid_time(&net, &p.all))
                    } else {
                        // Round-interned costing: rounds shared between
                        // candidate patterns (and across repeated
                        // patterns) resolve from the per-round memo
                        // without a new contention solve — bit-identical
                        // to schedule_time.
                        cache.schedule_time_rounds(&net, &p.merged, size)
                    }
                })
            },
        )
        .expect("valid configuration");
        println!(
            "branch-and-bound: {} costed, {} pruned ({} by the per-rail rung) of {} candidates",
            result.stats.evaluated,
            result.stats.pruned,
            result.stats.tight_pruned,
            result.stats.candidates()
        );
        let cs = cache.cache_stats();
        println!(
            "cost cache: simnet.cost_cache.pattern_hits={} simnet.cost_cache.round_hits={} \
             simnet.cost_cache.round_misses={}",
            cs.pattern_hits, cs.round_hits, cs.misses
        );
        let (bound_ns, cost_ns) = (bound_ns.into_inner(), cost_ns.into_inner());
        println!(
            "time split: bound_ns={bound_ns} cost_ns={cost_ns} (bound share {:.1}%)\n",
            100.0 * bound_ns as f64 / (bound_ns + cost_ns).max(1) as f64,
        );
        (result.ranked, Some(result.stats))
    } else {
        let ranked = rank_orders_by_par(&machine, subcomm, cost).expect("valid configuration");
        (ranked, None)
    };

    println!(
        "{:<44} {:>10} {:>12}           slurm",
        "order (ring cost - % pairs/level)", "MB/s", "spreadness"
    );
    for (c, duration) in &ranked {
        let s = spreadness(&machine, &c.order, subcomm).expect("valid order");
        let slurm = Distribution::from_order(&machine, &c.order)
            .map(|d| d.spelling())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<44} {:>10.1} {:>12.3}           {}",
            c.legend(),
            size as f64 / duration / 1e6,
            s,
            slurm
        );
    }
    let best = &ranked.first().expect("non-empty order space").0;
    println!(
        "\nrecommended order: [{}] — apply with world.split(0, reordered_rank) or a rankfile",
        best.order
    );
    if congestion_mode {
        // A pruned ranking lists only the costed candidates, and which ones
        // get costed depends on the worker count: its second row is the
        // best costed alternative, not necessarily the runner-up.
        let (rival, column) = match prune_stats {
            Some(_) => ("best costed alternative", "alt"),
            None => ("runner-up", "r-up"),
        };
        match (ranked.get(1), prune_stats) {
            (Some((second, _)), _) => print_congestion_comparison(
                &net,
                &best.order,
                &second.order,
                (rival, column),
                &schedules_for,
                fluid_mode,
            ),
            (None, Some(stats)) if stats.pruned > 0 => println!(
                "\ncongestion: the bound ladder pruned {} of {} classes, so the runner-up \
                 was not costed — nothing to compare",
                stats.pruned,
                stats.candidates()
            ),
            (None, _) => {
                println!("\ncongestion: only one equivalence class — nothing to compare")
            }
        }
    }
}

/// Runs `f`, adding its wall time to `ns`.
fn timed<R>(ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    r
}

/// Probes one order's concurrent run and returns its per-level bound gaps
/// plus rail-imbalance indices.
fn probe_order(
    net: &NetworkModel,
    schedules: &[Schedule],
    fluid_mode: bool,
) -> (Vec<BoundGap>, Vec<f64>) {
    let mut probe = CongestionProbe::new(net);
    let gaps = if fluid_mode {
        FluidSim::new(net).run_probed(schedules, &mut probe);
        bound_gap_fluid(net, schedules, &probe)
    } else {
        let merged = Schedule::lockstep(schedules);
        net.schedule_time_probed(&merged, &mut probe);
        bound_gap_lockstep(net, &merged, &probe)
    };
    let imbalance = (0..net.hierarchy().depth())
        .map(|level| probe.rail_imbalance(level))
        .collect();
    (gaps, imbalance)
}

/// Re-runs the winner and another order with a congestion probe attached
/// and prints their per-level bound gaps and rail imbalance side by side —
/// the link-capacity explanation of the ranking. `(rival, column)` name
/// the other order in the heading and in the column headings.
fn print_congestion_comparison(
    net: &NetworkModel,
    winner: &Permutation,
    other: &Permutation,
    (rival, column): (&str, &str),
    schedules_for: &impl Fn(&Permutation) -> Vec<Schedule>,
    fluid_mode: bool,
) {
    let (w_gaps, w_imb) = probe_order(net, &schedules_for(winner), fluid_mode);
    let (r_gaps, r_imb) = probe_order(net, &schedules_for(other), fluid_mode);
    println!(
        "\ncongestion: winner [{winner}] vs {rival} [{other}] \
         (per-level bound gap, rail imbalance)"
    );
    println!(
        "  {:<10} {:>13} {:>13} {:>12} {:>12}",
        "level",
        "winner gap%",
        format!("{column} gap%"),
        "winner imb",
        format!("{column} imb")
    );
    let names = net.hierarchy().names();
    for level in 0..net.hierarchy().depth() {
        let pct = |g: &BoundGap| {
            if g.actual > 0.0 {
                100.0 * (g.gap() / g.actual).max(0.0)
            } else {
                0.0
            }
        };
        println!(
            "  {:<10} {:>12.1}% {:>12.1}% {:>12.3} {:>12.3}",
            names
                .get(level)
                .cloned()
                .unwrap_or_else(|| format!("level-{level}")),
            pct(&w_gaps[level]),
            pct(&r_gaps[level]),
            w_imb[level],
            r_imb[level],
        );
    }
}
