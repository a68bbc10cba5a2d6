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

use mre_bench::cli;
use mre_core::order_search::{rank_orders_by_par, rank_orders_pruned_ladder, spreadness};
use mre_core::subcomm::ColorScheme;
use mre_core::{Hierarchy, Permutation};
use mre_simnet::{
    fluid_lower_bound, fluid_lower_bound_aggregate, fluid_time, schedule_lower_bound,
    schedule_lower_bound_aggregate, BoundGap, JobSetEngine, NetworkModel, RailPolicy, Schedule,
    SharedCostCache,
};
use mre_slurm::Distribution;
use mre_workloads::microbench::Microbench;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn main() {
    cli::or_exit(run(), 1)
}

fn run() -> Result<(), String> {
    let (mut pruned_mode, mut fluid_mode, mut congestion_mode) = (false, false, false);
    let (mut nics, mut policy) = (1, RailPolicy::default());
    // Which tight rung the pruned search runs: the per-rail histogram
    // bound (default; dominates on railed fabrics) or none — leaving the
    // cheap aggregate rung alone, for before/after pruning comparisons.
    let mut per_rail_bound = true;
    let mut positionals: Vec<String> = Vec::new();
    cli::parse_flags(std::env::args().skip(1), None, |flag, rest| {
        match flag {
            "--pruned" => pruned_mode = true,
            "--fluid" => fluid_mode = true,
            "--congestion" => congestion_mode = true,
            "--nics" => nics = rest.count(flag)?,
            "--rail-policy" => policy = cli::rail_policy(&rest.value(flag)?)?,
            // Explicit worker-pool width: --threads beats MRE_PAR_THREADS
            // beats the autodetected core count. Must run before the pool's
            // first use.
            "--threads" => mre_core::par::set_threads(rest.count(flag)?),
            "--bound" => {
                per_rail_bound = match rest.value(flag)?.as_str() {
                    "aggregate" => false,
                    "per-rail" => true,
                    other => return Err(format!("bad --bound value {other:?}")),
                }
            }
            // A misspelt flag (`--policy` for `--rail-policy`, `--flud`)
            // must not silently run the defaults.
            _ if flag.starts_with("--") => return Ok(false),
            _ => positionals.push(flag.to_string()),
        }
        Ok(true)
    })?;
    if let Some(extra) = positionals.get(4) {
        return Err(format!(
            "unexpected argument {extra:?}: at most HIERARCHY SUBCOMM COLLECTIVE SIZE_BYTES"
        ));
    }
    let hierarchy_text = positionals
        .first()
        .map(String::as_str)
        .unwrap_or("16,2,2,8");
    let subcomm = positionals
        .get(1)
        .map_or(Ok(16), |t| cli::number("subcommunicator size", t))?;
    let collective_name = positionals.get(2).map(String::as_str).unwrap_or("alltoall");
    let size = positionals
        .get(3)
        .map_or(Ok(4 << 20), |t| cli::number("message size", t))?;

    let machine = Hierarchy::parse(hierarchy_text)
        .map_err(|e| format!("bad hierarchy {hierarchy_text:?}: {e}"))?;
    let net = cli::shaped_network(&machine, nics, policy)?;
    let collective = cli::collective(collective_name)?;
    cli::check_subcomm(&machine, subcomm)?;

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
    let schedules_for = |sigma: &Permutation| -> Vec<Schedule> {
        let bench = Microbench {
            machine: machine.clone(),
            order: sigma.clone(),
            subcomm_size: subcomm,
            collective,
            total_bytes: size,
        };
        bench
            .layout_schedules(ColorScheme::Quotient, nics)
            .expect("valid configuration")
            .1
    };
    // Per candidate, both modes build the schedules once and cost the
    // concurrent run of all subcommunicators through one memo. The pruned
    // mode bounds the prepared schedules first: the cheap aggregate rung
    // (which orders the frontier), then the per-rail histogram rung, and
    // pays the full contention solve only for candidates both rungs
    // admit. Both bounds are admissible lower bounds on the contended
    // duration — under the lockstep model, physics bounds of the merged
    // schedule all subcommunicators execute concurrently; under the fluid
    // model, the barrier-free bounds (max of per-job bounds and the pooled
    // per-level byte bound).
    struct Prepared {
        all: Vec<Schedule>,
        merged: Schedule,
    }
    let prepare = |sigma: &Permutation| {
        let all = schedules_for(sigma);
        let merged = if fluid_mode {
            Schedule::new() // the fluid engine and rungs work on the job set
        } else {
            Schedule::lockstep(&all)
        };
        Prepared { all, merged }
    };
    // Full costs are memoized under (model fingerprint, pattern, payload)
    // so repeated patterns never re-solve contention.
    let cache = SharedCostCache::new();
    let cost = |p: &Prepared| {
        if fluid_mode {
            let key = Schedule::job_set_key(JobSetEngine::Fluid, &p.all);
            cache.time_keyed(&net, key, size, || fluid_time(&net, &p.all))
        } else {
            // Round-interned costing: rounds shared between candidate
            // patterns (and across repeated patterns) resolve from the
            // per-round memo without a new contention solve — bit-identical
            // to schedule_time.
            cache.schedule_time_rounds(&net, &p.merged, size)
        }
    };
    let (ranked, prune_stats) = if pruned_mode {
        // The ladder-vs-cost time split: wall time in the bound rungs
        // (schedule construction + both bounds) vs in full contention
        // solves, summed across workers.
        let bound_ns = AtomicU64::new(0);
        let cost_ns = AtomicU64::new(0);
        let result = rank_orders_pruned_ladder(
            &machine,
            subcomm,
            |sigma| timed(&bound_ns, || prepare(sigma)),
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
            |_, p| timed(&cost_ns, || cost(p)),
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
        let ranked = rank_orders_by_par(&machine, subcomm, |sigma| cost(&prepare(sigma)))
            .expect("valid configuration");
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
    Ok(())
}

/// Runs `f`, adding its wall time to `ns`.
fn timed<R>(ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    r
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
    let probe = |sigma| cli::probed_run(net, &schedules_for(sigma), fluid_mode);
    let ((w_probe, _, w_gaps), (r_probe, _, r_gaps)) = (probe(winner), probe(other));
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
            net.hierarchy().name(level),
            pct(&w_gaps[level]),
            pct(&r_gaps[level]),
            w_probe.rail_imbalance(level),
            r_probe.rail_imbalance(level),
        );
    }
}
