//! The five workloads: seeded query generators, the query runners the timed
//! phase measures, and the exhaustive oracles that check every answer.
//!
//! Each generator first lays out a fixed *skeleton* of query shapes
//! (machine × collective × subcommunicator size × payload bin); the seed
//! then draws the parts that change the inputs but not the shape's cost
//! structure (the payload within its power-of-two bin, the payload axis'
//! reference point, the tensor's mode sizes and rank) and the execution
//! order. Every seed therefore runs the same mix of shapes, which keeps
//! medians comparable across seeds, while the inputs the library sees
//! still change with the seed. Power-of-two bins also keep each `Auto`
//! algorithm choice fixed inside a bin: its thresholds sit on bin edges.

use crate::span::Ctx;
use mre_core::order_search::{
    rank_orders_by_par, rank_orders_pruned_ladder, representatives, sweep, sweep_pruned_axis,
    SweepSpec,
};
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{par, Hierarchy, Permutation};
use mre_mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mre_rng::SmallRng;
use mre_simnet::presets::{hydra_network, hydra_network_rails, lumi_network, lumi_node_network};
use mre_simnet::{
    fluid_lower_bound, fluid_lower_bound_aggregate, fluid_time, fluid_time_with_stats,
    schedule_lower_bound, schedule_lower_bound_aggregate, NetworkModel, RailPolicy, Schedule,
    SharedCostCache, SymbolicScheduleCost,
};
use mre_workloads::microbench::{Collective, Microbench};
use mre_workloads::splatt::{estimate_cpd_time, estimate_cpd_time_cached, SplattConfig};

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 5] = [
    "recommend",
    "recommend_fluid",
    "deep_hierarchy",
    "payload_grid",
    "splatt_rails",
];

/// Seed of the separate stream the set-up warm-up query is drawn from. It
/// does not depend on `--seed`, so set-up does the same work for every seed.
const WARMUP_SEED: u64 = 0x5EED_0BAD_CAFE;

/// The collectives of a recommendation, as `order_sweep` spells them.
const AUTO_COLLECTIVES: [Collective; 3] = [
    Collective::Alltoall(AlltoallAlg::Auto),
    Collective::Allreduce(AllreduceAlg::Auto),
    Collective::Allgather(AllgatherAlg::Auto),
];

/// `payload_grid`: subcommunicator sizes and the number of payload axis
/// points; the axis is `reference · 2^i`, so every point is an exact
/// multiple of the symbolic reference payload.
const GRID_SIZES: [usize; 2] = [16, 64];
const GRID_POINTS: u32 = 8;

/// `splatt_rails`: the MTTKRP flop rate `fig8_rails` uses.
const SPLATT_FLOP_RATE: f64 = 15.0e9;

/// One costed machine: its hierarchy, network model and node rail count.
pub struct Machine {
    pub label: String,
    pub h: Hierarchy,
    pub net: NetworkModel,
    pub nics: usize,
}

fn hydra(nodes: usize, nics: usize, policy: RailPolicy) -> Machine {
    let (net, label) = if nics == 1 {
        (hydra_network(nodes, 1), format!("hydra{nodes}"))
    } else {
        (
            hydra_network_rails(nodes, nics, policy),
            format!("hydra{nodes}x{nics}{}", policy.label()),
        )
    };
    machine(label, net, nics)
}

fn machine(label: String, net: NetworkModel, nics: usize) -> Machine {
    Machine {
        label,
        h: net.hierarchy().clone(),
        net,
        nics,
    }
}

/// Hydra at `nodes` nodes with 1 rail, then 2 and 4 rails under every
/// rail policy.
fn hydra_rail_grid(nodes: usize) -> Vec<Machine> {
    let mut machines = vec![hydra(nodes, 1, RailPolicy::RoundRobin)];
    for nics in [2, 4] {
        for policy in RailPolicy::ALL {
            machines.push(hydra(nodes, nics, policy));
        }
    }
    machines
}

/// `base` with levels split by `(level, factor)` in turn (the paper's fake
/// levels); each new inner sub-level inherits its parent level's link
/// parameters.
fn split_machine(label: &str, base: NetworkModel, splits: &[(usize, usize)]) -> Machine {
    let mut h = base.hierarchy().clone();
    let mut links = base.links().to_vec();
    for &(level, factor) in splits {
        h = h
            .split_level(level, factor)
            .expect("static split of a preset level");
        links.insert(level + 1, links[level]);
    }
    let net = NetworkModel::new(h, links, base.local_copy_bandwidth());
    machine(format!("{label}{}", net.hierarchy()), net, 1)
}

/// Which engine costs a recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Lockstep,
    Fluid,
}

/// One query of a workload.
pub enum Query {
    /// A pruned order recommendation, as `order_sweep --pruned` computes it.
    Recommend {
        machine: usize,
        collective: Collective,
        s: usize,
        payload: u64,
        engine: Engine,
    },
    /// A pruned sweep over [`GRID_SIZES`] × the payload axis
    /// `reference · 2^i` on the symbolic payload engine.
    Grid {
        machine: usize,
        collective: Collective,
        reference: u64,
    },
    /// The Fig. 8 CPD ranking over all 24 orders.
    Splatt { machine: usize, cfg: SplattConfig },
}

impl Query {
    /// Index of the machine the query runs on.
    pub fn machine(&self) -> usize {
        match *self {
            Query::Recommend { machine, .. }
            | Query::Grid { machine, .. }
            | Query::Splatt { machine, .. } => machine,
        }
    }
}

/// A query's answer: `(label, cost bits)` pairs — the recommended order, or
/// one winner per sweep cell, or every order's CPD time plus the winner.
pub type Answer = Vec<(String, u64)>;

pub struct Workload {
    pub machines: Vec<Machine>,
    pub queries: Vec<Query>,
    pub warmup: Query,
}

/// Builds workload `name`'s machines, its query list for `seed` and its
/// warm-up query.
pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
    let (machines, make): (Vec<Machine>, QueryMaker) = match name {
        "recommend" => (recommend_machines(Engine::Lockstep), |m, rng| {
            recommend_queries(m, rng, Engine::Lockstep)
        }),
        "recommend_fluid" => (recommend_machines(Engine::Fluid), |m, rng| {
            recommend_queries(m, rng, Engine::Fluid)
        }),
        "deep_hierarchy" => (deep_machines(), deep_queries),
        "payload_grid" => (rail_machines(&[8, 16]), grid_queries),
        "splatt_rails" => (rail_machines(&[2, 3, 4]), splatt_queries),
        other => {
            return Err(format!(
                "unknown workload {other:?} (one of {})",
                NAMES.join(", ")
            ))
        }
    };
    let queries = make(&machines, &mut SmallRng::seed_from_u64(seed));
    // The warm-up is the warm-up stream's first query on the largest
    // machine: it touches the biggest data structures, and at 20–130 ms it
    // keeps set-up time well above timer noise.
    let mut warmups = make(&machines, &mut SmallRng::seed_from_u64(WARMUP_SEED));
    let largest = (0..warmups.len())
        .max_by_key(|&i| (machines[warmups[i].machine()].h.size(), usize::MAX - i))
        .expect("every workload has queries");
    let warmup = warmups.swap_remove(largest);
    Ok(Workload {
        machines,
        queries,
        warmup,
    })
}

type QueryMaker = fn(&[Machine], &mut SmallRng) -> Vec<Query>;

/// A payload drawn log-uniformly from the power-of-two bin `[2^k, 2^(k+1))`,
/// rounded down to a multiple of `s²` where the bin allows it.
///
/// The rounding keeps ring Allreduce blocks equal: with a payload not
/// divisible by `s²`, `allreduce_ring` emits rounds with identical
/// endpoints but different block sizes, which the round memo of
/// `SharedCostCache` (keyed by endpoints and payload) costs as if they were
/// the same round — pruned costs then differ from `schedule_time` in the
/// last bits. Ring Allreduce only runs at `payload ≥ 32 KiB · s ≥ s²`, so
/// the rounding covers every payload that reaches it.
fn payload_in_bin(rng: &mut SmallRng, k: u32, s: usize) -> u64 {
    let p = (2f64.powf(k as f64 + rng.unit_f64()) as u64).clamp(1 << k, (2 << k) - 1);
    let grain = (s * s) as u64;
    if grain <= 1 << k {
        p / grain * grain
    } else {
        p
    }
}

/// Hydra 8/16/32 nodes × (1 rail, 2 and 4 rails × every policy), LUMI
/// 8/16 nodes; the fluid engine is capped at 16 Hydra or 8 LUMI nodes.
fn recommend_machines(engine: Engine) -> Vec<Machine> {
    let (hydra_nodes, lumi_nodes): (&[usize], &[usize]) = match engine {
        Engine::Lockstep => (&[8, 16, 32], &[8, 16]),
        Engine::Fluid => (&[8, 16], &[8]),
    };
    let mut machines: Vec<Machine> = hydra_nodes
        .iter()
        .flat_map(|&n| hydra_rail_grid(n))
        .collect();
    for &n in lumi_nodes {
        machines.push(machine(format!("lumi{n}"), lumi_network(n), 1));
    }
    machines
}

/// Queries per pass: every (machine, collective) once, then further
/// collective rounds until the count is reached. The counts put both the
/// median (0.5·Q) and the p90 nearest rank (0.9·Q) mid-way through one
/// query's block of samples (each ends in .5) rather than on the edge
/// between two queries' costs, where they would flip between them.
fn recommend_count(engine: Engine) -> usize {
    match engine {
        Engine::Lockstep => 75,
        Engine::Fluid => 45,
    }
}

/// The `recommend` skeleton: the subcommunicator size and the payload bin
/// (16 KiB … 16 MiB) rotate over (machine, collective round).
///
/// Sizes run from 16 up to the largest power of two with `s × cores ≤
/// cap` (32768 lockstep, 16384 fluid): a candidate's schedules hold up to
/// `2(s − 1) × cores` messages, so without the cap a single large-`s` query
/// on a 2048-core machine takes seconds and dominates the run.
fn recommend_queries(machines: &[Machine], rng: &mut SmallRng, engine: Engine) -> Vec<Query> {
    let cap = match engine {
        Engine::Lockstep => 1 << 15,
        Engine::Fluid => 1 << 14,
    };
    let shapes = (0..).flat_map(|ci| (0..machines.len()).map(move |mi| (ci, mi)));
    let mut queries: Vec<Query> = shapes
        .take(recommend_count(engine))
        .map(|(ci, mi)| {
            let sizes: Vec<usize> = [16, 32, 64, 128, 256]
                .into_iter()
                .filter(|&s| s * machines[mi].h.size() <= cap)
                .collect();
            let s = sizes[(mi + 2 * ci) % sizes.len()];
            let bin = 14 + ((mi + 3 * ci + mi / 5) % 10) as u32;
            Query::Recommend {
                machine: mi,
                collective: AUTO_COLLECTIVES[ci % AUTO_COLLECTIVES.len()],
                s,
                payload: payload_in_bin(rng, bin, s),
                engine,
            }
        })
        .collect();
    rng.shuffle(&mut queries);
    queries
}

/// 6-, 7- and 8-level machines of 128–512 cores, built by splitting Hydra
/// and LUMI levels (`k! = 720 … 40320` orders to characterize).
fn deep_machines() -> Vec<Machine> {
    vec![
        split_machine("hydra4", hydra_network(4, 1), &[(3, 2), (4, 2)]),
        split_machine("lumi1", lumi_node_network(), &[(1, 2), (4, 2)]),
        split_machine("hydra8", hydra_network(8, 1), &[(0, 2), (4, 2), (5, 2)]),
        split_machine("lumi2", lumi_network(2), &[(2, 2), (5, 2)]),
        split_machine("hydra16", hydra_network(16, 1), &[(0, 4), (4, 2), (5, 2)]),
        split_machine("lumi2", lumi_network(2), &[(2, 2), (5, 2), (6, 2)]),
    ]
}

/// Queries per machine of [`deep_machines`]: every collective on the 6-
/// and 7-level 128/256-core machines, fewer on the 512-core and 8-level
/// ones (~0.1 and ~0.3 s each), which keeps a pass near 0.8 s. The total,
/// 15, puts the median and the p90 nearest rank mid-way through one
/// query's samples (see [`recommend_count`]).
const DEEP_COLLECTIVES: [usize; 6] = [3, 3, 3, 3, 2, 1];

/// Subcommunicators of 16–64, payloads 16–256 KiB.
fn deep_queries(machines: &[Machine], rng: &mut SmallRng) -> Vec<Query> {
    const SIZES: [usize; 3] = [16, 32, 64];
    let mut queries = Vec::new();
    for (mi, &count) in DEEP_COLLECTIVES.iter().enumerate().take(machines.len()) {
        for ci in 0..count {
            let s = SIZES[(mi + ci) % SIZES.len()];
            queries.push(Query::Recommend {
                machine: mi,
                collective: AUTO_COLLECTIVES[(mi + ci) % AUTO_COLLECTIVES.len()],
                s,
                payload: payload_in_bin(rng, 14 + ((mi + 2 * ci) % 4) as u32, s),
                engine: Engine::Lockstep,
            });
        }
    }
    rng.shuffle(&mut queries);
    queries
}

/// Hydra at each node count with 1, 2 and 4 rails (every policy) — the
/// machines `payload_grid` and `splatt_rails` draw from.
fn rail_machines(nodes: &[usize]) -> Vec<Machine> {
    nodes.iter().flat_map(|&n| hydra_rail_grid(n)).collect()
}

/// The skeleton of `payload_grid` and `splatt_rails`: every (node count,
/// rail count) pair `per_pair` times, as indices into [`rail_machines`].
/// Multi-rail entries cycle through the rail policies in a fixed order —
/// the policy changes what a query costs, so the seed must not pick it.
fn rail_skeleton(machines: &[Machine], nodes: &[usize], per_pair: usize) -> Vec<usize> {
    let mut policy = RailPolicy::ALL.iter().cycle();
    let mut skeleton = Vec::new();
    for &n in nodes {
        for nics in [1, 2, 4] {
            for _ in 0..per_pair {
                let label = if nics == 1 {
                    format!("hydra{n}")
                } else {
                    let p = policy.next().expect("cycle never ends");
                    format!("hydra{n}x{nics}{}", p.label())
                };
                let index = machines.iter().position(|m| m.label == label);
                skeleton.push(index.expect("rail grid covers every (nodes, nics, policy)"));
            }
        }
    }
    skeleton
}

/// (8 | 16 nodes) × (1 | 2 | 4 rails) × two collective variants, then the
/// first three again, cycling through pairwise Alltoall, ring Allgather,
/// ring Allreduce and `Auto` Alltoall — one query in four is `Auto`, whose
/// algorithm switch along the axis forces the exact fallback. The seed
/// draws each query's reference payload, a multiple of 4 KiB (= 64²,
/// keeping ring blocks equal) in [64, 80) KiB, so `Auto`'s switch (at
/// 512 KiB for s = 16 and 2 MiB for s = 64) falls at the same axis point
/// for every seed; the axis then runs to 8–10 MiB. A wider range moved the
/// median by up to 10% between seeds through the pruning outcome. Each
/// query's exhaustive check costs about ten queries, which keeps the list
/// short; 15 puts the median and p90 mid-way through one query's samples
/// (see [`recommend_count`]).
fn grid_queries(machines: &[Machine], rng: &mut SmallRng) -> Vec<Query> {
    const VARIANTS: [Collective; 4] = [
        Collective::Alltoall(AlltoallAlg::Pairwise),
        Collective::Allgather(AllgatherAlg::Ring),
        Collective::Allreduce(AllreduceAlg::Ring),
        Collective::Alltoall(AlltoallAlg::Auto),
    ];
    let skeleton = rail_skeleton(machines, &[8, 16], 2);
    let mut queries: Vec<Query> = skeleton
        .iter()
        .cycle()
        .take(15)
        .zip(VARIANTS.iter().cycle())
        .map(|(&machine, &collective)| Query::Grid {
            machine,
            collective,
            reference: 4096 * rng.gen_range(16u64..20),
        })
        .collect();
    rng.shuffle(&mut queries);
    queries
}

/// (2 | 3 | 4 nodes) × (1 | 2 | 4 rails) × two process-grid shapes. The
/// seed draws the tensor: each mode's size within ±25% of nell-1's and the
/// CP rank, which change every message size but not the communicator
/// structure the cost of a ranking depends on. (At 8 and 16 nodes one
/// 24-order ranking takes 0.3–1.4 s, too long to collect 100 latency
/// samples inside one run; three node counts keep the median off a gap
/// between two clusters of query costs.)
fn splatt_queries(machines: &[Machine], rng: &mut SmallRng) -> Vec<Query> {
    const GRIDS: [[[usize; 3]; 2]; 3] = [
        [[4, 4, 4], [2, 4, 8]],
        [[4, 4, 6], [2, 6, 8]],
        [[4, 4, 8], [2, 8, 8]],
    ];
    let skeleton = rail_skeleton(machines, &[2, 3, 4], 2);
    let mut queries: Vec<Query> = skeleton
        .iter()
        .enumerate()
        .map(|(i, &machine)| {
            let base = SplattConfig::nell1_like();
            let mut cfg = SplattConfig {
                grid: GRIDS[i / 6][i % 2],
                rank: [8, 16, 32][rng.gen_range(0usize..3)],
                ..base
            };
            for d in &mut cfg.dims {
                *d = (*d as f64 * rng.gen_range(0.75..1.25)) as usize;
            }
            Query::Splatt { machine, cfg }
        })
        .collect();
    rng.shuffle(&mut queries);
    queries
}

impl Workload {
    pub fn describe(&self, q: &Query) -> String {
        match *q {
            Query::Recommend {
                machine,
                collective,
                s,
                payload,
                engine,
            } => format!(
                "{} {collective:?} s={s} {payload}B {engine:?}",
                self.machines[machine].label
            ),
            Query::Grid {
                machine,
                collective,
                reference,
            } => format!(
                "{} {collective:?} axis {reference}B..",
                self.machines[machine].label
            ),
            Query::Splatt { machine, ref cfg } => format!(
                "{} cpd grid {:?} dims {:?} rank {}",
                self.machines[machine].label, cfg.grid, cfg.dims, cfg.rank
            ),
        }
    }

    /// Runs one query as a user would: a fresh cost cache, the pruned
    /// search, and only the answer kept.
    pub fn run(&self, q: &Query, ctx: Ctx<'_>) -> Result<Answer, String> {
        match *q {
            Query::Recommend {
                machine,
                collective,
                s,
                payload,
                engine,
            } => recommend(&self.machines[machine], collective, s, payload, engine, ctx),
            Query::Grid {
                machine,
                collective,
                reference,
            } => payload_grid(&self.machines[machine], collective, reference, ctx),
            Query::Splatt { machine, ref cfg } => splatt(&self.machines[machine], cfg, ctx),
        }
    }

    /// The exhaustive answer the query must reproduce bit for bit.
    pub fn oracle(&self, q: &Query) -> Result<Answer, String> {
        match *q {
            Query::Recommend {
                machine,
                collective,
                s,
                payload,
                engine,
            } => {
                let m = &self.machines[machine];
                let ranked = rank_orders_by_par(&m.h, s, |sigma| {
                    let jobs = job_schedules(m, collective, s, payload, sigma);
                    match engine {
                        Engine::Lockstep => m.net.schedule_time(&Schedule::lockstep(&jobs)),
                        Engine::Fluid => fluid_time(&m.net, &jobs),
                    }
                })
                .map_err(|e| e.to_string())?;
                let (best, cost) = ranked.first().ok_or("no representative orders")?;
                Ok(vec![(best.order.to_string(), cost.to_bits())])
            }
            Query::Grid {
                machine,
                collective,
                reference,
            } => {
                let m = &self.machines[machine];
                let cells = sweep(&m.h, &grid_spec(reference), |sigma, s, bytes| {
                    m.net.schedule_time(&Schedule::lockstep(&job_schedules(
                        m, collective, s, bytes, sigma,
                    )))
                })
                .map_err(|e| e.to_string())?;
                Ok(cells
                    .iter()
                    .map(|c| (c.ranked[0].0.order.to_string(), c.ranked[0].1.to_bits()))
                    .collect())
            }
            Query::Splatt { machine, ref cfg } => {
                let m = &self.machines[machine];
                splatt_answer(par::map(&Permutation::all(4), |_, sigma| {
                    estimate_cpd_time(cfg, &m.h, sigma, &m.net, SPLATT_FLOP_RATE)
                        .map(|c| (sigma.clone(), c.total))
                        .map_err(|e| e.to_string())
                }))
            }
        }
    }

    /// The query's order enumeration on its own — what `core.enumerate`
    /// times in the traced run (the searches call it internally, where
    /// the benchmark cannot open a span).
    pub fn enumerate(&self, q: &Query, ctx: Ctx<'_>) -> Result<(), String> {
        let (h, sizes): (&Hierarchy, Vec<usize>) = match *q {
            Query::Recommend { machine, s, .. } => (&self.machines[machine].h, vec![s]),
            Query::Grid { machine, .. } => (&self.machines[machine].h, GRID_SIZES.to_vec()),
            Query::Splatt { machine, .. } => {
                // No classes: the CPD ranking evaluates all 4! orders.
                let _span = ctx.span("core.enumerate");
                let orders = Permutation::all(self.machines[machine].h.depth());
                ctx.add("core.enumerate.orders", orders.len() as u64);
                return Ok(());
            }
        };
        let orders: u64 = (1..=h.depth() as u64).product();
        for s in sizes {
            let reps = {
                let _span = ctx.span("core.enumerate");
                representatives(h, s).map_err(|e| e.to_string())?
            };
            ctx.add("core.enumerate.orders", orders);
            ctx.add("core.enumerate.classes", reps.len() as u64);
        }
        Ok(())
    }
}

/// The schedules every subcommunicator of `sigma`'s layout runs, rail-
/// striped for the machine's node rails.
fn job_schedules(
    m: &Machine,
    collective: Collective,
    s: usize,
    payload: u64,
    sigma: &Permutation,
) -> Vec<Schedule> {
    let layout =
        subcommunicators(&m.h, sigma, s, ColorScheme::Quotient).expect("generated s divides size");
    let bench = Microbench {
        machine: m.h.clone(),
        order: sigma.clone(),
        subcomm_size: s,
        collective,
        total_bytes: payload,
    };
    (0..layout.count())
        .map(|c| bench.schedule_for_rails(layout.members(c), m.nics))
        .collect()
}

/// [`job_schedules`] with spans around the layout and schedule stages.
/// Returns the per-communicator jobs and, for the lockstep engine, their
/// merged lockstep schedule.
fn traced_schedules(
    m: &Machine,
    collective: Collective,
    s: usize,
    payload: u64,
    sigma: &Permutation,
    engine: Engine,
    ctx: Ctx<'_>,
) -> (Vec<Schedule>, Schedule) {
    let layout = {
        let _span = ctx.span("core.subcomm");
        subcommunicators(&m.h, sigma, s, ColorScheme::Quotient).expect("generated s divides size")
    };
    let _span = ctx.span("workloads.schedule");
    let bench = Microbench {
        machine: m.h.clone(),
        order: sigma.clone(),
        subcomm_size: s,
        collective,
        total_bytes: payload,
    };
    let jobs: Vec<Schedule> = (0..layout.count())
        .map(|c| bench.schedule_for_rails(layout.members(c), m.nics))
        .collect();
    let merged = match engine {
        Engine::Lockstep => Schedule::lockstep(&jobs),
        // The fluid rungs and cost work on the job set.
        Engine::Fluid => Schedule::new(),
    };
    if ctx.tracing() {
        let messages: usize = jobs
            .iter()
            .flat_map(|j| &j.rounds)
            .map(|r| r.messages.len())
            .sum();
        ctx.add("workloads.schedule.messages", messages as u64);
    }
    (jobs, merged)
}

/// Adds a finished query's cost-cache counters: the pattern tier (whole
/// schedules or fluid job sets) and the round tier (per-round profiles and
/// times; a round miss is a contention solve).
fn record_cache(cache: &SharedCostCache, ctx: Ctx<'_>) {
    if ctx.tracing() {
        let (pattern_hits, pattern_misses) = cache.stats();
        let rounds = cache.cache_stats();
        ctx.add("simnet.cost_cache.pattern_hits", pattern_hits);
        ctx.add("simnet.cost_cache.pattern_misses", pattern_misses);
        ctx.add("simnet.cost_cache.round_hits", rounds.round_hits);
        ctx.add("simnet.cost_cache.round_misses", rounds.misses);
        ctx.add("simnet.cost_cache.entries", cache.len() as u64);
    }
}

fn record_search(ctx: Ctx<'_>, stats: mre_core::order_search::PruneStats) {
    ctx.add("core.order_search.candidates", stats.candidates());
    ctx.add("core.order_search.evaluated", stats.evaluated);
    ctx.add("core.order_search.pruned", stats.pruned);
    ctx.add("core.order_search.tight_pruned", stats.tight_pruned);
}

/// The fluid job set's memo key: a hash of its schedules' patterns.
fn fluid_key(jobs: &[Schedule]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for s in jobs {
        s.pattern_fingerprint().hash(&mut h);
    }
    h.finish()
}

/// `order_sweep --pruned [--fluid]`: schedules built once per candidate,
/// the aggregate rung orders the frontier, the per-rail rung re-checks
/// survivors, and only admitted candidates pay the (memoized) solve.
fn recommend(
    m: &Machine,
    collective: Collective,
    s: usize,
    payload: u64,
    engine: Engine,
    ctx: Ctx<'_>,
) -> Result<Answer, String> {
    struct Prepared {
        jobs: Vec<Schedule>,
        merged: Schedule,
    }
    let cache = SharedCostCache::new();
    let search = ctx.span("core.order_search");
    let sctx = ctx.under(&search);
    let ranking = rank_orders_pruned_ladder(
        &m.h,
        s,
        |sigma| {
            let (jobs, merged) = traced_schedules(m, collective, s, payload, sigma, engine, sctx);
            Prepared { jobs, merged }
        },
        |_, p| {
            let _span = sctx.span("simnet.bound.cheap");
            match engine {
                Engine::Lockstep => schedule_lower_bound_aggregate(&m.net, &p.merged),
                Engine::Fluid => fluid_lower_bound_aggregate(&m.net, &p.jobs),
            }
        },
        |_, p| {
            let _span = sctx.span("simnet.bound.tight");
            match engine {
                Engine::Lockstep => schedule_lower_bound(&m.net, &p.merged),
                Engine::Fluid => fluid_lower_bound(&m.net, &p.jobs),
            }
        },
        |_, p| {
            let cost = sctx.span("simnet.cost");
            match engine {
                Engine::Lockstep => cache.schedule_time_rounds(&m.net, &p.merged, payload),
                Engine::Fluid => cache.time_keyed(&m.net, fluid_key(&p.jobs), payload, || {
                    let cctx = sctx.under(&cost);
                    let _span = cctx.span("simnet.fluid");
                    let (t, stats) = fluid_time_with_stats(&m.net, &p.jobs);
                    cctx.add("simnet.fluid.events", stats.events);
                    cctx.add("simnet.fluid.solves", stats.solves);
                    cctx.add("simnet.fluid.repredictions", stats.repredictions);
                    t
                }),
            }
        },
    )
    .map_err(|e| e.to_string())?;
    drop(search);
    record_search(ctx, ranking.stats);
    record_cache(&cache, ctx);
    let (best, cost) = &ranking.best;
    Ok(vec![(best.order.to_string(), cost.to_bits())])
}

fn grid_spec(reference: u64) -> SweepSpec {
    SweepSpec {
        subcomm_sizes: GRID_SIZES.to_vec(),
        payload_sizes: (0..GRID_POINTS).map(|i| reference << i).collect(),
    }
}

/// `sweep_pruned_axis` with the symbolic payload engine: one symbolic cost
/// per (size, candidate), envelope bounds per cell, verified replay — or
/// the exact round-memoized engine where the generator is not linear in
/// the payload.
fn payload_grid(
    m: &Machine,
    collective: Collective,
    reference: u64,
    ctx: Ctx<'_>,
) -> Result<Answer, String> {
    let cache = SharedCostCache::new();
    let search = ctx.span("core.order_search");
    let sctx = ctx.under(&search);
    let merged = |sigma: &Permutation, s: usize, bytes: u64| {
        traced_schedules(m, collective, s, bytes, sigma, Engine::Lockstep, sctx).1
    };
    let cells = sweep_pruned_axis(
        &m.h,
        &grid_spec(reference),
        |sigma, s| {
            let schedule = merged(sigma, s, reference);
            let _span = sctx.span("simnet.symbolic.build");
            SymbolicScheduleCost::build(&m.net, &cache, &schedule, reference)
                .expect("non-zero reference payload")
        },
        |_, _, bytes, sym| {
            let _span = sctx.span("simnet.bound.cheap");
            sym.bound_at(bytes)
        },
        // The envelope is within float reassociation of the exact cost; a
        // second rung has nothing to add.
        |_, _, _, _| f64::NEG_INFINITY,
        |sigma, s, bytes, sym| {
            let cost = sctx.span("simnet.cost");
            let cctx = sctx.under(&cost);
            let schedule =
                traced_schedules(m, collective, s, bytes, sigma, Engine::Lockstep, cctx).1;
            if sym.matches(&schedule, bytes) {
                let _span = cctx.span("simnet.symbolic.replay");
                sym.time_at_payload(bytes)
                    .expect("matches implies integral scaling")
            } else {
                cctx.add("simnet.symbolic.fallbacks", 1);
                cache.schedule_time_rounds(&m.net, &schedule, bytes)
            }
        },
    )
    .map_err(|e| e.to_string())?;
    drop(search);
    for cell in &cells {
        record_search(ctx, cell.stats);
    }
    record_cache(&cache, ctx);
    Ok(cells
        .iter()
        .map(|c| (c.best.0.order.to_string(), c.best.1.to_bits()))
        .collect())
}

/// Every order's CPD time plus the winner (first strict minimum, as
/// `fig8_rails` picks it).
fn splatt_answer(times: Vec<Result<(Permutation, f64), String>>) -> Result<Answer, String> {
    let times = times.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (best, best_t) = times
        .iter()
        .fold(None, |acc: Option<&(Permutation, f64)>, x| match acc {
            Some(b) if b.1 <= x.1 => Some(b),
            _ => Some(x),
        })
        .ok_or("no orders")?;
    let mut answer = vec![(format!("best {best}"), best_t.to_bits())];
    answer.extend(times.iter().map(|(o, t)| (o.to_string(), t.to_bits())));
    Ok(answer)
}

/// `fig8_rails` for one (machine, tensor, grid): all 24 orders through one
/// cost cache on the worker pool.
fn splatt(m: &Machine, cfg: &SplattConfig, ctx: Ctx<'_>) -> Result<Answer, String> {
    let cache = SharedCostCache::new();
    let times = par::map(&Permutation::all(4), |_, sigma| {
        let _span = ctx.span("workloads.splatt.estimate");
        estimate_cpd_time_cached(cfg, &m.h, sigma, &m.net, SPLATT_FLOP_RATE, &cache)
            .map(|c| (sigma.clone(), c.total))
            .map_err(|e| e.to_string())
    });
    record_cache(&cache, ctx);
    splatt_answer(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes(w: &Workload) -> Vec<String> {
        let mut v: Vec<String> = w.queries.iter().map(|q| w.describe(q)).collect();
        v.sort();
        v
    }

    #[test]
    fn generator_is_deterministic_for_a_seed() {
        for name in NAMES {
            let a = generate(name, 11).unwrap();
            let b = generate(name, 11).unwrap();
            let describe =
                |w: &Workload| w.queries.iter().map(|q| w.describe(q)).collect::<Vec<_>>();
            assert_eq!(describe(&a), describe(&b), "{name}");
            assert_eq!(a.describe(&a.warmup), b.describe(&b.warmup), "{name}");
        }
    }

    #[test]
    fn seeds_change_inputs_but_not_the_skeleton() {
        let a = generate("recommend", 1).unwrap();
        let b = generate("recommend", 2).unwrap();
        assert_eq!(a.queries.len(), b.queries.len());
        assert_ne!(shapes(&a), shapes(&b), "payloads must depend on the seed");
        // The warm-up comes from its own stream, independent of the seed.
        assert_eq!(a.describe(&a.warmup), b.describe(&b.warmup));
        let machines_and_sizes = |w: &Workload| {
            let mut v: Vec<(usize, usize)> = w
                .queries
                .iter()
                .map(|q| match *q {
                    Query::Recommend { machine, s, .. } => (machine, s),
                    _ => unreachable!(),
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(machines_and_sizes(&a), machines_and_sizes(&b));
    }

    #[test]
    fn payload_bins_are_respected() {
        let mut rng = SmallRng::seed_from_u64(3);
        for k in 14..24 {
            for _ in 0..50 {
                for s in [16usize, 256] {
                    let p = payload_in_bin(&mut rng, k, s);
                    assert!((1 << k..2 << k).contains(&p));
                    if (s * s) as u64 <= 1 << k {
                        assert_eq!(
                            p % (s * s) as u64,
                            0,
                            "ring allreduce blocks must stay equal"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deep_machines_have_six_to_eight_levels() {
        for m in deep_machines() {
            assert!((6..=8).contains(&m.h.depth()), "{}", m.label);
            assert!((128..=512).contains(&m.h.size()), "{}", m.label);
            assert_eq!(m.net.links().len(), m.h.depth());
        }
    }
}
