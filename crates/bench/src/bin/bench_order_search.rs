//! Before/after timings for the order-space search engine, written as JSON
//! to `BENCH_order_search.json` (override the path with a single argument).
//!
//! Measures, with medians from the in-tree [`mre_bench::tinybench`]
//! harness:
//!
//! * `pair_counts` — the O(m·k) prefix-group counting vs the retained
//!   naive O(m²·k) oracle, m ∈ {64, 512, 2048} on LUMI-scale layouts;
//! * `rank_orders` — [`rank_orders_by_par`] with `MRE_PAR_THREADS=1` vs
//!   the full worker pool over Hydra's 24 orders under the contention
//!   simulator, plus a bitwise identity check of the two rankings;
//! * `sweep` — the (order × subcommunicator × payload) grid engine with
//!   `MRE_PAR_THREADS=1` vs the full worker pool;
//! * `max_min` — the incremental bottleneck-freezing contention solver vs
//!   the dense full-rescan reference.
//!
//! Pass `--quick` for a fast low-fidelity run.

use mre_bench::tinybench::{black_box, Bench};
use mre_core::metrics::{pair_counts_per_level, pair_counts_per_level_naive};
use mre_core::order_search::{rank_orders_by_par, sweep, SweepSpec};
use mre_core::par::THREADS_ENV;
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_mpi::AlltoallAlg;
use mre_simnet::presets::hydra_network;
use mre_simnet::{max_min_rates, max_min_rates_reference};
use mre_workloads::microbench::{Collective, Microbench};

struct Comparison {
    label: String,
    scale: usize,
    before_ns: f64,
    after_ns: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns
    }

    fn json(&self, before_key: &str, after_key: &str, scale_key: &str) -> String {
        format!(
            "{{\"{scale_key}\": {}, \"{before_key}_ns\": {:.1}, \"{after_key}_ns\": {:.1}, \"speedup\": {:.2}}}",
            self.scale,
            self.before_ns,
            self.after_ns,
            self.speedup()
        )
    }
}

fn lumi_members(m: usize) -> (Hierarchy, Vec<usize>) {
    let lumi = Hierarchy::new(vec![16, 2, 4, 2, 8]).unwrap();
    let layout = subcommunicators(
        &lumi,
        &Permutation::parse("1-2-3-0-4").unwrap(),
        m,
        ColorScheme::Quotient,
    )
    .unwrap();
    (lumi, layout.members(0).to_vec())
}

fn median(b: &mut Bench, name: &str, f: impl FnMut() -> f64) -> f64 {
    b.bench(name, f).expect("no filter active").median_ns
}

/// The §4.1 contended Alltoall duration — the realistic per-order cost.
fn contended_duration(
    machine: &Hierarchy,
    net: &mre_simnet::NetworkModel,
    sigma: &Permutation,
    subcomm_size: usize,
    total_bytes: u64,
) -> f64 {
    Microbench {
        machine: machine.clone(),
        order: sigma.clone(),
        subcomm_size,
        collective: Collective::Alltoall(AlltoallAlg::Pairwise),
        total_bytes,
    }
    .run(net)
    .expect("valid configuration")
    .simultaneous_duration
}

/// Mixed private/shared link population: every flow crosses its own
/// private link plus one shared link per group of 16.
///
/// `uniform` private capacities make every flow bottleneck in the **same**
/// water-filling round — the dense reference solver's best case (one
/// rescan). Distinct capacities make every round freeze a single flow — an
/// `nf`-round cascade where the full-rescan reference does O(rounds ×
/// flows) work and the incremental solver's heap pays off. Real rounds
/// (lockstep merges, fluid re-solves) sit between the two regimes.
fn contention_instance(nf: usize, uniform: bool) -> (Vec<Vec<usize>>, Vec<f64>) {
    let flows: Vec<Vec<usize>> = (0..nf).map(|f| vec![f, nf + f / 16]).collect();
    let mut caps: Vec<f64> = (0..nf)
        .map(|f| if uniform { 10.0 } else { 1.0 + f as f64 * 0.01 })
        .collect();
    caps.extend(vec![100.0; nf.div_ceil(16)]);
    (flows, caps)
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_order_search.json".into());
    let quick = std::env::args().any(|a| a == "--quick");
    let mut b = Bench::new(None, quick);
    let threads = mre_core::par::threads();
    println!("order-search engine timings ({threads} worker threads)\n");

    let mut pair_counts = Vec::new();
    for &m in &[64usize, 512, 2048] {
        let (lumi, members) = lumi_members(m);
        let naive = median(&mut b, &format!("pair_counts/naive/{m}"), || {
            pair_counts_per_level_naive(black_box(&lumi), black_box(&members))[0] as f64
        });
        let fast = median(&mut b, &format!("pair_counts/fast/{m}"), || {
            pair_counts_per_level(black_box(&lumi), black_box(&members))[0] as f64
        });
        pair_counts.push(Comparison {
            label: "pair_counts".into(),
            scale: m,
            before_ns: naive,
            after_ns: fast,
        });
    }

    let machine = Hierarchy::new(vec![4, 2, 2, 8]).unwrap();
    let net = hydra_network(4, 1);
    let rank_cost = |sigma: &Permutation| contended_duration(&machine, &net, sigma, 16, 1 << 20);
    std::env::set_var(THREADS_ENV, "1");
    let serial_ranked = rank_orders_by_par(&machine, 16, rank_cost).unwrap();
    std::env::remove_var(THREADS_ENV);
    let parallel_ranked = rank_orders_by_par(&machine, 16, rank_cost).unwrap();
    let identical = serial_ranked.len() == parallel_ranked.len()
        && serial_ranked
            .iter()
            .zip(&parallel_ranked)
            .all(|(s, p)| s.0.order == p.0.order && s.1.to_bits() == p.1.to_bits());
    assert!(
        identical,
        "parallel ranking must be byte-identical to serial"
    );
    std::env::set_var(THREADS_ENV, "1");
    let rank_serial = median(&mut b, "rank_orders/serial/24", || {
        rank_orders_by_par(black_box(&machine), 16, rank_cost)
            .unwrap()
            .len() as f64
    });
    std::env::remove_var(THREADS_ENV);
    let rank_parallel = median(&mut b, &format!("rank_orders/parallel{threads}/24"), || {
        rank_orders_by_par(black_box(&machine), 16, rank_cost)
            .unwrap()
            .len() as f64
    });
    let ranking = Comparison {
        label: "rank_orders".into(),
        scale: 24,
        before_ns: rank_serial,
        after_ns: rank_parallel,
    };

    let spec = SweepSpec {
        subcomm_sizes: vec![16, 32],
        payload_sizes: vec![1 << 16, 1 << 20],
    };
    let sweep_cost = |sigma: &Permutation, subcomm_size: usize, bytes: u64| {
        contended_duration(&machine, &net, sigma, subcomm_size, bytes)
    };
    std::env::set_var(THREADS_ENV, "1");
    let sweep_serial = median(&mut b, "sweep/serial/2x2-grid", || {
        sweep(black_box(&machine), &spec, sweep_cost).unwrap().len() as f64
    });
    std::env::remove_var(THREADS_ENV);
    let sweep_parallel = median(&mut b, &format!("sweep/parallel{threads}/2x2-grid"), || {
        sweep(black_box(&machine), &spec, sweep_cost).unwrap().len() as f64
    });
    let grid = Comparison {
        label: "sweep".into(),
        scale: spec.subcomm_sizes.len() * spec.payload_sizes.len(),
        before_ns: sweep_serial,
        after_ns: sweep_parallel,
    };

    let mut max_min = Vec::new();
    for &(shape, uniform) in &[("uniform", true), ("cascade", false)] {
        for &nf in &[512usize, 2048] {
            let (flows, caps) = contention_instance(nf, uniform);
            let reference = median(&mut b, &format!("max_min/reference/{shape}/{nf}"), || {
                max_min_rates_reference(black_box(&flows), black_box(&caps))[0]
            });
            let incremental = median(&mut b, &format!("max_min/incremental/{shape}/{nf}"), || {
                max_min_rates(black_box(&flows), black_box(&caps))[0]
            });
            max_min.push(Comparison {
                label: format!("max_min/{shape}"),
                scale: nf,
                before_ns: reference,
                after_ns: incremental,
            });
        }
    }

    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"quick\": {quick},\n  \
         \"pair_counts\": [\n    {}\n  ],\n  \
         \"rank_orders\": {{\"orders\": {}, \"serial_ns\": {:.1}, \"parallel_ns\": {:.1}, \
         \"speedup\": {:.2}, \"rankings_identical\": {identical}}},\n  \
         \"sweep\": {{\"grid_cells\": {}, \"serial_ns\": {:.1}, \"parallel_ns\": {:.1}, \"speedup\": {:.2}}},\n  \
         \"max_min\": [\n    {}\n  ]\n}}\n",
        pair_counts
            .iter()
            .map(|c| c.json("naive", "fast", "members"))
            .collect::<Vec<_>>()
            .join(",\n    "),
        ranking.scale,
        ranking.before_ns,
        ranking.after_ns,
        ranking.speedup(),
        grid.scale,
        grid.before_ns,
        grid.after_ns,
        grid.speedup(),
        max_min
            .iter()
            .map(|c| {
                let shape = c.label.rsplit('/').next().expect("label has a shape suffix");
                format!(
                    "{{\"shape\": \"{shape}\", \"flows\": {}, \"reference_ns\": {:.1}, \
                     \"incremental_ns\": {:.1}, \"speedup\": {:.2}}}",
                    c.scale,
                    c.before_ns,
                    c.after_ns,
                    c.speedup()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");

    println!();
    for c in pair_counts
        .iter()
        .chain(max_min.iter())
        .chain([&ranking, &grid])
    {
        println!("{:>12} @ {:<5} {:>7.2}x", c.label, c.scale, c.speedup());
    }
    println!("\nwrote {out_path}");
}
