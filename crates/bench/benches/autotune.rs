//! Per-subcommunicator autotuning benchmark: the [`AlgorithmSelector`]
//! over a layout of eight 16-core subcommunicators, with a cold vs. a
//! warm [`SharedCostCache`].
//!
//! A full run rewrites `BENCH_autotune.json` at the repo root.

use mre_bench::tinybench::{black_box, Bench, Stats};
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_mpi::{AlgorithmSelector, CollectiveKind};
use mre_simnet::presets::hydra_network;
use mre_simnet::{NetworkModel, SharedCostCache};

const NODES: usize = 4;
const SELECTOR_BYTES: u64 = 4 << 20;

fn bench_selector(
    b: &mut Bench,
    machine: &Hierarchy,
    net: &NetworkModel,
) -> (Option<Stats>, Option<Stats>) {
    let layout = subcommunicators(
        machine,
        &Permutation::identity(machine.depth()),
        16,
        ColorScheme::Quotient,
    )
    .expect("valid configuration");
    let comms: Vec<Vec<usize>> = (0..layout.count())
        .map(|c| layout.members(c).to_vec())
        .collect();
    let cold = b.bench("selector/allgather/cold-cache", || {
        let cache = SharedCostCache::new();
        let selector = AlgorithmSelector::new(net, &cache);
        selector.select_layout(CollectiveKind::Allgather, black_box(&comms), SELECTOR_BYTES)
    });
    let cache = SharedCostCache::new();
    let selector = AlgorithmSelector::new(net, &cache);
    selector.select_layout(CollectiveKind::Allgather, &comms, SELECTOR_BYTES);
    let warm = b.bench("selector/allgather/warm-cache", || {
        selector.select_layout(CollectiveKind::Allgather, black_box(&comms), SELECTOR_BYTES)
    });
    (cold, warm)
}

fn main() {
    let mut b = Bench::from_env();
    let net = hydra_network(NODES, 1);
    let machine = net.hierarchy().clone();
    let (cold, warm) = bench_selector(&mut b, &machine, &net);

    let med = |s: &Option<Stats>| s.as_ref().map_or(f64::NAN, |s| s.median_ns);
    let json = format!(
        "{{\n  \"bench\": \"autotune\",\n  \"machine\": \"hydra_network({NODES}, 1)\",\n  \
         \"selector\": {{\n    \"collective\": \"allgather over eight 16-core subcommunicators\",\n    \
         \"total_bytes\": {SELECTOR_BYTES},\n    \"cold_ns\": {:.1},\n    \
         \"warm_ns\": {:.1},\n    \"warm_speedup\": {:.3}\n  }}\n}}\n",
        med(&cold),
        med(&warm),
        med(&cold) / med(&warm),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autotune.json");
    if b.is_quick() {
        println!("\n--quick run: leaving {path} untouched");
    } else {
        std::fs::write(path, json).expect("write BENCH_autotune.json");
        println!("\nwrote {path}");
    }
    b.finish();
}
