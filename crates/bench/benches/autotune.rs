//! Per-subcommunicator autotuning benchmark: the [`AlgorithmSelector`]
//! over a layout of eight 16-core subcommunicators, with a cold vs. a
//! warm [`SharedCostCache`].
//!
//! A full run refreshes the `"selector"` record of `BENCH_autotune.json`
//! at the repo root and leaves the rest of the file as it is: its
//! `"sweep"` and `"pool_reuse"` records timed order-search spellings that
//! no longer exist, so they stay frozen at the revision named in their
//! `"frozen_at_rev"` fields. The pruned-sweep acceptance check those
//! records came with is a test now (`crates/bench/tests/costing_kernel.rs`).

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

/// Replaces the object value of the top-level `"key": { … }` in `json`
/// with `value`; `None` if the key is missing or its braces are
/// unbalanced. The records hold no braces inside strings.
fn replace_object(json: &str, key: &str, value: &str) -> Option<String> {
    let start = json.find(&format!("\"{key}\": {{"))? + key.len() + 4;
    let mut depth = 0usize;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => {
                let end = start + i + 1;
                return Some(format!("{}{value}{}", &json[..start], &json[end..]));
            }
            '}' => depth -= 1,
            _ => {}
        }
    }
    None
}

fn main() {
    let mut b = Bench::from_env();
    let net = hydra_network(NODES, 1);
    let machine = net.hierarchy().clone();
    let (cold, warm) = bench_selector(&mut b, &machine, &net);

    let med = |s: &Option<Stats>| s.as_ref().map_or(f64::NAN, |s| s.median_ns);
    let selector = format!(
        "{{\n    \"collective\": \"allgather over eight 16-core subcommunicators\",\n    \
         \"total_bytes\": {SELECTOR_BYTES},\n    \"cold_ns\": {:.1},\n    \
         \"warm_ns\": {:.1},\n    \"warm_speedup\": {:.3}\n  }}",
        med(&cold),
        med(&warm),
        med(&cold) / med(&warm),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autotune.json");
    if b.is_quick() {
        println!("\n--quick run: leaving {path} untouched");
    } else {
        let old = std::fs::read_to_string(path).expect("read BENCH_autotune.json");
        let json = replace_object(&old, "selector", &selector)
            .expect("BENCH_autotune.json has a \"selector\" record");
        std::fs::write(path, json).expect("write BENCH_autotune.json");
        println!("\nwrote the selector record of {path}");
    }
    b.finish();
}
