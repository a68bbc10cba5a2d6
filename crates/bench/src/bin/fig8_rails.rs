//! The second-NIC ablation of **Figure 8** on the *discrete multi-rail*
//! fabric: the Splatt-like CPD on 32 Hydra nodes (1024 ranks), all 24
//! rank orders, with 1, 2 and 4 node rails at the per-NIC 12.5 GB/s.
//!
//! Unlike `fig8_splatt` (which models the second NIC as one fat
//! aggregate pipe), every rail here is an independent link: a single
//! flow never exceeds one NIC's bandwidth and two flows assigned to the
//! same rail still serialize. The table reports, per rail count, the
//! full ranking and whether the *winning order changed* relative to one
//! NIC — the packed-vs-spread flip the paper's Fig. 8a/8b comparison
//! shows.
//!
//! ```text
//! fig8_rails [--rail-policy round-robin|src-hash|affinity]
//! ```

use mre_bench::cli;
use mre_core::{Hierarchy, Permutation};
use mre_simnet::presets::hydra_network_rails;
use mre_simnet::{RailPolicy, SharedCostCache};
use mre_workloads::splatt::{estimate_cpd_time_cached, pearson, SplattConfig};

fn main() {
    let mut policy = RailPolicy::default();
    let parsed = cli::parse_flags(std::env::args().skip(1), None, |flag, args| {
        match flag {
            "--rail-policy" => policy = cli::rail_policy(&args.value(flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    cli::or_exit(parsed, 1);
    let nodes: usize = 32;
    let cfg = SplattConfig::nell1_like();
    let machine = Hierarchy::new(vec![nodes, 2, 2, 8]).expect("static hierarchy");
    let flop_rate = 15.0e9;
    println!(
        "Figure 8 (multi-rail): Splatt CPD on {nodes} Hydra nodes, {} ranks, grid {:?}, \
         rank {}, {} iterations, {policy} rail assignment",
        machine.size(),
        cfg.grid,
        cfg.rank,
        cfg.iterations
    );

    let sigmas = Permutation::all(4);
    let mut winners: Vec<(usize, Permutation, f64)> = Vec::new();
    // One cost cache for the whole 1/2/4-rail grid: the model fingerprint
    // in every key separates the fabrics, while repeated schedule patterns
    // (the per-mode world Allreduces, orders that induce the same layer
    // memberships) are solved once per fabric.
    let cache = SharedCostCache::new();
    for nics in [1usize, 2, 4] {
        let net = hydra_network_rails(nodes, nics, policy);
        println!("\n## {nics} rail(s) per node — CPD duration (s)");
        println!(
            "{:<10} {:>10} {:>14} {:>14} {:>12} {:>10}",
            "order", "total", "a2av(16p)", "a2av(256p)", "allreduce", "compute"
        );
        let breakdowns = mre_core::par::map(&sigmas, |_, sigma| {
            estimate_cpd_time_cached(&cfg, &machine, sigma, &net, flop_rate, &cache)
                .expect("valid configuration")
        });
        let mut totals = Vec::new();
        let mut smalls = Vec::new();
        let mut best: Option<(Permutation, f64)> = None;
        for (sigma, c) in sigmas.iter().zip(&breakdowns) {
            println!(
                "{:<10} {:>10.2} {:>14.2} {:>14.2} {:>12.4} {:>10.2}",
                sigma.to_string(),
                c.total,
                c.small_comm_alltoallv,
                c.large_comm_alltoallv,
                c.allreduce,
                c.compute
            );
            totals.push(c.total);
            smalls.push(c.small_comm_alltoallv);
            if best.as_ref().is_none_or(|(_, t)| c.total < *t) {
                best = Some((sigma.clone(), c.total));
            }
        }
        let (best_order, best_time) = best.expect("24 orders evaluated");
        println!(
            "best [{best_order}] {best_time:.2} s; Pearson(total, 16p Alltoallv) = {:.3}",
            pearson(&totals, &smalls)
        );
        winners.push((nics, best_order, best_time));
    }

    println!("\n# Winner flip with the rail count");
    let (_, baseline, _) = &winners[0];
    for (nics, order, time) in &winners {
        let flip = if order == baseline {
            ""
        } else {
            "  <-- flipped"
        };
        println!("{nics} rail(s): best [{order}] at {time:.2} s{flip}");
    }
    if winners.iter().any(|(_, o, _)| o != baseline) {
        println!("adding rails changes which rank order wins — the Fig. 8 NIC-count effect");
    } else {
        println!("winner stable across rail counts for this configuration");
    }
    let cs = cache.cache_stats();
    println!(
        "cost cache over the rail grid: core.cost_cache.pattern_hits={} \
         core.cost_cache.round_hits={} core.cost_cache.misses={} ({} distinct keys)",
        cs.pattern_hits,
        cs.round_hits,
        cs.misses,
        cache.len()
    );
}
