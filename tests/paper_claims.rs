//! The paper's headline experimental claims, checked end-to-end against
//! the simulated substrate at the paper's own scales (shape, not absolute
//! numbers — see DESIGN.md §5 and EXPERIMENTS.md).

use mixed_radix_enum::core::core_select::map_cpu_list;
use mixed_radix_enum::core::{Hierarchy, Permutation};
use mixed_radix_enum::mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mixed_radix_enum::simnet::presets::{
    hydra_network, hydra_network_rails, lumi_network, lumi_node_memory, lumi_node_network,
};
use mixed_radix_enum::simnet::{RailPolicy, SharedCostCache};
use mixed_radix_enum::workloads::cg::{estimate_time, CgClass};
use mixed_radix_enum::workloads::microbench::{Collective, Microbench};
use mixed_radix_enum::workloads::splatt::{
    estimate_cpd_time, estimate_cpd_time_cached, pearson, SplattConfig,
};

fn hydra16() -> Hierarchy {
    Hierarchy::new(vec![16, 2, 2, 8]).unwrap()
}

fn lumi16() -> Hierarchy {
    Hierarchy::new(vec![16, 2, 4, 2, 8]).unwrap()
}

/// Abstract claim: "a performance difference up to a factor 4 between the
/// best and the worst rank orderings" for collectives in
/// subcommunicators. Our contended Fig. 3 setting shows at least that
/// spread.
#[test]
fn factor_four_between_best_and_worst_orders() {
    let net = hydra_network(16, 1);
    let size = 4 << 20;
    let orders = ["0-1-2-3", "2-1-0-3", "1-3-0-2", "3-1-0-2", "3-2-1-0"];
    let mut durations = Vec::new();
    for order in orders {
        let bench = Microbench {
            machine: hydra16(),
            order: Permutation::parse(order).unwrap(),
            subcomm_size: 16,
            collective: Collective::Alltoall(AlltoallAlg::Auto),
            total_bytes: size,
        };
        durations.push(bench.run(&net).unwrap().simultaneous_duration);
    }
    let best = durations.iter().cloned().fold(f64::INFINITY, f64::min);
    let worst = durations.iter().cloned().fold(0.0, f64::max);
    assert!(
        worst / best >= 4.0,
        "best/worst spread should reach the paper's factor 4: {}",
        worst / best
    );
}

/// Fig. 3 claim: with one communicator, the most spread order wins at
/// large message sizes; with 32 simultaneous communicators it becomes the
/// worst and the most packed wins.
#[test]
fn figure3_winner_flip() {
    let net = hydra_network(16, 1);
    let size = 64 << 20;
    let run = |order: &str| {
        Microbench {
            machine: hydra16(),
            order: Permutation::parse(order).unwrap(),
            subcomm_size: 16,
            collective: Collective::Alltoall(AlltoallAlg::Auto),
            total_bytes: size,
        }
        .run(&net)
        .unwrap()
    };
    let spread = run("0-1-2-3");
    let packed = run("3-2-1-0");
    let middle = run("1-3-0-2");
    // Alone: spread is fastest of the three.
    assert!(spread.single_duration < packed.single_duration);
    assert!(spread.single_duration < middle.single_duration);
    // All 32 communicators: spread is slowest, packed fastest.
    assert!(spread.simultaneous_duration > packed.simultaneous_duration);
    assert!(spread.simultaneous_duration > middle.simultaneous_duration);
    assert!(packed.simultaneous_duration < middle.simultaneous_duration);
}

/// Fig. 5 setting (LUMI, 2048 ranks, 128 comms): same winner flip on the
/// deeper hierarchy.
#[test]
fn figure5_lumi_winner_flip() {
    let net = lumi_network(16);
    let size = 64 << 20;
    let run = |order: &str| {
        Microbench {
            machine: lumi16(),
            order: Permutation::parse(order).unwrap(),
            subcomm_size: 16,
            collective: Collective::Alltoall(AlltoallAlg::Auto),
            total_bytes: size,
        }
        .run(&net)
        .unwrap()
    };
    let spread = run("0-1-2-3-4");
    let packed = run("4-3-2-1-0");
    assert!(spread.single_duration < packed.single_duration);
    assert!(packed.simultaneous_duration < spread.simultaneous_duration);
    // Packed is contention-invariant on LUMI too.
    let ratio = packed.simultaneous_duration / packed.single_duration;
    assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
}

/// Figs. 6/7 claim: rank order inside the communicator matters for
/// ring-based collectives — same resources, lower ring cost, faster.
#[test]
fn ring_cost_predicts_ring_collective_ranking() {
    let net = hydra_network(16, 1);
    let run = |order: &str, collective: Collective| {
        Microbench {
            machine: hydra16(),
            order: Permutation::parse(order).unwrap(),
            subcomm_size: 64,
            collective,
            total_bytes: 16 << 20,
        }
        .run(&net)
        .unwrap()
        .single_duration
    };
    // [1,3,0,2] (ring cost 192) vs [3,1,0,2] (ring cost 80): same pairs
    // percentages (Fig. 6 legend).
    let slow = run("1-3-0-2", Collective::Allreduce(AllreduceAlg::Ring));
    let fast = run("3-1-0-2", Collective::Allreduce(AllreduceAlg::Ring));
    assert!(fast < slow, "allreduce ring: {fast} !< {slow}");
    let slow = run("1-3-0-2", Collective::Allgather(AllgatherAlg::Ring));
    let fast = run("3-1-0-2", Collective::Allgather(AllgatherAlg::Ring));
    assert!(fast < slow, "allgather ring: {fast} !< {slow}");
}

/// Fig. 8 claims: (a) some order beats the Slurm default by a double-digit
/// percentage; (b) CPD time strongly correlates with the Alltoallv time of
/// the 16-process communicators; (c) two NICs help on average.
#[test]
fn figure8_splatt_claims() {
    let cfg = SplattConfig {
        iterations: 2,
        ..SplattConfig::nell1_like()
    };
    let machine = Hierarchy::new(vec![32, 2, 2, 8]).unwrap();
    let slurm_default = Permutation::parse("1-3-2-0").unwrap();
    let net1 = hydra_network(32, 1);
    let net2 = hydra_network(32, 2);
    let mut totals1 = Vec::new();
    let mut totals2 = Vec::new();
    let mut smalls = Vec::new();
    let mut default_time = 0.0;
    let mut best = f64::INFINITY;
    for sigma in Permutation::all(4) {
        let c1 = estimate_cpd_time(&cfg, &machine, &sigma, &net1, 15.0e9).unwrap();
        let c2 = estimate_cpd_time(&cfg, &machine, &sigma, &net2, 15.0e9).unwrap();
        if sigma == slurm_default {
            default_time = c1.total;
        }
        best = best.min(c1.total);
        totals1.push(c1.total);
        totals2.push(c2.total);
        smalls.push(c1.small_comm_alltoallv);
    }
    let improvement = (default_time - best) / default_time;
    assert!(
        improvement > 0.10,
        "best order should beat the Slurm default by >10 % (paper: 32 %), got {:.0} %",
        improvement * 100.0
    );
    assert!(
        pearson(&totals1, &smalls) > 0.9,
        "paper reports Pearson 0.98"
    );
    let mean1 = totals1.iter().sum::<f64>() / totals1.len() as f64;
    let mean2 = totals2.iter().sum::<f64>() / totals2.len() as f64;
    assert!(mean2 < mean1, "two NICs must help on average");
}

/// Fig. 8 second-NIC ablation on discrete rails: on 32 Hydra nodes the
/// best of all 24 CPD orders moves from `1-0-3-2` at one rail to the
/// spread `0-1-2-3` at two and `0-1-3-2` at four (round-robin rails).
/// One iteration suffices: every cost term is linear in the iteration
/// count, so the winner is the full run's.
#[test]
fn figure8_rail_count_flips_the_cpd_winner() {
    let cfg = SplattConfig {
        iterations: 1,
        ..SplattConfig::nell1_like()
    };
    let machine = Hierarchy::new(vec![32, 2, 2, 8]).unwrap();
    let sigmas = Permutation::all(4);
    let cache = SharedCostCache::new();
    let winner = |nics: usize| {
        let net = hydra_network_rails(32, nics, RailPolicy::RoundRobin);
        let totals = mixed_radix_enum::core::par::map(&sigmas, |_, sigma| {
            estimate_cpd_time_cached(&cfg, &machine, sigma, &net, 15.0e9, &cache)
                .unwrap()
                .total
        });
        let best = (0..sigmas.len()).min_by(|&a, &b| totals[a].total_cmp(&totals[b]));
        sigmas[best.unwrap()].to_string()
    };
    assert_eq!(
        [winner(1), winner(2), winner(4)],
        ["1-0-3-2", "0-1-2-3", "0-1-3-2"]
    );
}

/// Fig. 9 claims: the default packed mapping is (near-)worst at every
/// process count, and the best 8-process placement beats 32 processes
/// under the default mapping.
#[test]
fn figure9_cg_claims() {
    let node = Hierarchy::new(vec![2, 4, 2, 8]).unwrap();
    let net = lumi_node_network();
    let mem = lumi_node_memory();
    let default_order = Permutation::parse("3-2-1-0").unwrap();
    for log_p in 2..=5 {
        let p = 1usize << log_p;
        let default_cores = map_cpu_list(&node, &default_order, p).unwrap();
        let t_default = estimate_time(&CgClass::C, &default_cores, &net, &mem).unwrap();
        let t_best = Permutation::all(4)
            .into_iter()
            .map(|sigma| {
                let cores = map_cpu_list(&node, &sigma, p).unwrap();
                estimate_time(&CgClass::C, &cores, &net, &mem).unwrap()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            t_default > t_best * 1.2,
            "p={p}: default {t_default} should trail the best {t_best} clearly"
        );
    }
    let eight = map_cpu_list(&node, &Permutation::parse("1-2-0-3").unwrap(), 8).unwrap();
    let t8 = estimate_time(&CgClass::C, &eight, &net, &mem).unwrap();
    let t32_default = {
        let cores = map_cpu_list(&node, &default_order, 32).unwrap();
        estimate_time(&CgClass::C, &cores, &net, &mem).unwrap()
    };
    assert!(
        t8 < t32_default,
        "a quarter of the cores, well placed, must win: {t8} vs {t32_default}"
    );
}
