//! Micro-benchmarks of the order-space search engine: O(m·k) pair
//! counting vs the naive O(m²·k) oracle, serial vs parallel order
//! ranking, and serial vs parallel grid sweeps.
//!
//! The serial ranking and sweep numbers are obtained by forcing
//! `MRE_PAR_THREADS=1` around the measurement, so both paths execute the
//! same code.

use mre_bench::tinybench::{black_box, Bench};
use mre_core::metrics::{pair_counts_per_level, pair_counts_per_level_naive};
use mre_core::order_search::{rank_orders_by_par, sweep, SweepSpec};
use mre_core::par::THREADS_ENV;
use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::{Hierarchy, Permutation};
use mre_mpi::AlltoallAlg;
use mre_simnet::presets::hydra_network;
use mre_workloads::microbench::{Collective, Microbench};

/// One LUMI-scale communicator of `m` members (⟦16,2,4,2,8⟧ = 2048 cores,
/// spread order), the member-list shape the figure sweeps characterize.
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

fn bench_pair_counts(b: &mut Bench) {
    for &m in &[64usize, 512, 2048] {
        let (lumi, members) = lumi_members(m);
        b.bench(&format!("pair_counts/naive/{m}"), || {
            pair_counts_per_level_naive(black_box(&lumi), black_box(&members))
        });
        b.bench(&format!("pair_counts/fast/{m}"), || {
            pair_counts_per_level(black_box(&lumi), black_box(&members))
        });
    }
}

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

fn bench_ranking(b: &mut Bench) {
    let machine = Hierarchy::new(vec![4, 2, 2, 8]).unwrap();
    let net = hydra_network(4, 1);
    let cost = |sigma: &Permutation| contended_duration(&machine, &net, sigma, 16, 1 << 20);
    std::env::set_var(THREADS_ENV, "1");
    b.bench("rank_orders/serial/24", || {
        rank_orders_by_par(black_box(&machine), 16, cost).unwrap()
    });
    std::env::remove_var(THREADS_ENV);
    b.bench(
        &format!("rank_orders/parallel{}/24", mre_core::par::threads()),
        || rank_orders_by_par(black_box(&machine), 16, cost).unwrap(),
    );
}

fn bench_sweep(b: &mut Bench) {
    let machine = Hierarchy::new(vec![4, 2, 2, 8]).unwrap();
    let net = hydra_network(4, 1);
    let spec = SweepSpec {
        subcomm_sizes: vec![16, 32],
        payload_sizes: vec![1 << 16, 1 << 20],
    };
    let cost = |sigma: &Permutation, subcomm_size: usize, bytes: u64| {
        contended_duration(&machine, &net, sigma, subcomm_size, bytes)
    };
    std::env::set_var(THREADS_ENV, "1");
    b.bench("sweep/serial/2x2-grid", || {
        sweep(black_box(&machine), &spec, cost).unwrap()
    });
    std::env::remove_var(THREADS_ENV);
    b.bench(
        &format!("sweep/parallel{}/2x2-grid", mre_core::par::threads()),
        || sweep(black_box(&machine), &spec, cost).unwrap(),
    );
}

fn main() {
    let mut b = Bench::from_env();
    bench_pair_counts(&mut b);
    bench_ranking(&mut b);
    bench_sweep(&mut b);
    b.finish();
}
