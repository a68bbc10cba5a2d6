//! Micro-benchmarks of the simulation substrate: the max-min fair
//! contention solver, single contended rounds at cluster scale, and
//! functional collectives on the thread runtime.

use mre_bench::tinybench::{black_box, Bench};
use mre_mpi::schedules;
use mre_mpi::{run, AllreduceAlg, Comm};
use mre_simnet::presets::{hydra_network, lumi_network};
use mre_simnet::{max_min_rates, Message};

fn bench_contention_solver(b: &mut Bench) {
    for &nf in &[64usize, 512, 2048] {
        // Flows over a two-tier link structure (per-core + shared).
        let nl = nf + nf / 16;
        let caps: Vec<f64> = (0..nl).map(|i| if i < nf { 10.0 } else { 100.0 }).collect();
        let flows: Vec<Vec<usize>> = (0..nf).map(|f| vec![f, nf + f / 16]).collect();
        b.bench(&format!("contention/max_min_rates/{nf}"), || {
            max_min_rates(black_box(&flows), black_box(&caps))
        });
    }
}

fn bench_round_time(b: &mut Bench) {
    // A full pairwise round on 512 Hydra ranks and 2048 LUMI ranks.
    let hydra = hydra_network(16, 1);
    let round_hydra: Vec<Message> = (0..512)
        .map(|i| Message::new(i, (i + 37) % 512, 65536))
        .collect();
    b.bench("network/round_time/hydra_512", || {
        hydra.round_time(black_box(&round_hydra))
    });
    let lumi = lumi_network(16);
    let round_lumi: Vec<Message> = (0..2048)
        .map(|i| Message::new(i, (i + 129) % 2048, 65536))
        .collect();
    b.bench("network/round_time/lumi_2048", || {
        lumi.round_time(black_box(&round_lumi))
    });
}

fn bench_schedule_generation(b: &mut Bench) {
    let members: Vec<usize> = (0..512).collect();
    b.bench("schedules/alltoall_pairwise_512", || {
        schedules::alltoall_pairwise(black_box(&members), 4096)
    });
    b.bench("schedules/allreduce_ring_512", || {
        schedules::allreduce_ring(black_box(&members), 1 << 20)
    });
}

fn bench_functional_collectives(b: &mut Bench) {
    b.bench("runtime/allreduce_16ranks_4kB", || {
        run(16, |p| {
            let world = Comm::world(p);
            let data = vec![p.world_rank() as u64; 512];
            world.allreduce(data, |a, b| a + b, AllreduceAlg::Ring)
        })
    });
    b.bench("runtime/split_and_barrier_16ranks", || {
        run(16, |p| {
            let world = Comm::world(p);
            let sub = world.split((p.world_rank() % 4) as i64, 0).unwrap();
            sub.barrier();
        })
    });
}

fn main() {
    let mut b = Bench::from_env();
    bench_contention_solver(&mut b);
    bench_round_time(&mut b);
    bench_schedule_generation(&mut b);
    bench_functional_collectives(&mut b);
    b.finish();
}
