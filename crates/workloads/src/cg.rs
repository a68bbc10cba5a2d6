//! A NAS-CG-shaped conjugate gradient benchmark.
//!
//! Mirrors the NPB CG kernel (Bailey et al. 1991): repeated conjugate-
//! gradient solves on a random sparse symmetric positive-definite matrix.
//! Three pieces:
//!
//! * [`SparseMatrix`] and [`generate_matrix`] — an NPB-style random SPD
//!   matrix (a few off-diagonal entries per row, symmetrized, with a
//!   diagonal shift for positive definiteness);
//! * [`cg_sequential`] / [`cg_distributed`] — a reference solver and a
//!   row-block distributed solver over the thread runtime (dot products by
//!   Allreduce, operand vector by ring Allgather), tested to agree;
//! * [`CgClass`] and [`estimate_time`] — the NPB class parameters and the
//!   strong-scaling cost model of Fig. 9: a roofline compute phase on the
//!   shared memory system of the selected cores plus the NPB 2D-grid
//!   communication pattern costed on the intra-node network.

use mre_core::Error;
use mre_mpi::{run, run_instrumented, AllgatherAlg, AllreduceAlg, Comm, Proc};
use mre_simnet::{MemoryModel, Message, NetworkModel, Round, Schedule};
use mre_trace::{EventKind, MetricsRegistry, Recorder};

/// Compressed sparse row matrix.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    /// Matrix dimension.
    pub n: usize,
    /// Row pointer array (`n + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices.
    pub cols: Vec<usize>,
    /// Values.
    pub vals: Vec<f64>,
}

impl SparseMatrix {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// `y = A·x` for the given rows range (half-open).
    pub fn spmv_rows(&self, x: &[f64], rows: std::ops::Range<usize>, y: &mut [f64]) {
        for (out, i) in y.iter_mut().zip(rows) {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[k] * x[self.cols[k]];
            }
            *out = acc;
        }
    }

    /// `y = A·x` over all rows.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.spmv_rows(x, 0..self.n, &mut y);
        y
    }
}

/// Generates an NPB-style random sparse SPD matrix: `nonzer` random
/// off-diagonal entries per row, symmetrized, diagonal set to the row's
/// absolute sum plus `shift` (strict diagonal dominance ⇒ SPD).
pub fn generate_matrix(n: usize, nonzer: usize, shift: f64, seed: u64) -> SparseMatrix {
    use mre_rng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    // Collect symmetric off-diagonal entries in a map per row.
    let mut rows: Vec<std::collections::BTreeMap<usize, f64>> =
        vec![std::collections::BTreeMap::new(); n];
    for i in 0..n {
        for _ in 0..nonzer {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v = rng.gen_range(-1.0..1.0);
            rows[i].insert(j, v);
            rows[j].insert(i, v);
        }
    }
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let offdiag_sum: f64 = rows[i].values().map(|v| v.abs()).sum();
        // Entries before the diagonal, the diagonal, entries after —
        // BTreeMap keeps columns sorted.
        let mut inserted_diag = false;
        let row: Vec<(usize, f64)> = rows[i].iter().map(|(&j, &v)| (j, v)).collect();
        for (j, v) in row {
            if j > i && !inserted_diag {
                cols.push(i);
                vals.push(offdiag_sum + shift);
                inserted_diag = true;
            }
            cols.push(j);
            vals.push(v);
        }
        if !inserted_diag {
            cols.push(i);
            vals.push(offdiag_sum + shift);
        }
        row_ptr.push(cols.len());
    }
    SparseMatrix {
        n,
        row_ptr,
        cols,
        vals,
    }
}

/// Sequential CG: solves `A·x = b` for `iterations` steps from `x = 0`,
/// returning `(x, final residual norm)`.
pub fn cg_sequential(a: &SparseMatrix, b: &[f64], iterations: usize) -> (Vec<f64>, f64) {
    let n = a.n;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rho: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..iterations {
        let q = a.spmv(&p);
        let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        if pq == 0.0 {
            break;
        }
        let alpha = rho / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    (x, rho.sqrt())
}

/// Distributed CG over the thread runtime: row-block partition, operand
/// vector reassembled by ring Allgather, dot products by Allreduce.
/// Returns each rank's `(local x block, residual norm)`.
pub fn cg_distributed(
    a: &SparseMatrix,
    b: &[f64],
    iterations: usize,
    nprocs: usize,
) -> Vec<(Vec<f64>, f64)> {
    run(nprocs, move |proc_| cg_rank(a, b, iterations, proc_))
}

/// [`cg_distributed`] with both instrumentation channels optional: a
/// wall-clock recorder, into which each rank records its compute phases
/// (as `spmv`/`axpy` phase spans) and every collective, send and receive
/// wait, and/or a metrics registry (message counts, bytes, receive-wait
/// time and per-algorithm collective counts).
pub fn cg_distributed_instrumented(
    a: &SparseMatrix,
    b: &[f64],
    iterations: usize,
    nprocs: usize,
    recorder: Option<&Recorder>,
    metrics: Option<&MetricsRegistry>,
) -> Vec<(Vec<f64>, f64)> {
    run_instrumented(nprocs, recorder, metrics, move |proc_| {
        cg_rank(a, b, iterations, proc_)
    })
}

/// The costed-schedule counterpart of the distributed CG solver's
/// communication: the exact sequence of collectives the per-rank solver issues —
/// one scalar recursive-doubling Allreduce up front, then per iteration a
/// ring Allgather of the operand vector, a scalar ring Allreduce and a
/// scalar recursive-doubling Allreduce — generated from the same schedule
/// builders the functional collectives mirror. `members[r]` is the global
/// core of MPI rank `r`. Byte sizes match the runtime payloads (each
/// allgather block carries a `usize` index plus `n/p` doubles; scalar
/// allreduces move one double); for ragged blocks (`n % p != 0`) the
/// schedule uses the uniform `n/p` size — the `(src, dst)` pattern, which
/// is what trace diffing aligns on, is unaffected.
pub fn cg_comm_schedule(members: &[usize], n: usize, iterations: usize) -> Schedule {
    use mre_mpi::schedules as sched;
    let p = members.len().max(1);
    let block_bytes = ((n / p) * 8 + 8) as u64;
    let mut s = sched::allreduce_recursive_doubling(members, 8);
    for _ in 0..iterations {
        s.then(sched::allgather_ring(members, block_bytes));
        s.then(sched::allreduce_ring(members, 8));
        s.then(sched::allreduce_recursive_doubling(members, 8));
    }
    s
}

/// One rank's CG solve; the shared body of the traced and untraced entry
/// points (the only difference is whether `proc_` carries a recorder).
fn cg_rank(a: &SparseMatrix, b: &[f64], iterations: usize, proc_: &Proc) -> (Vec<f64>, f64) {
    let n = a.n;
    let world = Comm::world(proc_);
    let p_count = world.size();
    let me = world.rank();
    let (lo, hi) = block_bounds(n, p_count, me);
    let mut x = vec![0.0; hi - lo];
    let mut r: Vec<f64> = b[lo..hi].to_vec();
    let mut p: Vec<f64> = r.clone();
    let local_rho: f64 = r.iter().map(|v| v * v).sum();
    let mut rho = world.allreduce(
        vec![local_rho],
        |a, b| a + b,
        AllreduceAlg::RecursiveDoubling,
    )[0];
    for _ in 0..iterations {
        // Reassemble the full p by allgather (blocks may be ragged).
        let gathered = world.allgather(p.clone(), AllgatherAlg::Ring);
        let full_p: Vec<f64> = gathered.into_iter().flatten().collect();
        let mut q = vec![0.0; hi - lo];
        {
            let _phase = proc_
                .recorder()
                .map(|rec| rec.span("spmv", EventKind::Phase));
            a.spmv_rows(&full_p, lo..hi, &mut q);
        }
        let local_pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let pq = world.allreduce(vec![local_pq], |a, b| a + b, AllreduceAlg::Ring)[0];
        if pq == 0.0 {
            break;
        }
        let alpha = rho / pq;
        let local_rho: f64 = {
            let _phase = proc_
                .recorder()
                .map(|rec| rec.span("axpy", EventKind::Phase));
            for i in 0..x.len() {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            r.iter().map(|v| v * v).sum()
        };
        let rho_new = world.allreduce(
            vec![local_rho],
            |a, b| a + b,
            AllreduceAlg::RecursiveDoubling,
        )[0];
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..p.len() {
            p[i] = r[i] + beta * p[i];
        }
    }
    (x, rho.sqrt())
}

fn block_bounds(n: usize, p: usize, rank: usize) -> (usize, usize) {
    let base = n / p;
    let extra = n % p;
    let lo = rank * base + rank.min(extra);
    (lo, lo + base + usize::from(rank < extra))
}

/// NPB CG problem classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgClass {
    /// Class letter.
    pub name: char,
    /// Matrix dimension.
    pub n: usize,
    /// Off-diagonal nonzeros generated per row.
    pub nonzer: usize,
    /// CG iterations per benchmark run.
    pub iterations: usize,
}

impl CgClass {
    /// Class S (the toy size).
    pub const S: CgClass = CgClass {
        name: 'S',
        n: 1400,
        nonzer: 7,
        iterations: 15,
    };
    /// Class A.
    pub const A: CgClass = CgClass {
        name: 'A',
        n: 14000,
        nonzer: 11,
        iterations: 15,
    };
    /// Class B.
    pub const B: CgClass = CgClass {
        name: 'B',
        n: 75000,
        nonzer: 13,
        iterations: 75,
    };
    /// Class C — the Fig. 9 setting.
    pub const C: CgClass = CgClass {
        name: 'C',
        n: 150000,
        nonzer: 15,
        iterations: 75,
    };

    /// Inner CG iterations per outer step (`cgitmax` in NPB).
    pub const INNER_ITERATIONS: usize = 25;

    /// NPB's stored-nonzero count, `≈ n · nonzer · (nonzer + 1)`: the
    /// outer-product fill of the NPB generator (class A: 1.85 M, class C:
    /// 36 M). Our simplified functional generator is sparser
    /// (`≈ 2·n·nonzer`); the cost model uses the NPB density.
    pub fn approx_nnz(&self) -> usize {
        self.n * self.nonzer * (self.nonzer + 1)
    }
}

/// Estimated duration of the CG benchmark on the given cores (Fig. 9's
/// quantity).
///
/// `cores` is the placement: `cores[r]` is the core of MPI rank `r`;
/// `net`/`mem` must describe the node the cores live on. The model follows
/// the NPB 2D decomposition: a power-of-two process count is factored into
/// `nprows × npcols` (`npcols ≥ nprows`); each iteration performs
///
/// * one roofline compute phase (local SpMV + vector operations, streaming
///   from the shared memory system of the active cores),
/// * `log₂(npcols)` row-wise partial-sum exchange rounds, a transpose
///   exchange on square grids, and three scalar Allreduces.
pub fn estimate_time(
    class: &CgClass,
    cores: &[usize],
    net: &NetworkModel,
    mem: &MemoryModel,
) -> Result<f64, Error> {
    let p = cores.len();
    if p == 0 || !p.is_power_of_two() {
        return Err(Error::Parse {
            message: format!("NPB CG requires a power-of-two process count, got {p}"),
        });
    }
    let log_p = p.trailing_zeros() as usize;
    let npcols = 1usize << log_p.div_ceil(2);
    let nprows = p / npcols;
    let n = class.n;
    let nnz = class.approx_nnz();

    // --- compute phase (per iteration, per core) -------------------------
    // SpMV streams the local matrix block (8 B value + 4 B index per nnz)
    // plus the operand/result vectors; the vector updates (3 AXPYs + 2
    // dots) stream ~10 vector passes of the local block.
    let local_rows = n / nprows;
    let bytes = (nnz / p) as f64 * 12.0 + (local_rows as f64) * 8.0 * 10.0;
    let flops = 2.0 * (nnz / p) as f64 + 10.0 * local_rows as f64;
    let compute = mem.phase_time(cores, bytes, flops);

    // --- communication (per iteration) -----------------------------------
    // All processor rows exchange simultaneously → cost them together.
    let mut comm = Schedule::new();
    // Row-wise reduction of the partial SpMV results: log2(npcols) rounds
    // of recursive halving (message size halves every round).
    let mut hop = 1usize;
    let mut seg_bytes = (local_rows as u64 * 8) / 2;
    while hop < npcols {
        let mut round = Round::new();
        for r in 0..p {
            let row = r / npcols;
            let col = r % npcols;
            let partner = row * npcols + (col ^ hop);
            round.push(Message::new(cores[r], cores[partner], seg_bytes.max(8)));
        }
        comm.push(round);
        hop <<= 1;
        seg_bytes /= 2;
    }
    // Transpose exchange (square grids only; rectangular grids in NPB use
    // a cheaper intra-pair exchange which we fold into the reduction).
    if npcols == nprows {
        let mut round = Round::new();
        for r in 0..p {
            let row = r / npcols;
            let col = r % npcols;
            let partner = col * npcols + row;
            if partner != r {
                round.push(Message::new(
                    cores[r],
                    cores[partner],
                    (local_rows as u64) * 8,
                ));
            }
        }
        comm.push(round);
    }
    // Three scalar allreduces (rho, p·q, rho'): latency-bound.
    for _ in 0..3 {
        comm.then(mre_mpi::schedules::allreduce_recursive_doubling(cores, 8));
    }
    let comm_time = net.schedule_time(&comm);

    let total_cg_iterations = (class.iterations * CgClass::INNER_ITERATIONS) as f64;
    Ok(total_cg_iterations * (compute + comm_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mre_core::core_select::map_cpu_list;
    use mre_core::{Hierarchy, Permutation};
    use mre_simnet::presets::{lumi_node_memory, lumi_node_network};

    #[test]
    fn generator_is_symmetric_and_diagonally_dominant() {
        let a = generate_matrix(50, 4, 0.5, 7);
        assert_eq!(a.row_ptr.len(), 51);
        // Symmetry: collect entries into a map and compare transposed.
        let mut entries = std::collections::HashMap::new();
        for i in 0..50 {
            let mut diag = 0.0f64;
            let mut offsum = 0.0f64;
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                let (j, v) = (a.cols[k], a.vals[k]);
                if j == i {
                    diag = v;
                } else {
                    offsum += v.abs();
                    entries.insert((i, j), v);
                }
            }
            assert!(diag > offsum, "row {i} not diagonally dominant");
        }
        for (&(i, j), &v) in &entries {
            assert_eq!(entries.get(&(j, i)), Some(&v), "asymmetric at ({i},{j})");
        }
    }

    #[test]
    fn sequential_cg_converges() {
        let a = generate_matrix(80, 4, 1.0, 3);
        let b = vec![1.0; 80];
        let (x, res) = cg_sequential(&a, &b, 60);
        assert!(res < 1e-8, "residual {res}");
        // Check A·x ≈ b.
        let ax = a.spmv(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-6);
        }
    }

    #[test]
    fn distributed_cg_matches_sequential() {
        let a = generate_matrix(64, 3, 1.0, 11);
        let b: Vec<f64> = (0..64).map(|i| (i % 5) as f64 - 2.0).collect();
        let (x_seq, res_seq) = cg_sequential(&a, &b, 25);
        for p in [1, 2, 3, 4, 8] {
            let results = cg_distributed(&a, &b, 25, p);
            let x_dist: Vec<f64> = results.iter().flat_map(|(x, _)| x.clone()).collect();
            assert_eq!(x_dist.len(), 64);
            for (d, s) in x_dist.iter().zip(&x_seq) {
                assert!((d - s).abs() < 1e-8, "p={p}");
            }
            for (_, res) in &results {
                assert!((res - res_seq).abs() < 1e-8, "p={p}");
            }
        }
    }

    #[test]
    fn traced_cg_matches_untraced_and_records_phases() {
        let a = generate_matrix(48, 3, 1.0, 5);
        let b: Vec<f64> = (0..48).map(|i| (i % 3) as f64).collect();
        let recorder = Recorder::new();
        let traced = cg_distributed_instrumented(&a, &b, 10, 4, Some(&recorder), None);
        let untraced = cg_distributed(&a, &b, 10, 4);
        for ((xt, rt), (xu, ru)) in traced.iter().zip(&untraced) {
            assert_eq!(xt, xu, "tracing must not change results");
            assert_eq!(rt, ru);
        }
        let trace = recorder.take_trace();
        assert_eq!(trace.lanes(), vec![0, 1, 2, 3]);
        for rank in 0..4 {
            let spmv = trace
                .events
                .iter()
                .filter(|e| e.lane == rank && e.kind == EventKind::Phase && e.name == "spmv")
                .count();
            assert_eq!(spmv, 10, "one spmv phase per iteration on rank {rank}");
            assert!(trace.events.iter().any(|e| e.lane == rank
                && e.kind == EventKind::Collective
                && e.name == "allgather:ring"));
        }
    }

    fn toy_net_4() -> NetworkModel {
        // ⟦2,2⟧: 4 cores, two hierarchy levels.
        let h = Hierarchy::new(vec![2, 2]).unwrap();
        NetworkModel::new(
            h,
            vec![
                mre_simnet::LinkParams {
                    uplink_bandwidth: 1e9,
                    crossing_latency: 1e-6,
                },
                mre_simnet::LinkParams {
                    uplink_bandwidth: 4e9,
                    crossing_latency: 2e-7,
                },
            ],
            1e10,
        )
    }

    #[test]
    fn trace_diff_aligns_traced_cg_with_its_costed_schedule() {
        use mre_trace::{critical_path, diff_traces, schedule_trace, DiffOptions};
        let n = 64;
        let iters = 10;
        let p = 4;
        let a = generate_matrix(n, 3, 1.0, 5);
        let b = vec![1.0; n];
        let recorder = Recorder::new();
        cg_distributed_instrumented(&a, &b, iters, p, Some(&recorder), None);
        let wall = recorder.take_trace();

        let net = toy_net_4();
        let cores = vec![0, 1, 2, 3];
        let schedule = cg_comm_schedule(&cores, n, iters);
        let tl = net.schedule_timeline(&schedule).unwrap();
        let sim = schedule_trace(net.hierarchy(), &tl, "cg");
        let d = diff_traces(&wall, &sim, &DiffOptions { cores });

        // The schedule generators mirror the functional collectives'
        // (src, dst) pairs one-to-one, so everything aligns.
        assert!(
            d.matched_fraction >= 0.95,
            "matched fraction {} (wall unmatched {}, sim unmatched {})",
            d.matched_fraction,
            d.unmatched_wall,
            d.unmatched_sim,
        );
        assert_eq!(d.unmatched_sim, 0, "every simulated span must align");
        assert!(d.fidelity > 0.0 && d.fidelity <= 1.0);
        assert!(!d.levels.is_empty(), "per-level skew must be reported");

        // Consistency with the critical-path identity of the timeline:
        // the matched simulated spans are exactly the timeline's
        // messages, and the path end equals the costed schedule time.
        let sim_total: f64 = d.spans.iter().map(|s| s.sim_duration).sum();
        let tl_total: f64 = tl.messages().map(|m| m.finish - m.start).sum();
        assert!((sim_total - tl_total).abs() <= 1e-12 * tl_total.max(1.0));
        let cp = critical_path(net.hierarchy(), &tl);
        assert!((cp.total_time - tl.total_time()).abs() <= 1e-12 * tl.total_time());
    }

    #[test]
    fn instrumented_cg_collects_runtime_metrics() {
        let n = 48;
        let a = generate_matrix(n, 3, 1.0, 5);
        let b = vec![1.0; n];
        let metrics = MetricsRegistry::new();
        let plain = cg_distributed(&a, &b, 5, 4);
        let metered = cg_distributed_instrumented(&a, &b, 5, 4, None, Some(&metrics));
        for ((xm, rm), (xp, rp)) in metered.iter().zip(&plain) {
            assert_eq!(xm, xp, "metrics must not change results");
            assert_eq!(rm, rp);
        }
        let snap = metrics.snapshot();
        assert!(snap.counter("mpi.send.count") > 0);
        assert_eq!(
            snap.counter("mpi.send.bytes"),
            snap.counter("mpi.recv.bytes"),
            "every sent byte is received"
        );
        // One ring allgather per iteration on each of 4 ranks.
        assert_eq!(snap.counter("mpi.collective.allgather:ring"), 5 * 4);
        assert!(snap.histogram("mpi.recv.wait_seconds").is_some());
    }

    #[test]
    fn class_parameters() {
        assert_eq!(CgClass::C.n, 150000);
        assert_eq!(CgClass::C.iterations, 75);
        assert!(CgClass::S.approx_nnz() < CgClass::A.approx_nnz());
    }

    fn cores_for(order: &[usize], nprocs: usize) -> Vec<usize> {
        let node = Hierarchy::new(vec![2, 4, 2, 8]).unwrap();
        let sigma = Permutation::new(order.to_vec()).unwrap();
        map_cpu_list(&node, &sigma, nprocs).unwrap()
    }

    #[test]
    fn one_core_per_l3_beats_packed_at_8_procs() {
        // Fig. 9, 8 processes: orders using one core per L3 cache of the
        // first socket win; the packed (Slurm default) selection is worst.
        let net = lumi_node_network();
        let mem = lumi_node_memory();
        let per_l3 = cores_for(&[2, 1, 0, 3], 8); // one per L3, socket 0 first
        let packed = cores_for(&[3, 2, 1, 0], 8); // cores 0..8 (block:block)
        let t_l3 = estimate_time(&CgClass::C, &per_l3, &net, &mem).unwrap();
        let t_packed = estimate_time(&CgClass::C, &packed, &net, &mem).unwrap();
        assert!(t_l3 < t_packed, "per-L3 {t_l3} vs packed {t_packed}");
    }

    #[test]
    fn eight_good_cores_beat_32_packed_cores() {
        // Fig. 9's headline: CG with 8 well-placed processes outperforms
        // 32 processes under the default packed mapping.
        let net = lumi_node_network();
        let mem = lumi_node_memory();
        let eight = cores_for(&[1, 2, 0, 3], 8);
        let thirty_two_packed = cores_for(&[3, 2, 1, 0], 32);
        let t8 = estimate_time(&CgClass::C, &eight, &net, &mem).unwrap();
        let t32 = estimate_time(&CgClass::C, &thirty_two_packed, &net, &mem).unwrap();
        assert!(t8 < t32, "8 good cores {t8} vs 32 packed {t32}");
    }

    #[test]
    fn scaling_saturates_beyond_16_processes() {
        // Fig. 9: parallel efficiency collapses past 16 processes — the
        // best 32-process time is nowhere near half the best 16-process
        // time.
        let net = lumi_node_network();
        let mem = lumi_node_memory();
        let node = Hierarchy::new(vec![2, 4, 2, 8]).unwrap();
        let best = |nproc: usize| {
            Permutation::all(4)
                .into_iter()
                .map(|sigma| {
                    let cores = map_cpu_list(&node, &sigma, nproc).unwrap();
                    estimate_time(&CgClass::C, &cores, &net, &mem).unwrap()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let t16 = best(16);
        let t32 = best(32);
        assert!(
            t32 > t16 * 0.55,
            "no perfect scaling expected: {t16} → {t32}"
        );
    }

    #[test]
    fn estimate_rejects_non_power_of_two() {
        let net = lumi_node_network();
        let mem = lumi_node_memory();
        assert!(estimate_time(&CgClass::S, &[0, 1, 2], &net, &mem).is_err());
        assert!(estimate_time(&CgClass::S, &[], &net, &mem).is_err());
    }
}
