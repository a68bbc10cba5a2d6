//! A Splatt-shaped sparse CP-ALS (Canonical Polyadic Decomposition).
//!
//! Splatt (Smith et al. 2015) computes the CPD of a sparse tensor with a
//! medium-grained 3D decomposition: the process grid `(g₀, g₁, g₂)`
//! induces, for each mode `m`, *layer communicators* grouping the
//! processes that share the `m`-th grid coordinate. Profiling the paper's
//! 1024-process run on the `nell-1` tensor with mpisee found 3
//! communicators of 1024, 8 of 256, and 64 of 16 processes, with
//! `MPI_Alltoallv` on the 16-process communicators dominating — that is
//! the grid `4 × 4 × 64` (two modes of 4 → 4+4 = 8 layer comms of 256,
//! one mode of 64 → 64 comms of 16).
//!
//! Two pieces:
//!
//! * a **functional** CP-ALS on the thread runtime ([`cpd_distributed`]):
//!   nonzeros are partitioned over the grid, per-mode partial MTTKRP
//!   results are combined inside the mode's layer communicators, and the
//!   result is verified against a sequential reference ([`cpd_sequential`]);
//! * a **cost model** ([`estimate_cpd_time`]): per ALS iteration and mode,
//!   every layer communicator performs an Alltoallv of factor-matrix rows
//!   (all layer comms of a mode concurrently — costed under contention),
//!   plus world-wide Allreduces for λ and the fit, plus an MTTKRP compute
//!   phase. The per-order durations of Fig. 8 come from this model.

use mre_core::{Error, Hierarchy, Permutation};
use mre_mpi::schedules;
use mre_mpi::{run, run_instrumented, run_traced, AllreduceAlg, Comm, Proc};
use mre_simnet::{NetworkModel, Schedule, SharedCostCache};
use mre_trace::{EventKind, MetricsRegistry, Recorder};

// ---------------------------------------------------------------------------
// Sparse tensors and the sequential reference
// ---------------------------------------------------------------------------

/// A third-order sparse tensor in coordinate format.
#[derive(Debug, Clone)]
pub struct SparseTensor {
    /// Mode sizes.
    pub dims: [usize; 3],
    /// Nonzero coordinates.
    pub indices: Vec<[usize; 3]>,
    /// Nonzero values.
    pub values: Vec<f64>,
}

impl SparseTensor {
    /// Number of nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Frobenius norm squared.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }
}

/// Generates a random sparse tensor with `nnz` entries (duplicates
/// collapsed), reproducible from `seed`.
pub fn generate_tensor(dims: [usize; 3], nnz: usize, seed: u64) -> SparseTensor {
    use mre_rng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut map = std::collections::BTreeMap::new();
    while map.len() < nnz {
        let idx = [
            rng.gen_range(0..dims[0]),
            rng.gen_range(0..dims[1]),
            rng.gen_range(0..dims[2]),
        ];
        map.entry(idx).or_insert_with(|| rng.gen_range(0.1..1.0));
    }
    let (indices, values) = map.into_iter().unzip();
    SparseTensor {
        dims,
        indices,
        values,
    }
}

/// Dense factor matrix: `rows × rank`, row-major.
pub type Factor = Vec<Vec<f64>>;

fn init_factor(rows: usize, rank: usize, seed: u64) -> Factor {
    use mre_rng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| (0..rank).map(|_| rng.gen_range(0.1..1.0)).collect())
        .collect()
}

/// MTTKRP for mode `m` over the given nonzero range: accumulates
/// `out[i_m] += value · (f_a[i_a] ⊙ f_b[i_b])`.
fn mttkrp_partial(
    tensor: &SparseTensor,
    range: std::ops::Range<usize>,
    m: usize,
    factors: &[Factor; 3],
    rank: usize,
    out: &mut [Vec<f64>],
) {
    let (a, b) = match m {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    for k in range {
        let idx = tensor.indices[k];
        let v = tensor.values[k];
        let fa = &factors[a][idx[a]];
        let fb = &factors[b][idx[b]];
        let row = &mut out[idx[m]];
        for r in 0..rank {
            row[r] += v * fa[r] * fb[r];
        }
    }
}

/// One ALS half-step: solve for the mode-`m` factor given the MTTKRP
/// result and the Gram matrices of the other two factors (with a small
/// ridge for stability).
fn solve_factor(mttkrp: &[Vec<f64>], gram: &[Vec<f64>], rank: usize) -> Factor {
    // Solve X · G = M for every row: G is rank × rank SPD (+ ridge);
    // use Gaussian elimination per factor update (rank is small).
    let mut g = gram.to_vec();
    for (r, row) in g.iter_mut().enumerate() {
        row[r] += 1e-9;
    }
    let inv = invert(&g, rank);
    mttkrp
        .iter()
        .map(|row| {
            (0..rank)
                .map(|j| (0..rank).map(|i| row[i] * inv[i][j]).sum())
                .collect()
        })
        .collect()
}

fn invert(g: &[Vec<f64>], n: usize) -> Vec<Vec<f64>> {
    let mut a: Vec<Vec<f64>> = g.to_vec();
    let mut inv: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| f64::from(u8::from(i == j))).collect())
        .collect();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .expect("non-empty pivot range");
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let d = a[col][col];
        assert!(d.abs() > 1e-300, "singular Gram matrix");
        for j in 0..n {
            a[col][j] /= d;
            inv[col][j] /= d;
        }
        for row in 0..n {
            if row != col {
                let f = a[row][col];
                if f != 0.0 {
                    for j in 0..n {
                        a[row][j] -= f * a[col][j];
                        inv[row][j] -= f * inv[col][j];
                    }
                }
            }
        }
    }
    inv
}

fn gram(f: &Factor, rank: usize) -> Vec<Vec<f64>> {
    let mut g = vec![vec![0.0; rank]; rank];
    for row in f {
        for i in 0..rank {
            for j in 0..rank {
                g[i][j] += row[i] * row[j];
            }
        }
    }
    g
}

fn hadamard(a: &[Vec<f64>], b: &[Vec<f64>], rank: usize) -> Vec<Vec<f64>> {
    (0..rank)
        .map(|i| (0..rank).map(|j| a[i][j] * b[i][j]).collect())
        .collect()
}

/// Relative CPD fit: `1 − ‖X − ⟦A,B,C⟧‖ / ‖X‖` (computed at the nonzeros
/// plus the model norm, the standard sparse-fit formula).
pub fn cpd_fit(tensor: &SparseTensor, factors: &[Factor; 3], rank: usize) -> f64 {
    let norm_x_sq = tensor.norm_sq();
    // ⟨X, model⟩ over nonzeros.
    let mut inner = 0.0;
    for (idx, &v) in tensor.indices.iter().zip(&tensor.values) {
        let mut s = 0.0;
        #[allow(clippy::needless_range_loop)] // three parallel factor rows
        for r in 0..rank {
            s += factors[0][idx[0]][r] * factors[1][idx[1]][r] * factors[2][idx[2]][r];
        }
        inner += v * s;
    }
    // ‖model‖² = 1ᵀ (G₀ ∘ G₁ ∘ G₂) 1.
    let g = hadamard(
        &hadamard(&gram(&factors[0], rank), &gram(&factors[1], rank), rank),
        &gram(&factors[2], rank),
        rank,
    );
    let norm_m_sq: f64 = g.iter().flatten().sum();
    let resid_sq = (norm_x_sq - 2.0 * inner + norm_m_sq).max(0.0);
    1.0 - (resid_sq.sqrt() / norm_x_sq.sqrt())
}

/// Sequential CP-ALS reference: returns the factors and the fit after
/// `iterations` sweeps.
pub fn cpd_sequential(
    tensor: &SparseTensor,
    rank: usize,
    iterations: usize,
    seed: u64,
) -> ([Factor; 3], f64) {
    let mut factors: [Factor; 3] = [
        init_factor(tensor.dims[0], rank, seed),
        init_factor(tensor.dims[1], rank, seed + 1),
        init_factor(tensor.dims[2], rank, seed + 2),
    ];
    for _ in 0..iterations {
        for m in 0..3 {
            let (a, b) = match m {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            let mut mttkrp = vec![vec![0.0; rank]; tensor.dims[m]];
            mttkrp_partial(tensor, 0..tensor.nnz(), m, &factors, rank, &mut mttkrp);
            let g = hadamard(&gram(&factors[a], rank), &gram(&factors[b], rank), rank);
            factors[m] = solve_factor(&mttkrp, &g, rank);
        }
    }
    let fit = cpd_fit(tensor, &factors, rank);
    (factors, fit)
}

// ---------------------------------------------------------------------------
// Distributed CP-ALS (functional, medium-grained communicator structure)
// ---------------------------------------------------------------------------

/// Distributed CP-ALS over the thread runtime with the medium-grained
/// layer-communicator structure: nonzeros are partitioned over the 3D grid
/// and each mode's partial MTTKRP is summed inside that mode's layer
/// communicators (plus a world combine across layers). Factors are
/// replicated per rank for verification purposes. Returns every rank's
/// fit (all equal) — tested to match [`cpd_sequential`].
pub fn cpd_distributed(
    tensor: &SparseTensor,
    rank: usize,
    iterations: usize,
    grid: [usize; 3],
    seed: u64,
) -> Vec<f64> {
    let nprocs = grid[0] * grid[1] * grid[2];
    run(nprocs, move |proc_| {
        cpd_rank(tensor, rank, iterations, grid, seed, proc_)
    })
}

/// [`cpd_distributed`] with wall-clock tracing: per-mode MTTKRP compute
/// phases and every layer/world collective are recorded into `recorder`.
pub fn cpd_distributed_traced(
    tensor: &SparseTensor,
    rank: usize,
    iterations: usize,
    grid: [usize; 3],
    seed: u64,
    recorder: &Recorder,
) -> Vec<f64> {
    let nprocs = grid[0] * grid[1] * grid[2];
    run_traced(nprocs, recorder, move |proc_| {
        cpd_rank(tensor, rank, iterations, grid, seed, proc_)
    })
}

/// [`cpd_distributed`] with both instrumentation channels optional: a
/// wall-clock recorder and/or a metrics registry (message counts, bytes,
/// receive-wait time and per-algorithm collective counts) — the entry
/// point `trace_diff --workload cpd` runs.
pub fn cpd_distributed_instrumented(
    tensor: &SparseTensor,
    rank: usize,
    iterations: usize,
    grid: [usize; 3],
    seed: u64,
    recorder: Option<&Recorder>,
    metrics: Option<&MetricsRegistry>,
) -> Vec<f64> {
    let nprocs = grid[0] * grid[1] * grid[2];
    run_instrumented(nprocs, recorder, metrics, move |proc_| {
        cpd_rank(tensor, rank, iterations, grid, seed, proc_)
    })
}

/// The costed-schedule counterpart of the distributed CP-ALS
/// communication: three ring Allgathers up front (the `MPI_Comm_split`
/// of each mode's layer communicator gathers every rank's `(color, key)`
/// pair over a ring), then per iteration and mode `m`, every layer
/// communicator runs a ring Allreduce of the partial MTTKRP
/// (`dims[m] · rank` doubles) — all layers of the mode in lockstep, they
/// are disjoint — followed by the world-wide ring Allreduce combining
/// the layers. Generated from the same schedule builders the functional
/// collectives mirror, so [`mre_trace::diff_traces`] aligns it
/// span-by-span with a recorded [`cpd_distributed_traced`] run.
/// `members[r]` is the global core of MPI rank `r` (grid coordinates are
/// row-major, mode 2 fastest, exactly as [`cpd_distributed`] splits its
/// world).
pub fn cpd_comm_schedule(
    members: &[usize],
    dims: [usize; 3],
    rank: usize,
    grid: [usize; 3],
    iterations: usize,
) -> Schedule {
    use mre_mpi::schedules as sched;
    let p: usize = grid.iter().product();
    assert_eq!(members.len(), p, "members must cover the full grid");
    let coords = |r: usize| {
        [
            r / (grid[1] * grid[2]),
            (r / grid[2]) % grid[1],
            r % grid[2],
        ]
    };
    let mut s = Schedule::new();
    // Layer-communicator construction: one world ring Allgather of the
    // 16-byte (color, key) pair per mode.
    for _ in 0..3 {
        s.then(sched::allgather_ring(members, 16));
    }
    for _ in 0..iterations {
        for m in 0..3 {
            let bytes = (dims[m] * rank * 8) as u64;
            let mut layers: Vec<Vec<usize>> = vec![Vec::new(); grid[m]];
            for (r, &core) in members.iter().enumerate() {
                layers[coords(r)[m]].push(core);
            }
            let layer_schedules: Vec<Schedule> = layers
                .iter()
                .map(|mem| sched::allreduce_ring(mem, bytes))
                .collect();
            s.then(Schedule::lockstep(&layer_schedules));
            s.then(sched::allreduce_ring(members, bytes));
        }
    }
    s
}

/// One rank's CP-ALS; shared body of the traced and untraced entry points.
fn cpd_rank(
    tensor: &SparseTensor,
    rank: usize,
    iterations: usize,
    grid: [usize; 3],
    seed: u64,
    proc_: &Proc,
) -> f64 {
    let nprocs = grid[0] * grid[1] * grid[2];
    let world = Comm::world(proc_);
    let me = world.rank();
    let coords = [
        me / (grid[1] * grid[2]),
        (me / grid[2]) % grid[1],
        me % grid[2],
    ];
    // Layer communicators: same m-th grid coordinate.
    let layers: Vec<Comm<'_>> = (0..3)
        .map(|m| {
            world
                .split(coords[m] as i64, me as i64)
                .expect("layer colors are non-negative")
        })
        .collect();
    // Nonzero ownership: block partition of the nnz range by world
    // rank (a simplification of Splatt's hypergraph partitioning that
    // preserves the communication structure).
    let nnz = tensor.nnz();
    let lo = me * nnz / nprocs;
    let hi = (me + 1) * nnz / nprocs;
    let mut factors: [Factor; 3] = [
        init_factor(tensor.dims[0], rank, seed),
        init_factor(tensor.dims[1], rank, seed + 1),
        init_factor(tensor.dims[2], rank, seed + 2),
    ];
    for _ in 0..iterations {
        for m in 0..3 {
            let (a, b) = match m {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            let mut partial = vec![0.0; tensor.dims[m] * rank];
            {
                let _phase = proc_
                    .recorder()
                    .map(|rec| rec.span(format!("mttkrp-{m}"), EventKind::Phase));
                let mut rows: Vec<Vec<f64>> = vec![vec![0.0; rank]; tensor.dims[m]];
                mttkrp_partial(tensor, lo..hi, m, &factors, rank, &mut rows);
                for (i, row) in rows.into_iter().enumerate() {
                    partial[i * rank..(i + 1) * rank].copy_from_slice(&row);
                }
            }
            // Combine inside the mode's layer communicator, then
            // across layers through the world (replicated-factor
            // verification path). Each layer member ends up holding
            // S_layer / L, so the world sum is exactly the full
            // MTTKRP: Σ_layers L · (S_layer / L).
            let layer_size = layers[m].size() as f64;
            let layer_sum = layers[m].allreduce(partial, |x, y| x + y, AllreduceAlg::Ring);
            let layer_scaled: Vec<f64> = layer_sum.into_iter().map(|v| v / layer_size).collect();
            let total = world.allreduce(layer_scaled, |x, y| x + y, AllreduceAlg::Ring);
            let mttkrp: Vec<Vec<f64>> = (0..tensor.dims[m])
                .map(|i| total[i * rank..(i + 1) * rank].to_vec())
                .collect();
            let g = hadamard(&gram(&factors[a], rank), &gram(&factors[b], rank), rank);
            let _phase = proc_
                .recorder()
                .map(|rec| rec.span(format!("solve-{m}"), EventKind::Phase));
            factors[m] = solve_factor(&mttkrp, &g, rank);
        }
    }
    cpd_fit(tensor, &factors, rank)
}

// ---------------------------------------------------------------------------
// Cost model (Fig. 8)
// ---------------------------------------------------------------------------

/// Configuration of a Splatt-like CPD run for the cost model.
#[derive(Debug, Clone)]
pub struct SplattConfig {
    /// Tensor mode sizes.
    pub dims: [usize; 3],
    /// Nonzero count.
    pub nnz: usize,
    /// CP rank.
    pub rank: usize,
    /// Process grid (product = world size).
    pub grid: [usize; 3],
    /// ALS iterations of the CPD operation.
    pub iterations: usize,
}

impl SplattConfig {
    /// The nell-1-shaped configuration of the paper's Fig. 8: 1024
    /// processes on a 4 × 4 × 64 grid (layer comms: 4+4 of 256 and 64 of
    /// 16, matching the mpisee profile), one long mode, scaled-down
    /// dimensions with the original aspect ratio.
    pub fn nell1_like() -> Self {
        SplattConfig {
            dims: [2_900_000, 2_100_000, 25_500_000],
            nnz: 143_600_000,
            rank: 16,
            grid: [4, 4, 64],
            iterations: 20,
        }
    }

    /// World size of the grid.
    pub fn nprocs(&self) -> usize {
        self.grid.iter().product()
    }
}

/// Per-order cost breakdown of one CPD run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpdCost {
    /// Total duration (s).
    pub total: f64,
    /// Time in Alltoallv on the smallest (mode-2) layer communicators.
    pub small_comm_alltoallv: f64,
    /// Time in Alltoallv on the two large layer-comm modes.
    pub large_comm_alltoallv: f64,
    /// Time in world-wide Allreduces.
    pub allreduce: f64,
    /// MTTKRP compute time.
    pub compute: f64,
}

/// Estimates the CPD duration for a given order on `machine` (Fig. 8's
/// bars).
///
/// The world is reordered by `sigma`; grid coordinates follow the
/// *reordered* ranks (row-major, mode 2 fastest), so the layer
/// communicators land on the cores the order dictates — the mechanism the
/// paper exploits. Per iteration and mode `m`:
///
/// * all `gₘ` layer communicators concurrently run a pairwise Alltoallv
///   exchanging the factor rows their members need
///   (`dims[m]/gₘ · rank · 8` bytes per member, spread over the peers);
/// * a world Allreduce of λ / fit scalars (`rank · 8` bytes);
/// * an MTTKRP compute phase (`5 · nnz · rank / p` flops at `flop_rate`).
pub fn estimate_cpd_time(
    cfg: &SplattConfig,
    machine: &Hierarchy,
    sigma: &Permutation,
    net: &NetworkModel,
    flop_rate: f64,
) -> Result<CpdCost, Error> {
    estimate_cpd_time_cached(cfg, machine, sigma, net, flop_rate, &SharedCostCache::new())
}

/// [`estimate_cpd_time`] reusing `cache` across calls.
///
/// Every contention solve — the concurrent layer Alltoallvs of a mode and
/// the world Allreduce — goes through the cache's round-interned path
/// ([`SharedCostCache::schedule_time_rounds`]): whole schedules are
/// memoized under `(model fingerprint, schedule pattern, payload)` and
/// individual rounds under `(model fingerprint, round endpoint
/// fingerprint, round byte fingerprint)`, so a grid of fabrics (e.g.
/// `fig8_rails`'s 1/2/4-rail sweep over 24 orders) shares one cache
/// without any `clear()` choreography:
/// identical patterns re-encountered within an order (the three per-mode
/// world Allreduces) hit at pattern granularity, orders that share only
/// some rounds hit round by round, and different rail counts and policies
/// get distinct entries through the model fingerprint.
pub fn estimate_cpd_time_cached(
    cfg: &SplattConfig,
    machine: &Hierarchy,
    sigma: &Permutation,
    net: &NetworkModel,
    flop_rate: f64,
    cache: &SharedCostCache,
) -> Result<CpdCost, Error> {
    let p = cfg.nprocs();
    if machine.size() != p {
        return Err(Error::RankOutOfRange {
            rank: p,
            size: machine.size(),
        });
    }
    let g = cfg.grid;
    // Reordered world: reordered rank r sits on core enumeration[r].
    let reordering = mre_core::RankReordering::new(machine, sigma)?;

    // Layer communicator membership, per mode: for mode m, color =
    // coordinate m; members ordered by reordered rank (their rank inside
    // the communicator).
    let coords = |r: usize| [r / (g[1] * g[2]), (r / g[2]) % g[1], r % g[2]];
    let mut cost = CpdCost {
        total: 0.0,
        small_comm_alltoallv: 0.0,
        large_comm_alltoallv: 0.0,
        allreduce: 0.0,
        compute: 0.0,
    };
    let smallest_mode = (0..3).max_by_key(|&m| g[m]).expect("three modes");
    for m in 0..3 {
        let n_layers = g[m];
        let comm_size = p / n_layers;
        let mut members: Vec<Vec<usize>> = vec![Vec::with_capacity(comm_size); n_layers];
        for r in 0..p {
            members[coords(r)[m]].push(reordering.old_rank(r));
        }
        // Factor-row exchange volume: every member ends up needing the
        // slab rows owned by its peers; per ordered pair:
        let slab_rows = cfg.dims[m] / n_layers.max(1);
        let per_member_bytes = (slab_rows * cfg.rank * 8) as u64 / comm_size as u64;
        let per_pair = (per_member_bytes / comm_size as u64).max(1);
        let layer_schedules: Vec<Schedule> = members
            .iter()
            .map(|mem| schedules::alltoall_pairwise(mem, per_pair))
            .collect();
        let merged = Schedule::lockstep(&layer_schedules);
        let t = cache.schedule_time_rounds(net, &merged, per_pair);
        if m == smallest_mode {
            cost.small_comm_alltoallv += t * cfg.iterations as f64;
        } else {
            cost.large_comm_alltoallv += t * cfg.iterations as f64;
        }
        // λ normalization + fit pieces: one world allreduce per mode.
        let world_members: Vec<usize> = (0..p).map(|r| reordering.old_rank(r)).collect();
        let ar = schedules::allreduce_recursive_doubling(&world_members, (cfg.rank * 8) as u64);
        let ar_bytes = (cfg.rank * 8) as u64;
        cost.allreduce += cache.schedule_time_rounds(net, &ar, ar_bytes) * cfg.iterations as f64;
    }
    // MTTKRP compute: 3 modes × 5·nnz·rank/p flops per iteration.
    let flops = 3.0 * 5.0 * cfg.nnz as f64 * cfg.rank as f64 / p as f64;
    cost.compute = cfg.iterations as f64 * flops / flop_rate;
    cost.total =
        cost.small_comm_alltoallv + cost.large_comm_alltoallv + cost.allreduce + cost.compute;
    Ok(cost)
}

/// Pearson correlation coefficient of two equal-length samples.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Communicator structure check: the sizes mpisee reported for the 1024-
/// process nell-1 run (§4.2).
pub fn layer_comm_sizes(grid: [usize; 3]) -> Vec<(usize, usize)> {
    let p: usize = grid.iter().product();
    (0..3).map(|m| (grid[m], p / grid[m])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mre_simnet::presets::hydra_network;

    #[test]
    fn tensor_generator_is_reproducible() {
        let a = generate_tensor([10, 12, 14], 100, 5);
        let b = generate_tensor([10, 12, 14], 100, 5);
        assert_eq!(a.nnz(), 100);
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn invert_small_matrix() {
        let g = vec![vec![4.0, 1.0], vec![1.0, 3.0]];
        let inv = invert(&g, 2);
        // g · inv = I.
        #[allow(clippy::needless_range_loop)]
        for i in 0..2 {
            for j in 0..2 {
                let v: f64 = (0..2).map(|k| g[i][k] * inv[k][j]).sum();
                let expect = f64::from(u8::from(i == j));
                assert!((v - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sequential_cpd_improves_fit() {
        let tensor = generate_tensor([12, 10, 14], 150, 42);
        let (_, fit1) = cpd_sequential(&tensor, 4, 1, 9);
        let (_, fit10) = cpd_sequential(&tensor, 4, 10, 9);
        assert!(fit10 > fit1, "ALS must improve the fit: {fit1} → {fit10}");
        assert!(fit10 > 0.0 && fit10 <= 1.0);
    }

    #[test]
    fn distributed_cpd_matches_sequential() {
        let tensor = generate_tensor([8, 8, 12], 120, 21);
        let (_, fit_seq) = cpd_sequential(&tensor, 3, 4, 13);
        let fits = cpd_distributed(&tensor, 3, 4, [2, 2, 2], 13);
        assert_eq!(fits.len(), 8);
        for fit in fits {
            assert!(
                (fit - fit_seq).abs() < 1e-9,
                "distributed fit {fit} vs sequential {fit_seq}"
            );
        }
    }

    #[test]
    fn traced_cpd_matches_untraced_and_records_phases() {
        let tensor = generate_tensor([8, 8, 12], 120, 21);
        let recorder = Recorder::new();
        let traced = cpd_distributed_traced(&tensor, 3, 2, [2, 2, 2], 13, &recorder);
        let untraced = cpd_distributed(&tensor, 3, 2, [2, 2, 2], 13);
        assert_eq!(traced, untraced, "tracing must not change results");
        let trace = recorder.take_trace();
        assert_eq!(trace.lanes(), (0..8).collect::<Vec<_>>());
        for rank in 0..8 {
            for m in 0..3 {
                let name = format!("mttkrp-{m}");
                let count = trace
                    .events
                    .iter()
                    .filter(|e| e.lane == rank && e.kind == EventKind::Phase && e.name == name)
                    .count();
                assert_eq!(count, 2, "one {name} phase per iteration on rank {rank}");
            }
            assert!(trace.events.iter().any(|e| e.lane == rank
                && e.kind == EventKind::Collective
                && e.name == "allreduce:ring"));
        }
    }

    #[test]
    fn trace_diff_aligns_traced_cpd_with_its_costed_schedule() {
        use mre_trace::{diff_traces, schedule_trace, DiffOptions};
        let tensor = generate_tensor([8, 8, 12], 120, 21);
        let (rank, iters, grid) = (3, 2, [2, 2, 2]);
        let recorder = Recorder::new();
        cpd_distributed_traced(&tensor, rank, iters, grid, 13, &recorder);
        let wall = recorder.take_trace();

        // ⟦2,2,2⟧: 8 cores, three hierarchy levels.
        let h = Hierarchy::new(vec![2, 2, 2]).unwrap();
        let link = |bw: f64, lat: f64| mre_simnet::LinkParams {
            uplink_bandwidth: bw,
            crossing_latency: lat,
        };
        let net = NetworkModel::new(
            h,
            vec![link(1e9, 1e-6), link(2e9, 5e-7), link(4e9, 2e-7)],
            1e10,
        );
        let cores: Vec<usize> = (0..8).collect();
        let schedule = cpd_comm_schedule(&cores, tensor.dims, rank, grid, iters);
        let tl = net.schedule_timeline(&schedule).unwrap();
        let sim = schedule_trace(net.hierarchy(), &tl, "cpd");
        let d = diff_traces(&wall, &sim, &DiffOptions { cores });
        assert!(
            d.matched_fraction >= 0.95,
            "matched fraction {} (wall unmatched {}, sim unmatched {})",
            d.matched_fraction,
            d.unmatched_wall,
            d.unmatched_sim,
        );
        assert_eq!(d.unmatched_sim, 0, "every simulated span must align");
    }

    #[test]
    fn instrumented_cpd_collects_runtime_metrics() {
        let tensor = generate_tensor([8, 8, 12], 120, 21);
        let metrics = MetricsRegistry::new();
        let plain = cpd_distributed(&tensor, 3, 2, [2, 2, 2], 13);
        let metered =
            cpd_distributed_instrumented(&tensor, 3, 2, [2, 2, 2], 13, None, Some(&metrics));
        assert_eq!(metered, plain, "metrics must not change results");
        let snap = metrics.snapshot();
        assert!(snap.counter("mpi.send.count") > 0);
        // Per iteration and mode: one layer + one world ring allreduce on
        // each of the 8 ranks.
        assert_eq!(snap.counter("mpi.collective.allreduce:ring"), 2 * 3 * 2 * 8);
    }

    #[test]
    fn nell1_grid_matches_mpisee_profile() {
        // §4.2: 3 comms × 1024 (world + dups), 8 comms × 256, 64 × 16.
        let sizes = layer_comm_sizes([4, 4, 64]);
        assert_eq!(sizes, vec![(4, 256), (4, 256), (64, 16)]);
        assert_eq!(SplattConfig::nell1_like().nprocs(), 1024);
    }

    #[test]
    fn cpd_time_depends_on_order() {
        // 1024 processes on 32 Hydra nodes: the Fig. 8 setting.
        let cfg = SplattConfig {
            iterations: 2,
            ..SplattConfig::nell1_like()
        };
        let machine = Hierarchy::new(vec![32, 2, 2, 8]).unwrap();
        let net = hydra_network(32, 1);
        let a = estimate_cpd_time(
            &cfg,
            &machine,
            &Permutation::parse("0-3-1-2").unwrap(),
            &net,
            15.0e9,
        )
        .unwrap();
        let b = estimate_cpd_time(
            &cfg,
            &machine,
            &Permutation::parse("1-3-2-0").unwrap(),
            &net,
            15.0e9,
        )
        .unwrap();
        assert_ne!(a.total, b.total);
    }

    #[test]
    fn cpd_time_correlates_with_small_comm_alltoallv() {
        // §4.2: Pearson ≈ 0.98 between CPD duration and the Alltoallv time
        // on the 16-process communicators across orders.
        let cfg = SplattConfig {
            iterations: 1,
            ..SplattConfig::nell1_like()
        };
        let machine = Hierarchy::new(vec![32, 2, 2, 8]).unwrap();
        let net = hydra_network(32, 1);
        let mut totals = Vec::new();
        let mut smalls = Vec::new();
        for sigma in Permutation::all(4) {
            let c = estimate_cpd_time(&cfg, &machine, &sigma, &net, 15.0e9).unwrap();
            totals.push(c.total);
            smalls.push(c.small_comm_alltoallv);
        }
        let r = pearson(&totals, &smalls);
        assert!(r > 0.9, "correlation too weak: {r}");
    }

    #[test]
    fn two_nics_speed_up_every_order() {
        // Fig. 8b: with two NICs all orders get faster on average.
        let cfg = SplattConfig {
            iterations: 1,
            ..SplattConfig::nell1_like()
        };
        let machine = Hierarchy::new(vec![32, 2, 2, 8]).unwrap();
        let one = hydra_network(32, 1);
        let two = hydra_network(32, 2);
        for order in ["0-3-1-2", "1-3-2-0", "3-2-1-0"] {
            let sigma = Permutation::parse(order).unwrap();
            let t1 = estimate_cpd_time(&cfg, &machine, &sigma, &one, 15.0e9).unwrap();
            let t2 = estimate_cpd_time(&cfg, &machine, &sigma, &two, 15.0e9).unwrap();
            assert!(
                t2.total <= t1.total,
                "{order}: {} vs {}",
                t2.total,
                t1.total
            );
        }
    }

    #[test]
    fn pearson_sanity() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }
}
