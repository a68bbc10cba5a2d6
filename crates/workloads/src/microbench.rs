//! The §4.1 micro-benchmark protocol.
//!
//! 1. Reorder the ranks of the world according to an order σ.
//! 2. Split the reordered world into equally-sized subcommunicators
//!    (quotient coloring).
//! 3. Measure the collective in the **first** subcommunicator only.
//! 4. Measure the collective in **all** subcommunicators simultaneously.
//!
//! The *size* reported on the x-axis of the paper's figures is the total
//! amount of data involved: `communicator size × count × sizeof(datatype)`.
//! Bandwidth is that size divided by the average duration of one
//! collective call.
//!
//! The measurement here is the simulated duration of the collective's
//! schedule under the machine's contention model — exactly the quantity
//! the paper's wall-clock loop estimates on real hardware.
//!
//! This module owns the protocol — layouts, runs, the functional twin —
//! but not the schedules: how a collective splits `total_bytes` and which
//! generator runs it are decided by [`Collective::schedule`] in
//! `mre_mpi::algorithm` (re-exported here), the same function the
//! autotuner costs its candidates with.

use mre_core::subcomm::{subcommunicators, ColorScheme, SubcommLayout};
use mre_core::{Error, Hierarchy, Permutation};
use mre_mpi::{run_instrumented, Comm};
use mre_simnet::{NetworkModel, Schedule, SharedCostCache, TranslationCertificate};
use mre_trace::{MetricsRegistry, Recorder};

pub use mre_mpi::Collective;

/// One micro-benchmark configuration (one curve point of Figs. 3–7).
#[derive(Debug, Clone)]
pub struct Microbench {
    /// The machine hierarchy (outermost level = compute node).
    pub machine: Hierarchy,
    /// The enumeration order under test.
    pub order: Permutation,
    /// Processes per subcommunicator.
    pub subcomm_size: usize,
    /// The collective operation.
    pub collective: Collective,
    /// Total data size involved in one collective call
    /// (`comm size × count`, in bytes).
    pub total_bytes: u64,
}

/// The simulated outcome of one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicrobenchResult {
    /// Duration of one collective call with a single active communicator.
    pub single_duration: f64,
    /// Duration of one call with all communicators active simultaneously.
    pub simultaneous_duration: f64,
}

impl MicrobenchResult {
    /// Bandwidth (bytes/s) of the single-communicator measurement.
    pub fn single_bandwidth(&self, total_bytes: u64) -> f64 {
        total_bytes as f64 / self.single_duration
    }

    /// Bandwidth (bytes/s) of the simultaneous measurement.
    pub fn simultaneous_bandwidth(&self, total_bytes: u64) -> f64 {
        total_bytes as f64 / self.simultaneous_duration
    }
}

impl Microbench {
    /// The schedule one subcommunicator (`members`, its core list in rank
    /// order) executes on a fabric with `nics` node rails:
    /// [`Collective::schedule`] of this configuration's collective and
    /// size.
    pub fn schedule_for_rails(&self, members: &[usize], nics: usize) -> Schedule {
        self.collective.schedule(members, self.total_bytes, nics)
    }

    /// This configuration's subcommunicator layout under `scheme`, and
    /// the schedule each subcommunicator executes on `nics` node rails
    /// (indexed like the layout's colors).
    pub fn layout_schedules(
        &self,
        scheme: ColorScheme,
        nics: usize,
    ) -> Result<(SubcommLayout, Vec<Schedule>), Error> {
        let layout = subcommunicators(&self.machine, &self.order, self.subcomm_size, scheme)?;
        let schedules = layout
            .comms()
            .iter()
            .map(|members| self.schedule_for_rails(members, nics))
            .collect();
        Ok((layout, schedules))
    }

    /// Runs the protocol on `net` (whose hierarchy must match
    /// `self.machine`) with the paper's quotient coloring. On a
    /// multi-rail `net` the schedules are rail-striped
    /// ([`Collective::schedule`]).
    pub fn run(&self, net: &NetworkModel) -> Result<MicrobenchResult, Error> {
        self.run_with_scheme(net, ColorScheme::Quotient)
    }

    /// Runs the protocol with an explicit color scheme — the
    /// quotient-vs-modulo ablation of §4.1.1's ambiguous phrasing.
    pub fn run_with_scheme(
        &self,
        net: &NetworkModel,
        scheme: ColorScheme,
    ) -> Result<MicrobenchResult, Error> {
        self.run_with_scheme_cached(net, scheme, &SharedCostCache::new())
    }

    /// [`run_with_scheme`](Self::run_with_scheme) reusing `cache` across
    /// calls.
    ///
    /// Contended rates depend only on message endpoints, so a size sweep
    /// over the same (machine, order, subcommunicator, collective) replays
    /// cached round profiles instead of re-solving contention — with `Auto`
    /// algorithm selection, each resolved algorithm's round shapes are
    /// cached separately and coexist. The cache is shared, so a whole
    /// figure's orders can cost through one. The simultaneous run is a
    /// lockstep job set ([`SharedCostCache::job_set_time`]): when the
    /// layout earns a [`TranslationCertificate`], only communicator 0's
    /// schedule is generated and solved, bit-identically to the merged
    /// schedule of every communicator.
    pub fn run_with_scheme_cached(
        &self,
        net: &NetworkModel,
        scheme: ColorScheme,
        cache: &SharedCostCache,
    ) -> Result<MicrobenchResult, Error> {
        assert_eq!(
            net.hierarchy(),
            &self.machine,
            "network model and benchmark must describe the same machine"
        );
        let layout = subcommunicators(&self.machine, &self.order, self.subcomm_size, scheme)?;
        let comms = layout.comms();
        let nics = net.node_rails();
        // The simultaneous run is one lockstep job set: on a certified
        // layout only communicator 0's schedule is generated and solved.
        let own = self.schedule_for_rails(&comms[0], nics);
        let cert = TranslationCertificate::new(net.link_table(), comms, &own);
        let merged = cert.is_trivial().then(|| {
            let all: Vec<Schedule> = comms
                .iter()
                .map(|members| self.schedule_for_rails(members, nics))
                .collect();
            Schedule::lockstep(&all)
        });
        let job = merged.as_ref().unwrap_or(&own);
        // The single run uses the round tier only: a figure sweep never
        // repeats a whole schedule, so the pattern tier would only add a
        // fingerprint and a miss.
        Ok(MicrobenchResult {
            single_duration: own
                .rounds
                .iter()
                .map(|r| cache.round_time_memo(net, r))
                .sum(),
            simultaneous_duration: cache.job_set_time(net, &cert, job, self.total_bytes),
        })
    }
}

/// The costed-schedule counterpart of `iterations` back-to-back calls of
/// `collective` on one communicator — what
/// [`microbench_collective_instrumented`] issues on the thread runtime.
/// `members[r]` is the global core of MPI rank `r`. Generated from the
/// same schedule builders the functional collectives mirror, so
/// [`mre_trace::diff_traces`] aligns the two span-by-span (`trace_diff
/// --workload micro`).
pub fn microbench_comm_schedule(
    collective: Collective,
    members: &[usize],
    total_bytes: u64,
    iterations: usize,
) -> Schedule {
    let mut s = Schedule::new();
    for _ in 0..iterations {
        s.then(collective.schedule(members, total_bytes, 1));
    }
    s
}

/// Runs `iterations` calls of `collective` on the full thread-runtime
/// world, with both instrumentation channels optional — the functional
/// twin of [`microbench_comm_schedule`]. Payload sizes and `Auto`
/// algorithms come from [`Collective::resolve`], the rule the costed
/// schedule uses (element counts are its unit payload rounded down to
/// whole doubles), so a recorded run aligns span-by-span with the
/// schedule. Returns each rank's payload checksum (a pure function of the
/// inputs — instrumentation must not change it).
pub fn microbench_collective_instrumented(
    collective: Collective,
    total_bytes: u64,
    iterations: usize,
    nprocs: usize,
    recorder: Option<&Recorder>,
    metrics: Option<&MetricsRegistry>,
) -> Vec<f64> {
    run_instrumented(nprocs, recorder, metrics, move |proc_| {
        let world = Comm::world(proc_);
        let p = world.size();
        let me = world.rank();
        let (alg, unit_bytes) = collective.resolve(total_bytes, p);
        let elems = ((unit_bytes / 8).max(1)) as usize;
        let mut acc = 0.0;
        for _ in 0..iterations {
            acc += match alg {
                Collective::Alltoall(alg) => {
                    let send: Vec<f64> = (0..p * elems).map(|i| (me * 31 + i) as f64).collect();
                    world.alltoall(&send, alg).iter().sum::<f64>()
                }
                Collective::Allreduce(alg) => {
                    let data: Vec<f64> = (0..elems).map(|i| (me + i) as f64).collect();
                    world.allreduce(data, |a, b| a + b, alg).iter().sum::<f64>()
                }
                Collective::Allgather(alg) => {
                    let mine: Vec<f64> = (0..elems).map(|i| (me * 7 + i) as f64).collect();
                    world.allgather(mine, alg).iter().flatten().sum::<f64>()
                }
            };
        }
        acc
    })
}

/// The paper's x-axis sweep: 16 KB to 512 MB in powers of two.
pub fn paper_size_sweep() -> Vec<u64> {
    (14..=29).map(|e| 1u64 << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mre_mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
    use mre_simnet::presets::hydra_network;

    fn bench(order: &[usize], size: u64) -> Microbench {
        Microbench {
            machine: Hierarchy::new(vec![16, 2, 2, 8]).unwrap(),
            order: Permutation::new(order.to_vec()).unwrap(),
            subcomm_size: 16,
            collective: Collective::Alltoall(AlltoallAlg::Pairwise),
            total_bytes: size,
        }
    }

    #[test]
    fn spread_beats_packed_when_alone() {
        // Fig. 3, left plot: with one active communicator the most spread
        // order [0,1,2,3] reaches the highest bandwidth at large sizes
        // (at small sizes the inter-node latency makes the orders
        // comparable — also visible in the paper's left plots).
        let net = hydra_network(16, 1);
        let size = 64 << 20;
        let spread = bench(&[0, 1, 2, 3], size).run(&net).unwrap();
        let packed = bench(&[3, 2, 1, 0], size).run(&net).unwrap();
        assert!(
            spread.single_duration < packed.single_duration,
            "spread {} vs packed {}",
            spread.single_duration,
            packed.single_duration
        );
    }

    #[test]
    fn packed_beats_spread_under_contention() {
        // Fig. 3, right plot: with 32 simultaneous communicators the
        // packed order wins by a large factor.
        let net = hydra_network(16, 1);
        let size = 4 << 20;
        let spread = bench(&[0, 1, 2, 3], size).run(&net).unwrap();
        let packed = bench(&[3, 2, 1, 0], size).run(&net).unwrap();
        assert!(
            packed.simultaneous_duration < spread.simultaneous_duration / 2.0,
            "packed {} vs spread {}",
            packed.simultaneous_duration,
            spread.simultaneous_duration
        );
    }

    #[test]
    fn packed_mapping_is_contention_invariant() {
        // §4.1.3: packed mappings have constant performance regardless of
        // how many communicators run simultaneously.
        let net = hydra_network(16, 1);
        let r = bench(&[3, 2, 1, 0], 4 << 20).run(&net).unwrap();
        let ratio = r.simultaneous_duration / r.single_duration;
        assert!(
            (0.95..1.05).contains(&ratio),
            "packed order should be invariant, ratio {ratio}"
        );
    }

    #[test]
    fn alltoall_is_far_less_rank_order_sensitive_than_ring_collectives() {
        // §4.1.2: [1,3,0,2] and [3,1,0,2] map the same resources with very
        // different ring costs (45 vs 17), yet the paper measures
        // identical Alltoall performance. Pairwise alltoall exchanges
        // every ordered pair exactly once, so the total traffic per link
        // is order-independent; our lockstep-round model retains a mild
        // per-round grouping effect, so we assert the sensitivity is small
        // — and an order of magnitude below the ring allgather's on the
        // same pair of orders.
        let net = hydra_network(16, 1);
        let size = 4 << 20;
        let a = bench(&[1, 3, 0, 2], size).run(&net).unwrap();
        let b = bench(&[3, 1, 0, 2], size).run(&net).unwrap();
        let alltoall_rel = (a.simultaneous_duration - b.simultaneous_duration).abs()
            / a.simultaneous_duration.min(b.simultaneous_duration);
        assert!(
            alltoall_rel < 0.35,
            "pairwise alltoall should be only mildly order-sensitive: {alltoall_rel}"
        );
        let mk = |order: &[usize]| Microbench {
            collective: Collective::Allgather(AllgatherAlg::Ring),
            ..bench(order, size)
        };
        let ga = mk(&[1, 3, 0, 2]).run(&net).unwrap();
        let gb = mk(&[3, 1, 0, 2]).run(&net).unwrap();
        let ring_rel = (ga.simultaneous_duration - gb.simultaneous_duration).abs()
            / ga.simultaneous_duration.min(gb.simultaneous_duration);
        assert!(
            ring_rel > 2.0 * alltoall_rel,
            "ring allgather must be far more order-sensitive: ring {ring_rel} vs alltoall {alltoall_rel}"
        );
    }

    #[test]
    fn allgather_ring_is_sensitive_to_rank_order() {
        // §4.1.3: ring-based collectives do see the rank order inside the
        // communicator (ring cost 45 vs 17 on the same resources).
        let net = hydra_network(16, 1);
        let mk = |order: &[usize]| Microbench {
            machine: Hierarchy::new(vec![16, 2, 2, 8]).unwrap(),
            order: Permutation::new(order.to_vec()).unwrap(),
            subcomm_size: 16,
            collective: Collective::Allgather(AllgatherAlg::Ring),
            total_bytes: 4 << 20,
        };
        let scattered = mk(&[1, 3, 0, 2]).run(&net).unwrap();
        let sequential = mk(&[3, 1, 0, 2]).run(&net).unwrap();
        assert!(
            sequential.single_duration < scattered.single_duration,
            "low ring cost must beat high ring cost for ring allgather: {} vs {}",
            sequential.single_duration,
            scattered.single_duration
        );
    }

    #[test]
    fn bandwidth_helpers_invert_duration() {
        let r = MicrobenchResult {
            single_duration: 2.0,
            simultaneous_duration: 4.0,
        };
        assert_eq!(r.single_bandwidth(8), 4.0);
        assert_eq!(r.simultaneous_bandwidth(8), 2.0);
    }

    #[test]
    fn paper_sweep_spans_16kb_to_512mb() {
        let sweep = paper_size_sweep();
        assert_eq!(*sweep.first().unwrap(), 16 * 1024);
        assert_eq!(*sweep.last().unwrap(), 512 << 20);
        assert_eq!(sweep.len(), 16);
    }

    #[test]
    fn cached_size_sweep_matches_uncached_and_reuses_profiles() {
        let net = hydra_network(16, 1);
        let cache = SharedCostCache::new();
        for e in [16u32, 20, 24] {
            for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
                let b = bench(&order, 1 << e);
                let cached = b
                    .run_with_scheme_cached(&net, ColorScheme::Quotient, &cache)
                    .unwrap();
                let direct = b.run(&net).unwrap();
                assert_eq!(cached, direct);
            }
        }
        let stats = cache.cache_stats();
        // 3 sizes per pattern → the first size solves, the rest replay.
        assert!(
            stats.round_hits >= 2 * stats.misses,
            "size sweep should mostly hit: {} hits / {} solves",
            stats.round_hits,
            stats.misses
        );
    }

    #[test]
    fn trace_diff_aligns_collective_runs_with_their_costed_schedules() {
        use mre_trace::{diff_traces, schedule_trace, DiffOptions};
        let net = hydra_network(1, 1);
        let p = 8;
        let cores: Vec<usize> = (0..p).collect();
        for collective in [
            Collective::Alltoall(AlltoallAlg::Auto),
            Collective::Allreduce(AllreduceAlg::Auto),
            Collective::Allgather(AllgatherAlg::Auto),
        ] {
            let total_bytes = 1 << 16;
            let recorder = Recorder::new();
            microbench_collective_instrumented(
                collective,
                total_bytes,
                3,
                p,
                Some(&recorder),
                None,
            );
            let wall = recorder.take_trace();
            let schedule = microbench_comm_schedule(collective, &cores, total_bytes, 3);
            let tl = net.schedule_timeline(&schedule).unwrap();
            let sim = schedule_trace(net.hierarchy(), &tl, "micro");
            let d = diff_traces(
                &wall,
                &sim,
                &DiffOptions {
                    cores: cores.clone(),
                },
            );
            assert!(
                d.matched_fraction >= 0.95,
                "{collective:?}: matched fraction {} (wall unmatched {}, sim unmatched {})",
                d.matched_fraction,
                d.unmatched_wall,
                d.unmatched_sim,
            );
            assert_eq!(
                d.unmatched_sim, 0,
                "{collective:?}: every simulated span must align"
            );
        }
    }

    #[test]
    fn two_nics_improve_spread_contended_case() {
        // Fig. 8's 1 vs 2 NIC comparison at the micro level.
        let one = hydra_network(16, 1);
        let two = hydra_network(16, 2);
        let b = bench(&[0, 1, 2, 3], 4 << 20);
        let r1 = b.run(&one).unwrap();
        let r2 = b.run(&two).unwrap();
        assert!(r2.simultaneous_duration < r1.simultaneous_duration);
    }
}
