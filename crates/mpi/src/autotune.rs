//! Per-subcommunicator collective-algorithm autotuning.
//!
//! Real MPI implementations pick a collective algorithm from fixed
//! size thresholds ([`crate::algorithm`]'s `Auto` variants). The
//! [`AlgorithmSelector`] instead *measures* — it costs each candidate
//! algorithm's schedule on the simulated machine for the exact
//! subcommunicator (members, sizes) at hand and keeps the cheapest. Two
//! tricks keep that affordable:
//!
//! * **Trace-guided seeding.** A probe of the `Auto` choice is costed
//!   first and its [`mre_trace::level_occupancy`] busy fractions decide
//!   the candidate visiting order: if the outermost (node) level is busy
//!   most of the schedule, the subcommunicator is bandwidth-bound and
//!   bandwidth-optimal algorithms (ring, pairwise) are tried first;
//!   otherwise latency-optimal ones (Bruck, recursive doubling) lead.
//!   A good first incumbent makes the bound test below prune the rest.
//! * **Admissible bounds + shared cost cache.** Before fully costing a
//!   candidate, its `schedule_lower_bound` is compared against the
//!   incumbent: a candidate whose bound already exceeds the best cost is
//!   skipped without solving any contention. Full costs are memoized in
//!   a [`SharedCostCache`] keyed by `(schedule pattern, payload)`, so
//!   repeated selections across payload sweeps and identical
//!   subcommunicator shapes pay nothing.
//!
//! Candidates are sized and generated by [`Collective::schedule`] on the
//! model's node rail count — the same schedules the §4.1 micro-benchmark
//! (`mre_workloads::microbench`) runs, so a selector choice and its cost
//! plug directly into the figure pipeline.
//!
//! Each selection's counts come back in its [`AlgorithmChoice`]
//! (`evaluated`, `skipped`) and the shared cache's in
//! [`SharedCostCache::cache_stats`]; the selector emits nothing into the
//! `mre_core::telemetry` sink.

use crate::algorithm::{AllgatherAlg, AllreduceAlg, AlltoallAlg, Collective};
use mre_simnet::{
    fluid_lower_bound, schedule_lower_bound, FluidSim, NetworkModel, Schedule, SharedCostCache,
};
use mre_trace::level_occupancy;

/// The outcome of tuning one subcommunicator.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmChoice {
    /// The winning algorithm (never `Auto`).
    pub alg: Collective,
    /// Costed schedule time of the winner (seconds).
    pub cost: f64,
    /// Busy fraction of the outermost (node) level in the probe schedule
    /// — the trace signal that seeded the candidate order.
    pub outer_busy_fraction: f64,
    /// Candidates fully costed.
    pub evaluated: u32,
    /// Candidates skipped on their lower bound alone.
    pub skipped: u32,
}

/// Per-subcommunicator collective-algorithm autotuner (see the module
/// docs for the strategy).
#[derive(Debug)]
pub struct AlgorithmSelector<'a> {
    net: &'a NetworkModel,
    cache: &'a SharedCostCache,
}

impl<'a> AlgorithmSelector<'a> {
    /// Exclusive upper bound on the `total_bytes` of [`select`](Self::select):
    /// the top three bits of its cache key hold the collective tag.
    pub const MAX_TOTAL_BYTES: u64 = 1 << 61;

    /// A selector costing on `net`, memoizing in `cache`. The cache may
    /// be shared with other selectors and sweeps over the same model.
    pub fn new(net: &'a NetworkModel, cache: &'a SharedCostCache) -> Self {
        Self { net, cache }
    }

    /// Candidate algorithms for `collective` (whatever algorithm it
    /// carries), bandwidth-optimal first when `outer_busy` says the probe
    /// kept the node uplinks busy most of the time, latency-optimal first
    /// otherwise.
    fn candidates(collective: Collective, outer_busy: f64) -> Vec<Collective> {
        let bandwidth_bound = outer_busy >= 0.5;
        let mut c = match collective {
            Collective::Alltoall(_) => vec![
                Collective::Alltoall(AlltoallAlg::Pairwise),
                Collective::Alltoall(AlltoallAlg::Bruck),
            ],
            Collective::Allreduce(_) => vec![
                Collective::Allreduce(AllreduceAlg::Ring),
                Collective::Allreduce(AllreduceAlg::RecursiveDoubling),
            ],
            Collective::Allgather(_) => vec![
                Collective::Allgather(AllgatherAlg::Ring),
                Collective::Allgather(AllgatherAlg::RecursiveDoubling),
                Collective::Allgather(AllgatherAlg::Bruck),
            ],
        };
        if !bandwidth_bound {
            c.reverse();
        }
        c
    }

    /// Cache payload key for one `(collective, total_bytes)` selection.
    ///
    /// The collective tag lives in the top bits because two *different*
    /// collectives can compile to the same endpoint pattern with
    /// different byte profiles (allreduce and allgather recursive
    /// doubling perform the same pairwise exchanges, but one sends the
    /// full vector each round and the other doubling blocks) — keying on
    /// `total_bytes` alone would let them alias each other's costs.
    fn payload_key(collective: Collective, total_bytes: u64) -> u64 {
        let tag = match collective {
            Collective::Alltoall(_) => 1u64,
            Collective::Allreduce(_) => 2,
            Collective::Allgather(_) => 3,
        };
        assert!(
            total_bytes < Self::MAX_TOTAL_BYTES,
            "payload too large to tag the cache key"
        );
        total_bytes | (tag << 61)
    }

    /// Tunes one subcommunicator: returns the algorithm minimizing the
    /// costed schedule for this `members` list at `total_bytes`.
    /// `collective` names the collective; the algorithm it carries is
    /// ignored. [`AlgorithmChoice::evaluated`] and
    /// [`AlgorithmChoice::skipped`] return how many candidates were
    /// costed and bound-pruned.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is at least [`Self::MAX_TOTAL_BYTES`].
    pub fn select(
        &self,
        collective: Collective,
        members: &[usize],
        total_bytes: u64,
    ) -> AlgorithmChoice {
        let key = Self::payload_key(collective, total_bytes);
        self.tune(
            collective,
            members,
            total_bytes,
            |s| schedule_lower_bound(self.net, s),
            |s| self.cache.schedule_time_rounds(self.net, s, key),
        )
    }

    /// Like [`select`](Self::select), but costing candidates under the
    /// **fluid** (barrier-free) simulator instead of the lockstep round
    /// model: each candidate's schedule is executed alone on the fluid
    /// engine and the cheapest fluid makespan wins. Candidates are still
    /// bound-pruned — with the admissible [`fluid_lower_bound`], so the
    /// winner is exactly the fluid-cheapest candidate.
    ///
    /// Fluid costs are not memoized in the shared cache (its round
    /// profiles describe the lockstep model); the fluid engine's own
    /// path/link caches carry the reuse instead.
    pub fn select_fluid(
        &self,
        collective: Collective,
        members: &[usize],
        total_bytes: u64,
    ) -> AlgorithmChoice {
        let mut sim = FluidSim::new(self.net);
        self.tune(
            collective,
            members,
            total_bytes,
            |s| fluid_lower_bound(self.net, std::slice::from_ref(s)),
            |s| sim.run(std::slice::from_ref(s)),
        )
    }

    /// The candidate loop of both engines. A probe of the `Auto` choice —
    /// cheap, always sensible, and usually close enough to make the
    /// incumbent tight immediately — is timed on the lockstep timeline,
    /// and its node-level occupancy orders the candidates. Each distinct
    /// candidate is then skipped when its `bound` exceeds the incumbent's
    /// cost, and `cost`ed otherwise.
    fn tune(
        &self,
        collective: Collective,
        members: &[usize],
        total_bytes: u64,
        bound: impl Fn(&Schedule) -> f64,
        mut cost: impl FnMut(&Schedule) -> f64,
    ) -> AlgorithmChoice {
        let nics = self.net.node_rails();
        let probe = collective.auto().schedule(members, total_bytes, nics);
        let outer_busy = match self.net.schedule_timeline(&probe) {
            Ok(tl) => level_occupancy(self.net.hierarchy(), &tl).busy_fraction(0),
            Err(_) => 0.0,
        };
        let mut best: Option<(Collective, f64)> = None;
        let mut evaluated = 0u32;
        let mut skipped = 0u32;
        let mut seen_patterns: Vec<u64> = Vec::new();
        for alg in Self::candidates(collective, outer_busy) {
            let schedule = alg.schedule(members, total_bytes, nics);
            // resolve() can map two candidates to the same concrete
            // algorithm (recursive doubling → Bruck on non-power-of-two
            // communicators); don't cost the same pattern twice.
            let fp = schedule.pattern_fingerprint();
            if seen_patterns.contains(&fp) {
                continue;
            }
            seen_patterns.push(fp);
            if let Some((_, best_cost)) = best {
                if bound(&schedule) > best_cost {
                    skipped += 1;
                    continue;
                }
            }
            let cost = cost(&schedule);
            evaluated += 1;
            if best.is_none_or(|(_, bc)| cost < bc) {
                best = Some((alg, cost));
            }
        }
        let (alg, cost) = best.expect("every collective has at least one candidate");
        AlgorithmChoice {
            alg,
            cost,
            outer_busy_fraction: outer_busy,
            evaluated,
            skipped,
        }
    }

    /// Tunes every subcommunicator of a layout independently — different
    /// subcommunicators of the same order can land on different
    /// algorithms when their members sit at different hierarchy depths.
    pub fn select_layout(
        &self,
        collective: Collective,
        comms: &[Vec<usize>],
        total_bytes: u64,
    ) -> Vec<AlgorithmChoice> {
        comms
            .iter()
            .map(|members| self.select(collective, members, total_bytes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mre_core::Hierarchy;
    use mre_simnet::LinkParams;

    /// ⟦2,2,4⟧ with a slow NIC so cross-node traffic is clearly
    /// bandwidth-bound.
    fn toy_net() -> NetworkModel {
        let h = Hierarchy::new(vec![2, 2, 4]).unwrap();
        NetworkModel::new(
            h,
            vec![
                LinkParams {
                    uplink_bandwidth: 1e9,
                    crossing_latency: 1e-6,
                },
                LinkParams {
                    uplink_bandwidth: 20e9,
                    crossing_latency: 5e-7,
                },
                LinkParams {
                    uplink_bandwidth: 80e9,
                    crossing_latency: 2e-7,
                },
            ],
            100e9,
        )
    }

    #[test]
    fn selector_picks_the_cheapest_candidate() {
        let net = toy_net();
        let cache = SharedCostCache::new();
        let sel = AlgorithmSelector::new(&net, &cache);
        let members: Vec<usize> = (0..8).collect();
        for kind in [
            Collective::Alltoall(AlltoallAlg::Auto),
            Collective::Allreduce(AllreduceAlg::Auto),
            Collective::Allgather(AllgatherAlg::Auto),
        ] {
            for total in [1u64 << 10, 1 << 24] {
                let choice = sel.select(kind, &members, total);
                // Exhaustively cost every candidate; the winner must be
                // minimal.
                let min = AlgorithmSelector::candidates(kind, 1.0)
                    .into_iter()
                    .map(|a| net.schedule_time(&a.schedule(&members, total, 1)))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(choice.cost, min, "{kind:?} at {total}");
                assert!(choice.evaluated >= 1);
            }
        }
    }

    #[test]
    fn large_payloads_prefer_bandwidth_optimal_algorithms() {
        let net = toy_net();
        let cache = SharedCostCache::new();
        let sel = AlgorithmSelector::new(&net, &cache);
        // A node-spanning communicator with a huge payload: ring beats
        // recursive doubling (which pushes the full vector log p times
        // through the slow NIC).
        let members: Vec<usize> = (0..16).collect();
        let choice = sel.select(
            Collective::Allreduce(AllreduceAlg::Auto),
            &members,
            64 << 20,
        );
        assert_eq!(choice.alg, Collective::Allreduce(AllreduceAlg::Ring));
        assert!(choice.outer_busy_fraction > 0.5);
    }

    #[test]
    fn selection_is_memoized_across_repeats() {
        let net = toy_net();
        let cache = SharedCostCache::new();
        let sel = AlgorithmSelector::new(&net, &cache);
        let members: Vec<usize> = (0..8).collect();
        let a = sel.select(Collective::Allgather(AllgatherAlg::Auto), &members, 1 << 20);
        let (_, misses_first) = cache.stats();
        let b = sel.select(Collective::Allgather(AllgatherAlg::Auto), &members, 1 << 20);
        let (hits, misses) = cache.stats();
        assert_eq!(a, b);
        assert_eq!(misses, misses_first, "second select must re-cost nothing");
        assert!(hits >= a.evaluated as u64);
    }

    #[test]
    fn layout_tuning_covers_every_subcomm() {
        let net = toy_net();
        let cache = SharedCostCache::new();
        let sel = AlgorithmSelector::new(&net, &cache);
        let comms: Vec<Vec<usize>> = vec![(0..8).collect(), (8..16).collect()];
        let choices = sel.select_layout(Collective::Alltoall(AlltoallAlg::Auto), &comms, 1 << 22);
        assert_eq!(choices.len(), 2);
        // The two packed subcommunicators are congruent (same shape, one
        // node apart) — same winner.
        assert_eq!(choices[0].alg, choices[1].alg);
    }

    #[test]
    fn fluid_selection_picks_the_fluid_cheapest_candidate() {
        let net = toy_net();
        let cache = SharedCostCache::new();
        let sel = AlgorithmSelector::new(&net, &cache);
        let members: Vec<usize> = (0..8).collect();
        for kind in [
            Collective::Alltoall(AlltoallAlg::Auto),
            Collective::Allreduce(AllreduceAlg::Auto),
            Collective::Allgather(AllgatherAlg::Auto),
        ] {
            for total in [1u64 << 10, 1 << 24] {
                let choice = sel.select_fluid(kind, &members, total);
                let min = AlgorithmSelector::candidates(kind, 1.0)
                    .into_iter()
                    .map(|a| mre_simnet::fluid_time(&net, &[a.schedule(&members, total, 1)]))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(choice.cost, min, "{kind:?} at {total}");
                assert!(choice.evaluated >= 1);
            }
        }
    }

    #[test]
    fn bounds_skip_hopeless_candidates_somewhere() {
        // Across a size sweep at least one selection should prune: the
        // loser's lower bound alone exceeds the winner's full cost once
        // payloads are large enough for the byte term to dominate.
        let net = toy_net();
        let cache = SharedCostCache::new();
        let sel = AlgorithmSelector::new(&net, &cache);
        let members: Vec<usize> = (0..16).collect();
        let skipped: u32 = (10..=26)
            .map(|e| {
                sel.select(Collective::Allreduce(AllreduceAlg::Auto), &members, 1 << e)
                    .skipped
            })
            .sum();
        assert!(skipped > 0, "no candidate was ever bound-pruned");
    }
}
