//! Halo-exchange stencil workload — the classic consumer of Cartesian
//! topologies (§2 of the paper: Cartesian virtual topologies request rank
//! reordering "to better match the system topology").
//!
//! An `nx × ny (× nz)` process grid exchanges face halos with its
//! neighbors every iteration. The communication volume is fixed by the
//! grid; the *cost* depends entirely on where grid neighbors land in the
//! machine — which the enumeration order controls. This module builds the
//! halo schedule for any grid/mapping and evaluates orders, giving a
//! third application (besides collectives-in-subcommunicators and CG) to
//! exercise the paper's technique on.

use mre_core::{Error, Hierarchy, Permutation, RankReordering};
use mre_mpi::runtime::Tag;
use mre_mpi::{run_instrumented, CartTopology};
use mre_simnet::{Message, NetworkModel, Round, Schedule};
use mre_trace::{MetricsRegistry, Recorder};

/// A halo-exchange workload on a periodic Cartesian grid.
#[derive(Debug, Clone)]
pub struct Stencil {
    /// Grid dimensions (product must equal the machine size).
    pub dims: Vec<usize>,
    /// Halo payload per face per iteration, in bytes.
    pub face_bytes: u64,
}

impl Stencil {
    /// Creates the workload, validating the grid.
    pub fn new(dims: Vec<usize>, face_bytes: u64) -> Result<Self, Error> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(Error::EmptyHierarchy);
        }
        Ok(Self { dims, face_bytes })
    }

    /// The per-iteration halo schedule for a given placement
    /// (`placement[grid_rank] = core`). All faces exchange concurrently
    /// (one round), matching the nonblocking-sendrecv implementations.
    pub fn halo_schedule(&self, placement: &[usize]) -> Result<Schedule, Error> {
        let cart = CartTopology::new(self.dims.clone(), vec![true; self.dims.len()])?;
        if placement.len() != cart.size() {
            return Err(Error::RankOutOfRange {
                rank: cart.size(),
                size: placement.len(),
            });
        }
        let mut round = Round::new();
        for rank in 0..cart.size() {
            for dim in 0..self.dims.len() {
                if self.dims[dim] < 2 {
                    continue;
                }
                let (_, fwd) = cart.shift(rank, dim, 1)?;
                let fwd = fwd.expect("periodic grid has both neighbors");
                // Forward face + the mirrored backward face of the
                // neighbor (i.e. each ordered neighbor pair appears once
                // per direction).
                round.push(Message::new(
                    placement[rank],
                    placement[fwd],
                    self.face_bytes,
                ));
                round.push(Message::new(
                    placement[fwd],
                    placement[rank],
                    self.face_bytes,
                ));
            }
        }
        Ok(Schedule::with(vec![round]))
    }

    /// Per-iteration halo cost when grid rank `r` runs on the `r`-th core
    /// of the enumeration induced by `sigma`.
    pub fn iteration_time(
        &self,
        machine: &Hierarchy,
        sigma: &Permutation,
        net: &NetworkModel,
    ) -> Result<f64, Error> {
        let grid_size: usize = self.dims.iter().product();
        if grid_size != machine.size() {
            return Err(Error::RankOutOfRange {
                rank: grid_size,
                size: machine.size(),
            });
        }
        let reordering = RankReordering::new(machine, sigma)?;
        let placement: Vec<usize> = (0..grid_size).map(|r| reordering.old_rank(r)).collect();
        Ok(net.schedule_time(&self.halo_schedule(&placement)?))
    }

    /// The costed-schedule counterpart of
    /// [`stencil_distributed_instrumented`]'s communication — the
    /// per-iteration halo exchange split into one **forward** round (each
    /// rank to its +1 neighbor) and one **backward** round (each rank to
    /// its −1 neighbor) per active dimension, repeated `iterations`
    /// times. `members[grid_rank]` is the global core of grid rank
    /// `grid_rank`.
    ///
    /// This phased form (rather than [`halo_schedule`](Self::halo_schedule)'s
    /// single all-faces round) mirrors the functional loop's sendrecv
    /// order message-for-message, which is what `trace_diff` aligns on —
    /// and it stays valid for size-2 dimensions, where the +1 and −1
    /// neighbors coincide and a single round would contain duplicate
    /// `(src, dst)` pairs.
    pub fn comm_schedule(&self, members: &[usize], iterations: usize) -> Result<Schedule, Error> {
        let cart = CartTopology::new(self.dims.clone(), vec![true; self.dims.len()])?;
        if members.len() != cart.size() {
            return Err(Error::RankOutOfRange {
                rank: cart.size(),
                size: members.len(),
            });
        }
        let mut s = Schedule::new();
        for _ in 0..iterations {
            for dim in 0..self.dims.len() {
                if self.dims[dim] < 2 {
                    continue;
                }
                let mut forward = Round::new();
                let mut backward = Round::new();
                for rank in 0..cart.size() {
                    let (back, fwd) = cart.shift(rank, dim, 1)?;
                    let fwd = fwd.expect("periodic grid has both neighbors");
                    let back = back.expect("periodic grid has both neighbors");
                    forward.push(Message::new(members[rank], members[fwd], self.face_bytes));
                    backward.push(Message::new(members[rank], members[back], self.face_bytes));
                }
                s.push(forward);
                s.push(backward);
            }
        }
        Ok(s)
    }

    /// Evaluates every order and returns `(order, time)` pairs sorted
    /// fastest first.
    pub fn rank_orders(
        &self,
        machine: &Hierarchy,
        net: &NetworkModel,
    ) -> Result<Vec<(Permutation, f64)>, Error> {
        let mut scored = Permutation::all(machine.depth())
            .into_iter()
            .map(|sigma| {
                let t = self.iteration_time(machine, &sigma, net)?;
                Ok((sigma, t))
            })
            .collect::<Result<Vec<_>, Error>>()?;
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        Ok(scored)
    }
}

/// Runs the halo-exchange stencil *functionally* on the thread-backed MPI
/// runtime, optionally recording wall-clock events and metrics. Every rank
/// performs, per iteration and per active dimension, a forward
/// `sendrecv` (send to the +1 neighbor, receive from the −1 neighbor)
/// followed by a backward one — the exact message sequence that
/// [`Stencil::comm_schedule`] costs round-for-round, so `trace_diff` can
/// align the recorded trace with the costed schedule.
///
/// Returns each rank's checksum over everything it received (grid ranks
/// stamp their halo payloads with their own rank), so instrumented and
/// plain runs can be compared for correctness.
pub fn stencil_distributed_instrumented(
    stencil: &Stencil,
    iterations: usize,
    recorder: Option<&Recorder>,
    metrics: Option<&MetricsRegistry>,
) -> Result<Vec<u64>, Error> {
    let cart = CartTopology::new(stencil.dims.clone(), vec![true; stencil.dims.len()])?;
    let nprocs = cart.size();
    let ndims = stencil.dims.len();
    let face = stencil.face_bytes as usize;
    Ok(run_instrumented(nprocs, recorder, metrics, |p| {
        let rank = p.world_rank();
        let halo = vec![rank as u8; face];
        let mut checksum = 0u64;
        for iter in 0..iterations {
            for dim in 0..ndims {
                if stencil.dims[dim] < 2 {
                    continue;
                }
                let (back, fwd) = cart.shift(rank, dim, 1).expect("rank and dim are in range");
                let fwd = fwd.expect("periodic grid has both neighbors");
                let back = back.expect("periodic grid has both neighbors");
                let base = ((iter * ndims + dim) * 2) as u64;
                let from_back: Vec<u8> =
                    p.sendrecv(fwd, back, Tag { ctx: 17, tag: base }, halo.clone());
                let from_fwd: Vec<u8> = p.sendrecv(
                    back,
                    fwd,
                    Tag {
                        ctx: 17,
                        tag: base + 1,
                    },
                    halo.clone(),
                );
                for b in from_back.iter().chain(from_fwd.iter()) {
                    checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(*b));
                }
            }
        }
        checksum
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mre_simnet::presets::hydra_network;
    use mre_trace::level_occupancy;

    #[test]
    fn halo_schedule_counts_faces() {
        let stencil = Stencil::new(vec![4, 4], 100).unwrap();
        let placement: Vec<usize> = (0..16).collect();
        let s = stencil.halo_schedule(&placement).unwrap();
        assert_eq!(s.num_rounds(), 1);
        // 16 ranks × 2 dims × 2 directions.
        assert_eq!(s.rounds[0].messages.len(), 64);
        assert_eq!(s.total_bytes(), 6400);
    }

    #[test]
    fn degenerate_dimensions_skip_exchanges() {
        let stencil = Stencil::new(vec![1, 8], 100).unwrap();
        let placement: Vec<usize> = (0..8).collect();
        let s = stencil.halo_schedule(&placement).unwrap();
        // Only the size-8 dimension exchanges.
        assert_eq!(s.rounds[0].messages.len(), 8 * 2);
    }

    #[test]
    fn validation() {
        assert!(Stencil::new(vec![], 1).is_err());
        assert!(Stencil::new(vec![4, 0], 1).is_err());
        let stencil = Stencil::new(vec![4, 4], 1).unwrap();
        assert!(stencil.halo_schedule(&[0, 1]).is_err());
        let machine = Hierarchy::new(vec![2, 2, 4]).unwrap();
        let stencil_big = Stencil::new(vec![8, 8], 1).unwrap();
        let net = hydra_network(16, 1);
        // Machine size mismatch.
        assert!(stencil_big
            .iteration_time(&machine, &Permutation::reversal(3), &net)
            .is_err());
    }

    #[test]
    fn packed_rows_beat_node_cyclic_mapping() {
        // 32×16 grid on 16 Hydra nodes: the sequential (block) mapping
        // keeps grid rows inside nodes; the node-cyclic mapping sends
        // every face across the network.
        let machine = Hierarchy::new(vec![16, 2, 2, 8]).unwrap();
        let net = hydra_network(16, 1);
        let stencil = Stencil::new(vec![32, 16], 64 * 1024).unwrap();
        let packed = stencil
            .iteration_time(&machine, &Permutation::parse("3-2-1-0").unwrap(), &net)
            .unwrap();
        let cyclic = stencil
            .iteration_time(&machine, &Permutation::parse("0-1-2-3").unwrap(), &net)
            .unwrap();
        assert!(
            packed < cyclic,
            "contiguous mapping must win for stencils: {packed} vs {cyclic}"
        );
        // And the traffic accounting explains it: the packed mapping sends
        // far fewer bytes across the node level.
        let node_bytes = |order: &str| {
            let reordering =
                RankReordering::new(&machine, &Permutation::parse(order).unwrap()).unwrap();
            let placement: Vec<usize> = (0..512).map(|r| reordering.old_rank(r)).collect();
            let timeline = net
                .schedule_timeline(&stencil.halo_schedule(&placement).unwrap())
                .unwrap();
            level_occupancy(&machine, &timeline).total_bytes_crossing()[0]
        };
        assert!(node_bytes("3-2-1-0") < node_bytes("0-1-2-3"));
    }

    #[test]
    fn comm_schedule_counts_rounds_and_bytes() {
        let stencil = Stencil::new(vec![4, 4], 100).unwrap();
        let members: Vec<usize> = (0..16).collect();
        let s = stencil.comm_schedule(&members, 3).unwrap();
        // Per iteration: 2 active dims × (forward + backward) rounds.
        assert_eq!(s.num_rounds(), 3 * 2 * 2);
        for round in &s.rounds {
            assert_eq!(round.messages.len(), 16);
        }
        // One iteration moves the same bytes as the single-round halo form.
        let halo = stencil.halo_schedule(&members).unwrap();
        assert_eq!(s.total_bytes(), 3 * halo.total_bytes());

        // Degenerate dimensions are skipped, size-2 dimensions are legal
        // (the +1 and −1 neighbors coincide but live in separate rounds).
        let line = Stencil::new(vec![1, 2], 8).unwrap();
        let s = line.comm_schedule(&[0, 1], 1).unwrap();
        assert_eq!(s.num_rounds(), 2);
        assert_eq!(s.rounds[0].messages.len(), 2);

        // Member-count mismatch is rejected.
        assert!(stencil.comm_schedule(&[0, 1], 1).is_err());
    }

    #[test]
    fn instrumented_stencil_matches_plain_and_collects_metrics() {
        let stencil = Stencil::new(vec![2, 4], 256).unwrap();
        let plain = stencil_distributed_instrumented(&stencil, 4, None, None).unwrap();
        let metrics = MetricsRegistry::new();
        let metered = stencil_distributed_instrumented(&stencil, 4, None, Some(&metrics)).unwrap();
        assert_eq!(plain, metered, "metrics must not change results");
        assert_eq!(plain.len(), 8);
        let snap = metrics.snapshot();
        // 8 ranks × 4 iters × 2 dims × 2 directions.
        assert_eq!(snap.counter("mpi.send.count"), 8 * 4 * 2 * 2);
        assert_eq!(
            snap.counter("mpi.send.bytes"),
            snap.counter("mpi.recv.bytes"),
            "every sent byte is received"
        );
    }

    #[test]
    fn trace_diff_aligns_traced_stencil_with_its_costed_schedule() {
        use mre_simnet::LinkParams;
        use mre_trace::{critical_path, diff_traces, schedule_trace, DiffOptions};
        let stencil = Stencil::new(vec![2, 2], 4096).unwrap();
        let iters = 5;
        let recorder = Recorder::new();
        stencil_distributed_instrumented(&stencil, iters, Some(&recorder), None).unwrap();
        let wall = recorder.take_trace();

        let h = Hierarchy::new(vec![2, 2]).unwrap();
        let net = NetworkModel::new(
            h,
            vec![
                LinkParams {
                    uplink_bandwidth: 1e9,
                    crossing_latency: 1e-6,
                },
                LinkParams {
                    uplink_bandwidth: 4e9,
                    crossing_latency: 2e-7,
                },
            ],
            1e10,
        );
        let cores = vec![0, 1, 2, 3];
        let schedule = stencil.comm_schedule(&cores, iters).unwrap();
        let tl = net.schedule_timeline(&schedule).unwrap();
        let sim = schedule_trace(net.hierarchy(), &tl, "stencil");
        let d = diff_traces(&wall, &sim, &DiffOptions { cores });

        // comm_schedule mirrors the functional loop's sendrecv sequence
        // one round per direction, so everything aligns.
        assert!(
            d.matched_fraction >= 0.95,
            "matched fraction {} (wall unmatched {}, sim unmatched {})",
            d.matched_fraction,
            d.unmatched_wall,
            d.unmatched_sim,
        );
        assert_eq!(d.unmatched_sim, 0, "every simulated span must align");
        assert!(d.fidelity > 0.0 && d.fidelity <= 1.0);
        let sim_total: f64 = d.spans.iter().map(|s| s.sim_duration).sum();
        let tl_total: f64 = tl.messages().map(|m| m.finish - m.start).sum();
        assert!((sim_total - tl_total).abs() <= 1e-12 * tl_total.max(1.0));
        let cp = critical_path(net.hierarchy(), &tl);
        assert!((cp.total_time - tl.total_time()).abs() <= 1e-12 * tl.total_time());
    }

    #[test]
    fn rank_orders_sorts_and_covers_all() {
        let machine = Hierarchy::new(vec![2, 2, 4]).unwrap();
        let net = {
            use mre_simnet::{LinkParams, NetworkModel};
            NetworkModel::new(
                machine.clone(),
                vec![
                    LinkParams {
                        uplink_bandwidth: 10.0e9,
                        crossing_latency: 1e-6,
                    },
                    LinkParams {
                        uplink_bandwidth: 20.0e9,
                        crossing_latency: 5e-7,
                    },
                    LinkParams {
                        uplink_bandwidth: 9.0e9,
                        crossing_latency: 2e-7,
                    },
                ],
                20.0e9,
            )
        };
        let stencil = Stencil::new(vec![4, 4], 4096).unwrap();
        let ranked = stencil.rank_orders(&machine, &net).unwrap();
        assert_eq!(ranked.len(), 6);
        for pair in ranked.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }
}
