//! Timeline consistency over every collective schedule generator, plus
//! the wall-clock recording path of the runtime.
//!
//! For every algorithm the paper's pipeline can cost, the reconstructed
//! timeline must be internally consistent (finishes after starts, rounds
//! never overlap), conserve bytes against the static schedule, and its
//! critical path must end exactly at the simnet-costed schedule time.

use mre_core::metrics::first_diff_level;
use mre_core::{Hierarchy, Permutation};
use mre_mpi::schedules;
use mre_simnet::{LinkParams, NetworkModel, Schedule};
use mre_trace::{critical_path, level_occupancy, rank_activity, EventKind, Recorder};

fn hydra_like() -> NetworkModel {
    // ⟦4, 2, 8⟧ = 64 cores: node / socket / core, toy magnitudes.
    let h = Hierarchy::new(vec![4, 2, 8]).unwrap();
    NetworkModel::new(
        h,
        vec![
            LinkParams {
                uplink_bandwidth: 12.5e9,
                crossing_latency: 1e-6,
            },
            LinkParams {
                uplink_bandwidth: 48e9,
                crossing_latency: 300e-9,
            },
            LinkParams {
                uplink_bandwidth: 100e9,
                crossing_latency: 100e-9,
            },
        ],
        200e9,
    )
}

/// Every generator, applied to `members`, labelled for failure messages.
fn all_schedules(members: &[usize]) -> Vec<(&'static str, Schedule)> {
    let n = members.len();
    let mut out = vec![
        (
            "alltoall:pairwise",
            schedules::alltoall_pairwise(members, 4096),
        ),
        ("alltoall:bruck", schedules::alltoall_bruck(members, 4096)),
        ("allgather:ring", schedules::allgather_ring(members, 4096)),
        ("allgather:bruck", schedules::allgather_bruck(members, 4096)),
        (
            "allreduce:recursive-doubling",
            schedules::allreduce_recursive_doubling(members, 1 << 16),
        ),
        (
            "allreduce:ring (Rabenseifner reduce-scatter + allgather)",
            schedules::allreduce_ring(members, 1 << 16),
        ),
        (
            "bcast:binomial",
            schedules::bcast_binomial(members, 0, 1 << 14),
        ),
        (
            "reduce:binomial",
            schedules::reduce_binomial(members, 0, 1 << 14),
        ),
        ("gather:linear", schedules::gather_linear(members, 0, 4096)),
        (
            "scan:hillis-steele",
            schedules::scan_hillis_steele(members, 4096),
        ),
        (
            "reduce_scatter:ring",
            schedules::reduce_scatter_ring(members, 1 << 16),
        ),
        (
            "exscan:hillis-steele",
            schedules::exscan_hillis_steele(members, 4096),
        ),
        (
            "barrier:dissemination",
            schedules::barrier_dissemination(members),
        ),
        (
            "alltoallv:pairwise (ragged)",
            schedules::alltoallv_pairwise(
                members,
                &(0..n)
                    .map(|s| (0..n).map(|d| ((s * 7 + d * 3) % 5) as u64 * 512).collect())
                    .collect::<Vec<Vec<u64>>>(),
            ),
        ),
    ];
    if n.is_power_of_two() {
        out.push((
            "allgather:recursive-doubling",
            schedules::allgather_recursive_doubling(members, 4096),
        ));
    }
    out
}

/// Member sets exercising packed, spread and irregular mappings.
fn member_sets(h: &Hierarchy) -> Vec<Vec<usize>> {
    use mre_core::subcomm::{subcommunicators, ColorScheme};
    let packed = subcommunicators(
        h,
        &Permutation::parse("2-1-0").unwrap(),
        16,
        ColorScheme::Quotient,
    )
    .unwrap();
    let spread = subcommunicators(
        h,
        &Permutation::parse("0-1-2").unwrap(),
        16,
        ColorScheme::Quotient,
    )
    .unwrap();
    vec![
        packed.members(0).to_vec(),
        spread.members(0).to_vec(),
        // Odd-size irregular group (exercises non-power-of-two paths).
        vec![0, 3, 9, 17, 22, 40, 63],
    ]
}

#[test]
fn every_generator_yields_a_consistent_timeline() {
    let net = hydra_like();
    for members in member_sets(net.hierarchy()) {
        for (name, sched) in all_schedules(&members) {
            let tl = net
                .schedule_timeline(&sched)
                .unwrap_or_else(|e| panic!("{name}: generated schedule invalid: {e}"));
            // Bytes are conserved: traced == static schedule accounting.
            assert_eq!(tl.total_bytes(), sched.total_bytes(), "{name}: bytes");
            let sched_messages: usize = sched.rounds.iter().map(|r| r.messages.len()).sum();
            assert_eq!(tl.num_messages(), sched_messages, "{name}: messages");
            // Every message finishes at or after it starts, within its
            // round; rounds don't overlap and abut exactly.
            let mut prev_finish = 0.0f64;
            for (i, r) in tl.rounds.iter().enumerate() {
                assert_eq!(r.start, prev_finish, "{name}: round {i} must abut");
                assert!(r.finish >= r.start, "{name}: round {i} negative span");
                for m in &r.messages {
                    assert_eq!(m.start, r.start, "{name}: round {i} message start");
                    assert!(m.finish >= m.start, "{name}: message finishes early");
                    assert!(
                        m.finish <= r.finish + 1e-12 * r.finish.abs().max(1.0),
                        "{name}: message escapes its round"
                    );
                }
                prev_finish = r.finish;
            }
        }
    }
}

#[test]
fn critical_path_time_equals_costed_schedule_time() {
    let net = hydra_like();
    for members in member_sets(net.hierarchy()) {
        for (name, sched) in all_schedules(&members) {
            let tl = net.schedule_timeline(&sched).unwrap();
            let cp = critical_path(net.hierarchy(), &tl);
            let costed = net.schedule_time(&sched);
            let tol = 1e-12 * costed.abs().max(1e-30);
            assert!(
                (cp.total_time - costed).abs() <= tol,
                "{name}: critical path {} != schedule time {}",
                cp.total_time,
                costed
            );
            // The hops tile [0, total]: durations sum to the total.
            let hop_sum: f64 = cp.hops.iter().map(|h| h.finish - h.start).sum();
            assert!(
                (hop_sum - cp.total_time).abs() <= 1e-9 * cp.total_time.abs().max(1e-30),
                "{name}: hops don't tile the timeline"
            );
        }
    }
}

#[test]
fn analyses_agree_with_static_accounting() {
    let net = hydra_like();
    let members = member_sets(net.hierarchy()).remove(1); // spread set
    let sched = schedules::alltoall_pairwise(&members, 1 << 14);
    let tl = net.schedule_timeline(&sched).unwrap();
    let occ = level_occupancy(net.hierarchy(), &tl);
    // The static oracle: each message's bytes at its endpoints'
    // `first_diff_level`, local copies at index `k`.
    let h = net.hierarchy();
    let mut expected = vec![0u64; h.depth() + 1];
    for m in sched.rounds.iter().flat_map(|r| &r.messages) {
        expected[first_diff_level(h, m.src, m.dst).unwrap_or(h.depth())] += m.bytes;
    }
    assert_eq!(occ.total_bytes_crossing(), expected);
    assert_eq!(
        occ.total_bytes_crossing().iter().sum::<u64>(),
        sched.total_bytes()
    );
    // Every member communicates in an alltoall; nobody is 100% idle.
    let acts = rank_activity(&tl);
    assert_eq!(acts.len(), members.len());
    for a in &acts {
        assert!(members.contains(&a.core));
        assert!(a.busy > 0.0, "core {} never communicates", a.core);
        assert!(a.busy + a.idle <= tl.total_time() + 1e-9);
    }
}

#[test]
fn run_traced_records_collectives_on_every_rank() {
    let recorder = Recorder::new();
    let results = mre_mpi::run_instrumented(8, Some(&recorder), None, |p| {
        let world = mre_mpi::Comm::world(p);
        let summed = world.allreduce(
            vec![world.rank() as u64],
            |a, b| a + b,
            mre_mpi::AllreduceAlg::Ring,
        );
        world.barrier();
        summed[0]
    });
    assert!(results.iter().all(|&r| r == 28));
    let trace = recorder.take_trace();
    assert_eq!(trace.clock, mre_trace::Clock::Wall);
    assert_eq!(trace.lanes(), (0..8).collect::<Vec<_>>());
    for rank in 0..8usize {
        let collectives: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.lane == rank && e.kind == EventKind::Collective)
            .collect();
        assert_eq!(
            collectives.len(),
            2,
            "rank {rank}: allreduce + barrier spans"
        );
        assert!(collectives.iter().any(|e| e.name == "allreduce:ring"));
        assert!(collectives
            .iter()
            .any(|e| e.name == "barrier:dissemination"));
        // Point-to-point activity was recorded under the collectives.
        assert!(trace
            .events
            .iter()
            .any(|e| e.lane == rank && e.kind == EventKind::Send));
    }
    for e in &trace.events {
        assert!(e.finish >= e.start);
    }
    // The wall-clock trace exports like any other.
    let json = mre_trace::chrome_trace_json(&trace);
    assert!(json.contains("allreduce:ring"));
    assert!(json.contains("\"name\":\"rank 0\""));
}

#[test]
fn untraced_run_records_nothing() {
    let results = mre_mpi::run(4, |p| {
        let world = mre_mpi::Comm::world(p);
        assert!(p.recorder().is_none());
        world.allreduce(vec![1u64], |a, b| a + b, mre_mpi::AllreduceAlg::Auto)[0]
    });
    assert_eq!(results, vec![4, 4, 4, 4]);
}
