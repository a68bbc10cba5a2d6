//! A bit-pinned fluid corpus of symmetric job sets: every communicator of a
//! digit-box layout runs the same collective, as in the paper's protocol
//! (§4.1, step 4), so the communicators are translates of each other.
//!
//! The corpus covers the seven pinned collective algorithms (and the railed
//! pairwise Alltoall) × 1/2/4 node rails × every rail policy on a 4-node
//! Hydra, plus a LUMI node. Per fabric it folds the fluid makespan bits,
//! the engine's `FluidStats`, every link's probed bytes and every
//! timeline span into one digest. The digests were recorded before
//! `FluidSim` learned to solve one flight per class of translated
//! messages, so they pin that the class reduction changes no bit of any
//! answer, count or span.

use mixed_radix_enum::core::subcomm::{subcommunicators, ColorScheme};
use mixed_radix_enum::core::{Hierarchy, Permutation};
use mixed_radix_enum::mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mixed_radix_enum::simnet::presets::{hydra_network_rails, lumi_node_network};
use mixed_radix_enum::simnet::{
    fluid_time_with_stats, CongestionProbe, FluidSim, FluidStats, NetworkModel, RailPolicy,
    Schedule,
};
use mixed_radix_enum::workloads::microbench::{Collective, Microbench};

/// Folds `words` into one 64-bit FNV-1a digest.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const ALGORITHMS: [Collective; 7] = [
    Collective::Alltoall(AlltoallAlg::Pairwise),
    Collective::Alltoall(AlltoallAlg::Bruck),
    Collective::Allreduce(AllreduceAlg::RecursiveDoubling),
    Collective::Allreduce(AllreduceAlg::Ring),
    Collective::Allgather(AllgatherAlg::Ring),
    Collective::Allgather(AllgatherAlg::Bruck),
    Collective::Allgather(AllgatherAlg::RecursiveDoubling),
];

/// One job per communicator of `order`'s quotient layout, each running
/// `collective` on `total` bytes with the schedule for `nics` rails.
fn box_jobs(
    h: &Hierarchy,
    order: &str,
    s: usize,
    collective: Collective,
    total: u64,
    nics: usize,
) -> Vec<Schedule> {
    let order = Permutation::parse(order).expect("valid order");
    let layout = subcommunicators(h, &order, s, ColorScheme::Quotient).expect("s divides size");
    let bench = Microbench {
        machine: h.clone(),
        order,
        subcomm_size: s,
        collective,
        total_bytes: total,
    };
    (0..layout.count())
        .map(|c| bench.schedule_for_rails(layout.members(c), nics))
        .collect()
}

fn stats_words(stats: FluidStats) -> [u64; 5] {
    [
        stats.events,
        stats.solves,
        stats.flights,
        stats.repredictions,
        stats.peak_link_utilization.to_bits(),
    ]
}

/// Makespan, stats, probed link bytes and timeline spans of one job set,
/// and whether the engine solved it on the class quotient.
fn instance_words(net: &NetworkModel, jobs: &[Schedule]) -> (Vec<u64>, bool) {
    let (makespan, stats) = fluid_time_with_stats(net, jobs);
    let mut words = vec![makespan.to_bits()];
    words.extend(stats_words(stats));
    let mut probe = CongestionProbe::new(net);
    let probed = FluidSim::new(net).run_probed(jobs, &mut probe);
    assert_eq!(
        probed.to_bits(),
        makespan.to_bits(),
        "probing moved the run"
    );
    words.push(digest(
        (0..probe.num_links() as u32).map(|l| probe.link_bytes(l).to_bits()),
    ));
    let timeline = FluidSim::new(net).run_timeline(jobs);
    assert_eq!(timeline.makespan.to_bits(), makespan.to_bits());
    assert_eq!(timeline.stats, stats, "timeline run counts the same work");
    words.push(digest(timeline.spans.iter().flat_map(|span| {
        [
            span.job as u64,
            span.round as u64,
            span.seq as u64,
            span.src as u64,
            span.dst as u64,
            span.bytes,
            span.start.to_bits(),
            span.finish.to_bits(),
            span.crossing.map_or(u64::MAX, |c| c as u64),
            span.rail.map_or(u64::MAX, |r| r as u64),
        ]
    })));
    (words, stats.reduced_runs == 1)
}

/// The corpus digest of one fabric (every algorithm × order × size) and
/// how many of its job sets the engine reduced.
fn fabric_digest(net: &NetworkModel, orders: &[&str], nics: usize) -> (u64, usize) {
    let h = net.hierarchy();
    let mut words = Vec::new();
    let mut reduced = 0;
    for collective in ALGORITHMS {
        for order in orders {
            for (s, total) in [(16, 1 << 20), (32, 1_692_672)] {
                let jobs = box_jobs(h, order, s, collective, total, nics);
                let (instance, quotient) = instance_words(net, &jobs);
                words.extend(instance);
                reduced += quotient as usize;
            }
        }
    }
    (digest(words), reduced)
}

#[test]
fn symmetric_fluid_corpus_bits_are_pinned() {
    const HYDRA_ORDERS: [&str; 6] = [
        "0-1-2-3", "3-2-1-0", "3-1-0-2", "1-3-0-2", "2-0-3-1", "3-2-0-1",
    ];
    let (mut digests, mut reduced) = (Vec::new(), Vec::new());
    for (nics, policy) in [
        (1, RailPolicy::RoundRobin),
        (2, RailPolicy::RoundRobin),
        (2, RailPolicy::SrcHash),
        (2, RailPolicy::Affinity),
        (4, RailPolicy::RoundRobin),
        (4, RailPolicy::SrcHash),
        (4, RailPolicy::Affinity),
    ] {
        let net = hydra_network_rails(4, nics, policy);
        let (bits, count) = fabric_digest(&net, &HYDRA_ORDERS, nics);
        digests.push(bits);
        reduced.push(count);
    }
    let (bits, count) = fabric_digest(&lumi_node_network(), &["0-1-2-3", "3-2-1-0", "2-0-3-1"], 1);
    digests.push(bits);
    reduced.push(count);
    // Recorded with the full engine, before the class reduction.
    let pinned: [u64; 8] = [
        0x2505_16e9_a238_7be1,
        0x27de_3a6e_a594_0637,
        0x25b4_3e32_57de_bb88,
        0xf201_d317_2282_5eb0,
        0xa266_d9fa_e874_1cc6,
        0xea9a_a0d4_ddd1_ae77,
        0xcf90_77ba_b135_23e5,
        0x0833_a49a_4b40_b466,
    ];
    assert_eq!(digests, pinned, "got {digests:#018x?}");
    // Job sets solved on the class quotient per fabric, of 84 (Hydra) and
    // 42 (LUMI): all of them except under source-hash railing, where the
    // rest fell back to the trivial partition.
    assert_eq!(reduced, [84, 84, 39, 84, 84, 35, 84, 42]);
}

/// Under source-hash railing the translated communicators are not
/// symmetric: each core hashes its own messages onto rails, so a
/// communicator's rail loads depend on where it sits. On this instance the
/// full job set takes 186 rate solves while communicator 0 alone takes 155,
/// and the fluid engine refuses to solve it on a class quotient.
#[test]
fn src_hash_counterexample_is_refused() {
    let net = hydra_network_rails(16, 2, RailPolicy::SrcHash);
    let jobs = box_jobs(
        net.hierarchy(),
        "3-1-0-2",
        32,
        Collective::Allgather(AllgatherAlg::Auto),
        1_692_672,
        2,
    );
    let (_, all) = fluid_time_with_stats(&net, &jobs);
    let (_, alone) = fluid_time_with_stats(&net, &jobs[..1]);
    assert_eq!((all.solves, alone.solves), (186, 155));
    assert_eq!(all.reduced_runs, 0, "the class check must refuse it");
}
