//! A bit-pinned fluid corpus of symmetric job sets: every communicator of a
//! digit-box layout runs the same collective, as in the paper's protocol
//! (§4.1, step 4), so the communicators are translates of each other.
//!
//! It also holds the oracle of `FluidSim`'s class quotient: a direct
//! link-map check over every job's paths. The certificate the engine
//! takes its classes from (`TranslationCertificate::of_jobs`) must accept
//! wherever the oracle does, with the oracle's multiplicity at every path
//! slot, and a run it reduces must equal the trivial partition bit for
//! bit.
//!
//! The corpus covers the seven pinned collective algorithms (and the railed
//! pairwise Alltoall) × 1/2/4 node rails × every rail policy on a 4-node
//! Hydra, plus a LUMI node. Per fabric it folds the fluid makespan bits,
//! the engine's `FluidStats`, every link's probed bytes and every
//! timeline span into one digest. The digests were recorded before
//! `FluidSim` learned to solve one flight per class of translated
//! messages, so they pin that the class reduction changes no bit of any
//! answer, count or span.

use mixed_radix_enum::core::order_search::representatives;
use mixed_radix_enum::core::subcomm::{subcommunicators, ColorScheme};
use mixed_radix_enum::core::{Hierarchy, Permutation};
use mixed_radix_enum::mpi::{AllgatherAlg, AllreduceAlg, AlltoallAlg};
use mixed_radix_enum::simnet::presets::{hydra_network, hydra_network_rails, lumi_node_network};
use mixed_radix_enum::simnet::{
    fluid_time_with_stats, CongestionProbe, FluidSim, FluidStats, LinkParams, Message,
    NetworkModel, RailLinkTable, RailPolicy, Schedule, TranslationCertificate,
};
use mixed_radix_enum::workloads::microbench::{Collective, Microbench};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

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
    assert_eq!(all.reduced_runs, 0, "the certificate must refuse it");
}

/// The link-map oracle: job 0's multiplicity at every path slot, in
/// `(round, seq, hop)` order, when grouping the jobs' messages by
/// `(round, seq)` is an equitable partition, else `None`.
///
/// Every job must have job 0's round shapes, payloads and path lengths.
/// Job `c` induces a link map `φ_c` (job 0's link at slot `q` ↦ `c`'s link
/// at `q`) that must be well defined and injective; every link it hits
/// must have one job-0 preimage (job 0's links are their own) and be hit
/// by as many maps as that preimage. A slot's multiplicity is the map
/// count of its link.
fn check_classes(table: &RailLinkTable, jobs: &[Schedule]) -> Option<Vec<u32>> {
    let base = jobs.first()?;
    if jobs.len() < 2 {
        return None;
    }
    let slots = |m: &Message| -> Vec<u32> {
        table
            .path(m.src, m.dst)
            .into_iter()
            .flatten()
            .flat_map(|hop| [hop.up, hop.down])
            .collect()
    };
    let mut pre: HashMap<u32, u32> = HashMap::new();
    let mut hits: HashMap<u32, u32> = HashMap::new();
    for job in jobs {
        if job.rounds.len() != base.rounds.len() {
            return None;
        }
        let mut image: HashMap<u32, u32> = HashMap::new();
        let mut hit: HashSet<u32> = HashSet::new();
        for (round, round0) in job.rounds.iter().zip(&base.rounds) {
            if round.messages.len() != round0.messages.len() {
                return None;
            }
            for (m, m0) in round.messages.iter().zip(&round0.messages) {
                let (path, path0) = (slots(m), slots(m0));
                if m.bytes != m0.bytes || path.len() != path0.len() {
                    return None;
                }
                for (l, l0) in path.into_iter().zip(path0) {
                    match image.entry(l0) {
                        Entry::Occupied(e) if *e.get() == l => continue,
                        Entry::Occupied(_) => return None,
                        Entry::Vacant(e) => e.insert(l),
                    };
                    if !hit.insert(l) || *pre.entry(l).or_insert(l0) != l0 {
                        return None;
                    }
                    *hits.entry(l).or_default() += 1;
                }
            }
        }
    }
    if pre.iter().any(|(l, l0)| hits[l] != hits[l0]) {
        return None;
    }
    let messages = base.rounds.iter().flat_map(|r| &r.messages);
    Some(messages.flat_map(slots).map(|l| hits[&l]).collect())
}

/// The oracle's and the certificate's verdicts on one job set. Wherever
/// the oracle accepts, the certificate must accept with the oracle's
/// multiplicity at every one of job 0's path slots.
fn verdicts(table: &RailLinkTable, jobs: &[Schedule]) -> (bool, bool) {
    let oracle = check_classes(table, jobs);
    let cert = TranslationCertificate::of_jobs(table, jobs);
    if let Some(want) = &oracle {
        assert!(
            !cert.is_trivial(),
            "the oracle accepts, the certificate refuses"
        );
        let got: Vec<u32> = jobs[0]
            .rounds
            .iter()
            .flat_map(|r| &r.messages)
            .flat_map(|m| table.path(m.src, m.dst).into_iter().flatten())
            .flat_map(|hop| [hop.up, hop.down])
            .map(|l| cert.multiplicity(l))
            .collect();
        assert_eq!(&got, want, "slot multiplicities");
    }
    (oracle.is_some(), !cert.is_trivial())
}

/// A run on the class quotient equals the trivial partition — which a
/// probed run always takes — in its makespan and every count.
fn assert_reduced_run_is_exact(net: &NetworkModel, jobs: &[Schedule]) {
    let mut sim = FluidSim::new(net);
    let makespan = sim.run(jobs);
    let reduced = sim.stats();
    assert_eq!(reduced.reduced_runs, 1, "a certified set runs reduced");
    let mut trivial = FluidSim::new(net);
    let probed = trivial.run_probed(jobs, &mut CongestionProbe::new(net));
    assert_eq!(makespan.to_bits(), probed.to_bits());
    assert_eq!(
        FluidStats {
            reduced_runs: 0,
            ..reduced
        },
        trivial.stats()
    );
}

/// Random hierarchies (radices 1–5, so non-box layouts too) × orders ×
/// divisors × random link parameters × 1/2/4 node rails × every policy ×
/// every pinned collective algorithm: the certificate accepts exactly
/// where the oracle does, with its slot multiplicities, and every reduced
/// run is exact.
#[test]
fn certificate_matches_the_link_map_oracle_on_random_job_sets() {
    let (mut accepted, mut refused) = (0usize, 0usize);
    mre_rng::propcheck(60, 0x0C1A_55E6, |rng| {
        let h = loop {
            let depth = rng.gen_range(2usize..5);
            let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..6)).collect();
            let size: usize = levels.iter().product();
            if (4..=120).contains(&size) {
                break Hierarchy::new(levels).expect("non-zero levels");
            }
        };
        let orders = Permutation::all(h.depth());
        let order = rng.choose(&orders).expect("k! ≥ 1 orders").clone();
        let divisors: Vec<usize> = (2..h.size())
            .filter(|&d| h.size().is_multiple_of(d))
            .collect();
        let Some(&s) = rng.choose(&divisors) else {
            return;
        };
        let nics = *rng.choose(&[1usize, 2, 4]).expect("non-empty");
        let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
        let links = (0..h.depth())
            .map(|_| LinkParams {
                uplink_bandwidth: rng.gen_range(1e9f64..1e11),
                crossing_latency: rng.gen_range(1e-7f64..1e-5),
            })
            .collect();
        let layout =
            subcommunicators(&h, &order, s, ColorScheme::Quotient).expect("s divides size");
        let net = NetworkModel::new(h, links, 1e11).with_node_rails(nics, policy);
        for collective in ALGORITHMS {
            let total = rng.gen_range(1u64..1 << 22);
            let jobs: Vec<Schedule> = layout
                .comms()
                .iter()
                .map(|m| collective.schedule(m, total, nics))
                .collect();
            let (oracle, cert) = verdicts(net.link_table(), &jobs);
            assert_eq!(
                oracle, cert,
                "{collective:?} on {order} s={s} {nics}x{policy}"
            );
            if cert {
                assert_reduced_run_is_exact(&net, &jobs);
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    });
    assert!(
        accepted > 100 && refused > 10,
        "{accepted} accepted, {refused} refused"
    );
}

/// The Hydra-8 part of `recommend_fluid`'s job sets: 1 rail, and 2 and 4
/// rails under every policy × `s` = 16, 32, 64 × the three `Auto`
/// collectives × 16 KiB, 128 KiB, 1 MiB and 8 MiB × every representative
/// order. The certificate's verdict equals the oracle's on every set.
#[test]
fn certificate_verdicts_equal_the_oracle_on_the_hydra8_grid() {
    let mut fabrics = vec![hydra_network(8, 1)];
    for nics in [2, 4] {
        fabrics.extend(RailPolicy::ALL.map(|p| hydra_network_rails(8, nics, p)));
    }
    let mut certified = Vec::new();
    for net in &fabrics {
        let (h, nics) = (net.hierarchy(), net.node_rails());
        let mut count = 0;
        for s in [16, 32, 64] {
            let reps = representatives(h, s).expect("s divides 256");
            for collective in [
                Collective::Alltoall(AlltoallAlg::Auto),
                Collective::Allreduce(AllreduceAlg::Auto),
                Collective::Allgather(AllgatherAlg::Auto),
            ] {
                for total in [16 << 10, 128 << 10, 1 << 20, 8 << 20] {
                    for rep in &reps {
                        let layout = subcommunicators(h, &rep.order, s, ColorScheme::Quotient)
                            .expect("s divides 256");
                        let jobs: Vec<Schedule> = layout
                            .comms()
                            .iter()
                            .map(|m| collective.schedule(m, total, nics))
                            .collect();
                        let (oracle, cert) = verdicts(net.link_table(), &jobs);
                        assert_eq!(
                            oracle, cert,
                            "{collective:?} {total} on {} s={s}",
                            rep.order
                        );
                        count += cert as usize;
                    }
                }
            }
        }
        certified.push(count);
    }
    // Of 276 sets per fabric: all of them, except under source-hash
    // railing, where the owners of a used link hash onto different rails.
    assert_eq!(
        certified,
        [276, 276, 52, 276, 276, 52, 276],
        "certified sets per fabric"
    );
}
