//! The lockstep translation certificate (DESIGN.md §7j): wherever
//! `TranslationCertificate::new` certifies a job set from its member lists
//! and communicator 0's schedule, that schedule solved on the
//! certificate's multiplicities must cost the merged schedule of every
//! communicator bit for bit.
//!
//! The property test draws hierarchies (radices 1–5), orders, divisors,
//! 1/2/4 node rails, every rail policy, every `mre_mpi::schedules`
//! generator and both contention modes. Wherever a certificate is issued
//! it checks that
//! 1. every communicator's schedule is communicator 0's mapped through
//!    `ψ_c: members_0[k] ↦ members_c[k]`;
//! 2. each merged round is an equitable partition: the link under slot
//!    `k` of communicator `c`'s message `i` carries the same multiset of
//!    `(message, slot)` flows as communicator 0's, and the multiplicity of
//!    `(i, k)` there is the certificate's multiplicity of the link;
//! 3. `SharedCostCache::job_set_time` equals the merged
//!    `schedule_time_rounds` bit for bit.
//!
//! `estimate_cpd_time_cached` takes the certified path for the layer
//! Alltoalls; its four `CpdCost` fields are pinned against the merged path
//! on the `splatt_rails` shapes.

use mixed_radix_enum::core::subcomm::{subcommunicators, ColorScheme};
use mixed_radix_enum::core::{Hierarchy, Permutation, RankReordering};
use mixed_radix_enum::mpi::{schedules, AllgatherAlg};
use mixed_radix_enum::simnet::presets::hydra_network_rails;
use mixed_radix_enum::simnet::{
    fluid_time, ContentionMode, JobSetEngine, LinkParams, NetworkModel, RailPolicy, Schedule,
    SharedCostCache, TranslationCertificate,
};
use mixed_radix_enum::workloads::microbench::{Collective, Microbench};
use mixed_radix_enum::workloads::splatt::{estimate_cpd_time_cached, CpdCost, SplattConfig};
use mre_rng::{propcheck, SmallRng};
use std::collections::HashMap;

/// A hierarchy of 2–4 levels with radices 1–5 and 2–120 cores.
fn arb_hierarchy(rng: &mut SmallRng) -> Hierarchy {
    loop {
        let depth = rng.gen_range(2usize..5);
        let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..6)).collect();
        let size: usize = levels.iter().product();
        if (2..=120).contains(&size) {
            return Hierarchy::new(levels).expect("non-zero levels");
        }
    }
}

/// A model of `h` whose link calibrations repeat, so shares tie across
/// levels, with `nics` node rails under `policy`.
fn arb_network(
    rng: &mut SmallRng,
    h: Hierarchy,
    nics: usize,
    policy: RailPolicy,
    mode: ContentionMode,
) -> NetworkModel {
    const BANDWIDTHS: [f64; 4] = [10.0, 20.0, 40.0, 3.0];
    let links = (0..h.depth())
        .map(|l| LinkParams {
            uplink_bandwidth: *rng.choose(&BANDWIDTHS).expect("non-empty") * (l + 1) as f64,
            crossing_latency: 1.0 / (l + 1) as f64,
        })
        .collect();
    NetworkModel::new(h, links, 1000.0)
        .with_node_rails(nics, policy)
        .with_contention_mode(mode)
}

/// Every generator of `mre_mpi::schedules` on one member list, at
/// member-independent payloads (`sizes` is the Alltoallv matrix).
fn generators(nics: usize, sizes: &[Vec<u64>]) -> Vec<(&'static str, GenFn<'_>)> {
    let mut gens: Vec<(&'static str, GenFn<'_>)> = vec![
        (
            "alltoall_pairwise",
            Box::new(|m| schedules::alltoall_pairwise(m, 96)),
        ),
        (
            "alltoall_pairwise_railed",
            Box::new(move |m| schedules::alltoall_pairwise_railed(m, 96, nics)),
        ),
        (
            "alltoall_bruck",
            Box::new(|m| schedules::alltoall_bruck(m, 40)),
        ),
        (
            "alltoallv_pairwise",
            Box::new(|m| schedules::alltoallv_pairwise(m, sizes)),
        ),
        (
            "allgather_ring",
            Box::new(|m| schedules::allgather_ring(m, 64)),
        ),
        (
            "allgather_bruck",
            Box::new(|m| schedules::allgather_bruck(m, 64)),
        ),
        (
            "allreduce_recursive_doubling",
            Box::new(|m| schedules::allreduce_recursive_doubling(m, 1000)),
        ),
        (
            "allreduce_ring",
            Box::new(|m| schedules::allreduce_ring(m, 1000)),
        ),
        (
            "bcast_binomial",
            Box::new(|m| schedules::bcast_binomial(m, 0, 500)),
        ),
        (
            "reduce_binomial",
            Box::new(|m| schedules::reduce_binomial(m, 1, 500)),
        ),
        (
            "gather_linear",
            Box::new(|m| schedules::gather_linear(m, 0, 70)),
        ),
        (
            "scan_hillis_steele",
            Box::new(|m| schedules::scan_hillis_steele(m, 70)),
        ),
        (
            "reduce_scatter_ring",
            Box::new(|m| schedules::reduce_scatter_ring(m, 1000)),
        ),
        (
            "exscan_hillis_steele",
            Box::new(|m| schedules::exscan_hillis_steele(m, 70)),
        ),
        (
            "barrier_dissemination",
            Box::new(schedules::barrier_dissemination),
        ),
    ];
    if sizes.len().is_power_of_two() {
        gens.push((
            "allgather_recursive_doubling",
            Box::new(|m| schedules::allgather_recursive_doubling(m, 64)),
        ));
    }
    gens
}

type GenFn<'a> = Box<dyn Fn(&[usize]) -> Schedule + 'a>;

/// Checks 1 and 2 of the module docs on a certified job set.
fn assert_translates(
    net: &NetworkModel,
    cert: &TranslationCertificate,
    comms: &[Vec<usize>],
    all: &[Schedule],
) {
    let table = net.link_table();
    for (comm, schedule) in comms.iter().zip(all) {
        let psi: HashMap<usize, usize> =
            comms[0].iter().copied().zip(comm.iter().copied()).collect();
        assert_eq!(schedule.rounds.len(), all[0].rounds.len());
        for (round, round0) in schedule.rounds.iter().zip(&all[0].rounds) {
            let mapped: Vec<_> = round0
                .messages
                .iter()
                .map(|m| (psi[&m.src], psi[&m.dst], m.bytes))
                .collect();
            let got: Vec<_> = round
                .messages
                .iter()
                .map(|m| (m.src, m.dst, m.bytes))
                .collect();
            assert_eq!(got, mapped, "schedule is not communicator 0's translate");
        }
    }
    let slots = |m: &mixed_radix_enum::simnet::Message| -> Vec<u32> {
        table
            .path(m.src, m.dst)
            .into_iter()
            .flatten()
            .flat_map(|hop| [hop.up, hop.down])
            .collect()
    };
    for r in 0..all[0].rounds.len() {
        let mut flows: HashMap<u32, Vec<(usize, usize)>> = HashMap::new();
        for schedule in all {
            for (i, m) in schedule.rounds[r].messages.iter().enumerate() {
                for (k, l) in slots(m).into_iter().enumerate() {
                    flows.entry(l).or_default().push((i, k));
                }
            }
        }
        for set in flows.values_mut() {
            set.sort_unstable();
        }
        for schedule in all {
            for (i, (m, m0)) in schedule.rounds[r]
                .messages
                .iter()
                .zip(&all[0].rounds[r].messages)
                .enumerate()
            {
                for (k, (l, l0)) in slots(m).into_iter().zip(slots(m0)).enumerate() {
                    assert_eq!(
                        flows[&l], flows[&l0],
                        "round {r}: message {i} slot {k} breaks the partition"
                    );
                    let m = flows[&l0].iter().filter(|&&f| f == (i, k)).count();
                    assert_eq!(
                        cert.multiplicity(l0) as usize,
                        m,
                        "round {r}: multiplicity of link {l0}"
                    );
                }
            }
        }
    }
}

#[test]
fn certified_job_sets_cost_the_merged_rounds_bit_for_bit() {
    let (mut certified, mut refused) = (0usize, 0usize);
    propcheck(160, 0x7C3E_0001, |rng| {
        let h = arb_hierarchy(rng);
        let orders = Permutation::all(h.depth());
        let order = rng.choose(&orders).expect("k! ≥ 1 orders").clone();
        let divisors: Vec<usize> = (2..=h.size())
            .filter(|&d| h.size().is_multiple_of(d))
            .collect();
        let s = *rng.choose(&divisors).expect("size ≥ 2");
        let nics = *rng.choose(&[1usize, 2, 4]).expect("non-empty");
        let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
        let layout =
            subcommunicators(&h, &order, s, ColorScheme::Quotient).expect("s divides size");
        let comms = layout.comms();
        let sizes: Vec<Vec<u64>> = (0..s)
            .map(|_| (0..s).map(|_| rng.gen_range(0u64..4) * 32).collect())
            .collect();
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = arb_network(rng, h.clone(), nics, policy, mode);
            // One cache for every generator: certified sets of one member
            // list share its profile-tier context.
            let cache = SharedCostCache::new();
            // One payload key per generator: a pattern key ignores bytes, so
            // two generators sending the same pattern must not share one.
            for (key, (name, generate)) in (0u64..).zip(generators(nics, &sizes)) {
                let all: Vec<Schedule> = comms.iter().map(|m| generate(m)).collect();
                let merged = Schedule::lockstep(&all);
                let expected = SharedCostCache::new().schedule_time_rounds(&net, &merged, key);
                let cert = TranslationCertificate::new(net.link_table(), comms, &all[0]);
                let job = if cert.is_trivial() {
                    refused += 1;
                    &merged
                } else {
                    certified += 1;
                    assert_translates(&net, &cert, comms, &all);
                    &all[0]
                };
                let got = cache.job_set_time(&net, &cert, job, key);
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{name}: {h} order {order} s={s} nics={nics} {policy} {mode:?}: {got} vs {expected}"
                );
            }
        }
    });
    // Both paths are exercised.
    assert!(
        certified > 10 && refused > 10,
        "{certified} certified, {refused} refused"
    );
}

/// The fluid suite's source-hash counterexample: translated communicators
/// whose cores hash their own messages onto rails are not symmetric.
#[test]
fn src_hash_counterexample_is_refused() {
    let net = hydra_network_rails(16, 2, RailPolicy::SrcHash);
    let order = Permutation::parse("3-1-0-2").expect("valid order");
    let h = net.hierarchy().clone();
    let layout = subcommunicators(&h, &order, 32, ColorScheme::Quotient).expect("32 divides 512");
    let bench = Microbench {
        machine: h,
        order,
        subcomm_size: 32,
        collective: Collective::Allgather(AllgatherAlg::Auto),
        total_bytes: 1_692_672,
    };
    let all: Vec<Schedule> = layout
        .comms()
        .iter()
        .map(|m| bench.schedule_for_rails(m, 2))
        .collect();
    let cert = TranslationCertificate::new(net.link_table(), layout.comms(), &all[0]);
    assert!(cert.is_trivial());
    // The same layout is certified on round-robin rails.
    let rr = hydra_network_rails(16, 2, RailPolicy::RoundRobin);
    assert!(!TranslationCertificate::new(rr.link_table(), layout.comms(), &all[0]).is_trivial());
    let merged = Schedule::lockstep(&all);
    assert_eq!(
        SharedCostCache::new()
            .job_set_time(&net, &cert, &merged, 1)
            .to_bits(),
        net.schedule_time(&merged).to_bits()
    );
}

/// Communicator 0 sits in node 0 while communicator 1 straddles both
/// nodes of ⟦2, 3⟧: the outer instance map is not well defined.
#[test]
fn a_communicator_straddling_instances_is_refused() {
    let h = Hierarchy::new(vec![2, 3]).expect("valid");
    let net = arb_network(
        &mut SmallRng::seed_from_u64(1),
        h,
        1,
        RailPolicy::RoundRobin,
        ContentionMode::MaxMinFair,
    );
    let comms = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
    let pair = schedules::alltoall_pairwise(&comms[0], 8);
    assert!(TranslationCertificate::new(net.link_table(), &comms, &pair).is_trivial());
    // Node-aligned pairs on ⟦3, 2⟧ are translates.
    let aligned = Hierarchy::new(vec![3, 2]).expect("valid");
    let net = arb_network(
        &mut SmallRng::seed_from_u64(1),
        aligned,
        1,
        RailPolicy::RoundRobin,
        ContentionMode::MaxMinFair,
    );
    assert!(!TranslationCertificate::new(net.link_table(), &comms, &pair).is_trivial());
}

/// The profile tier keys a certified set by its member lists alone, so a
/// link's multiplicity must not depend on which generator's schedule the
/// certificate read: pairwise Alltoall and ring Allgather on one member
/// set agree on every link both use, and both cost their merged schedule
/// bit for bit through one cache.
#[test]
fn multiplicities_depend_on_the_member_lists_alone() {
    for (nics, policy, order) in [
        (1, RailPolicy::RoundRobin, "0-1-2-3"),
        (2, RailPolicy::Affinity, "3-1-0-2"),
        (4, RailPolicy::RoundRobin, "0-1-2-3"),
        (4, RailPolicy::RoundRobin, "2-0-3-1"),
    ] {
        let net = hydra_network_rails(4, nics, policy);
        let h = net.hierarchy().clone();
        let order = Permutation::parse(order).expect("valid order");
        let layout =
            subcommunicators(&h, &order, 16, ColorScheme::Quotient).expect("16 divides 128");
        let comms = layout.comms();
        let table = net.link_table();
        let cache = SharedCostCache::new();
        let generators: [(u64, GenFn<'_>); 2] = [
            (1, Box::new(|m| schedules::alltoall_pairwise(m, 4096))),
            (2, Box::new(|m| schedules::allgather_ring(m, 4096))),
        ];
        let mut used: Vec<HashMap<u32, u32>> = Vec::new();
        for (key, generate) in generators {
            let all: Vec<Schedule> = comms.iter().map(|m| generate(m)).collect();
            let cert = TranslationCertificate::new(table, comms, &all[0]);
            assert!(!cert.is_trivial(), "{nics}x{policy} {order}");
            let got = cache.job_set_time(&net, &cert, &all[0], key);
            let want = net.schedule_time(&Schedule::lockstep(&all));
            assert_eq!(got.to_bits(), want.to_bits(), "{nics}x{policy} {order}");
            let links = all[0].rounds.iter().flat_map(|r| &r.messages);
            let links = links.flat_map(|m| table.path(m.src, m.dst).into_iter().flatten());
            used.push(
                links
                    .flat_map(|hop| [hop.up, hop.down])
                    .map(|l| (l, cert.multiplicity(l)))
                    .collect(),
            );
        }
        let common: Vec<u32> = used[0]
            .keys()
            .filter(|l| used[1].contains_key(l))
            .copied()
            .collect();
        assert!(!common.is_empty());
        for l in common {
            assert_eq!(
                used[0][&l], used[1][&l],
                "{nics}x{policy} {order}: link {l}"
            );
        }
    }
}

/// One job set costed by both engines in one cache gets two entries: the
/// job-set key carries the engine.
#[test]
fn lockstep_and_fluid_costs_of_one_job_set_are_two_entries() {
    let net = hydra_network_rails(2, 2, RailPolicy::RoundRobin);
    let h = net.hierarchy().clone();
    let order = Permutation::parse("0-1-2-3").expect("valid order");
    let layout = subcommunicators(&h, &order, 16, ColorScheme::Quotient).expect("16 divides 64");
    let comms = layout.comms();
    let all: Vec<Schedule> = comms
        .iter()
        .map(|m| schedules::alltoall_pairwise(m, 4096))
        .collect();
    let cert = TranslationCertificate::new(net.link_table(), comms, &all[0]);
    assert!(!cert.is_trivial());
    let cache = SharedCostCache::new();
    let lockstep = cache.job_set_time(&net, &cert, &all[0], 4096);
    let fluid = cache.time_keyed(
        &net,
        Schedule::job_set_key(JobSetEngine::Fluid, &all),
        4096,
        || fluid_time(&net, &all),
    );
    assert_eq!(cache.len(), 2);
    assert_eq!(lockstep.to_bits(), net.concurrent_time(&all).to_bits());
    assert!(fluid <= lockstep * (1.0 + 1e-9));
    assert_ne!(
        Schedule::job_set_key(JobSetEngine::Lockstep, &all),
        Schedule::job_set_key(JobSetEngine::Fluid, &all)
    );
}

/// The CPD estimate as it was costed before certificates: every layer's
/// schedule merged, the world Allreduce costed per mode.
fn merged_cpd_cost(
    cfg: &SplattConfig,
    machine: &Hierarchy,
    sigma: &Permutation,
    net: &NetworkModel,
    flop_rate: f64,
) -> (CpdCost, usize) {
    let p = cfg.nprocs();
    let g = cfg.grid;
    let reordering = RankReordering::new(machine, sigma).expect("valid order");
    let coords = |r: usize| [r / (g[1] * g[2]), (r / g[2]) % g[1], r % g[2]];
    let mut cost = CpdCost {
        total: 0.0,
        small_comm_alltoallv: 0.0,
        large_comm_alltoallv: 0.0,
        allreduce: 0.0,
        compute: 0.0,
    };
    let smallest_mode = (0..3).max_by_key(|&m| g[m]).expect("three modes");
    let world: Vec<usize> = (0..p).map(|r| reordering.old_rank(r)).collect();
    let ar_bytes = (cfg.rank * 8) as u64;
    let ar = schedules::allreduce_recursive_doubling(&world, ar_bytes);
    let mut certified = 0;
    for m in 0..3 {
        let n_layers = g[m];
        let comm_size = p / n_layers;
        let mut members: Vec<Vec<usize>> = vec![Vec::with_capacity(comm_size); n_layers];
        for r in 0..p {
            members[coords(r)[m]].push(reordering.old_rank(r));
        }
        let slab_rows = cfg.dims[m] / n_layers.max(1);
        let per_member_bytes = (slab_rows * cfg.rank * 8) as u64 / comm_size as u64;
        let per_pair = (per_member_bytes / comm_size as u64).max(1);
        let layers: Vec<Schedule> = members
            .iter()
            .map(|mem| schedules::alltoall_pairwise(mem, per_pair))
            .collect();
        let cert = TranslationCertificate::new(net.link_table(), &members, &layers[0]);
        certified += !cert.is_trivial() as usize;
        let t = net.concurrent_time(&layers);
        if m == smallest_mode {
            cost.small_comm_alltoallv += t * cfg.iterations as f64;
        } else {
            cost.large_comm_alltoallv += t * cfg.iterations as f64;
        }
        cost.allreduce += net.schedule_time(&ar) * cfg.iterations as f64;
    }
    let flops = 3.0 * 5.0 * cfg.nnz as f64 * cfg.rank as f64 / p as f64;
    cost.compute = cfg.iterations as f64 * flops / flop_rate;
    cost.total =
        cost.small_comm_alltoallv + cost.large_comm_alltoallv + cost.allreduce + cost.compute;
    (cost, certified)
}

/// `splatt_rails`' shapes: Hydra 2/3/4 × 1 rail and 2/4 rails under every
/// policy × both process grids × all 24 orders. Every `CpdCost` field
/// equals the merged path's bits, and the certified share of the 3024
/// (order, mode) layer job sets is pinned.
#[test]
fn cpd_costs_match_the_merged_path_on_the_splatt_rails_shapes() {
    const GRIDS: [[[usize; 3]; 2]; 3] = [
        [[4, 4, 4], [2, 4, 8]],
        [[4, 4, 6], [2, 6, 8]],
        [[4, 4, 8], [2, 8, 8]],
    ];
    let mut fabrics = vec![(1, RailPolicy::RoundRobin)];
    for nics in [2, 4] {
        fabrics.extend(RailPolicy::ALL.map(|p| (nics, p)));
    }
    let mut certified = [0usize; 3];
    for (n, grids) in [2usize, 3, 4].into_iter().zip(GRIDS) {
        for &(nics, policy) in &fabrics {
            let net = hydra_network_rails(n, nics, policy);
            let machine = net.hierarchy().clone();
            let cache = SharedCostCache::new();
            for grid in grids {
                let cfg = SplattConfig {
                    grid,
                    ..SplattConfig::nell1_like()
                };
                for sigma in Permutation::all(4) {
                    let got =
                        estimate_cpd_time_cached(&cfg, &machine, &sigma, &net, 15.0e9, &cache)
                            .expect("valid configuration");
                    let (want, c) = merged_cpd_cost(&cfg, &machine, &sigma, &net, 15.0e9);
                    certified[nics.trailing_zeros() as usize] += c;
                    for (a, b) in [
                        (got.total, want.total),
                        (got.small_comm_alltoallv, want.small_comm_alltoallv),
                        (got.large_comm_alltoallv, want.large_comm_alltoallv),
                        (got.allreduce, want.allreduce),
                        (got.compute, want.compute),
                    ] {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "hydra{n} x{nics} {policy} grid {grid:?} order {sigma}"
                        );
                    }
                }
            }
        }
    }
    // Certified (order, mode) layer job sets per rail count, of 432 at one
    // rail and 1296 at two and at four.
    assert_eq!(certified, [358, 817, 791], "certified per rail count");
}
