//! Integration tests for the extension features: Cartesian topologies,
//! hierarchy-guided splits, ragged/segmented layouts, the fluid simulator,
//! topology XML, and the order-search utilities.

use mixed_radix_enum::core::order_search::{rank_orders_by_par, representatives, spreadness};
use mixed_radix_enum::core::subcomm::{segmented_layout, Segment};
use mixed_radix_enum::core::visualize::{render_mapping, render_subcomms};
use mixed_radix_enum::core::{subcommunicators_ragged, Hierarchy, Permutation};
use mixed_radix_enum::mpi::schedules;
use mixed_radix_enum::mpi::{run, AllreduceAlg, CartTopology, Comm};
use mixed_radix_enum::simnet::presets::hydra_network;
use mixed_radix_enum::simnet::{fluid_time, Schedule};
use mixed_radix_enum::topology::{hydra, lumi, xml};

/// A 2D stencil on a reordered Cartesian communicator computes the same
/// numeric result as on the identity mapping — reordering changes cost,
/// never semantics.
#[test]
fn cartesian_stencil_is_mapping_invariant() {
    let machine = Hierarchy::new(vec![2, 2, 4]).unwrap();
    let mut reference: Option<Vec<f64>> = None;
    for order in ["2-1-0", "0-1-2", "1-2-0"] {
        let sigma = Permutation::parse(order).unwrap();
        let sigma_for_threads = sigma.clone();
        let m = machine.clone();
        let results = run(16, move |p| {
            let sigma = &sigma_for_threads;
            let world = Comm::world(p);
            let cart = CartTopology::new(vec![4, 4], vec![true, true]).unwrap();
            let comm = world
                .cart_create(&cart, Some((&m, sigma)))
                .unwrap()
                .unwrap();
            let me = comm.rank();
            // One Jacobi step on a field f(r) = r²: average of the four
            // neighbors.
            let mut acc = 0.0f64;
            for dim in 0..2 {
                let (back, fwd) = cart.shift(me, dim, 1).unwrap();
                let (back, fwd) = (back.unwrap(), fwd.unwrap());
                comm.send(fwd, 10 + dim as u64, (me * me) as f64);
                comm.send(back, 20 + dim as u64, (me * me) as f64);
                acc += comm.recv::<f64>(back, 10 + dim as u64);
                acc += comm.recv::<f64>(fwd, 20 + dim as u64);
            }
            acc / 4.0
        });
        // Collect by cart rank: world rank w has cart rank = reordered w.
        let reordering = mixed_radix_enum::core::RankReordering::new(&machine, &sigma).unwrap();
        let mut by_cart_rank = vec![0.0f64; 16];
        for (w, &v) in results.iter().enumerate() {
            by_cart_rank[reordering.new_rank(w)] = v;
        }
        match &reference {
            None => reference = Some(by_cart_rank),
            Some(expected) => assert_eq!(&by_cart_rank, expected, "order {order}"),
        }
    }
}

/// split_by_level on the real machine presets produces node- and
/// NUMA-scoped communicators of the documented sizes.
#[test]
fn guided_split_on_machine_presets() {
    let lumi_h = lumi(2).hierarchy().unwrap();
    let results = run(lumi_h.size(), move |p| {
        let world = Comm::world(p);
        let node = world.split_by_level(&lumi_h, p.world_rank(), 0).unwrap();
        let numa = world.split_by_level(&lumi_h, p.world_rank(), 2).unwrap();
        let l3 = world.split_by_level(&lumi_h, p.world_rank(), 3).unwrap();
        (node.size(), numa.size(), l3.size())
    });
    for (node, numa, l3) in results {
        assert_eq!(node, 128);
        assert_eq!(numa, 16);
        assert_eq!(l3, 8);
    }
}

/// Ragged layouts feed the schedule generators and the fluid simulator:
/// heterogeneous communicators simulate without panicking and respect the
/// fluid ≤ lockstep bound.
#[test]
fn ragged_layouts_simulate_end_to_end() {
    let machine = Hierarchy::new(vec![16, 2, 2, 8]).unwrap();
    let net = hydra_network(16, 1);
    let sizes = [64usize, 32, 128, 16, 16, 256];
    let layout =
        subcommunicators_ragged(&machine, &Permutation::parse("1-3-0-2").unwrap(), &sizes).unwrap();
    let schedules: Vec<Schedule> = (0..layout.count())
        .map(|c| schedules::alltoall_pairwise(layout.members(c), 4096))
        .collect();
    let lockstep = net.concurrent_time(&schedules);
    let fluid = fluid_time(&net, &schedules);
    assert!(fluid > 0.0);
    // Near-or-below lockstep (tiny excess possible; see fluid.rs docs).
    assert!(
        fluid <= lockstep * 1.05,
        "fluid {fluid} lockstep {lockstep}"
    );
}

/// Segmented multi-order layouts cover the machine and their communicators
/// run correct collectives on the runtime.
#[test]
fn segmented_orders_run_collectives() {
    let machine = Hierarchy::new(vec![2, 2, 4]).unwrap();
    let segments = [
        Segment {
            nodes: 1,
            order: Permutation::parse("2-1-0").unwrap(),
            subcomm_size: 4,
        },
        Segment {
            nodes: 1,
            order: Permutation::parse("1-2-0").unwrap(),
            subcomm_size: 8,
        },
    ];
    let layouts = segmented_layout(&machine, &segments).unwrap();
    // Realize the layout functionally: each core joins the communicator
    // the layout assigns it to, then allreduces its segment id.
    let assignment: Vec<(usize, usize)> = {
        let mut a = vec![(0usize, 0usize); 16];
        for (seg, layout) in layouts.iter().enumerate() {
            for c in 0..layout.count() {
                for &core in layout.members(c) {
                    a[core] = (seg, c);
                }
            }
        }
        a
    };
    let expected_sizes: Vec<usize> = (0..16)
        .map(|core| {
            let (seg, c) = assignment[core];
            layouts[seg].members(c).len()
        })
        .collect();
    let results = run(16, move |p| {
        let world = Comm::world(p);
        let (seg, c) = assignment[p.world_rank()];
        let comm = world
            .split((seg * 100 + c) as i64, p.world_rank() as i64)
            .unwrap();
        comm.allreduce(vec![1u64], |a, b| a + b, AllreduceAlg::RecursiveDoubling)[0]
    });
    for (core, count) in results.into_iter().enumerate() {
        assert_eq!(count as usize, expected_sizes[core], "core {core}");
    }
}

/// Topology XML survives a machine-preset roundtrip and still produces
/// the paper's hierarchies.
#[test]
fn topology_xml_roundtrip_to_hierarchy() {
    for desc in [hydra(32), lumi(16)] {
        let xml_text = xml::to_xml(&desc.spec);
        let parsed = xml::from_xml(&xml_text).unwrap();
        assert_eq!(
            parsed.hierarchy().unwrap(),
            desc.hierarchy().unwrap(),
            "{}",
            desc.name
        );
    }
}

/// The order-search utilities agree with the simulator: ranking orders by
/// simulated contended Alltoall duration puts a packed representative
/// first and a fully spread one last.
#[test]
fn order_search_against_simulation() {
    use mixed_radix_enum::workloads::microbench::{Collective, Microbench};
    use mre_mpi::AlltoallAlg;
    let machine = Hierarchy::new(vec![16, 2, 2, 8]).unwrap();
    let net = hydra_network(16, 1);
    let ranked = rank_orders_by_par(&machine, 16, |sigma| {
        Microbench {
            machine: machine.clone(),
            order: sigma.clone(),
            subcomm_size: 16,
            collective: Collective::Alltoall(AlltoallAlg::Auto),
            total_bytes: 4 << 20,
        }
        .run(&net)
        .unwrap()
        .simultaneous_duration
    })
    .unwrap();
    let best = &ranked.first().unwrap().0;
    let worst = &ranked.last().unwrap().0;
    let s_best = spreadness(&machine, &best.order, 16).unwrap();
    let s_worst = spreadness(&machine, &worst.order, 16).unwrap();
    assert!(
        s_best < s_worst,
        "under contention the best order must be more packed: {s_best} vs {s_worst}"
    );
    // Representative pruning kept the space small.
    assert!(representatives(&machine, 16).unwrap().len() <= 12);
}

/// The visualizers render every machine preset without panicking and
/// mention each hierarchy level name.
#[test]
fn visualization_covers_presets() {
    for (h, order) in [
        (hydra(4).hierarchy().unwrap(), "1-3-2-0"),
        (lumi(2).hierarchy().unwrap(), "4-3-2-1-0"),
    ] {
        let sigma = Permutation::parse(order).unwrap();
        let mapping = render_mapping(&h, &sigma).unwrap();
        let comms = render_subcomms(&h, &sigma, 16).unwrap();
        for level in 0..h.depth() - 1 {
            assert!(mapping.contains(h.name(level)), "{mapping}");
        }
        assert!(comms.lines().count() > 4);
    }
}
