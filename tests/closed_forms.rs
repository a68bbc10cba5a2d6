//! The simulator's byte accounting against the paper's closed-form
//! metrics (§3.3): on communicator 0 of a random order's layout,
//!
//! * a pairwise Alltoall puts `2 · block · pair_counts_per_level` bytes on
//!   each crossing level — every unordered pair exchanges one block each
//!   way;
//! * a ring Allgather puts `(s − 1) · block` bytes on the crossing level
//!   of every ring hop, the wrap hop `s−1 → 0` included (which
//!   `ring_cost` leaves out);
//! * a ring Allreduce of `n` bytes puts on each ring hop's level the
//!   blocks that hop carries: every block but one in the reduce-scatter
//!   and every block but one in the allgather, block `b` being
//!   `base + (b < extra)` bytes long (`n = base · s + extra`) — so
//!   `2 · (s − 1) · n / s` when `s` divides `n`;
//! * recursive doubling at power-of-two `s` puts, in round `k`, `n` bytes
//!   (Allreduce) or `2^k` blocks (Allgather) per rank `i` on the crossing
//!   level of `members[i]` and `members[i XOR 2^k]`.
//!
//! The bytes on crossing level `j` are read off the simulator as the
//! successive difference `bytes_through[j] − bytes_through[j − 1]` of
//! [`NetworkModel::round_load`], per round or summed over the rounds.
//!
//! The first two identities also hold for the level bytes of a probed
//! run, under both engines and on 1, 2 or 4 node rails: level `L` of
//! `CongestionProbe::occupancy()` carries both directions of every message
//! crossing at `L` or outside it. A probe integrates rate × time, so those
//! checks use a relative tolerance.

use mixed_radix_enum::core::metrics::{first_diff_level, pair_counts_per_level};
use mixed_radix_enum::core::subcomm::{subcommunicators, ColorScheme};
use mixed_radix_enum::core::{Hierarchy, Permutation};
use mixed_radix_enum::mpi::schedules;
use mixed_radix_enum::simnet::{
    CongestionProbe, FluidSim, LinkParams, Message, NetworkModel, RailPolicy, Schedule,
};
use mre_rng::{propcheck, SmallRng};

/// Largest communicator drawn: pairwise Alltoall has `s(s−1)` messages.
const MAX_SUBCOMM: usize = 128;

/// A random hierarchy (2–5 levels of radix 1–5), a random order of its
/// levels and a random divisor `2 ≤ s ≤ MAX_SUBCOMM` of its size that
/// `admit`s; returns the model and communicator 0's members.
fn arb_communicator(
    rng: &mut SmallRng,
    admit: impl Fn(usize) -> bool,
) -> (NetworkModel, Vec<usize>) {
    let depth = rng.gen_range(2usize..6);
    let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..6)).collect();
    let h = Hierarchy::new(levels).expect("non-zero levels");
    let orders = Permutation::all(depth);
    let sigma = rng.choose(&orders).expect("k! ≥ 1 orders").clone();
    // Communicators of one rank carry no traffic: draw them only on a
    // one-core machine.
    let divisors: Vec<usize> = (2..=h.size().min(MAX_SUBCOMM))
        .filter(|&s| h.size().is_multiple_of(s) && admit(s))
        .collect();
    let s = rng.choose(&divisors).copied().unwrap_or(1);
    let layout = subcommunicators(&h, &sigma, s, ColorScheme::Quotient).expect("s divides");
    let members = layout.members(0).to_vec();
    let links = (0..depth)
        .map(|l| LinkParams {
            uplink_bandwidth: 1e9 * (l + 1) as f64,
            crossing_latency: 1e-6 / (l + 1) as f64,
        })
        .collect();
    (NetworkModel::new(h, links, 1e10), members)
}

/// Checks a probed run's level bytes against `want`, the closed-form bytes
/// per crossing level: under both engines, `occupancy()` summed over the
/// rails of level `L` is twice the bytes crossing at `L` or outside it.
fn assert_probed_level_bytes(net: &NetworkModel, schedule: &Schedule, want: &[u64]) {
    let mut lockstep = CongestionProbe::new(net);
    net.schedule_time_probed(schedule, &mut lockstep);
    let mut fluid = CongestionProbe::new(net);
    FluidSim::new(net).run_probed(std::slice::from_ref(schedule), &mut fluid);
    for (engine, probe) in [("lockstep", &lockstep), ("fluid", &fluid)] {
        let mut got = vec![0.0f64; want.len()];
        for row in probe.occupancy() {
            got[row.level] += row.bytes;
        }
        let mut outer = 0u64;
        for (level, (&got, &crossing)) in got.iter().zip(want).enumerate() {
            outer += crossing;
            let expect = 2.0 * outer as f64;
            assert!(
                (got - expect).abs() <= 1e-9 * expect,
                "{engine} level {level}: {got} vs {expect}"
            );
        }
    }
}

/// A copy of `net` with 1, 2 or 4 node rails under a random policy.
fn arb_rails(rng: &mut SmallRng, net: NetworkModel) -> NetworkModel {
    let nics = *rng.choose(&[1usize, 2, 4]).expect("non-empty");
    let policy = *rng.choose(&RailPolicy::ALL).expect("three policies");
    net.with_node_rails(nics, policy)
}

/// Bytes per crossing level of one round: the successive differences of
/// its load's `bytes_through`.
fn round_crossing_bytes(net: &NetworkModel, messages: &[Message]) -> Vec<u64> {
    let mut outer = 0;
    net.round_load(messages)
        .bytes_through
        .iter()
        .map(|&total| {
            let crossing = total - outer;
            outer = total;
            crossing
        })
        .collect()
}

/// Bytes per crossing level, summed over the schedule's rounds.
fn crossing_bytes(net: &NetworkModel, schedule: &Schedule) -> Vec<u64> {
    let mut bytes = vec![0u64; net.hierarchy().depth()];
    for round in &schedule.rounds {
        let crossing = round_crossing_bytes(net, &round.messages);
        for (level, more) in bytes.iter_mut().zip(crossing) {
            *level += more;
        }
    }
    bytes
}

#[test]
fn pairwise_alltoall_puts_two_blocks_per_pair_on_each_crossing_level() {
    propcheck(128, 0xC105_ED01, |rng| {
        let (net, members) = arb_communicator(rng, |_| true);
        let block = rng.gen_range(1u64..1 << 20);
        let got = crossing_bytes(&net, &schedules::alltoall_pairwise(&members, block));
        // `pair_counts_per_level[d]` counts pairs at distance `d + 1`, which
        // first differ at level `depth − 1 − d`.
        let mut want = pair_counts_per_level(net.hierarchy(), &members);
        want.reverse();
        let want: Vec<u64> = want.iter().map(|&n| 2 * block * n as u64).collect();
        assert_eq!(got, want, "members {members:?}");
    });
}

#[test]
fn probed_level_bytes_of_pairwise_alltoall_and_ring_allgather_match_the_closed_forms() {
    propcheck(48, 0xC105_ED05, |rng| {
        let (net, members) = arb_communicator(rng, |s| s <= 32);
        let net = arb_rails(rng, net);
        let h = net.hierarchy();
        let block = rng.gen_range(1u64..1 << 20);
        let mut pairs = pair_counts_per_level(h, &members);
        pairs.reverse();
        let want: Vec<u64> = pairs.iter().map(|&n| 2 * block * n as u64).collect();
        let alltoall = schedules::alltoall_pairwise(&members, block);
        assert_probed_level_bytes(&net, &alltoall, &want);
        let s = members.len();
        let mut want = vec![0u64; h.depth()];
        for (i, &src) in members.iter().enumerate().filter(|_| s > 1) {
            let dst = members[(i + 1) % s];
            let level = first_diff_level(h, src, dst).expect("distinct");
            want[level] += (s as u64 - 1) * block;
        }
        let allgather = schedules::allgather_ring(&members, block);
        assert_probed_level_bytes(&net, &allgather, &want);
    });
}

#[test]
fn ring_allgather_puts_s_minus_one_blocks_on_each_ring_hop() {
    propcheck(128, 0xC105_ED02, |rng| {
        let (net, members) = arb_communicator(rng, |_| true);
        let block = rng.gen_range(1u64..1 << 20);
        let got = crossing_bytes(&net, &schedules::allgather_ring(&members, block));
        let s = members.len();
        let mut want = vec![0u64; net.hierarchy().depth()];
        if s > 1 {
            // Every ring hop `i → i + 1 mod s`, the wrap hop included.
            for (i, &src) in members.iter().enumerate() {
                let dst = members[(i + 1) % s];
                let level = first_diff_level(net.hierarchy(), src, dst).expect("distinct");
                want[level] += (s as u64 - 1) * block;
            }
        }
        assert_eq!(got, want, "members {members:?}");
    });
}

#[test]
fn ring_allreduce_puts_the_blocks_each_hop_carries_on_its_level() {
    propcheck(128, 0xC105_ED03, |rng| {
        let (net, members) = arb_communicator(rng, |_| true);
        let s = members.len();
        // Payloads `s` divides, and ragged ones down to fewer bytes than
        // ranks (zero-byte blocks).
        let n = if rng.gen_bool(0.5) {
            s as u64 * rng.gen_range(0u64..1 << 14)
        } else {
            rng.gen_range(0u64..1 << 20)
        };
        let got = crossing_bytes(&net, &schedules::allreduce_ring(&members, n));
        let (base, extra) = (n / s as u64, n % s as u64);
        let len = |b: usize| base + u64::from((b as u64) < extra);
        let mut want = vec![0u64; net.hierarchy().depth()];
        if s > 1 {
            for (i, &src) in members.iter().enumerate() {
                // Hop `i → i + 1` carries every block but `i + 1` in the
                // reduce-scatter and every block but `i + 2` in the
                // allgather (mod `s`).
                let carried = 2 * n - len((i + 1) % s) - len((i + 2) % s);
                if extra == 0 {
                    assert_eq!(carried, 2 * (s as u64 - 1) * n / s as u64);
                }
                let dst = members[(i + 1) % s];
                let level = first_diff_level(net.hierarchy(), src, dst).expect("distinct");
                want[level] += carried;
            }
        }
        assert_eq!(got, want, "n {n}, members {members:?}");
    });
}

#[test]
fn recursive_doubling_puts_each_ranks_bytes_on_its_partners_level() {
    propcheck(128, 0xC105_ED04, |rng| {
        let (net, members) = arb_communicator(rng, usize::is_power_of_two);
        let s = members.len();
        let n = rng.gen_range(1u64..1 << 20);
        let reduce = schedules::allreduce_recursive_doubling(&members, n);
        let gather = schedules::allgather_recursive_doubling(&members, n);
        let rounds = s.trailing_zeros() as usize;
        assert_eq!((reduce.num_rounds(), gather.num_rounds()), (rounds, rounds));
        for k in 0..rounds {
            // Allreduce sends the whole vector, Allgather the `2^k` blocks
            // gathered so far.
            for (schedule, bytes) in [(&reduce, n), (&gather, n << k)] {
                let mut want = vec![0u64; net.hierarchy().depth()];
                for (i, &src) in members.iter().enumerate() {
                    let dst = members[i ^ (1 << k)];
                    let level = first_diff_level(net.hierarchy(), src, dst).expect("distinct");
                    want[level] += bytes;
                }
                let got = round_crossing_bytes(&net, &schedule.rounds[k].messages);
                assert_eq!(got, want, "round {k}, members {members:?}");
            }
        }
    });
}
