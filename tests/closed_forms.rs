//! The simulator's byte accounting against the paper's closed-form
//! metrics (§3.3): on communicator 0 of a random order's layout,
//!
//! * a pairwise Alltoall puts `2 · block · pair_counts_per_level` bytes on
//!   each crossing level — every unordered pair exchanges one block each
//!   way;
//! * a ring Allgather puts `(s − 1) · block` bytes on the crossing level
//!   of every ring hop, the wrap hop `s−1 → 0` included (which
//!   `ring_cost` leaves out).
//!
//! The bytes on crossing level `j` are read off the simulator as the
//! successive difference `bytes_through[j] − bytes_through[j − 1]` of
//! [`NetworkModel::round_load`], summed over the schedule's rounds.

use mixed_radix_enum::core::metrics::{first_diff_level, pair_counts_per_level};
use mixed_radix_enum::core::subcomm::{subcommunicators, ColorScheme};
use mixed_radix_enum::core::{Hierarchy, Permutation};
use mixed_radix_enum::mpi::schedules;
use mixed_radix_enum::simnet::{LinkParams, NetworkModel, Schedule};
use mre_rng::{propcheck, SmallRng};

/// Largest communicator drawn: pairwise Alltoall has `s(s−1)` messages.
const MAX_SUBCOMM: usize = 128;

/// A random hierarchy (2–5 levels of radix 1–5), a random order of its
/// levels and a random divisor `2 ≤ s ≤ MAX_SUBCOMM` of its size; returns the
/// model and communicator 0's members.
fn arb_communicator(rng: &mut SmallRng) -> (NetworkModel, Vec<usize>) {
    let depth = rng.gen_range(2usize..6);
    let levels: Vec<usize> = (0..depth).map(|_| rng.gen_range(1usize..6)).collect();
    let h = Hierarchy::new(levels).expect("non-zero levels");
    let orders = Permutation::all(depth);
    let sigma = rng.choose(&orders).expect("k! ≥ 1 orders").clone();
    // Communicators of one rank carry no traffic: draw them only on a
    // one-core machine.
    let divisors: Vec<usize> = (2..=h.size().min(MAX_SUBCOMM))
        .filter(|s| h.size().is_multiple_of(*s))
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

/// Bytes per crossing level, summed over the schedule's rounds: the
/// successive differences of each round load's `bytes_through`.
fn crossing_bytes(net: &NetworkModel, schedule: &Schedule) -> Vec<u64> {
    let mut bytes = vec![0u64; net.hierarchy().depth()];
    for round in &schedule.rounds {
        let through = net.round_load(&round.messages).bytes_through;
        let mut outer = 0;
        for (level, &total) in bytes.iter_mut().zip(&through) {
            *level += total - outer;
            outer = total;
        }
    }
    bytes
}

#[test]
fn pairwise_alltoall_puts_two_blocks_per_pair_on_each_crossing_level() {
    propcheck(128, 0xC105_ED01, |rng| {
        let (net, members) = arb_communicator(rng);
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
fn ring_allgather_puts_s_minus_one_blocks_on_each_ring_hop() {
    propcheck(128, 0xC105_ED02, |rng| {
        let (net, members) = arb_communicator(rng);
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
