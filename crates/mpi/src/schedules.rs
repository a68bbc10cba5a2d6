//! Pure schedule generators: the communication pattern of every collective
//! algorithm, as data.
//!
//! Each generator takes the communicator's **members** — the global core id
//! of every communicator rank, in rank order, exactly what
//! [`mre_core::subcomm::SubcommLayout::members`] produces — and the payload
//! sizes, and emits the [`mre_simnet::Schedule`] the functional
//! implementation in [`crate::collectives`] would execute. This is what
//! lets mappings be costed at the paper's scale (512–2048 ranks, 24–120
//! orders, dozens of message sizes) in milliseconds.
//!
//! The generators are tested against the functional implementations: for
//! every algorithm, the multiset of (src, dst) pairs per round matches the
//! messages the thread runtime actually exchanges.

use crate::collectives::{block_range, ceil_log2};
use mre_simnet::{Message, Round, Schedule};

/// Pairwise-exchange Alltoall: `p−1` rounds; in round `r` rank `i` sends to
/// `(i+r) mod p` and receives from `(i−r) mod p`. `bytes_per_pair` is the
/// payload each rank sends to each other rank.
pub fn alltoall_pairwise(members: &[usize], bytes_per_pair: u64) -> Schedule {
    let p = members.len();
    let mut schedule = Schedule::with(Vec::with_capacity(p.saturating_sub(1)));
    for r in 1..p {
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            round.push(Message::new(
                members[i],
                members[(i + r) % p],
                bytes_per_pair,
            ));
        }
        schedule.push(round);
    }
    schedule
}

/// Rail-striped pairwise Alltoall: the `p−1` pairwise rounds merged in
/// chunks of `nics` consecutive rounds.
///
/// Pairwise rounds are mutually independent (round `r` pairs rank `i`
/// with `(i±r) mod p`, distinct peers for distinct `r`), so on a
/// `nics`-rail fabric `nics` of them can run concurrently: under the
/// round-robin rail policy the messages of plain round `r` all share rail
/// parity `r mod nics`, leaving `nics−1` rails idle per round — the
/// merged rounds instead load every rail. At `nics = 1` this is exactly
/// [`alltoall_pairwise`].
pub fn alltoall_pairwise_railed(members: &[usize], bytes_per_pair: u64, nics: usize) -> Schedule {
    assert!(nics >= 1, "need at least one rail");
    let p = members.len();
    let mut schedule = Schedule::with(Vec::with_capacity(p.saturating_sub(1).div_ceil(nics)));
    let mut r = 1;
    while r < p {
        let end = (r + nics).min(p);
        let mut round = Round::with_capacity((end - r) * p);
        for sub in r..end {
            for i in 0..p {
                round.push(Message::new(
                    members[i],
                    members[(i + sub) % p],
                    bytes_per_pair,
                ));
            }
        }
        schedule.push(round);
        r += nics;
    }
    schedule
}

/// Bruck Alltoall: `⌈log₂ p⌉` rounds; in round `k` every rank forwards the
/// blocks whose destination offset has bit `k` set to `(i + 2ᵏ) mod p`.
pub fn alltoall_bruck(members: &[usize], bytes_per_pair: u64) -> Schedule {
    let p = members.len();
    let mut schedule = Schedule::with(Vec::with_capacity(ceil_log2(p)));
    for k in 0..ceil_log2(p) {
        let hop = 1usize << k;
        // Every rank holds, per destination offset `o`, one block of
        // `bytes_per_pair`; blocks with bit k of o set travel this round.
        let blocks: u64 = (0..p).filter(|o| o & hop != 0).count() as u64;
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            round.push(Message::new(
                members[i],
                members[(i + hop) % p],
                blocks * bytes_per_pair,
            ));
        }
        schedule.push(round);
    }
    schedule
}

/// Ragged pairwise Alltoallv: `sizes[i][j]` bytes go from rank `i` to rank
/// `j`. Zero-byte entries generate no message.
///
/// Like `MPI_Alltoallv`, the diagonal block participates: a non-zero
/// `sizes[i][i]` becomes a self-message in a leading round (simulated as
/// a local copy, off the network fabric). Zero diagonals — the common
/// case for callers modelling pure exchanges — leave the schedule
/// identical to the previous self-free shape.
pub fn alltoallv_pairwise(members: &[usize], sizes: &[Vec<u64>]) -> Schedule {
    let p = members.len();
    assert_eq!(sizes.len(), p, "one size row per rank");
    let mut schedule = Schedule::with(Vec::with_capacity(p));
    for r in 0..p {
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            let dst = (i + r) % p;
            let bytes = sizes[i][dst];
            if bytes > 0 {
                round.push(Message::new(members[i], members[dst], bytes));
            }
        }
        if !round.messages.is_empty() {
            schedule.push(round);
        }
    }
    schedule
}

/// Ring Allgather: `p−1` rounds, every rank forwards the block it received
/// last to its right neighbor. `block_bytes` is one rank's contribution.
pub fn allgather_ring(members: &[usize], block_bytes: u64) -> Schedule {
    let p = members.len();
    let mut schedule = Schedule::with(Vec::with_capacity(p.saturating_sub(1)));
    for _ in 1..p {
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            round.push(Message::new(members[i], members[(i + 1) % p], block_bytes));
        }
        schedule.push(round);
    }
    schedule
}

/// Recursive-doubling Allgather (power-of-two `p`): round `k` exchanges
/// `2ᵏ` accumulated blocks with rank `i ⊕ 2ᵏ`.
pub fn allgather_recursive_doubling(members: &[usize], block_bytes: u64) -> Schedule {
    let p = members.len();
    assert!(
        p.is_power_of_two(),
        "recursive doubling needs a power of two"
    );
    let mut schedule = Schedule::with(Vec::with_capacity(p.trailing_zeros() as usize));
    let mut hop = 1usize;
    while hop < p {
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            round.push(Message::new(
                members[i],
                members[i ^ hop],
                hop as u64 * block_bytes,
            ));
        }
        schedule.push(round);
        hop <<= 1;
    }
    schedule
}

/// Bruck Allgather (any `p`): round `k` sends `min(2ᵏ, p−2ᵏ)` blocks to
/// `(i − 2ᵏ) mod p`.
pub fn allgather_bruck(members: &[usize], block_bytes: u64) -> Schedule {
    let p = members.len();
    let mut schedule = Schedule::with(Vec::with_capacity(ceil_log2(p)));
    let mut hop = 1usize;
    while hop < p {
        let blocks = hop.min(p - hop) as u64;
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            round.push(Message::new(
                members[i],
                members[(i + p - hop) % p],
                blocks * block_bytes,
            ));
        }
        schedule.push(round);
        hop <<= 1;
    }
    schedule
}

/// Recursive-doubling Allreduce: fold/unfold rounds for non-powers of two
/// plus `log₂` full-vector exchange rounds.
pub fn allreduce_recursive_doubling(members: &[usize], total_bytes: u64) -> Schedule {
    let p = members.len();
    if p <= 1 {
        return Schedule::new();
    }
    let pow = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let rem = p - pow;
    let folds = if rem > 0 { 2 } else { 0 };
    let mut schedule = Schedule::with(Vec::with_capacity(pow.trailing_zeros() as usize + folds));
    if rem > 0 {
        let mut round = Round::with_capacity(rem);
        for i in 0..rem {
            round.push(Message::new(
                members[2 * i + 1],
                members[2 * i],
                total_bytes,
            ));
        }
        schedule.push(round);
    }
    let to_real = |nr: usize| if nr < rem { nr * 2 } else { nr + rem };
    let mut hop = 1usize;
    while hop < pow {
        let mut round = Round::with_capacity(pow);
        for nr in 0..pow {
            round.push(Message::new(
                members[to_real(nr)],
                members[to_real(nr ^ hop)],
                total_bytes,
            ));
        }
        schedule.push(round);
        hop <<= 1;
    }
    if rem > 0 {
        let mut round = Round::with_capacity(rem);
        for i in 0..rem {
            round.push(Message::new(
                members[2 * i],
                members[2 * i + 1],
                total_bytes,
            ));
        }
        schedule.push(round);
    }
    schedule
}

/// Ring Allreduce (reduce-scatter + allgather): `2(p−1)` rounds of
/// `total_bytes / p` blocks (balanced split).
pub fn allreduce_ring(members: &[usize], total_bytes: u64) -> Schedule {
    let p = members.len();
    if p <= 1 {
        return Schedule::new();
    }
    let mut schedule = Schedule::with(Vec::with_capacity(2 * (p - 1)));
    let n = total_bytes as usize;
    // Reduce-scatter.
    for step in 0..p - 1 {
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            let send_block = (i + p - step) % p;
            let (s0, s1) = block_range(n, p, send_block);
            round.push(Message::new(
                members[i],
                members[(i + 1) % p],
                (s1 - s0) as u64,
            ));
        }
        schedule.push(round);
    }
    // Allgather.
    for step in 0..p - 1 {
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            let send_block = (i + 1 + p - step) % p;
            let (s0, s1) = block_range(n, p, send_block);
            round.push(Message::new(
                members[i],
                members[(i + 1) % p],
                (s1 - s0) as u64,
            ));
        }
        schedule.push(round);
    }
    schedule
}

/// Binomial-tree broadcast from communicator rank `root`.
pub fn bcast_binomial(members: &[usize], root: usize, bytes: u64) -> Schedule {
    let p = members.len();
    if p <= 1 {
        return Schedule::new();
    }
    // Round k: relative ranks < 2^k forward to +2^k.
    let rounds = ceil_log2(p);
    let mut schedule = Schedule::with(Vec::with_capacity(rounds));
    for k in 0..rounds {
        let hop = 1usize << k;
        let mut round = Round::with_capacity(hop.min(p - hop));
        for rel in 0..hop.min(p) {
            if rel + hop < p {
                round.push(Message::new(
                    members[(rel + root) % p],
                    members[(rel + hop + root) % p],
                    bytes,
                ));
            }
        }
        if !round.messages.is_empty() {
            schedule.push(round);
        }
    }
    schedule
}

/// Binomial-tree reduction to communicator rank `root` (the mirror of
/// [`bcast_binomial`]).
pub fn reduce_binomial(members: &[usize], root: usize, bytes: u64) -> Schedule {
    let bcast = bcast_binomial(members, root, bytes);
    // Reverse rounds and flip message directions.
    let rounds = bcast
        .rounds
        .into_iter()
        .rev()
        .map(|r| {
            Round::with(
                r.messages
                    .into_iter()
                    .map(|m| Message::new(m.dst, m.src, m.bytes))
                    .collect(),
            )
        })
        .collect();
    Schedule::with(rounds)
}

/// Linear gather of `bytes` per rank to `root` (one contention round).
pub fn gather_linear(members: &[usize], root: usize, bytes: u64) -> Schedule {
    let p = members.len();
    let mut round = Round::with_capacity(p.saturating_sub(1));
    for (i, &m) in members.iter().enumerate() {
        if i != root {
            round.push(Message::new(m, members[root], bytes));
        }
    }
    let mut schedule = Schedule::new();
    if p > 1 {
        schedule.push(round);
    }
    schedule
}

/// Hillis–Steele inclusive scan: `⌈log₂ p⌉` rounds of full-vector hops.
pub fn scan_hillis_steele(members: &[usize], bytes: u64) -> Schedule {
    let p = members.len();
    let mut schedule = Schedule::with(Vec::with_capacity(ceil_log2(p)));
    let mut hop = 1usize;
    while hop < p {
        let mut round = Round::with_capacity(p - hop);
        for i in 0..p - hop {
            round.push(Message::new(members[i], members[i + hop], bytes));
        }
        schedule.push(round);
        hop <<= 1;
    }
    schedule
}

/// Ring reduce-scatter (equal blocks): `p−1` reduction rounds plus one
/// rotate-home round, block size `total_bytes / p`.
pub fn reduce_scatter_ring(members: &[usize], total_bytes: u64) -> Schedule {
    let p = members.len();
    if p <= 1 {
        return Schedule::new();
    }
    let mut schedule = Schedule::with(Vec::with_capacity(p));
    let block = total_bytes / p as u64;
    for _ in 0..p - 1 {
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            round.push(Message::new(members[i], members[(i + 1) % p], block));
        }
        schedule.push(round);
    }
    // Rotate the finished block home: rank i holds block i+1, which
    // belongs to the right neighbor.
    let mut round = Round::with_capacity(p);
    for i in 0..p {
        round.push(Message::new(members[i], members[(i + 1) % p], block));
    }
    schedule.push(round);
    schedule
}

/// Exclusive scan: same hop structure as [`scan_hillis_steele`].
pub fn exscan_hillis_steele(members: &[usize], bytes: u64) -> Schedule {
    scan_hillis_steele(members, bytes)
}

/// Dissemination barrier: `⌈log₂ p⌉` rounds of empty (latency-only)
/// messages.
pub fn barrier_dissemination(members: &[usize]) -> Schedule {
    let p = members.len();
    let mut schedule = Schedule::with(Vec::with_capacity(ceil_log2(p)));
    for k in 0..ceil_log2(p) {
        let hop = 1usize << k;
        let mut round = Round::with_capacity(p);
        for i in 0..p {
            round.push(Message::new(members[i], members[(i + hop) % p], 0));
        }
        schedule.push(round);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use mre_simnet::{assign_rail, RailPolicy};

    fn members(p: usize) -> Vec<usize> {
        (0..p).map(|i| i * 10).collect()
    }

    #[test]
    fn pairwise_alltoall_counts() {
        let s = alltoall_pairwise(&members(8), 100);
        assert_eq!(s.num_rounds(), 7);
        for r in &s.rounds {
            assert_eq!(r.messages.len(), 8);
        }
        // Total bytes: every ordered pair once.
        assert_eq!(s.total_bytes(), 8 * 7 * 100);
    }

    #[test]
    fn pairwise_alltoall_covers_every_ordered_pair() {
        let p = 6;
        let s = alltoall_pairwise(&members(p), 1);
        let mut seen = std::collections::HashSet::new();
        for r in &s.rounds {
            for m in &r.messages {
                assert!(seen.insert((m.src, m.dst)), "pair repeated");
            }
        }
        assert_eq!(seen.len(), p * (p - 1));
    }

    #[test]
    fn railed_pairwise_merges_independent_rounds() {
        let p = 8;
        // nics = 1 is exactly the plain generator.
        assert_eq!(
            alltoall_pairwise_railed(&members(p), 100, 1),
            alltoall_pairwise(&members(p), 100)
        );
        // nics = 2 halves the round count (⌈7/2⌉ = 4), same ordered pairs.
        let s = alltoall_pairwise_railed(&members(p), 1, 2);
        assert_eq!(s.num_rounds(), 4);
        assert_eq!(s.total_bytes(), (p * (p - 1)) as u64);
        let mut seen = std::collections::HashSet::new();
        for r in &s.rounds {
            let mut peers = std::collections::HashSet::new();
            for m in &r.messages {
                assert!(seen.insert((m.src, m.dst)), "pair repeated");
                assert!(peers.insert((m.src, m.dst)), "round reuses a pair");
            }
        }
        assert_eq!(seen.len(), p * (p - 1));
        // Within a merged round no rank sends to the same peer twice, so
        // the merge preserves pairwise-exchange validity.
        for r in &s.rounds {
            let mut sends = std::collections::HashMap::new();
            for m in &r.messages {
                *sends.entry(m.src).or_insert(0usize) += 1;
            }
            assert!(sends.values().all(|&n| n <= 2));
        }
    }

    /// Each message's node rail under round-robin assignment, per round.
    fn rail_hints(schedule: &Schedule, nics: usize) -> Vec<Vec<usize>> {
        let rail = |m: &Message| assign_rail(RailPolicy::RoundRobin, nics, 1, m.src, m.dst);
        let round = |r: &Round| r.messages.iter().map(rail).collect();
        schedule.rounds.iter().map(round).collect()
    }

    #[test]
    fn rail_hints_balance_merged_rounds() {
        let p = 8;
        // Plain pairwise with contiguous members: round r has constant
        // hint parity (2i + r) mod 2 — one rail idle every round.
        let contiguous: Vec<usize> = (0..p).collect();
        let plain = alltoall_pairwise(&contiguous, 1);
        for (r, hints) in rail_hints(&plain, 2).iter().enumerate() {
            assert!(
                hints.iter().all(|&h| h == (r + 1) % 2),
                "round {r} should sit on one rail"
            );
        }
        // The railed generator's merged rounds touch both rails.
        let railed = alltoall_pairwise_railed(&contiguous, 1, 2);
        for hints in rail_hints(&railed, 2).iter().take(3) {
            let rails: std::collections::HashSet<_> = hints.iter().copied().collect();
            assert_eq!(rails.len(), 2, "merged round loads both rails");
        }
        // Single-rail hints are all zero.
        assert!(rail_hints(&plain, 1).iter().flatten().all(|&h| h == 0));
    }

    #[test]
    fn bruck_alltoall_moves_all_bytes() {
        let p = 8;
        let s = alltoall_bruck(&members(p), 64);
        assert_eq!(s.num_rounds(), 3);
        // Bruck moves each block once per set bit of its offset: total =
        // sum over offsets of popcount(o) × p ranks × 64.
        let total: u64 = (0..p).map(|o: usize| o.count_ones() as u64).sum::<u64>() * p as u64 * 64;
        assert_eq!(s.total_bytes(), total);
    }

    #[test]
    fn bruck_fewer_rounds_than_pairwise() {
        let p = 64;
        assert!(
            alltoall_bruck(&members(p), 1).num_rounds()
                < alltoall_pairwise(&members(p), 1).num_rounds()
        );
    }

    #[test]
    fn alltoallv_skips_zero_sizes() {
        let p = 4;
        let mut sizes = vec![vec![0u64; p]; p];
        sizes[0][1] = 5;
        sizes[2][3] = 7;
        let s = alltoallv_pairwise(&members(p), &sizes);
        assert_eq!(s.total_bytes(), 12);
        for r in &s.rounds {
            for m in &r.messages {
                assert!(m.bytes > 0);
            }
        }
    }

    #[test]
    fn alltoallv_diagonal_becomes_self_messages() {
        let p = 4;
        let mut sizes = vec![vec![1u64; p]; p];
        for (i, row) in sizes.iter_mut().enumerate() {
            row[i] = 100 + i as u64;
        }
        let s = alltoallv_pairwise(&members(p), &sizes);
        // Round 0 carries exactly the diagonal block as self-messages.
        let diag = &s.rounds[0];
        assert_eq!(diag.messages.len(), p);
        for m in &diag.messages {
            assert_eq!(m.src, m.dst);
            assert_eq!(m.bytes, 100 + (m.src / 10) as u64);
        }
        // Off-diagonal rounds never self-send, and nothing is lost.
        for r in &s.rounds[1..] {
            for m in &r.messages {
                assert_ne!(m.src, m.dst);
            }
        }
        let total: u64 = sizes.iter().flatten().sum();
        assert_eq!(s.total_bytes(), total);
    }

    #[test]
    fn ring_allgather_shape() {
        let p = 16;
        let s = allgather_ring(&members(p), 1000);
        assert_eq!(s.num_rounds(), p - 1);
        assert_eq!(s.total_bytes(), (p * (p - 1)) as u64 * 1000);
        // Every message goes to the right neighbor.
        for r in &s.rounds {
            for m in &r.messages {
                let i = m.src / 10;
                assert_eq!(m.dst, ((i + 1) % p) * 10);
            }
        }
    }

    #[test]
    fn recursive_doubling_allgather_doubles_blocks() {
        let s = allgather_recursive_doubling(&members(8), 10);
        assert_eq!(s.num_rounds(), 3);
        assert_eq!(s.rounds[0].messages[0].bytes, 10);
        assert_eq!(s.rounds[1].messages[0].bytes, 20);
        assert_eq!(s.rounds[2].messages[0].bytes, 40);
        // Every rank ends with all blocks: total traffic = p × (p−1) blocks.
        assert_eq!(s.total_bytes(), 8 * 7 * 10);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn recursive_doubling_rejects_odd() {
        allgather_recursive_doubling(&members(6), 1);
    }

    #[test]
    fn bruck_allgather_any_p_total() {
        for p in [3, 5, 6, 7] {
            let s = allgather_bruck(&members(p), 10);
            assert_eq!(s.num_rounds(), ceil_log2(p));
            // Same total as ring: every rank receives p−1 blocks.
            assert_eq!(s.total_bytes(), (p * (p - 1)) as u64 * 10, "p={p}");
        }
    }

    #[test]
    fn allreduce_ring_round_count_and_bytes() {
        let p = 4;
        let s = allreduce_ring(&members(p), 1000);
        assert_eq!(s.num_rounds(), 2 * (p - 1));
        assert_eq!(s.total_bytes(), 2 * (p as u64 - 1) * 1000);
    }

    #[test]
    fn allreduce_recursive_doubling_pow2() {
        let s = allreduce_recursive_doubling(&members(8), 100);
        assert_eq!(s.num_rounds(), 3);
        for r in &s.rounds {
            assert_eq!(r.messages.len(), 8);
            for m in &r.messages {
                assert_eq!(m.bytes, 100);
            }
        }
    }

    #[test]
    fn allreduce_recursive_doubling_non_pow2_has_fold_rounds() {
        let s = allreduce_recursive_doubling(&members(6), 100);
        // fold + 2 doubling rounds (pow = 4) + unfold.
        assert_eq!(s.num_rounds(), 4);
        assert_eq!(s.rounds[0].messages.len(), 2);
        assert_eq!(s.rounds[3].messages.len(), 2);
    }

    #[test]
    fn trivial_communicators_yield_empty_schedules() {
        let one = members(1);
        assert_eq!(allreduce_ring(&one, 100).num_rounds(), 0);
        assert_eq!(allreduce_recursive_doubling(&one, 100).num_rounds(), 0);
        assert_eq!(bcast_binomial(&one, 0, 100).num_rounds(), 0);
        assert_eq!(barrier_dissemination(&one).num_rounds(), 0);
        assert_eq!(allgather_ring(&one, 5).num_rounds(), 0);
    }

    #[test]
    fn bcast_binomial_reaches_everyone_once() {
        for p in [2, 3, 5, 8, 13] {
            for root in [0, p / 2] {
                let s = bcast_binomial(&members(p), root, 7);
                let mut received = vec![false; p];
                received[root] = true;
                for r in &s.rounds {
                    for m in &r.messages {
                        let src = m.src / 10;
                        let dst = m.dst / 10;
                        assert!(received[src], "p={p} root={root}: sender has no data yet");
                        assert!(!received[dst], "p={p} root={root}: duplicate delivery");
                        received[dst] = true;
                    }
                }
                assert!(received.iter().all(|&x| x), "p={p} root={root}");
            }
        }
    }

    #[test]
    fn reduce_is_mirrored_bcast() {
        let p = 8;
        let b = bcast_binomial(&members(p), 3, 9);
        let r = reduce_binomial(&members(p), 3, 9);
        assert_eq!(b.num_rounds(), r.num_rounds());
        assert_eq!(b.total_bytes(), r.total_bytes());
        // First reduce round = last bcast round flipped.
        let last_b = &b.rounds[b.num_rounds() - 1].messages;
        let first_r = &r.rounds[0].messages;
        assert_eq!(first_r.len(), last_b.len());
        for (mb, mr) in last_b.iter().zip(first_r) {
            assert_eq!((mb.src, mb.dst), (mr.dst, mr.src));
        }
    }

    #[test]
    fn scan_covers_all_prefix_hops() {
        let p = 8;
        let s = scan_hillis_steele(&members(p), 11);
        assert_eq!(s.num_rounds(), 3);
        assert_eq!(s.rounds[0].messages.len(), 7);
        assert_eq!(s.rounds[1].messages.len(), 6);
        assert_eq!(s.rounds[2].messages.len(), 4);
    }

    #[test]
    fn gather_linear_single_round() {
        let s = gather_linear(&members(5), 2, 3);
        assert_eq!(s.num_rounds(), 1);
        assert_eq!(s.rounds[0].messages.len(), 4);
        for m in &s.rounds[0].messages {
            assert_eq!(m.dst, 20);
        }
    }
}
