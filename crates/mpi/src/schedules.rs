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
//! Most rounds are **shifts**: rank `i` sends to rank `(i + k) mod p`.
//! One helper, `push_shift`, builds them by zipping `members` with
//! `members` rotated by `k` (split at `k`, one zip per side of the wrap),
//! so no generator divides per message. Each round's buffer is sized
//! before it is filled, and the round list before the first round: a
//! generator allocates once per round plus once for the list (DESIGN.md
//! §7h).
//!
//! The generators are tested against the functional implementations: for
//! every algorithm, the multiset of (src, dst) pairs per round matches the
//! messages the thread runtime actually exchanges. A `#[cfg(test)]` modulo
//! spelling of every generator is the oracle their messages are compared
//! with, message for message.

use crate::collectives::ceil_log2;
use mre_simnet::{Message, Round, Schedule};

/// Appends one shift round to `round`: rank `i` sends `bytes()` bytes to
/// rank `(i + k) mod p`, in rank order (`bytes` is called once per rank,
/// rank `0` first). The peers are `members` rotated by `k`: ranks
/// `0..p−k` send to `members[k..]`, ranks `p−k..p` to `members[..k]`, so
/// there is no division per message. Needs `k ≤ p`.
#[inline]
fn push_shift(round: &mut Round, members: &[usize], k: usize, mut bytes: impl FnMut() -> u64) {
    let (head, tail) = members.split_at(k);
    let (low, high) = members.split_at(tail.len());
    let mut message = |(&src, &dst): (&usize, &usize)| Message::new(src, dst, bytes());
    round
        .messages
        .extend(low.iter().zip(tail).map(&mut message));
    round.messages.extend(high.iter().zip(head).map(message));
}

/// One shift round of `bytes` per message, in a buffer of exactly `p`.
fn shift_round(members: &[usize], k: usize, bytes: u64) -> Round {
    let mut round = Round::with_capacity(members.len());
    push_shift(&mut round, members, k, || bytes);
    round
}

/// `rounds` copies of the right-neighbor shift round: ring collectives
/// re-issue one message set, so later rounds are copies of the first.
fn ring_rounds(members: &[usize], rounds: usize, bytes: u64) -> Schedule {
    let mut schedule = Schedule::with(Vec::with_capacity(rounds));
    if rounds > 0 {
        let round = shift_round(members, 1, bytes);
        schedule.rounds.extend(std::iter::repeat_n(round, rounds));
    }
    schedule
}

/// Pairwise-exchange Alltoall: `p−1` rounds; in round `r` rank `i` sends to
/// `(i+r) mod p` and receives from `(i−r) mod p`. `bytes_per_pair` is the
/// payload each rank sends to each other rank.
pub fn alltoall_pairwise(members: &[usize], bytes_per_pair: u64) -> Schedule {
    let p = members.len();
    let mut schedule = Schedule::with(Vec::with_capacity(p.saturating_sub(1)));
    for r in 1..p {
        schedule.push(shift_round(members, r, bytes_per_pair));
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
            push_shift(&mut round, members, sub, || bytes_per_pair);
        }
        schedule.push(round);
        r = end;
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
        // `bytes_per_pair`; blocks with bit k of o set travel this round:
        // `hop` per full period of `2·hop` offsets, plus the tail's excess.
        let blocks = (((p >> (k + 1)) << k) + (p & ((hop << 1) - 1)).saturating_sub(hop)) as u64;
        schedule.push(shift_round(members, hop, blocks * bytes_per_pair));
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
        // Rank `i` sends to `dst = (i + r) mod p`, a wrapping counter.
        let mut dst = r;
        for (&src, row) in members.iter().zip(sizes) {
            let bytes = row[dst];
            if bytes > 0 {
                round.push(Message::new(src, members[dst], bytes));
            }
            dst += 1;
            if dst == p {
                dst = 0;
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
    ring_rounds(members, members.len().saturating_sub(1), block_bytes)
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
        let bytes = hop as u64 * block_bytes;
        let mut round = Round::with_capacity(p);
        round
            .messages
            .extend((0..p).map(|i| Message::new(members[i], members[i ^ hop], bytes)));
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
        schedule.push(shift_round(members, p - hop, blocks * block_bytes));
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
    // Fold pairs `(2i, 2i+1)` for `i < rem`: the odd rank hands its vector
    // to the even one, which then stands for both.
    let fold = |src: usize, dst: usize| {
        let mut round = Round::with_capacity(rem);
        round.messages.extend(
            (0..rem).map(|i| Message::new(members[2 * i + src], members[2 * i + dst], total_bytes)),
        );
        round
    };
    if rem > 0 {
        schedule.push(fold(1, 0));
    }
    // The `pow` surviving ranks: the even rank of every fold pair, then
    // every rank past the folds.
    let to_real = |nr: usize| if nr < rem { nr * 2 } else { nr + rem };
    let mut hop = 1usize;
    while hop < pow {
        let mut round = Round::with_capacity(pow);
        round.messages.extend((0..pow).map(|nr| {
            Message::new(
                members[to_real(nr)],
                members[to_real(nr ^ hop)],
                total_bytes,
            )
        }));
        schedule.push(round);
        hop <<= 1;
    }
    if rem > 0 {
        schedule.push(fold(0, 1));
    }
    schedule
}

/// Ring Allreduce (reduce-scatter + allgather): `2(p−1)` rounds of
/// `total_bytes / p` blocks (balanced split: the first `total_bytes mod p`
/// blocks carry one byte more).
pub fn allreduce_ring(members: &[usize], total_bytes: u64) -> Schedule {
    let p = members.len();
    if p <= 1 {
        return Schedule::new();
    }
    let mut schedule = Schedule::with(Vec::with_capacity(2 * (p - 1)));
    let n = total_bytes as usize;
    let (base, extra) = (n / p, n % p);
    // Rank `i` sends block `(i + first) mod p`: a counter that wraps at
    // `p`, starting at `first` for rank 0.
    let mut push_round = |first: usize| {
        let mut round = Round::with_capacity(p);
        let mut block = first;
        push_shift(&mut round, members, 1, || {
            let len = base + usize::from(block < extra);
            block += 1;
            if block == p {
                block = 0;
            }
            len as u64
        });
        schedule.push(round);
    };
    // Reduce-scatter: rank `i` sends block `(i − step) mod p`.
    for step in 0..p - 1 {
        push_round((p - step) % p);
    }
    // Allgather: rank `i` sends block `(i + 1 − step) mod p`.
    for step in 0..p - 1 {
        push_round((p + 1 - step) % p);
    }
    schedule
}

/// Binomial-tree broadcast from communicator rank `root`.
pub fn bcast_binomial(members: &[usize], root: usize, bytes: u64) -> Schedule {
    let p = members.len();
    if p <= 1 {
        return Schedule::new();
    }
    // Round k: relative ranks < 2^k forward to +2^k. Relative rank `rel`
    // is `members[(rel + root) mod p]`: `members` rotated by `root`.
    let (head, tail) = members.split_at(root % p);
    let relative = || tail.iter().chain(head);
    let rounds = ceil_log2(p);
    let mut schedule = Schedule::with(Vec::with_capacity(rounds));
    for k in 0..rounds {
        let hop = 1usize << k;
        let senders = hop.min(p - hop);
        let mut round = Round::with_capacity(senders);
        round.messages.extend(
            relative()
                .zip(relative().skip(hop))
                .take(senders)
                .map(|(&src, &dst)| Message::new(src, dst, bytes)),
        );
        schedule.push(round);
    }
    schedule
}

/// Binomial-tree reduction to communicator rank `root` (the mirror of
/// [`bcast_binomial`]).
pub fn reduce_binomial(members: &[usize], root: usize, bytes: u64) -> Schedule {
    let mut schedule = bcast_binomial(members, root, bytes);
    // Reverse rounds and flip message directions, in place.
    schedule.rounds.reverse();
    for m in schedule.rounds.iter_mut().flat_map(|r| &mut r.messages) {
        std::mem::swap(&mut m.src, &mut m.dst);
    }
    schedule
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
/// rotate-home round, block size `total_bytes / p`. The rotate-home round
/// (rank `i` holds block `i+1`, which belongs to the right neighbor) sends
/// along the same ring, so all `p` rounds are one message set.
pub fn reduce_scatter_ring(members: &[usize], total_bytes: u64) -> Schedule {
    let p = members.len();
    if p <= 1 {
        return Schedule::new();
    }
    ring_rounds(members, p, total_bytes / p as u64)
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
        schedule.push(shift_round(members, 1 << k, 0));
    }
    schedule
}

/// The modulo spelling of every generator: rank `i`'s peer is indexed as
/// `(i + k) mod p` and every block length is read off `block_range`. The
/// oracle the division-free generators are compared with, message for
/// message.
#[cfg(test)]
mod oracle {
    use crate::collectives::{block_range, ceil_log2};
    use mre_simnet::{Message, Round, Schedule};

    /// `rounds` rounds, round `r` holding `message(r, i)` for every rank
    /// `i` that `message` keeps.
    fn by_rank(
        p: usize,
        rounds: impl IntoIterator<Item = usize>,
        message: impl Fn(usize, usize) -> Option<Message>,
    ) -> Schedule {
        let rounds = rounds
            .into_iter()
            .map(|r| Round::with((0..p).filter_map(|i| message(r, i)).collect()));
        Schedule::with(rounds.filter(|r| !r.messages.is_empty()).collect())
    }

    pub fn alltoall_pairwise(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        by_rank(p, 1..p, |r, i| {
            Some(Message::new(members[i], members[(i + r) % p], bytes))
        })
    }

    pub fn alltoall_pairwise_railed(members: &[usize], bytes: u64, nics: usize) -> Schedule {
        let p = members.len();
        let rounds = (1..p).step_by(nics).map(|r| {
            let subs = r..(r + nics).min(p);
            let messages = subs.flat_map(|sub| {
                (0..p).map(move |i| Message::new(members[i], members[(i + sub) % p], bytes))
            });
            Round::with(messages.collect())
        });
        Schedule::with(rounds.collect())
    }

    pub fn alltoall_bruck(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        by_rank(p, 0..ceil_log2(p), |k, i| {
            let hop = 1 << k;
            let blocks = (0..p).filter(|o| o & hop != 0).count() as u64;
            Some(Message::new(
                members[i],
                members[(i + hop) % p],
                blocks * bytes,
            ))
        })
    }

    pub fn alltoallv_pairwise(members: &[usize], sizes: &[Vec<u64>]) -> Schedule {
        let p = members.len();
        by_rank(p, 0..p, |r, i| {
            let dst = (i + r) % p;
            (sizes[i][dst] > 0).then(|| Message::new(members[i], members[dst], sizes[i][dst]))
        })
    }

    pub fn allgather_ring(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        by_rank(p, 1..p, |_, i| {
            Some(Message::new(members[i], members[(i + 1) % p], bytes))
        })
    }

    pub fn allgather_recursive_doubling(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        by_rank(p, 0..p.trailing_zeros() as usize, |k, i| {
            Some(Message::new(
                members[i],
                members[i ^ (1 << k)],
                (1u64 << k) * bytes,
            ))
        })
    }

    pub fn allgather_bruck(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        by_rank(p, 0..ceil_log2(p), |k, i| {
            let hop = 1 << k;
            let blocks = hop.min(p - hop) as u64;
            Some(Message::new(
                members[i],
                members[(i + p - hop) % p],
                blocks * bytes,
            ))
        })
    }

    pub fn allreduce_recursive_doubling(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        if p <= 1 {
            return Schedule::new();
        }
        let pow = 1usize << (usize::BITS - 1 - p.leading_zeros());
        let rem = p - pow;
        let fold = |src: usize, dst: usize| {
            Round::with(
                (0..rem)
                    .map(|i| Message::new(members[2 * i + src], members[2 * i + dst], bytes))
                    .collect(),
            )
        };
        let to_real = |nr: usize| if nr < rem { nr * 2 } else { nr + rem };
        let mut rounds = vec![fold(1, 0)];
        for k in 0..pow.trailing_zeros() {
            let hop = 1 << k;
            let messages = (0..pow)
                .map(|nr| Message::new(members[to_real(nr)], members[to_real(nr ^ hop)], bytes));
            rounds.push(Round::with(messages.collect()));
        }
        rounds.push(fold(0, 1));
        rounds.retain(|r| !r.messages.is_empty());
        Schedule::with(rounds)
    }

    pub fn allreduce_ring(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        let n = bytes as usize;
        let len = |block: usize| {
            let (s0, s1) = block_range(n, p, block);
            (s1 - s0) as u64
        };
        // Reduce-scatter rounds `0..p−1`, then allgather rounds.
        by_rank(p, 0..2 * p.saturating_sub(1), |r, i| {
            let block = if r < p - 1 {
                (i + p - r) % p
            } else {
                (i + 1 + p - (r - (p - 1))) % p
            };
            Some(Message::new(members[i], members[(i + 1) % p], len(block)))
        })
    }

    pub fn bcast_binomial(members: &[usize], root: usize, bytes: u64) -> Schedule {
        let p = members.len();
        by_rank(p, 0..ceil_log2(p), |k, rel| {
            let hop = 1 << k;
            (rel < hop && rel + hop < p).then(|| {
                Message::new(
                    members[(rel + root) % p],
                    members[(rel + hop + root) % p],
                    bytes,
                )
            })
        })
    }

    pub fn reduce_binomial(members: &[usize], root: usize, bytes: u64) -> Schedule {
        let bcast = bcast_binomial(members, root, bytes)
            .rounds
            .into_iter()
            .rev();
        let flip = |r: Round| {
            Round::with(
                r.messages
                    .iter()
                    .map(|m| Message::new(m.dst, m.src, m.bytes))
                    .collect(),
            )
        };
        Schedule::with(bcast.map(flip).collect())
    }

    pub fn gather_linear(members: &[usize], root: usize, bytes: u64) -> Schedule {
        let p = members.len();
        by_rank(p, 0..1, |_, i| {
            (i != root).then(|| Message::new(members[i], members[root], bytes))
        })
    }

    pub fn scan_hillis_steele(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        by_rank(p, 0..ceil_log2(p), |k, i| {
            (i + (1 << k) < p).then(|| Message::new(members[i], members[i + (1 << k)], bytes))
        })
    }

    pub fn reduce_scatter_ring(members: &[usize], bytes: u64) -> Schedule {
        let p = members.len();
        let block = bytes / p.max(1) as u64;
        let rounds = if p <= 1 { 0 } else { p };
        by_rank(p, 0..rounds, |_, i| {
            Some(Message::new(members[i], members[(i + 1) % p], block))
        })
    }

    pub fn barrier_dissemination(members: &[usize]) -> Schedule {
        let p = members.len();
        by_rank(p, 0..ceil_log2(p), |k, i| {
            Some(Message::new(members[i], members[(i + (1 << k)) % p], 0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mre_simnet::{assign_rail, RailPolicy};

    fn members(p: usize) -> Vec<usize> {
        (0..p).map(|i| i * 10).collect()
    }

    /// Every generator against its modulo spelling in [`oracle`], message
    /// for message: p ∈ 1..=70, identity and shuffled members, payloads
    /// from 0 to 2²⁴ (with remainders modulo p), 1–4 rails, and roots at
    /// both ends and the middle.
    #[test]
    fn generators_equal_the_modulo_oracle() {
        use mre_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x5c4e_d01e);
        let payloads = [0u64, 1, 7, 1000, 65549, 1 << 24];
        for p in 1..=70usize {
            let identity: Vec<usize> = (0..p).collect();
            let mut shuffled: Vec<usize> = (0..p).map(|i| 3 * i + 1).collect();
            rng.shuffle(&mut shuffled);
            for members in [&identity, &shuffled] {
                let m = members.as_slice();
                let check = |name: &str, got: Schedule, want: Schedule| {
                    assert_eq!(got, want, "{name}, p = {p}, members {m:?}");
                };
                check(
                    "barrier_dissemination",
                    barrier_dissemination(m),
                    oracle::barrier_dissemination(m),
                );
                for &bytes in &payloads {
                    check(
                        "alltoall_pairwise",
                        alltoall_pairwise(m, bytes),
                        oracle::alltoall_pairwise(m, bytes),
                    );
                    for nics in 1..=4 {
                        check(
                            "alltoall_pairwise_railed",
                            alltoall_pairwise_railed(m, bytes, nics),
                            oracle::alltoall_pairwise_railed(m, bytes, nics),
                        );
                    }
                    check(
                        "alltoall_bruck",
                        alltoall_bruck(m, bytes),
                        oracle::alltoall_bruck(m, bytes),
                    );
                    check(
                        "allgather_ring",
                        allgather_ring(m, bytes),
                        oracle::allgather_ring(m, bytes),
                    );
                    if p.is_power_of_two() {
                        check(
                            "allgather_recursive_doubling",
                            allgather_recursive_doubling(m, bytes),
                            oracle::allgather_recursive_doubling(m, bytes),
                        );
                    }
                    check(
                        "allgather_bruck",
                        allgather_bruck(m, bytes),
                        oracle::allgather_bruck(m, bytes),
                    );
                    check(
                        "allreduce_recursive_doubling",
                        allreduce_recursive_doubling(m, bytes),
                        oracle::allreduce_recursive_doubling(m, bytes),
                    );
                    check(
                        "allreduce_ring",
                        allreduce_ring(m, bytes),
                        oracle::allreduce_ring(m, bytes),
                    );
                    for root in [0, p / 2, p - 1] {
                        check(
                            "bcast_binomial",
                            bcast_binomial(m, root, bytes),
                            oracle::bcast_binomial(m, root, bytes),
                        );
                        check(
                            "reduce_binomial",
                            reduce_binomial(m, root, bytes),
                            oracle::reduce_binomial(m, root, bytes),
                        );
                        check(
                            "gather_linear",
                            gather_linear(m, root, bytes),
                            oracle::gather_linear(m, root, bytes),
                        );
                    }
                    check(
                        "scan_hillis_steele",
                        scan_hillis_steele(m, bytes),
                        oracle::scan_hillis_steele(m, bytes),
                    );
                    check(
                        "exscan_hillis_steele",
                        exscan_hillis_steele(m, bytes),
                        oracle::scan_hillis_steele(m, bytes),
                    );
                    check(
                        "reduce_scatter_ring",
                        reduce_scatter_ring(m, bytes),
                        oracle::reduce_scatter_ring(m, bytes),
                    );
                    // Ragged sizes with zero entries, the diagonal included.
                    let sizes: Vec<Vec<u64>> = (0..p)
                        .map(|_| {
                            (0..p)
                                .map(|_| {
                                    if rng.gen_bool(0.3) {
                                        0
                                    } else {
                                        rng.gen_range(0..bytes + 1)
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    check(
                        "alltoallv_pairwise",
                        alltoallv_pairwise(m, &sizes),
                        oracle::alltoallv_pairwise(m, &sizes),
                    );
                }
            }
        }
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
