//! Translation certificates: the job sets whose communicators are
//! translates of communicator 0 on the links its schedule uses — the one
//! symmetry rule behind both engines' class quotients.
//!
//! The paper's protocol (§4.1, step 4) runs one collective in every
//! subcommunicator at once. Every `mre-mpi` generator names ranks only by
//! their position in the member list, so communicator `c`'s schedule is
//! communicator 0's with each core mapped through
//! `ψ_c: members_0[k] ↦ members_c[k]`. When `ψ_c` also maps the links
//! communicator 0's schedule uses onto links consistently, a contention
//! solve can run on communicator 0's flows alone, each link counted with
//! its multiplicity: the lockstep engine solves a certified set's merged
//! rounds that way ([`SharedCostCache::job_set_time`](crate::SharedCostCache::job_set_time),
//! DESIGN.md §7j), and [`crate::FluidSim`] its flights (§7f).
//!
//! [`TranslationCertificate::new`] decides this from the member lists,
//! communicator 0's schedule and the per-core rows of the model's
//! [`RailLinkTable`]. One walk over the schedule's paths marks the links
//! it uses and, per core, the outermost level at which the core owns a
//! used link (as sender going up, as receiver coming down); one pass over
//! the members then checks, in `O(Σ|members| · depth · rails)`:
//!
//! 1. at **every** level, also the outer levels communicator 0 never
//!    crosses, `ψ_c` induces a well-defined, injective map of instances —
//!    so every message keeps its crossing level;
//! 2. `ψ_c` maps every used link `l` well-definedly and injectively onto
//!    the link `φ_c(l)` its image messages use: on one rail the image
//!    instance's; under round-robin (`(src + dst) mod rails`) the rail
//!    parts of a level's owners move by one constant shift, so each
//!    link's rail moves by twice that; under the policies that read only
//!    the owning core, every owner of `l` maps onto one
//!    `(instance, rail)` pair;
//! 3. every link hit by some `φ_c` has a single preimage among the used
//!    links (communicator 0's are their own) and is hit by as many
//!    communicators as that preimage is.
//!
//! Job `c`'s message `i` is `ψ_c` of communicator 0's, so `φ_c` is job
//! `c`'s link map at every path slot, and the conditions are exactly
//! those of an equitable partition of the job set's flows grouped by
//! `(round, seq)` (DESIGN.md §7j): every used link `l` carries `n(l)`
//! copies of its own flows — its
//! [`multiplicity`](TranslationCertificate::multiplicity), the number of
//! communicators whose map hits it. The check is taken over the whole
//! schedule, as [`crate::FluidSim`] needs, since its jobs' rounds drift
//! apart; a set refused here may still be symmetric round by round, which
//! the lockstep engine could use and does not.
//!
//! On the links of a round that two certified schedules of one job set
//! share, the multiplicities agree: the round's owners fix `φ_c` there.
//! So the memo tiers key a certified set by a hash of its member lists
//! alone.
//!
//! [`TranslationCertificate::of_jobs`] reads `ψ_c` off the jobs'
//! messages instead of member lists, for engines handed schedules only.
//!
//! Refused sets — source-hash railing whose owners hash apart, non-box
//! layouts, communicators that straddle instances communicator 0 does not
//! — get the *trivial* certificate: one job, the merged schedule, every
//! multiplicity 1.

use crate::rail::{RailLinkTable, RailPolicy};
use crate::schedule::Schedule;

/// Whether a job set's communicators are translates of communicator 0 on
/// the links its schedule uses, with the multiplicity of every such link
/// when they are (see the module docs).
///
/// Built per job set and dropped with it; nothing is cached across sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationCertificate {
    /// Per model link id, `n(l)` for the links communicator 0's schedule
    /// uses and 0 elsewhere; empty when trivial.
    mult: Vec<u32>,
    /// Hash of every member list; 0 when trivial.
    fingerprint: u64,
}

/// A link or core no map has hit yet.
const NONE: u32 = u32::MAX;

impl TranslationCertificate {
    /// Certifies the job set whose communicator `c` has the cores
    /// `members[c]` (in rank order) on the fabric of `table` and runs
    /// `schedule` mapped through `ψ_c`, or returns the trivial
    /// certificate. `schedule` is communicator 0's; its endpoints must be
    /// members of `members[0]`. Communicators of unequal size, and sets of
    /// fewer than two, are trivial.
    ///
    /// Every `mre-mpi` generator is member-equivariant, so a schedule
    /// generated from `members[0]` speaks for the whole set.
    pub fn new<M: AsRef<[usize]>>(
        table: &RailLinkTable,
        members: &[M],
        schedule: &Schedule,
    ) -> Self {
        certify(table, members, schedule).unwrap_or_else(Self::trivial)
    }

    /// Certifies a job set from its schedules alone: job `c`'s core map
    /// `ψ_c` is read off its messages zipped with job 0's, which must
    /// match in round shapes and bytes, with `ψ_c` well defined and
    /// injective. Job 0's cores, in the order its messages first name
    /// them, are communicator 0's members; then this is
    /// [`new`](Self::new) with `jobs[0]`.
    pub fn of_jobs(table: &RailLinkTable, jobs: &[Schedule]) -> Self {
        match job_members(table.cores(), jobs) {
            Some((members, s)) => {
                let lists: Vec<&[usize]> = members.chunks(s).collect();
                Self::new(table, &lists, &jobs[0])
            }
            None => Self::trivial(),
        }
    }

    fn trivial() -> Self {
        Self {
            mult: Vec::new(),
            fingerprint: 0,
        }
    }

    /// True for a refused set: the merged schedule, every `m = 1`.
    pub fn is_trivial(&self) -> bool {
        self.mult.is_empty()
    }

    /// `n(l)`: how many communicators' flows link `l` carries copies of —
    /// 0 for a link communicator 0's schedule does not use, and 1
    /// everywhere under the trivial certificate.
    pub fn multiplicity(&self, link: u32) -> u32 {
        if self.is_trivial() {
            1
        } else {
            self.mult[link as usize]
        }
    }

    /// Hash of the job set's member lists, which with the model determine
    /// the multiplicities of any round's links; 0 when trivial. Keying on
    /// the job set rather than on its multiplicities shares no memo entry
    /// between job sets, so a parallel sweep resolves each key on one
    /// worker and its cache counts repeat exactly.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Per model link id multiplicities (empty when trivial).
    pub(crate) fn mults(&self) -> &[u32] {
        &self.mult
    }

    /// The multiplicities, moved out (empty when trivial).
    pub(crate) fn into_mults(self) -> Vec<u32> {
        self.mult
    }
}

/// Per-link scratch of one map check: `(stamp, image)` of every source
/// and the stamp of the last map that hit every target.
struct LinkMap {
    image: Vec<(u32, u32)>,
    hit: Vec<u32>,
}

impl LinkMap {
    fn new(links: usize) -> Self {
        Self {
            image: vec![(0, 0); links],
            hit: vec![0; links],
        }
    }

    /// Records `from ↦ to` under map `stamp`: `Some(true)` on the first
    /// sight of `from`, `Some(false)` on a consistent repeat, `None` when
    /// the map is not well defined or not injective.
    fn map(&mut self, stamp: u32, from: u32, to: u32) -> Option<bool> {
        let (seen, image) = self.image[from as usize];
        if seen == stamp {
            return (image == to).then_some(false);
        }
        self.image[from as usize] = (stamp, to);
        let hit = &mut self.hit[to as usize];
        if *hit == stamp {
            return None;
        }
        *hit = stamp;
        Some(true)
    }
}

/// Job 0's cores in first-named order followed by their images under every
/// `ψ_c`, as one `jobs.len() × s` array, and `s`; `None` when the jobs
/// differ in shape or bytes, or some `ψ_c` is not well defined and
/// injective.
fn job_members(cores: usize, jobs: &[Schedule]) -> Option<(Vec<usize>, usize)> {
    let base = jobs.first().filter(|_| jobs.len() > 1)?;
    let mut pos = vec![NONE; cores];
    let mut members = Vec::new();
    for m in base.rounds.iter().flat_map(|r| &r.messages) {
        for x in [m.src, m.dst] {
            if pos[x] == NONE {
                pos[x] = members.len() as u32;
                members.push(x);
            }
        }
    }
    let s = members.len();
    if s == 0 {
        return None;
    }
    members.resize(jobs.len() * s, usize::MAX);
    // Per core: the last job whose map hit it.
    let mut hit = vec![0u32; cores];
    for (c, job) in jobs.iter().enumerate().skip(1) {
        if job.rounds.len() != base.rounds.len() {
            return None;
        }
        let image = &mut members[c * s..][..s];
        for (round, round0) in job.rounds.iter().zip(&base.rounds) {
            if round.messages.len() != round0.messages.len() {
                return None;
            }
            for (m, m0) in round.messages.iter().zip(&round0.messages) {
                if m.bytes != m0.bytes {
                    return None;
                }
                for (x, x0) in [(m.src, m0.src), (m.dst, m0.dst)] {
                    let slot = &mut image[pos[x0] as usize];
                    if *slot == usize::MAX {
                        if hit[x] == c as u32 {
                            return None;
                        }
                        hit[x] = c as u32;
                        *slot = x;
                    } else if *slot != x {
                        return None;
                    }
                }
            }
        }
    }
    Some((members, s))
}

fn certify<M: AsRef<[usize]>>(
    table: &RailLinkTable,
    members: &[M],
    schedule: &Schedule,
) -> Option<TranslationCertificate> {
    let base = members.first()?.as_ref();
    if members.len() < 2 || members.iter().any(|m| m.as_ref().len() != base.len()) {
        return None;
    }
    let depth = table.strides().len();
    let links = table.num_links();
    let round_robin = table.policy() == RailPolicy::RoundRobin;
    // The links communicator 0's schedule uses (`mult[l] = 1` until the
    // counts replace it), and per core the outermost level at which it
    // owns a used up link and a used down link (`depth`: none).
    let mut mult = vec![0u32; links];
    let mut reach = vec![(depth, depth); table.cores()];
    for m in schedule.rounds.iter().flat_map(|r| &r.messages) {
        let Some(path) = table.path(m.src, m.dst) else {
            continue;
        };
        let level = path.crossing();
        reach[m.src].0 = reach[m.src].0.min(level);
        reach[m.dst].1 = reach[m.dst].1.min(level);
        for hop in path {
            mult[hop.up as usize] = 1;
            mult[hop.down as usize] = 1;
        }
    }
    let mut instances = LinkMap::new(links);
    let mut images = LinkMap::new(links);
    // Per link hit by some map: the used link every map that hit it came
    // from, and how many maps hit it.
    let mut pre = vec![(NONE, 0u32); links];
    let mut shift: Vec<Option<u32>> = vec![None; depth];
    for (c, comm) in members.iter().enumerate() {
        let stamp = c as u32 + 1;
        shift.fill(None);
        // `φ_c(from) = to`, counted once per map.
        let mut hit = |from: u32, to: u32| -> Option<()> {
            if images.map(stamp, from, to)? {
                let slot = &mut pre[to as usize];
                if slot.0 == NONE {
                    slot.0 = from;
                } else if slot.0 != from {
                    return None;
                }
                slot.1 += 1;
            }
            Some(())
        };
        for (&x0, &x) in base.iter().zip(comm.as_ref()) {
            let (up_from, down_from) = reach[x0];
            for (level, &rails) in table.rails().iter().enumerate() {
                let rails = rails as u32;
                let (b0, p0) = table.row_entry(x0, level);
                let (b, p) = table.row_entry(x, level);
                instances.map(stamp, b0, b)?;
                for (dir, owns) in [(0, level >= down_from), (rails, level >= up_from)] {
                    if !owns {
                        continue;
                    }
                    if rails == 1 {
                        hit(b0 + dir, b + dir)?;
                    } else if round_robin {
                        let d = (p + rails - p0) % rails;
                        if *shift[level].get_or_insert(d) != d {
                            return None;
                        }
                        for r in 0..rails {
                            if mult[(b0 + dir + r) as usize] != 0 {
                                hit(b0 + dir + r, b + dir + (r + 2 * d) % rails)?;
                            }
                        }
                    } else {
                        hit(b0 + dir + p0, b + dir + p)?;
                    }
                }
            }
        }
    }
    if pre
        .iter()
        .any(|&(from, n)| from != NONE && n != pre[from as usize].1)
    {
        return None;
    }
    for (l, m) in mult.iter_mut().enumerate() {
        // A used link is its own preimage, hit by communicator 0 at least.
        if *m != 0 {
            let (from, n) = pre[l];
            if from as usize != l {
                return None;
            }
            *m = n;
        }
    }
    let fingerprint = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for comm in members {
            comm.as_ref().hash(&mut h);
        }
        h.finish()
    };
    Some(TranslationCertificate { mult, fingerprint })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Message, Round};

    /// ⟦2, 2, 4⟧ (strides 8, 4, 1) with `nics` node rails.
    fn table(nics: usize, policy: RailPolicy) -> RailLinkTable {
        RailLinkTable::new(16, &[8, 4, 1], &[nics, 1, 1], policy)
    }

    /// The pairwise exchange on `members`: round `r` sends rank `i` to
    /// rank `i + r`.
    fn pairwise(members: &[usize]) -> Schedule {
        let p = members.len();
        Schedule::with(
            (1..p)
                .map(|r| {
                    Round::with(
                        (0..p)
                            .map(|i| Message::new(members[i], members[(i + r) % p], 8))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    fn certify_pairwise(t: &RailLinkTable, members: &[Vec<usize>]) -> TranslationCertificate {
        TranslationCertificate::new(t, members, &pairwise(&members[0]))
    }

    #[test]
    fn packed_translates_certify_with_unit_multiplicity() {
        // Four packed communicators of four cores, one per socket: each
        // crosses only the core level.
        let members: Vec<Vec<usize>> = (0..4).map(|c| (4 * c..4 * c + 4).collect()).collect();
        let t = table(1, RailPolicy::RoundRobin);
        let cert = certify_pairwise(&t, &members);
        assert!(!cert.is_trivial());
        assert_eq!(cert.multiplicity(t.link_id(2, 0, true, 0)), 1);
        // Node and socket uplinks carry no message of any communicator,
        // and neither do other communicators' core links.
        assert_eq!(cert.multiplicity(t.link_id(0, 0, true, 0)), 0);
        assert_eq!(cert.multiplicity(t.link_id(1, 0, true, 0)), 0);
        assert_eq!(cert.multiplicity(t.link_id(2, 4, true, 0)), 0);
    }

    #[test]
    fn spread_translates_certify_and_straddlers_are_refused() {
        let t = table(1, RailPolicy::RoundRobin);
        // Spread: communicator c takes core c of every socket.
        let spread: Vec<Vec<usize>> = (0..4)
            .map(|c| (0..4).map(|k| 4 * k + c).collect())
            .collect();
        let cert = certify_pairwise(&t, &spread);
        assert!(!cert.is_trivial());
        assert_eq!(cert.multiplicity(t.link_id(0, 0, false, 0)), 4);
        // Communicator 0 sits in node 0, communicator 1 straddles both
        // nodes: the outer instance map is not well defined.
        let straddle = vec![vec![0, 1, 2, 3], vec![4, 5, 8, 9]];
        assert!(certify_pairwise(&t, &straddle).is_trivial());
        // Unequal sizes and single communicators are trivial.
        assert!(certify_pairwise(&t, &[vec![0, 1], vec![2]]).is_trivial());
        assert!(certify_pairwise(&t, &[vec![0, 1]]).is_trivial());
        let trivial = certify_pairwise(&t, &straddle);
        assert_eq!(trivial.multiplicity(0), 1);
    }

    #[test]
    fn round_robin_needs_a_constant_rail_shift() {
        let t = table(2, RailPolicy::RoundRobin);
        // A shift by 8 cores moves no member's rail part.
        let even = vec![vec![0, 1, 2, 3], vec![8, 9, 10, 11]];
        assert!(!certify_pairwise(&t, &even).is_trivial());
        // Cores 0, 8 ↦ 5, 13 cross nodes, and both rail parts move by 1,
        // so every link's rail moves by 2 ≡ 0: node 0's uplink rail 0 is
        // hit twice, and rail 1 is used by no message.
        let odd = vec![vec![0, 8], vec![5, 13]];
        let cert = certify_pairwise(&t, &odd);
        assert!(!cert.is_trivial());
        assert_eq!(cert.multiplicity(t.link_id(0, 0, true, 0)), 2);
        assert_eq!(cert.multiplicity(t.link_id(0, 0, true, 1)), 0);
        // On four rails the same layout moves links by 2 rails: onto
        // rail 2, which communicator 0 owns but never uses, so each used
        // link carries its own flows once.
        let t4 = table(4, RailPolicy::RoundRobin);
        let cert = certify_pairwise(&t4, &odd);
        assert!(!cert.is_trivial());
        assert_eq!(cert.multiplicity(t4.link_id(0, 0, true, 0)), 1);
        assert_eq!(cert.multiplicity(t4.link_id(0, 0, true, 2)), 0);
        // Parts moving by 1 and 2: no constant shift.
        assert!(certify_pairwise(&t4, &[vec![0, 8], vec![9, 2]]).is_trivial());
        // A railed level no communicator crosses needs no shift.
        assert!(!certify_pairwise(&t4, &[vec![0, 1], vec![5, 6]]).is_trivial());
    }

    #[test]
    fn owner_only_rails_map_the_owners_of_used_links_only() {
        // ⟦2, 8⟧ with 2 affinity rails: cores 0–3 of a node ride rail 0,
        // cores 4–7 rail 1.
        let t = RailLinkTable::new(16, &[8, 1], &[2, 1], RailPolicy::Affinity);
        // Core 0 only sends to the other node and core 1 only receives
        // from it. Communicator 1 maps them onto different rails, which is
        // fine: they own different directions of node 0's rail-0 uplink.
        let members = vec![vec![0, 1, 8, 9], vec![2, 5, 10, 13]];
        let schedule = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 8),
            Message::new(9, 1, 8),
        ])]);
        let cert = TranslationCertificate::new(&t, &members, &schedule);
        assert!(!cert.is_trivial());
        assert_eq!(cert.multiplicity(t.link_id(0, 0, true, 0)), 2);
        assert_eq!(cert.multiplicity(t.link_id(0, 0, false, 0)), 1);
        // Two owners of node 0's rail-0 up link must map onto one link.
        let both_send = Schedule::with(vec![Round::with(vec![
            Message::new(0, 8, 8),
            Message::new(1, 9, 8),
        ])]);
        assert!(TranslationCertificate::new(&t, &members, &both_send).is_trivial());
    }

    #[test]
    fn of_jobs_reads_the_member_maps_off_the_messages() {
        let t = table(1, RailPolicy::RoundRobin);
        let spread: Vec<Vec<usize>> = (0..4)
            .map(|c| (0..4).map(|k| 4 * k + c).collect())
            .collect();
        let jobs: Vec<Schedule> = spread.iter().map(|m| pairwise(m)).collect();
        let cert = TranslationCertificate::of_jobs(&t, &jobs);
        assert_eq!(cert, certify_pairwise(&t, &spread));
        // Unequal bytes, a different round shape, or a core map that is
        // not injective: trivial.
        let mut ragged = jobs.clone();
        ragged[1].rounds[0].messages[0].bytes += 1;
        assert!(TranslationCertificate::of_jobs(&t, &ragged).is_trivial());
        let mut short = jobs.clone();
        short[2].rounds.pop();
        assert!(TranslationCertificate::of_jobs(&t, &short).is_trivial());
        let folded = vec![pairwise(&[0, 1]), pairwise(&[2, 2])];
        assert!(TranslationCertificate::of_jobs(&t, &folded).is_trivial());
        assert!(TranslationCertificate::of_jobs(&t, &jobs[..1]).is_trivial());
    }
}
