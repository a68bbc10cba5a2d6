//! Translation certificates: the lockstep job sets whose communicators are
//! translates of communicator 0 on the fabric, read off their member lists.
//!
//! The paper's protocol (§4.1, step 4) runs one collective in every
//! subcommunicator at once. Every `mre-mpi` generator names ranks only by
//! their position in the member list, so communicator `c`'s schedule is
//! communicator 0's with each core mapped through
//! `ψ_c: members_0[k] ↦ members_c[k]`. When `ψ_c` also maps communicator
//! 0's links onto links consistently, a merged round's contention solve
//! can run on communicator 0's flows alone, each link counted with its
//! multiplicity — the lockstep form of [`crate::FluidSim`]'s class
//! quotient (DESIGN.md §7j).
//!
//! [`TranslationCertificate::new`] decides this from the member lists and
//! the per-core rows of the model's [`RailLinkTable`], in
//! `O(Σ|members| · depth)`, without generating a message. It accepts when:
//!
//! 1. at **every** level, also the outer levels communicator 0 never
//!    crosses, `ψ_c` induces a well-defined, injective map of instances —
//!    so every message keeps its crossing level;
//! 2. at every railed level, the rail choice commutes with `ψ_c`: under
//!    round-robin (`(src + dst) mod rails`) every member's rail part moves
//!    by one constant shift, so each link's rail moves by twice that;
//!    under the policies that read only the owning core, `ψ_c` maps each
//!    `(instance, rail)` pair of communicator 0 well-definedly and
//!    injectively;
//! 3. at every level communicator 0 crosses (its members sit in more than
//!    one instance), every link owner hit by some `ψ_c` has a single
//!    communicator-0 preimage (communicator 0's owners are their own) and
//!    is hit by as many communicators as that preimage is.
//!
//! Condition 3 is [`crate::FluidSim`]'s per-run link-map check, taken over
//! the links a communicator's members *own* rather than over the links its
//! messages use: a round-robin instance owns every rail of its uplinks,
//! any other railed level owns the member's rail. Levels communicator 0
//! does not cross are left out: by condition 1 no communicator crosses
//! them, so no message uses their links. That over-approximates the used
//! links, so a certificate is sound for every member-equivariant schedule,
//! and a set refused here may still be symmetric round by round. Every
//! link `l` of communicator 0 then carries `n(l)` copies of its own flows —
//! its [`multiplicity`](TranslationCertificate::multiplicity), the number
//! of communicators whose map hits it.
//!
//! Refused sets — source-hash railing on a crossed railed level, non-box
//! layouts, communicators that straddle instances communicator 0 does not
//! — get the *trivial* certificate: one job, the merged schedule, every
//! multiplicity 1.

use crate::rail::{RailLinkTable, RailPolicy};
use crate::schedule::Schedule;

/// Whether a lockstep job set's communicators are translates of
/// communicator 0 on a model's fabric, with the multiplicity of every
/// link of communicator 0 when they are (see the module docs).
///
/// Built per job set and dropped with it; nothing is cached across sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationCertificate {
    /// Per model link id, `n(l)` for communicator 0's links and 0
    /// elsewhere; empty when trivial.
    mult: Vec<u32>,
    /// Hash of every member list; 0 when trivial.
    fingerprint: u64,
}

/// A link owner no map has hit yet.
const NONE: u32 = u32::MAX;

impl TranslationCertificate {
    /// Certifies the job set whose communicator `c` has the cores
    /// `members[c]` (in rank order) on the fabric of `table`, or returns
    /// the trivial certificate. Communicators of unequal size, and sets
    /// of fewer than two, are trivial.
    ///
    /// The certificate speaks for schedules generated from each member
    /// list by one member-equivariant generator, as every `mre-mpi`
    /// generator is.
    pub fn new<M: AsRef<[usize]>>(table: &RailLinkTable, members: &[M]) -> Self {
        certify(table, members).unwrap_or(Self {
            mult: Vec::new(),
            fingerprint: 0,
        })
    }

    /// True for a refused set: the merged schedule, every `m = 1`.
    pub fn is_trivial(&self) -> bool {
        self.mult.is_empty()
    }

    /// `n(l)`: how many communicators' flows link `l` carries copies of —
    /// 0 for a link communicator 0 does not own or never uses, and 1
    /// everywhere under the trivial certificate.
    pub fn multiplicity(&self, link: u32) -> u32 {
        if self.is_trivial() {
            1
        } else {
            self.mult[link as usize]
        }
    }

    /// Hash of the job set's member lists, which with the model determine
    /// the multiplicities; 0 when trivial. Keying on the job set rather
    /// than on its multiplicities shares no memo entry between job sets,
    /// so a parallel sweep resolves each key on one worker and its cache
    /// counts repeat exactly.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Per model link id multiplicities (empty when trivial).
    pub(crate) fn mults(&self) -> &[u32] {
        &self.mult
    }

    /// The schedule the lockstep job-set cost
    /// ([`SharedCostCache::job_set_time`](crate::SharedCostCache::job_set_time))
    /// takes under this certificate: communicator 0's when certified, the
    /// lockstep merge of every communicator's otherwise. `generate` maps a
    /// member list to its communicator's schedule.
    pub fn job_schedule<M: AsRef<[usize]>>(
        &self,
        members: &[M],
        generate: impl Fn(&[usize]) -> Schedule,
    ) -> Schedule {
        match members {
            [] => Schedule::new(),
            [first, rest @ ..] if !self.is_trivial() || rest.is_empty() => generate(first.as_ref()),
            _ => {
                let all: Vec<Schedule> = members.iter().map(|m| generate(m.as_ref())).collect();
                Schedule::lockstep(&all)
            }
        }
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

fn certify<M: AsRef<[usize]>>(
    table: &RailLinkTable,
    members: &[M],
) -> Option<TranslationCertificate> {
    let base = members.first()?.as_ref();
    if members.len() < 2 || members.iter().any(|m| m.as_ref().len() != base.len()) {
        return None;
    }
    let depth = table.strides().len();
    let links = table.num_links();
    let round_robin = table.policy() == RailPolicy::RoundRobin;
    let mut instances = LinkMap::new(links);
    let mut rail_keys = LinkMap::new(links);
    // Per owner: the communicator-0 owner and rail shift every map that
    // hits it came from, and how many maps hit it.
    let mut pre = vec![(NONE, 0u32); links];
    let mut hits = vec![0u32; links];
    let mut touched: Vec<u32> = Vec::new();
    let mut shift: Vec<Option<u32>> = vec![None; depth];
    // Levels communicator 0 crosses: its members sit in more than one
    // instance. No communicator's message uses an uplink of a level its
    // communicator does not cross.
    let crossed: Vec<bool> = (0..depth)
        .map(|level| {
            let b = table.row_entry(base[0], level).0;
            base.iter().any(|&x| table.row_entry(x, level).0 != b)
        })
        .collect();
    for (c, comm) in members.iter().enumerate() {
        let stamp = c as u32 + 1;
        shift.fill(None);
        for (&x0, &x) in base.iter().zip(comm.as_ref()) {
            for (level, &rails) in table.rails().iter().enumerate() {
                let rails = rails as u32;
                let (b0, p0) = table.row_entry(x0, level);
                let (b, p) = table.row_entry(x, level);
                let first = instances.map(stamp, b0, b)?;
                if !crossed[level] {
                    continue;
                }
                // The owner of the links a member uses at this level, and
                // the rail shift of their images.
                let (owner0, owner, s, first) = if rails == 1 {
                    (b0, b, 0, first)
                } else if round_robin {
                    let d = (p + rails - p0) % rails;
                    if *shift[level].get_or_insert(d) != d {
                        return None;
                    }
                    (b0, b, 2 * d % rails, first)
                } else {
                    let first = rail_keys.map(stamp, b0 + p0, b + p)?;
                    (b0 + p0, b + p, 0, first)
                };
                if !first {
                    continue;
                }
                let slot = &mut pre[owner as usize];
                if slot.0 == NONE {
                    *slot = (owner0, s);
                    touched.push(owner);
                } else if *slot != (owner0, s) {
                    return None;
                }
                hits[owner as usize] += 1;
            }
        }
    }
    if touched
        .iter()
        .any(|&o| hits[o as usize] != hits[pre[o as usize].0 as usize])
    {
        return None;
    }
    // Spread each communicator-0 owner's count over the links it owns:
    // every rail of both directions, or the member's own rail.
    let mut mult = vec![0u32; links];
    for &x0 in base {
        for (level, &rails) in table.rails().iter().enumerate() {
            if !crossed[level] {
                continue;
            }
            let (b0, p0) = table.row_entry(x0, level);
            let rails = rails as u32;
            let (owner, owned) = if rails == 1 || round_robin {
                (b0, 0..rails)
            } else {
                (b0 + p0, p0..p0 + 1)
            };
            let n = hits[owner as usize];
            for r in owned {
                mult[(b0 + r) as usize] = n;
                mult[(b0 + rails + r) as usize] = n;
            }
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

    /// ⟦2, 2, 4⟧ (strides 8, 4, 1) with `nics` node rails.
    fn table(nics: usize, policy: RailPolicy) -> RailLinkTable {
        RailLinkTable::new(16, &[8, 4, 1], &[nics, 1, 1], policy)
    }

    #[test]
    fn packed_translates_certify_with_unit_multiplicity() {
        // Four packed communicators of four cores, one per socket: each
        // crosses only the core level, where it owns its cores' uplinks.
        let members: Vec<Vec<usize>> = (0..4).map(|c| (4 * c..4 * c + 4).collect()).collect();
        let t = table(1, RailPolicy::RoundRobin);
        let cert = TranslationCertificate::new(&t, &members);
        assert!(!cert.is_trivial());
        assert_eq!(cert.multiplicity(t.link_id(2, 0, true, 0)), 1);
        // Node and socket uplinks carry no message of any communicator.
        assert_eq!(cert.multiplicity(t.link_id(0, 0, true, 0)), 0);
        assert_eq!(cert.multiplicity(t.link_id(1, 0, true, 0)), 0);
    }

    #[test]
    fn spread_translates_certify_and_straddlers_are_refused() {
        let t = table(1, RailPolicy::RoundRobin);
        // Spread: communicator c takes core c of every socket.
        let spread: Vec<Vec<usize>> = (0..4)
            .map(|c| (0..4).map(|k| 4 * k + c).collect())
            .collect();
        let cert = TranslationCertificate::new(&t, &spread);
        assert!(!cert.is_trivial());
        assert_eq!(cert.multiplicity(t.link_id(0, 0, false, 0)), 4);
        // Communicator 0 sits in node 0, communicator 1 straddles both
        // nodes: the outer instance map is not well defined.
        let straddle = vec![vec![0, 1, 2, 3], vec![4, 5, 8, 9]];
        assert!(TranslationCertificate::new(&t, &straddle).is_trivial());
        // Unequal sizes and single communicators are trivial.
        assert!(TranslationCertificate::new(&t, &[vec![0, 1], vec![2]]).is_trivial());
        assert!(TranslationCertificate::new(&t, &[vec![0, 1]]).is_trivial());
    }

    #[test]
    fn round_robin_needs_a_constant_rail_shift() {
        let t = table(2, RailPolicy::RoundRobin);
        // A shift by 8 cores moves no member's rail part.
        let even = vec![vec![0, 1, 2, 3], vec![8, 9, 10, 11]];
        assert!(!TranslationCertificate::new(&t, &even).is_trivial());
        // Cores 0, 8 ↦ 5, 13 cross nodes, and both rail parts move by 1,
        // so every link's rail moves by 2 ≡ 0: node 0's uplink rails are
        // hit twice.
        let odd = vec![vec![0, 8], vec![5, 13]];
        let cert = TranslationCertificate::new(&t, &odd);
        assert!(!cert.is_trivial());
        assert_eq!(cert.multiplicity(t.link_id(0, 0, true, 1)), 2);
        // On four rails the same layout moves links by 2 rails, so node
        // 0's rail r is the image of rail r − 2 as well as its own: refused
        // (a used-link check could still accept it).
        let t4 = table(4, RailPolicy::RoundRobin);
        assert!(TranslationCertificate::new(&t4, &odd).is_trivial());
        // Parts moving by 1 and 2: no constant shift.
        assert!(TranslationCertificate::new(&t4, &[vec![0, 8], vec![9, 2]]).is_trivial());
        // A railed level no communicator crosses needs no shift.
        assert!(!TranslationCertificate::new(&t4, &[vec![0, 1], vec![5, 6]]).is_trivial());
    }

    #[test]
    fn job_schedule_is_communicator_zeros_or_the_merge() {
        use crate::schedule::{Message, Round};
        let generate =
            |m: &[usize]| Schedule::with(vec![Round::with(vec![Message::new(m[0], m[1], 8)])]);
        let t = table(1, RailPolicy::RoundRobin);
        let members = vec![vec![0, 1], vec![4, 5]];
        let cert = TranslationCertificate::new(&t, &members);
        assert_eq!(cert.job_schedule(&members, generate), generate(&members[0]));
        let refused = vec![vec![0, 1], vec![8, 5]];
        let trivial = TranslationCertificate::new(&t, &refused);
        assert!(trivial.is_trivial());
        assert_eq!(trivial.multiplicity(0), 1);
        assert_eq!(
            trivial.job_schedule(&refused, generate),
            Schedule::lockstep(&[generate(&refused[0]), generate(&refused[1])])
        );
    }
}
