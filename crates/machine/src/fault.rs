//! The fault model: Single Event Upset transitions (paper §2.1).
//!
//! Exactly three operational rules introduce faults, and they are the only
//! way state may be corrupted:
//!
//! * `reg-zap` — replace any register's payload (color tag preserved);
//! * `Q-zap1` — corrupt the *address* of any store-queue entry;
//! * `Q-zap2` — corrupt the *value* of any store-queue entry.
//!
//! [`FaultSite`] names a location, [`inject`] performs the `─→1` transition,
//! [`sites`] enumerates every site of a given machine state — the fan-out
//! used by exhaustive campaigns — and [`mutations`] proposes the corrupted
//! values to write there. Samplers that need register colors (the
//! correlated cross-color pairs of multi-fault plans) read them straight
//! from the register file ([`Machine::gprs`], [`Machine::reg`]).

use talft_isa::{Color, Reg};

use crate::state::Machine;

/// A place a single-event upset can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `reg-zap` on this register.
    Reg(Reg),
    /// `Q-zap1` on the address of the queue entry at this index
    /// (0 = front/newest).
    QueueAddr(usize),
    /// `Q-zap2` on the value of the queue entry at this index.
    QueueVal(usize),
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Reg(r) => write!(f, "reg-zap {r}"),
            FaultSite::QueueAddr(i) => write!(f, "Q-zap1 [{i}].addr"),
            FaultSite::QueueVal(i) => write!(f, "Q-zap2 [{i}].val"),
        }
    }
}

/// Enumerate every fault site of the current state: every register (GPRs,
/// then `d`, `pcG`, `pcB`), then each queue entry's address and value,
/// front (newest) first. The iterator borrows nothing and allocates
/// nothing; its exact length is known up front (`len()`).
#[must_use]
pub fn sites(m: &Machine) -> Sites {
    Sites {
        num_gprs: usize::from(m.num_gprs()),
        end: usize::from(m.num_gprs()) + 3 + 2 * m.queue().len(),
        next: 0,
    }
}

/// The fault sites of one machine state, in [`sites`] order.
#[derive(Debug, Clone)]
pub struct Sites {
    num_gprs: usize,
    end: usize,
    next: usize,
}

impl Sites {
    fn site(&self, i: usize) -> FaultSite {
        let n = self.num_gprs;
        match i.checked_sub(n) {
            #[allow(clippy::cast_possible_truncation)]
            None => FaultSite::Reg(Reg::r(i as u16)),
            Some(0) => FaultSite::Reg(Reg::Dst),
            Some(1) => FaultSite::Reg(Reg::Pc(Color::Green)),
            Some(2) => FaultSite::Reg(Reg::Pc(Color::Blue)),
            Some(j) => {
                let q = j - 3;
                if q.is_multiple_of(2) {
                    FaultSite::QueueAddr(q / 2)
                } else {
                    FaultSite::QueueVal(q / 2)
                }
            }
        }
    }
}

impl Iterator for Sites {
    type Item = FaultSite;

    fn next(&mut self) -> Option<FaultSite> {
        (self.next < self.end).then(|| {
            self.next += 1;
            self.site(self.next - 1)
        })
    }

    fn nth(&mut self, k: usize) -> Option<FaultSite> {
        self.next = self.next.saturating_add(k).min(self.end);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Sites {}

/// The value currently stored at a fault site (useful for choosing a
/// corrupted replacement).
#[must_use]
pub fn read_site(m: &Machine, site: FaultSite) -> Option<i64> {
    match site {
        FaultSite::Reg(r) => Some(m.rval(r)),
        FaultSite::QueueAddr(i) => m.queue().get(i).map(|&(a, _)| a),
        FaultSite::QueueVal(i) => m.queue().get(i).map(|&(_, v)| v),
    }
}

/// Perform a faulty transition `S ─→1 S'`, writing `new_val` at `site`.
///
/// Register color tags are preserved (the tag "is fictional" and the
/// `reg-zap` rule keeps it). Returns `false` if the site no longer exists
/// (queue shrank), in which case the machine is unchanged.
pub fn inject(m: &mut Machine, site: FaultSite, new_val: i64) -> bool {
    match site {
        FaultSite::Reg(r) => {
            let old = m.reg(r);
            m.set_reg(r, old.with_val(new_val));
            true
        }
        FaultSite::QueueAddr(i) => match m.queue_mut().get_mut(i) {
            Some(slot) => {
                slot.0 = new_val;
                true
            }
            None => false,
        },
        FaultSite::QueueVal(i) => match m.queue_mut().get_mut(i) {
            Some(slot) => {
                slot.1 = new_val;
                true
            }
            None => false,
        },
    }
}

/// Most corrupted values [`mutations`] proposes for one site.
const MAX_MUTATIONS: usize = 10;

/// The single-bit flips that open every [`mutations`] list: `old ^ flip`
/// for bits 0, 7, 31 and 62. The masks are nonzero and pairwise distinct,
/// so the four values are pairwise distinct and never `old`, and every
/// list keeps all four, first and in this order; a k=1 plan builder can
/// write them without building the list.
pub const BIT_FLIPS: [i64; 4] = [1, 1 << 7, 1 << 31, 1 << 62];

/// Representative corrupted values to try at a site holding `old`:
/// single-bit flips of low/high/sign bits ([`BIT_FLIPS`]), small offsets,
/// zero, and a large-magnitude constant. All distinct from `old` and from
/// each other, in that order, held inline (no allocation).
#[must_use]
pub fn mutations(old: i64) -> Mutations {
    let [b0, b7, b31, b62] = BIT_FLIPS.map(|flip| old ^ flip);
    let candidates = [
        b0,
        b7,
        b31,
        b62,
        old.wrapping_add(1),
        old.wrapping_sub(1),
        0,
        -1,
        0x7fff_ffff,
        old.wrapping_neg(),
    ];
    let mut out = Mutations {
        vals: [0; MAX_MUTATIONS],
        len: 0,
    };
    for c in candidates {
        if c != old && !out.contains(&c) {
            out.vals[out.len] = c;
            out.len += 1;
        }
    }
    out
}

/// The corrupted values of one site ([`mutations`]): a fixed-capacity
/// list that derefs to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutations {
    vals: [i64; MAX_MUTATIONS],
    len: usize,
}

impl std::ops::Deref for Mutations {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        &self.vals[..self.len]
    }
}

impl IntoIterator for Mutations {
    type Item = i64;
    type IntoIter = std::iter::Take<std::array::IntoIter<i64, MAX_MUTATIONS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.vals.into_iter().take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use talft_isa::{assemble, CVal};

    fn boot() -> Machine {
        let src = "\n.code\nmain:\n  .pre { forall m:mem; mem: m; }\n  halt\n";
        Machine::boot(Arc::new(assemble(src).expect("ok").program))
    }

    #[test]
    fn sites_cover_registers_and_queue() {
        let mut m = boot();
        let base: Vec<FaultSite> = sites(&m).collect();
        assert_eq!(base.len(), usize::from(m.num_gprs()) + 3); // + d, pcG, pcB
        let regs: Vec<FaultSite> = Reg::all(m.num_gprs()).map(FaultSite::Reg).collect();
        assert_eq!(base, regs, "registers in `Reg::all` order");
        m.queue_mut().push_front((1, 2));
        m.queue_mut().push_front((3, 4));
        let it = sites(&m);
        assert_eq!(it.len(), base.len() + 4);
        let with_q: Vec<FaultSite> = it.collect();
        assert_eq!(
            with_q[base.len()..],
            [
                FaultSite::QueueAddr(0),
                FaultSite::QueueVal(0),
                FaultSite::QueueAddr(1),
                FaultSite::QueueVal(1)
            ]
        );
        // `nth` indexes the same sequence `next` walks.
        for k in 0..with_q.len() + 2 {
            assert_eq!(sites(&m).nth(k), with_q.get(k).copied());
        }
        let mut tail = sites(&m);
        tail.nth(2);
        assert_eq!(tail.len(), with_q.len() - 3);
        assert_eq!(tail.collect::<Vec<_>>(), with_q[3..]);
    }

    #[test]
    fn inject_preserves_register_color() {
        let mut m = boot();
        m.set_reg(Reg::r(1), CVal::blue(10));
        assert!(inject(&mut m, FaultSite::Reg(Reg::r(1)), 999));
        assert_eq!(m.reg(Reg::r(1)), CVal::new(Color::Blue, 999));
    }

    #[test]
    fn inject_queue_entries() {
        let mut m = boot();
        m.queue_mut().push_front((100, 5));
        assert!(inject(&mut m, FaultSite::QueueAddr(0), 101));
        assert_eq!(m.queue()[0], (101, 5));
        assert!(inject(&mut m, FaultSite::QueueVal(0), 6));
        assert_eq!(m.queue()[0], (101, 6));
        assert!(!inject(&mut m, FaultSite::QueueVal(3), 0));
    }

    #[test]
    fn read_site_matches_state() {
        let mut m = boot();
        m.set_reg(Reg::Dst, CVal::green(77));
        assert_eq!(read_site(&m, FaultSite::Reg(Reg::Dst)), Some(77));
        assert_eq!(read_site(&m, FaultSite::QueueAddr(0)), None);
        m.queue_mut().push_front((8, 9));
        assert_eq!(read_site(&m, FaultSite::QueueAddr(0)), Some(8));
        assert_eq!(read_site(&m, FaultSite::QueueVal(0)), Some(9));
    }

    /// Every list is distinct and never holds `old`, and it always opens
    /// with the four bit flips of bits 0, 7, 31 and 62 ([`BIT_FLIPS`]),
    /// which the k=1 plan builder writes without building the list.
    #[test]
    fn mutations_are_distinct_and_nontrivial() {
        let edges = [0i64, 1, -1, 4096, i64::MAX, i64::MIN, 1 << 62, 0x7fff_ffff];
        let mut rng = talft_testutil::SplitMix64::new(0x5eed);
        #[allow(clippy::cast_possible_wrap)]
        let draws = (0..10_000).map(|_| rng.next_u64() as i64);
        for old in edges.into_iter().chain(draws) {
            let ms = mutations(old);
            assert!(ms.len() >= 4, "{old}");
            assert_eq!(ms[..4], BIT_FLIPS.map(|flip| old ^ flip), "{old}");
            assert!(ms.iter().all(|&v| v != old));
            for (i, v) in ms.iter().enumerate() {
                assert!(!ms[..i].contains(v), "{v} repeats for {old}");
            }
            assert_eq!(ms.into_iter().collect::<Vec<_>>(), ms.to_vec());
        }
    }
}
