//! Wide register sets: a two-word bitmask covering up to 128 GPRs.
//!
//! The original liveness and zap analyses packed register sets into a bare
//! `u64` and bailed on any program with more than 64 GPRs. [`RegMask`]
//! widens the representation to two words so wide (fuzzer-generated or
//! hand-written) programs get real per-cell verdicts; the analyses now
//! bail only past [`MAX_GPRS`].

/// Largest GPR count the analyses can represent ([`RegMask`] words × 64).
pub const MAX_GPRS: u16 = 128;

/// A set of general-purpose registers (bit `i` of word `i / 64` = `r{i}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub struct RegMask([u64; 2]);

impl RegMask {
    /// The empty set.
    pub const EMPTY: RegMask = RegMask([0; 2]);

    /// The set `{r0, …, r(n-1)}`; saturates at [`MAX_GPRS`].
    #[must_use]
    pub fn all(n: u16) -> RegMask {
        let n = n.min(MAX_GPRS);
        let word = |lo: u16| -> u64 {
            match n.saturating_sub(lo) {
                0 => 0,
                x if x >= 64 => u64::MAX,
                x => (1u64 << x) - 1,
            }
        };
        RegMask([word(0), word(64)])
    }

    /// The singleton `{r{i}}` (empty past [`MAX_GPRS`]).
    #[must_use]
    pub fn bit(i: u16) -> RegMask {
        let mut m = RegMask::EMPTY;
        m.set(i);
        m
    }

    /// Membership test.
    #[must_use]
    pub fn test(self, i: u16) -> bool {
        i < MAX_GPRS && self.0[usize::from(i / 64)] & (1u64 << (i % 64)) != 0
    }

    /// Insert `r{i}` (no-op past [`MAX_GPRS`]).
    pub fn set(&mut self, i: u16) {
        if i < MAX_GPRS {
            self.0[usize::from(i / 64)] |= 1u64 << (i % 64);
        }
    }

    /// Remove `r{i}`.
    pub fn clear(&mut self, i: u16) {
        if i < MAX_GPRS {
            self.0[usize::from(i / 64)] &= !(1u64 << (i % 64));
        }
    }

    /// True when no register is in the set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == [0, 0]
    }

    /// The registers in the set, ascending.
    #[cfg(test)]
    pub(crate) fn iter(self) -> impl Iterator<Item = u16> {
        (0..2u16).flat_map(move |word| {
            let mut m = self.0[usize::from(word)];
            std::iter::from_fn(move || {
                let bit = m.trailing_zeros() as u16;
                m &= m.wrapping_sub(1);
                (bit < 64).then_some(word * 64 + bit)
            })
        })
    }
}

impl std::ops::BitOr for RegMask {
    type Output = RegMask;
    fn bitor(self, o: RegMask) -> RegMask {
        RegMask([self.0[0] | o.0[0], self.0[1] | o.0[1]])
    }
}

impl std::ops::BitOrAssign for RegMask {
    fn bitor_assign(&mut self, o: RegMask) {
        self.0[0] |= o.0[0];
        self.0[1] |= o.0[1];
    }
}

impl std::ops::BitAnd for RegMask {
    type Output = RegMask;
    fn bitand(self, o: RegMask) -> RegMask {
        RegMask([self.0[0] & o.0[0], self.0[1] & o.0[1]])
    }
}

impl std::ops::Not for RegMask {
    type Output = RegMask;
    fn not(self) -> RegMask {
        RegMask([!self.0[0], !self.0[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_bits_round_trip() {
        let mut m = RegMask::EMPTY;
        assert!(m.is_empty());
        for i in [0u16, 1, 63, 64, 100, 127] {
            m.set(i);
            assert!(m.test(i), "bit {i}");
        }
        assert!(!m.test(2));
        m.clear(100);
        assert!(!m.test(100));
        assert!(m.test(127));
        // Past the representable range: silently absent, never aliased.
        m.set(128);
        assert!(!m.test(128));
    }

    #[test]
    fn all_covers_exactly_n() {
        for n in [0u16, 1, 63, 64, 65, 127, 128] {
            let m = RegMask::all(n);
            for i in 0..MAX_GPRS {
                assert_eq!(m.test(i), i < n, "n={n} bit {i}");
            }
        }
        assert_eq!(RegMask::all(200), RegMask::all(128), "saturates");
    }

    #[test]
    fn iter_lists_the_set_ascending() {
        let mut m = RegMask::EMPTY;
        assert_eq!(m.iter().count(), 0);
        for i in [0, 5, 63, 64, 100, 127] {
            m.set(i);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), [0, 5, 63, 64, 100, 127]);
        assert_eq!(RegMask::all(128).iter().count(), 128);
    }

    #[test]
    fn set_algebra() {
        let a = RegMask::bit(3) | RegMask::bit(70);
        let b = RegMask::bit(70) | RegMask::bit(127);
        assert_eq!(a & b, RegMask::bit(70));
        assert!((a & !b) == RegMask::bit(3));
        let mut c = a;
        c |= b;
        assert!(c.test(3) && c.test(70) && c.test(127));
    }
}
