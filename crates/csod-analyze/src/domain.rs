//! The interval abstract domain the bounds inference runs over.
//!
//! Classic intervals with infinities ([Cousot & Cousot 1977]): values
//! are approximated by `[lo, hi]` ranges over a signed 128-bit space —
//! wide enough that byte offsets and sizes from the 64-bit workload IR
//! never overflow the arithmetic. A sticky `widened` flag remembers
//! that an interval's bounds were extrapolated rather than observed, so
//! the classifier can demote conclusions drawn from it to
//! [`Unknown`](csod_core::RiskClass::Unknown) instead of trusting a
//! bound the widening operator invented.
//!
//! [Cousot & Cousot 1977]: https://doi.org/10.1145/512950.512973

use std::cmp::Ordering;
use std::fmt;

/// One end of an interval: finite or at infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Minus infinity.
    NegInf,
    /// A finite bound.
    Finite(i128),
    /// Plus infinity.
    PosInf,
}

impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Bound) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bound {
    fn cmp(&self, other: &Bound) -> Ordering {
        use Bound::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => Ordering::Equal,
            (NegInf, _) | (_, PosInf) => Ordering::Less,
            (PosInf, _) | (_, NegInf) => Ordering::Greater,
            (Finite(a), Finite(b)) => a.cmp(b),
        }
    }
}

impl Bound {
    /// Saturating addition of two bounds (infinities absorb).
    ///
    /// # Panics
    ///
    /// Panics on the meaningless `NegInf + PosInf`; the analysis never
    /// adds bounds of opposite infinite sign.
    fn add(self, other: Bound) -> Bound {
        use Bound::*;
        match (self, other) {
            (Finite(a), Finite(b)) => Finite(a.saturating_add(b)),
            (PosInf, NegInf) | (NegInf, PosInf) => {
                panic!("interval arithmetic added opposite infinities")
            }
            (PosInf, _) | (_, PosInf) => PosInf,
            (NegInf, _) | (_, NegInf) => NegInf,
        }
    }
}

/// A non-empty interval `[lo, hi]` with a sticky widening marker.
///
/// The empty interval is not representable; analyses that need "no
/// value" use `Option<Interval>` (as the binding resolution does for
/// slots that are provably empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: Bound,
    /// Upper bound (inclusive).
    pub hi: Bound,
    /// Whether either bound came from widening rather than observation.
    pub widened: bool,
}

impl Interval {
    /// The top element `[-inf, +inf]`.
    pub const TOP: Interval = Interval {
        lo: Bound::NegInf,
        hi: Bound::PosInf,
        widened: false,
    };

    /// The singleton interval `[v, v]`.
    pub fn point(v: i128) -> Interval {
        Interval {
            lo: Bound::Finite(v),
            hi: Bound::Finite(v),
            widened: false,
        }
    }

    /// Least upper bound: the smallest interval containing both.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            widened: self.widened || other.widened,
        }
    }

    /// Standard widening: any bound `other` grows past jumps to
    /// infinity, guaranteeing termination of ascending chains. The
    /// result is marked [`widened`](Interval::widened) only when a
    /// bound actually moved to infinity.
    pub fn widen(self, other: Interval) -> Interval {
        let lo = if other.lo < self.lo {
            Bound::NegInf
        } else {
            self.lo
        };
        let hi = if other.hi > self.hi {
            Bound::PosInf
        } else {
            self.hi
        };
        let moved = lo != self.lo.min(other.lo) || hi != self.hi.max(other.hi);
        Interval {
            lo,
            hi,
            widened: self.widened || other.widened || moved,
        }
    }

    /// One narrowing iteration: bounds `self` pushed to infinity by
    /// widening are pulled back to the corresponding bound of
    /// `observed` (the exact hull of the values actually folded), which
    /// the widened fixpoint still justifies. Finite bounds of `self`
    /// are kept. The result drops the [`widened`](Interval::widened)
    /// marker exactly when both bounds end up finite — its bounds are
    /// then observations again, not extrapolations.
    pub fn narrow(self, observed: Interval) -> Interval {
        let lo = if self.lo == Bound::NegInf {
            observed.lo
        } else {
            self.lo
        };
        let hi = if self.hi == Bound::PosInf {
            observed.hi
        } else {
            self.hi
        };
        Interval {
            lo,
            hi,
            widened: !matches!((lo, hi), (Bound::Finite(_), Bound::Finite(_)))
                && (self.widened || observed.widened),
        }
    }

    /// The upper bound if finite.
    pub fn hi_finite(&self) -> Option<i128> {
        match self.hi {
            Bound::Finite(v) => Some(v),
            _ => None,
        }
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Pointwise sum (interval addition).
    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.add(other.lo),
            hi: self.hi.add(other.hi),
            widened: self.widened || other.widened,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let end = |b: &Bound, f: &mut fmt::Formatter<'_>| match b {
            Bound::NegInf => write!(f, "-inf"),
            Bound::PosInf => write!(f, "+inf"),
            Bound::Finite(v) => write!(f, "{v}"),
        };
        write!(f, "[")?;
        end(&self.lo, f)?;
        write!(f, ", ")?;
        end(&self.hi, f)?;
        write!(f, "]")?;
        if self.widened {
            write!(f, "w")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Add;

    /// The interval `[lo, hi]`.
    fn range(lo: i128, hi: i128) -> Interval {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Interval {
            lo: Bound::Finite(lo),
            hi: Bound::Finite(hi),
            widened: false,
        }
    }

    #[test]
    fn join_is_commutative_and_contains_both() {
        let a = range(1, 5);
        let b = range(3, 9);
        assert_eq!(a.join(b), b.join(a));
        let j = a.join(b);
        assert_eq!(j, range(1, 9));
        assert!(j.lo <= Bound::Finite(1) && Bound::Finite(9) <= j.hi);
    }

    #[test]
    fn join_is_idempotent_and_associative() {
        let a = range(-4, 2);
        let b = Interval::point(7);
        let c = range(0, 100);
        assert_eq!(a.join(a), a);
        assert_eq!(a.join(b).join(c), a.join(b.join(c)));
    }

    #[test]
    fn top_absorbs_everything() {
        let a = range(3, 4);
        assert_eq!(a.join(Interval::TOP), Interval::TOP);
        assert_eq!(
            (Interval::TOP.lo, Interval::TOP.hi),
            (Bound::NegInf, Bound::PosInf)
        );
        assert_eq!((a.lo, a.hi), (Bound::Finite(3), Bound::Finite(4)));
    }

    #[test]
    fn widen_is_an_upper_bound_of_join() {
        // Widening must over-approximate the join: x ⊔ y ⊑ x ∇ y.
        let cases = [
            (range(0, 10), range(0, 12)),
            (range(5, 10), range(3, 10)),
            (Interval::point(1), Interval::point(1)),
            (range(-2, 2), range(-9, 9)),
        ];
        for (x, y) in cases {
            let j = x.join(y);
            let w = x.widen(y);
            assert!(w.lo <= j.lo && j.hi <= w.hi, "{x} widen {y} -> {w} vs {j}");
        }
    }

    #[test]
    fn widen_terminates_ascending_chains() {
        // A growing chain must stabilize after finitely many widenings:
        // with interval widening, one step to +inf.
        let mut acc = Interval::point(0);
        let mut changes = 0;
        for i in 1..1000 {
            let next = acc.widen(Interval::point(i));
            if next != acc {
                changes += 1;
            }
            acc = next;
        }
        assert!(changes <= 1, "widening chain changed {changes} times");
        assert_eq!(acc.hi, Bound::PosInf);
        assert!(acc.widened);
    }

    #[test]
    fn widen_of_stable_bounds_stays_exact() {
        let a = range(0, 64);
        let w = a.widen(range(0, 64));
        assert_eq!(w, a);
        assert!(!w.widened);
    }

    #[test]
    fn widened_flag_is_sticky_through_join_and_add() {
        let w = Interval::point(0).widen(Interval::point(5));
        assert!(w.widened);
        assert!(w.join(Interval::point(1)).widened);
        assert!(w.add(Interval::point(3)).widened);
    }

    #[test]
    fn narrowing_restores_observed_bounds_after_widening() {
        // Widen past the threshold, then narrow against the exact hull.
        let widened = range(0, 10).widen(range(0, 12));
        assert_eq!(widened.hi, Bound::PosInf);
        let narrowed = widened.narrow(range(0, 12));
        assert_eq!(narrowed, range(0, 12));
        assert!(!narrowed.widened);
        // Finite bounds of the widened interval are kept as-is.
        assert_eq!(widened.narrow(range(-5, 12)).lo, Bound::Finite(0));
    }

    #[test]
    fn narrowing_keeps_the_marker_while_a_bound_stays_infinite() {
        let w = range(0, 1).widen(range(-1, 2));
        let half = Interval {
            lo: Bound::NegInf,
            hi: Bound::PosInf,
            widened: false,
        };
        assert!(w.narrow(half).widened);
    }

    #[test]
    fn arithmetic_shifts_both_bounds() {
        let a = range(2, 6) + Interval::point(10);
        assert_eq!(a, range(12, 16));
        let b = range(0, 1).add(range(5, 7));
        assert_eq!(b, range(5, 8));
        assert_eq!(Interval::TOP + Interval::point(3), Interval::TOP);
    }

    #[test]
    fn bound_ordering_is_total() {
        assert!(Bound::NegInf < Bound::Finite(i128::MIN));
        assert!(Bound::Finite(i128::MAX) < Bound::PosInf);
        assert!(Bound::Finite(-1) < Bound::Finite(1));
        assert_eq!(Bound::PosInf.max(Bound::Finite(9)), Bound::PosInf);
    }

    #[test]
    fn display_renders_infinities() {
        assert_eq!(Interval::TOP.to_string(), "[-inf, +inf]");
        assert_eq!(range(1, 2).to_string(), "[1, 2]");
    }
}
