//! Abstract domains of the static analysis (`hotg-analysis`): integer
//! intervals with widening and three-valued truth.
//!
//! [`Interval::narrow`] says what a comparison `x < c` implies about an
//! integer `x`; the analysis narrows on source-level comparisons through
//! it.

use crate::atom::Rel;
use crate::term::OpKind;

/// Three-valued static truth of a boolean condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Constancy {
    /// Provably true in every execution reaching the site.
    AlwaysTrue,
    /// Provably false in every execution reaching the site.
    AlwaysFalse,
    /// Not statically decided.
    Unknown,
}

impl Constancy {
    /// Least upper bound: agreeing verdicts survive, disagreement is
    /// [`Constancy::Unknown`].
    pub fn join(self, other: Constancy) -> Constancy {
        if self == other {
            self
        } else {
            Constancy::Unknown
        }
    }

    /// Logical negation (`Unknown` stays `Unknown`).
    #[allow(clippy::should_implement_trait)] // abstract transformer, not operator overload
    pub fn not(self) -> Constancy {
        match self {
            Constancy::AlwaysTrue => Constancy::AlwaysFalse,
            Constancy::AlwaysFalse => Constancy::AlwaysTrue,
            Constancy::Unknown => Constancy::Unknown,
        }
    }

    /// Three-valued conjunction.
    pub fn and(self, other: Constancy) -> Constancy {
        match (self, other) {
            (Constancy::AlwaysFalse, _) | (_, Constancy::AlwaysFalse) => Constancy::AlwaysFalse,
            (Constancy::AlwaysTrue, Constancy::AlwaysTrue) => Constancy::AlwaysTrue,
            _ => Constancy::Unknown,
        }
    }

    /// Three-valued disjunction.
    pub fn or(self, other: Constancy) -> Constancy {
        match (self, other) {
            (Constancy::AlwaysTrue, _) | (_, Constancy::AlwaysTrue) => Constancy::AlwaysTrue,
            (Constancy::AlwaysFalse, Constancy::AlwaysFalse) => Constancy::AlwaysFalse,
            _ => Constancy::Unknown,
        }
    }
}

/// A (possibly unbounded) integer interval `[lo, hi]`; `None` bounds mean
/// −∞ / +∞. Never empty: refinement that would produce an empty interval
/// is reported to the caller (an empty fact means the path is infeasible).
///
/// Runtime arithmetic is *checked* (`mini` faults on overflow), so any
/// operation whose mathematical bounds leave the `i64` range soundly goes
/// to an unbounded side — executions past an overflow do not exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Lower bound (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper bound (`None` = +∞).
    pub hi: Option<i64>,
}

fn clamp_lo(v: i128) -> Option<i64> {
    if v < i64::MIN as i128 || v > i64::MAX as i128 {
        None
    } else {
        Some(v as i64)
    }
}

fn clamp_hi(v: i128) -> Option<i64> {
    clamp_lo(v)
}

/// An interval bound over the extended integers, used for corner products.
#[derive(Clone, Copy, PartialEq, Eq)]
enum XBound {
    NegInf,
    Fin(i128),
    PosInf,
}

impl XBound {
    fn lo_of(b: Option<i64>) -> XBound {
        b.map_or(XBound::NegInf, |v| XBound::Fin(v as i128))
    }

    fn hi_of(b: Option<i64>) -> XBound {
        b.map_or(XBound::PosInf, |v| XBound::Fin(v as i128))
    }

    /// Extended product. `0 · ±∞ = 0` is the right convention for corner
    /// products: the actual operand values are always finite, so a zero
    /// endpoint contributes the exact product 0 regardless of how far the
    /// other operand ranges.
    fn mul(self, other: XBound) -> XBound {
        use XBound::*;
        match (self, other) {
            (Fin(0), _) | (_, Fin(0)) => Fin(0),
            // i64 × i64 cannot overflow i128.
            (Fin(a), Fin(b)) => Fin(a * b),
            (Fin(a), PosInf) | (PosInf, Fin(a)) => {
                if a > 0 {
                    PosInf
                } else {
                    NegInf
                }
            }
            (Fin(a), NegInf) | (NegInf, Fin(a)) => {
                if a > 0 {
                    NegInf
                } else {
                    PosInf
                }
            }
            (PosInf, PosInf) | (NegInf, NegInf) => PosInf,
            (PosInf, NegInf) | (NegInf, PosInf) => NegInf,
        }
    }

    fn rank(self) -> (i8, i128) {
        match self {
            XBound::NegInf => (-1, 0),
            XBound::Fin(v) => (0, v),
            XBound::PosInf => (1, 0),
        }
    }
}

impl Interval {
    /// The full `i64` range (⊤).
    pub const TOP: Interval = Interval { lo: None, hi: None };

    /// The singleton interval `[v, v]`.
    pub fn constant(v: i64) -> Interval {
        Interval {
            lo: Some(v),
            hi: Some(v),
        }
    }

    /// `Some(v)` iff this is the singleton `[v, v]`.
    pub fn as_const(self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Standard widening: bounds that moved since `self` jump to ±∞.
    /// Guarantees loop fixpoints terminate.
    pub fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: match (self.lo, next.lo) {
                (Some(a), Some(b)) if b >= a => Some(a),
                _ => None,
            },
            hi: match (self.hi, next.hi) {
                (Some(a), Some(b)) if b <= a => Some(a),
                _ => None,
            },
        }
    }

    /// Intersection; `None` when empty.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if let (Some(a), Some(b)) = (lo, hi) {
            if a > b {
                return None;
            }
        }
        Some(Interval { lo, hi })
    }

    /// Abstract addition.
    #[allow(clippy::should_implement_trait)] // abstract transformer, not operator overload
    pub fn add(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => clamp_lo(a as i128 + b as i128),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => clamp_hi(a as i128 + b as i128),
                _ => None,
            },
        }
    }

    /// Abstract subtraction.
    #[allow(clippy::should_implement_trait)] // abstract transformer, not operator overload
    pub fn sub(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.hi) {
                (Some(a), Some(b)) => clamp_lo(a as i128 - b as i128),
                _ => None,
            },
            hi: match (self.hi, other.lo) {
                (Some(a), Some(b)) => clamp_hi(a as i128 - b as i128),
                _ => None,
            },
        }
    }

    /// Abstract negation.
    #[allow(clippy::should_implement_trait)] // abstract transformer, not operator overload
    pub fn neg(self) -> Interval {
        Interval {
            lo: self.hi.and_then(|v| clamp_lo(-(v as i128))),
            hi: self.lo.and_then(|v| clamp_hi(-(v as i128))),
        }
    }

    /// Abstract multiplication: the general sign-aware corner product.
    ///
    /// Each bound is lifted to the extended integers (`None` = ±∞ on its
    /// side) and the four corner products are taken there, so half-bounded
    /// operands keep their finite side (`[0, +∞) · [2, 3] = [0, +∞)`)
    /// instead of collapsing to ⊤. Corners that leave `i64` clamp to the
    /// unbounded side, which is sound because checked runtime arithmetic
    /// faults before producing such a value.
    #[allow(clippy::should_implement_trait)] // abstract transformer, not operator overload
    pub fn mul(self, other: Interval) -> Interval {
        let corners = [
            XBound::lo_of(self.lo).mul(XBound::lo_of(other.lo)),
            XBound::lo_of(self.lo).mul(XBound::hi_of(other.hi)),
            XBound::hi_of(self.hi).mul(XBound::lo_of(other.lo)),
            XBound::hi_of(self.hi).mul(XBound::hi_of(other.hi)),
        ];
        let lo = corners.iter().copied().min_by_key(|b| b.rank()).unwrap();
        let hi = corners.iter().copied().max_by_key(|b| b.rank()).unwrap();
        Interval {
            lo: match lo {
                XBound::Fin(v) => clamp_lo(v),
                _ => None,
            },
            hi: match hi {
                XBound::Fin(v) => clamp_hi(v),
                _ => None,
            },
        }
    }

    /// Abstract truncating division / remainder.
    ///
    /// Precise for constant operands with a nonzero divisor; for a
    /// constant nonzero divisor `b` and an interval dividend, division
    /// maps the bounds (truncating division by a fixed `b` is monotone in
    /// the dividend — non-decreasing for `b > 0`, non-increasing for
    /// `b < 0`), and remainder is bounded by `(-|b|, |b|)` with the sign
    /// of the dividend and by the dividend's own magnitude. Everything
    /// else is ⊤ (a zero divisor faults at runtime, so reaching code sees
    /// any value).
    pub fn div_like(self, op: OpKind, other: Interval) -> Interval {
        debug_assert!(matches!(op, OpKind::Div | OpKind::Mod));
        let Some(b) = other.as_const() else {
            return Interval::TOP;
        };
        if b == 0 {
            return Interval::TOP;
        }
        let b = b as i128;
        if op == OpKind::Div {
            let q = |v: i64| (v as i128) / b;
            let (lo, hi) = if b > 0 {
                (self.lo.map(q), self.hi.map(q))
            } else {
                (self.hi.map(q), self.lo.map(q))
            };
            return Interval {
                lo: lo.and_then(clamp_lo),
                hi: hi.and_then(clamp_hi),
            };
        }
        // Remainder. Constant dividend stays exact.
        if let Some(a) = self.as_const() {
            if let Some(r) = clamp_lo((a as i128) % b) {
                return Interval {
                    lo: Some(r),
                    hi: Some(r),
                };
            }
        }
        let m = b.unsigned_abs() as i128 - 1;
        if self.lo.is_some_and(|l| l >= 0) {
            // Non-negative dividend: result in [0, min(hi, m)], and when
            // the dividend never reaches |b| it is the identity
            // ([1, 2] % 5 = [1, 2]).
            if self.hi.is_some_and(|h| (h as i128) <= m) {
                return self;
            }
            return Interval {
                lo: Some(0),
                hi: clamp_hi(self.hi.map_or(m, |h| (h as i128).min(m))),
            };
        }
        if self.hi.is_some_and(|h| h <= 0) {
            if self.lo.is_some_and(|l| (l as i128) >= -m) {
                return self;
            }
            return Interval {
                lo: clamp_lo(self.lo.map_or(-m, |l| (l as i128).max(-m))),
                hi: Some(0),
            };
        }
        Interval {
            lo: clamp_lo(self.lo.map_or(-m, |l| (l as i128).max(-m))),
            hi: clamp_hi(self.hi.map_or(m, |h| (h as i128).min(m))),
        }
    }

    /// Three-valued truth of `a rel b`.
    pub fn compare(rel: Rel, a: Interval, b: Interval) -> Constancy {
        // `lt(a, b)`: is a < b always/never/unknown.
        fn lt(a: Interval, b: Interval) -> Constancy {
            match (a.hi, b.lo) {
                (Some(ah), Some(bl)) if ah < bl => return Constancy::AlwaysTrue,
                _ => {}
            }
            match (a.lo, b.hi) {
                (Some(al), Some(bh)) if al >= bh => Constancy::AlwaysFalse,
                _ => Constancy::Unknown,
            }
        }
        fn le(a: Interval, b: Interval) -> Constancy {
            match (a.hi, b.lo) {
                (Some(ah), Some(bl)) if ah <= bl => return Constancy::AlwaysTrue,
                _ => {}
            }
            match (a.lo, b.hi) {
                (Some(al), Some(bh)) if al > bh => Constancy::AlwaysFalse,
                _ => Constancy::Unknown,
            }
        }
        match rel {
            Rel::Lt => lt(a, b),
            Rel::Le => le(a, b),
            Rel::Gt => lt(b, a),
            Rel::Ge => le(b, a),
            Rel::Eq => match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) if x == y => Constancy::AlwaysTrue,
                _ => {
                    if a.intersect(b).is_none() {
                        Constancy::AlwaysFalse
                    } else {
                        Constancy::Unknown
                    }
                }
            },
            Rel::Ne => Interval::compare(Rel::Eq, a, b).not(),
        }
    }

    /// The interval implied for an integer `x` by `x rel bound`, suitable
    /// for intersection with `x`'s current interval; `None` means the
    /// relation constrains no representable bound (`Ne`, or an unbounded
    /// side).
    ///
    /// Strict comparisons tighten by one: `x < bound` implies
    /// `x ≤ hi(bound) − 1` over the integers, not `x ≤ hi(bound)`.
    pub fn narrow(rel: Rel, bound: Interval) -> Option<Interval> {
        match rel {
            // x < b ≤ hi(bound)  ⇒  x ≤ hi(bound) − 1
            Rel::Lt => bound.hi.and_then(|h| h.checked_sub(1)).map(|h| Interval {
                lo: None,
                hi: Some(h),
            }),
            Rel::Le => bound.hi.map(|h| Interval {
                lo: None,
                hi: Some(h),
            }),
            // x > b ≥ lo(bound)  ⇒  x ≥ lo(bound) + 1
            Rel::Gt => bound.lo.and_then(|l| l.checked_add(1)).map(|l| Interval {
                lo: Some(l),
                hi: None,
            }),
            Rel::Ge => bound.lo.map(|l| Interval {
                lo: Some(l),
                hi: None,
            }),
            Rel::Eq => Some(bound),
            // Interval holes are not representable.
            Rel::Ne => None,
        }
    }
}

impl Default for Interval {
    fn default() -> Interval {
        Interval::TOP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The interval `[lo, hi]`.
    fn itv(lo: i64, hi: i64) -> Interval {
        Interval {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    #[test]
    fn mul_sign_cases_with_unbounded_sides() {
        let nonneg = Interval {
            lo: Some(0),
            hi: None,
        };
        let pos = itv(2, 3);
        assert_eq!(nonneg.mul(pos), nonneg);
        // Negative factor flips the unbounded side.
        assert_eq!(
            nonneg.mul(itv(-3, -2)),
            Interval {
                lo: None,
                hi: Some(0)
            }
        );
        // Mixed-sign constant times an upper-bounded operand.
        let upper = Interval {
            lo: None,
            hi: Some(5),
        };
        assert_eq!(
            upper.mul(Interval::constant(2)),
            Interval {
                lo: None,
                hi: Some(10)
            }
        );
        assert_eq!(
            upper.mul(Interval::constant(-2)),
            Interval {
                lo: Some(-10),
                hi: None
            }
        );
        // A mixed-sign bounded operand against an unbounded one is still ⊤.
        assert_eq!(itv(-1, 1).mul(Interval::TOP), Interval::TOP);
        // Zero annihilates even ⊤.
        assert_eq!(
            Interval::constant(0).mul(Interval::TOP),
            Interval::constant(0)
        );
    }

    #[test]
    fn div_constant_divisor_interval_result() {
        assert_eq!(
            itv(1, 7).div_like(OpKind::Div, Interval::constant(2)),
            itv(0, 3)
        );
        assert_eq!(
            itv(-7, 7).div_like(OpKind::Div, Interval::constant(2)),
            itv(-3, 3)
        );
        assert_eq!(
            itv(1, 7).div_like(OpKind::Div, Interval::constant(-2)),
            itv(-3, 0)
        );
        // Half-bounded dividends keep their finite side.
        let nonneg = Interval {
            lo: Some(4),
            hi: None,
        };
        assert_eq!(
            nonneg.div_like(OpKind::Div, Interval::constant(3)),
            Interval {
                lo: Some(1),
                hi: None
            }
        );
        // Zero or interval divisors stay ⊤.
        assert_eq!(
            itv(1, 7).div_like(OpKind::Div, Interval::constant(0)),
            Interval::TOP
        );
        assert_eq!(itv(1, 7).div_like(OpKind::Div, itv(1, 2)), Interval::TOP);
    }

    #[test]
    fn mod_constant_divisor_bounds() {
        assert_eq!(
            itv(0, 100).div_like(OpKind::Mod, Interval::constant(5)),
            itv(0, 4)
        );
        assert_eq!(
            itv(-100, -1).div_like(OpKind::Mod, Interval::constant(5)),
            itv(-4, 0)
        );
        assert_eq!(
            Interval::TOP.div_like(OpKind::Mod, Interval::constant(-5)),
            itv(-4, 4)
        );
        // A dividend tighter than the divisor keeps its own bounds.
        assert_eq!(
            itv(1, 2).div_like(OpKind::Mod, Interval::constant(5)),
            itv(1, 2)
        );
        assert_eq!(
            Interval::constant(7).div_like(OpKind::Mod, Interval::constant(2)),
            Interval::constant(1)
        );
    }

    #[test]
    fn narrow_strict_comparisons_tighten_by_one() {
        let c = Interval::constant(3);
        assert_eq!(
            Interval::narrow(Rel::Lt, c),
            Some(Interval {
                lo: None,
                hi: Some(2)
            })
        );
        assert_eq!(
            Interval::narrow(Rel::Le, c),
            Some(Interval {
                lo: None,
                hi: Some(3)
            })
        );
        assert_eq!(
            Interval::narrow(Rel::Gt, c),
            Some(Interval {
                lo: Some(4),
                hi: None
            })
        );
        assert_eq!(
            Interval::narrow(Rel::Ge, c),
            Some(Interval {
                lo: Some(3),
                hi: None
            })
        );
        assert_eq!(Interval::narrow(Rel::Eq, c), Some(c));
        assert_eq!(Interval::narrow(Rel::Ne, c), None);
        // Unbounded sides give no constraint; extremes do not wrap.
        assert_eq!(Interval::narrow(Rel::Lt, Interval::TOP), None);
        assert_eq!(
            Interval::narrow(Rel::Lt, Interval::constant(i64::MIN)),
            None
        );
        assert_eq!(
            Interval::narrow(Rel::Gt, Interval::constant(i64::MAX)),
            None
        );
    }
}
