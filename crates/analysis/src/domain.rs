//! Abstract domains for the `mini` analyses: taint sets over flat input
//! indices, integer intervals with widening, and three-valued truth.
//!
//! The interval and constancy lattices live in `hotg-logic`
//! ([`hotg_logic::Interval`], [`hotg_logic::Constancy`]); this module
//! re-exports them and adds the source-level pieces: taint, abstract
//! scalars, and the [`BinOp`] → [`Rel`]/[`OpKind`] adapters the fixpoint
//! engine narrows through.

pub use hotg_logic::{Constancy, Interval};

use hotg_lang::BinOp;
use hotg_logic::{OpKind, Rel};
use std::collections::BTreeSet;

/// Taint: the set of flat input indices an abstract value may depend on.
///
/// Flat indices follow the concolic flattening (parameter order, array
/// parameters contributing one index per element), so taint sets are
/// directly comparable with the free symbolic variables of a dynamic
/// path-constraint formula.
pub type Taint = BTreeSet<usize>;

/// The logic relation of a `mini` comparison operator.
///
/// # Panics
///
/// Panics if `op` is not a comparison.
pub fn rel_of(op: BinOp) -> Rel {
    match op {
        BinOp::Eq => Rel::Eq,
        BinOp::Ne => Rel::Ne,
        BinOp::Lt => Rel::Lt,
        BinOp::Le => Rel::Le,
        BinOp::Gt => Rel::Gt,
        BinOp::Ge => Rel::Ge,
        other => panic!("operator {other:?} is not a comparison"),
    }
}

/// The term operator of a `mini` division-like operator.
///
/// # Panics
///
/// Panics if `op` is not `/` or `%`.
pub fn div_kind_of(op: BinOp) -> OpKind {
    match op {
        BinOp::Div => OpKind::Div,
        BinOp::Mod => OpKind::Mod,
        other => panic!("operator {other:?} is not division-like"),
    }
}

/// An abstract scalar: taint set plus value interval. The taint set is
/// *syntactic* — it over-approximates the free input variables of the
/// symbolic term the concolic executor would build for the same
/// expression, not merely value dependence (so `0 * x` is tainted by `x`
/// even though its value is always 0).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct AbsVal {
    /// Flat input indices this value may (syntactically) depend on.
    pub taint: Taint,
    /// Value bounds.
    pub itv: Interval,
}

impl AbsVal {
    /// The untainted constant `v`.
    pub fn constant(v: i64) -> AbsVal {
        AbsVal {
            taint: Taint::new(),
            itv: Interval::constant(v),
        }
    }

    /// Fully unknown value with the given taint.
    pub fn tainted(taint: Taint) -> AbsVal {
        AbsVal {
            taint,
            itv: Interval::TOP,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            taint: self.taint.union(&other.taint).copied().collect(),
            itv: self.itv.join(other.itv),
        }
    }

    /// Widening (taints join — they form a finite lattice — and
    /// intervals widen).
    pub fn widen(&self, next: &AbsVal) -> AbsVal {
        AbsVal {
            taint: self.taint.union(&next.taint).copied().collect(),
            itv: self.itv.widen(next.itv),
        }
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
    fn constancy_algebra() {
        use Constancy::*;
        assert_eq!(AlwaysTrue.join(AlwaysTrue), AlwaysTrue);
        assert_eq!(AlwaysTrue.join(AlwaysFalse), Unknown);
        assert_eq!(AlwaysTrue.not(), AlwaysFalse);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(AlwaysFalse.and(Unknown), AlwaysFalse);
        assert_eq!(AlwaysTrue.or(Unknown), AlwaysTrue);
        assert_eq!(Unknown.and(AlwaysTrue), Unknown);
    }

    #[test]
    fn interval_arith() {
        let a = itv(1, 3);
        let b = itv(10, 20);
        assert_eq!(a.add(b), itv(11, 23));
        assert_eq!(b.sub(a), itv(7, 19));
        assert_eq!(a.neg(), itv(-3, -1));
        assert_eq!(a.mul(b), itv(10, 60));
        assert_eq!(itv(-2, 3).mul(itv(5, 7)), itv(-14, 21));
        assert_eq!(
            Interval::constant(0).mul(Interval::TOP),
            Interval::constant(0)
        );
        assert_eq!(Interval::TOP.add(a), Interval::TOP);
        // Potential overflow goes unbounded, not wrapped.
        let big = Interval::constant(i64::MAX);
        assert_eq!(big.add(Interval::constant(1)).hi, None);
    }

    #[test]
    fn interval_mul_general_sign_cases() {
        // One unbounded side no longer collapses to ⊤: the finite corner
        // survives on the correct side.
        let nonneg = Interval {
            lo: Some(0),
            hi: None,
        };
        assert_eq!(nonneg.mul(itv(2, 3)), nonneg);
        assert_eq!(
            nonneg.mul(itv(-3, -2)),
            Interval {
                lo: None,
                hi: Some(0)
            }
        );
        let upper = Interval {
            lo: None,
            hi: Some(4),
        };
        assert_eq!(
            upper.mul(Interval::constant(-1)),
            Interval {
                lo: Some(-4),
                hi: None
            }
        );
        // Mixed signs against ⊤ stay ⊤.
        assert_eq!(itv(-1, 1).mul(Interval::TOP), Interval::TOP);
    }

    #[test]
    fn interval_div_like() {
        assert_eq!(
            Interval::constant(7).div_like(div_kind_of(BinOp::Div), Interval::constant(2)),
            Interval::constant(3)
        );
        assert_eq!(
            Interval::constant(7).div_like(div_kind_of(BinOp::Mod), Interval::constant(2)),
            Interval::constant(1)
        );
        assert_eq!(
            Interval::constant(7).div_like(div_kind_of(BinOp::Div), Interval::constant(0)),
            Interval::TOP
        );
        // Constant divisors now divide interval dividends bound-by-bound.
        assert_eq!(
            itv(1, 2).div_like(div_kind_of(BinOp::Div), Interval::constant(2)),
            itv(0, 1)
        );
        assert_eq!(
            itv(-9, 9).div_like(div_kind_of(BinOp::Div), Interval::constant(-3)),
            itv(-3, 3)
        );
        // Remainder by a constant is bounded by the divisor's magnitude
        // and the dividend's sign.
        assert_eq!(
            itv(0, 100).div_like(div_kind_of(BinOp::Mod), Interval::constant(7)),
            itv(0, 6)
        );
        assert_eq!(
            Interval::TOP.div_like(div_kind_of(BinOp::Mod), Interval::constant(7)),
            itv(-6, 6)
        );
        // Interval divisors are still ⊤.
        assert_eq!(
            itv(1, 2).div_like(div_kind_of(BinOp::Div), itv(1, 2)),
            Interval::TOP
        );
    }

    #[test]
    fn interval_compare() {
        use Constancy::*;
        let lo = itv(0, 5);
        let hi = itv(6, 9);
        assert_eq!(Interval::compare(rel_of(BinOp::Lt), lo, hi), AlwaysTrue);
        assert_eq!(Interval::compare(rel_of(BinOp::Ge), lo, hi), AlwaysFalse);
        assert_eq!(Interval::compare(rel_of(BinOp::Eq), lo, hi), AlwaysFalse);
        assert_eq!(Interval::compare(rel_of(BinOp::Ne), lo, hi), AlwaysTrue);
        assert_eq!(
            Interval::compare(
                rel_of(BinOp::Eq),
                Interval::constant(4),
                Interval::constant(4)
            ),
            AlwaysTrue
        );
        assert_eq!(Interval::compare(rel_of(BinOp::Lt), lo, itv(5, 9)), Unknown);
        assert_eq!(
            Interval::compare(rel_of(BinOp::Le), lo, itv(5, 9)),
            AlwaysTrue
        );
        assert_eq!(
            Interval::compare(rel_of(BinOp::Gt), Interval::TOP, lo),
            Unknown
        );
    }

    #[test]
    fn narrow_matches_refinement_semantics() {
        // `x < 3` narrows to hi = 2, not hi = 3: the strict off-by-one
        // over the integers.
        let bound = Interval::constant(3);
        let x = itv(0, 10);
        let narrowed = x
            .intersect(Interval::narrow(rel_of(BinOp::Lt), bound).unwrap())
            .unwrap();
        assert_eq!(narrowed, itv(0, 2));
        let narrowed = x
            .intersect(Interval::narrow(rel_of(BinOp::Gt), bound).unwrap())
            .unwrap();
        assert_eq!(narrowed, itv(4, 10));
        assert_eq!(Interval::narrow(rel_of(BinOp::Ne), bound), None);
    }

    #[test]
    fn interval_join_widen_intersect() {
        let a = itv(1, 3);
        let b = itv(5, 7);
        assert_eq!(a.join(b), itv(1, 7));
        assert_eq!(
            a.widen(itv(1, 9)),
            Interval {
                lo: Some(1),
                hi: None
            }
        );
        assert_eq!(
            a.widen(itv(0, 3)),
            Interval {
                lo: None,
                hi: Some(3)
            }
        );
        assert_eq!(a.intersect(b), None);
        assert_eq!(a.intersect(itv(2, 9)), Some(itv(2, 3)));
        assert_eq!(Interval::TOP.intersect(a), Some(a));
    }

    #[test]
    fn absval_ops() {
        let x = AbsVal {
            taint: [0].into(),
            itv: itv(1, 2),
        };
        let y = AbsVal {
            taint: [1].into(),
            itv: itv(5, 6),
        };
        let j = x.join(&y);
        assert_eq!(j.taint, [0, 1].into());
        assert_eq!(j.itv, itv(1, 6));
        assert_eq!(AbsVal::constant(4).itv.as_const(), Some(4));
    }
}
