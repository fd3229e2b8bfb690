//! Canonicalization of logic [`Atom`]s into integer-normalized theory
//! primitives.
//!
//! Every atom over the theory `T ∪ T_EUF` reduces to one of two primitive
//! shapes over integer linear expressions (uninterpreted applications are
//! opaque [`hotg_logic::LinKey`]s):
//!
//! * `Eq`: `Σ aᵢ·kᵢ + c  = 0` (gcd-reduced, sign-normalized), or
//! * `Le`: `Σ aᵢ·kᵢ + c ≤ 0` (gcd-reduced with integer tightening).
//!
//! Strict inequalities are tightened away (`e < 0 ⇔ e + 1 ≤ 0` over the
//! integers), so the LIA backend only ever sees non-strict constraints.
//! Disequalities become negated `Eq` primitives, which the SMT layer
//! handles with an eager case split.

use crate::lia::{ConKind, IntConstraint};
use hotg_logic::{Atom, LinConstraint, NonLinearError, Rat, Rel};

/// A primitive theory atom, in canonical form suitable for hashing.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prim(pub IntConstraint);

/// Result of normalizing an atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NormAtom {
    /// The atom is constant.
    Const(bool),
    /// The atom is equivalent to `prim` (if `positive`) or `¬prim`.
    Prim {
        /// The canonical primitive.
        prim: Prim,
        /// Polarity of the equivalence.
        positive: bool,
    },
}

fn gcd128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn floor_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    if a >= 0 {
        a / b
    } else {
        -((-a + b - 1) / b)
    }
}

/// Converts a rational-coefficient linear constraint to integer
/// coefficients by clearing denominators.
fn integerize(con: &LinConstraint) -> (Vec<(hotg_logic::LinKey, i128)>, i128, Rel) {
    // lcm of all denominators.
    let mut l: i128 = con.expr.constant().denom();
    for (_, c) in con.expr.coeffs() {
        let d = c.denom();
        l = l / gcd128(l, d) * d;
    }
    let scale = Rat::from(l);
    let coeffs: Vec<_> = con
        .expr
        .coeffs()
        .map(|(k, c)| {
            let s = c * scale;
            debug_assert!(s.is_integer());
            (k.clone(), s.numer())
        })
        .collect();
    let constant = (con.expr.constant() * scale).numer();
    (coeffs, constant, con.rel)
}

/// Builds the canonical `Le` primitive for `Σ coeffs + constant ≤ 0`.
fn canon_le(mut coeffs: Vec<(hotg_logic::LinKey, i128)>, constant: i128) -> NormAtom {
    coeffs.retain(|(_, c)| *c != 0);
    coeffs.sort();
    if coeffs.is_empty() {
        return NormAtom::Const(constant <= 0);
    }
    let g = coeffs.iter().fold(0i128, |acc, (_, c)| gcd128(acc, *c));
    // Σ a·k ≤ -c  ⇒  Σ (a/g)·k ≤ floor(-c/g).
    let bound = floor_div(-constant, g);
    let coeffs = coeffs.into_iter().map(|(k, c)| (k, c / g)).collect();
    NormAtom::Prim {
        prim: Prim(IntConstraint {
            coeffs,
            constant: -bound,
            kind: ConKind::Le,
        }),
        positive: true,
    }
}

/// Builds the canonical `Eq` primitive for `Σ coeffs + constant = 0`,
/// with `positive` tracking the requested polarity.
fn canon_eq(
    mut coeffs: Vec<(hotg_logic::LinKey, i128)>,
    constant: i128,
    positive: bool,
) -> NormAtom {
    coeffs.retain(|(_, c)| *c != 0);
    coeffs.sort();
    if coeffs.is_empty() {
        return NormAtom::Const((constant == 0) == positive);
    }
    let g = coeffs.iter().fold(0i128, |acc, (_, c)| gcd128(acc, *c));
    if constant % g != 0 {
        // gcd ∤ c: the equality is integer-infeasible.
        return NormAtom::Const(!positive);
    }
    let mut coeffs: Vec<_> = coeffs.into_iter().map(|(k, c)| (k, c / g)).collect();
    let mut constant = constant / g;
    // Sign normalization: first coefficient positive.
    if coeffs[0].1 < 0 {
        for (_, c) in &mut coeffs {
            *c = -*c;
        }
        constant = -constant;
    }
    NormAtom::Prim {
        prim: Prim(IntConstraint {
            coeffs,
            constant,
            kind: ConKind::Eq,
        }),
        positive,
    }
}

/// Normalizes an atom into a canonical primitive (or a constant).
///
/// # Errors
///
/// Returns [`NonLinearError`] if either side is outside the linear theory.
pub fn normalize(atom: &Atom) -> Result<NormAtom, NonLinearError> {
    let con = LinConstraint::from_atom(atom)?;
    let (coeffs, constant, rel) = integerize(&con);
    Ok(match rel {
        Rel::Eq => canon_eq(coeffs, constant, true),
        Rel::Ne => canon_eq(coeffs, constant, false),
        Rel::Le => canon_le(coeffs, constant),
        Rel::Lt => canon_le(coeffs, constant + 1),
        Rel::Ge => canon_le(
            coeffs.into_iter().map(|(k, c)| (k, -c)).collect(),
            -constant,
        ),
        Rel::Gt => canon_le(
            coeffs.into_iter().map(|(k, c)| (k, -c)).collect(),
            -constant + 1,
        ),
    })
}

/// The constraint asserted when a `Le` primitive is assigned *false*:
/// `¬(e ≤ 0) ⇔ -e + 1 ≤ 0` over the integers.
pub fn negate_le<K: Clone>(con: &IntConstraint<K>) -> IntConstraint<K> {
    debug_assert_eq!(con.kind, ConKind::Le);
    IntConstraint {
        coeffs: con.coeffs.iter().map(|(k, c)| (k.clone(), -c)).collect(),
        constant: -con.constant + 1,
        kind: ConKind::Le,
    }
}

/// The strict-side `Le` primitives of an `Eq` primitive `e = 0`:
/// returns (`e + 1 ≤ 0`, i.e. `e < 0`) and (`-e + 1 ≤ 0`, i.e. `e > 0`).
pub fn eq_split<K: Clone>(con: &IntConstraint<K>) -> (IntConstraint<K>, IntConstraint<K>) {
    debug_assert_eq!(con.kind, ConKind::Eq);
    let lt = IntConstraint {
        coeffs: con.coeffs.clone(),
        constant: con.constant + 1,
        kind: ConKind::Le,
    };
    let gt = IntConstraint {
        coeffs: con.coeffs.iter().map(|(k, c)| (k.clone(), -c)).collect(),
        constant: -con.constant + 1,
        kind: ConKind::Le,
    };
    (lt, gt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::{LinKey, Signature, Sort, Term, Var};

    fn setup() -> (Signature, Var, Var) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        (sig, x, y)
    }

    fn prim_of(n: NormAtom) -> (IntConstraint, bool) {
        match n {
            NormAtom::Prim { prim, positive } => (prim.0, positive),
            other => panic!("expected Prim, got {other:?}"),
        }
    }

    #[test]
    fn eq_canonical_sign() {
        let (_, x, y) = setup();
        // -x + y = 0 and x - y = 0 share a canonical form.
        let a = Atom::eq(Term::var(y), Term::var(x));
        let b = Atom::eq(Term::var(x), Term::var(y));
        let (pa, sa) = prim_of(normalize(&a).unwrap());
        let (pb, sb) = prim_of(normalize(&b).unwrap());
        assert_eq!(pa, pb);
        assert!(sa && sb);
        assert_eq!(pa.kind, ConKind::Eq);
    }

    #[test]
    fn eq_gcd_reduction() {
        let (_, x, _) = setup();
        // 2x = 4 → x - 2 = 0.
        let a = Atom::eq(Term::int(2) * Term::var(x), Term::int(4));
        let (p, _) = prim_of(normalize(&a).unwrap());
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), 1)]);
        assert_eq!(p.constant, -2);
    }

    #[test]
    fn eq_gcd_infeasible_is_const() {
        let (_, x, y) = setup();
        // 2x - 2y = 1 is integer-infeasible → Const(false).
        let a = Atom::eq(
            Term::int(2) * Term::var(x) - Term::int(2) * Term::var(y),
            Term::int(1),
        );
        assert_eq!(normalize(&a).unwrap(), NormAtom::Const(false));
        // And its negation is constantly true.
        assert_eq!(normalize(&a.negate()).unwrap(), NormAtom::Const(true));
    }

    #[test]
    fn ne_is_negative_eq() {
        let (_, x, _) = setup();
        let eq = Atom::eq(Term::var(x), Term::int(5));
        let ne = Atom::ne(Term::var(x), Term::int(5));
        let (pe, se) = prim_of(normalize(&eq).unwrap());
        let (pn, sn) = prim_of(normalize(&ne).unwrap());
        assert_eq!(pe, pn);
        assert!(se);
        assert!(!sn);
    }

    #[test]
    fn strict_tightening() {
        let (_, x, _) = setup();
        // x < 5  ⇔  x ≤ 4  ⇔  x - 4 ≤ 0.
        let a = Atom::new(Term::var(x), Rel::Lt, Term::int(5));
        let (p, pos) = prim_of(normalize(&a).unwrap());
        assert!(pos);
        assert_eq!(p.kind, ConKind::Le);
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), 1)]);
        assert_eq!(p.constant, -4);
    }

    #[test]
    fn gt_maps_to_le() {
        let (_, x, _) = setup();
        // x > 3  ⇔  -x + 4 ≤ 0.
        let a = Atom::new(Term::var(x), Rel::Gt, Term::int(3));
        let (p, pos) = prim_of(normalize(&a).unwrap());
        assert!(pos);
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), -1)]);
        assert_eq!(p.constant, 4);
    }

    #[test]
    fn ge_maps_to_le() {
        let (_, x, _) = setup();
        // x ≥ 3  ⇔  -x + 3 ≤ 0.
        let a = Atom::new(Term::var(x), Rel::Ge, Term::int(3));
        let (p, _) = prim_of(normalize(&a).unwrap());
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), -1)]);
        assert_eq!(p.constant, 3);
    }

    #[test]
    fn le_gcd_tightening() {
        let (_, x, _) = setup();
        // 2x ≤ 5  ⇔  x ≤ 2  ⇔ x - 2 ≤ 0.
        let a = Atom::new(Term::int(2) * Term::var(x), Rel::Le, Term::int(5));
        let (p, _) = prim_of(normalize(&a).unwrap());
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), 1)]);
        assert_eq!(p.constant, -2);
    }

    #[test]
    fn constant_atoms() {
        assert_eq!(
            normalize(&Atom::new(Term::int(1), Rel::Lt, Term::int(2))).unwrap(),
            NormAtom::Const(true)
        );
        assert_eq!(
            normalize(&Atom::eq(Term::int(1), Term::int(2))).unwrap(),
            NormAtom::Const(false)
        );
    }

    #[test]
    fn nonlinear_is_error() {
        let (_, x, y) = setup();
        let a = Atom::eq(Term::var(x) * Term::var(y), Term::int(1));
        assert!(normalize(&a).is_err());
    }

    #[test]
    fn negate_le_roundtrip() {
        let (_, x, _) = setup();
        // x ≤ 4; negation: x ≥ 5 i.e. -x + 5 ≤ 0.
        let a = Atom::new(Term::var(x), Rel::Le, Term::int(4));
        let (p, _) = prim_of(normalize(&a).unwrap());
        let n = negate_le(&p);
        assert_eq!(n.coeffs, vec![(LinKey::Var(x), -1)]);
        assert_eq!(n.constant, 5);
        // Semantics: exactly one of p, n holds for each x.
        for v in -10..10i64 {
            let mut m = std::collections::BTreeMap::new();
            m.insert(LinKey::Var(x), v);
            assert_ne!(p.eval(&m).unwrap(), n.eval(&m).unwrap());
        }
    }

    #[test]
    fn eq_split_semantics() {
        let (_, x, _) = setup();
        let a = Atom::eq(Term::var(x), Term::int(3));
        let (p, _) = prim_of(normalize(&a).unwrap());
        let (lt, gt) = eq_split(&p);
        for v in -10..10i64 {
            let mut m = std::collections::BTreeMap::new();
            m.insert(LinKey::Var(x), v);
            let eq_holds = p.eval(&m).unwrap();
            let lt_holds = lt.eval(&m).unwrap();
            let gt_holds = gt.eval(&m).unwrap();
            // Trichotomy.
            assert_eq!(
                [eq_holds, lt_holds, gt_holds]
                    .iter()
                    .filter(|b| **b)
                    .count(),
                1,
                "x = {v}"
            );
        }
    }

    #[test]
    fn app_keys_preserved() {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let h = sig.declare_func("h", 1);
        let app = Term::app(h, vec![Term::var(x)]);
        let a = Atom::eq(app.clone(), Term::int(567));
        let (p, pos) = prim_of(normalize(&a).unwrap());
        assert!(pos);
        assert_eq!(p.coeffs, vec![(LinKey::App(app), 1)]);
        assert_eq!(p.constant, -567);
    }
}
