//! Property tests for the logic layer: field axioms of `Rat` and the
//! evaluation/substitution laws of terms and formulas.

use hotg_logic::{
    Atom, Formula, InternedFormula, LogicArena, Model, Rat, Rel, Signature, Sort, Term, Value, Var,
};
use hotg_prop::prelude::*;

fn arb_rat() -> impl Strategy<Value = Rat> {
    (-1000i64..=1000, 1i64..=60).prop_map(|(n, d)| Rat::new(n as i128, d as i128))
}

proptest! {
    #[test]
    fn rat_add_commutative(a in arb_rat(), b in arb_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rat_add_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn rat_mul_distributes(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rat_additive_inverse(a in arb_rat()) {
        prop_assert_eq!(a + (-a), Rat::ZERO);
        prop_assert_eq!(a - a, Rat::ZERO);
    }

    #[test]
    fn rat_mul_inverse(a in arb_rat()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.recip(), Rat::ONE);
        }
    }

    #[test]
    fn rat_floor_ceil_adjacent(a in arb_rat()) {
        let f = a.floor();
        let c = a.ceil();
        prop_assert!(Rat::from(f) <= a);
        prop_assert!(a <= Rat::from(c));
        prop_assert!(c - f <= 1);
        if a.is_integer() {
            prop_assert_eq!(f, c);
        }
    }

    #[test]
    fn rat_order_total(a in arb_rat(), b in arb_rat()) {
        let lt = a < b;
        let gt = a > b;
        let eq = a == b;
        prop_assert_eq!([lt, gt, eq].iter().filter(|x| **x).count(), 1);
    }
}

/// The normalized `num / den` by the textbook definition (sign on the
/// numerator, gcd divided out), as a `(numer, denom)` pair. The reference
/// for the fast paths of `Rat`'s operators.
fn normalized(num: i128, den: i128) -> (i128, i128) {
    fn gcd(a: i128, b: i128) -> i128 {
        if b == 0 {
            a.abs()
        } else {
            gcd(b, a % b)
        }
    }
    let g = gcd(num, den) * den.signum();
    (num / g, den / g)
}

fn parts(r: Rat) -> (i128, i128) {
    (r.numer(), r.denom())
}

/// A denominator shared by both operands: a prime, so a numerator that is
/// not a multiple of it keeps it after normalization.
const PRIMES: [i128; 6] = [2, 3, 5, 7, 11, 13];

/// Operand pairs in the three shapes `Rat`'s operators distinguish:
/// two integers, two fractions over the same denominator, and a general
/// pair (integer/fraction mixes and unequal denominators included).
fn arb_pair() -> impl Strategy<Value = (Rat, Rat)> {
    let int = -100_000i64..=100_000;
    prop_oneof![
        (int.clone(), int.clone()).prop_map(|(a, b)| (Rat::from(a), Rat::from(b))),
        (
            -1000i64..=1000,
            -1000i64..=1000,
            0usize..6,
            1i64..=12,
            1i64..=12
        )
            .prop_map(|(a, b, p, ra, rb)| {
                // k·d + r with 0 < r < d: never a multiple of d.
                let d = PRIMES[p];
                let frac =
                    |k: i64, r: i64| Rat::new(i128::from(k) * d + i128::from(r) % (d - 1) + 1, d);
                (frac(a, ra), frac(b, rb))
            }),
        (arb_rat(), arb_rat()),
        (int, arb_rat()).prop_map(|(a, b)| (Rat::from(a), b)),
    ]
}

proptest! {
    /// `+` and `-` equal the cross-multiplied sum, normalized.
    #[test]
    fn rat_add_sub_match_general_path(pair in arb_pair()) {
        let (a, b) = pair;
        let (an, ad, bn, bd) = (a.numer(), a.denom(), b.numer(), b.denom());
        prop_assert_eq!(parts(a + b), normalized(an * bd + bn * ad, ad * bd));
        prop_assert_eq!(parts(a - b), normalized(an * bd - bn * ad, ad * bd));
        let mut acc = a;
        acc += b;
        prop_assert_eq!(acc, a + b);
    }

    /// `*` equals the plain product, normalized.
    #[test]
    fn rat_mul_matches_general_path(pair in arb_pair()) {
        let (a, b) = pair;
        let expected = normalized(a.numer() * b.numer(), a.denom() * b.denom());
        prop_assert_eq!(parts(a * b), expected);
        prop_assert_eq!(parts(b * a), expected);
    }

    /// `cmp` agrees with comparing the cross products.
    #[test]
    fn rat_cmp_matches_general_path(pair in arb_pair()) {
        let (a, b) = pair;
        let expected = (a.numer() * b.denom()).cmp(&(b.numer() * a.denom()));
        prop_assert_eq!(a.cmp(&b), expected);
        prop_assert_eq!(b.cmp(&a), expected.reverse());
        prop_assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}

/// Operand pairs whose sum or product leaves `i128`, in each operator
/// shape: integers, equal denominators, unequal denominators.
fn overflowing_pairs() -> [(Rat, Rat); 3] {
    let pairs = [
        (Rat::from(i128::MAX), Rat::from(i128::MAX)),
        (Rat::new(i128::MAX, 7), Rat::new(i128::MAX - 2, 7)),
        (Rat::new(i128::MAX, 7), Rat::new(i128::MAX, 11)),
    ];
    let dens = pairs.map(|(a, b)| (a.denom(), b.denom()));
    assert_eq!(dens, [(1, 1), (7, 7), (7, 11)], "operand shapes");
    pairs
}

#[test]
fn rat_add_overflow_panics_in_every_shape() {
    for (a, b) in overflowing_pairs() {
        let err = std::panic::catch_unwind(|| a + b).expect_err("sum overflows");
        let msg = err.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("rational overflow in addition"), "{a:?} + {b:?}");
    }
}

#[test]
fn rat_mul_overflow_panics_in_every_shape() {
    for (a, b) in overflowing_pairs() {
        let err = std::panic::catch_unwind(|| a * b).expect_err("product overflows");
        let msg = err.downcast_ref::<String>().map(String::as_str);
        assert_eq!(
            msg,
            Some("rational overflow in multiplication"),
            "{a:?} * {b:?}"
        );
    }
}

/// Random linear terms over two variables (no UF applications, no
/// division).
fn arb_linear_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-50i64..=50).prop_map(Term::int),
        Just(Term::var(Var(0))),
        Just(Term::var(Var(1))),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), -6i64..=6).prop_map(|(a, k)| a * Term::int(k)),
            inner.prop_map(|a| -a),
        ]
    })
}

fn two_var_model(x: i64, y: i64) -> (Signature, Model) {
    let mut sig = Signature::new();
    let vx = sig.declare_var("x", Sort::Int);
    let vy = sig.declare_var("y", Sort::Int);
    let mut m = Model::new();
    m.set_var(vx, Value::Int(x));
    m.set_var(vy, Value::Int(y));
    (sig, m)
}

proptest! {
    /// Substituting a constant then evaluating equals evaluating with the
    /// variable bound to that constant.
    #[test]
    fn subst_eval_coherence(
        t in arb_linear_term(),
        x in -40i64..=40,
        y in -40i64..=40,
    ) {
        let (_sig, m) = two_var_model(x, y);
        let substituted = t.subst(&|v| (v == Var(0)).then(|| Term::int(x)));
        let (_sig2, m2) = two_var_model(999, y); // x binding must not matter
        if let (Some(a), Some(b)) = (substituted.eval(&m2), t.eval(&m)) {
            prop_assert_eq!(a, b);
        }
    }

    /// Atom negation flips evaluation.
    #[test]
    fn atom_negate_flips(
        l in arb_linear_term(),
        r in arb_linear_term(),
        x in -40i64..=40,
        y in -40i64..=40,
        rel_ix in 0usize..6,
    ) {
        let rel = [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][rel_ix];
        let (_sig, m) = two_var_model(x, y);
        let a = Atom::new(l, rel, r);
        if let Some(v) = a.eval(&m) {
            prop_assert_eq!(a.negate().eval(&m), Some(!v));
        }
    }

    /// Formula NNF preserves evaluation; double negation is identity.
    #[test]
    fn formula_nnf_preserves_eval(
        l in arb_linear_term(),
        r in arb_linear_term(),
        l2 in arb_linear_term(),
        r2 in arb_linear_term(),
        x in -40i64..=40,
        y in -40i64..=40,
    ) {
        let (_sig, m) = two_var_model(x, y);
        let f = Formula::atom(Atom::new(l, Rel::Lt, r))
            .and(Formula::Not(Box::new(Formula::atom(Atom::new(l2, Rel::Eq, r2)))));
        let g = Formula::Not(Box::new(f.clone()));
        if let Some(v) = f.eval(&m) {
            prop_assert_eq!(f.nnf().eval(&m), Some(v));
            prop_assert_eq!(g.eval(&m), Some(!v));
            prop_assert_eq!(g.negate().eval(&m), Some(v));
        }
    }
}

/// Random formulas over comparisons of linear terms — the shape the
/// concolic engine emits (conjunctions/disjunctions/negations of branch
/// atoms, including boolean units).
fn arb_formula() -> impl Strategy<Value = Formula> {
    let atom = (arb_linear_term(), arb_linear_term(), 0usize..6).prop_map(|(l, r, i)| {
        let rel = [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][i];
        Formula::atom(Atom::new(l, rel, r))
    });
    let leaf = prop_oneof![Just(Formula::True), Just(Formula::False), atom];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            collection::vec(inner.clone(), 0..4).prop_map(Formula::And),
            collection::vec(inner.clone(), 0..4).prop_map(Formula::Or),
            inner.prop_map(|f| Formula::Not(Box::new(f))),
        ]
    })
}

proptest! {
    /// Arena pointer-equality coincides with structural equality: two
    /// handles from one arena are the same allocation iff the formulas
    /// they intern are structurally equal.
    #[test]
    fn arena_pointer_eq_iff_structural_eq(a in arb_formula(), b in arb_formula()) {
        let arena = LogicArena::new();
        let ia = arena.intern(&a);
        let ib = arena.intern(&b);
        prop_assert_eq!(InternedFormula::ptr_eq(&ia, &ib), a == b);
        prop_assert_eq!(ia == ib, a == b);
        // Re-interning is identity.
        let ia2 = arena.intern(&a);
        prop_assert!(InternedFormula::ptr_eq(&ia, &ia2));
    }

    /// Memoized fingerprints equal freshly-computed `fingerprint()`, both
    /// for the interned formula and for its memoized normal form.
    #[test]
    fn arena_fingerprints_match_fresh(a in arb_formula()) {
        let arena = LogicArena::new();
        let i = arena.intern(&a);
        prop_assert_eq!(i.fingerprint(), a.fingerprint());
        let (norm, nfp) = arena.normal(&a);
        prop_assert_eq!(nfp, norm.fingerprint());
    }

    /// The memoized solver pre-pass returns exactly the unmemoized
    /// `nnf().normalize()`; `normalize` is idempotent on the result and
    /// preserves evaluation semantics.
    #[test]
    fn arena_normal_idempotent_and_semantics_preserving(
        a in arb_formula(),
        x in -40i64..=40,
        y in -40i64..=40,
    ) {
        let arena = LogicArena::new();
        let (norm, _) = arena.normal(&a);
        prop_assert_eq!(&*norm, &a.nnf().normalize());
        prop_assert_eq!(&norm.normalize(), &*norm);
        let (_sig, m) = two_var_model(x, y);
        if let Some(v) = a.eval(&m) {
            prop_assert_eq!(norm.eval(&m), Some(v));
        }
    }
}
