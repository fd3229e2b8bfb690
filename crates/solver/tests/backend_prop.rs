//! Property suite for the abstract-interpretation pre-solver: its
//! verdicts must never contradict DPLL(T), and routing queries through
//! the cascade must be observationally invisible.

use hotg_logic::{Atom, Formula, Rel, Signature, Sort, Term, Var};
use hotg_prop::prelude::*;
use hotg_solver::{AbstractBackend, PreVerdict, SmtConfig, SmtResult, SmtSolver, SolverBackend};

fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-10i64..=10).prop_map(Term::int),
        Just(Term::var(Var(0))),
        Just(Term::var(Var(1))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), -4i64..=4).prop_map(|(a, k)| a * Term::int(k)),
        ]
    })
}

fn arb_atom() -> impl Strategy<Value = Formula> {
    let rel = prop_oneof![
        Just(Rel::Eq),
        Just(Rel::Ne),
        Just(Rel::Lt),
        Just(Rel::Le),
        Just(Rel::Gt),
        Just(Rel::Ge),
    ];
    (arb_term(), rel, arb_term()).prop_map(|(l, r, t)| Formula::atom(Atom::new(l, r, t)))
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    arb_atom().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| Formula::Not(Box::new(a))),
        ]
    })
}

fn declare_vars() -> Signature {
    let mut sig = Signature::new();
    sig.declare_var("x", Sort::Int);
    sig.declare_var("y", Sort::Int);
    sig
}

fn plain_solver() -> SmtSolver {
    SmtSolver::with_config(SmtConfig {
        pre_solve: false,
        ..SmtConfig::new()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Soundness against the reference solver: an abstract `Unsat` is
    /// confirmed by cascade-free DPLL(T), and an abstract `Valid` means
    /// the negation is refuted (hence the formula is satisfiable).
    #[test]
    fn abstract_verdicts_never_contradict_dpll(f in arb_formula()) {
        let _sig = declare_vars();
        let g = f.nnf();
        match AbstractBackend.pre_check(&g, true) {
            PreVerdict::Unsat => {
                prop_assert_eq!(
                    plain_solver().check(&g).expect("linear formula"),
                    SmtResult::Unsat,
                    "abstract Unsat but DPLL(T) disagrees"
                );
            }
            PreVerdict::Valid => {
                prop_assert_eq!(
                    plain_solver().check(&g.negate()).expect("linear formula"),
                    SmtResult::Unsat,
                    "abstract Valid but the negation has a model"
                );
                prop_assert!(
                    plain_solver().check(&g).expect("linear formula").is_sat(),
                    "abstract Valid but the formula has no model"
                );
            }
            PreVerdict::Unknown => {}
        }
    }

    /// Cascade transparency: for every query, a cascade-enabled solver
    /// and a cascade-free solver return bit-identical `SmtResult`s
    /// (models included), and their verdict-only answers agree.
    #[test]
    fn cascade_answers_are_bit_identical(f in arb_formula()) {
        let _sig = declare_vars();
        let with = SmtSolver::new().check(&f).expect("linear formula");
        let without = plain_solver().check(&f).expect("linear formula");
        prop_assert_eq!(&with, &without, "cascade changed a check() answer");
        let v_with = SmtSolver::new().verdict(&f).expect("linear formula");
        let v_without = plain_solver().verdict(&f).expect("linear formula");
        prop_assert_eq!(v_with, v_without, "cascade changed a verdict() answer");
        prop_assert_eq!(v_with, with.verdict(), "verdict() drifted from check()");
    }
}
