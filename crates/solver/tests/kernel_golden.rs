//! Bit-identity pin for the exact-arithmetic theory kernel.
//!
//! A seeded stream of random inputs is fed through the three layers of
//! the kernel — the rational [`Simplex`] tableau, integer
//! branch-and-bound ([`solve_int`] / [`solve_int_budgeted`]) and
//! Ackermannized [`SmtSolver::check`] queries — and every answer is
//! folded into one FNV digest: each simplex assignment and explanation,
//! each LIA model, core and `Unknown`, each SMT model. The campaign
//! reports (and the 504 golden parity digests) depend on *which* model
//! the kernel returns, not just on whether it is correct, so any change
//! to pivot order, branching order, core extraction or the exact values
//! moves this digest. Data-structure changes and exact-arithmetic
//! shortcuts must not.
//!
//! After an *intentional* change to the kernel's search (which also
//! re-blesses the parity goldens), replace [`EXPECTED`] with the digest
//! this test prints.

use hotg_logic::{Atom, Formula, FuncSym, LinKey, Rat, Rel, Signature, Sort, StableHasher, Term};
use hotg_prop::TestRng;
use hotg_solver::atoms::eq_split;
use hotg_solver::lia::{
    solve_int, solve_int_budgeted, ConKind, IntConstraint, LiaConfig, LiaResult,
};
use hotg_solver::simplex::{BoundKind, Simplex, SimplexResult};
use hotg_solver::{SmtConfig, SmtResult, SmtSolver};
use std::hash::Hasher;

/// Digest of the whole stream, recorded before the kernel's data
/// structures were last reworked.
const EXPECTED: u64 = 0xd42a_6c33_4dd9_54f5;

const SIMPLEX_CASES: usize = 150;
const LIA_CASES: usize = 300;
const SMT_CASES: usize = 150;

/// Outcome tally: the stream must exercise every kind of answer, or a
/// matching digest would pin less than it claims.
#[derive(Debug, Default)]
struct Tally {
    simplex_sat: u32,
    simplex_unsat: u32,
    lia_sat: u32,
    lia_core: u32,
    lia_no_core: u32,
    lia_unknown: u32,
    smt_sat: u32,
    smt_unsat: u32,
    smt_unknown: u32,
}

fn fold(h: &mut StableHasher, line: &str) {
    h.write(line.as_bytes());
    h.write_u8(b'\n');
}

/// A random tableau: a few variables, rows over variables *and earlier
/// slacks* (so `add_row` substitutes basic variables), tagged and
/// untagged bounds, and a second `check` after one more bound.
fn simplex_case(rng: &mut TestRng, h: &mut StableHasher, tally: &mut Tally) {
    let mut s = Simplex::new();
    let n = 2 + rng.below(4) as usize;
    let mut vars: Vec<usize> = (0..n).map(|_| s.new_var()).collect();
    let mut tag = 0u32;
    let assert_random = |s: &mut Simplex, rng: &mut TestRng, v: usize, tag: &mut u32| {
        let kind = if rng.below(2) == 0 {
            BoundKind::Lower
        } else {
            BoundKind::Upper
        };
        let c = Rat::new(rng.in_span(-40, 40), 1 + rng.in_span(0, 2));
        let t = if rng.below(5) == 0 {
            None
        } else {
            *tag += 1;
            Some(*tag)
        };
        s.assert_bound(v, kind, c, t)
    };
    let rows = 1 + rng.below(5) as usize;
    for _ in 0..rows {
        let len = 1 + rng.below(3) as usize;
        let mut terms = Vec::new();
        for _ in 0..len {
            let v = vars[rng.below(vars.len() as u64) as usize];
            let c = Rat::new(rng.in_span(-4, 4), 1 + rng.in_span(0, 1));
            terms.push((v, c));
        }
        let slack = s.add_row(&terms);
        vars.push(slack);
    }
    let bounds = 2 + rng.below(8);
    for _ in 0..bounds {
        let v = vars[rng.below(vars.len() as u64) as usize];
        if let Err(e) = assert_random(&mut s, rng, v, &mut tag) {
            fold(h, &format!("simplex bound-conflict {e:?}"));
            tally.simplex_unsat += 1;
            return;
        }
    }
    for round in 0..2 {
        match s.check() {
            SimplexResult::Sat(values) => {
                tally.simplex_sat += 1;
                fold(h, &format!("simplex sat {values:?}"));
            }
            SimplexResult::Unsat(e) => {
                tally.simplex_unsat += 1;
                fold(h, &format!("simplex unsat {e:?}"));
                return;
            }
        }
        if round == 0 {
            let v = vars[rng.below(vars.len() as u64) as usize];
            if let Err(e) = assert_random(&mut s, rng, v, &mut tag) {
                tally.simplex_unsat += 1;
                fold(h, &format!("simplex bound-conflict {e:?}"));
                return;
            }
        }
    }
}

/// The key universe of the LIA leg: plain variables and uninterpreted
/// applications (whose `LinKey` order compares whole terms).
fn lia_keys() -> Vec<LinKey> {
    let mut sig = Signature::new();
    let vars: Vec<_> = (0..5)
        .map(|i| sig.declare_var(format!("x{i}"), Sort::Int))
        .collect();
    let f = sig.declare_func("f", 1);
    let mut keys: Vec<LinKey> = vars.iter().map(|&v| LinKey::Var(v)).collect();
    keys.push(LinKey::App(Term::app(f, vec![Term::var(vars[0])])));
    keys.push(LinKey::App(Term::app(f, vec![Term::int(7)])));
    keys.push(LinKey::App(Term::app(
        f,
        vec![Term::var(vars[1]) + Term::int(1)],
    )));
    keys
}

fn random_constraint(rng: &mut TestRng, keys: &[LinKey]) -> IntConstraint {
    let len = 1 + rng.below(4) as usize;
    let mut coeffs: Vec<(LinKey, i128)> = Vec::new();
    for _ in 0..len {
        let k = keys[rng.below(keys.len() as u64) as usize].clone();
        let c = rng.in_span(-6, 6);
        if c != 0 && !coeffs.iter().any(|(kk, _)| *kk == k) {
            coeffs.push((k, c));
        }
    }
    coeffs.sort();
    let kind = if rng.below(3) == 0 {
        ConKind::Eq
    } else {
        ConKind::Le
    };
    IntConstraint {
        coeffs,
        constant: rng.in_span(-60, 60),
        kind,
    }
}

/// A random conjunction in the shape the SMT layer produces: `Le` and
/// `Eq` primitives, and disequalities case-split into one strict side
/// (`eq_split`), under a random box, preference and node budget.
fn lia_case(rng: &mut TestRng, keys: &[LinKey], h: &mut StableHasher, tally: &mut Tally) {
    let n = 1 + rng.below(9) as usize;
    let mut constraints = Vec::with_capacity(n);
    for _ in 0..n {
        let con = random_constraint(rng, keys);
        if con.kind == ConKind::Eq && !con.coeffs.is_empty() && rng.below(3) == 0 {
            let (lt, gt) = eq_split(&con);
            constraints.push(if rng.below(2) == 0 { lt } else { gt });
        } else {
            constraints.push(con);
        }
    }
    let range = [8i64, 100, 1 << 20, 1 << 32][rng.below(4) as usize];
    let config = LiaConfig {
        var_min: -range,
        var_max: range,
        node_budget: [1u64, 2, 5, 20, 200][rng.below(5) as usize],
        prefer_small: rng.below(3) != 0,
        ..LiaConfig::default()
    };
    let result = if rng.below(2) == 0 {
        solve_int(&constraints, &config)
    } else {
        let mut pool = [3u64, 30, 300][rng.below(3) as usize];
        let r = solve_int_budgeted(&constraints, &config, &mut pool);
        fold(h, &format!("pool left {pool}"));
        r
    };
    match &result {
        LiaResult::Sat(_) => tally.lia_sat += 1,
        LiaResult::Unsat { core: Some(_) } => tally.lia_core += 1,
        LiaResult::Unsat { core: None } => tally.lia_no_core += 1,
        LiaResult::Unknown => tally.lia_unknown += 1,
    }
    fold(h, &format!("lia {result:?}"));
}

struct SmtVocab {
    vars: Vec<hotg_logic::Var>,
    f: FuncSym,
    g: FuncSym,
}

fn smt_term(rng: &mut TestRng, voc: &SmtVocab, depth: u32) -> Term {
    let pick = rng.below(if depth == 0 { 2 } else { 6 });
    match pick {
        0 => Term::int(rng.in_span(-8, 8) as i64),
        1 => Term::var(voc.vars[rng.below(voc.vars.len() as u64) as usize]),
        2 => Term::app(voc.f, vec![smt_term(rng, voc, depth - 1)]),
        3 => Term::app(
            voc.g,
            vec![smt_term(rng, voc, depth - 1), smt_term(rng, voc, depth - 1)],
        ),
        4 => smt_term(rng, voc, depth - 1) + smt_term(rng, voc, depth - 1),
        _ => smt_term(rng, voc, depth - 1) * Term::int(rng.in_span(-3, 3) as i64),
    }
}

fn smt_atom(rng: &mut TestRng, voc: &SmtVocab) -> Formula {
    let rel = [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][rng.below(6) as usize];
    Formula::atom(Atom::new(smt_term(rng, voc, 2), rel, smt_term(rng, voc, 2)))
}

/// An IOF-style query: recorded samples `f(c) = v` as an antecedent,
/// conjoined with a random boolean combination of linear/UF atoms.
fn smt_case(rng: &mut TestRng, voc: &SmtVocab, h: &mut StableHasher, tally: &mut Tally) {
    let mut f = Formula::True;
    for _ in 0..rng.below(4) {
        let arg = rng.in_span(-5, 5) as i64;
        let out = rng.in_span(-50, 50) as i64;
        f = f.and(Formula::atom(Atom::eq(
            Term::app(voc.f, vec![Term::int(arg)]),
            Term::int(out),
        )));
    }
    for _ in 0..1 + rng.below(4) {
        let atom = smt_atom(rng, voc);
        f = if rng.below(3) == 0 {
            f.and(atom.or(smt_atom(rng, voc)))
        } else {
            f.and(atom)
        };
    }
    let mut config = SmtConfig::new();
    config.pre_solve = rng.below(2) == 0;
    config.total_node_budget = [2u64, 50, 120_000][rng.below(3) as usize];
    config.lia.node_budget = [1u64, 10, 20_000][rng.below(3) as usize];
    let result = SmtSolver::with_config(config).check(&f);
    match &result {
        Ok(SmtResult::Sat(_)) => tally.smt_sat += 1,
        Ok(SmtResult::Unsat) => tally.smt_unsat += 1,
        Ok(SmtResult::Unknown) => tally.smt_unknown += 1,
        Err(_) => {}
    }
    fold(h, &format!("smt {result:?}"));
}

#[test]
fn kernel_answers_match_recorded_digest() {
    let mut rng = TestRng::seed_from_u64(0x6b65_726e_656c);
    let mut h = StableHasher::new();
    let mut tally = Tally::default();

    for _ in 0..SIMPLEX_CASES {
        simplex_case(&mut rng, &mut h, &mut tally);
    }
    let keys = lia_keys();
    for _ in 0..LIA_CASES {
        lia_case(&mut rng, &keys, &mut h, &mut tally);
    }
    let mut sig = Signature::new();
    let voc = SmtVocab {
        vars: (0..3)
            .map(|i| sig.declare_var(format!("y{i}"), Sort::Int))
            .collect(),
        f: sig.declare_func("f", 1),
        g: sig.declare_func("g", 2),
    };
    for _ in 0..SMT_CASES {
        smt_case(&mut rng, &voc, &mut h, &mut tally);
    }

    let counts = [
        tally.simplex_sat,
        tally.simplex_unsat,
        tally.lia_sat,
        tally.lia_core,
        tally.lia_no_core,
        tally.lia_unknown,
        tally.smt_sat,
        tally.smt_unsat,
        tally.smt_unknown,
    ];
    assert!(
        counts.iter().all(|&c| c >= 3),
        "stream no longer exercises every outcome: {tally:?}"
    );
    let digest = h.finish();
    assert_eq!(
        digest, EXPECTED,
        "kernel digest moved to {digest:#018x} ({tally:?}): a pivot, branch, \
         core or model changed"
    );
}
