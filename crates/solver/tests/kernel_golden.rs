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
//! A second leg, [`REFINEMENT_EXPECTED`], pins the shape a refinement
//! round hands the LIA layer: about a hundred constraints over fifteen
//! keys, built from the equality splits and `≤` negations of a few shared
//! linear forms, under the preference boxes; and tableaux that gain rows
//! over basic variables after pivoting, which substitutes (fills in) and
//! cancels terms.
//!
//! A third leg, [`BOXES_EXPECTED`], pins the preference boxes: systems
//! whose full-range model is large (single-key equalities and bounds
//! beyond ±2⁴, ±2⁸ and ±2¹⁶, mixed with multi-key rows) under node
//! budgets small enough that the nodes each box spends, or is charged,
//! show in the digested pool left over.
//!
//! After an *intentional* change to the kernel's search (which also
//! re-blesses the parity goldens), replace [`EXPECTED`],
//! [`REFINEMENT_EXPECTED`] and [`BOXES_EXPECTED`] with the digests these
//! tests print.

use hotg_logic::{Atom, Formula, FuncSym, LinKey, Rat, Rel, Signature, Sort, StableHasher, Term};
use hotg_prop::TestRng;
use hotg_solver::atoms::{eq_split, negate_le};
use hotg_solver::lia::{
    solve_int, solve_int_budgeted, ConKind, IntConstraint, LiaConfig, LiaResult,
};
use hotg_solver::simplex::{BoundKind, Simplex, SimplexResult};
use hotg_solver::{SmtConfig, SmtResult, SmtSolver};
use std::hash::Hasher;

/// Digest of the whole stream, recorded before the kernel's data
/// structures were last reworked.
const EXPECTED: u64 = 0xd42a_6c33_4dd9_54f5;

/// Digest of the refinement-shape leg, recorded before the column index
/// and the id-interned keys landed.
const REFINEMENT_EXPECTED: u64 = 0x8300_0d22_aa4b_01ac;

/// Digest of the preference-box leg, recorded before the box check that
/// skips a box one asserted row already refutes.
const BOXES_EXPECTED: u64 = 0x98d4_fc56_ed99_1b1c;

const SIMPLEX_CASES: usize = 150;
const LIA_CASES: usize = 300;
const SMT_CASES: usize = 150;
const ROUND_CASES: usize = 40;
const FILL_IN_CASES: usize = 80;
const BOX_CASES: usize = 400;

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
    // A retired configuration draw, kept so the seeded stream (and
    // the recorded digests) do not move.
    let _ = rng.below(2);
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

/// Fifteen keys: ten variables and five applications.
fn round_keys() -> Vec<LinKey> {
    let mut sig = Signature::new();
    let vars: Vec<_> = (0..10)
        .map(|i| sig.declare_var(format!("z{i}"), Sort::Int))
        .collect();
    let f = sig.declare_func("f", 1);
    let mut keys: Vec<LinKey> = vars.iter().map(|&v| LinKey::Var(v)).collect();
    for &v in &vars[..5] {
        keys.push(LinKey::App(Term::app(f, vec![Term::var(v)])));
    }
    keys
}

/// A refinement round's constraint set: every constraint is a `≤`
/// primitive, its negation, an equality, or one strict side of an
/// equality, over one of a dozen shared linear forms. Most hold at a
/// hidden integer point (some of whose coordinates lie outside the
/// smallest preference box), so most systems are feasible; the rest give
/// cores.
fn round_case(rng: &mut TestRng, keys: &[LinKey], h: &mut StableHasher, tally: &mut Tally) {
    let point: Vec<i128> = keys.iter().map(|_| rng.in_span(-24, 24)).collect();
    let forms: Vec<Vec<(usize, i128)>> = (0..12)
        .map(|_| {
            let mut form: Vec<(usize, i128)> = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let k = rng.below(keys.len() as u64) as usize;
                let c = rng.in_span(-3, 3);
                if c != 0 && !form.iter().any(|&(kk, _)| kk == k) {
                    form.push((k, c));
                }
            }
            if form.is_empty() {
                form.push((rng.below(keys.len() as u64) as usize, 1));
            }
            form.sort();
            form
        })
        .collect();
    let false_odds = [0u64, 50, 12][rng.below(3) as usize];
    let n = 80 + rng.below(40) as usize;
    let mut constraints = Vec::with_capacity(n);
    for _ in 0..n {
        let form = &forms[rng.below(forms.len() as u64) as usize];
        let value: i128 = form.iter().map(|&(k, c)| c * point[k]).sum();
        let holds = false_odds == 0 || rng.below(false_odds) != 0;
        let coeffs: Vec<(LinKey, i128)> = form.iter().map(|&(k, c)| (keys[k].clone(), c)).collect();
        let con = match rng.below(4) {
            // form - value - slack ≤ 0 holds for slack ≥ 0.
            0 | 1 => {
                let slack = rng.in_span(0, 6);
                let le = IntConstraint {
                    coeffs,
                    constant: if holds {
                        -value - slack
                    } else {
                        -value + 1 + slack
                    },
                    kind: ConKind::Le,
                };
                if rng.below(2) == 0 {
                    le
                } else {
                    // The negation holds exactly where the primitive fails.
                    let flipped = IntConstraint {
                        constant: if holds {
                            -value + 1 + slack
                        } else {
                            -value - slack
                        },
                        ..le
                    };
                    negate_le(&flipped)
                }
            }
            2 => IntConstraint {
                coeffs,
                constant: if holds { -value } else { -value - 1 },
                kind: ConKind::Eq,
            },
            _ => {
                // `form - value ± 1 = 0` is false at the point; one of its
                // strict sides holds.
                let delta = if rng.below(2) == 0 { 1 } else { -1 };
                let eq = IntConstraint {
                    coeffs,
                    constant: -value + delta,
                    kind: ConKind::Eq,
                };
                let (lt, gt) = eq_split(&eq);
                let lt_holds = delta < 0;
                if lt_holds == holds {
                    lt
                } else {
                    gt
                }
            }
        };
        constraints.push(con);
    }
    let config = LiaConfig {
        prefer_small: rng.below(4) != 0,
        node_budget: [40u64, 400][rng.below(2) as usize],
        ..LiaConfig::default()
    };
    let result = if rng.below(2) == 0 {
        solve_int(&constraints, &config)
    } else {
        let mut pool = [60u64, 1_200][rng.below(2) as usize];
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
    fold(h, &format!("round {result:?}"));
}

/// A tableau checked, then grown by rows over its (now partly basic)
/// variables, then checked again: each new row substitutes the rows of
/// the basic variables it names (fill-in), and the row `slack - its own
/// definition` cancels to nothing.
fn fill_in_case(rng: &mut TestRng, h: &mut StableHasher, tally: &mut Tally) {
    let mut s = Simplex::new();
    let n = 6 + rng.below(8) as usize;
    let mut vars: Vec<usize> = (0..n).map(|_| s.new_var()).collect();
    let mut definitions: Vec<(usize, Vec<(usize, Rat)>)> = Vec::new();
    let mut tag = 0u32;
    let mut next_tag = |rng: &mut TestRng| {
        tag += 1;
        (rng.below(6) != 0).then_some(tag)
    };
    let random_row = |rng: &mut TestRng, vars: &[usize]| {
        (0..1 + rng.below(5))
            .map(|_| {
                let v = vars[rng.below(vars.len() as u64) as usize];
                (v, Rat::new(rng.in_span(-5, 5), 1 + rng.in_span(0, 2)))
            })
            .collect::<Vec<_>>()
    };
    for _ in 0..n + rng.below(2 * n as u64) as usize {
        let terms = random_row(rng, &vars);
        let slack = s.add_row(&terms);
        definitions.push((slack, terms));
        vars.push(slack);
    }
    for step in 0..3 {
        for _ in 0..2 + rng.below(2 * n as u64) {
            let v = vars[rng.below(vars.len() as u64) as usize];
            let kind = if rng.below(2) == 0 {
                BoundKind::Lower
            } else {
                BoundKind::Upper
            };
            let c = Rat::new(rng.in_span(-30, 30), 1 + rng.in_span(0, 1));
            if let Err(e) = s.assert_bound(v, kind, c, next_tag(rng)) {
                tally.simplex_unsat += 1;
                fold(h, &format!("fill-in bound-conflict {e:?}"));
                return;
            }
        }
        match s.check() {
            SimplexResult::Sat(values) => {
                tally.simplex_sat += 1;
                fold(h, &format!("fill-in sat {values:?}"));
            }
            SimplexResult::Unsat(e) => {
                tally.simplex_unsat += 1;
                fold(h, &format!("fill-in unsat {e:?}"));
                return;
            }
        }
        if step == 2 {
            break;
        }
        // Rows over basic variables, and one that cancels exactly.
        for _ in 0..1 + rng.below(4) {
            let terms = random_row(rng, &vars);
            vars.push(s.add_row(&terms));
        }
        let (slack, definition) = &definitions[rng.below(definitions.len() as u64) as usize];
        let mut cancel = vec![(*slack, Rat::ONE)];
        cancel.extend(definition.iter().map(|&(v, c)| (v, -c)));
        let zero = s.add_row(&cancel);
        fold(h, &format!("cancelled row value {:?}", zero));
        vars.push(zero);
    }
}

#[test]
fn refinement_shapes_match_recorded_digest() {
    let mut rng = TestRng::seed_from_u64(0x7265_6669_6e65);
    let mut h = StableHasher::new();
    let mut tally = Tally::default();
    let keys = round_keys();
    for _ in 0..ROUND_CASES {
        round_case(&mut rng, &keys, &mut h, &mut tally);
    }
    for _ in 0..FILL_IN_CASES {
        fill_in_case(&mut rng, &mut h, &mut tally);
    }
    assert!(
        tally.lia_sat >= 10
            && tally.lia_core >= 5
            && tally.simplex_sat >= 20
            && tally.simplex_unsat >= 10,
        "stream no longer exercises every outcome: {tally:?}"
    );
    let digest = h.finish();
    assert_eq!(
        digest, REFINEMENT_EXPECTED,
        "refinement digest moved to {digest:#018x} ({tally:?}): a pivot, branch, \
         core or model changed"
    );
}

/// A coordinate of the hidden point of a box case: small, or beyond one
/// of the preference boxes ±2⁴, ±2⁸ and ±2¹⁶.
fn box_coordinate(rng: &mut TestRng) -> i128 {
    let magnitude = match rng.below(4) {
        0 => return rng.in_span(-12, 12),
        1 => rng.in_span(17, 255),
        2 => rng.in_span(257, 65_535),
        _ => rng.in_span(65_537, 1 << 22),
    };
    if rng.below(2) == 0 {
        magnitude
    } else {
        -magnitude
    }
}

/// A system that holds at a hidden point with large coordinates (bar the
/// occasional violated row, for cores): single-key equalities and bounds,
/// whose one row refutes the smaller boxes, and multi-key rows, which
/// may or may not, under a small node budget and pool.
fn box_case(rng: &mut TestRng, keys: &[LinKey], h: &mut StableHasher, tally: &mut Tally) {
    let point: Vec<i128> = keys.iter().map(|_| box_coordinate(rng)).collect();
    let n = 1 + rng.below(8) as usize;
    let mut constraints = Vec::with_capacity(n);
    for _ in 0..n {
        let k = rng.below(keys.len() as u64) as usize;
        let miss = if rng.below(12) == 0 { 1 } else { 0 };
        let con = match rng.below(5) {
            // x = v.
            0 => IntConstraint {
                coeffs: vec![(keys[k].clone(), 1)],
                constant: -point[k] - miss,
                kind: ConKind::Eq,
            },
            // x ≥ v - slack, or x ≤ v + slack.
            1 | 2 => {
                let slack = rng.in_span(0, 40);
                if rng.below(2) == 0 {
                    IntConstraint {
                        coeffs: vec![(keys[k].clone(), -1)],
                        constant: point[k] - slack + miss * (slack + 1),
                        kind: ConKind::Le,
                    }
                } else {
                    IntConstraint {
                        coeffs: vec![(keys[k].clone(), 1)],
                        constant: -point[k] - slack - miss * (slack + 1),
                        kind: ConKind::Le,
                    }
                }
            }
            // A multi-key row through the point.
            _ => {
                let mut form: Vec<(usize, i128)> = Vec::new();
                for _ in 0..2 + rng.below(3) {
                    let j = rng.below(keys.len() as u64) as usize;
                    let c = rng.in_span(-3, 3);
                    if c != 0 && !form.iter().any(|&(jj, _)| jj == j) {
                        form.push((j, c));
                    }
                }
                if form.is_empty() {
                    form.push((k, 1));
                }
                form.sort();
                let value: i128 = form.iter().map(|&(j, c)| c * point[j]).sum();
                let coeffs = form.iter().map(|&(j, c)| (keys[j].clone(), c)).collect();
                if rng.below(2) == 0 {
                    IntConstraint {
                        coeffs,
                        constant: -value - miss,
                        kind: ConKind::Eq,
                    }
                } else {
                    IntConstraint {
                        coeffs,
                        constant: -value - rng.in_span(0, 9) + miss * 20,
                        kind: ConKind::Le,
                    }
                }
            }
        };
        constraints.push(con);
    }
    let range = [1i64 << 32, 1 << 24, 1 << 17][rng.below(3) as usize];
    let config = LiaConfig {
        var_min: -range,
        var_max: range,
        node_budget: [1u64, 2, 3, 5, 40][rng.below(5) as usize],
        prefer_small: rng.below(6) != 0,
    };
    let mut pool = [1u64, 2, 3, 4, 6, 100][rng.below(6) as usize];
    let result = solve_int_budgeted(&constraints, &config, &mut pool);
    match &result {
        LiaResult::Sat(_) => tally.lia_sat += 1,
        LiaResult::Unsat { core: Some(_) } => tally.lia_core += 1,
        LiaResult::Unsat { core: None } => tally.lia_no_core += 1,
        LiaResult::Unknown => tally.lia_unknown += 1,
    }
    fold(h, &format!("box {result:?} pool left {pool}"));
}

#[test]
fn preference_boxes_match_recorded_digest() {
    let mut rng = TestRng::seed_from_u64(0x0062_6f78_6573);
    let mut h = StableHasher::new();
    let mut tally = Tally::default();
    let keys = round_keys();
    for _ in 0..BOX_CASES {
        box_case(&mut rng, &keys, &mut h, &mut tally);
    }
    assert!(
        tally.lia_sat >= 100
            && tally.lia_core >= 5
            && tally.lia_no_core >= 10
            && tally.lia_unknown >= 10,
        "stream no longer exercises every outcome: {tally:?}"
    );
    let digest = h.finish();
    assert_eq!(
        digest, BOXES_EXPECTED,
        "preference-box digest moved to {digest:#018x} ({tally:?}): a box \
         result or the nodes it spent changed"
    );
}
