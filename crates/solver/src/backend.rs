//! Solver-backend cascade: an abstract-interpretation pre-solver in
//! front of DPLL(T).
//!
//! PR 6's replay harness showed the campaign query stream is dominated by
//! sibling queries that differ in one flipped atom, many of which are
//! trivially unsatisfiable (a flipped branch contradicting a
//! concretization pin, `y = 42 ∧ … ∧ y = 10`). Those never need a CDCL
//! search: propagating per-symbol [`Interval`] facts through the
//! conjunction refutes them in one pass. This module provides
//!
//! * [`AbstractBackend`] — the interval/constancy pre-solver over
//!   [`LinConstraint`]s: a *verdict-only* pre-check that may answer
//!   `Unsat` or `Valid` but never invents a model, plus a
//!   *forced-model* pre-check for callers that need one;
//! * [`Cascade`] — the counter-keeping combinator the
//!   [`SmtSolver`](crate::smt::SmtSolver) consults after a cache miss and
//!   before encoding.
//!
//! # Soundness, by construction
//!
//! The backend only ever *over-approximates* the set of assignments:
//! every per-key interval contains all values the key takes in any model
//! (uninterpreted applications are opaque keys, which ignores congruence
//! — a further over-approximation). Hence:
//!
//! * **`Unsat` is sound**: if the abstract state is empty (or some
//!   conjunct is abstractly always-false), no concrete model exists.
//! * **`Valid` is sound**: it is only answered when the *negation* is
//!   abstractly unsatisfiable, so every assignment satisfies the formula
//!   — in particular the formula is satisfiable.
//! * **No invented models**: the abstract state cannot in general name
//!   a witness, so verdict pre-checks never answer `Sat`. The one
//!   model-carrying answer the backend gives is the *forced* model
//!   ([`ModelVerdict::Forced`]): when narrowing pins every variable of
//!   an application-free formula to a single point, every model — in
//!   particular the one DPLL(T) would build — must assign exactly those
//!   points, and the candidate is verified by concrete evaluation
//!   before it is answered. Uniqueness makes the short-circuit
//!   bit-identical to the DPLL(T) result; evaluation makes it sound
//!   independently of the narrowing logic. This is what keeps campaign
//!   reports bit-identical with the cascade enabled: the backend only
//!   ever answers what DPLL(T) would have answered, and everything it
//!   cannot force takes the exact same path as before.
//!
//! A formula containing an atom outside the linear theory makes the
//! backend answer [`PreVerdict::Unknown`] unconditionally — the DPLL(T)
//! layer must keep surfacing its [`NonLinearError`] exactly as without a
//! cascade.

use hotg_logic::{Constancy, Formula, Interval, LinConstraint, LinExpr, LinKey, Model, Rel, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A verdict-only pre-check answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreVerdict {
    /// The formula has no model (sound: DPLL(T) could only agree).
    Unsat,
    /// Every assignment satisfies the formula; in particular it is
    /// satisfiable, but no model is materialized.
    Valid,
    /// The backend cannot decide; fall through to the next backend.
    Unknown,
}

/// A pre-check answer for callers that need a model on the satisfiable
/// side ([`SmtSolver::check`](crate::smt::SmtSolver::check)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelVerdict {
    /// The formula has no model.
    Unsat,
    /// The formula's model is *forced*: abstract narrowing pinned every
    /// variable to a single value any model must take, and the carried
    /// candidate was verified by concrete evaluation. Because the model
    /// is unique, it is bit-identical to what DPLL(T) would return.
    Forced(Model),
    /// The backend cannot decide; fall through to DPLL(T).
    Unknown,
}

/// Outcome of the refutation analysis.
enum Refute {
    /// Definitely unsatisfiable.
    Unsat,
    /// Not refuted abstractly.
    Open,
    /// Contains an atom outside the linear theory: the backend must stay
    /// silent so DPLL(T) surfaces its `NonLinearError`.
    NonLinear,
}

/// Abstract interpretation over interned formulas: per-key
/// [`Interval`] facts propagated through conjunctions by constraint
/// narrowing, with [`Constancy`] used for three-valued truth of
/// disjunctive residue.
///
/// The backend is *sound*: `Unsat` only for formulas DPLL(T) would
/// refute, `Valid` only for formulas whose negation it would refute. It
/// never requires a model and is orders of magnitude cheaper than a
/// DPLL(T) check — the cascade runs it on every cache miss.
#[derive(Clone, Copy, Debug, Default)]
pub struct AbstractBackend;

/// Bounded narrowing rounds: each round only shrinks intervals, and in
/// practice sibling-flip refutations converge in one or two rounds, so a
/// small cap bounds worst-case work on adversarial chains.
const MAX_ROUNDS: usize = 6;

impl AbstractBackend {
    /// Pre-checks `formula` (already normalized by the caller). With
    /// `want_valid` false the caller cannot use a `Valid` answer (it
    /// needs a model on the satisfiable side), so the backend does not
    /// spend work producing one.
    pub fn pre_check(&self, formula: &Formula, want_valid: bool) -> PreVerdict {
        match refute(formula) {
            Refute::Unsat => PreVerdict::Unsat,
            Refute::NonLinear => PreVerdict::Unknown,
            Refute::Open if want_valid => {
                // `formula` valid ⇔ ¬formula unsatisfiable. The negation
                // has the same atoms (negation flips relations), so the
                // NonLinear case cannot differ from the positive pass.
                match refute(&formula.negate().nnf()) {
                    Refute::Unsat => PreVerdict::Valid,
                    _ => PreVerdict::Unknown,
                }
            }
            Refute::Open => PreVerdict::Unknown,
        }
    }

    /// Pre-checks `formula` for a model-wanting caller. Answers
    /// [`ModelVerdict::Forced`] only with the formula's *unique* model —
    /// a value assignment every model is forced to, verified to satisfy
    /// the formula — so the answer is bit-identical to the one DPLL(T)
    /// would build.
    pub fn pre_check_model(&self, formula: &Formula) -> ModelVerdict {
        match analyze(formula) {
            Analysis::Contradiction => ModelVerdict::Unsat,
            Analysis::NonLinear => ModelVerdict::Unknown,
            Analysis::Stable(env) => match forced_model(formula, &env) {
                Some(model) => ModelVerdict::Forced(model),
                None => ModelVerdict::Unknown,
            },
        }
    }
}

/// Abstract environment: per-key value bounds (missing key = ⊤).
type Env = BTreeMap<LinKey, Interval>;

/// An extended-integer range `[lo, hi]` with `None` = ±∞ on its side,
/// kept in `i128` so coefficient products never clamp prematurely.
#[derive(Clone, Copy)]
struct Range {
    lo: Option<i128>,
    hi: Option<i128>,
}

impl Range {
    const TOP: Range = Range { lo: None, hi: None };

    fn point(v: i128) -> Range {
        Range {
            lo: Some(v),
            hi: Some(v),
        }
    }

    fn of(itv: Interval) -> Range {
        Range {
            lo: itv.lo.map(|v| v as i128),
            hi: itv.hi.map(|v| v as i128),
        }
    }

    /// `self + c · itv`, with `i128` overflow widening to ±∞ (sound: it
    /// only loses precision).
    fn add_scaled(self, c: i128, itv: Interval) -> Range {
        let term = Range::of(itv).scale(c);
        Range {
            lo: match (self.lo, term.lo) {
                (Some(a), Some(b)) => a.checked_add(b),
                _ => None,
            },
            hi: match (self.hi, term.hi) {
                (Some(a), Some(b)) => a.checked_add(b),
                _ => None,
            },
        }
    }

    fn scale(self, c: i128) -> Range {
        if c == 0 {
            return Range::point(0);
        }
        let mul = |v: i128| v.checked_mul(c);
        if c > 0 {
            Range {
                lo: self.lo.and_then(mul),
                hi: self.hi.and_then(mul),
            }
        } else {
            Range {
                lo: self.hi.and_then(mul),
                hi: self.lo.and_then(mul),
            }
        }
    }

    fn neg(self) -> Range {
        self.scale(-1)
    }

    /// Three-valued truth of `self REL 0`.
    fn truth(self, rel: Rel) -> Constancy {
        let lo = self.lo;
        let hi = self.hi;
        match rel {
            Rel::Lt => {
                if hi.is_some_and(|h| h < 0) {
                    Constancy::AlwaysTrue
                } else if lo.is_some_and(|l| l >= 0) {
                    Constancy::AlwaysFalse
                } else {
                    Constancy::Unknown
                }
            }
            Rel::Le => {
                if hi.is_some_and(|h| h <= 0) {
                    Constancy::AlwaysTrue
                } else if lo.is_some_and(|l| l > 0) {
                    Constancy::AlwaysFalse
                } else {
                    Constancy::Unknown
                }
            }
            Rel::Gt => self.neg().truth(Rel::Lt),
            Rel::Ge => self.neg().truth(Rel::Le),
            Rel::Eq => {
                if lo == Some(0) && hi == Some(0) {
                    Constancy::AlwaysTrue
                } else if lo.is_some_and(|l| l > 0) || hi.is_some_and(|h| h < 0) {
                    Constancy::AlwaysFalse
                } else {
                    Constancy::Unknown
                }
            }
            Rel::Ne => self.truth(Rel::Eq).not(),
        }
    }
}

/// `⌊n / d⌋` for `d > 0`.
fn floor_div(n: i128, d: i128) -> i128 {
    n.div_euclid(d)
}

/// `⌈n / d⌉` for `d > 0`.
fn ceil_div(n: i128, d: i128) -> i128 {
    -((-n).div_euclid(d))
}

fn to_interval(lo: Option<i128>, hi: Option<i128>) -> Interval {
    let clamp = |v: i128| {
        if v < i64::MIN as i128 || v > i64::MAX as i128 {
            None
        } else {
            Some(v as i64)
        }
    };
    Interval {
        lo: lo.and_then(clamp),
        hi: hi.and_then(clamp),
    }
}

/// Every linear constraint of the formula, or `None` if any atom is
/// outside the theory. Conjunct atoms land in `conjuncts`; everything
/// else (disjunctive residue) is truth-checked later against the final
/// environment.
fn gather(f: &Formula, conjuncts: &mut Vec<LinConstraint>, rest: &mut Vec<Formula>) -> bool {
    match f {
        Formula::True => true,
        Formula::False => {
            rest.push(Formula::False);
            true
        }
        Formula::Atom(a) => match LinConstraint::from_atom(a) {
            Ok(c) => {
                conjuncts.push(c);
                true
            }
            Err(_) => false,
        },
        Formula::And(parts) => parts.iter().all(|p| gather(p, conjuncts, rest)),
        Formula::Not(_) | Formula::Or(_) => {
            if !linear_ok(f) {
                return false;
            }
            rest.push(f.clone());
            true
        }
    }
}

/// `true` iff every atom of `f` linearizes.
fn linear_ok(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Atom(a) => LinConstraint::from_atom(a).is_ok(),
        Formula::Not(g) => linear_ok(g),
        Formula::And(parts) | Formula::Or(parts) => parts.iter().all(linear_ok),
    }
}

/// The range of `expr` under `env`.
fn eval_expr(expr: &LinExpr, env: &Env) -> Range {
    let Some(c0) = rat_int(expr.constant()) else {
        return Range::TOP;
    };
    let mut range = Range::point(c0);
    for (k, c) in expr.coeffs() {
        let Some(c) = rat_int(c) else {
            return Range::TOP;
        };
        let itv = env.get(k).copied().unwrap_or(Interval::TOP);
        range = range.add_scaled(c, itv);
    }
    range
}

fn rat_int(r: hotg_logic::Rat) -> Option<i128> {
    (r.denom() == 1).then(|| r.numer())
}

enum Propagate {
    Contradiction,
    Changed,
    Stable,
}

/// One narrowing pass of `con` against `env`: refutes on an
/// always-false range, then tightens every key of the constraint.
fn propagate(con: &LinConstraint, env: &mut Env) -> Propagate {
    let range = eval_expr(&con.expr, env);
    match range.truth(con.rel) {
        Constancy::AlwaysFalse => return Propagate::Contradiction,
        Constancy::AlwaysTrue => return Propagate::Stable,
        Constancy::Unknown => {}
    }
    let mut changed = false;
    let keys: Vec<(LinKey, i128)> = con
        .expr
        .coeffs()
        .filter_map(|(k, c)| rat_int(c).map(|c| (k.clone(), c)))
        .collect();
    if keys.len() != con.expr.key_count() || rat_int(con.expr.constant()).is_none() {
        // Non-integer coefficients (not produced by the front end):
        // skip narrowing, the truth test above already ran.
        return Propagate::Stable;
    }
    for (key, c) in &keys {
        // expr = c·key + rest; the constraint says c·key REL −rest.
        let mut rest = Range::point(rat_int(con.expr.constant()).expect("checked integer"));
        for (k2, c2) in &keys {
            if k2 != key {
                let itv = env.get(k2).copied().unwrap_or(Interval::TOP);
                rest = rest.add_scaled(*c2, itv);
            }
        }
        let target = rest.neg();
        // Normalize the coefficient positive: c·k REL t ⇔ (−c)·k REL' (−t)
        // with REL' the mirrored relation.
        let (c, target, rel) = if *c > 0 {
            (*c, target, con.rel)
        } else {
            (-*c, target.neg(), con.rel.flip())
        };
        let narrowed = narrow_key(
            c,
            target,
            rel,
            env.get(key).copied().unwrap_or(Interval::TOP),
        );
        let narrowed = match narrowed {
            Some(n) => n,
            None => return Propagate::Contradiction,
        };
        let slot = env.entry(key.clone()).or_insert(Interval::TOP);
        match slot.intersect(narrowed) {
            None => return Propagate::Contradiction,
            Some(refined) => {
                if refined != *slot {
                    *slot = refined;
                    changed = true;
                }
            }
        }
    }
    if changed {
        Propagate::Changed
    } else {
        Propagate::Stable
    }
}

/// The interval implied for an integer `k` by `c·k REL t` with `c > 0`
/// and `t` ranging over `target`; `None` means empty (contradiction).
fn narrow_key(c: i128, target: Range, rel: Rel, current: Interval) -> Option<Interval> {
    debug_assert!(c > 0);
    let implied = match rel {
        // c·k ≤ t ≤ hi(t)  ⇒  k ≤ ⌊hi/c⌋
        Rel::Le => to_interval(None, target.hi.map(|h| floor_div(h, c))),
        // c·k < t  ⇒  c·k ≤ hi − 1  ⇒  k ≤ ⌈hi/c⌉ − 1
        Rel::Lt => to_interval(None, target.hi.map(|h| ceil_div(h, c) - 1)),
        Rel::Ge => to_interval(target.lo.map(|l| ceil_div(l, c)), None),
        Rel::Gt => to_interval(target.lo.map(|l| floor_div(l, c) + 1), None),
        Rel::Eq => {
            if let (Some(l), Some(h)) = (target.lo, target.hi) {
                if l == h && l.rem_euclid(c) != 0 {
                    // c·k = t with c ∤ t: no integer solution.
                    return None;
                }
            }
            to_interval(
                target.lo.map(|l| ceil_div(l, c)),
                target.hi.map(|h| floor_div(h, c)),
            )
        }
        Rel::Ne => {
            // Only a point target narrows: k ≠ t/c when c | t.
            if let (Some(l), Some(h)) = (target.lo, target.hi) {
                if l == h && l.rem_euclid(c) == 0 {
                    let point = floor_div(l, c);
                    if (i64::MIN as i128..=i64::MAX as i128).contains(&point) {
                        return current.remove_point(point as i64);
                    }
                }
            }
            Interval::TOP
        }
    };
    Some(implied)
}

/// Outcome of the full narrowing analysis: a contradiction, a non-linear
/// bailout, or the stable abstract environment.
enum Analysis {
    Contradiction,
    NonLinear,
    Stable(Env),
}

/// Conjunct narrowing to a bounded fixpoint, then a three-valued truth
/// pass over the disjunctive residue.
fn analyze(f: &Formula) -> Analysis {
    let mut conjuncts = Vec::new();
    let mut rest = Vec::new();
    if !gather(f, &mut conjuncts, &mut rest) {
        return Analysis::NonLinear;
    }
    let mut env = Env::new();
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for con in &conjuncts {
            match propagate(con, &mut env) {
                Propagate::Contradiction => return Analysis::Contradiction,
                Propagate::Changed => changed = true,
                Propagate::Stable => {}
            }
        }
        if !changed {
            break;
        }
    }
    // Any conjunct that is abstractly always-false refutes the whole
    // conjunction. Conjunct atoms were already checked inside
    // `propagate`; this covers the disjunctive residue (e.g. clauses),
    // whose atoms are evaluated — never narrowed on — under the final
    // environment.
    for g in &rest {
        if truth(g, &env) == Constancy::AlwaysFalse {
            return Analysis::Contradiction;
        }
    }
    Analysis::Stable(env)
}

/// Refutation analysis, discarding the environment.
fn refute(f: &Formula) -> Refute {
    match analyze(f) {
        Analysis::Contradiction => Refute::Unsat,
        Analysis::NonLinear => Refute::NonLinear,
        Analysis::Stable(_) => Refute::Open,
    }
}

/// The forced model of `f` under the stable environment `env`, if one
/// exists: `f` must be application-free (applications would need
/// interpretation entries only DPLL(T) builds), every variable of `f`
/// must be pinned to a point interval, and the resulting assignment must
/// concretely satisfy `f`.
///
/// Why the answer is bit-identical to DPLL(T)'s: narrowing over-
/// approximates, so any model's value for a variable lies inside its
/// interval — a point interval *forces* the value. DPLL(T)'s model for
/// an application-free formula assigns exactly the formula's variables
/// (as `Value::Int`), so both models carry the same entries. Concrete
/// evaluation then makes the `Sat` answer sound even if the narrowing
/// were buggy.
fn forced_model(f: &Formula, env: &Env) -> Option<Model> {
    if !f.apps().is_empty() {
        return None;
    }
    let mut model = Model::new();
    for v in f.vars() {
        let val = env.get(&LinKey::Var(v))?.as_const()?;
        model.set_var(v, Value::Int(val));
    }
    (f.eval(&model) == Some(true)).then_some(model)
}

/// Three-valued truth of an arbitrary subformula under `env`.
fn truth(f: &Formula, env: &Env) -> Constancy {
    match f {
        Formula::True => Constancy::AlwaysTrue,
        Formula::False => Constancy::AlwaysFalse,
        Formula::Atom(a) => match LinConstraint::from_atom(a) {
            Ok(con) => eval_expr(&con.expr, env).truth(con.rel),
            Err(_) => Constancy::Unknown,
        },
        Formula::Not(g) => truth(g, env).not(),
        Formula::And(parts) => parts
            .iter()
            .fold(Constancy::AlwaysTrue, |acc, p| acc.and(truth(p, env))),
        Formula::Or(parts) => parts
            .iter()
            .fold(Constancy::AlwaysFalse, |acc, p| acc.or(truth(p, env))),
    }
}

/// Counter snapshot of a cascade, for the announcement-only
/// `BackendStats` campaign event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendStats {
    /// Pre-check queries posed to the backend (cache misses).
    pub queries: u64,
    /// Queries answered `Unsat` without invoking DPLL(T).
    pub unsat_short_circuits: u64,
    /// Verdict-only queries answered `Valid` without invoking DPLL(T).
    pub valid_short_circuits: u64,
    /// Model-wanting queries answered with a forced model without
    /// invoking DPLL(T).
    pub sat_short_circuits: u64,
}

impl BackendStats {
    /// Queries that fell through to DPLL(T).
    pub fn fallthrough(&self) -> u64 {
        self.queries - self.short_circuits()
    }

    /// Queries answered without DPLL(T), of any verdict.
    pub fn short_circuits(&self) -> u64 {
        self.unsat_short_circuits + self.valid_short_circuits + self.sat_short_circuits
    }

    /// Sums counters (cascades of different solvers, e.g. the
    /// scheduler's SMT solver and validity checker).
    pub fn merged(self, other: BackendStats) -> BackendStats {
        BackendStats {
            queries: self.queries + other.queries,
            unsat_short_circuits: self.unsat_short_circuits + other.unsat_short_circuits,
            valid_short_circuits: self.valid_short_circuits + other.valid_short_circuits,
            sat_short_circuits: self.sat_short_circuits + other.sat_short_circuits,
        }
    }
}

/// The cascade combinator: [`AbstractBackend`] consulted before
/// DPLL(T), with counters. Shared (via `Arc`) by every clone of a
/// solver, so the counters aggregate across worker threads; they are
/// announcement-only and never folded into campaign reports.
#[derive(Default)]
pub struct Cascade {
    backend: AbstractBackend,
    queries: AtomicU64,
    unsat: AtomicU64,
    valid: AtomicU64,
    forced: AtomicU64,
}

impl Cascade {
    /// Pre-checks `formula`, counting the query and its outcome.
    pub fn pre_check(&self, formula: &Formula, want_valid: bool) -> PreVerdict {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let verdict = self.backend.pre_check(formula, want_valid);
        match verdict {
            PreVerdict::Unsat => {
                self.unsat.fetch_add(1, Ordering::Relaxed);
            }
            PreVerdict::Valid => {
                self.valid.fetch_add(1, Ordering::Relaxed);
            }
            PreVerdict::Unknown => {}
        }
        verdict
    }

    /// Pre-checks `formula` for a model-wanting caller, counting the
    /// query and its outcome.
    pub fn pre_check_model(&self, formula: &Formula) -> ModelVerdict {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let verdict = self.backend.pre_check_model(formula);
        match &verdict {
            ModelVerdict::Unsat => {
                self.unsat.fetch_add(1, Ordering::Relaxed);
            }
            ModelVerdict::Forced(_) => {
                self.forced.fetch_add(1, Ordering::Relaxed);
            }
            ModelVerdict::Unknown => {}
        }
        verdict
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BackendStats {
        BackendStats {
            queries: self.queries.load(Ordering::Relaxed),
            unsat_short_circuits: self.unsat.load(Ordering::Relaxed),
            valid_short_circuits: self.valid.load(Ordering::Relaxed),
            sat_short_circuits: self.forced.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for Cascade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cascade")
            .field("backend", &self.backend)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::{Atom, Signature, Sort, Term, Var};

    fn setup() -> (Signature, Var, Var, hotg_logic::FuncSym) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let h = sig.declare_func("h", 1);
        (sig, x, y, h)
    }

    fn pre(f: &Formula) -> PreVerdict {
        AbstractBackend.pre_check(&f.nnf(), true)
    }

    #[test]
    fn conflicting_pins_refuted() {
        // The paper's Example 1 shape: y = 42 ∧ x = 567 ∧ y = 10.
        let (_, x, y, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(y), Term::int(42)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(567))))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(10))));
        assert_eq!(pre(&f), PreVerdict::Unsat);
    }

    #[test]
    fn strict_window_narrowing_refutes() {
        // 0 < x < 2 ∧ x ≠ 1: strict bounds narrow to [1, 1], the
        // disequality empties it.
        let (_, x, _, _) = setup();
        let f = Formula::atom(Atom::new(Term::var(x), Rel::Gt, Term::int(0)))
            .and(Formula::atom(Atom::new(
                Term::var(x),
                Rel::Lt,
                Term::int(2),
            )))
            .and(Formula::atom(Atom::ne(Term::var(x), Term::int(1))));
        assert_eq!(pre(&f), PreVerdict::Unsat);
    }

    #[test]
    fn coefficient_rounding_is_integer_aware() {
        // 2x = 5 has no integer solution.
        let (_, x, _, _) = setup();
        let f = Formula::atom(Atom::eq(Term::int(2) * Term::var(x), Term::int(5)));
        assert_eq!(pre(&f), PreVerdict::Unsat);
        // 3x ≥ 7 ∧ x ≤ 2 forces x = ⌈7/3⌉ = 3 > 2.
        let g = Formula::atom(Atom::new(
            Term::int(3) * Term::var(x),
            Rel::Ge,
            Term::int(7),
        ))
        .and(Formula::atom(Atom::new(
            Term::var(x),
            Rel::Le,
            Term::int(2),
        )));
        assert_eq!(pre(&g), PreVerdict::Unsat);
    }

    #[test]
    fn apps_are_opaque_keys() {
        // h(y) = 3 ∧ h(y) = 4 refutes even without congruence reasoning.
        let (_, _, y, h) = setup();
        let hy = Term::app(h, vec![Term::var(y)]);
        let f = Formula::atom(Atom::eq(hy.clone(), Term::int(3)))
            .and(Formula::atom(Atom::eq(hy.clone(), Term::int(4))));
        assert_eq!(pre(&f), PreVerdict::Unsat);
        // But distinct applications stay independent (no congruence):
        // h(1) = 3 ∧ h(2) = 4 is open, not refuted.
        let g = Formula::atom(Atom::eq(Term::app(h, vec![Term::int(1)]), Term::int(3))).and(
            Formula::atom(Atom::eq(Term::app(h, vec![Term::int(2)]), Term::int(4))),
        );
        assert_eq!(pre(&g), PreVerdict::Unknown);
    }

    #[test]
    fn disjunctive_residue_is_truth_checked_not_narrowed() {
        let (_, x, y, _) = setup();
        // x = 5 ∧ (x < 3 ∨ x > 9): both arms abstractly false under the
        // narrowed environment.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(5))).and(
            Formula::atom(Atom::new(Term::var(x), Rel::Lt, Term::int(3))).or(Formula::atom(
                Atom::new(Term::var(x), Rel::Gt, Term::int(9)),
            )),
        );
        assert_eq!(pre(&f), PreVerdict::Unsat);
        // A live arm must NOT narrow: x = 5 ∧ (x < 3 ∨ y > 0) is open.
        let g = Formula::atom(Atom::eq(Term::var(x), Term::int(5))).and(
            Formula::atom(Atom::new(Term::var(x), Rel::Lt, Term::int(3))).or(Formula::atom(
                Atom::new(Term::var(y), Rel::Gt, Term::int(0)),
            )),
        );
        assert_eq!(pre(&g), PreVerdict::Unknown);
    }

    #[test]
    fn valid_only_from_refuted_negation() {
        let (_, x, _, _) = setup();
        // x ≤ 3 ∨ x ≥ 2 is a tautology: its negation x > 3 ∧ x < 2 is
        // abstractly empty.
        let f = Formula::atom(Atom::new(Term::var(x), Rel::Le, Term::int(3))).or(Formula::atom(
            Atom::new(Term::var(x), Rel::Ge, Term::int(2)),
        ));
        assert_eq!(pre(&f), PreVerdict::Valid);
        // A merely satisfiable formula is NOT valid — narrowing must not
        // leak assumed truth into the verdict.
        let g = Formula::atom(Atom::eq(Term::var(x), Term::int(3)));
        assert_eq!(pre(&g), PreVerdict::Unknown);
        // And without want_valid the backend does not spend the negation
        // pass.
        assert_eq!(
            AbstractBackend.pre_check(&f.nnf(), false),
            PreVerdict::Unknown
        );
    }

    #[test]
    fn nonlinear_atoms_silence_the_backend() {
        // x·y = 0 ∧ 1 = 2-style contradictions must NOT be answered: the
        // DPLL(T) layer has to surface NonLinearError exactly as before.
        let (_, x, y, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x) * Term::var(y), Term::int(6)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(1))))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        assert_eq!(pre(&f), PreVerdict::Unknown);
        // Same for a nonlinear atom hidden in a disjunct.
        let g = Formula::atom(Atom::eq(Term::var(x), Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))))
            .and(
                Formula::atom(Atom::eq(Term::var(x) * Term::var(y), Term::int(6)))
                    .or(Formula::atom(Atom::eq(Term::var(y), Term::int(0)))),
            );
        assert_eq!(pre(&g), PreVerdict::Unknown);
    }

    #[test]
    fn forced_model_answers_pin_conjunctions() {
        // x = 567 ∧ y = 42 pins every variable; the unique model comes
        // back without DPLL(T).
        let (_, x, y, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(567)))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(42))));
        match AbstractBackend.pre_check_model(&f.nnf()) {
            ModelVerdict::Forced(m) => {
                assert_eq!(m.var(x), Some(Value::Int(567)));
                assert_eq!(m.var(y), Some(Value::Int(42)));
                assert_eq!(m.var_count(), 2);
            }
            other => panic!("expected a forced model, got {other:?}"),
        }
        // Residue over pinned variables is fine: x = 5 ∧ (x > 0 ∨ x > 7)
        // evaluates true under the forced assignment.
        let g = Formula::atom(Atom::eq(Term::var(x), Term::int(5))).and(
            Formula::atom(Atom::new(Term::var(x), Rel::Gt, Term::int(0))).or(Formula::atom(
                Atom::new(Term::var(x), Rel::Gt, Term::int(7)),
            )),
        );
        match AbstractBackend.pre_check_model(&g.nnf()) {
            ModelVerdict::Forced(m) => assert_eq!(m.var(x), Some(Value::Int(5))),
            other => panic!("expected a forced model, got {other:?}"),
        }
    }

    #[test]
    fn unforced_and_app_bearing_formulas_fall_through() {
        let (_, x, y, h) = setup();
        // y is only excluded from one point, never pinned: no forcing.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(5)))
            .and(Formula::atom(Atom::ne(Term::var(y), Term::int(3))));
        assert_eq!(
            AbstractBackend.pre_check_model(&f.nnf()),
            ModelVerdict::Unknown
        );
        // Applications need interpretation entries only DPLL(T) builds:
        // even a fully pinned app-bearing formula falls through.
        let hy = Term::app(h, vec![Term::var(y)]);
        let g = Formula::atom(Atom::eq(Term::var(y), Term::int(2)))
            .and(Formula::atom(Atom::eq(hy, Term::int(7))));
        assert_eq!(
            AbstractBackend.pre_check_model(&g.nnf()),
            ModelVerdict::Unknown
        );
    }

    #[test]
    fn cascade_counts_outcomes() {
        let (_, x, y, _) = setup();
        let cascade = Cascade::default();
        let unsat = Formula::atom(Atom::eq(Term::var(x), Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        let open = Formula::atom(Atom::ne(Term::var(x), Term::int(1)));
        let pinned = Formula::atom(Atom::eq(Term::var(x), Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(2))));
        assert_eq!(cascade.pre_check(&unsat, false), PreVerdict::Unsat);
        assert_eq!(cascade.pre_check(&open, false), PreVerdict::Unknown);
        assert!(matches!(
            cascade.pre_check_model(&pinned),
            ModelVerdict::Forced(_)
        ));
        let stats = cascade.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.unsat_short_circuits, 1);
        assert_eq!(stats.valid_short_circuits, 0);
        assert_eq!(stats.sat_short_circuits, 1);
        assert_eq!(stats.short_circuits(), 2);
        assert_eq!(stats.fallthrough(), 1);
    }
}
