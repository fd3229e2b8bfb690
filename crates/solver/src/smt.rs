//! Lazy DPLL(T) for quantifier-free formulas over linear integer
//! arithmetic plus equality with uninterpreted functions (`T ∪ T_EUF`,
//! Section 5.2 of the paper).
//!
//! Uninterpreted applications are handled by *Ackermann expansion*: each
//! distinct application becomes an opaque integer unknown, and for every
//! pair of same-symbol applications a functional-consistency clause
//! `args₁ = args₂ → f(args₁) = f(args₂)` is conjoined to the input. The
//! result is a pure LIA problem solved by CDCL over the boolean
//! abstraction with simplex + branch-and-bound as the theory oracle.
//!
//! Each query is encoded once into a `TheoryTable`: every atom is
//! linearized straight from its terms into a gcd-reduced integer row over
//! keys borrowed from the query, each distinct row is stored once in a
//! flat buffer, and each theory atom registered with the boolean
//! abstraction is a `Con`, a sign/constant view of its row (so are the
//! eager `=` split and the `≤` negation). Once encoding ends the key ids
//! are the ranks of the sorted key universe. A refinement round picks
//! the asserted views by atom index and hands them to the LIA layer,
//! which builds its root tableau from the rows in one pass; a `LinKey` is
//! built only for a `Sat` model. The order of atoms and constraints is
//! the registration order, so the SAT variables, clauses, rounds and
//! models are those the kernel contract in `DESIGN.md` pins.

use crate::atoms::{Canon, Con, KeyRef, TableBuilder, TheoryTable};
use crate::cache::{CacheStats, Keyed, QueryCache};
use crate::lia::{solve_ids, ConKind, LiaConfig, LiaResult};
use hotg_logic::{Atom, FastMap, Formula, LogicArena, Model, NonLinearError, Term, Value};
use hotg_sat::{Lit, SatResult, SatSolver};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Result of an SMT satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable: the model assigns every variable of the formula and
    /// gives explicit interpretation entries for every application in it.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The budget was exhausted before a definitive answer.
    Unknown,
}

impl SmtResult {
    /// `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// This result's model-free verdict.
    pub fn verdict(&self) -> Verdict {
        match self {
            SmtResult::Sat(_) => Verdict::Sat,
            SmtResult::Unsat => Verdict::Unsat,
            SmtResult::Unknown => Verdict::Unknown,
        }
    }
}

/// A model-free satisfiability verdict: what [`SmtSolver::verdict`]
/// returns to callers that only test `Unsat`-ness (refutation proofs,
/// validity certification).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable (no model offered).
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The budget was exhausted before a definitive answer.
    Unknown,
}

/// Configuration of the SMT solver.
#[derive(Clone, Copy, Debug)]
pub struct SmtConfig {
    /// Theory-solver configuration (variable bounds, branching budget).
    pub lia: LiaConfig,
    /// Maximum number of SAT ↔ theory refinement rounds.
    pub max_rounds: u64,
    /// Total branch-and-bound nodes the per-round theory checks of one
    /// `check` may spend across all its refinement rounds. Without this
    /// pool a hard query can pay the full per-round LIA budget
    /// `max_rounds` times — hours of wall clock — before conceding
    /// `Unknown`. Every preference-box attempt of a round draws at least
    /// one node from it while it lasts, a box skipped because one
    /// asserted row already refutes it included
    /// ([`LiaConfig::prefer_small`]). Core minimization does not draw
    /// from it: each deletion probe gets its own `min(lia.node_budget,
    /// 400)` allowance, and a conflict runs at most 96 probes. So one
    /// check is bounded by `max_rounds` rounds, `total_node_budget` theory
    /// nodes, and at most 96 × 400 minimization nodes per conflict.
    pub total_node_budget: u64,
}

impl SmtConfig {
    /// The default configuration.
    pub fn new() -> SmtConfig {
        SmtConfig {
            lia: LiaConfig::default(),
            max_rounds: 100_000,
            total_node_budget: 120_000,
        }
    }
}

impl Default for SmtConfig {
    fn default() -> SmtConfig {
        SmtConfig::new()
    }
}

/// A quantifier-free `T ∪ T_EUF` satisfiability solver.
///
/// # Examples
///
/// ```
/// use hotg_logic::{Atom, Formula, Signature, Sort, Term};
/// use hotg_solver::smt::{SmtResult, SmtSolver};
///
/// let mut sig = Signature::new();
/// let x = sig.declare_var("x", Sort::Int);
/// let h = sig.declare_func("hash", 1);
/// // x = hash(42) ∧ hash(42) = 567  ⇒  x = 567.
/// let f = Formula::atom(Atom::eq(Term::var(x), Term::app(h, vec![Term::int(42)])))
///     .and(Formula::atom(Atom::eq(Term::app(h, vec![Term::int(42)]), Term::int(567))));
/// match SmtSolver::new().check(&f)? {
///     SmtResult::Sat(m) => assert_eq!(Term::var(x).eval(&m), Some(567)),
///     _ => unreachable!(),
/// }
/// # Ok::<(), hotg_logic::NonLinearError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SmtSolver {
    config: SmtConfig,
    /// Memo table over *normalized* input formulas. Shared by clones of
    /// this solver (and by the worker threads of a parallel campaign).
    cache: Arc<QueryCache<Keyed<Arc<Formula>>, SmtResult>>,
    /// Hash-consing arena memoizing the `nnf().normalize()` pre-pass and
    /// fingerprints per unique formula. Shared by clones (and, via
    /// [`SmtSolver::with_arena`], by the whole campaign) — sharing is
    /// safe because the memo is behavior-free: it stores exactly what the
    /// pre-pass would recompute.
    arena: Arc<LogicArena>,
    /// Optional query tap: every formula posed to [`SmtSolver::check`]
    /// on this solver (or a clone sharing it) is appended here *before*
    /// normalization and cache lookup. The benchmark harness uses it to
    /// capture a campaign's real query stream for offline replay; it
    /// never affects verdicts.
    recorder: Option<Arc<Mutex<Vec<Formula>>>>,
    /// Number of [`SmtSolver::check`] calls, shared by clones like the
    /// cache.
    queries: Arc<AtomicU64>,
}

impl Default for SmtSolver {
    fn default() -> SmtSolver {
        SmtSolver::new()
    }
}

/// A theory atom registered with the boolean abstraction: its primitive,
/// asserted when `var` is true (for `Le` atoms, its negation view when
/// `var` is false).
#[derive(Debug)]
struct TheoryAtom {
    con: Con,
    var: u32,
}

/// The boolean abstraction of one query, over its theory table.
#[derive(Debug)]
struct Encoder<'a> {
    sat: SatSolver,
    table: TableBuilder<'a>,
    /// Primitive → its SAT variable.
    atom_vars: FastMap<Con, u32>,
    /// Registered theory atoms, in registration order.
    atoms: Vec<TheoryAtom>,
    true_var: Option<u32>,
}

/// An encoded query: the boolean abstraction, the theory atoms, the
/// finished table and its keys by rank.
struct Query<'a> {
    sat: SatSolver,
    atoms: Vec<TheoryAtom>,
    table: TheoryTable,
    keys: Vec<KeyRef<'a>>,
}

impl<'a> Encoder<'a> {
    /// Encodes `f` asserted: its Tseitin clauses over the theory atoms.
    fn query(f: &'a Formula) -> Result<Query<'a>, NonLinearError> {
        let mut enc = Encoder {
            sat: SatSolver::new(),
            table: TableBuilder::new(),
            atom_vars: FastMap::default(),
            atoms: Vec::new(),
            true_var: None,
        };
        let top = enc.encode(f)?;
        enc.sat.add_clause([top]);
        let (table, keys) = enc.table.finish();
        Ok(Query {
            sat: enc.sat,
            atoms: enc.atoms,
            table,
            keys,
        })
    }

    fn true_lit(&mut self) -> Lit {
        let v = match self.true_var {
            Some(v) => v,
            None => {
                let v = self.sat.new_var();
                self.sat.add_clause([Lit::pos(v)]);
                self.true_var = Some(v);
                v
            }
        };
        Lit::pos(v)
    }

    fn prim_var(&mut self, con: Con) -> u32 {
        if let Some(&v) = self.atom_vars.get(&con) {
            return v;
        }
        let v = self.sat.new_var();
        self.atom_vars.insert(con, v);
        self.atoms.push(TheoryAtom { con, var: v });
        if con.kind == ConKind::Eq {
            // Eager case split: ¬(e = 0) → (e < 0 ∨ e > 0), plus mutual
            // exclusions for fast propagation.
            let (lt, gt) = con.eq_split();
            let lv = self.prim_var(lt);
            let gv = self.prim_var(gt);
            self.sat
                .add_clause([Lit::pos(v), Lit::pos(lv), Lit::pos(gv)]);
            self.sat.add_clause([Lit::neg(v), Lit::neg(lv)]);
            self.sat.add_clause([Lit::neg(v), Lit::neg(gv)]);
            self.sat.add_clause([Lit::neg(lv), Lit::neg(gv)]);
        }
        v
    }

    fn encode_atom(&mut self, atom: &'a Atom) -> Result<Lit, NonLinearError> {
        Ok(match self.table.atom(atom)? {
            Canon::Const(true) => self.true_lit(),
            Canon::Const(false) => !self.true_lit(),
            Canon::Con { con, positive } => Lit::new(self.prim_var(con), positive),
        })
    }

    /// Tseitin encoding: returns a literal equivalent to `f`.
    fn encode(&mut self, f: &'a Formula) -> Result<Lit, NonLinearError> {
        Ok(match f {
            Formula::True => self.true_lit(),
            Formula::False => !self.true_lit(),
            Formula::Atom(a) => self.encode_atom(a)?,
            Formula::Not(inner) => !self.encode(inner)?,
            Formula::And(parts) => {
                let lits = parts
                    .iter()
                    .map(|p| self.encode(p))
                    .collect::<Result<Vec<Lit>, _>>()?;
                let aux = self.sat.new_var();
                let a = Lit::pos(aux);
                for &l in &lits {
                    self.sat.add_clause([!a, l]);
                }
                let mut big: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                big.push(a);
                self.sat.add_clause(big);
                a
            }
            Formula::Or(parts) => {
                let lits = parts
                    .iter()
                    .map(|p| self.encode(p))
                    .collect::<Result<Vec<Lit>, _>>()?;
                let aux = self.sat.new_var();
                let a = Lit::pos(aux);
                // a → (l₁ ∨ … ∨ lₙ)
                let mut big: Vec<Lit> = lits.clone();
                big.insert(0, !a);
                self.sat.add_clause(big);
                // each lᵢ → a
                for &l in &lits {
                    self.sat.add_clause([!l, a]);
                }
                a
            }
        })
    }
}

impl SmtSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> SmtSolver {
        SmtSolver::with_config(SmtConfig::new())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SmtConfig) -> SmtSolver {
        SmtSolver {
            config,
            cache: Arc::new(QueryCache::new()),
            arena: Arc::new(LogicArena::new()),
            recorder: None,
            queries: Arc::default(),
        }
    }

    /// Replaces this solver's term arena with a shared (typically
    /// campaign-owned) one, so the memoized normalization pre-pass is
    /// shared across every solver of the campaign.
    pub fn with_arena(mut self, arena: Arc<LogicArena>) -> SmtSolver {
        self.arena = arena;
        self
    }

    /// Attaches a query tap: every formula posed to [`SmtSolver::check`]
    /// on this solver or a clone of it is appended
    /// to `log` before any cache lookup or normalization. Verdicts are
    /// unaffected; the benchmark harness replays the captured stream to
    /// measure solver throughput.
    pub fn with_recorder(mut self, log: Arc<Mutex<Vec<Formula>>>) -> SmtSolver {
        self.recorder = Some(log);
        self
    }

    /// The arena this solver interns queries into.
    pub fn arena(&self) -> &Arc<LogicArena> {
        &self.arena
    }

    /// Number of [`SmtSolver::check`] calls on this solver and every
    /// clone of it.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Hit/miss counters of the query cache. The campaign engine reads
    /// these once at campaign end and publishes them as a single
    /// `CacheStats` event (merged with the validity checker's counters),
    /// which is why they are the one piece of report accounting allowed
    /// to vary with worker scheduling: whichever thread first poses a
    /// query charges the miss.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Conjoins functional-consistency (Ackermann) clauses for every pair
    /// of same-symbol applications in `f`.
    fn ackermannize(f: &Formula) -> Formula {
        let apps = f.apps();
        let mut out = f.clone();
        for i in 0..apps.len() {
            for j in (i + 1)..apps.len() {
                let (Term::App(fi, ai), Term::App(fj, aj)) = (&apps[i], &apps[j]) else {
                    continue;
                };
                if fi != fj || ai.len() != aj.len() {
                    continue;
                }
                let mut clause: Vec<Formula> = ai
                    .iter()
                    .zip(aj.iter())
                    .map(|(a, b)| Formula::atom(Atom::ne(a.clone(), b.clone())))
                    .collect();
                clause.push(Formula::atom(Atom::eq(apps[i].clone(), apps[j].clone())));
                out = out.and(Formula::disj(clause));
            }
        }
        out
    }

    /// Decides satisfiability of a quantifier-free formula.
    ///
    /// # Errors
    ///
    /// Returns [`NonLinearError`] if the formula contains a term outside
    /// the linear theory (non-constant multiplication, division,
    /// remainder). Callers are expected to have eliminated those via
    /// concretization or uninterpreted functions first — that is the whole
    /// point of the paper.
    pub fn check(&self, formula: &Formula) -> Result<SmtResult, NonLinearError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(log) = &self.recorder {
            log.lock().expect("recorder lock").push(formula.clone());
        }
        self.solve(formula)
    }

    /// Decides satisfiability when the caller only needs the verdict,
    /// never a model (refutation tests like `check(f) == Unsat`).
    ///
    /// Shares [`SmtSolver::check`]'s cache, so either call memoizes the
    /// answer for the other; unlike `check`, it is neither counted by
    /// [`SmtSolver::queries`] nor appended to the query tap.
    ///
    /// # Errors
    ///
    /// Returns [`NonLinearError`] exactly as [`SmtSolver::check`] would.
    pub fn verdict(&self, formula: &Formula) -> Result<Verdict, NonLinearError> {
        Ok(self.solve(formula)?.verdict())
    }

    /// The one query path: normalize, look up the cache, and on a miss
    /// Ackermannize, decide by DPLL(T) and store the result.
    fn solve(&self, formula: &Formula) -> Result<SmtResult, NonLinearError> {
        // Normalization (flatten/dedup/fold) is a logical equivalence over
        // the same atoms, so the memoized result — including a SAT model —
        // transfers to every formula with the same normal form. The arena
        // memoizes the pre-pass per unique formula, so a query seen before
        // (even by a different solver sharing the arena) skips it.
        let (norm, fp) = self.arena.normal(formula);
        let key = Keyed::new(fp, norm);
        if let Some(cached) = self.cache.get(&key) {
            return Ok(cached);
        }
        let full = Self::ackermannize(key.payload());
        let mut query = Encoder::query(&full)?;
        let result = self.refine(&mut query, &full);
        self.cache.insert(key, result.clone());
        Ok(result)
    }

    /// The lazy CDCL(T) refinement loop over an already-encoded query:
    /// every round asserts the atoms the boolean model picks against the
    /// theory and, on a theory conflict, adds a blocking clause.
    fn refine(&self, q: &mut Query<'_>, full: &Formula) -> SmtResult {
        // One node pool for the whole check: every per-round theory query
        // draws from it, so total work is bounded even when individual
        // rounds are hard. Core minimization probes carry their own capped
        // allowance (see `minimize_core`), not a share of this pool.
        let mut pool = self.config.total_node_budget;

        for _round in 0..self.config.max_rounds {
            match q.sat.solve() {
                SatResult::Unsat => return SmtResult::Unsat,
                SatResult::Sat(bmodel) => {
                    // Gather asserted theory constraints, remembering the
                    // boolean literal that asserted each.
                    let mut constraints: Vec<Con> = Vec::with_capacity(q.atoms.len());
                    let mut asserting: Vec<Lit> = Vec::with_capacity(q.atoms.len());
                    for atom in &q.atoms {
                        let var = atom.var;
                        if bmodel[var as usize] {
                            constraints.push(atom.con);
                            asserting.push(Lit::neg(var));
                        } else if atom.con.kind == ConKind::Le {
                            constraints.push(atom.con.negate_le());
                            asserting.push(Lit::pos(var));
                        }
                        // A negative equality contributes nothing: the
                        // eager split clauses force one of the strict
                        // sides instead.
                    }
                    let mut call_pool = self.config.lia.node_budget.min(pool);
                    let reserve = pool - call_pool;
                    let result =
                        solve_ids(&q.table, &constraints, &self.config.lia, &mut call_pool);
                    pool = reserve + call_pool;
                    match result {
                        LiaResult::Sat(values) => {
                            let assign = values
                                .into_iter()
                                .map(|(id, v)| (q.keys[id as usize], v))
                                .collect();
                            let model = Self::build_model(full, &assign);
                            debug_assert_eq!(full.eval(&model), Some(true));
                            return SmtResult::Sat(model);
                        }
                        LiaResult::Unknown => return SmtResult::Unknown,
                        LiaResult::Unsat { core } => {
                            // Prefer the provenance core from the theory
                            // solver; fall back to deletion-based
                            // minimization when branching or artificial
                            // bounds were involved. (An empty constraint
                            // list is always feasible, so `asserting` is
                            // never empty here.)
                            let core = match core {
                                Some(c) => c,
                                None => self.minimize_core(&q.table, &constraints),
                            };
                            q.sat.add_clause(core.iter().map(|&i| asserting[i]));
                        }
                    }
                }
            }
        }
        SmtResult::Unknown
    }

    /// Deletion-based unsat-core minimization: returns indices of a
    /// (locally minimal) subset of `constraints` that is still
    /// unsatisfiable. Small cores make the blocking clauses strong, which
    /// keeps the lazy refinement loop from enumerating exponentially many
    /// boolean assignments.
    fn minimize_core(&self, table: &TheoryTable, constraints: &[Con]) -> Vec<usize> {
        let mut core: Vec<usize> = (0..constraints.len()).collect();
        // Cap the minimization work on very large assertion sets.
        if constraints.len() > 96 {
            return core;
        }
        // Feasibility checks only — no need to polish models. The node
        // budget is capped hard: minimization is a best-effort heuristic
        // running up to ~96 solves per conflict, and a deletion probe that
        // comes back Unknown under the cap simply keeps its constraint
        // (sound — the core stays unsatisfiable, just less minimal).
        let lia = LiaConfig {
            prefer_small: false,
            node_budget: self.config.lia.node_budget.min(400),
            ..self.config.lia
        };
        let mut i = 0;
        while i < core.len() {
            let candidate: Vec<Con> = core
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &k)| constraints[k])
                .collect();
            let mut budget = lia.node_budget;
            if solve_ids(table, &candidate, &lia, &mut budget).is_unsat() {
                core.remove(i);
            } else {
                i += 1;
            }
        }
        core
    }

    /// Builds a [`Model`] from a LIA assignment: variables first, then
    /// applications innermost-first so argument evaluation is total.
    fn build_model(full: &Formula, assign: &BTreeMap<KeyRef<'_>, i64>) -> Model {
        let mut model = Model::new();
        for v in full.vars() {
            let value = assign.get(&KeyRef::Var(v)).copied().unwrap_or(0);
            model.set_var(v, Value::Int(value));
        }
        for app in full.apps() {
            let Term::App(f, args) = &app else {
                continue;
            };
            // Applications are visited innermost-first, so nested apps are
            // already in the model; evaluation can then only fail on i64
            // overflow inside an operator fold. Such an application's value
            // is unconstrained by the assignment — skip the entry rather
            // than panic a campaign worker over an unrepresentable tuple.
            let Some(arg_vals) = args
                .iter()
                .map(|a| a.eval(&model))
                .collect::<Option<Vec<i64>>>()
            else {
                continue;
            };
            let value = assign.get(&KeyRef::App(&app)).copied().unwrap_or(0);
            if let Some(prev) = model.apply(*f, &arg_vals) {
                debug_assert_eq!(
                    prev, value,
                    "Ackermann clauses must enforce functional consistency"
                );
            } else {
                model.set_func_entry(*f, arg_vals, value);
            }
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::{Rel, Signature, Sort, Var};

    fn setup() -> (Signature, Var, Var, hotg_logic::FuncSym) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let h = sig.declare_func("h", 1);
        (sig, x, y, h)
    }

    fn solve(f: &Formula) -> SmtResult {
        SmtSolver::new().check(f).expect("linear formula")
    }

    #[test]
    fn trivial_formulas() {
        assert!(solve(&Formula::True).is_sat());
        assert_eq!(solve(&Formula::False), SmtResult::Unsat);
    }

    #[test]
    fn simple_equality() {
        let (_, x, _, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(42)));
        match solve(&f) {
            SmtResult::Sat(m) => assert_eq!(m.var(x), Some(Value::Int(42))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_equalities() {
        let (_, x, _, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn disequality_chain() {
        let (_, x, _, _) = setup();
        // x ≠ 0 ∧ x ≥ 0 ∧ x ≤ 1  ⇒  x = 1.
        let f = Formula::atom(Atom::ne(Term::var(x), Term::int(0)))
            .and(Formula::atom(Atom::new(
                Term::var(x),
                Rel::Ge,
                Term::int(0),
            )))
            .and(Formula::atom(Atom::new(
                Term::var(x),
                Rel::Le,
                Term::int(1),
            )));
        match solve(&f) {
            SmtResult::Sat(m) => assert_eq!(m.var(x), Some(Value::Int(1))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn disequality_window_unsat() {
        let (_, x, _, _) = setup();
        // 0 < x < 2 ∧ x ≠ 1.
        let f = Formula::atom(Atom::new(Term::var(x), Rel::Gt, Term::int(0)))
            .and(Formula::atom(Atom::new(
                Term::var(x),
                Rel::Lt,
                Term::int(2),
            )))
            .and(Formula::atom(Atom::ne(Term::var(x), Term::int(1))));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn disjunction_picks_feasible_branch() {
        let (_, x, _, _) = setup();
        // (x = 1 ∧ x = 2) ∨ x = 7.
        let bad = Formula::atom(Atom::eq(Term::var(x), Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        let good = Formula::atom(Atom::eq(Term::var(x), Term::int(7)));
        match solve(&bad.or(good)) {
            SmtResult::Sat(m) => assert_eq!(m.var(x), Some(Value::Int(7))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn negation_of_conjunction() {
        let (_, x, y, _) = setup();
        // ¬(x = 0 ∧ y = 0) ∧ x = 0  ⇒  y ≠ 0.
        let inner = Formula::atom(Atom::eq(Term::var(x), Term::int(0)))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(0))));
        let f =
            Formula::Not(Box::new(inner)).and(Formula::atom(Atom::eq(Term::var(x), Term::int(0))));
        match solve(&f) {
            SmtResult::Sat(m) => {
                assert_eq!(m.var(x), Some(Value::Int(0)));
                assert_ne!(m.var(y), Some(Value::Int(0)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn uf_app_as_unknown() {
        let (_, x, y, h) = setup();
        // x = h(y): satisfiable, with the model inventing h.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::app(h, vec![Term::var(y)])));
        match solve(&f) {
            SmtResult::Sat(m) => {
                let hy = Term::app(h, vec![Term::var(y)]);
                assert_eq!(Term::var(x).eval(&m), hy.eval(&m));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn functional_consistency_enforced() {
        let (_, x, y, h) = setup();
        // x = y ∧ h(x) ≠ h(y) is UNSAT by congruence.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::var(y))).and(Formula::atom(Atom::ne(
            Term::app(h, vec![Term::var(x)]),
            Term::app(h, vec![Term::var(y)]),
        )));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn functional_consistency_with_arithmetic() {
        let (_, x, y, h) = setup();
        // x = y + 1 ∧ y = 4 ∧ h(x) ≠ h(5): UNSAT since x must be 5.
        let f = Formula::atom(Atom::eq(Term::var(x), Term::var(y) + Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(4))))
            .and(Formula::atom(Atom::ne(
                Term::app(h, vec![Term::var(x)]),
                Term::app(h, vec![Term::int(5)]),
            )));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn samples_pin_uf_values() {
        let (_, x, y, h) = setup();
        // h(42) = 567 ∧ y = 42 ∧ x = h(y)  ⇒  x = 567.
        let f = Formula::atom(Atom::eq(Term::app(h, vec![Term::int(42)]), Term::int(567)))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(42))))
            .and(Formula::atom(Atom::eq(
                Term::var(x),
                Term::app(h, vec![Term::var(y)]),
            )));
        match solve(&f) {
            SmtResult::Sat(m) => assert_eq!(m.var(x), Some(Value::Int(567))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn example1_sound_concretization_unsat() {
        // The paper's Example 1: y = 42 ∧ x = 567 ∧ y = 10 is UNSAT.
        let (_, x, y, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(y), Term::int(42)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(567))))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(10))));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn multi_arg_function() {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let g = sig.declare_func("g", 2);
        // g(x, 1) = 5 ∧ g(2, 1) = 6 ∧ x = 2: UNSAT by congruence.
        let f = Formula::atom(Atom::eq(
            Term::app(g, vec![Term::var(x), Term::int(1)]),
            Term::int(5),
        ))
        .and(Formula::atom(Atom::eq(
            Term::app(g, vec![Term::int(2), Term::int(1)]),
            Term::int(6),
        )))
        .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        assert_eq!(solve(&f), SmtResult::Unsat);
    }

    #[test]
    fn nested_applications() {
        let (_, x, _, h) = setup();
        // h(h(x)) = 5 ∧ h(x) = x  ⇒  h(x) = 5 ∧ x = 5 consistent:
        // x = 5, h(5) = 5.
        let hx = Term::app(h, vec![Term::var(x)]);
        let hhx = Term::app(h, vec![hx.clone()]);
        let f = Formula::atom(Atom::eq(hhx.clone(), Term::int(5)))
            .and(Formula::atom(Atom::eq(hx.clone(), Term::var(x))));
        match solve(&f) {
            SmtResult::Sat(m) => {
                assert_eq!(hhx.eval(&m), Some(5));
                assert_eq!(hx.eval(&m), Term::var(x).eval(&m));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn nonlinear_reports_error() {
        let (_, x, y, _) = setup();
        let f = Formula::atom(Atom::eq(Term::var(x) * Term::var(y), Term::int(6)));
        assert!(SmtSolver::new().check(&f).is_err());
    }

    #[test]
    fn check_counts_and_taps_across_clones() {
        let (_, x, _, _) = setup();
        let log = Arc::new(Mutex::new(Vec::new()));
        let solver = SmtSolver::new().with_recorder(Arc::clone(&log));
        let f = Formula::atom(Atom::eq(Term::var(x), Term::int(3)));
        let g = Formula::atom(Atom::eq(Term::var(x), Term::int(4)));
        assert!(solver.check(&f).expect("linear").is_sat());
        // A clone shares the counter and the tap; a cache hit is still a
        // query.
        let clone = solver.clone();
        assert!(clone.check(&f).expect("linear").is_sat());
        assert!(clone.check(&g).expect("linear").is_sat());
        assert_eq!((solver.queries(), clone.queries()), (3, 3));
        assert_eq!(*log.lock().expect("log"), vec![f.clone(), f.clone(), g]);
        // `verdict` is not a `check`: neither counted nor tapped.
        assert_eq!(solver.verdict(&f), Ok(Verdict::Sat));
        assert_eq!(clone.verdict(&Formula::False), Ok(Verdict::Unsat));
        assert_eq!((solver.queries(), clone.queries()), (3, 3));
        assert_eq!(log.lock().expect("log").len(), 3);
    }

    #[test]
    fn check_and_verdict_share_one_memo() {
        let (_, x, y, _) = setup();
        let eq = |v: Var, c: i64| Formula::atom(Atom::eq(Term::var(v), Term::int(c)));
        let solver = SmtSolver::new();
        let stats = |s: &SmtSolver| {
            let c = s.cache_stats();
            (c.hits, c.misses)
        };
        // A `verdict` after a `check` of an equal normal form (here: up to
        // a duplicate conjunct) is a hit.
        assert!(solver
            .check(&eq(x, 3).and(eq(y, 4)))
            .expect("linear")
            .is_sat());
        assert_eq!(stats(&solver), (0, 1));
        let dup = eq(x, 3).and(eq(y, 4)).and(eq(x, 3));
        assert_eq!(solver.verdict(&dup), Ok(Verdict::Sat));
        assert_eq!(stats(&solver), (1, 1));
        // A `check` after a `verdict` is a hit that returns the model, a
        // valid formula's included.
        let valid = Formula::atom(Atom::new(Term::var(x), Rel::Ge, Term::int(0))).or(
            Formula::atom(Atom::new(Term::var(x), Rel::Lt, Term::int(0))),
        );
        assert_eq!(solver.verdict(&valid), Ok(Verdict::Sat));
        assert_eq!(stats(&solver), (1, 2));
        match solver.check(&valid).expect("linear") {
            SmtResult::Sat(m) => assert_eq!(valid.eval(&m), Some(true)),
            other => panic!("expected SAT, got {other:?}"),
        }
        assert_eq!(stats(&solver), (2, 2));
    }

    #[test]
    fn model_covers_all_apps() {
        let (_, x, y, h) = setup();
        let f = Formula::atom(Atom::eq(
            Term::app(h, vec![Term::var(x)]),
            Term::app(h, vec![Term::var(y)]) + Term::int(1),
        ));
        match solve(&f) {
            SmtResult::Sat(m) => {
                assert_eq!(f.eval(&m), Some(true));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}
