//! Validity checking and strategy synthesis: the heart of higher-order
//! test generation.
//!
//! Given a post-processed path constraint (paper §4.2)
//!
//! ```text
//! POST(pc) = ∃X : A ⇒ pc
//! ```
//!
//! with the uninterpreted function symbols implicitly **universally**
//! quantified, the checker either
//!
//! * proves validity and returns a [`Strategy`] — a binding of every input
//!   to a ground term over constants and function applications (e.g.
//!   "set `y := 10`, set `x := h(10)`"), whose interpretation against the
//!   recorded [`Samples`] yields concrete test inputs or the applications
//!   that must be sampled first (*multi-step test generation*, §5.3
//!   Example 7); or
//! * certifies invalidity by exhibiting a counter-interpretation of the
//!   function symbols consistent with the antecedent (e.g. "`h ≡ 0`" for
//!   Example 4 without samples); or
//! * reports that satisfiability holds only through unsampled
//!   applications, suggesting a *probe* execution.
//!
//! A found strategy `σ` is always certified by a refutation check:
//! `A ∧ ¬pc[σ]` must be unsatisfiable, which (since the function symbols
//! are free) is exactly `∀F : A ⇒ pc[σ]`.

use crate::cache::{CacheStats, Keyed, QueryCache};
use crate::smt::{SmtResult, SmtSolver, Verdict};
use hotg_logic::{Atom, Formula, FuncSym, Model, NonLinearError, Rel, Signature, Term, Value, Var};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The table `IOF` of recorded uninterpreted-function samples
/// `(c, f(args))` (paper Figure 3, line 13).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    entries: BTreeMap<FuncSym, BTreeMap<Vec<i64>, i64>>,
    /// Memoized antecedent conjunction; reset whenever `record` actually
    /// inserts a new pair, so repeated validity queries over a stable
    /// table do not rebuild the formula.
    antecedent: OnceLock<Formula>,
}

/// Equality is over the recorded pairs only — the memoized antecedent is
/// derived state.
impl PartialEq for Samples {
    fn eq(&self, other: &Samples) -> bool {
        self.entries == other.entries
    }
}

impl Eq for Samples {}

impl Samples {
    /// Creates an empty table.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Records one observed input–output pair. Returns `false` (keeping
    /// the first entry) if the same arguments were already recorded with a
    /// different output — unknown functions are assumed deterministic
    /// (paper, proof of Theorem 3).
    pub fn record(&mut self, f: FuncSym, args: Vec<i64>, out: i64) -> bool {
        let slot = self.entries.entry(f).or_default();
        match slot.get(&args) {
            Some(&prev) => prev == out,
            None => {
                slot.insert(args, out);
                self.antecedent = OnceLock::new();
                true
            }
        }
    }

    /// Looks up the recorded output for `f(args)`.
    pub fn lookup(&self, f: FuncSym, args: &[i64]) -> Option<i64> {
        self.entries.get(&f)?.get(args).copied()
    }

    /// Iterates over recorded `(args, out)` pairs of one function.
    pub fn entries_for(&self, f: FuncSym) -> impl Iterator<Item = (&Vec<i64>, i64)> {
        self.entries
            .get(&f)
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, v)| (k, *v)))
    }

    /// `true` if at least one sample is recorded for `f`.
    pub fn has_samples(&self, f: FuncSym) -> bool {
        self.entries.get(&f).is_some_and(|m| !m.is_empty())
    }

    /// Total number of recorded pairs.
    pub fn len(&self) -> usize {
        self.entries.values().map(BTreeMap::len).sum()
    }

    /// `true` if no pairs are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges another table into this one (first writer wins on clashes).
    pub fn merge(&mut self, other: &Samples) {
        for (f, m) in &other.entries {
            for (args, out) in m {
                self.record(*f, args.clone(), *out);
            }
        }
    }

    /// The antecedent `A`: the conjunction of all recorded equalities
    /// `f(args) = out`. Memoized until the next successful [`Samples::record`].
    pub fn to_antecedent(&self) -> Formula {
        self.antecedent
            .get_or_init(|| {
                let mut out = Formula::True;
                for (f, m) in &self.entries {
                    for (args, val) in m {
                        let app = Term::app(*f, args.iter().map(|&a| Term::int(a)).collect());
                        out = out.and(Formula::atom(Atom::eq(app, Term::int(*val))));
                    }
                }
                out
            })
            .clone()
    }

    /// A deterministic structural fingerprint of the recorded pairs
    /// (`BTreeMap` iteration order makes it canonical; the fixed-key
    /// hasher makes the value itself stable across toolchains).
    pub fn fingerprint(&self) -> u64 {
        let mut h = hotg_logic::StableHasher::new();
        self.entries.hash(&mut h);
        h.finish()
    }
}

/// One binding of a [`Strategy`]: set input `var` to the ground term
/// `term` (constants and function applications only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyBinding {
    /// The input being set.
    pub var: Var,
    /// Ground term the input is set to.
    pub term: Term,
}

/// A test-generation strategy derived from a validity proof (paper §4.2:
/// "fix y, then set x to the value h(y)").
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Strategy {
    /// One binding per input, in input order.
    pub bindings: Vec<StrategyBinding>,
}

/// Result of interpreting a strategy against a sample table (§4.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Interpretation {
    /// Every binding evaluates to a concrete value.
    Concrete(BTreeMap<Var, i64>),
    /// Some applications have never been sampled; an intermediate test is
    /// needed to learn their values (multi-step test generation).
    NeedSamples(Vec<(FuncSym, Vec<i64>)>),
}

impl Strategy {
    /// `true` if any binding mentions a function application (so sample
    /// lookups are needed to produce concrete inputs).
    pub fn is_symbolic(&self) -> bool {
        self.bindings.iter().any(|b| !b.term.apps().is_empty())
    }

    /// Interprets the strategy, replacing applications by their recorded
    /// sample values.
    pub fn interpret(&self, samples: &Samples) -> Interpretation {
        let mut out = BTreeMap::new();
        let mut missing = Vec::new();
        for b in &self.bindings {
            if let Some(v) = eval_ground(&b.term, samples, &mut missing) {
                out.insert(b.var, v);
            }
        }
        if missing.is_empty() {
            Interpretation::Concrete(out)
        } else {
            missing.sort();
            missing.dedup();
            Interpretation::NeedSamples(missing)
        }
    }

    /// Partially interprets the strategy: returns the bindings whose
    /// terms evaluate to concrete values under the current samples,
    /// silently skipping those that still need probes. Used to build
    /// intermediate probe inputs in multi-step test generation (the
    /// paper's intermediate test `(x = 567, y = 10)` keeps the old `x`
    /// and applies only the concrete part `y := 10`).
    pub fn interpret_partial(&self, samples: &Samples) -> BTreeMap<Var, i64> {
        let mut out = BTreeMap::new();
        for b in &self.bindings {
            let mut missing = Vec::new();
            if let Some(v) = eval_ground(&b.term, samples, &mut missing) {
                out.insert(b.var, v);
            }
        }
        out
    }

    /// Renders the strategy with names from `sig`.
    pub fn display<'a>(&'a self, sig: &'a Signature) -> StrategyDisplay<'a> {
        StrategyDisplay {
            strategy: self,
            sig,
        }
    }
}

/// Helper returned by [`Strategy::display`].
pub struct StrategyDisplay<'a> {
    strategy: &'a Strategy,
    sig: &'a Signature,
}

impl fmt::Display for StrategyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.strategy.bindings.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(
                f,
                "{} := {}",
                self.sig.var_name(b.var),
                b.term.display(self.sig)
            )?;
        }
        if self.strategy.bindings.is_empty() {
            f.write_str("<empty strategy>")?;
        }
        Ok(())
    }
}

fn eval_ground(t: &Term, samples: &Samples, missing: &mut Vec<(FuncSym, Vec<i64>)>) -> Option<i64> {
    match t {
        Term::Int(c) => Some(*c),
        // Strategy terms are ground by construction (the synthesizer
        // substitutes concrete completions into every binding). A stray
        // variable means a synthesizer bug; mid-campaign that must degrade
        // to "binding not interpretable" (the engine keeps the previous
        // input value), never panic a worker thread.
        Term::Var(_) => {
            debug_assert!(false, "strategy terms must be ground: {t:?}");
            None
        }
        Term::App(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_ground(a, samples, missing)?);
            }
            match samples.lookup(*f, &vals) {
                Some(v) => Some(v),
                None => {
                    missing.push((*f, vals));
                    None
                }
            }
        }
        Term::Op(k, args) => {
            let vals = args
                .iter()
                .map(|a| eval_ground(a, samples, missing))
                .collect::<Option<Vec<i64>>>()?;
            hotg_logic::fold_concrete(*k, &vals)
        }
    }
}

/// A counter-interpretation family certifying invalidity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterInterp {
    /// Any interpretation consistent with the antecedent falsifies the
    /// consequent (the conjunction `A ∧ pc` itself is unsatisfiable).
    Any,
    /// `f(args) ≡ c` outside the sampled points.
    Constant(i64),
    /// `f(args) ≡ Σ args + c` outside the sampled points.
    SumShift(i64),
}

impl fmt::Display for CounterInterp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterInterp::Any => f.write_str("every interpretation"),
            CounterInterp::Constant(c) => write!(f, "f(..) = {c} off samples"),
            CounterInterp::SumShift(c) => write!(f, "f(a..) = sum(a..) + {c} off samples"),
        }
    }
}

/// Outcome of a validity check of `POST(pc)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidityOutcome {
    /// Valid: the strategy is certified by `A ∧ ¬pc[σ]` being UNSAT.
    Valid(Strategy),
    /// Invalid. When `counter` is set the invalidity is *certified* by the
    /// named counter-interpretation; when `None`, no strategy was found
    /// and no certificate either (treated as "no test generated").
    Invalid {
        /// Certifying counter-interpretation, if one was found.
        counter: Option<CounterInterp>,
    },
    /// `A ∧ pc` is satisfiable but only through unsampled applications:
    /// executing the program with `probe` inputs may record the `missing`
    /// samples, after which the check should be retried.
    NeedMoreSamples {
        /// Suggested probe inputs (values for each input variable).
        probe: BTreeMap<Var, i64>,
        /// Unsampled applications the satisfying model relied on.
        missing: Vec<(FuncSym, Vec<i64>)>,
    },
    /// Resource limits were hit.
    Unknown,
}

/// Configuration of the validity checker.
#[derive(Clone, Copy, Debug)]
pub struct ValidityConfig {
    /// Configuration of the underlying SMT solver.
    pub smt: crate::smt::SmtConfig,
    /// Maximum number of DNF cubes explored during strategy synthesis.
    pub max_cubes: usize,
    /// Maximum number of candidate substitutions per cube.
    pub max_candidates: usize,
    /// Counter-interpretation families tried for invalidity certification.
    pub counter_shifts: [i64; 2],
}

impl Default for ValidityConfig {
    fn default() -> ValidityConfig {
        ValidityConfig {
            smt: crate::smt::SmtConfig::new(),
            max_cubes: 32,
            max_candidates: 8,
            counter_shifts: [0, 1],
        }
    }
}

/// The validity checker / strategy synthesizer.
///
/// # Examples
///
/// Reproducing the paper's `obscure` example: after one run with
/// `x = 33, y = 42` observing `hash(42) = 567`, the alternate path
/// constraint `x = hash(y)` is valid and the strategy sets
/// `y := 42, x := hash(42)`:
///
/// ```
/// use hotg_logic::{Atom, Formula, Signature, Sort, Term};
/// use hotg_solver::validity::{Samples, ValidityChecker, ValidityOutcome, Interpretation};
///
/// let mut sig = Signature::new();
/// let x = sig.declare_var("x", Sort::Int);
/// let y = sig.declare_var("y", Sort::Int);
/// let hash = sig.declare_func("hash", 1);
///
/// let mut samples = Samples::new();
/// samples.record(hash, vec![42], 567);
///
/// let pc = Formula::atom(Atom::eq(Term::var(x), Term::app(hash, vec![Term::var(y)])));
/// let outcome = ValidityChecker::new().check(&[x, y], &samples, &pc)?;
/// match outcome {
///     ValidityOutcome::Valid(strategy) => {
///         match strategy.interpret(&samples) {
///             Interpretation::Concrete(inputs) => {
///                 assert_eq!(inputs[&x], 567);
///                 assert_eq!(inputs[&y], 42);
///             }
///             other => panic!("expected concrete inputs, got {other:?}"),
///         }
///     }
///     other => panic!("expected Valid, got {other:?}"),
/// }
/// # Ok::<(), hotg_logic::NonLinearError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ValidityChecker {
    config: ValidityConfig,
    solver: SmtSolver,
    /// Memo of whole validity outcomes, keyed on the normalized query.
    /// Shared by clones of this checker (and campaign worker threads).
    memo: Arc<QueryCache<Keyed<ValidityQuery>, ValidityOutcome>>,
}

/// Exact memo key of one validity query: the outcome of
/// [`ValidityChecker::check_with`] is a pure function of these fields (for
/// a fixed configuration), because the check runs on the *normalized*
/// formulas stored here.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ValidityQuery {
    inputs: Vec<Var>,
    samples: Samples,
    extra: Arc<Formula>,
    pc: Arc<Formula>,
}

impl ValidityQuery {
    fn keyed(
        inputs: &[Var],
        samples: &Samples,
        extra: Arc<Formula>,
        extra_fp: u64,
        pc: Arc<Formula>,
        pc_fp: u64,
    ) -> Keyed<ValidityQuery> {
        let mut h = hotg_logic::StableHasher::new();
        h.write_u64(pc_fp);
        h.write_u64(extra_fp);
        h.write_u64(samples.fingerprint());
        inputs.hash(&mut h);
        let fp = h.finish();
        Keyed::new(
            fp,
            ValidityQuery {
                inputs: inputs.to_vec(),
                samples: samples.clone(),
                extra,
                pc,
            },
        )
    }
}

impl ValidityChecker {
    /// Creates a checker with the default configuration.
    pub fn new() -> ValidityChecker {
        ValidityChecker::default()
    }

    /// Creates a checker with an explicit configuration.
    pub fn with_config(config: ValidityConfig) -> ValidityChecker {
        ValidityChecker {
            solver: SmtSolver::with_config(config.smt),
            config,
            memo: Arc::new(QueryCache::new()),
        }
    }

    /// A checker whose SMT solver interns through `arena` instead of its
    /// private one. The arena only memoizes values the solver stack would
    /// recompute, so sharing one campaign-wide arena is behavior-free.
    pub fn with_arena(mut self, arena: Arc<hotg_logic::LogicArena>) -> ValidityChecker {
        self.solver = self.solver.with_arena(arena);
        self
    }

    /// The term/formula arena the underlying solver interns through.
    pub fn arena(&self) -> &Arc<hotg_logic::LogicArena> {
        self.solver.arena()
    }

    /// Combined hit/miss counters of the outcome memo and the underlying
    /// SMT solver's query cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.memo.stats().merged(self.solver.cache_stats())
    }

    /// Checks validity of `POST(pc) = ∃X : A ⇒ pc` with all function
    /// symbols universally quantified, where `A` is the antecedent built
    /// from `samples` and `X` = `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`NonLinearError`] if `pc` contains terms outside the
    /// theory (those should have been concretized or abstracted upstream).
    pub fn check(
        &self,
        inputs: &[Var],
        samples: &Samples,
        pc: &Formula,
    ) -> Result<ValidityOutcome, NonLinearError> {
        self.check_with(inputs, samples, &Formula::True, pc)
    }

    /// Like [`ValidityChecker::check`], with an extra antecedent formula
    /// conjoined to the sample equalities. Used for *higher-order
    /// compositional* test generation (§8): the extra antecedent carries
    /// instantiated function-summary implications, which — like samples —
    /// are universally true statements about the unknown functions.
    pub fn check_with(
        &self,
        inputs: &[Var],
        samples: &Samples,
        extra_antecedent: &Formula,
        pc: &Formula,
    ) -> Result<ValidityOutcome, NonLinearError> {
        // Normalize *before* checking: the computation below then depends
        // only on the memo key, so a memoized outcome is exactly what a
        // fresh computation would produce — racing workers that miss the
        // same key concurrently still all return the same outcome, which
        // keeps parallel campaigns bit-identical to sequential ones. The
        // arena memoizes the normalization per unique formula.
        let (pc, pc_fp) = self.solver.arena().normalized(pc);
        let (extra_antecedent, extra_fp) = self.solver.arena().normalized(extra_antecedent);
        let key = ValidityQuery::keyed(
            inputs,
            samples,
            Arc::clone(&extra_antecedent),
            extra_fp,
            Arc::clone(&pc),
            pc_fp,
        );
        if let Some(outcome) = self.memo.get(&key) {
            return Ok(outcome);
        }
        let outcome = self.check_uncached(inputs, samples, &extra_antecedent, &pc)?;
        self.memo.insert(key, outcome.clone());
        Ok(outcome)
    }

    /// The uncached body of [`ValidityChecker::check_with`]; `pc` and
    /// `extra_antecedent` are already normalized.
    fn check_uncached(
        &self,
        inputs: &[Var],
        samples: &Samples,
        extra_antecedent: &Formula,
        pc: &Formula,
    ) -> Result<ValidityOutcome, NonLinearError> {
        let antecedent = samples.to_antecedent();
        // The extra antecedent may mention the input variables (summary
        // implications are instantiated at the call-site argument terms).
        // For *search* it is conjoined freely; for *certification* it is
        // instantiated at the candidate strategy — a ground instance of a
        // universally true fact — so vacuous-antecedent strategies cannot
        // be certified.
        let search = antecedent.clone().and(extra_antecedent.clone());

        // Step 1: if A ∧ pc is unsatisfiable even with existential F,
        // POST(pc) is definitively invalid.
        let base = search.clone().and(pc.clone());
        let base_model = match self.solver.check(&base)? {
            SmtResult::Unsat => {
                return Ok(ValidityOutcome::Invalid {
                    counter: Some(CounterInterp::Any),
                })
            }
            SmtResult::Unknown => return Ok(ValidityOutcome::Unknown),
            SmtResult::Sat(m) => m,
        };

        // Step 2 (route A): satisfiability with *covered* applications —
        // the generalization of the paper's §7 sample-inversion
        // pre-processing. Any model found is a concrete valid strategy.
        if let Some(coverage) = coverage_formula(pc, samples) {
            let covered = base.clone().and(coverage);
            if let SmtResult::Sat(m) = self.solver.check(&covered)? {
                let strategy = concrete_strategy(inputs, &m);
                if self.certify(&antecedent, extra_antecedent, pc, &strategy)? {
                    return Ok(ValidityOutcome::Valid(strategy));
                }
            }
        }

        // Step 3 (route B): unification-based symbolic strategies —
        // needed for EUF-axiom strategies (Example 5) and multi-step
        // generation (Example 7).
        if let Some(cubes) = dnf(&pc.nnf(), self.config.max_cubes) {
            for cube in cubes {
                let candidates = unify_cube(&cube, samples, self.config.max_candidates);
                for subst in candidates {
                    if let Some(strategy) = self.complete_and_certify(
                        inputs,
                        samples,
                        &antecedent,
                        extra_antecedent,
                        pc,
                        subst,
                    )? {
                        return Ok(ValidityOutcome::Valid(strategy));
                    }
                }
            }
        }

        // Step 4: try to certify invalidity with counter-interpretations.
        // Skipped when an extra antecedent is present: the counter
        // encoding cannot see the universally quantified facts behind it,
        // so a certificate could name an interpretation that violates
        // them.
        if *extra_antecedent == Formula::True {
            for &shift in &self.config.counter_shifts {
                for counter in [
                    CounterInterp::Constant(shift),
                    CounterInterp::SumShift(shift),
                ] {
                    let encoded = counter_encode(pc, samples, counter).and(antecedent.clone());
                    if self.solver.verdict(&encoded)? == Verdict::Unsat {
                        return Ok(ValidityOutcome::Invalid {
                            counter: Some(counter),
                        });
                    }
                }
            }
        }

        // Step 5 (route C): satisfiable but uncovered — suggest a probe.
        let missing = uncovered_apps(pc, samples, &base_model);
        if !missing.is_empty() {
            let mut probe = BTreeMap::new();
            for &v in inputs {
                let value = base_model.var(v).and_then(Value::int).unwrap_or(0);
                probe.insert(v, value);
            }
            return Ok(ValidityOutcome::NeedMoreSamples { probe, missing });
        }

        Ok(ValidityOutcome::Invalid { counter: None })
    }

    /// Certifies a strategy: `A ∧ extra[σ] ∧ ¬pc[σ]` must be UNSAT.
    /// `extra[σ]` is a ground instance of universally true facts (summary
    /// implications), so conjoining it is sound.
    fn certify(
        &self,
        antecedent: &Formula,
        extra: &Formula,
        pc: &Formula,
        strategy: &Strategy,
    ) -> Result<bool, NonLinearError> {
        let map: BTreeMap<Var, Term> = strategy
            .bindings
            .iter()
            .map(|b| (b.var, b.term.clone()))
            .collect();
        let subst = |v: Var| map.get(&v).cloned();
        let instantiated = pc.subst(&subst);
        let extra_ground = extra.subst(&subst);
        let refutation = antecedent
            .clone()
            .and(extra_ground)
            .and(instantiated.negate());
        // A verdict is all that is needed (and all that is used).
        Ok(self.solver.verdict(&refutation)? == Verdict::Unsat)
    }

    /// Completes a partial substitution with concrete values for the
    /// remaining free variables, then certifies.
    #[allow(clippy::too_many_arguments)]
    fn complete_and_certify(
        &self,
        inputs: &[Var],
        samples: &Samples,
        antecedent: &Formula,
        extra: &Formula,
        pc: &Formula,
        subst: BTreeMap<Var, Term>,
    ) -> Result<Option<Strategy>, NonLinearError> {
        let partial = pc.subst(&|v| subst.get(&v).cloned());
        let extra_partial = extra.subst(&|v| subst.get(&v).cloned());

        // Prefer completions whose applications are sample-covered.
        let goal = antecedent.clone().and(extra_partial).and(partial.clone());
        let completion = match coverage_formula(&partial, samples) {
            Some(cov) => match self.solver.check(&goal.clone().and(cov))? {
                SmtResult::Sat(m) => Some(m),
                _ => match self.solver.check(&goal)? {
                    SmtResult::Sat(m) => Some(m),
                    _ => None,
                },
            },
            None => match self.solver.check(&goal)? {
                SmtResult::Sat(m) => Some(m),
                _ => None,
            },
        };
        let Some(model) = completion else {
            return Ok(None);
        };

        let value_of =
            |v: Var| -> Term { Term::int(model.var(v).and_then(Value::int).unwrap_or(0)) };
        // Ground every binding: substitute free-variable values into the
        // binding terms, and add concrete bindings for free inputs.
        let mut bindings = Vec::new();
        for &v in inputs {
            let term = match subst.get(&v) {
                Some(t) => t.subst(&|w| Some(value_of(w))),
                None => value_of(v),
            };
            bindings.push(StrategyBinding { var: v, term });
        }
        let strategy = Strategy { bindings };
        if self.certify(antecedent, extra, pc, &strategy)? {
            Ok(Some(strategy))
        } else {
            Ok(None)
        }
    }
}

/// Builds the coverage constraint: every application's argument tuple must
/// equal one of its recorded sample tuples. Returns `None` if some
/// application's function has no samples at all (coverage impossible).
fn coverage_formula(pc: &Formula, samples: &Samples) -> Option<Formula> {
    let mut out = Formula::True;
    for app in pc.apps() {
        let Term::App(f, args) = &app else {
            continue;
        };
        if !samples.has_samples(*f) {
            return None;
        }
        let mut disj = Formula::False;
        for (s_args, _) in samples.entries_for(*f) {
            if s_args.len() != args.len() {
                continue;
            }
            let cube = Formula::conj(
                args.iter()
                    .zip(s_args.iter())
                    .map(|(a, &s)| Formula::atom(Atom::eq(a.clone(), Term::int(s)))),
            );
            disj = disj.or(cube);
        }
        out = out.and(disj);
    }
    Some(out)
}

/// Extracts a concrete strategy (inputs only) from a model.
fn concrete_strategy(inputs: &[Var], model: &Model) -> Strategy {
    Strategy {
        bindings: inputs
            .iter()
            .map(|&v| StrategyBinding {
                var: v,
                term: Term::int(model.var(v).and_then(Value::int).unwrap_or(0)),
            })
            .collect(),
    }
}

/// Applications of `pc` whose argument tuples (under `model`) have no
/// recorded sample.
fn uncovered_apps(pc: &Formula, samples: &Samples, model: &Model) -> Vec<(FuncSym, Vec<i64>)> {
    let mut out = Vec::new();
    for app in pc.apps() {
        let Term::App(f, args) = &app else {
            continue;
        };
        let Some(vals) = args
            .iter()
            .map(|a| a.eval(model))
            .collect::<Option<Vec<i64>>>()
        else {
            continue;
        };
        if samples.lookup(*f, &vals).is_none() && !out.contains(&(*f, vals.clone())) {
            out.push((*f, vals));
        }
    }
    out
}

/// Encodes "`pc` under the counter-interpretation `counter` extending the
/// samples": conjoins, for every application, implications pinning its
/// value on sampled tuples and the default expression off them.
fn counter_encode(pc: &Formula, samples: &Samples, counter: CounterInterp) -> Formula {
    let mut out = pc.clone();
    for app in pc.apps() {
        let Term::App(f, args) = &app else {
            continue;
        };
        let default_term = match counter {
            CounterInterp::Any => continue,
            CounterInterp::Constant(c) => Term::int(c),
            CounterInterp::SumShift(c) => {
                let mut t = Term::int(c);
                for a in args {
                    t = t + a.clone();
                }
                t
            }
        };
        let mut off_samples = Formula::atom(Atom::eq(app.clone(), default_term));
        for (s_args, s_out) in samples.entries_for(*f) {
            if s_args.len() != args.len() {
                continue;
            }
            // On the sampled tuple: value is pinned.
            let mut on_clause: Vec<Formula> = args
                .iter()
                .zip(s_args.iter())
                .map(|(a, &s)| Formula::atom(Atom::ne(a.clone(), Term::int(s))))
                .collect();
            on_clause.push(Formula::atom(Atom::eq(app.clone(), Term::int(s_out))));
            out = out.and(Formula::disj(on_clause));
            // Off-sample default only applies if the tuple differs.
            let hit = Formula::conj(
                args.iter()
                    .zip(s_args.iter())
                    .map(|(a, &s)| Formula::atom(Atom::eq(a.clone(), Term::int(s)))),
            );
            off_samples = off_samples.or(hit);
        }
        out = out.and(off_samples);
    }
    out
}

/// Converts an NNF formula to DNF, capped at `cap` cubes.
fn dnf(f: &Formula, cap: usize) -> Option<Vec<Vec<Atom>>> {
    fn go(f: &Formula, cap: usize) -> Option<Vec<Vec<Atom>>> {
        match f {
            Formula::True => Some(vec![Vec::new()]),
            Formula::False => Some(Vec::new()),
            Formula::Atom(a) => Some(vec![vec![a.clone()]]),
            Formula::Not(_) => None, // NNF has no Not nodes
            Formula::Or(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(go(p, cap)?);
                    if out.len() > cap {
                        return None;
                    }
                }
                Some(out)
            }
            Formula::And(parts) => {
                let mut out: Vec<Vec<Atom>> = vec![Vec::new()];
                for p in parts {
                    let sub = go(p, cap)?;
                    let mut next = Vec::new();
                    for cube in &out {
                        for s in &sub {
                            let mut merged = cube.clone();
                            merged.extend(s.iter().cloned());
                            next.push(merged);
                        }
                    }
                    if next.len() > cap {
                        return None;
                    }
                    out = next;
                }
                Some(out)
            }
        }
    }
    go(f, cap)
}

/// Unification-based candidate substitutions for one cube. DFS over choice
/// points (sample-driven inversion of `f(args) = c` equations), returning
/// up to `cap` candidates.
fn unify_cube(cube: &[Atom], samples: &Samples, cap: usize) -> Vec<BTreeMap<Var, Term>> {
    let mut pending: Vec<Atom> = Vec::new();
    for a in cube {
        if a.rel == Rel::Eq {
            pending.push(a.clone());
        }
    }
    let mut out = Vec::new();
    dfs(pending, BTreeMap::new(), samples, cap, &mut out);
    // Also offer the empty substitution (pure completion) as a fallback.
    if out.is_empty() {
        out.push(BTreeMap::new());
    }
    out
}

fn apply_subst(t: &Term, subst: &BTreeMap<Var, Term>) -> Term {
    t.subst(&|v| subst.get(&v).cloned())
}

fn bind(subst: &mut BTreeMap<Var, Term>, pending: &mut [Atom], var: Var, term: Term) -> bool {
    if term.vars().contains(&var) {
        return false; // occurs check
    }
    // Substitute into existing bindings and pending equations.
    let single = |v: Var| (v == var).then(|| term.clone());
    for t in subst.values_mut() {
        *t = t.subst(&single);
    }
    for a in pending.iter_mut() {
        *a = a.subst(&single);
    }
    subst.insert(var, term);
    true
}

fn dfs(
    mut pending: Vec<Atom>,
    mut subst: BTreeMap<Var, Term>,
    samples: &Samples,
    cap: usize,
    out: &mut Vec<BTreeMap<Var, Term>>,
) {
    if out.len() >= cap {
        return;
    }
    while let Some(atom) = pending.pop() {
        let lhs = apply_subst(&atom.lhs, &subst);
        let rhs = apply_subst(&atom.rhs, &subst);
        if lhs == rhs {
            continue;
        }
        match (&lhs, &rhs) {
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                if !bind(&mut subst, &mut pending, *v, (*t).clone()) {
                    // Occurs-check failure: leave to completion/certification.
                    continue;
                }
            }
            (Term::App(f1, a1), Term::App(f2, a2)) if f1 == f2 && a1.len() == a2.len() => {
                // Congruence-driven decomposition (sufficient condition).
                for (a, b) in a1.iter().zip(a2.iter()) {
                    pending.push(Atom::eq(a.clone(), b.clone()));
                }
            }
            (Term::App(f, args), Term::Int(c)) | (Term::Int(c), Term::App(f, args)) => {
                // Sample-driven inversion (§7): branch over every sampled
                // tuple with the right output (handles hash collisions).
                let tuples: Vec<Vec<i64>> = samples
                    .entries_for(*f)
                    .filter(|&(s_args, s_out)| s_out == *c && s_args.len() == args.len())
                    .map(|(s_args, _)| s_args.clone())
                    .collect();
                for tuple in tuples {
                    let mut branch_pending = pending.clone();
                    for (a, s) in args.iter().zip(tuple.iter()) {
                        branch_pending.push(Atom::eq(a.clone(), Term::int(*s)));
                    }
                    dfs(branch_pending, subst.clone(), samples, cap, out);
                    if out.len() >= cap {
                        return;
                    }
                }
                // Also keep the un-inverted residue path.
                continue;
            }
            _ => {
                // Linear or mixed equation: left to completion.
                continue;
            }
        }
    }
    if !out.contains(&subst) {
        out.push(subst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::Sort;

    fn setup() -> (Signature, Var, Var, FuncSym) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let h = sig.declare_func("h", 1);
        (sig, x, y, h)
    }

    fn check(inputs: &[Var], samples: &Samples, pc: &Formula) -> ValidityOutcome {
        ValidityChecker::new()
            .check(inputs, samples, pc)
            .expect("linear pc")
    }

    fn concrete(strategy: &Strategy, samples: &Samples) -> BTreeMap<Var, i64> {
        match strategy.interpret(samples) {
            Interpretation::Concrete(m) => m,
            other => panic!("expected concrete interpretation, got {other:?}"),
        }
    }

    #[test]
    fn samples_table_basics() {
        let (_, _, _, h) = setup();
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert!(s.record(h, vec![42], 567));
        assert!(s.record(h, vec![42], 567)); // idempotent
        assert!(!s.record(h, vec![42], 1)); // deterministic clash
        assert_eq!(s.lookup(h, &[42]), Some(567));
        assert_eq!(s.lookup(h, &[7]), None);
        assert_eq!(s.len(), 1);
        assert!(s.has_samples(h));
    }

    #[test]
    fn samples_merge() {
        let (_, _, _, h) = setup();
        let mut a = Samples::new();
        a.record(h, vec![1], 10);
        let mut b = Samples::new();
        b.record(h, vec![2], 20);
        b.record(h, vec![1], 99); // loses to existing entry
        a.merge(&b);
        assert_eq!(a.lookup(h, &[1]), Some(10));
        assert_eq!(a.lookup(h, &[2]), Some(20));
    }

    #[test]
    fn obscure_alternate_path_is_valid() {
        // Paper §4.2: pc = (x = h(y)), sample h(42) = 567.
        let (_, x, y, h) = setup();
        let mut samples = Samples::new();
        samples.record(h, vec![42], 567);
        let pc = Formula::atom(Atom::eq(Term::var(x), Term::app(h, vec![Term::var(y)])));
        match check(&[x, y], &samples, &pc) {
            ValidityOutcome::Valid(st) => {
                let inputs = concrete(&st, &samples);
                assert_eq!(inputs[&y], 42);
                assert_eq!(inputs[&x], 567);
            }
            other => panic!("expected Valid, got {other:?}"),
        }
    }

    #[test]
    fn example5_euf_axiom_strategy() {
        // ∃x,y: f(x) = f(y) is valid (set x := y), no samples needed.
        let (_, x, y, h) = setup();
        let samples = Samples::new();
        let pc = Formula::atom(Atom::eq(
            Term::app(h, vec![Term::var(x)]),
            Term::app(h, vec![Term::var(y)]),
        ));
        match check(&[x, y], &samples, &pc) {
            ValidityOutcome::Valid(st) => {
                let inputs = concrete(&st, &samples);
                assert_eq!(inputs[&x], inputs[&y]);
            }
            other => panic!("expected Valid, got {other:?}"),
        }
    }

    #[test]
    fn example6_needs_samples() {
        // f(x) = f(y) + 1: invalid without samples…
        let (_, x, y, h) = setup();
        let pc = Formula::atom(Atom::eq(
            Term::app(h, vec![Term::var(x)]),
            Term::app(h, vec![Term::var(y)]) + Term::int(1),
        ));
        match check(&[x, y], &Samples::new(), &pc) {
            ValidityOutcome::Invalid { counter } => {
                assert_eq!(counter, Some(CounterInterp::Constant(0)));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // …valid with f(0) = 0, f(1) = 1 (strategy x := 1, y := 0).
        let mut samples = Samples::new();
        samples.record(h, vec![0], 0);
        samples.record(h, vec![1], 1);
        match check(&[x, y], &samples, &pc) {
            ValidityOutcome::Valid(st) => {
                let inputs = concrete(&st, &samples);
                assert_eq!(inputs[&x], 1);
                assert_eq!(inputs[&y], 0);
            }
            other => panic!("expected Valid, got {other:?}"),
        }
    }

    #[test]
    fn example4_without_samples_invalid() {
        // h(x) > 0 ∧ y = 10 is invalid without samples (h ≡ 0 refutes).
        let (_, x, y, h) = setup();
        let pc = Formula::atom(Atom::new(
            Term::app(h, vec![Term::var(x)]),
            Rel::Gt,
            Term::int(0),
        ))
        .and(Formula::atom(Atom::eq(Term::var(y), Term::int(10))));
        match check(&[x, y], &Samples::new(), &pc) {
            ValidityOutcome::Invalid { counter } => {
                assert_eq!(counter, Some(CounterInterp::Constant(0)));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn example4_with_samples_valid() {
        // With h(1) = 5 recorded, the same pc is valid: x := 1, y := 10.
        let (_, x, y, h) = setup();
        let mut samples = Samples::new();
        samples.record(h, vec![1], 5);
        let pc = Formula::atom(Atom::new(
            Term::app(h, vec![Term::var(x)]),
            Rel::Gt,
            Term::int(0),
        ))
        .and(Formula::atom(Atom::eq(Term::var(y), Term::int(10))));
        match check(&[x, y], &samples, &pc) {
            ValidityOutcome::Valid(st) => {
                let inputs = concrete(&st, &samples);
                assert_eq!(inputs[&x], 1);
                assert_eq!(inputs[&y], 10);
            }
            other => panic!("expected Valid, got {other:?}"),
        }
    }

    #[test]
    fn example7_multi_step() {
        // pc = (x = h(y) ∧ y = 10), sample h(42) = 567 only: valid with the
        // symbolic strategy y := 10, x := h(10); interpretation requires a
        // probe for h(10).
        let (_, x, y, h) = setup();
        let mut samples = Samples::new();
        samples.record(h, vec![42], 567);
        let pc = Formula::atom(Atom::eq(Term::var(x), Term::app(h, vec![Term::var(y)])))
            .and(Formula::atom(Atom::eq(Term::var(y), Term::int(10))));
        match check(&[x, y], &samples, &pc) {
            ValidityOutcome::Valid(st) => {
                assert!(st.is_symbolic());
                match st.interpret(&samples) {
                    Interpretation::NeedSamples(missing) => {
                        assert_eq!(missing, vec![(h, vec![10])]);
                    }
                    other => panic!("expected NeedSamples, got {other:?}"),
                }
                // After the probe records h(10) = 66, interpretation is
                // concrete.
                let mut more = samples.clone();
                more.record(h, vec![10], 66);
                let inputs = concrete(&st, &more);
                assert_eq!(inputs[&y], 10);
                assert_eq!(inputs[&x], 66);
            }
            other => panic!("expected Valid, got {other:?}"),
        }
    }

    #[test]
    fn example3_bar_invalid() {
        // pc = (x = h(y) ∧ y = h(x)) with samples h(42)=567, h(33)=123:
        // invalid (certified by the shift counter-interpretation).
        let (_, x, y, h) = setup();
        let mut samples = Samples::new();
        samples.record(h, vec![42], 567);
        samples.record(h, vec![33], 123);
        let pc = Formula::atom(Atom::eq(Term::var(x), Term::app(h, vec![Term::var(y)]))).and(
            Formula::atom(Atom::eq(Term::var(y), Term::app(h, vec![Term::var(x)]))),
        );
        match check(&[x, y], &samples, &pc) {
            ValidityOutcome::Invalid { counter } => {
                assert!(counter.is_some(), "expected a certified invalidity");
            }
            ValidityOutcome::NeedMoreSamples { .. } => {
                panic!("bar must not degenerate to probing")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn unsatisfiable_pc_invalid_any() {
        let (_, x, _, _) = setup();
        let pc = Formula::atom(Atom::eq(Term::var(x), Term::int(1)))
            .and(Formula::atom(Atom::eq(Term::var(x), Term::int(2))));
        match check(&[x], &Samples::new(), &pc) {
            ValidityOutcome::Invalid { counter } => {
                assert_eq!(counter, Some(CounterInterp::Any));
            }
            other => panic!("expected Invalid(Any), got {other:?}"),
        }
    }

    #[test]
    fn pure_arithmetic_valid() {
        let (_, x, y, _) = setup();
        // x = y + 1 ∧ y ≥ 5.
        let pc = Formula::atom(Atom::eq(Term::var(x), Term::var(y) + Term::int(1))).and(
            Formula::atom(Atom::new(Term::var(y), Rel::Ge, Term::int(5))),
        );
        match check(&[x, y], &Samples::new(), &pc) {
            ValidityOutcome::Valid(st) => {
                let inputs = concrete(&st, &Samples::new());
                assert_eq!(inputs[&x], inputs[&y] + 1);
                assert!(inputs[&y] >= 5);
            }
            other => panic!("expected Valid, got {other:?}"),
        }
    }

    #[test]
    fn hash_collision_inversion() {
        // §7: h(x) = 52 with two colliding samples: either preimage works.
        let (_, x, _, h) = setup();
        let mut samples = Samples::new();
        samples.record(h, vec![7], 52);
        samples.record(h, vec![9], 52);
        let pc = Formula::atom(Atom::eq(Term::app(h, vec![Term::var(x)]), Term::int(52)));
        match check(&[x], &samples, &pc) {
            ValidityOutcome::Valid(st) => {
                let inputs = concrete(&st, &samples);
                assert!(inputs[&x] == 7 || inputs[&x] == 9);
            }
            other => panic!("expected Valid, got {other:?}"),
        }
    }

    #[test]
    fn extra_antecedent_enables_validity() {
        // f(x) = f(y) + 1 with no samples is invalid; an extra antecedent
        // pinning f's behaviour (a "summary": f(v) = v for v ≥ 0) makes
        // it valid — the compositional combination of §8.
        let (_, x, y, h) = setup();
        let pc = Formula::atom(Atom::eq(
            Term::app(h, vec![Term::var(x)]),
            Term::app(h, vec![Term::var(y)]) + Term::int(1),
        ));
        let outcome = ValidityChecker::new()
            .check(&[x, y], &Samples::new(), &pc)
            .unwrap();
        assert!(matches!(outcome, ValidityOutcome::Invalid { .. }));

        // Summary-style implications: v ≥ 0 ⇒ h(v) = v, for the two
        // applications occurring in pc.
        let imp = |t: Term| {
            Formula::atom(Atom::new(t.clone(), Rel::Lt, Term::int(0)))
                .or(Formula::atom(Atom::eq(Term::app(h, vec![t.clone()]), t)))
        };
        let extra = imp(Term::var(x)).and(imp(Term::var(y)));
        let outcome = ValidityChecker::new()
            .check_with(&[x, y], &Samples::new(), &extra, &pc)
            .unwrap();
        match outcome {
            ValidityOutcome::Valid(st) => {
                let inputs = concrete(&st, &Samples::new());
                assert_eq!(inputs[&x], inputs[&y] + 1);
                assert!(inputs[&y] >= 0);
            }
            other => panic!("expected Valid with summary antecedent, got {other:?}"),
        }
    }

    #[test]
    fn strategy_display() {
        let (sig, x, y, h) = setup();
        let st = Strategy {
            bindings: vec![
                StrategyBinding {
                    var: y,
                    term: Term::int(10),
                },
                StrategyBinding {
                    var: x,
                    term: Term::app(h, vec![Term::int(10)]),
                },
            ],
        };
        assert_eq!(st.display(&sig).to_string(), "y := 10, x := h(10)");
        assert!(st.is_symbolic());
        assert_eq!(
            Strategy::default().display(&sig).to_string(),
            "<empty strategy>"
        );
    }

    #[test]
    fn probe_route_when_no_strategy() {
        // h(x) = h(y) + 1 with one useless sample: cannot invert, cannot
        // refute with the built-in families… the x-y asymmetry makes the
        // shift family fail, so a probe is suggested (or certified
        // invalid, depending on families): accept either informative
        // outcome but never Valid.
        let (_, x, y, h) = setup();
        let mut samples = Samples::new();
        samples.record(h, vec![5], 5);
        let pc = Formula::atom(Atom::eq(
            Term::app(h, vec![Term::var(x)]),
            Term::app(h, vec![Term::var(y)]) + Term::int(1),
        ));
        assert!(
            !matches!(check(&[x, y], &samples, &pc), ValidityOutcome::Valid(_)),
            "must not be valid"
        );
    }
}
