//! The concolic executor: side-by-side concrete and symbolic execution
//! with three symbolic-evaluation modes, reproducing Figures 1–3 of the
//! paper.
//!
//! * [`SymbolicMode::UnsoundConcretize`] — Figure 1 *without* line 14
//!   (DART's default): complex/unknown expressions are silently replaced
//!   by their runtime values; path constraints may be unsound (§3.2).
//! * [`SymbolicMode::SoundConcretize`] — Figure 1 *with* line 14: each
//!   concretization pins the involved inputs with constraints `xᵢ = Iᵢ`
//!   (§3.3, Theorem 2).
//! * [`SymbolicMode::Uninterpreted`] — Figure 3: unknown
//!   functions/instructions become uninterpreted-function applications,
//!   and input–output samples are recorded in the `IOF` table
//!   (§4.1, Theorem 3).
//!
//! Concrete semantics are shared with `hotg_lang`'s interpreter
//! ([`hotg_lang::eval_binop`] and the same statement walk), so a concolic
//! run's branch trace is bit-identical to a plain [`hotg_lang::run`] on
//! the same inputs — which is what makes divergence detection meaningful.
//!
//! The *symbolic* half of the executor — concretization, delayed
//! concretization, symbolic binops, branch/path-constraint recording,
//! IOF sampling, and the suppress counter for summarized calls — lives
//! in [`SymSide`], shared verbatim with the bytecode shadow VM in
//! [`crate::vm`]. The two execution engines differ only in how they
//! *drive* that core (AST walk vs. flat bytecode), which is why the
//! walker can serve as the VM's reference oracle.

use crate::context::ConcolicContext;
use crate::path::PathConstraint;
use hotg_lang::{
    eval_binop, BinOp, Expr, Fault, FaultKind, FuncDef, InputVector, NativeRegistry, Outcome,
    Param, Program, Stmt, Trace, UnOp,
};
use hotg_lang::{CVal, Slot};
use hotg_logic::{Atom, Formula, FuncSym, Rel, Term};
use hotg_solver::Samples;
use std::collections::HashMap;

/// How symbolic execution handles expressions outside the theory `T`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymbolicMode {
    /// DART's default concretization (Figure 1 without line 14).
    UnsoundConcretize,
    /// Sound concretization (Figure 1 with line 14).
    SoundConcretize,
    /// Delayed sound concretization (§3.3, last paragraph): unknown
    /// expressions stay symbolic in the store; the pinning constraints
    /// `xᵢ = Iᵢ` are injected only when a concretized expression is
    /// actually used in a branch constraint. A statement like
    /// `x := hash(y); if (y == 10) …` then leaves `y` free to negate.
    SoundConcretizeDelayed,
    /// Uninterpreted functions with sampling (Figure 3).
    Uninterpreted,
}

impl SymbolicMode {
    /// All modes, for table-driven comparisons.
    pub const ALL: [SymbolicMode; 4] = [
        SymbolicMode::UnsoundConcretize,
        SymbolicMode::SoundConcretize,
        SymbolicMode::SoundConcretizeDelayed,
        SymbolicMode::Uninterpreted,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SymbolicMode::UnsoundConcretize => "dart-unsound",
            SymbolicMode::SoundConcretize => "dart-sound",
            SymbolicMode::SoundConcretizeDelayed => "dart-sound-delayed",
            SymbolicMode::Uninterpreted => "higher-order",
        }
    }
}

/// The executor-facing hooks of one search strategy: how symbolic
/// evaluation handles expressions outside the theory, and whether
/// defined-function calls are abstracted behind summaries (§8).
///
/// Strategies in `hotg-core` hand the executor one of these instead of
/// loose technique flags, so adding a strategy-specific evaluation
/// behaviour extends this struct rather than every `execute_*`
/// signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExecProfile {
    /// Symbolic-evaluation mode producing the path constraints.
    pub mode: SymbolicMode,
    /// §8 compositional mode: defined-function calls become sampled
    /// uninterpreted applications instead of being inlined symbolically.
    pub summarize_calls: bool,
}

impl ExecProfile {
    /// A profile evaluating in `mode` with calls inlined.
    pub fn new(mode: SymbolicMode) -> ExecProfile {
        ExecProfile {
            mode,
            summarize_calls: false,
        }
    }

    /// A profile evaluating in `mode` with summarized calls (§8).
    pub fn summarized(mode: SymbolicMode) -> ExecProfile {
        ExecProfile {
            mode,
            summarize_calls: true,
        }
    }
}

/// Result of one concolic execution.
#[derive(Clone, Debug)]
pub struct ConcolicRun {
    /// Why execution stopped.
    pub outcome: Outcome,
    /// Concrete branch/native trace (identical to [`hotg_lang::run`]).
    pub trace: Trace,
    /// The collected path constraint.
    pub pc: PathConstraint,
    /// Uninterpreted-function samples observed during this run
    /// (non-empty only in [`SymbolicMode::Uninterpreted`]).
    pub samples: Samples,
    /// Number of concretization events.
    pub concretizations: usize,
    /// Number of uninterpreted applications created.
    pub uf_apps: usize,
    /// Concrete value of a program-level `return expr;`, when present
    /// (used by the summarizer's standalone function programs).
    pub result: Option<i64>,
    /// Symbolic term of that returned value.
    pub result_term: Option<Term>,
    /// Bytecode instructions retired producing this run — `0` when the
    /// run came from the tree-walker (announcement-only accounting; not
    /// part of a run's observable behavior).
    pub instructions: u64,
}

/// Equality is over the run's observable behaviour: every field but the
/// `instructions` telemetry, so a walker run equals the VM run of the
/// same inputs. The destructure is exhaustive, so a new field does not
/// compile until it is classified here.
impl PartialEq for ConcolicRun {
    fn eq(&self, other: &ConcolicRun) -> bool {
        let ConcolicRun {
            outcome,
            trace,
            pc,
            samples,
            concretizations,
            uf_apps,
            result,
            result_term,
            instructions: _,
        } = self;
        *outcome == other.outcome
            && *trace == other.trace
            && *pc == other.pc
            && *samples == other.samples
            && *concretizations == other.concretizations
            && *uf_apps == other.uf_apps
            && *result == other.result
            && *result_term == other.result_term
    }
}

/// A symbolic storage slot.
#[derive(Clone, Debug)]
enum SymSlot {
    Scalar(Term),
    Array(Vec<Term>),
}

/// The symbolic store `S`, scoped in lockstep with the concrete store.
#[derive(Clone, Debug, Default)]
struct SymEnv {
    scopes: Vec<HashMap<String, SymSlot>>,
}

impl SymEnv {
    fn new() -> SymEnv {
        SymEnv {
            scopes: vec![HashMap::new()],
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: impl Into<String>, slot: SymSlot) {
        self.scopes
            .last_mut()
            .expect("scope stack nonempty")
            .insert(name.into(), slot);
    }

    fn get(&self, name: &str) -> Option<&SymSlot> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut SymSlot> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }
}

/// A symbolic value: integer term or boolean formula.
#[derive(Clone, Debug)]
pub(crate) enum Sym {
    /// Integer-valued term.
    I(Term),
    /// Boolean-valued formula.
    B(Formula),
}

impl Sym {
    pub(crate) fn int(self) -> Term {
        match self {
            Sym::I(t) => t,
            Sym::B(_) => unreachable!("checker guarantees integer context"),
        }
    }

    pub(crate) fn boolean(self) -> Formula {
        match self {
            Sym::B(f) => f,
            Sym::I(_) => unreachable!("checker guarantees boolean context"),
        }
    }
}

/// The symbolic half of a concolic execution, shared verbatim between
/// the AST walker ([`execute_opts`]) and the bytecode shadow VM
/// ([`crate::vm`]): path constraints, IOF samples, concretization
/// policy, branch recording, and the suppress counter for summarized
/// calls. Because both engines mutate *this* state through *these*
/// methods at the same points in the same order, their [`ConcolicRun`]s
/// are bit-identical.
pub(crate) struct SymSide {
    pub(crate) mode: SymbolicMode,
    pub(crate) summarize_calls: bool,
    /// While > 0, branch-trace and path-constraint recording is
    /// suppressed (used for the concrete-side execution of summarized
    /// calls).
    pub(crate) suppress: usize,
    pub(crate) trace: Trace,
    pub(crate) pc: PathConstraint,
    pub(crate) samples: Samples,
    pub(crate) concretizations: usize,
    pub(crate) uf_apps: usize,
}

impl SymSide {
    pub(crate) fn new(mode: SymbolicMode, summarize_calls: bool) -> SymSide {
        SymSide {
            mode,
            summarize_calls,
            suppress: 0,
            trace: Trace::default(),
            pc: PathConstraint::new(),
            samples: Samples::new(),
            concretizations: 0,
            uf_apps: 0,
        }
    }

    /// Packages the collected symbolic state into a [`ConcolicRun`].
    pub(crate) fn finish(
        self,
        outcome: Outcome,
        result: Option<i64>,
        result_term: Option<Term>,
        instructions: u64,
    ) -> ConcolicRun {
        ConcolicRun {
            outcome,
            trace: self.trace,
            pc: self.pc,
            samples: self.samples,
            concretizations: self.concretizations,
            uf_apps: self.uf_apps,
            result,
            result_term,
            instructions,
        }
    }

    /// Concretizes a symbolic integer term to its runtime value.
    ///
    /// In sound mode this also injects the concretization constraints
    /// `xᵢ = Iᵢ` for every input variable occurring in the term
    /// (Figure 1, line 14). In uninterpreted mode it is used only for the
    /// constructs not representable by uninterpreted functions (symbolic
    /// array indices), where the same sound pinning applies.
    pub(crate) fn concretize(&mut self, inputs: &InputVector, term: &Term, value: i64) -> Term {
        if matches!(term, Term::Int(_)) {
            return Term::int(value);
        }
        self.concretizations += 1;
        match self.mode {
            SymbolicMode::UnsoundConcretize => {}
            SymbolicMode::SoundConcretize
            | SymbolicMode::SoundConcretizeDelayed
            | SymbolicMode::Uninterpreted => {
                for v in term.vars() {
                    let current = inputs.get(v.index()).expect("input index in range");
                    self.pc.push_concretization(Formula::atom(Atom::eq(
                        Term::var(v),
                        Term::int(current),
                    )));
                }
            }
        }
        Term::int(value)
    }

    /// Delayed sound concretization (§3.3, final remark): replaces every
    /// uninterpreted application in a branch constraint by its runtime
    /// value (looked up in the per-run sample table), injecting the
    /// pinning constraints `xᵢ = Iᵢ` for the inputs the application
    /// depended on — but only now, when the expression is actually used
    /// in a constraint. Branch constraints without applications are left
    /// fully symbolic and remain negatable.
    pub(crate) fn delayed_concretize(
        &mut self,
        ctx: &ConcolicContext,
        inputs: &InputVector,
        f: &Formula,
    ) -> Formula {
        if f.apps().is_empty() {
            return f.clone();
        }
        // Model for evaluating application values: the actual inputs plus
        // everything sampled so far this run.
        let mut model = hotg_logic::Model::new();
        for (i, v) in ctx.input_vars().iter().enumerate() {
            model.set_var(*v, hotg_logic::Value::Int(inputs.get(i).expect("input")));
        }
        for fs in ctx.sig().funcs() {
            for (args, out) in self.samples.entries_for(fs) {
                model.set_func_entry(fs, args.clone(), out);
            }
        }
        let mut out = f.clone();
        // Innermost applications first; replacing one may expose others.
        loop {
            let apps = out.apps();
            let Some(app) = apps.first() else { break };
            let value = app
                .eval(&model)
                .expect("branch-time application was sampled during execution");
            self.concretizations += 1;
            for var in app.vars() {
                let current = inputs.get(var.index()).expect("input index");
                self.pc.push_concretization(Formula::atom(Atom::eq(
                    Term::var(var),
                    Term::int(current),
                )));
            }
            out = out.replace(app, &Term::int(value));
        }
        out
    }

    /// Records one executed conditional: branch trace, delayed
    /// concretization, static-taint cross-check, and the oriented path
    /// constraint — all suppressed inside summarized call bodies.
    pub(crate) fn record_branch(
        &mut self,
        ctx: &ConcolicContext,
        inputs: &InputVector,
        id: hotg_lang::BranchId,
        taken: bool,
        formula: Formula,
    ) {
        if self.suppress != 0 {
            return;
        }
        self.trace.branches.push((id, taken));
        let mut oriented = if taken { formula } else { formula.negate() };
        if self.mode == SymbolicMode::SoundConcretizeDelayed {
            oriented = self.delayed_concretize(ctx, inputs, &oriented);
        }
        self.check_static_taint(ctx, id, &oriented);
        // Entries with concretely-determined conditions are kept
        // (constraint `true`) so that expected paths line up one-to-one
        // with the runtime branch trace.
        self.pc.push_branch(oriented, id, taken);
    }

    /// Symbolic result of a native ("unknown") call that concretely
    /// returned `out`: an IOF-sampled uninterpreted application in the
    /// higher-order modes, a (sound or unsound) concretization otherwise.
    /// The caller has already pushed the native-call trace entry.
    pub(crate) fn native_result(
        &mut self,
        inputs: &InputVector,
        fsym: FuncSym,
        cvals: &[i64],
        terms: Vec<Term>,
        out: i64,
    ) -> Term {
        match self.mode {
            SymbolicMode::Uninterpreted | SymbolicMode::SoundConcretizeDelayed => {
                // Record the IOF sample (Figure 3, line 13) for every
                // call, including fully concrete ones — the §7 lexer
                // relies on samples from its hash-table initialization.
                self.samples.record(fsym, cvals.to_vec(), out);
                if terms.iter().all(|t| matches!(t, Term::Int(_))) {
                    Term::int(out)
                } else {
                    self.uf_apps += 1;
                    Term::app(fsym, terms)
                }
            }
            _ => {
                if terms.iter().all(|t| matches!(t, Term::Int(_))) {
                    Term::int(out)
                } else {
                    let combined = terms.into_iter().fold(Term::int(0), |acc, t| acc + t);
                    self.concretize(inputs, &combined, out)
                }
            }
        }
    }

    /// Symbolic result of a summarized defined-function call (§8): the
    /// IOF sample is recorded and the call becomes an uninterpreted
    /// application unless fully concrete.
    pub(crate) fn summarized_result(
        &mut self,
        fsym: FuncSym,
        cvals: &[i64],
        terms: Vec<Term>,
        out: i64,
    ) -> Term {
        self.samples.record(fsym, cvals.to_vec(), out);
        if terms.iter().all(|t| matches!(t, Term::Int(_))) {
            Term::int(out)
        } else {
            self.uf_apps += 1;
            Term::app(fsym, terms)
        }
    }

    /// Symbolic result of a binary operation, given both operands'
    /// symbolic and concrete values and the concrete result.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn symbolic_binop(
        &mut self,
        ctx: &ConcolicContext,
        inputs: &InputVector,
        op: BinOp,
        sa: Sym,
        sb: Sym,
        ca: CVal,
        cb: CVal,
        cv: CVal,
    ) -> Result<Sym, String> {
        use hotg_logic::OpKind;
        if op.is_logical() {
            let (fa, fb) = (sa.boolean(), sb.boolean());
            return Ok(Sym::B(match op {
                BinOp::And => fa.and(fb),
                BinOp::Or => fa.or(fb),
                _ => unreachable!(),
            }));
        }
        if op.is_comparison() {
            let rel = match op {
                BinOp::Eq => Rel::Eq,
                BinOp::Ne => Rel::Ne,
                BinOp::Lt => Rel::Lt,
                BinOp::Le => Rel::Le,
                BinOp::Gt => Rel::Gt,
                BinOp::Ge => Rel::Ge,
                _ => unreachable!(),
            };
            return Ok(Sym::B(Formula::atom(Atom::new(sa.int(), rel, sb.int()))));
        }
        let (ta, tb) = (sa.int(), sb.int());
        let result = cv.int()?;
        Ok(Sym::I(match op {
            BinOp::Add => ta + tb,
            BinOp::Sub => ta - tb,
            BinOp::Mul if matches!(ta, Term::Int(_)) || matches!(tb, Term::Int(_)) => ta * tb,
            BinOp::Mul | BinOp::Div | BinOp::Mod => {
                // Unknown instruction: outside the linear theory T.
                if matches!(ta, Term::Int(_)) && matches!(tb, Term::Int(_)) {
                    Term::int(result)
                } else {
                    match self.mode {
                        SymbolicMode::Uninterpreted | SymbolicMode::SoundConcretizeDelayed => {
                            let fsym = ctx.op_sym(op);
                            self.uf_apps += 1;
                            self.samples
                                .record(fsym, vec![ca.int()?, cb.int()?], result);
                            Term::app(fsym, vec![ta, tb])
                        }
                        _ => {
                            let combined = Term::op(OpKind::Add, vec![ta, tb]);
                            self.concretize(inputs, &combined, result)
                        }
                    }
                }
            }
            _ => unreachable!(),
        }))
    }

    /// Debug-only soundness cross-check: the free input variables of a
    /// dynamic branch constraint must be covered by the static taint set
    /// `hotg-analysis` computed for the site. A violation means the
    /// static analysis under-approximated — which would let the driver
    /// prune a feasible branch-flip target.
    fn check_static_taint(
        &self,
        ctx: &ConcolicContext,
        id: hotg_lang::BranchId,
        oriented: &Formula,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let taint = ctx.static_branch_taint(id);
        for v in oriented.vars() {
            assert!(
                taint.contains(&v.index()),
                "static taint violation at branch {id}: dynamic constraint \
                 mentions input {} but the static set is {taint:?}",
                v.index(),
            );
        }
    }
}

enum Flow {
    Continue,
    Stop(Outcome),
    /// `return expr;` with its concrete value and symbolic term.
    ReturnVal(i64, Term),
}

/// Why expression evaluation aborted: a local fault or a whole-program
/// stop raised inside an inlined function call.
enum Halt {
    Fault(Fault),
    Stop(Outcome),
}

impl From<Fault> for Halt {
    fn from(f: Fault) -> Halt {
        Halt::Fault(f)
    }
}

impl From<String> for Halt {
    fn from(m: String) -> Halt {
        Halt::Fault(Fault::other(m))
    }
}

impl From<&str> for Halt {
    fn from(m: &str) -> Halt {
        Halt::Fault(Fault::other(m.to_string()))
    }
}

macro_rules! eval_or_flow {
    ($r:expr) => {
        match $r {
            Ok(v) => v,
            Err(Halt::Fault(m)) => return Err(m),
            Err(Halt::Stop(o)) => return Ok(Flow::Stop(o)),
        }
    };
}

struct Executor<'a> {
    ctx: &'a ConcolicContext,
    natives: &'a NativeRegistry,
    functions: &'a [FuncDef],
    inputs: &'a InputVector,
    env: hotg_lang::Env,
    senv: SymEnv,
    sym: SymSide,
}

/// Runs one concolic execution.
///
/// # Panics
///
/// Panics if the input vector width does not match the program.
///
/// # Examples
///
/// Reproducing the paper's first `obscure` run (§1): with `x = 33,
/// y = 42` the `else` branch is taken; in higher-order mode the path
/// constraint is `¬(x = hash(y))` and the sample `hash(42) = 567` is
/// recorded.
///
/// ```
/// use hotg_concolic::{execute, ConcolicContext, SymbolicMode};
/// use hotg_lang::{corpus, InputVector};
///
/// let (program, natives) = corpus::obscure();
/// let ctx = ConcolicContext::new(&program);
/// let run = execute(
///     &ctx, &program, &natives,
///     &InputVector::new(vec![33, 42]),
///     SymbolicMode::Uninterpreted,
///     10_000,
/// );
/// let hash = ctx.sig().func_by_name("hash").unwrap();
/// assert_eq!(run.samples.lookup(hash, &[42]), Some(567));
/// assert_eq!(run.pc.len(), 1);
/// ```
pub fn execute(
    ctx: &ConcolicContext,
    program: &Program,
    natives: &NativeRegistry,
    inputs: &InputVector,
    mode: SymbolicMode,
    fuel: u64,
) -> ConcolicRun {
    execute_opts(ctx, program, natives, inputs, mode, fuel, false)
}

/// Runs one concolic execution under a strategy's [`ExecProfile`] — the
/// entry point used by the `hotg-core` campaign engine, where the
/// profile comes from the active search strategy rather than loose
/// technique flags.
pub fn execute_profiled(
    ctx: &ConcolicContext,
    program: &Program,
    natives: &NativeRegistry,
    inputs: &InputVector,
    fuel: u64,
    profile: ExecProfile,
) -> ConcolicRun {
    execute_opts(
        ctx,
        program,
        natives,
        inputs,
        profile.mode,
        fuel,
        profile.summarize_calls,
    )
}

/// Runs one concolic execution with full options. When
/// `summarize_calls` is `true`, defined-function calls are abstracted as
/// uninterpreted applications with input–output sampling (the caller is
/// expected to supply function *summaries* to the solver — §8's
/// higher-order compositional test generation); otherwise they are
/// inlined symbolically.
#[allow(clippy::too_many_arguments)]
pub fn execute_opts(
    ctx: &ConcolicContext,
    program: &Program,
    natives: &NativeRegistry,
    inputs: &InputVector,
    mode: SymbolicMode,
    fuel: u64,
    summarize_calls: bool,
) -> ConcolicRun {
    let env = inputs.bind(program);
    let mut senv = SymEnv::new();
    let mut flat = 0usize;
    for p in &program.params {
        match p {
            Param::Scalar(name) => {
                senv.declare(name.clone(), SymSlot::Scalar(ctx.input_term(flat)));
                flat += 1;
            }
            Param::Array(name, len) => {
                let items = (0..*len).map(|i| ctx.input_term(flat + i)).collect();
                senv.declare(name.clone(), SymSlot::Array(items));
                flat += len;
            }
        }
    }

    let mut exec = Executor {
        ctx,
        natives,
        functions: &program.functions,
        inputs,
        env,
        senv,
        sym: SymSide::new(mode, summarize_calls),
    };
    let mut fuel = fuel;
    let mut result = None;
    let mut result_term = None;
    let outcome = match exec.block(&program.body, &mut fuel) {
        Ok(Flow::Continue) | Ok(Flow::Stop(Outcome::Returned)) => Outcome::Returned,
        Ok(Flow::ReturnVal(v, t)) => {
            result = Some(v);
            result_term = Some(t);
            Outcome::Returned
        }
        Ok(Flow::Stop(o)) => o,
        Err(msg) => Outcome::RuntimeFault(msg),
    };
    exec.sym.finish(outcome, result, result_term, 0)
}

impl Executor<'_> {
    fn eval_both(&mut self, e: &Expr, fuel: &mut u64) -> Result<(CVal, Sym), Halt> {
        Ok(match e {
            Expr::Int(v) => (CVal::Int(*v), Sym::I(Term::int(*v))),
            Expr::Var(name) => {
                let c = match self.env.get(name) {
                    Some(Slot::Scalar(v)) => CVal::Int(*v),
                    _ => return Err(format!("unbound variable `{name}`").into()),
                };
                let s = match self.senv.get(name) {
                    Some(SymSlot::Scalar(t)) => Sym::I(t.clone()),
                    _ => return Err(format!("unbound symbolic variable `{name}`").into()),
                };
                (c, s)
            }
            Expr::Index(name, idx) => {
                let (ci, si) = self.eval_both(idx, fuel)?;
                let i = ci.int()?;
                let idx_term = si.int();
                let value = match self.env.get(name) {
                    Some(Slot::Array(items)) => {
                        let len = items.len();
                        usize::try_from(i)
                            .ok()
                            .and_then(|i| items.get(i).copied())
                            .ok_or_else(|| {
                                Halt::Fault(Fault::new(
                                    FaultKind::OutOfBounds,
                                    format!("index {i} out of bounds for `{name}` (len {len})"),
                                ))
                            })?
                    }
                    Some(Slot::Scalar(_)) => {
                        return Err(format!("cannot index scalar `{name}`").into())
                    }
                    None => return Err(format!("unbound array `{name}`").into()),
                };
                let sym = if matches!(idx_term, Term::Int(_)) {
                    // Concrete index: precise symbolic select.
                    match self.senv.get(name) {
                        Some(SymSlot::Array(items)) => Sym::I(items[i as usize].clone()),
                        _ => return Err(format!("unbound symbolic array `{name}`").into()),
                    }
                } else {
                    // Symbolic index: an unknown instruction in every mode
                    // (a faithful select would need the whole array as
                    // arguments). Pin the index and the selected element.
                    let elem_term = match self.senv.get(name) {
                        Some(SymSlot::Array(items)) => items[i as usize].clone(),
                        _ => return Err(format!("unbound symbolic array `{name}`").into()),
                    };
                    let combined = idx_term + elem_term;
                    Sym::I(self.sym.concretize(self.inputs, &combined, value))
                };
                (CVal::Int(value), sym)
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let (c, s) = self.eval_both(inner, fuel)?;
                let v = c.int()?.checked_neg().ok_or_else(|| {
                    Halt::Fault(Fault::new(
                        FaultKind::Overflow,
                        "arithmetic overflow in negation",
                    ))
                })?;
                (CVal::Int(v), Sym::I(-s.int()))
            }
            Expr::Unary(UnOp::Not, inner) => {
                let (c, s) = self.eval_both(inner, fuel)?;
                (CVal::Bool(!c.bool()?), Sym::B(s.boolean().negate()))
            }
            Expr::Binary(op, a, b) => {
                let (ca, sa) = self.eval_both(a, fuel)?;
                let (cb, sb) = self.eval_both(b, fuel)?;
                let cv = eval_binop(*op, ca, cb)?;
                let sym =
                    self.sym
                        .symbolic_binop(self.ctx, self.inputs, *op, sa, sb, ca, cb, cv)?;
                (cv, sym)
            }
            Expr::Call(name, args) => {
                let mut cvals = Vec::with_capacity(args.len());
                let mut terms = Vec::with_capacity(args.len());
                for a in args {
                    let (c, s) = self.eval_both(a, fuel)?;
                    cvals.push(c.int()?);
                    terms.push(s.int());
                }
                if self.natives.contains(name) {
                    let out = self.natives.call(name, &cvals).map_err(Fault::native)?;
                    self.sym
                        .trace
                        .native_calls
                        .push((name.clone(), cvals.clone(), out));
                    let fsym = self
                        .ctx
                        .native_sym(name)
                        .ok_or_else(|| format!("native `{name}` not in context"))?;
                    let term = self
                        .sym
                        .native_result(self.inputs, fsym, &cvals, terms, out);
                    (CVal::Int(out), Sym::I(term))
                } else if let Some(def) = self.functions.iter().find(|f| f.name == *name) {
                    if self.sym.summarize_calls {
                        // §8 compositional mode: execute the body
                        // concretely (suppressed recording), abstract the
                        // call as an uninterpreted application, record
                        // the IOF sample.
                        let fsym = self
                            .ctx
                            .defined_sym(name)
                            .ok_or_else(|| format!("fn `{name}` not in context"))?;
                        self.sym.suppress += 1;
                        let concrete_terms: Vec<Term> =
                            cvals.iter().map(|v| Term::int(*v)).collect();
                        let res = self.call_defined(def, &cvals, concrete_terms, fuel);
                        self.sym.suppress -= 1;
                        let (out, _) = res?;
                        let term = self.sym.summarized_result(fsym, &cvals, terms, out);
                        (CVal::Int(out), Sym::I(term))
                    } else {
                        // Precise symbolic inlining.
                        let (out, t) = self.call_defined(def, &cvals, terms, fuel)?;
                        (CVal::Int(out), Sym::I(t))
                    }
                } else {
                    return Err(format!("callable `{name}` is not defined").into());
                }
            }
        })
    }

    /// Executes a defined function body in fresh concrete/symbolic
    /// environments, with the parameters bound to `(cvals, terms)`.
    fn call_defined(
        &mut self,
        def: &FuncDef,
        cvals: &[i64],
        terms: Vec<Term>,
        fuel: &mut u64,
    ) -> Result<(i64, Term), Halt> {
        let mut fenv = hotg_lang::Env::new();
        let mut fsenv = SymEnv::new();
        for ((p, v), t) in def.params.iter().zip(cvals.iter()).zip(terms) {
            fenv.declare(p.clone(), Slot::Scalar(*v));
            fsenv.declare(p.clone(), SymSlot::Scalar(t));
        }
        let saved_env = std::mem::replace(&mut self.env, fenv);
        let saved_senv = std::mem::replace(&mut self.senv, fsenv);
        let flow = self.block(&def.body, fuel);
        self.env = saved_env;
        self.senv = saved_senv;
        match flow.map_err(Halt::Fault)? {
            Flow::ReturnVal(v, t) => Ok((v, t)),
            Flow::Continue | Flow::Stop(Outcome::Returned) => Err(Halt::Fault(Fault::other(
                format!("fn `{}` terminated without returning a value", def.name),
            ))),
            Flow::Stop(o) => Err(Halt::Stop(o)),
        }
    }

    fn block(&mut self, body: &[Stmt], fuel: &mut u64) -> Result<Flow, Fault> {
        for s in body {
            if *fuel == 0 {
                return Ok(Flow::Stop(Outcome::OutOfFuel));
            }
            *fuel -= 1;
            match s {
                Stmt::Let(name, e) => {
                    let (c, sym) = eval_or_flow!(self.eval_both(e, fuel));
                    self.env.declare(name.clone(), Slot::Scalar(c.int()?));
                    self.senv.declare(name.clone(), SymSlot::Scalar(sym.int()));
                }
                Stmt::LetArray(name, len) => {
                    self.env.declare(name.clone(), Slot::Array(vec![0; *len]));
                    self.senv
                        .declare(name.clone(), SymSlot::Array(vec![Term::int(0); *len]));
                }
                Stmt::Assign(name, e) => {
                    let (c, sym) = eval_or_flow!(self.eval_both(e, fuel));
                    let v = c.int()?;
                    match self.env.get_mut(name) {
                        Some(Slot::Scalar(slot)) => *slot = v,
                        _ => return Err(format!("assignment to unbound `{name}`").into()),
                    }
                    match self.senv.get_mut(name) {
                        Some(SymSlot::Scalar(slot)) => *slot = sym.int(),
                        _ => return Err(format!("assignment to unbound symbolic `{name}`").into()),
                    }
                }
                Stmt::AssignIndex(name, idx, val) => {
                    let (ci, si) = eval_or_flow!(self.eval_both(idx, fuel));
                    let (cv, sv) = eval_or_flow!(self.eval_both(val, fuel));
                    let i = ci.int()?;
                    let v = cv.int()?;
                    let idx_term = si.int();
                    let val_term = sv.int();
                    if !matches!(idx_term, Term::Int(_)) {
                        // Symbolic store index: pin the index (sound in
                        // all modes but unsound-concretize) and store the
                        // value under the concrete cell.
                        let _ = self.sym.concretize(self.inputs, &idx_term, i);
                    }
                    match self.env.get_mut(name) {
                        Some(Slot::Array(items)) => {
                            let len = items.len();
                            let slot = usize::try_from(i)
                                .ok()
                                .and_then(|i| items.get_mut(i))
                                .ok_or_else(|| {
                                    Fault::new(
                                        FaultKind::OutOfBounds,
                                        format!("index {i} out of bounds for `{name}` (len {len})"),
                                    )
                                })?;
                            *slot = v;
                        }
                        Some(Slot::Scalar(_)) => {
                            return Err(format!("cannot index scalar `{name}`").into())
                        }
                        None => return Err(format!("assignment to unbound `{name}`").into()),
                    }
                    match self.senv.get_mut(name) {
                        Some(SymSlot::Array(items)) => items[i as usize] = val_term,
                        _ => return Err(format!("unbound symbolic array `{name}`").into()),
                    }
                }
                Stmt::If {
                    id,
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let (c, sym) = eval_or_flow!(self.eval_both(cond, fuel));
                    let taken = c.bool()?;
                    let formula = sym.boolean();
                    self.sym
                        .record_branch(self.ctx, self.inputs, *id, taken, formula);
                    self.env.push_scope();
                    self.senv.push_scope();
                    let flow = if taken {
                        self.block(then_branch, fuel)?
                    } else {
                        self.block(else_branch, fuel)?
                    };
                    self.env.pop_scope();
                    self.senv.pop_scope();
                    if !matches!(flow, Flow::Continue) {
                        return Ok(flow);
                    }
                }
                Stmt::While { id, cond, body } => loop {
                    if *fuel == 0 {
                        return Ok(Flow::Stop(Outcome::OutOfFuel));
                    }
                    *fuel -= 1;
                    let (c, sym) = eval_or_flow!(self.eval_both(cond, fuel));
                    let taken = c.bool()?;
                    let formula = sym.boolean();
                    self.sym
                        .record_branch(self.ctx, self.inputs, *id, taken, formula);
                    if !taken {
                        break;
                    }
                    self.env.push_scope();
                    self.senv.push_scope();
                    let flow = self.block(body, fuel)?;
                    self.env.pop_scope();
                    self.senv.pop_scope();
                    if !matches!(flow, Flow::Continue) {
                        return Ok(flow);
                    }
                },
                Stmt::Error(code) => return Ok(Flow::Stop(Outcome::Error(*code))),
                Stmt::Return => return Ok(Flow::Stop(Outcome::Returned)),
                Stmt::ReturnValue(e) => {
                    let (c, sym) = eval_or_flow!(self.eval_both(e, fuel));
                    return Ok(Flow::ReturnVal(c.int()?, sym.int()));
                }
            }
        }
        Ok(Flow::Continue)
    }
}
