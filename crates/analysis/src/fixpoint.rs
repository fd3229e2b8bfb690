//! The whole-program fixpoint analyzer: one abstract interpretation of a
//! `mini` program computing, simultaneously,
//!
//! * **input taint** per conditional site (which flat inputs a branch
//!   condition may depend on),
//! * **constancy** per conditional site (always-true / always-false /
//!   unknown, via constant propagation and interval reasoning),
//! * **reachability** per statement (statements after an `error`/`return`
//!   or under a decided branch are dead),
//! * **native-opacity** per native call site (constant arguments →
//!   pre-sampleable; input-dependent; dead).
//!
//! Defined functions are analyzed by inlining at each (abstract) call
//! site — `mini` forbids recursion syntactically, so this terminates;
//! loops run to an interval fixpoint with widening after a few
//! iterations.

use crate::domain::{div_kind_of, rel_of, AbsVal, Constancy, Interval, Taint};
use hotg_lang::{stmt_ids, BinOp, BranchId, Expr, FuncDef, Param, Program, Stmt, StmtId, UnOp};
use std::collections::{BTreeSet, HashMap};

/// Classification of one native call site (an `Expr::Call` of a declared
/// native), the analysis-side realization of the paper's input-dependence
/// test for unknown functions (§3): only *input-dependent* sites need an
/// uninterpreted function symbol; constant sites have a single observable
/// input/output pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SiteClass {
    /// Reached with the same statically-constant argument tuple on every
    /// path: the concrete native can be sampled once, ahead of time, and
    /// the pair fed to the IOF table.
    ConstArgs(Vec<i64>),
    /// Reached with arguments that may depend on program inputs.
    InputDependent,
    /// Never reached.
    Dead,
}

/// One native call site, in pre-order (statement order, then
/// left-to-right within a statement).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NativeSite {
    /// Site index (position in [`AnalysisResult::native_sites`]).
    pub site: usize,
    /// Native function name.
    pub name: String,
    /// The statement containing the call (for spans).
    pub stmt: StmtId,
    /// Classification.
    pub class: SiteClass,
}

/// Facts about one conditional site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchFact {
    /// `false` when the site is in dead code (never analyzed as
    /// reachable); `taint`/`constancy` are then vacuous.
    pub reached: bool,
    /// Flat input indices the condition may depend on — an
    /// over-approximation of the free variables of the dynamic
    /// path-constraint conjunct at this site.
    pub taint: Taint,
    /// Static truth of the condition over all reaching states.
    pub constancy: Constancy,
}

impl BranchFact {
    fn dead() -> BranchFact {
        BranchFact {
            reached: false,
            taint: Taint::new(),
            constancy: Constancy::Unknown,
        }
    }
}

/// Result of analyzing one program. Produced by [`crate::analyze`].
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// Per-conditional-site facts, indexed by [`BranchId`].
    branches: Vec<BranchFact>,
    /// Statements never reached by any abstract execution.
    dead_stmts: BTreeSet<StmtId>,
    /// Total number of statements.
    stmt_count: usize,
    /// Native call sites in pre-order.
    native_sites: Vec<NativeSite>,
    /// Number of flat inputs.
    input_count: usize,
}

impl AnalysisResult {
    /// Facts for conditional site `id` (`BranchFact::dead`-shaped for
    /// out-of-range ids).
    pub fn branch(&self, id: BranchId) -> &BranchFact {
        static DEAD: BranchFact = BranchFact {
            reached: false,
            taint: Taint::new(),
            constancy: Constancy::Unknown,
        };
        self.branches.get(id.0 as usize).unwrap_or(&DEAD)
    }

    /// The static input-taint set of the condition at site `id`.
    pub fn taint_of(&self, id: BranchId) -> &Taint {
        &self.branch(id).taint
    }

    /// Static truth of the condition at site `id`.
    pub fn constancy_of(&self, id: BranchId) -> Constancy {
        self.branch(id).constancy
    }

    /// `true` if taking direction `dir` at site `id` is statically
    /// impossible — the branch is decided the other way (or the site is
    /// dead code). Such a branch-flip target cannot be satisfied by any
    /// input, so the driver can skip its solver query.
    pub fn flip_infeasible(&self, id: BranchId, dir: bool) -> bool {
        let fact = self.branch(id);
        if !fact.reached {
            return true;
        }
        match fact.constancy {
            Constancy::AlwaysTrue => !dir,
            Constancy::AlwaysFalse => dir,
            Constancy::Unknown => false,
        }
    }

    /// Statements never reached by any abstract execution.
    pub fn dead_stmts(&self) -> &BTreeSet<StmtId> {
        &self.dead_stmts
    }

    /// `true` if statement `id` is unreachable.
    pub fn is_dead(&self, id: StmtId) -> bool {
        self.dead_stmts.contains(&id)
    }

    /// Total number of statements in the program.
    pub fn stmt_count(&self) -> usize {
        self.stmt_count
    }

    /// Native call sites in pre-order.
    pub fn native_sites(&self) -> &[NativeSite] {
        &self.native_sites
    }

    /// Number of conditional sites.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Number of flat inputs of the analyzed program.
    pub fn input_count(&self) -> usize {
        self.input_count
    }
}

/// Analyzes a (checked) program. See the module docs for what comes out.
pub fn analyze(program: &Program) -> AnalysisResult {
    let mut az = Analyzer::new(program);
    let mut state = az.initial_state();
    let mut ret = None;
    az.exec_block_no_scope(&mut state, &program.body, &mut ret);
    az.finish()
}

/// How a block terminates, abstractly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    /// May fall through to the next statement.
    Cont,
    /// Every path stops (`error`, `return`, or a provably non-exiting
    /// loop) before falling through.
    Stop,
}

/// A scalar or array-summary binding.
#[derive(Clone, Debug, PartialEq)]
enum Slot {
    Scalar(AbsVal),
    /// Array summary: the join of every element (plus written-index
    /// taint).
    Array(AbsVal),
}

impl Slot {
    fn join_with(&mut self, other: &Slot) {
        match (self, other) {
            (Slot::Scalar(a), Slot::Scalar(b)) | (Slot::Array(a), Slot::Array(b)) => {
                *a = a.join(b);
            }
            _ => unreachable!("checker rules out scalar/array kind changes"),
        }
    }

    fn widen_to(&mut self, next: &Slot) {
        match (self, next) {
            (Slot::Scalar(a), Slot::Scalar(b)) | (Slot::Array(a), Slot::Array(b)) => {
                *a = a.widen(b);
            }
            _ => unreachable!("checker rules out scalar/array kind changes"),
        }
    }
}

/// Lexically scoped abstract environment.
#[derive(Clone, Debug, PartialEq)]
struct AbsState {
    scopes: Vec<HashMap<String, Slot>>,
}

impl AbsState {
    fn new() -> AbsState {
        AbsState {
            scopes: vec![HashMap::new()],
        }
    }

    fn lookup(&self, name: &str) -> &Slot {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .expect("checked program: name resolved")
    }

    fn lookup_mut(&mut self, name: &str) -> &mut Slot {
        self.scopes
            .iter_mut()
            .rev()
            .find_map(|s| s.get_mut(name))
            .expect("checked program: name resolved")
    }

    fn declare(&mut self, name: &str, slot: Slot) {
        self.scopes
            .last_mut()
            .expect("scope stack nonempty")
            .insert(name.to_string(), slot);
    }

    /// Pointwise join; both states must have the same scope shape (they
    /// branched from a common state and blocks pop their scopes).
    fn join_with(&mut self, other: &AbsState) {
        debug_assert_eq!(self.scopes.len(), other.scopes.len());
        for (s, o) in self.scopes.iter_mut().zip(&other.scopes) {
            for (name, slot) in s.iter_mut() {
                slot.join_with(&o[name]);
            }
        }
    }

    /// Pointwise widening of `self` toward `next`.
    fn widen_to(&mut self, next: &AbsState) {
        debug_assert_eq!(self.scopes.len(), next.scopes.len());
        for (s, n) in self.scopes.iter_mut().zip(&next.scopes) {
            for (name, slot) in s.iter_mut() {
                slot.widen_to(&n[name]);
            }
        }
    }
}

/// Accumulator for one native call site across abstract visits.
#[derive(Clone, Debug)]
enum SiteArgs {
    Unvisited,
    Const(Vec<i64>),
    Varying,
}

struct SiteAcc {
    name: String,
    stmt: StmtId,
    args: SiteArgs,
}

struct BranchAcc {
    reached: bool,
    taint: Taint,
    constancy: Option<Constancy>,
}

struct Analyzer<'p> {
    program: &'p Program,
    /// Statement identity → pre-order id (the AST is borrowed for the
    /// whole analysis, so node addresses are stable keys).
    stmt_of: HashMap<*const Stmt, StmtId>,
    /// Native call-site identity → site index.
    site_of: HashMap<*const Expr, usize>,
    sites: Vec<SiteAcc>,
    branches: Vec<BranchAcc>,
    reached: BTreeSet<StmtId>,
    stmt_count: usize,
    input_count: usize,
}

impl<'p> Analyzer<'p> {
    fn new(program: &'p Program) -> Analyzer<'p> {
        let ids = stmt_ids(program);
        let stmt_count = ids.len();
        let mut stmt_of = HashMap::with_capacity(stmt_count);
        let mut site_of = HashMap::new();
        let mut sites = Vec::new();
        for (id, stmt) in &ids {
            stmt_of.insert(*stmt as *const Stmt, *id);
            for_each_expr(stmt, &mut |e| {
                if let Expr::Call(name, _) = e {
                    if program.native(name).is_some() {
                        site_of.insert(e as *const Expr, sites.len());
                        sites.push(SiteAcc {
                            name: name.clone(),
                            stmt: *id,
                            args: SiteArgs::Unvisited,
                        });
                    }
                }
            });
        }
        let branches = (0..program.branch_count)
            .map(|_| BranchAcc {
                reached: false,
                taint: Taint::new(),
                constancy: None,
            })
            .collect();
        let input_count = program
            .params
            .iter()
            .map(|p| match p {
                Param::Scalar(_) => 1,
                Param::Array(_, len) => *len,
            })
            .sum();
        Analyzer {
            program,
            stmt_of,
            site_of,
            sites,
            branches,
            reached: BTreeSet::new(),
            stmt_count,
            input_count,
        }
    }

    /// Entry state: inputs bound to ⊤ values tainted by their flat
    /// indices (concolic flattening order).
    fn initial_state(&self) -> AbsState {
        let mut st = AbsState::new();
        let mut idx = 0;
        for p in &self.program.params {
            match p {
                Param::Scalar(name) => {
                    st.declare(name, Slot::Scalar(AbsVal::tainted([idx].into())));
                    idx += 1;
                }
                Param::Array(name, len) => {
                    st.declare(
                        name,
                        Slot::Array(AbsVal::tainted((idx..idx + len).collect())),
                    );
                    idx += len;
                }
            }
        }
        st
    }

    fn finish(self) -> AnalysisResult {
        let dead_stmts = (0..self.stmt_count as u32)
            .map(StmtId)
            .filter(|id| !self.reached.contains(id))
            .collect();
        let native_sites = self
            .sites
            .into_iter()
            .enumerate()
            .map(|(i, acc)| NativeSite {
                site: i,
                name: acc.name,
                stmt: acc.stmt,
                class: match acc.args {
                    SiteArgs::Unvisited => SiteClass::Dead,
                    SiteArgs::Const(vals) => SiteClass::ConstArgs(vals),
                    SiteArgs::Varying => SiteClass::InputDependent,
                },
            })
            .collect();
        let branches = self
            .branches
            .into_iter()
            .map(|acc| {
                if acc.reached {
                    BranchFact {
                        reached: true,
                        taint: acc.taint,
                        constancy: acc.constancy.unwrap_or(Constancy::Unknown),
                    }
                } else {
                    BranchFact::dead()
                }
            })
            .collect();
        AnalysisResult {
            branches,
            dead_stmts,
            stmt_count: self.stmt_count,
            native_sites,
            input_count: self.input_count,
        }
    }

    fn record_branch(&mut self, id: BranchId, taint: &Taint, truth: Constancy) {
        let acc = &mut self.branches[id.0 as usize];
        acc.reached = true;
        acc.taint.extend(taint.iter().copied());
        acc.constancy = Some(match acc.constancy {
            Some(prev) => prev.join(truth),
            None => truth,
        });
    }

    fn record_site(&mut self, expr: &Expr, args: &[AbsVal]) {
        let Some(&site) = self.site_of.get(&(expr as *const Expr)) else {
            return;
        };
        let tuple: Option<Vec<i64>> = args.iter().map(|a| a.itv.as_const()).collect();
        let acc = &mut self.sites[site];
        acc.args = match (std::mem::replace(&mut acc.args, SiteArgs::Varying), tuple) {
            (SiteArgs::Unvisited, Some(t)) => SiteArgs::Const(t),
            (SiteArgs::Const(prev), Some(t)) if prev == t => SiteArgs::Const(prev),
            _ => SiteArgs::Varying,
        };
    }

    /// Evaluates an expression: taint, interval, and (for booleans)
    /// three-valued truth. Visits native sites and inlines defined calls.
    fn eval(&mut self, st: &AbsState, e: &Expr) -> (AbsVal, Constancy) {
        match e {
            Expr::Int(v) => (AbsVal::constant(*v), Constancy::Unknown),
            Expr::Var(name) => match st.lookup(name) {
                Slot::Scalar(v) => (v.clone(), Constancy::Unknown),
                Slot::Array(_) => unreachable!("checker rules out array-as-scalar"),
            },
            Expr::Index(name, idx) => {
                let (iv, _) = self.eval(st, idx);
                let Slot::Array(summary) = st.lookup(name) else {
                    unreachable!("checker rules out indexing scalars");
                };
                let mut out = summary.clone();
                // The index choice itself may leak input dependence.
                out.taint.extend(iv.taint.iter().copied());
                (out, Constancy::Unknown)
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let (v, _) = self.eval(st, inner);
                (
                    AbsVal {
                        taint: v.taint,
                        itv: v.itv.neg(),
                    },
                    Constancy::Unknown,
                )
            }
            Expr::Unary(UnOp::Not, inner) => {
                let (v, t) = self.eval(st, inner);
                (
                    AbsVal {
                        taint: v.taint,
                        itv: Interval::TOP,
                    },
                    t.not(),
                )
            }
            Expr::Binary(op, a, b) => {
                let (va, ta) = self.eval(st, a);
                let (vb, tb) = self.eval(st, b);
                let taint: Taint = va.taint.union(&vb.taint).copied().collect();
                if op.is_arith() {
                    let itv = match op {
                        BinOp::Add => va.itv.add(vb.itv),
                        BinOp::Sub => va.itv.sub(vb.itv),
                        BinOp::Mul => va.itv.mul(vb.itv),
                        BinOp::Div | BinOp::Mod => va.itv.div_like(div_kind_of(*op), vb.itv),
                        _ => unreachable!(),
                    };
                    (AbsVal { taint, itv }, Constancy::Unknown)
                } else if op.is_comparison() {
                    let truth = Interval::compare(rel_of(*op), va.itv, vb.itv);
                    (
                        AbsVal {
                            taint,
                            itv: Interval::TOP,
                        },
                        truth,
                    )
                } else {
                    let truth = match op {
                        BinOp::And => ta.and(tb),
                        BinOp::Or => ta.or(tb),
                        _ => unreachable!(),
                    };
                    (
                        AbsVal {
                            taint,
                            itv: Interval::TOP,
                        },
                        truth,
                    )
                }
            }
            Expr::Call(name, args) => {
                let vals: Vec<AbsVal> = args.iter().map(|a| self.eval(st, a).0).collect();
                if self.program.native(name).is_some() {
                    self.record_site(e, &vals);
                    // An unknown function of known arguments is an
                    // unknown *constant*: untainted only if no argument
                    // carries input taint.
                    let taint: Taint = vals.iter().flat_map(|v| v.taint.iter().copied()).collect();
                    (AbsVal::tainted(taint), Constancy::Unknown)
                } else {
                    let def = self
                        .program
                        .function(name)
                        .expect("checked program: callable resolved");
                    let mut out = self.eval_defined_call(def, vals.clone());
                    // The executor's summarize-calls mode represents this
                    // call as an uninterpreted application of the raw
                    // argument terms, so the static taint must cover the
                    // arguments even when the body ignores them.
                    for v in &vals {
                        out.taint.extend(v.taint.iter().copied());
                    }
                    (out, Constancy::Unknown)
                }
            }
        }
    }

    /// Inline abstract execution of a defined function body on abstract
    /// arguments (no recursion in `mini`, so the nesting is bounded).
    fn eval_defined_call(&mut self, def: &'p FuncDef, args: Vec<AbsVal>) -> AbsVal {
        let mut st = AbsState::new();
        for (p, v) in def.params.iter().zip(args) {
            st.declare(p, Slot::Scalar(v));
        }
        let mut ret: Option<AbsVal> = None;
        self.exec_block_no_scope(&mut st, &def.body, &mut ret);
        // `None`: every path stops inside the callee (program-level
        // error); the call never returns, so any value is sound here.
        ret.unwrap_or_else(|| AbsVal::constant(0))
    }

    /// Runs a block in a fresh scope.
    fn exec_block(
        &mut self,
        st: &mut AbsState,
        body: &'p [Stmt],
        ret: &mut Option<AbsVal>,
    ) -> Flow {
        st.scopes.push(HashMap::new());
        let flow = self.exec_block_no_scope(st, body, ret);
        st.scopes.pop();
        flow
    }

    /// Runs a block in the current scope (program/function top level).
    fn exec_block_no_scope(
        &mut self,
        st: &mut AbsState,
        body: &'p [Stmt],
        ret: &mut Option<AbsVal>,
    ) -> Flow {
        for s in body {
            if self.exec_stmt(st, s, ret) == Flow::Stop {
                // Following statements stay unmarked → dead.
                return Flow::Stop;
            }
        }
        Flow::Cont
    }

    fn exec_stmt(&mut self, st: &mut AbsState, s: &'p Stmt, ret: &mut Option<AbsVal>) -> Flow {
        let id = self.stmt_of[&(s as *const Stmt)];
        self.reached.insert(id);
        match s {
            Stmt::Let(name, e) => {
                let (v, _) = self.eval(st, e);
                st.declare(name, Slot::Scalar(v));
                Flow::Cont
            }
            Stmt::LetArray(name, _len) => {
                st.declare(name, Slot::Array(AbsVal::constant(0)));
                Flow::Cont
            }
            Stmt::Assign(name, e) => {
                let (v, _) = self.eval(st, e);
                *st.lookup_mut(name) = Slot::Scalar(v);
                Flow::Cont
            }
            Stmt::AssignIndex(name, idx, val) => {
                let (iv, _) = self.eval(st, idx);
                let (vv, _) = self.eval(st, val);
                let Slot::Array(summary) = st.lookup_mut(name) else {
                    unreachable!("checker rules out indexing scalars");
                };
                // Weak update: the summary absorbs the new element and
                // the taint of the written index.
                *summary = summary.join(&vv);
                summary.taint.extend(iv.taint.iter().copied());
                Flow::Cont
            }
            Stmt::If {
                id: bid,
                cond,
                then_branch,
                else_branch,
            } => {
                let (cv, truth) = self.eval(st, cond);
                self.record_branch(*bid, &cv.taint, truth);
                match truth {
                    Constancy::AlwaysTrue => self.exec_block(st, then_branch, ret),
                    Constancy::AlwaysFalse => self.exec_block(st, else_branch, ret),
                    Constancy::Unknown => {
                        let mut then_st = st.clone();
                        refine(&mut then_st, cond, true);
                        let then_flow = self.exec_block(&mut then_st, then_branch, ret);
                        let mut else_st = std::mem::replace(st, AbsState::new());
                        refine(&mut else_st, cond, false);
                        let else_flow = self.exec_block(&mut else_st, else_branch, ret);
                        match (then_flow, else_flow) {
                            (Flow::Cont, Flow::Cont) => {
                                then_st.join_with(&else_st);
                                *st = then_st;
                                Flow::Cont
                            }
                            (Flow::Cont, Flow::Stop) => {
                                *st = then_st;
                                Flow::Cont
                            }
                            (Flow::Stop, Flow::Cont) => {
                                *st = else_st;
                                Flow::Cont
                            }
                            (Flow::Stop, Flow::Stop) => Flow::Stop,
                        }
                    }
                }
            }
            Stmt::While {
                id: bid,
                cond,
                body,
            } => self.exec_while(st, *bid, cond, body, ret),
            Stmt::Error(_) | Stmt::Return => Flow::Stop,
            Stmt::ReturnValue(e) => {
                let (v, _) = self.eval(st, e);
                *ret = Some(match ret.take() {
                    Some(prev) => prev.join(&v),
                    None => v,
                });
                Flow::Stop
            }
        }
    }

    fn exec_while(
        &mut self,
        st: &mut AbsState,
        bid: BranchId,
        cond: &'p Expr,
        body: &'p [Stmt],
        ret: &mut Option<AbsVal>,
    ) -> Flow {
        /// Iterations before widening kicks in (small constant-bound
        /// loops stay precise).
        const WIDEN_AFTER: usize = 3;
        let mut head = st.clone();
        let mut iters = 0;
        loop {
            let (cv, truth) = self.eval(&head, cond);
            if iters == 0 && truth == Constancy::AlwaysFalse {
                // Body never entered.
                self.record_branch(bid, &cv.taint, truth);
                *st = head;
                return Flow::Cont;
            }
            let mut body_st = head.clone();
            refine(&mut body_st, cond, true);
            let flow = self.exec_block(&mut body_st, body, ret);
            let mut next = head.clone();
            if flow == Flow::Cont {
                next.join_with(&body_st);
            }
            iters += 1;
            if iters >= WIDEN_AFTER {
                let mut widened = head.clone();
                widened.widen_to(&next);
                next = widened;
            }
            if next == head {
                // Converged: the recorded facts use the fixpoint state.
                let (cv, truth) = self.eval(&head, cond);
                self.record_branch(bid, &cv.taint, truth);
                if truth == Constancy::AlwaysTrue {
                    // The loop can only be left via `error`/`return`
                    // inside the body: the fall-through edge is dead.
                    return Flow::Stop;
                }
                *st = head;
                refine(st, cond, false);
                return Flow::Cont;
            }
            head = next;
        }
    }
}

/// Narrows variable intervals in `st` under the assumption that `cond`
/// evaluates to `want`. Only ever shrinks intervals (and drops a
/// refinement entirely rather than produce an empty interval), so it is
/// sound for any state that satisfies the assumption.
fn refine(st: &mut AbsState, cond: &Expr, want: bool) {
    match cond {
        Expr::Unary(UnOp::Not, inner) => refine(st, inner, !want),
        Expr::Binary(BinOp::And, a, b) if want => {
            refine(st, a, true);
            refine(st, b, true);
        }
        Expr::Binary(BinOp::Or, a, b) if !want => {
            refine(st, a, false);
            refine(st, b, false);
        }
        Expr::Binary(op, a, b) if op.is_comparison() => {
            let op = if want {
                *op
            } else {
                match op {
                    BinOp::Eq => BinOp::Ne,
                    BinOp::Ne => BinOp::Eq,
                    BinOp::Lt => BinOp::Ge,
                    BinOp::Le => BinOp::Gt,
                    BinOp::Gt => BinOp::Le,
                    BinOp::Ge => BinOp::Lt,
                    _ => unreachable!(),
                }
            };
            refine_cmp(st, op, a, b);
        }
        _ => {}
    }
}

/// Interval of an expression in `st` without visiting call sites — used
/// only to bound the *other* side of a comparison during refinement.
fn quick_itv(st: &AbsState, e: &Expr) -> Interval {
    match e {
        Expr::Int(v) => Interval::constant(*v),
        Expr::Var(name) => match st.lookup(name) {
            Slot::Scalar(v) => v.itv,
            Slot::Array(_) => Interval::TOP,
        },
        Expr::Unary(UnOp::Neg, inner) => quick_itv(st, inner).neg(),
        Expr::Binary(BinOp::Add, a, b) => quick_itv(st, a).add(quick_itv(st, b)),
        Expr::Binary(BinOp::Sub, a, b) => quick_itv(st, a).sub(quick_itv(st, b)),
        _ => Interval::TOP,
    }
}

/// Applies `lhs op rhs` (assumed true) to variable operands.
fn refine_cmp(st: &mut AbsState, op: BinOp, lhs: &Expr, rhs: &Expr) {
    if let Expr::Var(name) = lhs {
        let bound = quick_itv(st, rhs);
        refine_var(st, name, op, bound);
    }
    if let Expr::Var(name) = rhs {
        let flipped = match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other, // Eq/Ne are symmetric
        };
        let bound = quick_itv(st, lhs);
        refine_var(st, name, flipped, bound);
    }
}

/// Narrows `name` assuming `name op bound` holds. The strict-comparison
/// tightening (`name < bound` ⇒ `name ≤ hi(bound) − 1`) lives in
/// [`Interval::narrow`].
fn refine_var(st: &mut AbsState, name: &str, op: BinOp, bound: Interval) {
    if !op.is_comparison() {
        return;
    }
    let Slot::Scalar(v) = st.lookup_mut(name) else {
        return;
    };
    if let Some(n) = Interval::narrow(rel_of(op), bound) {
        if let Some(refined) = v.itv.intersect(n) {
            v.itv = refined;
        }
    }
}

/// Visits every expression of a statement (not descending into nested
/// statements), pre-order, left-to-right.
fn for_each_expr<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    fn expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
        f(e);
        match e {
            Expr::Int(_) | Expr::Var(_) => {}
            Expr::Index(_, i) => expr(i, f),
            Expr::Unary(_, inner) => expr(inner, f),
            Expr::Binary(_, a, b) => {
                expr(a, f);
                expr(b, f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    expr(a, f);
                }
            }
        }
    }
    match s {
        Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::ReturnValue(e) => expr(e, f),
        Stmt::AssignIndex(_, i, v) => {
            expr(i, f);
            expr(v, f);
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => expr(cond, f),
        Stmt::LetArray(..) | Stmt::Error(_) | Stmt::Return => {}
    }
}
