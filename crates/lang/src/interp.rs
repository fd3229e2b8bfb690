//! Concrete interpreter for `mini` programs.
//!
//! This is the "concrete execution" half of the paper's side-by-side
//! concolic architecture (the concrete store `M`). The concolic engine in
//! `hotg-concolic` reuses [`eval_expr`] for its concrete evaluations, so
//! there is exactly one definition of the language's runtime semantics.
//!
//! Boolean connectives `&&`/`||` evaluate **both** operands (no short
//! circuit), matching the paper's treatment of compound branch conditions:
//! in Example 3 (`bar`), both `hash(y)` and `hash(x)` are observed even
//! though the first conjunct is already false.

use crate::ast::{BinOp, BranchId, Expr, FuncDef, Param, Program, Stmt, UnOp};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A registered native implementation (shared, dynamically typed).
///
/// Implementations are `Send + Sync` so a registry can be shared by the
/// worker threads of a parallel test-generation campaign.
pub type NativeImpl = Arc<dyn Fn(&[i64]) -> i64 + Send + Sync>;

/// A registry of native ("unknown") function implementations.
///
/// Native functions run real Rust code during execution but are opaque to
/// symbolic reasoning — they are the unknown functions of the paper.
#[derive(Clone, Default)]
pub struct NativeRegistry {
    fns: HashMap<String, (usize, NativeImpl)>,
}

impl fmt::Debug for NativeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.fns.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("NativeRegistry")
            .field("functions", &names)
            .finish()
    }
}

impl NativeRegistry {
    /// Creates an empty registry.
    pub fn new() -> NativeRegistry {
        NativeRegistry::default()
    }

    /// Registers a native function implementation.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        f: impl Fn(&[i64]) -> i64 + Send + Sync + 'static,
    ) {
        self.fns.insert(name.into(), (arity, Arc::new(f)));
    }

    /// `true` if a function with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }

    /// Looks up a registered implementation and its arity (used by the
    /// bytecode compiler to resolve call sites once per campaign).
    pub fn lookup(&self, name: &str) -> Option<(usize, NativeImpl)> {
        self.fns.get(name).map(|(a, f)| (*a, Arc::clone(f)))
    }

    /// Calls a registered function.
    ///
    /// # Errors
    ///
    /// Returns an error string if the function is missing or the arity
    /// does not match.
    pub fn call(&self, name: &str, args: &[i64]) -> Result<i64, String> {
        match self.fns.get(name) {
            None => Err(format!("native function `{name}` is not registered")),
            Some((arity, f)) => {
                if *arity != args.len() {
                    Err(format!(
                        "native `{name}` expects {arity} arguments, got {}",
                        args.len()
                    ))
                } else {
                    Ok(f(args))
                }
            }
        }
    }
}

/// A storage slot: scalar or fixed-length array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Scalar integer.
    Scalar(i64),
    /// Fixed-length integer array.
    Array(Vec<i64>),
}

/// The concrete store `M`: lexically scoped name → slot bindings.
#[derive(Clone, Debug, Default)]
pub struct Env {
    scopes: Vec<HashMap<String, Slot>>,
}

impl Env {
    /// Creates an empty store with one global scope.
    pub fn new() -> Env {
        Env {
            scopes: vec![HashMap::new()],
        }
    }

    /// Enters a nested scope.
    pub fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Leaves the innermost scope.
    ///
    /// # Panics
    ///
    /// Panics if only the global scope remains.
    pub fn pop_scope(&mut self) {
        assert!(self.scopes.len() > 1, "cannot pop the global scope");
        self.scopes.pop();
    }

    /// Declares a binding in the innermost scope.
    pub fn declare(&mut self, name: impl Into<String>, slot: Slot) {
        self.scopes
            .last_mut()
            .expect("scope stack nonempty")
            .insert(name.into(), slot);
    }

    /// Reads a binding (innermost scope wins).
    pub fn get(&self, name: &str) -> Option<&Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Writes to an existing binding (innermost scope wins).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Slot> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }
}

/// A flat vector of concrete input values (array parameters contribute one
/// value per element, in order).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct InputVector {
    values: Vec<i64>,
}

impl InputVector {
    /// Creates an input vector from flat values.
    pub fn new(values: Vec<i64>) -> InputVector {
        InputVector { values }
    }

    /// All-zero inputs sized for a program.
    pub fn zeros(program: &Program) -> InputVector {
        InputVector {
            values: vec![0; program.input_width()],
        }
    }

    /// The flat values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Number of flat values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at a flat index.
    pub fn get(&self, i: usize) -> Option<i64> {
        self.values.get(i).copied()
    }

    /// Replaces the value at a flat index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set(&mut self, i: usize, v: i64) {
        self.values[i] = v;
    }

    /// Builds the initial environment binding program parameters.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match
    /// [`Program::input_width`].
    pub fn bind(&self, program: &Program) -> Env {
        assert_eq!(
            self.values.len(),
            program.input_width(),
            "input vector width mismatch"
        );
        let mut env = Env::new();
        let mut i = 0;
        for p in &program.params {
            match p {
                Param::Scalar(name) => {
                    env.declare(name.clone(), Slot::Scalar(self.values[i]));
                    i += 1;
                }
                Param::Array(name, len) => {
                    env.declare(name.clone(), Slot::Array(self.values[i..i + len].to_vec()));
                    i += len;
                }
            }
        }
        env
    }
}

impl From<Vec<i64>> for InputVector {
    fn from(values: Vec<i64>) -> InputVector {
        InputVector { values }
    }
}

/// The kind of a runtime fault, for per-kind breakdowns in campaign
/// reports. The human-readable message lives in [`Fault::message`];
/// `Display` for [`Fault`] prints only the message, so rendered fault
/// text is identical to the pre-structured (stringly) representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Division or remainder by zero.
    DivByZero,
    /// Arithmetic overflow (including negation of `i64::MIN`).
    Overflow,
    /// Array index out of bounds.
    OutOfBounds,
    /// Fuel ran out inside an execution that must report it as a fault
    /// (ordinary top-level fuel exhaustion is [`Outcome::OutOfFuel`]).
    FuelExhausted,
    /// A native ("unknown") function call failed (missing registration,
    /// arity mismatch).
    NativeError,
    /// A fault injected by a chaos/fault-injection harness.
    Injected,
    /// Anything else (type confusion, unbound names, malformed bodies).
    Other,
}

impl FaultKind {
    /// Stable lowercase label (used as a report key).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DivByZero => "div-by-zero",
            FaultKind::Overflow => "overflow",
            FaultKind::OutOfBounds => "out-of-bounds",
            FaultKind::FuelExhausted => "fuel-exhausted",
            FaultKind::NativeError => "native-error",
            FaultKind::Injected => "injected",
            FaultKind::Other => "other",
        }
    }
}

/// A structured runtime fault: a machine-readable kind plus the exact
/// human-readable message the stringly representation used to carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// What class of fault this is.
    pub kind: FaultKind,
    /// Human-readable description (unchanged from the pre-enum format).
    pub message: String,
}

impl Fault {
    /// A fault of an explicit kind.
    pub fn new(kind: FaultKind, message: impl Into<String>) -> Fault {
        Fault {
            kind,
            message: message.into(),
        }
    }

    /// An [`FaultKind::Other`] fault.
    pub fn other(message: impl Into<String>) -> Fault {
        Fault::new(FaultKind::Other, message)
    }

    /// A [`FaultKind::NativeError`] fault.
    pub fn native(message: impl Into<String>) -> Fault {
        Fault::new(FaultKind::NativeError, message)
    }
}

/// Prints the message only, so `format!("{fault}")` is byte-identical to
/// the old `String`-typed representation.
impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for Fault {
    fn from(message: String) -> Fault {
        Fault::other(message)
    }
}

impl From<&str> for Fault {
    fn from(message: &str) -> Fault {
        Fault::other(message.to_string())
    }
}

/// Why an execution stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Normal termination (`return` or falling off the end).
    Returned,
    /// An `error(code)` statement was reached — a bug was triggered.
    Error(i64),
    /// Division by zero, out-of-bounds access, or arithmetic overflow.
    RuntimeFault(Fault),
    /// The fuel budget was exhausted (the paper's timeout for
    /// non-terminating executions, Section 2 footnote 2).
    OutOfFuel,
}

impl Outcome {
    /// `true` for [`Outcome::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, Outcome::Error(_))
    }
}

/// What one concrete execution did: the branch trace, observed native
/// calls, and (when statement coverage is enabled) the executed
/// statements.
#[derive(Clone, Default)]
pub struct Trace {
    /// `(site, direction)` for every executed conditional, in order.
    pub branches: Vec<(BranchId, bool)>,
    /// `(name, args, result)` for every native call, in order.
    pub native_calls: Vec<(String, Vec<i64>, i64)>,
    /// Pre-order ids (see [`crate::ast::stmt_ids`]) of every statement the
    /// interpreter executed. Empty unless the trace was created with
    /// [`Trace::for_program`] (as [`run`] does).
    pub stmts: std::collections::BTreeSet<u32>,
    /// Statement address → pre-order id, filled by [`Trace::for_program`].
    index: Arc<HashMap<usize, u32>>,
}

/// Trace equality compares the *observable* behaviour — branch directions
/// and native calls — so traces with and without statement coverage
/// enabled compare equal when the execution behaved identically.
impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.branches == other.branches && self.native_calls == other.native_calls
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("branches", &self.branches)
            .field("native_calls", &self.native_calls)
            .field("stmts", &self.stmts)
            .finish()
    }
}

impl Trace {
    /// A trace that additionally records which statements of `program`
    /// execute (by pre-order [`crate::diag::StmtId`] index).
    pub fn for_program(program: &Program) -> Trace {
        let index = crate::ast::stmt_ids(program)
            .into_iter()
            .map(|(id, s)| (s as *const Stmt as usize, id.0))
            .collect();
        Trace {
            index: Arc::new(index),
            ..Trace::default()
        }
    }

    fn record_stmt(&mut self, s: &Stmt) {
        if let Some(&i) = self.index.get(&(s as *const Stmt as usize)) {
            self.stmts.insert(i);
        }
    }

    /// The branch-direction path as a compact vector.
    pub fn path(&self) -> Vec<(BranchId, bool)> {
        self.branches.clone()
    }
}

/// A concrete value during evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CVal {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
}

impl CVal {
    /// Extracts an integer.
    ///
    /// # Errors
    ///
    /// Returns an error string if the value is a boolean (the checker
    /// rules this out for checked programs).
    pub fn int(self) -> Result<i64, String> {
        match self {
            CVal::Int(v) => Ok(v),
            CVal::Bool(_) => Err("expected integer value".into()),
        }
    }

    /// Extracts a boolean.
    ///
    /// # Errors
    ///
    /// Returns an error string if the value is an integer.
    pub fn bool(self) -> Result<bool, String> {
        match self {
            CVal::Bool(v) => Ok(v),
            CVal::Int(_) => Err("expected boolean value".into()),
        }
    }
}

/// Evaluates an expression concretely, recording native calls into
/// `trace`. Calls to defined functions execute their bodies (consuming
/// `fuel`).
///
/// # Errors
///
/// Returns [`EvalError::Fault`] on division/remainder by zero, overflow,
/// out-of-bounds indexing, missing bindings, or native-call failures, and
/// [`EvalError::Stop`] when a called function stops the whole program
/// (`error(code)` or fuel exhaustion).
pub fn eval_expr(
    e: &Expr,
    env: &Env,
    natives: &NativeRegistry,
    functions: &[FuncDef],
    trace: &mut Trace,
    fuel: &mut u64,
) -> Result<CVal, EvalError> {
    match e {
        Expr::Int(v) => Ok(CVal::Int(*v)),
        Expr::Var(name) => match env.get(name) {
            Some(Slot::Scalar(v)) => Ok(CVal::Int(*v)),
            Some(Slot::Array(_)) => Err(format!("array `{name}` used as scalar").into()),
            None => Err(format!("unbound variable `{name}`").into()),
        },
        Expr::Index(name, idx) => {
            let i = eval_expr(idx, env, natives, functions, trace, fuel)?.int()?;
            match env.get(name) {
                Some(Slot::Array(items)) => {
                    let len = items.len();
                    usize::try_from(i)
                        .ok()
                        .and_then(|i| items.get(i).copied())
                        .map(CVal::Int)
                        .ok_or_else(|| {
                            EvalError::Fault(Fault::new(
                                FaultKind::OutOfBounds,
                                format!("index {i} out of bounds for `{name}` (len {len})"),
                            ))
                        })
                }
                Some(Slot::Scalar(_)) => Err(format!("cannot index scalar `{name}`").into()),
                None => Err(format!("unbound array `{name}`").into()),
            }
        }
        Expr::Unary(UnOp::Neg, inner) => {
            let v = eval_expr(inner, env, natives, functions, trace, fuel)?.int()?;
            v.checked_neg().map(CVal::Int).ok_or_else(|| {
                EvalError::Fault(Fault::new(
                    FaultKind::Overflow,
                    "arithmetic overflow in negation",
                ))
            })
        }
        Expr::Unary(UnOp::Not, inner) => {
            let v = eval_expr(inner, env, natives, functions, trace, fuel)?.bool()?;
            Ok(CVal::Bool(!v))
        }
        Expr::Binary(op, a, b) => {
            let va = eval_expr(a, env, natives, functions, trace, fuel)?;
            let vb = eval_expr(b, env, natives, functions, trace, fuel)?;
            Ok(eval_binop(*op, va, vb)?)
        }
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, env, natives, functions, trace, fuel)?.int()?);
            }
            if natives.contains(name) {
                let out = natives.call(name, &vals).map_err(Fault::native)?;
                trace.native_calls.push((name.clone(), vals, out));
                Ok(CVal::Int(out))
            } else if let Some(def) = functions.iter().find(|f| f.name == *name) {
                let out = call_function(def, &vals, natives, functions, trace, fuel)?;
                Ok(CVal::Int(out))
            } else {
                Err(format!("callable `{name}` is not defined").into())
            }
        }
    }
}

/// Executes a defined function body on concrete arguments.
///
/// The function runs in a fresh environment (no access to caller
/// bindings); `error(code)` and fuel exhaustion inside the body stop the
/// whole program via [`EvalError::Stop`].
///
/// # Errors
///
/// [`EvalError::Fault`] on runtime faults or a body that terminates
/// without `return expr;`.
pub fn call_function(
    def: &FuncDef,
    args: &[i64],
    natives: &NativeRegistry,
    functions: &[FuncDef],
    trace: &mut Trace,
    fuel: &mut u64,
) -> Result<i64, EvalError> {
    if args.len() != def.params.len() {
        return Err(format!(
            "fn `{}` expects {} arguments, got {}",
            def.name,
            def.params.len(),
            args.len()
        )
        .into());
    }
    let mut env = Env::new();
    for (p, v) in def.params.iter().zip(args.iter()) {
        env.declare(p.clone(), Slot::Scalar(*v));
    }
    match exec_block(&def.body, &mut env, natives, functions, trace, fuel) {
        Err(m) => Err(EvalError::Fault(m)),
        Ok(Flow::ReturnVal(v)) => Ok(v),
        Ok(Flow::Continue) | Ok(Flow::Stop(Outcome::Returned)) => {
            Err(EvalError::Fault(Fault::other(format!(
                "fn `{}` terminated without returning a value",
                def.name
            ))))
        }
        Ok(Flow::Stop(o)) => Err(EvalError::Stop(o)),
    }
}

/// Applies a binary operator to already-evaluated operands.
///
/// # Errors
///
/// Returns a [`Fault`] on type confusion, overflow, or zero divisor.
pub fn eval_binop(op: BinOp, a: CVal, b: CVal) -> Result<CVal, Fault> {
    if op.is_logical() {
        let (x, y) = (a.bool()?, b.bool()?);
        return Ok(CVal::Bool(match op {
            BinOp::And => x && y,
            BinOp::Or => x || y,
            _ => unreachable!(),
        }));
    }
    let (x, y) = (a.int()?, b.int()?);
    if op.is_comparison() {
        return Ok(CVal::Bool(match op {
            BinOp::Eq => x == y,
            BinOp::Ne => x != y,
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            BinOp::Ge => x >= y,
            _ => unreachable!(),
        }));
    }
    let out = match op {
        BinOp::Add => x.checked_add(y),
        BinOp::Sub => x.checked_sub(y),
        BinOp::Mul => x.checked_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(Fault::new(FaultKind::DivByZero, "division by zero"));
            }
            x.checked_div(y)
        }
        BinOp::Mod => {
            if y == 0 {
                return Err(Fault::new(FaultKind::DivByZero, "remainder by zero"));
            }
            x.checked_rem(y)
        }
        _ => unreachable!(),
    };
    out.map(CVal::Int).ok_or_else(|| {
        Fault::new(
            FaultKind::Overflow,
            format!("arithmetic overflow in `{}`", op.symbol()),
        )
    })
}

/// Why expression evaluation aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A runtime fault (division by zero, out-of-bounds, overflow, …).
    Fault(Fault),
    /// A full program stop raised inside a called function
    /// (`error(code)` or fuel exhaustion).
    Stop(Outcome),
}

impl From<Fault> for EvalError {
    fn from(f: Fault) -> EvalError {
        EvalError::Fault(f)
    }
}

impl From<String> for EvalError {
    fn from(m: String) -> EvalError {
        EvalError::Fault(Fault::other(m))
    }
}

impl From<&str> for EvalError {
    fn from(m: &str) -> EvalError {
        EvalError::Fault(Fault::other(m.to_string()))
    }
}

enum Flow {
    Continue,
    Stop(Outcome),
    /// `return expr;` — terminates a function body (or a value-returning
    /// standalone program built by the summarizer).
    ReturnVal(i64),
}

/// Runs a program on concrete inputs.
///
/// `fuel` bounds the number of executed statements (the paper's timeout
/// for potentially non-terminating executions).
///
/// # Examples
///
/// ```
/// use hotg_lang::{corpus, InputVector, run};
///
/// let (program, natives) = corpus::obscure();
/// let (outcome, trace) = run(&program, &natives, &InputVector::new(vec![33, 42]), 10_000);
/// assert_eq!(outcome, hotg_lang::Outcome::Returned);
/// assert_eq!(trace.native_calls.len(), 1); // one hash(y) observation
/// ```
pub fn run(
    program: &Program,
    natives: &NativeRegistry,
    inputs: &InputVector,
    fuel: u64,
) -> (Outcome, Trace) {
    let mut env = inputs.bind(program);
    let mut trace = Trace::for_program(program);
    let mut fuel = fuel;
    match exec_block(
        &program.body,
        &mut env,
        natives,
        &program.functions,
        &mut trace,
        &mut fuel,
    ) {
        Ok(Flow::Continue) | Ok(Flow::Stop(Outcome::Returned)) | Ok(Flow::ReturnVal(_)) => {
            (Outcome::Returned, trace)
        }
        Ok(Flow::Stop(outcome)) => (outcome, trace),
        Err(msg) => (Outcome::RuntimeFault(msg), trace),
    }
}

/// Maps an [`EvalError`] into the block-execution result space.
macro_rules! eval_or_flow {
    ($r:expr) => {
        match $r {
            Ok(v) => v,
            Err(EvalError::Fault(m)) => return Err(m),
            Err(EvalError::Stop(o)) => return Ok(Flow::Stop(o)),
        }
    };
}

fn exec_block(
    body: &[Stmt],
    env: &mut Env,
    natives: &NativeRegistry,
    functions: &[FuncDef],
    trace: &mut Trace,
    fuel: &mut u64,
) -> Result<Flow, Fault> {
    for s in body {
        if *fuel == 0 {
            return Ok(Flow::Stop(Outcome::OutOfFuel));
        }
        *fuel -= 1;
        trace.record_stmt(s);
        match s {
            Stmt::Let(name, e) => {
                let v = eval_or_flow!(eval_expr(e, env, natives, functions, trace, fuel)
                    .and_then(|v| v.int().map_err(EvalError::from)));
                env.declare(name.clone(), Slot::Scalar(v));
            }
            Stmt::LetArray(name, len) => {
                env.declare(name.clone(), Slot::Array(vec![0; *len]));
            }
            Stmt::Assign(name, e) => {
                let v = eval_or_flow!(eval_expr(e, env, natives, functions, trace, fuel)
                    .and_then(|v| v.int().map_err(EvalError::from)));
                match env.get_mut(name) {
                    Some(Slot::Scalar(slot)) => *slot = v,
                    Some(Slot::Array(_)) => {
                        return Err(format!("cannot assign whole array `{name}`").into())
                    }
                    None => return Err(format!("assignment to unbound `{name}`").into()),
                }
            }
            Stmt::AssignIndex(name, idx, val) => {
                let i = eval_or_flow!(eval_expr(idx, env, natives, functions, trace, fuel)
                    .and_then(|v| v.int().map_err(EvalError::from)));
                let v = eval_or_flow!(eval_expr(val, env, natives, functions, trace, fuel)
                    .and_then(|v| v.int().map_err(EvalError::from)));
                match env.get_mut(name) {
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
            }
            Stmt::If {
                id,
                cond,
                then_branch,
                else_branch,
            } => {
                let taken = eval_or_flow!(eval_expr(cond, env, natives, functions, trace, fuel)
                    .and_then(|v| v.bool().map_err(EvalError::from)));
                trace.branches.push((*id, taken));
                env.push_scope();
                let flow = if taken {
                    exec_block(then_branch, env, natives, functions, trace, fuel)?
                } else {
                    exec_block(else_branch, env, natives, functions, trace, fuel)?
                };
                env.pop_scope();
                if !matches!(flow, Flow::Continue) {
                    return Ok(flow);
                }
            }
            Stmt::While { id, cond, body } => loop {
                if *fuel == 0 {
                    return Ok(Flow::Stop(Outcome::OutOfFuel));
                }
                *fuel -= 1;
                let taken = eval_or_flow!(eval_expr(cond, env, natives, functions, trace, fuel)
                    .and_then(|v| v.bool().map_err(EvalError::from)));
                trace.branches.push((*id, taken));
                if !taken {
                    break;
                }
                env.push_scope();
                let flow = exec_block(body, env, natives, functions, trace, fuel)?;
                env.pop_scope();
                if !matches!(flow, Flow::Continue) {
                    return Ok(flow);
                }
            },
            Stmt::Error(code) => return Ok(Flow::Stop(Outcome::Error(*code))),
            Stmt::Return => return Ok(Flow::Stop(Outcome::Returned)),
            Stmt::ReturnValue(e) => {
                let v = eval_or_flow!(eval_expr(e, env, natives, functions, trace, fuel)
                    .and_then(|v| v.int().map_err(EvalError::from)));
                return Ok(Flow::ReturnVal(v));
            }
        }
    }
    Ok(Flow::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use crate::parser::parse;

    fn registry_with_hash() -> NativeRegistry {
        let mut n = NativeRegistry::new();
        n.register("hash", 1, |args| args[0].wrapping_mul(13) % 1000);
        n
    }

    #[test]
    fn straight_line() {
        let p = parse("program t(x: int) { let a = x + 1; if (a == 5) { error(9); } return; }")
            .unwrap();
        let n = NativeRegistry::new();
        let (o, t) = run(&p, &n, &InputVector::new(vec![4]), 100);
        assert_eq!(o, Outcome::Error(9));
        assert_eq!(t.branches, vec![(crate::ast::BranchId(0), true)]);
        let (o2, _) = run(&p, &n, &InputVector::new(vec![5]), 100);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn native_calls_recorded() {
        let p = parse(
            "native hash/1; program t(x: int, y: int) { if (x == hash(y)) { error(1); } return; }",
        )
        .unwrap();
        let n = registry_with_hash();
        let (_, t) = run(&p, &n, &InputVector::new(vec![0, 42]), 100);
        assert_eq!(t.native_calls.len(), 1);
        let (name, args, out) = &t.native_calls[0];
        assert_eq!(name, "hash");
        assert_eq!(args, &vec![42]);
        assert_eq!(*out, 546, "hash(42) = 42 * 13 mod 1000");
    }

    #[test]
    fn no_short_circuit() {
        // Both hash calls observed even when the first conjunct is false.
        let p = parse(
            r#"native hash/1;
            program bar(x: int, y: int) {
                if (x == hash(y) && y == hash(x)) { error(1); }
                return;
            }"#,
        )
        .unwrap();
        let n = registry_with_hash();
        let (_, t) = run(&p, &n, &InputVector::new(vec![33, 42]), 100);
        assert_eq!(t.native_calls.len(), 2);
    }

    #[test]
    fn while_loop_and_fuel() {
        let p =
            parse("program t(x: int) { let i = 0; while (i < x) { i = i + 1; } return; }").unwrap();
        let n = NativeRegistry::new();
        let (o, t) = run(&p, &n, &InputVector::new(vec![3]), 1000);
        assert_eq!(o, Outcome::Returned);
        // 3 true iterations + 1 false exit test.
        assert_eq!(t.branches.len(), 4);
        let (o2, _) = run(&p, &n, &InputVector::new(vec![1_000_000]), 50);
        assert_eq!(o2, Outcome::OutOfFuel);
    }

    #[test]
    fn arrays_read_write() {
        let p = parse(
            r#"program t(buf: array[3]) {
                let acc[2];
                acc[0] = buf[0] + buf[1];
                acc[1] = acc[0] + buf[2];
                if (acc[1] == 6) { error(3); }
                return;
            }"#,
        )
        .unwrap();
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![1, 2, 3]), 100);
        assert_eq!(o, Outcome::Error(3));
    }

    #[test]
    fn out_of_bounds_faults() {
        let p = parse("program t(buf: array[2], i: int) { let a = buf[i]; return; }").unwrap();
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![1, 2, 5]), 100);
        assert!(
            matches!(&o, Outcome::RuntimeFault(m) if m.kind == FaultKind::OutOfBounds
                && m.message.contains("out of bounds"))
        );
        let (o2, _) = run(&p, &n, &InputVector::new(vec![1, 2, -1]), 100);
        assert!(matches!(o2, Outcome::RuntimeFault(_)));
    }

    #[test]
    fn division_faults() {
        let p = parse("program t(x: int) { let a = 10 / x; return; }").unwrap();
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![0]), 100);
        assert!(
            matches!(&o, Outcome::RuntimeFault(m) if m.kind == FaultKind::DivByZero
                && m.message.contains("division by zero"))
        );
        let (o2, _) = run(&p, &n, &InputVector::new(vec![2]), 100);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn overflow_faults() {
        let p = parse("program t(x: int) { let a = x * x; return; }").unwrap();
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![i64::MAX]), 100);
        assert!(
            matches!(&o, Outcome::RuntimeFault(m) if m.kind == FaultKind::Overflow
                && m.message.contains("overflow"))
        );
    }

    #[test]
    fn scoping_restores_outer_binding() {
        let p = parse(
            r#"program t(x: int) {
                let a = 1;
                if (x == 0) { let a = 2; }
                if (a == 1) { error(1); }
                return;
            }"#,
        )
        .unwrap();
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![0]), 100);
        assert_eq!(o, Outcome::Error(1));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn input_vector_binding_mismatch() {
        let p = parse("program t(x: int, y: int) { return; }").unwrap();
        let _ = InputVector::new(vec![1]).bind(&p);
    }

    #[test]
    fn registry_errors() {
        let n = registry_with_hash();
        assert!(n.call("hash", &[1]).is_ok());
        assert!(n.call("hash", &[1, 2]).is_err());
        assert!(n.call("missing", &[]).is_err());
        assert!(n.contains("hash"));
        assert!(!n.contains("missing"));
        assert!(format!("{n:?}").contains("hash"));
    }

    #[test]
    fn function_calls_execute() {
        let p = parse(
            r#"
            fn double(v: int) { return v * 2; }
            fn quad(v: int) { return double(double(v)); }
            program t(x: int) {
                if (quad(x) == 20) { error(1); }
                return;
            }
        "#,
        )
        .unwrap();
        crate::check::check(&p).unwrap();
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![5]), 1000);
        assert_eq!(o, Outcome::Error(1));
        let (o2, _) = run(&p, &n, &InputVector::new(vec![4]), 1000);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn function_error_stops_program() {
        let p = parse(
            r#"
            fn guard(v: int) {
                if (v < 0) { error(7); }
                return v;
            }
            program t(x: int) {
                let a = guard(x);
                error(1);
            }
        "#,
        )
        .unwrap();
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![-1]), 1000);
        assert_eq!(o, Outcome::Error(7), "error inside fn stops the program");
        let (o2, _) = run(&p, &n, &InputVector::new(vec![1]), 1000);
        assert_eq!(o2, Outcome::Error(1));
    }

    #[test]
    fn function_scoping_is_fresh() {
        // The function must not see the caller's locals.
        let p = parse(
            r#"
            fn probe(v: int) { return v + secret; }
            program t(x: int) {
                let secret = 10;
                let a = probe(x);
                return;
            }
        "#,
        )
        .unwrap();
        // The checker rejects it…
        assert!(crate::check::check(&p).is_err());
        // …and the interpreter faults rather than leaking scope.
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![1]), 1000);
        assert!(matches!(o, Outcome::RuntimeFault(_)));
    }

    #[test]
    fn function_fuel_is_shared() {
        let p = parse(
            r#"
            fn spin(v: int) {
                let i = 0;
                while (i < 1000) { i = i + 1; }
                return i;
            }
            program t(x: int) {
                let a = spin(x);
                return;
            }
        "#,
        )
        .unwrap();
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![1]), 50);
        assert_eq!(o, Outcome::OutOfFuel);
    }

    #[test]
    fn function_missing_return_faults() {
        // Bypasses the checker: hand-built body with a bare `return;`.
        use crate::ast::{FuncDef, NativeDecl, Param};
        let p = Program {
            name: "t".into(),
            params: vec![Param::Scalar("x".into())],
            natives: Vec::<NativeDecl>::new(),
            functions: vec![FuncDef {
                name: "broken".into(),
                params: vec!["v".into()],
                body: vec![Stmt::Return],
            }],
            body: vec![Stmt::Let(
                "a".into(),
                Expr::Call("broken".into(), vec![Expr::Var("x".into())]),
            )],
            branch_count: 0,
            spans: Default::default(),
        };
        let n = NativeRegistry::new();
        let (o, _) = run(&p, &n, &InputVector::new(vec![1]), 100);
        assert!(matches!(o, Outcome::RuntimeFault(m) if m.message.contains("without returning")),);
    }

    #[test]
    fn cval_conversions() {
        assert_eq!(CVal::Int(3).int(), Ok(3));
        assert!(CVal::Int(3).bool().is_err());
        assert_eq!(CVal::Bool(true).bool(), Ok(true));
        assert!(CVal::Bool(true).int().is_err());
    }
}
