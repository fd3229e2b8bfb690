//! Function summaries for *higher-order compositional test generation*
//! (paper §8).
//!
//! A summary of a defined function is a set of `(guard, ret)` pairs: for
//! every enumerated intraprocedural path, `guard` is the path constraint
//! over the function's formals and `ret` the symbolic return term — both
//! possibly mentioning uninterpreted applications of *unknown* natives
//! (that is what makes the combination "higher-order": summary formulas
//! and sampled uninterpreted functions coexist in one antecedent, exactly
//! the simultaneous use the paper calls orthogonal).
//!
//! During a compositional campaign, calls to defined functions are
//! abstracted as uninterpreted applications `f#(args)`; for every such
//! application in an alternate path constraint, the instantiated summary
//! implications
//!
//! ```text
//! guardᵢ[formals := args]  ⇒  f#(args) = retᵢ[formals := args]
//! ```
//!
//! are conjoined to the antecedent `A` of `POST(pc)`. Implications are
//! *unconditionally sound* (each states a fact about every execution of
//! the real function), so partial summaries never compromise soundness;
//! when enumeration was exhaustive and every path returns a value, the
//! "some guard applies" disjunction is added as well.

use hotg_concolic::{diverged, execute, ConcolicContext, SymbolicMode};
use hotg_lang::{InputVector, NativeRegistry, Outcome, Param, Program};
use hotg_logic::{Atom, Formula, FuncSym, Term, Value, Var};
use hotg_solver::{SmtResult, SmtSolver};
use std::collections::HashSet;

/// One intraprocedural path of a summarized function.
#[derive(Clone, Debug)]
pub struct SummaryPath {
    /// Path constraint over the function's formals (`Var(0..arity)`).
    pub guard: Formula,
    /// Symbolic return term over the same formals.
    pub ret: Term,
}

/// Summary of one defined function.
#[derive(Clone, Debug)]
pub struct FuncSummary {
    /// Function name.
    pub name: String,
    /// The uninterpreted symbol abstracting calls in the caller context.
    pub fsym: FuncSym,
    /// Enumerated value-returning paths.
    pub paths: Vec<SummaryPath>,
    /// `true` when the enumeration covered every feasible path and all of
    /// them return a value — only then is the guard disjunction added.
    pub complete: bool,
}

/// Configuration for summary computation.
#[derive(Clone, Copy, Debug)]
pub struct SummaryConfig {
    /// Maximum executions per function during path enumeration.
    pub max_paths: usize,
    /// Statement fuel per enumeration run.
    pub fuel: u64,
}

impl Default for SummaryConfig {
    fn default() -> SummaryConfig {
        SummaryConfig {
            max_paths: 32,
            fuel: 100_000,
        }
    }
}

/// Summaries for every defined function of a program.
#[derive(Clone, Debug, Default)]
pub struct SummaryTable {
    entries: Vec<FuncSummary>,
}

impl SummaryTable {
    /// Computes summaries by DART-style path enumeration of each function
    /// body in isolation (formals as inputs, uninterpreted mode so native
    /// calls stay symbolic).
    pub fn compute(
        program: &Program,
        natives: &NativeRegistry,
        config: &SummaryConfig,
    ) -> SummaryTable {
        // The caller-context symbols: natives first, then defined
        // functions — identical declaration order in the standalone
        // context below, so `FuncSym` ids agree across contexts.
        let caller_ctx = ConcolicContext::new(program);
        let mut entries = Vec::new();
        for def in &program.functions {
            let standalone = Program {
                name: def.name.clone(),
                params: def.params.iter().cloned().map(Param::Scalar).collect(),
                natives: program.natives.clone(),
                functions: program.functions.clone(),
                body: def.body.clone(),
                branch_count: program.branch_count,

                spans: Default::default(),
            };
            let fsym = caller_ctx
                .defined_sym(&def.name)
                .expect("defined function has a symbol");
            let summary = enumerate_paths(&standalone, natives, fsym, config);
            entries.push(summary);
        }
        SummaryTable { entries }
    }

    /// Summary of the function behind `fsym`, if any.
    pub fn get(&self, fsym: FuncSym) -> Option<&FuncSummary> {
        self.entries.iter().find(|e| e.fsym == fsym)
    }

    /// Number of summarized functions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no functions are summarized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The summary implications of one application term `f#(args)`,
    /// instantiated at its arguments. Returns `None` if the symbol is
    /// not summarized.
    pub fn instantiate(&self, app: &Term) -> Option<Formula> {
        let Term::App(fsym, args) = app else {
            return None;
        };
        let summary = self.get(*fsym)?;
        let subst = |v: Var| args.get(v.index()).cloned();
        let mut out = Formula::True;
        let mut any_guard = Formula::False;
        for path in &summary.paths {
            let guard = path.guard.subst(&subst);
            let ret = path.ret.subst(&subst);
            out = out.and(
                guard
                    .clone()
                    .negate()
                    .or(Formula::atom(Atom::eq(app.clone(), ret))),
            );
            any_guard = any_guard.or(guard);
        }
        if summary.complete {
            out = out.and(any_guard);
        }
        Some(out)
    }

    /// The summary antecedent for a whole path constraint: instantiated
    /// implications for every summarized application occurring in `pc`.
    pub fn antecedent_for(&self, pc: &Formula) -> Formula {
        let mut out = Formula::True;
        for app in pc.apps() {
            if let Some(f) = self.instantiate(&app) {
                out = out.and(f);
            }
        }
        out
    }
}

/// Enumerates the paths of a standalone function program.
fn enumerate_paths(
    standalone: &Program,
    natives: &NativeRegistry,
    fsym: FuncSym,
    config: &SummaryConfig,
) -> FuncSummary {
    let ctx = ConcolicContext::new(standalone);
    let solver = SmtSolver::new();
    let width = standalone.input_width();

    let mut paths = Vec::new();
    let mut complete = true;
    let mut seen_paths: HashSet<Vec<(hotg_lang::BranchId, bool)>> = HashSet::new();
    let mut seen_targets: HashSet<Vec<(hotg_lang::BranchId, bool)>> = HashSet::new();
    type Expected = Option<Vec<(hotg_lang::BranchId, bool)>>;
    let mut worklist: Vec<(Vec<i64>, Expected)> = vec![(vec![0; width], None)];
    let mut runs = 0usize;

    while let Some((inputs, expected)) = worklist.pop() {
        if runs >= config.max_paths {
            complete = false;
            break;
        }
        runs += 1;
        let run = execute(
            &ctx,
            standalone,
            natives,
            &InputVector::new(inputs.clone()),
            SymbolicMode::Uninterpreted,
            config.fuel,
        );
        if let Some(expected) = &expected {
            if diverged(expected, &run.trace.branches) {
                // The solver had to invent unknown-function values and the
                // generated input missed its target: the targeted path may
                // still be feasible, so exhaustiveness cannot be claimed.
                complete = false;
            }
        }
        if !seen_paths.insert(run.trace.branches.clone()) {
            continue;
        }
        match (&run.outcome, &run.result_term) {
            (Outcome::Returned, Some(ret)) => paths.push(SummaryPath {
                guard: run.pc.formula(),
                ret: ret.clone(),
            }),
            // Paths that stop the program (`error`) or fault have no
            // return value: the implication form stays sound, but the
            // guard disjunction would not.
            _ => complete = false,
        }
        // Expand flip targets.
        for j in run.pc.branch_indices() {
            if run.pc.entries[j].constraint == Formula::True {
                continue;
            }
            let Some(expected) = run.pc.expected_path(j) else {
                continue;
            };
            if !seen_targets.insert(expected.clone()) {
                continue;
            }
            let Some(alt) = run.pc.alt(j) else { continue };
            match solver.check(&alt) {
                Ok(SmtResult::Sat(model)) => {
                    let mut next = inputs.clone();
                    for (i, v) in ctx.input_vars().iter().enumerate() {
                        if let Some(Value::Int(x)) = model.var(*v) {
                            next[i] = x;
                        }
                    }
                    worklist.push((next, Some(expected.clone())));
                }
                Ok(SmtResult::Unsat) => {}
                Ok(SmtResult::Unknown) | Err(_) => complete = false,
            }
        }
    }
    if !worklist.is_empty() {
        complete = false;
    }

    FuncSummary {
        name: standalone.name.clone(),
        fsym,
        paths,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_lang::{check, parse};

    fn helper_program() -> (Program, NativeRegistry) {
        let src = r#"
            native hash/1;
            fn adjusted(v: int) {
                if (v > 100) {
                    return hash(v) + 1;
                }
                return hash(v);
            }
            program caller(x: int, y: int) {
                if (x == adjusted(y)) {
                    if (y == 200) {
                        error(1);
                    }
                }
                return;
            }
        "#;
        let program = parse(src).unwrap();
        check(&program).unwrap();
        let mut natives = NativeRegistry::new();
        natives.register("hash", 1, |a| hotg_lang::corpus::paper_hash(a[0]));
        (program, natives)
    }

    #[test]
    fn computes_both_paths() {
        let (program, natives) = helper_program();
        let table = SummaryTable::compute(&program, &natives, &SummaryConfig::default());
        assert_eq!(table.len(), 1);
        let ctx = ConcolicContext::new(&program);
        let fsym = ctx.defined_sym("adjusted").unwrap();
        let summary = table.get(fsym).unwrap();
        assert_eq!(summary.paths.len(), 2, "{summary:?}");
        assert!(summary.complete, "both paths return: {summary:?}");
        // One ret mentions hash(v) + 1, the other hash(v).
        let rets: Vec<String> = summary
            .paths
            .iter()
            .map(|p| format!("{:?}", p.ret))
            .collect();
        assert!(rets.iter().any(|r| r.contains("Add")), "{rets:?}");
    }

    #[test]
    fn instantiation_substitutes_arguments() {
        let (program, natives) = helper_program();
        let table = SummaryTable::compute(&program, &natives, &SummaryConfig::default());
        let ctx = ConcolicContext::new(&program);
        let fsym = ctx.defined_sym("adjusted").unwrap();
        let y = ctx.input_vars()[1];
        let app = Term::app(fsym, vec![Term::var(y)]);
        let inst = table.instantiate(&app).expect("summarized");
        // The instantiated formula speaks about y, not about formals.
        assert!(inst.vars().contains(&y));
        // And embeds the hash application over y.
        let apps = inst.apps();
        assert!(apps
            .iter()
            .any(|a| matches!(a, Term::App(f, _) if ctx.sig().func_name(*f) == "hash")));
    }

    #[test]
    fn error_paths_mark_incomplete() {
        let src = r#"
            fn risky(v: int) {
                if (v == 7) {
                    error(9);
                }
                return v + 1;
            }
            program p(x: int) {
                let r = risky(x);
                if (r == 5) { error(1); }
                return;
            }
        "#;
        let program = parse(src).unwrap();
        check(&program).unwrap();
        let natives = NativeRegistry::new();
        let table = SummaryTable::compute(&program, &natives, &SummaryConfig::default());
        let ctx = ConcolicContext::new(&program);
        let summary = table.get(ctx.defined_sym("risky").unwrap()).unwrap();
        assert!(!summary.complete);
        assert_eq!(summary.paths.len(), 1); // only the returning path
    }

    #[test]
    fn antecedent_covers_pc_apps() {
        let (program, natives) = helper_program();
        let table = SummaryTable::compute(&program, &natives, &SummaryConfig::default());
        let ctx = ConcolicContext::new(&program);
        let fsym = ctx.defined_sym("adjusted").unwrap();
        let x = ctx.input_vars()[0];
        let y = ctx.input_vars()[1];
        let pc = Formula::atom(Atom::eq(Term::var(x), Term::app(fsym, vec![Term::var(y)])));
        let ante = table.antecedent_for(&pc);
        assert_ne!(ante, Formula::True);
        // Unsummarized pc: no antecedent.
        let plain = Formula::atom(Atom::eq(Term::var(x), Term::int(1)));
        assert_eq!(table.antecedent_for(&plain), Formula::True);
    }
}
