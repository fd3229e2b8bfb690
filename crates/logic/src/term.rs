//! Integer-sorted terms: the symbolic expressions stored in the symbolic
//! store `S` during concolic execution.
//!
//! A term is any expression over symbolic input variables, integer
//! constants, interpreted arithmetic operators, and *uninterpreted function
//! applications* `f(args)` (Figure 3, line 12 of the paper). Boolean
//! structure lives in [`crate::Atom`] and [`crate::Formula`].

use crate::hash::FastSet;
use crate::model::Model;
use crate::sym::{FuncSym, Signature, Var};
use std::collections::BTreeSet;
use std::fmt;

/// Interpreted integer operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// N-ary addition.
    Add,
    /// Binary subtraction.
    Sub,
    /// Binary multiplication. Only linear uses (one side constant) are in
    /// the decidable theory `T`; the concolic engine treats non-linear
    /// multiplications as unknown instructions.
    Mul,
    /// Binary truncating division (not in `T`; always an unknown
    /// instruction for the solver).
    Div,
    /// Binary remainder (not in `T`).
    Mod,
    /// Unary negation.
    Neg,
}

impl OpKind {
    /// The required argument count, or `None` for variadic operators.
    pub fn arity(self) -> Option<usize> {
        match self {
            OpKind::Add => None,
            OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Mod => Some(2),
            OpKind::Neg => Some(1),
        }
    }

    /// Surface syntax for display.
    pub fn symbol(self) -> &'static str {
        match self {
            OpKind::Add => "+",
            OpKind::Sub => "-",
            OpKind::Mul => "*",
            OpKind::Div => "/",
            OpKind::Mod => "%",
            OpKind::Neg => "-",
        }
    }
}

/// An integer-sorted symbolic expression.
///
/// # Examples
///
/// ```
/// use hotg_logic::{Signature, Sort, Term};
///
/// let mut sig = Signature::new();
/// let x = sig.declare_var("x", Sort::Int);
/// let h = sig.declare_func("hash", 1);
/// // hash(x) + 1
/// let t = Term::app(h, vec![Term::var(x)]) + Term::int(1);
/// assert_eq!(t.display(&sig).to_string(), "(hash(x) + 1)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A symbolic input variable.
    Var(Var),
    /// An integer constant.
    Int(i64),
    /// An uninterpreted function application `f(args)`.
    App(FuncSym, Vec<Term>),
    /// An interpreted operator application.
    Op(OpKind, Vec<Term>),
}

impl Term {
    /// A variable term.
    pub fn var(v: Var) -> Term {
        Term::Var(v)
    }

    /// An integer constant term.
    pub fn int(v: i64) -> Term {
        Term::Int(v)
    }

    /// An uninterpreted application `f(args)`.
    pub fn app(f: FuncSym, args: Vec<Term>) -> Term {
        Term::App(f, args)
    }

    /// An interpreted operator application, with constant folding for fully
    /// concrete arguments.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the operator's arity.
    pub fn op(kind: OpKind, args: Vec<Term>) -> Term {
        if let Some(n) = kind.arity() {
            assert_eq!(args.len(), n, "operator {kind:?} expects {n} arguments");
        }
        if let Some(consts) = args
            .iter()
            .map(|a| match a {
                Term::Int(v) => Some(*v),
                _ => None,
            })
            .collect::<Option<Vec<i64>>>()
        {
            if let Some(v) = fold_concrete(kind, &consts) {
                return Term::Int(v);
            }
        }
        Term::Op(kind, args)
    }

    /// `true` when the term contains no symbolic variables and no
    /// uninterpreted applications (i.e. it is a constant).
    pub fn is_concrete(&self) -> bool {
        match self {
            Term::Int(_) => true,
            Term::Var(_) | Term::App(..) => false,
            Term::Op(_, args) => args.iter().all(Term::is_concrete),
        }
    }

    /// Collects every symbolic variable occurring in the term, including
    /// inside uninterpreted-application arguments.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    pub(crate) fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Term::Var(v) => {
                out.insert(*v);
            }
            Term::Int(_) => {}
            Term::App(_, args) | Term::Op(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Collects every uninterpreted application subterm (deduplicated,
    /// innermost first so nested applications precede their parents).
    pub fn apps(&self) -> Vec<Term> {
        let mut out = Vec::new();
        self.collect_apps(&mut out, &mut FastSet::default());
        out
    }

    /// Appends to `out` every application of the term not yet in `seen`,
    /// innermost first, in first-seen order.
    pub(crate) fn collect_apps<'a>(&'a self, out: &mut Vec<Term>, seen: &mut FastSet<&'a Term>) {
        match self {
            Term::Var(_) | Term::Int(_) => {}
            Term::App(_, args) => {
                for a in args {
                    a.collect_apps(out, seen);
                }
                if seen.insert(self) {
                    out.push(self.clone());
                }
            }
            Term::Op(_, args) => {
                for a in args {
                    a.collect_apps(out, seen);
                }
            }
        }
    }

    /// Substitutes variables using `subst`; variables not in the map stay.
    pub fn subst(&self, subst: &dyn Fn(Var) -> Option<Term>) -> Term {
        match self {
            Term::Var(v) => subst(*v).unwrap_or_else(|| self.clone()),
            Term::Int(_) => self.clone(),
            Term::App(f, args) => Term::App(*f, args.iter().map(|a| a.subst(subst)).collect()),
            Term::Op(k, args) => Term::op(*k, args.iter().map(|a| a.subst(subst)).collect()),
        }
    }

    /// Replaces every occurrence of `from` (matched structurally) by `to`.
    pub fn replace(&self, from: &Term, to: &Term) -> Term {
        if self == from {
            return to.clone();
        }
        match self {
            Term::Var(_) | Term::Int(_) => self.clone(),
            Term::App(f, args) => Term::App(*f, args.iter().map(|a| a.replace(from, to)).collect()),
            Term::Op(k, args) => Term::op(*k, args.iter().map(|a| a.replace(from, to)).collect()),
        }
    }

    /// Evaluates the term under a [`Model`].
    ///
    /// Returns `None` if a variable or function application is not covered
    /// by the model, or if evaluation hits division by zero / overflow.
    pub fn eval(&self, model: &Model) -> Option<i64> {
        match self {
            Term::Var(v) => model.var(*v).and_then(crate::Value::int),
            Term::Int(c) => Some(*c),
            Term::App(f, args) => {
                let vals = args
                    .iter()
                    .map(|a| a.eval(model))
                    .collect::<Option<Vec<i64>>>()?;
                model.apply(*f, &vals)
            }
            Term::Op(k, args) => {
                let vals = args
                    .iter()
                    .map(|a| a.eval(model))
                    .collect::<Option<Vec<i64>>>()?;
                fold_concrete(*k, &vals)
            }
        }
    }

    /// Number of nodes in the term tree.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Int(_) => 1,
            Term::App(_, args) | Term::Op(_, args) => {
                1 + args.iter().map(Term::size).sum::<usize>()
            }
        }
    }

    /// Renders the term with human-readable names from `sig`.
    pub fn display<'a>(&'a self, sig: &'a Signature) -> TermDisplay<'a> {
        TermDisplay { term: self, sig }
    }
}

/// Evaluates an interpreted operator on concrete arguments.
///
/// Returns `None` on division/remainder by zero or on arithmetic overflow —
/// the concolic engine treats those as runtime errors, and the solver as
/// "no value".
pub fn fold_concrete(kind: OpKind, args: &[i64]) -> Option<i64> {
    match kind {
        OpKind::Add => args.iter().try_fold(0i64, |a, b| a.checked_add(*b)),
        OpKind::Sub => args[0].checked_sub(args[1]),
        OpKind::Mul => args[0].checked_mul(args[1]),
        OpKind::Div => {
            if args[1] == 0 {
                None
            } else {
                args[0].checked_div(args[1])
            }
        }
        OpKind::Mod => {
            if args[1] == 0 {
                None
            } else {
                args[0].checked_rem(args[1])
            }
        }
        OpKind::Neg => args[0].checked_neg(),
    }
}

impl std::ops::Add for Term {
    type Output = Term;
    fn add(self, rhs: Term) -> Term {
        Term::op(OpKind::Add, vec![self, rhs])
    }
}

impl std::ops::Sub for Term {
    type Output = Term;
    fn sub(self, rhs: Term) -> Term {
        Term::op(OpKind::Sub, vec![self, rhs])
    }
}

impl std::ops::Mul for Term {
    type Output = Term;
    fn mul(self, rhs: Term) -> Term {
        Term::op(OpKind::Mul, vec![self, rhs])
    }
}

impl std::ops::Neg for Term {
    type Output = Term;
    fn neg(self) -> Term {
        Term::op(OpKind::Neg, vec![self])
    }
}

impl From<i64> for Term {
    fn from(v: i64) -> Term {
        Term::Int(v)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Term {
        Term::Var(v)
    }
}

/// Helper returned by [`Term::display`].
pub struct TermDisplay<'a> {
    term: &'a Term,
    sig: &'a Signature,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(f, self.term, self.sig)
    }
}

fn write_term(f: &mut fmt::Formatter<'_>, t: &Term, sig: &Signature) -> fmt::Result {
    match t {
        Term::Var(v) => f.write_str(sig.var_name(*v)),
        Term::Int(c) => write!(f, "{c}"),
        Term::App(fs, args) => {
            write!(f, "{}(", sig.func_name(*fs))?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write_term(f, a, sig)?;
            }
            f.write_str(")")
        }
        Term::Op(OpKind::Neg, args) => {
            f.write_str("-")?;
            write_term(f, &args[0], sig)
        }
        Term::Op(k, args) => {
            f.write_str("(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, " {} ", k.symbol())?;
                }
                write_term(f, a, sig)?;
            }
            f.write_str(")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;
    use crate::Value;

    fn sig2() -> (Signature, Var, Var, FuncSym) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let h = sig.declare_func("hash", 1);
        (sig, x, y, h)
    }

    #[test]
    fn constant_folding() {
        assert_eq!(Term::int(2) + Term::int(3), Term::Int(5));
        assert_eq!(Term::int(2) * Term::int(3), Term::Int(6));
        assert_eq!(-Term::int(4), Term::Int(-4));
        assert_eq!(
            Term::op(OpKind::Div, vec![Term::int(7), Term::int(2)]),
            Term::Int(3)
        );
        // Division by zero is not folded away; it stays symbolic.
        let t = Term::op(OpKind::Div, vec![Term::int(7), Term::int(0)]);
        assert!(matches!(t, Term::Op(OpKind::Div, _)));
    }

    #[test]
    fn no_folding_with_symbols() {
        let (_, x, _, _) = sig2();
        let t = Term::var(x) + Term::int(0);
        assert!(matches!(t, Term::Op(OpKind::Add, _)));
    }

    #[test]
    #[should_panic(expected = "expects 2 arguments")]
    fn arity_mismatch_panics() {
        let _ = Term::op(OpKind::Sub, vec![Term::int(1)]);
    }

    #[test]
    fn vars_collection() {
        let (_, x, y, h) = sig2();
        let t = Term::app(h, vec![Term::var(y)]) + Term::var(x);
        let vs = t.vars();
        assert!(vs.contains(&x) && vs.contains(&y));
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn apps_collection_innermost_first() {
        let (_, x, _, h) = sig2();
        let inner = Term::app(h, vec![Term::var(x)]);
        let outer = Term::app(h, vec![inner.clone()]);
        let apps = (outer.clone() + Term::int(1)).apps();
        assert_eq!(apps, vec![inner, outer]);
    }

    #[test]
    fn apps_deduplicated() {
        let (_, x, _, h) = sig2();
        let a = Term::app(h, vec![Term::var(x)]);
        let t = a.clone() + a.clone();
        assert_eq!(t.apps().len(), 1);
    }

    #[test]
    fn substitution() {
        let (_, x, y, h) = sig2();
        let t = Term::app(h, vec![Term::var(y)]) + Term::var(x);
        let s = t.subst(&|v| if v == y { Some(Term::int(42)) } else { None });
        let expected = Term::app(h, vec![Term::int(42)]) + Term::var(x);
        assert_eq!(s, expected);
    }

    #[test]
    fn replace_subterm() {
        let (_, x, _, h) = sig2();
        let a = Term::app(h, vec![Term::var(x)]);
        let t = a.clone() + Term::int(1);
        let r = t.replace(&a, &Term::int(5));
        assert_eq!(r, Term::Int(6)); // folded 5 + 1
    }

    #[test]
    fn eval_under_model() {
        let (_, x, y, h) = sig2();
        let mut model = Model::new();
        model.set_var(x, Value::Int(2));
        model.set_var(y, Value::Int(42));
        model.set_func_entry(h, vec![42], 567);
        let t = Term::app(h, vec![Term::var(y)]) + Term::var(x);
        assert_eq!(t.eval(&model), Some(569));
        // Unsampled application with a declared default.
        model.set_func_default(h, 0);
        let t2 = Term::app(h, vec![Term::var(x)]);
        assert_eq!(t2.eval(&model), Some(0));
    }

    #[test]
    fn eval_missing_var_is_none() {
        let (_, x, _, _) = sig2();
        let model = Model::new();
        assert_eq!(Term::var(x).eval(&model), None);
    }

    #[test]
    fn size_and_concreteness() {
        let (_, x, _, h) = sig2();
        let t = Term::app(h, vec![Term::var(x)]) + Term::int(1);
        assert_eq!(t.size(), 4);
        assert!(!t.is_concrete());
        assert!((Term::int(1) + Term::int(2)).is_concrete());
    }

    #[test]
    fn display_forms() {
        let (sig, x, y, h) = sig2();
        let t = Term::app(h, vec![Term::var(y)]) + Term::var(x);
        assert_eq!(t.display(&sig).to_string(), "(hash(y) + x)");
        let n = -Term::var(x);
        assert_eq!(n.display(&sig).to_string(), "-x");
    }
}
