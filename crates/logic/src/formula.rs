//! Quantifier-free boolean formulas over [`Atom`]s.
//!
//! Branch conditions in the mini language can combine comparisons with
//! `&&`, `||` and `!`, so a single conditional statement can contribute a
//! non-atomic constraint to the path constraint. The §7 collision
//! expansion (`h(x) = c` ⇒ `x = c₁ ∨ x = c₂ ∨ …`) also introduces
//! disjunctions.

use crate::atom::Atom;
use crate::hash::FastSet;
use crate::model::Model;
use crate::sym::{Signature, Var};
use crate::term::Term;
use std::collections::BTreeSet;
use std::fmt;

/// A quantifier-free boolean formula.
///
/// # Examples
///
/// ```
/// use hotg_logic::{Atom, Formula, Rel, Signature, Sort, Term};
///
/// let mut sig = Signature::new();
/// let x = sig.declare_var("x", Sort::Int);
/// let f = Formula::atom(Atom::new(Term::var(x), Rel::Gt, Term::int(0)))
///     .and(Formula::atom(Atom::new(Term::var(x), Rel::Lt, Term::int(10))));
/// assert_eq!(f.display(&sig).to_string(), "(x > 0 /\\ x < 10)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// An atomic constraint.
    Atom(Atom),
    /// Logical negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// Wraps an atom, folding constant atoms to `True`/`False`.
    pub fn atom(a: Atom) -> Formula {
        match a.const_value() {
            Some(true) => Formula::True,
            Some(false) => Formula::False,
            None => Formula::Atom(a),
        }
    }

    /// Smart conjunction with unit folding.
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, f) | (f, Formula::True) => f,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::And(mut a), Formula::And(b)) => {
                a.extend(b);
                Formula::And(a)
            }
            (Formula::And(mut a), f) => {
                a.push(f);
                Formula::And(a)
            }
            (f, Formula::And(mut b)) => {
                b.insert(0, f);
                Formula::And(b)
            }
            (a, b) => Formula::And(vec![a, b]),
        }
    }

    /// Smart disjunction with unit folding.
    pub fn or(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::False, f) | (f, Formula::False) => f,
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::Or(mut a), Formula::Or(b)) => {
                a.extend(b);
                Formula::Or(a)
            }
            (Formula::Or(mut a), f) => {
                a.push(f);
                Formula::Or(a)
            }
            (f, Formula::Or(mut b)) => {
                b.insert(0, f);
                Formula::Or(b)
            }
            (a, b) => Formula::Or(vec![a, b]),
        }
    }

    /// Smart negation; atoms negate via their relation so negation-free
    /// normal form is preserved for atomic formulas.
    pub fn negate(&self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Atom(a) => Formula::Atom(a.negate()),
            Formula::Not(f) => (**f).clone(),
            Formula::And(fs) => Formula::Or(fs.iter().map(Formula::negate).collect()),
            Formula::Or(fs) => Formula::And(fs.iter().map(Formula::negate).collect()),
        }
    }

    /// Conjunction of an iterator of formulas.
    pub fn conj(parts: impl IntoIterator<Item = Formula>) -> Formula {
        parts.into_iter().fold(Formula::True, |acc, f| acc.and(f))
    }

    /// Disjunction of an iterator of formulas.
    pub fn disj(parts: impl IntoIterator<Item = Formula>) -> Formula {
        parts.into_iter().fold(Formula::False, |acc, f| acc.or(f))
    }

    /// Evaluates under a model; `None` if some atom cannot be evaluated.
    pub fn eval(&self, model: &Model) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(a) => a.eval(model),
            Formula::Not(f) => f.eval(model).map(|b| !b),
            Formula::And(fs) => {
                let mut out = true;
                for f in fs {
                    out &= f.eval(model)?;
                }
                Some(out)
            }
            Formula::Or(fs) => {
                let mut out = false;
                for f in fs {
                    out |= f.eval(model)?;
                }
                Some(out)
            }
        }
    }

    /// All symbolic variables occurring in the formula.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                a.lhs.collect_vars(out);
                a.rhs.collect_vars(out);
            }
            Formula::Not(f) => f.collect_vars(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
        }
    }

    /// All uninterpreted applications occurring in the formula
    /// (deduplicated, innermost first).
    pub fn apps(&self) -> Vec<Term> {
        let mut out = Vec::new();
        self.collect_apps(&mut out, &mut FastSet::default());
        out
    }

    fn collect_apps<'a>(&'a self, out: &mut Vec<Term>, seen: &mut FastSet<&'a Term>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => a.collect_apps(out, seen),
            Formula::Not(f) => f.collect_apps(out, seen),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_apps(out, seen);
                }
            }
        }
    }

    /// Applies a variable substitution throughout.
    pub fn subst(&self, subst: &dyn Fn(Var) -> Option<Term>) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::atom(a.subst(subst)),
            Formula::Not(f) => Formula::Not(Box::new(f.subst(subst))),
            Formula::And(fs) => Formula::conj(fs.iter().map(|f| f.subst(subst))),
            Formula::Or(fs) => Formula::disj(fs.iter().map(|f| f.subst(subst))),
        }
    }

    /// Replaces a subterm throughout.
    pub fn replace(&self, from: &Term, to: &Term) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::atom(a.replace(from, to)),
            Formula::Not(f) => Formula::Not(Box::new(f.replace(from, to))),
            Formula::And(fs) => Formula::conj(fs.iter().map(|f| f.replace(from, to))),
            Formula::Or(fs) => Formula::disj(fs.iter().map(|f| f.replace(from, to))),
        }
    }

    /// Negation normal form: `Not` pushed onto atoms (and eliminated there
    /// via [`Atom::negate`]).
    pub fn nnf(&self) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => self.clone(),
            Formula::Not(f) => f.negate().nnf(),
            Formula::And(fs) => Formula::conj(fs.iter().map(Formula::nnf)),
            Formula::Or(fs) => Formula::disj(fs.iter().map(Formula::nnf)),
        }
    }

    /// The conjuncts of a top-level conjunction (a non-`And` formula is its
    /// own single conjunct).
    pub fn conjuncts(&self) -> Vec<Formula> {
        match self {
            Formula::And(fs) => fs.clone(),
            Formula::True => Vec::new(),
            other => vec![other.clone()],
        }
    }

    /// Renders the formula with names from `sig`.
    pub fn display<'a>(&'a self, sig: &'a Signature) -> FormulaDisplay<'a> {
        FormulaDisplay { formula: self, sig }
    }
}

impl From<Atom> for Formula {
    fn from(a: Atom) -> Formula {
        Formula::atom(a)
    }
}

/// Helper returned by [`Formula::display`].
pub struct FormulaDisplay<'a> {
    formula: &'a Formula,
    sig: &'a Signature,
}

impl fmt::Display for FormulaDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_formula(f, self.formula, self.sig)
    }
}

fn write_formula(f: &mut fmt::Formatter<'_>, fla: &Formula, sig: &Signature) -> fmt::Result {
    match fla {
        Formula::True => f.write_str("true"),
        Formula::False => f.write_str("false"),
        Formula::Atom(a) => write!(f, "{}", a.display(sig)),
        Formula::Not(inner) => {
            f.write_str("!(")?;
            write_formula(f, inner, sig)?;
            f.write_str(")")
        }
        Formula::And(fs) => write_nary(f, fs, sig, "/\\"),
        Formula::Or(fs) => write_nary(f, fs, sig, "\\/"),
    }
}

fn write_nary(
    f: &mut fmt::Formatter<'_>,
    fs: &[Formula],
    sig: &Signature,
    op: &str,
) -> fmt::Result {
    f.write_str("(")?;
    for (i, x) in fs.iter().enumerate() {
        if i > 0 {
            write!(f, " {op} ")?;
        }
        write_formula(f, x, sig)?;
    }
    f.write_str(")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Rel;
    use crate::sort::Sort;
    use crate::Value;

    fn setup() -> (Signature, Var, Var) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        (sig, x, y)
    }

    fn gt0(x: Var) -> Formula {
        Formula::atom(Atom::new(Term::var(x), Rel::Gt, Term::int(0)))
    }

    #[test]
    fn smart_constructors_fold_units() {
        let (_, x, _) = setup();
        assert_eq!(Formula::True.and(gt0(x)), gt0(x));
        assert_eq!(gt0(x).and(Formula::False), Formula::False);
        assert_eq!(Formula::False.or(gt0(x)), gt0(x));
        assert_eq!(gt0(x).or(Formula::True), Formula::True);
    }

    #[test]
    fn atom_constant_folding() {
        assert_eq!(
            Formula::atom(Atom::new(Term::int(1), Rel::Lt, Term::int(2))),
            Formula::True
        );
        assert_eq!(
            Formula::atom(Atom::new(Term::int(2), Rel::Lt, Term::int(1))),
            Formula::False
        );
    }

    #[test]
    fn negate_de_morgan() {
        let (_, x, y) = setup();
        let f = gt0(x).and(gt0(y));
        let n = f.negate();
        match n {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert_eq!(
                    parts[0],
                    Formula::atom(Atom::new(Term::var(x), Rel::Le, Term::int(0)))
                );
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn eval_semantics() {
        let (_, x, y) = setup();
        let mut m = Model::new();
        m.set_var(x, Value::Int(1));
        m.set_var(y, Value::Int(-1));
        let f = gt0(x).and(gt0(y));
        assert_eq!(f.eval(&m), Some(false));
        let g = gt0(x).or(gt0(y));
        assert_eq!(g.eval(&m), Some(true));
        assert_eq!(Formula::Not(Box::new(gt0(y))).eval(&m), Some(true));
    }

    #[test]
    fn nnf_pushes_negations() {
        let (_, x, y) = setup();
        let f = Formula::Not(Box::new(gt0(x).and(gt0(y))));
        let n = f.nnf();
        assert!(matches!(n, Formula::Or(_)));
        // NNF contains no Not nodes.
        fn no_not(f: &Formula) -> bool {
            match f {
                Formula::Not(_) => false,
                Formula::And(fs) | Formula::Or(fs) => fs.iter().all(no_not),
                _ => true,
            }
        }
        assert!(no_not(&n));
    }

    #[test]
    fn conjuncts_and_collections() {
        let (_, x, y) = setup();
        let f = gt0(x).and(gt0(y));
        assert_eq!(f.conjuncts().len(), 2);
        assert_eq!(Formula::True.conjuncts().len(), 0);
        assert_eq!(gt0(x).conjuncts().len(), 1);
        assert_eq!(f.vars().len(), 2);
    }

    #[test]
    fn apps_collection() {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let h = sig.declare_func("h", 1);
        let app = Term::app(h, vec![Term::var(x)]);
        let f = Formula::atom(Atom::eq(app.clone(), Term::int(1)))
            .and(Formula::atom(Atom::ne(app.clone(), Term::int(2))));
        assert_eq!(f.apps(), vec![app]);
    }

    #[test]
    fn apps_keep_first_seen_order_over_nesting_and_repeats() {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let z = sig.declare_var("z", Sort::Int);
        let h = sig.declare_func("h", 1);
        let g = sig.declare_func("g", 2);
        let hx = Term::app(h, vec![Term::var(x)]);
        let hy = Term::app(h, vec![Term::var(y)]);
        let hz = Term::app(h, vec![Term::var(z)]);
        let hhx = Term::app(h, vec![hx.clone()]);
        let hhhx = Term::app(h, vec![hhx.clone()]);
        let gxy = Term::app(g, vec![hx.clone(), hy.clone()]);
        // Arguments precede their application, the lhs precedes the rhs,
        // and a repeat (at any depth, in any atom) keeps its first place.
        let first = Atom::new(gxy.clone() + hhx.clone(), Rel::Lt, hy.clone());
        let second = Atom::eq(hhhx.clone(), gxy.clone() + hx.clone());
        let third = Atom::eq(hz.clone(), hx.clone());
        assert_eq!(
            first.apps(),
            vec![hx.clone(), hy.clone(), gxy.clone(), hhx.clone()]
        );
        assert_eq!(
            Atom::eq(hy.clone(), hx.clone() + hy.clone()).apps(),
            vec![hy.clone(), hx.clone()]
        );
        let f = Formula::atom(first)
            .and(Formula::atom(second).or(Formula::Not(Box::new(Formula::atom(third)))));
        assert_eq!(f.apps(), vec![hx, hy, gxy, hhx, hhhx, hz]);
    }

    #[test]
    fn subst_and_replace() {
        let (_, x, y) = setup();
        let f = gt0(x).and(gt0(y));
        let s = f.subst(&|v| (v == x).then(|| Term::int(5)));
        // x > 0 folded to true, leaving y > 0.
        assert_eq!(s, gt0(y));
        let r = f.replace(&Term::var(y), &Term::int(-2));
        assert_eq!(r, Formula::False);
    }

    #[test]
    fn display_output() {
        let (sig, x, y) = setup();
        let f = gt0(x).or(gt0(y));
        assert_eq!(f.display(&sig).to_string(), "(x > 0 \\/ y > 0)");
    }
}
