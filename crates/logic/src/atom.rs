//! Atomic constraints: binary relations between integer terms.
//!
//! Path constraints in the paper are conjunctions of such atoms (and their
//! negations) collected at conditional statements (Figure 2, lines 13–14).

use crate::hash::FastSet;
use crate::model::Model;
use crate::sym::Signature;
use crate::term::Term;
use std::fmt;

/// A binary relation over integer terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rel {
    /// Equality `=`.
    Eq,
    /// Disequality `≠`.
    Ne,
    /// Strictly less `<`.
    Lt,
    /// Less or equal `≤`.
    Le,
    /// Strictly greater `>`.
    Gt,
    /// Greater or equal `≥`.
    Ge,
}

impl Rel {
    /// The logically negated relation.
    pub fn negate(self) -> Rel {
        match self {
            Rel::Eq => Rel::Ne,
            Rel::Ne => Rel::Eq,
            Rel::Lt => Rel::Ge,
            Rel::Le => Rel::Gt,
            Rel::Gt => Rel::Le,
            Rel::Ge => Rel::Lt,
        }
    }

    /// The relation with operands swapped (`a R b` ⇔ `b R.flip() a`).
    pub fn flip(self) -> Rel {
        match self {
            Rel::Eq => Rel::Eq,
            Rel::Ne => Rel::Ne,
            Rel::Lt => Rel::Gt,
            Rel::Le => Rel::Ge,
            Rel::Gt => Rel::Lt,
            Rel::Ge => Rel::Le,
        }
    }

    /// Evaluates the relation on concrete integers.
    pub fn holds(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Rel::Eq => lhs == rhs,
            Rel::Ne => lhs != rhs,
            Rel::Lt => lhs < rhs,
            Rel::Le => lhs <= rhs,
            Rel::Gt => lhs > rhs,
            Rel::Ge => lhs >= rhs,
        }
    }

    /// Surface syntax for display.
    pub fn symbol(self) -> &'static str {
        match self {
            Rel::Eq => "=",
            Rel::Ne => "!=",
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Gt => ">",
            Rel::Ge => ">=",
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An atomic constraint `lhs REL rhs`.
///
/// # Examples
///
/// ```
/// use hotg_logic::{Atom, Rel, Signature, Sort, Term};
///
/// let mut sig = Signature::new();
/// let x = sig.declare_var("x", Sort::Int);
/// let a = Atom::new(Term::var(x), Rel::Eq, Term::int(567));
/// assert_eq!(a.display(&sig).to_string(), "x = 567");
/// assert_eq!(a.negate().display(&sig).to_string(), "x != 567");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Left-hand side.
    pub lhs: Term,
    /// Relation.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: Term,
}

impl Atom {
    /// Creates an atom `lhs rel rhs`.
    pub fn new(lhs: Term, rel: Rel, rhs: Term) -> Atom {
        Atom { lhs, rel, rhs }
    }

    /// Convenience constructor for `lhs = rhs`.
    pub fn eq(lhs: Term, rhs: Term) -> Atom {
        Atom::new(lhs, Rel::Eq, rhs)
    }

    /// Convenience constructor for `lhs ≠ rhs`.
    pub fn ne(lhs: Term, rhs: Term) -> Atom {
        Atom::new(lhs, Rel::Ne, rhs)
    }

    /// The negated atom.
    pub fn negate(&self) -> Atom {
        Atom::new(self.lhs.clone(), self.rel.negate(), self.rhs.clone())
    }

    /// Evaluates the atom under a model; `None` if some subterm cannot be
    /// evaluated.
    pub fn eval(&self, model: &Model) -> Option<bool> {
        Some(self.rel.holds(self.lhs.eval(model)?, self.rhs.eval(model)?))
    }

    /// If both sides are concrete, the truth value of the atom.
    pub fn const_value(&self) -> Option<bool> {
        match (&self.lhs, &self.rhs) {
            (Term::Int(a), Term::Int(b)) => Some(self.rel.holds(*a, *b)),
            _ => None,
        }
    }

    /// All symbolic variables in either side.
    pub fn vars(&self) -> std::collections::BTreeSet<crate::Var> {
        let mut out = std::collections::BTreeSet::new();
        self.lhs.collect_vars(&mut out);
        self.rhs.collect_vars(&mut out);
        out
    }

    /// All uninterpreted applications in either side (innermost first).
    pub fn apps(&self) -> Vec<Term> {
        let mut out = Vec::new();
        self.collect_apps(&mut out, &mut FastSet::default());
        out
    }

    /// Appends to `out` every application of either side not yet in
    /// `seen`, in first-seen order.
    pub(crate) fn collect_apps<'a>(&'a self, out: &mut Vec<Term>, seen: &mut FastSet<&'a Term>) {
        self.lhs.collect_apps(out, seen);
        self.rhs.collect_apps(out, seen);
    }

    /// Applies a variable substitution to both sides.
    pub fn subst(&self, subst: &dyn Fn(crate::Var) -> Option<Term>) -> Atom {
        Atom::new(self.lhs.subst(subst), self.rel, self.rhs.subst(subst))
    }

    /// Replaces a subterm in both sides.
    pub fn replace(&self, from: &Term, to: &Term) -> Atom {
        Atom::new(
            self.lhs.replace(from, to),
            self.rel,
            self.rhs.replace(from, to),
        )
    }

    /// Renders the atom with names from `sig`.
    pub fn display<'a>(&'a self, sig: &'a Signature) -> AtomDisplay<'a> {
        AtomDisplay { atom: self, sig }
    }
}

/// Helper returned by [`Atom::display`].
pub struct AtomDisplay<'a> {
    atom: &'a Atom,
    sig: &'a Signature,
}

impl fmt::Display for AtomDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}",
            self.atom.lhs.display(self.sig),
            self.atom.rel,
            self.atom.rhs.display(self.sig)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;
    use crate::{Value, Var};

    fn setup() -> (Signature, Var, Var) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        (sig, x, y)
    }

    #[test]
    fn rel_negate_involution() {
        for r in [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge] {
            assert_eq!(r.negate().negate(), r);
            assert_eq!(r.flip().flip(), r);
        }
    }

    #[test]
    fn rel_semantics() {
        assert!(Rel::Eq.holds(3, 3));
        assert!(Rel::Ne.holds(3, 4));
        assert!(Rel::Lt.holds(3, 4));
        assert!(Rel::Le.holds(3, 3));
        assert!(Rel::Gt.holds(4, 3));
        assert!(Rel::Ge.holds(4, 4));
        assert!(!Rel::Lt.holds(4, 4));
    }

    #[test]
    fn rel_negate_semantics() {
        for r in [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge] {
            for a in -2..=2i64 {
                for b in -2..=2i64 {
                    assert_eq!(r.holds(a, b), !r.negate().holds(a, b));
                    assert_eq!(r.holds(a, b), r.flip().holds(b, a));
                }
            }
        }
    }

    #[test]
    fn atom_eval() {
        let (_, x, y) = setup();
        let mut m = Model::new();
        m.set_var(x, Value::Int(5));
        m.set_var(y, Value::Int(7));
        let a = Atom::new(Term::var(x), Rel::Lt, Term::var(y));
        assert_eq!(a.eval(&m), Some(true));
        assert_eq!(a.negate().eval(&m), Some(false));
    }

    #[test]
    fn atom_const_value() {
        let a = Atom::new(Term::int(1), Rel::Lt, Term::int(2));
        assert_eq!(a.const_value(), Some(true));
        let (_, x, _) = setup();
        let b = Atom::new(Term::var(x), Rel::Lt, Term::int(2));
        assert_eq!(b.const_value(), None);
    }

    #[test]
    fn atom_vars_and_subst() {
        let (_, x, y) = setup();
        let a = Atom::eq(Term::var(x), Term::var(y) + Term::int(1));
        assert_eq!(a.vars().len(), 2);
        let s = a.subst(&|v| (v == y).then(|| Term::int(9)));
        assert_eq!(s, Atom::eq(Term::var(x), Term::int(10)));
    }

    #[test]
    fn atom_display() {
        let (sig, x, y) = setup();
        let a = Atom::new(Term::var(x), Rel::Ge, Term::var(y));
        assert_eq!(a.display(&sig).to_string(), "x >= y");
    }
}
