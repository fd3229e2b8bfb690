//! Keys of linear forms, and the error for terms outside the theory.
//!
//! A linear form is a sum `c₀ + Σ cᵢ·kᵢ` where each key `kᵢ` is a
//! symbolic variable or an opaque uninterpreted application. This
//! defines the decidable theory `T` of the engine: a term is "in `T`"
//! exactly when it linearizes (the solver's theory table does the
//! linearizing). Non-linear terms (`x*y`, `x/y`, `x%y`…) are the paper's
//! "complex/unknown instructions" — the concolic engine either
//! concretizes them (Figure 1, line 13) or models them with fresh
//! uninterpreted functions (Figure 3).

use crate::sym::Var;
use crate::term::Term;
use std::fmt;

/// A key in a linear expression: either a symbolic variable or an opaque
/// uninterpreted application term.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinKey {
    /// A symbolic input variable.
    Var(Var),
    /// An uninterpreted application, treated as an opaque unknown.
    App(Term),
}

impl LinKey {
    /// Converts the key back to a [`Term`].
    pub fn to_term(&self) -> Term {
        match self {
            LinKey::Var(v) => Term::Var(*v),
            LinKey::App(t) => t.clone(),
        }
    }
}

/// Error returned when a term cannot be expressed linearly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonLinearError {
    /// The offending subterm.
    pub term: Term,
}

impl fmt::Display for NonLinearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "term is not linear over the theory T")
    }
}

impl std::error::Error for NonLinearError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;
    use crate::sym::Signature;

    fn setup() -> (Signature, Var, Var, crate::FuncSym) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let h = sig.declare_func("h", 1);
        (sig, x, y, h)
    }

    #[test]
    fn key_to_term_roundtrip() {
        let (_, x, _, h) = setup();
        assert_eq!(LinKey::Var(x).to_term(), Term::var(x));
        let app = Term::app(h, vec![Term::int(1)]);
        assert_eq!(LinKey::App(app.clone()).to_term(), app);
    }
}
