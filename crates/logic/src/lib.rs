//! Logic layer for higher-order test generation: sorts, terms, atoms,
//! formulas, models, exact rationals, and the keys of linear forms.
//!
//! This crate is the shared vocabulary of the workspace. The concolic
//! engine (`hotg-concolic`) builds path constraints out of [`Formula`]s
//! over [`Term`]s; the solver (`hotg-solver`) decides them; the
//! higher-order driver (`hotg-core`) post-processes them into the
//! validity queries of the paper:
//!
//! ```text
//! POST(pc) = ∃X : A ⇒ pc
//! ```
//!
//! where `A` is a conjunction of recorded uninterpreted-function samples
//! and the function symbols are implicitly universally quantified
//! (Godefroid, *Higher-Order Test Generation*, PLDI 2011, §4.2).
//!
//! # Example
//!
//! Building the path constraint `x = hash(y)` from the paper's `obscure`
//! example and evaluating it under a model:
//!
//! ```
//! use hotg_logic::{Atom, Formula, Model, Signature, Sort, Term, Value};
//!
//! let mut sig = Signature::new();
//! let x = sig.declare_var("x", Sort::Int);
//! let y = sig.declare_var("y", Sort::Int);
//! let hash = sig.declare_func("hash", 1);
//!
//! let pc = Formula::atom(Atom::eq(
//!     Term::var(x),
//!     Term::app(hash, vec![Term::var(y)]),
//! ));
//!
//! let mut m = Model::new();
//! m.set_var(x, Value::Int(567));
//! m.set_var(y, Value::Int(42));
//! m.set_func_entry(hash, vec![42], 567);
//! assert_eq!(pc.eval(&m), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod atom;
mod formula;
mod hash;
mod linear;
mod model;
mod rat;
mod sort;
mod sym;
mod term;

pub use arena::{ArenaStats, InternedFormula, InternedTerm, LogicArena};
pub use atom::{Atom, AtomDisplay, Rel};
pub use formula::{Formula, FormulaDisplay};
pub use hash::{FastHasher, FastMap, FastSet, StableHasher};
pub use linear::{LinKey, NonLinearError};
pub use model::{FuncInterp, Model, ModelDisplay};
pub use rat::Rat;
pub use sort::{Sort, Value};
pub use sym::{FuncDecl, FuncSym, Signature, Var, VarDecl};
pub use term::{fold_concrete, OpKind, Term, TermDisplay};
