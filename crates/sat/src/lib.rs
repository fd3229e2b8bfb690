//! A CDCL SAT solver: the boolean core of the lazy SMT solver in
//! `hotg-solver`.
//!
//! The solver implements the standard conflict-driven clause-learning
//! architecture: two-watched-literal propagation, first-UIP conflict
//! analysis with clause learning and non-chronological backjumping,
//! VSIDS-style activity-based decisions, and geometric restarts. Problem
//! sizes in this workspace are small (boolean abstractions of path
//! constraints), so there is no clause-database reduction.
//!
//! Clauses may be added between `solve` calls, never removed. The SMT
//! layer in `hotg-solver` relies on this: its refinement loop adds theory
//! lemmas and blocking clauses to one fresh solver per query and re-solves.
//!
//! # Example
//!
//! ```
//! use hotg_sat::{Lit, SatResult, SatSolver};
//!
//! let mut s = SatSolver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]); // a ∨ b
//! s.add_clause([Lit::neg(a)]); // ¬a
//! match s.solve() {
//!     SatResult::Sat(model) => assert!(model[b as usize]),
//!     SatResult::Unsat => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod solver;

pub use solver::{Lit, SatResult, SatSolver};
