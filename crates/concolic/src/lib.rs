//! Concolic (DART-style) execution engine for `mini` programs:
//! side-by-side concrete + symbolic execution, path-constraint
//! collection, and divergence detection.
//!
//! This crate reproduces the executable content of Figures 1–3 of
//! Godefroid's *Higher-Order Test Generation* (PLDI 2011):
//!
//! * [`execute`] runs a program concretely while collecting a
//!   [`PathConstraint`] under one of three [`SymbolicMode`]s — DART's
//!   unsound concretization, sound concretization (§3.3), or
//!   uninterpreted functions with input–output sampling (§4.1);
//! * [`PathConstraint::alt`] builds the alternate path constraints
//!   `ALT(pc)` that a directed search negates and solves;
//! * [`diverged`] compares an expected path against an actual run's
//!   branch trace (§3.2).
//!
//! The directed-search drivers that turn these pieces into the paper's
//! four test-generation techniques live in `hotg-core`.
//!
//! Two engines produce identical runs: the bytecode shadow VM
//! ([`execute_compiled_profiled`], which executes every campaign run
//! over a [`hotg_lang::CompiledProgram`]) and the AST tree-walker
//! ([`execute_profiled`], the reference oracle the VM is tested
//! against). Both drive the same symbolic core, so their
//! [`ConcolicRun`]s are bit-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod exec;
mod path;
pub mod vm;

pub use context::ConcolicContext;
pub use exec::{execute, execute_opts, execute_profiled, ConcolicRun, ExecProfile, SymbolicMode};
pub use path::{diverged, EntryKind, PathConstraint, PathConstraintDisplay, PathEntry};
pub use vm::{execute_compiled_profiled, execute_compiled_with_scratch, ConcolicScratch};

#[cfg(test)]
mod tests;
