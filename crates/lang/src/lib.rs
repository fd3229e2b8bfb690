//! The `mini` imperative language: the program substrate on which
//! higher-order test generation runs.
//!
//! The paper (Godefroid, *Higher-Order Test Generation*, PLDI 2011, §2)
//! formalizes programs as sequences of assignments and conditionals over
//! input parameters, with "unknown functions/instructions" — `hash`,
//! crypto, OS calls, exotic instructions — causing imprecision in symbolic
//! execution. `mini` realizes exactly that model:
//!
//! * integer scalars and fixed-length integer arrays (inputs or locals);
//! * `if`/`else`, `while`, assignments;
//! * `error(code)` statements (the paper's buggy `return -1` stops);
//! * **native functions**: declared `native name/arity;`, implemented by
//!   arbitrary Rust closures in a [`NativeRegistry`] — executed for real
//!   at run time, opaque to symbolic reasoning.
//!
//! The crate provides the lexer, parser, static checker, a concrete
//! interpreter with branch/native-call tracing, a bytecode fast path
//! ([`fn@compile`] once per campaign, execute with [`vm`]), and [`corpus`]
//! — every example program from the paper.
//!
//! # Example
//!
//! ```
//! use hotg_lang::{corpus, run, InputVector, Outcome};
//!
//! let (program, natives) = corpus::obscure();
//! let (outcome, trace) = run(&program, &natives, &InputVector::new(vec![567, 42]), 10_000);
//! assert_eq!(outcome, Outcome::Error(1));
//! assert_eq!(trace.native_calls[0].0, "hash");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod compile;
pub mod corpus;
pub mod diag;
pub mod interp;
pub mod parser;
pub mod pretty;
pub mod token;
pub mod vm;

pub use ast::{stmt_ids, BinOp, BranchId, Expr, FuncDef, NativeDecl, Param, Program, Stmt, UnOp};
pub use check::{check, CheckError};
pub use compile::{compile, CompileError, CompiledProgram, Instr};
pub use diag::{DiagCode, Diagnostic, Severity, Span, SpanTable, StmtId};
pub use interp::{
    call_function, eval_binop, eval_expr, run, CVal, Env, EvalError, Fault, FaultKind, InputVector,
    NativeRegistry, Outcome, Slot, Trace,
};
pub use parser::{parse, ParseError};
pub use vm::{run_compiled, run_compiled_counted};
