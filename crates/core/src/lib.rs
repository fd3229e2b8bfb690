//! Higher-order test generation — the primary contribution of
//! Godefroid's *Higher-Order Test Generation* (PLDI 2011) — together with
//! the baselines it is compared against.
//!
//! A [`Driver`] runs a test-generation *campaign* on a `mini` program
//! with one of four [`Technique`]s:
//!
//! | Technique | Paper section | Mechanism |
//! |---|---|---|
//! | [`Technique::Random`] | §7 baseline | blackbox random inputs |
//! | [`Technique::DartUnsound`] | §3.2 | concretization, satisfiability queries; may diverge |
//! | [`Technique::DartSound`] | §3.3 | concretization + pinning constraints (Theorem 2) |
//! | [`Technique::HigherOrder`] | §4–§5 | uninterpreted functions, samples, **validity** queries, multi-step probes |
//!
//! The resulting [`Report`] records every execution, branch coverage,
//! triggered errors, divergences, and probe counts — the quantities the
//! paper's examples reason about.
//!
//! # Example: the `obscure` function from the paper's introduction
//!
//! ```
//! use hotg_core::{Driver, DriverConfig, Technique};
//! use hotg_lang::corpus;
//!
//! let (program, natives) = corpus::obscure();
//! let config = DriverConfig::with_initial(vec![33, 42]);
//! let driver = Driver::new(&program, &natives, config);
//!
//! // Dynamic test generation reaches the error on its second run.
//! let report = driver.run(Technique::HigherOrder);
//! assert!(report.found_error(1));
//! assert_eq!(report.first_hit(1), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod config;
mod driver;
mod engine;
mod events;
mod report;
mod strategy;
mod summaries;
mod trace;

pub use chaos::{FaultCounters, FaultPlan, FaultSite, TraceFaultCounters};
pub use config::{DriverConfig, Technique};
pub use driver::{Driver, Resumed};
pub use engine::merge::{merge_shard_streams, merge_shard_traces, MergeError};
pub use events::{fold_report, CampaignEvent, EventLog, EventSink, JsonlSink, NullSink};
pub use report::{
    comparison_table, DegradationLevel, DegradationReason, DegradationRecord, Origin, Report,
    RunRecord,
};
pub use summaries::{FuncSummary, SummaryConfig, SummaryPath, SummaryTable};
pub use trace::{shard_trace_path, RecoveryReport, ResumeError, TraceConfig, TraceHeader};

#[cfg(test)]
mod tests;
