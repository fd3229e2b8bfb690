//! The engine's work items and worker results: what a generation
//! schedules ([`Target`] → [`Job`]) and what a worker hands back to the
//! merge thread ([`WorkerRun`], [`TargetOutcome`]).

use crate::chaos::FaultCounters;
use crate::report::{DegradationRecord, RunRecord};
use hotg_concolic::PathConstraint;
use hotg_lang::BranchId;
use hotg_logic::StableHasher;
use hotg_logic::{Formula, Model};
use hotg_solver::Samples;
use std::hash::{Hash, Hasher};

/// A branch-flip target produced by one executed run.
#[derive(Clone, Debug)]
pub(crate) struct Target {
    pub(crate) parent_inputs: Vec<i64>,
    pub(crate) pc: PathConstraint,
    /// Index of the branch entry to negate.
    pub(crate) j: usize,
    /// Samples observed by the parent run (used when cross-run sampling
    /// is disabled).
    pub(crate) parent_samples: Samples,
}

/// A filtered, ready-to-process target of one generation: the dedup and
/// feasibility pre-checks ran on the merge thread, so workers start
/// straight at the solver query.
pub(crate) struct Job {
    pub(crate) target: Target,
    pub(crate) expected: Vec<(BranchId, bool)>,
    pub(crate) alt: Formula,
    pub(crate) id: BranchId,
}

/// One executed run produced while processing a target, together with
/// everything the merge step folds back into the campaign state.
pub(crate) struct WorkerRun {
    pub(crate) record: RunRecord,
    /// Samples observed by this run (merged into the global table).
    pub(crate) samples: Samples,
    /// Branch-flip targets of this run (next generation's worklist).
    pub(crate) children: Vec<Target>,
    /// Targets dropped by the static oracle while expanding this run.
    pub(crate) pruned_static: usize,
    /// The run's outcome was replaced by an injected interpreter fault
    /// (chaos testing).
    pub(crate) injected_fault: bool,
}

/// Everything one target's processing produced. Workers fill these in
/// isolation; the engine translates them into [`CampaignEvent`]s in
/// deterministic target order.
///
/// [`CampaignEvent`]: crate::CampaignEvent
#[derive(Default)]
pub(crate) struct TargetOutcome {
    pub(crate) solver_calls: usize,
    pub(crate) rejected_targets: usize,
    /// Solver/validity queries that failed with an error.
    pub(crate) solver_errors: usize,
    /// The worker processing this target panicked; the panic was caught
    /// and the target abandoned (its partial outcome is discarded so the
    /// merged report never depends on how far the worker got).
    pub(crate) faulted: bool,
    /// Degradation-ladder rungs taken for this target.
    pub(crate) degradations: Vec<DegradationRecord>,
    /// Faults injected while processing this target.
    pub(crate) faults: FaultCounters,
    /// Executed runs (probes and generated tests), in execution order.
    pub(crate) runs: Vec<WorkerRun>,
}

/// Verdict of one alternate-path satisfiability query, with injected
/// chaos outcomes folded into the same shape as real ones.
pub(crate) enum Checked {
    Sat(Model),
    Unsat,
    Unknown,
    Errored,
}

/// Deterministic dedup key of an expected branch path. Storing the
/// 64-bit hash instead of the path itself keeps the `seen` set compact:
/// paths grow linearly with program depth, and every executed run
/// contributes one per negatable branch.
///
/// Fixed-key FNV-1a ([`StableHasher`]): the key is exchanged between
/// shards and drives the [`Partitioner`](super::state::Partitioner), so
/// it must be identical across processes, platforms, and toolchains —
/// `DefaultHasher` guarantees none of that.
pub(crate) fn path_key(path: &[(BranchId, bool)]) -> u64 {
    let mut h = StableHasher::new();
    path.hash(&mut h);
    h.finish()
}
