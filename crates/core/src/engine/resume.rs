//! Stage-A resume replay: reconstructing a target's outcome from the
//! recorded event block instead of re-running its solver work.
//!
//! A resumed campaign re-derives the recorded event stream by running
//! the normal campaign code path against the replay cursor (see
//! [`Emitter::emit`](super::Emitter)). Re-deriving is cheap for
//! everything except `process_target` — per-target solver and validity
//! queries dominate campaign time — so while the salvaged prefix still
//! covers whole per-target blocks (delimited by
//! [`CampaignEvent::TargetClosed`]), the shard pass calls
//! [`reconstruct_outcome`] to rebuild the [`TargetOutcome`] from the
//! recorded events:
//!
//! * counter events (`SolverQueries`, `TargetsRejected`, …) and the
//!   per-site fault header are copied verbatim,
//! * every recorded run is **re-executed** from its recorded inputs (the
//!   concrete/concolic execution is deterministic and cheap relative to
//!   solving), restoring the sample table and the next generation's
//!   branch-flip targets — state the events do not carry,
//! * probe-sample loss injected by [`FaultSite::ProbeFail`] is
//!   replicated by replaying the same pure chaos roll.
//!
//! The reconstruction is verified twice: each re-executed run's record
//! must equal the recorded one, and the full event sequence the merge
//! step will emit for the reconstructed outcome is simulated and
//! compared against the recorded block. Any inconsistency — corruption
//! that survived CRC framing, a semantics drift between versions —
//! returns `None`, and the shard pass falls back to live processing
//! (which abandons the replay at the first diverging event and truncates
//! the trace there). A wrong report is never produced: reconstruction
//! either reproduces the recorded facts exactly or steps aside.

use super::outcome::{path_key, Job, TargetOutcome};
use super::Engine;
use crate::chaos::{chaos_key, FaultSite};
use crate::events::CampaignEvent;
use crate::report::Origin;
use crate::strategy::Strategy;
use hotg_concolic::ExecProfile;
use hotg_concolic::SymbolicMode;
use hotg_solver::Samples;

/// Rebuilds the [`TargetOutcome`] of `job` from the recorded events at
/// the head of `prefix`, returned with the length of its block, or
/// `None` if the prefix does not begin with a complete, consistent block
/// for this target.
pub(crate) fn reconstruct_outcome(
    engine: &Engine<'_>,
    strategy: &dyn Strategy,
    job: &Job,
    prefix: &[CampaignEvent],
) -> Option<(TargetOutcome, usize)> {
    let close = prefix
        .iter()
        .position(|e| matches!(e, CampaignEvent::TargetClosed { .. }))?;
    if !matches!(&prefix[close], CampaignEvent::TargetClosed { target } if *target == job.id) {
        return None;
    }
    let block = &prefix[..close];
    let mut out = TargetOutcome::default();
    let mut i = 0;

    // Header counters, in outcome_block's fixed emission order.
    if let Some(CampaignEvent::SolverQueries { count }) = block.get(i) {
        out.solver_calls = *count;
        i += 1;
    }
    if let Some(CampaignEvent::TargetsRejected { count }) = block.get(i) {
        out.rejected_targets = *count;
        i += 1;
    }
    if let Some(CampaignEvent::SolverErrors { count }) = block.get(i) {
        out.solver_errors = *count;
        i += 1;
    }
    // Per-site worker fault header. `InterpFault` never appears here
    // (per-run injections are announced inside run units), so it — and
    // the trace sites, which are campaign-level — ends the header.
    while let Some(CampaignEvent::FaultInjected { site, count }) = block.get(i) {
        match site {
            FaultSite::SolverUnknown => out.faults.solver_unknowns = *count,
            FaultSite::SolverErr => out.faults.solver_errs = *count,
            FaultSite::ProbeFail => out.faults.probe_failures = *count,
            FaultSite::WorkerPanic => out.faults.worker_panics = *count,
            FaultSite::InterpFault | FaultSite::TraceShortWrite | FaultSite::TraceFsyncFail => {
                break
            }
        }
        i += 1;
    }
    if let Some(CampaignEvent::TargetFaulted { target }) = block.get(i) {
        if *target != job.id {
            return None;
        }
        out.faulted = true;
        i += 1;
    }
    if let Some(CampaignEvent::TargetDegraded { target, rungs }) = block.get(i) {
        if *target != job.id {
            return None;
        }
        out.degradations = rungs.clone();
        i += 1;
    }

    // Run units: optional static-pruning count, optional injected
    // interpreter fault, optional origin announcement, then the record.
    let tkey = path_key(&job.expected);
    let mut probe_ordinal = 0usize;
    while i < block.len() {
        let mut pruned = 0usize;
        if let Some(CampaignEvent::TargetsPrunedStatic { count }) = block.get(i) {
            pruned = *count;
            i += 1;
        }
        let mut injected = false;
        if let Some(CampaignEvent::FaultInjected {
            site: FaultSite::InterpFault,
            count: 1,
        }) = block.get(i)
        {
            injected = true;
            i += 1;
        }
        // Origin announcement; its consistency with the record's origin
        // is enforced by the simulation check below.
        if matches!(
            block.get(i),
            Some(CampaignEvent::ProbeRun { .. } | CampaignEvent::TargetSolved { .. })
        ) {
            i += 1;
        }
        let Some(CampaignEvent::RunExecuted { record }) = block.get(i) else {
            return None;
        };
        i += 1;
        // Re-execute with the origin-appropriate expected path and
        // profile — the same arguments the live strategy code passes.
        let (expected, profile) = match &record.origin {
            Origin::Probe { .. } => (None, probe_profile(strategy)),
            Origin::Strategy { .. } => (Some(job.expected.as_slice()), probe_profile(strategy)),
            Origin::Solved { .. } | Origin::Degraded { .. } => {
                (Some(job.expected.as_slice()), strategy.profile())
            }
            // Initial/Seed/Random runs never appear inside a target block.
            _ => return None,
        };
        let mut run = engine.execute_run(
            record.inputs.clone(),
            record.origin.clone(),
            expected,
            profile,
        );
        if run.record != **record || run.injected_fault != injected || run.pruned_static != pruned {
            return None;
        }
        // Replicate probe-sample loss: the chaos roll is a pure function
        // of (plan, site, target path, probe ordinal), so the resumed
        // campaign loses exactly the samples the recorded one lost.
        if matches!(record.origin, Origin::Probe { .. }) {
            probe_ordinal += 1;
            let lost =
                engine.config.fault_plan.as_ref().is_some_and(|p| {
                    p.roll(FaultSite::ProbeFail, chaos_key(&(tkey, probe_ordinal)))
                });
            if lost {
                run.samples = Samples::new();
            }
        }
        out.runs.push(run);
    }

    // Final gate: derive exactly what the merge step will emit for this
    // outcome ([`super::merge::outcome_block`], the single emission
    // truth shared with the coordinator's merge loop) and
    // require it to equal the recorded block. Guarantees the replay
    // cursor consumes the whole block (so a parse that drifted from the
    // recorded stream can never merge, then diverge mid-block into a
    // hybrid report).
    if super::merge::outcome_block(job, &out) != prefix[..=close] {
        return None;
    }
    Some((out, close + 1))
}

/// Probe and strategy runs always evaluate with uninterpreted
/// functions; summarization follows the campaign strategy (mirrors the
/// strategy module's `probe_profile`).
fn probe_profile(strategy: &dyn Strategy) -> ExecProfile {
    ExecProfile {
        mode: SymbolicMode::Uninterpreted,
        summarize_calls: strategy.profile().summarize_calls,
    }
}
