//! The DART-style strategies (§3): flip queries are *satisfiability*
//! checks of `ALT(pc)`, and a satisfying model becomes the next test
//! input. The three variants differ only in how concretization builds
//! the path constraint — their [`ExecProfile`]s — and in where they sit
//! on the degradation ladder.

use super::{Strategy, TargetCx};
use crate::chaos::chaos_key;
use crate::config::Technique;
use crate::engine::outcome::{Checked, Job, TargetOutcome};
use crate::report::{DegradationLevel, DegradationReason, Origin};
use hotg_concolic::{ExecProfile, SymbolicMode};
use hotg_logic::{Model, Value};
use hotg_solver::SmtResult;
use std::collections::BTreeMap;

/// DART's default, unsound concretization (§3.2): the weakest mode and
/// the ladder's last rung — generated tests may diverge.
pub(crate) struct DartUnsound;

/// Sound concretization (§3.3): pinning constraints keep generated
/// tests divergence-free (Theorem 2).
pub(crate) struct DartSound;

/// Sound concretization with *delayed* pinning (§3.3, final remark):
/// inputs are pinned only when a concretized expression is used in a
/// branch constraint.
pub(crate) struct DartSoundDelayed;

impl Strategy for DartUnsound {
    fn technique(&self) -> Technique {
        Technique::DartUnsound
    }

    fn profile(&self) -> ExecProfile {
        ExecProfile::new(SymbolicMode::UnsoundConcretize)
    }

    fn degradation_level(&self) -> Option<DegradationLevel> {
        Some(DegradationLevel::Unsound)
    }

    fn process_target(&self, cx: &TargetCx<'_, '_>, job: &Job, out: &mut TargetOutcome) {
        dart_target(self, cx, job, out);
    }
}

impl Strategy for DartSound {
    fn technique(&self) -> Technique {
        Technique::DartSound
    }

    fn profile(&self) -> ExecProfile {
        ExecProfile::new(SymbolicMode::SoundConcretize)
    }

    fn demoted(&self) -> Option<&'static dyn Strategy> {
        Some(&DartUnsound)
    }

    fn degradation_level(&self) -> Option<DegradationLevel> {
        Some(DegradationLevel::Sound)
    }

    fn process_target(&self, cx: &TargetCx<'_, '_>, job: &Job, out: &mut TargetOutcome) {
        dart_target(self, cx, job, out);
    }
}

impl Strategy for DartSoundDelayed {
    fn technique(&self) -> Technique {
        Technique::DartSoundDelayed
    }

    fn profile(&self) -> ExecProfile {
        ExecProfile::new(SymbolicMode::SoundConcretizeDelayed)
    }

    fn demoted(&self) -> Option<&'static dyn Strategy> {
        Some(&DartUnsound)
    }

    fn process_target(&self, cx: &TargetCx<'_, '_>, job: &Job, out: &mut TargetOutcome) {
        dart_target(self, cx, job, out);
    }
}

/// The shared DART target step: one satisfiability query on the
/// alternate path constraint; `Unknown` or an error goes to the
/// degradation ladder.
fn dart_target(strategy: &dyn Strategy, cx: &TargetCx<'_, '_>, job: &Job, out: &mut TargetOutcome) {
    let eng = cx.engine;
    out.solver_calls += 1;
    let checked = match eng.chaos_solver(out, chaos_key(&(cx.tkey, 0usize))) {
        Some(c) => c,
        None => match cx.smt.check(&job.alt) {
            Ok(SmtResult::Sat(m)) => Checked::Sat(m),
            Ok(SmtResult::Unsat) => Checked::Unsat,
            Ok(SmtResult::Unknown) => Checked::Unknown,
            Err(_) => Checked::Errored,
        },
    };
    match checked {
        Checked::Sat(model) => run_solved(strategy, cx, job, &model, out),
        Checked::Unsat => out.rejected_targets += 1,
        Checked::Unknown => {
            eng.concede_target(job, strategy, cx.smt, DegradationReason::SolverUnknown, out)
        }
        Checked::Errored => {
            out.solver_errors += 1;
            eng.concede_target(job, strategy, cx.smt, DegradationReason::SolverError, out);
        }
    }
}

/// Turns a satisfying model into a generated test run.
fn run_solved(
    strategy: &dyn Strategy,
    cx: &TargetCx<'_, '_>,
    job: &Job,
    model: &Model,
    out: &mut TargetOutcome,
) {
    let mut values = BTreeMap::new();
    for v in job.alt.vars() {
        if let Some(Value::Int(x)) = model.var(v) {
            values.insert(v, x);
        }
    }
    let inputs = cx.engine.merge_inputs(&job.target.parent_inputs, &values);
    let run = cx.engine.execute_run(
        inputs,
        Origin::Solved { target: job.id },
        Some(&job.expected),
        strategy.profile(),
    );
    out.runs.push(run);
}
