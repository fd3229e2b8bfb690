//! Output checks against independent references, run outside every
//! timed region: the tree-walking interpreter for run records, and the
//! live report for resumed and offline-merged campaigns.

use hotg_core::{Report, Technique};
use hotg_lang::{run, BranchId, InputVector, NativeRegistry, Outcome, Program, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// Branch sites inside defined-function bodies.
fn function_branches(program: &Program) -> BTreeSet<BranchId> {
    fn walk(body: &[Stmt], out: &mut BTreeSet<BranchId>) {
        for s in body {
            match s {
                Stmt::If {
                    id,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    out.insert(*id);
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
                Stmt::While { id, body, .. } => {
                    out.insert(*id);
                    walk(body, out);
                }
                _ => {}
            }
        }
    }
    let mut out = BTreeSet::new();
    for f in &program.functions {
        walk(&f.body, &mut out);
    }
    out
}

/// Re-runs every run record of `report` through the reference
/// tree-walker ([`hotg_lang::run`], not the campaign's bytecode VM) and
/// checks its outcome and branch path, then recomputes coverage and the
/// first hit of each error code from those re-runs and checks them
/// against the report.
///
/// Compositional (§8) campaigns record concolic runs without the
/// branches executed inside summarized function bodies; for them a
/// record may also match the reference path with those sites removed.
pub fn check_runs(
    program: &Program,
    natives: &NativeRegistry,
    fuel: u64,
    report: &Report,
) -> Result<(), String> {
    let summarized = if report.technique == Technique::HigherOrderCompositional {
        function_branches(program)
    } else {
        BTreeSet::new()
    };
    let mut coverage = BTreeSet::new();
    let mut errors: BTreeMap<i64, usize> = BTreeMap::new();
    for (i, record) in report.runs.iter().enumerate() {
        let (outcome, trace) = run(
            program,
            natives,
            &InputVector::new(record.inputs.clone()),
            fuel,
        );
        if outcome != record.outcome {
            return Err(format!(
                "run {i} of {} on {}: recorded outcome {:?}, reference {:?}",
                report.technique, report.program, record.outcome, outcome
            ));
        }
        let outside: Vec<(BranchId, bool)> = trace
            .branches
            .iter()
            .copied()
            .filter(|(id, _)| !summarized.contains(id))
            .collect();
        if trace.branches != record.path && (summarized.is_empty() || outside != record.path) {
            return Err(format!(
                "run {i} of {} on {}: recorded path differs from the reference",
                report.technique, report.program
            ));
        }
        coverage.extend(record.path.iter().copied());
        if let Outcome::Error(code) = outcome {
            errors.entry(code).or_insert(i);
        }
    }
    if coverage != report.coverage {
        return Err(format!(
            "{} on {}: coverage {} directions, reference {}",
            report.technique,
            report.program,
            report.coverage.len(),
            coverage.len()
        ));
    }
    if errors != report.errors {
        return Err(format!(
            "{} on {}: errors {:?}, reference {:?}",
            report.technique, report.program, report.errors, errors
        ));
    }
    Ok(())
}

/// The report with the fields that may legitimately differ between two
/// runs of one campaign cleared: wall-clock `elapsed` and the
/// schedule-dependent cache hit/miss split.
fn canonical(report: &Report) -> Report {
    let mut r = report.clone();
    r.cache_hits = 0;
    r.cache_misses = 0;
    r.elapsed = std::time::Duration::ZERO;
    r
}

/// Checks that `got` equals `want` on every report field except
/// `elapsed` and the cache hit/miss split; on a mismatch, names the
/// first differing field.
pub fn same_report(what: &str, want: &Report, got: &Report) -> Result<(), String> {
    let (want, got) = (
        format!("{:#?}", canonical(want)),
        format!("{:#?}", canonical(got)),
    );
    if want == got {
        return Ok(());
    }
    let line = want
        .lines()
        .zip(got.lines())
        .find(|(a, b)| a != b)
        .map_or("(length)".to_string(), |(a, b)| {
            format!("live `{}` vs {what} `{}`", a.trim(), b.trim())
        });
    Err(format!(
        "{what} report differs from the live report: {line}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Template};
    use hotg_core::{Driver, DriverConfig};

    /// A short DART campaign on the paper's first example.
    fn campaign(technique: Technique) -> (Program, NativeRegistry, Report) {
        let w = workload::workload("ho-paper").expect("ho-paper exists");
        let library = workload::Library::for_workload(&w);
        let inst = workload::generate(&w, &library, 5, 0)
            .into_iter()
            .find(|i| i.slot.template == Template::Kstep(2))
            .expect("ho-paper runs kstep(2)");
        let program = hotg_lang::parse(&inst.source).expect("corpus sources parse");
        let config = DriverConfig {
            max_runs: 20,
            ..workload::config(&w, &inst)
        };
        let report = Driver::new(&program, &inst.natives, config).run(technique);
        (program, inst.natives, report)
    }

    #[test]
    fn a_faithful_report_passes() {
        for technique in [Technique::DartSound, Technique::HigherOrderCompositional] {
            let (p, natives, report) = campaign(technique);
            assert!(report.runs.len() > 1);
            check_runs(&p, &natives, DriverConfig::default().fuel, &report)
                .expect("the campaign agrees with the tree-walker");
        }
    }

    #[test]
    fn a_flipped_outcome_is_rejected() {
        let (p, natives, report) = campaign(Technique::DartSound);
        for i in [0, report.runs.len() - 1] {
            let mut bad = report.clone();
            bad.runs[i].outcome = match bad.runs[i].outcome {
                Outcome::Returned => Outcome::Error(99),
                _ => Outcome::Returned,
            };
            let err = check_runs(&p, &natives, DriverConfig::default().fuel, &bad)
                .expect_err("a flipped outcome must fail the check");
            assert!(err.contains(&format!("run {i} ")), "{err}");
        }
    }

    #[test]
    fn a_dropped_error_or_direction_is_rejected() {
        let (p, natives, report) = campaign(Technique::DartSound);
        let fuel = DriverConfig::default().fuel;
        let mut bad = report.clone();
        bad.coverage.pop_first();
        assert!(check_runs(&p, &natives, fuel, &bad).is_err());
        let mut bad = report;
        bad.errors.insert(12345, 0);
        assert!(check_runs(&p, &natives, fuel, &bad).is_err());
    }

    #[test]
    fn same_report_ignores_only_timing_and_the_cache_split() {
        let (_, _, live) = campaign(Technique::HigherOrder);
        let mut other = live.clone();
        other.elapsed += std::time::Duration::from_millis(5);
        other.cache_hits += 3;
        other.cache_misses = other.cache_misses.saturating_sub(3);
        same_report("resumed", &live, &other).expect("timing and cache split are free");
        other.probes += 1;
        let err = same_report("resumed", &live, &other).expect_err("probes must match");
        assert!(err.contains("probes"), "{err}");
    }
}
