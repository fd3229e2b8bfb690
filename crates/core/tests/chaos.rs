//! Resilience properties of the campaign engine under deterministic
//! fault injection (`DriverConfig::fault_plan`), plus the degradation
//! ladder they exercise.
//!
//! The core contract: a campaign bombarded with injected solver
//! `Unknown`s/errors, synthetic interpreter faults, lost probe samples,
//! and worker panics must still
//!
//! 1. terminate,
//! 2. stay sound — no run of a sound technique is flagged divergent
//!    unless the degradation ladder demoted its target, and
//! 3. account for every fault it absorbed: the report's counters must
//!    reconcile with `Report::faults_injected`.
//!
//! Because injection decisions are pure functions of the plan seed and
//! schedule-independent keys, injected campaigns are also bit-identical
//! across thread counts.

mod common;

use common::{canonical, frame_ends, quiet_injected_panics, tmp};
use hotg_core::{
    DegradationLevel, DegradationReason, Driver, DriverConfig, FaultPlan, Origin, Report,
    Technique, TraceConfig,
};
use hotg_lang::{corpus, FaultKind, Outcome};
use hotg_solver::ValidityConfig;

/// Is this run's outcome an injected interpreter fault?
fn is_injected_fault(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::RuntimeFault(f) if f.kind == FaultKind::Injected)
}

/// The full resilience contract for one injected campaign.
fn check_invariants(report: &Report, technique: Technique, label: &str) {
    let inj = &report.faults_injected;

    // Injected solver errors surface in the solver-error counter (the
    // driver may add organic ones on top, never fewer).
    assert!(
        report.solver_errors >= inj.solver_errs,
        "{label}: {} solver errors < {} injected",
        report.solver_errors,
        inj.solver_errs
    );

    // Every faulted target corresponds to an injected panic — an organic
    // worker panic would be a driver bug.
    assert_eq!(
        report.targets_faulted, inj.worker_panics,
        "{label}: faulted targets do not match injected panics"
    );

    // Injected interpreter faults: the run records, the per-kind fault
    // table, and the injection counter must all agree.
    let injected_runs = report
        .runs
        .iter()
        .filter(|r| is_injected_fault(&r.outcome))
        .count();
    assert_eq!(
        injected_runs, inj.interp_faults,
        "{label}: injected-fault runs do not match the counter"
    );
    assert_eq!(
        report
            .fault_kinds
            .get(&FaultKind::Injected)
            .copied()
            .unwrap_or(0),
        inj.interp_faults,
        "{label}: fault-kind table disagrees with the injection counter"
    );

    // A probe can only fail if it ran.
    assert!(
        inj.probe_failures <= report.probes,
        "{label}: more failed probes than probes"
    );

    // An injected fault is not a verdict on the technique: it must never
    // be flagged as a divergence.
    for r in &report.runs {
        if is_injected_fault(&r.outcome) {
            assert_eq!(
                r.diverged, None,
                "{label}: injected fault flagged divergent"
            );
        }
    }

    // Soundness: only unsound concretization may diverge. For every
    // sound technique a divergent run must come from the degradation
    // ladder, which demoted the target out of the technique's own mode.
    if technique != Technique::DartUnsound {
        for r in &report.runs {
            if r.diverged == Some(true) {
                assert!(
                    matches!(r.origin, Origin::Degraded { .. }),
                    "{label}: sound technique diverged via {:?}",
                    r.origin
                );
            }
        }
    }

    // Degradation accounting: the per-target counter never exceeds the
    // rung records, and recovered rungs produced degraded-origin runs.
    assert!(
        report.targets_degraded <= report.degradations.len(),
        "{label}: more degraded targets than recorded rungs"
    );
    let recovered = report.degradations.iter().filter(|d| d.recovered).count();
    let degraded_runs = report
        .runs
        .iter()
        .filter(|r| matches!(r.origin, Origin::Degraded { .. }))
        .count();
    assert_eq!(
        recovered, degraded_runs,
        "{label}: recovered rungs do not match degraded-origin runs"
    );
}

/// Every corpus program × every technique × 8 fault-plan seeds: the
/// campaign terminates, stays sound, and its counters reconcile.
#[test]
fn injected_campaigns_terminate_sound_and_accounted() {
    quiet_injected_panics();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            for seed in 0..8u64 {
                let config = DriverConfig {
                    max_runs: 10,
                    fault_plan: Some(FaultPlan::uniform(seed, 0.2)),
                    threads: 1,
                    ..DriverConfig::with_initial(vec![0; width])
                };
                let report = Driver::new(&program, &natives, config).run(technique);
                check_invariants(&report, technique, &format!("{name}/{technique}/{seed}"));
                assert!(report.total_runs() <= 10, "{name}/{technique}/{seed}");
            }
        }
    }
}

/// Injection decisions are keyed on schedule-independent data, so an
/// injected campaign is still bit-identical across thread counts.
#[test]
fn injected_campaigns_are_deterministic_across_threads() {
    quiet_injected_panics();
    for (name, ctor) in [
        ("obscure", corpus::obscure as fn() -> _),
        ("foo", corpus::foo),
        ("composed", corpus::composed),
    ] {
        for seed in 0..4u64 {
            let (program, natives) = ctor();
            let width = program.input_width();
            let base = DriverConfig {
                max_runs: 25,
                fault_plan: Some(FaultPlan::uniform(seed, 0.25)),
                ..DriverConfig::with_initial(vec![0; width])
            };
            let seq = Driver::new(
                &program,
                &natives,
                DriverConfig {
                    threads: 1,
                    ..base.clone()
                },
            )
            .run(Technique::HigherOrder);
            let par = Driver::new(
                &program,
                &natives,
                DriverConfig {
                    threads: 4,
                    ..base.clone()
                },
            )
            .run(Technique::HigherOrder);
            let label = format!("{name}/seed {seed}");
            assert_eq!(seq.runs, par.runs, "{label}: runs differ");
            assert_eq!(seq.errors, par.errors, "{label}: errors differ");
            assert_eq!(
                seq.rejected_targets, par.rejected_targets,
                "{label}: rejections differ"
            );
            assert_eq!(
                seq.solver_errors, par.solver_errors,
                "{label}: solver errors differ"
            );
            assert_eq!(
                seq.targets_faulted, par.targets_faulted,
                "{label}: faulted targets differ"
            );
            assert_eq!(
                seq.degradations, par.degradations,
                "{label}: degradations differ"
            );
            assert_eq!(
                seq.faults_injected, par.faults_injected,
                "{label}: injected-fault counters differ"
            );
        }
    }
}

/// A plan injecting nothing behaves exactly like no plan at all.
#[test]
fn disabled_fault_plan_is_inert() {
    let (program, natives) = corpus::foo();
    let base = DriverConfig {
        max_runs: 25,
        threads: 1,
        ..DriverConfig::with_initial(vec![0, 0])
    };
    let plain = Driver::new(&program, &natives, base.clone()).run(Technique::HigherOrder);
    let planned = Driver::new(
        &program,
        &natives,
        DriverConfig {
            fault_plan: Some(FaultPlan::new(1234)),
            ..base
        },
    )
    .run(Technique::HigherOrder);
    assert_eq!(plain.runs, planned.runs);
    assert_eq!(plain.errors, planned.errors);
    assert_eq!(planned.faults_injected.total(), 0);
    assert_eq!(planned.targets_faulted, 0);
}

/// Worker panics on every target: the campaign survives, counts every
/// target as faulted, and still reports its (single) initial run.
#[test]
fn all_targets_panicking_does_not_abort_the_campaign() {
    quiet_injected_panics();
    let (program, natives) = corpus::obscure();
    let mut plan = FaultPlan::new(7);
    plan.worker_panic = 1.0;
    for threads in [1, 4] {
        let config = DriverConfig {
            max_runs: 20,
            threads,
            fault_plan: Some(plan.clone()),
            ..DriverConfig::with_initial(vec![33, 42])
        };
        let report = Driver::new(&program, &natives, config).run(Technique::HigherOrder);
        assert_eq!(report.total_runs(), 1, "only the initial run survives");
        assert!(report.targets_faulted >= 1);
        assert_eq!(report.targets_faulted, report.faults_injected.worker_panics);
        assert!(!report.found_error(1));
    }
}

/// The degradation-ladder satellite: under a starvation-level node
/// budget the UF validity query for `budget_cliff`'s guard concedes
/// `Unknown`, but the same target is decidable under sound
/// concretization. The ladder still finds the error — through a
/// `Degraded { level: Sound }` run that provably cannot diverge. The
/// run that first hits the error is that run, and its rung records
/// `SolverUnknown`: the technique's own attempt conceded, so only the
/// ladder produced the test.
#[test]
fn degradation_ladder_recovers_budget_cliff() {
    let (program, natives) = corpus::budget_cliff();
    let mut validity = ValidityConfig::default();
    validity.smt.total_node_budget = 1;
    let config = DriverConfig {
        validity,
        max_runs: 20,
        threads: 1,
        ..DriverConfig::with_initial(vec![0, 20])
    };

    let report = Driver::new(&program, &natives, config).run(Technique::HigherOrder);
    assert!(report.found_error(1), "ladder should recover the error");
    assert!(report.targets_degraded >= 1);
    assert!(report.degradations.iter().any(|d| d.recovered));
    let sound_degraded: Vec<_> = report
        .runs
        .iter()
        .filter(|r| {
            matches!(
                r.origin,
                Origin::Degraded {
                    level: DegradationLevel::Sound,
                    ..
                }
            )
        })
        .collect();
    assert!(
        !sound_degraded.is_empty(),
        "recovery came from the sound rung"
    );
    for r in &sound_degraded {
        assert_ne!(r.diverged, Some(true), "sound concretization diverged");
    }

    let first = &report.runs[report.first_hit(1).expect("error 1 hit")];
    let Origin::Degraded { target, level } = first.origin else {
        panic!("error 1 first hit by a {:?} run", first.origin);
    };
    assert_eq!(level, DegradationLevel::Sound);
    let rung = report
        .degradations
        .iter()
        .find(|d| d.target == target && d.level == level && d.recovered)
        .expect("the recovering rung is recorded");
    assert_eq!(
        rung.reason,
        DegradationReason::SolverUnknown,
        "the technique's own attempt conceded"
    );
}

/// An exhausted node budget makes every solver query concede `Unknown`
/// — including the ladder's own attempts — so the campaign degrades
/// (recording unrecovered rungs) and terminates instead of hanging.
#[test]
fn exhausted_node_budget_degrades_and_terminates() {
    let (program, natives) = corpus::obscure();
    let mut validity = ValidityConfig::default();
    validity.smt.total_node_budget = 0;
    let config = DriverConfig {
        validity,
        max_runs: 20,
        threads: 1,
        ..DriverConfig::with_initial(vec![33, 42])
    };
    let report = Driver::new(&program, &natives, config).run(Technique::HigherOrder);
    assert!(report.total_runs() >= 1);
    assert!(!report.found_error(1), "no query can decide without nodes");
    assert!(report.targets_degraded >= 1);
    assert!(report.degradations.iter().all(|d| !d.recovered));
}

/// Resume under chaos: a campaign bombarded with injected faults *and*
/// crashed mid-trace resumes to the bit-identical report — the replay
/// re-rolls the same deterministic faults — and the resumed report
/// still satisfies the full resilience contract.
#[test]
fn resumed_chaos_campaigns_keep_the_contract() {
    quiet_injected_panics();
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    for seed in [0u64, 3, 5] {
        let mk = move || DriverConfig {
            max_runs: 10,
            fault_plan: Some(FaultPlan::uniform(seed, 0.25)),
            threads: 1,
            ..DriverConfig::with_initial(vec![0; width])
        };
        let trace_path = tmp(&format!("chaos-resume-{seed}.trace"));
        let mut cfg = mk();
        cfg.trace = Some(TraceConfig::new(&trace_path));
        let baseline = Driver::new(&program, &natives, cfg).run(Technique::HigherOrder);
        let full = std::fs::read(&trace_path).expect("read trace");
        let ends = frame_ends(&trace_path);
        for k in [ends.len() / 3, 2 * ends.len() / 3] {
            let crash = tmp(&format!("chaos-resume-{seed}-k{k}.trace"));
            std::fs::write(&crash, &full[..ends[k] as usize]).unwrap();
            let mut rcfg = mk();
            rcfg.trace = Some(TraceConfig::new(&crash));
            let resumed = Driver::new(&program, &natives, rcfg)
                .resume(Technique::HigherOrder)
                .unwrap_or_else(|e| panic!("seed {seed}, crash at {k}: {e}"));
            assert_eq!(
                canonical(&baseline),
                canonical(&resumed),
                "seed {seed}: resume from crash at frame {k} diverged under chaos"
            );
            check_invariants(
                &resumed,
                Technique::HigherOrder,
                &format!("resumed/{seed}/{k}"),
            );
            std::fs::remove_file(&crash).ok();
        }
        std::fs::remove_file(&trace_path).ok();
    }
}

/// Trace-I/O fault sites compose with the worker fault sites: a plan
/// injecting *both* still leaves the campaign result identical to the
/// same worker-fault plan without trace chaos (trace faults only ever
/// touch the trace file and its telemetry, never the search), and the
/// trace-fault counters reconcile.
#[test]
fn trace_io_faults_never_leak_into_the_search() {
    quiet_injected_panics();
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let worker_only = DriverConfig {
        max_runs: 10,
        fault_plan: Some(FaultPlan::uniform(3, 0.25)),
        threads: 1,
        ..DriverConfig::with_initial(vec![0; width])
    };
    let clean = Driver::new(&program, &natives, worker_only.clone()).run(Technique::HigherOrder);

    let trace_path = tmp("trace-chaos-compose.trace");
    let mut plan = FaultPlan::uniform(3, 0.25);
    plan.trace_short_write = 0.3;
    plan.trace_fsync_fail = 0.3;
    let mut both = worker_only;
    both.fault_plan = Some(plan);
    both.trace = Some(TraceConfig::new(&trace_path));
    let chaotic = Driver::new(&program, &natives, both).run(Technique::HigherOrder);

    assert_eq!(
        canonical(&clean),
        canonical(&chaotic),
        "trace-I/O chaos perturbed the campaign result"
    );
    assert_eq!(
        clean.faults_injected, chaotic.faults_injected,
        "worker-fault injection must be independent of trace chaos"
    );
    // If a write error fired, it was counted; a disabled writer stops
    // rolling, so the counters are bounded by the error count plus the
    // syncs that succeeded before the first failure.
    assert!(
        chaotic.trace_faults.short_writes <= 1,
        "one short write disables the writer"
    );
    assert_eq!(
        chaotic.sink_errors >= 1,
        chaotic.trace_faults.total() >= 1,
        "trace faults and sink errors appear together"
    );
    std::fs::remove_file(&trace_path).ok();
}

/// The fuel-exhaustion satellite: no default-corpus campaign burns out
/// its statement fuel, and the counter says so.
#[test]
fn default_corpus_never_exhausts_fuel() {
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            let config = DriverConfig {
                max_runs: 15,
                ..DriverConfig::with_initial(vec![0; width])
            };
            let report = Driver::new(&program, &natives, config).run(technique);
            assert_eq!(
                report.fuel_exhausted_runs, 0,
                "{name}/{technique}: fuel exhausted"
            );
            assert!(!report.fault_kinds.contains_key(&FaultKind::FuelExhausted));
        }
    }
}
