//! Sharded-campaign suite: shard traces as checkpoints (single-crashed-
//! shard resume), the offline multi-trace merger, the pinned shard/balance
//! accounting, and the refusal of checker-rejected programs.
//!
//! Shard-count bit-identity itself (shards ∈ {2, 4} vs the blessed
//! single-shard goldens, across the whole corpus × technique × chaos
//! matrix) lives in the parity suite.

mod common;

use common::{canonical, fnv64, frame_ends, quiet_injected_panics, tmp};
use hotg_core::{
    fold_report, merge_shard_traces, shard_trace_path, CampaignEvent, Driver, DriverConfig,
    EventLog, FaultPlan, ResumeError, Technique, TraceConfig,
};
use hotg_lang::corpus;

fn sharded_config(width: usize, shards: usize, chaos: Option<u64>) -> DriverConfig {
    DriverConfig {
        max_runs: 10,
        threads: 1,
        shards,
        fault_plan: chaos.map(|seed| FaultPlan::uniform(seed, 0.2)),
        ..DriverConfig::with_initial(vec![0; width])
    }
}

/// A sharded campaign writes one durable trace per shard at the
/// documented derived paths, and each closes complete.
#[test]
fn shard_traces_written_at_derived_paths() {
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let base = tmp("shard-paths.trace");
    let mut cfg = sharded_config(width, 2, None);
    cfg.trace = Some(TraceConfig::new(&base));
    let report = Driver::new(&program, &natives, cfg).run(Technique::HigherOrder);
    assert!(report.total_runs() > 0);
    assert!(base.exists(), "canonical trace written");
    for i in 0..2 {
        let p = shard_trace_path(&base, i, 2);
        assert_ne!(p, base);
        assert!(p.exists(), "shard {i} trace written at {}", p.display());
    }
    for i in 0..2 {
        std::fs::remove_file(shard_trace_path(&base, i, 2)).ok();
    }
    std::fs::remove_file(&base).ok();
}

/// The acceptance scenario: one shard's trace is torn mid-campaign
/// (cut inside the frame of event k, exactly what that shard's process
/// dying while writing it leaves behind), the canonical trace is lost
/// outright — and the resumed campaign still reproduces the
/// uninterrupted report bit-identically from the shard checkpoints,
/// replaying the healthy shards and re-deriving the crashed one past
/// its salvaged prefix. A second resume then sees every trace completed
/// in place.
#[test]
fn crashed_shard_resumes_bit_identically() {
    quiet_injected_panics();
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let technique = Technique::HigherOrder;
    for (leg, shards, chaos, torn_at) in [
        ("clean-torn0", 2usize, None, 0usize),
        ("clean-torn5", 2, None, 5),
        ("chaos-torn3", 4, Some(3), 3),
    ] {
        let base = tmp(&format!("shard-crash-{leg}.trace"));
        let mut cfg = sharded_config(width, shards, chaos);
        cfg.trace = Some(TraceConfig::new(&base));
        let baseline = Driver::new(&program, &natives, cfg).run(technique);
        let want = canonical(&baseline);
        // Simulate losing the coordinator: without the canonical trace,
        // resume must work purely from the shard checkpoints.
        std::fs::remove_file(&base).expect("canonical trace existed");
        // Shard 1 died while writing event `torn_at`: half its frame
        // reached the file, nothing after it did.
        let crashed = shard_trace_path(&base, 1, shards);
        let ends = frame_ends(&crashed);
        let cut = ends[torn_at] + (ends[torn_at + 1] - ends[torn_at]) / 2;
        let full = std::fs::read(&crashed).expect("read shard 1 trace");
        std::fs::write(&crashed, &full[..cut as usize]).expect("tear shard 1 trace");
        let mut rcfg = sharded_config(width, shards, chaos);
        rcfg.trace = Some(TraceConfig::new(&base));
        let resumed = Driver::new(&program, &natives, rcfg)
            .resume_with_sink(technique, &mut hotg_core::NullSink)
            .unwrap_or_else(|e| panic!("{leg}: sharded resume failed: {e}"));
        assert_eq!(
            want,
            canonical(&resumed.report),
            "{leg}: resume from shard traces diverged from the uninterrupted run"
        );
        assert!(
            resumed.recovery.frames_salvaged > 0,
            "{leg}: healthy shard traces were salvaged"
        );
        assert!(
            resumed.recovery.events_replayed > 0,
            "{leg}: replay consumed recorded shard events"
        );
        // Second resume: every trace (canonical included) is complete
        // now, so the report folds straight from the canonical file.
        let mut rcfg2 = sharded_config(width, shards, chaos);
        rcfg2.trace = Some(TraceConfig::new(&base));
        let again = Driver::new(&program, &natives, rcfg2)
            .resume_with_sink(technique, &mut hotg_core::NullSink)
            .unwrap_or_else(|e| panic!("{leg}: second resume failed: {e}"));
        assert_eq!(want, canonical(&again.report), "{leg}: second resume");
        assert!(again.recovery.complete, "{leg}: traces completed in place");
        for i in 0..shards {
            std::fs::remove_file(shard_trace_path(&base, i, shards)).ok();
        }
        std::fs::remove_file(&base).ok();
    }
}

/// Resume refuses shard traces recorded under a different behavioural
/// configuration: the per-shard header digest binds the campaign config
/// *and* the shard's identity.
#[test]
fn shard_resume_refuses_foreign_config() {
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let base = tmp("shard-foreign.trace");
    let mut cfg = sharded_config(width, 2, None);
    cfg.trace = Some(TraceConfig::new(&base));
    Driver::new(&program, &natives, cfg).run(Technique::HigherOrder);
    // Lose the canonical trace so resume consults the shard headers.
    std::fs::remove_file(&base).expect("canonical trace existed");
    let mut rcfg = sharded_config(width, 2, None);
    rcfg.seed ^= 1; // behavioural change
    rcfg.trace = Some(TraceConfig::new(&base));
    let err = Driver::new(&program, &natives, rcfg)
        .resume_with_sink(Technique::HigherOrder, &mut hotg_core::NullSink)
        .expect_err("foreign config must be refused");
    assert!(
        matches!(
            &err,
            ResumeError::HeaderMismatch {
                field: "config_digest",
                ..
            }
        ),
        "unexpected error: {err}"
    );
    for i in 0..2 {
        std::fs::remove_file(shard_trace_path(&base, i, 2)).ok();
    }
    std::fs::remove_file(&base).ok();
}

/// The offline merger: N completed shard traces alone fold back into
/// the canonical report — no coordinator stream needed. A missing shard
/// trace is refused, never silently dropped.
#[test]
fn offline_merge_reconstructs_canonical_report() {
    // `fanout` schedules wide generations, so every shard holds targets
    // — which both exercises a real interleave and makes a *missing*
    // shard stream detectable below.
    let (program, natives) = corpus::fanout();
    let width = program.input_width();
    let shards = 4usize;
    let base = tmp("shard-merge.trace");
    // Generous run budget: the offline-merge contract covers campaigns
    // that run to frontier exhaustion (no early stop mid-generation).
    let mut cfg = sharded_config(width, shards, None);
    cfg.max_runs = 200;
    cfg.trace = Some(TraceConfig::new(&base));
    let driver = Driver::new(&program, &natives, cfg);
    let mut log = EventLog::new();
    let report = driver.run_with_sink(Technique::HigherOrder, &mut log);
    let paths: Vec<_> = (0..shards)
        .map(|i| shard_trace_path(&base, i, shards))
        .collect();
    let merged = merge_shard_traces(&paths).expect("merge completed shard traces");
    let folded = fold_report(&merged);
    assert_eq!(
        canonical(&report),
        canonical(&folded),
        "offline merge of shard traces diverged from the canonical report"
    );
    // The merged stream is canonically ordered: scheduling ordinals
    // ascend within each generation.
    let mut last: Option<usize> = None;
    for e in &merged {
        match e {
            CampaignEvent::GenerationStarted { .. } => last = None,
            CampaignEvent::TargetScheduled { ordinal, .. } => {
                assert!(last.is_none_or(|p| *ordinal == p + 1), "ordinal order");
                last = Some(*ordinal);
            }
            _ => {}
        }
    }
    // Refusal: dropping a shard that held targets is an error, never a
    // silent undercount. (A shard that happened to hold *zero* targets
    // is indistinguishable from a narrower campaign, so pick the
    // busiest shard from the exchange stats.)
    let busiest = log
        .events()
        .iter()
        .find_map(|e| match e {
            CampaignEvent::ShardStats {
                per_shard_targets, ..
            } => Some(per_shard_targets.clone()),
            _ => None,
        })
        .and_then(|counts| {
            counts
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(i, _)| i)
        })
        .expect("sharded campaign announced ShardStats");
    let partial: Vec<_> = paths
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != busiest)
        .map(|(_, p)| p.clone())
        .collect();
    let err = merge_shard_traces(&partial).expect_err("incomplete shard set");
    assert!(!format!("{err}").is_empty(), "refusal is descriptive");
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&base).ok();
}

/// Exchange accounting: every sharded campaign announces exactly one
/// `ShardStats`; its per-shard target counts tally with the canonical
/// generation widths; and across the whole corpus the partitioner keeps
/// every shard within 2× of perfect balance. A single-shard campaign
/// announces nothing.
#[test]
fn shard_stats_announced_and_balanced() {
    quiet_injected_panics();
    let shards = 4usize;
    let mut totals = vec![0u64; shards];
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        let cfg = sharded_config(width, shards, None);
        let driver = Driver::new(&program, &natives, cfg);
        let mut log = EventLog::new();
        let report = driver.run_with_sink(Technique::HigherOrder, &mut log);
        let stats: Vec<_> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::ShardStats {
                    shards: s,
                    per_shard_targets,
                    ..
                } => Some((*s, per_shard_targets.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(stats.len(), 1, "{name}: one ShardStats per campaign");
        let (s, per_shard) = &stats[0];
        assert_eq!(*s, shards, "{name}");
        assert_eq!(per_shard.len(), shards, "{name}");
        let scheduled: u64 = report.generation_widths.iter().map(|w| *w as u64).sum();
        assert_eq!(
            per_shard.iter().sum::<u64>(),
            scheduled,
            "{name}: every scheduled target is assigned to exactly one shard"
        );
        for (i, c) in per_shard.iter().enumerate() {
            totals[i] += c;
        }
    }
    // Corpus-level spread check. The tight ≤2×-of-perfect balance law
    // is property-tested on large synthetic key populations in the
    // partitioner's own suite; real corpus campaigns schedule only a
    // few dozen targets, so here we assert the partitioner neither
    // starves nor monopolizes: work lands on several shards and no
    // shard holds more than 75% of it.
    let total: u64 = totals.iter().sum();
    assert!(total > 0, "corpus scheduled targets");
    let busiest = *totals.iter().max().expect("nonempty");
    assert!(
        (busiest as f64) <= 0.75 * total as f64,
        "one shard holds {busiest} of {total} corpus targets: {totals:?}"
    );
    assert!(
        totals.iter().filter(|c| **c > 0).count() >= 2,
        "corpus targets all landed on one shard: {totals:?}"
    );
    // Single-shard campaigns announce no ShardStats.
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let driver = Driver::new(&program, &natives, sharded_config(width, 1, None));
    let mut log = EventLog::new();
    driver.run_with_sink(Technique::HigherOrder, &mut log);
    assert!(
        !log.events()
            .iter()
            .any(|e| matches!(e, CampaignEvent::ShardStats { .. })),
        "single-shard campaign must not announce ShardStats"
    );
}

/// Pins every `ShardStats` value: one line per corpus program ×
/// shards ∈ {2, 4} × chaos {off, seed 3} under `HigherOrder`, digested
/// together. The parity goldens pin only single-shard streams, so this
/// is the one test that holds the partition and exchange counters
/// (`per_shard_targets`, `exchange_samples`, `exchange_keys`) fixed.
#[test]
fn shard_stats_are_pinned() {
    quiet_injected_panics();
    let mut lines = String::new();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for shards in [2usize, 4] {
            for chaos in [None, Some(3u64)] {
                let cfg = sharded_config(width, shards, chaos);
                let mut log = EventLog::new();
                Driver::new(&program, &natives, cfg)
                    .run_with_sink(Technique::HigherOrder, &mut log);
                for e in log.events() {
                    if let CampaignEvent::ShardStats {
                        per_shard_targets,
                        exchange_samples,
                        exchange_keys,
                        ..
                    } = e
                    {
                        lines.push_str(&format!(
                            "{name} shards={shards} chaos={chaos:?} targets={per_shard_targets:?} \
                             samples={exchange_samples} keys={exchange_keys}\n"
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(
        format!("{:016x}", fnv64(&lines)),
        "4b4c325ff1b69b07",
        "ShardStats drifted:\n{lines}"
    );
}

/// A program that fails the static checker (duplicate native
/// declaration) is refused, in sharded campaigns too: it has no
/// compiled program, its stream is `CampaignStarted`, `ProgramRejected`,
/// `CampaignFinished`, no run executes, and the report names the check
/// error.
#[test]
fn checker_rejected_program_is_refused() {
    let (mut program, natives) = corpus::obscure();
    let dup = program.natives[0].clone();
    program.natives.push(dup);
    let check_error = hotg_lang::check(&program)
        .expect_err("duplicate native")
        .to_string();
    let width = program.input_width();
    for shards in [1usize, 2] {
        let cfg = sharded_config(width, shards, None);
        let driver = Driver::new(&program, &natives, cfg);
        assert!(driver.compiled().is_none(), "checker rejected the program");
        let mut log = EventLog::new();
        let report = driver.run_with_sink(Technique::HigherOrder, &mut log);
        assert_eq!(report.total_runs(), 0, "shards={shards}: no run executes");
        assert_eq!(report.rejected.as_deref(), Some(check_error.as_str()));
        assert!(
            matches!(
                log.events(),
                [
                    CampaignEvent::CampaignStarted { .. },
                    CampaignEvent::ProgramRejected { .. },
                    CampaignEvent::CampaignFinished,
                ]
            ),
            "shards={shards}: refused right after CampaignStarted: {:?}",
            log.events()
        );
        assert!(
            format!("{report}").contains(&check_error),
            "report display names the check error"
        );
        let folded = fold_report(log.events());
        assert_eq!(folded.rejected, report.rejected);
    }
    // A clean program is never rejected.
    let (program, natives) = corpus::obscure();
    let driver = Driver::new(&program, &natives, sharded_config(width, 1, None));
    let mut log = EventLog::new();
    let report = driver.run_with_sink(Technique::HigherOrder, &mut log);
    assert_eq!(report.rejected, None);
    assert!(!log
        .events()
        .iter()
        .any(|e| matches!(e, CampaignEvent::ProgramRejected { .. })));
}
