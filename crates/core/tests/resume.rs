//! Crash-safe resume suite: a campaign interrupted at *any* point of
//! its durable trace — clean frame boundary, torn frame, corrupted
//! byte, or simulated mid-write process death — resumes to a report
//! bit-identical (canonical rendering, as pinned by the golden parity
//! suite) to the uninterrupted run's.

mod common;

use common::{canonical, frame_ends, quiet_injected_panics, tmp};
use hotg_core::{
    CampaignEvent, Driver, DriverConfig, EventSink, FaultPlan, FsyncPolicy, Report, ResumeError,
    Technique, TraceConfig, TraceErrorPolicy,
};
use hotg_lang::{corpus, NativeRegistry, Program};
use std::time::Duration;

fn small_config(width: usize, max_runs: usize) -> DriverConfig {
    DriverConfig {
        max_runs,
        threads: 1,
        ..DriverConfig::with_initial(vec![0; width])
    }
}

/// Runs the campaign once with a durable trace to get the baseline
/// report and full trace bytes, then for each requested cut: truncates
/// a copy of the trace there, resumes from it, and asserts the resumed
/// report is canonically identical to the baseline.
///
/// `cuts` are byte offsets; `expect_events` the salvageable event count
/// at each cut (`None` to skip the recovery assertion, e.g. mid-frame
/// cuts where the count depends on the frame layout).
fn assert_resume_parity_at(
    label: &str,
    program: &Program,
    natives: &NativeRegistry,
    technique: Technique,
    mk: &dyn Fn() -> DriverConfig,
    cuts: &[(u64, Option<usize>)],
) -> Report {
    let trace_path = tmp(&format!("{label}.trace"));
    let mut cfg = mk();
    cfg.trace = Some(TraceConfig::new(&trace_path));
    let baseline = Driver::new(program, natives, cfg).run(technique);
    let want = canonical(&baseline);
    let full = std::fs::read(&trace_path).expect("read full trace");
    for (i, (cut, expect_events)) in cuts.iter().enumerate() {
        let crash_path = tmp(&format!("{label}-cut{i}.trace"));
        std::fs::write(&crash_path, &full[..*cut as usize]).expect("write crash trace");
        let mut rcfg = mk();
        rcfg.trace = Some(TraceConfig::new(&crash_path));
        let resumed = Driver::new(program, natives, rcfg)
            .resume_with_sink(technique, &mut hotg_core::NullSink)
            .unwrap_or_else(|e| panic!("{label}: resume at cut {cut} failed: {e}"));
        assert_eq!(
            want,
            canonical(&resumed.report),
            "{label}: resume from a crash at byte {cut} diverged from the uninterrupted run"
        );
        if let Some(n) = expect_events {
            assert_eq!(
                resumed.recovery.frames_salvaged, *n,
                "{label}: salvaged event count at byte {cut}"
            );
            assert!(
                resumed.recovery.events_replayed <= *n,
                "{label}: replay cannot consume more than was salvaged"
            );
        }
        std::fs::remove_file(&crash_path).ok();
    }
    std::fs::remove_file(&trace_path).ok();
    baseline
}

/// The tentpole contract, exhaustively: obscure × HigherOrder, crashed
/// at *every* frame boundary (including "header only" and "all but the
/// final frame"), resumes bit-identically. Also re-resumes one resumed
/// trace to check the file was completed in place.
#[test]
fn every_crash_point_resumes_bit_identically() {
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let technique = Technique::HigherOrder;
    let mk = move || small_config(width, 6);

    let trace_path = tmp("sweep-full.trace");
    let mut cfg = mk();
    cfg.trace = Some(TraceConfig::new(&trace_path));
    let baseline = Driver::new(&program, &natives, cfg).run(technique);
    let want = canonical(&baseline);
    let ends = frame_ends(&trace_path);
    assert!(ends.len() > 10, "campaign recorded a non-trivial trace");
    let cuts: Vec<(u64, Option<usize>)> = ends
        .iter()
        .enumerate()
        .map(|(k, end)| (*end, Some(k)))
        .collect();
    assert_resume_parity_at("sweep", &program, &natives, technique, &mk, &cuts);

    // A resumed trace is completed in place: crash it mid-campaign,
    // resume (which truncates the tail and appends the rest), then
    // resume *again* — the second resume must see a complete trace and
    // rebuild the identical report without re-running anything.
    let crash_path = tmp("sweep-reresume.trace");
    let full = std::fs::read(&trace_path).expect("read full trace");
    std::fs::write(&crash_path, &full[..ends[ends.len() / 2] as usize]).unwrap();
    for round in 0..2 {
        let mut rcfg = mk();
        rcfg.trace = Some(TraceConfig::new(&crash_path));
        let resumed = Driver::new(&program, &natives, rcfg)
            .resume_with_sink(technique, &mut hotg_core::NullSink)
            .expect("resume");
        assert_eq!(want, canonical(&resumed.report), "round {round}");
        if round == 1 {
            assert!(
                resumed.recovery.complete,
                "second resume sees a complete trace"
            );
            assert_eq!(resumed.recovery.bytes_discarded, 0);
        }
    }
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&crash_path).ok();
}

/// The same sweep holds under chaos injection (worker panics, forced
/// solver unknowns, probe sample loss): the replay re-rolls the same
/// deterministic faults.
#[test]
fn crash_sweep_survives_chaos() {
    quiet_injected_panics();
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let mk = move || DriverConfig {
        fault_plan: Some(FaultPlan::uniform(3, 0.2)),
        target_deadline: Some(Duration::from_secs(10)),
        ..small_config(width, 6)
    };
    let trace_path = tmp("leg-chaos.trace");
    let mut cfg = mk();
    cfg.trace = Some(TraceConfig::new(&trace_path));
    Driver::new(&program, &natives, cfg).run(Technique::HigherOrder);
    let ends = frame_ends(&trace_path);
    let cuts: Vec<(u64, Option<usize>)> = ends
        .iter()
        .enumerate()
        .step_by(3)
        .map(|(k, end)| (*end, Some(k)))
        .collect();
    assert_resume_parity_at(
        "leg-chaos",
        &program,
        &natives,
        Technique::HigherOrder,
        &mk,
        &cuts,
    );
    std::fs::remove_file(&trace_path).ok();
}

/// Property over the whole matrix: for every corpus program × every
/// technique, a campaign crashed at the start, middle, and
/// next-to-last frame of its trace resumes bit-identically.
#[test]
fn resume_parity_across_corpus_and_techniques() {
    quiet_injected_panics();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            let mk = move || small_config(width, 4);
            let probe_path = tmp(&format!("matrix-{name}-{technique}.trace"));
            let mut cfg = mk();
            cfg.trace = Some(TraceConfig::new(&probe_path));
            Driver::new(&program, &natives, cfg).run(technique);
            let ends = frame_ends(&probe_path);
            let n = ends.len();
            let mut ks = vec![0usize, n / 2, n.saturating_sub(2)];
            ks.dedup();
            let cuts: Vec<(u64, Option<usize>)> = ks.iter().map(|k| (ends[*k], Some(*k))).collect();
            assert_resume_parity_at(
                &format!("matrix-{name}-{technique}"),
                &program,
                &natives,
                technique,
                &mk,
                &cuts,
            );
            std::fs::remove_file(&probe_path).ok();
        }
    }
}

/// Torn frames (mid-frame truncation) and corrupted bytes (bit flips)
/// are salvaged — never panicked on — with the damage reported, and the
/// resumed report still matches the uninterrupted run.
#[test]
fn torn_and_corrupted_traces_salvage_and_resume() {
    let (program, natives) = corpus::foo();
    let width = program.input_width();
    let technique = Technique::HigherOrder;
    let mk = move || small_config(width, 5);

    let trace_path = tmp("damage.trace");
    let mut cfg = mk();
    cfg.trace = Some(TraceConfig::new(&trace_path));
    let baseline = Driver::new(&program, &natives, cfg).run(technique);
    let want = canonical(&baseline);
    let full = std::fs::read(&trace_path).expect("read trace");
    let ends = frame_ends(&trace_path);
    let k = ends.len() / 2;

    // Torn tail: half of the frame after event k made it to disk.
    let torn = tmp("damage-torn.trace");
    std::fs::write(&torn, &full[..ends[k] as usize + 5]).unwrap();
    // Flipped byte inside the frame after event k: CRC catches it and
    // recovery also discards everything after the bad frame.
    let flipped = tmp("damage-flipped.trace");
    let mut bytes = full.clone();
    bytes[ends[k] as usize + 10] ^= 0x40;
    std::fs::write(&flipped, &bytes).unwrap();

    for (label, path, min_discarded) in [("torn", &torn, 1usize), ("flipped", &flipped, 2usize)] {
        let mut rcfg = mk();
        rcfg.trace = Some(TraceConfig::new(path));
        let resumed = Driver::new(&program, &natives, rcfg)
            .resume_with_sink(technique, &mut hotg_core::NullSink)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_eq!(want, canonical(&resumed.report), "{label} trace diverged");
        assert_eq!(
            resumed.recovery.frames_salvaged, k,
            "{label}: prefix length"
        );
        assert!(
            resumed.recovery.bytes_discarded > 0,
            "{label}: damage was discarded"
        );
        assert!(
            resumed.recovery.frames_discarded >= min_discarded,
            "{label}: discarded frame count (lower bound)"
        );
        let damage = resumed.recovery.damage.as_deref().unwrap_or_else(|| {
            panic!("{label}: damage described");
        });
        assert!(!damage.is_empty());
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_file(&trace_path).ok();
}

/// The in-process crash simulation: `chaos_kill_at_event = N` tears the
/// trace mid-write of event N with no surfaced error, exactly like the
/// process dying there. Resuming the torn file with a healthy config
/// reproduces the uninterrupted report.
#[test]
fn kill_at_event_chaos_then_resume() {
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let technique = Technique::HigherOrder;
    let mk = move || small_config(width, 6);
    for kill_at in [0u64, 3, 9] {
        let label = format!("kill{kill_at}");
        let trace_path = tmp(&format!("{label}.trace"));
        let mut cfg = mk();
        cfg.trace = Some(TraceConfig {
            chaos_kill_at_event: Some(kill_at),
            ..TraceConfig::new(&trace_path)
        });
        // The campaign itself survives (the writer dies silently) and
        // returns the uninterrupted report to compare against.
        let baseline = Driver::new(&program, &natives, cfg).run(technique);
        let mut rcfg = mk();
        rcfg.trace = Some(TraceConfig::new(&trace_path));
        let resumed = Driver::new(&program, &natives, rcfg)
            .resume_with_sink(technique, &mut hotg_core::NullSink)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_eq!(
            canonical(&baseline),
            canonical(&resumed.report),
            "{label}: resume after simulated mid-write death diverged"
        );
        assert_eq!(resumed.recovery.frames_salvaged, kill_at as usize);
        assert!(resumed.recovery.bytes_discarded > 0, "{label}: torn frame");
        std::fs::remove_file(&trace_path).ok();
    }
}

/// A trace whose header does not match the resuming driver — different
/// technique, program, or behavioural configuration — is refused with a
/// structured error naming the mismatched field, and recovery never
/// panics on garbage input.
#[test]
fn mismatched_or_malformed_traces_are_refused() {
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let mk = move || small_config(width, 4);
    let trace_path = tmp("refuse.trace");
    let mut cfg = mk();
    cfg.trace = Some(TraceConfig::new(&trace_path));
    Driver::new(&program, &natives, cfg).run(Technique::HigherOrder);

    let field_of = |r: Result<Report, ResumeError>| match r {
        Err(ResumeError::HeaderMismatch { field, .. }) => field,
        other => panic!("expected HeaderMismatch, got {other:?}"),
    };

    // Wrong technique.
    let mut c = mk();
    c.trace = Some(TraceConfig::new(&trace_path));
    let d = Driver::new(&program, &natives, c);
    assert_eq!(field_of(d.resume(Technique::DartSound)), "technique");

    // Wrong program.
    let (other, other_natives) = corpus::foo();
    let mut c = small_config(other.input_width(), 4);
    c.trace = Some(TraceConfig::new(&trace_path));
    let d = Driver::new(&other, &other_natives, c);
    assert_eq!(field_of(d.resume(Technique::HigherOrder)), "program_digest");

    // Behaviourally different config (more runs).
    let mut c = mk();
    c.max_runs += 1;
    c.trace = Some(TraceConfig::new(&trace_path));
    let d = Driver::new(&program, &natives, c);
    assert_eq!(field_of(d.resume(Technique::HigherOrder)), "config_digest");

    // No trace configured at all.
    let d = Driver::new(&program, &natives, mk());
    assert!(matches!(
        d.resume(Technique::HigherOrder),
        Err(ResumeError::NoTraceConfigured)
    ));

    // Missing file.
    let mut c = mk();
    c.trace = Some(TraceConfig::new(tmp("no-such.trace")));
    let d = Driver::new(&program, &natives, c);
    assert!(matches!(
        d.resume(Technique::HigherOrder),
        Err(ResumeError::Io(_))
    ));

    // Garbage file: refused as malformed, never panicked on.
    let garbage = tmp("garbage.trace");
    std::fs::write(&garbage, b"not a trace at all, just bytes\x00\xff").unwrap();
    let mut c = mk();
    c.trace = Some(TraceConfig::new(&garbage));
    let d = Driver::new(&program, &natives, c);
    assert!(matches!(
        d.resume(Technique::HigherOrder),
        Err(ResumeError::Malformed(_))
    ));
    std::fs::remove_file(&garbage).ok();
    std::fs::remove_file(&trace_path).ok();
}

/// Trace-I/O chaos: forced short writes and fsync failures are counted
/// into the report's trace-fault telemetry and — under the default
/// drop-and-count policy — never perturb the campaign result. Under
/// fail-fast the campaign stops at the next merge boundary instead.
#[test]
fn trace_io_chaos_counts_drops_and_fail_fast() {
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let technique = Technique::HigherOrder;
    let clean = Driver::new(&program, &natives, small_config(width, 6)).run(technique);
    assert!(clean.total_runs() >= 2, "baseline does real work");

    // Short writes, drop-and-count: one error disables the writer; the
    // campaign result is untouched.
    let p1 = tmp("chaos-shortwrite.trace");
    let mut cfg = small_config(width, 6);
    cfg.fault_plan = Some(FaultPlan {
        trace_short_write: 1.0,
        ..FaultPlan::new(1)
    });
    cfg.trace = Some(TraceConfig::new(&p1));
    let r = Driver::new(&program, &natives, cfg).run(technique);
    assert_eq!(
        canonical(&clean),
        canonical(&r),
        "drop-and-count perturbed the run"
    );
    assert!(r.trace_faults.short_writes >= 1, "short write injected");
    assert!(r.sink_errors >= 1, "error counted");

    // Fsync failures with per-event syncing: every sync rolls, events
    // still reach the file (write succeeded), campaign unperturbed.
    let p2 = tmp("chaos-fsyncfail.trace");
    let mut cfg = small_config(width, 6);
    cfg.fault_plan = Some(FaultPlan {
        trace_fsync_fail: 1.0,
        ..FaultPlan::new(1)
    });
    cfg.trace = Some(TraceConfig {
        fsync: FsyncPolicy::EveryEvent,
        ..TraceConfig::new(&p2)
    });
    let r = Driver::new(&program, &natives, cfg).run(technique);
    assert_eq!(
        canonical(&clean),
        canonical(&r),
        "fsync chaos perturbed the run"
    );
    assert!(r.trace_faults.fsync_fails >= 1, "fsync failure injected");
    assert!(r.sink_errors >= 1, "error counted");

    // Fail-fast: the first write error stops the campaign at the next
    // merge boundary — a partial campaign instead of an untraced one.
    let p3 = tmp("chaos-failfast.trace");
    let mut cfg = small_config(width, 6);
    cfg.fault_plan = Some(FaultPlan {
        trace_short_write: 1.0,
        ..FaultPlan::new(1)
    });
    cfg.trace = Some(TraceConfig {
        on_error: TraceErrorPolicy::FailFast,
        ..TraceConfig::new(&p3)
    });
    let r = Driver::new(&program, &natives, cfg).run(technique);
    assert!(r.sink_errors >= 1, "error counted");
    assert!(
        r.total_runs() < clean.total_runs(),
        "fail-fast stopped the campaign early ({} vs {} runs)",
        r.total_runs(),
        clean.total_runs()
    );
    for p in [&p1, &p2, &p3] {
        std::fs::remove_file(p).ok();
    }
}

/// A caller sink that fails (drop-and-count): the first `Err` from the
/// sink passed to `run_with_sink` lands in `Report::sink_errors`, the
/// sink receives no event after it, and the campaign itself is
/// unperturbed.
#[test]
fn caller_sink_errors_are_counted_not_swallowed() {
    /// Returns `Err` on its `fail_at`-th event (0-based) and counts
    /// every event it is handed.
    struct FailingSink {
        fail_at: usize,
        seen: usize,
    }
    impl EventSink for FailingSink {
        fn emit(&mut self, _event: &CampaignEvent) -> std::io::Result<()> {
            self.seen += 1;
            if self.seen == self.fail_at + 1 {
                return Err(std::io::Error::other("injected sink failure"));
            }
            Ok(())
        }
    }
    let (program, natives) = corpus::obscure();
    let width = program.input_width();
    let clean = Driver::new(&program, &natives, small_config(width, 4)).run(Technique::HigherOrder);
    assert_eq!(clean.sink_errors, 0);
    let mut sink = FailingSink {
        fail_at: 3,
        seen: 0,
    };
    let r = Driver::new(&program, &natives, small_config(width, 4))
        .run_with_sink(Technique::HigherOrder, &mut sink);
    assert_eq!(r.sink_errors, 1, "the failed emit is counted once");
    assert_eq!(
        sink.seen, 4,
        "the sink is dropped after its first failure and sees no later event"
    );
    assert_eq!(
        canonical(&clean),
        canonical(&r),
        "a failing caller sink must not perturb the campaign"
    );
}
