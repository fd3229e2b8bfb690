//! Golden parity suite: the observable result of every campaign —
//! every run record, counter, and degradation rung of the [`Report`] —
//! is pinned by a content digest recorded in `tests/golden/reports.txt`.
//!
//! The matrix covers every corpus program × every technique ×
//! thread counts {1, 4} × fault injection {off, seed 0, seed 3}. Because
//! campaigns are deterministic per configuration, the digests are stable
//! across runs, thread counts, and — the point of this suite —
//! refactorings of the driver internals: the golden file was generated
//! *before* the engine/strategy split and must keep matching after it.
//!
//! Excluded from the digest: `elapsed` (wall clock) and the cache
//! hit/miss counters (the only fields documented to vary with worker
//! scheduling).
//!
//! Sharded campaigns are held to the same goldens: the
//! shard-count-invariance test replays the matrix at shards ∈ {2, 4},
//! with 1 and 4 worker threads per shard, and asserts each digest equals
//! the blessed single-shard line.
//!
//! The event-stream golden (`tests/golden/events.txt`) pins more than
//! the report: every event of every `shards=1, threads=1` campaign,
//! announcement-only telemetry (`CacheStats`, `SolverSessionStats`,
//! `BackendStats`, `ExecStats`) included, plus the bytes of one durable
//! trace file.
//!
//! Regenerate with `HOTG_BLESS=1 cargo test -p hotg-core --test parity`.

mod common;

use common::{canonical, fnv64, quiet_injected_panics};
use hotg_core::{
    fold_report, CampaignEvent, Driver, DriverConfig, EventLog, FaultPlan, Technique, TraceConfig,
};
use hotg_lang::corpus;
use hotg_logic::StableHasher;
use std::time::Duration;

/// The fault-injection legs of the matrix: off, and two plan seeds.
const CHAOS_SEEDS: [Option<u64>; 3] = [None, Some(0), Some(3)];

fn combo_config(width: usize, threads: usize, chaos: Option<u64>) -> DriverConfig {
    DriverConfig {
        max_runs: 10,
        threads,
        fault_plan: chaos.map(|seed| FaultPlan::uniform(seed, 0.2)),
        // Safety net only (as in the chaos suite): far too generous to
        // fire on these small campaigns, so it never perturbs results.
        target_deadline: chaos.map(|_| Duration::from_secs(10)),
        ..DriverConfig::with_initial(vec![0; width])
    }
}

fn golden_path() -> std::path::PathBuf {
    golden_file("reports.txt")
}

fn golden_file(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Compares fresh digest lines against a golden file, or rewrites the
/// file under `HOTG_BLESS`.
fn check_golden(name: &str, what: &str, lines: &[String]) {
    let path = golden_file(name);
    if std::env::var_os("HOTG_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, lines.join("\n") + "\n").expect("write golden file");
        eprintln!("blessed {} digests into {}", lines.len(), path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let fresh: Vec<&str> = lines.iter().map(String::as_str).collect();
    let mut mismatches = Vec::new();
    for (g, f) in golden.iter().zip(fresh.iter()) {
        if g != f {
            mismatches.push(format!("golden `{g}` != fresh `{f}`"));
        }
    }
    if golden.len() != fresh.len() {
        mismatches.push(format!(
            "matrix size changed: golden {} lines, fresh {} lines",
            golden.len(),
            fresh.len()
        ));
    }
    assert!(
        mismatches.is_empty(),
        "{what} digests drifted from the pre-refactor goldens:\n{}",
        mismatches.join("\n")
    );
}

/// One digest line per matrix cell, in a fixed order.
fn compute_digests() -> Vec<String> {
    quiet_injected_panics();
    let mut lines = Vec::new();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            for threads in [1usize, 4] {
                for chaos in CHAOS_SEEDS {
                    let config = combo_config(width, threads, chaos);
                    let report = Driver::new(&program, &natives, config).run(technique);
                    let digest = fnv64(&canonical(&report));
                    let chaos_label = chaos.map_or("off".to_string(), |seed| format!("seed{seed}"));
                    lines.push(format!(
                        "{name}/{technique}/threads{threads}/chaos-{chaos_label} {digest:016x}"
                    ));
                }
            }
        }
    }
    lines
}

/// The digest of a campaign's report must match the golden file recorded
/// before the engine/strategy refactor — bit-identical observable
/// behavior for every program × technique × thread count × fault plan.
#[test]
fn reports_match_golden_digests() {
    check_golden("reports.txt", "report", &compute_digests());
}

/// Whether the campaign stopped with targets of its last generation
/// still unprocessed (fewer `TargetClosed` than the generation's width).
fn stopped_mid_generation(events: &[CampaignEvent]) -> bool {
    let Some(last) = events
        .iter()
        .rposition(|e| matches!(e, CampaignEvent::GenerationStarted { .. }))
    else {
        return false;
    };
    let CampaignEvent::GenerationStarted { width, .. } = events[last] else {
        unreachable!()
    };
    let closed = events[last..]
        .iter()
        .filter(|e| matches!(e, CampaignEvent::TargetClosed { .. }))
        .count();
    closed < width
}

/// Full event-stream golden for `shards=1, threads=1`: a digest of the
/// JSON rendering of every event, in order, for every corpus program ×
/// technique, with chaos off and with plan seed 3. Unlike the report
/// digests this also pins the announcement-only telemetry, so
/// `ExecStats.vm_runs` proves that no target is processed after a
/// mid-generation `max_runs` stop. One durable trace file written at
/// `shards=1` is pinned byte for byte as well.
#[test]
fn event_streams_match_golden() {
    quiet_injected_panics();
    let mut lines = Vec::new();
    let mut mid_generation_stops = 0;
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            for chaos in [None, Some(3)] {
                let config = combo_config(width, 1, chaos);
                let mut log = EventLog::new();
                Driver::new(&program, &natives, config).run_with_sink(technique, &mut log);
                let rendered: String = log
                    .events()
                    .iter()
                    .enumerate()
                    .map(|(seq, e)| e.to_json(seq as u64) + "\n")
                    .collect();
                if stopped_mid_generation(log.events()) {
                    mid_generation_stops += 1;
                }
                let chaos_label = chaos.map_or("off".to_string(), |seed| format!("seed{seed}"));
                lines.push(format!(
                    "{name}/{technique}/chaos-{chaos_label} {:016x}",
                    fnv64(&rendered)
                ));
            }
        }
    }
    assert!(
        mid_generation_stops > 0,
        "the matrix must include campaigns that stop mid-generation"
    );
    let (program, natives) = corpus::fanout();
    let path = common::tmp("event-golden.trace");
    let config = DriverConfig {
        trace: Some(TraceConfig::new(&path)),
        ..combo_config(program.input_width(), 1, None)
    };
    Driver::new(&program, &natives, config).run(Technique::HigherOrder);
    let bytes = std::fs::read(&path).expect("read durable trace");
    let _ = std::fs::remove_file(&path);
    lines.push(format!(
        "trace/fanout/higher-order {:016x}",
        StableHasher::digest(&bytes)
    ));
    check_golden("events.txt", "event-stream", &lines);
}

/// The other half of the parity contract: the structured event stream
/// folds back into the exact counters of the returned report, for every
/// matrix cell. `canonical` covers every deterministic field; the cache
/// split is compared separately (it is excluded from the digests but
/// carried verbatim by the `CacheStats` event of the same campaign).
#[test]
fn event_stream_folds_to_report_counters() {
    quiet_injected_panics();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            for threads in [1usize, 4] {
                for chaos in CHAOS_SEEDS {
                    let config = combo_config(width, threads, chaos);
                    let driver = Driver::new(&program, &natives, config);
                    let mut log = EventLog::new();
                    let report = driver.run_with_sink(technique, &mut log);
                    let folded = fold_report(log.events());
                    let cell = format!("{name}/{technique}/threads{threads}/chaos-{chaos:?}");
                    assert_eq!(
                        canonical(&report),
                        canonical(&folded),
                        "{cell}: folded event stream diverges from the report"
                    );
                    assert_eq!(
                        (report.cache_hits, report.cache_misses),
                        (folded.cache_hits, folded.cache_misses),
                        "{cell}: cache stats must flow through the event stream"
                    );
                    assert!(
                        report.elapsed.as_nanos() > 0,
                        "{cell}: elapsed is measured outside the stream"
                    );
                }
            }
        }
    }
}

/// The pre-solver cascade is report-invisible: for every program ×
/// technique, a campaign with the abstract backend enabled (the
/// default) produces the bit-identical canonical report of one with
/// pre-solving disabled. The cascade may only change *which layer*
/// answers a query, never the answer — this pins that contract on real
/// campaigns, complementing the per-query property suite in
/// `hotg-solver`.
#[test]
fn cascade_is_report_invisible() {
    quiet_injected_panics();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            let on = combo_config(width, 1, None);
            let mut off = combo_config(width, 1, None);
            off.validity.smt.pre_solve = false;
            let r_on = Driver::new(&program, &natives, on).run(technique);
            let r_off = Driver::new(&program, &natives, off).run(technique);
            assert_eq!(
                canonical(&r_on),
                canonical(&r_off),
                "{name}/{technique}: the cascade changed the campaign report"
            );
        }
    }
}

/// Thread-count invariance, asserted directly on the digest lines: for
/// every program × technique × chaos leg, the `threads1` and `threads4`
/// digests are equal.
#[test]
fn digests_are_thread_count_invariant() {
    let lines = compute_digests();
    let mut by_key: std::collections::BTreeMap<String, Vec<(String, String)>> =
        std::collections::BTreeMap::new();
    for line in &lines {
        let (cell, digest) = line.split_once(' ').expect("digest line");
        let key = cell
            .replace("/threads1/", "/t/")
            .replace("/threads4/", "/t/");
        by_key
            .entry(key)
            .or_default()
            .push((cell.to_string(), digest.to_string()));
    }
    for (key, cells) in by_key {
        assert_eq!(cells.len(), 2, "{key}: expected both thread counts");
        assert_eq!(
            cells[0].1, cells[1].1,
            "{key}: digests differ across thread counts"
        );
    }
}

/// Shard-count invariance, asserted against the *blessed* goldens: for
/// every program × technique × chaos leg, a campaign partitioned across
/// 2 or 4 shards — each shard running one worker thread or a pool of 4 —
/// reproduces the single-shard `threads1` digest bit-for-bit. This is the acceptance gate of the sharded
/// campaign runtime — the partitioner, the state-exchange protocol, and
/// the multi-stream merge may only change *where* a target is
/// processed, never a single byte of the canonical report.
#[test]
fn digests_are_shard_count_invariant() {
    if std::env::var_os("HOTG_BLESS").is_some() {
        // Blessing regenerates the single-shard goldens this test
        // compares against; skip the comparison during that run.
        return;
    }
    quiet_injected_panics();
    let golden = std::fs::read_to_string(golden_path()).expect("golden file");
    let golden: std::collections::BTreeMap<&str, &str> =
        golden.lines().filter_map(|l| l.split_once(' ')).collect();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            for chaos in CHAOS_SEEDS {
                let chaos_label = chaos.map_or("off".to_string(), |seed| format!("seed{seed}"));
                let cell = format!("{name}/{technique}/threads1/chaos-{chaos_label}");
                let want = golden
                    .get(cell.as_str())
                    .unwrap_or_else(|| panic!("{cell}: missing from golden file"));
                for (shards, threads) in [(2usize, 1usize), (4, 1), (2, 4), (4, 4)] {
                    let mut config = combo_config(width, threads, chaos);
                    config.shards = shards;
                    let report = Driver::new(&program, &natives, config).run(technique);
                    let digest = format!("{:016x}", fnv64(&canonical(&report)));
                    assert_eq!(
                        *want, digest,
                        "{cell}: {shards}-shard campaign (threads {threads}) drifted from the \
                         single-shard golden digest"
                    );
                }
            }
        }
    }
}

/// The bytecode execution layer is report-invisible: for every program
/// × technique, a campaign on the compiled VMs (the default) produces
/// the bit-identical canonical report of one on the reference
/// tree-walkers. The flag may only change throughput (and the
/// announcement-only `ExecStats` telemetry), never a single run record,
/// counter, or degradation rung — the campaign-level capstone of the
/// per-run differential suites in `hotg-lang` and `hotg-concolic`.
#[test]
fn bytecode_is_report_invisible() {
    quiet_injected_panics();
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        for technique in Technique::ALL {
            // Chaos leg included: injected interpreter faults and worker
            // panics key off inputs/paths, which must be engine-independent.
            for chaos in [None, Some(3)] {
                let on = combo_config(width, 1, chaos);
                let mut off = combo_config(width, 1, chaos);
                off.bytecode = false;
                let r_on = Driver::new(&program, &natives, on).run(technique);
                let r_off = Driver::new(&program, &natives, off).run(technique);
                assert_eq!(
                    canonical(&r_on),
                    canonical(&r_off),
                    "{name}/{technique}/chaos-{chaos:?}: the bytecode VM changed the report"
                );
            }
        }
    }
}

/// `ExecStats` is announcement-only: every campaign emits exactly one,
/// immediately before `CampaignFinished`, and the report fold ignores it
/// — mirroring the `BackendStats`/`SolverSessionStats` contract. Also
/// pins the run-split accounting: with the default config every run
/// executes on a VM; with `bytecode: false` every run tree-walks.
#[test]
fn exec_stats_is_report_invisible() {
    let (program, natives) = corpus::fanout();
    let width = program.input_width();
    for bytecode in [true, false] {
        let config = DriverConfig {
            bytecode,
            ..combo_config(width, 1, None)
        };
        let driver = Driver::new(&program, &natives, config);
        let mut log = EventLog::new();
        let report = driver.run_with_sink(Technique::HigherOrder, &mut log);
        let events = log.events();
        let stats: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::ExecStats { .. }))
            .collect();
        assert_eq!(stats.len(), 1, "one ExecStats per campaign");
        assert!(
            matches!(
                &events[events.len() - 2..],
                [
                    CampaignEvent::ExecStats { .. },
                    CampaignEvent::CampaignFinished
                ]
            ),
            "ExecStats precedes CampaignFinished"
        );
        let CampaignEvent::ExecStats {
            instructions,
            compiled_blocks,
            vm_runs,
            tree_runs,
        } = stats[0]
        else {
            unreachable!()
        };
        let total = report.total_runs() as u64;
        if bytecode {
            assert_eq!(*vm_runs, total, "every run on the VM");
            assert_eq!(*tree_runs, 0);
            assert!(*instructions > 0, "instructions retired");
            assert!(*compiled_blocks > 0, "compiled program present");
        } else {
            assert_eq!(*tree_runs, total, "every run tree-walked");
            assert_eq!(*vm_runs, 0);
            assert_eq!(*instructions, 0);
            assert_eq!(*compiled_blocks, 0);
        }
        // The fold ignores the event: replaying the stream reconstructs
        // the report whether or not ExecStats is filtered out.
        let folded_all = fold_report(events.iter());
        let folded_without = fold_report(
            events
                .iter()
                .filter(|e| !matches!(e, CampaignEvent::ExecStats { .. })),
        );
        assert_eq!(canonical(&folded_all), canonical(&report));
        assert_eq!(canonical(&folded_without), canonical(&report));
    }
}

/// Bytecode × resilience interaction: with chaos injection *and* a
/// (generous, never-firing) target/campaign deadline configured, the VM
/// and tree-walker campaigns still agree bit-for-bit — the deadline
/// plumbing and chaos keys observe inputs and paths, not the engine.
#[test]
fn bytecode_survives_chaos_and_deadlines() {
    quiet_injected_panics();
    let (program, natives) = corpus::budget_cliff();
    let width = program.input_width();
    for technique in [Technique::DartSound, Technique::HigherOrder] {
        let mk = |bytecode: bool| DriverConfig {
            bytecode,
            fault_plan: Some(FaultPlan::uniform(7, 0.3)),
            target_deadline: Some(Duration::from_secs(30)),
            campaign_deadline: Some(Duration::from_secs(120)),
            // Tight statement budget: some runs must hit the fuel cliff,
            // so the engines also agree on mid-loop `OutOfFuel` stops.
            fuel: 150,
            max_runs: 12,
            ..DriverConfig::with_initial(vec![0; width])
        };
        let r_on = Driver::new(&program, &natives, mk(true)).run(technique);
        let r_off = Driver::new(&program, &natives, mk(false)).run(technique);
        assert_eq!(
            canonical(&r_on),
            canonical(&r_off),
            "{technique}: chaos+deadline campaign diverged across engines"
        );
        assert!(
            r_on.total_runs() > 0,
            "{technique}: campaign executed under chaos+deadlines"
        );
    }
}
