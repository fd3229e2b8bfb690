//! The structured campaign event stream.
//!
//! The campaign engine does not mutate [`Report`] counters ad hoc:
//! every observable fact of a campaign — a generation boundary, a
//! scheduled/solved/degraded/faulted target, a probe run, an injected
//! fault, the solver-cache totals — is emitted as a [`CampaignEvent`]
//! on the merge thread, in deterministic merge order. The [`Report`] is
//! *folded* from this stream (see [`fold_report`]), so by construction
//! the stream always reconstructs the exact counters of the report the
//! engine returns.
//!
//! Two sinks consume the stream:
//!
//! * the engine's own report fold (always on), and
//! * any caller-provided [`EventSink`] passed to
//!   [`Driver::run_with_sink`](crate::Driver::run_with_sink): an
//!   [`EventLog`] records it in memory, a [`JsonlSink`] writes it to a
//!   JSON Lines file.

use crate::chaos::FaultSite;
use crate::config::Technique;
use crate::report::{DegradationRecord, Origin, Report, RunRecord};
use hotg_lang::{BranchId, Outcome};
use std::io::Write;
use std::path::Path;

/// One observable fact of a running campaign, emitted by the engine on
/// the merge thread in deterministic order (identical for every worker
/// thread count, except that the final [`CampaignEvent::CacheStats`]
/// totals may differ — see
/// [`Report::cache_hits`](crate::Report::cache_hits)).
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignEvent {
    /// The campaign started; carries the report identity fields.
    CampaignStarted {
        /// Technique driving the campaign.
        technique: Technique,
        /// Name of the program under test.
        program: String,
        /// Total branch sites of the program (for coverage ratios).
        branch_sites: u32,
    },
    /// The program under test failed the static checker
    /// ([`fn@hotg_lang::check`]), so the campaign was refused: this event
    /// follows [`CampaignEvent::CampaignStarted`], only
    /// [`CampaignEvent::CampaignFinished`] follows it, and no run
    /// executes. Folded into
    /// [`Report::rejected`](crate::Report::rejected).
    ProgramRejected {
        /// The checker's error message.
        reason: String,
    },
    /// A native call site with statically-constant arguments was
    /// pre-sampled into the initial `IOF` table.
    SitePresampled,
    /// A generation of the directed search begins.
    GenerationStarted {
        /// Zero-based generation number.
        index: usize,
        /// Number of deduplicated targets in this generation.
        width: usize,
    },
    /// A branch-flip target survived dedup and was handed to a worker.
    TargetScheduled {
        /// Branch site being flipped.
        target: BranchId,
        /// The target's position in the generation's canonical job
        /// order. A sharded campaign stamps this canonical ordinal into
        /// every shard's trace so the deterministic multi-stream merger
        /// ([`merge_shard_streams`](crate::merge_shard_streams)) can
        /// interleave the shard streams back into the exact single-shard
        /// event order.
        ordinal: usize,
    },
    /// Solver/validity queries were issued while processing a target.
    SolverQueries {
        /// Number of queries.
        count: usize,
    },
    /// A target's query succeeded and produced a generated test (the
    /// matching [`CampaignEvent::RunExecuted`] follows).
    TargetSolved {
        /// Branch site being flipped.
        target: BranchId,
    },
    /// Targets were proved infeasible/invalid (no test generated).
    TargetsRejected {
        /// Number of rejections.
        count: usize,
    },
    /// Solver/validity queries failed with an error.
    SolverErrors {
        /// Number of errored queries.
        count: usize,
    },
    /// Faults were injected by the configured
    /// [`FaultPlan`](crate::FaultPlan).
    FaultInjected {
        /// Where the faults were injected.
        site: FaultSite,
        /// Number of injections at this site.
        count: usize,
    },
    /// A target's worker panicked; the panic was isolated and the
    /// target abandoned.
    TargetFaulted {
        /// Branch site of the abandoned target.
        target: BranchId,
    },
    /// A target entered the degradation ladder; every attempted rung is
    /// carried along.
    TargetDegraded {
        /// Branch site of the demoted target.
        target: BranchId,
        /// The ladder rungs attempted, in order.
        rungs: Vec<DegradationRecord>,
    },
    /// Targets were dropped by the static oracle before any query.
    TargetsPrunedStatic {
        /// Number of dropped targets.
        count: usize,
    },
    /// An intermediate probe run was executed to collect missing
    /// samples (the matching [`CampaignEvent::RunExecuted`] follows).
    ProbeRun {
        /// Branch site the pending strategy is for.
        target: BranchId,
    },
    /// A program execution completed (test or probe).
    RunExecuted {
        /// The full run record, as it appears in [`Report::runs`].
        record: Box<RunRecord>,
    },
    /// Final solver-cache totals (SMT plus validity caches), emitted
    /// once at the end of a directed campaign.
    CacheStats {
        /// Lookups answered from the cache.
        hits: u64,
        /// Lookups that ran the solver.
        misses: u64,
    },
    /// Satisfiability-query totals, emitted once at the end of a
    /// directed campaign alongside [`CampaignEvent::CacheStats`].
    /// Announcement-only: not folded into the report (the counters are
    /// reuse telemetry, not campaign results, and may legitimately vary
    /// with thread count).
    SolverSessionStats {
        /// `SmtSolver::check` calls on the shards' solvers, summed over
        /// shards.
        queries: u64,
        /// Term-arena intern lookups answered by an existing node.
        intern_hits: u64,
    },
    /// Totals of the deleted abstract pre-solver cascade. No campaign
    /// emits it: the variant and its JSON arms remain only because the
    /// benchmark harness (`perfbench/src/measure.rs`) matches on it, and
    /// the benchmark change that brings ROADMAP item 1's single telemetry
    /// event deletes it. Announcement-only: never folded into a report.
    BackendStats {
        /// Queries posed to the backend (solver-cache misses).
        queries: u64,
        /// Queries refuted without any DPLL(T) work.
        unsat_short_circuits: u64,
        /// Verdict-only queries proved valid without any DPLL(T) work.
        valid_short_circuits: u64,
        /// Queries answered with a forced model without any DPLL(T) work.
        sat_short_circuits: u64,
    },
    /// Execution-layer telemetry, emitted once at the end of every
    /// campaign that was not refused. Announcement-only: not folded
    /// into the report — throughput accounting is observability, not a
    /// campaign result.
    ExecStats {
        /// Bytecode instructions retired across all VM runs of the
        /// campaign.
        instructions: u64,
        /// Code blocks in the campaign's compiled program — defined
        /// functions plus the program body.
        compiled_blocks: usize,
        /// Runs executed on the bytecode VMs (concrete or concolic).
        vm_runs: u64,
    },
    /// Sharding telemetry of a sharded campaign, emitted once near the
    /// end alongside the solver totals. Announcement-only: not folded
    /// into the report — how work was partitioned and how much state a
    /// shard would need to be sent is observability, never a campaign
    /// result (the report is bit-identical for every shard count).
    ShardStats {
        /// Number of shards the campaign ran as.
        shards: usize,
        /// Targets processed by each shard, in shard order.
        per_shard_targets: Vec<u64>,
        /// Sample pairs in the campaign's `IOF` table at the last
        /// generation cut (the table only grows, so this is every pair
        /// a shard was handed).
        exchange_samples: u64,
        /// Dedup keys newly claimed at each generation cut, summed.
        exchange_keys: u64,
    },
    /// All events of one scheduled target have been merged (emitted
    /// after the last event of every target's outcome block).
    /// Announcement-only: not folded into the report. The resume replay
    /// uses it to delimit per-target event blocks in a recorded trace.
    TargetClosed {
        /// Branch site whose outcome block just ended.
        target: BranchId,
    },
    /// Event-sink I/O errors were absorbed during the campaign (writes
    /// dropped under the drop-and-count policy — see
    /// [`Report::sink_errors`](crate::Report::sink_errors)). Emitted
    /// once near the end of a campaign, only when the count is nonzero.
    SinkErrors {
        /// Number of absorbed sink I/O errors.
        count: usize,
    },
    /// The campaign finished; no further events follow.
    CampaignFinished,
}

impl CampaignEvent {
    /// The event's kind as a stable snake_case tag (used by the JSONL
    /// trace).
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignEvent::CampaignStarted { .. } => "campaign_started",
            CampaignEvent::ProgramRejected { .. } => "program_rejected",
            CampaignEvent::SitePresampled => "site_presampled",
            CampaignEvent::GenerationStarted { .. } => "generation_started",
            CampaignEvent::TargetScheduled { .. } => "target_scheduled",
            CampaignEvent::ShardStats { .. } => "shard_stats",
            CampaignEvent::SolverQueries { .. } => "solver_queries",
            CampaignEvent::TargetSolved { .. } => "target_solved",
            CampaignEvent::TargetsRejected { .. } => "targets_rejected",
            CampaignEvent::SolverErrors { .. } => "solver_errors",
            CampaignEvent::FaultInjected { .. } => "fault_injected",
            CampaignEvent::TargetFaulted { .. } => "target_faulted",
            CampaignEvent::TargetDegraded { .. } => "target_degraded",
            CampaignEvent::TargetsPrunedStatic { .. } => "targets_pruned_static",
            CampaignEvent::ProbeRun { .. } => "probe_run",
            CampaignEvent::RunExecuted { .. } => "run_executed",
            CampaignEvent::CacheStats { .. } => "cache_stats",
            CampaignEvent::SolverSessionStats { .. } => "solver_session_stats",
            CampaignEvent::BackendStats { .. } => "backend_stats",
            CampaignEvent::ExecStats { .. } => "exec_stats",
            CampaignEvent::TargetClosed { .. } => "target_closed",
            CampaignEvent::SinkErrors { .. } => "sink_errors",
            CampaignEvent::CampaignFinished => "campaign_finished",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self, seq: u64) -> String {
        let mut s = format!("{{\"seq\":{seq},\"event\":\"{}\"", self.kind());
        match self {
            CampaignEvent::CampaignStarted {
                technique,
                program,
                branch_sites,
            } => {
                s.push_str(&format!(
                    ",\"technique\":\"{}\",\"program\":{},\"branch_sites\":{branch_sites}",
                    technique.name(),
                    json_str(program)
                ));
            }
            CampaignEvent::ProgramRejected { reason } => {
                s.push_str(&format!(",\"reason\":{}", json_str(reason)));
            }
            CampaignEvent::GenerationStarted { index, width } => {
                s.push_str(&format!(",\"index\":{index},\"width\":{width}"));
            }
            CampaignEvent::TargetScheduled { target, ordinal } => {
                s.push_str(&format!(",\"target\":{},\"ordinal\":{ordinal}", target.0));
            }
            CampaignEvent::ShardStats {
                shards,
                per_shard_targets,
                exchange_samples,
                exchange_keys,
            } => {
                s.push_str(&format!(
                    ",\"shards\":{shards},\"per_shard_targets\":{per_shard_targets:?},\
                     \"exchange_samples\":{exchange_samples},\"exchange_keys\":{exchange_keys}"
                ));
            }
            CampaignEvent::TargetSolved { target }
            | CampaignEvent::TargetFaulted { target }
            | CampaignEvent::TargetClosed { target }
            | CampaignEvent::ProbeRun { target } => {
                s.push_str(&format!(",\"target\":{}", target.0));
            }
            CampaignEvent::SolverQueries { count }
            | CampaignEvent::TargetsRejected { count }
            | CampaignEvent::SolverErrors { count }
            | CampaignEvent::TargetsPrunedStatic { count }
            | CampaignEvent::SinkErrors { count } => {
                s.push_str(&format!(",\"count\":{count}"));
            }
            CampaignEvent::FaultInjected { site, count } => {
                s.push_str(&format!(",\"site\":\"{site:?}\",\"count\":{count}"));
            }
            CampaignEvent::TargetDegraded { target, rungs } => {
                s.push_str(&format!(",\"target\":{},\"rungs\":[", target.0));
                for (i, r) in rungs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!(
                        "{{\"target\":{},\"level\":\"{}\",\"reason\":\"{:?}\",\"recovered\":{}}}",
                        r.target.0,
                        r.level.label(),
                        r.reason,
                        r.recovered
                    ));
                }
                s.push(']');
            }
            CampaignEvent::RunExecuted { record } => {
                s.push_str(&format!(
                    ",\"origin\":{},\"inputs\":{:?},\"outcome\":{},\"path\":{},\"path_len\":{}",
                    origin_json(&record.origin),
                    record.inputs,
                    outcome_json(&record.outcome),
                    path_json(&record.path),
                    record.path.len()
                ));
                if let Some(d) = record.diverged {
                    s.push_str(&format!(",\"diverged\":{d}"));
                }
            }
            CampaignEvent::CacheStats { hits, misses } => {
                s.push_str(&format!(",\"hits\":{hits},\"misses\":{misses}"));
            }
            CampaignEvent::SolverSessionStats {
                queries,
                intern_hits,
            } => {
                s.push_str(&format!(
                    ",\"queries\":{queries},\"intern_hits\":{intern_hits}"
                ));
            }
            CampaignEvent::BackendStats {
                queries,
                unsat_short_circuits,
                valid_short_circuits,
                sat_short_circuits,
            } => {
                s.push_str(&format!(
                    ",\"queries\":{queries},\
                     \"unsat_short_circuits\":{unsat_short_circuits},\
                     \"valid_short_circuits\":{valid_short_circuits},\
                     \"sat_short_circuits\":{sat_short_circuits}"
                ));
            }
            CampaignEvent::ExecStats {
                instructions,
                compiled_blocks,
                vm_runs,
            } => {
                s.push_str(&format!(
                    ",\"instructions\":{instructions},\"compiled_blocks\":{compiled_blocks},\
                     \"vm_runs\":{vm_runs}"
                ));
            }
            CampaignEvent::SitePresampled | CampaignEvent::CampaignFinished => {}
        }
        s.push('}');
        s
    }
}

/// Renders a run origin as a structured JSON object. Lossless: the
/// trace reader's `decode_event` inverts this exactly, which the resume
/// replay depends on.
fn origin_json(origin: &Origin) -> String {
    match origin {
        Origin::Initial => "{\"kind\":\"initial\"}".to_string(),
        Origin::Seed => "{\"kind\":\"seed\"}".to_string(),
        Origin::Random => "{\"kind\":\"random\"}".to_string(),
        Origin::Solved { target } => {
            format!("{{\"kind\":\"solved\",\"target\":{}}}", target.0)
        }
        Origin::Strategy { target, strategy } => format!(
            "{{\"kind\":\"strategy\",\"target\":{},\"strategy\":{}}}",
            target.0,
            json_str(strategy)
        ),
        Origin::Probe { target } => {
            format!("{{\"kind\":\"probe\",\"target\":{}}}", target.0)
        }
        Origin::Degraded { target, level } => format!(
            "{{\"kind\":\"degraded\",\"target\":{},\"level\":\"{}\"}}",
            target.0,
            level.label()
        ),
    }
}

/// Renders an execution outcome as a structured JSON object (lossless,
/// like [`origin_json`]).
fn outcome_json(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Returned => "{\"kind\":\"returned\"}".to_string(),
        Outcome::Error(code) => format!("{{\"kind\":\"error\",\"code\":{code}}}"),
        Outcome::OutOfFuel => "{\"kind\":\"out_of_fuel\"}".to_string(),
        Outcome::RuntimeFault(fault) => format!(
            "{{\"kind\":\"fault\",\"fault_kind\":\"{}\",\"message\":{}}}",
            fault.kind.label(),
            json_str(&fault.message)
        ),
    }
}

/// Renders a branch path as `[[site,dir],...]` (lossless).
fn path_json(path: &[(BranchId, bool)]) -> String {
    let mut s = String::from("[");
    for (i, (id, dir)) in path.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{},{dir}]", id.0));
    }
    s.push(']');
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars),
/// shared by the event serializer and the durable-trace header.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A consumer of the campaign event stream. Sinks observe events in
/// deterministic merge order; they must not assume anything about
/// worker scheduling.
///
/// `emit` is fallible so I/O-backed sinks can surface write errors
/// instead of swallowing them. The engine applies a *drop-and-count*
/// backpressure policy to every sink: the first `Err` permanently
/// disables that sink for the rest of the campaign (no retries — a
/// partially-written line or torn frame already ends its usable
/// prefix), the error is tallied into
/// [`Report::sink_errors`](crate::Report::sink_errors), and the
/// campaign continues; sinks can never stall or fail the merge thread.
/// The durable campaign trace ([`DriverConfig::trace`](crate::DriverConfig::trace))
/// follows the same policy.
pub trait EventSink {
    /// Consumes one event.
    fn emit(&mut self, event: &CampaignEvent) -> std::io::Result<()>;
}

/// Sink that discards every event (the default for
/// [`Driver::run`](crate::Driver::run)).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _event: &CampaignEvent) -> std::io::Result<()> {
        Ok(())
    }
}

/// Sink that records every event in memory, for tests and for
/// consumers that post-process the stream.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<CampaignEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[CampaignEvent] {
        &self.events
    }

    /// Consumes the log, returning the recorded events.
    pub fn into_events(self) -> Vec<CampaignEvent> {
        self.events
    }
}

impl EventSink for EventLog {
    fn emit(&mut self, event: &CampaignEvent) -> std::io::Result<()> {
        self.events.push(event.clone());
        Ok(())
    }
}

/// Sink that appends each event as one JSON line to a file: pass
/// `&mut JsonlSink::create(path)?` to
/// [`Driver::run_with_sink`](crate::Driver::run_with_sink).
///
/// Error policy (drop-and-count): each line is written and flushed
/// eagerly so failures surface on the event that hit them, the first
/// failed write disables the sink for the rest of the campaign (the
/// remaining trace is dropped, never silently truncated mid-line on a
/// later flush), and the error is propagated to the engine, which
/// counts it in [`Report::sink_errors`](crate::Report::sink_errors).
/// The campaign result never depends on the trace. For a durable,
/// recoverable trace use
/// [`DriverConfig::trace`](crate::DriverConfig::trace) instead.
#[derive(Debug)]
pub struct JsonlSink {
    out: Option<std::io::BufWriter<std::fs::File>>,
    seq: u64,
}

impl JsonlSink {
    /// Creates (truncating) the trace file.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: Some(std::io::BufWriter::new(file)),
            seq: 0,
        })
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, event: &CampaignEvent) -> std::io::Result<()> {
        let Some(w) = self.out.as_mut() else {
            return Ok(());
        };
        let line = event.to_json(self.seq);
        self.seq += 1;
        let res = writeln!(w, "{line}").and_then(|()| w.flush());
        if res.is_err() {
            // Disable the trace on the first failed write; the campaign
            // result does not depend on the trace.
            self.out = None;
        }
        res
    }
}

/// Folds a recorded event stream back into the [`Report`] it
/// describes. For a stream recorded from a completed campaign the
/// result carries the exact counters of the report the engine returned
/// — the engine builds its own report with the same fold — except
/// [`Report::elapsed`], which is wall-clock time measured outside the
/// stream.
pub fn fold_report<'a, I>(events: I) -> Report
where
    I: IntoIterator<Item = &'a CampaignEvent>,
{
    let mut report = Report::empty();
    for event in events {
        report.fold(event);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, DriverConfig, Technique};
    use hotg_lang::corpus;

    /// The stream is framed: exactly one `CampaignStarted` first and one
    /// `CampaignFinished` last, with one `RunExecuted` per report run.
    #[test]
    fn stream_framing_and_run_events() {
        let (program, natives) = corpus::obscure();
        let config = DriverConfig::with_initial(vec![33, 42]);
        let driver = Driver::new(&program, &natives, config);
        let mut log = EventLog::new();
        let report = driver.run_with_sink(Technique::HigherOrder, &mut log);
        let events = log.events();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStarted { .. })
        ));
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::CampaignFinished)
        ));
        let executed = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::RunExecuted { .. }))
            .count();
        assert_eq!(executed, report.total_runs());
        let starts = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::CampaignStarted { .. }))
            .count();
        assert_eq!(starts, 1);
    }

    /// A [`JsonlSink`] passed to `run_with_sink` writes one JSON line
    /// per emitted event, sequenced, matching the in-memory stream of
    /// the same campaign on a fresh driver (single-threaded, hence
    /// deterministic down to the telemetry counters).
    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let path =
            std::env::temp_dir().join(format!("hotg-event-trace-{}.jsonl", std::process::id()));
        let (program, natives) = corpus::foo();
        let config = DriverConfig {
            threads: 1,
            ..DriverConfig::with_initial(vec![567, 42])
        };
        let mut sink = JsonlSink::create(&path).expect("trace file created");
        Driver::new(&program, &natives, config.clone())
            .run_with_sink(Technique::HigherOrder, &mut sink);
        drop(sink);
        let mut log = EventLog::new();
        Driver::new(&program, &natives, config).run_with_sink(Technique::HigherOrder, &mut log);
        let trace = std::fs::read_to_string(&path).expect("trace file written");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), log.events().len());
        for (i, (line, event)) in lines.iter().zip(log.events()).enumerate() {
            assert_eq!(*line, event.to_json(i as u64), "line {i}");
        }
        assert!(lines[0].contains("\"event\":\"campaign_started\""));
        assert!(lines[0].contains("\"program\":\"foo\""));
        assert!(lines
            .last()
            .unwrap()
            .contains("\"event\":\"campaign_finished\""));
        assert!(trace.contains("\"event\":\"probe_run\""));
    }
}
