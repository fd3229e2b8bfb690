//! The public campaign driver: a thin façade over the strategy-pluggable
//! [`engine`](crate::engine).
//!
//! The search is generational (breadth-first over branch-flip targets, as
//! in SAGE): every executed run contributes one target per negatable
//! branch entry of its path constraint; targets are deduplicated by their
//! expected branch path.
//!
//! * DART techniques solve `ALT(pc)` with a *satisfiability* query and
//!   turn the model into inputs (unconstrained inputs keep the parent
//!   run's values, as in the original DART).
//! * The higher-order technique checks *validity* of
//!   `POST(ALT(pc)) = ∃X : A ⇒ ALT(pc)` and interprets the resulting
//!   strategy against the recorded samples, running intermediate probe
//!   executions when a needed application value is unknown (multi-step
//!   test generation, §5.3 Example 7).
//!
//! Each [`Technique`] maps to one strategy object
//! (`crate::strategy::for_technique`); the engine runs the campaign as a
//! loop over the strategy and emits a [`CampaignEvent`](crate::CampaignEvent)
//! stream from which the returned [`Report`] is folded. See the engine
//! module docs for the parallel generation structure and the determinism
//! argument.
//!
//! Every run executes on the bytecode VMs; a program that fails
//! [`hotg_lang::check`] is refused instead (no run executes).

use crate::config::{DriverConfig, Technique};
use crate::engine::{Engine, ResumeData};
use crate::events::{fold_report, CampaignEvent, EventSink, NullSink};
use crate::report::Report;
use crate::strategy;
use crate::trace::{
    program_digest, recover, shard_digest, shard_trace_path, Recovery, RecoveryReport, ResumeError,
    TraceHeader,
};
use hotg_analysis::{analyze, AnalysisResult};
use hotg_concolic::ConcolicContext;
use hotg_lang::{CompileError, CompiledProgram, NativeRegistry, Program};
use hotg_logic::LogicArena;
use std::sync::Arc;

/// A test-generation campaign on one program.
#[derive(Debug)]
pub struct Driver<'p> {
    program: &'p Program,
    natives: &'p NativeRegistry,
    ctx: ConcolicContext,
    analysis: AnalysisResult,
    config: DriverConfig,
    /// The campaign's term/formula arena. **Per-driver, never global**:
    /// every solver instance of this driver's campaigns interns through
    /// it, and two concurrent drivers in one process get disjoint id
    /// spaces and share no interned allocations.
    arena: Arc<LogicArena>,
    /// The program lowered to bytecode, compiled once per driver; every
    /// campaign run executes on it. `Err` holds the static checker's
    /// message for a program it rejected: campaigns on that program are
    /// refused ([`CampaignEvent::ProgramRejected`]).
    compiled: Result<CompiledProgram, String>,
}

impl<'p> Driver<'p> {
    /// Creates a driver for a program.
    pub fn new(
        program: &'p Program,
        natives: &'p NativeRegistry,
        config: DriverConfig,
    ) -> Driver<'p> {
        let compiled =
            hotg_lang::compile(program, natives).map_err(|CompileError::Check(e)| e.to_string());
        Driver {
            program,
            natives,
            ctx: ConcolicContext::new(program),
            analysis: analyze(program),
            config,
            arena: Arc::new(LogicArena::new()),
            compiled,
        }
    }

    /// The symbolic context (signature, input variables).
    pub fn ctx(&self) -> &ConcolicContext {
        &self.ctx
    }

    /// The static analysis results used as the search oracle.
    pub fn analysis(&self) -> &AnalysisResult {
        &self.analysis
    }

    /// The driver-owned term/formula arena.
    pub fn arena(&self) -> &Arc<LogicArena> {
        &self.arena
    }

    /// The once-per-driver compiled program the campaign VMs execute;
    /// `None` when the static checker rejected the program, so every
    /// campaign on it is refused.
    pub fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled.as_ref().ok()
    }

    /// Runs a campaign with the given technique and returns its report.
    pub fn run(&self, technique: Technique) -> Report {
        self.run_with_sink(technique, &mut NullSink)
    }

    /// Runs a campaign, streaming every [`CampaignEvent`] into `sink`
    /// (in addition to the report fold). The returned [`Report`] is
    /// exactly the fold of the emitted stream, plus wall-clock
    /// [`Report::elapsed`].
    ///
    /// [`CampaignEvent`]: crate::CampaignEvent
    pub fn run_with_sink(&self, technique: Technique, sink: &mut dyn EventSink) -> Report {
        let start = std::time::Instant::now();
        let mut report = match self.engine() {
            Ok(engine) => {
                engine
                    .run(strategy::for_technique(technique), sink, Vec::new())
                    .0
            }
            Err(reason) => self.refuse(technique, reason, sink),
        };
        report.elapsed = start.elapsed();
        report
    }

    /// The campaign engine over the compiled program, or the checker's
    /// message when the program was rejected.
    fn engine(&self) -> Result<Engine<'_>, &str> {
        let compiled = self.compiled.as_ref().map_err(String::as_str)?;
        Ok(Engine {
            program: self.program,
            natives: self.natives,
            ctx: &self.ctx,
            analysis: &self.analysis,
            config: &self.config,
            arena: &self.arena,
            compiled,
            exec: Default::default(),
        })
    }

    /// The whole campaign on a rejected program: started, refused,
    /// finished. No run executes and no trace is written.
    fn refuse(&self, technique: Technique, reason: &str, sink: &mut dyn EventSink) -> Report {
        let events = [
            CampaignEvent::CampaignStarted {
                technique,
                program: self.program.name.clone(),
                branch_sites: self.program.branch_count,
            },
            CampaignEvent::ProgramRejected {
                reason: reason.to_string(),
            },
            CampaignEvent::CampaignFinished,
        ];
        for event in &events {
            let _ = sink.emit(event);
        }
        fold_report(&events)
    }

    /// Resumes an interrupted campaign from the durable trace configured
    /// in [`DriverConfig::trace`] and returns the finished report —
    /// bit-identical (modulo wall-clock [`Report::elapsed`] and the
    /// thread-schedule-dependent cache hit/miss split) to the report an
    /// uninterrupted run would have produced.
    pub fn resume(&self, technique: Technique) -> Result<Report, ResumeError> {
        self.resume_with_sink(technique, &mut NullSink)
            .map(|r| r.report)
    }

    /// [`resume`](Driver::resume), plus a [`RecoveryReport`] describing
    /// what was salvaged from the trace file, and with every event of
    /// the resumed campaign — replayed and fresh alike — streamed into
    /// `sink`.
    ///
    /// Recovery salvages the longest valid prefix of the trace (frames
    /// are length- and CRC32-checked; a torn tail or corrupt frame ends
    /// the prefix and is reported, never panicked on). The header is
    /// refused with [`ResumeError::HeaderMismatch`] unless its
    /// technique, program digest, and [`DriverConfig::resume_digest`]
    /// all match this driver — a salvaged prefix only replays
    /// deterministically under the configuration that recorded it. A
    /// trace that already ends in `CampaignFinished` short-circuits: the
    /// report is folded straight from the recorded events and the file
    /// is left untouched. A sharded campaign (`DriverConfig::shards` > 1)
    /// otherwise resumes from its per-shard traces, each salvaged and
    /// header-checked the same way; the counts in the [`RecoveryReport`]
    /// are then summed over the shards. A rejected program has no trace
    /// to resume: it is refused as by [`run`](Driver::run), with an
    /// empty [`RecoveryReport`].
    pub fn resume_with_sink(
        &self,
        technique: Technique,
        sink: &mut dyn EventSink,
    ) -> Result<Resumed, ResumeError> {
        let start = std::time::Instant::now();
        let tc = self
            .config
            .trace
            .as_ref()
            .ok_or(ResumeError::NoTraceConfigured)?;
        let Ok(engine) = self.engine() else {
            return Ok(Resumed {
                report: self.run_with_sink(technique, sink),
                recovery: RecoveryReport::default(),
            });
        };
        let shards = self.config.shards.max(1);
        let cdigest = self.config.resume_digest();
        let canonical = match recover(&tc.path) {
            Ok(rec) => {
                self.check_header(&rec.header, technique, cdigest)?;
                Some(rec)
            }
            // A sharded campaign's real checkpoints are its shard
            // traces: a canonical trace that is lost or unreadable only
            // forfeits the complete-trace fast path below.
            Err(_) if shards > 1 => None,
            Err(e) => return Err(e),
        };
        if let Some(rec) = canonical.as_ref().filter(|rec| rec.complete) {
            // The trace records a finished campaign: the report is its
            // fold. Nothing re-runs and the file is left untouched.
            let mut report = fold_report(&rec.events);
            for event in &rec.events {
                let _ = sink.emit(event);
            }
            report.elapsed = start.elapsed();
            return Ok(Resumed {
                report,
                recovery: RecoveryReport {
                    frames_salvaged: rec.events.len(),
                    events_replayed: rec.events.len(),
                    bytes_discarded: rec.bytes_discarded,
                    frames_discarded: rec.frames_discarded,
                    complete: true,
                    damage: rec.damage.clone(),
                },
            });
        }
        // The checkpoints replay works from: the canonical trace at
        // N = 1; at N > 1 the shard traces, each recovered and
        // header-checked on its own (an incomplete canonical trace is
        // rewritten live). A shard whose trace is lost outright re-runs
        // live; a header mismatch is refused — it means the trace
        // belongs to a different campaign shape.
        let recs: Vec<Option<Recovery>> = if shards == 1 {
            vec![canonical]
        } else {
            (0..shards)
                .map(|i| match recover(&shard_trace_path(&tc.path, i, shards)) {
                    Ok(rec) => self
                        .check_header(&rec.header, technique, shard_digest(cdigest, i, shards))
                        .map(|()| Some(rec)),
                    Err(ResumeError::Io(_)) => Ok(None),
                    Err(e) => Err(e),
                })
                .collect::<Result<_, _>>()?
        };
        let mut recovery = RecoveryReport::default();
        let resume = recs
            .into_iter()
            .map(|rec| {
                rec.map(|rec| {
                    recovery.frames_salvaged += rec.events.len();
                    recovery.bytes_discarded += rec.bytes_discarded;
                    recovery.frames_discarded += rec.frames_discarded;
                    recovery.damage = recovery.damage.take().or(rec.damage);
                    ResumeData {
                        events: rec.events,
                        ends: rec.ends,
                        header_end: rec.header_end,
                    }
                })
            })
            .collect();
        let (mut report, events_replayed) =
            engine.run(strategy::for_technique(technique), sink, resume);
        report.elapsed = start.elapsed();
        recovery.events_replayed = events_replayed;
        Ok(Resumed { report, recovery })
    }

    /// Refuses a trace recorded by a different campaign: its technique,
    /// program digest and config digest (`config_digest`: the resume
    /// digest, or a shard's derived one) must all match.
    fn check_header(
        &self,
        header: &TraceHeader,
        technique: Technique,
        config_digest: u64,
    ) -> Result<(), ResumeError> {
        let mismatch = |field, expected, found| {
            Err(ResumeError::HeaderMismatch {
                field,
                expected,
                found,
            })
        };
        if header.technique != technique {
            return mismatch(
                "technique",
                header.technique.name().to_string(),
                technique.name().to_string(),
            );
        }
        let pdigest = program_digest(self.program);
        if header.program_digest != pdigest {
            return mismatch(
                "program_digest",
                format!("{:016x}", header.program_digest),
                format!("{pdigest:016x}"),
            );
        }
        if header.config_digest != config_digest {
            return mismatch(
                "config_digest",
                format!("{:016x}", header.config_digest),
                format!("{config_digest:016x}"),
            );
        }
        Ok(())
    }
}

/// Result of [`Driver::resume_with_sink`]: the finished report plus a
/// summary of what trace recovery salvaged and replay consumed.
#[derive(Debug)]
pub struct Resumed {
    /// The finished campaign report.
    pub report: Report,
    /// What was salvaged from the trace and how much of it replayed.
    pub recovery: RecoveryReport,
}
