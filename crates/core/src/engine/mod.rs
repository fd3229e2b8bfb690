//! The strategy-pluggable campaign engine.
//!
//! The engine owns everything a test-generation campaign shares across
//! techniques — the generational search ([`shard`]), the
//! degradation ladder ([`ladder`]), chaos injection, panic isolation,
//! escalated-budget retries, and the merge of worker results — while
//! the technique-specific behavior (path-constraint production, flip
//! query construction, probe/multi-step handling) lives behind the
//! [`Strategy`](crate::strategy::Strategy) trait.
//!
//! Instead of mutating [`Report`] counters in place, the engine emits a
//! [`CampaignEvent`] for every observable fact, in deterministic merge
//! order, and builds its own report by folding that stream (see
//! [`crate::events`]). The caller's [`EventSink`] observes the very
//! same stream.
//!
//! # Parallel generational search
//!
//! One loop ([`shard`]) runs the directed search for every shard count;
//! a single-shard campaign is its N = 1 case. Each generation is
//! processed in two phases. First, its targets are filtered through the
//! dedup set in deterministic order; then every surviving target is
//! processed as a *pure function* of the target and a snapshot of the
//! sample table taken at generation start — solver queries, strategy
//! interpretation, and probe executions all run against thread-local
//! state. [`DriverConfig::shards`] splits the targets across shard
//! passes (one scoped thread per shard when N > 1), and each pass runs
//! its targets on a `std::thread::scope` pool of [`DriverConfig::threads`]
//! workers pulling off an atomic cursor; at N = 1 with one thread the
//! pass runs inline, one target per merge step. The per-target outcomes
//! are merged back into the report, the sample table, and the next
//! generation's worklist **in target order** on the calling thread.
//! Because the per-target computation never observes shared mutable
//! state and the merge order is fixed, the resulting [`Report`] is
//! identical for every shard and thread count (only the solver-cache
//! hit/miss counters can differ — racing workers may each miss a key one
//! of them is about to fill, but the cached values are pure functions of
//! the key).

pub(crate) mod ladder;
pub(crate) mod merge;
pub(crate) mod outcome;
pub(crate) mod resume;
pub(crate) mod shard;
pub(crate) mod state;

use crate::chaos::{chaos_key, injected_fault, FaultCounters, FaultSite};
use crate::config::DriverConfig;
use crate::events::{CampaignEvent, EventSink};
use crate::report::{Origin, Report, RunRecord};
use crate::strategy::{Strategy, TargetCx};
use crate::trace::{
    program_digest, shard_digest, shard_trace_path, TraceConfig, TraceErrorPolicy, TraceHeader,
    TraceWriter,
};
use hotg_analysis::AnalysisResult;
use hotg_concolic::{
    diverged, execute_compiled_profiled, ConcolicContext, ConcolicRun, ExecProfile,
};
use hotg_lang::{BranchId, CompiledProgram, InputVector, NativeRegistry, Program};
use hotg_logic::LogicArena;
use hotg_logic::{Formula, Var};
use hotg_solver::{Deadline, Samples, SmtResult, SmtSolver, ValidityChecker, ValidityOutcome};
use outcome::{path_key, scale_budget, Target, TargetOutcome, WorkerRun};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared campaign engine: borrows the program, the symbolic
/// context, the static-analysis oracle, and the configuration from the
/// [`Driver`](crate::Driver), and runs one campaign per call.
pub(crate) struct Engine<'a> {
    pub(crate) program: &'a Program,
    pub(crate) natives: &'a NativeRegistry,
    pub(crate) ctx: &'a ConcolicContext,
    pub(crate) analysis: &'a AnalysisResult,
    pub(crate) config: &'a DriverConfig,
    /// The campaign's term/formula arena (owned by the driver, never
    /// global): all solver instances of this campaign intern through it.
    pub(crate) arena: &'a Arc<LogicArena>,
    /// The driver's once-compiled program: every concrete and concolic
    /// run of the campaign executes on it.
    pub(crate) compiled: &'a CompiledProgram,
    /// Execution-layer telemetry for this campaign, summed across worker
    /// threads and announced once as [`CampaignEvent::ExecStats`].
    pub(crate) exec: ExecCounters,
}

/// Atomic execution-telemetry counters: workers bump them from run
/// helpers ([`Engine::run_concrete`], [`Engine::execute_concolic`]); the
/// totals are announcement-only (never folded into the report), so the
/// relaxed ordering is fine.
#[derive(Debug, Default)]
pub(crate) struct ExecCounters {
    /// Bytecode instructions retired across all VM runs.
    pub(crate) instructions: AtomicU64,
    /// Runs executed on the bytecode VMs (concrete or concolic).
    pub(crate) vm_runs: AtomicU64,
}

/// The salvaged event prefix a resumed campaign replays: the engine's
/// deterministic re-derivation of the campaign is matched against the
/// recorded events one by one.
pub(crate) struct ResumeData {
    /// The salvaged events, in recorded order.
    pub(crate) events: Vec<CampaignEvent>,
    /// Byte offset just past each event's frame in the trace file.
    pub(crate) ends: Vec<u64>,
    /// Byte offset just past the header frame.
    pub(crate) header_end: u64,
}

/// State of the durable trace file behind the [`Emitter`].
enum Durable {
    /// No durable trace configured (or the writer was disabled by an
    /// I/O error under the drop-and-count policy).
    Off,
    /// Live appender: every emitted event becomes one durable frame.
    Writing(TraceWriter),
    /// Resume replay in flight: the matched prefix is already on disk,
    /// so nothing is written. On replay abandonment the file is
    /// truncated at the last consumed frame boundary and this becomes
    /// `Writing`.
    Pending {
        config: TraceConfig,
        ends: Vec<u64>,
        header_end: u64,
    },
}

/// Replay cursor over the salvaged prefix of a recorded campaign.
struct Replay {
    events: Vec<CampaignEvent>,
    pos: usize,
}

/// The engine's event funnel: every event is folded into the report
/// under construction, then written to the durable trace (unless a
/// resume replay says it is already on disk) and forwarded to the
/// caller's sink. Emission happens on the merge thread only.
///
/// Sink error policy (drop-and-count): the first `Err` from any sink
/// permanently disables that sink, is tallied into `sink_errors`, and
/// the campaign continues. The durable trace can opt into
/// [`TraceErrorPolicy::FailFast`] instead, which additionally trips a
/// flag the directed search checks at merge boundaries.
pub(crate) struct Emitter<'s> {
    pub(crate) report: Report,
    /// The caller's sink (`None` for shard streams, or once it failed).
    external: Option<&'s mut dyn EventSink>,
    durable: Durable,
    replay: Option<Replay>,
    /// Chaos plan handed to writers opened mid-campaign (resume).
    plan: Option<crate::chaos::FaultPlan>,
    policy: TraceErrorPolicy,
    /// Sink I/O errors absorbed so far (all sinks).
    sink_errors: usize,
    fail_fast: bool,
    /// Trace-fault counters absorbed from writers that were disabled.
    absorbed_short_writes: usize,
    absorbed_fsync_fails: usize,
    /// Recorded events consumed by the replay before it ended.
    replayed: usize,
}

impl Emitter<'_> {
    /// Events the `EveryGeneration` fsync policy makes durable on.
    fn sync_point(event: &CampaignEvent) -> bool {
        matches!(
            event,
            CampaignEvent::GenerationStarted { .. } | CampaignEvent::CampaignFinished
        )
    }

    pub(crate) fn emit(&mut self, event: CampaignEvent) {
        self.report.fold(&event);
        if let Some(replay) = &mut self.replay {
            if replay.pos < replay.events.len() && replay.events[replay.pos] == event {
                // The engine re-derived exactly what the trace recorded:
                // consume it. The frame is already on disk, so only the
                // non-durable sinks observe it.
                replay.pos += 1;
                self.forward(&event);
                return;
            }
            // Divergence from the recorded prefix (normally the recorded
            // tail of a crashed campaign, e.g. stale end-of-run stats):
            // truncate the trace at the last consumed frame and go live.
            self.abandon_replay();
        }
        self.write_durable(&event);
        self.forward(&event);
    }

    /// Forwards one event to the caller's sink, absorbing an error
    /// under the drop-and-count policy.
    fn forward(&mut self, event: &CampaignEvent) {
        if let Some(external) = &mut self.external {
            if external.emit(event).is_err() {
                self.sink_errors += 1;
                self.external = None;
            }
        }
    }

    fn write_durable(&mut self, event: &CampaignEvent) {
        let Durable::Writing(w) = &mut self.durable else {
            return;
        };
        if w.write_event(event, Emitter::sync_point(event)).is_err() {
            self.sink_errors += 1;
            if self.policy == TraceErrorPolicy::FailFast {
                self.fail_fast = true;
            }
            self.kill_writer();
        }
    }

    /// Disables the durable writer, keeping its injected-fault counters.
    fn kill_writer(&mut self) {
        if let Durable::Writing(w) = std::mem::replace(&mut self.durable, Durable::Off) {
            self.absorbed_short_writes += w.injected_short_writes();
            self.absorbed_fsync_fails += w.injected_fsync_fails();
        }
    }

    /// Ends the replay: truncates the trace file at the boundary of the
    /// last consumed frame and reopens it for live appending.
    fn abandon_replay(&mut self) {
        let Some(replay) = self.replay.take() else {
            return;
        };
        self.replayed = replay.pos;
        let Durable::Pending {
            config,
            ends,
            header_end,
        } = std::mem::replace(&mut self.durable, Durable::Off)
        else {
            return;
        };
        let end = if replay.pos == 0 {
            header_end
        } else {
            ends[replay.pos - 1]
        };
        match TraceWriter::append(
            &config.path,
            end,
            replay.pos as u64,
            config.fsync,
            self.plan.clone(),
            config.chaos_kill_at_event,
        ) {
            Ok(w) => self.durable = Durable::Writing(w),
            Err(e) => {
                eprintln!(
                    "hotg: cannot reopen durable trace {}: {e}",
                    config.path.display()
                );
                self.sink_errors += 1;
                if self.policy == TraceErrorPolicy::FailFast {
                    self.fail_fast = true;
                }
            }
        }
    }

    /// The not-yet-consumed recorded events (empty when no replay).
    pub(crate) fn replay_rest(&self) -> &[CampaignEvent] {
        match &self.replay {
            Some(r) => &r.events[r.pos..],
            None => &[],
        }
    }

    /// Whether a trace I/O error under [`TraceErrorPolicy::FailFast`]
    /// asked the campaign to stop at the next merge boundary.
    pub(crate) fn fail_fast_tripped(&self) -> bool {
        self.fail_fast
    }

    /// Total injected trace faults so far (disabled + live writers).
    fn trace_fault_counts(&self) -> (usize, usize) {
        let (mut sw, mut ff) = (self.absorbed_short_writes, self.absorbed_fsync_fails);
        if let Durable::Writing(w) = &self.durable {
            sw += w.injected_short_writes();
            ff += w.injected_fsync_fails();
        }
        (sw, ff)
    }

    /// Closes the durable trace. Best-effort: the report is final by
    /// now (it is folded per event), so close-time errors are reported
    /// on stderr but never mutate the report.
    fn finish(&mut self) {
        if let Some(replay) = self.replay.take() {
            // The whole campaign matched the recorded prefix (complete
            // trace): the file is already exactly right, leave it alone.
            self.replayed = replay.pos;
            return;
        }
        if let Durable::Writing(w) = &mut self.durable {
            if let Err(e) = w.finish() {
                eprintln!("hotg: durable trace close failed: {e}");
            }
        }
    }

    /// Closes a finished shard emitter and folds its I/O accounting into
    /// this (canonical) emitter: absorbed sink errors, injected
    /// trace-fault counters, replay consumption, and a tripped fail-fast
    /// flag all surface through the canonical campaign tail. Digest-safe
    /// by construction — none of these counters is a campaign result.
    pub(crate) fn absorb_shard(&mut self, mut shard: Emitter<'_>) {
        shard.finish();
        let (short_writes, fsync_fails) = shard.trace_fault_counts();
        self.absorbed_short_writes += short_writes;
        self.absorbed_fsync_fails += fsync_fails;
        self.sink_errors += shard.sink_errors;
        self.replayed += shard.replayed;
        if shard.fail_fast {
            self.fail_fast = true;
        }
    }
}

impl<'a> Engine<'a> {
    /// Opens an event funnel on the canonical stream (`shard: None`, fed
    /// to `external`) or on shard `i`'s stream (`Some(i)`), then emits
    /// the campaign preamble. The durable trace is created with a fresh
    /// header — for a shard, at the shard path with the
    /// [`shard_digest`]-derived config digest — or, when `resume`
    /// carries a salvaged prefix, left in place behind a replay cursor.
    /// A trace that cannot be created counts as a sink error (and trips
    /// fail-fast under that policy).
    fn open_emitter<'s>(
        &self,
        strategy: &dyn Strategy,
        shard: Option<usize>,
        resume: Option<ResumeData>,
        external: Option<&'s mut dyn EventSink>,
    ) -> Emitter<'s> {
        let policy = self
            .config
            .trace
            .as_ref()
            .map(|t| t.on_error)
            .unwrap_or_default();
        let shards = self.config.shards;
        let config = self.config.trace.as_ref().map(|tc| TraceConfig {
            path: match shard {
                Some(i) => shard_trace_path(&tc.path, i, shards),
                None => tc.path.clone(),
            },
            // The kill-switch chaos arms on the shard the plan names, or
            // on the canonical trace when it names none.
            chaos_kill_at_event: tc
                .chaos_kill_at_event
                .filter(|_| tc.chaos_kill_shard == shard),
            chaos_kill_shard: None,
            ..tc.clone()
        });
        let mut startup_errors = 0;
        let (durable, replay) = match (config, resume) {
            (Some(config), Some(rd)) => (
                Durable::Pending {
                    config,
                    ends: rd.ends,
                    header_end: rd.header_end,
                },
                Some(Replay {
                    events: rd.events,
                    pos: 0,
                }),
            ),
            (Some(config), None) => {
                let digest = self.config.resume_digest();
                let header = TraceHeader {
                    program: self.program.name.clone(),
                    program_digest: program_digest(self.program),
                    config_digest: shard.map_or(digest, |i| shard_digest(digest, i, shards)),
                    technique: strategy.technique(),
                    seed: self.config.seed,
                    fsync: config.fsync,
                };
                match TraceWriter::create(
                    &config.path,
                    &header,
                    config.fsync,
                    self.config.fault_plan.clone(),
                    config.chaos_kill_at_event,
                ) {
                    Ok(w) => (Durable::Writing(w), None),
                    Err(e) => {
                        eprintln!(
                            "hotg: cannot create durable trace {}: {e}",
                            config.path.display()
                        );
                        startup_errors = 1;
                        (Durable::Off, None)
                    }
                }
            }
            (None, _) => (Durable::Off, None),
        };
        let mut em = Emitter {
            report: Report::empty(),
            external,
            durable,
            replay,
            plan: self.config.fault_plan.clone(),
            policy,
            sink_errors: startup_errors,
            fail_fast: startup_errors > 0 && policy == TraceErrorPolicy::FailFast,
            absorbed_short_writes: 0,
            absorbed_fsync_fails: 0,
            replayed: 0,
        };
        em.emit(CampaignEvent::CampaignStarted {
            technique: strategy.technique(),
            program: self.program.name.clone(),
            branch_sites: self.program.branch_count,
        });
        em
    }

    /// Runs one campaign under `strategy`, streaming events into the
    /// report fold, the configured traces, and `external`. `resume`
    /// carries the salvaged prefixes of the campaign's checkpoints when
    /// it resumes (empty otherwise): the canonical trace's at N = 1,
    /// shard `i`'s at index `i` when N > 1 (`None` for a shard whose
    /// trace was lost — that shard re-runs live). Returns the report
    /// plus the number of recorded events the replays consumed.
    pub(crate) fn run(
        &self,
        strategy: &dyn Strategy,
        external: &mut dyn EventSink,
        resume: Vec<Option<ResumeData>>,
    ) -> (Report, usize) {
        let (canonical, shard_resume) = if self.config.shards > 1 {
            (None, resume)
        } else {
            (resume.into_iter().next().flatten(), Vec::new())
        };
        let mut em = self.open_emitter(strategy, None, canonical, Some(external));
        if strategy.is_directed() {
            self.directed(strategy, &mut em, shard_resume);
        } else {
            // The random baseline has no branch-flip targets to
            // partition; `shards` is a no-op for it.
            self.random_campaign(&mut em);
        }
        // Trace-fault and sink-error accounting, announced before the
        // closing stats so `[ExecStats, CampaignFinished]` stays the
        // stream's invariant tail. Snapshot counts: a failure while
        // writing these very frames is absorbed best-effort (stderr at
        // close) — the report is never mutated after its fold.
        let (short_writes, fsync_fails) = em.trace_fault_counts();
        if short_writes > 0 {
            em.emit(CampaignEvent::FaultInjected {
                site: FaultSite::TraceShortWrite,
                count: short_writes,
            });
        }
        if fsync_fails > 0 {
            em.emit(CampaignEvent::FaultInjected {
                site: FaultSite::TraceFsyncFail,
                count: fsync_fails,
            });
        }
        if em.sink_errors > 0 {
            em.emit(CampaignEvent::SinkErrors {
                count: em.sink_errors,
            });
        }
        em.emit(CampaignEvent::ExecStats {
            instructions: self.exec.instructions.load(Ordering::Relaxed),
            compiled_blocks: self.compiled.blocks.len(),
            vm_runs: self.exec.vm_runs.load(Ordering::Relaxed),
        });
        em.emit(CampaignEvent::CampaignFinished);
        em.finish();
        (em.report, em.replayed)
    }

    /// One concrete run on the bytecode VM.
    pub(crate) fn run_concrete(
        &self,
        inputs: &InputVector,
    ) -> (hotg_lang::Outcome, hotg_lang::Trace) {
        let (outcome, trace, retired) =
            hotg_lang::run_compiled_counted(self.compiled, inputs, self.config.fuel);
        self.exec.instructions.fetch_add(retired, Ordering::Relaxed);
        self.exec.vm_runs.fetch_add(1, Ordering::Relaxed);
        (outcome, trace)
    }

    /// One concolic run on the shadow VM.
    pub(crate) fn execute_concolic(
        &self,
        inputs: &InputVector,
        profile: ExecProfile,
    ) -> ConcolicRun {
        let run =
            execute_compiled_profiled(self.ctx, self.compiled, inputs, self.config.fuel, profile);
        self.exec
            .instructions
            .fetch_add(run.instructions, Ordering::Relaxed);
        self.exec.vm_runs.fetch_add(1, Ordering::Relaxed);
        run
    }

    /// The campaign-wide wall-clock cutoff, fixed at campaign start.
    pub(crate) fn campaign_end(&self) -> Deadline {
        match self.config.campaign_deadline {
            Some(d) => Deadline::after(d),
            None => Deadline::NONE,
        }
    }

    fn random_inputs(&self, rng: &mut StdRng) -> Vec<i64> {
        let (lo, hi) = self.config.random_range;
        (0..self.program.input_width())
            .map(|_| rng.gen_range(lo..=hi))
            .collect()
    }

    pub(crate) fn initial_inputs(&self, rng: &mut StdRng) -> Vec<i64> {
        self.config
            .initial_inputs
            .clone()
            .unwrap_or_else(|| self.random_inputs(rng))
    }

    /// Blackbox random testing baseline (the only non-directed
    /// strategy: no symbolic evaluation, no targets, no solver).
    fn random_campaign(&self, em: &mut Emitter<'_>) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let campaign_end = self.campaign_end();
        while !self.should_stop(em, campaign_end) {
            let i = em.report.runs.len();
            let inputs = if i == 0 {
                self.initial_inputs(&mut rng)
            } else {
                self.random_inputs(&mut rng)
            };
            let (outcome, trace) = self.run_concrete(&InputVector::new(inputs.clone()));
            let outcome = if self.chaos_interp_fault(&inputs) {
                em.emit(CampaignEvent::FaultInjected {
                    site: FaultSite::InterpFault,
                    count: 1,
                });
                hotg_lang::Outcome::RuntimeFault(injected_fault())
            } else {
                outcome
            };
            let record = RunRecord {
                inputs,
                outcome,
                origin: if i == 0 {
                    Origin::Initial
                } else {
                    Origin::Random
                },
                diverged: None,
                path: trace.branches.clone(),
            };
            em.emit(CampaignEvent::RunExecuted {
                record: Box::new(record),
            });
        }
    }

    /// Executes one concolic run under `profile` and expands its
    /// branch-flip targets. Pure with respect to the campaign state:
    /// safe to call from worker threads; the result is folded in by the
    /// coordinator's in-order merge.
    pub(crate) fn execute_run(
        &self,
        inputs: Vec<i64>,
        origin: Origin,
        expected: Option<&[(BranchId, bool)]>,
        profile: ExecProfile,
    ) -> WorkerRun {
        let run = self.execute_concolic(&InputVector::new(inputs.clone()), profile);
        // Chaos: replace the outcome with a synthetic interpreter fault.
        // The divergence flag is cleared (an injected fault is not a
        // soundness verdict on the technique) and the run's branch-flip
        // targets are dropped, as a genuinely faulting run would have
        // stopped before producing them.
        let injected = self.chaos_interp_fault(&inputs);
        let (outcome, div) = if injected {
            (hotg_lang::Outcome::RuntimeFault(injected_fault()), None)
        } else {
            (
                run.outcome.clone(),
                expected.map(|e| diverged(e, &run.trace.branches)),
            )
        };
        let record = RunRecord {
            inputs: inputs.clone(),
            outcome,
            origin,
            diverged: div,
            path: run.trace.branches.clone(),
        };
        let mut children = Vec::new();
        let mut pruned_static = 0;
        let expand: Vec<usize> = if injected {
            Vec::new()
        } else {
            run.pc.branch_indices()
        };
        for j in expand {
            // A constraint that folded to `true` has no input dependence:
            // its negation is trivially infeasible, so it is not a target.
            if run.pc.entries[j].constraint == Formula::True {
                continue;
            }
            // Static oracle: if the analysis proves the flipped direction
            // can never execute (constant branch condition), skip the
            // target without spending a solver/validity query on it.
            if self.config.static_pruning {
                let (id, taken) = run.pc.entries[j].branch.expect("branch entry");
                if self.analysis.flip_infeasible(id, !taken) {
                    pruned_static += 1;
                    continue;
                }
            }
            children.push(Target {
                parent_inputs: inputs.clone(),
                pc: run.pc.clone(),
                j,
                parent_samples: run.samples.clone(),
            });
        }
        WorkerRun {
            record,
            samples: run.samples,
            children,
            pruned_static,
            injected_fault: injected,
        }
    }

    /// Chaos: should this run's outcome become an injected fault?
    fn chaos_interp_fault(&self, inputs: &[i64]) -> bool {
        self.config
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.roll(FaultSite::InterpFault, chaos_key(inputs)))
    }

    /// Chaos: decides whether the solver/validity query identified by
    /// `key` is forced to fail. An injected error wins over an injected
    /// `Unknown` when both fire.
    pub(crate) fn chaos_solver(
        &self,
        out: &mut TargetOutcome,
        key: u64,
    ) -> Option<outcome::Checked> {
        let plan = self.config.fault_plan.as_ref()?;
        if plan.roll(FaultSite::SolverErr, key) {
            out.faults.solver_errs += 1;
            return Some(outcome::Checked::Errored);
        }
        if plan.roll(FaultSite::SolverUnknown, key) {
            out.faults.solver_unknowns += 1;
            return Some(outcome::Checked::Unknown);
        }
        None
    }

    /// Chaos: decides whether a probe run's observed samples are lost.
    pub(crate) fn chaos_probe(&self, out: &mut TargetOutcome, key: u64) -> bool {
        let fired = self
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.roll(FaultSite::ProbeFail, key));
        if fired {
            out.faults.probe_failures += 1;
        }
        fired
    }

    /// Merges solved/strategy values over the parent inputs: DART
    /// generates "variants of the previous inputs" (§1), so inputs the
    /// solver left unconstrained keep their old values.
    pub(crate) fn merge_inputs(&self, parent: &[i64], values: &BTreeMap<Var, i64>) -> Vec<i64> {
        let mut out = parent.to_vec();
        for (i, v) in self.ctx.input_vars().iter().enumerate() {
            if let Some(val) = values.get(v) {
                out[i] = *val;
            }
        }
        out
    }

    /// One escalated-budget retry of an `Unknown` satisfiability verdict
    /// (`DriverConfig::retry_escalation`). Runs on a detached solver:
    /// the inflated-budget verdict must not leak into the shared caches,
    /// where it would make other targets' outcomes depend on whether this
    /// retry ran first.
    pub(crate) fn escalated_smt(
        &self,
        smt: &SmtSolver,
        alt: &Formula,
        out: &mut TargetOutcome,
    ) -> Option<SmtResult> {
        let factor = self.config.retry_escalation;
        if factor <= 1.0 {
            return None;
        }
        let mut cfg = *smt.config();
        cfg.total_node_budget = scale_budget(cfg.total_node_budget, factor);
        cfg.lia.node_budget = scale_budget(cfg.lia.node_budget, factor);
        out.budget_escalations += 1;
        out.solver_calls += 1;
        smt.detached(cfg).check(alt).ok()
    }

    /// Escalated-budget retry of an `Unknown` validity verdict; same
    /// detachment rationale as [`Engine::escalated_smt`].
    pub(crate) fn escalated_validity(
        &self,
        validity: &ValidityChecker,
        samples: &Samples,
        extra: &Formula,
        alt: &Formula,
        out: &mut TargetOutcome,
    ) -> Option<ValidityOutcome> {
        let factor = self.config.retry_escalation;
        if factor <= 1.0 {
            return None;
        }
        let mut cfg = *validity.config();
        cfg.smt.total_node_budget = scale_budget(cfg.smt.total_node_budget, factor);
        cfg.smt.lia.node_budget = scale_budget(cfg.smt.lia.node_budget, factor);
        out.budget_escalations += 1;
        out.solver_calls += 1;
        validity
            .detached(cfg)
            .check_with(self.ctx.input_vars(), samples, extra, alt)
            .ok()
    }

    /// Processes one target against the generation snapshot, with the
    /// worker's panic isolated: a panic (organic or injected) abandons
    /// only this target, which is counted as *faulted* instead of
    /// aborting the campaign. The partial outcome of a panicked worker is
    /// discarded wholesale, so the merged report never depends on how far
    /// the worker got before unwinding.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_target(
        &self,
        strategy: &dyn Strategy,
        job: &outcome::Job,
        snapshot: &Samples,
        summaries: Option<&crate::summaries::SummaryTable>,
        smt: &SmtSolver,
        validity: &ValidityChecker,
        campaign_end: Deadline,
    ) -> TargetOutcome {
        let tkey = path_key(&job.expected);
        let inject_panic = self
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.roll(FaultSite::WorkerPanic, tkey));
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("chaos: injected worker panic");
            }
            let mut out = TargetOutcome::default();
            // Per-target wall-clock cutoff, bounded by the campaign
            // deadline, threaded into the solver stack through
            // reconfigured clones that share the campaign's caches.
            // Deadline-induced `Unknown`s are never cached (see
            // `SmtSolver::check`), so an expired target cannot poison
            // another target's verdict.
            let deadline = match self.config.target_deadline {
                Some(d) => Deadline::after(d).earliest(campaign_end),
                None => campaign_end,
            };
            let (smt_local, validity_local);
            let (smt, validity) = if deadline.is_set() {
                let mut vcfg = *validity.config();
                vcfg.smt.deadline = deadline;
                smt_local = smt.reconfigured(vcfg.smt);
                validity_local = validity.reconfigured(vcfg);
                (&smt_local, &validity_local)
            } else {
                (smt, validity)
            };
            let cx = TargetCx {
                engine: self,
                snapshot,
                summaries,
                smt,
                validity,
                tkey,
            };
            strategy.process_target(&cx, job, &mut out);
            out
        }));
        match result {
            Ok(out) => out,
            Err(_) => TargetOutcome {
                faulted: true,
                faults: FaultCounters {
                    worker_panics: usize::from(inject_panic),
                    ..FaultCounters::default()
                },
                ..TargetOutcome::default()
            },
        }
    }
}
