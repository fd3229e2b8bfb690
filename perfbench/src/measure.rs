//! The closed-loop measurement: passes over a workload's campaigns,
//! timed from outside, checked against the reference, and reduced to
//! the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run).
//!
//! One client issues one campaign at a time and waits for its report
//! (a closed loop). A run repeats whole passes until `--seconds` of
//! wall clock have gone by and at least `Workload::min_passes` passes
//! are done; pass `p` of a run seeded `s` always receives the same
//! inputs, so the first `min_passes` passes — over which the quality
//! metrics are taken — are identical on every host. Each pass times the
//! reference kernel of [`crate::calib`] before its set-up and before each
//! campaign; the pass's end-to-end timings are put on the reference
//! host's scale with the mean of those kernel times, the traced run's
//! layer timings with the median over its passes.

use crate::calib;
use crate::check;
use crate::json;
use crate::stats;
use crate::workload::{self, Instance, Library, Workload};
use crate::{END_TO_END, PER_LAYER};
use hotg_concolic::{execute_compiled_profiled, ExecProfile};
use hotg_core::{
    fold_report, merge_shard_traces, shard_trace_path, CampaignEvent, Driver, DriverConfig,
    EventSink, NullSink, Report, SummaryConfig, SummaryTable, Technique, TraceConfig,
};
use hotg_lang::{run_compiled_counted, InputVector, Program};
use hotg_logic::{Atom, Formula, Signature, Sort, Term};
use hotg_solver::{Samples, SmtResult, SmtSolver, ValidityChecker};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Wall-clock seconds of measurement.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for scratch traces and the span file (inside the
    /// checkout the bench runs from).
    pub out_dir: PathBuf,
}

/// One reported metric; its unit and direction are in
/// [`crate::END_TO_END`] / [`crate::PER_LAYER`].
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub n: usize,
}

fn m(name: &'static str, value: f64, n: usize) -> Metric {
    Metric { name, value, n }
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// The first failed check, when `correct` is false.
    pub error: Option<String>,
    /// Operations attempted: branch-flip targets, plus each offline
    /// merge and resume.
    pub attempted: u64,
    /// Operations failed: degraded, faulted or solver-error targets, and
    /// merges or resumes that returned `Err`.
    pub failed: u64,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Passes measured.
    pub passes: usize,
    /// Campaigns measured.
    pub campaigns: usize,
    /// Tail percentile of `campaign_ms.tail` and `ttfe_ms.tail`.
    pub tail_pct: (u32, u32),
    /// Median over the run's passes of each pass's mean
    /// reference-kernel milliseconds.
    pub calib_ms: f64,
    /// Median campaign-set wall time before scaling, in seconds.
    pub raw_wall_s: f64,
    /// Where the traced run wrote its spans.
    pub spans_file: Option<PathBuf>,
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval around a call into a layer.
#[derive(Clone, Debug)]
struct Span {
    id: u64,
    parent: Option<u64>,
    campaign: Option<u64>,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder, written out once at the end of the run.
/// Spans keep the host's own clock: they are a timeline, not a metric.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        campaign: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            id,
            parent,
            campaign,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Writes every span with its self time (duration minus the part
    /// its children cover; children never overlap in a traced run,
    /// which uses one worker thread).
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.end_us - s.start_us;
            }
        }
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{}{{\"id\": {}, \"parent\": {}, \"campaign\": {}, \"name\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                if i == 0 { "  " } else { ",\n  " },
                s.id,
                opt(s.parent),
                opt(s.campaign),
                json::quote(s.name),
                s.start_us,
                s.end_us,
                (s.end_us - s.start_us - child_us[i]).max(0.0),
            ));
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

// ---------------------------------------------------------------------------
// The campaign sink
// ---------------------------------------------------------------------------

/// Observes one campaign's event stream from outside: time to first
/// error, target counts and — in a traced run — target spans, each from
/// one merge boundary to the next `TargetClosed`.
struct CampaignSink {
    start: Instant,
    traced: bool,
    first_error: Option<Duration>,
    targets: u64,
    events: u64,
    solved: u64,
    probes: u64,
    useful_probes: u64,
    intern_hits: u64,
    backend: (u64, u64),
    shard: Option<(Vec<u64>, u64, u64)>,
    /// Target spans as (start, end) instants.
    target_spans: Vec<(Instant, Instant)>,
    boundary: Instant,
    target_probes: u64,
    target_solved: bool,
}

impl CampaignSink {
    /// A sink whose clock starts now.
    fn new(traced: bool) -> CampaignSink {
        let now = Instant::now();
        CampaignSink {
            start: now,
            traced,
            first_error: None,
            targets: 0,
            events: 0,
            solved: 0,
            probes: 0,
            useful_probes: 0,
            intern_hits: 0,
            backend: (0, 0),
            shard: None,
            target_spans: Vec::new(),
            boundary: now,
            target_probes: 0,
            target_solved: false,
        }
    }
}

impl EventSink for CampaignSink {
    fn emit(&mut self, event: &CampaignEvent) -> std::io::Result<()> {
        self.events += 1;
        match event {
            CampaignEvent::RunExecuted { record }
                if self.first_error.is_none() && record.outcome.is_error() =>
            {
                self.first_error = Some(self.start.elapsed());
            }
            CampaignEvent::TargetScheduled { .. } => {
                self.targets += 1;
                if self.traced {
                    self.boundary = Instant::now();
                }
            }
            CampaignEvent::TargetSolved { .. } => {
                self.solved += 1;
                self.target_solved = true;
            }
            CampaignEvent::ProbeRun { .. } => {
                self.probes += 1;
                self.target_probes += 1;
            }
            CampaignEvent::TargetClosed { .. } => {
                if self.target_solved {
                    self.useful_probes += self.target_probes;
                }
                self.target_probes = 0;
                self.target_solved = false;
                if self.traced {
                    let now = Instant::now();
                    self.target_spans.push((self.boundary, now));
                    self.boundary = now;
                }
            }
            CampaignEvent::SolverSessionStats { intern_hits, .. } => {
                self.intern_hits += intern_hits;
            }
            CampaignEvent::BackendStats {
                queries,
                unsat_short_circuits,
                valid_short_circuits,
                sat_short_circuits,
                ..
            } => {
                self.backend.0 += queries;
                self.backend.1 += unsat_short_circuits + valid_short_circuits + sat_short_circuits;
            }
            CampaignEvent::ShardStats {
                per_shard_targets,
                exchange_samples,
                exchange_keys,
                ..
            } => {
                self.shard = Some((per_shard_targets.clone(), *exchange_samples, *exchange_keys));
            }
            _ => {}
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------------

/// Per-layer sums of a traced run, in host time. Sums are divided by
/// the pass count when reported.
#[derive(Default)]
struct Layers {
    parse_check_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    analyze_ms: Vec<f64>,
    summaries_ms: Vec<f64>,
    targets_pruned: u64,
    runs: u64,
    instructions: u64,
    concrete_s: f64,
    concolic_s: f64,
    run_us: Vec<f64>,
    generated: u64,
    divergent: u64,
    probes: u64,
    smt_queries: u64,
    smt_cold_s: f64,
    smt_warm_s: f64,
    smt_query_us: Vec<f64>,
    smt_unknown: u64,
    /// DART and random campaigns only: their wall time, and the replay
    /// time of what they executed (concolic runs for DART, concrete
    /// runs for random) and solved (the warm SMT leg).
    bypass_campaign_s: f64,
    bypass_exec_s: f64,
    bypass_smt_s: f64,
    /// Higher-order campaigns only: their wall time, and the replay time
    /// of their concolic runs and logged SMT queries.
    ho_campaign_s: f64,
    ho_replayed_s: f64,
    backend_queries: u64,
    backend_short: u64,
    validity_checks: u64,
    iof_samples: Vec<f64>,
    ho_targets: u64,
    ho_solved: u64,
    ho_probes: u64,
    ho_useful_probes: u64,
    cache_hits: u64,
    cache_lookups: u64,
    intern_hits: u64,
    targets: u64,
    generations: u64,
    width_max: u64,
    events: u64,
    target_ms: Vec<f64>,
    trace_bytes: u64,
    trace_frames: u64,
    untraced_s: f64,
    traced_s: f64,
    events_replayed: u64,
    resume_ms: Vec<f64>,
    merge_s: f64,
    exchange_samples: u64,
    exchange_keys: u64,
    imbalance: Vec<f64>,
}

/// Everything a run accumulates over its passes. End-to-end timings are
/// in reference-host time, each scaled by its own pass's mean kernel time;
/// `raw_wall_s` and the layer sums are in host time.
#[derive(Default)]
struct Acc {
    calib_ms: Vec<f64>,
    setup_s: Vec<f64>,
    pass_wall_s: Vec<f64>,
    raw_wall_s: Vec<f64>,
    campaign_ms: Vec<f64>,
    ttfe_ms: Vec<f64>,
    covered: u64,
    directions: u64,
    bugs: u64,
    attempted: u64,
    failed: u64,
    layers: Layers,
}

impl Acc {
    /// Reference-host time per unit of host time over the run so far.
    fn scale(&self) -> f64 {
        calib::REFERENCE_MS / stats::median(&self.calib_ms)
    }
}

/// Host milliseconds of a duration.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// State shared by the passes of one run.
struct Ctx<'a> {
    opts: &'a RunOptions,
    library: Library,
    spans: Option<Spans>,
    scratch: PathBuf,
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

/// Byte offsets just past each complete frame of a durable trace
/// (index 0 is the header frame): an 8-byte magic, then frames of
/// `[u32 LE length][u32 LE CRC32][payload]`. The engine exposes no frame
/// offsets, and a crash must not cut into the header frame, which
/// resume rightly refuses as a foreign file.
fn frame_ends(data: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = 8usize;
    while off + 8 <= data.len() {
        let len = u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]);
        let end = off + 8 + len as usize;
        if end > data.len() {
            break;
        }
        ends.push(end);
        off = end;
    }
    ends
}

/// The durable legs of one campaign: offline merge of the shard traces,
/// then a crash (canonical trace deleted, one shard trace cut at a
/// seeded frame) and a resume. Both results are held to the live report.
#[allow(clippy::too_many_arguments)]
fn durable_legs(
    ctx: &mut Ctx<'_>,
    acc: &mut Acc,
    driver: &Driver<'_>,
    inst: &Instance,
    live: &Report,
    base: &Path,
    campaign: u64,
    parent: Option<u64>,
) -> Result<(), String> {
    let shards = workload::DURABLE_SHARDS;
    let paths: Vec<PathBuf> = (0..shards)
        .map(|i| shard_trace_path(base, i, shards))
        .collect();
    let traced = ctx.spans.is_some();
    if traced {
        for p in std::iter::once(base).chain(paths.iter().map(PathBuf::as_path)) {
            let data = std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()))?;
            acc.layers.trace_bytes += data.len() as u64;
            acc.layers.trace_frames += frame_ends(&data).len() as u64;
        }
    }

    acc.attempted += 1;
    let t0 = Instant::now();
    let merged = merge_shard_traces(&paths);
    let t1 = Instant::now();
    if let Some(s) = ctx.spans.as_mut() {
        s.push("durable.merge", parent, Some(campaign), t0, t1);
        acc.layers.merge_s += (t1 - t0).as_secs_f64();
    }
    match merged {
        Ok(events) => check::same_report("offline merge", live, &fold_report(&events))?,
        Err(e) => {
            eprintln!("bench: offline merge failed: {e}");
            acc.failed += 1;
        }
    }

    let (shard, permille) = inst.crash;
    let victim = &paths[shard % shards];
    let data = std::fs::read(victim).map_err(|e| format!("read {}: {e}", victim.display()))?;
    let ends = frame_ends(&data);
    let events = ends.len().saturating_sub(1);
    if events >= 2 {
        let k = (events as u64 * permille / 1000).clamp(1, events as u64 - 1) as usize;
        std::fs::write(victim, &data[..ends[k]]).map_err(|e| format!("cut trace: {e}"))?;
    }
    std::fs::remove_file(base).map_err(|e| format!("delete canonical trace: {e}"))?;

    acc.attempted += 1;
    let t0 = Instant::now();
    let resumed = driver.resume_with_sink(inst.slot.technique, &mut NullSink);
    let t1 = Instant::now();
    if let Some(s) = ctx.spans.as_mut() {
        s.push("durable.resume", parent, Some(campaign), t0, t1);
        acc.layers.resume_ms.push(ms(t1 - t0));
    }
    match resumed {
        Ok(r) => {
            if traced {
                acc.layers.events_replayed += r.recovery.events_replayed as u64;
            }
            check::same_report("resumed", live, &r.report)?;
        }
        Err(e) => {
            eprintln!("bench: resume failed: {e}");
            acc.failed += 1;
        }
    }
    for p in std::iter::once(base.to_path_buf()).chain(paths) {
        let _ = std::fs::remove_file(p);
    }
    Ok(())
}

/// Replays one campaign's runs through the execution layer and its
/// logged queries through the SMT layer, outside the campaign's timing.
#[allow(clippy::too_many_arguments)]
fn replay_legs(
    ctx: &mut Ctx<'_>,
    acc: &mut Acc,
    driver: &Driver<'_>,
    config: &DriverConfig,
    technique: Technique,
    report: &Report,
    queries: &[Formula],
    campaign_s: f64,
    campaign: u64,
    parent: Option<u64>,
) {
    let l = &mut acc.layers;
    let cp = driver
        .compiled()
        .expect("bench programs pass the checker, so they compile");
    let profile = match technique {
        Technique::HigherOrderCompositional => {
            technique.symbolic_mode().map(ExecProfile::summarized)
        }
        t => t.symbolic_mode().map(ExecProfile::new),
    };
    let inputs: Vec<InputVector> = report
        .runs
        .iter()
        .map(|r| InputVector::new(r.inputs.clone()))
        .collect();

    let t0 = Instant::now();
    for iv in &inputs {
        let t = Instant::now();
        let (_, _, n) = run_compiled_counted(cp, iv, config.fuel);
        l.run_us.push(t.elapsed().as_secs_f64() * 1e6);
        l.instructions += n;
    }
    let t1 = Instant::now();
    if let Some(profile) = profile {
        for iv in &inputs {
            let r = execute_compiled_profiled(driver.ctx(), cp, iv, config.fuel, profile);
            l.instructions += r.instructions;
        }
    }
    let t2 = Instant::now();
    let (concrete, concolic) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
    l.concrete_s += concrete;
    l.concolic_s += concolic;
    l.runs += report.runs.len() as u64;
    l.generated += report.runs.iter().filter(|r| r.diverged.is_some()).count() as u64;
    l.divergent += report.divergences as u64;
    l.probes += report.probes as u64;

    // SMT: a fresh solver per query (no cache, no arena reuse), timed
    // one query at a time, then one shared solver across the stream, as
    // the campaign's sessions share theirs.
    let t3 = Instant::now();
    for q in queries {
        let t = Instant::now();
        let r = SmtSolver::new().check(q);
        l.smt_query_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(r, Ok(SmtResult::Sat(_) | SmtResult::Unsat)) {
            l.smt_unknown += 1;
        }
    }
    let t4 = Instant::now();
    let shared = SmtSolver::new();
    for q in queries {
        let _ = std::hint::black_box(shared.check(q));
    }
    let t5 = Instant::now();
    let warm = (t5 - t4).as_secs_f64();
    l.smt_queries += queries.len() as u64;
    l.smt_cold_s += (t4 - t3).as_secs_f64();
    l.smt_warm_s += warm;

    if matches!(
        technique,
        Technique::DartSound
            | Technique::DartUnsound
            | Technique::DartSoundDelayed
            | Technique::Random
    ) {
        l.bypass_campaign_s += campaign_s;
        l.bypass_exec_s += if profile.is_some() {
            concolic
        } else {
            concrete
        };
        l.bypass_smt_s += warm;
    }
    if matches!(
        technique,
        Technique::HigherOrder | Technique::HigherOrderCompositional
    ) {
        l.ho_campaign_s += campaign_s;
        l.ho_replayed_s += concolic + warm;
    }

    if let Some(s) = ctx.spans.as_mut() {
        s.push("replay.exec.concrete", parent, Some(campaign), t0, t1);
        s.push("replay.exec.concolic", parent, Some(campaign), t1, t2);
        s.push("replay.smt.cold", parent, Some(campaign), t3, t4);
        s.push("replay.smt.warm", parent, Some(campaign), t4, t5);
    }
}

/// Distinct `(native, args)` applications across a campaign's runs: the
/// size of the `IOF` table a cross-run campaign ends with.
fn iof_table_size(driver: &Driver<'_>, config: &DriverConfig, report: &Report) -> usize {
    let cp = driver.compiled().expect("bench programs compile");
    let mut seen = std::collections::BTreeSet::new();
    for r in &report.runs {
        let (_, trace, _) =
            run_compiled_counted(cp, &InputVector::new(r.inputs.clone()), config.fuel);
        for (name, args, _) in trace.native_calls {
            seen.insert((name, args));
        }
    }
    seen.len()
}

/// A pass's campaigns before `Driver::new`: generated, parsed, checked
/// and configured.
struct Prepared {
    insts: Vec<Instance>,
    programs: Vec<Program>,
    logs: Vec<Option<Arc<Mutex<Vec<Formula>>>>>,
    configs: Vec<DriverConfig>,
    /// When workload generation and parse-and-check finished.
    generated: Instant,
    checked: Instant,
}

/// The set-up of pass `pass` up to `Driver::new`: workload generation,
/// parse and check, and each campaign's configuration.
fn prepare(ctx: &Ctx<'_>, pass: usize) -> Result<Prepared, String> {
    let w = &ctx.opts.workload;
    let insts = workload::generate(w, &ctx.library, ctx.opts.seed, pass);
    let generated = Instant::now();
    let mut programs: Vec<Program> = Vec::with_capacity(insts.len());
    for inst in &insts {
        let p = hotg_lang::parse(&inst.source).map_err(|e| format!("parse: {e:?}"))?;
        hotg_lang::check(&p).map_err(|e| format!("check: {}", e.message()))?;
        programs.push(p);
    }
    let checked = Instant::now();
    let logs: Vec<Option<Arc<Mutex<Vec<Formula>>>>> = insts
        .iter()
        .map(|_| {
            ctx.spans
                .is_some()
                .then(|| Arc::new(Mutex::new(Vec::new())))
        })
        .collect();
    let configs = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| DriverConfig {
            trace: w
                .durable
                .then(|| TraceConfig::new(ctx.scratch.join(format!("p{pass}-c{i}.trace")))),
            query_log: logs[i].clone(),
            ..workload::config(w, inst)
        })
        .collect();
    Ok(Prepared {
        insts,
        programs,
        logs,
        configs,
        generated,
        checked,
    })
}

/// The last set-up step: one driver per campaign (compile, analyze).
fn drivers(p: &Prepared) -> Vec<Driver<'_>> {
    p.programs
        .iter()
        .zip(&p.insts)
        .zip(&p.configs)
        .map(|((program, inst), c)| Driver::new(program, &inst.natives, c.clone()))
        .collect()
}

/// How many times each pass runs and times its set-up. Set-up takes
/// about a millisecond, so one timing of it is mostly noise; the last
/// repetition's drivers run the campaigns.
const SETUP_REPS: usize = 5;

/// Runs pass `pass`: set-up, every campaign (timed), its durable legs
/// and — when spans are being recorded — its replay legs, then the output
/// checks, with the reference kernel timed before the set-up and before
/// each campaign. Returns the pass's campaign wall time in reference-host
/// seconds.
fn run_pass(ctx: &mut Ctx<'_>, acc: &mut Acc, pass: usize) -> Result<f64, String> {
    let w = &ctx.opts.workload;
    let traced = ctx.spans.is_some();
    let quality = !traced && pass < w.min_passes;
    let kernel_seed = |i: usize| ((pass as u64) << 16) | i as u64;
    let mut kernel = vec![calib::kernel_ms(kernel_seed(0))];
    // Host-time samples, put on the reference host's scale once the
    // pass's kernel samples are all in.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut campaign_ms = Vec::with_capacity(w.slots.len());
    let mut ttfe_ms = Vec::new();

    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let p = prepare(ctx, pass)?;
        std::hint::black_box(drivers(&p));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let prepared = prepare(ctx, pass)?;
    let drivers = drivers(&prepared);
    let t3 = Instant::now();
    setup_s.push((t3 - t0).as_secs_f64());
    let Prepared {
        insts,
        programs,
        logs,
        configs,
        generated: t1,
        checked: t2,
    } = &prepared;

    let pass_span = ctx.spans.as_mut().map(|s| {
        let id = s.push("pass", None, None, t0, t0);
        let setup = s.push("setup", Some(id), None, t0, t3);
        s.push("setup.generate", Some(setup), None, t0, *t1);
        s.push("setup.parse_check", Some(setup), None, *t1, *t2);
        s.push("setup.driver_new", Some(setup), None, *t2, t3);
        id
    });
    if traced {
        // Layer timings of what Driver::new does, taken by calling the
        // layers' public entry points directly.
        let a = Instant::now();
        for (p, inst) in programs.iter().zip(insts) {
            let _ = std::hint::black_box(hotg_lang::compile(p, &inst.natives));
        }
        let b = Instant::now();
        for p in programs {
            let _ = std::hint::black_box(hotg_analysis::analyze(p));
        }
        let c = Instant::now();
        for (p, inst) in programs.iter().zip(insts) {
            let _ = std::hint::black_box(SummaryTable::compute(
                p,
                &inst.natives,
                &SummaryConfig::default(),
            ));
        }
        let d = Instant::now();
        let l = &mut acc.layers;
        l.parse_check_ms.push(ms(*t2 - *t1));
        l.compile_ms.push(ms(b - a));
        l.analyze_ms.push(ms(c - b));
        l.summaries_ms.push(ms(d - c));
        if let Some(s) = ctx.spans.as_mut() {
            s.push("layer.compile", pass_span, None, a, b);
            s.push("layer.analyze", pass_span, None, b, c);
            s.push("layer.summaries", pass_span, None, c, d);
        }
    }

    let mut wall = Duration::ZERO;
    for (i, driver) in drivers.iter().enumerate() {
        let inst = &insts[i];
        let technique = inst.slot.technique;
        let campaign = (pass * w.slots.len() + i) as u64;
        kernel.push(calib::kernel_ms(kernel_seed(i + 1)));
        let mut sink = CampaignSink::new(traced);
        let report = driver.run_with_sink(technique, &mut sink);
        let end = Instant::now();
        let start = sink.start;
        wall += end - start;
        let campaign_s = (end - start).as_secs_f64();
        campaign_ms.push(campaign_s * 1e3);
        if let Some(t) = sink.first_error {
            ttfe_ms.push(ms(t));
        }
        acc.attempted += sink.targets;
        acc.failed +=
            (report.targets_degraded + report.targets_faulted + report.solver_errors) as u64;
        if quality {
            acc.covered += report.covered_directions() as u64;
            acc.directions += 2 * report.branch_sites as u64;
            acc.bugs += report.errors.len() as u64;
        }

        if let Some(s) = ctx.spans.as_mut() {
            let id = s.push("campaign", pass_span, Some(campaign), start, end);
            for &(a, b) in &sink.target_spans {
                s.push("target", Some(id), Some(campaign), a, b);
            }
        }
        if traced {
            let l = &mut acc.layers;
            l.targets += sink.targets;
            l.events += sink.events;
            l.generations += report.generation_widths.len() as u64;
            l.width_max = l.width_max.max(report.max_generation_width() as u64);
            l.targets_pruned += report.targets_pruned_static as u64;
            l.cache_hits += report.cache_hits;
            l.cache_lookups += report.cache_hits + report.cache_misses;
            l.intern_hits += sink.intern_hits;
            l.backend_queries += sink.backend.0;
            l.backend_short += sink.backend.1;
            l.target_ms
                .extend(sink.target_spans.iter().map(|&(a, b)| ms(b - a)));
            if let Some((per_shard, samples, keys)) = &sink.shard {
                l.exchange_samples += samples;
                l.exchange_keys += keys;
                let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
                let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
                if mean > 0.0 {
                    l.imbalance.push(max / mean);
                }
            }
        }
        let queries: Vec<Formula> = logs[i]
            .as_ref()
            .map(|log| std::mem::take(&mut *log.lock().expect("query log lock")))
            .unwrap_or_default();
        if traced
            && matches!(
                technique,
                Technique::HigherOrder | Technique::HigherOrderCompositional
            )
        {
            let l = &mut acc.layers;
            l.validity_checks += (report.solver_calls as u64).saturating_sub(queries.len() as u64);
            l.iof_samples
                .push(iof_table_size(driver, &configs[i], &report) as f64);
            l.ho_targets += sink.targets;
            l.ho_solved += sink.solved;
            l.ho_probes += sink.probes;
            l.ho_useful_probes += sink.useful_probes;
        }

        if w.durable {
            let base = configs[i]
                .trace
                .as_ref()
                .expect("durable campaigns trace")
                .path
                .clone();
            if traced {
                // The same campaign without its durable trace, for the
                // trace layer's share of campaign time.
                let plain = DriverConfig {
                    trace: None,
                    query_log: None,
                    ..configs[i].clone()
                };
                let a = Instant::now();
                let _ = Driver::new(&programs[i], &inst.natives, plain).run(technique);
                let b = Instant::now();
                acc.layers.untraced_s += (b - a).as_secs_f64();
                acc.layers.traced_s += campaign_s;
                if let Some(s) = ctx.spans.as_mut() {
                    s.push("durable.untraced_rerun", pass_span, Some(campaign), a, b);
                }
            }
            durable_legs(ctx, acc, driver, inst, &report, &base, campaign, pass_span)?;
        }
        if traced {
            replay_legs(
                ctx,
                acc,
                driver,
                &configs[i],
                technique,
                &report,
                &queries,
                campaign_s,
                campaign,
                pass_span,
            );
        }

        let c0 = Instant::now();
        check::check_runs(&programs[i], &inst.natives, configs[i].fuel, &report)?;
        if let Some(s) = ctx.spans.as_mut() {
            s.push(
                "check.reference",
                pass_span,
                Some(campaign),
                c0,
                Instant::now(),
            );
        }
    }
    if let (Some(s), Some(id)) = (ctx.spans.as_mut(), pass_span) {
        let now = s.us(Instant::now());
        s.spans[id as usize].end_us = now;
    }
    let kernel_ms = stats::mean(&kernel);
    let scale = calib::REFERENCE_MS / kernel_ms;
    acc.calib_ms.push(kernel_ms);
    acc.setup_s.extend(setup_s.iter().map(|s| scale * s));
    acc.campaign_ms
        .extend(campaign_ms.iter().map(|t| scale * t));
    acc.ttfe_ms.extend(ttfe_ms.iter().map(|t| scale * t));
    let wall_s = scale * wall.as_secs_f64();
    acc.pass_wall_s.push(wall_s);
    acc.raw_wall_s.push(wall.as_secs_f64());
    Ok(wall_s)
}

// ---------------------------------------------------------------------------
// The validity micro-leg
// ---------------------------------------------------------------------------

/// Median milliseconds (host clock) of `ValidityChecker::check` on a
/// `hash` table of `n` seeded samples, inverting the output of the
/// middle sample; a fresh checker per timed check, so no check is a
/// memo hit.
fn validity_check_ms(n: usize, seed: u64, reps: usize) -> f64 {
    let mut sig = Signature::new();
    let x = sig.declare_var("x", Sort::Int);
    let y = sig.declare_var("y", Sort::Int);
    let h = sig.declare_func("hash", 1);
    let mut rng = workload::SplitMix::new(seed ^ n as u64);
    let mut samples = Samples::new();
    let mut args = Vec::new();
    while args.len() < n {
        let a = rng.range(0, 9999);
        if !args.contains(&a) {
            samples.record(h, vec![a], hotg_lang::corpus::default_hash(a));
            args.push(a);
        }
    }
    let want = hotg_lang::corpus::default_hash(args[n / 2]);
    let pc = Formula::atom(Atom::eq(Term::app(h, vec![Term::var(y)]), Term::int(want)))
        .and(Formula::atom(Atom::eq(Term::var(x), Term::int(1))));
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let checker = ValidityChecker::new();
            let t = Instant::now();
            let _ = std::hint::black_box(checker.check(&[x, y], &samples, &pc));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Share `part / whole`, `0` for an empty whole.
fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Runs the workload and reduces the passes to metrics.
pub fn run(opts: &RunOptions) -> RunResult {
    let w = &opts.workload;
    let scratch = opts
        .out_dir
        .join(format!("scratch-{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        return RunResult {
            error: Some(format!("create {}: {e}", scratch.display())),
            ..RunResult::default()
        };
    }
    let _cleanup = ScratchDir(scratch.clone());
    let mut ctx = Ctx {
        opts,
        library: Library::for_workload(w),
        spans: None,
        scratch,
    };
    let mut acc = Acc::default();
    let campaign_pct = stats::tail_percentile(w.slots.len() * w.min_passes).unwrap_or(50);
    let ttfe_pct = stats::tail_percentile(w.error_campaigns * w.min_passes).unwrap_or(50);
    let mut result = RunResult {
        tail_pct: (campaign_pct, ttfe_pct),
        ..RunResult::default()
    };

    let outcome = if opts.trace {
        run_traced(&mut ctx, &mut acc, &mut result)
    } else {
        run_untraced(&mut ctx, &mut acc, &mut result)
    };
    result.attempted = acc.attempted;
    result.failed = acc.failed;
    result.campaigns = acc.campaign_ms.len();
    result.calib_ms = stats::median(&acc.calib_ms);
    result.raw_wall_s = stats::median(&acc.raw_wall_s);
    if let Err(e) = outcome {
        result.correct = false;
        result.error = Some(e);
        result.metrics.clear();
        return result;
    }
    let table = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    assert!(
        result
            .metrics
            .iter()
            .map(|m| m.name)
            .eq(table.iter().map(|s| s.name)),
        "a run reports exactly its table's metrics, in order"
    );
    result.correct = true;
    if let Some(spans) = &ctx.spans {
        let path = opts
            .out_dir
            .join(format!("spans-{}-{}.json", w.name, opts.seed));
        match spans.write(&path) {
            Ok(()) => result.spans_file = Some(path),
            Err(e) => eprintln!("bench: could not write spans: {e}"),
        }
    }
    result
}

fn run_untraced(ctx: &mut Ctx<'_>, acc: &mut Acc, result: &mut RunResult) -> Result<(), String> {
    let w = ctx.opts.workload.clone();
    let start = Instant::now();
    let mut pass = 0;
    while pass < w.min_passes || start.elapsed().as_secs_f64() < ctx.opts.seconds {
        run_pass(ctx, acc, pass)?;
        pass += 1;
    }
    result.passes = pass;
    let (cp, tp) = result.tail_pct;
    result.metrics = vec![
        m("setup_s", stats::median(&acc.setup_s), acc.setup_s.len()),
        m("wall_s", stats::median(&acc.pass_wall_s), pass),
        m(
            "campaign_ms.p50",
            stats::median(&acc.campaign_ms),
            acc.campaign_ms.len(),
        ),
        m(
            "campaign_ms.tail",
            stats::percentile(&acc.campaign_ms, cp),
            acc.campaign_ms.len(),
        ),
        m(
            "ttfe_ms.p50",
            stats::median(&acc.ttfe_ms),
            acc.ttfe_ms.len(),
        ),
        m(
            "ttfe_ms.tail",
            stats::percentile(&acc.ttfe_ms, tp),
            acc.ttfe_ms.len(),
        ),
        m("peak_rss_mb", peak_rss_mb(), 1),
        m(
            "coverage_frac",
            frac(acc.covered as f64, acc.directions as f64),
            w.min_passes,
        ),
        m(
            "bugs_found",
            acc.bugs as f64 / w.min_passes as f64,
            w.min_passes,
        ),
    ];
    Ok(())
}

fn run_traced(ctx: &mut Ctx<'_>, acc: &mut Acc, result: &mut RunResult) -> Result<(), String> {
    // Reference: the same passes with tracing off, for a third of the
    // run; then the traced passes.
    let start = Instant::now();
    let mut reference = Vec::new();
    while reference.is_empty() || start.elapsed().as_secs_f64() < ctx.opts.seconds / 3.0 {
        reference.push(run_pass(ctx, acc, reference.len())?);
    }
    let passes = reference.len();
    ctx.spans = Some(Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    });
    let mut traced = Vec::new();
    for pass in 0..passes {
        traced.push(run_pass(ctx, acc, pass)?);
    }
    let mut validity = Vec::new();
    for n in [8usize, 16, 32, 48] {
        let t = Instant::now();
        validity.push(validity_check_ms(n, ctx.opts.seed, 3));
        if let Some(s) = ctx.spans.as_mut() {
            s.push("validity.check", None, None, t, Instant::now());
        }
    }
    result.passes = passes;

    let l = &acc.layers;
    let p = passes as f64;
    let target_pct = stats::tail_percentile(l.target_ms.len()).unwrap_or(50);
    let query_pct = stats::tail_percentile(l.smt_query_us.len()).unwrap_or(50);
    let per_pass = |v: u64| v as f64 / p;
    let k = acc.scale();
    let exec_frac = frac(l.bypass_exec_s, l.bypass_campaign_s);
    let smt_frac = frac(l.bypass_smt_s, l.bypass_campaign_s);
    result.metrics = vec![
        m(
            "lang.parse_check_ms",
            k * stats::median(&l.parse_check_ms),
            passes,
        ),
        m("lang.compile_ms", k * stats::median(&l.compile_ms), passes),
        m(
            "analysis.analyze_ms",
            k * stats::median(&l.analyze_ms),
            passes,
        ),
        m(
            "analysis.targets_pruned",
            per_pass(l.targets_pruned),
            passes,
        ),
        m(
            "summaries.compute_ms",
            k * stats::median(&l.summaries_ms),
            passes,
        ),
        m("exec.runs", per_pass(l.runs), passes),
        m("exec.instructions", per_pass(l.instructions), passes),
        m("exec.concrete_ms", k * l.concrete_s * 1e3 / p, passes),
        m("exec.concolic_ms", k * l.concolic_s * 1e3 / p, passes),
        m(
            "exec.run_us.p50",
            k * stats::median(&l.run_us),
            l.run_us.len(),
        ),
        m(
            "exec.divergent_frac",
            frac(l.divergent as f64, l.generated as f64),
            l.generated as usize,
        ),
        m(
            "exec.probe_frac",
            frac(l.probes as f64, l.runs as f64),
            l.runs as usize,
        ),
        m("exec.wall_frac", exec_frac, passes),
        m("smt.queries", per_pass(l.smt_queries), passes),
        m("smt.cold_ms", k * l.smt_cold_s * 1e3 / p, passes),
        m("smt.warm_ms", k * l.smt_warm_s * 1e3 / p, passes),
        m(
            "smt.query_us.p50",
            k * stats::median(&l.smt_query_us),
            l.smt_query_us.len(),
        ),
        m(
            "smt.query_us.tail",
            k * stats::percentile(&l.smt_query_us, query_pct),
            l.smt_query_us.len(),
        ),
        m(
            "smt.unknown_frac",
            frac(l.smt_unknown as f64, l.smt_queries as f64),
            l.smt_queries as usize,
        ),
        m("smt.wall_frac", smt_frac, passes),
        m("backend.queries", per_pass(l.backend_queries), passes),
        m(
            "backend.short_circuit_frac",
            frac(l.backend_short as f64, l.backend_queries as f64),
            l.backend_queries as usize,
        ),
        m("validity.checks", per_pass(l.validity_checks), passes),
        m("validity.check_ms.n8", k * validity[0], 3),
        m("validity.check_ms.n16", k * validity[1], 3),
        m("validity.check_ms.n32", k * validity[2], 3),
        m("validity.check_ms.n48", k * validity[3], 3),
        m(
            "validity.wall_frac",
            if l.ho_campaign_s > 0.0 {
                1.0 - frac(l.ho_replayed_s, l.ho_campaign_s)
            } else {
                0.0
            },
            passes,
        ),
        m(
            "validity.iof_samples.p50",
            stats::median(&l.iof_samples),
            l.iof_samples.len(),
        ),
        m(
            "validity.iof_samples.max",
            l.iof_samples.iter().copied().fold(0.0, f64::max),
            l.iof_samples.len(),
        ),
        m(
            "validity.solved_frac",
            frac(l.ho_solved as f64, l.ho_targets as f64),
            l.ho_targets as usize,
        ),
        m(
            "validity.probe_useful_frac",
            frac(l.ho_useful_probes as f64, l.ho_probes as f64),
            l.ho_probes as usize,
        ),
        m(
            "cache.hit_frac",
            frac(l.cache_hits as f64, l.cache_lookups as f64),
            l.cache_lookups as usize,
        ),
        m("arena.intern_hits", per_pass(l.intern_hits), passes),
        m("engine.targets", per_pass(l.targets), passes),
        m("engine.generations", per_pass(l.generations), passes),
        m("engine.width_max", l.width_max as f64, passes),
        m("engine.events", per_pass(l.events), passes),
        m(
            "engine.target_ms.p50",
            k * stats::median(&l.target_ms),
            l.target_ms.len(),
        ),
        m(
            "engine.target_ms.tail",
            k * stats::percentile(&l.target_ms, target_pct),
            l.target_ms.len(),
        ),
        m(
            "engine.self_frac",
            if l.bypass_campaign_s > 0.0 {
                1.0 - exec_frac - smt_frac
            } else {
                0.0
            },
            passes,
        ),
        m("trace.bytes", per_pass(l.trace_bytes), passes),
        m("trace.frames", per_pass(l.trace_frames), passes),
        m(
            "trace.write_frac",
            if l.untraced_s > 0.0 {
                l.traced_s / l.untraced_s - 1.0
            } else {
                0.0
            },
            passes,
        ),
        m("trace.events_replayed", per_pass(l.events_replayed), passes),
        m(
            "trace.resume_ms.p50",
            k * stats::median(&l.resume_ms),
            l.resume_ms.len(),
        ),
        m("merge.offline_ms", k * l.merge_s * 1e3 / p, passes),
        m(
            "shard.exchange_samples",
            per_pass(l.exchange_samples),
            passes,
        ),
        m("shard.exchange_keys", per_pass(l.exchange_keys), passes),
        m(
            "shard.imbalance",
            stats::median(&l.imbalance),
            l.imbalance.len(),
        ),
        m(
            "bench.tracing_overhead_frac",
            stats::median(&traced) / stats::median(&reference) - 1.0,
            passes,
        ),
        m(
            "bench.calib_ms",
            stats::median(&acc.calib_ms),
            acc.calib_ms.len(),
        ),
    ];
    Ok(())
}
