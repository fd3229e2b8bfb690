//! Search reports: what a test-generation campaign executed, covered,
//! and found.

use crate::chaos::{FaultCounters, FaultSite, TraceFaultCounters};
use crate::config::Technique;
use crate::events::CampaignEvent;
use hotg_lang::{BranchId, FaultKind, Outcome};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a test input was executed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The campaign's first input.
    Initial,
    /// A seed-corpus execution (well-formed inputs provided up front).
    Seed,
    /// Random baseline input.
    Random,
    /// Satisfying assignment of an alternate path constraint (DART).
    Solved {
        /// Branch site being flipped.
        target: BranchId,
    },
    /// Interpreted strategy from a validity proof (higher-order).
    Strategy {
        /// Branch site being flipped.
        target: BranchId,
        /// Rendered strategy (human-readable).
        strategy: String,
    },
    /// Intermediate probe run to collect missing samples (multi-step).
    Probe {
        /// Branch site the pending strategy is for.
        target: BranchId,
    },
    /// Test generated by the degradation ladder after the technique's own
    /// attempt conceded: the target was re-attempted under a demoted
    /// symbolic mode (Theorem 4's fallback).
    Degraded {
        /// Branch site being flipped.
        target: BranchId,
        /// How far the target was demoted.
        level: DegradationLevel,
    },
}

/// The demoted symbolic mode a degraded target was re-attempted under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Sound concretization (§3.3): still sound — generated tests cannot
    /// diverge — but weaker than uninterpreted-function reasoning.
    Sound,
    /// Unsound concretization (§3.2, DART's default): last resort; the
    /// generated test may diverge.
    Unsound,
}

impl DegradationLevel {
    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            DegradationLevel::Sound => "sound-concretize",
            DegradationLevel::Unsound => "unsound-concretize",
        }
    }
}

/// Why a target entered the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationReason {
    /// A validity check or satisfiability query conceded `Unknown`
    /// (a round or node budget ran out).
    SolverUnknown,
    /// A validity check or satisfiability query failed with an error.
    SolverError,
}

/// One rung of the degradation ladder taken for one target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationRecord {
    /// Branch site of the demoted target.
    pub target: BranchId,
    /// Why the technique's own attempt conceded.
    pub reason: DegradationReason,
    /// The demoted mode attempted.
    pub level: DegradationLevel,
    /// Whether the demoted attempt produced a test input.
    pub recovered: bool,
}

/// Record of one program execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunRecord {
    /// Flat input values.
    pub inputs: Vec<i64>,
    /// Execution outcome.
    pub outcome: Outcome,
    /// Why this input was executed.
    pub origin: Origin,
    /// For generated tests with an expected path: did the run diverge?
    pub diverged: Option<bool>,
    /// Branch directions taken.
    pub path: Vec<(BranchId, bool)>,
}

/// Summary of one campaign.
#[derive(Clone, Debug)]
pub struct Report {
    /// Technique used.
    pub technique: Technique,
    /// Program name.
    pub program: String,
    /// Every execution, in order.
    pub runs: Vec<RunRecord>,
    /// First run index that triggered each error code.
    pub errors: BTreeMap<i64, usize>,
    /// Covered `(site, direction)` pairs.
    pub coverage: BTreeSet<(BranchId, bool)>,
    /// Number of diverging generated tests (§3.2).
    pub divergences: usize,
    /// Number of probe executions (multi-step, §5.3).
    pub probes: usize,
    /// Number of solver/validity queries issued.
    pub solver_calls: usize,
    /// Search targets proved infeasible/invalid (no test generated).
    pub rejected_targets: usize,
    /// Targets dropped by the static oracle *before* any solver or
    /// validity query (`DriverConfig::static_pruning`).
    pub targets_pruned_static: usize,
    /// Native call sites with statically-constant arguments whose
    /// input/output pair was pre-sampled into the initial `IOF` table.
    pub presampled_sites: usize,
    /// Total branch sites of the program (for coverage ratios).
    pub branch_sites: u32,
    /// Solver-query cache hits (SMT results plus memoized validity
    /// outcomes). Unlike every other field, the hit/miss split may differ
    /// between thread counts: racing workers can each miss a key one of
    /// them is about to fill. The cached values themselves are pure
    /// functions of the key, so campaign *results* never depend on it.
    pub cache_hits: u64,
    /// Solver-query cache misses (lookups that ran the solver).
    pub cache_misses: u64,
    /// Number of search targets in each generation of the directed
    /// search, in order. The width of a generation bounds how much
    /// target-level parallelism the worker pool (`DriverConfig::threads`)
    /// can exploit; deterministic, so identical across thread counts.
    /// Empty for the random baseline.
    pub generation_widths: Vec<usize>,
    /// Solver/validity queries that failed with an error (distinct from
    /// `Unsat`/`Unknown` verdicts — an errored query decided nothing).
    pub solver_errors: usize,
    /// Targets that entered the degradation ladder (the technique's own
    /// attempt conceded and at least one demoted mode was tried).
    pub targets_degraded: usize,
    /// Targets whose worker panicked; the panic was isolated and the
    /// target counted here instead of aborting the campaign.
    pub targets_faulted: usize,
    /// Executed runs that exhausted their statement fuel.
    pub fuel_exhausted_runs: usize,
    /// Runtime faults among executed runs, broken down by kind.
    pub fault_kinds: BTreeMap<FaultKind, usize>,
    /// Every degradation-ladder rung taken, in merge order.
    pub degradations: Vec<DegradationRecord>,
    /// Faults injected by the configured
    /// [`FaultPlan`](crate::FaultPlan), by site. All zero when
    /// `DriverConfig::fault_plan` is `None`.
    pub faults_injected: FaultCounters,
    /// Event-sink I/O errors absorbed during the campaign under the
    /// drop-and-count policy (durable trace, legacy JSONL trace, or the
    /// caller's sink). Like the cache hit/miss split this is
    /// observability, not a campaign result: the generated tests are
    /// identical whether or not a sink failed.
    pub sink_errors: usize,
    /// Faults injected into the durable-trace I/O path
    /// ([`FaultSite::TraceShortWrite`]/[`FaultSite::TraceFsyncFail`]).
    /// Kept apart from [`Report::faults_injected`]: trace faults damage
    /// the on-disk trace, never the campaign's results.
    pub trace_faults: TraceFaultCounters,
    /// The static checker's error when the program under test was
    /// refused ([`CampaignEvent::ProgramRejected`]); such a campaign
    /// executes no run. `None` for every program that checks.
    pub rejected: Option<String>,
    /// Wall-clock duration of the campaign.
    pub elapsed: std::time::Duration,
}

impl Report {
    /// A report with every field zeroed/empty, the base of an event
    /// fold: [`CampaignEvent::CampaignStarted`] fills in the identity
    /// fields (technique, program, branch sites).
    pub(crate) fn empty() -> Report {
        Report {
            technique: Technique::Random,
            program: String::new(),
            runs: Vec::new(),
            errors: BTreeMap::new(),
            coverage: BTreeSet::new(),
            divergences: 0,
            probes: 0,
            solver_calls: 0,
            rejected_targets: 0,
            targets_pruned_static: 0,
            presampled_sites: 0,
            branch_sites: 0,
            cache_hits: 0,
            cache_misses: 0,
            generation_widths: Vec::new(),
            solver_errors: 0,
            targets_degraded: 0,
            targets_faulted: 0,
            fuel_exhausted_runs: 0,
            fault_kinds: BTreeMap::new(),
            degradations: Vec::new(),
            faults_injected: FaultCounters::default(),
            sink_errors: 0,
            trace_faults: TraceFaultCounters::default(),
            rejected: None,
            elapsed: std::time::Duration::ZERO,
        }
    }

    /// Records one executed run (coverage, errors, fault kinds, probe
    /// and divergence counts) — the [`CampaignEvent::RunExecuted`] arm
    /// of the fold.
    fn account(&mut self, record: RunRecord) {
        for &(id, dir) in &record.path {
            self.coverage.insert((id, dir));
        }
        match &record.outcome {
            Outcome::Error(code) => {
                let idx = self.runs.len();
                self.errors.entry(*code).or_insert(idx);
            }
            Outcome::RuntimeFault(fault) => {
                *self.fault_kinds.entry(fault.kind).or_insert(0) += 1;
            }
            Outcome::OutOfFuel => self.fuel_exhausted_runs += 1,
            Outcome::Returned => {}
        }
        if record.diverged == Some(true) {
            self.divergences += 1;
        }
        if matches!(record.origin, Origin::Probe { .. }) {
            self.probes += 1;
        }
        self.runs.push(record);
    }

    /// Folds one campaign event into the report. The engine builds its
    /// report exclusively through this method, so replaying a recorded
    /// stream with [`fold_report`](crate::fold_report) reconstructs the
    /// exact same counters.
    pub(crate) fn fold(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::CampaignStarted {
                technique,
                program,
                branch_sites,
            } => {
                self.technique = *technique;
                self.program = program.clone();
                self.branch_sites = *branch_sites;
            }
            CampaignEvent::SitePresampled => self.presampled_sites += 1,
            CampaignEvent::GenerationStarted { width, .. } => {
                self.generation_widths.push(*width);
            }
            CampaignEvent::SolverQueries { count } => self.solver_calls += count,
            CampaignEvent::TargetsRejected { count } => self.rejected_targets += count,
            CampaignEvent::SolverErrors { count } => self.solver_errors += count,
            CampaignEvent::FaultInjected { site, count } => match site {
                FaultSite::SolverUnknown => self.faults_injected.solver_unknowns += count,
                FaultSite::SolverErr => self.faults_injected.solver_errs += count,
                FaultSite::InterpFault => self.faults_injected.interp_faults += count,
                FaultSite::ProbeFail => self.faults_injected.probe_failures += count,
                FaultSite::WorkerPanic => self.faults_injected.worker_panics += count,
                FaultSite::TraceShortWrite => self.trace_faults.short_writes += count,
                FaultSite::TraceFsyncFail => self.trace_faults.fsync_fails += count,
            },
            CampaignEvent::TargetFaulted { .. } => self.targets_faulted += 1,
            CampaignEvent::TargetDegraded { rungs, .. } => {
                self.targets_degraded += 1;
                self.degradations.extend(rungs.iter().cloned());
            }
            CampaignEvent::TargetsPrunedStatic { count } => {
                self.targets_pruned_static += count;
            }
            CampaignEvent::RunExecuted { record } => self.account((**record).clone()),
            CampaignEvent::CacheStats { hits, misses } => {
                self.cache_hits = *hits;
                self.cache_misses = *misses;
            }
            CampaignEvent::SinkErrors { count } => self.sink_errors += count,
            CampaignEvent::ProgramRejected { reason } => self.rejected = Some(reason.clone()),
            // Announcement-only events: the facts they describe are
            // folded from the detailed events that accompany them, or
            // (session/shard stats) are telemetry outside the report.
            CampaignEvent::TargetScheduled { .. }
            | CampaignEvent::TargetSolved { .. }
            | CampaignEvent::TargetClosed { .. }
            | CampaignEvent::ProbeRun { .. }
            | CampaignEvent::SolverSessionStats { .. }
            | CampaignEvent::BackendStats { .. }
            | CampaignEvent::ExecStats { .. }
            | CampaignEvent::ShardStats { .. }
            | CampaignEvent::CampaignFinished => {}
        }
    }

    /// Number of executions (tests + probes).
    pub fn total_runs(&self) -> usize {
        self.runs.len()
    }

    /// `true` if the error code was triggered.
    pub fn found_error(&self, code: i64) -> bool {
        self.errors.contains_key(&code)
    }

    /// Run index of the first hit of `code`.
    pub fn first_hit(&self, code: i64) -> Option<usize> {
        self.errors.get(&code).copied()
    }

    /// Number of covered `(site, direction)` pairs.
    pub fn covered_directions(&self) -> usize {
        self.coverage.len()
    }

    /// Coverage ratio over all `2 × branch_sites` directions.
    pub fn coverage_ratio(&self) -> f64 {
        if self.branch_sites == 0 {
            return 1.0;
        }
        self.coverage.len() as f64 / (2.0 * self.branch_sites as f64)
    }

    /// Cumulative coverage after each run: element `i` is the number of
    /// distinct `(site, direction)` pairs covered by runs `0..=i`. The
    /// series behind coverage-over-iterations figures.
    pub fn coverage_curve(&self) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(self.runs.len());
        for r in &self.runs {
            for &(id, dir) in &r.path {
                seen.insert((id, dir));
            }
            out.push(seen.len());
        }
        out
    }

    /// Cache hits as a fraction of all cached solver lookups (`0.0` when
    /// no lookups were made).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Widest generation of the directed search — the best single-moment
    /// parallelism available to the worker pool. `0` when the search
    /// never enqueued a target (e.g. the random baseline).
    pub fn max_generation_width(&self) -> usize {
        self.generation_widths.iter().copied().max().unwrap_or(0)
    }

    /// Cumulative distinct error codes after each run.
    pub fn error_curve(&self) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(self.runs.len());
        for r in &self.runs {
            if let Outcome::Error(code) = r.outcome {
                seen.insert(code);
            }
            out.push(seen.len());
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} runs ({} probes), {}/{} directions covered, \
             errors {:?}, {} divergences, {} rejected targets, {} solver calls, \
             {} pruned statically, {} pre-sampled sites, \
             cache {}/{} hits",
            self.technique,
            self.program,
            self.total_runs(),
            self.probes,
            self.covered_directions(),
            2 * self.branch_sites,
            self.errors.keys().collect::<Vec<_>>(),
            self.divergences,
            self.rejected_targets,
            self.solver_calls,
            self.targets_pruned_static,
            self.presampled_sites,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        )?;
        write!(
            f,
            ", {} solver errors, {} degraded, {} faulted, {} fuel-exhausted",
            self.solver_errors,
            self.targets_degraded,
            self.targets_faulted,
            self.fuel_exhausted_runs,
        )?;
        if self.faults_injected.total() > 0 {
            write!(f, ", {} faults injected", self.faults_injected.total())?;
        }
        if self.trace_faults.total() > 0 {
            write!(f, ", {} trace faults injected", self.trace_faults.total())?;
        }
        if self.sink_errors > 0 {
            write!(f, ", {} sink errors", self.sink_errors)?;
        }
        if let Some(reason) = &self.rejected {
            write!(f, " (program rejected: {reason})")?;
        }
        writeln!(f)
    }
}

/// How a comparison-table column is padded.
#[derive(Clone, Copy)]
enum Align {
    Left,
    Right,
}

/// One column of the comparison table: the header label and the cell
/// renderer come from the same spec entry, so the header and row arity
/// cannot drift apart when counters are added.
struct Column {
    header: &'static str,
    width: usize,
    align: Align,
    cell: fn(&Report) -> String,
}

/// The comparison-table columns, in print order. To add a counter to
/// the table, add one entry here — header and rows stay in sync by
/// construction (and `table_header_and_rows_stay_in_sync` checks the
/// rendered arity).
const COLUMNS: &[Column] = &[
    Column {
        header: "technique",
        width: 18,
        align: Align::Left,
        cell: |r| r.technique.name().to_string(),
    },
    Column {
        header: "runs",
        width: 5,
        align: Align::Right,
        cell: |r| r.total_runs().to_string(),
    },
    Column {
        header: "probes",
        width: 7,
        align: Align::Right,
        cell: |r| r.probes.to_string(),
    },
    Column {
        header: "coverage",
        width: 9,
        align: Align::Right,
        cell: |r| format!("{:>6}/{:<2}", r.covered_directions(), 2 * r.branch_sites),
    },
    Column {
        header: "diverg",
        width: 7,
        align: Align::Right,
        cell: |r| r.divergences.to_string(),
    },
    Column {
        header: "rejected",
        width: 9,
        align: Align::Right,
        cell: |r| r.rejected_targets.to_string(),
    },
    Column {
        header: "solver",
        width: 8,
        align: Align::Right,
        cell: |r| r.solver_calls.to_string(),
    },
    Column {
        header: "svcerr",
        width: 6,
        align: Align::Right,
        cell: |r| r.solver_errors.to_string(),
    },
    Column {
        header: "degr",
        width: 5,
        align: Align::Right,
        cell: |r| r.targets_degraded.to_string(),
    },
    Column {
        header: "fault",
        width: 6,
        align: Align::Right,
        cell: |r| r.targets_faulted.to_string(),
    },
    Column {
        header: "pruned",
        width: 7,
        align: Align::Right,
        cell: |r| r.targets_pruned_static.to_string(),
    },
    Column {
        header: "presmp",
        width: 7,
        align: Align::Right,
        cell: |r| r.presampled_sites.to_string(),
    },
    Column {
        header: "cache",
        width: 9,
        align: Align::Right,
        cell: |r| format!("{}/{}", r.cache_hits, r.cache_hits + r.cache_misses),
    },
    Column {
        header: "hit%",
        width: 8,
        align: Align::Right,
        cell: |r| format!("{:>7.1}%", 100.0 * r.cache_hit_rate()),
    },
    Column {
        header: "time",
        width: 9,
        align: Align::Right,
        cell: |r| format!("{:>7}ms", r.elapsed.as_millis()),
    },
    // The trailing free-width column; separated by an extra space.
    Column {
        header: "errors",
        width: 0,
        align: Align::Left,
        cell: |r| format!("{:?}", r.errors.keys().collect::<Vec<_>>()),
    },
];

/// Pads `text` into a column slot.
fn pad(text: &str, col: &Column) -> String {
    match (col.width, col.align) {
        (0, _) => text.to_string(),
        (w, Align::Left) => format!("{text:<w$}"),
        (w, Align::Right) => format!("{text:>w$}"),
    }
}

/// Renders one table line from the column spec.
fn render_line(content: impl Fn(&Column) -> String) -> String {
    let mut line = String::new();
    for (i, col) in COLUMNS.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        if i == COLUMNS.len() - 1 {
            line.push(' ');
        }
        line.push_str(&pad(&content(col), col));
    }
    line.push('\n');
    line
}

/// Renders a fixed-width comparison table of several reports (one row per
/// technique), as printed by the experiment binaries.
pub fn comparison_table(reports: &[Report]) -> String {
    let mut out = render_line(|col| col.header.to_string());
    for r in reports {
        out.push_str(&render_line(|col| (col.cell)(r)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> Report {
        Report {
            technique: Technique::HigherOrder,
            program: "t".into(),
            runs: vec![RunRecord {
                inputs: vec![1],
                outcome: Outcome::Error(1),
                origin: Origin::Initial,
                diverged: None,
                path: vec![(BranchId(0), true)],
            }],
            errors: BTreeMap::from([(1i64, 0usize)]),
            coverage: BTreeSet::from([(BranchId(0), true)]),
            divergences: 0,
            probes: 0,
            solver_calls: 2,
            rejected_targets: 1,
            targets_pruned_static: 0,
            presampled_sites: 0,
            branch_sites: 1,
            cache_hits: 3,
            cache_misses: 1,
            generation_widths: vec![1],
            solver_errors: 1,
            targets_degraded: 1,
            targets_faulted: 0,
            fuel_exhausted_runs: 0,
            fault_kinds: BTreeMap::new(),
            degradations: vec![DegradationRecord {
                target: BranchId(0),
                reason: DegradationReason::SolverUnknown,
                level: DegradationLevel::Sound,
                recovered: true,
            }],
            faults_injected: FaultCounters::default(),
            sink_errors: 0,
            trace_faults: TraceFaultCounters::default(),
            rejected: None,
            elapsed: std::time::Duration::from_millis(1),
        }
    }

    #[test]
    fn accessors() {
        let r = dummy();
        assert_eq!(r.total_runs(), 1);
        assert!(r.found_error(1));
        assert!(!r.found_error(2));
        assert_eq!(r.first_hit(1), Some(0));
        assert_eq!(r.covered_directions(), 1);
        assert_eq!(r.max_generation_width(), 1);
        assert!((r.coverage_ratio() - 0.5).abs() < 1e-9);
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-9);
        let mut empty = r.clone();
        empty.cache_hits = 0;
        empty.cache_misses = 0;
        assert_eq!(empty.cache_hit_rate(), 0.0);
    }

    #[test]
    fn display_and_table() {
        let r = dummy();
        let s = r.to_string();
        assert!(s.contains("higher-order"));
        assert!(s.contains("1 solver errors"));
        assert!(s.contains("1 degraded"));
        assert!(!s.contains("faults injected"), "no injection in dummy");
        let t = comparison_table(&[r]);
        assert!(t.contains("technique"));
        assert!(t.contains("higher-order"));
        assert!(t.contains("svcerr"));
        assert!(t.contains("degr"));
        assert!(t.contains("fault"));
    }

    /// The satellite regression test for column drift: header and row
    /// arity come from the same `COLUMNS` spec, and both render to the
    /// same number of whitespace-separated cells. (PR 4 added the
    /// svcerr/degr/fault columns to the header and rows by hand; with
    /// the spec, forgetting one side is impossible, and this test
    /// pins the rendered arity against the spec length.)
    #[test]
    fn table_header_and_rows_stay_in_sync() {
        let r = dummy();
        let table = comparison_table(&[r]);
        let mut lines = table.lines();
        let header = lines.next().expect("header line");
        let row = lines.next().expect("row line");
        assert_eq!(
            header.split_whitespace().count(),
            COLUMNS.len(),
            "header cells must match the column spec"
        );
        // `dummy()` has exactly one error code, so the trailing errors
        // cell (`[1]`) contains no spaces and every cell is one token.
        assert_eq!(
            row.split_whitespace().count(),
            COLUMNS.len(),
            "row cells must match the column spec"
        );
        for col in COLUMNS {
            assert!(
                col.width == 0 || col.header.len() <= col.width,
                "header `{}` wider than its column ({})",
                col.header,
                col.width
            );
        }
    }

    #[test]
    fn degradation_labels_and_fault_note() {
        assert_eq!(DegradationLevel::Sound.label(), "sound-concretize");
        assert_eq!(DegradationLevel::Unsound.label(), "unsound-concretize");
        let mut r = dummy();
        r.faults_injected.worker_panics = 2;
        let s = r.to_string();
        assert!(s.contains("2 faults injected"));
    }

    #[test]
    fn curves_are_monotone() {
        let mut r = dummy();
        r.runs.push(RunRecord {
            inputs: vec![2],
            outcome: Outcome::Returned,
            origin: Origin::Random,
            diverged: None,
            path: vec![(BranchId(0), false)],
        });
        assert_eq!(r.coverage_curve(), vec![1, 2]);
        assert_eq!(r.error_curve(), vec![1, 1]);
    }

    #[test]
    fn zero_sites_ratio() {
        let mut r = dummy();
        r.branch_sites = 0;
        assert_eq!(r.coverage_ratio(), 1.0);
    }
}
