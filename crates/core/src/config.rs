//! Driver configuration.

use crate::chaos::FaultPlan;
use crate::trace::TraceConfig;
use hotg_concolic::SymbolicMode;
use hotg_logic::{Formula, StableHasher};
use hotg_solver::lia::LiaConfig;
use hotg_solver::{SmtConfig, ValidityConfig};
use std::sync::{Arc, Mutex};

/// The four test-generation techniques compared throughout the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Technique {
    /// Blackbox random testing (the §7 baseline).
    Random,
    /// Dynamic test generation with DART's default, unsound
    /// concretization (§3.2).
    DartUnsound,
    /// Dynamic test generation with sound concretization (§3.3).
    DartSound,
    /// Sound concretization with *delayed* pinning constraints (§3.3,
    /// final remark): inputs are pinned only when a concretized
    /// expression is used in a branch constraint.
    DartSoundDelayed,
    /// Higher-order test generation (§4): uninterpreted functions,
    /// sampling, validity-proof strategies, multi-step probes.
    HigherOrder,
    /// Higher-order **compositional** test generation (§8): defined
    /// functions are abstracted by uninterpreted applications whose
    /// behaviour is constrained by instantiated *summaries*, combined
    /// with the sampled unknown natives in one antecedent.
    HigherOrderCompositional,
}

impl Technique {
    /// All techniques, in comparison order.
    pub const ALL: [Technique; 6] = [
        Technique::Random,
        Technique::DartUnsound,
        Technique::DartSound,
        Technique::DartSoundDelayed,
        Technique::HigherOrder,
        Technique::HigherOrderCompositional,
    ];

    /// The symbolic-evaluation mode this technique derives its path
    /// constraints from; `None` for the blackbox random baseline. This is
    /// the single source of the technique ↔ mode mapping — the search
    /// strategies and [`Technique::name`] both derive from it.
    pub fn symbolic_mode(self) -> Option<SymbolicMode> {
        match self {
            Technique::Random => None,
            Technique::DartUnsound => Some(SymbolicMode::UnsoundConcretize),
            Technique::DartSound => Some(SymbolicMode::SoundConcretize),
            Technique::DartSoundDelayed => Some(SymbolicMode::SoundConcretizeDelayed),
            Technique::HigherOrder | Technique::HigherOrderCompositional => {
                Some(SymbolicMode::Uninterpreted)
            }
        }
    }

    /// Canonical technique name, used by report tables, the CLI parsers
    /// ([`FromStr`](std::str::FromStr)), and [`Display`](std::fmt::Display).
    /// Where a technique coincides with a symbolic mode, the string is the
    /// mode's label — defined once in `hotg-concolic`.
    pub fn name(self) -> &'static str {
        match self {
            Technique::Random => "random",
            // Same mode as `HigherOrder`, distinguished by summarization.
            Technique::HigherOrderCompositional => "higher-order-comp",
            t => t.symbolic_mode().expect("whitebox technique").label(),
        }
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Technique {
    type Err = String;

    /// Parses a canonical technique name (see [`Technique::name`]).
    fn from_str(s: &str) -> Result<Technique, String> {
        Technique::ALL
            .iter()
            .copied()
            .find(|t| t.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Technique::ALL.iter().map(|t| t.name()).collect();
                format!(
                    "unknown technique `{s}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// Configuration of a directed-search driver.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Maximum number of program executions (tests + probes).
    pub max_runs: usize,
    /// Statement fuel per execution.
    pub fuel: u64,
    /// Validity-checker configuration (higher-order technique).
    pub validity: ValidityConfig,
    /// Seed for the random baseline and random initial inputs.
    pub seed: u64,
    /// Range for randomly generated input values (inclusive).
    pub random_range: (i64, i64),
    /// Keep the `IOF` sample table across runs (the cross-run variant
    /// suggested at the end of §5.3 and §7). When `false`, each validity
    /// check sees only the parent run's samples.
    pub cross_run_samples: bool,
    /// Maximum intermediate probe executions per search target
    /// (multi-step test generation, Example 7).
    pub max_probes_per_target: usize,
    /// Explicit initial inputs; random when `None`.
    pub initial_inputs: Option<Vec<i64>>,
    /// Additional seed executions run before the directed search starts
    /// (§7, last paragraph: when hash values are hard-coded and cannot be
    /// observed at startup, "input-output pairs could still be learned
    /// over time by starting the testing session with a representative
    /// set of well-formed inputs").
    pub seed_corpus: Vec<Vec<i64>>,
    /// Use the `hotg-analysis` static results as a search oracle: drop
    /// branch-flip targets whose flipped direction is statically
    /// infeasible (before any solver/validity query), and pre-sample
    /// native call sites whose arguments are statically constant into the
    /// initial `IOF` table. Sound — the analysis over-approximates, so
    /// only targets no execution can reach are dropped.
    pub static_pruning: bool,
    /// Worker threads **per shard** for the generational directed
    /// search: each shard's share of a generation is solved and executed
    /// concurrently against a snapshot of the sample table, and merged
    /// back in deterministic target order — so the resulting
    /// [`Report`](crate::Report) is identical for every thread count
    /// (only the cache hit/miss counters may differ). With `shards = 1`,
    /// `1` processes targets inline on the calling thread, one per merge
    /// step, so no target is solved after the campaign stops. The
    /// default is the machine's available parallelism.
    pub threads: usize,
    /// Shards for the directed search: the campaign's branch-flip
    /// targets are partitioned across this many shard passes by stable
    /// path-key hash, one scoped thread per shard (each running
    /// `threads` workers) against the one sample table's per-generation
    /// snapshot, each writing its own durable trace. The merged
    /// result is **bit-identical** to a single-shard run for every
    /// shard count (see the `engine::shard` module docs for the
    /// determinism argument), so — like `threads` — this field is
    /// excluded from [`resume_digest`](DriverConfig::resume_digest).
    /// `1` (the default) is the same loop with no partitioning and no
    /// shard traces; the random baseline has no targets to partition
    /// and ignores it.
    pub shards: usize,
    /// Deterministic fault injection (chaos testing): probabilities for
    /// forcing solver `Unknown`s/errors, synthetic interpreter faults,
    /// probe sample loss, and worker panics. `None` (the default) injects
    /// nothing. See [`FaultPlan`].
    pub fault_plan: Option<FaultPlan>,
    /// Durable, crash-safe campaign trace: every campaign event is
    /// written to the configured file as a length- and CRC32-framed
    /// record behind a versioned header, so an interrupted campaign can
    /// be picked up with [`Driver::resume`](crate::Driver::resume) and
    /// finish with a report bit-identical to an uninterrupted run.
    /// The trace is synced at every generation start and at campaign
    /// end; a write error disables it and is counted (drop-and-count).
    /// `None` (the default) writes no durable trace.
    pub trace: Option<TraceConfig>,
    /// Optional solver-query tap: every satisfiability query the
    /// campaign poses to its shards' SMT solvers (`SmtSolver::check`)
    /// is appended here, pre-normalization and in query order.
    /// Validity queries are not recorded. The
    /// benchmark harness uses the captured stream for offline
    /// throughput replay; `None` (the default) records nothing and the
    /// tap never affects campaign behaviour.
    pub query_log: Option<Arc<Mutex<Vec<Formula>>>>,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            max_runs: 200,
            fuel: 200_000,
            validity: ValidityConfig::default(),
            seed: 0x5eed,
            random_range: (-1000, 1000),
            cross_run_samples: true,
            max_probes_per_target: 3,
            initial_inputs: None,
            seed_corpus: Vec::new(),
            static_pruning: true,
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            shards: 1,
            fault_plan: None,
            trace: None,
            query_log: None,
        }
    }
}

impl DriverConfig {
    /// Config with explicit initial inputs (deterministic experiments).
    pub fn with_initial(inputs: Vec<i64>) -> DriverConfig {
        DriverConfig {
            initial_inputs: Some(inputs),
            ..DriverConfig::default()
        }
    }

    /// Digest of every configuration field that influences campaign
    /// *behaviour*, stamped into the durable-trace header and checked on
    /// resume: a salvaged trace replays bit-identically only under the
    /// configuration that produced it, so a mismatch is refused with
    /// [`ResumeError::HeaderMismatch`](crate::ResumeError).
    ///
    /// Deliberately excluded, because they cannot change the event
    /// stream: `threads` and `shards` (bit-identical by
    /// construction) and the trace/observability sinks (`query_log`,
    /// `trace` — announcement-only). Every budget is included:
    /// resuming under a different budget is a behavioural change.
    pub fn resume_digest(&self) -> u64 {
        // Exhaustive destructures (no `..`): a new field does not compile
        // until it is classified as behavioural (rendered) or excluded.
        let DriverConfig {
            max_runs,
            fuel,
            validity,
            seed,
            random_range,
            cross_run_samples,
            max_probes_per_target,
            initial_inputs,
            seed_corpus,
            static_pruning,
            threads: _,
            shards: _,
            fault_plan,
            trace: _,
            query_log: _,
        } = self;
        let ValidityConfig {
            smt,
            max_cubes,
            max_candidates,
            counter_shifts,
        } = validity;
        let SmtConfig {
            lia,
            max_rounds,
            total_node_budget,
        } = smt;
        let LiaConfig {
            var_min,
            var_max,
            node_budget,
            prefer_small,
        } = lia;
        let rendered = format!(
            "max_runs={max_runs} fuel={fuel} seed={seed} random_range={random_range:?} \
             cross_run_samples={cross_run_samples} \
             max_probes_per_target={max_probes_per_target} initial_inputs={initial_inputs:?} \
             seed_corpus={seed_corpus:?} static_pruning={static_pruning} \
             fault_plan={fault_plan:?} validity.max_cubes={max_cubes} \
             validity.max_candidates={max_candidates} validity.counter_shifts={counter_shifts:?} \
             smt.max_rounds={max_rounds} smt.total_node_budget={total_node_budget} \
             lia.var_min={var_min} lia.var_max={var_max} lia.node_budget={node_budget} \
             lia.prefer_small={prefer_small}",
        );
        StableHasher::digest(rendered.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = Technique::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 6);
        assert_eq!(Technique::HigherOrder.to_string(), "higher-order");
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for t in Technique::ALL {
            assert_eq!(t.name().parse::<Technique>(), Ok(t));
        }
        assert!("no-such-technique".parse::<Technique>().is_err());
        let err = "x".parse::<Technique>().unwrap_err();
        assert!(
            err.contains("higher-order-comp"),
            "error lists names: {err}"
        );
    }

    #[test]
    fn mode_and_name_stay_aligned() {
        use hotg_concolic::SymbolicMode;
        assert_eq!(Technique::Random.symbolic_mode(), None);
        assert_eq!(
            Technique::DartSound.symbolic_mode(),
            Some(SymbolicMode::SoundConcretize)
        );
        // Techniques that coincide with a mode reuse its label verbatim.
        for t in [
            Technique::DartUnsound,
            Technique::DartSound,
            Technique::DartSoundDelayed,
            Technique::HigherOrder,
        ] {
            assert_eq!(t.name(), t.symbolic_mode().unwrap().label());
        }
    }

    #[test]
    fn default_config_sane() {
        let c = DriverConfig::default();
        assert!(c.max_runs > 0);
        assert!(c.fuel > 0);
        assert!(c.random_range.0 <= c.random_range.1);
        assert!(c.cross_run_samples);
        assert!(c.static_pruning);
        assert!(c.threads >= 1);
        assert_eq!(c.shards, 1);
        // No fault injection by default.
        assert!(c.fault_plan.is_none());
        assert!(c.trace.is_none());
        assert!(c.query_log.is_none());
        let c2 = DriverConfig::with_initial(vec![1, 2]);
        assert_eq!(c2.initial_inputs, Some(vec![1, 2]));
    }

    #[test]
    fn resume_digest_tracks_behavioural_fields_only() {
        let a = DriverConfig::default();
        let mut b = DriverConfig::default();
        assert_eq!(a.resume_digest(), b.resume_digest());
        // Bit-identical-by-construction and observability knobs must not
        // block a resume.
        b.threads = a.threads + 7;
        b.shards = 4;
        b.trace = Some(TraceConfig::new("/tmp/x.trace"));
        assert_eq!(a.resume_digest(), b.resume_digest());
        // Behavioural fields must.
        b.max_runs += 1;
        assert_ne!(a.resume_digest(), b.resume_digest());
        let mut c = DriverConfig::default();
        c.seed ^= 1;
        assert_ne!(a.resume_digest(), c.resume_digest());
        let d = DriverConfig {
            fault_plan: Some(FaultPlan::uniform(1, 0.5)),
            ..DriverConfig::default()
        };
        assert_ne!(a.resume_digest(), d.resume_digest());
    }

    /// Pins the rendered digest: a refactor of `resume_digest` that
    /// moves it would refuse every trace recorded before it.
    #[test]
    fn default_resume_digest_is_pinned() {
        assert_eq!(
            DriverConfig::default().resume_digest(),
            0x2719_5c2e_9b69_3a62
        );
    }
}
