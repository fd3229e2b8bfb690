//! Deterministic fault injection for resilience testing
//! ([`DriverConfig::fault_plan`](crate::DriverConfig::fault_plan)).
//!
//! A [`FaultPlan`] turns selected driver operations into injected
//! failures: solver queries concede `Unknown` or error out, executed runs
//! report a synthetic interpreter fault, probe runs "lose" their observed
//! samples, and workers panic mid-target. Every decision is a pure
//! function of `(plan seed, site, key)` where the key is derived from
//! schedule-independent campaign data (dedup path hashes, query sequence
//! numbers, input vectors) — never the wall clock or thread identity — so
//! an injected campaign is as deterministic as a healthy one: the same
//! plan produces bit-identical reports for every thread count.
//!
//! The point is to exercise the driver's degradation ladder and panic
//! isolation under adversarial conditions and assert
//! the campaign still terminates, stays sound, and accounts for every
//! fault it absorbed (see `crates/core/tests/chaos.rs`).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// A solver/validity query concedes `Unknown` without running.
    SolverUnknown,
    /// A solver/validity query fails with an error without running.
    SolverErr,
    /// An executed run reports a synthetic interpreter fault.
    InterpFault,
    /// A probe run executes but its observed samples are discarded.
    ProbeFail,
    /// The worker processing a target panics.
    WorkerPanic,
    /// A durable-trace frame write tears mid-frame (half the frame
    /// reaches the file, then the write errors). Keyed by the event
    /// sequence number — schedule-independent like every other site.
    TraceShortWrite,
    /// A durable-trace fsync fails (data may be buffered but is not
    /// durable). Keyed by the fsync occasion ordinal.
    TraceFsyncFail,
}

/// A seeded per-site Bernoulli fault plan.
///
/// Each probability is the chance that [`FaultPlan::roll`] fires at the
/// matching [`FaultSite`]; `0.0` disables the site, `1.0` always fires.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Probability of [`FaultSite::SolverUnknown`].
    pub solver_unknown: f64,
    /// Probability of [`FaultSite::SolverErr`].
    pub solver_err: f64,
    /// Probability of [`FaultSite::InterpFault`].
    pub interp_fault: f64,
    /// Probability of [`FaultSite::ProbeFail`].
    pub probe_fail: f64,
    /// Probability of [`FaultSite::WorkerPanic`].
    pub worker_panic: f64,
    /// Probability of [`FaultSite::TraceShortWrite`].
    pub trace_short_write: f64,
    /// Probability of [`FaultSite::TraceFsyncFail`].
    pub trace_fsync_fail: f64,
}

impl FaultPlan {
    /// A plan with every site disabled (inject nothing).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            solver_unknown: 0.0,
            solver_err: 0.0,
            interp_fault: 0.0,
            probe_fail: 0.0,
            worker_panic: 0.0,
            trace_short_write: 0.0,
            trace_fsync_fail: 0.0,
        }
    }

    /// A plan injecting every *worker* fault kind with the same
    /// probability. The trace-I/O sites stay disabled: their keys are
    /// event sequence numbers, and a resumed trace writer covers a
    /// different sequence range than the original run's writer, so
    /// enabling them here would make resumed and uninterrupted
    /// campaigns inject different fault counts. Tests that want trace
    /// chaos set `trace_short_write`/`trace_fsync_fail` explicitly.
    pub fn uniform(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            solver_unknown: p,
            solver_err: p,
            interp_fault: p,
            probe_fail: p,
            worker_panic: p,
            trace_short_write: 0.0,
            trace_fsync_fail: 0.0,
        }
    }

    /// The configured probability of a site.
    pub fn probability(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::SolverUnknown => self.solver_unknown,
            FaultSite::SolverErr => self.solver_err,
            FaultSite::InterpFault => self.interp_fault,
            FaultSite::ProbeFail => self.probe_fail,
            FaultSite::WorkerPanic => self.worker_panic,
            FaultSite::TraceShortWrite => self.trace_short_write,
            FaultSite::TraceFsyncFail => self.trace_fsync_fail,
        }
    }

    /// Decides whether to inject a fault at `site` for the operation
    /// identified by `key`. Pure: the same `(seed, site, key)` triple
    /// always decides the same way, on every thread and every run.
    pub fn roll(&self, site: FaultSite, key: u64) -> bool {
        let p = self.probability(site);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        site.hash(&mut h);
        key.hash(&mut h);
        // Finalize with a splitmix64 round: `DefaultHasher` is a fine
        // hash but the comparison below consumes the *high* bits, which
        // the extra avalanche keeps uniform.
        let unit = (splitmix(h.finish()) >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// Schedule-independent chaos key: a hash of per-campaign data (dedup
/// path hashes, query sequence numbers, input vectors) that identifies
/// one injectable operation regardless of which worker performs it when.
pub(crate) fn chaos_key<T: Hash + ?Sized>(data: &T) -> u64 {
    let mut h = DefaultHasher::new();
    data.hash(&mut h);
    h.finish()
}

/// The synthetic fault substituted for a run's outcome by chaos testing.
pub(crate) fn injected_fault() -> hotg_lang::Fault {
    hotg_lang::Fault::new(
        hotg_lang::FaultKind::Injected,
        "chaos: injected interpreter fault",
    )
}

/// One splitmix64 mixing round.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counts of faults actually injected during a campaign, by site.
/// Surfaced as [`Report::faults_injected`](crate::Report::faults_injected)
/// so the chaos suite can reconcile the report against the plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Solver queries forced to `Unknown`.
    pub solver_unknowns: usize,
    /// Solver queries forced to error.
    pub solver_errs: usize,
    /// Runs given a synthetic interpreter fault.
    pub interp_faults: usize,
    /// Probe runs whose samples were discarded.
    pub probe_failures: usize,
    /// Workers panicked mid-target.
    pub worker_panics: usize,
}

impl FaultCounters {
    /// Total injected faults across all sites.
    pub fn total(&self) -> usize {
        self.solver_unknowns
            + self.solver_errs
            + self.interp_faults
            + self.probe_failures
            + self.worker_panics
    }

    /// The counters paired with their sites, in declaration order —
    /// the engine emits one `FaultInjected` event per non-zero entry.
    pub(crate) fn per_site(&self) -> [(FaultSite, usize); 5] {
        [
            (FaultSite::SolverUnknown, self.solver_unknowns),
            (FaultSite::SolverErr, self.solver_errs),
            (FaultSite::InterpFault, self.interp_faults),
            (FaultSite::ProbeFail, self.probe_failures),
            (FaultSite::WorkerPanic, self.worker_panics),
        ]
    }

    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.solver_unknowns += other.solver_unknowns;
        self.solver_errs += other.solver_errs;
        self.interp_faults += other.interp_faults;
        self.probe_failures += other.probe_failures;
        self.worker_panics += other.worker_panics;
    }
}

/// Counts of faults injected into the *durable trace* I/O path during a
/// campaign. Kept separate from [`FaultCounters`] on purpose: trace
/// faults never change campaign behaviour under the default
/// drop-and-count policy (the report fold and the golden parity digests
/// do not see them), they only degrade the on-disk trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceFaultCounters {
    /// Frame writes torn mid-frame ([`FaultSite::TraceShortWrite`]).
    pub short_writes: usize,
    /// Fsync calls failed ([`FaultSite::TraceFsyncFail`]).
    pub fsync_fails: usize,
}

impl TraceFaultCounters {
    /// Total injected trace faults.
    pub fn total(&self) -> usize {
        self.short_writes + self.fsync_fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worker-side sites covered by [`FaultPlan::uniform`]; the two
    /// trace-I/O sites are opted into individually (see `uniform` docs).
    const SITES: [FaultSite; 5] = [
        FaultSite::SolverUnknown,
        FaultSite::SolverErr,
        FaultSite::InterpFault,
        FaultSite::ProbeFail,
        FaultSite::WorkerPanic,
    ];

    const TRACE_SITES: [FaultSite; 2] = [FaultSite::TraceShortWrite, FaultSite::TraceFsyncFail];

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::new(7);
        for site in SITES.into_iter().chain(TRACE_SITES) {
            for key in 0..200 {
                assert!(!plan.roll(site, key));
            }
        }
    }

    #[test]
    fn certain_plan_always_fires() {
        let plan = FaultPlan::uniform(7, 1.0);
        for site in SITES {
            for key in 0..200 {
                assert!(plan.roll(site, key));
            }
        }
    }

    #[test]
    fn uniform_leaves_trace_sites_disabled() {
        let plan = FaultPlan::uniform(7, 1.0);
        for site in TRACE_SITES {
            assert_eq!(plan.probability(site), 0.0);
            assert!(!plan.roll(site, 3));
        }
        let plan = FaultPlan {
            trace_short_write: 1.0,
            trace_fsync_fail: 1.0,
            ..FaultPlan::new(7)
        };
        for site in TRACE_SITES {
            for key in 0..50 {
                assert!(plan.roll(site, key));
            }
        }
    }

    #[test]
    fn trace_counters_total() {
        let c = TraceFaultCounters {
            short_writes: 2,
            fsync_fails: 3,
        };
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn rolls_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::uniform(1, 0.5);
        let b = FaultPlan::uniform(1, 0.5);
        let c = FaultPlan::uniform(2, 0.5);
        let mut differs = false;
        for key in 0..256 {
            for site in SITES {
                assert_eq!(a.roll(site, key), b.roll(site, key));
                differs |= a.roll(site, key) != c.roll(site, key);
            }
        }
        assert!(differs, "different seeds should disagree somewhere");
    }

    #[test]
    fn firing_rate_tracks_probability() {
        let plan = FaultPlan::uniform(42, 0.25);
        let fired = (0..4000)
            .filter(|&k| plan.roll(FaultSite::SolverUnknown, k))
            .count();
        let rate = fired as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
    }

    #[test]
    fn sites_decide_independently() {
        let plan = FaultPlan::uniform(9, 0.5);
        let mut differs = false;
        for key in 0..64 {
            differs |= plan.roll(FaultSite::SolverErr, key) != plan.roll(FaultSite::ProbeFail, key);
        }
        assert!(differs, "sites should not be perfectly correlated");
    }

    #[test]
    fn counters_absorb_and_total() {
        let mut a = FaultCounters {
            solver_unknowns: 1,
            ..FaultCounters::default()
        };
        let b = FaultCounters {
            solver_errs: 2,
            worker_panics: 3,
            ..FaultCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.solver_errs, 2);
        assert_eq!(a.worker_panics, 3);
    }
}
