//! The generational directed search: one coordinator for every shard
//! count.
//!
//! Every whitebox strategy runs SAGE's generational search — seed runs,
//! then breadth-first generations of branch-flip targets — through one
//! loop, [`Engine::directed`]. `DriverConfig::shards` = N splits each
//! generation's targets across N shards by stable path-key hash
//! ([`Partitioner`]); N = 1 is the degenerate case of the same loop,
//! with no partitioning, no state exchange and no shard traces. The
//! loop runs, in order:
//!
//! 1. the seed phase;
//! 2. per generation: the stop test ([`Engine::should_stop`]), the
//!    dedup filter, then `GenerationStarted` / `TargetScheduled`;
//! 3. only when N > 1: the [`StateDelta`] broadcast, the partition, and
//!    each shard's generation header in its own trace;
//! 4. one pass per shard: stage-A reconstruction from the shard's
//!    salvaged trace tail while it lasts, live `process_target` after;
//! 5. the in-order merge, with the stop test before every block;
//! 6. one solver-stats tail summed over the shards' solvers
//!    ([`CampaignEvent::ShardStats`] only when N > 1).
//!
//! The **coordinator** (merge thread) does every piece of
//! canonically-ordered sequential work: steps 1–3, 5 and 6, and the
//! in-order fold of target outcomes into [`CampaignState`]. **Shard
//! passes** only do the embarrassingly parallel part — processing a
//! target as a pure function of `(target, sample-table snapshot)`.
//!
//! # Scheduling
//!
//! With N = 1 and `threads = 1`, shard 0's pass runs on the calling
//! thread and the merge loop pulls it one target at a time, so the stop
//! test runs before each target is processed and no target is solved
//! after a stop. Otherwise every pass processes its whole share up
//! front — on a pool of `threads` workers per shard, one scoped thread
//! per shard when N > 1 — and the merge loop stop-tests the finished
//! outcomes in order: a stop then wastes work but never changes the
//! canonical stream.
//!
//! # State exchange
//!
//! At N > 1 each shard holds a [`CampaignState`] *replica* (dedup set +
//! sample table; the frontier stays with the coordinator). At every
//! generation boundary the coordinator broadcasts one [`StateDelta`] —
//! the sample pairs recorded since the last broadcast plus the dedup
//! keys the canonical filter just claimed — and every replica joins it
//! in. Because each replica's content is then exactly the canonical
//! state, the snapshot a shard hands its targets equals the N = 1
//! snapshot, and per-target outcomes are identical. Deltas are lattice
//! joins (order-insensitive, idempotent; see [`super::state`]), which is
//! what makes the exchange protocol safe to extend to out-of-order
//! transports.
//!
//! # Shard traces
//!
//! At N > 1 each shard writes its own durable trace (header digest
//! [`shard_digest`](crate::trace::shard_digest), path
//! [`shard_trace_path`](crate::shard_trace_path)): the campaign preamble
//! (broadcast verbatim to every shard), then per generation a local
//! `GenerationStarted` + the shard's `TargetScheduled` events carrying
//! their *canonical* ordinals, then the shard's target blocks. The trace
//! is the shard's checkpoint: resume replays it through the standard
//! stage-A reconstruction, and the offline [`merge`](super::merge) folds
//! N completed shard traces back into the canonical stream using the
//! recorded ordinals. At N = 1 the canonical trace is the checkpoint.
//!
//! # Determinism argument
//!
//! Solver verdicts cannot differ across shard or thread counts: the SMT
//! node budget is a per-`check` pool, caches are pure functions of their
//! keys, and chaos rolls are keyed by target path / inputs — none of it
//! depends on which solver instance or thread runs the query. The stop
//! test runs on the coordinator against the canonical report at the same
//! per-target merge boundaries for every N, so a mid-generation stop
//! truncates the canonical stream at the same block. Only the
//! announcement-only telemetry (cache hit/miss split, session and
//! backend counters, `ExecStats`) may vary with the schedule.

use super::outcome::{Job, TargetOutcome};
use super::state::{CampaignState, ExchangeStats, Partitioner, StateDelta};
use super::{merge, resume, Emitter, Engine, ResumeData};
use crate::events::CampaignEvent;
use crate::report::Origin;
use crate::strategy::Strategy;
use crate::summaries::{SummaryConfig, SummaryTable};
use hotg_solver::{
    BackendStats, CacheStats, Deadline, Samples, SmtSession, SmtSolver, ValidityChecker,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One shard's solver pair; both intern through the campaign arena.
struct Solvers {
    smt: SmtSolver,
    validity: ValidityChecker,
}

impl Solvers {
    fn cache_stats(&self) -> CacheStats {
        self.smt.cache_stats().merged(self.validity.cache_stats())
    }

    /// Pre-solver cascade totals: the SMT solver's and validity
    /// checker's cascades are distinct (the checker wraps its own
    /// solver), so their counters are summed.
    fn backend_stats(&self) -> Option<BackendStats> {
        join_backend(self.smt.backend_stats(), self.validity.backend_stats())
    }
}

fn join_backend(a: Option<BackendStats>, b: Option<BackendStats>) -> Option<BackendStats> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.merged(b)),
        (a, b) => a.or(b),
    }
}

/// The campaign-constant inputs of every shard pass.
#[derive(Clone, Copy)]
struct PassCx<'e> {
    engine: &'e Engine<'e>,
    strategy: &'e dyn Strategy,
    summaries: Option<&'e SummaryTable>,
    campaign_end: Deadline,
}

/// One shard's pass over its share of a generation: stage-A
/// reconstruction from the shard's salvaged trace tail while it lasts,
/// live processing after, all against one solver session and the
/// generation's sample-table snapshot.
struct ShardPass<'e> {
    cx: PassCx<'e>,
    solvers: &'e Solvers,
    session: SmtSession,
    snapshot: &'e Samples,
    /// Stage A is still on for the lazily pulled pass: every target so
    /// far was reconstructed.
    replaying: bool,
}

impl<'e> ShardPass<'e> {
    fn new(cx: PassCx<'e>, solvers: &'e Solvers, snapshot: &'e Samples) -> ShardPass<'e> {
        ShardPass {
            cx,
            solvers,
            session: SmtSession::for_solver(&solvers.smt),
            snapshot,
            replaying: true,
        }
    }

    /// Rebuilds `job`'s outcome from the recorded events at the head of
    /// `tail`, with the length of its block.
    fn reconstruct(&self, job: &Job, tail: &[CampaignEvent]) -> Option<(TargetOutcome, usize)> {
        resume::reconstruct_outcome(self.cx.engine, self.cx.strategy, job, tail)
    }

    fn live(&self, job: &Job) -> TargetOutcome {
        self.cx.engine.process_target(
            self.cx.strategy,
            job,
            self.snapshot,
            self.cx.summaries,
            &self.solvers.smt,
            &self.session,
            &self.solvers.validity,
            self.cx.campaign_end,
        )
    }

    /// The next target of a lazily pulled pass; `tail` is what remains
    /// of the recorded stream. The first target that cannot be
    /// reconstructed ends stage A for the rest of the generation.
    fn next(&mut self, job: &Job, tail: &[CampaignEvent]) -> TargetOutcome {
        if self.replaying {
            if let Some((out, _)) = self.reconstruct(job, tail) {
                return out;
            }
            self.replaying = false;
        }
        self.live(job)
    }

    /// Processes the whole share up front: stage A in order, then the
    /// live rest on a pool of `threads` workers. Returns the outcomes in
    /// share order.
    fn run(
        &self,
        jobs: &[Job],
        share: &[usize],
        tail: &[CampaignEvent],
        threads: usize,
    ) -> Vec<TargetOutcome> {
        let mut outs = Vec::with_capacity(share.len());
        let mut pos = 0;
        while let Some(&ordinal) = share.get(outs.len()) {
            let Some((out, len)) = self.reconstruct(&jobs[ordinal], &tail[pos..]) else {
                break;
            };
            pos += len;
            outs.push(out);
        }
        let live = &share[outs.len()..];
        outs.extend(run_pool(threads, live, |&ordinal| {
            self.live(&jobs[ordinal])
        }));
        outs
    }
}

/// What N > 1 adds to the loop: per-shard state replicas and trace
/// emitters, the partitioner, and the exchange accounting.
struct Exchange {
    partitioner: Partitioner,
    stats: ExchangeStats,
    /// Lockstep copy of what every replica has been sent so far; the
    /// next broadcast is the canonical table diffed against it.
    broadcast: Samples,
    replicas: Vec<CampaignState>,
    ems: Vec<Emitter<'static>>,
}

impl Exchange {
    /// Opens every shard's trace emitter (resuming `resume[i]` when
    /// shard `i`'s salvaged prefix was recovered; missing entries re-run
    /// live) and empty replicas.
    fn open(
        engine: &Engine<'_>,
        strategy: &dyn Strategy,
        resume: Vec<Option<ResumeData>>,
    ) -> Exchange {
        let shards = engine.config.shards;
        let mut resume = resume.into_iter();
        Exchange {
            partitioner: Partitioner::new(shards),
            stats: ExchangeStats {
                per_shard_targets: vec![0; shards],
                ..ExchangeStats::default()
            },
            broadcast: Samples::new(),
            replicas: (0..shards).map(|_| CampaignState::default()).collect(),
            ems: (0..shards)
                .map(|i| engine.open_emitter(strategy, Some(i), resume.next().flatten(), None))
                .collect(),
        }
    }

    /// Brings every replica up to the canonical state with one
    /// [`StateDelta`], partitions the generation by stable path-key
    /// hash, and records each shard's generation header (every shard
    /// records every generation, even an empty one — the offline merger
    /// keeps the streams generation-synced). Returns each shard's share
    /// as canonical ordinals.
    fn distribute(
        &mut self,
        samples: &Samples,
        fresh_keys: BTreeSet<u64>,
        jobs: &[Job],
        index: usize,
    ) -> Vec<Vec<usize>> {
        let delta = StateDelta {
            samples: samples.diff(&self.broadcast),
            seen: fresh_keys,
        };
        let (ds, dk) = delta.exchange_size();
        self.stats.samples += ds;
        self.stats.keys += dk;
        self.broadcast.apply_delta(&delta.samples);
        let mut shares = vec![Vec::new(); self.ems.len()];
        for (ordinal, job) in jobs.iter().enumerate() {
            let s = self.partitioner.shard_of_job(job);
            self.stats.per_shard_targets[s] += 1;
            shares[s].push(ordinal);
        }
        for ((replica, em), share) in self.replicas.iter_mut().zip(&mut self.ems).zip(&shares) {
            replica.absorb(&delta);
            em.emit(CampaignEvent::GenerationStarted {
                index,
                width: share.len(),
            });
            for &ordinal in share {
                em.emit(CampaignEvent::TargetScheduled {
                    target: jobs[ordinal].id,
                    ordinal,
                });
            }
        }
        shares
    }

    /// Announces the exchange accounting, closes every shard stream
    /// with its own cache totals, and folds each shard's I/O accounting
    /// into the canonical emitter.
    fn finish(self, solvers: &[Solvers], em: &mut Emitter<'_>) {
        em.emit(self.stats.event(self.ems.len()));
        for (mut shard_em, s) in self.ems.into_iter().zip(solvers) {
            let cs = s.cache_stats();
            shard_em.emit(CampaignEvent::CacheStats {
                hits: cs.hits,
                misses: cs.misses,
            });
            shard_em.emit(CampaignEvent::CampaignFinished);
            em.absorb_shard(shard_em);
        }
    }
}

impl Engine<'_> {
    /// The generational directed search shared by every whitebox
    /// strategy, for every shard count (see the [module docs](self)).
    /// `shard_resume[i]` carries shard `i`'s salvaged trace prefix when
    /// a campaign with N > 1 resumes; at N = 1 the replay rides on `em`.
    pub(crate) fn directed(
        &self,
        strategy: &dyn Strategy,
        em: &mut Emitter<'_>,
        shard_resume: Vec<Option<ResumeData>>,
    ) {
        let shards = self.config.shards.max(1);
        let threads = self.config.threads.max(1);
        let summaries = (strategy.profile().summarize_calls && !self.program.functions.is_empty())
            .then(|| SummaryTable::compute(self.program, self.natives, &SummaryConfig::default()));
        let cx = PassCx {
            engine: self,
            strategy,
            summaries: summaries.as_ref(),
            campaign_end: self.campaign_end(),
        };
        let solvers: Vec<Solvers> = (0..shards).map(|_| self.solvers()).collect();
        let shard_ids: Vec<usize> = (0..shards).collect();
        let mut exchange = (shards > 1).then(|| Exchange::open(self, strategy, shard_resume));
        let mut st = CampaignState::default();
        let (mut session_queries, mut session_clauses_reused) = (0u64, 0u64);

        // At N > 1 the preamble also goes verbatim into every shard
        // trace: each is a self-contained checkpoint.
        self.seed_phase(strategy, &mut st, |e| {
            for shard_em in exchange.iter_mut().flat_map(|x| &mut x.ems) {
                shard_em.emit(e.clone());
            }
            em.emit(e);
        });

        while !st.pending.is_empty() {
            if self.should_stop(em, cx.campaign_end) {
                break;
            }
            let (jobs, fresh_keys) = st.filter_generation();
            if jobs.is_empty() {
                break;
            }
            let index = em.report.generation_widths.len();
            em.emit(CampaignEvent::GenerationStarted {
                index,
                width: jobs.len(),
            });
            for (ordinal, job) in jobs.iter().enumerate() {
                em.emit(CampaignEvent::TargetScheduled {
                    target: job.id,
                    ordinal,
                });
            }
            let shares = match &mut exchange {
                Some(x) => x.distribute(&st.samples, fresh_keys, &jobs, index),
                None => vec![(0..jobs.len()).collect()],
            };
            // The sample table every target of this generation is
            // checked against (probe runs extend a thread-local copy).
            let snapshots: Vec<Samples> = match &exchange {
                Some(x) => x.replicas.iter().map(|r| r.samples.clone()).collect(),
                None => vec![st.samples.clone()],
            };
            let mut passes: Vec<ShardPass<'_>> = solvers
                .iter()
                .zip(&snapshots)
                .map(|(s, snapshot)| ShardPass::new(cx, s, snapshot))
                .collect();
            // Every pass runs up front unless N = 1 and `threads = 1`,
            // where the merge loop pulls shard 0's pass one target at a
            // time. Blocks come back in canonical target order.
            let mut ready = (shards > 1 || threads > 1).then(|| {
                let tails: Vec<&[CampaignEvent]> = match &exchange {
                    Some(x) => x.ems.iter().map(Emitter::replay_rest).collect(),
                    None => vec![em.replay_rest()],
                };
                let results = run_pool(shards, &shard_ids, |&i| {
                    passes[i].run(&jobs, &shares[i], tails[i], threads)
                });
                let mut blocks = Vec::with_capacity(jobs.len());
                for (i, outs) in results.into_iter().enumerate() {
                    for (&ordinal, out) in shares[i].iter().zip(outs) {
                        let events = merge::outcome_block(&jobs[ordinal], &out);
                        if let Some(x) = &mut exchange {
                            for e in &events {
                                x.ems[i].emit(e.clone());
                            }
                        }
                        blocks.push((ordinal, events, out));
                    }
                }
                blocks.sort_unstable_by_key(|b| b.0);
                blocks.into_iter()
            });
            let mut stop = false;
            for job in &jobs {
                if self.should_stop(em, cx.campaign_end) {
                    stop = true;
                    break;
                }
                let (events, out) = match &mut ready {
                    Some(blocks) => {
                        let (_, events, out) = blocks.next().expect("one block per target");
                        (events, out)
                    }
                    None => {
                        let out = passes[0].next(job, em.replay_rest());
                        (merge::outcome_block(job, &out), out)
                    }
                };
                for e in events {
                    em.emit(e);
                }
                st.fold_outcome(out);
            }
            for pass in &passes {
                session_queries += pass.session.queries();
                session_clauses_reused += pass.session.clauses_reused();
            }
            // A shard's trace I/O fail-fast stops the canonical campaign
            // at the same merge-boundary granularity as its own.
            if let Some(x) = &exchange {
                if x.ems.iter().any(Emitter::fail_fast_tripped) {
                    em.fail_fast = true;
                }
            }
            if stop {
                break;
            }
        }

        // The shards' solver totals are the campaign totals: the
        // coordinator issues no solver queries of its own.
        let cache = solvers
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merged(s.cache_stats()));
        em.emit(CampaignEvent::CacheStats {
            hits: cache.hits,
            misses: cache.misses,
        });
        em.emit(CampaignEvent::SolverSessionStats {
            queries: session_queries,
            intern_hits: self.arena.stats().intern_hits,
            clauses_reused: session_clauses_reused,
        });
        let backend = solvers
            .iter()
            .fold(None, |acc, s| join_backend(acc, s.backend_stats()));
        if let Some(b) = backend {
            em.emit(CampaignEvent::BackendStats {
                backend: b.backend.to_string(),
                queries: b.queries,
                unsat_short_circuits: b.unsat_short_circuits,
                valid_short_circuits: b.valid_short_circuits,
                sat_short_circuits: b.sat_short_circuits,
            });
        }
        if let Some(x) = exchange {
            x.finish(&solvers, em);
        }
    }

    /// The directed search's one stop test, run before every generation
    /// and before every merged target block (and by the random
    /// baseline before every run): the run budget is spent, a trace I/O
    /// error under fail-fast asked to stop, or the campaign deadline
    /// expired — the last is announced as
    /// [`CampaignEvent::CampaignTimedOut`].
    pub(crate) fn should_stop(&self, em: &mut Emitter<'_>, campaign_end: Deadline) -> bool {
        if em.report.runs.len() >= self.config.max_runs || em.fail_fast_tripped() {
            return true;
        }
        if campaign_end.expired() {
            em.emit(CampaignEvent::CampaignTimedOut);
            return true;
        }
        false
    }

    /// A fresh solver pair on the campaign arena (plus the optional
    /// query tap).
    fn solvers(&self) -> Solvers {
        let smt =
            SmtSolver::with_config(self.config.validity.smt).with_arena(Arc::clone(self.arena));
        let smt = match &self.config.query_log {
            Some(log) => smt.with_recorder(Arc::clone(log)),
            None => smt,
        };
        let validity =
            ValidityChecker::with_config(self.config.validity).with_arena(Arc::clone(self.arena));
        Solvers { smt, validity }
    }

    /// The campaign preamble every directed campaign shares, emitted
    /// through `emit` (at N > 1 into every shard trace as well):
    ///
    /// * UF-placement oracle: native call sites whose arguments are
    ///   statically constant always evaluate the same application, so
    ///   their input/output pair is put into the `IOF` table before the
    ///   first run — a validity proof may then use the pair without a
    ///   probe execution (Figure 3's sampled table, filled eagerly);
    /// * the initial run and the seed-corpus runs, which populate the
    ///   first generation's frontier.
    fn seed_phase(
        &self,
        strategy: &dyn Strategy,
        st: &mut CampaignState,
        mut emit: impl FnMut(CampaignEvent),
    ) {
        let profile = strategy.profile();
        if self.config.static_pruning {
            for site in self.analysis.native_sites() {
                let hotg_analysis::SiteClass::ConstArgs(args) = &site.class else {
                    continue;
                };
                let Some(fsym) = self.ctx.native_sym(&site.name) else {
                    continue;
                };
                if let Ok(out) = self.natives.call(&site.name, args) {
                    st.samples.record(fsym, args.clone(), out);
                    emit(CampaignEvent::SitePresampled);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let initial = self.initial_inputs(&mut rng);
        let run = self.execute_run(initial, Origin::Initial, None, profile);
        for event in merge::run_unit(&run) {
            emit(event);
        }
        st.samples.merge(&run.samples);
        st.pending.extend(run.children);
        for seed_inputs in &self.config.seed_corpus {
            let run = self.execute_run(seed_inputs.clone(), Origin::Seed, None, profile);
            for event in merge::run_unit(&run) {
                emit(event);
            }
            st.samples.merge(&run.samples);
            st.pending.extend(run.children);
        }
    }
}

/// Maps `process` over `items` on a scoped pool of `threads` workers.
/// Worker `w` takes item `w` first and then pulls the rest off an atomic
/// cursor, so with a worker per item (one thread per shard) every item
/// runs on its own thread. Each result goes into its item's slot, so
/// the result order is independent of worker scheduling. One worker or
/// one item runs inline on the calling thread.
fn run_pool<T: Sync, R: Send + Sync>(
    threads: usize,
    items: &[T],
    process: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(process).collect();
    }
    let workers = threads.min(items.len());
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|first| {
                let (slots, cursor, process) = (&slots, &cursor, &process);
                scope.spawn(move || {
                    let mut i = first;
                    while let Some(item) = items.get(i) {
                        slots[i]
                            .set(process(item))
                            .unwrap_or_else(|_| unreachable!("each slot has exactly one owner"));
                        i = cursor.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // An explicit join waits until the OS thread has exited and
        // handed its allocator arena back; leaving the scope alone only
        // waits for the closures, so the next generation's workers
        // could find the arenas still taken and open new ones.
        for h in handles {
            h.join().expect("worker thread panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker populated slot"))
        .collect()
}
