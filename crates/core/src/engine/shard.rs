//! The generational directed search: one coordinator for every shard
//! count.
//!
//! Every whitebox strategy runs SAGE's generational search — seed runs,
//! then breadth-first generations of branch-flip targets — through one
//! loop, [`Engine::directed`]. `DriverConfig::shards` = N splits each
//! generation's targets across N shards by stable path-key hash
//! ([`Partitioner`]); N = 1 is the degenerate case of the same loop,
//! with no partitioning and no shard traces. The loop runs, in order:
//!
//! 1. the seed phase;
//! 2. per generation: the stop test ([`Engine::should_stop`]), the
//!    dedup filter, then `GenerationStarted` / `TargetScheduled`;
//! 3. only when N > 1: the partition and each shard's generation
//!    header in its own trace;
//! 4. one pass per shard: stage-A reconstruction from the shard's
//!    salvaged trace tail while it lasts, live `process_target` after;
//! 5. the in-order merge, with the stop test before every block;
//! 6. one solver-stats tail summed over the shards' solvers
//!    ([`CampaignEvent::ShardStats`] only when N > 1).
//!
//! The **coordinator** (merge thread) does every piece of
//! canonically-ordered sequential work: steps 1–3, 5 and 6, and the
//! in-order fold of target outcomes into the campaign's one
//! [`CampaignState`]. **Shard passes** only do the embarrassingly
//! parallel part — processing a target as a pure function of
//! `(target, sample-table snapshot)`.
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
//! # One sample table
//!
//! The campaign keeps one `IOF` sample table, on the coordinator. At
//! each generation cut the coordinator takes one snapshot of it, and
//! every shard pass borrows that snapshot, so every target is checked
//! against exactly the table an N = 1 campaign would use and per-target
//! outcomes are identical for every N. Shards are threads of one
//! process; there is nothing to exchange. `ShardStats` still reports
//! what a shard would need to be sent: the table size at the last cut
//! (`exchange_samples`; the table only grows) and the dedup keys each
//! cut newly claims (`exchange_keys`).
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
//! announcement-only telemetry (cache hit/miss split, query counters,
//! `ExecStats`) may vary with the schedule.

use super::outcome::{Job, TargetOutcome};
use super::state::{CampaignState, Partitioner, ShardCounters};
use super::{merge, resume, Emitter, Engine, ResumeData};
use crate::events::CampaignEvent;
use crate::report::Origin;
use crate::strategy::Strategy;
use crate::summaries::{SummaryConfig, SummaryTable};
use hotg_solver::{CacheStats, Samples, SmtSolver, ValidityChecker};
use rand::rngs::StdRng;
use rand::SeedableRng;
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
}

/// The campaign-constant inputs of every shard pass.
#[derive(Clone, Copy)]
struct PassCx<'e> {
    engine: &'e Engine<'e>,
    strategy: &'e dyn Strategy,
    summaries: Option<&'e SummaryTable>,
}

/// One shard's pass over its share of a generation: stage-A
/// reconstruction from the shard's salvaged trace tail while it lasts,
/// live processing after, all against the shard's solvers and the
/// generation's sample-table snapshot.
struct ShardPass<'e> {
    cx: PassCx<'e>,
    solvers: &'e Solvers,
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
            &self.solvers.validity,
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

/// What N > 1 adds to the loop: per-shard trace emitters, the
/// partitioner, and the shard accounting.
struct Sharding {
    partitioner: Partitioner,
    stats: ShardCounters,
    ems: Vec<Emitter<'static>>,
}

impl Sharding {
    /// Opens every shard's trace emitter (resuming `resume[i]` when
    /// shard `i`'s salvaged prefix was recovered; missing entries re-run
    /// live).
    fn open(
        engine: &Engine<'_>,
        strategy: &dyn Strategy,
        resume: Vec<Option<ResumeData>>,
    ) -> Sharding {
        let shards = engine.config.shards;
        let mut resume = resume.into_iter();
        Sharding {
            partitioner: Partitioner::new(shards),
            stats: ShardCounters {
                per_shard_targets: vec![0; shards],
                ..ShardCounters::default()
            },
            ems: (0..shards)
                .map(|i| engine.open_emitter(strategy, Some(i), resume.next().flatten(), None))
                .collect(),
        }
    }

    /// Accounts the generation cut (`samples` pairs in the table,
    /// `fresh_keys` dedup keys newly claimed), partitions the generation
    /// by stable path-key hash, and records each shard's generation
    /// header (every shard records every generation, even an empty one —
    /// the offline merger keeps the streams generation-synced). Returns
    /// each shard's share as canonical ordinals.
    fn distribute(
        &mut self,
        samples: usize,
        fresh_keys: u64,
        jobs: &[Job],
        index: usize,
    ) -> Vec<Vec<usize>> {
        self.stats.samples = samples as u64;
        self.stats.keys += fresh_keys;
        let mut shares = vec![Vec::new(); self.ems.len()];
        for (ordinal, job) in jobs.iter().enumerate() {
            let s = self.partitioner.shard_of_job(job);
            self.stats.per_shard_targets[s] += 1;
            shares[s].push(ordinal);
        }
        for (em, share) in self.ems.iter_mut().zip(&shares) {
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

    /// Announces the shard accounting, closes every shard stream
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
        };
        let solvers: Vec<Solvers> = (0..shards).map(|_| self.solvers()).collect();
        let shard_ids: Vec<usize> = (0..shards).collect();
        let mut sharding = (shards > 1).then(|| Sharding::open(self, strategy, shard_resume));
        let mut st = CampaignState::default();

        // At N > 1 the preamble also goes verbatim into every shard
        // trace: each is a self-contained checkpoint.
        self.seed_phase(strategy, &mut st, |e| {
            for shard_em in sharding.iter_mut().flat_map(|x| &mut x.ems) {
                shard_em.emit(e.clone());
            }
            em.emit(e);
        });

        while !st.pending.is_empty() {
            if self.should_stop(em) {
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
            let shares = match &mut sharding {
                Some(x) => x.distribute(st.samples.len(), fresh_keys, &jobs, index),
                None => vec![(0..jobs.len()).collect()],
            };
            // The sample table every target of this generation is
            // checked against, shared by every shard pass (probe runs
            // extend a thread-local copy).
            let snapshot = st.samples.clone();
            let mut passes: Vec<ShardPass<'_>> = solvers
                .iter()
                .map(|s| ShardPass::new(cx, s, &snapshot))
                .collect();
            // Every pass runs up front unless N = 1 and `threads = 1`,
            // where the merge loop pulls shard 0's pass one target at a
            // time. Blocks come back in canonical target order.
            let mut ready = (shards > 1 || threads > 1).then(|| {
                let tails: Vec<&[CampaignEvent]> = match &sharding {
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
                        if let Some(x) = &mut sharding {
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
                if self.should_stop(em) {
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
            queries: solvers.iter().map(|s| s.smt.queries()).sum(),
            intern_hits: self.arena.stats().intern_hits,
        });
        if let Some(x) = sharding {
            x.finish(&solvers, em);
        }
    }

    /// The campaign's one stop test, run before every generation and
    /// before every merged target block (and by the random baseline
    /// before every run): the run budget is spent. It reads only the
    /// report, so where a campaign stops is a pure function of the
    /// program and the configuration.
    pub(crate) fn should_stop(&self, em: &Emitter<'_>) -> bool {
        em.report.runs.len() >= self.config.max_runs
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
