//! Explicit campaign state and the shard partitioner.
//!
//! [`CampaignState`] is the mutable heart of one directed campaign: the
//! next generation's worklist (frontier), the hashed path-dedup set, and
//! the accumulated `IOF` sample table. Every campaign owns exactly one
//! instance, on the coordinator (merge thread), whatever its shard
//! count: shard passes never hold state of their own, they borrow the
//! generation's snapshot of the sample table.
//!
//! [`Partitioner`] assigns branch-flip targets to shards by their stable
//! path-key hash. It depends on nothing but
//! [`path_key`](super::outcome::path_key) (fixed-key FNV-1a over the
//! expected branch path) and a fixed 64-bit mixer, so the assignment is
//! identical across thread counts, platforms, and toolchains.

use super::outcome::{path_key, Job, Target, TargetOutcome};
use crate::events::CampaignEvent;
use hotg_solver::Samples;
use std::collections::BTreeSet;

/// Mutable state of one directed campaign: the frontier of branch-flip
/// targets, the path-dedup set, and the accumulated `IOF` sample table.
/// Owned by the coordinator (merge thread) for every shard count.
#[derive(Default)]
pub(crate) struct CampaignState {
    /// Next generation's worklist, in canonical (run/expansion) order.
    pub(crate) pending: Vec<Target>,
    /// Stable path-key digests of every expected path already scheduled.
    pub(crate) seen: BTreeSet<u64>,
    /// The accumulated `IOF` sample table.
    pub(crate) samples: Samples,
}

impl CampaignState {
    /// Filters the pending generation through the dedup set
    /// sequentially, in target order — the set is only consulted here,
    /// never from workers, so scheduling cannot affect which targets
    /// survive. Returns the surviving jobs plus the number of dedup
    /// keys this generation newly claimed (`ShardStats::exchange_keys`
    /// sums it over the generations).
    pub(crate) fn filter_generation(&mut self) -> (Vec<Job>, u64) {
        let mut jobs: Vec<Job> = Vec::new();
        let mut fresh = 0;
        for target in std::mem::take(&mut self.pending) {
            let Some(expected) = target.pc.expected_path(target.j) else {
                continue;
            };
            let key = path_key(&expected);
            if !self.seen.insert(key) {
                continue;
            }
            fresh += 1;
            let Some(alt) = target.pc.alt(target.j) else {
                continue;
            };
            let (id, _) = target.pc.entries[target.j].branch.expect("branch entry");
            jobs.push(Job {
                target,
                expected,
                alt,
                id,
            });
        }
        (jobs, fresh)
    }

    /// Folds one merged target outcome into the state: each run's
    /// samples join the table (first writer wins, in run order — the
    /// same order the events are emitted in) and its children extend the
    /// frontier. The event half of the merge is
    /// [`outcome_block`](super::merge::outcome_block); keeping the two
    /// apart lets the coordinator re-emit shard-produced blocks
    /// verbatim.
    pub(crate) fn fold_outcome(&mut self, out: TargetOutcome) {
        for run in out.runs {
            self.samples.merge(&run.samples);
            self.pending.extend(run.children);
        }
    }
}

/// Assigns branch-flip targets to shards by stable path-key hash. The
/// key is already a fixed-key FNV-1a digest of the expected branch path;
/// a fixed 64-bit finalizer (splitmix64) spreads it before the modulo so
/// shard balance does not ride on FNV's low bits.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Partitioner {
    shards: usize,
}

impl Partitioner {
    /// A partitioner over `shards` shards (at least 1).
    pub(crate) fn new(shards: usize) -> Partitioner {
        Partitioner {
            shards: shards.max(1),
        }
    }

    /// The shard that owns a stable path key. Pure: depends only on the
    /// key and the shard count, never on threads, platform, or any
    /// ambient state.
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        (mix64(key) % self.shards as u64) as usize
    }

    /// The shard that owns a job (by its expected path's stable key).
    pub(crate) fn shard_of_job(&self, job: &Job) -> usize {
        self.shard_of(path_key(&job.expected))
    }
}

/// splitmix64's finalizer: a fixed bijective mixer, stable everywhere.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-campaign shard accounting surfaced through the
/// announcement-only [`CampaignEvent::ShardStats`].
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Sample pairs in the table at the last generation cut.
    pub(crate) samples: u64,
    /// Dedup keys newly claimed, summed over the generation cuts.
    pub(crate) keys: u64,
    /// Targets processed per shard.
    pub(crate) per_shard_targets: Vec<u64>,
}

impl ShardCounters {
    pub(crate) fn event(&self, shards: usize) -> CampaignEvent {
        CampaignEvent::ShardStats {
            shards,
            per_shard_targets: self.per_shard_targets.clone(),
            exchange_samples: self.samples,
            exchange_keys: self.keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Partitioner: pure function of the key (repeated calls and fresh
    /// instances agree), every key lands in exactly one shard, and known
    /// fixed points pin the mixer against platform/toolchain drift.
    #[test]
    fn partitioner_is_deterministic_and_total() {
        for shards in [1usize, 2, 3, 4, 8] {
            let p = Partitioner::new(shards);
            let q = Partitioner::new(shards);
            for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
                let s = p.shard_of(key);
                assert!(s < shards);
                assert_eq!(s, q.shard_of(key), "fresh instance agrees");
                assert_eq!(s, p.shard_of(key), "repeated call agrees");
            }
        }
        // The mixer is pure integer arithmetic (no hashing ambient
        // state), so cross-platform stability holds by construction;
        // spot-check it is not degenerate.
        assert_eq!(super::mix64(0), 0);
        assert_ne!(super::mix64(1), super::mix64(2));
        assert_ne!(super::mix64(1), 1);
    }

    /// Synthetic balance: over a large keyset, every shard's share stays
    /// within 2× of perfect balance (the satellite bound).
    #[test]
    fn partitioner_balances_synthetic_keys() {
        let keys: Vec<u64> = {
            // Keys shaped like real path keys: FNV-1a digests of short
            // branch paths.
            let mut out = Vec::new();
            for len in 1..=8usize {
                for bits in 0..(1u64 << len) {
                    let path: Vec<(hotg_lang::BranchId, bool)> = (0..len)
                        .map(|i| (hotg_lang::BranchId(i as u32), bits >> i & 1 == 1))
                        .collect();
                    out.push(path_key(&path));
                }
            }
            out
        };
        for shards in [2usize, 4, 8] {
            let p = Partitioner::new(shards);
            let mut counts = vec![0usize; shards];
            for &k in &keys {
                counts[p.shard_of(k)] += 1;
            }
            let perfect = keys.len() as f64 / shards as f64;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) <= 2.0 * perfect,
                    "shard {i}/{shards} holds {c} of {} keys (perfect {perfect:.1})",
                    keys.len()
                );
            }
        }
    }
}
