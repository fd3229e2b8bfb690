//! Deterministic merging of shard event streams.
//!
//! A sharded campaign produces one event stream per shard (each shard's
//! durable trace — its checkpoint and interchange format) plus the
//! coordinator's canonical stream. Both merges live here:
//!
//! * **online** — the coordinator puts each generation's per-target
//!   blocks from the shard passes back into canonical target order
//!   before re-emitting, so [`fold_report`](crate::fold_report) and
//!   every sink observe exactly the stream a single-shard run would have
//!   emitted;
//! * **offline** — [`merge_shard_streams`] folds N recorded shard
//!   streams into one canonical stream after the fact, using the
//!   canonical ordinals stamped into
//!   [`CampaignEvent::TargetScheduled`]. N shard traces alone are
//!   enough to reconstruct the canonical stream (minus campaign-level
//!   telemetry that lives outside any shard).
//!
//! [`outcome_block`] is the shared emission-order truth: the
//! coordinator's merge step, the shard traces, and the resume replay's
//! verification gate all derive a target's event block from it, so the
//! three can never drift apart.

use super::outcome::{Job, TargetOutcome, WorkerRun};
use crate::chaos::FaultSite;
use crate::events::CampaignEvent;
use crate::report::Origin;

/// The event unit one executed run contributes to the stream: optional
/// static-pruning count, optional injected interpreter fault, optional
/// origin announcement, then the record. Shared by the seed phase and
/// [`outcome_block`].
pub(crate) fn run_unit(run: &WorkerRun) -> Vec<CampaignEvent> {
    let mut unit = Vec::new();
    if run.pruned_static > 0 {
        unit.push(CampaignEvent::TargetsPrunedStatic {
            count: run.pruned_static,
        });
    }
    if run.injected_fault {
        unit.push(CampaignEvent::FaultInjected {
            site: FaultSite::InterpFault,
            count: 1,
        });
    }
    match &run.record.origin {
        Origin::Probe { target } => unit.push(CampaignEvent::ProbeRun { target: *target }),
        Origin::Solved { target } | Origin::Strategy { target, .. } => {
            unit.push(CampaignEvent::TargetSolved { target: *target });
        }
        _ => {}
    }
    unit.push(CampaignEvent::RunExecuted {
        record: Box::new(run.record.clone()),
    });
    unit
}

/// The event sequence the merge step emits for one target's outcome,
/// including the closing [`CampaignEvent::TargetClosed`]: header
/// counters in fixed order, the per-site fault header, fault/degradation
/// announcements, then one unit per executed run.
pub(crate) fn outcome_block(job: &Job, out: &TargetOutcome) -> Vec<CampaignEvent> {
    let mut block = Vec::new();
    if out.solver_calls > 0 {
        block.push(CampaignEvent::SolverQueries {
            count: out.solver_calls,
        });
    }
    if out.rejected_targets > 0 {
        block.push(CampaignEvent::TargetsRejected {
            count: out.rejected_targets,
        });
    }
    if out.solver_errors > 0 {
        block.push(CampaignEvent::SolverErrors {
            count: out.solver_errors,
        });
    }
    for (site, count) in out.faults.per_site() {
        if count > 0 {
            block.push(CampaignEvent::FaultInjected { site, count });
        }
    }
    if out.faulted {
        block.push(CampaignEvent::TargetFaulted { target: job.id });
    }
    if !out.degradations.is_empty() {
        block.push(CampaignEvent::TargetDegraded {
            target: job.id,
            rungs: out.degradations.clone(),
        });
    }
    for run in &out.runs {
        block.extend(run_unit(run));
    }
    block.push(CampaignEvent::TargetClosed { target: job.id });
    block
}

/// One target block of a recorded shard stream: its canonical position
/// within the generation and the events the shard recorded for it.
struct ShardBlock {
    /// The target's position in the generation's canonical job order.
    ordinal: usize,
    /// The block events, exactly as the shard recorded them
    /// ([`outcome_block`] output).
    events: Vec<CampaignEvent>,
}

/// Interleaves each shard's blocks back into canonical generation order.
/// The ordinals must partition `0..width` exactly — the partitioner
/// assigns every job to exactly one shard, so anything else is a
/// corrupt stream, reported rather than silently reordered.
fn interleave(
    per_shard: Vec<Vec<ShardBlock>>,
    width: usize,
) -> Result<Vec<ShardBlock>, MergeError> {
    let mut slots: Vec<Option<ShardBlock>> = (0..width).map(|_| None).collect();
    for blocks in per_shard {
        for b in blocks {
            if b.ordinal >= width {
                return Err(MergeError::OrdinalOutOfRange {
                    ordinal: b.ordinal,
                    width,
                });
            }
            if slots[b.ordinal].is_some() {
                return Err(MergeError::DuplicateOrdinal { ordinal: b.ordinal });
            }
            let ordinal = b.ordinal;
            slots[ordinal] = Some(b);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or(MergeError::MissingOrdinal { ordinal: i }))
        .collect()
}

/// Why shard streams could not be merged back into a canonical stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No streams were given.
    NoStreams,
    /// A stream did not begin with `CampaignStarted` (or streams carry
    /// different campaign preambles).
    PreambleMismatch,
    /// The streams disagree on which generation comes next.
    GenerationDesync,
    /// A stream ended before its campaign finished (crashed shard —
    /// resume it first, then merge).
    TruncatedStream {
        /// Index of the truncated stream.
        shard: usize,
    },
    /// A canonical ordinal outside the generation's width.
    OrdinalOutOfRange {
        /// The offending ordinal.
        ordinal: usize,
        /// The generation's canonical width.
        width: usize,
    },
    /// Two shards claimed the same canonical ordinal.
    DuplicateOrdinal {
        /// The doubly-claimed ordinal.
        ordinal: usize,
    },
    /// No shard claimed a canonical ordinal.
    MissingOrdinal {
        /// The unclaimed ordinal.
        ordinal: usize,
    },
    /// A shard stream was structurally malformed (e.g. a block without
    /// its `TargetClosed` delimiter).
    Malformed {
        /// Index of the malformed stream.
        shard: usize,
    },
    /// A shard trace file could not be recovered.
    Trace(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoStreams => write!(f, "no shard streams to merge"),
            MergeError::PreambleMismatch => write!(f, "shard streams carry different preambles"),
            MergeError::GenerationDesync => write!(f, "shard streams disagree on generations"),
            MergeError::TruncatedStream { shard } => {
                write!(f, "shard {shard} stream is truncated (resume it first)")
            }
            MergeError::OrdinalOutOfRange { ordinal, width } => {
                write!(f, "ordinal {ordinal} outside generation width {width}")
            }
            MergeError::DuplicateOrdinal { ordinal } => {
                write!(f, "ordinal {ordinal} claimed by two shards")
            }
            MergeError::MissingOrdinal { ordinal } => {
                write!(f, "ordinal {ordinal} claimed by no shard")
            }
            MergeError::Malformed { shard } => write!(f, "shard {shard} stream is malformed"),
            MergeError::Trace(e) => write!(f, "shard trace unreadable: {e}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Cursor over one shard stream during the offline merge.
struct Cursor<'a> {
    shard: usize,
    events: &'a [CampaignEvent],
    pos: usize,
}

/// One generation section of a shard stream, as parsed by
/// [`Cursor::generation`]: the generation index, the shard's
/// `TargetScheduled` events, and its outcome blocks.
type GenerationSection<'a> = (usize, Vec<&'a CampaignEvent>, Vec<ShardBlock>);

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a CampaignEvent> {
        self.events.get(self.pos)
    }

    /// The shard's next generation section: `(index, scheduled, blocks)`,
    /// or `None` once the cursor reached the shard's tail.
    fn generation(&mut self) -> Result<Option<GenerationSection<'a>>, MergeError> {
        let Some(CampaignEvent::GenerationStarted { index, width }) = self.peek() else {
            return Ok(None);
        };
        let (index, width) = (*index, *width);
        self.pos += 1;
        let mut scheduled = Vec::new();
        let mut ordinals = Vec::new();
        for _ in 0..width {
            match self.peek() {
                Some(e @ CampaignEvent::TargetScheduled { ordinal, .. }) => {
                    scheduled.push(e);
                    ordinals.push(*ordinal);
                    self.pos += 1;
                }
                _ => return Err(MergeError::Malformed { shard: self.shard }),
            }
        }
        let mut blocks = Vec::new();
        for &ordinal in &ordinals {
            let start = self.pos;
            loop {
                match self.peek() {
                    Some(CampaignEvent::TargetClosed { .. }) => {
                        self.pos += 1;
                        break;
                    }
                    Some(
                        CampaignEvent::GenerationStarted { .. }
                        | CampaignEvent::CampaignStarted { .. }
                        | CampaignEvent::CampaignFinished,
                    )
                    | None => return Err(MergeError::Malformed { shard: self.shard }),
                    Some(_) => self.pos += 1,
                }
            }
            blocks.push(ShardBlock {
                ordinal,
                events: self.events[start..self.pos].to_vec(),
            });
        }
        Ok(Some((index, scheduled, blocks)))
    }
}

/// Folds N recorded shard streams into one canonical
/// [`CampaignEvent`] order: the shared campaign preamble (seed phase)
/// verbatim, every generation's targets re-interleaved by their
/// canonical ordinals, the shard cache totals summed, and one closing
/// `CampaignFinished`.
///
/// The result folds ([`fold_report`](crate::fold_report)) to the same
/// canonical report as the coordinator's stream for a campaign that ran
/// to frontier exhaustion. Campaign-level telemetry that no shard owns
/// (`ExecStats`, session stats, trace-fault tails) is omitted —
/// all of it is announcement-only or excluded from the canonical
/// report.
pub fn merge_shard_streams(
    streams: &[Vec<CampaignEvent>],
) -> Result<Vec<CampaignEvent>, MergeError> {
    if streams.is_empty() {
        return Err(MergeError::NoStreams);
    }
    // Preamble: everything before the first generation (or the tail, for
    // a campaign that never scheduled a generation). Identical across
    // shards by construction — the coordinator broadcasts it.
    let preamble_len = |s: &[CampaignEvent]| {
        s.iter()
            .position(|e| {
                matches!(
                    e,
                    CampaignEvent::GenerationStarted { .. }
                        | CampaignEvent::CacheStats { .. }
                        | CampaignEvent::CampaignFinished
                )
            })
            .unwrap_or(s.len())
    };
    let plen = preamble_len(&streams[0]);
    if !matches!(
        streams[0].first(),
        Some(CampaignEvent::CampaignStarted { .. })
    ) {
        return Err(MergeError::PreambleMismatch);
    }
    for s in streams {
        if preamble_len(s) != plen || s[..preamble_len(s)] != streams[0][..plen] {
            return Err(MergeError::PreambleMismatch);
        }
    }
    let mut merged: Vec<CampaignEvent> = streams[0][..plen].to_vec();
    let mut cursors: Vec<Cursor<'_>> = streams
        .iter()
        .enumerate()
        .map(|(shard, s)| Cursor {
            shard,
            events: s,
            pos: plen,
        })
        .collect();

    loop {
        let mut sections = Vec::with_capacity(cursors.len());
        for c in &mut cursors {
            sections.push(c.generation()?);
        }
        if sections.iter().all(Option::is_none) {
            break;
        }
        if sections.iter().any(Option::is_none) {
            return Err(MergeError::GenerationDesync);
        }
        let sections: Vec<_> = sections.into_iter().flatten().collect();
        let index = sections[0].0;
        if sections.iter().any(|(i, _, _)| *i != index) {
            return Err(MergeError::GenerationDesync);
        }
        let width: usize = sections.iter().map(|(_, s, _)| s.len()).sum();
        merged.push(CampaignEvent::GenerationStarted { index, width });
        let mut scheduled: Vec<&CampaignEvent> = sections
            .iter()
            .flat_map(|(_, s, _)| s.iter().copied())
            .collect();
        scheduled.sort_by_key(|e| match e {
            CampaignEvent::TargetScheduled { ordinal, .. } => *ordinal,
            _ => usize::MAX,
        });
        merged.extend(scheduled.into_iter().cloned());
        let blocks = interleave(sections.into_iter().map(|(_, _, b)| b).collect(), width)?;
        for b in blocks {
            merged.extend(b.events);
        }
    }

    // Tail: shard cache totals sum to the canonical totals (the
    // coordinator issues no solver queries of its own). Each stream must
    // close properly; a missing `CampaignFinished` means a crashed
    // shard.
    let (mut hits, mut misses) = (0u64, 0u64);
    for c in &mut cursors {
        let mut finished = false;
        while let Some(e) = c.peek() {
            match e {
                CampaignEvent::CacheStats { hits: h, misses: m } => {
                    hits += h;
                    misses += m;
                }
                CampaignEvent::CampaignFinished => finished = true,
                _ => {}
            }
            c.pos += 1;
        }
        if !finished {
            return Err(MergeError::TruncatedStream { shard: c.shard });
        }
    }
    merged.push(CampaignEvent::CacheStats { hits, misses });
    merged.push(CampaignEvent::CampaignFinished);
    Ok(merged)
}

/// [`merge_shard_streams`] over the durable trace files of a finished
/// sharded campaign (each recovered with the usual CRC/length framing
/// checks). A truncated or incomplete trace is refused — resume the
/// campaign first, which completes every shard trace.
pub fn merge_shard_traces(paths: &[std::path::PathBuf]) -> Result<Vec<CampaignEvent>, MergeError> {
    let mut streams = Vec::with_capacity(paths.len());
    for (shard, p) in paths.iter().enumerate() {
        let rec = crate::trace::recover(p).map_err(|e| MergeError::Trace(e.to_string()))?;
        if !rec.complete {
            return Err(MergeError::TruncatedStream { shard });
        }
        streams.push(rec.events);
    }
    merge_shard_streams(&streams)
}
