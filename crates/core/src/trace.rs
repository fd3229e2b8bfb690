//! Durable, crash-safe campaign traces.
//!
//! The report is built purely by folding the [`CampaignEvent`] stream,
//! so a durable record of that stream *is* a complete campaign
//! checkpoint. This module provides the three layers of the
//! checkpoint/resume subsystem:
//!
//! 1. **Durable trace writing** ([`TraceWriter`], configured by
//!    [`DriverConfig::trace`](crate::DriverConfig::trace)): a framed
//!    binary file — an 8-byte magic, then frames of
//!    `[u32 LE payload length][u32 LE CRC32 of payload][payload]` —
//!    whose first frame is a versioned campaign header (program name +
//!    digest, config digest, technique, seed) and whose remaining
//!    frames carry one event each as the same JSON object the JSONL
//!    trace writes, sequence-numbered from 0. Writes are batched and
//!    made durable per the configured [`FsyncPolicy`].
//!
//! 2. **Corruption-tolerant recovery** ([`recover`]): salvages the
//!    longest valid prefix of event frames — stopping at a truncated
//!    tail, a torn frame, a CRC mismatch, an undecodable payload, or a
//!    sequence gap — and reports exactly what was discarded
//!    ([`RecoveryReport`]). Never panics on arbitrary bytes.
//!
//! 3. **Resume** ([`Driver::resume`](crate::Driver::resume)): re-runs
//!    the campaign with the salvaged prefix as a replay cursor; because
//!    the engine is deterministic, the replayed events match the
//!    recorded ones and the campaign continues from the crash point,
//!    producing a report bit-identical to an uninterrupted run. On
//!    divergence from the recorded prefix's end, the trace file is
//!    truncated at the last consumed frame boundary and appended to, so
//!    the trace stays a valid checkpoint throughout.
//!
//! Error policy: trace I/O failures are surfaced as structured
//! facts — counted into
//! [`Report::sink_errors`](crate::Report::sink_errors) and (for
//! injected faults) [`Report::trace_faults`](crate::Report::trace_faults)
//! — never silently swallowed. Under
//! [`TraceErrorPolicy::DropAndCount`] (default) the first write error
//! permanently disables the writer and the campaign continues; under
//! [`TraceErrorPolicy::FailFast`] the campaign stops at the next merge
//! boundary.

use crate::chaos::{FaultPlan, FaultSite};
use crate::config::Technique;
use crate::events::{json_str, CampaignEvent};
use crate::report::{DegradationLevel, DegradationReason, DegradationRecord, Origin, RunRecord};
use hotg_lang::{BranchId, Fault, FaultKind, Outcome, Program};
use hotg_logic::StableHasher;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic identifying version 1 of the framed trace format.
pub const TRACE_MAGIC: &[u8; 8] = b"HOTGTRC1";

/// Header version string carried inside the header frame; a trace of
/// any other version is refused. Version 2 added the canonical
/// `ordinal` to `target_scheduled` frames (the shard-merge key) and the
/// `shard_stats` event. Version 3: `program_rejected` replaces the
/// bytecode-fallback event, `exec_stats` drops its tree-walker run
/// count, `backend_stats` drops its `backend` name, and the header's
/// program digest is taken over the program's source text.
const TRACE_VERSION: &str = "hotg-trace/3";

/// Sanity cap on a frame's claimed payload length: no event of a real
/// campaign comes anywhere near it, so a larger length field means the
/// frame is corrupt (and must not drive a huge allocation).
const FRAME_SANITY: usize = 1 << 28;

/// Nesting limit of the JSON parser. The deepest payload the encoder
/// writes nests three levels (a `run_executed` object, its `path`
/// array, one `[site,dir]` pair), so anything deeper is corruption —
/// and must not drive the recursive-descent parser into a stack
/// overflow.
const JSON_MAX_DEPTH: usize = 8;

/// Buffered bytes before an un-synced flush under lazy fsync policies.
const FLUSH_THRESHOLD: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Checksums and digests
// ---------------------------------------------------------------------------

/// IEEE CRC32 lookup table, built at compile time (no external crates).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 (the zlib/PNG polynomial) of `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Digest of a program's full structure, taken over its pretty-printed
/// source ([`hotg_lang::pretty::to_source`], whose contract is
/// `parse(to_source(p)) == p`). It changes whenever the program under
/// test does, but not with source formatting: parser spans are not
/// part of the program (`Program`'s `PartialEq` ignores them too).
pub(crate) fn program_digest(program: &Program) -> u64 {
    StableHasher::digest(hotg_lang::pretty::to_source(program).as_bytes())
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// When the durable trace is made crash-durable with `fdatasync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Flush and sync after every event frame. Maximum durability — at
    /// most the in-flight event is lost — at maximum I/O cost.
    EveryEvent,
    /// Flush and sync at generation boundaries (on each
    /// `GenerationStarted` and on `CampaignFinished`). A crash loses at
    /// most the current generation's events; the trace overhead stays
    /// negligible. The default.
    EveryGeneration,
    /// Sync only when the trace is closed at campaign end; frames are
    /// still flushed when the write buffer exceeds 1 MiB. Cheapest;
    /// a crash can lose everything since the last buffer flush.
    Close,
}

impl FsyncPolicy {
    /// Stable kebab-case name (used by the header and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::EveryEvent => "every-event",
            FsyncPolicy::EveryGeneration => "every-generation",
            FsyncPolicy::Close => "close",
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "every-event" => Ok(FsyncPolicy::EveryEvent),
            "every-generation" => Ok(FsyncPolicy::EveryGeneration),
            "close" => Ok(FsyncPolicy::Close),
            other => Err(format!(
                "unknown fsync policy `{other}` (expected one of: \
                 every-event, every-generation, close)"
            )),
        }
    }
}

/// What a trace write error does to the campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceErrorPolicy {
    /// Count the error into [`Report::sink_errors`](crate::Report::sink_errors),
    /// permanently disable the writer (a torn frame already ends the
    /// salvageable prefix, so later frames could never be recovered
    /// anyway), and continue the campaign. The default.
    #[default]
    DropAndCount,
    /// Count the error, disable the writer, and stop the campaign at
    /// the next merge boundary — for callers that would rather have a
    /// partial campaign than an untraced one.
    FailFast,
}

/// Configuration of the durable campaign trace
/// ([`DriverConfig::trace`](crate::DriverConfig::trace)).
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Trace file path. Created (truncating) when a campaign starts;
    /// truncated to the consumed prefix and appended to on resume.
    pub path: PathBuf,
    /// Durability policy. Default [`FsyncPolicy::EveryGeneration`].
    pub fsync: FsyncPolicy,
    /// Write-error policy. Default [`TraceErrorPolicy::DropAndCount`].
    pub on_error: TraceErrorPolicy,
    /// Chaos hook: simulate the process dying while writing event
    /// number N — half of that event's frame reaches the file, nothing
    /// later ever does, and *no* error is surfaced (a real crash
    /// reports nothing). The campaign itself continues, so tests get
    /// both the torn trace and the uninterrupted report to compare
    /// resume against.
    pub chaos_kill_at_event: Option<u64>,
    /// Which shard's trace writer [`TraceConfig::chaos_kill_at_event`]
    /// applies to in a sharded campaign (`DriverConfig::shards` > 1):
    /// `Some(i)` kills shard `i`'s writer, leaving the coordinator's
    /// canonical trace and every other shard trace intact — the
    /// single-crashed-shard scenario resume tests exercise. `None`
    /// (default) applies the kill to the canonical trace, as in a
    /// single-shard campaign.
    pub chaos_kill_shard: Option<usize>,
}

impl TraceConfig {
    /// A durable trace at `path` with default policies.
    pub fn new(path: impl Into<PathBuf>) -> TraceConfig {
        TraceConfig {
            path: path.into(),
            fsync: FsyncPolicy::EveryGeneration,
            on_error: TraceErrorPolicy::DropAndCount,
            chaos_kill_at_event: None,
            chaos_kill_shard: None,
        }
    }
}

/// The trace path of shard `index` of a sharded campaign whose
/// canonical trace lives at `base`: `<base>.shard<index>-of-<shards>`.
/// Each shard's durable trace is its checkpoint and interchange format;
/// together the N shard traces reconstruct the canonical stream
/// ([`merge_shard_traces`](crate::merge_shard_traces)).
pub fn shard_trace_path(base: &Path, index: usize, shards: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{index}-of-{shards}"));
    PathBuf::from(name)
}

/// The config digest recorded in shard `index`'s trace header: the
/// campaign's [`resume_digest`](crate::DriverConfig::resume_digest)
/// mixed with the shard coordinates, so a shard trace can never be
/// resumed as a different shard (or as the canonical trace) of the
/// same campaign.
pub(crate) fn shard_digest(config_digest: u64, index: usize, shards: usize) -> u64 {
    StableHasher::digest(format!("{config_digest:016x}/shard{index}-of-{shards}").as_bytes())
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// The campaign header carried in frame 0 of a durable trace. Resume
/// refuses a trace whose identity fields mismatch the resuming driver —
/// replaying events recorded under a different program, configuration,
/// or technique could not reproduce the recorded prefix.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// Program name (informational; the digest is authoritative).
    pub program: String,
    /// FNV-1a digest of the program's full structure.
    pub program_digest: u64,
    /// Digest of the result-determining `DriverConfig` fields
    /// ([`DriverConfig::resume_digest`](crate::DriverConfig::resume_digest)).
    pub config_digest: u64,
    /// Technique the campaign runs.
    pub technique: Technique,
    /// Campaign seed (informational; also covered by the config digest).
    pub seed: u64,
    /// Fsync policy the trace was written under (informational).
    pub fsync: FsyncPolicy,
}

impl TraceHeader {
    /// Renders the header as the JSON payload of frame 0.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"trace\":\"{TRACE_VERSION}\",\"program\":{},\
             \"program_digest\":\"{:016x}\",\"config_digest\":\"{:016x}\",\
             \"technique\":\"{}\",\"seed\":{},\"fsync\":\"{}\"}}",
            json_str(&self.program),
            self.program_digest,
            self.config_digest,
            self.technique.name(),
            self.seed,
            self.fsync.name(),
        )
    }

    /// Parses a frame-0 payload. `None` on any malformation, including
    /// an unknown trace version.
    pub(crate) fn from_json(payload: &str) -> Option<TraceHeader> {
        let v = parse_json(payload)?;
        if v.str_field("trace")? != TRACE_VERSION {
            return None;
        }
        Some(TraceHeader {
            program: v.str_field("program")?.to_string(),
            program_digest: u64::from_str_radix(v.str_field("program_digest")?, 16).ok()?,
            config_digest: u64::from_str_radix(v.str_field("config_digest")?, 16).ok()?,
            technique: v.str_field("technique")?.parse().ok()?,
            seed: v.u64_field("seed")?,
            fsync: v.str_field("fsync")?.parse().ok()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends length+CRC framed event records to the durable trace file,
/// honouring the fsync policy and the chaos fault sites.
#[derive(Debug)]
pub(crate) struct TraceWriter {
    file: File,
    buf: Vec<u8>,
    /// Sequence number of the next event frame.
    seq: u64,
    fsync: FsyncPolicy,
    plan: Option<FaultPlan>,
    kill_at: Option<u64>,
    /// Set once the writer has simulated process death (`kill_at`): all
    /// further writes silently do nothing, like a dead process would.
    dead: bool,
    /// Ordinal of the next event-driven fsync (the chaos key for
    /// [`FaultSite::TraceFsyncFail`]).
    sync_ordinal: u64,
    short_writes: usize,
    fsync_fails: usize,
}

/// Appends one `[len][crc][payload]` frame to `buf`.
fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

impl TraceWriter {
    /// Creates (truncating) a trace file and durably writes the magic
    /// plus the header frame. The header write itself is not subject to
    /// chaos injection: the chaos sites model mid-campaign I/O faults,
    /// and a trace without a header is unrecoverable by definition.
    pub(crate) fn create(
        path: &Path,
        header: &TraceHeader,
        fsync: FsyncPolicy,
        plan: Option<FaultPlan>,
        kill_at: Option<u64>,
    ) -> io::Result<TraceWriter> {
        let file = File::create(path)?;
        let mut w = TraceWriter {
            file,
            buf: Vec::with_capacity(4096),
            seq: 0,
            fsync,
            plan,
            kill_at,
            dead: false,
            sync_ordinal: 0,
            short_writes: 0,
            fsync_fails: 0,
        };
        w.buf.extend_from_slice(TRACE_MAGIC);
        push_frame(&mut w.buf, w_header_json(header).as_bytes());
        w.flush_buf()?;
        w.file.sync_data()?;
        Ok(w)
    }

    /// Reopens an existing trace for resume: truncates it to
    /// `end_offset` (the last consumed frame boundary) and appends from
    /// there with event sequence numbers continuing at `next_seq`.
    pub(crate) fn append(
        path: &Path,
        end_offset: u64,
        next_seq: u64,
        fsync: FsyncPolicy,
        plan: Option<FaultPlan>,
        kill_at: Option<u64>,
    ) -> io::Result<TraceWriter> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(end_offset)?;
        file.seek(SeekFrom::Start(end_offset))?;
        file.sync_data()?;
        Ok(TraceWriter {
            file,
            buf: Vec::with_capacity(4096),
            seq: next_seq,
            fsync,
            plan,
            kill_at,
            dead: false,
            sync_ordinal: 0,
            short_writes: 0,
            fsync_fails: 0,
        })
    }

    /// Writes one event frame. `sync_point` marks the events the
    /// `EveryGeneration` policy syncs on.
    pub(crate) fn write_event(
        &mut self,
        event: &CampaignEvent,
        sync_point: bool,
    ) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        let payload = event.to_json(self.seq);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        push_frame(&mut frame, payload.as_bytes());
        if self.kill_at == Some(self.seq) {
            // Simulated process death mid-write: half the frame lands,
            // nothing else ever will, and nobody is told.
            self.buf.extend_from_slice(&frame[..frame.len() / 2]);
            let _ = self.flush_buf();
            let _ = self.file.sync_data();
            self.dead = true;
            return Ok(());
        }
        if self.roll(FaultSite::TraceShortWrite, self.seq) {
            self.short_writes += 1;
            self.buf.extend_from_slice(&frame[..frame.len() / 2]);
            let _ = self.flush_buf();
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "chaos: injected short trace write",
            ));
        }
        self.buf.extend_from_slice(&frame);
        self.seq += 1;
        match self.fsync {
            FsyncPolicy::EveryEvent => {
                self.flush_buf()?;
                self.sync()?;
            }
            FsyncPolicy::EveryGeneration if sync_point => {
                self.flush_buf()?;
                self.sync()?;
            }
            _ => {
                if self.buf.len() >= FLUSH_THRESHOLD {
                    self.flush_buf()?;
                }
            }
        }
        Ok(())
    }

    /// Flushes buffered frames and makes the trace durable (campaign
    /// end).
    pub(crate) fn finish(&mut self) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        self.flush_buf()?;
        self.sync()
    }

    /// Faults injected at [`FaultSite::TraceShortWrite`].
    pub(crate) fn injected_short_writes(&self) -> usize {
        self.short_writes
    }

    /// Faults injected at [`FaultSite::TraceFsyncFail`].
    pub(crate) fn injected_fsync_fails(&self) -> usize {
        self.fsync_fails
    }

    fn roll(&self, site: FaultSite, key: u64) -> bool {
        self.plan.as_ref().is_some_and(|p| p.roll(site, key))
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        let res = self.file.write_all(&self.buf);
        self.buf.clear();
        res
    }

    fn sync(&mut self) -> io::Result<()> {
        let ord = self.sync_ordinal;
        self.sync_ordinal += 1;
        if self.roll(FaultSite::TraceFsyncFail, ord) {
            self.fsync_fails += 1;
            return Err(io::Error::other("chaos: injected fsync failure"));
        }
        self.file.sync_data()
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        // Best-effort: events already handed to a live writer should
        // reach the file even if the campaign path forgot to `finish`.
        if !self.dead {
            let _ = self.flush_buf();
        }
    }
}

fn w_header_json(header: &TraceHeader) -> String {
    header.to_json()
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Why a resume attempt failed before any campaign work started.
#[derive(Debug)]
pub enum ResumeError {
    /// The trace file could not be read.
    Io(io::Error),
    /// [`Driver::resume`](crate::Driver::resume) was called without a
    /// [`DriverConfig::trace`](crate::DriverConfig::trace) configured.
    NoTraceConfigured,
    /// The trace is not a readable version-1 trace (bad magic, torn or
    /// corrupt header frame, unknown version). Event-frame corruption
    /// is *not* an error — it is salvaged around — but a trace whose
    /// header cannot be read identifies no campaign to resume.
    Malformed(String),
    /// The trace's campaign header does not match the resuming driver.
    HeaderMismatch {
        /// Which identity field mismatched (`"program"`,
        /// `"config_digest"`, `"technique"`).
        field: &'static str,
        /// Value the resuming driver expected.
        expected: String,
        /// Value recorded in the trace.
        found: String,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "trace I/O error: {e}"),
            ResumeError::NoTraceConfigured => {
                write!(f, "resume requires DriverConfig::trace to be set")
            }
            ResumeError::Malformed(m) => write!(f, "malformed trace: {m}"),
            ResumeError::HeaderMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "trace header mismatch: {field} is `{found}` but the \
                 resuming driver has `{expected}`"
            ),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// What [`recover`] salvaged from a trace file (internal form; the
/// public summary is [`RecoveryReport`]).
#[derive(Debug)]
pub(crate) struct Recovery {
    pub(crate) header: TraceHeader,
    /// The longest valid prefix of recorded events, in order.
    pub(crate) events: Vec<CampaignEvent>,
    /// Byte offset of the *end* of each salvaged event frame
    /// (`ends[i]` = offset just past event `i`), for truncate-on-resume.
    pub(crate) ends: Vec<u64>,
    /// Byte offset just past the header frame.
    pub(crate) header_end: u64,
    /// Bytes past the salvaged prefix (zero for an undamaged trace).
    pub(crate) bytes_discarded: u64,
    /// Frames those bytes plausibly contained (the torn/corrupt frame
    /// plus any length-walkable frames after it — a lower bound, since
    /// a corrupted length field ends the walk).
    pub(crate) frames_discarded: usize,
    /// Human-readable description of the first damage encountered.
    pub(crate) damage: Option<String>,
    /// Whether the salvaged prefix ends in `CampaignFinished` (the
    /// trace records a complete campaign).
    pub(crate) complete: bool,
}

/// Public summary of what recovery salvaged and what resume replayed.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Event frames salvaged from the trace.
    pub frames_salvaged: usize,
    /// Salvaged events consumed by deterministic replay (the rest —
    /// normally zero — were discarded as diverging from the engine's
    /// re-derived stream).
    pub events_replayed: usize,
    /// Bytes past the salvaged prefix that were discarded.
    pub bytes_discarded: u64,
    /// Plausible frame count in the discarded bytes (lower bound).
    pub frames_discarded: usize,
    /// Whether the trace recorded a complete campaign (resume then
    /// rebuilds the report without re-running anything).
    pub complete: bool,
    /// Description of the first damage encountered, if any.
    pub damage: Option<String>,
}

/// Reads one frame at `off`. Returns the payload string and the offset
/// just past the frame.
fn read_frame(data: &[u8], off: usize) -> Result<(&str, usize), String> {
    let remaining = data.len() - off;
    if remaining < 8 {
        return Err(format!("torn frame header ({remaining} trailing bytes)"));
    }
    let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
    if len > FRAME_SANITY {
        return Err(format!("implausible frame length {len}"));
    }
    if len > remaining - 8 {
        return Err(format!(
            "truncated frame (claims {len} payload bytes, {} remain)",
            remaining - 8
        ));
    }
    let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
    let payload = &data[off + 8..off + 8 + len];
    if crc32(payload) != crc {
        return Err("CRC mismatch".to_string());
    }
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    Ok((text, off + 8 + len))
}

/// Lower bound on the number of frames in the discarded region: the
/// damaged frame itself, plus every following region the (possibly
/// intact) length fields let us walk.
fn count_plausible_frames(data: &[u8], mut off: usize) -> usize {
    let mut n = 0;
    while off < data.len() {
        n += 1;
        if off + 8 > data.len() {
            break;
        }
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        if len > FRAME_SANITY || off + 8 + len > data.len() {
            break;
        }
        off += 8 + len;
    }
    n
}

/// Salvages the longest valid prefix of a durable trace. Returns an
/// error only when the trace identifies no campaign at all (unreadable
/// file, bad magic, unreadable header); any damage *after* the header
/// is tolerated and reported in the [`Recovery`].
pub(crate) fn recover(path: &Path) -> Result<Recovery, ResumeError> {
    salvage(&std::fs::read(path).map_err(ResumeError::Io)?)
}

/// [`recover`] on the bytes of a trace file.
fn salvage(data: &[u8]) -> Result<Recovery, ResumeError> {
    if data.len() < TRACE_MAGIC.len() || &data[..TRACE_MAGIC.len()] != TRACE_MAGIC {
        return Err(ResumeError::Malformed(
            "missing HOTGTRC1 magic (not a durable campaign trace)".to_string(),
        ));
    }
    let (header_payload, header_end) = read_frame(data, TRACE_MAGIC.len())
        .map_err(|e| ResumeError::Malformed(format!("header frame: {e}")))?;
    let header = TraceHeader::from_json(header_payload)
        .ok_or_else(|| ResumeError::Malformed("undecodable header frame".to_string()))?;
    let mut events = Vec::new();
    let mut ends = Vec::new();
    let mut off = header_end;
    let mut damage = None;
    while off < data.len() {
        match read_frame(data, off) {
            Ok((payload, end)) => match decode_event(payload, events.len() as u64) {
                Some(event) => {
                    events.push(event);
                    ends.push(end as u64);
                    off = end;
                }
                None => {
                    damage = Some(format!(
                        "frame {} at byte {off}: undecodable event payload",
                        events.len()
                    ));
                    break;
                }
            },
            Err(e) => {
                damage = Some(format!("frame {} at byte {off}: {e}", events.len()));
                break;
            }
        }
    }
    let bytes_discarded = (data.len() - off) as u64;
    let frames_discarded = if damage.is_some() {
        count_plausible_frames(data, off)
    } else {
        0
    };
    let complete = matches!(events.last(), Some(CampaignEvent::CampaignFinished));
    Ok(Recovery {
        header,
        events,
        ends,
        header_end: header_end as u64,
        bytes_discarded,
        frames_discarded,
        damage,
        complete,
    })
}

// ---------------------------------------------------------------------------
// Minimal JSON parsing (no external crates)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are integral (`i128`): the event
/// serialization never emits fractions or exponents, so anything else
/// is corruption.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(i128),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn num_field(&self, key: &str) -> Option<i128> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn u64_field(&self, key: &str) -> Option<u64> {
        u64::try_from(self.num_field(key)?).ok()
    }

    pub(crate) fn usize_field(&self, key: &str) -> Option<usize> {
        usize::try_from(self.num_field(key)?).ok()
    }

    pub(crate) fn i64_field(&self, key: &str) -> Option<i64> {
        i64::try_from(self.num_field(key)?).ok()
    }

    pub(crate) fn bool_field(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn arr_field(&self, key: &str) -> Option<&[Json]> {
        match self.get(key)? {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn target_field(&self, key: &str) -> Option<BranchId> {
        Some(BranchId(u32::try_from(self.num_field(key)?).ok()?))
    }
}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). `None` on any malformation, including
/// nesting deeper than [`JSON_MAX_DEPTH`].
pub(crate) fn parse_json(text: &str) -> Option<Json> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return None;
    }
    Some(v)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn eat_lit(&mut self, lit: &[u8]) -> Option<()> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b @ (b'{' | b'[') => {
                if self.depth == JSON_MAX_DEPTH {
                    return None;
                }
                self.depth += 1;
                let v = if b == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Some(Json::Str(self.string()?)),
            b't' => self.eat_lit(b"true").map(|()| Json::Bool(true)),
            b'f' => self.eat_lit(b"false").map(|()| Json::Bool(false)),
            b'n' => self.eat_lit(b"null").map(|()| Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(Json::Obj(fields));
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b']')?;
            return Some(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 5 > self.bytes.len() {
                                return None;
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                b => {
                    // Multi-byte UTF-8 sequences pass through verbatim;
                    // the payload was validated as UTF-8 by the caller.
                    let start = self.pos;
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return None,
                    };
                    if start + width > self.bytes.len() {
                        return None;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..start + width]).ok()?);
                    self.pos += width;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start || (self.pos == start + 1 && self.bytes[start] == b'-') {
            return None;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        Some(Json::Num(text.parse().ok()?))
    }
}

// ---------------------------------------------------------------------------
// Event decoding (the exact inverse of `CampaignEvent::to_json`)
// ---------------------------------------------------------------------------

fn decode_fault_site(name: &str) -> Option<FaultSite> {
    Some(match name {
        "SolverUnknown" => FaultSite::SolverUnknown,
        "SolverErr" => FaultSite::SolverErr,
        "InterpFault" => FaultSite::InterpFault,
        "ProbeFail" => FaultSite::ProbeFail,
        "WorkerPanic" => FaultSite::WorkerPanic,
        "TraceShortWrite" => FaultSite::TraceShortWrite,
        "TraceFsyncFail" => FaultSite::TraceFsyncFail,
        _ => return None,
    })
}

fn decode_fault_kind(label: &str) -> Option<FaultKind> {
    Some(match label {
        "div-by-zero" => FaultKind::DivByZero,
        "overflow" => FaultKind::Overflow,
        "out-of-bounds" => FaultKind::OutOfBounds,
        "fuel-exhausted" => FaultKind::FuelExhausted,
        "native-error" => FaultKind::NativeError,
        "injected" => FaultKind::Injected,
        "other" => FaultKind::Other,
        _ => return None,
    })
}

fn decode_level(label: &str) -> Option<DegradationLevel> {
    Some(match label {
        "sound-concretize" => DegradationLevel::Sound,
        "unsound-concretize" => DegradationLevel::Unsound,
        _ => return None,
    })
}

fn decode_reason(name: &str) -> Option<DegradationReason> {
    Some(match name {
        "SolverUnknown" => DegradationReason::SolverUnknown,
        "SolverError" => DegradationReason::SolverError,
        _ => return None,
    })
}

fn decode_origin(v: &Json) -> Option<Origin> {
    Some(match v.str_field("kind")? {
        "initial" => Origin::Initial,
        "seed" => Origin::Seed,
        "random" => Origin::Random,
        "solved" => Origin::Solved {
            target: v.target_field("target")?,
        },
        "strategy" => Origin::Strategy {
            target: v.target_field("target")?,
            strategy: v.str_field("strategy")?.to_string(),
        },
        "probe" => Origin::Probe {
            target: v.target_field("target")?,
        },
        "degraded" => Origin::Degraded {
            target: v.target_field("target")?,
            level: decode_level(v.str_field("level")?)?,
        },
        _ => return None,
    })
}

fn decode_outcome(v: &Json) -> Option<Outcome> {
    Some(match v.str_field("kind")? {
        "returned" => Outcome::Returned,
        "error" => Outcome::Error(v.i64_field("code")?),
        "out_of_fuel" => Outcome::OutOfFuel,
        "fault" => Outcome::RuntimeFault(Fault::new(
            decode_fault_kind(v.str_field("fault_kind")?)?,
            v.str_field("message")?.to_string(),
        )),
        _ => return None,
    })
}

fn decode_path(items: &[Json]) -> Option<Vec<(BranchId, bool)>> {
    let mut path = Vec::with_capacity(items.len());
    for item in items {
        let Json::Arr(pair) = item else { return None };
        let [Json::Num(id), Json::Bool(dir)] = pair.as_slice() else {
            return None;
        };
        path.push((BranchId(u32::try_from(*id).ok()?), *dir));
    }
    Some(path)
}

fn decode_run_record(v: &Json) -> Option<RunRecord> {
    let inputs = v
        .arr_field("inputs")?
        .iter()
        .map(|item| match item {
            Json::Num(n) => i64::try_from(*n).ok(),
            _ => None,
        })
        .collect::<Option<Vec<i64>>>()?;
    let path = decode_path(v.arr_field("path")?)?;
    if v.usize_field("path_len")? != path.len() {
        return None;
    }
    Some(RunRecord {
        inputs,
        outcome: decode_outcome(v.get("outcome")?)?,
        origin: decode_origin(v.get("origin")?)?,
        diverged: match v.get("diverged") {
            None => None,
            Some(Json::Bool(b)) => Some(*b),
            Some(_) => return None,
        },
        path,
    })
}

/// Decodes one event frame payload, checking that its embedded sequence
/// number equals `expect_seq` (frames must form a gapless prefix).
/// Lossless inverse of [`CampaignEvent::to_json`]: for every event,
/// `decode_event(&ev.to_json(s), s) == Some(ev)` — the resume replay's
/// event-equality matching depends on this.
pub(crate) fn decode_event(payload: &str, expect_seq: u64) -> Option<CampaignEvent> {
    let v = parse_json(payload)?;
    if v.u64_field("seq")? != expect_seq {
        return None;
    }
    Some(match v.str_field("event")? {
        "campaign_started" => CampaignEvent::CampaignStarted {
            technique: v.str_field("technique")?.parse().ok()?,
            program: v.str_field("program")?.to_string(),
            branch_sites: u32::try_from(v.num_field("branch_sites")?).ok()?,
        },
        "program_rejected" => CampaignEvent::ProgramRejected {
            reason: v.str_field("reason")?.to_string(),
        },
        "site_presampled" => CampaignEvent::SitePresampled,
        "generation_started" => CampaignEvent::GenerationStarted {
            index: v.usize_field("index")?,
            width: v.usize_field("width")?,
        },
        "target_scheduled" => CampaignEvent::TargetScheduled {
            target: v.target_field("target")?,
            ordinal: v.usize_field("ordinal")?,
        },
        "shard_stats" => CampaignEvent::ShardStats {
            shards: v.usize_field("shards")?,
            per_shard_targets: v
                .arr_field("per_shard_targets")?
                .iter()
                .map(|t| match t {
                    Json::Num(n) => u64::try_from(*n).ok(),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()?,
            exchange_samples: v.u64_field("exchange_samples")?,
            exchange_keys: v.u64_field("exchange_keys")?,
        },
        "solver_queries" => CampaignEvent::SolverQueries {
            count: v.usize_field("count")?,
        },
        "target_solved" => CampaignEvent::TargetSolved {
            target: v.target_field("target")?,
        },
        "targets_rejected" => CampaignEvent::TargetsRejected {
            count: v.usize_field("count")?,
        },
        "solver_errors" => CampaignEvent::SolverErrors {
            count: v.usize_field("count")?,
        },
        "budget_escalations" => CampaignEvent::BudgetEscalations {
            count: v.usize_field("count")?,
        },
        "fault_injected" => CampaignEvent::FaultInjected {
            site: decode_fault_site(v.str_field("site")?)?,
            count: v.usize_field("count")?,
        },
        "target_faulted" => CampaignEvent::TargetFaulted {
            target: v.target_field("target")?,
        },
        "target_degraded" => {
            let rungs = v
                .arr_field("rungs")?
                .iter()
                .map(|r| {
                    Some(DegradationRecord {
                        target: r.target_field("target")?,
                        reason: decode_reason(r.str_field("reason")?)?,
                        level: decode_level(r.str_field("level")?)?,
                        recovered: r.bool_field("recovered")?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            CampaignEvent::TargetDegraded {
                target: v.target_field("target")?,
                rungs,
            }
        }
        "targets_pruned_static" => CampaignEvent::TargetsPrunedStatic {
            count: v.usize_field("count")?,
        },
        "probe_run" => CampaignEvent::ProbeRun {
            target: v.target_field("target")?,
        },
        "run_executed" => CampaignEvent::RunExecuted {
            record: Box::new(decode_run_record(&v)?),
        },
        "cache_stats" => CampaignEvent::CacheStats {
            hits: v.u64_field("hits")?,
            misses: v.u64_field("misses")?,
        },
        "solver_session_stats" => CampaignEvent::SolverSessionStats {
            queries: v.u64_field("queries")?,
            intern_hits: v.u64_field("intern_hits")?,
        },
        "backend_stats" => CampaignEvent::BackendStats {
            queries: v.u64_field("queries")?,
            unsat_short_circuits: v.u64_field("unsat_short_circuits")?,
            valid_short_circuits: v.u64_field("valid_short_circuits")?,
            sat_short_circuits: v.u64_field("sat_short_circuits")?,
        },
        "exec_stats" => CampaignEvent::ExecStats {
            instructions: v.u64_field("instructions")?,
            compiled_blocks: v.usize_field("compiled_blocks")?,
            vm_runs: v.u64_field("vm_runs")?,
        },
        "campaign_timed_out" => CampaignEvent::CampaignTimedOut,
        "target_closed" => CampaignEvent::TargetClosed {
            target: v.target_field("target")?,
        },
        "sink_errors" => CampaignEvent::SinkErrors {
            count: v.usize_field("count")?,
        },
        "campaign_finished" => CampaignEvent::CampaignFinished,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_a686);
    }

    #[test]
    fn fnv64_matches_reference() {
        // FNV-1a("a") from the reference parameters.
        assert_eq!(StableHasher::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(StableHasher::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn json_parser_round_trips_scalars() {
        assert_eq!(parse_json("null"), Some(Json::Null));
        assert_eq!(parse_json("true"), Some(Json::Bool(true)));
        assert_eq!(parse_json("-42"), Some(Json::Num(-42)));
        assert_eq!(
            parse_json("\"a\\\"b\\\\c\\n\\u0041\""),
            Some(Json::Str("a\"b\\c\nA".to_string()))
        );
        assert_eq!(
            parse_json("[1, 2]"),
            Some(Json::Arr(vec![Json::Num(1), Json::Num(2)]))
        );
        assert!(parse_json("{\"a\":1}").is_some());
        assert!(parse_json("1.5").is_none(), "events never emit floats");
        assert!(parse_json("{\"a\":1} trailing").is_none());
        assert!(parse_json("").is_none());
    }

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::CampaignStarted {
                technique: Technique::HigherOrder,
                program: "p\"q\\r\n".to_string(),
                branch_sites: 7,
            },
            CampaignEvent::ProgramRejected {
                reason: "duplicate \"native\"\nat line 2".to_string(),
            },
            CampaignEvent::SitePresampled,
            CampaignEvent::GenerationStarted { index: 0, width: 3 },
            CampaignEvent::TargetScheduled {
                target: BranchId(2),
                ordinal: 1,
            },
            CampaignEvent::ShardStats {
                shards: 4,
                per_shard_targets: vec![3, 0, 7, 1],
                exchange_samples: 12,
                exchange_keys: 11,
            },
            CampaignEvent::SolverQueries { count: 4 },
            CampaignEvent::TargetSolved {
                target: BranchId(2),
            },
            CampaignEvent::TargetsRejected { count: 1 },
            CampaignEvent::SolverErrors { count: 2 },
            CampaignEvent::BudgetEscalations { count: 1 },
            CampaignEvent::FaultInjected {
                site: FaultSite::TraceShortWrite,
                count: 3,
            },
            CampaignEvent::TargetFaulted {
                target: BranchId(5),
            },
            CampaignEvent::TargetDegraded {
                target: BranchId(1),
                rungs: vec![DegradationRecord {
                    target: BranchId(1),
                    reason: DegradationReason::SolverError,
                    level: DegradationLevel::Unsound,
                    recovered: true,
                }],
            },
            CampaignEvent::TargetsPrunedStatic { count: 2 },
            CampaignEvent::ProbeRun {
                target: BranchId(3),
            },
            CampaignEvent::RunExecuted {
                record: Box::new(RunRecord {
                    inputs: vec![-5, 1234567890123],
                    outcome: Outcome::RuntimeFault(Fault::new(
                        FaultKind::DivByZero,
                        "division by zero\nat line 3",
                    )),
                    origin: Origin::Strategy {
                        target: BranchId(3),
                        strategy: "y := hash(42), x := \"esc\"".to_string(),
                    },
                    diverged: Some(false),
                    path: vec![(BranchId(0), true), (BranchId(3), false)],
                }),
            },
            CampaignEvent::RunExecuted {
                record: Box::new(RunRecord {
                    inputs: vec![],
                    outcome: Outcome::Error(-7),
                    origin: Origin::Degraded {
                        target: BranchId(9),
                        level: DegradationLevel::Sound,
                    },
                    diverged: None,
                    path: vec![],
                }),
            },
            CampaignEvent::CacheStats { hits: 9, misses: 2 },
            CampaignEvent::SolverSessionStats {
                queries: 11,
                intern_hits: 100,
            },
            CampaignEvent::BackendStats {
                queries: 8,
                unsat_short_circuits: 1,
                valid_short_circuits: 2,
                sat_short_circuits: 3,
            },
            CampaignEvent::ExecStats {
                instructions: 1000,
                compiled_blocks: 4,
                vm_runs: 12,
            },
            CampaignEvent::CampaignTimedOut,
            CampaignEvent::TargetClosed {
                target: BranchId(2),
            },
            CampaignEvent::SinkErrors { count: 1 },
            CampaignEvent::CampaignFinished,
        ]
    }

    /// Every event variant decodes back to itself — the exactness the
    /// replay-by-equality resume architecture stands on.
    #[test]
    fn decode_inverts_to_json_for_every_variant() {
        for (i, ev) in sample_events().into_iter().enumerate() {
            let seq = i as u64;
            let json = ev.to_json(seq);
            let back = decode_event(&json, seq);
            assert_eq!(back.as_ref(), Some(&ev), "round-trip of {json}");
            assert_eq!(decode_event(&json, seq + 1), None, "seq checked");
        }
    }

    #[test]
    fn header_round_trips_and_rejects_other_versions() {
        let h = TraceHeader {
            program: "lex \"v2\"".to_string(),
            program_digest: 0xdead_beef_0123_4567,
            config_digest: 1,
            technique: Technique::DartSoundDelayed,
            seed: u64::MAX,
            fsync: FsyncPolicy::Close,
        };
        assert_eq!(TraceHeader::from_json(&h.to_json()), Some(h.clone()));
        for old in ["hotg-trace/1", "hotg-trace/2"] {
            let other = h.to_json().replace(TRACE_VERSION, old);
            assert_eq!(TraceHeader::from_json(&other), None, "{old}");
        }
    }

    /// The program digest ignores source formatting: one program parsed
    /// from differently laid-out text digests the same, so a campaign
    /// traced from one layout resumes under the other. A one-token edit
    /// still changes the digest.
    #[test]
    fn program_digest_ignores_formatting() {
        let compact = "program t(x: int) { if (x == 0) { error(1); } }";
        let spread = "program t(\n    x: int\n)\n{\n  if (x == 0)\n  {\n    error(1);\n  }\n}\n";
        let edited = "program t(x: int) { if (x == 1) { error(1); } }";
        let parse = |src| hotg_lang::parse(src).expect("parses");
        let (a, b, c) = (parse(compact), parse(spread), parse(edited));
        assert_eq!(a, b);
        assert_eq!(program_digest(&a), program_digest(&b));
        assert_ne!(program_digest(&a), program_digest(&c));

        let path = tmp("formatting");
        let natives = hotg_lang::NativeRegistry::new();
        let config = crate::DriverConfig {
            max_runs: 6,
            threads: 1,
            trace: Some(TraceConfig::new(&path)),
            ..crate::DriverConfig::with_initial(vec![7])
        };
        let want = crate::Driver::new(&a, &natives, config.clone()).run(Technique::DartSound);
        let data = std::fs::read(&path).expect("read trace");
        std::fs::write(&path, &data[..data.len() / 2]).expect("crash the trace");
        let got = crate::Driver::new(&b, &natives, config)
            .resume(Technique::DartSound)
            .expect("a reformatted program resumes its trace");
        let _ = std::fs::remove_file(&path);
        assert_eq!(got.runs, want.runs);
        assert!(got.found_error(1));
    }

    #[test]
    fn fsync_policy_names_round_trip() {
        for p in [
            FsyncPolicy::EveryEvent,
            FsyncPolicy::EveryGeneration,
            FsyncPolicy::Close,
        ] {
            assert_eq!(p.name().parse::<FsyncPolicy>(), Ok(p));
        }
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    fn write_sample_trace(path: &Path, events: &[CampaignEvent]) -> TraceHeader {
        let header = TraceHeader {
            program: "t".to_string(),
            program_digest: 1,
            config_digest: 2,
            technique: Technique::Random,
            seed: 3,
            fsync: FsyncPolicy::Close,
        };
        let mut w =
            TraceWriter::create(path, &header, FsyncPolicy::Close, None, None).expect("create");
        for ev in events {
            w.write_event(ev, false).expect("write");
        }
        w.finish().expect("finish");
        header
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hotg-trace-{}-{name}.trc", std::process::id()))
    }

    #[test]
    fn writer_and_recover_round_trip() {
        let path = tmp("roundtrip");
        let events = sample_events();
        let header = write_sample_trace(&path, &events);
        let rec = recover(&path).expect("recover");
        let _ = std::fs::remove_file(&path);
        assert_eq!(rec.header, header);
        assert_eq!(rec.events, events);
        assert_eq!(rec.bytes_discarded, 0);
        assert_eq!(rec.frames_discarded, 0);
        assert!(rec.damage.is_none());
        assert!(rec.complete, "sample stream ends in CampaignFinished");
        assert_eq!(rec.ends.len(), events.len());
    }

    /// Truncating the file at *every* byte length salvages a clean
    /// prefix and never panics.
    #[test]
    fn every_truncation_point_salvages_a_prefix() {
        let path = tmp("truncate");
        let events = sample_events();
        write_sample_trace(&path, &events);
        let full = std::fs::read(&path).expect("read trace");
        let header_end = {
            let rec = recover(&path).expect("recover");
            rec.header_end as usize
        };
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).expect("write truncated");
            let res = recover(&path);
            if cut < header_end {
                assert!(res.is_err(), "cut {cut} inside magic/header must refuse");
                continue;
            }
            let rec = res.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            // Salvaged events are a prefix of the originals.
            assert_eq!(rec.events[..], events[..rec.events.len()]);
            assert_eq!(
                rec.bytes_discarded,
                (cut - rec.ends.last().map_or(header_end, |&e| e as usize)) as u64
            );
            let boundary = rec.ends.last().map_or(header_end, |&e| e as usize) == cut;
            assert_eq!(rec.damage.is_none(), boundary, "cut {cut}");
            if !boundary {
                assert!(rec.frames_discarded >= 1, "cut {cut}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Flipping any single byte of an event frame is caught by the CRC
    /// (or the seq check) and salvage keeps the prefix before it.
    #[test]
    fn flipped_byte_is_salvaged_with_counts() {
        let path = tmp("flip");
        let events = sample_events();
        write_sample_trace(&path, &events);
        let full = std::fs::read(&path).expect("read trace");
        let rec = recover(&path).expect("recover");
        // Flip one payload byte of the frame holding event 4.
        let frame_start = rec.ends[3] as usize;
        let mut bad = full.clone();
        bad[frame_start + 8] ^= 0xff;
        std::fs::write(&path, &bad).expect("write corrupted");
        let rec = recover(&path).expect("recover flipped");
        let _ = std::fs::remove_file(&path);
        assert_eq!(rec.events[..], events[..4], "prefix before the bad frame");
        assert!(rec.damage.as_deref().is_some_and(|d| d.contains("CRC")));
        // The bad frame's length field is intact, so the walk counts the
        // bad frame plus every later frame exactly.
        assert_eq!(rec.frames_discarded, events.len() - 4);
        assert_eq!(rec.bytes_discarded, (full.len() - frame_start) as u64);
        assert!(!rec.complete);
    }

    #[test]
    fn non_trace_files_are_refused_not_panicked() {
        let path = tmp("refuse");
        for contents in [
            &b""[..],
            b"x",
            b"not a trace at all, definitely longer than magic",
            b"HOTGTRC1",
            b"HOTGTRC1\x04\x00\x00\x00",
        ] {
            std::fs::write(&path, contents).expect("write");
            assert!(matches!(recover(&path), Err(ResumeError::Malformed(_))));
        }
        let _ = std::fs::remove_file(&path);
        assert!(matches!(recover(&path), Err(ResumeError::Io(_))));
    }

    /// The kill-at-event-N chaos hook leaves a torn frame and goes
    /// silent without surfacing an error, like a real crash.
    #[test]
    fn kill_at_event_tears_the_frame_silently() {
        let path = tmp("kill");
        let events = sample_events();
        let header = TraceHeader {
            program: "t".to_string(),
            program_digest: 1,
            config_digest: 2,
            technique: Technique::Random,
            seed: 3,
            fsync: FsyncPolicy::EveryEvent,
        };
        let mut w = TraceWriter::create(&path, &header, FsyncPolicy::EveryEvent, None, Some(3))
            .expect("create");
        for ev in &events {
            w.write_event(ev, false).expect("never errors");
        }
        w.finish().expect("finish is a no-op when dead");
        drop(w);
        let rec = recover(&path).expect("recover");
        let _ = std::fs::remove_file(&path);
        assert_eq!(rec.events[..], events[..3], "events before the kill");
        assert!(rec.damage.is_some(), "torn frame reported");
        assert_eq!(rec.frames_discarded, 1, "only the torn half-frame");
        assert!(!rec.complete);
    }

    /// TraceShortWrite chaos tears the frame *and* surfaces the error.
    #[test]
    fn short_write_chaos_errors_and_counts() {
        let path = tmp("short");
        let header = TraceHeader {
            program: "t".to_string(),
            program_digest: 1,
            config_digest: 2,
            technique: Technique::Random,
            seed: 3,
            fsync: FsyncPolicy::Close,
        };
        let plan = FaultPlan {
            trace_short_write: 1.0,
            ..FaultPlan::new(1)
        };
        let mut w = TraceWriter::create(&path, &header, FsyncPolicy::Close, Some(plan), None)
            .expect("create");
        let err = w
            .write_event(&CampaignEvent::CampaignFinished, false)
            .expect_err("short write must error");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(w.injected_short_writes(), 1);
        drop(w);
        let rec = recover(&path).expect("recover");
        let _ = std::fs::remove_file(&path);
        assert!(rec.events.is_empty());
        assert!(rec.damage.is_some());
    }

    /// A CRC-valid frame around `payload`.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        push_frame(&mut buf, payload);
        buf
    }

    /// The durable trace of a real corpus campaign (higher-order on
    /// `foo`, whose runs carry multi-branch paths) and its events.
    fn corpus_trace() -> &'static (Vec<u8>, Vec<CampaignEvent>) {
        static TRACE: std::sync::OnceLock<(Vec<u8>, Vec<CampaignEvent>)> =
            std::sync::OnceLock::new();
        TRACE.get_or_init(|| {
            let path = tmp("corpus");
            let (program, natives) = hotg_lang::corpus::foo();
            let config = crate::DriverConfig {
                max_runs: 12,
                threads: 1,
                trace: Some(TraceConfig::new(&path)),
                ..crate::DriverConfig::with_initial(vec![0; program.input_width()])
            };
            crate::Driver::new(&program, &natives, config).run(Technique::HigherOrder);
            let data = std::fs::read(&path).expect("read corpus trace");
            let _ = std::fs::remove_file(&path);
            let rec = salvage(&data).expect("intact corpus trace");
            assert!(rec.damage.is_none() && rec.complete);
            (data, rec.events)
        })
    }

    /// 200 000 nested `[` in one CRC-valid frame after a valid prefix:
    /// the parser refuses the nesting instead of overflowing the stack,
    /// so recovery reports damage after the salvaged prefix.
    #[test]
    fn deeply_nested_frame_is_damage_not_a_stack_overflow() {
        let path = tmp("deep");
        let events = sample_events();
        write_sample_trace(&path, &events);
        let mut data = std::fs::read(&path).expect("read trace");
        data.extend(frame(&[b'['; 200_000]));
        std::fs::write(&path, &data).expect("write trace");
        let rec = recover(&path).expect("recover");
        let _ = std::fs::remove_file(&path);
        assert_eq!(rec.events, events);
        assert!(rec
            .damage
            .as_deref()
            .is_some_and(|d| d.contains("undecodable")));
        assert_eq!(rec.frames_discarded, 1);
        // The same nesting in the header frame refuses the trace.
        let mut headed = TRACE_MAGIC.to_vec();
        headed.extend(frame(&[b'{'; 200_000]));
        assert!(matches!(salvage(&headed), Err(ResumeError::Malformed(_))));
        // Nesting at the limit still parses; one level more does not.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nested(JSON_MAX_DEPTH)).is_some());
        assert!(parse_json(&nested(JSON_MAX_DEPTH + 1)).is_none());
    }

    /// Characters that make random text look like event JSON often
    /// enough to reach past the parser into the field decoders.
    const JSON_ALPHABET: &[u8] = b"{}[]\",:\\ -0123456789seqventruflaxdbkio_\xc3\xa9";

    fn json_ish(bytes: &[u8]) -> String {
        String::from_utf8_lossy(bytes).into_owned()
    }

    hotg_prop::proptest! {
        #![proptest_config(hotg_prop::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes after the magic never panic recovery; a trace
        /// whose header frame is valid salvages nothing from random
        /// frames that cannot carry `seq` 0.
        #[test]
        fn recover_never_panics_on_arbitrary_bytes(
            tail in hotg_prop::collection::vec(0u8..=255, 0..96),
            payload in hotg_prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..64),
        ) {
            let mut raw = TRACE_MAGIC.to_vec();
            raw.extend(&tail);
            if let Ok(rec) = salvage(&raw) {
                hotg_prop::prop_assert!(rec.ends.len() == rec.events.len());
            }
            let (data, _) = corpus_trace();
            let header = &data[..salvage(data).expect("intact").header_end as usize];
            let text: Vec<u8> = payload.iter().map(|&i| JSON_ALPHABET[i]).collect();
            for extra in [tail.clone(), frame(&tail), frame(&text)] {
                let mut bytes = header.to_vec();
                bytes.extend(&extra);
                let rec = salvage(&bytes).expect("the header frame is intact");
                hotg_prop::prop_assert!(rec.events.len() <= 1);
            }
        }

        /// Single-byte flips, truncations and insertions anywhere in a
        /// real corpus trace never panic, and whatever is salvaged is a
        /// prefix of the original events.
        #[test]
        fn mutated_corpus_trace_salvages_a_prefix(
            op in 0u8..3,
            at in 0usize..1 << 20,
            byte in 0u8..=255,
        ) {
            let (data, events) = corpus_trace();
            let mut bad = data.clone();
            let pos = at % bad.len();
            match op {
                0 => bad[pos] ^= byte.max(1),
                1 => bad.truncate(pos),
                _ => bad.insert(pos, byte),
            }
            if let Ok(rec) = salvage(&bad) {
                hotg_prop::prop_assert!(rec.events.len() <= events.len());
                hotg_prop::prop_assert_eq!(&rec.events[..], &events[..rec.events.len()]);
            }
        }

        /// Arbitrary text, and real event payloads with one byte changed,
        /// never panic the decoder; anything it accepts re-encodes to a
        /// payload that decodes to the same event.
        #[test]
        fn decode_event_never_panics(
            text in hotg_prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..80),
            which in 0usize..1 << 16,
            at in 0usize..1 << 16,
            byte in 0usize..JSON_ALPHABET.len(),
        ) {
            let text: Vec<u8> = text.iter().map(|&i| JSON_ALPHABET[i]).collect();
            let (_, events) = corpus_trace();
            let seq = which % events.len();
            let mut real = events[seq].to_json(seq as u64).into_bytes();
            let pos = at % real.len();
            real[pos] = JSON_ALPHABET[byte];
            for payload in [json_ish(&text), json_ish(&real)] {
                for expect in [0, seq as u64] {
                    if let Some(ev) = decode_event(&payload, expect) {
                        hotg_prop::prop_assert_eq!(
                            decode_event(&ev.to_json(expect), expect),
                            Some(ev)
                        );
                    }
                }
            }
        }
    }
}
