//! Helpers shared by the integration suites (parity, resume, chaos):
//! the canonical report rendering the golden digests are computed over,
//! the toolchain-independent digest, and the chaos panic silencer.

// Each integration test binary compiles its own copy of this module and
// uses a subset of it.
#![allow(dead_code)]

use hotg_core::Report;
use hotg_logic::StableHasher;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Once;

/// Unique per-process temp path for one test artifact.
pub fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotg-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir tempdir");
    dir.join(name)
}

/// Byte offsets just past each frame of a durable trace file, walking
/// the length fields exactly as the recovery reader does. `ends[0]` is
/// the end of the header frame, so truncating the file to `ends[k]`
/// leaves a prefix of exactly `k` salvageable events.
pub fn frame_ends(path: &Path) -> Vec<u64> {
    let data = std::fs::read(path).expect("read trace");
    assert!(data.len() >= 8, "trace missing magic");
    let mut off = 8usize;
    let mut ends = Vec::new();
    while off + 8 <= data.len() {
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        if off + 8 + len > data.len() {
            break;
        }
        off += 8 + len;
        ends.push(off as u64);
    }
    assert_eq!(off, data.len(), "trace has trailing garbage");
    ends
}

/// Silences the expected, caught chaos panics (see the chaos suite).
pub fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("chaos:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// FNV-1a over the canonical report rendering: independent of the
/// standard library's hasher internals, so digests stay comparable
/// across toolchains.
pub fn fnv64(data: &str) -> u64 {
    StableHasher::digest(data.as_bytes())
}

/// Canonical, deterministic rendering of everything the campaign
/// observed. Field order is fixed; nondeterministic fields (elapsed,
/// cache hit/miss split) are omitted, as are the trace-sink health
/// counters (`sink_errors`, `trace_faults`) — a resumed campaign
/// re-writes part of its trace, so its I/O telemetry legitimately
/// differs from the uninterrupted run it must otherwise match.
pub fn canonical(r: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "technique={}", r.technique);
    let _ = writeln!(s, "program={}", r.program);
    for run in &r.runs {
        let _ = writeln!(
            s,
            "run inputs={:?} outcome={:?} origin={:?} diverged={:?} path={:?}",
            run.inputs, run.outcome, run.origin, run.diverged, run.path
        );
    }
    let _ = writeln!(s, "errors={:?}", r.errors);
    let _ = writeln!(s, "coverage={:?}", r.coverage);
    let _ = writeln!(s, "divergences={}", r.divergences);
    let _ = writeln!(s, "probes={}", r.probes);
    let _ = writeln!(s, "solver_calls={}", r.solver_calls);
    let _ = writeln!(s, "rejected_targets={}", r.rejected_targets);
    let _ = writeln!(s, "targets_pruned_static={}", r.targets_pruned_static);
    let _ = writeln!(s, "presampled_sites={}", r.presampled_sites);
    let _ = writeln!(s, "branch_sites={}", r.branch_sites);
    let _ = writeln!(s, "generation_widths={:?}", r.generation_widths);
    let _ = writeln!(s, "solver_errors={}", r.solver_errors);
    let _ = writeln!(s, "targets_degraded={}", r.targets_degraded);
    let _ = writeln!(s, "targets_faulted={}", r.targets_faulted);
    let _ = writeln!(s, "fuel_exhausted_runs={}", r.fuel_exhausted_runs);
    let _ = writeln!(s, "fault_kinds={:?}", r.fault_kinds);
    let _ = writeln!(s, "degradations={:?}", r.degradations);
    let _ = writeln!(s, "faults_injected={:?}", r.faults_injected);
    s
}
