//! The reference kernel that puts timings from different moments on a
//! common scale.
//!
//! The benchmark shares its host with other machines' work, and the
//! host's speed drifts by up to 2× over minutes and changes from one
//! second to the next — far more than any regression bound. The bench
//! therefore times this kernel, a fixed piece of standard-library work
//! (ordered-map inserts, a sort, string formatting — the allocation- and
//! pointer-heavy mix a campaign is made of) that uses none of the
//! repository's code, once before a pass's set-up and once before each
//! of its campaigns. The pass's timings are multiplied by
//! [`REFERENCE_MS`] / (mean kernel time over the pass), so they read as
//! durations on a host where the kernel takes [`REFERENCE_MS`]: a change
//! to the repository moves them, a change in the host's speed mostly does
//! not.
//!
//! Samples interleaved with the work, averaged, follow the contention the
//! campaigns meet more closely than a median of back-to-back samples
//! taken at the start of a pass, which skips short slow spells: on passes
//! repeating the same inputs, the interleaved mean cut the host's share
//! of the pass-time spread to 0.55–0.6 of the unscaled one on three
//! workloads, where the start-of-pass median left it at 0.7–1.25.

use crate::workload::SplitMix;
use std::collections::BTreeMap;
use std::time::Instant;

/// Kernel milliseconds on the reference host (a 2-vCPU Xeon VM at
/// 2.1 GHz, unloaded). Timings are reported in this host's milliseconds.
pub const REFERENCE_MS: f64 = 0.55;

/// One repetition of the kernel.
fn kernel(seed: u64) -> u64 {
    let mut rng = SplitMix::new(seed);
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..4_000 {
        let k = rng.next_u64() % 50_000;
        map.entry(k).or_default().push(rng.next_u64());
    }
    let mut v: Vec<u64> = map.values().flatten().copied().collect();
    v.sort_unstable();
    let mut s = String::new();
    for x in v.iter().step_by(7) {
        s.push_str(&format!("{x:x}"));
    }
    v.iter()
        .fold(s.len() as u64, |a, b| a.wrapping_mul(31).wrapping_add(*b))
}

/// Milliseconds one repetition of the kernel takes on the host right
/// now; `seed` varies the map's keys.
pub fn kernel_ms(seed: u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(seed)));
    t.elapsed().as_secs_f64() * 1e3
}
