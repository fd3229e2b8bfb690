//! `hotg-perfbench`: the repository's performance contract.
//!
//! Four seeded closed-loop workloads ([`workload`]) run whole test
//! generation campaigns in one process; [`measure`] times them from
//! outside, checks every campaign against independent references
//! ([`check`]), and reduces the passes to the end-to-end metrics of
//! [`END_TO_END`] (untraced run) or the per-layer metrics of
//! [`PER_LAYER`] (traced run). [`compare`] applies the noise-aware
//! gain and no-regression rules to two sets of runs. Both tables are
//! mirrored in the repository's `BENCHMARK.json`; a test keeps them in
//! step.

pub mod calib;
pub mod check;
pub mod compare;
pub mod json;
pub mod measure;
pub mod stats;
pub mod workload;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, failures).
    Lower,
    /// Larger is better (coverage, bugs, hit rates).
    Higher,
}

/// A metric's contract: name, unit, direction, and — end-to-end only —
/// the share of the parent's median by which it may worsen before a
/// change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// The value repeats exactly for a given seed, so `bench compare`
    /// holds it to runs of the same seed with no slack; `bound` only
    /// covers how far it moves from seed to seed.
    pub per_seed: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        per_seed: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        per_seed: true,
        ..e2e(name, unit, better, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        per_seed: false,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.2),
    e2e("campaign_ms.p50", "ms", Lower, 0.2),
    e2e("campaign_ms.tail", "ms", Lower, 0.25),
    e2e("ttfe_ms.p50", "ms", Lower, 0.2),
    e2e("ttfe_ms.tail", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    exact("coverage_frac", "ratio", Higher, 0.01),
    exact("bugs_found", "count", Higher, 0.06),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [MetricSpec; 52] = [
    layer("lang.parse_check_ms", "ms", Lower),
    layer("lang.compile_ms", "ms", Lower),
    layer("analysis.analyze_ms", "ms", Lower),
    layer("analysis.targets_pruned", "count", Higher),
    layer("summaries.compute_ms", "ms", Lower),
    layer("exec.runs", "count", Lower),
    layer("exec.instructions", "count", Lower),
    layer("exec.concrete_ms", "ms", Lower),
    layer("exec.concolic_ms", "ms", Lower),
    layer("exec.run_us.p50", "us", Lower),
    layer("exec.divergent_frac", "ratio", Lower),
    layer("exec.probe_frac", "ratio", Lower),
    layer("exec.wall_frac", "ratio", Lower),
    layer("smt.queries", "count", Lower),
    layer("smt.cold_ms", "ms", Lower),
    layer("smt.warm_ms", "ms", Lower),
    layer("smt.query_us.p50", "us", Lower),
    layer("smt.query_us.tail", "us", Lower),
    layer("smt.unknown_frac", "ratio", Lower),
    layer("smt.wall_frac", "ratio", Lower),
    layer("backend.queries", "count", Lower),
    layer("backend.short_circuit_frac", "ratio", Higher),
    layer("validity.checks", "count", Lower),
    layer("validity.check_ms.n8", "ms", Lower),
    layer("validity.check_ms.n16", "ms", Lower),
    layer("validity.check_ms.n32", "ms", Lower),
    layer("validity.check_ms.n48", "ms", Lower),
    layer("validity.wall_frac", "ratio", Lower),
    layer("validity.iof_samples.p50", "count", Lower),
    layer("validity.iof_samples.max", "count", Lower),
    layer("validity.solved_frac", "ratio", Higher),
    layer("validity.probe_useful_frac", "ratio", Higher),
    layer("cache.hit_frac", "ratio", Higher),
    layer("arena.intern_hits", "count", Higher),
    layer("engine.targets", "count", Lower),
    layer("engine.generations", "count", Lower),
    layer("engine.width_max", "count", Lower),
    layer("engine.events", "count", Lower),
    layer("engine.target_ms.p50", "ms", Lower),
    layer("engine.target_ms.tail", "ms", Lower),
    layer("engine.self_frac", "ratio", Lower),
    layer("trace.bytes", "bytes", Lower),
    layer("trace.frames", "count", Lower),
    layer("trace.write_frac", "ratio", Lower),
    layer("trace.events_replayed", "count", Lower),
    layer("trace.resume_ms.p50", "ms", Lower),
    layer("merge.offline_ms", "ms", Lower),
    layer("shard.exchange_samples", "count", Lower),
    layer("shard.exchange_keys", "count", Lower),
    layer("shard.imbalance", "ratio", Lower),
    layer("bench.tracing_overhead_frac", "ratio", Lower),
    layer("bench.calib_ms", "ms", Lower),
];

/// Looks a metric up in either table.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
        match j.get(key) {
            Some(Json::Arr(a)) => a,
            _ => panic!("`{key}` is a list"),
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let j = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = list(&j, key);
            assert_eq!(entries.len(), table.len(), "{key}");
            for (e, spec) in entries.iter().zip(table) {
                let field = |k: &str| e.get(k).and_then(Json::str);
                assert_eq!(field("name"), Some(spec.name), "{key}");
                assert_eq!(field("unit"), Some(spec.unit), "{}", spec.name);
                let better = match spec.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(field("better"), Some(better), "{}", spec.name);
                assert_eq!(
                    e.get("bound").and_then(Json::num),
                    spec.bound,
                    "{}",
                    spec.name
                );
            }
        }
        let workloads: Vec<&str> = list(&j, "workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        assert_eq!(workloads, workload::WORKLOADS);
    }
}
