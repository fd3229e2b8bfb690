//! The benchmark binary.
//!
//! ```text
//! bench --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out-dir <dir>]
//! bench compare <dirA> <dirB>
//! ```
//!
//! A run prints a human summary on stderr, then on stdout one detail
//! line (workload, seed, passes, sample counts, tail percentiles) and,
//! as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! for `--trace 0`, per-layer metrics for `--trace 1`. Any failed output
//! check prints `"correct": false` with no metrics and exits 1.

use hotg_perfbench::json;
use hotg_perfbench::measure::{self, RunOptions};
use hotg_perfbench::workload::{self, WORKLOADS};
use hotg_perfbench::{compare, spec};
use std::path::PathBuf;

/// Seconds of measurement when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;
/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn usage(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    eprintln!(
        "usage: bench --workload <{}> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
         [--out-dir <dir>]\n       bench compare <dirA> <dirB>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            usage("compare needs two directories");
        };
        match compare::compare(&PathBuf::from(a), &PathBuf::from(b)) {
            Ok(regressed) => std::process::exit(i32::from(regressed)),
            Err(e) => {
                eprintln!("bench compare: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut name = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => name = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let name = name.unwrap_or_else(|| usage("--workload is required"));
    let workload =
        workload::workload(&name).unwrap_or_else(|| usage(&format!("unknown workload `{name}`")));

    let opts = RunOptions {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    };
    let result = measure::run(&opts);

    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let shards = if opts.workload.durable {
        workload::DURABLE_SHARDS
    } else {
        1
    };
    eprintln!(
        "bench {name} seed {seed}: {} passes, {} campaigns, one worker thread per shard, \
         {shards} shard(s) (host parallelism {host_threads}), {}/{} operations failed, \
         reference kernel {:.3} ms (reference host {} ms), raw wall {:.4} s",
        result.passes,
        result.campaigns,
        result.failed,
        result.attempted,
        result.calib_ms,
        hotg_perfbench::calib::REFERENCE_MS,
        result.raw_wall_s
    );
    for m in &result.metrics {
        let unit = spec(m.name).map_or("", |s| s.unit);
        eprintln!("  {:<28} {:>14.6} {unit:<6} (n={})", m.name, m.value, m.n);
    }
    let samples: Vec<String> = result
        .metrics
        .iter()
        .map(|m| format!("{}: {}", json::quote(m.name), m.n))
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"seconds\": {}, \
         \"passes\": {}, \"campaigns\": {}, \
         \"host_threads\": {host_threads}, \"calib_ms\": {}, \"raw_wall_s\": {}, \
         \"tail_pct\": {{\"campaign_ms.tail\": {}, \"ttfe_ms.tail\": {}}}, \"spans\": {}, \
         \"samples\": {{{}}}}}",
        json::quote(&name),
        u8::from(trace),
        json::num(seconds),
        result.passes,
        result.campaigns,
        json::num(result.calib_ms),
        json::num(result.raw_wall_s),
        result.tail_pct.0,
        result.tail_pct.1,
        result
            .spans_file
            .as_ref()
            .map_or("null".to_string(), |p| json::quote(
                &p.display().to_string()
            )),
        samples.join(", "),
    );
    if !result.correct {
        eprintln!(
            "bench: output check FAILED: {}",
            result.error.as_deref().unwrap_or("unknown")
        );
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            result.attempted, result.failed
        );
        std::process::exit(1);
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let unit = spec(m.name).expect("every metric is in the table").unit;
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(m.value),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
}
