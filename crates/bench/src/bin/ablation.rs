//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Cross-run samples** (§5.3 closing remark / §7): disable the
//!    cumulative `IOF` table and watch multi-step generation die — the
//!    intermediate probe's observations never reach the retry.
//! 2. **Probe budget** (multi-step generation): with zero probes per
//!    target, Example 7's error becomes unreachable.
//! 3. **Keyword-depth scaling**: k-step chains (`kstep`) need cross-run
//!    sampling proportional to depth.
//!
//! ```text
//! cargo run --release -p hotg-bench --bin ablation
//! ```

use hotg_core::{Driver, DriverConfig, Technique};
use hotg_lang::corpus;

fn line(
    label: &str,
    cfg: DriverConfig,
    program: &hotg_lang::Program,
    natives: &hotg_lang::NativeRegistry,
) {
    let report = Driver::new(program, natives, cfg).run(Technique::HigherOrder);
    println!(
        "{label:<44} error={} runs={:>3} probes={:>2} rejected={:>2}",
        if report.found_error(1) { "YES" } else { "no " },
        report.total_runs(),
        report.probes,
        report.rejected_targets,
    );
}

fn main() {
    println!("Ablations (higher-order technique)\n");

    println!("-- foo (Example 7): multi-step generation needs probes --");
    let (program, natives) = corpus::foo();
    let base = DriverConfig {
        max_runs: 40,
        ..DriverConfig::with_initial(vec![567, 42])
    };
    line(
        "baseline (probes=3, cross-run on)",
        base.clone(),
        &program,
        &natives,
    );
    line(
        "probes disabled",
        DriverConfig {
            max_probes_per_target: 0,
            ..base.clone()
        },
        &program,
        &natives,
    );
    line(
        "cross-run samples disabled",
        DriverConfig {
            cross_run_samples: false,
            ..base.clone()
        },
        &program,
        &natives,
    );

    println!("\n-- kstep(k): deeper chains, more sampling pressure --");
    for k in 2..=4usize {
        let (program, natives) = corpus::kstep(k);
        let mut initial = vec![33, 42];
        initial.extend(std::iter::repeat_n(0, k - 1));
        let cfg = DriverConfig {
            max_runs: 80,
            ..DriverConfig::with_initial(initial)
        };
        line(
            &format!("kstep({k}) cross-run on"),
            cfg.clone(),
            &program,
            &natives,
        );
        line(
            &format!("kstep({k}) cross-run off"),
            DriverConfig {
                cross_run_samples: false,
                ..cfg
            },
            &program,
            &natives,
        );
    }

    println!("\n-- lexer: per-run samples suffice (addsym re-runs every time) --");
    let (program, natives) = hotg_lexapp::programs::keyword_parser();
    let cfg = hotg_lexapp::lexer_config(&program, 60);
    let on = Driver::new(&program, &natives, cfg.clone()).run(Technique::HigherOrder);
    let off = Driver::new(
        &program,
        &natives,
        DriverConfig {
            cross_run_samples: false,
            ..cfg
        },
    )
    .run(Technique::HigherOrder);
    println!(
        "cross-run on : depth={} runs={}",
        on.errors.keys().max().copied().unwrap_or(0),
        on.total_runs()
    );
    println!(
        "cross-run off: depth={} runs={}",
        off.errors.keys().max().copied().unwrap_or(0),
        off.total_runs()
    );
}
