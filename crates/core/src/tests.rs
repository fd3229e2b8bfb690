//! End-to-end reproduction of the paper's worked examples, driven through
//! the four techniques.

use crate::{Driver, DriverConfig, Origin, Technique};
use hotg_lang::corpus;

fn config(initial: Vec<i64>) -> DriverConfig {
    DriverConfig {
        max_runs: 40,
        ..DriverConfig::with_initial(initial)
    }
}

/// §1: `obscure` — dynamic test generation (all whitebox techniques)
/// covers both branches starting from the paper's inputs x=33, y=42;
/// random testing does not.
#[test]
fn obscure_whitebox_covers_in_two_runs() {
    let (program, natives) = corpus::obscure();
    for technique in [
        Technique::DartUnsound,
        Technique::DartSound,
        Technique::HigherOrder,
    ] {
        let driver = Driver::new(&program, &natives, config(vec![33, 42]));
        let report = driver.run(technique);
        assert!(report.found_error(1), "{technique} must find the error");
        assert_eq!(
            report.first_hit(1),
            Some(1),
            "{technique} must find it on the second run"
        );
    }
}

#[test]
fn obscure_random_fails() {
    let (program, natives) = corpus::obscure();
    let driver = Driver::new(&program, &natives, config(vec![33, 42]));
    let report = driver.run(Technique::Random);
    assert!(!report.found_error(1), "random must not invert the hash");
    assert_eq!(report.total_runs(), 40);
}

/// §3.2 + Example 1: `foo` — unsound concretization diverges; sound
/// concretization terminates without reaching the error.
#[test]
fn foo_unsound_diverges() {
    let (program, natives) = corpus::foo();
    let driver = Driver::new(&program, &natives, config(vec![567, 42]));
    let report = driver.run(Technique::DartUnsound);
    assert!(
        report.divergences >= 1,
        "negating the unsound pc must diverge: {report}"
    );
}

#[test]
fn foo_sound_misses_error() {
    let (program, natives) = corpus::foo();
    let driver = Driver::new(&program, &natives, config(vec![567, 42]));
    let report = driver.run(Technique::DartSound);
    assert!(
        !report.found_error(1),
        "sound concretization must miss the error (Example 1): {report}"
    );
    assert!(report.rejected_targets >= 1, "the alternate pc is UNSAT");
    assert_eq!(report.divergences, 0, "sound pcs never diverge");
}

/// Example 7: `foo` with higher-order test generation — two-step
/// generation through an intermediate probe that learns `hash(10)`.
#[test]
fn foo_higher_order_two_step() {
    let (program, natives) = corpus::foo();
    let driver = Driver::new(&program, &natives, config(vec![567, 42]));
    let report = driver.run(Technique::HigherOrder);
    assert!(report.found_error(1), "must reach the error: {report}");
    assert!(report.probes >= 1, "needs an intermediate probe run");
    assert_eq!(report.divergences, 0, "higher-order pcs never diverge");
    // The winning test comes from a symbolic strategy mentioning hash(10)
    // (directly or via the probe-refreshed samples).
    let strategic = report.runs.iter().any(
        |r| matches!(&r.origin, Origin::Strategy { strategy, .. } if strategy.contains("hash")),
    );
    assert!(strategic, "a symbolic strategy must drive the error run");
}

/// Example 2: `foo-bis` — sound concretization misses the error; unsound
/// concretization and higher-order generation reach it.
#[test]
fn foo_bis_sound_misses() {
    let (program, natives) = corpus::foo_bis();
    let driver = Driver::new(&program, &natives, config(vec![33, 42]));
    let report = driver.run(Technique::DartSound);
    assert!(!report.found_error(1), "Example 2: sound misses: {report}");
}

#[test]
fn foo_bis_unsound_finds() {
    let (program, natives) = corpus::foo_bis();
    let driver = Driver::new(&program, &natives, config(vec![33, 42]));
    let report = driver.run(Technique::DartUnsound);
    assert!(
        report.found_error(1),
        "Example 2: unsound reaches the error (good divergence): {report}"
    );
}

#[test]
fn foo_bis_higher_order_finds() {
    let (program, natives) = corpus::foo_bis();
    let driver = Driver::new(&program, &natives, config(vec![33, 42]));
    let report = driver.run(Technique::HigherOrder);
    assert!(report.found_error(1), "{report}");
}

/// Example 3: `bar` — unsound concretization diverges chasing an
/// unsatisfiable conjunction; higher-order generation soundly proves the
/// target invalid and stops after a single execution.
#[test]
fn bar_unsound_diverges() {
    let (program, natives) = corpus::bar();
    let driver = Driver::new(&program, &natives, config(vec![33, 42]));
    let report = driver.run(Technique::DartUnsound);
    assert!(report.divergences >= 1, "{report}");
}

#[test]
fn bar_higher_order_rejects_soundly() {
    let (program, natives) = corpus::bar();
    let driver = Driver::new(&program, &natives, config(vec![33, 42]));
    let report = driver.run(Technique::HigherOrder);
    assert!(!report.found_error(1));
    assert_eq!(report.divergences, 0);
    assert!(
        report.rejected_targets >= 1,
        "the then-branch target is invalid: {report}"
    );
    assert_eq!(
        report.total_runs(),
        1,
        "no test is generated for the invalid target: {report}"
    );
}

/// Example 4: `pub` — higher-order generation succeeds because the
/// antecedent contains the sample hash(x₀) observed on the first run.
#[test]
fn pub_higher_order_uses_samples() {
    let (program, natives) = corpus::pub_fn();
    let driver = Driver::new(&program, &natives, config(vec![1, 2]));
    let report = driver.run(Technique::HigherOrder);
    assert!(report.found_error(1), "{report}");
    assert_eq!(report.first_hit(1), Some(1), "second run hits: {report}");
}

#[test]
fn pub_sound_concretization_also_works() {
    // The paper notes sound concretization handles Example 4 as well.
    let (program, natives) = corpus::pub_fn();
    let driver = Driver::new(&program, &natives, config(vec![1, 2]));
    let report = driver.run(Technique::DartSound);
    assert!(report.found_error(1), "{report}");
}

/// Example 5: `f(x) == f(y)` — only higher-order generation (via the EUF
/// axiom strategy x := y) covers the branch; both concretization modes
/// cannot even form a symbolic target.
#[test]
fn euf_eq_separation() {
    let (program, natives) = corpus::euf_eq();
    for technique in [Technique::DartUnsound, Technique::DartSound] {
        let driver = Driver::new(&program, &natives, config(vec![5, 6]));
        let report = driver.run(technique);
        assert!(
            !report.found_error(1),
            "{technique} cannot justify f(x)=f(y): {report}"
        );
    }
    let driver = Driver::new(&program, &natives, config(vec![5, 6]));
    let report = driver.run(Technique::HigherOrder);
    assert!(report.found_error(1), "EUF strategy x := y: {report}");
    assert_eq!(report.first_hit(1), Some(1));
    // The error run uses equal inputs.
    let hit = &report.runs[report.first_hit(1).unwrap()];
    assert_eq!(hit.inputs[0], hit.inputs[1]);
}

/// Example 6: `f(x) == f(y) + 1` — higher-order generation leverages the
/// samples f(5), f(6) from the first run.
#[test]
fn euf_offset_separation() {
    let (program, natives) = corpus::euf_offset();
    let driver = Driver::new(&program, &natives, config(vec![5, 6]));
    let report = driver.run(Technique::HigherOrder);
    assert!(report.found_error(1), "{report}");
    let hit = &report.runs[report.first_hit(1).unwrap()];
    // f is the identity on the sampled range: x = y + 1.
    assert_eq!(hit.inputs[0], hit.inputs[1] + 1);
    for technique in [Technique::DartUnsound, Technique::DartSound] {
        let driver = Driver::new(&program, &natives, config(vec![5, 6]));
        let report = driver.run(technique);
        assert!(!report.found_error(1), "{technique}: {report}");
    }
}

/// §3.3 final remark: delayed concretization covers the `y == 10` branch
/// that eager sound concretization blocks with its pinning constraint.
#[test]
fn delayed_concretization_separation() {
    let (program, natives) = corpus::delayed();
    let eager = Driver::new(&program, &natives, config(vec![33, 42])).run(Technique::DartSound);
    assert!(
        !eager.found_error(1),
        "eager sound concretization must pin y and miss the error: {eager}"
    );
    let delayed =
        Driver::new(&program, &natives, config(vec![33, 42])).run(Technique::DartSoundDelayed);
    assert!(
        delayed.found_error(1),
        "delayed concretization must negate y == 10 freely: {delayed}"
    );
    assert_eq!(delayed.divergences, 0, "delayed pcs stay sound");
    let hotg = Driver::new(&program, &natives, config(vec![33, 42])).run(Technique::HigherOrder);
    assert!(hotg.found_error(1), "{hotg}");
}

/// Non-linear guard `x * y == 12`: outside every technique's reach (the
/// multiplication is a genuinely unknown instruction), demonstrating that
/// higher-order generation *soundly rejects* rather than diverging.
#[test]
fn nonlinear_all_whitebox_reject() {
    let (program, natives) = corpus::nonlinear();
    let driver = Driver::new(&program, &natives, config(vec![3, 5]));
    let report = driver.run(Technique::HigherOrder);
    assert!(!report.found_error(1));
    assert_eq!(report.divergences, 0);
}

/// CRC-guarded payload: higher-order generation inverts the *chained*
/// checksum applications. From an arbitrary start it first satisfies the
/// checksum for the current payload (strategy binds `claim` to the nested
/// crc8 chain), then probes to learn the chain for the `buf[0] = 77`
/// payload, reaching the deep error. Concretization-based techniques get
/// stuck at the checksum.
#[test]
fn crc_guard_higher_order_only() {
    let (program, natives) = corpus::crc_guard();
    let cfg = DriverConfig {
        max_runs: 60,
        ..DriverConfig::with_initial(vec![1, 2, 3, 4, 0])
    };
    let hotg = Driver::new(&program, &natives, cfg.clone()).run(Technique::HigherOrder);
    assert!(hotg.found_error(1), "{hotg}");
    for technique in [Technique::DartUnsound, Technique::DartSound] {
        let r = Driver::new(&program, &natives, cfg.clone()).run(technique);
        assert!(
            !r.found_error(1),
            "{technique} must be stuck at the checksum: {r}"
        );
    }
}

/// k-step generalization of Example 7 (§5.3): deeper chains need probe
/// runs to learn `hash` at fresh points.
#[test]
fn kstep_multi_step_generation() {
    for k in 2..=3usize {
        let (program, natives) = corpus::kstep(k);
        let mut initial = vec![33, 42];
        initial.extend(std::iter::repeat_n(0, k - 1));
        let cfg = DriverConfig {
            max_runs: 60,
            ..DriverConfig::with_initial(initial)
        };
        let driver = Driver::new(&program, &natives, cfg);
        let report = driver.run(Technique::HigherOrder);
        assert!(report.found_error(1), "k={k}: {report}");
        assert!(report.probes >= 1, "k={k} needs probes: {report}");
    }
}

/// §8: higher-order compositional test generation — the summarized
/// helper is abstracted as `adjusted#(y)` constrained by its summary
/// implications, and the deep error is reached via a strategy that
/// mentions the *summarized* application, probed multi-step style.
#[test]
fn composed_compositional_finds_error() {
    let (program, natives) = corpus::composed();
    let cfg = config(vec![0, 0]);
    let comp =
        Driver::new(&program, &natives, cfg.clone()).run(Technique::HigherOrderCompositional);
    assert!(comp.found_error(1), "compositional must reach it: {comp}");
    assert_eq!(comp.divergences, 0);
    // The winning strategy speaks about the summarized function.
    let mentions_helper = comp.runs.iter().any(
        |r| matches!(&r.origin, Origin::Strategy { strategy, .. } if strategy.contains("adjusted")),
    );
    assert!(
        mentions_helper,
        "a strategy must mention the summarized call: {comp}"
    );
    // Inline higher-order also succeeds (precision baseline).
    let inline = Driver::new(&program, &natives, cfg).run(Technique::HigherOrder);
    assert!(inline.found_error(1), "{inline}");
}

/// Seed-corpus executions run before the search and are labelled.
#[test]
fn seed_corpus_runs_first() {
    let (program, natives) = corpus::obscure();
    let cfg = DriverConfig {
        seed_corpus: vec![vec![567, 42]],
        ..config(vec![0, 0])
    };
    let report = Driver::new(&program, &natives, cfg).run(Technique::HigherOrder);
    assert!(matches!(report.runs[0].origin, Origin::Initial));
    assert!(matches!(report.runs[1].origin, Origin::Seed));
    // The seed itself hits the error (x = hash(y) already).
    assert_eq!(report.first_hit(1), Some(1));
    assert!(report.elapsed > std::time::Duration::ZERO);
}

/// Boundary of Theorem 4 (a finding of this reproduction): when sound
/// concretization makes a *nested* unknown product constant, the outer
/// product becomes linear for it — but stays an uninterpreted
/// application for higher-order generation, whose sound invalidity
/// verdict then blocks the target. The simulation theorem presumes the
/// imprecision sites coincide across modes; this program breaks that
/// premise, and eager sound concretization strictly wins.
#[test]
fn theorem4_boundary_sound_beats_higher_order() {
    let (program, natives) = corpus::theorem4_boundary();
    let cfg = config(vec![-3, -10, 10]);
    let sound = Driver::new(&program, &natives, cfg.clone()).run(Technique::DartSound);
    assert!(
        sound.found_error(1),
        "sound concretization keeps the outer product linear and solves y = 0: {sound}"
    );
    let hotg = Driver::new(&program, &natives, cfg).run(Technique::HigherOrder);
    assert!(
        !hotg.found_error(1),
        "higher-order soundly rejects (free @mul need not be zero anywhere): {hotg}"
    );
    assert_eq!(hotg.divergences, 0);
}

/// Divergence-freedom of the sound techniques on the whole corpus
/// (Theorems 2 and 3).
#[test]
fn sound_modes_never_diverge_on_corpus() {
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        let cfg = DriverConfig {
            max_runs: 25,
            ..DriverConfig::with_initial(vec![7; width])
        };
        for technique in [
            Technique::DartSound,
            Technique::DartSoundDelayed,
            Technique::HigherOrder,
        ] {
            let driver = Driver::new(&program, &natives, cfg.clone());
            let report = driver.run(technique);
            assert_eq!(
                report.divergences, 0,
                "{technique} diverged on {name}: {report}"
            );
        }
    }
}

/// Theorem 4 (simulation): on the corpus, whenever the sound-concretization
/// search generates a test for a target, the higher-order search reaches
/// at least as much coverage and at least as many errors.
#[test]
fn higher_order_dominates_sound_concretization() {
    for (name, ctor) in corpus::all() {
        let (program, natives) = ctor();
        let width = program.input_width();
        let cfg = DriverConfig {
            max_runs: 40,
            ..DriverConfig::with_initial(vec![3; width])
        };
        let sound = Driver::new(&program, &natives, cfg.clone()).run(Technique::DartSound);
        let hotg = Driver::new(&program, &natives, cfg.clone()).run(Technique::HigherOrder);
        assert!(
            hotg.covered_directions() >= sound.covered_directions(),
            "{name}: HOTG coverage {} < sound coverage {}",
            hotg.covered_directions(),
            sound.covered_directions()
        );
        for code in sound.errors.keys() {
            assert!(
                hotg.found_error(*code),
                "{name}: sound found error {code} but HOTG did not"
            );
        }
    }
}
