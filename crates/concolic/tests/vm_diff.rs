//! Differential suite: the bytecode shadow VM and the AST tree-walker
//! must produce **bit-identical** [`ConcolicRun`]s — same outcome, same
//! branch/native trace, same path constraint (entry for entry), same IOF
//! samples, concretization/UF counters, and result term — over every
//! corpus program × every symbolic mode × both call-summarization
//! settings × many seeded input vectors.
//!
//! This is the per-run half of the bit-identity contract; the
//! campaign-level half (whole reports, golden digests) lives in
//! `hotg-core`'s parity suite. The input generator deliberately mixes
//! magnitudes: small values drive ordinary branching, mid-range values
//! drive the corpus' guard comparisons, and near-`i64` extremes force
//! the overflow/fault paths, which both engines must stop at with the
//! same fault classification after the same recorded prefix.

use hotg_concolic::{
    execute_compiled_profiled, execute_opts, ConcolicContext, ExecProfile, SymbolicMode,
};
use hotg_lang::{compile, corpus, CompiledProgram, InputVector, NativeRegistry, Program};
use hotg_prop::prelude::*;
use hotg_prop::TestRng;

/// One seeded input vector with tiered magnitudes.
fn seeded_inputs(rng: &mut TestRng, width: usize) -> Vec<i64> {
    (0..width)
        .map(|_| match rng.below(8) {
            // Mostly the corpus' "interesting" band.
            0..=4 => rng.in_span(-1000, 1000) as i64,
            5 => rng.in_span(-10, 10) as i64,
            // Occasionally huge, to hit overflow faults and extreme
            // guards identically in both engines.
            6 => rng.in_span(i64::MIN as i128 / 2, i64::MAX as i128 / 2) as i64,
            _ => [0, 1, -1, 42, 567, i64::MAX, i64::MIN + 1][rng.below(7) as usize],
        })
        .collect()
}

/// The full corpus, compiled once (every corpus program is checked, so
/// compilation never falls back).
fn compiled_corpus() -> Vec<(&'static str, Program, NativeRegistry, CompiledProgram)> {
    corpus::all()
        .iter()
        .map(|(name, ctor)| {
            let (program, natives) = ctor();
            let cp = compile(&program, &natives).expect("corpus programs compile");
            (*name, program, natives, cp)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 64 seeded vectors × 14 programs × 4 modes × {inline, summarized}:
    /// every pair of runs is field-by-field identical.
    #[test]
    fn shadow_vm_is_bit_identical_to_walker(seed in 0u64..u64::MAX) {
        for (name, program, natives, cp) in compiled_corpus() {
            let ctx = ConcolicContext::new(&program);
            let mut rng = TestRng::seed_from_u64(seed);
            let inputs = seeded_inputs(&mut rng, program.input_width());
            let iv = InputVector::new(inputs.clone());
            for mode in SymbolicMode::ALL {
                for summarize in [false, true] {
                    let tree =
                        execute_opts(&ctx, &program, &natives, &iv, mode, 5_000, summarize);
                    let vm = execute_compiled_profiled(
                        &ctx,
                        &cp,
                        &iv,
                        5_000,
                        ExecProfile { mode, summarize_calls: summarize },
                    );
                    assert_eq!(
                        tree, vm,
                        "{name}/{mode:?}/summarize={summarize}/inputs={inputs:?}"
                    );
                }
            }
        }
    }

    /// Fuel parity under random budgets: both engines charge fuel at the
    /// same program points, so for *any* budget they stop at the same
    /// statement with identical recorded prefixes.
    #[test]
    fn shadow_vm_fuel_cliff_is_bit_identical(seed in 0u64..u64::MAX) {
        for (name, program, natives, cp) in compiled_corpus() {
            let ctx = ConcolicContext::new(&program);
            let mut rng = TestRng::seed_from_u64(seed ^ 0xF0E1);
            let inputs = seeded_inputs(&mut rng, program.input_width());
            let iv = InputVector::new(inputs.clone());
            let fuel = rng.below(300);
            let tree = execute_opts(
                &ctx,
                &program,
                &natives,
                &iv,
                SymbolicMode::Uninterpreted,
                fuel,
                false,
            );
            let vm = execute_compiled_profiled(
                &ctx,
                &cp,
                &iv,
                fuel,
                ExecProfile::new(SymbolicMode::Uninterpreted),
            );
            assert_eq!(tree, vm, "{name}/fuel={fuel}/inputs={inputs:?}");
        }
    }
}
