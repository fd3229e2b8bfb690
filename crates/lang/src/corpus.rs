//! The paper's example programs, as `mini` sources with native-function
//! registries.
//!
//! Each constructor returns a parsed-and-checked [`Program`] together with
//! a [`NativeRegistry`] implementing its unknown functions. The default
//! `hash` implementation reproduces the concrete values used in the
//! paper's narration: `hash(42) = 567`, `hash(33) = 123`, `hash(10) = 66`,
//! `hash(1) = 5`; other arguments fall back to a deterministic formula.

use crate::ast::Program;
use crate::check::check;
use crate::interp::NativeRegistry;
use crate::parser::parse;

/// The fallback hash formula used for arguments the paper does not pin.
pub fn default_hash(v: i64) -> i64 {
    (v.wrapping_mul(7919).wrapping_add(12345)).rem_euclid(100_000)
}

/// The paper's `hash` function: pins the values used in the paper's
/// examples and falls back to [`default_hash`] elsewhere.
pub fn paper_hash(v: i64) -> i64 {
    match v {
        42 => 567,
        33 => 123,
        10 => 66,
        1 => 5,
        _ => default_hash(v),
    }
}

/// Registry with the paper's unary `hash`.
pub fn hash_registry() -> NativeRegistry {
    let mut n = NativeRegistry::new();
    n.register("hash", 1, |args| paper_hash(args[0]));
    n
}

fn build(src: &str, natives: NativeRegistry) -> (Program, NativeRegistry) {
    let program = parse(src).expect("corpus program parses");
    check(&program).expect("corpus program checks");
    (program, natives)
}

/// The introduction's `obscure` example: static test generation is
/// helpless, dynamic test generation covers both branches in two runs.
///
/// ```c
/// int obscure(int x, int y) {
///     if (x == hash(y)) return -1; // error
///     return 0; // ok
/// }
/// ```
pub fn obscure() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program obscure(x: int, y: int) {
            if (x == hash(y)) {
                error(1);
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// Section 3.2's `foo`: unsound concretization produces an unsound path
/// constraint and a divergence; sound concretization misses the error;
/// higher-order test generation reaches it in two steps (Example 7).
///
/// ```c
/// int foo(int x, int y) {
///     if (x == hash(y)) {
///         if (y == 10) return -1; // error
///     }
/// }
/// ```
pub fn foo() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program foo(x: int, y: int) {
            if (x == hash(y)) {
                if (y == 10) {
                    error(1);
                }
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// Example 2's `foo-bis`: sound concretization misses the error; unsound
/// concretization reaches it through a "good divergence".
///
/// ```c
/// int foo-bis(int x, int y) {
///     if (x != hash(y)) {
///         if (y == 10) return -1; // error
///     }
/// }
/// ```
pub fn foo_bis() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program foo_bis(x: int, y: int) {
            if (x != hash(y)) {
                if (y == 10) {
                    error(1);
                }
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// Example 3's `bar`: unsound concretization diverges; higher-order test
/// generation correctly proves the alternate path constraint invalid and
/// generates nothing.
///
/// ```c
/// int bar(int x, int y) {
///     if ((x == hash(y)) AND (y == hash(x))) { ... // error }
/// }
/// ```
pub fn bar() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program bar(x: int, y: int) {
            if (x == hash(y) && y == hash(x)) {
                error(1);
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// Example 4's `pub`: sound concretization covers the error; higher-order
/// test generation needs uninterpreted function samples to do the same.
///
/// ```c
/// int pub(int x, int y) {
///     if ((hash(x) > 0) AND (y == 10)) return -1; // error
/// }
/// ```
pub fn pub_fn() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program pub(x: int, y: int) {
            if (hash(x) > 0 && y == 10) {
                error(1);
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// Example 5's separation witness: a branch guarded by `f(x) == f(y)`,
/// coverable through the EUF axiom strategy `x := y` without any samples.
pub fn euf_eq() -> (Program, NativeRegistry) {
    build(
        r#"
        native f/1;
        program euf_eq(x: int, y: int) {
            if (f(x) == f(y)) {
                error(1);
            }
            return;
        }
        "#,
        {
            let mut n = NativeRegistry::new();
            n.register("f", 1, |args| default_hash(args[0] ^ 0x5a5a));
            n
        },
    )
}

/// Example 6's separation witness: a branch guarded by
/// `f(x) == f(y) + 1`, coverable only by leveraging recorded samples in
/// the antecedent.
pub fn euf_offset() -> (Program, NativeRegistry) {
    build(
        r#"
        native f/1;
        program euf_offset(x: int, y: int) {
            if (f(x) == f(y) + 1) {
                error(1);
            }
            return;
        }
        "#,
        {
            let mut n = NativeRegistry::new();
            // f(v) = v for small non-negative v: ensures samples like
            // f(0)=0, f(1)=1 exist once observed.
            n.register("f", 1, |args| args[0]);
            n
        },
    )
}

/// The §3.3 closing example: `x := hash(y); if (y == 10) error;`.
/// Eager sound concretization pins `y` when `hash(y)` is assigned and can
/// no longer negate `y == 10`; *delayed* concretization postpones the pin
/// until the concretized value is used in a constraint — which never
/// happens here — so the error branch is coverable.
pub fn delayed() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program delayed(x: int, y: int) {
            let t = hash(y);
            if (y == 10) {
                error(1);
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// A program whose guard uses a *non-linear instruction* (`x * y`): the
/// multiplication itself is the paper's "unknown instruction", handled by
/// concretization or a fresh uninterpreted function depending on the
/// engine mode.
pub fn nonlinear() -> (Program, NativeRegistry) {
    build(
        r#"
        program nonlinear(x: int, y: int) {
            let p = x * y;
            if (p == 12) {
                error(1);
            }
            return;
        }
        "#,
        NativeRegistry::new(),
    )
}

/// The Rust-side `crc8` step function used by [`crc_guard`].
pub fn crc8_step(acc: i64, byte: i64) -> i64 {
    (acc.wrapping_mul(31) ^ byte.wrapping_mul(17).wrapping_add(3)).rem_euclid(256)
}

/// A CRC-guarded payload (§6 mentions "CRC-ing data" among the unknown
/// functions): the checksum is folded over the buffer with a native step
/// function, so the guard's symbolic value is a *chain of nested
/// uninterpreted applications* `crc8(crc8(…crc8(0, b0)…), b3)`. Reaching
/// the deep error requires both inverting the chain (to satisfy the
/// checksum for a modified payload) and multi-step sampling.
pub fn crc_guard() -> (Program, NativeRegistry) {
    build(
        r#"
        native crc8/2;
        program crc_guard(buf: array[4], claim: int) {
            let acc = 0;
            let i = 0;
            while (i < 4) {
                acc = crc8(acc, buf[i]);
                i = i + 1;
            }
            if (claim == acc) {
                if (buf[0] == 77) {
                    error(1);
                }
            }
            return;
        }
        "#,
        {
            let mut n = NativeRegistry::new();
            n.register("crc8", 2, |args| crc8_step(args[0], args[1]));
            n
        },
    )
}

/// A *breadth* workload (§6 lists record parsers among the target
/// applications): four independently-guarded record fields, each checked
/// against the same unknown `hash` at a distinct salt. Unlike the rest of
/// the corpus — narrow chains whose search frontier is one or two targets
/// deep — every run here exposes a flip target per field, so the
/// generational search fans out (generations reach width ~10 at four
/// fields). This is the program that gives `DriverConfig::threads`
/// something to do, and the shared `hash` means samples learned while
/// inverting one field's guard transfer to every other field.
pub fn fanout() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program fanout(f: array[4], g: array[4]) {
            let ok = 0;
            if (f[0] == hash(g[0])) {
                ok = ok + 1;
            }
            if (f[1] == hash(g[1] + 11)) {
                ok = ok + 1;
            }
            if (f[2] == hash(g[2] + 22)) {
                ok = ok + 1;
            }
            if (f[3] == hash(g[3] + 33)) {
                ok = ok + 1;
            }
            if (ok == 4) {
                error(1);
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// A deeper chain used by the k-step generalization of Example 7: the
/// error requires learning `hash` at several fresh points.
pub fn kstep(k: usize) -> (Program, NativeRegistry) {
    assert!((1..=8).contains(&k), "k must be between 1 and 8");
    // if (x == hash(y)) { if (y == 10) { if (z1 == hash(y + 1)) { ... } } }
    let mut src = String::from("native hash/1;\nprogram kstep(x: int, y: int");
    for i in 1..k {
        src.push_str(&format!(", z{i}: int"));
    }
    src.push_str(") {\n");
    src.push_str("if (x == hash(y)) {\nif (y == 10) {\n");
    for i in 1..k {
        src.push_str(&format!("if (z{i} == hash(y + {i})) {{\n"));
    }
    src.push_str("error(1);\n");
    for _ in 1..k {
        src.push_str("}\n");
    }
    src.push_str("}\n}\nreturn;\n}\n");
    build(&src, hash_registry())
}

/// The §8 scenario: a caller guarded by a *defined* helper function that
/// itself wraps the unknown `hash`. Inline execution is precise;
/// higher-order **compositional** generation abstracts `adjusted` as an
/// uninterpreted application constrained by its summary
/// (`v > 100 ⇒ adjusted(v) = hash(v)+1`, `v ≤ 100 ⇒ adjusted(v) = hash(v)`),
/// combining both kinds of uninterpreted functions in one antecedent.
pub fn composed() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        fn adjusted(v: int) {
            if (v > 100) {
                return hash(v) + 1;
            }
            return hash(v);
        }
        program composed(x: int, y: int) {
            if (x == adjusted(y)) {
                if (y == 200) {
                    error(1);
                }
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// A purpose-built showcase for the static oracle (`hotg-analysis`):
///
/// * `if (a < 3)` with `a = 5` is **always false** — `hotg-lint` flags
///   the branch (HA002) and the statement inside it (HA003);
/// * `hash(7)` has statically **constant arguments** — the driver can
///   pre-sample its input/output pair into the `IOF` table (HA005);
/// * the inner `x < 100` under `x < 10` is **always true** — its flip
///   target is statically infeasible and pruned before any solver call;
/// * the error still requires inverting `hash`: `x == hash(7) + 1`.
pub fn lint_demo() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program lint_demo(x: int) {
            let a = 5;
            if (a < 3) {
                let dead = a + 1;
            }
            let h = hash(7);
            if (x < 10) {
                if (x < 100) {
                    let covered = x;
                }
            }
            if (x == h + 1) {
                error(1);
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// A boundary counterexample for Theorem 4's implicit premise: in
/// `0 == y * (z * x)`, sound concretization pins only the *inner* product
/// (`z`, `x`) and keeps the outer product linear (`-30·y`), so it can
/// solve `y = 0` and reach the error. Uninterpreted-function mode
/// abstracts *both* products (`@mul(y, @mul(z, x))`) and — soundly —
/// certifies the target invalid, because no sample pins a zero product.
/// Theorem 4 assumes the imprecision sites coincide across modes; this
/// program violates that premise.
pub fn theorem4_boundary() -> (Program, NativeRegistry) {
    build(
        r#"
        program theorem4_boundary(x: int, y: int, z: int) {
            if (0 == y * (z * x)) {
                error(1);
            }
            return;
        }
        "#,
        NativeRegistry::new(),
    )
}

/// A guard engineered to separate the symbolic modes by *solver cost*.
///
/// In uninterpreted-function mode the two `hash` applications are free
/// terms, so the flip query's root relaxation `3x = 2h₁ + 2h₂ + 5` has
/// a fractional vertex no matter which variable the simplex makes
/// basic (no coefficient divides the constant: 5/3 or −5/2), and
/// deciding it needs branch-and-bound splits — more than one solver
/// node. Under sound concretization both applications are pinned to
/// their observed values (`hash(20) = 70725`, `hash(21) = 78644`), so
/// the query collapses to `3x = 298743` and an integral root vertex
/// (`x = 99581`) that a single node decides. With
/// `total_node_budget = 1`, higher-order test generation concedes
/// `Unknown` on the flip target — the degradation ladder (Theorem 4's
/// fallback) then recovers the error under sound concretization,
/// whereas a driver without the fallback generates no test at all.
pub fn budget_cliff() -> (Program, NativeRegistry) {
    build(
        r#"
        native hash/1;
        program budget_cliff(x: int, y: int) {
            if (3 * x == 2 * hash(y) + 2 * hash(y + 1) + 5) {
                error(1);
            }
            return;
        }
        "#,
        hash_registry(),
    )
}

/// A named corpus entry: program name and its constructor.
pub type CorpusEntry = (&'static str, fn() -> (Program, NativeRegistry));

/// All named corpus entries (name, constructor) for table-driven tests.
pub fn all() -> Vec<CorpusEntry> {
    vec![
        ("obscure", obscure as fn() -> (Program, NativeRegistry)),
        ("foo", foo),
        ("foo_bis", foo_bis),
        ("bar", bar),
        ("pub", pub_fn),
        ("euf_eq", euf_eq),
        ("euf_offset", euf_offset),
        ("delayed", delayed),
        ("crc_guard", crc_guard),
        ("fanout", fanout),
        ("composed", composed),
        ("nonlinear", nonlinear),
        ("lint_demo", lint_demo),
        ("budget_cliff", budget_cliff),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, InputVector, Outcome};

    #[test]
    fn paper_hash_values() {
        assert_eq!(paper_hash(42), 567);
        assert_eq!(paper_hash(33), 123);
        assert_eq!(paper_hash(10), 66);
        assert_eq!(paper_hash(1), 5);
        assert_eq!(paper_hash(7), default_hash(7));
    }

    #[test]
    fn all_corpus_programs_parse_and_check() {
        for (name, ctor) in all() {
            let (p, _) = ctor();
            assert!(!p.body.is_empty(), "{name} has a body");
        }
    }

    #[test]
    fn obscure_paper_runs() {
        let (p, n) = obscure();
        // First run x=33, y=42: hash(42)=567 ≠ 33 → ok path.
        let (o, t) = run(&p, &n, &InputVector::new(vec![33, 42]), 1000);
        assert_eq!(o, Outcome::Returned);
        assert!(!t.branches[0].1);
        // Second run x=567, y=42: error path.
        let (o2, t2) = run(&p, &n, &InputVector::new(vec![567, 42]), 1000);
        assert_eq!(o2, Outcome::Error(1));
        assert!(t2.branches[0].1);
    }

    #[test]
    fn foo_error_requires_two_conditions() {
        let (p, n) = foo();
        let (o, _) = run(&p, &n, &InputVector::new(vec![66, 10]), 1000);
        assert_eq!(o, Outcome::Error(1)); // x = hash(10) = 66, y = 10
        let (o2, _) = run(&p, &n, &InputVector::new(vec![567, 42]), 1000);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn foo_bis_error_path() {
        let (p, n) = foo_bis();
        // x ≠ hash(10) = 66 and y = 10 → error.
        let (o, _) = run(&p, &n, &InputVector::new(vec![0, 10]), 1000);
        assert_eq!(o, Outcome::Error(1));
        let (o2, _) = run(&p, &n, &InputVector::new(vec![66, 10]), 1000);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn bar_error_is_hard() {
        let (p, n) = bar();
        let (o, t) = run(&p, &n, &InputVector::new(vec![33, 42]), 1000);
        assert_eq!(o, Outcome::Returned);
        // Both hash calls observed (no short circuit).
        assert_eq!(t.native_calls.len(), 2);
    }

    #[test]
    fn pub_error_path() {
        let (p, n) = pub_fn();
        // hash(1) = 5 > 0, y = 10 → error.
        let (o, _) = run(&p, &n, &InputVector::new(vec![1, 10]), 1000);
        assert_eq!(o, Outcome::Error(1));
    }

    #[test]
    fn euf_eq_diagonal_hits_error() {
        let (p, n) = euf_eq();
        let (o, _) = run(&p, &n, &InputVector::new(vec![5, 5]), 1000);
        assert_eq!(o, Outcome::Error(1));
        let (o2, _) = run(&p, &n, &InputVector::new(vec![5, 6]), 1000);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn euf_offset_consecutive_hits_error() {
        let (p, n) = euf_offset();
        let (o, _) = run(&p, &n, &InputVector::new(vec![1, 0]), 1000);
        assert_eq!(o, Outcome::Error(1));
    }

    #[test]
    fn nonlinear_guard() {
        let (p, n) = nonlinear();
        let (o, _) = run(&p, &n, &InputVector::new(vec![3, 4]), 1000);
        assert_eq!(o, Outcome::Error(1));
        let (o2, _) = run(&p, &n, &InputVector::new(vec![3, 5]), 1000);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn composed_semantics() {
        let (p, n) = composed();
        // adjusted(200) = hash(200) + 1.
        let expect = paper_hash(200) + 1;
        let (o, t) = run(&p, &n, &InputVector::new(vec![expect, 200]), 10_000);
        assert_eq!(o, Outcome::Error(1));
        // The inlined call surfaces the native hash in the trace.
        assert_eq!(t.native_calls[0].0, "hash");
        let (o2, _) = run(&p, &n, &InputVector::new(vec![expect + 1, 200]), 10_000);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn crc_guard_semantics() {
        let (p, n) = crc_guard();
        let payload = [77i64, 2, 3, 4];
        let mut acc = 0;
        for b in payload {
            acc = crc8_step(acc, b);
        }
        let mut inputs = payload.to_vec();
        inputs.push(acc);
        let (o, t) = run(&p, &n, &InputVector::new(inputs), 10_000);
        assert_eq!(o, Outcome::Error(1));
        assert_eq!(t.native_calls.len(), 4);
        // Wrong checksum: rejected.
        let mut bad = payload.to_vec();
        bad.push(acc + 1);
        let (o2, _) = run(&p, &n, &InputVector::new(bad), 10_000);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn fanout_needs_all_four_fields() {
        let (p, n) = fanout();
        assert_eq!(p.input_width(), 8);
        let good: Vec<i64> = (0..4).map(|i| paper_hash(11 * i)).collect();
        let mut inputs = good.clone();
        inputs.extend([0i64; 4]);
        let (o, t) = run(&p, &n, &InputVector::new(inputs), 10_000);
        assert_eq!(o, Outcome::Error(1));
        // Every guard evaluates its hash even when it fails.
        assert_eq!(t.native_calls.len(), 4);
        let mut bad = good;
        bad[2] += 1;
        bad.extend([0i64; 4]);
        let (o2, _) = run(&p, &n, &InputVector::new(bad), 10_000);
        assert_eq!(o2, Outcome::Returned);
    }

    #[test]
    fn kstep_generates_deep_chain() {
        let (p, n) = kstep(3);
        assert_eq!(p.input_width(), 4); // x, y, z1, z2
        assert_eq!(p.branch_count, 4);
        // Solve by hand: x = hash(10) = 66, y = 10, z1 = hash(11),
        // z2 = hash(12).
        let inputs = vec![66, 10, paper_hash(11), paper_hash(12)];
        let (o, _) = run(&p, &n, &InputVector::new(inputs), 1000);
        assert_eq!(o, Outcome::Error(1));
    }

    #[test]
    #[should_panic(expected = "k must be between")]
    fn kstep_bounds() {
        let _ = kstep(0);
    }

    #[test]
    fn lint_demo_semantics() {
        let (p, n) = lint_demo();
        assert_eq!(p.input_width(), 1);
        // Error requires x = hash(7) + 1; the dead branch never fires.
        let want = paper_hash(7) + 1;
        let (o, t) = run(&p, &n, &InputVector::new(vec![want]), 1000);
        assert_eq!(o, Outcome::Error(1));
        assert_eq!(t.branches[0], (crate::ast::BranchId(0), false));
        let (o2, _) = run(&p, &n, &InputVector::new(vec![0]), 1000);
        assert_eq!(o2, Outcome::Returned);
    }
}
