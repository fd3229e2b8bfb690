//! Static analysis over `mini` programs: input taint, native-call
//! opacity, reachability and constancy — the *static* counterpart of the
//! paper's dynamic machinery, wired into the concolic driver as a
//! target-pruning and UF-placement oracle.
//!
//! Higher-order test generation (Godefroid, PLDI 2011) decides *at run
//! time* which unknown-function call sites need uninterpreted symbols
//! and which branches are worth flipping. A cheap whole-program abstract
//! interpretation answers a useful fragment of both questions *before*
//! the first execution:
//!
//! * [`AnalysisResult::taint_of`] over-approximates, per conditional
//!   site, which flat inputs the condition can depend on — a static
//!   superset of the free variables of the dynamic path-constraint
//!   conjunct (Theorem 2 only ever pins variables from this set).
//! * [`NativeSite`] classification: a native call whose arguments are
//!   statically constant has a single observable input/output pair, so
//!   its sample can be taken once, up front, and fed to the IOF table
//!   (Figure 3) without any symbolic machinery; dead sites need nothing.
//! * [`AnalysisResult::constancy_of`] marks branches as always-true /
//!   always-false via constant propagation and interval reasoning:
//!   flipping a statically-decided branch is unsatisfiable, so the
//!   driver drops such targets without a solver or validity query.
//! * [`mod@lint`] turns the same facts into structured [`Diagnostic`]s
//!   (`HA###` codes) with a JSON encoding ([`json`]) used by the
//!   `hotg-lint` example binary.
//!
//! The analysis is *sound by over-approximation*: taint sets may be too
//! big (never too small), dead code may be reported live (never the
//! reverse), and constancy falls back to `Unknown`. The concolic
//! executor cross-checks the taint direction in debug builds.
//!
//! # Example
//!
//! ```
//! use hotg_analysis::{analyze, Constancy, SiteClass};
//! use hotg_lang::{parse, check, BranchId};
//!
//! let p = parse(
//!     "native h/1;
//!      program t(x: int) {
//!          let a = 5;
//!          if (a < 3) { error(1); }
//!          if (x == h(a)) { error(2); }
//!          return;
//!      }",
//! )
//! .unwrap();
//! check(&p).unwrap();
//! let r = analyze(&p);
//! assert_eq!(r.constancy_of(BranchId(0)), Constancy::AlwaysFalse);
//! assert_eq!(r.constancy_of(BranchId(1)), Constancy::Unknown);
//! assert_eq!(r.taint_of(BranchId(1)), &[0usize].into_iter().collect());
//! assert_eq!(r.native_sites()[0].class, SiteClass::ConstArgs(vec![5]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod fixpoint;
pub mod json;
pub mod lint;

pub use domain::{AbsVal, Constancy, Interval, Taint};
pub use fixpoint::{analyze, AnalysisResult, BranchFact, NativeSite, SiteClass};
pub use lint::lint;

// Re-exported so diagnostic consumers need only this crate.
pub use hotg_lang::{DiagCode, Diagnostic, Severity, Span, StmtId};

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_lang::{check, corpus, parse, BranchId, Program};

    fn analyzed(src: &str) -> (Program, AnalysisResult) {
        let p = parse(src).unwrap();
        check(&p).unwrap();
        let r = analyze(&p);
        (p, r)
    }

    #[test]
    fn taint_tracks_data_flow() {
        let (_, r) = analyzed(
            "program t(x: int, y: int, z: int) {
                 let a = x + 1;
                 let b = a * 2;
                 if (b == y) { error(1); }
                 if (z > 0) { error(2); }
                 return;
             }",
        );
        assert_eq!(r.taint_of(BranchId(0)), &[0usize, 1].into_iter().collect());
        assert_eq!(r.taint_of(BranchId(1)), &[2usize].into_iter().collect());
    }

    #[test]
    fn taint_is_syntactic_not_semantic() {
        // `0 * x` is always 0 but the symbolic term mentions x: the
        // taint set must keep it.
        let (_, r) = analyzed(
            "program t(x: int) {
                 let a = 0 * x;
                 if (a == 0) { error(1); }
                 return;
             }",
        );
        assert_eq!(r.taint_of(BranchId(0)), &[0usize].into_iter().collect());
    }

    #[test]
    fn native_of_constant_is_untainted() {
        // h(5) is an unknown *constant*: branches on it depend only on x.
        let (_, r) = analyzed(
            "native h/1;
             program t(x: int) {
                 let c = h(5);
                 if (c == x) { error(1); }
                 return;
             }",
        );
        assert_eq!(r.taint_of(BranchId(0)), &[0usize].into_iter().collect());
        assert_eq!(r.native_sites()[0].class, SiteClass::ConstArgs(vec![5]));
    }

    #[test]
    fn array_reads_and_writes_summarized() {
        let (_, r) = analyzed(
            "program t(buf: array[3], x: int) {
                 let v = buf[1];
                 if (v == 7) { error(1); }
                 let w[2];
                 w[0] = x;
                 if (w[1] == 0) { error(2); }
                 return;
             }",
        );
        // Element reads over-approximate to the whole array.
        assert_eq!(
            r.taint_of(BranchId(0)),
            &[0usize, 1, 2].into_iter().collect()
        );
        // The local array absorbed x via the write.
        assert_eq!(r.taint_of(BranchId(1)), &[3usize].into_iter().collect());
    }

    #[test]
    fn constancy_and_dead_code() {
        let (p, r) = analyzed(
            "program t(x: int) {
                 let a = 5;
                 if (a < 3) {
                     error(1);
                 }
                 if (a == 5) {
                     let b = 1;
                 } else {
                     error(2);
                 }
                 if (x > 0) { error(3); }
                 return;
             }",
        );
        assert_eq!(r.constancy_of(BranchId(0)), Constancy::AlwaysFalse);
        assert_eq!(r.constancy_of(BranchId(1)), Constancy::AlwaysTrue);
        assert_eq!(r.constancy_of(BranchId(2)), Constancy::Unknown);
        // error(1) and error(2) are dead; everything else is live.
        let dead: Vec<_> = r.dead_stmts().iter().copied().collect();
        assert_eq!(dead.len(), 2, "dead: {dead:?}");
        // Flip feasibility: branch 0 can only go false, branch 2 both.
        assert!(r.flip_infeasible(BranchId(0), true));
        assert!(!r.flip_infeasible(BranchId(0), false));
        assert!(!r.flip_infeasible(BranchId(2), true));
        assert!(!r.flip_infeasible(BranchId(2), false));
        assert_eq!(p.branch_count as usize, r.branch_count());
    }

    #[test]
    fn refinement_narrows_branch_arms() {
        let (_, r) = analyzed(
            "program t(x: int) {
                 if (x < 10) {
                     if (x < 20) { error(1); }
                 }
                 return;
             }",
        );
        // Inside `x < 10`, `x < 20` is decided.
        assert_eq!(r.constancy_of(BranchId(1)), Constancy::AlwaysTrue);
    }

    #[test]
    fn loops_reach_a_sound_fixpoint() {
        let (_, r) = analyzed(
            "program t(x: int) {
                 let i = 0;
                 while (i < 100) {
                     i = i + 1;
                 }
                 if (i == 100) { error(1); }
                 if (x == i) { error(2); }
                 return;
             }",
        );
        // Widening loses the exact exit value: both must stay sound
        // (never a wrong AlwaysFalse for an actually-taken branch).
        assert_ne!(r.constancy_of(BranchId(1)), Constancy::AlwaysFalse);
        // The loop counter is untainted; branch 2 depends only on x.
        assert_eq!(r.taint_of(BranchId(2)), &[0usize].into_iter().collect());
    }

    #[test]
    fn infinite_loop_kills_fall_through() {
        let (_, r) = analyzed(
            "program t(x: int) {
                 while (0 == 0) {
                     if (x == 3) { error(1); }
                 }
                 error(2);
             }",
        );
        assert_eq!(r.constancy_of(BranchId(0)), Constancy::AlwaysTrue);
        // error(2) after the loop is dead; the branch in the body lives.
        assert_eq!(r.dead_stmts().len(), 1);
        assert!(r.branch(BranchId(1)).reached);
    }

    #[test]
    fn function_bodies_analyzed_per_call_site() {
        let (_, r) = analyzed(
            "fn double(v: int) { return v * 2; }
             program t(x: int) {
                 let a = double(x);
                 let b = double(3);
                 if (a == b) { error(1); }
                 return;
             }",
        );
        // a carries x, b is the constant 6.
        assert_eq!(r.taint_of(BranchId(0)), &[0usize].into_iter().collect());
        assert!(r.dead_stmts().is_empty());
    }

    #[test]
    fn dead_native_site_detected() {
        let (_, r) = analyzed(
            "native h/1;
             program t(x: int) {
                 let a = 1;
                 if (a == 0) {
                     let c = h(x);
                 }
                 if (x == h(2)) { error(1); }
                 return;
             }",
        );
        assert_eq!(r.native_sites().len(), 2);
        assert_eq!(r.native_sites()[0].class, SiteClass::Dead);
        assert_eq!(r.native_sites()[1].class, SiteClass::ConstArgs(vec![2]));
    }

    #[test]
    fn input_dependent_site_detected() {
        let (_, r) = analyzed(
            "native h/1;
             program t(x: int) {
                 if (h(x) == 567) { error(1); }
                 return;
             }",
        );
        assert_eq!(r.native_sites()[0].class, SiteClass::InputDependent);
        assert_eq!(r.taint_of(BranchId(0)), &[0usize].into_iter().collect());
    }

    #[test]
    fn corpus_analyzes_without_panic_and_keeps_errors_reachable() {
        for (name, build) in corpus::all() {
            let (p, _natives) = build();
            let r = analyze(&p);
            assert_eq!(r.branch_count(), p.branch_count as usize, "{name}");
            // Corpus programs are hand-written to exercise their error
            // stops: none may be proved unreachable.
            for (id, s) in hotg_lang::stmt_ids(&p) {
                if matches!(s, hotg_lang::Stmt::Error(_)) {
                    assert!(!r.is_dead(id), "{name}: error stop {id} marked dead");
                }
            }
        }
    }

    #[test]
    fn lint_reports_expected_codes() {
        let (p, r) = analyzed(
            "native h/1;
             program t(x: int) {
                 let a = 5;
                 if (a < 3) {
                     error(1);
                 }
                 let c = h(7);
                 if (x == c) { error(2); }
                 return;
             }",
        );
        let diags = lint(&p, &r);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.0).collect();
        assert!(codes.contains(&"HA002"), "always-false: {codes:?}");
        assert!(codes.contains(&"HA003"), "dead error(1): {codes:?}");
        assert!(codes.contains(&"HA005"), "pre-sampleable h(7): {codes:?}");
        assert!(!codes.contains(&"HA001"), "{codes:?}");
        // Spans point into the source.
        let false_branch = diags.iter().find(|d| d.code.0 == "HA002").unwrap();
        assert!(false_branch.span.is_known());
    }
}
