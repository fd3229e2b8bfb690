//! Linear integer arithmetic: branch-and-bound on top of the rational
//! [`crate::simplex::Simplex`] core, with a GCD pre-test for
//! integer-infeasible equalities and provenance-based unsat cores.
//!
//! Every solver variable is integer-sorted (program inputs and
//! uninterpreted-application results are integers), so the LIA layer is
//! the only theory backend. To guarantee termination of branch-and-bound,
//! all variables carry artificial global bounds (configurable, default
//! ±2³²) — test inputs outside that window are never needed for the
//! workloads in this workspace; a search that exceeds its node budget
//! reports [`LiaResult::Unknown`] rather than guessing.
//!
//! On infeasibility the solver returns a *core*: indices of a subset of
//! the input constraints that is itself infeasible. A core is produced
//! whenever the simplex explanation involves only tagged constraint
//! bounds (no artificial global bounds, no branch splits); otherwise
//! `core` is `None` and callers fall back to weaker conflict clauses.
//!
//! The solver works on constraints over dense key ids
//! (`IntConstraint<u32>`). The SMT encoder interns its keys once per
//! query, ranked in `LinKey` order, and every refinement round and
//! core-minimization probe calls the id-keyed core directly;
//! [`solve_int`] interns a `LinKey` system the same way first. A call
//! gives the keys its constraints mention simplex variables `0..` in id
//! order, which is the order of the sorted key universe, builds one
//! full-range root tableau, and clones it per branch-and-bound node,
//! adding only that node's branch bounds; each preference box tightens
//! the key bounds on another clone of the same root. A clone is the
//! tableau a per-node (or per-box) rebuild would produce, so the nodes,
//! pivots, cores and models are exactly those of rebuilding (the kernel
//! contract in `DESIGN.md`, pinned by `tests/kernel_golden.rs`).

use crate::simplex::{BoundKind, Simplex, SimplexResult};
use hotg_logic::{LinKey, Rat};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Relation kind of a normalized integer constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConKind {
    /// `expr = 0`.
    Eq,
    /// `expr ≤ 0`.
    Le,
}

/// A normalized integer linear constraint `Σ coeffᵢ·keyᵢ + constant ⋈ 0`.
///
/// Keys are [`LinKey`]s at the API. Inside the SMT encoder they are dense
/// `u32` ids ranked in `LinKey` order, interned once per query, so the
/// refinement rounds never compare or clone a `LinKey`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntConstraint<K = LinKey> {
    /// Sorted, deduplicated `(key, coefficient)` pairs with nonzero coeffs.
    pub coeffs: Vec<(K, i128)>,
    /// Constant offset.
    pub constant: i128,
    /// Relation against zero.
    pub kind: ConKind,
}

impl<K: Ord> IntConstraint<K> {
    /// Evaluates the constraint under an assignment; `None` if a key is
    /// missing.
    pub fn eval(&self, assign: &BTreeMap<K, i64>) -> Option<bool> {
        let mut total = self.constant;
        for (k, c) in &self.coeffs {
            let v = *assign.get(k)? as i128;
            total = total.checked_add(c.checked_mul(v)?)?;
        }
        Some(match self.kind {
            ConKind::Eq => total == 0,
            ConKind::Le => total <= 0,
        })
    }
}

/// Outcome of an integer feasibility check. The model maps every key the
/// constraints mention to its value: a `LinKey` map at the API, and
/// `(key id, value)` pairs in id order inside the solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiaResult<M = BTreeMap<LinKey, i64>> {
    /// Feasible, with an integer value per key.
    Sat(M),
    /// Infeasible. `core` lists the indices of an infeasible subset of
    /// the input constraints when one could be derived soundly.
    Unsat {
        /// Sound infeasible subset, if available.
        core: Option<Vec<usize>>,
    },
    /// Budget exhausted before a definitive answer.
    Unknown,
}

impl<M> LiaResult<M> {
    /// `true` for any `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, LiaResult::Unsat { .. })
    }
}

/// The model of an id-keyed system: `(key id, value)` for every key the
/// constraints mention, in id order.
pub(crate) type IdModel = Vec<(u32, i64)>;

/// Configuration for the LIA solver.
#[derive(Clone, Copy, Debug)]
pub struct LiaConfig {
    /// Artificial lower bound applied to every variable.
    pub var_min: i64,
    /// Artificial upper bound applied to every variable.
    pub var_max: i64,
    /// Maximum number of branch-and-bound nodes explored.
    pub node_budget: u64,
    /// Prefer small-magnitude solutions: on success, retry inside
    /// progressively larger boxes (±2⁴, ±2⁸, ±2¹⁶) and return the first
    /// feasible small model. Generated test inputs stay human-sized.
    pub prefer_small: bool,
}

impl Default for LiaConfig {
    fn default() -> LiaConfig {
        LiaConfig {
            var_min: -(1 << 32),
            var_max: 1 << 32,
            node_budget: 20_000,
            prefer_small: true,
        }
    }
}

fn gcd128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn core_from_explanation(expl: &[Option<u32>]) -> Option<Vec<usize>> {
    expl.iter()
        .map(|t| t.map(|x| x as usize))
        .collect::<Option<Vec<usize>>>()
        .map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
}

/// Decides integer feasibility of a conjunction of constraints.
///
/// # Examples
///
/// ```
/// use hotg_logic::{LinKey, Signature, Sort};
/// use hotg_solver::lia::{solve_int, ConKind, IntConstraint, LiaConfig, LiaResult};
///
/// let mut sig = Signature::new();
/// let x = LinKey::Var(sig.declare_var("x", Sort::Int));
/// // 2x = 1 has no integer solution.
/// let c = IntConstraint {
///     coeffs: vec![(x, 2)],
///     constant: -1,
///     kind: ConKind::Eq,
/// };
/// assert!(solve_int(&[c], &LiaConfig::default()).is_unsat());
/// ```
pub fn solve_int<C: Borrow<IntConstraint>>(constraints: &[C], config: &LiaConfig) -> LiaResult {
    let mut budget = config.node_budget;
    solve_int_budgeted(constraints, config, &mut budget)
}

/// Like [`solve_int`], but drawing branch-and-bound nodes from an external
/// pool instead of a per-call allowance. Callers that issue many theory
/// checks in a refinement loop (the SMT solver) use one shared pool so a
/// single hard query cannot multiply its cost by the number of rounds.
///
/// Both entry points take owned constraints or references, so a caller
/// holding its constraints elsewhere need not clone them per call. They
/// intern the keys and run the id-keyed core the SMT solver calls.
pub fn solve_int_budgeted<C: Borrow<IntConstraint>>(
    constraints: &[C],
    config: &LiaConfig,
    budget: &mut u64,
) -> LiaResult {
    let constraints: Vec<&IntConstraint> = constraints.iter().map(Borrow::borrow).collect();
    let (keys, interned) = intern(&constraints);
    let refs: Vec<&IntConstraint<u32>> = interned.iter().collect();
    match solve_ids(&refs, keys.len(), config, budget) {
        LiaResult::Sat(model) => LiaResult::Sat(
            model
                .into_iter()
                .map(|(id, v)| (keys[id as usize].clone(), v))
                .collect(),
        ),
        LiaResult::Unsat { core } => LiaResult::Unsat { core },
        LiaResult::Unknown => LiaResult::Unknown,
    }
}

/// Interns the constraints' keys: returns the sorted key universe and
/// every constraint over ids into it (the keys' ranks in `LinKey` order),
/// terms in their original order.
fn intern(constraints: &[&IntConstraint]) -> (Vec<LinKey>, Vec<IntConstraint<u32>>) {
    let mut keys: Vec<&LinKey> = constraints
        .iter()
        .flat_map(|con| con.coeffs.iter().map(|(k, _)| k))
        .collect();
    keys.sort();
    keys.dedup();
    let interned = constraints
        .iter()
        .map(|con| IntConstraint {
            coeffs: con
                .coeffs
                .iter()
                .map(|(k, c)| {
                    // Every key was collected above.
                    let id = keys.binary_search(&k).expect("interned key");
                    (id as u32, *c)
                })
                .collect(),
            constant: con.constant,
            kind: con.kind,
        })
        .collect();
    (keys.into_iter().cloned().collect(), interned)
}

/// Decides integer feasibility of constraints over key ids below
/// `n_keys`: the core of [`solve_int_budgeted`], and what the SMT solver
/// calls each refinement round and each core-minimization probe.
///
/// The keys the constraints mention become simplex variables `0..` in id
/// order, so pivots, branches, cores and models are those of the sorted
/// `LinKey` universe. One full-range root tableau is built per call; each
/// preference box tightens the key bounds on a clone of it, which is the
/// tableau a rebuild would produce (every key is still at 0).
pub(crate) fn solve_ids(
    constraints: &[&IntConstraint<u32>],
    n_keys: usize,
    config: &LiaConfig,
    budget: &mut u64,
) -> LiaResult<IdModel> {
    // GCD pre-test: Σ aᵢxᵢ = -c is integer-infeasible when gcd(aᵢ) ∤ c.
    for (i, con) in constraints.iter().enumerate() {
        if con.kind == ConKind::Eq && !con.coeffs.is_empty() {
            let g = con.coeffs.iter().fold(0i128, |acc, (_, c)| gcd128(acc, *c));
            if g > 1 && con.constant % g != 0 {
                return LiaResult::Unsat {
                    core: Some(vec![i]),
                };
            }
        }
        if con.coeffs.is_empty() {
            let ok = match con.kind {
                ConKind::Eq => con.constant == 0,
                ConKind::Le => con.constant <= 0,
            };
            if !ok {
                return LiaResult::Unsat {
                    core: Some(vec![i]),
                };
            }
        }
    }

    // Simplex variable per mentioned key, in id order.
    let mut var_of = vec![u32::MAX; n_keys];
    for con in constraints {
        for &(id, _) in &con.coeffs {
            var_of[id as usize] = 0;
        }
    }
    let mut present: Vec<u32> = Vec::new();
    for (id, var) in var_of.iter_mut().enumerate() {
        if *var != u32::MAX {
            *var = present.len() as u32;
            present.push(id as u32);
        }
    }

    let root = root_tableau(constraints, &var_of, present.len(), config);
    let full = branch(&root, &present, budget);
    if config.prefer_small {
        if let (LiaResult::Sat(fallback), Ok(root)) = (&full, &root) {
            // The problem is feasible; look for a small-magnitude model
            // inside progressively larger boxes (a solution of a boxed
            // problem solves the full problem too). Keep the full-range
            // model if every box misses.
            for p in [4u32, 8, 16] {
                let bound = 1i64 << p;
                if -bound < config.var_min || bound > config.var_max {
                    continue;
                }
                if fallback.iter().all(|(_, v)| v.abs() <= bound) {
                    break; // already small enough
                }
                let boxed = key_bounds(root.clone(), present.len(), -bound, bound);
                if let LiaResult::Sat(m) = branch(&boxed, &present, budget) {
                    return LiaResult::Sat(m);
                }
            }
        }
    }
    full
}

/// Bounds the first `n_keys` variables of `s` to `[min, max]`. `Err`
/// carries the outcome of bounds that already conflict.
fn key_bounds(mut s: Simplex, n_keys: usize, min: i64, max: i64) -> Result<Simplex, NodeOutcome> {
    for v in 0..n_keys {
        if s.assert_bound(v, BoundKind::Lower, Rat::from(min), None)
            .is_err()
            || s.assert_bound(v, BoundKind::Upper, Rat::from(max), None)
                .is_err()
        {
            return Err(NodeOutcome::Infeasible);
        }
    }
    Ok(s)
}

/// The full-range root tableau of one LIA call: a variable per mentioned
/// key under the global bounds, and a tagged slack row per constraint.
/// Every node starts from a clone of it, which is the same tableau a
/// per-node rebuild would produce. `Err` carries the outcome of a
/// tableau whose bounds already conflict.
fn root_tableau(
    constraints: &[&IntConstraint<u32>],
    var_of: &[u32],
    n_vars: usize,
    config: &LiaConfig,
) -> Result<Simplex, NodeOutcome> {
    let mut s = Simplex::new();
    for _ in 0..n_vars {
        s.new_var();
    }
    let mut s = key_bounds(s, n_vars, config.var_min, config.var_max)?;
    let mut terms: Vec<(usize, Rat)> = Vec::new();
    for (ci, con) in constraints.iter().enumerate() {
        if con.coeffs.is_empty() {
            continue; // validated in solve_ids
        }
        terms.clear();
        terms.extend(
            con.coeffs
                .iter()
                .map(|&(id, c)| (var_of[id as usize] as usize, Rat::from(c))),
        );
        let tag = Some(ci as u32);
        let slack = s.add_row(&terms);
        let target = Rat::from(-con.constant);
        let result = match con.kind {
            ConKind::Eq => s
                .assert_bound(slack, BoundKind::Lower, target, tag)
                .and_then(|()| s.assert_bound(slack, BoundKind::Upper, target, tag)),
            ConKind::Le => s.assert_bound(slack, BoundKind::Upper, target, tag),
        };
        if let Err(expl) = result {
            return Err(unsat_node(&expl));
        }
    }
    Ok(s)
}

/// Branch-and-bound over the rational relaxation, depth-first with an
/// explicit worklist: recursion depth is bounded by the node budget
/// (20k by default), which overflows the thread stack on hard
/// instances, so the search must not use the call stack. Simplex
/// variable `i` is key `keys[i]`.
fn branch(
    root: &Result<Simplex, NodeOutcome>,
    keys: &[u32],
    budget: &mut u64,
) -> LiaResult<IdModel> {
    let mut work: Vec<Vec<(usize, BoundKind, Rat)>> = vec![Vec::new()];
    while let Some(bounds) = work.pop() {
        match branch_node(root, keys, &bounds, budget) {
            NodeOutcome::Done(result) => return result,
            NodeOutcome::Infeasible => {}
            NodeOutcome::Split { index, floor } => {
                // Left branch (key ≤ floor) explored first: push right, then
                // left, so the stack pops left first.
                let mut left = bounds.clone();
                left.push((index, BoundKind::Upper, Rat::from(floor)));
                let mut right = bounds;
                right.push((index, BoundKind::Lower, Rat::from(floor + 1)));
                work.push(right);
                work.push(left);
            }
        }
    }
    // Every leaf was an integrality conflict: infeasible, but no sound
    // core can be named at this level (the conflicts involved branch
    // bounds).
    LiaResult::Unsat { core: None }
}

/// Outcome of evaluating a single branch-and-bound node.
#[derive(Clone)]
enum NodeOutcome {
    /// The whole search is decided: Sat, Unknown, or Unsat with a core
    /// independent of the branch bounds (hence sound globally).
    Done(LiaResult<IdModel>),
    /// This node is infeasible only together with its branch bounds;
    /// sibling nodes must still be explored.
    Infeasible,
    /// Relaxation is feasible but key variable `index` took a fractional
    /// value with the given floor: split into two child nodes.
    Split { index: usize, floor: i128 },
}

fn branch_node(
    root: &Result<Simplex, NodeOutcome>,
    keys: &[u32],
    extra_bounds: &[(usize, BoundKind, Rat)],
    budget: &mut u64,
) -> NodeOutcome {
    if *budget == 0 {
        return NodeOutcome::Done(LiaResult::Unknown);
    }
    *budget -= 1;

    let mut s = match root {
        Ok(s) => s.clone(),
        Err(outcome) => return outcome.clone(),
    };
    for &(i, kind, c) in extra_bounds {
        if let Err(expl) = s.assert_bound(i, kind, c, None) {
            return unsat_node(&expl);
        }
    }

    match s.check() {
        SimplexResult::Unsat(expl) => unsat_node(&expl),
        SimplexResult::Sat(values) => {
            // Find a fractional key.
            match values[..keys.len()].iter().position(|v| !v.is_integer()) {
                None => {
                    let mut out = Vec::with_capacity(keys.len());
                    for (&id, v) in keys.iter().zip(&values) {
                        // Integral but outside i64 (exact rationals are
                        // i128-backed): the model is unrepresentable in the
                        // engine's i64 input domain, so report Unknown
                        // instead of panicking mid-campaign.
                        let Some(as_int) = v.to_i64() else {
                            return NodeOutcome::Done(LiaResult::Unknown);
                        };
                        out.push((id, as_int));
                    }
                    NodeOutcome::Done(LiaResult::Sat(out))
                }
                Some(i) => NodeOutcome::Split {
                    index: i,
                    floor: values[i].floor(),
                },
            }
        }
    }
}

/// Maps a simplex infeasibility explanation to a node outcome: a core
/// naming only original constraints is sound independently of the branch
/// bounds (the whole problem is infeasible); otherwise only this node is
/// dead and its siblings must still be explored.
fn unsat_node(expl: &[Option<u32>]) -> NodeOutcome {
    match core_from_explanation(expl) {
        Some(core) => NodeOutcome::Done(LiaResult::Unsat { core: Some(core) }),
        None => NodeOutcome::Infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::{Signature, Sort, Var};

    fn keys3() -> (LinKey, LinKey, LinKey) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let z = sig.declare_var("z", Sort::Int);
        (LinKey::Var(x), LinKey::Var(y), LinKey::Var(z))
    }

    fn eq(coeffs: Vec<(LinKey, i128)>, constant: i128) -> IntConstraint {
        IntConstraint {
            coeffs,
            constant,
            kind: ConKind::Eq,
        }
    }

    fn le(coeffs: Vec<(LinKey, i128)>, constant: i128) -> IntConstraint {
        IntConstraint {
            coeffs,
            constant,
            kind: ConKind::Le,
        }
    }

    fn cfg() -> LiaConfig {
        LiaConfig::default()
    }

    #[test]
    fn empty_is_sat() {
        let none: [IntConstraint; 0] = [];
        assert!(matches!(solve_int(&none, &cfg()), LiaResult::Sat(_)));
    }

    #[test]
    fn trivially_false_constant_with_core() {
        // 0·x + 1 = 0
        assert_eq!(
            solve_int(&[eq(vec![], 1)], &cfg()),
            LiaResult::Unsat {
                core: Some(vec![0])
            }
        );
        assert!(solve_int(&[le(vec![], 1)], &cfg()).is_unsat());
        assert!(matches!(
            solve_int(&[le(vec![], 0)], &cfg()),
            LiaResult::Sat(_)
        ));
    }

    #[test]
    fn single_equality() {
        let (x, _, _) = keys3();
        // x - 42 = 0
        let r = solve_int(&[eq(vec![(x.clone(), 1)], -42)], &cfg());
        match r {
            LiaResult::Sat(m) => assert_eq!(m[&x], 42),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn gcd_infeasible_core() {
        let (x, y, _) = keys3();
        // 3x - 3y = 1
        let r = solve_int(&[eq(vec![(x, 3), (y, -3)], -1)], &cfg());
        assert_eq!(
            r,
            LiaResult::Unsat {
                core: Some(vec![0])
            }
        );
    }

    #[test]
    fn conflict_core_is_small() {
        let (x, y, z) = keys3();
        // x = 1, x = 2 conflict; z constraint is irrelevant.
        let cons = [
            eq(vec![(z.clone(), 1)], -7),
            eq(vec![(x.clone(), 1)], -1),
            eq(vec![(x.clone(), 1)], -2),
            le(vec![(y.clone(), 1)], 0),
        ];
        match solve_int(&cons, &cfg()) {
            LiaResult::Unsat { core: Some(core) } => {
                assert!(core.contains(&1) && core.contains(&2), "{core:?}");
                assert!(!core.contains(&0), "irrelevant z in core: {core:?}");
            }
            other => panic!("expected UNSAT with core, got {other:?}"),
        }
    }

    #[test]
    fn branch_and_bound_needed() {
        let (x, y, _) = keys3();
        // 2x + 2y = 6 ∧ x ≤ y - 1  →  x + y = 3, x < y: x=1, y=2.
        let cons = [
            eq(vec![(x.clone(), 2), (y.clone(), 2)], -6),
            le(vec![(x.clone(), 1), (y.clone(), -1)], 1),
        ];
        match solve_int(&cons, &cfg()) {
            LiaResult::Sat(m) => {
                assert_eq!(m[&x] + m[&y], 3);
                assert!(m[&x] < m[&y]);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn integer_infeasible_interval() {
        let (x, _, _) = keys3();
        // 1 ≤ 2x ≤ 1  →  2x = 1: rationally feasible, integrally not.
        let cons = [
            le(vec![(x.clone(), -2)], 1), // -2x + 1 ≤ 0  ⇒ 2x ≥ 1
            le(vec![(x.clone(), 2)], -1), // 2x - 1 ≤ 0  ⇒ 2x ≤ 1
        ];
        assert!(solve_int(&cons, &cfg()).is_unsat());
    }

    #[test]
    fn three_var_system() {
        let (x, y, z) = keys3();
        // x + y + z = 10, x - y = 4, z ≤ 2.
        let cons = [
            eq(vec![(x.clone(), 1), (y.clone(), 1), (z.clone(), 1)], -10),
            eq(vec![(x.clone(), 1), (y.clone(), -1)], -4),
            le(vec![(z.clone(), 1)], -2),
        ];
        match solve_int(&cons, &cfg()) {
            LiaResult::Sat(m) => {
                assert_eq!(m[&x] + m[&y] + m[&z], 10);
                assert_eq!(m[&x] - m[&y], 4);
                assert!(m[&z] <= 2);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn respects_global_bounds() {
        let (x, _, _) = keys3();
        let config = LiaConfig {
            var_min: -5,
            var_max: 5,
            node_budget: 100,
            prefer_small: false,
        };
        // x ≥ 6 within ±5 bounds: UNSAT but the artificial bound is part
        // of the conflict, so no sound core is claimed.
        let r = solve_int(&[le(vec![(x, -1)], 6)], &config);
        assert_eq!(r, LiaResult::Unsat { core: None });
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let (x, y, _) = keys3();
        let config = LiaConfig {
            var_min: -(1 << 20),
            var_max: 1 << 20,
            node_budget: 1,
            prefer_small: false,
        };
        let cons = [
            eq(vec![(x.clone(), 2), (y.clone(), 2)], -6),
            le(vec![(x, 1), (y, -1)], 1),
        ];
        let r = solve_int(&cons, &config);
        assert!(matches!(r, LiaResult::Unknown | LiaResult::Sat(_)));
    }

    #[test]
    fn eval_roundtrip() {
        let (x, y, _) = keys3();
        let con = eq(vec![(x.clone(), 1), (y.clone(), -1)], -4);
        let mut m = BTreeMap::new();
        m.insert(x.clone(), 7i64);
        m.insert(y.clone(), 3i64);
        assert_eq!(con.eval(&m), Some(true));
        m.insert(y, 4);
        assert_eq!(con.eval(&m), Some(false));
        let empty: BTreeMap<LinKey, i64> = BTreeMap::new();
        assert_eq!(con.eval(&empty), None);
        let _ = Var(0);
    }

    #[test]
    fn prefer_small_models() {
        let (x, y, _) = keys3();
        // x ≥ 3 ∧ x + y = 100: plenty of room; the model should stay
        // within the smallest feasible box (±16 here, not ±2³²).
        let cons = [
            le(vec![(x.clone(), -1)], 3),
            eq(vec![(x.clone(), 1), (y.clone(), 1)], -100),
        ];
        match solve_int(&cons, &cfg()) {
            LiaResult::Sat(m) => {
                assert!(m[&x] >= 3);
                assert_eq!(m[&x] + m[&y], 100);
                // 100 forces |y| up to ~100, within the ±2⁸ box.
                assert!(m[&x].abs() <= 256, "{m:?}");
                assert!(m[&y].abs() <= 256, "{m:?}");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn prefer_small_does_not_flip_verdicts() {
        let (x, _, _) = keys3();
        // Feasible only outside every preference box.
        let r = solve_int(&[le(vec![(x.clone(), -1)], 1_000_000)], &cfg());
        match r {
            LiaResult::Sat(m) => assert!(m[&x] >= 1_000_000),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn negative_solutions_found() {
        let (x, _, _) = keys3();
        // x ≤ -10.
        match solve_int(&[le(vec![(x.clone(), 1)], 10)], &cfg()) {
            LiaResult::Sat(m) => assert!(m[&x] <= -10),
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}
