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
//! On infeasibility the solver returns a *core*: the indices of input
//! constraints that are infeasible within the window on their own. It is
//! a node's simplex explanation if that names only tagged constraints;
//! otherwise, once every leaf is refuted, it is the union of the leaves'
//! tagged constraints, as their branch bounds cover every integer point.
//!
//! The solver works on constraints over the rows of a
//! `TheoryTable`: each `Con` names a row by index plus a sign, a
//! constant and a kind. The SMT encoder builds one table per query, its
//! keys ranked in `LinKey` order, and every refinement round calls the
//! table-keyed core directly;
//! [`solve_int`] builds a table from its `LinKey` system first. A call
//! gives the keys its constraints mention simplex variables `0..` in id
//! order, which is the order of the sorted key universe, and refills one
//! full-range root tableau in one pass from the rows, which are already
//! sorted ([`Simplex::refill`]). The constraints over one table row (an
//! atom's bound, its negation, both sides of an equality's split) get
//! one slack each, and the slacks share that row's tableau row, each as
//! ± its form. Every branch-and-bound node resets a second, node tableau
//! from the root and asserts its own bounds: for a preference box, the
//! box's key bounds first, then the node's branch bounds. Both tableaux
//! live in a per-thread workspace that every call on the thread reuses,
//! so their buffers are overwritten in place, not allocated per call and
//! per node. A box that the interval of one asserted row already refutes
//! is not searched: it is charged the one node its search would spend on
//! the infeasible root. The nodes, pivots, cores and models are exactly
//! those of rebuilding a one-row-per-slack tableau per node (the kernel
//! contract in `DESIGN.md`, pinned by `tests/kernel_golden.rs`).

use crate::atoms::{gcd128, Con, TheoryTable};
use crate::simplex::{BoundKind, Simplex, SimplexResult, SlackRow};
use hotg_logic::{LinKey, Rat};
use std::borrow::Borrow;
use std::cell::Cell;
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
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntConstraint {
    /// Sorted, deduplicated `(key, coefficient)` pairs with nonzero coeffs.
    pub coeffs: Vec<(LinKey, i128)>,
    /// Constant offset.
    pub constant: i128,
    /// Relation against zero.
    pub kind: ConKind,
}

impl IntConstraint {
    /// Evaluates the constraint under an assignment; `None` if a key is
    /// missing.
    pub fn eval(&self, assign: &BTreeMap<LinKey, i64>) -> Option<bool> {
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
    /// Infeasible within the window.
    Unsat {
        /// The sorted indices of a subset of the input constraints that
        /// is infeasible within the window on its own; empty only for an
        /// inverted window.
        core: Vec<usize>,
    },
    /// Budget exhausted before a definitive answer.
    Unknown,
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
    /// Every box attempt draws at least one node from the budget, a box
    /// skipped because one asserted row's interval already refutes it
    /// included (it is charged the node its search would spend proving
    /// the boxed root infeasible); only an exhausted budget draws none.
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
/// assert!(matches!(
///     solve_int(&[c], &LiaConfig::default()),
///     LiaResult::Unsat { .. }
/// ));
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
/// put the system in a `TheoryTable`, where constraints over one linear
/// form or its negation share a row as the SMT encoder's do, and run the
/// table-keyed core the SMT solver calls.
pub fn solve_int_budgeted<C: Borrow<IntConstraint>>(
    constraints: &[C],
    config: &LiaConfig,
    budget: &mut u64,
) -> LiaResult {
    let constraints: Vec<&IntConstraint> = constraints.iter().map(Borrow::borrow).collect();
    let (table, keys, cons) = TheoryTable::of_constraints(&constraints);
    match solve_ids(&table, &cons, config, budget) {
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

/// Decides integer feasibility of constraints over the rows of `table`:
/// the core of [`solve_int_budgeted`], and what the SMT solver calls each
/// refinement round.
///
/// The keys the constraints mention become simplex variables `0..` in id
/// order, so pivots, branches, cores and models are those of the sorted
/// `LinKey` universe. The call takes this thread's [`Workspace`] for its
/// duration and refills its root tableau once, full-range; every node
/// resets the workspace's node tableau from it, and a node of a
/// preference box's search asserts the box's key bounds there, which is
/// the tableau a rebuild would produce (every key is still at 0).
pub(crate) fn solve_ids(
    table: &TheoryTable,
    constraints: &[Con],
    config: &LiaConfig,
    budget: &mut u64,
) -> LiaResult<IdModel> {
    let mut workspace = WORKSPACE.take();
    let result = solve_in(&mut workspace, table, constraints, config, budget);
    WORKSPACE.set(workspace);
    result
}

/// The two tableaux of one LIA call: the full-range root, refilled per
/// call, and the node tableau every branch-and-bound node resets from it;
/// and, per table row, the first slack of the call over it. Kept between
/// calls only for their buffers; no state carries over.
#[derive(Default)]
struct Workspace {
    root: Simplex,
    node: Simplex,
    forms: Vec<(u32, bool)>,
}

thread_local! {
    /// This thread's workspace. Shards and workers share an `SmtSolver`
    /// through clones, possibly on several threads; one workspace per
    /// thread needs no lock and serves every query the thread runs.
    static WORKSPACE: Cell<Workspace> = Cell::default();
}

/// The body of [`solve_ids`], on a workspace it has taken.
fn solve_in(
    workspace: &mut Workspace,
    table: &TheoryTable,
    constraints: &[Con],
    config: &LiaConfig,
    budget: &mut u64,
) -> LiaResult<IdModel> {
    // GCD pre-test: Σ aᵢxᵢ = -c is integer-infeasible when gcd(aᵢ) ∤ c.
    for (i, con) in constraints.iter().enumerate() {
        let row = table.row(con.row);
        let ok = if row.is_empty() {
            match con.kind {
                ConKind::Eq => con.constant == 0,
                ConKind::Le => con.constant <= 0,
            }
        } else if con.kind == ConKind::Eq {
            let g = row.iter().fold(0i128, |acc, &(_, c)| gcd128(acc, c));
            g <= 1 || con.constant % g == 0
        } else {
            true
        };
        if !ok {
            return LiaResult::Unsat { core: vec![i] };
        }
    }

    let (var_of, present) = key_vars(table, constraints);
    let Workspace { root, node, forms } = workspace;
    let root = root_tableau(
        root,
        forms,
        table,
        constraints,
        &var_of,
        present.len(),
        config,
    );
    let full = branch(root, node, &present, None, budget);
    if config.prefer_small {
        if let LiaResult::Sat(fallback) = &full {
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
                if box_refuted(table, constraints, bound) {
                    // The boxed root is infeasible: its search would
                    // spend one node (none from an empty pool) and miss.
                    *budget = budget.saturating_sub(1);
                    continue;
                }
                if let LiaResult::Sat(m) = branch(root, node, &present, Some(bound), budget) {
                    return LiaResult::Sat(m);
                }
            }
        }
    }
    full
}

/// The simplex variable of each key id the constraints mention (in id
/// order; `u32::MAX` for the others), and the mentioned ids by variable.
fn key_vars(table: &TheoryTable, constraints: &[Con]) -> (Vec<u32>, Vec<u32>) {
    let mut var_of = vec![u32::MAX; table.n_keys()];
    for con in constraints {
        for &(id, _) in table.row(con.row) {
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
    (var_of, present)
}

/// `true` if some constraint cannot hold with every key in
/// `[-bound, bound]`: its row ranges over `±bound · Σ|aᵢ|` there, and
/// adding its constant puts that interval outside its relation. Computed
/// with checked arithmetic; a row whose interval overflows refutes
/// nothing.
fn box_refuted(table: &TheoryTable, constraints: &[Con], bound: i64) -> bool {
    constraints.iter().any(|con| {
        let reach = table
            .row(con.row)
            .iter()
            .try_fold(0i128, |acc, &(_, c)| acc.checked_add(c.checked_abs()?))
            .and_then(|norm| norm.checked_mul(i128::from(bound)));
        let Some(reach) = reach else {
            return false;
        };
        match con.kind {
            // The least value, constant - reach, is positive.
            ConKind::Le => con.constant > reach,
            // Zero lies outside [constant - reach, constant + reach].
            ConKind::Eq => con.constant > reach || con.constant < -reach,
        }
    })
}

/// Refills `root` in one pass with the full-range root tableau of one
/// LIA call: a variable per mentioned key under the global bounds, and a
/// tagged slack per constraint with keys (the rows list their keys in id
/// order, hence in variable order). The slacks of one table row share
/// one tableau row: the first owns it, and each later one names the first
/// and their relative sign (`Con::negated`), found through `forms`, which
/// maps each table row to its first slack and that slack's sign. Every
/// node resets its tableau from the root, which is the same tableau a
/// per-node rebuild would produce. `None` for an inverted window, whose
/// bounds already conflict (and leaves `root` as it was).
fn root_tableau<'a>(
    root: &'a mut Simplex,
    forms: &mut Vec<(u32, bool)>,
    table: &TheoryTable,
    constraints: &[Con],
    var_of: &[u32],
    n_vars: usize,
    config: &LiaConfig,
) -> Option<&'a Simplex> {
    if n_vars > 0 && config.var_min > config.var_max {
        return None;
    }
    forms.clear();
    forms.resize(table.n_rows(), (u32::MAX, false));
    let mut slacks = 0;
    let rows = constraints
        .iter()
        .enumerate()
        // Keyless constraints were validated in solve_ids.
        .filter(|(_, con)| !table.row(con.row).is_empty())
        .map(|(ci, con)| {
            let first = &mut forms[con.row as usize];
            let shares = if first.0 == u32::MAX {
                *first = (slacks, con.negated);
                None
            } else {
                Some((first.0 as usize, first.1 != con.negated))
            };
            slacks += 1;
            let target = Rat::from(-con.constant);
            SlackRow {
                terms: con
                    .coeffs(table)
                    .map(|(id, c)| (var_of[id as usize] as usize, Rat::from(c))),
                shares,
                lower: (con.kind == ConKind::Eq).then_some(target),
                upper: Some(target),
                tag: Some(ci as u32),
            }
        });
    root.refill(
        n_vars,
        Rat::from(config.var_min),
        Rat::from(config.var_max),
        rows,
    );
    Some(root)
}

/// Branch-and-bound over the rational relaxation, depth-first with an
/// explicit worklist: recursion depth is bounded by the node budget
/// (20k by default), which overflows the thread stack on hard
/// instances, so the search must not use the call stack. Simplex
/// variable `i` is key `keys[i]`; `node` is the tableau each node resets
/// from the root.
fn branch(
    root: Option<&Simplex>,
    node: &mut Simplex,
    keys: &[u32],
    box_bound: Option<i64>,
    budget: &mut u64,
) -> LiaResult<IdModel> {
    let mut work: Vec<Vec<(usize, BoundKind, Rat)>> = vec![Vec::new()];
    let mut core: Vec<usize> = Vec::new();
    while let Some(bounds) = work.pop() {
        match branch_node(root, node, keys, box_bound, &bounds, budget) {
            NodeOutcome::Done(result) => return result,
            NodeOutcome::Infeasible(tags) => core.extend(tags),
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
    // Every leaf is infeasible, and their branch bounds cover every
    // integer point of the window: the union of their tags is a core.
    core.sort_unstable();
    core.dedup();
    LiaResult::Unsat { core }
}

/// Outcome of evaluating a single branch-and-bound node.
enum NodeOutcome {
    /// The whole search is decided: Sat, Unknown, or Unsat with a core
    /// independent of the branch bounds (hence sound globally).
    Done(LiaResult<IdModel>),
    /// This node is infeasible only with its branch bounds or the window
    /// (both untagged); sibling nodes must still be explored. Carries the
    /// tagged constraints of its explanation, its share of the core.
    Infeasible(Vec<usize>),
    /// Relaxation is feasible but key variable `index` took a fractional
    /// value with the given floor: split into two child nodes.
    Split { index: usize, floor: i128 },
}

/// Evaluates one node: resets `s` from the root (into its own buffers),
/// asserts the box's and the node's bounds on it and checks it.
fn branch_node(
    root: Option<&Simplex>,
    s: &mut Simplex,
    keys: &[u32],
    box_bound: Option<i64>,
    extra_bounds: &[(usize, BoundKind, Rat)],
    budget: &mut u64,
) -> NodeOutcome {
    if *budget == 0 {
        return NodeOutcome::Done(LiaResult::Unknown);
    }
    *budget -= 1;

    match root {
        Some(root) => s.clone_from(root),
        // An inverted window: a leaf that only the window refutes.
        None => return NodeOutcome::Infeasible(Vec::new()),
    }
    let box_bounds = box_bound.into_iter().flat_map(|b| {
        (0..keys.len()).flat_map(move |v| {
            [
                (v, BoundKind::Lower, Rat::from(-b)),
                (v, BoundKind::Upper, Rat::from(b)),
            ]
        })
    });
    for (i, kind, c) in box_bounds.chain(extra_bounds.iter().copied()) {
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

/// Maps a simplex infeasibility explanation to a node outcome: one naming
/// only original constraints is a core of the whole problem; otherwise
/// only this node is dead, and its tags go to the union.
fn unsat_node(expl: &[Option<u32>]) -> NodeOutcome {
    let mut tags: Vec<usize> = expl.iter().flatten().map(|&t| t as usize).collect();
    if expl.contains(&None) {
        return NodeOutcome::Infeasible(tags);
    }
    tags.sort_unstable();
    tags.dedup();
    NodeOutcome::Done(LiaResult::Unsat { core: tags })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::tests::{assert_index_exact, slack_view};
    use hotg_logic::{Signature, Sort, Var};
    use hotg_prop::prelude::*;
    use hotg_prop::TestRng;

    fn six_keys() -> Vec<LinKey> {
        let mut sig = Signature::new();
        (0..6)
            .map(|i| LinKey::Var(sig.declare_var(format!("k{i}"), Sort::Int)))
            .collect()
    }

    /// A random system over `keys`: rows of one to three keys with
    /// small coefficients, and constants up to beyond ±2¹⁶, so that some
    /// rows refute some preference boxes.
    fn random_system(rng: &mut TestRng, keys: &[LinKey], n: usize) -> Vec<IntConstraint> {
        (0..n)
            .map(|_| {
                let mut coeffs: Vec<(LinKey, i128)> = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let k = &keys[rng.below(keys.len() as u64) as usize];
                    let c = rng.in_span(-4, 4);
                    if c != 0 && !coeffs.iter().any(|(kk, _)| kk == k) {
                        coeffs.push((k.clone(), c));
                    }
                }
                coeffs.sort();
                let magnitude = [20i128, 300, 70_000][rng.below(3) as usize];
                IntConstraint {
                    coeffs,
                    constant: rng.in_span(-magnitude, magnitude),
                    kind: if rng.below(2) == 0 {
                        ConKind::Eq
                    } else {
                        ConKind::Le
                    },
                }
            })
            .collect()
    }

    /// The root tableau as a per-constraint build makes it: `add_row` and
    /// then the slack's bounds, after the key variables and their bounds.
    fn root_by_add_row(
        table: &TheoryTable,
        constraints: &[Con],
        var_of: &[u32],
        n_vars: usize,
        config: &LiaConfig,
    ) -> Option<Simplex> {
        let mut s = Simplex::new();
        for _ in 0..n_vars {
            s.new_var();
        }
        for v in 0..n_vars {
            s.assert_bound(v, BoundKind::Lower, Rat::from(config.var_min), None)
                .ok()?;
            s.assert_bound(v, BoundKind::Upper, Rat::from(config.var_max), None)
                .ok()?;
        }
        for (ci, con) in constraints.iter().enumerate() {
            if table.row(con.row).is_empty() {
                continue;
            }
            let terms: Vec<(usize, Rat)> = con
                .coeffs(table)
                .map(|(id, c)| (var_of[id as usize] as usize, Rat::from(c)))
                .collect();
            let slack = s.add_row(&terms);
            let (target, tag) = (Rat::from(-con.constant), Some(ci as u32));
            if con.kind == ConKind::Eq {
                s.assert_bound(slack, BoundKind::Lower, target, tag).ok()?;
            }
            s.assert_bound(slack, BoundKind::Upper, target, tag).ok()?;
        }
        Some(s)
    }

    /// A random config's global key bounds, some of which exclude 0.
    fn random_config(rng: &mut TestRng) -> LiaConfig {
        let (var_min, var_max) =
            [(-(1i64 << 32), 1i64 << 32), (-8, 8), (3, 40), (-40, -3)][rng.below(4) as usize];
        LiaConfig {
            var_min,
            var_max,
            ..LiaConfig::default()
        }
    }

    /// Row counts for a chain of refills of one tableau: each in a
    /// different band of 64, so the column stride grows (1 → 3) and
    /// shrinks (3 → 2 → 1) along the chain.
    fn stride_crossing_sizes(rng: &mut TestRng) -> [usize; 4] {
        [1, 129, 65, 1].map(|start| start + rng.below(64) as usize)
    }

    /// A random system of `n` constraints that all have keys, so that
    /// its root tableau has exactly `n` rows.
    fn keyed_system(rng: &mut TestRng, n: usize) -> Vec<IntConstraint> {
        let keys = six_keys();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            out.extend(
                random_system(rng, &keys, n - out.len())
                    .into_iter()
                    .filter(|c| !c.coeffs.is_empty()),
            );
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn one_pass_root_equals_the_add_row_build(seed in 0u64..1_000_000) {
            let mut rng = TestRng::seed_from_u64(seed);
            let n = 1 + rng.below(150) as usize;
            let constraints = random_system(&mut rng, &six_keys(), n);
            let refs: Vec<&IntConstraint> = constraints.iter().collect();
            let (table, _, cons) = TheoryTable::of_constraints(&refs);
            let config = random_config(&mut rng);
            let (var_of, present) = key_vars(&table, &cons);
            let (mut root, mut forms) = (Simplex::new(), Vec::new());
            let one_pass = root_tableau(
                &mut root, &mut forms, &table, &cons, &var_of, present.len(), &config,
            );
            let by_rows = root_by_add_row(&table, &cons, &var_of, present.len(), &config);
            // Per slack: rows, bounds, tags and values; and the violated
            // set. The column index is exact for the shared rows.
            let (Some(one_pass), Some(by_rows)) = (one_pass, by_rows) else {
                panic!("the bounds of both builds agree");
            };
            prop_assert_eq!(slack_view(one_pass), slack_view(&by_rows));
            assert_index_exact(one_pass);
        }

        #[test]
        fn a_dirty_root_refills_to_the_add_row_build(seed in 0u64..1_000_000) {
            let mut rng = TestRng::seed_from_u64(seed);
            // One tableau refilled along the chain, each time after a
            // check has pivoted what the previous refill left in it.
            let (mut root, mut forms) = (Simplex::new(), Vec::new());
            for n in stride_crossing_sizes(&mut rng) {
                let constraints = keyed_system(&mut rng, n);
                let refs: Vec<&IntConstraint> = constraints.iter().collect();
                let (table, _, cons) = TheoryTable::of_constraints(&refs);
                let config = random_config(&mut rng);
                let (var_of, present) = key_vars(&table, &cons);
                let refilled = root_tableau(
                    &mut root, &mut forms, &table, &cons, &var_of, present.len(), &config,
                );
                let by_rows = root_by_add_row(&table, &cons, &var_of, present.len(), &config);
                let (Some(refilled), Some(by_rows)) = (refilled, by_rows) else {
                    panic!("the bounds of both builds agree");
                };
                prop_assert_eq!(slack_view(refilled), slack_view(&by_rows), "{} rows", n);
                assert_index_exact(refilled);
                let _ = root.check();
            }
        }

        #[test]
        fn a_dirty_node_resets_to_a_clone_of_the_root(seed in 0u64..1_000_000) {
            let mut rng = TestRng::seed_from_u64(seed);
            // One node tableau reset from roots along the chain, each time
            // after box bounds and a check have pivoted the previous reset.
            let Workspace { mut root, mut node, mut forms } = Workspace::default();
            for n in stride_crossing_sizes(&mut rng) {
                let constraints = keyed_system(&mut rng, n);
                let refs: Vec<&IntConstraint> = constraints.iter().collect();
                let (table, _, cons) = TheoryTable::of_constraints(&refs);
                let (var_of, present) = key_vars(&table, &cons);
                let Some(root) = root_tableau(
                    &mut root, &mut forms, &table, &cons, &var_of, present.len(), &cfg(),
                ) else {
                    panic!("the default global bounds do not conflict");
                };
                node.clone_from(root);
                prop_assert_eq!(slack_view(&node), slack_view(&root.clone()), "{} rows", n);
                assert_index_exact(&node);
                let bound = Rat::from(1i64 << (4 * (1 + rng.below(4))));
                for v in 0..present.len() {
                    let _ = node.assert_bound(v, BoundKind::Lower, -bound, None);
                    let _ = node.assert_bound(v, BoundKind::Upper, bound, None);
                }
                let _ = node.check();
            }
        }

        #[test]
        fn a_skipped_box_is_one_infeasible_node(seed in 0u64..1_000_000) {
            let mut rng = TestRng::seed_from_u64(seed);
            let n = 1 + rng.below(12) as usize;
            let keys = six_keys();
            let mut constraints = random_system(&mut rng, &keys, n);
            // A keyless constraint is decided before any box is tried.
            constraints.retain(|c| !c.coeffs.is_empty());
            // A single-key equality beyond ±2⁴ refutes at least that box.
            let pin = keys[rng.below(keys.len() as u64) as usize].clone();
            let value = [17i128, 300, 70_000][rng.below(3) as usize];
            constraints.push(IntConstraint {
                coeffs: vec![(pin, 1)],
                constant: if rng.below(2) == 0 { value } else { -value },
                kind: ConKind::Eq,
            });
            let refs: Vec<&IntConstraint> = constraints.iter().collect();
            let (table, _, cons) = TheoryTable::of_constraints(&refs);
            let config = LiaConfig::default();
            let (var_of, present) = key_vars(&table, &cons);
            let mut workspace = Workspace::default();
            let root = root_tableau(
                &mut workspace.root,
                &mut workspace.forms,
                &table,
                &cons,
                &var_of,
                present.len(),
                &config,
            );
            prop_assert!(box_refuted(&table, &cons, 1 << 4));
            for p in [4u32, 8, 16] {
                let bound = 1i64 << p;
                if !box_refuted(&table, &cons, bound) {
                    continue;
                }
                for start in [0u64, 1, 2, 40] {
                    let mut budget = start;
                    let result =
                        branch(root, &mut workspace.node, &present, Some(bound), &mut budget);
                    prop_assert!(!matches!(result, LiaResult::Sat(_)), "box {p}: {result:?}");
                    prop_assert_eq!(start - budget, start.min(1), "box {}", p);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn every_core_is_infeasible_alone(seed in 0u64..1_000_000) {
            let mut rng = TestRng::seed_from_u64(seed);
            let keys = six_keys();
            let n = 1 + rng.below(8) as usize;
            let mut constraints = random_system(&mut rng, &keys, n);
            // Slabs `lo ≤ g·form ≤ lo + g - 2` between two multiples of `g`
            // hold at no integer point: refuting one takes branching.
            for _ in 0..rng.below(3) {
                let (g, mut form) = (2 + rng.in_span(0, 2), Vec::new());
                for k in &keys {
                    if rng.below(3) == 0 {
                        form.push((k.clone(), g * [1, -1, 2, -2][rng.below(4) as usize]));
                    }
                }
                let lo = g * rng.in_span(-50, 50) + 1;
                let negated = form.iter().map(|(k, c)| (k.clone(), -c)).collect();
                constraints.extend([le(form, 2 - g - lo), le(negated, lo)]);
            }
            let mut config = random_config(&mut rng);
            if rng.below(8) == 0 {
                (config.var_min, config.var_max) = (config.var_max, config.var_min);
            }
            (config.node_budget, config.prefer_small) = (2_000, rng.below(2) == 0);
            let LiaResult::Unsat { core } = solve_int(&constraints, &config) else {
                return Ok(());
            };
            let inverted = config.var_min > config.var_max;
            prop_assert!(!core.is_empty() || inverted, "empty core: {constraints:?}");
            let alone: Vec<&IntConstraint> = core.iter().map(|&i| &constraints[i]).collect();
            (config.node_budget, config.prefer_small) = (100_000, false);
            let result = solve_int(&alone, &config);
            prop_assert!(
                core.is_empty() || !matches!(result, LiaResult::Sat(_)),
                "core {core:?} of {constraints:?} under {config:?}: {result:?}"
            );
        }
    }

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
            LiaResult::Unsat { core: vec![0] }
        );
        assert!(matches!(
            solve_int(&[le(vec![], 1)], &cfg()),
            LiaResult::Unsat { .. }
        ));
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
        assert_eq!(r, LiaResult::Unsat { core: vec![0] });
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
            LiaResult::Unsat { core } => {
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
        assert!(matches!(solve_int(&cons, &cfg()), LiaResult::Unsat { .. }));
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
        // x ≥ 6 within ±5 bounds: only the window refutes it, and the
        // window is the solver's semantics, so the constraint is a core.
        let r = solve_int(&[le(vec![(x, -1)], 6)], &config);
        assert_eq!(r, LiaResult::Unsat { core: vec![0] });
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
