//! Congruence closure for the theory of equality with uninterpreted
//! functions (EUF).
//!
//! The paper's Section 5.3 shows that higher-order test generation can
//! exploit EUF axioms (Example 5: `∀f ∃x,y: f(x) = f(y)` via `x := y`).
//! The solver decides EUF by Ackermann expansion (see [`crate::smt`]);
//! this module is the ground congruence-closure engine that
//! `tests/euf_cross.rs` holds that encoding to, as a reference oracle.

use hotg_logic::{FuncSym, Term};
use std::collections::HashMap;

/// A ground congruence-closure engine over [`Term`]s.
///
/// Terms are interned into equivalence classes; [`CongruenceClosure::merge`]
/// asserts equalities, congruence is propagated automatically, and
/// [`CongruenceClosure::check`] validates asserted disequalities and
/// distinct-constant separation.
///
/// # Examples
///
/// ```
/// use hotg_logic::{Signature, Sort, Term};
/// use hotg_solver::euf::CongruenceClosure;
///
/// let mut sig = Signature::new();
/// let x = sig.declare_var("x", Sort::Int);
/// let y = sig.declare_var("y", Sort::Int);
/// let f = sig.declare_func("f", 1);
///
/// let mut cc = CongruenceClosure::new();
/// cc.merge(&Term::var(x), &Term::var(y));
/// // Congruence: x = y ⊢ f(x) = f(y).
/// assert!(cc.are_equal(
///     &Term::app(f, vec![Term::var(x)]),
///     &Term::app(f, vec![Term::var(y)]),
/// ));
/// ```
#[derive(Debug, Default)]
pub struct CongruenceClosure {
    terms: Vec<Term>,
    ids: HashMap<Term, usize>,
    parent: Vec<usize>,
    rank: Vec<u32>,
    /// For each class representative: application term ids using a member
    /// of the class as a direct argument.
    use_lists: Vec<Vec<usize>>,
    /// Current signature table: (f, arg class reps) → app term id.
    sigs: HashMap<(FuncSym, Vec<usize>), usize>,
    /// Asserted disequalities (term ids).
    diseqs: Vec<(usize, usize)>,
    /// Class representative → distinct integer constant it contains.
    consts: HashMap<usize, i64>,
    inconsistent: bool,
}

impl CongruenceClosure {
    /// Creates an empty engine.
    pub fn new() -> CongruenceClosure {
        CongruenceClosure::default()
    }

    fn find(&mut self, mut a: usize) -> usize {
        while self.parent[a] != a {
            self.parent[a] = self.parent[self.parent[a]];
            a = self.parent[a];
        }
        a
    }

    fn find_ro(&self, mut a: usize) -> usize {
        while self.parent[a] != a {
            a = self.parent[a];
        }
        a
    }

    /// Interns a term (recursively interning application arguments) and
    /// returns its id.
    pub fn intern(&mut self, t: &Term) -> usize {
        if let Some(&id) = self.ids.get(t) {
            return id;
        }
        let id = match t {
            Term::App(f, args) => {
                let arg_ids: Vec<usize> = args.iter().map(|a| self.intern(a)).collect();
                let id = self.push_term(t.clone());
                let arg_reps: Vec<usize> = arg_ids.iter().map(|&a| self.find(a)).collect();
                for &r in &arg_reps {
                    self.use_lists[r].push(id);
                }
                let key = (*f, arg_reps);
                if let Some(&existing) = self.sigs.get(&key) {
                    self.union(id, existing);
                } else {
                    self.sigs.insert(key, id);
                }
                id
            }
            _ => {
                let id = self.push_term(t.clone());
                if let Term::Int(c) = t {
                    self.consts.insert(id, *c);
                }
                id
            }
        };
        id
    }

    fn push_term(&mut self, t: Term) -> usize {
        let id = self.terms.len();
        self.ids.insert(t.clone(), id);
        self.terms.push(t);
        self.parent.push(id);
        self.rank.push(0);
        self.use_lists.push(Vec::new());
        id
    }

    /// Asserts `a = b`, propagating congruence.
    pub fn merge(&mut self, a: &Term, b: &Term) {
        let ia = self.intern(a);
        let ib = self.intern(b);
        self.union(ia, ib);
    }

    fn union(&mut self, a: usize, b: usize) {
        let mut queue = vec![(a, b)];
        while let Some((a, b)) = queue.pop() {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                continue;
            }
            // Distinct integer constants in one class ⇒ inconsistent.
            match (self.consts.get(&ra).copied(), self.consts.get(&rb).copied()) {
                (Some(x), Some(y)) if x != y => {
                    self.inconsistent = true;
                }
                _ => {}
            }
            let (winner, loser) = if self.rank[ra] >= self.rank[rb] {
                (ra, rb)
            } else {
                (rb, ra)
            };
            if self.rank[winner] == self.rank[loser] {
                self.rank[winner] += 1;
            }
            self.parent[loser] = winner;
            if let Some(c) = self.consts.get(&loser).copied() {
                self.consts.entry(winner).or_insert(c);
            }
            // Re-hash applications that used the losing class.
            let moved = std::mem::take(&mut self.use_lists[loser]);
            for app_id in moved {
                let (f, arg_reps) = self.signature_of(app_id);
                let key = (f, arg_reps);
                if let Some(&other) = self.sigs.get(&key) {
                    if self.find(other) != self.find(app_id) {
                        queue.push((other, app_id));
                    }
                } else {
                    self.sigs.insert(key, app_id);
                }
                self.use_lists[winner].push(app_id);
            }
        }
    }

    fn signature_of(&mut self, app_id: usize) -> (FuncSym, Vec<usize>) {
        let term = self.terms[app_id].clone();
        match term {
            Term::App(f, args) => {
                let reps = args
                    .iter()
                    .map(|a| {
                        let id = *self.ids.get(a).expect("argument interned");
                        self.find(id)
                    })
                    .collect();
                (f, reps)
            }
            _ => unreachable!("use lists only hold applications"),
        }
    }

    /// Asserts `a ≠ b` (validated by [`CongruenceClosure::check`]).
    pub fn assert_ne(&mut self, a: &Term, b: &Term) {
        let ia = self.intern(a);
        let ib = self.intern(b);
        self.diseqs.push((ia, ib));
    }

    /// `true` if the two terms are currently in the same class.
    ///
    /// Interns both terms if they are new (interning may itself trigger
    /// congruence merges with existing applications).
    pub fn are_equal(&mut self, a: &Term, b: &Term) -> bool {
        let ia = self.intern(a);
        let ib = self.intern(b);
        self.find(ia) == self.find(ib)
    }

    /// Checks consistency: no asserted disequality joins one class, and no
    /// class contains two distinct integer constants.
    pub fn check(&self) -> bool {
        if self.inconsistent {
            return false;
        }
        for &(a, b) in &self.diseqs {
            if self.find_ro(a) == self.find_ro(b) {
                return false;
            }
        }
        true
    }

    /// Number of interned terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::{Signature, Sort, Var};

    fn setup() -> (Signature, Var, Var, Var, FuncSym, FuncSym) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        let z = sig.declare_var("z", Sort::Int);
        let f = sig.declare_func("f", 1);
        let g = sig.declare_func("g", 2);
        (sig, x, y, z, f, g)
    }

    #[test]
    fn reflexivity_and_basic_merge() {
        let (_, x, y, _, _, _) = setup();
        let mut cc = CongruenceClosure::new();
        assert!(cc.are_equal(&Term::var(x), &Term::var(x)));
        assert!(!cc.are_equal(&Term::var(x), &Term::var(y)));
        cc.merge(&Term::var(x), &Term::var(y));
        assert!(cc.are_equal(&Term::var(x), &Term::var(y)));
        assert!(cc.check());
    }

    #[test]
    fn transitivity() {
        let (_, x, y, z, _, _) = setup();
        let mut cc = CongruenceClosure::new();
        cc.merge(&Term::var(x), &Term::var(y));
        cc.merge(&Term::var(y), &Term::var(z));
        assert!(cc.are_equal(&Term::var(x), &Term::var(z)));
    }

    #[test]
    fn congruence_unary() {
        let (_, x, y, _, f, _) = setup();
        let mut cc = CongruenceClosure::new();
        let fx = Term::app(f, vec![Term::var(x)]);
        let fy = Term::app(f, vec![Term::var(y)]);
        cc.intern(&fx);
        cc.intern(&fy);
        assert!(!cc.are_equal(&fx, &fy));
        cc.merge(&Term::var(x), &Term::var(y));
        assert!(cc.are_equal(&fx, &fy));
    }

    #[test]
    fn congruence_binary_partial() {
        let (_, x, y, z, _, g) = setup();
        let mut cc = CongruenceClosure::new();
        let gxz = Term::app(g, vec![Term::var(x), Term::var(z)]);
        let gyz = Term::app(g, vec![Term::var(y), Term::var(z)]);
        cc.intern(&gxz);
        cc.intern(&gyz);
        cc.merge(&Term::var(x), &Term::var(y));
        assert!(cc.are_equal(&gxz, &gyz));
    }

    #[test]
    fn nested_congruence() {
        let (_, x, y, _, f, _) = setup();
        let mut cc = CongruenceClosure::new();
        let ffx = Term::app(f, vec![Term::app(f, vec![Term::var(x)])]);
        let ffy = Term::app(f, vec![Term::app(f, vec![Term::var(y)])]);
        cc.intern(&ffx);
        cc.intern(&ffy);
        cc.merge(&Term::var(x), &Term::var(y));
        assert!(cc.are_equal(&ffx, &ffy));
    }

    #[test]
    fn disequality_violation() {
        let (_, x, y, _, _, _) = setup();
        let mut cc = CongruenceClosure::new();
        cc.assert_ne(&Term::var(x), &Term::var(y));
        assert!(cc.check());
        cc.merge(&Term::var(x), &Term::var(y));
        assert!(!cc.check());
    }

    #[test]
    fn disequality_by_congruence() {
        // f(x) ≠ f(y) ∧ x = y is inconsistent.
        let (_, x, y, _, f, _) = setup();
        let mut cc = CongruenceClosure::new();
        let fx = Term::app(f, vec![Term::var(x)]);
        let fy = Term::app(f, vec![Term::var(y)]);
        cc.assert_ne(&fx, &fy);
        cc.merge(&Term::var(x), &Term::var(y));
        assert!(!cc.check());
    }

    #[test]
    fn distinct_constants_conflict() {
        let (_, x, _, _, _, _) = setup();
        let mut cc = CongruenceClosure::new();
        cc.merge(&Term::var(x), &Term::int(1));
        assert!(cc.check());
        cc.merge(&Term::var(x), &Term::int(2));
        assert!(!cc.check());
    }

    #[test]
    fn same_constant_merge_is_fine() {
        let (_, x, y, _, _, _) = setup();
        let mut cc = CongruenceClosure::new();
        cc.merge(&Term::var(x), &Term::int(5));
        cc.merge(&Term::var(y), &Term::int(5));
        cc.merge(&Term::var(x), &Term::var(y));
        assert!(cc.check());
    }

    #[test]
    fn interning_existing_equal_signature() {
        // Interning f(y) after x=y and f(x) exist should immediately join
        // the class of f(x).
        let (_, x, y, _, f, _) = setup();
        let mut cc = CongruenceClosure::new();
        let fx = Term::app(f, vec![Term::var(x)]);
        cc.intern(&fx);
        cc.merge(&Term::var(x), &Term::var(y));
        let fy = Term::app(f, vec![Term::var(y)]);
        assert!(cc.are_equal(&fx, &fy));
        assert!(cc.term_count() >= 4);
    }

    #[test]
    fn functions_with_same_args_but_different_symbols() {
        let (_, x, _, _, f, g) = setup();
        let mut cc = CongruenceClosure::new();
        let fx = Term::app(f, vec![Term::var(x)]);
        let gxx = Term::app(g, vec![Term::var(x), Term::var(x)]);
        cc.intern(&fx);
        cc.intern(&gxx);
        assert!(!cc.are_equal(&fx, &gxx));
    }

    #[test]
    fn chain_of_functions() {
        // x = y ⊢ g(f(x), x) = g(f(y), y).
        let (_, x, y, _, f, g) = setup();
        let mut cc = CongruenceClosure::new();
        let lhs = Term::app(g, vec![Term::app(f, vec![Term::var(x)]), Term::var(x)]);
        let rhs = Term::app(g, vec![Term::app(f, vec![Term::var(y)]), Term::var(y)]);
        cc.intern(&lhs);
        cc.intern(&rhs);
        cc.merge(&Term::var(x), &Term::var(y));
        assert!(cc.are_equal(&lhs, &rhs));
    }
}
