//! CDCL solver implementation.

use std::fmt;

/// A propositional literal: a boolean variable index with a polarity.
///
/// Encoded as `2·var + (negated ? 1 : 0)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of variable `v`.
    pub fn pos(v: u32) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of variable `v`.
    pub fn neg(v: u32) -> Lit {
        Lit((v << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = positive).
    pub fn new(v: u32, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable index.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// `true` if the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "p{}", self.var())
        } else {
            write!(f, "~p{}", self.var())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Result of a satisfiability call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with one assignment per variable (indexed by variable).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

type ClauseRef = u32;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
}

/// A CDCL SAT solver over clauses added with [`SatSolver::add_clause`].
///
/// Clauses may be added between [`SatSolver::solve`] calls: solving
/// restarts from scratch and keeps the clauses learned so far, which stay
/// sound because clauses are only ever added, never retracted.
#[derive(Debug, Default)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    /// watches[lit.index()] = clauses currently watching `lit`.
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Clauses of length 0/1 seen at add time; empty clause ⇒ trivially UNSAT.
    trivially_unsat: bool,
    units: Vec<Lit>,
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            var_inc: 1.0,
            ..SatSolver::default()
        }
    }

    /// Allocates a fresh boolean variable and returns its index.
    pub fn new_var(&mut self) -> u32 {
        let v = self.assign.len() as u32;
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of allocated variables.
    pub fn var_count(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (including learned clauses).
    pub fn clause_count(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Duplicate literals are removed; tautological clauses are dropped.
    /// An empty clause makes the instance trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        for l in &ls {
            assert!(
                (l.var() as usize) < self.assign.len(),
                "literal {l:?} references unallocated variable"
            );
        }
        ls.sort();
        ls.dedup();
        // Tautology check: p and ~p adjacent after sort.
        if ls.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        match ls.len() {
            0 => self.trivially_unsat = true,
            1 => self.units.push(ls[0]),
            _ => {
                let cref = self.clauses.len() as ClauseRef;
                self.watches[ls[0].index()].push(cref);
                self.watches[ls[1].index()].push(cref);
                self.clauses.push(Clause { lits: ls });
            }
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var() as usize].map(|b| b == l.is_positive())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) -> bool {
        match self.value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = l.var() as usize;
                self.assign[v] = Some(l.is_positive());
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagates until fixpoint; returns a conflicting clause if found.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !lit; // literals watching ¬lit must react
            let mut i = 0;
            'clauses: while i < self.watches[false_lit.index()].len() {
                let cref = self.watches[false_lit.index()][i];
                // Make sure false_lit is at position 1.
                let lits = &mut self.clauses[cref as usize].lits;
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if self.assign[first.var() as usize].map(|b| b == first.is_positive()) == Some(true)
                {
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                for k in 2..lits.len() {
                    let lk = lits[k];
                    let val = self.assign[lk.var() as usize].map(|b| b == lk.is_positive());
                    if val != Some(false) {
                        lits.swap(1, k);
                        let moved = lits[1];
                        self.watches[false_lit.index()].swap_remove(i);
                        self.watches[moved.index()].push(cref);
                        continue 'clauses;
                    }
                }
                // No new watch: clause is unit or conflicting on `first`.
                if !self.enqueue(first, Some(cref)) {
                    return Some(cref);
                }
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learned clause, backjump level).
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // slot 0 for the asserting literal
        let mut seen = vec![false; self.assign.len()];
        let mut counter = 0usize;
        let mut cref = conflict;
        let mut trail_idx = self.trail.len();
        let mut asserting = None;
        let current = self.decision_level();

        loop {
            let clause_lits = self.clauses[cref as usize].lits.clone();
            for q in clause_lits {
                // Skip the literal we are resolving on: it occurs in its
                // reason clause with its assigned polarity.
                if Some(q) == asserting {
                    continue;
                }
                let v = q.var() as usize;
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Pick the next literal from the trail to resolve.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var() as usize] {
                    asserting = Some(l);
                    break;
                }
            }
            let l = asserting.expect("asserting literal");
            seen[l.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = !l;
                break;
            }
            cref = self.reason[l.var() as usize].expect("non-decision must have a reason");
        }

        // Backjump level: max level among learned[1..].
        let bj = learned[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        (learned, bj)
    }

    fn cancel_until(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("trail_lim");
            for l in self.trail.drain(lim..) {
                let v = l.var() as usize;
                self.assign[v] = None;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&self) -> Option<Lit> {
        let mut best: Option<(u32, f64)> = None;
        for (v, a) in self.assign.iter().enumerate() {
            if a.is_none() {
                let act = self.activity[v];
                if best.is_none_or(|(_, b)| act > b) {
                    best = Some((v as u32, act));
                }
            }
        }
        best.map(|(v, _)| Lit::neg(v)) // negative-first polarity
    }

    fn learn(&mut self, lits: Vec<Lit>) -> Option<ClauseRef> {
        match lits.len() {
            0 => None,
            1 => None,
            _ => {
                let cref = self.clauses.len() as ClauseRef;
                self.watches[lits[0].index()].push(cref);
                self.watches[lits[1].index()].push(cref);
                self.clauses.push(Clause { lits });
                Some(cref)
            }
        }
    }

    /// Decides satisfiability of the current clause set.
    ///
    /// On `Sat`, the returned vector maps each variable index to its value.
    pub fn solve(&mut self) -> SatResult {
        if self.trivially_unsat {
            return SatResult::Unsat;
        }
        // Full restart (keep learned clauses).
        self.cancel_until(0);
        self.trail.clear();
        self.qhead = 0;
        for a in &mut self.assign {
            *a = None;
        }
        for r in &mut self.reason {
            *r = None;
        }
        // Root-level units.
        let units = std::mem::take(&mut self.units);
        for u in &units {
            if !self.enqueue(*u, None) {
                self.units = units;
                return SatResult::Unsat;
            }
        }
        self.units = units;

        let mut conflicts_until_restart = 100u64;
        let mut conflicts = 0u64;

        loop {
            if let Some(conflict) = self.propagate() {
                conflicts += 1;
                if self.decision_level() == 0 {
                    return SatResult::Unsat;
                }
                let (learned, bj) = self.analyze(conflict);
                self.cancel_until(bj);
                let assert_lit = learned[0];
                let reason = self.learn(learned);
                let ok = self.enqueue(assert_lit, reason);
                debug_assert!(ok, "asserting literal must be enqueueable");
                self.var_inc *= 1.05;
                if conflicts >= conflicts_until_restart {
                    conflicts = 0;
                    conflicts_until_restart = (conflicts_until_restart * 3) / 2;
                    self.cancel_until(0);
                }
            } else {
                match self.pick_branch() {
                    None => {
                        let model = self
                            .assign
                            .iter()
                            .map(|a| a.expect("complete assignment"))
                            .collect();
                        return SatResult::Sat(model);
                    }
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, None);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force_sat(n_vars: usize, clauses: &[Vec<Lit>]) -> bool {
        for mask in 0u64..(1 << n_vars) {
            let sat = clauses.iter().all(|c| {
                c.iter()
                    .any(|l| ((mask >> l.var()) & 1 == 1) == l.is_positive())
            });
            if sat {
                return true;
            }
        }
        false
    }

    fn check_model(model: &[bool], clauses: &[Vec<Lit>]) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|l| model[l.var() as usize] == l.is_positive()))
    }

    #[test]
    fn lit_encoding() {
        let p = Lit::pos(3);
        assert_eq!(p.var(), 3);
        assert!(p.is_positive());
        assert!(!(!p).is_positive());
        assert_eq!(!!p, p);
        assert_eq!(Lit::new(2, false), Lit::neg(2));
        assert_eq!(format!("{:?}", Lit::neg(1)), "~p1");
    }

    #[test]
    fn empty_instance_is_sat() {
        let mut s = SatSolver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        s.add_clause([]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = SatSolver::new();
        let vs: Vec<u32> = (0..5).map(|_| s.new_var()).collect();
        s.add_clause([Lit::pos(vs[0])]);
        for w in vs.windows(2) {
            s.add_clause([Lit::neg(w[0]), Lit::pos(w[1])]); // v_i → v_{i+1}
        }
        match s.solve() {
            SatResult::Sat(m) => assert!(vs.iter().all(|&v| m[v as usize])),
            SatResult::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn contradiction_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a)]);
        s.add_clause([Lit::neg(a)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_dropped() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a), Lit::neg(a)]);
        assert_eq!(s.clause_count(), 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_merged() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(a)]);
        // Reduced to a unit clause.
        match s.solve() {
            SatResult::Sat(m) => assert!(m[a as usize]),
            SatResult::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn xor_chain_sat() {
        // (a ⊕ b) encoded in CNF, chained: forces alternation.
        let mut s = SatSolver::new();
        let vs: Vec<u32> = (0..8).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause([Lit::pos(w[0]), Lit::pos(w[1])]);
            s.add_clause([Lit::neg(w[0]), Lit::neg(w[1])]);
        }
        match s.solve() {
            SatResult::Sat(m) => {
                for w in vs.windows(2) {
                    assert_ne!(m[w[0] as usize], m[w[1] as usize]);
                }
            }
            SatResult::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut s = SatSolver::new();
        let mut p = [[0u32; 2]; 3];
        for cell in p.iter_mut().flatten() {
            *cell = s.new_var();
        }
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
        }
        // No hole holds two pigeons.
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                for (&a, &b) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause([Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        assert!(s.solve().is_sat());
        s.add_clause([Lit::neg(a)]);
        assert!(s.solve().is_sat());
        s.add_clause([Lit::neg(b)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn random_3sat_matches_brute_force() {
        // Deterministic LCG so the test is reproducible without a rand dep.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..200 {
            let n_vars = 3 + (next() % 8) as usize; // 3..10
            let n_clauses = 2 + (next() % 40) as usize;
            let mut s = SatSolver::new();
            for _ in 0..n_vars {
                s.new_var();
            }
            let mut clauses = Vec::new();
            for _ in 0..n_clauses {
                let len = 1 + (next() % 3) as usize;
                let clause: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(next() % n_vars as u32, next() % 2 == 0))
                    .collect();
                clauses.push(clause.clone());
                s.add_clause(clause);
            }
            let expect = brute_force_sat(n_vars, &clauses);
            match s.solve() {
                SatResult::Sat(m) => {
                    assert!(expect, "round {round}: solver SAT but brute force UNSAT");
                    assert!(
                        check_model(&m, &clauses),
                        "round {round}: model does not satisfy clauses"
                    );
                }
                SatResult::Unsat => {
                    assert!(!expect, "round {round}: solver UNSAT but brute force SAT");
                }
            }
        }
    }

    #[test]
    fn growing_instance_matches_brute_force() {
        // Random base instance, then repeatedly add more random clauses
        // and re-solve — the SMT refine loop's pattern when it adds
        // blocking clauses. Learned clauses accumulate across the whole
        // sequence and must never cut off a model of the grown instance.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..60 {
            let n_vars = 3 + (next() % 6) as usize; // 3..9
            let mut s = SatSolver::new();
            for _ in 0..n_vars {
                s.new_var();
            }
            let mut clauses = Vec::new();
            // Adds `min + rand(0..spread)` random clauses of length 1..=3.
            let mut add =
                |min: u32, spread: u32, s: &mut SatSolver, clauses: &mut Vec<Vec<Lit>>| {
                    for _ in 0..min + next() % spread {
                        let len = 1 + (next() % 3) as usize;
                        let clause: Vec<Lit> = (0..len)
                            .map(|_| Lit::new(next() % n_vars as u32, next() % 2 == 0))
                            .collect();
                        clauses.push(clause.clone());
                        s.add_clause(clause);
                    }
                };
            add(2, 15, &mut s, &mut clauses);
            for step in 0..4 {
                add(1, 8, &mut s, &mut clauses);
                let expect = brute_force_sat(n_vars, &clauses);
                match s.solve() {
                    SatResult::Sat(m) => {
                        assert!(expect, "round {round} step {step}: spurious SAT");
                        assert!(
                            check_model(&m, &clauses),
                            "round {round} step {step}: bad model"
                        );
                    }
                    SatResult::Unsat => {
                        assert!(!expect, "round {round} step {step}: spurious UNSAT");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unallocated variable")]
    fn unallocated_variable_panics() {
        let mut s = SatSolver::new();
        s.add_clause([Lit::pos(0)]);
    }
}
