//! A general simplex solver for conjunctions of non-strict linear bounds,
//! following the DPLL(T) simplex architecture of Dutertre and de Moura.
//!
//! All constraints reaching this module are integer-normalized upstream
//! (strict inequalities over integers are tightened to non-strict ones),
//! so plain rationals suffice — no delta-rationals are needed.
//!
//! Bounds carry optional provenance *tags*; on infeasibility the solver
//! returns the tags of the bounds participating in the conflict (the
//! standard row explanation), which the SMT layer turns into strong
//! blocking clauses.
//!
//! Rows are sparse and kept sorted by variable index: a coefficient is
//! found by binary search, and a pivot substitutes the entering variable
//! into another row with one linear merge into a reused buffer. A column
//! index (per variable, the set of rows that mention it, as bits in one
//! flat vector) lets a pivot or a bound move visit only the rows that
//! hold the variable, and a set of the basic variables that violate a
//! bound, kept up to date on every value and bound change, names the
//! leaving variable without a scan of the rows. The pivot *order* is
//! fixed by Bland's rule over variable indices and the values are exact,
//! so the tableau's data layout never shows in an answer: every
//! assignment and explanation is bit-identical to a dense or map-based
//! tableau's (see the kernel contract in `DESIGN.md`).

use hotg_logic::Rat;

/// A bound assertion on one simplex variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundKind {
    /// `x ≥ c`.
    Lower,
    /// `x ≤ c`.
    Upper,
}

/// Explanation of an infeasibility: provenance tags of the participating
/// bounds. `None` appears when an untagged bound (e.g. an artificial
/// global bound or a branch-and-bound split) participated — such
/// explanations are not usable as theory cores.
pub type Explanation = Vec<Option<u32>>;

/// Outcome of a simplex feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexResult {
    /// Feasible, with a value per variable.
    Sat(Vec<Rat>),
    /// Infeasible, with the conflicting bounds' provenance tags.
    Unsat(Explanation),
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct VarState {
    lower: Option<(Rat, Option<u32>)>,
    upper: Option<(Rat, Option<u32>)>,
    value: Rat,
    /// Index into `rows` when basic.
    row: Option<usize>,
}

#[derive(Debug, PartialEq)]
struct Row {
    /// The basic variable this row defines.
    basic: usize,
    /// `basic = Σ coeff · nonbasic` (only nonbasic vars appear), sorted
    /// by variable index, no zero coefficients.
    terms: Vec<(usize, Rat)>,
}

impl Clone for Row {
    fn clone(&self) -> Row {
        Row {
            basic: self.basic,
            terms: self.terms.clone(),
        }
    }

    /// Copies into this row's `terms` buffer rather than a new one.
    fn clone_from(&mut self, source: &Row) {
        self.basic = source.basic;
        self.terms.clone_from(&source.terms);
    }
}

impl Row {
    /// Coefficient of `var` in this row, if present.
    fn coeff(&self, var: usize) -> Option<Rat> {
        self.terms
            .binary_search_by_key(&var, |&(w, _)| w)
            .ok()
            .map(|i| self.terms[i].1)
    }
}

/// Sums the coefficients of equal variables in `terms` (sorted by
/// variable; equal variables summed in their order of appearance) and
/// drops the zeros.
fn collapse(terms: Vec<(usize, Rat)>) -> Vec<(usize, Rat)> {
    let mut out: Vec<(usize, Rat)> = Vec::with_capacity(terms.len());
    for (v, c) in terms {
        match out.last_mut() {
            Some((w, sum)) if *w == v => *sum += c,
            _ => out.push((v, c)),
        }
    }
    out.retain(|(_, c)| !c.is_zero());
    out
}

/// Writes `row + c · other` into `out`, over rows sorted by variable index,
/// dropping zeros; `skip` (the variable being eliminated) is left out of
/// `row`. `changed(v, present)` hears of every variable that enters the
/// row (`true`) or cancels out of it (`false`).
fn merge_scaled(
    out: &mut Vec<(usize, Rat)>,
    row: &[(usize, Rat)],
    skip: usize,
    c: Rat,
    other: &[(usize, Rat)],
    mut changed: impl FnMut(usize, bool),
) {
    let mut a = row.iter().filter(|&&(w, _)| w != skip).peekable();
    let mut b = other.iter().peekable();
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&&(wa, ca)), Some(&&(wb, cb))) => {
                if wa < wb {
                    a.next();
                    (wa, ca)
                } else if wb < wa {
                    b.next();
                    changed(wb, true);
                    (wb, c * cb)
                } else {
                    a.next();
                    b.next();
                    let sum = ca + c * cb;
                    if sum.is_zero() {
                        changed(wa, false);
                        continue;
                    }
                    (wa, sum)
                }
            }
            (Some(&&(wa, ca)), None) => {
                a.next();
                (wa, ca)
            }
            (None, Some(&&(wb, cb))) => {
                b.next();
                changed(wb, true);
                (wb, c * cb)
            }
            (None, None) => break,
        };
        out.push(next);
    }
}

/// Adds `i` to the bit set `words` (or, with `on` false, removes it).
fn set_bit(words: &mut [u64], i: usize, on: bool) {
    if on {
        words[i / 64] |= 1 << (i % 64);
    } else {
        words[i / 64] &= !(1 << (i % 64));
    }
}

/// Calls `f` with every index in the set, in increasing order. The words
/// are copied one at a time, so `f` may change other sets.
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// A row of a tableau built by [`Simplex::refill`]: the terms of its
/// slack `s = Σ coeff·var` and the slack's bounds, which carry `tag`.
#[derive(Clone, Debug)]
pub struct SlackRow<T> {
    /// `(var, coeff)` pairs, in increasing variable order.
    pub terms: T,
    /// Lower bound of the slack, if any.
    pub lower: Option<Rat>,
    /// Upper bound of the slack, if any.
    pub upper: Option<Rat>,
    /// Provenance tag of both bounds.
    pub tag: Option<u32>,
}

/// A simplex tableau over rationals.
///
/// Usage: allocate variables with [`Simplex::new_var`], define linear rows
/// with [`Simplex::add_row`] (introducing slack variables upstream), assert
/// bounds with [`Simplex::assert_bound`], then call [`Simplex::check`].
/// [`Simplex::refill`] overwrites a tableau, in one pass and in its own
/// buffers, with a bounded tableau of slack rows over fresh variables.
///
/// # Examples
///
/// ```
/// use hotg_logic::Rat;
/// use hotg_solver::simplex::{BoundKind, Simplex, SimplexResult};
///
/// let mut s = Simplex::new();
/// let x = s.new_var();
/// let y = s.new_var();
/// // slack = x + y
/// let slack = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
/// s.assert_bound(slack, BoundKind::Upper, Rat::from(2), Some(0)).unwrap();
/// s.assert_bound(x, BoundKind::Lower, Rat::from(1), Some(1)).unwrap();
/// s.assert_bound(y, BoundKind::Lower, Rat::from(1), Some(2)).unwrap();
/// assert!(matches!(s.check(), SimplexResult::Sat(_)));
/// ```
#[derive(Debug, Default, PartialEq)]
pub struct Simplex {
    vars: Vec<VarState>,
    rows: Vec<Row>,
    /// The column index: variable `v`'s column is the row set
    /// `cols[v * stride..(v + 1) * stride]`, holding every row whose
    /// terms mention `v`. One flat vector, so a clone is one copy.
    cols: Vec<u64>,
    /// Words per column: room for `64 · stride` rows.
    stride: usize,
    /// The basic variables that violate one of their bounds.
    violated: Vec<u64>,
    /// Merge buffer of a pivot, empty between calls.
    scratch: Vec<(usize, Rat)>,
}

impl Clone for Simplex {
    fn clone(&self) -> Simplex {
        Simplex {
            vars: self.vars.clone(),
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            stride: self.stride,
            violated: self.violated.clone(),
            scratch: Vec::new(),
        }
    }

    /// Copies field by field into this tableau's buffers, each row into
    /// one of its rows, so a tableau reset from another per search node
    /// allocates only when the source outgrows it.
    fn clone_from(&mut self, source: &Simplex) {
        self.vars.clone_from(&source.vars);
        self.rows.clone_from(&source.rows);
        self.cols.clone_from(&source.cols);
        self.stride = source.stride;
        self.violated.clone_from(&source.violated);
        self.scratch.clear();
    }
}

/// `true` if the variable's value lies outside one of its bounds.
fn out_of_bounds(state: &VarState) -> bool {
    matches!(state.lower, Some((l, _)) if state.value < l)
        || matches!(state.upper, Some((u, _)) if state.value > u)
}

impl Simplex {
    /// Creates an empty tableau.
    pub fn new() -> Simplex {
        Simplex::default()
    }

    /// Allocates a fresh variable (initially unbounded, value 0).
    pub fn new_var(&mut self) -> usize {
        self.vars.push(VarState {
            lower: None,
            upper: None,
            value: Rat::ZERO,
            row: None,
        });
        self.cols.resize(self.vars.len() * self.stride, 0);
        self.violated.resize(self.vars.len().div_ceil(64), 0);
        self.vars.len() - 1
    }

    /// Number of variables (including slacks).
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Introduces a slack variable `s = Σ coeff·var` and returns it.
    ///
    /// The referenced variables may themselves be basic; their rows are
    /// substituted so the new row only mentions nonbasic variables.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable is out of range.
    pub fn add_row(&mut self, terms: &[(usize, Rat)]) -> usize {
        let s = self.new_var();
        // Expand any basic variables through their rows, then sum per
        // variable (the sort is stable, so each variable's contributions
        // add up in input order).
        let mut expanded: Vec<(usize, Rat)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v < self.vars.len(), "row references unknown variable");
            if let Some(r) = self.vars[v].row {
                expanded.extend(self.rows[r].terms.iter().map(|&(w, cw)| (w, c * cw)));
            } else {
                expanded.push((v, c));
            }
        }
        expanded.sort_by_key(|&(w, _)| w);
        let row_terms = collapse(expanded);
        // Value of the slack under current assignment.
        let value = row_terms.iter().map(|&(v, c)| self.vars[v].value * c).sum();
        let r = self.rows.len();
        if r == self.stride * 64 {
            // The columns are full: widen each by a word.
            let (old, stride) = (self.stride, self.stride + 1);
            let mut cols = vec![0; self.vars.len() * stride];
            for v in 0..self.vars.len() {
                cols[v * stride..v * stride + old]
                    .copy_from_slice(&self.cols[v * old..(v + 1) * old]);
            }
            self.cols = cols;
            self.stride = stride;
        }
        for &(v, _) in &row_terms {
            set_bit(&mut self.cols[v * self.stride..], r, true);
        }
        self.vars[s].value = value;
        self.vars[s].row = Some(r);
        self.rows.push(Row {
            basic: s,
            terms: row_terms,
        });
        s
    }

    /// Overwrites this tableau, in one pass, with the tableau that
    /// [`Simplex::new`], `n_vars` calls of [`Simplex::new_var`], the
    /// bounds `[lower, upper]` on each of those variables, and then per
    /// row an [`Simplex::add_row`] of its terms followed by its slack's
    /// bounds would build: the same variables, values, bounds, tags, rows,
    /// column index and violated set. Every buffer the tableau already
    /// holds is reused: each row's terms are cleared and refilled in
    /// place, surplus rows are dropped, and the columns and the violated
    /// set are cleared and sized once, so a tableau refilled per call
    /// allocates only when a call needs more room than any before it.
    ///
    /// Each row's terms must name variables below `n_vars` in increasing
    /// order with nonzero coefficients, and `lower ≤ upper` (with no
    /// variables any bounds do).
    pub fn refill<R, T>(&mut self, n_vars: usize, lower: Rat, upper: Rat, rows: R)
    where
        R: Iterator<Item = SlackRow<T>>,
        T: Iterator<Item = (usize, Rat)>,
    {
        debug_assert!(n_vars == 0 || lower <= upper);
        // Bounding a variable at 0 moves it to the nearer bound.
        let value = if Rat::ZERO < lower {
            lower
        } else if upper < Rat::ZERO {
            upper
        } else {
            Rat::ZERO
        };
        let key = VarState {
            lower: Some((lower, None)),
            upper: Some((upper, None)),
            value,
            row: None,
        };
        self.vars.clear();
        self.vars.resize(n_vars, key);
        let mut n_rows = 0;
        for slack in rows {
            if n_rows == self.rows.len() {
                self.rows.push(Row {
                    basic: 0,
                    terms: Vec::new(),
                });
            }
            let row = &mut self.rows[n_rows];
            row.terms.clear();
            row.terms.extend(slack.terms);
            debug_assert!(row.terms.windows(2).all(|w| w[0].0 < w[1].0));
            debug_assert!(row.terms.iter().all(|&(v, c)| v < n_vars && !c.is_zero()));
            let value = row.terms.iter().map(|&(v, c)| self.vars[v].value * c).sum();
            self.vars.push(VarState {
                lower: slack.lower.map(|l| (l, slack.tag)),
                upper: slack.upper.map(|u| (u, slack.tag)),
                value,
                row: Some(n_rows),
            });
            row.basic = self.vars.len() - 1;
            n_rows += 1;
        }
        self.rows.truncate(n_rows);
        let stride = n_rows.div_ceil(64);
        self.stride = stride;
        self.cols.clear();
        self.cols.resize(self.vars.len() * stride, 0);
        self.violated.clear();
        self.violated.resize(self.vars.len().div_ceil(64), 0);
        for (r, row) in self.rows.iter().enumerate() {
            for &(v, _) in &row.terms {
                set_bit(&mut self.cols[v * stride..], r, true);
            }
            let violated = out_of_bounds(&self.vars[row.basic]);
            set_bit(&mut self.violated, row.basic, violated);
        }
        self.scratch.clear();
    }

    /// Asserts `var ≥ c` or `var ≤ c` with a provenance tag.
    ///
    /// # Errors
    ///
    /// Returns the conflicting pair's explanation if the bound immediately
    /// contradicts the opposite bound.
    pub fn assert_bound(
        &mut self,
        var: usize,
        kind: BoundKind,
        c: Rat,
        tag: Option<u32>,
    ) -> Result<(), Explanation> {
        match kind {
            BoundKind::Lower => {
                if let Some((u, utag)) = self.vars[var].upper {
                    if c > u {
                        return Err(vec![tag, utag]);
                    }
                }
                let tighter = match self.vars[var].lower {
                    Some((l, _)) => c > l,
                    None => true,
                };
                if tighter {
                    self.vars[var].lower = Some((c, tag));
                    if self.vars[var].row.is_none() && self.vars[var].value < c {
                        self.update_nonbasic(var, c);
                    }
                }
            }
            BoundKind::Upper => {
                if let Some((l, ltag)) = self.vars[var].lower {
                    if c < l {
                        return Err(vec![tag, ltag]);
                    }
                }
                let tighter = match self.vars[var].upper {
                    Some((u, _)) => c < u,
                    None => true,
                };
                if tighter {
                    self.vars[var].upper = Some((c, tag));
                    if self.vars[var].row.is_none() && self.vars[var].value > c {
                        self.update_nonbasic(var, c);
                    }
                }
            }
        }
        if self.vars[var].row.is_some() {
            set_bit(&mut self.violated, var, out_of_bounds(&self.vars[var]));
        }
        Ok(())
    }

    /// Sets a nonbasic variable's value, updating the basic values of the
    /// rows in its column.
    fn update_nonbasic(&mut self, var: usize, v: Rat) {
        let delta = v - self.vars[var].value;
        if delta.is_zero() {
            return;
        }
        let stride = self.stride;
        for_each_bit(&self.cols[var * stride..(var + 1) * stride], |r| {
            let row = &self.rows[r];
            // Invariant: the column index lists exactly the rows whose
            // terms mention `var`.
            let c = row.coeff(var).expect("column index names the row");
            let b = row.basic;
            self.vars[b].value += c * delta;
            set_bit(&mut self.violated, b, out_of_bounds(&self.vars[b]));
        });
        self.vars[var].value = v;
    }

    fn violates_lower(&self, v: usize) -> bool {
        matches!(self.vars[v].lower, Some((l, _)) if self.vars[v].value < l)
    }

    fn can_increase(&self, v: usize) -> bool {
        match self.vars[v].upper {
            Some((u, _)) => self.vars[v].value < u,
            None => true,
        }
    }

    fn can_decrease(&self, v: usize) -> bool {
        match self.vars[v].lower {
            Some((l, _)) => self.vars[v].value > l,
            None => true,
        }
    }

    /// Pivots basic variable of row `r` with nonbasic `nj`, then sets the
    /// old basic variable's value to `target`.
    ///
    /// Only the rows in `nj`'s column change: each gets its basic value
    /// moved and `nj` substituted in one pass, merging into the reused
    /// buffer. Afterwards `bi`'s column is the one `nj` had, and `nj`'s is
    /// empty.
    fn pivot_and_update(&mut self, r: usize, nj: usize, target: Rat) {
        let bi = self.rows[r].basic;
        let mut nj_terms = std::mem::take(&mut self.rows[r].terms);
        // Invariant: `nj` was selected as the entering variable *from*
        // this row's terms, so it is present by construction.
        let at = nj_terms
            .binary_search_by_key(&nj, |&(w, _)| w)
            .expect("pivot column must appear in row");
        let a_ij = nj_terms.remove(at).1;

        // Value updates (Dutertre–de Moura `pivotAndUpdate`).
        let theta = (target - self.vars[bi].value) / a_ij;
        self.vars[bi].value = target;
        self.vars[nj].value += theta;

        // Tableau pivot: express nj from row r:
        //   bi = Σ terms  ⇒  nj = (bi - Σ_{w≠nj} a_iw·w) / a_ij
        // `bi` is basic, so it is absent from the row: insert it in order.
        let inv = a_ij.recip();
        for (_, c) in &mut nj_terms {
            *c = -(*c * inv);
        }
        let at = nj_terms.partition_point(|&(w, _)| w < bi);
        nj_terms.insert(at, (bi, inv));

        // Move the basic value of, and substitute nj into, every other
        // row of nj's column. The merges only touch the columns of
        // `nj_terms`' variables, never nj's own.
        let stride = self.stride;
        let nj_col = nj * stride..(nj + 1) * stride;
        for w in nj_col.clone() {
            let mut bits = self.cols[w];
            while bits != 0 {
                let rr = (w - nj_col.start) * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if rr == r {
                    continue;
                }
                let row = &mut self.rows[rr];
                let c = row.coeff(nj).expect("column index names the row");
                let b = row.basic;
                self.vars[b].value += c * theta;
                set_bit(&mut self.violated, b, out_of_bounds(&self.vars[b]));
                let cols = &mut self.cols;
                merge_scaled(
                    &mut self.scratch,
                    &row.terms,
                    nj,
                    c,
                    &nj_terms,
                    |v, present| {
                        set_bit(&mut cols[v * stride..], rr, present);
                    },
                );
                std::mem::swap(&mut row.terms, &mut self.scratch);
                self.scratch.clear();
            }
        }
        // Every row that had nj (row r included) now has bi instead.
        self.cols.copy_within(nj_col.clone(), bi * stride);
        self.cols[nj_col].fill(0);
        self.vars[nj].row = Some(r);
        self.vars[bi].row = None;
        self.rows[r].basic = nj;
        self.rows[r].terms = nj_terms;
        set_bit(&mut self.violated, bi, false);
        set_bit(&mut self.violated, nj, out_of_bounds(&self.vars[nj]));
    }

    /// Builds the conflict explanation for row `r` whose basic variable is
    /// stuck violating one of its bounds: the bound of the basic variable
    /// plus, for every row variable, the bound that blocks movement in the
    /// required direction.
    ///
    /// The `expect`s below are internal invariants, not input checks: the
    /// caller only reaches this after establishing that the basic variable
    /// violates the named bound and that every row variable is blocked in
    /// the needed direction — both of which require the respective bound to
    /// be present. No campaign input can falsify them.
    fn explain(&self, r: usize, below: bool) -> Explanation {
        let bi = self.rows[r].basic;
        let mut out = Vec::new();
        if below {
            out.push(self.vars[bi].lower.expect("violated lower").1);
            for &(w, c) in &self.rows[r].terms {
                if c.is_positive() {
                    out.push(self.vars[w].upper.expect("blocked above").1);
                } else {
                    out.push(self.vars[w].lower.expect("blocked below").1);
                }
            }
        } else {
            out.push(self.vars[bi].upper.expect("violated upper").1);
            for &(w, c) in &self.rows[r].terms {
                if c.is_positive() {
                    out.push(self.vars[w].lower.expect("blocked below").1);
                } else {
                    out.push(self.vars[w].upper.expect("blocked above").1);
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Runs the feasibility check. Uses Bland's rule (smallest variable
    /// index) for both the leaving and entering variable, which guarantees
    /// termination.
    pub fn check(&mut self) -> SimplexResult {
        loop {
            // Leaving variable: smallest-index basic var violating a bound.
            let Some(bi) = self
                .violated
                .iter()
                .enumerate()
                .find(|&(_, &word)| word != 0)
                .map(|(w, word)| w * 64 + word.trailing_zeros() as usize)
            else {
                let values = self.vars.iter().map(|v| v.value).collect();
                return SimplexResult::Sat(values);
            };
            // Invariant: the violated set holds basic variables only.
            let r = self.vars[bi].row.expect("violated variables are basic");
            let below = self.violates_lower(bi);
            // Invariant, not an input check: `bi` violates this bound,
            // which requires it to exist.
            let target = if below {
                self.vars[bi].lower.expect("violated lower bound exists").0
            } else {
                self.vars[bi].upper.expect("violated upper bound exists").0
            };
            // Entering variable: smallest-index nonbasic var that can move
            // the basic variable in the needed direction.
            // Rows are sorted by variable, so the first candidate is the
            // smallest.
            let mut entering: Option<usize> = None;
            for &(w, c) in &self.rows[r].terms {
                let ok = if below {
                    // need to increase bi
                    (c.is_positive() && self.can_increase(w))
                        || (c.is_negative() && self.can_decrease(w))
                } else {
                    // need to decrease bi
                    (c.is_positive() && self.can_decrease(w))
                        || (c.is_negative() && self.can_increase(w))
                };
                if ok {
                    entering = Some(w);
                    break;
                }
            }
            match entering {
                Some(nj) => self.pivot_and_update(r, nj, target),
                None => return SimplexResult::Unsat(self.explain(r, below)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_prop::prelude::*;
    use hotg_prop::TestRng;

    /// Asserts that the column index and the violated set are exactly the
    /// ones recomputed from the rows, the values and the bounds.
    fn assert_index_exact(s: &Simplex) {
        assert_eq!(s.cols.len(), s.vars.len() * s.stride);
        assert!(s.rows.len() <= s.stride * 64);
        assert!(s.scratch.is_empty());
        for v in 0..s.vars.len() {
            let col = &s.cols[v * s.stride..(v + 1) * s.stride];
            for (r, row) in s.rows.iter().enumerate() {
                let listed = col[r / 64] >> (r % 64) & 1 == 1;
                let mentioned = row.terms.iter().any(|&(w, _)| w == v);
                assert_eq!(listed, mentioned, "column {v}, row {r}");
            }
            let flagged = s.violated[v / 64] >> (v % 64) & 1 == 1;
            let violating = s.vars[v].row.is_some() && out_of_bounds(&s.vars[v]);
            assert_eq!(flagged, violating, "violated set, variable {v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn column_index_and_violated_set_stay_exact(seed in 0u64..1_000_000) {
            let mut rng = TestRng::seed_from_u64(seed);
            let mut s = Simplex::new();
            let mut vars: Vec<usize> = (0..2 + rng.below(8)).map(|_| s.new_var()).collect();
            let mut definitions: Vec<(usize, Vec<(usize, Rat)>)> = Vec::new();
            for _ in 0..200 {
                match rng.below(10) {
                    // Small integer coefficients, so substitutions cancel.
                    0..=3 => {
                        let terms: Vec<(usize, Rat)> = (0..1 + rng.below(5))
                            .map(|_| {
                                let v = vars[rng.below(vars.len() as u64) as usize];
                                (v, Rat::from(rng.in_span(-2, 2) as i64))
                            })
                            .collect();
                        let slack = s.add_row(&terms);
                        definitions.push((slack, terms));
                        vars.push(slack);
                    }
                    4 if !definitions.is_empty() => {
                        let (slack, def) =
                            &definitions[rng.below(definitions.len() as u64) as usize];
                        let mut cancel = vec![(*slack, Rat::ONE)];
                        cancel.extend(def.iter().map(|&(v, c)| (v, -c)));
                        vars.push(s.add_row(&cancel));
                    }
                    5..=7 => {
                        let v = vars[rng.below(vars.len() as u64) as usize];
                        let kind = if rng.below(2) == 0 {
                            BoundKind::Lower
                        } else {
                            BoundKind::Upper
                        };
                        let c = Rat::new(rng.in_span(-20, 20), 1 + rng.in_span(0, 2));
                        let _ = s.assert_bound(v, kind, c, None);
                    }
                    _ => {
                        let _ = s.check();
                    }
                }
                assert_index_exact(&s);
            }
        }
    }

    fn rat(n: i64) -> Rat {
        Rat::from(n)
    }

    fn ok(r: Result<(), Explanation>) {
        r.expect("bound accepted");
    }

    #[test]
    fn unconstrained_is_sat() {
        let mut s = Simplex::new();
        s.new_var();
        assert!(matches!(s.check(), SimplexResult::Sat(_)));
    }

    #[test]
    fn simple_bounds_sat() {
        let mut s = Simplex::new();
        let x = s.new_var();
        ok(s.assert_bound(x, BoundKind::Lower, rat(3), Some(0)));
        ok(s.assert_bound(x, BoundKind::Upper, rat(5), Some(1)));
        match s.check() {
            SimplexResult::Sat(v) => assert!(v[x] >= rat(3) && v[x] <= rat(5)),
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn conflicting_direct_bounds_explained() {
        let mut s = Simplex::new();
        let x = s.new_var();
        ok(s.assert_bound(x, BoundKind::Lower, rat(5), Some(7)));
        let e = s
            .assert_bound(x, BoundKind::Upper, rat(3), Some(9))
            .unwrap_err();
        assert!(e.contains(&Some(7)) && e.contains(&Some(9)));
    }

    #[test]
    fn row_constraint_sat() {
        // x + y ≤ 2, x ≥ 1, y ≥ 1  →  x = y = 1
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Upper, rat(2), Some(0)));
        ok(s.assert_bound(x, BoundKind::Lower, rat(1), Some(1)));
        ok(s.assert_bound(y, BoundKind::Lower, rat(1), Some(2)));
        match s.check() {
            SimplexResult::Sat(v) => {
                assert_eq!(v[x], rat(1));
                assert_eq!(v[y], rat(1));
                assert_eq!(v[sl], rat(2));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn row_constraint_unsat_with_core() {
        // x + y ≤ 1, x ≥ 1, y ≥ 1
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Upper, rat(1), Some(10)));
        ok(s.assert_bound(x, BoundKind::Lower, rat(1), Some(11)));
        ok(s.assert_bound(y, BoundKind::Lower, rat(1), Some(12)));
        match s.check() {
            SimplexResult::Unsat(e) => {
                assert!(e.contains(&Some(10)));
                assert!(e.contains(&Some(11)) || e.contains(&Some(12)));
                assert!(!e.contains(&None));
            }
            SimplexResult::Sat(_) => panic!("expected UNSAT"),
        }
    }

    #[test]
    fn explanation_excludes_unrelated_bounds() {
        // Unrelated variable z with its own bounds must not appear in the
        // explanation of an x/y conflict.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        ok(s.assert_bound(z, BoundKind::Lower, rat(0), Some(99)));
        ok(s.assert_bound(z, BoundKind::Upper, rat(10), Some(98)));
        let sl = s.add_row(&[(x, Rat::ONE), (y, -Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Lower, rat(5), Some(1)));
        ok(s.assert_bound(x, BoundKind::Upper, rat(0), Some(2)));
        ok(s.assert_bound(y, BoundKind::Lower, rat(0), Some(3)));
        match s.check() {
            SimplexResult::Unsat(e) => {
                assert!(!e.contains(&Some(99)) && !e.contains(&Some(98)), "{e:?}");
            }
            SimplexResult::Sat(_) => panic!("expected UNSAT"),
        }
    }

    #[test]
    fn equality_via_two_bounds() {
        // x - y = 3, x ≤ 10, y ≥ 4
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, -Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Lower, rat(3), None));
        ok(s.assert_bound(sl, BoundKind::Upper, rat(3), None));
        ok(s.assert_bound(x, BoundKind::Upper, rat(10), None));
        ok(s.assert_bound(y, BoundKind::Lower, rat(4), None));
        match s.check() {
            SimplexResult::Sat(v) => {
                assert_eq!(v[x] - v[y], rat(3));
                assert!(v[x] <= rat(10) && v[y] >= rat(4));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn chained_rows() {
        // a = x + y, b = a - 2y = x - y; a = 5, b = 1 → x = 3, y = 2.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let a = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        let b = s.add_row(&[(a, Rat::ONE), (y, rat(-2))]);
        for (v, c) in [(a, 5), (b, 1)] {
            ok(s.assert_bound(v, BoundKind::Lower, rat(c), None));
            ok(s.assert_bound(v, BoundKind::Upper, rat(c), None));
        }
        match s.check() {
            SimplexResult::Sat(vals) => {
                assert_eq!(vals[x], rat(3));
                assert_eq!(vals[y], rat(2));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn rational_solution() {
        // 2x = 1 → x = 1/2
        let mut s = Simplex::new();
        let x = s.new_var();
        let sl = s.add_row(&[(x, rat(2))]);
        ok(s.assert_bound(sl, BoundKind::Lower, rat(1), None));
        ok(s.assert_bound(sl, BoundKind::Upper, rat(1), None));
        match s.check() {
            SimplexResult::Sat(v) => assert_eq!(v[x], Rat::new(1, 2)),
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn infeasible_cycle() {
        // x ≤ y - 1, y ≤ z - 1, z ≤ x - 1 is infeasible.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        let pairs = [(x, y, 0u32), (y, z, 1), (z, x, 2)];
        for (a, b, t) in pairs {
            let sl = s.add_row(&[(a, Rat::ONE), (b, -Rat::ONE)]);
            ok(s.assert_bound(sl, BoundKind::Upper, rat(-1), Some(t)));
        }
        match s.check() {
            SimplexResult::Unsat(e) => {
                // All three difference constraints participate.
                assert_eq!(e, vec![Some(0), Some(1), Some(2)]);
            }
            SimplexResult::Sat(_) => panic!("expected UNSAT"),
        }
    }

    #[test]
    fn repeated_checks_stable() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        ok(s.assert_bound(sl, BoundKind::Upper, rat(4), None));
        ok(s.assert_bound(x, BoundKind::Lower, rat(0), None));
        assert!(matches!(s.check(), SimplexResult::Sat(_)));
        // Tighten and re-check.
        ok(s.assert_bound(y, BoundKind::Lower, rat(4), None));
        match s.check() {
            SimplexResult::Sat(v) => {
                assert_eq!(v[x], rat(0));
                assert_eq!(v[y], rat(4));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }

    #[test]
    fn bounded_box_vertex() {
        // x + 2y ≥ 7, 0 ≤ x ≤ 3, 0 ≤ y ≤ 3.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.add_row(&[(x, Rat::ONE), (y, rat(2))]);
        ok(s.assert_bound(sl, BoundKind::Lower, rat(7), None));
        for v in [x, y] {
            ok(s.assert_bound(v, BoundKind::Lower, rat(0), None));
            ok(s.assert_bound(v, BoundKind::Upper, rat(3), None));
        }
        match s.check() {
            SimplexResult::Sat(v) => {
                assert!(v[x] + rat(2) * v[y] >= rat(7));
                assert!(v[x] >= rat(0) && v[x] <= rat(3));
                assert!(v[y] >= rat(0) && v[y] <= rat(3));
            }
            SimplexResult::Unsat(_) => panic!("expected SAT"),
        }
    }
}
