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
//! The tableau stores each linear form once. A row holds a form over the
//! nonbasic variables and a list of *members*: the basic variables equal
//! to the form or to its negation (slacks of one form, such as the bounds
//! and splits of one atom, share a row). A member reads its coefficients
//! as ± the row's, so every basic variable has exactly the row a
//! one-row-per-basic-variable tableau would give it; a pivot merges and
//! revalues each form once, then gives every member ± the form's value.
//! When a member leaves the basis, its row becomes the entering
//! variable's, and the row's other members move to a new row `±leaving`,
//! which is the row substitution would give them.
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
//! tableau's with one row per slack (see the kernel contract in
//! `DESIGN.md`).

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
/// global bound or a branch-and-bound split) participated — such an
/// explanation refutes one branch-and-bound leaf, and its tags are that
/// leaf's share of a core.
pub type Explanation = Vec<Option<u32>>;

/// Outcome of a simplex feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexResult {
    /// Feasible, with a value per variable.
    Sat(Vec<Rat>),
    /// Infeasible, with the conflicting bounds' provenance tags.
    Unsat(Explanation),
}

/// Ends a row's member list.
const END: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct VarState {
    lower: Option<(Rat, Option<u32>)>,
    upper: Option<(Rat, Option<u32>)>,
    value: Rat,
    /// Index into `rows` when basic.
    row: Option<u32>,
    /// When basic: the variable is its row's form negated.
    negated: bool,
    /// When basic: the next member of its row (`END` ends the list).
    next: u32,
}

impl VarState {
    /// A nonbasic variable with the given bounds and value.
    fn nonbasic(
        lower: Option<(Rat, Option<u32>)>,
        upper: Option<(Rat, Option<u32>)>,
        value: Rat,
    ) -> VarState {
        VarState {
            lower,
            upper,
            value,
            row: None,
            negated: false,
            next: END,
        }
    }
}

#[derive(Debug)]
struct Row {
    /// The form `Σ coeff · nonbasic` (only nonbasic vars appear), sorted
    /// by variable index, no zero coefficients.
    terms: Vec<(usize, Rat)>,
    /// The form's value under the current assignment.
    value: Rat,
    /// The first member; the others follow through `VarState::next`.
    head: u32,
}

impl Row {
    fn empty() -> Row {
        Row {
            terms: Vec::new(),
            value: Rat::ZERO,
            head: END,
        }
    }

    /// Coefficient of `var` in this row, if present.
    fn coeff(&self, var: usize) -> Option<Rat> {
        self.terms
            .binary_search_by_key(&var, |&(w, _)| w)
            .ok()
            .map(|i| self.terms[i].1)
    }
}

impl Clone for Row {
    fn clone(&self) -> Row {
        Row {
            terms: self.terms.clone(),
            value: self.value,
            head: self.head,
        }
    }

    /// Copies into this row's `terms` buffer rather than a new one.
    fn clone_from(&mut self, source: &Row) {
        self.terms.clone_from(&source.terms);
        self.value = source.value;
        self.head = source.head;
    }
}

/// Gives every member of the list starting at `head` the form value
/// `value`, negated for a negated member, and updates its violated bit.
fn revalue(vars: &mut [VarState], violated: &mut [u64], head: u32, value: Rat) {
    let mut m = head;
    while m != END {
        let state = &mut vars[m as usize];
        state.value = if state.negated { -value } else { value };
        set_bit(violated, m as usize, out_of_bounds(state));
        m = state.next;
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
    /// `Some((k, negated))` when the slack's form is that of the `k`-th
    /// (earlier) slack of the same refill, negated if `negated`: the two
    /// slacks then share one tableau row, and `terms` is not read.
    pub shares: Option<(usize, bool)>,
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
#[derive(Debug, Default)]
pub struct Simplex {
    vars: Vec<VarState>,
    /// The rows `rows[..n_rows]`, then spare rows whose buffers a split
    /// reuses; never more than the columns have room for.
    rows: Vec<Row>,
    n_rows: usize,
    /// The column index: variable `v`'s column is the row set
    /// `cols[v * stride..(v + 1) * stride]`, holding every row whose
    /// terms mention `v`. One flat vector, so a clone is one copy.
    cols: Vec<u64>,
    /// Words per column: room for `64 · stride` rows, at least one per
    /// basic variable.
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
            rows: self.rows[..self.n_rows].to_vec(),
            n_rows: self.n_rows,
            cols: self.cols.clone(),
            stride: self.stride,
            violated: self.violated.clone(),
            scratch: Vec::new(),
        }
    }

    /// Copies field by field into this tableau's buffers, each row into
    /// one of its rows, so a tableau reset from another per search node
    /// allocates only when the source outgrows it. Rows beyond the
    /// source's stay as spares, up to what the columns have room for.
    fn clone_from(&mut self, source: &Simplex) {
        self.vars.clone_from(&source.vars);
        let live = &source.rows[..source.n_rows];
        let reused = live.len().min(self.rows.len());
        for (row, src) in self.rows.iter_mut().zip(&live[..reused]) {
            row.clone_from(src);
        }
        self.rows.extend_from_slice(&live[reused..]);
        self.n_rows = source.n_rows;
        self.stride = source.stride;
        self.rows.truncate(self.stride * 64);
        self.cols.clone_from(&source.cols);
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
        self.vars.push(VarState::nonbasic(None, None, Rat::ZERO));
        self.cols.resize(self.vars.len() * self.stride, 0);
        self.violated.resize(self.vars.len().div_ceil(64), 0);
        self.vars.len() - 1
    }

    /// Number of variables (including slacks).
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Takes a row for a new form: the first spare, or a new one. Widens
    /// the columns by a word when they are full.
    fn push_row(&mut self) -> usize {
        let r = self.n_rows;
        if r == self.stride * 64 {
            let (old, stride) = (self.stride, self.stride + 1);
            let mut cols = vec![0; self.vars.len() * stride];
            for v in 0..self.vars.len() {
                cols[v * stride..v * stride + old]
                    .copy_from_slice(&self.cols[v * old..(v + 1) * old]);
            }
            self.cols = cols;
            self.stride = stride;
        }
        if r == self.rows.len() {
            self.rows.push(Row::empty());
        }
        self.rows[r].terms.clear();
        self.n_rows += 1;
        r
    }

    /// Introduces a slack variable `s = Σ coeff·var` and returns it, as
    /// the one member of a new row.
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
            let state = self.vars[v];
            if let Some(r) = state.row {
                let c = if state.negated { -c } else { c };
                let row = &self.rows[r as usize];
                expanded.extend(row.terms.iter().map(|&(w, cw)| (w, c * cw)));
            } else {
                expanded.push((v, c));
            }
        }
        expanded.sort_by_key(|&(w, _)| w);
        let row_terms = collapse(expanded);
        // Value of the slack under current assignment.
        let value = row_terms.iter().map(|&(v, c)| self.vars[v].value * c).sum();
        let r = self.push_row();
        for &(v, _) in &row_terms {
            set_bit(&mut self.cols[v * self.stride..], r, true);
        }
        self.rows[r] = Row {
            terms: row_terms,
            value,
            head: s as u32,
        };
        self.vars[s].value = value;
        self.vars[s].row = Some(r as u32);
        s
    }

    /// Overwrites this tableau, in one pass, with the tableau that
    /// [`Simplex::new`], `n_vars` calls of [`Simplex::new_var`], the
    /// bounds `[lower, upper]` on each of those variables, and then per
    /// slack an [`Simplex::add_row`] of its terms followed by its bounds
    /// would build: the same variables, values, bounds and tags, and each
    /// basic variable the same row, column index and violated bit. A
    /// slack that [`SlackRow::shares`] an earlier slack's form is a
    /// member of that slack's row rather than the owner of a new one.
    ///
    /// Every buffer the tableau already holds is reused: each row's terms
    /// are cleared and refilled in place, and the columns and the
    /// violated set are cleared and sized once, with room for a row per
    /// slack (pivots split rows, but never make more rows than basic
    /// variables). A tableau refilled per call allocates only when a call
    /// needs more room than any before it.
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
        let key = VarState::nonbasic(Some((lower, None)), Some((upper, None)), value);
        self.vars.clear();
        self.vars.resize(n_vars, key);
        let mut n_rows = 0;
        for slack in rows {
            let (r, negated) = match slack.shares {
                Some((k, rel)) => {
                    debug_assert!(n_vars + k < self.vars.len(), "shares an earlier slack");
                    let first = &self.vars[n_vars + k];
                    (
                        first.row.expect("slacks are basic") as usize,
                        first.negated != rel,
                    )
                }
                None => {
                    if n_rows == self.rows.len() {
                        self.rows.push(Row::empty());
                    }
                    let row = &mut self.rows[n_rows];
                    row.terms.clear();
                    row.terms.extend(slack.terms);
                    debug_assert!(row.terms.windows(2).all(|w| w[0].0 < w[1].0));
                    debug_assert!(row.terms.iter().all(|&(v, c)| v < n_vars && !c.is_zero()));
                    row.value = row.terms.iter().map(|&(v, c)| self.vars[v].value * c).sum();
                    row.head = END;
                    n_rows += 1;
                    (n_rows - 1, false)
                }
            };
            let row = &mut self.rows[r];
            let s = self.vars.len() as u32;
            self.vars.push(VarState {
                lower: slack.lower.map(|l| (l, slack.tag)),
                upper: slack.upper.map(|u| (u, slack.tag)),
                value: if negated { -row.value } else { row.value },
                row: Some(r as u32),
                negated,
                next: row.head,
            });
            row.head = s;
        }
        self.n_rows = n_rows;
        let stride = (self.vars.len() - n_vars).div_ceil(64);
        self.stride = stride;
        self.rows.truncate(stride * 64);
        self.cols.clear();
        self.cols.resize(self.vars.len() * stride, 0);
        self.violated.clear();
        self.violated.resize(self.vars.len().div_ceil(64), 0);
        for (r, row) in self.rows[..n_rows].iter().enumerate() {
            for &(v, _) in &row.terms {
                set_bit(&mut self.cols[v * stride..], r, true);
            }
        }
        for s in n_vars..self.vars.len() {
            set_bit(&mut self.violated, s, out_of_bounds(&self.vars[s]));
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

    /// Sets a nonbasic variable's value, updating the form value of each
    /// row in its column and the values of the row's members.
    fn update_nonbasic(&mut self, var: usize, v: Rat) {
        let delta = v - self.vars[var].value;
        if delta.is_zero() {
            return;
        }
        let stride = self.stride;
        for_each_bit(&self.cols[var * stride..(var + 1) * stride], |r| {
            let row = &mut self.rows[r];
            // Invariant: the column index lists exactly the rows whose
            // terms mention `var`.
            let c = row.coeff(var).expect("column index names the row");
            row.value += c * delta;
            revalue(&mut self.vars, &mut self.violated, row.head, row.value);
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

    /// Pivots basic variable `bi` with nonbasic `nj`, then sets `bi`'s
    /// value to `target`.
    ///
    /// Only the rows in `nj`'s column change: each gets its form value
    /// moved and `nj` substituted in one pass, merging into the reused
    /// buffer, and its members revalued. `bi`'s row becomes `nj`'s, and
    /// its other members move to a new row over `bi` alone. Afterwards
    /// `bi`'s column is the one `nj` had plus that row, and `nj`'s is
    /// empty.
    fn pivot_and_update(&mut self, bi: usize, nj: usize, target: Rat) {
        let VarState { row, negated, .. } = self.vars[bi];
        let r = row.expect("the leaving variable is basic") as usize;
        let mut nj_terms = std::mem::take(&mut self.rows[r].terms);
        // Invariant: `nj` was selected as the entering variable *from*
        // this row's terms, so it is present by construction.
        let at = nj_terms
            .binary_search_by_key(&nj, |&(w, _)| w)
            .expect("pivot column must appear in row");
        let t_nj = nj_terms.remove(at).1;
        let a_ij = if negated { -t_nj } else { t_nj };

        // Value updates (Dutertre–de Moura `pivotAndUpdate`).
        let theta = (target - self.vars[bi].value) / a_ij;
        self.vars[bi].value = target;
        self.vars[nj].value += theta;

        // Tableau pivot: express nj from bi's row (coefficients ±terms):
        //   bi = Σ a_iw·w  ⇒  nj = (bi - Σ_{w≠nj} a_iw·w) / a_ij
        // `bi` is basic, so it is absent from the row: insert it in order.
        let inv = a_ij.recip();
        let signed_inv = if negated { -inv } else { inv };
        for (_, c) in &mut nj_terms {
            *c = -(*c * signed_inv);
        }
        let at = nj_terms.partition_point(|&(w, _)| w < bi);
        nj_terms.insert(at, (bi, inv));

        // Move the form value of, and substitute nj into, every other
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
                row.value += c * theta;
                revalue(&mut self.vars, &mut self.violated, row.head, row.value);
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

        // The row's other members, `±form` with `form = ±bi`, move to a
        // new row over `bi` alone, their signs times `bi`'s.
        let split = self.n_rows;
        let mut others = END;
        let mut m = self.rows[r].head;
        while m != END {
            let state = &mut self.vars[m as usize];
            let next = state.next;
            if m as usize != bi {
                state.row = Some(split as u32);
                state.negated ^= negated;
                state.next = others;
                others = m;
            }
            m = next;
        }
        if others != END {
            let split = self.push_row();
            set_bit(&mut self.cols[bi * self.stride..], split, true);
            let row = &mut self.rows[split];
            row.terms.push((bi, Rat::ONE));
            row.value = target;
            row.head = others;
            revalue(&mut self.vars, &mut self.violated, others, target);
        }

        let nj_value = self.vars[nj].value;
        let row = &mut self.rows[r];
        row.terms = nj_terms;
        row.value = nj_value;
        row.head = nj as u32;
        self.vars[nj].row = Some(r as u32);
        self.vars[nj].negated = false;
        self.vars[nj].next = END;
        self.vars[bi] = VarState::nonbasic(self.vars[bi].lower, self.vars[bi].upper, target);
        set_bit(&mut self.violated, bi, false);
        set_bit(&mut self.violated, nj, out_of_bounds(&self.vars[nj]));
    }

    /// Builds the conflict explanation for basic variable `bi`, stuck
    /// violating one of its bounds: the bound of `bi` plus, for every
    /// variable of its row, the bound that blocks movement in the required
    /// direction (the row's coefficients negated for a negated member).
    ///
    /// The `expect`s below are internal invariants, not input checks: the
    /// caller only reaches this after establishing that the basic variable
    /// violates the named bound and that every row variable is blocked in
    /// the needed direction — both of which require the respective bound to
    /// be present. No campaign input can falsify them.
    fn explain(&self, bi: usize, below: bool) -> Explanation {
        let VarState { row, negated, .. } = self.vars[bi];
        let terms = &self.rows[row.expect("basic") as usize].terms;
        let mut out = Vec::new();
        if below {
            out.push(self.vars[bi].lower.expect("violated lower").1);
            for &(w, c) in terms {
                if c.is_positive() != negated {
                    out.push(self.vars[w].upper.expect("blocked above").1);
                } else {
                    out.push(self.vars[w].lower.expect("blocked below").1);
                }
            }
        } else {
            out.push(self.vars[bi].upper.expect("violated upper").1);
            for &(w, c) in terms {
                if c.is_positive() != negated {
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
            let VarState { row, negated, .. } = self.vars[bi];
            let r = row.expect("violated variables are basic") as usize;
            let below = self.violates_lower(bi);
            // Invariant, not an input check: `bi` violates this bound,
            // which requires it to exist.
            let target = if below {
                self.vars[bi].lower.expect("violated lower bound exists").0
            } else {
                self.vars[bi].upper.expect("violated upper bound exists").0
            };
            // Entering variable: smallest-index nonbasic var that can move
            // the basic variable in the needed direction. A coefficient of
            // `bi` is the row's, negated for a negated member.
            // Rows are sorted by variable, so the first candidate is the
            // smallest.
            let mut entering: Option<usize> = None;
            for &(w, c) in &self.rows[r].terms {
                let positive = c.is_positive() != negated;
                let ok = if below {
                    // need to increase bi
                    (positive && self.can_increase(w)) || (!positive && self.can_decrease(w))
                } else {
                    // need to decrease bi
                    (positive && self.can_decrease(w)) || (!positive && self.can_increase(w))
                };
                if ok {
                    entering = Some(w);
                    break;
                }
            }
            match entering {
                Some(nj) => self.pivot_and_update(bi, nj, target),
                None => return SimplexResult::Unsat(self.explain(bi, below)),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hotg_prop::prelude::*;
    use hotg_prop::TestRng;

    /// One variable of the one-row-per-slack tableau a tableau stands
    /// for: its bounds, its value and, when basic, its row (the terms of
    /// the row it is a member of, times its sign).
    #[derive(Debug, PartialEq)]
    pub(crate) struct SlackVar {
        lower: Option<(Rat, Option<u32>)>,
        upper: Option<(Rat, Option<u32>)>,
        value: Rat,
        row: Option<Vec<(usize, Rat)>>,
    }

    /// The one-row-per-slack tableau `s` stands for, variable by
    /// variable, and its violated set.
    pub(crate) fn slack_view(s: &Simplex) -> (Vec<SlackVar>, Vec<u64>) {
        let vars = s
            .vars
            .iter()
            .map(|state| SlackVar {
                lower: state.lower,
                upper: state.upper,
                value: state.value,
                row: state.row.map(|r| {
                    let terms = s.rows[r as usize].terms.iter();
                    if state.negated {
                        terms.map(|&(w, c)| (w, -c)).collect()
                    } else {
                        terms.copied().collect()
                    }
                }),
            })
            .collect();
        (vars, s.violated.clone())
    }

    /// Asserts that every basic variable is a member of exactly the row
    /// it names, with a value of that row's form value times its sign,
    /// that every row is a nonempty form over nonbasic variables whose
    /// value is the form's, and that the column index and the violated
    /// set are exactly the ones recomputed from the rows, the values and
    /// the bounds.
    pub(crate) fn assert_index_exact(s: &Simplex) {
        assert_eq!(s.cols.len(), s.vars.len() * s.stride);
        assert!(s.rows.len() <= s.stride * 64 && s.n_rows <= s.rows.len());
        assert!(s.scratch.is_empty());
        let basic = s.vars.iter().filter(|v| v.row.is_some()).count();
        assert!(basic <= s.stride * 64, "room for a row per basic variable");
        let mut listed = vec![false; s.vars.len()];
        for (r, row) in s.rows[..s.n_rows].iter().enumerate() {
            assert!(row.terms.windows(2).all(|w| w[0].0 < w[1].0), "row {r}");
            assert!(row
                .terms
                .iter()
                .all(|&(w, c)| !c.is_zero() && s.vars[w].row.is_none()));
            let value: Rat = row.terms.iter().map(|&(w, c)| s.vars[w].value * c).sum();
            assert_eq!(row.value, value, "form value of row {r}");
            assert_ne!(row.head, END, "row {r} has members");
            let mut m = row.head;
            while m != END {
                let state = &s.vars[m as usize];
                assert!(
                    !std::mem::replace(&mut listed[m as usize], true),
                    "{m} listed twice"
                );
                assert_eq!(state.row, Some(r as u32), "member {m} of row {r}");
                let signed = if state.negated { -row.value } else { row.value };
                assert_eq!(state.value, signed, "value of member {m}");
                m = state.next;
            }
        }
        for v in 0..s.vars.len() {
            assert_eq!(listed[v], s.vars[v].row.is_some(), "membership of {v}");
            let col = &s.cols[v * s.stride..(v + 1) * s.stride];
            for r in 0..s.stride * 64 {
                let listed = col[r / 64] >> (r % 64) & 1 == 1;
                let mentioned = r < s.n_rows && s.rows[r].terms.iter().any(|&(w, _)| w == v);
                assert_eq!(listed, mentioned, "column {v}, row {r}");
            }
            let flagged = s.violated[v / 64] >> (v % 64) & 1 == 1;
            let violating = s.vars[v].row.is_some() && out_of_bounds(&s.vars[v]);
            assert_eq!(flagged, violating, "violated set, variable {v}");
        }
    }

    /// Random terms over the variables `0..n`: up to four, with small
    /// integer coefficients, possibly repeated or cancelling.
    fn random_terms(rng: &mut TestRng, n: usize) -> Vec<(usize, Rat)> {
        (0..1 + rng.below(4))
            .map(|_| {
                let v = rng.below(n as u64) as usize;
                (v, Rat::from(rng.in_span(-3, 3) as i64))
            })
            .collect()
    }

    /// A random bound: kind, a small rational constant and a tag, which
    /// some bounds lack.
    fn random_bound(rng: &mut TestRng, tag: &mut u32) -> (BoundKind, Rat, Option<u32>) {
        let kind = if rng.below(2) == 0 {
            BoundKind::Lower
        } else {
            BoundKind::Upper
        };
        let c = Rat::new(rng.in_span(-20, 20), 1 + rng.in_span(0, 2));
        *tag += 1;
        (kind, c, (rng.below(4) != 0).then_some(*tag))
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

        #[test]
        fn shared_rows_answer_as_one_row_per_slack(seed in 0u64..1_000_000) {
            let mut rng = TestRng::seed_from_u64(seed);
            let n_vars = 2 + rng.below(5) as usize;
            let (lower, upper) = [(-12i64, 12i64), (-3, 40), (-(1 << 20), 1 << 20)]
                [rng.below(3) as usize];
            let (lower, upper) = (Rat::from(lower), Rat::from(upper));
            // A few forms, each the form of many slacks of either sign.
            let forms: Vec<Vec<(usize, Rat)>> = (0..1 + rng.below(4))
                .map(|_| {
                    let mut terms = random_terms(&mut rng, n_vars);
                    terms.sort_by_key(|&(v, _)| v);
                    let mut terms = collapse(terms);
                    if terms.is_empty() {
                        terms.push((rng.below(n_vars as u64) as usize, Rat::ONE));
                    }
                    terms
                })
                .collect();
            let mut tag = 0;
            // Per slack: its form, its sign and its bounds.
            let slacks: Vec<(usize, bool, SlackRow<()>)> = (0..1 + rng.below(24))
                .map(|_| {
                    let form = rng.below(forms.len() as u64) as usize;
                    let mut ends = [0, 1].map(|_| {
                        (rng.below(3) == 0).then(|| Rat::from(rng.in_span(-10, 10) as i64))
                    });
                    if let [Some(l), Some(u)] = &mut ends {
                        if u < l {
                            std::mem::swap(l, u);
                        }
                    }
                    tag += 1;
                    let bounds = SlackRow {
                        terms: (),
                        shares: None,
                        lower: ends[0],
                        upper: ends[1],
                        tag: Some(tag),
                    };
                    (form, rng.below(2) == 0, bounds)
                })
                .collect();
            let sign = |negated: bool, c: Rat| if negated { -c } else { c };

            // The shared tableau: each form's first slack owns its row.
            let mut first: Vec<Option<(usize, bool)>> = vec![None; forms.len()];
            let mut shared = Simplex::new();
            shared.refill(
                n_vars,
                lower,
                upper,
                slacks.iter().enumerate().map(|(i, &(form, negated, ref bounds))| {
                    let shares = match first[form] {
                        Some((k, k_negated)) => Some((k, k_negated != negated)),
                        None => {
                            first[form] = Some((i, negated));
                            None
                        }
                    };
                    SlackRow {
                        terms: forms[form].iter().map(move |&(v, c)| (v, sign(negated, c))),
                        shares,
                        lower: bounds.lower,
                        upper: bounds.upper,
                        tag: bounds.tag,
                    }
                }),
            );
            // The one-row-per-slack tableau of the same slacks.
            let mut single = Simplex::new();
            for v in 0..n_vars {
                single.new_var();
                single.assert_bound(v, BoundKind::Lower, lower, None).unwrap();
                single.assert_bound(v, BoundKind::Upper, upper, None).unwrap();
            }
            for &(form, negated, ref bounds) in &slacks {
                let terms: Vec<(usize, Rat)> =
                    forms[form].iter().map(|&(v, c)| (v, sign(negated, c))).collect();
                let s = single.add_row(&terms);
                for (kind, bound) in [(BoundKind::Lower, bounds.lower), (BoundKind::Upper, bounds.upper)] {
                    if let Some(b) = bound {
                        single.assert_bound(s, kind, b, bounds.tag).unwrap();
                    }
                }
            }
            prop_assert!(shared.n_rows <= forms.len());
            prop_assert_eq!(slack_view(&shared), slack_view(&single));
            assert_index_exact(&shared);
            for step in 0..60 {
                match rng.below(8) {
                    0..=3 => {
                        let v = rng.below(shared.var_count() as u64) as usize;
                        let (kind, c, tag) = random_bound(&mut rng, &mut tag);
                        prop_assert_eq!(
                            shared.assert_bound(v, kind, c, tag),
                            single.assert_bound(v, kind, c, tag),
                            "step {}", step
                        );
                    }
                    4 => {
                        // A row over any variables, shared members included.
                        let terms = random_terms(&mut rng, shared.var_count());
                        prop_assert_eq!(shared.add_row(&terms), single.add_row(&terms));
                    }
                    _ => prop_assert_eq!(shared.check(), single.check(), "step {}", step),
                }
                prop_assert_eq!(slack_view(&shared), slack_view(&single), "step {}", step);
                assert_index_exact(&shared);
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
