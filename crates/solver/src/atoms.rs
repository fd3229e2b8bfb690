//! Canonicalization of logic [`Atom`]s into integer-normalized theory
//! rows, kept in one flat `TheoryTable` per query.
//!
//! Every atom over the theory `T ∪ T_EUF` reduces to one of two primitive
//! shapes over integer linear expressions (uninterpreted applications are
//! opaque keys):
//!
//! * `Eq`: `Σ aᵢ·kᵢ + c  = 0` (gcd-reduced, sign-normalized), or
//! * `Le`: `Σ aᵢ·kᵢ + c ≤ 0` (gcd-reduced with integer tightening).
//!
//! Strict inequalities are tightened away (`e < 0 ⇔ e + 1 ≤ 0` over the
//! integers), so the LIA backend only ever sees non-strict constraints.
//! Disequalities become negated `Eq` primitives, which the SMT layer
//! handles with an eager case split.
//!
//! A `TableBuilder` linearizes each atom's terms straight into integer
//! coefficients over keys borrowed from the query (`KeyRef`), so no
//! [`LinKey`] is cloned. The coefficient
//! vector `Σ aᵢ·kᵢ` of each primitive is stored once, as a row of the
//! table's flat buffer, with its first coefficient (in `LinKey` order)
//! positive; a primitive is a `Con`: a row index, a sign, a constant
//! and a kind. The `≤` negation and both sides of an `=` split are
//! sign/constant views of their parent row (`Con::negate_le`,
//! `Con::eq_split`), never copies. Rows and keys are found through
//! [`FastMap`]s; once encoding ends the keys are ranked in `LinKey` order
//! and every row is renumbered, so its keys stay in increasing order.

use crate::lia::{ConKind, IntConstraint};
use hotg_logic::{Atom, FastHasher, FastMap, LinKey, NonLinearError, OpKind, Rel, Term, Var};
use std::hash::{Hash, Hasher};

/// A key of a theory row, borrowed from the query's terms: a variable or
/// an uninterpreted application. It orders and compares exactly as the
/// [`LinKey`] it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum KeyRef<'a> {
    /// A symbolic input variable.
    Var(Var),
    /// An uninterpreted application, treated as an opaque unknown.
    App(&'a Term),
}

/// The theory rows of one query in one flat buffer: row `r` is the
/// coefficient vector `terms[ends[r - 1]..ends[r]]` of `(key id,
/// coefficient)` pairs with nonzero coefficients, its keys in `LinKey`
/// order, which is increasing id order once the ids are key ranks.
#[derive(Clone, Debug, Default)]
pub(crate) struct TheoryTable {
    terms: Vec<(u32, i128)>,
    ends: Vec<u32>,
    n_keys: usize,
}

impl TheoryTable {
    /// The `(key id, coefficient)` pairs of row `r`.
    pub(crate) fn row(&self, r: u32) -> &[(u32, i128)] {
        let r = r as usize;
        let start = if r == 0 { 0 } else { self.ends[r - 1] as usize };
        &self.terms[start..self.ends[r] as usize]
    }

    /// Number of keys the ids index (every id is below it).
    pub(crate) fn n_keys(&self) -> usize {
        self.n_keys
    }

    /// Number of rows (every row index is below it).
    pub(crate) fn n_rows(&self) -> usize {
        self.ends.len()
    }

    fn push_row(&mut self, terms: &[(u32, i128)]) -> u32 {
        self.terms.extend_from_slice(terms);
        self.ends.push(self.terms.len() as u32);
        self.ends.len() as u32 - 1
    }

    /// The table of a system of [`IntConstraint`]s: the sorted key
    /// universe, and one `Con` per constraint, in order. A constraint's
    /// coefficients sum per key (in order) and drop zeros, as
    /// [`crate::simplex::Simplex::add_row`] does; the result is stored
    /// once per distinct form, sign-normalized as `TableBuilder` stores
    /// it (first coefficient positive), and a constraint over its
    /// negation is a `negated` view of the row.
    pub(crate) fn of_constraints(
        constraints: &[&IntConstraint],
    ) -> (TheoryTable, Vec<LinKey>, Vec<Con>) {
        let mut keys: Vec<&LinKey> = constraints
            .iter()
            .flat_map(|con| con.coeffs.iter().map(|(k, _)| k))
            .collect();
        keys.sort();
        keys.dedup();
        let mut table = TheoryTable {
            n_keys: keys.len(),
            ..TheoryTable::default()
        };
        let mut rows: FastMap<Vec<(u32, i128)>, u32> = FastMap::default();
        let cons = constraints
            .iter()
            .map(|con| {
                let mut row: Vec<(u32, i128)> = con
                    .coeffs
                    .iter()
                    .map(|(k, c)| {
                        // Every key was collected above.
                        let id = keys.binary_search(&k).expect("interned key");
                        (id as u32, *c)
                    })
                    .collect();
                row.sort_by_key(|&(id, _)| id);
                collapse(&mut row);
                let negated = row.first().is_some_and(|&(_, c)| c < 0);
                if negated {
                    for (_, c) in &mut row {
                        *c = -*c;
                    }
                }
                let row = match rows.get(&row) {
                    Some(&r) => r,
                    None => {
                        let r = table.push_row(&row);
                        rows.insert(row, r);
                        r
                    }
                };
                Con {
                    row,
                    negated,
                    constant: con.constant,
                    kind: con.kind,
                }
            })
            .collect();
        (table, keys.into_iter().cloned().collect(), cons)
    }
}

/// Sums the coefficients of equal keys of `terms` (sorted by key; equal
/// keys summed in their order of appearance) and drops the zeros.
fn collapse<K: PartialEq + Copy>(terms: &mut Vec<(K, i128)>) {
    let mut out = 0;
    for i in 0..terms.len() {
        let (k, c) = terms[i];
        if out > 0 && terms[out - 1].0 == k {
            terms[out - 1].1 = add(terms[out - 1].1, c);
        } else {
            terms[out] = (k, c);
            out += 1;
        }
    }
    terms.truncate(out);
    terms.retain(|&(_, c)| c != 0);
}

/// A theory constraint over a `TheoryTable` row:
/// `±(Σ aᵢ·kᵢ) + constant ⋈ 0`, the sign negative when `negated`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Con {
    /// The row holding `Σ aᵢ·kᵢ`.
    pub row: u32,
    /// `true` when the constraint uses the row's negation.
    pub negated: bool,
    /// Constant offset.
    pub constant: i128,
    /// Relation against zero.
    pub kind: ConKind,
}

impl Con {
    /// The constraint asserted when a `Le` primitive is assigned *false*:
    /// `¬(e ≤ 0) ⇔ -e + 1 ≤ 0` over the integers.
    pub(crate) fn negate_le(self) -> Con {
        debug_assert_eq!(self.kind, ConKind::Le);
        Con {
            negated: !self.negated,
            constant: -self.constant + 1,
            ..self
        }
    }

    /// The strict-side `Le` primitives of an `Eq` primitive `e = 0`:
    /// returns (`e + 1 ≤ 0`, i.e. `e < 0`) and (`-e + 1 ≤ 0`, i.e. `e > 0`).
    pub(crate) fn eq_split(self) -> (Con, Con) {
        debug_assert_eq!(self.kind, ConKind::Eq);
        let lt = Con {
            constant: self.constant + 1,
            kind: ConKind::Le,
            ..self
        };
        let gt = Con {
            negated: !self.negated,
            constant: -self.constant + 1,
            ..lt
        };
        (lt, gt)
    }

    /// The constraint's `(key id, coefficient)` pairs, in id order.
    pub(crate) fn coeffs(
        self,
        table: &TheoryTable,
    ) -> impl ExactSizeIterator<Item = (u32, i128)> + '_ {
        let sign = if self.negated { -1 } else { 1 };
        table
            .row(self.row)
            .iter()
            .map(move |&(id, c)| (id, sign * c))
    }
}

/// The constraint asserted when a `Le` primitive is assigned *false*:
/// `¬(e ≤ 0) ⇔ -e + 1 ≤ 0` over the integers (`Con::negate_le` on an
/// owned constraint).
pub fn negate_le(con: &IntConstraint) -> IntConstraint {
    debug_assert_eq!(con.kind, ConKind::Le);
    IntConstraint {
        coeffs: con.coeffs.iter().map(|(k, c)| (k.clone(), -c)).collect(),
        constant: -con.constant + 1,
        kind: ConKind::Le,
    }
}

/// The strict-side `Le` primitives of an `Eq` primitive `e = 0`:
/// returns (`e + 1 ≤ 0`, i.e. `e < 0`) and (`-e + 1 ≤ 0`, i.e. `e > 0`)
/// (`Con::eq_split` on an owned constraint).
pub fn eq_split(con: &IntConstraint) -> (IntConstraint, IntConstraint) {
    debug_assert_eq!(con.kind, ConKind::Eq);
    let lt = IntConstraint {
        coeffs: con.coeffs.clone(),
        constant: con.constant + 1,
        kind: ConKind::Le,
    };
    let gt = IntConstraint {
        coeffs: con.coeffs.iter().map(|(k, c)| (k.clone(), -c)).collect(),
        constant: -con.constant + 1,
        kind: ConKind::Le,
    };
    (lt, gt)
}

/// Result of canonicalizing an atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Canon {
    /// The atom is constant.
    Const(bool),
    /// The atom is equivalent to `con` (if `positive`) or `¬con`.
    Con {
        /// The canonical primitive.
        con: Con,
        /// Polarity of the equivalence.
        positive: bool,
    },
}

pub(crate) fn gcd128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn floor_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    if a >= 0 {
        a / b
    } else {
        -((-a + b - 1) / b)
    }
}

fn add(a: i128, b: i128) -> i128 {
    a.checked_add(b).expect("linear coefficient overflow")
}

fn mul(a: i128, b: i128) -> i128 {
    a.checked_mul(b).expect("linear coefficient overflow")
}

/// Adds `scale ·` the linear form of `term` to `out` (unsorted, keys may
/// repeat) and `constant`. Fails on the first subterm outside `T`,
/// visiting operands left to right and depth first; a product of two
/// non-constant sides fails as the whole product.
fn linearize<'a>(
    term: &'a Term,
    scale: i128,
    out: &mut Vec<(KeyRef<'a>, i128)>,
    constant: &mut i128,
) -> Result<(), NonLinearError> {
    match term {
        Term::Var(v) => out.push((KeyRef::Var(*v), scale)),
        Term::Int(c) => *constant = add(*constant, mul(scale, i128::from(*c))),
        Term::App(..) => out.push((KeyRef::App(term), scale)),
        Term::Op(OpKind::Add, args) => {
            for a in args {
                linearize(a, scale, out, constant)?;
            }
        }
        Term::Op(OpKind::Sub, args) => {
            linearize(&args[0], scale, out, constant)?;
            linearize(&args[1], -scale, out, constant)?;
        }
        Term::Op(OpKind::Neg, args) => linearize(&args[0], -scale, out, constant)?,
        Term::Op(OpKind::Mul, args) => match (&args[0], &args[1]) {
            (Term::Int(c), r) => linearize(r, mul(scale, i128::from(*c)), out, constant)?,
            (l, Term::Int(c)) => linearize(l, mul(scale, i128::from(*c)), out, constant)?,
            (l, r) => {
                // Linear only if a side cancels down to a constant.
                let (mut lt, mut lc) = (Vec::new(), 0);
                linearize(l, 1, &mut lt, &mut lc)?;
                let (mut rt, mut rc) = (Vec::new(), 0);
                linearize(r, 1, &mut rt, &mut rc)?;
                lt.sort_by(|a, b| a.0.cmp(&b.0));
                collapse(&mut lt);
                rt.sort_by(|a, b| a.0.cmp(&b.0));
                collapse(&mut rt);
                let (keys, by, c) = if lt.is_empty() {
                    (rt, lc, rc)
                } else if rt.is_empty() {
                    (lt, rc, lc)
                } else {
                    return Err(NonLinearError { term: term.clone() });
                };
                let by = mul(scale, by);
                out.extend(keys.into_iter().map(|(k, a)| (k, mul(by, a))));
                *constant = add(*constant, mul(by, c));
            }
        },
        Term::Op(OpKind::Div | OpKind::Mod, _) => {
            return Err(NonLinearError { term: term.clone() })
        }
    }
    Ok(())
}

/// Builds the `TheoryTable` of one query, atom by atom. Keys get ids in
/// first-seen order while encoding runs; `TableBuilder::finish` ranks
/// them in `LinKey` order.
#[derive(Debug, Default)]
pub(crate) struct TableBuilder<'a> {
    table: TheoryTable,
    /// Key → first-seen id.
    key_ids: FastMap<KeyRef<'a>, u32>,
    /// Every key, by first-seen id.
    keys: Vec<KeyRef<'a>>,
    /// Row hash → the last row with that hash.
    row_heads: FastMap<u64, u32>,
    /// Per row, the previous row with its hash (`u32::MAX` ends a chain).
    row_chain: Vec<u32>,
    /// Linearization buffer of the atom being canonicalized.
    lin: Vec<(KeyRef<'a>, i128)>,
    /// Candidate row of the atom being canonicalized.
    row: Vec<(u32, i128)>,
}

impl<'a> TableBuilder<'a> {
    /// An empty builder.
    pub(crate) fn new() -> TableBuilder<'a> {
        TableBuilder::default()
    }

    /// Canonicalizes an atom into a constant or a primitive over a row of
    /// the table, adding the row if it is new.
    ///
    /// # Errors
    ///
    /// Returns [`NonLinearError`] if either side is outside the linear
    /// theory.
    pub(crate) fn atom(&mut self, atom: &'a Atom) -> Result<Canon, NonLinearError> {
        self.lin.clear();
        let mut constant = 0i128;
        linearize(&atom.lhs, 1, &mut self.lin, &mut constant)?;
        linearize(&atom.rhs, -1, &mut self.lin, &mut constant)?;
        self.lin.sort_by(|a, b| a.0.cmp(&b.0));
        collapse(&mut self.lin);
        Ok(match atom.rel {
            Rel::Eq => self.canon_eq(constant, true),
            Rel::Ne => self.canon_eq(constant, false),
            Rel::Le => self.canon_le(constant),
            Rel::Lt => self.canon_le(add(constant, 1)),
            Rel::Ge | Rel::Gt => {
                for (_, c) in &mut self.lin {
                    *c = -*c;
                }
                let strict = i128::from(atom.rel == Rel::Gt);
                self.canon_le(add(-constant, strict))
            }
        })
    }

    /// The `Le` primitive of `lin + constant ≤ 0`.
    fn canon_le(&mut self, constant: i128) -> Canon {
        if self.lin.is_empty() {
            return Canon::Const(constant <= 0);
        }
        let g = self.lin.iter().fold(0i128, |acc, (_, c)| gcd128(acc, *c));
        // Σ a·k ≤ -c  ⇒  Σ (a/g)·k ≤ floor(-c/g).
        let constant = -floor_div(-constant, g);
        let negated = self.lin[0].1 < 0;
        let sign = if negated { -g } else { g };
        let row = self.intern_row(sign);
        Canon::Con {
            con: Con {
                row,
                negated,
                constant,
                kind: ConKind::Le,
            },
            positive: true,
        }
    }

    /// The `Eq` primitive of `lin + constant = 0`, with `positive` the
    /// requested polarity.
    fn canon_eq(&mut self, constant: i128, positive: bool) -> Canon {
        if self.lin.is_empty() {
            return Canon::Const((constant == 0) == positive);
        }
        let g = self.lin.iter().fold(0i128, |acc, (_, c)| gcd128(acc, *c));
        if constant % g != 0 {
            // gcd ∤ c: the equality is integer-infeasible.
            return Canon::Const(!positive);
        }
        // Sign normalization: first coefficient positive.
        let sign = if self.lin[0].1 < 0 { -g } else { g };
        let row = self.intern_row(sign);
        Canon::Con {
            con: Con {
                row,
                negated: false,
                constant: constant / sign,
                kind: ConKind::Eq,
            },
            positive,
        }
    }

    /// The row `lin / divisor` over key ids, added to the table if new.
    fn intern_row(&mut self, divisor: i128) -> u32 {
        self.row.clear();
        let mut h = FastHasher::default();
        for &(key, c) in &self.lin {
            let next = self.keys.len() as u32;
            let id = *self.key_ids.entry(key).or_insert_with(|| {
                self.keys.push(key);
                next
            });
            let c = c / divisor;
            (id, c).hash(&mut h);
            self.row.push((id, c));
        }
        let hash = h.finish();
        let mut r = self.row_heads.get(&hash).copied().unwrap_or(u32::MAX);
        while r != u32::MAX {
            if self.table.row(r) == self.row.as_slice() {
                return r;
            }
            r = self.row_chain[r as usize];
        }
        let r = self.table.push_row(&self.row);
        self.row_chain
            .push(self.row_heads.insert(hash, r).unwrap_or(u32::MAX));
        r
    }

    /// Ends encoding: ranks the keys in `LinKey` order and renumbers every
    /// row, returning the table and the keys by rank.
    pub(crate) fn finish(self) -> (TheoryTable, Vec<KeyRef<'a>>) {
        let TableBuilder {
            mut table, keys, ..
        } = self;
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let mut rank = vec![0u32; keys.len()];
        for (r, &first_seen) in order.iter().enumerate() {
            rank[first_seen as usize] = r as u32;
        }
        // A row lists its keys in `LinKey` order, which ranking keeps.
        for (id, _) in &mut table.terms {
            *id = rank[*id as usize];
        }
        table.n_keys = keys.len();
        let ranked = order.iter().map(|&id| keys[id as usize]).collect();
        (table, ranked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotg_logic::{Signature, Sort};
    use std::collections::BTreeMap;

    fn setup() -> (Signature, Var, Var) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        (sig, x, y)
    }

    /// Canonicalizes one atom and materializes its primitive over
    /// `LinKey`s.
    fn canon(atom: &Atom) -> Result<Option<(IntConstraint, bool)>, NonLinearError> {
        let mut b = TableBuilder::new();
        let c = b.atom(atom)?;
        let (table, keys) = b.finish();
        Ok(match c {
            Canon::Const(_) => None,
            Canon::Con { con, positive } => Some((materialize(&table, &keys, con), positive)),
        })
    }

    fn materialize(table: &TheoryTable, keys: &[KeyRef<'_>], con: Con) -> IntConstraint {
        IntConstraint {
            coeffs: con
                .coeffs(table)
                .map(|(id, c)| {
                    let key = match keys[id as usize] {
                        KeyRef::Var(v) => LinKey::Var(v),
                        KeyRef::App(t) => LinKey::App(t.clone()),
                    };
                    (key, c)
                })
                .collect(),
            constant: con.constant,
            kind: con.kind,
        }
    }

    fn prim_of(atom: &Atom) -> (IntConstraint, bool) {
        canon(atom).unwrap().expect("a primitive")
    }

    fn const_of(atom: &Atom) -> Canon {
        TableBuilder::new().atom(atom).unwrap()
    }

    #[test]
    fn eq_canonical_sign() {
        let (_, x, y) = setup();
        // -x + y = 0 and x - y = 0 share a canonical form.
        let a = Atom::eq(Term::var(y), Term::var(x));
        let b = Atom::eq(Term::var(x), Term::var(y));
        let (pa, sa) = prim_of(&a);
        let (pb, sb) = prim_of(&b);
        assert_eq!(pa, pb);
        assert!(sa && sb);
        assert_eq!(pa.kind, ConKind::Eq);
        assert_eq!(pa.coeffs[0].1, 1);
    }

    #[test]
    fn eq_gcd_reduction() {
        let (_, x, _) = setup();
        // 2x = 4 → x - 2 = 0.
        let a = Atom::eq(Term::int(2) * Term::var(x), Term::int(4));
        let (p, _) = prim_of(&a);
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), 1)]);
        assert_eq!(p.constant, -2);
    }

    #[test]
    fn eq_gcd_infeasible_is_const() {
        let (_, x, y) = setup();
        // 2x - 2y = 1 is integer-infeasible → Const(false).
        let a = Atom::eq(
            Term::int(2) * Term::var(x) - Term::int(2) * Term::var(y),
            Term::int(1),
        );
        assert_eq!(const_of(&a), Canon::Const(false));
        // And its negation is constantly true.
        assert_eq!(const_of(&a.negate()), Canon::Const(true));
    }

    #[test]
    fn ne_is_negative_eq() {
        let (_, x, _) = setup();
        let eq = Atom::eq(Term::var(x), Term::int(5));
        let ne = Atom::ne(Term::var(x), Term::int(5));
        let (pe, se) = prim_of(&eq);
        let (pn, sn) = prim_of(&ne);
        assert_eq!(pe, pn);
        assert!(se);
        assert!(!sn);
    }

    #[test]
    fn strict_tightening() {
        let (_, x, _) = setup();
        // x < 5  ⇔  x ≤ 4  ⇔  x - 4 ≤ 0.
        let a = Atom::new(Term::var(x), Rel::Lt, Term::int(5));
        let (p, pos) = prim_of(&a);
        assert!(pos);
        assert_eq!(p.kind, ConKind::Le);
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), 1)]);
        assert_eq!(p.constant, -4);
    }

    #[test]
    fn gt_maps_to_le() {
        let (_, x, _) = setup();
        // x > 3  ⇔  -x + 4 ≤ 0.
        let a = Atom::new(Term::var(x), Rel::Gt, Term::int(3));
        let (p, pos) = prim_of(&a);
        assert!(pos);
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), -1)]);
        assert_eq!(p.constant, 4);
    }

    #[test]
    fn ge_maps_to_le() {
        let (_, x, _) = setup();
        // x ≥ 3  ⇔  -x + 3 ≤ 0.
        let a = Atom::new(Term::var(x), Rel::Ge, Term::int(3));
        let (p, _) = prim_of(&a);
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), -1)]);
        assert_eq!(p.constant, 3);
    }

    #[test]
    fn le_gcd_tightening() {
        let (_, x, _) = setup();
        // 2x ≤ 5  ⇔  x ≤ 2  ⇔ x - 2 ≤ 0.
        let a = Atom::new(Term::int(2) * Term::var(x), Rel::Le, Term::int(5));
        let (p, _) = prim_of(&a);
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), 1)]);
        assert_eq!(p.constant, -2);
    }

    #[test]
    fn constant_atoms() {
        assert_eq!(
            const_of(&Atom::new(Term::int(1), Rel::Lt, Term::int(2))),
            Canon::Const(true)
        );
        assert_eq!(
            const_of(&Atom::eq(Term::int(1), Term::int(2))),
            Canon::Const(false)
        );
    }

    #[test]
    fn nonlinear_is_error() {
        let (_, x, y) = setup();
        let a = Atom::eq(Term::var(x) * Term::var(y), Term::int(1));
        assert!(canon(&a).is_err());
    }

    #[test]
    fn negate_le_roundtrip() {
        let (_, x, _) = setup();
        // x ≤ 4; negation: x ≥ 5 i.e. -x + 5 ≤ 0.
        let a = Atom::new(Term::var(x), Rel::Le, Term::int(4));
        let (p, _) = prim_of(&a);
        let n = negate_le(&p);
        assert_eq!(n.coeffs, vec![(LinKey::Var(x), -1)]);
        assert_eq!(n.constant, 5);
        // Semantics: exactly one of p, n holds for each x.
        for v in -10..10i64 {
            let mut m = BTreeMap::new();
            m.insert(LinKey::Var(x), v);
            assert_ne!(p.eval(&m).unwrap(), n.eval(&m).unwrap());
        }
    }

    #[test]
    fn eq_split_semantics() {
        let (_, x, _) = setup();
        let a = Atom::eq(Term::var(x), Term::int(3));
        let (p, _) = prim_of(&a);
        let (lt, gt) = eq_split(&p);
        for v in -10..10i64 {
            let mut m = BTreeMap::new();
            m.insert(LinKey::Var(x), v);
            let eq_holds = p.eval(&m).unwrap();
            let lt_holds = lt.eval(&m).unwrap();
            let gt_holds = gt.eval(&m).unwrap();
            // Trichotomy.
            assert_eq!(
                [eq_holds, lt_holds, gt_holds]
                    .iter()
                    .filter(|b| **b)
                    .count(),
                1,
                "x = {v}"
            );
        }
    }

    #[test]
    fn views_share_their_parent_row() {
        let (_, x, y) = setup();
        let mut sig = Signature::new();
        let h = sig.declare_func("h", 1);
        let hx = Term::app(h, vec![Term::var(x)]);
        let atoms = [
            Atom::eq(hx.clone() + Term::var(y), Term::int(3)),
            Atom::new(Term::var(y) + hx.clone(), Rel::Ge, Term::int(-2)),
            Atom::new(
                Term::int(-2) * hx.clone(),
                Rel::Lt,
                Term::int(2) * Term::var(y),
            ),
            Atom::new(Term::var(x), Rel::Le, Term::var(y)),
        ];
        let mut b = TableBuilder::new();
        let cons: Vec<Con> = atoms
            .iter()
            .map(|a| match b.atom(a).unwrap() {
                Canon::Con { con, .. } => con,
                other => panic!("expected a primitive, got {other:?}"),
            })
            .collect();
        let (table, keys) = b.finish();
        // The first three atoms are over ±(y + h(x)): one row.
        assert_eq!(table.ends.len(), 2);
        assert!(cons[..3].iter().all(|c| c.row == cons[0].row));
        // Keys rank in `LinKey` order: variables before applications.
        assert_eq!(keys, vec![KeyRef::Var(x), KeyRef::Var(y), KeyRef::App(&hx)]);
        for row in 0..table.ends.len() as u32 {
            assert!(table.row(row).windows(2).all(|w| w[0].0 < w[1].0));
        }
        // Every view materializes to the owned constraint it stands for.
        let eq = materialize(&table, &keys, cons[0]);
        let (lt, gt) = cons[0].eq_split();
        assert_eq!(
            (
                materialize(&table, &keys, lt),
                materialize(&table, &keys, gt)
            ),
            eq_split(&eq)
        );
        for &con in &cons[1..] {
            assert_eq!(
                materialize(&table, &keys, con.negate_le()),
                negate_le(&materialize(&table, &keys, con))
            );
        }
        // y + h(x) ≥ -2 is -h(x) - y - 2 ≤ 0: the row negated.
        assert!(cons[1].negated);
        assert_eq!(cons[1].constant, -2);
    }

    #[test]
    fn nested_and_cancelling_products() {
        let (_, x, y) = setup();
        // 3·(2·(x - y)) + (y - y)·x = 6  ⇔  x - y - 1 = 0.
        let t = Term::int(3) * (Term::int(2) * (Term::var(x) - Term::var(y)))
            + Term::op(OpKind::Mul, vec![Term::var(y) - Term::var(y), Term::var(x)]);
        let (p, _) = prim_of(&Atom::eq(t, Term::int(6)));
        assert_eq!(p.coeffs, vec![(LinKey::Var(x), 1), (LinKey::Var(y), -1)]);
        assert_eq!(p.constant, -1);
        // The error names the offending product.
        let bad = Term::var(x) * Term::var(y);
        let err = canon(&Atom::eq(Term::int(1) + bad.clone(), Term::var(x))).unwrap_err();
        assert_eq!(err.term, bad);
    }

    #[test]
    fn app_keys_preserved() {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let h = sig.declare_func("h", 1);
        let app = Term::app(h, vec![Term::var(x)]);
        let a = Atom::eq(app.clone(), Term::int(567));
        let (p, pos) = prim_of(&a);
        assert!(pos);
        assert_eq!(p.coeffs, vec![(LinKey::App(app), 1)]);
        assert_eq!(p.constant, -567);
    }
}
