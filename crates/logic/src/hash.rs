//! Structural hashing and cache normalization of formulas.
//!
//! The solver's query cache (`hotg-solver`) keys memoized results on a
//! *normalized* formula: associative connectives are flattened, duplicate
//! operands removed (keeping first occurrence), and boolean units folded.
//! Two path constraints that differ only in nesting or operand
//! duplication — the common case when the driver re-assembles `ALT(pc)`
//! prefixes across generations — then share one cache slot.
//!
//! Operand *order* is deliberately preserved: the solver's model search is
//! order-sensitive (it branches on atoms in occurrence order), so sorting
//! operands would change which model — and hence which synthesized
//! strategy — a query produces. The driver assembles prefixes in
//! deterministic trace order, so identical queries recur with identical
//! operand order and still hit the cache.
//!
//! Normalization is a logical equivalence over the *same* atoms: it never
//! renames variables or rewrites atoms, so a model of the normalized
//! formula is a model of the original (and vice versa), which is what
//! lets the cache return memoized [`Model`](crate::Model)s directly.

use crate::formula::Formula;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A fixed-key 64-bit FNV-1a [`Hasher`].
///
/// `std`'s `DefaultHasher` documents its keys as unspecified and free to
/// change between Rust releases, so fingerprints derived from it are not
/// stable enough for persisted traces or cross-toolchain comparison. This
/// hasher has no keys at all: the same byte stream hashes to the same
/// value on every toolchain and platform (multi-byte writes are folded in
/// little-endian order, and `usize`/`isize` writes are widened to 64 bits
/// so the stream is width-independent).
///
/// It is *not* collision-resistant against adversarial inputs; every use
/// in this workspace pairs the fingerprint with full payload equality, so
/// a collision can only cost a cache-shard imbalance, never a wrong
/// answer.
#[derive(Clone, Debug)]
pub struct StableHasher(u64);

impl StableHasher {
    /// A hasher starting from the FNV-1a offset basis.
    pub fn new() -> StableHasher {
        StableHasher(FNV_OFFSET)
    }

    /// FNV-1a of one byte string: the digest of a hasher fed `data`.
    pub fn digest(data: &[u8]) -> u64 {
        let mut h = StableHasher::new();
        h.write(data);
        h.finish()
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// Multiplier of [`FastHasher`] (the one rustc's `FxHasher` uses).
const FAST_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, unkeyed word-at-a-time [`Hasher`] for in-memory lookup
/// tables that live for one call (the solver's per-query theory table,
/// app-collection seen-sets). It folds each word with a rotate, xor and
/// multiply instead of SipHash's rounds. Like [`StableHasher`] it is not
/// collision-resistant; every table that uses it compares full keys on a
/// hash match, and none is iterated, so the hash never shows in a result.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FAST_SEED);
    }
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

impl Formula {
    /// A deterministic 64-bit structural hash of the formula.
    ///
    /// Stable across threads, processes, and toolchains (it uses the
    /// fixed-key [`StableHasher`], not `DefaultHasher`, whose keys are
    /// unspecified across Rust releases), so fingerprints can be used in
    /// cache keys and on-disk artifacts.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Cache normal form: flattens nested `And`/`Or`, folds boolean
    /// units and dominators, and removes duplicate operands (keeping the
    /// first occurrence, so operand order — which the solver's model
    /// search is sensitive to — is preserved).
    ///
    /// The result is logically equivalent to `self` and built from the
    /// same atoms, so it is sound to decide the normalized formula in
    /// place of the original — and to reuse the resulting model.
    pub fn normalize(&self) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => self.clone(),
            Formula::Not(inner) => match inner.normalize() {
                Formula::True => Formula::False,
                Formula::False => Formula::True,
                Formula::Not(f) => *f,
                f => Formula::Not(Box::new(f)),
            },
            Formula::And(parts) => normalize_nary(parts, true),
            Formula::Or(parts) => normalize_nary(parts, false),
        }
    }
}

/// Shared normalization of `And` (`conj = true`) and `Or` (`conj = false`):
/// the two differ only in their unit (`True` vs `False`), dominator, and
/// rebuilt constructor.
fn normalize_nary(parts: &[Formula], conj: bool) -> Formula {
    let (unit, dominator) = if conj {
        (Formula::True, Formula::False)
    } else {
        (Formula::False, Formula::True)
    };
    let mut flat: Vec<Formula> = Vec::with_capacity(parts.len());
    for p in parts {
        let n = p.normalize();
        if n == dominator {
            return dominator;
        }
        if n == unit {
            continue;
        }
        match n {
            Formula::And(inner) if conj => flat.extend(inner),
            Formula::Or(inner) if !conj => flat.extend(inner),
            other => flat.push(other),
        }
    }
    // Stable dedup: fingerprints pre-filter, equality decides.
    let mut seen: Vec<(u64, usize)> = Vec::with_capacity(flat.len());
    let mut out: Vec<Formula> = Vec::with_capacity(flat.len());
    for f in flat {
        let fp = f.fingerprint();
        if seen.iter().any(|&(sfp, idx)| sfp == fp && out[idx] == f) {
            continue;
        }
        seen.push((fp, out.len()));
        out.push(f);
    }
    match out.len() {
        0 => unit,
        1 => out.pop().expect("len checked"),
        _ if conj => Formula::And(out),
        _ => Formula::Or(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Rel};
    use crate::model::Model;
    use crate::sort::{Sort, Value};
    use crate::sym::Signature;
    use crate::term::Term;

    fn setup() -> (Signature, crate::sym::Var, crate::sym::Var) {
        let mut sig = Signature::new();
        let x = sig.declare_var("x", Sort::Int);
        let y = sig.declare_var("y", Sort::Int);
        (sig, x, y)
    }

    fn gt0(v: crate::sym::Var) -> Formula {
        Formula::atom(Atom::new(Term::var(v), Rel::Gt, Term::int(0)))
    }

    #[test]
    fn stable_hasher_matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64-bit test vectors: the empty string hashes to
        // the offset basis, "a" to 0xaf63dc4c8601ec8c. Pinning them here
        // guarantees the fingerprint function never silently changes with
        // a toolchain upgrade (the bug this hasher replaces).
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Width-independence: usize writes fold as 64-bit little-endian.
        let mut a = StableHasher::new();
        a.write_usize(7);
        let mut b = StableHasher::new();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fingerprint_is_structural() {
        let (_, x, y) = setup();
        assert_eq!(gt0(x).fingerprint(), gt0(x).fingerprint());
        assert_ne!(gt0(x).fingerprint(), gt0(y).fingerprint());
    }

    #[test]
    fn normalize_preserves_operand_order() {
        let (_, x, y) = setup();
        let a = gt0(x).and(gt0(y));
        let b = gt0(y).and(gt0(x));
        assert_eq!(a.normalize(), a.normalize());
        assert_ne!(
            a.normalize(),
            b.normalize(),
            "order is significant: the solver's model search branches in \
             occurrence order"
        );
        // Nesting-insensitive: the same conjuncts in the same order share
        // one normal form regardless of how the And tree was built.
        let nested = Formula::And(vec![Formula::And(vec![gt0(x)]), gt0(y)]);
        assert_eq!(nested.normalize(), a.normalize());
        assert_eq!(
            nested.normalize().fingerprint(),
            a.normalize().fingerprint()
        );
    }

    #[test]
    fn normalize_flattens_and_dedups() {
        let (_, x, y) = setup();
        let nested = Formula::And(vec![
            Formula::And(vec![gt0(x), gt0(y)]),
            gt0(x),
            Formula::True,
        ]);
        let n = nested.normalize();
        match &n {
            Formula::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        assert_eq!(n, gt0(x).and(gt0(y)).normalize());
    }

    #[test]
    fn normalize_folds_units_and_dominators() {
        let (_, x, _) = setup();
        assert_eq!(Formula::And(vec![]).normalize(), Formula::True);
        assert_eq!(Formula::Or(vec![]).normalize(), Formula::False);
        assert_eq!(
            Formula::And(vec![gt0(x), Formula::False]).normalize(),
            Formula::False
        );
        assert_eq!(
            Formula::Or(vec![gt0(x), Formula::True]).normalize(),
            Formula::True
        );
        assert_eq!(Formula::And(vec![gt0(x)]).normalize(), gt0(x));
        assert_eq!(
            Formula::Not(Box::new(Formula::Not(Box::new(gt0(x))))).normalize(),
            gt0(x)
        );
    }

    #[test]
    fn normalize_preserves_semantics() {
        let (_, x, y) = setup();
        let f = Formula::Or(vec![
            gt0(x).and(gt0(y)),
            Formula::Not(Box::new(gt0(x))),
            gt0(y).and(gt0(x)),
        ]);
        let n = f.normalize();
        for (xv, yv) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
            let mut m = Model::new();
            m.set_var(x, Value::Int(xv));
            m.set_var(y, Value::Int(yv));
            assert_eq!(f.eval(&m), n.eval(&m), "x={xv} y={yv}");
        }
    }
}
