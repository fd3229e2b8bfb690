//! Bit-identity pin for the CDCL decision order.
//!
//! The SMT layer's models depend on *which* satisfying assignment the SAT
//! core returns, so the decision order (highest activity first, lowest
//! variable index among equals, negative polarity), conflict analysis and
//! restarts are part of the theory-kernel contract, not just its
//! soundness. A seeded stream of incremental CNF instances is solved the
//! way the SMT refinement loop drives the solver: solve, add a blocking
//! clause over some of the model's literals, solve again, until the
//! instance is exhausted or a step cap is reached. Every verdict and model
//! is folded into one FNV digest, which a change to the decision order
//! moves. One long instance runs enough conflicts to rescale the
//! activities, so the order after a rescale is pinned too.
//!
//! After an *intentional* change to the search, replace [`EXPECTED`] with
//! the digest this test prints.

use hotg_sat::{Lit, SatResult, SatSolver};

/// Digest of the whole stream, recorded before the decision heap landed.
const EXPECTED: u64 = 0xc20f_0177_df9c_d786;

const INSTANCES: usize = 400;

/// SplitMix64: the stream must not depend on another crate's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over the folded lines.
struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[derive(Debug, Default)]
struct Tally {
    sat: u32,
    unsat: u32,
    steps: u32,
}

/// A clause of `min_len..=max_len` random literals.
fn random_clause(rng: &mut SplitMix, n_vars: u32, min_len: u64, max_len: u64) -> Vec<Lit> {
    let len = min_len + rng.below(max_len - min_len + 1);
    (0..len)
        .map(|_| Lit::new(rng.below(u64::from(n_vars)) as u32, rng.below(2) == 0))
        .collect()
}

fn fold_result(h: &mut Fnv, tally: &mut Tally, result: &SatResult) -> Option<Vec<bool>> {
    tally.steps += 1;
    match result {
        SatResult::Sat(model) => {
            tally.sat += 1;
            let bits: Vec<u8> = model.iter().map(|&b| b'0' + u8::from(b)).collect();
            h.fold(&bits);
            Some(model.clone())
        }
        SatResult::Unsat => {
            tally.unsat += 1;
            h.fold(b"unsat");
            None
        }
    }
}

/// The shape of one incremental instance.
struct Shape {
    n_vars: u32,
    n_clauses: u64,
    /// Clause lengths are drawn from `min_len..=max_len`.
    min_len: u64,
    max_len: u64,
    /// Solves after the first one, at most.
    steps: u32,
    /// A blocking clause negates at most this many model literals.
    block: u64,
}

/// One instance: random clauses, then up to `steps` re-solves, each after
/// a blocking clause that negates some literals of the last model (a
/// theory core), and sometimes after a few fresh random clauses too.
fn incremental_case(rng: &mut SplitMix, h: &mut Fnv, tally: &mut Tally, shape: &Shape) {
    let n_vars = shape.n_vars;
    let mut s = SatSolver::new();
    for _ in 0..n_vars {
        s.new_var();
    }
    for _ in 0..shape.n_clauses {
        let c = random_clause(rng, n_vars, shape.min_len, shape.max_len);
        s.add_clause(c);
    }
    for _ in 0..=shape.steps {
        let Some(model) = fold_result(h, tally, &s.solve()) else {
            return;
        };
        let size = 1 + rng.below(shape.block);
        let blocking: Vec<Lit> = (0..size)
            .map(|_| {
                let v = rng.below(u64::from(n_vars)) as u32;
                Lit::new(v, !model[v as usize])
            })
            .collect();
        s.add_clause(blocking);
        if rng.below(4) == 0 {
            for _ in 0..1 + rng.below(3) {
                let c = random_clause(rng, n_vars, 2, 3);
                s.add_clause(c);
            }
        }
    }
}

/// Adds `holes + 1` pigeons in `holes` holes over fresh variables, each
/// clause widened by `guard` when given, solving after each hole's
/// capacity clauses.
fn pigeonhole(s: &mut SatSolver, holes: u32, guard: Option<Lit>, h: &mut Fnv, tally: &mut Tally) {
    let base = s.var_count() as u32;
    for _ in 0..(holes + 1) * holes {
        s.new_var();
    }
    let var = |p: u32, hole: u32| base + p * holes + hole;
    let clause = |lits: Vec<Lit>| lits.into_iter().chain(guard);
    for p in 0..=holes {
        s.add_clause(clause(
            (0..holes).map(|hole| Lit::pos(var(p, hole))).collect(),
        ));
    }
    for hole in 0..holes {
        for p in 0..=holes {
            for q in p + 1..=holes {
                s.add_clause(clause(vec![Lit::neg(var(p, hole)), Lit::neg(var(q, hole))]));
            }
        }
        fold_result(h, tally, &s.solve());
    }
}

/// The long instance: eight pigeons in seven holes is unsatisfiable, and
/// CDCL refutes it only after thousands of conflicts. A first copy is
/// guarded by a selector (so it is refuted only under the selector's
/// negative default polarity), a second copy is not; together they run
/// enough conflicts in one solver to rescale the activities, so the
/// decisions after a rescale are pinned too.
fn pigeonhole_case(h: &mut Fnv, tally: &mut Tally) {
    let mut s = SatSolver::new();
    let selector = Lit::pos(s.new_var());
    pigeonhole(&mut s, 7, Some(selector), h, tally);
    pigeonhole(&mut s, 7, None, h, tally);
}

#[test]
fn decisions_match_recorded_digest() {
    let mut rng = SplitMix(0x6465_6369_7369_6f6e);
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let mut tally = Tally::default();
    for _ in 0..INSTANCES {
        let n_vars = 2 + rng.below(60) as u32;
        let shape = Shape {
            n_vars,
            n_clauses: u64::from(n_vars) * (1 + rng.below(3)),
            min_len: 1 + u64::from(rng.below(8) != 0),
            max_len: 4,
            steps: rng.below(12) as u32,
            block: 1 + rng.below(6),
        };
        incremental_case(&mut rng, &mut h, &mut tally, &shape);
    }
    pigeonhole_case(&mut h, &mut tally);

    assert!(
        tally.sat >= 100 && tally.unsat >= 50,
        "stream no longer exercises both verdicts: {tally:?}"
    );
    let digest = h.0;
    assert_eq!(
        digest, EXPECTED,
        "decision digest moved to {digest:#018x} ({tally:?}): a decision, \
         conflict or restart changed"
    );
}
