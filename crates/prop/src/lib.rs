//! Hermetic in-repo property-testing mini-framework.
//!
//! The build environment for this workspace is fully offline, so the test
//! suites cannot depend on the external `proptest` crate. This crate
//! implements the (small) subset of the proptest API the workspace actually
//! uses, with the same surface syntax:
//!
//! - [`Strategy`] with `prop_map`, `prop_recursive`, and `boxed`
//! - [`BoxedStrategy`], [`Just`], integer-range strategies, tuple strategies
//! - [`collection::vec`] and [`bool::ANY`]
//! - the [`proptest!`], [`prop_oneof!`], [`prop_assert!`], and
//!   [`prop_assert_eq!`] macros
//! - [`ProptestConfig`] / [`TestCaseError`]
//!
//! Semantics differ from real proptest in two deliberate ways: there is no
//! shrinking (a failing case reports its RNG seed and case index instead,
//! which is enough to reproduce deterministically), and `prop_assert!`
//! panics rather than returning `Err` (test bodies that `?`-propagate a
//! `Result<(), TestCaseError>` still compile and behave identically,
//! because a panic fails the test case just as an `Err` would).

use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 generator used to drive all strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
    /// Remaining node budget for recursive strategies; refilled at the top
    /// of every `prop_recursive` draw so generated trees stay near the
    /// strategy's `desired_size` instead of growing geometrically.
    budget: u32,
}

impl TestRng {
    /// Builds a generator from an explicit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        TestRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            budget: 0,
        }
    }

    /// Refills the recursion budget (called at the top of a recursive draw).
    pub fn set_budget(&mut self, budget: u32) {
        self.budget = budget;
    }

    /// Decides whether a recursive strategy may take its recursive arm:
    /// requires remaining budget and a 3-in-4 coin, consuming one unit of
    /// budget on success.
    pub fn take_budget(&mut self) -> bool {
        if self.budget == 0 || self.next_u64() & 3 == 0 {
            return false;
        }
        self.budget -= 1;
        true
    }

    /// Derives the per-test seed from the test name (FNV-1a) so every
    /// property test is deterministic but decorrelated from its siblings.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self::seed_from_u64(h)
    }

    /// Next raw 64 bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform value in the inclusive span `[lo, hi]`.
    pub fn in_span(&mut self, lo: i128, hi: i128) -> i128 {
        assert!(lo <= hi, "empty span");
        let width = (hi - lo + 1) as u128;
        lo + ((self.next_u64() as u128) % width) as i128
    }
}

// ---------------------------------------------------------------------------
// Errors and configuration
// ---------------------------------------------------------------------------

/// Failure value for property-test bodies that return `Result`.
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failed test case with the given explanation.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Per-test configuration; only the case count is meaningful here.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy behind a cloneable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy {
            gen: Rc::new(move |rng| self.generate(rng)),
        }
    }

    /// Builds a recursive strategy: `self` is the leaf case, and `f` maps a
    /// strategy for depth-`d` values to one for depth-`d+1` values. As in
    /// proptest, `desired_size` bounds the expected total number of
    /// recursive nodes per draw; `_expected_branch` is accepted for API
    /// compatibility and ignored.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let base = self.boxed();
        let mut current = base.clone();
        for _ in 0..depth {
            let leaf = base.clone();
            let deeper = f(current).boxed();
            current = BoxedStrategy {
                gen: Rc::new(move |rng: &mut TestRng| {
                    if rng.take_budget() {
                        deeper.generate(rng)
                    } else {
                        leaf.generate(rng)
                    }
                }),
            };
        }
        let inner = current;
        BoxedStrategy {
            gen: Rc::new(move |rng: &mut TestRng| {
                rng.set_budget(desired_size);
                inner.generate(rng)
            }),
        }
    }
}

/// Type-erased, cheaply cloneable strategy handle.
pub struct BoxedStrategy<T> {
    #[allow(clippy::type_complexity)]
    gen: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            gen: Rc::clone(&self.gen),
        }
    }
}

impl<T> fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.gen)(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Weighted choice between type-erased alternatives (output of
/// [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds a union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one non-zero weight");
        Union { arms, total }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights sum checked in Union::new")
    }
}

// Integer ranges as strategies.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rng.in_span(self.start as i128, self.end as i128 - 1) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                rng.in_span(*self.start() as i128, *self.end() as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

// Tuple strategies up to arity 6.
macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`fn@vec`]: an exact length or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`fn@vec`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.in_span(self.size.lo as i128, self.size.hi as i128) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniform boolean strategy (mirror of `proptest::bool::ANY`).
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (@impl ($config:expr)
        $($(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::for_test(stringify!($name));
                $crate::proptest!(@run config rng [$(($arg, $strat))*] $body);
            }
        )*
    };
    (@run $config:ident $rng:ident [$(($arg:ident, $strat:expr))*] $body:block) => {
        $(let $arg = ($strat);)*
        for __case in 0..$config.cases {
            $(let $arg = $crate::Strategy::generate(&$arg, &mut $rng);)*
            let __result: ::std::result::Result<(), $crate::TestCaseError> =
                (|| { $body Ok(()) })();
            if let Err(e) = __result {
                panic!("property failed at case {}: {}", __case, e);
            }
        }
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            panic!("prop_assert!({}) failed", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            panic!("prop_assert!({}) failed: {}", stringify!($cond), format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            panic!(
                "prop_assert_eq! failed: `{:?}` != `{:?}`",
                l, r
            );
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            panic!(
                "prop_assert_eq! failed: `{:?}` != `{:?}`: {}",
                l, r, format!($($fmt)+)
            );
        }
    }};
}

/// Weighted (`w => strat`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $( ($weight as u32, $crate::Strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $( (1u32, $crate::Strategy::boxed($strat)) ),+
        ])
    };
}

/// Everything a property-test file needs, mirror of `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just, ProptestConfig,
        Strategy, TestCaseError, TestRng, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        let s = (0i64..10, -5i64..=5);
        for _ in 0..200 {
            let (a, b) = s.generate(&mut rng);
            assert!((0..10).contains(&a));
            assert!((-5..=5).contains(&b));
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let mut rng = TestRng::seed_from_u64(2);
        let s = prop_oneof![Just(1i64), (10i64..=20).prop_map(|x| x * 2)];
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v == 1 || (20..=40).contains(&v));
        }
    }

    #[test]
    fn vec_respects_size_range() {
        let mut rng = TestRng::seed_from_u64(3);
        let s = collection::vec(-3i64..=3, 1..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..=4).contains(&v.len()));
        }
        let exact = collection::vec(0i64..=0, 3);
        assert_eq!(exact.generate(&mut rng).len(), 3);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf(i64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(v) => {
                    assert!((0..100).contains(v));
                    1
                }
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let leaf = (0i64..100).prop_map(Tree::Leaf);
        let s = leaf.prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = TestRng::seed_from_u64(4);
        let mut saw_node = false;
        for _ in 0..100 {
            let t = s.generate(&mut rng);
            assert!(depth(&t) <= 5);
            if matches!(t, Tree::Node(..)) {
                saw_node = true;
            }
        }
        assert!(saw_node);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The proptest! macro itself: bodies run, `?` and prop_assert work.
        #[test]
        fn macro_smoke(a in -50i64..=50, v in collection::vec(0i64..10, 0..4)) {
            prop_assert!((-50..=50).contains(&a));
            prop_assert_eq!(v.len(), v.len());
            let ok: Result<(), TestCaseError> = Ok(());
            ok?;
            if a > i64::MAX - 1 {
                return Err(TestCaseError::fail("unreachable"));
            }
        }
    }
}
