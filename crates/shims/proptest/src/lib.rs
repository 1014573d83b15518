//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this vendors the
//! subset of proptest the workspace's property tests use: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map` / `prop_filter` /
//! `boxed`, range and regex-literal strategies, `any::<T>()`,
//! [`collection::vec`] / [`collection::btree_set`], tuple strategies,
//! [`Just`], [`prop_oneof!`], and the `prop_assert*` macros.
//!
//! Differences from real proptest, by design:
//! * Cases are generated from a seed derived deterministically from the
//!   test name and case index, so failures reproduce exactly on re-run.
//! * There is **no shrinking**: a failure reports the complete generated
//!   inputs (they are small by construction in this workspace). The
//!   differential harness in `crates/core/tests/differential.rs` does its
//!   own delta-debugging minimization instead.
//! * Regex strategies support the shapes used here: `atom{m,n}` where
//!   `atom` is `.` or a character class like `[a-zA-Z0-9 ]`.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

// ---------------------------------------------------------------------------
// runner plumbing
// ---------------------------------------------------------------------------

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
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
        ProptestConfig { cases: 256 }
    }
}

/// A failed (or rejected) test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }

    /// Alias of [`TestCaseError::fail`] kept for API compatibility.
    pub fn reject(msg: impl Into<String>) -> Self {
        Self::fail(msg)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// The random source strategies draw from.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic generator for `(test name, case index)`.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(
            h ^ (u64::from(case) << 32) ^ u64::from(case),
        ))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        use rand::Rng;
        self.0.random_range(0..n)
    }
}

/// Drive one property: `config.cases` deterministic cases of
/// generate-then-check. Panics (failing the enclosing `#[test]`) on the
/// first case whose check fails or panics, reporting the generated inputs.
pub fn run_proptest<V, G, F>(name: &str, config: &ProptestConfig, generate: G, check: F)
where
    V: Debug,
    G: Fn(&mut TestRng) -> V,
    F: Fn(V) -> Result<(), TestCaseError> + std::panic::RefUnwindSafe,
{
    for case in 0..config.cases {
        let mut rng = TestRng::for_case(name, case);
        let value = generate(&mut rng);
        let described = format!("{value:?}");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(value)));
        let failure = match outcome {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => e.to_string(),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                format!("panic: {msg}")
            }
        };
        panic!(
            "proptest `{name}` failed at case {case}/{}:\n  inputs: {described}\n  {failure}",
            config.cases
        );
    }
}

// ---------------------------------------------------------------------------
// Strategy and combinators
// ---------------------------------------------------------------------------

/// A recipe for generating random values of `Value`.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Discard generated values failing `pred` (resampling a bounded
    /// number of times before giving up).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Type-erase the strategy (needed by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 consecutive samples: {}",
            self.reason
        )
    }
}

/// Strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among type-erased alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T: Debug> Union<T> {
    /// Build from the alternatives (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

// ---------------------------------------------------------------------------
// primitive strategies: ranges, any, regex literals, tuples
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.0.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.0.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        use rand::Rng;
        rng.0.random_range(self.clone())
    }
}

/// Types with a full-range default strategy (see [`any`]).
pub trait Arbitrary: Debug + Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Mix raw bit patterns (covering subnormals, infinities, NaN —
        // callers filter what they can't accept) with tame magnitudes.
        match rng.below(4) {
            0 => f64::from_bits(rng.next_u64()),
            1 => (rng.next_u64() as f64 / 2f64.powi(64)) * 2e6 - 1e6,
            2 => rng.next_u64() as f64 / 2f64.powi(64),
            _ => (rng.next_u64() % 1000) as f64,
        }
    }
}

/// The default full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// See [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// --- regex-literal strategies ----------------------------------------------

/// The parsed form of a supported pattern: an alphabet repeated `lo..=hi`
/// times.
struct Pattern {
    alphabet: Vec<char>,
    lo: usize,
    hi: usize,
}

/// Characters `.` stands for: printable ASCII plus a few multi-byte
/// scalars so UTF-8 codec paths get exercised. Excludes `\n`, as in real
/// proptest.
fn dot_alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0x20u8..=0x7e).map(char::from).collect();
    chars.extend(['é', 'ß', 'λ', '中', '🦀']);
    chars
}

fn parse_class(body: &str) -> Vec<char> {
    let items: Vec<char> = body.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < items.len() {
        if i + 2 < items.len() && items[i + 1] == '-' {
            let (lo, hi) = (items[i], items[i + 2]);
            assert!(lo <= hi, "bad class range {lo}-{hi}");
            out.extend((lo..=hi).filter(|c| *c != '\n'));
            i += 3;
        } else {
            out.push(items[i]);
            i += 1;
        }
    }
    assert!(!out.is_empty(), "empty character class [{body}]");
    out
}

fn parse_pattern(pattern: &str) -> Pattern {
    let (atom, rest) = if let Some(rest) = pattern.strip_prefix('.') {
        (dot_alphabet(), rest)
    } else if let Some(after) = pattern.strip_prefix('[') {
        let close = after
            .find(']')
            .unwrap_or_else(|| panic!("unclosed character class in pattern {pattern:?}"));
        (parse_class(&after[..close]), &after[close + 1..])
    } else {
        // No regex atom: treat the whole pattern as a literal string.
        return Pattern {
            alphabet: Vec::new(),
            lo: 0,
            hi: 0,
        };
    };
    let body = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unsupported pattern {pattern:?}: expected atom{{m,n}}"));
    let (lo, hi) = body
        .split_once(',')
        .unwrap_or_else(|| panic!("unsupported repetition in {pattern:?}"));
    Pattern {
        alphabet: atom,
        lo: lo.trim().parse().expect("repetition lower bound"),
        hi: hi.trim().parse().expect("repetition upper bound"),
    }
}

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let p = parse_pattern(self);
        if p.alphabet.is_empty() {
            return (*self).to_string();
        }
        let len = p.lo + rng.below(p.hi - p.lo + 1);
        (0..len)
            .map(|_| p.alphabet[rng.below(p.alphabet.len())])
            .collect()
    }
}

// --- tuples ----------------------------------------------------------------

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

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

// ---------------------------------------------------------------------------
// collections
// ---------------------------------------------------------------------------

/// Collection-size specification (`n`, `a..b`, or `a..=b`).
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        let (lo, hi) = r.into_inner();
        assert!(lo <= hi, "empty size range");
        SizeRange { lo, hi }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below(self.hi - self.lo + 1)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// `Vec`s of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet`s with a target size drawn from `size` (duplicates may
    /// make the result smaller, as in real proptest).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord + Debug,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord + Debug,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < target && attempts < 10 * target + 20 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

// keep the name available at the root too (real proptest exposes both)
pub use collection::vec as prop_vec;

// ---------------------------------------------------------------------------
// macros
// ---------------------------------------------------------------------------

/// Define `#[test]` functions that run a property over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_proptest(
                stringify!($name),
                &config,
                |rng| { ($($crate::Strategy::generate(&($strat), rng),)+) },
                |($($arg,)+)| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                },
            );
        }
    )*};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}: {:?} != {:?}",
            format!($($fmt)+),
            l,
            r
        );
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };

    /// Namespace matching `proptest::prelude::prop::*`.
    pub mod prop {
        pub use crate::collection;
    }
}

// Silence the unused-import lint for the BTreeSet import above (used in
// the collection module through the re-export path).
#[allow(unused_imports)]
use BTreeSet as _BTreeSetUsed;

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn patterns_generate_within_spec() {
        let mut rng = crate::TestRng::for_case("patterns", 0);
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"[a-c ]{0,10}", &mut rng);
            assert!(s.chars().count() <= 10);
            assert!(s.chars().all(|c| matches!(c, 'a'..='c' | ' ')));
            let t = crate::Strategy::generate(&".{1,5}", &mut rng);
            let n = t.chars().count();
            assert!((1..=5).contains(&n), "len {n}: {t:?}");
            assert!(!t.contains('\n'));
        }
    }

    #[test]
    fn determinism_across_runs() {
        let a = crate::Strategy::generate(
            &crate::collection::vec(0u32..100, 5..10),
            &mut crate::TestRng::for_case("det", 3),
        );
        let b = crate::Strategy::generate(
            &crate::collection::vec(0u32..100, 5..10),
            &mut crate::TestRng::for_case("det", 3),
        );
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_generates_and_checks(
            v in prop::collection::vec(any::<u32>(), 0..8),
            x in 1usize..10,
            f in prop_oneof![Just(0.5f64), Just(1.0)],
        ) {
            prop_assert!(v.len() < 8);
            prop_assert!(x >= 1 && x < 10);
            prop_assert_eq!(f, f, "f compares to itself");
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(s in "[a-b]{2,4}") {
            prop_assert!((2..=4).contains(&s.len()));
        }
    }
}
