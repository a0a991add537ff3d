//! A minimal, deterministic subset of the `proptest` API.
//!
//! The workspace builds hermetically, so the property-testing surface the
//! test suites use — `proptest!`, `prop_assert*`, `any::<T>()`, integer-range
//! strategies, `prop::collection::vec`, `prop::sample::select`, and tuple
//! composition — is provided in-tree.
//!
//! Differences from upstream worth knowing:
//!
//! - Cases are generated from a fixed per-test seed (deterministic across
//!   runs); set `PROPTEST_CASES` to change the case count (default 64).
//! - There is no shrinking. A failing case reports its inputs via the
//!   panic message and its case index, which is stable, so failures are
//!   reproducible as-is.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        /// Produces one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    ((self.start as i128) + (v as i128)) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    let span = (hi as i128).wrapping_sub(lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    ((lo as i128) + (v as i128)) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
    }

    /// Types with a canonical "generate anything" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy wrapper produced by [`crate::any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<fn() -> T>,
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any { _marker: std::marker::PhantomData }
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Generates any value of `T` (mirrors `proptest::arbitrary::any`).
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any::default()
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for a `Vec` whose length is drawn from `len` and whose
    /// elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Builds a [`VecStrategy`] (mirrors `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy choosing uniformly from a fixed set of values.
    pub struct Select<T> {
        choices: Vec<T>,
    }

    /// Builds a [`Select`] (mirrors `proptest::sample::select`).
    pub fn select<T: Clone>(choices: Vec<T>) -> Select<T> {
        assert!(!choices.is_empty(), "cannot select from an empty set");
        Select { choices }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = (rng.next_u64() as usize) % self.choices.len();
            self.choices[idx].clone()
        }
    }
}

pub mod test_runner {
    /// Deterministic per-test random source (SplitMix64).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Stream for one numbered case of one named test.
        pub fn for_case(test_seed: u64, case: u64) -> Self {
            TestRng { state: test_seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F) }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// A failed property check (carries the formatted assertion message).
    #[derive(Debug)]
    pub struct TestCaseError {
        pub message: String,
    }

    impl TestCaseError {
        pub fn fail(message: String) -> Self {
            TestCaseError { message }
        }
    }

    /// Drives the case loop for one `proptest!` property.
    pub struct TestRunner {
        cases: u64,
        seed: u64,
    }

    impl Default for TestRunner {
        fn default() -> Self {
            let cases =
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
            TestRunner { cases, seed: 0 }
        }
    }

    impl TestRunner {
        /// Deterministic seed derived from the test name.
        pub fn for_test(name: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x1000_0000_01b3);
            }
            TestRunner { seed, ..TestRunner::default() }
        }

        pub fn cases(&self) -> u64 {
            self.cases
        }

        pub fn rng_for(&self, case: u64) -> TestRng {
            TestRng::for_case(self.seed, case)
        }
    }

    /// Runs one property body, surfacing `prop_assert!` failures as `Err`.
    ///
    /// Exists so the `proptest!` expansion calls a named function instead of
    /// an immediately-invoked closure.
    pub fn run_case<F>(body: F) -> Result<(), TestCaseError>
    where
        F: FnOnce() -> Result<(), TestCaseError>,
    {
        body()
    }
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Mirrors upstream's `prop` facade module (`prop::collection::vec`,
    /// `prop::sample::select`).
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// Defines property tests. Each `fn name(inputs) { body }` becomes a
/// function that runs the body over many generated inputs. As upstream,
/// the caller writes `#[test]` on each one; the macro adds none, so a
/// property is registered once.
///
/// Parameters take either form upstream allows:
/// `x in strategy_expr` or `x: Type` (shorthand for `any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::__proptest_run!(@accum [] $name $body $($params)*);
            }
        )*
    };
}

/// Internal tt-muncher: parses the parameter list into `[name, strategy]`
/// pairs, then emits the case loop.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_run {
    // `x in strategy,` — trailing params follow.
    (@accum [$($acc:tt)*] $name:ident $body:block $p:ident in $s:expr, $($rest:tt)*) => {
        $crate::__proptest_run!(@accum [$($acc)* [$p, $s]] $name $body $($rest)*)
    };
    // `x in strategy` — final param.
    (@accum [$($acc:tt)*] $name:ident $body:block $p:ident in $s:expr) => {
        $crate::__proptest_run!(@emit [$($acc)* [$p, $s]] $name $body)
    };
    // `x: Type,` — trailing params follow.
    (@accum [$($acc:tt)*] $name:ident $body:block $p:ident: $ty:ty, $($rest:tt)*) => {
        $crate::__proptest_run!(@accum [$($acc)* [$p, $crate::any::<$ty>()]] $name $body $($rest)*)
    };
    // `x: Type` — final param.
    (@accum [$($acc:tt)*] $name:ident $body:block $p:ident: $ty:ty) => {
        $crate::__proptest_run!(@emit [$($acc)* [$p, $crate::any::<$ty>()]] $name $body)
    };
    // Empty parameter list.
    (@accum [$($acc:tt)*] $name:ident $body:block) => {
        $crate::__proptest_run!(@emit [$($acc)*] $name $body)
    };
    (@emit [$([$p:ident, $s:expr])*] $name:ident $body:block) => {{
        use $crate::strategy::Strategy as _;
        let runner = $crate::test_runner::TestRunner::for_test(stringify!($name));
        for case in 0..runner.cases() {
            let mut rng = runner.rng_for(case);
            $(let $p = ($s).generate(&mut rng);)*
            #[allow(unreachable_code)]
            let result = $crate::test_runner::run_case(|| {
                $body
                Ok(())
            });
            if let Err(e) = result {
                panic!(
                    "proptest {} failed at case {}: {}",
                    stringify!($name),
                    case,
                    e.message
                );
            }
        }
    }};
}

/// Asserts a condition inside a `proptest!` body, failing the case (not the
/// whole process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}",
                a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a != b) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(a != b) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in 0i32..5) {
            prop_assert!((10..20).contains(&x), "x out of range: {x}");
            prop_assert!((0..5).contains(&y));
        }

        #[test]
        fn bare_type_params_work(v: u64, flag: bool) {
            let _ = flag;
            prop_assert_eq!(v, v);
        }

        #[test]
        fn vec_strategy_respects_len(
            items in prop::collection::vec((0u64..512, 0u64..4096), 1..40),
        ) {
            prop_assert!(!items.is_empty() && items.len() < 40);
            for (a, b) in items {
                prop_assert!(a < 512 && b < 4096);
            }
        }

        #[test]
        fn select_picks_from_choices(v in prop::sample::select(vec![1u8, 3, 5])) {
            prop_assert_ne!(v, 0);
            prop_assert!(v == 1 || v == 3 || v == 5);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let runner = crate::test_runner::TestRunner::for_test("some_test");
        let a: Vec<u64> = (0..10).map(|c| (0u64..1000).generate(&mut runner.rng_for(c))).collect();
        let b: Vec<u64> = (0..10).map(|c| (0u64..1000).generate(&mut runner.rng_for(c))).collect();
        assert_eq!(a, b);
    }

    // Properties without `#[test]`: plain functions, run by the tests below.
    static PASSING_CASES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    proptest! {
        fn counts_its_cases(_x in 0u8..10) {
            PASSING_CASES.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }

        fn fails_above_four(x in 5u64..100) {
            prop_assert!(x < 5, "x = {x}");
        }

        fn eq_fails(x in 1u64..2) {
            prop_assert_eq!(x, 2);
        }

        fn ne_fails(x in 7u64..8) {
            prop_assert_ne!(x, 7);
        }
    }

    fn panic_text(property: fn()) -> String {
        let payload = std::panic::catch_unwind(property).expect_err("the property must fail");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

    #[test]
    fn a_passing_property_runs_every_case() {
        counts_its_cases();
        let cases = crate::test_runner::TestRunner::for_test("counts_its_cases").cases();
        assert!(cases > 0);
        assert_eq!(PASSING_CASES.load(std::sync::atomic::Ordering::SeqCst), cases);
    }

    #[test]
    fn a_failing_property_panics_naming_itself_its_case_and_message() {
        let text = panic_text(fails_above_four);
        assert!(text.starts_with("proptest fails_above_four failed at case 0: x = "), "{text}");
        let x: u64 = text.rsplit("x = ").next().unwrap().parse().expect("the input is reported");
        assert!(x >= 5, "{text}");
    }

    #[test]
    fn prop_assert_eq_failure_shows_both_sides() {
        let text = panic_text(eq_fails);
        assert!(text.ends_with("failed at case 0: assertion failed: 1 == 2"), "{text}");
    }

    #[test]
    fn prop_assert_ne_failure_shows_both_sides() {
        let text = panic_text(ne_fails);
        assert!(text.ends_with("failed at case 0: assertion failed: 7 != 7"), "{text}");
    }

    #[test]
    fn inclusive_ranges_reach_both_ends() {
        use crate::strategy::Strategy;
        let runner = crate::test_runner::TestRunner::for_test("inclusive");
        let seen: Vec<u8> = (0..200).map(|c| (0u8..=3).generate(&mut runner.rng_for(c))).collect();
        assert!(seen.iter().all(|v| *v <= 3));
        assert!(seen.contains(&0) && seen.contains(&3), "{seen:?}");
    }

    #[test]
    fn full_width_and_signed_ranges_stay_in_bounds() {
        use crate::strategy::Strategy;
        let runner = crate::test_runner::TestRunner::for_test("signed");
        let mut negative = false;
        for c in 0..200 {
            let rng = &mut runner.rng_for(c);
            let v = (-5i32..5).generate(rng);
            assert!((-5..5).contains(&v), "{v}");
            negative |= v < 0;
            let _ = (i64::MIN..=i64::MAX).generate(rng);
            let _ = (0u64..=u64::MAX).generate(rng);
            let w = (i8::MIN..i8::MAX).generate(rng);
            assert!(w < i8::MAX, "{w}");
        }
        assert!(negative, "a range across zero yields negatives");
    }

    #[test]
    fn tuples_compose_their_strategies() {
        use crate::strategy::Strategy;
        let runner = crate::test_runner::TestRunner::for_test("tuples");
        for c in 0..50 {
            let (a, b, flag, d) =
                (0u8..4, 100u32..=101, any::<bool>(), prop::sample::select(vec!['x']))
                    .generate(&mut runner.rng_for(c));
            assert!(a < 4 && (100..=101).contains(&b) && d == 'x', "{a} {b} {flag} {d}");
        }
    }

    #[test]
    fn any_reaches_both_bools_and_the_top_half_of_narrow_ints() {
        use crate::strategy::Strategy;
        let runner = crate::test_runner::TestRunner::for_test("any");
        let bools: Vec<bool> =
            (0..64).map(|c| any::<bool>().generate(&mut runner.rng_for(c))).collect();
        assert!(bools.contains(&true) && bools.contains(&false));
        let bytes: Vec<i8> =
            (0..64).map(|c| any::<i8>().generate(&mut runner.rng_for(c))).collect();
        assert!(bytes.iter().any(|b| *b < 0) && bytes.iter().any(|b| *b > 0), "{bytes:?}");
    }

    #[test]
    fn streams_differ_by_test_name_and_by_case() {
        use crate::strategy::Strategy;
        let draw = |name: &str, case| {
            let runner = crate::test_runner::TestRunner::for_test(name);
            any::<u64>().generate(&mut runner.rng_for(case))
        };
        assert_ne!(draw("a", 0), draw("b", 0), "two properties get different inputs");
        assert_ne!(draw("a", 0), draw("a", 1), "two cases get different inputs");
    }

    #[test]
    fn select_reaches_every_choice_and_vec_honours_an_empty_length() {
        use crate::strategy::Strategy;
        let runner = crate::test_runner::TestRunner::for_test("select");
        let picks: Vec<u8> = (0..100)
            .map(|c| prop::sample::select(vec![1u8, 2, 3]).generate(&mut runner.rng_for(c)))
            .collect();
        for choice in [1, 2, 3] {
            assert!(picks.contains(&choice), "{choice} never picked: {picks:?}");
        }
        let empty = prop::collection::vec(any::<u8>(), 0..1).generate(&mut runner.rng_for(0));
        assert!(empty.is_empty());
    }
}
