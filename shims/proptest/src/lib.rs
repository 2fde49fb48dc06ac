//! Offline stand-in for the `proptest` crate.
//!
//! Implements the slice of the proptest API this workspace uses — the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_flat_map`,
//! range and tuple strategies, [`collection::vec()`], the
//! [`proptest!`]/[`prop_assert!`] family, `ProptestConfig`
//! ([`test_runner::Config`]) and [`TestCaseError`](test_runner::TestCaseError) — as a deterministic
//! random-case runner. There is no shrinking: a failing case reports its
//! case index and message, and the seed is a stable function of the test
//! name, so failures reproduce exactly across runs and machines.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of test values.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generate a value, then generate from a strategy derived from
        /// it (dependent generation).
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty => $draw:ident),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    rng.$draw(self.start, self.end)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    if *self.end() < <$t>::MAX {
                        rng.$draw(*self.start(), *self.end() + 1)
                    } else {
                        rng.$draw(*self.start(), <$t>::MAX)
                    }
                }
            }
        )*};
    }

    int_range_strategy!(usize => usize_in, u64 => u64_in, u32 => u32_in, i64 => i64_in, i32 => i32_in);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let v = self.start + (self.end - self.start) * rng.unit_f64();
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start() + (self.end() - self.start()) * rng.unit_f64()
        }
    }

    impl Strategy for core::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            let v = self.start + (self.end - self.start) * rng.unit_f64() as f32;
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    macro_rules! tuple_strategy {
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

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Admissible element counts for [`vec()`]: an exact count or a
    /// half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Deterministic generator driving all strategies; xoshiro256**-class
    /// quality is unnecessary here, SplitMix64 suffices for test-case
    /// generation.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeded construction (seeds derive from the test name).
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        fn below(&mut self, span: u64) -> u64 {
            if span == 0 {
                return self.next_u64();
            }
            let threshold = span.wrapping_neg() % span;
            loop {
                let m = (self.next_u64() as u128) * (span as u128);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }

        /// Uniform `usize` in `[lo, hi)`.
        pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
            lo + self.below((hi - lo) as u64) as usize
        }

        /// Uniform `u64` in `[lo, hi)`.
        pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.below(hi - lo)
        }

        /// Uniform `u32` in `[lo, hi)`.
        pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
            lo + self.below((hi - lo) as u64) as u32
        }

        /// Uniform `i64` in `[lo, hi)`.
        pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
            (lo as i128 + self.below((hi as i128 - lo as i128) as u64) as i128) as i64
        }

        /// Uniform `i32` in `[lo, hi)`.
        pub fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
            (lo as i64 + self.below((hi - lo) as u64) as i64) as i32
        }
    }

    /// A failed (or rejected) property case.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The property did not hold; the payload is the failure message.
        Fail(String),
        /// The case was rejected as invalid input.
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection with the given message.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "property failed: {m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
        }
    }

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Maximum shrink iterations — accepted for source compatibility;
        /// this runner does not shrink.
        pub max_shrink_iters: u32,
        /// Extra seed mixed into the per-test seed (0 = name-only).
        pub seed_offset: u64,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_shrink_iters: 0,
                seed_offset: 0,
            }
        }
    }

    /// Stable 64-bit FNV-1a hash of the test name, for seeding.
    pub fn seed_from_name(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        h
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Define property tests. Mirrors `proptest::proptest!`: an optional
/// inner `#![proptest_config(..)]` attribute followed by `#[test]`
/// functions whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
     $($(#[$meta:meta])+
       fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let seed = $crate::test_runner::seed_from_name(stringify!($name))
                    ^ config.seed_offset;
                let mut rng = $crate::test_runner::TestRng::new(seed);
                for case in 0..config.cases {
                    let ($($pat,)+) = (
                        $($crate::strategy::Strategy::generate(&($strat), &mut rng),)+
                    );
                    let outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::std::result::Result::Err(e) => {
                            panic!(
                                "{} failed at case {}/{} (seed {:#x}): {}",
                                stringify!($name), case, config.cases, seed, e
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::Config::default()) $($rest)*
        );
    };
}

/// Assert inside a property, failing the case (not the process) on
/// violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: {} == {}",
            stringify!($left),
            stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: {} != {}",
            stringify!($left),
            stringify!($right)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_in_bounds(x in 3usize..17, y in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn flat_map_dependent_shapes(
            (n, v) in (1usize..10).prop_flat_map(|n| {
                (Just(n), collection::vec(0.0f64..1.0, n))
            })
        ) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn question_mark_works(x in 0usize..5) {
            fn inner(x: usize) -> Result<(), TestCaseError> {
                prop_assert!(x < 5);
                Ok(())
            }
            inner(x)?;
        }
    }

    #[test]
    fn seeds_are_stable() {
        use crate::test_runner::seed_from_name;
        assert_eq!(seed_from_name("abc"), seed_from_name("abc"));
        assert_ne!(seed_from_name("abc"), seed_from_name("abd"));
    }
}
