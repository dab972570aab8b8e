//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the slice of the proptest API its property tests use:
//! the [`proptest!`] macro (`arg in strategy` syntax, optional
//! `#![proptest_config(...)]` header), range/tuple/`select`/`vec`
//! strategies, the `prop_map` / `prop_filter_map` combinators, and the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Differences from the real crate, by design:
//!
//! * no shrinking — a failing case reports its case index and seed so it
//!   can be replayed, but is not minimized;
//! * case generation is fully deterministic (a fixed base seed mixed
//!   with the case index), so CI and local runs see identical inputs.

use rand::rngs::StdRng;
use rand::{Rng as _, SampleRange, SeedableRng};

/// The RNG driving case generation.
pub type TestRng = StdRng;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps the heavier circuit
        // properties fast while still exercising a broad input space.
        ProptestConfig { cases: 64 }
    }
}

/// Marker returned by `prop_assume!` when a case does not satisfy its
/// precondition.
#[derive(Debug, Clone, Copy)]
pub struct Discard;

/// Outcome of one generated case.
pub type TestCaseResult = Result<(), Discard>;

/// Fixed base seed for case generation; mixed with the case index so
/// every case is independent but reproducible.
const BASE_SEED: u64 = 0x5EED_CAFE_F00D_0001;

/// Drives one property: runs `cfg.cases` successful cases, skipping
/// discarded ones (up to a cap), and annotates any panic with the case
/// index and seed so it can be replayed.
pub fn run_cases<F>(cfg: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let mut successes = 0u32;
    let mut discards = 0u64;
    let max_discards = (cfg.cases as u64).max(1) * 100;
    let mut index = 0u64;
    while successes < cfg.cases {
        let seed = BASE_SEED ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        match outcome {
            Ok(Ok(())) => successes += 1,
            Ok(Err(Discard)) => {
                discards += 1;
                assert!(
                    discards <= max_discards,
                    "property `{name}`: too many discards ({discards}) — \
                     prop_assume/filter rejects nearly every input"
                );
            }
            Err(payload) => {
                eprintln!("property `{name}` failed at case {index} (seed {seed:#x})");
                std::panic::resume_unwind(payload);
            }
        }
        index += 1;
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `f` returns `Some`, retrying otherwise.
    fn prop_filter_map<T, F: Fn(Self::Value) -> Option<T>>(
        self,
        whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            f,
            whence,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, T, F: Fn(S::Value) -> Option<T>> Strategy for FilterMap<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map exhausted retries: {}", self.whence);
    }
}

impl<T> Strategy for std::ops::Range<T>
where
    std::ops::Range<T>: SampleRange + Clone,
{
    type Value = <std::ops::Range<T> as SampleRange>::Output;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        rng.gen_range(self.clone())
    }
}

/// A strategy that always yields clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

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
impl_tuple_strategy!(A, B, C, D, E, G);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Lengths accepted by [`vec()`]: a fixed `usize` or a `Range<usize>`.
    pub trait IntoLenRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLenRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLenRange for std::ops::Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s of `element` values with lengths drawn
    /// from `len`.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoLenRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Strategy choosing uniformly among `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    /// See [`select`].
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.gen_range(0..self.options.len())].clone()
        }
    }
}

/// `prop::` paths as the prelude exposes them.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Declares property tests. Each `#[test] fn name(arg in strategy, ...)`
/// becomes a standard test that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(#[test] fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            #[test]
            fn $name() {
                let __cfg = $cfg;
                $crate::run_cases(&__cfg, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "prop_assert failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Discards the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn runner_is_deterministic() {
        let mut first: Vec<f64> = Vec::new();
        crate::run_cases(&ProptestConfig::with_cases(10), "collect", |rng| {
            first.push(crate::Strategy::generate(&(0.0..1.0f64), rng));
            Ok(())
        });
        let mut second: Vec<f64> = Vec::new();
        crate::run_cases(&ProptestConfig::with_cases(10), "collect", |rng| {
            second.push(crate::Strategy::generate(&(0.0..1.0f64), rng));
            Ok(())
        });
        assert_eq!(first, second);
        assert_eq!(first.len(), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 1usize..10, y in -3.0..5.0f64, k in 0u8..4) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((-3.0..5.0).contains(&y));
            prop_assert!(k < 4);
        }

        #[test]
        fn tuples_and_vecs_compose(v in prop::collection::vec((0u8..3, 0usize..100), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            for (a, b) in v {
                prop_assert!(a < 3 && b < 100);
            }
        }

        #[test]
        fn select_picks_from_options(x in prop::sample::select(vec![2, 4, 8])) {
            prop_assert!(x == 2 || x == 4 || x == 8);
        }

        #[test]
        fn map_and_assume_work(n in (1usize..50).prop_map(|n| n * 2)) {
            prop_assume!(n != 4);
            prop_assert_eq!(n % 2, 0);
            prop_assert!(n != 4, "assumed away");
        }
    }

    #[test]
    fn filter_map_retries() {
        let strat = (0usize..100).prop_filter_map("needs even", |n| (n % 2 == 0).then_some(n));
        crate::run_cases(&ProptestConfig::with_cases(20), "evens", |rng| {
            let n = crate::Strategy::generate(&strat, rng);
            assert_eq!(n % 2, 0);
            Ok(())
        });
    }
}
