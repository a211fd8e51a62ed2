//! An offline, dependency-free subset of the [proptest](https://docs.rs/proptest)
//! API, vendored so the workspace builds and tests without network access.
//!
//! The real proptest generates random inputs, shrinks failures, and persists
//! regression seeds. This shim keeps the *interface* (the [`proptest!`]
//! macro, the [`strategy::Strategy`] combinators, `prop::collection::vec`,
//! `any::<T>()`, `prop_oneof!`, `Just`) and the *deterministic generation*
//! (a fixed PCG stream per case index, so every run of the suite sees the
//! identical inputs), but does no shrinking: a failing case panics with the
//! ordinary assertion message and prints its case index, and re-running
//! reproduces it exactly.
//!
//! Only the surface actually used by this workspace's test suites is
//! implemented. Extend it as tests need more.

/// The conventional glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

pub mod test_runner {
    //! Case execution: configuration and the deterministic per-case RNG.

    /// Test-runner configuration. Only `cases` is meaningful here.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            // The real default is 256; this shim halves twice to keep the
            // heavier simulation properties fast while staying property-ish.
            Config { cases: 64 }
        }
    }

    const PCG_MULT: u64 = 6364136223846793005;
    const PCG_INC: u64 = (1442695040888963407 << 1) | 1;

    /// A deterministic PCG-XSH-RR 64/32 stream, seeded from the case index.
    ///
    /// Independent from `cor_sim::Pcg32` so this crate stays dependency-free
    /// (and so test-input streams never shift when the simulator's RNG
    /// evolves).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The generator for case number `case`.
        pub fn for_case(case: u32) -> Self {
            let mut rng = TestRng {
                state: (case as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ 0xDEADBEEFCAFEF00D,
            };
            rng.next_u32();
            rng.next_u32();
            rng
        }

        /// Next 32 random bits.
        pub fn next_u32(&mut self) -> u32 {
            let old = self.state;
            self.state = old.wrapping_mul(PCG_MULT).wrapping_add(PCG_INC);
            let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
            let rot = (old >> 59) as u32;
            xorshifted.rotate_right(rot)
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            ((self.next_u32() as u64) << 32) | self.next_u32() as u64
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below() requires a non-zero bound");
            // Rejection over the next power-of-two mask keeps this unbiased.
            let mask = bound.next_power_of_two().wrapping_sub(1);
            loop {
                let v = self.next_u64() & mask;
                if v < bound {
                    return v;
                }
            }
        }

        /// Uniform value in `[lo, hi)`; the range must be non-empty.
        pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
            assert!(lo < hi, "range requires lo < hi");
            lo + self.below(hi - lo)
        }
    }

    /// Runs `body` once per configured case with that case's RNG. A
    /// failing case prints `proptest: case N failed` to stderr as it
    /// unwinds; the input stream depends only on `N`, so that replays it.
    pub fn run<F: FnMut(&mut TestRng)>(config: &Config, mut body: F) {
        /// Names the case on stderr if it is dropped mid-panic.
        struct CaseGuard(u32);

        impl Drop for CaseGuard {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("proptest: case {} failed", self.0);
                }
            }
        }

        for case in 0..config.cases {
            let _guard = CaseGuard(case);
            body(&mut TestRng::for_case(case));
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type from a [`TestRng`].
    ///
    /// Unlike real proptest there is no value tree and no simplification:
    /// `generate` produces the final value directly.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it (dependent generation).
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases this strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among alternative strategies (built by
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate(rng)
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    rng.range_u64(self.start as u64, self.end as u64) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                    assert!(lo <= hi, "empty range strategy");
                    if hi == u64::MAX {
                        return rng.next_u64() as $t; // only reachable for u64
                    }
                    rng.range_u64(lo, hi + 1) as $t
                }
            }
        )*};
    }
    int_strategies!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategies {
        ($(($($n:ident $idx:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    }

    /// String generation from a regex-like pattern literal.
    ///
    /// Supports exactly the shape `[class]{lo,hi}` (a single character
    /// class with `a-z` ranges and literal members, repeated a bounded
    /// number of times); any other pattern generates itself verbatim.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            match parse_class_repeat(self) {
                Some((chars, lo, hi)) => {
                    let len = rng.range_u64(lo as u64, hi as u64 + 1) as usize;
                    (0..len)
                        .map(|_| chars[rng.below(chars.len() as u64) as usize])
                        .collect()
                }
                None => (*self).to_string(),
            }
        }
    }

    fn parse_class_repeat(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = rest.find(']')?;
        let class: Vec<char> = rest[..close].chars().collect();
        let mut chars = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (a, b) = (class[i] as u32, class[i + 2] as u32);
                for c in a..=b {
                    chars.push(char::from_u32(c)?);
                }
                i += 3;
            } else {
                chars.push(class[i]);
                i += 1;
            }
        }
        if chars.is_empty() {
            return None;
        }
        let reps = rest[close + 1..]
            .strip_prefix('{')?
            .strip_suffix('}')?
            .to_string();
        let (lo, hi) = match reps.split_once(',') {
            Some((l, h)) => (l.trim().parse().ok()?, h.trim().parse().ok()?),
            None => {
                let n = reps.trim().parse().ok()?;
                (n, n)
            }
        };
        Some((chars, lo, hi))
    }
}

pub mod arbitrary {
    //! `any::<T>()`: full-domain strategies for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        /// Produces one uniformly distributed value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u32() & 1 == 1
        }
    }
    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            rng.next_u32() as u8
        }
    }
    impl Arbitrary for u16 {
        fn arbitrary(rng: &mut TestRng) -> u16 {
            rng.next_u32() as u16
        }
    }
    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rng.next_u32()
        }
    }
    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }
    impl Arbitrary for usize {
        fn arbitrary(rng: &mut TestRng) -> usize {
            rng.next_u64() as usize
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A length specification: an exact size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.range_u64(self.size.lo as u64, self.size.hi as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` strategy: `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Declares property tests. Each function body runs once per configured
/// case with arguments drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::Config::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                $crate::test_runner::run(&__config, |__rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                    $body
                });
            }
        )*
    };
}

/// Uniform choice among strategy alternatives of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Asserts a condition inside a property (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (no shrinking: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (no shrinking: plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn case_streams_are_deterministic() {
        let a: Vec<u32> = {
            let mut r = TestRng::for_case(7);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut r = TestRng::for_case(7);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u32> = {
            let mut r = TestRng::for_case(8);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = TestRng::for_case(0);
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let w = (0usize..1).generate(&mut rng);
            assert_eq!(w, 0);
        }
    }

    #[test]
    fn vec_and_oneof_compose() {
        let strat = crate::collection::vec(
            prop_oneof![Just(1u32), (10u32..20).prop_map(|v| v * 2)],
            0..10,
        );
        let mut rng = TestRng::for_case(3);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v.len() < 10);
            assert!(v.iter().all(|&x| x == 1 || (20..40).contains(&x)));
        }
    }

    #[test]
    fn string_pattern_generates_from_class() {
        let mut rng = TestRng::for_case(1);
        for _ in 0..200 {
            let s = "[a-c0-1 _-]{0,40}".generate(&mut rng);
            assert!(s.len() <= 40);
            assert!(s.chars().all(|c| "abc01 _-".contains(c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself works end to end.
        #[test]
        fn macro_round_trip(v in prop::collection::vec(any::<u8>(), 1..50), k in 0u8..4) {
            prop_assert!(!v.is_empty());
            prop_assert!(k < 4);
            prop_assert_eq!(v.len(), v.clone().len());
        }
    }
}
