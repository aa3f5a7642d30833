//! Offline stand-in for `proptest`: deterministic property-based testing with
//! the `proptest!`/`prop_oneof!`/`prop_assert*!` macro surface and the
//! [`strategy::Strategy`] combinators the workspace uses.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking** — a failing case reports its inputs (via the assertion
//!   message) but is not minimized.
//! * **Deterministic seeding** — the RNG seed derives from the test's module
//!   path and name, so failures reproduce exactly across runs. `PROPTEST_CASES`
//!   in the environment overrides every block's case count (a wider search
//!   extends the same sequence: the first cases are the ones a default run
//!   generates).
//! * `&str` strategies support only the char-class regex subset actually used
//!   (`[class]` items with optional `{min,max}` repetition).

pub mod test_runner {
    //! Configuration, RNG, and failure plumbing for generated test loops.

    use std::fmt;

    /// Per-`proptest!` block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` generated cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// The number of cases a test actually runs: `PROPTEST_CASES` from the
        /// environment when set, else the configured `cases`.
        ///
        /// # Panics
        ///
        /// Panics if `PROPTEST_CASES` is set but is not a whole number, so a
        /// typo cannot quietly run the default search.
        pub fn effective_cases(&self) -> u32 {
            cases_from(std::env::var("PROPTEST_CASES").ok().as_deref(), self.cases)
        }
    }

    pub(crate) fn cases_from(env: Option<&str>, configured: u32) -> u32 {
        env.map_or(configured, |v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| panic!("PROPTEST_CASES must be a whole number, got {v:?}"))
        })
    }

    /// A failed property assertion.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError { message: message.into() }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic splitmix64 RNG driving all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from a test identifier.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next pseudorandom 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `usize` in `[0, bound)`.
        ///
        /// # Panics
        ///
        /// Panics if `bound` is zero.
        pub fn below(&mut self, bound: usize) -> usize {
            assert!(bound > 0, "below(0)");
            (self.next_u64() % bound as u64) as usize
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, map: f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The [`Strategy::prop_map`] combinator.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.generate(rng))
        }
    }

    /// Uniform choice between boxed alternative strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over the given arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let pick = rng.below(self.arms.len());
            self.arms[pick].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    ((rng.next_u64() as u128 % span) as i128 + self.start as i128) as $ty
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($S:ident / $idx:tt),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
        (A/0, B/1, C/2, D/3, E/4, F/5)
    }

    /// One parsed item of the supported regex subset: a character set plus a
    /// repetition count range (inclusive min, inclusive max).
    struct PatternItem {
        set: Vec<char>,
        min: usize,
        max: usize,
    }

    fn parse_pattern(pattern: &str) -> Vec<PatternItem> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut items = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let set: Vec<char> = if chars[i] == '[' {
                i += 1;
                let mut set = Vec::new();
                while i < chars.len() && chars[i] != ']' {
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        let (lo, hi) = (chars[i], chars[i + 2]);
                        assert!(lo <= hi, "bad char range in pattern {pattern:?}");
                        set.extend(lo..=hi);
                        i += 3;
                    } else {
                        set.push(chars[i]);
                        i += 1;
                    }
                }
                assert!(i < chars.len(), "unterminated class in pattern {pattern:?}");
                i += 1; // ']'
                set
            } else {
                let c = chars[i];
                assert!(
                    !"(){}*+?|.\\^$".contains(c),
                    "unsupported regex feature {c:?} in pattern {pattern:?}"
                );
                i += 1;
                vec![c]
            };
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unterminated repetition in pattern {pattern:?}"));
                let body: String = chars[i + 1..i + close].iter().collect();
                i += close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("repetition min"),
                        hi.trim().parse().expect("repetition max"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("repetition count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(!set.is_empty(), "empty character class in pattern {pattern:?}");
            items.push(PatternItem { set, min, max });
        }
        items
    }

    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for item in parse_pattern(self) {
                let count = item.min + rng.below(item.max - item.min + 1);
                for _ in 0..count {
                    out.push(item.set[rng.below(item.set.len())]);
                }
            }
            out
        }
    }
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait behind [`any`].

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generate an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A half-open size range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        start: usize,
        end: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { start: r.start, end: r.end }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { start: n, end: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from the size range.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.start + rng.below(self.size.end - self.size.start);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector strategy over `element` with the given size range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod array {
    //! Fixed-size array strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `[S::Value; 4]`.
    pub struct Uniform4<S>(S);

    impl<S: Strategy> Strategy for Uniform4<S> {
        type Value = [S::Value; 4];
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            [self.0.generate(rng), self.0.generate(rng), self.0.generate(rng), self.0.generate(rng)]
        }
    }

    /// Four independent draws from `element`.
    pub fn uniform4<S: Strategy>(element: S) -> Uniform4<S> {
        Uniform4(element)
    }
}

pub mod prelude {
    //! The conventional `use proptest::prelude::*` import set.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Choose uniformly between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Assert a condition inside a property, failing the case (not panicking
/// directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            left,
            right,
            stringify!($left),
            stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            left,
            right,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }` becomes
/// a `#[test]` running `cases` deterministic generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let cases = config.effective_cases();
            for case in 0..cases {
                let result = (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name), case, cases, e
                    );
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(-2.0f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn proptest_cases_overrides_the_configured_count() {
        use crate::test_runner::cases_from;
        assert_eq!(cases_from(None, 64), 64);
        assert_eq!(cases_from(Some("1024"), 64), 1024);
        assert_eq!(cases_from(Some(" 8\n"), 64), 8);
        assert!(std::panic::catch_unwind(|| cases_from(Some("lots"), 64)).is_err());
    }

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = TestRng::from_name("strings");
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z_][a-z0-9_]{0,24}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 25, "{s:?}");
            let first = s.chars().next().unwrap();
            assert!(first == '_' || first.is_ascii_lowercase());
            let p = Strategy::generate(&"[ -~]{0,64}", &mut rng);
            assert!(p.len() <= 64);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::from_name("oneof");
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[Strategy::generate(&strat, &mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_checks(v in crate::collection::vec(0u32..10, 0..5), flag in any::<bool>()) {
            prop_assert!(v.len() < 5);
            prop_assert_eq!(flag, flag);
            if v.is_empty() {
                return Ok(());
            }
            prop_assert!(v.iter().all(|&x| x < 10));
        }
    }
}
