//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the subset of the proptest API the workspace's property tests use:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_recursive`, numeric-range,
//! boolean, tuple, `Just`, regex-lite string, collection (`vec`,
//! `btree_map`) and `prop_oneof!` union strategies, plus the `proptest!`,
//! `prop_assert!` and `prop_assert_eq!` macros. Failing cases are reported
//! with their generated inputs but are **not shrunk** — good enough for the
//! deterministic invariants this repo checks.

pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod num {
    //! Numeric strategy constants.
    pub mod f64 {
        /// Strategy producing finite, normal (non-zero, non-subnormal)
        /// doubles of moderate magnitude. Mirrors `proptest::num::f64::NORMAL`
        /// closely enough for round-trip and boundedness properties; the
        /// exponent range is capped so sums of ~64 samples cannot overflow.
        pub const NORMAL: NormalF64 = NormalF64;

        /// See [`NORMAL`].
        #[derive(Clone, Copy, Debug)]
        pub struct NormalF64;

        impl crate::strategy::Strategy for NormalF64 {
            type Value = f64;
            fn generate(&self, rng: &mut crate::test_runner::TestRng) -> f64 {
                // sign * mantissa * 10^exp, exp in [-30, 30]
                let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
                let mantissa = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                let exp = (rng.next_u64() % 61) as i32 - 30;
                let v = sign * (mantissa + 0.1) * 10f64.powi(exp);
                if v.is_normal() {
                    v
                } else {
                    sign * 0.5 // fall back to a plain normal value
                }
            }
        }
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_map`).
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.usize_in(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K::Value, V::Value>` with a size drawn from
    /// `size` (duplicate keys collapse, as in real proptest).
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// `proptest::collection::btree_map`.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.usize_in(self.size.clone());
            (0..n)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

/// `proptest::prelude` — the glob import the tests use.
pub mod prelude {
    pub use crate::strategy::{any, boxed, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// `prop::…` paths (`prop::collection`, `prop::num`) as used under the
/// prelude glob.
pub mod prop {
    pub use crate::collection;
    pub use crate::num;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = (-5i64..7).generate(&mut rng);
            assert!((-5..7).contains(&v));
            let u = (1usize..4).generate(&mut rng);
            assert!((1..4).contains(&u));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn regex_lite_strings_match_class() {
        let mut rng = crate::test_runner::TestRng::deterministic("strings");
        for _ in 0..500 {
            let s = "[a-z_][a-z0-9_]{0,8}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 9, "{s:?}");
            let first = s.chars().next().unwrap();
            assert!(first == '_' || first.is_ascii_lowercase());
        }
    }

    #[test]
    fn oneof_hits_every_branch() {
        let s = prop_oneof![Just(0u8), Just(1u8), Just(2u8)];
        let mut rng = crate::test_runner::TestRng::deterministic("oneof");
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_machinery_works(xs in crate::collection::vec(0i64..10, 0..8), flag in any::<bool>()) {
            prop_assert!(xs.len() < 8);
            let _ = flag;
            // Iterator plumbing of the generated Vec stays consistent.
            prop_assert_eq!(xs.iter().copied().count(), xs.len());
        }
    }
}
