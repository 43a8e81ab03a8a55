//! The deterministic case runner behind the [`proptest!`](crate::proptest)
//! macro.

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::TestRng;

/// Configuration for a [`proptest!`](crate::proptest) block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A failed property assertion (from `prop_assert!` and friends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// FNV-1a, so each test gets a stable seed stream derived from its name.
fn fnv1a(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Runs `test` over `config.cases` deterministic cases.
///
/// The closure receives a fresh seeded [`TestRng`] per case plus a slot it
/// fills with the formatted inputs, which are reported on failure. Panics
/// inside the body are caught, annotated with the inputs, and re-raised.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) on the first failing case.
pub fn run<F>(config: ProptestConfig, name: &str, mut test: F)
where
    F: FnMut(&mut TestRng, &mut String) -> Result<(), TestCaseError>,
{
    let base = fnv1a(name);
    for case in 0..config.cases {
        let mut rng =
            TestRng::from_seed(base ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut inputs = String::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| test(&mut rng, &mut inputs)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(err)) => panic!(
                "property `{name}` failed at case {case}/{}:\n  {err}\n  inputs: {inputs}",
                config.cases
            ),
            Err(payload) => {
                eprintln!(
                    "property `{name}` panicked at case {case}/{}\n  inputs: {inputs}",
                    config.cases
                );
                resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn runner_is_deterministic() {
        let mut first = Vec::new();
        crate::test_runner::run(ProptestConfig::with_cases(5), "det", |rng, _| {
            first.push(rng.next_u64());
            Ok(())
        });
        let mut second = Vec::new();
        crate::test_runner::run(ProptestConfig::with_cases(5), "det", |rng, _| {
            second.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_case_panics_with_inputs() {
        crate::test_runner::run(ProptestConfig::with_cases(3), "fail", |_, inputs| {
            *inputs = "x = 1".into();
            Err(TestCaseError::fail("nope"))
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro front-end: ranges stay in range, tuples and maps
        /// compose, collections honor their size bounds.
        #[test]
        fn macro_front_end_works(
            small in 1u32..10,
            pair in (0u64..5, 0.0f64..1.0),
            items in prop::collection::vec(any::<bool>(), 0..8),
            pick in any::<prop::sample::Index>(),
            tagged in prop_oneof![
                3 => (0u32..4).prop_map(|v| (false, v)),
                1 => (10u32..14).prop_map(|v| (true, v)),
            ],
        ) {
            prop_assert!((1..10).contains(&small));
            prop_assert!(pair.0 < 5 && (0.0..1.0).contains(&pair.1));
            prop_assert!(items.len() < 8);
            prop_assert!(pick.index(7) < 7);
            let (high, v) = tagged;
            if high {
                prop_assert!((10..14).contains(&v));
            } else {
                prop_assert!(v < 4);
            }
            prop_assert_eq!(small, small);
            prop_assert_ne!(small, small + 1);
        }
    }
}
