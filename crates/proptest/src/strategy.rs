//! The [`Strategy`] trait and combinators: how test inputs are described.

use std::fmt;
use std::ops::Range;

use crate::rng::TestRng;

/// A recipe for generating values of one type.
///
/// Unlike upstream proptest there is no value tree / shrinking: a strategy
/// just samples. Failures are reproduced from the deterministic seed.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps the generated value through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`](crate::prop_oneof)).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Weighted choice among type-erased alternatives; see
/// [`prop_oneof!`](crate::prop_oneof).
pub struct Union<V> {
    options: Vec<(u32, BoxedStrategy<V>)>,
    total_weight: u64,
}

impl<V> Union<V> {
    /// Builds a union from `(weight, strategy)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty or all weights are zero.
    pub fn new(options: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total_weight: u64 = options.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(
            total_weight > 0,
            "prop_oneof! needs a positive total weight"
        );
        Self {
            options,
            total_weight,
        }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total_weight);
        for (weight, option) in &self.options {
            let weight = u64::from(*weight);
            if pick < weight {
                return option.sample(rng);
            }
            pick -= weight;
        }
        unreachable!("pick is below the total weight")
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $ty)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($ty:ty as $uty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as $uty).wrapping_sub(self.start as $uty);
                self.start.wrapping_add(rng.below(u64::from(span)) as $ty)
            }
        }
    )*};
}

signed_range_strategy!(i8 as u8, i16 as u16, i32 as u32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
    (A, B, C, D, E, F, G, H, I)
    (A, B, C, D, E, F, G, H, I, J)
    (A, B, C, D, E, F, G, H, I, J, K)
    (A, B, C, D, E, F, G, H, I, J, K, L)
}
