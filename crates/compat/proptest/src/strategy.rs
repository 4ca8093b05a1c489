//! Value-generation strategies.

use rand::rngs::StdRng;
use rand::RngExt;

/// A recipe for generating random values of `Value`.
pub trait Strategy {
    /// The type of value generated.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut StdRng) -> $ty {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut StdRng) -> $ty {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.random_range(self.clone())
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let unit: f64 = rng.random();
        *self.start() + unit * (*self.end() - *self.start())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        #[allow(non_snake_case, reason = "the type parameters double as the tuple bindings")]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
}

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.random()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut StdRng) -> u8 {
        rng.random()
    }
}

impl Arbitrary for u16 {
    fn arbitrary(rng: &mut StdRng) -> u16 {
        rng.random()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut StdRng) -> u32 {
        rng.random()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut StdRng) -> u64 {
        rng.random()
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut StdRng) -> usize {
        rng.random()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        rng.random()
    }
}

/// The whole-domain strategy for `T` (`any::<T>()`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// The canonical strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}
