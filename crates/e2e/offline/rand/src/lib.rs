//! Offline stand-in for `rand` 0.8: `StdRng` (xoshiro256++ seeded through
//! splitmix64), `Rng::{gen_range, gen_bool}`, `SliceRandom::shuffle` and
//! `IteratorRandom::choose_multiple`. Streams differ from the published
//! crate's ChaCha12 `StdRng`, so exact counts derived from RNG streams
//! differ between build modes.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `gen_range` can draw uniformly from a half-open or closed range.
pub trait SampleUniform: Sized + PartialOrd {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                (low as $wide).wrapping_add((rng.next_u64() % span) as $wide) as $t
            }
            fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty range");
                let span = ((high as $wide).wrapping_sub(low as $wide) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                (low as $wide).wrapping_add((rng.next_u64() % span) as $wide) as $t
            }
        }
    )*};
}
uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                low + (high - low) * (unit_f64(rng) as $t)
            }
            fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                Self::sample_half_open(rng, low, high)
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Uniform in `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_closed(rng, low, high)
    }
}

pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        type Item;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }

    pub trait IteratorRandom: Iterator + Sized {
        /// Reservoir sampling: `amount` items (fewer if the iterator is
        /// shorter), order unspecified.
        fn choose_multiple<R: RngCore + ?Sized>(
            mut self,
            rng: &mut R,
            amount: usize,
        ) -> Vec<Self::Item> {
            let mut reservoir: Vec<Self::Item> = self.by_ref().take(amount).collect();
            if reservoir.len() == amount && amount > 0 {
                for (seen, item) in self.enumerate() {
                    let slot = rng.gen_range(0..=amount + seen);
                    if slot < amount {
                        reservoir[slot] = item;
                    }
                }
            }
            reservoir
        }
    }

    impl<I: Iterator> IteratorRandom for I {}
}

pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::{IteratorRandom, SliceRandom};
    pub use super::{Rng, RngCore, SeedableRng};
}
