//! The workspace's one seeded random generator: every dataset, fault plan,
//! simulator answer, training shuffle and baseline draws from [`Rng`], so a
//! seed means the same stream on every host and in every build.
//!
//! xoshiro256++ seeded by four [`splitmix64`] steps. Integer ranges reduce
//! one draw modulo the span (the bias is below 2^-32 for every span in use
//! and is part of the pinned streams), floats and [`Rng::gen_bool`] use the
//! top 53 bits, [`Rng::shuffle`] is Fisher–Yates from the back and
//! [`Rng::choose_multiple`] a reservoir. The unit tests pin all of it as
//! literals: changing a line here moves every number in `EXPERIMENTS.md`.
//! The small methods are `#[inline]` for the same reason `fnv`'s are: their
//! callers are in other crates, inside the generators' inner loops.

use std::ops::{Range, RangeInclusive};

/// One splitmix64 step: advances `state` and returns the next output. Seeds
/// [`Rng`] and is the whole generator behind [`crate::check::Gen`].
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded generator (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// A type [`Rng::gen_range`] draws uniformly.
pub trait Uniform: Copy + PartialOrd {
    /// Uniform over `lo..hi`, or over `lo..=hi` when `closed`.
    fn draw(rng: &mut Rng, lo: Self, hi: Self, closed: bool) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn draw(rng: &mut Rng, lo: $t, hi: $t, closed: bool) -> $t {
                assert!(lo < hi || (closed && lo == hi), "gen_range: empty range");
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64)
                    .wrapping_add(u64::from(closed));
                let draw = rng.next_u64();
                match draw.checked_rem(span) {
                    Some(offset) => (lo as $wide).wrapping_add(offset as $wide) as $t,
                    // A span of 2^64 wraps to zero: the draw is the value.
                    None => draw as $t,
                }
            }
        }
    )*};
}
uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            /// `lo..=hi` is drawn exactly as `lo..hi`.
            #[inline]
            fn draw(rng: &mut Rng, lo: $t, hi: $t, _closed: bool) -> $t {
                assert!(lo < hi, "gen_range: empty range");
                lo + (hi - lo) * (rng.unit() as $t)
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// The two range forms [`Rng::gen_range`] accepts: `lo..hi` and `lo..=hi`.
pub trait Ends<T> {
    /// `(lo, hi, closed)`.
    fn ends(self) -> (T, T, bool);
}

impl<T> Ends<T> for Range<T> {
    fn ends(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> Ends<T> for RangeInclusive<T> {
    fn ends(self) -> (T, T, bool) {
        let (lo, hi) = self.into_inner();
        (lo, hi, true)
    }
}

impl Rng {
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut state = seed;
        let mut step = || splitmix64(&mut state);
        Rng { s: [step(), step(), step(), step()] }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform over `range`. Panics on an empty range.
    pub fn gen_range<T: Uniform>(&mut self, range: impl Ends<T>) -> T {
        let (lo, hi, closed) = range.ends();
        T::draw(self, lo, hi, closed)
    }

    /// `true` with probability `p`. Panics unless `0 <= p <= 1`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        self.unit() < p
    }

    /// Fisher–Yates, from the back.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.gen_range(0..=i));
        }
    }

    /// Reservoir sampling: `amount` of `items` (all of them when there are
    /// fewer), in no particular order.
    pub fn choose_multiple<I: Iterator>(&mut self, mut items: I, amount: usize) -> Vec<I::Item> {
        let mut reservoir: Vec<I::Item> = items.by_ref().take(amount).collect();
        if reservoir.len() == amount && amount > 0 {
            for (seen, item) in items.enumerate() {
                let slot = self.gen_range(0..=amount + seen);
                if slot < amount {
                    reservoir[slot] = item;
                }
            }
        }
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streams every committed number was drawn from. Seed 0 is the
    /// published xoshiro256++ / splitmix64 reference vector.
    #[test]
    fn the_first_eight_outputs_of_four_seeds_are_pinned() {
        let pinned: [(u64, [u64; 8]); 4] = [
            (
                0,
                [
                    0x5317_5d61_490b_23df,
                    0x61da_6f3d_c380_d507,
                    0x5c0f_df91_ec9a_7bfc,
                    0x02ee_bf8c_3bbe_5e1a,
                    0x7eca_04eb_af4a_5eea,
                    0x0543_c377_57f0_8d9a,
                    0xdb74_90c7_5ab5_026e,
                    0xd873_43e6_464b_c959,
                ],
            ),
            (
                1,
                [
                    0xcfc5_d07f_6f03_c29b,
                    0xbf42_4132_963f_e08d,
                    0x19a3_7d57_57aa_f520,
                    0xbf08_119f_05cd_56d6,
                    0x2f47_184b_8618_6fa4,
                    0x9729_9fca_e720_2345,
                    0xfca3_c795_08f4_1507,
                    0x85fe_a5c9_0363_f221,
                ],
            ),
            (
                11,
                [
                    0xdc1a_bbcc_6a69_4280,
                    0xce74_a193_b8e6_ac95,
                    0xf6d6_10ee_f4d8_9d39,
                    0x9a6c_78b8_852d_c00d,
                    0x432a_b051_8bbb_cb12,
                    0xb693_4fab_6cea_caa0,
                    0x2156_4236_40ca_f95c,
                    0x0546_054c_2ce2_3af5,
                ],
            ),
            (
                7919,
                [
                    0x2944_9f6c_2ebf_2ad7,
                    0x50fa_60ea_a5ce_c24e,
                    0x80e5_4495_71dc_9934,
                    0x0ef2_1039_f2dd_24a2,
                    0x174d_4f66_3837_3549,
                    0xdbfa_a9cd_c71b_fdc3,
                    0x6b50_ac61_5751_7ec3,
                    0xb714_0310_ed68_1f55,
                ],
            ),
        ];
        for (seed, expected) in pinned {
            let mut rng = Rng::seed_from_u64(seed);
            assert_eq!([(); 8].map(|()| rng.next_u64()), expected, "seed {seed}");
        }
    }

    #[test]
    fn one_draw_per_width_is_pinned() {
        let mut rng = Rng::seed_from_u64(11);
        assert_eq!(rng.gen_range(3u8..200), 141);
        assert_eq!(rng.gen_range(0u16..=u16::MAX), 44_181);
        assert_eq!(rng.gen_range(1995u32..2023), 1996);
        assert_eq!(rng.gen_range(0u64..=u64::MAX), 11_127_401_513_229_336_589);
        assert_eq!(rng.gen_range(0usize..1000), 58);
        assert_eq!(rng.gen_range(-100i8..=100), -32);
        assert_eq!(rng.gen_range(i16::MIN..i16::MAX), 7603);
        assert_eq!(rng.gen_range(-2..=2), 2);
        assert_eq!(rng.gen_range(i64::MIN..=i64::MAX), -3_892_953_351_914_716_678);
        assert_eq!(rng.gen_range(-5isize..5), -1);
        assert_eq!(rng.gen_range(-1.0f32..1.0), 0.336_475);
        assert_eq!(rng.gen_range(0.0..3.5), 1.272_789_951_017_804);
        assert_eq!(rng.gen_range(-1.6..=1.6), -0.622_656_320_765_735_4);
        // A single-value range still consumes its draw.
        assert_eq!((rng.gen_range(7..=7), rng.gen_range(9usize..10)), (7, 9));
        assert_eq!(rng.next_u64(), 0xd3ba_3fb6_0668_876e);
    }

    #[test]
    fn gen_bool_is_pinned_and_exact_at_the_ends() {
        let mut rng = Rng::seed_from_u64(11);
        let drawn: String = (0..16).map(|_| if rng.gen_bool(0.5) { '1' } else { '0' }).collect();
        assert_eq!(drawn, "0000101101011110");
        for _ in 0..1000 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn shuffle_and_choose_multiple_are_pinned() {
        let mut rng = Rng::seed_from_u64(11);
        let mut items: Vec<u8> = (0..16).collect();
        rng.shuffle(&mut items);
        assert_eq!(items, [13, 12, 4, 5, 9, 14, 8, 2, 3, 11, 6, 10, 7, 1, 15, 0]);
        assert_eq!(rng.choose_multiple(0..10, 4), [0, 1, 9, 5]);
        // Fewer items than asked for: all of them, and no draw is spent.
        assert_eq!(rng.choose_multiple(0..3, 4), [0, 1, 2]);
        assert_eq!(rng.next_u64(), 0x75f7_f12d_bc21_976d);
        rng.shuffle::<u8>(&mut []);
        assert!(rng.choose_multiple(0..10, 0).is_empty());
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..2000 {
            seen[(rng.gen_range(-2..=2) + 2) as usize] = true;
            assert!((7..9).contains(&rng.gen_range(7usize..9)));
            assert!((-1.6..1.6).contains(&rng.gen_range(-1.6..1.6)));
        }
        assert_eq!(seen, [true; 5]);
    }

    fn panics<T>(draw: impl FnOnce(&mut Rng) -> T) -> bool {
        let mut rng = Rng::seed_from_u64(0);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            draw(&mut rng);
        }))
        .is_err()
    }

    #[test]
    fn empty_ranges_and_improper_probabilities_panic() {
        assert!(panics(|rng| rng.gen_range(5..5)));
        let (lo, hi) = (6u8, 5u8);
        assert!(panics(|rng| rng.gen_range(lo..=hi)));
        assert!(panics(|rng| rng.gen_range(1.0..1.0)));
        assert!(panics(|rng| rng.gen_range(f64::NAN..1.0)));
        assert!(panics(|rng| rng.gen_bool(-0.1)));
        assert!(panics(|rng| rng.gen_bool(1.5)));
        assert!(panics(|rng| rng.gen_bool(f64::NAN)));
    }
}
