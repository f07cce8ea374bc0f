//! Seeded property checking — the one place in the workspace that decides
//! where a randomized test gets its inputs.
//!
//! A property is a generator `fn(&mut Gen) -> T` and a law over `T` that
//! panics (plain `assert!`) when it is broken. [`check`] runs the law on
//! `cases` values; each case's seed is derived from the property's name and
//! the case number, so a failure is reproduced by re-running the test, and
//! the inputs are the same on every host: the generator below is a bare
//! [`splitmix64`] stream, the same step that seeds [`crate::rng::Rng`].
//!
//! There is no shrink tree. A case's `size` limits how much of what it
//! draws is kept: a collection draws its full length and all its items and
//! then keeps only the first few, and a recursive value stops growing once
//! the size is spent. A failing seed is shrunk by re-running it at smaller
//! sizes, which yields the failing value with its collections cut short,
//! and the smallest size that still fails is the one reported.
//!
//! It lives in `lingua-ml`, beside `fnv`, because that is the lowest crate
//! every suite can reach without a dependency cycle.

use crate::fnv;
use crate::rng::splitmix64;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size every case first runs at: collection lengths span their whole
/// range, and a recursive generator may [`Gen::descend`] this many times.
pub const FULL_SIZE: u32 = 1000;

/// The printable ASCII characters, `[ -~]`.
pub const PRINTABLE: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";
/// `[a-z]`.
pub const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// A seeded source of test inputs.
#[derive(Debug)]
pub struct Gen {
    state: u64,
    size: u32,
    budget: u32,
}

/// The integer types [`Gen::int`] draws.
pub trait Int: Copy {
    const MIN: Self;
    const MAX: Self;
    fn widen(self) -> i128;
    fn narrow(wide: i128) -> Self;
}

macro_rules! ints {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MIN: $t = <$t>::MIN;
            const MAX: $t = <$t>::MAX;
            fn widen(self) -> i128 {
                self as i128
            }
            fn narrow(wide: i128) -> $t {
                wide as $t
            }
        }
    )*};
}
ints!(u8, u32, u64, usize, i32, i64);

/// A position in a collection whose length is only known inside the law.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Index(u64);

impl Index {
    /// The position in a collection of `len` items, uniform over `0..len`.
    pub fn of(self, len: usize) -> usize {
        assert!(len > 0, "an empty collection has no index");
        ((u128::from(self.0) * len as u128) >> 64) as usize
    }
}

/// Inclusive bounds of `range` over `T`.
fn bounds<T: Int>(range: impl RangeBounds<T>) -> (i128, i128) {
    let lo = match range.start_bound() {
        Bound::Included(lo) => lo.widen(),
        Bound::Excluded(lo) => lo.widen() + 1,
        Bound::Unbounded => T::MIN.widen(),
    };
    let hi = match range.end_bound() {
        Bound::Included(hi) => hi.widen(),
        Bound::Excluded(hi) => hi.widen() - 1,
        Bound::Unbounded => T::MAX.widen(),
    };
    assert!(lo <= hi, "empty range");
    (lo, hi)
}

impl Gen {
    /// The generator a case with this `seed` runs on. `size` is
    /// [`FULL_SIZE`] unless a failure is being shrunk.
    pub fn new(seed: u64, size: u32) -> Gen {
        Gen { state: seed, size, budget: size }
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform over `range`, which may reach the type's own limits
    /// (`i64::MIN..=i64::MAX`).
    pub fn int<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let (lo, hi) = bounds(range);
        // At most 2^64 values, so one draw covers the span.
        let span = (hi - lo) as u128 + 1;
        T::narrow(lo + (u128::from(self.next_u64()) % span) as i128)
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A multiple of `step` away from `lo`, uniform over the grid points in
    /// `lo..=hi`. With a power-of-two `step` every value prints and parses
    /// back exactly.
    pub fn grid(&mut self, lo: f64, hi: f64, step: f64) -> f64 {
        let points = ((hi - lo) / step).floor() as i64;
        lo + self.int(0..=points) as f64 * step
    }

    /// `len` items. The length is drawn from the whole of `len` and that many
    /// items are generated whatever the size, so the draws that follow do
    /// not depend on it; a case below full size then keeps only the first
    /// few — the range's minimum plus the size's share of its span.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        assert!(!matches!(len.end_bound(), Bound::Unbounded), "a length needs an upper bound");
        let (lo, hi) = bounds(len);
        let share = ((hi - lo) as u64 * u64::from(self.size)).div_ceil(u64::from(FULL_SIZE));
        let drawn = self.int(lo as usize..=hi as usize);
        let mut items: Vec<T> = (0..drawn).map(|_| item(self)).collect();
        items.truncate(lo as usize + share as usize);
        items
    }

    /// A string of characters drawn from `alphabet`, its length from `len`.
    pub fn string(&mut self, alphabet: &str, len: impl RangeBounds<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        self.vec(len, |g| *g.pick(&alphabet)).into_iter().collect()
    }

    /// A map built from `len` drawn entries; equal keys collapse, so it may
    /// come out shorter than the length drawn.
    pub fn map<K: Ord, V>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut key: impl FnMut(&mut Gen) -> K,
        mut value: impl FnMut(&mut Gen) -> V,
    ) -> BTreeMap<K, V> {
        self.vec(len, |g| (key(g), value(g))).into_iter().collect()
    }

    /// `Some` half of the time.
    pub fn option<T>(&mut self, some: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| some(self))
    }

    /// One of `items`, uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int(0..items.len())]
    }

    /// The position of one of `weights`, chosen in proportion to its weight.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let mut draw = self.int(0..total);
        weights
            .iter()
            .position(|&w| {
                let hit = draw < u64::from(w);
                if !hit {
                    draw -= u64::from(w);
                }
                hit
            })
            .expect("the draw is below the total weight")
    }

    pub fn index(&mut self) -> Index {
        Index(self.next_u64())
    }

    /// Whether a recursive generator may grow one more interior node. Each
    /// `true` spends one unit of the case's size; once it is spent the
    /// generator must return a leaf, which bounds every generated value and
    /// is what makes a smaller size a smaller value.
    pub fn descend(&mut self) -> bool {
        let granted = self.budget > 0;
        self.budget -= u32::from(granted);
        granted
    }
}

/// The seed of case number `case` of the property called `name`.
fn case_seed(name: &str, case: u32) -> u64 {
    Gen::new(fnv::fingerprint(name).wrapping_add(u64::from(case)), 0).next_u64()
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(the panic carried no message)")
}

/// Run `law` on `cases` values drawn by `gen`. The law fails by panicking.
///
/// On a failure the same seed is re-run at sizes 0, 1, 2, 4, … and the panic
/// raised here names the property, the case, its seed, the smallest of those
/// sizes that still fails, the value drawn there and the law's own message.
/// `gen(&mut Gen::new(seed, size))` rebuilds that value in a pinned test.
pub fn check<T: Debug>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut Gen) -> T,
    mut law: impl FnMut(T),
) {
    let mut run =
        |seed, size| catch_unwind(AssertUnwindSafe(|| law(gen(&mut Gen::new(seed, size)))));
    for case in 0..cases {
        let seed = case_seed(name, case);
        let Err(first) = run(seed, FULL_SIZE) else { continue };
        let smaller = (0..32).map(|k| 1u32 << k).take_while(|&size| size < FULL_SIZE);
        let (size, cause) = std::iter::once(0)
            .chain(smaller)
            .find_map(|size| run(seed, size).err().map(|cause| (size, cause)))
            .unwrap_or((FULL_SIZE, first));
        panic!(
            "property `{name}` failed at case {case} of {cases}: seed {seed:#018x}, size {size}\n\
             value: {:?}\ncause: {}",
            gen(&mut Gen::new(seed, size)),
            panic_message(cause.as_ref()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the property must fail");
        panic_message(payload.as_ref()).to_string()
    }

    /// Pins the generator: every build draws these values, so every build
    /// runs the same cases. The first five are the published splitmix64 test
    /// vector for this seed.
    #[test]
    fn first_eight_outputs_are_pinned() {
        let mut g = Gen::new(1_234_567, FULL_SIZE);
        let got: Vec<u64> = (0..8).map(|_| g.next_u64()).collect();
        assert_eq!(
            got,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821,
                7_804_594_928_223_864_054,
                10_895_525_637_215_051_397,
                5_078_158_048_327_840_177,
            ]
        );
        assert_eq!(case_seed("csv_roundtrip", 0), 11_661_930_420_823_786_520);
        assert_ne!(case_seed("csv_roundtrip", 0), case_seed("csv_roundtrip", 1));
        assert_ne!(case_seed("csv_roundtrip", 0), case_seed("limit_is_a_prefix", 0));
    }

    #[test]
    fn a_false_law_fails_with_name_case_seed_and_size() {
        let message = failure(|| {
            check(
                "short_vectors",
                50,
                |g| g.vec(0..40, |g| g.int(0u32..10)),
                |v| {
                    assert!(v.len() < 3, "{} items", v.len());
                },
            )
        });
        let seed = case_seed("short_vectors", 0);
        assert!(message.contains("property `short_vectors` failed at case 0 of 50"), "{message}");
        assert!(message.contains(&format!("seed {seed:#018x}")), "{message}");
        // 3 of 39 possible items are first kept at size 64.
        assert!(message.contains(", size 64\n"), "{message}");
        assert!(message.contains("cause: 3 items"), "{message}");
    }

    #[test]
    fn a_true_law_runs_every_case() {
        let mut runs = 0;
        check("counted", 37, |g| g.bool(), |_| runs += 1);
        assert_eq!(runs, 37);
    }

    #[test]
    fn a_seed_reproduces_its_value() {
        let draw = |g: &mut Gen| {
            (g.string(PRINTABLE, 0..30), g.vec(0..9, |g| g.grid(-4.0, 4.0, 0.25)), g.index())
        };
        let seed = case_seed("anything", 7);
        assert_eq!(draw(&mut Gen::new(seed, FULL_SIZE)), draw(&mut Gen::new(seed, FULL_SIZE)));
        assert_ne!(draw(&mut Gen::new(seed, FULL_SIZE)), draw(&mut Gen::new(seed + 1, FULL_SIZE)));
    }

    #[test]
    fn shrinking_reports_a_size_no_larger_than_the_original() {
        // The failing vector has 20 items or more; sizes 0..=128 keep at most
        // 13 of them and 256 keeps 26, so that is where it first fails again.
        let message = failure(|| {
            check("long_vectors", 10, |g| g.vec(0..=100, |g| g.bool()), |v| assert!(v.len() < 20))
        });
        assert!(message.contains(", size 256\n"), "{message}");

        // A law that fails everywhere shrinks all the way down.
        let message =
            failure(|| check("never", 1, |g| g.vec(0..9, |g| g.bool()), |_| panic!("no")));
        assert!(message.contains("size 0\n"), "{message}");
        assert!(message.contains("value: []"), "{message}");
    }

    #[test]
    fn draws_stay_in_range_and_reach_the_edges() {
        let mut g = Gen::new(3, FULL_SIZE);
        let mut seen = [false; 5];
        for _ in 0..2000 {
            seen[(g.int(-2i64..=2) + 2) as usize] = true;
            assert!((7..9).contains(&g.int(7usize..9)));
            let _ = g.int(i64::MIN..=i64::MAX);
            let _: u64 = g.int(..);
            let f = g.grid(-1.0, 1.0, 0.125);
            assert!((-1.0..=1.0).contains(&f) && (f * 8.0).fract() == 0.0);
            let s = g.string("ab\u{e9}", 2..=5);
            assert!(
                (2..=5).contains(&s.chars().count()) && s.chars().all(|c| "ab\u{e9}".contains(c))
            );
            assert!(g.map(0..4, |g| g.int(0u8..3), |g| g.bool()).len() < 4);
            assert_eq!(g.weighted(&[0, 5, 0]), 1);
            assert!(g.index().of(3) < 3);
        }
        assert_eq!(seen, [true; 5]);
        assert_eq!(PRINTABLE.chars().count(), 95);
        assert!(PRINTABLE.chars().eq(' '..='~'));
    }

    #[test]
    fn the_size_budget_bounds_a_recursive_generator() {
        fn tree(g: &mut Gen, depth: u32) -> u32 {
            if depth == 0 || !g.descend() {
                return 1;
            }
            1 + tree(g, depth - 1) + tree(g, depth - 1)
        }
        assert_eq!(tree(&mut Gen::new(9, 0), 12), 1);
        assert_eq!(tree(&mut Gen::new(9, 5), 12), 11);
        assert_eq!(tree(&mut Gen::new(9, FULL_SIZE), 12), 2 * FULL_SIZE + 1);
    }
}
