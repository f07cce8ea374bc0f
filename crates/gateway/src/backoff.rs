//! Exponential backoff with full jitter.
//!
//! The schedule follows the AWS "full jitter" recipe: the delay before retry
//! `n` is drawn uniformly from `[0, min(cap, base·2ⁿ)]`. Jitter decorrelates
//! clients that failed together (a retry stampede is how one hiccup becomes
//! an outage), and the draw is seeded so a given `(seed, key, attempt)` always
//! produces the same delay — chaos tests stay exact.

use lingua_ml::rng::Rng;

/// Retry policy: attempt budget plus the jittered-backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Base delay; retry `n` (1-based) is bounded by `base · 2ⁿ`.
    pub base_ms: u64,
    /// Upper bound on any single delay.
    pub cap_ms: u64,
    /// Maximum calls per backend per request (first try + retries).
    pub max_attempts: u32,
    /// Seed for the jitter draw.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_ms: 50, cap_ms: 2_000, max_attempts: 4, seed: 0 }
    }
}

impl BackoffPolicy {
    /// The exponential ceiling for retry `attempt` (1-based): `min(cap,
    /// base·2ⁿ)`, saturating instead of overflowing for large `attempt`.
    pub(crate) fn ceiling_ms(&self, attempt: u32) -> u64 {
        // 128-bit shift: `base · 2ⁿ` must saturate at the cap, not wrap.
        let exp = u128::from(self.base_ms) << attempt.min(64);
        exp.min(u128::from(self.cap_ms)) as u64
    }

    /// The jittered delay before retry `attempt` (1-based) of the request
    /// identified by `key`: uniform in `[0, ceiling]`, deterministic per
    /// `(seed, key, attempt)`.
    pub fn delay_ms(&self, key: u64, attempt: u32) -> u64 {
        let ceiling = self.ceiling_ms(attempt);
        if ceiling == 0 {
            return 0;
        }
        let stream = self.seed ^ key ^ u64::from(attempt).wrapping_mul(0x517c_c1b7_2722_0a95);
        let mut rng = Rng::seed_from_u64(stream);
        rng.gen_range(0..=ceiling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Property: every delay respects both the cap and the exponential
    /// ceiling, across a seed sweep. (Plain seed-loop property test; the
    /// bounds are the contract, the sweep is the generator.)
    #[test]
    fn delays_are_bounded_by_cap_and_exponential_ceiling() {
        for seed in 0..50u64 {
            let policy = BackoffPolicy { base_ms: 25, cap_ms: 800, seed, ..Default::default() };
            for key in [0u64, 1, 0xdead_beef, u64::MAX] {
                for attempt in 1..=12u32 {
                    let delay = policy.delay_ms(key, attempt);
                    assert!(delay <= policy.cap_ms, "delay {delay} over cap");
                    assert!(
                        delay <= policy.ceiling_ms(attempt),
                        "delay {delay} over ceiling {} at attempt {attempt}",
                        policy.ceiling_ms(attempt)
                    );
                }
            }
        }
    }

    /// Property: jitter stays within [0, base·2ⁿ] before the cap bites.
    #[test]
    fn jitter_band_is_zero_to_base_times_two_to_the_n() {
        let policy =
            BackoffPolicy { base_ms: 10, cap_ms: u64::MAX / 4, seed: 9, ..Default::default() };
        for attempt in 1..=10u32 {
            let band = policy.base_ms << attempt;
            for key in 0..200u64 {
                let delay = policy.delay_ms(key, attempt);
                assert!(delay <= band, "delay {delay} outside [0, {band}] at attempt {attempt}");
            }
        }
    }

    /// Property: the schedule is a pure function of (seed, key, attempt).
    #[test]
    fn deterministic_under_a_fixed_seed() {
        for seed in 0..20u64 {
            let a = BackoffPolicy { seed, ..Default::default() };
            let b = BackoffPolicy { seed, ..Default::default() };
            for key in 0..20u64 {
                for attempt in 1..=6u32 {
                    assert_eq!(a.delay_ms(key, attempt), b.delay_ms(key, attempt));
                }
            }
        }
    }

    #[test]
    fn different_keys_decorrelate() {
        let policy = BackoffPolicy { base_ms: 100, cap_ms: 100_000, seed: 4, ..Default::default() };
        let delays: Vec<u64> = (0..64).map(|key| policy.delay_ms(key, 5)).collect();
        let distinct: std::collections::HashSet<u64> = delays.iter().copied().collect();
        // Full jitter must spread correlated failures out; identical delays
        // across the board would recreate the stampede.
        assert!(distinct.len() > 32, "only {} distinct delays across 64 keys", distinct.len());
    }

    #[test]
    fn ceiling_saturates_instead_of_overflowing() {
        let policy = BackoffPolicy { base_ms: u64::MAX / 2, cap_ms: 1_000, ..Default::default() };
        assert_eq!(policy.ceiling_ms(63), 1_000);
        assert_eq!(policy.ceiling_ms(64), 1_000);
        let zero = BackoffPolicy { base_ms: 0, cap_ms: 0, ..Default::default() };
        assert_eq!(zero.delay_ms(1, 1), 0);
    }
}
