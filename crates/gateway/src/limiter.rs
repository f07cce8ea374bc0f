//! Token-budget rate limiter.
//!
//! A token bucket denominated in *LLM tokens*, not calls — the quantity both
//! hosted-API quotas and the paper's cost model are written in. The bucket
//! refills by a fixed amount per admission check (a call-count clock, like
//! the breaker's cooldown, so behaviour is a pure function of the request
//! sequence rather than wall time).

use lingua_ml::sync::Mutex;

/// Bucket parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBudgetConfig {
    /// Bucket capacity: the largest burst of tokens admitted back-to-back.
    pub capacity: u64,
    /// Tokens restored on every admission check.
    pub refill_per_check: u64,
}

impl Default for TokenBudgetConfig {
    fn default() -> Self {
        TokenBudgetConfig { capacity: 100_000, refill_per_check: 500 }
    }
}

#[derive(Debug)]
struct BudgetState {
    available: u64,
    denied: u64,
}

/// A token bucket guarding one backend.
#[derive(Debug)]
pub struct TokenBudget {
    config: TokenBudgetConfig,
    state: Mutex<BudgetState>,
}

impl TokenBudget {
    pub fn new(config: TokenBudgetConfig) -> TokenBudget {
        TokenBudget {
            state: Mutex::new(BudgetState { available: config.capacity, denied: 0 }),
            config,
        }
    }

    /// Admit a call expected to cost `tokens`; on admission the cost is
    /// debited. Refill happens first, so a drained bucket recovers as
    /// traffic keeps arriving.
    pub fn try_consume(&self, tokens: u64) -> bool {
        let mut state = self.state.lock();
        state.available =
            (state.available + self.config.refill_per_check).min(self.config.capacity);
        if state.available >= tokens {
            state.available -= tokens;
            true
        } else {
            state.denied += 1;
            false
        }
    }

    pub fn available(&self) -> u64 {
        self.state.lock().available
    }

    pub fn denied(&self) -> u64 {
        self.state.lock().denied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_up_to_capacity_then_denies() {
        let budget = TokenBudget::new(TokenBudgetConfig { capacity: 1_000, refill_per_check: 0 });
        assert!(budget.try_consume(600));
        assert!(budget.try_consume(400));
        assert!(!budget.try_consume(1));
        assert_eq!(budget.denied(), 1);
    }

    #[test]
    fn refill_restores_admission() {
        let budget = TokenBudget::new(TokenBudgetConfig { capacity: 100, refill_per_check: 50 });
        assert!(budget.try_consume(100));
        // 0 available; each check refills 50.
        assert!(!budget.try_consume(100));
        assert!(budget.try_consume(100), "two refills cover the cost");
        assert!(!budget.try_consume(100));
    }

    #[test]
    fn refill_never_exceeds_capacity() {
        let budget = TokenBudget::new(TokenBudgetConfig { capacity: 100, refill_per_check: 90 });
        for _ in 0..10 {
            assert!(!budget.try_consume(150), "cost above capacity can never be admitted");
        }
        assert_eq!(budget.available(), 100);
    }
}
