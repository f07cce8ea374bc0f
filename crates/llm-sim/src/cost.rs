//! Token counting and dollar-cost accounting.
//!
//! The paper's core efficiency argument is that LLM calls are expensive in
//! money, latency, and privacy; the optimizer exists to minimize them. Every
//! call through [`crate::SimLlm`] is metered here so benchmark binaries can
//! report call counts and simulated spend.

use std::sync::atomic::{AtomicU64, Ordering};

/// Approximate tokenizer: whitespace-split words plus a surcharge for long
/// words (BPE splits them) and punctuation. Close enough to real tokenizers
/// to make relative comparisons meaningful.
pub fn count_tokens(text: &str) -> usize {
    let mut tokens = 0usize;
    for word in text.split_whitespace() {
        let chars = word.chars().count();
        // ~1 token per 4 characters, minimum 1 per word.
        tokens += 1 + chars / 5;
    }
    tokens.max(if text.is_empty() { 0 } else { 1 })
}

/// Per-1k-token pricing, defaulting to GPT-3.5-era rates (USD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenPricing {
    pub input_per_1k: f64,
    pub output_per_1k: f64,
}

impl Default for TokenPricing {
    fn default() -> Self {
        TokenPricing { input_per_1k: 0.0015, output_per_1k: 0.002 }
    }
}

/// Cumulative usage across a service's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub calls: u64,
    pub tokens_in: u64,
    pub tokens_out: u64,
    /// Calls answered from a response cache (not counted in `calls`).
    pub cached_calls: u64,
    /// Input tokens the cached calls would have billed. Together with
    /// `tokens_out_saved` this makes cache savings exact instead of inferred
    /// from hit counts.
    pub tokens_in_saved: u64,
    /// Output tokens the cached calls would have billed.
    pub tokens_out_saved: u64,
    /// Calls aborted by a transport fault before a response was produced
    /// (not counted in `calls`; any billed prompt tokens land in
    /// `tokens_in`).
    pub failed_calls: u64,
}

impl Usage {
    pub fn record(&mut self, tokens_in: usize, tokens_out: usize) {
        self.calls += 1;
        self.tokens_in += tokens_in as u64;
        self.tokens_out += tokens_out as u64;
    }

    /// Record a call answered from a cache: nothing billed, exact savings
    /// booked.
    pub fn record_cached(&mut self, tokens_in: usize, tokens_out: usize) {
        self.cached_calls += 1;
        self.tokens_in_saved += tokens_in as u64;
        self.tokens_out_saved += tokens_out as u64;
    }

    /// Record a call aborted by a transport fault: the prompt was billed but
    /// no response was produced.
    pub fn record_failed(&mut self, tokens_in: usize) {
        self.failed_calls += 1;
        self.tokens_in += tokens_in as u64;
    }

    pub fn cost_usd(&self, pricing: &TokenPricing) -> f64 {
        self.tokens_in as f64 / 1000.0 * pricing.input_per_1k
            + self.tokens_out as f64 / 1000.0 * pricing.output_per_1k
    }

    /// Dollars the cached calls avoided spending.
    pub fn saved_usd(&self, pricing: &TokenPricing) -> f64 {
        self.tokens_in_saved as f64 / 1000.0 * pricing.input_per_1k
            + self.tokens_out_saved as f64 / 1000.0 * pricing.output_per_1k
    }

    /// Add another usage tally into this one (e.g. summing per-backend
    /// counters at a gateway).
    pub fn merge(&mut self, other: &Usage) {
        self.calls += other.calls;
        self.tokens_in += other.tokens_in;
        self.tokens_out += other.tokens_out;
        self.cached_calls += other.cached_calls;
        self.tokens_in_saved += other.tokens_in_saved;
        self.tokens_out_saved += other.tokens_out_saved;
        self.failed_calls += other.failed_calls;
    }

    /// Usage delta since an earlier snapshot.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            calls: self.calls - earlier.calls,
            tokens_in: self.tokens_in - earlier.tokens_in,
            tokens_out: self.tokens_out - earlier.tokens_out,
            cached_calls: self.cached_calls - earlier.cached_calls,
            tokens_in_saved: self.tokens_in_saved - earlier.tokens_in_saved,
            tokens_out_saved: self.tokens_out_saved - earlier.tokens_out_saved,
            failed_calls: self.failed_calls - earlier.failed_calls,
        }
    }
}

/// Lock-free usage accounting for the concurrent hot path.
///
/// Each counter is an independent atomic, so recording a call never takes a
/// lock and never contends with the response cache. [`AtomicUsage::snapshot`]
/// reads the counters individually; under quiescence (after workers join, or
/// between experiment arms) the snapshot is exact to the token — and
/// therefore to the cent — which is what the conservation suites assert. A
/// snapshot raced by in-flight writers may split one call across two reads,
/// but it never invents or loses a token once the writers drain.
#[derive(Debug, Default)]
pub struct AtomicUsage {
    calls: AtomicU64,
    tokens_in: AtomicU64,
    tokens_out: AtomicU64,
    cached_calls: AtomicU64,
    tokens_in_saved: AtomicU64,
    tokens_out_saved: AtomicU64,
    failed_calls: AtomicU64,
}

impl AtomicUsage {
    pub fn new() -> AtomicUsage {
        AtomicUsage::default()
    }

    /// Record a billed call (see [`Usage::record`]).
    pub fn record(&self, tokens_in: usize, tokens_out: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.tokens_in.fetch_add(tokens_in as u64, Ordering::Relaxed);
        self.tokens_out.fetch_add(tokens_out as u64, Ordering::Relaxed);
    }

    /// Record a call answered from a cache (see [`Usage::record_cached`]).
    pub fn record_cached(&self, tokens_in: usize, tokens_out: usize) {
        self.cached_calls.fetch_add(1, Ordering::Relaxed);
        self.tokens_in_saved.fetch_add(tokens_in as u64, Ordering::Relaxed);
        self.tokens_out_saved.fetch_add(tokens_out as u64, Ordering::Relaxed);
    }

    /// Record a transport-faulted call (see [`Usage::record_failed`]).
    pub fn record_failed(&self, tokens_in: usize) {
        self.failed_calls.fetch_add(1, Ordering::Relaxed);
        self.tokens_in.fetch_add(tokens_in as u64, Ordering::Relaxed);
    }

    /// Point-in-time [`Usage`] view. Never blocks writers.
    pub fn snapshot(&self) -> Usage {
        Usage {
            calls: self.calls.load(Ordering::Relaxed),
            tokens_in: self.tokens_in.load(Ordering::Relaxed),
            tokens_out: self.tokens_out.load(Ordering::Relaxed),
            cached_calls: self.cached_calls.load(Ordering::Relaxed),
            tokens_in_saved: self.tokens_in_saved.load(Ordering::Relaxed),
            tokens_out_saved: self.tokens_out_saved.load(Ordering::Relaxed),
            failed_calls: self.failed_calls.load(Ordering::Relaxed),
        }
    }

    /// Merge a finished [`Usage`] tally into the atomic counters.
    pub fn merge(&self, other: &Usage) {
        self.calls.fetch_add(other.calls, Ordering::Relaxed);
        self.tokens_in.fetch_add(other.tokens_in, Ordering::Relaxed);
        self.tokens_out.fetch_add(other.tokens_out, Ordering::Relaxed);
        self.cached_calls.fetch_add(other.cached_calls, Ordering::Relaxed);
        self.tokens_in_saved.fetch_add(other.tokens_in_saved, Ordering::Relaxed);
        self.tokens_out_saved.fetch_add(other.tokens_out_saved, Ordering::Relaxed);
        self.failed_calls.fetch_add(other.failed_calls, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_counts_scale_with_text() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("hi"), 1);
        let short = count_tokens("determine if these entities match");
        let long = count_tokens(
            "determine if these entities match: record a has a very long description field",
        );
        assert!(long > short);
        // Long words cost more than one token.
        assert!(count_tokens("internationalization") >= 4);
    }

    #[test]
    fn usage_accumulates_and_prices() {
        let mut u = Usage::default();
        u.record(1000, 500);
        u.record(500, 250);
        assert_eq!(u.calls, 2);
        assert_eq!(u.tokens_in, 1500);
        assert_eq!(u.tokens_out, 750);
        let cost = u.cost_usd(&TokenPricing::default());
        assert!((cost - (1.5 * 0.0015 + 0.75 * 0.002)).abs() < 1e-12);
    }

    #[test]
    fn since_computes_deltas() {
        let mut u = Usage::default();
        u.record(100, 10);
        let snapshot = u;
        u.record(200, 20);
        u.record_cached(50, 5);
        u.record_failed(30);
        let delta = u.since(&snapshot);
        assert_eq!(delta.calls, 1);
        assert_eq!(delta.tokens_in, 230);
        assert_eq!(delta.tokens_out, 20);
        assert_eq!(delta.cached_calls, 1);
        assert_eq!(delta.tokens_in_saved, 50);
        assert_eq!(delta.tokens_out_saved, 5);
        assert_eq!(delta.failed_calls, 1);
    }

    #[test]
    fn cached_calls_book_exact_savings() {
        let mut u = Usage::default();
        u.record_cached(1000, 500);
        u.record_cached(1000, 500);
        assert_eq!(u.cached_calls, 2);
        assert_eq!(u.calls, 0, "cached calls bill nothing");
        assert_eq!(u.cost_usd(&TokenPricing::default()), 0.0);
        let saved = u.saved_usd(&TokenPricing::default());
        assert!((saved - (2.0 * 0.0015 + 1.0 * 0.002)).abs() < 1e-12);
    }

    #[test]
    fn failed_calls_bill_prompt_tokens() {
        let mut u = Usage::default();
        u.record_failed(1000);
        assert_eq!(u.failed_calls, 1);
        assert_eq!(u.calls, 0);
        assert_eq!(u.tokens_in, 1000);
        let cost = u.cost_usd(&TokenPricing::default());
        assert!((cost - 0.0015).abs() < 1e-12, "aborted calls still cost input tokens");
    }

    #[test]
    fn atomic_usage_mirrors_usage_semantics() {
        let atomic = AtomicUsage::new();
        atomic.record(1000, 500);
        atomic.record_cached(50, 5);
        atomic.record_failed(30);
        let mut reference = Usage::default();
        reference.record(1000, 500);
        reference.record_cached(50, 5);
        reference.record_failed(30);
        assert_eq!(atomic.snapshot(), reference);
        atomic.merge(&reference);
        assert_eq!(atomic.snapshot().calls, 2);
        assert_eq!(atomic.snapshot().tokens_in, 2060);
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = Usage::default();
        a.record(10, 5);
        let mut b = Usage::default();
        b.record(20, 10);
        b.record_cached(7, 3);
        b.record_failed(4);
        a.merge(&b);
        assert_eq!(a.calls, 2);
        assert_eq!(a.tokens_in, 34);
        assert_eq!(a.tokens_out, 15);
        assert_eq!(a.cached_calls, 1);
        assert_eq!(a.tokens_in_saved, 7);
        assert_eq!(a.tokens_out_saved, 3);
        assert_eq!(a.failed_calls, 1);
    }
}
