//! Per-backend circuit breaker.
//!
//! Classic three-state machine. **Closed**: calls flow; outcomes feed a
//! rolling window, and when the window's failure rate crosses the threshold
//! the breaker opens. **Open**: calls are denied outright; after a cooldown
//! the breaker half-opens. **HalfOpen**: a small probe budget is let through;
//! enough successes close the breaker, any failure re-opens it.
//!
//! The cooldown is counted in *denied calls*, not wall-clock time. The whole
//! workspace simulates latency rather than sleeping, and a call-count clock
//! keeps the state machine a pure function of the call sequence — which is
//! what lets chaos tests assert exact transition counts.

use lingua_ml::sync::Mutex;
use std::collections::VecDeque;

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Tuning knobs for [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Rolling outcome-window size.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip (avoids
    /// opening on the first failure of a cold backend).
    pub min_calls: usize,
    /// Failure rate in the window at or above which the breaker opens.
    pub failure_threshold: f64,
    /// Denied acquisitions while Open before the breaker half-opens.
    pub cooldown_denials: u32,
    /// Probe calls admitted while HalfOpen.
    pub probe_trials: u32,
    /// Probe successes required to close (≤ `probe_trials`).
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            min_calls: 8,
            failure_threshold: 0.5,
            cooldown_denials: 16,
            probe_trials: 3,
            probe_successes: 2,
        }
    }
}

/// Lifetime transition counters, exported into gateway metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BreakerStats {
    /// Closed/HalfOpen → Open transitions.
    pub opened: u64,
    /// Open → HalfOpen transitions.
    pub half_opened: u64,
    /// HalfOpen → Closed transitions.
    pub closed: u64,
    /// Calls denied while Open (the breaker's "open time" in call counts).
    pub denied: u64,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// Rolling outcomes, `true` = failure.
    window: VecDeque<bool>,
    failures: usize,
    denials_since_open: u32,
    probes_in_flight: u32,
    probe_successes: u32,
    stats: BreakerStats,
}

/// A circuit breaker guarding one backend.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                window: VecDeque::new(),
                failures: 0,
                denials_since_open: 0,
                probes_in_flight: 0,
                probe_successes: 0,
                stats: BreakerStats::default(),
            }),
        }
    }

    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    pub fn stats(&self) -> BreakerStats {
        self.inner.lock().stats
    }

    /// Ask to place a call. `true` admits the call; the caller must report
    /// the outcome via [`CircuitBreaker::on_success`] /
    /// [`CircuitBreaker::on_failure`]. `false` means the backend is shielded
    /// — skip it.
    pub fn acquire(&self) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if inner.denials_since_open < self.config.cooldown_denials {
                    inner.denials_since_open += 1;
                    inner.stats.denied += 1;
                    false
                } else {
                    // Cooldown served: half-open and admit this call as the
                    // first probe.
                    inner.state = BreakerState::HalfOpen;
                    inner.stats.half_opened += 1;
                    inner.probes_in_flight = 1;
                    inner.probe_successes = 0;
                    true
                }
            }
            BreakerState::HalfOpen => {
                if inner.probes_in_flight < self.config.probe_trials {
                    inner.probes_in_flight += 1;
                    true
                } else {
                    inner.stats.denied += 1;
                    false
                }
            }
        }
    }

    /// Report a successful call.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => self.push_outcome(&mut inner, false),
            BreakerState::HalfOpen => {
                inner.probe_successes += 1;
                if inner.probe_successes >= self.config.probe_successes {
                    inner.state = BreakerState::Closed;
                    inner.stats.closed += 1;
                    inner.window.clear();
                    inner.failures = 0;
                }
            }
            // A straggler finishing after the breaker opened; the window is
            // stale, ignore it.
            BreakerState::Open => {}
        }
    }

    /// Report a failed call.
    pub fn on_failure(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                self.push_outcome(&mut inner, true);
                if inner.window.len() >= self.config.min_calls {
                    let rate = inner.failures as f64 / inner.window.len() as f64;
                    if rate >= self.config.failure_threshold {
                        self.trip(&mut inner);
                    }
                }
            }
            // Any probe failure sends the breaker straight back to Open.
            BreakerState::HalfOpen => self.trip(&mut inner),
            BreakerState::Open => {}
        }
    }

    fn push_outcome(&self, inner: &mut BreakerInner, failed: bool) {
        if self.config.window == 0 {
            return;
        }
        if inner.window.len() == self.config.window {
            if let Some(true) = inner.window.pop_front() {
                inner.failures -= 1;
            }
        }
        inner.window.push_back(failed);
        if failed {
            inner.failures += 1;
        }
    }

    fn trip(&self, inner: &mut BreakerInner) {
        inner.state = BreakerState::Open;
        inner.stats.opened += 1;
        inner.denials_since_open = 0;
        inner.probes_in_flight = 0;
        inner.probe_successes = 0;
        inner.window.clear();
        inner.failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_calls: 4,
            failure_threshold: 0.5,
            cooldown_denials: 3,
            probe_trials: 2,
            probe_successes: 2,
        }
    }

    fn drive_open(breaker: &CircuitBreaker) {
        // Four straight failures: window is at min_calls with rate 1.0.
        for _ in 0..4 {
            assert!(breaker.acquire());
            breaker.on_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn closed_to_open_on_failure_threshold() {
        let breaker = CircuitBreaker::new(quick_config());
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Below min_calls nothing trips, even at 100% failures.
        for _ in 0..3 {
            assert!(breaker.acquire());
            breaker.on_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.acquire());
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.stats().opened, 1);
    }

    #[test]
    fn successes_dilute_the_window() {
        let breaker = CircuitBreaker::new(quick_config());
        // Alternate success/failure: rate stays at 0.5... threshold is >=,
        // so interleave 2 successes per failure to stay under it.
        for _ in 0..12 {
            assert!(breaker.acquire());
            breaker.on_success();
            assert!(breaker.acquire());
            breaker.on_success();
            assert!(breaker.acquire());
            breaker.on_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn open_denies_until_cooldown_then_half_opens() {
        let breaker = CircuitBreaker::new(quick_config());
        drive_open(&breaker);
        // cooldown_denials = 3: exactly three denied acquires, then the next
        // one half-opens and is admitted as a probe.
        assert!(!breaker.acquire());
        assert!(!breaker.acquire());
        assert!(!breaker.acquire());
        assert!(breaker.acquire(), "post-cooldown acquire becomes the probe");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert_eq!(breaker.stats().half_opened, 1);
        assert_eq!(breaker.stats().denied, 3);
    }

    /// Serve the cooldown (3 denials) and take the half-opening probe slot.
    fn drive_half_open(breaker: &CircuitBreaker) {
        for _ in 0..3 {
            assert!(!breaker.acquire());
        }
        assert!(breaker.acquire());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let breaker = CircuitBreaker::new(quick_config());
        drive_open(&breaker);
        drive_half_open(&breaker);
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::HalfOpen, "one success is not enough");
        assert!(breaker.acquire(), "second probe slot");
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.stats().closed, 1);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let breaker = CircuitBreaker::new(quick_config());
        drive_open(&breaker);
        drive_half_open(&breaker);
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.stats().opened, 2);
        // The fresh Open state restarts the cooldown from zero.
        drive_half_open(&breaker);
    }

    #[test]
    fn half_open_caps_concurrent_probes() {
        let breaker = CircuitBreaker::new(quick_config());
        drive_open(&breaker);
        drive_half_open(&breaker);
        // probe_trials = 2: one probe was admitted on the half-open
        // transition, one more here; further acquires are denied until the
        // probes report back.
        assert!(breaker.acquire());
        assert!(!breaker.acquire());
        assert!(!breaker.acquire());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn window_rolls_old_outcomes_out() {
        let config = BreakerConfig { window: 4, min_calls: 4, ..quick_config() };
        let breaker = CircuitBreaker::new(config);
        // Two early failures, then a long run of successes pushes them out of
        // the window entirely.
        for _ in 0..2 {
            breaker.acquire();
            breaker.on_failure();
        }
        for _ in 0..6 {
            breaker.acquire();
            breaker.on_success();
        }
        // Window now holds 4 successes; two fresh failures put the rate at
        // exactly 0.5 and trip it.
        breaker.acquire();
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.acquire();
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn full_recovery_cycle_counts_transitions() {
        let breaker = CircuitBreaker::new(quick_config());
        for _ in 0..2 {
            drive_open(&breaker);
            drive_half_open(&breaker);
            breaker.on_success();
            assert!(breaker.acquire());
            breaker.on_success();
            assert_eq!(breaker.state(), BreakerState::Closed);
        }
        let stats = breaker.stats();
        assert_eq!(stats.opened, 2);
        assert_eq!(stats.half_opened, 2);
        assert_eq!(stats.closed, 2);
    }
}
