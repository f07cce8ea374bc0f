//! Gateway metrics: per-backend counters plus gateway-level routing counters.
//!
//! Same discipline as `lingua-serve`'s metrics: all mutation behind one
//! mutex, snapshots are plain values, and everything the
//! resilience machinery does — attempts, retries, faults by class, breaker
//! transitions, budget denials, fallback hits, added latency — is visible in
//! one place.

use crate::{BreakerState, BreakerStats, FaultClass};
use lingua_ml::sync::Mutex;

/// Counters for a single backend.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendCounters {
    /// Transport calls placed (first tries and retries).
    pub attempts: u64,
    /// Transport calls this backend answered successfully: a batched wire
    /// call counts once, whatever its members.
    pub served: u64,
    /// Retries against this backend (attempts beyond a request's first).
    pub retries: u64,
    /// Faults by class.
    pub timeouts: u64,
    pub rate_limited: u64,
    pub transient: u64,
    pub malformed: u64,
    /// Calls skipped because the token budget denied admission.
    pub budget_denied: u64,
    /// Calls skipped because the circuit breaker was open.
    pub breaker_denied: u64,
    /// Total backoff delay charged against this backend, in milliseconds.
    pub backoff_ms: u64,
}

impl BackendCounters {
    pub fn faults(&self) -> u64 {
        self.timeouts + self.rate_limited + self.transient + self.malformed
    }

    fn record_fault(&mut self, class: FaultClass) {
        match class {
            FaultClass::Timeout => self.timeouts += 1,
            FaultClass::RateLimited => self.rate_limited += 1,
            FaultClass::TransientServer => self.transient += 1,
            FaultClass::MalformedOutput => self.malformed += 1,
        }
    }
}

#[derive(Default)]
struct MetricsInner {
    backends: Vec<BackendCounters>,
    requests: u64,
    failovers: u64,
    cancelled: u64,
    degraded_cache_hits: u64,
    degraded_fallbacks: u64,
    degraded_static: u64,
    batches: u64,
    batch_members: u64,
    batch_splits: u64,
    salvaged_members: u64,
    resent_members: u64,
}

/// Interior-mutable metrics registry owned by the gateway.
pub struct GatewayMetrics {
    inner: Mutex<MetricsInner>,
}

impl GatewayMetrics {
    pub fn new(backend_count: usize) -> GatewayMetrics {
        GatewayMetrics {
            inner: Mutex::new(MetricsInner {
                backends: vec![BackendCounters::default(); backend_count],
                ..MetricsInner::default()
            }),
        }
    }

    /// Book `count` logical requests the gateway resolved.
    pub(crate) fn requests(&self, count: usize) {
        self.inner.lock().requests += count as u64;
    }

    pub(crate) fn attempt(&self, backend: usize, is_retry: bool) {
        let mut inner = self.inner.lock();
        inner.backends[backend].attempts += 1;
        if is_retry {
            inner.backends[backend].retries += 1;
        }
    }

    pub(crate) fn served(&self, backend: usize) {
        self.inner.lock().backends[backend].served += 1;
    }

    pub(crate) fn fault(&self, backend: usize, class: FaultClass) {
        self.inner.lock().backends[backend].record_fault(class);
    }

    pub(crate) fn budget_denied(&self, backend: usize) {
        self.inner.lock().backends[backend].budget_denied += 1;
    }

    pub(crate) fn breaker_denied(&self, backend: usize) {
        self.inner.lock().backends[backend].breaker_denied += 1;
    }

    pub(crate) fn backoff(&self, backend: usize, delay_ms: u64) {
        self.inner.lock().backends[backend].backoff_ms += delay_ms;
    }

    pub(crate) fn failover(&self) {
        self.inner.lock().failovers += 1;
    }

    pub(crate) fn cancelled(&self) {
        self.inner.lock().cancelled += 1;
    }

    /// Book one batched call of `members` requests entering the gateway.
    pub(crate) fn batch(&self, members: usize) {
        let mut inner = self.inner.lock();
        inner.batches += 1;
        inner.batch_members += members as u64;
    }

    /// Book how a placed batch of `members` ended: `answered` by its wire
    /// call, `resent` returned for the batcher to re-send. A call that left
    /// any member unanswered is a split, and its answers were salvaged.
    pub(crate) fn placed(&self, members: usize, answered: usize, resent: usize) {
        let mut inner = self.inner.lock();
        inner.resent_members += resent as u64;
        if answered < members {
            inner.batch_splits += 1;
            inner.salvaged_members += answered as u64;
        }
    }

    pub(crate) fn degraded_cache_hit(&self) {
        self.inner.lock().degraded_cache_hits += 1;
    }

    pub(crate) fn degraded_fallback(&self) {
        self.inner.lock().degraded_fallbacks += 1;
    }

    pub(crate) fn degraded_static(&self) {
        self.inner.lock().degraded_static += 1;
    }

    pub(crate) fn snapshot(
        &self,
        names: &[String],
        breakers: &[(BreakerState, BreakerStats)],
    ) -> GatewaySnapshot {
        let inner = self.inner.lock();
        let backends = inner
            .backends
            .iter()
            .zip(names)
            .zip(breakers)
            .map(|((counters, name), (state, stats))| BackendSnapshot {
                name: name.clone(),
                counters: *counters,
                breaker_state: state.label(),
                breaker: *stats,
            })
            .collect();
        GatewaySnapshot {
            requests: inner.requests,
            failovers: inner.failovers,
            cancelled: inner.cancelled,
            degraded_cache_hits: inner.degraded_cache_hits,
            degraded_fallbacks: inner.degraded_fallbacks,
            degraded_static: inner.degraded_static,
            batches: inner.batches,
            batch_members: inner.batch_members,
            batch_splits: inner.batch_splits,
            salvaged_members: inner.salvaged_members,
            resent_members: inner.resent_members,
            backends,
        }
    }
}

/// Point-in-time view of one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSnapshot {
    pub name: String,
    pub counters: BackendCounters,
    pub breaker_state: &'static str,
    pub breaker: BreakerStats,
}

/// Point-in-time view of the whole gateway.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewaySnapshot {
    /// Logical requests the gateway resolved: one per lone completion or
    /// `embed` call, and one per member of a batched call that left with its
    /// outcome. A member returned for re-sending is counted once, when a
    /// later call resolves it.
    pub requests: u64,
    /// Requests that moved past an attempted or shielded backend to the next
    /// (a batched placement moving on counts once).
    pub failovers: u64,
    /// Requests abandoned because the caller's deadline passed or the job was
    /// cancelled mid-flight; the gateway stops retrying and bills nothing.
    /// Counted per request, like `requests`: every batch member whose own
    /// token fired is one.
    pub cancelled: u64,
    /// Requests answered from the degraded-mode response cache.
    pub degraded_cache_hits: u64,
    /// Requests answered by the degraded-mode fallback backend.
    pub degraded_fallbacks: u64,
    /// Requests whose answer was withheld, `NoAnswer::Unavailable` (nothing
    /// left).
    pub degraded_static: u64,
    /// Batched calls placed (one per `complete_batch` of more than one member
    /// entering the gateway).
    pub batches: u64,
    /// Members carried by those batched calls, a re-sent member once per
    /// call it rode.
    pub batch_members: u64,
    /// Batched calls whose placement left at least one member unanswered.
    pub batch_splits: u64,
    /// Members those split calls did answer: kept, never re-sent (also in
    /// `batch_members`).
    pub salvaged_members: u64,
    /// Members returned `NoAnswer::Resend` for the batcher to re-send in a
    /// later flush (also in `batch_members`).
    pub resent_members: u64,
    pub backends: Vec<BackendSnapshot>,
}

impl GatewaySnapshot {
    /// Total backoff latency added across backends, in milliseconds.
    pub fn added_backoff_ms(&self) -> u64 {
        self.backends.iter().map(|b| b.counters.backoff_ms).sum()
    }

    /// Mean members per batched call (0 when no batch was placed).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_members as f64 / self.batches as f64
        }
    }

    /// Total retries across backends.
    pub fn retries(&self) -> u64 {
        self.backends.iter().map(|b| b.counters.retries).sum()
    }

    /// Total faults observed across backends.
    pub fn faults(&self) -> u64 {
        self.backends.iter().map(|b| b.counters.faults()).sum()
    }

    /// Requests that were answered degraded (cache, fallback, or static).
    pub fn degraded(&self) -> u64 {
        self.degraded_cache_hits + self.degraded_fallbacks + self.degraded_static
    }

    /// Human-readable report, matching the serve metrics style.
    pub fn report(&self) -> String {
        let mut out = format!(
            "gateway metrics\n\
             \x20 requests        {}\n\
             \x20 failovers       {}\n\
             \x20 cancelled       {}\n\
             \x20 degraded        {} ({} cached, {} fallback, {} static)\n",
            self.requests,
            self.failovers,
            self.cancelled,
            self.degraded(),
            self.degraded_cache_hits,
            self.degraded_fallbacks,
            self.degraded_static,
        );
        if self.batches > 0 {
            out.push_str(&format!(
                "\x20 batches         {} ({} members, {:.2} mean occupancy, {} split, \
                 {} salvaged, {} resent)\n",
                self.batches,
                self.batch_members,
                self.mean_batch_occupancy(),
                self.batch_splits,
                self.salvaged_members,
                self.resent_members,
            ));
        }
        for backend in &self.backends {
            let c = &backend.counters;
            out.push_str(&format!(
                "\x20 backend {:<12} {} attempts, {} served, {} retries, {} faults \
                 (t/r/s/m {}/{}/{}/{}), {} budget-denied, {} breaker-denied, \
                 {} ms backoff, breaker {} (o/h/c {}/{}/{}, {} denied)\n",
                backend.name,
                c.attempts,
                c.served,
                c.retries,
                c.faults(),
                c.timeouts,
                c.rate_limited,
                c.transient,
                c.malformed,
                c.budget_denied,
                c.breaker_denied,
                c.backoff_ms,
                backend.breaker_state,
                backend.breaker.opened,
                backend.breaker.half_opened,
                backend.breaker.closed,
                backend.breaker.denied,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_on_the_right_backend() {
        let metrics = GatewayMetrics::new(2);
        metrics.requests(1);
        metrics.attempt(0, false);
        metrics.fault(0, FaultClass::Timeout);
        metrics.backoff(0, 40);
        metrics.attempt(0, true);
        metrics.fault(0, FaultClass::TransientServer);
        metrics.failover();
        metrics.attempt(1, false);
        metrics.served(1);
        let names = vec!["primary".to_string(), "standby".to_string()];
        let breakers = vec![(BreakerState::Closed, BreakerStats::default()); 2];
        let snap = metrics.snapshot(&names, &breakers);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.failovers, 1);
        assert_eq!(snap.backends[0].counters.attempts, 2);
        assert_eq!(snap.backends[0].counters.retries, 1);
        assert_eq!(snap.backends[0].counters.faults(), 2);
        assert_eq!(snap.backends[0].counters.backoff_ms, 40);
        assert_eq!(snap.backends[1].counters.served, 1);
        assert_eq!(snap.added_backoff_ms(), 40);
        assert_eq!(snap.retries(), 1);
        assert_eq!(snap.faults(), 2);
        assert!(snap.report().contains("primary"));
        assert!(snap.report().contains("standby"));
    }

    #[test]
    fn degraded_paths_are_distinguished() {
        let metrics = GatewayMetrics::new(1);
        metrics.degraded_cache_hit();
        metrics.degraded_fallback();
        metrics.degraded_static();
        let snap = metrics
            .snapshot(&["only".to_string()], &[(BreakerState::Open, BreakerStats::default())]);
        assert_eq!(snap.degraded(), 3);
        assert_eq!(snap.degraded_cache_hits, 1);
        assert_eq!(snap.degraded_fallbacks, 1);
        assert_eq!(snap.degraded_static, 1);
        assert!(snap.report().contains("breaker open"));
    }

    #[test]
    fn salvaged_members_ride_the_batch_line() {
        let metrics = GatewayMetrics::new(1);
        metrics.batch(8);
        metrics.placed(8, 3, 4);
        metrics.batch(4);
        metrics.placed(4, 4, 0);
        let snap = metrics
            .snapshot(&["only".to_string()], &[(BreakerState::Closed, BreakerStats::default())]);
        assert_eq!((snap.batch_splits, snap.salvaged_members, snap.resent_members), (1, 3, 4));
        assert_eq!(snap.requests, 0, "requests are booked as they resolve");
        assert!(snap.report().contains("1 split, 3 salvaged, 4 resent"), "{}", snap.report());
    }
}
