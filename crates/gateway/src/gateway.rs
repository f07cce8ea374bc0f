//! The gateway: one service façade over fallible backends.
//!
//! [`Gateway`] implements [`LlmService`], so it drops into
//! `ContextFactory::build_with_llm` and the serve registry unchanged, and
//! hides the whole resilience story behind that contract:
//!
//! 1. **Retry** — a faulted call is retried against the same backend with
//!    jittered exponential backoff, up to the policy's attempt budget.
//!    Non-retryable faults (malformed output) skip straight to failover.
//! 2. **Circuit breaking** — each backend has a breaker; an unhealthy
//!    backend is shielded from traffic until its probes recover.
//! 3. **Failover** — when a backend is exhausted, denied, or shielded, the
//!    request moves to the next backend in priority order.
//! 4. **Degraded mode** — when every backend fails: answer from the stale
//!    response cache if this prompt succeeded before, else ask the (cheap,
//!    reliable) fallback backend, else withhold the answer
//!    ([`NoAnswer::Unavailable`]).
//! 5. **Per-member placement** — a batch of more than one is placed once, as
//!    one wire call on the first backend that admits it, and every answer it
//!    brings back is kept. A member it did not answer — its own fault, or
//!    never reached past a cut — comes back [`NoAnswer::Resend`] with the
//!    attempts it has spent (its backoff charged), and the batcher re-sends it
//!    in a later flush beside other jobs' members. A member whose attempt
//!    budget is spent, or whose fault is not retryable, goes alone down the
//!    failover and degraded ladder, and so does every member of a batch no
//!    backend admits. A batch of one is a lone request: the resilient loop,
//!    from the attempts it carries.
//!
//! Backoff delays are charged to the simulated-latency counter rather than
//! slept, like every latency in this workspace — deterministic and fast.

use crate::fault::prompt_key;
use crate::{
    BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker, GatewayMetrics, GatewaySnapshot,
    LlmTransport, TokenBudget, TokenBudgetConfig, TransportError, Verdict,
};
use lingua_llm_sim::cost::count_tokens;
use lingua_llm_sim::hotpath::DEFAULT_SHARDS;
use lingua_llm_sim::{
    AtomicUsage, BatchOutcome, CancelReason, CodeGenSpec, CompletionRequest, GeneratedCode,
    LlmService, NoAnswer, ShardedLru, Usage,
};
use lingua_trace::{SpanKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Embedding dimension of the degraded-mode zero vector (the simulator's
/// hashing-vectorizer width).
const DEGRADED_EMBED_DIM: usize = 512;

/// Gateway tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Retry budget and backoff schedule (shared by all backends).
    pub backoff: BackoffPolicy,
    /// Circuit-breaker tuning (one breaker per backend).
    pub breaker: BreakerConfig,
    /// Optional per-backend token budget; `None` disables rate limiting.
    pub budget: Option<TokenBudgetConfig>,
    /// Capacity of the degraded-mode stale-response cache.
    pub stale_cache_capacity: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backoff: BackoffPolicy::default(),
            breaker: BreakerConfig::default(),
            budget: None,
            stale_cache_capacity: 1_024,
        }
    }
}

/// Outcome of the resilient call loop, with the index of the backend that
/// served or faulted. `Cancelled` is distinct from `Exhausted` so a job whose
/// deadline fired mid-retry does not fall through to the degraded ladder
/// (stale cache / fallback / withheld answer) — the caller is gone, so
/// serving a degraded answer would only distort metrics. `Faulted` carries
/// the fault that ended a call placed without retry.
enum Resilient<T> {
    Served(usize, T),
    Exhausted,
    Cancelled(CancelReason),
    Faulted(usize, TransportError),
}

/// One batched wire call, its reply checked before it is believed: a
/// transport is where real providers plug in, so an `Ok` that does not carry
/// one response and one split per request is malformed output, not an answer
/// — and so is a partial reply without one verdict per member, or, when cut,
/// one per member before the cut.
fn batch_reply(
    transport: &dyn LlmTransport,
    requests: &[CompletionRequest],
) -> Result<BatchOutcome, TransportError> {
    let n = requests.len();
    let (members, splits) = match transport.complete_batch(requests) {
        Ok(outcome) if outcome.responses.len() != n || outcome.splits.len() != n => {
            (outcome.responses.len(), outcome.splits.len())
        }
        Err(TransportError::Partial { verdicts, cut })
            if verdicts.len() > n || cut.is_some() != (verdicts.len() < n) =>
        {
            (verdicts.len(), verdicts.len())
        }
        reply => return reply,
    };
    let preview = format!("{members} members and {splits} splits for {n} requests");
    Err(TransportError::MalformedOutput { preview })
}

struct Backend {
    name: String,
    transport: Arc<dyn LlmTransport>,
    breaker: CircuitBreaker,
    budget: Option<TokenBudget>,
}

/// Builder for [`Gateway`]. Backends are tried in registration order —
/// register the preferred backend first.
pub struct GatewayBuilder {
    config: GatewayConfig,
    backends: Vec<Arc<dyn LlmTransport>>,
    fallback: Option<Arc<dyn LlmTransport>>,
    tracer: Tracer,
}

impl GatewayBuilder {
    pub fn config(mut self, config: GatewayConfig) -> GatewayBuilder {
        self.config = config;
        self
    }

    pub fn backoff(mut self, backoff: BackoffPolicy) -> GatewayBuilder {
        self.config.backoff = backoff;
        self
    }

    pub fn breaker(mut self, breaker: BreakerConfig) -> GatewayBuilder {
        self.config.breaker = breaker;
        self
    }

    pub fn budget(mut self, budget: TokenBudgetConfig) -> GatewayBuilder {
        self.config.budget = Some(budget);
        self
    }

    /// Register a backend (priority = registration order).
    pub fn backend(mut self, transport: Arc<dyn LlmTransport>) -> GatewayBuilder {
        self.backends.push(transport);
        self
    }

    /// Register the degraded-mode fallback: a cheap backend consulted only
    /// after every regular backend has failed. It bypasses retry, breakers,
    /// and budgets.
    pub fn fallback(mut self, transport: Arc<dyn LlmTransport>) -> GatewayBuilder {
        self.fallback = Some(transport);
        self
    }

    /// Emit `gateway` spans and routing instants (attempts, faults, backoff,
    /// failover, breaker/budget denials, degraded serves) to `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> GatewayBuilder {
        self.tracer = tracer;
        self
    }

    /// Build the gateway.
    ///
    /// # Panics
    /// If no backend was registered — a gateway with nothing behind it is a
    /// configuration bug, caught at construction like `ServeConfig`
    /// validation.
    pub fn build(self) -> Gateway {
        assert!(!self.backends.is_empty(), "gateway requires at least one backend");
        let backends: Vec<Backend> = self
            .backends
            .into_iter()
            .map(|transport| Backend {
                name: transport.name().to_string(),
                breaker: CircuitBreaker::new(self.config.breaker),
                budget: self.config.budget.map(TokenBudget::new),
                transport,
            })
            .collect();
        Gateway {
            metrics: GatewayMetrics::new(backends.len()),
            backends,
            fallback: self.fallback,
            stale: ShardedLru::new(self.config.stale_cache_capacity, DEFAULT_SHARDS),
            config: self.config,
            degraded_usage: AtomicUsage::default(),
            added_backoff_ms: AtomicU64::new(0),
            tracer: self.tracer,
        }
    }
}

/// Resilient multi-backend LLM gateway. See the module docs for the policy.
pub struct Gateway {
    backends: Vec<Backend>,
    fallback: Option<Arc<dyn LlmTransport>>,
    config: GatewayConfig,
    metrics: GatewayMetrics,
    /// Degraded-mode stale-response cache: the same lock-striped sharded LRU
    /// as the simulator's hot path, keyed by the shared prompt fingerprint.
    stale: ShardedLru<Arc<str>>,
    /// Usage booked by the gateway itself (degraded cache serves).
    degraded_usage: AtomicUsage,
    /// Backoff latency charged (virtually) against this gateway.
    added_backoff_ms: AtomicU64,
    tracer: Tracer,
}

impl Gateway {
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder {
            config: GatewayConfig::default(),
            backends: Vec::new(),
            fallback: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Convenience: a single-backend gateway with default tuning.
    pub fn over(transport: Arc<dyn LlmTransport>) -> Gateway {
        Gateway::builder().backend(transport).build()
    }

    /// Breaker state of the backend at `index` (registration order).
    pub fn breaker_state(&self, index: usize) -> BreakerState {
        self.backends[index].breaker.state()
    }

    /// Point-in-time metrics across all backends.
    pub fn snapshot(&self) -> GatewaySnapshot {
        let names: Vec<String> = self.backends.iter().map(|b| b.name.clone()).collect();
        let breakers: Vec<_> =
            self.backends.iter().map(|b| (b.breaker.state(), b.breaker.stats())).collect();
        self.metrics.snapshot(&names, &breakers)
    }

    /// Keep an answer for degraded recalls. A [`NoAnswer`] is a verdict
    /// about one call, not an answer to the prompt, so it is never kept.
    fn remember(&self, key: u64, response: &Result<Arc<str>, NoAnswer>) {
        if let Ok(text) = response {
            self.stale.insert(key, Arc::clone(text));
        }
    }

    fn recall(&self, key: u64) -> Option<Arc<str>> {
        self.stale.get(key)
    }

    /// Book a fault the backend at `idx` reported, and the breaker
    /// transition its call caused, if any.
    fn book_fault(&self, idx: usize, fault: &TransportError, breaker: Option<(String, String)>) {
        let backend = &self.backends[idx];
        self.metrics.fault(idx, fault.class());
        self.tracer.instant(SpanKind::Gateway, "fault", || {
            let class = ("class".to_string(), fault.class().label().to_string());
            [("backend".into(), backend.name.clone()), class].into_iter().chain(breaker).collect()
        });
    }

    /// Charge the backoff before `attempts` (1-based) of the request keyed
    /// `key` against the backend at `idx`, at least `fault`'s retry hint.
    fn back_off(&self, idx: usize, key: u64, attempts: u32, fault: &TransportError) {
        let hint = fault.retry_after_ms().unwrap_or(0);
        let delay = self.config.backoff.delay_ms(key, attempts).max(hint);
        self.metrics.backoff(idx, delay);
        self.added_backoff_ms.fetch_add(delay, Ordering::Relaxed);
        self.tracer.instant(SpanKind::Gateway, "backoff", || {
            vec![
                ("backend".into(), self.backends[idx].name.clone()),
                ("delay_ms".into(), delay.to_string()),
            ]
        });
    }

    /// Run `op` against the backends from `from` on with retry, breaking, and
    /// failover; the first backend's attempt count starts at `spent`.
    /// `Served` carries the first success; `Exhausted` means every backend
    /// was exhausted and the caller should degrade; `Cancelled` means the
    /// calling job's deadline passed (or it was cancelled) and the loop
    /// stopped burning attempts and backoff on it. `cancelled` asks the
    /// request the call is for ([`CompletionRequest::cancelled`]); for a
    /// request without a token it is a strict no-op, so standalone gateway
    /// behavior (and every deterministic counter walk in the chaos tests) is
    /// unchanged. Without `retry` the first fault ends the call `Faulted` — a
    /// batched placement, whose members are retried one by one. Every call
    /// is one breaker verdict: a reply that came back is a success.
    fn call_resilient<T>(
        &self,
        key: u64,
        est_tokens: u64,
        (from, spent, retry): (usize, u32, bool),
        cancelled: impl Fn() -> Option<CancelReason>,
        op: impl Fn(&dyn LlmTransport) -> Result<T, TransportError>,
    ) -> Resilient<T> {
        for (idx, backend) in self.backends.iter().enumerate().skip(from) {
            if let Some(reason) = cancelled() {
                return Resilient::Cancelled(reason);
            }
            let name = || vec![("backend".to_string(), backend.name.clone())];
            if idx > 0 {
                self.metrics.failover();
                self.tracer.instant(SpanKind::Gateway, "failover", || {
                    vec![("to".into(), backend.name.clone())]
                });
            }
            if !backend.budget.as_ref().map_or(true, |budget| budget.try_consume(est_tokens)) {
                self.metrics.budget_denied(idx);
                self.tracer.instant(SpanKind::Gateway, "budget_denied", name);
                continue;
            }
            let mut attempt = if idx == from { spent } else { 0 };
            loop {
                if let Some(reason) = (attempt > 0).then(&cancelled).flatten() {
                    return Resilient::Cancelled(reason);
                }
                if !backend.breaker.acquire() {
                    self.metrics.breaker_denied(idx);
                    self.tracer.instant(SpanKind::Gateway, "breaker_denied", name);
                    break;
                }
                self.metrics.attempt(idx, attempt > 0);
                self.tracer.instant(SpanKind::Gateway, "attempt", || {
                    let mut attrs = name();
                    attrs.push(("retry".into(), (attempt > 0).to_string()));
                    attrs
                });
                let reply = op(backend.transport.as_ref());
                let before = backend.breaker.state();
                match &reply {
                    Ok(_) => backend.breaker.on_success(),
                    Err(_) => backend.breaker.on_failure(),
                }
                let after = backend.breaker.state();
                let moved = (after != before).then(|| ("breaker".into(), after.label().into()));
                let err = match reply {
                    Ok(value) => {
                        self.metrics.served(idx);
                        self.tracer.instant(SpanKind::Gateway, "served", || {
                            name().into_iter().chain(moved).collect()
                        });
                        return Resilient::Served(idx, value);
                    }
                    Err(err) => err,
                };
                self.book_fault(idx, &err, moved);
                attempt += 1;
                if !retry {
                    return Resilient::Faulted(idx, err);
                }
                if !err.is_retryable() || attempt >= self.config.backoff.max_attempts {
                    break;
                }
                // A job past its deadline must not be charged backoff it will
                // never wait out.
                if let Some(reason) = cancelled() {
                    return Resilient::Cancelled(reason);
                }
                self.back_off(idx, key, attempt, &err);
            }
        }
        Resilient::Exhausted
    }

    /// One member through the resilient loop as a batch of one — retry
    /// schedule, breakers and failover under its *own* token, from the
    /// backend at `from` with `spent` attempts behind it there — then down
    /// the degraded ladder if every backend is exhausted. Returns the
    /// member's one-member outcome and the `path` its span reports.
    fn complete_member(
        &self,
        request: &CompletionRequest,
        from: (usize, u32),
    ) -> (BatchOutcome, &'static str) {
        // The memoized fingerprint: whoever hashed this prompt first — serve,
        // the simulator, or this call — every later layer reuses the value.
        let key = request.fingerprint();
        match self.call_resilient(
            key,
            count_tokens(&request.prompt) as u64,
            (from.0, from.1, true),
            || request.cancelled(),
            |transport| batch_reply(transport, std::slice::from_ref(request)),
        ) {
            Resilient::Served(_, single) => {
                self.remember(key, &single.responses[0]);
                (single, "served")
            }
            Resilient::Cancelled(reason) => {
                self.note_cancelled();
                let refused = (Err(NoAnswer::Cancelled(reason)), Usage::default());
                (std::iter::once(refused).collect(), "cancelled")
            }
            Resilient::Exhausted => self.degrade(request),
            Resilient::Faulted(..) => unreachable!("a retried call never ends Faulted"),
        }
    }

    /// The verdict for a member the call on the backend at `idx` did not
    /// answer. One never reached (no `fault`) is re-sent as it was. One that
    /// drew a fault spends an attempt: it is re-sent while the fault is
    /// retryable and its budget lasts, its backoff charged; else it goes
    /// alone down the failover and degraded ladder from the next backend. A
    /// dead job's member is refused instead.
    fn unanswered(
        &self,
        request: &CompletionRequest,
        idx: usize,
        fault: Option<&TransportError>,
    ) -> (Result<Arc<str>, NoAnswer>, Usage) {
        if let Some(reason) = request.cancelled() {
            self.note_cancelled();
            return (Err(NoAnswer::Cancelled(reason)), Usage::default());
        }
        let Some(fault) = fault else {
            return (Err(NoAnswer::Resend { attempts: request.attempts() }), Usage::default());
        };
        let attempts = request.attempts() + 1;
        if fault.is_retryable() && attempts < self.config.backoff.max_attempts {
            self.back_off(idx, request.fingerprint(), attempts, fault);
            return (Err(NoAnswer::Resend { attempts }), Usage::default());
        }
        self.complete_member(request, (idx + 1, 0)).0.into_single()
    }

    /// The degraded ladder for one request no backend could serve: stale
    /// cache, then the fallback backend, then a withheld answer.
    fn degrade(&self, request: &CompletionRequest) -> (BatchOutcome, &'static str) {
        let key = request.fingerprint();
        if let Some(stale) = self.recall(key) {
            self.metrics.degraded_cache_hit();
            self.tracer.instant(SpanKind::Gateway, "degraded_cache_hit", Vec::new);
            let mut usage = Usage::default();
            usage.record_cached(count_tokens(&request.prompt), count_tokens(&stale));
            self.degraded_usage.merge(&usage);
            return (std::iter::once((Ok(stale), usage)).collect(), "degraded_cache");
        }
        if let Some(fallback) = &self.fallback {
            if let Ok(single) = batch_reply(fallback.as_ref(), std::slice::from_ref(request)) {
                self.metrics.degraded_fallback();
                self.tracer.instant(SpanKind::Gateway, "degraded_fallback", Vec::new);
                self.remember(key, &single.responses[0]);
                return (single, "degraded_fallback");
            }
        }
        self.metrics.degraded_static();
        self.tracer.instant(SpanKind::Gateway, "degraded_static", Vec::new);
        let withheld = (Err(NoAnswer::Unavailable), Usage::default());
        (std::iter::once(withheld).collect(), "degraded_static")
    }

    /// Book one cancelled request: counter and trace instant.
    fn note_cancelled(&self) {
        self.metrics.cancelled();
        self.tracer.instant(SpanKind::Gateway, "cancelled", Vec::new);
    }

    /// The backend the infallible code-generation endpoints route to: the
    /// first one whose breaker isn't open, else the primary.
    fn codegen_backend(&self) -> &Backend {
        self.backends
            .iter()
            .find(|b| b.breaker.state() != BreakerState::Open)
            .unwrap_or(&self.backends[0])
    }
}

impl LlmService for Gateway {
    /// A batch of one is a lone request (see [`Gateway`]'s module docs); a
    /// larger batch is placed once, and a member it did not answer may come
    /// back [`NoAnswer::Resend`] for the batcher to re-send.
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        if let [request] = requests {
            self.metrics.requests(1);
            let mut span = self.tracer.span(SpanKind::Gateway, "complete");
            let (outcome, path) = self.complete_member(request, (0, request.attempts()));
            span.attr("path", path);
            return outcome;
        }
        if requests.is_empty() {
            return BatchOutcome::default();
        }
        self.metrics.batch(requests.len());
        let mut span = self.tracer.span(SpanKind::Gateway, "complete_batch");
        span.attr("members", requests.len().to_string());
        // The batch goes out once, on the first backend that admits it; a
        // reply that came back, member faults and all, is served. No backend
        // admitting it, or nobody left to answer (a batch with *some* dead
        // members is its assembler's to thin), sends every member alone.
        let placed = if requests.iter().all(|r| r.cancelled().is_some()) {
            Resilient::Exhausted
        } else {
            self.call_resilient(
                0,
                requests.iter().map(|r| count_tokens(&r.prompt) as u64).sum(),
                (0, 0, false),
                || None,
                |transport| match batch_reply(transport, requests) {
                    Ok(outcome) => {
                        Ok(outcome.responses.into_iter().zip(outcome.splits).map(Ok).collect())
                    }
                    Err(TransportError::Partial { verdicts, cut: None }) => Ok(verdicts),
                    Err(fault) => Err(fault),
                },
            )
        };
        let (backend, verdicts, mut cut): (usize, Vec<Verdict>, _) = match placed {
            Resilient::Served(idx, verdicts) => (idx, verdicts, None),
            Resilient::Faulted(idx, TransportError::Partial { verdicts, cut }) => {
                (idx, verdicts, cut.map(|cut| *cut))
            }
            Resilient::Faulted(idx, fault) => (idx, Vec::new(), Some(fault)),
            Resilient::Exhausted | Resilient::Cancelled(_) => {
                span.attr("path", "alone");
                self.metrics.requests(requests.len());
                return requests
                    .iter()
                    .map(|r| self.complete_member(r, (0, r.attempts())).0.into_single())
                    .collect();
            }
        };
        for fault in verdicts.iter().filter_map(|verdict| verdict.as_ref().err()) {
            self.book_fault(backend, fault, None);
        }
        // The member at `verdicts.len()` drew the cut (a plain fault strikes
        // the first); the ones after it were never reached.
        let mut verdicts = verdicts.into_iter();
        let (mut answered, mut resent) = (0, 0);
        let outcome: BatchOutcome = requests
            .iter()
            .map(|request| {
                let member = match verdicts.next() {
                    Some(Ok(answer)) => {
                        answered += 1;
                        self.remember(request.fingerprint(), &answer.0);
                        answer
                    }
                    Some(Err(fault)) => self.unanswered(request, backend, Some(&fault)),
                    None => self.unanswered(request, backend, cut.take().as_ref()),
                };
                resent += usize::from(matches!(member.0, Err(NoAnswer::Resend { .. })));
                member
            })
            .collect();
        self.metrics.requests(requests.len() - resent);
        self.metrics.placed(requests.len(), answered, resent);
        span.attr("path", if answered == requests.len() { "served" } else { "partial" });
        span.attr("resent", resent.to_string());
        outcome
    }

    fn embed(&self, text: &str) -> Vec<f64> {
        self.metrics.requests(1);
        let mut span = self.tracer.span(SpanKind::Gateway, "embed");
        let key = prompt_key(text);
        let est_tokens = count_tokens(text) as u64;
        // An embedding carries no request, hence no token: the loop runs
        // its schedule out and the executor's between-op check ends a dead
        // job.
        if let Resilient::Served(_, embedding) = self.call_resilient(
            key,
            est_tokens,
            (0, 0, true),
            || None,
            |transport| transport.embed(text),
        ) {
            span.attr("path", "served");
            return embedding;
        }
        if let Some(fallback) = &self.fallback {
            if let Ok(embedding) = fallback.embed(text) {
                self.metrics.degraded_fallback();
                self.tracer.instant(SpanKind::Gateway, "degraded_fallback", Vec::new);
                span.attr("path", "degraded_fallback");
                return embedding;
            }
        }
        self.metrics.degraded_static();
        self.tracer.instant(SpanKind::Gateway, "degraded_static", Vec::new);
        span.attr("path", "degraded_static");
        vec![0.0; DEGRADED_EMBED_DIM]
    }

    fn usage(&self) -> Usage {
        let mut total = self.degraded_usage.snapshot();
        for backend in &self.backends {
            total.merge(&backend.transport.usage());
        }
        if let Some(fallback) = &self.fallback {
            total.merge(&fallback.usage());
        }
        total
    }

    fn simulated_latency_ms(&self) -> u64 {
        let mut total = self.added_backoff_ms.load(Ordering::Relaxed);
        for backend in &self.backends {
            total += backend.transport.simulated_latency_ms();
        }
        if let Some(fallback) = &self.fallback {
            total += fallback.simulated_latency_ms();
        }
        total
    }

    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
        self.codegen_backend().transport.generate_code(spec)
    }

    fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
        self.codegen_backend().transport.suggest_fix(source, failures)
    }

    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        self.codegen_backend().transport.repair_code(spec, previous, suggestion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchConfig, Batcher, FaultInjector, FaultPlan, ServiceTransport};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::time::Duration;

    fn sim(seed: u64) -> Arc<SimLlm> {
        let world = WorldSpec::generate(13);
        Arc::new(SimLlm::with_seed(&world, seed))
    }

    fn prompt(i: usize) -> CompletionRequest {
        CompletionRequest::new(format!("Summarize. Text: gateway request number {i}"))
    }

    /// The typed answer to one request.
    fn answer(gateway: &Gateway, request: &CompletionRequest) -> Result<Arc<str>, NoAnswer> {
        gateway.complete_batch(std::slice::from_ref(request)).into_single().0
    }

    #[test]
    fn transparent_over_a_healthy_backend() {
        let service = sim(1);
        let gateway = Gateway::over(Arc::new(ServiceTransport::new("sim", service.clone())));
        for i in 0..10 {
            let via_gateway = gateway.complete(&prompt(i));
            let direct = service.complete(&prompt(i));
            assert_eq!(via_gateway, direct, "gateway must not alter responses");
        }
        let snap = gateway.snapshot();
        assert_eq!(snap.requests, 10);
        assert_eq!(snap.backends[0].counters.served, 10);
        assert_eq!(snap.retries(), 0);
        assert_eq!(snap.faults(), 0);
        assert_eq!(snap.degraded(), 0);
    }

    #[test]
    fn retries_absorb_transient_faults() {
        // 30% transient faults, 4 attempts: per-prompt failure probability is
        // 0.3^4 ≈ 0.8% — but this test is deterministic anyway; assert that
        // whatever faults the plan injected were all absorbed.
        let service = sim(2);
        let plan = FaultPlan::transient(0.3, 21);
        let injector = Arc::new(FaultInjector::new("flaky", service.clone(), plan));
        let reference = sim(2);
        let gateway = Gateway::builder()
            .backend(injector)
            .backend(Arc::new(ServiceTransport::new("standby", reference.clone())))
            .build();
        for i in 0..40 {
            assert_eq!(gateway.complete(&prompt(i)), reference.complete(&prompt(i)));
        }
        let snap = gateway.snapshot();
        assert_eq!(snap.degraded(), 0, "all faults must be absorbed upstream of degraded mode");
        assert!(snap.faults() > 0, "the plan should have injected something at 30%");
        assert_eq!(snap.backends[0].counters.served + snap.backends[1].counters.served, 40);
    }

    #[test]
    fn fallback_serves_when_all_backends_are_down() {
        let service = sim(3);
        let injector =
            Arc::new(FaultInjector::new("down", service.clone(), FaultPlan::transient(1.0, 5)));
        let cheap = sim(3);
        let gateway = Gateway::builder()
            .backend(injector)
            .fallback(Arc::new(ServiceTransport::new("cheap", cheap.clone())))
            .build();
        for i in 0..5 {
            assert_eq!(gateway.complete(&prompt(i)), cheap.complete(&prompt(i)));
        }
        let snap = gateway.snapshot();
        assert_eq!(snap.degraded_fallbacks, 5);
        assert_eq!(snap.degraded_static, 0);
        assert_eq!(snap.backends[0].counters.served, 0);
    }

    #[test]
    fn static_notice_when_nothing_is_left() {
        let service = sim(4);
        let injector = Arc::new(FaultInjector::new("down", service, FaultPlan::transient(1.0, 5)));
        let gateway = Gateway::over(injector);
        assert_eq!(answer(&gateway, &prompt(0)), Err(NoAnswer::Unavailable));
        assert_eq!(gateway.snapshot().degraded_static, 1);
    }

    #[test]
    fn stale_cache_answers_repeat_prompts_in_an_outage() {
        // Find a prompt the plan passes on attempt 0 but then faults for the
        // next four attempts (1..=4): the first request succeeds and primes
        // the stale cache, the second exhausts retries and is served stale.
        let plan = FaultPlan::transient(0.7, 77);
        let candidate = (0..5_000)
            .map(|i| format!("Summarize. Text: stale candidate {i}"))
            .find(|p| plan.decide(p, 0).is_none() && (1..=4).all(|a| plan.decide(p, a).is_some()))
            .expect("a pass-then-fault prompt exists at 70%");
        let service = sim(6);
        let injector = Arc::new(FaultInjector::new("flaky", service.clone(), plan));
        let gateway = Gateway::over(injector);
        let request = CompletionRequest::new(candidate);
        let first = answer(&gateway, &request);
        assert!(first.is_ok());
        let second = answer(&gateway, &request);
        assert_eq!(second, first, "stale cache must replay the last good answer");
        let snap = gateway.snapshot();
        assert_eq!(snap.degraded_cache_hits, 1);
        assert_eq!(snap.degraded_static, 0);
        // The stale serve is booked as a cached call with exact token savings.
        let usage = gateway.usage();
        assert_eq!(usage.cached_calls, 1);
        assert!(usage.tokens_out_saved > 0);
    }

    #[test]
    fn breaker_shields_a_dead_backend_and_failover_takes_over() {
        // Deterministic walk: primary faults every call (rate 1.0), one
        // attempt per request, breaker trips after 4 failures (min_calls 4,
        // threshold 0.5), cooldown 3 denials, probes 2/2.
        let service = sim(7);
        let injector =
            Arc::new(FaultInjector::new("dead", service.clone(), FaultPlan::transient(1.0, 9)));
        let standby = sim(7);
        let gateway = Gateway::builder()
            .backend(injector)
            .backend(Arc::new(ServiceTransport::new("standby", standby.clone())))
            .backoff(BackoffPolicy { max_attempts: 1, ..BackoffPolicy::default() })
            .breaker(BreakerConfig {
                window: 8,
                min_calls: 4,
                failure_threshold: 0.5,
                cooldown_denials: 3,
                probe_trials: 2,
                probe_successes: 2,
            })
            .build();
        for i in 0..12 {
            assert_eq!(gateway.complete(&prompt(i)), standby.complete(&prompt(i)));
        }
        let snap = gateway.snapshot();
        let primary = &snap.backends[0];
        // Requests 1-4 attempt and fault (breaker opens on the 4th); 5-7 are
        // denied (cooldown); 8 probes and faults (reopen); 9-11 denied; 12
        // probes and faults (reopen again).
        assert_eq!(primary.counters.attempts, 6);
        assert_eq!(primary.counters.faults(), 6);
        assert_eq!(primary.counters.breaker_denied, 6);
        assert_eq!(primary.breaker.opened, 3);
        assert_eq!(primary.breaker.half_opened, 2);
        assert_eq!(snap.backends[1].counters.served, 12);
        assert_eq!(snap.failovers, 12);
        assert_eq!(snap.degraded(), 0);
    }

    #[test]
    fn token_budget_sheds_to_the_next_backend() {
        let service = sim(8);
        let standby = sim(8);
        let gateway = Gateway::builder()
            .backend(Arc::new(ServiceTransport::new("metered", service.clone())))
            .backend(Arc::new(ServiceTransport::new("standby", standby.clone())))
            .budget(TokenBudgetConfig { capacity: 1, refill_per_check: 0 })
            .build();
        // Every prompt costs more than one token, so the metered backend
        // denies everything; the standby has its own (also empty) bucket, so
        // traffic lands degraded-static... unless the standby budget admits.
        // Give the request somewhere to go: the standby's bucket is
        // independent and equally empty, so this exercises the budget-denied
        // counters on both.
        assert_eq!(answer(&gateway, &prompt(0)), Err(NoAnswer::Unavailable));
        let snap = gateway.snapshot();
        assert_eq!(snap.backends[0].counters.budget_denied, 1);
        assert_eq!(snap.backends[1].counters.budget_denied, 1);
        assert_eq!(snap.backends[0].counters.attempts, 0);
    }

    #[test]
    fn usage_and_latency_aggregate_across_backends() {
        let primary = sim(9);
        let standby = sim(10);
        let gateway = Gateway::builder()
            .backend(Arc::new(ServiceTransport::new("a", primary.clone())))
            .backend(Arc::new(ServiceTransport::new("b", standby.clone())))
            .build();
        gateway.complete(&prompt(0));
        let usage = gateway.usage();
        assert_eq!(usage.calls, primary.usage().calls + standby.usage().calls);
        assert!(gateway.simulated_latency_ms() >= primary.simulated_latency_ms());
    }

    #[test]
    fn cancelled_scope_short_circuits_before_any_attempt() {
        use lingua_llm_sim::CancelToken;
        let service = sim(12);
        let injector = Arc::new(FaultInjector::new("down", service, FaultPlan::transient(1.0, 17)));
        let gateway = Gateway::over(injector);
        let token = CancelToken::unbounded();
        token.cancel();
        let refused = Err(NoAnswer::Cancelled(CancelReason::Cancelled));
        assert_eq!(answer(&gateway, &prompt(0).with_cancel(token)), refused);
        let snap = gateway.snapshot();
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.backends[0].counters.attempts, 0, "no attempt for a dead job");
        assert_eq!(snap.added_backoff_ms(), 0);
        assert_eq!(snap.degraded(), 0, "cancellation must not fall into degraded mode");
        // Nothing was billed for the short-circuited request.
        assert_eq!(gateway.usage().calls, 0);
    }

    #[test]
    fn deadline_firing_mid_retry_stops_backoff_and_attempts() {
        use lingua_llm_sim::CancelToken;

        /// Faults every call, and cancels the request's token on the
        /// first — modelling a deadline that fires while the gateway is in
        /// its retry loop.
        struct CancelOnFirstCall {
            token: CancelToken,
        }
        impl LlmTransport for CancelOnFirstCall {
            fn name(&self) -> &str {
                "cancel-on-first"
            }
            fn complete_batch(
                &self,
                _requests: &[CompletionRequest],
            ) -> Result<BatchOutcome, TransportError> {
                self.token.cancel();
                Err(TransportError::TransientServer { message: "boom".into() })
            }
            fn embed(&self, _text: &str) -> Result<Vec<f64>, TransportError> {
                self.token.cancel();
                Err(TransportError::TransientServer { message: "boom".into() })
            }
            fn usage(&self) -> Usage {
                Usage::default()
            }
            fn simulated_latency_ms(&self) -> u64 {
                0
            }
            fn generate_code(&self, _spec: &CodeGenSpec) -> GeneratedCode {
                unreachable!("not exercised")
            }
            fn suggest_fix(&self, _source: &str, _failures: &[String]) -> String {
                unreachable!("not exercised")
            }
            fn repair_code(
                &self,
                _spec: &CodeGenSpec,
                _previous: &GeneratedCode,
                _suggestion: &str,
            ) -> GeneratedCode {
                unreachable!("not exercised")
            }
        }

        let token = CancelToken::unbounded();
        let gateway = Gateway::over(Arc::new(CancelOnFirstCall { token: token.clone() }));
        let refused = Err(NoAnswer::Cancelled(CancelReason::Cancelled));
        assert_eq!(answer(&gateway, &prompt(0).with_cancel(token)), refused);
        let snap = gateway.snapshot();
        let primary = &snap.backends[0].counters;
        assert_eq!(primary.attempts, 1, "exactly the in-flight attempt");
        assert_eq!(primary.faults(), 1);
        assert_eq!(primary.backoff_ms, 0, "no backoff charged past the deadline");
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.degraded(), 0);
    }

    #[test]
    fn batched_requests_travel_the_resilient_loop_as_one_call() {
        let service = sim(14);
        let reference = sim(14);
        let gateway = Gateway::over(Arc::new(ServiceTransport::new("sim", service)));
        let requests: Vec<CompletionRequest> = (0..3).map(prompt).collect();
        let outcome = gateway.complete_batch(&requests);
        for (request, response) in requests.iter().zip(&outcome.responses) {
            assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
        }
        let mut summed = Usage::default();
        for split in &outcome.splits {
            summed.merge(split);
        }
        assert_eq!(summed, outcome.batch_usage);
        assert_eq!(outcome.batch_usage.calls, 1, "one batched backend call");
        let snap = gateway.snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.batch_members, 3);
        assert_eq!(snap.requests, 3, "members count as logical requests");
        assert!((snap.mean_batch_occupancy() - 3.0).abs() < f64::EPSILON);
        assert_eq!(snap.backends[0].counters.served, 1, "the transport saw one call");
        // Every member was remembered for the degraded stale cache.
        for request in &requests {
            gateway.recall(request.fingerprint()).expect("remembered");
        }
    }

    /// A lone caller's batcher over `gateway`: each flush places the members
    /// still unanswered, so the rounds replay deterministically.
    fn resend_rounds(gateway: &Arc<Gateway>, requests: &[CompletionRequest]) -> BatchOutcome {
        let config = BatchConfig { max_batch_size: requests.len(), max_wait: Duration::ZERO };
        Batcher::new(Arc::clone(gateway) as Arc<dyn LlmService>, config).complete_batch(requests)
    }

    /// What one primary did for a batch under [`resend_rounds`].
    #[derive(Debug, Default, PartialEq)]
    struct Rounds {
        /// Wire calls placed.
        calls: u64,
        faults: u64,
        served: u64,
        /// Members answered `Resend`, once per time.
        resent: u64,
        /// Members that spent their budget and left for the ladder.
        laddered: u64,
    }

    /// The per-member placement law replayed from a transient-only plan
    /// (every fault member-scoped and retryable): each round places the
    /// members still unanswered as one call, in order, each drawing its next
    /// attempt; a faulted member rides the next round until `max_attempts`
    /// are spent, then leaves for the ladder. A round of one is a lone
    /// request, retried in place from the attempts it carries. Attempt
    /// numbers advance per prompt, as the injector counts them.
    fn replay_rounds(plan: &FaultPlan, prompts: &[&str], max_attempts: u32) -> Rounds {
        let mut next = vec![0u64; prompts.len()];
        let mut faults = |i: usize| {
            next[i] += 1;
            plan.decide(prompts[i], next[i] - 1).is_some()
        };
        let mut spent = vec![0u32; prompts.len()];
        let mut open: Vec<usize> = (0..prompts.len()).collect();
        let mut rounds = Rounds::default();
        while let [first, ..] = open[..] {
            if open.len() == 1 {
                for _ in spent[first]..max_attempts {
                    rounds.calls += 1;
                    if !faults(first) {
                        rounds.served += 1;
                        return rounds;
                    }
                    rounds.faults += 1;
                }
                rounds.laddered += 1;
                return rounds;
            }
            rounds.calls += 1;
            open.retain(|&i| {
                if !faults(i) {
                    rounds.served += 1;
                    return false;
                }
                rounds.faults += 1;
                spent[i] += 1;
                let resent = spent[i] < max_attempts;
                *(if resent { &mut rounds.resent } else { &mut rounds.laddered }) += 1;
                resent
            });
        }
        rounds
    }

    #[test]
    fn a_placement_keeps_its_answers_and_returns_the_rest_for_resending() {
        // One wire call: members that passed are answered, members that
        // faulted come back `Resend` with one attempt spent and their
        // backoff charged, and the reply that came back is the breaker's
        // success. Every expectation is the plan's.
        let service = sim(15);
        let reference = sim(15);
        let plan = FaultPlan::transient(0.3, 23);
        let requests: Vec<CompletionRequest> = (0..6).map(prompt).collect();
        let faulted: Vec<bool> =
            requests.iter().map(|r| plan.decide(&r.prompt, 0).is_some()).collect();
        assert!(faulted.contains(&true) && faulted.contains(&false), "seed must split the batch");
        let gateway = Gateway::over(Arc::new(FaultInjector::new("flaky", service.clone(), plan)));
        let outcome = gateway.complete_batch(&requests);
        let mut backoff = 0;
        for ((request, response), faulted) in requests.iter().zip(&outcome.responses).zip(&faulted)
        {
            if *faulted {
                assert_eq!(*response, Err(NoAnswer::Resend { attempts: 1 }));
                backoff += BackoffPolicy::default().delay_ms(request.fingerprint(), 1);
            } else {
                assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
            }
        }
        let mut summed = Usage::default();
        for split in &outcome.splits {
            summed.merge(split);
        }
        assert_eq!(summed, outcome.batch_usage, "a resent member's split is empty");
        let resent = faulted.iter().filter(|f| **f).count() as u64;
        let answered = requests.len() as u64 - resent;
        let snap = gateway.snapshot();
        let primary = &snap.backends[0].counters;
        assert_eq!((primary.attempts, primary.served, primary.faults()), (1, 1, resent));
        assert_eq!(primary.backoff_ms, backoff);
        assert_eq!(snap.resent_members, resent);
        assert_eq!(snap.requests, answered, "a resent member is not resolved yet");
        assert_eq!((snap.batch_splits, snap.salvaged_members), (1, answered));
        let ledger = service.usage();
        assert_eq!((ledger.calls, ledger.failed_calls), (answered, resent));
    }

    #[test]
    fn batch_faults_split_into_per_member_retries() {
        let service = sim(15);
        let reference = sim(15);
        let plan = FaultPlan::transient(0.3, 23);
        let requests: Vec<CompletionRequest> = (0..6).map(prompt).collect();
        let prompts: Vec<&str> = requests.iter().map(|r| r.prompt.as_str()).collect();
        let expected = replay_rounds(&plan, &prompts, 4);
        assert!(expected.resent > 0 && expected.laddered == 0, "seed: resends, all served");
        let injector = Arc::new(FaultInjector::new("flaky", service.clone(), plan));
        let gateway = Arc::new(Gateway::over(injector.clone()));
        let outcome = resend_rounds(&gateway, &requests);
        for (request, response) in requests.iter().zip(&outcome.responses) {
            assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
        }
        let snap = gateway.snapshot();
        let primary = &snap.backends[0].counters;
        assert_eq!(primary.attempts, expected.calls);
        assert_eq!(primary.faults(), expected.faults);
        assert_eq!(snap.resent_members, expected.resent);
        assert_eq!(snap.requests, 6, "each member resolved once");
        assert_eq!(snap.degraded(), 0);
        // Nothing answered was computed twice.
        assert_eq!(injector.counts().passed, 6);
        assert_eq!(service.usage().calls, reference.usage().calls);
    }

    #[test]
    fn member_faults_leave_the_breaker_closed() {
        // Every member faults, every time: a batched reply still came back,
        // so the breaker books successes; a lone call's fault is the call's.
        let breaker = BreakerConfig { window: 4, min_calls: 2, ..BreakerConfig::default() };
        let dead = FaultInjector::new("dead", sim(24), FaultPlan::transient(1.0, 43));
        let gateway = Gateway::builder().backend(Arc::new(dead)).breaker(breaker).build();
        let requests: Vec<CompletionRequest> = (0..3).map(prompt).collect();
        for _ in 0..4 {
            let outcome = gateway.complete_batch(&requests);
            assert!(outcome.responses.iter().all(|r| matches!(r, Err(NoAnswer::Resend { .. }))));
        }
        assert_eq!(gateway.breaker_state(0), BreakerState::Closed);
        assert_eq!(answer(&gateway, &prompt(9)), Err(NoAnswer::Unavailable));
        assert_eq!(gateway.breaker_state(0), BreakerState::Open);
    }

    /// A provider that answers at most `max_members` members of any batch
    /// and still says `Ok` — the short reply a real batched endpoint can send.
    struct ShortReply {
        inner: ServiceTransport,
        max_members: usize,
    }

    impl LlmTransport for ShortReply {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn complete_batch(
            &self,
            requests: &[CompletionRequest],
        ) -> Result<BatchOutcome, TransportError> {
            let mut outcome = self.inner.complete_batch(requests)?;
            outcome.responses.truncate(self.max_members);
            outcome.splits.truncate(self.max_members);
            Ok(outcome)
        }
        fn embed(&self, text: &str) -> Result<Vec<f64>, TransportError> {
            self.inner.embed(text)
        }
        fn usage(&self) -> Usage {
            self.inner.usage()
        }
        fn simulated_latency_ms(&self) -> u64 {
            self.inner.simulated_latency_ms()
        }
        fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
            self.inner.generate_code(spec)
        }
        fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
            self.inner.suggest_fix(source, failures)
        }
        fn repair_code(
            &self,
            spec: &CodeGenSpec,
            previous: &GeneratedCode,
            suggestion: &str,
        ) -> GeneratedCode {
            self.inner.repair_code(spec, previous, suggestion)
        }
    }

    #[test]
    fn a_short_batch_reply_is_a_malformed_fault_and_splits() {
        // Two members answered for three requests: the `Ok` is not believed.
        // The malformed fault strikes the first member, which is not retried
        // on the backend that produced it and degrades; the other two were
        // never reached, ride the next call, and are answered.
        let reference = sim(21);
        let cheap = sim(25);
        let short = ShortReply { inner: ServiceTransport::new("short", sim(21)), max_members: 2 };
        let gateway = Arc::new(
            Gateway::builder()
                .backend(Arc::new(short))
                .fallback(Arc::new(ServiceTransport::new("cheap", cheap.clone())))
                .build(),
        );
        let requests: Vec<CompletionRequest> = (0..3).map(prompt).collect();
        let outcome = resend_rounds(&gateway, &requests);
        assert_eq!(outcome.responses.len(), requests.len(), "one response per request");
        assert_eq!(outcome.responses[0].as_deref(), Ok(cheap.complete(&requests[0]).as_str()));
        for (request, response) in requests.iter().zip(&outcome.responses).skip(1) {
            assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
        }
        let snap = gateway.snapshot();
        let short = &snap.backends[0].counters;
        assert_eq!((snap.batches, snap.batch_splits, snap.resent_members), (2, 1, 2));
        assert_eq!(snap.faults(), 1, "exactly the short wire reply");
        assert_eq!((short.malformed, short.attempts, short.served), (1, 2, 1));
        assert_eq!(snap.degraded_fallbacks, 1);
        assert_eq!(snap.requests, 3);
    }

    #[test]
    fn an_empty_batch_reply_degrades_each_member_without_a_panic() {
        // The primary faults every member until their budgets are spent;
        // each then fails over alone to a standby that answers every batch
        // of one with `Ok` and no members at all.
        let plan = FaultPlan::transient(1.0, 41);
        let dead = FaultInjector::new("dead", sim(22), plan);
        let empty = ShortReply { inner: ServiceTransport::new("empty", sim(22)), max_members: 0 };
        let cheap = sim(22);
        let gateway = Arc::new(
            Gateway::builder()
                .backend(Arc::new(dead))
                .backend(Arc::new(empty))
                .fallback(Arc::new(ServiceTransport::new("cheap", cheap.clone())))
                .build(),
        );
        let requests: Vec<CompletionRequest> = (0..3).map(prompt).collect();
        let outcome = resend_rounds(&gateway, &requests);
        assert_eq!(outcome.responses.len(), requests.len());
        for (request, response) in requests.iter().zip(&outcome.responses) {
            assert_eq!(response.as_deref(), Ok(cheap.complete(request).as_str()));
        }
        let prompts: Vec<&str> = requests.iter().map(|r| r.prompt.as_str()).collect();
        let expected = replay_rounds(&plan, &prompts, 4);
        let snap = gateway.snapshot();
        assert_eq!(snap.backends[0].counters.attempts, expected.calls);
        assert_eq!(snap.backends[0].counters.faults(), expected.faults);
        assert_eq!(snap.failovers, expected.laddered);
        assert_eq!(snap.degraded_fallbacks, 3);
        // One attempt per member: malformed output is not retried on the
        // backend that produced it.
        assert_eq!(snap.backends[1].counters.attempts, 3);
        assert_eq!(snap.backends[1].counters.malformed, 3);
        assert_eq!(snap.backends[1].counters.served, 0);
    }

    #[test]
    fn a_poisoned_member_degrades_alone_after_the_split() {
        // One member that faults on every attempt it will ever see must not
        // drag its healthy siblings into degraded mode: they are answered by
        // the call they rode, and only the poisoned member — re-sent, then
        // alone, then out of budget — walks the degraded ladder. Every count
        // is the plan's.
        let plan = FaultPlan::transient(0.35, 57);
        let healthy = |p: &str| plan.decide(p, 0).is_none();
        let poisoned = |p: &str| (0..=4).all(|a| plan.decide(p, a).is_some());
        let candidates =
            || (0..50_000).map(|i| format!("Summarize. Text: poisoned member candidate {i}"));
        let mut good = candidates().filter(|p| healthy(p));
        let requests: Vec<CompletionRequest> = [
            good.next().expect("a healthy prompt exists"),
            candidates().find(|p| poisoned(p)).expect("a poisoned prompt exists"),
            good.next().expect("a second healthy prompt exists"),
        ]
        .map(CompletionRequest::new)
        .into_iter()
        .collect();
        let service = sim(19);
        let reference = sim(19);
        let cheap = sim(20);
        let cheap_reference = sim(20);
        let injector = Arc::new(FaultInjector::new("flaky", service.clone(), plan));
        let gateway = Arc::new(
            Gateway::builder()
                .backend(injector.clone())
                .fallback(Arc::new(ServiceTransport::new("cheap", cheap)))
                .build(),
        );
        let outcome = resend_rounds(&gateway, &requests);
        assert_eq!(outcome.responses[0].as_deref(), Ok(reference.complete(&requests[0]).as_str()));
        assert_eq!(outcome.responses[2].as_deref(), Ok(reference.complete(&requests[2]).as_str()));
        assert_eq!(
            outcome.responses[1].as_deref(),
            Ok(cheap_reference.complete(&requests[1]).as_str()),
            "the poisoned member is answered by the fallback"
        );
        let prompts: Vec<&str> = requests.iter().map(|r| r.prompt.as_str()).collect();
        let expected = replay_rounds(&plan, &prompts, 4);
        assert_eq!((expected.served, expected.laddered), (2, 1), "both healthy members");
        let snap = gateway.snapshot();
        assert_eq!(snap.degraded_fallbacks, 1, "exactly the poisoned member degraded");
        assert_eq!(snap.degraded(), 1);
        assert_eq!(snap.backends[0].counters.attempts, expected.calls);
        assert_eq!(snap.resent_members, expected.resent);
        // Each healthy member was computed once, and the poisoned member's
        // faults are its own: one inside the batch, the rest alone.
        let counts = injector.counts();
        assert_eq!((counts.passed, counts.injected), (expected.served, expected.faults));
        assert_eq!(service.usage().calls, reference.usage().calls);
    }

    #[test]
    fn batch_degrades_per_member_to_the_fallback() {
        let service = sim(16);
        let injector = Arc::new(FaultInjector::new("down", service, FaultPlan::transient(1.0, 31)));
        let cheap = sim(16);
        let gateway = Arc::new(
            Gateway::builder()
                .backend(injector)
                .fallback(Arc::new(ServiceTransport::new("cheap", cheap.clone())))
                .build(),
        );
        let requests: Vec<CompletionRequest> = (0..4).map(prompt).collect();
        let outcome = resend_rounds(&gateway, &requests);
        for (request, response) in requests.iter().zip(&outcome.responses) {
            assert_eq!(response.as_deref(), Ok(cheap.complete(request).as_str()));
        }
        let mut summed = Usage::default();
        for split in &outcome.splits {
            summed.merge(split);
        }
        assert_eq!(summed, outcome.batch_usage, "conservation holds on the degraded path");
        assert_eq!(gateway.snapshot().degraded_fallbacks, 4);
    }

    #[test]
    fn cancelled_batch_returns_notices_and_bills_nothing() {
        use lingua_llm_sim::CancelToken;
        let service = sim(17);
        let gateway = Gateway::over(Arc::new(ServiceTransport::new("sim", service)));
        let token = CancelToken::unbounded();
        token.cancel();
        let requests: Vec<CompletionRequest> =
            (0..3).map(|i| prompt(i).with_cancel(token.clone())).collect();
        let outcome = gateway.complete_batch(&requests);
        let refused = Err(NoAnswer::Cancelled(CancelReason::Cancelled));
        assert!(outcome.responses.iter().all(|r| *r == refused));
        assert_eq!(outcome.batch_usage, Usage::default());
        assert!(outcome.splits.iter().all(|s| *s == Usage::default()));
        assert_eq!(gateway.usage().calls, 0);
        assert_eq!(gateway.snapshot().cancelled, 3, "one per abandoned member");
    }

    #[test]
    fn cancelled_fallback_notice_is_never_remembered() {
        use lingua_llm_sim::CancelToken;

        /// Cancels the requests' token mid-attempt, then fails with a
        /// non-retryable fault, so the rest of the batch runs for a job that
        /// is already dead.
        struct CancelThenMalformed {
            token: CancelToken,
        }
        impl LlmTransport for CancelThenMalformed {
            fn name(&self) -> &str {
                "cancel-then-malformed"
            }
            fn complete_batch(
                &self,
                _requests: &[CompletionRequest],
            ) -> Result<BatchOutcome, TransportError> {
                self.token.cancel();
                Err(TransportError::MalformedOutput { preview: "garbage".into() })
            }
            fn embed(&self, _text: &str) -> Result<Vec<f64>, TransportError> {
                Err(TransportError::MalformedOutput { preview: "garbage".into() })
            }
            fn usage(&self) -> Usage {
                Usage::default()
            }
            fn simulated_latency_ms(&self) -> u64 {
                0
            }
            fn generate_code(&self, _spec: &CodeGenSpec) -> GeneratedCode {
                unreachable!("not exercised")
            }
            fn suggest_fix(&self, _source: &str, _failures: &[String]) -> String {
                unreachable!("not exercised")
            }
            fn repair_code(
                &self,
                _spec: &CodeGenSpec,
                _previous: &GeneratedCode,
                _suggestion: &str,
            ) -> GeneratedCode {
                unreachable!("not exercised")
            }
        }

        let cheap = sim(18);
        let reference = sim(18);
        let token = CancelToken::unbounded();
        let gateway = Gateway::builder()
            .backend(Arc::new(CancelThenMalformed { token: token.clone() }))
            .fallback(Arc::new(ServiceTransport::new("cheap", cheap)))
            .build();
        let requests: Vec<CompletionRequest> = (0..2).map(prompt).collect();
        // First batch: the backend cancels the job mid-attempt and fails
        // non-retryably, so every member is refused as cancelled.
        let doomed: Vec<CompletionRequest> =
            requests.iter().map(|r| r.clone().with_cancel(token.clone())).collect();
        let outcome = gateway.complete_batch(&doomed);
        let refused = Err(NoAnswer::Cancelled(CancelReason::Cancelled));
        assert!(outcome.responses.iter().all(|r| *r == refused));
        // The refusal is a verdict on this job, not an answer to the
        // prompt: it must not enter the stale cache.
        for request in &requests {
            assert!(
                gateway.recall(request.fingerprint()).is_none(),
                "a refusal poisoned the stale cache"
            );
        }
        // A later uncancelled job over the same prompts must get real
        // fallback answers, not a replayed refusal.
        let outcome = resend_rounds(&Arc::new(gateway), &requests);
        for (request, response) in requests.iter().zip(&outcome.responses) {
            assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
        }
    }

    #[test]
    fn codegen_routes_around_an_open_breaker() {
        let dead = sim(11);
        let injector = Arc::new(FaultInjector::new("dead", dead, FaultPlan::transient(1.0, 13)));
        let healthy = sim(11);
        let gateway = Gateway::builder()
            .backend(injector)
            .backend(Arc::new(ServiceTransport::new("healthy", healthy.clone())))
            .backoff(BackoffPolicy { max_attempts: 1, ..BackoffPolicy::default() })
            .breaker(BreakerConfig { window: 4, min_calls: 2, ..BreakerConfig::default() })
            .build();
        // Trip the primary's breaker with completions.
        for i in 0..4 {
            gateway.complete(&prompt(i));
        }
        assert_eq!(gateway.breaker_state(0), BreakerState::Open);
        let healthy_calls_before = healthy.usage().calls;
        let spec = CodeGenSpec {
            task: "tokenize the text".into(),
            function_name: "process".into(),
            hints: vec![],
        };
        gateway.generate_code(&spec);
        assert!(
            healthy.usage().calls > healthy_calls_before,
            "codegen must route to the healthy backend"
        );
    }
}
