//! Deterministic fault injection — the chaos substrate.
//!
//! [`FaultInjector`] wraps a [`SimLlm`] and fails a configurable fraction of
//! completion calls with typed [`TransportError`]s. The injection decision is
//! a **pure function** of `(plan seed, prompt hash, per-prompt attempt
//! number)` — independent of thread interleaving, wall-clock, and call order
//! across prompts — so chaos tests can *replay* the plan and assert exact
//! retry/failover counts instead of asserting "roughly 20%".

use crate::{FaultClass, LlmTransport, TransportError, Verdict};
use lingua_llm_sim::{
    BatchOutcome, CodeGenSpec, CompletionRequest, GeneratedCode, LlmService, SimLlm, Usage,
};
use lingua_ml::rng::Rng;
use lingua_ml::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The injector's prompt key: the workspace-wide FNV-1a prompt fingerprint
/// (see `lingua_llm_sim::hotpath::fingerprint`). Replaying a [`FaultPlan`]
/// therefore shares the hash every other layer already computed — same
/// function, same bits, no second pass over the prompt.
pub fn prompt_key(text: &str) -> u64 {
    lingua_llm_sim::fingerprint(text)
}

/// Per-class fault rates plus the seed that makes them deterministic.
///
/// Rates are probabilities in `[0, 1]` and are applied as cumulative bands
/// over one uniform draw per attempt, so the total fault probability is the
/// sum of the four rates (callers keep the sum ≤ 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub timeout_rate: f64,
    pub rate_limit_rate: f64,
    pub transient_rate: f64,
    pub malformed_rate: f64,
    /// Deadline reported by injected timeouts, in milliseconds.
    pub timeout_ms: u64,
    /// Retry-after hint carried by injected rate limits, in milliseconds.
    pub retry_after_ms: u64,
}

impl FaultPlan {
    /// No faults at all; the injector becomes a transparent wrapper.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            timeout_rate: 0.0,
            rate_limit_rate: 0.0,
            transient_rate: 0.0,
            malformed_rate: 0.0,
            timeout_ms: 10_000,
            retry_after_ms: 200,
        }
    }

    /// Only transient server faults, at the given rate.
    pub fn transient(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan { transient_rate: rate, ..FaultPlan::none(seed) }
    }

    /// A mixed plan: the total fault rate split evenly across all four
    /// classes.
    pub fn uniform(total_rate: f64, seed: u64) -> FaultPlan {
        let each = total_rate / 4.0;
        FaultPlan {
            timeout_rate: each,
            rate_limit_rate: each,
            transient_rate: each,
            malformed_rate: each,
            ..FaultPlan::none(seed)
        }
    }

    /// Sum of the per-class rates.
    pub fn total_rate(&self) -> f64 {
        self.timeout_rate + self.rate_limit_rate + self.transient_rate + self.malformed_rate
    }

    /// The fault decision for the `attempt`-th call (0-based) of `prompt`.
    ///
    /// This is the determinism contract: tests replay it to derive exact
    /// expected counts. It must stay a pure function of the plan, the prompt,
    /// and the attempt number.
    pub fn decide(&self, prompt: &str, attempt: u64) -> Option<FaultClass> {
        self.decide_key(prompt_key(prompt), attempt)
    }

    /// [`FaultPlan::decide`] with a precomputed prompt key.
    pub fn decide_key(&self, key: u64, attempt: u64) -> Option<FaultClass> {
        if self.total_rate() <= 0.0 {
            return None;
        }
        let stream = self.seed ^ key ^ attempt.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = Rng::seed_from_u64(stream);
        let draw: f64 = rng.gen_range(0.0..1.0);
        let mut band = self.timeout_rate;
        if draw < band {
            return Some(FaultClass::Timeout);
        }
        band += self.rate_limit_rate;
        if draw < band {
            return Some(FaultClass::RateLimited);
        }
        band += self.transient_rate;
        if draw < band {
            return Some(FaultClass::TransientServer);
        }
        band += self.malformed_rate;
        if draw < band {
            return Some(FaultClass::MalformedOutput);
        }
        None
    }
}

/// Counters kept by the injector, one bucket per fault class plus totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultCounts {
    pub injected: u64,
    pub passed: u64,
    pub timeouts: u64,
    pub rate_limited: u64,
    pub transient: u64,
    pub malformed: u64,
}

impl FaultCounts {
    fn record(&mut self, class: FaultClass) {
        self.injected += 1;
        match class {
            FaultClass::Timeout => self.timeouts += 1,
            FaultClass::RateLimited => self.rate_limited += 1,
            FaultClass::TransientServer => self.transient += 1,
            FaultClass::MalformedOutput => self.malformed += 1,
        }
    }
}

#[derive(Default)]
struct InjectorState {
    /// Calls seen so far per prompt key; the next call's attempt number.
    attempts: HashMap<u64, u64>,
    counts: FaultCounts,
}

/// A [`SimLlm`] backend that fails completion calls per a [`FaultPlan`].
///
/// Only completions are faulted — the hot per-record path the gateway's
/// retry/failover machinery protects. Embeddings and the code-generation
/// endpoints pass straight through.
pub struct FaultInjector {
    name: String,
    inner: Arc<SimLlm>,
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    pub fn new(name: impl Into<String>, inner: Arc<SimLlm>, plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            name: name.into(),
            inner,
            plan,
            state: Mutex::new(InjectorState::default()),
        }
    }

    pub fn counts(&self) -> FaultCounts {
        self.state.lock().counts
    }

    fn next_attempt(&self, key: u64) -> u64 {
        let mut state = self.state.lock();
        let attempt = state.attempts.entry(key).or_insert(0);
        let current = *attempt;
        *attempt += 1;
        current
    }
}

/// Corrupt a good response into a plausibly truncated payload.
fn mangle(response: &str) -> String {
    let head: String = response.chars().take(24).collect();
    format!("{{\"answer\": \"{head}")
}

impl LlmTransport for FaultInjector {
    fn name(&self) -> &str {
        &self.name
    }

    /// Members are decided in order, each as one call to the simulator (its
    /// cache and singleflight path), and each gets its own verdict, as a
    /// batch interface reports one per request. A member-scoped fault
    /// ([`FaultClass::is_member_scoped`]) fails that member alone, billed as
    /// a lone call's fault would be, and the call goes on; a
    /// connection-scoped one cuts the call at the member that drew it, and
    /// the members after it are never reached. Either way the reply is a
    /// [`TransportError::Partial`]. A batch of one fails with the plain
    /// fault.
    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Result<BatchOutcome, TransportError> {
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(requests.len());
        for request in requests {
            let key = request.fingerprint();
            let attempt = self.next_attempt(key);
            let Some(class) = self.plan.decide_key(key, attempt) else {
                self.state.lock().counts.passed += 1;
                verdicts.push(Ok(self
                    .inner
                    .complete_batch(std::slice::from_ref(request))
                    .into_single()));
                continue;
            };
            self.state.lock().counts.record(class);
            let fault = match class {
                // The prompt was transmitted and compute was spent before the
                // deadline fired: the aborted call still bills input tokens.
                FaultClass::Timeout => {
                    self.inner.meter_failed_call(&request.prompt);
                    TransportError::Timeout { waited_ms: self.plan.timeout_ms }
                }
                // Load shedding rejects the call at the door; nothing billed.
                FaultClass::RateLimited => {
                    TransportError::RateLimited { retry_after_ms: self.plan.retry_after_ms }
                }
                FaultClass::TransientServer => {
                    self.inner.meter_failed_call(&request.prompt);
                    TransportError::TransientServer { message: "upstream worker crashed".into() }
                }
                // The model really answered (and billed) but the payload
                // arrived broken.
                FaultClass::MalformedOutput => TransportError::MalformedOutput {
                    preview: mangle(&self.inner.complete(request)),
                },
            };
            if requests.len() == 1 {
                return Err(fault);
            }
            if !class.is_member_scoped() {
                return Err(TransportError::Partial { verdicts, cut: Some(Box::new(fault)) });
            }
            verdicts.push(Err(fault));
        }
        if verdicts.iter().all(Result::is_ok) {
            return verdicts.into_iter().collect();
        }
        Err(TransportError::Partial { verdicts, cut: None })
    }

    fn embed(&self, text: &str) -> Result<Vec<f64>, TransportError> {
        Ok(self.inner.embed(text))
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

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;

    fn sim() -> Arc<SimLlm> {
        let world = WorldSpec::generate(11);
        Arc::new(SimLlm::with_seed(&world, 11))
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::uniform(0.5, 42);
        for prompt in ["alpha", "beta", "gamma"] {
            for attempt in 0..16 {
                assert_eq!(plan.decide(prompt, attempt), plan.decide(prompt, attempt));
            }
        }
        // Across many (prompt, attempt) pairs the decision must vary — the
        // attempt number has to reach the RNG stream or retries would be
        // pointless.
        let outcomes: Vec<Option<FaultClass>> =
            (0..64).map(|attempt| plan.decide("same prompt", attempt)).collect();
        assert!(outcomes.iter().any(Option::is_some));
        assert!(outcomes.iter().any(Option::is_none));
    }

    #[test]
    fn observed_rate_tracks_the_plan() {
        let plan = FaultPlan::transient(0.2, 7);
        let faults =
            (0..2000).filter(|&i| plan.decide(&format!("prompt #{i}"), 0).is_some()).count();
        let rate = faults as f64 / 2000.0;
        assert!((0.15..0.25).contains(&rate), "observed fault rate {rate}");
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let injector = FaultInjector::new("sim", sim(), FaultPlan::none(1));
        let req = CompletionRequest::new("Summarize. Text: nothing ever fails here");
        for _ in 0..20 {
            assert!(injector.complete(&req).is_ok());
        }
        let counts = injector.counts();
        assert_eq!(counts.injected, 0);
        assert_eq!(counts.passed, 20);
    }

    #[test]
    fn injector_matches_its_plan_exactly() {
        let plan = FaultPlan::uniform(0.6, 99);
        let injector = FaultInjector::new("sim", sim(), plan);
        let prompts: Vec<String> =
            (0..50).map(|i| format!("Summarize. Text: document number {i}")).collect();
        let mut expected = FaultCounts::default();
        for prompt in &prompts {
            // Each prompt is called twice; the injector sees attempts 0, 1.
            for attempt in 0..2 {
                match plan.decide(prompt, attempt) {
                    Some(class) => expected.record(class),
                    None => expected.passed += 1,
                }
                let result = injector.complete(&CompletionRequest::new(prompt.clone()));
                assert_eq!(
                    result.err().map(|e| e.class()),
                    plan.decide(prompt, attempt),
                    "replay mismatch on {prompt:?} attempt {attempt}"
                );
            }
        }
        assert_eq!(injector.counts(), expected);
    }

    #[test]
    fn aborted_calls_bill_prompt_tokens_only() {
        let service = sim();
        // transient_rate 1.0: every call faults with a billed abort.
        let injector = FaultInjector::new("sim", service.clone(), FaultPlan::transient(1.0, 3));
        let before = service.usage();
        let err =
            injector.complete(&CompletionRequest::new("Summarize. Text: doomed call")).unwrap_err();
        assert_eq!(err.class(), FaultClass::TransientServer);
        let delta = service.usage().since(&before);
        assert_eq!(delta.failed_calls, 1);
        assert_eq!(delta.calls, 0);
        assert!(delta.tokens_in > 0);
        assert_eq!(delta.tokens_out, 0);
    }

    /// Prompts whose attempt 0 draws `pick` under `plan`.
    fn drawing(
        plan: FaultPlan,
        pick: impl Fn(Option<FaultClass>) -> bool,
    ) -> impl Iterator<Item = String> {
        (0..50_000)
            .map(|i| format!("Summarize. Text: verdict candidate {i}"))
            .filter(move |p| pick(plan.decide(p, 0)))
    }

    #[test]
    fn a_member_scoped_fault_fails_its_member_alone() {
        let plan = FaultPlan::transient(0.5, 13);
        let mut passing = drawing(plan, |class| class.is_none());
        let faulting = drawing(plan, |class| class.is_some()).next().unwrap();
        let requests: Vec<CompletionRequest> =
            [passing.next().unwrap(), faulting, passing.next().unwrap()]
                .map(CompletionRequest::new)
                .into_iter()
                .collect();
        let service = sim();
        let reference = sim();
        let injector = FaultInjector::new("sim", service.clone(), plan);
        let Err(TransportError::Partial { verdicts, cut: None }) =
            injector.complete_batch(&requests)
        else {
            panic!("a member-scoped fault leaves the call standing");
        };
        assert_eq!(verdicts.len(), 3, "every member has its verdict");
        for index in [0, 2] {
            let (answer, _) = verdicts[index].as_ref().expect("answered");
            assert_eq!(answer.as_deref(), Ok(reference.complete(&requests[index]).as_str()));
        }
        assert_eq!(verdicts[1].as_ref().unwrap_err().class(), FaultClass::TransientServer);
        // Both answers and the aborted member billed, as three lone calls.
        let ledger = service.usage();
        assert_eq!((ledger.calls, ledger.failed_calls), (2, 1));
        assert_eq!(
            injector.counts(),
            FaultCounts { injected: 1, passed: 2, transient: 1, ..Default::default() }
        );
    }

    #[test]
    fn a_batch_faulted_partway_delivers_the_members_before_the_fault() {
        let plan = FaultPlan { timeout_rate: 0.5, ..FaultPlan::none(13) };
        let mut passing = drawing(plan, |class| class.is_none());
        // Draws a timeout at attempt 0 inside the batch and at 1 alone.
        let cutting =
            drawing(plan, |class| class.is_some()).find(|p| plan.decide(p, 1).is_some()).unwrap();
        let requests: Vec<CompletionRequest> =
            [passing.next().unwrap(), cutting, passing.next().unwrap()]
                .map(CompletionRequest::new)
                .into_iter()
                .collect();
        let service = sim();
        let injector = FaultInjector::new("sim", service.clone(), plan);
        let Err(TransportError::Partial { verdicts, cut: Some(cut) }) =
            injector.complete_batch(&requests)
        else {
            panic!("a timeout cuts the call");
        };
        assert_eq!(cut.class(), FaultClass::Timeout);
        assert_eq!(verdicts.len(), 1, "the member before the cut");
        assert!(verdicts[0].is_ok());
        // The last member was never reached: its attempt 0 is still ahead.
        assert_eq!(injector.counts().passed + injector.counts().injected, 2);
        assert_eq!(service.usage().calls, 1);
        // A batch of one keeps the plain fault.
        let lone = injector.complete_batch(&requests[1..2]).unwrap_err();
        assert!(!matches!(lone, TransportError::Partial { .. }));
    }

    #[test]
    fn malformed_output_previews_the_real_response() {
        let plan = FaultPlan { malformed_rate: 1.0, ..FaultPlan::none(5) };
        let injector = FaultInjector::new("sim", sim(), plan);
        let err = injector
            .complete(&CompletionRequest::new("Summarize. Text: garbled on the wire"))
            .unwrap_err();
        match err {
            TransportError::MalformedOutput { preview } => {
                assert!(preview.starts_with("{\"answer\": \""));
            }
            other => panic!("expected malformed output, got {other:?}"),
        }
    }
}
