//! Deterministic chaos integration tests.
//!
//! The fault decision is a pure function of `(plan seed, prompt, attempt)`
//! and the backoff schedule a pure function of `(seed, key, attempt)`, so a
//! test can *replay* the gateway's retry/failover policy over the same plans
//! and derive the exact expected counters — no tolerance bands, no "roughly
//! 20%". If any of these assertions drift, either the determinism contract
//! or the routing policy changed; both are breaking changes.

use lingua_dataset::world::WorldSpec;
use lingua_gateway::{
    prompt_key, BackendCounters, BackoffPolicy, BreakerConfig, FaultClass, FaultInjector,
    FaultPlan, Gateway, ServiceTransport,
};
use lingua_llm_sim::{CompletionRequest, LlmService, SimLlm};
use std::sync::Arc;

fn sim(world_seed: u64, llm_seed: u64) -> Arc<SimLlm> {
    let world = WorldSpec::generate(world_seed);
    Arc::new(SimLlm::with_seed(&world, llm_seed))
}

fn prompts(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("Summarize. Text: chaos workload record {i}")).collect()
}

/// A breaker that never trips, so the replay below only has to model retry
/// and failover (the breaker state machine has its own exact-count tests).
fn breaker_disabled() -> BreakerConfig {
    BreakerConfig { min_calls: usize::MAX, ..BreakerConfig::default() }
}

/// Replay of `Gateway::call_resilient` over pure plan/backoff functions.
#[derive(Default)]
struct ExpectedBackend {
    counters: BackendCounters,
}

struct Replay {
    backends: Vec<ExpectedBackend>,
    failovers: u64,
    degraded_fallbacks: u64,
}

/// Mirror the gateway's routing policy: retry the same backend with jittered
/// backoff while the fault is retryable and the attempt budget lasts, then
/// fail over; a request no backend served goes to the fallback.
fn replay(plans: &[FaultPlan], backoff: &BackoffPolicy, prompts: &[String]) -> Replay {
    let mut out = Replay {
        backends: plans.iter().map(|_| ExpectedBackend::default()).collect(),
        failovers: 0,
        degraded_fallbacks: 0,
    };
    for prompt in prompts {
        let key = prompt_key(prompt);
        let mut served = false;
        for (idx, plan) in plans.iter().enumerate() {
            if idx > 0 {
                out.failovers += 1;
            }
            let expected = &mut out.backends[idx].counters;
            // Unique prompts: the injector's per-prompt attempt counter and
            // the gateway's per-backend attempt counter advance in lockstep.
            let mut attempt: u32 = 0;
            loop {
                expected.attempts += 1;
                if attempt > 0 {
                    expected.retries += 1;
                }
                let Some(class) = plan.decide_key(key, u64::from(attempt)) else {
                    expected.served += 1;
                    served = true;
                    break;
                };
                let mut retry_hint = None;
                match class {
                    FaultClass::Timeout => expected.timeouts += 1,
                    FaultClass::RateLimited => {
                        expected.rate_limited += 1;
                        retry_hint = Some(plan.retry_after_ms);
                    }
                    FaultClass::TransientServer => expected.transient += 1,
                    FaultClass::MalformedOutput => expected.malformed += 1,
                }
                attempt += 1;
                let retryable = class != FaultClass::MalformedOutput;
                if !retryable || attempt >= backoff.max_attempts {
                    break;
                }
                let mut delay = backoff.delay_ms(key, attempt);
                if let Some(hint) = retry_hint {
                    delay = delay.max(hint);
                }
                expected.backoff_ms += delay;
            }
            if served {
                break;
            }
        }
        if !served {
            out.degraded_fallbacks += 1;
        }
    }
    out
}

#[test]
fn chaos_counters_match_the_plan_replay_exactly() {
    let primary_plan = FaultPlan::uniform(0.5, 101);
    let standby_plan = FaultPlan::transient(0.25, 202);
    let backoff = BackoffPolicy { seed: 7, ..BackoffPolicy::default() };
    let workload = prompts(120);

    let primary = Arc::new(FaultInjector::new("primary", sim(41, 41), primary_plan));
    let standby = Arc::new(FaultInjector::new("standby", sim(41, 41), standby_plan));
    let fallback = sim(41, 41);
    let gateway = Gateway::builder()
        .backend(primary)
        .backend(standby)
        .fallback(Arc::new(ServiceTransport::new("cheap", fallback)))
        .backoff(backoff)
        .breaker(breaker_disabled())
        .build();

    for prompt in &workload {
        let request = CompletionRequest::new(prompt.clone());
        let (response, _) = gateway.complete_batch(&[request]).into_single();
        assert!(response.is_ok(), "the clean fallback absorbs every outage");
    }

    let expected = replay(&[primary_plan, standby_plan], &backoff, &workload);
    let snap = gateway.snapshot();
    assert_eq!(snap.requests, workload.len() as u64);
    assert_eq!(snap.failovers, expected.failovers);
    assert_eq!(snap.degraded_fallbacks, expected.degraded_fallbacks);
    assert_eq!(snap.degraded_static, 0);
    assert_eq!(snap.degraded_cache_hits, 0, "every prompt is unique");
    for (idx, name) in ["primary", "standby"].iter().enumerate() {
        assert_eq!(
            snap.backends[idx].counters, expected.backends[idx].counters,
            "replayed counters diverge on backend {name}"
        );
    }
    // The chaos actually exercised every layer under test.
    assert!(snap.faults() > 0, "a 50% plan must inject");
    assert!(snap.retries() > 0, "transient faults must be retried");
    assert!(expected.failovers > 0, "exhausted retries must fail over");
    assert!(snap.added_backoff_ms() > 0, "retries must charge backoff latency");
}

#[test]
fn twenty_percent_transient_faults_cause_zero_request_failures() {
    // The acceptance bar: at a 20% transient-fault rate, a workload through
    // the gateway completes with zero request-level failures, and every
    // response matches what a healthy backend would have said.
    let plan = FaultPlan::transient(0.20, 99);
    let flaky = Arc::new(FaultInjector::new("flaky", sim(43, 43), plan));
    let standby = sim(43, 43);
    let reference = sim(43, 43);
    let gateway = Gateway::builder()
        .backend(flaky)
        .backend(Arc::new(ServiceTransport::new("standby", standby)))
        .build();

    let workload = prompts(200);
    for prompt in &workload {
        let request = CompletionRequest::new(prompt.clone());
        assert_eq!(
            gateway.complete(&request),
            reference.complete(&request),
            "a faulted-then-recovered request must still return the real answer"
        );
    }
    let snap = gateway.snapshot();
    assert_eq!(snap.requests, 200);
    assert_eq!(snap.degraded(), 0, "no request fell through to degraded mode");
    assert!(snap.faults() > 0, "the plan injected transient faults");
    assert_eq!(
        snap.backends[0].counters.served + snap.backends[1].counters.served,
        200,
        "every request was served by a real backend"
    );
}

#[test]
fn same_seed_same_story_different_seed_different_story() {
    // Two gateways over identical plans must produce identical snapshots;
    // changing only the plan seed must change the fault pattern.
    let workload = prompts(60);
    let run = |seed: u64| {
        let plan = FaultPlan::uniform(0.4, seed);
        let injector = Arc::new(FaultInjector::new("flaky", sim(47, 47), plan));
        let standby = Arc::new(ServiceTransport::new("standby", sim(47, 47)));
        let gateway = Gateway::builder()
            .backend(injector)
            .backend(standby)
            .breaker(breaker_disabled())
            .build();
        for prompt in &workload {
            gateway.complete(&CompletionRequest::new(prompt.clone()));
        }
        gateway.snapshot()
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b, "a fixed seed replays the exact same chaos");
    let c = run(4321);
    assert_ne!(
        a.backends[0].counters, c.backends[0].counters,
        "a different seed must produce different chaos"
    );
}
