//! Chaos-trace reconciliation tests.
//!
//! `chaos.rs` proves the gateway's *counters* match a pure replay of the
//! fault plans. These tests raise the bar to the *trace*: the instant
//! stream recorded under each `gateway` span must replay the routing
//! decisions event for event — same names, same attributes, same order —
//! and the per-event tallies must reconcile with the aggregate snapshot.
//! Counters can be right by accident; an event-for-event transcript cannot.

use lingua_dataset::world::WorldSpec;
use lingua_gateway::{
    prompt_key, BackoffPolicy, BreakerConfig, FaultClass, FaultInjector, FaultPlan, Gateway,
    ServiceTransport,
};
use lingua_llm_sim::{CompletionRequest, LlmService, SimLlm};
use lingua_trace::{ring_tracer, SpanKind, TraceTree};
use std::collections::BTreeMap;
use std::sync::Arc;

fn sim(world_seed: u64, llm_seed: u64) -> Arc<SimLlm> {
    let world = WorldSpec::generate(world_seed);
    Arc::new(SimLlm::with_seed(&world, llm_seed))
}

fn prompts(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("Summarize. Text: chaos trace record {i}")).collect()
}

/// A breaker that never trips, so the replay only models retry and failover.
fn breaker_disabled() -> BreakerConfig {
    BreakerConfig { min_calls: usize::MAX, ..BreakerConfig::default() }
}

type Attrs = BTreeMap<String, String>;

fn attrs(pairs: &[(&str, String)]) -> Attrs {
    pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

/// Pure replay of `Gateway::call_resilient` for one request, emitting the
/// exact instant stream the tracer should have recorded plus the request
/// span's terminal `path` attribute.
fn expected_request_trace(
    backends: &[(&str, FaultPlan)],
    backoff: &BackoffPolicy,
    prompt: &str,
) -> (Vec<(String, Attrs)>, &'static str) {
    let key = prompt_key(prompt);
    let mut events = Vec::new();
    for (idx, (name, plan)) in backends.iter().enumerate() {
        if idx > 0 {
            events.push(("failover".to_string(), attrs(&[("to", name.to_string())])));
        }
        let mut attempt: u32 = 0;
        loop {
            events.push((
                "attempt".to_string(),
                attrs(&[("backend", name.to_string()), ("retry", (attempt > 0).to_string())]),
            ));
            let Some(class) = plan.decide_key(key, u64::from(attempt)) else {
                events.push(("served".to_string(), attrs(&[("backend", name.to_string())])));
                return (events, "served");
            };
            events.push((
                "fault".to_string(),
                attrs(&[("backend", name.to_string()), ("class", class.label().to_string())]),
            ));
            attempt += 1;
            if class == FaultClass::MalformedOutput || attempt >= backoff.max_attempts {
                break;
            }
            let mut delay = backoff.delay_ms(key, attempt);
            if class == FaultClass::RateLimited {
                delay = delay.max(plan.retry_after_ms);
            }
            events.push((
                "backoff".to_string(),
                attrs(&[("backend", name.to_string()), ("delay_ms", delay.to_string())]),
            ));
        }
    }
    events.push(("degraded_fallback".to_string(), Attrs::new()));
    (events, "degraded_fallback")
}

#[test]
fn trace_replays_the_same_story_as_the_counters() {
    let primary_plan = FaultPlan::uniform(0.5, 101);
    let standby_plan = FaultPlan::transient(0.25, 202);
    let backoff = BackoffPolicy { seed: 7, ..BackoffPolicy::default() };
    let workload = prompts(120);
    let (tracer, sink) = ring_tracer(1 << 15);

    let gateway = Gateway::builder()
        .backend(Arc::new(FaultInjector::new("primary", sim(41, 41), primary_plan)))
        .backend(Arc::new(FaultInjector::new("standby", sim(41, 41), standby_plan)))
        .fallback(Arc::new(ServiceTransport::new("cheap", sim(41, 41))))
        .backoff(backoff)
        .breaker(breaker_disabled())
        .tracer(tracer.clone())
        .build();
    for prompt in &workload {
        let request = CompletionRequest::new(prompt.clone());
        let (response, _) = gateway.complete_batch(&[request]).into_single();
        assert!(response.is_ok(), "the clean fallback absorbs every outage");
    }

    assert_eq!(tracer.dropped(), 0, "the ring must be sized for the workload");
    let tree = TraceTree::build(&sink.events()).expect("trace stream is well-formed");
    let requests = tree.spans_of_kind(SpanKind::Gateway);
    assert_eq!(requests.len(), workload.len(), "one gateway span per request");

    // Event for event: each request's instants equal a pure replay of the
    // fault plans and backoff schedule.
    let plans = [("primary", primary_plan), ("standby", standby_plan)];
    for (span, prompt) in requests.iter().zip(&workload) {
        let (expected, path) = expected_request_trace(&plans, &backoff, prompt);
        assert_eq!(span.name, "complete");
        assert_eq!(span.attrs.get("path").map(String::as_str), Some(path));
        let actual: Vec<(String, Attrs)> =
            span.instants.iter().map(|i| (i.name.clone(), i.attrs.clone())).collect();
        assert_eq!(actual, expected, "instant stream diverges for {prompt:?}");
    }

    // In aggregate, the instants reconcile with the snapshot counters.
    let snap = gateway.snapshot();
    let with = |name: &str, key: &str, value: &str| -> u64 {
        requests
            .iter()
            .flat_map(|s| &s.instants)
            .filter(|i| i.name == name && i.attrs.get(key).map(String::as_str) == Some(value))
            .count() as u64
    };
    for backend in &snap.backends {
        let name = backend.name.as_str();
        assert_eq!(with("attempt", "backend", name), backend.counters.attempts);
        assert_eq!(with("served", "backend", name), backend.counters.served);
        assert_eq!(with("fault", "backend", name), backend.counters.faults());
        let retries = requests
            .iter()
            .flat_map(|s| &s.instants)
            .filter(|i| {
                i.name == "attempt"
                    && i.attrs.get("backend").map(String::as_str) == Some(name)
                    && i.attrs.get("retry").map(String::as_str) == Some("true")
            })
            .count() as u64;
        assert_eq!(retries, backend.counters.retries);
        for class in [FaultClass::Timeout, FaultClass::RateLimited, FaultClass::TransientServer] {
            let faults = requests
                .iter()
                .flat_map(|s| &s.instants)
                .filter(|i| {
                    i.name == "fault"
                        && i.attrs.get("backend").map(String::as_str) == Some(name)
                        && i.attrs.get("class").map(String::as_str) == Some(class.label())
                })
                .count() as u64;
            let expected = match class {
                FaultClass::Timeout => backend.counters.timeouts,
                FaultClass::RateLimited => backend.counters.rate_limited,
                FaultClass::TransientServer => backend.counters.transient,
                FaultClass::MalformedOutput => backend.counters.malformed,
            };
            assert_eq!(faults, expected, "fault class {} diverges on {name}", class.label());
        }
        let backoff_ms: u64 = requests
            .iter()
            .flat_map(|s| &s.instants)
            .filter(|i| {
                i.name == "backoff" && i.attrs.get("backend").map(String::as_str) == Some(name)
            })
            .map(|i| i.attrs["delay_ms"].parse::<u64>().expect("delay_ms is numeric"))
            .sum();
        assert_eq!(backoff_ms, backend.counters.backoff_ms, "backoff charge diverges on {name}");
    }
    let named = |name: &str| -> u64 {
        requests.iter().flat_map(|s| &s.instants).filter(|i| i.name == name).count() as u64
    };
    assert_eq!(named("failover"), snap.failovers);
    assert_eq!(named("degraded_fallback"), snap.degraded_fallbacks);
    assert_eq!(snap.degraded_static, 0);

    // The chaos really exercised every layer the trace claims to cover.
    assert!(snap.faults() > 0, "a 50% plan must inject");
    assert!(snap.retries() > 0, "transient faults must be retried");
    assert!(snap.failovers > 0, "exhausted retries must fail over");
}

#[test]
fn breaker_transitions_are_visible_in_the_trace() {
    // Same deterministic walk as the breaker-shielding unit test: a dead
    // primary, one attempt per request, breaker trips after 4 failures.
    let (tracer, sink) = ring_tracer(1 << 14);
    let standby = sim(7, 7);
    let gateway = Gateway::builder()
        .backend(Arc::new(FaultInjector::new("dead", sim(7, 7), FaultPlan::transient(1.0, 9))))
        .backend(Arc::new(ServiceTransport::new("standby", standby)))
        .backoff(BackoffPolicy { max_attempts: 1, ..BackoffPolicy::default() })
        .breaker(BreakerConfig {
            window: 8,
            min_calls: 4,
            failure_threshold: 0.5,
            cooldown_denials: 3,
            probe_trials: 2,
            probe_successes: 2,
        })
        .tracer(tracer.clone())
        .build();
    for i in 0..12 {
        gateway.complete(&CompletionRequest::new(format!("Summarize. Text: breaker req {i}")));
    }

    let snap = gateway.snapshot();
    let tree = TraceTree::build(&sink.events()).expect("trace stream is well-formed");
    let requests = tree.spans_of_kind(SpanKind::Gateway);
    assert_eq!(requests.len(), 12);
    let named = |name: &str| -> u64 {
        requests.iter().flat_map(|s| &s.instants).filter(|i| i.name == name).count() as u64
    };
    assert_eq!(named("breaker_denied"), snap.backends[0].counters.breaker_denied);
    assert_eq!(named("failover"), snap.failovers);
    assert_eq!(named("served"), 12, "every request lands on the standby");
    // Each breaker trip is stamped on the fault that caused it.
    let opened = requests
        .iter()
        .flat_map(|s| &s.instants)
        .filter(|i| i.name == "fault" && i.attrs.get("breaker").map(String::as_str) == Some("open"))
        .count() as u64;
    assert_eq!(opened, snap.backends[0].breaker.opened);
    assert!(opened > 0, "the breaker must have tripped at least once");
    assert!(named("breaker_denied") > 0, "cooldown denials must be traced");
}
