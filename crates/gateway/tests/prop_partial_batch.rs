//! Property suite for per-member placement: a batched wire call keeps every
//! answer it brings back, and each member it did not answer — its own fault,
//! or never reached past a connection cut — rides a later call beside the
//! others the batcher re-sends, until its attempt budget is spent and it goes
//! alone down the failover and degraded ladder. For any batch size, mixed
//! fault rate and backend line-up, with a lone caller's batcher re-sending:
//!
//! ```text
//!   every Ok answer == the fault-free reference's answer
//!   no member leaves the batcher NoAnswer::Resend
//!   no member leaves the batcher NoAnswer::Owed
//!   sum(member splits) == batch usage
//!   ledger calls - batch usage calls == malformed faults   (nothing answered is billed twice)
//!   ledger failed calls == timeouts + transient faults
//!   primary calls <= max_attempts + connection-scoped faults
//!   other calls == members that left the primary for the ladder
//! ```
//!
//! The primary law is the one the old schedule broke: it sent each faulted
//! member alone for its retries, so the calls grew with the number of
//! faulted members. Now they share calls, and the member left open longest
//! bounds them: each call before its last either faulted it (at most
//! `max_attempts - 1` times, or it would have left for the ladder) or cut
//! the call before reaching it. A malformed fault bills a whole call by
//! design — the model answered, the payload broke — so it is the one fault
//! the ledger may bill beside the member's answer. The breaker is pinned
//! shut so every call the gateway places follows from a fault it saw;
//! `LINGUA_CHAOS_FAULT_RATE` (default 0.5) caps the drawn fault rate.

use lingua_dataset::world::WorldSpec;
use lingua_gateway::{
    BackoffPolicy, BatchConfig, Batcher, BreakerConfig, FaultInjector, FaultPlan, Gateway,
    LlmTransport, ServiceTransport, TransportError,
};
use lingua_llm_sim::{
    BatchOutcome, CompletionRequest, LlmService, NoAnswer, SimLlm, SimLlmConfig, Usage,
};
use lingua_ml::check::check;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WORLD_SEED: u64 = 89;

fn max_fault_rate() -> f64 {
    std::env::var("LINGUA_CHAOS_FAULT_RATE")
        .ok()
        .and_then(|raw| raw.parse::<f64>().ok())
        .filter(|rate| (0.0..=1.0).contains(rate))
        .unwrap_or(0.5)
}

/// A simulator whose answers are a pure function of `(seed, prompt)` and
/// that bills every computation: no cache, so a recomputed member shows up
/// in the ledger as a second call.
fn sim(world: &WorldSpec, seed: u64) -> Arc<SimLlm> {
    Arc::new(SimLlm::new(world, SimLlmConfig { seed, cache_enabled: false, ..Default::default() }))
}

/// Forwards to `inner`, counting every `complete_batch` call on a counter
/// shared by all of a gateway's transports.
struct Counting<T> {
    inner: T,
    calls: Arc<AtomicU64>,
}

fn counted<T>(inner: T, calls: &Arc<AtomicU64>) -> Arc<Counting<T>> {
    Arc::new(Counting { inner, calls: Arc::clone(calls) })
}

impl<T: LlmTransport> LlmTransport for Counting<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Result<BatchOutcome, TransportError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.complete_batch(requests)
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
}

#[derive(Debug)]
struct Case {
    members: usize,
    fault_rate: f64,
    plan_seed: u64,
    standby: bool,
    fallback: bool,
}

#[test]
fn a_partial_batch_keeps_its_prefix_and_bills_each_answer_once() {
    let world = WorldSpec::generate(WORLD_SEED);
    let max_rate = max_fault_rate();
    check(
        "a_partial_batch_keeps_its_prefix_and_bills_each_answer_once",
        96,
        |g| Case {
            members: g.int(2usize..=16),
            fault_rate: g.grid(0.0, max_rate, 1.0 / 64.0),
            plan_seed: g.int(0u64..1 << 32),
            standby: g.bool(),
            fallback: g.bool(),
        },
        |case| {
            let requests: Vec<CompletionRequest> = (0..case.members)
                .map(|i| {
                    CompletionRequest::new(format!(
                        "Summarize. Text: partial batch plan {} member {i}",
                        case.plan_seed
                    ))
                })
                .collect();
            let primary_calls = Arc::new(AtomicU64::new(0));
            let other_calls = Arc::new(AtomicU64::new(0));
            let plan = FaultPlan::uniform(case.fault_rate, case.plan_seed);
            let injector =
                counted(FaultInjector::new("flaky", sim(&world, WORLD_SEED), plan), &primary_calls);
            let mut builder = Gateway::builder()
                .breaker(BreakerConfig { min_calls: usize::MAX, ..BreakerConfig::default() })
                .backend(injector.clone());
            if case.standby {
                let standby = ServiceTransport::new("standby", sim(&world, WORLD_SEED));
                builder = builder.backend(counted(standby, &other_calls));
            }
            if case.fallback {
                let cheap = ServiceTransport::new("cheap", sim(&world, WORLD_SEED));
                builder = builder.fallback(counted(cheap, &other_calls));
            }
            let gateway = Arc::new(builder.build());
            // A lone caller's batcher: each flush places every member still
            // unanswered.
            let batcher = Batcher::new(
                gateway.clone() as Arc<dyn LlmService>,
                BatchConfig { max_batch_size: case.members, max_wait: Duration::ZERO },
            );
            let outcome = batcher.complete_batch(&requests);

            let reference = sim(&world, WORLD_SEED);
            assert_eq!(outcome.responses.len(), case.members);
            for (request, response) in requests.iter().zip(&outcome.responses) {
                match response {
                    Ok(text) => {
                        assert_eq!(text.as_ref(), reference.complete(request), "answer diverged")
                    }
                    // Neither a resend nor an owed verdict: the batcher
                    // settles both before its caller returns.
                    Err(no_answer) => {
                        assert_eq!(*no_answer, NoAnswer::Unavailable);
                        assert!(!case.standby && !case.fallback, "a healthy backend was left");
                    }
                }
            }

            let mut summed = Usage::default();
            for split in &outcome.splits {
                summed.merge(split);
            }
            assert_eq!(summed, outcome.batch_usage, "splits conserve the batch usage");
            let counts = injector.inner.counts();
            let ledger = gateway.usage();
            assert_eq!(
                ledger.calls - outcome.batch_usage.calls,
                counts.malformed,
                "only a malformed fault bills beside an answer"
            );
            assert_eq!(ledger.failed_calls, counts.timeouts + counts.transient);
            if counts.timeouts + counts.transient + counts.malformed == 0 {
                assert_eq!(ledger, outcome.batch_usage, "a ledger without fault bills");
            }

            let placed = primary_calls.load(Ordering::Relaxed);
            let cuts = counts.timeouts + counts.rate_limited;
            let max_attempts = u64::from(BackoffPolicy::default().max_attempts);
            assert!(
                placed <= max_attempts + cuts,
                "{placed} primary calls for {cuts} connection-scoped faults"
            );
            let snap = gateway.snapshot();
            // A member that left the primary makes one more call: the standby
            // never faults, and without one the fallback answers, if any.
            let left = if case.standby { snap.failovers } else { snap.degraded_fallbacks };
            assert_eq!(
                other_calls.load(Ordering::Relaxed),
                left,
                "one call per member that left the primary"
            );
            assert_eq!(snap.requests, case.members as u64, "each member resolved once");
            let resent: u64 = batcher.flush_log().iter().map(|f| f.resent as u64).sum();
            assert_eq!(snap.resent_members, resent);
            assert_eq!(snap.batch_splits == 0, counts.injected == 0);
        },
    );
}
