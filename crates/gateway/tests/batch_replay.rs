//! Seeded replay of exact batch compositions under real thread contention.
//!
//! The batcher's unit tests prove the flush state machine on two-to-four
//! member scenarios; this suite replays *workloads* — eight submitter
//! threads, many rounds — and asserts the batch compositions (counts,
//! occupancies, flush reasons) and the token ledger **exactly**, not
//! statistically. Everything here is deterministic: barriers pin which
//! members share a flush, `max_wait` is set so only one trigger can ever
//! fire, and the simulator under the batcher is a pure function of
//! `(seed, prompt)`.
//!
//! The conservation law under test, at every level:
//!
//! ```text
//!   sum(member splits) == batched call usage == backend ledger delta
//! ```
//!
//! token for token, and therefore dollar for dollar to the cent.

use lingua_dataset::world::WorldSpec;
use lingua_gateway::{
    BatchConfig, Batcher, FaultInjector, FaultPlan, FlushReason, Gateway, LlmTransport,
    TransportError,
};
use lingua_llm_sim::{
    BatchOutcome, CancelReason, CancelToken, CodeGenSpec, CompletionRequest, GeneratedCode,
    LlmService, NoAnswer, SimLlm, SimLlmConfig, TokenPricing, Usage,
};
use lingua_ml::sync::Mutex;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const THREADS: usize = 8;
const ROUNDS: usize = 16;

/// A fresh simulator over the same seeded world. `cache` controls whether
/// identical prompts can coalesce; the conservation tests disable it so
/// every live member must bill its own tokens.
fn sim(seed: u64, cache: bool) -> Arc<SimLlm> {
    let world = WorldSpec::generate(47);
    Arc::new(SimLlm::new(&world, SimLlmConfig { seed, cache_enabled: cache, ..Default::default() }))
}

fn prompt(thread: usize, round: usize) -> CompletionRequest {
    CompletionRequest::new(format!(
        "Summarize. Text: replay workload thread {thread} round {round}"
    ))
}

/// The typed answer to one request.
fn answer(service: &dyn LlmService, request: &CompletionRequest) -> Result<Arc<str>, NoAnswer> {
    service.complete_batch(std::slice::from_ref(request)).into_single().0
}

const REFUSED: Result<Arc<str>, NoAnswer> = Err(NoAnswer::Cancelled(CancelReason::Cancelled));

/// Forwards everything to a shared service while keeping every
/// [`BatchOutcome`] the batcher's flushes produced — the oracle for
/// member-level split conservation under contention.
struct Recording {
    inner: Arc<dyn LlmService>,
    outcomes: Mutex<Vec<BatchOutcome>>,
}

impl Recording {
    fn new(inner: Arc<dyn LlmService>) -> Recording {
        Recording { inner, outcomes: Mutex::new(Vec::new()) }
    }

    fn outcomes(&self) -> Vec<BatchOutcome> {
        self.outcomes.lock().clone()
    }
}

impl LlmService for Recording {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        let outcome = self.inner.complete_batch(requests);
        self.outcomes.lock().push(outcome.clone());
        outcome
    }

    fn embed(&self, text: &str) -> Vec<f64> {
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

/// Eight threads, sixteen rounds, one barrier per round: every round's eight
/// members must land in exactly one size-triggered flush. The composition
/// replay is exact — batch count, occupancy, flush reason, and the ledger.
#[test]
fn eight_thread_rounds_replay_as_exact_size_flushes() {
    let service = sim(101, false);
    let batcher = Arc::new(Batcher::new(
        service.clone() as Arc<dyn LlmService>,
        // The window is effectively infinite, so the size trigger is the
        // only one that can fire; occupancy is pinned by the barrier.
        BatchConfig { max_batch_size: THREADS, max_wait: Duration::from_secs(3600) },
    ));
    let reference = sim(101, false);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let batcher = Arc::clone(&batcher);
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut answers = Vec::with_capacity(ROUNDS);
                    for round in 0..ROUNDS {
                        barrier.wait();
                        answers.push(batcher.complete(&prompt(thread, round)));
                    }
                    answers
                })
            })
            .collect();
        for (thread, handle) in handles.into_iter().enumerate() {
            let answers = handle.join().expect("no submitter panicked");
            for (round, answer) in answers.into_iter().enumerate() {
                assert_eq!(
                    answer,
                    reference.complete(&prompt(thread, round)),
                    "batched answer diverged for thread {thread} round {round}"
                );
            }
        }
    });

    let snap = batcher.snapshot();
    assert_eq!(snap.batches, ROUNDS as u64, "one flush per barrier round");
    assert_eq!(snap.members, (THREADS * ROUNDS) as u64);
    assert_eq!(snap.size_flushes, ROUNDS as u64);
    assert_eq!(snap.window_flushes, 0, "the infinite window never fired");
    assert_eq!(snap.max_occupancy, THREADS as u64);
    assert_eq!(snap.cancelled_members, 0);
    assert!((snap.mean_occupancy() - THREADS as f64).abs() < f64::EPSILON);

    let log = batcher.flush_log();
    assert_eq!(log.len(), ROUNDS);
    let mut replayed = Usage::default();
    for (index, record) in log.iter().enumerate() {
        assert_eq!(record.occupancy, THREADS, "flush {index} occupancy");
        assert_eq!(record.live, THREADS, "flush {index} live members");
        assert_eq!(record.cancelled, 0);
        assert_eq!(record.reason, FlushReason::Size, "flush {index} trigger");
        assert_eq!(record.usage.calls, 1, "each flush is one backend call");
        replayed.merge(&record.usage);
    }
    // The replay log reconciles with the backend ledger token for token —
    // and with the reference run's tokens (the reference billed one call per
    // member where the batcher amortized each round into one).
    assert_eq!(replayed, service.usage(), "flush log == ledger, all seven fields");
    let ledger = service.usage();
    let unbatched = reference.usage();
    assert_eq!(ledger.tokens_in, unbatched.tokens_in);
    assert_eq!(ledger.tokens_out, unbatched.tokens_out);
    assert_eq!(ledger.calls, ROUNDS as u64);
    assert_eq!(unbatched.calls, (THREADS * ROUNDS) as u64);
    let pricing = TokenPricing::default();
    let cents = |usd: f64| (usd * 100.0).round() as i64;
    assert_eq!(
        cents(ledger.cost_usd(&pricing)),
        cents(unbatched.cost_usd(&pricing)),
        "batched and unbatched workloads cost the same to the cent"
    );
}

/// Member-level conservation under contention: for every flush the batcher
/// placed, the per-member usage splits sum to the batched call's usage
/// exactly — and the batched usages sum to the ledger.
#[test]
fn member_splits_conserve_the_batched_usage_under_contention() {
    let inner = sim(202, true);
    let recording = Arc::new(Recording::new(inner.clone()));
    let batcher = Arc::new(Batcher::new(
        recording.clone() as Arc<dyn LlmService>,
        BatchConfig { max_batch_size: THREADS, max_wait: Duration::from_secs(3600) },
    ));
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let batcher = Arc::clone(&batcher);
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    // Half the threads repeat a shared prompt each round, so
                    // flushes mix billed members with in-batch coalesces.
                    let request =
                        if thread % 2 == 0 { prompt(0, round) } else { prompt(thread, round) };
                    batcher.complete(&request);
                }
            });
        }
    });

    let outcomes = recording.outcomes();
    assert_eq!(outcomes.len(), ROUNDS, "one batched backend call per round");
    let mut total = Usage::default();
    for (index, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.responses.len(), THREADS);
        assert_eq!(outcome.splits.len(), THREADS);
        let mut summed = Usage::default();
        for split in &outcome.splits {
            summed.merge(split);
        }
        assert_eq!(
            summed, outcome.batch_usage,
            "flush {index}: member splits must sum to the batched usage exactly"
        );
        assert_eq!(
            outcome.batch_usage.calls, 1,
            "flush {index}: the whole batch is one billed call"
        );
        assert_eq!(
            outcome.saved_members(),
            THREADS / 2 - 1,
            "flush {index}: the round's repeated prompt coalesces its duplicates in-batch"
        );
        total.merge(&outcome.batch_usage);
    }
    assert_eq!(total, inner.usage(), "summed batch usages reconcile with the ledger");
    assert_eq!(batcher.snapshot().saved_members, total.cached_calls);
}

/// A single submitter can only ever window-flush alone: the replay is a run
/// of occupancy-1 window flushes, and the batched answers still match an
/// unbatched reference call for call.
#[test]
fn single_threaded_replay_is_all_window_flushes() {
    let service = sim(303, false);
    let reference = sim(303, false);
    let batcher = Batcher::new(
        service.clone() as Arc<dyn LlmService>,
        BatchConfig { max_batch_size: THREADS, max_wait: Duration::from_millis(1) },
    );
    for round in 0..ROUNDS {
        assert_eq!(batcher.complete(&prompt(0, round)), reference.complete(&prompt(0, round)));
    }
    let snap = batcher.snapshot();
    assert_eq!(snap.batches, ROUNDS as u64);
    assert_eq!(snap.window_flushes, ROUNDS as u64);
    assert_eq!(snap.size_flushes, 0);
    assert_eq!(snap.max_occupancy, 1);
    for record in batcher.flush_log() {
        assert_eq!(record.occupancy, 1);
        assert_eq!(record.reason, FlushReason::Window);
    }
    assert_eq!(service.usage(), reference.usage(), "occupancy-1 batching bills identically");
}

/// Gateway partial-batch replay: a faulted batched first attempt keeps the
/// members it delivered and re-dispatches the rest, and because the fault
/// plan is a pure function of `(seed, prompt, attempt)`, the *entire*
/// per-member attempt schedule replays exactly — which member faulted where,
/// how many attempts and retries each burned, and what the ledger billed.
#[test]
fn split_batch_replays_exact_per_member_attempt_schedules() {
    let plan = FaultPlan::transient(0.35, 57);
    let find = |pred: &dyn Fn(&str) -> bool| -> CompletionRequest {
        (0..50_000)
            .map(|i| format!("Summarize. Text: split schedule candidate {i}"))
            .find(|p| pred(p))
            .map(CompletionRequest::new)
            .expect("a matching prompt exists")
    };
    // Pin each member's fault pattern by construction:
    //   A passes every attempt it will see — attempt 0 inside the batched
    //     wire call, attempt 1 as its split re-dispatch;
    //   B faults attempt 0 (failing the wire call, so C is never reached
    //     there), faults its first split attempt (1), passes the retry (2);
    //   C first executes during the split — faults attempt 0, passes 1.
    let a = find(&|p| plan.decide(p, 0).is_none() && plan.decide(p, 1).is_none());
    let b = find(&|p| {
        plan.decide(p, 0).is_some() && plan.decide(p, 1).is_some() && plan.decide(p, 2).is_none()
    });
    let c = find(&|p| plan.decide(p, 0).is_some() && plan.decide(p, 1).is_none());
    let requests = vec![a, b, c];

    let service = sim(505, false);
    let reference = sim(505, false);
    let injector = Arc::new(FaultInjector::new("flaky", service.clone(), plan));
    let gateway = Gateway::over(injector.clone());
    let outcome = gateway.complete_batch(&requests);

    for (request, response) in requests.iter().zip(&outcome.responses) {
        let expected = reference.complete(request);
        assert_eq!(response.as_deref(), Ok(expected.as_str()), "split answers diverged");
    }
    let mut summed = Usage::default();
    for split in &outcome.splits {
        summed.merge(split);
    }
    assert_eq!(summed, outcome.batch_usage, "member splits conserve the batch usage");

    // The injector saw exactly the schedule above: A passed 0 inside the
    // batch and was kept, never re-sent; B faulted 0 and 1 then passed 2
    // alone; C, the unreached tail of one, faulted 0 then passed 1 alone.
    let counts = injector.counts();
    assert_eq!(counts.passed, 3, "A, B and C once each");
    assert_eq!(counts.injected, 3, "B twice, C once");
    assert_eq!(counts.transient, 3);

    // And the gateway booked the same walk: one batched attempt plus
    // 1 (A) + 2 (B) + 2 (C) split attempts, with B's and C's second
    // attempts counted as retries.
    let snap = gateway.snapshot();
    let primary = &snap.backends[0].counters;
    assert_eq!(primary.attempts, 5);
    assert_eq!(primary.retries, 2);
    assert_eq!(primary.faults(), 3);
    assert_eq!(primary.served, 2, "B's and C's lone calls; A rode the faulted batch");
    assert_eq!(snap.salvaged_members, 1, "A was kept");
    assert_eq!(snap.batches, 1);
    assert_eq!(snap.batch_members, 3);
    assert_eq!(snap.batch_splits, 1);
    assert_eq!(snap.degraded(), 0, "per-member retries absorbed every fault");
    assert!(snap.added_backoff_ms() > 0, "B's and C's retries charged backoff");

    // Ledger: A was kept, not recomputed, so three billed calls serve three
    // logical requests, as in the reference, and the three transient faults
    // billed their aborted prompts.
    let ledger = service.usage();
    assert_eq!(ledger.calls, 3);
    assert_eq!(ledger.failed_calls, 3);
    assert_eq!(reference.usage().calls, 3);
}

/// A fault in the middle of a batch: the members before it are kept, the
/// faulted member is retried alone, and the unreached tail goes out as one
/// more batched call — exactly three transport calls, whose answers are the
/// reference's and whose ledger is the reference's, call for call.
#[test]
fn a_mid_batch_fault_keeps_the_head_retries_the_member_and_batches_the_tail() {
    let plan = FaultPlan::transient(0.35, 71);
    let candidates = || (0..50_000).map(|i| format!("Summarize. Text: mid-batch candidate {i}"));
    let mut passing = candidates().filter(|p| plan.decide(p, 0).is_none());
    let mut next = || CompletionRequest::new(passing.next().expect("a passing prompt exists"));
    // The faulted member fails its attempt 0 inside the batch and passes
    // attempt 1 alone; every other member passes the one attempt it sees.
    let faulted = candidates()
        .find(|p| plan.decide(p, 0).is_some() && plan.decide(p, 1).is_none())
        .map(CompletionRequest::new)
        .expect("a fault-then-pass prompt exists");
    let requests = vec![next(), next(), faulted, next(), next()];

    let service = sim(707, false);
    let reference = sim(707, false);
    let backend =
        Arc::new(CancelMidSplit::new(FaultInjector::new("flaky", service.clone(), plan), None));
    let gateway = Gateway::over(backend.clone());
    let outcome = gateway.complete_batch(&requests);

    assert_eq!(backend.sizes(), [5, 1, 2], "the batch, the faulted member alone, the tail");
    for (request, response) in requests.iter().zip(&outcome.responses) {
        assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
    }
    let mut summed = Usage::default();
    for split in &outcome.splits {
        summed.merge(split);
    }
    assert_eq!(summed, outcome.batch_usage);
    let counts = backend.inner.counts();
    assert_eq!((counts.passed, counts.injected), (5, 1), "each member computed once");
    assert_eq!(service.usage().calls, reference.usage().calls);
    let snap = gateway.snapshot();
    assert_eq!((snap.batch_splits, snap.salvaged_members), (1, 2));
    assert_eq!(snap.backends[0].counters.attempts, 3);
    assert_eq!(snap.backends[0].counters.served, 2, "the lone member and the tail");
}

/// Mid-batch cancellation replay: seven members join, three are cancelled
/// while the batch is still filling, the eighth arrival flushes. The
/// composition is exact — 8 occupancy, 5 live, 3 cancelled — and the ledger
/// bills precisely the five survivors' tokens in one call.
#[test]
fn cancelled_members_are_excluded_from_the_replayed_composition() {
    const JOINERS: usize = 7;
    const DOOMED: usize = 3;
    let service = sim(404, false);
    let reference = sim(404, false);
    let batcher = Arc::new(Batcher::new(
        service.clone() as Arc<dyn LlmService>,
        BatchConfig { max_batch_size: JOINERS + 1, max_wait: Duration::from_secs(3600) },
    ));
    let tokens: Vec<CancelToken> = (0..JOINERS).map(|_| CancelToken::unbounded()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..JOINERS)
            .map(|i| {
                let batcher = Arc::clone(&batcher);
                let token = tokens[i].clone();
                scope.spawn(move || answer(&*batcher, &prompt(i, 0).with_cancel(token)))
            })
            .collect();
        // Wait until all seven are in the filling batch, cancel the first
        // three *after* they joined, then flush by filling the batch.
        while batcher.pending_members() < JOINERS {
            std::thread::yield_now();
        }
        for token in tokens.iter().take(DOOMED) {
            token.cancel();
        }
        let flusher = batcher.complete(&prompt(JOINERS, 0));
        assert_eq!(flusher, reference.complete(&prompt(JOINERS, 0)));
        for (i, handle) in handles.into_iter().enumerate() {
            let answer = handle.join().expect("no member panicked");
            if i < DOOMED {
                assert_eq!(answer, REFUSED, "member {i} was cancelled in-batch");
            } else {
                let expected = reference.complete(&prompt(i, 0));
                assert_eq!(answer.as_deref(), Ok(expected.as_str()), "member {i} survived");
            }
        }
    });

    let log = batcher.flush_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].occupancy, JOINERS + 1);
    assert_eq!(log[0].live, JOINERS + 1 - DOOMED);
    assert_eq!(log[0].cancelled, DOOMED);
    assert_eq!(log[0].reason, FlushReason::Size);
    let snap = batcher.snapshot();
    assert_eq!(snap.cancelled_members, DOOMED as u64);
    // The reference served the five survivors one call each; the batcher
    // billed the same tokens in a single call, and nothing for the doomed.
    let ledger = service.usage();
    let unbatched = reference.usage();
    assert_eq!(ledger.calls, 1);
    assert_eq!(unbatched.calls, (JOINERS + 1 - DOOMED) as u64);
    assert_eq!(ledger.tokens_in, unbatched.tokens_in, "cancelled members billed nothing");
    assert_eq!(ledger.tokens_out, unbatched.tokens_out);
    assert_eq!(log[0].usage, ledger, "the flush record carries the exact billed usage");
}

/// A flaky backend that logs the size of every batch it is sent, with one
/// hook: when `doomed` arrives as a batch of one — the gateway has begun
/// re-dispatching a faulted batch's member alone — its job's token is
/// cancelled before the backend answers.
struct CancelMidSplit {
    inner: FaultInjector,
    doomed: Option<u64>,
    token: CancelToken,
    sizes: Mutex<Vec<usize>>,
}

impl CancelMidSplit {
    fn new(inner: FaultInjector, doomed: Option<&CompletionRequest>) -> CancelMidSplit {
        CancelMidSplit {
            inner,
            doomed: doomed.map(CompletionRequest::fingerprint),
            token: CancelToken::unbounded(),
            sizes: Mutex::new(Vec::new()),
        }
    }

    /// The size of each batch the backend was sent, in order.
    fn sizes(&self) -> Vec<usize> {
        self.sizes.lock().clone()
    }
}

impl LlmTransport for CancelMidSplit {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Result<BatchOutcome, TransportError> {
        self.sizes.lock().push(requests.len());
        if let [only] = requests {
            if Some(only.fingerprint()) == self.doomed {
                self.token.cancel();
            }
        }
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

/// Per-member cancellation inside a flush: the batched wire call faults, the
/// gateway splits, and one member's job dies *during* the split. That member
/// is refused as cancelled at once — no retry, no backoff, nothing
/// remembered — while its siblings are served as if it had never been there,
/// and the splits, the batch usage and the ledger agree exactly.
#[test]
fn member_cancelled_mid_split_stops_alone_and_unbilled() {
    // Rate limits only: a refused call bills nothing, so the ledger can be
    // compared field for field.
    let plan = FaultPlan { rate_limit_rate: 0.5, ..FaultPlan::none(61) };
    let candidates = || (0..50_000).map(|i| format!("Summarize. Text: mid-split candidate {i}"));
    // The doomed member is refused on every attempt it could ever see: 0
    // fails the wire call (it joins first, so no sibling is reached there),
    // 1 is its split dispatch, 2..=5 what a later caller would burn.
    let doomed = candidates()
        .find(|p| (0..=5).all(|attempt| plan.decide(p, attempt).is_some()))
        .map(CompletionRequest::new)
        .expect("an always-refused prompt exists at 50%");
    // The siblings first execute during the split, and pass.
    let siblings: Vec<CompletionRequest> = candidates()
        .filter(|p| plan.decide(p, 0).is_none())
        .take(2)
        .map(CompletionRequest::new)
        .collect();

    let service = sim(606, false);
    let reference = sim(606, false);
    let backend = Arc::new(CancelMidSplit::new(
        FaultInjector::new("flaky", service.clone(), plan),
        Some(&doomed),
    ));
    let token = backend.token.clone();
    let gateway = Arc::new(Gateway::over(backend.clone()));
    let recording = Arc::new(Recording::new(gateway.clone()));
    let batcher = Arc::new(Batcher::new(
        recording.clone() as Arc<dyn LlmService>,
        BatchConfig { max_batch_size: 3, max_wait: Duration::from_secs(3600) },
    ));
    std::thread::scope(|scope| {
        // Join order is batch order: the doomed member first.
        let join = |request: CompletionRequest, pending: usize| {
            let member = Arc::clone(&batcher);
            let handle = scope.spawn(move || answer(&*member, &request));
            while batcher.pending_members() < pending {
                std::thread::yield_now();
            }
            handle
        };
        let cancelled = join(doomed.clone().with_cancel(token.clone()), 1);
        let first = join(siblings[0].clone(), 2);
        // The third arrival fills the batch and flushes on this thread.
        assert_eq!(batcher.complete(&siblings[1]), reference.complete(&siblings[1]));
        let first = first.join().expect("no panic");
        assert_eq!(first.as_deref(), Ok(reference.complete(&siblings[0]).as_str()));
        assert_eq!(cancelled.join().expect("no panic"), REFUSED);
    });

    // The batcher saw three live members: the job died after its filter.
    let snap = batcher.snapshot();
    assert_eq!((snap.batches, snap.members, snap.cancelled_members), (1, 3, 0));
    // One attempt for the batch, which faults at the doomed member before
    // delivering any answer, one for the doomed member alone, one for the
    // two siblings as one batch, and nothing after the doomed member's
    // token fired.
    let snap = gateway.snapshot();
    let primary = &snap.backends[0].counters;
    assert_eq!(snap.batch_splits, 1);
    assert_eq!(snap.salvaged_members, 0);
    assert_eq!(primary.attempts, 3);
    assert_eq!(backend.sizes(), [3, 1, 2]);
    assert_eq!(primary.retries, 0, "a dead job's member is not retried");
    assert_eq!(snap.added_backoff_ms(), 0, "nor charged backoff");
    assert_eq!(snap.cancelled, 1);
    assert_eq!(snap.degraded(), 0);
    let counts = backend.inner.counts();
    assert_eq!((counts.injected, counts.passed), (2, 2));

    // sum(splits) == batch usage == ledger delta: two billed calls, the
    // siblings'; the cancelled member's split is empty.
    let outcomes = recording.outcomes();
    assert_eq!(outcomes.len(), 1);
    let mut summed = Usage::default();
    for split in &outcomes[0].splits {
        summed.merge(split);
    }
    assert_eq!(outcomes[0].splits[0], Usage::default());
    assert_eq!(summed, outcomes[0].batch_usage);
    assert_eq!(outcomes[0].batch_usage, service.usage());
    assert_eq!(service.usage(), reference.usage());

    // The refusal never entered the stale cache: a later live caller that
    // exhausts the backend on the same prompt finds nothing to recall.
    assert_eq!(answer(&*gateway, &doomed), Err(NoAnswer::Unavailable));
    assert_eq!(gateway.snapshot().degraded_cache_hits, 0);
}

/// A tail member whose job dies while the faulted member is retried: the
/// tail is not placed as a batch, since that would bill a dead job, so each
/// tail member goes alone and the dead one is refused before any attempt,
/// counted, and billed nothing.
#[test]
fn a_tail_member_whose_job_died_mid_split_is_refused_unbilled() {
    let plan = FaultPlan { rate_limit_rate: 0.5, ..FaultPlan::none(61) };
    let candidates = || (0..50_000).map(|i| format!("Summarize. Text: mid-split candidate {i}"));
    // Refused at attempt 0 inside the batch and at attempt 1 alone.
    let doomed = candidates()
        .find(|p| (0..=1).all(|attempt| plan.decide(p, attempt).is_some()))
        .map(CompletionRequest::new)
        .expect("a twice-refused prompt exists at 50%");
    let mut passing =
        candidates().filter(|p| plan.decide(p, 0).is_none()).map(CompletionRequest::new);

    let service = sim(808, false);
    let reference = sim(808, false);
    let backend = Arc::new(CancelMidSplit::new(
        FaultInjector::new("flaky", service.clone(), plan),
        Some(&doomed),
    ));
    let token = backend.token.clone();
    let gateway = Gateway::over(backend.clone());
    // The doomed member leads; the last tail member belongs to its job.
    let live = [passing.next().unwrap(), passing.next().unwrap()];
    let requests = vec![
        doomed.with_cancel(token.clone()),
        live[0].clone(),
        live[1].clone(),
        passing.next().unwrap().with_cancel(token),
    ];
    let outcome = gateway.complete_batch(&requests);

    assert_eq!(outcome.responses[0], REFUSED);
    assert_eq!(outcome.responses[3], REFUSED);
    for (request, response) in live.iter().zip(&outcome.responses[1..3]) {
        assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
    }
    assert_eq!(backend.sizes(), [4, 1, 1, 1], "the dead member took no call");
    assert_eq!(outcome.splits[3], Usage::default());
    let snap = gateway.snapshot();
    assert_eq!(snap.cancelled, 2, "the doomed member and its job's tail member");
    assert_eq!(snap.backends[0].counters.retries, 0);
    assert_eq!(backend.inner.counts().passed, 2);
    assert_eq!(outcome.batch_usage, service.usage());
    assert_eq!(service.usage(), reference.usage());
}
