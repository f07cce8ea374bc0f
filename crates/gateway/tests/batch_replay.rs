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

/// A lone caller's batcher over `service`: every flush places the members
/// still unanswered, so the rounds of a faulted batch replay exactly.
fn resending(service: Arc<dyn LlmService>, members: usize) -> Batcher {
    Batcher::new(service, BatchConfig { max_batch_size: members, max_wait: Duration::ZERO })
}

/// The per-member placement law replayed from `plan` over one primary, as a
/// lone caller's [`resending`] batcher drives it. Each round places the
/// members still unanswered as one wire call, in order, each drawing its
/// next attempt. A member-scoped fault sends its member to the next round
/// with an attempt spent; a connection-scoped one does the same and leaves
/// the members after it unreached, for the next round as they were. A
/// member whose `max_attempts` are spent leaves for the ladder. A round of
/// one is a lone request, retried in place from the attempts it carries.
#[derive(Debug, Default)]
struct Rounds {
    /// The members of each wire call, in order.
    calls: Vec<Vec<usize>>,
    faults: u64,
    /// Members answered `Resend`, once per time.
    resent: u64,
    /// Whether the primary answered each member.
    answered: Vec<bool>,
}

fn replay_rounds(plan: &FaultPlan, prompts: &[&str], max_attempts: u32) -> Rounds {
    let mut next = vec![0u64; prompts.len()];
    let mut spent = vec![0u32; prompts.len()];
    let mut rounds = Rounds { answered: vec![false; prompts.len()], ..Rounds::default() };
    let mut open: Vec<usize> = (0..prompts.len()).collect();
    while let [first, ..] = open[..] {
        if open.len() == 1 {
            while spent[first] < max_attempts {
                rounds.calls.push(vec![first]);
                next[first] += 1;
                if plan.decide(prompts[first], next[first] - 1).is_none() {
                    rounds.answered[first] = true;
                    break;
                }
                rounds.faults += 1;
                spent[first] += 1;
            }
            break;
        }
        rounds.calls.push(open.clone());
        let mut unanswered = Vec::new();
        let mut members = open.iter().copied();
        for i in members.by_ref() {
            next[i] += 1;
            let Some(class) = plan.decide(prompts[i], next[i] - 1) else {
                rounds.answered[i] = true;
                continue;
            };
            rounds.faults += 1;
            spent[i] += 1;
            if spent[i] < max_attempts {
                unanswered.push(i);
            }
            if !class.is_member_scoped() {
                break;
            }
        }
        unanswered.extend(members);
        rounds.resent += unanswered.len() as u64;
        open = unanswered;
    }
    rounds
}

/// Gateway resend replay: a faulted member rides the next call beside the
/// other unanswered members, and because the fault plan is a pure function
/// of `(seed, prompt, attempt)`, the *entire* per-member attempt schedule
/// replays exactly — which member faulted where, which calls it rode, and
/// what the ledger billed.
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
    //   A passes attempt 0;
    //   B faults attempts 0 and 1 and passes 2;
    //   C faults attempt 0 and passes 1.
    let a = find(&|p| plan.decide(p, 0).is_none());
    let b = find(&|p| {
        plan.decide(p, 0).is_some() && plan.decide(p, 1).is_some() && plan.decide(p, 2).is_none()
    });
    let c = find(&|p| plan.decide(p, 0).is_some() && plan.decide(p, 1).is_none());
    let requests = vec![a, b, c];
    let prompts: Vec<&str> = requests.iter().map(|r| r.prompt.as_str()).collect();
    let expected = replay_rounds(&plan, &prompts, 4);

    let service = sim(505, false);
    let reference = sim(505, false);
    let injector = Arc::new(FaultInjector::new("flaky", service.clone(), plan));
    let gateway = Arc::new(Gateway::over(injector.clone()));
    let batcher = resending(gateway.clone(), requests.len());
    let outcome = batcher.complete_batch(&requests);

    for (request, response) in requests.iter().zip(&outcome.responses) {
        let expected = reference.complete(request);
        assert_eq!(response.as_deref(), Ok(expected.as_str()), "resent answers diverged");
    }
    let mut summed = Usage::default();
    for split in &outcome.splits {
        summed.merge(split);
    }
    assert_eq!(summed, outcome.batch_usage, "member splits conserve the batch usage");

    // The flushes are the replay's calls: all three, then B and C, then B
    // alone, each after the one before re-sent its unanswered members.
    let occupancies: Vec<usize> = batcher.flush_log().iter().map(|f| f.occupancy).collect();
    let calls: Vec<usize> = expected.calls.iter().map(Vec::len).collect();
    assert_eq!(occupancies, calls);
    assert_eq!(calls, [3, 2, 1]);
    let resent: u64 = batcher.flush_log().iter().map(|f| f.resent as u64).sum();
    assert_eq!(resent, expected.resent);

    let counts = injector.counts();
    assert_eq!(counts.passed, 3, "A, B and C once each");
    assert_eq!(counts.injected, expected.faults);
    let snap = gateway.snapshot();
    let primary = &snap.backends[0].counters;
    assert_eq!(primary.attempts, expected.calls.len() as u64);
    assert_eq!(primary.served, expected.calls.len() as u64, "every call came back");
    assert_eq!(primary.faults(), expected.faults);
    assert_eq!(primary.retries, 1, "B's lone call, with two attempts spent");
    assert_eq!(snap.resent_members, expected.resent);
    assert_eq!(snap.requests, 3, "each member resolved once");
    assert_eq!((snap.batches, snap.batch_members), (2, 5));
    assert_eq!(snap.degraded(), 0, "re-sending absorbed every fault");
    assert!(snap.added_backoff_ms() > 0, "every resend charged backoff");

    // Ledger: nothing answered was recomputed, so three billed calls serve
    // three logical requests, as in the reference, and every transient
    // fault billed its aborted prompt.
    let ledger = service.usage();
    assert_eq!(ledger.calls, 3);
    assert_eq!(ledger.failed_calls, expected.faults);
    assert_eq!(reference.usage().calls, 3);
}

/// A fault in the middle of a batch: every other member is answered by the
/// call, and only the faulted member rides the next one — two transport
/// calls, whose answers are the reference's and whose ledger is the
/// reference's, call for call.
#[test]
fn a_mid_batch_fault_resends_only_the_faulted_member() {
    let plan = FaultPlan::transient(0.35, 71);
    let candidates = || (0..50_000).map(|i| format!("Summarize. Text: mid-batch candidate {i}"));
    let mut passing = candidates().filter(|p| plan.decide(p, 0).is_none());
    let mut next = || CompletionRequest::new(passing.next().expect("a passing prompt exists"));
    // The faulted member fails its attempt 0 inside the batch and passes
    // attempt 1; every other member passes the one attempt it sees.
    let faulted = candidates()
        .find(|p| plan.decide(p, 0).is_some() && plan.decide(p, 1).is_none())
        .map(CompletionRequest::new)
        .expect("a fault-then-pass prompt exists");
    let requests = vec![next(), next(), faulted, next(), next()];
    let prompts: Vec<&str> = requests.iter().map(|r| r.prompt.as_str()).collect();
    let expected = replay_rounds(&plan, &prompts, 4);

    let service = sim(707, false);
    let reference = sim(707, false);
    let backend = Arc::new(Logged::new(FaultInjector::new("flaky", service.clone(), plan), None));
    let gateway = Arc::new(Gateway::over(backend.clone()));
    let outcome = resending(gateway.clone(), requests.len()).complete_batch(&requests);

    assert_eq!(backend.calls(), expected.calls, "the batch, then the faulted member");
    assert_eq!(backend.sizes(), [5, 1]);
    for (request, response) in requests.iter().zip(&outcome.responses) {
        assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
    }
    let mut summed = Usage::default();
    for split in &outcome.splits {
        summed.merge(split);
    }
    assert_eq!(summed, outcome.batch_usage);
    let counts = backend.inner.counts();
    assert_eq!((counts.passed, counts.injected), (5, expected.faults), "each member computed once");
    assert_eq!(service.usage().calls, reference.usage().calls);
    let snap = gateway.snapshot();
    assert_eq!((snap.batch_splits, snap.salvaged_members, snap.resent_members), (1, 4, 1));
    assert_eq!(snap.backends[0].counters.attempts, 2);
    assert_eq!(snap.backends[0].counters.served, 2, "the batch and the lone member");
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

/// A flaky backend that logs the members of every batch it is sent, by
/// index of first appearance, with one hook: when `doomed` is in a batch,
/// its job's token is cancelled before the backend answers — the job dies
/// while the call that carries its member is on the wire.
struct Logged {
    inner: FaultInjector,
    doomed: Option<u64>,
    token: CancelToken,
    seen: Mutex<Vec<u64>>,
    calls: Mutex<Vec<Vec<usize>>>,
}

impl Logged {
    fn new(inner: FaultInjector, doomed: Option<&CompletionRequest>) -> Logged {
        Logged {
            inner,
            doomed: doomed.map(CompletionRequest::fingerprint),
            token: CancelToken::unbounded(),
            seen: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The members of each batch the backend was sent, in order, each the
    /// index of the call it first arrived in, counted across calls.
    fn calls(&self) -> Vec<Vec<usize>> {
        self.calls.lock().clone()
    }

    /// The size of each batch the backend was sent, in order.
    fn sizes(&self) -> Vec<usize> {
        self.calls().iter().map(Vec::len).collect()
    }
}

impl LlmTransport for Logged {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Result<BatchOutcome, TransportError> {
        let mut seen = self.seen.lock();
        let call = requests
            .iter()
            .map(|r| {
                let key = r.fingerprint();
                seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                    seen.push(key);
                    seen.len() - 1
                })
            })
            .collect();
        drop(seen);
        self.calls.lock().push(call);
        if requests.iter().any(|r| Some(r.fingerprint()) == self.doomed) {
            self.token.cancel();
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

/// A connection-scoped fault cuts the call at the member it struck, and
/// that member's job dies while the call is on the wire: the member is
/// refused as cancelled at once — no resend, no backoff, nothing remembered
/// — while the siblings the cut never reached ride the next flush as if it
/// had never been there, and the splits, the batch usage and the ledger
/// agree exactly.
#[test]
fn member_cancelled_mid_split_stops_alone_and_unbilled() {
    // Rate limits only: a refused call bills nothing, so the ledger can be
    // compared field for field.
    let plan = FaultPlan { rate_limit_rate: 0.5, ..FaultPlan::none(61) };
    let candidates = || (0..50_000).map(|i| format!("Summarize. Text: mid-split candidate {i}"));
    // The doomed member is refused on every attempt it could ever see: 0
    // cuts the wire call (it joins first, so no sibling is reached there),
    // 1..=5 what a later caller would burn.
    let doomed = candidates()
        .find(|p| (0..=5).all(|attempt| plan.decide(p, attempt).is_some()))
        .map(CompletionRequest::new)
        .expect("an always-refused prompt exists at 50%");
    // The siblings first execute in the second flush, and pass.
    let siblings: Vec<CompletionRequest> = candidates()
        .filter(|p| plan.decide(p, 0).is_none())
        .take(2)
        .map(CompletionRequest::new)
        .collect();

    let service = sim(606, false);
    let reference = sim(606, false);
    let backend =
        Arc::new(Logged::new(FaultInjector::new("flaky", service.clone(), plan), Some(&doomed)));
    let token = backend.token.clone();
    let gateway = Arc::new(Gateway::over(backend.clone()));
    let recording = Arc::new(Recording::new(gateway.clone()));
    // The window only ever closes the second flush, whose two members
    // re-enter together the moment the first flush answers them.
    let batcher = Arc::new(Batcher::new(
        recording.clone() as Arc<dyn LlmService>,
        BatchConfig { max_batch_size: 3, max_wait: Duration::from_millis(200) },
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

    // Two flushes: all three live, then the two siblings re-sent.
    let log = batcher.flush_log();
    let flushes: Vec<(usize, usize, FlushReason)> =
        log.iter().map(|f| (f.occupancy, f.resent, f.reason)).collect();
    assert_eq!(flushes, [(3, 2, FlushReason::Size), (2, 0, FlushReason::Window)]);
    // The siblings re-enter on their own threads, in either order.
    let mut calls = backend.calls();
    calls[1].sort_unstable();
    assert_eq!(calls, [vec![0, 1, 2], vec![1, 2]]);
    // The gateway refused the doomed member itself: the batcher never had
    // to.
    assert_eq!(batcher.snapshot().cancelled_members, 0);
    let snap = gateway.snapshot();
    let primary = &snap.backends[0].counters;
    assert_eq!((primary.attempts, primary.rate_limited), (2, 1));
    assert_eq!(primary.retries, 0, "a dead job's member is not retried");
    assert_eq!(snap.added_backoff_ms(), 0, "nor charged backoff");
    assert_eq!((snap.cancelled, snap.resent_members, snap.requests), (1, 2, 3));
    assert_eq!(snap.degraded(), 0);
    let counts = backend.inner.counts();
    assert_eq!((counts.injected, counts.passed), (1, 2));

    // sum(splits) == batch usage == ledger delta, per flush: the first
    // billed nothing, the second the siblings' two calls.
    let outcomes = recording.outcomes();
    assert_eq!(outcomes.len(), 2);
    let mut billed = Usage::default();
    for outcome in &outcomes {
        let mut summed = Usage::default();
        for split in &outcome.splits {
            summed.merge(split);
        }
        assert_eq!(summed, outcome.batch_usage);
        billed.merge(&outcome.batch_usage);
    }
    assert_eq!(outcomes[0].batch_usage, Usage::default());
    assert_eq!(billed, service.usage());
    assert_eq!(service.usage(), reference.usage());

    // The refusal never entered the stale cache: a later live caller that
    // exhausts the backend on the same prompt finds nothing to recall.
    assert_eq!(answer(&*gateway, &doomed), Err(NoAnswer::Unavailable));
    assert_eq!(gateway.snapshot().degraded_cache_hits, 0);
}

/// A member cut off unreached whose job died while the call was on the wire
/// is not re-sent, since that would bill a dead job: it is refused before
/// any attempt, counted, and billed nothing, while its live siblings ride
/// the next call.
#[test]
fn a_tail_member_whose_job_died_mid_split_is_refused_unbilled() {
    let plan = FaultPlan { rate_limit_rate: 0.5, ..FaultPlan::none(61) };
    let candidates = || (0..50_000).map(|i| format!("Summarize. Text: mid-split candidate {i}"));
    let doomed = candidates()
        .find(|p| plan.decide(p, 0).is_some())
        .map(CompletionRequest::new)
        .expect("a refused prompt exists at 50%");
    let mut passing =
        candidates().filter(|p| plan.decide(p, 0).is_none()).map(CompletionRequest::new);

    let service = sim(808, false);
    let reference = sim(808, false);
    let backend =
        Arc::new(Logged::new(FaultInjector::new("flaky", service.clone(), plan), Some(&doomed)));
    let token = backend.token.clone();
    let gateway = Arc::new(Gateway::over(backend.clone()));
    // The doomed member leads; the last member belongs to its job.
    let live = [passing.next().unwrap(), passing.next().unwrap()];
    let requests = vec![
        doomed.with_cancel(token.clone()),
        live[0].clone(),
        live[1].clone(),
        passing.next().unwrap().with_cancel(token),
    ];
    let outcome = resending(gateway.clone(), requests.len()).complete_batch(&requests);

    assert_eq!(outcome.responses[0], REFUSED);
    assert_eq!(outcome.responses[3], REFUSED);
    for (request, response) in live.iter().zip(&outcome.responses[1..3]) {
        assert_eq!(response.as_deref(), Ok(reference.complete(request).as_str()));
    }
    assert_eq!(backend.calls(), [vec![0, 1, 2, 3], vec![1, 2]], "the dead members took no call");
    assert_eq!(outcome.splits[3], Usage::default());
    let snap = gateway.snapshot();
    assert_eq!(snap.cancelled, 2, "the doomed member and its job's unreached member");
    assert_eq!(snap.backends[0].counters.retries, 0);
    assert_eq!(backend.inner.counts().passed, 2);
    assert_eq!(outcome.batch_usage, service.usage());
    assert_eq!(service.usage(), reference.usage());
}
