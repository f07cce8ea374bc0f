//! Continuous micro-batching: accumulate compatible completion requests from
//! concurrent jobs into one batched backend call.
//!
//! [`Batcher`] sits between the serve workers and whatever [`LlmService`]
//! answers completions (the simulator directly, or a [`crate::Gateway`]).
//! Each [`LlmService::complete_batch`] call *enqueues* its members into the
//! currently-filling batch and blocks until they flush; the flush itself is
//! one `complete_batch` call below, so N members pay one backend round trip
//! between them.
//!
//! # Flush state machine
//!
//! A batch generation moves through three states, with **no background
//! thread** — every transition runs on a member's own thread:
//!
//! 1. **Filling.** Members push onto the pending list under the state lock.
//!    The *first* member of a generation becomes the **timer leader**: it
//!    waits on a condvar with a deadline of `max_wait` from its arrival.
//! 2. **Size flush.** The member whose arrival fills the batch to
//!    `max_batch_size` takes the whole pending list, bumps the generation
//!    (which wakes the timer leader into follower mode), and flushes on its
//!    own thread.
//! 3. **Window flush.** If the deadline fires first, the timer leader takes
//!    whatever accumulated — possibly just itself — and flushes.
//!
//! Members that are neither leader nor filler simply wait on their response
//! cell. A panic inside the flush answers every unfilled cell
//! [`NoAnswer::Aborted`] (RAII guard), so siblings never hang on a poisoned
//! batch.
//!
//! # Cancellation
//!
//! Each member's request carries its job's cancel token
//! ([`CompletionRequest::cancelled`]). At flush time, members whose token has
//! fired are answered [`NoAnswer::Cancelled`] and **excluded from the
//! backend call** — a cancelled member leaves the batch unbilled without
//! poisoning its siblings. The flush runs on one member's thread, but that
//! decides nothing: every layer below asks each request's own token, so the
//! flusher's deadline is not its siblings' problem, and a member whose job
//! dies later (while the gateway walks it down the failover ladder) stops
//! being worked for without taking anyone with it.
//!
//! # Re-sending
//!
//! A member the backend answers [`NoAnswer::Resend`] — the gateway placed it
//! and got no answer, and it has attempts left — re-enters the filling batch
//! on its own thread, exactly as it first arrived, with the attempts it has
//! spent on its request. It therefore rides the next flush beside other
//! jobs' members instead of paying for a wire call of its own. Its token is
//! checked again first: a member whose job died meanwhile is refused
//! [`NoAnswer::Cancelled`], unbilled, and counted in `cancelled_members`.
//! The resend verdict never leaves the batcher.
//!
//! For the whole of a member's [`LlmService::complete_batch`] its job's token
//! carries a [`WaitMark`], so the serve supervisor can tell a worker waiting
//! here from one that computes.

use lingua_llm_sim::{
    BatchOutcome, CancelToken, CodeGenSpec, CompletionRequest, GeneratedCode, LlmService, NoAnswer,
    Usage, WaitMark,
};
use lingua_ml::sync::{Condvar, Mutex};
use lingua_trace::{SpanKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Micro-batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush as soon as this many members are pending (size trigger).
    /// Clamped to at least 1.
    pub max_batch_size: usize,
    /// Flush when the oldest pending member has waited this long (window
    /// trigger). `ZERO` degenerates to per-call flushing.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch_size: 8, max_wait: Duration::from_millis(2) }
    }
}

/// Why a batch flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached `max_batch_size`.
    Size,
    /// The `max_wait` window expired on the timer leader.
    Window,
}

impl FlushReason {
    pub fn label(&self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Window => "window",
        }
    }
}

/// One flushed batch, as recorded in the replay log.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushRecord {
    /// Members the batch held when it flushed (live + cancelled).
    pub occupancy: usize,
    /// Members that reached the backend.
    pub live: usize,
    /// Members refused as cancelled and excluded unbilled.
    pub cancelled: usize,
    /// Live members answered without billing (cache hits and in-batch
    /// coalesces; see [`BatchOutcome::saved_members`]).
    pub saved: usize,
    /// Live members the backend answered [`NoAnswer::Resend`]; each rides a
    /// later flush.
    pub resent: usize,
    pub reason: FlushReason,
    /// Exact usage the backend booked for this flush.
    pub usage: Usage,
}

/// Point-in-time batching counters. Exact once submitters quiesce.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchSnapshot {
    /// Batches flushed.
    pub batches: u64,
    /// Members across all flushed batches (live + cancelled), a re-sent
    /// member once per flush it rode.
    pub members: u64,
    /// Flushes triggered by reaching `max_batch_size`.
    pub size_flushes: u64,
    /// Flushes triggered by the `max_wait` window expiring.
    pub window_flushes: u64,
    /// Live members answered without billing (cache/coalesce savings).
    pub saved_members: u64,
    /// Members dropped from their batch by cancellation, unbilled — at a
    /// flush, or while waiting to re-enter after a resend.
    pub cancelled_members: u64,
    /// Largest occupancy any flush reached.
    pub max_occupancy: u64,
}

impl BatchSnapshot {
    /// Mean members per flushed batch (0 when nothing flushed).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.members as f64 / self.batches as f64
        }
    }

    /// Human-readable report, matching the serve/gateway metrics style.
    pub fn report(&self) -> String {
        format!(
            "batcher metrics\n\
             \x20 batches         {} ({} members, {:.2} mean / {} max occupancy)\n\
             \x20 flush triggers  {} size, {} window\n\
             \x20 saved members   {} (cache hits + in-batch coalesces)\n\
             \x20 cancelled       {} members left their batch unbilled\n",
            self.batches,
            self.members,
            self.mean_occupancy(),
            self.max_occupancy,
            self.size_flushes,
            self.window_flushes,
            self.saved_members,
            self.cancelled_members,
        )
    }
}

/// One member's result and the usage split attributed to it.
type Answer = (Result<Arc<str>, NoAnswer>, Usage);

/// One member's response slot: filled exactly once by whichever thread runs
/// the flush, waited on by the member that submitted it.
struct MemberCell {
    slot: Mutex<Option<Answer>>,
    ready: Condvar,
}

impl MemberCell {
    fn new() -> Arc<MemberCell> {
        Arc::new(MemberCell { slot: Mutex::new(None), ready: Condvar::new() })
    }

    /// Fill the slot if still empty and wake the waiter. First write wins,
    /// so the abort guard cannot clobber a real response.
    fn fill(&self, answer: Answer) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(answer);
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> Answer {
        let mut slot = self.slot.lock();
        while slot.is_none() {
            slot = self.ready.wait(slot);
        }
        slot.clone().expect("slot filled")
    }
}

struct Member {
    request: CompletionRequest,
    cell: Arc<MemberCell>,
}

struct BatchState {
    pending: Vec<Member>,
    /// Bumped every time a batch is taken for flushing; the timer leader
    /// watches it to learn that a size flush beat its deadline.
    generation: u64,
}

#[derive(Default)]
struct BatchCounters {
    batches: AtomicU64,
    members: AtomicU64,
    size_flushes: AtomicU64,
    window_flushes: AtomicU64,
    saved_members: AtomicU64,
    cancelled_members: AtomicU64,
    max_occupancy: AtomicU64,
}

/// How many flush records the replay log retains; counters keep counting
/// past it.
const FLUSH_LOG_CAP: usize = 1024;

/// Answers every still-empty member cell [`NoAnswer::Aborted`] if the flush
/// unwinds, so a panicking backend cannot strand sibling members. The panic
/// itself propagates on the flusher's thread (serve's panic isolation turns
/// it into a typed job failure).
struct AbortGuard<'a> {
    cells: &'a [Arc<MemberCell>],
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        for cell in self.cells {
            cell.fill((Err(NoAnswer::Aborted), Usage::default()));
        }
    }
}

/// Continuous micro-batcher over any [`LlmService`]. See the module docs
/// for the flush state machine.
pub struct Batcher {
    inner: Arc<dyn LlmService>,
    config: BatchConfig,
    state: Mutex<BatchState>,
    flush_cv: Condvar,
    counters: BatchCounters,
    flush_log: Mutex<Vec<FlushRecord>>,
    tracer: Tracer,
}

impl Batcher {
    pub fn new(inner: Arc<dyn LlmService>, config: BatchConfig) -> Batcher {
        Batcher {
            inner,
            config: BatchConfig { max_batch_size: config.max_batch_size.max(1), ..config },
            state: Mutex::new(BatchState { pending: Vec::new(), generation: 0 }),
            flush_cv: Condvar::new(),
            counters: BatchCounters::default(),
            flush_log: Mutex::new(Vec::new()),
            tracer: Tracer::disabled(),
        }
    }

    /// Emit `batch` flush spans (with per-member usage-split instants) to
    /// `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Batcher {
        self.tracer = tracer;
        self
    }

    /// Members currently waiting in the filling batch.
    pub fn pending_members(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Point-in-time batching counters.
    pub fn snapshot(&self) -> BatchSnapshot {
        BatchSnapshot {
            batches: self.counters.batches.load(Ordering::Relaxed),
            members: self.counters.members.load(Ordering::Relaxed),
            size_flushes: self.counters.size_flushes.load(Ordering::Relaxed),
            window_flushes: self.counters.window_flushes.load(Ordering::Relaxed),
            saved_members: self.counters.saved_members.load(Ordering::Relaxed),
            cancelled_members: self.counters.cancelled_members.load(Ordering::Relaxed),
            max_occupancy: self.counters.max_occupancy.load(Ordering::Relaxed),
        }
    }

    /// The first `FLUSH_LOG_CAP` (1024) flushed batches, in flush order — the
    /// replay suite's oracle for exact compositions and flush reasons.
    pub fn flush_log(&self) -> Vec<FlushRecord> {
        self.flush_log.lock().clone()
    }

    /// Flush one taken batch on the calling thread: drop cancelled members,
    /// place the batched backend call, fill every cell, book the metrics.
    fn flush(&self, batch: Vec<Member>, reason: FlushReason) {
        let occupancy = batch.len();
        let mut live_requests: Vec<CompletionRequest> = Vec::with_capacity(occupancy);
        let mut live_cells: Vec<Arc<MemberCell>> = Vec::with_capacity(occupancy);
        let mut cancelled = 0usize;
        for member in batch {
            if let Some(why) = member.request.cancelled() {
                cancelled += 1;
                member.cell.fill((Err(NoAnswer::Cancelled(why)), Usage::default()));
            } else {
                live_requests.push(member.request);
                live_cells.push(member.cell);
            }
        }
        let mut span = self.tracer.span(SpanKind::Batch, "flush");
        span.attr("reason", reason.label());
        span.attr("occupancy", occupancy.to_string());
        span.attr("live", live_requests.len().to_string());
        span.attr("cancelled", cancelled.to_string());
        let outcome = {
            // If the backend panics, the guard answers every unfilled cell
            // `Aborted` before the panic leaves this frame.
            let _abort = AbortGuard { cells: &live_cells };
            let outcome = self.inner.complete_batch(&live_requests);
            let answers = outcome.responses.iter().cloned().zip(outcome.splits.iter().copied());
            for (cell, answer) in live_cells.iter().zip(answers) {
                cell.fill(answer);
            }
            outcome
        };
        let saved = outcome.saved_members();
        let resent = outcome
            .responses
            .iter()
            .filter(|response| matches!(response, Err(NoAnswer::Resend { .. })))
            .count();
        for (index, split) in outcome.splits.iter().enumerate() {
            self.tracer.instant_under(Some(span.id()), SpanKind::Batch, "split", || {
                vec![
                    ("member".into(), index.to_string()),
                    ("calls".into(), split.calls.to_string()),
                    ("tokens_in".into(), split.tokens_in.to_string()),
                    ("tokens_out".into(), split.tokens_out.to_string()),
                    ("cached".into(), (split.cached_calls > 0).to_string()),
                ]
            });
        }
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters.members.fetch_add(occupancy as u64, Ordering::Relaxed);
        self.counters.saved_members.fetch_add(saved as u64, Ordering::Relaxed);
        self.counters.cancelled_members.fetch_add(cancelled as u64, Ordering::Relaxed);
        self.counters.max_occupancy.fetch_max(occupancy as u64, Ordering::Relaxed);
        match reason {
            FlushReason::Size => self.counters.size_flushes.fetch_add(1, Ordering::Relaxed),
            FlushReason::Window => self.counters.window_flushes.fetch_add(1, Ordering::Relaxed),
        };
        let mut log = self.flush_log.lock();
        if log.len() < FLUSH_LOG_CAP {
            log.push(FlushRecord {
                occupancy,
                live: live_requests.len(),
                cancelled,
                saved,
                resent,
                reason,
                usage: outcome.batch_usage,
            });
        }
    }

    /// Push `members` into the filling batch, flushing each batch one of them
    /// fills, and hold the window open if one of them opened it. Returns
    /// once this thread has no flush left to run; the members' cells are
    /// answered by whichever thread flushes them. See the module docs for the
    /// three exits (filler, timer leader, follower).
    fn enqueue(&self, members: Vec<Member>) {
        let mut state = self.state.lock();
        // The generation whose window this thread opened, and its deadline.
        let mut leading = None;
        for member in members {
            state.pending.push(member);
            if state.pending.len() >= self.config.max_batch_size {
                // Size trigger: this arrival filled the batch. Take it,
                // advance the generation (the timer leader wakes, sees the
                // new generation, and falls through to waiting on its cell),
                // flush on this thread.
                let batch = std::mem::take(&mut state.pending);
                state.generation += 1;
                self.flush_cv.notify_all();
                drop(state);
                self.flush(batch, FlushReason::Size);
                state = self.state.lock();
            } else if state.pending.len() == 1 {
                // Timer leader: hold the window open for up to `max_wait`.
                leading = Some((state.generation, Instant::now() + self.config.max_wait));
            }
        }
        let Some((generation, deadline)) = leading else { return };
        // A size flush took the batch (this thread's members included) once
        // the generation moves on; otherwise the deadline flushes it here.
        while state.generation == generation {
            let timed_out;
            (state, timed_out) = self.flush_cv.wait_until(state, deadline);
            if timed_out && state.generation == generation {
                let batch = std::mem::take(&mut state.pending);
                state.generation += 1;
                drop(state);
                self.flush(batch, FlushReason::Window);
                return;
            }
            // Spurious wakeup: same generation, deadline not reached.
        }
    }
}

impl LlmService for Batcher {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        let _waiting: Vec<WaitMark> =
            requests.iter().filter_map(|r| r.token().map(CancelToken::wait_mark)).collect();
        let mut answers: Vec<Option<Answer>> = vec![None; requests.len()];
        // Members still to (re-)enter: index, request, and whether a flush
        // already carried it.
        let mut entering: Vec<(usize, CompletionRequest, bool)> =
            requests.iter().cloned().enumerate().map(|(index, r)| (index, r, false)).collect();
        while !entering.is_empty() {
            // A member whose job is dead never (re-)joins a batch: refused on
            // the spot, nothing billed anywhere.
            let mut joined = Vec::with_capacity(entering.len());
            for (index, request, resent) in entering.drain(..) {
                match request.cancelled() {
                    Some(why) => {
                        if resent {
                            self.counters.cancelled_members.fetch_add(1, Ordering::Relaxed);
                        }
                        answers[index] = Some((Err(NoAnswer::Cancelled(why)), Usage::default()));
                    }
                    None => joined.push((index, request, MemberCell::new())),
                }
            }
            if joined.is_empty() {
                break;
            }
            self.enqueue(
                joined
                    .iter()
                    .map(|(_, request, cell)| Member {
                        request: request.clone(),
                        cell: Arc::clone(cell),
                    })
                    .collect(),
            );
            for (index, request, cell) in joined {
                match cell.wait() {
                    (Err(NoAnswer::Resend { attempts }), _) => {
                        entering.push((index, request.with_attempts(attempts), true));
                    }
                    answer => answers[index] = Some(answer),
                }
            }
        }
        answers.into_iter().map(|answer| answer.expect("every member answered")).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::{CancelToken, SimLlm, SimLlmConfig};
    use std::sync::Barrier;

    fn sim(seed: u64) -> Arc<SimLlm> {
        let world = WorldSpec::generate(19);
        Arc::new(SimLlm::new(
            &world,
            SimLlmConfig { seed, cache_enabled: true, ..Default::default() },
        ))
    }

    fn prompt(i: usize) -> CompletionRequest {
        CompletionRequest::new(format!("Summarize. Text: batch member number {i}"))
    }

    /// The typed answer to one request.
    fn answer(batcher: &Batcher, request: &CompletionRequest) -> Result<Arc<str>, NoAnswer> {
        batcher.complete_batch(std::slice::from_ref(request)).into_single().0
    }

    const REFUSED: Result<Arc<str>, NoAnswer> =
        Err(NoAnswer::Cancelled(lingua_llm_sim::CancelReason::Cancelled));

    #[test]
    fn lone_member_window_flushes_and_matches_direct_answers() {
        let service = sim(1);
        let reference = sim(1);
        let batcher =
            Batcher::new(service, BatchConfig { max_batch_size: 8, max_wait: Duration::ZERO });
        for i in 0..3 {
            assert_eq!(batcher.complete(&prompt(i)), reference.complete(&prompt(i)));
        }
        let snap = batcher.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.members, 3);
        assert_eq!(snap.window_flushes, 3);
        assert_eq!(snap.size_flushes, 0);
        assert_eq!(snap.max_occupancy, 1);
        assert!((snap.mean_occupancy() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn full_batch_size_flushes_in_one_backend_call() {
        const MEMBERS: usize = 4;
        let service = sim(2);
        let reference = sim(2);
        let batcher = Arc::new(Batcher::new(
            service.clone(),
            BatchConfig { max_batch_size: MEMBERS, max_wait: Duration::from_secs(30) },
        ));
        let barrier = Barrier::new(MEMBERS);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..MEMBERS)
                .map(|i| {
                    let batcher = Arc::clone(&batcher);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        batcher.complete(&prompt(i))
                    })
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                assert_eq!(handle.join().expect("no panic"), reference.complete(&prompt(i)));
            }
        });
        let snap = batcher.snapshot();
        assert_eq!(snap.batches, 1, "all members shared one flush");
        assert_eq!(snap.members, MEMBERS as u64);
        assert_eq!(snap.size_flushes, 1);
        assert_eq!(snap.window_flushes, 0);
        assert_eq!(snap.max_occupancy, MEMBERS as u64);
        // One batched backend call for the whole group, billed once.
        assert_eq!(service.usage().calls, 1);
        let log = batcher.flush_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].occupancy, MEMBERS);
        assert_eq!(log[0].reason, FlushReason::Size);
        assert_eq!(log[0].usage, service.usage());
    }

    #[test]
    fn cancelled_member_leaves_the_batch_unbilled_without_poisoning_siblings() {
        let service = sim(3);
        let reference = sim(3);
        let batcher = Arc::new(Batcher::new(
            service.clone(),
            BatchConfig { max_batch_size: 2, max_wait: Duration::from_secs(30) },
        ));
        let token = CancelToken::unbounded();
        std::thread::scope(|scope| {
            let doomed = {
                let batcher = Arc::clone(&batcher);
                let token = token.clone();
                scope.spawn(move || answer(&batcher, &prompt(0).with_cancel(token)))
            };
            // Wait for the doomed member to join the batch, cancel its job,
            // then fill the batch so the flush happens on this thread.
            while batcher.pending_members() < 1 {
                std::thread::yield_now();
            }
            token.cancel();
            let survivor = batcher.complete(&prompt(1));
            assert_eq!(survivor, reference.complete(&prompt(1)));
            assert_eq!(doomed.join().expect("no panic"), REFUSED);
        });
        // Only the survivor billed; the reference service made the identical
        // single call, so the ledgers must agree exactly.
        assert_eq!(service.usage(), reference.usage());
        let snap = batcher.snapshot();
        assert_eq!(snap.cancelled_members, 1);
        assert_eq!(snap.members, 2);
        assert_eq!(snap.batches, 1);
        let log = batcher.flush_log();
        assert_eq!(log[0].occupancy, 2);
        assert_eq!(log[0].live, 1);
        assert_eq!(log[0].cancelled, 1);
    }

    #[test]
    fn cancelled_window_leader_does_not_poison_siblings_through_the_gateway() {
        use crate::{Gateway, ServiceTransport};
        // The regression this guards: the window-timer leader's own job is
        // cancelled while it holds the window open. It is filtered from the
        // batch, but the flush still runs on ITS thread — and when the
        // gateway's resilient loop asked the running thread (not the
        // request) whose job was dead, the whole batch came back as the
        // cancelled notice and the live sibling was poisoned.
        let service = sim(7);
        let reference = sim(7);
        let gateway: Arc<dyn LlmService> =
            Arc::new(Gateway::over(Arc::new(ServiceTransport::new("sim", service.clone()))));
        let batcher = Arc::new(Batcher::new(
            Arc::clone(&gateway),
            BatchConfig { max_batch_size: 8, max_wait: Duration::from_millis(500) },
        ));
        let token = CancelToken::unbounded();
        std::thread::scope(|scope| {
            let doomed = {
                let batcher = Arc::clone(&batcher);
                let token = token.clone();
                // First to join: becomes the timer leader, so the window
                // flush will run on this (cancelled) member's thread.
                scope.spawn(move || answer(&batcher, &prompt(0).with_cancel(token)))
            };
            while batcher.pending_members() < 1 {
                std::thread::yield_now();
            }
            let survivor = {
                let batcher = Arc::clone(&batcher);
                scope.spawn(move || batcher.complete(&prompt(1)))
            };
            while batcher.pending_members() < 2 {
                std::thread::yield_now();
            }
            // Cancel the leader's job while it holds the window open; the
            // window deadline then fires on its thread.
            token.cancel();
            assert_eq!(doomed.join().expect("no panic"), REFUSED);
            assert_eq!(
                survivor.join().expect("no panic"),
                reference.complete(&prompt(1)),
                "the leader's cancellation leaked into its sibling's answer"
            );
        });
        // Only the survivor was billed, through the gateway, exactly once.
        assert_eq!(service.usage(), reference.usage());
        let snap = batcher.snapshot();
        assert_eq!(snap.members, 2);
        assert_eq!(snap.cancelled_members, 1);
        assert_eq!(snap.window_flushes, 1);
        let log = batcher.flush_log();
        assert_eq!(log[0].live, 1);
        assert_eq!(log[0].cancelled, 1);
    }

    #[test]
    fn identical_prompts_coalesce_inside_one_batch() {
        const MEMBERS: usize = 4;
        let service = sim(4);
        let batcher = Arc::new(Batcher::new(
            service.clone(),
            BatchConfig { max_batch_size: MEMBERS, max_wait: Duration::from_secs(30) },
        ));
        let barrier = Barrier::new(MEMBERS);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..MEMBERS)
                .map(|_| {
                    let batcher = Arc::clone(&batcher);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        batcher.complete(&prompt(42))
                    })
                })
                .collect();
            let answers: Vec<String> =
                handles.into_iter().map(|h| h.join().expect("no panic")).collect();
            assert!(answers.windows(2).all(|w| w[0] == w[1]));
        });
        let usage = service.usage();
        assert_eq!(usage.calls, 1, "one member computed");
        assert_eq!(usage.cached_calls, MEMBERS as u64 - 1, "the rest coalesced");
        assert_eq!(batcher.snapshot().saved_members, MEMBERS as u64 - 1);
    }

    #[test]
    fn panicking_flush_fills_sibling_cells_with_the_abort_notice() {
        /// A service whose batched entry point always panics.
        struct Exploding;
        impl LlmService for Exploding {
            fn complete_batch(&self, _requests: &[CompletionRequest]) -> BatchOutcome {
                panic!("backend exploded")
            }
            fn embed(&self, _text: &str) -> Vec<f64> {
                Vec::new()
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
        let batcher = Arc::new(Batcher::new(
            Arc::new(Exploding),
            BatchConfig { max_batch_size: 2, max_wait: Duration::from_secs(30) },
        ));
        std::thread::scope(|scope| {
            let follower = {
                let batcher = Arc::clone(&batcher);
                scope.spawn(move || batcher.complete_batch(&[prompt(0)]))
            };
            while batcher.pending_members() < 1 {
                std::thread::yield_now();
            }
            // Filling the batch flushes on this thread; the backend panics
            // here, and the sibling must be released `Aborted`, with nothing
            // attributed to it, rather than hang.
            let flusher = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                batcher.complete(&prompt(1))
            }));
            assert!(flusher.is_err(), "the flusher observes the panic");
            let sibling = follower.join().expect("follower must not panic");
            assert_eq!(sibling.into_single(), (Err(NoAnswer::Aborted), Usage::default()));
        });
    }

    #[test]
    fn dead_job_never_joins_a_batch() {
        let service = sim(5);
        let batcher = Batcher::new(service.clone(), BatchConfig::default());
        let token = CancelToken::unbounded();
        token.cancel();
        assert_eq!(answer(&batcher, &prompt(0).with_cancel(token)), REFUSED);
        assert_eq!(batcher.snapshot().batches, 0);
        assert_eq!(service.usage(), Usage::default());
    }

    #[test]
    fn batch_size_one_degenerates_to_per_call_flushing() {
        let service = sim(6);
        let reference = sim(6);
        let batcher = Batcher::new(
            service,
            BatchConfig { max_batch_size: 1, max_wait: Duration::from_secs(30) },
        );
        assert_eq!(batcher.complete(&prompt(7)), reference.complete(&prompt(7)));
        let snap = batcher.snapshot();
        assert_eq!(snap.size_flushes, 1, "size trigger fires immediately at capacity 1");
        assert_eq!(snap.window_flushes, 0);
    }

    /// Answers `Resend` the first time it is sent a member of `prompt`
    /// (cancelling `token` first, if set), unbilled, and everything else
    /// from `inner`; logs each call's prompts.
    struct ResendOnce {
        inner: Arc<SimLlm>,
        prompt: String,
        token: Option<CancelToken>,
        calls: Mutex<Vec<Vec<String>>>,
    }

    impl ResendOnce {
        fn new(inner: Arc<SimLlm>, prompt: &CompletionRequest) -> ResendOnce {
            ResendOnce {
                inner,
                prompt: prompt.prompt.clone(),
                token: None,
                calls: Mutex::new(Vec::new()),
            }
        }
    }

    impl LlmService for ResendOnce {
        fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
            let first = self.calls.lock().iter().flatten().all(|p| *p != self.prompt);
            self.calls.lock().push(requests.iter().map(|r| r.prompt.clone()).collect());
            requests
                .iter()
                .map(|request| {
                    if first && request.prompt == self.prompt {
                        if let Some(token) = &self.token {
                            token.cancel();
                        }
                        return (Err(NoAnswer::Resend { attempts: 1 }), Usage::default());
                    }
                    self.inner.complete_batch(std::slice::from_ref(request)).into_single()
                })
                .collect()
        }
        fn embed(&self, text: &str) -> Vec<f64> {
            self.inner.embed(text)
        }
        fn usage(&self) -> Usage {
            self.inner.usage()
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

    #[test]
    fn a_resent_member_rides_a_later_flush_with_another_callers_member() {
        let (resent, sibling, later) = (prompt(0), prompt(1), prompt(2));
        let service = sim(9);
        let reference = sim(9);
        let backend = Arc::new(ResendOnce::new(service.clone(), &resent));
        let batcher = Arc::new(Batcher::new(
            backend.clone(),
            BatchConfig { max_batch_size: 2, max_wait: Duration::from_secs(30) },
        ));
        let token = CancelToken::unbounded();
        std::thread::scope(|scope| {
            let member = {
                let (batcher, request) = (Arc::clone(&batcher), resent.clone());
                let request = request.with_cancel(token.clone());
                scope.spawn(move || answer(&batcher, &request))
            };
            while batcher.pending_members() < 1 {
                std::thread::yield_now();
            }
            assert!(token.is_waiting(), "a member in a filling batch marks its job waiting");
            // Filling the batch flushes it here; the resent member re-enters
            // on its own thread and waits for the next caller.
            assert_eq!(batcher.complete(&sibling), reference.complete(&sibling));
            while batcher.pending_members() < 1 {
                std::thread::yield_now();
            }
            assert!(token.is_waiting(), "still waiting while it waits to re-enter");
            assert_eq!(batcher.complete(&later), reference.complete(&later));
            let answered = member.join().expect("no panic");
            assert_eq!(answered.as_deref(), Ok(reference.complete(&resent).as_str()));
        });
        assert!(!token.is_waiting(), "the mark ends with the call");
        let prompts = |requests: &[&CompletionRequest]| -> Vec<String> {
            requests.iter().map(|r| r.prompt.clone()).collect()
        };
        assert_eq!(
            *backend.calls.lock(),
            [prompts(&[&resent, &sibling]), prompts(&[&resent, &later])],
            "the member rode both flushes"
        );
        let log = batcher.flush_log();
        let flushes: Vec<(usize, usize, FlushReason)> =
            log.iter().map(|f| (f.occupancy, f.resent, f.reason)).collect();
        assert_eq!(flushes, [(2, 1, FlushReason::Size), (2, 0, FlushReason::Size)]);
        assert_eq!(service.usage(), reference.usage(), "each member billed once");
        let snap = batcher.snapshot();
        assert_eq!((snap.batches, snap.members, snap.cancelled_members), (2, 4, 0));
    }

    #[test]
    fn a_member_whose_job_dies_before_it_re_enters_is_refused_unbilled() {
        let (doomed, sibling) = (prompt(0), prompt(1));
        let service = sim(10);
        let reference = sim(10);
        let token = CancelToken::unbounded();
        let backend = Arc::new(ResendOnce {
            token: Some(token.clone()),
            ..ResendOnce::new(service.clone(), &doomed)
        });
        let batcher = Arc::new(Batcher::new(
            backend.clone(),
            BatchConfig { max_batch_size: 2, max_wait: Duration::from_secs(30) },
        ));
        std::thread::scope(|scope| {
            let member = {
                let (batcher, request) = (Arc::clone(&batcher), doomed.clone());
                scope.spawn(move || answer(&batcher, &request.with_cancel(token)))
            };
            while batcher.pending_members() < 1 {
                std::thread::yield_now();
            }
            assert_eq!(batcher.complete(&sibling), reference.complete(&sibling));
            assert_eq!(member.join().expect("no panic"), REFUSED);
        });
        assert_eq!(backend.calls.lock().len(), 1, "the refused member rode no second flush");
        assert_eq!(service.usage(), reference.usage(), "only the sibling billed");
        let snap = batcher.snapshot();
        assert_eq!((snap.batches, snap.members, snap.cancelled_members), (1, 2, 1));
    }

    #[test]
    fn snapshot_report_reads_like_the_other_metric_blocks() {
        let service = sim(8);
        let batcher =
            Batcher::new(service, BatchConfig { max_batch_size: 8, max_wait: Duration::ZERO });
        batcher.complete(&prompt(0));
        let report = batcher.snapshot().report();
        assert!(report.contains("batcher metrics"));
        assert!(report.contains("flush triggers"));
    }
}
