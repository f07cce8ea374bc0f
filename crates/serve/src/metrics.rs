//! Serving metrics: counters, a queue-depth gauge, latency percentiles, and
//! per-job LLM metering.
//!
//! The paper's efficiency story is counted in LLM calls and dollars; a
//! serving layer has to keep that story visible per job even when many
//! workers share one metered [`LlmService`]. `UsageMeter` wraps the shared
//! service with job-local counters so each job's usage is exact under
//! concurrency, and [`Metrics`] aggregates the server-wide view.

use crate::error::ServeError;
use crate::job::Terminal;
use lingua_core::{CoreError, TrapKind};
use lingua_durable::RecoverySnapshot;
use lingua_gateway::{BatchSnapshot, GatewaySnapshot};
use lingua_llm_sim::{BatchOutcome, CompletionRequest, EndpointCall, LlmService, Usage};
use lingua_ml::sync::Mutex;
use lingua_trace::TraceSummary;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Cap on retained latency samples (FIFO ring; old samples age out).
const LATENCY_WINDOW: usize = 16_384;

/// Aggregated serving metrics. Cheap to clone a handle; all mutation goes
/// through the interior mutex.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    accepted: u64,
    rejected: u64,
    journal_refused: u64,
    coalesced: u64,
    cache_hits: u64,
    completed: u64,
    failed: u64,
    timed_out: u64,
    panicked: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    traps: TrapCounters,
    workers_restarted: u64,
    stuck_jobs: u64,
    journal_append_errors: u64,
    latencies_ms: VecDeque<f64>,
    llm: Usage,
    /// Usage billed by jobs that did *not* complete (deadline-exceeded,
    /// cancelled, failed, panicked). Kept separate from `llm` so completed
    /// cost-per-job stays meaningful, while `llm + llm_partial` reconciles
    /// against the shared service ledger to the token.
    llm_partial: Usage,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub(crate) fn accept(&self) {
        self.inner.lock().accepted += 1;
    }

    /// Count one job ending: the counter its variant names, plus what the
    /// job consumed — an executed job's latency and bill, or the partial
    /// bill of any other ending (zero for one that never ran).
    pub(crate) fn settle(&self, terminal: &Terminal, latency: Duration, usage: Usage) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let counter = match terminal {
            Terminal::Executed(_) => {
                if inner.latencies_ms.len() == LATENCY_WINDOW {
                    inner.latencies_ms.pop_front();
                }
                inner.latencies_ms.push_back(latency.as_secs_f64() * 1e3);
                inner.llm.merge(&usage);
                inner.completed += 1;
                return;
            }
            Terminal::CacheHit => {
                inner.accepted += 1;
                &mut inner.cache_hits
            }
            Terminal::DedupHit => {
                inner.accepted += 1;
                &mut inner.coalesced
            }
            Terminal::RejectedFull => &mut inner.rejected,
            Terminal::JournalRefused(_) => &mut inner.journal_refused,
            Terminal::Timeout { .. } => &mut inner.timed_out,
            Terminal::Cancelled => &mut inner.cancelled,
            Terminal::DeadlineExceeded { .. } => &mut inner.deadline_exceeded,
            Terminal::Failed(err) => {
                if let ServeError::Core(CoreError::Trap { trap, .. }) = err {
                    match trap {
                        TrapKind::OutOfFuel => inner.traps.out_of_fuel += 1,
                        TrapKind::Recursion => inner.traps.recursion += 1,
                        TrapKind::DeadlineFuel => inner.traps.deadline_fuel += 1,
                    }
                }
                &mut inner.failed
            }
            Terminal::Panicked { .. } => &mut inner.panicked,
            Terminal::ShuttingDown => &mut inner.failed,
        };
        *counter += 1;
        inner.llm_partial.merge(&usage);
    }

    pub(crate) fn worker_restarted(&self) {
        self.inner.lock().workers_restarted += 1;
    }

    pub(crate) fn stuck_job(&self) {
        self.inner.lock().stuck_jobs += 1;
    }

    pub(crate) fn journal_append_error(&self) {
        self.inner.lock().journal_append_errors += 1;
    }

    /// A consistent point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut sorted: Vec<f64> = inner.latencies_ms.iter().copied().collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        MetricsSnapshot {
            accepted: inner.accepted,
            rejected: inner.rejected,
            journal_refused: inner.journal_refused,
            coalesced: inner.coalesced,
            cache_hits: inner.cache_hits,
            completed: inner.completed,
            failed: inner.failed,
            timed_out: inner.timed_out,
            panicked: inner.panicked,
            cancelled: inner.cancelled,
            deadline_exceeded: inner.deadline_exceeded,
            traps: inner.traps,
            queue_depth: 0,
            workers: 0,
            p50_latency_ms: percentile(&sorted, 0.50),
            p95_latency_ms: percentile(&sorted, 0.95),
            latency_samples: sorted.len(),
            llm: inner.llm,
            llm_partial: inner.llm_partial,
            journal_append_errors: inner.journal_append_errors,
            health: HealthSnapshot {
                live_workers: 0,
                peak_workers: 0,
                workers_restarted: inner.workers_restarted,
                workers_gave_up: 0,
                stuck_jobs: inner.stuck_jobs,
                breaker_states: Vec::new(),
                journal_compactions_failed: 0,
            },
            gateway: None,
            batch: None,
            recovery: None,
            trace: None,
        }
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Per-kind counts of bounded-resource script traps (see
/// [`lingua_core::TrapKind`]). Traps are a *flavor* of failed job — each trap
/// also increments `failed` — broken out so operators can tell a runaway loop
/// from runaway recursion from a deadline-starved budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrapCounters {
    /// Scripts that exhausted their own fuel budget (runaway loops).
    pub out_of_fuel: u64,
    /// Scripts that exceeded the interpreter's call-depth limit.
    pub recursion: u64,
    /// Scripts whose fuel was cut by the job deadline and ran out.
    pub deadline_fuel: u64,
}

impl TrapCounters {
    pub fn total(&self) -> u64 {
        self.out_of_fuel + self.recursion + self.deadline_fuel
    }
}

/// Supervision health: the worker pool's vital signs, folded into
/// [`MetricsSnapshot`] by `PipelineServer::metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Worker threads alive now, with any started for a lent permit: at
    /// most the budget plus `queue_capacity`, and none ever retires.
    pub live_workers: usize,
    /// Most worker threads alive at once (filled in by `PipelineServer::metrics`).
    pub peak_workers: usize,
    /// Worker threads restarted after a crash, each by the worker that died.
    pub workers_restarted: u64,
    /// Worker slots permanently abandoned: their restart budget was spent
    /// by deaths in a row.
    pub workers_gave_up: usize,
    /// Jobs flagged as stuck by a health read (`PipelineServer::metrics`);
    /// the flag fires nothing.
    pub stuck_jobs: u64,
    /// Circuit-breaker state per gateway backend, when one is attached.
    pub breaker_states: Vec<(String, String)>,
    /// Journal compactions that failed since start (filled in by
    /// `PipelineServer::metrics`). No record is lost: the log keeps growing
    /// until a later compaction succeeds, and the next recovery replays it.
    pub journal_compactions_failed: u64,
}

/// A point-in-time view of the server's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Submissions admitted (including deduplicated ones).
    pub accepted: u64,
    /// Submissions rejected by admission control (queue full).
    pub rejected: u64,
    /// Submissions refused because the journal could not record their
    /// accept (`ServeError::Journal`). Like `rejected`, never `accepted`.
    pub journal_refused: u64,
    /// Submissions coalesced onto an identical in-flight job.
    pub coalesced: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs that errored during execution.
    pub failed: u64,
    /// Jobs cancelled after exceeding their queue timeout.
    pub timed_out: u64,
    /// Jobs that panicked inside a worker (panic isolated, payload kept).
    pub panicked: u64,
    /// Jobs cancelled during execution by their handle.
    pub cancelled: u64,
    /// Jobs whose deadline passed mid-execution.
    pub deadline_exceeded: u64,
    /// Script traps by kind (each also counted in `failed`).
    pub traps: TrapCounters,
    /// Jobs currently waiting in the queue, read from the queue itself by
    /// `PipelineServer::metrics` (zero when a bare `Metrics` is snapshotted).
    pub queue_depth: u64,
    /// The worker pool's CPU budget — `ServeConfig.workers`, or its resolved
    /// value when left unset (filled in by `PipelineServer::metrics`; zero
    /// when a bare `Metrics` is snapshotted). The live and peak pool sizes
    /// are in [`HealthSnapshot`].
    pub workers: usize,
    /// Median end-to-end latency (submit → result) over the sample window.
    pub p50_latency_ms: f64,
    /// 95th-percentile end-to-end latency over the sample window.
    pub p95_latency_ms: f64,
    /// Number of latency samples the percentiles were computed over.
    pub latency_samples: usize,
    /// LLM usage summed over completed jobs (per-job metered).
    pub llm: Usage,
    /// LLM usage billed by jobs that did not complete. `llm + llm_partial`
    /// reconciles with the shared service's ledger to the token.
    pub llm_partial: Usage,
    /// Journal appends that failed after their job was accepted (`finished`
    /// and `failed` records). The jobs' outcomes stood, but recovery
    /// will not see those records: a lost `finished` is a job the next
    /// incarnation re-executes and re-bills. A record that was written is
    /// not counted here, whatever its append's compaction did (see
    /// [`HealthSnapshot::journal_compactions_failed`]). Always zero without
    /// a journal.
    pub journal_append_errors: u64,
    /// Worker-pool vital signs (live workers filled in by
    /// `PipelineServer::metrics`; counter fields always populated).
    pub health: HealthSnapshot,
    /// Resilience counters of the attached [`lingua_gateway::Gateway`], when
    /// one backs the LLM service (see `PipelineServer::attach_gateway`).
    pub gateway: Option<GatewaySnapshot>,
    /// Counters of the continuous [`lingua_gateway::Batcher`], when one
    /// wraps the LLM service (set automatically by `ServeConfig::batch`,
    /// or manually via `PipelineServer::attach_batcher`).
    pub batch: Option<BatchSnapshot>,
    /// What journal recovery replayed at `start()`, when
    /// `ServeConfig::journal` is set (filled in by
    /// `PipelineServer::metrics`); `None` on a journal-less server.
    pub recovery: Option<RecoverySnapshot>,
    /// Rollup of the trace stream, when the context factory carries an
    /// enabled tracer (see `ContextFactory::with_tracer`).
    pub trace: Option<TraceSummary>,
}

impl MetricsSnapshot {
    /// Executions avoided by deduplication, in-flight or cached.
    pub fn deduped(&self) -> u64 {
        self.coalesced + self.cache_hits
    }

    /// Jobs that reached a terminal state after admission: the sum over
    /// the job endings a worker (or the shutdown drain) settles — executed
    /// (`completed`), failed or shut down (`failed`), timed out, panicked,
    /// cancelled, deadline exceeded. The two endings at submission that
    /// still admit a job are [`deduped`](Self::deduped); the two that refuse
    /// it are `rejected` and `journal_refused`. The serving conservation law
    /// is `accepted == finished() + deduped() + still-in-flight`.
    pub fn finished(&self) -> u64 {
        self.completed
            + self.failed
            + self.timed_out
            + self.panicked
            + self.cancelled
            + self.deadline_exceeded
    }

    /// Mean LLM calls per completed job.
    pub(crate) fn llm_calls_per_job(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.llm.calls as f64 / self.completed as f64
        }
    }

    /// Human-readable report.
    pub fn report(&self) -> String {
        let mut out = format!(
            "serving metrics\n\
             \x20 accepted        {}\n\
             \x20 rejected (full) {}\n\
             \x20 journal refused {}\n\
             \x20 deduplicated    {} ({} in-flight, {} cached)\n\
             \x20 completed       {}\n\
             \x20 failed          {} ({} traps: {} fuel, {} recursion, {} deadline-fuel)\n\
             \x20 timed out       {}\n\
             \x20 panicked        {}\n\
             \x20 cancelled       {}\n\
             \x20 deadline miss   {}\n\
             \x20 queue depth     {}\n\
             \x20 workers         {} budget ({} live, {} peak, {} restarted, {} gave up, \
             {} stuck jobs)\n\
             \x20 latency p50/p95 {:.2} ms / {:.2} ms ({} samples)\n\
             \x20 llm usage       {} call(s), {} tokens in, {} tokens out ({:.2} calls/job)\n\
             \x20 llm partial     {} call(s), {} tokens in, {} tokens out (unfinished jobs)\n",
            self.accepted,
            self.rejected,
            self.journal_refused,
            self.deduped(),
            self.coalesced,
            self.cache_hits,
            self.completed,
            self.failed,
            self.traps.total(),
            self.traps.out_of_fuel,
            self.traps.recursion,
            self.traps.deadline_fuel,
            self.timed_out,
            self.panicked,
            self.cancelled,
            self.deadline_exceeded,
            self.queue_depth,
            self.workers,
            self.health.live_workers,
            self.health.peak_workers,
            self.health.workers_restarted,
            self.health.workers_gave_up,
            self.health.stuck_jobs,
            self.p50_latency_ms,
            self.p95_latency_ms,
            self.latency_samples,
            self.llm.calls,
            self.llm.tokens_in,
            self.llm.tokens_out,
            self.llm_calls_per_job(),
            self.llm_partial.calls,
            self.llm_partial.tokens_in,
            self.llm_partial.tokens_out,
        );
        if let Some(gateway) = &self.gateway {
            out.push_str(&gateway.report());
        }
        if let Some(batch) = &self.batch {
            out.push_str(&batch.report());
        }
        if self.health.journal_compactions_failed > 0 {
            out.push_str(&format!(
                "\x20 journal errors  {} compaction(s) failed (records kept; the log grows)\n",
                self.health.journal_compactions_failed,
            ));
        }
        if self.journal_append_errors > 0 {
            out.push_str(&format!(
                "\x20 journal errors  {} append(s) failed after accept (recovery cannot see them)\n",
                self.journal_append_errors,
            ));
        }
        if let Some(recovery) = &self.recovery {
            out.push_str(&format!(
                "\x20 recovery        {} record(s) replayed, {} job(s) resumed, \
                 {} duplicate(s) skipped, {} corrupt record(s) skipped\n",
                recovery.replayed,
                recovery.resumed_jobs,
                recovery.skipped_duplicates,
                recovery.corrupt_records_skipped,
            ));
        }
        if let Some(trace) = &self.trace {
            out.push_str(&trace.report_line());
            out.push('\n');
        }
        out
    }
}

/// A per-job metering wrapper around a shared [`LlmService`].
///
/// Workers share one LLM service (its global counters keep working), but a
/// job's own usage can't be read off the shared counters under concurrency —
/// another worker's calls would pollute the delta. Each job instead runs
/// against a fresh `UsageMeter` whose local counters record exactly the
/// traffic the job generated. Because [`UsageMeter::usage`] reports the
/// *local* counters, the executor's per-op usage traces are also exact
/// per job.
///
/// The meter decides no bill: a completion books the splits the layer that
/// billed each member returned (a cache-answered member as saved, a member
/// without an answer as nothing), and the other endpoints book
/// [`EndpointCall::usage`], as `SimLlm` bills them. So with no faults the
/// jobs' meters sum to the shared ledger, field for field.
pub(crate) struct UsageMeter {
    inner: Arc<dyn LlmService>,
    local: Mutex<Usage>,
}

impl UsageMeter {
    pub(crate) fn new(inner: Arc<dyn LlmService>) -> UsageMeter {
        UsageMeter { inner, local: Mutex::new(Usage::default()) }
    }

    fn book(&self, call: EndpointCall<'_>, response: &str) {
        self.local.lock().merge(&call.usage(response));
    }
}

impl LlmService for UsageMeter {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        let outcome = self.inner.complete_batch(requests);
        self.local.lock().merge(&outcome.batch_usage);
        outcome
    }

    fn embed(&self, text: &str) -> Vec<f64> {
        let embedding = self.inner.embed(text);
        self.book(EndpointCall::Embed(text), "");
        embedding
    }

    fn usage(&self) -> Usage {
        *self.local.lock()
    }

    fn simulated_latency_ms(&self) -> u64 {
        self.inner.simulated_latency_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;
    use lingua_dataset::world::WorldSpec;
    use lingua_gateway::{BatchConfig, Batcher};
    use lingua_llm_sim::{CancelReason, NoAnswer, SimLlm};

    fn executed() -> Terminal {
        let output =
            JobOutput { env: Default::default(), llm: Usage::default(), wall: Duration::ZERO };
        Terminal::Executed(Arc::new(output))
    }

    fn trapped(trap: TrapKind) -> Terminal {
        Terminal::Failed(ServeError::Core(CoreError::Trap { module: "script".into(), trap }))
    }

    #[test]
    fn percentiles_over_known_samples() {
        let metrics = Metrics::new();
        for ms in 1..=100u64 {
            metrics.settle(&executed(), Duration::from_millis(ms), Usage::default());
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.completed, 100);
        assert!((snap.p50_latency_ms - 50.0).abs() < 2.0, "p50 = {}", snap.p50_latency_ms);
        assert!((snap.p95_latency_ms - 95.0).abs() < 2.0, "p95 = {}", snap.p95_latency_ms);
        assert_eq!(snap.latency_samples, 100);
    }

    #[test]
    fn empty_metrics_report_zeroes() {
        let snap = Metrics::new().snapshot();
        assert_eq!(snap.p50_latency_ms, 0.0);
        assert_eq!(snap.deduped(), 0);
        assert_eq!(snap.llm_calls_per_job(), 0.0);
        assert!(snap.report().contains("accepted"));
    }

    #[test]
    fn counters_accumulate() {
        let metrics = Metrics::new();
        metrics.accept();
        let waited = Duration::from_millis(3);
        for terminal in [
            Terminal::DedupHit,
            Terminal::CacheHit,
            Terminal::RejectedFull,
            Terminal::JournalRefused("disk full".into()),
            Terminal::Failed(ServeError::Internal { reason: "x".into() }),
            Terminal::Timeout { waited },
        ] {
            metrics.settle(&terminal, Duration::ZERO, Usage::default());
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.journal_refused, 1);
        assert_eq!(snap.deduped(), 2);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.timed_out, 1);
    }

    #[test]
    fn supervision_counters_and_partial_usage_accumulate() {
        let metrics = Metrics::new();
        let mut partial = Usage::default();
        partial.record(10, 0);
        let elapsed = Duration::from_millis(5);
        let panicked = Terminal::Panicked { payload: "boom".into() };
        metrics.settle(&panicked, Duration::ZERO, Usage::default());
        metrics.settle(&Terminal::Cancelled, Duration::ZERO, partial);
        metrics.settle(&Terminal::DeadlineExceeded { elapsed }, Duration::ZERO, partial);
        metrics.settle(&trapped(TrapKind::OutOfFuel), Duration::ZERO, partial);
        for trap in [TrapKind::Recursion, TrapKind::DeadlineFuel, TrapKind::OutOfFuel] {
            metrics.settle(&trapped(trap), Duration::ZERO, Usage::default());
        }
        metrics.worker_restarted();
        metrics.stuck_job();
        let snap = metrics.snapshot();
        assert_eq!(snap.panicked, 1);
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(snap.failed, 4, "every trap is a failed job");
        assert_eq!(snap.traps.out_of_fuel, 2);
        assert_eq!(snap.traps.recursion, 1);
        assert_eq!(snap.traps.deadline_fuel, 1);
        assert_eq!(snap.traps.total(), 4);
        assert_eq!(snap.health.workers_restarted, 1);
        assert_eq!(snap.health.stuck_jobs, 1);
        assert_eq!(snap.llm_partial.calls, 3);
        assert_eq!(snap.llm_partial.tokens_in, 30);
        assert_eq!(snap.finished(), 7);
        assert!(snap.report().contains("panicked"));
        assert!(snap.report().contains("llm partial"));
    }

    /// A backend that refuses every member (`members`) or panics
    /// (`None`): the two ways a member comes back without an answer.
    struct NoAnswers(Option<NoAnswer>);

    impl LlmService for NoAnswers {
        fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
            let no_answer = self.0.expect("backend exploded");
            requests.iter().map(|_| (Err(no_answer), Usage::default())).collect()
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
    }

    #[test]
    fn usage_meter_skips_the_cancellation_notice() {
        let refused = NoAnswer::Cancelled(CancelReason::Cancelled);
        let meter = UsageMeter::new(Arc::new(NoAnswers(Some(refused))));
        let outcome = meter.complete_batch(&[CompletionRequest::new("prompt")]);
        assert_eq!(outcome.into_single(), (Err(refused), Usage::default()));
        assert_eq!(meter.usage().calls, 0, "nothing billed for a short-circuited call");
    }

    #[test]
    fn usage_meter_attributes_nothing_to_an_aborted_batch_sibling() {
        // A meter above a batcher whose flush panics: the sibling released
        // `Aborted` bills nothing. (Its notice text was once billed as a call.)
        let batcher = Arc::new(Batcher::new(
            Arc::new(NoAnswers(None)),
            BatchConfig { max_batch_size: 2, max_wait: Duration::from_secs(30) },
        ));
        let meter = UsageMeter::new(Arc::clone(&batcher) as Arc<dyn LlmService>);
        std::thread::scope(|scope| {
            let sibling = scope.spawn(|| meter.complete_batch(&[CompletionRequest::new("a")]));
            while batcher.pending_members() < 1 {
                std::thread::yield_now();
            }
            let flusher = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                batcher.complete(&CompletionRequest::new("b"))
            }));
            assert!(flusher.is_err(), "the flusher observes the panic");
            let outcome = sibling.join().expect("the sibling is released, not panicked");
            assert_eq!(outcome.into_single(), (Err(NoAnswer::Aborted), Usage::default()));
        });
        assert_eq!(meter.usage(), Usage::default());
    }

    #[test]
    fn usage_meter_counts_locally_and_forwards() {
        let world = WorldSpec::generate(3);
        let shared: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 3));
        let meter_a = UsageMeter::new(shared.clone());
        let meter_b = UsageMeter::new(shared.clone());
        meter_a.complete(&CompletionRequest::new("Summarize.\nText: a b c"));
        meter_a.complete(&CompletionRequest::new("Summarize.\nText: d e f"));
        meter_b.complete(&CompletionRequest::new("Summarize.\nText: g h i"));
        // Local views are isolated; the shared service sees everything.
        assert_eq!(meter_a.usage().calls, 2);
        assert_eq!(meter_b.usage().calls, 1);
        assert_eq!(shared.usage().calls, 3);
        assert!(meter_a.usage().tokens_in > 0);
        assert!(meter_a.usage().tokens_out > 0);
    }
}
