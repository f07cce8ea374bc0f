//! The serving engine: a bounded two-lane job queue (`queue.rs`), a worker
//! pool over per-worker pipeline instances, request deduplication, and
//! graceful shutdown.
//!
//! Life of a request:
//!
//! 1. [`PipelineServer::submit`] fingerprints the inputs. A result-cache hit
//!    returns a completed handle immediately; a duplicate of an in-flight
//!    job attaches to that job's completion cell; otherwise the job enters
//!    the bounded queue — or is rejected with [`ServeError::Full`].
//! 2. A worker dequeues (high-priority lane first), replicates the compiled
//!    pipeline if its cached instance is stale, and executes it on a fresh
//!    [`ExecContext`](lingua_core::ExecContext) whose LLM is a per-job
//!    `UsageMeter`.
//! 3. However the job ends — at submission, in the queue, in the worker,
//!    or at shutdown — the ending is a `Terminal` value, and one `settle`
//!    journals it, counts it, closes its span and wakes its waiters.

pub use crate::config::{BatchTuning, Priority, ServeConfig, SubmitRequest};
use crate::error::ServeError;
use crate::fingerprint::{fingerprint_inputs, job_key};
use crate::job::{JobCore, JobHandle, JobId, JobOutput, Terminal};
use crate::metrics::{Metrics, MetricsSnapshot, UsageMeter};
use crate::queue::{JobQueue, Refused};
use crate::registry::PipelineRegistry;
use crate::supervisor::{supervisor_loop, EscapePanic, Supervision, WorkerGuard};
use lingua_core::{Compiler, ContextFactory, CoreError, Data, Executor, PhysicalPipeline};
use lingua_durable::{FinishedJob, Journal, PendingJob, RecoverySnapshot, StreamCheckpoint};
use lingua_gateway::{Batcher, Gateway};
use lingua_llm_sim::hotpath::DEFAULT_SHARDS;
use lingua_llm_sim::{CancelReason, CancelToken, LlmService, ShardedLru, Usage};
use lingua_ml::sync::Mutex;
use lingua_trace::{ManualSpan, SpanKind};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// State shared between the submitter and every worker.
struct Shared {
    factory: ContextFactory,
    registry: Arc<PipelineRegistry>,
    metrics: Arc<Metrics>,
    /// Admitted jobs waiting for a worker; `queue_capacity` per lane.
    queue: JobQueue<Job>,
    /// Jobs admitted but not yet finished, keyed by the exact
    /// `(pipeline id, input fingerprint)` pair — the pipeline string is kept
    /// verbatim so a fingerprint collision across pipelines can never attach
    /// a submission to the wrong in-flight job. Later identical submissions
    /// attach to the same completion cell.
    in_flight: Mutex<HashMap<(String, u64), Arc<JobCore>>>,
    /// Completed outputs: the same lock-striped sharded LRU as the LLM hot
    /// path, keyed by the combined 64-bit `job_key(pipeline, fingerprint)` —
    /// hits never touch the in-flight mutex. The u64 key accepts a
    /// birthday-bound (~2^-64 per pair) collision risk in exchange for the
    /// compact sharded layout; the input fingerprint itself is already a
    /// 64-bit hash, so the cache key adds no new failure mode beyond it.
    results: ShardedLru<Arc<JobOutput>>,
    config: ServeConfig,
    /// Gateway backing the factory's LLM service, when one is attached; its
    /// resilience counters are folded into [`MetricsSnapshot`].
    gateway: Mutex<Option<Arc<Gateway>>>,
    /// Micro-batcher wrapped around the LLM service, when batching is on;
    /// its counters are folded into [`MetricsSnapshot`].
    batcher: Mutex<Option<Arc<Batcher>>>,
    /// Write-ahead journal, when durability is configured. Every lifecycle
    /// event is appended here *before* its effect becomes observable.
    journal: Option<Arc<Journal>>,
    /// What `start()` recovered from the journal and how resubmission of it
    /// is going; surfaced in [`MetricsSnapshot::recovery`].
    recovery: Mutex<RecoveryState>,
}

/// Recovery bookkeeping shared between `start()`, `submit()`, and
/// `resume_recovered()`.
#[derive(Default)]
struct RecoveryState {
    /// Operator-visible counters; `Some` exactly when a journal replay ran.
    snapshot: Option<RecoverySnapshot>,
    /// Journaled-but-unfinished jobs awaiting [`PipelineServer::resume_recovered`].
    pending: Vec<PendingJob>,
    /// Result-cache keys restored from journaled finished jobs; a cache hit
    /// on one of these is a crash-retry answered without re-execution and
    /// counts toward `skipped_duplicates`.
    restored: HashSet<u64>,
    /// Stream-engine state recovered from the journal, for a
    /// `lingua-stream` engine attaching to this server.
    stream: StreamCheckpoint,
}

/// One submission as the server holds it until [`settle`] ends it — at
/// submission, or queued and then taken by a worker (or the shutdown drain).
struct Job {
    core: Arc<JobCore>,
    pipeline: String,
    inputs: BTreeMap<String, Data>,
    /// Input fingerprint, when dedup/result caching is on; combined with
    /// `pipeline` it addresses both the in-flight table and the result cache.
    fingerprint: Option<u64>,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// The job's `serve_job` span, begun at submission; `settle` closes it
    /// with the path the job took.
    span: ManualSpan,
}

/// The embedded pipeline-serving engine.
pub struct PipelineServer {
    shared: Arc<Shared>,
    supervision: Arc<Supervision>,
    supervisor: Option<JoinHandle<()>>,
    next_id: AtomicU64,
}

/// Spawn the worker thread for `index`. Used for the initial pool and by the
/// supervisor for restarts; failures surface as [`ServeError::Spawn`].
fn spawn_worker(
    shared: &Arc<Shared>,
    supervision: &Arc<Supervision>,
    index: usize,
) -> Result<JoinHandle<()>, ServeError> {
    let shared = Arc::clone(shared);
    let supervision = Arc::clone(supervision);
    std::thread::Builder::new()
        .name(format!("lingua-serve-{index}"))
        .spawn(move || worker_loop(&shared, &supervision, index))
        .map_err(|err| ServeError::Spawn { reason: err.to_string() })
}

impl PipelineServer {
    /// Start the worker pool. `factory` supplies the shared LLM service and
    /// tool registry every job runs against. The configuration is validated
    /// first; see [`ServeConfig::validate`].
    pub fn start(
        factory: ContextFactory,
        config: ServeConfig,
    ) -> Result<PipelineServer, ServeError> {
        config.validate()?;
        // Open (and replay) the journal before anything else: recovery must
        // finish restoring the result cache and the ledger before the first
        // submission can race it.
        let opened = match &config.journal {
            Some(tuning) => {
                let (journal, recovered) = Journal::open(tuning.clone())
                    .map_err(|err| ServeError::Journal { reason: err.to_string() })?;
                Some((Arc::new(journal), recovered))
            }
            None => None,
        };
        // Batching wraps the factory's LLM *before* the factory is stored:
        // every per-job UsageMeter then sits on top of the batcher, so jobs
        // meter their own usage while their completions join shared
        // micro-batches underneath.
        let (factory, batcher) = match &config.batch {
            Some(tuning) => {
                let tracer = factory.tracer().clone();
                let batcher = Arc::new(Batcher::new(factory.llm(), *tuning).with_tracer(tracer));
                let wrapped =
                    factory.with_llm(Arc::clone(&batcher) as Arc<dyn lingua_llm_sim::LlmService>);
                (wrapped, Some(batcher))
            }
            None => (factory, None),
        };
        let registry = Arc::new(PipelineRegistry::new());
        let metrics = Arc::new(Metrics::new());
        let shared = Arc::new(Shared {
            factory,
            registry,
            metrics,
            queue: JobQueue::new(config.queue_capacity),
            in_flight: Mutex::new(HashMap::new()),
            results: ShardedLru::new(config.result_cache_capacity, DEFAULT_SHARDS),
            config: config.clone(),
            gateway: Mutex::new(None),
            batcher: Mutex::new(batcher),
            journal: opened.as_ref().map(|(journal, _)| Arc::clone(journal)),
            recovery: Mutex::new(RecoveryState::default()),
        });
        if let Some((_, recovered)) = opened {
            let tracer = shared.factory.tracer();
            let span = tracer.begin(SpanKind::Recovery, "journal_replay", || {
                vec![("replayed".into(), recovered.replayed.to_string())]
            });
            // Finished jobs re-enter the result cache, so a crash retry (or
            // a recovered resubmission) is answered from the journal instead
            // of re-executing — the exactly-once guard.
            let mut restored = HashSet::new();
            for job in &recovered.finished {
                let key = job_key(&job.pipeline, job.fingerprint);
                shared.results.insert(
                    key,
                    Arc::new(JobOutput {
                        env: job.env.clone(),
                        llm: job.llm,
                        wall: Duration::from_micros(job.wall_us),
                    }),
                );
                restored.insert(key);
            }
            // The journaled lifetime bill re-enters the shared ledger (a
            // no-op for services without one), so billing reconciles across
            // the crash: ledger == recovered bill + post-restart bill.
            shared.factory.llm().restore_usage(&recovered.cumulative);
            tracer.end(span, || {
                vec![
                    ("finished_restored".into(), recovered.finished.len().to_string()),
                    ("pending".into(), recovered.pending.len().to_string()),
                    (
                        "corrupt_records_skipped".into(),
                        recovered.corrupt_records_skipped.to_string(),
                    ),
                ]
            });
            *shared.recovery.lock() = RecoveryState {
                snapshot: Some(RecoverySnapshot {
                    replayed: recovered.replayed,
                    resumed_jobs: 0,
                    skipped_duplicates: 0,
                    corrupt_records_skipped: recovered.corrupt_records_skipped,
                }),
                pending: recovered.pending,
                restored,
                stream: recovered.stream,
            };
        }
        let workers = config.resolved_workers();
        let supervision = Arc::new(Supervision::new(workers));
        // If any spawn fails, unwind what was started: stop the supervisor
        // loop from ever restarting anything, close the queue, and join the
        // workers already running — then report the failure instead of
        // panicking with a half-built pool.
        let abort = |supervision: &Arc<Supervision>, err: ServeError| {
            supervision.shutdown.store(true, Ordering::Release);
            shared.queue.close();
            for handle in supervision.take_handles() {
                let _ = handle.join();
            }
            Err(err)
        };
        let mut spawn_err = None;
        for index in 0..workers {
            match spawn_worker(&shared, &supervision, index) {
                Ok(handle) => supervision.install(index, handle),
                Err(err) => {
                    spawn_err = Some(err);
                    break;
                }
            }
        }
        if let Some(err) = spawn_err {
            return abort(&supervision, err);
        }
        let supervisor = {
            let shared_sup = Arc::clone(&shared);
            let supervision_sup = Arc::clone(&supervision);
            let policy = config.supervise_policy();
            let tracer = shared.factory.tracer().clone();
            let metrics = Arc::clone(&shared.metrics);
            std::thread::Builder::new().name("lingua-serve-supervisor".into()).spawn(move || {
                supervisor_loop(
                    &supervision_sup,
                    &metrics,
                    &tracer,
                    policy,
                    || shared_sup.queue.len(),
                    |index| spawn_worker(&shared_sup, &supervision_sup, index),
                )
            })
        };
        let supervisor = match supervisor {
            Ok(handle) => handle,
            Err(err) => {
                return abort(&supervision, ServeError::Spawn { reason: err.to_string() });
            }
        };
        Ok(PipelineServer {
            shared,
            supervision,
            supervisor: Some(supervisor),
            next_id: AtomicU64::new(1),
        })
    }

    /// Surface a [`Gateway`]'s resilience metrics in this server's
    /// [`MetricsSnapshot`]. Call it with the gateway the context factory's
    /// LLM service is (or wraps); attaching does not change routing — the
    /// factory already decides what the workers call.
    pub fn attach_gateway(&self, gateway: Arc<Gateway>) {
        *self.shared.gateway.lock() = Some(gateway);
    }

    /// Surface a [`Batcher`]'s counters in this server's
    /// [`MetricsSnapshot`]. `start()` attaches one automatically when
    /// [`ServeConfig::batch`] is set; call this only when the factory's LLM
    /// already wraps a batcher you built yourself. Attaching does not
    /// change routing.
    pub fn attach_batcher(&self, batcher: Arc<Batcher>) {
        *self.shared.batcher.lock() = Some(batcher);
    }

    /// The micro-batcher wrapped around the LLM service, when batching is
    /// configured (or attached).
    pub fn batcher(&self) -> Option<Arc<Batcher>> {
        self.shared.batcher.lock().clone()
    }

    /// The write-ahead journal, when durability is configured.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.shared.journal.clone()
    }

    /// What `start()` recovered from the journal (`None` without one), with
    /// resumption counters updated as resubmissions land.
    pub fn recovery(&self) -> Option<RecoverySnapshot> {
        self.shared.recovery.lock().snapshot
    }

    /// Stream-engine state recovered from the journal, for a
    /// `lingua-stream` engine attaching to this server. Default (empty)
    /// state when no journal is configured or the log held no stream
    /// records.
    pub fn recovered_stream(&self) -> StreamCheckpoint {
        self.shared.recovery.lock().stream.clone()
    }

    /// Resubmit every journaled-but-unfinished job recovered at `start()`.
    ///
    /// Call after registering the pipelines those jobs referenced. Jobs
    /// whose results were restored into the cache are skipped (counted as
    /// `skipped_duplicates`); the rest re-enter the queue through the
    /// normal admission path (counted as `resumed_jobs`). Jobs naming an
    /// unregistered pipeline, or bounced by a full queue, stay pending for
    /// a later call (and remain journaled for the next recovery). Any other
    /// admission error (the journal refusing the accept record, shutdown)
    /// ends the call with that error; the refused job and every job not yet
    /// visited stay pending too, and the jobs already resumed keep running.
    pub fn resume_recovered(&self) -> Result<Vec<JobHandle>, ServeError> {
        let mut pending = std::mem::take(&mut self.shared.recovery.lock().pending).into_iter();
        let mut handles = Vec::new();
        let mut stranded = Vec::new();
        let (mut resumed, mut skipped) = (0u64, 0u64);
        let mut failure = None;
        for job in pending.by_ref() {
            if !self.shared.registry.contains(&job.pipeline) {
                stranded.push(job);
                continue;
            }
            if self.shared.results.get(job_key(&job.pipeline, job.fingerprint)).is_some() {
                skipped += 1;
                continue;
            }
            let request = SubmitRequest {
                pipeline: job.pipeline.clone(),
                inputs: job.inputs.clone(),
                priority: Priority::Normal,
                timeout: None,
            };
            match self.submit(request) {
                Ok(handle) => {
                    resumed += 1;
                    handles.push(handle);
                }
                Err(ServeError::Full { .. }) => stranded.push(job),
                Err(err) => {
                    stranded.push(job);
                    failure = Some(err);
                    break;
                }
            }
        }
        stranded.extend(pending);
        let mut recovery = self.shared.recovery.lock();
        recovery.pending = stranded;
        if let Some(snapshot) = recovery.snapshot.as_mut() {
            snapshot.resumed_jobs += resumed;
            snapshot.skipped_duplicates += skipped;
        }
        failure.map_or(Ok(handles), Err)
    }

    /// The pipeline registry (register/unregister/list).
    pub fn registry(&self) -> &PipelineRegistry {
        &self.shared.registry
    }

    /// Register a compiled pipeline under `id`.
    pub fn register_pipeline(
        &self,
        id: impl Into<String>,
        pipeline: PhysicalPipeline,
    ) -> Result<(), ServeError> {
        self.shared.registry.register(id, pipeline)
    }

    /// Compile DSL source (once, against the shared services) and register
    /// it under `id`.
    pub fn register_dsl(
        &self,
        id: impl Into<String>,
        source: &str,
        compiler: &Compiler,
    ) -> Result<(), ServeError> {
        let mut ctx = self.shared.factory.build();
        self.shared.registry.register_dsl(id, source, compiler, &mut ctx)
    }

    /// The pool's CPU budget: the workers [`ServeConfig::workers`] resolves
    /// to. The pool grows past it only while every worker waits in the
    /// batcher (see [`MetricsSnapshot::health`] for the live count).
    pub fn worker_count(&self) -> usize {
        self.supervision.budget
    }

    /// Workers currently alive and serving.
    pub fn live_worker_count(&self) -> usize {
        self.supervision.live_workers()
    }

    /// Point-in-time serving metrics (including gateway resilience counters
    /// when a gateway is attached, and worker-pool health).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.shared.metrics.snapshot();
        snapshot.queue_depth = self.shared.queue.len() as u64;
        snapshot.workers = self.supervision.budget;
        snapshot.health.live_workers = self.supervision.live_workers();
        snapshot.health.peak_workers = self.supervision.peak_workers();
        snapshot.health.workers_gave_up = self.supervision.gave_up_count();
        if let Some(gateway) = self.shared.gateway.lock().as_ref() {
            let gw = gateway.snapshot();
            snapshot.health.breaker_states = gw
                .backends
                .iter()
                .map(|backend| (backend.name.clone(), backend.breaker_state.to_string()))
                .collect();
            snapshot.gateway = Some(gw);
        }
        if let Some(batcher) = self.shared.batcher.lock().as_ref() {
            snapshot.batch = Some(batcher.snapshot());
        }
        snapshot.recovery = self.shared.recovery.lock().snapshot;
        snapshot.trace = self.shared.factory.tracer().summary();
        snapshot
    }

    /// Submit a job. Returns immediately with a handle; poll or
    /// [`JobHandle::wait`] for the result.
    pub fn submit(&self, request: SubmitRequest) -> Result<JobHandle, ServeError> {
        let shared = &*self.shared;
        if !shared.registry.contains(&request.pipeline) {
            return Err(ServeError::UnknownPipeline(request.pipeline));
        }
        if self.supervision.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        // A journal needs the fingerprint even with dedup off: it is the
        // durable identity that recovery and the exactly-once guard key on.
        let dedup_enabled = shared.config.dedup_inflight
            || shared.config.result_cache_capacity > 0
            || shared.journal.is_some();
        // Fingerprint the inputs once; the result cache hashes it with the
        // pipeline id into a compact u64 job key, while the in-flight table
        // keeps the pipeline id exact.
        let fp = dedup_enabled.then(|| fingerprint_inputs(&request.inputs));

        let now = Instant::now();
        let timeout = request.timeout.or(shared.config.default_timeout);
        let deadline = timeout.map(|t| now + t);
        let tracer = shared.factory.tracer();
        let span = tracer.begin(SpanKind::ServeJob, &request.pipeline, || job_attrs(id, fp));

        // Result-cache hits resolve against the sharded LRU without ever
        // touching the in-flight mutex.
        let cached = fp.and_then(|fp| {
            let key = job_key(&request.pipeline, fp);
            shared.results.get(key).map(|output| (key, output))
        });
        // A fingerprinted job that missed the cache holds the in-flight lock
        // across the (non-blocking) push so that reservation + admission are
        // atomic: workers can't complete-and-remove a key between our lookup
        // and our reservation. (A job finishing between the cache probe
        // above and this lock re-executes at worst — the result cache is fed
        // before the reservation is released, so the window is the probe
        // itself.)
        let dedup = shared.config.dedup_inflight;
        let in_flight = match cached {
            Some(_) => None,
            None => fp.map(|fp| (shared.in_flight.lock(), (request.pipeline.clone(), fp))),
        };
        let leader = in_flight.as_ref().filter(|_| dedup).and_then(|(table, key)| table.get(key));
        let (core, ended) = match (cached, leader) {
            (Some((key, output)), _) => {
                // A hit served from a journal-restored output is a crash
                // retry the exactly-once guard answered without
                // re-execution; count it for the recovery snapshot.
                if shared.journal.is_some() {
                    let mut recovery = shared.recovery.lock();
                    if recovery.restored.contains(&key) {
                        if let Some(snapshot) = recovery.snapshot.as_mut() {
                            snapshot.skipped_duplicates += 1;
                        }
                    }
                }
                (JobCore::finished(Ok(output)), Some(Terminal::CacheHit))
            }
            (None, Some(leader)) => (Arc::clone(leader), Some(Terminal::DedupHit)),
            // The job's cancel token carries the same deadline the queue
            // enforces, so once execution starts the executor, gateway, and
            // script fuel cap all race the identical instant.
            (None, None) => (
                JobCore::with_cancel(match deadline {
                    Some(at) => CancelToken::with_deadline(at),
                    None => CancelToken::unbounded(),
                }),
                None,
            ),
        };
        let mut job = Job {
            core: Arc::clone(&core),
            pipeline: request.pipeline,
            inputs: request.inputs,
            fingerprint: fp,
            enqueued: now,
            deadline,
            span,
        };
        let terminal = match ended {
            Some(terminal) => terminal,
            None => {
                tracer.instant_under(Some(job.span.id()), SpanKind::ServeJob, "queued", Vec::new);
                // WAL ordering: the accept is durable *before* the job can be
                // observed queued, so a crash at any later instant recovers
                // it. A storage failure refuses the submission — a silently
                // non-durable server would be worse than a rejected job.
                let accepted = match (&shared.journal, fp) {
                    (Some(journal), Some(fp)) => {
                        journal.record_job_accepted(&job.pipeline, fp, &job.inputs)
                    }
                    _ => Ok(true),
                };
                match accepted {
                    Err(err) => Terminal::JournalRefused(err.to_string()),
                    Ok(_) => match shared.queue.try_push(request.priority, job) {
                        Ok(()) => {
                            if let Some((mut table, key)) = in_flight.filter(|_| dedup) {
                                table.insert(key, Arc::clone(&core));
                            }
                            shared.metrics.accept();
                            return Ok(JobHandle::new(id, core));
                        }
                        // Settling journals the refusal, balancing the
                        // accept record that is already durable: the next
                        // recovery must not resurrect a job the caller was
                        // told is rejected.
                        Err(Refused::Full(returned) | Refused::Closed(returned)) => {
                            job = returned;
                            Terminal::RejectedFull
                        }
                    },
                }
            }
        };
        // A refusal answers with its error; every other ending here already
        // holds its answer in `core`.
        settle(shared, job, terminal, Usage::default()).map(|()| JobHandle::new(id, core))
    }

    /// Submit and block for the result.
    pub fn run(&self, request: SubmitRequest) -> Result<Arc<JobOutput>, ServeError> {
        self.submit(request)?.wait()
    }

    /// Graceful shutdown: stop admitting, stop the supervisor (no restarts
    /// during teardown), drain queued jobs, join workers. Any job still
    /// queued after the pool exits — possible only if every worker crashed
    /// past its restart budget — is failed with a typed
    /// [`ServeError::ShuttingDown`] rather than left hanging or silently
    /// dropped; with a journal attached those jobs stay journaled as
    /// pending, so the next incarnation resurrects them. Idempotent; also
    /// invoked on drop.
    pub fn shutdown(&mut self) {
        self.supervision.shutdown.store(true, Ordering::Release);
        self.shared.queue.close();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Join with the slots lock released — a dying worker's guard takes it.
        for worker in self.supervision.take_handles() {
            let _ = worker.join();
        }
        // Durability before the drain: compact and flush everything the
        // journal holds — including still-queued jobs as pending — so even a
        // crash *during* this teardown loses nothing.
        if let Some(journal) = &self.shared.journal {
            let _ = journal.checkpoint_now();
            let _ = journal.flush();
        }
        // Leftovers exist only if the whole pool died (every slot crashed
        // past its restart budget): fail them instead of hanging their waiters.
        for job in self.shared.queue.drain() {
            let _ = settle(&self.shared, job, Terminal::ShuttingDown, Usage::default());
        }
    }
}

impl Drop for PipelineServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Begin-edge attributes for a `serve_job` span.
fn job_attrs(id: JobId, fingerprint: Option<u64>) -> Vec<(String, String)> {
    let mut attrs = vec![("job".to_string(), id.0.to_string())];
    if let Some(fp) = fingerprint {
        attrs.push(("fingerprint".to_string(), format!("{fp:016x}")));
    }
    attrs
}

fn worker_loop(shared: &Arc<Shared>, supervision: &Arc<Supervision>, index: usize) {
    // Dropped on every exit — clean drain, retirement or escaping panic —
    // marking the slot dead for the supervisor.
    let _guard = WorkerGuard::new(Arc::clone(supervision), index);
    // Per-worker instance cache: (generation, executable pipeline copy).
    let mut instances: HashMap<String, (u64, PhysicalPipeline)> = HashMap::new();
    // A worker the pool grew retires after a whole supervisor tick with
    // nothing queued; the budgeted ones wait for work until shutdown.
    let grown = supervision.is_grown(index);
    let next = || {
        if grown {
            shared.queue.pop_within(shared.config.supervisor_tick)
        } else {
            shared.queue.pop()
        }
    };
    while let Some(job) = next() {
        process(shared, supervision, index, &mut instances, job);
    }
    if grown && !supervision.shutdown.load(Ordering::Acquire) {
        supervision.retire(index);
        shared.metrics.worker_retired();
        shared.factory.tracer().instant(SpanKind::Supervisor, "worker_retired", || {
            vec![("worker".into(), index.to_string())]
        });
    }
}

/// Render a caught panic payload for [`ServeError::Panicked`].
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else if let Some(text) = payload.downcast_ref::<&'static str>() {
        (*text).to_string()
    } else if payload.downcast_ref::<EscapePanic>().is_some() {
        "EscapePanic (deliberate worker-kill sentinel)".into()
    } else {
        "opaque panic payload".into()
    }
}

fn process(
    shared: &Shared,
    supervision: &Supervision,
    worker: usize,
    instances: &mut HashMap<String, (u64, PhysicalPipeline)>,
    mut job: Job,
) {
    let mut escaped = false;
    let (terminal, usage) = if job.deadline.is_some_and(|deadline| Instant::now() > deadline) {
        (Terminal::Timeout { waited: job.enqueued.elapsed() }, Usage::default())
    } else if job.core.cancel.explicitly_cancelled() {
        // Cancelled while queued: settled before spending any execution.
        (Terminal::Cancelled, Usage::default())
    } else {
        job.core.set_running();
        if let (Some(journal), Some(fp)) = (&shared.journal, job.fingerprint) {
            // Diagnostic only (recovery treats started exactly like queued),
            // so best-effort: a failed append must not fail the job.
            book_append(shared, &job, "started", journal.record_job_started(&job.pipeline, fp));
        }
        // Fresh context per run: shared LLM + tools behind a per-job meter,
        // the job's cancel token threaded in so the executor,
        // `try_parallel_map`, the script fuel cap, and — on every completion
        // `ctx.complete` places — the LLM layers all observe the same
        // deadline.
        let meter = Arc::new(UsageMeter::new(shared.factory.llm()));
        let token = job.core.cancel.clone();
        let mut ctx = shared
            .factory
            .build_with_llm(Arc::clone(&meter) as Arc<dyn lingua_llm_sim::LlmService>)
            .with_cancel(token.clone());
        // Nest the execution under the job span begun at submission.
        let tracer = shared.factory.tracer();
        tracer.instant_under(Some(job.span.id()), SpanKind::ServeJob, "dequeued", Vec::new);
        let enter = tracer.enter(&job.span);
        let inputs = std::mem::take(&mut job.inputs);
        supervision.begin_job(worker, &job.core, &job.pipeline, token.remaining());
        let start = Instant::now();
        // Contain panics at the job boundary — a user module's
        // `fresh_instance` as much as its `invoke` — so the job fails and the
        // worker survives. The context and pipeline instance are only touched
        // inside; both are discarded on unwind (the instance cache entry
        // explicitly), so no torn state is observed afterwards and
        // AssertUnwindSafe is sound.
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Refresh the cached instance if missing or stale.
            let current = shared.registry.generation(&job.pipeline);
            let cached = instances.get(&job.pipeline).map(|(generation, _)| *generation);
            if current.is_none() || cached != current {
                instances.remove(&job.pipeline);
                let fresh = shared.registry.instantiate(&job.pipeline)?;
                instances.insert(job.pipeline.clone(), fresh);
            }
            let Some((_, pipeline)) = instances.get_mut(&job.pipeline) else {
                return Err(ServeError::Internal {
                    reason: format!(
                        "worker {worker} holds no instance of `{}` after refreshing it",
                        job.pipeline
                    ),
                });
            };
            Executor::run(pipeline, &mut ctx, inputs).map_err(ServeError::Core)
        }));
        let wall = start.elapsed();
        supervision.end_job(worker);
        drop(enter);
        let terminal = match result {
            Ok(Ok(report)) => Terminal::Executed(Arc::new(JobOutput {
                env: report.env,
                llm: meter.usage(),
                wall,
            })),
            Ok(Err(ServeError::Core(CoreError::Cancelled { reason }))) => match reason {
                CancelReason::DeadlineExceeded => Terminal::DeadlineExceeded { elapsed: wall },
                CancelReason::Cancelled => Terminal::Cancelled,
            },
            Ok(Err(err)) => Terminal::Failed(err),
            Err(payload) => {
                // The instance may be poisoned mid-mutation: discard it so
                // the next job replicates a fresh copy from the registry.
                instances.remove(&job.pipeline);
                tracer.instant(SpanKind::Supervisor, "job_panicked", || {
                    vec![
                        ("worker".into(), worker.to_string()),
                        ("pipeline".into(), job.pipeline.clone()),
                    ]
                });
                escaped = payload.is::<EscapePanic>();
                Terminal::Panicked { payload: panic_text(payload.as_ref()) }
            }
        };
        // Partial usage of a job that did not complete is billed too: it
        // lands in `llm_partial`, so ledgers still reconcile to the cent.
        (terminal, meter.usage())
    };
    let _ = settle(shared, job, terminal, usage);
    // The kill sentinel escapes containment on purpose — after its job is
    // settled — to exercise worker resurrection.
    if escaped {
        resume_unwind(Box::new(EscapePanic));
    }
}

/// Book the outcome of a journal append made after the job was accepted.
/// Such an append is best-effort: the job's result stands whether or not the
/// record reached storage, and a storage error must not unwind the worker.
/// But a lost record is not harmless — without its `finished`, the next
/// recovery re-executes and re-bills a job whose caller already has the
/// answer — so a failure is counted in `journal_append_errors` and marked on
/// the job's span, which must still be open.
fn book_append(shared: &Shared, job: &Job, record: &str, appended: std::io::Result<bool>) {
    let Err(err) = appended else { return };
    shared.metrics.journal_append_error();
    shared.factory.tracer().instant_under(
        Some(job.span.id()),
        SpanKind::ServeJob,
        "journal_append_failed",
        || vec![("record".into(), record.to_string()), ("error".into(), err.to_string())],
    );
}

/// End a job: the one place a job's ending takes effect, whatever it was.
/// Everything is derived from `terminal`, in WAL order:
///
/// 1. the journal record — `finished`, or `failed` with the span path as its
///    reason — durable before the ending is observable. None for an ending
///    at submission that never admitted a job, and none for `ShuttingDown`:
///    that job stays journaled as pending, so the next incarnation
///    resurrects it;
/// 2. the counter;
/// 3. the `path` of the job's `serve_job` span;
/// 4. the outcome. A refusal at submission is returned as the submitter's
///    error; a cache or dedup hit already holds its answer; any other ending
///    feeds the result cache (an output), then releases the in-flight
///    reservation and wakes every waiter. The cache is fed *before* the
///    reservation is dropped, so a concurrent duplicate always finds the
///    job in one of the two tables.
fn settle(shared: &Shared, job: Job, terminal: Terminal, usage: Usage) -> Result<(), ServeError> {
    let latency = job.enqueued.elapsed();
    if let (Some(journal), Some(fp)) = (&shared.journal, job.fingerprint) {
        let appended = match &terminal {
            Terminal::CacheHit
            | Terminal::DedupHit
            | Terminal::JournalRefused(_)
            | Terminal::ShuttingDown => None,
            Terminal::Executed(output) => Some((
                "finished",
                journal.record_job_finished(FinishedJob {
                    pipeline: job.pipeline.clone(),
                    fingerprint: fp,
                    env: output.env.clone(),
                    llm: output.llm,
                    wall_us: output.wall.as_micros() as u64,
                }),
            )),
            _ => Some((
                "failed",
                journal.record_job_failed(&job.pipeline, fp, usage, terminal.path()),
            )),
        };
        if let Some((record, appended)) = appended {
            book_append(shared, &job, record, appended);
        }
    }
    shared.metrics.settle(&terminal, latency, usage);
    let path = terminal.path();
    shared.factory.tracer().end(job.span, || vec![("path".into(), path.into())]);
    let result = match terminal {
        Terminal::CacheHit | Terminal::DedupHit => return Ok(()),
        Terminal::RejectedFull => {
            return Err(ServeError::Full { capacity: shared.config.queue_capacity })
        }
        Terminal::JournalRefused(reason) => return Err(ServeError::Journal { reason }),
        Terminal::Executed(output) => Ok(output),
        Terminal::Timeout { waited } => Err(ServeError::Timeout { waited }),
        Terminal::Cancelled => Err(ServeError::Cancelled),
        Terminal::DeadlineExceeded { elapsed } => Err(ServeError::DeadlineExceeded { elapsed }),
        Terminal::Failed(err) => Err(err),
        Terminal::Panicked { payload } => {
            Err(ServeError::Panicked { pipeline: job.pipeline.clone(), payload })
        }
        Terminal::ShuttingDown => Err(ServeError::ShuttingDown),
    };
    if let Some(fp) = job.fingerprint {
        if let Ok(output) = &result {
            shared.results.insert(job_key(&job.pipeline, fp), Arc::clone(output));
        }
        shared.in_flight.lock().remove(&(job.pipeline, fp));
    }
    job.core.finish(result);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::InvalidConfig;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;

    fn factory() -> ContextFactory {
        let world = WorldSpec::generate(21);
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, 21)))
    }

    fn summarize_server(config: ServeConfig) -> PipelineServer {
        let server = PipelineServer::start(factory(), config).unwrap();
        server
            .register_dsl(
                "summ",
                r#"pipeline summ {
                    out = summarize(text) using llm with { desc: "summarize the following document" };
                }"#,
                &Compiler::with_builtins(),
            )
            .unwrap();
        server
    }

    #[test]
    fn submit_wait_roundtrip() {
        let server = summarize_server(ServeConfig { workers: Some(2), ..Default::default() });
        let request = SubmitRequest::new("summ")
            .input("text", Data::Str("a quick brown fox jumps over the lazy dog".into()));
        let output = server.run(request).unwrap();
        assert!(output.get("out").is_ok());
        assert!(output.llm.calls >= 1, "the summarize op billed the LLM");
        let snap = server.metrics();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn unknown_pipeline_is_rejected_at_submit() {
        let server = summarize_server(ServeConfig { workers: Some(1), ..Default::default() });
        let err = server.submit(SubmitRequest::new("ghost")).unwrap_err();
        assert!(matches!(err, ServeError::UnknownPipeline(id) if id == "ghost"));
    }

    #[test]
    fn result_cache_serves_repeats_without_llm_calls() {
        let mut server = summarize_server(ServeConfig { workers: Some(1), ..Default::default() });
        let request = SubmitRequest::new("summ")
            .input("text", Data::Str("the same document every time".into()));
        let first = server.run(request.clone()).unwrap();
        let second = server.run(request).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second run came from the result cache");
        let snap = server.metrics();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.completed, 1, "only one real execution");
        server.shutdown();
    }

    #[test]
    fn distinct_inputs_do_not_dedup() {
        let server = summarize_server(ServeConfig { workers: Some(2), ..Default::default() });
        let a = server
            .run(SubmitRequest::new("summ").input("text", Data::Str("first text".into())))
            .unwrap();
        let b = server
            .run(SubmitRequest::new("summ").input("text", Data::Str("second text".into())))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        let snap = server.metrics();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.deduped(), 0);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let mut server = summarize_server(ServeConfig { workers: Some(1), ..Default::default() });
        server.shutdown();
        let err = server
            .submit(SubmitRequest::new("summ").input("text", Data::Str("late".into())))
            .unwrap_err();
        assert!(matches!(err, ServeError::Shutdown));
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let mut server = summarize_server(ServeConfig {
            workers: Some(1),
            dedup_inflight: false,
            result_cache_capacity: 0,
            ..Default::default()
        });
        let handles: Vec<JobHandle> = (0..8)
            .map(|i| {
                server
                    .submit(
                        SubmitRequest::new("summ")
                            .input("text", Data::Str(format!("document number {i}"))),
                    )
                    .unwrap()
            })
            .collect();
        server.shutdown();
        for handle in handles {
            assert!(handle.wait().is_ok(), "queued work completed before shutdown");
        }
        assert_eq!(server.metrics().completed, 8);
    }

    #[test]
    fn unusable_configurations_are_rejected_at_start() {
        let start_err =
            |config: ServeConfig| PipelineServer::start(factory(), config).map(|_| ()).unwrap_err();
        let err = start_err(ServeConfig { workers: Some(0), ..Default::default() });
        assert_eq!(err, ServeError::InvalidConfig(InvalidConfig::ZeroWorkers));

        let err = start_err(ServeConfig { queue_capacity: 0, ..Default::default() });
        assert_eq!(err, ServeError::InvalidConfig(InvalidConfig::ZeroQueueCapacity));

        let err =
            start_err(ServeConfig { default_timeout: Some(Duration::ZERO), ..Default::default() });
        assert_eq!(err, ServeError::InvalidConfig(InvalidConfig::ZeroDefaultTimeout));

        let err = start_err(ServeConfig { supervisor_tick: Duration::ZERO, ..Default::default() });
        assert_eq!(err, ServeError::InvalidConfig(InvalidConfig::ZeroSupervisorTick));

        let err = start_err(ServeConfig { stuck_multiplier: 0, ..Default::default() });
        assert_eq!(err, ServeError::InvalidConfig(InvalidConfig::ZeroStuckMultiplier));

        // A nonzero deadline is fine.
        let ok =
            ServeConfig { default_timeout: Some(Duration::from_secs(30)), ..Default::default() };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn broken_batching_knobs_are_rejected_at_start() {
        let start_err = |tuning: BatchTuning| {
            let config = ServeConfig { batch: Some(tuning), ..Default::default() };
            PipelineServer::start(factory(), config).map(|_| ()).unwrap_err()
        };
        let err = start_err(BatchTuning { max_batch_size: 0, ..Default::default() });
        assert_eq!(err, ServeError::InvalidConfig(InvalidConfig::ZeroBatchSize));

        let err = start_err(BatchTuning { max_wait: Duration::ZERO, ..Default::default() });
        assert_eq!(err, ServeError::InvalidConfig(InvalidConfig::ZeroBatchWindow));

        let default = ServeConfig { batch: Some(BatchTuning::default()), ..Default::default() };
        assert!(default.validate().is_ok());
    }

    #[test]
    fn batching_config_wraps_the_llm_and_surfaces_counters() {
        let mut server = summarize_server(ServeConfig {
            workers: Some(2),
            dedup_inflight: false,
            result_cache_capacity: 0,
            batch: Some(BatchTuning { max_batch_size: 4, max_wait: Duration::from_millis(1) }),
            ..Default::default()
        });
        assert!(server.batcher().is_some(), "start() wrapped the LLM in a batcher");
        let handles: Vec<JobHandle> = (0..6)
            .map(|i| {
                server
                    .submit(
                        SubmitRequest::new("summ")
                            .input("text", Data::Str(format!("batched document number {i}"))),
                    )
                    .unwrap()
            })
            .collect();
        for handle in handles {
            let output = handle.wait().unwrap();
            assert!(output.llm.calls >= 1, "each job metered its own usage over the batcher");
        }
        let snap = server.metrics();
        assert_eq!(snap.completed, 6);
        let batch = snap.batch.as_ref().expect("batch counters attached");
        assert!(batch.members >= 6, "every job's completion went through the batcher");
        assert!(batch.batches >= 1);
        assert!(batch.batches <= batch.members, "batching never inflates the flush count");
        assert!(snap.report().contains("batcher metrics"), "report folds in the batcher section");
        server.shutdown();
    }

    #[test]
    fn unset_workers_default_to_available_parallelism() {
        let expected = std::thread::available_parallelism().map(usize::from).unwrap_or(4);
        assert_eq!(ServeConfig::default().resolved_workers(), expected);
        assert_eq!(ServeConfig { workers: Some(3), ..Default::default() }.resolved_workers(), 3);

        let server = summarize_server(ServeConfig::default());
        assert_eq!(server.worker_count(), expected);
        assert_eq!(server.metrics().workers, expected, "resolved pool size surfaces in snapshots");
        assert!(server.metrics().report().contains("workers"));

        let sized = summarize_server(ServeConfig { workers: Some(2), ..Default::default() });
        assert_eq!(sized.metrics().workers, 2);
    }

    #[test]
    fn attached_gateway_metrics_surface_in_snapshot() {
        let world = WorldSpec::generate(33);
        let sim = Arc::new(SimLlm::with_seed(&world, 33));
        let transport =
            lingua_gateway::ServiceTransport::new("sim", Arc::clone(&sim) as Arc<dyn LlmService>);
        let gateway =
            Arc::new(Gateway::over(Arc::new(transport) as Arc<dyn lingua_gateway::LlmTransport>));
        let factory = ContextFactory::new(Arc::clone(&gateway) as Arc<dyn LlmService>);
        let server =
            PipelineServer::start(factory, ServeConfig { workers: Some(1), ..Default::default() })
                .unwrap();
        server
            .register_dsl(
                "summ",
                r#"pipeline summ {
                    out = summarize(text) using llm with { desc: "summarize the following document" };
                }"#,
                &Compiler::with_builtins(),
            )
            .unwrap();
        assert!(server.metrics().gateway.is_none(), "no gateway attached yet");
        server.attach_gateway(Arc::clone(&gateway));
        server
            .run(
                SubmitRequest::new("summ").input("text", Data::Str("route through gateway".into())),
            )
            .unwrap();
        let snap = server.metrics();
        let gw = snap.gateway.as_ref().expect("gateway counters attached");
        assert!(gw.requests >= 1, "the summarize call went through the gateway");
        assert_eq!(gw.faults(), 0, "a clean backend injects nothing");
        assert_eq!(gw.backends.len(), 1);
        assert_eq!(gw.backends[0].breaker_state, "closed");
        assert!(snap.report().contains("gateway"), "report folds in the gateway section");
    }

    #[test]
    fn run_reports_execution_errors() {
        let server = PipelineServer::start(
            factory(),
            ServeConfig { workers: Some(1), ..Default::default() },
        )
        .unwrap();
        // `load_csv` on a nonexistent path fails inside the worker.
        let mut ctx = server.shared.factory.build();
        server
            .shared
            .registry
            .register_dsl(
                "bad",
                r#"pipeline bad { t = load_csv() with { path: "/nonexistent/x.csv" }; }"#,
                &Compiler::with_builtins(),
                &mut ctx,
            )
            .unwrap();
        let err = server.run(SubmitRequest::new("bad")).unwrap_err();
        assert!(matches!(err, ServeError::Core(_)));
        assert_eq!(server.metrics().failed, 1);
    }
}
