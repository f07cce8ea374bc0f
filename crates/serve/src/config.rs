//! What a caller hands the server: its configuration at start, and one
//! request per job.

use crate::error::{InvalidConfig, ServeError};
use crate::supervisor::SupervisePolicy;
use lingua_core::Data;
use lingua_durable::JournalTuning;
use std::collections::BTreeMap;
use std::time::Duration;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing pipelines. `None` sizes the pool to
    /// [`std::thread::available_parallelism`]; the resolved count is surfaced
    /// in [`MetricsSnapshot::workers`](crate::MetricsSnapshot::workers).
    pub workers: Option<usize>,
    /// Bounded capacity of each queue lane; submissions beyond it are
    /// rejected with [`ServeError::Full`].
    pub queue_capacity: usize,
    /// Coalesce identical in-flight submissions onto one execution.
    pub dedup_inflight: bool,
    /// Completed results cached in a sharded LRU keyed by
    /// `job_key(pipeline, input fingerprint)`, capped at this many entries.
    /// `0` disables the result cache.
    pub result_cache_capacity: usize,
    /// Default queue timeout applied to jobs that don't set their own.
    pub default_timeout: Option<Duration>,
    /// Times the supervisor will restart any one crashed worker slot before
    /// abandoning it (see `DESIGN.md` §"Supervised execution").
    pub max_worker_restarts: u32,
    /// Base delay before a crashed worker is restarted; doubles per restart
    /// of that slot.
    pub restart_backoff: Duration,
    /// Supervisor tick interval (watchdog + restart passes).
    pub supervisor_tick: Duration,
    /// A job is "stuck" once it has run this many times its deadline budget
    /// without heartbeat progress; the watchdog then nudges it with a
    /// cooperative cancel. Jobs without a deadline are never flagged.
    pub stuck_multiplier: u32,
    /// Continuous micro-batching knobs. When set, `start()` wraps the
    /// factory's LLM service in a [`Batcher`](lingua_gateway::Batcher) so completions from
    /// concurrent jobs share batched backend calls; its counters surface
    /// in [`MetricsSnapshot::batch`](crate::MetricsSnapshot::batch). `None` leaves the LLM path
    /// untouched. Unlike the batcher itself — which tolerates a zero window
    /// by degenerating to per-call flushing — `start()` rejects zero knobs:
    /// asking for batching and configuring it to never batch is a bug worth
    /// failing over.
    pub batch: Option<BatchTuning>,
    /// Write-ahead journaling (`lingua-durable`). When set, `start()`
    /// replays the journal — restoring finished results into the result
    /// cache, the billed ledger into the LLM service, and queued-but-
    /// unfinished jobs for [`PipelineServer::resume_recovered`](crate::PipelineServer::resume_recovered) — and every
    /// job lifecycle event is journaled before its effect becomes
    /// observable. `None` keeps the server purely in-memory.
    pub journal: Option<JournalTuning>,
}

/// Micro-batching knobs for the continuous batcher riding this server: the
/// batcher's own configuration, under the name serve's callers know.
pub use lingua_gateway::BatchConfig as BatchTuning;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: None,
            queue_capacity: 256,
            dedup_inflight: true,
            result_cache_capacity: 1024,
            default_timeout: None,
            max_worker_restarts: 8,
            restart_backoff: Duration::from_millis(2),
            supervisor_tick: Duration::from_millis(2),
            stuck_multiplier: 4,
            batch: None,
            journal: None,
        }
    }
}

impl ServeConfig {
    /// The worker-pool size this config resolves to: the explicit setting,
    /// else the machine's available parallelism.
    pub(crate) fn resolved_workers(&self) -> usize {
        self.workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(usize::from).unwrap_or(4))
    }

    /// Reject unusable configurations up front: zero workers would hang
    /// every job, a zero-capacity queue would reject every submission, a
    /// zero default deadline would time every job out before it ran. Each
    /// rejection is a typed [`InvalidConfig`] naming the knob.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == Some(0) {
            return Err(ServeError::InvalidConfig(InvalidConfig::ZeroWorkers));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(InvalidConfig::ZeroQueueCapacity));
        }
        if self.default_timeout == Some(Duration::ZERO) {
            return Err(ServeError::InvalidConfig(InvalidConfig::ZeroDefaultTimeout));
        }
        if self.supervisor_tick.is_zero() {
            return Err(ServeError::InvalidConfig(InvalidConfig::ZeroSupervisorTick));
        }
        if self.stuck_multiplier == 0 {
            return Err(ServeError::InvalidConfig(InvalidConfig::ZeroStuckMultiplier));
        }
        if let Some(batch) = &self.batch {
            if batch.max_batch_size == 0 {
                return Err(ServeError::InvalidConfig(InvalidConfig::ZeroBatchSize));
            }
            if batch.max_wait.is_zero() {
                return Err(ServeError::InvalidConfig(InvalidConfig::ZeroBatchWindow));
            }
        }
        if let Some(journal) = &self.journal {
            if journal.checkpoint_interval == 0 {
                return Err(ServeError::InvalidConfig(InvalidConfig::ZeroCheckpointInterval));
            }
        }
        Ok(())
    }

    pub(crate) fn supervise_policy(&self) -> SupervisePolicy {
        SupervisePolicy {
            max_worker_restarts: self.max_worker_restarts,
            restart_backoff: self.restart_backoff,
            tick: self.supervisor_tick,
            stuck_multiplier: self.stuck_multiplier,
        }
    }
}

/// Queue lane selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    #[default]
    Normal,
    /// Drained before any normal-priority work.
    High,
}

/// A pipeline-execution request.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Registry id of the pipeline to run.
    pub pipeline: String,
    /// Initial variable environment for the run.
    pub inputs: BTreeMap<String, Data>,
    pub priority: Priority,
    /// Maximum time the job may wait in the queue (overrides the config
    /// default). Exceeding it fails the job with [`ServeError::Timeout`].
    pub timeout: Option<Duration>,
}

impl SubmitRequest {
    pub fn new(pipeline: impl Into<String>) -> SubmitRequest {
        SubmitRequest {
            pipeline: pipeline.into(),
            inputs: BTreeMap::new(),
            priority: Priority::Normal,
            timeout: None,
        }
    }

    pub fn input(mut self, name: impl Into<String>, value: Data) -> SubmitRequest {
        self.inputs.insert(name.into(), value);
        self
    }

    pub fn priority(mut self, priority: Priority) -> SubmitRequest {
        self.priority = priority;
        self
    }

    pub fn timeout(mut self, timeout: Duration) -> SubmitRequest {
        self.timeout = Some(timeout);
        self
    }
}
