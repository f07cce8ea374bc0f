//! The serving-layer error type.

use lingua_core::CoreError;
use std::fmt;
use std::time::Duration;

/// Machine-readable reasons a [`crate::ServeConfig`] is unusable.
///
/// Typed (rather than a free-form string) so callers can branch on *which*
/// knob is broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidConfig {
    /// `workers == Some(0)`: no worker would ever dequeue a job.
    ZeroWorkers,
    /// `queue_capacity == 0`: every submission would be rejected.
    ZeroQueueCapacity,
    /// Batching: `max_batch_size == 0` — no batch could ever admit a
    /// member, so every completion would block on a flush that never
    /// comes. (The gateway-layer batcher clamps this to 1 defensively;
    /// the serving layer rejects it outright as a configuration bug.)
    ZeroBatchSize,
    /// Batching: `max_wait == ZERO` — the micro-batch window would close
    /// the instant it opened, so no second member could ever share a
    /// call and the batcher would add lock traffic for nothing.
    ZeroBatchWindow,
    /// Durability: `checkpoint_interval == 0` — the journal would compact
    /// after every append, turning the O(1) write path into a full-state
    /// serialization per record.
    ZeroCheckpointInterval,
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidConfig::ZeroWorkers => {
                write!(f, "workers must be > 0 (no worker would ever dequeue a job)")
            }
            InvalidConfig::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be > 0 (every submission would be rejected)")
            }
            InvalidConfig::ZeroBatchSize => {
                write!(f, "batch max_batch_size must be > 0 (no batch could admit a member)")
            }
            InvalidConfig::ZeroBatchWindow => {
                write!(
                    f,
                    "batch max_wait must be nonzero (the window would close before a \
                     second member could ever share a call)"
                )
            }
            InvalidConfig::ZeroCheckpointInterval => {
                write!(
                    f,
                    "journal checkpoint_interval must be > 0 (every append would \
                     rewrite the whole compacted state)"
                )
            }
        }
    }
}

/// Errors from submitting to or running jobs on a [`crate::PipelineServer`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The server configuration is unusable (zero workers, zero queue
    /// capacity, zero deadline, broken streaming knobs); rejected at
    /// construction instead of panicking or hanging later. The payload says
    /// exactly which knob.
    InvalidConfig(InvalidConfig),
    /// Admission control rejected the submission: the job queue is at
    /// capacity. Callers should back off and retry.
    Full { capacity: usize },
    /// The job spent longer than its timeout waiting in the queue and was
    /// cancelled before execution.
    Timeout { waited: Duration },
    /// The job started executing but its deadline passed before it finished.
    /// Distinct from [`ServeError::Timeout`] (which never ran): partial LLM
    /// usage was billed and is reconciled into the server's `llm_partial`
    /// meter.
    DeadlineExceeded { elapsed: Duration },
    /// The job was cancelled by its [`crate::JobHandle`].
    Cancelled,
    /// The pipeline panicked inside a worker. The panic was isolated: the
    /// worker discarded its (possibly poisoned) pipeline instance, other
    /// in-flight jobs were unaffected, and the payload is preserved here.
    Panicked { pipeline: String, payload: String },
    /// No pipeline is registered under the requested id.
    UnknownPipeline(String),
    /// Compilation or execution failed inside the core system.
    Core(CoreError),
    /// A worker thread could not be spawned.
    Spawn { reason: String },
    /// A serving-layer invariant was violated. Jobs fail with this instead
    /// of unwinding the worker on a broken internal assumption.
    Internal { reason: String },
    /// The server has been shut down; no further submissions are accepted.
    Shutdown,
    /// The job was still queued when shutdown began and the worker pool
    /// could no longer run it. Distinct from [`ServeError::Shutdown`]
    /// (refused at the door): this job *was* admitted, and when a journal
    /// is attached it stays journaled as pending so the next incarnation
    /// resurrects it.
    ShuttingDown,
    /// The write-ahead journal could not record a durable event (storage
    /// failure). Surfaced instead of silently degrading to a non-durable
    /// server.
    Journal { reason: String },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(which) => {
                write!(f, "invalid serve configuration: {which}")
            }
            ServeError::Full { capacity } => {
                write!(f, "job queue is full (capacity {capacity}); back off and retry")
            }
            ServeError::Timeout { waited } => {
                write!(f, "job timed out after waiting {waited:?} in the queue")
            }
            ServeError::DeadlineExceeded { elapsed } => {
                write!(f, "job exceeded its deadline after {elapsed:?} of execution")
            }
            ServeError::Cancelled => write!(f, "job was cancelled"),
            ServeError::Panicked { pipeline, payload } => {
                write!(f, "pipeline `{pipeline}` panicked in a worker: {payload}")
            }
            ServeError::UnknownPipeline(id) => write!(f, "no pipeline registered as `{id}`"),
            ServeError::Core(err) => write!(f, "pipeline error: {err}"),
            ServeError::Spawn { reason } => write!(f, "could not spawn a server thread: {reason}"),
            ServeError::Internal { reason } => {
                write!(f, "internal serving invariant violated: {reason}")
            }
            ServeError::Shutdown => write!(f, "server is shut down"),
            ServeError::ShuttingDown => {
                write!(f, "server began shutting down while the job was still queued")
            }
            ServeError::Journal { reason } => {
                write!(f, "write-ahead journal failure: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(err: CoreError) -> Self {
        ServeError::Core(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_config_names_the_knob() {
        // Every variant's message names the offending knob, so `start()`
        // failures stay actionable even when only the string is logged.
        let cases: [(InvalidConfig, &str); 5] = [
            (InvalidConfig::ZeroWorkers, "workers"),
            (InvalidConfig::ZeroQueueCapacity, "queue_capacity"),
            (InvalidConfig::ZeroBatchSize, "max_batch_size"),
            (InvalidConfig::ZeroBatchWindow, "max_wait"),
            (InvalidConfig::ZeroCheckpointInterval, "checkpoint_interval"),
        ];
        for (which, knob) in cases {
            assert!(which.to_string().contains(knob), "{which:?} should mention {knob}");
            assert!(ServeError::InvalidConfig(which).to_string().contains(knob));
        }
    }

    #[test]
    fn display_is_informative() {
        assert!(ServeError::InvalidConfig(InvalidConfig::ZeroWorkers)
            .to_string()
            .contains("workers"));
        assert!(ServeError::Full { capacity: 8 }.to_string().contains('8'));
        assert!(ServeError::UnknownPipeline("er".into()).to_string().contains("er"));
        let err: ServeError = CoreError::Compile("bad op".into()).into();
        assert!(err.to_string().contains("bad op"));
        assert!(ServeError::Timeout { waited: Duration::from_millis(5) }
            .to_string()
            .contains("timed out"));
        assert!(ServeError::DeadlineExceeded { elapsed: Duration::from_millis(51) }
            .to_string()
            .contains("deadline"));
        let panic = ServeError::Panicked { pipeline: "p".into(), payload: "boom".into() };
        assert!(panic.to_string().contains("boom"));
        assert!(ServeError::Spawn { reason: "EAGAIN".into() }.to_string().contains("EAGAIN"));
        assert!(ServeError::Internal { reason: "no instance".into() }
            .to_string()
            .contains("no instance"));
        assert!(ServeError::Cancelled.to_string().contains("cancelled"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting down"));
        assert!(ServeError::Journal { reason: "disk gone".into() }
            .to_string()
            .contains("disk gone"));
    }

    #[test]
    fn core_errors_keep_their_source() {
        use std::error::Error;
        let err: ServeError = CoreError::NotReplicable { module: "m".into() }.into();
        assert!(err.source().is_some());
        assert!(ServeError::Shutdown.source().is_none());
    }
}
