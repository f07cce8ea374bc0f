//! Job handles: what a submission returns, how callers poll and wait.

use crate::error::ServeError;
use lingua_core::Data;
use lingua_llm_sim::{CancelToken, Usage};
use lingua_ml::sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Server-unique job identifier. Deduplicated submissions get their own id
/// even when they share another job's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Coarse job lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue (or attached to an in-flight duplicate).
    Queued,
    /// A worker is executing the pipeline.
    Running,
    /// Finished — a result (success or error) is available.
    Done,
}

/// What a successful run produced.
#[derive(Debug)]
pub struct JobOutput {
    /// Final variable environment: every op output, and none of the job's
    /// inputs ([`lingua_core::Executor::run`] moves each into the op that
    /// reads it last). Serve's job table and the journal's `finished` record
    /// hold this env, so neither grows with a job's input.
    pub env: BTreeMap<String, Data>,
    /// LLM usage this run consumed (per-job metered). A cache or dedup hit
    /// shares the output of the run that answered it, usage included.
    pub llm: Usage,
    /// Execution wall time (excludes queue wait).
    pub wall: Duration,
}

impl JobOutput {
    /// Fetch an output variable, erroring if absent.
    pub fn get(&self, var: &str) -> Result<&Data, ServeError> {
        self.env
            .get(var)
            .ok_or_else(|| ServeError::Core(lingua_core::CoreError::UnknownVariable(var.into())))
    }
}

/// How a job ended. Every ending in the server is one of these values, and
/// `server::settle` derives the rest from the variant: the journal record,
/// the counter, the `path` of the job's `serve_job` span, and the output or
/// [`ServeError`] its waiters see.
pub(crate) enum Terminal {
    /// Ran to completion.
    Executed(Arc<JobOutput>),
    /// Answered at submission by the key's finished cell.
    CacheHit,
    /// Attached at submission to the key's live (queued or running) cell.
    DedupHit,
    /// Refused at submission: its queue lane was full (or closing).
    RejectedFull,
    /// Refused at submission: the journal could not record the accept.
    JournalRefused(String),
    /// Waited in the queue past its timeout; never ran.
    Timeout { waited: Duration },
    /// Cancelled by a handle, queued or running.
    Cancelled,
    /// Its deadline passed while it ran.
    DeadlineExceeded { elapsed: Duration },
    /// A typed failure: a `Core` error (traps and `NoAnswer` included), a
    /// replication error, or `Internal`.
    Failed(ServeError),
    /// Panicked in its worker, making its replica or running it.
    Panicked { payload: String },
    /// Still queued when shutdown found no worker left to run it.
    ShuttingDown,
}

impl Terminal {
    /// The `path` the job's `serve_job` span closes with; a `failed` journal
    /// record carries the same word as its reason.
    pub(crate) fn path(&self) -> &'static str {
        match self {
            Terminal::Executed(_) => "executed",
            Terminal::CacheHit => "cache_hit",
            Terminal::DedupHit => "dedup_hit",
            Terminal::RejectedFull => "rejected_full",
            Terminal::JournalRefused(_) => "journal_refused",
            Terminal::Timeout { .. } => "timeout",
            Terminal::Cancelled => "cancelled",
            Terminal::DeadlineExceeded { .. } => "deadline_exceeded",
            Terminal::Failed(_) => "failed",
            Terminal::Panicked { .. } => "panicked",
            Terminal::ShuttingDown => "shutdown",
        }
    }
}

struct JobState {
    status: JobStatus,
    result: Option<Result<Arc<JobOutput>, ServeError>>,
}

/// Shared completion cell, and what serve's job table holds: duplicated
/// submissions hold the *same* core, so one execution wakes every waiter
/// with one shared output, and a finished core answers later ones.
pub(crate) struct JobCore {
    state: Mutex<JobState>,
    done: Condvar,
    /// The job's cancellation token: deadline (set at admission from the
    /// request timeout) plus the explicit flag behind [`JobHandle::cancel`].
    /// Propagated into the worker's `ExecContext` for the duration of the
    /// run, and read as the job's heartbeat when the pool's health is read.
    pub(crate) cancel: CancelToken,
    /// Born finished from a journaled output: a hit on this cell is a crash
    /// retry answered without re-execution.
    pub(crate) restored: bool,
}

impl JobCore {
    /// A core whose execution is governed by `cancel`.
    pub(crate) fn with_cancel(cancel: CancelToken) -> Arc<JobCore> {
        Arc::new(JobCore {
            state: Mutex::new(JobState { status: JobStatus::Queued, result: None }),
            done: Condvar::new(),
            cancel,
            restored: false,
        })
    }

    /// A core born finished from a journaled output, as `start()` recovers
    /// it.
    pub(crate) fn restored(output: Arc<JobOutput>) -> Arc<JobCore> {
        Arc::new(JobCore {
            state: Mutex::new(JobState { status: JobStatus::Done, result: Some(Ok(output)) }),
            done: Condvar::new(),
            cancel: CancelToken::unbounded(),
            restored: true,
        })
    }

    pub(crate) fn set_running(&self) {
        self.state.lock().status = JobStatus::Running;
    }

    /// Publish the result and wake every waiter. Idempotent: the first
    /// completion wins, and a later one can never clobber it.
    pub(crate) fn finish(&self, result: Result<Arc<JobOutput>, ServeError>) {
        let mut state = self.state.lock();
        if state.result.is_some() {
            return;
        }
        state.status = JobStatus::Done;
        state.result = Some(result);
        drop(state);
        self.done.notify_all();
    }

    pub(crate) fn status(&self) -> JobStatus {
        self.state.lock().status
    }

    fn wait(&self) -> Result<Arc<JobOutput>, ServeError> {
        let mut state = self.state.lock();
        while state.result.is_none() {
            state = self.done.wait(state);
        }
        // Invariant: the condvar loop above only exits with `result` set.
        state.result.clone().expect("checked above")
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Result<Arc<JobOutput>, ServeError>> {
        let mut state = self.state.lock();
        let deadline = std::time::Instant::now() + timeout;
        while state.result.is_none() {
            let timed_out;
            (state, timed_out) = self.done.wait_until(state, deadline);
            if timed_out {
                return state.result.clone();
            }
        }
        state.result.clone()
    }
}

/// The caller's view of a submitted job.
#[derive(Clone)]
pub struct JobHandle {
    id: JobId,
    pub(crate) core: Arc<JobCore>,
}

impl JobHandle {
    pub(crate) fn new(id: JobId, core: Arc<JobCore>) -> JobHandle {
        JobHandle { id, core }
    }

    pub fn id(&self) -> JobId {
        self.id
    }

    /// Non-blocking status poll.
    pub fn status(&self) -> JobStatus {
        self.core.status()
    }

    /// Block until the job finishes.
    pub fn wait(&self) -> Result<Arc<JobOutput>, ServeError> {
        self.core.wait()
    }

    /// Block up to `timeout`; `None` if the job is still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Arc<JobOutput>, ServeError>> {
        self.core.wait_timeout(timeout)
    }

    /// Request cancellation of this job's execution. Cooperative: the
    /// executor stops at its next check-in and the job fails with
    /// [`ServeError::Cancelled`] (or [`ServeError::DeadlineExceeded`] if the
    /// deadline passed first). A job that already finished is unaffected.
    /// Deduplicated submissions share one execution, so cancelling any
    /// attached handle cancels it for every waiter.
    pub fn cancel(&self) {
        self.core.cancel.cancel();
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).field("status", &self.status()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Arc<JobCore> {
        JobCore::with_cancel(CancelToken::unbounded())
    }

    fn output() -> Arc<JobOutput> {
        Arc::new(JobOutput { env: BTreeMap::new(), llm: Usage::default(), wall: Duration::ZERO })
    }

    #[test]
    fn handle_observes_lifecycle() {
        let core = core();
        let handle = JobHandle::new(JobId(1), core.clone());
        assert_eq!(handle.status(), JobStatus::Queued);
        assert!(handle.wait_timeout(Duration::ZERO).is_none());
        core.set_running();
        assert_eq!(handle.status(), JobStatus::Running);
        core.finish(Ok(output()));
        assert_eq!(handle.status(), JobStatus::Done);
        assert!(handle.wait().is_ok());
        assert!(handle.wait_timeout(Duration::ZERO).unwrap().is_ok());
    }

    #[test]
    fn wait_blocks_until_finish_from_another_thread() {
        let core = core();
        let handle = JobHandle::new(JobId(2), core.clone());
        let waiter = std::thread::spawn(move || handle.wait());
        std::thread::sleep(Duration::from_millis(20));
        core.finish(Err(ServeError::Shutdown));
        assert!(matches!(waiter.join().unwrap(), Err(ServeError::Shutdown)));
    }

    #[test]
    fn wait_timeout_returns_none_while_in_flight() {
        let core = core();
        let handle = JobHandle::new(JobId(3), core);
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn duplicated_handles_share_one_result() {
        let core = core();
        let a = JobHandle::new(JobId(4), core.clone());
        let b = JobHandle::new(JobId(5), core.clone());
        core.finish(Ok(output()));
        let ra = a.wait().unwrap();
        let rb = b.wait().unwrap();
        assert!(Arc::ptr_eq(&ra, &rb), "followers share the leader's output");
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn finished_cores_are_born_done() {
        let handle = JobHandle::new(JobId(6), JobCore::restored(output()));
        assert_eq!(handle.status(), JobStatus::Done);
    }

    #[test]
    fn finish_is_idempotent_first_completion_wins() {
        let core = core();
        core.finish(Ok(output()));
        core.finish(Err(ServeError::Shutdown));
        let handle = JobHandle::new(JobId(7), core);
        assert_eq!(handle.status(), JobStatus::Done);
        assert!(handle.wait().is_ok(), "the second finish must not clobber the first");
    }

    #[test]
    fn handle_cancel_flags_the_shared_token() {
        let core = core();
        let a = JobHandle::new(JobId(8), core.clone());
        let b = JobHandle::new(JobId(9), core.clone());
        assert!(core.cancel.status().is_none());
        a.cancel();
        // Deduplicated handles share one execution, so either cancels both.
        assert!(core.cancel.explicitly_cancelled());
        assert_eq!(b.status(), JobStatus::Queued, "cancel is cooperative, not a completion");
    }
}
