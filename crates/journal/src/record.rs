//! The journal's record vocabulary.
//!
//! Each variant of [`JournalRecord`] is one durable fact about serve-job
//! lifecycle or stream-engine state, written *before* the corresponding
//! in-memory effect becomes observable (write-ahead ordering). Records are
//! self-contained: recovery needs no live engine to interpret them, only
//! the fold in [`crate::journal`].
//!
//! On the wire a record is the compact binary form of [`crate::codec`]
//! (DESIGN.md §15): a job's whole output env rides in `JobFinished` and a
//! checkpoint carries every finished job, so encoding is on the path of
//! every job, and only a bit-exact form keeps `NaN`/`±∞`/`-0.0` intact.
//! Every type here derives `Debug`; to read a log at 3am, print it:
//! `JournalReader::scan(&bytes).records` with `{:?}`.

use lingua_core::Data;
use lingua_dataset::generators::stream::StreamItem;
use lingua_llm_sim::Usage;
use std::collections::BTreeMap;

/// A serve job that was accepted but has not yet finished. Carries the full
/// inputs so recovery can resubmit it without the original caller.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    pub pipeline: String,
    /// Input fingerprint — the dedup key that makes recovery exactly-once.
    pub fingerprint: u64,
    pub inputs: BTreeMap<String, Data>,
}

impl PendingJob {
    /// `(pipeline, fingerprint)`: what the journal keys jobs by.
    pub(crate) fn key(&self) -> (String, u64) {
        (self.pipeline.clone(), self.fingerprint)
    }
}

/// A serve job that ran to completion, with everything needed to restore
/// its result into the serve-side result cache.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedJob {
    pub pipeline: String,
    pub fingerprint: u64,
    /// The pipeline's final environment (its output).
    pub env: BTreeMap<String, Data>,
    /// LLM usage billed to this job.
    pub llm: Usage,
    /// Wall-clock the original execution took, in microseconds.
    pub wall_us: u64,
}

impl FinishedJob {
    /// `(pipeline, fingerprint)`: what the journal keys jobs by.
    pub(crate) fn key(&self) -> (String, u64) {
        (self.pipeline.clone(), self.fingerprint)
    }
}

/// A closed-but-not-yet-reported stream window: the pending-report metadata
/// plus the serve-job inputs needed to resubmit the window job.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCloseRecord {
    pub window: u64,
    pub start: u64,
    pub end: u64,
    pub records: usize,
    pub candidate_pairs: usize,
    pub comparisons: u64,
    pub true_duplicates: usize,
    /// Inputs of the window-report serve job.
    pub inputs: BTreeMap<String, Data>,
}

/// A fully reported window — the durable mirror of a stream `WindowReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReportRecord {
    pub window: u64,
    pub start: u64,
    pub end: u64,
    pub records: usize,
    pub candidate_pairs: usize,
    pub comparisons: u64,
    pub judged: u64,
    pub matched: u64,
    pub true_duplicates: usize,
    pub llm: Usage,
}

/// One durable event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job entered the serve queue.
    JobAccepted(PendingJob),
    /// A worker picked the job up. Purely diagnostic — recovery treats
    /// started-but-unfinished exactly like queued (the work is lost either
    /// way) — but it dates the crash within the job lifecycle.
    JobStarted { pipeline: String, fingerprint: u64 },
    /// The job completed and its output is durable.
    JobFinished(FinishedJob),
    /// The job failed terminally (panic, deadline, pipeline error). The
    /// partial usage is still billed; recovery does not resurrect it.
    JobFailed { pipeline: String, fingerprint: u64, llm: Usage, reason: String },
    /// A stream item was ingested into the listed open windows. The engine
    /// records its own window assignment so the fold never re-derives
    /// window math.
    StreamIngest { item: StreamItem, windows: Vec<u64> },
    /// The watermark advanced. `max_event_time` rides along so a restored
    /// engine resumes with the exact disorder bookkeeping it crashed with.
    WatermarkAdvance { watermark: u64, max_event_time: u64 },
    /// A window closed and its report job is about to be submitted.
    WindowClose(WindowCloseRecord),
    /// The window's report was produced and handed to the application:
    /// this window must never be reported again.
    ReportSubmitted(WindowReportRecord),
    /// A compacted snapshot of everything above; resets the fold.
    Checkpoint(Checkpoint),
}

/// The compacted state the journal folds every record into — the journal's
/// live fold *is* one of these. A checkpoint frame carries it verbatim
/// (encoded from the fold by reference); recovery seeds its fold from the
/// last checkpoint and replays only the records after it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Finished jobs keyed by `(pipeline, fingerprint)` — the durable dedup
    /// index and result cache.
    pub finished: BTreeMap<(String, u64), FinishedJob>,
    /// Accepted-but-unfinished jobs, to resubmit on recovery.
    pub pending: BTreeMap<(String, u64), PendingJob>,
    /// Cumulative billed usage across finished and failed jobs — the
    /// ledger's durable shadow.
    pub cumulative: Usage,
    /// Stream engine state, if a stream engine writes to this journal.
    pub stream: StreamCheckpoint,
}

/// Stream-engine portion of a checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamCheckpoint {
    pub watermark: u64,
    pub max_event_time: u64,
    /// Items of still-open windows, keyed by window id, in ingest order so
    /// a restored engine rebuilds identical window state by re-insertion.
    pub open_windows: BTreeMap<u64, Vec<StreamItem>>,
    /// Windows that closed but whose report was never submitted.
    pub closed_unreported: BTreeMap<u64, WindowCloseRecord>,
    /// Reports already handed to the application, keyed by window id.
    pub reported: BTreeMap<u64, WindowReportRecord>,
}

/// What recovery found, surfaced through `MetricsSnapshot` so operators can
/// see that a restart replayed state and how much of the tail was damaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// Journal records (including the seeding checkpoint) replayed.
    pub replayed: u64,
    /// Journaled-but-unfinished jobs resubmitted into the queue.
    pub resumed_jobs: u64,
    /// Resubmissions answered by the restored result cache instead of
    /// re-executing — the exactly-once guard doing its job.
    pub skipped_duplicates: u64,
    /// Damaged tail records skipped (0 on a clean log, 1 after a torn or
    /// bit-flipped tail — frames after the first damage are unreachable).
    pub corrupt_records_skipped: u64,
}
