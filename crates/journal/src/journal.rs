//! The [`Journal`]: a write-ahead log with an always-current fold.
//!
//! Every append both frames the record to storage *and* folds it into an
//! in-memory [`Checkpoint`]. That one fold serves three masters: it is the
//! checkpoint payload when compaction fires (encoded by reference, never
//! copied), it is the recovery state when a journal is reopened, and it
//! keeps compaction O(1) in journal length (no re-scan to build a
//! checkpoint).
//!
//! Compaction rewrites the whole fold, so it fires by *size ratio*, not by
//! count alone: only once the bytes appended behind the last checkpoint
//! match that checkpoint's own bytes (the log has doubled). Bytes rewritten
//! over a run are then a constant multiple of bytes appended, however long
//! the run, and a reopened log is at most about twice the live state.
//!
//! Write-ahead ordering is the caller's contract: record the event *before*
//! making its effect observable (finishing a job, handing out a report).
//! The journal's own contract is that whatever prefix of records reached
//! storage is recoverable, regardless of where the process died.

use crate::frame::{build_frame, frame_len, FRAME_HEADER, MAX_FRAME_PAYLOAD};
use crate::kill::{CrashInjector, KillPoint};
use crate::reader::JournalReader;
use crate::record::{
    Checkpoint, FinishedJob, JournalRecord, PendingJob, StreamCheckpoint, WindowCloseRecord,
    WindowReportRecord,
};
use crate::storage::{FileStorage, SimStorage, Storage};
use lingua_llm_sim::Usage;
use lingua_ml::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// How a journal is attached to a server or stream engine.
#[derive(Clone)]
pub struct JournalTuning {
    pub storage: Arc<dyn Storage>,
    /// Fewest appends between compacted checkpoints: the floor under the
    /// size-ratio rule (see [`Journal`]), which is what spaces checkpoints
    /// once the checkpoint outweighs this many records.
    pub checkpoint_interval: usize,
    /// Crash injector; an inert one in production.
    pub injector: Arc<CrashInjector>,
}

impl JournalTuning {
    pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 256;

    /// Journal to a file at `path`.
    pub fn file(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::over(Arc::new(FileStorage::open(path)?)))
    }

    /// Journal to in-memory sim storage (tests, benches, crash harness).
    pub fn sim(storage: Arc<SimStorage>) -> Self {
        Self::over(storage)
    }

    pub fn over(storage: Arc<dyn Storage>) -> Self {
        Self {
            storage,
            checkpoint_interval: Self::DEFAULT_CHECKPOINT_INTERVAL,
            injector: CrashInjector::inert(),
        }
    }

    pub fn with_checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    pub fn with_injector(mut self, injector: Arc<CrashInjector>) -> Self {
        self.injector = injector;
        self
    }
}

impl fmt::Debug for JournalTuning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalTuning")
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("armed", &self.injector.armed())
            .finish_non_exhaustive()
    }
}

/// What [`Journal::open`] recovered from storage, before the server decides
/// what to resubmit.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Records replayed from the log (checkpoint included).
    pub replayed: u64,
    /// Damaged tail records skipped (see `ScanResult`).
    pub corrupt_records_skipped: u64,
    /// Jobs that finished before the crash, in journal order.
    pub finished: Vec<FinishedJob>,
    /// Jobs accepted but never finished, in journal order.
    pub pending: Vec<PendingJob>,
    /// Total usage billed by the crashed process, as journaled.
    pub cumulative: Usage,
    /// Stream engine state at the crash.
    pub stream: StreamCheckpoint,
}

impl Checkpoint {
    /// Fold one record in. Takes it by value: the record's payload moves
    /// into the fold, so an append never copies it a second time.
    fn apply(&mut self, record: JournalRecord) {
        match record {
            JournalRecord::JobAccepted(job) => {
                let key = job.key();
                // A finished job re-accepted (client retry) stays finished.
                if !self.finished.contains_key(&key) {
                    self.pending.insert(key, job);
                }
            }
            // Started is diagnostic only: a started-but-unfinished job is
            // recovered exactly like a queued one.
            JournalRecord::JobStarted { .. } => {}
            JournalRecord::JobFinished(job) => {
                let key = job.key();
                self.pending.remove(&key);
                self.cumulative.merge(&job.llm);
                self.finished.insert(key, job);
            }
            JournalRecord::JobFailed { pipeline, fingerprint, llm, .. } => {
                self.pending.remove(&(pipeline, fingerprint));
                self.cumulative.merge(&llm);
            }
            JournalRecord::StreamIngest { item, windows } => {
                self.stream.max_event_time = self.stream.max_event_time.max(item.event_time);
                // One copy per window the item sits in; the last takes the
                // record's own.
                if let Some((last, rest)) = windows.split_last() {
                    for window in rest {
                        self.stream.open_windows.entry(*window).or_default().push(item.clone());
                    }
                    self.stream.open_windows.entry(*last).or_default().push(item);
                }
            }
            JournalRecord::WatermarkAdvance { watermark, max_event_time } => {
                self.stream.watermark = watermark.max(self.stream.watermark);
                self.stream.max_event_time = max_event_time.max(self.stream.max_event_time);
            }
            JournalRecord::WindowClose(close) => {
                self.stream.open_windows.remove(&close.window);
                if !self.stream.reported.contains_key(&close.window) {
                    self.stream.closed_unreported.insert(close.window, close);
                }
            }
            JournalRecord::ReportSubmitted(report) => {
                self.stream.closed_unreported.remove(&report.window);
                self.stream.reported.insert(report.window, report);
            }
            JournalRecord::Checkpoint(checkpoint) => *self = checkpoint,
        }
    }
}

struct Inner {
    /// The live mirror of what a checkpoint would say right now.
    fold: Checkpoint,
    appends_since_checkpoint: usize,
    /// Bytes of the checkpoint frame the log starts with (0: none yet).
    checkpoint_bytes: usize,
    /// Bytes of the record frames behind it.
    tail_bytes: usize,
    /// The fold no longer fits one frame: `append` stops trying to compact
    /// (each try encodes the whole fold) and the log just grows.
    checkpoint_refused: bool,
}

/// Frame one payload, refusing what no reader would accept: a frame past
/// [`MAX_FRAME_PAYLOAD`] scans as damage, and everything from it on would be
/// truncated away by the next [`Journal::open`].
fn bounded_frame(what: &str, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
    let frame = build_frame(fill);
    let payload = frame.len() - FRAME_HEADER;
    if payload > MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{what} payload of {payload} bytes exceeds the frame bound of {MAX_FRAME_PAYLOAD}"
            ),
        ));
    }
    Ok(frame)
}

/// Append-only journal with checkpoint compaction. Clone the [`Arc`] it
/// lives in; the journal itself is internally synchronized.
///
/// An append compacts when `checkpoint_interval` appends have passed *and*
/// the record bytes behind the last checkpoint are at least that
/// checkpoint's bytes. Each compaction is therefore paid for by as many
/// appended bytes as it found, so rewriting stays within a constant factor
/// of appending, and the log stays within twice its leading checkpoint plus
/// one interval of records — which bounds what [`Journal::open`] replays.
///
/// Every storage write is threaded through the crash injector. Once it
/// reports dead, every write is silently dropped — the simulated process
/// no longer exists, so nothing it "does" can reach storage.
pub struct Journal {
    storage: Arc<dyn Storage>,
    injector: Arc<CrashInjector>,
    checkpoint_interval: usize,
    inner: Mutex<Inner>,
}

impl Journal {
    /// Open (or create) a journal over `tuning.storage`: scan the log,
    /// truncate any damaged suffix so future appends stay readable, and
    /// seed the fold from what survived.
    ///
    /// A log holding an intact frame this build cannot decode (written
    /// before the binary codec, or by a later one) is not damage: `open`
    /// fails with [`io::ErrorKind::InvalidData`] and storage is left
    /// byte-for-byte as it was found.
    pub fn open(tuning: JournalTuning) -> io::Result<(Self, Recovered)> {
        let bytes = tuning.storage.read()?;
        let scan = JournalReader::scan(&bytes);
        if let Some(error) = &scan.unreadable {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal frame at byte {} is intact but unreadable ({error}); \
                     refusing to truncate the log",
                    scan.valid_len
                ),
            ));
        }
        if scan.valid_len < bytes.len() {
            // Repair the tail: appending after torn bytes would make every
            // future record unreachable.
            tuning.storage.replace(&bytes[..scan.valid_len])?;
        }
        let replayed = scan.records.len();
        // Resume the size-ratio rule where the last process left it: a big
        // checkpoint with a short tail is not due for a rewrite.
        let leading_checkpoint = matches!(scan.records.first(), Some(JournalRecord::Checkpoint(_)));
        let checkpoint_bytes = if leading_checkpoint { frame_len(&bytes) } else { 0 };
        let mut fold = Checkpoint::default();
        for record in scan.records {
            fold.apply(record);
        }
        let recovered = Recovered {
            replayed: replayed as u64,
            corrupt_records_skipped: scan.corrupt_records_skipped,
            finished: fold.finished.values().cloned().collect(),
            pending: fold.pending.values().cloned().collect(),
            cumulative: fold.cumulative,
            stream: fold.stream.clone(),
        };
        let journal = Journal {
            storage: tuning.storage,
            injector: tuning.injector,
            checkpoint_interval: tuning.checkpoint_interval.max(1),
            inner: Mutex::new(Inner {
                fold,
                appends_since_checkpoint: replayed - usize::from(leading_checkpoint),
                checkpoint_bytes,
                tail_bytes: scan.valid_len - checkpoint_bytes,
                checkpoint_refused: false,
            }),
        };
        Ok((journal, recovered))
    }

    pub fn injector(&self) -> &Arc<CrashInjector> {
        &self.injector
    }

    /// Whether the simulated process has crashed (always false in
    /// production, where the injector is inert).
    pub fn dead(&self) -> bool {
        self.injector.dead()
    }

    /// Append one record, fold it, and compact if the log has doubled.
    /// Returns whether the record was durably written — `false` only when
    /// the crash injector killed the simulated process before or during the
    /// write, so harnesses can tell "journaled" from "lost" exactly.
    ///
    /// An error from the compaction step (storage, or the one-time
    /// oversize-checkpoint refusal) arrives after the record itself was
    /// written.
    fn append(&self, record: JournalRecord) -> io::Result<bool> {
        // Encoded and checksummed before the lock: writers serialise only
        // on the write, the fold and the compaction decision.
        let frame = bounded_frame("record", |out| crate::codec::encode_into(&record, out))?;
        let mut inner = self.inner.lock();
        if self.injector.fire(KillPoint::BeforeJournal) {
            return Ok(false);
        }
        if self.injector.fire(KillPoint::MidWrite) {
            // Torn write: the first half of the frame reaches storage, the
            // process dies before the rest.
            self.storage.append(&frame[..frame.len() / 2])?;
            return Ok(false);
        }
        self.storage.append(&frame)?;
        self.injector.fire(KillPoint::AfterJournal);
        inner.fold.apply(record);
        inner.appends_since_checkpoint += 1;
        inner.tail_bytes += frame.len();
        if inner.appends_since_checkpoint >= self.checkpoint_interval
            && inner.tail_bytes >= inner.checkpoint_bytes
            && !inner.checkpoint_refused
        {
            self.compact(&mut inner)?;
        }
        Ok(true)
    }

    /// Checkpoint and compact: atomically replace the whole log with one
    /// checkpoint frame, encoded from the live fold by reference, so
    /// recovery replays only records appended after it.
    ///
    /// A fold too large for one frame is refused with the log left as it
    /// is: replacing it would leave a frame the scanner calls damage at
    /// offset 0, and the next `open` would truncate the log to nothing.
    fn compact(&self, inner: &mut Inner) -> io::Result<()> {
        if self.injector.dead() {
            return Ok(());
        }
        let framed = bounded_frame("checkpoint", |out| {
            crate::codec::encode_checkpoint_into(&inner.fold, out)
        });
        inner.checkpoint_refused = framed.is_err();
        let frame = framed?;
        if self.injector.fire(KillPoint::MidCheckpoint) {
            // The checkpoint frame tears mid-append, before compaction
            // replaced anything: the old log survives with a damaged tail.
            return self.storage.append(&frame[..frame.len() / 2]);
        }
        self.storage.replace(&frame)?;
        self.injector.fire(KillPoint::AfterCheckpoint);
        inner.appends_since_checkpoint = 0;
        inner.checkpoint_bytes = frame.len();
        inner.tail_bytes = 0;
        Ok(())
    }

    pub fn record_job_accepted(
        &self,
        pipeline: &str,
        fingerprint: u64,
        inputs: &BTreeMap<String, lingua_core::Data>,
    ) -> io::Result<bool> {
        self.append(JournalRecord::JobAccepted(PendingJob {
            pipeline: pipeline.to_string(),
            fingerprint,
            inputs: inputs.clone(),
        }))
    }

    pub fn record_job_started(&self, pipeline: &str, fingerprint: u64) -> io::Result<bool> {
        self.append(JournalRecord::JobStarted { pipeline: pipeline.to_string(), fingerprint })
    }

    pub fn record_job_finished(&self, job: FinishedJob) -> io::Result<bool> {
        self.append(JournalRecord::JobFinished(job))
    }

    pub fn record_job_failed(
        &self,
        pipeline: &str,
        fingerprint: u64,
        llm: Usage,
        reason: &str,
    ) -> io::Result<bool> {
        self.append(JournalRecord::JobFailed {
            pipeline: pipeline.to_string(),
            fingerprint,
            llm,
            reason: reason.to_string(),
        })
    }

    pub fn record_stream_ingest(
        &self,
        item: &lingua_dataset::generators::stream::StreamItem,
        windows: &[u64],
    ) -> io::Result<bool> {
        self.append(JournalRecord::StreamIngest { item: item.clone(), windows: windows.to_vec() })
    }

    pub fn record_watermark(&self, watermark: u64, max_event_time: u64) -> io::Result<bool> {
        self.append(JournalRecord::WatermarkAdvance { watermark, max_event_time })
    }

    pub fn record_window_close(&self, close: WindowCloseRecord) -> io::Result<bool> {
        self.append(JournalRecord::WindowClose(close))
    }

    pub fn record_report_submitted(&self, report: WindowReportRecord) -> io::Result<bool> {
        self.append(JournalRecord::ReportSubmitted(report))
    }

    /// Force a checkpoint + compaction now, whatever the log's size
    /// (shutdown path).
    pub fn checkpoint_now(&self) -> io::Result<()> {
        self.compact(&mut self.inner.lock())
    }

    pub fn flush(&self) -> io::Result<()> {
        if self.injector.dead() {
            return Ok(());
        }
        self.storage.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kill::{CrashInjector, KillPoint};
    use lingua_core::Data;

    fn inputs(n: i64) -> BTreeMap<String, Data> {
        BTreeMap::from([("n".to_string(), Data::Int(n))])
    }

    fn finished(pipeline: &str, fp: u64, tokens: usize) -> FinishedJob {
        let mut llm = Usage::default();
        llm.record(tokens, tokens / 4);
        FinishedJob {
            pipeline: pipeline.into(),
            fingerprint: fp,
            env: BTreeMap::from([("out".to_string(), Data::Int(fp as i64))]),
            llm,
            wall_us: 10,
        }
    }

    #[test]
    fn roundtrip_pending_and_finished() {
        let storage = SimStorage::new();
        let (journal, fresh) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        assert_eq!(fresh.replayed, 0);

        journal.record_job_accepted("clean", 1, &inputs(1)).unwrap();
        journal.record_job_accepted("clean", 2, &inputs(2)).unwrap();
        journal.record_job_started("clean", 1).unwrap();
        journal.record_job_finished(finished("clean", 1, 100)).unwrap();
        drop(journal);

        let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).unwrap();
        assert_eq!(recovered.replayed, 4);
        assert_eq!(recovered.corrupt_records_skipped, 0);
        assert_eq!(recovered.finished.len(), 1);
        assert_eq!(recovered.finished[0].fingerprint, 1);
        assert_eq!(recovered.pending.len(), 1);
        assert_eq!(recovered.pending[0].fingerprint, 2);
        assert_eq!(recovered.cumulative.calls, 1);
        assert_eq!(recovered.cumulative.tokens_in, 100);
    }

    #[test]
    fn checkpoint_compacts_the_log_and_preserves_state() {
        const INTERVAL: usize = 4;
        const JOBS: u64 = 120;
        let storage = SimStorage::new();
        let tuning = JournalTuning::sim(storage.clone()).with_checkpoint_interval(INTERVAL);
        let (journal, _) = Journal::open(tuning).unwrap();
        let mut largest_record = 0;
        let mut compactions = 0;
        for fp in 0..JOBS {
            let before = storage.len();
            journal.record_job_accepted("p", fp, &inputs(fp as i64)).unwrap();
            journal.record_job_finished(finished("p", fp, 10)).unwrap();
            let bytes = storage.snapshot();
            match bytes.len().checked_sub(before) {
                Some(grown) => largest_record = largest_record.max(grown),
                None => compactions += 1,
            }
            // The size-ratio invariant: the tail behind the leading
            // checkpoint never outgrows it by more than the record that
            // tipped it over, or the interval floor.
            let first = JournalReader::scan(&bytes).records.into_iter().next();
            let leading = if matches!(first, Some(JournalRecord::Checkpoint(_))) {
                frame_len(&bytes)
            } else {
                0
            };
            assert!(
                bytes.len() <= 2 * leading + INTERVAL * largest_record,
                "after job {fp}: log {} bytes, leading checkpoint {leading}",
                bytes.len()
            );
        }
        drop(journal);
        // Doubling, not one per interval (which would be 60).
        assert!((3..=12).contains(&compactions), "{compactions} compactions");

        let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).unwrap();
        assert_eq!(recovered.finished.len(), JOBS as usize);
        assert_eq!(recovered.pending.len(), 0);
        assert_eq!(recovered.cumulative.calls, JOBS);
    }

    /// A finished job whose one output is `bytes` long.
    fn bulky(fp: u64, bytes: usize) -> FinishedJob {
        let mut job = finished("p", fp, 10);
        job.env.insert("out".to_string(), Data::Str("x".repeat(bytes)));
        job
    }

    #[test]
    fn oversize_checkpoint_is_refused_and_the_log_survives() {
        // Enough 1 KiB jobs that the fold outgrows one frame twice over.
        let jobs = 2 * MAX_FRAME_PAYLOAD as u64 / 1024;
        let storage = SimStorage::new();
        let tuning = JournalTuning::sim(storage.clone()).with_checkpoint_interval(4);
        let (journal, _) = Journal::open(tuning).unwrap();
        let mut refusals = 0;
        for fp in 0..jobs {
            match journal.record_job_finished(bulky(fp, 1024)) {
                Ok(written) => assert!(written),
                Err(err) => {
                    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
                    refusals += 1;
                }
            }
        }
        // Asking outright is refused too.
        let before = storage.snapshot();
        let forced = journal.checkpoint_now();
        let after_forced = storage.snapshot();
        drop(journal);

        // Every frame in the log is one a reader accepts, so reopening cuts
        // nothing — an oversize checkpoint frame would read as damage at
        // offset 0 and be "repaired" to an empty log. The job whose append
        // carried the refusal is there too.
        let (_journal, recovered) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        assert_eq!(recovered.finished.len(), jobs as usize);
        assert_eq!(recovered.corrupt_records_skipped, 0);
        assert_eq!(storage.snapshot(), before);

        assert!(before.len() > MAX_FRAME_PAYLOAD);
        assert_eq!(refusals, 1, "the refusal is reported once, then appends carry on");
        assert_eq!(forced.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(after_forced, before, "a refused checkpoint touches nothing");
    }

    #[test]
    fn oversize_record_is_refused_before_anything_is_written() {
        let storage = SimStorage::new();
        let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        journal.record_job_finished(bulky(1, 1024)).unwrap();
        let before = storage.snapshot();
        let err = journal.record_job_finished(bulky(2, MAX_FRAME_PAYLOAD)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(storage.snapshot(), before);
        // Refused outright: no kill point saw it.
        assert_eq!(journal.injector().counts()[&KillPoint::BeforeJournal], 1);
        journal.record_job_finished(bulky(3, 1024)).unwrap();
        drop(journal);
        let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).unwrap();
        assert_eq!(recovered.finished.len(), 2);
    }

    #[test]
    fn dead_journal_writes_nothing() {
        let storage = SimStorage::new();
        let injector = CrashInjector::armed_at(KillPoint::BeforeJournal, 2);
        let tuning = JournalTuning::sim(storage.clone()).with_injector(injector.clone());
        let (journal, _) = Journal::open(tuning).unwrap();
        journal.record_job_accepted("p", 1, &inputs(1)).unwrap();
        let len_before = storage.len();
        journal.record_job_accepted("p", 2, &inputs(2)).unwrap(); // dies here
        journal.record_job_accepted("p", 3, &inputs(3)).unwrap(); // dropped
        journal.record_job_finished(finished("p", 1, 5)).unwrap(); // dropped
        assert!(journal.dead());
        assert_eq!(storage.len(), len_before);

        let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).unwrap();
        assert_eq!(recovered.pending.len(), 1);
        assert_eq!(recovered.finished.len(), 0);
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let storage = SimStorage::new();
        let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        journal.record_job_accepted("p", 1, &inputs(1)).unwrap();
        journal.record_job_accepted("p", 2, &inputs(2)).unwrap();
        drop(journal);
        storage.truncate(storage.len() - 5);

        let (journal, recovered) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        assert_eq!(recovered.replayed, 1);
        assert_eq!(recovered.corrupt_records_skipped, 1);
        // The damaged suffix is gone and new appends are readable.
        journal.record_job_accepted("p", 3, &inputs(3)).unwrap();
        drop(journal);
        let (_journal, again) = Journal::open(JournalTuning::sim(storage)).unwrap();
        assert_eq!(again.replayed, 2);
        assert_eq!(again.corrupt_records_skipped, 0);
        assert_eq!(again.pending.len(), 2);
    }

    #[test]
    fn client_retry_of_finished_job_stays_finished() {
        let storage = SimStorage::new();
        let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        journal.record_job_accepted("p", 7, &inputs(7)).unwrap();
        journal.record_job_finished(finished("p", 7, 10)).unwrap();
        // Recovery resubmission (or a client retry) re-accepts the same
        // fingerprint; it must not resurrect as pending.
        journal.record_job_accepted("p", 7, &inputs(7)).unwrap();
        drop(journal);
        let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).unwrap();
        assert_eq!(recovered.pending.len(), 0);
        assert_eq!(recovered.finished.len(), 1);
    }
}
