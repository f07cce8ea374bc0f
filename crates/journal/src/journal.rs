//! The [`Journal`]: a write-ahead log with a fold kept by its compactor.
//!
//! An append writes its record's frame under the journal's one lock and
//! leaves the record, with its frame, on a list of what the fold has not
//! seen yet. Folding and checkpoint encoding happen in compaction, off that
//! lock: the compactor moves the listed records into its own
//! [`Checkpoint`] (the state at its last compaction) and encodes the frame
//! from it by reference. Under the lock it then only swaps the log for that
//! frame plus the frames appended meanwhile, which are still on the list.
//! The same fold is the recovery state when a journal is reopened, and it
//! keeps compaction O(1) in journal length (no re-scan of the log).
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
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Jobs that finished before the crash, in `(pipeline, fingerprint)`
    /// order (the fold's key order), not in the order they finished.
    pub finished: Vec<FinishedJob>,
    /// Jobs accepted but never finished, in `(pipeline, fingerprint)`
    /// order, not in the order they were accepted.
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
                // A reported window's verdicts matter while a later window
                // may carry from it, and the report says from which window
                // on that is. Reports arrive in window order, so the windows
                // before the previous report's mark were emptied then. A
                // mark that moved back (a restart that remembers more) empties
                // nothing: the engine asks those pairs again.
                let previous = self.stream.reported.last_key_value();
                let previous = previous.map_or(0, |(_, last)| last.remembered_from);
                if previous < report.remembered_from {
                    let forgotten =
                        self.stream.reported.range_mut(previous..report.remembered_from);
                    for (_, earlier) in forgotten {
                        earlier.owned = BTreeMap::new();
                    }
                }
                self.stream.reported.insert(report.window, report);
            }
            JournalRecord::Checkpoint(checkpoint) => *self = checkpoint,
        }
    }
}

/// What an append touches, under the journal's one lock.
struct Inner {
    /// Records in the log that the compactor's fold has not taken yet, each
    /// with its frame, in log order. Their frames are the log's last bytes.
    unfolded: Vec<(JournalRecord, Vec<u8>)>,
    appends_since_checkpoint: usize,
    /// Bytes of the checkpoint frame the log starts with (0: none yet).
    checkpoint_bytes: usize,
    /// Bytes of the record frames behind it.
    tail_bytes: usize,
    /// The fold no longer fits one frame: `append` stops trying to compact
    /// (each try encodes the whole fold) and the log just grows.
    checkpoint_refused: bool,
    /// An appender found a compaction due and runs it; the appends behind
    /// it do not queue up for another one.
    compacting: bool,
    /// A storage append failed, and may have left part of its frame at the
    /// log's end. Nothing is appended behind it until the log is cut back to
    /// the frames written (or a compaction rewrites it): the next `open`
    /// would cut every frame from the damage on.
    damaged: bool,
}

impl Inner {
    /// The size-ratio rule (see [`Journal`]).
    fn due(&self, checkpoint_interval: usize) -> bool {
        self.appends_since_checkpoint >= checkpoint_interval
            && self.tail_bytes >= self.checkpoint_bytes
            && !self.checkpoint_refused
    }
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
/// Appenders serialise only on the write, the counters and that decision.
/// The append that finds a compaction due runs it after dropping the lock,
/// so its caller pays for it and no other append waits on the fold or the
/// encoding; one compaction runs at a time. A compaction that fails is the
/// compactor's failure, not the append's: the append's record is written,
/// so it returns `Ok`, the failure is counted
/// ([`Journal::compactions_failed`]), and the next append that finds a
/// compaction due tries again.
///
/// Every storage write is threaded through the crash injector. Once it
/// reports dead, every write is silently dropped — the simulated process
/// no longer exists, so nothing it "does" can reach storage.
pub struct Journal {
    storage: Arc<dyn Storage>,
    injector: Arc<CrashInjector>,
    checkpoint_interval: usize,
    inner: Mutex<Inner>,
    /// The state of the log up to the records still on `Inner::unfolded`.
    /// Holding this lock is what makes a compaction the only one running;
    /// it is taken before `inner`, never under it.
    fold: Mutex<Checkpoint>,
    /// Compactions an append triggered that failed (storage, or a fold too
    /// large for one frame).
    compactions_failed: AtomicU64,
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
                unfolded: Vec::new(),
                appends_since_checkpoint: replayed - usize::from(leading_checkpoint),
                checkpoint_bytes,
                tail_bytes: scan.valid_len - checkpoint_bytes,
                checkpoint_refused: false,
                compacting: false,
                damaged: false,
            }),
            fold: Mutex::new(fold),
            compactions_failed: AtomicU64::new(0),
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

    /// Append one record, and compact if the log has doubled. Returns
    /// whether the record was durably written — `false` only when the crash
    /// injector killed the simulated process before or during the write, so
    /// harnesses can tell "journaled" from "lost" exactly. An error means
    /// the record is not in the log.
    ///
    /// The compaction step's own failure (storage, or the one-time
    /// oversize-checkpoint refusal) is not returned: the record is written
    /// by then. It is counted in [`Journal::compactions_failed`], and a
    /// storage failure is retried at the next due point.
    ///
    /// A failed storage append may leave part of its frame in the log. The
    /// next append first cuts the log back to the frames written
    /// ([`Journal::cut_failed_append`]); if that fails too, the append is
    /// refused with its error and nothing is written behind the damage.
    fn append(&self, record: JournalRecord) -> io::Result<bool> {
        // Encoded and checksummed before the lock, folded after it: writers
        // serialise only on the write and the compaction decision.
        let frame = bounded_frame("record", |out| crate::codec::encode_into(&record, out))?;
        let compact = {
            let mut inner = self.inner.lock();
            if self.injector.fire(KillPoint::BeforeJournal) {
                return Ok(false);
            }
            if inner.damaged {
                self.cut_failed_append(&mut inner)?;
            }
            if self.injector.fire(KillPoint::MidWrite) {
                // Torn write: the first half of the frame reaches storage,
                // the process dies before the rest.
                self.storage.append(&frame[..frame.len() / 2])?;
                return Ok(false);
            }
            if let Err(error) = self.storage.append(&frame) {
                inner.damaged = true;
                return Err(error);
            }
            self.injector.fire(KillPoint::AfterJournal);
            inner.appends_since_checkpoint += 1;
            inner.tail_bytes += frame.len();
            inner.unfolded.push((record, frame));
            let due = !inner.compacting && inner.due(self.checkpoint_interval);
            inner.compacting |= due;
            due
        };
        if compact && self.compact(false).is_err() {
            self.compactions_failed.fetch_add(1, Ordering::Relaxed);
        }
        Ok(true)
    }

    /// Remove what a failed append may have left at the log's end: read the
    /// log back and, if it is longer than the frames this journal wrote,
    /// replace it with them. A rare path, so it runs under the journal's
    /// lock; an error leaves the journal damaged, and the next append tries
    /// again.
    fn cut_failed_append(&self, inner: &mut Inner) -> io::Result<()> {
        let log = self.storage.read()?;
        let written = inner.checkpoint_bytes + inner.tail_bytes;
        if log.len() > written {
            self.storage.replace(&log[..written])?;
        }
        inner.damaged = false;
        Ok(())
    }

    /// Checkpoint and compact: atomically replace the log with one
    /// checkpoint frame followed by the records appended since the
    /// checkpoint's state was taken, so recovery replays only those.
    ///
    /// Off the journal lock, the records still unfolded move into the fold
    /// and the frame is encoded from it by reference. Under the lock, the
    /// log is replaced and the counters restart from what it now holds.
    /// Unless `forced`, it first checks that a compaction is still due: a
    /// forced one may have run while this one waited for the fold.
    ///
    /// A fold too large for one frame is refused with the log left as it
    /// is: replacing it would leave a frame the scanner calls damage at
    /// offset 0, and the next `open` would truncate the log to nothing.
    fn compact(&self, forced: bool) -> io::Result<()> {
        let mut fold = self.fold.lock();
        let unfolded = {
            let mut inner = self.inner.lock();
            if self.injector.dead() || !(forced || inner.due(self.checkpoint_interval)) {
                inner.compacting = false;
                return Ok(());
            }
            std::mem::take(&mut inner.unfolded)
        };
        for (record, _frame) in unfolded {
            fold.apply(record);
        }
        let framed =
            bounded_frame("checkpoint", |out| crate::codec::encode_checkpoint_into(&fold, out));

        let mut inner = self.inner.lock();
        inner.compacting = false;
        inner.checkpoint_refused = framed.is_err();
        let mut log = framed?;
        if self.injector.dead() {
            return Ok(());
        }
        if self.injector.fire(KillPoint::MidCheckpoint) {
            // The checkpoint frame tears mid-append, before compaction
            // replaced anything: the old log survives with a damaged tail.
            return self.storage.append(&log[..log.len() / 2]);
        }
        let checkpoint_bytes = log.len();
        for (_, frame) in &inner.unfolded {
            log.extend_from_slice(frame);
        }
        self.storage.replace(&log)?;
        inner.damaged = false;
        self.injector.fire(KillPoint::AfterCheckpoint);
        inner.appends_since_checkpoint = inner.unfolded.len();
        inner.checkpoint_bytes = checkpoint_bytes;
        inner.tail_bytes = log.len() - checkpoint_bytes;
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

    /// Journal a [`JournalRecord::JobStarted`], which recovery folds to
    /// nothing; serve does not call this.
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
    /// (shutdown path). A compaction already running finishes first. Its
    /// error is the caller's, and is not counted.
    pub fn checkpoint_now(&self) -> io::Result<()> {
        self.compact(true)
    }

    /// Compactions that appends triggered and that failed, since this
    /// journal was opened. The records stay in the log, which grows until a
    /// compaction succeeds (or, after an oversize refusal, for good).
    pub fn compactions_failed(&self) -> u64 {
        self.compactions_failed.load(Ordering::Relaxed)
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
        for fp in 0..jobs {
            assert!(journal.record_job_finished(bulky(fp, 1024)).unwrap(), "every record lands");
        }
        // Asking outright is refused too.
        let before = storage.snapshot();
        let forced = journal.checkpoint_now();
        let after_forced = storage.snapshot();
        let refusals = journal.compactions_failed();
        drop(journal);

        // Every frame in the log is one a reader accepts, so reopening cuts
        // nothing — an oversize checkpoint frame would read as damage at
        // offset 0 and be "repaired" to an empty log. The job whose append
        // met the refusal is there too.
        let (_journal, recovered) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        assert_eq!(recovered.finished.len(), jobs as usize);
        assert_eq!(recovered.corrupt_records_skipped, 0);
        assert_eq!(storage.snapshot(), before);

        assert!(before.len() > MAX_FRAME_PAYLOAD);
        assert_eq!(refusals, 1, "the refusal is counted once, then appends carry on");
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

    /// Storage whose next append writes the first half of its bytes and
    /// then fails, as a `write_all` that runs out of disk part-way does;
    /// while `full`, a replace fails too.
    struct TearNextAppend {
        inner: Arc<SimStorage>,
        tear: std::sync::atomic::AtomicBool,
        full: std::sync::atomic::AtomicBool,
    }

    impl TearNextAppend {
        fn over(inner: Arc<SimStorage>) -> Arc<TearNextAppend> {
            Arc::new(TearNextAppend { inner, tear: Default::default(), full: Default::default() })
        }
    }

    impl Storage for TearNextAppend {
        fn append(&self, bytes: &[u8]) -> io::Result<()> {
            if self.tear.swap(false, std::sync::atomic::Ordering::Relaxed) {
                self.inner.append(&bytes[..bytes.len() / 2])?;
                return Err(io::Error::other("no space left on device"));
            }
            self.inner.append(bytes)
        }
        fn read(&self) -> io::Result<Vec<u8>> {
            self.inner.read()
        }
        fn replace(&self, bytes: &[u8]) -> io::Result<()> {
            if self.full.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(io::Error::other("no space left on device"));
            }
            self.inner.replace(bytes)
        }
        fn flush(&self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn appends_after_a_failed_append_survive_a_reopen() {
        let sim = SimStorage::new();
        let storage = TearNextAppend::over(sim.clone());
        let (journal, _) = Journal::open(JournalTuning::over(storage.clone())).unwrap();
        journal.record_job_accepted("p", 1, &inputs(1)).unwrap();
        let intact = sim.snapshot();
        storage.tear.store(true, std::sync::atomic::Ordering::Relaxed);
        journal.record_job_accepted("p", 2, &inputs(2)).expect_err("the append failed");
        assert!(sim.len() > intact.len(), "part of the failed frame is in the log");
        journal.record_job_accepted("p", 3, &inputs(3)).unwrap();
        assert!(sim.snapshot().starts_with(&intact), "the intact frames are kept as they were");
        journal.record_job_finished(finished("p", 1, 10)).unwrap();
        drop(journal);

        let (_journal, recovered) = Journal::open(JournalTuning::sim(sim)).unwrap();
        assert_eq!(recovered.corrupt_records_skipped, 0, "no damage is left in the log");
        assert_eq!(recovered.replayed, 3);
        let pending: Vec<u64> = recovered.pending.iter().map(|job| job.fingerprint).collect();
        assert_eq!(pending, [3], "the failed record is gone, the later ones are not");
        assert_eq!(recovered.finished.len(), 1);
    }

    /// While the damage cannot be cut away, appends are refused and nothing
    /// lands behind it; once it can, they go through.
    #[test]
    fn an_append_behind_damage_that_cannot_be_cut_is_refused() {
        let sim = SimStorage::new();
        let storage = TearNextAppend::over(sim.clone());
        let (journal, _) = Journal::open(JournalTuning::over(storage.clone())).unwrap();
        journal.record_job_accepted("p", 1, &inputs(1)).unwrap();
        storage.tear.store(true, std::sync::atomic::Ordering::Relaxed);
        storage.full.store(true, std::sync::atomic::Ordering::Relaxed);
        journal.record_job_accepted("p", 2, &inputs(2)).expect_err("torn");
        let torn = sim.snapshot();
        for fp in 3..5 {
            journal.record_job_accepted("p", fp, &inputs(fp as i64)).expect_err("refused");
            assert_eq!(sim.snapshot(), torn, "nothing lands behind the damage");
        }
        storage.full.store(false, std::sync::atomic::Ordering::Relaxed);
        journal.record_job_accepted("p", 5, &inputs(5)).unwrap();
        drop(journal);
        let (_journal, recovered) = Journal::open(JournalTuning::sim(sim)).unwrap();
        assert_eq!(recovered.corrupt_records_skipped, 0);
        let pending: Vec<u64> = recovered.pending.iter().map(|job| job.fingerprint).collect();
        assert_eq!(pending, [1, 5]);
    }

    /// A compaction that fails is not its append's error: the record is in
    /// the log, the failure is counted, and the next append that finds a
    /// compaction due tries again, until one succeeds.
    #[test]
    fn a_failed_compaction_is_counted_and_retried_not_returned() {
        use std::sync::atomic::Ordering::Relaxed;
        let sim = SimStorage::new();
        let storage = TearNextAppend::over(sim.clone());
        storage.full.store(true, Relaxed);
        let tuning = JournalTuning::over(storage.clone()).with_checkpoint_interval(1);
        let (journal, _) = Journal::open(tuning).unwrap();
        for fp in 0..3 {
            assert!(journal.record_job_accepted("p", fp, &inputs(fp as i64)).unwrap());
            assert_eq!(journal.compactions_failed(), fp + 1, "each due append tries again");
        }
        storage.full.store(false, Relaxed);
        journal.record_job_finished(finished("p", 0, 10)).unwrap();
        assert_eq!(journal.compactions_failed(), 3, "the retry succeeded");
        let records = JournalReader::scan(&sim.snapshot()).records;
        assert!(matches!(records[..], [JournalRecord::Checkpoint(_)]), "{records:?}");
        drop(journal);
        let (_journal, recovered) = Journal::open(JournalTuning::sim(sim)).unwrap();
        let pending: Vec<u64> = recovered.pending.iter().map(|job| job.fingerprint).collect();
        assert_eq!(pending, [1, 2]);
        assert_eq!(recovered.finished.len(), 1);
    }

    /// A report with `owned` verdicts for window `k` of 32-tick windows
    /// sliding by 16, from an engine that remembers `depth` windows back.
    fn report(k: u64, depth: u64) -> WindowReportRecord {
        WindowReportRecord {
            window: k,
            start: k * 16,
            end: k * 16 + 32,
            records: 2,
            candidate_pairs: 1,
            comparisons: 1,
            judged: 1,
            matched: 1,
            true_duplicates: 1,
            llm: Usage::default(),
            owned: BTreeMap::from([(k, true)]),
            remembered_from: (k + 1).saturating_sub(depth),
        }
    }

    /// The fold keeps a reported window's verdicts while the latest report
    /// says its engine remembers the window, and only then, across a reopen
    /// too.
    #[test]
    fn the_fold_keeps_the_verdicts_of_remembered_reports_only() {
        let kept = |checkpoint: &StreamCheckpoint| -> Vec<u64> {
            let reported = checkpoint.reported.values();
            reported.filter(|report| !report.owned.is_empty()).map(|report| report.window).collect()
        };
        let storage = SimStorage::new();
        let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        // Window 3 is never reported: 4 forgets windows 0 and 1 at once.
        for k in [0, 1, 2, 4] {
            journal.record_report_submitted(report(k, 3)).unwrap();
        }
        drop(journal);
        let (journal, recovered) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        assert_eq!(kept(&recovered.stream), [2, 4], "window 5 may carry from 2 on");
        // Far more windows than it overlaps: a restart that remembers 6
        // windows back forgets nothing more, one that remembers 2 forgets
        // everything before 7.
        journal.record_report_submitted(report(5, 3)).unwrap();
        journal.record_report_submitted(report(6, 6)).unwrap();
        drop(journal);
        let (journal, recovered) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        assert_eq!(kept(&recovered.stream), [4, 5, 6]);
        journal.record_report_submitted(report(8, 2)).unwrap();
        journal.checkpoint_now().unwrap();
        drop(journal);
        let (_journal, again) = Journal::open(JournalTuning::sim(storage)).unwrap();
        assert_eq!(again.replayed, 1, "one checkpoint frame");
        assert_eq!(again.stream.reported.len(), 7);
        assert_eq!(kept(&again.stream), [8]);
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
