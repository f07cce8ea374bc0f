//! The journal's write cost, stated as a law: however long the run, the
//! bytes compaction rewrites stay within a constant factor of the bytes
//! appended, and the number of rewrites grows with the logarithm of the
//! log, not its length. A checkpoint holds every finished job, so firing
//! one per `checkpoint_interval` appends would rewrite the whole history
//! each time — quadratic bytes over a run.

use lingua_core::Data;
use lingua_durable::{FinishedJob, Journal, JournalTuning, SimStorage, Storage};
use lingua_llm_sim::Usage;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Counts what the journal asks of the storage under it.
struct CountingStorage {
    inner: Arc<SimStorage>,
    appended_bytes: AtomicU64,
    replaced_bytes: AtomicU64,
    replace_calls: AtomicU64,
}

impl CountingStorage {
    fn over(inner: Arc<SimStorage>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            appended_bytes: AtomicU64::new(0),
            replaced_bytes: AtomicU64::new(0),
            replace_calls: AtomicU64::new(0),
        })
    }
}

impl Storage for CountingStorage {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.appended_bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.inner.append(bytes)
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        self.inner.read()
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        self.replaced_bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.replace_calls.fetch_add(1, Relaxed);
        self.inner.replace(bytes)
    }

    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn finished(fp: u64, out: &str) -> FinishedJob {
    let mut llm = Usage::default();
    llm.record(40, 10);
    FinishedJob {
        pipeline: "curate".into(),
        fingerprint: fp,
        env: BTreeMap::from([("out".to_string(), Data::Str(out.to_string()))]),
        llm,
        wall_us: 10,
    }
}

#[test]
fn rewritten_bytes_stay_within_a_constant_factor_of_appended_bytes() {
    const JOBS: u64 = 20_000;
    let sim = SimStorage::new();
    let storage = CountingStorage::over(sim.clone());
    let (journal, _) = Journal::open(JournalTuning::over(storage.clone())).unwrap();
    for fp in 0..JOBS {
        assert!(journal.record_job_finished(finished(fp, "a fixed-size summary")).unwrap());
        let done = fp + 1;
        if done % 500 == 0 {
            // Whatever the compaction cadence, a crash here loses nothing.
            let image = SimStorage::new();
            image.append(&sim.snapshot()).unwrap();
            let (_reopened, recovered) = Journal::open(JournalTuning::sim(image)).unwrap();
            assert_eq!(recovered.corrupt_records_skipped, 0);
            let fingerprints: Vec<u64> = recovered.finished.iter().map(|j| j.fingerprint).collect();
            assert_eq!(fingerprints, (0..done).collect::<Vec<_>>(), "after {done} jobs");
            assert_eq!(recovered.cumulative.calls, done);
        }
    }
    let appended = storage.appended_bytes.load(Relaxed);
    let replaced = storage.replaced_bytes.load(Relaxed);
    let calls = storage.replace_calls.load(Relaxed);
    assert!(calls >= 2, "the run is long enough to compact more than once");
    assert!(calls <= 32, "{calls} compactions for {JOBS} appends");
    assert!(
        replaced <= 3 * appended,
        "compaction rewrote {replaced} bytes for {appended} appended ({:.1}x)",
        replaced as f64 / appended as f64
    );
}

#[test]
fn reopening_a_large_log_does_not_rewrite_it_after_one_interval() {
    let interval = JournalTuning::DEFAULT_CHECKPOINT_INTERVAL;
    let sim = SimStorage::new();
    {
        let (journal, _) = Journal::open(JournalTuning::sim(sim.clone())).unwrap();
        let summary = "s".repeat(4096);
        for fp in 0..300 {
            journal.record_job_finished(finished(fp, &summary)).unwrap();
        }
        journal.checkpoint_now().unwrap();
    }
    assert!(sim.len() >= 1 << 20, "the checkpoint is {} bytes", sim.len());

    let storage = CountingStorage::over(sim);
    let (journal, recovered) = Journal::open(JournalTuning::over(storage.clone())).unwrap();
    assert_eq!(recovered.finished.len(), 300);
    for fp in 0..interval as u64 + 1 {
        journal.record_job_started("curate", fp).unwrap();
    }
    assert_eq!(
        storage.replace_calls.load(Relaxed),
        0,
        "a megabyte checkpoint with a few kilobytes behind it is not due for a rewrite"
    );
}
