//! Compaction under concurrent appends. An append holds the journal's lock
//! only for its write; the append that finds a compaction due folds and
//! encodes the checkpoint after releasing it, so other appends land while it
//! does. These tests hold both halves of that: nothing appended during a
//! compaction is lost or reordered, the amortised bounds still hold, and an
//! append does not wait for another thread's fold or encoding.

use lingua_core::Data;
use lingua_durable::{FinishedJob, Journal, JournalTuning, SimStorage, Storage};
use lingua_llm_sim::Usage;
use lingua_ml::sync::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::thread::{self, ThreadId};

fn inputs(fp: u64) -> BTreeMap<String, Data> {
    BTreeMap::from([("text".to_string(), Data::Str(format!("record {fp}")))])
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

/// Counts what the journal asks of the storage under it.
struct CountingStorage {
    inner: Arc<SimStorage>,
    appended_bytes: AtomicU64,
    largest_append: AtomicU64,
    replaced_bytes: AtomicU64,
    replace_calls: AtomicU64,
}

impl Storage for CountingStorage {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.appended_bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.largest_append.fetch_max(bytes.len() as u64, Relaxed);
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

/// Reopen a copy of `bytes`, as a crash at that instant would.
fn reopen(bytes: &[u8]) -> lingua_durable::Recovered {
    let image = SimStorage::new();
    image.append(bytes).unwrap();
    let (_journal, recovered) = Journal::open(JournalTuning::sim(image)).unwrap();
    recovered
}

#[test]
fn appends_racing_compactions_lose_nothing_and_keep_the_amortised_bounds() {
    const THREADS: u64 = 4;
    const JOBS_PER_THREAD: u64 = 1_500;
    const INTERVAL: usize = 8;
    let sim = SimStorage::new();
    let storage = Arc::new(CountingStorage {
        inner: sim.clone(),
        appended_bytes: AtomicU64::new(0),
        largest_append: AtomicU64::new(0),
        replaced_bytes: AtomicU64::new(0),
        replace_calls: AtomicU64::new(0),
    });
    let tuning = JournalTuning::over(storage.clone()).with_checkpoint_interval(INTERVAL);
    let journal = Arc::new(Journal::open(tuning).unwrap().0);
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let journal = Arc::clone(&journal);
            thread::spawn(move || {
                for job in 0..JOBS_PER_THREAD {
                    let fp = thread * JOBS_PER_THREAD + job;
                    assert!(journal.record_job_accepted("curate", fp, &inputs(fp)).unwrap());
                    let summary = format!("summary of record {fp}");
                    assert!(journal.record_job_finished(finished(fp, &summary)).unwrap());
                }
            })
        })
        .collect();
    // Crash images taken mid-run: each reopens clean, and none holds fewer
    // finished jobs than one taken before it — a compaction never drops a
    // record that landed while it folded.
    let observer = {
        let (sim, done) = (sim.clone(), Arc::clone(&done));
        thread::spawn(move || {
            let (mut images, mut last) = (0, 0);
            while !done.load(Relaxed) {
                let recovered = reopen(&sim.snapshot());
                assert_eq!(recovered.corrupt_records_skipped, 0);
                assert!(recovered.finished.len() >= last, "a crash image lost finished jobs");
                last = recovered.finished.len();
                images += 1;
            }
            images
        })
    };
    for writer in writers {
        writer.join().unwrap();
    }
    done.store(true, Relaxed);
    assert!(observer.join().unwrap() > 0);
    // One more job on a quiet journal: a compaction it finds due runs with
    // nothing racing it, as the single-threaded bound assumes.
    let last = THREADS * JOBS_PER_THREAD;
    journal.record_job_accepted("curate", last, &inputs(last)).unwrap();
    journal.record_job_finished(finished(last, &format!("summary of record {last}"))).unwrap();
    let jobs = last + 1;

    let recovered = reopen(&sim.snapshot());
    assert_eq!(recovered.corrupt_records_skipped, 0);
    assert_eq!(recovered.pending.len(), 0, "every accepted job finished");
    let fingerprints: Vec<u64> = recovered.finished.iter().map(|job| job.fingerprint).collect();
    assert_eq!(fingerprints, (0..jobs).collect::<Vec<_>>());
    assert_eq!(recovered.cumulative.calls, jobs);

    let appended = storage.appended_bytes.load(Relaxed);
    let replaced = storage.replaced_bytes.load(Relaxed);
    let compactions = storage.replace_calls.load(Relaxed);
    assert!(compactions >= 2, "{compactions} compactions");
    assert!(
        replaced <= 3 * appended,
        "compaction rewrote {replaced} bytes for {appended} appended ({:.1}x)",
        replaced as f64 / appended as f64
    );
    // Replay ≤ ~2× live: the log against a fresh checkpoint of the same
    // state, plus the interval floor's records.
    let log = sim.len() as u64;
    journal.checkpoint_now().unwrap();
    let live = sim.len() as u64;
    let floor = INTERVAL as u64 * storage.largest_append.load(Relaxed);
    assert!(log <= 2 * live + floor, "log {log} bytes against a live state of {live}");
    assert_eq!(reopen(&sim.snapshot()).finished.len() as u64, jobs);
}

/// Storage that remembers which thread made each call, in order.
struct CallLog {
    inner: Arc<SimStorage>,
    calls: Mutex<Vec<(ThreadId, bool)>>,
    replaced: AtomicBool,
}

impl CallLog {
    fn record(&self, replace: bool) {
        self.calls.lock().push((thread::current().id(), replace));
    }
}

impl Storage for CallLog {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)?;
        self.record(false);
        Ok(())
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        self.inner.read()
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        self.record(true);
        self.inner.replace(bytes)?;
        self.replaced.store(true, Relaxed);
        Ok(())
    }

    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One compaction of ~20,000 records, with two threads making the last
/// appends of its interval together and appending on until the log is
/// replaced. Returns how many appends the non-compacting thread landed
/// between the compaction's trigger — the compacting thread's last append —
/// and its replace.
fn appends_landed_during_a_compaction() -> usize {
    const INTERVAL: usize = 20_000;
    const RACED: usize = 2_000;
    let storage = Arc::new(CallLog {
        inner: SimStorage::new(),
        calls: Mutex::new(Vec::new()),
        replaced: AtomicBool::new(false),
    });
    let tuning = JournalTuning::over(storage.clone()).with_checkpoint_interval(INTERVAL);
    let (journal, _) = Journal::open(tuning).unwrap();
    let summary = "s".repeat(200);
    for fp in 0..(INTERVAL - RACED) as u64 {
        journal.record_job_finished(finished(fp, &summary)).unwrap();
    }
    storage.calls.lock().clear();
    let start = Barrier::new(2);
    thread::scope(|scope| {
        for thread in 1..=2u64 {
            let (journal, storage, start) = (&journal, &storage, &start);
            scope.spawn(move || {
                start.wait();
                // Capped, so that a failure cannot hang.
                for fp in thread * 1_000_000..thread * 1_000_000 + 200_000 {
                    if storage.replaced.load(Relaxed) {
                        break;
                    }
                    journal.record_job_finished(finished(fp, "tiny")).unwrap();
                }
            });
        }
    });

    let calls = storage.calls.lock().clone();
    let replace = calls.iter().position(|(_, replace)| *replace).expect("the interval compacts");
    let compactor = calls[replace].0;
    let trigger = calls[..replace]
        .iter()
        .rposition(|(thread, _)| *thread == compactor)
        .expect("the compacting thread appended the record that tripped it");
    let appends = calls.iter().filter(|(_, replace)| !replace).count();
    let recovered = reopen(&storage.inner.snapshot());
    assert_eq!(recovered.finished.len(), INTERVAL - RACED + appends, "an append was lost");
    replace - trigger - 1
}

/// The append that trips a compaction folds and encodes ~20,000 records
/// before it replaces the log. If other appends waited for the fold and the
/// encoding, the compacting thread's own triggering append would always be
/// the last write before the replace. The scheduler decides whether the
/// other thread runs during a given fold, so a few compactions are tried.
#[test]
fn an_append_does_not_wait_for_another_threads_fold_or_encoding() {
    assert!(
        (0..3).any(|_| appends_landed_during_a_compaction() > 0),
        "no append landed between a compaction's trigger and its replace: \
         appends waited for the fold and the encoding"
    );
}
