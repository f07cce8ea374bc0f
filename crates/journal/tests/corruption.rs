//! Deterministic corruption sweeps: truncate the log at *every* byte offset
//! and flip a bit at *every* byte position, and prove recovery (a) never
//! panics, (b) loses at most the damaged suffix — never an interior record —
//! and (c) reports `corrupt_records_skipped` exactly.
//!
//! These sweeps are exhaustive over one representative log (every record
//! variant, a checkpoint frame in front). The randomized generalization —
//! arbitrary logs, arbitrary damage — lives in `prop_corruption.rs`.

use lingua_core::Data;
use lingua_dataset::generators::stream::{ProductStream, StreamItem, StreamSpec};
use lingua_dataset::world::WorldSpec;
use lingua_durable::{
    FinishedJob, Journal, JournalReader, JournalTuning, SimStorage, WindowCloseRecord,
    WindowReportRecord,
};
use lingua_llm_sim::Usage;
use std::collections::BTreeMap;
use std::sync::Arc;

fn inputs(n: i64) -> BTreeMap<String, Data> {
    BTreeMap::from([("n".to_string(), Data::Int(n))])
}

fn finished(fp: u64) -> FinishedJob {
    let mut llm = Usage::default();
    llm.record(64, 16);
    FinishedJob {
        pipeline: "curate".into(),
        fingerprint: fp,
        env: BTreeMap::from([("out".to_string(), Data::Int(fp as i64))]),
        llm,
        wall_us: 10,
    }
}

fn stream_items() -> Vec<StreamItem> {
    let world = WorldSpec::generate(7);
    ProductStream::new(&world, StreamSpec { seed: 7, ..Default::default() }).take(4).collect()
}

/// One representative log: every record variant, a checkpoint frame at the
/// front (from compaction), a varied tail behind it. Rebuilt identically on
/// every call — corruption tests mutate the storage, so each case needs a
/// fresh copy.
fn pristine(items: &[StreamItem]) -> Arc<SimStorage> {
    let storage = SimStorage::new();
    let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).expect("open");
    journal.record_job_accepted("curate", 1, &inputs(1)).unwrap();
    journal.record_job_started("curate", 1).unwrap();
    journal.record_job_finished(finished(1)).unwrap();
    journal.record_job_accepted("curate", 2, &inputs(2)).unwrap();
    journal.record_job_failed("curate", 2, Usage::default(), "timeout").unwrap();
    // Compacts everything above into a single leading checkpoint frame.
    journal.checkpoint_now().unwrap();
    for (i, item) in items.iter().enumerate() {
        journal.record_stream_ingest(item, &[i as u64, i as u64 + 1]).unwrap();
    }
    journal.record_watermark(40, 48).unwrap();
    journal
        .record_window_close(WindowCloseRecord {
            window: 3,
            start: 48,
            end: 80,
            records: 2,
            candidate_pairs: 2,
            comparisons: 2,
            true_duplicates: 1,
            inputs: inputs(3),
            carried: vec![0xBEEF],
        })
        .unwrap();
    journal
        .record_report_submitted(WindowReportRecord {
            window: 3,
            start: 48,
            end: 80,
            records: 2,
            candidate_pairs: 2,
            comparisons: 2,
            judged: 2,
            matched: 2,
            true_duplicates: 1,
            llm: Usage::default(),
            owned: BTreeMap::from([(0xF00D, true)]),
            remembered_from: 2,
        })
        .unwrap();
    journal.record_job_accepted("curate", 9, &inputs(9)).unwrap();
    journal.flush().unwrap();
    storage
}

/// Truncating the log to every possible length: recovery keeps exactly the
/// complete frames in the prefix, counts one damaged suffix iff the cut is
/// mid-frame, and repairs the log so the next open is clean.
#[test]
fn truncation_at_every_offset_recovers_the_exact_prefix() {
    let items = stream_items();
    let full = pristine(&items).snapshot();
    assert!(full.len() > 100, "the sweep needs a real log");

    for len in 0..=full.len() {
        // Oracle from the reader layer: which complete frames fit in the
        // prefix, and does the cut land on a frame boundary?
        let oracle = JournalReader::scan(&full[..len]);
        let on_boundary = oracle.valid_len == len;

        let storage = pristine(&items);
        storage.truncate(len);
        let (journal, recovered) =
            Journal::open(JournalTuning::sim(storage.clone())).expect("open never fails");
        assert_eq!(
            recovered.replayed,
            oracle.records.len() as u64,
            "len {len}: recovery must keep every complete frame in the prefix"
        );
        assert_eq!(
            recovered.corrupt_records_skipped,
            u64::from(!on_boundary),
            "len {len}: exactly the damaged suffix is counted"
        );
        drop(journal);

        // Repair is complete and idempotent: the reopened log is clean and
        // replays the same records.
        let (_journal, again) = Journal::open(JournalTuning::sim(storage)).expect("reopen");
        assert_eq!(again.corrupt_records_skipped, 0, "len {len}: tail was repaired");
        assert_eq!(again.replayed, oracle.records.len() as u64, "len {len}: no further loss");
    }
}

/// Flipping one bit at every byte position: the CRC catches it, recovery
/// stops at the damaged frame (keeping everything before it), counts one
/// damaged suffix, and never panics.
#[test]
fn bit_flip_at_every_position_loses_only_the_suffix() {
    let items = stream_items();
    let full = pristine(&items).snapshot();

    for pos in 0..full.len() {
        // Frames wholly before `pos` are untouched by the flip; the frame
        // containing `pos` and everything after it is the damaged suffix.
        let expected = JournalReader::scan(&full[..pos]).records.len() as u64;

        let storage = pristine(&items);
        storage.flip_bit(pos, (pos % 8) as u8);
        let (_journal, recovered) =
            Journal::open(JournalTuning::sim(storage)).expect("open never fails");
        assert_eq!(recovered.replayed, expected, "pos {pos}: every frame before the flip survives");
        assert_eq!(
            recovered.corrupt_records_skipped, 1,
            "pos {pos}: the damaged suffix is counted exactly once"
        );
    }
}

/// Damage in two places still costs one contiguous suffix: frame boundaries
/// are only discoverable front-to-back, so the scan stops at the first bad
/// frame and everything behind it is gone regardless of later damage.
#[test]
fn multiple_corruptions_still_one_suffix() {
    let items = stream_items();
    let full = pristine(&items).snapshot();
    let (a, b) = (full.len() / 3, 2 * full.len() / 3);
    let expected = JournalReader::scan(&full[..a]).records.len() as u64;

    let storage = pristine(&items);
    storage.flip_bit(a, 3);
    storage.flip_bit(b, 5);
    let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).expect("open");
    assert_eq!(recovered.replayed, expected, "scan stops at the first damaged frame");
    assert_eq!(recovered.corrupt_records_skipped, 1, "one contiguous suffix, not two");
}
