//! What the payload format guarantees at the public API: an intact frame
//! the codec cannot read is never truncated away, and floats survive a
//! reopen bit for bit.

use lingua_core::Data;
use lingua_dataset::{Record, Schema, Table, Value};
use lingua_durable::frame::encode_frame;
use lingua_durable::{
    FinishedJob, Journal, JournalTuning, SimStorage, Storage, WindowCloseRecord, WindowReportRecord,
};
use lingua_llm_sim::Usage;
use std::collections::BTreeMap;
use std::io;

fn inputs(n: i64) -> BTreeMap<String, Data> {
    BTreeMap::from([("n".to_string(), Data::Int(n))])
}

/// A `WindowClose` in an older format: its format byte, the tag, the `u64`
/// fields listed and `{"n": 3}`.
fn old_window_close(format: u8, fields: &[u64]) -> Vec<u8> {
    let mut payload = vec![format, 6];
    for field in fields {
        payload.extend_from_slice(&field.to_le_bytes());
    }
    payload.extend_from_slice(&[1, 0, 0, 0, 1, 0, 0, 0, b'n', 2]);
    payload.extend_from_slice(&3i64.to_le_bytes());
    payload
}

/// Valid records followed by a CRC-valid frame whose payload is a record in
/// a format this build does not speak: JSON text (the commit before the
/// binary codec, which filed such a frame under "damage" and cut the log),
/// format 1 (nine `u64` fields, the last two the inline verdict counts
/// format 2 dropped), format 2 (no carried pair keys after the inputs),
/// format 3 (a close whose fields this format shares: its reports said
/// nothing of what the engine remembers, so the whole log is refused), or a
/// future format. Opening must fail with `InvalidData` and leave storage
/// byte-for-byte untouched.
#[test]
fn unreadable_frame_fails_open_and_leaves_storage_untouched() {
    let json_payload: &[u8] = br#"{"kind":"job_started","pipeline":"curate","fingerprint":2}"#;
    let format_1_payload = old_window_close(1, &[3, 48, 80, 2, 1, 1, 1, 1, 1]);
    let format_2_payload = old_window_close(2, &[3, 48, 80, 2, 1, 1, 1]);
    let mut format_3_payload = old_window_close(3, &[3, 48, 80, 2, 1, 1, 1]);
    format_3_payload.extend_from_slice(&0u32.to_le_bytes());
    let future_payload: &[u8] = &[0xFF, 1, 2, 3];
    let payloads =
        [json_payload, &format_1_payload, &format_2_payload, &format_3_payload, future_payload];
    for payload in payloads {
        let storage = SimStorage::new();
        let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
        journal.record_job_accepted("curate", 1, &inputs(1)).unwrap();
        journal.record_job_accepted("curate", 2, &inputs(2)).unwrap();
        drop(journal);
        storage.append(&encode_frame(payload)).unwrap();
        // A later record behind the unreadable one: also kept.
        let tail = SimStorage::new();
        let (other, _) = Journal::open(JournalTuning::sim(tail.clone())).unwrap();
        other.record_job_accepted("curate", 3, &inputs(3)).unwrap();
        storage.append(&tail.snapshot()).unwrap();

        let before = storage.snapshot();
        let error = match Journal::open(JournalTuning::sim(storage.clone())) {
            Ok(_) => panic!("an unreadable log must not open"),
            Err(error) => error,
        };
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("refusing to truncate"), "{error}");
        assert_eq!(storage.snapshot(), before, "storage must be left exactly as found");
    }
}

/// `NaN`, `±∞` and `-0.0` in a job's env — top level and inside a table
/// cell — come back bit-identical, and the records after them survive. At
/// the commit before the binary codec the JSON tree wrote `NaN` as `null`:
/// the frame could not decode and reopening cut it and everything after.
#[test]
fn non_finite_floats_survive_a_reopen_bit_for_bit() {
    let odd_nan = f64::from_bits(0x7FF8_0000_0000_BEEF);
    let table = Table::with_rows(
        "cells",
        Schema::of_names(["x"]),
        vec![Record::new(vec![Value::Float(f64::NAN)]), Record::new(vec![Value::Float(-0.0)])],
    )
    .unwrap();
    let env = BTreeMap::from([
        ("nan".to_string(), Data::Float(f64::NAN)),
        ("odd_nan".to_string(), Data::Float(odd_nan)),
        ("inf".to_string(), Data::Float(f64::INFINITY)),
        ("neg_inf".to_string(), Data::Float(f64::NEG_INFINITY)),
        ("neg_zero".to_string(), Data::Float(-0.0)),
        ("table".to_string(), Data::Table(table)),
    ]);

    let storage = SimStorage::new();
    let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
    let job = FinishedJob {
        pipeline: "curate".into(),
        fingerprint: 1,
        env: env.clone(),
        llm: Usage::default(),
        wall_us: 5,
    };
    journal.record_job_finished(job).unwrap();
    journal.record_job_accepted("curate", 2, &inputs(2)).unwrap();
    journal.record_job_started("curate", 2).unwrap();
    drop(journal);

    let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).unwrap();
    assert_eq!(recovered.replayed, 3, "all three records come back");
    assert_eq!(recovered.corrupt_records_skipped, 0);
    assert_eq!(recovered.pending.len(), 1);
    let back = &recovered.finished[0].env;
    let bits = |data: &Data| match data {
        Data::Float(f) => f.to_bits(),
        other => panic!("expected a float, got {other:?}"),
    };
    for key in ["nan", "odd_nan", "inf", "neg_inf", "neg_zero"] {
        assert_eq!(bits(&back[key]), bits(&env[key]), "{key}");
    }
    let Data::Table(table) = &back["table"] else { panic!("expected a table") };
    let cell = |row: usize| match table.rows()[row].values()[0] {
        Value::Float(f) => f.to_bits(),
        ref other => panic!("expected a float cell, got {other:?}"),
    };
    assert_eq!(cell(0), f64::NAN.to_bits());
    assert_eq!(cell(1), (-0.0f64).to_bits());
}

/// A window's carried pair keys and a report's owned verdicts come back from
/// a reopen as they went in: a closed-unreported window with its carried
/// keys in candidate order (a repeat included), a reported one with every
/// verdict and the oldest window its engine remembered.
#[test]
fn pair_keys_and_verdicts_survive_a_reopen() {
    let close = |window: u64, carried: Vec<u64>| WindowCloseRecord {
        window,
        start: window * 16,
        end: window * 16 + 32,
        records: 4,
        candidate_pairs: 3,
        comparisons: 3,
        true_duplicates: 1,
        inputs: inputs(window as i64),
        carried,
    };
    let storage = SimStorage::new();
    let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
    journal.record_window_close(close(3, vec![])).unwrap();
    journal.record_window_close(close(4, vec![u64::MAX, 0, u64::MAX])).unwrap();
    let report = WindowReportRecord {
        window: 3,
        start: 48,
        end: 80,
        records: 4,
        candidate_pairs: 3,
        comparisons: 3,
        judged: 3,
        matched: 1,
        true_duplicates: 1,
        llm: Usage::default(),
        owned: BTreeMap::from([(0, true), (7, false), (u64::MAX, false)]),
        remembered_from: 2,
    };
    journal.record_report_submitted(report.clone()).unwrap();
    drop(journal);

    let (journal, recovered) = Journal::open(JournalTuning::sim(storage.clone())).unwrap();
    assert_eq!(recovered.stream.reported[&3], report);
    assert_eq!(recovered.stream.closed_unreported[&4], close(4, vec![u64::MAX, 0, u64::MAX]));
    // And from a checkpoint frame, not only from the records.
    journal.checkpoint_now().unwrap();
    drop(journal);
    let (_journal, again) = Journal::open(JournalTuning::sim(storage)).unwrap();
    assert_eq!(again.replayed, 1, "one checkpoint frame");
    assert_eq!(again.stream, recovered.stream);
}
