//! Property-based corruption torture: arbitrary record mixes, arbitrary
//! truncation points, arbitrary byte flips — recovery must never panic,
//! must lose at most the damaged suffix (never an interior record), and
//! must report `corrupt_records_skipped` exactly.
//!
//! The exhaustive single-log sweeps live in `corruption.rs`; this file
//! generalizes them over randomized logs and damage.

use lingua_core::Data;
use lingua_durable::{FinishedJob, Journal, JournalReader, JournalTuning, SimStorage};
use lingua_llm_sim::Usage;
use lingua_ml::check::{check, Gen};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A journal populated from a compact script: each step appends one of the
/// serve-lifecycle record kinds (the frame/codec layer underneath is shared
/// by every kind, so lifecycle records exercise the same decode paths the
/// stream records do).
fn build(script: &[u8]) -> Arc<SimStorage> {
    let storage = SimStorage::new();
    let (journal, _) = Journal::open(JournalTuning::sim(storage.clone())).expect("open");
    for (i, step) in script.iter().enumerate() {
        let fp = i as u64;
        let inputs = BTreeMap::from([("n".to_string(), Data::Int(fp as i64))]);
        match step % 4 {
            0 => journal.record_job_accepted("p", fp, &inputs).map(|_| ()),
            1 => journal.record_job_started("p", fp).map(|_| ()),
            2 => {
                let mut llm = Usage::default();
                llm.record(8 + i, 2 + i);
                journal.record_job_finished(FinishedJob {
                    pipeline: "p".into(),
                    fingerprint: fp,
                    env: BTreeMap::from([("out".to_string(), Data::Int(fp as i64))]),
                    llm,
                    wall_us: i as u64,
                })
            }
            .map(|_| ()),
            _ => journal.record_job_failed("p", fp, Usage::default(), "boom").map(|_| ()),
        }
        .expect("append");
    }
    journal.flush().expect("flush");
    storage
}

/// 1–39 lifecycle steps.
fn script(g: &mut Gen) -> Vec<u8> {
    g.vec(1..40, |g| g.int(..))
}

/// Truncation at an arbitrary offset keeps exactly the complete frames
/// before the cut and counts the damage exactly.
#[test]
fn truncation_never_panics_and_counts_exactly() {
    check(
        "truncation_never_panics_and_counts_exactly",
        256,
        |g| (script(g), g.index()),
        |(script, cut)| {
            let full = build(&script).snapshot();
            let len = cut.of(full.len() + 1);
            let oracle = JournalReader::scan(&full[..len]);

            let storage = build(&script);
            storage.truncate(len);
            let (_journal, recovered) =
                Journal::open(JournalTuning::sim(storage.clone())).expect("open never fails");
            assert_eq!(recovered.replayed, oracle.records.len() as u64);
            assert_eq!(recovered.corrupt_records_skipped, u64::from(oracle.valid_len != len));

            // Repair is complete: the next open replays the same state cleanly.
            let (_journal, again) = Journal::open(JournalTuning::sim(storage)).expect("reopen");
            assert_eq!(again.corrupt_records_skipped, 0);
            assert_eq!(again.replayed, oracle.records.len() as u64);
        },
    );
}

/// A single byte flip anywhere in the log costs at most the suffix from
/// the damaged frame on — never an interior record, never a panic.
#[test]
fn byte_flip_never_panics_and_loses_only_a_suffix() {
    check(
        "byte_flip_never_panics_and_loses_only_a_suffix",
        256,
        |g| (script(g), g.index(), g.int(0u8..8)),
        |(script, pos, bit)| {
            // A script has at least one step, so the log is never empty.
            let full = build(&script).snapshot();
            let pos = pos.of(full.len());
            let expected = JournalReader::scan(&full[..pos]).records.len() as u64;

            let storage = build(&script);
            storage.flip_bit(pos, bit);
            let (_journal, recovered) =
                Journal::open(JournalTuning::sim(storage)).expect("open never fails");
            assert_eq!(recovered.replayed, expected);
            assert_eq!(recovered.corrupt_records_skipped, 1);
        },
    );
}
