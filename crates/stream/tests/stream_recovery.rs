//! Crash-injection matrix for the streaming engine: kill the simulated
//! process at every journal kill point while a windowed dedup stream is
//! running, recover from the surviving bytes, feed the rest of the stream,
//! and prove the union of pre-crash and post-recovery window reports is
//! record-for-record identical to a run that never crashed — and that the
//! restored ledger plus replayed executions bill exactly what the
//! uninterrupted run billed.
//!
//! Exactness precondition (documented as a recovery invariant in
//! DESIGN.md §15): `watermark_interval == 1`, so the recovered engine's
//! advance cadence matches the crashed one's (the watermark is re-derived
//! from the journaled frontier at restore).

use lingua_core::ContextFactory;
use lingua_dataset::world::WorldSpec;
use lingua_durable::{CrashInjector, JournalTuning, KillPoint, SimStorage};
use lingua_llm_sim::{LlmService, SimLlm, SimLlmConfig, TokenPricing, Usage};
use lingua_serve::ServeConfig;
use lingua_stream::{
    StreamConfig, StreamEngine, StreamItem, StreamSource, StreamSpec, StreamTuning,
    SyntheticSource, WindowReport,
};
use std::sync::Arc;

const SEED: u64 = 83;
const RECORDS: usize = 160;
const CHECKPOINT_INTERVAL: usize = 48;

fn stream_config(journal: JournalTuning) -> StreamConfig {
    StreamConfig {
        tuning: StreamTuning { window: 32, slide: 16, watermark_interval: 1 },
        allowed_lateness: 8,
        serve: ServeConfig { workers: Some(2), journal: Some(journal), ..ServeConfig::default() },
        ..StreamConfig::default()
    }
}

fn engine_with(journal: JournalTuning) -> (StreamEngine, Arc<SimLlm>) {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed: SEED, ..Default::default() }));
    let source = SyntheticSource::new(&world, StreamSpec { seed: SEED, ..Default::default() });
    let schema = source.schema().clone();
    let engine = StreamEngine::start(
        ContextFactory::new(Arc::clone(&llm) as Arc<dyn LlmService>),
        schema,
        stream_config(journal),
    )
    .expect("engine starts");
    (engine, llm)
}

fn items() -> Vec<StreamItem> {
    let world = WorldSpec::generate(SEED);
    let mut source = SyntheticSource::new(&world, StreamSpec { seed: SEED, ..Default::default() });
    source.take_records(RECORDS)
}

/// Everything a window report asserts on, including its exact LLM bill.
type ReportKey = (u64, u64, u64, usize, usize, u64, u64, u64, usize, Usage);

fn key(r: &WindowReport) -> ReportKey {
    (
        r.window.0,
        r.start,
        r.end,
        r.records,
        r.candidate_pairs,
        r.comparisons,
        r.judged,
        r.matched,
        r.true_duplicates,
        r.llm,
    )
}

#[test]
fn stream_recovery_matches_uninterrupted_at_every_kill_point() {
    let items = items();

    // Reference: the run that never crashes (journal on, injector inert, so
    // the code path is identical to the crashing runs).
    let (engine, llm) = engine_with(
        JournalTuning::sim(SimStorage::new()).with_checkpoint_interval(CHECKPOINT_INTERVAL),
    );
    for item in &items {
        engine.ingest(item.clone()).expect("reference ingest");
    }
    let mut reference: Vec<ReportKey> =
        engine.finish().expect("reference drain").iter().map(key).collect();
    reference.sort_unstable_by_key(|k| k.0);
    let reference_usage = llm.usage();
    assert!(!reference.is_empty(), "the stream must actually close windows");
    assert!(reference_usage.calls > 0, "the workload must actually bill the LLM");
    // The checkpoint rows must crash a compaction the run itself triggered,
    // not only the one shutdown forces.
    let fired = engine.journal().expect("journal attached").injector().counts();
    assert!(fired.contains_key(&KillPoint::AfterCheckpoint), "no compaction in {RECORDS} records");
    drop(engine);

    for point in KillPoint::ALL {
        for occurrence in [1u64, 13, 47] {
            let label = format!("{}@{occurrence}", point.as_str());
            let storage = SimStorage::new();

            // Run 1: dies at the armed kill point (or survives if that
            // point never fires this often — recovery is then a no-op).
            let injector = CrashInjector::armed_at(point, occurrence);
            let (engine, _llm1) = engine_with(
                JournalTuning::sim(storage.clone())
                    .with_checkpoint_interval(CHECKPOINT_INTERVAL)
                    .with_injector(injector.clone()),
            );
            let mut resume_from = items.len();
            for (i, item) in items.iter().enumerate() {
                engine.ingest(item.clone()).unwrap_or_else(|err| panic!("{label}: {err}"));
                if engine.dead() {
                    // The item's own journal record may or may not have made
                    // it out before the crash; `last_ingest_durable` says
                    // which, and decides where the replayed feed resumes.
                    resume_from = if engine.last_ingest_durable() { i + 1 } else { i };
                    break;
                }
            }
            // A dead engine hands out nothing (`finish` returns the reports
            // journaled-and-delivered before the crash, possibly none).
            let reports1 = engine.finish().unwrap_or_else(|err| panic!("{label}: {err}"));
            drop(engine);
            // Every point must be reached at least once, or its rows pass
            // vacuously as "nothing happened".
            if occurrence == 1 {
                assert_eq!(
                    injector.counts().get(&point),
                    Some(&1),
                    "{label} never fired: raise RECORDS until the journal reaches it"
                );
            }

            // Run 2: recover from the surviving bytes, replay the tail of
            // the stream, and drain.
            let (engine, llm) = engine_with(
                JournalTuning::sim(storage).with_checkpoint_interval(CHECKPOINT_INTERVAL),
            );
            let snapshot =
                engine.server_metrics().recovery.expect("journal surfaces recovery snapshot");
            assert!(
                snapshot.corrupt_records_skipped <= 1,
                "{label}: at most the torn tail frame is lost, got {}",
                snapshot.corrupt_records_skipped
            );
            for item in &items[resume_from..] {
                engine.ingest(item.clone()).unwrap_or_else(|err| panic!("{label}: {err}"));
            }
            assert!(!engine.dead(), "{label}: run 2 has an inert injector");
            let reports2 = engine.finish().unwrap_or_else(|err| panic!("{label}: {err}"));

            // Union of what the crashed process delivered and what the
            // recovered one delivered == the uninterrupted run, exactly.
            let mut combined: Vec<ReportKey> =
                reports1.iter().chain(reports2.iter()).map(key).collect();
            combined.sort_unstable_by_key(|k| k.0);
            for pair in combined.windows(2) {
                assert_ne!(
                    pair[0].0, pair[1].0,
                    "{label}: window {} reported twice across the crash",
                    pair[0].0
                );
            }
            assert_eq!(
                combined, reference,
                "{label}: recovered reports diverge from the uninterrupted run"
            );

            // Ledger reconciliation: the journal-restored bill plus the
            // replayed executions equals the uninterrupted bill — to the
            // cent, because SimLlm is deterministic and restored results
            // are served from the recovered cache instead of re-billing.
            let recovered_usage = llm.usage();
            assert_eq!(
                recovered_usage, reference_usage,
                "{label}: recovered + replayed bill must equal the uninterrupted bill"
            );
            let pricing = TokenPricing::default();
            assert!(
                (recovered_usage.cost_usd(&pricing) - reference_usage.cost_usd(&pricing)).abs()
                    < 1e-12,
                "{label}: ledger reconciles to the cent"
            );
        }
    }
}

/// Recovery restores stream conservation laws, not just outputs: after a
/// crash mid-stream, the recovered engine's books (windows opened == closed,
/// records assigned or dropped) balance over the replayed tail.
#[test]
fn recovered_engine_keeps_conservation_laws() {
    let items = items();
    let storage = SimStorage::new();
    let (engine, _llm) = engine_with(
        JournalTuning::sim(storage.clone())
            .with_checkpoint_interval(CHECKPOINT_INTERVAL)
            .with_injector(CrashInjector::armed_at(KillPoint::AfterJournal, 40)),
    );
    let mut resume_from = items.len();
    for (i, item) in items.iter().enumerate() {
        engine.ingest(item.clone()).expect("ingest");
        if engine.dead() {
            resume_from = if engine.last_ingest_durable() { i + 1 } else { i };
            break;
        }
    }
    assert!(engine.dead(), "the injector must have fired for this test to mean anything");
    drop(engine);

    let (engine, _llm) = engine_with(JournalTuning::sim(storage));
    for item in &items[resume_from..] {
        engine.ingest(item.clone()).expect("replayed ingest");
    }
    let reports = engine.finish().expect("drain");
    let snap = engine.metrics();
    assert!(snap.window_conservation_holds(), "{}", snap.report());
    assert_eq!(snap.windows_open, 0, "finish() closes every window");
    assert!(!reports.is_empty());
}
