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
use lingua_dataset::world::{WorldConfig, WorldSpec};
use lingua_durable::{CrashInjector, Journal, JournalTuning, KillPoint, SimStorage};
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
/// Beers in the world's catalogue. The stream re-emits the catalogue about
/// every `CATALOGUE / (1 − dup_rate)` records, so a small one brings clean
/// pairs back windows after they were first asked: far carries, within the
/// kill matrix's records.
const CATALOGUE: usize = 24;

fn world() -> WorldSpec {
    WorldSpec::generate_with(SEED, &WorldConfig { beers: CATALOGUE, ..WorldConfig::default() })
}

fn stream_config(journal: JournalTuning) -> StreamConfig {
    StreamConfig {
        tuning: StreamTuning { window: 32, slide: 16, watermark_interval: 1 },
        allowed_lateness: 8,
        serve: ServeConfig { workers: Some(2), journal: Some(journal), ..ServeConfig::default() },
        ..StreamConfig::default()
    }
}

fn engine_with(journal: JournalTuning) -> (StreamEngine, Arc<SimLlm>) {
    let world = world();
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
    let world = world();
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
    // The kill points must also land around windows that carry verdicts.
    let snap = engine.metrics();
    assert!(snap.pairs_carried > 0, "overlapping windows must carry pairs: {}", snap.report());
    assert!(snap.pairs_far_carried > 0, "repeats must carry from far windows: {}", snap.report());
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

/// Ticks between the two halves of [`halves`]: past the first half's drain,
/// which pushes the watermark a window and the lateness beyond its frontier.
const GAP: u64 = 128;

/// The kill matrix's stream cut in two, the second half moved `GAP` ticks
/// later so that it lands after the first half has been drained.
fn halves() -> (Vec<StreamItem>, Vec<StreamItem>) {
    let mut first = items();
    let mut second = first.split_off(RECORDS / 2);
    for item in &mut second {
        item.event_time += GAP;
    }
    (first, second)
}

fn feed(engine: &StreamEngine, items: &[StreamItem]) {
    for item in items {
        engine.ingest(item.clone()).expect("ingest");
    }
}

/// Reports go out only when a stream drains, so a restart between an
/// owner's report and a far carrier's close falls between two drains. The
/// first half of the stream is drained and reported; the process restarts,
/// cleanly or by dying at its next journal write; the second half then
/// closes windows that carry verdicts the first half's windows asked. Its
/// reports and the bill equal those of a run that never restarted — whose
/// second half asks fewer pairs than an engine that never saw the first.
#[test]
fn a_far_carry_reads_an_owner_reported_before_a_restart() {
    let (first, second) = halves();
    let tuning = |storage: &Arc<SimStorage>| {
        JournalTuning::sim(storage.clone()).with_checkpoint_interval(CHECKPOINT_INTERVAL)
    };

    // Reference: one engine drains twice.
    let (engine, llm) = engine_with(tuning(&SimStorage::new()));
    feed(&engine, &first);
    let reference_first: Vec<ReportKey> = engine.finish().expect("drain").iter().map(key).collect();
    let drained = llm.usage();
    let appends = engine.journal().expect("journal").injector().counts()[&KillPoint::BeforeJournal];
    feed(&engine, &second);
    let reference_second: Vec<ReportKey> =
        engine.finish().expect("drain").iter().map(key).collect();
    let reference_usage = llm.usage();
    assert!(!reference_first.is_empty() && !reference_second.is_empty());
    drop(engine);
    let (fresh, fresh_llm) = engine_with(tuning(&SimStorage::new()));
    feed(&fresh, &second);
    fresh.finish().expect("drain");
    let asked = reference_usage.since(&drained).calls;
    assert!(
        asked < fresh_llm.usage().calls,
        "the second half carries from the first: {asked} calls vs {} without it",
        fresh_llm.usage().calls
    );
    drop(fresh);

    for crash in [false, true] {
        let storage = SimStorage::new();
        let mut journal = tuning(&storage);
        if crash {
            journal = journal
                .with_injector(CrashInjector::armed_at(KillPoint::BeforeJournal, appends + 1));
        }
        let (engine, _llm1) = engine_with(journal);
        feed(&engine, &first);
        let reports1: Vec<ReportKey> = engine.finish().expect("drain").iter().map(key).collect();
        assert_eq!(reports1, reference_first, "crash {crash}");
        let mut resume_from = 0;
        if crash {
            engine.ingest(second[0].clone()).expect("a dead engine's ingest is a no-op");
            assert!(engine.dead(), "the next journal write kills the process");
            resume_from = usize::from(engine.last_ingest_durable());
        }
        drop(engine);

        let (engine, llm) = engine_with(tuning(&storage));
        feed(&engine, &second[resume_from..]);
        let reports2: Vec<ReportKey> = engine.finish().expect("drain").iter().map(key).collect();
        assert_eq!(reports2, reference_second, "crash {crash}");
        let snap = engine.metrics();
        assert!(snap.pairs_far_carried > 0, "crash {crash}: {}", snap.report());
        assert_eq!(llm.usage(), reference_usage, "crash {crash}: the restart re-asked nothing");
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

/// A clean shutdown journals the ledger's bill with the simulator's cache
/// on, as the streaming benchmark runs it. Each pair is asked once per
/// stream, so the hits come from replaying the same stream over the same
/// simulator: the replay's numbered prompts are the first run's, answered
/// from the cache, and the `cumulative` the next `Journal::open` reads books
/// them as saved, equal to the replay's ledger on every `Usage` field.
#[test]
fn a_caching_streams_journaled_bill_is_its_ledger() {
    let world = world();
    let llm = Arc::new(SimLlm::new(
        &world,
        SimLlmConfig { seed: SEED, cache_enabled: true, ..Default::default() },
    ));
    let source = SyntheticSource::new(&world, StreamSpec { seed: SEED, ..Default::default() });
    let run = |storage: Arc<SimStorage>| {
        let engine = StreamEngine::start(
            ContextFactory::new(Arc::clone(&llm) as Arc<dyn LlmService>),
            source.schema().clone(),
            stream_config(JournalTuning::sim(storage)),
        )
        .expect("engine starts");
        for item in items() {
            engine.ingest(item).expect("ingest");
        }
        engine.finish().expect("drain");
    };
    run(SimStorage::new());
    let first = llm.usage();
    let storage = SimStorage::new();
    run(storage.clone());
    let ledger = llm.usage().since(&first);
    assert!(ledger.cached_calls > 0, "the replay's prompts are answered from the cache");
    let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).expect("log reopens");
    assert_eq!(recovered.cumulative, ledger, "journaled bill != ledger");
}
