//! Sustained concurrent load: 10k records through 8 ingesting threads, then
//! the books must balance exactly.
//!
//! Three families of invariant, all checked after quiescence, all true
//! under any interleaving of the ingesting threads:
//!
//! 1. **Conservation laws** — every record either landed in ≥1 window or
//!    was dropped late (`ingested == assigned + late`); every opened window
//!    closed (`opened == closed + open`, with `open == 0` after `finish`).
//! 2. **O(window) work** — total blocking probes are bounded by
//!    `assignments × max window occupancy`, and are orders of magnitude
//!    below the corpus-quadratic count a full rescan would have paid.
//! 3. **Cent-exact billing** — the shared simulator's ledger equals, to the
//!    call and the token, what the serve layer's job meters booked: every
//!    call the stream makes is a window job's. No call is lost or
//!    double-billed.
//!
//! How many records arrive *late* is not among them: with eight threads on
//! fewer cores a descheduled thread falls behind the event-time frontier the
//! others advance, and the share it loses is the scheduler's, not the
//! engine's. That claim is made where it is a function of the seed — the
//! same 10k records ingested by one thread, whose disorder (a few ticks)
//! never reaches the allowed lateness: nothing is dropped
//! (`single_threaded_ingest_drops_nothing_late`).

use lingua_core::ContextFactory;
use lingua_dataset::world::WorldSpec;
use lingua_gateway::{Gateway, ServiceTransport};
use lingua_llm_sim::{LlmService, SimLlm, SimLlmConfig, TokenPricing, Usage};
use lingua_serve::ServeConfig;
use lingua_stream::{
    StreamConfig, StreamEngine, StreamItem, StreamSource, StreamSpec, StreamTuning, SyntheticSource,
};
use std::sync::Arc;

const THREADS: usize = 8;
const TOTAL: usize = 10_000;

/// The simulator, an engine over it, and the seeded 10k records.
fn start(max_block_size: usize) -> (Arc<SimLlm>, Arc<StreamEngine>, Vec<StreamItem>) {
    let seed = 99;
    let world = WorldSpec::generate(seed);
    let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed, ..Default::default() }));
    let mut source = SyntheticSource::new(&world, StreamSpec { seed, ..Default::default() });
    let schema = source.schema().clone();
    let records = source.take_records(TOTAL);

    let config = StreamConfig {
        tuning: StreamTuning { window: 64, slide: 32, watermark_interval: 8 },
        // Concurrent ingestion interleaves event times across threads, and
        // a descheduled thread can fall arbitrarily far behind the frontier
        // the others advance — give the watermark generous slack.
        allowed_lateness: 256,
        max_block_size,
        // This test measures conservation under load, not backpressure (that
        // is `tiny_queue_backpressure_survives`). An undersized queue couples
        // ingest progress to drain speed: on a small machine the 8 producers
        // out-run 4 debug-build workers, stall in the submit retry loop, fall
        // behind the event-time frontier, and manufacture mass lateness. A
        // queue larger than the total window count removes that coupling.
        serve: ServeConfig { workers: Some(4), queue_capacity: 4096, ..ServeConfig::default() },
        ..StreamConfig::default()
    };
    let engine = Arc::new(
        StreamEngine::start(
            ContextFactory::new(Arc::clone(&llm) as Arc<dyn LlmService>),
            schema,
            config,
        )
        .expect("engine starts"),
    );
    (llm, engine, records)
}

#[test]
fn sustained_load_on_window_close() {
    let (llm, engine, records) = start(StreamConfig::default().max_block_size);

    // Strided split: thread i takes records i, i+8, i+16, … so all threads
    // move through event time together (a contiguous split would have the
    // last thread's timestamps declare everything else late).
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let slice: Vec<_> = records.iter().skip(t).step_by(THREADS).cloned().collect();
            std::thread::spawn(move || {
                for item in slice {
                    engine.ingest(item).expect("sustained ingest");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("ingest thread survives");
    }

    let reports = engine.finish().expect("drain");
    let snap = engine.metrics();
    let serve = engine.server_metrics();

    // 1. Conservation.
    assert!(snap.record_conservation_holds(), "{}", snap.report());
    assert!(snap.window_conservation_holds(), "{}", snap.report());
    assert_eq!(snap.ingested, TOTAL as u64);
    assert_eq!(snap.windows_open, 0, "finish() closes every window");
    assert_eq!(snap.windows_closed as usize, reports.len());
    assert_eq!(snap.reports as usize, reports.len());
    let closed_records: usize = reports.iter().map(|r| r.records).sum();
    assert_eq!(closed_records as u64, snap.assignments, "every landed membership closed");

    // 2. O(window) work, not O(corpus).
    let max_occupancy = reports.iter().map(|r| r.records).max().unwrap_or(0) as u64;
    assert!(
        snap.comparisons <= snap.assignments * max_occupancy,
        "probes ({}) exceed assignments ({}) x max occupancy ({})",
        snap.comparisons,
        snap.assignments,
        max_occupancy
    );
    let corpus_quadratic = (TOTAL as u64) * (TOTAL as u64 - 1) / 2;
    assert!(
        snap.comparisons * 100 < corpus_quadratic,
        "windowing must beat a full rescan by >100x: {} vs {corpus_quadratic}",
        snap.comparisons
    );

    // 3. Cent-exact billing: shared ledger == the window jobs' meters.
    let ledger = llm.usage();
    let mut booked = Usage::default();
    booked.merge(&serve.llm);
    booked.merge(&serve.llm_partial);
    assert_eq!(booked.calls, ledger.calls, "call counts reconcile");
    assert_eq!(booked.tokens_in, ledger.tokens_in, "input tokens reconcile");
    assert_eq!(booked.tokens_out, ledger.tokens_out, "output tokens reconcile");
    let pricing = TokenPricing::default();
    let booked_cents = (booked.cost_usd(&pricing) * 100.0).round() as i64;
    let ledger_cents = (ledger.cost_usd(&pricing) * 100.0).round() as i64;
    assert_eq!(booked_cents, ledger_cents, "billing reconciles to the cent");

    // The matcher actually did work under load.
    assert!(snap.pairs_judged > 0);
    assert!(snap.pairs_matched > 0);
    assert_eq!(snap.pairs_judged, serve.llm.calls, "one window-job call per judged pair");

    // Serve-side books for the window jobs themselves.
    assert_eq!(serve.accepted, snap.windows_closed, "one job per closed window");
    assert_eq!(serve.completed, snap.windows_closed);
    assert_eq!(serve.failed + serve.timed_out + serve.panicked + serve.cancelled, 0);
}

/// The same records from one thread: lateness is the generator's disorder
/// alone, far inside `allowed_lateness`, so every record lands. Lateness does
/// not depend on the matcher, so this run gets none (a zero block size
/// yields no candidate pairs) and costs what assigning 10k records costs.
#[test]
fn single_threaded_ingest_drops_nothing_late() {
    let (_, engine, records) = start(0);
    for item in records {
        engine.ingest(item).expect("ingest");
    }
    engine.finish().expect("drain");
    let snap = engine.metrics();
    assert_eq!(snap.ingested, TOTAL as u64);
    assert_eq!(snap.late_dropped, 0, "{}", snap.report());
    assert!(snap.record_conservation_holds(), "{}", snap.report());
    assert!(snap.window_conservation_holds(), "{}", snap.report());
    assert_eq!(snap.assigned_records, TOTAL as u64, "{}", snap.report());
}

/// A tiny serve queue forces the submission path through its backpressure
/// retry loop; the engine must survive and the books must still balance.
#[test]
fn tiny_queue_backpressure_survives() {
    let seed = 31;
    let world = WorldSpec::generate(seed);
    let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed, ..Default::default() }));
    let mut source = SyntheticSource::new(&world, StreamSpec { seed, ..Default::default() });
    let schema = source.schema().clone();
    let config = StreamConfig {
        tuning: StreamTuning { window: 32, slide: 32, watermark_interval: 4 },
        serve: ServeConfig { workers: Some(1), queue_capacity: 1, ..ServeConfig::default() },
        submit_retries: 10_000,
        ..StreamConfig::default()
    };
    let engine =
        StreamEngine::start(ContextFactory::new(llm), schema, config).expect("engine starts");
    for item in source.take_records(2_000) {
        engine.ingest(item).expect("ingest through backpressure");
    }
    let reports = engine.finish().expect("drain through backpressure");
    let snap = engine.metrics();
    assert!(snap.record_conservation_holds(), "{}", snap.report());
    assert!(snap.window_conservation_holds(), "{}", snap.report());
    assert_eq!(snap.windows_closed as usize, reports.len());
}

/// The engine is service-agnostic: routed through a resilience gateway, the
/// stream still drains and reports (retry/fallback policy is the gateway's
/// business, not the engine's).
#[test]
fn streams_ride_the_gateway() {
    let seed = 47;
    let world = WorldSpec::generate(seed);
    let backend = Arc::new(SimLlm::new(&world, SimLlmConfig { seed, ..Default::default() }));
    let gateway = Arc::new(
        Gateway::builder().backend(Arc::new(ServiceTransport::new("primary", backend))).build(),
    );
    let mut source = SyntheticSource::new(&world, StreamSpec { seed, ..Default::default() });
    let schema = source.schema().clone();
    let config = StreamConfig {
        serve: ServeConfig { workers: Some(2), ..ServeConfig::default() },
        ..StreamConfig::default()
    };
    let engine =
        StreamEngine::start(ContextFactory::new(gateway as Arc<dyn LlmService>), schema, config)
            .expect("engine starts behind a gateway");
    for item in source.take_records(600) {
        engine.ingest(item).expect("ingest via gateway");
    }
    let reports = engine.finish().expect("drain via gateway");
    assert!(reports.iter().map(|r| r.matched).sum::<u64>() > 0, "matches flow through");
}
