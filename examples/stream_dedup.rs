//! Streaming deduplication quickstart: a seeded synthetic product stream
//! flows through sliding event-time windows; each arriving record is
//! compared only against its own window (incremental blocking — O(window)
//! work per record), and when the watermark closes a window, one serve job
//! asks the LLM about the candidate pairs no remembered earlier window has
//! asked about, in numbered prompts, and the window's match report carries
//! the other verdicts over — from overlapping windows, and from far ones
//! when the stream repeats a pair.
//!
//! ```text
//! cargo run --release -p lingua-stream --example stream_dedup
//! ```

use lingua_core::ContextFactory;
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{SimLlm, SimLlmConfig, TokenPricing};
use lingua_serve::ServeConfig;
use lingua_stream::{StreamConfig, StreamEngine, StreamSource, StreamTuning, SyntheticSource};
use std::sync::Arc;

fn main() {
    println!("=== Lingua Manga: streaming dedup over sliding windows ===\n");

    const SEED: u64 = 42;
    const RECORDS: usize = 1500;

    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed: SEED, ..Default::default() }));
    let mut source = SyntheticSource::with_seed(SEED);
    let schema = source.schema().clone();

    // Sliding windows: 64 event-time ticks long, advancing every 32, so each
    // record belongs to two windows once the stream warms up. The watermark
    // trails the frontier by 8 ticks to absorb out-of-order arrivals.
    let config = StreamConfig {
        tuning: StreamTuning { window: 64, slide: 32, watermark_interval: 8 },
        allowed_lateness: 8,
        serve: ServeConfig { workers: Some(4), ..ServeConfig::default() },
        ..StreamConfig::default()
    };
    let factory = ContextFactory::new(Arc::clone(&llm) as Arc<dyn lingua_llm_sim::LlmService>);
    let mut engine =
        StreamEngine::start(factory, schema, config).expect("valid streaming configuration");

    println!("> ingesting {RECORDS} records (duplicates arrive within a bounded lag)...\n");
    for item in source.take_records(RECORDS) {
        engine.ingest(item).expect("stream ingest");
    }

    let reports = engine.finish().expect("drain the stream");
    for report in &reports {
        println!("{}", report.summary());
    }

    let snapshot = engine.metrics();
    let pricing = TokenPricing::default();
    let job_usage = engine.server_metrics().llm;
    println!("\n{}", snapshot.report());
    println!("cost: ${:.4} across {} window jobs", job_usage.cost_usd(&pricing), reports.len(),);
    println!(
        "incremental work: {} blocking probes for {} records — bounded by window \
         occupancy, not stream length",
        snapshot.comparisons, snapshot.ingested,
    );
    println!(
        "shared verdicts: {} of {} judged pairs carried from an earlier ask, {} asked \
         in {} calls",
        snapshot.pairs_carried,
        snapshot.pairs_judged,
        snapshot.pairs_judged - snapshot.pairs_carried,
        job_usage.calls,
    );
    println!(
        "far repeats: {} of the carried pairs ({:.1} %) came from a window that does not \
         overlap their own",
        snapshot.pairs_far_carried,
        100.0 * snapshot.pairs_far_carried as f64 / snapshot.pairs_carried.max(1) as f64,
    );

    assert!(snapshot.record_conservation_holds());
    assert!(snapshot.window_conservation_holds());
    engine.shutdown();
    println!("\nconservation laws hold; engine shut down cleanly.");
}
