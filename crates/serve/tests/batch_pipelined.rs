//! Pipelined dispatch × continuous batching: a **single** serve worker
//! running a [`PipelinedMapModule`] keeps many in-flight calls inside the
//! batcher at once, so size-triggered batches fill without any concurrent
//! jobs. The window is set absurdly long (30s) — if dispatch were
//! sequential, the only way the batch could flush would be the window
//! timer, and the test would stall; a size flush completing instantly is
//! the proof that the lanes genuinely overlap.

use lingua_core::modules::{LlmModule, Module, PipelinedMapModule, PromptBuilder};
use lingua_core::validation::OutputValidator;
use lingua_core::{ContextFactory, Data, LogicalOp, PhysicalPipeline};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{LlmService, SimLlm};
use lingua_serve::{BatchTuning, PipelineServer, ServeConfig, SubmitRequest};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 90;

/// One-op pipeline: `batch` (a list of `{a, b}` pair maps) judged through a
/// pipelined map at the given depth.
fn pipelined_er(depth: usize) -> PhysicalPipeline {
    let module = PipelinedMapModule::new("match_batch", depth, || {
        Box::new(LlmModule::new(
            "er_judge",
            PromptBuilder::PairJudgment {
                description: "Determine if the following two records refer to the same entity."
                    .into(),
                examples: vec![],
            },
            OutputValidator::YesNo,
        )) as Box<dyn Module>
    });
    PhysicalPipeline {
        name: "match_batch".to_string(),
        ops: vec![(
            LogicalOp::new("match_batch").output("labels").input("batch"),
            Box::new(module) as Box<dyn Module>,
        )],
    }
}

fn pair(i: usize) -> Data {
    Data::map([
        ("a".to_string(), Data::Str(format!("beer_name: Hoppy Badger {i} IPA; abv: 6.{i}"))),
        ("b".to_string(), Data::Str(format!("beer_name: Hoppy Badger {i}; abv: 6.{i}"))),
    ])
}

#[test]
fn one_worker_fills_size_triggered_batches_through_the_pipelined_map() {
    const BATCH: usize = 4;
    let world = WorldSpec::generate(SEED);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, SEED));
    let reference: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(&llm) as Arc<dyn LlmService>),
        ServeConfig {
            workers: Some(1),
            dedup_inflight: false,
            result_cache_capacity: 0,
            // A window no test run ever waits out: only a size flush can
            // answer within the suite's lifetime.
            batch: Some(BatchTuning { max_batch_size: BATCH, max_wait: Duration::from_secs(30) }),
            ..Default::default()
        },
    )
    .unwrap();
    server.register_pipeline("match_batch", pipelined_er(BATCH)).unwrap();

    // One job, one worker: the only concurrency is the pipelined map's.
    let input = Data::List((0..BATCH).map(pair).collect());
    let handle = server.submit(SubmitRequest::new("match_batch").input("batch", input)).unwrap();
    let outputs = handle.wait().unwrap();
    let labels = outputs.get("labels").unwrap();

    // Record-for-record equivalence with a lone unbatched reference run.
    let mut reference_ctx =
        ContextFactory::new(Arc::clone(&reference) as Arc<dyn LlmService>).build();
    let mut reference_pipeline = pipelined_er(1);
    let expected = reference_pipeline.ops[0]
        .1
        .invoke(Data::List((0..BATCH).map(pair).collect()), &mut reference_ctx)
        .unwrap();
    assert_eq!(labels, &expected);

    // The proof of overlap: every member of the job landed in ONE
    // size-triggered flush; the 30s window never fired.
    let snap = server.metrics();
    let batch = snap.batch.expect("batched server surfaces batch counters");
    assert_eq!(batch.batches, 1, "one flush for the whole job");
    assert_eq!(batch.members, BATCH as u64);
    assert_eq!(batch.size_flushes, 1, "the size trigger fired, not the window");
    assert_eq!(batch.window_flushes, 0);
    assert_eq!(batch.max_occupancy, BATCH as u64);
    // Each member billed as the lone reference call billed it.
    assert_eq!(llm.usage(), reference.usage());
}

#[test]
fn pipelined_depth_bounds_batch_occupancy() {
    // Depth 2 against a size-4 batcher: the worker can only hold two calls
    // in flight, so flushes are window-triggered pairs, never full batches.
    // (Inverse of the test above: occupancy tracks dispatch depth.)
    const DEPTH: usize = 2;
    let world = WorldSpec::generate(SEED);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(&llm) as Arc<dyn LlmService>),
        ServeConfig {
            workers: Some(1),
            dedup_inflight: false,
            result_cache_capacity: 0,
            batch: Some(BatchTuning { max_batch_size: DEPTH, max_wait: Duration::from_secs(30) }),
            ..Default::default()
        },
    )
    .unwrap();
    server.register_pipeline("match_batch", pipelined_er(DEPTH)).unwrap();
    let input = Data::List((0..6).map(pair).collect());
    let handle = server.submit(SubmitRequest::new("match_batch").input("batch", input)).unwrap();
    handle.wait().unwrap();
    let batch = server.metrics().batch.expect("batch counters");
    assert_eq!(batch.members, 6);
    assert_eq!(batch.size_flushes, 3, "pairs of in-flight calls fill size-2 batches");
    assert_eq!(batch.max_occupancy, DEPTH as u64);
}
