//! Pipelined dispatch × continuous batching: a **single** serve worker
//! running a [`PipelinedMapModule`] keeps many in-flight calls inside the
//! batcher at once, so size-triggered batches fill without any concurrent
//! jobs. The window is set absurdly long (30s) — if dispatch were
//! sequential, the only way the batch could flush would be the window
//! timer, and the test would stall; a size flush completing instantly is
//! the proof that the lanes genuinely overlap.
//!
//! The lanes carry one call per record only for a per-record module without
//! a list form, such as the imputation judge here. A pair judgment has one:
//! the map asks a job's pairs with one numbered prompt, so the job is one
//! member of the batcher, with every label the per-pair reference gives.

use lingua_core::modules::{LlmModule, Module, PipelinedMapModule, PromptBuilder};
use lingua_core::validation::OutputValidator;
use lingua_core::{ContextFactory, Data, LogicalOp, PhysicalPipeline};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{LlmService, SimLlm};
use lingua_serve::{BatchTuning, PipelineServer, ServeConfig, SubmitRequest};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 90;

/// A per-record judge with no list form: the manufacturer of one product.
fn imputer() -> LlmModule {
    LlmModule::new(
        "imputer",
        PromptBuilder::TextTask {
            description: "Fill in the missing manufacturer for this product.".into(),
            payload_label: "Product".into(),
            extra_lines: vec!["Candidates: Sony, Microsoft, Nintendo".into()],
        },
        OutputValidator::Category {
            vocabulary: vec!["Sony".into(), "Microsoft".into(), "Nintendo".into()],
        },
    )
}

/// A pair judge, which has a list form.
fn er_judge() -> LlmModule {
    LlmModule::new(
        "er_judge",
        PromptBuilder::PairJudgment {
            description: "Determine if the following two records refer to the same entity.".into(),
            examples: vec![],
        },
        OutputValidator::YesNo,
    )
}

/// One-op pipeline: `batch` (a list of records) through `judge` in a
/// pipelined map at the given depth.
fn pipelined(depth: usize, judge: fn() -> LlmModule) -> PhysicalPipeline {
    let module =
        PipelinedMapModule::new("match_batch", depth, move || Box::new(judge()) as Box<dyn Module>);
    PhysicalPipeline {
        name: "match_batch".to_string(),
        ops: vec![(
            LogicalOp::new("match_batch").output("labels").input("batch"),
            Box::new(module) as Box<dyn Module>,
        )],
    }
}

fn product(i: usize) -> Data {
    Data::Str(format!("name: PlayStation {i} Memory Card; description: {i}MB storage"))
}

fn pair(i: usize) -> Data {
    Data::map([
        ("a".to_string(), Data::Str(format!("beer_name: Hoppy Badger {i} IPA; abv: 6.{i}"))),
        ("b".to_string(), Data::Str(format!("beer_name: Hoppy Badger {i}; abv: 6.{i}"))),
    ])
}

/// A one-worker server over `llm` that batches up to `size` members and
/// waits out no window within a test run.
fn server(llm: &Arc<SimLlm>, size: usize, pipeline: PhysicalPipeline) -> PipelineServer {
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(llm) as Arc<dyn LlmService>),
        ServeConfig {
            workers: Some(1),
            result_cache_capacity: 0,
            // A window no test run ever waits out: only a size flush can
            // answer within the suite's lifetime.
            batch: Some(BatchTuning { max_batch_size: size, max_wait: Duration::from_secs(30) }),
            ..Default::default()
        },
    )
    .unwrap();
    server.register_pipeline("match_batch", pipeline).unwrap();
    server
}

/// Each record through `judge`'s own `invoke`, alone, on `llm`.
fn per_record(llm: &Arc<SimLlm>, judge: fn() -> LlmModule, records: Vec<Data>) -> Data {
    let mut ctx = ContextFactory::new(Arc::clone(llm) as Arc<dyn LlmService>).build();
    Data::List(
        records.into_iter().map(|record| judge().invoke(record, &mut ctx).unwrap()).collect(),
    )
}

#[test]
fn one_worker_fills_size_triggered_batches_through_the_pipelined_map() {
    const BATCH: usize = 4;
    let world = WorldSpec::generate(SEED);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, SEED));
    let reference: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = server(&llm, BATCH, pipelined(BATCH, imputer));

    // One job, one worker: the only concurrency is the pipelined map's.
    let input = Data::List((0..BATCH).map(product).collect());
    let handle = server.submit(SubmitRequest::new("match_batch").input("batch", input)).unwrap();
    let outputs = handle.wait().unwrap();
    let labels = outputs.get("labels").unwrap();

    // Record-for-record equivalence with a lone unbatched reference run.
    assert_eq!(labels, &per_record(&reference, imputer, (0..BATCH).map(product).collect()));

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
    // Depth 2 against a size-2 batcher: the worker can only hold two calls
    // in flight, so flushes are size-triggered pairs, never fuller.
    // (Inverse of the test above: occupancy tracks dispatch depth.)
    const DEPTH: usize = 2;
    let world = WorldSpec::generate(SEED);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = server(&llm, DEPTH, pipelined(DEPTH, imputer));
    let input = Data::List((0..6).map(product).collect());
    let handle = server.submit(SubmitRequest::new("match_batch").input("batch", input)).unwrap();
    handle.wait().unwrap();
    let batch = server.metrics().batch.expect("batch counters");
    assert_eq!(batch.members, 6);
    assert_eq!(batch.size_flushes, 3, "pairs of in-flight calls fill size-2 batches");
    assert_eq!(batch.max_occupancy, DEPTH as u64);
}

#[test]
fn a_pair_judgment_job_is_one_member_with_the_per_pair_labels() {
    // Eight pairs at depth 8 would be eight members; with the list form
    // they are one numbered prompt, which fills a size-1 batch on its own.
    const PAIRS: usize = 8;
    let world = WorldSpec::generate(SEED);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, SEED));
    let reference: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = server(&llm, 1, pipelined(PAIRS, er_judge));
    let input = Data::List((0..PAIRS).map(pair).collect());
    let handle = server.submit(SubmitRequest::new("match_batch").input("batch", input)).unwrap();
    let outputs = handle.wait().unwrap();

    // Record for record, the labels each pair gets asked alone.
    let expected = per_record(&reference, er_judge, (0..PAIRS).map(pair).collect());
    assert_eq!(outputs.get("labels").unwrap(), &expected);
    let batch = server.metrics().batch.expect("batch counters");
    assert_eq!(batch.members, 1, "the job's pairs are one numbered prompt");
    assert_eq!(batch.batches, 1);
    let (listed, alone) = (llm.usage(), reference.usage());
    assert_eq!((listed.calls, alone.calls), (1, PAIRS as u64));
    assert!(listed.tokens_in < alone.tokens_in, "{listed:?} vs {alone:?}");
}
