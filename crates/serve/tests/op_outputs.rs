//! A job's env holds its pipeline's op outputs, and none of its inputs:
//! whether the job ran, was answered from the result cache, or was answered
//! from a `finished` record a restarted server read back from its journal.
//! So that record, like the cache entry, costs what the job's outputs cost,
//! whatever the size of its input.

use lingua_core::modules::{CustomModule, Module};
use lingua_core::{ContextFactory, Data, LogicalOp, PhysicalPipeline};
use lingua_dataset::world::WorldSpec;
use lingua_durable::frame::{decode_frame, FrameOutcome};
use lingua_durable::{JournalReader, JournalRecord, JournalTuning, SimStorage};
use lingua_llm_sim::SimLlm;
use lingua_serve::{JobOutput, PipelineServer, ServeConfig, SubmitRequest};
use std::sync::Arc;

const SEED: u64 = 44;

/// `loud = shout(text)`, `long = is_long(loud)`: two op outputs over one
/// input. `shout` trims what it upper-cases.
fn pipeline() -> PhysicalPipeline {
    let shout = CustomModule::stateless("shout", |input, _| {
        Ok(Data::Str(input.as_str().unwrap_or_default().trim().to_uppercase()))
    });
    let is_long = CustomModule::stateless("is_long", |input, _| {
        Ok(Data::Bool(input.as_str().is_some_and(|text| text.len() > 64)))
    });
    PhysicalPipeline {
        name: "shout".into(),
        ops: vec![
            (
                LogicalOp::new("shout").output("loud").input("text"),
                Box::new(shout) as Box<dyn Module>,
            ),
            (LogicalOp::new("is_long").output("long").input("loud"), Box::new(is_long) as _),
        ],
    }
}

fn server_over(storage: &Arc<SimStorage>) -> PipelineServer {
    let world = WorldSpec::generate(SEED);
    let factory = ContextFactory::new(Arc::new(SimLlm::with_seed(&world, SEED)));
    let config = ServeConfig {
        workers: Some(2),
        journal: Some(JournalTuning::sim(Arc::clone(storage))),
        ..Default::default()
    };
    let server = PipelineServer::start(factory, config).expect("server starts");
    server.register_pipeline("shout", pipeline()).expect("pipeline registers");
    server
}

fn request(text: &str) -> SubmitRequest {
    SubmitRequest::new("shout").input("text", Data::Str(text.to_string()))
}

fn keys(output: &JobOutput) -> Vec<&str> {
    output.env.keys().map(String::as_str).collect()
}

#[test]
fn executed_cached_and_restored_jobs_hold_op_outputs_only() {
    let storage = SimStorage::new();
    let server = server_over(&storage);
    let executed = server.run(request(" a quiet word ")).expect("the job runs");
    assert_eq!(keys(&executed), ["long", "loud"]);
    assert_eq!(executed.get("loud").unwrap(), &Data::Str("A QUIET WORD".into()));
    let cached = server.run(request(" a quiet word ")).expect("the cache answers");
    assert_eq!(server.metrics().cache_hits, 1);
    assert_eq!(keys(&cached), ["long", "loud"]);
    drop(server);

    let restarted = server_over(&storage);
    let restored = restarted.run(request(" a quiet word ")).expect("the journal answers");
    let metrics = restarted.metrics();
    assert_eq!((metrics.cache_hits, metrics.completed), (1, 0), "answered, not run again");
    assert_eq!(keys(&restored), ["long", "loud"]);
    assert_eq!(restored.env, executed.env);
}

/// The byte length of every `finished` record in `bytes`, in order.
fn finished_sizes(bytes: &[u8]) -> Vec<usize> {
    let (mut sizes, mut at) = (Vec::new(), 0);
    while let FrameOutcome::Valid { next, .. } = decode_frame(bytes, at) {
        let records = JournalReader::scan(&bytes[at..next]).records;
        if let [JournalRecord::JobFinished(_)] = records.as_slice() {
            sizes.push(next - at);
        }
        at = next;
    }
    sizes
}

#[test]
fn a_finished_record_does_not_grow_with_the_jobs_input() {
    let storage = SimStorage::new();
    let server = server_over(&storage);
    // Outputs of one size, `long: true` and a `loud` of 100 letters, from
    // inputs of 100 bytes and of 30 KB: the second job's input fills most of
    // its `accepted` record and none of its `finished` one.
    let short = "x".repeat(100);
    let long = format!("{}{}", " ".repeat(30_000 - 100), "y".repeat(100));
    let before = storage.len();
    server.run(request(&short)).expect("the short job runs");
    let short_bytes = storage.len() - before;
    let before = storage.len();
    let out = server.run(request(&long)).expect("the long job runs");
    let long_bytes = storage.len() - before;
    assert_eq!(out.get("long").unwrap(), &Data::Bool(true));
    assert!(long_bytes > short_bytes + 29_000, "the input is journaled once, on acceptance");
    // Read before shutdown, whose checkpoint compacts the records away.
    let sizes = finished_sizes(&storage.snapshot());
    drop(server);
    assert_eq!(sizes.len(), 2, "{sizes:?}");
    assert_eq!(sizes[0], sizes[1], "finished records of the short and the long job");
}
