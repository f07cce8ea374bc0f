//! Property tests for continuous batching at the serving layer: for
//! arbitrary `(max_batch_size, max_wait, worker count)` a batched server
//! must be **record-for-record equivalent** to an unbatched one on seeded
//! ER and imputation pipelines, and mid-batch cancellation must never lose
//! or double-book a token.
//!
//! The equivalence claim leans on the simulator's determinism: every
//! response is a pure function of `(seed, prompt)`, so however the batcher
//! groups concurrent completions into flushes, each member's answer must be
//! byte-identical to what a lone unbatched call would have produced.
//!
//! The billing claim is the serving conservation law, unchanged by
//! batching: a member's split is decided once, by the simulator that
//! answered it, and the per-job meters merge those splits — so
//!
//! ```text
//!   attributed usage (llm + llm_partial) == ledger, on all seven fields
//! ```
//!
//! holds token-exactly for every interleaving the scheduler produces. What
//! batching buys shows in the batcher's own flush count, not the ledger.

use lingua_core::{Compiler, ContextFactory, Data};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{LlmService, SimLlm};
use lingua_ml::check::check;
use lingua_serve::{BatchTuning, JobHandle, PipelineServer, ServeConfig, SubmitRequest};
use std::sync::Arc;
use std::time::Duration;

const WORLD_SEED: u64 = 83;

const ER_PIPELINE: &str = r#"pipeline er {
    verdict = entity_resolution(a, b) using llm with {
        desc: "Determine if the following two records refer to the same entity.",
        output: "yesno"
    };
}"#;

const IMPUTATION_PIPELINE: &str = r#"pipeline imputation {
    brand = impute_manufacturer(product) using llm with {
        desc: "Fill in the missing manufacturer for this product.",
        payload_label: "Product",
        extra: "Candidates: Sony, Microsoft, Nintendo",
        output: "category:Sony,Microsoft,Nintendo"
    };
}"#;

/// The two seeded curation workloads the equivalence property runs over.
/// Inputs embed the job index so every job's prompt is distinct — no two
/// members of any batch can coalesce, which keeps the billed-token
/// comparison exact in both directions.
fn workload(
    kind: usize,
    jobs: usize,
) -> (&'static str, &'static str, &'static str, Vec<SubmitRequest>) {
    match kind {
        0 => {
            let requests = (0..jobs)
                .map(|i| {
                    SubmitRequest::new("er")
                        .input(
                            "a",
                            Data::Str(format!(
                                "beer_name: Hoppy Badger {i} IPA; brewery: Stonegate; abv: 6.{i}"
                            )),
                        )
                        .input(
                            "b",
                            Data::Str(format!(
                                "beer_name: Hoppy Badger {i}; brewery: Stonegate Brewing; abv: 6.{i}"
                            )),
                        )
                })
                .collect();
            ("er", ER_PIPELINE, "verdict", requests)
        }
        _ => {
            let requests = (0..jobs)
                .map(|i| {
                    SubmitRequest::new("imputation").input(
                        "product",
                        Data::Str(format!(
                            "name: Sony Vista {i}00 Webcam; description: compact usb webcam {i}"
                        )),
                    )
                })
                .collect();
            ("imputation", IMPUTATION_PIPELINE, "brand", requests)
        }
    }
}

fn server_over(
    llm: Arc<SimLlm>,
    workers: usize,
    batch: Option<BatchTuning>,
    name: &str,
    source: &str,
) -> PipelineServer {
    let server = PipelineServer::start(
        ContextFactory::new(llm),
        ServeConfig {
            workers: Some(workers),
            result_cache_capacity: 0,
            batch,
            ..Default::default()
        },
    )
    .unwrap();
    server.register_dsl(name, source, &Compiler::with_builtins()).unwrap();
    server
}

/// Batched ≡ unbatched, record for record, for arbitrary batching knobs
/// and pool sizes — and the batched run never bills more tokens or more
/// calls than the unbatched one.
#[test]
fn batched_serving_is_record_equivalent_to_unbatched() {
    check(
        "batched_serving_is_record_equivalent_to_unbatched",
        8,
        |g| {
            (g.int(0usize..2), g.int(1usize..9), g.int(1usize..4), g.int(1usize..6), g.int(1u64..4))
        },
        |(kind, jobs, workers, max_batch_size, max_wait_ms)| {
            let world = WorldSpec::generate(WORLD_SEED);
            let (name, source, var, requests) = workload(kind, jobs);
            let tuning =
                BatchTuning { max_batch_size, max_wait: Duration::from_millis(max_wait_ms) };

            let batched_llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, WORLD_SEED));
            let batched =
                server_over(Arc::clone(&batched_llm), workers, Some(tuning), name, source);
            let handles: Vec<JobHandle> =
                requests.iter().map(|r| batched.submit(r.clone()).unwrap()).collect();
            let batched_outputs: Vec<String> =
                handles.into_iter().map(|h| h.wait().unwrap().get(var).unwrap().render()).collect();

            let unbatched_llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, WORLD_SEED));
            let unbatched = server_over(Arc::clone(&unbatched_llm), workers, None, name, source);
            let handles: Vec<JobHandle> =
                requests.iter().map(|r| unbatched.submit(r.clone()).unwrap()).collect();
            let unbatched_outputs: Vec<String> =
                handles.into_iter().map(|h| h.wait().unwrap().get(var).unwrap().render()).collect();

            assert_eq!(
                &batched_outputs, &unbatched_outputs,
                "batching changed an answer (kind {}, {} jobs, batch {} x {}ms, {} workers)",
                kind, jobs, max_batch_size, max_wait_ms, workers
            );

            // Each member is one model call, batched or not: the two ledgers
            // agree on all seven fields, and the jobs metered exactly that.
            let batched_bill = batched_llm.usage();
            let unbatched_bill = unbatched_llm.usage();
            assert_eq!(batched_bill, unbatched_bill, "batching changed the bill");
            let snap = batched.metrics();
            let mut attributed = snap.llm;
            attributed.merge(&snap.llm_partial);
            assert_eq!(attributed, batched_bill, "per-job meters != ledger");
            // Batching shows in the round trips: no more flushes than the
            // unbatched run placed calls.
            let batch = snap.batch.as_ref().expect("batched server surfaces batch counters");
            assert!(
                batch.batches <= unbatched_bill.calls,
                "batching placed more backend calls ({}) than unbatched ({})",
                batch.batches,
                unbatched_bill.calls
            );
            assert!(batch.members as usize >= jobs, "every job's completion joined a batch");
        },
    );
}

/// Arbitrary cancellation patterns against a batched server: every
/// admitted job reaches exactly one terminal state, and the per-job
/// meters reconcile with the shared ledger token for token — a member
/// cancelled mid-batch is billed nowhere, a served member is billed
/// exactly once.
#[test]
fn mid_batch_cancellation_never_loses_or_double_books_usage() {
    check(
        "mid_batch_cancellation_never_loses_or_double_books_usage",
        8,
        |g| (g.int(1usize..10), g.int(1usize..4), g.int(1usize..6), g.int(0u32..1024)),
        |(jobs, workers, max_batch_size, cancel_mask)| {
            let world = WorldSpec::generate(WORLD_SEED);
            let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, WORLD_SEED));
            let (name, source, _var, requests) = workload(0, jobs);
            let tuning = BatchTuning { max_batch_size, max_wait: Duration::from_millis(1) };
            let server = server_over(Arc::clone(&llm), workers, Some(tuning), name, source);

            let handles: Vec<JobHandle> = requests
                .into_iter()
                .enumerate()
                .map(|(i, request)| {
                    let handle = server.submit(request).unwrap();
                    if cancel_mask & (1 << i) != 0 {
                        // Race the cancel against admission, batching, and
                        // execution: the job may die in the queue, inside a
                        // filling batch, or after its answer came back. All
                        // three must reconcile.
                        handle.cancel();
                    }
                    handle
                })
                .collect();
            for handle in &handles {
                let _ = handle.wait();
            }

            let snap = server.metrics();
            assert_eq!(snap.accepted, jobs as u64);
            assert_eq!(
                snap.accepted,
                snap.finished(),
                "every admitted job reached exactly one terminal state"
            );

            let mut attributed = snap.llm;
            attributed.merge(&snap.llm_partial);
            // What the jobs metered is what the ledger billed, on all seven
            // fields: a member cancelled anywhere is billed nowhere, a served
            // member once.
            assert_eq!(attributed, llm.usage(), "usage lost or double-booked across the batcher");
        },
    );
}
