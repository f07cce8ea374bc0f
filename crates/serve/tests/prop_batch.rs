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
//! The billing claim is the batching refinement of the serving conservation
//! law: per-job meters bill every response a job received, while the shared
//! ledger bills each flush once and books coalesced members as savings — so
//!
//! ```text
//!   attributed tokens (llm + llm_partial) == ledger billed + ledger saved
//!   attributed calls == batch members - cancelled members
//! ```
//!
//! hold token-exactly for every interleaving the scheduler produces.

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
            dedup_inflight: false,
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

            // Distinct prompts mean no coalescing: the batched ledger must bill
            // the identical token volume in no more (usually fewer) calls.
            let batched_bill = batched_llm.usage();
            let unbatched_bill = unbatched_llm.usage();
            assert_eq!(batched_bill.tokens_in, unbatched_bill.tokens_in);
            assert_eq!(batched_bill.tokens_out, unbatched_bill.tokens_out);
            assert!(
                batched_bill.calls <= unbatched_bill.calls,
                "batching placed more backend calls ({}) than unbatched ({})",
                batched_bill.calls,
                unbatched_bill.calls
            );
            let snap = batched.metrics();
            let batch = snap.batch.as_ref().expect("batched server surfaces batch counters");
            assert_eq!(batch.batches, batched_bill.calls, "one billed call per flush");
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
            let ledger = llm.usage();
            // Token conservation across the batcher: what the jobs metered is
            // exactly what the ledger billed plus what it recorded as saved
            // (cache-served members are real answers to their jobs, but savings
            // to the backend).
            assert_eq!(
                attributed.tokens_in,
                ledger.tokens_in + ledger.tokens_in_saved,
                "input tokens lost or double-booked across the batcher"
            );
            assert_eq!(
                attributed.tokens_out,
                ledger.tokens_out + ledger.tokens_out_saved,
                "output tokens lost or double-booked across the batcher"
            );
            let batch = snap.batch.as_ref().expect("batched server surfaces batch counters");
            assert_eq!(
                attributed.calls,
                batch.members - batch.cancelled_members,
                "every live batch member was metered by exactly one job"
            );
            // A flush whose members were all cancelled reaches the backend as an
            // empty batch and bills nothing, so flushes bound billed calls from
            // above rather than equalling them.
            assert!(
                ledger.calls <= batch.batches,
                "more billed calls ({}) than flushes ({})",
                ledger.calls,
                batch.batches
            );
        },
    );
}
