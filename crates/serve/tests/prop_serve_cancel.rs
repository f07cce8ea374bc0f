//! Property test for the cancellation billing invariant: however many jobs
//! are submitted, cancelled, or deadline-starved across an arbitrary worker
//! pool, no usage is ever lost or double-counted — the shared service's
//! ledger always equals `llm + llm_partial`, and every admitted job reaches
//! exactly one terminal state. (The deterministic chaos variants live in
//! `panic_chaos.rs`.)

use lingua_core::{Compiler, ContextFactory, Data};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{LlmService, SimLlm};
use lingua_ml::check::check;
use lingua_serve::{PipelineServer, ServeConfig, SubmitRequest};
use std::sync::Arc;
use std::time::Duration;

/// Arbitrary mixes of plain, cancelled, and tightly-deadlined jobs:
/// `accepted == finished()` once all waiters return, and the shared
/// LLM ledger reconciles with `llm + llm_partial` to the token.
#[test]
fn cancellation_never_loses_usage_accounting() {
    check(
        "cancellation_never_loses_usage_accounting",
        12,
        |g| (g.int(1usize..12), g.int(1usize..4), g.int(0u32..4096), g.int(0u32..4096)),
        |(jobs, workers, cancel_mask, deadline_mask)| {
            let world = WorldSpec::generate(79);
            let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 79));
            let server = PipelineServer::start(
                ContextFactory::new(llm.clone()),
                ServeConfig {
                    workers: Some(workers),
                    dedup_inflight: false,
                    result_cache_capacity: 0,
                    ..Default::default()
                },
            )
            .unwrap();
            server
                .register_dsl(
                    "summ",
                    r#"pipeline summ {
                out = summarize(text) using llm with { desc: "summarize the following document" };
            }"#,
                    &Compiler::with_builtins(),
                )
                .unwrap();
            let billed_before = llm.usage();

            let handles: Vec<_> = (0..jobs)
                .map(|i| {
                    let mut request = SubmitRequest::new("summ").input(
                        "text",
                        Data::Str(format!("annual report {i} on the beer catalogue")),
                    );
                    if deadline_mask & (1 << i) != 0 {
                        // Tight enough to expire in the queue or mid-run on a
                        // busy pool, long enough to sometimes finish: all three
                        // outcomes stay reachable.
                        request = request.timeout(Duration::from_millis(1));
                    }
                    let handle = server.submit(request).unwrap();
                    if cancel_mask & (1 << i) != 0 {
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
            assert_eq!(snap.deduped(), 0);
            assert_eq!(
                snap.accepted,
                snap.finished(),
                "every admitted job reaches exactly one terminal state"
            );
            let mut attributed = snap.llm;
            attributed.merge(&snap.llm_partial);
            assert_eq!(
                llm.usage().since(&billed_before),
                attributed,
                "shared ledger == completed + partial billing"
            );
        },
    );
}
