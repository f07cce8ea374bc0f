//! Property tests for trace/metric conservation under arbitrary worker
//! pools: whatever the pool size and workload, the trace stream must
//! rebuild into a well-formed forest whose `serve_job` spans and usage
//! rollups reconcile with the metrics snapshot. (The deterministic
//! one-of-each-path variant lives in `trace_conservation.rs`.)

use lingua_core::{Compiler, ContextFactory, Data};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::SimLlm;
use lingua_ml::check::check;
use lingua_serve::{PipelineServer, ServeConfig, SubmitRequest};
use lingua_trace::{ring_tracer, SpanKind, TraceTree};
use std::sync::Arc;

/// Arbitrary distinct workloads over arbitrary pool sizes: one executed
/// `serve_job` span per submission, each wrapping exactly one pipeline,
/// with the forest's total usage equal to the server's aggregate bill.
#[test]
fn multi_worker_traces_balance_for_any_pool_size() {
    check(
        "multi_worker_traces_balance_for_any_pool_size",
        12,
        |g| (g.int(1usize..10), g.int(1usize..5)),
        |(jobs, workers)| {
            let world = WorldSpec::generate(53);
            let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 53));
            let (tracer, sink) = ring_tracer(1 << 14);
            let factory = ContextFactory::new(llm).with_tracer(tracer.clone());
            let server = PipelineServer::start(
                factory,
                ServeConfig { workers: Some(workers), ..Default::default() },
            )
            .unwrap();
            let source = r#"pipeline summ {
        out = summarize(text) using llm with { desc: "summarize the following document" };
    }"#;
            server.register_dsl("summ", source, &Compiler::with_builtins()).unwrap();

            let handles: Vec<_> = (0..jobs)
                .map(|i| {
                    let text = format!("quarterly report {i} on the beer catalogue");
                    server
                        .submit(SubmitRequest::new("summ").input("text", Data::Str(text)))
                        .unwrap()
                })
                .collect();
            for handle in &handles {
                assert!(handle.wait().is_ok());
            }
            let metrics = server.metrics();
            drop(server);
            assert_eq!(tracer.dropped(), 0);

            // Well-formed under concurrency: build() enforces unique timestamps,
            // balanced span edges, and parents open at child emission.
            let tree = TraceTree::build(&sink.events()).expect("well-formed multi-worker trace");
            assert_eq!(metrics.accepted, jobs as u64);
            assert_eq!(metrics.completed, jobs as u64, "distinct inputs never dedup");
            let executed: Vec<_> = tree
                .spans_of_kind(SpanKind::ServeJob)
                .into_iter()
                .filter(|j| j.attrs.get("path").map(String::as_str) == Some("executed"))
                .collect();
            assert_eq!(executed.len() as u64, metrics.completed);
            for job in &executed {
                assert_eq!(job.children.len(), 1, "one pipeline span per executed job");
                assert_eq!(job.children[0].kind, SpanKind::Pipeline);
            }
            assert_eq!(tree.total_usage(), metrics.llm);
        },
    );
}
