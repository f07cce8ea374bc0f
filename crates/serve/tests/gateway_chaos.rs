//! Chaos serving: a full serve workload over a gateway whose primary backend
//! injects transient faults must complete with **zero job-level failures**
//! while a clean standby is there — the retry/failover machinery absorbs
//! everything before it reaches a job. Without one (the outage arm), a job
//! every attempt of which faults fails *typed*, and is never a success that
//! carries the withheld notice as its output.
//!
//! The fault rate defaults to the paper-level acceptance bar (20%) and can
//! be raised by the CI chaos job via `LINGUA_CHAOS_FAULT_RATE`.

use lingua_core::{Compiler, ContextFactory, CoreError, Data};
use lingua_dataset::world::WorldSpec;
use lingua_gateway::{FaultInjector, FaultPlan, Gateway, ServiceTransport};
use lingua_llm_sim::{LlmService, NoAnswer, SimLlm};
use lingua_serve::{PipelineServer, ServeConfig, ServeError, SubmitRequest};
use std::sync::Arc;

const SUMMARIZE: &str = r#"pipeline summ {
    out = summarize(text) using llm with { desc: "summarize the following document" };
}"#;

fn fault_rate() -> f64 {
    std::env::var("LINGUA_CHAOS_FAULT_RATE")
        .ok()
        .and_then(|raw| raw.parse::<f64>().ok())
        .filter(|rate| (0.0..=1.0).contains(rate))
        .unwrap_or(0.20)
}

/// Serve `jobs` unique summarize requests through a gateway with a flaky
/// primary (transient faults at `rate`) and a clean standby; assert every
/// job completes and the chaos stayed below the job layer.
fn run_chaos_workload(rate: f64, jobs: usize, workers: usize) {
    let world = WorldSpec::generate(61);
    let flaky = Arc::new(FaultInjector::new(
        "flaky-primary",
        Arc::new(SimLlm::with_seed(&world, 61)),
        FaultPlan::transient(rate, 777),
    ));
    let standby: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 61));
    let gateway = Arc::new(
        Gateway::builder()
            .backend(flaky)
            .backend(Arc::new(ServiceTransport::new("standby", standby)))
            .build(),
    );

    let factory = ContextFactory::new(Arc::clone(&gateway) as Arc<dyn LlmService>);
    let server = PipelineServer::start(
        factory,
        ServeConfig { workers: Some(workers), queue_capacity: jobs + 8, ..Default::default() },
    )
    .unwrap();
    server.attach_gateway(Arc::clone(&gateway));
    server.register_dsl("summ", SUMMARIZE, &Compiler::with_builtins()).unwrap();

    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            server
                .submit(
                    SubmitRequest::new("summ")
                        .input("text", Data::Str(format!("chaos document number {i}"))),
                )
                .expect("queue sized for the workload")
        })
        .collect();
    for handle in handles {
        let output = handle.wait().expect("no fault may surface as a job failure");
        assert!(output.get("out").is_ok());
        assert!(output.llm.calls >= 1);
    }

    let snap = server.metrics();
    assert_eq!(snap.completed, jobs as u64);
    assert_eq!(snap.failed, 0, "zero job-level failures at fault rate {rate}");
    let gw = snap.gateway.as_ref().expect("gateway attached");
    assert_eq!(
        gw.requests,
        gw.backends.iter().map(|b| b.counters.served).sum::<u64>() + gw.degraded()
    );
    assert_eq!(gw.degraded(), 0, "the clean standby absorbs every exhausted request");
    if rate >= 0.05 {
        assert!(gw.faults() > 0, "chaos at rate {rate} must actually inject faults");
    }
    assert!(snap.report().contains("gateway metrics"));
}

#[test]
fn serve_workload_survives_transient_chaos() {
    run_chaos_workload(fault_rate(), 48, 4);
}

/// The outage arm: the primary faults at `rate` with no standby and no
/// fallback. Every job ends completed or failed with the typed withheld
/// answer, no completed output is the withheld notice, and resubmitting a
/// failed job re-executes it instead of hitting the result cache.
#[test]
fn serve_workload_fails_typed_through_an_outage() {
    const JOBS: usize = 48;
    let rate = fault_rate();
    let world = WorldSpec::generate(61);
    let flaky = Arc::new(FaultInjector::new(
        "flaky-primary",
        Arc::new(SimLlm::with_seed(&world, 61)),
        FaultPlan::transient(rate, 777),
    ));
    let gateway = Arc::new(Gateway::over(flaky));
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(&gateway) as Arc<dyn LlmService>),
        ServeConfig { workers: Some(4), queue_capacity: JOBS + 8, ..Default::default() },
    )
    .unwrap();
    server.register_dsl("summ", SUMMARIZE, &Compiler::with_builtins()).unwrap();
    let request = |i: usize| {
        SubmitRequest::new("summ").input("text", Data::Str(format!("outage document {i}")))
    };

    let handles: Vec<_> = (0..JOBS)
        .map(|i| server.submit(request(i)).expect("queue sized for the workload"))
        .collect();
    let withheld = ServeError::Core(CoreError::NoAnswer(NoAnswer::Unavailable));
    let notice = Data::Str(NoAnswer::Unavailable.to_string());
    let mut failed = Vec::new();
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(output) => assert_ne!(output.get("out").unwrap(), &notice, "job {i}"),
            Err(err) => {
                assert_eq!(err, withheld, "job {i} failed untyped");
                failed.push(i);
            }
        }
    }
    let snap = server.metrics();
    assert_eq!(snap.completed + snap.failed, JOBS as u64);
    assert_eq!(snap.failed, failed.len() as u64);
    if rate >= 0.5 {
        assert!(!failed.is_empty(), "an outage at rate {rate} must withhold some answer");
    }
    for &i in &failed {
        let _ = server.run(request(i));
    }
    assert_eq!(server.metrics().cache_hits, 0, "a failed job is never a cached success");
}

/// Stress variant for the CI chaos job: near-total primary outage, bigger
/// workload. Run with `cargo test -- --ignored` (the chaos job does).
#[test]
#[ignore = "stress variant; the CI chaos job runs it with --include-ignored"]
fn serve_workload_survives_heavy_chaos() {
    run_chaos_workload(0.9, 96, 8);
}
