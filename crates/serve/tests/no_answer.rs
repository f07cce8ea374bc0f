//! A completion without an answer is a type all the way up: a withheld
//! answer fails its job (journaled `failed`, never cached, billed nothing),
//! and a refused call in a dead job ends it `cancelled` / `deadline_exceeded`
//! — never a success that carries a notice as its output, and never a
//! `failed` that was really a deadline. And the gateway's resend and owed
//! verdicts are the batcher's alone: they reach no module, output or error.

use lingua_core::modules::{LlmModule, LlmgcModule, Module, PromptBuilder};
use lingua_core::tools::ToolRegistry;
use lingua_core::validation::OutputValidator;
use lingua_core::{
    Compiler, ContextFactory, CoreError, Data, ExecContext, LogicalOp, PhysicalPipeline,
};
use lingua_dataset::world::WorldSpec;
use lingua_durable::{JournalReader, JournalRecord, JournalTuning, SimStorage, Storage};
use lingua_gateway::{FaultInjector, FaultPlan, Gateway};
use lingua_llm_sim::{CancelReason, CancelToken, CodeGenSpec, LlmService, NoAnswer, SimLlm, Usage};
use lingua_serve::{PipelineServer, ServeConfig, ServeError, SubmitRequest};
use std::sync::Arc;
use std::time::Duration;

const SUMMARIZE: &str = r#"pipeline summ {
    out = summarize(text) using llm with { desc: "summarize the following document" };
}"#;

fn sim(seed: u64) -> Arc<SimLlm> {
    let world = WorldSpec::generate(seed);
    Arc::new(SimLlm::with_seed(&world, seed))
}

/// A gateway whose only backend sheds every call at the door: rate-limited
/// calls bill nothing, and with no standby and no fallback every request
/// ends withheld.
fn shedding_gateway() -> Arc<Gateway> {
    let plan = FaultPlan { rate_limit_rate: 1.0, ..FaultPlan::none(7) };
    Arc::new(Gateway::over(Arc::new(FaultInjector::new("shedding", sim(7), plan))))
}

#[test]
fn a_withheld_answer_fails_the_job_typed_and_is_never_cached() {
    let gateway = shedding_gateway();
    let storage = SimStorage::new();
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(&gateway) as Arc<dyn LlmService>),
        ServeConfig {
            workers: Some(1),
            journal: Some(JournalTuning::sim(storage.clone())),
            ..Default::default()
        },
    )
    .unwrap();
    server.attach_gateway(Arc::clone(&gateway));
    server.register_dsl("summ", SUMMARIZE, &Compiler::with_builtins()).unwrap();
    let request =
        || SubmitRequest::new("summ").input("text", Data::Str("a document nobody answers".into()));

    let withheld = ServeError::Core(CoreError::NoAnswer(NoAnswer::Unavailable));
    assert_eq!(server.run(request()).unwrap_err(), withheld);
    // The resubmission re-executes — a failure is never a cached success.
    assert_eq!(server.run(request()).unwrap_err(), withheld);

    let snap = server.metrics();
    assert_eq!((snap.completed, snap.failed, snap.cache_hits), (0, 2, 0));
    let mut metered = snap.llm;
    metered.merge(&snap.llm_partial);
    let ledger = gateway.usage();
    assert_eq!(ledger, Usage::default(), "shed calls bill nothing");
    assert_eq!(metered, ledger, "the jobs were metered what the ledger billed: nothing");

    let records = JournalReader::scan(&storage.read().unwrap()).records;
    let failed = records.iter().filter(|r| matches!(r, JournalRecord::JobFailed { .. })).count();
    assert_eq!(failed, 2);
    assert!(!records.iter().any(|r| matches!(r, JournalRecord::JobFinished(_))));
}

#[test]
fn an_already_cancelled_llm_module_places_one_refused_request() {
    let gateway = Arc::new(Gateway::over(Arc::new(FaultInjector::new(
        "healthy",
        sim(8),
        FaultPlan::none(8),
    ))));
    let token = CancelToken::unbounded();
    token.cancel();
    let mut ctx = ExecContext::new(Arc::clone(&gateway) as Arc<dyn LlmService>).with_cancel(token);
    let mut module = LlmModule::new(
        "matcher",
        PromptBuilder::PairJudgment { description: "Same entity?".into(), examples: vec![] },
        OutputValidator::YesNo,
    );
    let input = Data::map([
        ("a".to_string(), Data::Str("beer_name: Hoppy Badger".into())),
        ("b".to_string(), Data::Str("beer_name: Hoppy Badger".into())),
    ]);
    // The refusal is not output: neither validated nor retried.
    let err = module.invoke(input, &mut ctx).unwrap_err();
    assert_eq!(err, CoreError::Cancelled { reason: CancelReason::Cancelled });
    let snap = gateway.snapshot();
    assert_eq!((snap.requests, snap.cancelled), (1, 1));
    assert_eq!(gateway.usage(), Usage::default());
}

#[test]
fn a_deadline_during_a_scripts_call_llm_ends_the_job_deadline_exceeded() {
    // The tool naps past the job's deadline, so the script's next
    // `call_llm` is refused for a dead job.
    let mut tools = ToolRegistry::new();
    tools.register("nap", |_args| {
        std::thread::sleep(Duration::from_millis(60));
        Ok(Data::Null.to_script())
    });
    let llm = sim(9);
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(&llm) as Arc<dyn LlmService>).with_tools(tools),
        ServeConfig { workers: Some(1), ..Default::default() },
    )
    .unwrap();
    let spec =
        CodeGenSpec { task: "summarize".into(), function_name: "process".into(), hints: vec![] };
    let module = LlmgcModule::from_source(
        "late_summary",
        spec,
        r#"fn process(text) { call_tool("nap"); return call_llm("Summarize.\nText: " + text); }"#,
    )
    .unwrap();
    server
        .register_pipeline(
            "late",
            PhysicalPipeline {
                name: "late".into(),
                ops: vec![(
                    LogicalOp::new("late_summary").output("out").input("text"),
                    Box::new(module) as Box<dyn Module>,
                )],
            },
        )
        .unwrap();
    let err = server
        .run(
            SubmitRequest::new("late")
                .input("text", Data::Str("too late to ask".into()))
                .timeout(Duration::from_millis(30)),
        )
        .unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "got {err:?}");
    let snap = server.metrics();
    assert_eq!((snap.deadline_exceeded, snap.failed), (1, 0));
    assert_eq!(llm.usage().calls, 0, "the refused call was never placed");
}

fn chaos_rate() -> f64 {
    std::env::var("LINGUA_CHAOS_FAULT_RATE")
        .ok()
        .and_then(|raw| raw.parse::<f64>().ok())
        .filter(|rate| (0.0..=1.0).contains(rate))
        .unwrap_or(0.20)
}

#[test]
fn a_resend_verdict_never_leaves_the_batcher_and_meters_still_reconcile() {
    // Member-scoped and connection-scoped faults alike, behind a batcher and
    // no standby: members are re-sent, cut calls leave members unreached,
    // and some members spend their budget and are withheld. None of it may
    // reach a job as anything but an answer or a typed `Unavailable`.
    let rate = chaos_rate();
    let plan = FaultPlan {
        timeout_rate: rate / 3.0,
        rate_limit_rate: rate / 3.0,
        transient_rate: rate / 3.0,
        ..FaultPlan::none(13)
    };
    let gateway = Arc::new(Gateway::over(Arc::new(FaultInjector::new("flaky", sim(13), plan))));
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(&gateway) as Arc<dyn LlmService>),
        ServeConfig {
            workers: Some(2),
            batch: Some(lingua_serve::BatchTuning {
                max_batch_size: 4,
                max_wait: Duration::from_millis(1),
            }),
            ..Default::default()
        },
    )
    .unwrap();
    server.attach_gateway(Arc::clone(&gateway));
    server.register_dsl("summ", SUMMARIZE, &Compiler::with_builtins()).unwrap();
    // Fixed-width inputs: every prompt bills the same input tokens.
    let handles: Vec<_> = (0..24)
        .map(|i| {
            let text = Data::Str(format!("resend document number {i:04}"));
            server.submit(SubmitRequest::new("summ").input("text", text)).unwrap()
        })
        .collect();
    let notice = NoAnswer::Resend { attempts: 1 }.to_string();
    let owed = NoAnswer::Owed.to_string();
    let mut prompt_tokens = Vec::new();
    for handle in handles {
        match handle.wait() {
            Ok(output) => {
                let out = output.get("out").unwrap().render();
                assert!(!out.contains(&notice), "a resend verdict became output: {out}");
                assert!(!out.contains(&owed), "an owed verdict became output: {out}");
                prompt_tokens.push(output.llm.tokens_in);
            }
            Err(err) => assert_eq!(
                err,
                ServeError::Core(CoreError::NoAnswer(NoAnswer::Unavailable)),
                "only a withheld answer fails a job"
            ),
        }
    }
    let snap = server.metrics();
    assert_eq!(snap.completed + snap.failed, 24);
    let batch = snap.batch.as_ref().expect("batched");
    let gw = snap.gateway.as_ref().expect("attached");
    assert_eq!(gw.requests, 24, "each member resolved by the gateway once");

    // The jobs were metered every answer they got; the ledger also billed
    // the input tokens of each aborted call (timeouts and transient
    // faults), which no job received. To the token, so to the cent.
    let mut metered = snap.llm;
    metered.merge(&snap.llm_partial);
    let ledger = gateway.usage();
    let per_prompt = prompt_tokens.first().copied().unwrap_or(0);
    assert!(prompt_tokens.iter().all(|&tokens| tokens == per_prompt));
    assert_eq!(metered.calls, ledger.calls);
    assert_eq!(metered.tokens_out, ledger.tokens_out);
    assert_eq!(metered.tokens_in + ledger.failed_calls * per_prompt, ledger.tokens_in);
    assert!(batch.members >= 24, "re-sent members ride again");
}
