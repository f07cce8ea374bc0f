//! Crash-injection matrix for the serve layer: kill the simulated process
//! at every journal kill point, recover from whatever bytes survived, and
//! prove the recovered server converges to the exact outputs and LLM bill
//! of a run that never crashed.
//!
//! The crash model is crash-stop: once the injector fires, every journal
//! write is silently dropped (the "process" is dead — nothing it does
//! afterwards is observable), and recovery sees only the durable prefix.
//! Determinism comes from `SimLlm` — re-executing a lost job bills exactly
//! what the first execution billed — so the ledger reconciliation holds to
//! the cent, not approximately.

mod support;

use lingua_core::modules::{CustomModule, Module};
use lingua_core::{Compiler, ContextFactory, Data};
use lingua_dataset::world::WorldSpec;
use lingua_durable::{CrashInjector, Journal, JournalTuning, KillPoint, SimStorage};
use lingua_llm_sim::{LlmService, SimLlm, TokenPricing};
use lingua_serve::{fingerprint_inputs, PipelineServer, ServeConfig, ServeError, SubmitRequest};
use lingua_trace::{ring_tracer, SpanKind, TraceTree};
use std::sync::Arc;
use support::FailNextAppend;

const SEED: u64 = 77;
const CHECKPOINT_INTERVAL: usize = 8;

const CURATE: &str = r#"pipeline curate {
    out = summarize(text) using llm with { desc: "summarize the following document" };
}"#;

fn server_with(journal: JournalTuning) -> (PipelineServer, Arc<SimLlm>) {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(
        ContextFactory::new(llm.clone()),
        ServeConfig { workers: Some(2), journal: Some(journal), ..Default::default() },
    )
    .expect("server starts");
    server.register_dsl("curate", CURATE, &Compiler::with_builtins()).expect("register");
    (server, llm)
}

/// Distinct per-job inputs, so every job has its own fingerprint and its
/// own (deterministic) LLM bill.
fn request(i: usize) -> SubmitRequest {
    SubmitRequest::new("curate")
        .input("text", Data::Str(format!("brewery field report #{i}, batch {}", i * 31 % 7)))
}

/// Recovery after a crash at any kill point, at several occurrences, must
/// reproduce the uninterrupted run record-for-record — and the restored
/// ledger plus the replayed executions must bill exactly what the
/// uninterrupted run billed.
#[test]
fn recovery_matches_uninterrupted_at_every_kill_point() {
    const JOBS: usize = 12;

    // Reference: the run that never crashes.
    let (server, llm) = server_with(
        JournalTuning::sim(SimStorage::new()).with_checkpoint_interval(CHECKPOINT_INTERVAL),
    );
    let reference: Vec<String> =
        (0..JOBS).map(|i| server.run(request(i)).unwrap().get("out").unwrap().render()).collect();
    let reference_usage = llm.usage();
    assert!(reference_usage.calls > 0, "the workload must actually bill the LLM");
    // The checkpoint rows must crash a compaction the run itself triggered,
    // not only the one shutdown forces.
    let fired = server.journal().expect("journal attached").injector().counts();
    assert!(fired.contains_key(&KillPoint::AfterCheckpoint), "no compaction in {JOBS} jobs");
    drop(server);

    for point in KillPoint::ALL {
        for occurrence in [1u64, 5, 11] {
            // Run 1: dies at the armed kill point (or survives if the point
            // never fires that often — recovery must be a no-op then).
            let storage = SimStorage::new();
            let injector = CrashInjector::armed_at(point, occurrence);
            let tuning = JournalTuning::sim(storage.clone())
                .with_checkpoint_interval(CHECKPOINT_INTERVAL)
                .with_injector(injector.clone());
            let (server, _run1_llm) = server_with(tuning);
            for i in 0..JOBS {
                server.run(request(i)).unwrap();
                if server.journal().expect("journal attached").dead() {
                    break;
                }
            }
            // No clean shutdown: the process is gone. Only `storage` survives.
            drop(server);
            // Every point the serve path can reach must be reached at least
            // once, or its rows pass vacuously as "nothing happened".
            // `MidReport` is the stream engine's (see `stream_recovery`).
            if occurrence == 1 && point != KillPoint::MidReport {
                assert_eq!(
                    injector.counts().get(&point),
                    Some(&1),
                    "{}@1 never fired: raise JOBS until the journal reaches it",
                    point.as_str()
                );
            }

            // Run 2: recover from the surviving bytes and retry the whole
            // workload (the client's crash story: resubmit everything).
            let (server, llm) = server_with(
                JournalTuning::sim(storage).with_checkpoint_interval(CHECKPOINT_INTERVAL),
            );
            let label = format!("{}@{occurrence}", point.as_str());
            let snapshot = server.metrics().recovery.expect("journal surfaces recovery");
            assert!(
                snapshot.corrupt_records_skipped <= 1,
                "{label}: at most the torn tail record is lost, got {}",
                snapshot.corrupt_records_skipped
            );
            let resumed = server.resume_recovered().expect("resume");
            let snapshot = server.metrics().recovery.expect("recovery snapshot");
            assert_eq!(
                snapshot.resumed_jobs + snapshot.skipped_duplicates,
                resumed.len() as u64 + snapshot.skipped_duplicates,
                "{label}: resumption counters track the resubmissions"
            );
            for handle in resumed {
                handle.wait().unwrap_or_else(|err| panic!("{label}: resumed job failed: {err}"));
            }
            let outputs: Vec<String> = (0..JOBS)
                .map(|i| server.run(request(i)).unwrap().get("out").unwrap().render())
                .collect();
            assert_eq!(outputs, reference, "{label}: outputs diverge from the uninterrupted run");
            // Ledger reconciliation: restored (journaled) + replayed
            // (re-executed) == uninterrupted, field for field.
            let recovered_usage = llm.usage();
            assert_eq!(
                recovered_usage, reference_usage,
                "{label}: recovered + replayed bill must equal the uninterrupted bill"
            );
            let pricing = TokenPricing::default();
            assert!(
                (recovered_usage.cost_usd(&pricing) - reference_usage.cost_usd(&pricing)).abs()
                    < 1e-12,
                "{label}: ledger reconciles to the cent"
            );
        }
    }
}

/// A server without a journal surfaces no recovery snapshot; a fresh journal
/// surfaces an empty one.
#[test]
fn recovery_snapshot_surfaces_only_with_a_journal() {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(ContextFactory::new(llm), ServeConfig::default()).unwrap();
    assert!(server.metrics().recovery.is_none());
    drop(server);

    let (server, _llm) = server_with(JournalTuning::sim(SimStorage::new()));
    let snapshot = server.metrics().recovery.expect("fresh journal still reports");
    assert_eq!(snapshot.replayed, 0);
    assert_eq!(snapshot.corrupt_records_skipped, 0);
    let report = server.metrics().report();
    assert!(report.contains("recovery"), "operator report carries the recovery line:\n{report}");
}

/// Shutdown under load: jobs still queued when the pool can no longer run
/// them fail with typed [`ServeError::ShuttingDown`] — never silently
/// dropped — and stay journaled as pending so the next incarnation
/// resurrects them.
#[test]
fn shutdown_fails_queued_jobs_typed_and_keeps_them_journaled() {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let storage = SimStorage::new();
    let mut server = PipelineServer::start(
        ContextFactory::new(llm),
        ServeConfig {
            workers: Some(1),
            max_worker_restarts: 0,
            journal: Some(JournalTuning::sim(storage.clone())),
            ..Default::default()
        },
    )
    .unwrap();
    let mut compiler = Compiler::with_builtins();
    compiler.register("boom", |_op, _ctx| {
        Ok(Box::new(lingua_core::modules::CustomModule::stateless("boom", |_, _| {
            // Escapes catch_unwind containment: kills the worker thread, not
            // just the job — the only way to leave jobs truly unrunnable.
            std::panic::panic_any(lingua_serve::EscapePanic)
        })) as Box<dyn lingua_core::modules::Module>)
    });
    server.register_dsl("explode", "pipeline explode { out = boom(text); }", &compiler).unwrap();

    // Kill the only worker (restart budget 0), then queue jobs nobody can run.
    let crash = server
        .submit(SubmitRequest::new("explode").input("text", Data::Str("first".into())))
        .unwrap();
    assert!(matches!(crash.wait(), Err(ServeError::Panicked { .. })));
    let queued: Vec<_> = (0..2)
        .map(|i| {
            server
                .submit(
                    SubmitRequest::new("explode").input("text", Data::Str(format!("queued {i}"))),
                )
                .unwrap()
        })
        .collect();

    server.shutdown();
    for handle in &queued {
        assert!(
            matches!(handle.wait(), Err(ServeError::ShuttingDown)),
            "queued jobs fail typed, not silently dropped"
        );
    }
    drop(server);

    // The drained jobs were deliberately NOT journaled as failed: a new
    // incarnation sees them pending and can resurrect them.
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(
        ContextFactory::new(llm),
        ServeConfig { journal: Some(JournalTuning::sim(storage)), ..Default::default() },
    )
    .unwrap();
    // Clean shutdown compacts the log into one checkpoint frame, so the
    // drained jobs ride inside the checkpoint rather than as replayed tail
    // records — `replayed` only counts the tail.
    let snapshot = server.metrics().recovery.expect("recovery snapshot");
    assert_eq!(snapshot.corrupt_records_skipped, 0, "clean shutdown leaves no torn tail");
    // Two queued jobs (never run) plus the panicked job's failure record:
    // only the two drained ones come back pending.
    let resumed = server.resume_recovered().expect("resume");
    assert_eq!(resumed.len(), 0, "pipeline not registered yet: jobs stay stranded, not lost");
    server
        .register_dsl(
            "explode",
            "pipeline explode { out = clean(text) using llm with { desc: \"clean\" }; }",
            &Compiler::with_builtins(),
        )
        .unwrap();
    let resumed = server.resume_recovered().expect("resume again");
    assert_eq!(resumed.len(), 2, "both drained jobs resurrect once the pipeline exists");
    for handle in resumed {
        handle.wait().expect("resurrected jobs run to completion");
    }
}

/// A storage error while resuming is transient, not terminal: the call
/// reports it, and every job it did not resume — the refused one included —
/// is still pending for the next call.
#[test]
fn resume_after_a_storage_error_loses_no_recovered_job() {
    const JOBS: usize = 4;
    // A crashed incarnation's log: four jobs accepted, none finished.
    let log = SimStorage::new();
    let (journal, _) = Journal::open(JournalTuning::sim(log.clone())).expect("fresh log opens");
    for i in 0..JOBS {
        let inputs = request(i).inputs;
        journal.record_job_accepted("curate", fingerprint_inputs(&inputs), &inputs).unwrap();
    }
    drop(journal);

    let storage = FailNextAppend::over(log);
    let (server, _llm) = server_with(JournalTuning::over(storage.clone()));
    storage.arm();
    let err = server.resume_recovered().expect_err("the accept record cannot be journaled");
    assert!(matches!(err, ServeError::Journal { .. }), "got {err:?}");
    assert_eq!(server.recovery().expect("journaled server").resumed_jobs, 0);

    let resumed = server.resume_recovered().expect("the storage error was transient");
    assert_eq!(resumed.len(), JOBS, "every recovered job is resumed, the refused one included");
    for handle in resumed {
        handle.wait().expect("resumed jobs run to completion");
    }
    assert_eq!(server.recovery().expect("journaled server").resumed_jobs, JOBS as u64);
    assert!(server.resume_recovered().expect("nothing left").is_empty());
}

/// A `finished` record that fails to append must not fail the job — the
/// waiter gets its output — but it must not vanish either: the journal still
/// holds the job as pending, so the next recovery re-executes and re-bills
/// it. The server counts the lost append and marks it on the job's span.
#[test]
fn a_lost_finished_append_is_counted_and_the_job_still_answers() {
    let log = SimStorage::new();
    let storage = FailNextAppend::over(log.clone());
    let world = WorldSpec::generate(SEED);
    let (tracer, sink) = ring_tracer(1 << 10);
    let server = PipelineServer::start(
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, SEED))).with_tracer(tracer),
        ServeConfig {
            workers: Some(1),
            journal: Some(JournalTuning::over(storage.clone())),
            ..Default::default()
        },
    )
    .expect("server starts");
    // `arm` runs inside the job — after its `accepted` and `started` records,
    // before its `finished` — so the append it fails is exactly that one.
    let mut compiler = Compiler::with_builtins();
    let armed = Arc::clone(&storage);
    compiler.register("arm", move |_op, _ctx| {
        let storage = Arc::clone(&armed);
        Ok(Box::new(CustomModule::stateless("arm", move |input, _| {
            storage.arm();
            Ok(input)
        })) as Box<dyn Module>)
    });
    const ARMED: &str = r#"pipeline armed {
        held = arm(text);
        out = summarize(held) using llm with { desc: "summarize the following document" };
    }"#;
    server.register_dsl("armed", ARMED, &compiler).expect("register");

    let output = server
        .run(SubmitRequest::new("armed").input("text", Data::Str("brewery field report".into())))
        .expect("the job's result stands without its journal record");
    assert!(!output.get("out").expect("out is bound").render().is_empty());

    let metrics = server.metrics();
    assert_eq!(metrics.journal_append_errors, 1);
    assert_eq!((metrics.accepted, metrics.completed), (1, 1));
    assert_eq!(metrics.accepted, metrics.finished() + metrics.deduped(), "accepted == Σ terminals");
    drop(server);

    let tree = TraceTree::build(&sink.events()).expect("the mark lands on a span that is open");
    let jobs = tree.spans_of_kind(SpanKind::ServeJob);
    let marks: Vec<_> = jobs
        .iter()
        .flat_map(|job| &job.instants)
        .filter(|i| i.name == "journal_append_failed")
        .collect();
    assert_eq!(marks.len(), 1, "{jobs:?}");
    assert_eq!(marks[0].attrs.get("record").map(String::as_str), Some("finished"));

    // What the counter warns of: the next incarnation finds the job pending.
    let (_journal, recovered) = Journal::open(JournalTuning::sim(log)).expect("the log reopens");
    assert_eq!(recovered.pending.len(), 1, "the answered job comes back to be run again");
}
