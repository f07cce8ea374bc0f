//! The worker pool's CPU budget grows while every busy job waits in the
//! batcher: `ServeConfig::workers` counts the threads that may compute, not
//! the jobs that may wait. A queued job and a pool whose every job waits in
//! the batcher make the supervisor add a worker; a grown worker retires after
//! a tick with nothing queued; a retired slot is never restarted; and
//! `shutdown` joins every grown worker. A wait the batcher does not mark — an
//! LLM call without one, which may well be compute — never grows the pool.

use lingua_core::{Compiler, ContextFactory, Data};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{
    BatchOutcome, CodeGenSpec, CompletionRequest, GeneratedCode, LlmService, SimLlm, Usage,
};
use lingua_ml::sync::{Condvar, Mutex};
use lingua_serve::{BatchTuning, JobHandle, PipelineServer, ServeConfig, SubmitRequest};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SUMMARIZE: &str = r#"pipeline summ {
    out = summarize(text) using llm with { desc: "summarize the following document" };
}"#;

/// A simulator behind a gate: while it is shut, every completion blocks.
struct Gated {
    inner: SimLlm,
    shut: Mutex<bool>,
    opened: Condvar,
    /// Members of the completion calls blocked at the gate right now.
    held: AtomicUsize,
}

impl Gated {
    fn new() -> Arc<Gated> {
        Arc::new(Gated {
            inner: SimLlm::with_seed(&WorldSpec::generate(29), 29),
            shut: Mutex::new(false),
            opened: Condvar::new(),
            held: AtomicUsize::new(0),
        })
    }

    fn shut(&self) {
        *self.shut.lock() = true;
    }

    fn open(&self) {
        *self.shut.lock() = false;
        self.opened.notify_all();
    }
}

impl LlmService for Gated {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        self.held.fetch_add(requests.len(), Ordering::SeqCst);
        let mut shut = self.shut.lock();
        while *shut {
            shut = self.opened.wait(shut);
        }
        drop(shut);
        self.held.fetch_sub(requests.len(), Ordering::SeqCst);
        self.inner.complete_batch(requests)
    }
    fn embed(&self, text: &str) -> Vec<f64> {
        self.inner.embed(text)
    }
    fn usage(&self) -> Usage {
        self.inner.usage()
    }
    fn simulated_latency_ms(&self) -> u64 {
        self.inner.simulated_latency_ms()
    }
    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
        self.inner.generate_code(spec)
    }
    fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
        self.inner.suggest_fix(source, failures)
    }
    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        self.inner.repair_code(spec, previous, suggestion)
    }
}

/// Opens the gate when dropped, so a failing test does not hang its server's
/// shutdown on a worker blocked at it. Declare it after the server.
struct Unblock(Arc<Gated>);

impl Drop for Unblock {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// One budgeted worker over `llm`, batched or not, with a fast tick.
fn server(llm: &Arc<Gated>, batch: Option<BatchTuning>) -> PipelineServer {
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(llm) as Arc<dyn LlmService>),
        ServeConfig {
            workers: Some(1),
            supervisor_tick: Duration::from_millis(1),
            batch,
            ..Default::default()
        },
    )
    .unwrap();
    server.register_dsl("summ", SUMMARIZE, &Compiler::with_builtins()).unwrap();
    server
}

fn batched() -> Option<BatchTuning> {
    Some(BatchTuning { max_batch_size: 8, max_wait: Duration::from_millis(1) })
}

fn submit(server: &PipelineServer, jobs: std::ops::Range<usize>) -> Vec<JobHandle> {
    jobs.map(|i| {
        let text = Data::Str(format!("pool growth document number {i}"));
        server.submit(SubmitRequest::new("summ").input("text", text)).unwrap()
    })
    .collect()
}

/// Poll `done` for up to ten seconds.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn the_pool_grows_while_every_job_waits_in_the_batcher_and_then_retires() {
    let llm = Gated::new();
    let server = server(&llm, batched());
    let _unblock = Unblock(Arc::clone(&llm));
    llm.shut();
    let handles = submit(&server, 0..3);
    // Each job's member blocks at the gate, so every running job waits in
    // the batcher while the next one is queued.
    eventually("all three jobs run", || llm.held.load(Ordering::SeqCst) == 3);
    let grown = server.metrics();
    assert_eq!(grown.workers, 1, "the CPU budget");
    assert_eq!(grown.health.live_workers, 3);
    assert_eq!(grown.health.peak_workers, 3);
    assert_eq!(grown.health.workers_grown, 2);
    llm.open();
    for handle in handles {
        handle.wait().expect("every job completes");
    }
    // Nothing is queued any more: each grown worker retires after a tick.
    eventually("the grown workers retire", || server.metrics().health.live_workers == 1);
    std::thread::sleep(Duration::from_millis(20));
    let retired = server.metrics();
    assert_eq!(retired.health.workers_retired, 2);
    assert_eq!(retired.health.live_workers, 1, "a retired slot is never restarted");
    assert_eq!(retired.health.workers_restarted, 0);
    assert_eq!(retired.health.workers_gave_up, 0);
    assert_eq!(retired.health.peak_workers, 3);
    assert!(retired.report().contains("1 budget (1 live, 3 peak, 2 grown, 2 retired"));
}

#[test]
fn a_wait_the_batcher_does_not_mark_never_grows_the_pool() {
    let llm = Gated::new();
    let server = server(&llm, None);
    let _unblock = Unblock(Arc::clone(&llm));
    llm.shut();
    let handles = submit(&server, 0..3);
    eventually("the one worker blocks", || llm.held.load(Ordering::SeqCst) == 1);
    // Fifty ticks with two jobs queued behind a blocked job.
    std::thread::sleep(Duration::from_millis(50));
    let snap = server.metrics();
    assert_eq!((snap.health.live_workers, snap.health.workers_grown), (1, 0));
    assert_eq!(snap.queue_depth, 2);
    llm.open();
    for handle in handles {
        handle.wait().expect("every job completes");
    }
    assert_eq!(server.metrics().health.peak_workers, 1);
}

#[test]
fn shutdown_joins_every_grown_worker() {
    let llm = Gated::new();
    let mut server = server(&llm, batched());
    let _unblock = Unblock(Arc::clone(&llm));
    llm.shut();
    let handles = submit(&server, 0..3);
    eventually("the pool grows", || server.metrics().health.live_workers == 3);
    let opener = {
        let llm = Arc::clone(&llm);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            llm.open();
        })
    };
    server.shutdown();
    assert_eq!(server.live_worker_count(), 0, "every worker, grown or budgeted, was joined");
    for handle in handles {
        handle.wait().expect("jobs running at shutdown finish");
    }
    opener.join().unwrap();
}
