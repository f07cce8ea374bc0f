//! `ServeConfig::workers` is a count of CPU permits held by running jobs, not
//! of threads. A job whose completion waits in the batcher lends its permit
//! to a queued job at once — on a worker started for it when none is idle,
//! with no tick in the path — and the pool that grows so never
//! retires a worker, never passes the budget plus `queue_capacity` threads,
//! and joins every worker at `shutdown`. A wait the batcher does not mark —
//! an LLM call without one, which may well be compute — lends nothing.

use lingua_core::modules::{CustomModule, Module};
use lingua_core::{Compiler, ContextFactory, Data};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{BatchOutcome, CompletionRequest, LlmService, SimLlm, Usage};
use lingua_ml::sync::{Condvar, Mutex};
use lingua_serve::{
    BatchTuning, JobHandle, PipelineServer, ServeConfig, ServeError, SubmitRequest,
};
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

    /// Block `members` callers' worth until the gate opens.
    fn pass(&self, members: usize) {
        self.held.fetch_add(members, Ordering::SeqCst);
        let mut shut = self.shut.lock();
        while *shut {
            shut = self.opened.wait(shut);
        }
        drop(shut);
        self.held.fetch_sub(members, Ordering::SeqCst);
    }
}

impl LlmService for Gated {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        self.pass(requests.len());
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
}

/// Opens the gate when dropped, so a failing test does not hang its server's
/// shutdown on a worker blocked at it. Declare it after the server.
struct Unblock(Arc<Gated>);

impl Drop for Unblock {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A budget of one over `llm`, batched or not, with `queue_capacity` per
/// lane.
fn server(llm: &Arc<Gated>, batch: Option<BatchTuning>, queue_capacity: usize) -> PipelineServer {
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(llm) as Arc<dyn LlmService>),
        ServeConfig { workers: Some(1), queue_capacity, batch, ..Default::default() },
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
fn a_job_waiting_in_the_batcher_lends_its_permit_with_no_tick_in_the_path() {
    let llm = Gated::new();
    let server = server(&llm, batched(), 256);
    let _unblock = Unblock(Arc::clone(&llm));
    llm.shut();
    let handles = submit(&server, 0..3);
    // Each job's member blocks at the gate, so every running job waits in
    // the batcher while the next one is queued. No thread but the workers
    // runs: only the hand-off can start the jobs behind the first.
    eventually("a budget of one runs all three jobs", || llm.held.load(Ordering::SeqCst) == 3);
    let lent = server.metrics();
    assert_eq!(lent.workers, 1, "the CPU budget");
    assert_eq!((lent.health.live_workers, lent.health.peak_workers), (3, 3));
    assert_eq!(lent.queue_depth, 0);
    llm.open();
    for handle in handles {
        handle.wait().expect("every job completes");
    }
    // The pool that grew stays: its workers park like any other.
    std::thread::sleep(Duration::from_millis(20));
    let after = server.metrics();
    assert_eq!(after.health.live_workers, 3, "no worker retires");
    assert_eq!(after.health.workers_restarted, 0);
    assert_eq!(after.health.workers_gave_up, 0);
    assert!(after.report().contains("1 budget (3 live, 3 peak, 0 restarted"));
}

#[test]
fn a_wait_the_batcher_does_not_mark_never_grows_the_pool() {
    let llm = Gated::new();
    let server = server(&llm, None, 256);
    let _unblock = Unblock(Arc::clone(&llm));
    llm.shut();
    let handles = submit(&server, 0..3);
    eventually("the one worker blocks", || llm.held.load(Ordering::SeqCst) == 1);
    // Fifty milliseconds with two jobs queued behind a blocked job.
    std::thread::sleep(Duration::from_millis(50));
    let snap = server.metrics();
    assert_eq!(snap.health.live_workers, 1);
    assert_eq!(snap.queue_depth, 2);
    llm.open();
    for handle in handles {
        handle.wait().expect("every job completes");
    }
    assert_eq!(server.metrics().health.peak_workers, 1);
}

#[test]
fn a_flood_at_a_shut_gate_holds_the_pool_to_its_bound() {
    const QUEUE_CAPACITY: usize = 2;
    // The budget plus one lane's capacity (`DESIGN.md` §5).
    const BOUND: usize = 1 + QUEUE_CAPACITY;
    let llm = Gated::new();
    let server = server(&llm, batched(), QUEUE_CAPACITY);
    let _unblock = Unblock(Arc::clone(&llm));
    llm.shut();
    let (mut handles, mut refused) = (Vec::new(), 0);
    let mut flood = |jobs: std::ops::Range<usize>| {
        for i in jobs {
            let text = Data::Str(format!("flood document number {i}"));
            match server.submit(SubmitRequest::new("summ").input("text", text)) {
                Ok(handle) => handles.push(handle),
                Err(ServeError::Full { .. }) => refused += 1,
                Err(other) => panic!("unexpected refusal: {other}"),
            }
            let live = server.metrics().health.live_workers;
            assert!(live <= BOUND, "{live} workers alive, past the bound of {BOUND}");
        }
    };
    // Keep the queue topped up until every worker the bound allows waits at
    // the gate, then flood on.
    let mut submitted = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while llm.held.load(Ordering::SeqCst) < BOUND {
        assert!(Instant::now() < deadline, "timed out waiting for the pool to reach its bound");
        flood(submitted..submitted + 1);
        submitted += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    flood(submitted..submitted + 32);
    let snap = server.metrics();
    assert_eq!((snap.health.live_workers, snap.health.peak_workers), (BOUND, BOUND));
    assert_eq!(snap.queue_depth, QUEUE_CAPACITY as u64, "the rest wait for a worker");
    assert_eq!(handles.len() + refused, submitted + 32);
    assert_eq!(handles.len(), BOUND + QUEUE_CAPACITY, "the queue refused the others");
    llm.open();
    for handle in handles {
        handle.wait().expect("every admitted job completes");
    }
    assert_eq!(server.metrics().health.peak_workers, BOUND);
}

#[test]
fn shutdown_joins_every_grown_worker() {
    // From racing the first hand-off (a delay) to after the last (`None`:
    // all three jobs at the gate), shutdown stops the pool growing and joins
    // every worker it started.
    for delay_ms in [Some(0), Some(1), Some(2), Some(5), None] {
        let llm = Gated::new();
        let mut server = server(&llm, batched(), 256);
        let _unblock = Unblock(Arc::clone(&llm));
        llm.shut();
        let handles = submit(&server, 0..3);
        match delay_ms {
            Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
            None => eventually("the pool grows", || server.live_worker_count() == 3),
        }
        let opener = {
            let llm = Arc::clone(&llm);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                llm.open();
            })
        };
        server.shutdown();
        assert_eq!(server.live_worker_count(), 0, "every worker was joined");
        assert!(server.metrics().health.peak_workers <= 3);
        for handle in handles {
            handle.wait().expect("jobs admitted before shutdown finish");
        }
        opener.join().unwrap();
    }
}

#[test]
fn shutdown_with_a_job_queued_behind_no_free_permit_joins_every_parked_worker() {
    let llm = Gated::new();
    let mut server = server(&llm, batched(), 256);
    // `hold` blocks on its own gate with no `WaitMark`: it keeps its permit.
    let hold = Gated::new();
    let mut compiler = Compiler::with_builtins();
    let gate = Arc::clone(&hold);
    compiler.register("hold", move |_op, _ctx| {
        let gate = Arc::clone(&gate);
        Ok(Box::new(CustomModule::stateless("hold", move |input, _| {
            gate.pass(1);
            Ok(input)
        })) as Box<dyn Module>)
    });
    server.register_dsl("hold", "pipeline hold { out = hold(text); }", &compiler).unwrap();
    let (_unblock, _unhold) = (Unblock(Arc::clone(&llm)), Unblock(Arc::clone(&hold)));
    // Grow the pool to four at the shut gate, then let the jobs go: four
    // workers park.
    llm.shut();
    let grown = submit(&server, 0..4);
    eventually("the pool grows to four", || llm.held.load(Ordering::SeqCst) == 4);
    llm.open();
    for handle in grown {
        handle.wait().expect("every job completes");
    }
    // One `hold` job runs on the one permit; the next stays queued, and
    // three workers park behind it.
    hold.shut();
    let held = |i: usize| {
        let text = Data::Str(format!("held document number {i}"));
        server.submit(SubmitRequest::new("hold").input("text", text)).unwrap()
    };
    let (running, queued) = (held(0), held(1));
    eventually("the first hold job runs", || hold.held.load(Ordering::SeqCst) == 1);
    assert_eq!(server.metrics().queue_depth, 1);
    let (done, finished) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        let live = server.live_worker_count();
        done.send(()).unwrap();
        live
    });
    std::thread::sleep(Duration::from_millis(20));
    hold.open();
    if finished.recv_timeout(Duration::from_secs(10)).is_err() {
        panic!("shutdown still waits for a worker parked behind the last job");
    }
    assert_eq!(stopper.join().unwrap(), 0, "every worker was joined");
    running.wait().expect("the running job finishes");
    queued.wait().expect("the queued job is drained");
}
