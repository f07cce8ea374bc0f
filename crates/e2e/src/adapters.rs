//! Every implementation of a workspace trait the benchmark owns, in one
//! file: when `LlmService` (ROADMAP item 2) or another of these traits is
//! reshaped, this is the only file of the benchmark that has to follow.
//!
//! Untraced runs use exactly one adapter — [`ProviderTransport`], the
//! `er_provider` workload's model of a serialised provider connection. The
//! rest are the traced phase's probes: they time calls from outside the
//! layers, because this PR may not add spans inside them.

use lingua_core::modules::{Module, ModuleKind};
use lingua_core::{CoreError, Data, ExecContext};
use lingua_durable::Storage;
use lingua_gateway::{LlmTransport, TransportError};
use lingua_llm_sim::{
    BatchOutcome, CodeGenSpec, CompletionRequest, GeneratedCode, LlmService, Usage,
};
use lingua_trace::{Phase, SpanKind, TraceEvent, TraceSink};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Durations of the calls one probe saw, in nanoseconds.
#[derive(Default)]
pub struct CallClock {
    samples: Mutex<Vec<u64>>,
}

impl CallClock {
    pub fn time<T>(&self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.push(start.elapsed());
        out
    }

    fn push(&self, took: Duration) {
        self.samples.lock().expect("clock mutex poisoned").push(took.as_nanos() as u64);
    }

    pub fn calls(&self) -> usize {
        self.samples.lock().expect("clock mutex poisoned").len()
    }

    pub fn total_s(&self) -> f64 {
        self.samples.lock().expect("clock mutex poisoned").iter().sum::<u64>() as f64 / 1e9
    }

    /// Every sample, in microseconds.
    pub fn micros(&self) -> Vec<f64> {
        self.samples
            .lock()
            .expect("clock mutex poisoned")
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect()
    }
}

/// The provider connection both backends of `er_provider` share: one wire
/// call at a time, each paying `toll` of wire latency, so a batched flush
/// pays once for all of its members.
pub struct Wire {
    toll: Duration,
    connection: Mutex<()>,
    wire_calls: AtomicU64,
    /// Time spent queueing for the connection plus sleeping on it, and the
    /// sleeping alone.
    toll_ns: AtomicU64,
    sleep_ns: AtomicU64,
    /// Time inside the backend behind the wire; `Some` in traced phases.
    pub backend: Option<CallClock>,
}

impl Wire {
    pub fn new(toll: Duration, timed: bool) -> Arc<Wire> {
        Arc::new(Wire {
            toll,
            connection: Mutex::new(()),
            wire_calls: AtomicU64::new(0),
            toll_ns: AtomicU64::new(0),
            sleep_ns: AtomicU64::new(0),
            backend: timed.then(CallClock::default),
        })
    }

    pub fn wire_calls(&self) -> u64 {
        self.wire_calls.load(Ordering::Relaxed)
    }

    pub fn toll_s(&self) -> f64 {
        self.toll_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn sleep_s(&self) -> f64 {
        self.sleep_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn call<T>(&self, backend: impl FnOnce() -> T) -> T {
        self.wire_calls.fetch_add(1, Ordering::Relaxed);
        if !self.toll.is_zero() {
            let start = Instant::now();
            let _connection = self.connection.lock().expect("wire mutex poisoned");
            let sleeping = Instant::now();
            std::thread::sleep(self.toll);
            self.sleep_ns.fetch_add(sleeping.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.toll_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        match &self.backend {
            Some(clock) => clock.time(backend),
            None => backend(),
        }
    }
}

/// A backend reached over a [`Wire`]. Only completions cross it; embeddings
/// and the compile-time code-generation endpoints pass straight through.
pub struct ProviderTransport {
    inner: Arc<dyn LlmTransport>,
    wire: Arc<Wire>,
}

impl ProviderTransport {
    pub fn new(inner: Arc<dyn LlmTransport>, wire: Arc<Wire>) -> ProviderTransport {
        ProviderTransport { inner, wire }
    }
}

impl LlmTransport for ProviderTransport {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<String, TransportError> {
        self.wire.call(|| self.inner.complete(request))
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Result<BatchOutcome, TransportError> {
        self.wire.call(|| self.inner.complete_batch(requests))
    }

    fn embed(&self, text: &str) -> Result<Vec<f64>, TransportError> {
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

/// Times the completion entry points of the service below it. One sits
/// above the batcher and one below, so their difference is the batch wait.
pub struct TimedService {
    inner: Arc<dyn LlmService>,
    pub clock: CallClock,
}

impl TimedService {
    pub fn new(inner: Arc<dyn LlmService>) -> Arc<TimedService> {
        Arc::new(TimedService { inner, clock: CallClock::default() })
    }
}

impl LlmService for TimedService {
    fn complete(&self, request: &CompletionRequest) -> String {
        self.clock.time(|| self.inner.complete(request))
    }

    fn complete_shared(&self, request: &CompletionRequest) -> Arc<str> {
        self.clock.time(|| self.inner.complete_shared(request))
    }

    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        self.clock.time(|| self.inner.complete_batch(requests))
    }

    fn embed(&self, text: &str) -> Vec<f64> {
        self.inner.embed(text)
    }

    fn usage(&self) -> Usage {
        self.inner.usage()
    }

    fn restore_usage(&self, usage: &Usage) {
        self.inner.restore_usage(usage);
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

/// Times every invocation of the per-record module inside a map stage; all
/// replicas report to one clock.
pub struct TimedModule {
    inner: Box<dyn Module>,
    clock: Arc<CallClock>,
}

impl TimedModule {
    pub fn new(inner: Box<dyn Module>, clock: Arc<CallClock>) -> TimedModule {
        TimedModule { inner, clock }
    }
}

impl Module for TimedModule {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> ModuleKind {
        self.inner.kind()
    }

    fn invoke(&mut self, input: Data, ctx: &mut ExecContext) -> Result<Data, CoreError> {
        let start = Instant::now();
        let out = self.inner.invoke(input, ctx);
        self.clock.push(start.elapsed());
        out
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        let inner = self.inner.fresh_instance()?;
        Some(Box::new(TimedModule { inner, clock: Arc::clone(&self.clock) }))
    }
}

/// What the journal did to its storage, seen from the `Storage` boundary.
#[derive(Default)]
pub struct StorageLog {
    pub appends: u64,
    pub appended_bytes: u64,
    pub append_ns: Vec<u64>,
    pub checkpoints: u64,
    /// Bytes of every checkpoint written, and of the last one.
    pub checkpoint_bytes_total: u64,
    pub checkpoint_bytes_last: u64,
    /// From the end of the append that tripped the interval to the end of the
    /// `replace`: folding, cloning and encoding the checkpoint, then writing
    /// and syncing it. The journal holds its lock across both calls, so
    /// nothing else can fall into the gap.
    pub checkpoint_ns: u64,
    pub flushes: u64,
    /// Append and checkpoint time spent on the benchmark's own driver thread
    /// (`main`): the stream workload ingests there, and its ingest time is
    /// reported net of this.
    pub driver_ns: u64,
    last_append_end: Option<Instant>,
}

impl StorageLog {
    pub fn append_s(&self) -> f64 {
        self.append_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Calls that end in a `sync_all`: explicit flushes and checkpoint
    /// replaces.
    pub fn fsyncs(&self) -> u64 {
        self.flushes + self.checkpoints
    }
}

fn on_driver_thread() -> bool {
    std::thread::current().name() == Some("main")
}

pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    log: Mutex<StorageLog>,
}

impl TimedStorage {
    pub fn new(inner: Arc<dyn Storage>) -> Arc<TimedStorage> {
        Arc::new(TimedStorage { inner, log: Mutex::new(StorageLog::default()) })
    }

    pub fn take_log(&self) -> StorageLog {
        std::mem::take(&mut *self.log.lock().expect("storage log poisoned"))
    }
}

impl Storage for TimedStorage {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.append(bytes);
        let end = Instant::now();
        let mut log = self.log.lock().expect("storage log poisoned");
        log.appends += 1;
        log.appended_bytes += bytes.len() as u64;
        log.append_ns.push((end - start).as_nanos() as u64);
        if on_driver_thread() {
            log.driver_ns += (end - start).as_nanos() as u64;
        }
        log.last_append_end = Some(end);
        out
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        self.inner.read()
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.replace(bytes);
        let end = Instant::now();
        let mut log = self.log.lock().expect("storage log poisoned");
        log.checkpoints += 1;
        log.checkpoint_bytes_total += bytes.len() as u64;
        log.checkpoint_bytes_last = bytes.len() as u64;
        let since = log.last_append_end.take().unwrap_or(start);
        log.checkpoint_ns += (end - since).as_nanos() as u64;
        if on_driver_thread() {
            log.driver_ns += (end - since).as_nanos() as u64;
        }
        out
    }

    fn flush(&self) -> io::Result<()> {
        self.log.lock().expect("storage log poisoned").flushes += 1;
        self.inner.flush()
    }
}

/// One edge of a span as the repo's tracer emitted it, stamped with wall
/// time on arrival. The tracer's own clock is logical by design.
pub struct Stamp {
    pub span: u64,
    pub parent: Option<u64>,
    pub phase: Phase,
    pub kind: SpanKind,
    pub ns: u64,
}

/// Keeps every stamp in memory; [`crate::spans::SpanTimes`] reads them once
/// the phase has ended.
pub struct WallSink {
    origin: Instant,
    stamps: Mutex<Vec<Stamp>>,
}

impl WallSink {
    pub fn new() -> Arc<WallSink> {
        Arc::new(WallSink { origin: Instant::now(), stamps: Mutex::new(Vec::new()) })
    }

    pub fn take(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.stamps.lock().expect("stamp mutex poisoned"))
    }
}

impl TraceSink for WallSink {
    fn record(&self, event: TraceEvent) {
        let ns = self.origin.elapsed().as_nanos() as u64;
        self.stamps.lock().expect("stamp mutex poisoned").push(Stamp {
            span: event.span,
            parent: event.parent,
            phase: event.phase,
            kind: event.kind,
            ns,
        });
    }
}
