//! The streaming curation engine: windows, watermarks, incremental ER, and
//! window-close jobs on the serving substrate.
//!
//! [`StreamEngine`] is deliberately thin. Event-time bookkeeping (which
//! windows a record joins, when the watermark closes them) lives under one
//! mutex and is pure arithmetic; everything expensive rides infrastructure
//! the repo already hardened:
//!
//! - window-close work is submitted as **jobs to `lingua-serve`**, so it
//!   gets panic isolation, deadlines, dedup, and the sharded result cache
//!   for free;
//! - candidate judgments go through the **LLM service the context factory
//!   provides** (wrap it in a gateway for retries/hedging — the engine
//!   doesn't care);
//! - every window is a **cross-thread trace span** (`stream_window`), with
//!   watermark advances and late drops as instants, so `lingua-trace` tools
//!   reconstruct stream behavior the same way they do batch jobs.
//!
//! Work per record is O(window occupancy): the blocking probe only touches
//! the record's own windows ([`WindowState::insert`]), never accumulated
//! history. The conservation laws the metrics promise
//! ([`StreamSnapshot::record_conservation_holds`]) are enforced by tests
//! under sustained concurrent load.

use crate::error::StreamError;
use crate::incremental::{record_keys, WindowState};
use crate::metrics::{StreamMetrics, StreamSnapshot};
use crate::report::WindowReport;
use crate::window::{closed_through, windows_for, StreamTuning, Watermark, WindowId};
use lingua_core::modules::{CustomModule, Module};
use lingua_core::validation::OutputValidator;
use lingua_core::{Compiler, ContextFactory, CoreError, Data, LogicalOp, Pipeline};
use lingua_dataset::generators::stream::StreamItem;
use lingua_dataset::Schema;
use lingua_durable::{Journal, KillPoint, StreamCheckpoint, WindowCloseRecord, WindowReportRecord};
use lingua_ml::rng::splitmix64;
use lingua_ml::sync::Mutex;
use lingua_serve::{
    JobHandle, MetricsSnapshot, PipelineServer, Priority, ServeConfig, ServeError, SubmitRequest,
};
use lingua_trace::{SpanKind, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Pipeline id the engine registers for window-close reports.
pub const WINDOW_PIPELINE: &str = "stream_window_report";

/// Full engine configuration: event-time tuning plus execution knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Window/slide/watermark-interval, validated at [`StreamEngine::start`].
    pub tuning: StreamTuning,
    /// How far (in event-time ticks) the watermark trails the frontier.
    /// Records more out-of-order than this are dropped late.
    pub allowed_lateness: u64,
    /// Schema column whose tokens drive window-scoped blocking.
    pub key_column: String,
    /// Stop-token threshold for the per-window blocking index.
    pub max_block_size: usize,
    /// Serving substrate configuration for window-close jobs.
    pub serve: ServeConfig,
    /// Backpressure: how many times a window-close submission retries after
    /// [`ServeError::Full`] before giving up. Together with
    /// `submit_backoff` this is the total stall budget ingest will absorb
    /// before surfacing the overload to the source — the default tolerates
    /// several seconds of saturated queue, which unoptimized debug builds
    /// actually hit.
    pub submit_retries: u32,
    /// Pause between backpressure retries.
    pub submit_backoff: Duration,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            tuning: StreamTuning::default(),
            allowed_lateness: 8,
            key_column: "beer_name".to_string(),
            max_block_size: 24,
            serve: ServeConfig::default(),
            submit_retries: 10_000,
            submit_backoff: Duration::from_micros(500),
        }
    }
}

/// Event-time state, all under one mutex: which windows are open, where the
/// watermark stands, and how far the frontier has advanced.
struct EngineState {
    open: BTreeMap<u64, WindowState>,
    watermark: Watermark,
    max_event_time: u64,
    /// Ingests since the watermark was last recomputed.
    since_advance: u64,
    /// Window ids whose report was already handed to the application —
    /// restored from the journal on recovery. Defense in depth for the
    /// recovery invariant "never re-close an already-reported window": the
    /// watermark floor already blocks these (a report implies a journaled
    /// watermark past the window's end), but the set makes the invariant
    /// structural rather than emergent.
    reported: BTreeSet<u64>,
}

/// A submitted window job awaiting its result: the window's close record,
/// whose inputs went into the submission, and the job's handle.
struct PendingWindow {
    close: WindowCloseRecord,
    handle: JobHandle,
}

/// Windowed, incremental streaming curation over the serving substrate.
///
/// `ingest` is safe to call from many threads; `finish` must be called after
/// every ingesting thread has quiesced (the natural shape: producers join,
/// then the driver drains).
pub struct StreamEngine {
    tuning: StreamTuning,
    allowed_lateness: u64,
    key_index: usize,
    max_block_size: usize,
    submit_retries: u32,
    submit_backoff: Duration,
    schema: Schema,
    server: PipelineServer,
    tracer: Tracer,
    metrics: StreamMetrics,
    state: Mutex<EngineState>,
    pending: Mutex<Vec<PendingWindow>>,
    /// The server's write-ahead journal, when `serve.journal` is configured.
    /// Every ingest/watermark/close/report event is recorded through it so a
    /// restarted engine resumes from the journaled stream state.
    journal: Option<Arc<Journal>>,
    /// Whether the most recent `ingest` made it to durable storage — `false`
    /// only under crash injection, where it tells the harness exactly which
    /// item the simulated process lost in flight.
    last_ingest_durable: AtomicBool,
}

/// The canonical entity-match prompt (the exact shape `SimLlm`'s
/// entity-match behavior parses and pins its answer format on).
pub(crate) fn entity_prompt(a: &str, b: &str) -> String {
    format!(
        "Please determine if the following two records refer to the same entity.\n\
         Record A: {a}\nRecord B: {b}\nAnswer yes or no."
    )
}

/// Conservative verdict parse: anything the yes/no validator can't read with
/// confidence is a non-match (same policy as the batch matcher).
fn is_yes(response: &str) -> bool {
    matches!(OutputValidator::YesNo.validate(response), Some(Data::Bool(true)))
}

fn int_field(map: &BTreeMap<String, Data>, key: &str) -> i64 {
    match map.get(key) {
        Some(Data::Int(n)) => *n,
        _ => 0,
    }
}

/// The window-close module: judges the payload's candidate pairs (if any)
/// and returns the `{judged, matched}` totals.
fn window_report_module() -> CustomModule {
    CustomModule::stateless("window_report", |input, ctx| {
        let payload = input.as_map().ok_or(CoreError::DataShape {
            expected: "map payload with pairs",
            got: "non-map window payload".to_string(),
        })?;
        let (mut judged, mut matched) = (0, 0);
        if let Some(pairs) = payload.get("pairs").and_then(Data::as_list) {
            for pair in pairs {
                // Cooperative cancellation between judgments, so a deadline
                // on a window job stops the batch rather than finishing it.
                ctx.cancel.check().map_err(|reason| CoreError::Cancelled { reason })?;
                let Some(pair) = pair.as_map() else { continue };
                let a = pair.get("a").and_then(Data::as_str).unwrap_or("");
                let b = pair.get("b").and_then(Data::as_str).unwrap_or("");
                // A non-answer fails the window job, typed (cancelled for a
                // dead job); it is never read as a verdict.
                let response = ctx.complete(entity_prompt(a, b))?;
                judged += 1;
                if is_yes(&response) {
                    matched += 1;
                }
            }
        }
        Ok(Data::map([
            ("judged".to_string(), Data::Int(judged)),
            ("matched".to_string(), Data::Int(matched)),
        ]))
    })
}

impl StreamEngine {
    /// Start the engine: validate the tuning (so a zero window or slide >
    /// window fails *here*, typed), boot the server, and register the
    /// window-report pipeline.
    pub fn start(
        factory: ContextFactory,
        schema: Schema,
        config: StreamConfig,
    ) -> Result<StreamEngine, StreamError> {
        let key_index = schema
            .index_of(&config.key_column)
            .ok_or_else(|| StreamError::UnknownKeyColumn { column: config.key_column.clone() })?;
        config.tuning.validate()?;

        let tracer = factory.tracer().clone();

        // Compile the window-report pipeline against the same factory the
        // server will replicate contexts from.
        let mut compiler = Compiler::with_builtins();
        compiler.register("window_report", |_op, _ctx| {
            Ok(Box::new(window_report_module()) as Box<dyn Module>)
        });
        let logical = Pipeline::new(WINDOW_PIPELINE)
            .op(LogicalOp::new("window_report").output("report").input("payload"));
        let mut ctx = factory.build();
        // The pipeline is statically constructed above, so compilation can
        // only fail on a compiler regression — but that is still a reachable
        // error path, so it surfaces typed instead of panicking the caller.
        let physical = compiler
            .compile(&logical, &mut ctx)
            .map_err(|err| StreamError::Serve(ServeError::Core(err)))?;

        let server = PipelineServer::start(factory, config.serve)?;
        server.register_pipeline(WINDOW_PIPELINE, physical)?;

        let journal = server.journal();
        let engine = StreamEngine {
            tuning: config.tuning,
            allowed_lateness: config.allowed_lateness,
            key_index,
            max_block_size: config.max_block_size,
            submit_retries: config.submit_retries,
            submit_backoff: config.submit_backoff,
            schema,
            server,
            tracer,
            metrics: StreamMetrics::new(),
            state: Mutex::new(EngineState {
                open: BTreeMap::new(),
                watermark: Watermark::new(),
                max_event_time: 0,
                since_advance: 0,
                reported: BTreeSet::new(),
            }),
            pending: Mutex::new(Vec::new()),
            journal,
            last_ingest_durable: AtomicBool::new(true),
        };
        let recovered = engine.server.recovered_stream();
        engine.restore(recovered)?;
        Ok(engine)
    }

    /// Rebuild stream state from a journaled [`StreamCheckpoint`]: restore
    /// the watermark and frontier, reopen every open window by re-inserting
    /// its items (the index is deterministic, so candidates and comparison
    /// counts come back identical), resubmit every closed-but-unreported
    /// window job, and remember reported windows so they are never closed
    /// twice.
    fn restore(&self, checkpoint: StreamCheckpoint) -> Result<(), StreamError> {
        use std::sync::atomic::Ordering::Relaxed;
        if checkpoint == StreamCheckpoint::default() {
            return Ok(());
        }
        let span = self.tracer.begin(SpanKind::Recovery, "stream_restore", || {
            vec![
                ("open_windows".to_string(), checkpoint.open_windows.len().to_string()),
                ("unreported".to_string(), checkpoint.closed_unreported.len().to_string()),
                ("reported".to_string(), checkpoint.reported.len().to_string()),
            ]
        });
        let closings = {
            let mut state = self.state.lock();
            state.max_event_time = checkpoint.max_event_time;
            self.metrics.max_event_time.store(checkpoint.max_event_time, Relaxed);
            state.watermark.advance(checkpoint.watermark);
            state.reported = checkpoint.reported.keys().copied().collect();
            for (k, items) in checkpoint.open_windows {
                self.metrics.windows_opened.fetch_add(1, Relaxed);
                let mut window = WindowState::new(WindowId(k));
                let (start, end) = window.id.range(&self.tuning);
                window.span = Some(self.tracer.begin(SpanKind::StreamWindow, "window", || {
                    vec![
                        ("window".to_string(), k.to_string()),
                        ("start".to_string(), start.to_string()),
                        ("end".to_string(), end.to_string()),
                        ("restored".to_string(), "true".to_string()),
                    ]
                }));
                for item in items {
                    let outcome = window.insert(item, self.key_index, self.max_block_size);
                    self.metrics.comparisons.fetch_add(outcome.candidates.len() as u64, Relaxed);
                }
                state.open.insert(k, window);
            }
            // The journaled watermark is only a lower bound: the advance
            // triggered by the final durable ingest may itself have died in
            // flight. The frontier *is* exact (every ingest journals before
            // its effects are observable), so re-derive the watermark from
            // it — with `watermark_interval == 1` this makes post-recovery
            // late-drop decisions identical to the uninterrupted run's.
            let rederived = checkpoint.max_event_time.saturating_sub(self.allowed_lateness);
            let mut closings = self.advance_watermark_locked(&mut state, rederived);
            self.metrics.watermark.store(state.watermark.get(), Relaxed);
            // The crash may also have landed between a *journaled* advance
            // and the closes it triggered: any restored window already below
            // the restored floor closes right now, exactly as it would have.
            if let Some(through) = closed_through(&self.tuning, state.watermark.get()) {
                let ready: Vec<u64> = state.open.range(..=through).map(|(k, _)| *k).collect();
                for k in ready {
                    // Key just came from a range scan of this map under the
                    // same lock.
                    let window = state.open.remove(&k).expect("ready window is open");
                    closings.push(self.close_window(window));
                }
            }
            closings
        };
        for close in closings {
            self.submit_close(close)?;
        }
        // Closed-but-unreported windows: the close was durable but the
        // report never went out. Resubmit the journaled record as it is; if
        // the job itself finished before the crash, the serve layer's
        // restored result cache answers without re-executing (exactly-once).
        for (_, close) in checkpoint.closed_unreported {
            self.metrics.windows_opened.fetch_add(1, Relaxed);
            self.metrics.windows_closed.fetch_add(1, Relaxed);
            self.submit_pending(close)?;
        }
        self.tracer.end(span, Vec::new);
        Ok(())
    }

    /// Ingest one record: assign it to its windows, probe the window-scoped
    /// blocking index, and — every `watermark_interval` ingests — advance
    /// the watermark and close any window it passed.
    pub fn ingest(&self, item: StreamItem) -> Result<(), StreamError> {
        use std::sync::atomic::Ordering::Relaxed;
        if self.journal.as_ref().is_some_and(|journal| journal.dead()) {
            // Simulated crash: the dead process accepts nothing more. The
            // harness observes this through [`StreamEngine::dead`]; this
            // ingest did nothing, so it was by definition not durable (the
            // kill may have fired on a concurrent worker thread between
            // calls, leaving the previous call's flag stale-true).
            self.last_ingest_durable.store(false, std::sync::atomic::Ordering::Relaxed);
            return Ok(());
        }
        // The record's blocking keys are its own, whichever windows take it.
        let keys = record_keys(&item, self.key_index);
        let mut closings = Vec::new();
        {
            let mut state = self.state.lock();
            // Decide, journal, apply — in that order, so that an ingest the
            // journal refuses has touched neither a window nor a counter.
            let floor = closed_through(&self.tuning, state.watermark.get());
            let mut landed_windows = Vec::new();
            let mut missed = 0u64;
            for k in windows_for(&self.tuning, item.event_time) {
                if floor.is_some_and(|f| k <= f) || state.reported.contains(&k) {
                    missed += 1;
                } else {
                    landed_windows.push(k);
                }
            }

            if let Some(journal) = &self.journal {
                // Journaled even when no window took the item: the record
                // still moved the event-time frontier, and recovery must see
                // the same frontier the crashed process saw. A journal I/O
                // failure refuses the ingest (the caller must not believe a
                // record is durable when it is not).
                let durable = journal
                    .record_stream_ingest(&item, &landed_windows)
                    .map_err(|err| ServeError::Journal { reason: err.to_string() })?;
                self.last_ingest_durable.store(durable, Relaxed);
            }

            self.metrics.ingested.fetch_add(1, Relaxed);
            if item.event_time > state.max_event_time {
                state.max_event_time = item.event_time;
                self.metrics.max_event_time.store(item.event_time, Relaxed);
            }
            if landed_windows.is_empty() {
                self.metrics.late_dropped.fetch_add(1, Relaxed);
                let t = item.event_time;
                self.tracer.instant(SpanKind::StreamWindow, "late_drop", || {
                    vec![("event_time".to_string(), t.to_string())]
                });
            } else {
                self.metrics.assigned_records.fetch_add(1, Relaxed);
                self.metrics.assignments.fetch_add(landed_windows.len() as u64, Relaxed);
                self.metrics.missed_assignments.fetch_add(missed, Relaxed);
            }

            // Every window the record lands in holds the same allocation.
            let item = Arc::new(item);
            for k in landed_windows {
                let window = state.open.entry(k).or_insert_with(|| {
                    self.metrics.windows_opened.fetch_add(1, Relaxed);
                    let mut w = WindowState::new(WindowId(k));
                    let (start, end) = w.id.range(&self.tuning);
                    w.span = Some(self.tracer.begin(SpanKind::StreamWindow, "window", || {
                        vec![
                            ("window".to_string(), k.to_string()),
                            ("start".to_string(), start.to_string()),
                            ("end".to_string(), end.to_string()),
                        ]
                    }));
                    w
                });
                let outcome = window.insert_keyed(Arc::clone(&item), &keys, self.max_block_size);
                self.metrics.comparisons.fetch_add(outcome.candidates.len() as u64, Relaxed);
            }

            state.since_advance += 1;
            if state.since_advance >= self.tuning.watermark_interval {
                state.since_advance = 0;
                let candidate = state.max_event_time.saturating_sub(self.allowed_lateness);
                closings = self.advance_watermark_locked(&mut state, candidate);
            }
        }
        for close in closings {
            self.submit_close(close)?;
        }
        Ok(())
    }

    /// Advance the watermark (monotone) and pull every window it passed out
    /// of the open set. Must hold the state lock; returns the closes to
    /// submit *after* releasing it, so backpressure retries never hold it.
    fn advance_watermark_locked(
        &self,
        state: &mut EngineState,
        candidate: u64,
    ) -> Vec<WindowCloseRecord> {
        use std::sync::atomic::Ordering::Relaxed;
        if !state.watermark.advance(candidate) {
            return Vec::new();
        }
        let watermark = state.watermark.get();
        self.metrics.watermark_advances.fetch_add(1, Relaxed);
        self.metrics.watermark.store(watermark, Relaxed);
        self.tracer.instant(SpanKind::StreamWindow, "watermark_advance", || {
            vec![("watermark".to_string(), watermark.to_string())]
        });
        if let Some(journal) = &self.journal {
            // Best-effort: losing a watermark record only means recovery
            // replays from an older (smaller) watermark, which is always
            // safe — windows re-close deterministically.
            let _ = journal.record_watermark(watermark, state.max_event_time);
        }
        let Some(through) = closed_through(&self.tuning, watermark) else {
            return Vec::new();
        };
        let ready: Vec<u64> = state.open.range(..=through).map(|(k, _)| *k).collect();
        ready
            .into_iter()
            .map(|k| {
                // Invariant: the key came from a range scan of this same map
                // under the same lock, so the entry must still be present.
                let window = state.open.remove(&k).expect("ready window is open");
                self.close_window(window)
            })
            .collect()
    }

    /// Turn a closed window into its close record: the report's metadata and
    /// the inputs of the window job that judges its candidate pairs.
    fn close_window(&self, mut window: WindowState) -> WindowCloseRecord {
        use std::sync::atomic::Ordering::Relaxed;
        self.metrics.windows_closed.fetch_add(1, Relaxed);
        let records = window.occupancy();
        let candidate_pairs = window.candidates().len();
        let comparisons = window.comparisons();
        if let Some(span) = window.span.take() {
            self.tracer.end(span, || {
                vec![
                    ("records".to_string(), records.to_string()),
                    ("candidates".to_string(), candidate_pairs.to_string()),
                ]
            });
        }
        let (start, end) = window.id.range(&self.tuning);
        let pairs = window
            .candidates()
            .iter()
            .map(|&pair| {
                let (a, b) = window.describe_pair(pair, &self.schema);
                Data::map([("a".to_string(), Data::Str(a)), ("b".to_string(), Data::Str(b))])
            })
            .collect();
        let payload = Data::map([
            ("pairs".to_string(), Data::List(pairs)),
            ("window".to_string(), Data::Int(window.id.0 as i64)),
        ]);
        WindowCloseRecord {
            window: window.id.0,
            start,
            end,
            records,
            candidate_pairs,
            comparisons,
            true_duplicates: window.true_duplicate_pairs(),
            inputs: BTreeMap::from([("payload".to_string(), payload)]),
        }
    }

    /// Submit a window job, journaling the close first so a crash between
    /// close and report leaves the window resubmittable.
    fn submit_close(&self, close: WindowCloseRecord) -> Result<(), StreamError> {
        if let Some(journal) = &self.journal {
            journal
                .record_window_close(close.clone())
                .map_err(|err| ServeError::Journal { reason: err.to_string() })?;
            if journal.dead() {
                // Simulated crash during the close record: the dead process
                // never submits the job; recovery resubmits it (or re-closes
                // the window) from whatever the journal kept.
                return Ok(());
            }
        }
        self.submit_pending(close)
    }

    /// Deterministic backoff jitter in `[0.5, 1.5) × base`, decorrelated
    /// across windows and attempts (splitmix64 avalanche) so synchronized
    /// closers don't stampede the queue in lockstep — while keeping replay
    /// runs byte-identical (no wall-clock or RNG state involved).
    fn jittered(base: Duration, window: u64, attempt: u32) -> Duration {
        let mut state = window.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(u64::from(attempt));
        let z = splitmix64(&mut state);
        // Map the hash's top bits onto [500, 1500) thousandths of the base.
        let thousandths = 500 + ((z >> 44) % 1000) as u32;
        base * thousandths / 1000
    }

    /// The backpressure retry loop: resubmit through [`ServeError::Full`]
    /// with jittered backoff until the retry budget is exhausted, then
    /// surface [`StreamError::Saturated`] with the exact attempt count. The
    /// close's inputs go into the submission; the pending window keeps the
    /// rest of the record.
    fn submit_pending(&self, mut close: WindowCloseRecord) -> Result<(), StreamError> {
        use std::sync::atomic::Ordering::Relaxed;
        let mut request = SubmitRequest::new(WINDOW_PIPELINE).priority(Priority::High);
        request.inputs = std::mem::take(&mut close.inputs);
        let mut attempts = 0u32;
        let handle = loop {
            match self.server.submit(request.clone()) {
                Ok(handle) => break handle,
                Err(ServeError::Full { .. }) if attempts < self.submit_retries => {
                    attempts += 1;
                    self.metrics.backpressure_stalls.fetch_add(1, Relaxed);
                    std::thread::sleep(Self::jittered(self.submit_backoff, close.window, attempts));
                }
                Err(ServeError::Full { .. }) => {
                    return Err(StreamError::Saturated { attempts });
                }
                Err(err) => return Err(err.into()),
            }
        };
        self.pending.lock().push(PendingWindow { close, handle });
        Ok(())
    }

    /// Drain the stream: push the watermark past the frontier so every open
    /// window closes, wait for every window job, and return the reports in
    /// window order. Call after all ingesting threads have quiesced.
    pub fn finish(&self) -> Result<Vec<WindowReport>, StreamError> {
        use std::sync::atomic::Ordering::Relaxed;
        if self.journal.as_ref().is_some_and(|journal| journal.dead()) {
            // A crashed process hands out nothing; whatever the journal
            // kept is the next incarnation's to report.
            return Ok(Vec::new());
        }
        let closings = {
            let mut state = self.state.lock();
            let horizon = state.max_event_time + self.tuning.window + self.allowed_lateness + 1;
            self.advance_watermark_locked(&mut state, horizon)
        };
        for close in closings {
            self.submit_close(close)?;
        }
        let pending = std::mem::take(&mut *self.pending.lock());
        let mut reports = Vec::with_capacity(pending.len());
        for PendingWindow { close, handle } in pending {
            if self.journal.as_ref().is_some_and(|journal| journal.dead()) {
                // Simulated crash: unreported windows stay journaled as
                // closed-unreported; the next incarnation reports them.
                break;
            }
            let output = handle.wait()?;
            let verdicts = output.get("report")?.as_map().cloned().unwrap_or_default();
            let report = WindowReportRecord {
                window: close.window,
                start: close.start,
                end: close.end,
                records: close.records,
                candidate_pairs: close.candidate_pairs,
                comparisons: close.comparisons,
                judged: int_field(&verdicts, "judged").max(0) as u64,
                matched: int_field(&verdicts, "matched").max(0) as u64,
                true_duplicates: close.true_duplicates,
                llm: output.llm,
            };
            if let Some(journal) = &self.journal {
                // Write-ahead ordering: the report is journaled as submitted
                // *before* it is handed to the application, so a recovered
                // engine never emits a report the caller already saw — and
                // `MidReport` kills the simulated process in the gap where
                // the job finished but the report never went out.
                if journal.injector().fire(KillPoint::MidReport) {
                    break;
                }
                let durable = journal
                    .record_report_submitted(report.clone())
                    .map_err(|err| ServeError::Journal { reason: err.to_string() })?;
                if !durable {
                    break;
                }
            }
            self.state.lock().reported.insert(report.window);
            self.metrics.pairs_judged.fetch_add(report.judged, Relaxed);
            self.metrics.pairs_matched.fetch_add(report.matched, Relaxed);
            self.metrics.reports.fetch_add(1, Relaxed);
            reports.push(WindowReport::from(report));
        }
        reports.sort_by_key(|r| r.window.0);
        Ok(reports)
    }

    /// Streaming counters (exact under quiescence).
    pub fn metrics(&self) -> StreamSnapshot {
        self.metrics.snapshot()
    }

    /// The backing server's counters (job paths, cache, LLM usage billed by
    /// window jobs).
    pub fn server_metrics(&self) -> MetricsSnapshot {
        self.server.metrics()
    }

    /// Current watermark position.
    pub fn watermark(&self) -> u64 {
        self.state.lock().watermark.get()
    }

    /// The attached write-ahead journal, if the serve config carried one.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.journal.clone()
    }

    /// Whether the simulated process has crashed (always false without a
    /// journal, or with an inert injector).
    pub fn dead(&self) -> bool {
        self.journal.as_ref().is_some_and(|journal| journal.dead())
    }

    /// Whether the most recent [`StreamEngine::ingest`] reached durable
    /// storage. Only meaningful under crash injection, where it tells the
    /// harness whether the last item fed before death was journaled (resume
    /// after it) or lost in flight (resume *at* it).
    pub fn last_ingest_durable(&self) -> bool {
        self.last_ingest_durable.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Stop the backing server (idempotent; also runs on drop).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{StreamSource, SyntheticSource};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::{SimLlm, SimLlmConfig};

    fn engine() -> (StreamEngine, SyntheticSource) {
        let world = WorldSpec::generate(5);
        let llm = Arc::new(SimLlm::new(&world, SimLlmConfig::default()));
        let factory = ContextFactory::new(llm);
        let source = SyntheticSource::with_seed(5);
        let schema = source.schema().clone();
        let config = StreamConfig {
            serve: ServeConfig { workers: Some(2), ..ServeConfig::default() },
            ..StreamConfig::default()
        };
        (StreamEngine::start(factory, schema, config).expect("engine starts"), source)
    }

    #[test]
    fn unknown_key_column_fails_at_start() {
        let world = WorldSpec::generate(1);
        let llm = Arc::new(SimLlm::new(&world, SimLlmConfig::default()));
        let factory = ContextFactory::new(llm);
        let schema = SyntheticSource::with_seed(1).schema().clone();
        let config = StreamConfig { key_column: "color".to_string(), ..StreamConfig::default() };
        let err = match StreamEngine::start(factory, schema, config) {
            Ok(_) => panic!("start must reject an unknown key column"),
            Err(e) => e,
        };
        assert_eq!(err, StreamError::UnknownKeyColumn { column: "color".to_string() });
    }

    #[test]
    fn broken_tuning_fails_at_start_typed() {
        let world = WorldSpec::generate(1);
        let llm: Arc<dyn lingua_llm_sim::LlmService> =
            Arc::new(SimLlm::new(&world, SimLlmConfig::default()));
        let schema = SyntheticSource::with_seed(1).schema().clone();
        let fine = StreamTuning::default();
        let cases = [
            (StreamTuning { window: 0, ..fine }, StreamError::ZeroWindow, "window"),
            (StreamTuning { slide: 0, ..fine }, StreamError::ZeroSlide, "slide"),
            (
                StreamTuning { window: 8, slide: 16, watermark_interval: 4 },
                StreamError::SlideExceedsWindow { slide: 16, window: 8 },
                "slide (16 ticks) exceeds the window (8 ticks)",
            ),
            (
                StreamTuning { watermark_interval: 0, ..fine },
                StreamError::ZeroWatermarkInterval,
                "watermark_interval",
            ),
        ];
        for (tuning, expected, knob) in cases {
            let config = StreamConfig { tuning, ..StreamConfig::default() };
            let factory = ContextFactory::new(Arc::clone(&llm));
            let err = match StreamEngine::start(factory, schema.clone(), config) {
                Ok(_) => panic!("start must reject {tuning:?}"),
                Err(e) => e,
            };
            assert_eq!(err, expected);
            assert!(err.to_string().contains(knob), "{err} should name {knob}");
        }
        // Tumbling (slide == window) and sliding (slide < window) both pass.
        assert_eq!(
            StreamTuning { window: 16, slide: 16, watermark_interval: 1 }.validate(),
            Ok(())
        );
        assert_eq!(fine.validate(), Ok(()));
    }

    #[test]
    fn end_to_end_close_reports_and_conserves() {
        let (mut engine, mut source) = engine();
        for item in source.take_records(800) {
            engine.ingest(item).expect("ingest");
        }
        let reports = engine.finish().expect("finish");
        assert!(!reports.is_empty(), "800 records over 64-tick windows close many windows");
        let snap = engine.metrics();
        assert!(snap.record_conservation_holds(), "{}", snap.report());
        assert!(snap.window_conservation_holds(), "{}", snap.report());
        assert_eq!(snap.windows_open, 0, "finish() closes every window");
        assert_eq!(snap.reports, reports.len() as u64);
        // Every landed membership ended up in exactly one closed window.
        let closed_records: usize = reports.iter().map(|r| r.records).sum();
        assert_eq!(closed_records as u64, snap.assignments);
        // The matcher found real duplicates and judged every candidate.
        let judged: u64 = reports.iter().map(|r| r.judged).sum();
        let matched: u64 = reports.iter().map(|r| r.matched).sum();
        assert_eq!(judged, snap.pairs_judged);
        assert_eq!(matched, snap.pairs_matched);
        assert!(matched > 0, "seeded duplicates must surface as matches");
        // Every judgment is a window job's call.
        assert!(engine.server_metrics().llm.calls >= judged);
        // Window ids are sorted and unique.
        for pair in reports.windows(2) {
            assert!(pair[0].window.0 < pair[1].window.0);
        }
        engine.shutdown();
    }

    /// Sim storage that fails one append on request (a full disk, an EIO).
    struct FlakyStorage {
        inner: Arc<lingua_durable::SimStorage>,
        fail_next_append: AtomicBool,
    }

    impl lingua_durable::Storage for FlakyStorage {
        fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
            if self.fail_next_append.swap(false, std::sync::atomic::Ordering::Relaxed) {
                return Err(std::io::Error::other("no space left on device"));
            }
            self.inner.append(bytes)
        }
        fn read(&self) -> std::io::Result<Vec<u8>> {
            self.inner.read()
        }
        fn replace(&self, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.replace(bytes)
        }
        fn flush(&self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_refused_ingest_leaves_nothing_behind() {
        let world = WorldSpec::generate(5);
        let llm = Arc::new(SimLlm::new(&world, SimLlmConfig::default()));
        let mut source = SyntheticSource::with_seed(5);
        let storage = Arc::new(FlakyStorage {
            inner: lingua_durable::SimStorage::new(),
            fail_next_append: AtomicBool::new(false),
        });
        let config = StreamConfig {
            serve: ServeConfig {
                workers: Some(1),
                journal: Some(lingua_durable::JournalTuning::over(storage.clone())),
                ..ServeConfig::default()
            },
            ..StreamConfig::default()
        };
        let mut engine =
            StreamEngine::start(ContextFactory::new(llm), source.schema().clone(), config)
                .expect("engine starts");
        let occupancy = |engine: &StreamEngine| -> Vec<(u64, usize)> {
            engine.state.lock().open.iter().map(|(k, w)| (*k, w.occupancy())).collect()
        };

        let mut items = source.take_records(41);
        let refused = items.pop().expect("41 items");
        for item in items {
            engine.ingest(item).expect("ingest");
        }
        let (windows, counters) = (occupancy(&engine), engine.metrics());
        assert!(windows.len() >= 2, "overlapping windows are open: {windows:?}");

        storage.fail_next_append.store(true, std::sync::atomic::Ordering::Relaxed);
        let err = engine.ingest(refused.clone()).expect_err("the journal refused the record");
        assert!(matches!(err, StreamError::Serve(ServeError::Journal { .. })), "{err:?}");
        assert_eq!(occupancy(&engine), windows, "a refused record is in no window");
        assert_eq!(engine.metrics(), counters, "a refused record is in no counter");

        // The caller retries: the record lands once, in each of its windows.
        engine.ingest(refused.clone()).expect("retry");
        let mut expected: BTreeMap<u64, usize> = windows.into_iter().collect();
        for k in windows_for(&engine.tuning, refused.event_time) {
            *expected.entry(k).or_default() += 1;
        }
        assert_eq!(occupancy(&engine), expected.into_iter().collect::<Vec<_>>());
        let after = engine.metrics();
        assert_eq!(after.ingested, counters.ingested + 1);
        assert_eq!(after.assigned_records, counters.assigned_records + 1);
        engine.shutdown();
    }

    #[test]
    fn same_seed_same_reports() {
        let run = |n: usize| {
            let (mut engine, mut source) = engine();
            for item in source.take_records(n) {
                engine.ingest(item).expect("ingest");
            }
            let reports = engine.finish().expect("finish");
            engine.shutdown();
            reports
                .iter()
                .map(|r| (r.window.0, r.records, r.candidate_pairs, r.judged, r.matched))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(500), run(500), "event-time replay is deterministic");
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_decorrelated() {
        let base = Duration::from_micros(1000);
        let mut distinct = std::collections::HashSet::new();
        for window in 0..40u64 {
            for attempt in 1..=10u32 {
                let d = StreamEngine::jittered(base, window, attempt);
                // Replay-stable: no wall clock or RNG state involved.
                assert_eq!(d, StreamEngine::jittered(base, window, attempt));
                // Bounded to [0.5, 1.5) x base — backoff never collapses to
                // zero and never balloons.
                assert!(d >= base / 2 && d < base * 3 / 2, "{window}@{attempt}: {d:?}");
                distinct.insert(d);
            }
        }
        // Decorrelated: synchronized closers spread out instead of
        // stampeding the queue in lockstep.
        assert!(distinct.len() > 100, "only {} distinct delays", distinct.len());
        // Pinned: the delays move only if the hash behind them does.
        assert_eq!(StreamEngine::jittered(base, 0, 1), Duration::from_micros(582));
        assert_eq!(StreamEngine::jittered(base, 7, 3), Duration::from_micros(1388));
    }
}
