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
//! - candidate judgments are the **standard pair judge's numbered prompts**,
//!   through the LLM service the context factory provides (wrap it in a
//!   gateway for retries/hedging — the engine doesn't care), and a pair is
//!   asked once for as long as the engine remembers it, whether overlapping
//!   windows share it or the stream repeats it ([`crate::carry`]);
//! - every window is a **cross-thread trace span** (`stream_window`), with
//!   watermark advances and late drops as instants, so `lingua-trace` tools
//!   reconstruct stream behavior the same way they do batch jobs.
//!
//! Work per record is O(window occupancy): the blocking probe only touches
//! the record's own windows ([`WindowState::insert`]), never accumulated
//! history. The conservation laws the metrics promise
//! ([`StreamSnapshot::record_conservation_holds`]) are enforced by tests
//! under sustained concurrent load.

use crate::carry::{pair_key, payload_keys, Horizon};
use crate::error::StreamError;
use crate::incremental::{record_keys, WindowState};
use crate::metrics::{StreamMetrics, StreamSnapshot};
use crate::report::WindowReport;
use crate::window::{closed_through, windows_for, StreamTuning, Watermark, WindowId};
use lingua_core::modules::{CustomModule, LlmModule, Module, PromptBuilder, LIST_PROMPT_MEMBERS};
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

/// Stop-token threshold for the per-window blocking index.
const MAX_BLOCK_SIZE: usize = 24;

/// Backpressure: how many times a window-close submission retries after
/// [`ServeError::Full`] before giving up. Together with [`SUBMIT_BACKOFF`]
/// this is the total stall budget ingest will absorb before surfacing the
/// overload to the source: several seconds of saturated queue, which
/// unoptimized debug builds actually hit.
const SUBMIT_RETRIES: u32 = 10_000;

/// Pause between backpressure retries, before jitter.
const SUBMIT_BACKOFF: Duration = Duration::from_micros(500);

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
    /// Serving substrate configuration for window-close jobs.
    pub serve: ServeConfig,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            tuning: StreamTuning::default(),
            allowed_lateness: 8,
            key_column: "beer_name".to_string(),
            serve: ServeConfig::default(),
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
    /// Pair keys owned by the closed windows a closing window may carry from.
    owners: Horizon<()>,
    /// Verdicts of the reported windows that a window still to be reported
    /// may carry from: restored from the journal, or left by the last `finish`.
    verdicts: Horizon<bool>,
}

/// A submitted window job awaiting its result: the window's close record,
/// whose inputs went into the submission, the keys of the pairs they ask
/// about, and the job's handle.
struct PendingWindow {
    close: WindowCloseRecord,
    owned: Vec<u64>,
    handle: JobHandle,
}

/// Windowed, incremental streaming curation over the serving substrate.
///
/// `ingest` is safe to call from many threads; `finish` must be called after
/// every ingesting thread has quiesced (the natural shape: producers join,
/// then the driver drains).
pub struct StreamEngine {
    tuning: StreamTuning,
    /// How many windows back a closing window may carry from, beyond its
    /// overlap: the server's `result_cache_capacity` (see [`crate::carry`]).
    remembered: usize,
    allowed_lateness: u64,
    key_index: usize,
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

/// The standard pair judge: a pair-judgment prompt, yes/no validation and
/// one strict retry — the module `er_provider`'s jobs judge with.
fn pair_judge() -> LlmModule {
    LlmModule::new(
        "window_judge",
        PromptBuilder::PairJudgment {
            description: "Please determine if the following two records refer to the same entity."
                .into(),
            examples: Vec::new(),
        },
        OutputValidator::YesNo,
    )
}

/// The window-close module: asks the pair judge about the payload's pairs,
/// [`LIST_PROMPT_MEMBERS`] to a numbered prompt, and returns one verdict per
/// pair in payload order — `Bool`, or the raw text of an answer that failed
/// validation twice.
fn window_report_module() -> CustomModule {
    CustomModule::stateless("window_report", |input, ctx| {
        let payload = input.as_map().ok_or(CoreError::DataShape {
            expected: "map payload with pairs",
            got: "non-map window payload".to_string(),
        })?;
        let pairs = payload.get("pairs").and_then(Data::as_list).unwrap_or_default();
        let mut judge = pair_judge();
        let mut verdicts = Vec::with_capacity(pairs.len());
        for prompt in pairs.chunks(LIST_PROMPT_MEMBERS) {
            // Cooperative cancellation between prompts, so a deadline on a
            // window job stops it rather than finishing it.
            ctx.cancel.check().map_err(|reason| CoreError::Cancelled { reason })?;
            // A non-answer fails the window job, typed (cancelled for a dead
            // job); it is never read as a verdict.
            let judged = judge.invoke_list(prompt, ctx).expect("a pair judgment has a list form");
            verdicts.extend(judged?);
        }
        Ok(Data::List(verdicts))
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

        let remembered = config.serve.result_cache_capacity;
        let server = PipelineServer::start(factory, config.serve)?;
        server.register_pipeline(WINDOW_PIPELINE, physical)?;

        let journal = server.journal();
        let engine = StreamEngine {
            tuning: config.tuning,
            remembered,
            allowed_lateness: config.allowed_lateness,
            key_index,
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
                owners: Horizon::new(&config.tuning, remembered),
                verdicts: Horizon::new(&config.tuning, remembered),
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
    /// the watermark and frontier, the pair keys and verdicts of the closed
    /// windows that later ones may carry from, reopen every open window by
    /// re-inserting its items (the index is deterministic, so candidates and
    /// comparison counts come back identical), resubmit every
    /// closed-but-unreported window job, and remember reported windows so
    /// they are never closed twice.
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
            // Before anything re-closes: the keys owned by the closed windows
            // the next close may carry from, and the verdicts of the reported
            // windows the next report may carry from (the fold kept those).
            // Reports go out in window order, so every reported window
            // precedes every unreported one.
            let closed = checkpoint.reported.keys().chain(checkpoint.closed_unreported.keys());
            let next_close = checkpoint.open_windows.keys().next().copied();
            let next_close = next_close.or(closed.max().map(|k| k + 1)).unwrap_or(0);
            let next_report = checkpoint.closed_unreported.keys().next().copied();
            let next_report = next_report.map_or(next_close, |k| k.min(next_close));
            for (&k, report) in &checkpoint.reported {
                if k >= state.owners.reach(next_close) {
                    state.owners.restore(k, report.owned.keys().map(|&key| (key, ())));
                }
                if k >= state.verdicts.reach(next_report) {
                    state.verdicts.restore(k, report.owned.iter().map(|(&key, &yes)| (key, yes)));
                }
            }
            for (&k, close) in &checkpoint.closed_unreported {
                if k >= state.owners.reach(next_close) {
                    let owned = payload_keys(&close.inputs).into_iter().map(|key| (key, ()));
                    state.owners.restore(k, owned);
                }
            }
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
                    let outcome = window.insert(item, self.key_index, MAX_BLOCK_SIZE);
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
                    closings.push(self.close_window(&mut state.owners, window));
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
                let outcome = window.insert_keyed(Arc::clone(&item), &keys, MAX_BLOCK_SIZE);
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
                self.close_window(&mut state.owners, window)
            })
            .collect()
    }

    /// Turn a closed window into its close record: the report's metadata,
    /// the inputs of the window job that asks about the candidate pairs this
    /// window owns, and the keys of those it carries (see [`crate::carry`]).
    /// Called under the state lock, in window order.
    fn close_window(&self, owners: &mut Horizon<()>, mut window: WindowState) -> WindowCloseRecord {
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
        let described = window.describe_records(&self.schema);
        let (mut own, mut pairs, mut carried) = (BTreeMap::new(), Vec::new(), Vec::new());
        for &(i, j) in window.candidates() {
            let (a, b) = (&described[i], &described[j]);
            let key = pair_key(a, b);
            // Owned once: neither a remembered earlier window nor this one
            // has asked about the pair yet.
            if owners.held(window.id.0, key).is_none() && own.insert(key, ()).is_none() {
                pairs.push(Data::map([
                    ("a".to_string(), Data::Str(a.clone())),
                    ("b".to_string(), Data::Str(b.clone())),
                ]));
            } else {
                carried.push(key);
            }
        }
        owners.close(window.id.0, own);
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
            carried,
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
    /// rest of the record and the keys of the pairs they ask about.
    fn submit_pending(&self, mut close: WindowCloseRecord) -> Result<(), StreamError> {
        use std::sync::atomic::Ordering::Relaxed;
        let owned = payload_keys(&close.inputs);
        let mut request = SubmitRequest::new(WINDOW_PIPELINE).priority(Priority::High);
        request.inputs = std::mem::take(&mut close.inputs);
        let mut attempts = 0u32;
        let handle = loop {
            match self.server.submit(request.clone()) {
                Ok(handle) => break handle,
                Err(ServeError::Full { .. }) if attempts < SUBMIT_RETRIES => {
                    attempts += 1;
                    self.metrics.backpressure_stalls.fetch_add(1, Relaxed);
                    std::thread::sleep(Self::jittered(SUBMIT_BACKOFF, close.window, attempts));
                }
                Err(ServeError::Full { .. }) => {
                    return Err(StreamError::Saturated { attempts });
                }
                Err(err) => return Err(err.into()),
            }
        };
        self.pending.lock().push(PendingWindow { close, owned, handle });
        Ok(())
    }

    /// Drain the stream: push the watermark past the frontier so every open
    /// window closes, wait for every window job, and build, journal and
    /// return the reports in window order — a window's carried verdicts come
    /// from the earlier windows that own them. Each report names the oldest
    /// window a later one may still carry from, so the journal keeps those
    /// verdicts and no others. Call after all ingesting threads have quiesced.
    pub fn finish(&self) -> Result<Vec<WindowReport>, StreamError> {
        use std::sync::atomic::Ordering::Relaxed;
        if self.journal.as_ref().is_some_and(|journal| journal.dead()) {
            // A crashed process hands out nothing; whatever the journal
            // kept is the next incarnation's to report.
            return Ok(Vec::new());
        }
        let closings = {
            let mut state = self.state.lock();
            let beyond = state.max_event_time + self.tuning.window + self.allowed_lateness + 1;
            self.advance_watermark_locked(&mut state, beyond)
        };
        for close in closings {
            self.submit_close(close)?;
        }
        let mut pending = std::mem::take(&mut *self.pending.lock());
        pending.sort_by_key(|window| window.close.window);
        let mut finished = Vec::with_capacity(pending.len());
        for PendingWindow { close, owned, handle } in pending {
            if self.dead() {
                // Simulated crash: unreported windows stay journaled as
                // closed-unreported; the next incarnation reports them.
                return Ok(Vec::new());
            }
            finished.push((close, owned, handle.wait()?));
        }
        let mut verdicts = std::mem::replace(
            &mut self.state.lock().verdicts,
            Horizon::new(&self.tuning, self.remembered),
        );
        let mut reports = Vec::with_capacity(finished.len());
        for (close, keys, output) in finished {
            if self.dead() {
                break;
            }
            let lost = || StreamError::MissingVerdict { window: close.window };
            let answers = output.get("report")?.as_list().unwrap_or_default();
            if answers.len() != keys.len() {
                return Err(lost());
            }
            let mut owned = BTreeMap::new();
            let (mut matched, mut unvalidated, mut far) = (0, 0, 0);
            for (&key, answer) in keys.iter().zip(answers) {
                let yes = *answer == Data::Bool(true);
                matched += u64::from(yes);
                unvalidated += u64::from(matches!(answer, Data::Str(_)));
                owned.insert(key, yes);
            }
            for key in &close.carried {
                let yes = match owned.get(key) {
                    Some(&yes) => yes,
                    None => {
                        let (owner, yes) = verdicts.held(close.window, *key).ok_or_else(lost)?;
                        far += u64::from(verdicts.far(close.window, owner));
                        yes
                    }
                };
                matched += u64::from(yes);
            }
            let mut report = WindowReportRecord {
                window: close.window,
                start: close.start,
                end: close.end,
                records: close.records,
                candidate_pairs: close.candidate_pairs,
                comparisons: close.comparisons,
                judged: (keys.len() + close.carried.len()) as u64,
                matched,
                true_duplicates: close.true_duplicates,
                llm: output.llm,
                owned,
                remembered_from: verdicts.reach(close.window + 1),
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
            self.metrics.pairs_carried.fetch_add(close.carried.len() as u64, Relaxed);
            self.metrics.pairs_far_carried.fetch_add(far, Relaxed);
            self.metrics.pairs_unvalidated.fetch_add(unvalidated, Relaxed);
            self.metrics.reports.fetch_add(1, Relaxed);
            verdicts.close(report.window, std::mem::take(&mut report.owned));
            reports.push(WindowReport::from(report));
        }
        // A window that closes later may still carry from these.
        self.state.lock().verdicts = verdicts;
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
    use lingua_dataset::generators::stream::StreamSpec;
    use lingua_dataset::world::WorldSpec;
    use lingua_durable::{JournalReader, JournalRecord, JournalTuning, SimStorage};
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
        // Overlapping windows carry pairs, and the pairs a window asks about
        // share numbered prompts: fewer calls than asked pairs.
        let asked = judged - snap.pairs_carried;
        let calls = engine.server_metrics().llm.calls;
        assert!(snap.pairs_carried > 0, "overlapping windows share pairs");
        assert!(calls > 0 && calls < asked, "{calls} calls for {asked} asked pairs");
        // Window ids are sorted and unique.
        for pair in reports.windows(2) {
            assert!(pair[0].window.0 < pair[1].window.0);
        }
        engine.shutdown();
    }

    /// Sim storage that fails one append on request (a full disk, an EIO),
    /// and every replace while `full`.
    struct FlakyStorage {
        inner: Arc<lingua_durable::SimStorage>,
        fail_next_append: AtomicBool,
        full: AtomicBool,
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
            if self.full.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(std::io::Error::other("no space left on device"));
            }
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
            full: AtomicBool::new(false),
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

    /// A compaction that fails behind an ingest or a window close refuses
    /// neither: their records are in the log. With a checkpoint interval of
    /// 1 every compaction an append starts fails, yet every ingest and the drain
    /// succeed, and the reopened log holds each ingested record and reports
    /// every window the caller was handed.
    #[test]
    fn a_failed_compaction_refuses_no_ingest_and_no_close() {
        let world = WorldSpec::generate(5);
        let llm = Arc::new(SimLlm::new(&world, SimLlmConfig::default()));
        let mut source = SyntheticSource::with_seed(5);
        let storage = Arc::new(FlakyStorage {
            inner: SimStorage::new(),
            fail_next_append: AtomicBool::new(false),
            full: AtomicBool::new(true),
        });
        let journal = JournalTuning::over(storage.clone()).with_checkpoint_interval(1);
        let config = StreamConfig {
            serve: ServeConfig {
                workers: Some(2),
                journal: Some(journal),
                ..ServeConfig::default()
            },
            ..StreamConfig::default()
        };
        let mut engine =
            StreamEngine::start(ContextFactory::new(llm), source.schema().clone(), config)
                .expect("engine starts");
        const RECORDS: usize = 200;
        for item in source.take_records(RECORDS) {
            engine.ingest(item).expect("the record is in the log, so the ingest stands");
        }
        assert!(engine.metrics().windows_closed > 0, "ingests closed windows");
        let reports = engine.finish().expect("every close and report is in the log");
        // Every append is due, but one that finds a compaction in flight
        // starts none, so how many were tried depends on how the window
        // jobs' appends interleave with the ingests. That one failed is what
        // no schedule can move: the failing path ran.
        let failed = engine.server_metrics().health.journal_compactions_failed;
        assert!(failed > 0, "no compaction failed");
        engine.shutdown();

        let log = storage.inner.snapshot();
        let ingests = JournalReader::scan(&log).records.into_iter();
        let ingests = ingests.filter(|r| matches!(r, JournalRecord::StreamIngest { .. }));
        assert_eq!(ingests.count(), RECORDS);
        let (_journal, recovered) =
            lingua_durable::Journal::open(JournalTuning::sim(storage.inner.clone()))
                .expect("the log reopens");
        let windows: Vec<u64> = reports.iter().map(|report| report.window.0).collect();
        assert_eq!(recovered.stream.reported.keys().copied().collect::<Vec<_>>(), windows);
        assert!(recovered.stream.closed_unreported.is_empty());
        assert!(recovered.stream.open_windows.is_empty());
    }

    /// What `stream_dedup` runs: the default tuning, one ingest thread, the
    /// seeded stream — here with a journal that never compacts, so its
    /// ingest records say which windows took each record, in order.
    fn dedup_run(seed: u64, records: usize) -> (StreamEngine, Vec<WindowReport>, Arc<SimStorage>) {
        dedup_run_remembering(seed, records, ServeConfig::default().result_cache_capacity)
    }

    /// [`dedup_run`] with a server that keeps `remembered` job outputs, so
    /// its engine remembers that many windows back.
    fn dedup_run_remembering(
        seed: u64,
        records: usize,
        remembered: usize,
    ) -> (StreamEngine, Vec<WindowReport>, Arc<SimStorage>) {
        let world = WorldSpec::generate(seed);
        let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed, ..Default::default() }));
        let mut source = SyntheticSource::new(&world, StreamSpec { seed, ..Default::default() });
        let storage = SimStorage::new();
        let journal = JournalTuning::sim(storage.clone()).with_checkpoint_interval(usize::MAX);
        let config = StreamConfig {
            serve: ServeConfig {
                workers: Some(2),
                journal: Some(journal),
                result_cache_capacity: remembered,
                ..ServeConfig::default()
            },
            ..StreamConfig::default()
        };
        let engine = StreamEngine::start(ContextFactory::new(llm), source.schema().clone(), config)
            .expect("engine starts");
        for item in source.take_records(records) {
            engine.ingest(item).expect("ingest");
        }
        let reports = engine.finish().expect("finish");
        (engine, reports, storage)
    }

    /// An engine remembers `result_cache_capacity` windows back however long
    /// the stream runs. Over many more windows than that, what it remembers
    /// and what the journal's fold keeps are the last that many windows'
    /// asked pairs; a pair is asked again only past them, and some are; and
    /// every window's verdicts are those of an engine that remembers all.
    #[test]
    fn a_pair_repeated_past_the_remembered_windows_is_asked_again() {
        const REMEMBERED: u64 = 4;
        let (mut engine, reports, storage) = dedup_run_remembering(11, 1_200, REMEMBERED as usize);
        let (mut whole, whole_reports, _) = dedup_run(11, 1_200);
        let verdicts = |reports: &[WindowReport]| -> Vec<(u64, u64, u64)> {
            reports.iter().map(|r| (r.window.0, r.judged, r.matched)).collect()
        };
        assert_eq!(verdicts(&reports), verdicts(&whole_reports));
        let last = reports.last().expect("windows closed").window.0;
        assert!(reports.len() as u64 > 10 * REMEMBERED, "{} windows", reports.len());

        // Who asked each pair, in window order, from the journal.
        let records = JournalReader::scan(&storage.snapshot()).records;
        let mut askers: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut asked_by_window: BTreeMap<u64, usize> = BTreeMap::new();
        for record in records {
            if let JournalRecord::WindowClose(close) = record {
                let keys = payload_keys(&close.inputs);
                asked_by_window.insert(close.window, keys.len());
                for key in keys {
                    askers.entry(key).or_default().push(close.window);
                }
            }
        }
        let mut asked_again = 0;
        for windows in askers.values() {
            for pair in windows.windows(2) {
                assert!(pair[1] - pair[0] > REMEMBERED, "asked by {pair:?} while remembered");
                asked_again += 1;
            }
        }
        assert!(asked_again > 0, "the stream repeats pairs past {REMEMBERED} windows");
        let (snap, whole_snap) = (engine.metrics(), whole.metrics());
        let asked = |snap: &StreamSnapshot| snap.pairs_judged - snap.pairs_carried;
        assert!(asked(&snap) > asked(&whole_snap), "{} | {}", snap.report(), whole_snap.report());

        // What is remembered: the asked pairs of the last windows, no more.
        let recent = last + 1 - REMEMBERED;
        let recent_keys: usize = asked_by_window.range(recent..).map(|(_, n)| n).sum();
        {
            let state = engine.state.lock();
            let (owners, verdicts) = (state.owners.remembered(), state.verdicts.remembered());
            assert_eq!(owners, (REMEMBERED as usize, recent_keys));
            assert_eq!(verdicts, (REMEMBERED as usize, recent_keys));
        }
        let (_journal, recovered) =
            lingua_durable::Journal::open(JournalTuning::sim(storage)).expect("the log reopens");
        let kept = recovered.stream.reported.iter().filter(|(_, report)| !report.owned.is_empty());
        let kept: Vec<(u64, usize)> = kept.map(|(&k, report)| (k, report.owned.len())).collect();
        assert!(kept.iter().all(|&(k, _)| k >= recent), "{kept:?}");
        assert_eq!(kept.iter().map(|(_, n)| n).sum::<usize>(), recent_keys);
        engine.shutdown();
        whole.shutdown();
    }

    /// Carrying a verdict is asking again: every window's `(judged, matched)`
    /// equals a reference that rebuilds each window from the journal's
    /// ingest records and asks the judge about every candidate pair alone.
    #[test]
    fn carried_verdicts_equal_asking_every_pair() {
        for seed in [11, 7919] {
            let (mut engine, reports, storage) = dedup_run(seed, 1_200);
            let snap = engine.metrics();
            assert!(snap.pairs_carried > 0, "seed {seed}: {}", snap.report());
            let mut windows: BTreeMap<u64, WindowState> = BTreeMap::new();
            for record in JournalReader::scan(&storage.snapshot()).records {
                if let JournalRecord::StreamIngest { item, windows: landed } = record {
                    for k in landed {
                        let window =
                            windows.entry(k).or_insert_with(|| WindowState::new(WindowId(k)));
                        window.insert(item.clone(), engine.key_index, MAX_BLOCK_SIZE);
                    }
                }
            }
            let world = WorldSpec::generate(seed);
            let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed, ..Default::default() }));
            let mut ctx = ContextFactory::new(llm).build();
            let mut judge = pair_judge();
            let reference: Vec<(u64, u64, u64)> = windows
                .values()
                .map(|window| {
                    let described = window.describe_records(&engine.schema);
                    let matched = window.candidates().iter().filter(|&&(i, j)| {
                        let pair = Data::map([
                            ("a".to_string(), Data::Str(described[i].clone())),
                            ("b".to_string(), Data::Str(described[j].clone())),
                        ]);
                        judge.invoke(pair, &mut ctx).expect("the judge answers") == Data::Bool(true)
                    });
                    (window.id.0, window.candidates().len() as u64, matched.count() as u64)
                })
                .collect();
            let got: Vec<(u64, u64, u64)> =
                reports.iter().map(|r| (r.window.0, r.judged, r.matched)).collect();
            assert_eq!(got, reference, "seed {seed}");
            engine.shutdown();
        }
    }

    /// A model that answers every prompt with text no validator reads.
    struct Shrugs;

    impl lingua_llm_sim::LlmService for Shrugs {
        fn complete_batch(
            &self,
            requests: &[lingua_llm_sim::CompletionRequest],
        ) -> lingua_llm_sim::BatchOutcome {
            let mut usage = lingua_llm_sim::Usage::default();
            usage.record(10, 4);
            requests.iter().map(|_| (Ok(Arc::from("It is hard to tell.")), usage)).collect()
        }
        fn embed(&self, _text: &str) -> Vec<f64> {
            Vec::new()
        }
        fn usage(&self) -> lingua_llm_sim::Usage {
            lingua_llm_sim::Usage::default()
        }
        fn simulated_latency_ms(&self) -> u64 {
            0
        }
    }

    /// An answer that fails validation twice is no match, and counted: every
    /// asked pair is unvalidated, none matched, and the report says so.
    #[test]
    fn unvalidated_answers_are_counted_not_hidden() {
        let source = SyntheticSource::with_seed(5);
        let config = StreamConfig {
            serve: ServeConfig { workers: Some(2), ..ServeConfig::default() },
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::start(
            ContextFactory::new(Arc::new(Shrugs)),
            source.schema().clone(),
            config,
        )
        .expect("engine starts");
        let mut source = source;
        for item in source.take_records(400) {
            engine.ingest(item).expect("ingest");
        }
        let reports = engine.finish().expect("finish");
        let snap = engine.metrics();
        let asked = snap.pairs_judged - snap.pairs_carried;
        assert!(asked > 0 && snap.pairs_carried > 0, "{}", snap.report());
        assert_eq!(snap.pairs_unvalidated, asked, "{}", snap.report());
        assert_eq!(snap.pairs_matched, 0);
        assert!(reports.iter().all(|r| r.matched == 0));
        assert!(snap.report().contains(&format!("unvalidated {asked}")), "{}", snap.report());
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
