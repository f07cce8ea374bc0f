//! The tracer handle: span guards, manual cross-thread spans, and instants.
//!
//! A [`Tracer`] is a cheap clone-able handle that is either *disabled* (the
//! default — every operation is a branch on `None` and returns immediately,
//! allocating nothing) or *enabled* around a shared [`TraceSink`]. Parenting
//! is implicit through a thread-local span stack: opening a span pushes it,
//! dropping the guard pops it, and anything emitted in between becomes its
//! child. Work that crosses threads (a serve job: submitted on the caller's
//! thread, executed on a worker) uses the manual [`Tracer::begin`] /
//! [`Tracer::enter`] / [`Tracer::end`] triple instead.

use crate::clock::LogicalClock;
use crate::event::{Phase, SpanKind, TraceEvent};
use crate::sink::TraceSink;
use crate::summary::TraceSummary;
use lingua_llm_sim::Usage;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Process-wide thread ordinals: small, stable-for-the-thread integers for
// the `thread` field (golden serialization never includes them).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORD: Cell<Option<u64>> = const { Cell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_ordinal() -> u64 {
    THREAD_ORD.with(|cell| match cell.get() {
        Some(ord) => ord,
        None => {
            let ord = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(ord));
            ord
        }
    })
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    clock: LogicalClock,
    next_span: AtomicU64,
}

/// Handle for emitting trace events. Disabled by default; see module docs.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

/// A span opened by [`Tracer::begin`], to be closed on any thread via
/// [`Tracer::end`]. Consuming it on `end` makes "closed exactly once" a
/// type-level guarantee for manual spans.
#[derive(Debug)]
pub struct ManualSpan {
    id: u64,
    kind: SpanKind,
    name: String,
}

impl ManualSpan {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    /// The no-op tracer: every emit is a single branch, nothing allocates.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                clock: LogicalClock::new(),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The innermost open span on this thread, if tracing is enabled.
    pub fn current(&self) -> Option<u64> {
        self.inner.as_ref()?;
        SPAN_STACK.with(|stack| stack.borrow().last().copied())
    }

    /// Aggregate view from the sink, when it keeps one (e.g. [`crate::RingSink`]).
    pub fn summary(&self) -> Option<TraceSummary> {
        self.inner.as_ref().and_then(|inner| inner.sink.summary())
    }

    /// Events the sink lost (ring eviction).
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map(|inner| inner.sink.dropped()).unwrap_or(0)
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        span: u64,
        parent: Option<u64>,
        phase: Phase,
        kind: SpanKind,
        name: &str,
        attrs: Vec<(String, String)>,
        usage: Option<Usage>,
    ) {
        if let Some(inner) = &self.inner {
            inner.sink.record(TraceEvent {
                seq: inner.clock.tick(),
                span,
                parent,
                thread: thread_ordinal(),
                phase,
                kind,
                name: name.to_string(),
                attrs,
                usage,
            });
        }
    }

    /// Open a scoped span: pushed as the current parent on this thread,
    /// closed (and popped) when the returned guard drops.
    pub fn span(&self, kind: SpanKind, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: Tracer::disabled(),
                id: 0,
                kind,
                name: String::new(),
                attrs: Vec::new(),
                usage: None,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        self.emit(id, parent, Phase::Begin, kind, name, Vec::new(), None);
        SPAN_STACK.with(|stack| stack.borrow_mut().push(id));
        SpanGuard {
            tracer: self.clone(),
            id,
            kind,
            name: name.to_string(),
            attrs: Vec::new(),
            usage: None,
        }
    }

    /// Emit a point event under the current span. The attribute closure only
    /// runs when tracing is enabled, keeping disabled call sites free of
    /// allocation.
    pub fn instant<F>(&self, kind: SpanKind, name: &str, attrs: F)
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        self.instant_under(self.current(), kind, name, attrs);
    }

    /// Emit a point event under an explicit parent span.
    pub fn instant_under<F>(&self, parent: Option<u64>, kind: SpanKind, name: &str, attrs: F)
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        let Some(inner) = &self.inner else { return };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        self.emit(id, parent, Phase::Instant, kind, name, attrs(), None);
    }

    /// Open a manual span (not pushed on any stack): the begin edge is
    /// emitted here with `attrs`, the end edge when [`Tracer::end`] consumes
    /// the returned handle — possibly on a different thread.
    pub fn begin<F>(&self, kind: SpanKind, name: &str, attrs: F) -> ManualSpan
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        let Some(inner) = &self.inner else {
            return ManualSpan { id: 0, kind, name: String::new() };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        self.emit(id, self.current(), Phase::Begin, kind, name, attrs(), None);
        ManualSpan { id, kind, name: name.to_string() }
    }

    /// Close a manual span with final attributes.
    pub fn end<F>(&self, span: ManualSpan, attrs: F)
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        if self.inner.is_none() {
            return;
        }
        self.emit(span.id, None, Phase::End, span.kind, &span.name, attrs(), None);
    }

    /// Make a manual span the current parent on *this* thread for the guard's
    /// lifetime — how a worker thread nests its work under a job span that
    /// was begun on the submitting thread.
    pub fn enter(&self, span: &ManualSpan) -> EnterGuard {
        if self.inner.is_none() {
            return EnterGuard { tracer: Tracer::disabled(), id: 0 };
        }
        SPAN_STACK.with(|stack| stack.borrow_mut().push(span.id));
        EnterGuard { tracer: self.clone(), id: span.id }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

/// Guard for a scoped span; the end edge is emitted on drop with whatever
/// attributes and usage were accumulated.
pub struct SpanGuard {
    tracer: Tracer,
    id: u64,
    kind: SpanKind,
    name: String,
    attrs: Vec<(String, String)>,
    usage: Option<Usage>,
}

impl SpanGuard {
    /// Attach a key/value annotation, reported on the end edge.
    pub fn attr(&mut self, key: &str, value: impl Into<String>) {
        if self.tracer.is_enabled() {
            self.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Attach exact usage accounting (LLM call spans).
    pub fn set_usage(&mut self, usage: Usage) {
        if self.tracer.is_enabled() {
            self.usage = Some(usage);
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(stack.last().copied(), Some(self.id), "span guards must nest");
            stack.pop();
        });
        let attrs = std::mem::take(&mut self.attrs);
        self.tracer.emit(self.id, None, Phase::End, self.kind, &self.name, attrs, self.usage);
    }
}

/// Guard returned by [`Tracer::enter`]; pops the entered span on drop.
pub struct EnterGuard {
    tracer: Tracer,
    id: u64,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(stack.last().copied(), Some(self.id), "enter guards must nest");
            stack.pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    fn ring_tracer() -> (Tracer, Arc<RingSink>) {
        let sink = Arc::new(RingSink::new(1024));
        (Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>), sink)
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_never_runs_attr_closures() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut guard = tracer.span(SpanKind::Op, "noop");
        guard.attr("k", "v");
        drop(guard);
        tracer.instant(SpanKind::Gateway, "retry", || panic!("must not run"));
        let manual = tracer.begin(SpanKind::ServeJob, "job", || panic!("must not run"));
        let _enter = tracer.enter(&manual);
        tracer.end(manual, || panic!("must not run"));
        assert_eq!(tracer.current(), None);
        assert_eq!(tracer.dropped(), 0);
        assert!(tracer.summary().is_none());
    }

    #[test]
    fn scoped_spans_nest_through_the_thread_stack() {
        let (tracer, sink) = ring_tracer();
        {
            let _outer = tracer.span(SpanKind::Pipeline, "p");
            let outer_id = tracer.current().unwrap();
            {
                let mut inner = tracer.span(SpanKind::Op, "o");
                inner.attr("module", "judge");
                tracer.instant(SpanKind::Simulator, "student_serve", || {
                    vec![("confidence".into(), "0.9".into())]
                });
            }
            assert_eq!(tracer.current(), Some(outer_id));
        }
        assert_eq!(tracer.current(), None);
        let events = sink.events();
        assert_eq!(events.len(), 5, "2 begins + 1 instant + 2 ends");
        let begin_op = events.iter().find(|e| e.phase == Phase::Begin && e.name == "o").unwrap();
        let begin_p = events.iter().find(|e| e.phase == Phase::Begin && e.name == "p").unwrap();
        assert_eq!(begin_op.parent, Some(begin_p.span));
        let instant = events.iter().find(|e| e.phase == Phase::Instant).unwrap();
        assert_eq!(instant.parent, Some(begin_op.span));
        assert_eq!(instant.attrs, vec![("confidence".to_string(), "0.9".to_string())]);
        let end_op = events.iter().find(|e| e.phase == Phase::End && e.name == "o").unwrap();
        assert_eq!(end_op.attrs, vec![("module".to_string(), "judge".to_string())]);
        // Logical clock: seqs are unique and increasing in emission order.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn manual_spans_cross_threads() {
        let (tracer, sink) = ring_tracer();
        let job = tracer.begin(SpanKind::ServeJob, "job", || vec![("job".into(), "7".into())]);
        let job_id = job.id();
        let worker_tracer = tracer.clone();
        let handle = std::thread::spawn(move || {
            let _enter = worker_tracer.enter(&job);
            {
                let _run = worker_tracer.span(SpanKind::Pipeline, "run");
            }
            worker_tracer.end(job, || vec![("path".into(), "executed".into())]);
        });
        handle.join().unwrap();
        let events = sink.events();
        let run_begin = events.iter().find(|e| e.phase == Phase::Begin && e.name == "run").unwrap();
        assert_eq!(run_begin.parent, Some(job_id), "worker nests under the entered span");
        let job_end = events.iter().find(|e| e.phase == Phase::End && e.name == "job").unwrap();
        assert_eq!(job_end.span, job_id);
        assert_eq!(job_end.attrs, vec![("path".to_string(), "executed".to_string())]);
        let job_begin = events.iter().find(|e| e.phase == Phase::Begin && e.name == "job").unwrap();
        assert_ne!(job_begin.thread, run_begin.thread, "begin and work on different threads");
    }
}
