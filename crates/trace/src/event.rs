//! Trace events: the wire format every sink receives.
//!
//! An event is either the begin/end edge of a *span* (an interval with
//! children) or an *instant* (a point decision — a retry, a takeover, a
//! failover). Timestamps are **logical**: a process-wide call counter, not
//! wall time, so a seeded run emits a bit-identical event stream every time.

use lingua_llm_sim::Usage;

/// What layer of the system a span or instant belongs to.
///
/// The taxonomy mirrors the stack: serve jobs contain pipeline runs, which
/// contain op/module invocations, which contain optimizer decisions and LLM
/// calls, which (behind a gateway) contain gateway requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One serve-layer job: queued → deduped/cached/executed.
    ServeJob,
    /// One `Executor::run` over a compiled pipeline.
    Pipeline,
    /// One `Compiler::compile` of a logical pipeline.
    Compile,
    /// One operator execution inside a pipeline run.
    Op,
    /// One module invocation through the registry (`call_module`).
    Module,
    /// One `Validator::validate_and_fix` session.
    Validator,
    /// Simulator (teacher/student) routing decisions.
    Simulator,
    /// Privacy-aware connector queries.
    Connector,
    /// One request entering the resilience gateway.
    Gateway,
    /// One call on an `LlmService` (tokens attributed on the end edge).
    LlmCall,
    /// Serve-layer supervision: worker panics, restarts, watchdog nudges.
    Supervisor,
    /// One event-time window in the streaming engine: begins when the first
    /// record lands, ends when the watermark closes it. Watermark advances
    /// and late-record drops are instants of this kind.
    StreamWindow,
    /// One cost-based planning session (`lingua-plan`): the span records the
    /// objective and plan-level totals; per-op `choose` instants under it
    /// carry the chosen physical alternative and its estimated $/ms/accuracy,
    /// so estimated-vs-actual cost is auditable per job afterwards.
    Plan,
    /// One micro-batch flush in the continuous batcher: the span carries the
    /// member count and flush reason; per-member `split` instants under it
    /// carry each member's usage split as attributes (never as `usage` —
    /// token attribution stays on `LlmCall` end edges so the trace
    /// conservation laws keep a single source of truth).
    Batch,
    /// One journal replay at server start (`lingua-durable`): the span
    /// brackets cache restoration and ledger restore; its end edge carries
    /// how much state survived the crash and how much tail was damaged.
    Recovery,
}

impl SpanKind {
    /// Stable lowercase label used in golden fixtures and Chrome categories.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::ServeJob => "serve_job",
            SpanKind::Pipeline => "pipeline",
            SpanKind::Compile => "compile",
            SpanKind::Op => "op",
            SpanKind::Module => "module",
            SpanKind::Validator => "validator",
            SpanKind::Simulator => "simulator",
            SpanKind::Connector => "connector",
            SpanKind::Gateway => "gateway",
            SpanKind::LlmCall => "llm_call",
            SpanKind::Supervisor => "supervisor",
            SpanKind::StreamWindow => "stream_window",
            SpanKind::Plan => "plan",
            SpanKind::Batch => "batch",
            SpanKind::Recovery => "recovery",
        }
    }
}

/// Which edge of a span an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Begin,
    End,
    Instant,
}

/// One record in the trace stream.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Logical timestamp: strictly increasing across the whole process.
    pub seq: u64,
    /// Span id; `Begin` and `End` edges of one span share it. Instants get
    /// their own id so every event is addressable.
    pub span: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Process-wide thread ordinal (small integer, assigned on first emit).
    pub thread: u64,
    pub phase: Phase,
    pub kind: SpanKind,
    pub name: String,
    /// Deterministic key/value annotations (paths taken, confidences,
    /// backend names). Never durations — those would break golden traces.
    pub attrs: Vec<(String, String)>,
    /// Exact usage booked by this event; set on `LlmCall` end edges only.
    pub usage: Option<Usage>,
}
