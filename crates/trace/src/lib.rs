//! # lingua-trace
//!
//! Hierarchical execution tracing for the Lingua Manga stack: one causality
//! spine from a serve job down to every LLM call it provoked, with exact
//! token/cost attribution at each level.
//!
//! Why the paper's reproduction needs this: the optimizer's whole value
//! proposition (§3.2) is *rerouting* work — a Simulator takeover answers
//! from a student model, a Validator retry regenerates code, a Connector
//! denies an over-broad query, a gateway fails over to a standby backend.
//! Aggregate counters say *how often* those paths fired; a trace says *which
//! record took which path and what it cost*. Because every layer of this
//! repo is seeded and deterministic, traces double as the strongest
//! regression fixture available: a **golden trace** pins the entire
//! decision sequence of a pipeline run, not just its outputs.
//!
//! Design points:
//!
//! * **Logical clock** (`LogicalClock`): timestamps are a
//!   process-wide event counter, never wall time, so seeded runs emit
//!   bit-identical streams.
//! * **Disabled-by-default** ([`Tracer::disabled`]): every emit is one
//!   branch; attribute closures never run; the LLM wrapper is not even
//!   installed. Production can leave the plumbing in place for free.
//! * **Ring-buffered sink** ([`RingSink`]): bounded memory with counted
//!   eviction for always-on tracing.
//! * **Cost rollups** ([`SpanNode::rollup`]): usage is attributed only on
//!   `LlmCall` spans, using the same token formulas the usage meters bill,
//!   so a subtree rollup reconciles with `Usage` totals exactly.
//! * **Golden serialization** ([`TraceTree::golden`]): stable fields only,
//!   roots sorted canonically — byte-identical across runs and worker
//!   counts.
//! * **Chrome export** ([`chrome_trace_json`]): open in
//!   `chrome://tracing` or Perfetto.

mod chrome;
mod clock;
mod event;
mod llm;
mod sink;
mod summary;
mod tracer;
mod tree;

pub use chrome::chrome_trace_json;
pub use event::{Phase, SpanKind, TraceEvent};
pub use llm::TracedLlm;
pub use sink::{NullSink, RingSink, TraceSink};
pub use summary::TraceSummary;
pub use tracer::{EnterGuard, ManualSpan, SpanGuard, Tracer};
pub use tree::{InstantNode, SpanNode, TraceError, TraceTree};

use std::sync::Arc;

/// Convenience: a tracer over a fresh [`RingSink`] of `capacity` events.
pub fn ring_tracer(capacity: usize) -> (Tracer, Arc<RingSink>) {
    let sink = Arc::new(RingSink::new(capacity));
    (Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>), sink)
}
