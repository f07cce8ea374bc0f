//! An aggregate view of a trace, cheap enough to embed in metrics
//! snapshots (`lingua-serve` folds one into its `MetricsSnapshot`).

use crate::event::{Phase, SpanKind, TraceEvent};
use std::collections::BTreeMap;

/// Rolled-up trace counters: how many spans of each kind, how much LLM
/// traffic the trace attributes, and whether the sink lost anything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Events currently retained by the sink.
    pub events: u64,
    /// Completed spans (end edges seen).
    pub spans: u64,
    /// Instant events.
    pub instants: u64,
    /// Events the sink evicted or discarded.
    pub dropped: u64,
    /// LLM calls attributed by the trace (`LlmCall` end edges).
    pub llm_calls: u64,
    /// Input tokens attributed by the trace.
    pub tokens_in: u64,
    /// Output tokens attributed by the trace.
    pub tokens_out: u64,
    /// Completed spans by kind label.
    pub spans_by_kind: BTreeMap<&'static str, u64>,
}

impl TraceSummary {
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for event in events {
            summary.events += 1;
            match event.phase {
                Phase::End => {
                    summary.spans += 1;
                    *summary.spans_by_kind.entry(event.kind.as_str()).or_default() += 1;
                    if event.kind == SpanKind::LlmCall {
                        if let Some(usage) = &event.usage {
                            summary.llm_calls += usage.calls + usage.cached_calls;
                            summary.tokens_in += usage.tokens_in;
                            summary.tokens_out += usage.tokens_out;
                        }
                    }
                }
                Phase::Instant => summary.instants += 1,
                Phase::Begin => {}
            }
        }
        summary
    }

    /// One-line rendering for text reports.
    pub fn report_line(&self) -> String {
        format!(
            "trace           {} span(s), {} instant(s), {} llm call(s) attributed \
             ({} tokens in, {} tokens out), {} event(s) dropped",
            self.spans,
            self.instants,
            self.llm_calls,
            self.tokens_in,
            self.tokens_out,
            self.dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_llm_sim::Usage;

    #[test]
    fn summary_counts_spans_instants_and_usage() {
        let mut usage = Usage::default();
        usage.record(10, 5);
        let events = vec![
            TraceEvent {
                seq: 0,
                span: 1,
                parent: None,
                thread: 0,
                phase: Phase::Begin,
                kind: SpanKind::LlmCall,
                name: "complete".into(),
                attrs: Vec::new(),
                usage: None,
            },
            TraceEvent {
                seq: 1,
                span: 1,
                parent: None,
                thread: 0,
                phase: Phase::End,
                kind: SpanKind::LlmCall,
                name: "complete".into(),
                attrs: Vec::new(),
                usage: Some(usage),
            },
            TraceEvent {
                seq: 2,
                span: 2,
                parent: None,
                thread: 0,
                phase: Phase::Instant,
                kind: SpanKind::Gateway,
                name: "retry".into(),
                attrs: Vec::new(),
                usage: None,
            },
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.events, 3);
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.llm_calls, 1);
        assert_eq!(summary.tokens_in, 10);
        assert_eq!(summary.tokens_out, 5);
        assert_eq!(summary.spans_by_kind.get("llm_call"), Some(&1));
        assert!(summary.report_line().contains("1 span(s)"));
    }
}
