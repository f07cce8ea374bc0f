//! Span-tree reconstruction, well-formedness checking, per-span cost
//! rollups, and the canonical "golden" serialization used by snapshot tests.
//!
//! Golden rules: only *stable* fields survive serialization — span kind,
//! name, attributes, instant decisions, and rolled-up LLM usage. Sequence
//! numbers, span ids, and thread ordinals are scheduling-dependent and are
//! excluded; root spans are sorted by content so a 4-worker run serializes
//! byte-identically to a 1-worker run of the same workload.

use crate::event::{Phase, SpanKind, TraceEvent};
use lingua_llm_sim::Usage;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Why an event stream failed well-formedness checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An `End` edge arrived for a span with no `Begin`.
    EndWithoutBegin(u64),
    /// A span's `End` edge was seen twice.
    DoubleEnd(u64),
    /// A span was begun but never ended.
    Unclosed(u64),
    /// A child or instant references a parent that was not open at the time.
    ParentNotOpen { child: u64, parent: u64 },
    /// Two events carry the same logical timestamp.
    DuplicateSeq(u64),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::EndWithoutBegin(id) => write!(f, "span {id}: end without begin"),
            TraceError::DoubleEnd(id) => write!(f, "span {id}: ended twice"),
            TraceError::Unclosed(id) => write!(f, "span {id}: begun but never ended"),
            TraceError::ParentNotOpen { child, parent } => {
                write!(f, "event {child}: parent {parent} not open at emission")
            }
            TraceError::DuplicateSeq(seq) => write!(f, "duplicate logical timestamp {seq}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A point decision recorded inside a span.
#[derive(Debug, Clone)]
pub struct InstantNode {
    pub seq: u64,
    pub kind: SpanKind,
    pub name: String,
    pub attrs: BTreeMap<String, String>,
}

/// A reconstructed span with its children.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub id: u64,
    pub kind: SpanKind,
    pub name: String,
    pub begin_seq: u64,
    pub end_seq: u64,
    /// Begin- and end-edge attributes, merged (end wins on key collision).
    pub attrs: BTreeMap<String, String>,
    /// Usage attributed directly to this span (LLM call spans).
    pub usage: Option<Usage>,
    pub instants: Vec<InstantNode>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total usage attributed to this span and all descendants — the
    /// "cost of" rollup: for any span, what its subtree spent on LLM calls.
    pub fn rollup(&self) -> Usage {
        let mut total = self.usage.unwrap_or_default();
        for child in &self.children {
            total.merge(&child.rollup());
        }
        total
    }

    /// Count of descendant spans (excluding self) of a given kind.
    pub fn count_kind(&self, kind: SpanKind) -> u64 {
        let mut n = 0;
        for child in &self.children {
            if child.kind == kind {
                n += 1;
            }
            n += child.count_kind(kind);
        }
        n
    }

    /// Stable serialization of this span for golden fixtures.
    pub fn golden(&self) -> Value {
        let rollup = self.rollup();
        let mut node = serde_json::Map::new();
        node.insert("kind".into(), json!(self.kind.as_str()));
        node.insert("name".into(), Value::String(self.name.clone()));
        if !self.attrs.is_empty() {
            node.insert("attrs".into(), attrs_value(&self.attrs));
        }
        if !self.instants.is_empty() {
            // Instants in causal order; attrs inline, seq excluded.
            let instants: Vec<Value> = self
                .instants
                .iter()
                .map(|i| {
                    let mut v = serde_json::Map::new();
                    v.insert("kind".into(), json!(i.kind.as_str()));
                    v.insert("name".into(), Value::String(i.name.clone()));
                    if !i.attrs.is_empty() {
                        v.insert("attrs".into(), attrs_value(&i.attrs));
                    }
                    Value::Object(v)
                })
                .collect();
            node.insert("events".into(), Value::Array(instants));
        }
        if rollup.calls + rollup.cached_calls + rollup.failed_calls > 0 {
            node.insert(
                "llm".into(),
                json!({
                    "calls": rollup.calls,
                    "cached_calls": rollup.cached_calls,
                    "failed_calls": rollup.failed_calls,
                    "tokens_in": rollup.tokens_in,
                    "tokens_out": rollup.tokens_out,
                }),
            );
        }
        if !self.children.is_empty() {
            let children: Vec<Value> = self.children.iter().map(|c| c.golden()).collect();
            node.insert("children".into(), Value::Array(children));
        }
        Value::Object(node)
    }
}

/// Attribute maps as JSON objects, built explicitly so the serialization
/// stays independent of `json!` macro conveniences.
fn attrs_value(attrs: &BTreeMap<String, String>) -> Value {
    Value::Object(attrs.iter().map(|(k, v)| (k.clone(), Value::String(v.clone()))).collect())
}

/// A reconstructed forest of spans.
#[derive(Debug, Clone, Default)]
pub struct TraceTree {
    pub roots: Vec<SpanNode>,
}

impl TraceTree {
    /// Rebuild the span forest from an event stream, enforcing
    /// well-formedness: unique timestamps, every span closed exactly once,
    /// and every parent open when a child or instant is emitted under it.
    pub fn build(events: &[TraceEvent]) -> Result<TraceTree, TraceError> {
        let mut sorted: Vec<&TraceEvent> = events.iter().collect();
        sorted.sort_by_key(|e| e.seq);
        for window in sorted.windows(2) {
            if window[0].seq == window[1].seq {
                return Err(TraceError::DuplicateSeq(window[0].seq));
            }
        }

        // Span id → (node, parent, closed?).
        let mut open: BTreeMap<u64, (SpanNode, Option<u64>)> = BTreeMap::new();
        let mut closed: BTreeMap<u64, (SpanNode, Option<u64>)> = BTreeMap::new();
        for event in &sorted {
            match event.phase {
                Phase::Begin => {
                    if let Some(parent) = event.parent {
                        if !open.contains_key(&parent) {
                            return Err(TraceError::ParentNotOpen { child: event.span, parent });
                        }
                    }
                    let node = SpanNode {
                        id: event.span,
                        kind: event.kind,
                        name: event.name.clone(),
                        begin_seq: event.seq,
                        end_seq: 0,
                        attrs: event.attrs.iter().cloned().collect(),
                        usage: None,
                        instants: Vec::new(),
                        children: Vec::new(),
                    };
                    open.insert(event.span, (node, event.parent));
                }
                Phase::End => {
                    let Some((mut node, parent)) = open.remove(&event.span) else {
                        return Err(if closed.contains_key(&event.span) {
                            TraceError::DoubleEnd(event.span)
                        } else {
                            TraceError::EndWithoutBegin(event.span)
                        });
                    };
                    node.end_seq = event.seq;
                    for (k, v) in &event.attrs {
                        node.attrs.insert(k.clone(), v.clone());
                    }
                    node.usage = event.usage;
                    closed.insert(event.span, (node, parent));
                }
                Phase::Instant => {
                    if let Some(parent) = event.parent {
                        let Some((node, _)) = open.get_mut(&parent) else {
                            return Err(TraceError::ParentNotOpen { child: event.span, parent });
                        };
                        node.instants.push(InstantNode {
                            seq: event.seq,
                            kind: event.kind,
                            name: event.name.clone(),
                            attrs: event.attrs.iter().cloned().collect(),
                        });
                    }
                    // Orphan instants (no parent) are allowed but not kept.
                }
            }
        }
        if let Some((&id, _)) = open.iter().next() {
            return Err(TraceError::Unclosed(id));
        }

        // Attach children to parents, deepest spans first so subtrees are
        // complete before they are attached. End-seq order guarantees a
        // child closed before its parent.
        let mut by_end: Vec<u64> = closed.keys().copied().collect();
        by_end.sort_by_key(|id| closed[id].0.end_seq);
        let mut roots = Vec::new();
        for id in by_end {
            let (node, parent) = closed.remove(&id).expect("visited once");
            match parent.and_then(|p| closed.get_mut(&p)) {
                Some((parent_node, _)) => parent_node.children.push(node),
                None => roots.push(node),
            }
        }
        // Children accumulated in end order; restore causal begin order.
        fn order(node: &mut SpanNode) {
            node.children.sort_by_key(|c| c.begin_seq);
            node.instants.sort_by_key(|i| i.seq);
            for child in &mut node.children {
                order(child);
            }
        }
        roots.sort_by_key(|r| r.begin_seq);
        roots.iter_mut().for_each(order);
        Ok(TraceTree { roots })
    }

    /// Find a span anywhere in the forest.
    pub fn find(&self, id: u64) -> Option<&SpanNode> {
        fn walk(node: &SpanNode, id: u64) -> Option<&SpanNode> {
            if node.id == id {
                return Some(node);
            }
            node.children.iter().find_map(|c| walk(c, id))
        }
        self.roots.iter().find_map(|r| walk(r, id))
    }

    /// Total usage attributed across the whole forest.
    pub fn total_usage(&self) -> Usage {
        let mut total = Usage::default();
        for root in &self.roots {
            total.merge(&root.rollup());
        }
        total
    }

    /// All spans of a kind, in begin order.
    pub fn spans_of_kind(&self, kind: SpanKind) -> Vec<&SpanNode> {
        fn walk<'a>(node: &'a SpanNode, kind: SpanKind, out: &mut Vec<&'a SpanNode>) {
            if node.kind == kind {
                out.push(node);
            }
            for child in &node.children {
                walk(child, kind, out);
            }
        }
        let mut out = Vec::new();
        for root in &self.roots {
            walk(root, kind, &mut out);
        }
        out
    }

    /// Canonical golden serialization: roots sorted by their own serialized
    /// content, so worker scheduling cannot reorder the fixture.
    pub fn golden(&self) -> Value {
        let mut roots: Vec<Value> = self.roots.iter().map(|r| r.golden()).collect();
        roots.sort_by_key(|v| serde_json::to_string(v).expect("json value serializes"));
        json!({ "roots": roots })
    }

    /// Pretty-printed canonical golden JSON (the fixture file format).
    pub fn golden_pretty(&self) -> String {
        let mut text = serde_json::to_string_pretty(&self.golden()).expect("serializable");
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{RingSink, TraceSink};
    use crate::tracer::Tracer;
    use std::sync::Arc;

    fn ring_tracer() -> (Tracer, Arc<RingSink>) {
        let sink = Arc::new(RingSink::new(4096));
        (Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>), sink)
    }

    fn usage(tokens_in: usize, tokens_out: usize) -> Usage {
        let mut u = Usage::default();
        u.record(tokens_in, tokens_out);
        u
    }

    #[test]
    fn rebuilds_nesting_and_rolls_up_cost() {
        let (tracer, sink) = ring_tracer();
        let pipeline_id;
        {
            let pipeline = tracer.span(SpanKind::Pipeline, "er");
            pipeline_id = pipeline.id();
            {
                let _op = tracer.span(SpanKind::Op, "judge");
                let mut call = tracer.span(SpanKind::LlmCall, "complete");
                call.set_usage(usage(100, 10));
            }
            {
                let _op = tracer.span(SpanKind::Op, "judge");
                let mut call = tracer.span(SpanKind::LlmCall, "complete");
                call.set_usage(usage(50, 5));
            }
        }
        let tree = TraceTree::build(&sink.events()).unwrap();
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.roots[0];
        assert_eq!(root.kind, SpanKind::Pipeline);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.count_kind(SpanKind::LlmCall), 2);
        let total = tree.find(pipeline_id).unwrap().rollup();
        assert_eq!(total.calls, 2);
        assert_eq!(total.tokens_in, 150);
        assert_eq!(total.tokens_out, 15);
        // Per-op rollup only sees its own call.
        let first_op = root.children[0].rollup();
        assert_eq!(first_op.tokens_in, 100);
        assert_eq!(tree.total_usage().tokens_in, 150);
        assert_eq!(tree.spans_of_kind(SpanKind::LlmCall).len(), 2);
    }

    #[test]
    fn golden_is_stable_under_root_reordering() {
        // Two independent jobs traced in either order serialize identically
        // after canonicalization — the 1-vs-4-worker guarantee.
        let make = |order: &[usize]| {
            let (tracer, sink) = ring_tracer();
            for &i in order {
                let job = tracer.begin(SpanKind::ServeJob, "job", || {
                    vec![("fingerprint".into(), format!("f{i}"))]
                });
                let enter = tracer.enter(&job);
                let mut call = tracer.span(SpanKind::LlmCall, "complete");
                call.set_usage(usage(10 * (i + 1), i + 1));
                drop(call);
                drop(enter);
                tracer.end(job, || vec![("path".into(), "executed".into())]);
            }
            TraceTree::build(&sink.events()).unwrap().golden_pretty()
        };
        assert_eq!(make(&[0, 1]), make(&[1, 0]));
    }

    #[test]
    fn golden_excludes_ids_seqs_and_threads() {
        let (tracer, sink) = ring_tracer();
        {
            let _span = tracer.span(SpanKind::Module, "judge");
        }
        let text = TraceTree::build(&sink.events()).unwrap().golden_pretty();
        assert!(text.contains("\"module\""));
        assert!(!text.contains("seq"));
        assert!(!text.contains("thread"));
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let (tracer, sink) = ring_tracer();
        let manual = tracer.begin(SpanKind::ServeJob, "job", Vec::new);
        let id = manual.id();
        // Unclosed span.
        let err = TraceTree::build(&sink.events()).unwrap_err();
        assert_eq!(err, TraceError::Unclosed(id));
        tracer.end(manual, Vec::new);
        assert!(TraceTree::build(&sink.events()).is_ok());
        // Double end: forge a second end edge.
        let mut events = sink.events();
        let end = events.last().unwrap().clone();
        events.push(TraceEvent { seq: end.seq + 1, ..end.clone() });
        assert_eq!(TraceTree::build(&events).unwrap_err(), TraceError::DoubleEnd(id));
        // End without begin.
        let orphan = vec![events.last().unwrap().clone()];
        assert!(matches!(TraceTree::build(&orphan).unwrap_err(), TraceError::EndWithoutBegin(_)));
        // Duplicate timestamps.
        let dup = vec![events[0].clone(), events[0].clone()];
        assert!(matches!(TraceTree::build(&dup).unwrap_err(), TraceError::DuplicateSeq(_)));
    }

    #[test]
    fn instant_under_closed_parent_is_rejected() {
        let (tracer, sink) = ring_tracer();
        let span_id;
        {
            let span = tracer.span(SpanKind::Op, "o");
            span_id = span.id();
        }
        let mut events = sink.events();
        let last_seq = events.last().unwrap().seq;
        events.push(TraceEvent {
            seq: last_seq + 1,
            span: 999,
            parent: Some(span_id),
            thread: 0,
            phase: Phase::Instant,
            kind: SpanKind::Gateway,
            name: "late".into(),
            attrs: Vec::new(),
            usage: None,
        });
        assert_eq!(
            TraceTree::build(&events).unwrap_err(),
            TraceError::ParentNotOpen { child: 999, parent: span_id }
        );
    }
}
