//! Estimated-vs-actual audit: reconcile what a plan *predicted* (the
//! `SpanKind::Plan` span and its per-op `choose` instants) against what the
//! executions it governed *actually billed* (the `Op` span rollups of every
//! `Pipeline` run with the same name in the trace).
//!
//! Serve jobs run record-at-a-time, so each `Pipeline` span is one record's
//! worth of work: the per-run estimate is the plan's per-record estimate
//! (its `choose` instant's `usd ÷ records`), and the audit's estimated total
//! is that figure times the observed run count. A large estimated/actual gap
//! on an op means the calibration sample no longer represents production —
//! time to recalibrate and replan.

use lingua_llm_sim::cost::TokenPricing;
use lingua_llm_sim::Usage;
use lingua_trace::{SpanKind, TraceEvent, TraceTree};

/// Per-op reconciliation inside one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct OpAudit {
    pub op: String,
    /// The chosen physical alternative's stable name.
    pub alt: String,
    /// Plan's per-record estimate scaled to the observed run count.
    pub est_usd: f64,
    /// Dollars the op's spans actually rolled up to.
    pub actual_usd: f64,
    /// Billed LLM calls the op's spans actually made.
    pub actual_calls: u64,
}

/// One plan span reconciled against its runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAudit {
    pub pipeline: String,
    pub objective: String,
    /// `Pipeline` spans with this plan's name found in the trace.
    pub runs: u64,
    pub est_usd: f64,
    pub actual_usd: f64,
    pub ops: Vec<OpAudit>,
}

/// Reconcile every plan span in a trace against the pipeline runs that
/// share its name. Returns one audit per plan span; an unparseable trace
/// yields an empty list rather than an error (audit is best-effort).
pub fn audit_events(events: &[TraceEvent], pricing: &TokenPricing) -> Vec<PlanAudit> {
    let Ok(tree) = TraceTree::build(events) else { return Vec::new() };
    let pipelines = tree.spans_of_kind(SpanKind::Pipeline);
    let mut out = Vec::new();
    for plan in tree.spans_of_kind(SpanKind::Plan) {
        let runs: Vec<_> = pipelines.iter().filter(|p| p.name == plan.name).collect();
        let run_count = runs.len() as u64;
        let mut ops = Vec::new();
        let mut est_total = 0.0;
        let mut actual_total = 0.0;
        for choose in plan.instants.iter().filter(|i| i.name == "choose") {
            let Some(op_name) = choose.attrs.get("op") else { continue };
            let parse = |key: &str| choose.attrs.get(key).and_then(|v| v.parse::<f64>().ok());
            let usd = parse("usd").unwrap_or(0.0);
            let records = parse("records").filter(|r| *r > 0.0).unwrap_or(1.0);
            let est_usd = usd / records * run_count as f64;
            let mut actual = Usage::default();
            for run in &runs {
                for child in &run.children {
                    if child.kind == SpanKind::Op && child.name == *op_name {
                        actual.merge(&child.rollup());
                    }
                }
            }
            let actual_usd = actual.cost_usd(pricing);
            est_total += est_usd;
            actual_total += actual_usd;
            ops.push(OpAudit {
                op: op_name.clone(),
                alt: choose.attrs.get("alt").cloned().unwrap_or_default(),
                est_usd,
                actual_usd,
                actual_calls: actual.calls,
            });
        }
        out.push(PlanAudit {
            pipeline: plan.name.clone(),
            objective: plan.attrs.get("objective").cloned().unwrap_or_default(),
            runs: run_count,
            est_usd: est_total,
            actual_usd: actual_total,
            ops,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_trace::ring_tracer;

    #[test]
    fn audits_reconcile_plan_spans_with_their_runs() {
        let (tracer, sink) = ring_tracer(128);
        {
            // One plan: entity_resolution estimated at $0.04 over 20 records
            // ($0.002/record).
            let mut plan = tracer.span(SpanKind::Plan, "er");
            plan.attr("objective", "cheap_$");
            tracer.instant_under(Some(plan.id()), SpanKind::Plan, "choose", || {
                vec![
                    ("op".to_string(), "entity_resolution".to_string()),
                    ("alt".to_string(), "direct_llm".to_string()),
                    ("usd".to_string(), "0.040000".to_string()),
                    ("records".to_string(), "20.0".to_string()),
                ]
            });
            drop(plan);
            // Two runs; each bills one LLM call of 1000 in / 100 out tokens
            // under the op span.
            for _ in 0..2 {
                let run = tracer.span(SpanKind::Pipeline, "er");
                let mut op = tracer.span(SpanKind::Op, "entity_resolution");
                op.attr("module_kind", "llm");
                let mut llm = tracer.span(SpanKind::LlmCall, "llm");
                let mut usage = Usage::default();
                usage.record(1000, 100);
                llm.set_usage(usage);
                drop(llm);
                drop(op);
                drop(run);
            }
            // An unrelated pipeline must not be attributed to the plan.
            let run = tracer.span(SpanKind::Pipeline, "other");
            drop(run);
        }
        let audits = audit_events(&sink.events(), &TokenPricing::default());
        assert_eq!(audits.len(), 1);
        let audit = &audits[0];
        assert_eq!(audit.pipeline, "er");
        assert_eq!(audit.objective, "cheap_$");
        assert_eq!(audit.runs, 2);
        // Estimated: $0.002/record × 2 runs.
        assert!((audit.est_usd - 0.004).abs() < 1e-9);
        // Actual: 2 calls × (1.0 × 0.0015 + 0.1 × 0.002).
        assert!((audit.actual_usd - 2.0 * (0.0015 + 0.0002)).abs() < 1e-12);
        assert_eq!(audit.ops.len(), 1);
        assert_eq!(audit.ops[0].op, "entity_resolution");
        assert_eq!(audit.ops[0].alt, "direct_llm");
        assert_eq!(audit.ops[0].actual_calls, 2);
    }

    #[test]
    fn unparseable_traces_audit_to_nothing() {
        assert!(audit_events(&[], &TokenPricing::default()).is_empty());
    }
}
