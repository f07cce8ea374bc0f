//! [`TracedLlm`]: an [`LlmService`] wrapper that emits one `LlmCall` span
//! per call with exact token attribution. A batch of one — every call a
//! module places — is a `complete` span; a larger batch one `complete_batch`
//! span over all its members.
//!
//! A span decides no bill: a completion's span carries the merged splits the
//! layer that billed each member returned, and an embedding's span
//! [`EndpointCall::usage`], the bill `SimLlm` and serve's per-job meter book
//! too — so a span tree's cost rollup reconciles with the per-job `Usage`
//! total exactly, to the token and therefore to the cent. Code generation is
//! a completion, so its spans are completion spans.

use crate::event::SpanKind;
use crate::tracer::Tracer;
use lingua_llm_sim::{BatchOutcome, CompletionRequest, EndpointCall, LlmService, Usage};
use std::sync::Arc;

/// Wraps a shared LLM service, emitting an `LlmCall` span per call.
pub struct TracedLlm {
    inner: Arc<dyn LlmService>,
    tracer: Tracer,
}

impl TracedLlm {
    /// Wrap `inner` unless the tracer is disabled, in which case the service
    /// is returned untouched (zero overhead on the hot path).
    pub fn wrap(tracer: &Tracer, inner: Arc<dyn LlmService>) -> Arc<dyn LlmService> {
        if tracer.is_enabled() {
            Arc::new(TracedLlm { inner, tracer: tracer.clone() })
        } else {
            inner
        }
    }
}

impl LlmService for TracedLlm {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        let name = if requests.len() == 1 { "complete" } else { "complete_batch" };
        let mut span = self.tracer.span(SpanKind::LlmCall, name);
        let outcome = self.inner.complete_batch(requests);
        // A member without an answer has an empty split: it billed nothing
        // downstream, and the meters book nothing for it either.
        if outcome.batch_usage != Usage::default() {
            span.set_usage(outcome.batch_usage);
        }
        let unanswered: Vec<&str> =
            outcome.responses.iter().filter_map(|r| r.as_ref().err()).map(|n| n.label()).collect();
        if !unanswered.is_empty() {
            span.attr("no_answer", unanswered.join(","));
        }
        outcome
    }

    fn embed(&self, text: &str) -> Vec<f64> {
        let mut span = self.tracer.span(SpanKind::LlmCall, "embed");
        let embedding = self.inner.embed(text);
        span.set_usage(EndpointCall::Embed(text).usage(""));
        embedding
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::sink::{RingSink, TraceSink};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::cost::count_tokens;
    use lingua_llm_sim::{CodeGenSpec, CodeRequest, SimLlm};

    #[test]
    fn disabled_tracer_returns_the_inner_service() {
        let world = WorldSpec::generate(5);
        let inner: Arc<dyn LlmService> = Arc::new(SimLlm::with_seed(&world, 5));
        let wrapped = TracedLlm::wrap(&Tracer::disabled(), Arc::clone(&inner));
        assert!(Arc::ptr_eq(&wrapped, &inner), "no wrapper when tracing is off");
    }

    #[test]
    fn each_call_kind_emits_a_span_with_usage() {
        let world = WorldSpec::generate(5);
        let sink = Arc::new(RingSink::new(256));
        let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let llm = TracedLlm::wrap(&tracer, Arc::new(SimLlm::with_seed(&world, 5)));

        let prompt = "Summarize.\nText: alpha beta gamma";
        let response = llm.complete(&CompletionRequest::new(prompt));
        llm.embed("alpha beta");

        let events = sink.events();
        let ends: Vec<_> = events.iter().filter(|e| e.phase == Phase::End).collect();
        assert_eq!(ends.len(), 2);
        let complete_end = ends.iter().find(|e| e.name == "complete").unwrap();
        let usage = complete_end.usage.expect("usage attributed on end edge");
        assert_eq!(usage.calls, 1);
        assert_eq!(usage.tokens_in, count_tokens(prompt) as u64);
        assert_eq!(usage.tokens_out, count_tokens(&response) as u64);
        let embed_end = ends.iter().find(|e| e.name == "embed").unwrap();
        assert_eq!(embed_end.usage.unwrap().tokens_out, 0);
    }

    #[test]
    fn traced_usage_matches_a_usage_meter_exactly() {
        // The invariant golden tests rely on: TracedLlm and SimLlm's own
        // meter bill identical token counts for identical traffic.
        let world = WorldSpec::generate(5);
        let sim = Arc::new(SimLlm::with_seed(&world, 5));
        let sink = Arc::new(RingSink::new(256));
        let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let llm = TracedLlm::wrap(&tracer, Arc::clone(&sim) as Arc<dyn LlmService>);

        llm.complete(&CompletionRequest::new("Summarize.\nText: one two three"));
        llm.complete(&CompletionRequest::new("Determine if the records match.\nA: x\nB: y"));
        // Code generation is a completion too, and bills the same way.
        let spec = CodeGenSpec {
            task: "tokenize the text into words".into(),
            function_name: "process".into(),
            hints: vec![],
        };
        let ask =
            |request: CodeRequest<'_>| llm.complete(&CompletionRequest::new(request.render()));
        let code = ask(CodeRequest::draft(&spec, 1));
        let fix = ask(CodeRequest::fix(&spec, 1, &code, &["case 3 failed".to_string()]));
        ask(CodeRequest::repair(&spec, 2, &code, &fix));

        let mut rolled = Usage::default();
        for event in sink.events() {
            if event.phase == Phase::End {
                if let Some(usage) = event.usage {
                    rolled.merge(&usage);
                }
            }
        }
        let booked = sim.usage();
        assert_eq!(rolled.calls, booked.calls);
        assert_eq!(rolled.tokens_in, booked.tokens_in);
        assert_eq!(rolled.tokens_out, booked.tokens_out);
    }
}
