//! [`TracedLlm`]: an [`LlmService`] wrapper that emits one `LlmCall` span
//! per call with exact token attribution. A batch of one — every call a
//! module places — is a `complete` span; a larger batch one `complete_batch`
//! span over all its members.
//!
//! The accounting mirrors `lingua-serve`'s `UsageMeter` formula for formula:
//! tokens are recomputed with [`count_tokens`] over the *same strings* the
//! meter (and `SimLlm`'s own meter) bill, so a span tree's cost rollup
//! reconciles with the per-job `Usage` total exactly — to the token, and
//! therefore to the cent.

use crate::event::SpanKind;
use crate::tracer::Tracer;
use lingua_llm_sim::cost::count_tokens;
use lingua_llm_sim::{
    BatchOutcome, CodeGenSpec, CompletionRequest, GeneratedCode, LlmService, Usage,
};
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

    fn call_usage(tokens_in: usize, tokens_out: usize) -> Usage {
        let mut usage = Usage::default();
        usage.record(tokens_in, tokens_out);
        usage
    }
}

impl LlmService for TracedLlm {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        let name = if requests.len() == 1 { "complete" } else { "complete_batch" };
        let mut span = self.tracer.span(SpanKind::LlmCall, name);
        let outcome = self.inner.complete_batch(requests);
        // Only answers are attributed: a member without one billed nothing
        // downstream, and the meters skip it too, so the span rollup and the
        // per-job usage stay equal.
        let mut usage = Usage::default();
        let mut unanswered = Vec::new();
        for (request, response) in requests.iter().zip(&outcome.responses) {
            match response {
                Ok(text) => usage.record(count_tokens(&request.prompt), count_tokens(text)),
                Err(no_answer) => unanswered.push(no_answer.label()),
            }
        }
        if usage.calls > 0 {
            span.set_usage(usage);
        }
        if !unanswered.is_empty() {
            span.attr("no_answer", unanswered.join(","));
        }
        outcome
    }

    fn embed(&self, text: &str) -> Vec<f64> {
        let mut span = self.tracer.span(SpanKind::LlmCall, "embed");
        let embedding = self.inner.embed(text);
        span.set_usage(Self::call_usage(count_tokens(text), 0));
        embedding
    }

    fn usage(&self) -> Usage {
        self.inner.usage()
    }

    fn simulated_latency_ms(&self) -> u64 {
        self.inner.simulated_latency_ms()
    }

    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
        let mut span = self.tracer.span(SpanKind::LlmCall, "generate_code");
        let code = self.inner.generate_code(spec);
        span.set_usage(Self::call_usage(count_tokens(&spec.task), count_tokens(&code.source)));
        code
    }

    fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
        let mut span = self.tracer.span(SpanKind::LlmCall, "suggest_fix");
        let suggestion = self.inner.suggest_fix(source, failures);
        // Bill the same request string `SimLlm::suggest_fix` meters.
        let request = format!("{source}\n{}", failures.join("\n"));
        span.set_usage(Self::call_usage(count_tokens(&request), count_tokens(&suggestion)));
        suggestion
    }

    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        let mut span = self.tracer.span(SpanKind::LlmCall, "repair_code");
        let code = self.inner.repair_code(spec, previous, suggestion);
        // Bill the same request string `SimLlm::repair_code` meters.
        let request = format!("{}\n{suggestion}", previous.source);
        span.set_usage(Self::call_usage(count_tokens(&request), count_tokens(&code.source)));
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::sink::{RingSink, TraceSink};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;

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
        let spec = CodeGenSpec {
            task: "tokenize the text into words".into(),
            function_name: "process".into(),
            hints: vec![],
        };
        let code = llm.generate_code(&spec);
        let fix = llm.suggest_fix(&code.source, &["case 3 failed".to_string()]);
        llm.repair_code(&spec, &code, &fix);

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
