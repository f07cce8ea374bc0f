//! The fallible transport layer.
//!
//! [`LlmTransport`] is the [`lingua_llm_sim::LlmService`] contract with the
//! truth restored: calls over a network can fail. [`ServiceTransport`] adapts
//! any service into a transport that never faults (the shape a
//! perfectly reliable backend would have); [`crate::FaultInjector`] is the
//! adversarial counterpart.

use crate::TransportError;
use lingua_llm_sim::{
    BatchOutcome, CodeGenSpec, CompletionRequest, GeneratedCode, LlmService, Usage,
};
use std::sync::Arc;

/// A named, fallible LLM backend.
///
/// Completions and embeddings — the hot, per-record paths — are fallible.
/// The structured code-generation endpoints stay infallible: they are called
/// a handful of times at pipeline-compile time and the repair loop around
/// them already tolerates bad output.
pub trait LlmTransport: Send + Sync {
    /// Stable backend name, used as the metrics key.
    fn name(&self) -> &str;
    /// Batched completion — the one completion method a transport
    /// implements. An `Ok` reply carries one member per request, in order,
    /// each an answer or a typed [`NoAnswer`](lingua_llm_sim::NoAnswer). A
    /// batch some of whose members drew a fault returns
    /// [`TransportError::Partial`] with one verdict per member — or, when a
    /// connection-scoped fault cut the call, one per member before the cut.
    /// The gateway keeps every answer and has the batcher re-send the rest;
    /// a plain error strikes the first member and leaves the others
    /// unreached. The gateway books any other reply shape — an `Ok` without
    /// one member and one split per request, or a partial reply of the wrong
    /// length — as malformed output.
    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Result<BatchOutcome, TransportError>;
    /// Free-text completion for a human or a test: a batch of one, with a
    /// non-answer rendered as its notice.
    fn complete(&self, request: &CompletionRequest) -> Result<String, TransportError> {
        let (response, _) = self.complete_batch(std::slice::from_ref(request))?.into_single();
        Ok(response.map_or_else(|no_answer| no_answer.to_string(), |text| text.to_string()))
    }
    /// Deterministic text embedding.
    fn embed(&self, text: &str) -> Result<Vec<f64>, TransportError>;
    /// Cumulative usage counters of the underlying service.
    fn usage(&self) -> Usage;
    /// Simulated wall-clock latency accumulated so far, in milliseconds.
    fn simulated_latency_ms(&self) -> u64;
    /// Generate an LLMGC module program.
    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode;
    /// Ask for a fix suggestion given code and failure descriptions.
    fn suggest_fix(&self, source: &str, failures: &[String]) -> String;
    /// Regenerate code after a failed validation.
    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode;
}

/// Adapter lifting an [`LlmService`] into a transport that never
/// faults.
pub struct ServiceTransport {
    name: String,
    service: Arc<dyn LlmService>,
}

impl ServiceTransport {
    pub fn new(name: impl Into<String>, service: Arc<dyn LlmService>) -> ServiceTransport {
        ServiceTransport { name: name.into(), service }
    }
}

impl LlmTransport for ServiceTransport {
    fn name(&self) -> &str {
        &self.name
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Result<BatchOutcome, TransportError> {
        Ok(self.service.complete_batch(requests))
    }

    fn embed(&self, text: &str) -> Result<Vec<f64>, TransportError> {
        Ok(self.service.embed(text))
    }

    fn usage(&self) -> Usage {
        self.service.usage()
    }

    fn simulated_latency_ms(&self) -> u64 {
        self.service.simulated_latency_ms()
    }

    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
        self.service.generate_code(spec)
    }

    fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
        self.service.suggest_fix(source, failures)
    }

    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        self.service.repair_code(spec, previous, suggestion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;

    #[test]
    fn service_transport_never_faults_and_forwards_usage() {
        let world = WorldSpec::generate(7);
        let svc: Arc<dyn LlmService> = Arc::new(SimLlm::with_seed(&world, 7));
        let transport = ServiceTransport::new("sim", svc);
        assert_eq!(transport.name(), "sim");
        let req = CompletionRequest::new("Summarize. Text: a reliable backend");
        let first = transport.complete(&req).expect("infallible");
        let second = transport.complete(&req).expect("infallible");
        assert_eq!(first, second);
        assert!(!transport.embed("some text").unwrap().is_empty());
        // Two completions plus the embed (SimLlm bills embeds as calls too).
        assert_eq!(transport.usage().calls, 3);
        assert!(transport.simulated_latency_ms() > 0);
    }

    #[test]
    fn service_transport_batches_through_the_service() {
        let world = WorldSpec::generate(7);
        let svc: Arc<dyn LlmService> = Arc::new(SimLlm::with_seed(&world, 7));
        let transport = ServiceTransport::new("sim", svc);
        let requests = vec![
            CompletionRequest::new("Summarize. Text: batched one"),
            CompletionRequest::new("Summarize. Text: batched two"),
        ];
        let outcome = transport.complete_batch(&requests).expect("infallible");
        assert_eq!(outcome.responses.len(), 2);
        // The override reaches the simulator's genuine batched entry point,
        // which amortizes the whole flush into one backend call.
        assert_eq!(outcome.batch_usage.calls, 1);
        assert_eq!(transport.usage(), outcome.batch_usage);
        let mut summed = Usage::default();
        for split in &outcome.splits {
            summed.merge(split);
        }
        assert_eq!(summed, outcome.batch_usage);
    }
}
