//! The fallible transport layer.
//!
//! [`LlmTransport`] is the [`lingua_llm_sim::LlmService`] contract with the
//! truth restored: calls over a network can fail. [`ServiceTransport`] adapts
//! any service into a transport that never faults (the shape a
//! perfectly reliable backend would have); [`crate::FaultInjector`] is the
//! adversarial counterpart.

use crate::TransportError;
use lingua_llm_sim::{
    BatchOutcome, CodeGenSpec, CodeRequest, CompletionRequest, GeneratedCode, LlmService, NoAnswer,
    Usage,
};
use std::sync::Arc;

/// Answer one member of a wire call with a lone call to `service`: owed to
/// the member's own thread ([`CompletionRequest::owe`]) when the call
/// carries more than one member (`owing`) and the batcher gave the member a
/// settle slot, else made here. A provider computes a batch's members in
/// parallel, and this is how a member's compute leaves the flusher's thread.
pub(crate) fn answer_member<S: LlmService + ?Sized + 'static>(
    service: &Arc<S>,
    request: &CompletionRequest,
    owing: bool,
) -> (Result<Arc<str>, NoAnswer>, Usage) {
    let service = Arc::clone(service);
    let call = move |request: &CompletionRequest| {
        service.complete_batch(std::slice::from_ref(request)).into_single()
    };
    if owing {
        request.owe(call)
    } else {
        call(request)
    }
}

/// A named, fallible LLM backend: completions and embeddings can fail.
///
/// Five methods are required. Code generation is not one of them: LLMGC
/// places a [`CodeRequest`] as a completion, which crosses the gateway's
/// faults, retries and breakers like any other. `generate_code`,
/// `suggest_fix` and `repair_code` are provided over `complete_batch`, and
/// kept only because the benchmark crate (`lingua-e2e`) overrides them;
/// nothing calls them.
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
    // The provided code-generation methods: each a batch of one, where a
    // call without an answer gives an empty program or suggestion.
    /// A first draft of a program for `spec`.
    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
        GeneratedCode { source: code_answer(self, CodeRequest::draft(spec, 1)) }
    }
    /// A fix suggestion for `source`, given its failures.
    fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
        let spec = CodeGenSpec::default();
        code_answer(self, CodeRequest::fix(&spec, 1, source, failures))
    }
    /// A first repair of `previous`, along `suggestion`.
    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        let request = CodeRequest::repair(spec, 2, &previous.source, suggestion);
        GeneratedCode { source: code_answer(self, request) }
    }
}

/// What `transport` answers a provided code-generation method's request.
fn code_answer<T: LlmTransport + ?Sized>(transport: &T, request: CodeRequest<'_>) -> String {
    let request = CompletionRequest::new(request.render());
    let reply = transport.complete_batch(std::slice::from_ref(&request)).ok();
    let answer = reply.and_then(|outcome| outcome.into_single().0.ok());
    answer.map_or_else(String::new, |text| text.to_string())
}

/// Adapter lifting an [`LlmService`] into a transport that never
/// faults. Each member is a lone call to the service, owed to its own
/// thread in a call of more than one member, as [`crate::FaultInjector`]
/// owes a passing member.
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
        let owing = requests.len() > 1;
        Ok(requests.iter().map(|request| answer_member(&self.service, request, owing)).collect())
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
        // Without settle slots nothing is owed: each member is one call to
        // the simulator, made here.
        assert_eq!(outcome.batch_usage.calls, 2);
        assert_eq!(transport.usage(), outcome.batch_usage);
        let mut summed = Usage::default();
        for split in &outcome.splits {
            summed.merge(split);
        }
        assert_eq!(summed, outcome.batch_usage);
        // With them, both members are owed and bill when their threads
        // settle them.
        let slotted: Vec<_> = requests.iter().map(|r| r.clone().with_settle_slot()).collect();
        let owed = transport.complete_batch(&slotted).expect("infallible");
        assert_eq!(owed.responses, [Err(NoAnswer::Owed), Err(NoAnswer::Owed)]);
        assert_eq!(transport.usage(), outcome.batch_usage, "an owed member bills nothing yet");
        for (request, response) in slotted.iter().zip(&outcome.responses) {
            assert_eq!(request.settle().0, *response);
        }
        assert_eq!(transport.usage().calls, 4);
    }
}
