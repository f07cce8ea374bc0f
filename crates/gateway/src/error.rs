//! Typed transport faults.
//!
//! Everything below the gateway speaks `Result<_, TransportError>`; everything
//! above it speaks [`lingua_llm_sim::LlmService`], where a fault the gateway
//! could not absorb is a typed [`lingua_llm_sim::NoAnswer`] member. The
//! four fault classes model the failures a hosted LLM API actually produces:
//! deadline misses, load shedding, 5xx-style hiccups, and syntactically broken
//! payloads. A batched call that dies partway carries the answers it had
//! already delivered beside its fault ([`TransportError::Partial`]).

use lingua_llm_sim::BatchOutcome;
use std::fmt;

/// The class of a transport fault, used as a metrics key and by the
/// fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    Timeout,
    RateLimited,
    TransientServer,
    MalformedOutput,
}

impl FaultClass {
    pub const ALL: [FaultClass; 4] = [
        FaultClass::Timeout,
        FaultClass::RateLimited,
        FaultClass::TransientServer,
        FaultClass::MalformedOutput,
    ];

    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Timeout => "timeout",
            FaultClass::RateLimited => "rate_limited",
            FaultClass::TransientServer => "transient_server",
            FaultClass::MalformedOutput => "malformed_output",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A failed transport call.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The backend did not answer within its deadline.
    Timeout { waited_ms: u64 },
    /// The backend shed load and asked the client to slow down.
    RateLimited { retry_after_ms: u64 },
    /// A transient server-side failure (the 5xx of a hosted API).
    TransientServer { message: String },
    /// The backend answered, but the payload failed output validation.
    MalformedOutput { preview: String },
    /// A batched call that died at member *k*: `delivered` holds the answers
    /// for members `0..k`, which the backend computed and billed, and `fault`
    /// is member *k*'s. Members after *k* were never reached. Its class, retry
    /// verdict and hint are the fault's.
    Partial { delivered: BatchOutcome, fault: Box<TransportError> },
}

impl TransportError {
    pub fn class(&self) -> FaultClass {
        match self {
            TransportError::Timeout { .. } => FaultClass::Timeout,
            TransportError::RateLimited { .. } => FaultClass::RateLimited,
            TransportError::TransientServer { .. } => FaultClass::TransientServer,
            TransportError::MalformedOutput { .. } => FaultClass::MalformedOutput,
            TransportError::Partial { fault, .. } => fault.class(),
        }
    }

    /// Whether retrying the *same* backend can plausibly succeed.
    ///
    /// Timeouts, rate limits, and transient server errors clear on their own.
    /// Malformed output from a temperature-0 backend is deterministic — the
    /// same prompt regenerates the same broken payload — so the gateway fails
    /// over to the next backend instead of burning retries.
    pub fn is_retryable(&self) -> bool {
        self.class() != FaultClass::MalformedOutput
    }

    /// A server-suggested minimum delay before retrying, if the fault carried
    /// one (rate limits do).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            TransportError::RateLimited { retry_after_ms } => Some(*retry_after_ms),
            TransportError::Partial { fault, .. } => fault.retry_after_ms(),
            _ => None,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Timeout { waited_ms } => {
                write!(f, "backend timed out after {waited_ms} ms")
            }
            TransportError::RateLimited { retry_after_ms } => {
                write!(f, "backend rate-limited the call; retry after {retry_after_ms} ms")
            }
            TransportError::TransientServer { message } => {
                write!(f, "transient server error: {message}")
            }
            TransportError::MalformedOutput { preview } => {
                write!(f, "backend returned malformed output: {preview:?}")
            }
            TransportError::Partial { delivered, fault } => {
                write!(f, "{fault}, after {} delivered members", delivered.responses.len())
            }
        }
    }
}

impl std::error::Error for TransportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_round_trip() {
        let errors = [
            TransportError::Timeout { waited_ms: 100 },
            TransportError::RateLimited { retry_after_ms: 50 },
            TransportError::TransientServer { message: "oops".into() },
            TransportError::MalformedOutput { preview: "{...".into() },
        ];
        for (err, class) in errors.iter().zip(FaultClass::ALL) {
            assert_eq!(err.class(), class);
            assert!(!err.to_string().is_empty());
            assert!(!class.label().is_empty());
        }
    }

    #[test]
    fn only_malformed_output_is_not_retryable() {
        assert!(TransportError::Timeout { waited_ms: 1 }.is_retryable());
        assert!(TransportError::RateLimited { retry_after_ms: 1 }.is_retryable());
        assert!(TransportError::TransientServer { message: String::new() }.is_retryable());
        assert!(!TransportError::MalformedOutput { preview: String::new() }.is_retryable());
    }

    #[test]
    fn rate_limits_carry_a_retry_hint() {
        assert_eq!(TransportError::RateLimited { retry_after_ms: 75 }.retry_after_ms(), Some(75));
        assert_eq!(TransportError::Timeout { waited_ms: 75 }.retry_after_ms(), None);
    }

    #[test]
    fn a_partial_call_answers_for_its_fault() {
        let errors = [
            TransportError::Timeout { waited_ms: 100 },
            TransportError::RateLimited { retry_after_ms: 50 },
            TransportError::TransientServer { message: "oops".into() },
            TransportError::MalformedOutput { preview: "{...".into() },
        ];
        for fault in errors {
            let partial = TransportError::Partial {
                delivered: BatchOutcome::default(),
                fault: Box::new(fault.clone()),
            };
            assert_eq!(partial.class(), fault.class());
            assert_eq!(partial.is_retryable(), fault.is_retryable());
            assert_eq!(partial.retry_after_ms(), fault.retry_after_ms());
            assert!(partial.to_string().starts_with(&fault.to_string()));
        }
    }
}
