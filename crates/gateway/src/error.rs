//! Typed transport faults.
//!
//! Everything below the gateway speaks `Result<_, TransportError>`; everything
//! above it speaks [`lingua_llm_sim::LlmService`], where a fault the gateway
//! could not absorb is a typed [`lingua_llm_sim::NoAnswer`] member. The
//! four fault classes model the failures a hosted LLM API actually produces:
//! deadline misses, load shedding, 5xx-style hiccups, and syntactically broken
//! payloads. A batched call that did not answer every member carries one
//! verdict per member it reached ([`TransportError::Partial`]).

use lingua_llm_sim::{NoAnswer, Usage};
use std::fmt;
use std::sync::Arc;

/// One member's verdict in a batched call: its answer and the usage billed
/// for it, or the fault that member alone drew.
pub type Verdict = Result<(Result<Arc<str>, NoAnswer>, Usage), TransportError>;

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

    /// Whether a fault belongs to one member of a batched call rather than to
    /// the connection carrying it. The model failing on one prompt (a crashed
    /// worker, a broken payload) leaves the call's other members answered; a
    /// deadline or a shed connection ends the whole call where it struck.
    pub fn is_member_scoped(self) -> bool {
        matches!(self, FaultClass::TransientServer | FaultClass::MalformedOutput)
    }

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
    /// A batched call that did not answer every member. `verdicts[i]` is
    /// member *i*'s answer or its own member-scoped fault. When `cut` is set,
    /// a connection-scoped fault ended the call at member `verdicts.len()`:
    /// that member drew it, and the members after it were never reached. Its
    /// class, retry verdict and hint are those of the cut, else of its first
    /// member fault.
    Partial { verdicts: Vec<Verdict>, cut: Option<Box<TransportError>> },
}

impl TransportError {
    pub fn class(&self) -> FaultClass {
        match self {
            TransportError::Timeout { .. } => FaultClass::Timeout,
            TransportError::RateLimited { .. } => FaultClass::RateLimited,
            TransportError::TransientServer { .. } => FaultClass::TransientServer,
            TransportError::MalformedOutput { .. } => FaultClass::MalformedOutput,
            // A partial call without a fault is itself a malformed reply.
            TransportError::Partial { .. } => {
                self.fault().map_or(FaultClass::MalformedOutput, TransportError::class)
            }
        }
    }

    /// The fault that answers for this error: itself, or for a partial call
    /// the cut, else its first member fault.
    fn fault(&self) -> Option<&TransportError> {
        match self {
            TransportError::Partial { verdicts, cut } => cut
                .as_deref()
                .or_else(|| verdicts.iter().find_map(|verdict| verdict.as_ref().err()))
                .and_then(TransportError::fault),
            plain => Some(plain),
        }
    }

    /// Whether retrying the *same* backend can plausibly succeed.
    ///
    /// Timeouts, rate limits, and transient server errors clear on their own.
    /// Malformed output from a temperature-0 backend is deterministic — the
    /// same prompt regenerates the same broken payload — so the gateway fails
    /// over to the next backend instead of burning retries.
    pub(crate) fn is_retryable(&self) -> bool {
        self.class() != FaultClass::MalformedOutput
    }

    /// A server-suggested minimum delay before retrying, if the fault carried
    /// one (rate limits do).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            TransportError::RateLimited { retry_after_ms } => Some(*retry_after_ms),
            TransportError::Partial { .. } => self.fault()?.retry_after_ms(),
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
            TransportError::Partial { verdicts, .. } => {
                let answered = verdicts.iter().filter(|verdict| verdict.is_ok()).count();
                match self.fault() {
                    Some(fault) => write!(f, "{fault}, beside {answered} answered members"),
                    None => write!(f, "a partial call without a fault"),
                }
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
        let answered: Verdict = Ok((Ok(Arc::from("yes")), Usage::default()));
        for fault in errors {
            let cut = TransportError::Partial {
                verdicts: vec![
                    answered.clone(),
                    Err(TransportError::TransientServer { message: "member".into() }),
                ],
                cut: Some(Box::new(fault.clone())),
            };
            let member = TransportError::Partial {
                verdicts: vec![answered.clone(), Err(fault.clone())],
                cut: None,
            };
            for partial in [cut, member] {
                assert_eq!(partial.class(), fault.class());
                assert_eq!(partial.is_retryable(), fault.is_retryable());
                assert_eq!(partial.retry_after_ms(), fault.retry_after_ms());
                assert!(partial.to_string().starts_with(&fault.to_string()));
            }
        }
        let faultless = TransportError::Partial { verdicts: vec![answered], cut: None };
        assert_eq!(faultless.class(), FaultClass::MalformedOutput);
    }

    #[test]
    fn only_the_model_failing_on_a_prompt_is_member_scoped() {
        let scoped: Vec<bool> = FaultClass::ALL.iter().map(|c| c.is_member_scoped()).collect();
        assert_eq!(scoped, [false, false, true, true]);
    }
}
