//! # lingua-gateway
//!
//! Resilient multi-backend LLM gateway for the Lingua Manga system.
//!
//! The paper treats the LLM as an expensive black box and spends its
//! optimizer budget minimizing *calls*; a production deployment must also
//! survive the calls that *fail*. This crate restores fallibility at the
//! transport layer and then hides it again behind the
//! [`lingua_llm_sim::LlmService`] contract the rest of the system programs
//! against, where all that is left of a failure is a typed
//! [`lingua_llm_sim::NoAnswer`] member:
//!
//! ```text
//!   modules / serve workers
//!            │ LlmService (answer or NoAnswer per member)
//!            ▼
//!        ┌─────────┐   retry + backoff, circuit breaking,
//!        │ Gateway │   failover, degraded mode
//!        └─────────┘
//!            │ LlmTransport (Result<_, TransportError>)
//!      ┌─────┴──────┬───────────────┐
//!      ▼            ▼               ▼
//!  primary      standby         fallback (degraded only)
//! ```
//!
//! [`FaultInjector`] is the chaos substrate: a deterministic, seedable
//! wrapper over [`lingua_llm_sim::SimLlm`] whose fault decisions are a pure
//! function of `(seed, prompt, attempt)` — chaos tests replay the plan and
//! assert **exact** retry, breaker, and fallback counts.

mod backoff;
mod batch;
mod breaker;
mod error;
mod fault;
mod gateway;
mod metrics;
mod transport;

pub use backoff::BackoffPolicy;
pub use batch::{BatchConfig, BatchSnapshot, Batcher, FlushReason, FlushRecord};
pub use breaker::{BreakerConfig, BreakerState, BreakerStats};
pub use error::{FaultClass, TransportError, Verdict};
pub use fault::{prompt_key, FaultCounts, FaultInjector, FaultPlan};
pub use gateway::{Gateway, GatewayBuilder};
pub use metrics::{BackendCounters, BackendSnapshot, GatewaySnapshot};
pub use transport::{LlmTransport, ServiceTransport};
