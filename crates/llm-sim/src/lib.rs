//! # lingua-llm-sim
//!
//! A **deterministic simulated LLM service** — the substitution this
//! reproduction makes for the OpenAI-hosted models (GPT-3 / ChatGPT / Codex)
//! that the Lingua Manga paper builds on. See `DESIGN.md` §1 for the full
//! substitution argument.
//!
//! The simulator is *not* a mock that returns canned answers. It is a
//! parameterized generative model of LLM behaviour:
//!
//! * `prompt` really parses prompts and routes them to task behaviours
//!   (entity matching, imputation, name tagging, language detection,
//!   summarisation, fix suggestions).
//! * [`KnowledgeBase`] holds a *calibrated subset* of the ground-truth world
//!   ([`lingua_dataset::world::WorldSpec`]) — the LLM "knows" some entities,
//!   some product lines, some person names, exactly like a real pre-trained
//!   model partially overlaps enterprise data.
//! * [`noise`] models output instability: verbose phrasings, hedging, and
//!   occasional hallucinations, all seeded.
//! * [`codegen`] emits **real MangaScript programs** (ASTs, pretty-printed to
//!   source) with a seeded bug-injection model; the `lingua-core` Validator
//!   executes them, observes genuine failures, and drives the paper's
//!   suggest-and-regenerate repair loop.
//! * [`cost`] meters tokens and dollars for every call, which is what the
//!   paper's efficiency claims (§3.2 Simulator, §4.3's 1/6-calls economy) are
//!   measured in.
//!
//! Determinism: every response is a pure function of `(service seed, prompt)`.
//! The calibration constants live in [`Calibration`] and are documented
//! against the paper's published numbers.

pub mod behaviors;
mod calibration;
mod cancel;
pub mod codegen;
pub mod cost;
mod embeddings;
pub mod hotpath;
mod knowledge;
pub mod noise;
mod prompt;
mod service;

pub use calibration::Calibration;
pub use cancel::{CancelReason, CancelToken, NoAnswer, WaitMark};
pub use codegen::{BugKind, CodeGenSpec, GeneratedCode, TemplateKind};
pub use cost::{AtomicUsage, TokenPricing, Usage};
pub use hotpath::{fingerprint, CacheStats, Fnv1a, ShardedLru};
pub use knowledge::KnowledgeBase;
pub use service::{BatchOutcome, CompletionRequest, LlmService, SimLlm, SimLlmConfig};
