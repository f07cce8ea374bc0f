//! Per-intent response behaviours.
//!
//! Each behaviour receives the knowledge base, the calibration, the parsed
//! prompt, and a per-call seeded RNG, and produces the response text a real
//! LLM would have produced — including surface-form instability.

pub mod entity_match;
pub(crate) mod impute;
pub mod langdetect;
pub(crate) mod summarize;
pub(crate) mod tag;
