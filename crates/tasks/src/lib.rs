//! # lingua-tasks
//!
//! The end-to-end data-curation solutions from the paper's demonstration
//! (§4), plus every baseline they are compared against:
//!
//! * [`er`] — entity resolution (Table 1): simulated-Magellan (random
//!   forest), simulated-Ditto (rich-feature supervised matcher), the FMs
//!   prompt-only baseline, and the Lingua Manga solution (calibrated LLM
//!   module with examples and output validation).
//! * [`imputation`] — the Buy-dataset manufacturer imputation (§4.3):
//!   HoloClean-style statistical imputer, IMP-style supervised text
//!   classifier, pure LLM module, the FMs naive-prompt baseline, and the
//!   Lingua Manga LLMGC-rules-with-LLM-fallback solution.
//! * [`names`] — multilingual name extraction (§4.2): the three-operator
//!   pipeline (tokenize → noun phrases → tag), its monolingual failure mode,
//!   and the language-detection + multilingual-tools fix, with optional
//!   simulator cost reduction.

pub mod er;
pub mod imputation;
pub mod names;
