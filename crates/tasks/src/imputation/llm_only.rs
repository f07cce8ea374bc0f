//! Pure LLM-module imputation: every row costs one LLM call. Two variants:
//!
//! * [`LlmOnlyImputer`] — the validated Lingua Manga LLM module (pinned
//!   format, candidate vocabulary in the prompt, category normalization,
//!   strict retry). This is §4.3's "version that only uses the LLM module"
//!   (93.92% in the paper).
//! * [`FmsImputer`] — the naive prompt-only baseline (no format pin, no
//!   candidates, exact-match scoring of the raw answer). This is the prior
//!   work's 84.6%.

use crate::imputation::Imputer;
use lingua_core::modules::{LlmModule, Module, PromptBuilder};
use lingua_core::validation::OutputValidator;
use lingua_core::{Data, ExecContext};

/// The validated LLM-module imputer.
pub struct LlmOnlyImputer {
    module: LlmModule,
}

impl LlmOnlyImputer {
    pub fn new(vocabulary: Vec<String>) -> LlmOnlyImputer {
        let candidates = format!("Candidates: {}", vocabulary.join(", "));
        LlmOnlyImputer {
            module: LlmModule::new(
                "impute_manufacturer",
                PromptBuilder::TextTask {
                    description: "Fill in the missing manufacturer for this product.".into(),
                    payload_label: "Product".into(),
                    extra_lines: vec![candidates],
                },
                OutputValidator::Category { vocabulary },
            ),
        }
    }
}

impl Imputer for LlmOnlyImputer {
    fn name(&self) -> &str {
        "llm_only"
    }

    fn impute(&mut self, name: &str, description: &str, ctx: &mut ExecContext) -> String {
        let input = Data::Str(format!("name: {name}; description: {description}"));
        match self.module.invoke(input, ctx) {
            Ok(Data::Str(answer)) => answer,
            _ => String::new(),
        }
    }
}

/// The naive prompt-only imputer (the FMs row of §4.3).
pub struct FmsImputer;

impl Imputer for FmsImputer {
    fn name(&self) -> &str {
        "fms"
    }

    fn impute(&mut self, name: &str, description: &str, ctx: &mut ExecContext) -> String {
        // No candidates, no format pin, no validation: the raw answer is
        // scored by exact match, so "The manufacturer is Sony." fails.
        let prompt = format!(
            "Fill in the missing manufacturer for this product.\n\
             Product: name: {name}; description: {description}"
        );
        ctx.complete(prompt).map(|answer| answer.trim().to_string()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imputation::evaluate;
    use lingua_dataset::generators::imputation::generate;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    #[test]
    fn validated_llm_imputer_is_strong_and_costs_one_call_per_row() {
        let world = WorldSpec::generate(35);
        let benchmark = generate(&world, 1);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 35)));
        let mut imputer = LlmOnlyImputer::new(benchmark.vocabulary.clone());
        let outcome = evaluate(&mut imputer, &benchmark, &mut ctx);
        assert!(outcome.accuracy() > 0.88, "accuracy {}", outcome.accuracy());
        // ~1 call per row (strict retries add a few).
        assert!(outcome.llm_calls >= benchmark.len() as u64);
        assert!(outcome.llm_calls < benchmark.len() as u64 + benchmark.len() as u64 / 5);
    }

    #[test]
    fn naive_fms_imputer_is_noticeably_weaker() {
        let world = WorldSpec::generate(36);
        let benchmark = generate(&world, 1);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 36)));
        let mut validated = LlmOnlyImputer::new(benchmark.vocabulary.clone());
        let mut naive = FmsImputer;
        let acc_validated = evaluate(&mut validated, &benchmark, &mut ctx).accuracy();
        let acc_naive = evaluate(&mut naive, &benchmark, &mut ctx).accuracy();
        assert!(acc_validated > acc_naive + 0.04, "validated {acc_validated} vs naive {acc_naive}");
    }
}
