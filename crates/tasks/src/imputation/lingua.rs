//! The Lingua Manga imputation solution (§4.3, Figure 4): an expert-guided
//! LLMGC module whose generated rules resolve the easy rows locally (the
//! brand is right there in the text) and fall back to `call_llm` only for the
//! hard rows — "it can effectively use the LLM as an external tool to resolve
//! complex cases while still performing more efficiently than a pure LLM
//! module on more straightforward cases", at roughly 1/6 of the LLM calls.

use crate::imputation::Imputer;
use lingua_core::modules::{LlmgcModule, Module};
use lingua_core::optimizer::{TestCase, ValidationOutcome, Validator};
use lingua_core::{Data, ExecContext};
use lingua_llm_sim::noise::normalize_category;
use lingua_llm_sim::CodeGenSpec;
use lingua_script::Value as ScriptValue;

/// Build the execution context tooling this solution expects: the brand
/// vocabulary tool and the output normalizer the generated code calls.
pub fn register_tools(ctx: &mut ExecContext, vocabulary: &[String]) {
    ctx.tools.register_list("vocabulary", vocabulary.to_vec());
    let vocab = vocabulary.to_vec();
    ctx.tools.register("normalize_brand", move |args| {
        let raw = args
            .first()
            .and_then(|v| v.as_str())
            .ok_or_else(|| "normalize_brand expects a string".to_string())?;
        Ok(ScriptValue::from(normalize_category(raw, &vocab)))
    });
}

/// The code-generation spec an expert would write for Figure 4.
pub fn spec() -> CodeGenSpec {
    CodeGenSpec {
        task: "impute the missing manufacturer from the product name and description; \
               scan the vocabulary tool for a brand mentioned in the text, and use the \
               LLM as a fallback for products with no brand mention"
            .into(),
        function_name: "process".into(),
        hints: vec!["tool:vocabulary".into(), "tool:normalize_brand".into()],
    }
}

/// Expert-provided validation cases: easy rows the rules must handle locally,
/// plus the null guard.
pub fn validation_cases(vocabulary: &[String]) -> Vec<TestCase> {
    let brand_a = vocabulary.first().cloned().unwrap_or_else(|| "Sony".into());
    let brand_b = vocabulary.get(1).cloned().unwrap_or_else(|| "Canon".into());
    vec![
        TestCase::new(
            Data::map([
                ("name".to_string(), Data::Str(format!("{brand_a} Handheld Scanner Z10"))),
                ("description".to_string(), Data::Str("compact scanner".into())),
            ]),
            Data::Str(brand_a),
        ),
        TestCase::new(
            Data::map([
                ("name".to_string(), Data::Str("Handheld Scanner Z10".into())),
                (
                    "description".to_string(),
                    Data::Str(format!("compact scanner from {brand_b}'s lineup")),
                ),
            ]),
            Data::Str(brand_b),
        ),
        TestCase::new(Data::Null, Data::Null),
    ]
}

/// The assembled solution: a validated LLMGC module.
pub struct LinguaImputer {
    module: LlmgcModule,
    /// The validation report from construction (for experiment reporting).
    pub validation: lingua_core::optimizer::ValidationReport,
}

impl LinguaImputer {
    /// Generate, validate, and repair the module. `ctx` must already carry
    /// the tools from [`register_tools`].
    pub fn build(ctx: &mut ExecContext) -> Result<LinguaImputer, lingua_core::CoreError> {
        let spec = spec();
        let mut module = LlmgcModule::generate("impute_manufacturer", spec, ctx)?;
        let vocabulary: Vec<String> = match ctx.tools.call("vocabulary", &[]) {
            Ok(ScriptValue::List(items)) => {
                items.iter().filter_map(|v| v.as_str().map(|s| s.to_string())).collect()
            }
            _ => vec![],
        };
        let validator = Validator::new(validation_cases(&vocabulary))
            .with_budgets(4, 2)
            // The easy cases must be resolved by the local rules — zero LLM
            // calls. This is what catches rules that silently defer to the
            // expensive fallback (functionally correct, 6x the cost).
            .with_llm_budget(0);
        let validation = validator.validate_and_fix(&mut module, ctx)?;
        if validation.outcome != ValidationOutcome::Passed {
            return Err(lingua_core::CoreError::ValidationExhausted {
                module: "impute_manufacturer".into(),
                cycles: validation.cycles,
                regenerations: validation.regenerations,
            });
        }
        Ok(LinguaImputer { module, validation })
    }

    /// The generated (and repaired) MangaScript source.
    pub fn source(&self) -> &str {
        self.module.source()
    }
}

impl Imputer for LinguaImputer {
    fn name(&self) -> &str {
        "lingua_manga"
    }

    fn impute(&mut self, name: &str, description: &str, ctx: &mut ExecContext) -> String {
        let input = Data::map([
            ("name".to_string(), Data::Str(name.to_string())),
            ("description".to_string(), Data::Str(description.to_string())),
        ]);
        match self.module.invoke(input, ctx) {
            Ok(Data::Str(answer)) => answer,
            _ => String::new(),
        }
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
    fn builds_validates_and_imputes_with_few_llm_calls() {
        let world = WorldSpec::generate(37);
        let benchmark = generate(&world, 1);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 37)));
        register_tools(&mut ctx, &benchmark.vocabulary);
        let mut imputer = LinguaImputer::build(&mut ctx).unwrap();
        assert!(imputer.source().contains("call_llm"), "fallback path must exist");

        ctx.llm.usage(); // warm
        let calls_before = ctx.llm.usage().calls;
        let outcome = evaluate(&mut imputer, &benchmark, &mut ctx);
        let _ = calls_before;
        assert!(outcome.accuracy() > 0.85, "accuracy {}", outcome.accuracy());
        // The 1/6 economy: most rows resolve by rules, roughly the hard sixth
        // falls back to the LLM.
        let calls_per_row = outcome.llm_calls as f64 / benchmark.len() as f64;
        assert!(calls_per_row < 0.30, "calls per row {calls_per_row} (expected around 1/6)");
        assert!(calls_per_row > 0.05, "fallback should actually fire: {calls_per_row}");
    }

    #[test]
    fn validation_cases_cover_easy_paths_and_null() {
        let cases = validation_cases(&["Sony".into(), "Canon".into()]);
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].expected, Data::Str("Sony".into()));
        assert_eq!(cases[2].expected, Data::Null);
    }
}
