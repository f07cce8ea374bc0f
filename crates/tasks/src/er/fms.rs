//! The FMs baseline ("Can Foundation Models Wrangle Your Data?", Narayan et
//! al.): prompt the LLM naively — no in-context examples, no output-format
//! pin, and a first-token answer parser. Exactly the configuration whose
//! brittleness Table 1 exposes (65.9 F1 on iTunes-Amazon).

use crate::er::PairMatcher;
use lingua_core::ExecContext;
use lingua_dataset::{Record, Schema};
use lingua_llm_sim::noise::parse_bool_naive;

/// The zero-shot prompt-only matcher.
pub struct FmsMatcher;

impl FmsMatcher {
    /// The naive prompt: note the *absence* of examples and of
    /// "Answer yes or no."
    pub fn prompt(schema: &Schema, left: &Record, right: &Record) -> String {
        format!(
            "Please determine if the following two records refer to the same entity.\n\
             Record A: {}\nRecord B: {}",
            left.describe(schema),
            right.describe(schema)
        )
    }
}

impl PairMatcher for FmsMatcher {
    fn name(&self) -> &str {
        "fms"
    }

    fn predict(
        &mut self,
        schema: &Schema,
        left: &Record,
        right: &Record,
        ctx: &mut ExecContext,
    ) -> bool {
        let prompt = FmsMatcher::prompt(schema, left, right);
        // No answer, no match.
        ctx.complete(prompt).is_ok_and(|response| parse_bool_naive(&response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::evaluate;
    use lingua_dataset::generators::er::{generate, ErDataset};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    #[test]
    fn fms_runs_and_spends_one_call_per_pair() {
        let world = WorldSpec::generate(25);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 25)));
        let split = generate(&world, ErDataset::BeerAdvoRateBeer, 3);
        let mut matcher = FmsMatcher;
        let confusion = evaluate(&mut matcher, &split, &mut ctx);
        assert_eq!(confusion.total(), split.test.len());
        assert_eq!(ctx.llm.usage().calls, split.test.len() as u64);
        // It works at all (well above chance)...
        assert!(confusion.f1() > 0.4, "f1 {}", confusion.f1());
    }

    #[test]
    fn prompt_has_no_format_pin() {
        let schema = Schema::of_names(["beer_name"]);
        let r = Record::new(vec![lingua_dataset::Value::from("x")]);
        let prompt = FmsMatcher::prompt(&schema, &r, &r);
        assert!(!prompt.to_lowercase().contains("answer yes or no"));
        assert!(!prompt.contains("Example:"));
    }
}
