//! Entity resolution: the Table-1 benchmark harness and its four methods.

pub mod ditto;
pub mod fms;
pub mod lingua;
pub mod magellan;

use lingua_core::ExecContext;
use lingua_dataset::labels::{LabeledPair, PairSplit};
use lingua_dataset::{Record, Schema};
use lingua_ml::metrics::Confusion;

/// A record-pair matcher under evaluation.
pub trait PairMatcher {
    fn name(&self) -> &str;
    /// Decide whether the pair refers to the same entity.
    fn predict(
        &mut self,
        schema: &Schema,
        left: &Record,
        right: &Record,
        ctx: &mut ExecContext,
    ) -> bool;
}

/// Render a record's cells as strings, aligned with the schema.
pub(crate) fn record_fields(record: &Record) -> Vec<String> {
    record.iter().map(|v| v.render()).collect()
}

/// Evaluate a matcher on the test split.
pub fn evaluate(
    matcher: &mut dyn PairMatcher,
    split: &PairSplit,
    ctx: &mut ExecContext,
) -> Confusion {
    evaluate_on(matcher, &split.schema, &split.test, ctx)
}

/// Evaluate a matcher on an explicit pair list.
pub(crate) fn evaluate_on(
    matcher: &mut dyn PairMatcher,
    schema: &Schema,
    pairs: &[LabeledPair],
    ctx: &mut ExecContext,
) -> Confusion {
    let mut confusion = Confusion::default();
    for pair in pairs {
        let predicted = matcher.predict(schema, &pair.left, &pair.right, ctx);
        confusion.add(predicted, pair.label);
    }
    confusion
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_dataset::Value;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    struct AlwaysYes;
    impl PairMatcher for AlwaysYes {
        fn name(&self) -> &str {
            "always_yes"
        }
        fn predict(&mut self, _: &Schema, _: &Record, _: &Record, _: &mut ExecContext) -> bool {
            true
        }
    }

    #[test]
    fn evaluate_counts_correctly() {
        let world = WorldSpec::generate(1);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 1)));
        let schema = Schema::of_names(["x"]);
        let pairs = vec![
            LabeledPair {
                left_entity: 0,
                right_entity: 0,
                left: Record::new(vec![Value::Int(1)]),
                right: Record::new(vec![Value::Int(1)]),
                label: true,
            },
            LabeledPair {
                left_entity: 0,
                right_entity: 1,
                left: Record::new(vec![Value::Int(1)]),
                right: Record::new(vec![Value::Int(2)]),
                label: false,
            },
        ];
        let confusion = evaluate_on(&mut AlwaysYes, &schema, &pairs, &mut ctx);
        assert_eq!(confusion.tp, 1);
        assert_eq!(confusion.fp, 1);
        assert_eq!(confusion.recall(), 1.0);
    }

    #[test]
    fn record_fields_renders_nulls_empty() {
        let record = Record::new(vec![Value::Str("a".into()), Value::Null]);
        assert_eq!(record_fields(&record), vec!["a".to_string(), String::new()]);
    }
}
