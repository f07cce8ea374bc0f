//! Labeled pairs and train/validation/test splits.

use crate::record::Record;
use crate::schema::Schema;

/// A labeled candidate pair for entity resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPair {
    /// Hidden ground-truth entity id behind the left record.
    pub left_entity: u64,
    /// Hidden ground-truth entity id behind the right record.
    pub right_entity: u64,
    pub left: Record,
    pub right: Record,
    /// True iff the two records refer to the same real-world entity.
    pub label: bool,
}

/// A 3:1:1-style split of labeled pairs (the Magellan repository convention).
#[derive(Debug, Clone)]
pub struct PairSplit {
    pub schema: Schema,
    pub train: Vec<LabeledPair>,
    pub valid: Vec<LabeledPair>,
    pub test: Vec<LabeledPair>,
}

impl PairSplit {
    /// Partition `pairs` into train/valid/test with the given fractions
    /// (test gets the remainder). The input order is preserved, so shuffle
    /// first if needed.
    pub fn from_fractions(
        schema: Schema,
        pairs: Vec<LabeledPair>,
        train_frac: f64,
        valid_frac: f64,
    ) -> PairSplit {
        let n = pairs.len();
        let n_train = (n as f64 * train_frac).round() as usize;
        let n_valid = (n as f64 * valid_frac).round() as usize;
        let mut iter = pairs.into_iter();
        let train: Vec<_> = iter.by_ref().take(n_train).collect();
        let valid: Vec<_> = iter.by_ref().take(n_valid).collect();
        let test: Vec<_> = iter.collect();
        PairSplit { schema, train, valid, test }
    }

    pub fn total(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }

    /// Count of positive labels across all splits.
    pub fn positives(&self) -> usize {
        self.train.iter().chain(&self.valid).chain(&self.test).filter(|p| p.label).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn pair(i: u64, label: bool) -> LabeledPair {
        LabeledPair {
            left_entity: i,
            right_entity: i,
            left: Record::new(vec![Value::Int(i as i64)]),
            right: Record::new(vec![Value::Int(i as i64)]),
            label,
        }
    }

    #[test]
    fn split_fractions() {
        let pairs: Vec<_> = (0..100).map(|i| pair(i, i % 5 == 0)).collect();
        let split = PairSplit::from_fractions(Schema::of_names(["id"]), pairs, 0.6, 0.2);
        assert_eq!(split.train.len(), 60);
        assert_eq!(split.valid.len(), 20);
        assert_eq!(split.test.len(), 20);
        assert_eq!(split.total(), 100);
        assert_eq!(split.positives(), 20);
    }

    #[test]
    fn empty_split() {
        let split = PairSplit::from_fractions(Schema::of_names(["id"]), vec![], 0.6, 0.2);
        assert_eq!(split.total(), 0);
        assert_eq!(split.positives(), 0);
    }
}
