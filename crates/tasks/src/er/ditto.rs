//! Simulated Ditto: the "fine-tuned pre-trained LM" matcher of Table 1 —
//! played here by a logistic-regression matcher over a *rich* similarity
//! feature set, with validation-tuned decision threshold and simple data
//! augmentation (the real Ditto's key tricks: richer representations, more
//! labels, augmentation).

use crate::er::{record_fields, PairMatcher};
use lingua_core::ExecContext;
use lingua_dataset::labels::PairSplit;
use lingua_dataset::{Record, Schema};
use lingua_ml::features::{rich_pair_features, Standardizer};
use lingua_ml::logreg::{tune_threshold, LogReg, LogRegConfig};
use lingua_ml::rng::Rng;
use lingua_ml::Example;

/// A trained Ditto-style matcher.
pub struct DittoMatcher {
    model: LogReg,
    standardizer: Standardizer,
    threshold: f64,
}

impl DittoMatcher {
    /// Train on the split's train pairs (with augmentation), tuning the
    /// threshold on the validation pairs.
    pub fn train(split: &PairSplit, seed: u64) -> DittoMatcher {
        let mut rng = Rng::seed_from_u64(seed ^ 0xd177);
        let mut raw: Vec<(Vec<String>, Vec<String>, bool)> = split
            .train
            .iter()
            .map(|p| (record_fields(&p.left), record_fields(&p.right), p.label))
            .collect();

        // Augmentation: swapped sides (symmetry) and self-pairs (identity).
        let swapped: Vec<_> = raw.iter().map(|(l, r, y)| (r.clone(), l.clone(), *y)).collect();
        raw.extend(swapped);
        for pair in rng.choose_multiple(split.train.iter(), split.train.len() / 4) {
            let fields = record_fields(&pair.left);
            raw.push((fields.clone(), fields, true));
        }

        let features: Vec<Vec<f64>> =
            raw.iter().map(|(l, r, _)| rich_pair_features(l, r)).collect();
        let standardizer = Standardizer::fit(&features);
        let examples: Vec<Example> = features
            .into_iter()
            .zip(&raw)
            .map(|(f, (_, _, y))| Example::new(standardizer.transform(&f), usize::from(*y)))
            .collect();
        assert!(!examples.is_empty(), "ditto needs labeled pairs");
        let model = LogReg::train(
            &examples,
            &LogRegConfig { epochs: 120, learning_rate: 0.5, seed, ..Default::default() },
        );

        // Threshold tuning on the validation split.
        let valid: Vec<Example> = split
            .valid
            .iter()
            .map(|p| {
                let f = rich_pair_features(&record_fields(&p.left), &record_fields(&p.right));
                Example::new(standardizer.transform(&f), usize::from(p.label))
            })
            .collect();
        let threshold = if valid.is_empty() { 0.5 } else { tune_threshold(&model, &valid) };
        DittoMatcher { model, standardizer, threshold }
    }

    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl PairMatcher for DittoMatcher {
    fn name(&self) -> &str {
        "ditto"
    }

    fn predict(
        &mut self,
        _schema: &Schema,
        left: &Record,
        right: &Record,
        _ctx: &mut ExecContext,
    ) -> bool {
        let features = rich_pair_features(&record_fields(left), &record_fields(right));
        self.model.predict_at(&self.standardizer.transform(&features), self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::evaluate;
    use crate::er::magellan::MagellanMatcher;
    use lingua_dataset::generators::er::{generate, ErDataset};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    #[test]
    fn ditto_is_strong_across_datasets() {
        let world = WorldSpec::generate(22);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 22)));
        for dataset in ErDataset::ALL {
            let split = generate(&world, dataset, 7);
            let mut ditto = DittoMatcher::train(&split, 0);
            let confusion = evaluate(&mut ditto, &split, &mut ctx);
            assert!(confusion.f1() > 0.80, "{}: f1 {}", dataset.name(), confusion.f1());
        }
    }

    #[test]
    fn ditto_at_least_matches_magellan_on_the_hard_dataset() {
        let world = WorldSpec::generate(23);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 23)));
        let split = generate(&world, ErDataset::ItunesAmazon, 9);
        let mut ditto = DittoMatcher::train(&split, 0);
        let mut magellan = MagellanMatcher::train(&split, 0);
        let f1_ditto = evaluate(&mut ditto, &split, &mut ctx).f1();
        let f1_magellan = evaluate(&mut magellan, &split, &mut ctx).f1();
        assert!(f1_ditto >= f1_magellan - 0.03, "ditto {f1_ditto} vs magellan {f1_magellan}");
    }

    #[test]
    fn threshold_is_tuned_within_range() {
        let world = WorldSpec::generate(24);
        let split = generate(&world, ErDataset::BeerAdvoRateBeer, 3);
        let ditto = DittoMatcher::train(&split, 0);
        assert!((0.05..=0.95).contains(&ditto.threshold()));
    }
}
