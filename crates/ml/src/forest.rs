//! Random forests: bagged CART trees with per-split feature subsampling.
//! This is the engine of the simulated-Magellan entity-matching baseline.

use crate::rng::Rng;
use crate::tree::{DecisionTree, TreeConfig};
use crate::Example;

/// Forest hyperparameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub tree: TreeConfig,
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { n_trees: 25, tree: TreeConfig::default(), seed: 0 }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    pub fn train(examples: &[Example], config: &ForestConfig) -> RandomForest {
        assert!(!examples.is_empty(), "cannot train on an empty set");
        let n_classes = examples.iter().map(|e| e.label).max().unwrap() + 1;
        let n_features = examples[0].features.len();
        // sqrt(d) features per split, the standard default.
        let max_features = (n_features as f64).sqrt().ceil() as usize;
        let mut rng = Rng::seed_from_u64(config.seed);
        let trees = (0..config.n_trees)
            .map(|t| {
                // Bootstrap sample.
                let sample: Vec<Example> = (0..examples.len())
                    .map(|_| examples[rng.gen_range(0..examples.len())].clone())
                    .collect();
                let tree_config = TreeConfig {
                    max_features: Some(config.tree.max_features.unwrap_or(max_features)),
                    seed: config.seed.wrapping_add(t as u64 + 1),
                    ..config.tree.clone()
                };
                DecisionTree::train(&sample, &tree_config)
            })
            .collect();
        RandomForest { trees, n_classes }
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean class-probability distribution across trees.
    pub fn predict_dist(&self, features: &[f64]) -> Vec<f64> {
        let mut dist = vec![0.0; self.n_classes];
        for tree in &self.trees {
            let d = tree.predict_dist(features);
            for (acc, p) in dist.iter_mut().zip(d.iter().chain(std::iter::repeat(&0.0))) {
                *acc += p;
            }
        }
        for d in &mut dist {
            *d /= self.trees.len() as f64;
        }
        dist
    }

    pub fn predict(&self, features: &[f64]) -> usize {
        self.predict_dist(features)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Probability of class 1 (binary convenience).
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        let dist = self.predict_dist(features);
        dist.get(1).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_blobs(n: usize, seed: u64) -> Vec<Example> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let center = if label == 1 { 1.0 } else { -1.0 };
                let features = (0..4).map(|_| center + rng.gen_range(-1.6..1.6)).collect();
                Example::new(features, label)
            })
            .collect()
    }

    #[test]
    fn forest_beats_chance_on_noisy_data() {
        let train = noisy_blobs(300, 1);
        let test = noisy_blobs(150, 2);
        let forest = RandomForest::train(&train, &ForestConfig::default());
        let correct = test.iter().filter(|ex| forest.predict(&ex.features) == ex.label).count();
        assert!(correct as f64 / 150.0 > 0.8, "accuracy {}", correct as f64 / 150.0);
    }

    #[test]
    fn dist_is_normalized() {
        let forest = RandomForest::train(&noisy_blobs(100, 3), &ForestConfig::default());
        let dist = forest.predict_dist(&[0.0, 0.0, 0.0, 0.0]);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = noisy_blobs(100, 4);
        let a = RandomForest::train(&data, &ForestConfig { seed: 7, ..Default::default() });
        let b = RandomForest::train(&data, &ForestConfig { seed: 7, ..Default::default() });
        assert_eq!(a.predict_dist(&[0.3; 4]), b.predict_dist(&[0.3; 4]));
    }

    #[test]
    fn predict_proba_binary() {
        let forest = RandomForest::train(&noisy_blobs(200, 5), &ForestConfig::default());
        assert!(forest.predict_proba(&[2.0; 4]) > 0.5);
        assert!(forest.predict_proba(&[-2.0; 4]) < 0.5);
    }

    #[test]
    fn single_class_training() {
        let data = vec![Example::new(vec![1.0], 0); 10];
        let forest = RandomForest::train(&data, &ForestConfig { n_trees: 3, ..Default::default() });
        assert_eq!(forest.predict(&[0.0]), 0);
        assert_eq!(forest.predict_proba(&[0.0]), 0.0);
    }
}
