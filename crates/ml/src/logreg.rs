//! Binary logistic regression trained with mini-batch SGD.

use crate::rng::Rng;
use crate::Example;
#[cfg(test)]
use crate::FeatureVec;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct LogRegConfig {
    pub epochs: usize,
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    pub batch_size: usize,
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig { epochs: 60, learning_rate: 0.3, l2: 1e-4, batch_size: 16, seed: 0 }
    }
}

/// A trained binary logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogReg {
    pub weights: Vec<f64>,
    pub bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogReg {
    /// Train on examples with labels in `{0, 1}`. Examples with other labels
    /// are treated as 1 if nonzero.
    pub fn train(examples: &[Example], config: &LogRegConfig) -> LogReg {
        assert!(!examples.is_empty(), "cannot train on an empty set");
        let dims = examples[0].features.len();
        let mut weights = vec![0.0; dims];
        let mut bias = 0.0;
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..examples.len()).collect();

        for epoch in 0..config.epochs {
            rng.shuffle(&mut order);
            // Simple 1/sqrt decay keeps late epochs stable.
            let lr = config.learning_rate / (1.0 + epoch as f64).sqrt();
            for batch in order.chunks(config.batch_size.max(1)) {
                let mut grad_w = vec![0.0; dims];
                let mut grad_b = 0.0;
                for &i in batch {
                    let ex = &examples[i];
                    let y = if ex.label != 0 { 1.0 } else { 0.0 };
                    let p = sigmoid(dot(&weights, &ex.features) + bias);
                    let err = p - y;
                    for (g, x) in grad_w.iter_mut().zip(&ex.features) {
                        *g += err * x;
                    }
                    grad_b += err;
                }
                let scale = lr / batch.len() as f64;
                for (w, g) in weights.iter_mut().zip(&grad_w) {
                    *w -= scale * (g + config.l2 * *w);
                }
                bias -= scale * grad_b;
            }
        }
        LogReg { weights, bias }
    }

    /// Probability of the positive class.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        sigmoid(dot(&self.weights, features) + self.bias)
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= 0.5
    }

    /// Hard prediction at a custom threshold.
    pub fn predict_at(&self, features: &[f64], threshold: f64) -> bool {
        self.predict_proba(features) >= threshold
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Pick the classification threshold maximizing F1 on a validation set.
pub fn tune_threshold(model: &LogReg, valid: &[Example]) -> f64 {
    let mut best = (0.5, -1.0);
    let mut t = 0.05;
    while t < 0.96 {
        let (mut tp, mut fp, mut fn_) = (0.0, 0.0, 0.0);
        for ex in valid {
            let pred = model.predict_at(&ex.features, t);
            let actual = ex.label != 0;
            match (pred, actual) {
                (true, true) => tp += 1.0,
                (true, false) => fp += 1.0,
                (false, true) => fn_ += 1.0,
                (false, false) => {}
            }
        }
        let f1 = if tp == 0.0 { 0.0 } else { 2.0 * tp / (2.0 * tp + fp + fn_) };
        if f1 > best.1 {
            best = (t, f1);
        }
        t += 0.05;
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable blob data.
    fn blobs(n: usize, seed: u64) -> Vec<Example> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let center = if label == 1 { 2.0 } else { -2.0 };
                let features: FeatureVec =
                    (0..3).map(|_| center + rng.gen_range(-1.0..1.0)).collect();
                Example::new(features, label)
            })
            .collect()
    }

    #[test]
    fn learns_separable_data() {
        let train = blobs(200, 1);
        let test = blobs(100, 2);
        let model = LogReg::train(&train, &LogRegConfig::default());
        let correct =
            test.iter().filter(|ex| model.predict(&ex.features) == (ex.label == 1)).count();
        assert!(correct >= 97, "accuracy {correct}/100");
    }

    #[test]
    fn probabilities_are_calibrated_directionally() {
        let train = blobs(200, 3);
        let model = LogReg::train(&train, &LogRegConfig::default());
        assert!(model.predict_proba(&[3.0, 3.0, 3.0]) > 0.9);
        assert!(model.predict_proba(&[-3.0, -3.0, -3.0]) < 0.1);
    }

    #[test]
    fn training_is_deterministic() {
        let train = blobs(100, 4);
        let a = LogReg::train(&train, &LogRegConfig::default());
        let b = LogReg::train(&train, &LogRegConfig::default());
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        LogReg::train(&[], &LogRegConfig::default());
    }

    #[test]
    fn threshold_tuning_improves_f1_on_imbalanced_data() {
        // 10% positives with overlapping distributions.
        let mut rng = Rng::seed_from_u64(5);
        let data: Vec<Example> = (0..400)
            .map(|i| {
                let label = usize::from(i % 10 == 0);
                let center = if label == 1 { 0.8 } else { -0.2 };
                Example::new(vec![center + rng.gen_range(-1.0..1.0)], label)
            })
            .collect();
        let model = LogReg::train(&data[..300], &LogRegConfig::default());
        let threshold = tune_threshold(&model, &data[300..]);
        assert!((0.05..0.95).contains(&threshold));
    }
}
