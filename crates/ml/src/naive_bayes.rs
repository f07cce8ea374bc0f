//! Multinomial naive Bayes over token counts — the workhorse behind the
//! simulated-IMP imputation baseline and the Simulator's text classifiers.

use crate::textsim::tokens;
use std::collections::BTreeMap;

/// A trained multinomial naive-Bayes text classifier mapping token bags to
/// one of `n` string classes.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    classes: Vec<String>,
    /// log P(class)
    log_prior: Vec<f64>,
    /// per-class token log-likelihoods, with Laplace smoothing baked in.
    log_likelihood: Vec<BTreeMap<String, f64>>,
    /// log of the smoothed probability for unseen tokens, per class.
    log_unseen: Vec<f64>,
}

impl NaiveBayes {
    /// Train from `(text, class)` pairs. Laplace smoothing with alpha = 1.
    pub fn train<'a>(examples: impl IntoIterator<Item = (&'a str, &'a str)>) -> NaiveBayes {
        let mut class_index: BTreeMap<String, usize> = BTreeMap::new();
        let mut class_docs: Vec<usize> = Vec::new();
        let mut class_tokens: Vec<BTreeMap<String, usize>> = Vec::new();
        let mut vocab: std::collections::BTreeSet<String> = Default::default();
        let mut total_docs = 0usize;

        for (text, class) in examples {
            let idx = *class_index.entry(class.to_string()).or_insert_with(|| {
                class_docs.push(0);
                class_tokens.push(BTreeMap::new());
                class_docs.len() - 1
            });
            class_docs[idx] += 1;
            total_docs += 1;
            for tok in tokens(text) {
                vocab.insert(tok.clone());
                *class_tokens[idx].entry(tok).or_default() += 1;
            }
        }
        assert!(total_docs > 0, "cannot train on an empty set");

        let vocab_size = vocab.len().max(1);
        let mut classes: Vec<String> = vec![String::new(); class_index.len()];
        for (name, &idx) in &class_index {
            classes[idx] = name.clone();
        }
        let log_prior: Vec<f64> =
            class_docs.iter().map(|&d| (d as f64 / total_docs as f64).ln()).collect();
        let mut log_likelihood = Vec::with_capacity(classes.len());
        let mut log_unseen = Vec::with_capacity(classes.len());
        for counts in &class_tokens {
            let total: usize = counts.values().sum();
            let denom = (total + vocab_size) as f64;
            log_unseen.push((1.0 / denom).ln());
            log_likelihood.push(
                counts
                    .iter()
                    .map(|(tok, &c)| (tok.clone(), ((c + 1) as f64 / denom).ln()))
                    .collect(),
            );
        }
        NaiveBayes { classes, log_prior, log_likelihood, log_unseen }
    }

    /// Per-class log joint scores for `text`, in class order.
    pub(crate) fn scores(&self, text: &str) -> Vec<f64> {
        let toks = tokens(text);
        (0..self.classes.len())
            .map(|c| {
                let mut score = self.log_prior[c];
                for tok in &toks {
                    score += self.log_likelihood[c].get(tok).copied().unwrap_or(self.log_unseen[c]);
                }
                score
            })
            .collect()
    }

    /// Most likely class and its posterior probability.
    pub fn predict(&self, text: &str) -> (&str, f64) {
        let scores = self.scores(text);
        let (best, &best_score) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("at least one class");
        // Softmax over log-joint for a posterior, computed stably.
        let denom: f64 = scores.iter().map(|s| (s - best_score).exp()).sum();
        (&self.classes[best], 1.0 / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NaiveBayes {
        NaiveBayes::train([
            ("playstation memory card sony console", "Sony"),
            ("sony wireless controller dualshock", "Sony"),
            ("playstation portable screen", "Sony"),
            ("xbox controller microsoft wireless", "Microsoft"),
            ("microsoft surface keyboard", "Microsoft"),
            ("xbox headset chat", "Microsoft"),
            ("switch dock nintendo joycon", "Nintendo"),
            ("nintendo game card zelda", "Nintendo"),
        ])
    }

    #[test]
    fn classifies_by_token_evidence() {
        let m = model();
        assert_eq!(m.predict("playstation 2 memory card 8mb").0, "Sony");
        assert_eq!(m.predict("xbox wireless headset").0, "Microsoft");
        assert_eq!(m.predict("joycon charging dock").0, "Nintendo");
    }

    #[test]
    fn posterior_is_a_probability() {
        let m = model();
        let (_, p) = m.predict("playstation console");
        assert!(p > 0.5 && p <= 1.0);
        let (_, p_unseen) = m.predict("entirely unrelated words qqq");
        assert!(p_unseen <= 1.0 && p_unseen > 0.0);
    }

    #[test]
    fn handles_unseen_tokens_gracefully() {
        let m = model();
        // Should not panic and should return *some* class.
        let (class, _) = m.predict("zzz yyy xxx");
        assert!(m.classes.contains(&class.to_string()));
    }

    #[test]
    fn classes_are_complete() {
        let m = model();
        let mut classes = m.classes.clone();
        classes.sort();
        assert_eq!(classes, ["Microsoft", "Nintendo", "Sony"]);
    }

    #[test]
    fn prior_matters_for_empty_text() {
        let m = NaiveBayes::train([("a", "Major"), ("b", "Major"), ("c", "Major"), ("d", "Minor")]);
        assert_eq!(m.predict("").0, "Major");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        NaiveBayes::train(std::iter::empty::<(&str, &str)>());
    }
}
