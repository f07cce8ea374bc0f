//! CART decision trees (binary splits on numeric features, Gini impurity).

use crate::Example;

/// Tree growth hyperparameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_split: usize,
    /// If set, consider only this many (seeded-random) features per split —
    /// used by the random forest.
    pub max_features: Option<usize>,
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 8, min_samples_split: 4, max_features: None, seed: 0 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Class-probability distribution at the leaf.
        dist: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
}

impl DecisionTree {
    pub fn train(examples: &[Example], config: &TreeConfig) -> DecisionTree {
        assert!(!examples.is_empty(), "cannot train on an empty set");
        let n_classes = examples.iter().map(|e| e.label).max().unwrap() + 1;
        let indices: Vec<usize> = (0..examples.len()).collect();
        let mut rng_state = config.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let root = grow(examples, &indices, n_classes, config, 0, &mut rng_state);
        DecisionTree { root, n_classes }
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Class-probability distribution for one input.
    pub fn predict_dist(&self, features: &[f64]) -> Vec<f64> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { dist } => return dist.clone(),
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    pub fn predict(&self, features: &[f64]) -> usize {
        let dist = self.predict_dist(features);
        dist.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of decision nodes (for tests / introspection).
    pub fn node_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        count(&self.root)
    }
}

/// xorshift step — a tiny deterministic RNG for feature subsampling so the
/// tree itself does not need a full `Rng`.
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn class_dist(examples: &[Example], indices: &[usize], n_classes: usize) -> Vec<f64> {
    let mut dist = vec![0.0; n_classes];
    for &i in indices {
        dist[examples[i].label] += 1.0;
    }
    let total: f64 = dist.iter().sum();
    if total > 0.0 {
        for d in &mut dist {
            *d /= total;
        }
    }
    dist
}

fn gini(dist: &[f64]) -> f64 {
    1.0 - dist.iter().map(|p| p * p).sum::<f64>()
}

fn grow(
    examples: &[Example],
    indices: &[usize],
    n_classes: usize,
    config: &TreeConfig,
    depth: usize,
    rng_state: &mut u64,
) -> Node {
    let dist = class_dist(examples, indices, n_classes);
    let impurity = gini(&dist);
    if depth >= config.max_depth || indices.len() < config.min_samples_split || impurity < 1e-9 {
        return Node::Leaf { dist };
    }

    let n_features = examples[indices[0]].features.len();
    let feature_pool: Vec<usize> = match config.max_features {
        Some(m) if m < n_features => {
            // Sample m distinct features without replacement.
            let mut pool: Vec<usize> = (0..n_features).collect();
            for i in 0..m {
                let j = i + (next_u64(rng_state) as usize) % (n_features - i);
                pool.swap(i, j);
            }
            pool.truncate(m);
            pool
        }
        _ => (0..n_features).collect(),
    };

    let mut best: Option<(f64, usize, f64)> = None; // (weighted gini, feature, threshold)
    for &feat in &feature_pool {
        // Candidate thresholds: midpoints between sorted unique values.
        let mut values: Vec<f64> = indices.iter().map(|&i| examples[i].features[feat]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        for w in values.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            let (left, right): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| examples[i].features[feat] <= threshold);
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let gl = gini(&class_dist(examples, &left, n_classes));
            let gr = gini(&class_dist(examples, &right, n_classes));
            let weighted =
                (left.len() as f64 * gl + right.len() as f64 * gr) / indices.len() as f64;
            if best.map(|(b, _, _)| weighted < b - 1e-12).unwrap_or(true) {
                best = Some((weighted, feat, threshold));
            }
        }
    }

    // Zero-gain splits are allowed (weighted == impurity): greedy gain-only
    // CART cannot learn XOR-like targets where the first split is
    // uninformative alone. Recursion still terminates because both sides are
    // non-empty and depth/min-samples bounds apply.
    match best {
        Some((weighted, feature, threshold)) if weighted <= impurity + 1e-12 => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| examples[i].features[feature] <= threshold);
            let left = grow(examples, &left_idx, n_classes, config, depth + 1, rng_state);
            let right = grow(examples, &right_idx, n_classes, config, depth + 1, rng_state);
            Node::Split { feature, threshold, left: Box::new(left), right: Box::new(right) }
        }
        _ => Node::Leaf { dist },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> Vec<Example> {
        // XOR is not linearly separable; trees handle it.
        let mut out = Vec::new();
        for _ in 0..10 {
            out.push(Example::new(vec![0.0, 0.0], 0));
            out.push(Example::new(vec![1.0, 1.0], 0));
            out.push(Example::new(vec![0.0, 1.0], 1));
            out.push(Example::new(vec![1.0, 0.0], 1));
        }
        out
    }

    #[test]
    fn learns_xor() {
        let tree = DecisionTree::train(&xor_data(), &TreeConfig::default());
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 0);
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
    }

    #[test]
    fn pure_node_is_a_leaf() {
        let examples = vec![
            Example::new(vec![1.0], 0),
            Example::new(vec![2.0], 0),
            Example::new(vec![3.0], 0),
        ];
        let tree = DecisionTree::train(&examples, &TreeConfig::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[99.0]), 0);
    }

    #[test]
    fn depth_limit_is_respected() {
        let tree =
            DecisionTree::train(&xor_data(), &TreeConfig { max_depth: 0, ..Default::default() });
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn predict_dist_sums_to_one() {
        let tree = DecisionTree::train(&xor_data(), &TreeConfig::default());
        let dist = tree.predict_dist(&[0.5, 0.5]);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(dist.len(), tree.n_classes());
    }

    #[test]
    fn feature_subsampling_still_trains() {
        let tree = DecisionTree::train(
            &xor_data(),
            &TreeConfig { max_features: Some(1), seed: 3, ..Default::default() },
        );
        // With one random feature per split it may not solve XOR, but it
        // must produce a valid tree.
        assert!(tree.node_count() >= 1);
        let _ = tree.predict(&[0.0, 1.0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = DecisionTree::train(&xor_data(), &TreeConfig { seed: 5, ..Default::default() });
        let b = DecisionTree::train(&xor_data(), &TreeConfig { seed: 5, ..Default::default() });
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.predict_dist(&[0.2, 0.9]), b.predict_dist(&[0.2, 0.9]));
    }
}
