//! Buy-style data-imputation benchmark (§4.3 of the paper).
//!
//! Products have `name`, `description`, `manufacturer`; the manufacturer
//! column is blanked out and must be imputed. Ground truth is kept to the
//! side. Roughly 5/6 of rows are "easy" (the brand token appears somewhere in
//! the text and a rule can extract it); the remaining 1/6 require world
//! knowledge ("PlayStation 2 Memory Card" → Sony) — this ratio is what makes
//! the paper's 1/6-LLM-calls economy reproducible.

use crate::record::Record;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::world::{BrandMention, ProductFact, WorldConfig, WorldSpec};
use lingua_ml::rng::Rng;

/// The imputation benchmark: a table with a hole, plus hidden ground truth.
#[derive(Debug, Clone)]
pub struct ImputationBenchmark {
    /// `name, description, manufacturer` — manufacturer is all-NULL.
    pub table: Table,
    /// Ground-truth manufacturer per row, parallel to `table.rows()`.
    pub truth: Vec<String>,
    /// Per-row difficulty marker, parallel to `table.rows()`.
    pub mentions: Vec<BrandMention>,
    /// Candidate manufacturer vocabulary (the task is closed-world, as in
    /// the Buy dataset where manufacturers come from a known catalogue).
    pub vocabulary: Vec<String>,
}

impl ImputationBenchmark {
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Fraction of rows whose manufacturer is recoverable from the row text.
    pub fn easy_fraction(&self) -> f64 {
        let easy = self.mentions.iter().filter(|m| **m != BrandMention::KnowledgeOnly).count();
        easy as f64 / self.mentions.len().max(1) as f64
    }
}

/// Build the benchmark from a world's product universe.
pub fn generate(world: &WorldSpec, seed: u64) -> ImputationBenchmark {
    let mut rng = Rng::seed_from_u64(seed ^ 0x1b_u64);
    let mut products: Vec<&ProductFact> = world.products.iter().collect();
    rng.shuffle(&mut products);
    build(products.into_iter())
}

/// A *disjoint* labeled training catalogue from the **same world** — what the
/// IMP baseline's "thousands of training examples" are made of. Same seed ⇒
/// the same manufacturers own the same product lines (the facts a model must
/// learn are consistent); the generator stream is extended past the
/// benchmark's own products, so no benchmark row leaks into training.
pub fn training_catalogue(world: &WorldSpec, n: usize) -> Vec<(String, String, String)> {
    let base = world.products.len();
    let config = WorldConfig { products: base + n, ..Default::default() };
    let aux = WorldSpec::generate_with(world.seed, &config);
    debug_assert_eq!(aux.products[..base.min(aux.products.len())], world.products[..]);
    aux.products[base..]
        .iter()
        .map(|p| (p.name.clone(), p.description.clone(), p.manufacturer.clone()))
        .collect()
}

fn build<'a>(products: impl Iterator<Item = &'a ProductFact>) -> ImputationBenchmark {
    let schema = Schema::of_names(["name", "description", "manufacturer"]);
    let mut table = Table::new("buy_products", schema);
    let mut truth = Vec::new();
    let mut mentions = Vec::new();
    let mut vocabulary: Vec<String> = Vec::new();
    for p in products {
        table
            .push(Record::new(vec![
                Value::Str(p.name.clone()),
                Value::Str(p.description.clone()),
                Value::Null,
            ]))
            .expect("schema arity");
        truth.push(p.manufacturer.clone());
        mentions.push(p.mention);
        if !vocabulary.contains(&p.manufacturer) {
            vocabulary.push(p.manufacturer.clone());
        }
    }
    vocabulary.sort();
    ImputationBenchmark { table, truth, mentions, vocabulary }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_shape() {
        let world = WorldSpec::generate(42);
        let bench = generate(&world, 1);
        assert_eq!(bench.len(), world.products.len());
        assert_eq!(bench.truth.len(), bench.len());
        assert_eq!(bench.mentions.len(), bench.len());
        // The manufacturer column is fully blank.
        let nulls = |i: usize| bench.table.rows().iter().filter(|r| r[i].is_null()).count();
        assert_eq!(nulls(2), bench.len());
        assert_eq!(nulls(0), 0);
    }

    #[test]
    fn easy_fraction_near_five_sixths() {
        let world = WorldSpec::generate(42);
        let bench = generate(&world, 1);
        assert!((bench.easy_fraction() - 5.0 / 6.0).abs() < 0.06);
    }

    #[test]
    fn vocabulary_covers_truth() {
        let world = WorldSpec::generate(42);
        let bench = generate(&world, 1);
        for t in &bench.truth {
            assert!(bench.vocabulary.contains(t));
        }
        // Sorted + deduplicated.
        let mut v = bench.vocabulary.clone();
        v.sort();
        v.dedup();
        assert_eq!(v, bench.vocabulary);
    }

    #[test]
    fn training_catalogue_is_disjoint_and_consistent() {
        let world = WorldSpec::generate(42);
        let bench = generate(&world, 1);
        let train = training_catalogue(&world, 2000);
        assert_eq!(train.len(), 2000);
        // Same manufacturer universe.
        let known: std::collections::BTreeSet<_> = bench.vocabulary.iter().cloned().collect();
        let covered =
            train.iter().filter(|(_, _, m)| known.contains(m)).count() as f64 / train.len() as f64;
        assert!(covered > 0.95, "covered {covered}");
        // No benchmark row leaks into training.
        let bench_names: std::collections::BTreeSet<&str> =
            world.products.iter().map(|p| p.name.as_str()).collect();
        let leaked = train.iter().filter(|(n, _, _)| bench_names.contains(n.as_str())).count();
        assert!(
            (leaked as f64) < 0.02 * train.len() as f64,
            "{leaked} near-duplicate names leaked"
        );
        // Product-line facts are consistent with the benchmark world.
        for (name, _, manufacturer) in train.iter().take(200) {
            for (line, owner) in &world.product_line_owners {
                if name.to_lowercase().contains(line) {
                    assert_eq!(owner, manufacturer, "line {line} in {name}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let world = WorldSpec::generate(42);
        let a = generate(&world, 9);
        let b = generate(&world, 9);
        assert_eq!(a.truth, b.truth);
    }
}
