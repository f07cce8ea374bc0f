//! Execution statistics: per-module invocation counts and the LLM usage
//! deltas that back the paper's cost accounting, plus the dataset-shape
//! statistics (`DatasetStats`) the cost-based planner feeds on.

use lingua_dataset::Table;
use lingua_llm_sim::cost::count_tokens;
use lingua_llm_sim::Usage;
use std::collections::{BTreeMap, BTreeSet};

/// Counters collected during pipeline execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Invocations per module name.
    pub invocations: BTreeMap<String, u64>,
    /// LLM usage snapshot at executor start (for delta reporting).
    pub usage_at_start: Usage,
}

impl ExecStats {
    pub(crate) fn record_invocation(&mut self, module: &str) {
        *self.invocations.entry(module.to_string()).or_default() += 1;
    }

    #[cfg(test)]
    pub(crate) fn invocations_of(&self, module: &str) -> u64 {
        self.invocations.get(module).copied().unwrap_or(0)
    }

    /// Render a compact text report.
    pub fn report(&self, usage_now: &Usage) -> String {
        let delta = usage_now.since(&self.usage_at_start);
        let mut out = String::from("module invocations:\n");
        for (name, count) in &self.invocations {
            out.push_str(&format!("  {name}: {count}\n"));
        }
        out.push_str(&format!(
            "llm: {} call(s), {} tokens in, {} tokens out, {} cache hit(s)\n",
            delta.calls, delta.tokens_in, delta.tokens_out, delta.cached_calls
        ));
        out
    }
}

/// Per-column shape statistics for planning.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub name: String,
    /// Null cells in the column.
    pub nulls: u64,
    /// Distinct non-null rendered values.
    pub distinct: u64,
    /// Mean approximate token count of the rendered value (nulls count as 0).
    pub avg_tokens: f64,
}

/// Dataset-shape statistics the cost-based planner (`lingua-plan`) feeds on:
/// cardinality, null rate, and average token length per column, plus the
/// observed match selectivity of a labeled pair sample. All numbers come
/// from one pass over an actual [`Table`] — nothing is assumed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatasetStats {
    /// Rows scanned (the planner's per-record multiplier).
    pub rows: u64,
    pub columns: Vec<ColumnStats>,
    /// Fraction of labeled candidate pairs that are true matches, when a
    /// labeled sample was folded in via [`DatasetStats::with_match_selectivity`].
    pub match_selectivity: Option<f64>,
}

impl DatasetStats {
    /// One-pass scan of a table: null counts, distinct counts, and average
    /// rendered token length per column.
    pub fn from_table(table: &Table) -> DatasetStats {
        let schema = table.schema();
        let ncols = schema.len();
        let mut nulls = vec![0u64; ncols];
        let mut tokens = vec![0u64; ncols];
        let mut distinct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); ncols];
        for row in table.rows() {
            for (i, value) in row.iter().enumerate().take(ncols) {
                if value.is_null() {
                    nulls[i] += 1;
                } else {
                    let rendered = value.render();
                    tokens[i] += count_tokens(&rendered) as u64;
                    distinct[i].insert(rendered);
                }
            }
        }
        let rows = table.len() as u64;
        let columns = (0..ncols)
            .map(|i| ColumnStats {
                name: schema.name(i).to_string(),
                nulls: nulls[i],
                distinct: distinct[i].len() as u64,
                avg_tokens: if rows == 0 { 0.0 } else { tokens[i] as f64 / rows as f64 },
            })
            .collect();
        DatasetStats { rows, columns, match_selectivity: None }
    }

    /// Fold in the positive rate of a labeled candidate-pair sample.
    pub fn with_match_selectivity(mut self, positives: u64, total: u64) -> DatasetStats {
        if total > 0 {
            self.match_selectivity = Some(positives as f64 / total as f64);
        }
        self
    }

    /// Expected approximate token length of one whole rendered record: the
    /// sum of per-column averages (the prompt-size driver for LLM-bound ops).
    pub fn avg_record_tokens(&self) -> f64 {
        self.columns.iter().map(|c| c.avg_tokens).sum()
    }

    /// Duplicate rate over the highest-cardinality column: `1 - distinct/rows`
    /// where `distinct` is the maximum across columns. A stream whose best
    /// key column still repeats is a stream where response caching pays.
    pub fn duplicate_rate(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let best = self.columns.iter().map(|c| c.distinct).max().unwrap_or(0);
        (1.0 - best as f64 / self.rows as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut stats = ExecStats::default();
        stats.record_invocation("a");
        stats.record_invocation("a");
        stats.record_invocation("b");
        assert_eq!(stats.invocations_of("a"), 2);
        assert_eq!(stats.invocations_of("missing"), 0);
    }

    #[test]
    fn report_includes_deltas() {
        let mut stats = ExecStats::default();
        stats.record_invocation("matcher");
        let mut usage = Usage::default();
        usage.record(100, 20);
        let report = stats.report(&usage);
        assert!(report.contains("matcher: 1"));
        assert!(report.contains("1 call(s)"));
        assert!(report.contains("100 tokens in"));
    }

    fn sample_table() -> Table {
        use lingua_dataset::{Record, Schema, Value};
        let schema = Schema::of_names(["name", "city"]);
        let rows = vec![
            Record::new(vec![Value::Str("pale ale".into()), Value::Str("austin".into())]),
            Record::new(vec![Value::Str("pale ale".into()), Value::Null]),
            Record::new(vec![Value::Str("stout porter".into()), Value::Str("austin".into())]),
            Record::new(vec![Value::Null, Value::Str("dallas".into())]),
        ];
        Table::with_rows("beers", schema, rows).unwrap()
    }

    #[test]
    fn dataset_stats_one_pass_scan() {
        let stats = DatasetStats::from_table(&sample_table());
        assert_eq!(stats.rows, 4);
        let shape: Vec<(&str, u64, u64)> =
            stats.columns.iter().map(|c| (c.name.as_str(), c.distinct, c.nulls)).collect();
        assert_eq!(shape, [("name", 2, 1), ("city", 2, 1)]);
        assert!(stats.avg_record_tokens() > 0.0);
        // Best column has 2 distinct values over 4 rows → half the scans repeat.
        assert!((stats.duplicate_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dataset_stats_selectivity_and_empty_table() {
        let stats = DatasetStats::from_table(&sample_table()).with_match_selectivity(3, 12);
        assert_eq!(stats.match_selectivity, Some(0.25));
        // Zero-denominator sample leaves selectivity unknown.
        let none = DatasetStats::default().with_match_selectivity(0, 0);
        assert_eq!(none.match_selectivity, None);
        assert!(none.columns.is_empty());
        assert_eq!(none.duplicate_rate(), 0.0);
    }
}
