//! # lingua-bench
//!
//! Shared plumbing for the experiment binaries (`src/bin/*.rs`), each of
//! which regenerates one table or figure from the paper — see `DESIGN.md`'s
//! per-experiment index and `EXPERIMENTS.md` for paper-vs-measured numbers.
//!
//! Run an experiment:
//!
//! ```text
//! cargo run --release -p lingua-bench --bin table1_entity_resolution
//! ```
//!
//! The multi-seed experiments (`table1_*`, `table2_*`, `fig3_*`,
//! `ablation_label_efficiency`, `plan_quality`) accept `--seeds N`; each
//! binary's header names the flags it reads. All but `trace_export` write a
//! JSON record to `results/<bin>.json`. Performance and resilience of the
//! serving stack are measured by `lingua-e2e` (`crates/e2e/run.sh`), not
//! here; `script_vm` and `plan_quality` stay because they have no serving
//! path for it to drive, and end in a `--check-baseline` gate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Parse `--seeds N` style args (very small, zero-dependency).
pub fn arg_usize(name: &str, default: usize) -> usize {
    flag_value(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Whether the bare flag `name` (e.g. `--smoke`) is on the command line.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The argument following `name` (e.g. the path after `--check-baseline`).
fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// The number a results file stores under the top-level `key`; `None` when
/// the text is not JSON, has no such key, or holds a non-number there.
fn baseline_value(text: &str, key: &str) -> Option<f64> {
    serde_json::from_str(text).ok()?.get(key)?.as_f64()
}

/// The committed value of `key` in the results file at `path`. A gate that
/// was asked for and cannot be evaluated is an error, never a pass.
fn load_baseline(path: &Path, key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    baseline_value(&text, key)
        .ok_or_else(|| format!("baseline {} holds no number under \"{key}\"", path.display()))
}

/// Resolve `--check-baseline <path>` to the committed value of `key`; `None`
/// without the flag. Gated bins call this first thing in `main`: the flag
/// usually names `results/<bin>.json`, the very file the run's
/// [`write_json`] overwrites, so reading it any later would compare the run
/// with itself. An unreadable or keyless baseline exits 2.
pub fn read_baseline(key: &str) -> Option<f64> {
    let path = flag_value("--check-baseline")?;
    Some(load_baseline(Path::new(&path), key).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    }))
}

/// The regression gate the gated bins end with, against what
/// [`read_baseline`] returned: print the comparison `headline(baseline)`
/// describes, and exit 1 with `regression` when `regressed(baseline)`.
/// Without a baseline this does nothing.
pub fn check_baseline(
    baseline: Option<f64>,
    headline: impl FnOnce(f64) -> String,
    regressed: impl FnOnce(f64) -> bool,
    regression: &str,
) {
    let Some(baseline) = baseline else { return };
    println!("\nRegression gate: {}", headline(baseline));
    if regressed(baseline) {
        eprintln!("REGRESSION: {regression}");
        std::process::exit(1);
    }
}

/// Where experiment outputs land: `results/` under the directory the binary
/// runs in (the workspace root, for it to be the committed one), created on
/// demand.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Persist an experiment record as pretty JSON.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("\nresults written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize results: {e}"),
    }
}

/// A fixed-width text table printer for experiment output.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation.
pub(crate) fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

/// Format `mean ± std` compactly.
pub fn fmt_mean_std(values: &[f64], scale: f64) -> String {
    format!("{:.2} ±{:.2}", mean(values) * scale, stddev(values) * scale)
}

/// Accumulate named series across seeds.
#[derive(Debug, Default)]
pub struct SeriesSet {
    series: BTreeMap<String, Vec<f64>>,
}

impl SeriesSet {
    pub fn push(&mut self, name: &str, value: f64) {
        self.series.entry(name.to_string()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.series.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    pub fn mean(&self, name: &str) -> f64 {
        mean(self.get(name))
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(
            self.series
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        serde_json::json!({
                            "values": v,
                            "mean": mean(v),
                            "stddev": stddev(v),
                        }),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_value_finds_the_keyed_number() {
        let text = "{\n  \"gate_ratio\": 152.1,\n  \"gate_speedup\": 2.5\n}";
        assert_eq!(baseline_value(text, "gate_ratio"), Some(152.1));
        assert_eq!(baseline_value(text, "gate_speedup"), Some(2.5));
        assert_eq!(baseline_value("{\"gate_ratio\":3}", "gate_ratio"), Some(3.0));
        assert_eq!(baseline_value(text, "gate_overhead_ratio"), None);
        assert_eq!(baseline_value("{\"gate_ratio\": \"n/a\"}", "gate_ratio"), None);
        // Only the top-level key counts: not one nested deeper, not one quoted in a string.
        let nested = r#"{"earlier": {"gate_ratio": 9.0}, "gate_ratio": 2.0}"#;
        assert_eq!(baseline_value(nested, "gate_ratio"), Some(2.0));
        let in_a_string = r#"{"a_note": "see \"gate_ratio", "earlier": 9.0, "gate_ratio": 2.0}"#;
        assert_eq!(baseline_value(in_a_string, "gate_ratio"), Some(2.0));
        assert_eq!(baseline_value(r#"{"earlier": {"gate_ratio": 9.0}}"#, "gate_ratio"), None);
        assert_eq!(baseline_value("{\"gate_ratio\": 2.0", "gate_ratio"), None, "not a document");
    }

    fn committed(file: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(file)
    }

    #[test]
    fn an_unusable_baseline_is_an_error_not_a_pass() {
        let missing = load_baseline(&committed("no_such_bin.json"), "gate_speedup");
        assert!(missing.unwrap_err().contains("cannot read baseline"));
        let keyless = load_baseline(&committed("script_vm.json"), "gate_ratio");
        assert!(keyless.unwrap_err().contains("no number under \"gate_ratio\""));
        let non_numeric = load_baseline(&committed("script_vm.json"), "gate_metric");
        assert!(non_numeric.unwrap_err().contains("no number under \"gate_metric\""));
    }

    #[test]
    fn the_committed_files_hold_the_values_ci_gates_on() {
        for (file, key) in [("script_vm.json", "gate_speedup"), ("plan_quality.json", "gate_ratio")]
        {
            let baseline = load_baseline(&committed(file), key).expect("committed baseline");
            assert!(baseline > 1.0, "{file} {key} = {baseline}");
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["Dataset", "F1"]);
        t.row(["BeerAdvo-RateBeer", "89.66"]);
        t.row(["x", "1"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Dataset"));
        assert!(lines[2].contains("89.66"));
        // Columns align: "F1" column starts at the same offset in all rows.
        let offset = lines[0].find("F1").unwrap();
        assert_eq!(&lines[2][offset..offset + 5], "89.66");
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!(stddev(&[1.0, 1.0, 1.0]) < 1e-12);
        assert!(stddev(&[5.0]) == 0.0);
        let mut s = SeriesSet::default();
        s.push("a", 1.0);
        s.push("a", 3.0);
        assert_eq!(s.mean("a"), 2.0);
        assert_eq!(s.get("missing").len(), 0);
        let json = s.to_json();
        assert_eq!(json["a"]["mean"], 2.0);
    }

    #[test]
    fn arg_parsing_defaults() {
        assert_eq!(arg_usize("--definitely-not-passed", 7), 7);
    }
}
