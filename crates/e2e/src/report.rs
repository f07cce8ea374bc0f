//! What the benchmark prints and writes: the single run's result line, the
//! full run's document (one process per workload and run kind), and the
//! noise protocol.

use crate::catalog::{Metrics, Spec, END_TO_END};
use crate::run::RunOutcome;
use crate::stats::{quartiles, ratio};
use crate::workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED, WINDOW};
use crate::{Cli, WorkDir};
use serde_json::{json, Map, Value};
use std::path::Path;
use std::process::{Command, Stdio};

/// PR whose `results/BENCH_<pr>.json` a full run of this code produces.
const PR: u64 = 11;

fn metrics_value(values: &Metrics, with_samples: bool) -> Value {
    let mut metrics = Map::new();
    for metric in values.iter() {
        let mut entry = Map::new();
        entry.insert("value".into(), json!(metric.value));
        entry.insert("unit".into(), json!(metric.unit));
        if let (true, Some(samples)) = (with_samples, metric.samples) {
            entry.insert("samples".into(), json!(samples));
        }
        metrics.insert(metric.name.to_string(), Value::Object(entry));
    }
    Value::Object(metrics)
}

/// Print one run: every metric by name with its unit, then — last line —
/// the result object the driver reads. Returns whether the run was correct.
pub fn print_run(cli: &Cli, outcome: &RunOutcome) -> bool {
    let workload = cli.workload.expect("single runs name their workload");
    println!(
        "lingua-e2e {workload} seed={} seconds={} trace={} build_mode={} jobs={} records={}",
        cli.seed,
        cli.seconds,
        u8::from(cli.traced),
        cli.build_mode,
        outcome.jobs,
        outcome.records
    );
    for metric in outcome.metrics.iter().chain(outcome.extra.iter().flat_map(Metrics::iter)) {
        let samples = metric.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<36} {:>16.6} {}{samples}", metric.name, metric.value, metric.unit);
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    if let Some(path) = &cli.detail {
        let detail = json!({
            "jobs": outcome.jobs,
            "records": outcome.records,
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "notes": outcome.notes.clone(),
            "metrics": metrics_value(&outcome.metrics, true),
            "unbounded": outcome.extra.as_ref().map_or(Value::Null, |extra| metrics_value(extra, true)),
        });
        let text = serde_json::to_string(&detail).expect("value trees serialize");
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("lingua-e2e: cannot write {}: {err}", path.display());
            return false;
        }
    }
    let result = json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics_value(&outcome.metrics, false),
    });
    println!("{}", serde_json::to_string(&result).expect("value trees serialize"));
    outcome.correct
}

/// Run one workload in its own process and read its detail file back.
fn child_run(cli: &Cli, work: &Path, workload: Workload, seed: u64, traced: bool) -> Option<Value> {
    let detail = work.join(format!("{workload}-{}.json", u8::from(traced)));
    let exe = std::env::current_exe().ok()?;
    let status = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .stdout(Stdio::null())
        .status()
        .ok()?;
    let bytes = std::fs::read(&detail).ok()?;
    let _ = std::fs::remove_file(&detail);
    let value = lingua_durable::json::parse(&bytes).ok()?;
    // A failed oracle exits non-zero but still reports; anything else that
    // exits non-zero has no report to trust.
    (status.success() || value["correct"].as_bool() == Some(false)).then_some(value)
}

fn header(cli: &Cli) -> Map<String, Value> {
    let mut doc = Map::new();
    doc.insert("benchmark".into(), json!("lingua-e2e"));
    doc.insert("pr".into(), json!(PR));
    doc.insert("build_mode".into(), json!(cli.build_mode.clone()));
    doc.insert("nproc".into(), json!(std::thread::available_parallelism().map_or(0, usize::from)));
    doc.insert("seed".into(), json!(cli.seed));
    doc.insert("default_seed".into(), json!(DEFAULT_SEED));
    doc.insert("held_out_seed".into(), json!(HELD_OUT_SEED));
    doc.insert("seconds".into(), json!(cli.seconds));
    doc.insert("outstanding_jobs".into(), json!(WINDOW));
    doc
}

fn write_document(cli: &Cli, default_name: &str, doc: Value) -> bool {
    let path = cli.out.clone().unwrap_or_else(|| WorkDir::base().join(default_name));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let text = serde_json::to_string_pretty(&doc).expect("value trees serialize");
    match std::fs::write(&path, text + "\n") {
        Ok(()) => {
            println!("\nwrote {}", path.display());
            true
        }
        Err(err) => {
            eprintln!("lingua-e2e: cannot write {}: {err}", path.display());
            false
        }
    }
}

fn print_metrics(run: &Value) {
    let no_extra = Map::new();
    let Some(metrics) = run["metrics"].as_object() else { return };
    for (name, metric) in metrics.iter().chain(run["unbounded"].as_object().unwrap_or(&no_extra)) {
        let samples = metric["samples"].as_u64().map_or(String::new(), |n| format!("  (n={n})"));
        println!(
            "  {name:<36} {:>16.6} {}{samples}",
            metric["value"].as_f64().unwrap_or(0.0),
            metric["unit"].as_str().unwrap_or("")
        );
    }
    for note in run["notes"].as_array().into_iter().flatten() {
        println!("  note: {}", note.as_str().unwrap_or(""));
    }
}

/// Every workload, each in its own process: the measured run, then the
/// traced run. Prints every metric and writes one JSON document.
pub fn full_run(cli: &Cli) -> bool {
    let Ok(work) = WorkDir::create() else {
        eprintln!("lingua-e2e: cannot create the work directory");
        return false;
    };
    let work = &work.0;
    let mut workloads = Map::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let mut entry = Map::new();
        for (key, traced) in [("measured", false), ("traced", true)] {
            println!("\n== {workload} ({key}) ==");
            match child_run(cli, work, workload, cli.seed, traced) {
                Some(run) => {
                    correct &= run["correct"].as_bool() == Some(true);
                    print_metrics(&run);
                    entry.insert(key.into(), run);
                }
                None => {
                    println!("  run failed without a report");
                    correct = false;
                }
            }
        }
        let failed_share = entry.get("measured").map_or(1.0, |run| {
            ratio(run["failed"].as_f64().unwrap_or(1.0), run["attempted"].as_f64().unwrap_or(1.0))
        });
        entry.insert("failed_share".into(), json!(failed_share));
        workloads.insert(workload.name().to_string(), Value::Object(entry));
    }
    let mut doc = header(cli);
    doc.insert("correct".into(), json!(correct));
    doc.insert("workloads".into(), Value::Object(workloads));
    println!("\ncorrect: {correct}");
    write_document(cli, "BENCH_latest.json", Value::Object(doc)) && correct
}

/// `--sets A --runs B`: A sets of B measured runs per workload, run `r` of
/// every set on seed `seed + r`. Prints, per end-to-end metric and workload,
/// each set's median and quartiles, and the gap between the first and last
/// set's medians beside the metric's bound — the test. The widest
/// interquartile spread of a set is printed for information: over five runs
/// it is close to the range.
pub fn noise(cli: &Cli) -> bool {
    let (sets, runs) = (cli.sets.max(1), cli.runs.max(1));
    let Ok(work) = WorkDir::create() else {
        eprintln!("lingua-e2e: cannot create the work directory");
        return false;
    };
    let work = &work.0;
    let mut workloads = Map::new();
    let mut within = true;
    for workload in Workload::ALL {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; sets];
        for (set, set_values) in values.iter_mut().enumerate() {
            for run in 0..runs {
                let seed = cli.seed + run as u64;
                let Some(report) = child_run(cli, work, workload, seed, false) else {
                    eprintln!("lingua-e2e: {workload} set {set} run {run} failed without a report");
                    return false;
                };
                if report["correct"].as_bool() != Some(true) {
                    eprintln!(
                        "lingua-e2e: {workload} set {set} run {run} (seed {seed}) was not correct"
                    );
                    within = false;
                }
                for (slot, spec) in set_values.iter_mut().zip(END_TO_END) {
                    slot.push(report["metrics"][spec.name]["value"].as_f64().unwrap_or(0.0));
                }
            }
        }
        println!("\n== {workload}: {sets} sets of {runs} runs ==");
        let mut entry = Map::new();
        for (index, spec) in END_TO_END.iter().enumerate() {
            let per_set: Vec<(f64, f64, f64)> =
                values.iter().map(|set_values| quartiles(&set_values[index])).collect();
            let (first, last) = (per_set[0].1, per_set[sets - 1].1);
            let worse = if spec.better == "higher" { first - last } else { last - first };
            let gap = ratio(worse, first.abs());
            let spread =
                per_set.iter().map(|(q1, mid, q3)| ratio(q3 - q1, mid.abs())).fold(0.0, f64::max);
            let ok = gap <= spec.bound;
            within &= ok;
            print_noise_row(spec, &per_set, gap, spread, ok);
            entry.insert(
                spec.name.to_string(),
                json!({
                    "unit": spec.unit,
                    "bound": spec.bound,
                    "sets": per_set.iter().map(|&(q1, mid, q3)| json!({"q1": q1, "median": mid, "q3": q3})).collect::<Vec<Value>>(),
                    "runs": values.iter().map(|set_values| json!(set_values[index].clone())).collect::<Vec<Value>>(),
                    "median_gap": gap,
                    "widest_spread": spread,
                    "within_bound": ok,
                }),
            );
        }
        workloads.insert(workload.name().to_string(), Value::Object(entry));
    }
    let mut doc = header(cli);
    doc.insert("sets".into(), json!(sets));
    doc.insert("runs_per_set".into(), json!(runs));
    doc.insert("within_bounds".into(), json!(within));
    doc.insert("workloads".into(), Value::Object(workloads));
    println!("\nwithin bounds: {within}");
    write_document(cli, "noise_latest.json", Value::Object(doc)) && within
}

fn print_noise_row(spec: &Spec, per_set: &[(f64, f64, f64)], gap: f64, spread: f64, ok: bool) {
    let sets: Vec<String> =
        per_set.iter().map(|(q1, mid, q3)| format!("{mid:.4} [{q1:.4}, {q3:.4}]")).collect();
    println!(
        "  {:<20} {:<4} {}  gap {:+.4} spread {:.4} bound {:.2} {}",
        spec.name,
        spec.unit,
        sets.join("  "),
        gap,
        spread,
        spec.bound,
        if ok { "ok" } else { "OUTSIDE" }
    );
}
