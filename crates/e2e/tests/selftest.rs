//! The benchmark's self-test: a `--smoke` run checked against
//! `BENCHMARK.json`, and a same-seed determinism check on the exact counts.
//!
//! Offline, run it through `crates/e2e/run.sh --self-test`, which builds the
//! same shadow copy the benchmark itself runs from.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let bytes = std::fs::read(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
    lingua_durable::json::parse(&bytes).expect("BENCHMARK.json parses")
}

/// One `--smoke` run; returns its document and how long the command took.
fn smoke(tag: &str) -> (Value, Duration) {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    let out = tmp.join("smoke.json");
    let start = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_lingua-e2e"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .env("LINGUA_E2E_WORK", tmp.join("work"))
        .status()
        .expect("the benchmark binary runs");
    let took = start.elapsed();
    assert!(status.success(), "--smoke exited with {status}");
    let bytes = std::fs::read(&out).expect("--smoke wrote its document");
    let _ = std::fs::remove_dir_all(&tmp);
    (lingua_durable::json::parse(&bytes).expect("the document parses"), took)
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|spec| {
            (
                spec["name"].as_str().expect("name").to_string(),
                spec["unit"].as_str().unwrap_or("").to_string(),
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// One test, so the two smoke runs never compete for the machine's cores
/// while one of them is being held to its time budget.
#[test]
fn smoke_run_matches_benchmark_json_and_repeats_exactly() {
    let benchmark = benchmark_json();
    let (doc, took) = smoke("first");
    assert!(took <= Duration::from_secs(10), "--smoke took {took:?}, over its 10 s budget");
    assert_eq!(doc["correct"].as_bool(), Some(true), "an oracle failed in the smoke run");
    assert!(doc["build_mode"].as_str().is_some_and(|mode| !mode.is_empty()));

    for workload in benchmark["workloads"].as_array().expect("workloads") {
        let workload = workload["name"].as_str().expect("workload name");
        assert!(well_formed(workload), "workload name `{workload}`");
        let entry = &doc["workloads"][workload];
        assert_eq!(entry["failed_share"].as_f64(), Some(0.0), "{workload} failed jobs");
        for (list, run) in [("end_to_end", "measured"), ("per_layer", "traced")] {
            let metrics = entry[run]["metrics"].as_object().unwrap_or_else(|| {
                panic!("{workload}: the {run} run is missing from the document")
            });
            let expected = names(&benchmark[list]);
            assert_eq!(metrics.len(), expected.len(), "{workload} {run}: metric count");
            for (name, unit) in expected {
                assert!(well_formed(&name), "metric name `{name}`");
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: `{name}` not emitted"));
                assert!(metric["value"].as_f64().is_some(), "{workload} {name}: no value");
                assert_eq!(metric["unit"].as_str(), Some(unit.as_str()), "{workload} {name}: unit");
                let percentile = name.ends_with("_p50")
                    || name.ends_with("_p99")
                    || name.ends_with("_p50_ms")
                    || name.ends_with("_p99_ms");
                let touched = metric["value"].as_f64() != Some(0.0);
                if percentile && touched {
                    assert!(
                        metric["samples"].as_u64().is_some_and(|n| n > 0),
                        "{workload} {name}: a percentile without its sample count"
                    );
                }
            }
        }
        // End-to-end metrics are never zero: the driver divides by them.
        for (name, metric) in entry["measured"]["metrics"].as_object().expect("checked above") {
            assert!(metric["value"].as_f64().is_some_and(|v| v > 0.0), "{workload} {name} is zero");
        }
    }

    // Same seed, same exact counts.
    let (first, (second, _)) = (doc, smoke("second"));
    for workload in benchmark["workloads"].as_array().expect("workloads") {
        let workload = workload["name"].as_str().expect("workload name");
        let mut counts = vec!["durable.appends_per_job", "stream.window_jobs", "failed_share"];
        // Under the batcher, which members share a batch — and so how many
        // wire attempts a faulted batch costs — depends on thread timing.
        if workload != "er_provider" {
            counts.push("gateway.attempts_per_request");
        }
        for name in counts {
            let value = |doc: &Value| {
                doc["workloads"][workload]["traced"]["metrics"][name]["value"].as_f64()
            };
            assert!(value(&first).is_some(), "{workload} {name} missing");
            assert_eq!(
                value(&first),
                value(&second),
                "{workload} {name} differs between same-seed runs"
            );
        }
        let attempted = |doc: &Value| doc["workloads"][workload]["measured"]["attempted"].as_u64();
        assert_eq!(attempted(&first), attempted(&second), "{workload}: attempted differs");
    }
}
