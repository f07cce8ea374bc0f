//! **Script VM** — validator-style repeat execution of MangaScript programs:
//! the bytecode VM against the tree-walking interpreter.
//!
//! The Validator/Simulator loop executes one candidate program once per test
//! case, thousands of times per repair cycle. This bench replays that shape:
//! each workload program is prepared once (parse for the interpreter; parse +
//! compile-once for the VM, exactly as `LlmgcModule` caches it) and then
//! executed over and over with fresh engine state per execution, as `invoke`
//! does. Three workloads cover the common generated-code shapes:
//!
//! * `clean-records` — per-record map/string normalization (the canonical
//!   curation function: loops, map iteration, builtins). Regression-gated.
//! * `score-recursive` — call-heavy arithmetic (recursive scoring), where the
//!   interpreter pays a full body clone per call.
//! * `fold-report` — list building + joins over a window of rows.
//!
//! Writes `results/script_vm.json`. With `--check-baseline <path>` the run
//! compares the gated metric — the VM/interpreter speedup on `clean-records`,
//! measured between the two engines in this same process so host speed
//! cancels out — against a previously committed results file and exits
//! nonzero if the ratio fell more than 2x. `--smoke` shrinks counts for CI.

use lingua_bench::{
    arg_usize, check_baseline, has_flag, mean, read_baseline, write_json, TextTable,
};
use lingua_script::{compile, parse, CompiledScript, Interpreter, NoHost, Program, Value, Vm};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const FUEL: u64 = 2_000_000;

struct Workload {
    name: &'static str,
    source: &'static str,
    entry: &'static str,
    arg: Value,
}

fn record(name: &str, city: &str, n: i64) -> Value {
    let mut m = BTreeMap::new();
    m.insert("name".to_string(), Value::from(format!("  {name} ")));
    m.insert("city".to_string(), Value::from(format!(" {city}")));
    m.insert("n".to_string(), Value::Int(n));
    Value::from(m)
}

fn workloads() -> Vec<Workload> {
    let rows: Vec<Value> =
        (0..24).map(|i| record(&format!("Entity {i}"), &format!("City {}", i % 5), i)).collect();
    vec![
        Workload {
            name: "clean-records",
            entry: "process",
            source: r#"
                fn clean_one(rec) {
                    let out = {};
                    for k in rec {
                        let v = rec[k];
                        if typeof(v) == "str" { insert(out, k, lower(trim(v))); }
                        if typeof(v) != "str" { insert(out, k, v); }
                    }
                    return out;
                }
                fn process(rows) {
                    let cleaned = [];
                    for r in rows {
                        let c = clean_one(r);
                        if c["n"] % 2 == 0 { push(cleaned, c); }
                    }
                    return len(cleaned);
                }
            "#,
            arg: Value::from(rows.clone()),
        },
        Workload {
            name: "score-recursive",
            entry: "process",
            source: r#"
                fn score(n) {
                    if n < 2 { return n; }
                    return score(n - 1) + score(n - 2);
                }
                fn process(n) { return score(n); }
            "#,
            arg: Value::Int(15),
        },
        Workload {
            name: "fold-report",
            entry: "process",
            source: r#"
                fn process(rows) {
                    let lines = [];
                    let total = 0;
                    for r in rows {
                        total = total + r["n"];
                        push(lines, trim(r["name"]) + ":" + r["n"]);
                    }
                    push(lines, "total:" + total);
                    return join(lines, "|");
                }
            "#,
            arg: Value::from(rows),
        },
    ]
}

/// Executions/sec for the tree-walking oracle: parse once, then a fresh
/// interpreter per execution over the shared AST.
fn run_interp(program: &Program, entry: &str, arg: &Value, execs: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..execs {
        let mut interp = Interpreter::new(program).with_fuel(FUEL);
        std::hint::black_box(interp.call(&mut NoHost, entry, vec![arg.clone()]).unwrap());
    }
    execs as f64 / start.elapsed().as_secs_f64()
}

/// Executions/sec for the VM: compile once, then a fresh VM per execution
/// over the shared bytecode (what `LlmgcModule::invoke` does).
fn run_vm(compiled: &Arc<CompiledScript>, entry: &str, arg: &Value, execs: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..execs {
        let mut vm = Vm::new(Arc::clone(compiled)).with_fuel(FUEL);
        std::hint::black_box(vm.call(&mut NoHost, entry, vec![arg.clone()]).unwrap());
    }
    execs as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let baseline = read_baseline("gate_speedup");
    let smoke = has_flag("--smoke");
    let reps = arg_usize("--reps", if smoke { 2 } else { 5 });
    let execs = arg_usize("--execs", if smoke { 300 } else { 2_000 });
    println!(
        "Script VM: bytecode vs tree-walking interpreter, validator-style repeat \
         execution ({reps} reps x {execs} execs{})\n",
        if smoke { ", smoke" } else { "" }
    );

    let mut table =
        TextTable::new(["Workload", "Interp exec/s", "VM exec/s", "Speedup", "Compile µs"]);
    let mut rows = Vec::new();
    let mut gate_speedup = 0.0f64;
    let mut gate_ops = 0.0f64;

    for w in workloads() {
        let program = parse(w.source).expect("workload parses");

        // One-time lowering cost, amortized across every later execution.
        let compile_start = Instant::now();
        let compiled = Arc::new(compile(&program));
        let compile_us = compile_start.elapsed().as_secs_f64() * 1e6;

        // Parity guard: a bench comparing two engines that disagree would be
        // measuring a bug, not a speedup.
        let i_out = Interpreter::new(&program)
            .with_fuel(FUEL)
            .call(&mut NoHost, w.entry, vec![w.arg.clone()])
            .unwrap();
        let v_out = Vm::new(Arc::clone(&compiled))
            .with_fuel(FUEL)
            .call(&mut NoHost, w.entry, vec![w.arg.clone()])
            .unwrap();
        assert_eq!(i_out, v_out, "engines disagree on {}", w.name);

        let mut interp_rates = Vec::with_capacity(reps);
        let mut vm_rates = Vec::with_capacity(reps);
        for _ in 0..reps {
            interp_rates.push(run_interp(&program, w.entry, &w.arg, execs));
            vm_rates.push(run_vm(&compiled, w.entry, &w.arg, execs));
        }
        let (interp_ops, vm_ops) = (mean(&interp_rates), mean(&vm_rates));
        let speedup = vm_ops / interp_ops;
        if w.name == "clean-records" {
            gate_speedup = speedup;
            gate_ops = vm_ops;
        }
        table.row([
            w.name.into(),
            format!("{interp_ops:.0}"),
            format!("{vm_ops:.0}"),
            format!("{speedup:.2}x"),
            format!("{compile_us:.0}"),
        ]);
        rows.push(serde_json::json!({
            "workload": w.name,
            "interp_execs_per_sec": interp_ops,
            "vm_execs_per_sec": vm_ops,
            "speedup": speedup,
            "compile_us": compile_us,
            "instructions": compiled.instruction_count(),
        }));
    }

    table.print();
    println!(
        "\nShape: the VM runs slot-indexed locals and Arc-shared values over \
         bytecode compiled once per generation, where the tree-walker clones \
         every callee body per call and hashes a scope map per variable \
         access; compile cost is paid once and amortizes across the \
         thousands of validator executions per repair cycle."
    );

    write_json(
        "script_vm",
        &serde_json::json!({
            "smoke": smoke, "reps": reps, "execs": execs,
            "gate_metric": "clean-records VM/interpreter speedup (same-run, machine-relative)",
            "gate_execs_per_sec": gate_ops,
            "gate_speedup": gate_speedup,
            "rows": rows,
        }),
    );

    // Gate on the same-run VM/interpreter ratio, not absolute exec/sec: both
    // engines ran on this host in this process, so the ratio survives
    // shared-runner speed spread.
    check_baseline(
        baseline,
        |baseline| {
            format!(
                "VM/interpreter clean-records speedup = {gate_speedup:.2}x vs baseline \
                 {baseline:.2}x"
            )
        },
        |baseline| gate_speedup < baseline / 2.0,
        "VM speedup over the tree-walking interpreter fell more than 2x below the committed ratio",
    );
}
