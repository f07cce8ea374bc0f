//! **Ablation A3** — The Validator claim (§3.2): the suggest-and-regenerate
//! cycle fixes buggy LLM-generated code. Bug-injection sweep: force every
//! first generation to carry a bug, run the validation loop, and report
//! pass rates and cycles-to-fix.

use lingua_bench::{arg_usize, write_json, TextTable};
use lingua_core::modules::LlmgcModule;
use lingua_core::optimizer::{TestCase, ValidationOutcome, Validator};
use lingua_core::{Data, ExecContext};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{Calibration, CodeGenSpec, SimLlm, SimLlmConfig};
use std::sync::Arc;

fn str_list(items: &[&str]) -> Data {
    Data::List(items.iter().map(|s| Data::Str(s.to_string())).collect())
}

fn tokenizer_cases() -> Vec<TestCase> {
    vec![
        TestCase::new(Data::Str("Hello, world!".into()), str_list(&["Hello", "world"])),
        TestCase::new(Data::Str("I saw a cat".into()), str_list(&["I", "saw", "a", "cat"])),
        TestCase::new(Data::Null, Data::List(vec![])),
    ]
}

fn extractor_cases() -> Vec<TestCase> {
    vec![
        TestCase::new(
            str_list(&["Yesterday", "John", "Smith", "met", "the", "board"]),
            str_list(&["John Smith"]),
        ),
        TestCase::new(
            str_list(&["The", "board", "met", "Mary", "Brown", "and", "Lee", "Wong"]),
            str_list(&["Mary Brown", "Lee Wong"]),
        ),
        TestCase::new(str_list(&[]), Data::List(vec![])),
    ]
}

fn main() {
    let trials = arg_usize("--trials", 40);
    println!(
        "Ablation A3: validator repair loop under forced bug injection ({trials} trials/task)\n"
    );

    type CaseFn = fn() -> Vec<TestCase>;
    let tasks: [(&str, &str, CaseFn); 2] = [
        ("tokenizer", "tokenize the text into words", tokenizer_cases),
        (
            "noun-phrase extractor",
            "extract noun phrases: group consecutive capitalized tokens",
            extractor_cases,
        ),
    ];

    let world = WorldSpec::generate(8000);
    let mut table = TextTable::new([
        "Task",
        "Buggy at birth",
        "Pass before fix",
        "Pass after loop",
        "Mean cycles",
        "Max cycles",
    ]);
    let mut json_rows = Vec::new();

    for (label, task, cases) in tasks {
        let mut buggy = 0usize;
        let mut pass_before = 0usize;
        let mut pass_after = 0usize;
        let mut cycles: Vec<usize> = Vec::new();
        for trial in 0..trials as u64 {
            // Force a bug on the first generation; repairs use the default
            // calibration.
            let llm = Arc::new(SimLlm::new(
                &world,
                SimLlmConfig {
                    seed: 8000 + trial,
                    calibration: Calibration { codegen_bug_rate: 1.0, ..Default::default() },
                    ..Default::default()
                },
            ));
            let mut ctx = ExecContext::new(llm);
            let spec =
                CodeGenSpec { task: task.into(), function_name: "process".into(), hints: vec![] };
            let mut module = LlmgcModule::generate(label, spec, &ctx).expect("generation parses");
            let validator = Validator::new(cases()).with_budgets(6, 3);
            let before = validator.evaluate(&mut module, &mut ctx);
            if before.is_empty() {
                pass_before += 1;
            }
            let report = validator.validate_and_fix(&mut module, &mut ctx).expect("loop runs");
            // A first draft is buggy when the validator's first verdict
            // finds failures.
            if report.failure_history[0] > 0 {
                buggy += 1;
            }
            if report.outcome == ValidationOutcome::Passed {
                pass_after += 1;
            }
            cycles.push(report.cycles);
        }
        let mean_cycles = cycles.iter().sum::<usize>() as f64 / cycles.len() as f64;
        let max_cycles = cycles.iter().max().copied().unwrap_or(0);
        table.row([
            label.to_string(),
            format!("{buggy}/{trials}"),
            format!("{pass_before}/{trials}"),
            format!("{pass_after}/{trials}"),
            format!("{mean_cycles:.2}"),
            max_cycles.to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "task": label, "buggy": buggy, "pass_before": pass_before,
            "pass_after": pass_after, "mean_cycles": mean_cycles, "max_cycles": max_cycles,
        }));
    }
    table.print();
    println!(
        "\nShape: every first generation is buggy by construction; the validation cycle \
         repairs essentially all of them within the cycle budget — the §3.2 loop works \
         because failures are real executions and suggestions come from reading the code."
    );
    write_json("ablation_validator", &serde_json::json!({ "trials": trials, "rows": json_rows }));
}
