//! Cross-crate integration for the optimizer trio: Validator repairing a
//! genuinely buggy generation, Simulator taking over a live stream, and the
//! Connectors enforcing + metering data exposure.

use lingua_core::modules::{LlmModule, LlmgcModule, Module, PromptBuilder};
use lingua_core::optimizer::{
    Simulated, SimulatorConfig, StudentKind, TabularConnector, TestCase, TextConnector,
    ValidationOutcome, Validator,
};
use lingua_core::validation::OutputValidator;
use lingua_core::{Data, ExecContext};
use lingua_dataset::generators::names::{generate, NamesConfig};
use lingua_dataset::query::Catalog;
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{Calibration, CodeGenSpec, LlmService, SimLlm, SimLlmConfig};
use std::sync::Arc;

fn str_list(items: &[&str]) -> Data {
    Data::List(items.iter().map(|s| Data::Str(s.to_string())).collect())
}

#[test]
fn validator_repairs_every_forced_bug() {
    let world = WorldSpec::generate(800);
    for trial in 0..8u64 {
        let llm = Arc::new(SimLlm::new(
            &world,
            SimLlmConfig {
                seed: 800 + trial,
                calibration: Calibration { codegen_bug_rate: 1.0, ..Default::default() },
                ..Default::default()
            },
        ));
        let mut ctx = ExecContext::new(llm);
        let spec = CodeGenSpec {
            task: "tokenize the text into words".into(),
            function_name: "process".into(),
            hints: vec![],
        };
        let mut module = LlmgcModule::generate("tok", spec, &ctx).unwrap();
        let validator = Validator::new(vec![
            TestCase::new(Data::Str("Hello, world!".into()), str_list(&["Hello", "world"])),
            TestCase::new(Data::Str("I saw a cat".into()), str_list(&["I", "saw", "a", "cat"])),
            TestCase::new(Data::Null, Data::List(vec![])),
        ])
        .with_budgets(6, 3);
        let report = validator.validate_and_fix(&mut module, &mut ctx).unwrap();
        // Every first draft is buggy, and the cases see every tokenizer bug.
        assert!(report.failure_history[0] > 0, "trial {trial}: {report:?}");
        assert_eq!(report.outcome, ValidationOutcome::Passed, "trial {trial}: {report:?}");
        // The installed program genuinely passes.
        assert!(validator.evaluate(&mut module, &mut ctx).is_empty());
    }
}

#[test]
fn simulator_cuts_llm_calls_on_a_real_tagging_stream() {
    let world = WorldSpec::generate(801);
    let corpus = generate(&world, &NamesConfig { passages: 250, ..Default::default() }, 3);
    let llm = Arc::new(SimLlm::with_seed(&world, 801));
    let mut ctx = ExecContext::new(llm.clone());
    let tagger = LlmModule::new(
        "tagger",
        PromptBuilder::Template {
            template:
                "Is the following phrase a person name?\nLanguage: {language}\nText: {phrase}"
                    .into(),
        },
        OutputValidator::YesNo,
    );
    let mut simulated =
        Simulated::new(Box::new(tagger), StudentKind::Binary, SimulatorConfig::default());
    let mut served = 0u64;
    for passage in &corpus {
        for name in &passage.person_names {
            let input = Data::map([
                ("phrase".to_string(), Data::Str(name.clone())),
                ("language".to_string(), Data::Str(passage.language.code().into())),
            ]);
            let _ = simulated.invoke(input, &mut ctx).unwrap();
            served += 1;
        }
    }
    let stats = simulated.stats();
    assert_eq!(stats.teacher_calls + stats.student_calls, served);
    assert!(simulated.has_taken_over(), "{stats:?}");
    assert!(stats.student_calls > served / 2, "student should carry most of the stream: {stats:?}");
    // The LLM bill is bounded by the teacher share.
    assert!(llm.usage().calls <= stats.teacher_calls + 5);
}

#[test]
fn connectors_enforce_allowlists_and_meter_exposure() {
    // Tabular: the LLM may only run the user-approved query shape.
    let table = lingua_dataset::csv::read_str(
        "products",
        "id,name,price\n1,widget,9.5\n2,gadget,19.5\n3,sprocket,2.5\n",
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register(table);
    let mut connector = TabularConnector::new(catalog).allow_prefix("SELECT name FROM products");
    assert!(connector.fetch("SELECT name FROM products WHERE price < 10").is_ok());
    assert!(connector.fetch("SELECT * FROM products").is_err());
    let meter = connector.meter();
    assert_eq!(meter.queries, 1);
    assert_eq!(meter.queries_denied, 1);
    assert_eq!(meter.rows_exposed, 2);

    // Text: only the top-k relevant chunks cross the boundary.
    let mut text_connector = TextConnector::new(80, 1);
    let doc = "The quarterly budget was approved by the board after review. \
               The cafeteria introduced a new lunch menu last Tuesday. \
               Budget amendments will be filed next month by the finance team.";
    let exposed = text_connector.relevant_chunks(doc, "budget approval finance");
    assert_eq!(exposed.len(), 1);
    assert!(exposed[0].to_lowercase().contains("budget"));
    assert!(text_connector.meter().bytes_exposed < doc.len() as u64);
}

#[test]
fn llm_budget_validation_rejects_silent_fallback_code() {
    // A module that answers correctly but routes everything through the LLM
    // must fail a zero-call budget and get repaired into local rules.
    let world = WorldSpec::generate(802);
    let llm = Arc::new(SimLlm::with_seed(&world, 802));
    let mut ctx = ExecContext::new(llm);
    ctx.tools.register_list("vocabulary", vec!["Sony".into(), "Canon".into()]);
    ctx.tools.register("normalize_brand", |args| {
        Ok(args.first().cloned().unwrap_or(lingua_script::Value::Null))
    });
    // Hand-written "lazy" module: always asks the LLM.
    let spec = CodeGenSpec {
        task: "impute the missing manufacturer from the product name".into(),
        function_name: "process".into(),
        hints: vec![],
    };
    let lazy = r#"
        fn process(product) {
            if is_null(product) { return null; }
            let name = get_or(product, "name", "");
            let answer = call_llm("Fill in the missing manufacturer.\nProduct: " + name +
                "\nAnswer with only the manufacturer name.");
            return call_tool("normalize_brand", answer);
        }
    "#;
    let mut module = LlmgcModule::from_source("lazy", spec, lazy).unwrap();
    let validator = Validator::new(vec![
        TestCase::new(
            Data::map([("name".to_string(), Data::Str("Sony Vista 300 Webcam".into()))]),
            Data::Str("Sony".into()),
        ),
        TestCase::new(Data::Null, Data::Null),
    ])
    .with_budgets(4, 2)
    .with_llm_budget(0);
    let report = validator.validate_and_fix(&mut module, &mut ctx).unwrap();
    assert_eq!(report.outcome, ValidationOutcome::Passed, "{report:?}");
    // The repaired program stopped paying the LLM for easy cases.
    let calls_before = ctx.llm.usage().calls;
    assert!(validator.evaluate(&mut module, &mut ctx).is_empty());
    assert_eq!(ctx.llm.usage().calls, calls_before, "no LLM calls after repair");
}
