//! A served Fig. 4 imputer map answers every row as a fresh instance of the
//! imputer answers that row alone, on a context of its own — the law the
//! `impute_llmgc` benchmark's oracle holds, here over 256 seeded rows.
//!
//! The map runs each lane's rows through one instance and one context, so
//! this is what shows that nothing one row leaves behind reaches the next:
//! at depth 1 (the benchmark's, one lane a job) and at depth 4, with the
//! LLM fallback taken on some of the rows.

use lingua_core::modules::{LlmgcModule, Module, PipelinedMapModule};
use lingua_core::optimizer::{ValidationOutcome, Validator};
use lingua_core::{ContextFactory, Data, LogicalOp, PhysicalPipeline};
use lingua_dataset::generators::imputation::generate;
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::SimLlm;
use lingua_ml::sync::Mutex;
use lingua_serve::{PipelineServer, ServeConfig, SubmitRequest};
use lingua_tasks::imputation::lingua as fig4;
use std::sync::Arc;

const SEED: u64 = 11;
const ROWS_PER_JOB: usize = 16;
const JOBS: usize = 16;

/// A factory over a simulator of its own, with the imputer's tools.
fn factory(world: &WorldSpec, vocabulary: &[String]) -> ContextFactory {
    let factory = ContextFactory::new(Arc::new(SimLlm::with_seed(world, SEED)));
    let mut ctx = factory.build();
    fig4::register_tools(&mut ctx, vocabulary);
    factory.with_tools(ctx.tools.clone())
}

/// The validated Fig. 4 imputer, as the benchmark builds it.
fn imputer(factory: &ContextFactory, vocabulary: &[String]) -> LlmgcModule {
    let mut ctx = factory.build();
    let mut module = LlmgcModule::generate("impute_manufacturer", fig4::spec(), &ctx)
        .expect("the generated imputer parses");
    let report = Validator::new(fig4::validation_cases(vocabulary))
        .with_budgets(4, 2)
        .with_llm_budget(0)
        .validate_and_fix(&mut module, &mut ctx)
        .expect("the validator runs");
    assert_eq!(report.outcome, ValidationOutcome::Passed);
    module
}

/// Catalogue products with a lot number each, so every row is its own.
fn rows(world: &WorldSpec) -> (Vec<Data>, Vec<String>) {
    let bench = generate(world, SEED);
    let products = bench.table.rows();
    let rows = (0..ROWS_PER_JOB * JOBS)
        .map(|lot| {
            let product = &products[lot % products.len()];
            Data::map([
                ("name".to_string(), Data::Str(format!("{} (lot {lot:04})", product[0].render()))),
                ("description".to_string(), Data::Str(product[1].render())),
            ])
        })
        .collect();
    (rows, bench.vocabulary)
}

#[test]
fn a_served_imputer_map_answers_each_row_as_a_fresh_instance_does() {
    let world = WorldSpec::generate(SEED);
    let (rows, vocabulary) = rows(&world);
    let imputer = imputer(&factory(&world, &vocabulary), &vocabulary);

    let alone = factory(&world, &vocabulary);
    let want: Vec<Data> = rows
        .iter()
        .map(|row| {
            let mut module = imputer.fresh_instance().expect("LLMGC modules replicate");
            module.invoke(row.clone(), &mut alone.build()).expect("the row is imputed")
        })
        .collect();
    let bill = alone.llm().usage();
    assert!(bill.calls > 0 && (bill.calls as usize) < rows.len() / 2, "{bill:?}");

    for depth in [1, 4] {
        let served = factory(&world, &vocabulary);
        let server = PipelineServer::start(
            served.clone(),
            ServeConfig { workers: Some(2), ..Default::default() },
        )
        .expect("server starts");
        let prototype = Mutex::new(imputer.fresh_instance().expect("LLMGC modules replicate"));
        let map = PipelinedMapModule::new("impute_batch", depth, move || {
            prototype.lock().fresh_instance().expect("LLMGC modules replicate")
        });
        let op = LogicalOp::new("impute_batch").output("labels").input("batch");
        let pipeline = PhysicalPipeline {
            name: "impute_batch".into(),
            ops: vec![(op, Box::new(map) as Box<dyn Module>)],
        };
        server.register_pipeline("impute_batch", pipeline).expect("pipeline registers");
        let handles: Vec<_> = rows
            .chunks(ROWS_PER_JOB)
            .map(|job| {
                let request =
                    SubmitRequest::new("impute_batch").input("batch", Data::List(job.to_vec()));
                server.submit(request).expect("the job is accepted")
            })
            .collect();
        let mut got = Vec::with_capacity(rows.len());
        for handle in handles {
            let output = handle.wait().expect("the job runs");
            assert_eq!(output.env.keys().collect::<Vec<_>>(), ["labels"]);
            got.extend(output.get("labels").unwrap().as_list().expect("a list").iter().cloned());
        }
        assert_eq!(got.len(), want.len());
        for (index, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "depth {depth}, row {index}: {:?}", rows[index]);
        }
        let served = served.llm().usage();
        assert_eq!(
            (served.calls, served.tokens_in, served.tokens_out),
            (bill.calls, bill.tokens_in, bill.tokens_out),
            "depth {depth}: the same fallback calls"
        );
    }
}
