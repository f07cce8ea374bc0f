//! **Planner P1** — what cost-based planning buys: total cost of ownership
//! for a seeded entity-resolution workload, planned versus always-LLM.
//!
//! Workload: the Fodors-Zagats test splits of several dataset seeds
//! concatenated into one pair stream (189 pairs per seed). Two arms:
//!
//! * `naive` — every pair goes straight to the LLM (one billed call each).
//! * `planned` — the planner is given real evidence first: the teacher LLM
//!   labels one seed's training split (568 calls, booked as the ml_model's
//!   setup cost), a random forest is distilled from those *teacher* verdicts,
//!   and both the direct LLM and the model are calibrated on a validation
//!   sample. The planner then chooses under the cheap-$ objective and the
//!   chosen pipeline serves the whole stream. The planned arm's dollars are
//!   total cost of ownership: labeling + calibration + serving.
//!
//! Every call runs against the deterministic simulator, so calls and tokens
//! — and therefore the gated ratio — are machine-independent. With
//! `--check-baseline <path>` the run compares `gate_ratio`
//! (naive $ ÷ planned $) against a committed results file and exits nonzero
//! on a >2x drop; the arms and record counts are identical in `--smoke`
//! (the run is simulator-cheap), which only skips the audit replay arm.
//!
//! The run itself fails (exit 1) if the planned arm is not *strictly*
//! cheaper than always-LLM, or if the plan's accuracy floor was not met on
//! the stream — those are the acceptance claims this binary exists to check.

use lingua_bench::{arg_usize, check_baseline, has_flag, read_baseline, write_json, TextTable};
use lingua_core::modules::{Module, ModuleKind};
use lingua_core::{Compiler, CurationStage, Data, ExecContext, Executor, LogicalOp, Pipeline};
use lingua_dataset::generators::er::{generate, ErDataset};
use lingua_dataset::labels::LabeledPair;
use lingua_dataset::world::WorldSpec;
use lingua_dataset::{Record, Schema, Table, Value};
use lingua_llm_sim::{LlmService, SimLlm};
use lingua_plan::{audit_events, Calibrator, MlPairModule, Objective, PhysicalAlt, Planner};
use lingua_trace::{ring_tracer, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 4242;
const DATASET: ErDataset = ErDataset::FodorsZagats;

fn er_op() -> LogicalOp {
    LogicalOp::new("entity_resolution")
        .input("pairs")
        .output("matches")
        .param("desc", "Determine if the two records refer to the same entity")
}

fn pair_input(pair: &LabeledPair, schema: &Schema) -> Data {
    Data::map([
        ("a".to_string(), Data::Str(pair.left.describe(schema))),
        ("b".to_string(), Data::Str(pair.right.describe(schema))),
    ])
}

fn main() {
    let baseline = read_baseline("gate_ratio");
    let smoke = has_flag("--smoke");
    let seeds = arg_usize("--seeds", 10);
    let calibration = arg_usize("--calibration", 64);
    println!("Planner P1: planned vs always-LLM over {seeds} {} seeds\n", DATASET.name());

    let world = WorldSpec::generate(SEED);
    // One split supplies the training/validation evidence; every split's
    // test pairs join the serving stream.
    let evidence = generate(&world, DATASET, 1000);
    let mut stream: Vec<LabeledPair> = evidence.test.clone();
    for i in 1..seeds {
        stream.extend(generate(&world, DATASET, 1000 + i as u64).test);
    }
    let schema = evidence.schema.clone();

    let stats = {
        let rows: Vec<Record> = stream
            .iter()
            .map(|p| {
                Record::new(vec![
                    Value::Str(p.left.describe(&schema)),
                    Value::Str(p.right.describe(&schema)),
                ])
            })
            .collect();
        let positives = stream.iter().filter(|p| p.label).count() as u64;
        lingua_core::DatasetStats::from_table(
            &Table::with_rows("pairs", Schema::of_names(["a", "b"]), rows).unwrap(),
        )
        .with_match_selectivity(positives, stream.len() as u64)
    };

    // ------------------------------------------------------------------
    // Naive arm: one LLM call per pair, no planning.
    // ------------------------------------------------------------------
    let mut llm_op = er_op();
    llm_op.kind = Some(ModuleKind::Llm);
    let naive_llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let mut naive_ctx = ExecContext::new(naive_llm.clone());
    let mut naive_module =
        Compiler::with_builtins().bind(&llm_op, &mut naive_ctx).expect("llm binds");
    let mut naive_correct = 0usize;
    for pair in &stream {
        let out =
            naive_module.invoke(pair_input(pair, &schema), &mut naive_ctx).expect("naive judgment");
        if out.as_bool() == Some(pair.label) {
            naive_correct += 1;
        }
    }
    let naive_usage = naive_llm.usage();
    let naive_usd = naive_usage.cost_usd(naive_llm.pricing());
    let naive_accuracy = naive_correct as f64 / stream.len() as f64;

    // ------------------------------------------------------------------
    // Planned arm: evidence, plan, serve. Total cost of ownership.
    // ------------------------------------------------------------------
    let planned_llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let mut ctx = ExecContext::new(planned_llm.clone());
    let mut planner = Planner::new(Compiler::with_builtins());
    let mut teacher = Compiler::with_builtins().bind(&llm_op, &mut ctx).expect("llm binds");

    // Distill: the teacher labels the training split; the forest learns
    // from those verdicts (not the ground truth), and the plan carries the
    // full labeling bill as the model's setup cost.
    let before_labels = planned_llm.usage();
    let distilled: Vec<LabeledPair> = evidence
        .train
        .iter()
        .map(|pair| {
            let verdict = teacher
                .invoke(pair_input(pair, &schema), &mut ctx)
                .expect("teacher labels")
                .as_bool()
                .unwrap_or(false);
            LabeledPair { label: verdict, ..pair.clone() }
        })
        .collect();
    let label_usage = planned_llm.usage().since(&before_labels);
    let train_started = Instant::now();
    let model = MlPairModule::train("er_student", &schema, &distilled, SEED).expect("train");
    planner.estimator_mut().record_setup(
        CurationStage::Match,
        PhysicalAlt::MlModel,
        &label_usage,
        train_started.elapsed().as_millis() as u64,
    );

    // Calibrate both live alternatives on the validation sample.
    let sample = &evidence.valid[..calibration.min(evidence.valid.len())];
    let calibrator = Calibrator::from_pairs(&schema, sample);
    let before_cal = planned_llm.usage();
    let llm_sample = calibrator.calibrate(
        planner.estimator_mut(),
        CurationStage::Match,
        PhysicalAlt::DirectLlm,
        teacher.as_mut(),
        &mut ctx,
    );
    let calibration_usage = planned_llm.usage().since(&before_cal);
    let mut probe = model.fresh_instance().expect("replicable");
    let model_sample = calibrator.calibrate(
        planner.estimator_mut(),
        CurationStage::Match,
        PhysicalAlt::MlModel,
        probe.as_mut(),
        &mut ctx,
    );
    planner.install_model(CurationStage::Match, Box::new(model)).expect("install model");

    let objective = Objective::cheapest_dollars();
    let pipeline = Pipeline::new("er_planned").op(er_op());
    let plan = planner.plan(&pipeline, &stats, &objective, &Tracer::disabled()).expect("plan");
    println!("{}\n", plan.summary());
    let chosen = plan.alt_of("entity_resolution").map(|a| a.name().to_string()).unwrap_or_default();

    // Serve the stream with the chosen physical pipeline.
    let planned = planner.compile(&plan, &mut ctx).expect("compile plan");
    let mut exec = planned.physical.fresh_instance().expect("replicable");
    let mut planned_correct = 0usize;
    for pair in &stream {
        let env = BTreeMap::from([("pairs".to_string(), pair_input(pair, &schema))]);
        let report = Executor::run(&mut exec, &mut ctx, env).expect("planned run");
        if report.get("matches").expect("output").as_bool() == Some(pair.label) {
            planned_correct += 1;
        }
    }
    let planned_usage = planned_llm.usage();
    let planned_usd = planned_usage.cost_usd(planned_llm.pricing());
    let planned_accuracy = planned_correct as f64 / stream.len() as f64;
    let serving_calls = planned_usage.calls - label_usage.calls - calibration_usage.calls;

    let mut table = TextTable::new(["arm", "LLM calls", "cost (USD)", "accuracy"]);
    table.row([
        "always-LLM".to_string(),
        naive_usage.calls.to_string(),
        format!("{naive_usd:.4}"),
        format!("{naive_accuracy:.3}"),
    ]);
    table.row([
        format!("planned ({chosen})"),
        planned_usage.calls.to_string(),
        format!("{planned_usd:.4}"),
        format!("{planned_accuracy:.3}"),
    ]);
    table.print();
    let gate_ratio = naive_usd / planned_usd.max(1e-12);
    println!(
        "\nShape: the planner pays once for teacher labels ({} calls) and calibration \
         ({} calls), then serves all {} pairs for {} LLM calls — {gate_ratio:.2}x cheaper \
         than paying per record, at accuracy {planned_accuracy:.3} against the plan's \
         {:.2} floor.",
        label_usage.calls,
        calibration_usage.calls,
        stream.len(),
        serving_calls,
        objective.accuracy_floor,
    );

    // ------------------------------------------------------------------
    // Audit replay (skipped in smoke): record the plan span, run a slice of
    // the stream under the same tracer, and reconcile estimated vs actual.
    // ------------------------------------------------------------------
    let mut audit_json = serde_json::json!(null);
    if !smoke {
        let (tracer, sink) = ring_tracer(8192);
        let audited = planner.plan(&pipeline, &stats, &objective, &tracer).expect("plan");
        let compiled = planner.compile(&audited, &mut ctx).expect("compile");
        let mut exec = compiled.physical.fresh_instance().expect("replicable");
        let mut audit_ctx = ExecContext::new(planned_llm.clone());
        audit_ctx.tracer = tracer.clone();
        for pair in stream.iter().take(50) {
            let env = BTreeMap::from([("pairs".to_string(), pair_input(pair, &schema))]);
            Executor::run(&mut exec, &mut audit_ctx, env).expect("audited run");
        }
        let audits = audit_events(&sink.events(), planned_llm.pricing());
        if let Some(audit) = audits.first() {
            println!(
                "\naudit: {} runs estimated ${:.4}, actually billed ${:.4}",
                audit.runs, audit.est_usd, audit.actual_usd
            );
            let op_rows: Vec<serde_json::Value> = audit
                .ops
                .iter()
                .map(|op| {
                    serde_json::json!({
                        "op": op.op.clone(), "alt": op.alt.clone(), "est_usd": op.est_usd,
                        "actual_usd": op.actual_usd, "actual_calls": op.actual_calls,
                    })
                })
                .collect();
            audit_json = serde_json::json!({
                "pipeline": audit.pipeline.clone(),
                "objective": audit.objective.clone(),
                "runs": audit.runs,
                "est_usd": audit.est_usd,
                "actual_usd": audit.actual_usd,
                "ops": op_rows,
            });
        }
    }

    write_json(
        "plan_quality",
        &serde_json::json!({
            "smoke": smoke,
            "seeds": seeds,
            "stream_pairs": stream.len(),
            "gate_metric": "always-LLM $ / planned total-cost-of-ownership $ \
                            (teacher labels + calibration + serving; deterministic \
                            simulator token counts, machine-independent)",
            "gate_ratio": gate_ratio,
            "accuracy_floor": objective.accuracy_floor,
            "floor_met": planned_accuracy >= objective.accuracy_floor,
            "naive": {
                "calls": naive_usage.calls,
                "tokens_in": naive_usage.tokens_in,
                "cost_usd": naive_usd,
                "accuracy": naive_accuracy,
            },
            "planned": {
                "chosen": chosen,
                "calls": planned_usage.calls,
                "label_calls": label_usage.calls,
                "calibration_calls": calibration_usage.calls,
                "serving_calls": serving_calls,
                "tokens_in": planned_usage.tokens_in,
                "cost_usd": planned_usd,
                "est_usd": plan.est_usd,
                "accuracy": planned_accuracy,
                "llm_sample_accuracy": llm_sample.accuracy(),
                "model_sample_accuracy": model_sample.accuracy(),
            },
            "audit": audit_json,
        }),
    );

    if planned_usd >= naive_usd {
        eprintln!(
            "FAIL: planned arm (${planned_usd:.4}) is not strictly cheaper than \
             always-LLM (${naive_usd:.4})"
        );
        std::process::exit(1);
    }
    if planned_accuracy < objective.accuracy_floor {
        eprintln!(
            "FAIL: planned accuracy {planned_accuracy:.3} fell below the plan's \
             {:.2} floor",
            objective.accuracy_floor
        );
        std::process::exit(1);
    }

    check_baseline(
        baseline,
        |baseline| format!("naive/planned $ ratio = {gate_ratio:.2}x vs baseline {baseline:.2}x"),
        |baseline| gate_ratio < baseline / 2.0,
        "the planner's $ advantage over always-LLM fell more than 2x below the committed ratio",
    );
}
