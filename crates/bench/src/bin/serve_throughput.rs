//! **Serving S1** — throughput of the `lingua-serve` worker pool: ER and
//! imputation pipelines served at 1/2/4/8 workers (jobs/sec + scaling vs a
//! single worker), plus the dedup arm: identical submissions coalesced
//! in-flight and answered from the result cache, with the LLM-call savings.
//!
//! Each job is a *batch* of records so it carries real work; every LLM call
//! also sleeps `--service-us` microseconds to model provider latency (the
//! SimLlm itself only tracks virtual latency). Sleeping calls are exactly
//! what a serving pool overlaps, so throughput scales with workers.
//!
//! The **batching arm** moves the service time out of the module and into a
//! serialized provider round trip, then serves the same ER workload — judged
//! through `PipelinedMapModule`, so each worker keeps up to a batch's worth
//! of calls in flight — with and without continuous batching: a batched
//! flush pays the round-trip toll once for all of its members, so backend
//! round trips collapse by roughly the batch occupancy. The regression gate
//! is the same-run unbatched/batched round-trip ratio — machine-relative,
//! like the hotpath gate.

use lingua_bench::{
    arg_usize, check_baseline, fmt_mean_std, has_flag, mean, write_json, TextTable,
};
use lingua_core::modules::{CustomModule, LlmModule, Module, PipelinedMapModule, PromptBuilder};
use lingua_core::validation::OutputValidator;
use lingua_core::{ContextFactory, CoreError, Data, LogicalOp, PhysicalPipeline};
use lingua_dataset::generators::er::{self, ErDataset};
use lingua_dataset::generators::imputation;
use lingua_dataset::world::WorldSpec;
use lingua_gateway::BatchSnapshot;
use lingua_llm_sim::{
    BatchOutcome, CodeGenSpec, CompletionRequest, GeneratedCode, LlmService, SimLlm, SimLlmConfig,
    Usage,
};
use lingua_serve::{BatchTuning, PipelineServer, ServeConfig, SubmitRequest};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 9100;

/// One-op pipeline: a stateless batch module that judges every item of the
/// input list with a fresh `LlmModule`, sleeping `service_us` per call.
fn batch_pipeline(
    name: &str,
    make_judge: impl Fn() -> LlmModule + Send + Sync + 'static,
    service_us: u64,
) -> PhysicalPipeline {
    let module = CustomModule::stateless(name, move |input, ctx| {
        let items = input
            .as_list()
            .ok_or(CoreError::DataShape { expected: "list of items", got: "other".into() })?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let mut judge = make_judge();
            let verdict = judge.invoke(item.clone(), ctx)?;
            if service_us > 0 {
                std::thread::sleep(Duration::from_micros(service_us));
            }
            out.push(verdict);
        }
        Ok(Data::List(out))
    });
    PhysicalPipeline {
        name: name.to_string(),
        ops: vec![(
            LogicalOp::new(name).output("labels").input("batch"),
            Box::new(module) as Box<dyn Module>,
        )],
    }
}

/// The ER judge the batching arm shares between its pipelines.
fn er_judge() -> LlmModule {
    LlmModule::new(
        "er_judge",
        PromptBuilder::PairJudgment {
            description: "Please determine if the following two records refer to the same entity."
                .into(),
            examples: vec![],
        },
        OutputValidator::YesNo,
    )
}

/// One-op ER pipeline over [`PipelinedMapModule`]: each job's record list is
/// dispatched with up to `depth` calls in flight, so a worker keeps many
/// members inside the batcher's window at once instead of trickling one
/// request per flush. Both batching-arm configurations use this pipeline, so
/// the arms execute identical work and differ only in the batcher.
fn pipelined_er_pipeline(depth: usize) -> PhysicalPipeline {
    let module =
        PipelinedMapModule::new("match_batch", depth, || Box::new(er_judge()) as Box<dyn Module>);
    PhysicalPipeline {
        name: "match_batch".to_string(),
        ops: vec![(
            LogicalOp::new("match_batch").output("labels").input("batch"),
            Box::new(module) as Box<dyn Module>,
        )],
    }
}

fn er_pipeline(service_us: u64) -> PhysicalPipeline {
    batch_pipeline("match_batch", er_judge, service_us)
}

fn imputation_pipeline(vocabulary: Vec<String>, service_us: u64) -> PhysicalPipeline {
    batch_pipeline(
        "impute_batch",
        move || {
            LlmModule::new(
                "imputer",
                PromptBuilder::TextTask {
                    description: "Fill in the missing manufacturer for this product.".into(),
                    payload_label: "Product".into(),
                    extra_lines: vec![format!("Candidates: {}", vocabulary.join(", "))],
                },
                OutputValidator::Category { vocabulary: vocabulary.clone() },
            )
        },
        service_us,
    )
}

/// Batch ER pairs into per-job inputs: `batch` ↦ list of `{a, b}` maps.
fn er_jobs(world: &WorldSpec, jobs: usize, batch: usize) -> Vec<Data> {
    let split = er::generate(world, ErDataset::BeerAdvoRateBeer, SEED);
    let schema = split.schema.clone();
    let pairs: Vec<Data> = split
        .train
        .iter()
        .chain(&split.valid)
        .chain(&split.test)
        .map(|p| {
            Data::map([
                ("a".to_string(), Data::Str(p.left.describe(&schema))),
                ("b".to_string(), Data::Str(p.right.describe(&schema))),
            ])
        })
        .collect();
    assert!(pairs.len() >= jobs * batch, "ER split too small for {jobs} jobs x {batch}");
    pairs.chunks(batch).take(jobs).map(|chunk| Data::List(chunk.to_vec())).collect()
}

/// Batch imputation rows into per-job inputs: `batch` ↦ list of row texts.
fn imputation_jobs(world: &WorldSpec, jobs: usize, batch: usize) -> (Vec<Data>, Vec<String>) {
    let bench = imputation::generate(world, SEED);
    let schema = bench.table.schema().clone();
    let rows: Vec<Data> =
        bench.table.rows().iter().map(|row| Data::Str(row.describe(&schema))).collect();
    assert!(rows.len() >= jobs * batch, "imputation table too small for {jobs} jobs x {batch}");
    let inputs = rows.chunks(batch).take(jobs).map(|chunk| Data::List(chunk.to_vec())).collect();
    (inputs, bench.vocabulary)
}

struct ArmResult {
    secs: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// Stand up a fresh server (fresh SimLlm, so no cross-run cache), serve every
/// job, and time submit-all → wait-all.
fn serve_once(
    world: &WorldSpec,
    pipeline: PhysicalPipeline,
    inputs: &[Data],
    workers: usize,
) -> ArmResult {
    let llm = Arc::new(SimLlm::new(world, SimLlmConfig { seed: SEED, ..Default::default() }));
    let factory = ContextFactory::new(llm);
    let config = ServeConfig {
        workers: Some(workers),
        queue_capacity: inputs.len() + 8,
        ..Default::default()
    };
    let mut server = PipelineServer::start(factory, config).expect("valid bench config");
    let id = pipeline.name.clone();
    server.register_pipeline(id.as_str(), pipeline).expect("pipeline replicates");
    let start = Instant::now();
    let handles: Vec<_> = inputs
        .iter()
        .map(|input| {
            server
                .submit(SubmitRequest::new(id.as_str()).input("batch", input.clone()))
                .expect("queue sized for the run")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("job completes");
    }
    let secs = start.elapsed().as_secs_f64();
    let snapshot = server.metrics();
    server.shutdown();
    ArmResult { secs, p50_ms: snapshot.p50_latency_ms, p95_ms: snapshot.p95_latency_ms }
}

/// The dedup arm: `dups` copies of each distinct job, interleaved so the
/// duplicates race, with in-flight dedup + result cache on vs off.
fn dedup_arm(
    world: &WorldSpec,
    pipeline: PhysicalPipeline,
    distinct: &[Data],
    dups: usize,
    enabled: bool,
) -> (f64, u64, u64) {
    let llm = Arc::new(SimLlm::new(world, SimLlmConfig { seed: SEED, ..Default::default() }));
    let factory = ContextFactory::new(llm.clone());
    let config = ServeConfig {
        workers: Some(4),
        queue_capacity: distinct.len() * dups + 8,
        dedup_inflight: enabled,
        result_cache_capacity: if enabled { 1024 } else { 0 },
        ..Default::default()
    };
    let mut server = PipelineServer::start(factory, config).expect("valid bench config");
    let id = pipeline.name.clone();
    server.register_pipeline(id.as_str(), pipeline).expect("pipeline replicates");
    let start = Instant::now();
    let mut handles = Vec::with_capacity(distinct.len() * dups);
    for _round in 0..dups {
        for input in distinct {
            handles.push(
                server
                    .submit(SubmitRequest::new(id.as_str()).input("batch", input.clone()))
                    .expect("queue sized for the run"),
            );
        }
    }
    for handle in handles {
        handle.wait().expect("job completes");
    }
    let secs = start.elapsed().as_secs_f64();
    let deduped = server.metrics().deduped();
    server.shutdown();
    (secs, llm.usage().calls, deduped)
}

/// Models a rate-limited provider connection: every backend round trip —
/// batched or not — serializes on one connection and pays `rt_us` of wire
/// latency. A batched flush pays that toll once for all of its members,
/// which is exactly the economy continuous batching buys.
struct RoundTripLlm {
    inner: Arc<SimLlm>,
    connection: Mutex<()>,
    rt_us: u64,
    round_trips: AtomicU64,
}

impl RoundTripLlm {
    fn new(inner: Arc<SimLlm>, rt_us: u64) -> RoundTripLlm {
        RoundTripLlm { inner, connection: Mutex::new(()), rt_us, round_trips: AtomicU64::new(0) }
    }

    fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    fn toll(&self) {
        let _connection = self.connection.lock().unwrap();
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        if self.rt_us > 0 {
            std::thread::sleep(Duration::from_micros(self.rt_us));
        }
    }
}

impl LlmService for RoundTripLlm {
    fn complete(&self, request: &CompletionRequest) -> String {
        self.toll();
        self.inner.complete(request)
    }

    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        self.toll();
        self.inner.complete_batch(requests)
    }

    fn embed(&self, text: &str) -> Vec<f64> {
        self.inner.embed(text)
    }

    fn usage(&self) -> Usage {
        self.inner.usage()
    }

    fn simulated_latency_ms(&self) -> u64 {
        self.inner.simulated_latency_ms()
    }

    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
        self.inner.generate_code(spec)
    }

    fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
        self.inner.suggest_fix(source, failures)
    }

    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        self.inner.repair_code(spec, previous, suggestion)
    }
}

/// The batching arm: the ER workload over a round-trip-tolled provider, with
/// or without the serve-layer batcher wrapped around it. Dedup and the
/// result cache stay off so the two arms execute identical work.
fn batch_arm(
    world: &WorldSpec,
    inputs: &[Data],
    workers: usize,
    rt_us: u64,
    tuning: Option<BatchTuning>,
) -> (f64, u64, Option<BatchSnapshot>) {
    let sim = Arc::new(SimLlm::new(world, SimLlmConfig { seed: SEED, ..Default::default() }));
    let llm = Arc::new(RoundTripLlm::new(sim, rt_us));
    let factory = ContextFactory::new(Arc::clone(&llm) as Arc<dyn LlmService>);
    let config = ServeConfig {
        workers: Some(workers),
        queue_capacity: inputs.len() + 8,
        dedup_inflight: false,
        result_cache_capacity: 0,
        batch: tuning,
        ..Default::default()
    };
    let mut server = PipelineServer::start(factory, config).expect("valid bench config");
    // Pipelined dispatch in both arms: up to one batch's worth of calls in
    // flight per worker, so batches fill from within a single job.
    let pipeline = pipelined_er_pipeline(8);
    let id = pipeline.name.clone();
    server.register_pipeline(id.as_str(), pipeline).expect("pipeline replicates");
    let start = Instant::now();
    let handles: Vec<_> = inputs
        .iter()
        .map(|input| {
            server
                .submit(SubmitRequest::new(id.as_str()).input("batch", input.clone()))
                .expect("queue sized for the run")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("job completes");
    }
    let secs = start.elapsed().as_secs_f64();
    let snapshot = server.metrics().batch;
    server.shutdown();
    (secs, llm.round_trips(), snapshot)
}

fn main() {
    let smoke = has_flag("--smoke");
    // 48 x 8 = 384 records per workload, within the 450-pair ER split.
    let jobs = arg_usize("--jobs", if smoke { 16 } else { 48 });
    let batch = arg_usize("--batch", 8);
    let reps = arg_usize("--reps", if smoke { 1 } else { 3 });
    let service_us = arg_usize("--service-us", 400) as u64;
    let rt_us = arg_usize("--round-trip-us", 300) as u64;
    let worker_counts = [1usize, 2, 4, 8];
    println!(
        "Serving S1: {jobs} jobs x {batch}-record batches per pipeline, \
         {service_us}us simulated service time per LLM call, {reps} reps{}\n",
        if smoke { ", smoke" } else { "" }
    );

    let world = WorldSpec::generate(SEED);
    let (imp_inputs, vocabulary) = imputation_jobs(&world, jobs, batch);
    let er_inputs = er_jobs(&world, jobs, batch);

    type PipelineFn = Box<dyn Fn() -> PhysicalPipeline>;
    let workloads: Vec<(&str, PipelineFn, &[Data])> = vec![
        ("entity resolution", Box::new(move || er_pipeline(service_us)), &er_inputs[..]),
        (
            "imputation",
            Box::new({
                let vocabulary = vocabulary.clone();
                move || imputation_pipeline(vocabulary.clone(), service_us)
            }),
            &imp_inputs[..],
        ),
    ];

    let mut table = TextTable::new([
        "Workload",
        "Workers",
        "Jobs/sec",
        "Speedup vs 1",
        "p50 latency (ms)",
        "p95 latency (ms)",
    ]);
    let mut json_rows = Vec::new();
    for (label, make_pipeline, inputs) in &workloads {
        let mut baseline = 0.0f64;
        for &workers in &worker_counts {
            let mut rates = Vec::with_capacity(reps);
            let mut last = None;
            for _ in 0..reps {
                let arm = serve_once(&world, make_pipeline(), inputs, workers);
                rates.push(inputs.len() as f64 / arm.secs);
                last = Some(arm);
            }
            let arm = last.expect("at least one rep");
            let rate = mean(&rates);
            if workers == 1 {
                baseline = rate;
            }
            table.row([
                label.to_string(),
                workers.to_string(),
                fmt_mean_std(&rates, 1.0),
                format!("{:.2}x", rate / baseline),
                format!("{:.1}", arm.p50_ms),
                format!("{:.1}", arm.p95_ms),
            ]);
            json_rows.push(serde_json::json!({
                "workload": label, "workers": workers, "jobs_per_sec": rate,
                "speedup": rate / baseline, "p50_ms": arm.p50_ms, "p95_ms": arm.p95_ms,
            }));
        }
    }
    table.print();

    // Dedup arm: 6 copies of 16 distinct ER jobs, racing on 4 workers.
    let dups = 6;
    let distinct: Vec<Data> = er_inputs.iter().take(16).cloned().collect();
    let (secs_on, calls_on, deduped_on) =
        dedup_arm(&world, er_pipeline(service_us), &distinct, dups, true);
    let (secs_off, calls_off, deduped_off) =
        dedup_arm(&world, er_pipeline(service_us), &distinct, dups, false);
    println!(
        "\nDedup arm ({} submissions, {} distinct, 4 workers):\n\
         \x20 dedup on : {:>6.2}s  {:>5} LLM calls  {:>3} jobs deduped\n\
         \x20 dedup off: {:>6.2}s  {:>5} LLM calls  {:>3} jobs deduped",
        distinct.len() * dups,
        distinct.len(),
        secs_on,
        calls_on,
        deduped_on,
        secs_off,
        calls_off,
        deduped_off,
    );
    // Batching arm: 8 workers against a serialized provider connection, with
    // and without the serve-layer batcher. The gate is the same-run
    // unbatched/batched round-trip ratio — both arms ran on this host in this
    // process, so the ratio survives CI-runner throughput spread.
    let batch_workers = 8;
    let tuning = BatchTuning { max_batch_size: 8, max_wait: Duration::from_millis(5) };
    let mut batched_secs = Vec::with_capacity(reps);
    let mut unbatched_secs = Vec::with_capacity(reps);
    let mut batched_trips = Vec::with_capacity(reps);
    let mut unbatched_trips = Vec::with_capacity(reps);
    let mut snapshot = None;
    for _ in 0..reps {
        let (secs, trips, snap) = batch_arm(&world, &er_inputs, batch_workers, rt_us, Some(tuning));
        batched_secs.push(secs);
        batched_trips.push(trips as f64);
        snapshot = snap.or(snapshot);
        let (secs, trips, _) = batch_arm(&world, &er_inputs, batch_workers, rt_us, None);
        unbatched_secs.push(secs);
        unbatched_trips.push(trips as f64);
    }
    let snapshot = snapshot.expect("batched server surfaces batch counters");
    let gate_round_trip_ratio = mean(&unbatched_trips) / mean(&batched_trips);
    println!(
        "\nBatching arm ({} jobs, {} workers, {}us round trip, batch {} x {}ms window):\n\
         \x20 batched  : {:>6.2}s  {:>5.0} provider round trips  \
         ({} batches, mean occupancy {:.1})\n\
         \x20 unbatched: {:>6.2}s  {:>5.0} provider round trips\n\
         \x20 round-trip ratio: {:.2}x fewer backend calls",
        er_inputs.len(),
        batch_workers,
        rt_us,
        tuning.max_batch_size,
        tuning.max_wait.as_millis(),
        mean(&batched_secs),
        mean(&batched_trips),
        snapshot.batches,
        snapshot.mean_occupancy(),
        mean(&unbatched_secs),
        mean(&unbatched_trips),
        gate_round_trip_ratio,
    );

    println!(
        "\nShape: jobs/sec rises with workers because per-call service time \
         overlaps across the pool; dedup answers duplicate submissions from \
         one execution, so LLM spend tracks distinct work, not request volume; \
         batching folds concurrent members into one provider round trip, so \
         backend calls track flushes, not members."
    );

    write_json(
        "serve_throughput",
        &serde_json::json!({
            "smoke": smoke,
            "jobs": jobs, "batch": batch, "reps": reps, "service_us": service_us,
            "rows": json_rows,
            "dedup": {
                "submissions": distinct.len() * dups, "distinct": distinct.len(),
                "on": { "secs": secs_on, "llm_calls": calls_on, "deduped": deduped_on },
                "off": { "secs": secs_off, "llm_calls": calls_off, "deduped": deduped_off },
            },
            "batching": {
                "workers": batch_workers, "round_trip_us": rt_us,
                "max_batch_size": tuning.max_batch_size,
                "max_wait_ms": tuning.max_wait.as_millis() as u64,
                "batched": {
                    "secs": mean(&batched_secs),
                    "jobs_per_sec": er_inputs.len() as f64 / mean(&batched_secs),
                    "round_trips": mean(&batched_trips),
                },
                "unbatched": {
                    "secs": mean(&unbatched_secs),
                    "jobs_per_sec": er_inputs.len() as f64 / mean(&unbatched_secs),
                    "round_trips": mean(&unbatched_trips),
                },
                "batches": snapshot.batches, "members": snapshot.members,
                "mean_occupancy": snapshot.mean_occupancy(),
                "max_occupancy": snapshot.max_occupancy,
            },
            "gate_metric": "unbatched/batched provider round trips at 8 workers \
                            (same-run, machine-relative)",
            "gate_round_trip_ratio": gate_round_trip_ratio,
        }),
    );

    check_baseline(
        "gate_round_trip_ratio",
        |baseline| {
            format!(
                "unbatched/batched round-trip ratio @{batch_workers}w = \
                 {gate_round_trip_ratio:.2}x vs baseline {baseline:.2}x"
            )
        },
        |baseline| gate_round_trip_ratio < baseline / 2.0,
        "continuous batching collapsed fewer provider round trips than half the committed \
         ratio — the batcher is not filling",
    );
}
