//! Assembles the serving stack a phase runs against: simulator(s) →
//! (provider wire) → gateway → (batcher) → context factory → server or
//! stream engine. Every phase gets a fresh one, so no cache, ledger or
//! journal survives from warm-up into the measured phase.

use crate::adapters::{
    CallClock, ProviderTransport, TimedModule, TimedService, TimedStorage, WallSink, Wire,
};
use crate::inputs::{Inputs, Jobs};
use crate::workload::Workload;
use lingua_core::modules::{LlmModule, LlmgcModule, Module, PipelinedMapModule, PromptBuilder};
use lingua_core::optimizer::{ValidationOutcome, Validator};
use lingua_core::validation::OutputValidator;
use lingua_core::{Compiler, ContextFactory, LogicalOp, PhysicalPipeline};
use lingua_durable::{FileStorage, JournalTuning, Storage};
use lingua_gateway::{
    BatchConfig, Batcher, FaultInjector, FaultPlan, Gateway, LlmTransport, ServiceTransport,
};
use lingua_llm_sim::{LlmService, SimLlm, SimLlmConfig, Usage};
use lingua_serve::{BatchTuning, PipelineServer, ServeConfig};
use lingua_stream::{StreamConfig, StreamEngine};
use lingua_tasks::imputation::lingua as fig4;
use lingua_trace::{TraceSink, Tracer};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The provider's wire latency on `er_provider`.
const TOLL: Duration = Duration::from_millis(1);
/// Share of primary-backend calls that fail transiently on `er_provider`.
const FAULT_RATE: f64 = 0.05;
/// In-flight depth of the ER map stage: one batch's worth of calls.
const ER_DEPTH: usize = 8;
/// Entries in the simulator's prompt cache on `stream_dedup`, the one
/// workload whose inputs repeat (overlapping windows re-judge pairs);
/// smaller than its working set. Elsewhere every prompt is unique and the
/// cache stays off, the simulator's default: on `er_provider` it could
/// only be hit by the members of a faulted batch being re-dispatched, which
/// would hide a cost no real provider refunds.
const PROMPT_CACHE: usize = 1024;

const SUMMARIZE_DSL: &str = r#"pipeline summ {
    out = summarize(text) using llm with { desc: "summarize the following document" };
}"#;

/// What varies between the phases of one workload.
#[derive(Clone, Copy)]
pub struct Phase {
    /// Install the tracer and every probe.
    pub traced: bool,
    /// `er_provider`: run the batcher (off for the comparison arm).
    pub batching: bool,
    /// Journaling workloads: journal to a file (off for the comparison arm).
    pub journal: bool,
    /// `stream_dedup`: serve workers, `None` for the system default.
    pub workers: Option<usize>,
}

impl Phase {
    pub const MEASURED: Phase =
        Phase { traced: false, batching: true, journal: true, workers: None };
    pub const TRACED: Phase = Phase { traced: true, ..Phase::MEASURED };
}

/// The traced phase's probes.
pub struct Probes {
    pub sink: Arc<WallSink>,
    pub above_batcher: Option<Arc<TimedService>>,
    pub below_batcher: Option<Arc<TimedService>>,
    pub module: Arc<CallClock>,
    pub storage: Option<Arc<TimedStorage>>,
}

pub struct Stack {
    workload: Workload,
    pub gateway: Arc<Gateway>,
    pub sims: Vec<Arc<SimLlm>>,
    pub wire: Option<Arc<Wire>>,
    pub batcher: Option<Arc<Batcher>>,
    pub factory: ContextFactory,
    pub probes: Option<Probes>,
    serve: ServeConfig,
    /// Seconds spent generating, validating and repairing the LLMGC module.
    pub llmgc_build_s: f64,
    imputer: Option<LlmgcModule>,
}

fn sim(inputs: &Inputs) -> Arc<SimLlm> {
    Arc::new(SimLlm::new(
        &inputs.world,
        SimLlmConfig {
            seed: inputs.seed,
            cache_enabled: matches!(inputs.jobs, Jobs::Stream { .. }),
            cache_capacity: PROMPT_CACHE,
            ..Default::default()
        },
    ))
}

pub fn er_judge() -> LlmModule {
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

/// `factory` with the `vocabulary` / `normalize_brand` tools the Fig. 4
/// imputer's generated code calls.
pub fn with_imputer_tools(factory: ContextFactory, vocabulary: &[String]) -> ContextFactory {
    let mut ctx = factory.build();
    fig4::register_tools(&mut ctx, vocabulary);
    factory.with_tools(ctx.tools.clone())
}

/// The Fig. 4 imputer, assembled from the same public pieces
/// `LinguaImputer::build` uses (its module field is private, and serving
/// needs the module itself to replicate per worker).
pub fn build_imputer(factory: &ContextFactory, vocabulary: &[String]) -> LlmgcModule {
    let mut ctx = factory.build();
    let mut module = LlmgcModule::generate("impute_manufacturer", fig4::spec(), &ctx)
        .expect("generated imputer parses");
    let report = Validator::new(fig4::validation_cases(vocabulary))
        .with_budgets(4, 2)
        .with_llm_budget(0)
        .validate_and_fix(&mut module, &mut ctx)
        .expect("validator runs");
    assert_eq!(report.outcome, ValidationOutcome::Passed, "Fig. 4 imputer failed validation");
    module
}

impl Stack {
    /// `journal_path` is where a journaling phase keeps its log. A log
    /// already there is replayed, which is how the restart runs recover.
    pub fn build(workload: Workload, inputs: &Inputs, phase: Phase, journal_path: &Path) -> Stack {
        let probes = phase.traced.then(|| Probes {
            sink: WallSink::new(),
            above_batcher: None,
            below_batcher: None,
            module: Arc::new(CallClock::default()),
            storage: None,
        });
        let tracer = match &probes {
            Some(probes) => Tracer::new(Arc::clone(&probes.sink) as Arc<dyn TraceSink>),
            None => Tracer::disabled(),
        };

        // Simulator(s) behind the gateway. `Gateway::usage` sums its
        // backends' ledgers, so two backends need two simulators; same seed,
        // so they give the same answers.
        let tolled = workload == Workload::ErProvider;
        let wire = (tolled || phase.traced)
            .then(|| Wire::new(if tolled { TOLL } else { Duration::ZERO }, phase.traced));
        let over_wire = |transport: Arc<dyn LlmTransport>| match &wire {
            Some(wire) => Arc::new(ProviderTransport::new(transport, Arc::clone(wire))) as Arc<_>,
            None => transport,
        };
        let primary = sim(inputs);
        let mut sims = vec![Arc::clone(&primary)];
        let mut builder = Gateway::builder().tracer(tracer.clone());
        if workload == Workload::ErProvider {
            let plan = FaultPlan::transient(FAULT_RATE, inputs.seed);
            builder =
                builder.backend(over_wire(Arc::new(FaultInjector::new("primary", primary, plan))));
            let standby = sim(inputs);
            sims.push(Arc::clone(&standby));
            builder =
                builder.backend(over_wire(Arc::new(ServiceTransport::new("standby", standby))));
        } else {
            builder = builder.backend(over_wire(Arc::new(ServiceTransport::new("sim", primary))));
        }
        let gateway = Arc::new(builder.build());

        // The batcher. Untraced, `ServeConfig::batch` lets serve wrap it in;
        // traced, it is built here so a probe fits on either side of it.
        let mut serve = ServeConfig::default();
        let mut llm: Arc<dyn LlmService> = Arc::clone(&gateway) as Arc<_>;
        let mut batcher = None;
        let mut probes = probes;
        if workload == Workload::ErProvider && phase.batching {
            match &mut probes {
                None => serve.batch = Some(BatchTuning::default()),
                Some(probes) => {
                    let below = TimedService::new(llm);
                    let built = Arc::new(
                        Batcher::new(Arc::clone(&below) as Arc<_>, BatchConfig::default())
                            .with_tracer(tracer.clone()),
                    );
                    let above = TimedService::new(Arc::clone(&built) as Arc<_>);
                    llm = Arc::clone(&above) as Arc<_>;
                    batcher = Some(built);
                    probes.below_batcher = Some(below);
                    probes.above_batcher = Some(above);
                }
            }
        }

        let journaling =
            matches!(workload, Workload::JournalSmall | Workload::StreamDedup) && phase.journal;
        if journaling {
            let file = Arc::new(FileStorage::open(journal_path).expect("journal file opens"));
            serve.journal = Some(match &mut probes {
                None => JournalTuning::over(file),
                Some(probes) => {
                    let timed = TimedStorage::new(file);
                    probes.storage = Some(Arc::clone(&timed));
                    JournalTuning::over(timed as Arc<dyn Storage>)
                }
            });
        }
        serve.workers = phase.workers;

        let mut factory = ContextFactory::new(llm).with_tracer(tracer);
        let mut imputer = None;
        let mut llmgc_build_s = 0.0;
        if let Jobs::Impute { vocabulary, .. } = &inputs.jobs {
            factory = with_imputer_tools(factory, vocabulary);
            let start = Instant::now();
            imputer = Some(build_imputer(&factory, vocabulary));
            llmgc_build_s = start.elapsed().as_secs_f64();
        }

        Stack {
            workload,
            gateway,
            sims,
            wire,
            batcher,
            factory,
            probes,
            serve,
            llmgc_build_s,
            imputer,
        }
    }

    /// The shared ledger: what every simulator behind the gateway billed.
    pub fn ledger(&self) -> Usage {
        self.gateway.usage()
    }

    /// Wrap the per-record module in the traced phase's module probe.
    fn probed(&self, module: Box<dyn Module>) -> Box<dyn Module> {
        match &self.probes {
            Some(probes) => Box::new(TimedModule::new(module, Arc::clone(&probes.module))),
            None => module,
        }
    }

    fn map_pipeline(
        &self,
        name: &str,
        depth: usize,
        prototype: Box<dyn Module>,
    ) -> PhysicalPipeline {
        let prototype = std::sync::Mutex::new(self.probed(prototype));
        let stage = PipelinedMapModule::new(name, depth, move || {
            prototype
                .lock()
                .expect("prototype mutex poisoned")
                .fresh_instance()
                .expect("per-record modules replicate")
        });
        PhysicalPipeline {
            name: name.to_string(),
            ops: vec![(
                LogicalOp::new(name).output("labels").input("batch"),
                Box::new(stage) as Box<dyn Module>,
            )],
        }
    }

    /// Start a server and register the workload's pipeline on it.
    pub fn start_server(&self) -> PipelineServer {
        let server = PipelineServer::start(self.factory.clone(), self.serve.clone())
            .expect("benchmark serve config is valid");
        server.attach_gateway(Arc::clone(&self.gateway));
        if let Some(batcher) = &self.batcher {
            server.attach_batcher(Arc::clone(batcher));
        }
        match self.workload {
            Workload::ErProvider => server.register_pipeline(
                "match_batch",
                self.map_pipeline("match_batch", ER_DEPTH, Box::new(er_judge())),
            ),
            Workload::ImputeLlmgc => {
                let imputer = self.imputer.as_ref().expect("imputer built with the stack");
                let prototype = imputer.fresh_instance().expect("LLMGC modules replicate");
                server.register_pipeline(
                    "impute_batch",
                    self.map_pipeline("impute_batch", 1, prototype),
                )
            }
            Workload::JournalSmall => {
                server.register_dsl("summ", SUMMARIZE_DSL, &Compiler::with_builtins())
            }
            Workload::StreamDedup => unreachable!("the stream engine owns its server"),
        }
        .expect("pipeline registers");
        server
    }

    pub fn start_engine(&self, inputs: &Inputs) -> StreamEngine {
        let Jobs::Stream { schema, .. } = &inputs.jobs else {
            unreachable!("stream engine over stream inputs")
        };
        let config = StreamConfig { serve: self.serve.clone(), ..Default::default() };
        StreamEngine::start(self.factory.clone(), schema.clone(), config)
            .expect("stream engine starts")
    }
}
