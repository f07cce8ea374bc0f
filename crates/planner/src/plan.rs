//! Plan enumeration: per-op candidates, memoized Volcano-style search over
//! Pareto frontiers, and the [`Planner`] that ties candidates, search, and
//! compilation together.
//!
//! The search is exact. For each op-suffix the dynamic program keeps only the
//! Pareto frontier of (cost, accuracy) outcomes — an assignment dominated on
//! both axes can never become optimal by prepending more ops, because cost
//! adds and accuracy multiplies monotonically. The memoized winner therefore
//! equals the exhaustive cross-product winner ([`exhaustive_assignment`]
//! exists to prove exactly that, property-tested in `tests/prop_plan.rs`).

use crate::cost::{CostEstimate, CostEstimator, Objective, PlanError};
use crate::physical::{MemoModule, PhysicalAlt};
use crate::pipeline::PlannedPipeline;
use lingua_core::modules::{Module, ModuleKind};
use lingua_core::{
    Compiler, CurationStage, DatasetStats, ExecContext, LogicalOp, PhysicalPipeline, Pipeline,
};
use lingua_llm_sim::TemplateKind;
use lingua_trace::{SpanKind, Tracer};
use std::collections::BTreeMap;

/// One physical option for one op, priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    pub alt: PhysicalAlt,
    pub estimate: CostEstimate,
    /// True when the estimate is a prior from the default implementation
    /// ranking rather than observed evidence.
    pub fallback: bool,
}

/// Result of a search over candidate assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Chosen candidate index per op.
    pub choices: Vec<usize>,
    /// Objective-weighted total cost of the winning assignment.
    pub cost: f64,
    /// Plan accuracy (product of per-op accuracies) of the winner.
    pub accuracy: f64,
    /// Candidate combinations examined.
    pub considered: u64,
    /// Pareto-frontier entries kept across all suffixes (memo size).
    pub kept: u64,
}

/// A frontier entry: the cost/accuracy of one op-suffix assignment, with
/// back-pointers for reconstruction.
struct Entry {
    cost: f64,
    accuracy: f64,
    choice: usize,
    next: usize,
}

const FLOOR_EPSILON: f64 = 1e-9;

/// Exact memoized search: right-to-left over ops, keeping the Pareto
/// frontier of (cost, accuracy) per suffix. `records[i]` is the record count
/// entering op `i` (the per-record cost multiplier). Returns the cheapest
/// assignment whose accuracy product meets the objective's floor.
pub fn best_assignment(
    candidates: &[Vec<Candidate>],
    records: &[f64],
    objective: &Objective,
) -> Result<SearchOutcome, PlanError> {
    if candidates.is_empty() {
        return Err(PlanError::EmptyPipeline);
    }
    let n = candidates.len();
    let mut frontiers: Vec<Vec<Entry>> = Vec::with_capacity(n + 1);
    frontiers.resize_with(n + 1, Vec::new);
    frontiers[n].push(Entry { cost: 0.0, accuracy: 1.0, choice: usize::MAX, next: usize::MAX });
    let mut considered = 0u64;
    for i in (0..n).rev() {
        if candidates[i].is_empty() {
            return Err(PlanError::NoAlternatives { op: format!("op[{i}]") });
        }
        let mut combined: Vec<Entry> = Vec::new();
        for (choice, candidate) in candidates[i].iter().enumerate() {
            let score = candidate.estimate.score(objective, records[i]);
            for (next, entry) in frontiers[i + 1].iter().enumerate() {
                considered += 1;
                combined.push(Entry {
                    cost: score + entry.cost,
                    accuracy: candidate.estimate.accuracy * entry.accuracy,
                    choice,
                    next,
                });
            }
        }
        // Sort by cost ascending (accuracy descending on ties), then keep
        // only entries that strictly improve accuracy — the Pareto frontier.
        combined.sort_by(|a, b| {
            a.cost.total_cmp(&b.cost).then_with(|| b.accuracy.total_cmp(&a.accuracy))
        });
        let mut frontier: Vec<Entry> = Vec::new();
        for entry in combined {
            if frontier.last().map_or(true, |kept| entry.accuracy > kept.accuracy) {
                frontier.push(entry);
            }
        }
        frontiers[i] = frontier;
    }
    let kept = frontiers.iter().map(|f| f.len() as u64).sum();
    // The frontier is cost-ascending with accuracy strictly increasing, so
    // the first entry meeting the floor is the cheapest feasible assignment.
    let winner = frontiers[0]
        .iter()
        .position(|entry| entry.accuracy >= objective.accuracy_floor - FLOOR_EPSILON);
    let Some(winner) = winner else {
        let best_accuracy = frontiers[0].last().map(|entry| entry.accuracy).unwrap_or(0.0);
        return Err(PlanError::Infeasible { floor: objective.accuracy_floor, best_accuracy });
    };
    let mut choices = Vec::with_capacity(n);
    let mut index = winner;
    for frontier in frontiers.iter().take(n) {
        let entry = &frontier[index];
        choices.push(entry.choice);
        index = entry.next;
    }
    let entry = &frontiers[0][winner];
    Ok(SearchOutcome { cost: entry.cost, accuracy: entry.accuracy, choices, considered, kept })
}

/// Exhaustive cross-product reference for the property tests: enumerate
/// every assignment, keep the cheapest feasible one. Sums are associated
/// right-to-left exactly like [`best_assignment`], so winning costs compare
/// bit-for-bit on identical inputs.
pub fn exhaustive_assignment(
    candidates: &[Vec<Candidate>],
    records: &[f64],
    objective: &Objective,
) -> Result<SearchOutcome, PlanError> {
    if candidates.is_empty() {
        return Err(PlanError::EmptyPipeline);
    }
    for (i, cands) in candidates.iter().enumerate() {
        if cands.is_empty() {
            return Err(PlanError::NoAlternatives { op: format!("op[{i}]") });
        }
    }
    fn suffixes(
        candidates: &[Vec<Candidate>],
        records: &[f64],
        objective: &Objective,
    ) -> Vec<(f64, f64, Vec<usize>)> {
        let Some((first, rest_candidates)) = candidates.split_first() else {
            return vec![(0.0, 1.0, Vec::new())];
        };
        let rest = suffixes(rest_candidates, &records[1..], objective);
        let mut out = Vec::new();
        for (choice, candidate) in first.iter().enumerate() {
            let score = candidate.estimate.score(objective, records[0]);
            for (cost, accuracy, choices) in &rest {
                let mut full = Vec::with_capacity(choices.len() + 1);
                full.push(choice);
                full.extend_from_slice(choices);
                out.push((score + cost, candidate.estimate.accuracy * accuracy, full));
            }
        }
        out
    }
    let all = suffixes(candidates, records, objective);
    let considered = all.len() as u64;
    let mut best: Option<(f64, f64, Vec<usize>)> = None;
    let mut best_accuracy = 0.0f64;
    for (cost, accuracy, choices) in all {
        best_accuracy = best_accuracy.max(accuracy);
        if accuracy >= objective.accuracy_floor - FLOOR_EPSILON
            && best.as_ref().map_or(true, |(b, _, _)| cost < *b)
        {
            best = Some((cost, accuracy, choices));
        }
    }
    let Some((cost, accuracy, choices)) = best else {
        return Err(PlanError::Infeasible { floor: objective.accuracy_floor, best_accuracy });
    };
    Ok(SearchOutcome { cost, accuracy, choices, considered, kept: considered })
}

/// One op's slot in a finished plan.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    pub op: LogicalOp,
    pub stage: CurationStage,
    pub alt: PhysicalAlt,
    pub estimate: CostEstimate,
    /// Records expected to enter this op (after upstream selectivity).
    pub records: f64,
    /// Estimate came from the default-ranking prior, not observations.
    pub fallback: bool,
}

/// A finished plan: per-op choices plus plan-level totals.
#[derive(Debug, Clone)]
pub struct Plan {
    pub name: String,
    pub ops: Vec<PlannedOp>,
    pub objective: Objective,
    pub est_usd: f64,
    pub est_ms: f64,
    pub est_accuracy: f64,
    /// Candidate combinations the search examined.
    pub considered: u64,
    /// Pareto-frontier entries the memo kept.
    pub frontier_kept: u64,
}

impl Plan {
    /// One-line provenance summary (this is what lands in the serve
    /// registry's annotation).
    pub fn summary(&self) -> String {
        let ops: Vec<String> =
            self.ops.iter().map(|op| format!("{}→{}", op.op_type(), op.alt.name())).collect();
        format!(
            "plan[{}] {} (est ${:.4}, {:.0}ms, acc {:.3})",
            self.objective.name,
            ops.join(", "),
            self.est_usd,
            self.est_ms,
            self.est_accuracy
        )
    }

    /// The alternative chosen for an op type, if the op is in the plan.
    pub fn alt_of(&self, op_type: &str) -> Option<PhysicalAlt> {
        self.ops.iter().find(|op| op.op_type() == op_type).map(|op| op.alt)
    }
}

impl PlannedOp {
    pub fn op_type(&self) -> &str {
        &self.op.op_type
    }
}

/// The planner: candidate generation + cost-based search + compilation into
/// the existing `lingua-core` execution types.
pub struct Planner {
    compiler: Compiler,
    estimator: CostEstimator,
    models: BTreeMap<CurationStage, Box<dyn Module>>,
}

/// Capacity of the memo a `CachedLlm` choice compiles to.
const CACHE_CAPACITY: usize = 4096;

impl Planner {
    pub fn new(compiler: Compiler) -> Planner {
        Planner { compiler, estimator: CostEstimator::new(), models: BTreeMap::new() }
    }

    pub fn estimator(&self) -> &CostEstimator {
        &self.estimator
    }

    pub fn estimator_mut(&mut self) -> &mut CostEstimator {
        &mut self.estimator
    }

    /// Install a trained model as the `MlModel` alternative for a stage. The
    /// module must be replicable (`fresh_instance`) — the planner hands out
    /// instances, never the master.
    pub fn install_model(
        &mut self,
        stage: CurationStage,
        module: Box<dyn Module>,
    ) -> Result<(), PlanError> {
        if module.fresh_instance().is_none() {
            return Err(PlanError::Core(format!(
                "model for the {} stage must support fresh_instance",
                stage.name()
            )));
        }
        self.models.insert(stage, module);
        Ok(())
    }

    /// Enumerate and price the physical candidates for one op.
    ///
    /// Kind pins narrow the lattice: `using llm` admits the direct LLM and
    /// its semantics-preserving cache; `using llmgc` admits only the
    /// generated program; `using custom` (or a registered factory under the
    /// default policy) passes through at face value — custom code is the
    /// user's explicit choice, so the estimator is not consulted. Unpinned
    /// ops get the full lattice filtered by what can actually bind.
    fn candidates_for(&self, op: &LogicalOp, stats: &DatasetStats) -> Vec<Candidate> {
        let stage = op.stage();
        if op.kind == Some(ModuleKind::Custom)
            || (op.kind.is_none() && self.compiler.has_factory(&op.op_type))
        {
            return vec![Candidate {
                alt: PhysicalAlt::CustomCode,
                estimate: CostEstimate {
                    usd_per_record: 0.0,
                    ms_per_record: 0.0,
                    setup_usd: 0.0,
                    setup_ms: 0.0,
                    accuracy: 1.0,
                },
                fallback: false,
            }];
        }
        let admissible: Vec<PhysicalAlt> = match op.kind {
            Some(ModuleKind::Llm) => vec![PhysicalAlt::CachedLlm, PhysicalAlt::DirectLlm],
            Some(ModuleKind::Llmgc) => vec![PhysicalAlt::LlmgcProgram],
            _ => {
                let mut alts = Vec::new();
                let desc = op.description().unwrap_or(&op.op_type);
                let hints: Vec<String> = op
                    .params
                    .get("hints")
                    .map(|h| h.split(',').map(|s| s.trim().to_string()).collect())
                    .unwrap_or_default();
                if TemplateKind::detect(desc, &hints) != TemplateKind::Identity {
                    alts.push(PhysicalAlt::LlmgcProgram);
                }
                if self.models.contains_key(&stage) {
                    alts.push(PhysicalAlt::MlModel);
                }
                if op.description().is_some() {
                    alts.push(PhysicalAlt::CachedLlm);
                    alts.push(PhysicalAlt::DirectLlm);
                }
                alts
            }
        };
        let mut out: Vec<Candidate> = admissible
            .iter()
            .filter_map(|&alt| {
                self.estimator.estimate(stage, alt, stats).ok().map(|estimate| Candidate {
                    alt,
                    estimate,
                    fallback: false,
                })
            })
            .collect();
        if out.is_empty() {
            // InsufficientStats everywhere: fall back to the first admissible
            // alternative in the paper's default ranking, priced by priors
            // and labeled as such.
            for alt in PhysicalAlt::ALL {
                if admissible.contains(&alt) {
                    out.push(Candidate {
                        alt,
                        estimate: self.estimator.prior_estimate(alt, stats),
                        fallback: true,
                    });
                    break;
                }
            }
        }
        out
    }

    /// Plan a logical pipeline: choose one physical alternative per op,
    /// minimizing the objective under its accuracy floor. Records the
    /// decision as a `SpanKind::Plan` span (one `choose` instant per op).
    pub fn plan(
        &self,
        pipeline: &Pipeline,
        stats: &DatasetStats,
        objective: &Objective,
        tracer: &Tracer,
    ) -> Result<Plan, PlanError> {
        if pipeline.ops.is_empty() {
            return Err(PlanError::EmptyPipeline);
        }
        let mut span = tracer.span(SpanKind::Plan, &pipeline.name);
        span.attr("objective", objective.name);
        span.attr("accuracy_floor", format!("{:.3}", objective.accuracy_floor));
        let mut candidates = Vec::with_capacity(pipeline.ops.len());
        let mut records = Vec::with_capacity(pipeline.ops.len());
        let mut flow = stats.rows.max(1) as f64;
        for op in &pipeline.ops {
            let cands = self.candidates_for(op, stats);
            if cands.is_empty() {
                return Err(PlanError::NoAlternatives { op: op.op_type.clone() });
            }
            records.push(flow);
            // Match stages shrink the downstream record flow to the
            // observed positive rate.
            if op.stage() == CurationStage::Match {
                if let Some(selectivity) = stats.match_selectivity {
                    flow *= selectivity;
                }
            }
            candidates.push(cands);
        }
        let outcome = best_assignment(&candidates, &records, objective)?;
        let mut ops = Vec::with_capacity(pipeline.ops.len());
        let mut est_usd = 0.0;
        let mut est_ms = 0.0;
        for (i, op) in pipeline.ops.iter().enumerate() {
            let chosen = candidates[i][outcome.choices[i]];
            est_usd += chosen.estimate.total_usd(records[i]);
            est_ms += chosen.estimate.total_ms(records[i]);
            tracer.instant_under(Some(span.id()), SpanKind::Plan, "choose", || {
                vec![
                    ("op".to_string(), op.op_type.clone()),
                    ("stage".to_string(), op.stage().name().to_string()),
                    ("alt".to_string(), chosen.alt.name().to_string()),
                    ("usd".to_string(), format!("{:.6}", chosen.estimate.total_usd(records[i]))),
                    ("ms".to_string(), format!("{:.6}", chosen.estimate.total_ms(records[i]))),
                    ("accuracy".to_string(), format!("{:.6}", chosen.estimate.accuracy)),
                    ("records".to_string(), format!("{:.1}", records[i])),
                    ("fallback".to_string(), chosen.fallback.to_string()),
                ]
            });
            ops.push(PlannedOp {
                op: op.clone(),
                stage: op.stage(),
                alt: chosen.alt,
                estimate: chosen.estimate,
                records: records[i],
                fallback: chosen.fallback,
            });
        }
        span.attr("est_usd", format!("{est_usd:.6}"));
        span.attr("est_ms", format!("{est_ms:.6}"));
        span.attr("est_accuracy", format!("{:.6}", outcome.accuracy));
        span.attr("considered", outcome.considered.to_string());
        Ok(Plan {
            name: pipeline.name.clone(),
            ops,
            objective: *objective,
            est_usd,
            est_ms,
            est_accuracy: outcome.accuracy,
            considered: outcome.considered,
            frontier_kept: outcome.kept,
        })
    }

    /// Materialize a plan into an executable [`PhysicalPipeline`] using the
    /// existing compiler (LLMGC choices run code generation now, billed to
    /// `ctx` as usual).
    pub fn compile(
        &self,
        plan: &Plan,
        ctx: &mut ExecContext,
    ) -> Result<PlannedPipeline, PlanError> {
        let mut ops: Vec<(LogicalOp, Box<dyn Module>)> = Vec::with_capacity(plan.ops.len());
        for planned in &plan.ops {
            let module: Box<dyn Module> = match planned.alt {
                PhysicalAlt::CustomCode => self.compiler.bind(&planned.op, ctx)?,
                PhysicalAlt::DirectLlm => {
                    let mut op = planned.op.clone();
                    op.kind = Some(ModuleKind::Llm);
                    self.compiler.bind(&op, ctx)?
                }
                PhysicalAlt::LlmgcProgram => {
                    let mut op = planned.op.clone();
                    op.kind = Some(ModuleKind::Llmgc);
                    self.compiler.bind(&op, ctx)?
                }
                PhysicalAlt::CachedLlm => {
                    let mut op = planned.op.clone();
                    op.kind = Some(ModuleKind::Llm);
                    Box::new(MemoModule::new(self.compiler.bind(&op, ctx)?, CACHE_CAPACITY))
                }
                PhysicalAlt::MlModel => {
                    let model = self.models.get(&planned.stage).ok_or_else(|| {
                        PlanError::Core(format!(
                            "plan chose ml_model for the {} stage but no model is installed",
                            planned.stage.name()
                        ))
                    })?;
                    model.fresh_instance().ok_or_else(|| {
                        PlanError::Core(format!(
                            "model for the {} stage is not replicable",
                            planned.stage.name()
                        ))
                    })?
                }
            };
            ops.push((planned.op.clone(), module));
        }
        Ok(PlannedPipeline {
            plan: plan.clone(),
            physical: PhysicalPipeline { name: plan.name.clone(), ops },
        })
    }

    /// Convenience: plan then compile in one call.
    pub fn plan_and_compile(
        &self,
        pipeline: &Pipeline,
        stats: &DatasetStats,
        objective: &Objective,
        tracer: &Tracer,
        ctx: &mut ExecContext,
    ) -> Result<PlannedPipeline, PlanError> {
        let plan = self.plan(pipeline, stats, objective, tracer)?;
        self.compile(&plan, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::MlPairModule;
    use lingua_core::optimizer::SampleMeasurement;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::{SimLlm, Usage};
    use lingua_trace::{ring_tracer, TraceTree};
    use std::sync::Arc;

    fn candidate(alt: PhysicalAlt, usd: f64, ms: f64, accuracy: f64) -> Candidate {
        Candidate {
            alt,
            estimate: CostEstimate {
                usd_per_record: usd,
                ms_per_record: ms,
                setup_usd: 0.0,
                setup_ms: 0.0,
                accuracy,
            },
            fallback: false,
        }
    }

    fn stats_with_rows(rows: usize) -> DatasetStats {
        use lingua_dataset::{Record, Schema, Table, Value};
        let schema = Schema::of_names(["name"]);
        let rows: Vec<Record> =
            (0..rows).map(|i| Record::new(vec![Value::Str(format!("item number {i}"))])).collect();
        DatasetStats::from_table(&Table::with_rows("t", schema, rows).unwrap())
    }

    #[test]
    fn search_picks_the_cheapest_feasible_assignment() {
        let candidates = vec![
            vec![
                candidate(PhysicalAlt::DirectLlm, 0.002, 350.0, 0.95),
                candidate(PhysicalAlt::MlModel, 0.0, 0.5, 0.85),
            ],
            vec![
                candidate(PhysicalAlt::DirectLlm, 0.002, 350.0, 0.95),
                candidate(PhysicalAlt::CustomCode, 0.0, 0.1, 0.99),
            ],
        ];
        let records = vec![100.0, 100.0];
        // Floor 0.8: the all-cheap assignment (0.85 * 0.99 = 0.8415) passes.
        let outcome =
            best_assignment(&candidates, &records, &Objective::cheapest_dollars()).unwrap();
        assert_eq!(outcome.choices, vec![1, 1]);
        assert!((outcome.accuracy - 0.85 * 0.99).abs() < 1e-12);
        // Floor 0.9: the model is no longer affordable accuracy-wise; the
        // LLM must take the first op (0.95 * 0.99 = 0.9405).
        let strict = Objective::cheapest_dollars().with_floor(0.9);
        let outcome = best_assignment(&candidates, &records, &strict).unwrap();
        assert_eq!(outcome.choices, vec![0, 1]);
        // An unreachable floor is a typed error carrying the best achievable.
        let impossible = Objective::cheapest_dollars().with_floor(0.99);
        let err = best_assignment(&candidates, &records, &impossible).unwrap_err();
        assert!(matches!(err, PlanError::Infeasible { best_accuracy, .. }
            if (best_accuracy - 0.95 * 0.99).abs() < 1e-12));
    }

    #[test]
    fn search_matches_the_exhaustive_reference() {
        let candidates = vec![
            vec![
                candidate(PhysicalAlt::DirectLlm, 0.002, 350.0, 0.92),
                candidate(PhysicalAlt::LlmgcProgram, 0.0001, 1.0, 0.88),
                candidate(PhysicalAlt::MlModel, 0.0, 0.5, 0.85),
            ],
            vec![
                candidate(PhysicalAlt::DirectLlm, 0.003, 350.0, 0.95),
                candidate(PhysicalAlt::CachedLlm, 0.001, 120.0, 0.95),
            ],
            vec![candidate(PhysicalAlt::CustomCode, 0.0, 0.1, 1.0)],
        ];
        let records = vec![500.0, 500.0, 250.0];
        for objective in [
            Objective::cheapest_dollars(),
            Objective::lowest_latency(),
            Objective::cheapest_dollars().with_floor(0.87),
        ] {
            let fast = best_assignment(&candidates, &records, &objective).unwrap();
            let slow = exhaustive_assignment(&candidates, &records, &objective).unwrap();
            assert_eq!(fast.cost, slow.cost, "objective {}", objective.name);
            assert_eq!(fast.choices, slow.choices);
        }
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let objective = Objective::cheapest_dollars();
        assert_eq!(best_assignment(&[], &[], &objective).unwrap_err(), PlanError::EmptyPipeline);
        let candidates = vec![vec![], vec![candidate(PhysicalAlt::CustomCode, 0.0, 0.1, 1.0)]];
        assert!(matches!(
            best_assignment(&candidates, &[1.0, 1.0], &objective).unwrap_err(),
            PlanError::NoAlternatives { .. }
        ));
    }

    fn calibrated_planner() -> Planner {
        let mut planner = Planner::new(Compiler::with_builtins());
        // Direct LLM at the Match stage: expensive, slow, accurate.
        planner.estimator_mut().record_sample(
            CurationStage::Match,
            PhysicalAlt::DirectLlm,
            &SampleMeasurement {
                total: 20,
                passed: 19,
                errors: 0,
                usage: Usage { calls: 20, tokens_in: 4000, tokens_out: 200, ..Usage::default() },
                sim_latency_ms: 7000,
                wall_ms: 0,
            },
        );
        planner
    }

    fn er_pipeline() -> Pipeline {
        Pipeline::new("er").op(LogicalOp::new("entity_resolution")
            .input("records")
            .output("matches")
            .param("desc", "Determine if the two records refer to the same entity"))
    }

    #[test]
    fn planner_prefers_the_model_when_cheap_and_feasible() {
        let mut planner = calibrated_planner();
        let world = WorldSpec::generate(21);
        let split = lingua_dataset::generators::er::generate(
            &world,
            lingua_dataset::generators::er::ErDataset::FodorsZagats,
            7,
        );
        let model = MlPairModule::train("er_model", &split.schema, &split.train, 0).unwrap();
        planner.install_model(CurationStage::Match, Box::new(model)).unwrap();
        // Tell the estimator the model judged well on a sample.
        planner.estimator_mut().record_sample(
            CurationStage::Match,
            PhysicalAlt::MlModel,
            &SampleMeasurement {
                total: 20,
                passed: 18,
                errors: 0,
                usage: Usage::default(),
                sim_latency_ms: 0,
                wall_ms: 10,
            },
        );
        let stats = stats_with_rows(200);
        let cheap = planner
            .plan(&er_pipeline(), &stats, &Objective::cheapest_dollars(), &Tracer::disabled())
            .unwrap();
        assert_eq!(cheap.alt_of("entity_resolution"), Some(PhysicalAlt::MlModel));
        assert!(!cheap.ops[0].fallback);
        assert!(cheap.est_usd < 1e-9, "the model costs no tokens");
        // Raise the floor past the model's accuracy: an LLM-backed form wins
        // despite costing real dollars.
        let strict = Objective::cheapest_dollars().with_floor(0.92);
        let plan = planner.plan(&er_pipeline(), &stats, &strict, &Tracer::disabled()).unwrap();
        assert!(matches!(
            plan.alt_of("entity_resolution"),
            Some(PhysicalAlt::CachedLlm | PhysicalAlt::DirectLlm)
        ));
        assert!(plan.est_usd > 0.0);
        assert!(plan.est_accuracy >= 0.92);
    }

    #[test]
    fn unobserved_ops_fall_back_to_the_default_ranking() {
        let planner = Planner::new(Compiler::with_builtins());
        let stats = stats_with_rows(50);
        let pipeline = Pipeline::new("fresh").op(LogicalOp::new("entity_resolution")
            .input("records")
            .output("matches")
            .using(ModuleKind::Llm)
            .param("desc", "Determine if the two records refer to the same entity"));
        let plan = planner
            .plan(&pipeline, &stats, &Objective::cheapest_dollars(), &Tracer::disabled())
            .unwrap();
        // No evidence at all: the first admissible alternative in the
        // paper's ranking (cache before raw LLM) carries prior pricing.
        assert_eq!(plan.alt_of("entity_resolution"), Some(PhysicalAlt::CachedLlm));
        assert!(plan.ops[0].fallback);
    }

    #[test]
    fn custom_ops_pass_through_unpriced() {
        let planner = calibrated_planner();
        let stats = stats_with_rows(50);
        let pipeline = Pipeline::new("load")
            .op(LogicalOp::new("load_csv").output("records").param("path", "x.csv"));
        let plan = planner
            .plan(&pipeline, &stats, &Objective::cheapest_dollars(), &Tracer::disabled())
            .unwrap();
        assert_eq!(plan.alt_of("load_csv"), Some(PhysicalAlt::CustomCode));
        assert_eq!(plan.est_usd, 0.0);
    }

    #[test]
    fn plans_emit_audit_spans() {
        let planner = calibrated_planner();
        let stats = stats_with_rows(100);
        let (tracer, sink) = ring_tracer(64);
        let pipeline = Pipeline::new("er").op(LogicalOp::new("entity_resolution")
            .input("records")
            .output("matches")
            .using(ModuleKind::Llm)
            .param("desc", "Determine if the two records refer to the same entity"));
        planner.plan(&pipeline, &stats, &Objective::cheapest_dollars(), &tracer).unwrap();
        let tree = TraceTree::build(&sink.events()).unwrap();
        let plans = tree.spans_of_kind(SpanKind::Plan);
        assert_eq!(plans.len(), 1);
        let span = plans[0];
        assert_eq!(span.name, "er");
        assert_eq!(span.attrs.get("objective").map(String::as_str), Some("cheap_$"));
        assert!(span.attrs.contains_key("est_usd"));
        let chooses: Vec<_> = span.instants.iter().filter(|i| i.name == "choose").collect();
        assert_eq!(chooses.len(), 1);
        assert_eq!(chooses[0].attrs.get("op").map(String::as_str), Some("entity_resolution"));
        assert!(chooses[0].attrs.contains_key("alt"));
        assert!(chooses[0].attrs.contains_key("usd"));
    }

    #[test]
    fn compile_materializes_the_chosen_alternatives() {
        let planner = calibrated_planner();
        let stats = stats_with_rows(20);
        let world = WorldSpec::generate(3);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 3)));
        // DirectLlm pinned via a strict floor (cache shares accuracy, so use
        // a pipeline pinned `using llm` and check both compile paths).
        let pipeline = Pipeline::new("er").op(LogicalOp::new("entity_resolution")
            .input("records")
            .output("matches")
            .using(ModuleKind::Llm)
            .param("desc", "Determine if the two records refer to the same entity"));
        let planned = planner
            .plan_and_compile(
                &pipeline,
                &stats,
                &Objective::cheapest_dollars(),
                &Tracer::disabled(),
                &mut ctx,
            )
            .unwrap();
        // The cache derives from observed DirectLlm evidence and wins on $.
        assert_eq!(planned.plan.alt_of("entity_resolution"), Some(PhysicalAlt::CachedLlm));
        assert_eq!(planned.physical.ops.len(), 1);
        assert!(planned.physical.ops[0].1.name().ends_with("+cache"));
        // The compiled pipeline is replicable (serve-registry requirement).
        assert!(planned.physical.fresh_instance().is_ok());
        // Low-latency objective on the same evidence still picks the cache
        // (fewer LLM round trips); the record flow stays intact.
        assert_eq!(planned.plan.ops[0].records, 20.0);
    }

    #[test]
    fn match_selectivity_shrinks_downstream_record_flow() {
        let mut planner = calibrated_planner();
        planner.estimator_mut().record_sample(
            CurationStage::Transform,
            PhysicalAlt::DirectLlm,
            &SampleMeasurement {
                total: 10,
                passed: 9,
                errors: 0,
                usage: Usage { calls: 10, tokens_in: 2000, tokens_out: 100, ..Usage::default() },
                sim_latency_ms: 3500,
                wall_ms: 0,
            },
        );
        let stats = stats_with_rows(100).with_match_selectivity(10, 100);
        let pipeline = Pipeline::new("two")
            .op(LogicalOp::new("entity_resolution")
                .input("records")
                .output("matches")
                .using(ModuleKind::Llm)
                .param("desc", "Determine if the two records refer to the same entity"))
            .op(LogicalOp::new("summarize")
                .input("matches")
                .output("out")
                .using(ModuleKind::Llm)
                .param("desc", "summarize the merged record"));
        let plan = planner
            .plan(&pipeline, &stats, &Objective::cheapest_dollars(), &Tracer::disabled())
            .unwrap();
        assert_eq!(plan.ops[0].records, 100.0);
        // Only the 10% of pairs that matched flow into the summarizer.
        assert!((plan.ops[1].records - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_pipelines_cannot_be_planned() {
        let planner = Planner::new(Compiler::with_builtins());
        let err = planner
            .plan(
                &Pipeline::new("empty"),
                &stats_with_rows(10),
                &Objective::cheapest_dollars(),
                &Tracer::disabled(),
            )
            .unwrap_err();
        assert_eq!(err, PlanError::EmptyPipeline);
    }
}
