//! The cost model: objectives, per-op cost estimates, and the evidence-fed
//! [`CostEstimator`].
//!
//! The estimator only speaks from evidence. Three feeds exist, in decreasing
//! order of fidelity:
//!
//! 1. **Calibration runs** ([`crate::Calibrator`]) — a Validator-style sample
//!    execution that yields usage, latency, *and* accuracy per
//!    `(stage, alternative)`.
//! 2. **Live traces** ([`CostEstimator::feed_trace`]) — `Op` spans from
//!    production `lingua-trace` events, attributed to an alternative via the
//!    executor's `module_kind` attribute. Traces carry exact token usage but
//!    no wall latency (the tracer's clock is logical), so they sharpen the
//!    $-side of an estimate without touching the ms-side.
//! 3. **Dataset statistics** ([`DatasetStats`]) — shape-only facts
//!    (token lengths, duplicate rates, match selectivity) that scale the
//!    other two feeds to the target dataset.
//!
//! When an alternative has *no* observed usage, [`CostEstimator::estimate`]
//! returns the typed [`PlanError::InsufficientStats`] — never a silent
//! default — and the planner falls back to the paper's implementation
//! ranking with clearly-labeled priors ([`CostEstimator::prior_estimate`]).

use crate::physical::{PhysicalAlt, CACHE_SUFFIX};
use lingua_core::optimizer::SampleMeasurement;
use lingua_core::{CurationStage, DatasetStats, LogicalOp};
use lingua_llm_sim::cost::TokenPricing;
use lingua_llm_sim::Usage;
use lingua_trace::{SpanKind, TraceEvent, TraceTree};
use std::collections::BTreeMap;

/// What the planner minimizes: a weighted blend of dollars and milliseconds,
/// subject to a plan-level accuracy floor (the product of per-op accuracies
/// must stay at or above it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Weight on total plan dollars.
    pub usd_weight: f64,
    /// Weight on total plan milliseconds.
    pub ms_weight: f64,
    /// Minimum acceptable plan accuracy (`Π op accuracy ≥ floor`).
    pub accuracy_floor: f64,
    /// Stable label for traces and bench JSON.
    pub name: &'static str,
}

impl Objective {
    /// Minimize dollars; latency only breaks ties (epsilon weight).
    pub fn cheapest_dollars() -> Objective {
        Objective { usd_weight: 1.0, ms_weight: 1e-7, accuracy_floor: 0.8, name: "cheap_$" }
    }

    /// Minimize latency; dollars only break ties (epsilon weight).
    pub fn lowest_latency() -> Objective {
        Objective { usd_weight: 1e-7, ms_weight: 1.0, accuracy_floor: 0.8, name: "low_latency" }
    }

    /// Same weights, different accuracy floor.
    pub fn with_floor(mut self, floor: f64) -> Objective {
        self.accuracy_floor = floor;
        self
    }
}

/// Per-op cost estimate: marginal per-record terms plus one-time setup terms
/// (code generation, model training labels), and an accuracy figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    pub usd_per_record: f64,
    pub ms_per_record: f64,
    /// One-time dollars (LLMGC code generation, training-label acquisition).
    pub setup_usd: f64,
    /// One-time milliseconds.
    pub setup_ms: f64,
    /// Expected fraction of records this op handles correctly, in `[0, 1]`.
    pub accuracy: f64,
}

impl CostEstimate {
    /// Total dollars to push `records` records through this op.
    pub fn total_usd(&self, records: f64) -> f64 {
        self.setup_usd + records * self.usd_per_record
    }

    /// Total milliseconds to push `records` records through this op.
    pub fn total_ms(&self, records: f64) -> f64 {
        self.setup_ms + records * self.ms_per_record
    }

    /// The objective-weighted scalar the planner minimizes.
    pub fn score(&self, objective: &Objective, records: f64) -> f64 {
        objective.usd_weight * self.total_usd(records)
            + objective.ms_weight * self.total_ms(records)
    }
}

/// Typed planning failures.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The estimator has no observed usage for this `(stage, alternative)` —
    /// the caller must either calibrate or accept the prior-ranked fallback.
    InsufficientStats { stage: CurationStage, alternative: PhysicalAlt },
    /// An op produced no physical candidates at all.
    NoAlternatives { op: String },
    /// No assignment of alternatives satisfies the accuracy floor.
    Infeasible { floor: f64, best_accuracy: f64 },
    /// The pipeline has no ops to plan.
    EmptyPipeline,
    /// A compile/binding failure while materializing the chosen plan
    /// (message-only so `PlanError` stays `Clone + PartialEq`).
    Core(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InsufficientStats { stage, alternative } => write!(
                f,
                "no observed samples for {} at the {} stage; calibrate it or accept the \
                 default-ranking fallback",
                alternative,
                stage.name()
            ),
            PlanError::NoAlternatives { op } => {
                write!(f, "op `{op}` has no physical alternatives")
            }
            PlanError::Infeasible { floor, best_accuracy } => write!(
                f,
                "no plan reaches the accuracy floor {floor:.3} (best achievable \
                 {best_accuracy:.3})"
            ),
            PlanError::EmptyPipeline => write!(f, "cannot plan an empty pipeline"),
            PlanError::Core(message) => write!(f, "plan compilation failed: {message}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<lingua_core::CoreError> for PlanError {
    fn from(err: lingua_core::CoreError) -> Self {
        PlanError::Core(err.to_string())
    }
}

/// Accumulated evidence for one `(stage, alternative)` cell.
#[derive(Debug, Clone, Default)]
struct Observed {
    usage: Usage,
    invocations: u64,
    sim_latency_ms: u64,
    wall_ms: u64,
    passed: u64,
    judged: u64,
    setup_usage: Usage,
    setup_ms: u64,
}

/// Accuracy prior when an alternative has observed usage but no judged
/// accuracy sample (e.g. evidence arrived only via [`CostEstimator::feed_trace`]).
fn accuracy_prior(alt: PhysicalAlt) -> f64 {
    match alt {
        PhysicalAlt::DirectLlm | PhysicalAlt::CachedLlm => 0.92,
        PhysicalAlt::LlmgcProgram => 0.88,
        PhysicalAlt::MlModel => 0.85,
        PhysicalAlt::CustomCode => 0.75,
    }
}

/// Evidence-fed cost estimator over `(stage, alternative)` cells.
#[derive(Debug, Clone, Default)]
pub struct CostEstimator {
    pricing: TokenPricing,
    observed: BTreeMap<(CurationStage, PhysicalAlt), Observed>,
}

impl CostEstimator {
    pub fn new() -> CostEstimator {
        CostEstimator { pricing: TokenPricing::default(), observed: BTreeMap::new() }
    }

    pub fn pricing(&self) -> &TokenPricing {
        &self.pricing
    }

    /// Book a calibration run (usage + latency + judged accuracy).
    pub fn record_sample(
        &mut self,
        stage: CurationStage,
        alt: PhysicalAlt,
        sample: &SampleMeasurement,
    ) {
        let cell = self.observed.entry((stage, alt)).or_default();
        cell.usage.merge(&sample.usage);
        cell.invocations += sample.total as u64;
        cell.sim_latency_ms += sample.sim_latency_ms;
        cell.wall_ms += sample.wall_ms;
        cell.passed += sample.passed as u64;
        cell.judged += sample.total as u64;
    }

    /// Book a one-time setup cost (LLMGC code generation, training labels).
    pub fn record_setup(
        &mut self,
        stage: CurationStage,
        alt: PhysicalAlt,
        usage: &Usage,
        elapsed_ms: u64,
    ) {
        let cell = self.observed.entry((stage, alt)).or_default();
        cell.setup_usage.merge(usage);
        cell.setup_ms += elapsed_ms;
    }

    /// Book raw usage with a known invocation count and latency (no accuracy
    /// judgment — the accuracy prior applies until a calibration run lands).
    pub fn record_usage(
        &mut self,
        stage: CurationStage,
        alt: PhysicalAlt,
        usage: &Usage,
        invocations: u64,
        latency_ms: u64,
    ) {
        let cell = self.observed.entry((stage, alt)).or_default();
        cell.usage.merge(usage);
        cell.invocations += invocations;
        cell.sim_latency_ms += latency_ms;
    }

    /// Ingest production trace events: every `Op` span's usage rollup is
    /// attributed to a `(stage, alternative)` cell via the executor's
    /// `module_kind` attribute (`llm` → direct, `llmgc` → generated program,
    /// `custom` → custom code; `decorated` splits on the [`CACHE_SUFFIX`]
    /// naming convention into cached-LLM vs model). Returns how many spans
    /// were attributed. Traces carry no wall-clock latency (the tracer's
    /// clock is logical), so this feed sharpens $ estimates only.
    pub fn feed_trace(&mut self, events: &[TraceEvent]) -> usize {
        let Ok(tree) = TraceTree::build(events) else { return 0 };
        let mut attributed = 0usize;
        for span in tree.spans_of_kind(SpanKind::Op) {
            let Some(kind) = span.attrs.get("module_kind") else { continue };
            let module = span.attrs.get("module").map(String::as_str).unwrap_or("");
            let alt = match kind.as_str() {
                "llm" => PhysicalAlt::DirectLlm,
                "llmgc" => PhysicalAlt::LlmgcProgram,
                "custom" => PhysicalAlt::CustomCode,
                "decorated" if module.ends_with(CACHE_SUFFIX) => PhysicalAlt::CachedLlm,
                "decorated" => PhysicalAlt::MlModel,
                _ => continue,
            };
            let stage = LogicalOp::new(span.name.clone()).stage();
            self.record_usage(stage, alt, &span.rollup(), 1, 0);
            attributed += 1;
        }
        attributed
    }

    /// Observed invocation count for a cell (0 when never seen).
    pub fn samples(&self, stage: CurationStage, alt: PhysicalAlt) -> u64 {
        self.observed.get(&(stage, alt)).map(|cell| cell.invocations).unwrap_or(0)
    }

    /// Estimate a cell from observed evidence.
    ///
    /// Exception: an unobserved `CachedLlm` whose `DirectLlm` sibling *is*
    /// observed derives from it — the cache is the same module plus a memo,
    /// so its marginal cost is the direct cost scaled by the dataset's cache
    /// miss rate (`1 − duplicate_rate`). Everything else unobserved returns
    /// [`PlanError::InsufficientStats`].
    pub fn estimate(
        &self,
        stage: CurationStage,
        alt: PhysicalAlt,
        stats: &DatasetStats,
    ) -> Result<CostEstimate, PlanError> {
        if let Some(cell) = self.observed.get(&(stage, alt)) {
            if cell.invocations > 0 {
                return Ok(self.observed_estimate(alt, cell));
            }
        }
        if alt == PhysicalAlt::CachedLlm {
            if let Some(direct) = self.observed.get(&(stage, PhysicalAlt::DirectLlm)) {
                if direct.invocations > 0 {
                    let base = self.observed_estimate(PhysicalAlt::DirectLlm, direct);
                    let miss_rate = 1.0 - stats.duplicate_rate();
                    return Ok(CostEstimate {
                        usd_per_record: base.usd_per_record * miss_rate,
                        ms_per_record: base.ms_per_record * miss_rate,
                        setup_usd: 0.0,
                        setup_ms: 0.0,
                        accuracy: base.accuracy,
                    });
                }
            }
        }
        Err(PlanError::InsufficientStats { stage, alternative: alt })
    }

    fn observed_estimate(&self, alt: PhysicalAlt, cell: &Observed) -> CostEstimate {
        let invocations = cell.invocations as f64;
        CostEstimate {
            usd_per_record: cell.usage.cost_usd(&self.pricing) / invocations,
            ms_per_record: (cell.sim_latency_ms + cell.wall_ms) as f64 / invocations,
            setup_usd: cell.setup_usage.cost_usd(&self.pricing),
            setup_ms: cell.setup_ms as f64,
            accuracy: if cell.judged > 0 {
                cell.passed as f64 / cell.judged as f64
            } else {
                accuracy_prior(alt)
            },
        }
    }

    /// Prior-only estimate for the default-ranking fallback: derived from
    /// dataset shape and published pricing, never from observations. Marked
    /// `fallback` in the resulting plan so the audit layer can tell prior
    /// guesses from evidence.
    pub fn prior_estimate(&self, alt: PhysicalAlt, stats: &DatasetStats) -> CostEstimate {
        // A pair/record prompt: instruction preamble plus the record text
        // (twice, for pair-shaped ops), answered tersely.
        let prompt_tokens = 64.0 + 2.0 * stats.avg_record_tokens();
        let call_usd = prompt_tokens / 1000.0 * self.pricing.input_per_1k
            + 8.0 / 1000.0 * self.pricing.output_per_1k;
        match alt {
            PhysicalAlt::DirectLlm => CostEstimate {
                usd_per_record: call_usd,
                ms_per_record: 350.0,
                setup_usd: 0.0,
                setup_ms: 0.0,
                accuracy: accuracy_prior(alt),
            },
            PhysicalAlt::CachedLlm => {
                let miss_rate = 1.0 - stats.duplicate_rate();
                CostEstimate {
                    usd_per_record: call_usd * miss_rate,
                    ms_per_record: 350.0 * miss_rate,
                    setup_usd: 0.0,
                    setup_ms: 0.0,
                    accuracy: accuracy_prior(alt),
                }
            }
            PhysicalAlt::LlmgcProgram => CostEstimate {
                usd_per_record: 0.0,
                ms_per_record: 1.0,
                // One code-generation round trip.
                setup_usd: 256.0 / 1000.0 * self.pricing.input_per_1k
                    + 96.0 / 1000.0 * self.pricing.output_per_1k,
                setup_ms: 350.0,
                accuracy: accuracy_prior(alt),
            },
            PhysicalAlt::MlModel => CostEstimate {
                usd_per_record: 0.0,
                ms_per_record: 0.5,
                setup_usd: 0.0,
                setup_ms: 0.0,
                accuracy: accuracy_prior(alt),
            },
            PhysicalAlt::CustomCode => CostEstimate {
                usd_per_record: 0.0,
                ms_per_record: 0.1,
                setup_usd: 0.0,
                setup_ms: 0.0,
                accuracy: accuracy_prior(alt),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_trace::ring_tracer;

    fn stats() -> DatasetStats {
        use lingua_dataset::{Record, Schema, Table, Value};
        let schema = Schema::of_names(["name", "city"]);
        let row = |name: &str, city: &str| {
            Record::new(vec![Value::Str(name.into()), Value::Str(city.into())])
        };
        let rows = vec![
            row("pale ale", "austin"),
            row("pale ale", "austin"),
            row("stout", "boston"),
            row("lager", "denver"),
        ];
        DatasetStats::from_table(&Table::with_rows("beers", schema, rows).unwrap())
    }

    fn sample(total: usize, passed: usize, tokens_in: u64, sim_ms: u64) -> SampleMeasurement {
        let usage = Usage {
            calls: total as u64,
            tokens_in,
            tokens_out: 10 * total as u64,
            ..Usage::default()
        };
        SampleMeasurement { total, passed, errors: 0, usage, sim_latency_ms: sim_ms, wall_ms: 0 }
    }

    #[test]
    fn unobserved_cells_are_typed_errors_not_defaults() {
        let estimator = CostEstimator::new();
        let err = estimator
            .estimate(CurationStage::Match, PhysicalAlt::LlmgcProgram, &stats())
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::InsufficientStats {
                stage: CurationStage::Match,
                alternative: PhysicalAlt::LlmgcProgram,
            }
        );
        assert!(err.to_string().contains("llmgc_program"));
        assert!(err.to_string().contains("match"));
    }

    #[test]
    fn samples_turn_into_per_record_estimates() {
        let mut estimator = CostEstimator::new();
        estimator.record_sample(
            CurationStage::Match,
            PhysicalAlt::DirectLlm,
            &sample(10, 9, 2000, 3500),
        );
        let est =
            estimator.estimate(CurationStage::Match, PhysicalAlt::DirectLlm, &stats()).unwrap();
        // 2000 in + 100 out tokens over 10 invocations at default pricing.
        let expected_usd = (2.0 * 0.0015 + 0.1 * 0.002) / 10.0;
        assert!((est.usd_per_record - expected_usd).abs() < 1e-12);
        assert!((est.ms_per_record - 350.0).abs() < 1e-9);
        assert!((est.accuracy - 0.9).abs() < 1e-12);
        assert_eq!(estimator.samples(CurationStage::Match, PhysicalAlt::DirectLlm), 10);
        // Setup booking lands in the same cell.
        let mut setup = Usage::default();
        setup.record(1000, 0);
        estimator.record_setup(CurationStage::Match, PhysicalAlt::DirectLlm, &setup, 42);
        let est =
            estimator.estimate(CurationStage::Match, PhysicalAlt::DirectLlm, &stats()).unwrap();
        assert!((est.setup_usd - 0.0015).abs() < 1e-12);
        assert!((est.setup_ms - 42.0).abs() < 1e-12);
    }

    #[test]
    fn cached_llm_derives_from_direct_and_duplicate_rate() {
        let mut estimator = CostEstimator::new();
        estimator.record_sample(
            CurationStage::Match,
            PhysicalAlt::DirectLlm,
            &sample(10, 9, 2000, 3500),
        );
        let stats = stats(); // 4 rows, 3 distinct -> duplicate_rate 0.25
        assert!((stats.duplicate_rate() - 0.25).abs() < 1e-12);
        let direct =
            estimator.estimate(CurationStage::Match, PhysicalAlt::DirectLlm, &stats).unwrap();
        let cached =
            estimator.estimate(CurationStage::Match, PhysicalAlt::CachedLlm, &stats).unwrap();
        assert!((cached.usd_per_record - direct.usd_per_record * 0.75).abs() < 1e-12);
        assert!((cached.ms_per_record - direct.ms_per_record * 0.75).abs() < 1e-9);
        assert_eq!(cached.accuracy, direct.accuracy);
    }

    #[test]
    fn trace_feed_attributes_op_spans_by_module_kind() {
        let (tracer, sink) = ring_tracer(64);
        {
            let mut op = tracer.span(SpanKind::Op, "entity_resolution");
            op.attr("module", "entity_resolution");
            op.attr("module_kind", "llm");
            let mut llm = tracer.span(SpanKind::LlmCall, "llm");
            let mut usage = Usage::default();
            usage.record(120, 8);
            llm.set_usage(usage);
            drop(llm);
            drop(op);
            let mut op = tracer.span(SpanKind::Op, "entity_resolution");
            op.attr("module", "entity_resolution+cache");
            op.attr("module_kind", "decorated");
            drop(op);
            let mut op = tracer.span(SpanKind::Op, "extract_tags");
            op.attr("module", "extract_tags");
            op.attr("module_kind", "custom");
            drop(op);
        }
        let mut estimator = CostEstimator::new();
        let attributed = estimator.feed_trace(&sink.events());
        assert_eq!(attributed, 3);
        assert_eq!(estimator.samples(CurationStage::Match, PhysicalAlt::DirectLlm), 1);
        assert_eq!(estimator.samples(CurationStage::Match, PhysicalAlt::CachedLlm), 1);
        assert_eq!(estimator.samples(CurationStage::Extract, PhysicalAlt::CustomCode), 1);
        // The direct-LLM cell carries the rolled-up token usage; accuracy
        // falls back to the prior because traces carry no judgments.
        let est =
            estimator.estimate(CurationStage::Match, PhysicalAlt::DirectLlm, &stats()).unwrap();
        assert!((est.usd_per_record - (0.12 * 0.0015 + 0.008 * 0.002)).abs() < 1e-12);
        assert!((est.accuracy - 0.92).abs() < 1e-12);
    }

    #[test]
    fn priors_follow_the_paper_ranking_character() {
        let estimator = CostEstimator::new();
        let stats = stats();
        let llm = estimator.prior_estimate(PhysicalAlt::DirectLlm, &stats);
        let cached = estimator.prior_estimate(PhysicalAlt::CachedLlm, &stats);
        let llmgc = estimator.prior_estimate(PhysicalAlt::LlmgcProgram, &stats);
        let custom = estimator.prior_estimate(PhysicalAlt::CustomCode, &stats);
        assert!(llm.usd_per_record > cached.usd_per_record);
        assert!(cached.usd_per_record > llmgc.usd_per_record);
        assert!(llmgc.setup_usd > 0.0, "code generation is billed");
        assert_eq!(custom.usd_per_record, 0.0);
        assert!(llm.accuracy > llmgc.accuracy && llmgc.accuracy > custom.accuracy);
    }

    #[test]
    fn objectives_weigh_the_score() {
        let est = CostEstimate {
            usd_per_record: 0.002,
            ms_per_record: 350.0,
            setup_usd: 0.5,
            setup_ms: 100.0,
            accuracy: 0.9,
        };
        assert!((est.total_usd(100.0) - 0.7).abs() < 1e-12);
        assert!((est.total_ms(100.0) - 35100.0).abs() < 1e-9);
        let cheap = est.score(&Objective::cheapest_dollars(), 100.0);
        let fast = est.score(&Objective::lowest_latency(), 100.0);
        assert!(fast > cheap, "this op is latency-heavy");
        let floored = Objective::cheapest_dollars().with_floor(0.95);
        assert!((floored.accuracy_floor - 0.95).abs() < 1e-12);
        assert_eq!(floored.name, "cheap_$");
    }
}
