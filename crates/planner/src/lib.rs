//! # lingua-plan — Volcano-style cost-based pipeline planning
//!
//! The paper's optimizer (Validator / Simulator / Connector, §3.2) improves
//! one module at a time. This crate generalizes it into a *planner* that
//! decides how the whole pipeline runs, the way a relational optimizer picks
//! physical operators for a logical query:
//!
//! * **Logical algebra** — every [`lingua_core::LogicalOp`] classifies into a
//!   [`lingua_core::CurationStage`] (Extract, Match, Impute, Filter, Join, or
//!   pass-through Transform).
//! * **Physical alternatives** — each curation op can compile to a
//!   [`PhysicalAlt`]: a direct LLM call, an LLM-generated program
//!   (LLMGC), registered custom code, a memoized cache over the LLM
//!   ([`MemoModule`]), or a supervised `lingua-ml` model
//!   ([`MlPairModule`], the SEED-style distilled student).
//! * **Cost model** — a [`CostEstimator`] turns *observed* evidence
//!   into per-record $ and latency estimates plus accuracy priors: Validator
//!   sample runs ([`Calibrator`]) and dataset-shape statistics
//!   ([`lingua_core::DatasetStats`]: cardinality, null rate, token lengths,
//!   match selectivity). No samples → the typed
//!   [`PlanError::InsufficientStats`], never a silent default.
//! * **Plan enumeration** — [`Planner::plan`] minimizes
//!   `w_$ · $ + w_ms · ms` subject to a plan-level accuracy floor
//!   (`Π accuracy ≥ floor`), using memoized Volcano-style search over
//!   per-op-suffix Pareto frontiers ([`best_assignment`]); an
//!   exhaustive reference ([`exhaustive_assignment`]) backs the
//!   property tests.
//! * **Execution** — the winning plan compiles into the existing
//!   [`lingua_core::PhysicalPipeline`] ([`PlannedPipeline`]), which any
//!   consumer of a compiled pipeline takes unchanged, and records itself as a
//!   `SpanKind::Plan` span so [`audit_events`] can reconcile
//!   estimated vs actual $ per job.
//!
//! ## Quick start
//!
//! ```no_run
//! use lingua_core::prelude::*;
//! use lingua_plan::{Calibrator, Objective, Planner};
//! use lingua_trace::Tracer;
//!
//! # fn demo(compiler: Compiler, calibrator: Calibrator,
//! #         mut ctx: ExecContext, pipeline: Pipeline, stats: DatasetStats)
//! #         -> Result<(), Box<dyn std::error::Error>> {
//! let mut planner = Planner::new(compiler);
//! // Calibrate candidate implementations on a labeled sample...
//! // calibrator.calibrate(planner.estimator_mut(), stage, alt, &mut module, &mut ctx);
//! let plan = planner.plan(&pipeline, &stats, &Objective::cheapest_dollars(), &Tracer::disabled())?;
//! let planned = planner.compile(&plan, &mut ctx)?;
//! println!("{}", planned.plan.summary());
//! # Ok(())
//! # }
//! ```

mod audit;
mod calibrate;
mod cost;
mod physical;
mod pipeline;
mod plan;

pub use audit::{audit_events, OpAudit, PlanAudit};
pub use calibrate::Calibrator;
pub use cost::{CostEstimate, CostEstimator, Objective, PlanError};
pub use physical::{MemoModule, MlPairModule, PhysicalAlt};
pub use pipeline::PlannedPipeline;
pub use plan::{
    best_assignment, exhaustive_assignment, Candidate, Plan, PlannedOp, Planner, SearchOutcome,
};
