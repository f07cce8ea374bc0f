//! # lingua-core — the Lingua Manga system
//!
//! A from-scratch Rust implementation of the system described in *"Lingua
//! Manga: A Generic Large Language Model Centric System for Data Curation"*
//! (VLDB 2023): a workflow system where users compose pipelines of **logical
//! operators**, a **compiler** binds each operator to a physical **module**,
//! and an **optimizer** improves the modules with LLM-driven validation,
//! teacher-student simulation, and privacy-preserving connectors.
//!
//! ## The module taxonomy (§3.1 of the paper)
//!
//! * [`modules::CustomModule`] — hand-written code (plain Rust closures).
//! * [`modules::LlmModule`] — the LLM itself as a module: a prompt builder
//!   plus an output validator that absorbs the LLM's format instability.
//! * [`modules::LlmgcModule`] — *LLM-generated code*: the LLM emits a real
//!   MangaScript program which runs in an interpreter with a host bridge
//!   (`call_llm` / `call_module` / `call_tool`).
//! * Decorated modules — a module wrapped with optimizer enhancements:
//!   [`optimizer::Simulated`] reports [`ModuleKind::Decorated`].
//!
//! ## The optimizer (§3.2)
//!
//! * [`optimizer::Validator`] — runs a module on example test cases, feeds
//!   real failures back to the LLM for suggestions and regenerated code,
//!   bounded by cycle/regeneration budgets.
//! * [`optimizer::Simulated`] — the teacher-student simulator: records live
//!   (input, output) traffic, trains an `lingua-ml` student, and takes over
//!   from the expensive LLM teacher once accurate and confident.
//! * [`optimizer::TabularConnector`] / [`optimizer::TextConnector`] — confine
//!   the LLM to user-approved local queries / top-k relevant chunks and meter
//!   the exposed data.
//!
//! ## Quick start
//!
//! ```no_run
//! use lingua_core::prelude::*;
//! use lingua_llm_sim::SimLlm;
//! use lingua_dataset::world::WorldSpec;
//! use std::sync::Arc;
//!
//! let world = WorldSpec::generate(1);
//! let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 1));
//! let pipeline = Pipeline::parse(r#"
//!     pipeline quickstart {
//!         records = load_csv() with { path: "beers.csv" };
//!         out = entity_resolution(records) using llm with {
//!             desc: "Determine if the two records refer to the same entity";
//!         };
//!         save_csv(out) with { path: "matches.csv" };
//!     }
//! "#).unwrap();
//! let compiler = Compiler::with_builtins();
//! let mut ctx = ExecContext::new(llm);
//! let physical = compiler.compile(&pipeline, &mut ctx).unwrap();
//! ```

mod compiler;
mod context;
pub mod data;
mod dsl;
mod error;
pub mod executor;
pub mod modules;
pub mod optimizer;
pub mod pipeline;
mod stats;
pub mod templates;
pub mod tools;
pub mod validation;

pub use compiler::{Compiler, PhysicalPipeline};
pub use context::{ContextFactory, ExecContext};
pub use data::Data;
pub use error::{CoreError, TrapKind};
pub use executor::Executor;
pub use modules::{Module, ModuleKind};
pub use pipeline::{LogicalOp, Pipeline};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::compiler::{Compiler, PhysicalPipeline};
    pub use crate::context::{ContextFactory, ExecContext};
    pub use crate::data::Data;
    pub use crate::error::CoreError;
    pub use crate::executor::Executor;
    pub use crate::modules::{Module, ModuleKind};
    pub use crate::pipeline::{LogicalOp, Pipeline};
    pub use crate::validation::OutputValidator;
}
