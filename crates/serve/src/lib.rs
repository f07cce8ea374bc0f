//! # lingua-serve — embedded pipeline serving for Lingua Manga
//!
//! The paper presents Lingua Manga as an interactive curation *system*;
//! this crate is the production-shaped serving layer on top of the core:
//! compile a curation pipeline once, then serve many concurrent requests
//! against it from a worker pool.
//!
//! Architecture (see `DESIGN.md` §"Serving architecture"):
//!
//! ```text
//!  submit ──► admission control ──► bounded queue (high │ normal lane)
//!                │    │                       │
//!                │    └─ Full{capacity}       ▼
//!                │                      worker pool (N threads)
//!                ├─ result cache hit      │  per-worker pipeline instances
//!                │   (no execution)       │  per-job UsageMeter over the
//!                └─ in-flight dedup       │  shared LlmService
//!                    (attach to leader)   ▼
//!                                   completion cell ──► waiters + metrics
//! ```
//!
//! The pieces:
//!
//! * [`PipelineServer`] — worker pool + two-lane bounded queue. Submissions
//!   beyond capacity are rejected with [`ServeError::Full`]; queued jobs may
//!   carry a timeout.
//! * [`PipelineRegistry`] — compile once (paying any code-generation LLM
//!   calls once), replicate per worker via
//!   [`lingua_core::PhysicalPipeline::fresh_instance`].
//! * Request dedup — identical `(pipeline, input fingerprint)` submissions
//!   coalesce onto one in-flight execution, and completed results are served
//!   from a FIFO-bounded cache.
//! * [`Metrics`] / [`MetricsSnapshot`] — accepted/rejected/deduplicated
//!   counters, queue depth, p50/p95 latency, per-job LLM usage.
//! * Supervised execution (see `DESIGN.md` §"Supervised execution") — jobs
//!   run under `catch_unwind`, so a panicking pipeline fails *one job*
//!   ([`ServeError::Panicked`]) instead of the pool; a supervisor thread
//!   resurrects crashed workers within a restart budget; every job carries a
//!   [`lingua_llm_sim::CancelToken`] whose deadline flows through the
//!   executor, gateway, and script fuel cap ([`ServeError::DeadlineExceeded`],
//!   [`ServeError::Cancelled`]); and a watchdog flags stuck jobs in
//!   [`HealthSnapshot`].
//! * Durability (see `DESIGN.md` §"Durable execution & crash recovery") —
//!   with [`ServeConfig`]`::journal` set, every job lifecycle event is
//!   written ahead to a `lingua-durable` journal; `start()` replays the log
//!   (restoring finished results, the billed ledger, and pending jobs for
//!   [`PipelineServer::resume_recovered`]), and the replay is surfaced in
//!   [`MetricsSnapshot::recovery`].
//!
//! ## Quick start
//!
//! ```no_run
//! use lingua_core::{Compiler, ContextFactory, Data};
//! use lingua_dataset::world::WorldSpec;
//! use lingua_llm_sim::SimLlm;
//! use lingua_serve::{PipelineServer, ServeConfig, SubmitRequest};
//! use std::sync::Arc;
//!
//! let world = WorldSpec::generate(1);
//! let factory = ContextFactory::new(Arc::new(SimLlm::with_seed(&world, 1)));
//! let server = PipelineServer::start(factory, ServeConfig::default()).unwrap();
//! server.register_dsl(
//!     "summ",
//!     r#"pipeline summ {
//!         out = summarize(text) using llm with { desc: "summarize the following document" };
//!     }"#,
//!     &Compiler::with_builtins(),
//! ).unwrap();
//! let output = server
//!     .run(SubmitRequest::new("summ").input("text", Data::Str("some document".into())))
//!     .unwrap();
//! println!("{}", output.get("out").unwrap().render());
//! println!("{}", server.metrics().report());
//! ```

mod config;
mod error;
mod fingerprint;
mod job;
mod metrics;
mod queue;
mod registry;
mod server;
mod supervisor;

pub use error::{InvalidConfig, ServeError};
pub use fingerprint::fingerprint_inputs;
pub use job::{JobHandle, JobId, JobOutput, JobStatus};
pub use metrics::{HealthSnapshot, Metrics, MetricsSnapshot, TrapCounters};
pub use registry::PipelineRegistry;
pub use server::{BatchTuning, PipelineServer, Priority, ServeConfig, SubmitRequest};
pub use supervisor::EscapePanic;
