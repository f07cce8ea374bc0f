//! # lingua-stream — windowed, incremental streaming curation
//!
//! The batch system answers "curate this table"; this crate answers "curate
//! this *stream*" — records arrive forever, slightly out of order, and the
//! corpus never fits in one pass. Three ideas make that tractable:
//!
//! 1. **Windows bound the work.** Records are assigned to sliding or
//!    tumbling event-time windows ([`windows_for`]); all curation state is
//!    window-scoped, so per-record cost is O(window occupancy), never
//!    O(stream history). The blocking index that finds duplicate candidates
//!    lives and dies with its window ([`InsertOutcome`]).
//! 2. **Watermarks bound the waiting.** A monotone watermark trails the
//!    event-time frontier by a configured lateness allowance; when it passes
//!    a window's end, the window closes *exactly once* and its results are
//!    final. Records arriving after all their windows closed are counted
//!    late and dropped — visibly, in the metrics.
//! 3. **The serving substrate does the heavy lifting.** Window-close work is
//!    submitted as jobs to `lingua-serve` (panic isolation, deadlines,
//!    dedup, result cache); LLM judgments ride whatever service — gateway,
//!    meter, sim — the context factory provides; windows are cross-thread
//!    `stream_window` trace spans ([`lingua_trace`]).
//!
//! Everything is deterministic under a seed: the synthetic source
//! ([`SyntheticSource`]), window assignment, watermark advancement, and the simulated
//! matcher all replay identically, which is what lets the property and
//! sustained-load suites assert conservation laws exactly.
//!
//! ```no_run
//! use lingua_core::ContextFactory;
//! use lingua_llm_sim::{SimLlm, SimLlmConfig};
//! use lingua_dataset::world::WorldSpec;
//! use lingua_stream::{StreamConfig, StreamEngine, StreamSource, SyntheticSource};
//! use std::sync::Arc;
//!
//! let world = WorldSpec::generate(7);
//! let llm = Arc::new(SimLlm::new(&world, SimLlmConfig::default()));
//! let mut source = SyntheticSource::with_seed(7);
//! let schema = source.schema().clone();
//! let mut engine = StreamEngine::start(
//!     ContextFactory::new(llm), schema, StreamConfig::default(),
//! ).unwrap();
//! for item in source.take_records(1000) {
//!     engine.ingest(item).unwrap();
//! }
//! for report in engine.finish().unwrap() {
//!     println!("{}", report.summary());
//! }
//! println!("{}", engine.metrics().report());
//! ```

mod carry;
mod engine;
mod error;
mod incremental;
mod metrics;
mod report;
mod source;
mod window;

pub use engine::{StreamConfig, StreamEngine, WINDOW_PIPELINE};
pub use error::StreamError;
pub use incremental::InsertOutcome;
pub use metrics::StreamSnapshot;
pub use report::WindowReport;
pub use source::{StreamSource, SyntheticSource};
pub use window::{closed_through, windows_for, StreamTuning, Watermark, WindowId};

// Stream items come from the dataset generator; re-export them so engine
// users need only this crate.
pub use lingua_dataset::generators::stream::{StreamItem, StreamSpec};
