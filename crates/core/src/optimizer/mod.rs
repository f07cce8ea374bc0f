//! The Lingua Manga optimizer (§3.2): modular, user-composable enhancements.
//!
//! * [`Validator`] — the test-case-driven repair loop for LLMGC modules.
//! * [`Simulated`] — the teacher-student simulator that replaces expensive
//!   LLM calls with a supervised student.
//! * [`TabularConnector`] / [`TextConnector`] — privacy- and cost-aware data
//!   access mediation between local data and the LLM.

mod connector;
mod simulator;
mod validator;

pub use connector::{ExposureMeter, TabularConnector, TextConnector};
pub use simulator::{Simulated, SimulatorConfig, SimulatorStats, StudentKind};
pub use validator::{TestCase, ValidationOutcome, ValidationReport, Validator};
