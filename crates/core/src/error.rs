//! The crate-wide error type.

use lingua_llm_sim::{CancelReason, NoAnswer};
use std::fmt;

/// The runtime traps a supervised script execution can hit. Each kind is a
/// *bounded-resource* stop — distinct from a bug in the program — and serve
/// counts them separately in its metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// The program exhausted its own fuel budget (a runaway loop).
    OutOfFuel,
    /// The program exceeded the interpreter's call-depth limit (runaway
    /// recursion, stopped before it can overflow the host thread's stack —
    /// a stack overflow aborts the process and cannot be caught).
    Recursion,
    /// The program ran out of fuel because the *job's deadline* cut the
    /// budget below the program's own allowance — the job was too slow, not
    /// the program too hungry.
    DeadlineFuel,
}

impl TrapKind {
    /// Stable lowercase label (used in trace attributes and reports).
    pub fn label(&self) -> &'static str {
        match self {
            TrapKind::OutOfFuel => "out_of_fuel",
            TrapKind::Recursion => "recursion",
            TrapKind::DeadlineFuel => "deadline_fuel",
        }
    }
}

/// Errors from compiling or executing pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The textual DSL failed to parse.
    Dsl { line: usize, message: String },
    /// A logical operator could not be bound to any physical module.
    Compile(String),
    /// A module failed at execution time.
    Module { module: String, message: String },
    /// A referenced pipeline variable is missing.
    UnknownVariable(String),
    /// Input data had the wrong shape for a module.
    DataShape { expected: &'static str, got: String },
    /// The connector rejected a query outside the allowlist.
    ConnectorDenied(String),
    /// Data-layer error (CSV, query engine, schema).
    Data(String),
    /// Script-layer error from an LLMGC module.
    Script(String),
    /// Validation gave up after exhausting its budgets.
    ValidationExhausted { module: String, cycles: usize, regenerations: usize },
    /// A module holds state that cannot be replicated for concurrent serving
    /// (see `Module::fresh_instance`).
    NotReplicable { module: String },
    /// Execution stopped cooperatively: the job's deadline passed or it was
    /// cancelled. Carries whatever the run produced so far only in the form
    /// of already-metered usage — the data output is discarded.
    Cancelled { reason: CancelReason },
    /// The LLM gave no answer for a live job — the gateway withheld it, or
    /// its batch flush aborted. (A dead job's refused call is `Cancelled`.)
    NoAnswer(NoAnswer),
    /// A script execution hit a bounded-resource trap (see [`TrapKind`]).
    Trap { module: String, trap: TrapKind },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Dsl { line, message } => write!(f, "DSL error at line {line}: {message}"),
            CoreError::Compile(message) => write!(f, "compile error: {message}"),
            CoreError::Module { module, message } => {
                write!(f, "module `{module}` failed: {message}")
            }
            CoreError::UnknownVariable(name) => write!(f, "unknown pipeline variable `{name}`"),
            CoreError::DataShape { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            CoreError::ConnectorDenied(query) => {
                write!(f, "connector denied query outside allowlist: {query}")
            }
            CoreError::Data(message) => write!(f, "data error: {message}"),
            CoreError::Script(message) => write!(f, "script error: {message}"),
            CoreError::ValidationExhausted { module, cycles, regenerations } => write!(
                f,
                "validation of `{module}` exhausted {cycles} cycle(s) and {regenerations} regeneration(s)"
            ),
            CoreError::NotReplicable { module } => write!(
                f,
                "module `{module}` holds state that cannot be replicated for concurrent \
                 serving; build it with `CustomModule::stateless` (or another replicable \
                 module class) to serve it from a worker pool"
            ),
            CoreError::Cancelled { reason } => {
                write!(f, "execution cancelled: {}", reason.label())
            }
            CoreError::NoAnswer(no_answer) => write!(f, "no LLM answer: {no_answer}"),
            CoreError::Trap { module, trap } => {
                write!(f, "module `{module}` trapped: {}", trap.label())
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<NoAnswer> for CoreError {
    fn from(no_answer: NoAnswer) -> Self {
        match no_answer {
            NoAnswer::Cancelled(reason) => CoreError::Cancelled { reason },
            other => CoreError::NoAnswer(other),
        }
    }
}

impl From<lingua_dataset::DataError> for CoreError {
    fn from(err: lingua_dataset::DataError) -> Self {
        CoreError::Data(err.to_string())
    }
}

impl From<lingua_script::ScriptError> for CoreError {
    fn from(err: lingua_script::ScriptError) -> Self {
        CoreError::Script(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = CoreError::Module { module: "tagger".into(), message: "boom".into() };
        assert!(err.to_string().contains("tagger"));
        let err =
            CoreError::ValidationExhausted { module: "np".into(), cycles: 3, regenerations: 2 };
        assert!(err.to_string().contains('3'));
    }

    #[test]
    fn conversions_from_layers() {
        let err: CoreError = lingua_dataset::DataError::UnknownColumn("x".into()).into();
        assert!(matches!(err, CoreError::Data(_)));
        let err: CoreError = lingua_script::ScriptError::OutOfFuel.into();
        assert!(matches!(err, CoreError::Script(_)));
        let err: CoreError = NoAnswer::Cancelled(CancelReason::DeadlineExceeded).into();
        assert_eq!(err, CoreError::Cancelled { reason: CancelReason::DeadlineExceeded });
        let err: CoreError = NoAnswer::Unavailable.into();
        assert_eq!(err, CoreError::NoAnswer(NoAnswer::Unavailable));
    }
}
