//! Errors and source spans.

use std::fmt;

/// A byte range in the source text, with a 1-based line (and, when known, a
/// 1-based character column) for messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
    pub line: usize,
    /// 1-based character column of `start` on `line`; 0 when unknown (spans
    /// built before the lexer tracked columns, or synthesized ones).
    pub col: usize,
}

impl Span {
    pub fn new(start: usize, end: usize, line: usize) -> Span {
        Span { start, end, line, col: 0 }
    }

    /// [`Span::new`] with the starting column attached.
    pub(crate) fn with_col(start: usize, end: usize, line: usize, col: usize) -> Span {
        Span { start, end, line, col }
    }

    /// A span covering both inputs; line and column come from whichever
    /// starts first in the source.
    pub fn merge(self, other: Span) -> Span {
        let (line, col) = if (self.line, self.start) <= (other.line, other.start) {
            (self.line, self.col)
        } else {
            (other.line, other.col)
        };
        Span { start: self.start.min(other.start), end: self.end.max(other.end), line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}, col {}", self.line, self.col)
        } else {
            write!(f, "line {}", self.line)
        }
    }
}

/// Everything that can go wrong while lexing, parsing, or running a script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    Lex {
        span: Span,
        message: String,
    },
    Parse {
        span: Span,
        message: String,
    },
    /// A runtime error, e.g. a type error or unknown variable.
    Runtime {
        span: Span,
        message: String,
    },
    /// The fuel budget was exhausted — the Validator's "timeout".
    OutOfFuel,
    /// The call stack exceeded the interpreter's depth limit. Runaway
    /// recursion must trap *inside* the interpreter: letting it recurse on
    /// the host stack would abort the whole process with a stack overflow,
    /// which no supervisor can catch.
    RecursionLimit {
        depth: usize,
    },
    /// A host call (`call_llm` / `call_module` / `call_tool`) failed.
    Host {
        message: String,
    },
}

impl ScriptError {
    pub(crate) fn runtime(span: Span, message: impl Into<String>) -> ScriptError {
        ScriptError::Runtime { span, message: message.into() }
    }

    /// Short classification used by failure reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ScriptError::Lex { .. } => "lex",
            ScriptError::Parse { .. } => "parse",
            ScriptError::Runtime { .. } => "runtime",
            ScriptError::OutOfFuel => "timeout",
            ScriptError::RecursionLimit { .. } => "recursion",
            ScriptError::Host { .. } => "host",
        }
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Lex { span, message } => write!(f, "lex error at {span}: {message}"),
            ScriptError::Parse { span, message } => write!(f, "parse error at {span}: {message}"),
            ScriptError::Runtime { span, message } => {
                write!(f, "runtime error at {span}: {message}")
            }
            ScriptError::OutOfFuel => write!(f, "execution exceeded its fuel budget"),
            ScriptError::RecursionLimit { depth } => {
                write!(f, "call depth {depth} exceeded the recursion limit")
            }
            ScriptError::Host { message } => write!(f, "host call failed: {message}"),
        }
    }
}

impl std::error::Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(3, 7, 1);
        let b = Span::new(10, 14, 2);
        assert_eq!(a.merge(b), Span::new(3, 14, 1));
        assert_eq!(b.merge(a), Span::new(3, 14, 1));
    }

    #[test]
    fn error_display_includes_line() {
        let err = ScriptError::runtime(Span::new(0, 1, 12), "bad index");
        assert!(err.to_string().contains("line 12"));
        assert!(err.to_string().contains("bad index"));
        assert_eq!(err.kind(), "runtime");
        assert_eq!(ScriptError::OutOfFuel.kind(), "timeout");
    }

    #[test]
    fn error_display_includes_column_when_known() {
        let err = ScriptError::runtime(Span::with_col(0, 1, 12, 7), "bad index");
        assert!(err.to_string().contains("line 12, col 7"), "{err}");
        // Spans without a column keep the old line-only rendering.
        let bare = ScriptError::runtime(Span::new(0, 1, 12), "bad index");
        assert!(!bare.to_string().contains("col"), "{bare}");
    }

    #[test]
    fn merge_takes_line_and_column_from_the_earlier_span() {
        let a = Span::with_col(3, 7, 1, 4);
        let b = Span::with_col(10, 14, 2, 2);
        assert_eq!(a.merge(b), Span::with_col(3, 14, 1, 4));
        assert_eq!(b.merge(a), Span::with_col(3, 14, 1, 4));
    }
}
