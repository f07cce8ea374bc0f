//! Streaming-engine errors.

use lingua_serve::ServeError;
use std::fmt;

/// Everything that can go wrong starting or driving a [`crate::StreamEngine`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The serving substrate rejected a configuration or a job.
    Serve(ServeError),
    /// `window == 0` event-time ticks — no record could ever land in a
    /// window, so the stream would ingest forever and emit nothing.
    ZeroWindow,
    /// `slide == 0` — window assignment divides event time by the slide,
    /// and a zero slide would put every record in unboundedly many windows.
    ZeroSlide,
    /// The slide is wider than the window, leaving event-time gaps that
    /// silently drop every record falling between windows.
    SlideExceedsWindow { slide: u64, window: u64 },
    /// `watermark_interval == 0` — the watermark would never advance, so no
    /// window would ever close.
    ZeroWatermarkInterval,
    /// The configured blocking-key column is not in the stream schema.
    UnknownKeyColumn { column: String },
    /// Backpressure retry budget exhausted: the serve queue stayed full
    /// through every jittered retry. Distinct from a raw
    /// [`ServeError::Full`] (one rejected submission): this is the engine
    /// reporting that backoff did not help — the source must slow down or
    /// the pool must grow. `attempts` is how many retries were burned.
    Saturated { attempts: u32 },
    /// A window's report lacks a verdict: its job returned fewer than the
    /// pairs it asked about, or a pair it carries has no verdict from the
    /// earlier window that owns it (a journal from another tuning).
    MissingVerdict { window: u64 },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Serve(inner) => write!(f, "stream serving error: {inner}"),
            StreamError::ZeroWindow => {
                write!(f, "stream window must be > 0 ticks (no record could land in a window)")
            }
            StreamError::ZeroSlide => {
                write!(f, "stream slide must be > 0 ticks (window assignment would not terminate)")
            }
            StreamError::SlideExceedsWindow { slide, window } => {
                write!(
                    f,
                    "stream slide ({slide} ticks) exceeds the window ({window} ticks); \
                     records falling in the gaps would be dropped silently"
                )
            }
            StreamError::ZeroWatermarkInterval => {
                write!(f, "stream watermark_interval must be > 0 (no window would ever close)")
            }
            StreamError::UnknownKeyColumn { column } => {
                write!(f, "blocking key column {column:?} is not in the stream schema")
            }
            StreamError::Saturated { attempts } => {
                write!(
                    f,
                    "serve queue stayed saturated through {attempts} backpressure \
                     retries; slow the source or grow the worker pool"
                )
            }
            StreamError::MissingVerdict { window } => {
                write!(f, "window {window} has a candidate pair without a verdict")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Serve(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<ServeError> for StreamError {
    fn from(err: ServeError) -> StreamError {
        StreamError::Serve(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let err = StreamError::UnknownKeyColumn { column: "color".into() };
        assert!(err.to_string().contains("color"));
        let err: StreamError = ServeError::UnknownPipeline("report".into()).into();
        assert!(err.to_string().contains("report"));
        let err = StreamError::Saturated { attempts: 37 };
        assert!(err.to_string().contains("37"), "carries the retry count: {err}");
    }
}
