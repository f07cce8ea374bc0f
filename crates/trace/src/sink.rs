//! Trace sinks: where emitted events go.
//!
//! The tracer is hot-path code, so the contract is deliberately minimal: a
//! sink receives owned events one at a time and must tolerate concurrent
//! callers. The bundled [`RingSink`] keeps the newest `capacity` events in a
//! bounded ring so long-running servers can leave tracing on without
//! unbounded growth; eviction is counted, never silent.

use crate::event::TraceEvent;
use crate::summary::TraceSummary;
use lingua_ml::sync::Mutex;
use std::collections::VecDeque;

/// Receives every emitted event. Implementations must be thread-safe.
pub trait TraceSink: Send + Sync {
    fn record(&self, event: TraceEvent);
    /// Events evicted or discarded by the sink (0 for lossless sinks).
    fn dropped(&self) -> u64 {
        0
    }
    /// Aggregate view of what the sink currently holds, if it keeps one.
    fn summary(&self) -> Option<TraceSummary> {
        None
    }
}

/// A sink that discards everything (useful to measure tracer overhead).
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: TraceEvent) {}
}

struct RingInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Bounded in-memory collector: keeps the newest `capacity` events.
pub struct RingSink {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingSink {
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner { events: VecDeque::new(), dropped: 0 }),
        }
    }

    /// Copy out the retained events, oldest first (seq order).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Discard everything retained (the dropped counter is kept).
    pub fn clear(&self) {
        self.inner.lock().events.clear();
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: TraceEvent) {
        let mut inner = self.inner.lock();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    fn summary(&self) -> Option<TraceSummary> {
        let inner = self.inner.lock();
        let mut summary = TraceSummary::from_events(inner.events.iter());
        summary.dropped = inner.dropped;
        Some(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, SpanKind};

    fn event(seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            span: seq,
            parent: None,
            thread: 0,
            phase: Phase::Instant,
            kind: SpanKind::Op,
            name: format!("e{seq}"),
            attrs: Vec::new(),
            usage: None,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let sink = RingSink::new(3);
        for seq in 0..5 {
            sink.record(event(seq));
        }
        let kept: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.len(), 3);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 2, "clearing does not forget evictions");
    }

    #[test]
    fn null_sink_drops_nothing_it_admits_nothing() {
        let sink = NullSink;
        sink.record(event(1));
        assert_eq!(sink.dropped(), 0);
        assert!(sink.summary().is_none());
    }
}
