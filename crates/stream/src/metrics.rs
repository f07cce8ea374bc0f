//! Streaming metrics: lock-free counters with a point-in-time snapshot and
//! the conservation laws the test suites hold them to.
//!
//! Same discipline as the serve layer: every ingested record takes exactly
//! one path (assigned to ≥1 window, or dropped late), every opened window
//! either closed or is still open, and under quiescence the identities are
//! exact — `ingested == assigned_records + late_dropped` and
//! `windows_opened == windows_closed + windows_open`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free streaming counters (relaxed atomics; exact under quiescence).
#[derive(Debug, Default)]
pub(crate) struct StreamMetrics {
    pub(crate) ingested: AtomicU64,
    /// Records that landed in at least one open window.
    pub(crate) assigned_records: AtomicU64,
    /// Total window memberships (one record in 2 windows counts 2 here).
    pub(crate) assignments: AtomicU64,
    /// Memberships lost because the target window had already closed (the
    /// record itself still counts as assigned if any window took it).
    pub(crate) missed_assignments: AtomicU64,
    /// Records dropped entirely: every window they belonged to had closed.
    pub(crate) late_dropped: AtomicU64,
    pub(crate) windows_opened: AtomicU64,
    pub(crate) windows_closed: AtomicU64,
    /// Blocking-index probes (candidate comparisons generated).
    pub(crate) comparisons: AtomicU64,
    /// Candidate pairs judged in reported windows: asked by the window's
    /// job, or carried.
    pub(crate) pairs_judged: AtomicU64,
    pub(crate) pairs_matched: AtomicU64,
    /// Judged pairs whose verdict came from another ask: a remembered
    /// earlier window's, or the window's own ask of the same pair.
    pub(crate) pairs_carried: AtomicU64,
    /// Carried pairs whose owner is an earlier window that does not overlap
    /// the carrier: repeats the stream brought back, not shared pairs.
    pub(crate) pairs_far_carried: AtomicU64,
    /// Asked pairs whose answer failed validation twice (read as no match).
    pub(crate) pairs_unvalidated: AtomicU64,
    /// Watermark advances observed.
    pub(crate) watermark_advances: AtomicU64,
    /// Submissions that hit a full serve queue and had to retry.
    pub(crate) backpressure_stalls: AtomicU64,
    pub(crate) reports: AtomicU64,
    /// Event-time frontier (max event time seen) and current watermark.
    pub(crate) max_event_time: AtomicU64,
    pub(crate) watermark: AtomicU64,
}

impl StreamMetrics {
    pub(crate) fn new() -> StreamMetrics {
        StreamMetrics::default()
    }

    pub(crate) fn snapshot(&self) -> StreamSnapshot {
        let max_event_time = self.max_event_time.load(Ordering::Relaxed);
        let watermark = self.watermark.load(Ordering::Relaxed);
        let opened = self.windows_opened.load(Ordering::Relaxed);
        let closed = self.windows_closed.load(Ordering::Relaxed);
        StreamSnapshot {
            ingested: self.ingested.load(Ordering::Relaxed),
            assigned_records: self.assigned_records.load(Ordering::Relaxed),
            assignments: self.assignments.load(Ordering::Relaxed),
            missed_assignments: self.missed_assignments.load(Ordering::Relaxed),
            late_dropped: self.late_dropped.load(Ordering::Relaxed),
            windows_opened: opened,
            windows_closed: closed,
            windows_open: opened.saturating_sub(closed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            pairs_judged: self.pairs_judged.load(Ordering::Relaxed),
            pairs_matched: self.pairs_matched.load(Ordering::Relaxed),
            pairs_carried: self.pairs_carried.load(Ordering::Relaxed),
            pairs_far_carried: self.pairs_far_carried.load(Ordering::Relaxed),
            pairs_unvalidated: self.pairs_unvalidated.load(Ordering::Relaxed),
            watermark_advances: self.watermark_advances.load(Ordering::Relaxed),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::Relaxed),
            reports: self.reports.load(Ordering::Relaxed),
            max_event_time,
            watermark,
            watermark_lag: max_event_time.saturating_sub(watermark),
        }
    }
}

/// Point-in-time view of the engine's stream counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSnapshot {
    pub ingested: u64,
    pub assigned_records: u64,
    pub assignments: u64,
    pub missed_assignments: u64,
    pub late_dropped: u64,
    pub windows_opened: u64,
    pub windows_closed: u64,
    pub windows_open: u64,
    pub comparisons: u64,
    pub pairs_judged: u64,
    pub pairs_matched: u64,
    /// Judged pairs whose verdict was carried, not asked.
    pub pairs_carried: u64,
    /// Carried pairs whose owner does not overlap the carrier (a subset of
    /// `pairs_carried`).
    pub pairs_far_carried: u64,
    /// Asked pairs whose answer failed validation twice.
    pub pairs_unvalidated: u64,
    pub watermark_advances: u64,
    pub backpressure_stalls: u64,
    pub reports: u64,
    pub max_event_time: u64,
    pub watermark: u64,
    /// How far the watermark trails the event-time frontier.
    pub watermark_lag: u64,
}

impl StreamSnapshot {
    /// `ingested == assigned + late` — every record took exactly one path.
    pub fn record_conservation_holds(&self) -> bool {
        self.ingested == self.assigned_records + self.late_dropped
    }

    /// `opened == closed + open` — no window is lost or double-counted.
    pub fn window_conservation_holds(&self) -> bool {
        self.windows_opened == self.windows_closed + self.windows_open
    }

    /// One-line operator report.
    pub fn report(&self) -> String {
        format!(
            "ingested {} (assigned {}, late {}) | windows {}/{} closed ({} open) | \
             comparisons {} | judged {} (carried {}, unvalidated {}, far carried {}) matched {} | \
             watermark {} (lag {}) | stalls {}",
            self.ingested,
            self.assigned_records,
            self.late_dropped,
            self.windows_closed,
            self.windows_opened,
            self.windows_open,
            self.comparisons,
            self.pairs_judged,
            self.pairs_carried,
            self.pairs_unvalidated,
            self.pairs_far_carried,
            self.pairs_matched,
            self.watermark,
            self.watermark_lag,
            self.backpressure_stalls,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = StreamMetrics::new();
        m.ingested.fetch_add(5, Ordering::Relaxed);
        m.assigned_records.fetch_add(4, Ordering::Relaxed);
        m.late_dropped.fetch_add(1, Ordering::Relaxed);
        m.windows_opened.fetch_add(3, Ordering::Relaxed);
        m.windows_closed.fetch_add(2, Ordering::Relaxed);
        m.max_event_time.store(100, Ordering::Relaxed);
        m.watermark.store(92, Ordering::Relaxed);
        m.pairs_carried.store(3, Ordering::Relaxed);
        m.pairs_unvalidated.store(2, Ordering::Relaxed);
        m.pairs_far_carried.store(1, Ordering::Relaxed);
        let snap = m.snapshot();
        assert!(snap.record_conservation_holds());
        assert!(snap.window_conservation_holds());
        assert_eq!(snap.windows_open, 1);
        assert_eq!(snap.watermark_lag, 8);
        assert!(snap.report().contains("lag 8"));
        assert!(
            snap.report().contains("carried 3, unvalidated 2, far carried 1"),
            "{}",
            snap.report()
        );
    }

    #[test]
    fn broken_books_are_detected() {
        let m = StreamMetrics::new();
        m.ingested.fetch_add(2, Ordering::Relaxed);
        m.assigned_records.fetch_add(1, Ordering::Relaxed);
        assert!(!m.snapshot().record_conservation_holds());
    }
}
