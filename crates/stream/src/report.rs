//! Window match reports.

use crate::window::WindowId;
use lingua_durable::WindowReportRecord;
use lingua_llm_sim::Usage;

/// The per-window result emitted when a window closes.
#[derive(Debug, Clone)]
pub struct WindowReport {
    pub window: WindowId,
    /// Event-time range `[start, end)` the window covered.
    pub start: u64,
    pub end: u64,
    /// Records the window held when it closed.
    pub records: usize,
    /// Candidate pairs the window-scoped blocking index surfaced.
    pub candidate_pairs: usize,
    /// Blocking probes performed building those candidates.
    pub comparisons: u64,
    /// Candidate pairs judged by the matcher.
    pub judged: u64,
    /// Pairs the matcher called duplicates.
    pub matched: u64,
    /// Ground-truth duplicate pairs in the window (hidden-entity oracle).
    pub true_duplicates: usize,
    /// LLM usage billed by the window job that judged the candidates.
    pub llm: Usage,
}

impl From<WindowReportRecord> for WindowReport {
    fn from(record: WindowReportRecord) -> WindowReport {
        WindowReport {
            window: WindowId(record.window),
            start: record.start,
            end: record.end,
            records: record.records,
            candidate_pairs: record.candidate_pairs,
            comparisons: record.comparisons,
            judged: record.judged,
            matched: record.matched,
            true_duplicates: record.true_duplicates,
            llm: record.llm,
        }
    }
}

impl WindowReport {
    /// One line per window for demos and logs.
    pub fn summary(&self) -> String {
        format!(
            "window {:>4} [{:>6}, {:>6})  records {:>3}  candidates {:>4}  \
             matched {:>3}/{:<3} (truth {:>3})  ${:.4}",
            self.window.0,
            self.start,
            self.end,
            self.records,
            self.candidate_pairs,
            self.matched,
            self.judged,
            self.true_duplicates,
            self.llm.cost_usd(&Default::default()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_the_essentials() {
        let mut llm = Usage::default();
        llm.record(1000, 10);
        let report = WindowReport {
            window: WindowId(7),
            start: 224,
            end: 288,
            records: 31,
            candidate_pairs: 12,
            comparisons: 12,
            judged: 12,
            matched: 9,
            true_duplicates: 10,
            llm,
        };
        let line = report.summary();
        assert!(line.contains("window"));
        assert!(line.contains("matched"));
        assert!(line.contains('9'));
        assert!(line.contains("truth"));
    }
}
