//! Event-time window arithmetic: which windows a timestamp belongs to, when
//! a window closes, and the monotone watermark that drives closing.
//!
//! Windows are indexed, not materialized: window `k` covers the half-open
//! event-time range `[k·slide, k·slide + len)`. With `slide == len` the
//! windows tile (tumbling); with `slide < len` they overlap and a timestamp
//! belongs to up to `⌈len / slide⌉` consecutive windows. Everything here is
//! integer arithmetic over ticks — no clocks, no floats — so the same record
//! sequence produces the same window assignments on every run.

use crate::error::StreamError;

/// Event-time knobs for the windows.
///
/// All quantities are in *event-time ticks* — the logical timestamps stamped
/// on stream records — not wall time, so a seeded replay closes the same
/// windows at the same points regardless of host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTuning {
    /// Window length in event-time ticks.
    pub window: u64,
    /// Slide between consecutive window starts; `slide == window` makes the
    /// windows tumbling, `slide < window` sliding (records land in
    /// `window / slide` windows). Must not exceed `window`.
    pub slide: u64,
    /// Ingests between watermark recomputations. `1` re-derives the
    /// watermark on every record; larger values batch the (cheap) window
    /// close scan.
    pub watermark_interval: u64,
}

impl Default for StreamTuning {
    fn default() -> Self {
        StreamTuning { window: 64, slide: 32, watermark_interval: 8 }
    }
}

impl StreamTuning {
    /// Reject knobs that would stall the stream: a window that never closes
    /// looks exactly like a slow stream from the outside, so a broken tuning
    /// fails at `start()`, typed, naming the knob.
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.window == 0 {
            return Err(StreamError::ZeroWindow);
        }
        if self.slide == 0 {
            return Err(StreamError::ZeroSlide);
        }
        if self.slide > self.window {
            return Err(StreamError::SlideExceedsWindow { slide: self.slide, window: self.window });
        }
        if self.watermark_interval == 0 {
            return Err(StreamError::ZeroWatermarkInterval);
        }
        Ok(())
    }
}

/// A window's index; window `k` covers `[k·slide, k·slide + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowId(pub u64);

impl WindowId {
    /// The half-open event-time range `[start, end)` this window covers.
    pub fn range(self, tuning: &StreamTuning) -> (u64, u64) {
        let start = self.0 * tuning.slide;
        (start, start + tuning.window)
    }

    /// Exclusive end of the window's range; the window closes once the
    /// watermark reaches it.
    pub fn end(self, tuning: &StreamTuning) -> u64 {
        self.0 * tuning.slide + tuning.window
    }
}

/// Every window index containing event time `t`, in ascending order.
///
/// `t ∈ window k` iff `k·slide ≤ t < k·slide + len`, which solves to the
/// inclusive index range returned here. The range is never empty: `t / slide`
/// always qualifies, so every timestamp belongs to at least one window —
/// there are no event-time gaps (validation rejects `slide > len`, which
/// would create them).
pub fn windows_for(tuning: &StreamTuning, t: u64) -> std::ops::RangeInclusive<u64> {
    debug_assert!(tuning.slide > 0 && tuning.slide <= tuning.window);
    let hi = t / tuning.slide;
    let lo = if t < tuning.window { 0 } else { (t - tuning.window) / tuning.slide + 1 };
    lo..=hi
}

/// Highest window index already closed at `watermark` (`None` when no window
/// has closed yet). Window `k` is closed iff its end `k·slide + len` is at
/// or below the watermark.
pub fn closed_through(tuning: &StreamTuning, watermark: u64) -> Option<u64> {
    if watermark < tuning.window {
        return None;
    }
    Some((watermark - tuning.window) / tuning.slide)
}

/// The monotone watermark: "no record with event time below this will be
/// accepted anymore". Candidates below the current value are ignored, so the
/// watermark never regresses — the property every close/late decision leans
/// on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Watermark {
    current: u64,
}

impl Watermark {
    pub fn new() -> Watermark {
        Watermark::default()
    }

    pub fn get(&self) -> u64 {
        self.current
    }

    /// Advance to `candidate` if it is ahead; returns true when the
    /// watermark moved.
    pub fn advance(&mut self, candidate: u64) -> bool {
        if candidate > self.current {
            self.current = candidate;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuning(window: u64, slide: u64) -> StreamTuning {
        StreamTuning { window, slide, watermark_interval: 1 }
    }

    /// Brute-force membership: the definition, checked directly.
    fn member(tuning: &StreamTuning, k: u64, t: u64) -> bool {
        let (start, end) = WindowId(k).range(tuning);
        start <= t && t < end
    }

    #[test]
    fn assignment_matches_brute_force() {
        for (window, slide) in [(8, 8), (8, 4), (12, 5), (64, 32), (7, 1), (1, 1)] {
            let tuning = tuning(window, slide);
            for t in 0..400u64 {
                let got: Vec<u64> = windows_for(&tuning, t).collect();
                let expect: Vec<u64> =
                    (0..=(t / slide + 2)).filter(|&k| member(&tuning, k, t)).collect();
                assert_eq!(got, expect, "window={window} slide={slide} t={t}");
                assert!(!got.is_empty(), "no event-time gaps");
            }
        }
    }

    #[test]
    fn tumbling_assigns_exactly_one_window() {
        let tuning = tuning(16, 16);
        for t in 0..200u64 {
            let ids: Vec<u64> = windows_for(&tuning, t).collect();
            assert_eq!(ids, vec![t / 16]);
        }
    }

    #[test]
    fn sliding_assigns_len_over_slide_windows() {
        let tuning = tuning(64, 32);
        // Past the warm-up prefix every timestamp sits in exactly 2 windows.
        for t in 64..500u64 {
            assert_eq!(windows_for(&tuning, t).count(), 2, "t={t}");
        }
    }

    #[test]
    fn closed_through_matches_range_ends() {
        for (window, slide) in [(8, 8), (8, 4), (12, 5), (64, 32)] {
            let tuning = tuning(window, slide);
            for wm in 0..300u64 {
                let closed = closed_through(&tuning, wm);
                // Window k closed iff end <= wm; check the boundary both ways.
                match closed {
                    None => assert!(WindowId(0).end(&tuning) > wm),
                    Some(k) => {
                        assert!(WindowId(k).end(&tuning) <= wm);
                        assert!(WindowId(k + 1).end(&tuning) > wm);
                    }
                }
            }
        }
    }

    #[test]
    fn watermark_is_monotone() {
        let mut wm = Watermark::new();
        assert!(wm.advance(10));
        assert!(!wm.advance(5), "candidates behind the watermark are ignored");
        assert!(!wm.advance(10), "equal candidates do not move it");
        assert!(wm.advance(11));
        assert_eq!(wm.get(), 11);
    }
}
