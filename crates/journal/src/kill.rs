//! Named kill points and the seeded crash injector.
//!
//! The harness simulates crash-stop failure without real processes: every
//! durability-relevant instant in the write path is a named [`KillPoint`],
//! and a [`CrashInjector`] armed at `(point, occurrence)` flips a shared
//! `dead` flag the n-th time execution passes that point. Once dead, the
//! journal drops every subsequent storage write on the floor — exactly what
//! a killed process would have failed to persist — and the test driver
//! stops the run and recovers from whatever bytes made it to storage.
//!
//! This is deterministic by construction: occurrence counting is the only
//! clock, so the same workload with the same arming crashes at the same
//! byte of the same record every time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Durability-relevant instants where a crash is injectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KillPoint {
    /// Before a record's frame is appended: the event happened in memory
    /// but nothing reached storage.
    BeforeJournal,
    /// Mid-append: only the first half of the record's frame reached
    /// storage — a torn write the reader must detect by CRC.
    MidWrite,
    /// After a record's frame was fully appended and before the caller
    /// observes the effect.
    AfterJournal,
    /// Mid-checkpoint: the checkpoint frame itself is torn in half before
    /// compaction replaced the log, so recovery must fall back to the
    /// records preceding it.
    MidCheckpoint,
    /// After checkpoint compaction fully replaced the log.
    AfterCheckpoint,
    /// Between a stream window's close being journaled and its report
    /// submission being journaled — the window job may or may not have
    /// run, and recovery must resubmit it idempotently.
    MidReport,
}

impl KillPoint {
    pub const ALL: [KillPoint; 6] = [
        KillPoint::BeforeJournal,
        KillPoint::MidWrite,
        KillPoint::AfterJournal,
        KillPoint::MidCheckpoint,
        KillPoint::AfterCheckpoint,
        KillPoint::MidReport,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            KillPoint::BeforeJournal => "before_journal",
            KillPoint::MidWrite => "mid_write",
            KillPoint::AfterJournal => "after_journal",
            KillPoint::MidCheckpoint => "mid_checkpoint",
            KillPoint::AfterCheckpoint => "after_checkpoint",
            KillPoint::MidReport => "mid_report",
        }
    }
}

/// Deterministic crash trigger shared between the journal and the harness.
pub struct CrashInjector {
    /// `Some((point, occurrence))`: die the `occurrence`-th (1-based) time
    /// `point` fires. `None`: never die.
    armed: Option<(KillPoint, u64)>,
    /// How many times each point has fired so far, indexed by the point's
    /// position in [`KillPoint::ALL`]. Atomics, not a locked map: every
    /// append fires three points, armed or not.
    counts: [AtomicU64; KillPoint::ALL.len()],
    dead: AtomicBool,
}

impl CrashInjector {
    /// An injector that never fires — production configuration.
    pub(crate) fn inert() -> Arc<Self> {
        Arc::new(Self { armed: None, counts: Default::default(), dead: AtomicBool::new(false) })
    }

    /// Die the `occurrence`-th (1-based) time `point` is reached.
    pub fn armed_at(point: KillPoint, occurrence: u64) -> Arc<Self> {
        Arc::new(Self {
            armed: Some((point, occurrence.max(1))),
            counts: Default::default(),
            dead: AtomicBool::new(false),
        })
    }

    /// Record that execution reached `point`; returns `true` when this
    /// firing is the armed crash (the caller must then drop the write it
    /// was about to perform, or has half-performed). Once dead, every
    /// subsequent call reports dead without counting — the process is gone.
    pub fn fire(&self, point: KillPoint) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return true;
        }
        let count = self.counts[point as usize].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((armed_point, occurrence)) = self.armed {
            if armed_point == point && count == occurrence {
                self.dead.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Whether the simulated process has died.
    pub fn dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Times each kill point has fired (diagnostics; also how a matrix
    /// driver discovers how many occurrences exist to sweep).
    pub fn counts(&self) -> BTreeMap<KillPoint, u64> {
        KillPoint::ALL
            .into_iter()
            .map(|point| (point, self.counts[point as usize].load(Ordering::Relaxed)))
            .filter(|(_, count)| *count > 0)
            .collect()
    }

    /// What the injector is armed at, if anything.
    pub fn armed(&self) -> Option<(KillPoint, u64)> {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_at_the_armed_occurrence() {
        let inj = CrashInjector::armed_at(KillPoint::AfterJournal, 3);
        assert!(!inj.fire(KillPoint::AfterJournal));
        assert!(!inj.fire(KillPoint::BeforeJournal));
        assert!(!inj.fire(KillPoint::AfterJournal));
        assert!(!inj.dead());
        assert!(inj.fire(KillPoint::AfterJournal));
        assert!(inj.dead());
        // Dead is absorbing: every later fire reports dead.
        assert!(inj.fire(KillPoint::BeforeJournal));
    }

    #[test]
    fn inert_never_dies() {
        let inj = CrashInjector::inert();
        for _ in 0..100 {
            for p in KillPoint::ALL {
                assert!(!inj.fire(p));
            }
        }
        assert!(!inj.dead());
        assert_eq!(inj.counts()[&KillPoint::MidWrite], 100);
    }
}
