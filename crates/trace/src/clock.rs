//! The deterministic logical clock.
//!
//! Trace timestamps must order events *causally*, survive golden-fixture
//! comparison, and cost one atomic increment. Wall time fails the first two,
//! so the clock is a process-wide call counter: every emitted event ticks it
//! once, and a seeded single-threaded run assigns the same timestamps on
//! every execution. Under concurrency the ordering is whatever the atomic
//! observed — still monotone per thread, still a valid linearisation.

use std::sync::atomic::{AtomicU64, Ordering};

/// A strictly increasing event counter.
#[derive(Debug, Default)]
pub(crate) struct LogicalClock {
    next: AtomicU64,
}

impl LogicalClock {
    pub(crate) fn new() -> LogicalClock {
        LogicalClock::default()
    }

    /// Take the next timestamp. Each value is handed out exactly once.
    pub(crate) fn tick(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_unique_and_increasing() {
        let clock = LogicalClock::new();
        let a = clock.tick();
        let b = clock.tick();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
    }

    #[test]
    fn ticks_are_unique_across_threads() {
        let clock = std::sync::Arc::new(LogicalClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let clock = std::sync::Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| clock.tick()).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = Vec::new();
        for handle in handles {
            let ticks = handle.join().unwrap();
            assert!(ticks.windows(2).all(|w| w[0] < w[1]), "monotone per thread");
            all.extend(ticks);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "no timestamp handed out twice");
    }
}
