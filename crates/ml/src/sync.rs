//! The workspace's one lock: [`Mutex`] and [`Condvar`] over `std::sync`
//! that ignore poisoning.
//!
//! Every lock in the serving stack guards plain counters, queues and maps
//! whose invariants hold between statements, and a panicking job is an
//! expected event there (serve contains it at the job boundary). With
//! `std`'s poisoning, one such panic under a guard would turn every later
//! `lock()` by a sibling into a second panic; here `lock()` cannot fail, so
//! a panicking job cannot wedge a lock its siblings need (`DESIGN.md` §9,
//! asserted by `serve/tests/panic_chaos.rs`). Only what the workspace calls
//! is exposed: no `try_lock`, no `RwLock`.

use std::sync::{MutexGuard, PoisonError};
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held. A holder that panicked is no obstacle.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Takes the guard by value and hands it back, like `std`'s.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait until notified or `deadline`; the flag is `true` on a timeout.
    pub fn wait_until<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool) {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (guard, result) =
            self.0.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
        (guard, result.timed_out())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn a_panic_under_the_guard_does_not_wedge_the_lock() {
        let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
        let holder = Arc::clone(&shared);
        let died = std::thread::spawn(move || {
            let mut guard = holder.0.lock();
            *guard = 7;
            panic!("holder dies with the guard live");
        })
        .join();
        assert!(died.is_err());
        // The sibling locks, reads what the holder wrote, and can wait.
        let guard = shared.0.lock();
        assert_eq!(*guard, 7);
        let (guard, timed_out) =
            shared.1.wait_until(guard, Instant::now() + Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(*guard, 7);
    }

    #[test]
    fn wait_returns_once_notified() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let setter = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            *setter.0.lock() = true;
            setter.1.notify_all();
        });
        let mut open = shared.0.lock();
        while !*open {
            open = shared.1.wait(open);
        }
        drop(open);
        thread.join().unwrap();
    }
}
