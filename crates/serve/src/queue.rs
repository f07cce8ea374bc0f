//! The server's job queue: two bounded FIFO lanes behind one lock.
//!
//! Producers never block — [`JobQueue::try_push`] refuses when the lane is
//! at capacity or the queue is closed and hands the item back. Workers park
//! in [`JobQueue::pop`], which always serves the high lane first: priority
//! is strict, decided under the lock at the moment an item is taken.
//! [`JobQueue::close`] stops admission; workers drain what is queued and
//! then see `None`. A worker the pool grew parks in [`JobQueue::pop_within`]
//! instead, which also gives up after a wait with nothing queued.

use crate::config::Priority;
use lingua_ml::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Why [`JobQueue::try_push`] handed the item back.
#[derive(Debug)]
pub(crate) enum Refused<T> {
    /// The lane already holds `capacity` items.
    Full(T),
    /// [`JobQueue::close`] was called.
    Closed(T),
}

pub(crate) struct JobQueue<T> {
    /// Per lane.
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signalled once per pushed item, and to everyone on close.
    ready: Condvar,
}

struct State<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    pub(crate) fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            capacity,
            state: Mutex::new(State {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn try_push(&self, lane: Priority, item: T) -> Result<(), Refused<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(Refused::Closed(item));
        }
        let queue = match lane {
            Priority::High => &mut state.high,
            Priority::Normal => &mut state.normal,
        };
        if queue.len() >= self.capacity {
            return Err(Refused::Full(item));
        }
        queue.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Block for the next item, high lane first. `None` once the queue is
    /// closed *and* empty.
    pub(crate) fn pop(&self) -> Option<T> {
        self.take(None)
    }

    /// [`Self::pop`], but `None` also once `wait` passes with nothing to
    /// take.
    pub(crate) fn pop_within(&self, wait: Duration) -> Option<T> {
        self.take(Some(Instant::now() + wait))
    }

    fn take(&self, deadline: Option<Instant>) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            let next = state.high.pop_front().or_else(|| state.normal.pop_front());
            if next.is_some() || state.closed {
                return next;
            }
            state = match deadline {
                None => self.ready.wait(state),
                Some(deadline) if Instant::now() >= deadline => return None,
                Some(deadline) => self.ready.wait_until(state, deadline).0,
            };
        }
    }

    /// Stop admitting. Queued items stay for the workers (or [`Self::drain`]).
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }

    /// Everything still queued, high lane first, without blocking.
    pub(crate) fn drain(&self) -> Vec<T> {
        let mut state = self.state.lock();
        let state = &mut *state;
        state.high.drain(..).chain(state.normal.drain(..)).collect()
    }

    /// Items waiting in both lanes.
    pub(crate) fn len(&self) -> usize {
        let state = self.state.lock();
        state.high.len() + state.normal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn each_lane_is_full_at_capacity_and_a_closed_queue_refuses() {
        let queue = JobQueue::new(2);
        for lane in [Priority::High, Priority::Normal] {
            assert!(queue.try_push(lane, 1).is_ok());
            assert!(queue.try_push(lane, 2).is_ok());
            assert!(matches!(queue.try_push(lane, 3), Err(Refused::Full(3))));
        }
        assert_eq!(queue.len(), 4, "the lanes fill independently");
        assert_eq!(queue.pop(), Some(1));
        assert!(queue.try_push(Priority::High, 3).is_ok(), "a pop frees a slot");
        queue.close();
        assert!(matches!(queue.try_push(Priority::Normal, 9), Err(Refused::Closed(9))));
        assert!(matches!(queue.try_push(Priority::High, 9), Err(Refused::Closed(9))));
    }

    #[test]
    fn high_items_leave_before_normal_ones_under_concurrent_pushes() {
        let queue = Arc::new(JobQueue::new(1024));
        let pushers: Vec<_> = [Priority::Normal, Priority::High, Priority::Normal, Priority::High]
            .into_iter()
            .enumerate()
            .map(|(thread, lane)| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for n in 0..200 {
                        queue.try_push(lane, (lane, thread, n)).unwrap();
                    }
                })
            })
            .collect();
        for pusher in pushers {
            pusher.join().unwrap();
        }
        queue.close();
        let popped: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(popped.len(), 800);
        assert!(popped[..400].iter().all(|(lane, ..)| *lane == Priority::High));
        assert!(popped[400..].iter().all(|(lane, ..)| *lane == Priority::Normal));
        // FIFO within a lane: each pusher's items come out in its own order.
        for thread in 0..4 {
            let order: Vec<i32> =
                popped.iter().filter(|(_, t, _)| *t == thread).map(|(.., n)| *n).collect();
            assert_eq!(order, (0..200).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pop_within_gives_up_only_after_a_wait_with_nothing_queued() {
        let queue = Arc::new(JobQueue::new(4));
        let start = std::time::Instant::now();
        assert_eq!(queue.pop_within(Duration::from_millis(20)), None::<u8>);
        assert!(start.elapsed() >= Duration::from_millis(20), "it waited the whole time");
        let pusher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                queue.try_push(Priority::Normal, 3).unwrap();
            })
        };
        assert_eq!(queue.pop_within(Duration::from_secs(30)), Some(3));
        pusher.join().unwrap();
    }

    #[test]
    fn pop_blocks_while_open_and_returns_none_only_when_closed_and_empty() {
        let queue = Arc::new(JobQueue::new(4));
        let returned = Arc::new(AtomicBool::new(false));
        let popper = {
            let (queue, returned) = (Arc::clone(&queue), Arc::clone(&returned));
            std::thread::spawn(move || {
                let got = queue.pop();
                returned.store(true, Ordering::SeqCst);
                got
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!returned.load(Ordering::SeqCst), "an open, empty queue parks its popper");
        queue.try_push(Priority::Normal, 5).unwrap();
        assert_eq!(popper.join().unwrap(), Some(5));

        // Closed but not empty: the items still come out, then `None`.
        queue.try_push(Priority::Normal, 6).unwrap();
        queue.try_push(Priority::High, 7).unwrap();
        queue.close();
        assert_eq!(queue.pop(), Some(7));
        assert_eq!(queue.pop(), Some(6));
        assert_eq!(queue.pop(), None);

        // Close wakes every parked popper.
        let queue = Arc::new(JobQueue::<u8>::new(4));
        let parked: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        queue.close();
        for popper in parked {
            assert_eq!(popper.join().unwrap(), None);
        }
    }

    #[test]
    fn drain_after_close_empties_both_lanes_high_first() {
        let queue = JobQueue::new(4);
        queue.try_push(Priority::Normal, "n1").unwrap();
        queue.try_push(Priority::High, "h1").unwrap();
        queue.try_push(Priority::Normal, "n2").unwrap();
        queue.close();
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.drain(), ["h1", "n1", "n2"]);
        assert_eq!(queue.len(), 0);
        assert!(queue.drain().is_empty());
        assert_eq!(queue.pop(), None);
    }
}
