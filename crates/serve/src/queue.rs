//! The server's job queue: two bounded FIFO lanes and the pool's CPU
//! permits behind one lock.
//!
//! Producers never block — [`JobQueue::try_push`] refuses when the lane is
//! at capacity or the queue is closed and hands the item back. Workers park
//! in [`JobQueue::pop`], which hands out an item only together with a free
//! permit and always serves the high lane first: priority is strict,
//! decided under the lock at the moment an item is taken. The [`Permit`]
//! goes back when it drops, and is lent out while its item waits on the LLM
//! ([`JobQueue::set_waiting`]). When a lent permit could start a queued item
//! and no worker is idle to take it, the queue asks for one more worker —
//! at most `capacity` beyond the permits. [`JobQueue::close`] stops
//! admission; workers drain what is queued and then see `None`.

use crate::config::Priority;
use lingua_ml::sync::{Condvar, Mutex};
use std::collections::VecDeque;

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
    /// Signalled once per pushed item and per freed permit, and to everyone
    /// on close.
    ready: Condvar,
}

struct State<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    closed: bool,
    permits: usize,
    /// Permits held by running items; can pass `permits` (see `set_waiting`).
    held: usize,
    /// Workers on their way into `pop` or parked there: the ones the server
    /// starts with, one asked for, one back from an item, and a dead one's
    /// restart. One whose spawn failed is taken back (`unstarted`). One that
    /// never comes otherwise — a slot given up on, shutdown — stays counted:
    /// it can only make the queue ask for fewer.
    idle: usize,
    /// Workers the queue may still ask for, beyond the permits' own.
    spare: usize,
}

impl<T> State<T> {
    /// Ask for one more worker if queued items could start on free permits,
    /// more of them than idle workers can take, and the bound allows it. Only
    /// a lent permit frees one so. The worker asked for is idle from now.
    fn hire(&mut self) -> bool {
        let queued = self.high.len() + self.normal.len();
        let free = self.permits.saturating_sub(self.held);
        let short = self.spare > 0 && queued.min(free) > self.idle;
        if short {
            (self.spare, self.idle) = (self.spare - 1, self.idle + 1);
        }
        short
    }
}

/// A running item's CPU permit, handed out by [`JobQueue::pop`]. Dropping
/// it gives the permit back, and its worker turns idle — or, unwinding,
/// leaves its place to the replacement the dying worker starts itself.
pub(crate) struct Permit<'a, T>(&'a JobQueue<T>);

impl<T> Drop for Permit<'_, T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        (state.held, state.idle) = (state.held - 1, state.idle + 1);
        drop(state);
        self.0.ready.notify_one();
    }
}

impl<T> JobQueue<T> {
    /// A queue of `capacity` items per lane for a pool of `permits`
    /// workers, which may ask for `capacity` more.
    pub(crate) fn new(capacity: usize, permits: usize) -> JobQueue<T> {
        JobQueue {
            capacity,
            state: Mutex::new(State {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                closed: false,
                permits,
                held: 0,
                idle: permits,
                spare: capacity,
            }),
            ready: Condvar::new(),
        }
    }

    /// Queue `item`. `Ok(true)` asks the caller to start a worker: a lent
    /// permit could start a queued item now, but no idle worker is left to
    /// take it.
    pub(crate) fn try_push(&self, lane: Priority, item: T) -> Result<bool, Refused<T>> {
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
        let hire = state.hire();
        drop(state);
        self.ready.notify_one();
        Ok(hire)
    }

    /// Block for the next item, high lane first, and a permit to run it.
    /// `None` once the queue is closed *and* empty: the worker leaves.
    pub(crate) fn pop(&self) -> Option<(T, Permit<'_, T>)> {
        let mut state = self.state.lock();
        loop {
            if state.held < state.permits {
                if let Some(next) = state.high.pop_front().or_else(|| state.normal.pop_front()) {
                    state.held += 1;
                    state.idle -= 1;
                    return Some((next, Permit(self)));
                }
            }
            if state.closed && state.high.is_empty() && state.normal.is_empty() {
                state.idle -= 1;
                drop(state);
                // Pass the wake-up on: a worker parked for a permit while the
                // last items left would otherwise wait for good.
                self.ready.notify_one();
                return None;
            }
            state = self.ready.wait(state);
        }
    }

    /// A running item starts waiting — its permit is lent out, while its
    /// worker stays busy with it — or stops: the permit comes back at once,
    /// free or not, so the caller never blocks. `true` asks the caller for
    /// a worker, as [`Self::try_push`] does.
    pub(crate) fn set_waiting(&self, waiting: bool) -> bool {
        let mut state = self.state.lock();
        if !waiting {
            state.held += 1;
            return false;
        }
        state.held -= 1;
        let hire = state.hire();
        drop(state);
        self.ready.notify_one();
        hire
    }

    /// A worker counted idle never started: its spawn failed. Its place is
    /// taken back, and `true` asks the caller for a worker, as
    /// [`Self::try_push`] does — from the spare ones, so retrying a spawn
    /// that keeps failing ends.
    pub(crate) fn unstarted(&self) -> bool {
        let mut state = self.state.lock();
        state.idle -= 1;
        state.hire()
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

    /// Pop, and give the permit straight back.
    fn next<T>(queue: &JobQueue<T>) -> Option<T> {
        queue.pop().map(|(item, _permit)| item)
    }

    #[test]
    fn each_lane_is_full_at_capacity_and_a_closed_queue_refuses() {
        let queue = JobQueue::new(2, 1);
        for lane in [Priority::High, Priority::Normal] {
            assert!(queue.try_push(lane, 1).is_ok());
            assert!(queue.try_push(lane, 2).is_ok());
            assert!(matches!(queue.try_push(lane, 3), Err(Refused::Full(3))));
        }
        assert_eq!(queue.len(), 4, "the lanes fill independently");
        assert_eq!(next(&queue), Some(1));
        assert!(queue.try_push(Priority::High, 3).is_ok(), "a pop frees a slot");
        queue.close();
        assert!(matches!(queue.try_push(Priority::Normal, 9), Err(Refused::Closed(9))));
        assert!(matches!(queue.try_push(Priority::High, 9), Err(Refused::Closed(9))));
    }

    #[test]
    fn high_items_leave_before_normal_ones_under_concurrent_pushes() {
        let queue = Arc::new(JobQueue::new(1024, 1));
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
        let popped: Vec<_> = std::iter::from_fn(|| next(&queue)).collect();
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
    fn pop_hands_out_an_item_only_with_a_free_permit() {
        let queue = Arc::new(JobQueue::new(8, 2));
        for n in 0..4 {
            queue.try_push(Priority::Normal, n).unwrap();
        }
        let (first, first_permit) = queue.pop().unwrap();
        let (second, _second_permit) = queue.pop().unwrap();
        assert_eq!((first, second), (0, 1));
        let popper = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || next(&queue))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!popper.is_finished(), "both permits are held: the third item waits");
        drop(first_permit);
        assert_eq!(popper.join().unwrap(), Some(2), "a permit given back lets it go");
    }

    #[test]
    fn a_lent_permit_runs_another_item_and_a_returning_one_may_overcommit() {
        let queue = JobQueue::new(8, 1);
        queue.try_push(Priority::Normal, 'a').unwrap();
        queue.try_push(Priority::Normal, 'b').unwrap();
        let (_, a_permit) = queue.pop().unwrap();
        // `a` waits on the LLM: its permit is lent out. No worker is idle, so
        // the queue asks for one to run `b`.
        assert!(queue.set_waiting(true), "a queued item, a free permit and no idle worker");
        let (_, b_permit) = queue.pop().unwrap();
        assert!(!queue.set_waiting(true), "`b` waits too, with nothing queued: no worker wanted");
        // `b`'s wait ends, then `a`'s: two permits held of a budget of one.
        queue.set_waiting(false);
        queue.set_waiting(false);
        assert!(!queue.try_push(Priority::Normal, 'c').unwrap(), "no permit is free");
        drop(a_permit);
        assert_eq!(queue.state.lock().held, 1, "still at the budget: `c` stays queued");
        drop(b_permit);
        assert_eq!(next(&queue), Some('c'), "back under the budget");
    }

    #[test]
    fn a_worker_is_wanted_only_for_a_lent_permit_with_none_idle() {
        let queue = JobQueue::new(8, 1);
        assert!(!queue.try_push(Priority::Normal, 1).unwrap(), "the pool's own worker takes it");
        let (_, first) = queue.pop().unwrap();
        assert!(!queue.try_push(Priority::Normal, 2).unwrap(), "no permit is free");
        assert!(queue.set_waiting(true), "a lent permit, a queued item and no idle worker");
        assert!(!queue.try_push(Priority::Normal, 3).unwrap(), "the worker asked for is idle");
        let (_, second) = queue.pop().unwrap();
        drop(second);
        assert!(!queue.try_push(Priority::Normal, 4).unwrap(), "one back from an item is idle");
        queue.set_waiting(false);
        drop(first);
    }

    #[test]
    fn the_queue_asks_for_at_most_capacity_workers_beyond_its_permits() {
        let queue = JobQueue::new(1, 1);
        queue.try_push(Priority::Normal, 'a').unwrap();
        let (_, a) = queue.pop().unwrap();
        assert!(!queue.set_waiting(true), "nothing queued");
        assert!(queue.try_push(Priority::Normal, 'b').unwrap(), "one worker beyond the permit");
        let (_, b) = queue.pop().unwrap();
        assert!(!queue.set_waiting(true));
        assert!(!queue.try_push(Priority::Normal, 'c').unwrap(), "the bound is reached");
        queue.set_waiting(false);
        queue.set_waiting(false);
        drop((a, b));
        assert_eq!(next(&queue), Some('c'));
    }

    /// A one-worker pool whose worker dies with `a` while `b` waits, and
    /// whose replacement cannot start.
    fn dead_pool(capacity: usize) -> JobQueue<char> {
        let queue = JobQueue::new(capacity, 1);
        queue.try_push(Priority::Normal, 'a').unwrap();
        let (_, dying) = queue.pop().unwrap();
        assert!(!queue.try_push(Priority::Normal, 'b').unwrap(), "no permit is free");
        drop(dying);
        queue
    }

    #[test]
    fn a_worker_that_never_started_is_asked_for_again_while_items_wait() {
        let queue = dead_pool(2);
        assert!(queue.unstarted(), "`b` could start and nobody will come for it: ask");
        assert_eq!(next(&queue), Some('b'), "the worker asked for takes it");

        let queue = dead_pool(2);
        assert!(queue.unstarted());
        assert!(queue.unstarted(), "the one asked for failed to start too: ask again");
        assert!(!queue.unstarted(), "the spare workers are spent: the retries end");
    }

    #[test]
    fn a_worker_leaving_a_closed_queue_wakes_the_next_parked_one() {
        // One permit and four workers: three more than it, as lent permits
        // leave behind.
        let queue = Arc::new(JobQueue::new(8, 1));
        queue.state.lock().idle += 3;
        queue.try_push(Priority::Normal, 1).unwrap();
        queue.try_push(Priority::Normal, 2).unwrap();
        let (_, held) = queue.pop().unwrap();
        // Three workers park with an item queued and no permit free.
        let (sender, got) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let (queue, sender) = (Arc::clone(&queue), sender.clone());
            std::thread::spawn(move || sender.send(next(&queue)).unwrap());
        }
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        std::thread::sleep(Duration::from_millis(20));
        // They woke for the close and parked again. One permit drop wakes one
        // of them for the last item; the other two leave only if each worker
        // that leaves wakes the next.
        drop(held);
        let mut got: Vec<_> = (0..3)
            .map(|_| got.recv_timeout(Duration::from_secs(10)).expect("a worker stays parked"))
            .collect();
        got.sort();
        assert_eq!(got, [None, None, Some(2)]);
    }

    #[test]
    fn pop_blocks_while_open_and_returns_none_only_when_closed_and_empty() {
        let queue = Arc::new(JobQueue::new(4, 1));
        let returned = Arc::new(AtomicBool::new(false));
        let popper = {
            let (queue, returned) = (Arc::clone(&queue), Arc::clone(&returned));
            std::thread::spawn(move || {
                let got = next(&queue);
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
        assert_eq!(next(&queue), Some(7));
        assert_eq!(next(&queue), Some(6));
        assert_eq!(next(&queue), None);

        // Close wakes every parked popper.
        let queue = Arc::new(JobQueue::<u8>::new(4, 3));
        let parked: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || next(&queue))
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
        let queue = JobQueue::new(4, 1);
        queue.try_push(Priority::Normal, "n1").unwrap();
        queue.try_push(Priority::High, "h1").unwrap();
        queue.try_push(Priority::Normal, "n2").unwrap();
        queue.close();
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.drain(), ["h1", "n1", "n2"]);
        assert_eq!(queue.len(), 0);
        assert!(queue.drain().is_empty());
        assert_eq!(next(&queue), None);
    }
}
