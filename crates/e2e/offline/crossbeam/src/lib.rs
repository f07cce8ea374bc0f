//! Offline stand-in for `crossbeam` 0.8: `thread::scope`, a bounded MPMC
//! `channel` (non-blocking ends; workers block in `select!`), and `select!` over two `recv` arms — the surface this
//! workspace uses — on the standard library's primitives.

pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub use std::thread::ScopedJoinHandle;

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Joins every spawned thread before returning. A panic in an unjoined
    /// child surfaces as `Err` carrying std's "a scoped thread panicked"
    /// payload (the published crate hands back the children's payloads).
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| std::thread::scope(|inner| f(&Scope { inner }))))
    }
}

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        capacity: usize,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Wake-up channel for `select!`: senders bump the epoch only while a
    /// selector is parked. SeqCst pairs the selector's `SELECTORS` increment
    /// (before it polls) with the sender's load (after it pushed), so either
    /// the poll sees the message or the sender sees the selector.
    static SELECTORS: AtomicUsize = AtomicUsize::new(0);
    static SELECT_EPOCH: Mutex<u64> = Mutex::new(0);
    static SELECT_CV: Condvar = Condvar::new();

    fn wake_selectors() {
        if SELECTORS.load(Ordering::SeqCst) > 0 {
            *SELECT_EPOCH.lock().unwrap_or_else(PoisonError::into_inner) += 1;
            SELECT_CV.notify_all();
        }
    }

    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity > 0, "the stand-in has no rendezvous channel");
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                senders: 1,
                receivers: 1,
            }),
            capacity,
        });
        (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
    }

    impl<T> Sender<T> {
        pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
            let mut state = self.chan.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(item));
            }
            if state.queue.len() >= self.chan.capacity {
                return Err(TrySendError::Full(item));
            }
            state.queue.push_back(item);
            drop(state);
            wake_selectors();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Sender { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                wake_selectors();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.lock();
            match state.queue.pop_front() {
                Some(item) => Ok(item),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Receiver { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.lock().receivers -= 1;
        }
    }

    #[doc(hidden)]
    pub enum Selected<T, U> {
        First(Result<T, RecvError>),
        Second(Result<U, RecvError>),
    }

    /// Block until either receiver yields a message or is disconnected.
    #[doc(hidden)]
    pub fn select2<T, U>(first: &Receiver<T>, second: &Receiver<U>) -> Selected<T, U> {
        struct Parked;
        impl Drop for Parked {
            fn drop(&mut self) {
                SELECTORS.fetch_sub(1, Ordering::SeqCst);
            }
        }
        SELECTORS.fetch_add(1, Ordering::SeqCst);
        let _parked = Parked;
        loop {
            let epoch = *SELECT_EPOCH.lock().unwrap_or_else(PoisonError::into_inner);
            match first.try_recv() {
                Ok(item) => return Selected::First(Ok(item)),
                Err(TryRecvError::Disconnected) => return Selected::First(Err(RecvError)),
                Err(TryRecvError::Empty) => {}
            }
            match second.try_recv() {
                Ok(item) => return Selected::Second(Ok(item)),
                Err(TryRecvError::Disconnected) => return Selected::Second(Err(RecvError)),
                Err(TryRecvError::Empty) => {}
            }
            let mut current = SELECT_EPOCH.lock().unwrap_or_else(PoisonError::into_inner);
            while *current == epoch {
                current = SELECT_CV.wait(current).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// `select!` over exactly two `recv(&Receiver) -> pattern => { .. }` arms.
#[macro_export]
macro_rules! select {
    (
        recv($first:expr) -> $first_msg:pat => $first_body:block $(,)?
        recv($second:expr) -> $second_msg:pat => $second_body:block $(,)?
    ) => {
        match $crate::channel::select2($first, $second) {
            $crate::channel::Selected::First($first_msg) => $first_body,
            $crate::channel::Selected::Second($second_msg) => $second_body,
        }
    };
}
