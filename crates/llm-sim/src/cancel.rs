//! Cooperative cancellation: a shared [`CancelToken`] carrying a deadline
//! and/or an explicit cancel flag.
//!
//! The token travels **with the work it governs**, never with the thread
//! that happens to run it: the executor reads it off its context, and a
//! completion carries it on its [`CompletionRequest`](crate::CompletionRequest),
//! so every layer behind the [`LlmService`](crate::LlmService) trait
//! (batcher, gateway, simulator) asks the request it was handed — and answers
//! a dead job's member with [`NoAnswer::Cancelled`] — also
//! when one job's thread places calls on behalf of others, as a batch flush
//! does.
//!
//! This crate is the bottom of the workspace dependency graph, so the token
//! lives here and every layer above (core's executor, the gateway, the serve
//! worker pool) shares one type.
//!
//! Semantics:
//!
//! * A token is cheap to clone (an `Arc` bump); all clones observe the same
//!   state. Cancellation is **cooperative and monotonic** — once a token
//!   reports cancelled it never un-cancels.
//! * [`CancelToken::status`] reports `DeadlineExceeded` in preference to
//!   `Cancelled` when both hold: a [`CancelToken::cancel`] that lands after
//!   the deadline must not mask the fact that the job's deadline already
//!   passed.
//! * The token doubles as the worker **heartbeat**: [`CancelToken::check`]
//!   and [`CancelToken::touch`] bump a logical progress counter that serve's
//!   health read compares between reads to tell "slow but advancing" from
//!   "wedged".
//! * And it tells whether the job is **waiting** on a batch it shares with
//!   other jobs: the batcher holds a [`WaitMark`] for each member it carries,
//!   and an observer installed with [`CancelToken::observe_waits`] hears when
//!   the job starts and stops waiting, so serve can lend the job's CPU permit
//!   to another job meanwhile.

use lingua_ml::sync::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a completion member carries no answer. A non-answer is a type, not a
/// text: no layer bills, meters, caches or validates it as a response, and
/// its `Display` is only the notice a human reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoAnswer {
    /// The placing job was dead before the call was placed (or retried), so
    /// it never was — and nothing was billed for it at any layer.
    Cancelled(CancelReason),
    /// Every backend and every degraded path failed: the gateway withheld
    /// the answer.
    Unavailable,
    /// The batch flush carrying this member failed before its response was
    /// produced.
    Aborted,
    /// The gateway placed the member and got no answer for it — its own fault,
    /// or a call cut before it was reached — and it has attempts left: the
    /// batcher re-sends it in a later flush with its count set to `attempts`
    /// ([`CompletionRequest::with_attempts`](crate::CompletionRequest::with_attempts)).
    /// A verdict for the batcher only: it never leaves the batcher.
    Resend { attempts: u32 },
    /// The provider answered the member but left computing it to the
    /// member's own thread: the call that computes it waits in the request's
    /// settle slot ([`CompletionRequest::settle`](crate::CompletionRequest::settle)),
    /// and its split is empty until then. Only a request the batcher gave a
    /// slot can be owed, and, like `Resend`, the verdict never leaves the
    /// batcher.
    Owed,
}

impl NoAnswer {
    /// Stable lowercase label (used in trace attributes and reports).
    pub fn label(&self) -> &'static str {
        match self {
            NoAnswer::Cancelled(reason) => reason.label(),
            NoAnswer::Unavailable => "unavailable",
            NoAnswer::Aborted => "aborted",
            NoAnswer::Resend { .. } => "resend",
            NoAnswer::Owed => "owed",
        }
    }
}

impl fmt::Display for NoAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NoAnswer::Cancelled(_) => {
                "[cancelled] job deadline passed or job was cancelled before this LLM call was placed"
            }
            NoAnswer::Unavailable => {
                "[gateway degraded] all backends unavailable; answer withheld, retry later"
            }
            NoAnswer::Aborted => {
                "[batch aborted] the batch flush failed before this member's response was produced"
            }
            NoAnswer::Resend { .. } => {
                "[resend] the provider did not answer this member; it rides a later batch"
            }
            NoAnswer::Owed => {
                "[owed] the provider answered this member; its own caller computes the answer"
            }
        })
    }
}

impl std::error::Error for NoAnswer {}

/// Why a token reports cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// The token's deadline passed.
    DeadlineExceeded,
    /// Someone called [`CancelToken::cancel`] (a client).
    Cancelled,
}

impl CancelReason {
    /// Stable lowercase label (used in trace attributes and reports).
    pub fn label(&self) -> &'static str {
        match self {
            CancelReason::DeadlineExceeded => "deadline_exceeded",
            CancelReason::Cancelled => "cancelled",
        }
    }
}

#[derive(Debug)]
struct TokenInner {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    /// Logical heartbeat: bumped on every cooperative check-in.
    progress: AtomicU64,
    waits: Mutex<Waits>,
}

/// Live [`WaitMark`]s — completions of this job waiting in a batcher — and
/// who hears when their count leaves zero or returns to it.
#[derive(Default)]
struct Waits {
    live: usize,
    observer: Option<Box<dyn Fn(bool) + Send + Sync>>,
}

impl Waits {
    /// One more live mark (`up`) or one fewer, telling the observer when
    /// the count leaves zero or returns to it.
    fn count(&mut self, up: bool) {
        let edge = if up {
            self.live += 1;
            self.live == 1
        } else {
            self.live -= 1;
            self.live == 0
        };
        if let (true, Some(observer)) = (edge, &self.observer) {
            observer(up);
        }
    }
}

impl fmt::Debug for Waits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Waits").field(&self.live).finish()
    }
}

/// Shared deadline + explicit-cancel flag + heartbeat. Clone freely; all
/// clones share state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::unbounded()
    }
}

impl CancelToken {
    fn with_inner(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                deadline,
                cancelled: AtomicBool::new(false),
                progress: AtomicU64::new(0),
                waits: Mutex::default(),
            }),
        }
    }

    /// A token with no deadline; cancels only via [`CancelToken::cancel`].
    pub fn unbounded() -> CancelToken {
        CancelToken::with_inner(None)
    }

    /// A token that reports `DeadlineExceeded` once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken::with_inner(Some(deadline))
    }

    /// A token whose deadline is `timeout` from now.
    pub fn after(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time left before the deadline (`None` = unbounded; zero = expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True if [`CancelToken::cancel`] was called (independent of deadline).
    pub fn explicitly_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Current cancellation state. Deadline expiry wins over explicit cancel
    /// so a late cancel cannot mask a deadline overrun.
    pub fn status(&self) -> Option<CancelReason> {
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Some(CancelReason::DeadlineExceeded);
            }
        }
        if self.explicitly_cancelled() {
            return Some(CancelReason::Cancelled);
        }
        None
    }

    /// True if the token is cancelled for any reason.
    pub fn is_cancelled(&self) -> bool {
        self.status().is_some()
    }

    /// Cooperative check-in: bumps the heartbeat, then reports state.
    /// Call sites treat `Err` as "stop what you are doing".
    pub fn check(&self) -> Result<(), CancelReason> {
        self.touch();
        match self.status() {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    }

    /// Bump the heartbeat without checking state.
    pub fn touch(&self) {
        self.inner.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Logical heartbeat value (monotonic count of cooperative check-ins).
    pub fn progress(&self) -> u64 {
        self.inner.progress.load(Ordering::Relaxed)
    }

    /// Mark the job as waiting on a batch until the returned mark drops.
    /// Marks nest: the job waits while any of them lives.
    pub fn wait_mark(&self) -> WaitMark {
        self.inner.waits.lock().count(true);
        WaitMark { token: self.clone() }
    }

    /// True while a [`WaitMark`] of this job is alive.
    pub fn is_waiting(&self) -> bool {
        self.inner.waits.lock().live > 0
    }

    /// Tell `observer` when the job starts waiting (`true`: its first live
    /// [`WaitMark`] was taken) and when it stops (`false`: its last one
    /// dropped). Each transition reaches it exactly once, in the order the
    /// transitions happen, on the thread that made it and with this token's
    /// wait count locked — so the observer must not block for long, nor
    /// take or drop a mark of this token. Replaces any earlier observer.
    pub fn observe_waits(&self, observer: impl Fn(bool) + Send + Sync + 'static) {
        self.inner.waits.lock().observer = Some(Box::new(observer));
    }
}

/// Proof that a job is waiting on a batch it shares with other jobs (see
/// [`CancelToken::wait_mark`]); dropping it ends the wait.
#[derive(Debug)]
pub struct WaitMark {
    token: CancelToken,
}

impl Drop for WaitMark {
    fn drop(&mut self) {
        self.token.inner.waits.lock().count(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_never_cancels_until_asked() {
        let token = CancelToken::unbounded();
        assert_eq!(token.status(), None);
        assert!(token.check().is_ok());
        token.cancel();
        assert_eq!(token.status(), Some(CancelReason::Cancelled));
        assert_eq!(token.check(), Err(CancelReason::Cancelled));
    }

    #[test]
    fn deadline_expiry_reports_deadline_exceeded_even_after_explicit_cancel() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        token.cancel();
        // Deadline wins: a late cancel must not mask the overrun.
        assert_eq!(token.status(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn clones_share_state_and_heartbeat() {
        let token = CancelToken::unbounded();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
        token.touch();
        clone.touch();
        assert_eq!(token.progress(), 2);
    }

    #[test]
    fn wait_marks_nest_and_end_on_drop() {
        let token = CancelToken::unbounded();
        assert!(!token.is_waiting());
        let first = token.wait_mark();
        let second = token.clone().wait_mark();
        drop(first);
        assert!(token.is_waiting(), "a clone's mark is the same job's");
        drop(second);
        assert!(!token.is_waiting());
    }

    /// A token whose observer logs every call.
    fn observed() -> (CancelToken, Arc<Mutex<Vec<bool>>>) {
        let token = CancelToken::unbounded();
        let heard = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&heard);
        token.observe_waits(move |waiting| log.lock().push(waiting));
        (token, heard)
    }

    #[test]
    fn the_observer_hears_each_edge_of_nested_and_cloned_marks_once() {
        let (token, heard) = observed();
        let outer = token.wait_mark();
        let inner = token.clone().wait_mark();
        let innermost = inner.token.wait_mark();
        drop(inner);
        drop(outer);
        assert_eq!(*heard.lock(), [true], "nesting is one wait");
        drop(innermost);
        assert_eq!(*heard.lock(), [true, false]);
        // A clone's mark is the same job's wait: a second, separate edge.
        let again = token.clone().wait_mark();
        drop(again);
        assert_eq!(*heard.lock(), [true, false, true, false]);
        assert!(!token.is_waiting());
    }

    #[test]
    fn the_observer_alternates_under_marks_from_many_threads() {
        let (token, heard) = observed();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let token = token.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let mark = token.wait_mark();
                        let nested = token.wait_mark();
                        drop(mark);
                        drop(nested);
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|thread| thread.join().unwrap());
        // A mark taken on one thread and dropped on another ends its wait
        // there too.
        let mark = token.wait_mark();
        std::thread::spawn(move || drop(mark)).join().unwrap();
        let heard = heard.lock();
        assert!(heard.len() >= 2 && heard.len() % 2 == 0, "{} calls", heard.len());
        assert!(
            heard.iter().enumerate().all(|(n, waiting)| *waiting == (n % 2 == 0)),
            "every start is followed by exactly one stop"
        );
        assert!(!token.is_waiting());
    }

    #[test]
    fn remaining_saturates_at_zero() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        assert!(CancelToken::unbounded().remaining().is_none());
    }
}
