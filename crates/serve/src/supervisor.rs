//! Worker-pool supervision: liveness tracking, crash resurrection within a
//! restart budget, and stuck-job detection. No thread watches the pool: each
//! is done where its event happens.
//!
//! The worker pool's failure story has three tiers:
//!
//! 1. **Contained panics** — a pipeline that panics inside a worker is caught
//!    at the job boundary (`catch_unwind` in `server::process`). The job
//!    fails with `ServeError::Panicked`, the worker discards its possibly
//!    poisoned pipeline instance, and the *thread keeps serving*.
//! 2. **Worker death** — a panic that escapes containment (serving-layer
//!    bookkeeping bugs, or the [`EscapePanic`] test sentinel) kills the
//!    thread. No job dies with it: replication and execution both run inside
//!    the containment, and the sentinel is re-raised only after its job is
//!    settled. The thread's drop guard (`server::WorkerGuard`) calls
//!    [`Supervision::leave`] on its way out, which starts the replacement in
//!    the same slot at once — up to `ServeConfig::max_worker_restarts` times
//!    in a row, with no job survived between the deaths. The budget, not a
//!    delay, is what bounds a crash loop.
//! 3. **Stuck jobs** — a job that has run [`STUCK_MULTIPLIER`] times its
//!    deadline budget, with its heartbeat where the previous health read
//!    left it, is flagged when `PipelineServer::metrics` reads the pool's
//!    health ([`Supervision::read_health`]). The flag fires nothing: the
//!    job's deadline passed long before, and every cancellation-aware layer
//!    under it already stops at its next check-in. A module wedged in
//!    foreign code cannot be killed — threads are not processes — but the
//!    flag makes the wedge visible in `HealthSnapshot`.
//!
//! A worker started when a waiting job lent its CPU permit to a queued one
//! (`server::add_worker`) gets an ordinary slot: it parks in the queue like
//! any other, never retires, and restarts itself like any other when it
//! dies.

use crate::error::ServeError;
use crate::job::JobCore;
use crate::metrics::Metrics;
use lingua_ml::sync::Mutex;
use lingua_trace::{SpanKind, Tracer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running job with a deadline budget is stuck once it has run this many
/// times that budget with no heartbeat progress between two health reads.
pub(crate) const STUCK_MULTIPLIER: u32 = 4;

/// Panic payload that deliberately escapes the worker's per-job containment.
///
/// `server::process` re-raises a panic carrying this payload *after* settling
/// its job, killing the worker thread. Chaos tests
/// panic with `std::panic::panic_any(EscapePanic)` to prove a dead worker
/// restores the pool; production modules have no reason to use it.
pub struct EscapePanic;

/// What a worker is executing right now, as a health read sees it.
struct ActiveJob {
    core: Arc<JobCore>,
    pipeline: String,
    started: Instant,
    /// Deadline budget at execution start (`None` = unbounded job; there is
    /// no scale to judge it against, so it is never flagged).
    budget: Option<Duration>,
    /// Heartbeat reading at the last health read that found it over time.
    last_progress: u64,
    stuck_flagged: bool,
}

impl ActiveJob {
    /// Whether this read finds the job stuck for the first time; a job
    /// whose heartbeat moved since the previous read is spared, and read
    /// again from where it is now.
    fn newly_stuck(&mut self) -> bool {
        let Some(budget) = self.budget else { return false };
        if self.stuck_flagged || self.started.elapsed() <= budget.saturating_mul(STUCK_MULTIPLIER) {
            return false;
        }
        let progress = self.core.cancel.progress();
        if progress != self.last_progress {
            self.last_progress = progress;
            return false;
        }
        self.stuck_flagged = true;
        true
    }
}

/// One worker thread's supervision record.
#[derive(Default)]
struct WorkerSlot {
    /// Every thread started in this slot: the first and its replacements.
    /// Only the last can be alive; shutdown joins them all.
    handles: Vec<JoinHandle<()>>,
    alive: bool,
    gave_up: bool,
    /// Replacements started in this slot since one of its workers last
    /// survived a job: the deaths of a crash loop.
    restarts: u32,
    current: Option<ActiveJob>,
}

/// Shared supervision state: one slot per worker the pool started (a
/// replacement takes its dead worker's slot), plus the shutdown latch.
pub(crate) struct Supervision {
    slots: Mutex<Vec<WorkerSlot>>,
    pub(crate) shutdown: AtomicBool,
    /// The CPU budget: how many jobs may compute at once.
    pub(crate) budget: usize,
    /// Most workers alive at once.
    peak: AtomicUsize,
}

impl Supervision {
    pub(crate) fn new(budget: usize) -> Supervision {
        Supervision {
            slots: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            budget,
            peak: AtomicUsize::new(0),
        }
    }

    pub(crate) fn peak_workers(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Start a worker in a new slot, unless shutdown has begun. `spawn` runs
    /// under the slots lock, so shutdown's [`Self::take_handles`] finds
    /// every worker ever started.
    pub(crate) fn add(
        &self,
        spawn: impl FnOnce(usize) -> Result<JoinHandle<()>, ServeError>,
    ) -> Result<(), ServeError> {
        let mut slots = self.slots.lock();
        if self.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let handle = spawn(slots.len())?;
        slots.push(WorkerSlot { handles: vec![handle], alive: true, ..WorkerSlot::default() });
        let alive = slots.iter().filter(|slot| slot.alive).count();
        self.peak.fetch_max(alive, Ordering::Relaxed);
        Ok(())
    }

    /// Worker `index` is leaving its slot: drained, or `dying` of a panic
    /// that escaped its job. A dying worker starts its replacement in the
    /// slot with `spawn`, unless the slot has restarted `max_restarts` times
    /// in a row already (it gives up) or shutdown has begun. That runs under
    /// the slots lock, where [`Self::add`] reads the shutdown latch too: a
    /// death racing shutdown either starts its replacement before
    /// [`Self::take_handles`] runs, which then finds it, or sees the latch
    /// and starts none. `true` says the replacement could not start: the
    /// slot stays dead, not given up, and the caller hands its place back to
    /// the queue (`JobQueue::unstarted`).
    pub(crate) fn leave(
        &self,
        index: usize,
        dying: bool,
        max_restarts: u32,
        metrics: &Metrics,
        tracer: &Tracer,
        spawn: impl FnOnce(usize) -> Result<JoinHandle<()>, ServeError>,
    ) -> bool {
        let (event, error) = {
            let mut slots = self.slots.lock();
            let slot = &mut slots[index];
            slot.alive = false;
            if !dying || self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            if slot.restarts >= max_restarts {
                slot.gave_up = true;
                ("worker_gave_up", None)
            } else {
                match spawn(index) {
                    Ok(handle) => {
                        slot.handles.push(handle);
                        slot.alive = true;
                        slot.restarts += 1;
                        metrics.worker_restarted();
                        ("worker_restarted", None)
                    }
                    Err(err) => ("worker_respawn_failed", Some(err)),
                }
            }
        };
        let unstarted = error.is_some();
        tracer.instant(SpanKind::Supervisor, event, || {
            let mut attrs = vec![("worker".into(), index.to_string())];
            attrs.extend(error.map(|err| ("error".into(), err.to_string())));
            attrs
        });
        unstarted
    }

    /// Worker `index` survived a job: its slot's deaths so far were no
    /// crash loop, and its restart budget starts over.
    pub(crate) fn survived(&self, index: usize) {
        self.slots.lock()[index].restarts = 0;
    }

    /// Record the job `worker` is about to execute.
    pub(crate) fn begin_job(
        &self,
        worker: usize,
        core: &Arc<JobCore>,
        pipeline: &str,
        budget: Option<Duration>,
    ) {
        self.slots.lock()[worker].current = Some(ActiveJob {
            core: Arc::clone(core),
            pipeline: pipeline.to_string(),
            started: Instant::now(),
            budget,
            last_progress: core.cancel.progress(),
            stuck_flagged: false,
        });
    }

    pub(crate) fn end_job(&self, worker: usize) {
        self.slots.lock()[worker].current = None;
    }

    pub(crate) fn live_workers(&self) -> usize {
        self.slots.lock().iter().filter(|slot| slot.alive).count()
    }

    /// Read the pool's health — `(live, gave_up)` slots — flagging on the
    /// way every job it finds stuck for the first time (see
    /// [`STUCK_MULTIPLIER`]). A flag counts in `stuck_jobs` and emits a
    /// `stuck_job` instant, once per job; it fires no token.
    pub(crate) fn read_health(&self, metrics: &Metrics, tracer: &Tracer) -> (usize, usize) {
        let (mut live, mut gave_up, mut stuck) = (0, 0, Vec::new());
        for (index, slot) in self.slots.lock().iter_mut().enumerate() {
            live += usize::from(slot.alive);
            gave_up += usize::from(slot.gave_up);
            let Some(active) = &mut slot.current else { continue };
            if active.newly_stuck() {
                stuck.push((index, active.pipeline.clone()));
            }
        }
        for (index, pipeline) in stuck {
            metrics.stuck_job();
            tracer.instant(SpanKind::Supervisor, "stuck_job", || {
                vec![("worker".into(), index.to_string()), ("pipeline".into(), pipeline)]
            });
        }
        (live, gave_up)
    }

    /// Take the join handle of every worker thread ever started (for
    /// shutdown). Joining MUST happen with the slots lock released: a dying
    /// worker takes the same lock on its way out ([`Self::leave`]), so
    /// joining under the lock deadlocks.
    pub(crate) fn take_handles(&self) -> Vec<JoinHandle<()>> {
        self.slots.lock().iter_mut().flat_map(|slot| slot.handles.drain(..)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobHandle;
    use crate::job::JobId;
    use lingua_llm_sim::CancelToken;

    /// Supervision over `slots` empty slots, as if their workers had exited.
    fn supervision(slots: usize) -> Supervision {
        let supervision = Supervision::new(slots);
        supervision.slots.lock().resize_with(slots, WorkerSlot::default);
        supervision
    }

    fn no_spawn(_: usize) -> Result<JoinHandle<()>, ServeError> {
        panic!("no worker may start here")
    }

    fn stuck_flags(supervision: &Supervision) -> Vec<bool> {
        let slots = supervision.slots.lock();
        slots
            .iter()
            .map(|slot| slot.current.as_ref().is_some_and(|job| job.stuck_flagged))
            .collect()
    }

    #[test]
    fn worker_guard_leaves_finished_jobs_alone() {
        let supervision = supervision(1);
        supervision.slots.lock()[0].alive = true;
        let core = JobCore::with_cancel(CancelToken::unbounded());
        supervision.begin_job(0, &core, "pipe", None);
        core.finish(Err(ServeError::Shutdown));
        supervision.leave(0, false, 8, &Metrics::new(), &Tracer::disabled(), no_spawn);
        let handle = JobHandle::new(JobId(1), core);
        assert!(matches!(handle.wait().unwrap_err(), ServeError::Shutdown));
        assert_eq!(supervision.live_workers(), 0, "a worker leaving marks its slot dead");
    }

    #[test]
    fn add_starts_workers_and_none_after_shutdown() {
        let supervision = Supervision::new(1);
        let spawn = |_| Ok(std::thread::spawn(|| {}));
        for _ in 0..2 {
            supervision.add(spawn).unwrap();
        }
        assert_eq!((supervision.live_workers(), supervision.peak_workers()), (2, 2));
        let refused = supervision.add(|_| Err(ServeError::Spawn { reason: "no".into() }));
        assert!(refused.is_err(), "a failed spawn is reported");
        assert_eq!(supervision.slots.lock().len(), 2, "and leaves no slot behind");
        supervision.shutdown.store(true, Ordering::Release);
        supervision.add(spawn).unwrap();
        assert_eq!(supervision.slots.lock().len(), 2, "nothing starts after shutdown");
        let (metrics, tracer) = (Metrics::new(), Tracer::disabled());
        supervision.leave(0, true, 8, &metrics, &tracer, no_spawn);
        assert_eq!(supervision.read_health(&metrics, &tracer), (1, 0), "not even a replacement");
        for handle in supervision.take_handles() {
            handle.join().unwrap();
        }
    }

    #[test]
    fn a_dying_worker_restarts_its_slot_until_the_budget_is_spent() {
        let supervision = supervision(2);
        let (metrics, tracer) = (Metrics::new(), Tracer::disabled());
        let restart = |_| Ok(std::thread::spawn(|| {}));
        assert!(!supervision.leave(0, true, 1, &metrics, &tracer, restart));
        assert_eq!(supervision.read_health(&metrics, &tracer), (1, 0), "restarted in place");
        assert_eq!(metrics.snapshot().health.workers_restarted, 1);
        supervision.survived(0);
        assert!(!supervision.leave(0, true, 1, &metrics, &tracer, restart));
        assert_eq!(
            supervision.read_health(&metrics, &tracer),
            (1, 0),
            "a survived job starts the budget over"
        );
        supervision.leave(0, true, 1, &metrics, &tracer, no_spawn);
        assert_eq!(supervision.read_health(&metrics, &tracer), (0, 1), "two deaths in a row");
        let refused = |_| Err(ServeError::Spawn { reason: "no".into() });
        assert!(
            supervision.leave(1, true, 1, &metrics, &tracer, refused),
            "a replacement that cannot start hands its place back"
        );
        assert_eq!(supervision.read_health(&metrics, &tracer), (0, 1), "dead, not given up");
        assert_eq!(metrics.snapshot().health.workers_restarted, 2);
        let handles = supervision.take_handles();
        assert_eq!(handles.len(), 2, "the replacements are kept for shutdown to join");
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn watchdog_flags_only_stalled_over_budget_jobs() {
        let supervision = supervision(2);
        let (metrics, tracer) = (Metrics::new(), Tracer::disabled());
        // Worker 0: over budget and stalled — must be flagged.
        let stalled = JobCore::with_cancel(CancelToken::unbounded());
        supervision.begin_job(0, &stalled, "stalled", Some(Duration::from_millis(1)));
        // Worker 1: no deadline — there is no budget to judge it by.
        let unbounded = JobCore::with_cancel(CancelToken::unbounded());
        supervision.begin_job(1, &unbounded, "unbounded", None);
        std::thread::sleep(Duration::from_millis(10));

        // First read: the stalled job is over 4×1ms with an unchanged heartbeat.
        supervision.read_health(&metrics, &tracer);
        assert_eq!(stuck_flags(&supervision), [true, false]);
        assert_eq!(metrics.snapshot().health.stuck_jobs, 1);
        assert!(!stalled.cancel.explicitly_cancelled(), "the flag fires no token");

        // Second read: already flagged — not double-counted.
        supervision.read_health(&metrics, &tracer);
        assert_eq!(stuck_flags(&supervision), [true, false]);
        assert_eq!(metrics.snapshot().health.stuck_jobs, 1);
    }

    #[test]
    fn watchdog_spares_a_job_whose_heartbeat_advances() {
        let supervision = supervision(1);
        let (metrics, tracer) = (Metrics::new(), Tracer::disabled());
        let core = JobCore::with_cancel(CancelToken::unbounded());
        supervision.begin_job(0, &core, "slow-but-alive", Some(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(10));
        core.cancel.touch();
        supervision.read_health(&metrics, &tracer);
        assert_eq!(
            metrics.snapshot().health.stuck_jobs,
            0,
            "progress since the last read spares it"
        );
        // Once the heartbeat stalls, the next read flags it.
        supervision.read_health(&metrics, &tracer);
        assert_eq!(stuck_flags(&supervision), [true]);
        assert_eq!(metrics.snapshot().health.stuck_jobs, 1);
    }
}
