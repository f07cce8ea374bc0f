//! Worker-pool supervision: liveness tracking, crash resurrection with a
//! budgeted exponential backoff, and a stuck-job watchdog.
//!
//! The worker pool's failure story has three tiers:
//!
//! 1. **Contained panics** — a pipeline that panics inside a worker is caught
//!    at the job boundary (`catch_unwind` in `server::process`). The job
//!    fails with `ServeError::Panicked`, the worker discards its possibly
//!    poisoned pipeline instance, and the *thread keeps serving*.
//! 2. **Worker death** — a panic that escapes containment (serving-layer
//!    bookkeeping bugs, or the [`EscapePanic`] test sentinel) kills the
//!    thread. A drop guard (`WorkerGuard`) marks the slot dead. No job dies
//!    with it: replication and execution both run inside the containment,
//!    and the sentinel is re-raised only after its job is settled. The
//!    supervisor thread notices the dead slot and restarts it — up to
//!    `ServeConfig::max_worker_restarts` times per slot, with exponential
//!    backoff — restoring the pool to full strength.
//! 3. **Stuck jobs** — a job that stops making heartbeat progress after
//!    running `ServeConfig::stuck_multiplier` times its deadline budget is
//!    flagged and nudged with a cooperative cancel. (A module wedged in
//!    foreign code cannot be killed — threads are not processes — but the
//!    nudge stops every cancellation-aware layer under it from doing further
//!    work, and the flag makes the wedge visible in `HealthSnapshot`.)
//!
//! The tick does not size the pool. A worker started when a waiting job lent
//! its CPU permit to a queued one (`server::add_worker`) gets an ordinary
//! slot: it parks in the queue like any other, never retires, and is
//! restarted like any other when it dies.

use crate::error::ServeError;
use crate::job::JobCore;
use crate::metrics::Metrics;
use lingua_ml::sync::Mutex;
use lingua_trace::{SpanKind, Tracer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Panic payload that deliberately escapes the worker's per-job containment.
///
/// `server::process` re-raises a panic carrying this payload *after* settling
/// its job, killing the worker thread. Chaos tests
/// panic with `std::panic::panic_any(EscapePanic)` to prove the supervisor
/// restores the pool; production modules have no reason to use it.
pub struct EscapePanic;

/// What a worker is executing right now, as the watchdog sees it.
pub(crate) struct ActiveJob {
    pub(crate) core: Arc<JobCore>,
    pub(crate) pipeline: String,
    pub(crate) started: Instant,
    /// Deadline budget at execution start (`None` = unbounded job; the
    /// watchdog has no scale to judge it against and leaves it alone).
    pub(crate) budget: Option<Duration>,
    /// Heartbeat reading at the last watchdog tick.
    pub(crate) last_progress: u64,
    pub(crate) stuck_flagged: bool,
}

/// One worker thread's supervision record.
pub(crate) struct WorkerSlot {
    pub(crate) handle: Option<JoinHandle<()>>,
    pub(crate) alive: bool,
    pub(crate) gave_up: bool,
    /// Completed restarts of this slot.
    pub(crate) restarts: u32,
    /// Earliest instant the next restart attempt may run (backoff).
    pub(crate) next_restart_at: Option<Instant>,
    pub(crate) current: Option<ActiveJob>,
}

impl WorkerSlot {
    fn empty() -> WorkerSlot {
        WorkerSlot {
            handle: None,
            alive: false,
            gave_up: false,
            restarts: 0,
            next_restart_at: None,
            current: None,
        }
    }
}

/// Shared supervision state: one slot per worker thread ever started, plus
/// the shutdown latch.
pub(crate) struct Supervision {
    pub(crate) slots: Mutex<Vec<WorkerSlot>>,
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
        slots.push(WorkerSlot { handle: Some(handle), alive: true, ..WorkerSlot::empty() });
        let alive = slots.iter().filter(|slot| slot.alive).count();
        self.peak.fetch_max(alive, Ordering::Relaxed);
        Ok(())
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

    pub(crate) fn gave_up_count(&self) -> usize {
        self.slots.lock().iter().filter(|slot| slot.gave_up).count()
    }

    /// Take every worker join handle (for shutdown). Joining MUST happen
    /// with the slots lock released: a dying worker's [`WorkerGuard`] takes
    /// the same lock on its way out, so joining under the lock deadlocks.
    pub(crate) fn take_handles(&self) -> Vec<JoinHandle<()>> {
        self.slots.lock().iter_mut().filter_map(|slot| slot.handle.take()).collect()
    }
}

/// Drop guard a worker thread holds for its whole life. Runs on every exit —
/// clean drain or panic unwind — and marks the slot dead so the supervisor
/// can see it. Every job the thread took was settled before it could die.
pub(crate) struct WorkerGuard {
    supervision: Arc<Supervision>,
    index: usize,
}

impl WorkerGuard {
    pub(crate) fn new(supervision: Arc<Supervision>, index: usize) -> WorkerGuard {
        WorkerGuard { supervision, index }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.supervision.slots.lock()[self.index].alive = false;
    }
}

/// Supervisor tuning, extracted from `ServeConfig` at server start.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisePolicy {
    pub(crate) max_worker_restarts: u32,
    pub(crate) restart_backoff: Duration,
    pub(crate) tick: Duration,
    pub(crate) stuck_multiplier: u32,
}

impl SupervisePolicy {
    /// Exponential backoff before restart number `restarts + 1`, capped so
    /// the shift cannot overflow.
    fn backoff(&self, restarts: u32) -> Duration {
        self.restart_backoff.saturating_mul(1u32 << restarts.min(10))
    }
}

/// The supervisor thread body: tick until shutdown, running the watchdog
/// and restart passes on every tick. `spawn` creates the worker thread for a
/// slot index (the same routine that started it). Shutdown unparks the
/// thread, so a long tick never delays it.
pub(crate) fn supervisor_loop(
    supervision: &Arc<Supervision>,
    metrics: &Arc<Metrics>,
    tracer: &Tracer,
    policy: SupervisePolicy,
    spawn: impl Fn(usize) -> Result<JoinHandle<()>, ServeError>,
) {
    while !supervision.shutdown.load(Ordering::Acquire) {
        watchdog_pass(supervision, metrics, tracer, policy);
        restart_pass(supervision, metrics, tracer, policy, &spawn);
        std::thread::park_timeout(policy.tick);
    }
}

/// Flag jobs that blew through `stuck_multiplier ×` their deadline budget
/// without heartbeat progress, and nudge them with a cooperative cancel.
fn watchdog_pass(
    supervision: &Arc<Supervision>,
    metrics: &Arc<Metrics>,
    tracer: &Tracer,
    policy: SupervisePolicy,
) {
    let mut stuck: Vec<(usize, String)> = Vec::new();
    {
        let mut slots = supervision.slots.lock();
        for (index, slot) in slots.iter_mut().enumerate() {
            let Some(active) = &mut slot.current else { continue };
            let Some(budget) = active.budget else { continue };
            if active.stuck_flagged {
                continue;
            }
            let allowed = budget.saturating_mul(policy.stuck_multiplier);
            if active.started.elapsed() <= allowed {
                continue;
            }
            let progress = active.core.cancel.progress();
            if progress != active.last_progress {
                // Slow but advancing: the deadline check inside the executor
                // will stop it at the next cooperative check-in.
                active.last_progress = progress;
                continue;
            }
            active.stuck_flagged = true;
            active.core.cancel.cancel();
            stuck.push((index, active.pipeline.clone()));
        }
    }
    for (index, pipeline) in stuck {
        metrics.stuck_job();
        tracer.instant(SpanKind::Supervisor, "stuck_job", || {
            vec![("worker".into(), index.to_string()), ("pipeline".into(), pipeline.clone())]
        });
    }
}

/// Restart dead worker slots within their budgets. Joins and spawns happen
/// with the slots lock released (see [`Supervision::take_handles`]).
fn restart_pass(
    supervision: &Arc<Supervision>,
    metrics: &Arc<Metrics>,
    tracer: &Tracer,
    policy: SupervisePolicy,
    spawn: &impl Fn(usize) -> Result<JoinHandle<()>, ServeError>,
) {
    let now = Instant::now();
    // Phase 1 (under the lock): classify dead slots, claim the ones due for
    // a restart by taking their stale handles.
    let mut due: Vec<(usize, Option<JoinHandle<()>>)> = Vec::new();
    let mut exhausted: Vec<usize> = Vec::new();
    {
        let mut slots = supervision.slots.lock();
        for (index, slot) in slots.iter_mut().enumerate() {
            if slot.alive || slot.gave_up {
                continue;
            }
            if slot.restarts >= policy.max_worker_restarts {
                slot.gave_up = true;
                exhausted.push(index);
                continue;
            }
            match slot.next_restart_at {
                None => {
                    // Just noticed the death: arm the backoff timer.
                    slot.next_restart_at = Some(now + policy.backoff(slot.restarts));
                }
                Some(at) if now >= at => due.push((index, slot.handle.take())),
                Some(_) => {}
            }
        }
    }
    for index in exhausted {
        tracer.instant(SpanKind::Supervisor, "worker_gave_up", || {
            vec![("worker".into(), index.to_string())]
        });
    }
    // Phase 2 (lock released): reap the corpse, spawn the replacement.
    for (index, stale) in due {
        if let Some(handle) = stale {
            let _ = handle.join();
        }
        match spawn(index) {
            Ok(handle) => {
                {
                    let mut slots = supervision.slots.lock();
                    let slot = &mut slots[index];
                    slot.handle = Some(handle);
                    slot.alive = true;
                    slot.restarts += 1;
                    slot.next_restart_at = None;
                }
                metrics.worker_restarted();
                tracer.instant(SpanKind::Supervisor, "worker_restarted", || {
                    vec![("worker".into(), index.to_string())]
                });
            }
            Err(err) => {
                // Spawn failure burns a restart attempt and backs off again.
                let mut slots = supervision.slots.lock();
                let slot = &mut slots[index];
                slot.restarts += 1;
                slot.next_restart_at = Some(Instant::now() + policy.backoff(slot.restarts));
                drop(slots);
                tracer.instant(SpanKind::Supervisor, "worker_respawn_failed", || {
                    vec![("worker".into(), index.to_string()), ("error".into(), err.to_string())]
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobHandle;
    use crate::job::JobId;

    /// Supervision over `slots` empty slots, as if their workers had exited.
    fn supervision(slots: usize) -> Arc<Supervision> {
        let supervision = Arc::new(Supervision::new(slots));
        supervision.slots.lock().resize_with(slots, WorkerSlot::empty);
        supervision
    }

    #[test]
    fn worker_guard_leaves_finished_jobs_alone() {
        let supervision = supervision(1);
        let core = JobCore::new();
        supervision.begin_job(0, &core, "pipe", None);
        core.finish(Err(ServeError::Shutdown));
        drop(WorkerGuard::new(Arc::clone(&supervision), 0));
        let handle = JobHandle::new(JobId(1), core);
        assert!(matches!(handle.wait().unwrap_err(), ServeError::Shutdown));
        assert_eq!(supervision.live_workers(), 0, "the guard marks its slot dead");
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
        for handle in supervision.take_handles() {
            handle.join().unwrap();
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let policy = SupervisePolicy {
            max_worker_restarts: 8,
            restart_backoff: Duration::from_millis(2),
            tick: Duration::from_millis(1),
            stuck_multiplier: 4,
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(2));
        assert_eq!(policy.backoff(1), Duration::from_millis(4));
        assert_eq!(policy.backoff(3), Duration::from_millis(16));
        // The shift is capped; huge restart counts must not overflow.
        assert_eq!(policy.backoff(40), Duration::from_millis(2 * 1024));
    }

    #[test]
    fn watchdog_flags_only_stalled_over_budget_jobs() {
        let supervision = supervision(2);
        let metrics = Arc::new(Metrics::new());
        let tracer = Tracer::disabled();
        let policy = SupervisePolicy {
            max_worker_restarts: 8,
            restart_backoff: Duration::from_millis(1),
            tick: Duration::from_millis(1),
            stuck_multiplier: 2,
        };
        // Worker 0: over budget and stalled — must be flagged and nudged.
        let stalled = JobCore::new();
        supervision.begin_job(0, &stalled, "stalled", Some(Duration::from_millis(1)));
        // Worker 1: no deadline — the watchdog has no budget to judge by.
        let unbounded = JobCore::new();
        supervision.begin_job(1, &unbounded, "unbounded", None);
        std::thread::sleep(Duration::from_millis(5));

        // First pass: stalled job is over 2×1ms with an unchanged heartbeat.
        watchdog_pass(&supervision, &metrics, &tracer, policy);
        assert!(stalled.cancel.explicitly_cancelled(), "watchdog nudges the stuck job");
        assert!(!unbounded.cancel.explicitly_cancelled());
        assert_eq!(metrics.snapshot().health.stuck_jobs, 1);

        // Second pass: already flagged — not double-counted.
        watchdog_pass(&supervision, &metrics, &tracer, policy);
        assert_eq!(metrics.snapshot().health.stuck_jobs, 1);
    }

    #[test]
    fn watchdog_spares_a_job_whose_heartbeat_advances() {
        let supervision = supervision(1);
        let metrics = Arc::new(Metrics::new());
        let tracer = Tracer::disabled();
        let policy = SupervisePolicy {
            max_worker_restarts: 8,
            restart_backoff: Duration::from_millis(1),
            tick: Duration::from_millis(1),
            stuck_multiplier: 2,
        };
        let core = JobCore::new();
        supervision.begin_job(0, &core, "slow-but-alive", Some(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        core.cancel.touch();
        watchdog_pass(&supervision, &metrics, &tracer, policy);
        assert!(!core.cancel.explicitly_cancelled(), "progress since the last tick spares it");
        // Once the heartbeat stalls, the next pass flags it.
        watchdog_pass(&supervision, &metrics, &tracer, policy);
        assert!(core.cancel.explicitly_cancelled());
        assert_eq!(metrics.snapshot().health.stuck_jobs, 1);
    }
}
