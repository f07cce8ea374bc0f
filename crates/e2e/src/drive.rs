//! The closed-loop load generator: a curation driver that submits and
//! waits, not independent users.
//!
//! One submitter thread keeps `WINDOW` jobs outstanding; the calling thread
//! collects — it waits on the handles in submission order, stamps each
//! completion and hands the submitter its slot back. Two generator threads,
//! which is `nproc` on the container the sizes were fixed on; never more.

use crate::inputs::Inputs;
use crate::workload::WINDOW;
use lingua_serve::{JobHandle, JobOutput, PipelineServer, ServeError, SubmitRequest};
use std::ops::Range;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Counting semaphore over the outstanding-jobs window.
struct Slots {
    free: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    fn acquire(&self) {
        let mut free = self.free.lock().expect("slots mutex poisoned");
        while *free == 0 {
            free = self.freed.wait(free).expect("slots mutex poisoned");
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock().expect("slots mutex poisoned") += 1;
        self.freed.notify_one();
    }
}

/// What one phase's jobs did, in submission order.
#[derive(Default)]
pub struct Drive {
    pub wall: Duration,
    /// Just before `submit` to `JobHandle::wait` returning, per finished job.
    pub latency_ms: Vec<f64>,
    /// `JobOutput::wall` (pipeline execution) per finished job.
    pub exec_ms: Vec<f64>,
    /// Time inside `submit`, per accepted job.
    pub submit_us: Vec<f64>,
    pub attempted: usize,
    /// Refused submissions plus jobs that came back as errors.
    pub failed: usize,
}

impl Drive {
    /// Add a later slice of the same phase.
    pub fn absorb(&mut self, slice: Drive) {
        self.wall += slice.wall;
        self.latency_ms.extend(slice.latency_ms);
        self.exec_ms.extend(slice.exec_ms);
        self.submit_us.extend(slice.submit_us);
        self.attempted += slice.attempted;
        self.failed += slice.failed;
    }
}

enum Submitted {
    Accepted { index: usize, started: Instant, handle: JobHandle },
    Refused,
}

/// Run jobs `range` of `inputs` through `server`; `on_done` sees every
/// finished job's output on the collector thread.
pub fn drive(
    server: &PipelineServer,
    inputs: &Inputs,
    range: Range<usize>,
    mut on_done: impl FnMut(usize, &Arc<JobOutput>),
) -> Drive {
    let (pipeline, _) = inputs.pipeline();
    let slots = Slots { free: Mutex::new(WINDOW), freed: Condvar::new() };
    let (sender, receiver) = mpsc::channel();
    let mut outcome = Drive { attempted: range.len(), ..Drive::default() };
    let mut submit_us = Vec::with_capacity(range.len());
    let start = Instant::now();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            for index in range {
                slots.acquire();
                let mut request = SubmitRequest::new(pipeline);
                request.inputs = inputs.request_inputs(index);
                let started = Instant::now();
                let submitted = server.submit(request);
                let took = started.elapsed();
                let message = match submitted {
                    Ok(handle) => {
                        submit_us.push(took.as_secs_f64() * 1e6);
                        Submitted::Accepted { index, started, handle }
                    }
                    Err(_) => Submitted::Refused,
                };
                if sender.send(message).is_err() {
                    break;
                }
            }
            drop(sender);
        });
        for message in &receiver {
            match message {
                Submitted::Accepted { index, started, handle } => {
                    let result: Result<Arc<JobOutput>, ServeError> = handle.wait();
                    let latency = started.elapsed();
                    slots.release();
                    match result {
                        Ok(output) => {
                            outcome.latency_ms.push(latency.as_secs_f64() * 1e3);
                            outcome.exec_ms.push(output.wall.as_secs_f64() * 1e3);
                            on_done(index, &output);
                        }
                        Err(_) => outcome.failed += 1,
                    }
                }
                Submitted::Refused => {
                    slots.release();
                    outcome.failed += 1;
                }
            }
        }
        submitter.join().expect("submitter thread panicked");
    });
    outcome.wall = start.elapsed();
    outcome.submit_us = submit_us;
    outcome
}
