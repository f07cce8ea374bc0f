//! Shared by the suites that need a journal write to fail under a live
//! server.

use lingua_durable::{SimStorage, Storage};
use lingua_ml::sync::Mutex;
use std::io;
use std::sync::Arc;

/// Sim storage whose appends fail once [`FailNextAppend::arm`]ed — a
/// transient write error (disk full, EIO), after which the log works again.
pub(crate) struct FailNextAppend {
    inner: Arc<SimStorage>,
    /// Appends still to let through, then appends to fail.
    plan: Mutex<(usize, usize)>,
}

impl FailNextAppend {
    pub(crate) fn over(inner: Arc<SimStorage>) -> Arc<FailNextAppend> {
        Arc::new(FailNextAppend { inner, plan: Mutex::new((0, 0)) })
    }

    /// Fail the next append.
    pub(crate) fn arm(&self) {
        self.arm_after(0, 1);
    }

    /// Let `skip` appends through, then fail the `fail` after them.
    pub(crate) fn arm_after(&self, skip: usize, fail: usize) {
        *self.plan.lock() = (skip, fail);
    }
}

impl Storage for FailNextAppend {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let failing = {
            let mut plan = self.plan.lock();
            match *plan {
                (0, 0) => false,
                (0, fail) => {
                    plan.1 = fail - 1;
                    true
                }
                (skip, _) => {
                    plan.0 = skip - 1;
                    false
                }
            }
        };
        if failing {
            return Err(io::Error::other("injected append failure"));
        }
        self.inner.append(bytes)
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        self.inner.read()
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.replace(bytes)
    }

    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }
}
