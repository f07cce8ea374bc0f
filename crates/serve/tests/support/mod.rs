//! Shared by the suites that need a journal write to fail under a live
//! server.

use lingua_durable::{SimStorage, Storage};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Sim storage whose next `append` fails once [`FailNextAppend::arm`]ed — a
/// transient write error (disk full, EIO), after which the log works again.
pub struct FailNextAppend {
    inner: Arc<SimStorage>,
    armed: AtomicBool,
}

impl FailNextAppend {
    pub fn over(inner: Arc<SimStorage>) -> Arc<FailNextAppend> {
        Arc::new(FailNextAppend { inner, armed: AtomicBool::new(false) })
    }

    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }
}

impl Storage for FailNextAppend {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        if self.armed.swap(false, Ordering::SeqCst) {
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
