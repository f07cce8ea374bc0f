//! Pluggable journal storage: a real file and a deterministic in-memory sim.
//!
//! The journal only ever needs three operations — append bytes, read the
//! whole log back, and atomically replace the log with a compacted prefix —
//! so that is the whole trait. Keeping the surface this small is what makes
//! the crash-injection harness honest: the in-memory [`SimStorage`] behaves
//! byte-for-byte like a file that survives the process, and tests can tear
//! or flip its tail directly.

use lingua_ml::sync::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Durable byte log under the journal.
pub trait Storage: Send + Sync {
    /// Append bytes to the end of the log.
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Read the entire log from the beginning.
    fn read(&self) -> io::Result<Vec<u8>>;
    /// Atomically replace the whole log (checkpoint compaction). After a
    /// crash the log must be either the old or the new contents, never a
    /// mix.
    fn replace(&self, bytes: &[u8]) -> io::Result<()>;
    /// Make appended bytes durable.
    fn flush(&self) -> io::Result<()>;
}

/// File-backed storage. `replace` writes and syncs a sibling temp file,
/// renames it over the log and syncs the directory, which is the standard
/// atomic-and-durable-on-POSIX compaction move.
pub struct FileStorage {
    path: PathBuf,
    file: Mutex<File>,
}

impl FileStorage {
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self { path, file: Mutex::new(file) })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Storage for FileStorage {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.file.lock().write_all(bytes)
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        // Flush buffered appends first so the read sees them.
        self.file.lock().flush()?;
        let mut buf = Vec::new();
        File::open(&self.path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        let mut file = self.file.lock();
        let tmp = self.path.with_extension("journal.tmp");
        {
            let mut t = File::create(&tmp)?;
            t.write_all(bytes)?;
            t.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Reopen so subsequent appends land on the new inode, not the
        // renamed-away one.
        *file = OpenOptions::new().append(true).open(&self.path)?;
        // The rename lives in the directory: until that is synced, power
        // loss can bring the old log back. A bare file name has the empty
        // path as its parent, meaning the current directory.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()
    }

    fn flush(&self) -> io::Result<()> {
        let mut file = self.file.lock();
        file.flush()?;
        file.sync_all()
    }
}

/// Deterministic in-memory storage for tests and the crash harness. The
/// buffer plays the role of the disk: bytes present here "survived the
/// crash".
#[derive(Default)]
pub struct SimStorage {
    bytes: Mutex<Vec<u8>>,
}

impl SimStorage {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Copy of the current log, for harness assertions.
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.lock().clone()
    }

    /// Truncate the log to `len` bytes — a torn tail write.
    pub fn truncate(&self, len: usize) {
        let mut bytes = self.bytes.lock();
        let len = len.min(bytes.len());
        bytes.truncate(len);
    }

    /// Flip one bit at `pos` — media corruption in the tail.
    pub fn flip_bit(&self, pos: usize, bit: u8) {
        let mut bytes = self.bytes.lock();
        if let Some(b) = bytes.get_mut(pos) {
            *b ^= 1 << (bit % 8);
        }
    }

    pub fn len(&self) -> usize {
        self.bytes.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.lock().is_empty()
    }
}

impl Storage for SimStorage {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        *self.bytes.lock() = bytes.to_vec();
        Ok(())
    }

    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_storage_append_read_replace() {
        let s = SimStorage::new();
        s.append(b"abc").unwrap();
        s.append(b"def").unwrap();
        assert_eq!(s.read().unwrap(), b"abcdef");
        s.replace(b"zz").unwrap();
        assert_eq!(s.read().unwrap(), b"zz");
        s.truncate(1);
        assert_eq!(s.read().unwrap(), b"z");
    }

    #[test]
    fn file_storage_roundtrip_and_replace() {
        let dir = std::env::temp_dir().join(format!(
            "lingua-durable-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.journal");
        {
            let s = FileStorage::open(&path).unwrap();
            s.append(b"one").unwrap();
            s.append(b"two").unwrap();
            s.flush().unwrap();
            assert_eq!(s.read().unwrap(), b"onetwo");
            s.replace(b"compacted").unwrap();
            s.append(b"+tail").unwrap();
            assert_eq!(s.read().unwrap(), b"compacted+tail");
        }
        // Reopening sees the same bytes: the log survived the "process".
        let s = FileStorage::open(&path).unwrap();
        assert_eq!(s.read().unwrap(), b"compacted+tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replace_works_on_a_path_with_no_parent_component() {
        // Relative to the test's working directory; the name is this
        // test's alone and the file is removed on the way out.
        let name = format!("lingua-durable-bare-{}.journal", std::process::id());
        assert_eq!(Path::new(&name).parent(), Some(Path::new("")));
        let s = FileStorage::open(&name).unwrap();
        s.append(b"old").unwrap();
        let replaced = s.replace(b"new");
        s.append(b"+tail").unwrap();
        let read = s.read();
        std::fs::remove_file(&name).ok();
        replaced.unwrap();
        assert_eq!(read.unwrap(), b"new+tail");
    }
}
