//! lingua-durable — write-ahead journaling and checkpointed crash recovery.
//!
//! Every layer of the serving stack keeps its state in memory: the serve
//! queue, stream window state, the cost ledger. This crate makes
//! crash-stop failure a first-class, tested event instead of data loss:
//!
//! - [`frame`]: CRC-32-framed record encoding — a frame is accepted only
//!   when complete and checksum-valid, so a torn tail is detected, never
//!   misread.
//! - [`storage`]: the pluggable byte log — a real file ([`FileStorage`])
//!   and a deterministic in-memory sim ([`SimStorage`]) for the harness.
//! - [`record`]: the durable vocabulary — serve-job lifecycle and stream
//!   engine state, plus compacted [`Checkpoint`]s.
//! - [`codec`]: the payload encoding — one binary form per type, bit-exact
//!   for floats, strict and total on the way back in.
//! - [`reader`]: the front-to-back scan, which tells a *damaged* tail
//!   (truncated) from an intact frame it cannot read (never touched).
//! - [`journal`]: the write-ahead [`Journal`] with an always-current fold,
//!   checkpoint compaction, and longest-valid-prefix recovery.
//! - [`kill`]: the crash-injection harness — named [`KillPoint`]s and a
//!   seeded [`CrashInjector`] that kills the simulated process at an exact
//!   occurrence of an exact instant.
//!
//! The recovery invariants (proven by the crash matrix in
//! `lingua-serve`/`lingua-stream` tests and the corruption property tests here):
//!
//! 1. **Prefix durability** — whatever prefix of records reached storage is
//!    recovered, wherever the process died.
//! 2. **Exactly-once effects** — recovered finished jobs answer retries
//!    from the restored result cache; unfinished jobs re-execute; no job's
//!    effect is applied twice.
//! 3. **Ledger reconciliation** — journaled billed usage plus re-executed
//!    billed usage equals the uninterrupted run's bill, to the cent.
//! 4. **Damage tolerance** — a torn or bit-flipped tail costs at most the
//!    damaged suffix, counted in `corrupt_records_skipped`, never a panic.
//! 5. **Foreign bytes are not damage** — a checksum-valid frame in a format
//!    this build does not decode fails `Journal::open` with `InvalidData`
//!    and is never truncated away.
//!
//! [`json`] is a leftover the journal itself no longer uses; see its
//! module doc.

pub mod codec;
pub mod frame;
pub mod journal;
pub mod json;
pub mod kill;
pub mod reader;
pub mod record;
pub mod storage;

pub use journal::{Journal, JournalTuning, Recovered};
pub use kill::{CrashInjector, KillPoint};
pub use reader::{JournalReader, ScanResult};
pub use record::{
    Checkpoint, FinishedJob, JournalRecord, PendingJob, RecoverySnapshot, StreamCheckpoint,
    WindowCloseRecord, WindowReportRecord,
};
pub use storage::{FileStorage, SimStorage, Storage};
