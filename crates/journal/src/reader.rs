//! Journal scanning: longest-valid-prefix recovery.
//!
//! A scan ends one of three ways, and the difference decides what
//! [`crate::Journal::open`] may do to the bytes it was given:
//!
//! - **clean** — the buffer ends on a frame boundary;
//! - **damaged** — bytes remain but no checksum-valid frame starts there
//!   (torn write, bit flip). That suffix is garbage by proof and is
//!   truncated;
//! - **unreadable** — the next frame is intact (its CRC matches) but its
//!   payload is not something this build decodes: another format byte (a
//!   log written before the binary codec, or by a later one) or a
//!   [`CodecError`]. Those bytes are somebody's data, so they are never cut.

use crate::codec::CodecError;
use crate::frame::{decode_frame, FrameOutcome};
use crate::record::JournalRecord;

/// Result of scanning a journal byte log.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Every record in the longest valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of that valid prefix. Bytes past this point are the
    /// damaged suffix (torn write or bit flip) and must be truncated
    /// before new appends, or they would poison the next recovery —
    /// unless `unreadable` is set, in which case they must be left alone.
    pub valid_len: usize,
    /// 1 when a damaged suffix was found, else 0. Frame boundaries are
    /// only discoverable front-to-back, so damage always costs exactly one
    /// contiguous suffix — never interior records.
    pub corrupt_records_skipped: u64,
    /// Why the checksum-valid frame at `valid_len` could not be decoded,
    /// when that is what stopped the scan.
    pub unreadable: Option<CodecError>,
}

/// Reads a journal back as typed records, tolerating a damaged tail.
pub struct JournalReader;

impl JournalReader {
    /// Walk frames from the front; stop at the first torn, corrupt, or
    /// undecodable frame. Never panics on arbitrary bytes.
    pub fn scan(bytes: &[u8]) -> ScanResult {
        let mut scan = ScanResult::default();
        loop {
            match decode_frame(bytes, scan.valid_len) {
                FrameOutcome::Valid { payload, next } => match crate::codec::decode(payload) {
                    Ok(record) => {
                        scan.records.push(record);
                        scan.valid_len = next;
                    }
                    Err(error) => {
                        scan.unreadable = Some(error);
                        break;
                    }
                },
                FrameOutcome::End => break,
                FrameOutcome::Damaged => {
                    scan.corrupt_records_skipped = 1;
                    break;
                }
            }
        }
        scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::build_frame;
    use crate::record::{JournalRecord, PendingJob};
    use std::collections::BTreeMap;

    fn accepted(fp: u64) -> JournalRecord {
        JournalRecord::JobAccepted(PendingJob {
            pipeline: "p".into(),
            fingerprint: fp,
            inputs: BTreeMap::new(),
        })
    }

    fn log_of(n: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for fp in 0..n {
            bytes.extend(build_frame(|out| crate::codec::encode_into(&accepted(fp), out)));
        }
        bytes
    }

    #[test]
    fn clean_log_scans_fully() {
        let bytes = log_of(5);
        let scan = JournalReader::scan(&bytes);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.corrupt_records_skipped, 0);
    }

    #[test]
    fn torn_tail_keeps_prefix_and_counts_one() {
        let bytes = log_of(4);
        let torn = &bytes[..bytes.len() - 3];
        let scan = JournalReader::scan(torn);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.corrupt_records_skipped, 1);
        assert!(scan.valid_len < torn.len());
    }

    #[test]
    fn empty_log_is_clean() {
        let scan = JournalReader::scan(&[]);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.corrupt_records_skipped, 0);
    }
}
