//! CRC-framed record encoding.
//!
//! Every journal record is written as one frame:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]
//! ```
//!
//! `crc32` is CRC-32/IEEE over the payload alone. The frame layout is the
//! entire corruption-detection story: a frame is accepted only when the
//! header is complete, the declared length fits inside the remaining bytes,
//! and the checksum matches. Anything else — a torn header, a torn payload,
//! a bit flip anywhere in the frame — makes the frame *and everything after
//! it* unreadable, because frame boundaries are only discoverable by walking
//! lengths from the front. Recovery therefore keeps the longest valid prefix
//! and counts a single damaged suffix, which is exactly the crash-stop
//! failure model: a torn tail write, never interior corruption.

/// Byte length of the `[len][crc32]` frame header.
pub const FRAME_HEADER: usize = 8;

/// Largest payload a frame may declare. Guards the scanner against reading
/// a torn header whose garbage length would otherwise look like a
/// multi-gigabyte record.
pub const MAX_FRAME_PAYLOAD: usize = 64 * 1024 * 1024;

/// CRC-32/IEEE (the Ethernet/zip polynomial, reflected form 0xEDB88320),
/// implemented here so durability adds no external dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Build one frame whose payload `fill` writes in place: the header is
/// reserved first and back-patched once the payload's length and checksum
/// are known, so the payload is never copied.
pub fn build_frame(fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = vec![0; FRAME_HEADER];
    fill(&mut frame);
    let payload = &frame[FRAME_HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Encode one payload as a framed record.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    build_frame(|frame| frame.extend_from_slice(payload))
}

/// Outcome of attempting to read the frame starting at an offset.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameOutcome<'a> {
    /// A complete, checksum-valid frame; `next` is the offset just past it.
    Valid { payload: &'a [u8], next: usize },
    /// The buffer ends exactly at the offset: a clean end of journal.
    End,
    /// Bytes remain but no valid frame starts here (torn write or bit
    /// flip). The scanner must stop: everything from this offset on is the
    /// damaged suffix.
    Damaged,
}

/// Decode the frame starting at `offset` in `buf`.
pub fn decode_frame(buf: &[u8], offset: usize) -> FrameOutcome<'_> {
    if offset == buf.len() {
        return FrameOutcome::End;
    }
    if offset + FRAME_HEADER > buf.len() {
        return FrameOutcome::Damaged;
    }
    let len = u32::from_le_bytes([buf[offset], buf[offset + 1], buf[offset + 2], buf[offset + 3]])
        as usize;
    let crc =
        u32::from_le_bytes([buf[offset + 4], buf[offset + 5], buf[offset + 6], buf[offset + 7]]);
    if len > MAX_FRAME_PAYLOAD {
        return FrameOutcome::Damaged;
    }
    let start = offset + FRAME_HEADER;
    let Some(end) = start.checked_add(len) else {
        return FrameOutcome::Damaged;
    };
    if end > buf.len() {
        return FrameOutcome::Damaged;
    }
    let payload = &buf[start..end];
    if crc32(payload) != crc {
        return FrameOutcome::Damaged;
    }
    FrameOutcome::Valid { payload, next: end }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Canonical CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn roundtrip_single_frame() {
        let frame = encode_frame(b"hello");
        match decode_frame(&frame, 0) {
            FrameOutcome::Valid { payload, next } => {
                assert_eq!(payload, b"hello");
                assert_eq!(next, frame.len());
            }
            other => panic!("expected valid frame, got {other:?}"),
        }
        assert_eq!(decode_frame(&frame, frame.len()), FrameOutcome::End);
    }

    #[test]
    fn truncation_anywhere_is_damage_not_panic() {
        let mut buf = encode_frame(b"first");
        buf.extend_from_slice(&encode_frame(b"second record, a bit longer"));
        for cut in 0..buf.len() {
            let torn = &buf[..cut];
            let mut offset = 0;
            let mut seen = 0;
            while let FrameOutcome::Valid { next, .. } = decode_frame(torn, offset) {
                offset = next;
                seen += 1;
            }
            assert!(seen <= 2);
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let frame = encode_frame(b"payload under test");
        for pos in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[pos] ^= 0x10;
            match decode_frame(&flipped, 0) {
                FrameOutcome::Valid { payload, .. } => {
                    // A flip in the length bytes may still frame a
                    // checksum-valid record only if it framed the same
                    // payload — impossible for a single-bit length change.
                    panic!("flip at {pos} went undetected: {payload:?}");
                }
                FrameOutcome::Damaged => {}
                FrameOutcome::End => panic!("flip at {pos} produced End"),
            }
        }
    }
}
