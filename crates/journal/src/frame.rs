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
pub(crate) const FRAME_HEADER: usize = 8;

/// Largest payload a frame may declare. Guards the scanner against reading
/// a torn header whose garbage length would otherwise look like a
/// multi-gigabyte record, and bounds what the journal will write: a frame
/// past it would be classified as damage and truncated away on reopen.
#[cfg(not(test))]
pub(crate) const MAX_FRAME_PAYLOAD: usize = 64 * 1024 * 1024;
/// Lowered for this crate's unit tests, so the oversize refusals are
/// reachable without writing 64 MiB of state.
#[cfg(test)]
pub const MAX_FRAME_PAYLOAD: usize = 64 * 1024;

const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold into the state with eight
/// independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32/IEEE (the Ethernet/zip polynomial, reflected form 0xEDB88320),
/// implemented here so durability adds no external dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Build one frame whose payload `fill` writes in place: the header is
/// reserved first and back-patched once the payload's length and checksum
/// are known, so the payload is never copied.
pub fn build_frame(fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    // Most records (a stream item, a job start, a watermark) fit in this,
    // so framing one allocates once.
    let mut frame = Vec::with_capacity(256);
    frame.extend_from_slice(&[0; FRAME_HEADER]);
    fill(&mut frame);
    let payload = &frame[FRAME_HEADER..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Byte length of the whole frame at the front of `buf`, for a frame
/// [`decode_frame`] has already accepted there.
pub(crate) fn frame_len(buf: &[u8]) -> usize {
    FRAME_HEADER + u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
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

    /// The definition, one bit at a time: what `crc32` must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    const KNOWN_VECTORS: [(&[u8], u32); 3] = [
        // Canonical CRC-32/IEEE check values.
        (b"", 0),
        (b"123456789", 0xCBF4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ];

    #[test]
    fn crc32_matches_known_vectors() {
        for (input, expected) in KNOWN_VECTORS {
            assert_eq!(crc32(input), expected);
        }
    }

    #[test]
    fn crc32_equals_the_bitwise_reference() {
        for (input, expected) in KNOWN_VECTORS {
            assert_eq!(crc32_bitwise(input), expected);
        }
        // splitmix64 stream: a seeded buffer with no structure the tables
        // could be accidentally right about.
        let mut state = 0x5EED_u64;
        let buffer: Vec<u8> = (0..(1 << 20) + 7)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        // Every split of head / 8-byte body / tail, at every alignment.
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[start..start + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "start {start}, len {len}");
            }
        }
        let mib = &buffer[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_bitwise(mib));
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
