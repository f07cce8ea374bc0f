//! Journal wire codec: `JournalRecord` ⇄ payload bytes.
//!
//! One direct binary encoding, specified in DESIGN.md §15. Every durable
//! type is written down once — a struct as its field list in wire order
//! (`wire_structs!`), an enum as tag bytes and each variant's fields
//! (`wire_enums!`) — and both directions come from that one spelling via the
//! `Wire` trait. A payload starts with [`FORMAT`], so a reader can tell "a
//! log I do not speak" from damage.
//!
//! Decoding is total and strict: every length is checked against the bytes
//! remaining *before* anything is allocated; an unknown tag, unordered map
//! keys, invalid UTF-8 or a trailing byte is a [`CodecError`], never a panic.
//!
//! To read a log by eye, scan it and print the records:
//! `for r in JournalReader::scan(&bytes).records { println!("{r:?}") }`.

use crate::record::{
    Checkpoint, FinishedJob, JournalRecord, PendingJob, StreamCheckpoint, WindowCloseRecord,
    WindowReportRecord,
};
use lingua_core::Data;
use lingua_dataset::generators::stream::StreamItem;
use lingua_dataset::{ColumnType, Record, Schema, Table, Value as CellValue};
use lingua_llm_sim::Usage;
use std::collections::BTreeMap;
use std::fmt;

/// First byte of every payload: the version of this encoding. Format 1's
/// `WindowClose` carried two more fields; the format before it (JSON text)
/// began with `{`. Either is recognised as a log this reader does not speak.
pub const FORMAT: u8 = 2;

/// Tag byte of [`JournalRecord::Checkpoint`].
const CHECKPOINT: u8 = 8;

/// `List`/`Map` values may nest this deep; a crafted payload nesting deeper
/// is refused before it can exhaust the stack.
const MAX_DEPTH: u32 = 128;

/// A payload that is checksum-valid but not a well-formed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn bad<T>(context: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(context.into()))
}

/// Append `record`'s payload to `out` — the writer passes the frame buffer,
/// so the payload is never copied.
pub fn encode_into(record: &JournalRecord, out: &mut Vec<u8>) {
    out.push(FORMAT);
    record.put(out);
}

/// Append the payload of `JournalRecord::Checkpoint(checkpoint)` without
/// owning the checkpoint: the journal passes its live fold.
pub(crate) fn encode_checkpoint_into(checkpoint: &Checkpoint, out: &mut Vec<u8>) {
    out.extend_from_slice(&[FORMAT, CHECKPOINT]);
    checkpoint.put(out);
}

/// Decode a frame payload back into a record.
pub fn decode(payload: &[u8]) -> Result<JournalRecord, CodecError> {
    let mut reader = Reader { bytes: payload, depth: 0 };
    match reader.array()? {
        [FORMAT] => {}
        [other] => return bad(format!("unknown payload format {other:#04x}")),
    }
    let record = JournalRecord::take(&mut reader)?;
    if !reader.bytes.is_empty() {
        return bad("trailing bytes after the record");
    }
    Ok(record)
}

/// One wire form per type: `put` appends it, `take` consumes exactly it.
pub(crate) trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// The undecoded rest of a payload.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    depth: u32,
}

impl<'a> Reader<'a> {
    fn slice(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.bytes.len() {
            return bad("payload ends mid-value");
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.slice(N)?.try_into().expect("slice(N) is N bytes"))
    }

    /// A `u32` length prefix. Every element and string byte takes at least one
    /// payload byte, so a count past the bytes remaining is refused unallocated.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = u32::from_le_bytes(self.array()?) as usize;
        if n > self.bytes.len() {
            return bad("declared length exceeds the payload");
        }
        Ok(n)
    }

    /// The elements of a length-prefixed container, one nesting level down.
    /// Collected without a size hint: memory grows with what decodes.
    fn seq<T, C: FromIterator<T>>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<C, CodecError> {
        let n = self.len()?;
        if self.depth == MAX_DEPTH {
            return bad("containers nested too deep");
        }
        self.depth += 1;
        let out = (0..n).map(|_| element(self)).collect();
        self.depth -= 1;
        out
    }
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("a journal sequence stays far below u32::MAX elements");
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_seq<'a, T: Wire + 'a>(out: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'a T>) {
    put_len(out, items.len());
    items.for_each(|item| item.put(out));
}

/// Scalars travel as fixed-width little-endian integers: `type as carrier: out, back`.
macro_rules! wire_scalars {
    ($($ty:ty as $via:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let via: $via = ($to)(*self);
                out.extend_from_slice(&via.to_le_bytes());
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                ($from)(<$via>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_scalars! {
    u64 as u64: |v| v, Ok;
    i64 as i64: |v| v, Ok;
    usize as u64: |v| v as u64, |v| usize::try_from(v).or_else(|_| bad("count overflows usize"));
    f64 as u64: f64::to_bits, |bits| Ok(f64::from_bits(bits));
    bool as u8: u8::from, |v| if v < 2 { Ok(v == 1) } else { bad("bool byte is not 0 or 1") };
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        match std::str::from_utf8(r.slice(n)?) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => bad("string is not UTF-8"),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.iter());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.seq(T::take)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for (key, value) in self {
            key.put(out);
            value.put(out);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let entries: Vec<(K, V)> = r.seq(|r| Ok((K::take(r)?, V::take(r)?)))?;
        // Canonical form only: `put` writes keys strictly ascending.
        if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return bad("map keys are not strictly ascending");
        }
        Ok(entries.into_iter().collect())
    }
}

/// A struct is its fields, in the order listed.
macro_rules! wire_structs {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ty { $($field: Wire::take(r)?),* })
            }
        }
    )*};
}

/// An enum is a tag byte, then the variant's fields in the order listed.
macro_rules! wire_enums {
    ($($ty:ident { $(
        $tag:tt => $variant:ident $(($($tuple:ident),*))? $({$($named:ident),*})?
    ),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {$(
                    Self::$variant $(($($tuple),*))? $({$($named),*})? => {
                        out.push($tag);
                        $($($tuple.put(out);)*)?
                        $($($named.put(out);)*)?
                    }
                )*}
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                match r.array()? {
                    $([$tag] => {
                        $($(let $tuple = Wire::take(r)?;)*)?
                        $($(let $named = Wire::take(r)?;)*)?
                        Ok(Self::$variant $(($($tuple),*))? $({$($named),*})?)
                    })*
                    [other] => bad(format!("unknown {} tag {other:#04x}", stringify!($ty))),
                }
            }
        }
    )*};
}

wire_enums! {
    ColumnType { 0 => Any, 1 => Bool, 2 => Int, 3 => Float, 4 => Str }
    CellValue { 0 => Null, 1 => Bool(b), 2 => Int(i), 3 => Float(f), 4 => Str(s) }
    Data {
        0 => Null, 1 => Bool(b), 2 => Int(i), 3 => Float(f), 4 => Str(s), 5 => List(items),
        6 => Map(entries), 7 => Table(table), 8 => Record { schema, record }
    }
    JournalRecord {
        0 => JobAccepted(job),
        1 => JobStarted { pipeline, fingerprint },
        2 => JobFinished(job),
        3 => JobFailed { pipeline, fingerprint, llm, reason },
        4 => StreamIngest { item, windows },
        5 => WatermarkAdvance { watermark, max_event_time },
        6 => WindowClose(close),
        7 => ReportSubmitted(report),
        CHECKPOINT => Checkpoint(checkpoint)
    }
}

wire_structs! {
    Usage {
        calls, tokens_in, tokens_out, cached_calls, tokens_in_saved, tokens_out_saved, failed_calls
    }
    StreamItem { event_time, entity, record }
    PendingJob { pipeline, fingerprint, inputs }
    FinishedJob { pipeline, fingerprint, env, llm, wall_us }
    WindowCloseRecord {
        window, start, end, records, candidate_pairs, comparisons, true_duplicates, inputs
    }
    WindowReportRecord {
        window, start, end, records, candidate_pairs, comparisons, judged, matched,
        true_duplicates, llm
    }
    StreamCheckpoint { watermark, max_event_time, open_windows, closed_unreported, reported }
}

// Private fields: `Record`, `Schema` and `Table` travel as their constructors' parts.
impl Wire for Record {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.values().iter());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Record::new(Wire::take(r)?))
    }
}

impl Wire for Schema {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for (name, ty) in self.iter() {
            put_str(out, name);
            ty.put(out);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Schema::new(r.seq(|r| Ok((Wire::take(r)?, Wire::take(r)?)))?))
    }
}

impl Wire for Table {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self.name());
        self.schema().put(out);
        put_seq(out, self.rows().iter());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (name, schema, rows) = (String::take(r)?, Wire::take(r)?, Wire::take(r)?);
        Table::with_rows(name, schema, rows).or_else(|e| bad(format!("table rejects rows: {e}")))
    }
}

/// Job maps travel as plain job sequences; each job's key is rebuilt on the way in.
impl Wire for Checkpoint {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.finished.values());
        put_seq(out, self.pending.values());
        self.cumulative.put(out);
        self.stream.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Checkpoint {
            finished: r.seq(|r| FinishedJob::take(r).map(|job| (job.key(), job)))?,
            pending: r.seq(|r| PendingJob::take(r).map(|job| (job.key(), job)))?,
            cumulative: Wire::take(r)?,
            stream: Wire::take(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(record: &JournalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(record, &mut out);
        out
    }

    /// All nine `Data` arms, with the edge values the format must carry.
    fn sample_env() -> BTreeMap<String, Data> {
        let schema = Schema::new(vec![
            ("name".to_string(), ColumnType::Str),
            ("abv".to_string(), ColumnType::Float),
            ("any".to_string(), ColumnType::Any),
        ]);
        let record = Record::new(vec![
            CellValue::Str("Pliny".into()),
            CellValue::Float(8.0),
            CellValue::Null,
        ]);
        let other = Record::new(vec![CellValue::Str(String::new()), CellValue::Null, true.into()]);
        let table = Table::with_rows("beers", schema.clone(), vec![record.clone(), other]).unwrap();
        let nested = Data::List(vec![
            Data::Int(1),
            Data::Null,
            Data::List(vec![Data::Map(BTreeMap::from([("deep".to_string(), Data::List(vec![]))]))]),
        ]);
        BTreeMap::from([
            (String::new(), Data::Str(String::new())),
            ("null".to_string(), Data::Null),
            ("flag".to_string(), Data::Bool(true)),
            ("n".to_string(), Data::Int(i64::MIN)),
            ("x".to_string(), Data::Float(2.5)),
            ("s".to_string(), Data::Str("line\n\"quoted\" héllo 🦀 \u{0007}".into())),
            ("xs".to_string(), nested),
            ("empty".to_string(), Data::Map(BTreeMap::new())),
            (
                "m".to_string(),
                Data::Map(BTreeMap::from([("k".to_string(), Data::Str("v".into()))])),
            ),
            ("t".to_string(), Data::Table(table)),
            ("r".to_string(), Data::Record { schema, record }),
        ])
    }

    fn sample_checkpoint() -> Checkpoint {
        let JournalRecord::Checkpoint(checkpoint) = samples().pop().unwrap() else {
            panic!("the last sample is the checkpoint");
        };
        checkpoint
    }

    /// All nine record variants.
    fn samples() -> Vec<JournalRecord> {
        let mut llm = Usage::default();
        llm.record(100, 25);
        llm.record_cached(40, 10);
        llm.record_failed(7);
        let item = StreamItem {
            event_time: 17,
            entity: 3,
            record: Record::new(vec![CellValue::Str("a".into()), CellValue::Int(1)]),
        };
        let close = WindowCloseRecord {
            window: 4,
            start: 256,
            end: 320,
            records: 12,
            candidate_pairs: 3,
            comparisons: 30,
            true_duplicates: 2,
            inputs: sample_env(),
        };
        let report = WindowReportRecord {
            window: 4,
            start: 256,
            end: 320,
            records: 12,
            candidate_pairs: 3,
            comparisons: 30,
            judged: 3,
            matched: 2,
            true_duplicates: 2,
            llm,
        };
        let finished = FinishedJob {
            pipeline: "clean".into(),
            fingerprint: 9,
            env: sample_env(),
            llm,
            wall_us: 12345,
        };
        vec![
            JournalRecord::JobAccepted(PendingJob {
                pipeline: "clean".into(),
                fingerprint: u64::MAX,
                inputs: sample_env(),
            }),
            JournalRecord::JobStarted { pipeline: "clean".into(), fingerprint: 9 },
            JournalRecord::JobFinished(finished.clone()),
            JournalRecord::JobFailed {
                pipeline: "clean".into(),
                fingerprint: 10,
                llm,
                reason: "panicked: boom".into(),
            },
            JournalRecord::StreamIngest { item: item.clone(), windows: vec![3, 4] },
            JournalRecord::WatermarkAdvance { watermark: 64, max_event_time: 80 },
            JournalRecord::WindowClose(close.clone()),
            JournalRecord::ReportSubmitted(report.clone()),
            JournalRecord::Checkpoint(Checkpoint {
                finished: [
                    finished,
                    FinishedJob {
                        pipeline: "p".into(),
                        fingerprint: 1,
                        env: BTreeMap::new(),
                        llm,
                        wall_us: 1,
                    },
                ]
                .into_iter()
                .map(|job| (job.key(), job))
                .collect(),
                pending: [PendingJob {
                    pipeline: "p".into(),
                    fingerprint: 2,
                    inputs: BTreeMap::new(),
                }]
                .into_iter()
                .map(|job| (job.key(), job))
                .collect(),
                cumulative: llm,
                stream: StreamCheckpoint {
                    watermark: 64,
                    max_event_time: 80,
                    open_windows: BTreeMap::from([(5, vec![item])]),
                    closed_unreported: BTreeMap::from([(4, close)]),
                    reported: BTreeMap::from([(3, report)]),
                },
            }),
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        let mut variants = std::collections::HashSet::new();
        for record in samples() {
            let bytes = encode(&record);
            let back = decode(&bytes).expect("decodes");
            assert_eq!(back, record);
            assert_eq!(encode(&back), bytes, "the encoding is canonical: {record:?}");
            variants.insert(std::mem::discriminant(&record));
        }
        assert_eq!(variants.len(), 9, "one sample per variant");
        let arms: std::collections::BTreeSet<_> =
            sample_env().values().map(Data::type_name).collect();
        assert_eq!(arms.len(), 9, "one sample per Data arm");
    }

    #[test]
    fn default_checkpoint_roundtrips() {
        let record = JournalRecord::Checkpoint(Checkpoint::default());
        assert_eq!(decode(&encode(&record)).unwrap(), record);
    }

    /// The layout DESIGN.md §15 documents, byte for byte.
    #[test]
    fn layout_is_the_documented_one() {
        let started = JournalRecord::JobStarted { pipeline: "p".into(), fingerprint: 9 };
        assert_eq!(encode(&started), [FORMAT, 1, 1, 0, 0, 0, b'p', 9, 0, 0, 0, 0, 0, 0, 0]);

        let accepted = JournalRecord::JobAccepted(PendingJob {
            pipeline: String::new(),
            fingerprint: u64::MAX,
            inputs: BTreeMap::from([("k".to_string(), Data::Float(-0.0))]),
        });
        let mut expected = vec![FORMAT, 0, 0, 0, 0, 0];
        expected.extend_from_slice(&[0xFF; 8]);
        expected.extend_from_slice(&[1, 0, 0, 0, 1, 0, 0, 0, b'k', 3]);
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0x80]);
        assert_eq!(encode(&accepted), expected);
    }

    #[test]
    fn floats_travel_as_their_bits() {
        let odd_nan = f64::from_bits(0x7FF8_0000_0000_BEEF);
        for f in [f64::NAN, odd_nan, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE] {
            let record = JournalRecord::JobAccepted(PendingJob {
                pipeline: "p".into(),
                fingerprint: 1,
                inputs: BTreeMap::from([("f".to_string(), Data::Float(f))]),
            });
            let JournalRecord::JobAccepted(job) = decode(&encode(&record)).unwrap() else {
                panic!("variant changed");
            };
            let Data::Float(back) = job.inputs["f"] else { panic!("arm changed") };
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn a_borrowed_checkpoint_encodes_as_the_checkpoint_record() {
        let checkpoint = sample_checkpoint();
        let mut borrowed = Vec::new();
        encode_checkpoint_into(&checkpoint, &mut borrowed);
        assert_eq!(borrowed, encode(&JournalRecord::Checkpoint(checkpoint)));
    }

    #[test]
    fn every_proper_prefix_is_an_error() {
        for record in samples() {
            let bytes = encode(&record);
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} of {record:?}");
            }
        }
    }

    #[test]
    fn one_trailing_byte_is_an_error() {
        for record in samples() {
            let mut bytes = encode(&record);
            bytes.push(0);
            assert!(decode(&bytes).is_err(), "{record:?}");
        }
    }

    /// A count of `u32::MAX` is refused by the length check; had the decoder
    /// reserved for it first, these would abort on allocation instead.
    #[test]
    fn a_huge_declared_length_is_refused_before_allocating() {
        let huge = u32::MAX.to_le_bytes();
        // JobStarted: the pipeline string claims 4 GiB.
        let mut string = vec![FORMAT, 1];
        string.extend_from_slice(&huge);
        // StreamIngest: a real item, then 4 Gi window ids.
        let ingest = JournalRecord::StreamIngest {
            item: StreamItem { event_time: 1, entity: 1, record: Record::new(vec![]) },
            windows: vec![],
        };
        let mut windows = encode(&ingest);
        let at = windows.len() - 4;
        windows[at..].copy_from_slice(&huge);
        // Checkpoint: 4 Gi finished jobs.
        let mut jobs = vec![FORMAT, CHECKPOINT];
        jobs.extend_from_slice(&huge);
        // JobAccepted: 4 Gi env entries, with bytes behind the count.
        let mut entries =
            encode(&JournalRecord::JobStarted { pipeline: "p".into(), fingerprint: 2 });
        entries[1] = 0;
        entries.extend_from_slice(&huge);
        entries.extend_from_slice(&[0; 64]);
        for payload in [string, windows, jobs, entries] {
            assert!(decode(&payload).is_err());
        }
    }

    #[test]
    fn decode_rejects_wrong_shapes_without_panicking() {
        let started = |pipeline: &[u8]| {
            let mut bytes = vec![FORMAT, 1, pipeline.len() as u8, 0, 0, 0];
            bytes.extend_from_slice(pipeline);
            bytes.extend_from_slice(&7u64.to_le_bytes());
            bytes
        };
        assert!(decode(&started(b"ok")).is_ok());
        let env_of = |entries: &[u8], count: u8| {
            let mut bytes = vec![FORMAT, 0, 0, 0, 0, 0];
            bytes.extend_from_slice(&7u64.to_le_bytes());
            bytes.extend_from_slice(&[count, 0, 0, 0]);
            bytes.extend_from_slice(entries);
            bytes
        };
        assert!(decode(&env_of(&[1, 0, 0, 0, b'a', 1, 1, 1, 0, 0, 0, b'b', 0], 2)).is_ok());
        let mut bomb = env_of(&[1, 0, 0, 0, b'k'], 1);
        for _ in 0..=MAX_DEPTH {
            bomb.extend_from_slice(&[5, 1, 0, 0, 0]);
        }
        bomb.push(0);
        for (what, payload) in [
            ("empty payload", vec![]),
            ("format byte only", vec![FORMAT]),
            ("a parent-commit JSON payload", b"{\"kind\":\"watermark_advance\"}".to_vec()),
            ("a future format byte", vec![FORMAT + 1, 5]),
            ("unknown record tag", vec![FORMAT, 9]),
            ("invalid UTF-8", started(&[0xC3, 0x28])),
            ("unknown Data tag", env_of(&[1, 0, 0, 0, b'k', 9], 1)),
            ("bool byte 2", env_of(&[1, 0, 0, 0, b'k', 1, 2], 1)),
            ("duplicate map key", env_of(&[1, 0, 0, 0, b'a', 0, 1, 0, 0, 0, b'a', 0], 2)),
            ("descending map keys", env_of(&[1, 0, 0, 0, b'b', 0, 1, 0, 0, 0, b'a', 0], 2)),
            ("nesting past MAX_DEPTH", bomb),
        ] {
            assert!(decode(&payload).is_err(), "{what} must be refused");
        }
    }

    #[test]
    fn a_table_whose_rows_break_its_schema_is_refused() {
        let schema = Schema::of_names(["a", "b"]);
        let table =
            Table::with_rows("t", schema, vec![Record::new(vec![1i64.into(), 2i64.into()])]);
        let record = JournalRecord::JobAccepted(PendingJob {
            pipeline: "p".into(),
            fingerprint: 1,
            inputs: BTreeMap::from([("t".to_string(), Data::Table(table.unwrap()))]),
        });
        let bytes = encode(&record);
        assert!(decode(&bytes).is_ok());
        // Drop the row's second cell: arity 1 under a two-column schema.
        let cell = [2u8, 2, 0, 0, 0, 0, 0, 0, 0];
        let mut short = bytes[..bytes.len() - cell.len()].to_vec();
        assert_eq!(&bytes[bytes.len() - cell.len()..], &cell);
        let count = short.len() - cell.len() - 4;
        assert_eq!(&short[count..count + 4], &[2, 0, 0, 0]);
        short[count] = 1;
        let error = decode(&short).unwrap_err();
        assert!(error.0.contains("table rejects rows"), "{error}");
    }
}
