//! **Streaming S1** — what windowing buys: incremental, window-scoped
//! blocking versus a never-forgetting baseline, plus a sustained run of the
//! full engine.
//!
//! Two kinds of measurement:
//!
//! * `comparison-work` — a deterministic record stream (finite vocabulary,
//!   bounded-lag duplicates, inline xorshift so every host sees the same
//!   stream) is pushed through (a) the engine's real window assignment +
//!   [`WindowState`] blocking and (b) a *full-rescan* baseline: the same
//!   token blocking, but over an index that never forgets. The baseline is
//!   deliberately generous — it keeps its index incrementally instead of
//!   actually re-scanning, and still its per-record work grows with stream
//!   history because a finite vocabulary makes every block grow without
//!   bound. Counted work (blocking probes), not wall time, so the numbers
//!   are exact and machine-independent. Run across tumbling and sliding
//!   shapes at three window sizes.
//! * `sustained` — 10k records through the real [`StreamEngine`] (serve
//!   jobs, LLM judgments, tracing) with conservation checked at the end.
//!
//! Writes `results/stream_throughput.json`. With `--check-baseline <path>`
//! the run compares the gated metric — the rescan/incremental comparison
//! ratio for the default sliding shape, computed in this same run — against
//! a committed results file and exits nonzero if it fell more than 2x. The
//! ratio is a deterministic count, so the gate never flaps on host speed;
//! `--smoke` shrinks only the sustained arm (the counting arm is cheap and
//! must keep its record count for the ratio to be comparable).

use lingua_bench::{arg_usize, check_baseline, has_flag, write_json, TextTable};
use lingua_core::ContextFactory;
use lingua_dataset::world::WorldSpec;
use lingua_dataset::{Record, Value};
use lingua_llm_sim::{SimLlm, SimLlmConfig};
use lingua_serve::{ServeConfig, StreamTuning};
use lingua_stream::{
    blocking_keys, closed_through, windows_for, StreamConfig, StreamEngine, StreamItem,
    StreamSource, StreamSpec, SyntheticSource, Watermark, WindowId, WindowState,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0x5eed_517e;
const CAP: usize = 24;
const LATENESS: u64 = 8;
/// The gated shape: the default sliding configuration.
const GATE_WINDOW: u64 = 64;

// ---------------------------------------------------------------------------
// Deterministic stream: finite vocabulary + bounded-lag duplicates, no RNG
// crate so the counts are bit-identical everywhere.
// ---------------------------------------------------------------------------

const ADJ: [&str; 24] = [
    "amber", "black", "blonde", "bright", "cloudy", "copper", "crisp", "dark", "double", "dry",
    "golden", "hazy", "imperial", "mild", "pale", "red", "robust", "session", "smoked", "sour",
    "strong", "summer", "winter", "wild",
];
const NOUN: [&str; 18] = [
    "anchor", "badger", "bear", "canyon", "cascade", "cellar", "creek", "falcon", "harbor",
    "hollow", "iron", "kettle", "meadow", "orchard", "raven", "ridge", "stone", "valley",
];
const STYLE: [&str; 6] = ["ale", "lager", "porter", "stout", "pils", "ipa"];

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Emits `(event_time, key)` pairs: mean inter-arrival of 2 ticks, ~35% of
/// records repeating a key seen within the last 24 emissions (the streaming
/// duplicates), the rest drawn from the 2592-name vocabulary.
struct KeyStream {
    state: u64,
    clock: u64,
    recent: VecDeque<String>,
}

impl KeyStream {
    fn new(seed: u64) -> KeyStream {
        KeyStream { state: seed.max(1), clock: 0, recent: VecDeque::new() }
    }

    fn next(&mut self) -> (u64, String) {
        self.state = xorshift(self.state);
        let s = self.state;
        self.clock += 1 + s % 3;
        let key = if s >> 8 & 0x7f < 45 && !self.recent.is_empty() {
            self.recent[(s >> 16) as usize % self.recent.len()].clone()
        } else {
            format!(
                "{} {} {}",
                ADJ[(s >> 24) as usize % ADJ.len()],
                NOUN[(s >> 32) as usize % NOUN.len()],
                STYLE[(s >> 40) as usize % STYLE.len()],
            )
        };
        self.recent.push_back(key.clone());
        if self.recent.len() > 24 {
            self.recent.pop_front();
        }
        (self.clock, key)
    }

    fn take(seed: u64, n: usize) -> Vec<(u64, String)> {
        let mut stream = KeyStream::new(seed);
        (0..n).map(|_| stream.next()).collect()
    }
}

fn item(index: usize, t: u64, key: &str) -> StreamItem {
    StreamItem {
        event_time: t,
        entity: index as u64,
        record: Record::new(vec![Value::Str(key.to_string())]),
    }
}

// ---------------------------------------------------------------------------
// The two counting arms.
// ---------------------------------------------------------------------------

/// Total blocking probes paid by the engine's real path: window assignment,
/// watermark-driven forgetting, window-scoped `WindowState` blocking.
fn incremental_comparisons(stream: &[(u64, String)], tuning: StreamTuning) -> u64 {
    let mut open: BTreeMap<u64, WindowState> = BTreeMap::new();
    let mut watermark = Watermark::new();
    let mut max_event_time = 0u64;
    let mut since = 0u64;
    let mut total = 0u64;
    for (index, (t, key)) in stream.iter().enumerate() {
        max_event_time = max_event_time.max(*t);
        let floor = closed_through(&tuning, watermark.get());
        for k in windows_for(&tuning, *t) {
            if floor.is_some_and(|f| k <= f) {
                continue;
            }
            let window = open.entry(k).or_insert_with(|| WindowState::new(WindowId(k)));
            let outcome = window.insert(item(index, *t, key), 0, CAP);
            total += outcome.candidates.len() as u64;
        }
        since += 1;
        if since >= tuning.watermark_interval {
            since = 0;
            if watermark.advance(max_event_time.saturating_sub(LATENESS)) {
                if let Some(through) = closed_through(&tuning, watermark.get()) {
                    let ready: Vec<u64> = open.range(..=through).map(|(k, _)| *k).collect();
                    for k in ready {
                        open.remove(&k);
                    }
                }
            }
        }
    }
    total
}

/// The full-rescan baseline: identical token blocking, but the index spans
/// the whole accumulated corpus and never drops a record. Uncapped, because
/// a baseline that skipped oversized blocks would silently lose the recall
/// the windowed path keeps.
fn rescan_comparisons(stream: &[(u64, String)]) -> u64 {
    let mut blocks: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut total = 0u64;
    for (index, (_, key)) in stream.iter().enumerate() {
        let mut partners: BTreeSet<usize> = BTreeSet::new();
        for token in blocking_keys(key) {
            let block = blocks.entry(token).or_default();
            partners.extend(block.iter().copied());
            block.push(index);
        }
        total += partners.len() as u64;
    }
    total
}

fn main() {
    let smoke = has_flag("--smoke");
    let comparison_records = arg_usize("--records", 10_000);
    let sustained_records = arg_usize("--sustained", if smoke { 2_000 } else { 10_000 });

    let stream = KeyStream::take(SEED, comparison_records);
    let mut table = TextTable::new(["shape", "window", "slide", "incremental", "rescan", "ratio"]);
    let mut rows = Vec::new();
    let mut gate_ratio = 0.0f64;
    let rescan = rescan_comparisons(&stream);
    for window in [32u64, 64, 128] {
        for (shape, slide) in [("tumbling", window), ("sliding", window / 2)] {
            let tuning = StreamTuning { window, slide, watermark_interval: 8 };
            let incremental = incremental_comparisons(&stream, tuning);
            let ratio = rescan as f64 / incremental.max(1) as f64;
            if shape == "sliding" && window == GATE_WINDOW {
                gate_ratio = ratio;
            }
            table.row([
                shape.to_string(),
                window.to_string(),
                slide.to_string(),
                incremental.to_string(),
                rescan.to_string(),
                format!("{ratio:.1}x"),
            ]);
            rows.push(serde_json::json!({
                "shape": shape, "window": window, "slide": slide,
                "records": comparison_records,
                "incremental_comparisons": incremental,
                "rescan_comparisons": rescan,
                "ratio": ratio,
            }));
        }
    }
    table.print();
    println!(
        "\nShape: the windowed path's probes are bounded by window occupancy, so its \
         total is ~linear in records; the never-forgetting baseline's blocks grow \
         with history (finite vocabulary), so its total is ~quadratic. The ratio is \
         a deterministic count — identical on every host."
    );

    // ---------------------------------------------------------------------
    // Sustained run: the real engine end to end.
    // ---------------------------------------------------------------------
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed: SEED, ..Default::default() }));
    let mut source = SyntheticSource::new(&world, StreamSpec { seed: SEED, ..Default::default() });
    let schema = source.schema().clone();
    let config = StreamConfig {
        tuning: StreamTuning { window: GATE_WINDOW, slide: GATE_WINDOW / 2, watermark_interval: 8 },
        serve: ServeConfig { workers: Some(4), ..ServeConfig::default() },
        ..StreamConfig::default()
    };
    let engine =
        StreamEngine::start(ContextFactory::new(llm), schema, config).expect("bench engine starts");
    let records = source.take_records(sustained_records);
    let started = Instant::now();
    for record in records {
        engine.ingest(record).expect("bench ingest");
    }
    let reports = engine.finish().expect("bench drain");
    let elapsed = started.elapsed();
    let snap = engine.metrics();
    assert!(snap.record_conservation_holds(), "{}", snap.report());
    assert!(snap.window_conservation_holds(), "{}", snap.report());
    let records_per_sec = sustained_records as f64 / elapsed.as_secs_f64();
    println!(
        "\nsustained: {} records in {:.0} ms ({records_per_sec:.0} rec/s), {} windows, \
         {} judged, {} matched",
        sustained_records,
        elapsed.as_secs_f64() * 1e3,
        reports.len(),
        snap.pairs_judged,
        snap.pairs_matched,
    );
    println!("{}", snap.report());

    write_json(
        "stream_throughput",
        &serde_json::json!({
            "smoke": smoke,
            "comparison_records": comparison_records,
            "gate_metric": "rescan/incremental blocking-probe ratio, sliding window=64 \
                            (deterministic count, machine-independent)",
            "gate_ratio": gate_ratio,
            "rows": rows,
            "sustained": {
                "records": sustained_records,
                "elapsed_ms": elapsed.as_secs_f64() * 1e3,
                "records_per_sec": records_per_sec,
                "windows_closed": snap.windows_closed,
                "comparisons": snap.comparisons,
                "pairs_judged": snap.pairs_judged,
                "pairs_matched": snap.pairs_matched,
                "late_dropped": snap.late_dropped,
                "record_conservation": snap.record_conservation_holds(),
                "window_conservation": snap.window_conservation_holds(),
            },
        }),
    );

    check_baseline(
        "gate_ratio",
        |baseline| {
            format!("rescan/incremental ratio = {gate_ratio:.1}x vs baseline {baseline:.1}x")
        },
        |baseline| gate_ratio < baseline / 2.0,
        "the windowed path's advantage over the never-forgetting baseline fell more than 2x \
         below the committed ratio — per-record work is no longer O(window)",
    );
}
