//! Property tests for the streaming engine's event-time semantics, checked
//! against an independent pure model.
//!
//! The model below re-derives, from first principles, what the engine must
//! do with each record: which windows take it (exactly the set
//! `windows_for` promises, minus windows the watermark already closed),
//! when the watermark moves (monotonically, every `watermark_interval`
//! ingests), and which windows close (each exactly once). Any divergence —
//! a record in a wrong window, a double close, a watermark regression — is
//! a hard failure for arbitrary tunings and stream shapes.

use lingua_core::ContextFactory;
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{SimLlm, SimLlmConfig};
use lingua_ml::check::check;
use lingua_serve::ServeConfig;
use lingua_stream::{
    closed_through, windows_for, StreamConfig, StreamEngine, StreamSource, StreamSpec,
    StreamTuning, SyntheticSource,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Pure re-implementation of the engine's event-time bookkeeping: no locks,
/// no serving, no blocking index — just window assignment, watermark
/// advancement, and close tracking.
struct Model {
    tuning: StreamTuning,
    lateness: u64,
    watermark: u64,
    max_event_time: u64,
    since_advance: u64,
    /// Records landed per (still-relevant) window.
    counts: BTreeMap<u64, usize>,
    closed: BTreeSet<u64>,
    late: u64,
    assigned: u64,
    assignments: u64,
}

impl Model {
    fn new(tuning: StreamTuning, lateness: u64) -> Model {
        Model {
            tuning,
            lateness,
            watermark: 0,
            max_event_time: 0,
            since_advance: 0,
            counts: BTreeMap::new(),
            closed: BTreeSet::new(),
            late: 0,
            assigned: 0,
            assignments: 0,
        }
    }

    fn ingest(&mut self, t: u64) {
        self.max_event_time = self.max_event_time.max(t);
        let floor = closed_through(&self.tuning, self.watermark);
        let mut landed = 0u64;
        for k in windows_for(&self.tuning, t) {
            if floor.is_some_and(|f| k <= f) {
                continue;
            }
            *self.counts.entry(k).or_default() += 1;
            landed += 1;
        }
        if landed > 0 {
            self.assigned += 1;
            self.assignments += landed;
        } else {
            self.late += 1;
        }
        self.since_advance += 1;
        if self.since_advance >= self.tuning.watermark_interval {
            self.since_advance = 0;
            self.advance(self.max_event_time.saturating_sub(self.lateness));
        }
    }

    fn advance(&mut self, candidate: u64) {
        if candidate <= self.watermark {
            return;
        }
        let before = closed_through(&self.tuning, self.watermark);
        self.watermark = candidate;
        if let Some(through) = closed_through(&self.tuning, self.watermark) {
            // `counts` keeps closed windows (they are the expected report), so
            // only the windows this advance newly covers are ready.
            let ready: Vec<u64> = self
                .counts
                .range(..=through)
                .map(|(k, _)| *k)
                .filter(|k| before.map_or(true, |b| *k > b))
                .collect();
            for k in ready {
                assert!(self.closed.insert(k), "model closed window {k} twice");
            }
        }
    }

    /// Close everything, mirroring `StreamEngine::finish`.
    fn finish(&mut self) -> BTreeMap<u64, usize> {
        self.advance(self.max_event_time + self.tuning.window + self.lateness + 1);
        self.counts.clone()
    }
}

/// For arbitrary tunings, lateness allowances, and seeded streams, the
/// engine's per-window record counts, late drops, and close set match
/// the pure model; the watermark never regresses; every window closes
/// exactly once.
#[test]
fn engine_matches_the_pure_model() {
    check(
        "engine_matches_the_pure_model",
        10,
        |g| {
            (
                g.int(0u64..500),
                g.int(64usize..200),
                g.int(8u64..96),
                g.int(1u64..=4),
                g.int(0u64..24),
                g.int(1u64..12),
            )
        },
        |(seed, n, window, slide_num, lateness, interval)| {
            // slide in (0, window], spread across tumbling and sliding shapes.
            let slide = (window * slide_num / 4).max(1);
            let tuning = StreamTuning { window, slide, watermark_interval: interval };
            tuning.validate().expect("every tuning drawn above is valid");

            let world = WorldSpec::generate(seed);
            let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed, ..Default::default() }));
            let mut source =
                SyntheticSource::new(&world, StreamSpec { seed, ..Default::default() });
            let schema = source.schema().clone();
            let config = StreamConfig {
                tuning,
                allowed_lateness: lateness,
                serve: ServeConfig { workers: Some(2), ..ServeConfig::default() },
                ..StreamConfig::default()
            };
            let engine = StreamEngine::start(ContextFactory::new(llm), schema, config).unwrap();
            let mut model = Model::new(tuning, lateness);

            let mut last_watermark = 0u64;
            for item in source.take_records(n) {
                model.ingest(item.event_time);
                engine.ingest(item).unwrap();
                let wm = engine.watermark();
                assert!(wm >= last_watermark, "watermark regressed: {last_watermark} -> {wm}");
                assert_eq!(wm, model.watermark, "watermark diverged from model");
                last_watermark = wm;
            }

            let expected = model.finish();
            let reports = engine.finish().unwrap();

            // Exactly-once close: each opened window appears once, in order.
            let mut seen = BTreeSet::new();
            for report in &reports {
                assert!(seen.insert(report.window.0), "window {} reported twice", report.window.0);
            }

            // Every record landed in exactly the expected window set: per-window
            // occupancy at close equals the model's count, for every window.
            let got: BTreeMap<u64, usize> =
                reports.iter().map(|r| (r.window.0, r.records)).collect();
            assert_eq!(&got, &expected, "per-window record counts diverged");

            let snap = engine.metrics();
            assert!(snap.record_conservation_holds(), "{}", snap.report());
            assert!(snap.window_conservation_holds(), "{}", snap.report());
            assert_eq!(snap.windows_open, 0, "finish() must close every window");
            assert_eq!(snap.late_dropped, model.late);
            assert_eq!(snap.assigned_records, model.assigned);
            assert_eq!(snap.assignments, model.assignments);
            assert_eq!(snap.windows_closed as usize, reports.len());
        },
    );
}

/// Candidate generation stays O(window): for arbitrary streams, each
/// window's candidate pairs are bounded by what its own occupancy could
/// ever produce, regardless of how many records the stream carried.
#[test]
fn candidates_are_window_bounded() {
    check(
        "candidates_are_window_bounded",
        10,
        |g| (g.int(0u64..200), g.int(100usize..240)),
        |(seed, n)| {
            let world = WorldSpec::generate(seed);
            let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed, ..Default::default() }));
            let mut source =
                SyntheticSource::new(&world, StreamSpec { seed, ..Default::default() });
            let schema = source.schema().clone();
            let config = StreamConfig {
                serve: ServeConfig { workers: Some(2), ..ServeConfig::default() },
                ..StreamConfig::default()
            };
            let engine = StreamEngine::start(ContextFactory::new(llm), schema, config).unwrap();
            for item in source.take_records(n) {
                engine.ingest(item).unwrap();
            }
            let reports = engine.finish().unwrap();
            for report in &reports {
                let cap = report.records * report.records.saturating_sub(1) / 2;
                assert!(
                    report.candidate_pairs <= cap,
                    "window {} produced {} candidates from {} records",
                    report.window.0,
                    report.candidate_pairs,
                    report.records
                );
            }
        },
    );
}
