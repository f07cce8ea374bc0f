//! Unbounded, seeded record streams for the streaming curation engine.
//!
//! Batch generators in this module's siblings produce a finite split and
//! stop; a stream generator never runs dry. [`ProductStream`] cycles through
//! the world's beer catalogue as "listings" arriving over event time and
//! re-emits recent listings as corrupted duplicates — the same cross-site
//! damage model as the BeerAdvo-RateBeer batch generator, but with the
//! duplicate landing a *bounded number of emissions* after its original.
//! That bound is what makes windowed dedup meaningful: a window sized above
//! the duplicate lag sees both copies, and a window-scoped matcher can find
//! them without ever consulting the full history.
//!
//! Event time is a logical `u64` tick, mostly monotone with bounded
//! disorder, so watermark semantics (allowed lateness, late drops) are
//! exercised deterministically from the seed alone.

use crate::generators::er::{beer_record, corrupt_beer, BEER_SCHEMA};
use crate::record::Record;
use crate::schema::Schema;
use crate::world::{BeerFact, WorldSpec};
use lingua_ml::rng::Rng;
use std::collections::VecDeque;

/// One element of an unbounded record stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamItem {
    /// Logical event-time tick. Mostly monotone in emission order; an item
    /// may be stamped up to [`StreamSpec::disorder`] ticks behind the
    /// emission clock, so a late-enough watermark policy sees genuine
    /// out-of-order arrivals.
    pub event_time: u64,
    /// Ground-truth entity id: two items sharing it are true duplicates.
    /// This is a test oracle — it must never be shown to a matcher.
    pub entity: u64,
    pub record: Record,
}

/// Knobs for the synthetic product stream. Every quantity is derived from
/// `seed` deterministically; two streams built from equal specs emit
/// identical item sequences.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub seed: u64,
    /// Probability an emission is a corrupted duplicate of a recent item
    /// instead of a fresh listing.
    pub dup_rate: f64,
    /// A duplicate references an original at most this many emissions back,
    /// bounding how far apart true matches can land in event time.
    pub dup_lag: usize,
    /// Maximum event-time disorder in ticks (0 = strictly monotone).
    pub disorder: u64,
    /// Emission gaps are drawn uniformly from `1..=2*mean_gap - 1` ticks.
    pub mean_gap: u64,
    /// Corruption intensity applied to duplicate re-emissions (the
    /// BeerAdvo-RateBeer batch generator uses 0.90).
    pub intensity: f64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            seed: 7,
            dup_rate: 0.35,
            dup_lag: 24,
            disorder: 4,
            mean_gap: 2,
            intensity: 0.6,
        }
    }
}

/// An unbounded beer-listing stream over a generated world. `Iterator::next`
/// never returns `None`; callers decide how much of the stream to consume.
pub struct ProductStream {
    rng: Rng,
    beers: Vec<BeerFact>,
    schema: Schema,
    spec: StreamSpec,
    /// Emission-order clock in ticks (pre-disorder).
    clock: u64,
    /// Count of fresh (non-duplicate) emissions; doubles as the next entity
    /// id so ids are dense and stable.
    fresh: u64,
    /// The last `dup_lag` emissions as `(entity, catalogue index)`;
    /// duplicates are drawn uniformly from here, so a duplicate of a
    /// duplicate keeps its original entity id.
    recent: VecDeque<(u64, usize)>,
}

impl ProductStream {
    pub fn new(world: &WorldSpec, spec: StreamSpec) -> ProductStream {
        assert!(!world.beers.is_empty(), "world has no beers to stream");
        assert!((0.0..=1.0).contains(&spec.dup_rate), "dup_rate is a probability");
        assert!(spec.dup_lag > 0, "dup_lag must be > 0");
        assert!(spec.mean_gap > 0, "mean_gap must be > 0");
        ProductStream {
            rng: Rng::seed_from_u64(spec.seed ^ 0x57ea_0000),
            beers: world.beers.clone(),
            schema: Schema::of_names(BEER_SCHEMA),
            spec,
            clock: 0,
            fresh: 0,
            recent: VecDeque::new(),
        }
    }

    /// The schema every emitted record conforms to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn emit(&mut self) -> StreamItem {
        let gap = self.rng.gen_range(1..=2 * self.spec.mean_gap - 1);
        self.clock += gap;
        let disorder =
            if self.spec.disorder == 0 { 0 } else { self.rng.gen_range(0..=self.spec.disorder) };
        let event_time = self.clock.saturating_sub(disorder);

        let duplicate = !self.recent.is_empty() && self.rng.gen_bool(self.spec.dup_rate);
        let (entity, index, record) = if duplicate {
            let back = self.rng.gen_range(0..self.recent.len());
            let (entity, index) = self.recent[back];
            let record = corrupt_beer(&mut self.rng, &self.beers[index], self.spec.intensity);
            (entity, index, record)
        } else {
            let entity = self.fresh;
            let index = (self.fresh as usize) % self.beers.len();
            self.fresh += 1;
            (entity, index, beer_record(&self.beers[index]))
        };
        self.recent.push_back((entity, index));
        while self.recent.len() > self.spec.dup_lag {
            self.recent.pop_front();
        }
        StreamItem { event_time, entity, record }
    }
}

impl Iterator for ProductStream {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        Some(self.emit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(spec: StreamSpec) -> ProductStream {
        ProductStream::new(&WorldSpec::generate(5), spec)
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<StreamItem> = stream(StreamSpec::default()).take(500).collect();
        let b: Vec<StreamItem> = stream(StreamSpec::default()).take(500).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.event_time, y.event_time);
            assert_eq!(x.entity, y.entity);
            assert_eq!(x.record, y.record);
        }
    }

    #[test]
    fn event_time_disorder_is_bounded() {
        let spec = StreamSpec::default();
        let disorder = spec.disorder;
        let mut max_seen = 0u64;
        for item in stream(spec).take(2000) {
            // A stamp can trail the running maximum by at most the disorder
            // budget plus one emission gap's worth of drift; in particular it
            // can never regress unboundedly.
            assert!(item.event_time + disorder + 1 >= max_seen.saturating_sub(disorder));
            max_seen = max_seen.max(item.event_time);
        }
        assert!(max_seen > 0);
    }

    #[test]
    fn strictly_monotone_when_disorder_is_zero() {
        let mut last = 0u64;
        for item in stream(StreamSpec { disorder: 0, ..Default::default() }).take(1000) {
            assert!(item.event_time > last, "gaps are >= 1 tick, so time strictly advances");
            last = item.event_time;
        }
    }

    #[test]
    fn duplicates_share_entities_within_the_lag_bound() {
        let spec = StreamSpec::default();
        let lag = spec.dup_lag;
        let items: Vec<StreamItem> = stream(spec).take(3000).collect();
        let mut dup_emissions = 0usize;
        for (i, item) in items.iter().enumerate() {
            // Find the most recent earlier emission of the same entity.
            if let Some(j) = (0..i).rev().find(|&j| items[j].entity == item.entity) {
                dup_emissions += 1;
                assert!(i - j <= lag, "duplicate {i} references emission {j}, beyond the lag");
            }
        }
        let rate = dup_emissions as f64 / items.len() as f64;
        assert!(rate > 0.2 && rate < 0.5, "duplicate rate {rate} should track dup_rate");
    }

    #[test]
    fn records_conform_to_the_beer_schema() {
        let s = stream(StreamSpec::default());
        assert_eq!(s.schema().len(), BEER_SCHEMA.len());
        for item in stream(StreamSpec::default()).take(100) {
            assert_eq!(item.record.len(), BEER_SCHEMA.len());
        }
    }
}
