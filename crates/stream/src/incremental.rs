//! Incremental, window-scoped entity resolution state.
//!
//! The batch dedup path ([`lingua_tasks`-style token blocking]) sees the
//! whole table at once and generates candidate pairs in one pass. A stream
//! never gives you the whole table — and rescanning a growing corpus on
//! every arrival is the quadratic trap. [`WindowState`] keeps a *per-window*
//! token blocking index instead: when a record lands, its key tokens are
//! probed against only the records already in that window, so the work per
//! insert is bounded by window occupancy, never by how much history the
//! stream has accumulated. That bound is asserted (not just claimed) — see
//! [`WindowState::insert`]'s return value and the counter tests.
//!
//! [`lingua_tasks`-style token blocking]: https://en.wikipedia.org/wiki/Record_linkage

use crate::window::WindowId;
use lingua_dataset::generators::stream::StreamItem;
use lingua_dataset::Schema;
use lingua_ml::textsim::tokens;
use lingua_trace::ManualSpan;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Blocking keys for a record's key field: the first three characters of
/// each token, deduplicated. Prefixes are what survive the listing damage
/// this corpus actually has — "Imperial" abbreviated to "Imp." still blocks
/// with its original, where exact-token blocking silently loses the pair.
/// Both the streaming index and the bench's full-rescan baseline use this
/// same function, so incremental-vs-rescan comparisons stay apples to
/// apples.
pub(crate) fn blocking_keys(key: &str) -> Vec<String> {
    let mut keys: Vec<String> =
        tokens(key).into_iter().map(|t| t.chars().take(3).collect()).collect();
    keys.sort();
    keys.dedup();
    keys
}

/// [`blocking_keys`] of a record's key column — what
/// [`WindowState::insert_keyed`] probes with. It depends on the record alone,
/// so a record landing in several windows derives it once.
pub(crate) fn record_keys(item: &StreamItem, key_index: usize) -> Vec<String> {
    blocking_keys(&item.record.get(key_index).map(|v| v.render()).unwrap_or_default())
}

/// Outcome of inserting one record into one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Index the record was stored at within the window.
    pub index: usize,
    /// New candidate pairs `(earlier index, this index)` produced by the
    /// blocking probe. Guaranteed `≤ occupancy before insert` — the
    /// O(window) property the streaming engine is built on.
    pub candidates: Vec<(usize, usize)>,
    /// Window occupancy *before* this insert (the bound on `candidates`).
    pub occupancy_before: usize,
}

/// One open window's entity-resolution state: its records, the window-scoped
/// blocking index, and the candidate pairs generated so far.
pub(crate) struct WindowState {
    pub id: WindowId,
    /// Shared with the record's other (overlapping) windows.
    records: Vec<Arc<StreamItem>>,
    /// Blocking key ([`blocking_keys`] token prefix) → indices of records
    /// whose key field contains it. This is the blocking index; it dies with
    /// the window, so it can never grow beyond window occupancy ×
    /// keys-per-record.
    blocks: BTreeMap<String, Vec<usize>>,
    /// All candidate pairs generated for this window, `(i, j)` with `i < j`.
    candidates: Vec<(usize, usize)>,
    /// Blocking probes performed (sum of candidate-set sizes per insert).
    comparisons: u64,
    /// Cross-thread trace span covering the window's open→close lifetime.
    pub span: Option<ManualSpan>,
}

impl WindowState {
    pub(crate) fn new(id: WindowId) -> WindowState {
        WindowState {
            id,
            records: Vec::new(),
            blocks: BTreeMap::new(),
            candidates: Vec::new(),
            comparisons: 0,
            span: None,
        }
    }

    /// Insert a record, probing the window-scoped blocking index for new
    /// candidate partners. `max_block_size` caps stop-token blocks exactly
    /// like batch token blocking: a token shared by more than that many
    /// window records is too common to discriminate and is skipped.
    ///
    /// The candidate partners come only from `self.records`, so
    /// `candidates.len() <= occupancy_before` always holds — per-record work
    /// is O(window occupancy), independent of stream length.
    pub(crate) fn insert(
        &mut self,
        item: StreamItem,
        key_index: usize,
        max_block_size: usize,
    ) -> InsertOutcome {
        let keys = record_keys(&item, key_index);
        self.insert_keyed(Arc::new(item), &keys, max_block_size)
    }

    /// [`WindowState::insert`] for a record whose [`record_keys`] the caller
    /// already holds: the ingest path, which puts one record into every
    /// window that overlaps its event time.
    pub(crate) fn insert_keyed(
        &mut self,
        item: Arc<StreamItem>,
        keys: &[String],
        max_block_size: usize,
    ) -> InsertOutcome {
        let occupancy_before = self.records.len();
        let index = occupancy_before;
        let mut partners: Vec<usize> = Vec::new();
        for key in keys {
            let Some(block) = self.blocks.get_mut(key.as_str()) else {
                self.blocks.insert(key.clone(), vec![index]);
                continue;
            };
            // A block already at the stop-token threshold contributes no
            // partners (matching batch blocking's "skip oversized blocks"),
            // but the record still joins it so the threshold keeps binding.
            if block.len() <= max_block_size {
                partners.extend_from_slice(block);
            }
            block.push(index);
        }
        // A partner sharing two keys with the record is still one pair.
        partners.sort_unstable();
        partners.dedup();
        self.records.push(item);
        self.comparisons += partners.len() as u64;
        let candidates: Vec<(usize, usize)> = partners.into_iter().map(|p| (p, index)).collect();
        debug_assert!(candidates.len() <= occupancy_before);
        self.candidates.extend_from_slice(&candidates);
        InsertOutcome { index, candidates, occupancy_before }
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.records.len()
    }

    pub(crate) fn candidates(&self) -> &[(usize, usize)] {
        &self.candidates
    }

    pub(crate) fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Render every record as the description an entity-match prompt
    /// needs, by index: each once, however many candidate pairs it is in.
    pub(crate) fn describe_records(&self, schema: &Schema) -> Vec<String> {
        self.records.iter().map(|item| item.record.describe(schema)).collect()
    }

    /// Ground-truth duplicate pairs inside this window (same hidden entity
    /// id) — the oracle a report can score matcher output against.
    pub(crate) fn true_duplicate_pairs(&self) -> usize {
        let mut by_entity: BTreeMap<u64, u64> = BTreeMap::new();
        for item in &self.records {
            *by_entity.entry(item.entity).or_default() += 1;
        }
        by_entity.values().map(|&n| (n * (n - 1) / 2) as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{StreamSource, SyntheticSource};

    fn items(n: usize) -> (Schema, Vec<StreamItem>) {
        let mut source = SyntheticSource::with_seed(3);
        let schema = source.schema().clone();
        (schema, source.take_records(n))
    }

    #[test]
    fn per_insert_work_is_bounded_by_occupancy() {
        let (_, items) = items(600);
        let mut window = WindowState::new(WindowId(0));
        for item in items {
            let outcome = window.insert(item, 0, 16);
            assert!(
                outcome.candidates.len() <= outcome.occupancy_before,
                "insert produced {} candidates against occupancy {}",
                outcome.candidates.len(),
                outcome.occupancy_before
            );
        }
    }

    #[test]
    fn duplicates_become_candidates() {
        // Within one window, true duplicates share name tokens, so blocking
        // must surface most of them as candidates.
        let (_, items) = items(64);
        let mut window = WindowState::new(WindowId(0));
        let mut dup_pairs = 0usize;
        let mut dup_found = 0usize;
        for item in items {
            let entity = item.entity;
            let before: Vec<u64> = window.records.iter().map(|r| r.entity).collect();
            let outcome = window.insert(item, 0, 32);
            for (i, &e) in before.iter().enumerate() {
                if e == entity {
                    dup_pairs += 1;
                    if outcome.candidates.iter().any(|&(a, _)| a == i) {
                        dup_found += 1;
                    }
                }
            }
        }
        assert!(dup_pairs > 0, "seeded stream contains duplicates");
        assert!(
            dup_found * 10 >= dup_pairs * 7,
            "blocking recall too low: {dup_found}/{dup_pairs}"
        );
    }

    #[test]
    fn stop_token_blocks_stop_contributing() {
        let (_, items) = items(200);
        let mut generous = WindowState::new(WindowId(0));
        let mut strict = WindowState::new(WindowId(0));
        for item in items {
            generous.insert(item.clone(), 0, 64);
            strict.insert(item, 0, 2);
        }
        assert!(
            strict.comparisons() < generous.comparisons(),
            "a tighter stop-token cap must prune probes ({} vs {})",
            strict.comparisons(),
            generous.comparisons()
        );
    }

    #[test]
    fn candidate_pairs_are_ordered_and_unique() {
        let (_, items) = items(120);
        let mut window = WindowState::new(WindowId(0));
        for item in items {
            window.insert(item, 0, 16);
        }
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in window.candidates() {
            assert!(a < b);
            assert!(seen.insert((a, b)), "pair ({a},{b}) generated twice");
        }
    }

    #[test]
    fn true_duplicate_pairs_counts_the_oracle() {
        let (schema, items) = items(48);
        let mut window = WindowState::new(WindowId(0));
        for item in items {
            window.insert(item, 0, 16);
        }
        let truth = window.true_duplicate_pairs();
        // Cross-check against the naive O(n²) count.
        let records = &window.records;
        let mut naive = 0usize;
        for i in 0..records.len() {
            for j in i + 1..records.len() {
                if records[i].entity == records[j].entity {
                    naive += 1;
                }
            }
        }
        assert_eq!(truth, naive);
        let described = window.describe_records(&schema);
        assert_eq!(described.len(), records.len());
        assert!(described[0].contains("beer_name") && described[1].contains("brewery"));
    }
}
