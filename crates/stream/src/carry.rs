//! Pair ownership across windows: a repeated pair is asked once for as long
//! as the engine remembers it.
//!
//! With `slide < window` a record sits in several windows, and so does every
//! candidate pair of two records that share them. A stream that re-emits its
//! catalogue also meets the same clean pairs again, windows later. Asking
//! each copy of a pair would pay for the same judgment once per meeting.
//! Instead the windows share verdicts the way panes share partial aggregates
//! in Li et al., "No pane, no gain" (SIGMOD Record 2005): a pair is keyed by
//! its two rendered records ([`pair_key`]), and a closing window *owns* —
//! asks its job about — only the keys no remembered earlier window owns. The
//! rest it *carries*: their verdicts come from the owner's job.
//!
//! Which earlier windows count is fixed by configuration alone: window `k`
//! may carry from windows `k − 1 … k − d` ([`Horizon`]), where `d` is the
//! larger of the overlap depth `⌈window / slide⌉ − 1` and the number of
//! window-job outputs the server keeps (`result_cache_capacity`). What the
//! engine remembers is `d` windows' keys however long the stream runs, and a
//! key is found by lookup, so `d` costs memory, not time. A pair that repeats
//! beyond `d` windows is asked again. Carrying does not renew a key: it is
//! remembered for `d` windows after the window that asked it.

use crate::window::StreamTuning;
use lingua_core::Data;
use lingua_ml::fnv::Fnv1a;
use std::collections::{BTreeMap, HashMap};

/// A candidate pair's identity across windows: FNV-1a over its two rendered
/// records, in order (the prompt asks about them in that order). The
/// judge's answer depends on the pair's prompt alone, so two pairs with one
/// key share one verdict.
pub(crate) fn pair_key(a: &str, b: &str) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write_str(a);
    hasher.write_str(b);
    hasher.finish()
}

/// The keys of the pairs a window job's inputs ask about, in payload order:
/// one per verdict the job returns.
pub(crate) fn payload_keys(inputs: &BTreeMap<String, Data>) -> Vec<u64> {
    let pairs = inputs.get("payload").and_then(|p| p.as_map()).and_then(|p| p.get("pairs"));
    let pairs = pairs.and_then(Data::as_list).unwrap_or_default();
    pairs
        .iter()
        .map(|pair| {
            let side = |name: &str| {
                pair.as_map().and_then(|p| p.get(name)).and_then(Data::as_str).unwrap_or("")
            };
            pair_key(side("a"), side("b"))
        })
        .collect()
}

/// What the windows before a closing one own: their pair keys at close time
/// (`V = ()`), or the verdicts their jobs gave them at report time
/// (`V = bool`), indexed by key and forgotten in window order.
pub(crate) struct Horizon<V> {
    /// `⌈window / slide⌉ − 1`: how many windows before `k` overlap it.
    overlap: u64,
    /// How many windows before `k` it may carry from: at least `overlap`.
    depth: u64,
    /// Each remembered key's owning window and its value there.
    keys: HashMap<u64, (u64, V)>,
    /// The keys each remembered window owns, to forget them by window.
    windows: BTreeMap<u64, Vec<u64>>,
}

impl<V: Copy> Horizon<V> {
    /// A horizon over `tuning`'s overlap or `remembered` windows, whichever
    /// reaches further.
    pub(crate) fn new(tuning: &StreamTuning, remembered: usize) -> Horizon<V> {
        let overlap = tuning.window.div_ceil(tuning.slide) - 1;
        let depth = overlap.max(remembered as u64);
        Horizon { overlap, depth, keys: HashMap::new(), windows: BTreeMap::new() }
    }

    /// The oldest window that `window` may carry from.
    pub(crate) fn reach(&self, window: u64) -> u64 {
        window.saturating_sub(self.depth)
    }

    /// The earlier window within `window`'s reach that owns `key`, with what
    /// it holds for it.
    pub(crate) fn held(&self, window: u64, key: u64) -> Option<(u64, V)> {
        let &(owner, value) = self.keys.get(&key)?;
        (self.reach(window)..window).contains(&owner).then_some((owner, value))
    }

    /// Whether `window` carrying from `owner` reaches past the windows that
    /// overlap it: a far repeat, not a shared pair.
    pub(crate) fn far(&self, window: u64, owner: u64) -> bool {
        owner < window.saturating_sub(self.overlap)
    }

    /// How many windows and keys the horizon remembers.
    #[cfg(test)]
    pub(crate) fn remembered(&self) -> (usize, usize) {
        (self.windows.len(), self.keys.len())
    }

    /// Record `window`'s own entries, as recovery restores them in window
    /// order: nothing is forgotten.
    pub(crate) fn restore(&mut self, window: u64, own: impl IntoIterator<Item = (u64, V)>) {
        let keys = own.into_iter().map(|(key, value)| {
            self.keys.insert(key, (window, value));
            key
        });
        self.windows.insert(window, keys.collect());
    }

    /// Record `window`'s own entries and forget every window that no later
    /// window reaches. A forgotten window's key stays only if a later window
    /// has owned it since.
    pub(crate) fn close(&mut self, window: u64, own: impl IntoIterator<Item = (u64, V)>) {
        let reach = self.reach(window + 1);
        while let Some(entry) = self.windows.first_entry().filter(|entry| *entry.key() < reach) {
            let (old, keys) = entry.remove_entry();
            for key in keys {
                if self.keys.get(&key).is_some_and(|&(owner, _)| owner == old) {
                    self.keys.remove(&key);
                }
            }
        }
        self.restore(window, own);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuning(window: u64, slide: u64) -> StreamTuning {
        StreamTuning { window, slide, watermark_interval: 1 }
    }

    fn one<V>(key: u64, value: V) -> [(u64, V); 1] {
        [(key, value)]
    }

    #[test]
    fn the_horizon_is_the_overlapping_windows() {
        // 64/32: each window overlaps the one before it only.
        let mut horizon = Horizon::new(&tuning(64, 32), 0);
        horizon.close(4, one(1, ()));
        assert_eq!(horizon.held(5, 1), Some((4, ())));
        assert_eq!(horizon.held(6, 1), None, "window 6 does not overlap window 4");
        assert_eq!(horizon.held(4, 1), None, "a window never holds its own keys");
        // 64/20: ⌈64/20⌉ − 1 = 3 windows back.
        let mut horizon = Horizon::new(&tuning(64, 20), 0);
        horizon.close(4, one(1, ()));
        assert_eq!(horizon.held(7, 1), Some((4, ())));
        assert_eq!(horizon.held(8, 1), None);
        // Tumbling windows share nothing.
        let mut horizon = Horizon::new(&tuning(32, 32), 0);
        horizon.close(4, one(1, ()));
        assert_eq!(horizon.held(5, 1), None);
        // Remembering fewer windows than overlap still reaches the overlap.
        let mut horizon = Horizon::new(&tuning(64, 20), 1);
        horizon.close(4, one(1, ()));
        assert_eq!(horizon.held(7, 1), Some((4, ())));
    }

    #[test]
    fn a_remembered_window_is_carried_from_and_a_far_one_is_named() {
        let mut horizon = Horizon::new(&tuning(64, 32), 10);
        horizon.close(4, one(1, true));
        horizon.close(5, one(2, false));
        assert_eq!(horizon.held(14, 1), Some((4, true)), "window 14 reaches back to 4");
        assert_eq!(horizon.held(15, 1), None, "window 15 does not");
        assert_eq!(horizon.held(15, 2), Some((5, false)));
        assert!(!horizon.far(5, 4), "window 5 overlaps window 4");
        assert!(horizon.far(6, 4) && horizon.far(14, 4));
        // A key asked again past the horizon belongs to its new owner.
        horizon.close(15, one(1, false));
        horizon.close(16, one(3, true));
        assert_eq!(horizon.held(17, 1), Some((15, false)));
        assert_eq!(horizon.held(17, 2), None, "window 5 is forgotten");
        assert_eq!(horizon.keys.len(), 2, "{:?}", horizon.keys);
    }

    #[test]
    fn closing_forgets_what_no_later_window_reaches() {
        for (remembered, kept) in [(0, 1), (1, 1), (7, 7)] {
            let mut horizon: Horizon<()> = Horizon::new(&tuning(64, 32), remembered);
            for window in 0..100 {
                horizon.close(window, [(window, ()), (1_000 + window % 3, ())]);
                assert!(horizon.windows.len() <= kept, "after {window}: {:?}", horizon.windows);
                assert!(horizon.keys.len() <= 2 * kept, "after {window}: {:?}", horizon.keys);
            }
        }
        // Forgetting a window keeps the keys a later window owns since.
        let mut horizon: Horizon<()> = Horizon::new(&tuning(64, 32), 7);
        for window in 0..100 {
            horizon.restore(window, [(window, ()), (1_000 + window % 3, ())]);
        }
        horizon.close(100, []);
        for (key, owner) in [(1_000, 99), (1_001, 97), (1_002, 98)] {
            assert_eq!(horizon.held(101, key), Some((owner, ())));
        }
        // A restored later window is kept while an earlier one closes.
        let mut horizon: Horizon<()> = Horizon::new(&tuning(64, 32), 0);
        horizon.restore(3, one(3, ()));
        horizon.restore(5, one(5, ()));
        assert_eq!(horizon.held(4, 3), Some((3, ())));
        horizon.close(4, one(4, ()));
        assert_eq!(horizon.held(4, 5), None, "window 4 closed before window 5");
        assert_eq!(horizon.held(6, 5), Some((5, ())));
        assert_eq!(horizon.held(5, 3), None, "window 3 is forgotten");
    }

    #[test]
    fn a_pair_key_is_ordered_and_unambiguous() {
        assert_eq!(pair_key("a", "b"), pair_key("a", "b"));
        assert_ne!(pair_key("a", "b"), pair_key("b", "a"));
        assert_ne!(pair_key("ab", "c"), pair_key("a", "bc"));
        let pair = |a: &str, b: &str| {
            Data::map([
                ("a".to_string(), Data::Str(a.into())),
                ("b".to_string(), Data::Str(b.into())),
            ])
        };
        let payload = Data::map([
            ("pairs".to_string(), Data::List(vec![pair("x", "y"), pair("y", "x")])),
            ("window".to_string(), Data::Int(3)),
        ]);
        let inputs = BTreeMap::from([("payload".to_string(), payload)]);
        assert_eq!(payload_keys(&inputs), [pair_key("x", "y"), pair_key("y", "x")]);
        assert_eq!(payload_keys(&BTreeMap::new()), Vec::<u64>::new());
    }
}
