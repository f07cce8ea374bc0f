//! Pair ownership across overlapping windows: each pair is asked once.
//!
//! With `slide < window` a record sits in several windows, and so does every
//! candidate pair of two records that share them. Asking each window's
//! copy of a pair would pay for the same judgment once per overlap. Instead
//! the windows share verdicts the way panes share partial aggregates in Li
//! et al., "No pane, no gain" (SIGMOD Record 2005): a pair is keyed by its
//! two rendered records ([`pair_key`]), and a closing window *owns* — asks
//! its job about — only the keys no overlapping earlier window owns. The
//! rest it *carries*: their verdicts come from the owner's job.
//!
//! Which earlier windows count is fixed by the tuning alone: window `k`
//! overlaps windows `k − 1 … k − d` with `d = ⌈window / slide⌉ − 1`
//! ([`Horizon`]), so what the engine remembers is `d` windows' keys, O(window)
//! however long the stream runs. A pair that repeats beyond that horizon is
//! asked again.

use crate::window::StreamTuning;
use lingua_core::Data;
use lingua_ml::fnv::Fnv1a;
use std::collections::BTreeMap;

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

/// What the windows just before a closing one own, by window id: their pair
/// keys at close time (`V = ()`), or the verdicts their jobs gave them at
/// report time (`V = bool`).
pub(crate) struct Horizon<V> {
    /// `⌈window / slide⌉ − 1`: how many windows before `k` overlap it.
    depth: u64,
    windows: BTreeMap<u64, BTreeMap<u64, V>>,
}

impl<V: Copy> Horizon<V> {
    pub(crate) fn new(tuning: &StreamTuning) -> Horizon<V> {
        Horizon { depth: tuning.window.div_ceil(tuning.slide) - 1, windows: BTreeMap::new() }
    }

    /// The oldest window that overlaps `window`.
    pub(crate) fn reach(&self, window: u64) -> u64 {
        window.saturating_sub(self.depth)
    }

    /// What a window overlapping `window` from before holds for `key`.
    pub(crate) fn held(&self, window: u64, key: u64) -> Option<V> {
        self.windows.range(self.reach(window)..window).find_map(|(_, held)| held.get(&key).copied())
    }

    /// Record `window`'s own entries, as recovery restores them: nothing is
    /// forgotten.
    pub(crate) fn restore(&mut self, window: u64, own: BTreeMap<u64, V>) {
        self.windows.insert(window, own);
    }

    /// Record `window`'s own entries and forget every window that neither it
    /// nor a later window overlaps.
    pub(crate) fn close(&mut self, window: u64, own: BTreeMap<u64, V>) {
        self.windows = self.windows.split_off(&self.reach(window));
        self.windows.insert(window, own);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuning(window: u64, slide: u64) -> StreamTuning {
        StreamTuning { window, slide, watermark_interval: 1 }
    }

    #[test]
    fn the_horizon_is_the_overlapping_windows() {
        let one = |key: u64| BTreeMap::from([(key, ())]);
        // 64/32: each window overlaps the one before it only.
        let mut horizon = Horizon::new(&tuning(64, 32));
        horizon.close(4, one(1));
        assert_eq!(horizon.held(5, 1), Some(()));
        assert_eq!(horizon.held(6, 1), None, "window 6 does not overlap window 4");
        assert_eq!(horizon.held(4, 1), None, "a window never holds its own keys");
        // 64/20: ⌈64/20⌉ − 1 = 3 windows back.
        let mut horizon = Horizon::new(&tuning(64, 20));
        horizon.close(4, one(1));
        assert_eq!(horizon.held(7, 1), Some(()));
        assert_eq!(horizon.held(8, 1), None);
        // Tumbling windows share nothing.
        let mut horizon = Horizon::new(&tuning(32, 32));
        horizon.close(4, one(1));
        assert_eq!(horizon.held(5, 1), None);
    }

    #[test]
    fn closing_forgets_what_no_later_window_reaches() {
        let mut horizon: Horizon<()> = Horizon::new(&tuning(64, 32));
        for window in 0..100 {
            horizon.close(window, BTreeMap::from([(window, ())]));
            assert!(horizon.windows.len() <= 2, "after {window}: {:?}", horizon.windows.keys());
        }
        // A restored later window is kept while an earlier one closes.
        let mut horizon: Horizon<()> = Horizon::new(&tuning(64, 32));
        horizon.restore(3, BTreeMap::from([(3, ())]));
        horizon.restore(5, BTreeMap::from([(5, ())]));
        horizon.close(4, BTreeMap::from([(4, ())]));
        assert_eq!(horizon.held(4, 3), Some(()));
        assert_eq!(horizon.held(4, 5), None, "window 4 closed before window 5");
        assert_eq!(horizon.held(6, 5), Some(()));
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
