//! The tripwire for every seeded artefact downstream.
//!
//! Datasets, fault plans, simulator answers, golden fixtures and every
//! figure in `EXPERIMENTS.md` derive from `lingua_ml::rng` through the
//! generators. If either fingerprint below moves, all of those moved with
//! it: regenerate `results/` and the document, or undo the change.

use lingua_dataset::generators::stream::{ProductStream, StreamSpec};
use lingua_dataset::world::WorldSpec;
use lingua_ml::fnv::fingerprint;

#[test]
fn world_11_and_the_first_hundred_stream_items_are_pinned() {
    let world = WorldSpec::generate(11);
    assert_eq!(
        fingerprint(&format!("{world:?}")),
        10_781_114_436_471_366_197,
        "WorldSpec::generate(11) moved"
    );

    let stream = ProductStream::new(&world, StreamSpec { seed: 11, ..Default::default() });
    let items: Vec<_> = stream.take(100).collect();
    assert_eq!(
        fingerprint(&format!("{items:?}")),
        14_960_001_346_446_075_708,
        "StreamSpec {{ seed: 11, .. }} moved"
    );
}
