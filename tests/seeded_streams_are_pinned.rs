//! The tripwire for every seeded artefact downstream.
//!
//! Datasets, fault plans, simulator answers, golden fixtures and every
//! figure in `EXPERIMENTS.md` derive from `lingua_ml::rng` through the
//! generators. If either fingerprint below moves, all of those moved with
//! it: regenerate `results/` and the document, or undo the change.

use lingua_dataset::generators::er::{self, ErDataset};
use lingua_dataset::generators::stream::{ProductStream, StreamSpec};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{CompletionRequest, LlmService, SimLlm};
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

/// Every response of the seed-11 simulator to the pair-judgment prompts of
/// one ER split, concatenated and fingerprinted: zero-shot (both records go
/// through `KnowledgeBase::resolve`), then the same pairs behind a
/// four-example few-shot block (one-sided recognitions go on to
/// `matches_known`).
fn er_answer_fingerprints(world: &WorldSpec, llm: &SimLlm, dataset: ErDataset) -> (u64, u64) {
    let split = er::generate(world, dataset, 11);
    let shown = |p: &lingua_dataset::labels::LabeledPair| {
        (p.left.describe(&split.schema), p.right.describe(&split.schema))
    };
    let mut few_shot = String::new();
    for label in [true, false] {
        for p in split.train.iter().filter(|p| p.label == label).take(2) {
            let (a, b) = shown(p);
            few_shot.push_str(&format!(
                "Example: A: {a} | B: {b} => {}\n",
                if label { "yes" } else { "no" }
            ));
        }
    }
    let answers = |examples: &str| {
        let mut all = String::new();
        for p in split.train.iter().chain(&split.valid).chain(&split.test) {
            let (a, b) = shown(p);
            all.push_str(&llm.complete(&CompletionRequest::new(format!(
                "Please determine if the following two records refer to the same entity.\n\
                 {examples}Record A: {a}\nRecord B: {b}\nAnswer yes or no."
            ))));
            all.push('\n');
        }
        fingerprint(&all)
    };
    (answers(""), answers(&few_shot))
}

#[test]
fn simulator_answers_to_the_three_er_splits_are_pinned() {
    let world = WorldSpec::generate(11);
    let llm = SimLlm::with_seed(&world, 11);
    let answers = ErDataset::ALL.map(|dataset| er_answer_fingerprints(&world, &llm, dataset));
    assert_eq!(
        answers,
        [
            (14_821_480_832_133_547_005, 10_329_685_204_529_077_714),
            (10_137_809_794_886_047_574, 14_681_206_254_306_461_777),
            (14_112_292_531_929_566_931, 6_825_321_140_131_452_558),
        ],
        "SimLlm::with_seed(world 11, 11) answers the (zero-shot, few-shot) pair prompts of \
         BeerAdvo-RateBeer, Fodors-Zagats or iTunes-Amazon differently"
    );
}
