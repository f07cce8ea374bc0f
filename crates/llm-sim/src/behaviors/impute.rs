//! Manufacturer imputation (the §4.3 Buy-dataset task).
//!
//! 1. If a known brand appears verbatim in the text → read it off (near-
//!    perfect comprehension).
//! 2. Else, if a known product line appears → answer the line's owner
//!    ("PlayStation 2 …" → Sony): the world-knowledge path that statistical
//!    imputers cannot take.
//! 3. Else guess deterministically from the candidate vocabulary — right only
//!    by luck.

use crate::calibration::Calibration;
use crate::knowledge::KnowledgeBase;
use crate::noise;
use crate::prompt::ParsedPrompt;
use lingua_ml::fnv::fingerprint;
use lingua_ml::rng::Rng;

/// Produce the response text for an imputation prompt.
pub(crate) fn respond(
    kb: &KnowledgeBase,
    calibration: &Calibration,
    parsed: &ParsedPrompt,
    rng: &mut Rng,
) -> String {
    // Categorical answers drift less than free-form prose: even unpinned,
    // a model asked for a manufacturer mostly emits a short name.
    let verbose_rate = if parsed.format_pinned {
        calibration.verbose_answer_rate_pinned
    } else {
        calibration.verbose_answer_rate_unpinned * 0.55
    };
    let text = &parsed.payload;
    if text.trim().is_empty() {
        return "Please provide the product to impute.".to_string();
    }
    let vocabulary: &[String] =
        if parsed.candidates.is_empty() { kb.manufacturers() } else { &parsed.candidates };

    // Step 1: brand read-off.
    let lowered = text.to_lowercase();
    if let Some(maker) = kb.manufacturer_in_text(&lowered) {
        if rng.gen_bool(calibration.text_mention_accuracy) {
            return noise::render_category(rng, maker, verbose_rate);
        }
        // Rare comprehension slip: misread as another brand.
        let wrong = pick_other(vocabulary, maker, text);
        return noise::render_category(rng, &wrong, verbose_rate);
    }

    // Step 2: product-line knowledge.
    if let Some(owner) = kb.line_owner_in_text(&lowered) {
        let mut answer = owner.to_string();
        if rng.gen_bool(calibration.known_entity_error) {
            answer = pick_other(vocabulary, owner, text);
        }
        return noise::render_category(rng, &answer, verbose_rate);
    }

    // Step 3: blind guess, stable per product text.
    let guess = if vocabulary.is_empty() {
        "Unknown".to_string()
    } else {
        vocabulary[(fingerprint(text) as usize) % vocabulary.len()].clone()
    };
    noise::render_category(rng, &guess, verbose_rate)
}

fn pick_other(vocabulary: &[String], not: &str, key: &str) -> String {
    let others: Vec<&String> = vocabulary.iter().filter(|v| *v != not).collect();
    if others.is_empty() {
        return not.to_string();
    }
    others[(fingerprint(key) as usize) % others.len()].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt;
    use lingua_dataset::world::{BrandMention, WorldSpec};

    fn setup() -> (WorldSpec, KnowledgeBase, Calibration) {
        let world = WorldSpec::generate(5);
        let cal = Calibration::default();
        let kb = KnowledgeBase::from_world(&world, &cal, 5);
        (world, kb, cal)
    }

    fn ask(kb: &KnowledgeBase, cal: &Calibration, name: &str, desc: &str, seed: u64) -> String {
        let text = format!(
            "Fill in the missing manufacturer.\nProduct: {name} - {desc}\nAnswer with only the manufacturer name.",
        );
        let parsed = prompt::parse(&text);
        let mut rng = Rng::seed_from_u64(seed);
        respond(kb, cal, &parsed, &mut rng)
    }

    #[test]
    fn easy_cases_are_nearly_perfect() {
        let (world, kb, cal) = setup();
        let vocab: Vec<String> = kb.manufacturers().to_vec();
        let mut correct = 0;
        let mut total = 0;
        for p in
            world.products.iter().filter(|p| p.mention != BrandMention::KnowledgeOnly).take(150)
        {
            let answer = ask(&kb, &cal, &p.name, &p.description, p.id);
            if noise::normalize_category(&answer, &vocab) == p.manufacturer {
                correct += 1;
            }
            total += 1;
        }
        assert!(correct as f64 / total as f64 > 0.95, "{correct}/{total}");
    }

    #[test]
    fn hard_cases_track_line_coverage() {
        let (world, kb, cal) = setup();
        let vocab: Vec<String> = kb.manufacturers().to_vec();
        let mut correct = 0;
        let mut total = 0;
        for p in world.products.iter().filter(|p| p.mention == BrandMention::KnowledgeOnly) {
            let answer = ask(&kb, &cal, &p.name, &p.description, p.id);
            if noise::normalize_category(&answer, &vocab) == p.manufacturer {
                correct += 1;
            }
            total += 1;
        }
        let rate = correct as f64 / total as f64;
        // Should be near product_line_coverage (0.68) plus a little luck.
        assert!((0.50..0.85).contains(&rate), "hard-case accuracy {rate} over {total}");
    }

    #[test]
    fn responses_are_deterministic_per_seed() {
        let (world, kb, cal) = setup();
        let p = &world.products[0];
        let a = ask(&kb, &cal, &p.name, &p.description, 1);
        let b = ask(&kb, &cal, &p.name, &p.description, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_product_asks_for_input() {
        let (_, kb, cal) = setup();
        let parsed = prompt::parse("Fill in the missing manufacturer.");
        let mut rng = Rng::seed_from_u64(0);
        assert!(respond(&kb, &cal, &parsed, &mut rng).contains("provide"));
    }
}
