//! Multilingual name-extraction corpus (§4.2).
//!
//! Each passage is a few sentences produced from per-language templates, with
//! `{name}` slots filled by "Given Surname" person names and `{place}` slots
//! by capitalized distractor proper nouns. Ground truth is the exact list of
//! person full names appearing in the passage.
//!
//! The corpus's language mix is configurable; the §4.2 experiment contrasts a
//! monolingual pipeline (English-only tooling degrades on the rest) with one
//! extended by a language-detection module and multilingual tools.

use crate::world::{Language, Lexicon, WorldSpec};
use lingua_ml::rng::Rng;

/// One labeled passage.
#[derive(Debug, Clone, PartialEq)]
pub struct Passage {
    pub text: String,
    pub language: Language,
    /// Person full names in the text (order of appearance; duplicates kept).
    pub person_names: Vec<String>,
}

/// Corpus configuration.
#[derive(Debug, Clone)]
pub struct NamesConfig {
    pub passages: usize,
    /// (language, weight) mixture. Weights need not sum to 1.
    pub language_mix: Vec<(Language, f64)>,
    /// Sentences per passage (inclusive range).
    pub sentences: (usize, usize),
}

impl Default for NamesConfig {
    fn default() -> Self {
        // The startup corpus of §4.2: majority English with a long multilingual
        // tail that tanks a monolingual extractor.
        NamesConfig {
            passages: 300,
            language_mix: vec![
                (Language::English, 0.40),
                (Language::French, 0.12),
                (Language::German, 0.12),
                (Language::Spanish, 0.10),
                (Language::Italian, 0.08),
                (Language::Turkish, 0.06),
                (Language::Chinese, 0.06),
                (Language::Japanese, 0.06),
            ],
            sentences: (2, 4),
        }
    }
}

/// Generate a corpus.
pub fn generate(world: &WorldSpec, config: &NamesConfig, seed: u64) -> Vec<Passage> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9a3e);
    let total_weight: f64 = config.language_mix.iter().map(|(_, w)| w).sum();
    let mut corpus = Vec::with_capacity(config.passages);
    for _ in 0..config.passages {
        let mut draw = rng.gen_range(0.0..total_weight);
        let mut language = config.language_mix[0].0;
        for &(lang, w) in &config.language_mix {
            if draw < w {
                language = lang;
                break;
            }
            draw -= w;
        }
        let lexicon = &world.lexicons[&language];
        corpus.push(passage(&mut rng, language, lexicon, config.sentences));
    }
    corpus
}

fn full_name(rng: &mut Rng, lexicon: &Lexicon) -> String {
    let given = &lexicon.given_names[rng.gen_range(0..lexicon.given_names.len())];
    let surname = &lexicon.surnames[rng.gen_range(0..lexicon.surnames.len())];
    format!("{given} {surname}")
}

fn passage(
    rng: &mut Rng,
    language: Language,
    lexicon: &Lexicon,
    sentences: (usize, usize),
) -> Passage {
    let n = rng.gen_range(sentences.0..=sentences.1);
    let mut text = String::new();
    let mut person_names = Vec::new();
    for i in 0..n {
        if i > 0 {
            text.push(' ');
        }
        let template = &lexicon.templates[rng.gen_range(0..lexicon.templates.len())];
        let mut sentence = template.clone();
        while let Some(pos) = sentence.find("{name2}") {
            let name = full_name(rng, lexicon);
            sentence.replace_range(pos..pos + 7, &name);
            person_names.push(name);
        }
        while let Some(pos) = sentence.find("{name}") {
            let name = full_name(rng, lexicon);
            sentence.replace_range(pos..pos + 6, &name);
            person_names.push(name);
        }
        while let Some(pos) = sentence.find("{place}") {
            let place = &lexicon.distractors[rng.gen_range(0..lexicon.distractors.len())];
            sentence.replace_range(pos..pos + 7, place);
        }
        while let Some(pos) = sentence.find("{noun}") {
            let noun = &lexicon.nouns[rng.gen_range(0..lexicon.nouns.len())];
            sentence.replace_range(pos..pos + 6, noun);
        }
        text.push_str(&sentence);
    }
    // Names were pushed in slot-scan order, not strictly appearance order;
    // re-derive appearance order from the final text for a clean ground truth.
    person_names.sort_by_key(|name| text.find(name.as_str()).unwrap_or(usize::MAX));
    Passage { text, language, person_names }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Passage> {
        let world = WorldSpec::generate(7);
        generate(&world, &NamesConfig::default(), 3)
    }

    #[test]
    fn corpus_size_and_determinism() {
        let a = corpus();
        let b = corpus();
        assert_eq!(a.len(), 300);
        assert_eq!(a, b);
    }

    #[test]
    fn ground_truth_names_appear_in_text() {
        for p in corpus() {
            for name in &p.person_names {
                assert!(p.text.contains(name.as_str()), "{name} missing from {:?}", p.text);
            }
            assert!(!p.person_names.is_empty(), "passage without names: {:?}", p.text);
        }
    }

    #[test]
    fn language_mix_is_roughly_respected() {
        let c = corpus();
        let english = c.iter().filter(|p| p.language == Language::English).count() as f64;
        let frac = english / c.len() as f64;
        assert!((frac - 0.40).abs() < 0.12, "english fraction {frac}");
        // Every language in the default mix shows up.
        for lang in Language::ALL {
            assert!(c.iter().any(|p| p.language == lang), "no passages in {lang:?}");
        }
    }

    #[test]
    fn custom_config_single_language() {
        let world = WorldSpec::generate(7);
        let config = NamesConfig {
            passages: 20,
            language_mix: vec![(Language::German, 1.0)],
            sentences: (1, 2),
        };
        let corpus = generate(&world, &config, 5);
        assert_eq!(corpus.len(), 20);
        assert!(corpus.iter().all(|p| p.language == Language::German));
    }

    #[test]
    fn names_are_two_or_three_tokens() {
        // "Given Surname", where a surname may itself be two tokens ("De Luca").
        for p in corpus().iter().take(50) {
            for name in &p.person_names {
                let tokens = name.split_whitespace().count();
                assert!((2..=3).contains(&tokens), "{name}");
            }
        }
    }
}
