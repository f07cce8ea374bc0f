//! Person-name tagging: "Is this phrase a person name?" (the LLM tagger in
//! the Figure-3 name-extraction pipeline).
//!
//! The model consults its per-language name lexicons. With a language hint in
//! the prompt (supplied by the language-detection module of §4.2) it uses the
//! right lexicon; without one it assumes English — which is precisely why the
//! monolingual pipeline degrades on multilingual data.

use crate::calibration::Calibration;
use crate::knowledge::KnowledgeBase;
use crate::noise;
use crate::prompt::ParsedPrompt;
use lingua_dataset::world::Language;
use lingua_ml::fnv::fingerprint;
use lingua_ml::rng::Rng;

/// Judge whether `phrase` is a person name under `language` knowledge.
/// Returns the verdict plus whether the phrase was actually covered by the
/// lexicon (used for confidence).
pub fn judge_phrase(kb: &KnowledgeBase, language: Language, phrase: &str) -> (bool, bool) {
    let tokens: Vec<&str> = phrase.split_whitespace().collect();
    if tokens.is_empty() || tokens.len() > 4 {
        return (false, true);
    }
    // Known place/org names are confidently not people.
    if tokens.iter().any(|t| kb.is_known_place_or_org(t)) {
        return (false, true);
    }
    let first = tokens[0];
    let given_known = kb.knows_given_name(language, first);
    let surname_known = tokens
        .len()
        .checked_sub(1)
        .map(|_| {
            // Surnames may span multiple tokens ("De Luca"): try the last
            // token and the last two joined.
            let last = tokens[tokens.len() - 1];
            let last_two = if tokens.len() >= 2 {
                format!("{} {}", tokens[tokens.len() - 2], last)
            } else {
                last.to_string()
            };
            kb.knows_surname(language, last) || kb.knows_surname(language, &last_two)
        })
        .unwrap_or(false);

    if given_known && (tokens.len() == 1 || surname_known) {
        (true, true)
    } else if given_known || surname_known {
        // Partial knowledge: lean yes for two-token capitalized phrases.
        let capitalized =
            tokens.iter().all(|t| t.chars().next().map(|c| c.is_uppercase()).unwrap_or(false));
        (capitalized && tokens.len() >= 2, true)
    } else {
        (false, false)
    }
}

/// Produce the response for a tagging prompt.
pub fn respond(
    kb: &KnowledgeBase,
    calibration: &Calibration,
    parsed: &ParsedPrompt,
    rng: &mut Rng,
) -> String {
    let verbose_rate = if parsed.format_pinned {
        calibration.verbose_answer_rate_pinned
    } else {
        calibration.verbose_answer_rate_unpinned
    };
    let phrase = parsed.payload.trim();
    if phrase.is_empty() {
        return "Please provide a phrase to judge.".to_string();
    }
    let language =
        parsed.language_hint.as_deref().and_then(Language::from_code).unwrap_or(Language::English);

    let (verdict, covered) = judge_phrase(kb, language, phrase);
    let mut verdict = verdict;
    if !covered {
        // Out-of-knowledge phrase: unstable guess, biased to "no", stable per
        // phrase so repeated queries agree.
        let draw = (fingerprint(phrase) >> 9) as f64 / (1u64 << 55) as f64;
        verdict = draw < 0.22;
    }
    if rng.gen_bool(calibration.hallucination_rate) {
        verdict = !verdict;
    }
    noise::render_bool(rng, verdict, verbose_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt;
    use lingua_dataset::world::WorldSpec;

    fn setup() -> (WorldSpec, KnowledgeBase, Calibration) {
        let world = WorldSpec::generate(5);
        let cal = Calibration::default();
        let kb = KnowledgeBase::from_world(&world, &cal, 5);
        (world, kb, cal)
    }

    fn ask(kb: &KnowledgeBase, cal: &Calibration, phrase: &str, lang: Option<&str>) -> bool {
        let lang_line = lang.map(|l| format!("Language: {l}\n")).unwrap_or_default();
        let text = format!(
            "Is the following phrase a person name?\n{lang_line}Text: {phrase}\nAnswer yes or no.",
        );
        let parsed = prompt::parse(&text);
        let mut rng = Rng::seed_from_u64(fingerprint(phrase));
        noise::parse_bool_robust(&respond(kb, cal, &parsed, &mut rng)).unwrap_or(false)
    }

    #[test]
    fn english_names_recognized_without_hint() {
        let (_, kb, cal) = setup();
        let mut hits = 0;
        let names = ["James Smith", "Mary Johnson", "Robert Brown", "Linda Davis", "John Walker"];
        for name in names {
            if ask(&kb, &cal, name, None) {
                hits += 1;
            }
        }
        assert!(hits >= 4, "{hits}/5 English names tagged");
    }

    #[test]
    fn foreign_names_need_the_language_hint() {
        let (_, kb, cal) = setup();
        let names = [
            "Hans Müller",
            "Greta Fischer",
            "Jürgen Weber",
            "Sabine Wagner",
            "Wolfgang Becker",
            "Ingrid Schulz",
        ];
        let mut without_hint = 0;
        let mut with_hint = 0;
        for name in names {
            if ask(&kb, &cal, name, None) {
                without_hint += 1;
            }
            if ask(&kb, &cal, name, Some("de")) {
                with_hint += 1;
            }
        }
        assert!(with_hint >= 5, "with hint: {with_hint}/6");
        assert!(without_hint <= 2, "without hint: {without_hint}/6");
    }

    #[test]
    fn places_are_rejected() {
        let (_, kb, cal) = setup();
        assert!(!ask(&kb, &cal, "London", None));
        assert!(!ask(&kb, &cal, "Paris", Some("fr")));
    }

    #[test]
    fn long_phrases_are_rejected() {
        let (_, kb, cal) = setup();
        assert!(!ask(&kb, &cal, "the quick brown fox jumps over", None));
    }

    #[test]
    fn judgments_are_stable() {
        let (_, kb, cal) = setup();
        let a = ask(&kb, &cal, "Qwxyz Zzyxq", None);
        let b = ask(&kb, &cal, "Qwxyz Zzyxq", None);
        assert_eq!(a, b);
    }
}
