//! Language detection — the module the §4.2 multilingual fix plugs into the
//! name-extraction pipeline.

use crate::calibration::Calibration;
use crate::knowledge::KnowledgeBase;
use crate::prompt::ParsedPrompt;
use lingua_ml::rng::Rng;

/// Produce the response for a language-detection prompt: the ISO-ish code,
/// possibly wrapped in prose when the format is not pinned.
pub fn respond(
    kb: &KnowledgeBase,
    calibration: &Calibration,
    parsed: &ParsedPrompt,
    rng: &mut Rng,
) -> String {
    let text = parsed.payload.trim();
    if text.is_empty() {
        return "Please provide text to identify.".to_string();
    }
    let (language, _margin) = kb.detect_language(text);
    let code = language.code();
    let verbose_rate = if parsed.format_pinned {
        calibration.verbose_answer_rate_pinned
    } else {
        calibration.verbose_answer_rate_unpinned
    };
    if rng.gen_bool(verbose_rate) {
        format!("The text appears to be written in {} ({code}).", language_name(code))
    } else {
        code.to_string()
    }
}

fn language_name(code: &str) -> &'static str {
    match code {
        "en" => "English",
        "fr" => "French",
        "de" => "German",
        "es" => "Spanish",
        "it" => "Italian",
        "tr" => "Turkish",
        "zh" => "Chinese",
        "ja" => "Japanese",
        _ => "an unknown language",
    }
}

/// Robust code extraction from a possibly-verbose answer.
pub fn parse_language_code(text: &str) -> Option<&'static str> {
    let lower = text.to_lowercase();
    for code in ["en", "fr", "de", "es", "it", "tr", "zh", "ja"] {
        if lower.trim() == code
            || lower.contains(&format!("({code})"))
            || lower.contains(language_name(code).to_lowercase().as_str())
        {
            return Some(match code {
                "en" => "en",
                "fr" => "fr",
                "de" => "de",
                "es" => "es",
                "it" => "it",
                "tr" => "tr",
                "zh" => "zh",
                _ => "ja",
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt;
    use lingua_dataset::generators::names::{generate, NamesConfig};
    use lingua_dataset::world::{Language, WorldSpec};

    #[test]
    fn detects_each_language_robustly() {
        let world = WorldSpec::generate(5);
        let cal = Calibration::default();
        let kb = KnowledgeBase::from_world(&world, &cal, 5);
        for lang in Language::ALL {
            let config =
                NamesConfig { passages: 4, language_mix: vec![(lang, 1.0)], sentences: (2, 3) };
            let corpus = generate(&world, &config, 9);
            let mut correct = 0;
            for (i, passage) in corpus.iter().enumerate() {
                let text = format!("What language is this text?\nText: {}", passage.text);
                let parsed = prompt::parse(&text);
                let mut rng = Rng::seed_from_u64(i as u64);
                let response = respond(&kb, &cal, &parsed, &mut rng);
                if parse_language_code(&response) == Some(lang.code()) {
                    correct += 1;
                }
            }
            assert!(correct >= 3, "{lang:?}: {correct}/4");
        }
    }

    #[test]
    fn verbose_answers_still_parse() {
        assert_eq!(
            parse_language_code("The text appears to be written in French (fr)."),
            Some("fr")
        );
        assert_eq!(parse_language_code("de"), Some("de"));
        assert_eq!(parse_language_code("no idea"), None);
    }

    #[test]
    fn empty_text_asks_for_input() {
        let world = WorldSpec::generate(5);
        let cal = Calibration::default();
        let kb = KnowledgeBase::from_world(&world, &cal, 5);
        let parsed = prompt::parse("What language is this text?");
        let mut rng = Rng::seed_from_u64(0);
        assert!(respond(&kb, &cal, &parsed, &mut rng).contains("provide"));
    }
}
