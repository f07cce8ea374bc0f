//! Prompt parsing and intent routing.
//!
//! The simulated LLM receives ordinary text prompts (the same strings a real
//! service would). This module classifies the task the prompt is asking for
//! and extracts its structured payload: records, examples, passages, output
//! format pins, language hints. A code-generation prompt and a numbered
//! request are recognised by their header lines and answered by
//! [`crate::codegen`] and [`crate::list`], which read their own formats.

use crate::{codegen, list};
use std::collections::BTreeMap;

/// The tasks the simulated LLM can perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskIntent {
    /// "Are these two records the same entity?"
    EntityMatch,
    /// "Fill in the missing manufacturer for this product."
    Impute,
    /// "Extract all person names from this passage."
    TagNames,
    /// "What language is this text?"
    DetectLanguage,
    /// "Summarize this text."
    Summarize,
    /// A code-generation prompt: a draft, a fix suggestion or a repair.
    Code,
    /// A numbered request: several prompts asked as one.
    List,
    /// Anything unrecognized.
    Unknown,
}

/// Everything extracted from one prompt.
#[derive(Debug, Clone)]
pub(crate) struct ParsedPrompt {
    pub intent: TaskIntent,
    /// `Record A:` field map (lowercased field names).
    pub record_a: BTreeMap<String, String>,
    /// `Record B:` field map.
    pub record_b: BTreeMap<String, String>,
    /// Labeled in-context examples: `(text, label)` pairs.
    pub examples: Vec<(String, bool)>,
    /// The free-text payload (passage to tag / product to impute / text to
    /// summarize), from a `Text:` / `Product:` / `Passage:` section.
    pub payload: String,
    /// True when the prompt pins the output format ("answer yes or no",
    /// "answer with only the manufacturer name").
    pub format_pinned: bool,
    /// `Language: xx` hint, if present.
    pub language_hint: Option<String>,
    /// `Candidates:` list (closed vocabulary for imputation).
    pub candidates: Vec<String>,
}

/// Parse a prompt.
pub(crate) fn parse(prompt: &str) -> ParsedPrompt {
    let mut parsed = ParsedPrompt {
        intent: TaskIntent::Unknown,
        record_a: BTreeMap::new(),
        record_b: BTreeMap::new(),
        examples: Vec::new(),
        payload: String::new(),
        format_pinned: false,
        language_hint: None,
        candidates: Vec::new(),
    };
    // The two headers come before every cue, since a spec's task may say
    // "manufacturer" and a numbered request's members may ask anything; each
    // such prompt is read by its own format's parser.
    if prompt.starts_with(list::HEADER) {
        parsed.intent = TaskIntent::List;
        return parsed;
    }
    if prompt.starts_with(codegen::HEADER) {
        parsed.intent = TaskIntent::Code;
        return parsed;
    }
    let lower = prompt.to_lowercase();
    parsed.intent = detect_intent(&lower);

    for line in prompt.lines() {
        let trimmed = line.trim();
        let lower_line = trimmed.to_lowercase();
        if let Some(rest) = strip_prefix_ci(trimmed, "record a:") {
            parsed.record_a = parse_fields(rest);
        } else if let Some(rest) = strip_prefix_ci(trimmed, "record b:") {
            parsed.record_b = parse_fields(rest);
        } else if let Some(rest) = strip_prefix_ci(trimmed, "example:") {
            if let Some(ex) = parse_example(rest) {
                parsed.examples.push(ex);
            }
        } else if let Some(rest) = strip_prefix_ci(trimmed, "text:")
            .or_else(|| strip_prefix_ci(trimmed, "passage:"))
            .or_else(|| strip_prefix_ci(trimmed, "product:"))
        {
            if !parsed.payload.is_empty() {
                parsed.payload.push('\n');
            }
            parsed.payload.push_str(rest.trim());
        } else if let Some(rest) = strip_prefix_ci(trimmed, "language:") {
            parsed.language_hint = Some(rest.trim().to_lowercase());
        } else if let Some(rest) = strip_prefix_ci(trimmed, "candidates:") {
            parsed.candidates =
                rest.split(',').map(|c| c.trim().to_string()).filter(|c| !c.is_empty()).collect();
        } else if lower_line.starts_with("continue:") {
            // Multi-line payload continuation.
            if !parsed.payload.is_empty() {
                parsed.payload.push(' ');
            }
            parsed.payload.push_str(trimmed["continue:".len()..].trim());
        }
    }

    parsed.format_pinned = lower.contains("answer yes or no")
        || lower.contains("answer with only")
        || lower.contains("respond with exactly")
        || lower.contains("output only");
    parsed
}

/// The task a prompt without a header asks for, by its cues.
fn detect_intent(lower: &str) -> TaskIntent {
    // Order matters: more specific cues first.
    if lower.contains("person name")
        || lower.contains("names of people")
        || lower.contains("extract all names")
    {
        TaskIntent::TagNames
    } else if lower.contains("what language")
        || lower.contains("identify the language")
        || lower.contains("detect the language")
    {
        TaskIntent::DetectLanguage
    } else if lower.contains("manufacturer")
        || lower.contains("impute")
        || lower.contains("fill in the missing")
        || lower.contains("missing value")
    {
        TaskIntent::Impute
    } else if lower.contains("same entity")
        || lower.contains("entities are equivalent")
        || lower.contains("refer to the same")
        || lower.contains("entity resolution")
        || lower.contains("duplicates")
    {
        TaskIntent::EntityMatch
    } else if lower.contains("summarize") || lower.contains("summary of") {
        TaskIntent::Summarize
    } else {
        TaskIntent::Unknown
    }
}

fn strip_prefix_ci<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    // `get` returns None when the cut lands inside a multi-byte character,
    // which also means the prefix cannot match ASCII-insensitively.
    let head = line.get(..prefix.len())?;
    if head.eq_ignore_ascii_case(prefix) {
        Some(&line[prefix.len()..])
    } else {
        None
    }
}

/// Parse `name: Hoppy Badger; brewery: Stonegate Brewing; abv: 5.2%`.
pub(crate) fn parse_fields(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for part in text.split(';') {
        if let Some((key, value)) = part.split_once(':') {
            let key = key.trim().to_lowercase();
            if !key.is_empty() {
                out.insert(key, value.trim().to_string());
            }
        }
    }
    out
}

/// Parse `<text> => yes` / `<text> => no`.
fn parse_example(text: &str) -> Option<(String, bool)> {
    let (body, label) = text.rsplit_once("=>")?;
    let label = match label.trim().to_lowercase().as_str() {
        "yes" | "true" | "match" => true,
        "no" | "false" | "non-match" => false,
        _ => return None,
    };
    Some((body.trim().to_string(), label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_entity_match_intent() {
        let p = parse(
            "Please determine if the following two records refer to the same entity.\n\
             Record A: name: Hoppy Badger; brewery: Stonegate Brewing\n\
             Record B: name: hoppy badgr; brewery: Stonegate\n\
             Answer yes or no.",
        );
        assert_eq!(p.intent, TaskIntent::EntityMatch);
        assert_eq!(p.record_a.get("name").unwrap(), "Hoppy Badger");
        assert_eq!(p.record_b.get("brewery").unwrap(), "Stonegate");
        assert!(p.format_pinned);
    }

    #[test]
    fn detects_impute_intent_with_candidates() {
        let p = parse(
            "Fill in the missing manufacturer for this product.\n\
             Product: name: PlayStation 2 Memory Card; description: 8MB storage\n\
             Candidates: Sony, Microsoft, Nintendo\n\
             Answer with only the manufacturer name.",
        );
        assert_eq!(p.intent, TaskIntent::Impute);
        assert!(p.payload.contains("PlayStation"));
        assert_eq!(p.candidates, vec!["Sony", "Microsoft", "Nintendo"]);
        assert!(p.format_pinned);
    }

    #[test]
    fn detects_tagging_and_language_hints() {
        let p = parse(
            "Extract all person names from the passage.\n\
             Language: fr\n\
             Passage: Hier, Jean Dupont a rencontré le conseil.",
        );
        assert_eq!(p.intent, TaskIntent::TagNames);
        assert_eq!(p.language_hint.as_deref(), Some("fr"));
        assert!(p.payload.contains("Jean Dupont"));
    }

    #[test]
    fn parses_examples() {
        let p = parse(
            "Are these records the same entity?\n\
             Example: a vs a' => yes\n\
             Example: a vs b => no\n\
             Example: garbage line\n\
             Record A: name: x\nRecord B: name: y",
        );
        assert_eq!(p.examples.len(), 2);
        assert_eq!(p.examples[0], ("a vs a'".to_string(), true));
        assert_eq!(p.examples[1], ("a vs b".to_string(), false));
    }

    #[test]
    fn unknown_intent_is_unknown() {
        assert_eq!(parse("Tell me a joke about databases.").intent, TaskIntent::Unknown);
    }

    #[test]
    fn detect_language_intent() {
        assert_eq!(
            parse("What language is this text? Text: hallo welt").intent,
            TaskIntent::DetectLanguage
        );
    }

    #[test]
    fn summarize_intent() {
        assert_eq!(parse("Summarize the following. Text: abc").intent, TaskIntent::Summarize);
    }

    #[test]
    fn every_prompt_form_routes_to_its_behaviour() {
        use crate::codegen::{CodeGenSpec, CodeRequest};
        let intent = |prompt: &str| parse(prompt).intent;
        // The forms the workspace's modules and tests send, each to its
        // behaviour, exactly as before code generation was a prompt.
        let table = [
            ("Please determine if the following two records refer to the same entity.\nRecord A: name: x\nRecord B: name: y\nAnswer yes or no.", TaskIntent::EntityMatch),
            ("Are these records duplicates?\nRecord A: a\nRecord B: b", TaskIntent::EntityMatch),
            ("Fill in the missing manufacturer for this product.\nProduct: PS2 card\nAnswer with only the manufacturer name.", TaskIntent::Impute),
            ("Impute the missing value.\nProduct: x", TaskIntent::Impute),
            ("Is the following phrase a person name?\nLanguage: fr\nText: Jean", TaskIntent::TagNames),
            ("Extract all person names from the passage.\nPassage: Jean met Anna.", TaskIntent::TagNames),
            ("What language is this text? Text: hallo welt", TaskIntent::DetectLanguage),
            ("Summarize the following.\nText: abc", TaskIntent::Summarize),
            ("Tell me a joke about databases.", TaskIntent::Unknown),
        ];
        for (prompt, expected) in table {
            assert_eq!(intent(prompt), expected, "{prompt}");
        }
        // A code request goes to code generation whatever its spec says:
        // the Fig. 4 spec names the manufacturer an impute prompt asks for.
        let fig4 = CodeGenSpec {
            task: "impute the missing manufacturer from the product name".into(),
            function_name: "process".into(),
            hints: vec!["tool:vocabulary".into()],
        };
        let matcher = CodeGenSpec {
            task: "decide if two records refer to the same entity".into(),
            ..CodeGenSpec::default()
        };
        let failures = ["case 0: expected `Sony`; summarize the person names".to_string()];
        for request in [
            CodeRequest::draft(&fig4, 1),
            CodeRequest::fix(&fig4, 1, "fn process(p) { return null; }", &failures),
            CodeRequest::repair(&fig4, 2, "fn process(p) { return null; }", "impute it"),
            CodeRequest::draft(&matcher, 1),
        ] {
            let prompt = request.render();
            assert_eq!(intent(&prompt), TaskIntent::Code, "{prompt}");
        }
        // The header must open the prompt; quoting it is no code request.
        let quoted = format!("Summarize.\nText: {}", CodeRequest::draft(&fig4, 1).render());
        assert_ne!(intent(&quoted), TaskIntent::Code);
        // A numbered request goes to its members whatever they ask, a code
        // request among them, and again only by a header that opens it.
        let members: Vec<String> = vec![
            table[0].0.to_string(),
            table[2].0.to_string(),
            CodeRequest::draft(&fig4, 1).render(),
        ];
        for count in 1..=members.len() {
            let prompt = crate::ListRequest::new(&members[..count]).render();
            assert_eq!(intent(&prompt), TaskIntent::List, "{prompt}");
        }
        let listed = crate::ListRequest::new(&members).render();
        for quoted in [format!("Summarize.\nText: {listed}"), format!(" {listed}")] {
            assert_ne!(intent(&quoted), TaskIntent::List, "{quoted}");
        }
    }

    #[test]
    fn field_parsing_handles_noise() {
        let fields = parse_fields(" name : A B ; empty ;brewery: C ");
        assert_eq!(fields.get("name").unwrap(), "A B");
        assert_eq!(fields.get("brewery").unwrap(), "C");
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn multiline_payload_continuation() {
        let p = parse("Summarize.\nText: first part\nContinue: second part");
        assert_eq!(p.payload, "first part second part");
    }
}
