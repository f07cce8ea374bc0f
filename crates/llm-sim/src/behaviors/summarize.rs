//! Extractive summarisation — one of the "various extra tasks" the paper's
//! introduction lists as part of real curation workflows.

use crate::prompt::ParsedPrompt;
use lingua_ml::textsim;
use std::collections::BTreeMap;

/// Produce a short extractive summary: the lead sentence plus the most
/// frequent content words.
pub(crate) fn respond(parsed: &ParsedPrompt) -> String {
    let text = parsed.payload.trim();
    if text.is_empty() {
        return "Please provide text to summarize.".to_string();
    }
    let lead: String =
        text.split_inclusive(['.', '!', '?']).next().unwrap_or(text).trim().to_string();

    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for token in textsim::tokens(text) {
        if token.chars().count() > 3 {
            *counts.entry(token).or_default() += 1;
        }
    }
    let mut ranked: Vec<(&String, &usize)> = counts.iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let keywords: Vec<&str> = ranked.iter().take(5).map(|(word, _)| word.as_str()).collect();

    if keywords.is_empty() {
        lead
    } else {
        format!("{lead} Key terms: {}.", keywords.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt;

    #[test]
    fn summary_contains_lead_and_keywords() {
        let text = "Summarize the following.\nText: The merger was approved by the board. \
                    The merger will close next quarter. Analysts praised the merger terms.";
        let parsed = prompt::parse(text);
        let summary = respond(&parsed);
        assert!(summary.starts_with("The merger was approved by the board."), "{summary}");
        assert!(summary.contains("merger"), "{summary}");
    }

    #[test]
    fn empty_text_asks_for_input() {
        let parsed = prompt::parse("Summarize the following.");
        assert!(respond(&parsed).contains("provide"));
    }

    #[test]
    fn single_sentence_passthrough() {
        let parsed = prompt::parse("Summarize.\nText: Tiny note");
        let summary = respond(&parsed);
        assert!(summary.contains("Tiny note"), "{summary}");
    }
}
