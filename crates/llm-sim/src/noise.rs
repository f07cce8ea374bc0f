//! Output-instability model.
//!
//! Real LLMs drift in surface form: "yes", "Yes.", "They appear to be the
//! same entity.", hedges, stray punctuation. The paper's LLM-module design
//! explicitly calls for output validation because of this (§3.1). This module
//! renders boolean / categorical answers through that instability, seeded.

use lingua_ml::rng::Rng;

/// Verbose surface forms for a *yes* answer.
const YES_FORMS: &[&str] = &[
    "Yes, these records refer to the same entity.",
    "They appear to be the same entity.",
    "Yes. Both records describe the same item, despite formatting differences.",
    "I believe so - the two records match.",
    "Most likely yes.",
];

/// Verbose surface forms for a *no* answer.
const NO_FORMS: &[&str] = &[
    "No, these are different entities.",
    "They appear to be distinct records.",
    "No. The records describe different items.",
    "I don't think these match.",
    "Most likely not.",
];

/// Render a boolean answer. `verbose_rate` is the probability of a decorated
/// phrasing instead of the bare token.
pub(crate) fn render_bool(rng: &mut Rng, answer: bool, verbose_rate: f64) -> String {
    if rng.gen_bool(verbose_rate.clamp(0.0, 1.0)) {
        let forms = if answer { YES_FORMS } else { NO_FORMS };
        forms[rng.gen_range(0..forms.len())].to_string()
    } else if rng.gen_bool(0.15) {
        // Mild drift: capitalization / trailing period.
        if answer { "Yes." } else { "No." }.to_string()
    } else {
        if answer { "yes" } else { "no" }.to_string()
    }
}

/// Render a categorical answer (e.g. a manufacturer name). Verbose forms wrap
/// the value in prose, which breaks exact-match consumers that skip output
/// validation.
pub(crate) fn render_category(rng: &mut Rng, value: &str, verbose_rate: f64) -> String {
    if rng.gen_bool(verbose_rate.clamp(0.0, 1.0)) {
        let templates = [
            format!("The manufacturer is {value}."),
            format!("{value} (based on the product line)"),
            format!("This product is made by {value}."),
            format!("Answer: {value}"),
        ];
        templates[rng.gen_range(0..templates.len())].clone()
    } else {
        value.to_string()
    }
}

/// Robust parse of a boolean answer: what a *validated* LLM module does.
/// Returns `None` for text that contains neither polarity (truly unusable).
pub fn parse_bool_robust(text: &str) -> Option<bool> {
    let lower = text.to_lowercase();
    let has = |needle: &str| lower.contains(needle);
    let yes =
        has("yes") || has("same entity") || has("match") && !has("don't") && !has("not match");
    let no = has("no,")
        || lower.trim() == "no"
        || lower.starts_with("no.")
        || lower.starts_with("no ")
        || has("different")
        || has("distinct")
        || has("don't think")
        || has("not match")
        || has("likely not");
    match (yes, no) {
        (true, false) => Some(true),
        (false, true) => Some(false),
        (true, true) => Some(false), // conflicting signals: be conservative
        (false, false) => None,
    }
}

/// Naive parse: what the FMs baseline does — look only at the first word.
pub fn parse_bool_naive(text: &str) -> bool {
    text.trim().to_lowercase().starts_with("yes")
}

/// Strict categorical normalization against a closed vocabulary: the output
/// validator for imputation. Finds a vocabulary entry contained in the
/// answer; falls back to the raw trimmed answer.
pub fn normalize_category<'a>(text: &'a str, vocabulary: &'a [String]) -> &'a str {
    let lower = text.to_lowercase();
    vocabulary
        .iter()
        .filter(|v| lower.contains(&v.to_lowercase()))
        .max_by_key(|v| v.len())
        .map(|v| v.as_str())
        .unwrap_or_else(|| text.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(3)
    }

    #[test]
    fn bare_answers_dominate_at_zero_verbosity() {
        let mut r = rng();
        for _ in 0..20 {
            let s = render_bool(&mut r, true, 0.0);
            assert!(s == "yes" || s == "Yes.", "{s}");
        }
    }

    #[test]
    fn verbose_answers_appear_at_high_verbosity() {
        let mut r = rng();
        let mut verbose = 0;
        for _ in 0..50 {
            let s = render_bool(&mut r, false, 1.0);
            if s.split_whitespace().count() > 1 {
                verbose += 1;
            }
        }
        assert_eq!(verbose, 50);
    }

    #[test]
    fn robust_parser_reads_all_forms() {
        let mut r = rng();
        for _ in 0..100 {
            let answer = r.gen_bool(0.5);
            let text = render_bool(&mut r, answer, 0.5);
            assert_eq!(parse_bool_robust(&text), Some(answer), "{text}");
        }
        assert_eq!(parse_bool_robust("completely unrelated"), None);
    }

    #[test]
    fn naive_parser_misses_verbose_yes() {
        // "They appear to be the same entity." starts with "They" -> naive
        // parse reads it as "no". This is exactly the FMs failure mode.
        assert!(!parse_bool_naive("They appear to be the same entity."));
        assert!(parse_bool_naive("yes"));
        assert!(parse_bool_naive("Yes."));
        assert!(!parse_bool_naive("no"));
    }

    #[test]
    fn category_rendering_and_normalization() {
        let mut r = rng();
        let vocab = vec!["Sony".to_string(), "Microsoft".to_string()];
        for _ in 0..40 {
            let text = render_category(&mut r, "Sony", 0.7);
            assert_eq!(normalize_category(&text, &vocab), "Sony", "{text}");
        }
        // Without validation, verbose forms fail exact match.
        let verbose = render_category(&mut Rng::seed_from_u64(1), "Sony", 1.0);
        assert_ne!(verbose, "Sony");
        // Unknown answers pass through trimmed.
        assert_eq!(normalize_category("  Frobozz  ", &vocab), "Frobozz");
    }

    #[test]
    fn longest_vocabulary_match_wins() {
        let vocab = vec!["Go".to_string(), "Google".to_string()];
        assert_eq!(normalize_category("made by google inc", &vocab), "Google");
    }
}
