//! Output validation for LLM modules (§3.1: "LLM outputs typically need
//! proper validation, as textual responses ... could be diverse and
//! unstable").
//!
//! A validator turns the LLM's free-text answer into typed [`Data`], and can
//! reject an answer outright (triggering one strict retry in
//! [`crate::modules::LlmModule`]).

use crate::data::Data;
use lingua_llm_sim::behaviors::langdetect::parse_language_code;
use lingua_llm_sim::noise::{normalize_category, parse_bool_robust};

/// How an LLM module's raw text output is turned into typed data.
#[derive(Debug, Clone)]
pub enum OutputValidator {
    /// Pass the raw text through.
    Passthrough,
    /// Parse a yes/no style judgment into `Data::Bool`.
    YesNo,
    /// Normalize to a closed vocabulary entry (`Data::Str`).
    Category { vocabulary: Vec<String> },
    /// Parse a language code (`Data::Str`).
    LanguageCode,
    /// Parse a number and require it within `[min, max]`.
    NumericRange { min: f64, max: f64 },
}

impl OutputValidator {
    /// Validate/convert raw LLM text. `None` means the answer is unusable and
    /// the module should retry with a stricter instruction.
    pub fn validate(&self, raw: &str) -> Option<Data> {
        match self {
            OutputValidator::Passthrough => Some(Data::Str(raw.trim().to_string())),
            OutputValidator::YesNo => parse_bool_robust(raw).map(Data::Bool),
            OutputValidator::Category { vocabulary } => {
                let normalized = normalize_category(raw, vocabulary);
                if vocabulary.iter().any(|v| v == normalized) {
                    Some(Data::Str(normalized.to_string()))
                } else if normalized.is_empty() {
                    None
                } else {
                    // Out-of-vocabulary but non-empty: keep it (open-world
                    // answers exist), flagged by being absent from the vocab.
                    Some(Data::Str(normalized.to_string()))
                }
            }
            OutputValidator::LanguageCode => {
                parse_language_code(raw).map(|code| Data::Str(code.to_string()))
            }
            OutputValidator::NumericRange { min, max } => {
                let cleaned: String =
                    raw.chars().filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
                let value: f64 = cleaned.parse().ok()?;
                (*min <= value && value <= *max).then_some(Data::Float(value))
            }
        }
    }

    /// The instruction appended to a retry prompt after a failed validation.
    pub(crate) fn strict_instruction(&self) -> &'static str {
        match self {
            OutputValidator::Passthrough => "Respond concisely.",
            OutputValidator::YesNo => "Respond with exactly `yes` or `no`, nothing else.",
            OutputValidator::Category { .. } => "Answer with only the exact name, no extra words.",
            OutputValidator::LanguageCode => "Respond with exactly the two-letter language code.",
            OutputValidator::NumericRange { .. } => "Respond with only the number.",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yes_no_parses_verbose_answers() {
        let v = OutputValidator::YesNo;
        assert_eq!(v.validate("Yes, these records match."), Some(Data::Bool(true)));
        assert_eq!(v.validate("They appear to be distinct records."), Some(Data::Bool(false)));
        assert_eq!(v.validate("hard to say"), None);
    }

    #[test]
    fn category_normalizes_to_vocabulary() {
        let v = OutputValidator::Category { vocabulary: vec!["Sony".into(), "Microsoft".into()] };
        assert_eq!(v.validate("The manufacturer is Sony."), Some(Data::Str("Sony".into())));
        assert_eq!(v.validate("  Microsoft "), Some(Data::Str("Microsoft".into())));
        // Out-of-vocabulary passes through.
        assert_eq!(v.validate("Frobozz"), Some(Data::Str("Frobozz".into())));
        assert_eq!(v.validate("   "), None);
    }

    #[test]
    fn language_code_validation() {
        let v = OutputValidator::LanguageCode;
        assert_eq!(v.validate("fr"), Some(Data::Str("fr".into())));
        assert_eq!(
            v.validate("The text appears to be written in German (de)."),
            Some(Data::Str("de".into()))
        );
        assert_eq!(v.validate("martian"), None);
    }

    #[test]
    fn numeric_range_validation() {
        let v = OutputValidator::NumericRange { min: 0.0, max: 100.0 };
        assert_eq!(v.validate("42"), Some(Data::Float(42.0)));
        assert_eq!(v.validate("about 55.5 percent"), Some(Data::Float(55.5)));
        assert_eq!(v.validate("150"), None); // out of range
        assert_eq!(v.validate("none"), None);
    }

    #[test]
    fn strict_instructions_differ_by_kind() {
        assert!(OutputValidator::YesNo.strict_instruction().contains("yes"));
        assert!(OutputValidator::LanguageCode.strict_instruction().contains("code"));
    }
}
