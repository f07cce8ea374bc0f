//! LLM code generation: emits real MangaScript programs.
//!
//! Given a [`CodeGenSpec`] (task description + hints), the generator picks a
//! program template, instantiates it, and — with the calibrated bug rate —
//! injects one bug from a catalogue of realistic LLM coding mistakes. The
//! `lingua-core` Validator then executes the program on example test cases;
//! real failures come back here as [`suggest_fix`] / [`repair`] calls,
//! closing the paper's §3.2 validation cycle with genuine program execution
//! at every step.

use crate::calibration::Calibration;
use lingua_ml::rng::Rng;

/// The program templates the simulated LLM can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateKind {
    /// Case-preserving tokenizer (`process(text) -> [token]`).
    Tokenizer,
    /// Capitalized-run noun-phrase extractor with an inline English stoplist
    /// (`process(tokens) -> [phrase]`).
    NounPhraseExtractor,
    /// Multilingual variant: takes `{"tokens": [...], "language": "fr"}` and
    /// fetches stopwords via `call_tool("stopwords", language)`.
    MultilingualNounPhraseExtractor,
    /// Rule-based manufacturer imputation with an LLM fallback for hard cases
    /// (`process({"name": ..., "description": ...}) -> brand`) — Figure 4.
    ManufacturerRules,
    /// Similarity-threshold record matcher
    /// (`process({"a": {...}, "b": {...}}) -> bool`).
    ThresholdMatcher,
    /// Whitespace/case normalizer for a single value (`process(value)`).
    FieldCleaner,
    /// Fallback for unrecognized tasks.
    Identity,
}

impl TemplateKind {
    /// Pick the template for a natural-language task description + hints.
    pub fn detect(task: &str, hints: &[String]) -> TemplateKind {
        let lower = task.to_lowercase();
        let multilingual = hints.iter().any(|h| h.contains("multilingual"))
            || lower.contains("multilingual")
            || lower.contains("multiple languages");
        if lower.contains("tokeniz") || lower.contains("split the text into words") {
            TemplateKind::Tokenizer
        } else if lower.contains("noun phrase")
            || lower.contains("noun-phrase")
            || lower.contains("candidate phrases")
            || lower.contains("capitalized")
        {
            if multilingual {
                TemplateKind::MultilingualNounPhraseExtractor
            } else {
                TemplateKind::NounPhraseExtractor
            }
        } else if lower.contains("manufacturer") || lower.contains("impute") {
            TemplateKind::ManufacturerRules
        } else if lower.contains("same entity")
            || lower.contains("match") && lower.contains("record")
            || lower.contains("entity resolution")
            || lower.contains("duplicate")
        {
            TemplateKind::ThresholdMatcher
        } else if lower.contains("clean") || lower.contains("normalize") || lower.contains("trim") {
            TemplateKind::FieldCleaner
        } else {
            TemplateKind::Identity
        }
    }
}

/// The catalogue of injectable bugs — each a realistic LLM coding slip that
/// produces a *behavioural* failure the Validator can observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugKind {
    /// Forgot to lowercase before a dictionary/substring lookup.
    MissingLowercase,
    /// Off-by-one in an index bound (crashes or drops the last element).
    OffByOne,
    /// Wrong comparison (e.g. `> 1` instead of `> 0`) dropping edge items.
    WrongComparison,
    /// No null guard on the input (crashes on missing data).
    MissingNullCheck,
    /// Stopword list truncated to a stub (leaks function words).
    TruncatedStopwords,
    /// `return` placed inside the loop (only the first result survives).
    EagerReturn,
    /// Decision threshold far too lax.
    LaxThreshold,
}

impl BugKind {
    /// Bugs that can be injected into each template.
    pub fn applicable(template: TemplateKind) -> &'static [BugKind] {
        use BugKind::*;
        match template {
            TemplateKind::Tokenizer => &[OffByOne, WrongComparison, MissingNullCheck],
            TemplateKind::NounPhraseExtractor => {
                &[MissingLowercase, TruncatedStopwords, EagerReturn]
            }
            TemplateKind::MultilingualNounPhraseExtractor => &[MissingLowercase, EagerReturn],
            TemplateKind::ManufacturerRules => &[MissingLowercase, MissingNullCheck],
            TemplateKind::ThresholdMatcher => &[LaxThreshold, MissingLowercase],
            TemplateKind::FieldCleaner => &[MissingNullCheck],
            TemplateKind::Identity => &[],
        }
    }
}

/// What the user (or the compiler) asks the LLM to implement.
#[derive(Debug, Clone, Default)]
pub struct CodeGenSpec {
    /// Natural-language task description.
    pub task: String,
    /// Entry-point function name the embedding module will call.
    pub function_name: String,
    /// Extra context: tool names, domain instructions, "multilingual", ...
    pub hints: Vec<String>,
}

/// A generated program plus generation metadata (the metadata is *not*
/// consumed by the Validator — it validates behaviourally — but is recorded
/// for experiment introspection).
#[derive(Debug, Clone)]
pub struct GeneratedCode {
    pub source: String,
    pub template: TemplateKind,
    pub bug: Option<BugKind>,
}

/// Generate a (possibly buggy) program for the spec.
pub fn generate(spec: &CodeGenSpec, calibration: &Calibration, rng: &mut Rng) -> GeneratedCode {
    let template = TemplateKind::detect(&spec.task, &spec.hints);
    let candidates = BugKind::applicable(template);
    let bug = if !candidates.is_empty() && rng.gen_bool(calibration.codegen_bug_rate) {
        Some(candidates[rng.gen_range(0..candidates.len())])
    } else {
        None
    };
    GeneratedCode { source: render(template, spec, bug), template, bug }
}

/// Produce a fix suggestion by *reading the code* for bug signatures —
/// the first LLM call of the paper's validation cycle ("generate the
/// suggestion by reading the code and the failure cases").
pub fn suggest_fix(source: &str, failures: &[String]) -> String {
    let mut suggestions = Vec::new();
    if source.contains("contains(stop, t)") && !source.contains("contains(stop, lower(t))") {
        suggestions.push(
            "The stopword lookup compares the raw token against a lowercase list; \
             lowercase the token before the lookup.",
        );
    }
    if source.contains("contains(text, brand)") {
        suggestions.push(
            "The brand is matched case-sensitively against lowercased text; lowercase the brand.",
        );
    }
    if source.contains("range(start, end - 1)") || source.contains("range(0, len(cs) - 1)") {
        suggestions.push("The index range excludes the final element; the bound is off by one.");
    }
    if source.contains("len(t) > 1") {
        suggestions.push("Single-character tokens are dropped; the length check should be `> 0`.");
    }
    if !source.contains("is_null(") && failures.iter().any(|f| f.to_lowercase().contains("null")) {
        suggestions.push("The input is not checked for null; add a null guard at the top.");
    }
    // The injected eager return sits one level deeper than any legitimate one.
    if source.contains("\n            return out;") {
        suggestions.push(
            "A `return` statement inside the loop ends processing after the first result; \
             move it after the loop.",
        );
    }
    if source.contains(">= 0.5;") {
        suggestions.push("The match threshold 0.5 accepts far too many pairs; raise it.");
    }
    if source.contains("let stop = [\"the\", \"of\", \"a\"];") {
        suggestions.push("The stopword list is a stub; include the full function-word list.");
    }
    if suggestions.is_empty() {
        format!(
            "Re-examine the {} failing case(s); trace the function on the first failure and \
             compare each intermediate value with the expectation.",
            failures.len()
        )
    } else {
        suggestions.join(" ")
    }
}

/// Regenerate the program after a failed validation, given the suggestion.
/// With the calibrated success rate the bug is removed; otherwise a new
/// attempt (possibly buggy in a different way) is produced.
pub fn repair(
    spec: &CodeGenSpec,
    calibration: &Calibration,
    previous: &GeneratedCode,
    _suggestion: &str,
    rng: &mut Rng,
) -> GeneratedCode {
    if rng.gen_bool(calibration.repair_success_rate) {
        GeneratedCode {
            source: render(previous.template, spec, None),
            template: previous.template,
            bug: None,
        }
    } else {
        // A fresh roll of the dice — the repair may introduce a new bug.
        let candidates = BugKind::applicable(previous.template);
        let bug = if !candidates.is_empty() && rng.gen_bool(0.5) {
            Some(candidates[rng.gen_range(0..candidates.len())])
        } else {
            None
        };
        GeneratedCode {
            source: render(previous.template, spec, bug),
            template: previous.template,
            bug,
        }
    }
}

// ---------------------------------------------------------------------------
// Template rendering
// ---------------------------------------------------------------------------

fn render(template: TemplateKind, spec: &CodeGenSpec, bug: Option<BugKind>) -> String {
    let entry = if spec.function_name.is_empty() { "process" } else { &spec.function_name };
    match template {
        TemplateKind::Tokenizer => tokenizer(entry, bug),
        TemplateKind::NounPhraseExtractor => noun_phrases(entry, bug, false),
        TemplateKind::MultilingualNounPhraseExtractor => noun_phrases(entry, bug, true),
        TemplateKind::ManufacturerRules => manufacturer_rules(entry, bug),
        TemplateKind::ThresholdMatcher => threshold_matcher(entry, bug),
        TemplateKind::FieldCleaner => field_cleaner(entry, bug),
        TemplateKind::Identity => format!("fn {entry}(x) {{\n    return x;\n}}\n"),
    }
}

fn tokenizer(entry: &str, bug: Option<BugKind>) -> String {
    let null_guard = if bug == Some(BugKind::MissingNullCheck) {
        ""
    } else {
        "    if is_null(text) { return []; }\n"
    };
    let min_len = if bug == Some(BugKind::WrongComparison) { 1 } else { 0 };
    let trim_end =
        if bug == Some(BugKind::OffByOne) { "range(start, end - 1)" } else { "range(start, end)" };
    format!(
        r#"fn {entry}(text) {{
{null_guard}    let out = [];
    for w in split(text, "") {{
        let t = strip_punct(w);
        if len(t) > {min_len} {{
            push(out, t);
        }}
    }}
    return out;
}}

fn strip_punct(w) {{
    let cs = chars(w);
    let start = 0;
    let end = len(cs);
    while start < end && !(is_alpha(cs[start]) || is_digit(cs[start])) {{
        start = start + 1;
    }}
    while end > start && !(is_alpha(cs[end - 1]) || is_digit(cs[end - 1])) {{
        end = end - 1;
    }}
    let out = "";
    for i in {trim_end} {{
        out = out + cs[i];
    }}
    return out;
}}
"#
    )
}

fn noun_phrases(entry: &str, bug: Option<BugKind>, multilingual: bool) -> String {
    let stoplist = if bug == Some(BugKind::TruncatedStopwords) {
        r#"["the", "of", "a"]"#.to_string()
    } else {
        r#"["the", "a", "an", "of", "to", "in", "on", "at", "by", "for", "and", "or",
        "during", "yesterday", "according", "this", "that", "with", "from"]"#
            .to_string()
    };
    let lookup = if bug == Some(BugKind::MissingLowercase) {
        "contains(stop, t)"
    } else {
        "contains(stop, lower(t))"
    };
    let eager_return =
        if bug == Some(BugKind::EagerReturn) { "\n            return out;" } else { "" };
    let (signature, stop_init) = if multilingual {
        (
            format!("fn {entry}(input) {{\n    let tokens = input[\"tokens\"];\n    let language = get_or(input, \"language\", \"en\");\n    let stop = call_tool(\"stopwords\", language);"),
            String::new(),
        )
    } else {
        (format!("fn {entry}(tokens) {{\n    let stop = {stoplist};"), String::new())
    };
    format!(
        r#"{signature}{stop_init}
    let out = [];
    let current = [];
    for t in tokens {{
        if is_upper(t) && !{lookup} {{
            push(current, t);
        }} else {{
            if len(current) > 0 {{
                push(out, join(current, " "));
                current = [];
            }}{eager_return}
        }}
    }}
    if len(current) > 0 {{
        push(out, join(current, " "));
    }}
    return out;
}}
"#
    )
}

fn manufacturer_rules(entry: &str, bug: Option<BugKind>) -> String {
    let null_guard = if bug == Some(BugKind::MissingNullCheck) {
        ""
    } else {
        "    if is_null(product) { return null; }\n"
    };
    let brand_check = if bug == Some(BugKind::MissingLowercase) {
        "contains(text, brand)"
    } else {
        "contains(text, lower(brand))"
    };
    format!(
        r#"fn {entry}(product) {{
{null_guard}    let name = get_or(product, "name", "");
    let desc = get_or(product, "description", "");
    let text = lower(name + " " + desc);
    for brand in call_tool("vocabulary") {{
        if {brand_check} {{
            return brand;
        }}
    }}
    let answer = call_llm("Fill in the missing manufacturer for this product." +
        "\nProduct: " + name + " - " + desc +
        "\nAnswer with only the manufacturer name.");
    return call_tool("normalize_brand", answer);
}}
"#
    )
}

fn threshold_matcher(entry: &str, bug: Option<BugKind>) -> String {
    let threshold = if bug == Some(BugKind::LaxThreshold) { "0.5" } else { "0.78" };
    let (va, vb) = if bug == Some(BugKind::MissingLowercase) {
        ("to_str(get_or(a, k, \"\"))", "to_str(get_or(b, k, \"\"))")
    } else {
        ("lower(to_str(get_or(a, k, \"\")))", "lower(to_str(get_or(b, k, \"\")))")
    };
    format!(
        r#"fn {entry}(pair) {{
    let a = pair["a"];
    let b = pair["b"];
    let total = 0.0;
    let count = 0;
    for k in a {{
        let va = {va};
        let vb = {vb};
        if len(va) > 0 && len(vb) > 0 {{
            let sim = max(jaro_winkler(va, vb), overlap(va, vb));
            total = total + sim;
            count = count + 1;
        }}
    }}
    if count == 0 {{
        return false;
    }}
    return total / count >= {threshold};
}}
"#
    )
}

fn field_cleaner(entry: &str, bug: Option<BugKind>) -> String {
    let null_guard = if bug == Some(BugKind::MissingNullCheck) {
        ""
    } else {
        "    if is_null(value) { return null; }\n"
    };
    format!(
        r#"fn {entry}(value) {{
{null_guard}    let s = trim(to_str(value));
    let out = "";
    let prev_space = false;
    for c in s {{
        if c == " " {{
            if !prev_space {{
                out = out + c;
            }}
            prev_space = true;
        }} else {{
            out = out + c;
            prev_space = false;
        }}
    }}
    return out;
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_script::{parse, Interpreter, NoHost, Value};

    fn spec(task: &str) -> CodeGenSpec {
        CodeGenSpec { task: task.into(), function_name: "process".into(), hints: vec![] }
    }

    #[test]
    fn template_detection() {
        assert_eq!(TemplateKind::detect("tokenize the text", &[]), TemplateKind::Tokenizer);
        assert_eq!(
            TemplateKind::detect("extract noun phrases", &[]),
            TemplateKind::NounPhraseExtractor
        );
        assert_eq!(
            TemplateKind::detect("extract noun phrases", &["multilingual".into()]),
            TemplateKind::MultilingualNounPhraseExtractor
        );
        assert_eq!(
            TemplateKind::detect("impute the missing manufacturer", &[]),
            TemplateKind::ManufacturerRules
        );
        assert_eq!(
            TemplateKind::detect("decide if two records are the same entity", &[]),
            TemplateKind::ThresholdMatcher
        );
        assert_eq!(TemplateKind::detect("clean the value", &[]), TemplateKind::FieldCleaner);
        assert_eq!(TemplateKind::detect("do something odd", &[]), TemplateKind::Identity);
    }

    #[test]
    fn every_template_variant_parses() {
        let s = spec("x");
        for template in [
            TemplateKind::Tokenizer,
            TemplateKind::NounPhraseExtractor,
            TemplateKind::MultilingualNounPhraseExtractor,
            TemplateKind::ManufacturerRules,
            TemplateKind::ThresholdMatcher,
            TemplateKind::FieldCleaner,
            TemplateKind::Identity,
        ] {
            for bug in
                std::iter::once(None).chain(BugKind::applicable(template).iter().map(|b| Some(*b)))
            {
                let source = render(template, &s, bug);
                parse(&source).unwrap_or_else(|e| {
                    panic!("template {template:?} bug {bug:?} failed to parse: {e}\n{source}")
                });
            }
        }
    }

    #[test]
    fn clean_tokenizer_works() {
        let code = render(TemplateKind::Tokenizer, &spec("tokenize"), None);
        let program = parse(&code).unwrap();
        let mut interp = Interpreter::new(&program);
        let result = interp
            .call(&mut NoHost, "process", vec![Value::Str("Hello, world! A fine day.".into())])
            .unwrap();
        let tokens: Vec<String> =
            result.as_list().unwrap().iter().map(|v| v.as_str().unwrap().to_string()).collect();
        assert_eq!(tokens, vec!["Hello", "world", "A", "fine", "day"]);
        // Null guard works.
        let result = interp.call(&mut NoHost, "process", vec![Value::Null]).unwrap();
        assert_eq!(result, Value::from(vec![]));
    }

    #[test]
    fn buggy_tokenizer_variants_fail_observably() {
        // MissingNullCheck: crashes on null input.
        let code =
            render(TemplateKind::Tokenizer, &spec("tokenize"), Some(BugKind::MissingNullCheck));
        let program = parse(&code).unwrap();
        let err = Interpreter::new(&program).call(&mut NoHost, "process", vec![Value::Null]);
        assert!(err.is_err());
        // WrongComparison: drops single-character tokens.
        let code =
            render(TemplateKind::Tokenizer, &spec("tokenize"), Some(BugKind::WrongComparison));
        let program = parse(&code).unwrap();
        let result = Interpreter::new(&program)
            .call(&mut NoHost, "process", vec![Value::Str("I saw a cat".into())])
            .unwrap();
        let tokens = result.as_list().unwrap().len();
        assert_eq!(tokens, 2, "single-char tokens should be dropped by the bug");
        // OffByOne: last character of every token lost.
        let code = render(TemplateKind::Tokenizer, &spec("tokenize"), Some(BugKind::OffByOne));
        let program = parse(&code).unwrap();
        let result = Interpreter::new(&program)
            .call(&mut NoHost, "process", vec![Value::Str("hello".into())])
            .unwrap();
        assert_eq!(result, Value::from(vec![Value::Str("hell".into())]));
    }

    #[test]
    fn clean_noun_phrase_extractor_groups_capitalized_runs() {
        let code = render(TemplateKind::NounPhraseExtractor, &spec("noun phrases"), None);
        let program = parse(&code).unwrap();
        let tokens: Vec<Value> =
            ["Yesterday", "John", "Smith", "met", "the", "board", "of", "Acme", "Corp"]
                .iter()
                .map(|s| Value::from(*s))
                .collect();
        let result = Interpreter::new(&program)
            .call(&mut NoHost, "process", vec![Value::from(tokens)])
            .unwrap();
        let phrases: Vec<&str> =
            result.as_list().unwrap().iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(phrases, vec!["John Smith", "Acme Corp"]);
    }

    #[test]
    fn truncated_stopwords_leak_function_words() {
        let code = render(
            TemplateKind::NounPhraseExtractor,
            &spec("noun phrases"),
            Some(BugKind::TruncatedStopwords),
        );
        let program = parse(&code).unwrap();
        let tokens: Vec<Value> =
            ["Yesterday", "John", "Smith", "spoke"].iter().map(|s| Value::from(*s)).collect();
        let result = Interpreter::new(&program)
            .call(&mut NoHost, "process", vec![Value::from(tokens)])
            .unwrap();
        let phrases: Vec<&str> =
            result.as_list().unwrap().iter().map(|v| v.as_str().unwrap()).collect();
        // "Yesterday" leaks into the phrase because the stub stoplist misses it.
        assert_eq!(phrases, vec!["Yesterday John Smith"]);
    }

    #[test]
    fn eager_return_stops_after_first_phrase() {
        let code = render(
            TemplateKind::NounPhraseExtractor,
            &spec("noun phrases"),
            Some(BugKind::EagerReturn),
        );
        let program = parse(&code).unwrap();
        let tokens: Vec<Value> =
            ["John", "Smith", "met", "Mary", "Brown"].iter().map(|s| Value::from(*s)).collect();
        let result = Interpreter::new(&program)
            .call(&mut NoHost, "process", vec![Value::from(tokens)])
            .unwrap();
        assert_eq!(result.as_list().unwrap().len(), 1);
    }

    #[test]
    fn suggestions_identify_injected_bugs() {
        let s = spec("extract noun phrases");
        for bug in BugKind::applicable(TemplateKind::NounPhraseExtractor) {
            let code = render(TemplateKind::NounPhraseExtractor, &s, Some(*bug));
            let suggestion = suggest_fix(&code, &["case 1 failed".into()]);
            assert!(
                !suggestion.starts_with("Re-examine"),
                "no targeted suggestion for {bug:?}: {suggestion}"
            );
        }
        // Clean code gets the generic suggestion.
        let clean = render(TemplateKind::NounPhraseExtractor, &s, None);
        assert!(suggest_fix(&clean, &["x".into()]).starts_with("Re-examine"));
    }

    #[test]
    fn generation_respects_bug_rate_and_repair_converges() {
        let cal = Calibration::default();
        let s = spec("tokenize the text");
        let mut buggy = 0;
        for seed in 0..200 {
            let mut rng = Rng::seed_from_u64(seed);
            let code = generate(&s, &cal, &mut rng);
            if code.bug.is_some() {
                buggy += 1;
            }
        }
        let rate = buggy as f64 / 200.0;
        assert!((rate - cal.codegen_bug_rate).abs() < 0.1, "bug rate {rate}");

        // Repair loop converges quickly.
        let mut rng = Rng::seed_from_u64(42);
        let mut code = GeneratedCode {
            source: render(TemplateKind::Tokenizer, &s, Some(BugKind::OffByOne)),
            template: TemplateKind::Tokenizer,
            bug: Some(BugKind::OffByOne),
        };
        let mut rounds = 0;
        while code.bug.is_some() && rounds < 10 {
            let suggestion = suggest_fix(&code.source, &["fail".into()]);
            code = repair(&s, &cal, &code, &suggestion, &mut rng);
            rounds += 1;
        }
        assert!(code.bug.is_none(), "repair failed to converge in {rounds} rounds");
        assert!(rounds <= 5);
    }

    #[test]
    fn custom_entry_point_name_is_used() {
        let s = CodeGenSpec {
            task: "tokenize".into(),
            function_name: "my_tokenizer".into(),
            hints: vec![],
        };
        let code = render(TemplateKind::Tokenizer, &s, None);
        assert!(code.contains("fn my_tokenizer(text)"));
        parse(&code).unwrap();
    }
}
