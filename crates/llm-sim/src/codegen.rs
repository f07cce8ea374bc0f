//! LLM code generation: emits real MangaScript programs.
//!
//! LLMGC asks for code the way it asks for anything: a completion whose
//! prompt is a [`CodeRequest`]. Given a [`CodeGenSpec`] (task description +
//! hints), the simulated model picks a program template, instantiates it,
//! and — with the calibrated bug rate — injects one bug from a catalogue of
//! realistic LLM coding mistakes. The `lingua-core` Validator then executes
//! the program on example test cases; real failures come back here as fix
//! and repair requests, closing the paper's §3.2 validation cycle with
//! genuine program execution at every step.

use crate::calibration::Calibration;
use crate::hotpath::fingerprint;
use lingua_ml::rng::Rng;
use std::borrow::Cow;
use std::fmt::Write;

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
pub(crate) enum BugKind {
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
    pub(crate) fn applicable(template: TemplateKind) -> &'static [BugKind] {
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodeGenSpec {
    /// Natural-language task description.
    pub task: String,
    /// Entry-point function name the embedding module will call.
    pub function_name: String,
    /// Extra context: tool names, domain instructions, "multilingual", ...
    pub hints: Vec<String>,
}

/// A generated program, as the provided code-generation methods of
/// `LlmService` and `LlmTransport` return it.
#[derive(Debug, Clone)]
pub struct GeneratedCode {
    pub source: String,
}

// ---------------------------------------------------------------------------
// The request format
// ---------------------------------------------------------------------------

/// The line that opens every code-generation prompt, followed by the ask
/// and the draft's ordinal (`MangaScript code request: repair 3`). The
/// router checks it before any substring cue: a spec's task may well say
/// "manufacturer" or "impute".
pub(crate) const HEADER: &str = "MangaScript code request:";

/// What a code-generation prompt asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CodeAsk<'a> {
    /// A program for the spec, written from scratch.
    Draft,
    /// A fix suggestion for `source`, read from the code and the failures
    /// it showed.
    Fix { source: &'a str, failures: Vec<&'a str> },
    /// The program again: `previous`, reworked along `suggestion`.
    Repair { previous: &'a str, suggestion: &'a str },
}

/// One code-generation prompt: how LLMGC asks the LLM for a draft, a fix
/// suggestion or a repair, as an ordinary completion.
/// [`CodeRequest::render`] writes the prompt and `CodeRequest::parse`
/// reads it back, so the format has this one home.
///
/// Every prompt carries the spec and the draft's ordinal within its
/// module's build: 1 for the first draft, one more for each repair or
/// regeneration; a fix request carries the ordinal of the draft it reads.
/// The ordinal is in the text, so two drafts of one spec are two prompts to
/// every fingerprint and cache, and one request always gets one answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeRequest<'a> {
    spec: Cow<'a, CodeGenSpec>,
    ordinal: u64,
    ask: CodeAsk<'a>,
}

impl<'a> CodeRequest<'a> {
    /// Draft `ordinal` of a program for `spec`, written from scratch.
    pub fn draft(spec: &'a CodeGenSpec, ordinal: u64) -> Self {
        CodeRequest { spec: Cow::Borrowed(spec), ordinal, ask: CodeAsk::Draft }
    }

    /// A fix suggestion for draft `ordinal`, whose `source` showed
    /// `failures`.
    pub fn fix(
        spec: &'a CodeGenSpec,
        ordinal: u64,
        source: &'a str,
        failures: &'a [String],
    ) -> Self {
        let failures = failures.iter().map(String::as_str).collect();
        CodeRequest { spec: Cow::Borrowed(spec), ordinal, ask: CodeAsk::Fix { source, failures } }
    }

    /// Draft `ordinal`: `previous`, repaired along `suggestion`.
    pub fn repair(
        spec: &'a CodeGenSpec,
        ordinal: u64,
        previous: &'a str,
        suggestion: &'a str,
    ) -> Self {
        let ask = CodeAsk::Repair { previous, suggestion };
        CodeRequest { spec: Cow::Borrowed(spec), ordinal, ask }
    }

    /// The prompt: the header line, then one sized field per line
    /// (`Task (28 bytes): tokenize the text into words`). The size lets a
    /// value hold anything, newlines included, as a program does.
    pub fn render(&self) -> String {
        let ask = match self.ask {
            CodeAsk::Draft => "draft",
            CodeAsk::Fix { .. } => "fix",
            CodeAsk::Repair { .. } => "repair",
        };
        let mut out = format!("{HEADER} {ask} {}\n", self.ordinal);
        field(&mut out, "Task", &self.spec.task);
        field(&mut out, "Entry", &self.spec.function_name);
        for hint in &self.spec.hints {
            field(&mut out, "Hint", hint);
        }
        match &self.ask {
            CodeAsk::Draft => {}
            CodeAsk::Fix { source, failures } => {
                field(&mut out, "Program", source);
                for failure in failures {
                    field(&mut out, "Failure", failure);
                }
            }
            CodeAsk::Repair { previous, suggestion } => {
                field(&mut out, "Program", previous);
                field(&mut out, "Suggestion", suggestion);
            }
        }
        out
    }

    /// Read back a prompt [`CodeRequest::render`] wrote; `None` for any
    /// other text.
    pub(crate) fn parse(prompt: &'a str) -> Option<CodeRequest<'a>> {
        let (head, mut rest) = prompt.strip_prefix(HEADER)?.split_once('\n')?;
        let (ask, ordinal) = head.trim_start().split_once(' ')?;
        let ordinal = ordinal.parse().ok()?;
        let task = take(&mut rest, "Task")?.to_string();
        let function_name = take(&mut rest, "Entry")?.to_string();
        let hints = std::iter::from_fn(|| take(&mut rest, "Hint")).map(str::to_string).collect();
        let ask = match ask {
            "draft" => CodeAsk::Draft,
            "fix" => {
                let source = take(&mut rest, "Program")?;
                let failures = std::iter::from_fn(|| take(&mut rest, "Failure")).collect();
                CodeAsk::Fix { source, failures }
            }
            "repair" => CodeAsk::Repair {
                previous: take(&mut rest, "Program")?,
                suggestion: take(&mut rest, "Suggestion")?,
            },
            _ => return None,
        };
        let spec = Cow::Owned(CodeGenSpec { task, function_name, hints });
        rest.is_empty().then_some(CodeRequest { spec, ordinal, ask })
    }
}

fn field(out: &mut String, name: &str, value: &str) {
    let _ = writeln!(out, "{name} ({} bytes): {value}", value.len());
}

/// Take field `name` off the front of `rest`, which is left as it was when
/// the next field is another.
fn take<'a>(rest: &mut &'a str, name: &str) -> Option<&'a str> {
    let sized = rest.strip_prefix(name)?.strip_prefix(" (")?;
    let (len, tail) = sized.split_once(" bytes): ")?;
    let len: usize = len.parse().ok()?;
    let value = tail.get(..len)?;
    *rest = tail[len..].strip_prefix('\n')?;
    Some(value)
}

// ---------------------------------------------------------------------------
// The simulated model's answers
// ---------------------------------------------------------------------------

/// Answer a code-generation prompt, which the router sends here by its
/// header: a draft or a repair with a program's source, a fix request with
/// a suggestion. A draft is seeded by `seed ^ fp(task) ^ ordinal·0x9e37`
/// and a repair by `seed ^ fp(previous) ^ ordinal·0x517c_c1b7`, so each
/// answer is a pure function of the service seed and the prompt.
pub(crate) fn respond(prompt: &str, calibration: &Calibration, seed: u64) -> String {
    let Some(request) = CodeRequest::parse(prompt) else {
        return "The code request is malformed; I cannot tell what to write.".to_string();
    };
    let spec = &request.spec;
    match request.ask {
        CodeAsk::Draft => {
            let nonce = request.ordinal.wrapping_mul(0x9e37);
            let mut rng = Rng::seed_from_u64(seed ^ fingerprint(&spec.task) ^ nonce);
            draft(spec, calibration.codegen_bug_rate, &mut rng).0
        }
        CodeAsk::Fix { source, failures } => fix_suggestion(source, &failures),
        CodeAsk::Repair { previous, .. } => {
            let nonce = request.ordinal.wrapping_mul(0x517c_c1b7);
            let mut rng = Rng::seed_from_u64(seed ^ fingerprint(previous) ^ nonce);
            repair(spec, calibration, &mut rng).0
        }
    }
}

/// A program for the spec, from the template the spec detects, carrying one
/// bug from that template's catalogue with probability `bug_rate`; and the
/// bug.
fn draft(spec: &CodeGenSpec, bug_rate: f64, rng: &mut Rng) -> (String, Option<BugKind>) {
    let template = TemplateKind::detect(&spec.task, &spec.hints);
    let candidates = BugKind::applicable(template);
    let bug = (!candidates.is_empty() && rng.gen_bool(bug_rate))
        .then(|| candidates[rng.gen_range(0..candidates.len())]);
    (render(template, spec, bug), bug)
}

/// Regenerate the program after a failed validation: with the calibrated
/// success rate the bug is removed; otherwise a fresh roll of the dice, which
/// may bring a new bug.
fn repair(
    spec: &CodeGenSpec,
    calibration: &Calibration,
    rng: &mut Rng,
) -> (String, Option<BugKind>) {
    let bug_rate = if rng.gen_bool(calibration.repair_success_rate) { 0.0 } else { 0.5 };
    draft(spec, bug_rate, rng)
}

/// Produce a fix suggestion by *reading the code* for bug signatures —
/// the first LLM call of the paper's validation cycle ("generate the
/// suggestion by reading the code and the failure cases").
fn fix_suggestion(source: &str, failures: &[&str]) -> String {
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
            let suggestion = fix_suggestion(&code, &["case 1 failed"]);
            assert!(
                !suggestion.starts_with("Re-examine"),
                "no targeted suggestion for {bug:?}: {suggestion}"
            );
        }
        // Clean code gets the generic suggestion.
        let clean = render(TemplateKind::NounPhraseExtractor, &s, None);
        assert!(fix_suggestion(&clean, &["x"]).starts_with("Re-examine"));
    }

    #[test]
    fn generation_respects_bug_rate_and_repair_converges() {
        let cal = Calibration::default();
        let s = spec("tokenize the text");
        let mut buggy = 0;
        for seed in 0..200 {
            let mut rng = Rng::seed_from_u64(seed);
            if draft(&s, cal.codegen_bug_rate, &mut rng).1.is_some() {
                buggy += 1;
            }
        }
        let rate = buggy as f64 / 200.0;
        assert!((rate - cal.codegen_bug_rate).abs() < 0.1, "bug rate {rate}");

        // Repair loop converges quickly.
        let mut rng = Rng::seed_from_u64(42);
        let mut bug = Some(BugKind::OffByOne);
        let mut rounds = 0;
        while bug.is_some() && rounds < 10 {
            bug = repair(&s, &cal, &mut rng).1;
            rounds += 1;
        }
        assert!(bug.is_none(), "repair failed to converge in {rounds} rounds");
        assert!(rounds <= 5);
    }

    #[test]
    fn every_request_form_reads_back_as_written() {
        let s = CodeGenSpec {
            task: "impute the missing manufacturer".into(),
            function_name: "process".into(),
            hints: vec!["tool:vocabulary".into(), "two\nlines (3 bytes): x".into()],
        };
        let source = render(TemplateKind::ManufacturerRules, &s, Some(BugKind::MissingLowercase));
        let failures = vec!["case 0: input `a\nb` expected `x`".to_string(), String::new()];
        let empty = CodeGenSpec::default();
        for request in [
            CodeRequest::draft(&s, 1),
            CodeRequest::draft(&empty, u64::MAX),
            CodeRequest::fix(&s, 2, &source, &failures),
            CodeRequest::fix(&s, 2, "", &[]),
            CodeRequest::repair(&s, 3, &source, "lowercase the brand.\n"),
        ] {
            let prompt = request.render();
            assert!(prompt.starts_with(HEADER), "{prompt}");
            assert_eq!(CodeRequest::parse(&prompt), Some(request), "{prompt}");
        }
        // Any other text, or a request cut short, is not a code request.
        let whole = CodeRequest::repair(&s, 3, &source, "fix it").render();
        assert_eq!(CodeRequest::parse(&whole[..whole.len() - 1]), None);
        assert_eq!(CodeRequest::parse("Summarize.\nText: impute the manufacturer"), None);
    }

    #[test]
    fn one_request_gets_one_answer_and_the_ordinal_tells_drafts_apart() {
        let cal = Calibration::default();
        let s = spec("tokenize the text");
        let answer = |ordinal| respond(&CodeRequest::draft(&s, ordinal).render(), &cal, 7);
        assert_eq!(answer(1), answer(1));
        let drafts: std::collections::BTreeSet<String> = (1..=12).map(answer).collect();
        assert!(drafts.len() > 1, "twelve drafts of one spec were all the same program");
        // A draft answers the same program the seeded generator writes.
        let mut rng = Rng::seed_from_u64(7 ^ fingerprint(&s.task) ^ 0x9e37);
        assert_eq!(answer(1), draft(&s, cal.codegen_bug_rate, &mut rng).0);
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
