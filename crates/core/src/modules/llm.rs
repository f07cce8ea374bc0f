//! LLM modules: the LLM itself as a module (§3.1), with a prompt builder and
//! an output validator. On an unusable answer the module retries once with
//! the validator's strict instruction appended — the simplest form of the
//! paper's "proper validation" of LLM output. A non-answer is not output:
//! it is neither validated nor retried, but fails the invocation
//! (`CoreError::Cancelled` for a dead job, `CoreError::NoAnswer` otherwise).

use crate::context::ExecContext;
use crate::data::Data;
use crate::error::CoreError;
use crate::modules::{Module, ModuleKind};
use crate::validation::OutputValidator;

/// How the module turns its input [`Data`] into a prompt.
#[derive(Debug, Clone)]
pub enum PromptBuilder {
    /// Pair judgment over `{"a": record, "b": record}` inputs (entity
    /// resolution). Optional in-context examples calibrate the model.
    PairJudgment { description: String, examples: Vec<(String, bool)> },
    /// Single-payload task: the input renders into a labelled section
    /// (`Text:` / `Product:` / `Passage:`). Extra lines (e.g. `Candidates:`)
    /// are appended verbatim.
    TextTask { description: String, payload_label: String, extra_lines: Vec<String> },
    /// Raw template with `{input}` placeholder.
    Template { template: String },
}

impl PromptBuilder {
    /// Render the prompt for an input, appending the validator's format pin.
    pub fn build(&self, input: &Data, pin: &str) -> Result<String, CoreError> {
        let mut prompt = match self {
            PromptBuilder::PairJudgment { description, examples } => {
                let map = input.as_map().ok_or(CoreError::DataShape {
                    expected: "map with `a` and `b` records",
                    got: input.type_name().into(),
                })?;
                let a = map.get("a").ok_or(CoreError::DataShape {
                    expected: "map with `a` and `b` records",
                    got: "map missing `a`".into(),
                })?;
                let b = map.get("b").ok_or(CoreError::DataShape {
                    expected: "map with `a` and `b` records",
                    got: "map missing `b`".into(),
                })?;
                let mut out = format!("{description}\n");
                for (text, label) in examples {
                    out.push_str(&format!(
                        "Example: {text} => {}\n",
                        if *label { "yes" } else { "no" }
                    ));
                }
                out.push_str(&format!("Record A: {}\n", a.render()));
                out.push_str(&format!("Record B: {}\n", b.render()));
                out
            }
            PromptBuilder::TextTask { description, payload_label, extra_lines } => {
                let mut out = format!("{description}\n");
                for line in extra_lines {
                    out.push_str(line);
                    out.push('\n');
                }
                out.push_str(&format!("{payload_label}: {}\n", input.render()));
                out
            }
            PromptBuilder::Template { template } => {
                // `{input}` is the whole rendered input; for map inputs,
                // `{key}` substitutes individual fields.
                let mut out = template.replace("{input}", &input.render());
                if let Some(map) = input.as_map() {
                    for (key, value) in map {
                        out = out.replace(&format!("{{{key}}}"), &value.render());
                    }
                }
                out + "\n"
            }
        };
        if !pin.is_empty() {
            prompt.push_str(pin);
        }
        Ok(prompt)
    }
}

/// The LLM-as-a-module.
pub struct LlmModule {
    name: String,
    builder: PromptBuilder,
    validator: OutputValidator,
    /// Pin the output format in the first prompt (recommended; the naive
    /// FMs baseline turns this off).
    pin_format: bool,
    /// Retry once with a strict instruction when validation fails.
    retry_on_invalid: bool,
}

impl LlmModule {
    pub fn new(
        name: impl Into<String>,
        builder: PromptBuilder,
        validator: OutputValidator,
    ) -> LlmModule {
        LlmModule {
            name: name.into(),
            builder,
            validator,
            pin_format: true,
            retry_on_invalid: true,
        }
    }

    /// Disable format pinning and retries — naive prompting (the FMs
    /// baseline of Table 1).
    pub(crate) fn naive(mut self) -> LlmModule {
        self.pin_format = false;
        self.retry_on_invalid = false;
        self
    }
}

impl Module for LlmModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Llm
    }

    fn invoke(&mut self, input: Data, ctx: &mut ExecContext) -> Result<Data, CoreError> {
        let pin = if self.pin_format { self.validator.strict_instruction() } else { "" };
        let prompt = self.builder.build(&input, pin)?;
        let raw = ctx.complete(&prompt)?;
        if let Some(data) = self.validator.validate(&raw) {
            return Ok(data);
        }
        if self.retry_on_invalid {
            ctx.tracer.instant(lingua_trace::SpanKind::Module, "output_retry", Vec::new);
            let strict_prompt = format!("{prompt}\n{}", self.validator.strict_instruction());
            let raw = ctx.complete(strict_prompt)?;
            if let Some(data) = self.validator.validate(&raw) {
                return Ok(data);
            }
        }
        // Unvalidatable output: surface the raw text rather than fail the
        // pipeline; downstream consumers decide.
        ctx.tracer.instant(lingua_trace::SpanKind::Module, "output_unvalidated", Vec::new);
        Ok(Data::Str(raw.to_string()))
    }

    fn describe(&self) -> String {
        format!("llm module `{}` ({:?})", self.name, self.builder)
    }

    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        // Prompt builder and validator are immutable configuration; an LLM
        // module carries no per-run state, so replication is a field clone.
        Some(Box::new(LlmModule {
            name: self.name.clone(),
            builder: self.builder.clone(),
            validator: self.validator.clone(),
            pin_format: self.pin_format,
            retry_on_invalid: self.retry_on_invalid,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(3);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 3)))
    }

    fn pair_input(a: &str, b: &str) -> Data {
        // Beer-flavoured field maps rendered as records.
        Data::map([
            ("a".to_string(), Data::Str(a.to_string())),
            ("b".to_string(), Data::Str(b.to_string())),
        ])
    }

    #[test]
    fn pair_judgment_module_produces_bool() {
        let mut ctx = ctx();
        let mut module = LlmModule::new(
            "matcher",
            PromptBuilder::PairJudgment {
                description: "Determine if the two records refer to the same entity.".into(),
                examples: vec![("a vs a".into(), true)],
            },
            OutputValidator::YesNo,
        );
        let input = pair_input(
            "beer_name: Hoppy Badger; brewery: Stonegate Brewing",
            "beer_name: Hoppy Badger; brewery: Stonegate Brewing",
        );
        let out = module.invoke(input, &mut ctx).unwrap();
        assert_eq!(out, Data::Bool(true));
        assert!(ctx.llm.usage().calls >= 1);
    }

    #[test]
    fn text_task_with_candidates_imputes() {
        let mut ctx = ctx();
        let mut module = LlmModule::new(
            "imputer",
            PromptBuilder::TextTask {
                description: "Fill in the missing manufacturer for this product.".into(),
                payload_label: "Product".into(),
                extra_lines: vec!["Candidates: Sony, Microsoft, Nintendo".into()],
            },
            OutputValidator::Category {
                vocabulary: vec!["Sony".into(), "Microsoft".into(), "Nintendo".into()],
            },
        );
        let out = module
            .invoke(
                Data::Str("name: Sony Vista 300 Webcam; description: compact webcam".into()),
                &mut ctx,
            )
            .unwrap();
        assert_eq!(out, Data::Str("Sony".into()));
    }

    #[test]
    fn template_builder_substitutes_input() {
        let builder = PromptBuilder::Template { template: "Summarize.\nText: {input}".into() };
        let prompt = builder.build(&Data::Str("abc".into()), "").unwrap();
        assert!(prompt.contains("Text: abc"));
    }

    #[test]
    fn pair_judgment_requires_the_right_shape() {
        let mut ctx = ctx();
        let mut module = LlmModule::new(
            "matcher",
            PromptBuilder::PairJudgment { description: "Same entity?".into(), examples: vec![] },
            OutputValidator::YesNo,
        );
        let err = module.invoke(Data::Str("not a map".into()), &mut ctx).unwrap_err();
        assert!(matches!(err, CoreError::DataShape { .. }));
        let err = module.invoke(Data::map([("a".to_string(), Data::Null)]), &mut ctx).unwrap_err();
        assert!(matches!(err, CoreError::DataShape { .. }));
    }

    #[test]
    fn naive_mode_skips_pin_and_retry() {
        let module = LlmModule::new(
            "naive",
            PromptBuilder::Template { template: "{input}".into() },
            OutputValidator::YesNo,
        )
        .naive();
        assert!(!module.pin_format);
        assert!(!module.retry_on_invalid);
    }

    #[test]
    fn language_detection_module() {
        let mut ctx = ctx();
        let mut module = LlmModule::new(
            "langdetect",
            PromptBuilder::TextTask {
                description: "What language is this text?".into(),
                payload_label: "Text".into(),
                extra_lines: vec![],
            },
            OutputValidator::LanguageCode,
        );
        let out = module
            .invoke(
                Data::Str(
                    "Hier, le conseil a discuté du budget avec les membres dans la réunion.".into(),
                ),
                &mut ctx,
            )
            .unwrap();
        assert_eq!(out, Data::Str("fr".into()));
    }
}
