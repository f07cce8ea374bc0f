//! The Validator (§3.2): "checks whether the target module behaves correctly
//! on a few example test cases. It then uses the failed test cases to trigger
//! the LLM to improve the target module and fix the errors. ... This
//! validation cycle repeats until either all test cases are executed
//! successfully, or a timeout ensues, leading to a re-generation of the LLMGC
//! module until an additional timeout."
//!
//! Every step is real: the module's generated program actually executes on
//! the test inputs, failures carry the actual error/output, the suggestion is
//! derived from the actual code, and the repaired program actually replaces
//! the old one. Suggestions and repairs are asked of the LLM as completions
//! through [`ExecContext::complete`], so a call without an answer ends the
//! cycle with a typed error.

use crate::context::ExecContext;
use crate::data::Data;
use crate::error::CoreError;
use crate::modules::{LlmgcModule, Module};

/// One example test case: input plus expected output (compared loosely).
#[derive(Debug, Clone)]
pub struct TestCase {
    pub input: Data,
    pub expected: Data,
}

impl TestCase {
    pub fn new(input: Data, expected: Data) -> TestCase {
        TestCase { input, expected }
    }
}

/// What the validation loop concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationOutcome {
    /// All test cases pass.
    Passed,
    /// Budgets exhausted with failures remaining.
    Exhausted,
}

/// Full record of a validation run.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    pub outcome: ValidationOutcome,
    /// Suggest-and-repair cycles used (across regenerations).
    pub cycles: usize,
    /// Full regenerations used.
    pub regenerations: usize,
    /// Failure descriptions from the *final* evaluation (empty if passed).
    pub final_failures: Vec<String>,
    /// Failure counts observed after each evaluation, in order.
    pub failure_history: Vec<usize>,
}

/// The validator: test cases plus cycle/regeneration budgets.
#[derive(Debug, Clone)]
pub struct Validator {
    cases: Vec<TestCase>,
    /// Max suggest-and-repair cycles per generation ("timeout").
    pub max_cycles: usize,
    /// Max from-scratch regenerations ("additional timeout").
    pub max_regenerations: usize,
    /// Optional cap on LLM calls the module may spend across all test cases.
    /// Catches a subtle failure functional checks cannot: a buggy local rule
    /// that silently routes everything to the expensive LLM fallback still
    /// *answers* correctly — but blows the §4.3 cost budget.
    pub llm_call_budget: Option<u64>,
}

impl Validator {
    pub fn new(cases: Vec<TestCase>) -> Validator {
        Validator { cases, max_cycles: 4, max_regenerations: 2, llm_call_budget: None }
    }

    pub fn with_budgets(mut self, max_cycles: usize, max_regenerations: usize) -> Validator {
        self.max_cycles = max_cycles;
        self.max_regenerations = max_regenerations;
        self
    }

    /// Require the test cases to complete within `max_calls` LLM calls.
    pub fn with_llm_budget(mut self, max_calls: u64) -> Validator {
        self.llm_call_budget = Some(max_calls);
        self
    }

    pub fn cases(&self) -> &[TestCase] {
        &self.cases
    }

    /// Run the module on every case; collect failure descriptions.
    pub fn evaluate(&self, module: &mut LlmgcModule, ctx: &mut ExecContext) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, case) in self.cases.iter().enumerate() {
            match module.invoke(case.input.clone(), ctx) {
                Ok(actual) => {
                    if !actual.loose_eq(&case.expected) {
                        failures.push(format!(
                            "case {i}: input `{}` expected `{}` but got `{}`",
                            case.input.render(),
                            case.expected.render(),
                            actual.render()
                        ));
                    }
                }
                Err(err) => failures.push(format!(
                    "case {i}: input `{}` raised an error: {err}",
                    case.input.render()
                )),
            }
        }
        failures
    }

    /// The §3.2 validation cycle: evaluate → suggest → repair → repeat, with
    /// regeneration on cycle exhaustion.
    pub fn validate_and_fix(
        &self,
        module: &mut LlmgcModule,
        ctx: &mut ExecContext,
    ) -> Result<ValidationReport, CoreError> {
        let mut span = ctx.tracer.span(lingua_trace::SpanKind::Validator, module.name());
        span.attr("cases", self.cases.len().to_string());
        let mut cycles = 0usize;
        let mut regenerations = 0usize;
        let mut failure_history = Vec::new();

        loop {
            // Inner loop: suggest-and-repair cycles on the current program.
            for _ in 0..=self.max_cycles {
                let calls_before = ctx.llm.usage().calls;
                let mut failures = self.evaluate(module, ctx);
                if let Some(budget) = self.llm_call_budget {
                    let spent = ctx.llm.usage().calls - calls_before;
                    if spent > budget {
                        failures.push(format!(
                            "the module consumed {spent} LLM call(s) across the test cases \
                             (budget: {budget}); the straightforward cases must be handled \
                             locally without calling the LLM"
                        ));
                    }
                }
                failure_history.push(failures.len());
                ctx.tracer.instant(lingua_trace::SpanKind::Validator, "evaluate", || {
                    vec![("failures".into(), failures.len().to_string())]
                });
                if failures.is_empty() {
                    span.attr("outcome", "passed");
                    span.attr("cycles", cycles.to_string());
                    span.attr("regenerations", regenerations.to_string());
                    return Ok(ValidationReport {
                        outcome: ValidationOutcome::Passed,
                        cycles,
                        regenerations,
                        final_failures: vec![],
                        failure_history,
                    });
                }
                if cycles >= self.max_cycles * (regenerations + 1) {
                    break;
                }
                cycles += 1;
                let suggestion = module.fix_suggestion(&failures, ctx)?;
                module.redraft(Some(&suggestion), ctx)?;
                ctx.tracer.instant(lingua_trace::SpanKind::Validator, "repair", Vec::new);
            }

            if regenerations >= self.max_regenerations {
                let final_failures = self.evaluate(module, ctx);
                span.attr("outcome", "exhausted");
                span.attr("cycles", cycles.to_string());
                span.attr("regenerations", regenerations.to_string());
                return Ok(ValidationReport {
                    outcome: ValidationOutcome::Exhausted,
                    cycles,
                    regenerations,
                    final_failures,
                    failure_history,
                });
            }
            // Regenerate from scratch.
            regenerations += 1;
            ctx.tracer.instant(lingua_trace::SpanKind::Validator, "regenerate", Vec::new);
            module.redraft(None, ctx)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::{Calibration, CodeGenSpec, SimLlm, SimLlmConfig};
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(8);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 8)))
    }

    /// A context whose LLM drafts a bug into a program at `bug_rate`.
    fn ctx_with_bug_rate(bug_rate: f64) -> ExecContext {
        let world = WorldSpec::generate(8);
        let calibration = Calibration { codegen_bug_rate: bug_rate, ..Default::default() };
        let config = SimLlmConfig { seed: 8, calibration, ..Default::default() };
        ExecContext::new(Arc::new(SimLlm::new(&world, config)))
    }

    fn tokenizer_cases() -> Vec<TestCase> {
        vec![
            TestCase::new(
                Data::Str("Hello, world!".into()),
                Data::List(vec![Data::Str("Hello".into()), Data::Str("world".into())]),
            ),
            // Single-character token: catches the WrongComparison bug.
            TestCase::new(
                Data::Str("I saw a cat".into()),
                Data::List(vec![
                    Data::Str("I".into()),
                    Data::Str("saw".into()),
                    Data::Str("a".into()),
                    Data::Str("cat".into()),
                ]),
            ),
            // Null input: catches the MissingNullCheck bug.
            TestCase::new(Data::Null, Data::List(vec![])),
        ]
    }

    fn spec() -> CodeGenSpec {
        CodeGenSpec {
            task: "tokenize the text into words".into(),
            function_name: "process".into(),
            hints: vec![],
        }
    }

    #[test]
    fn clean_module_passes_immediately() {
        let mut ctx = ctx_with_bug_rate(0.0);
        let mut module = LlmgcModule::generate("tok", spec(), &ctx).unwrap();
        let validator = Validator::new(tokenizer_cases());
        let report = validator.validate_and_fix(&mut module, &mut ctx).unwrap();
        assert_eq!(report.outcome, ValidationOutcome::Passed);
        assert_eq!(report.cycles, 0);
        assert_eq!(report.regenerations, 0);
    }

    #[test]
    fn buggy_module_gets_repaired() {
        // Force a buggy first draft; the cases see every tokenizer bug.
        let mut ctx = ctx_with_bug_rate(1.0);
        let mut module = LlmgcModule::generate("tok", spec(), &ctx).unwrap();
        let validator = Validator::new(tokenizer_cases()).with_budgets(6, 3);
        let report = validator.validate_and_fix(&mut module, &mut ctx).unwrap();
        assert_eq!(report.outcome, ValidationOutcome::Passed, "{report:?}");
        assert!(report.failure_history[0] > 0, "{report:?}");
        assert!(report.cycles >= 1, "{report:?}");
        // The final program really passes the cases.
        assert!(validator.evaluate(&mut module, &mut ctx).is_empty());
        // The failure history shrank to zero.
        assert_eq!(*report.failure_history.last().unwrap(), 0);
    }

    #[test]
    fn evaluation_reports_real_failures() {
        let mut ctx = ctx();
        let mut module =
            LlmgcModule::from_source("bad", spec(), "fn process(text) { return [\"wrong\"]; }")
                .unwrap();
        let validator = Validator::new(tokenizer_cases());
        let failures = validator.evaluate(&mut module, &mut ctx);
        assert_eq!(failures.len(), 3);
        assert!(failures[0].contains("expected"));
    }

    #[test]
    fn budgets_bound_the_loop() {
        let mut ctx = ctx();
        // A spec whose template is Identity: can never satisfy these cases.
        let hopeless_spec = CodeGenSpec {
            task: "do something unrecognizable".into(),
            function_name: "process".into(),
            hints: vec![],
        };
        let mut module = LlmgcModule::generate("hopeless", hopeless_spec, &ctx).unwrap();
        let validator =
            Validator::new(vec![TestCase::new(Data::Int(1), Data::Int(2))]).with_budgets(2, 1);
        let report = validator.validate_and_fix(&mut module, &mut ctx).unwrap();
        assert_eq!(report.outcome, ValidationOutcome::Exhausted);
        assert!(!report.final_failures.is_empty());
        assert!(report.cycles <= 2 * 2);
        assert_eq!(report.regenerations, 1);
    }
}
