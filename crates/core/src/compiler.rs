//! The compiler: binds each logical operator to a physical module —
//! "like a relational database, it auto-compiles each logical operator into a
//! physical, executable module" (§3) — with the extensibility hook that lets
//! programmers register their own physical modules.
//!
//! Binding policy, in order:
//!
//! 1. An explicit `using custom` goes to the factory registry (error if no
//!    factory is registered for the op type).
//! 2. A registered factory for the op type wins by default.
//! 3. `using llmgc` (or an op whose description matches a code-generation
//!    template) asks the LLM to generate a MangaScript module.
//! 4. `using llm` (or any op with a natural-language description) becomes an
//!    LLM module with a prompt builder and output validator derived from the
//!    op's parameters.
//! 5. Otherwise: compile error.

use crate::context::ExecContext;
use crate::data::Data;
use crate::error::CoreError;
use crate::modules::{CustomModule, LlmModule, LlmgcModule, Module, ModuleKind, PromptBuilder};
use crate::pipeline::{LogicalOp, Pipeline};
use crate::validation::OutputValidator;
use lingua_dataset::{csv, Record, Schema, Table, Value as CellValue};
use lingua_llm_sim::{CodeGenSpec, TemplateKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A factory producing a physical module for a logical op.
pub type ModuleFactory =
    Arc<dyn Fn(&LogicalOp, &mut ExecContext) -> Result<Box<dyn Module>, CoreError> + Send + Sync>;

/// A compiled pipeline: logical ops bound to live modules.
pub struct PhysicalPipeline {
    pub name: String,
    pub ops: Vec<(LogicalOp, Box<dyn Module>)>,
}

impl std::fmt::Debug for PhysicalPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|(op, module)| format!("{} -> {}", op.op_type, module.name()))
            .collect();
        f.debug_struct("PhysicalPipeline").field("name", &self.name).field("ops", &ops).finish()
    }
}

impl PhysicalPipeline {
    /// Human-readable binding summary.
    pub fn describe(&self) -> String {
        let mut out = format!("physical pipeline {}:\n", self.name);
        for (op, module) in &self.ops {
            out.push_str(&format!(
                "  {} -> {} [{}]\n",
                op.op_type,
                module.name(),
                module.kind().name()
            ));
        }
        out
    }

    /// Instantiate an independent copy of this compiled pipeline: every
    /// module is replicated via [`Module::fresh_instance`], sharing no
    /// mutable state with the original. This is how the serving layer
    /// compiles a DSL program once (paying any code-generation LLM calls
    /// once) and then hands each worker its own executable instance.
    ///
    /// Errors with [`CoreError::NotReplicable`] if any bound module is
    /// inherently stateful (e.g. a `CustomModule` built from an `FnMut`
    /// closure).
    pub fn fresh_instance(&self) -> Result<PhysicalPipeline, CoreError> {
        let mut ops = Vec::with_capacity(self.ops.len());
        for (op, module) in &self.ops {
            let fresh = module
                .fresh_instance()
                .ok_or_else(|| CoreError::NotReplicable { module: module.name().to_string() })?;
            ops.push((op.clone(), fresh));
        }
        Ok(PhysicalPipeline { name: self.name.clone(), ops })
    }
}

/// The compiler: a registry of custom-module factories plus the §3 binding
/// policy.
#[derive(Clone, Default)]
pub struct Compiler {
    factories: BTreeMap<String, ModuleFactory>,
}

impl Compiler {
    /// An empty compiler (no builtins).
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// A compiler with the built-in physical modules registered
    /// (`load_csv`, `save_csv`, `select_columns`, `limit`, `dedup_exact`).
    /// All builtins are stateless, so compiled pipelines using them support
    /// [`PhysicalPipeline::fresh_instance`].
    pub fn with_builtins() -> Compiler {
        let mut compiler = Compiler::new();
        compiler.register("load_csv", |op, _ctx| {
            let path = require_param(op, "path")?;
            Ok(Box::new(CustomModule::stateless("load_csv", move |_input, _ctx| {
                let table = csv::read_path(&path)?;
                Ok(Data::Table(table))
            })) as Box<dyn Module>)
        });
        compiler.register("save_csv", |op, _ctx| {
            let path = require_param(op, "path")?;
            Ok(Box::new(CustomModule::stateless("save_csv", move |input, _ctx| {
                let table = input.as_table()?;
                csv::write_path(table, &path)?;
                Ok(Data::Table(table.clone()))
            })) as Box<dyn Module>)
        });
        compiler.register("select_columns", |op, _ctx| {
            let columns = require_param(op, "columns")?;
            Ok(Box::new(CustomModule::stateless("select_columns", move |input, _ctx| {
                let table = input.as_table()?;
                let cols: Vec<&str> = columns.split(',').map(|c| c.trim()).collect();
                Ok(Data::Table(table.select_columns(&cols)?))
            })) as Box<dyn Module>)
        });
        compiler.register("limit", |op, _ctx| {
            let n: usize = require_param(op, "n")?
                .parse()
                .map_err(|_| CoreError::Compile("limit: `n` must be an integer".into()))?;
            Ok(Box::new(CustomModule::stateless("limit", move |input, _ctx| {
                Ok(Data::Table(input.as_table()?.head(n)))
            })) as Box<dyn Module>)
        });
        compiler.register("dedup_exact", |_op, _ctx| {
            Ok(Box::new(CustomModule::stateless("dedup_exact", |input, _ctx| {
                let table = input.into_table()?;
                let schema = table.schema().clone();
                let name = table.name().to_string();
                let mut seen = std::collections::BTreeSet::new();
                let mut rows = Vec::new();
                for row in table.into_rows() {
                    let key = row
                        .iter()
                        .map(|v| format!("{}|{v}", v.type_name()))
                        .collect::<Vec<_>>()
                        .join("\u{1}");
                    if seen.insert(key) {
                        rows.push(row);
                    }
                }
                Ok(Data::Table(Table::with_rows(name, schema, rows)?))
            })) as Box<dyn Module>)
        });
        compiler
    }

    /// Register (or replace) a factory for an op type.
    pub fn register<F>(&mut self, op_type: impl Into<String>, factory: F)
    where
        F: Fn(&LogicalOp, &mut ExecContext) -> Result<Box<dyn Module>, CoreError>
            + Send
            + Sync
            + 'static,
    {
        self.factories.insert(op_type.into(), Arc::new(factory));
    }

    pub fn has_factory(&self, op_type: &str) -> bool {
        self.factories.contains_key(op_type)
    }

    /// Compile a whole pipeline.
    pub fn compile(
        &self,
        pipeline: &Pipeline,
        ctx: &mut ExecContext,
    ) -> Result<PhysicalPipeline, CoreError> {
        let mut span = ctx.tracer.span(lingua_trace::SpanKind::Compile, &pipeline.name);
        span.attr("ops", pipeline.ops.len().to_string());
        let mut ops = Vec::with_capacity(pipeline.ops.len());
        for op in &pipeline.ops {
            let module = self.bind(op, ctx)?;
            ops.push((op.clone(), module));
        }
        Ok(PhysicalPipeline { name: pipeline.name.clone(), ops })
    }

    /// Bind one logical op to a physical module.
    pub fn bind(
        &self,
        op: &LogicalOp,
        ctx: &mut ExecContext,
    ) -> Result<Box<dyn Module>, CoreError> {
        match op.kind {
            Some(ModuleKind::Custom) => {
                let factory = self.factories.get(&op.op_type).ok_or_else(|| {
                    CoreError::Compile(format!(
                        "op `{}` requested a custom module but no factory is registered",
                        op.op_type
                    ))
                })?;
                return factory(op, ctx);
            }
            Some(ModuleKind::Llmgc) => return Ok(Box::new(self.bind_llmgc(op, ctx)?)),
            Some(ModuleKind::Llm) => return self.bind_llm(op),
            Some(ModuleKind::Decorated) | None => {}
        }

        // Default policy.
        if let Some(factory) = self.factories.get(&op.op_type) {
            return factory(op, ctx);
        }
        let desc = op.description().unwrap_or(&op.op_type);
        let hints = op_hints(op);
        if TemplateKind::detect(desc, &hints) != TemplateKind::Identity {
            return Ok(Box::new(self.bind_llmgc(op, ctx)?));
        }
        if op.description().is_some() {
            return self.bind_llm(op);
        }
        Err(CoreError::Compile(format!(
            "cannot bind op `{}`: no factory registered, no code-generation template matches, \
             and no natural-language description was provided",
            op.op_type
        )))
    }

    /// Bind as an LLMGC module (code generation happens now).
    pub fn bind_llmgc(
        &self,
        op: &LogicalOp,
        ctx: &mut ExecContext,
    ) -> Result<LlmgcModule, CoreError> {
        let task =
            op.description().map(|s| s.to_string()).unwrap_or_else(|| op.op_type.replace('_', " "));
        let spec = CodeGenSpec { task, function_name: "process".into(), hints: op_hints(op) };
        LlmgcModule::generate(op.op_type.clone(), spec, ctx)
    }

    /// Bind as an LLM module.
    fn bind_llm(&self, op: &LogicalOp) -> Result<Box<dyn Module>, CoreError> {
        let desc = op
            .description()
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("Perform the task: {}", op.op_type.replace('_', " ")));
        let validator = validator_from_params(op);
        let lowered = desc.to_lowercase();
        let is_pair = op.params.get("builder").map(|b| b == "pair").unwrap_or(false)
            || lowered.contains("same entity")
            || lowered.contains("equivalent")
            || op.op_type.contains("resolution");
        let builder = if is_pair {
            PromptBuilder::PairJudgment { description: desc, examples: parse_examples(op) }
        } else {
            let payload_label =
                op.params.get("payload_label").cloned().unwrap_or_else(|| "Text".into());
            let extra_lines = op
                .params
                .get("extra")
                .map(|e| e.lines().map(|l| l.to_string()).collect())
                .unwrap_or_default();
            PromptBuilder::TextTask { description: desc, payload_label, extra_lines }
        };
        let mut module = LlmModule::new(op.op_type.clone(), builder, validator);
        if op.params.get("naive").map(|v| v == "true").unwrap_or(false) {
            module = module.naive();
        }
        Ok(Box::new(module))
    }
}

fn require_param(op: &LogicalOp, key: &str) -> Result<String, CoreError> {
    op.params.get(key).cloned().ok_or_else(|| {
        CoreError::Compile(format!("op `{}` requires parameter `{key}`", op.op_type))
    })
}

fn op_hints(op: &LogicalOp) -> Vec<String> {
    op.params
        .get("hints")
        .map(|h| h.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_default()
}

/// `output` param → validator: `yesno`, `lang`, `category:<comma list>`,
/// `range:<min>..<max>`, default passthrough.
fn validator_from_params(op: &LogicalOp) -> OutputValidator {
    match op.params.get("output").map(|s| s.as_str()) {
        Some("yesno") => OutputValidator::YesNo,
        Some("lang") => OutputValidator::LanguageCode,
        Some(spec) if spec.starts_with("category:") => OutputValidator::Category {
            vocabulary: spec["category:".len()..]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
        },
        Some(spec) if spec.starts_with("range:") => {
            let parts: Vec<&str> = spec["range:".len()..].split("..").collect();
            let min = parts.first().and_then(|p| p.parse().ok()).unwrap_or(f64::MIN);
            let max = parts.get(1).and_then(|p| p.parse().ok()).unwrap_or(f64::MAX);
            OutputValidator::NumericRange { min, max }
        }
        _ => {
            // Heuristic default: pair/match ops validate yes-no.
            if op.op_type.contains("resolution") || op.op_type.contains("match") {
                OutputValidator::YesNo
            } else {
                OutputValidator::Passthrough
            }
        }
    }
}

/// Parse `examples` param: lines of `text => yes|no`.
fn parse_examples(op: &LogicalOp) -> Vec<(String, bool)> {
    op.params
        .get("examples")
        .map(|text| {
            text.lines()
                .filter_map(|line| {
                    let (body, label) = line.rsplit_once("=>")?;
                    let label = matches!(label.trim(), "yes" | "true");
                    Some((body.trim().to_string(), label))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Build a single-column table from a list of strings (helper shared by
/// built-in modules and the tasks crate).
pub fn strings_to_table(name: &str, column: &str, values: &[String]) -> Table {
    let schema = Schema::of_names([column]);
    let mut table = Table::new(name, schema);
    for value in values {
        table.push(Record::new(vec![CellValue::Str(value.clone())])).expect("single column");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(12);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 12)))
    }

    #[test]
    fn builtin_factories_bind() {
        let compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        let op = LogicalOp::new("load_csv").output("t").param("path", "x.csv");
        let module = compiler.bind(&op, &mut ctx).unwrap();
        assert_eq!(module.kind(), ModuleKind::Custom);
        // Missing parameter is a compile error.
        let op = LogicalOp::new("load_csv").output("t");
        assert!(compiler.bind(&op, &mut ctx).is_err());
    }

    #[test]
    fn llm_binding_for_described_ops() {
        let compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        let op = LogicalOp::new("entity_resolution")
            .output("m")
            .input("r")
            .using(ModuleKind::Llm)
            .param("desc", "Determine if the two records refer to the same entity");
        let module = compiler.bind(&op, &mut ctx).unwrap();
        assert_eq!(module.kind(), ModuleKind::Llm);
    }

    #[test]
    fn llmgc_binding_generates_code() {
        let compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        let op = LogicalOp::new("tokenize")
            .output("t")
            .input("text")
            .using(ModuleKind::Llmgc)
            .param("desc", "tokenize the text into words");
        let module = compiler.bind(&op, &mut ctx).unwrap();
        assert_eq!(module.kind(), ModuleKind::Llmgc);
        assert!(ctx.llm.usage().calls >= 1, "code generation should be metered");
    }

    #[test]
    fn default_policy_prefers_factories_then_codegen_then_llm() {
        let mut compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        // Factory wins even with a description.
        compiler.register("special", |_op, _ctx| {
            Ok(Box::new(CustomModule::new("special", |input, _| Ok(input))) as Box<dyn Module>)
        });
        let op = LogicalOp::new("special").param("desc", "tokenize the text");
        assert_eq!(compiler.bind(&op, &mut ctx).unwrap().kind(), ModuleKind::Custom);
        // Codegen-able description without factory -> llmgc.
        let op = LogicalOp::new("toks").param("desc", "tokenize the text into words");
        assert_eq!(compiler.bind(&op, &mut ctx).unwrap().kind(), ModuleKind::Llmgc);
        // Non-codegen description -> llm.
        let op = LogicalOp::new("summ").param("desc", "summarize the following document");
        assert_eq!(compiler.bind(&op, &mut ctx).unwrap().kind(), ModuleKind::Llm);
        // Nothing at all -> error.
        let op = LogicalOp::new("mystery_op");
        assert!(compiler.bind(&op, &mut ctx).is_err());
    }

    #[test]
    fn custom_kind_requires_a_factory() {
        let compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        let op = LogicalOp::new("nonexistent").using(ModuleKind::Custom);
        assert!(compiler.bind(&op, &mut ctx).is_err());
    }

    #[test]
    fn validators_from_params() {
        let op = LogicalOp::new("x").param("output", "yesno");
        assert!(matches!(validator_from_params(&op), OutputValidator::YesNo));
        let op = LogicalOp::new("x").param("output", "category:Sony, Microsoft");
        match validator_from_params(&op) {
            OutputValidator::Category { vocabulary } => {
                assert_eq!(vocabulary, vec!["Sony", "Microsoft"])
            }
            other => panic!("unexpected {other:?}"),
        }
        let op = LogicalOp::new("x").param("output", "range:0..10");
        assert!(matches!(
            validator_from_params(&op),
            OutputValidator::NumericRange { min, max } if min == 0.0 && max == 10.0
        ));
        let op = LogicalOp::new("entity_resolution");
        assert!(matches!(validator_from_params(&op), OutputValidator::YesNo));
        let op = LogicalOp::new("summarize");
        assert!(matches!(validator_from_params(&op), OutputValidator::Passthrough));
    }

    #[test]
    fn example_parsing() {
        let op = LogicalOp::new("x").param("examples", "a vs a => yes\nb vs c => no");
        let examples = parse_examples(&op);
        assert_eq!(examples.len(), 2);
        assert!(examples[0].1);
        assert!(!examples[1].1);
    }

    #[test]
    fn whole_pipeline_compiles() {
        let compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        let pipeline = Pipeline::parse(
            r#"pipeline p {
                t = load_csv() with { path: "x.csv" };
                s = summarize_table(t) using llm with { desc: "summarize the table contents" };
            }"#,
        )
        .unwrap();
        let physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        assert_eq!(physical.ops.len(), 2);
        let description = physical.describe();
        assert!(description.contains("load_csv"));
        assert!(description.contains("[llm]"));
    }

    #[test]
    fn compiled_pipelines_replicate_without_recompiling() {
        let compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        let pipeline = Pipeline::parse(
            r#"pipeline p {
                t = load_csv() with { path: "x.csv" };
                s = summarize_table(t) using llm with { desc: "summarize the table contents" };
            }"#,
        )
        .unwrap();
        let physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let usage_after_compile = ctx.llm.usage();
        let copy = physical.fresh_instance().unwrap();
        assert_eq!(copy.ops.len(), physical.ops.len());
        assert_eq!(copy.describe(), physical.describe());
        // Replication never talks to the LLM — compile once, instantiate N times.
        assert_eq!(ctx.llm.usage(), usage_after_compile);
    }

    #[test]
    fn llmgc_replication_skips_code_generation() {
        let compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        let op = LogicalOp::new("toks")
            .output("t")
            .input("text")
            .using(ModuleKind::Llmgc)
            .param("desc", "tokenize the text into words");
        let pipeline = Pipeline::new("gc").op(op);
        let physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let generated = ctx.llm.usage();
        assert!(generated.calls >= 1, "compilation generates code");
        let copy = physical.fresh_instance().unwrap();
        assert_eq!(ctx.llm.usage(), generated, "replication re-used the generated program");
        assert_eq!(copy.ops[0].1.kind(), ModuleKind::Llmgc);
    }

    #[test]
    fn stateful_modules_block_replication() {
        let mut compiler = Compiler::with_builtins();
        let mut ctx = ctx();
        compiler.register("counter", |_op, _ctx| {
            let mut n = 0u64;
            Ok(Box::new(CustomModule::new("counter", move |_, _| {
                n += 1;
                Ok(Data::Int(n as i64))
            })) as Box<dyn Module>)
        });
        let pipeline = Pipeline::new("c").op(LogicalOp::new("counter").output("n"));
        let physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let err = physical.fresh_instance().unwrap_err();
        assert!(matches!(err, CoreError::NotReplicable { module } if module == "counter"));
    }

    #[test]
    fn strings_to_table_helper() {
        let t = strings_to_table("names", "name", &["a".into(), "b".into()]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().len(), 1);
    }
}
