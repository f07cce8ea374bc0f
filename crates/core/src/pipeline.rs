//! Logical pipelines: what users author (through the DSL, the builder API,
//! or a template) before the compiler binds physical modules.

use crate::modules::ModuleKind;
use std::collections::BTreeMap;

/// One logical operator in a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalOp {
    /// Variable the result is bound to (empty for sink ops like `save_csv`).
    pub output: String,
    /// Operator type name (resolved against the compiler's factory registry,
    /// the code-generation templates, or the LLM).
    pub op_type: String,
    /// Input variable names.
    pub inputs: Vec<String>,
    /// `using <kind>` override from the DSL.
    pub kind: Option<ModuleKind>,
    /// Free-form parameters (`with { ... }`), e.g. `desc`, `path`, `examples`.
    pub params: BTreeMap<String, String>,
}

impl LogicalOp {
    pub fn new(op_type: impl Into<String>) -> LogicalOp {
        LogicalOp {
            output: String::new(),
            op_type: op_type.into(),
            inputs: Vec::new(),
            kind: None,
            params: BTreeMap::new(),
        }
    }

    pub fn output(mut self, var: impl Into<String>) -> LogicalOp {
        self.output = var.into();
        self
    }

    pub fn input(mut self, var: impl Into<String>) -> LogicalOp {
        self.inputs.push(var.into());
        self
    }

    pub fn using(mut self, kind: ModuleKind) -> LogicalOp {
        self.kind = Some(kind);
        self
    }

    pub fn param(mut self, key: impl Into<String>, value: impl Into<String>) -> LogicalOp {
        self.params.insert(key.into(), value.into());
        self
    }

    /// The natural-language description, if provided.
    pub fn description(&self) -> Option<&str> {
        self.params.get("desc").map(|s| s.as_str())
    }
}

/// A named, ordered list of logical operators.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pipeline {
    pub name: String,
    pub ops: Vec<LogicalOp>,
}

impl Pipeline {
    pub fn new(name: impl Into<String>) -> Pipeline {
        Pipeline { name: name.into(), ops: Vec::new() }
    }

    pub fn op(mut self, op: LogicalOp) -> Pipeline {
        self.ops.push(op);
        self
    }

    /// Parse the textual DSL.
    pub fn parse(source: &str) -> Result<Pipeline, crate::error::CoreError> {
        crate::dsl::parse(source)
    }

    /// Sanity-check dataflow: every input must be produced by an earlier op
    /// or listed in `external_inputs`.
    pub fn check_dataflow(&self, external_inputs: &[&str]) -> Result<(), crate::error::CoreError> {
        let mut defined: std::collections::BTreeSet<&str> =
            external_inputs.iter().copied().collect();
        for op in &self.ops {
            for input in &op.inputs {
                if !defined.contains(input.as_str()) {
                    return Err(crate::error::CoreError::UnknownVariable(input.clone()));
                }
            }
            if !op.output.is_empty() {
                defined.insert(&op.output);
            }
        }
        Ok(())
    }

    /// Render a readable summary (the textual stand-in for the paper's
    /// Figure 5 pipeline-inspection UI).
    pub fn pretty(&self) -> String {
        let mut out = format!("pipeline {} {{\n", self.name);
        for op in &self.ops {
            out.push_str("    ");
            if !op.output.is_empty() {
                out.push_str(&format!("{} = ", op.output));
            }
            out.push_str(&format!("{}({})", op.op_type, op.inputs.join(", ")));
            if let Some(kind) = op.kind {
                out.push_str(&format!(" using {}", kind.name()));
            }
            if !op.params.is_empty() {
                let params: Vec<String> =
                    op.params.iter().map(|(k, v)| format!("{k}: {v:?}")).collect();
                out.push_str(&format!(" with {{ {} }}", params.join(", ")));
            }
            out.push_str(";\n");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_api_composes() {
        let p = Pipeline::new("demo")
            .op(LogicalOp::new("load_csv").output("records").param("path", "in.csv"))
            .op(LogicalOp::new("entity_resolution")
                .output("matches")
                .input("records")
                .using(ModuleKind::Llm)
                .param("desc", "match the records"))
            .op(LogicalOp::new("save_csv").input("matches").param("path", "out.csv"));
        assert_eq!(p.ops.len(), 3);
        assert_eq!(p.ops[1].description(), Some("match the records"));
        p.check_dataflow(&[]).unwrap();
    }

    #[test]
    fn dataflow_check_catches_undefined_vars() {
        let p = Pipeline::new("bad").op(LogicalOp::new("x").input("nowhere"));
        assert!(p.check_dataflow(&[]).is_err());
        assert!(p.check_dataflow(&["nowhere"]).is_ok());
    }

    #[test]
    fn pretty_renders_all_parts() {
        let p = Pipeline::new("demo").op(LogicalOp::new("resolve")
            .output("m")
            .input("r")
            .using(ModuleKind::Llmgc)
            .param("desc", "d"));
        let text = p.pretty();
        assert!(text.contains("m = resolve(r) using llmgc"));
        assert!(text.contains("desc: \"d\""));
    }
}
