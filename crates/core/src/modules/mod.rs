//! The module taxonomy of §3.1: Custom, LLM, LLMGC, and Decorated modules.

mod custom;
mod llm;
mod llmgc;
mod map;

pub use custom::CustomModule;
pub use llm::{LlmModule, PromptBuilder};
pub use llmgc::LlmgcModule;
pub use map::{PipelinedMapModule, LIST_PROMPT_MEMBERS};

use crate::context::ExecContext;
use crate::data::Data;
use crate::error::CoreError;

/// Which of the four module classes a physical module belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleKind {
    Custom,
    Llm,
    Llmgc,
    Decorated,
}

impl ModuleKind {
    pub fn name(self) -> &'static str {
        match self {
            ModuleKind::Custom => "custom",
            ModuleKind::Llm => "llm",
            ModuleKind::Llmgc => "llmgc",
            ModuleKind::Decorated => "decorated",
        }
    }

    /// Parse a DSL `using <kind>` clause.
    pub fn parse(text: &str) -> Option<ModuleKind> {
        match text.to_lowercase().as_str() {
            "custom" => Some(ModuleKind::Custom),
            "llm" => Some(ModuleKind::Llm),
            "llmgc" => Some(ModuleKind::Llmgc),
            "decorated" => Some(ModuleKind::Decorated),
            _ => None,
        }
    }
}

/// A physical module: `f: Data -> Data` with access to the execution context.
pub trait Module: Send {
    /// The module's (unique within a pipeline) name.
    fn name(&self) -> &str;
    /// Which §3.1 class it belongs to.
    fn kind(&self) -> ModuleKind;
    /// Run the module.
    fn invoke(&mut self, input: Data, ctx: &mut ExecContext) -> Result<Data, CoreError>;
    /// The module's list form: all of `inputs` in one call, element for
    /// element what [`Module::invoke`] gives each. `None`, the default, for a
    /// module without one, which its caller then invokes per element. An
    /// empty `inputs` only asks whether the form exists, and places no call.
    fn invoke_list(
        &mut self,
        _inputs: &[Data],
        _ctx: &mut ExecContext,
    ) -> Option<Result<Vec<Data>, CoreError>> {
        None
    }
    /// Human-readable description (source code for LLMGC, prompt for LLM...).
    fn describe(&self) -> String {
        format!("{} module `{}`", self.kind().name(), self.name())
    }
    /// Create a fresh, independent instance of this module, sharing none of
    /// its mutable state. The serving layer uses this to instantiate a
    /// compiled pipeline once per worker without re-running code generation.
    ///
    /// Returns `None` when the module is inherently stateful and cannot be
    /// replicated (e.g. a [`CustomModule`] built from an arbitrary `FnMut`
    /// closure); such modules can only run single-threaded.
    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_and_name() {
        assert_eq!(ModuleKind::parse("LLM"), Some(ModuleKind::Llm));
        assert_eq!(ModuleKind::parse("llmgc"), Some(ModuleKind::Llmgc));
        assert_eq!(ModuleKind::parse("weird"), None);
        assert_eq!(ModuleKind::Decorated.name(), "decorated");
    }
}
