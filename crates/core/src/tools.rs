//! External tools that modules (especially LLMGC scripts, via `call_tool`)
//! can use — the "external tool APIs" users provide in §4.2 to sharpen
//! generated code.

use lingua_script::Value as ScriptValue;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A tool: a named host function over script values.
pub(crate) type ToolFn = dyn Fn(&[ScriptValue]) -> Result<ScriptValue, String> + Send + Sync;

/// A registry of tools, cheap to clone and share.
#[derive(Clone, Default)]
pub struct ToolRegistry {
    tools: BTreeMap<String, Arc<ToolFn>>,
}

impl ToolRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a tool under `name` (replacing any previous one).
    pub fn register<F>(&mut self, name: impl Into<String>, tool: F)
    where
        F: Fn(&[ScriptValue]) -> Result<ScriptValue, String> + Send + Sync + 'static,
    {
        self.tools.insert(name.into(), Arc::new(tool));
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tools.contains_key(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tools.keys().map(|s| s.as_str())
    }

    /// Invoke a tool.
    pub fn call(&self, name: &str, args: &[ScriptValue]) -> Result<ScriptValue, String> {
        match self.tools.get(name) {
            Some(tool) => tool(args),
            None => Err(format!("unknown tool `{name}`")),
        }
    }

    /// Register a constant list tool (e.g. a vocabulary). Every call hands
    /// out the same shared list; a script that mutates its copy unshares it.
    pub fn register_list(&mut self, name: impl Into<String>, items: Vec<String>) {
        let list: ScriptValue = items.into_iter().map(ScriptValue::from).collect();
        self.register(name, move |_args| Ok(list.clone()));
    }
}

impl std::fmt::Debug for ToolRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolRegistry")
            .field("tools", &self.tools.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Per-language stopword lists — the multilingual tool of §4.2. Backed by the
/// world's function-word lexicons when constructed via
/// [`stopwords_tool_from_world`].
pub fn stopwords_tool_from_world(
    world: &lingua_dataset::world::WorldSpec,
) -> impl Fn(&[ScriptValue]) -> Result<ScriptValue, String> + Send + Sync + 'static {
    let by_lang: BTreeMap<String, ScriptValue> = world
        .lexicons
        .iter()
        .map(|(lang, lex)| {
            let words = lex.function_words.iter().map(|w| ScriptValue::from(w.as_str()));
            (lang.code().to_string(), words.collect())
        })
        .collect();
    move |args: &[ScriptValue]| {
        let code = args
            .first()
            .and_then(|v| v.as_str())
            .ok_or_else(|| "stopwords expects a language code".to_string())?;
        let words = by_lang.get(code).or_else(|| by_lang.get("en")).cloned();
        Ok(words.unwrap_or_else(|| ScriptValue::from(Vec::new())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call() {
        let mut registry = ToolRegistry::new();
        registry.register("double", |args| {
            let n = args.first().and_then(|v| v.as_int()).ok_or("double expects an int")?;
            Ok(ScriptValue::Int(n * 2))
        });
        assert!(registry.contains("double"));
        assert_eq!(registry.call("double", &[ScriptValue::Int(4)]), Ok(ScriptValue::Int(8)));
        assert!(registry.call("double", &[]).is_err());
        assert!(registry.call("missing", &[]).is_err());
    }

    #[test]
    fn list_tools() {
        let mut registry = ToolRegistry::new();
        registry.register_list("vocabulary", vec!["Sony".into(), "Canon".into()]);
        let result = registry.call("vocabulary", &[]).unwrap();
        assert_eq!(
            result,
            ScriptValue::from(vec![
                ScriptValue::Str("Sony".into()),
                ScriptValue::Str("Canon".into())
            ])
        );
    }

    #[test]
    fn stopwords_tool_serves_languages() {
        let world = lingua_dataset::world::WorldSpec::generate(3);
        let tool = stopwords_tool_from_world(&world);
        let fr = tool(&[ScriptValue::Str("fr".into())]).unwrap();
        let fr_words = fr.as_list().unwrap();
        assert!(fr_words.iter().any(|w| w.as_str() == Some("le")));
        // Unknown language falls back to English.
        let xx = tool(&[ScriptValue::Str("xx".into())]).unwrap();
        assert!(xx.as_list().unwrap().iter().any(|w| w.as_str() == Some("the")));
        assert!(tool(&[]).is_err());
    }

    #[test]
    fn registry_clone_shares_tools() {
        let mut registry = ToolRegistry::new();
        registry.register_list("x", vec!["a".into()]);
        let cloned = registry.clone();
        assert!(cloned.contains("x"));
    }
}
