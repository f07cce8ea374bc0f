//! Templates: "groups of pre-built pipelines ... rather than creating a
//! pipeline from scratch, LINGUA MANGA allows users to start with a
//! pre-defined, well-optimized pipeline" (§3).

use crate::modules::ModuleKind;
use crate::pipeline::{LogicalOp, Pipeline};
use std::collections::BTreeMap;

/// A registered template: a pipeline plus searchable metadata.
#[derive(Debug, Clone)]
pub struct Template {
    pub name: String,
    pub description: String,
    pub keywords: Vec<String>,
    pub pipeline: Pipeline,
}

/// The searchable template registry (Figure 2b's "built-in template" path).
#[derive(Debug, Clone, Default)]
pub struct TemplateRegistry {
    templates: BTreeMap<String, Template>,
}

impl TemplateRegistry {
    /// An empty registry.
    pub fn new() -> TemplateRegistry {
        TemplateRegistry::default()
    }

    /// The registry pre-loaded with the built-in templates.
    pub fn with_builtins() -> TemplateRegistry {
        let mut registry = TemplateRegistry::new();
        registry.add(entity_resolution_template());
        registry.add(data_imputation_template());
        registry.add(name_extraction_template());
        registry.add(data_cleaning_template());
        registry
    }

    pub fn add(&mut self, template: Template) {
        self.templates.insert(template.name.clone(), template);
    }

    pub fn get(&self, name: &str) -> Option<&Template> {
        self.templates.get(name)
    }

    pub fn names(&self) -> Vec<&str> {
        self.templates.keys().map(|s| s.as_str()).collect()
    }

    /// Keyword search over names, descriptions, and keyword lists — how a
    /// no-code user finds a starting point.
    pub fn search(&self, query: &str) -> Vec<&Template> {
        let terms: Vec<String> =
            query.to_lowercase().split_whitespace().map(|s| s.to_string()).collect();
        let mut scored: Vec<(usize, &Template)> = self
            .templates
            .values()
            .map(|t| {
                let haystack = format!(
                    "{} {} {}",
                    t.name.to_lowercase(),
                    t.description.to_lowercase(),
                    t.keywords.join(" ").to_lowercase()
                );
                let score = terms.iter().filter(|term| haystack.contains(term.as_str())).count();
                (score, t)
            })
            .filter(|(score, _)| *score > 0)
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.name.cmp(&b.1.name)));
        scored.into_iter().map(|(_, t)| t).collect()
    }
}

/// Figure 2b: the built-in entity-resolution pipeline — load, resolve with a
/// calibrated LLM module, save.
pub(crate) fn entity_resolution_template() -> Template {
    Template {
        name: "entity_resolution_basic".into(),
        description: "Match records that refer to the same real-world entity using a \
                      calibrated LLM module with yes/no output validation."
            .into(),
        keywords: vec!["entity".into(), "resolution".into(), "matching".into(), "dedup".into()],
        pipeline: Pipeline::new("entity_resolution_basic")
            .op(LogicalOp::new("load_csv").output("records").param("path", "input.csv"))
            .op(LogicalOp::new("entity_resolution")
                .output("matches")
                .input("records")
                .using(ModuleKind::Llm)
                .param(
                    "desc",
                    "Please determine if the following two records refer to the same entity.",
                )
                .param("output", "yesno")
                .param("builder", "pair"))
            .op(LogicalOp::new("save_csv").input("matches").param("path", "matches.csv")),
    }
}

/// Figure 4: imputation via an LLMGC rules module with an LLM fallback.
pub(crate) fn data_imputation_template() -> Template {
    Template {
        name: "data_imputation_buy".into(),
        description: "Fill a missing categorical attribute: cheap generated rules resolve the \
                      easy rows, the LLM is consulted only for the hard ones."
            .into(),
        keywords: vec![
            "imputation".into(),
            "missing".into(),
            "manufacturer".into(),
            "cleaning".into(),
        ],
        pipeline: Pipeline::new("data_imputation_buy")
            .op(LogicalOp::new("load_csv").output("products").param("path", "products.csv"))
            .op(LogicalOp::new("impute_manufacturer")
                .output("filled")
                .input("products")
                .using(ModuleKind::Llmgc)
                .param(
                    "desc",
                    "impute the missing manufacturer from the product name and description, \
                     using the vocabulary tool for rules and the LLM for hard cases",
                ))
            .op(LogicalOp::new("save_csv").input("filled").param("path", "imputed.csv")),
    }
}

/// Figure 3: tokenize → noun-phrase extraction (LLMGC) → tagging (LLM).
pub(crate) fn name_extraction_template() -> Template {
    Template {
        name: "name_extraction".into(),
        description: "Find person names in text passages: generated tokenizer and noun-phrase \
                      extractor feed an LLM tagger with an example-based validator."
            .into(),
        keywords: vec![
            "name".into(),
            "extraction".into(),
            "ner".into(),
            "person".into(),
            "text".into(),
        ],
        pipeline: Pipeline::new("name_extraction")
            .op(LogicalOp::new("tokenize")
                .output("tokens")
                .input("passage")
                .using(ModuleKind::Llmgc)
                .param("desc", "tokenize the text into words"))
            .op(LogicalOp::new("extract_noun_phrases")
                .output("phrases")
                .input("tokens")
                .using(ModuleKind::Llmgc)
                .param("desc", "extract noun phrases: group consecutive capitalized tokens"))
            .op(LogicalOp::new("tag_names")
                .output("names")
                .input("phrases")
                .using(ModuleKind::Llm)
                .param("desc", "Is the following phrase a person name?")
                .param("payload_label", "Text")
                .param("output", "yesno")),
    }
}

/// A generic cleaning pipeline: dedup + a generated value normalizer.
pub(crate) fn data_cleaning_template() -> Template {
    Template {
        name: "data_cleaning".into(),
        description: "Normalize messy values and drop exact duplicates.".into(),
        keywords: vec!["cleaning".into(), "normalize".into(), "duplicates".into()],
        pipeline: Pipeline::new("data_cleaning")
            .op(LogicalOp::new("load_csv").output("raw").param("path", "raw.csv"))
            .op(LogicalOp::new("clean_values")
                .output("cleaned")
                .input("raw")
                .using(ModuleKind::Llmgc)
                .param("desc", "clean and normalize the value: trim and collapse whitespace"))
            .op(LogicalOp::new("dedup_exact").output("deduped").input("cleaned"))
            .op(LogicalOp::new("save_csv").input("deduped").param("path", "clean.csv")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_registered_and_valid() {
        let registry = TemplateRegistry::with_builtins();
        assert_eq!(registry.names().len(), 4);
        for name in registry.names() {
            let template = registry.get(name).unwrap();
            assert!(!template.pipeline.ops.is_empty(), "{name} has no ops");
            // Dataflow is self-consistent given the documented external input.
            template
                .pipeline
                .check_dataflow(&["passage"])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn search_finds_relevant_templates() {
        let registry = TemplateRegistry::with_builtins();
        let hits = registry.search("entity resolution");
        assert_eq!(hits[0].name, "entity_resolution_basic");
        let hits = registry.search("missing manufacturer imputation");
        assert_eq!(hits[0].name, "data_imputation_buy");
        let hits = registry.search("person names in text");
        assert_eq!(hits[0].name, "name_extraction");
        assert!(registry.search("quantum chromodynamics").is_empty());
    }

    #[test]
    fn template_pipelines_parse_back_from_pretty() {
        let registry = TemplateRegistry::with_builtins();
        for name in registry.names() {
            let template = registry.get(name).unwrap();
            let pretty = template.pipeline.pretty();
            let reparsed = Pipeline::parse(&pretty)
                .unwrap_or_else(|e| panic!("{name} failed to reparse: {e}\n{pretty}"));
            assert_eq!(&reparsed, &template.pipeline, "{name}");
        }
    }
}
