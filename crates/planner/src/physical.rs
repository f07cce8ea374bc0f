//! Physical alternatives: the concrete forms a logical curation op can
//! compile to, plus the two planner-owned module implementations — a
//! memoizing result cache over any inner module ([`MemoModule`]) and a
//! supervised pair-matching model distilled from labeled examples
//! ([`MlPairModule`], the SEED-style student).

use lingua_core::modules::{Module, ModuleKind};
use lingua_core::{CoreError, Data, ExecContext};
use lingua_dataset::labels::LabeledPair;
use lingua_dataset::Schema;
use lingua_ml::features::rich_pair_features;
use lingua_ml::forest::{ForestConfig, RandomForest};
use lingua_ml::sync::Mutex;
use lingua_ml::Example;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The physical forms a logical curation op can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhysicalAlt {
    /// Hand-written code behind a registered compiler factory.
    CustomCode,
    /// An LLM-generated MangaScript program (LLMGC, §3.1).
    LlmgcProgram,
    /// A supervised `lingua-ml` model (SEED-style distilled student).
    MlModel,
    /// A direct LLM call fronted by a memoized result cache.
    CachedLlm,
    /// A direct LLM call per record.
    DirectLlm,
}

impl PhysicalAlt {
    /// Every alternative, in the paper's default implementation ranking:
    /// custom code beats generated code beats the raw LLM (the §3 binding
    /// policy), with the planner-only forms (model, cache) slotted between
    /// generated code and the LLM by their cost character. This order is the
    /// fallback when the estimator has no observations.
    pub const ALL: [PhysicalAlt; 5] = [
        PhysicalAlt::CustomCode,
        PhysicalAlt::LlmgcProgram,
        PhysicalAlt::MlModel,
        PhysicalAlt::CachedLlm,
        PhysicalAlt::DirectLlm,
    ];

    /// Stable lowercase label (trace attrs, bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalAlt::CustomCode => "custom_code",
            PhysicalAlt::LlmgcProgram => "llmgc_program",
            PhysicalAlt::MlModel => "ml_model",
            PhysicalAlt::CachedLlm => "cached_llm",
            PhysicalAlt::DirectLlm => "direct_llm",
        }
    }
}

impl std::fmt::Display for PhysicalAlt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Suffix a [`MemoModule`] appends to its inner module's name. The cost
/// estimator's trace feedback uses it to attribute an `Op` span's usage to
/// [`PhysicalAlt::CachedLlm`] rather than [`PhysicalAlt::MlModel`] (both
/// report [`ModuleKind::Decorated`]).
pub(crate) const CACHE_SUFFIX: &str = "+cache";

struct MemoState {
    map: BTreeMap<String, Data>,
    order: VecDeque<String>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl MemoState {
    fn insert(&mut self, key: String, value: Data) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(evict) = self.order.pop_front() {
                    self.map.remove(&evict);
                } else {
                    break;
                }
            }
        }
    }
}

/// A memoized result cache over any inner module: identical inputs (by
/// rendered value) return the cached output without invoking the inner
/// module. This is the `CachedLlm` physical form — semantics-preserving for
/// deterministic inner modules, and exactly what pays off on duplicate-heavy
/// datasets (the estimator prices it from
/// [`lingua_core::DatasetStats::duplicate_rate`]).
///
/// The memo is shared across [`Module::fresh_instance`] copies (an `Arc`,
/// like the serve-layer result cache), so per-worker instances pool their
/// hits. Errors are never cached.
pub struct MemoModule {
    name: String,
    inner: Box<dyn Module>,
    memo: Arc<Mutex<MemoState>>,
}

impl MemoModule {
    pub fn new(inner: Box<dyn Module>, capacity: usize) -> MemoModule {
        MemoModule {
            name: format!("{}{CACHE_SUFFIX}", inner.name()),
            inner,
            memo: Arc::new(Mutex::new(MemoState {
                map: BTreeMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
                hits: 0,
                misses: 0,
            })),
        }
    }

    /// Cache hits across all shared instances.
    pub fn hits(&self) -> u64 {
        self.memo.lock().hits
    }

    /// Cache misses (inner invocations) across all shared instances.
    pub fn misses(&self) -> u64 {
        self.memo.lock().misses
    }
}

impl Module for MemoModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Decorated
    }

    fn invoke(&mut self, input: Data, ctx: &mut ExecContext) -> Result<Data, CoreError> {
        let key = input.render();
        {
            // One guard for probe + count: the scrutinee of an
            // `if let self.memo.lock()...` keeps its temporary guard alive
            // across the body, so a second lock() there deadlocks.
            let mut memo = self.memo.lock();
            if let Some(cached) = memo.map.get(&key).cloned() {
                memo.hits += 1;
                return Ok(cached);
            }
        }
        let output = self.inner.invoke(input, ctx)?;
        let mut memo = self.memo.lock();
        memo.misses += 1;
        memo.insert(key, output.clone());
        Ok(output)
    }

    fn describe(&self) -> String {
        format!("memoized cache over {}", self.inner.describe())
    }

    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        let inner = self.inner.fresh_instance()?;
        Some(Box::new(MemoModule { name: self.name.clone(), inner, memo: Arc::clone(&self.memo) }))
    }
}

/// Split a [`lingua_dataset::Record::describe`] rendering
/// (`"name: x; city: y"`) back into per-field values, so the model sees the
/// same field-aligned view at train and serve time as the LLM's pair prompt.
fn describe_fields(text: &str) -> Vec<String> {
    text.split("; ")
        .map(|seg| seg.split_once(": ").map(|(_, v)| v).unwrap_or(seg).to_string())
        .collect()
}

/// A supervised pair matcher: a random forest over per-field string
/// similarities, trained from labeled pairs. This is the `MlModel` physical
/// form for Match-stage ops — zero marginal LLM cost per record, with the
/// training-label cost booked as the plan's setup cost (the SEED economics:
/// distill the teacher into a cheap student, route traffic to the student).
///
/// Input shape matches the LLM pair module: a map `{a: <describe>, b:
/// <describe>}`; output is `Data::Bool`, same as the yes/no-validated LLM.
pub struct MlPairModule {
    name: String,
    forest: Arc<RandomForest>,
    threshold: f64,
}

impl MlPairModule {
    /// Train on labeled pairs. Errors (compile-time, not serve-time) when
    /// the sample is empty.
    pub fn train(
        name: impl Into<String>,
        schema: &Schema,
        pairs: &[LabeledPair],
        seed: u64,
    ) -> Result<MlPairModule, CoreError> {
        if pairs.is_empty() {
            return Err(CoreError::Compile("ml_model training needs labeled pairs".into()));
        }
        let examples: Vec<Example> = pairs
            .iter()
            .map(|pair| {
                Example::new(
                    rich_pair_features(
                        &describe_fields(&pair.left.describe(schema)),
                        &describe_fields(&pair.right.describe(schema)),
                    ),
                    usize::from(pair.label),
                )
            })
            .collect();
        let forest = RandomForest::train(
            &examples,
            &ForestConfig { n_trees: 30, seed, ..Default::default() },
        );
        Ok(MlPairModule { name: name.into(), forest: Arc::new(forest), threshold: 0.5 })
    }

    /// Judge one `(a, b)` description pair.
    pub(crate) fn judge(&self, a: &str, b: &str) -> bool {
        let features = rich_pair_features(&describe_fields(a), &describe_fields(b));
        self.forest.predict_proba(&features) >= self.threshold
    }
}

impl Module for MlPairModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Decorated
    }

    fn invoke(&mut self, input: Data, _ctx: &mut ExecContext) -> Result<Data, CoreError> {
        let map = input.as_map().ok_or(CoreError::DataShape {
            expected: "map {a, b} of record descriptions",
            got: input.type_name().into(),
        })?;
        let field = |key: &str| -> Result<&str, CoreError> {
            map.get(key).and_then(Data::as_str).ok_or(CoreError::DataShape {
                expected: "string fields `a` and `b`",
                got: format!("missing or non-string `{key}`"),
            })
        };
        Ok(Data::Bool(self.judge(field("a")?, field("b")?)))
    }

    fn describe(&self) -> String {
        format!("supervised pair matcher `{}` ({} trees)", self.name, self.forest.n_trees())
    }

    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(MlPairModule {
            name: self.name.clone(),
            forest: Arc::clone(&self.forest),
            threshold: self.threshold,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_core::modules::CustomModule;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(5);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 5)))
    }

    fn counting_inner() -> (Box<dyn Module>, Arc<Mutex<u64>>) {
        let calls = Arc::new(Mutex::new(0u64));
        let seen = Arc::clone(&calls);
        let module = CustomModule::stateless("echo", move |input, _ctx| {
            *seen.lock() += 1;
            Ok(input)
        });
        (Box::new(module), calls)
    }

    #[test]
    fn memo_module_caches_identical_inputs() {
        let mut ctx = ctx();
        let (inner, calls) = counting_inner();
        let mut memo = MemoModule::new(inner, 16);
        assert_eq!(memo.name(), "echo+cache");
        assert_eq!(memo.kind(), ModuleKind::Decorated);
        for _ in 0..3 {
            let out = memo.invoke(Data::Str("x".into()), &mut ctx).unwrap();
            assert_eq!(out, Data::Str("x".into()));
        }
        memo.invoke(Data::Str("y".into()), &mut ctx).unwrap();
        assert_eq!(*calls.lock(), 2, "two distinct inputs, one inner call each");
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn memo_module_evicts_beyond_capacity() {
        let mut ctx = ctx();
        let (inner, calls) = counting_inner();
        let mut memo = MemoModule::new(inner, 1);
        memo.invoke(Data::Str("a".into()), &mut ctx).unwrap();
        memo.invoke(Data::Str("b".into()), &mut ctx).unwrap(); // evicts "a"
        memo.invoke(Data::Str("a".into()), &mut ctx).unwrap(); // miss again
        assert_eq!(*calls.lock(), 3);
    }

    #[test]
    fn memo_fresh_instances_share_the_cache() {
        let mut ctx = ctx();
        let (inner, calls) = counting_inner();
        let memo = MemoModule::new(inner, 16);
        let mut a = memo.fresh_instance().unwrap();
        let mut b = memo.fresh_instance().unwrap();
        a.invoke(Data::Str("x".into()), &mut ctx).unwrap();
        b.invoke(Data::Str("x".into()), &mut ctx).unwrap();
        assert_eq!(*calls.lock(), 1, "the second instance hit the shared memo");
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn describe_fields_roundtrips_record_shape() {
        assert_eq!(describe_fields("name: pale ale; city: austin"), vec!["pale ale", "austin"]);
        assert_eq!(describe_fields("raw text"), vec!["raw text"]);
    }

    #[test]
    fn ml_pair_module_learns_and_replicates() {
        use lingua_dataset::generators::er::{generate, ErDataset};
        let world = WorldSpec::generate(21);
        let split = generate(&world, ErDataset::FodorsZagats, 7);
        let pairs: Vec<LabeledPair> = split.train.iter().chain(&split.valid).cloned().collect();
        let module = MlPairModule::train("er_model", &split.schema, &pairs, 0).unwrap();
        let mut ctx = ctx();
        let mut correct = 0usize;
        let mut fresh = module.fresh_instance().unwrap();
        for pair in &split.test {
            let input = Data::map([
                ("a".to_string(), Data::Str(pair.left.describe(&split.schema))),
                ("b".to_string(), Data::Str(pair.right.describe(&split.schema))),
            ]);
            let out = fresh.invoke(input, &mut ctx).unwrap();
            if out == Data::Bool(pair.label) {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / split.test.len() as f64;
        assert!(accuracy > 0.8, "accuracy {accuracy}");
        // Pure local inference: the LLM was never consulted.
        assert_eq!(ctx.llm.usage().calls, 0);
    }

    #[test]
    fn ml_pair_module_rejects_bad_shapes() {
        let world = WorldSpec::generate(21);
        let split = lingua_dataset::generators::er::generate(
            &world,
            lingua_dataset::generators::er::ErDataset::FodorsZagats,
            7,
        );
        let mut module = MlPairModule::train("er_model", &split.schema, &split.train, 0).unwrap();
        let mut ctx = ctx();
        assert!(module.invoke(Data::Str("loose".into()), &mut ctx).is_err());
        assert!(MlPairModule::train("empty", &split.schema, &[], 0).is_err());
    }
}
