//! The LLM service facade.
//!
//! [`SimLlm`] is the single entry point the rest of the system talks to. It
//! routes prompts through [`crate::prompt`] to the behaviours, meters every
//! call in tokens and dollars, optionally caches responses, and exposes the
//! structured code-generation endpoints used by LLMGC modules.

use crate::behaviors;
use crate::calibration::Calibration;
use crate::cancel::{CancelReason, CancelToken, NoAnswer};
use crate::codegen::{self, CodeGenSpec, GeneratedCode};
use crate::cost::{count_tokens, AtomicUsage, TokenPricing, Usage};
use crate::hotpath::{fingerprint, CacheStats, Flight, ShardedLru, Singleflight, DEFAULT_SHARDS};
use crate::knowledge::KnowledgeBase;
use crate::prompt::{self, TaskIntent};
use lingua_dataset::world::WorldSpec;
use lingua_ml::features::HashingVectorizer;
use lingua_ml::rng::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

/// A completion request. Kept minimal: the simulated service is temperature-0
/// (responses are a pure function of the prompt and the service seed).
///
/// The request also memoizes its prompt's 64-bit fingerprint, so a call chain
/// that crosses several caching layers (gateway stale cache → simulator
/// response cache → fault plan) hashes the prompt bytes exactly once.
///
/// And it carries the placing job's [`CancelToken`], so every layer asks the
/// request it was handed whether its job is still alive — whichever thread
/// runs the call (a batch flush runs every member's on one) — and the
/// attempts the gateway already spent on it, so a member the batcher re-sends
/// keeps its retry budget across flushes.
#[derive(Debug, Clone)]
pub struct CompletionRequest {
    pub prompt: String,
    fingerprint: OnceLock<u64>,
    cancel: Option<CancelToken>,
    attempts: u32,
}

impl CompletionRequest {
    /// A request no job governs: never cancelled, no attempt spent.
    pub fn new(prompt: impl Into<String>) -> Self {
        CompletionRequest {
            prompt: prompt.into(),
            fingerprint: OnceLock::new(),
            cancel: None,
            attempts: 0,
        }
    }

    /// Attach the placing job's token (`ExecContext::complete` does).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Why the placing job is dead, if it is: the call must not be placed,
    /// retried or billed. `None` for a live job and for a request without a
    /// token.
    pub fn cancelled(&self) -> Option<CancelReason> {
        self.cancel.as_ref().and_then(CancelToken::status)
    }

    /// The placing job's token, if a job governs this request.
    pub fn token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Attempts the gateway already placed this request without an answer.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The same request with `attempts` already spent — how a member
    /// answered [`NoAnswer::Resend`] re-enters the batcher.
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts;
        self
    }

    /// The prompt's FNV-1a fingerprint, computed on first use and shared by
    /// every layer the request flows through.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| fingerprint(&self.prompt))
    }
}

/// The result of one batched completion: per-member results, a per-member
/// [`Usage`] split, and the batch-level usage booked against the layer's
/// ledger.
///
/// A member is an answer or a [`NoAnswer`]; a non-answer's split is empty,
/// so it bills nothing. Conservation law: `sum(splits) == batch_usage`,
/// field for field — so a suite that prices both sides gets equality to the
/// cent, not within an epsilon. A simulator batch counts as **one** backend
/// call: exactly one split carries `calls == 1` (the first billed member);
/// cache-answered and coalesced members carry pure savings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    /// One result per request, in request order.
    pub responses: Vec<Result<Arc<str>, NoAnswer>>,
    /// The exact usage attributed to each member, in request order.
    pub splits: Vec<Usage>,
    /// Sum of the splits: what this batch added to the layer's ledger.
    pub batch_usage: Usage,
}

impl BatchOutcome {
    pub fn with_capacity(members: usize) -> BatchOutcome {
        BatchOutcome {
            responses: Vec::with_capacity(members),
            splits: Vec::with_capacity(members),
            batch_usage: Usage::default(),
        }
    }

    /// Append one member's result and the usage attributed to it.
    pub fn push(&mut self, response: Result<Arc<str>, NoAnswer>, split: Usage) {
        self.batch_usage.merge(&split);
        self.splits.push(split);
        self.responses.push(response);
    }

    /// The first member's result and split — what a batch of one was placed
    /// for. A reply without members produced no answer: `Aborted`.
    pub fn into_single(self) -> (Result<Arc<str>, NoAnswer>, Usage) {
        let response = self.responses.into_iter().next().unwrap_or(Err(NoAnswer::Aborted));
        (response, self.splits.into_iter().next().unwrap_or(self.batch_usage))
    }

    /// Members answered without billing: cache hits, plus members coalesced
    /// onto an identical prompt computed earlier in the same batch.
    pub fn saved_members(&self) -> usize {
        self.splits.iter().filter(|split| split.cached_calls > 0).count()
    }
}

/// Members in request order, each with the usage attributed to it.
impl FromIterator<(Result<Arc<str>, NoAnswer>, Usage)> for BatchOutcome {
    fn from_iter<I: IntoIterator<Item = (Result<Arc<str>, NoAnswer>, Usage)>>(members: I) -> Self {
        let mut outcome = BatchOutcome::default();
        outcome.extend(members);
        outcome
    }
}

/// Append members, in order, each with the usage attributed to it.
impl Extend<(Result<Arc<str>, NoAnswer>, Usage)> for BatchOutcome {
    fn extend<I: IntoIterator<Item = (Result<Arc<str>, NoAnswer>, Usage)>>(&mut self, members: I) {
        members.into_iter().for_each(|(response, split)| self.push(response, split));
    }
}

/// The service interface `lingua-core` programs against. Implementations must
/// be shareable across threads (the executor may parallelize record batches).
pub trait LlmService: Send + Sync {
    /// Answer a batch of requests — the one completion method a layer
    /// implements; a single call is a batch of one.
    ///
    /// Each member is an answer or a typed [`NoAnswer`] (its job was dead,
    /// the gateway withheld it, its flush aborted), never a notice text, so
    /// no cache, meter or validator above can mistake one for the other.
    /// Implementations must uphold `sum(splits) == batch_usage`, attribute
    /// each member the usage of the layer that billed it, and add exactly
    /// `batch_usage` to [`LlmService::usage`] (exact once callers quiesce).
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome;
    /// Free-text completion for a human or a test: a batch of one, with a
    /// non-answer rendered as its notice. Code that must tell the two apart
    /// reads the typed member of [`LlmService::complete_batch`].
    fn complete(&self, request: &CompletionRequest) -> String {
        self.complete_shared(request).to_string()
    }
    /// [`LlmService::complete`] without copying the response out of its
    /// shared `Arc<str>`.
    fn complete_shared(&self, request: &CompletionRequest) -> Arc<str> {
        let (response, _) = self.complete_batch(std::slice::from_ref(request)).into_single();
        response.unwrap_or_else(|no_answer| Arc::from(no_answer.to_string()))
    }
    /// Deterministic text embedding (for data-discovery tasks).
    fn embed(&self, text: &str) -> Vec<f64>;
    /// Cumulative usage counters.
    fn usage(&self) -> Usage;
    /// Re-enter previously billed usage into the ledger — crash recovery
    /// restoring a journaled cumulative bill into a fresh process, so that
    /// post-restart ledgers still reconcile against the lifetime bill.
    /// Default is a no-op: wrappers and transports have no ledger of their
    /// own to restore.
    fn restore_usage(&self, _usage: &Usage) {}
    /// Simulated wall-clock latency accumulated so far, in milliseconds.
    fn simulated_latency_ms(&self) -> u64;
    /// Generate an LLMGC module program (metered like a completion).
    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode;
    /// Ask for a fix suggestion given code and failure descriptions.
    fn suggest_fix(&self, source: &str, failures: &[String]) -> String;
    /// Regenerate code after a failed validation, given the suggestion.
    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode;
}

/// Configuration for [`SimLlm`].
#[derive(Debug, Clone)]
pub struct SimLlmConfig {
    pub seed: u64,
    pub calibration: Calibration,
    pub pricing: TokenPricing,
    /// Response cache (identical prompt → cached answer, no tokens billed).
    pub cache_enabled: bool,
    /// Maximum cached responses across all shards; each shard evicts its
    /// least-recently-used entry beyond its slice of this. Long-running
    /// serving workloads would otherwise grow the cache without bound.
    pub cache_capacity: usize,
    /// Lock stripes in the response cache; `0` picks a default sized for the
    /// machine. Tests pin `1` to get a deterministic global LRU.
    pub cache_shards: usize,
    /// Simulated per-call latency, accumulated in a counter (never slept).
    pub latency_ms_per_call: u64,
}

impl Default for SimLlmConfig {
    fn default() -> Self {
        SimLlmConfig {
            seed: 0,
            calibration: Calibration::default(),
            pricing: TokenPricing::default(),
            cache_enabled: false,
            cache_capacity: 4096,
            cache_shards: 0,
            latency_ms_per_call: 350,
        }
    }
}

impl SimLlmConfig {
    fn resolved_shards(&self) -> usize {
        if self.cache_shards > 0 {
            self.cache_shards
        } else {
            let cores =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(DEFAULT_SHARDS);
            (cores * 4).clamp(DEFAULT_SHARDS, 64)
        }
    }
}

/// A cached completion: the shared response plus the token counts a hit
/// saves. Storing the counts makes a hit O(1) — the old path re-tokenized
/// the prompt *and* the response under the global lock on every hit.
#[derive(Clone)]
struct CachedResponse {
    text: Arc<str>,
    tokens_in: usize,
    tokens_out: usize,
}

/// The simulated LLM service.
///
/// Concurrency: the hot path holds no global lock. The response cache is a
/// lock-striped [`ShardedLru`], usage metering is [`AtomicUsage`], and
/// concurrent identical prompts coalesce through a [`Singleflight`] (one
/// computes, the rest share the `Arc`'d response and book the saving). See
/// `DESIGN.md` §"Performance: the LLM hot path".
pub struct SimLlm {
    config: SimLlmConfig,
    knowledge: KnowledgeBase,
    vectorizer: HashingVectorizer,
    /// `None` when caching is disabled or capacity is zero.
    cache: Option<ShardedLru<CachedResponse>>,
    flights: Singleflight<CachedResponse>,
    usage: AtomicUsage,
    latency_ms: AtomicU64,
    /// Monotonic nonce so repeated code-generation attempts differ.
    codegen_counter: AtomicU64,
}

impl SimLlm {
    /// Build the service over a world (constructs the knowledge base).
    pub fn new(world: &WorldSpec, config: SimLlmConfig) -> SimLlm {
        let knowledge = KnowledgeBase::from_world(world, &config.calibration, config.seed);
        let cache = (config.cache_enabled && config.cache_capacity > 0)
            .then(|| ShardedLru::new(config.cache_capacity, config.resolved_shards()));
        SimLlm {
            knowledge,
            vectorizer: HashingVectorizer::new(512),
            cache,
            flights: Singleflight::new(),
            usage: AtomicUsage::new(),
            latency_ms: AtomicU64::new(0),
            codegen_counter: AtomicU64::new(0),
            config,
        }
    }

    /// Convenience constructor with defaults.
    pub fn with_seed(world: &WorldSpec, seed: u64) -> SimLlm {
        SimLlm::new(world, SimLlmConfig { seed, ..Default::default() })
    }

    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    pub fn pricing(&self) -> &TokenPricing {
        &self.config.pricing
    }

    /// Number of responses currently held in the cache. Reads per-shard
    /// atomics only — snapshotting never blocks a writer.
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map(ShardedLru::len).unwrap_or(0)
    }

    /// Hot-path counters: cache hits/misses/evictions plus singleflight
    /// coalesces. Lock-free snapshot; exact once callers quiesce.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.as_ref().map(ShardedLru::stats).unwrap_or_default();
        stats.coalesced = self.flights.coalesced();
        stats
    }

    fn respond(&self, prompt_text: &str) -> String {
        let parsed = prompt::parse(prompt_text);
        // Per-call RNG: pure function of (service seed, prompt) — temperature-0
        // semantics; identical prompts always answer identically.
        let mut rng = Rng::seed_from_u64(self.config.seed ^ fingerprint(prompt_text));
        match parsed.intent {
            TaskIntent::EntityMatch => behaviors::entity_match::respond(
                &self.knowledge,
                &self.config.calibration,
                &parsed,
                &mut rng,
            ),
            TaskIntent::Impute => behaviors::impute::respond(
                &self.knowledge,
                &self.config.calibration,
                &parsed,
                &mut rng,
            ),
            TaskIntent::TagNames => behaviors::tag::respond(
                &self.knowledge,
                &self.config.calibration,
                &parsed,
                &mut rng,
            ),
            TaskIntent::DetectLanguage => behaviors::langdetect::respond(
                &self.knowledge,
                &self.config.calibration,
                &parsed,
                &mut rng,
            ),
            TaskIntent::Summarize => behaviors::summarize::respond(&parsed),
            TaskIntent::SchemaMatch => behaviors::schema_match::respond(prompt_text),
            TaskIntent::Unknown => {
                "I'm not sure what task you are asking for. Please describe the data \
                 curation task (entity resolution, imputation, extraction, ...)."
                    .to_string()
            }
        }
    }

    fn meter(&self, prompt_text: &str, response: &str) {
        self.usage.record(count_tokens(prompt_text), count_tokens(response));
        self.latency_ms.fetch_add(self.config.latency_ms_per_call, Ordering::Relaxed);
    }

    /// Book `usage` on the ledger, with one round trip's latency if it
    /// placed a backend call.
    fn bill(&self, usage: &Usage) {
        self.usage.merge(usage);
        if usage.calls > 0 {
            self.latency_ms.fetch_add(self.config.latency_ms_per_call, Ordering::Relaxed);
        }
    }

    /// A batch of one: refused unbilled if its job is dead, else answered
    /// from the cache, coalesced onto an identical call in flight (the
    /// singleflight), or computed and billed.
    fn complete_one(&self, request: &CompletionRequest) -> (Result<Arc<str>, NoAnswer>, Usage) {
        let mut split = Usage::default();
        if let Some(reason) = request.cancelled() {
            return (Err(NoAnswer::Cancelled(reason)), split);
        }
        if !self.config.cache_enabled {
            let response = self.respond(&request.prompt);
            split.record(count_tokens(&request.prompt), count_tokens(&response));
            self.bill(&split);
            return (Ok(Arc::from(response)), split);
        }
        // The fingerprint is computed once per call chain (memoized on the
        // request) and doubles as cache key, shard selector, and
        // singleflight key.
        let key = request.fingerprint();
        // A hit books the exact tokens it avoided billing — counted once at
        // insert time, not re-tokenized per hit.
        if let Some(entry) = self.cache.as_ref().and_then(|cache| cache.get(key)) {
            split.record_cached(entry.tokens_in, entry.tokens_out);
            self.bill(&split);
            return (Ok(entry.text), split);
        }
        let flight = self.flights.join(key, || {
            let response = self.respond(&request.prompt);
            let entry = CachedResponse {
                tokens_in: count_tokens(&request.prompt),
                tokens_out: count_tokens(&response),
                text: Arc::from(response),
            };
            if let Some(cache) = &self.cache {
                cache.insert(key, entry.clone());
            }
            entry
        });
        match &flight {
            Flight::Led(entry) => split.record(entry.tokens_in, entry.tokens_out),
            // A coalesced call shares the leader's computation: billed
            // nothing, booked as a cache saving.
            Flight::Coalesced(entry) => split.record_cached(entry.tokens_in, entry.tokens_out),
        }
        self.bill(&split);
        let (Flight::Led(entry) | Flight::Coalesced(entry)) = flight;
        (Ok(entry.text), split)
    }

    /// Fault-injection hook (used by `lingua-gateway`'s chaos substrate):
    /// meter a call that a simulated transport fault aborted. The prompt
    /// still crossed the wire — input tokens bill and the call consumed its
    /// latency — but no response tokens were produced.
    pub fn meter_failed_call(&self, prompt_text: &str) {
        self.usage.record_failed(count_tokens(prompt_text));
        self.latency_ms.fetch_add(self.config.latency_ms_per_call, Ordering::Relaxed);
    }

    // -- structured code-generation endpoints (see the LlmService trait) -----

    fn generate_code_impl(&self, spec: &CodeGenSpec) -> GeneratedCode {
        let nonce = self.codegen_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let mut rng = Rng::seed_from_u64(
            self.config.seed ^ fingerprint(&spec.task) ^ nonce.wrapping_mul(0x9e37),
        );
        let code = codegen::generate(spec, &self.config.calibration, &mut rng);
        self.meter(&spec.task, &code.source);
        code
    }

    fn suggest_fix_impl(&self, source: &str, failures: &[String]) -> String {
        let suggestion = codegen::suggest_fix(source, failures);
        let request = format!("{source}\n{}", failures.join("\n"));
        self.meter(&request, &suggestion);
        suggestion
    }

    fn repair_code_impl(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        let nonce = self.codegen_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let mut rng = Rng::seed_from_u64(
            self.config.seed ^ fingerprint(&previous.source) ^ nonce.wrapping_mul(0x517c_c1b7),
        );
        let code = codegen::repair(spec, &self.config.calibration, previous, suggestion, &mut rng);
        let request = format!("{}\n{suggestion}", previous.source);
        self.meter(&request, &code.source);
        code
    }
}

impl LlmService for SimLlm {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        if let [request] = requests {
            return std::iter::once(self.complete_one(request)).collect();
        }
        let mut outcome = BatchOutcome::with_capacity(requests.len());
        // A larger batch answers every member: whoever assembled it (the
        // batcher's flush filter) settled which members are alive, and its
        // `cancelled_members` count is what the per-job meters reconcile
        // against.
        //
        // It also bypasses the singleflight: identical prompts inside one
        // batch coalesce through the cache insert below, and identical
        // misses racing across concurrent flushes at worst recompute a
        // deterministic response (billing stays exact per flush).
        let mut billed_any = false;
        for request in requests {
            let key = request.fingerprint();
            let mut split = Usage::default();
            // A hit — or a member coalescing onto an identical prompt
            // computed earlier in this very batch.
            if let Some(entry) = self.cache.as_ref().and_then(|cache| cache.get(key)) {
                split.record_cached(entry.tokens_in, entry.tokens_out);
                outcome.push(Ok(entry.text), split);
                continue;
            }
            let response = self.respond(&request.prompt);
            let tokens_in = count_tokens(&request.prompt);
            let tokens_out = count_tokens(&response);
            let text: Arc<str> = Arc::from(response);
            // The whole flush is ONE batched backend call: the first billed
            // member carries it, siblings contribute tokens only. That keeps
            // `sum(splits).calls == batch_usage.calls == 1`.
            if !billed_any {
                split.calls = 1;
                billed_any = true;
            }
            split.tokens_in += tokens_in as u64;
            split.tokens_out += tokens_out as u64;
            if let Some(cache) = &self.cache {
                cache
                    .insert(key, CachedResponse { text: Arc::clone(&text), tokens_in, tokens_out });
            }
            outcome.push(Ok(text), split);
        }
        // Book the ledger once for the whole batch, and accrue one round
        // trip's latency — the amortization batching exists to buy.
        self.bill(&outcome.batch_usage);
        outcome
    }

    fn embed(&self, text: &str) -> Vec<f64> {
        self.usage.record(count_tokens(text), 0);
        self.latency_ms.fetch_add(self.config.latency_ms_per_call / 4, Ordering::Relaxed);
        self.vectorizer.transform(&crate::embeddings::normalize_for_embedding(text))
    }

    fn usage(&self) -> Usage {
        self.usage.snapshot()
    }

    fn restore_usage(&self, usage: &Usage) {
        self.usage.merge(usage);
    }

    fn simulated_latency_ms(&self) -> u64 {
        self.latency_ms.load(Ordering::Relaxed)
    }

    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
        self.generate_code_impl(spec)
    }

    fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
        self.suggest_fix_impl(source, failures)
    }

    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        self.repair_code_impl(spec, previous, suggestion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> SimLlm {
        let world = WorldSpec::generate(5);
        SimLlm::with_seed(&world, 5)
    }

    #[test]
    fn completion_is_deterministic() {
        let svc = service();
        let req = CompletionRequest::new(
            "Determine if these refer to the same entity.\n\
             Record A: beer_name: Hoppy Badger; brewery: Stonegate Brewing\n\
             Record B: beer_name: Hoppy Badger; brewery: Stonegate Brewing\n\
             Answer yes or no.",
        );
        assert_eq!(svc.complete(&req), svc.complete(&req));
    }

    #[test]
    fn usage_is_metered() {
        let svc = service();
        assert_eq!(svc.usage().calls, 0);
        svc.complete(&CompletionRequest::new("Summarize. Text: hello world"));
        let usage = svc.usage();
        assert_eq!(usage.calls, 1);
        assert!(usage.tokens_in > 0);
        assert!(svc.simulated_latency_ms() > 0);
    }

    #[test]
    fn cache_avoids_repeat_billing() {
        let world = WorldSpec::generate(5);
        let svc = SimLlm::new(
            &world,
            SimLlmConfig { seed: 5, cache_enabled: true, ..Default::default() },
        );
        let req = CompletionRequest::new("Summarize. Text: the same text every time");
        let a = svc.complete(&req);
        let b = svc.complete(&req);
        assert_eq!(a, b);
        let usage = svc.usage();
        assert_eq!(usage.calls, 1);
        assert_eq!(usage.cached_calls, 1);
    }

    #[test]
    fn cache_capacity_evicts_least_recently_used() {
        let world = WorldSpec::generate(5);
        // One shard: a deterministic global LRU for the test.
        let svc = SimLlm::new(
            &world,
            SimLlmConfig {
                seed: 5,
                cache_enabled: true,
                cache_capacity: 2,
                cache_shards: 1,
                ..Default::default()
            },
        );
        let prompts = [
            "Summarize. Text: the first document",
            "Summarize. Text: the second document",
            "Summarize. Text: the third document",
        ];
        for prompt in &prompts {
            svc.complete(&CompletionRequest::new(*prompt));
        }
        assert_eq!(svc.cache_len(), 2, "capacity bounds the cache");
        // The newest entries still hit; the least recently used was evicted
        // and re-bills.
        svc.complete(&CompletionRequest::new(prompts[2]));
        assert_eq!(svc.usage().cached_calls, 1);
        let calls_before = svc.usage().calls;
        svc.complete(&CompletionRequest::new(prompts[0]));
        assert_eq!(svc.usage().calls, calls_before + 1, "evicted entry is a miss");
        assert_eq!(svc.cache_len(), 2);
        // Re-completing an already-cached prompt hits and refreshes recency.
        svc.complete(&CompletionRequest::new(prompts[0]));
        assert_eq!(svc.usage().cached_calls, 2);
        // LRU (not FIFO): the hit on prompts[0] above refreshed it, so a new
        // insert evicts prompts[2] — the stalest entry — instead.
        svc.complete(&CompletionRequest::new("Summarize. Text: a fourth document"));
        let cached_before = svc.usage().cached_calls;
        svc.complete(&CompletionRequest::new(prompts[0]));
        assert_eq!(svc.usage().cached_calls, cached_before + 1, "recently-hit entry survived");
        let stats = svc.cache_stats();
        assert_eq!(stats.hits, svc.usage().cached_calls);
        assert_eq!(stats.misses, svc.usage().calls, "sequential misses all led");
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let world = WorldSpec::generate(5);
        let svc = SimLlm::new(
            &world,
            SimLlmConfig { seed: 5, cache_enabled: true, cache_capacity: 0, ..Default::default() },
        );
        let req = CompletionRequest::new("Summarize. Text: anything at all");
        svc.complete(&req);
        svc.complete(&req);
        assert_eq!(svc.cache_len(), 0);
        assert_eq!(svc.usage().calls, 2);
        assert_eq!(svc.usage().cached_calls, 0);
    }

    #[test]
    fn unknown_prompts_get_a_clarification() {
        let svc = service();
        let response = svc.complete(&CompletionRequest::new("What's your favourite colour?"));
        assert!(response.contains("not sure"));
    }

    #[test]
    fn codegen_endpoints_are_metered_and_vary_per_attempt() {
        let svc = service();
        let spec = CodeGenSpec {
            task: "tokenize the text".into(),
            function_name: "process".into(),
            hints: vec![],
        };
        let first = svc.generate_code(&spec);
        let mut attempts = vec![first.bug];
        for _ in 0..10 {
            attempts.push(svc.generate_code(&spec).bug);
        }
        // Across 11 attempts at a 45% bug rate we should see both outcomes.
        assert!(attempts.iter().any(|b| b.is_some()));
        assert!(attempts.iter().any(|b| b.is_none()));
        assert!(svc.usage().calls >= 11);
    }

    #[test]
    fn repair_loop_terminates() {
        let svc = service();
        let spec = CodeGenSpec {
            task: "extract noun phrases from the tokens".into(),
            function_name: "process".into(),
            hints: vec![],
        };
        let mut code = svc.generate_code(&spec);
        let mut rounds = 0;
        while code.bug.is_some() && rounds < 12 {
            let suggestion = svc.suggest_fix(&code.source, &["failing case".into()]);
            code = svc.repair_code(&spec, &code, &suggestion);
            rounds += 1;
        }
        assert!(code.bug.is_none(), "did not converge");
    }

    #[test]
    fn embeddings_are_deterministic_and_metered() {
        let svc = service();
        let a = svc.embed("product catalogue table");
        let b = svc.embed("product catalogue table");
        assert_eq!(a, b);
        assert_eq!(a.len(), 512);
        assert!(svc.usage().tokens_in > 0);
        // Different texts embed differently.
        let c = svc.embed("completely different words");
        assert_ne!(a, c);
    }

    #[test]
    fn cancelled_scope_short_circuits_and_bills_nothing() {
        let world = WorldSpec::generate(5);
        let svc = SimLlm::new(
            &world,
            SimLlmConfig { seed: 5, cache_enabled: true, ..Default::default() },
        );
        let req = CompletionRequest::new("Summarize. Text: a document worth billing for");
        let answer = |request: CompletionRequest| {
            svc.complete_batch(std::slice::from_ref(&request)).into_single()
        };
        let (live, _) = answer(req.clone());
        assert!(live.is_ok());
        let usage_before = svc.usage();
        let latency_before = svc.simulated_latency_ms();
        let token = CancelToken::unbounded();
        token.cancel();
        // Even a cacheable repeat prompt is refused: the job is dead, so no
        // savings are booked either.
        let refused = Err(NoAnswer::Cancelled(CancelReason::Cancelled));
        assert_eq!(
            answer(req.clone().with_cancel(token.clone())),
            (refused.clone(), Usage::default())
        );
        let never_placed = CompletionRequest::new("Summarize. Text: never placed");
        assert_eq!(answer(never_placed.with_cancel(token)), (refused, Usage::default()));
        assert_eq!(svc.usage(), usage_before, "cancelled calls bill nothing");
        assert_eq!(svc.simulated_latency_ms(), latency_before);
        // The same prompt from a live job is answered normally.
        assert_eq!(answer(req).0, live);
    }

    #[test]
    fn batch_books_one_call_and_splits_tokens_exactly() {
        let world = WorldSpec::generate(5);
        let svc = SimLlm::new(
            &world,
            SimLlmConfig { seed: 5, cache_enabled: true, ..Default::default() },
        );
        let requests: Vec<CompletionRequest> = (0..4)
            .map(|i| CompletionRequest::new(format!("Summarize. Text: document number {i}")))
            .collect();
        let latency_before = svc.simulated_latency_ms();
        let outcome = svc.complete_batch(&requests);
        assert_eq!(outcome.responses.len(), 4);
        assert_eq!(outcome.splits.len(), 4);
        // One batched backend call, one round trip of latency.
        assert_eq!(outcome.batch_usage.calls, 1);
        assert_eq!(
            svc.simulated_latency_ms() - latency_before,
            SimLlmConfig::default().latency_ms_per_call
        );
        // Conservation: the splits sum to the batch, the batch to the ledger.
        let mut summed = Usage::default();
        for split in &outcome.splits {
            summed.merge(split);
        }
        assert_eq!(summed, outcome.batch_usage);
        assert_eq!(svc.usage(), outcome.batch_usage);
        // Every member was billed its own tokens.
        assert!(outcome.splits.iter().all(|s| s.tokens_in > 0 && s.tokens_out > 0));
        // Responses match the single-call path byte for byte.
        for (request, response) in requests.iter().zip(&outcome.responses) {
            assert_eq!(Ok(svc.respond(&request.prompt).as_str()), response.as_deref());
        }
    }

    #[test]
    fn batch_coalesces_identical_prompts_and_hits_the_cache() {
        let world = WorldSpec::generate(5);
        let svc = SimLlm::new(
            &world,
            SimLlmConfig { seed: 5, cache_enabled: true, ..Default::default() },
        );
        // Warm the cache with one prompt, then batch: [warm, fresh, fresh-dup].
        svc.complete(&CompletionRequest::new("Summarize. Text: already warm"));
        let requests = vec![
            CompletionRequest::new("Summarize. Text: already warm"),
            CompletionRequest::new("Summarize. Text: brand new"),
            CompletionRequest::new("Summarize. Text: brand new"),
        ];
        let before = svc.usage();
        let outcome = svc.complete_batch(&requests);
        // Member 0 hit the warm cache; member 2 coalesced onto member 1's
        // in-batch compute. Only member 1 billed.
        assert_eq!(outcome.batch_usage.calls, 1);
        assert_eq!(outcome.batch_usage.cached_calls, 2);
        assert_eq!(outcome.saved_members(), 2);
        assert_eq!(outcome.splits[0].calls, 0);
        assert_eq!(outcome.splits[1].calls, 1);
        assert_eq!(outcome.splits[2].cached_calls, 1);
        assert_eq!(outcome.responses[1], outcome.responses[2]);
        assert_eq!(svc.usage().since(&before), outcome.batch_usage);
    }

    #[test]
    fn batch_without_cache_bills_every_member_in_one_call() {
        let svc = service(); // cache disabled
        let requests = vec![
            CompletionRequest::new("Summarize. Text: one"),
            CompletionRequest::new("Summarize. Text: two"),
        ];
        let outcome = svc.complete_batch(&requests);
        assert_eq!(outcome.batch_usage.calls, 1, "amortized into one backend call");
        assert_eq!(outcome.batch_usage.cached_calls, 0);
        assert!(outcome.splits.iter().all(|s| s.tokens_in > 0));
        assert_eq!(svc.usage(), outcome.batch_usage);
    }

    #[test]
    fn empty_batch_is_free() {
        let svc = service();
        let outcome = svc.complete_batch(&[]);
        assert!(outcome.responses.is_empty());
        assert_eq!(outcome.batch_usage, Usage::default());
        assert_eq!(svc.usage(), Usage::default());
        assert_eq!(svc.simulated_latency_ms(), 0);
    }

    #[test]
    fn provided_complete_is_a_batch_of_one() {
        // A wrapper that implements only `complete_batch`: the provided
        // `complete` reaches it as a batch of one, bills like the direct
        // call, and renders a non-answer as its notice.
        struct Fwd(SimLlm);
        impl LlmService for Fwd {
            fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
                self.0.complete_batch(requests)
            }
            fn embed(&self, text: &str) -> Vec<f64> {
                self.0.embed(text)
            }
            fn usage(&self) -> Usage {
                self.0.usage()
            }
            fn simulated_latency_ms(&self) -> u64 {
                self.0.simulated_latency_ms()
            }
            fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
                self.0.generate_code(spec)
            }
            fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
                self.0.suggest_fix(source, failures)
            }
            fn repair_code(
                &self,
                spec: &CodeGenSpec,
                previous: &GeneratedCode,
                suggestion: &str,
            ) -> GeneratedCode {
                self.0.repair_code(spec, previous, suggestion)
            }
        }
        let world = WorldSpec::generate(5);
        let svc = Fwd(SimLlm::with_seed(&world, 5));
        let reference = SimLlm::with_seed(&world, 5);
        let request = CompletionRequest::new("Summarize. Text: alpha");
        assert_eq!(svc.complete(&request), reference.respond(&request.prompt));
        assert_eq!(svc.usage().calls, 1, "one call, billed once");
        let token = CancelToken::unbounded();
        token.cancel();
        let refused = svc.complete(&request.with_cancel(token));
        assert_eq!(refused, NoAnswer::Cancelled(CancelReason::Cancelled).to_string());
        assert_eq!(svc.usage().calls, 1, "the refused call billed nothing");
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimLlm>();
    }
}
