//! The LLM service facade.
//!
//! [`SimLlm`] is the single entry point the rest of the system talks to. It
//! routes prompts through [`crate::prompt`] to the behaviours (code
//! generation among them), meters every call in tokens and dollars, and
//! optionally caches responses.

use crate::behaviors;
use crate::calibration::Calibration;
use crate::cancel::{CancelReason, CancelToken, NoAnswer};
use crate::codegen::{self, CodeGenSpec, CodeRequest, GeneratedCode};
use crate::cost::{count_tokens, AtomicUsage, TokenPricing, Usage, SIM_PRICING};
use crate::hotpath::{fingerprint, CacheStats, Flight, ShardedLru, Singleflight, DEFAULT_SHARDS};
use crate::knowledge::KnowledgeBase;
use crate::list::ListRequest;
use crate::prompt::{self, TaskIntent};
use lingua_dataset::world::WorldSpec;
use lingua_ml::features::HashingVectorizer;
use lingua_ml::rng::Rng;
use lingua_ml::sync::Mutex;
use std::fmt;
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
/// runs the call (a batch flush places every member's on one, and an owed
/// member is computed on its own) — and the attempts the gateway already
/// spent on it, so a member the batcher re-sends keeps its retry budget
/// across flushes.
///
/// A request the batcher placed also carries a settle slot, shared by its
/// clones like the token: a provider may answer such a member
/// [`NoAnswer::Owed`] and leave the call that computes it there, for the
/// member's own thread to run ([`CompletionRequest::settle`]). A request
/// without a slot is always computed where it is placed.
#[derive(Debug, Clone)]
pub struct CompletionRequest {
    pub prompt: String,
    fingerprint: OnceLock<u64>,
    cancel: Option<CancelToken>,
    attempts: u32,
    settle: Option<SettleSlot>,
}

/// One member's result and the usage attributed to it.
type Member = (Result<Arc<str>, NoAnswer>, Usage);

/// The call that computes an owed member, handed the member's request.
type Settlement = Box<dyn FnOnce(&CompletionRequest) -> Member + Send>;

/// Where an owed member's [`Settlement`] waits until its thread runs it.
#[derive(Clone, Default)]
struct SettleSlot(Arc<Mutex<Option<Settlement>>>);

impl fmt::Debug for SettleSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SettleSlot").field(&self.0.lock().is_some()).finish()
    }
}

impl CompletionRequest {
    /// A request no job governs: never cancelled, no attempt spent.
    pub fn new(prompt: impl Into<String>) -> Self {
        CompletionRequest {
            prompt: prompt.into(),
            fingerprint: OnceLock::new(),
            cancel: None,
            attempts: 0,
            settle: None,
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

    /// The same request with a fresh, empty settle slot, so a provider may
    /// answer it [`NoAnswer::Owed`]. The batcher attaches one each time a
    /// member enters a batch.
    pub fn with_settle_slot(mut self) -> Self {
        self.settle = Some(SettleSlot::default());
        self
    }

    /// Answer this member with `call` now, or owe it: with a settle slot,
    /// `call` waits there and the member is [`NoAnswer::Owed`] with an empty
    /// split; without one, `call` runs here.
    pub fn owe(&self, call: impl FnOnce(&CompletionRequest) -> Member + Send + 'static) -> Member {
        match &self.settle {
            Some(slot) => {
                *slot.0.lock() = Some(Box::new(call));
                (Err(NoAnswer::Owed), Usage::default())
            }
            None => call(self),
        }
    }

    /// Run `then` on the owed member's answer once it is settled, on the
    /// thread that settles it. Nothing happens if nothing is owed.
    pub fn on_settled(&self, then: impl FnOnce(&Member) + Send + 'static) {
        let Some(slot) = &self.settle else { return };
        let mut owed = slot.0.lock();
        if let Some(call) = owed.take() {
            *owed = Some(Box::new(move |request: &CompletionRequest| {
                let member = call(request);
                then(&member);
                member
            }));
        }
    }

    /// Compute the owed member on the calling thread: run the call its slot
    /// holds. A request that owes nothing has no answer to give: `Aborted`.
    pub fn settle(&self) -> Member {
        let owed = self.settle.as_ref().and_then(|slot| slot.0.lock().take());
        match owed {
            Some(call) => call(self),
            None => (Err(NoAnswer::Aborted), Usage::default()),
        }
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
/// so it bills nothing — an owed member's too, until it is settled. An
/// answer's split is decided once, by the layer that billed it: one model
/// call (`calls == 1`), or a saving (`cached_calls == 1`) for a member the
/// cache or the singleflight answered. Layers above merge the splits and
/// re-count nothing. Conservation law: `sum(splits) == batch_usage`, field
/// for field — so a suite that prices both sides gets equality to the cent,
/// not within an epsilon. How many round trips carried the members is the
/// batcher's flush count, not the ledger's.
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
    /// The first member's result and split — what a batch of one was placed
    /// for. A reply without members produced no answer: `Aborted`.
    pub fn into_single(self) -> (Result<Arc<str>, NoAnswer>, Usage) {
        let response = self.responses.into_iter().next().unwrap_or(Err(NoAnswer::Aborted));
        (response, self.splits.into_iter().next().unwrap_or(self.batch_usage))
    }

    /// Members answered without billing: cache hits, and members coalesced
    /// onto an identical prompt in flight (the singleflight).
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
        for (response, split) in members {
            self.batch_usage.merge(&split);
            self.splits.push(split);
            self.responses.push(response);
        }
    }
}

/// A call to an endpoint that answers no [`BatchOutcome`]: an embedding.
/// [`EndpointCall::usage`] is the one place such a call's bill is built, so
/// `SimLlm`'s ledger and every layer that attributes the call (a per-job
/// meter, a trace span) agree to the token.
#[derive(Debug, Clone, Copy)]
pub enum EndpointCall<'a> {
    Embed(&'a str),
}

impl EndpointCall<'_> {
    /// The usage of this call, answered `response` (empty for an embedding):
    /// one call, its request text's tokens in and the response's out.
    pub fn usage(&self, response: &str) -> Usage {
        let EndpointCall::Embed(request) = *self;
        let mut usage = Usage::default();
        usage.record(count_tokens(request), count_tokens(response));
        usage
    }
}

/// The service interface `lingua-core` programs against. Implementations must
/// be shareable across threads (the executor may parallelize record batches).
///
/// Four methods are required. Code generation is not one of them: LLMGC
/// places a [`CodeRequest`] through `complete_batch`, like any completion.
/// `generate_code`, `suggest_fix` and `repair_code` are provided over it,
/// and kept only because the benchmark crate (`lingua-e2e`) overrides them;
/// nothing calls them.
pub trait LlmService: Send + Sync {
    /// Answer a batch of requests — the one completion method a layer
    /// implements; a single call is a batch of one.
    ///
    /// Each member is an answer or a typed [`NoAnswer`] (its job was dead,
    /// the gateway withheld it, its flush aborted), never a notice text, so
    /// no cache, meter or validator above can mistake one for the other.
    /// Implementations must uphold `sum(splits) == batch_usage`, attribute
    /// each member the usage of the layer that billed it — a layer that
    /// bills nothing itself passes the splits it was handed on, and one that
    /// attributes usage merges them — and add exactly `batch_usage` to
    /// [`LlmService::usage`] (exact once callers quiesce).
    /// A member answered [`NoAnswer::Owed`] is billed nothing by the reply:
    /// its settlement ([`CompletionRequest::settle`]) adds exactly the split
    /// it returns, so reply usage plus settled splits is the ledger's growth.
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
    /// Default is a no-op, for a service with no ledger; a wrapper passes
    /// the bill to the service it wraps, and a gateway keeps it as usage of
    /// its own.
    fn restore_usage(&self, _usage: &Usage) {}
    /// Simulated wall-clock latency accumulated so far, in milliseconds.
    fn simulated_latency_ms(&self) -> u64;
    // The provided code-generation methods: each a batch of one, where a
    // member without an answer gives an empty program or suggestion.
    /// A first draft of a program for `spec`.
    fn generate_code(&self, spec: &CodeGenSpec) -> GeneratedCode {
        GeneratedCode { source: code_answer(self, CodeRequest::draft(spec, 1)) }
    }
    /// A fix suggestion for `source`, given its failures.
    fn suggest_fix(&self, source: &str, failures: &[String]) -> String {
        let spec = CodeGenSpec::default();
        code_answer(self, CodeRequest::fix(&spec, 1, source, failures))
    }
    /// A first repair of `previous`, along `suggestion`.
    fn repair_code(
        &self,
        spec: &CodeGenSpec,
        previous: &GeneratedCode,
        suggestion: &str,
    ) -> GeneratedCode {
        let request = CodeRequest::repair(spec, 2, &previous.source, suggestion);
        GeneratedCode { source: code_answer(self, request) }
    }
}

/// What `service` answers a provided code-generation method's request.
fn code_answer<S: LlmService + ?Sized>(service: &S, request: CodeRequest<'_>) -> String {
    let request = CompletionRequest::new(request.render());
    let (answer, _) = service.complete_batch(std::slice::from_ref(&request)).into_single();
    answer.map_or_else(|_| String::new(), |text| text.to_string())
}

/// Simulated per-call latency, accumulated in a counter (never slept).
const LATENCY_MS_PER_CALL: u64 = 350;

/// The answer to a prompt that asks for no task the model knows.
const UNKNOWN_TASK: &str = "I'm not sure what task you are asking for. Please describe the data \
                            curation task (entity resolution, imputation, extraction, ...).";

/// Configuration for [`SimLlm`].
#[derive(Debug, Clone)]
pub struct SimLlmConfig {
    pub seed: u64,
    pub calibration: Calibration,
    /// Response cache (identical prompt → cached answer, no tokens billed).
    pub cache_enabled: bool,
    /// Maximum cached responses across all shards; each shard evicts its
    /// least-recently-used entry beyond its slice of this. Long-running
    /// serving workloads would otherwise grow the cache without bound.
    pub cache_capacity: usize,
    /// Lock stripes in the response cache; `0` picks a default sized for the
    /// machine. Tests pin `1` to get a deterministic global LRU.
    pub cache_shards: usize,
}

impl Default for SimLlmConfig {
    fn default() -> Self {
        SimLlmConfig {
            seed: 0,
            calibration: Calibration::default(),
            cache_enabled: false,
            cache_capacity: 4096,
            cache_shards: 0,
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
/// concurrent identical prompts coalesce through a `Singleflight` (one
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
            config,
        }
    }

    /// Convenience constructor with defaults.
    pub fn with_seed(world: &WorldSpec, seed: u64) -> SimLlm {
        SimLlm::new(world, SimLlmConfig { seed, ..Default::default() })
    }

    #[cfg(test)]
    pub(crate) fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    pub fn pricing(&self) -> &TokenPricing {
        &SIM_PRICING
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
            TaskIntent::Code => {
                codegen::respond(prompt_text, &self.config.calibration, self.config.seed)
            }
            // Each member is answered as its own prompt is, seeded by it.
            TaskIntent::List => match ListRequest::parse(prompt_text) {
                Some(request) => request.respond(|member| self.respond(member)),
                None => UNKNOWN_TASK.to_string(),
            },
            TaskIntent::Unknown => UNKNOWN_TASK.to_string(),
        }
    }

    /// Book `usage` on the ledger, with one round trip's latency if it
    /// placed a backend call.
    fn bill(&self, usage: &Usage) {
        self.usage.merge(usage);
        if usage.calls > 0 {
            self.latency_ms.fetch_add(LATENCY_MS_PER_CALL, Ordering::Relaxed);
        }
    }

    /// One member, of a batch of any size: refused unbilled if its job is
    /// dead, else answered from the cache, coalesced onto an identical call
    /// in flight (the singleflight), or computed and billed.
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
        self.latency_ms.fetch_add(LATENCY_MS_PER_CALL, Ordering::Relaxed);
    }
}

impl LlmService for SimLlm {
    /// Every member is answered as a batch of one is: one model call with
    /// its own split, from the cache, the singleflight or the model.
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        requests.iter().map(|request| self.complete_one(request)).collect()
    }

    fn embed(&self, text: &str) -> Vec<f64> {
        self.usage.merge(&EndpointCall::Embed(text).usage(""));
        self.latency_ms.fetch_add(LATENCY_MS_PER_CALL / 4, Ordering::Relaxed);
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
    fn a_numbered_request_answers_each_member_as_its_own_prompt_is_answered() {
        let svc = service();
        let alone = service();
        let prompts: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    "Determine if these refer to the same entity.\n\
                     Record A: beer_name: Hoppy Badger {i}; brewery: Stonegate Brewing\n\
                     Record B: beer_name: hoppy badger {}; brewery: Stonegate\n\
                     Respond with exactly `yes` or `no`, nothing else.",
                    i % 3
                )
            })
            .collect();
        let request = ListRequest::new(&prompts);
        let response = svc.complete(&CompletionRequest::new(request.render()));
        let answers = request.answers(&response);
        for (prompt, answer) in prompts.iter().zip(&answers) {
            assert_eq!(*answer, Some(alone.complete(&CompletionRequest::new(prompt)).as_str()));
        }
        assert_eq!(svc.usage().calls, 1, "one request, one model call");
        assert!(svc.usage().tokens_in < alone.usage().tokens_in);
        // Foreign text behind the header gets no numbered answer at all.
        let broken = format!("{}\n#7 (0 lines)", request.render());
        let response = svc.complete(&CompletionRequest::new(broken));
        assert!(request.answers(&response).iter().all(Option::is_none), "{response}");
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

    fn spec(task: &str) -> CodeGenSpec {
        CodeGenSpec { task: task.into(), function_name: "process".into(), hints: vec![] }
    }

    #[test]
    fn code_requests_are_metered_completions_and_the_ordinal_varies_the_draft() {
        let svc = service();
        let spec = spec("tokenize the text");
        let prompts: Vec<String> =
            (1..=11).map(|ordinal| CodeRequest::draft(&spec, ordinal).render()).collect();
        let drafts: Vec<String> =
            prompts.iter().map(|p| svc.complete(&CompletionRequest::new(p.as_str()))).collect();
        // Across 11 drafts at a 45% bug rate the programs differ.
        let distinct: std::collections::BTreeSet<&String> = drafts.iter().collect();
        assert!(distinct.len() > 1, "every draft was the same program");
        assert!(drafts.iter().all(|d| d.starts_with("fn process(text)")));
        // Each is one model call, billed its whole prompt and its program.
        let usage = svc.usage();
        assert_eq!(usage.calls, 11);
        let tokens_in: usize = prompts.iter().map(|p| count_tokens(p)).sum();
        assert_eq!(usage.tokens_in, tokens_in as u64);
        // One request, one answer, however often it is asked.
        assert_eq!(svc.complete(&CompletionRequest::new(prompts[3].as_str())), drafts[3]);
    }

    #[test]
    fn repair_loop_terminates() {
        let svc = service();
        let spec = spec("extract noun phrases from the tokens");
        let ask =
            |request: CodeRequest<'_>| svc.complete(&CompletionRequest::new(request.render()));
        let mut ordinal = 1;
        let mut source = ask(CodeRequest::draft(&spec, ordinal));
        // The extractor's every bug draws a targeted suggestion, and clean
        // code the generic one.
        let failures = ["failing case".to_string()];
        let mut rounds = 0;
        loop {
            let suggestion = ask(CodeRequest::fix(&spec, ordinal, &source, &failures));
            if suggestion.starts_with("Re-examine") || rounds == 12 {
                break;
            }
            ordinal += 1;
            source = ask(CodeRequest::repair(&spec, ordinal, &source, &suggestion));
            rounds += 1;
        }
        assert!(rounds < 12, "did not converge");
    }

    #[test]
    fn the_provided_code_generation_methods_place_code_requests() {
        let svc = service();
        let spec = spec("tokenize the text");
        let ask =
            |request: CodeRequest<'_>| svc.complete(&CompletionRequest::new(request.render()));
        let draft = svc.generate_code(&spec);
        assert_eq!(draft.source, ask(CodeRequest::draft(&spec, 1)));
        let failures = ["case 1 failed".to_string()];
        let fix = svc.suggest_fix(&draft.source, &failures);
        let unnamed = CodeGenSpec::default();
        assert_eq!(fix, ask(CodeRequest::fix(&unnamed, 1, &draft.source, &failures)));
        let repaired = svc.repair_code(&spec, &draft, &fix);
        assert_eq!(repaired.source, ask(CodeRequest::repair(&spec, 2, &draft.source, &fix)));
    }

    #[test]
    fn code_requests_from_eight_threads_get_the_sequential_programs() {
        // Drafts and repairs of three specs, each asked once in order...
        let specs = [
            spec("tokenize the text into words"),
            spec("extract noun phrases: group consecutive capitalized tokens"),
            CodeGenSpec {
                task: "impute the missing manufacturer from the product name".into(),
                function_name: "impute".into(),
                hints: vec!["tool:vocabulary".into()],
            },
        ];
        let sequential = service();
        let mut prompts = Vec::new();
        for spec in &specs {
            for ordinal in 1..=4 {
                let draft = CodeRequest::draft(spec, ordinal).render();
                let source = sequential.complete(&CompletionRequest::new(draft.as_str()));
                prompts.push(draft);
                let repair = CodeRequest::repair(spec, ordinal + 1, &source, "fix the bug");
                prompts.push(repair.render());
            }
        }
        let expected: Vec<String> = prompts
            .iter()
            .map(|p| sequential.complete(&CompletionRequest::new(p.as_str())))
            .collect();
        // ...then by 8 threads at once, each in its own shuffled order, on a
        // fresh simulator: every thread gets the sequential programs.
        let shared = service();
        std::thread::scope(|scope| {
            for thread in 0..8u64 {
                let (shared, prompts, expected) = (&shared, &prompts, &expected);
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..prompts.len()).collect();
                    Rng::seed_from_u64(thread).shuffle(&mut order);
                    for i in order {
                        let answer = shared.complete(&CompletionRequest::new(prompts[i].as_str()));
                        assert_eq!(answer, expected[i], "thread {thread}, request {i}");
                    }
                });
            }
        });
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
    fn batch_bills_each_member_as_one_call_and_splits_exactly() {
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
        // Each member is one model call, as it would be alone.
        assert_eq!(outcome.batch_usage.calls, 4);
        assert!(outcome.splits.iter().all(|split| split.calls == 1));
        assert_eq!(svc.simulated_latency_ms() - latency_before, 4 * LATENCY_MS_PER_CALL);
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
        // Member 0 hit the warm cache; member 2 hit the entry member 1's
        // compute left there. Only member 1 billed.
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
    fn batch_without_cache_bills_every_member_its_own_call() {
        let svc = service(); // cache disabled
        let requests = vec![
            CompletionRequest::new("Summarize. Text: one"),
            CompletionRequest::new("Summarize. Text: two"),
            CompletionRequest::new("Summarize. Text: one"),
        ];
        let outcome = svc.complete_batch(&requests);
        assert_eq!(outcome.batch_usage.calls, 3, "no cache: every member is computed");
        assert_eq!(outcome.splits[0], outcome.splits[2]);
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
