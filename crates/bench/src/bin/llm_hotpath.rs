//! **Hot path H1** — contended throughput of the LLM service cache: the
//! sharded, coalescing `SimLlm` hot path against a faithful replica of the
//! pre-change single-mutex design, at 1/2/4/8 threads across three arms:
//!
//! * `hit-heavy` — a warmed pool of distinct prompts hammered from every
//!   thread; ~100% cache hits. This is the serving steady state and the
//!   regression-gated metric.
//! * `miss-heavy` — every call a distinct prompt against a small cache;
//!   measures the insert/evict path under contention.
//! * `coalesce-storm` — all threads request the *same fresh* prompt at the
//!   same instant, repeatedly; the sharded path computes each prompt once
//!   (singleflight) while the legacy path computes it once per racing thread.
//!
//! The legacy engine below replicates the old `SimLlm::complete` exactly:
//! one global `parking_lot::Mutex` over a `HashMap` + FIFO `VecDeque`, a
//! `String` clone per hit, and both `count_tokens` calls made *under* the
//! lock. Misses route through a cache-disabled `SimLlm` so both engines pay
//! identical compute for a cold prompt; only the cache layer differs.
//!
//! Writes `results/llm_hotpath.json`. With `--check-baseline <path>` the run
//! compares the gated metric — the sharded/legacy hit-heavy *speedup ratio*
//! at 8 threads, measured between the two engines in this same process so
//! host speed cancels out — against a previously committed results file and
//! exits nonzero if the ratio fell more than 2x (absolute ops/sec from a
//! different machine would make the gate flap on shared CI runners).
//! `--smoke` shrinks iteration counts for CI.

use lingua_bench::{arg_usize, check_baseline, has_flag, mean, write_json, TextTable};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::cost::count_tokens;
use lingua_llm_sim::{fingerprint, CompletionRequest, LlmService, SimLlm, SimLlmConfig, Usage};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const SEED: u64 = 9400;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The regression-gated arm: sharded hit-heavy throughput at this many threads.
const GATE_THREADS: usize = 8;

// ---------------------------------------------------------------------------
// The legacy engine: the exact pre-change hot path, kept here as the bench
// baseline so the comparison survives the refactor it measures.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct LegacyState {
    usage: Usage,
    cache: HashMap<u64, String>,
    cache_order: VecDeque<u64>,
}

/// Single-mutex FIFO cache in front of a cache-disabled `SimLlm`, mirroring
/// the old `SimLlm::complete`: fingerprint per call, `HashMap` lookup, owned
/// `String` clone and two `count_tokens` scans under the one global lock.
struct MutexLlm {
    inner: SimLlm,
    capacity: usize,
    state: Mutex<LegacyState>,
}

impl MutexLlm {
    fn new(world: &WorldSpec, capacity: usize) -> MutexLlm {
        let inner = SimLlm::new(
            world,
            SimLlmConfig { seed: SEED, cache_enabled: false, ..Default::default() },
        );
        MutexLlm { inner, capacity, state: Mutex::new(LegacyState::default()) }
    }
}

trait Engine: Send + Sync {
    fn complete_text(&self, prompt: &str) -> String;
    /// Billed (non-cached) calls, for the coalesce-storm redundancy count.
    fn billed_calls(&self) -> u64;
}

impl Engine for MutexLlm {
    fn complete_text(&self, prompt: &str) -> String {
        let key = fingerprint(prompt);
        {
            let mut state = self.state.lock();
            if let Some(hit) = state.cache.get(&key) {
                let hit = hit.clone();
                state.usage.record_cached(count_tokens(prompt), count_tokens(&hit));
                return hit;
            }
        }
        let response = self.inner.complete(&CompletionRequest::new(prompt));
        let mut state = self.state.lock();
        if state.cache.insert(key, response.clone()).is_none() {
            state.cache_order.push_back(key);
            while state.cache.len() > self.capacity {
                match state.cache_order.pop_front() {
                    Some(oldest) => state.cache.remove(&oldest),
                    None => break,
                };
            }
        }
        response
    }

    fn billed_calls(&self) -> u64 {
        self.inner.usage().calls
    }
}

impl Engine for SimLlm {
    fn complete_text(&self, prompt: &str) -> String {
        self.complete(&CompletionRequest::new(prompt))
    }

    fn billed_calls(&self) -> u64 {
        self.usage().calls
    }
}

fn sharded_llm(world: &WorldSpec, capacity: usize) -> SimLlm {
    SimLlm::new(
        world,
        SimLlmConfig {
            seed: SEED,
            cache_enabled: true,
            cache_capacity: capacity,
            ..Default::default()
        },
    )
}

// ---------------------------------------------------------------------------
// Arms
// ---------------------------------------------------------------------------

fn pool_prompt(i: usize) -> String {
    // Sized like a real curation prompt: task preamble plus a record payload.
    format!(
        "Summarize. Text: service handbook chapter {i} covering retries, \
         backoff policy, cache admission and eviction for tenant workloads. \
         The chapter walks through connection pooling, request hedging and \
         deadline propagation, then catalogues the failure modes observed in \
         production: thundering herds after cache flushes, retry storms \
         amplifying partial outages, and slow-start collapse when a cold \
         replica joins a hot pool under peak load"
    )
}

/// Warm the pool single-threaded, then hammer it from `threads` threads,
/// each walking the pool at its own stride so every call is a cache hit.
fn run_hit_heavy(engine: Arc<dyn Engine>, threads: usize, pool: usize, iters: usize) -> f64 {
    let prompts: Arc<Vec<String>> = Arc::new((0..pool).map(pool_prompt).collect());
    for p in prompts.iter() {
        engine.complete_text(p);
    }
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let prompts = Arc::clone(&prompts);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..iters {
                    let p = &prompts[(i * (2 * t + 1) + t) % prompts.len()];
                    std::hint::black_box(engine.complete_text(p));
                }
            })
        })
        .collect();
    // Clock starts before the release so a delayed reschedule of this thread
    // cannot shave worker time off the measurement (workers are all parked
    // at the barrier until the wait below arrives).
    let start = Instant::now();
    barrier.wait();
    for handle in handles {
        handle.join().unwrap();
    }
    (threads * iters) as f64 / start.elapsed().as_secs_f64()
}

/// Every call a brand-new prompt: all misses, with FIFO/LRU eviction churn
/// once the per-run prompt counter outruns the small capacity.
fn run_miss_heavy(engine: Arc<dyn Engine>, threads: usize, iters: usize) -> f64 {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..iters {
                    let p =
                        format!("Summarize. Text: cold document {t}-{i} never requested before");
                    std::hint::black_box(engine.complete_text(&p));
                }
            })
        })
        .collect();
    let start = Instant::now();
    barrier.wait();
    for handle in handles {
        handle.join().unwrap();
    }
    (threads * iters) as f64 / start.elapsed().as_secs_f64()
}

/// All threads ask for the same fresh prompt at the same instant, one storm
/// per round. Returns (ops/sec, billed calls): singleflight computes each
/// round once; the legacy path computes it up to once per thread.
fn run_coalesce_storm(engine: Arc<dyn Engine>, threads: usize, rounds: usize) -> (f64, u64) {
    let billed_before = engine.billed_calls();
    let start = Instant::now();
    for round in 0..rounds {
        let barrier = Arc::new(Barrier::new(threads));
        let prompt = Arc::new(format!("Summarize. Text: breaking storm bulletin number {round}"));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                let prompt = Arc::clone(&prompt);
                std::thread::spawn(move || {
                    barrier.wait();
                    std::hint::black_box(engine.complete_text(&prompt));
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }
    let secs = start.elapsed().as_secs_f64();
    ((threads * rounds) as f64 / secs, engine.billed_calls() - billed_before)
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn main() {
    let smoke = has_flag("--smoke");
    let reps = arg_usize("--reps", if smoke { 1 } else { 3 });
    let pool = arg_usize("--pool", 64);
    let capacity = arg_usize("--capacity", 1024);
    let miss_capacity = arg_usize("--miss-capacity", 128);
    let hit_iters = arg_usize("--hit-iters", if smoke { 2_000 } else { 20_000 });
    let miss_iters = arg_usize("--miss-iters", if smoke { 300 } else { 2_000 });
    let storm_rounds = arg_usize("--storm-rounds", if smoke { 20 } else { 120 });
    println!(
        "Hot path H1: sharded+coalescing vs single-mutex FIFO cache \
         ({} reps{})\n",
        reps,
        if smoke { ", smoke" } else { "" }
    );

    let world = WorldSpec::generate(SEED);
    let mut table = TextTable::new(["Arm", "Threads", "Legacy ops/s", "Sharded ops/s", "Speedup"]);
    let mut rows = Vec::new();
    let mut gate_ops = 0.0f64;
    let mut gate_speedup = 0.0f64;

    for &threads in &THREAD_COUNTS {
        let mut legacy_rates = Vec::with_capacity(reps);
        let mut sharded_rates = Vec::with_capacity(reps);
        for _ in 0..reps {
            let legacy = Arc::new(MutexLlm::new(&world, capacity));
            legacy_rates.push(run_hit_heavy(legacy, threads, pool, hit_iters));
            let sharded = Arc::new(sharded_llm(&world, capacity));
            sharded_rates.push(run_hit_heavy(sharded, threads, pool, hit_iters));
        }
        let (legacy_ops, sharded_ops) = (mean(&legacy_rates), mean(&sharded_rates));
        if threads == GATE_THREADS {
            gate_ops = sharded_ops;
            gate_speedup = sharded_ops / legacy_ops;
        }
        table.row([
            "hit-heavy".into(),
            threads.to_string(),
            format!("{legacy_ops:.0}"),
            format!("{sharded_ops:.0}"),
            format!("{:.2}x", sharded_ops / legacy_ops),
        ]);
        rows.push(serde_json::json!({
            "arm": "hit_heavy", "threads": threads,
            "legacy_ops_per_sec": legacy_ops, "sharded_ops_per_sec": sharded_ops,
            "speedup": sharded_ops / legacy_ops,
        }));
    }

    for &threads in &THREAD_COUNTS {
        let mut legacy_rates = Vec::with_capacity(reps);
        let mut sharded_rates = Vec::with_capacity(reps);
        for _ in 0..reps {
            let legacy = Arc::new(MutexLlm::new(&world, miss_capacity));
            legacy_rates.push(run_miss_heavy(legacy, threads, miss_iters));
            let sharded = Arc::new(sharded_llm(&world, miss_capacity));
            sharded_rates.push(run_miss_heavy(sharded, threads, miss_iters));
        }
        let (legacy_ops, sharded_ops) = (mean(&legacy_rates), mean(&sharded_rates));
        table.row([
            "miss-heavy".into(),
            threads.to_string(),
            format!("{legacy_ops:.0}"),
            format!("{sharded_ops:.0}"),
            format!("{:.2}x", sharded_ops / legacy_ops),
        ]);
        rows.push(serde_json::json!({
            "arm": "miss_heavy", "threads": threads,
            "legacy_ops_per_sec": legacy_ops, "sharded_ops_per_sec": sharded_ops,
            "speedup": sharded_ops / legacy_ops,
        }));
    }

    for &threads in &THREAD_COUNTS {
        let legacy = Arc::new(MutexLlm::new(&world, capacity));
        let (legacy_ops, legacy_billed) =
            run_coalesce_storm(Arc::clone(&legacy) as Arc<dyn Engine>, threads, storm_rounds);
        let sharded = Arc::new(sharded_llm(&world, capacity));
        let (sharded_ops, sharded_billed) =
            run_coalesce_storm(Arc::clone(&sharded) as Arc<dyn Engine>, threads, storm_rounds);
        table.row([
            "coalesce-storm".into(),
            threads.to_string(),
            format!("{legacy_ops:.0} ({legacy_billed} billed)"),
            format!("{sharded_ops:.0} ({sharded_billed} billed)"),
            format!("{:.2}x", sharded_ops / legacy_ops),
        ]);
        rows.push(serde_json::json!({
            "arm": "coalesce_storm", "threads": threads,
            "legacy_ops_per_sec": legacy_ops, "sharded_ops_per_sec": sharded_ops,
            "legacy_billed_calls": legacy_billed, "sharded_billed_calls": sharded_billed,
            "rounds": storm_rounds,
        }));
    }

    table.print();
    println!(
        "\nShape: hits on the sharded path return a clone-free Arc<str> with \
         precomputed token counts, so the legacy path's per-hit String clone \
         and double count_tokens scan under one global mutex is the gap; the \
         storm arm additionally shows singleflight billing each prompt once \
         where the legacy cache computes it per racing thread."
    );

    write_json(
        "llm_hotpath",
        &serde_json::json!({
            "smoke": smoke, "reps": reps, "pool": pool, "capacity": capacity,
            "hit_iters": hit_iters, "miss_iters": miss_iters, "storm_rounds": storm_rounds,
            "gate_metric": "hit_heavy sharded/legacy speedup at 8 threads (same-run, machine-relative)",
            "gate_ops_per_sec": gate_ops,
            "gate_speedup": gate_speedup,
            "rows": rows,
        }),
    );

    // Gate on the same-run sharded/legacy ratio, not absolute ops/sec: both
    // engines ran on this host in this process, so the ratio is
    // machine-relative and survives the severalfold throughput spread across
    // shared CI runners.
    check_baseline(
        "gate_speedup",
        |baseline| {
            format!(
                "sharded/legacy hit-heavy speedup @{GATE_THREADS}t = {gate_speedup:.2}x vs \
                 baseline {baseline:.2}x"
            )
        },
        |baseline| gate_speedup < baseline / 2.0,
        "contended hit-path speedup over the single-mutex baseline engine fell more than \
         2x below the committed ratio",
    );
}
