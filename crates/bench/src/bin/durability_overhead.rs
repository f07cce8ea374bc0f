//! **Durability D1** — what write-ahead journaling costs the serve hot path,
//! and what recovery replay costs at restart.
//!
//! Three arms run the same LLM-pipeline workload on the same host in the
//! same process: journal off, journal to in-memory sim storage (isolates the
//! framing/encode cost), and journal to a real file (adds the filesystem).
//! The regression gate is the same-run file-journal/no-journal wall-time
//! ratio — machine-relative, like the serve and hotpath gates, so it
//! survives CI-runner throughput spread. A fourth measurement replays the
//! file journal and times recovery itself.
//!
//! The gated arms serve 256 jobs — 768 appends, a log barely past its first
//! checkpoint — so they cannot see what a long run pays for compaction. The
//! long arm does: 8,192 jobs, file journal against journal off, with the
//! checkpoints taken and the bytes they rewrote counted at the storage
//! boundary. It is reported, not gated.

use lingua_bench::{
    arg_usize, check_baseline, fmt_mean_std, has_flag, mean, write_json, TextTable,
};
use lingua_core::{Compiler, ContextFactory, Data};
use lingua_dataset::world::WorldSpec;
use lingua_durable::{
    CrashInjector, FileStorage, Journal, JournalTuning, KillPoint, SimStorage, Storage,
};
use lingua_llm_sim::{SimLlm, SimLlmConfig};
use lingua_serve::{PipelineServer, ServeConfig, SubmitRequest};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 9400;

const CURATE: &str = r#"pipeline curate {
    out = summarize(text) using llm with { desc: "summarize the following document" };
}"#;

fn request(i: usize) -> SubmitRequest {
    SubmitRequest::new("curate")
        .input("text", Data::Str(format!("field report #{i}, batch {}", i * 31 % 7)))
}

/// Stand up a fresh server (fresh SimLlm, fresh journal), serve every job,
/// and time submit-all → wait-all.
fn serve_once(jobs: usize, workers: usize, journal: Option<JournalTuning>) -> f64 {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed: SEED, ..Default::default() }));
    let mut server = PipelineServer::start(
        ContextFactory::new(llm),
        ServeConfig {
            workers: Some(workers),
            queue_capacity: jobs + 8,
            journal,
            ..Default::default()
        },
    )
    .expect("valid bench config");
    server.register_dsl("curate", CURATE, &Compiler::with_builtins()).expect("register");
    let start = Instant::now();
    let handles: Vec<_> =
        (0..jobs).map(|i| server.submit(request(i)).expect("queue sized for the run")).collect();
    for handle in handles {
        handle.wait().expect("job completes");
    }
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    secs
}

/// A file journal that counts what compaction costs it.
struct CountingFile {
    file: FileStorage,
    appended_bytes: AtomicU64,
    replaced_bytes: AtomicU64,
    checkpoints: AtomicU64,
}

impl Storage for CountingFile {
    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.appended_bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.file.append(bytes)
    }

    fn read(&self) -> std::io::Result<Vec<u8>> {
        self.file.read()
    }

    fn replace(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.replaced_bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.checkpoints.fetch_add(1, Relaxed);
        self.file.replace(bytes)
    }

    fn flush(&self) -> std::io::Result<()> {
        self.file.flush()
    }
}

fn temp_journal_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lingua-durability-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.journal"))
}

fn main() {
    let smoke = has_flag("--smoke");
    let jobs = arg_usize("--jobs", if smoke { 64 } else { 256 });
    let reps = arg_usize("--reps", if smoke { 1 } else { 3 });
    let workers = arg_usize("--workers", 4);
    println!(
        "Durability D1: {jobs} jobs, {workers} workers, {reps} reps{}\n",
        if smoke { ", smoke" } else { "" }
    );

    let mut off = Vec::with_capacity(reps);
    let mut sim = Vec::with_capacity(reps);
    let mut file = Vec::with_capacity(reps);
    for rep in 0..reps {
        off.push(serve_once(jobs, workers, None));
        sim.push(serve_once(jobs, workers, Some(JournalTuning::sim(SimStorage::new()))));
        let path = temp_journal_path(&format!("arm-{rep}"));
        std::fs::remove_file(&path).ok();
        file.push(serve_once(
            jobs,
            workers,
            Some(JournalTuning::file(&path).expect("temp journal opens")),
        ));
    }

    // Recovery replay: journal the whole workload without a clean shutdown
    // (so nothing compacts), then time `Journal::open` folding it back.
    let replay_path = temp_journal_path("replay");
    std::fs::remove_file(&replay_path).ok();
    {
        let world = WorldSpec::generate(SEED);
        let llm = Arc::new(SimLlm::new(&world, SimLlmConfig { seed: SEED, ..Default::default() }));
        let server = PipelineServer::start(
            ContextFactory::new(llm),
            ServeConfig {
                workers: Some(workers),
                queue_capacity: jobs + 8,
                journal: Some(
                    JournalTuning::file(&replay_path)
                        .expect("temp journal opens")
                        // No compaction while serving, and the shutdown
                        // checkpoint tears mid-write: the log recovery sees
                        // is a real crash's — every record, damaged tail.
                        .with_checkpoint_interval(usize::MAX)
                        .with_injector(CrashInjector::armed_at(KillPoint::MidCheckpoint, 1)),
                ),
                ..Default::default()
            },
        )
        .expect("valid bench config");
        server.register_dsl("curate", CURATE, &Compiler::with_builtins()).expect("register");
        let handles: Vec<_> = (0..jobs).map(|i| server.submit(request(i)).unwrap()).collect();
        for handle in handles {
            handle.wait().expect("job completes");
        }
        drop(server); // the shutdown checkpoint dies: the log stays long
    }
    let replay_start = Instant::now();
    let (_journal, recovered) =
        Journal::open(JournalTuning::file(&replay_path).expect("reopen")).expect("recover");
    let replay_secs = replay_start.elapsed().as_secs_f64();

    // The long arm: enough jobs that compaction cadence, not framing, is
    // what the file journal pays for.
    let long_jobs = if smoke { 1024 } else { 8192 };
    let long_off = serve_once(long_jobs, workers, None);
    let long_path = temp_journal_path("long");
    std::fs::remove_file(&long_path).ok();
    let counted = Arc::new(CountingFile {
        file: FileStorage::open(&long_path).expect("temp journal opens"),
        appended_bytes: AtomicU64::new(0),
        replaced_bytes: AtomicU64::new(0),
        checkpoints: AtomicU64::new(0),
    });
    let long_file = serve_once(long_jobs, workers, Some(JournalTuning::over(counted.clone())));
    let (long_appended, long_replaced, long_checkpoints) = (
        counted.appended_bytes.load(Relaxed),
        counted.replaced_bytes.load(Relaxed),
        counted.checkpoints.load(Relaxed),
    );

    let mut table = TextTable::new(["Arm", "Wall (s)", "Jobs/sec", "Overhead vs off"]);
    let base = mean(&off);
    for (label, secs) in [("journal off", &off), ("journal sim", &sim), ("journal file", &file)] {
        table.row([
            label.to_string(),
            fmt_mean_std(secs, 1.0),
            format!("{:.1}", jobs as f64 / mean(secs)),
            format!("{:.2}x", mean(secs) / base),
        ]);
    }
    table.print();
    let gate_overhead_ratio = mean(&file) / base;
    println!(
        "\nRecovery replay: {} records folded in {:.1}ms ({} finished jobs restored)",
        recovered.replayed,
        replay_secs * 1e3,
        recovered.finished.len(),
    );
    println!(
        "\nLong run: {long_jobs} jobs, file {long_file:.3}s vs off {long_off:.3}s = {:.2}x; \
         {long_checkpoints} checkpoints (shutdown's included) rewrote {long_replaced} bytes \
         for {long_appended} appended ({:.2}x)",
        long_file / long_off,
        long_replaced as f64 / long_appended as f64,
    );
    println!(
        "\nShape: the jobs here are nearly free, so this is worst-case pressure — \
         the three CRC-framed records journaled per job are the whole cost and \
         the ratio is an upper bound; any real LLM latency amortizes it toward \
         1x. Replay cost is linear in the log, which size-ratio compaction \
         keeps within about twice the live state."
    );

    write_json(
        "durability_overhead",
        &serde_json::json!({
            "smoke": smoke, "jobs": jobs, "reps": reps, "workers": workers,
            "arms": {
                "off": { "secs": base, "jobs_per_sec": jobs as f64 / base },
                "sim": { "secs": mean(&sim), "jobs_per_sec": jobs as f64 / mean(&sim),
                         "overhead": mean(&sim) / base },
                "file": { "secs": mean(&file), "jobs_per_sec": jobs as f64 / mean(&file),
                          "overhead": gate_overhead_ratio },
            },
            "long": {
                "jobs": long_jobs,
                "off_secs": long_off,
                "file_secs": long_file,
                "overhead": long_file / long_off,
                "checkpoints": long_checkpoints,
                "appended_bytes": long_appended,
                "replaced_bytes": long_replaced,
            },
            "recovery": {
                "records_replayed": recovered.replayed,
                "finished_restored": recovered.finished.len(),
                "secs": replay_secs,
            },
            "gate_metric": "file-journal / no-journal wall time, same run \
                            (machine-relative)",
            "gate_overhead_ratio": gate_overhead_ratio,
        }),
    );

    check_baseline(
        "gate_overhead_ratio",
        |baseline| {
            format!("file-journal overhead = {gate_overhead_ratio:.2}x vs baseline {baseline:.2}x")
        },
        // Generous headroom: fail only when journaling costs more than double
        // the committed overhead AND is substantial in absolute terms — small
        // baselines jitter.
        |baseline| gate_overhead_ratio > baseline * 2.0 && gate_overhead_ratio > 1.5,
        "write-ahead journaling slowed the serve hot path far beyond the committed \
         overhead — check the append path",
    );
}
