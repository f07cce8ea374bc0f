//! The four workloads: names, why each exists, and the frozen sizes.
//!
//! Sizes were fixed at PR 11 on the 2-core build container so that each
//! measured phase takes 8-12 s with `--seconds 10`; they are rates per
//! second of run, so `--seconds` scales the work and the smoke run stays
//! small. Changing them makes results incomparable with every earlier
//! `BENCH_*.json`.

use std::fmt;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 11;
/// Never used while the benchmark (or a change judged by it) is written;
/// a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 7_919;
/// Run length the sizes were fixed at, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 10.0;
/// Jobs the submitter keeps outstanding.
pub const WINDOW: usize = 16;
/// Inputs resubmitted to a restarted server, and restarts per run.
pub const RESUBMITTED: usize = 256;
pub const RESTARTS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ErProvider,
    ImputeLlmgc,
    JournalSmall,
    StreamDedup,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ErProvider,
        Workload::ImputeLlmgc,
        Workload::JournalSmall,
        Workload::StreamDedup,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ErProvider => "er_provider",
            Workload::ImputeLlmgc => "impute_llmgc",
            Workload::JournalSmall => "journal_small",
            Workload::StreamDedup => "stream_dedup",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Records (pairs / rows / documents / stream records) per job.
    pub fn records_per_job(self) -> usize {
        match self {
            Workload::ErProvider => 8,
            Workload::ImputeLlmgc => 16,
            Workload::JournalSmall | Workload::StreamDedup => 1,
        }
    }

    /// Jobs (stream records for `stream_dedup`) in a 10 s measured phase.
    fn jobs_at_run_seconds(self) -> f64 {
        match self {
            Workload::ErProvider => 1_000.0,
            Workload::ImputeLlmgc => 33_000.0,
            Workload::JournalSmall => 9_000.0,
            Workload::StreamDedup => 2_800.0,
        }
    }

    /// Jobs in a measured phase of `seconds`. The two journaling workloads
    /// rewrite a checkpoint that grows with every finished job, so their
    /// phase time is quadratic in the job count and the count scales with
    /// the square root of the run length.
    pub fn jobs(self, seconds: f64) -> usize {
        let scale = seconds / RUN_SECONDS;
        let scale = match self {
            Workload::ErProvider | Workload::ImputeLlmgc => scale,
            Workload::JournalSmall | Workload::StreamDedup => scale.sqrt(),
        };
        ((self.jobs_at_run_seconds() * scale).round() as usize).max(16)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}
