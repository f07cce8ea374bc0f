//! One run of one workload: set-up, warm-up, then either the measured phase
//! (tracer off, end-to-end metrics) or the traced phase with its comparison
//! arms (per-layer metrics) — and, either way, the correctness oracle.

use crate::catalog::{Metrics, END_TO_END, MEASURED_EXTRA};
use crate::drive::{drive, Drive};
use crate::inputs::{Inputs, Jobs};
use crate::layers;
use crate::quiet::{wait_for_quiet, StealClock};
use crate::stack::{build_imputer, er_judge, with_imputer_tools, Phase, Stack};
use crate::stats::{median, percentile_band, ratio};
use crate::workload::{Workload, RESTARTS, RESUBMITTED};
use lingua_core::modules::Module;
use lingua_core::{ContextFactory, Data};
use lingua_durable::{Journal, JournalTuning};
use lingua_llm_sim::{fingerprint, LlmService, SimLlm, SimLlmConfig, TokenPricing, Usage};
use lingua_serve::{fingerprint_inputs, MetricsSnapshot, PipelineServer};
use lingua_stream::{StreamSnapshot, WindowReport};
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub struct RunArgs {
    /// Where the waiting budget lives (see [`crate::quiet`]).
    pub work_base: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for journals; the caller creates and removes it.
    pub work_dir: PathBuf,
}

pub struct RunOutcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Measured, reported, held to no bound ([`MEASURED_EXTRA`]).
    pub extra: Option<Metrics>,
    /// Why the oracle failed, and anything a reader of the numbers must know.
    pub notes: Vec<String>,
    /// Jobs and records of the phase the metrics describe.
    pub jobs: usize,
    pub records: usize,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The imputation oracle replays every `IMPUTE_ORACLE_STRIDE`-th job: the
/// phase serves ~1M rows, and replaying all of them single-file would take
/// as long as the phase.
const IMPUTE_ORACLE_STRIDE: usize = 8;
/// The paper's "roughly 1/6 of the LLM calls", with room for the seed.
const LLM_CALL_BAND: Range<f64> = 0.10..0.25;

pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub llmgc_build_s: f64,
}

pub(crate) fn digest(data: &Data) -> u64 {
    fingerprint(&data.render())
}

fn same_bill(a: &Usage, b: &Usage) -> bool {
    (a.calls, a.tokens_in, a.tokens_out) == (b.calls, b.tokens_in, b.tokens_out)
}

fn usd_per_1k(ledger: &Usage, records: usize) -> f64 {
    ledger.cost_usd(&TokenPricing::default()) / records as f64 * 1000.0
}

/// `VmHWM` of this process, in MB. Read when the measured phase ends,
/// before the oracle's reference runs and journal replays add their own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a phase of a job workload produced.
pub struct JobPhase {
    pub drive: Drive,
    /// Digest of each finished job's output, by position in the range.
    pub digests: Vec<u64>,
    /// What the phase added to the shared ledger.
    pub ledger: Usage,
    pub snapshot: MetricsSnapshot,
    pub workers: usize,
    pub metrics_snapshot_us: f64,
    pub recovered_skips: u64,
}

/// A fresh server over `stack`, serving jobs a slice at a time. The traced
/// run interleaves the slices of several of these, so that the phases it
/// compares run in the same weather.
pub struct Serving<'a> {
    stack: &'a Stack,
    inputs: &'a Inputs,
    server: PipelineServer,
    before: Usage,
    base: usize,
    digests: Vec<u64>,
    drive: Drive,
}

impl<'a> Serving<'a> {
    /// `range` is everything the phase will serve, in slices or at once.
    pub fn start(stack: &'a Stack, inputs: &'a Inputs, range: Range<usize>) -> Serving<'a> {
        Serving {
            stack,
            inputs,
            server: stack.start_server(),
            before: stack.ledger(),
            base: range.start,
            digests: vec![0; range.len()],
            drive: Drive::default(),
        }
    }

    pub fn serve(&mut self, slice: Range<usize>) {
        let (base, var) = (self.base, self.inputs.output_var());
        let digests = &mut self.digests;
        let slice = drive(&self.server, self.inputs, slice, |index, output| {
            digests[index - base] = output.env.get(var).map_or(0, digest);
        });
        self.drive.absorb(slice);
    }

    /// `before_shutdown` runs while the server is still up and its journal
    /// flushed (the journal workload copies its live log there).
    pub fn finish(mut self, before_shutdown: impl FnOnce()) -> JobPhase {
        let ledger = self.stack.ledger().since(&self.before);
        let calls: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(self.server.metrics());
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let snapshot = self.server.metrics();
        if let Some(journal) = self.server.journal() {
            journal.flush().expect("journal flushes");
        }
        before_shutdown();
        let recovery = self.server.recovery();
        let phase = JobPhase {
            drive: self.drive,
            digests: self.digests,
            ledger,
            workers: self.server.worker_count(),
            metrics_snapshot_us: median(&calls),
            recovered_skips: recovery.map_or(0, |recovery| recovery.skipped_duplicates),
            snapshot,
        };
        self.server.shutdown();
        phase
    }
}

/// Serve `range` on a fresh server over `stack`, in one go.
pub fn job_phase(
    stack: &Stack,
    inputs: &Inputs,
    range: Range<usize>,
    before_shutdown: impl FnOnce(),
) -> JobPhase {
    let mut serving = Serving::start(stack, inputs, range.clone());
    serving.serve(range);
    serving.finish(before_shutdown)
}

pub struct StreamPhase {
    pub wall_s: f64,
    pub ingest_us: Vec<f64>,
    pub finish_s: f64,
    pub reports: Vec<WindowReport>,
    pub snapshot: StreamSnapshot,
    pub server: MetricsSnapshot,
    pub ledger: Usage,
    pub errored_ingests: usize,
}

/// Ingest `range` on a fresh engine over `stack`, one ingest thread (this
/// one), timed from the first `ingest` to `finish()` returning.
pub fn stream_phase(stack: &Stack, inputs: &Inputs, range: Range<usize>) -> StreamPhase {
    let Jobs::Stream { items, .. } = &inputs.jobs else { unreachable!("stream inputs") };
    let mut engine = stack.start_engine(inputs);
    let before = stack.ledger();
    let mut ingest_us = Vec::with_capacity(range.len());
    let mut errored_ingests = 0;
    let start = Instant::now();
    for item in &items[range] {
        let item = item.clone();
        let call = Instant::now();
        if engine.ingest(item).is_err() {
            errored_ingests += 1;
        }
        ingest_us.push(call.elapsed().as_secs_f64() * 1e6);
    }
    let finishing = Instant::now();
    let reports = engine.finish().unwrap_or_else(|_| {
        errored_ingests += 1;
        Vec::new()
    });
    let finish_s = finishing.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    let phase = StreamPhase {
        wall_s,
        ingest_us,
        finish_s,
        reports,
        snapshot: engine.metrics(),
        server: engine.server_metrics(),
        ledger: stack.ledger().since(&before),
        errored_ingests,
    };
    engine.shutdown();
    phase
}

impl StreamPhase {
    /// Window jobs that did not complete, plus ingests that errored.
    pub fn failed(&self) -> usize {
        let server = &self.server;
        let unfinished = server.finished() - server.completed;
        unfinished as usize + self.errored_ingests
    }

    pub fn attempted(&self) -> usize {
        self.ingest_us.len() + self.server.accepted as usize
    }
}

/// Generate the inputs, build a stack, serve the warm-up tail on it and
/// tear it down. The warm-up warms the process — allocator, page cache,
/// lazy statics — not the stack: every phase builds a fresh one.
pub fn setup(workload: Workload, seed: u64, count: usize, work_dir: &Path) -> (Inputs, SetupTimes) {
    let start = Instant::now();
    let warm = (count / 20).max(8);
    let inputs = Inputs::generate(workload, seed, count + warm);
    let generate_s = start.elapsed().as_secs_f64();
    let journal = work_dir.join("warmup.journal");
    let _ = std::fs::remove_file(&journal);
    let stack = Stack::build(workload, &inputs, Phase::MEASURED, &journal);
    if workload == Workload::StreamDedup {
        stream_phase(&stack, &inputs, count..count + warm);
    } else {
        job_phase(&stack, &inputs, count..count + warm, || {});
    }
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        generate_s,
        llmgc_build_s: stack.llmgc_build_s,
    };
    (inputs, times)
}

/// Digests of the outputs a direct, serverless, fault-free run of the same
/// per-record module gives for jobs `indices`: no serve, no gateway, no
/// batcher, no cache — a fresh simulator with the same seed per thread.
fn reference_digests(workload: Workload, inputs: &Inputs, indices: &[usize]) -> Vec<u64> {
    let threads = std::thread::available_parallelism().map_or(2, usize::from);
    let chunk = indices.len().div_ceil(threads).max(1);
    let mut digests = Vec::with_capacity(indices.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = indices
            .chunks(chunk)
            .map(|chunk| {
                scope.spawn(move || {
                    let config = SimLlmConfig { seed: inputs.seed, ..Default::default() };
                    let llm: Arc<dyn LlmService> = Arc::new(SimLlm::new(&inputs.world, config));
                    let mut factory = ContextFactory::new(llm);
                    let prototype: Box<dyn Module> = match &inputs.jobs {
                        Jobs::Impute { vocabulary, .. } => {
                            factory = with_imputer_tools(factory, vocabulary);
                            Box::new(build_imputer(&factory, vocabulary))
                        }
                        _ => Box::new(er_judge()),
                    };
                    let mut ctx = factory.build();
                    chunk
                        .iter()
                        .map(|&index| {
                            let Data::List(items) = inputs.job(index) else {
                                unreachable!("{workload} jobs are lists")
                            };
                            let outputs = items
                                .into_iter()
                                .map(|item| {
                                    let mut module =
                                        prototype.fresh_instance().expect("module replicates");
                                    module.invoke(item, &mut ctx).expect("reference run succeeds")
                                })
                                .collect();
                            digest(&Data::List(outputs))
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for worker in workers {
            digests.extend(worker.join().expect("reference thread panicked"));
        }
    });
    digests
}

/// Compare a phase's outputs with the reference run's.
fn check_against_reference(
    workload: Workload,
    inputs: &Inputs,
    phase: &JobPhase,
    stride: usize,
    notes: &mut Vec<String>,
) {
    let indices: Vec<usize> = (0..phase.digests.len()).step_by(stride).collect();
    let reference = reference_digests(workload, inputs, &indices);
    let wrong = indices
        .iter()
        .zip(&reference)
        .filter(|(&index, &expected)| phase.digests[index] != expected)
        .count();
    if wrong > 0 {
        notes.push(format!(
            "oracle: {wrong} of {} checked jobs differ from the direct reference run",
            indices.len()
        ));
    }
}

/// What the journal workload's restarts showed.
pub struct Recovery {
    pub recover_s: Vec<f64>,
    pub skipped_duplicates: u64,
    pub replay_records_per_s: f64,
}

/// `journal_small`'s oracle: reopen the crash image directly, then restart
/// a fresh server on fresh copies of it and resubmit the first inputs.
fn check_recovery(
    inputs: &Inputs,
    image: &Path,
    measured: &JobPhase,
    restarts: usize,
    work_dir: &Path,
    notes: &mut Vec<String>,
) -> Recovery {
    let (pipeline, _) = inputs.pipeline();
    let var = inputs.output_var();
    let jobs = measured.digests.len();

    // The image as the journal itself reads it back.
    let copy = work_dir.join("replay.journal");
    std::fs::copy(image, &copy).expect("crash image copies");
    let start = Instant::now();
    let tuning = JournalTuning::file(&copy).expect("journal copy opens");
    let (_journal, recovered) = Journal::open(tuning).expect("journal replays");
    let replay_s = start.elapsed().as_secs_f64();
    let finished: HashMap<u64, u64> = recovered
        .finished
        .iter()
        .filter(|job| job.pipeline == pipeline)
        .map(|job| (job.fingerprint, job.env.get(var).map_or(0, digest)))
        .collect();
    let missing = (0..jobs)
        .filter(|&index| {
            let fp = fingerprint_inputs(&inputs.request_inputs(index));
            finished.get(&fp) != Some(&measured.digests[index])
        })
        .count();
    if missing > 0 {
        notes.push(format!(
            "oracle: {missing} of {jobs} finished jobs are not in `Recovered::finished`"
        ));
    }
    if !same_bill(&recovered.cumulative, &measured.ledger) {
        notes.push(format!(
            "oracle: restored bill {:?} is not the uninterrupted ledger {:?}",
            recovered.cumulative, measured.ledger
        ));
    }

    let resubmitted = RESUBMITTED.min(jobs);
    let mut recovery = Recovery {
        recover_s: Vec::with_capacity(restarts),
        skipped_duplicates: 0,
        replay_records_per_s: ratio(recovered.replayed as f64, replay_s),
    };
    for restart in 0..restarts {
        let copy = work_dir.join(format!("restart-{restart}.journal"));
        std::fs::copy(image, &copy).expect("crash image copies");
        let start = Instant::now();
        let stack = Stack::build(Workload::JournalSmall, inputs, Phase::MEASURED, &copy);
        let phase = job_phase(&stack, inputs, 0..resubmitted, || {});
        recovery.recover_s.push(start.elapsed().as_secs_f64());
        recovery.skipped_duplicates = phase.recovered_skips;
        let wrong = (0..resubmitted).filter(|&i| phase.digests[i] != measured.digests[i]).count();
        if wrong > 0 || phase.drive.failed > 0 {
            notes.push(format!(
                "oracle: restart {restart}: {wrong} resubmitted jobs returned another output, {} failed",
                phase.drive.failed
            ));
        }
        // Restored bill + bill after restart == uninterrupted ledger + the
        // re-executed jobs' bills. The restored bill is the uninterrupted
        // ledger (checked above), so what remains is that the restarted
        // ledger holds exactly what the re-executed jobs metered.
        if !same_bill(&phase.ledger, &phase.snapshot.llm) {
            notes.push(format!(
                "oracle: restart {restart}: ledger after restart {:?} is not the re-executed jobs' bill {:?}",
                phase.ledger, phase.snapshot.llm
            ));
        }
    }
    recovery
}

/// `(window, judged, matched)` per report: what two runs of one stream must
/// agree on.
pub fn window_verdicts(reports: &[WindowReport]) -> Vec<(u64, u64, u64)> {
    reports.iter().map(|r| (r.window.0, r.judged, r.matched)).collect()
}

/// `stream_dedup`'s oracle: both conservation laws, and per-window
/// judged/matched equal to a single-worker, journal-less reference run.
fn check_stream(
    inputs: &Inputs,
    range: Range<usize>,
    phase: &StreamPhase,
    work_dir: &Path,
    notes: &mut Vec<String>,
) {
    if !phase.snapshot.record_conservation_holds() || !phase.snapshot.window_conservation_holds() {
        notes.push(format!("oracle: conservation broken: {}", phase.snapshot.report()));
    }
    let single = Phase { journal: false, workers: Some(1), ..Phase::MEASURED };
    let stack = Stack::build(Workload::StreamDedup, inputs, single, &work_dir.join("unused"));
    let reference = stream_phase(&stack, inputs, range);
    if window_verdicts(&phase.reports) != window_verdicts(&reference.reports) {
        notes.push(format!(
            "oracle: window reports differ from the single-worker reference ({} vs {} windows)",
            phase.reports.len(),
            reference.reports.len()
        ));
    }
}

/// Where phase `phase` keeps its journal; a log left there is removed.
pub fn journal_path(work_dir: &Path, phase: &str) -> PathBuf {
    let path = work_dir.join(format!("{phase}.journal"));
    let _ = std::fs::remove_file(&path);
    path
}

pub fn run(args: &RunArgs) -> RunOutcome {
    let workload = args.workload;
    let count = workload.jobs(args.seconds);
    let mut notes = Vec::new();

    let setups = if args.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        let (inputs, times) = setup(workload, args.seed, count, &args.work_dir);
        setup_s.push(times.total_s);
        last = Some((inputs, times));
    }
    let (inputs, times) = last.expect("at least one set-up");

    if args.traced {
        return layers::traced_run(args, &inputs, &times, count);
    }

    let mut metrics = Metrics::zeroed(END_TO_END);
    let mut extra = Metrics::zeroed(MEASURED_EXTRA);
    metrics.set("setup_s", median(&setup_s));
    let records = count * workload.records_per_job();
    // The smoke run's phases are too short for the host's weather to matter.
    let waited_s = if args.seconds >= 1.0 { wait_for_quiet(&args.work_base) } else { 0.0 };
    let steal = StealClock::start();
    let (attempted, failed, stolen);
    if workload == Workload::StreamDedup {
        let live = journal_path(&args.work_dir, "measured");
        let stack = Stack::build(workload, &inputs, Phase::MEASURED, &live);
        let phase = stream_phase(&stack, &inputs, 0..count);
        stolen = steal.share();
        metrics.set("records_per_s", records as f64 / phase.wall_s);
        let ingest_ms: Vec<f64> = phase.ingest_us.iter().map(|us| us / 1e3).collect();
        metrics.set_sampled("job_p50_ms", percentile_band(&ingest_ms, 50.0), ingest_ms.len());
        extra.set_sampled("job_p95_ms", percentile_band(&ingest_ms, 95.0), ingest_ms.len());
        extra.set_sampled("job_p99_ms", percentile_band(&ingest_ms, 99.0), ingest_ms.len());
        metrics.set("usd_per_1k_records", usd_per_1k(&phase.ledger, records));
        extra.set("peak_rss_mb", peak_rss_mb());
        (attempted, failed) = (phase.attempted(), phase.failed());
        check_stream(&inputs, 0..count, &phase, &args.work_dir, &mut notes);
    } else {
        let image = args.work_dir.join("crash-image.journal");
        let live = journal_path(&args.work_dir, "measured");
        let stack = Stack::build(workload, &inputs, Phase::MEASURED, &live);
        let phase = job_phase(&stack, &inputs, 0..count, || {
            if workload == Workload::JournalSmall {
                std::fs::copy(&live, &image).expect("live log copies");
            }
        });
        stolen = steal.share();
        let drive = &phase.drive;
        metrics.set("records_per_s", records as f64 / drive.wall.as_secs_f64());
        let (latency, finished) = (&drive.latency_ms, drive.latency_ms.len());
        metrics.set_sampled("job_p50_ms", percentile_band(latency, 50.0), finished);
        extra.set_sampled("job_p95_ms", percentile_band(latency, 95.0), finished);
        extra.set_sampled("job_p99_ms", percentile_band(latency, 99.0), finished);
        metrics.set("usd_per_1k_records", usd_per_1k(&phase.ledger, records));
        extra.set("peak_rss_mb", peak_rss_mb());
        (attempted, failed) = (drive.attempted, drive.failed);
        check_job_outputs(workload, &inputs, &phase, &image, 1, &args.work_dir, &mut notes);
    }
    notes.push(format!(
        "host: {stolen:.4} of the CPU was stolen during the measured phase, \
         after {waited_s:.1} s of waiting for a quiet host"
    ));
    let correct = !notes.iter().any(|note| note.starts_with("oracle:")) && failed == 0;
    RunOutcome {
        correct,
        attempted,
        failed,
        metrics,
        extra: Some(extra),
        notes,
        jobs: count,
        records,
    }
}

/// The job workloads' oracles. Returns the restarts' findings for
/// `journal_small`.
pub fn check_job_outputs(
    workload: Workload,
    inputs: &Inputs,
    phase: &JobPhase,
    image: &Path,
    restarts: usize,
    work_dir: &Path,
    notes: &mut Vec<String>,
) -> Option<Recovery> {
    match workload {
        Workload::ErProvider => check_against_reference(workload, inputs, phase, 1, notes),
        Workload::ImputeLlmgc => {
            check_against_reference(workload, inputs, phase, IMPUTE_ORACLE_STRIDE, notes);
            let rows = phase.digests.len() * workload.records_per_job();
            let share = phase.ledger.calls as f64 / rows as f64;
            if !LLM_CALL_BAND.contains(&share) {
                notes
                    .push(format!("oracle: {share:.3} LLM calls per row is outside the ~1/6 band"));
            }
        }
        Workload::JournalSmall => {
            return Some(check_recovery(
                inputs,
                image,
                phase,
                restarts.min(RESTARTS),
                work_dir,
                notes,
            ));
        }
        Workload::StreamDedup => unreachable!("stream_dedup has its own oracle"),
    }
    None
}
