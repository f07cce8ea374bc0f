//! The traced run: where one job's time goes, layer by layer.
//!
//! Over the first quarter of the jobs, on fresh stacks: an untraced
//! reference and the traced phase with every probe installed, run in
//! alternation so that they share the host's weather; and — where the
//! workload has one — a comparison arm (batcher off, or journal off) beside
//! a whole-phase reference. Sources of the numbers, as in the README's
//! table: **W** the wall-clock sink over the repo's own spans, **D** a
//! benchmark-owned decorator, **C** a direct timed call to a public
//! function, **S** a layer's public snapshot.

use crate::adapters::{StorageLog, TimedStorage};
use crate::catalog::{Metrics, PER_LAYER};
use crate::inputs::{Inputs, Jobs};
use crate::run::{
    check_job_outputs, job_phase, journal_path, peak_rss_mb, stream_phase, window_verdicts,
    JobPhase, RunArgs, RunOutcome, Serving, SetupTimes,
};
use crate::spans::SpanTimes;
use crate::stack::{Phase, Stack};
use crate::stats::{median, percentile, ratio};
use crate::workload::{Workload, RESTARTS, WINDOW};
use lingua_core::Data;
use lingua_durable::{FinishedJob, Journal, JournalTuning, SimStorage, Storage};
use lingua_llm_sim::Usage;
use lingua_serve::fingerprint_inputs;
use lingua_trace::SpanKind;

use std::sync::Arc;
use std::time::Instant;

/// Busy seconds per layer over one traced phase; the README's share table.
#[derive(Default)]
struct Busy {
    serve: f64,
    core: f64,
    script: f64,
    gateway: f64,
    provider: f64,
    llm_sim: f64,
    durable: f64,
    stream: f64,
}

impl Busy {
    fn publish(&self, metrics: &mut Metrics) {
        let layers = [
            ("share.serve", self.serve),
            ("share.core", self.core),
            ("share.script", self.script),
            ("share.gateway", self.gateway),
            ("share.provider", self.provider),
            ("share.llm_sim", self.llm_sim),
            ("share.durable", self.durable),
            ("share.stream", self.stream),
        ];
        let total: f64 = layers.iter().map(|(_, seconds)| seconds.max(0.0)).sum();
        for (name, seconds) in layers {
            metrics.set(name, ratio(seconds.max(0.0), total));
        }
    }
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Everything the storage probe saw, plus the seconds of journal work it
/// implies: appends, the checkpoint gaps, and `encode_us` per append for the
/// encoding that happens before the bytes reach storage.
fn durable_metrics(metrics: &mut Metrics, log: &StorageLog, jobs: usize, encode_us: f64) -> f64 {
    let appends_us: Vec<f64> = log.append_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    metrics.set("durable.appends_per_job", ratio(log.appends as f64, jobs as f64));
    metrics.set("durable.bytes_per_job", ratio(log.appended_bytes as f64, jobs as f64));
    metrics.set_sampled("durable.append_us_p50", percentile(&appends_us, 50.0), appends_us.len());
    metrics.set_sampled("durable.append_us_p99", percentile(&appends_us, 99.0), appends_us.len());
    metrics.set("durable.fsyncs", log.fsyncs() as f64);
    metrics.set("durable.checkpoints", log.checkpoints as f64);
    metrics.set("durable.checkpoint_s", seconds(log.checkpoint_ns));
    metrics.set("durable.checkpoint_bytes", log.checkpoint_bytes_last as f64);
    metrics.set(
        "durable.write_amplification",
        ratio((log.appended_bytes + log.checkpoint_bytes_total) as f64, log.appended_bytes as f64),
    );
    metrics.set("durable.encode_us_per_record", encode_us);
    log.append_s() + seconds(log.checkpoint_ns) + encode_us * log.appends as f64 / 1e6
}

/// **C**: what `Journal::record_*` costs per record before storage — the
/// workload's own records on in-memory storage, storage time subtracted,
/// no checkpoint in the way.
fn encode_us_per_record(inputs: &Inputs, sample: usize) -> f64 {
    let storage = TimedStorage::new(SimStorage::new() as Arc<dyn Storage>);
    let tuning = JournalTuning::over(Arc::clone(&storage) as Arc<dyn Storage>)
        .with_checkpoint_interval(usize::MAX);
    let (journal, _) = Journal::open(tuning).expect("in-memory journal opens");
    let sample = sample.min(inputs.len());
    let start = Instant::now();
    match &inputs.jobs {
        Jobs::Docs(_) => {
            let (pipeline, _) = inputs.pipeline();
            for index in 0..sample {
                let request = inputs.request_inputs(index);
                let fp = fingerprint_inputs(&request);
                journal.record_job_accepted(pipeline, fp, &request).expect("append");
                journal.record_job_started(pipeline, fp).expect("append");
                // A summary is about a sentence of its document.
                let summary: String = inputs.job(index).render().chars().take(120).collect();
                let mut env = request;
                env.insert(inputs.output_var().to_string(), Data::Str(summary));
                let job = FinishedJob {
                    pipeline: pipeline.to_string(),
                    fingerprint: fp,
                    env,
                    llm: Usage::default(),
                    wall_us: 0,
                };
                journal.record_job_finished(job).expect("append");
            }
        }
        Jobs::Stream { items, .. } => {
            for (index, item) in items[..sample].iter().enumerate() {
                let window = index as u64 / 16;
                journal.record_stream_ingest(item, &[window, window + 1]).expect("append");
            }
        }
        Jobs::Er(_) | Jobs::Impute { .. } => return 0.0,
    }
    let total_us = start.elapsed().as_secs_f64() * 1e6;
    let log = storage.take_log();
    ratio(total_us - log.append_s() * 1e6, log.appends as f64)
}

/// **C**: `Data::to_script` + `Data::from_script` over the workload's rows.
fn convert_us_per_record(inputs: &Inputs, jobs: usize) -> f64 {
    if !matches!(inputs.jobs, Jobs::Impute { .. }) {
        return 0.0;
    }
    let rows: Vec<Data> = (0..jobs.min(512))
        .flat_map(|index| match inputs.job(index) {
            Data::List(rows) => rows,
            _ => unreachable!("imputation jobs are lists"),
        })
        .collect();
    let answer = Data::Str("Manufacturer".into()).to_script();
    let start = Instant::now();
    for row in &rows {
        std::hint::black_box(row.to_script());
        std::hint::black_box(Data::from_script(std::hint::black_box(&answer)));
    }
    start.elapsed().as_secs_f64() * 1e6 / rows.len() as f64
}

pub fn traced_run(args: &RunArgs, inputs: &Inputs, times: &SetupTimes, count: usize) -> RunOutcome {
    let workload = args.workload;
    let quarter = (count / 4).clamp(16.min(count), count);
    let mut metrics = Metrics::zeroed(PER_LAYER);
    let mut notes = Vec::new();
    metrics.set("dataset.generate_s", times.generate_s);
    metrics.set("core.llmgc_build_s", times.llmgc_build_s);
    let (attempted, failed) = if workload == Workload::StreamDedup {
        stream_layers(args, inputs, quarter, &mut metrics, &mut notes)
    } else {
        job_layers(args, inputs, quarter, &mut metrics, &mut notes)
    };
    metrics.set("failed_share", ratio(failed as f64, attempted as f64));
    metrics.set("process.peak_rss_mb", peak_rss_mb());
    if metrics.get("trace.overhead_share") > 0.15 {
        notes.push("trace overhead above 0.15: the per-layer shares are unreliable".to_string());
    }
    RunOutcome {
        correct: !notes.iter().any(|note| note.starts_with("oracle:")) && failed == 0,
        attempted,
        failed,
        metrics,
        extra: None,
        notes,
        jobs: quarter,
        records: quarter * workload.records_per_job(),
    }
}

/// Gateway, provider and simulator numbers shared by every workload.
/// Returns `(gateway, provider, llm_sim)` busy seconds.
fn llm_path_metrics(
    metrics: &mut Metrics,
    stack: &Stack,
    spans: &SpanTimes,
    ledger: &Usage,
    records: usize,
    workers: usize,
    wall_s: f64,
) -> (f64, f64, f64) {
    let wire = stack.wire.as_ref().expect("traced stacks have a wire");
    let backend = wire.backend.as_ref().expect("traced wires time their backend");
    let gateway_spans = spans.kind(SpanKind::Gateway);
    let backend_s = backend.total_s();
    // Transport calls happen inside gateway spans and have no span of their
    // own, so the gateway's self time is what is left after them.
    let gateway_self_s = seconds(gateway_spans.self_ns) - backend_s - wire.toll_s();
    let snapshot = stack.gateway.snapshot();
    let attempts: u64 = snapshot.backends.iter().map(|backend| backend.counters.attempts).sum();
    let requests = snapshot.requests + snapshot.batch_members;
    metrics.set(
        "gateway.self_us_per_request",
        ratio(gateway_self_s * 1e6, gateway_spans.spans as f64),
    );
    metrics.set("gateway.attempts_per_request", ratio(attempts as f64, requests as f64));
    metrics.set("gateway.failovers", snapshot.failovers as f64);
    metrics.set("gateway.degraded", snapshot.degraded() as f64);
    metrics.set("gateway.batch_splits", snapshot.batch_splits as f64);
    metrics.set("gateway.wire_calls_per_record", ratio(wire.wire_calls() as f64, records as f64));
    metrics.set("provider.toll_share", ratio(wire.sleep_s(), wall_s));
    let calls = backend.micros();
    metrics.set_sampled("llm_sim.call_us_p50", percentile(&calls, 50.0), calls.len());
    metrics.set("llm_sim.busy_share", ratio(backend_s, workers as f64 * wall_s));
    let (hits, lookups) = stack.sims.iter().fold((0, 0), |(hits, lookups), sim| {
        let stats = sim.cache_stats();
        (hits + stats.hits, lookups + stats.hits + stats.misses)
    });
    metrics.set("llm_sim.cache_hit_share", ratio(hits as f64, lookups as f64));
    metrics.set(
        "llm_sim.tokens_per_record",
        ratio((ledger.tokens_in + ledger.tokens_out) as f64, records as f64),
    );
    // `LlmCall` self time is the per-job meter plus, under the batcher, each
    // member's wait for its flush — waiting, like queue wait, not work. The
    // probe above the batcher saw wait + flush per member and the `Batch`
    // spans are the flushes, so the difference is the wait.
    let batch = spans.kind(SpanKind::Batch);
    let batch_wait_s = stack
        .probes
        .as_ref()
        .and_then(|probes| probes.above_batcher.as_ref())
        .map_or(0.0, |above| (above.clock.total_s() - seconds(batch.total_ns)).max(0.0));
    let meter_s = (seconds(spans.kind(SpanKind::LlmCall).self_ns) - batch_wait_s).max(0.0);
    // Queueing for the provider connection is waiting too; the sleep is the
    // provider's latency.
    (gateway_self_s + meter_s + seconds(batch.self_ns), wire.sleep_s(), backend_s)
}

fn job_layers(
    args: &RunArgs,
    inputs: &Inputs,
    jobs: usize,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) -> (usize, usize) {
    let workload = args.workload;
    let work = &args.work_dir;
    let records = jobs * workload.records_per_job();

    // The reference and the traced phase run interleaved, a slice of the
    // jobs at a time on two live servers, so that both see the same
    // weather: run one after the other, the host's drift over a few seconds
    // read as anything from -0.13 to +0.39 of trace overhead. The idle
    // server costs its supervisor's 2 ms tick.
    let live = journal_path(work, "traced");
    let image = work.join("crash-image.journal");
    let reference_stack =
        Stack::build(workload, inputs, Phase::MEASURED, &journal_path(work, "reference"));
    let stack = Stack::build(workload, inputs, Phase::TRACED, &live);
    let mut reference = Serving::start(&reference_stack, inputs, 0..jobs);
    let mut traced = Serving::start(&stack, inputs, 0..jobs);
    // Slices long enough that filling and draining the 16-job window at
    // their ends stays a small part of them.
    let slices = (jobs / (5 * WINDOW)).clamp(1, 10);
    for slice in 0..slices {
        let range = jobs * slice / slices..jobs * (slice + 1) / slices;
        reference.serve(range.clone());
        traced.serve(range);
    }
    let reference = reference.finish(|| {});
    let traced = traced.finish(|| {
        if workload == Workload::JournalSmall {
            std::fs::copy(&live, &image).expect("live log copies");
        }
    });
    let reference_s = reference.drive.wall.as_secs_f64();

    // The comparison arm differs from the reference by the very layer that
    // sets its speed (a journal-less job is ~40x shorter), so slices that
    // suit one starve the other; the two run whole, back to back.
    let arm = match workload {
        Workload::ErProvider => Some(Phase { batching: false, ..Phase::MEASURED }),
        Workload::JournalSmall => Some(Phase { journal: false, ..Phase::MEASURED }),
        _ => None,
    }
    .map(|off| {
        let whole = |phase: Phase, name: &str| {
            let stack = Stack::build(workload, inputs, phase, &journal_path(work, name));
            job_phase(&stack, inputs, 0..jobs, || {})
        };
        let (on, first) = (whole(Phase::MEASURED, "arm-on"), whole(off, "arm-off"));
        // A journal-less quarter is over in ~50 ms: repeat a short arm until
        // half a second of it has been seen, and take the median.
        let mut off_s = vec![first.drive.wall.as_secs_f64()];
        while off_s.len() < 5 && off_s.iter().sum::<f64>() < 0.5 {
            off_s.push(whole(off, "arm-off").drive.wall.as_secs_f64());
        }
        (on, first, median(&off_s))
    });

    let probes = stack.probes.as_ref().expect("traced stacks carry probes");
    let spans = SpanTimes::from_stamps(&probes.sink.take());
    let drive = &traced.drive;
    let wall_s = drive.wall.as_secs_f64();
    let finished = drive.latency_ms.len().max(1) as f64;

    // serve (C, S)
    let queue_ms: Vec<f64> =
        drive.latency_ms.iter().zip(&drive.exec_ms).map(|(latency, exec)| latency - exec).collect();
    metrics.set_sampled("serve.queue_wait_ms_p50", percentile(&queue_ms, 50.0), queue_ms.len());
    metrics.set_sampled("serve.queue_wait_ms_p99", percentile(&queue_ms, 99.0), queue_ms.len());
    metrics.set_sampled(
        "serve.job_ms_p95",
        percentile(&drive.latency_ms, 95.0),
        drive.latency_ms.len(),
    );
    metrics.set_sampled(
        "serve.job_ms_p99",
        percentile(&drive.latency_ms, 99.0),
        drive.latency_ms.len(),
    );
    metrics.set_sampled("serve.exec_ms_p50", percentile(&drive.exec_ms, 50.0), drive.exec_ms.len());
    let exec_s: f64 = drive.exec_ms.iter().sum::<f64>() / 1e3;
    metrics.set("serve.busy_share", ratio(exec_s, traced.workers as f64 * wall_s));
    metrics.set_sampled(
        "serve.submit_us_p50",
        percentile(&drive.submit_us, 50.0),
        drive.submit_us.len(),
    );
    metrics.set("serve.metrics_snapshot_us", traced.metrics_snapshot_us);
    metrics.set("serve.worker_restarts", traced.snapshot.health.workers_restarted as f64);
    metrics.set("serve.dedup_or_cache_hits", traced.snapshot.deduped() as f64);

    // gateway / provider / llm_sim (W, D, S)
    let (gateway_s, provider_s, llm_s) =
        llm_path_metrics(metrics, &stack, &spans, &traced.ledger, records, traced.workers, wall_s);
    if let Some(batch) = traced.snapshot.batch {
        metrics.set("gateway.batch_occupancy_mean", batch.mean_occupancy());
        metrics.set("gateway.batches", batch.batches as f64);
    }
    if let (Some(above), Some(below)) = (&probes.above_batcher, &probes.below_batcher) {
        let wait_us = median(&above.clock.micros()) - median(&below.clock.micros());
        metrics.set_sampled("gateway.batch_wait_ms_p50", wait_us / 1e3, above.clock.calls());
    }

    // core / script (W, D, C)
    let pipeline = spans.kind(SpanKind::Pipeline);
    let op = spans.kind(SpanKind::Op);
    let llm_calls_s = seconds(spans.kind(SpanKind::LlmCall).total_ns);
    let module_s = probes.module.total_s();
    let lanes = workload == Workload::ErProvider;
    // Without a module probe (the DSL-compiled pipeline) the op's self time
    // *is* the module. With one, what the op spends outside the module is
    // the map stage's own overhead — except on lanes, where the op only
    // waits for its lane threads and the lanes' time is apportioned below.
    let (module_self_s, pipeline_self_s) = if module_s == 0.0 {
        (seconds(op.self_ns), seconds(pipeline.self_ns))
    } else if lanes {
        (module_s - llm_calls_s, seconds(pipeline.self_ns))
    } else {
        (module_s - llm_calls_s, seconds(pipeline.self_ns) + seconds(op.total_ns) - module_s)
    };
    let convert_us = convert_us_per_record(inputs, jobs);
    metrics.set("core.pipeline_self_us_per_job", pipeline_self_s * 1e6 / finished);
    metrics.set("core.module_self_us_per_record", ratio(module_self_s * 1e6, records as f64));
    metrics.set("core.convert_us_per_record", convert_us);
    let mut script_s = 0.0;
    if workload == Workload::ImputeLlmgc {
        script_s = (module_self_s - convert_us * records as f64 / 1e6).max(0.0);
        metrics.set("script.exec_us_per_record", script_s * 1e6 / records as f64);
    }

    // durable (D, C)
    let mut durable_s = 0.0;
    if let Some(storage) = &probes.storage {
        let encode_us = encode_us_per_record(inputs, 512);
        durable_s = durable_metrics(metrics, &storage.take_log(), jobs, encode_us);
        let (on, _, off_s) = arm.as_ref().expect("journaling workloads have a journal-off arm");
        metrics.set("durable.file_over_off", ratio(on.drive.wall.as_secs_f64(), *off_s));
    }
    if workload == Workload::ErProvider {
        let (on, _, off_s) = arm.as_ref().expect("er_provider has a batcher-off arm");
        metrics.set("gateway.batched_over_unbatched", ratio(on.drive.wall.as_secs_f64(), *off_s));
    }

    // trace (C, W)
    metrics.set("trace.overhead_share", ratio(wall_s - reference_s, reference_s));
    metrics.set("trace.events_per_job", spans.events as f64 / finished);

    // Layer shares and what the attribution leaves over.
    //
    // A job's latency is queue wait + execution by definition. Execution is
    // then the sum of the self times along it; on lanes the op's wait is
    // split between the layers in proportion to where the lanes spent
    // their time.
    let lane_busy_s = module_self_s + gateway_s + provider_s + llm_s;
    let lane_share = if lanes { ratio(seconds(op.self_ns), lane_busy_s) } else { 1.0 };
    let submit_s = drive.submit_us.iter().sum::<f64>() / 1e6;
    let busy = Busy {
        // `submit` journals the accept record (a third of the job's appends).
        serve: submit_s - durable_s / 3.0,
        core: pipeline_self_s + (module_self_s - script_s) * lane_share,
        script: script_s,
        gateway: gateway_s * lane_share,
        provider: provider_s * lane_share,
        llm_sim: llm_s * lane_share,
        durable: durable_s,
        stream: 0.0,
    };
    busy.publish(metrics);
    let attributed_s = busy.core + busy.script + busy.gateway + busy.provider + busy.llm_sim;
    let latency_s = drive.latency_ms.iter().sum::<f64>() / 1e3;
    metrics.set("unattributed_share", ratio((exec_s - attributed_s).abs(), latency_s));

    // The oracle holds for every phase that ran.
    let (on, off) = arm.as_ref().map_or((None, None), |(on, off, _)| (Some(on), Some(off)));
    let phases = [Some(&reference), Some(&traced), on, off];
    if phases.iter().flatten().any(|phase| phase.digests != traced.digests) {
        notes.push("oracle: the traced run's phases disagree on job outputs".to_string());
    }
    if let Some(recovery) =
        check_job_outputs(workload, inputs, &traced, &image, RESTARTS, work, notes)
    {
        metrics.set_sampled(
            "durable.recover_s",
            median(&recovery.recover_s),
            recovery.recover_s.len(),
        );
        metrics.set("durable.recover_skipped_duplicates", recovery.skipped_duplicates as f64);
        metrics.set("durable.replay_records_per_s", recovery.replay_records_per_s);
    }
    let failed = phases.iter().flatten().map(|phase: &&JobPhase| phase.drive.failed).sum();
    (phases.iter().flatten().map(|phase| phase.drive.attempted).sum(), failed)
}

fn stream_layers(
    args: &RunArgs,
    inputs: &Inputs,
    records: usize,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) -> (usize, usize) {
    let workload = args.workload;
    let work = &args.work_dir;
    // An engine's window jobs run behind its ingest calls, so live engines
    // cannot take turns the way `job_layers`' servers do. The phases run one
    // after the other instead, reference and traced twice each and
    // alternating, and are compared by their sums, so that drift of the
    // host over the run mostly cancels.
    let phase = |phase: Phase, name: &str| {
        let stack = Stack::build(workload, inputs, phase, &journal_path(work, name));
        let outcome = stream_phase(&stack, inputs, 0..records);
        (stack, outcome)
    };
    let (_, reference) = phase(Phase::MEASURED, "reference");
    let (stack, traced) = phase(Phase::TRACED, "traced");
    let (_, off) = phase(Phase { journal: false, ..Phase::MEASURED }, "arm");
    let (_, reference_again) = phase(Phase::MEASURED, "reference");
    let (_, traced_again) = phase(Phase::TRACED, "traced-again");
    let reference_s = (reference.wall_s + reference_again.wall_s) / 2.0;
    let traced_s = (traced.wall_s + traced_again.wall_s) / 2.0;

    let probes = stack.probes.as_ref().expect("traced stacks carry probes");
    let spans = SpanTimes::from_stamps(&probes.sink.take());
    let window_jobs = traced.server.completed.max(1) as f64;
    let workers = traced.server.workers;

    // stream (C, S)
    let snapshot = &traced.snapshot;
    metrics.set_sampled("stream.ingest_us_p50", percentile(&traced.ingest_us, 50.0), records);
    metrics.set_sampled("stream.ingest_us_p99", percentile(&traced.ingest_us, 99.0), records);
    metrics.set("stream.finish_s", traced.finish_s);
    metrics
        .set("stream.comparisons_per_record", ratio(snapshot.comparisons as f64, records as f64));
    metrics.set("stream.backpressure_stalls", snapshot.backpressure_stalls as f64);
    metrics.set("stream.late_dropped", snapshot.late_dropped as f64);
    metrics.set("stream.window_jobs", traced.server.completed as f64);
    metrics.set("stream.pairs_judged", snapshot.pairs_judged as f64);

    // serve (W, S): the window jobs are the engine's own, so their queue
    // wait comes from the spans — a serve-job span minus the pipeline in it.
    let queue_ms: Vec<f64> =
        spans.serve_jobs.iter().map(|&(total, inside)| (total - inside) as f64 / 1e6).collect();
    let exec_ms: Vec<f64> =
        spans.serve_jobs.iter().map(|&(_, inside)| inside as f64 / 1e6).collect();
    metrics.set_sampled("serve.queue_wait_ms_p50", percentile(&queue_ms, 50.0), queue_ms.len());
    metrics.set_sampled("serve.queue_wait_ms_p99", percentile(&queue_ms, 99.0), queue_ms.len());
    let job_ms: Vec<f64> = spans.serve_jobs.iter().map(|&(total, _)| total as f64 / 1e6).collect();
    metrics.set_sampled("serve.job_ms_p95", percentile(&job_ms, 95.0), job_ms.len());
    metrics.set_sampled("serve.job_ms_p99", percentile(&job_ms, 99.0), job_ms.len());
    metrics.set_sampled("serve.exec_ms_p50", percentile(&exec_ms, 50.0), exec_ms.len());
    let exec_s = exec_ms.iter().sum::<f64>() / 1e3;
    metrics.set("serve.busy_share", ratio(exec_s, workers as f64 * traced.wall_s));
    metrics.set("serve.worker_restarts", traced.server.health.workers_restarted as f64);
    metrics.set("serve.dedup_or_cache_hits", traced.server.deduped() as f64);

    let (gateway_s, provider_s, llm_s) =
        llm_path_metrics(metrics, &stack, &spans, &traced.ledger, records, workers, traced.wall_s);
    let pipeline_self_s = seconds(spans.kind(SpanKind::Pipeline).self_ns);
    let module_self_s = seconds(spans.kind(SpanKind::Op).self_ns);
    metrics.set("core.pipeline_self_us_per_job", pipeline_self_s * 1e6 / window_jobs);
    metrics.set("core.module_self_us_per_record", module_self_s * 1e6 / records as f64);

    let storage = probes.storage.as_ref().expect("stream_dedup journals");
    let log = storage.take_log();
    let driver_storage_s = seconds(log.driver_ns);
    let durable_s = durable_metrics(metrics, &log, records, encode_us_per_record(inputs, 512));
    metrics.set("durable.file_over_off", ratio(reference_s, off.wall_s));

    metrics.set("trace.overhead_share", ratio(traced_s - reference_s, reference_s));
    metrics.set("trace.events_per_job", spans.events as f64 / window_jobs);

    // The ingest thread's own time: its calls, less the storage time spent
    // on it and the back-off sleeps of its stalled submissions.
    let ingest_s = traced.ingest_us.iter().sum::<f64>() / 1e6;
    let stalled_s = snapshot.backpressure_stalls as f64 * 500e-6;
    let busy = Busy {
        core: pipeline_self_s + module_self_s,
        gateway: gateway_s,
        provider: provider_s,
        llm_sim: llm_s,
        durable: durable_s,
        stream: ingest_s - driver_storage_s - stalled_s,
        ..Busy::default()
    };
    busy.publish(metrics);
    // Time between ingest calls: the benchmark's own loop.
    metrics.set(
        "unattributed_share",
        ratio((traced.wall_s - ingest_s - traced.finish_s).abs(), traced.wall_s),
    );

    let phases = [&reference, &traced, &off, &reference_again, &traced_again];
    if phases
        .iter()
        .any(|phase| window_verdicts(&phase.reports) != window_verdicts(&traced.reports))
    {
        notes.push("oracle: the traced run's phases disagree on window reports".to_string());
    }
    for phase in phases {
        let snapshot = &phase.snapshot;
        if !snapshot.record_conservation_holds() || !snapshot.window_conservation_holds() {
            notes.push(format!("oracle: conservation broken: {}", snapshot.report()));
        }
    }
    (
        phases.iter().map(|phase| phase.attempted()).sum(),
        phases.iter().map(|phase| phase.failed()).sum(),
    )
}
