//! The metric catalogue: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` lists exactly these (the self-test holds the
//! two together); a run emits every end-to-end metric with `--trace 0` and
//! every per-layer metric with `--trace 1`, zero where a workload does not
//! touch the layer.

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound as a share of the parent's median; end-to-end only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees at the job boundary, held to a bound.
/// `job_p50_ms` is the ingest call on `stream_dedup`, whose window jobs are
/// internal. The bounds are what this host's run-to-run noise supports
/// (`results/noise_11.json`): the driver's cap of 25 % for everything that
/// moves with the host's speed, which leaves `setup_s` none larger to get.
pub const END_TO_END: &[Spec] = &[
    e2e("records_per_s", "1/s", "higher", 0.25),
    e2e("job_p50_ms", "ms", "lower", 0.25),
    e2e("usd_per_1k_records", "usd", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Also measured on the untraced run and kept in the document, but held to
/// no bound: across ten seeds on this host the tail latencies spread 15-37 %
/// on `er_provider` and peak RSS is bimodal there (47 or 58 MB), so by the
/// issue's own rule they are demoted rather than left in with a bound that
/// means nothing.
pub const MEASURED_EXTRA: &[Spec] = &[
    layer("job_p95_ms", "ms", "lower"),
    layer("job_p99_ms", "ms", "lower"),
    layer("peak_rss_mb", "MB", "lower"),
];

pub const PER_LAYER: &[Spec] = &[
    layer("serve.queue_wait_ms_p50", "ms", "lower"),
    layer("serve.queue_wait_ms_p99", "ms", "lower"),
    layer("serve.job_ms_p95", "ms", "lower"),
    layer("serve.job_ms_p99", "ms", "lower"),
    layer("serve.exec_ms_p50", "ms", "lower"),
    layer("serve.busy_share", "ratio", "higher"),
    layer("serve.submit_us_p50", "us", "lower"),
    layer("serve.metrics_snapshot_us", "us", "lower"),
    layer("serve.worker_restarts", "count", "lower"),
    layer("serve.dedup_or_cache_hits", "count", "lower"),
    layer("gateway.batch_wait_ms_p50", "ms", "lower"),
    layer("gateway.batch_occupancy_mean", "count", "higher"),
    layer("gateway.batches", "count", "lower"),
    layer("gateway.batch_splits", "count", "lower"),
    layer("gateway.wire_calls_per_record", "count", "lower"),
    layer("gateway.batched_over_unbatched", "ratio", "lower"),
    layer("gateway.self_us_per_request", "us", "lower"),
    layer("gateway.attempts_per_request", "count", "lower"),
    layer("gateway.failovers", "count", "lower"),
    layer("gateway.degraded", "count", "lower"),
    layer("provider.toll_share", "ratio", "lower"),
    layer("llm_sim.call_us_p50", "us", "lower"),
    layer("llm_sim.busy_share", "ratio", "lower"),
    layer("llm_sim.cache_hit_share", "ratio", "higher"),
    layer("llm_sim.tokens_per_record", "count", "lower"),
    layer("core.pipeline_self_us_per_job", "us", "lower"),
    layer("core.module_self_us_per_record", "us", "lower"),
    layer("core.convert_us_per_record", "us", "lower"),
    layer("core.llmgc_build_s", "s", "lower"),
    layer("script.exec_us_per_record", "us", "lower"),
    layer("durable.appends_per_job", "count", "lower"),
    layer("durable.bytes_per_job", "bytes", "lower"),
    layer("durable.append_us_p50", "us", "lower"),
    layer("durable.append_us_p99", "us", "lower"),
    layer("durable.fsyncs", "count", "lower"),
    layer("durable.checkpoints", "count", "lower"),
    layer("durable.checkpoint_s", "s", "lower"),
    layer("durable.checkpoint_bytes", "bytes", "lower"),
    layer("durable.write_amplification", "ratio", "lower"),
    layer("durable.encode_us_per_record", "us", "lower"),
    layer("durable.replay_records_per_s", "1/s", "higher"),
    layer("durable.file_over_off", "ratio", "lower"),
    layer("durable.recover_s", "s", "lower"),
    layer("durable.recover_skipped_duplicates", "count", "higher"),
    layer("stream.ingest_us_p50", "us", "lower"),
    layer("stream.ingest_us_p99", "us", "lower"),
    layer("stream.finish_s", "s", "lower"),
    layer("stream.comparisons_per_record", "count", "lower"),
    layer("stream.backpressure_stalls", "count", "lower"),
    layer("stream.late_dropped", "count", "lower"),
    layer("stream.window_jobs", "count", "lower"),
    layer("stream.pairs_judged", "count", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.events_per_job", "count", "lower"),
    layer("dataset.generate_s", "s", "lower"),
    layer("process.peak_rss_mb", "MB", "lower"),
    layer("share.serve", "ratio", "lower"),
    layer("share.core", "ratio", "lower"),
    layer("share.script", "ratio", "lower"),
    layer("share.gateway", "ratio", "lower"),
    layer("share.provider", "ratio", "lower"),
    layer("share.llm_sim", "ratio", "lower"),
    layer("share.durable", "ratio", "lower"),
    layer("share.stream", "ratio", "lower"),
    layer("unattributed_share", "ratio", "lower"),
    layer("failed_share", "ratio", "lower"),
];

/// One emitted value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
}

/// The values of one run: starts with every metric of `specs` at zero.
pub struct Metrics {
    values: Vec<Metric>,
}

impl Metrics {
    pub fn zeroed(specs: &'static [Spec]) -> Metrics {
        Metrics {
            values: specs
                .iter()
                .map(|spec| Metric { name: spec.name, unit: spec.unit, value: 0.0, samples: None })
                .collect(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut Metric {
        self.values
            .iter_mut()
            .find(|metric| metric.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.slot(name).value = value;
    }

    /// A percentile, with the size of the sample it was taken from.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: usize) {
        let slot = self.slot(name);
        slot.value = value;
        slot.samples = Some(samples);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|metric| metric.name == name).map_or(0.0, |metric| metric.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.values.iter()
    }
}
