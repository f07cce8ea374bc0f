//! Seeded input generation. The system under test only ever sees what this
//! module produced from `--seed`; every record is textually unique (except
//! the stream's deliberate duplicates), so serve's result cache, in-flight
//! dedup and the simulator's prompt cache all miss.

use crate::workload::Workload;
use lingua_core::Data;
use lingua_dataset::generators::stream::{StreamItem, StreamSpec};
use lingua_dataset::generators::{er, imputation, names};
use lingua_dataset::world::{WorldConfig, WorldSpec};
use lingua_dataset::Schema;
use lingua_stream::{StreamSource, SyntheticSource};
use std::collections::{BTreeMap, HashSet};

pub struct Inputs {
    pub world: WorldSpec,
    pub seed: u64,
    pub jobs: Jobs,
}

pub enum Jobs {
    /// One `Data::List` of `{a, b}` pair maps per job.
    Er(Vec<Data>),
    /// Rows are built at submit time from the product catalogue plus a lot
    /// number that makes each row unique: a 10 s phase serves ~1M rows, far
    /// more than is worth holding in memory.
    Impute {
        products: Vec<(String, String)>,
        vocabulary: Vec<String>,
        jobs: usize,
    },
    /// One document per job.
    Docs(Vec<Data>),
    Stream {
        items: Vec<StreamItem>,
        schema: Schema,
    },
}

impl Inputs {
    /// `count` jobs (stream records for `stream_dedup`).
    pub fn generate(workload: Workload, seed: u64, count: usize) -> Inputs {
        // The imputation catalogue is 20k products, not the default 650: the
        // share of rows that need the LLM is a property of the catalogue,
        // and with 650 products it moves the cost per row by +-10 % from
        // seed to seed.
        let world = match workload {
            Workload::ImputeLlmgc => WorldSpec::generate_with(
                seed,
                &WorldConfig { products: 20_000, ..Default::default() },
            ),
            _ => WorldSpec::generate(seed),
        };
        let jobs = match workload {
            Workload::ErProvider => Jobs::Er(er_jobs(&world, seed, count)),
            Workload::ImputeLlmgc => {
                let bench = imputation::generate(&world, seed);
                let products = bench
                    .table
                    .rows()
                    .iter()
                    .map(|row| (row[0].render(), row[1].render()))
                    .collect();
                Jobs::Impute { products, vocabulary: bench.vocabulary, jobs: count }
            }
            Workload::JournalSmall => {
                let config = names::NamesConfig { passages: count, ..Default::default() };
                let docs = names::generate(&world, &config, seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, passage)| Data::Str(format!("Memo {i:06}: {}", passage.text)))
                    .collect();
                Jobs::Docs(docs)
            }
            Workload::StreamDedup => {
                let mut source =
                    SyntheticSource::new(&world, StreamSpec { seed, ..Default::default() });
                let schema = source.schema().clone();
                Jobs::Stream { items: source.take_records(count), schema }
            }
        };
        Inputs { world, seed, jobs }
    }

    pub fn len(&self) -> usize {
        match &self.jobs {
            Jobs::Er(jobs) | Jobs::Docs(jobs) => jobs.len(),
            Jobs::Impute { jobs, .. } => *jobs,
            Jobs::Stream { items, .. } => items.len(),
        }
    }

    /// The serve pipeline the jobs go to and the variable they bind.
    pub fn pipeline(&self) -> (&'static str, &'static str) {
        match &self.jobs {
            Jobs::Er(_) => ("match_batch", "batch"),
            Jobs::Impute { .. } => ("impute_batch", "batch"),
            Jobs::Docs(_) => ("summ", "text"),
            Jobs::Stream { .. } => (lingua_stream::WINDOW_PIPELINE, "payload"),
        }
    }

    /// The variable the pipeline leaves its result in.
    pub fn output_var(&self) -> &'static str {
        match &self.jobs {
            Jobs::Er(_) | Jobs::Impute { .. } => "labels",
            Jobs::Docs(_) => "out",
            Jobs::Stream { .. } => "report",
        }
    }

    /// The input of job `index`.
    pub fn job(&self, index: usize) -> Data {
        match &self.jobs {
            Jobs::Er(jobs) | Jobs::Docs(jobs) => jobs[index].clone(),
            Jobs::Impute { products, .. } => {
                let rows = Workload::ImputeLlmgc.records_per_job();
                Data::List(
                    (index * rows..(index + 1) * rows).map(|lot| row(products, lot)).collect(),
                )
            }
            Jobs::Stream { .. } => unreachable!("stream records are ingested, not submitted"),
        }
    }

    pub fn request_inputs(&self, index: usize) -> BTreeMap<String, Data> {
        BTreeMap::from([(self.pipeline().1.to_string(), self.job(index))])
    }
}

fn row(products: &[(String, String)], lot: usize) -> Data {
    let (name, description) = &products[lot % products.len()];
    Data::map([
        ("name".to_string(), Data::Str(format!("{name} (lot {lot:07})"))),
        ("description".to_string(), Data::Str(description.clone())),
    ])
}

/// `count` jobs of eight textually distinct pairs, drawn from as many
/// BeerAdvo-RateBeer splits (450 pairs each) as it takes.
fn er_jobs(world: &WorldSpec, seed: u64, count: usize) -> Vec<Data> {
    let per_job = Workload::ErProvider.records_per_job();
    let mut seen = HashSet::new();
    let mut pairs = Vec::with_capacity(count * per_job);
    let mut split_seed = seed;
    while pairs.len() < count * per_job {
        let split = er::generate(world, er::ErDataset::BeerAdvoRateBeer, split_seed);
        split_seed = split_seed.wrapping_add(1);
        for pair in split.train.iter().chain(&split.valid).chain(&split.test) {
            let a = pair.left.describe(&split.schema);
            let b = pair.right.describe(&split.schema);
            if seen.insert((a.clone(), b.clone())) {
                pairs.push(Data::map([
                    ("a".to_string(), Data::Str(a)),
                    ("b".to_string(), Data::Str(b)),
                ]));
            }
        }
    }
    pairs.chunks(per_job).take(count).map(|chunk| Data::List(chunk.to_vec())).collect()
}
