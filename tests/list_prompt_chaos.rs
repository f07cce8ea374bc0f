//! Numbered prompts under chaos. A pipelined map over a pair judge asks a
//! job's pairs with one numbered prompt, which crosses the gateway's fault
//! handling like any completion: retries, breaker and degradation. Over a
//! `FaultInjector` at `LINGUA_CHAOS_FAULT_RATE` (default 0.2; CI's chaos job
//! runs 0.5) with no standby, every job ends in one of two ways: the labels
//! each pair gets asked alone on a fault-free service, or a typed
//! `CoreError` for want of an answer. No job panics, and none yields a label
//! the fault-free model did not give.

use lingua_core::modules::{LlmModule, Module, PipelinedMapModule, PromptBuilder};
use lingua_core::validation::OutputValidator;
use lingua_core::{CoreError, Data, ExecContext};
use lingua_dataset::generators::er::{generate, ErDataset};
use lingua_dataset::world::WorldSpec;
use lingua_gateway::{FaultInjector, FaultPlan, Gateway};
use lingua_llm_sim::{LlmService, NoAnswer, SimLlm};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn fault_rate() -> f64 {
    std::env::var("LINGUA_CHAOS_FAULT_RATE")
        .ok()
        .and_then(|raw| raw.parse::<f64>().ok())
        .filter(|rate| (0.0..=1.0).contains(rate))
        .unwrap_or(0.20)
}

fn er_judge() -> LlmModule {
    LlmModule::new(
        "er_judge",
        PromptBuilder::PairJudgment {
            description: "Please determine if the following two records refer to the same entity."
                .into(),
            examples: vec![],
        },
        OutputValidator::YesNo,
    )
}

/// Jobs of 8 and of 20 pairs (one numbered prompt, and three over the
/// lanes) from a BeerAdvo-RateBeer split of `world`.
fn jobs(world: &WorldSpec, seed: u64) -> Vec<Vec<Data>> {
    let split = generate(world, ErDataset::BeerAdvoRateBeer, seed);
    let pairs: Vec<Data> = split
        .train
        .iter()
        .chain(&split.test)
        .map(|p| {
            Data::map([
                ("a".to_string(), Data::Str(p.left.describe(&split.schema))),
                ("b".to_string(), Data::Str(p.right.describe(&split.schema))),
            ])
        })
        .collect();
    let (eights, twenties) = pairs.split_at(160);
    eights.chunks(8).chain(twenties.chunks(20).take(8)).map(<[Data]>::to_vec).collect()
}

#[test]
fn every_numbered_job_gets_the_per_pair_labels_or_fails_typed_over_a_faulting_gateway() {
    let rate = fault_rate();
    let (mut passed, mut failed) = (0, 0);
    for seed in [11, 7919] {
        let world = WorldSpec::generate(seed);
        let clean: Arc<dyn LlmService> = Arc::new(SimLlm::with_seed(&world, seed));
        let plan = FaultPlan::uniform(rate, 60 + seed);
        let flaky =
            Arc::new(FaultInjector::new("flaky", Arc::new(SimLlm::with_seed(&world, seed)), plan));
        let gateway = Arc::new(Gateway::builder().backend(flaky).build());
        let mut map =
            PipelinedMapModule::new("match_batch", 4, || Box::new(er_judge()) as Box<dyn Module>);
        let mut ctx = ExecContext::new(Arc::clone(&gateway) as Arc<dyn LlmService>);
        let mut reference_ctx = ExecContext::new(Arc::clone(&clean));
        for (index, job) in jobs(&world, seed).into_iter().enumerate() {
            let want: Vec<Data> = job
                .iter()
                .map(|pair| er_judge().invoke(pair.clone(), &mut reference_ctx).unwrap())
                .collect();
            let got = catch_unwind(AssertUnwindSafe(|| map.invoke(Data::List(job), &mut ctx)))
                .unwrap_or_else(|_| panic!("seed {seed}, job {index}: the map panicked"));
            match got {
                Ok(labels) => {
                    assert_eq!(labels, Data::List(want), "seed {seed}, job {index}");
                    passed += 1;
                }
                Err(err) => {
                    assert_eq!(
                        err,
                        CoreError::NoAnswer(NoAnswer::Unavailable),
                        "seed {seed}, job {index}"
                    );
                    failed += 1;
                }
            }
        }
        let snap = gateway.snapshot();
        assert_eq!(
            snap.requests,
            snap.backends.iter().map(|b| b.counters.served).sum::<u64>() + snap.degraded(),
            "seed {seed}: every request was served or degraded"
        );
    }
    eprintln!("fault rate {rate}: {passed} jobs labelled, {failed} failed typed");
    if rate == 0.0 {
        assert_eq!(failed, 0);
    }
}
