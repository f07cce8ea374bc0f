//! Code generation under chaos. LLMGC asks for its drafts, fix suggestions
//! and repairs as completions, so they cross the gateway's fault handling
//! like any call: retries, breaker and degradation. Building the Fig. 4
//! imputer over a `FaultInjector` at `LINGUA_CHAOS_FAULT_RATE` (default
//! 0.2; CI's chaos job runs 0.5) ends in one of two ways. Either the build
//! passes with the fault-free program, byte for byte, or it fails with a
//! typed `CoreError`. It never panics, and never yields a program the LLM
//! did not write.

use lingua_core::{CoreError, ExecContext};
use lingua_dataset::generators::imputation::generate;
use lingua_dataset::world::WorldSpec;
use lingua_gateway::{FaultInjector, FaultPlan, Gateway};
use lingua_llm_sim::{LlmService, NoAnswer, SimLlm};
use lingua_tasks::imputation::lingua::{register_tools, LinguaImputer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn fault_rate() -> f64 {
    std::env::var("LINGUA_CHAOS_FAULT_RATE")
        .ok()
        .and_then(|raw| raw.parse::<f64>().ok())
        .filter(|rate| (0.0..=1.0).contains(rate))
        .unwrap_or(0.20)
}

/// Build the imputer for Table 2's world `seed` over `llm`; a panic fails
/// the test by name.
fn build(seed: u64, llm: Arc<dyn LlmService>) -> Result<LinguaImputer, CoreError> {
    let world = WorldSpec::generate(2000 + seed);
    let mut ctx = ExecContext::new(llm);
    register_tools(&mut ctx, &generate(&world, seed).vocabulary);
    catch_unwind(AssertUnwindSafe(|| LinguaImputer::build(&mut ctx)))
        .unwrap_or_else(|_| panic!("seed {seed}: building the imputer panicked"))
}

fn sim(seed: u64) -> Arc<SimLlm> {
    Arc::new(SimLlm::with_seed(&WorldSpec::generate(2000 + seed), 2000 + seed))
}

#[test]
fn the_fig4_imputer_builds_or_fails_typed_over_a_faulting_gateway() {
    let rate = fault_rate();
    let (mut passed, mut failed) = (0, 0);
    for seed in 0..5 {
        let reference = build(seed, sim(seed)).expect("the fault-free build passes");
        let plan = FaultPlan::uniform(rate, 40 + seed);
        let gateway = Arc::new(
            Gateway::builder()
                .backend(Arc::new(FaultInjector::new("flaky", sim(seed), plan)))
                .build(),
        );
        match build(seed, Arc::clone(&gateway) as Arc<dyn LlmService>) {
            Ok(imputer) => {
                assert_eq!(imputer.source(), reference.source(), "seed {seed}: another program");
                passed += 1;
            }
            // Every draft, suggestion and repair is the fault-free answer
            // or none, so a build can only fail for want of an answer.
            Err(err) => {
                assert_eq!(err, CoreError::NoAnswer(NoAnswer::Unavailable), "seed {seed}");
                failed += 1;
            }
        }
        let snap = gateway.snapshot();
        assert!(snap.requests > 0, "seed {seed}: code generation bypassed the gateway");
        assert_eq!(
            snap.requests,
            snap.backends.iter().map(|b| b.counters.served).sum::<u64>() + snap.degraded(),
            "seed {seed}: every request was served or degraded"
        );
    }
    eprintln!("fault rate {rate}: {passed} builds passed, {failed} failed typed");
    if rate == 0.0 {
        assert_eq!(failed, 0);
    }
}
