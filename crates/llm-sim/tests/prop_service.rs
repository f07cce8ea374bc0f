//! Property tests for the simulated LLM: total robustness to arbitrary
//! prompts, determinism, and monotone metering.

use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{CompletionRequest, LlmService, SimLlm};
use lingua_ml::check::{check, LOWER, PRINTABLE};
use std::sync::OnceLock;

fn service() -> &'static SimLlm {
    static SERVICE: OnceLock<(WorldSpec, SimLlm)> = OnceLock::new();
    let (_, svc) = SERVICE.get_or_init(|| {
        let world = WorldSpec::generate(999);
        let svc = SimLlm::with_seed(&world, 999);
        (world, svc)
    });
    svc
}

/// The service never panics, whatever the prompt — including prompts with
/// section markers, partial records, and non-ASCII content.
#[test]
fn completion_is_total() {
    let alphabet = format!("{PRINTABLE}àéüşğ\n");
    check(
        "completion_is_total",
        96,
        |g| g.string(&alphabet, 0..=200),
        |prompt| {
            let _ = service().complete(&CompletionRequest::new(&prompt));
        },
    );
}

/// Same prompt → same answer (temperature-0 semantics).
#[test]
fn completion_is_deterministic() {
    let alphabet = format!("{PRINTABLE}\n");
    check(
        "completion_is_deterministic",
        96,
        |g| g.string(&alphabet, 0..=120),
        |prompt| {
            let svc = service();
            let a = svc.complete(&CompletionRequest::new(&prompt));
            let b = svc.complete(&CompletionRequest::new(&prompt));
            assert_eq!(a, b);
        },
    );
}

/// Metering is monotone: every completion strictly grows the counters.
#[test]
fn metering_is_monotone() {
    let alphabet = format!("{LOWER} ");
    // Its own service: the other tests are calling the shared one meanwhile.
    let world = WorldSpec::generate(999);
    let svc = SimLlm::with_seed(&world, 999);
    check(
        "metering_is_monotone",
        96,
        |g| g.string(&alphabet, 1..=80),
        |prompt| {
            let before = svc.usage();
            let _ = svc.complete(&CompletionRequest::new(&prompt));
            let after = svc.usage();
            assert_eq!(after.calls, before.calls + 1);
            assert!(after.tokens_in > before.tokens_in);
        },
    );
}

/// Structured prompts with adversarial record content are handled:
/// fields containing the protocol's own separators must not panic and
/// must still produce a yes/no-shaped answer.
#[test]
fn entity_match_prompts_with_adversarial_fields() {
    check(
        "entity_match_prompts_with_adversarial_fields",
        96,
        |g| (g.string(PRINTABLE, 0..=40), g.string(PRINTABLE, 0..=40)),
        |(a, b)| {
            let prompt = format!(
                "Please determine if the following two records refer to the same entity.\n\
                 Record A: beer_name: {a}; brewery: {b}\n\
                 Record B: beer_name: {b}; brewery: {a}\n\
                 Answer yes or no."
            );
            let response = service().complete(&CompletionRequest::new(&prompt));
            assert!(!response.is_empty());
        },
    );
}

/// Embeddings: deterministic, fixed-dimension, finite.
#[test]
fn embeddings_are_well_formed() {
    check(
        "embeddings_are_well_formed",
        96,
        |g| g.string(PRINTABLE, 0..=120),
        |text| {
            let svc = service();
            let e = svc.embed(&text);
            assert_eq!(e.len(), 512);
            assert!(e.iter().all(|x| x.is_finite()));
            assert_eq!(svc.embed(&text), e);
        },
    );
}
