//! A pair judgment's list form is its per-pair form, verdict for verdict.
//!
//! A [`PipelinedMapModule`] over a pair-judging [`LlmModule`] asks a job's
//! pairs with one numbered prompt. Every output must still be the one
//! `invoke` gives that pair alone: on `er_provider`'s pairs (the benchmark's
//! generator, reproduced here), on all three Table 1 domains zero-shot and
//! with four examples, and on the forced edge cases a scripted service
//! produces — a missing, verbose or unparseable answer line, a one-pair
//! list, a list that gets no answer, a dead job.

use lingua_core::modules::{LlmModule, Module, PipelinedMapModule, PromptBuilder};
use lingua_core::validation::OutputValidator;
use lingua_core::{CoreError, Data, ExecContext};
use lingua_dataset::generators::er::{generate, ErDataset};
use lingua_dataset::labels::PairSplit;
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{
    BatchOutcome, CancelReason, CancelToken, CompletionRequest, LlmService, NoAnswer, SimLlm,
    SimLlmConfig, Usage,
};
use lingua_ml::sync::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

const ER_PROVIDER_DESCRIPTION: &str =
    "Please determine if the following two records refer to the same entity.";

fn judge(examples: Vec<(String, bool)>) -> LlmModule {
    LlmModule::new(
        "er_judge",
        PromptBuilder::PairJudgment { description: ER_PROVIDER_DESCRIPTION.into(), examples },
        OutputValidator::YesNo,
    )
}

fn pair(a: String, b: String) -> Data {
    Data::map([("a".to_string(), Data::Str(a)), ("b".to_string(), Data::Str(b))])
}

fn split_pairs(split: &PairSplit) -> impl Iterator<Item = (String, String)> + '_ {
    let all = split.train.iter().chain(&split.valid).chain(&split.test);
    all.map(|p| (p.left.describe(&split.schema), p.right.describe(&split.schema)))
}

/// The first `count` jobs of `er_provider` at `seed`: eight textually
/// distinct BeerAdvo-RateBeer pairs each, drawn as the benchmark draws them.
fn er_provider_jobs(world: &WorldSpec, seed: u64, count: usize) -> Vec<Vec<Data>> {
    let mut seen = HashSet::new();
    let mut pairs = Vec::new();
    let mut split_seed = seed;
    while pairs.len() < count * 8 {
        let split = generate(world, ErDataset::BeerAdvoRateBeer, split_seed);
        split_seed = split_seed.wrapping_add(1);
        for (a, b) in split_pairs(&split) {
            if seen.insert((a.clone(), b.clone())) {
                pairs.push(pair(a, b));
            }
        }
    }
    pairs.chunks(8).take(count).map(<[Data]>::to_vec).collect()
}

fn sim(world: &WorldSpec, seed: u64) -> Arc<SimLlm> {
    Arc::new(SimLlm::new(world, SimLlmConfig { seed, ..Default::default() }))
}

fn map_over(module: LlmModule, depth: usize) -> PipelinedMapModule {
    PipelinedMapModule::new("match_batch", depth, move || {
        module.fresh_instance().expect("an LLM module replicates")
    })
}

/// Each job through the map (the list form) and each pair through `invoke`
/// on a service of its own: equal outputs, and fewer calls and tokens for
/// the map.
fn assert_equivalent(
    world: &WorldSpec,
    seed: u64,
    examples: &[(String, bool)],
    jobs: &[Vec<Data>],
) {
    let (listed, alone) = (sim(world, seed), sim(world, seed));
    let mut map = map_over(judge(examples.to_vec()), 4);
    let mut map_ctx = ExecContext::new(Arc::clone(&listed) as Arc<dyn LlmService>);
    let mut pair_ctx = ExecContext::new(Arc::clone(&alone) as Arc<dyn LlmService>);
    for (index, job) in jobs.iter().enumerate() {
        let got = map.invoke(Data::List(job.clone()), &mut map_ctx).expect("the map answers");
        let want: Vec<Data> = job
            .iter()
            .map(|item| {
                let mut single = judge(examples.to_vec());
                single.invoke(item.clone(), &mut pair_ctx).expect("the pair is answered")
            })
            .collect();
        assert_eq!(got, Data::List(want), "seed {seed}, job {index}");
    }
    let (listed, alone) = (listed.usage(), alone.usage());
    assert!(listed.calls < alone.calls, "seed {seed}: {listed:?} vs {alone:?}");
    assert!(listed.tokens_in < alone.tokens_in, "seed {seed}: {listed:?} vs {alone:?}");
}

#[test]
fn er_provider_pairs_get_their_per_pair_verdicts_at_both_seeds() {
    for seed in [11, 7919] {
        let world = WorldSpec::generate(seed);
        let jobs = er_provider_jobs(&world, seed, 40);
        assert_equivalent(&world, seed, &[], &jobs);
    }
}

#[test]
fn every_table1_domain_gets_its_per_pair_verdicts_zero_shot_and_with_examples() {
    for dataset in ErDataset::ALL {
        let world = WorldSpec::generate(1000);
        let split = generate(&world, dataset, 77);
        let positives = split.train.iter().filter(|p| p.label).take(2);
        let negatives = split.train.iter().filter(|p| !p.label).take(2);
        let examples: Vec<(String, bool)> = positives
            .chain(negatives)
            .map(|p| {
                let a = p.left.describe(&split.schema);
                let b = p.right.describe(&split.schema);
                (format!("A: {a} | B: {b}"), p.label)
            })
            .collect();
        assert_eq!(examples.len(), 4, "{}", dataset.name());
        let pairs: Vec<Data> = split_pairs(&split).map(|(a, b)| pair(a, b)).collect();
        // Lists of 20 pairs: three numbered prompts each, over the lanes.
        let jobs: Vec<Vec<Data>> = pairs.chunks(20).take(12).map(<[Data]>::to_vec).collect();
        assert_equivalent(&world, 1000, &[], &jobs);
        assert_equivalent(&world, 1000, &examples, &jobs);
    }
}

// ---------------------------------------------------------------------------
// Forced edge cases, through a scripted service
// ---------------------------------------------------------------------------

/// What the script answers one prompt; `None` is a `NoAnswer::Unavailable`.
type Script = dyn Fn(&str) -> Option<String> + Send + Sync;

/// A service that answers by script and logs every prompt it was asked.
struct Scripted {
    script: Box<Script>,
    asked: Mutex<Vec<String>>,
}

impl Scripted {
    fn new(script: impl Fn(&str) -> Option<String> + Send + Sync + 'static) -> Arc<Scripted> {
        Arc::new(Scripted { script: Box::new(script), asked: Mutex::new(Vec::new()) })
    }

    fn asked(&self) -> Vec<String> {
        self.asked.lock().clone()
    }
}

impl LlmService for Scripted {
    fn complete_batch(&self, requests: &[CompletionRequest]) -> BatchOutcome {
        requests
            .iter()
            .map(|request| {
                if let Some(reason) = request.cancelled() {
                    return (Err(NoAnswer::Cancelled(reason)), Usage::default());
                }
                self.asked.lock().push(request.prompt.clone());
                let mut usage = Usage::default();
                usage.record(1, 1);
                let answer = (self.script)(&request.prompt).ok_or(NoAnswer::Unavailable);
                (answer.map(Arc::from), usage)
            })
            .collect()
    }

    fn embed(&self, _text: &str) -> Vec<f64> {
        Vec::new()
    }

    fn usage(&self) -> Usage {
        let mut usage = Usage::default();
        for _ in self.asked.lock().iter() {
            usage.record(1, 1);
        }
        usage
    }

    fn simulated_latency_ms(&self) -> u64 {
        0
    }
}

const NUMBERED: &str = "Numbered request:";
const STRICT: &str = "Respond with exactly `yes` or `no`, nothing else.";

/// The pairs of a numbered prompt, in order: each `Record A:` line's value
/// with the `Record B:` line after it.
fn members(prompt: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut a = None;
    for line in prompt.lines() {
        if let Some(value) = line.strip_prefix("Record A: ") {
            a = Some(value.to_string());
        } else if let Some(value) = line.strip_prefix("Record B: ") {
            out.push((a.take().expect("A before B"), value.to_string()));
        }
    }
    out
}

/// The pair a single prompt asks about, and whether it is the strict retry
/// (which repeats the format pin).
fn single(prompt: &str) -> ((String, String), bool) {
    let pair = members(prompt).pop().expect("a pair prompt");
    (pair, prompt.matches(STRICT).count() == 2)
}

fn scripted_pairs(count: usize) -> Vec<Data> {
    (0..count).map(|i| pair(format!("name: beer {i}"), format!("name: beer {}", i % 3))).collect()
}

/// The verdict the script gives a pair asked alone: the same name or not.
fn verdict((a, b): &(String, String)) -> &'static str {
    if a == b {
        "yes"
    } else {
        "no"
    }
}

/// The map's result, the per-pair results, and what the map's service was
/// asked.
type Both = (Result<Data, CoreError>, Result<Vec<Data>, CoreError>, Vec<String>);

/// Run `pairs` through a map over a YesNo judge on `service`, and each pair
/// through `invoke` on `reference`.
fn run_both(service: Arc<Scripted>, reference: Arc<Scripted>, pairs: &[Data]) -> Both {
    let mut map = map_over(judge(Vec::new()), 4);
    let mut ctx = ExecContext::new(Arc::clone(&service) as Arc<dyn LlmService>);
    let got = map.invoke(Data::List(pairs.to_vec()), &mut ctx);
    let mut reference_ctx = ExecContext::new(reference as Arc<dyn LlmService>);
    let want = pairs
        .iter()
        .map(|item| judge(Vec::new()).invoke(item.clone(), &mut reference_ctx))
        .collect::<Result<Vec<_>, _>>();
    (got, want, service.asked())
}

/// A script that answers numbered prompts through `line` (member index,
/// pair → the line, or none) and single prompts through `alone`.
fn script(
    line: impl Fn(usize, &(String, String)) -> Option<String> + Send + Sync + 'static,
    alone: impl Fn(&(String, String), bool) -> String + Send + Sync + 'static,
) -> impl Fn(&str) -> Option<String> + Send + Sync + 'static {
    move |prompt: &str| {
        if prompt.starts_with(NUMBERED) {
            let pairs = members(prompt);
            let lines = pairs.iter().enumerate().filter_map(|(i, m)| line(i, m));
            Some(lines.collect::<Vec<_>>().join("\n"))
        } else {
            let (pair, strict) = single(prompt);
            Some(alone(&pair, strict))
        }
    }
}

fn numbered(asked: &[String]) -> usize {
    asked.iter().filter(|p| p.starts_with(NUMBERED)).count()
}

#[test]
fn a_missing_line_asks_only_its_pair_again() {
    let answer = || {
        script(
            |i, m| (i != 2).then(|| format!("{}: {}", i + 1, verdict(m))),
            |m, _| verdict(m).to_string(),
        )
    };
    let pairs = scripted_pairs(6);
    let (got, want, asked) = run_both(Scripted::new(answer()), Scripted::new(answer()), &pairs);
    assert_eq!(got.unwrap(), Data::List(want.unwrap()));
    assert_eq!(numbered(&asked), 1);
    assert_eq!(asked.len(), 2, "the numbered prompt and member 3 alone: {asked:#?}");
    assert_eq!(single(&asked[1]).0, members(&asked[0])[2]);
}

#[test]
fn a_verbose_line_is_validated_like_a_verbose_answer() {
    let answer = || {
        script(
            |i, m| {
                let text = if verdict(m) == "yes" {
                    "Yes, these records refer to the same entity."
                } else {
                    "No. The records describe different items."
                };
                Some(format!("{}: {text}", i + 1))
            },
            |m, _| verdict(m).to_string(),
        )
    };
    let pairs = scripted_pairs(5);
    let (got, want, asked) = run_both(Scripted::new(answer()), Scripted::new(answer()), &pairs);
    assert_eq!(got.unwrap(), Data::List(want.unwrap()));
    assert_eq!(asked.len(), 1, "no pair is asked again");
}

#[test]
fn an_unparseable_line_takes_invokes_steps_to_the_same_raw_text() {
    // Pair 1 is unreadable in the list, alone, and after the strict retry:
    // both paths place the retry and end in the retry's raw text, as
    // `invoke` does. Pair 4 recovers on the retry.
    let answer = || {
        script(
            |i, m| {
                Some(format!(
                    "{}: {}",
                    i + 1,
                    if i == 1 || i == 4 { "hard to say" } else { verdict(m) }
                ))
            },
            |m, strict| match (m.0.as_str(), strict) {
                ("name: beer 1", false) => "hard to say".to_string(),
                ("name: beer 1", true) => "perhaps".to_string(),
                ("name: beer 4", false) => "unclear".to_string(),
                _ => verdict(m).to_string(),
            },
        )
    };
    let pairs = scripted_pairs(6);
    let (got, want, asked) = run_both(Scripted::new(answer()), Scripted::new(answer()), &pairs);
    let want = want.unwrap();
    assert_eq!(want[1], Data::Str("perhaps".into()));
    assert_eq!(want[4], Data::Bool(false));
    assert_eq!(got.unwrap(), Data::List(want));
    // The numbered prompt, then each unusable pair's prompt and retry.
    assert_eq!(asked.len(), 5, "{asked:#?}");
    assert_eq!(numbered(&asked), 1);
}

#[test]
fn a_one_pair_list_places_the_pairs_own_prompt() {
    let answer =
        || script(|i, m| Some(format!("{}: {}", i + 1, verdict(m))), |m, _| verdict(m).to_string());
    let pairs = scripted_pairs(1);
    let (got, want, asked) = run_both(Scripted::new(answer()), Scripted::new(answer()), &pairs);
    assert_eq!(got.unwrap(), Data::List(want.unwrap()));
    assert_eq!(numbered(&asked), 0);
    assert_eq!(asked.len(), 1);
    // The module's own list form agrees, on one pair and on none.
    let service = Scripted::new(answer());
    let mut ctx = ExecContext::new(Arc::clone(&service) as Arc<dyn LlmService>);
    let mut module = judge(Vec::new());
    assert_eq!(module.invoke_list(&pairs, &mut ctx), Some(Ok(vec![Data::Bool(true)])));
    assert_eq!(module.invoke_list(&[], &mut ctx), Some(Ok(Vec::new())));
    assert_eq!(service.asked().len(), 1, "an empty list places no call");
}

#[test]
fn a_list_that_gets_no_answer_fails_typed() {
    // Twenty pairs are three numbered prompts; the one holding pair 10 gets
    // no answer, so the job fails as a per-pair job would, typed.
    let answer =
        script(|i, m| Some(format!("{}: {}", i + 1, verdict(m))), |m, _| verdict(m).to_string());
    let service = Scripted::new(move |prompt: &str| {
        if prompt.contains("Record A: name: beer 10\n") {
            None
        } else {
            answer(prompt)
        }
    });
    let reference = Scripted::new(|prompt: &str| {
        let (pair, _) = single(prompt);
        (pair.0 != "name: beer 10").then(|| verdict(&pair).to_string())
    });
    let (got, want, asked) = run_both(service, reference, &scripted_pairs(20));
    assert_eq!(got, Err(CoreError::NoAnswer(NoAnswer::Unavailable)));
    assert_eq!(want, Err(CoreError::NoAnswer(NoAnswer::Unavailable)));
    assert_eq!(numbered(&asked), 3);
    // A pair asked again alone that gets no answer fails the same way.
    let service = Scripted::new(|prompt: &str| prompt.starts_with(NUMBERED).then(String::new));
    let (got, _, asked) = run_both(service, Scripted::new(|_: &str| None), &scripted_pairs(4));
    assert_eq!(got, Err(CoreError::NoAnswer(NoAnswer::Unavailable)));
    assert_eq!(asked.len(), 2, "the numbered prompt, then the first pair alone");
}

#[test]
fn a_dead_job_is_cancelled_and_billed_nothing() {
    let world = WorldSpec::generate(11);
    let llm = sim(&world, 11);
    let mut ctx = ExecContext::new(Arc::clone(&llm) as Arc<dyn LlmService>);
    let token = CancelToken::unbounded();
    token.cancel();
    ctx.cancel = token;
    let jobs = er_provider_jobs(&world, 11, 1);
    for depth in [1, 4] {
        let mut map = map_over(judge(Vec::new()), depth);
        let got = map.invoke(Data::List(jobs[0].clone()), &mut ctx);
        assert_eq!(got, Err(CoreError::Cancelled { reason: CancelReason::Cancelled }));
        let mut module = judge(Vec::new());
        let got = module.invoke_list(&jobs[0], &mut ctx);
        assert_eq!(got, Some(Err(CoreError::Cancelled { reason: CancelReason::Cancelled })));
    }
    assert_eq!(llm.usage(), Usage::default(), "a dead job's calls are never billed");
}
