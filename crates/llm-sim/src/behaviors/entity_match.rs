//! Entity-match judgments.
//!
//! Decision procedure, mirroring how a knowledge-rich model behaves:
//!
//! 1. Try to *recognize* both records as known entities (fuzzy lookup in the
//!    knowledge base). If both resolve, answer from ground-truth identity
//!    with a small mis-recall rate.
//! 2. Otherwise fall back to a textual-similarity judgment. With in-context
//!    examples in the prompt the judgment is calibrated (robust per-field
//!    weighting, stricter threshold); without them it is the naive eager
//!    matcher that sinks the FMs baseline on hard negatives.

use crate::calibration::Calibration;
use crate::knowledge::{EntityDomain, KnowledgeBase};
use crate::noise;
use crate::prompt::ParsedPrompt;
use lingua_ml::rng::Rng;
use lingua_ml::textsim;
use std::collections::BTreeMap;

/// Infer the entity domain from record field names.
pub(crate) fn detect_domain(fields: &BTreeMap<String, String>) -> Option<EntityDomain> {
    if fields.contains_key("brewery") || fields.contains_key("beer_name") {
        Some(EntityDomain::Beer)
    } else if fields.contains_key("cuisine") || fields.contains_key("phone") {
        Some(EntityDomain::Restaurant)
    } else if fields.contains_key("artist_name")
        || fields.contains_key("artist")
        || fields.contains_key("album_name")
    {
        Some(EntityDomain::Song)
    } else {
        None
    }
}

fn field<'a>(fields: &'a BTreeMap<String, String>, names: &[&str]) -> &'a str {
    names.iter().find_map(|n| fields.get(*n)).map(|s| s.as_str()).unwrap_or("")
}

/// (primary, secondary) key text for knowledge-base resolution.
fn keys(domain: EntityDomain, fields: &BTreeMap<String, String>) -> (String, String) {
    match domain {
        EntityDomain::Beer => (
            field(fields, &["beer_name", "name"]).to_string(),
            field(fields, &["brewery"]).to_string(),
        ),
        EntityDomain::Restaurant => (
            field(fields, &["name"]).to_string(),
            format!("{} {}", field(fields, &["addr"]), field(fields, &["city"])),
        ),
        EntityDomain::Song => (
            field(fields, &["song_name", "title"]).to_string(),
            field(fields, &["artist_name", "artist"]).to_string(),
        ),
    }
}

/// The similarity judgment used when the entities are not recognized.
///
/// `calibrated` switches between the example-conditioned judgment and the
/// naive one.
pub(crate) fn similarity_verdict(
    a: &BTreeMap<String, String>,
    b: &BTreeMap<String, String>,
    calibrated: bool,
    threshold: f64,
) -> bool {
    pair_score(a, b, calibrated) >= threshold
}

/// The record-pair similarity score underlying the judgment, in `[0, 1]`.
pub fn pair_score(
    a: &BTreeMap<String, String>,
    b: &BTreeMap<String, String>,
    calibrated: bool,
) -> f64 {
    // Align fields by name (union).
    let names: std::collections::BTreeSet<&str> =
        a.keys().chain(b.keys()).map(|s| s.as_str()).collect();
    let mut weighted = 0.0;
    let mut total_weight = 0.0;
    for name in names {
        let va = a.get(name).map(|s| s.to_lowercase()).unwrap_or_default();
        let vb = b.get(name).map(|s| s.to_lowercase()).unwrap_or_default();
        if va.trim().is_empty() || vb.trim().is_empty() {
            continue;
        }
        let is_primary = matches!(name, "name" | "beer_name" | "song_name" | "title");
        let sim = if calibrated {
            // Robust: overlap coefficient shrugs off decorations
            // ("(Remastered)"), numeric-aware comparison for times/prices.

            textsim::overlap_tokens(&va, &vb)
                .max(textsim::jaro_winkler(&va, &vb))
                .max(textsim::numeric_sim(&va, &vb) * 0.9)
        } else {
            // Naive: brittle token Jaccard + raw edit similarity.
            0.5 * textsim::jaccard_tokens(&va, &vb) + 0.5 * textsim::levenshtein_sim(&va, &vb)
        };
        let weight = if calibrated {
            if is_primary {
                3.0
            } else {
                1.0
            }
        } else {
            1.0
        };
        weighted += sim * weight;
        total_weight += weight;
    }
    if total_weight == 0.0 {
        return 0.0;
    }
    weighted / total_weight
}

/// Parse an in-context example body of the form
/// `A: field: v; ... | B: field: v; ...` into two field maps.
pub(crate) fn parse_example_pair(
    text: &str,
) -> Option<(BTreeMap<String, String>, BTreeMap<String, String>)> {
    let rest = text.trim().strip_prefix("A:").or_else(|| text.trim().strip_prefix("a:"))?;
    let (a_text, b_text) = rest.split_once("| B:").or_else(|| rest.split_once("| b:"))?;
    let a = crate::prompt::parse_fields(a_text);
    let b = crate::prompt::parse_fields(b_text);
    (!a.is_empty() && !b.is_empty()).then_some((a, b))
}

/// Derive a decision threshold from labeled in-context examples — genuine
/// in-context calibration: score each example pair, then place the threshold
/// between the hardest negative and the easiest positive.
pub(crate) fn threshold_from_examples(examples: &[(String, bool)], fallback: f64) -> f64 {
    let mut max_negative: Option<f64> = None;
    let mut min_positive: Option<f64> = None;
    for (text, label) in examples {
        let Some((a, b)) = parse_example_pair(text) else { continue };
        let score = pair_score(&a, &b, true);
        if *label {
            min_positive = Some(min_positive.map_or(score, |m: f64| m.min(score)));
        } else {
            max_negative = Some(max_negative.map_or(score, |m: f64| m.max(score)));
        }
    }
    let threshold = match (max_negative, min_positive) {
        (Some(neg), Some(pos)) => (neg + pos) / 2.0,
        (Some(neg), None) => neg + 0.05,
        (None, Some(pos)) => pos - 0.05,
        (None, None) => fallback,
    };
    threshold.clamp(0.45, 0.97)
}

/// Produce the response text for an entity-match prompt.
pub(crate) fn respond(
    kb: &KnowledgeBase,
    calibration: &Calibration,
    parsed: &ParsedPrompt,
    rng: &mut Rng,
) -> String {
    let verbose_rate = if parsed.format_pinned {
        calibration.verbose_answer_rate_pinned
    } else {
        calibration.verbose_answer_rate_unpinned
    };

    if parsed.record_a.is_empty() || parsed.record_b.is_empty() {
        return "I need two records to compare.".to_string();
    }

    let domain = detect_domain(&parsed.record_a).or_else(|| detect_domain(&parsed.record_b));
    let calibrated = !parsed.examples.is_empty();

    // Step 1: knowledge-based recognition.
    if let Some(domain) = domain {
        let (pa, sa) = keys(domain, &parsed.record_a);
        let (pb, sb) = keys(domain, &parsed.record_b);
        let ra = kb.resolve(domain, &pa, &sa);
        let rb = kb.resolve(domain, &pb, &sb);
        if let (Some(ia), Some(ib)) = (ra, rb) {
            let mut verdict = ia == ib;
            if rng.gen_bool(calibration.known_entity_error) {
                verdict = !verdict;
            }
            return noise::render_bool(rng, verdict, verbose_rate);
        }
        // One-sided anchored recognition: only with in-context examples —
        // few-shot prompting is what elicits this careful "do both records
        // describe the entity I recognized?" reasoning (zero-shot models skip
        // straight to surface similarity, which is the FMs failure mode).
        if calibrated {
            let anchored = match (ra, rb) {
                (Some(ia), None) => kb.matches_known(domain, ia, &pb, &sb),
                (None, Some(ib)) => kb.matches_known(domain, ib, &pa, &sa),
                _ => None,
            };
            if let Some(mut verdict) = anchored {
                if rng.gen_bool(calibration.known_entity_error) {
                    verdict = !verdict;
                }
                return noise::render_bool(rng, verdict, verbose_rate);
            }
        }
    }

    // Step 2: similarity heuristic. With in-context examples the model
    // calibrates its decision threshold from them; without, it uses its
    // (eagerly low) prior.
    let threshold = if calibrated {
        threshold_from_examples(&parsed.examples, calibration.match_threshold_calibrated)
    } else {
        calibration.match_threshold_naive
    };
    let mut verdict = similarity_verdict(&parsed.record_a, &parsed.record_b, calibrated, threshold);
    if rng.gen_bool(calibration.hallucination_rate) {
        verdict = !verdict;
    }
    noise::render_bool(rng, verdict, verbose_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt;
    use lingua_dataset::world::WorldSpec;

    fn setup() -> (WorldSpec, KnowledgeBase, Calibration) {
        let world = WorldSpec::generate(5);
        let cal = Calibration::default();
        let kb = KnowledgeBase::from_world(&world, &cal, 5);
        (world, kb, cal)
    }

    fn record_line(label: &str, pairs: &[(&str, &str)]) -> String {
        let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        format!("Record {label}: {}", body.join("; "))
    }

    #[test]
    fn domain_detection() {
        let mut f = BTreeMap::new();
        f.insert("brewery".to_string(), "X".to_string());
        assert_eq!(detect_domain(&f), Some(EntityDomain::Beer));
        let mut f = BTreeMap::new();
        f.insert("phone".to_string(), "123".to_string());
        assert_eq!(detect_domain(&f), Some(EntityDomain::Restaurant));
        let mut f = BTreeMap::new();
        f.insert("artist_name".to_string(), "Y".to_string());
        assert_eq!(detect_domain(&f), Some(EntityDomain::Song));
        assert_eq!(detect_domain(&BTreeMap::new()), None);
    }

    #[test]
    fn identical_known_records_match() {
        let (world, kb, cal) = setup();
        let mut correct = 0;
        let mut total = 0;
        for beer in world.beers.iter().take(60) {
            let text = format!(
                "Determine if the following records refer to the same entity.\n{}\n{}\nAnswer yes or no.",
                record_line("A", &[("beer_name", &beer.name), ("brewery", &beer.brewery)]),
                record_line("B", &[("beer_name", &beer.name), ("brewery", &beer.brewery)]),
            );
            let parsed = prompt::parse(&text);
            let mut rng = Rng::seed_from_u64(beer.id);
            let response = respond(&kb, &cal, &parsed, &mut rng);
            if crate::noise::parse_bool_robust(&response) == Some(true) {
                correct += 1;
            }
            total += 1;
        }
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn disjoint_records_do_not_match() {
        let (world, kb, cal) = setup();
        let a = &world.beers[0];
        let b = world.beers.iter().find(|x| x.brewery != a.brewery && x.name != a.name).unwrap();
        let text = format!(
            "Same entity?\n{}\n{}\nAnswer yes or no.",
            record_line("A", &[("beer_name", &a.name), ("brewery", &a.brewery)]),
            record_line("B", &[("beer_name", &b.name), ("brewery", &b.brewery)]),
        );
        let parsed = prompt::parse(&text);
        let mut yes = 0;
        for seed in 0..20 {
            let mut rng = Rng::seed_from_u64(seed);
            let response = respond(&kb, &cal, &parsed, &mut rng);
            if crate::noise::parse_bool_robust(&response) == Some(true) {
                yes += 1;
            }
        }
        assert!(yes <= 2, "false positives: {yes}/20");
    }

    #[test]
    fn calibrated_judgment_is_more_robust_to_decorations() {
        // Same song, one side decorated — calibrated (overlap-based) should
        // say yes, naive (jaccard-based) should struggle.
        let mut a = BTreeMap::new();
        a.insert("song_name".to_string(), "Midnight Hearts".to_string());
        a.insert("artist_name".to_string(), "Ivy Parade".to_string());
        a.insert("time".to_string(), "4:05".to_string());
        let mut b = BTreeMap::new();
        b.insert(
            "song_name".to_string(),
            "Midnight Hearts (Remastered) [Deluxe Edition]".to_string(),
        );
        b.insert("artist_name".to_string(), "Ivy Parade [feat. Various]".to_string());
        b.insert("time".to_string(), "245".to_string());
        let cal = Calibration::default();
        assert!(similarity_verdict(&a, &b, true, cal.match_threshold_calibrated));
        assert!(!similarity_verdict(&a, &b, false, 0.75));
    }

    #[test]
    fn naive_judgment_overfires_on_hard_negatives() {
        // Same artist + album, different songs — superficially very similar.
        let mut a = BTreeMap::new();
        a.insert("song_name".to_string(), "Midnight Hearts".to_string());
        a.insert("artist_name".to_string(), "Ivy Parade".to_string());
        a.insert("album_name".to_string(), "Neon Rivers".to_string());
        a.insert("genre".to_string(), "Pop".to_string());
        let mut b = a.clone();
        b.insert("song_name".to_string(), "Broken Skyline".to_string());
        let cal = Calibration::default();
        // Naive threshold, equal weights: 3 of 4 fields identical -> yes.
        assert!(similarity_verdict(&a, &b, false, cal.match_threshold_naive));
        // Calibrated: primary field triple-weighted with robust sims -> no.
        assert!(!similarity_verdict(&a, &b, true, cal.match_threshold_calibrated));
    }

    #[test]
    fn missing_records_get_a_clarification() {
        let (_, kb, cal) = setup();
        let parsed = prompt::parse("Are these the same entity?");
        let mut rng = Rng::seed_from_u64(0);
        let response = respond(&kb, &cal, &parsed, &mut rng);
        assert!(response.contains("two records"));
    }
}
