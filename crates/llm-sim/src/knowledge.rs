//! The simulated LLM's knowledge base: a calibrated subset of the world.
//!
//! Construction draws deterministic "does the model know this?" coin flips
//! per fact, keyed by `(seed, fact)`, so knowledge is stable across calls —
//! the model either knows a beer or it doesn't, every time it is asked.

use crate::calibration::Calibration;
use lingua_dataset::world::{Language, WorldSpec};
use lingua_ml::fnv::fingerprint;
use lingua_ml::textsim;
use std::collections::{BTreeMap, BTreeSet};

/// Which entity universe a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityDomain {
    Beer,
    Restaurant,
    Song,
}

/// One entity the model knows, with normalized match keys.
#[derive(Debug, Clone)]
struct KbEntity {
    id: u64,
    /// Normalized primary key text (beer name / restaurant name / song title).
    primary: String,
    /// Normalized secondary key text (brewery / city+addr / artist).
    secondary: String,
}

/// Per-language name knowledge.
#[derive(Debug, Clone, Default)]
struct NameKnowledge {
    given: BTreeSet<String>,
    surnames: BTreeSet<String>,
}

/// The knowledge base.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    beers: Vec<KbEntity>,
    restaurants: Vec<KbEntity>,
    songs: Vec<KbEntity>,
    /// Known product-line → manufacturer facts (lowercased line).
    line_owners: BTreeMap<String, String>,
    /// The full manufacturer vocabulary (brand names are common knowledge).
    manufacturers: Vec<String>,
    names: BTreeMap<Language, NameKnowledge>,
    function_words: BTreeMap<Language, BTreeSet<String>>,
    /// Known non-person proper nouns (places, orgs) across languages.
    distractors: BTreeSet<String>,
}

fn normalize(text: &str) -> String {
    textsim::tokens(text).join(" ")
}

/// Stable pseudo-random draw in [0,1) for a `(seed, key)` pair.
fn stable_draw(seed: u64, key: &str) -> f64 {
    let h = fingerprint(&format!("{seed}:{key}"));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl KnowledgeBase {
    /// Build the knowledge base from a world, keeping each fact with its
    /// calibrated coverage probability.
    pub fn from_world(world: &WorldSpec, calibration: &Calibration, seed: u64) -> KnowledgeBase {
        let beers = world
            .beers
            .iter()
            .filter(|b| {
                stable_draw(seed, &format!("beer:{}:{}", b.brewery, b.name))
                    < calibration.beer_entity_coverage
            })
            .map(|b| KbEntity {
                id: b.id,
                primary: normalize(&b.name),
                secondary: normalize(&b.brewery),
            })
            .collect();
        let restaurants = world
            .restaurants
            .iter()
            .filter(|r| {
                stable_draw(seed, &format!("rest:{}:{}", r.name, r.city))
                    < calibration.restaurant_entity_coverage
            })
            .map(|r| KbEntity {
                id: r.id,
                primary: normalize(&r.name),
                secondary: normalize(&format!("{} {}", r.addr, r.city)),
            })
            .collect();
        let songs = world
            .songs
            .iter()
            .filter(|s| {
                stable_draw(seed, &format!("song:{}:{}", s.artist, s.title))
                    < calibration.song_entity_coverage
            })
            .map(|s| KbEntity {
                id: s.id,
                primary: normalize(&s.title),
                secondary: normalize(&s.artist),
            })
            .collect();

        let line_owners = world
            .product_line_owners
            .iter()
            .filter(|(line, _)| {
                stable_draw(seed, &format!("line:{line}")) < calibration.product_line_coverage
            })
            .map(|(line, owner)| (line.clone(), owner.clone()))
            .collect();

        let mut manufacturers: Vec<String> = world
            .product_line_owners
            .values()
            .cloned()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        manufacturers.sort_by_key(|m| std::cmp::Reverse(m.len()));

        let mut names = BTreeMap::new();
        let mut function_words = BTreeMap::new();
        let mut distractors = BTreeSet::new();
        for (lang, lexicon) in &world.lexicons {
            let coverage = match lang {
                Language::English => calibration.name_coverage_english,
                Language::Chinese | Language::Japanese => calibration.name_coverage_cjk,
                _ => calibration.name_coverage_latin,
            };
            let knowledge = NameKnowledge {
                given: lexicon
                    .given_names
                    .iter()
                    .filter(|n| stable_draw(seed, &format!("given:{}:{n}", lang.code())) < coverage)
                    .cloned()
                    .collect(),
                surnames: lexicon
                    .surnames
                    .iter()
                    .filter(|n| {
                        stable_draw(seed, &format!("surname:{}:{n}", lang.code())) < coverage
                    })
                    .cloned()
                    .collect(),
            };
            names.insert(*lang, knowledge);
            function_words.insert(*lang, lexicon.function_words.iter().cloned().collect());
            distractors.extend(lexicon.distractors.iter().cloned());
        }

        KnowledgeBase {
            beers,
            restaurants,
            songs,
            line_owners,
            manufacturers,
            names,
            function_words,
            distractors,
        }
    }

    fn entities(&self, domain: EntityDomain) -> &[KbEntity] {
        match domain {
            EntityDomain::Beer => &self.beers,
            EntityDomain::Restaurant => &self.restaurants,
            EntityDomain::Song => &self.songs,
        }
    }

    /// How many entities the model knows in a domain.
    pub fn known_count(&self, domain: EntityDomain) -> usize {
        self.entities(domain).len()
    }

    /// Try to resolve a (possibly corrupted) record to a known entity.
    ///
    /// Scores every known entity by a weighted fuzzy similarity over the
    /// primary and secondary keys; resolves only with a confident, unambiguous
    /// top match. Returns the ground-truth entity id.
    pub fn resolve(&self, domain: EntityDomain, primary: &str, secondary: &str) -> Option<u64> {
        let primary = normalize(primary);
        let secondary = normalize(secondary);
        if primary.is_empty() {
            return None;
        }
        let mut best: Option<(f64, u64)> = None;
        let mut second_best = 0.0f64;
        for entity in self.entities(domain) {
            // Token-aligned similarity: each token must find a close partner.
            // Character-level measures (Jaro-Winkler) are too lenient here —
            // shared adjectives ("Howling X" vs "Howling Y") score ~0.9.
            let p = textsim::monge_elkan(&primary, &entity.primary)
                .max(textsim::monge_elkan(&entity.primary, &primary));
            // Both keys must individually be plausible: a same-named entity
            // from a clearly different secondary context (brewery / artist /
            // address) is *not* a recall of this entity.
            if p < 0.88 {
                continue;
            }
            let s = if secondary.is_empty() {
                0.7 // neutral-ish when the record lacks the secondary field
            } else {
                textsim::monge_elkan(&secondary, &entity.secondary)
                    .max(textsim::monge_elkan(&entity.secondary, &secondary))
            };
            if s < 0.80 {
                continue;
            }
            let score = 0.65 * p + 0.35 * s;
            match best {
                Some((b, _)) if score <= b => {
                    if score > second_best {
                        second_best = score;
                    }
                }
                _ => {
                    if let Some((b, _)) = best {
                        second_best = b;
                    }
                    best = Some((score, entity.id));
                }
            }
        }
        let (score, id) = best?;
        (score > 0.86 && score - second_best > 0.03).then_some(id)
    }

    /// Compare a (possibly corrupted) record against one *specific* known
    /// entity: "I know Hoppy Badger by Stonegate — does this record describe
    /// it?". Returns `None` when the entity id is not in the knowledge base.
    ///
    /// This anchored comparison is much stronger than pairwise text
    /// similarity: the canonical form is clean, so damage on the query only
    /// has to survive one direction.
    pub fn matches_known(
        &self,
        domain: EntityDomain,
        id: u64,
        primary: &str,
        secondary: &str,
    ) -> Option<bool> {
        let entity = self.entities(domain).iter().find(|e| e.id == id)?;
        let primary = normalize(primary);
        let secondary = normalize(secondary);
        if primary.is_empty() {
            return None;
        }
        let p = textsim::monge_elkan(&primary, &entity.primary)
            .max(textsim::monge_elkan(&entity.primary, &primary));
        let s = if secondary.is_empty() {
            0.75
        } else {
            textsim::monge_elkan(&secondary, &entity.secondary)
                .max(textsim::monge_elkan(&entity.secondary, &secondary))
        };
        Some(p >= 0.80 && s >= 0.70)
    }

    /// Known manufacturer appearing verbatim (case-insensitive) in the text.
    pub fn manufacturer_in_text(&self, text: &str) -> Option<&str> {
        let lowered = text.to_lowercase();
        self.manufacturers
            .iter()
            .find(|m| contains_word(&lowered, &m.to_lowercase()))
            .map(|s| s.as_str())
    }

    /// Known product line contained in the text → its manufacturer.
    /// Longest matching line wins.
    pub fn line_owner_in_text(&self, text: &str) -> Option<&str> {
        let lowered = text.to_lowercase();
        self.line_owners
            .iter()
            .filter(|(line, _)| lowered.contains(line.as_str()))
            .max_by_key(|(line, _)| line.len())
            .map(|(_, owner)| owner.as_str())
    }

    /// The manufacturer vocabulary (all brands; sorted longest-first).
    pub fn manufacturers(&self) -> &[String] {
        &self.manufacturers
    }

    /// Does the model recognize `token` as a given name in `language`?
    pub fn knows_given_name(&self, language: Language, token: &str) -> bool {
        self.names.get(&language).map(|n| n.given.contains(token)).unwrap_or(false)
    }

    /// Does the model recognize `token` as a surname in `language`?
    pub fn knows_surname(&self, language: Language, token: &str) -> bool {
        self.names.get(&language).map(|n| n.surnames.contains(token)).unwrap_or(false)
    }

    /// Is this capitalized token a known non-person proper noun?
    pub fn is_known_place_or_org(&self, token: &str) -> bool {
        self.distractors.contains(token)
    }

    /// Detect a text's language by counting per-language function words.
    /// Returns the best language and its margin over the runner-up (0 when
    /// nothing matched at all).
    pub fn detect_language(&self, text: &str) -> (Language, f64) {
        let tokens = textsim::tokens(text);
        let mut scores: Vec<(Language, f64)> = self
            .function_words
            .iter()
            .map(|(lang, words)| {
                let hits = tokens.iter().filter(|t| words.contains(t.as_str())).count();
                (*lang, hits as f64)
            })
            .collect();
        scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let (best, best_score) = scores[0];
        let second = scores.get(1).map(|s| s.1).unwrap_or(0.0);
        if best_score == 0.0 {
            (Language::English, 0.0)
        } else {
            (best, (best_score - second) / best_score.max(1.0))
        }
    }
}

/// Word-boundary-ish containment: `needle` appears and is not glued to
/// alphanumeric neighbours.
fn contains_word(haystack: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let abs = start + pos;
        let before_ok =
            abs == 0 || !haystack[..abs].chars().next_back().is_some_and(|c| c.is_alphanumeric());
        let after = abs + needle.len();
        let after_ok = after >= haystack.len()
            || !haystack[after..].chars().next().is_some_and(|c| c.is_alphanumeric());
        if before_ok && after_ok {
            return true;
        }
        start = abs + needle.len().max(1);
        if start >= haystack.len() {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> (WorldSpec, KnowledgeBase) {
        let world = WorldSpec::generate(11);
        let kb = KnowledgeBase::from_world(&world, &Calibration::default(), 7);
        (world, kb)
    }

    #[test]
    fn coverage_is_roughly_calibrated() {
        let (world, kb) = kb();
        let cal = Calibration::default();
        let frac = kb.known_count(EntityDomain::Beer) as f64 / world.beers.len() as f64;
        assert!((frac - cal.beer_entity_coverage).abs() < 0.08, "beer coverage {frac}");
        let frac = kb.known_count(EntityDomain::Restaurant) as f64 / world.restaurants.len() as f64;
        assert!((frac - cal.restaurant_entity_coverage).abs() < 0.08, "restaurant coverage {frac}");
    }

    #[test]
    fn knowledge_is_deterministic() {
        let world = WorldSpec::generate(11);
        let a = KnowledgeBase::from_world(&world, &Calibration::default(), 7);
        let b = KnowledgeBase::from_world(&world, &Calibration::default(), 7);
        assert_eq!(a.known_count(EntityDomain::Song), b.known_count(EntityDomain::Song));
        // Different seed → different subset (with overwhelming probability).
        let c = KnowledgeBase::from_world(&world, &Calibration::default(), 8);
        let same = a.known_count(EntityDomain::Beer) == c.known_count(EntityDomain::Beer);
        // Counts may coincide, but membership rarely does; check via resolve
        // disagreement on at least one beer.
        let mut disagreements = 0;
        for beer in world.beers.iter().take(50) {
            let ra = a.resolve(EntityDomain::Beer, &beer.name, &beer.brewery);
            let rc = c.resolve(EntityDomain::Beer, &beer.name, &beer.brewery);
            if ra != rc {
                disagreements += 1;
            }
        }
        assert!(disagreements > 0 || !same);
    }

    #[test]
    fn resolve_finds_known_entities_despite_noise() {
        let (world, kb) = kb();
        let mut hits = 0;
        let mut misresolved = 0;
        let mut attempts = 0;
        for beer in &world.beers {
            if let Some(id) = kb.resolve(EntityDomain::Beer, &beer.name, &beer.brewery) {
                if id == beer.id {
                    hits += 1;
                } else {
                    // A same-named beer from a similar brewery can win when
                    // the true one is outside the knowledge base — realistic
                    // entity confusion, but it must stay rare.
                    misresolved += 1;
                }
            }
            attempts += 1;
        }
        // Roughly the coverage fraction resolves correctly.
        let coverage = Calibration::default().beer_entity_coverage;
        let rate = hits as f64 / attempts as f64;
        assert!((rate - coverage).abs() < 0.12, "resolve rate {rate} vs coverage {coverage}");
        assert!(
            (misresolved as f64) < 0.08 * attempts as f64,
            "too many misresolutions: {misresolved}/{attempts}"
        );
    }

    #[test]
    fn resolve_rejects_unknown_text() {
        let (_, kb) = kb();
        assert_eq!(kb.resolve(EntityDomain::Beer, "completely unheard of brew", "nowhere"), None);
        assert_eq!(kb.resolve(EntityDomain::Beer, "", ""), None);
    }

    #[test]
    fn manufacturer_and_line_lookup() {
        let (world, kb) = kb();
        // A product with the brand in its name.
        let in_name = world
            .products
            .iter()
            .find(|p| p.mention == lingua_dataset::world::BrandMention::InName)
            .unwrap();
        assert_eq!(kb.manufacturer_in_text(&in_name.name), Some(in_name.manufacturer.as_str()));
        // Line lookup returns the right owner for known lines.
        let mut known_line_hits = 0;
        for p in &world.products {
            if let Some(owner) = kb.line_owner_in_text(&p.name) {
                assert_eq!(owner, p.manufacturer, "line owner mismatch for {}", p.name);
                known_line_hits += 1;
            }
        }
        assert!(known_line_hits > 0);
    }

    #[test]
    fn contains_word_requires_boundaries() {
        assert!(contains_word("the sony card", "sony"));
        assert!(!contains_word("thesonycard", "sony"));
        assert!(contains_word("sony", "sony"));
        assert!(!contains_word("sonya smith", "sony"));
    }

    #[test]
    fn language_detection_works_per_language() {
        let (world, kb) = kb();
        use lingua_dataset::generators::names::{generate, NamesConfig};
        for lang in Language::ALL {
            let config =
                NamesConfig { passages: 6, language_mix: vec![(lang, 1.0)], sentences: (2, 3) };
            let corpus = generate(&world, &config, 3);
            let correct = corpus.iter().filter(|p| kb.detect_language(&p.text).0 == lang).count();
            assert!(correct >= 5, "{lang:?}: {correct}/6 detected");
        }
    }

    #[test]
    fn name_knowledge_respects_language() {
        let (_, kb) = kb();
        // English lexicon coverage is high, so most English names are known.
        let mut known = 0;
        for n in ["James", "Mary", "Robert", "Patricia", "John", "Jennifer"] {
            if kb.knows_given_name(Language::English, n) {
                known += 1;
            }
        }
        assert!(known >= 5, "english given-name knowledge too low: {known}/6");
        // A German surname is not English knowledge.
        assert!(!kb.knows_surname(Language::English, "Müller"));
    }

    #[test]
    fn distractors_are_known_places() {
        let (_, kb) = kb();
        assert!(kb.is_known_place_or_org("London"));
        assert!(kb.is_known_place_or_org("Paris"));
        assert!(!kb.is_known_place_or_org("James"));
    }
}
