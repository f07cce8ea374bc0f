//! The simulated LLM's knowledge base: a calibrated subset of the world.
//!
//! Construction draws deterministic "does the model know this?" coin flips
//! per fact, keyed by `(seed, fact)`, so knowledge is stable across calls —
//! the model either knows a beer or it doesn't, every time it is asked.
//!
//! Recognising a record ([`KnowledgeBase::resolve`]) is an index lookup. The
//! first entity question about a domain builds that domain's `DomainIndex`:
//! every distinct token of the known entities' match keys, interned once as
//! `Vec<char>`, and each entity reduced to two lists of token ids. A lookup
//! then scores the record's few primary-key tokens against that *vocabulary*
//! — one Jaro-Winkler table per record, not one Monge-Elkan per entity — and
//! every entity's score is row and column maxima of the table, summed in the
//! order and divided by the count a per-entity `textsim::monge_elkan` would
//! use, so each `f64`, and with it every verdict, is the one that scan
//! produced (DESIGN.md §8). A knowledge base that is never asked an entity
//! question builds no index.

use crate::calibration::Calibration;
use lingua_dataset::world::{Language, WorldSpec};
use lingua_ml::fnv::fingerprint;
use lingua_ml::textsim;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Which entity universe a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityDomain {
    Beer,
    Restaurant,
    Song,
}

/// One entity the model knows, as the world spells it: what a
/// [`DomainIndex`] is built from.
#[derive(Debug, Clone)]
struct KnownEntity {
    id: u64,
    /// Beer name / restaurant name / song title.
    primary: String,
    /// Brewery / address and city / artist.
    secondary: String,
}

/// One domain of entity knowledge and, once a question has been asked about
/// it, its match index.
#[derive(Debug, Clone)]
struct Domain {
    known: Vec<KnownEntity>,
    index: OnceLock<DomainIndex>,
}

impl Domain {
    fn new(known: impl Iterator<Item = KnownEntity>) -> Domain {
        Domain { known: known.collect(), index: OnceLock::new() }
    }

    fn index(&self) -> &DomainIndex {
        self.index.get_or_init(|| DomainIndex::build(&self.known))
    }
}

/// One indexed entity: its match keys as ids into [`DomainIndex::vocab`], in
/// key order, repeats kept.
#[derive(Debug, Clone)]
struct KbEntity {
    id: u64,
    primary: Vec<usize>,
    secondary: Vec<usize>,
}

/// The match keys of one domain's known entities, tokenised once.
#[derive(Debug, Clone)]
struct DomainIndex {
    /// Every distinct key token. Those some primary key uses come first
    /// (`..primary_vocab`): they are the ones a lookup scores its record
    /// against.
    vocab: Vec<Vec<char>>,
    primary_vocab: usize,
    /// In [`Domain::known`] order.
    entities: Vec<KbEntity>,
}

/// The tokens a match key is compared by, or `None` for a key that
/// normalises to nothing. They are the tokens of the *normalised* text:
/// normalising is not idempotent under [`textsim::tokens`] — `İ` lowercases
/// to `i` plus a combining dot, which a second pass trims — and two passes
/// are what the comparison has always seen.
fn key_tokens(text: &str) -> Option<Vec<Vec<char>>> {
    let normalized = normalize(text);
    (!normalized.is_empty()).then(|| textsim::token_chars(&normalized))
}

/// The Jaro-Winkler of every token of one query key against some of the
/// vocabulary, and the Monge-Elkan scores that can be read off it.
struct JwTable {
    /// Query tokens.
    rows: usize,
    /// `jw[i * vocab.len() + v]`: query token `i` against vocabulary token
    /// `v` — and `v` against `i`, Jaro-Winkler being symmetric to the bit
    /// (`lingua_ml::textsim`'s tests). Zero where `v` was not asked for.
    jw: Vec<f64>,
    /// The maximum of each column.
    column_max: Vec<f64>,
}

impl JwTable {
    /// `max(me(query→key), me(key→query))` for a key whose tokens were among
    /// the columns scored: the symmetric Monge-Elkan both match keys are
    /// judged by. `me(query→key)` is the sum over rows of the row's maximum
    /// at `key`'s columns, over the row count; `me(key→query)` is the sum
    /// over `key`'s columns of the column maximum, over `key`'s length —
    /// the terms a Monge-Elkan of the two strings adds, in the order it adds
    /// them, so the result is the same `f64`.
    fn either_way(&self, key: &[usize]) -> f64 {
        if self.rows == 0 || key.is_empty() {
            // Monge-Elkan's reading of an empty side.
            return if self.rows == 0 && key.is_empty() { 1.0 } else { 0.0 };
        }
        let width = self.column_max.len();
        let forward: f64 = self
            .jw
            .chunks_exact(width)
            .map(|row| key.iter().map(|&v| row[v]).fold(0.0f64, f64::max))
            .sum();
        let backward: f64 = key.iter().map(|&v| self.column_max[v]).sum();
        (forward / self.rows as f64).max(backward / key.len() as f64)
    }
}

impl DomainIndex {
    fn build(known: &[KnownEntity]) -> DomainIndex {
        let mut ids: BTreeMap<Vec<char>, usize> = BTreeMap::new();
        let mut intern = |text: &str| -> Vec<usize> {
            key_tokens(text)
                .unwrap_or_default()
                .into_iter()
                .map(|token| {
                    let next = ids.len();
                    *ids.entry(token).or_insert(next)
                })
                .collect()
        };
        let primaries: Vec<Vec<usize>> = known.iter().map(|e| intern(&e.primary)).collect();
        let primary_vocab = primaries.iter().flatten().max().map_or(0, |&last| last + 1);
        let entities = known
            .iter()
            .zip(primaries)
            .map(|(e, primary)| KbEntity { id: e.id, primary, secondary: intern(&e.secondary) })
            .collect();
        let mut vocab = vec![Vec::new(); ids.len()];
        for (token, id) in ids {
            vocab[id] = token;
        }
        DomainIndex { vocab, primary_vocab, entities }
    }

    /// Score a query key against the vocabulary tokens `columns` names.
    fn score(&self, query: &[Vec<char>], columns: impl Iterator<Item = usize>) -> JwTable {
        let width = self.vocab.len();
        let mut jw = vec![0.0f64; query.len() * width];
        let mut column_max = vec![0.0f64; width];
        for v in columns {
            for (i, q) in query.iter().enumerate() {
                let score = textsim::jaro_winkler_chars(q, &self.vocab[v]);
                jw[i * width + v] = score;
                column_max[v] = column_max[v].max(score);
            }
        }
        JwTable { rows: query.len(), jw, column_max }
    }
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
    beers: Domain,
    restaurants: Domain,
    songs: Domain,
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
    pub(crate) fn from_world(
        world: &WorldSpec,
        calibration: &Calibration,
        seed: u64,
    ) -> KnowledgeBase {
        let beers = Domain::new(
            world
                .beers
                .iter()
                .filter(|b| {
                    stable_draw(seed, &format!("beer:{}:{}", b.brewery, b.name))
                        < calibration.beer_entity_coverage
                })
                .map(|b| KnownEntity {
                    id: b.id,
                    primary: b.name.clone(),
                    secondary: b.brewery.clone(),
                }),
        );
        let restaurants = Domain::new(
            world
                .restaurants
                .iter()
                .filter(|r| {
                    stable_draw(seed, &format!("rest:{}:{}", r.name, r.city))
                        < calibration.restaurant_entity_coverage
                })
                .map(|r| KnownEntity {
                    id: r.id,
                    primary: r.name.clone(),
                    secondary: format!("{} {}", r.addr, r.city),
                }),
        );
        let songs = Domain::new(
            world
                .songs
                .iter()
                .filter(|s| {
                    stable_draw(seed, &format!("song:{}:{}", s.artist, s.title))
                        < calibration.song_entity_coverage
                })
                .map(|s| KnownEntity {
                    id: s.id,
                    primary: s.title.clone(),
                    secondary: s.artist.clone(),
                }),
        );

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

    fn domain(&self, domain: EntityDomain) -> &Domain {
        match domain {
            EntityDomain::Beer => &self.beers,
            EntityDomain::Restaurant => &self.restaurants,
            EntityDomain::Song => &self.songs,
        }
    }

    /// Try to resolve a (possibly corrupted) record to a known entity.
    ///
    /// Scores every known entity by a weighted fuzzy similarity over the
    /// primary and secondary keys; resolves only with a confident, unambiguous
    /// top match. Returns the ground-truth entity id.
    pub fn resolve(&self, domain: EntityDomain, primary: &str, secondary: &str) -> Option<u64> {
        let primary = key_tokens(primary)?;
        let secondary = key_tokens(secondary);
        let index = self.domain(domain).index();
        let mut best: Option<(f64, u64)> = None;
        let mut second_best = 0.0f64;
        // Token-aligned similarity: each token must find a close partner.
        // Character-level measures (Jaro-Winkler) are too lenient here —
        // shared adjectives ("Howling X" vs "Howling Y") score ~0.9.
        // The record's primary key meets the vocabulary once, here; the
        // loop below only reads the table.
        let against_primaries = index.score(&primary, 0..index.primary_vocab);
        for entity in &index.entities {
            let p = against_primaries.either_way(&entity.primary);
            // Both keys must individually be plausible: a same-named entity
            // from a clearly different secondary context (brewery / artist /
            // address) is *not* a recall of this entity.
            if p < 0.88 {
                continue;
            }
            let s = match &secondary {
                None => 0.7, // neutral-ish when the record lacks the secondary field
                Some(secondary) => index
                    .score(secondary, entity.secondary.iter().copied())
                    .either_way(&entity.secondary),
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
    pub(crate) fn matches_known(
        &self,
        domain: EntityDomain,
        id: u64,
        primary: &str,
        secondary: &str,
    ) -> Option<bool> {
        let index = self.domain(domain).index();
        let entity = index.entities.iter().find(|e| e.id == id)?;
        let judged = |query: &[Vec<char>], key: &[usize]| {
            index.score(query, key.iter().copied()).either_way(key)
        };
        let p = judged(&key_tokens(primary)?, &entity.primary);
        let s =
            key_tokens(secondary).map_or(0.75, |secondary| judged(&secondary, &entity.secondary));
        Some(p >= 0.80 && s >= 0.70)
    }

    /// Known manufacturer appearing verbatim (case-insensitive) in the text.
    pub(crate) fn manufacturer_in_text(&self, text: &str) -> Option<&str> {
        let lowered = text.to_lowercase();
        self.manufacturers
            .iter()
            .find(|m| contains_word(&lowered, &m.to_lowercase()))
            .map(|s| s.as_str())
    }

    /// Known product line contained in the text → its manufacturer.
    /// Longest matching line wins.
    pub(crate) fn line_owner_in_text(&self, text: &str) -> Option<&str> {
        let lowered = text.to_lowercase();
        self.line_owners
            .iter()
            .filter(|(line, _)| lowered.contains(line.as_str()))
            .max_by_key(|(line, _)| line.len())
            .map(|(_, owner)| owner.as_str())
    }

    /// The manufacturer vocabulary (all brands; sorted longest-first).
    pub(crate) fn manufacturers(&self) -> &[String] {
        &self.manufacturers
    }

    /// Does the model recognize `token` as a given name in `language`?
    pub(crate) fn knows_given_name(&self, language: Language, token: &str) -> bool {
        self.names.get(&language).map(|n| n.given.contains(token)).unwrap_or(false)
    }

    /// Does the model recognize `token` as a surname in `language`?
    pub(crate) fn knows_surname(&self, language: Language, token: &str) -> bool {
        self.names.get(&language).map(|n| n.surnames.contains(token)).unwrap_or(false)
    }

    /// Is this capitalized token a known non-person proper noun?
    pub(crate) fn is_known_place_or_org(&self, token: &str) -> bool {
        self.distractors.contains(token)
    }

    /// Detect a text's language by counting per-language function words.
    /// Returns the best language and its margin over the runner-up (0 when
    /// nothing matched at all).
    pub(crate) fn detect_language(&self, text: &str) -> (Language, f64) {
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
        let frac = kb.domain(EntityDomain::Beer).known.len() as f64 / world.beers.len() as f64;
        assert!((frac - cal.beer_entity_coverage).abs() < 0.08, "beer coverage {frac}");
        let frac =
            kb.domain(EntityDomain::Restaurant).known.len() as f64 / world.restaurants.len() as f64;
        assert!((frac - cal.restaurant_entity_coverage).abs() < 0.08, "restaurant coverage {frac}");
    }

    #[test]
    fn knowledge_is_deterministic() {
        let world = WorldSpec::generate(11);
        let a = KnowledgeBase::from_world(&world, &Calibration::default(), 7);
        let b = KnowledgeBase::from_world(&world, &Calibration::default(), 7);
        assert_eq!(
            a.domain(EntityDomain::Song).known.len(),
            b.domain(EntityDomain::Song).known.len()
        );
        // Different seed → different subset (with overwhelming probability).
        let c = KnowledgeBase::from_world(&world, &Calibration::default(), 8);
        let same =
            a.domain(EntityDomain::Beer).known.len() == c.domain(EntityDomain::Beer).known.len();
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

    /// What an entity used to hold: its two keys, normalised, as strings.
    struct ScannedEntity {
        id: u64,
        primary: String,
        secondary: String,
    }

    fn scanned(kb: &KnowledgeBase, domain: EntityDomain) -> Vec<ScannedEntity> {
        let normalized = |e: &KnownEntity| ScannedEntity {
            id: e.id,
            primary: normalize(&e.primary),
            secondary: normalize(&e.secondary),
        };
        kb.domain(domain).known.iter().map(normalized).collect()
    }

    fn either_way(a: &str, b: &str) -> f64 {
        textsim::monge_elkan(a, b).max(textsim::monge_elkan(b, a))
    }

    /// `resolve` as it was before the index: one string Monge-Elkan pair per
    /// entity, two more for those whose primary key passes.
    fn resolve_by_scan(entities: &[ScannedEntity], primary: &str, secondary: &str) -> Option<u64> {
        let primary = normalize(primary);
        let secondary = normalize(secondary);
        if primary.is_empty() {
            return None;
        }
        let mut best: Option<(f64, u64)> = None;
        let mut second_best = 0.0f64;
        for entity in entities {
            let p = either_way(&primary, &entity.primary);
            if p < 0.88 {
                continue;
            }
            let s =
                if secondary.is_empty() { 0.7 } else { either_way(&secondary, &entity.secondary) };
            if s < 0.80 {
                continue;
            }
            let score = 0.65 * p + 0.35 * s;
            match best {
                Some((b, _)) if score <= b => second_best = second_best.max(score),
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

    fn matches_known_by_scan(
        entities: &[ScannedEntity],
        id: u64,
        primary: &str,
        secondary: &str,
    ) -> Option<bool> {
        let entity = entities.iter().find(|e| e.id == id)?;
        let primary = normalize(primary);
        let secondary = normalize(secondary);
        if primary.is_empty() {
            return None;
        }
        let p = either_way(&primary, &entity.primary);
        let s = if secondary.is_empty() { 0.75 } else { either_way(&secondary, &entity.secondary) };
        Some(p >= 0.80 && s >= 0.70)
    }

    const DOMAINS: [EntityDomain; 3] =
        [EntityDomain::Beer, EntityDomain::Restaurant, EntityDomain::Song];

    /// One drawn lookup: which knowledge base, which domain, the record's two
    /// keys and the entity `matches_known` is anchored on.
    #[derive(Debug)]
    struct Lookup {
        kb: usize,
        domain: EntityDomain,
        primary: String,
        secondary: String,
        anchor: lingua_ml::check::Index,
    }

    #[test]
    fn the_index_answers_as_the_per_entity_scan_did() {
        use lingua_dataset::generators::corruption;
        use lingua_ml::check::{check, Gen};
        use lingua_ml::rng::Rng;

        // Three worlds, each known to a differently seeded model, and in each
        // domain three entities whose keys only compare right if the index
        // tokenises the *normalised* key: a token ending in `İ` keeps its
        // combining dot through one pass of `tokens` and loses it in the second.
        let kbs: Vec<(WorldSpec, KnowledgeBase)> = [(5, 7), (11, 11), (29, 3)]
            .into_iter()
            .map(|(world_seed, seed)| {
                let world = WorldSpec::generate(world_seed);
                let mut kb = KnowledgeBase::from_world(&world, &Calibration::default(), seed);
                for domain in [&mut kb.beers, &mut kb.restaurants, &mut kb.songs] {
                    for (n, (primary, secondary)) in
                        [("Kadıİ Ale", "Efeİ Brewing"), ("Straße İİ", "İ"), ("...", "")]
                            .iter()
                            .enumerate()
                    {
                        domain.known.push(KnownEntity {
                            id: 1_000_000 + n as u64,
                            primary: primary.to_string(),
                            secondary: secondary.to_string(),
                        });
                    }
                }
                (world, kb)
            })
            .collect();
        let scans: Vec<[Vec<ScannedEntity>; 3]> =
            kbs.iter().map(|(_, kb)| DOMAINS.map(|domain| scanned(kb, domain))).collect();

        let key_text = |g: &mut Gen,
                        known: &[KnownEntity],
                        lexicon_names: &[&String]|
         -> (String, String) {
            let entity = g.pick(known);
            let mut rng = Rng::seed_from_u64(g.int(..));
            match g.int(0..8u32) {
                // As the world spells it.
                0 => (entity.primary.clone(), entity.secondary.clone()),
                // The listing damage the ER generators apply, and more of it.
                1 | 2 => {
                    let damage = |rng: &mut Rng, text: &str| {
                        let text = corruption::corrupt(rng, text, 0.9);
                        let text = corruption::abbreviate(rng, &text, 0.5);
                        let text = corruption::drop_tokens(rng, &text, 0.3);
                        let text = corruption::reorder_tokens(rng, &text, 0.5);
                        corruption::case_jitter(rng, &text)
                    };
                    (damage(&mut rng, &entity.primary), damage(&mut rng, &entity.secondary))
                }
                // One entity's name under another's brewery / address / artist,
                // or the two names run together.
                3 => {
                    let other = g.pick(known);
                    if g.bool() {
                        (entity.primary.clone(), other.secondary.clone())
                    } else {
                        (format!("{} {}", entity.primary, other.primary), entity.secondary.clone())
                    }
                }
                // Nothing, blanks, punctuation only — on either key.
                4 => {
                    let blank = |g: &mut Gen| {
                        g.pick(&["", "   ", "\t\n", "--- ... !!", "(/;,)"]).to_string()
                    };
                    match g.int(0..3u32) {
                        0 => (blank(g), entity.secondary.clone()),
                        1 => (entity.primary.clone(), blank(g)),
                        _ => (blank(g), blank(g)),
                    }
                }
                // Names the lexicons hold: accents, CJK, no shared script.
                5 => (
                    format!("{} {}", g.pick(lexicon_names), g.pick(lexicon_names)),
                    g.pick(lexicon_names).to_string(),
                ),
                // Characters whose lowercase `tokens` does not leave alone.
                6 => {
                    let dotted = |text: &str| text.replace(['e', 's'], "İ").replace('a', "ß");
                    (dotted(&entity.primary), dotted(&entity.secondary).to_uppercase())
                }
                // A typo or two: the near misses the thresholds decide.
                _ => (
                    corruption::typos(&mut rng, &entity.primary, g.int(1..=2)),
                    corruption::typos(&mut rng, &entity.secondary, g.int(0..=1)),
                ),
            }
        };

        check(
            "the_index_answers_as_the_per_entity_scan_did",
            240,
            |g| {
                let kb = g.int(0..kbs.len());
                let domain = *g.pick(&DOMAINS);
                let (world, knowledge) = &kbs[kb];
                let names: Vec<&String> = world
                    .lexicons
                    .values()
                    .flat_map(|lexicon| lexicon.given_names.iter().chain(&lexicon.surnames))
                    .collect();
                let (primary, secondary) = key_text(g, &knowledge.domain(domain).known, &names);
                Lookup { kb, domain, primary, secondary, anchor: g.index() }
            },
            |Lookup { kb, domain, primary, secondary, anchor }| {
                let knowledge = &kbs[kb].1;
                let scan = &scans[kb][DOMAINS.iter().position(|d| *d == domain).unwrap()];
                assert_eq!(
                    knowledge.resolve(domain, &primary, &secondary),
                    resolve_by_scan(scan, &primary, &secondary),
                    "resolve"
                );
                // Anchored on a known entity, and now and then on an unknown one.
                let anchor = match anchor.of(scan.len() + 1) {
                    unknown if unknown == scan.len() => u64::MAX,
                    known => scan[known].id,
                };
                assert_eq!(
                    knowledge.matches_known(domain, anchor, &primary, &secondary),
                    matches_known_by_scan(scan, anchor, &primary, &secondary),
                    "matches_known"
                );

                // Not only the verdicts: every score, to the bit, for every
                // entity — also those the thresholds would not have looked at.
                let index = knowledge.domain(domain).index();
                let every_score_matches =
                    |key: &str,
                     scanned_key: fn(&ScannedEntity) -> &String,
                     indexed_key: fn(&KbEntity) -> &Vec<usize>| {
                        let Some(tokens) = key_tokens(key) else { return };
                        let everything = index.score(&tokens, 0..index.vocab.len());
                        for (entity, old) in index.entities.iter().zip(scan) {
                            let one = index.score(&tokens, indexed_key(entity).iter().copied());
                            let expected = either_way(&normalize(key), scanned_key(old));
                            for table in [&everything, &one] {
                                assert_eq!(
                                    table.either_way(indexed_key(entity)).to_bits(),
                                    expected.to_bits(),
                                    "{key:?} against {:?}",
                                    scanned_key(old)
                                );
                            }
                        }
                    };
                every_score_matches(&primary, |e| &e.primary, |e| &e.primary);
                every_score_matches(&secondary, |e| &e.secondary, |e| &e.secondary);
            },
        );
    }

    #[test]
    fn primary_key_tokens_come_first_in_the_vocabulary() {
        // `resolve` scores its record against `..primary_vocab` only.
        let (_, kb) = kb();
        for domain in DOMAINS {
            let index = kb.domain(domain).index();
            assert_eq!(index.entities.len(), kb.domain(domain).known.len());
            let used: BTreeSet<usize> =
                index.entities.iter().flat_map(|e| e.primary.iter().copied()).collect();
            assert_eq!(used, (0..index.primary_vocab).collect::<BTreeSet<usize>>());
            assert!(index.primary_vocab <= index.vocab.len());
            let distinct: BTreeSet<&Vec<char>> = index.vocab.iter().collect();
            assert_eq!(distinct.len(), index.vocab.len(), "a token is interned once");
        }
    }

    #[test]
    fn an_index_is_built_by_the_first_entity_question_about_its_domain() {
        use crate::service::{CompletionRequest, LlmService, SimLlm};
        let world = WorldSpec::generate(5);
        let llm = SimLlm::with_seed(&world, 5);
        let built = || DOMAINS.map(|domain| llm.knowledge().domain(domain).index.get().is_some());
        assert_eq!(built(), [false; 3], "construction builds none");

        llm.complete(&CompletionRequest::new(
            "Summarize. Text: a stout and a porter walk into a bar",
        ));
        llm.complete(&CompletionRequest::new(format!(
            "Fill in the missing manufacturer.\nProduct: name: {}\nAnswer with only the manufacturer name.",
            world.products[0].name
        )));
        assert!(!llm.knowledge().domain(EntityDomain::Beer).known.is_empty());
        assert_eq!(built(), [false; 3], "summaries, imputations and counts need none");

        let beer = &world.beers[0];
        llm.complete(&CompletionRequest::new(format!(
            "Do these two records refer to the same entity?\n\
             Record A: beer_name: {0}; brewery: {1}\nRecord B: beer_name: {0}; brewery: {1}\n\
             Answer yes or no.",
            beer.name, beer.brewery
        )));
        assert_eq!(built(), [true, false, false], "the first beer question builds the beer index");
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
