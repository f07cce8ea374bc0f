//! Entity-resolution benchmark generators shaped like the three Magellan
//! datasets the paper evaluates on (Table 1).
//!
//! Each generator produces a [`PairSplit`] whose total size, positive rate,
//! and 3:1:1 split mirror the original dataset, and whose *difficulty profile*
//! is tuned so the paper's method ordering emerges:
//!
//! * **Fodors-Zagats** — easy: light perturbation, few hard negatives
//!   (supervised methods reach ~100 F1 on the real data).
//! * **BeerAdvo-RateBeer** — moderate: heavier typos/abbreviations, hard
//!   negatives sharing a brewery.
//! * **iTunes-Amazon** — hard for naive LLM prompting: matched sides differ by
//!   decorative suffixes ("(Remastered)"), duration-format variance, and hard
//!   negatives are same-artist different-song pairs — the trap that drives the
//!   FMs baseline down to ~66 F1 in the paper.

use crate::generators::corruption;
use crate::labels::{LabeledPair, PairSplit};
use crate::record::Record;
use crate::schema::Schema;
use crate::value::Value;
use crate::world::{BeerFact, RestaurantFact, SongFact, WorldSpec};
use lingua_ml::rng::Rng;

/// Which of the paper's three ER datasets to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErDataset {
    BeerAdvoRateBeer,
    FodorsZagats,
    ItunesAmazon,
}

impl ErDataset {
    pub const ALL: [ErDataset; 3] =
        [ErDataset::BeerAdvoRateBeer, ErDataset::FodorsZagats, ErDataset::ItunesAmazon];

    pub fn name(self) -> &'static str {
        match self {
            ErDataset::BeerAdvoRateBeer => "BeerAdvo-RateBeer",
            ErDataset::FodorsZagats => "Fodors-Zagats",
            ErDataset::ItunesAmazon => "iTunes-Amazon",
        }
    }

    /// (total pairs, positive pairs) mirroring the Magellan repository.
    pub(crate) fn paper_sizes(self) -> (usize, usize) {
        match self {
            ErDataset::BeerAdvoRateBeer => (450, 68),
            ErDataset::FodorsZagats => (946, 110),
            ErDataset::ItunesAmazon => (539, 132),
        }
    }

    /// Corruption intensity applied to the matched copy.
    fn intensity(self) -> f64 {
        match self {
            ErDataset::BeerAdvoRateBeer => 0.90,
            ErDataset::FodorsZagats => 0.25,
            ErDataset::ItunesAmazon => 0.60,
        }
    }

    /// Fraction of negatives that are *hard* (share a discriminative field).
    fn hard_negative_fraction(self) -> f64 {
        match self {
            ErDataset::BeerAdvoRateBeer => 0.45,
            ErDataset::FodorsZagats => 0.15,
            ErDataset::ItunesAmazon => 0.60,
        }
    }
}

/// Generate the pair benchmark for `dataset` from `world`, split 3:1:1.
pub fn generate(world: &WorldSpec, dataset: ErDataset, seed: u64) -> PairSplit {
    let mut rng = Rng::seed_from_u64(seed ^ 0xe17_0000 ^ dataset.name().len() as u64);
    let (total, positives) = dataset.paper_sizes();
    let negatives = total - positives;

    let (schema, mut pairs) = match dataset {
        ErDataset::BeerAdvoRateBeer => beer_pairs(world, &mut rng, positives, negatives, dataset),
        ErDataset::FodorsZagats => restaurant_pairs(world, &mut rng, positives, negatives, dataset),
        ErDataset::ItunesAmazon => song_pairs(world, &mut rng, positives, negatives, dataset),
    };
    rng.shuffle(&mut pairs);
    PairSplit::from_fractions(schema, pairs, 0.6, 0.2)
}

// ---------------------------------------------------------------------------
// Beer
// ---------------------------------------------------------------------------

pub(crate) const BEER_SCHEMA: [&str; 4] = ["beer_name", "brewery", "style", "abv"];

pub(crate) fn beer_record(b: &BeerFact) -> Record {
    Record::new(vec![
        Value::Str(b.name.clone()),
        Value::Str(b.brewery.clone()),
        Value::Str(b.style.clone()),
        Value::Str(format!("{:.1}%", b.abv)),
    ])
}

pub(crate) fn corrupt_beer(rng: &mut Rng, b: &BeerFact, intensity: f64) -> Record {
    let mut name = corruption::corrupt(rng, &b.name, intensity);
    // RateBeer-style listing damage: heavy abbreviation and style suffixes
    // glued onto the name. Character-level features survive this; plain
    // token features mostly don't.
    if rng.gen_bool(intensity * 0.5) {
        name = corruption::abbreviate(rng, &name, 0.6);
    }
    if rng.gen_bool(intensity * 0.35) {
        name = format!("{name} - {}", b.style);
    }
    let brewery = if rng.gen_bool(0.4) {
        // Drop the "Brewing" suffix — a classic cross-site discrepancy.
        b.brewery.replace(" Brewing", "")
    } else {
        corruption::corrupt(rng, &b.brewery, intensity * 0.6)
    };
    let style = if rng.gen_bool(0.45) { String::new() } else { b.style.clone() };
    let abv = if rng.gen_bool(0.3) { format!("{:.2}", b.abv) } else { format!("{:.1}%", b.abv) };
    Record::new(vec![
        Value::Str(name),
        Value::Str(brewery),
        if style.is_empty() { Value::Null } else { Value::Str(style) },
        Value::Str(abv),
    ])
}

fn beer_pairs(
    world: &WorldSpec,
    rng: &mut Rng,
    positives: usize,
    negatives: usize,
    dataset: ErDataset,
) -> (Schema, Vec<LabeledPair>) {
    let schema = Schema::of_names(BEER_SCHEMA);
    let beers = &world.beers;
    assert!(beers.len() >= positives, "world too small for beer positives");
    let mut pairs = Vec::with_capacity(positives + negatives);

    let mut indices: Vec<usize> = (0..beers.len()).collect();
    rng.shuffle(&mut indices);
    for &i in indices.iter().take(positives) {
        let b = &beers[i];
        pairs.push(LabeledPair {
            left_entity: b.id,
            right_entity: b.id,
            left: beer_record(b),
            right: corrupt_beer(rng, b, dataset.intensity()),
            label: true,
        });
    }

    let hard_target = (negatives as f64 * dataset.hard_negative_fraction()) as usize;
    let mut produced = 0usize;
    // Hard negatives: same brewery, different beer (or same style + similar name).
    'outer: for i in 0..beers.len() {
        for j in (i + 1)..beers.len() {
            if produced >= hard_target {
                break 'outer;
            }
            if beers[i].brewery == beers[j].brewery && beers[i].name != beers[j].name {
                let mut right = corrupt_beer(rng, &beers[j], dataset.intensity() * 0.5);
                // Sibling beers from one brewery cluster around the same
                // strength: without a discriminative abv column, the name is
                // all a matcher has — which is exactly where coarse string
                // features fail and character-level ones do not.
                if rng.gen_bool(0.8) {
                    let jitter = (rng.gen_range(-2..=2) as f64) / 10.0;
                    right.set(3, Value::Str(format!("{:.1}%", beers[i].abv + jitter)));
                }
                if rng.gen_bool(0.6) {
                    right.set(2, Value::Str(beers[i].style.clone()));
                }
                pairs.push(LabeledPair {
                    left_entity: beers[i].id,
                    right_entity: beers[j].id,
                    left: beer_record(&beers[i]),
                    right,
                    label: false,
                });
                produced += 1;
            }
        }
    }
    // Random negatives for the remainder.
    while produced < negatives {
        let i = rng.gen_range(0..beers.len());
        let j = rng.gen_range(0..beers.len());
        if i == j {
            continue;
        }
        pairs.push(LabeledPair {
            left_entity: beers[i].id,
            right_entity: beers[j].id,
            left: beer_record(&beers[i]),
            right: corrupt_beer(rng, &beers[j], dataset.intensity() * 0.5),
            label: false,
        });
        produced += 1;
    }
    (schema, pairs)
}

// ---------------------------------------------------------------------------
// Restaurants
// ---------------------------------------------------------------------------

pub(crate) const RESTAURANT_SCHEMA: [&str; 5] = ["name", "addr", "city", "phone", "cuisine"];

fn restaurant_record(r: &RestaurantFact) -> Record {
    Record::new(vec![
        Value::Str(r.name.clone()),
        Value::Str(r.addr.clone()),
        Value::Str(r.city.clone()),
        Value::Str(r.phone.clone()),
        Value::Str(r.cuisine.clone()),
    ])
}

fn corrupt_restaurant(rng: &mut Rng, r: &RestaurantFact, intensity: f64) -> Record {
    Record::new(vec![
        Value::Str(corruption::corrupt(rng, &r.name, intensity)),
        Value::Str(corruption::abbreviate(rng, &r.addr, 0.4)),
        Value::Str(corruption::case_jitter(rng, &r.city)),
        Value::Str(corruption::phone_jitter(rng, &r.phone)),
        Value::Str(if rng.gen_bool(0.2) { String::new() } else { r.cuisine.clone() }),
    ])
}

fn restaurant_pairs(
    world: &WorldSpec,
    rng: &mut Rng,
    positives: usize,
    negatives: usize,
    dataset: ErDataset,
) -> (Schema, Vec<LabeledPair>) {
    let schema = Schema::of_names(RESTAURANT_SCHEMA);
    let rs = &world.restaurants;
    assert!(rs.len() >= positives, "world too small for restaurant positives");
    let mut pairs = Vec::with_capacity(positives + negatives);

    let mut indices: Vec<usize> = (0..rs.len()).collect();
    rng.shuffle(&mut indices);
    for &i in indices.iter().take(positives) {
        let r = &rs[i];
        pairs.push(LabeledPair {
            left_entity: r.id,
            right_entity: r.id,
            left: restaurant_record(r),
            right: corrupt_restaurant(rng, r, dataset.intensity()),
            label: true,
        });
    }

    let hard_target = (negatives as f64 * dataset.hard_negative_fraction()) as usize;
    let mut produced = 0usize;
    // Hard negatives: same city + same cuisine.
    'outer: for i in 0..rs.len() {
        for j in (i + 1)..rs.len() {
            if produced >= hard_target {
                break 'outer;
            }
            if rs[i].city == rs[j].city && rs[i].cuisine == rs[j].cuisine {
                pairs.push(LabeledPair {
                    left_entity: rs[i].id,
                    right_entity: rs[j].id,
                    left: restaurant_record(&rs[i]),
                    right: corrupt_restaurant(rng, &rs[j], dataset.intensity() * 0.5),
                    label: false,
                });
                produced += 1;
            }
        }
    }
    while produced < negatives {
        let i = rng.gen_range(0..rs.len());
        let j = rng.gen_range(0..rs.len());
        if i == j {
            continue;
        }
        pairs.push(LabeledPair {
            left_entity: rs[i].id,
            right_entity: rs[j].id,
            left: restaurant_record(&rs[i]),
            right: corrupt_restaurant(rng, &rs[j], dataset.intensity() * 0.5),
            label: false,
        });
        produced += 1;
    }
    (schema, pairs)
}

// ---------------------------------------------------------------------------
// Songs
// ---------------------------------------------------------------------------

pub(crate) const SONG_SCHEMA: [&str; 7] =
    ["song_name", "artist_name", "album_name", "genre", "price", "time", "released"];

fn song_record(s: &SongFact) -> Record {
    Record::new(vec![
        Value::Str(s.title.clone()),
        Value::Str(s.artist.clone()),
        Value::Str(s.album.clone()),
        Value::Str(s.genre.clone()),
        Value::Str(format!("${:.2}", s.price)),
        Value::Str(format!("{}:{:02}", s.time / 60, s.time % 60)),
        Value::Str(s.year.to_string()),
    ])
}

fn corrupt_song(rng: &mut Rng, s: &SongFact, intensity: f64) -> Record {
    let title = corruption::decorate_title(rng, &s.title, 0.80);
    let title = corruption::corrupt(rng, &title, intensity * 0.8);
    let artist = if rng.gen_bool(0.45) {
        format!("{} [feat. {}]", s.artist, "Various")
    } else {
        s.artist.clone()
    };
    let album = corruption::decorate_title(rng, &s.album, 0.55);
    Record::new(vec![
        Value::Str(title),
        Value::Str(artist),
        Value::Str(album),
        Value::Str(if rng.gen_bool(0.2) { String::new() } else { s.genre.clone() }),
        Value::Str(if rng.gen_bool(0.5) {
            format!("${:.2}", s.price)
        } else {
            format!("{:.2}", s.price)
        }),
        Value::Str(corruption::format_duration(rng, s.time)),
        Value::Str(s.year.to_string()),
    ])
}

fn song_pairs(
    world: &WorldSpec,
    rng: &mut Rng,
    positives: usize,
    negatives: usize,
    dataset: ErDataset,
) -> (Schema, Vec<LabeledPair>) {
    let schema = Schema::of_names(SONG_SCHEMA);
    let songs = &world.songs;
    assert!(songs.len() >= positives, "world too small for song positives");
    let mut pairs = Vec::with_capacity(positives + negatives);

    let mut indices: Vec<usize> = (0..songs.len()).collect();
    rng.shuffle(&mut indices);
    for &i in indices.iter().take(positives) {
        let s = &songs[i];
        pairs.push(LabeledPair {
            left_entity: s.id,
            right_entity: s.id,
            left: song_record(s),
            right: corrupt_song(rng, s, dataset.intensity()),
            label: true,
        });
    }

    let hard_target = (negatives as f64 * dataset.hard_negative_fraction()) as usize;
    let mut produced = 0usize;
    // Hard negatives: same artist, different song.
    'outer: for i in 0..songs.len() {
        for j in (i + 1)..songs.len() {
            if produced >= hard_target {
                break 'outer;
            }
            if songs[i].artist == songs[j].artist && songs[i].title != songs[j].title {
                let mut right = corrupt_song(rng, &songs[j], dataset.intensity() * 0.5);
                // Same-album sibling tracks: the classic iTunes-Amazon trap —
                // everything but the title lines up.
                if rng.gen_bool(0.6) {
                    right.set(2, Value::Str(songs[i].album.clone()));
                    right.set(3, Value::Str(songs[i].genre.clone()));
                    right.set(6, Value::Str(songs[i].year.to_string()));
                }
                pairs.push(LabeledPair {
                    left_entity: songs[i].id,
                    right_entity: songs[j].id,
                    left: song_record(&songs[i]),
                    right,
                    label: false,
                });
                produced += 1;
            }
        }
    }
    while produced < negatives {
        let i = rng.gen_range(0..songs.len());
        let j = rng.gen_range(0..songs.len());
        if i == j {
            continue;
        }
        pairs.push(LabeledPair {
            left_entity: songs[i].id,
            right_entity: songs[j].id,
            left: song_record(&songs[i]),
            right: corrupt_song(rng, &songs[j], dataset.intensity() * 0.5),
            label: false,
        });
        produced += 1;
    }
    (schema, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> WorldSpec {
        WorldSpec::generate(99)
    }

    #[test]
    fn sizes_match_paper() {
        let w = world();
        for ds in ErDataset::ALL {
            let split = generate(&w, ds, 5);
            let (total, pos) = ds.paper_sizes();
            assert_eq!(split.total(), total, "{}", ds.name());
            assert_eq!(split.positives(), pos, "{}", ds.name());
            // 3:1:1 split: test is ~20%.
            let test_frac = split.test.len() as f64 / total as f64;
            assert!((test_frac - 0.2).abs() < 0.02, "{} test frac {test_frac}", ds.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w = world();
        let a = generate(&w, ErDataset::BeerAdvoRateBeer, 5);
        let b = generate(&w, ErDataset::BeerAdvoRateBeer, 5);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn positive_pairs_share_entity_ids() {
        let w = world();
        let split = generate(&w, ErDataset::ItunesAmazon, 5);
        for p in split.train.iter().chain(&split.valid).chain(&split.test) {
            assert_eq!(p.label, p.left_entity == p.right_entity);
            assert_eq!(p.left.len(), split.schema.len());
            assert_eq!(p.right.len(), split.schema.len());
        }
    }

    #[test]
    fn positives_are_perturbed_not_identical() {
        let w = world();
        let split = generate(&w, ErDataset::BeerAdvoRateBeer, 5);
        let changed =
            split.train.iter().chain(&split.test).filter(|p| p.label && p.left != p.right).count();
        let total: usize = split.train.iter().chain(&split.test).filter(|p| p.label).count();
        assert!(changed as f64 / total as f64 > 0.8, "{changed}/{total} perturbed");
    }

    #[test]
    fn schemas_have_expected_columns() {
        let w = world();
        let beer = generate(&w, ErDataset::BeerAdvoRateBeer, 5);
        assert_eq!(beer.schema.index_of("brewery"), Some(1));
        let song = generate(&w, ErDataset::ItunesAmazon, 5);
        assert_eq!(song.schema.index_of("artist_name"), Some(1));
        let rest = generate(&w, ErDataset::FodorsZagats, 5);
        assert_eq!(rest.schema.index_of("phone"), Some(3));
    }
}
