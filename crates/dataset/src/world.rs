//! Ground-truth world specification.
//!
//! Every experiment dataset in the paper is generated from an explicit,
//! seeded **world**: a universe of entities (products, beers, restaurants,
//! songs) and per-language person-name lexicons. The same world is handed to
//! `lingua-llm-sim` to build the simulated LLM's knowledge base — the LLM
//! "knows" a calibrated fraction of the world, which is exactly how a real
//! pre-trained model relates to real enterprise data: overlapping but not
//! complete knowledge.

use lingua_ml::rng::Rng;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Entity facts
// ---------------------------------------------------------------------------

/// Where the manufacturer is recoverable from for an imputation row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrandMention {
    /// Brand token appears verbatim in the product name (easy case).
    InName,
    /// Brand token appears verbatim in the description (easy case).
    InDescription,
    /// Brand appears nowhere; only world knowledge links the product line
    /// to its manufacturer (hard case — the "PlayStation → Sony" situation).
    KnowledgeOnly,
}

/// A product in the world (Buy-dataset style).
#[derive(Debug, Clone, PartialEq)]
pub struct ProductFact {
    pub id: u64,
    pub name: String,
    pub description: String,
    pub manufacturer: String,
    /// The product line ("PlayStation 2") that the knowledge base can map to
    /// the manufacturer even when the brand is not mentioned.
    pub product_line: String,
    pub mention: BrandMention,
    pub price: f64,
}

/// A beer (BeerAdvo-RateBeer style).
#[derive(Debug, Clone, PartialEq)]
pub struct BeerFact {
    pub id: u64,
    pub name: String,
    pub brewery: String,
    pub style: String,
    pub abv: f64,
}

/// A restaurant (Fodors-Zagats style).
#[derive(Debug, Clone, PartialEq)]
pub struct RestaurantFact {
    pub id: u64,
    pub name: String,
    pub addr: String,
    pub city: String,
    pub phone: String,
    pub cuisine: String,
}

/// A song (iTunes-Amazon style).
#[derive(Debug, Clone, PartialEq)]
pub struct SongFact {
    pub id: u64,
    pub title: String,
    pub artist: String,
    pub album: String,
    pub genre: String,
    pub price: f64,
    /// Track length in seconds.
    pub time: u32,
    pub year: u32,
}

// ---------------------------------------------------------------------------
// Languages & lexicons
// ---------------------------------------------------------------------------

/// Languages used by the multilingual name-extraction corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Language {
    English,
    French,
    German,
    Spanish,
    Italian,
    Turkish,
    /// Mandarin, romanized (pinyin) so the corpus stays single-script.
    Chinese,
    /// Japanese, romanized (romaji).
    Japanese,
}

impl Language {
    pub const ALL: [Language; 8] = [
        Language::English,
        Language::French,
        Language::German,
        Language::Spanish,
        Language::Italian,
        Language::Turkish,
        Language::Chinese,
        Language::Japanese,
    ];

    pub fn code(self) -> &'static str {
        match self {
            Language::English => "en",
            Language::French => "fr",
            Language::German => "de",
            Language::Spanish => "es",
            Language::Italian => "it",
            Language::Turkish => "tr",
            Language::Chinese => "zh",
            Language::Japanese => "ja",
        }
    }

    pub fn from_code(code: &str) -> Option<Language> {
        Language::ALL.iter().copied().find(|l| l.code() == code)
    }
}

/// Per-language word material for generating passages and for the LLM's
/// knowledge of names and of language identity signals.
#[derive(Debug, Clone, PartialEq)]
pub struct Lexicon {
    pub given_names: Vec<String>,
    pub surnames: Vec<String>,
    /// High-frequency function words — the signal language detectors use.
    pub function_words: Vec<String>,
    /// Capitalized non-person proper nouns (places, organizations) that act
    /// as distractors for name extraction.
    pub distractors: Vec<String>,
    /// Sentence templates with `{name}`, `{place}`, `{noun}` slots.
    pub templates: Vec<String>,
    /// Common nouns for the `{noun}` slot.
    pub nouns: Vec<String>,
}

// ---------------------------------------------------------------------------
// WorldSpec
// ---------------------------------------------------------------------------

/// The complete ground-truth universe for one experiment run.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    pub seed: u64,
    pub products: Vec<ProductFact>,
    pub beers: Vec<BeerFact>,
    pub restaurants: Vec<RestaurantFact>,
    pub songs: Vec<SongFact>,
    pub lexicons: BTreeMap<Language, Lexicon>,
    /// product line (lowercased) -> manufacturer. The LLM knowledge base is a
    /// calibrated subset of this map.
    pub product_line_owners: BTreeMap<String, String>,
}

/// Sizing knobs for world generation.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    pub products: usize,
    pub beers: usize,
    pub restaurants: usize,
    pub songs: usize,
    /// Fraction of products whose manufacturer is recoverable from the text
    /// itself (the paper's "straightforward cases", ~5/6).
    pub easy_product_fraction: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            products: 650,
            beers: 420,
            restaurants: 500,
            songs: 480,
            easy_product_fraction: 5.0 / 6.0,
        }
    }
}

impl WorldSpec {
    /// Generate a world from a seed with default sizes.
    pub fn generate(seed: u64) -> WorldSpec {
        WorldSpec::generate_with(seed, &WorldConfig::default())
    }

    /// Generate a world from a seed and explicit sizes.
    pub fn generate_with(seed: u64, config: &WorldConfig) -> WorldSpec {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1e57_c0de);
        let (products, product_line_owners) = gen_products(&mut rng, config);
        WorldSpec {
            seed,
            products,
            beers: gen_beers(&mut rng, config.beers),
            restaurants: gen_restaurants(&mut rng, config.restaurants),
            songs: gen_songs(&mut rng, config.songs),
            lexicons: build_lexicons(),
            product_line_owners,
        }
    }
}

// ---------------------------------------------------------------------------
// Word banks
// ---------------------------------------------------------------------------

pub(crate) const MANUFACTURERS: &[&str] = &[
    "Sony",
    "Microsoft",
    "Nintendo",
    "Samsung",
    "Logitech",
    "Belkin",
    "Canon",
    "Epson",
    "Garmin",
    "Netgear",
    "Linksys",
    "Panasonic",
    "Toshiba",
    "Philips",
    "Kensington",
    "Targus",
    "SanDisk",
    "Kingston",
    "Seagate",
    "Plantronics",
    "Griffin",
    "Jabra",
    "ViewSonic",
    "Brother",
    "Lexmark",
    "Olympus",
    "Casio",
    "Pioneer",
    "Kenwood",
    "Yamaha",
];

const PRODUCT_LINE_WORDS: &[&str] = &[
    "Vista", "Quantum", "Aero", "Pulse", "Nova", "Helix", "Orion", "Vertex", "Zephyr", "Titan",
    "Lumen", "Echo", "Strata", "Vortex", "Cinder", "Raven", "Falcon", "Comet", "Atlas", "Prism",
    "Drift", "Ember", "Onyx", "Summit", "Nimbus", "Radian", "Krait", "Sable", "Fathom", "Spire",
];

const PRODUCT_TYPES: &[&str] = &[
    "Memory Card",
    "Wireless Mouse",
    "Keyboard",
    "USB Hub",
    "Webcam",
    "Headset",
    "Router",
    "Ink Cartridge",
    "Laser Printer",
    "GPS Navigator",
    "External Drive",
    "Flash Drive",
    "Monitor Stand",
    "Docking Station",
    "Speaker System",
    "Microphone",
    "Game Controller",
    "Carrying Case",
    "Battery Pack",
    "HDMI Cable",
    "Surge Protector",
    "Label Maker",
    "Scanner",
    "Projector",
    "Media Player",
];

const PRODUCT_ADJECTIVES: &[&str] = &[
    "compact",
    "professional",
    "ergonomic",
    "portable",
    "high-speed",
    "rechargeable",
    "ultra-slim",
    "durable",
    "wireless",
    "premium",
    "entry-level",
    "rugged",
];

const BEER_ADJ: &[&str] = &[
    "Hoppy",
    "Golden",
    "Midnight",
    "Rusty",
    "Wandering",
    "Crooked",
    "Velvet",
    "Smoky",
    "Frostbite",
    "Harvest",
    "Burnt",
    "Wild",
    "Old",
    "Double",
    "Imperial",
    "Lazy",
    "Howling",
    "Iron",
    "Copper",
    "Drifting",
];

const BEER_NOUN: &[&str] = &[
    "Badger", "Anvil", "Lantern", "Harbor", "Saddle", "Compass", "Orchard", "Pines", "Raven",
    "Kettle", "Mill", "Quarry", "Meadow", "Tundra", "Canyon", "Summit", "Bramble", "Foundry",
    "Gable", "Sparrow",
];

const BEER_STYLES: &[&str] = &[
    "American IPA",
    "Imperial Stout",
    "Pale Ale",
    "Porter",
    "Hefeweizen",
    "Saison",
    "Pilsner",
    "Amber Ale",
    "Brown Ale",
    "Witbier",
    "Barleywine",
    "ESB",
    "Kolsch",
    "Dubbel",
    "Tripel",
];

const BREWERY_WORDS: &[&str] = &[
    "Stonegate",
    "Riverbend",
    "Halfmoon",
    "Timberline",
    "Ironworks",
    "Bluestem",
    "Cedar Hollow",
    "Northgate",
    "Saltbox",
    "Longtable",
    "Redhook Valley",
    "Gaslight",
    "Millrace",
    "Foxglove",
    "Tidewater",
    "Granite Peak",
    "Wolfpine",
    "Elderflower",
    "Kingfisher",
    "Slate Creek",
];

const RESTAURANT_FIRST: &[&str] = &[
    "Cafe",
    "Chez",
    "Trattoria",
    "Bistro",
    "The",
    "La",
    "El",
    "Little",
    "Golden",
    "Blue",
    "Royal",
    "Old Town",
];

const RESTAURANT_SECOND: &[&str] = &[
    "Luna", "Veranda", "Marquis", "Cypress", "Magnolia", "Pavilion", "Terrace", "Lantern",
    "Garden", "Harvest", "Olive", "Saffron", "Juniper", "Windmill", "Cellar", "Arbor", "Meridian",
    "Tavern", "Grove", "Dragon", "Pearl", "Vine", "Fig", "Sparrow", "Canal",
];

const CITIES: &[&str] = &[
    "new york",
    "los angeles",
    "san francisco",
    "chicago",
    "atlanta",
    "boston",
    "seattle",
    "denver",
    "austin",
    "portland",
    "miami",
    "new orleans",
];

const STREETS: &[&str] = &[
    "Main St.",
    "Oak Ave.",
    "Sunset Blvd.",
    "5th Ave.",
    "Melrose Ave.",
    "Broadway",
    "Market St.",
    "Pine St.",
    "Lincoln Rd.",
    "Canal St.",
    "Peachtree St.",
    "Union Sq.",
];

const CUISINES: &[&str] = &[
    "italian",
    "french",
    "american",
    "chinese",
    "japanese",
    "mexican",
    "thai",
    "mediterranean",
    "steakhouses",
    "seafood",
    "indian",
    "bbq",
];

const SONG_WORD_A: &[&str] = &[
    "Midnight",
    "Broken",
    "Electric",
    "Golden",
    "Silent",
    "Neon",
    "Paper",
    "Hollow",
    "Crimson",
    "Fading",
    "Wildest",
    "Lonely",
    "Burning",
    "Frozen",
    "Gravity",
    "Shattered",
    "Velvet",
    "Distant",
    "Restless",
    "Phantom",
];

const SONG_WORD_B: &[&str] = &[
    "Hearts",
    "Avenue",
    "Skyline",
    "Rivers",
    "Echoes",
    "Horizon",
    "Dreams",
    "Shadows",
    "Fires",
    "Letters",
    "Motels",
    "Daylight",
    "Static",
    "Harbors",
    "Mirrors",
    "Sirens",
    "Gardens",
    "Thunder",
    "Satellites",
    "Reverie",
];

const ARTIST_FIRST: &[&str] = &[
    "Ivy", "Marlowe", "Juno", "Calder", "Sable", "Wren", "Indigo", "Harlan", "Vesper", "Lux",
    "Rhodes", "Arden", "Onyx", "Piper", "Soren",
];

const ARTIST_SECOND: &[&str] = &[
    "& the Night Owls",
    "Parade",
    "Collective",
    "Brothers",
    "Quartet",
    "City",
    "Machine",
    "Republic",
    "Avenue",
    "Syndicate",
    "Foxes",
    "Archives",
    "Motel",
    "Cartel",
    "Union",
];

const GENRES: &[&str] = &[
    "Pop",
    "Rock",
    "Indie Rock",
    "Hip-Hop/Rap",
    "Electronic",
    "Country",
    "R&B/Soul",
    "Alternative",
    "Dance",
    "Folk",
];

// ---------------------------------------------------------------------------
// Entity generation
// ---------------------------------------------------------------------------

fn pick<'a>(rng: &mut Rng, bank: &'a [&'a str]) -> &'a str {
    bank[rng.gen_range(0..bank.len())]
}

fn gen_products(
    rng: &mut Rng,
    config: &WorldConfig,
) -> (Vec<ProductFact>, BTreeMap<String, String>) {
    // Each manufacturer owns a few product lines. A product line name never
    // contains the brand token, so "line-only" products are the hard cases.
    let mut line_owner: BTreeMap<String, String> = BTreeMap::new();
    let mut lines_by_maker: Vec<(String, Vec<String>)> = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    for maker in MANUFACTURERS {
        let n_lines = rng.gen_range(1..=3);
        let mut lines = Vec::new();
        for _ in 0..n_lines {
            // Lines always carry a numeric series suffix so no line is a
            // substring of another (which would make text-based line lookup
            // ambiguous between manufacturers).
            let line = loop {
                let w = pick(rng, PRODUCT_LINE_WORDS);
                let suffix = rng.gen_range(1..=9) * 100;
                let candidate = format!("{w} {suffix}");
                if used.insert(candidate.to_lowercase()) {
                    break candidate;
                }
            };
            line_owner.insert(line.to_lowercase(), maker.to_string());
            lines.push(line);
        }
        lines_by_maker.push((maker.to_string(), lines));
    }

    // Brand popularity is Zipf-like: a few manufacturers dominate the
    // catalogue. (This is also what gives statistical imputers their
    // nonzero prior-mode accuracy, as in the real Buy dataset.)
    let weights: Vec<f64> = (0..lines_by_maker.len()).map(|i| 1.0 / (i as f64 + 2.0)).collect();
    let total_weight: f64 = weights.iter().sum();
    let mut products = Vec::with_capacity(config.products);
    for id in 0..config.products as u64 {
        let mut draw = rng.gen_range(0.0..total_weight);
        let mut maker_index = 0;
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                maker_index = i;
                break;
            }
            draw -= w;
        }
        let (maker, lines) = &lines_by_maker[maker_index];
        let line = &lines[rng.gen_range(0..lines.len())];
        let ptype = pick(rng, PRODUCT_TYPES);
        let adj = pick(rng, PRODUCT_ADJECTIVES);
        let model = format!("{}{}", (b'A' + rng.gen_range(0..26u8)) as char, rng.gen_range(10..99));

        let mention = if rng.gen_bool(config.easy_product_fraction) {
            if rng.gen_bool(0.6) {
                BrandMention::InName
            } else {
                BrandMention::InDescription
            }
        } else {
            BrandMention::KnowledgeOnly
        };

        let name = match mention {
            BrandMention::InName => format!("{maker} {line} {ptype} {model}"),
            _ => format!("{line} {ptype} {model}"),
        };
        let description = match mention {
            BrandMention::InDescription => format!(
                "{adj} {lptype} from {maker}'s {line} series, model {model}",
                lptype = ptype.to_lowercase()
            ),
            _ => format!(
                "{adj} {lptype}, {line} series, model {model}",
                lptype = ptype.to_lowercase()
            ),
        };
        products.push(ProductFact {
            id,
            name,
            description,
            manufacturer: maker.clone(),
            product_line: line.clone(),
            mention,
            price: (rng.gen_range(500..30000) as f64) / 100.0,
        });
    }
    (products, line_owner)
}

fn gen_beers(rng: &mut Rng, n: usize) -> Vec<BeerFact> {
    let mut beers = Vec::with_capacity(n);
    let mut seen = std::collections::BTreeSet::new();
    while beers.len() < n {
        let brewery = format!("{} Brewing", pick(rng, BREWERY_WORDS));
        let style = pick(rng, BEER_STYLES);
        let name = format!("{} {}", pick(rng, BEER_ADJ), pick(rng, BEER_NOUN));
        let key = format!("{brewery}|{name}");
        if !seen.insert(key) {
            continue;
        }
        beers.push(BeerFact {
            id: beers.len() as u64,
            name,
            brewery,
            style: style.to_string(),
            abv: (rng.gen_range(35..120) as f64) / 10.0,
        });
    }
    beers
}

fn gen_restaurants(rng: &mut Rng, n: usize) -> Vec<RestaurantFact> {
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::BTreeSet::new();
    while out.len() < n {
        let name = format!("{} {}", pick(rng, RESTAURANT_FIRST), pick(rng, RESTAURANT_SECOND));
        let city = pick(rng, CITIES);
        let key = format!("{name}|{city}");
        if !seen.insert(key) {
            continue;
        }
        let addr = format!("{} {}", rng.gen_range(1..999), pick(rng, STREETS));
        let phone = format!(
            "{}-{}-{:04}",
            rng.gen_range(201..989),
            rng.gen_range(200..999),
            rng.gen_range(0..9999)
        );
        out.push(RestaurantFact {
            id: out.len() as u64,
            name,
            addr,
            city: city.to_string(),
            phone,
            cuisine: pick(rng, CUISINES).to_string(),
        });
    }
    out
}

fn gen_songs(rng: &mut Rng, n: usize) -> Vec<SongFact> {
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::BTreeSet::new();
    while out.len() < n {
        let artist = format!("{} {}", pick(rng, ARTIST_FIRST), pick(rng, ARTIST_SECOND));
        let title = format!("{} {}", pick(rng, SONG_WORD_A), pick(rng, SONG_WORD_B));
        let key = format!("{artist}|{title}");
        if !seen.insert(key) {
            continue;
        }
        let album = format!("{} {}", pick(rng, SONG_WORD_A), pick(rng, SONG_WORD_B));
        out.push(SongFact {
            id: out.len() as u64,
            title,
            artist,
            album,
            genre: pick(rng, GENRES).to_string(),
            price: if rng.gen_bool(0.7) { 0.99 } else { 1.29 },
            time: rng.gen_range(120..420),
            year: rng.gen_range(1995..2023),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Lexicons
// ---------------------------------------------------------------------------

macro_rules! strs {
    ($($s:expr),* $(,)?) => { vec![$($s.to_string()),*] };
}

fn build_lexicons() -> BTreeMap<Language, Lexicon> {
    let mut map = BTreeMap::new();
    map.insert(
        Language::English,
        Lexicon {
            given_names: strs![
                "James",
                "Mary",
                "Robert",
                "Patricia",
                "John",
                "Jennifer",
                "Michael",
                "Linda",
                "David",
                "Elizabeth",
                "William",
                "Barbara",
                "Richard",
                "Susan",
                "Joseph",
                "Jessica",
                "Thomas",
                "Sarah",
                "Henry",
                "Karen",
                "Daniel",
                "Nancy",
                "Matthew",
                "Lisa",
                "Anthony",
                "Betty",
                "Mark",
                "Margaret",
                "Steven",
                "Sandra"
            ],
            surnames: strs![
                "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis",
                "Wilson", "Anderson", "Taylor", "Thomas", "Moore", "Jackson", "Martin", "Lee",
                "Thompson", "White", "Harris", "Clark", "Lewis", "Walker", "Hall", "Young", "King"
            ],
            function_words: strs![
                "the",
                "and",
                "of",
                "to",
                "in",
                "that",
                "with",
                "for",
                "was",
                "on",
                "at",
                "by",
                "from",
                "this",
                "yesterday",
                "meeting",
                "said"
            ],
            distractors: strs![
                "London",
                "Chicago",
                "Amazon",
                "Harvard",
                "Congress",
                "October",
                "Broadway",
                "Microsoft",
                "Thames",
                "Oxford"
            ],
            templates: strs![
                "Yesterday {name} met with the board of {place} to discuss the {noun}.",
                "According to {name}, the {noun} will be delayed until next quarter.",
                "{name} and {name2} presented the new {noun} at the {place} office.",
                "The committee thanked {name} for organizing the {noun} in {place}.",
                "A report by {name} criticized the {noun} announced in {place}.",
                "During the interview, {name} said the {noun} exceeded expectations."
            ],
            nouns: strs![
                "budget",
                "merger",
                "festival",
                "report",
                "contract",
                "project",
                "campaign",
                "audit",
                "conference",
                "prototype"
            ],
        },
    );
    map.insert(
        Language::French,
        Lexicon {
            given_names: strs![
                "Jean", "Marie", "Pierre", "Camille", "Luc", "Sophie", "Antoine", "Claire",
                "Julien", "Amélie", "Nicolas", "Élodie", "Mathieu", "Chloé", "Olivier", "Margaux",
                "Thierry", "Juliette", "Pascal", "Inès"
            ],
            surnames: strs![
                "Martin", "Bernard", "Dubois", "Moreau", "Laurent", "Lefebvre", "Leroy", "Roux",
                "Fournier", "Girard", "Bonnet", "Dupont", "Lambert", "Rousseau", "Blanc"
            ],
            function_words: strs![
                "le", "la", "les", "de", "des", "et", "dans", "avec", "pour", "sur", "hier",
                "selon", "réunion", "était", "sera", "une"
            ],
            distractors: strs![
                "Paris",
                "Lyon",
                "Marseille",
                "Sorbonne",
                "Provence",
                "Louvre",
                "Bordeaux",
                "Normandie"
            ],
            templates: strs![
                "Hier, {name} a rencontré le conseil de {place} pour discuter du {noun}.",
                "Selon {name}, le {noun} sera reporté au prochain trimestre.",
                "{name} et {name2} ont présenté le nouveau {noun} au bureau de {place}.",
                "Le comité a remercié {name} pour avoir organisé le {noun} à {place}.",
                "Un rapport de {name} a critiqué le {noun} annoncé à {place}."
            ],
            nouns: strs![
                "budget",
                "projet",
                "festival",
                "rapport",
                "contrat",
                "programme",
                "audit",
                "congrès",
                "prototype"
            ],
        },
    );
    map.insert(
        Language::German,
        Lexicon {
            given_names: strs![
                "Hans",
                "Anna",
                "Karl",
                "Greta",
                "Friedrich",
                "Lena",
                "Stefan",
                "Ingrid",
                "Jürgen",
                "Sabine",
                "Wolfgang",
                "Heike",
                "Matthias",
                "Ursula",
                "Dieter",
                "Katrin",
                "Rainer",
                "Monika",
                "Lukas",
                "Franziska"
            ],
            surnames: strs![
                "Müller",
                "Schmidt",
                "Schneider",
                "Fischer",
                "Weber",
                "Meyer",
                "Wagner",
                "Becker",
                "Schulz",
                "Hoffmann",
                "Koch",
                "Bauer",
                "Richter",
                "Klein",
                "Wolf"
            ],
            function_words: strs![
                "der", "die", "das", "und", "mit", "für", "auf", "von", "gestern", "wird", "wurde",
                "eine", "dem", "den", "sich", "nicht"
            ],
            distractors: strs![
                "Berlin",
                "München",
                "Hamburg",
                "Bundestag",
                "Bayern",
                "Rhein",
                "Frankfurt",
                "Siemens"
            ],
            templates: strs![
                "Gestern traf {name} den Vorstand in {place}, um das {noun} zu besprechen.",
                "Laut {name} wird das {noun} auf das nächste Quartal verschoben.",
                "{name} und {name2} stellten das neue {noun} im Büro in {place} vor.",
                "Der Ausschuss dankte {name} für die Organisation des {noun} in {place}.",
                "Ein Bericht von {name} kritisierte das in {place} angekündigte {noun}."
            ],
            nouns: strs![
                "Budget",
                "Projekt",
                "Festival",
                "Gutachten",
                "Abkommen",
                "Programm",
                "Audit",
                "Treffen",
                "Modell"
            ],
        },
    );
    map.insert(
        Language::Spanish,
        Lexicon {
            given_names: strs![
                "José",
                "María",
                "Antonio",
                "Carmen",
                "Manuel",
                "Lucía",
                "Francisco",
                "Isabel",
                "Javier",
                "Pilar",
                "Miguel",
                "Teresa",
                "Alejandro",
                "Rosa",
                "Fernando",
                "Elena",
                "Diego",
                "Marta",
                "Pablo",
                "Sofía"
            ],
            surnames: strs![
                "García",
                "Rodríguez",
                "González",
                "Fernández",
                "López",
                "Martínez",
                "Sánchez",
                "Pérez",
                "Gómez",
                "Martín",
                "Jiménez",
                "Ruiz",
                "Hernández",
                "Díaz",
                "Moreno"
            ],
            function_words: strs![
                "el", "la", "los", "de", "del", "y", "con", "para", "sobre", "ayer", "según",
                "será", "una", "que", "por", "reunión"
            ],
            distractors: strs![
                "Madrid",
                "Barcelona",
                "Sevilla",
                "Andalucía",
                "Catalunya",
                "Prado",
                "Valencia",
                "Bilbao"
            ],
            templates: strs![
                "Ayer {name} se reunió con el consejo de {place} para discutir el {noun}.",
                "Según {name}, el {noun} se retrasará hasta el próximo trimestre.",
                "{name} y {name2} presentaron el nuevo {noun} en la oficina de {place}.",
                "El comité agradeció a {name} por organizar el {noun} en {place}.",
                "Un informe de {name} criticó el {noun} anunciado en {place}."
            ],
            nouns: strs![
                "presupuesto",
                "proyecto",
                "festival",
                "informe",
                "contrato",
                "programa",
                "congreso",
                "prototipo"
            ],
        },
    );
    map.insert(
        Language::Italian,
        Lexicon {
            given_names: strs![
                "Giulia",
                "Marco",
                "Francesca",
                "Luca",
                "Alessandro",
                "Chiara",
                "Matteo",
                "Valentina",
                "Davide",
                "Sara",
                "Simone",
                "Martina",
                "Andrea",
                "Elisa",
                "Lorenzo",
                "Silvia",
                "Riccardo",
                "Federica"
            ],
            surnames: strs![
                "Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano", "Colombo", "Ricci",
                "Marino", "Greco", "Bruno", "Gallo", "Conti", "De Luca", "Costa"
            ],
            function_words: strs![
                "il", "la", "gli", "di", "del", "e", "con", "per", "su", "ieri", "secondo", "sarà",
                "una", "che", "riunione", "nuovo"
            ],
            distractors: strs![
                "Roma", "Milano", "Napoli", "Toscana", "Venezia", "Vaticano", "Torino", "Firenze"
            ],
            templates: strs![
                "Ieri {name} ha incontrato il consiglio di {place} per discutere il {noun}.",
                "Secondo {name}, il {noun} sarà rinviato al prossimo trimestre.",
                "{name} e {name2} hanno presentato il nuovo {noun} nell'ufficio di {place}.",
                "Il comitato ha ringraziato {name} per aver organizzato il {noun} a {place}.",
                "Un rapporto di {name} ha criticato il {noun} annunciato a {place}."
            ],
            nouns: strs![
                "bilancio",
                "progetto",
                "festival",
                "rapporto",
                "contratto",
                "programma",
                "congresso",
                "prototipo"
            ],
        },
    );
    map.insert(
        Language::Turkish,
        Lexicon {
            given_names: strs![
                "Mehmet", "Ayşe", "Mustafa", "Fatma", "Ahmet", "Emine", "Ali", "Hatice", "Hüseyin",
                "Zeynep", "Hasan", "Elif", "İbrahim", "Meryem", "Osman", "Şerife", "Yusuf",
                "Zehra"
            ],
            surnames: strs![
                "Yılmaz",
                "Kaya",
                "Demir",
                "Çelik",
                "Şahin",
                "Yıldız",
                "Yıldırım",
                "Öztürk",
                "Aydın",
                "Özdemir",
                "Arslan",
                "Doğan",
                "Kılıç",
                "Aslan",
                "Çetin"
            ],
            function_words: strs![
                "ve",
                "bir",
                "bu",
                "için",
                "ile",
                "dün",
                "göre",
                "olarak",
                "daha",
                "çok",
                "toplantı",
                "yeni",
                "olan",
                "gibi",
                "kadar"
            ],
            distractors: strs![
                "İstanbul",
                "Ankara",
                "İzmir",
                "Boğaziçi",
                "Anadolu",
                "Kapadokya",
                "Bursa",
                "Antalya"
            ],
            templates: strs![
                "Dün {name}, {noun} konusunu görüşmek için {place} kurulu ile buluştu.",
                "{name} göre {noun} gelecek çeyreğe ertelenecek.",
                "{name} ve {name2}, {place} ofisinde yeni {noun} sundu.",
                "Komite, {place} şehrindeki {noun} organizasyonu için {name} teşekkür etti.",
                "{name} tarafından hazırlanan rapor, {place} açıklanan {noun} eleştirdi."
            ],
            nouns: strs![
                "bütçe",
                "proje",
                "festival",
                "rapor",
                "sözleşme",
                "program",
                "kongre",
                "prototip"
            ],
        },
    );
    map.insert(
        Language::Chinese,
        Lexicon {
            given_names: strs![
                "Wei", "Fang", "Jun", "Min", "Lei", "Yan", "Qiang", "Xiu", "Hao", "Ling", "Peng",
                "Hui", "Bo", "Jing", "Tao", "Na", "Gang", "Mei"
            ],
            surnames: strs![
                "Wang", "Li", "Zhang", "Liu", "Chen", "Yang", "Huang", "Zhao", "Wu", "Zhou", "Xu",
                "Sun", "Ma", "Zhu", "Hu"
            ],
            function_words: strs![
                "de", "shi", "zai", "he", "yu", "zuotian", "genju", "jiang", "yige", "huiyi",
                "xin", "gongsi", "biaoshi", "jinxing", "guanyu"
            ],
            distractors: strs![
                "Beijing",
                "Shanghai",
                "Shenzhen",
                "Tsinghua",
                "Guangzhou",
                "Hangzhou",
                "Chengdu",
                "Nanjing"
            ],
            templates: strs![
                "Zuotian {name} zai {place} yu dongshihui taolun le {noun}.",
                "Genju {name} de shuofa, {noun} jiang tuichi dao xia jidu.",
                "{name} he {name2} zai {place} bangongshi zhanshi le xin {noun}.",
                "Weiyuanhui ganxie {name} zai {place} zuzhi le {noun}.",
                "{name} de baogao piping le zai {place} xuanbu de {noun}."
            ],
            nouns: strs![
                "yusuan", "xiangmu", "jiehui", "baogao", "hetong", "jihua", "dahui", "yangji"
            ],
        },
    );
    map.insert(
        Language::Japanese,
        Lexicon {
            given_names: strs![
                "Haruto", "Yui", "Sota", "Aoi", "Ren", "Hina", "Yuto", "Sakura", "Daiki", "Mio",
                "Kaito", "Rin", "Takumi", "Yuna", "Riku", "Koharu"
            ],
            surnames: strs![
                "Sato",
                "Suzuki",
                "Takahashi",
                "Tanaka",
                "Watanabe",
                "Ito",
                "Yamamoto",
                "Nakamura",
                "Kobayashi",
                "Kato",
                "Yoshida",
                "Yamada",
                "Sasaki",
                "Matsumoto",
                "Inoue"
            ],
            function_words: strs![
                "no",
                "wa",
                "ni",
                "wo",
                "ga",
                "to",
                "kinou",
                "niyoruto",
                "atarashii",
                "kaigi",
                "de",
                "shita",
                "sareru",
                "made",
                "kara"
            ],
            distractors: strs![
                "Tokyo", "Osaka", "Kyoto", "Hokkaido", "Shibuya", "Nagoya", "Fukuoka", "Yokohama"
            ],
            templates: strs![
                "Kinou {name} wa {place} de torishimariyaku to {noun} ni tsuite hanashita.",
                "{name} niyoruto, {noun} wa jiki shihanki made enki sareru.",
                "{name} to {name2} wa {place} no ofisu de atarashii {noun} wo happyou shita.",
                "Iinkai wa {place} de {noun} wo kaisai shita {name} ni kansha shita.",
                "{name} no houkokusho wa {place} de happyou sareta {noun} wo hihan shita."
            ],
            nouns: strs![
                "yosan",
                "purojekuto",
                "matsuri",
                "houkoku",
                "keiyaku",
                "keikaku",
                "taikai",
                "shisaku"
            ],
        },
    );
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = WorldSpec::generate(7);
        let b = WorldSpec::generate(7);
        assert_eq!(a.products, b.products);
        assert_eq!(a.beers, b.beers);
        assert_eq!(a.restaurants, b.restaurants);
        assert_eq!(a.songs, b.songs);
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorldSpec::generate(1);
        let b = WorldSpec::generate(2);
        assert_ne!(a.products, b.products);
    }

    #[test]
    fn sizes_match_config() {
        let config = WorldConfig {
            products: 50,
            beers: 20,
            restaurants: 30,
            songs: 10,
            ..Default::default()
        };
        let w = WorldSpec::generate_with(3, &config);
        assert_eq!(w.products.len(), 50);
        assert_eq!(w.beers.len(), 20);
        assert_eq!(w.restaurants.len(), 30);
        assert_eq!(w.songs.len(), 10);
    }

    #[test]
    fn easy_fraction_is_respected() {
        let w = WorldSpec::generate(11);
        let easy = w.products.iter().filter(|p| p.mention != BrandMention::KnowledgeOnly).count();
        let frac = easy as f64 / w.products.len() as f64;
        assert!((frac - 5.0 / 6.0).abs() < 0.06, "easy fraction {frac}");
    }

    #[test]
    fn brand_mentions_are_honest() {
        let w = WorldSpec::generate(13);
        for p in &w.products {
            match p.mention {
                BrandMention::InName => {
                    assert!(p.name.contains(&p.manufacturer), "{p:?}")
                }
                BrandMention::InDescription => {
                    assert!(p.description.contains(&p.manufacturer), "{p:?}")
                }
                BrandMention::KnowledgeOnly => {
                    assert!(!p.name.contains(&p.manufacturer), "{p:?}");
                    assert!(!p.description.contains(&p.manufacturer), "{p:?}");
                }
            }
        }
    }

    #[test]
    fn product_lines_map_to_owners() {
        let w = WorldSpec::generate(17);
        for p in &w.products {
            assert_eq!(
                w.product_line_owners.get(&p.product_line.to_lowercase()),
                Some(&p.manufacturer),
                "line {} should belong to {}",
                p.product_line,
                p.manufacturer
            );
        }
    }

    #[test]
    fn all_languages_have_lexicons() {
        let w = WorldSpec::generate(19);
        for lang in Language::ALL {
            let lex = w.lexicons.get(&lang).expect("lexicon");
            assert!(!lex.given_names.is_empty());
            assert!(!lex.surnames.is_empty());
            assert!(!lex.function_words.is_empty());
            assert!(!lex.templates.is_empty());
        }
    }

    #[test]
    fn language_codes_roundtrip() {
        for lang in Language::ALL {
            assert_eq!(Language::from_code(lang.code()), Some(lang));
        }
        assert_eq!(Language::from_code("xx"), None);
    }

    #[test]
    fn entities_are_unique() {
        let w = WorldSpec::generate(23);
        let mut keys: Vec<String> =
            w.beers.iter().map(|b| format!("{}|{}", b.brewery, b.name)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), w.beers.len());
    }
}
