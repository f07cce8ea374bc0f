//! Two tripwires that keep the tree honest as code is deleted.
//!
//! (a) A crate's API is what some other file names. A `pub` item declared
//!     in a module that stays `pub mod` must be named by a file outside its
//!     crate: another crate, a test, an example, a bin, a doc example or a
//!     `$crate::` macro path. Otherwise it is `pub(crate)`, where rustc's
//!     `dead_code` can see it. A module that no other crate paths into is
//!     private, and `unreachable_pub` guards what is in it. The scan is by
//!     name, so a common name (`new`, `len`) passes wherever it appears; it
//!     catches the distinctive ones.
//! (b) "ROADMAP item N", cited in code, DESIGN.md, README.md, the CI
//!     workflow or the verify skill, names an item that is open in
//!     ROADMAP.md's "Open items".
//!
//! `crates/e2e/**` is out of scope for both: it is the benchmark, edited only
//! by its own changes. History files (ROADMAP, CHANGES, ISSUE) are not
//! scanned for citations.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// `pub` types that no file outside their crate names, but that a public
/// signature exposes, so they cannot be `pub(crate)`: `(item, signature)`.
const REACHABLE_ONLY_THROUGH: [(&str, &str); 14] = [
    ("OpTrace", "lingua_core::executor::RunReport::traces: Vec<OpTrace>"),
    ("RunReport", "lingua_core::Executor::run(..) -> Result<RunReport, CoreError>"),
    ("Projection", "lingua_dataset::query::Query::projections: Vec<Projection>"),
    ("CmpOp", "lingua_dataset::query::Predicate::Cmp { op: CmpOp, .. }"),
    ("Predicate", "lingua_dataset::query::Query::predicate: Option<Predicate>"),
    ("ProductFact", "lingua_dataset::world::WorldSpec::products: Vec<ProductFact>"),
    ("BeerFact", "lingua_dataset::world::WorldSpec::beers: Vec<BeerFact>"),
    ("RestaurantFact", "lingua_dataset::world::WorldSpec::restaurants: Vec<RestaurantFact>"),
    ("SongFact", "lingua_dataset::world::WorldSpec::songs: Vec<SongFact>"),
    ("Lexicon", "lingua_dataset::world::WorldSpec::lexicons: BTreeMap<Language, Lexicon>"),
    ("Ends", "lingua_ml::rng::Rng::gen_range(&mut self, range: impl Ends<T>)"),
    ("CacheStats", "lingua_llm_sim::ShardedLru::stats(&self) -> CacheStats"),
    ("PairMatcher", "lingua_tasks::er::evaluate(matcher: &mut dyn PairMatcher, ..)"),
    (
        "NameExtractionScore",
        "NameExtractionPipeline::evaluate(..) -> Result<NameExtractionScore, _>",
    ),
];

/// Files scanned for ROADMAP citations besides the code.
const CITING_DOCS: [&str; 4] =
    ["DESIGN.md", "README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file under `dir` with extension `ext`, skipping build output and
/// version control.
fn files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().expect("name").to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                files(&path, ext, out);
            }
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// The lines of a crate's own source that compile outside it: code blocks
/// in doc comments (doc tests) and `$crate::` paths (macro expansions).
fn compiled_elsewhere(text: &str) -> String {
    let mut out = String::new();
    let mut in_block = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if let Some(doc) = trimmed.strip_prefix("///").or_else(|| trimmed.strip_prefix("//!")) {
            if doc.trim_start().starts_with("```") {
                in_block = !in_block;
            } else if in_block {
                out.push_str(doc);
                out.push('\n');
            }
        } else if line.contains("$crate::") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// `(kind, name)` of each `pub` item declared in `text` before its test
/// module: functions, types, traits, constants, statics and modules, at any
/// depth (an inherent method is an item too). `pub use` and fields are not.
fn pub_items(text: &str) -> Vec<(&str, &str)> {
    const KINDS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];
    let mut items = Vec::new();
    for line in text.lines() {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        let Some(mut rest) = line.trim_start().strip_prefix("pub ") else { continue };
        while let Some(tail) = ["const ", "async ", "unsafe "].iter().find_map(|q| {
            rest.strip_prefix(q).filter(|t| KINDS.iter().any(|k| t.starts_with(&format!("{k} "))))
        }) {
            rest = tail;
        }
        let Some((kind, tail)) = rest.split_once(' ') else { continue };
        if let Some(name) = identifiers(tail).next().filter(|_| KINDS.contains(&kind)) {
            items.push((kind, name));
        }
    }
    items
}

/// The module files of `lib` that stay public: the crate root and every
/// `pub mod name;` reachable from it through public modules.
fn public_modules(lib: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut pending = vec![lib.to_path_buf()];
    while let Some(file) = pending.pop() {
        let text = read(&file);
        let stem = file.file_stem().expect("stem").to_string_lossy().into_owned();
        let dir = file.parent().expect("parent");
        let children = if matches!(stem.as_str(), "lib" | "mod") {
            dir.to_path_buf()
        } else {
            dir.join(&stem)
        };
        for line in text.lines() {
            let Some(name) = line.strip_prefix("pub mod ").and_then(|r| r.strip_suffix(';')) else {
                continue;
            };
            let flat = children.join(format!("{name}.rs"));
            pending.push(if flat.exists() { flat } else { children.join(name).join("mod.rs") });
        }
        found.push(file);
    }
    found
}

#[test]
fn every_pub_item_in_a_public_module_is_named_outside_its_crate() {
    let root = root();
    let mut paths = Vec::new();
    files(&root, "rs", &mut paths);
    // This file names its allowlist, which must not count as a use.
    paths.retain(|path| !path.ends_with(file!().rsplit('/').next().expect("file name")));
    // Per file: every identifier, and those of its lines that compile
    // outside the crate they sit in.
    let sources: Vec<(PathBuf, BTreeSet<String>, BTreeSet<String>)> = paths
        .into_iter()
        .map(|path| {
            let text = read(&path);
            let all = identifiers(&text).map(str::to_owned).collect();
            let elsewhere = identifiers(&compiled_elsewhere(&text)).map(str::to_owned).collect();
            (path, all, elsewhere)
        })
        .collect();
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    let mut unnamed = Vec::new();
    for dir in crates.map(|entry| entry.expect("crate dir").path()) {
        let src = dir.join("src");
        let lib = src.join("lib.rs");
        if dir.ends_with("e2e") || !lib.exists() {
            continue;
        }
        let inside = |path: &Path| path.starts_with(&src) && !path.starts_with(src.join("bin"));
        let named = |name: &str| {
            sources.iter().any(|(path, all, elsewhere)| {
                if inside(path) {
                    elsewhere.contains(name)
                } else {
                    all.contains(name)
                }
            })
        };
        for module in public_modules(&lib) {
            for (kind, name) in pub_items(&read(&module)) {
                if !named(name) {
                    let file = module.strip_prefix(&root).unwrap_or(&module).display().to_string();
                    unnamed.push((name.to_owned(), format!("{file}: pub {kind} {name}")));
                }
            }
        }
    }
    let listed = |name: &str| REACHABLE_ONLY_THROUGH.iter().any(|(item, _)| *item == name);
    let orphans: Vec<&str> =
        unnamed.iter().filter(|(name, _)| !listed(name)).map(|(_, at)| at.as_str()).collect();
    assert!(
        orphans.is_empty(),
        "pub items no file outside their crate names; make them pub(crate) (or, if a public \
         signature exposes them, list them with it in REACHABLE_ONLY_THROUGH):\n{}",
        orphans.join("\n")
    );
    let stale: Vec<&str> = REACHABLE_ONLY_THROUGH
        .iter()
        .map(|(item, _)| *item)
        .filter(|item| !unnamed.iter().any(|(name, _)| name == item))
        .collect();
    assert!(stale.is_empty(), "allowlisted items that are gone or now named: {stale:?}");
}

/// Item numbers cited as `ROADMAP item N`, `ROADMAP items N, M and K` or
/// `ROADMAP N`, across line breaks and comment markers.
fn roadmap_citations(text: &str) -> Vec<u32> {
    let flat: Vec<&str> = text
        .lines()
        .map(|line| line.trim_start().trim_start_matches(['/', '!', '#', '*']).trim())
        .collect();
    let flat = flat.join(" ");
    let mut cited = Vec::new();
    for (at, marker) in flat.match_indices("ROADMAP") {
        let mut rest = flat[at + marker.len()..].trim_start();
        let list = rest.starts_with("items ");
        rest = rest.strip_prefix("items ").or_else(|| rest.strip_prefix("item ")).unwrap_or(rest);
        loop {
            let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            let Ok(number) = rest[..digits].parse() else { break };
            cited.push(number);
            rest = rest[digits..]
                .trim_start_matches(|c: char| c == '(' || c == ')' || c.is_ascii_lowercase());
            let next = [", ", " and ", ","].iter().find_map(|sep| rest.strip_prefix(sep));
            match next {
                Some(tail) if list => rest = tail.trim_start(),
                _ => break,
            }
        }
    }
    cited
}

/// Items listed under ROADMAP.md's "Open items", before "Parked": numbered
/// entries at the start of a line, leaving out the *Order* list and any item
/// whose heading reads `*(DONE`.
fn open_items(roadmap: &str) -> BTreeSet<u32> {
    let section = roadmap.split("\n## Open items").nth(1).expect("ROADMAP.md has Open items");
    let section = section.split("\n## ").next().expect("section");
    let section = section.split("\n### Parked").next().expect("items");
    let mut open = BTreeSet::new();
    let mut in_order = false;
    let mut heading: Option<(u32, String)> = None;
    for line in section.lines().chain([""]) {
        if line.starts_with("**Order.**") {
            in_order = true;
            continue;
        }
        let number = line.split_once(". ").and_then(|(n, _)| n.parse::<u32>().ok());
        if in_order && !line.is_empty() && number.is_none() && !line.starts_with(' ') {
            in_order = false;
        }
        if line.trim().is_empty() {
            if let Some((n, text)) = heading.take() {
                if !text.contains("*(DONE") {
                    open.insert(n);
                }
            }
        } else if let Some((_, text)) = heading.as_mut() {
            text.push_str(line);
        } else if let (Some(n), false) = (number, in_order) {
            heading = Some((n, line.to_owned()));
        }
    }
    open
}

#[test]
fn roadmap_citations_name_open_items() {
    let root = root();
    let open = open_items(&read(&root.join("ROADMAP.md")));
    let mut citing = Vec::new();
    files(&root, "rs", &mut citing);
    files(&root, "toml", &mut citing);
    citing.retain(|path| !path.starts_with(root.join("crates/e2e")));
    citing.extend(CITING_DOCS.iter().map(|doc| root.join(doc)));
    let mut stale = Vec::new();
    for path in citing {
        for n in roadmap_citations(&read(&path)) {
            if !open.contains(&n) {
                let file = path.strip_prefix(&root).unwrap_or(&path).display().to_string();
                stale.push(format!("{file}: ROADMAP item {n}"));
            }
        }
    }
    stale.sort();
    stale.dedup();
    assert!(stale.is_empty(), "citations of items not open in ROADMAP.md:\n{}", stale.join("\n"));
}

#[test]
fn the_scanners_read_the_forms_the_tree_uses() {
    let code = "/// ```\n/// use lingua_x::Shown;\n/// ```\n/// [`Linked`]\n\
                macro_rules! m { () => { $crate::Expanded } }\n\
                pub struct Kept;\npub(crate) fn hidden() {}\n    pub const fn method() {}\n\
                pub use other::Reexported;\n#[cfg(test)]\npub fn test_only() {}";
    let elsewhere = compiled_elsewhere(code);
    assert!(elsewhere.contains("Shown") && elsewhere.contains("Expanded"));
    assert!(!elsewhere.contains("Linked"));
    assert_eq!(pub_items(code), [("struct", "Kept"), ("fn", "method")]);

    let cited = "see ROADMAP item 2(c); ROADMAP\n// item 10(b) and ROADMAP items 7, 13(a) and 9,\n\
                 ROADMAP 2(f), the ROADMAP's north star";
    assert_eq!(roadmap_citations(cited), [2, 10, 7, 13, 9, 2]);

    let roadmap =
        "# ROADMAP\n\n## Open items\n\nState.\n\n**Order.**\n1. **Item 2.** first\n   more\n\
                   2. ~~**Item 15.**~~ done\n\nItems 10 and 14 go together.\n\n\
                   2. **Re-anchor.** *(carried)*\n   (a) text\n\n\
                   15. **Retries.**\n    *(DONE in PR 31.)* text\n\n\
                   5. **Compute.** *((2) DONE; (1) open)*\n\n### Parked\n\n9. **Not an item.**\n";
    assert_eq!(open_items(roadmap), BTreeSet::from([2, 5]));
}
