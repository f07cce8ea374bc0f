//! Docs and CI name only targets that exist.
//!
//! The README, DESIGN.md, EXPERIMENTS.md, the CI workflow, the verify skill
//! and the `lingua-bench` crate docs cite build targets by name — `--bin X`,
//! `--test X` (globs allowed), `--example X` — and results files as
//! `results/X.json`. A target that is deleted or renamed has to take its
//! citations with it; this test fails naming the file and the token when one
//! is left behind. History files (ROADMAP, CHANGES, ISSUE) and
//! `crates/e2e/README.md` are out of scope.

use std::fs;
use std::path::{Path, PathBuf};

const SCANNED: [&str; 6] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
    "crates/bench/src/lib.rs",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Stems of the `*.<ext>` files directly in `dir`; none if there is no such
/// directory.
fn stems(dir: &Path, ext: &str) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    entries
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == ext))
        .map(|path| path.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect()
}

/// Stems of the `.rs` files in `<root>/<dir>` and every `<root>/crates/*/<dir>`.
fn target_stems(dir: &str) -> Vec<String> {
    let crates = fs::read_dir(root().join("crates")).expect("crates/ is readable");
    let mut parents = vec![root()];
    parents.extend(crates.map(|entry| entry.expect("crate dir").path()));
    parents.iter().flat_map(|parent| stems(&parent.join(dir), "rs")).collect()
}

/// `*`-only glob match.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, rest)) => name.strip_prefix(head).is_some_and(|tail| {
            (0..=tail.len()).any(|i| tail.is_char_boundary(i) && glob(rest, &tail[i..]))
        }),
    }
}

/// The target name at the start of `text`: `[A-Za-z0-9_*-]+`, possibly empty
/// (a placeholder such as `<name>` is not a citation).
fn name_at(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '*' | '-')))
        .unwrap_or(text.len());
    &text[..end]
}

/// Names cited as `<flag> X`, `<flag>=X` or `<flag> 'X'`.
fn flag_citations<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices(flag) {
        let after = &text[at + flag.len()..];
        let value = after.trim_start_matches([' ', '=']);
        if value.len() == after.len() {
            continue; // `--bins`, `--test-threads`, ...
        }
        let name = name_at(value.trim_start_matches(['\'', '"']));
        if !name.is_empty() {
            names.push(name);
        }
    }
    names
}

/// Names cited as `results/X.json` — the root `results/`, not a crate's.
fn results_citations(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for (at, marker) in text.match_indices("results/") {
        let nested = text[..at].ends_with(|c: char| c == '/' || c.is_ascii_alphanumeric());
        let name = name_at(&text[at + marker.len()..]);
        let is_json = text[at + marker.len() + name.len()..].starts_with(".json");
        if !nested && !name.is_empty() && is_json {
            names.push(name);
        }
    }
    names
}

#[test]
fn docs_and_ci_cite_only_targets_in_the_tree() {
    let bins = target_stems("src/bin");
    let tests = target_stems("tests");
    let examples = target_stems("examples");
    let committed = stems(&root().join("results"), "json");
    // A results file need not be committed if a surviving bin writes it:
    // `write_json("X", ..)` or a literal `"X.json"`.
    let bin_sources: String = fs::read_dir(root().join("crates/bench/src/bin"))
        .expect("bench bins are readable")
        .map(|entry| fs::read_to_string(entry.expect("bin").path()).expect("bin source"))
        .collect::<String>()
        .split_whitespace()
        .collect();
    let written = |name: &str| {
        bin_sources.contains(&format!("write_json(\"{name}\""))
            || bin_sources.contains(&format!("\"{name}.json\""))
    };

    let mut stale = Vec::new();
    for file in SCANNED {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for (flag, stems) in [("--bin", &bins), ("--test", &tests), ("--example", &examples)] {
            for name in flag_citations(&text, flag) {
                if !stems.iter().any(|stem| glob(name, stem)) {
                    stale.push(format!("{file}: {flag} {name}"));
                }
            }
        }
        for name in results_citations(&text) {
            if !committed.iter().any(|stem| glob(name, stem)) && !written(name) {
                stale.push(format!("{file}: results/{name}.json"));
            }
        }
    }
    stale.sort();
    stale.dedup();
    assert!(stale.is_empty(), "citations of targets that do not exist:\n{}", stale.join("\n"));
}

#[test]
fn the_scanner_reads_the_citation_forms_the_docs_use() {
    let text = "cargo test --release --test 'prop_*' --test vm_differential -- --test-threads 1\n\
                cargo run -p lingua-bench --bin script_vm -- --check-baseline results/script_vm.json\n\
                see crates/e2e/results/BENCH_11.json and results/<name>.json, `--example=quickstart`";
    assert_eq!(flag_citations(text, "--test"), ["prop_*", "vm_differential"]);
    assert_eq!(flag_citations(text, "--bin"), ["script_vm"]);
    assert_eq!(flag_citations(text, "--example"), ["quickstart"]);
    assert_eq!(results_citations(text), ["script_vm"]);
    assert!(glob("prop_*", "prop_batch") && glob("*", "x") && glob("a*c*", "abcd"));
    assert!(!glob("prop_*", "vm_differential") && !glob("a*c", "abcd"));
}
