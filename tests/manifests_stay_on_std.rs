//! The workspace builds on `std` and its own path crates.
//!
//! Every `[dependencies]` / `[dev-dependencies]` / `[workspace.dependencies]`
//! entry in the root manifest and in each `crates/*/Cargo.toml` must be a
//! `lingua-*` path crate. The one exception is `serde_json`, for the three
//! crates that still write JSON through it (`lingua-trace`, `lingua-bench`,
//! `lingua-durable`) and the workspace table that pins its version.
//! `crates/e2e` is the benchmark's own and out of scope. A failure names the
//! file and the key.

use std::fs;
use std::path::{Path, PathBuf};

const SERDE_JSON_ALLOWED: [&str; 4] = [
    "Cargo.toml",
    "crates/trace/Cargo.toml",
    "crates/bench/Cargo.toml",
    "crates/journal/Cargo.toml",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(key, value)` of every entry in a dependency table of `manifest`:
/// `key = value` lines under `[..dependencies]`, and `[..dependencies.key]`
/// sub-tables (whose value is the lines beneath them).
fn dependency_entries(manifest: &str) -> Vec<(String, String)> {
    let mut entries: Vec<(String, String)> = Vec::new();
    let (mut in_table, mut in_entry) = (false, false);
    for line in manifest.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_start_matches('[').trim_end_matches(']');
            in_table = header.ends_with("dependencies");
            in_entry = false;
            if let Some((table, key)) = header.rsplit_once('.') {
                if table.ends_with("dependencies") {
                    entries.push((key.to_string(), String::new()));
                    in_entry = true;
                }
            }
        } else if in_entry {
            entries.last_mut().expect("an open entry").1.push_str(line);
        } else if in_table {
            let (key, value) = line.split_once('=').expect("`key = value` in a dependency table");
            entries.push((key.trim().to_string(), value.trim().to_string()));
        }
    }
    entries
}

/// Why `key = value` in `file` is not allowed, if it is not.
fn objection(file: &str, key: &str, value: &str) -> Option<&'static str> {
    let compact: String = value.split_whitespace().collect();
    if key == "serde_json" {
        return (!SERDE_JSON_ALLOWED.contains(&file)).then_some("serde_json is not allowed here");
    }
    if !key.starts_with("lingua-") {
        return Some("not a lingua-* crate");
    }
    (!compact.contains("path=") && !compact.contains("workspace=true"))
        .then_some("a lingua-* crate must come from the workspace, by path")
}

#[test]
fn every_dependency_is_a_workspace_path_crate() {
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let name = entry.expect("crate dir").file_name().to_string_lossy().into_owned();
        if name != "e2e" {
            manifests.push(format!("crates/{name}/Cargo.toml"));
        }
    }
    manifests.sort();
    let mut objections = Vec::new();
    let mut checked = 0;
    for file in &manifests {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for (key, value) in dependency_entries(&text) {
            checked += 1;
            if let Some(why) = objection(file, &key, &value) {
                objections.push(format!("{file}: {key} — {why}"));
            }
        }
    }
    assert!(checked > 50, "the scan found only {checked} entries: the parser is not reading them");
    assert!(objections.is_empty(), "registry dependencies crept back:\n{}", objections.join("\n"));
}

#[test]
fn the_scanner_reads_the_forms_a_manifest_can_take() {
    let manifest = r#"
        [package]
        name = "x"
        [dependencies]
        lingua-ml = { workspace = true }
        rand = "0.8"
        serde = { version = "1", features = ["derive"] }
        [dev-dependencies]
        lingua-core = { path = "../core" }
        lingua-evil = "1"
        [target.'cfg(unix)'.dependencies]
        libc = "0.2"
        [dependencies.regex]
        version = "1"
        [[test]]
        name = "not_a_dependency"
    "#;
    let entries = dependency_entries(manifest);
    let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["lingua-ml", "rand", "serde", "lingua-core", "lingua-evil", "libc", "regex"]);
    let refused: Vec<&str> = entries
        .iter()
        .filter(|(key, value)| objection("crates/x/Cargo.toml", key, value).is_some())
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(refused, ["rand", "serde", "lingua-evil", "libc", "regex"]);
    assert!(objection("crates/core/Cargo.toml", "serde_json", "{ workspace = true }").is_some());
    assert!(objection("crates/trace/Cargo.toml", "serde_json", "{ workspace = true }").is_none());
    assert!(objection("Cargo.toml", "serde_json", "\"1\"").is_none());
}
