//! The workspace builds on `std` and its own path crates.
//!
//! Every `[dependencies]` / `[dev-dependencies]` / `[workspace.dependencies]`
//! entry in the root manifest and in each `crates/*/Cargo.toml` must be a
//! path crate of this workspace: a `lingua-*` crate, or `serde_json`, which is
//! `crates/json` under the name `crates/e2e` asks for. `Cargo.lock` must not
//! name a package source at all. `crates/e2e` is the benchmark's own and out
//! of scope. A failure names the file and the key.

use std::fs;
use std::path::{Path, PathBuf};

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

/// Why `key = value` is not allowed in a dependency table, if it is not.
fn objection(key: &str, value: &str) -> Option<&'static str> {
    let compact: String = value.split_whitespace().collect();
    if key != "serde_json" && !key.starts_with("lingua-") {
        return Some("not a crate of this workspace");
    }
    (!compact.contains("path=") && !compact.contains("workspace=true"))
        .then_some("a crate of this workspace must come from it, by path")
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
            if let Some(why) = objection(&key, &value) {
                objections.push(format!("{file}: {key} — {why}"));
            }
        }
    }
    assert!(checked > 50, "the scan found only {checked} entries: the parser is not reading them");
    assert!(objections.is_empty(), "registry dependencies crept back:\n{}", objections.join("\n"));
}

/// A registry (or git) package carries a `source = "…"` line in the lock; a
/// path crate carries none. So this is "no registry package at all", and it
/// reads the file `cargo build --locked --offline` builds from.
#[test]
fn the_lockfile_names_no_package_source() {
    let lock = fs::read_to_string(root().join("Cargo.lock")).expect("Cargo.lock is committed");
    let packages = lock.lines().filter(|line| line.trim() == "[[package]]").count();
    let members = fs::read_dir(root().join("crates")).expect("crates/ is readable").count();
    assert_eq!(packages, members, "the lock lists one package per crate under crates/");
    let sourced: Vec<&str> =
        lock.lines().filter(|line| line.trim_start().starts_with("source")).collect();
    assert!(sourced.is_empty(), "Cargo.lock names package sources:\n{}", sourced.join("\n"));
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
        .filter(|(key, value)| objection(key, value).is_some())
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(refused, ["rand", "serde", "lingua-evil", "libc", "regex"]);
    assert!(objection("serde_json", "{ workspace = true }").is_none());
    assert!(objection("serde_json", "{ path = \"crates/json\" }").is_none());
    assert!(objection("serde_json", "\"1\"").is_some());
}
