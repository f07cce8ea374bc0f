//! The writer and the parser of `crates/json` agree with each other and with
//! what is committed.
//!
//! Every `results/*.json` and both golden traces were written by
//! `serde_json::to_string_pretty`; parsing one and writing it again must give
//! the file back byte for byte (the goldens carry the one trailing newline
//! `TraceTree::golden_pretty` appends). A change to either half that would move
//! a committed byte fails here in seconds, before ten bins are regenerated.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn json_files(dir: &str) -> Vec<PathBuf> {
    fs::read_dir(root().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect()
}

#[test]
fn every_committed_document_is_reproduced_byte_for_byte() {
    let mut documents = 0;
    for (dir, trailer) in [("results", ""), ("crates/serve/tests/golden", "\n")] {
        for path in json_files(dir) {
            let name = path.display();
            let committed = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
            let tree = serde_json::from_str(&committed).unwrap_or_else(|e| panic!("{name}: {e}"));
            let written = serde_json::to_string_pretty(&tree).expect("value trees serialize");
            assert!(written + trailer == committed, "{name} is not what the writer emits");
            documents += 1;
        }
    }
    assert!(documents >= 13, "the scan found only {documents} documents");
}
