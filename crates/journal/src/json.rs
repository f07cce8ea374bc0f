//! Forwarding shim, kept for one caller. The journal's payloads are the binary
//! encoding of the crate's `codec` module; the parser that lived here is
//! `serde_json::from_slice` (`crates/json`) now. The benchmark crate still
//! calls `lingua_durable::json::parse` at three sites, and files under
//! `crates/e2e` can only be edited by a `[benchmark]` PR: ROADMAP item 2(c)
//! moves those calls to `serde_json::from_slice`, and the next ordinary PR
//! deletes this file and the crate's `serde_json` dependency with it.

use serde_json::Value;

pub use serde_json::Error as JsonError;

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(bytes: &[u8]) -> Result<Value, JsonError> {
    serde_json::from_slice(bytes)
}
