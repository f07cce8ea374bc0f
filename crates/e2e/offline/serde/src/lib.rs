//! Offline stand-in for `serde`: the workspace derives `Serialize` /
//! `Deserialize` on its snapshot structs but only ever serializes
//! `serde_json::Value` trees, so the traits are markers and the derives
//! expand to nothing.

pub trait Serialize {}

pub trait Deserialize<'de>: Sized {}

pub use serde_derive::{Deserialize, Serialize};
