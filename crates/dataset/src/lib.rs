//! # lingua-dataset
//!
//! The tabular data substrate for the Lingua Manga reproduction.
//!
//! This crate provides:
//!
//! * A compact dynamically-typed [`Value`] cell type plus [`Schema`],
//!   [`Record`], and [`Table`] containers used across the whole workspace.
//! * A CSV reader/writer ([`csv`]) so pipelines can load and save data.
//! * A mini-SQL query engine ([`query`]) — `SELECT`-only with projections,
//!   predicates, `ORDER BY`, `LIMIT`, `GROUP BY`, and a handful of aggregates.
//!   This is the engine behind the paper's *Connector* optimizer module, which
//!   confines an LLM to user-approved local queries instead of shipping it the
//!   whole table.
//! * Seeded synthetic generators ([`generators`]) reproducing the structure and
//!   difficulty profile of every dataset in the paper's evaluation
//!   (BeerAdvo-RateBeer, Fodors-Zagats, iTunes-Amazon, the Buy imputation
//!   dataset, and a multilingual name-extraction corpus), driven by an explicit
//!   ground-truth [`world::WorldSpec`].
//!
//! Everything stochastic takes an explicit `u64` seed and is reproducible.

pub mod csv;
mod error;
pub mod generators;
pub mod labels;
pub mod query;
mod record;
mod schema;
mod table;
mod value;
pub mod world;

pub use error::DataError;
pub use record::Record;
pub use schema::{ColumnType, Schema};
pub use table::Table;
pub use value::Value;
