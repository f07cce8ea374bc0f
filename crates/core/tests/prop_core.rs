//! Property tests for lingua-core: Data ↔ MangaScript round-trips, DSL
//! parser totality, and pipeline pretty/parse round-trips.

use lingua_core::data::Data;
use lingua_core::modules::ModuleKind;
use lingua_core::pipeline::{LogicalOp, Pipeline};
use lingua_ml::check::{check, Gen, LOWER, PRINTABLE};

fn scalar(g: &mut Gen) -> Data {
    match g.int(0..5) {
        0 => Data::Null,
        1 => Data::Bool(g.bool()),
        2 => Data::Int(g.int(-1_000_000..1_000_000)),
        3 => Data::Float(g.grid(-1e6, 1e6, 1.0 / 16.0)),
        _ => Data::Str(g.string(PRINTABLE, 0..=24)),
    }
}

fn data(g: &mut Gen, depth: u32) -> Data {
    if depth == 0 || !g.descend() {
        return scalar(g);
    }
    match g.int(0..3) {
        0 => scalar(g),
        1 => Data::List(g.vec(0..4, |g| data(g, depth - 1))),
        _ => Data::Map(g.map(0..4, |g| g.string(LOWER, 1..=6), |g| data(g, depth - 1))),
    }
}

/// `[a-z][a-z0-9_]{0,8}`, never a DSL keyword.
fn ident(g: &mut Gen) -> String {
    loop {
        let name =
            g.string(LOWER, 1..=1) + &g.string("abcdefghijklmnopqrstuvwxyz0123456789_", 0..=8);
        if !matches!(name.as_str(), "pipeline" | "using" | "with") {
            return name;
        }
    }
}

fn logical_op(g: &mut Gen) -> LogicalOp {
    let mut op = LogicalOp::new(ident(g));
    if let Some(output) = g.option(ident) {
        op.output = output;
    }
    op.inputs = g.vec(0..3, ident);
    op.kind = g.option(|g| *g.pick(&[ModuleKind::Custom, ModuleKind::Llm, ModuleKind::Llmgc]));
    // Parameter values are `[ -~]` without the backslash.
    let values = PRINTABLE.replace('\\', "");
    op.params = g.map(0..3, |g| g.string(LOWER, 1..=6), |g| g.string(&values, 0..=16));
    op
}

/// Data survives the trip through MangaScript values (scripts can consume
/// and produce any pipeline value losslessly).
#[test]
fn data_script_roundtrip() {
    check(
        "data_script_roundtrip",
        160,
        |g| data(g, 3),
        |d| {
            let back = Data::from_script(&d.to_script());
            assert!(back.loose_eq(&d), "{back:?} vs {d:?}");
        },
    );
}

/// The DSL parser is total — no panic on arbitrary input.
#[test]
fn dsl_parser_is_total() {
    let alphabet = format!("{PRINTABLE}\n");
    check(
        "dsl_parser_is_total",
        160,
        |g| g.string(&alphabet, 0..=160),
        |src| {
            let _ = Pipeline::parse(&src);
        },
    );
}

/// pretty(pipeline) re-parses to the identical pipeline.
#[test]
fn pipeline_pretty_roundtrip() {
    check(
        "pipeline_pretty_roundtrip",
        160,
        |g| Pipeline { name: ident(g), ops: g.vec(0..5, logical_op) },
        |pipeline| {
            let pretty = pipeline.pretty();
            let reparsed = Pipeline::parse(&pretty)
                .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{pretty}"));
            assert_eq!(reparsed, pipeline);
        },
    );
}

/// Data rendering is total and loose_eq is reflexive.
#[test]
fn data_render_total_and_eq_reflexive() {
    check(
        "data_render_total_and_eq_reflexive",
        160,
        |g| data(g, 3),
        |d| {
            let _ = d.render();
            assert!(d.loose_eq(&d));
        },
    );
}
