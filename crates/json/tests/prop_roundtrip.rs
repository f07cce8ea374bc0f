//! Property: what either writer emits, the parser reads back as the same tree.

use lingua_ml::check::{check, Gen, PRINTABLE};
use serde_json::{from_str, to_string, to_string_pretty, Map, Value};

/// The parser's nesting limit: a tree this deep must still round-trip.
const MAX_DEPTH: usize = 128;

const EDGE_FLOATS: [f64; 8] =
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, f64::MAX, f64::MIN, 0.1 + 0.2];

fn text(g: &mut Gen) -> String {
    const ODD: &str = "\"\\/\u{0}\u{1}\u{8}\u{c}\n\r\t\u{1f}\u{7f}é漢🦀\u{ffff}\u{10FFFF}";
    let alphabet = [PRINTABLE, ODD].concat();
    g.string(&alphabet, 0..=12)
}

fn leaf(g: &mut Gen) -> Value {
    match g.weighted(&[1, 1, 3, 3, 3, 3, 1, 1]) {
        0 => Value::Null,
        1 => Value::Bool(g.bool()),
        2 => Value::from(g.int(0..=u64::MAX)),
        3 => Value::from(g.int(i64::MIN..=i64::MAX)),
        4 => Value::from(*g.pick(&[u64::MAX, 0, 1, i64::MAX as u64, i64::MAX as u64 + 1])),
        5 => Value::from(*g.pick(&[i64::MIN, -1, i64::MIN + 1])),
        6 => Value::from(*g.pick(&EDGE_FLOATS)),
        _ => Value::from(f64::from_bits(g.int(0..=u64::MAX))), // non-finite becomes null
    }
}

/// A tree that opens at most `room` more levels of containers.
fn tree(g: &mut Gen, room: usize) -> Value {
    if room == 0 || !g.descend() {
        return if g.bool() { leaf(g) } else { Value::String(text(g)) };
    }
    match g.weighted(&[3, 3, 1, 4]) {
        0 => Value::Array(g.vec(0..=4, |g| tree(g, room - 1))),
        1 => Value::Object(g.map(0..=4, text, |g| tree(g, room - 1))),
        // A chain down to the limit, ending in an empty container.
        2 => (1..room).fold(Value::Object(Map::new()), |inner, level| {
            if level % 2 == 0 {
                Value::Object(Map::from([(level.to_string(), inner)]))
            } else {
                Value::Array(vec![inner])
            }
        }),
        _ => leaf(g),
    }
}

#[test]
fn written_text_parses_back_to_the_same_tree() {
    let gen = |g: &mut Gen| tree(g, MAX_DEPTH);
    check("written_text_parses_back_to_the_same_tree", 300, gen, |v| {
        let compact = to_string(&v).unwrap();
        assert_eq!(from_str(&compact).unwrap_or_else(|e| panic!("{e}\n{compact}")), v, "{compact}");
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&pretty).unwrap_or_else(|e| panic!("{e}\n{pretty}")), v, "{pretty}");
    });
}
