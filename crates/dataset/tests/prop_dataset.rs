//! Property tests for the CSV codec and the mini-SQL query engine.

use lingua_dataset::query::{like_match, Catalog, Query};
use lingua_dataset::{csv, Record, Schema, Table, Value};
use lingua_ml::check::{check, Gen, LOWER, PRINTABLE};

fn cell(g: &mut Gen) -> Value {
    match g.int(0..5) {
        0 => Value::Null,
        1 => Value::Bool(g.bool()),
        2 => Value::Int(g.int(-10_000..10_000)),
        3 => Value::Float(g.grid(-100.0, 100.0, 0.25) + 0.25),
        // Strings that cannot be mistaken for numbers/bools/empties:
        // `[a-zA-Z][a-zA-Z ,"\n']{0,20}`.
        _ => {
            let letters = format!("{LOWER}{}", LOWER.to_uppercase());
            Value::Str(g.string(&letters, 1..=1) + &g.string(&format!("{letters} ,\"\n'"), 0..=20))
        }
    }
}

/// 2–4 columns `c0…`, 0–29 rows.
fn table(g: &mut Gen) -> Table {
    let cols = g.int(2usize..5);
    let schema = Schema::of_names((0..cols).map(|i| format!("c{i}")));
    let rows = g.vec(0..30, |g| Record::new(g.vec(cols..=cols, cell)));
    Table::with_rows("t", schema, rows).unwrap()
}

fn count_where_c1_exceeds(t: &Table, threshold: i64) {
    let mut catalog = Catalog::new();
    catalog.register(t.clone());
    let sql = format!("SELECT count(*) FROM t WHERE c1 > {threshold}");
    let result = catalog.execute(&sql).unwrap();
    let expected = t
        .rows()
        .iter()
        .filter(|r| {
            r[1].total_cmp(&Value::Int(threshold)) == std::cmp::Ordering::Greater
                && !r[1].is_null()
                && r[1].as_f64().is_some()
        })
        .count();
    assert_eq!(result.cell(0, "count(*)").unwrap(), &Value::Int(expected as i64));
}

/// CSV write → read reproduces the table exactly, as long as string cells
/// are not ambiguous with other types (the generator guarantees that).
#[test]
fn csv_roundtrip() {
    check("csv_roundtrip", 128, table, |t| {
        let text = csv::write_str(&t);
        let back = csv::read_str("t", &text).unwrap();
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.rows(), t.rows());
    });
}

/// LIMIT n never returns more than n rows and is a prefix of the
/// unlimited result.
#[test]
fn limit_is_a_prefix() {
    check(
        "limit_is_a_prefix",
        128,
        |g| (table(g), g.int(0usize..10)),
        |(t, n)| {
            let mut catalog = Catalog::new();
            catalog.register(t);
            let all = catalog.execute("SELECT * FROM t").unwrap();
            let limited = catalog.execute(&format!("SELECT * FROM t LIMIT {n}")).unwrap();
            assert!(limited.len() <= n);
            assert_eq!(limited.rows(), &all.rows()[..limited.len()]);
        },
    );
}

/// ORDER BY produces a permutation that is sorted under Value::total_cmp.
#[test]
fn order_by_sorts() {
    check("order_by_sorts", 128, table, |t| {
        let mut catalog = Catalog::new();
        catalog.register(t.clone());
        let sorted = catalog.execute("SELECT c0 FROM t ORDER BY c0").unwrap();
        assert_eq!(sorted.len(), t.len());
        for w in sorted.rows().windows(2) {
            assert_ne!(w[0][0].total_cmp(&w[1][0]), std::cmp::Ordering::Greater);
        }
    });
}

/// COUNT(*) equals the number of rows matching the predicate computed
/// directly.
#[test]
fn count_matches_filter() {
    check(
        "count_matches_filter",
        128,
        |g| (table(g), g.int(-10_000i64..10_000)),
        |(t, threshold)| count_where_c1_exceeds(&t, threshold),
    );
}

/// The one case a run of this law ever saved as a regression: nulls, bools,
/// floats and quoted multi-line strings in the compared column.
#[test]
fn count_matches_filter_on_the_saved_mixed_column() {
    let s = |text: &str| Value::Str(text.into());
    let rows = vec![
        vec![Value::Null, Value::Null],
        vec![Value::Null, Value::Null],
        vec![Value::Null, Value::Int(-4137)],
        vec![Value::Float(50.5), Value::Bool(true)],
        vec![Value::Float(50.5), Value::Float(19.75)],
        vec![Value::Float(-78.0), s("PkRisUJ\"hh','I '\"")],
        vec![s("y,',"), s("PJ'''\"\nd',\narwN\" pXj,")],
        vec![Value::Null, Value::Float(-60.5)],
        vec![s("K\"\n\"\n wd\n\"cJt"), Value::Bool(true)],
    ];
    let rows = rows.into_iter().map(Record::new).collect();
    let t = Table::with_rows("t", Schema::of_names(["c0", "c1"]), rows).unwrap();
    count_where_c1_exceeds(&t, -461);
}

/// The query parser never panics on arbitrary input.
#[test]
fn query_parser_never_panics() {
    check(
        "query_parser_never_panics",
        128,
        |g| g.string(PRINTABLE, 0..=60),
        |sql| {
            let _ = Query::parse(&sql);
        },
    );
}

/// LIKE with a pattern equal to the text (no wildcards) always matches,
/// and `%text%` matches any superstring.
#[test]
fn like_reflexive_and_substring() {
    check(
        "like_reflexive_and_substring",
        128,
        |g| (g.string(LOWER, 0..=10), g.string(LOWER, 0..=5), g.string(LOWER, 0..=5)),
        |(text, pre, post)| {
            assert!(like_match(&text, &text));
            let pattern = format!("%{text}%");
            let haystack = format!("{pre}{text}{post}");
            assert!(like_match(&pattern, &haystack));
        },
    );
}
