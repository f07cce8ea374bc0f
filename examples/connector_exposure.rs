//! Connector-mediated data access (§3.2): the LLM sees only what an
//! allowlisted query returns, and every row and byte that crosses the
//! boundary is metered against the table it came from.
//!
//! ```text
//! cargo run --release -p lingua-core --example connector_exposure
//! ```

use lingua_core::optimizer::TabularConnector;
use lingua_dataset::query::Catalog;
use lingua_dataset::world::WorldSpec;
use lingua_dataset::{csv, ColumnType, Record, Schema, Table, Value};

fn main() {
    println!("=== Lingua Manga: connector-mediated data access ===\n");
    let world = WorldSpec::generate(17);
    let mut products = Table::new(
        "products",
        Schema::new(vec![
            ("name".into(), ColumnType::Str),
            ("manufacturer".into(), ColumnType::Str),
            ("price".into(), ColumnType::Float),
            ("description".into(), ColumnType::Str),
        ]),
    );
    for p in world.products.iter().take(60) {
        products
            .push(Record::new(vec![
                Value::Str(p.name.clone()),
                Value::Str(p.manufacturer.clone()),
                Value::Float(p.price),
                Value::Str(p.description.clone()),
            ]))
            .unwrap();
    }
    let full_rows = products.len();
    let full_bytes = csv::write_str(&products).len();
    // A second table whose name extends the allowlisted one.
    let mut private = products.clone();
    private.set_name("products_private");

    let mut catalog = Catalog::new();
    catalog.register(products);
    catalog.register(private);
    let mut connector =
        TabularConnector::new(catalog).allow_prefix("SELECT name, price FROM products");
    let approved = connector.fetch("SELECT name, price FROM products WHERE price < 50").unwrap();
    println!("> approved query returned {} row(s)", approved.len());
    let star = connector.fetch("SELECT * FROM products");
    println!("> `SELECT *` denied: {}", star.is_err());
    let other = connector.fetch("SELECT name, price FROM products_private");
    println!("> `products_private` denied: {}", other.is_err());
    let meter = connector.meter();
    println!(
        "> exposure meter: {} queries, {} denied; {} of {} rows and {} of {} bytes crossed the boundary",
        meter.queries,
        meter.queries_denied,
        meter.rows_exposed,
        full_rows,
        meter.bytes_exposed,
        full_bytes
    );
}
