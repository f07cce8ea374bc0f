//! Connectors (§3.2): "a locally-running connector can be employed to manage
//! the selective data upload to LLMs" — the LLM never touches the raw data
//! lake; it gets only allowlisted query results (tabular) or top-k relevant
//! chunks (text), and every byte that crosses the boundary is metered.

use crate::error::CoreError;
use lingua_dataset::query::Catalog;
use lingua_dataset::Table;
use lingua_ml::features::HashingVectorizer;
use lingua_trace::{SpanKind, Tracer};

/// Running account of the data exposed to the LLM through a connector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExposureMeter {
    pub queries: u64,
    pub rows_exposed: u64,
    pub bytes_exposed: u64,
    pub queries_denied: u64,
}

/// The tabular connector: executes only allowlisted `SELECT` statements
/// against the local catalog.
pub struct TabularConnector {
    catalog: Catalog,
    /// Case-insensitive prefixes a query must match to be allowed. Empty
    /// allowlist = deny everything.
    allowed_prefixes: Vec<String>,
    /// Hard cap on rows returned per query (data minimization).
    pub max_rows: usize,
    meter: ExposureMeter,
    /// Connectors sit below the execution context, so they carry their own
    /// tracer handle (disabled unless installed via `with_tracer`).
    tracer: Tracer,
}

impl TabularConnector {
    pub fn new(catalog: Catalog) -> TabularConnector {
        TabularConnector {
            catalog,
            allowed_prefixes: Vec::new(),
            max_rows: 50,
            meter: ExposureMeter::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Emit a `connector` instant for every query decision.
    pub fn with_tracer(mut self, tracer: Tracer) -> TabularConnector {
        self.tracer = tracer;
        self
    }

    /// Allow queries starting with `prefix` (whitespace-normalized,
    /// case-insensitive) — "the execution is limited to the queries
    /// specified by the user".
    pub fn allow_prefix(mut self, prefix: impl Into<String>) -> TabularConnector {
        self.allowed_prefixes.push(normalize_sql(&prefix.into()));
        self
    }

    pub fn meter(&self) -> ExposureMeter {
        self.meter
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Execute an allowlisted query; meters the exposed result.
    pub fn fetch(&mut self, sql: &str) -> Result<Table, CoreError> {
        let normalized = normalize_sql(sql);
        let allowed = self.allowed_prefixes.iter().any(|prefix| admits(prefix, &normalized));
        if !allowed {
            self.meter.queries_denied += 1;
            self.tracer.instant(SpanKind::Connector, "query_denied", || {
                vec![("sql".into(), normalized.clone())]
            });
            return Err(CoreError::ConnectorDenied(sql.to_string()));
        }
        let result = self.catalog.execute(sql)?;
        let result = result.head(self.max_rows);
        self.meter.queries += 1;
        self.meter.rows_exposed += result.len() as u64;
        let bytes = lingua_dataset::csv::write_str(&result).len() as u64;
        self.meter.bytes_exposed += bytes;
        self.tracer.instant(SpanKind::Connector, "query", || {
            vec![
                ("sql".into(), normalized.clone()),
                ("rows".into(), result.len().to_string()),
                ("bytes".into(), bytes.to_string()),
            ]
        });
        Ok(result)
    }
}

/// The text connector: chunks a long document and uploads only the top-k
/// chunks relevant to the query ("connectors designed for handling extensive
/// textual data").
pub struct TextConnector {
    /// Target chunk size in characters (split at sentence boundaries).
    pub chunk_chars: usize,
    /// How many chunks may be exposed per request.
    pub top_k: usize,
    vectorizer: HashingVectorizer,
    meter: ExposureMeter,
    tracer: Tracer,
}

impl TextConnector {
    pub fn new(chunk_chars: usize, top_k: usize) -> TextConnector {
        TextConnector {
            chunk_chars,
            top_k,
            vectorizer: HashingVectorizer::new(512),
            meter: ExposureMeter::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Emit a `connector` instant for every chunk selection.
    pub fn with_tracer(mut self, tracer: Tracer) -> TextConnector {
        self.tracer = tracer;
        self
    }

    pub fn meter(&self) -> ExposureMeter {
        self.meter
    }

    /// Split a document into chunks at sentence boundaries.
    pub(crate) fn chunk(&self, document: &str) -> Vec<String> {
        let mut chunks = Vec::new();
        let mut current = String::new();
        for sentence in document.split_inclusive(['.', '!', '?', '\n']) {
            if !current.is_empty() && current.len() + sentence.len() > self.chunk_chars {
                chunks.push(std::mem::take(&mut current));
            }
            current.push_str(sentence);
        }
        if !current.trim().is_empty() {
            chunks.push(current);
        }
        chunks
    }

    /// The top-k chunks of `document` most relevant to `query`, metered.
    pub fn relevant_chunks(&mut self, document: &str, query: &str) -> Vec<String> {
        let chunks = self.chunk(document);
        let query_vec = self.vectorizer.transform(query);
        let mut scored: Vec<(f64, String)> = chunks
            .into_iter()
            .map(|chunk| {
                let v = self.vectorizer.transform(&chunk);
                let dot: f64 = v.iter().zip(&query_vec).map(|(a, b)| a * b).sum();
                (dot, chunk)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let selected: Vec<String> =
            scored.into_iter().take(self.top_k).map(|(_, chunk)| chunk).collect();
        self.meter.queries += 1;
        let bytes = selected.iter().map(|c| c.len() as u64).sum::<u64>();
        self.meter.bytes_exposed += bytes;
        self.tracer.instant(SpanKind::Connector, "chunks", || {
            vec![
                ("selected".into(), selected.len().to_string()),
                ("bytes".into(), bytes.to_string()),
            ]
        });
        selected
    }
}

/// Whether `query` starts with `prefix` and the prefix ends at a token
/// boundary: the allowed `... FROM products` must not admit
/// `... FROM products_private`.
fn admits(prefix: &str, query: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    query
        .strip_prefix(prefix)
        .is_some_and(|rest| !(prefix.ends_with(is_ident) && rest.starts_with(is_ident)))
}

fn normalize_sql(sql: &str) -> String {
    sql.split_whitespace().collect::<Vec<_>>().join(" ").to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::csv;

    fn catalog() -> Catalog {
        let table = csv::read_str(
            "products",
            "id,name,price\n1,widget,9.5\n2,gadget,19.5\n3,doohickey,4.0\n",
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.register(table);
        catalog
    }

    #[test]
    fn allowlisted_queries_run_and_are_metered() {
        let mut connector =
            TabularConnector::new(catalog()).allow_prefix("SELECT name FROM products");
        let result = connector.fetch("select   name from PRODUCTS where price < 10").unwrap();
        assert_eq!(result.len(), 2);
        let meter = connector.meter();
        assert_eq!(meter.queries, 1);
        assert_eq!(meter.rows_exposed, 2);
        assert!(meter.bytes_exposed > 0);
    }

    #[test]
    fn non_allowlisted_queries_are_denied() {
        let mut connector =
            TabularConnector::new(catalog()).allow_prefix("SELECT name FROM products");
        let err = connector.fetch("SELECT * FROM products").unwrap_err();
        assert!(matches!(err, CoreError::ConnectorDenied(_)));
        assert_eq!(connector.meter().queries_denied, 1);
        assert_eq!(connector.meter().rows_exposed, 0);
    }

    #[test]
    fn a_prefix_admits_no_table_whose_name_extends_it() {
        let mut catalog = catalog();
        let mut private = catalog.get("products").unwrap().clone();
        private.set_name("products_private");
        catalog.register(private);
        let mut connector =
            TabularConnector::new(catalog).allow_prefix("SELECT name FROM products");
        let err = connector.fetch("SELECT name FROM products_private").unwrap_err();
        assert!(matches!(err, CoreError::ConnectorDenied(_)));
        assert_eq!(connector.meter().queries_denied, 1);
        assert_eq!(connector.meter().rows_exposed, 0);
        assert_eq!(connector.fetch("SELECT name FROM products").unwrap().len(), 3);
    }

    #[test]
    fn empty_allowlist_denies_everything() {
        let mut connector = TabularConnector::new(catalog());
        assert!(connector.fetch("SELECT name FROM products").is_err());
    }

    #[test]
    fn row_cap_limits_exposure() {
        let mut connector = TabularConnector::new(catalog()).allow_prefix("SELECT");
        connector.max_rows = 1;
        let result = connector.fetch("SELECT * FROM products").unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(connector.meter().rows_exposed, 1);
    }

    #[test]
    fn text_connector_chunks_at_sentences() {
        let connector = TextConnector::new(50, 2);
        let doc =
            "First sentence here. Second sentence follows. Third one now. Fourth sentence ends.";
        let chunks = connector.chunk(doc);
        assert!(chunks.len() >= 2, "{chunks:?}");
        let rejoined: String = chunks.concat();
        assert_eq!(rejoined, doc);
    }

    #[test]
    fn relevant_chunks_rank_by_query() {
        let mut connector = TextConnector::new(60, 1);
        let doc = "The quarterly budget exceeded projections by a wide margin. \
                   The office picnic was rescheduled due to heavy rain outside. \
                   Budget allocations for the next quarter were also approved.";
        let top = connector.relevant_chunks(doc, "budget quarter allocations");
        assert_eq!(top.len(), 1);
        assert!(top[0].to_lowercase().contains("budget"), "{top:?}");
        assert!(connector.meter().bytes_exposed > 0);
        // Far less than the whole document crossed the boundary.
        assert!(connector.meter().bytes_exposed < doc.len() as u64);
    }
}
