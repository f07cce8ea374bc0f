//! A small, correct CSV codec (RFC 4180 subset: quoting, escaped quotes,
//! embedded newlines and commas), written against `std` only.
//!
//! The first line is always treated as the header. Cell types are inferred
//! via `Value::infer` unless `read_str` is used.

use crate::error::DataError;
use crate::record::Record;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::path::Path;

/// Parse CSV text into a [`Table`], inferring cell types.
pub fn read_str(name: &str, text: &str) -> Result<Table, DataError> {
    let rows = parse_rows(text)?;
    let mut iter = rows.into_iter();
    let header = iter
        .next()
        .ok_or(DataError::Csv { line: 1, message: "empty input: missing header".into() })?;
    let schema = Schema::of_names(header.0);
    let mut table = Table::new(name, schema);
    for (cells, line) in iter.map(|r| (r.0, r.1)) {
        if cells.len() != table.schema().len() {
            return Err(DataError::Csv {
                line,
                message: format!("expected {} fields, found {}", table.schema().len(), cells.len()),
            });
        }
        let record = Record::new(cells.iter().map(|c| Value::infer(c)).collect());
        table.push(record).map_err(|e| DataError::Csv { line, message: e.to_string() })?;
    }
    Ok(table)
}

/// Read a CSV file from disk.
pub fn read_path(path: impl AsRef<Path>) -> Result<Table, DataError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("table");
    read_str(name, &text)
}

/// Serialize a table to CSV text (header + rows), quoting as needed.
pub fn write_str(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table.schema().names().map(escape).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.rows() {
        let cells: Vec<String> = row.iter().map(|v| escape(&v.render())).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Write a table to disk as CSV.
pub fn write_path(table: &Table, path: impl AsRef<Path>) -> Result<(), DataError> {
    std::fs::write(path, write_str(table))?;
    Ok(())
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Parse raw CSV into rows of string cells, tracking 1-based line numbers
/// for error reporting.
fn parse_rows(text: &str) -> Result<Vec<(Vec<String>, usize)>, DataError> {
    let mut rows = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut line = 1usize;
    let mut record_line = 1usize;
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();

    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(ch);
                }
                _ => field.push(ch),
            }
        } else {
            match ch {
                '"' => {
                    if !field.is_empty() {
                        return Err(DataError::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    rows.push((std::mem::take(&mut record), record_line));
                    record_line = line;
                }
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    rows.push((std::mem::take(&mut record), record_line));
                    record_line = line;
                }
                _ => field.push(ch),
            }
        }
    }
    if in_quotes {
        return Err(DataError::Csv { line, message: "unterminated quoted field".into() });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        rows.push((record, record_line));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let text = "id,name\n1,alpha\n2,beta\n";
        let table = read_str("t", text).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.cell(0, "name").unwrap(), &Value::from("alpha"));
        assert_eq!(write_str(&table), text);
    }

    #[test]
    fn quoted_fields_with_commas_and_newlines() {
        let text = "id,desc\n1,\"a, b\"\n2,\"line1\nline2\"\n3,\"he said \"\"hi\"\"\"\n";
        let table = read_str("t", text).unwrap();
        assert_eq!(table.cell(0, "desc").unwrap(), &Value::from("a, b"));
        assert_eq!(table.cell(1, "desc").unwrap(), &Value::from("line1\nline2"));
        assert_eq!(table.cell(2, "desc").unwrap(), &Value::from("he said \"hi\""));
        // Re-serialize and re-parse: must be stable.
        let again = read_str("t", &write_str(&table)).unwrap();
        assert_eq!(again, table);
    }

    #[test]
    fn crlf_line_endings() {
        let table = read_str("t", "a,b\r\n1,2\r\n").unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(table.cell(0, "b").unwrap(), &Value::Int(2));
    }

    #[test]
    fn missing_trailing_newline() {
        let table = read_str("t", "a\n1").unwrap();
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn empty_cells_become_null() {
        let table = read_str("t", "a,b\n1,\n,2\n").unwrap();
        assert!(table.cell(0, "b").unwrap().is_null());
        assert!(table.cell(1, "a").unwrap().is_null());
    }

    #[test]
    fn field_count_mismatch_reports_line() {
        let err = read_str("t", "a,b\n1\n").unwrap_err();
        match err {
            DataError::Csv { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(read_str("t", "a\n\"oops\n").is_err());
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(read_str("t", "").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("lingua_dataset_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        let table = read_str("sample", "x,y\n1,2\n").unwrap();
        write_path(&table, &path).unwrap();
        let back = read_path(&path).unwrap();
        assert_eq!(back, table);
        std::fs::remove_file(path).ok();
    }
}
