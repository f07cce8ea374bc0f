//! Input fingerprinting for request deduplication.
//!
//! Two submissions are duplicates when they target the same pipeline id and
//! their input environments fingerprint identically. The fingerprint is a
//! 64-bit FNV-1a hash over a *canonical, type-tagged* encoding of the input
//! map, so `Data::Int(1)` and `Data::Str("1")` never collide by rendering
//! alike, and map/list structure is hashed, not just flattened text.

use lingua_core::Data;
use std::collections::BTreeMap;

/// The workspace-wide incremental FNV-1a 64 hasher, re-exported from the LLM
/// hot path so serve, gateway, and the simulator agree on one fingerprint
/// function (see `lingua_llm_sim::hotpath`).
pub(crate) use lingua_llm_sim::Fnv1a;

/// Combine a pipeline id and an input fingerprint into the single `u64` key
/// serve's job table is addressed by. Length-prefixing the id keeps
/// `("ab", fp)` and `("a", fp)` from aliasing.
pub(crate) fn job_key(pipeline: &str, fingerprint: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(pipeline);
    h.write_u64(fingerprint);
    h.finish()
}

/// Fingerprint a job's input environment.
pub fn fingerprint_inputs(inputs: &BTreeMap<String, Data>) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(inputs.len() as u64);
    for (key, value) in inputs {
        h.write_str(key);
        hash_data(&mut h, value);
    }
    h.finish()
}

fn hash_data(h: &mut Fnv1a, data: &Data) {
    // Type tag first, so values of different types never alias.
    h.write_str(data.type_name());
    match data {
        Data::Null => {}
        Data::Bool(b) => h.write(&[u8::from(*b)]),
        Data::Int(i) => h.write_u64(*i as u64),
        Data::Float(f) => h.write_u64(f.to_bits()),
        Data::Str(s) => h.write_str(s),
        Data::List(items) => {
            h.write_u64(items.len() as u64);
            for item in items {
                hash_data(h, item);
            }
        }
        Data::Map(map) => {
            h.write_u64(map.len() as u64);
            for (k, v) in map {
                h.write_str(k);
                hash_data(h, v);
            }
        }
        Data::Table(table) => {
            h.write_str(table.name());
            let schema = table.schema();
            h.write_u64(schema.len() as u64);
            for name in schema.names() {
                h.write_str(name);
            }
            h.write_u64(table.len() as u64);
            for row in table.rows() {
                for cell in row.iter() {
                    h.write_str(cell.type_name());
                    h.write_str(&cell.to_string());
                }
            }
        }
        Data::Record { schema, record } => {
            h.write_u64(schema.len() as u64);
            for name in schema.names() {
                h.write_str(name);
            }
            for cell in record.iter() {
                h.write_str(cell.type_name());
                h.write_str(&cell.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, Data)]) -> BTreeMap<String, Data> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    #[test]
    fn identical_inputs_fingerprint_identically() {
        let a = env(&[("x", Data::Str("hello".into())), ("n", Data::Int(3))]);
        let b = env(&[("n", Data::Int(3)), ("x", Data::Str("hello".into()))]);
        // BTreeMap ordering makes insertion order irrelevant.
        assert_eq!(fingerprint_inputs(&a), fingerprint_inputs(&b));
    }

    #[test]
    fn different_values_fingerprint_differently() {
        let a = env(&[("x", Data::Str("hello".into()))]);
        let b = env(&[("x", Data::Str("world".into()))]);
        assert_ne!(fingerprint_inputs(&a), fingerprint_inputs(&b));
    }

    #[test]
    fn type_tags_prevent_cross_type_collisions() {
        let int = env(&[("x", Data::Int(1))]);
        let text = env(&[("x", Data::Str("1".into()))]);
        let float = env(&[("x", Data::Float(1.0))]);
        assert_ne!(fingerprint_inputs(&int), fingerprint_inputs(&text));
        assert_ne!(fingerprint_inputs(&int), fingerprint_inputs(&float));
        // Null vs empty string vs empty list all differ.
        let null = env(&[("x", Data::Null)]);
        let empty = env(&[("x", Data::Str(String::new()))]);
        let list = env(&[("x", Data::List(vec![]))]);
        assert_ne!(fingerprint_inputs(&null), fingerprint_inputs(&empty));
        assert_ne!(fingerprint_inputs(&null), fingerprint_inputs(&list));
    }

    #[test]
    fn length_prefixing_prevents_concatenation_aliasing() {
        let a = env(&[("ab", Data::Str("c".into()))]);
        let b = env(&[("a", Data::Str("bc".into()))]);
        assert_ne!(fingerprint_inputs(&a), fingerprint_inputs(&b));
    }

    #[test]
    fn job_keys_separate_pipelines_and_fingerprints() {
        let fp = fingerprint_inputs(&env(&[("x", Data::Int(1))]));
        assert_eq!(job_key("summ", fp), job_key("summ", fp));
        assert_ne!(job_key("summ", fp), job_key("other", fp));
        assert_ne!(job_key("summ", fp), job_key("summ", fp ^ 1));
        // Length-prefixing: moving a byte across the id/fp boundary changes
        // the hash input, not just its framing.
        assert_ne!(job_key("ab", fp), job_key("a", fp));
    }

    #[test]
    fn nested_structure_is_hashed() {
        let a = env(&[(
            "m",
            Data::map([("k".to_string(), Data::List(vec![Data::Int(1), Data::Int(2)]))]),
        )]);
        let b = env(&[(
            "m",
            Data::map([("k".to_string(), Data::List(vec![Data::Int(2), Data::Int(1)]))]),
        )]);
        assert_ne!(fingerprint_inputs(&a), fingerprint_inputs(&b));
    }
}
