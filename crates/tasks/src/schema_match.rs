//! Schema matching: align the columns of two tables — one of the core data
//! integration tasks from the paper's introduction (Data Tamer's problem).
//! The LLM module proposes the alignment; evaluation is against known
//! renamings.

use lingua_core::ExecContext;

/// A proposed column alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMatch {
    pub left: String,
    pub right: String,
}

/// Ask the LLM to match two column lists.
pub fn match_schemas(left: &[String], right: &[String], ctx: &mut ExecContext) -> Vec<ColumnMatch> {
    let prompt = format!(
        "Perform schema matching between the tables.\nColumns A: {}\nColumns B: {}",
        left.join(", "),
        right.join(", ")
    );
    ctx.complete(prompt).map(|response| parse_alignment(&response)).unwrap_or_default()
}

/// Parse `a -> x; b -> y` responses.
pub fn parse_alignment(response: &str) -> Vec<ColumnMatch> {
    response
        .split(';')
        .filter_map(|pair| {
            let (left, right) = pair.split_once("->")?;
            Some(ColumnMatch { left: left.trim().to_string(), right: right.trim().to_string() })
        })
        .collect()
}

/// Score proposals against gold `(left, right)` pairs: (precision, recall, f1).
pub fn score(proposed: &[ColumnMatch], gold: &[(String, String)]) -> (f64, f64, f64) {
    let tp =
        proposed.iter().filter(|m| gold.iter().any(|(l, r)| *l == m.left && *r == m.right)).count();
    let precision = if proposed.is_empty() { 0.0 } else { tp as f64 / proposed.len() as f64 };
    let recall = if gold.is_empty() { 0.0 } else { tp as f64 / gold.len() as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    #[test]
    fn matches_renamed_product_schema() {
        let world = WorldSpec::generate(44);
        let mut ctx = ExecContext::new(Arc::new(SimLlm::with_seed(&world, 44)));
        let left: Vec<String> =
            ["product_name", "maker", "cost", "details"].iter().map(|s| s.to_string()).collect();
        let right: Vec<String> = ["name", "manufacturer", "price_usd", "description"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let proposed = match_schemas(&left, &right, &mut ctx);
        let gold: Vec<(String, String)> = vec![
            ("product_name".into(), "name".into()),
            ("maker".into(), "manufacturer".into()),
            ("cost".into(), "price_usd".into()),
            ("details".into(), "description".into()),
        ];
        let (precision, recall, f1) = score(&proposed, &gold);
        assert!(f1 > 0.7, "p={precision} r={recall} f1={f1}: {proposed:?}");
    }

    #[test]
    fn parse_alignment_handles_noise() {
        let matches = parse_alignment("a -> x; garbage; b -> y");
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[1], ColumnMatch { left: "b".into(), right: "y".into() });
        assert!(parse_alignment("no matches here").is_empty());
    }

    #[test]
    fn score_degenerate_cases() {
        assert_eq!(score(&[], &[]), (0.0, 0.0, 0.0));
        let proposed = vec![ColumnMatch { left: "a".into(), right: "b".into() }];
        assert_eq!(score(&proposed, &[]).1, 0.0);
    }
}
