//! Pseudo-embedding helpers built on the hashing vectorizer.
//!
//! Real systems would call an embedding endpoint; the simulation uses a
//! deterministic token-hash vectorizer, which preserves the property a
//! similarity search needs: textually similar inputs land near each other.

/// Light suffix-stripping stemmer so that morphological variants ("beers",
/// "breweries", "styles") embed near their base forms — a cheap stand-in for
/// the semantic robustness of a real embedding model.
pub(crate) fn stem(token: &str) -> String {
    let t = token.to_lowercase();
    if let Some(base) = t.strip_suffix("ies") {
        if base.len() >= 3 {
            return format!("{base}y");
        }
    }
    if let Some(base) = t.strip_suffix("es") {
        if base.len() >= 3 && (base.ends_with("sh") || base.ends_with("ch") || base.ends_with('x'))
        {
            return base.to_string();
        }
    }
    if let Some(base) = t.strip_suffix('s') {
        if base.len() >= 3 && !base.ends_with('s') {
            return base.to_string();
        }
    }
    t
}

/// Normalize text before embedding: split identifier underscores and stem
/// each token.
pub(crate) fn normalize_for_embedding(text: &str) -> String {
    text.replace('_', " ").split_whitespace().map(stem).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {

    use crate::service::{LlmService, SimLlm};
    use lingua_dataset::world::WorldSpec;

    #[test]
    fn similar_texts_rank_first() {
        let world = WorldSpec::generate(5);
        let svc = SimLlm::with_seed(&world, 5);
        let query = svc.embed("beer brewery styles and abv catalogue");
        let candidates = [
            svc.embed("a catalogue of beer styles from many a brewery with abv"),
            svc.embed("restaurant addresses phone numbers and cuisine"),
            svc.embed("song titles artists albums and prices"),
        ];
        let cosine = |v: &[f64]| {
            let dot: f64 = query.iter().zip(v).map(|(x, y)| x * y).sum();
            let norm = |u: &[f64]| u.iter().map(|x| x * x).sum::<f64>().sqrt();
            dot / (norm(&query) * norm(v))
        };
        let scores: Vec<f64> = candidates.iter().map(|v| cosine(v)).collect();
        assert!(scores[0] > scores[1] && scores[0] > scores[2], "{scores:?}");
    }
}
