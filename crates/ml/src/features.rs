//! Feature extraction: record-pair similarity features for entity matching
//! and a hashing vectorizer for free text.

use crate::fnv::fingerprint;
use crate::textsim;

use crate::FeatureVec;

/// Names of the per-field similarity features produced by [`pair_features`].
///
/// Deliberately the *coarse* classic feature set (exact / edit distance /
/// token Jaccard / numeric). The decoration-robust measures (Jaro-Winkler,
/// overlap coefficient, trigram cosine, Monge-Elkan) belong to
/// [`rich_pair_features`] — that representational gap is precisely what
/// separates the simulated-Magellan baseline from simulated-Ditto.
pub(crate) const PAIR_FEATURES_PER_FIELD: [&str; 4] =
    ["exact_norm", "levenshtein", "jaccard_tokens", "numeric"];

/// Extract a similarity feature vector for a pair of records given as
/// parallel field slices (missing fields should be empty strings).
///
/// Produces `4 * n_fields + 2` features: four similarities per aligned field,
/// plus two aggregate features (mean field similarity, min field similarity)
/// that help on records with many empty fields.
pub fn pair_features(left: &[String], right: &[String]) -> FeatureVec {
    assert_eq!(left.len(), right.len(), "field slices must align");
    let mut out = Vec::with_capacity(left.len() * PAIR_FEATURES_PER_FIELD.len() + 2);
    let mut field_means = Vec::with_capacity(left.len());
    for (a, b) in left.iter().zip(right) {
        let a = a.to_lowercase();
        let b = b.to_lowercase();
        if a.trim().is_empty() || b.trim().is_empty() {
            // Missing data: neutral 0.5 similarity, so absence is not
            // evidence of mismatch.
            out.extend([0.5; 4]);
            field_means.push(0.5);
            continue;
        }
        let feats = [
            textsim::exact_norm(&a, &b),
            textsim::levenshtein_sim(&a, &b),
            textsim::jaccard_tokens(&a, &b),
            textsim::numeric_sim(&a, &b),
        ];
        field_means.push(feats.iter().sum::<f64>() / feats.len() as f64);
        out.extend(feats);
    }
    let mean = field_means.iter().sum::<f64>() / field_means.len().max(1) as f64;
    let min = field_means.iter().copied().fold(f64::INFINITY, f64::min);
    out.push(mean);
    out.push(if min.is_finite() { min } else { 0.5 });
    out
}

/// Richer variant used by the simulated-Ditto baseline: adds trigram cosine
/// and Monge-Elkan per field (8 features per field + 2 aggregates). A
/// pre-trained language model sees more signal per field; the richer feature
/// set plays that role.
pub fn rich_pair_features(left: &[String], right: &[String]) -> FeatureVec {
    assert_eq!(left.len(), right.len(), "field slices must align");
    let mut out = Vec::with_capacity(left.len() * 8 + 2);
    let mut field_means = Vec::with_capacity(left.len());
    for (a, b) in left.iter().zip(right) {
        let a = a.to_lowercase();
        let b = b.to_lowercase();
        if a.trim().is_empty() || b.trim().is_empty() {
            out.extend([0.5; 8]);
            field_means.push(0.5);
            continue;
        }
        let me = textsim::monge_elkan(&a, &b).max(textsim::monge_elkan(&b, &a));
        let feats = [
            textsim::exact_norm(&a, &b),
            textsim::levenshtein_sim(&a, &b),
            textsim::jaro_winkler(&a, &b),
            textsim::jaccard_tokens(&a, &b),
            textsim::overlap_tokens(&a, &b),
            textsim::numeric_sim(&a, &b),
            textsim::trigram_cosine(&a, &b),
            me,
        ];
        field_means.push(feats.iter().sum::<f64>() / feats.len() as f64);
        out.extend(feats);
    }
    let mean = field_means.iter().sum::<f64>() / field_means.len().max(1) as f64;
    let min = field_means.iter().copied().fold(f64::INFINITY, f64::min);
    out.push(mean);
    out.push(if min.is_finite() { min } else { 0.5 });
    out
}

/// Feature-hashing ("hashing trick") text vectorizer: token unigrams and
/// bigrams hashed into a fixed-dimension count vector, L2-normalized.
#[derive(Debug, Clone)]
pub struct HashingVectorizer {
    dims: usize,
}

impl HashingVectorizer {
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0);
        HashingVectorizer { dims }
    }

    /// Vectorize text into `dims` dimensions.
    pub fn transform(&self, text: &str) -> FeatureVec {
        let mut v = vec![0.0; self.dims];
        let toks = textsim::tokens(text);
        for t in &toks {
            v[fingerprint(t) as usize % self.dims] += 1.0;
        }
        for w in toks.windows(2) {
            let bigram = format!("{} {}", w[0], w[1]);
            v[fingerprint(&bigram) as usize % self.dims] += 1.0;
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }
}

/// Z-score standardizer fit on training data, applied at inference.
#[derive(Debug, Clone, Default)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit means and standard deviations per dimension.
    pub fn fit(rows: &[FeatureVec]) -> Standardizer {
        if rows.is_empty() {
            return Standardizer::default();
        }
        let dims = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; dims];
        for row in rows {
            for (m, x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; dims];
        for row in rows {
            for ((s, x), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (x - m) * (x - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-9 {
                *s = 1.0; // constant feature: leave centered at 0
            }
        }
        Standardizer { means, stds }
    }

    pub fn transform(&self, row: &[f64]) -> FeatureVec {
        if self.means.is_empty() {
            return row.to_vec();
        }
        row.iter().zip(&self.means).zip(&self.stds).map(|((x, m), s)| (x - m) / s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn pair_features_dimensionality() {
        let f = pair_features(&fields(&["a", "b", "c"]), &fields(&["a", "b", "c"]));
        assert_eq!(f.len(), 3 * 4 + 2);
        let f = rich_pair_features(&fields(&["a"]), &fields(&["a"]));
        assert_eq!(f.len(), 8 + 2);
    }

    #[test]
    fn identical_records_score_high() {
        let f = pair_features(
            &fields(&["Hoppy Badger", "Stonegate Brewing"]),
            &fields(&["Hoppy Badger", "Stonegate Brewing"]),
        );
        // Every similarity should be 1.
        assert!(f.iter().all(|&x| x > 0.99), "{f:?}");
    }

    #[test]
    fn disjoint_records_score_low() {
        let f = pair_features(&fields(&["alpha beta"]), &fields(&["gamma delta"]));
        let mean = f[f.len() - 2];
        assert!(mean < 0.5, "mean {mean}");
    }

    #[test]
    fn missing_fields_are_neutral() {
        let f = pair_features(&fields(&["", "match"]), &fields(&["anything", "match"]));
        assert_eq!(&f[..4], &[0.5; 4]);
        assert!(f[4] > 0.99); // second field matched
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_fields_panic() {
        pair_features(&fields(&["a"]), &fields(&["a", "b"]));
    }

    #[test]
    fn hashing_vectorizer_is_stable_and_normalized() {
        let v = HashingVectorizer::new(64);
        let a = v.transform("playstation memory card");
        let b = v.transform("playstation memory card");
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_eq!(v.transform("").iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn hashing_vectorizer_separates_texts() {
        let v = HashingVectorizer::new(256);
        let a = v.transform("sony playstation memory card");
        let b = v.transform("garmin gps navigator unit");
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!(dot < 0.4, "dot {dot}");
    }

    #[test]
    fn standardizer_zero_means_unit_std() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let s = Standardizer::fit(&rows);
        let t: Vec<FeatureVec> = rows.iter().map(|r| s.transform(r)).collect();
        let mean0: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-9);
        // Constant feature: centered but not blown up.
        assert!(t.iter().all(|r| r[1].abs() < 1e-9));
        // Empty standardizer is identity.
        let id = Standardizer::default();
        assert_eq!(id.transform(&[4.0, 2.0]), vec![4.0, 2.0]);
    }
}
