//! String similarity measures.
//!
//! All functions return a similarity in `[0, 1]` (1 = identical) unless noted,
//! operate on Unicode scalar values, and are case-sensitive — callers that
//! want case-insensitive behaviour should lowercase first (the feature
//! extractor does).
//!
//! There is one Jaro loop, over `&[char]`. The `&str` entry points [`jaro`],
//! [`jaro_winkler`] and [`monge_elkan`] split their arguments and run it; a
//! caller that compares one side many times (the simulator's knowledge base)
//! splits once with [`token_chars`] and calls [`jaro_winkler_chars`] itself.
//! Both routes run the same arithmetic, so they agree to the bit.

use std::collections::BTreeSet;

/// Raw Levenshtein edit distance (insert/delete/substitute, unit costs).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Single-row DP.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// Levenshtein similarity: `1 - dist / max_len`.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_chars(&chars(a), &chars(b))
}

/// Jaro-Winkler similarity with the standard 0.1 prefix scale, capped at a
/// 4-character common prefix.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_chars(&chars(a), &chars(b))
}

fn chars(text: &str) -> Vec<char> {
    text.chars().collect()
}

/// [`jaro`] over scalar values already split out — the kernel every Jaro,
/// Jaro-Winkler and Monge-Elkan in this module runs on. It allocates nothing
/// for strings of up to 32 characters (a token, a name), and takes any
/// length.
fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a.len() <= INLINE_FLAGS && b.len() <= INLINE_FLAGS {
        jaro_flagged(a, b, &mut [false; INLINE_FLAGS], &mut [false; INLINE_FLAGS])
    } else {
        jaro_flagged(a, b, &mut vec![false; a.len()], &mut vec![false; b.len()])
    }
}

/// Longest string whose matched flags [`jaro_chars`] keeps on the stack.
const INLINE_FLAGS: usize = 32;

/// The Jaro loop, over non-empty strings and cleared flag buffers at least as
/// long as they are. The matching is greedy — each character of `a` takes the
/// first free equal character of `b` inside the window — and still symmetric:
/// `jaro(a, b)` and `jaro(b, a)` are the same `f64`
/// (`jaro_is_symmetric_to_the_bit`).
fn jaro_flagged(a: &[char], b: &[char], a_matched: &mut [bool], b_matched: &mut [bool]) -> f64 {
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Transpositions.
    let mut transpositions = 0usize;
    let mut j = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        if a_matched[i] {
            while !b_matched[j] {
                j += 1;
            }
            if ca != b[j] {
                transpositions += 1;
            }
            j += 1;
        }
    }
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
}

/// [`jaro_winkler`] over scalar values already split out.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let base = jaro_chars(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    base + prefix * 0.1 * (1.0 - base)
}

/// Whitespace tokenization, lowercased, punctuation-trimmed.
pub fn tokens(text: &str) -> Vec<String> {
    text.split(|c: char| c.is_whitespace() || c == ',' || c == ';' || c == '/')
        .map(|t| t.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase())
        .filter(|t| !t.is_empty())
        .collect()
}

/// Jaccard similarity over whitespace tokens.
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    let sa: BTreeSet<String> = tokens(a).into_iter().collect();
    let sb: BTreeSet<String> = tokens(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// Overlap coefficient over tokens: `|A ∩ B| / min(|A|, |B|)` — robust to one
/// side having extra decorations ("(Remastered)").
pub fn overlap_tokens(a: &str, b: &str) -> f64 {
    let sa: BTreeSet<String> = tokens(a).into_iter().collect();
    let sb: BTreeSet<String> = tokens(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    inter / sa.len().min(sb.len()) as f64
}

/// Character trigrams of the lowercased string, space-padded.
fn trigrams(text: &str) -> Vec<String> {
    let padded: Vec<char> = format!("  {}  ", text.to_lowercase()).chars().collect();
    padded.windows(3).map(|w| w.iter().collect()).collect()
}

/// Cosine similarity over character-trigram counts.
pub fn trigram_cosine(a: &str, b: &str) -> f64 {
    use std::collections::BTreeMap;
    let mut ca: BTreeMap<String, f64> = BTreeMap::new();
    let mut cb: BTreeMap<String, f64> = BTreeMap::new();
    for g in trigrams(a) {
        *ca.entry(g).or_default() += 1.0;
    }
    for g in trigrams(b) {
        *cb.entry(g).or_default() += 1.0;
    }
    if ca.is_empty() || cb.is_empty() {
        return if ca.is_empty() && cb.is_empty() { 1.0 } else { 0.0 };
    }
    let dot: f64 = ca.iter().filter_map(|(g, x)| cb.get(g).map(|y| x * y)).sum();
    let na: f64 = ca.values().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = cb.values().map(|x| x * x).sum::<f64>().sqrt();
    dot / (na * nb)
}

/// [`tokens`], each split into scalar values for [`jaro_winkler_chars`].
pub fn token_chars(text: &str) -> Vec<Vec<char>> {
    tokens(text).iter().map(|t| chars(t)).collect()
}

/// Monge-Elkan: mean over tokens of `a` of the best Jaro-Winkler match in `b`.
/// Asymmetric; callers usually take `max(me(a,b), me(b,a))`.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    let ta = token_chars(a);
    let tb = token_chars(b);
    if ta.is_empty() {
        return if tb.is_empty() { 1.0 } else { 0.0 };
    }
    if tb.is_empty() {
        return 0.0;
    }
    let total: f64 =
        ta.iter().map(|x| tb.iter().map(|y| jaro_winkler_chars(x, y)).fold(0.0f64, f64::max)).sum();
    total / ta.len() as f64
}

/// Exact-match indicator on the lowercased, whitespace-normalized strings.
pub fn exact_norm(a: &str, b: &str) -> f64 {
    let norm = |s: &str| tokens(s).join(" ");
    if norm(a) == norm(b) {
        1.0
    } else {
        0.0
    }
}

/// Similarity between strings that may contain numbers (prices, ABVs,
/// durations): extracts numeric runs and compares them; falls back to
/// Levenshtein similarity when either side has no number.
pub fn numeric_sim(a: &str, b: &str) -> f64 {
    let na = extract_numbers(a);
    let nb = extract_numbers(b);
    if na.is_empty() || nb.is_empty() {
        return levenshtein_sim(a, b);
    }
    // Compare the full numeric vectors pairwise (aligned by position).
    let n = na.len().max(nb.len());
    let mut total = 0.0;
    for i in 0..n {
        match (na.get(i), nb.get(i)) {
            (Some(&x), Some(&y)) => {
                let denom = x.abs().max(y.abs()).max(1e-9);
                total += 1.0 - ((x - y).abs() / denom).min(1.0);
            }
            _ => { /* missing position contributes 0 */ }
        }
    }
    total / n as f64
}

/// Pull every decimal number out of a string. `"4:05"` yields `[4, 5]`;
/// `"$12.99"` yields `[12.99]`.
pub fn extract_numbers(text: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_ascii_digit() || (c == '.' && !current.is_empty() && !current.contains('.')) {
            current.push(c);
        } else if !current.is_empty() {
            if let Ok(v) = current.trim_end_matches('.').parse::<f64>() {
                out.push(v);
            }
            current.clear();
        }
    }
    if !current.is_empty() {
        if let Ok(v) = current.trim_end_matches('.').parse::<f64>() {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "xy"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("café", "cafe"), 1); // unicode-aware
    }

    #[test]
    fn levenshtein_sim_range() {
        assert_eq!(levenshtein_sim("same", "same"), 1.0);
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert!(levenshtein_sim("abc", "xyz") <= 0.0 + 1e-9);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro_winkler("martha", "marhta") - 0.961111).abs() < 1e-4);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("a", ""), 0.0);
        assert!(jaro_winkler("dwayne", "duane") > 0.8);
    }

    /// Jaro as the textbook states it, every buffer on the heap.
    fn jaro_reference(a: &[char], b: &[char]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() && b.is_empty() { 1.0 } else { 0.0 };
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let (mut a_matched, mut b_matched) = (vec![false; a.len()], vec![false; b.len()]);
        for i in 0..a.len() {
            let hi = (i + window + 1).min(b.len());
            if let Some(j) = (i.saturating_sub(window)..hi).find(|&j| !b_matched[j] && b[j] == a[i])
            {
                a_matched[i] = true;
                b_matched[j] = true;
            }
        }
        let matched = |s: &[char], flags: &[bool]| -> Vec<char> {
            s.iter().zip(flags).filter(|(_, &m)| m).map(|(&c, _)| c).collect()
        };
        let (ma, mb) = (matched(a, &a_matched), matched(b, &b_matched));
        if ma.is_empty() {
            return 0.0;
        }
        let m = ma.len() as f64;
        let transpositions = ma.iter().zip(&mb).filter(|(x, y)| x != y).count();
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
    }

    #[test]
    fn char_kernel_equals_the_textbook_jaro() {
        use crate::check::{check, Gen};
        // Small alphabets so characters repeat and the greedy matching has
        // choices to make; astral code points so nothing assumes UTF-16 or
        // bytes; lengths on both sides of the inline flag buffer.
        let word = |g: &mut Gen| -> Vec<char> {
            let alphabet: &[char] = match g.int(0..4u32) {
                0 => &['a', 'b'],
                1 => &['a', 'b', 'c', 'd', 'e', 'r', 's', 't'],
                2 => &['é', '完', '𝒳', '😀', '𐍈', 'a'],
                _ => &['x'],
            };
            let len = match g.int(0..6u32) {
                0 => 0,
                1 => 1,
                2 => 200,
                3 => g.int(INLINE_FLAGS - 1..=INLINE_FLAGS + 1),
                _ => g.int(2..12usize),
            };
            (0..len).map(|_| *g.pick(alphabet)).collect()
        };
        check(
            "char_kernel_equals_the_textbook_jaro",
            2_000,
            |g| {
                let a = word(g);
                // Half the time `b` is `a` damaged, so there is something to match.
                let b = if g.bool() {
                    let mut b = a.clone();
                    for _ in 0..g.int(0..4u32) {
                        if b.len() > 1 {
                            let (i, j) = (g.index().of(b.len()), g.index().of(b.len()));
                            b.swap(i, j);
                            b.remove(g.index().of(b.len()));
                        }
                    }
                    b
                } else {
                    word(g)
                };
                (a, b)
            },
            |(a, b)| {
                assert_eq!(jaro_chars(&a, &b).to_bits(), jaro_chars(&b, &a).to_bits());
                for (x, y) in [(&a, &b), (&b, &a)] {
                    let expected = jaro_reference(x, y);
                    assert_eq!(jaro_chars(x, y).to_bits(), expected.to_bits());
                    let (sx, sy): (String, String) = (x.iter().collect(), y.iter().collect());
                    assert_eq!(jaro(&sx, &sy).to_bits(), expected.to_bits());
                    let prefix = x.iter().zip(y.iter()).take(4).take_while(|(p, q)| p == q).count();
                    let winkler = expected + prefix as f64 * 0.1 * (1.0 - expected);
                    assert_eq!(jaro_winkler_chars(x, y).to_bits(), winkler.to_bits());
                    assert_eq!(jaro_winkler(&sx, &sy).to_bits(), winkler.to_bits());
                }
            },
        );
    }

    #[test]
    fn jaro_is_symmetric_to_the_bit() {
        // Within one character the greedy matching is a two-pointer merge of
        // the two position lists (match the two smallest if they are within
        // the window, else drop the smaller), which reads the same from
        // either side; the window and the final expression are symmetric
        // too. The knowledge base's index leans on this — it fills one
        // `jw(query token, vocabulary token)` table and reads it in both
        // directions — so it is checked, exhaustively where that is cheap.
        let words: Vec<Vec<char>> = (1..=8u32)
            .flat_map(|len| {
                (0..1u32 << len).map(move |bits| {
                    (0..len).map(|i| if bits >> i & 1 == 1 { 'a' } else { 'b' }).collect()
                })
            })
            .collect();
        for (i, a) in words.iter().enumerate() {
            for b in &words[..i] {
                assert_eq!(jaro_chars(a, b).to_bits(), jaro_chars(b, a).to_bits(), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn jaccard_and_overlap() {
        assert_eq!(jaccard_tokens("a b c", "a b c"), 1.0);
        assert_eq!(jaccard_tokens("a b", "c d"), 0.0);
        assert!((jaccard_tokens("hoppy badger ipa", "hoppy badger") - 2.0 / 3.0).abs() < 1e-9);
        // Overlap ignores the extra decoration entirely.
        assert_eq!(overlap_tokens("midnight hearts", "midnight hearts (remastered)"), 1.0);
        assert_eq!(overlap_tokens("", ""), 1.0);
        assert_eq!(overlap_tokens("a", ""), 0.0);
    }

    #[test]
    fn tokens_strip_punctuation_and_case() {
        assert_eq!(tokens("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokens("The (Remastered)"), vec!["the", "remastered"]);
        assert!(tokens("  ").is_empty());
    }

    #[test]
    fn trigram_cosine_behaviour() {
        assert!((trigram_cosine("abc", "abc") - 1.0).abs() < 1e-9);
        assert!(trigram_cosine("playstation", "playstaton") > 0.75);
        assert!(trigram_cosine("playstation", "xbox") < 0.3);
        assert_eq!(trigram_cosine("", ""), 1.0);
    }

    #[test]
    fn monge_elkan_token_alignment() {
        // Token order doesn't matter much.
        let me = monge_elkan("badger hoppy", "hoppy badger");
        assert!(me > 0.99);
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(monge_elkan("a", ""), 0.0);
    }

    #[test]
    fn exact_norm_ignores_case_and_punct() {
        assert_eq!(exact_norm("Hoppy Badger", "hoppy badger"), 1.0);
        assert_eq!(exact_norm("Hoppy Badger", "hoppy badgers"), 0.0);
    }

    #[test]
    fn numeric_extraction_and_similarity() {
        assert_eq!(extract_numbers("$12.99"), vec![12.99]);
        assert_eq!(extract_numbers("4:05"), vec![4.0, 5.0]);
        assert_eq!(extract_numbers("no numbers"), Vec::<f64>::new());
        assert!((numeric_sim("5.2%", "5.2") - 1.0).abs() < 1e-9);
        assert!(numeric_sim("5.2%", "9.9%") < 0.6);
        // Fallback to string similarity without numbers.
        assert_eq!(numeric_sim("abc", "abc"), 1.0);
    }

    #[test]
    fn similarities_are_bounded() {
        let pairs = [
            ("", ""),
            ("a", "b"),
            ("Golden Lantern", "Golden Lantren"),
            ("完全", "完全一致"),
            ("x", "a much longer string entirely"),
        ];
        for (a, b) in pairs {
            for f in [
                levenshtein_sim,
                jaro,
                jaro_winkler,
                jaccard_tokens,
                trigram_cosine,
                monge_elkan,
                overlap_tokens,
            ] {
                let s = f(a, b);
                assert!((0.0..=1.0 + 1e-9).contains(&s), "{a:?} {b:?} -> {s}");
            }
        }
    }
}
