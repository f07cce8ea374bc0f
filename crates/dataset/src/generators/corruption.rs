//! Text perturbation toolbox used to create the "dirty" side of matched
//! entity pairs and noisy cells generally.
//!
//! Each function takes an explicit RNG so callers control determinism, and an
//! intensity in `[0, 1]` where it applies.

use lingua_ml::rng::Rng;

/// Introduce `n` character-level typos (swap / delete / duplicate / replace).
pub fn typos(rng: &mut Rng, text: &str, n: usize) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..n {
        if chars.len() < 2 {
            break;
        }
        let i = rng.gen_range(0..chars.len() - 1);
        match rng.gen_range(0..4) {
            0 => chars.swap(i, i + 1),
            1 => {
                chars.remove(i);
            }
            2 => {
                let c = chars[i];
                chars.insert(i, c);
            }
            _ => {
                let replacement = (b'a' + rng.gen_range(0..26u8)) as char;
                chars[i] = replacement;
            }
        }
    }
    chars.into_iter().collect()
}

/// Abbreviate some words: keep the first `k` letters with a trailing period,
/// mimicking "Boulevard" -> "Blvd."-style damage without a dictionary.
pub fn abbreviate(rng: &mut Rng, text: &str, probability: f64) -> String {
    text.split_whitespace()
        .map(|word| {
            if word.chars().count() > 5 && rng.gen_bool(probability) {
                let k = rng.gen_range(3..=4);
                let mut out: String = word.chars().take(k).collect();
                out.push('.');
                out
            } else {
                word.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Drop each token independently with `probability` (never drops all tokens).
pub fn drop_tokens(rng: &mut Rng, text: &str, probability: f64) -> String {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    if tokens.len() <= 1 {
        return text.to_string();
    }
    let kept: Vec<&str> = tokens.iter().copied().filter(|_| !rng.gen_bool(probability)).collect();
    if kept.is_empty() {
        tokens[0].to_string()
    } else {
        kept.join(" ")
    }
}

/// Swap two adjacent tokens with `probability`.
pub fn reorder_tokens(rng: &mut Rng, text: &str, probability: f64) -> String {
    let mut tokens: Vec<&str> = text.split_whitespace().collect();
    if tokens.len() >= 2 && rng.gen_bool(probability) {
        let i = rng.gen_range(0..tokens.len() - 1);
        tokens.swap(i, i + 1);
    }
    tokens.join(" ")
}

/// Randomly change the case style of the whole string.
pub fn case_jitter(rng: &mut Rng, text: &str) -> String {
    match rng.gen_range(0..3) {
        0 => text.to_lowercase(),
        1 => text.to_uppercase(),
        _ => text.to_string(),
    }
}

/// Reformat a `ddd-ddd-dddd` phone number into one of several styles.
pub(crate) fn phone_jitter(rng: &mut Rng, phone: &str) -> String {
    let digits: String = phone.chars().filter(|c| c.is_ascii_digit()).collect();
    if digits.len() != 10 {
        return phone.to_string();
    }
    let (a, rest) = digits.split_at(3);
    let (b, c) = rest.split_at(3);
    match rng.gen_range(0..4) {
        0 => format!("{a}-{b}-{c}"),
        1 => format!("({a}) {b}-{c}"),
        2 => format!("{a}/{b}-{c}"),
        _ => format!("{a} {b} {c}"),
    }
}

/// Append a decorative suffix like "(Remastered)" / "[Deluxe Edition]" —
/// the iTunes-Amazon style of damage that fools naive matchers.
pub(crate) fn decorate_title(rng: &mut Rng, title: &str, probability: f64) -> String {
    const SUFFIXES: &[&str] = &[
        "(Remastered)",
        "[Deluxe Edition]",
        "(Live)",
        "(Album Version)",
        "- Single",
        "(Bonus Track)",
        "(Radio Edit)",
    ];
    if rng.gen_bool(probability) {
        format!("{title} {}", SUFFIXES[rng.gen_range(0..SUFFIXES.len())])
    } else {
        title.to_string()
    }
}

/// Format seconds either as `m:ss` or as raw seconds — unit variance across
/// the two sides of a matched song pair.
pub(crate) fn format_duration(rng: &mut Rng, seconds: u32) -> String {
    if rng.gen_bool(0.5) {
        format!("{}:{:02}", seconds / 60, seconds % 60)
    } else {
        format!("{seconds}")
    }
}

/// Apply a composite corruption pipeline at the given `intensity`
/// (0 = identity, 1 = heavy damage).
pub fn corrupt(rng: &mut Rng, text: &str, intensity: f64) -> String {
    let mut out = text.to_string();
    if intensity <= 0.0 {
        return out;
    }
    let typo_count = (intensity * 2.5).round() as usize;
    if typo_count > 0 && rng.gen_bool((intensity * 0.9).min(1.0)) {
        out = typos(rng, &out, typo_count.min(3));
    }
    if rng.gen_bool((intensity * 0.4).min(1.0)) {
        out = abbreviate(rng, &out, 0.3);
    }
    if rng.gen_bool((intensity * 0.35).min(1.0)) {
        out = drop_tokens(rng, &out, 0.2);
    }
    if rng.gen_bool((intensity * 0.3).min(1.0)) {
        out = reorder_tokens(rng, &out, 0.8);
    }
    if rng.gen_bool((intensity * 0.5).min(1.0)) {
        out = case_jitter(rng, &out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn typos_change_but_keep_rough_length() {
        let mut r = rng();
        let out = typos(&mut r, "playstation memory card", 2);
        assert_ne!(out, "playstation memory card");
        let delta = (out.len() as i64 - 23).abs();
        assert!(delta <= 4, "length drifted too far: {out:?}");
    }

    #[test]
    fn typos_on_tiny_strings_are_safe() {
        let mut r = rng();
        assert_eq!(typos(&mut r, "a", 3), "a");
        assert_eq!(typos(&mut r, "", 3), "");
    }

    #[test]
    fn drop_tokens_never_empties() {
        let mut r = rng();
        for _ in 0..50 {
            let out = drop_tokens(&mut r, "one two three", 0.99);
            assert!(!out.is_empty());
        }
        assert_eq!(drop_tokens(&mut r, "single", 1.0), "single");
    }

    #[test]
    fn abbreviate_shortens_long_words() {
        let mut r = rng();
        let out = abbreviate(&mut r, "boulevard restaurant", 1.0);
        assert!(out.contains('.'), "{out}");
        assert!(out.len() < "boulevard restaurant".len());
    }

    #[test]
    fn phone_jitter_preserves_digits() {
        let mut r = rng();
        for _ in 0..20 {
            let out = phone_jitter(&mut r, "415-555-0123");
            let digits: String = out.chars().filter(|c| c.is_ascii_digit()).collect();
            assert_eq!(digits, "4155550123");
        }
        // Non-10-digit inputs pass through.
        assert_eq!(phone_jitter(&mut r, "12345"), "12345");
    }

    #[test]
    fn decorate_title_appends_suffix() {
        let mut r = rng();
        let out = decorate_title(&mut r, "Midnight Hearts", 1.0);
        assert!(out.starts_with("Midnight Hearts "));
        assert_eq!(decorate_title(&mut r, "Midnight Hearts", 0.0), "Midnight Hearts");
    }

    #[test]
    fn format_duration_variants() {
        let mut r = rng();
        let mut saw_colon = false;
        let mut saw_raw = false;
        for _ in 0..40 {
            let s = format_duration(&mut r, 245);
            if s == "4:05" {
                saw_colon = true;
            }
            if s == "245" {
                saw_raw = true;
            }
        }
        assert!(saw_colon && saw_raw);
    }

    #[test]
    fn corrupt_zero_intensity_is_identity() {
        let mut r = rng();
        assert_eq!(corrupt(&mut r, "Hoppy Badger", 0.0), "Hoppy Badger");
    }

    #[test]
    fn corrupt_is_deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        assert_eq!(
            corrupt(&mut a, "Golden Lantern Imperial Stout", 0.7),
            corrupt(&mut b, "Golden Lantern Imperial Stout", 0.7)
        );
    }
}
