//! FNV-1a, 64-bit — the workspace's one stable hash: prompt and job-input
//! fingerprints, compile-cache keys, feature hashing and seeded draws all
//! use it. Stable across runs and platforms, unlike `DefaultHasher`, which
//! is randomly keyed per process. It lives here because `lingua-ml` is the
//! lowest crate that needs it (`ml ← script ← llm-sim`); `lingua-llm-sim`
//! re-exports it for the serving layers. Everything is `#[inline]`: the
//! callers used to have these few instructions in their own crates.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the raw bytes of `text`.
#[inline]
pub fn fingerprint(text: &str) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(text.as_bytes());
    hasher.finish()
}

/// Incremental FNV-1a hasher, for structured keys.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Hash a length-prefixed string (prefixing prevents concatenation
    /// ambiguity: `("ab","c")` must differ from `("a","bc")`).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_fnv1a() {
        // Known vectors: the empty string hashes to the offset basis.
        assert_eq!(fingerprint(""), FNV_OFFSET);
        assert_eq!(fingerprint("a"), (FNV_OFFSET ^ 0x61).wrapping_mul(FNV_PRIME));
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fingerprint("ab"), fingerprint("ba"));
    }
}
