//! A multiply-fold hasher for maps keyed by simulator-generated integers.

use std::hash::{BuildHasher, Hasher};

/// Hasher that folds each word into its state with one rotate, xor and
/// multiply (the FxHash recipe).
///
/// The block-keyed maps on the simulator's hot path hash one `u64` per
/// lookup, and SipHash's rounds are a measurable share of that. Hash
/// quality only decides bucket spread (the maps store and compare full
/// keys), so a multiplicative fold is enough. It gives no protection
/// against keys crafted to collide: use it only for keys the program
/// generates itself, never for keys read from outside.
#[derive(Clone, Copy, Debug, Default)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`BuildHasher`] for [`FoldHasher`]: `HashMap<K, V, BuildFoldHasher>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildFoldHasher;

impl BuildHasher for BuildFoldHasher {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_writes_fold_like_word_writes() {
        let mut words = FoldHasher::default();
        words.write_u64(0x0102_0304_0506_0708);
        words.write_u64(0x0a09);
        let mut bytes = FoldHasher::default();
        bytes.write(&[8, 7, 6, 5, 4, 3, 2, 1, 9, 10]);
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn consecutive_keys_spread() {
        let hashes: std::collections::HashSet<u64> = (0..4096u64)
            .map(|k| BuildFoldHasher.hash_one(k) >> 52)
            .collect();
        // 4096 keys over 4096 top-12-bit buckets: a fold that kept
        // consecutive keys together would fill only a handful.
        assert!(hashes.len() > 2000, "{} distinct buckets", hashes.len());
    }
}
