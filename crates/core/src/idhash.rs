//! The hasher of the three node interners — the pDAG's fold interner,
//! the VRF compiler's cross-table arena interner, and the vsdag emitter's
//! supernode interner, keyed by one `[u32]` slice: the stride as word 0,
//! then the expanded slots.
//!
//! All key on 32-bit node ids and labels the compiler itself assigned —
//! two or three of them, or a supernode's whole slot array (up to 65 536
//! references) — and probe once per folded node; std's SipHash spends
//! more on such a key than the rest of the probe. [`IdHasher`] folds each
//! written word through [`fib_trie::block_hash`], the finalizer the hot
//! slab and the heat sketch already share (a slot slice arrives through
//! `write`, two references per fold). The vsdag looks its key up as a
//! borrowed slice, so the key is hashed once per lookup and hashed again
//! only when it is new and goes in. It gives up SipHash's resistance to
//! crafted keys, so it is for ids minted inside this crate only. No map
//! is iterated for layout, so the hasher cannot move an output byte.

use std::hash::{BuildHasherDefault, Hasher};

use fib_trie::block_hash;

/// `BuildHasher` of [`IdHasher`] (`HashMap::default()` builds with it).
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// Word-at-a-time hasher for small integer keys.
#[derive(Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = block_hash(self.0 ^ word);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.fold(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.fold(word as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn neighbouring_id_triples_do_not_collide() {
        // Interner keys are dense small integers: the hasher must spread
        // them over all 64 bits (hashbrown indexes by the low bits and
        // tags by the high seven).
        let build = IdBuildHasher::default();
        let mut full = HashSet::new();
        let mut low = HashSet::new();
        let mut high = HashSet::new();
        for l in 0..64u32 {
            for r in 0..64u32 {
                for label in [0u32, 1, u32::MAX] {
                    let hash = build.hash_one((l, r, label));
                    full.insert(hash);
                    low.insert(hash & 0xFFFF);
                    high.insert(hash >> 57);
                }
            }
        }
        assert_eq!(full.len(), 64 * 64 * 3);
        assert!(low.len() > 11_000, "low bits clump: {}", low.len());
        assert_eq!(high.len(), 128, "tag bits unused");
    }
}
