//! Runtime-dispatched SIMD gather lanes for the flat `u64`-word engines.
//!
//! The interleaved batch kernels in `fib-core`/`fib-trie` walk 4 packets
//! in lockstep; each step performs 4 independent indexed loads from one
//! flat word array. On AVX2 hardware a single `VPGATHERQQ`
//! ([`core::arch::x86_64::_mm256_i64gather_epi64`]) issues all 4 loads at
//! once, shrinking the per-step uop count and letting the load ports run
//! the lanes' cache misses in parallel without four separate address
//! computations.
//!
//! The workspace is compiled for `x86-64-v2` (no AVX2 at compile time),
//! so everything here is **runtime-dispatched**: [`simd_active`] caches
//! one `is_x86_feature_detected!("avx2")` probe, and every gather
//! helper falls back to plain bounds-checked indexing — byte-identical
//! results — when AVX2 is absent, when a lane index is out of bounds, or
//! when the `FIB_FORCE_SCALAR` environment variable is set (the CI
//! differential job runs the whole suite both ways).
//!
//! Safety containment mirrors `mem.rs`: this is one of the two modules in
//! the crate allowed `unsafe`, and the only unsafe operation is the
//! gather intrinsic itself, executed strictly after (a) the CPU feature
//! check and (b) a full bounds check of every lane index — the public
//! wrappers are sound for all inputs.

use std::sync::atomic::{AtomicU8, Ordering};

/// Lanes per gather — one AVX2 register of `u64`s, matching the 4-lane
/// batch kernels (`SER_BATCH_LANES`/`VS_BATCH_LANES`/`LC_BATCH_LANES`).
pub const GATHER_LANES: usize = 4;

/// Cached dispatch state: 0 = undetected, 1 = SIMD, 2 = scalar.
static SIMD_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether the gather helpers will use AVX2 on this machine: true iff the
/// CPU reports AVX2 and `FIB_FORCE_SCALAR` is unset (or `0`). The answer
/// is computed once and cached for the process.
#[inline]
#[must_use]
pub fn simd_active() -> bool {
    // ordering: Relaxed — pure cache of an idempotent detection; every
    // thread that races the fill computes and stores the same value, and
    // no other memory depends on observing it.
    match SIMD_STATE.load(Ordering::Relaxed) {
        0 => detect(),
        s => s == 1,
    }
}

/// The dispatch label benchmarks report (`"avx2"` or `"scalar"`).
#[must_use]
pub fn simd_label() -> &'static str {
    if simd_active() {
        "avx2"
    } else {
        "scalar"
    }
}

#[cold]
fn detect() -> bool {
    let forced_scalar =
        std::env::var_os("FIB_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
    #[cfg(target_arch = "x86_64")]
    let has_avx2 = is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let has_avx2 = false;
    let enabled = has_avx2 && !forced_scalar;
    // ordering: Relaxed — idempotent cache fill, see `simd_active`.
    SIMD_STATE.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
    enabled
}

/// Gathers `words[idx[lane]]` for all four lanes.
///
/// Dispatches to one AVX2 `VPGATHERQQ` when [`simd_active`] and every
/// index is in bounds; otherwise falls back to scalar indexing with the
/// exact semantics of `[words[idx[0] as usize], …]` — including the
/// panic-on-out-of-bounds behaviour of the scalar kernels it replaces.
#[inline]
#[must_use]
#[allow(unsafe_code)]
pub fn gather4(words: &[u64], idx: [u64; 4]) -> [u64; 4] {
    #[cfg(target_arch = "x86_64")]
    {
        let max = idx[0].max(idx[1]).max(idx[2]).max(idx[3]);
        if (max as usize) < words.len() && simd_active() {
            // SAFETY: AVX2 presence was verified by `simd_active` and
            // every lane index is `< words.len()`, so the gather reads
            // only inside the borrowed slice.
            return unsafe { gather4_avx2(words, idx) };
        }
    }
    [
        words[idx[0] as usize],
        words[idx[1] as usize],
        words[idx[2] as usize],
        words[idx[3] as usize],
    ]
}

/// [`gather4`] over packed `u32` pairs (the `push_u32s`/[`get_u32`]
/// layout): gathers the four *words* holding packed entries `idx[lane]`,
/// then extracts each entry's half.
///
/// [`get_u32`]: crate::storage::get_u32
#[inline]
#[must_use]
pub fn gather4_u32(words: &[u64], idx: [u64; 4]) -> [u32; 4] {
    let gathered = gather4(words, [idx[0] / 2, idx[1] / 2, idx[2] / 2, idx[3] / 2]);
    let mut out = [0u32; 4];
    for lane in 0..4 {
        out[lane] = (gathered[lane] >> (32 * (idx[lane] % 2))) as u32;
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn gather4_avx2(words: &[u64], idx: [u64; 4]) -> [u64; 4] {
    use core::arch::x86_64::{_mm256_i64gather_epi64, _mm256_set_epi64x, _mm256_storeu_si256};
    // SAFETY (caller contract): AVX2 is available and idx[lane] <
    // words.len() for every lane; scale 8 makes each lane read the u64 at
    // words_ptr + idx[lane], all inside the slice.
    unsafe {
        let vindex = _mm256_set_epi64x(idx[3] as i64, idx[2] as i64, idx[1] as i64, idx[0] as i64);
        let gathered = _mm256_i64gather_epi64(words.as_ptr().cast::<i64>(), vindex, 8);
        let mut out = [0u64; 4];
        _mm256_storeu_si256(out.as_mut_ptr().cast(), gathered);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather4_matches_scalar_indexing() {
        let words: Vec<u64> = (0..1024u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for base in [0u64, 1, 17, 511, 1020] {
            let idx = [base, (base + 7) % 1024, 1023 - base, base / 2];
            let got = gather4(&words, idx);
            let want = [
                words[idx[0] as usize],
                words[idx[1] as usize],
                words[idx[2] as usize],
                words[idx[3] as usize],
            ];
            assert_eq!(got, want, "idx {idx:?} (simd_active = {})", simd_active());
        }
    }

    #[test]
    fn gather4_u32_matches_get_u32() {
        use crate::storage::{get_u32, push_u32s};
        let mut words = Vec::new();
        let values: Vec<u32> = (0..257u32).map(|i| i.wrapping_mul(0x0101_6B55)).collect();
        push_u32s(&mut words, values.iter().copied());
        let idx = [0u64, 1, 255, 256];
        let got = gather4_u32(&words, idx);
        for lane in 0..4 {
            assert_eq!(got[lane], get_u32(&words, idx[lane] as usize));
            assert_eq!(got[lane], values[idx[lane] as usize]);
        }
    }

    #[test]
    fn dispatch_state_is_cached_and_labelled() {
        let first = simd_active();
        assert_eq!(first, simd_active(), "detection must be stable");
        let label = simd_label();
        assert!(label == "avx2" || label == "scalar");
        assert_eq!(label == "avx2", first);
    }
}
