//! Aligned word arenas and the zero-copy storage conventions shared by
//! every succinct structure in this crate.
//!
//! The FIB-image pipeline treats a compressed FIB as what the paper says
//! it is: a flat string of bits. To serve lookups straight out of a loaded
//! byte buffer, every query structure here follows one storage discipline:
//!
//! * the structure's backing words live in **one contiguous `u64` run**
//!   whose first word sits on a **64-byte boundary** (an [`Arena`]), so
//!   cache-line-granular layouts like [`crate::RsBitVec`]'s interleaved
//!   rank lines keep their one-line-per-query guarantee when the words
//!   come from a file instead of a `Vec`;
//! * each structure splits into an **owned builder** (the existing
//!   `RsBitVec`, `RrrVec`, … types, which construct and then freeze their
//!   words into an arena) and a **borrowed view** (`RsBitVecRef`,
//!   `RrrVecRef`, …) holding only `&[u64]` slices plus a few scalars. All
//!   query code lives on the views; the owned types forward, so the hot
//!   paths are byte-for-byte identical over owned and loaded memory;
//! * a structure serializes as an 8-word (64-byte) **meta block** followed
//!   by its payload words at stable offsets, and parses back with
//!   [`Result`]-typed validation — no panics on hostile bytes. As long as
//!   the serialized run starts on a 64-byte boundary, so does every
//!   payload section inside it (`write_words` pads to whole meta blocks).
//!
//! The arena is built without `unsafe`: it over-allocates a plain
//! `Vec<u64>` by one alignment block and starts the logical words at the
//! first 64-byte boundary inside the allocation (computed with
//! `pointer::align_offset`).
//!
//! A [`WordLog`] is the one growable store here: an append-only run of
//! words whose readers ([`SharedWords`]) each see a frozen prefix while
//! the one writer appends past it, in the same allocation. It needs
//! `unsafe` to hand out `&[u64]` views of memory the writer still owns,
//! and keeps every condition that makes them sound inside this module.

use std::fmt;
use std::ptr::NonNull;
use std::sync::Arc;

/// Words per 64-byte alignment block.
pub const BLOCK_WORDS: usize = 8;

/// Error validating serialized storage metadata.
///
/// Carried by every `*Ref::from_words` parser in this crate; the FIB image
/// loader surfaces it as a typed load failure instead of a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageError(pub &'static str);

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid storage section: {}", self.0)
    }
}

impl std::error::Error for StorageError {}

/// An immutable, 64-byte-aligned run of `u64` words.
///
/// This is the owned backing store of the frozen succinct structures and
/// of loaded FIB images. The buffer over-allocates by one block and
/// exposes its logical words starting at the first 64-byte boundary, so
/// `words()[0]` — and therefore every offset that is a multiple of
/// [`BLOCK_WORDS`] — sits on a cache-line boundary.
#[derive(Debug, Default)]
pub struct Arena {
    buf: Vec<u64>,
    start: usize,
    len: usize,
}

impl Arena {
    /// Freezes `words` into an aligned arena (one copy).
    #[must_use]
    pub fn from_words(words: &[u64]) -> Self {
        let mut buf = vec![0u64; words.len() + BLOCK_WORDS]; // fibcheck: allow(hot-path): one-shot arena freeze at build/load time, not per-lookup
                                                             // align_offset is in u64 elements; the Vec is 8-byte aligned, so
                                                             // the 64-byte boundary is at most 7 words in.
        let start = buf.as_ptr().align_offset(64);
        debug_assert!(start < BLOCK_WORDS);
        buf[start..start + words.len()].copy_from_slice(words);
        Self {
            buf,
            start,
            len: words.len(),
        }
    }

    /// Decodes little-endian bytes into an aligned arena (the single copy
    /// a file load performs; everything downstream borrows).
    ///
    /// # Errors
    /// [`StorageError`] if `bytes` is not a whole number of words.
    pub fn from_le_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        if bytes.len() % 8 != 0 {
            return Err(StorageError("byte length not a multiple of 8"));
        }
        let n = bytes.len() / 8;
        let mut buf = vec![0u64; n + BLOCK_WORDS];
        let start = buf.as_ptr().align_offset(64);
        debug_assert!(start < BLOCK_WORDS);
        for (dst, chunk) in buf[start..start + n].iter_mut().zip(bytes.chunks_exact(8)) {
            *dst = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Ok(Self { buf, start, len: n })
    }

    /// The aligned words.
    #[must_use]
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Number of logical words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Size of one transparent huge page on x86-64 Linux.
pub const HUGEPAGE_BYTES: usize = 2 << 20;

impl Arena {
    /// Advises the kernel to back this arena's allocation with
    /// transparent huge pages (`madvise(MADV_HUGEPAGE)`).
    ///
    /// Large loaded FIB images walk their sections with data-dependent
    /// strides; 4 KiB pages then burn TLB entries faster than cache
    /// lines. A 2 MiB-backed arena covers a whole mid-size engine with a
    /// handful of TLB entries.
    ///
    /// Purely advisory with graceful fallback: returns `true` only when
    /// the kernel accepted the hint for at least one whole huge page.
    /// Returns `false` — with the arena fully usable either way — when
    /// the arena spans less than one aligned huge page, on non-Linux /
    /// non-x86-64 targets, or when the kernel rejects the advice (e.g.
    /// THP compiled out). Contents are never affected.
    pub fn advise_hugepages(&self) -> bool {
        let bytes = self.len * 8;
        if bytes < HUGEPAGE_BYTES {
            return false;
        }
        let addr = self.words().as_ptr() as usize;
        // madvise demands page alignment; advise the whole pages inside
        // the span (the Vec allocation is rarely page-aligned itself).
        const PAGE: usize = 4096;
        let lo = addr.div_ceil(PAGE) * PAGE;
        let hi = (addr + bytes) / PAGE * PAGE;
        if hi <= lo || hi - lo < HUGEPAGE_BYTES {
            return false;
        }
        madvise_hugepage(lo, hi - lo)
    }
}

/// Issues `madvise(addr, len, MADV_HUGEPAGE)` via a raw syscall (the
/// workspace links no libc crate). Returns whether the kernel accepted.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)]
fn madvise_hugepage(addr: usize, len: usize) -> bool {
    const SYS_MADVISE: usize = 28;
    const MADV_HUGEPAGE: usize = 14;
    let ret: isize;
    // SAFETY: madvise(MADV_HUGEPAGE) is advisory metadata on VMAs we own
    // via the live Vec allocation behind `addr..addr+len`: it never
    // reads, writes, unmaps, or otherwise invalidates the memory, and on
    // failure (unsupported kernel, THP disabled) it only returns an
    // error code. The asm clobbers exactly what the x86-64 syscall ABI
    // clobbers (rax, rcx, r11).
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE as isize => ret,
            in("rdi") addr,
            in("rsi") len,
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn madvise_hugepage(_addr: usize, _len: usize) -> bool {
    false
}

impl Clone for Arena {
    /// Re-freezes the words: the clone computes its own alignment start
    /// for its own allocation.
    fn clone(&self) -> Self {
        Self::from_words(self.words())
    }
}

impl PartialEq for Arena {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for Arena {}

/// The allocation behind a [`WordLog`] and the [`SharedWords`] taken
/// from it: room for `cap` words, of which the log has written a prefix.
struct LogBuf {
    ptr: NonNull<u64>,
    cap: usize,
}

// SAFETY: `ptr` owns `cap` words of a heap allocation no other value
// frees (`cap` itself is never changed). The words are written only
// through the one `WordLog` that owns the buffer, each once, at indices
// past every prefix a `SharedWords` or a `WordLog::words` borrow covers;
// every other access reads a prefix that is never written again. Sharing
// a `LogBuf` between threads thus never lets two of them touch one word
// unless both only read it, and dropping it on any thread frees memory
// no view can reach any more (each view holds the `Arc`).
#[allow(unsafe_code)]
unsafe impl Send for LogBuf {}
#[allow(unsafe_code)]
unsafe impl Sync for LogBuf {}

impl Drop for LogBuf {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` are the allocation of a `Vec<u64>` that
        // `WordLog::with_capacity` took apart and nothing else frees;
        // `u64` needs no drop, so a length of 0 gives the allocation back.
        unsafe { drop(Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap)) }
    }
}

/// An append-only run of `u64` words with one writer and any number of
/// frozen readers: [`Self::shared`] hands out a [`SharedWords`] over the
/// words written so far, and later appends land past it, in the same
/// allocation. A reader's view therefore keeps its memory — and whatever
/// of it its core has cached — while the writer grows the run, so
/// successive views share every word they have in common. A word is
/// never written twice; a log that is full stays full (start a new one).
pub struct WordLog {
    buf: Arc<LogBuf>,
    len: usize,
}

impl WordLog {
    /// An empty log with room for at least `cap` words. Pages the log
    /// never writes are never touched.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut words = std::mem::ManuallyDrop::new(Vec::<u64>::with_capacity(cap));
        let ptr = NonNull::new(words.as_mut_ptr()).expect("a Vec's pointer is never null");
        let cap = words.capacity();
        Self {
            buf: Arc::new(LogBuf { ptr, cap }),
            len: 0,
        }
    }

    /// Words written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no word was written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Words the log can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.cap
    }

    /// The words written so far.
    #[must_use]
    #[allow(unsafe_code)]
    pub fn words(&self) -> &[u64] {
        // SAFETY: the first `len` words are initialized, and no write
        // reaches them again (`try_extend` writes past `len` and needs
        // `&mut self`, which this borrow excludes).
        unsafe { std::slice::from_raw_parts(self.buf.ptr.as_ptr(), self.len) }
    }

    /// Appends `words` if the log has room for all of them; returns
    /// whether it did (a full log is left as it was).
    #[allow(unsafe_code)]
    pub fn try_extend(&mut self, words: &[u64]) -> bool {
        if words.len() > self.buf.cap - self.len {
            return false;
        }
        // SAFETY: `len..len + words.len()` lies inside the allocation and
        // past every prefix handed out: a `SharedWords` covers the length
        // it was taken at (≤ `len`), and `&mut self` rules out a live
        // `words()` borrow. `words` cannot overlap the unwritten tail.
        unsafe {
            let tail = self.buf.ptr.as_ptr().add(self.len);
            std::ptr::copy_nonoverlapping(words.as_ptr(), tail, words.len());
        }
        self.len += words.len();
        true
    }

    /// A reader's view of the words written so far; appends after this
    /// call are not part of it.
    #[must_use]
    pub fn shared(&self) -> SharedWords {
        SharedWords {
            buf: Some(Arc::clone(&self.buf)),
            len: self.len,
        }
    }
}

/// A frozen prefix of a [`WordLog`], dereferencing to its words; clones
/// share the allocation. Views taken from one log share every word they
/// have in common.
#[derive(Clone, Default)]
pub struct SharedWords {
    buf: Option<Arc<LogBuf>>,
    len: usize,
}

impl std::ops::Deref for SharedWords {
    type Target = [u64];

    #[allow(unsafe_code)]
    fn deref(&self) -> &[u64] {
        match &self.buf {
            // SAFETY: the log wrote the first `len` words before this view
            // was taken and writes only past them (see `LogBuf`).
            Some(buf) => unsafe { std::slice::from_raw_parts(buf.ptr.as_ptr(), self.len) },
            None => &[],
        }
    }
}

impl From<&[u64]> for SharedWords {
    fn from(words: &[u64]) -> Self {
        let mut log = WordLog::with_capacity(words.len());
        log.try_extend(words);
        log.shared()
    }
}

impl PartialEq for SharedWords {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedWords {}

impl fmt::Debug for SharedWords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Pads `words` with zeros up to the next 64-byte (8-word) boundary.
pub fn pad_to_block(words: &mut Vec<u64>) {
    while words.len() % BLOCK_WORDS != 0 {
        words.push(0);
    }
}

/// Words a structure serialized as one meta block and `payload` words
/// occupies once padded to a whole block: what its `from_words` consumes.
#[must_use]
#[inline]
pub fn meta_run_words(payload: usize) -> usize {
    (BLOCK_WORDS + payload).div_ceil(BLOCK_WORDS) * BLOCK_WORDS
}

/// Number of words needed to hold `n` packed `u32` values (two per word).
#[must_use]
pub fn words_for_u32s(n: usize) -> usize {
    n.div_ceil(2)
}

/// Appends `values` packed two-per-word, little end first, then returns
/// the number of words written.
pub fn push_u32s(words: &mut Vec<u64>, values: impl IntoIterator<Item = u32>) -> usize {
    let before = words.len();
    let mut pending: Option<u32> = None;
    for v in values {
        match pending.take() {
            None => pending = Some(v),
            Some(lo) => words.push(u64::from(lo) | (u64::from(v) << 32)),
        }
    }
    if let Some(lo) = pending {
        words.push(u64::from(lo));
    }
    words.len() - before
}

/// Reads the `j`-th packed `u32` from a word run written by [`push_u32s`].
#[must_use]
#[inline]
pub fn get_u32(words: &[u64], j: usize) -> u32 {
    (words[j / 2] >> (32 * (j % 2))) as u32
}

/// Checked sub-slice: `words[offset..offset + len]` or a typed error.
///
/// # Errors
/// [`StorageError`] if the range exceeds `words`.
#[inline]
pub fn slice(words: &[u64], offset: usize, len: usize) -> Result<&[u64], StorageError> {
    words
        .get(offset..offset.checked_add(len).ok_or(OVERFLOW)?)
        .ok_or(StorageError("section range out of bounds"))
}

const OVERFLOW: StorageError = StorageError("section range overflows");

/// Converts a `u64` read from a meta block into a `usize`, rejecting
/// values that do not fit the platform.
///
/// # Errors
/// [`StorageError`] if `v` exceeds `usize::MAX`.
#[inline]
pub fn meta_usize(v: u64) -> Result<usize, StorageError> {
    usize::try_from(v).map_err(|_| StorageError("metadata value exceeds usize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_word_log_appends_past_the_views_it_handed_out() {
        let mut log = WordLog::with_capacity(6);
        assert!(log.try_extend(&[1, 2]));
        let first = log.shared();
        assert!(log.try_extend(&[3, 4, 5]));
        let second = log.shared();
        // Another thread reads the first view while the log appends.
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| first.iter().sum::<u64>());
            assert!(log.try_extend(&[6]));
            assert_eq!(reader.join().expect("the reader"), 3);
        });
        assert_eq!((&*first, &*second), (&[1, 2][..], &[1, 2, 3, 4, 5][..]));
        assert_eq!(first.as_ptr(), second.as_ptr(), "one allocation");
        assert_eq!(log.words(), &[1, 2, 3, 4, 5, 6][..log.len()]);
        assert!(!log.try_extend(&[7; 64]), "a full log refuses");
        assert_eq!(log.len(), log.words().len());
        let copy = SharedWords::from(&[1u64, 2][..]);
        assert!(copy == first && copy.as_ptr() != first.as_ptr());
        drop(log);
        assert_eq!(&*second, &[1, 2, 3, 4, 5][..], "a view outlives its log");
    }

    #[test]
    fn arena_is_64_byte_aligned() {
        for n in [0usize, 1, 7, 8, 9, 1000] {
            let words: Vec<u64> = (0..n as u64).collect();
            let arena = Arena::from_words(&words);
            assert_eq!(arena.words(), &words[..]);
            if n > 0 {
                assert_eq!(arena.words().as_ptr() as usize % 64, 0, "n = {n}");
            }
        }
    }

    #[test]
    fn arena_clone_stays_aligned_and_equal() {
        let words: Vec<u64> = (0..100u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let arena = Arena::from_words(&words);
        let clone = arena.clone();
        assert_eq!(arena, clone);
        assert_eq!(clone.words().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn le_bytes_roundtrip() {
        let words: Vec<u64> = vec![0x0102_0304_0506_0708, u64::MAX, 0];
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let arena = Arena::from_le_bytes(&bytes).unwrap();
        assert_eq!(arena.words(), &words[..]);
        assert_eq!(arena.words().as_ptr() as usize % 64, 0);
        assert!(Arena::from_le_bytes(&bytes[..5]).is_err());
    }

    #[test]
    fn u32_packing_roundtrips() {
        let mut words = Vec::new();
        let values: Vec<u32> = (0..13u32).map(|i| i.wrapping_mul(0x0101_6B55)).collect();
        let written = push_u32s(&mut words, values.iter().copied());
        assert_eq!(written, words_for_u32s(values.len()));
        for (j, &v) in values.iter().enumerate() {
            assert_eq!(get_u32(&words, j), v, "value {j}");
        }
    }

    #[test]
    fn pad_reaches_block_boundary() {
        let mut words = vec![1u64; 3];
        pad_to_block(&mut words);
        assert_eq!(words.len(), 8);
        pad_to_block(&mut words);
        assert_eq!(words.len(), 8);
    }

    #[test]
    fn hugepage_advice_falls_back_gracefully() {
        // Too small for even one huge page: always the fallback path,
        // arena untouched.
        let small = Arena::from_words(&[1, 2, 3]);
        assert!(!small.advise_hugepages());
        assert_eq!(small.words(), &[1, 2, 3]);
        // Large enough to cover whole huge pages: the kernel may accept
        // or reject (THP config), but contents must survive either way.
        let n = (3 * HUGEPAGE_BYTES) / 8;
        let words: Vec<u64> = (0..n as u64).collect();
        let big = Arena::from_words(&words);
        let advised = big.advise_hugepages();
        assert_eq!(
            big.words().len(),
            n,
            "advice (accepted = {advised}) must not resize"
        );
        assert_eq!(big.words()[n - 1], n as u64 - 1);
        assert_eq!(big.words()[0], 0);
    }

    #[test]
    fn checked_slice_rejects_bad_ranges() {
        let words = [0u64; 4];
        assert!(slice(&words, 0, 4).is_ok());
        assert!(slice(&words, 2, 3).is_err());
        assert!(slice(&words, usize::MAX, 2).is_err());
    }
}
