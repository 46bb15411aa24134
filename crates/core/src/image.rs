//! `fibimage/v1` — the versioned, sectioned on-disk format for compiled
//! FIBs, with zero-copy load.
//!
//! The paper's whole point is that a compressed FIB is a *flat string of
//! bits*: the revised technical report ships the serialized prefix DAG
//! directly into SRAM, and the pDAG memory-bounds work treats the encoded
//! image as the deliverable. This module makes that the system's shape:
//! every Table 2 engine serializes into one image file, and loading an
//! image **borrows** the engine's words straight out of the single aligned
//! read buffer — no per-section copies, no rebuild from the control trie.
//!
//! # Format
//!
//! Everything is little-endian `u64` words; the file length is a multiple
//! of 64 bytes and every section starts on a 64-byte boundary, so
//! cache-line layouts (the interleaved rank lines of
//! [`fib_succinct::RsBitVec`]) keep their alignment guarantees when
//! served from a loaded buffer:
//!
//! ```text
//! word 0      magic "FIBIMG1\0"
//! word 1      version u16 | family u8 << 16 | engine u8 << 24
//!             | section-count u32 << 32
//! word 2      route count (control-FIB routes at write time)
//! word 3      epoch (router snapshot counter; 0 for standalone images)
//! word 4      total file length in words
//! word 5      engine resident size_bytes claim (inspect cross-checks it)
//! word 6      prefix count (normal-form leaves; 0 when not applicable)
//! word 7      FNV-1a checksum of the whole file with this word zeroed
//! then        section table: 2 words per section, padded to a block —
//!               word 0: section id (u32)
//!               word 1: offset in words (u32) | length in words (u32 << 32)
//! then        section payloads, each padded to a 64-byte boundary
//! ```
//!
//! Engines store their structural parameters in a [`sections::PARAMS`]
//! section and their payload words in engine-specific sections; an
//! optional [`sections::ROUTES`] section carries the control FIB's routes
//! (3 words per route) so a router can warm-restart from the image alone.
//!
//! # Zero-copy discipline
//!
//! [`FibImage::from_bytes`] performs exactly one copy: decoding the file
//! bytes into a 64-byte-aligned [`Arena`]. Everything after that —
//! [`FibImage::section`], [`ImageCodec::view`], [`any_view`] — hands out
//! `&[u64]` sub-slices of that arena. The `images` integration tests
//! assert this with pointer-range checks.
//!
//! # Validation
//!
//! An image's first view ([`ImageCodec::view`], [`any_view`]) runs every
//! check of its engine's validating constructor, O(n) scans included, and
//! the [`FibImage`] records that it passed, with what the parse derived
//! (XBW-b's root table). Later views read the record and skip the scans,
//! so a snapshot or fleet table served from an image parses its view per
//! call. A failed parse records nothing; a record is read only by the
//! codec (engine and address family) that wrote it.

use std::any::Any;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use fib_succinct::{fnv1a, fnv1a_continue, Arena, StorageError};
use fib_trie::{Address, NextHop, Prefix};

use crate::engine::table_types::*;
use crate::hot::HotSlabRef;
use crate::vsdag::VsShape;
use crate::FibLookup;

/// Magic word: the bytes `FIBIMG1\0` read as a little-endian `u64`.
pub const MAGIC: u64 = u64::from_le_bytes(*b"FIBIMG1\0");
/// Current format version.
pub const VERSION: u16 = 1;

/// Section identifiers of `fibimage/v1`.
pub mod sections {
    /// Engine-specific structural parameters.
    pub const PARAMS: u32 = 0x01;
    /// Control-FIB routes (3 words per route), optional.
    pub const ROUTES: u32 = 0x02;
    /// XBW-b shape string `S_I`.
    pub const XBW_SI: u32 = 0x10;
    /// XBW-b label string `S_α`.
    pub const XBW_SA: u32 = 0x11;
    /// XBW-b symbol → next-hop table.
    pub const XBW_LABELS: u32 = 0x12;
    /// Prefix-DAG packed node records.
    pub const PDAG_NODES: u32 = 0x20;
    /// Serialized-DAG root entries.
    pub const SER_ENTRIES: u32 = 0x30;
    /// Serialized-DAG interior records.
    pub const SER_NODES: u32 = 0x31;
    // 0x40 is reserved: it was the slot section of the retired engine 4
    // (stride-`s` multibit DAG, now a fixed-stride vsdag plan) and must
    // never be reassigned.
    /// Variable-stride DAG node directory (`stride << 32 | first_block`
    /// per supernode).
    pub const VS_NODES: u32 = 0x41;
    // 0x42 is reserved: it was the flat slot table (one tagged 32-bit
    // reference per expanded slot) of the first vsdag layout. An image
    // that carries it has no blocks and no runs, so it stops at a typed
    // missing-section error; the id must never be reassigned.
    /// Variable-stride DAG blocks: one word per 32 slots, run-start
    /// bitmap in the low half, run rank in the high half.
    pub const VS_BLOCKS: u32 = 0x43;
    /// Variable-stride DAG runs: one tagged reference per maximal run,
    /// 16 or 32 bits each as `PARAMS` declares.
    pub const VS_RUNS: u32 = 0x44;
    // 0x50 is reserved: it was the packed node section of the retired
    // engine 5 (the LC-trie, which is Table 2's `fib_trie` baseline and
    // has no image encoding) and must never be reassigned.
    /// Optional traffic-aware hot slab (any engine): meta block + slot
    /// words, see [`crate::hot::HotSlab::write_words`].
    pub const HOT_SLAB: u32 = 0x60;
    /// Multi-tenant VRF directory: `[table_count]`, then 6 words per VRF
    /// — `id | choice << 32` (a [`crate::vrf::VrfEngineChoice`] code, 0–3),
    /// root, routes, reachable nodes, solo nodes, zero. A dedicated table's
    /// sections sit at [`VRF_TABLE_BASE`] by directory index.
    pub const VRF_DIR: u32 = 0x70;
    /// The shared hash-consed VRF arena: packed pDAG node records
    /// (identical format to [`PDAG_NODES`]), one arena serving every
    /// shared-placement table through its own root.
    pub const VRF_PDAG: u32 = 0x71;
    /// Base id for per-VRF dedicated-engine sections: table at directory
    /// index `i` owns ids `VRF_TABLE_BASE + i·VRF_TABLE_STRIDE ..+ STRIDE`,
    /// slot `p` holding the section at position `p` of its engine's
    /// [`ImageCodec::SECTIONS`](super::ImageCodec::SECTIONS).
    pub const VRF_TABLE_BASE: u32 = 0x1000;
    /// Section-id stride per VRF table (see [`VRF_TABLE_BASE`]).
    pub const VRF_TABLE_STRIDE: u32 = 8;
}

const BLOCK_WORDS: usize = 8;

/// Address family byte of the header.
fn family_of<A: Address>() -> u8 {
    if A::WIDTH == 32 {
        4
    } else {
        6
    }
}

/// Error loading or validating a FIB image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageError {
    /// Filesystem failure (message carries the OS error).
    Io(String),
    /// Fewer bytes than the header demands, or a length field pointing
    /// past the end.
    Truncated,
    /// The magic word is not `FIBIMG1\0`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// The image was compiled for a different address family.
    FamilyMismatch {
        /// Family recorded in the image (4 or 6).
        image: u8,
        /// Family of the requested address type.
        expected: u8,
    },
    /// The image encodes a different engine than requested.
    EngineMismatch {
        /// Engine id recorded in the image.
        image: u8,
        /// Engine id the caller asked for.
        expected: u8,
    },
    /// Unknown engine id in the header.
    UnknownEngine(u8),
    /// FNV-1a checksum over the file does not match.
    ChecksumMismatch,
    /// A section the engine requires is absent.
    MissingSection(u32),
    /// Structurally invalid contents.
    Malformed(&'static str),
    /// The request has no single-engine encoding: a container kind (a
    /// vrfset) asked for as one engine, or a configuration a codec cannot
    /// write.
    Unsupported(&'static str),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "image i/o error: {e}"),
            Self::Truncated => write!(f, "image truncated"),
            Self::BadMagic => write!(f, "not a fibimage file"),
            Self::BadVersion(v) => write!(f, "unsupported fibimage version {v}"),
            Self::FamilyMismatch { image, expected } => {
                write!(f, "image is IPv{image}, expected IPv{expected}")
            }
            Self::EngineMismatch { image, expected } => {
                write!(f, "image encodes engine {image}, expected {expected}")
            }
            Self::UnknownEngine(v) => write!(f, "unknown engine id {v}"),
            Self::ChecksumMismatch => write!(f, "image checksum mismatch"),
            Self::MissingSection(id) => write!(f, "missing section {id:#x}"),
            Self::Malformed(what) => write!(f, "malformed image: {what}"),
            Self::Unsupported(what) => write!(f, "unsupported configuration: {what}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<StorageError> for ImageError {
    fn from(e: StorageError) -> Self {
        Self::Malformed(e.0)
    }
}

/// One entry of the section table.
#[derive(Clone, Copy, Debug)]
pub struct SectionEntry {
    /// Section id (see [`sections`]).
    pub id: u32,
    /// Offset from the file start, in words (multiple of 8).
    pub offset: usize,
    /// Meaningful length in words (padding excluded).
    pub len: usize,
}

/// A loaded FIB image: one aligned arena plus the parsed header and
/// section table. All engine views borrow from it. It is immutable, and
/// keeps the record of its validation (module docs, "Validation"); a
/// clone shares the record, as it holds the same bytes.
#[derive(Clone, Debug)]
pub struct FibImage {
    arena: Arena,
    section_table: Vec<SectionEntry>,
    version: u16,
    family: u8,
    engine: u8,
    route_count: u64,
    prefix_count: u64,
    epoch: u64,
    claimed_size_bytes: u64,
    /// See [`Self::validated`]. Not part of the file.
    record: OnceLock<Arc<Record>>,
}

/// What one codec's successful full parse of an image leaves in it.
#[derive(Debug)]
struct Record {
    /// The codec that validated: its engine byte and address width.
    codec: (u8, u8),
    /// What it derived while validating: XBW-b's root table, or `()`.
    value: Box<dyn Any + Send + Sync>,
    /// Another codec's record of the same image. Only a hostile image,
    /// one carrying two engines' sections, parsed past the header's
    /// engine, ever has one.
    next: OnceLock<Arc<Record>>,
}

impl FibImage {
    /// Decodes and validates an image from bytes. This is the single copy
    /// of the load path (file bytes → aligned arena); everything after
    /// borrows.
    ///
    /// # Errors
    /// Any [`ImageError`] variant; corrupt bytes never panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ImageError> {
        if bytes.len() < 64 || bytes.len() % 64 != 0 {
            // Check the magic first so a short prefix of a real image
            // still reports what it is.
            if bytes.len() >= 8
                && u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) != MAGIC
            {
                return Err(ImageError::BadMagic);
            }
            return Err(ImageError::Truncated);
        }
        let arena = Arena::from_le_bytes(bytes).map_err(|_| ImageError::Truncated)?;
        // DFZ-scale images are walked with random access on the packet
        // path; ask the kernel to back the arena with transparent huge
        // pages so the walk spends TLB entries 512× more slowly. Purely
        // advisory: small arenas and non-Linux hosts return `false` and
        // the image serves identically from 4 KiB pages.
        let _ = arena.advise_hugepages();
        let words = arena.words();
        if words[0] != MAGIC {
            return Err(ImageError::BadMagic);
        }
        let version = (words[1] & 0xFFFF) as u16;
        if version != VERSION {
            return Err(ImageError::BadVersion(version));
        }
        let family = ((words[1] >> 16) & 0xFF) as u8;
        let engine = ((words[1] >> 24) & 0xFF) as u8;
        let section_count = (words[1] >> 32) as u32 as usize;
        let total_words = words[4];
        if total_words as usize != words.len() {
            return Err(ImageError::Truncated);
        }
        // Checksum: the file with the checksum word zeroed — the same
        // shared FNV-1a the writer uses, chained around the hole.
        let stored = words[7];
        let hash = fnv1a_continue(
            fnv1a_continue(fib_succinct::fnv1a(&bytes[..56]), &[0u8; 8]),
            &bytes[64..],
        );
        if hash != stored {
            return Err(ImageError::ChecksumMismatch);
        }
        // Section table.
        let table_words = section_count * 2;
        if 8 + table_words > words.len() {
            return Err(ImageError::Truncated);
        }
        let mut section_table = Vec::with_capacity(section_count);
        for s in 0..section_count {
            let id = words[8 + s * 2] as u32;
            let loc = words[8 + s * 2 + 1];
            let offset = (loc as u32) as usize;
            let len = (loc >> 32) as usize;
            if offset % BLOCK_WORDS != 0 {
                return Err(ImageError::Malformed("section offset unaligned"));
            }
            if offset.checked_add(len).is_none_or(|end| end > words.len()) {
                return Err(ImageError::Truncated);
            }
            section_table.push(SectionEntry { id, offset, len });
        }
        let (route_count, prefix_count, epoch, claimed_size_bytes) =
            (words[2], words[6], words[3], words[5]);
        Ok(Self {
            arena,
            section_table,
            version,
            family,
            engine,
            route_count,
            prefix_count,
            epoch,
            claimed_size_bytes,
            record: OnceLock::new(),
        })
    }

    /// Codec `E`'s record of its full parse of this image: `validate`
    /// runs every check of `E`'s validating constructor until it first
    /// succeeds, and what it returned then is every later call's answer.
    /// The record is keyed by `E`'s engine and address width, so another
    /// codec's parse of the same bytes never reads it as its own.
    ///
    /// # Errors
    /// `validate`'s, or [`ImageError::Malformed`] when `E` kept a value
    /// of another type.
    pub(crate) fn validated<A: Address, E: ImageCodec<A>, T: Any + Send + Sync>(
        &self,
        validate: impl FnOnce() -> Result<T, ImageError>,
    ) -> Result<&T, ImageError> {
        let codec = (E::ENGINE as u8, A::WIDTH);
        let record = match self.record_of(codec, None) {
            Some(record) => record,
            None => {
                let fresh = Arc::new(Record {
                    codec,
                    value: Box::new(validate()?),
                    next: OnceLock::new(),
                });
                // Appended at the end of the chain, unless a racing parse
                // by the same codec got there first.
                (self.record_of(codec, Some(&fresh))).ok_or(ImageError::Malformed("record"))?
            }
        };
        record
            .value
            .downcast_ref()
            .ok_or(ImageError::Malformed("record"))
    }

    /// The record `codec` keeps in this image. At the end of the chain
    /// `fresh`, when given, is appended, so the walk then always finds
    /// one.
    fn record_of(&self, codec: (u8, u8), fresh: Option<&Arc<Record>>) -> Option<&Record> {
        let mut slot = &self.record;
        loop {
            let record = match (slot.get(), fresh) {
                (Some(record), _) => record,
                (None, Some(fresh)) => slot.get_or_init(|| Arc::clone(fresh)),
                (None, None) => return None,
            };
            if record.codec == codec {
                return Some(record);
            }
            slot = &record.next;
        }
    }

    /// Reads and decodes an image file.
    ///
    /// # Errors
    /// [`ImageError::Io`] on filesystem failure, else as
    /// [`Self::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ImageError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| ImageError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::from_bytes(&bytes)
    }

    /// Format version.
    #[must_use]
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Address family (4 or 6).
    #[must_use]
    pub fn family(&self) -> u8 {
        self.family
    }

    /// Raw engine id byte.
    #[must_use]
    pub fn engine_id(&self) -> u8 {
        self.engine
    }

    /// The engine this image encodes.
    ///
    /// # Errors
    /// [`ImageError::UnknownEngine`] for ids this build does not know.
    pub fn engine(&self) -> Result<EngineKind, ImageError> {
        EngineKind::from_u8(self.engine).ok_or(ImageError::UnknownEngine(self.engine))
    }

    /// Routes in the control FIB when the image was written.
    #[must_use]
    pub fn route_count(&self) -> u64 {
        self.route_count
    }

    /// Normal-form leaves (0 when the engine does not track them).
    #[must_use]
    pub fn prefix_count(&self) -> u64 {
        self.prefix_count
    }

    /// Router epoch the image snapshots (0 for standalone compiles).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine's claimed resident `size_bytes` at write time.
    #[must_use]
    pub fn claimed_size_bytes(&self) -> u64 {
        self.claimed_size_bytes
    }

    /// The whole image as words (header + table + payloads).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        self.arena.words()
    }

    /// The parsed section table.
    #[must_use]
    pub fn section_table(&self) -> &[SectionEntry] {
        &self.section_table
    }

    /// Borrows a section's payload words (zero-copy).
    ///
    /// # Errors
    /// [`ImageError::MissingSection`] when absent.
    pub fn section(&self, id: u32) -> Result<&[u64], ImageError> {
        let entry = self
            .section_table
            .iter()
            .find(|e| e.id == id)
            .ok_or(ImageError::MissingSection(id))?;
        Ok(&self.arena.words()[entry.offset..entry.offset + entry.len])
    }

    /// Whether the image carries a routes section (needed for router warm
    /// restart).
    #[must_use]
    pub fn has_routes(&self) -> bool {
        self.section_table.iter().any(|e| e.id == sections::ROUTES)
    }

    /// Decodes the routes section into a control trie.
    ///
    /// # Errors
    /// [`ImageError`] when the section is absent, malformed, or encodes a
    /// different address family.
    pub fn routes<A: Address>(&self) -> Result<BinaryTrie<A>, ImageError> {
        if self.family != family_of::<A>() {
            return Err(ImageError::FamilyMismatch {
                image: self.family,
                expected: family_of::<A>(),
            });
        }
        let words = self.section(sections::ROUTES)?;
        if words.len() % 3 != 0 {
            return Err(ImageError::Malformed("routes section length"));
        }
        let mut trie = BinaryTrie::new();
        for route in words.chunks_exact(3) {
            let addr = (u128::from(route[0]) << 64) | u128::from(route[1]);
            let len = (route[2] & 0xFF) as u8;
            let nh = (route[2] >> 32) as u32;
            if len > A::WIDTH {
                return Err(ImageError::Malformed("route prefix length"));
            }
            if A::WIDTH < 128 && addr >> A::WIDTH != 0 {
                return Err(ImageError::Malformed("route address width"));
            }
            trie.insert(Prefix::new(A::from_u128(addr), len), NextHop::new(nh));
        }
        Ok(trie)
    }

    /// Validates the header against the requested address type and engine.
    pub(crate) fn expect<A: Address>(&self, engine: EngineKind) -> Result<(), ImageError> {
        if self.family != family_of::<A>() {
            return Err(ImageError::FamilyMismatch {
                image: self.family,
                expected: family_of::<A>(),
            });
        }
        if self.engine != engine as u8 {
            return Err(ImageError::EngineMismatch {
                image: self.engine,
                expected: engine as u8,
            });
        }
        Ok(())
    }
}

/// Incrementally assembles a `fibimage/v1` byte blob.
pub struct ImageWriter {
    engine: EngineKind,
    family: u8,
    route_count: u64,
    prefix_count: u64,
    epoch: u64,
    claimed_size_bytes: u64,
    /// Payload words, section-relative (assembled after the table).
    payload: Vec<u64>,
    /// `(id, payload offset, meaningful length)` per section.
    entries: Vec<(u32, usize, usize)>,
}

impl ImageWriter {
    /// Starts an image for `engine` over address type `A`.
    #[must_use]
    pub fn new<A: Address>(engine: EngineKind, route_count: u64, epoch: u64) -> Self {
        Self {
            engine,
            family: family_of::<A>(),
            route_count,
            prefix_count: 0,
            epoch,
            claimed_size_bytes: 0,
            payload: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Records the normal-form prefix (leaf) count.
    pub fn set_prefix_count(&mut self, count: u64) {
        self.prefix_count = count;
    }

    /// Records the engine's resident size claim.
    pub fn set_claimed_size_bytes(&mut self, bytes: u64) {
        self.claimed_size_bytes = bytes;
    }

    /// Appends a section from a word slice.
    pub fn section(&mut self, id: u32, words: &[u64]) {
        self.section_with(id, |out| out.extend_from_slice(words));
    }

    /// Appends a section whose words are produced by `fill` (e.g. a
    /// structure's `write_words`). The section starts on a 64-byte
    /// boundary; the meaningful length is whatever `fill` appends, and
    /// the writer pads the tail to a whole block.
    pub fn section_with(&mut self, id: u32, fill: impl FnOnce(&mut Vec<u64>)) {
        debug_assert_eq!(self.payload.len() % BLOCK_WORDS, 0);
        let start = self.payload.len();
        fill(&mut self.payload);
        let len = self.payload.len() - start;
        while self.payload.len() % BLOCK_WORDS != 0 {
            self.payload.push(0);
        }
        self.entries.push((id, start, len));
    }

    /// Appends the routes section (3 words per route).
    pub fn routes<A: Address>(&mut self, trie: &BinaryTrie<A>) {
        self.section_with(sections::ROUTES, |out| {
            for (prefix, nh) in trie.iter() {
                let addr = prefix.addr().to_u128();
                out.push((addr >> 64) as u64);
                out.push(addr as u64);
                out.push(u64::from(prefix.len()) | (u64::from(nh.index()) << 32));
            }
        });
    }

    /// Assembles the final image bytes (header, section table, payloads,
    /// checksum).
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let table_words = (self.entries.len() * 2).div_ceil(BLOCK_WORDS) * BLOCK_WORDS;
        let payload_base = 8 + table_words;
        let total_words = payload_base + self.payload.len();
        let mut words = Vec::with_capacity(total_words);
        words.push(MAGIC);
        words.push(
            u64::from(VERSION)
                | (u64::from(self.family) << 16)
                | ((self.engine as u64) << 24)
                | ((self.entries.len() as u64) << 32),
        );
        words.push(self.route_count);
        words.push(self.epoch);
        words.push(total_words as u64);
        words.push(self.claimed_size_bytes);
        words.push(self.prefix_count);
        words.push(0); // checksum, patched below
        for &(id, start, len) in &self.entries {
            words.push(u64::from(id));
            let offset = payload_base + start;
            words.push((offset as u64) | ((len as u64) << 32));
        }
        while words.len() < payload_base {
            words.push(0);
        }
        words.extend_from_slice(&self.payload);
        // Checksum with word 7 zeroed, then patch it in.
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let checksum = fnv1a(&bytes);
        bytes[56..64].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }
}

/// A codec's section layout: `(canonical id, name)` per section.
pub type Layout = &'static [(u32, &'static str)];

/// An engine that can serialize itself into a FIB image and serve lookups
/// from a borrowed view of one.
///
/// `write_image(engine)` and `E::view(&image)` are inverses up to the
/// forwarding function: the view answers every probe identically to the
/// engine, borrowing — never copying — the image's section payloads.
pub trait ImageCodec<A: Address>: FibLookup<A> + Sized {
    /// The engine id stamped into the header.
    const ENGINE: EngineKind;

    /// What [`Self::write_sections`] emits, in order: the layout a vrfset
    /// table's id block, lint and `fibc inspect` read.
    const SECTIONS: Layout;

    /// Borrowed zero-copy view type.
    type Ref<'i>: FibLookup<A> + Copy;

    /// Writes the engine's parameter and payload sections.
    ///
    /// # Errors
    /// [`ImageError::Unsupported`] when this configuration has no image
    /// encoding.
    fn write_sections(&self, writer: &mut ImageWriter) -> Result<(), ImageError>;

    /// Assembles the view from `image`'s sections, by canonical id, with
    /// no header check. The codec's first successful parse of `image`
    /// runs its validating constructor inside the image's record (see the
    /// module docs' "Validation"); every parse then builds the scan-free
    /// view.
    ///
    /// # Errors
    /// Any [`ImageError`]; hostile images fail loudly, never panic.
    fn parse(image: &FibImage) -> Result<Self::Ref<'_>, ImageError>;

    /// The zero-copy view over a loaded image: header check, then parse.
    /// Only an image's first view runs the O(n) scans.
    ///
    /// # Errors
    /// Any [`ImageError`]; hostile images fail loudly, never panic.
    fn view(image: &FibImage) -> Result<Self::Ref<'_>, ImageError> {
        image.expect::<A>(Self::ENGINE)?;
        Self::parse(image)
    }

    /// The resident size claim recorded in the header — the engine's own
    /// byte accounting, which `fibc inspect` and the size-drift tests
    /// compare against the actual payload bytes.
    fn resident_size_bytes(&self) -> usize;
}

/// Serializes `engine` into `fibimage/v1` bytes. When `routes` is given,
/// the control FIB rides along in a [`sections::ROUTES`] section so a
/// router can warm-restart from the file.
///
/// # Errors
/// [`ImageError::Unsupported`] for engine configurations with no image
/// encoding.
pub fn write_image<A: Address, E: ImageCodec<A>>(
    engine: &E,
    routes: Option<&BinaryTrie<A>>,
    epoch: u64,
) -> Result<Vec<u8>, ImageError> {
    write_image_with(engine, routes, epoch, None)
}

/// [`write_image`] plus a [`sections::HOT_SLAB`] section carrying a
/// compiled traffic-aware hot slab, so a snapshot served from the image
/// (`fib_router::EpochSnapshot::from_image`) answers from the pinned
/// blocks without recompilation.
///
/// # Errors
/// [`ImageError::Unsupported`] for engine configurations with no image
/// encoding.
pub fn write_image_hot<A: Address, E: ImageCodec<A>>(
    engine: &E,
    routes: Option<&BinaryTrie<A>>,
    epoch: u64,
    slab: &crate::hot::HotSlab,
) -> Result<Vec<u8>, ImageError> {
    write_image_with(engine, routes, epoch, Some(slab))
}

/// The one image writer: the engine's sections, the slab's, then the
/// routes. A slab is resident, so the size claim counts it.
fn write_image_with<A: Address, E: ImageCodec<A>>(
    engine: &E,
    routes: Option<&BinaryTrie<A>>,
    epoch: u64,
    slab: Option<&crate::hot::HotSlab>,
) -> Result<Vec<u8>, ImageError> {
    let route_count = routes.map_or(0, BinaryTrie::len) as u64;
    let mut writer = ImageWriter::new::<A>(E::ENGINE, route_count, epoch);
    let slab_bytes = slab.map_or(0, crate::hot::HotSlab::size_bytes);
    writer.set_claimed_size_bytes((engine.resident_size_bytes() + slab_bytes) as u64);
    engine.write_sections(&mut writer)?;
    if let Some(slab) = slab {
        writer.section_with(sections::HOT_SLAB, |out| slab.write_words(out));
    }
    if let Some(trie) = routes {
        writer.routes(trie);
    }
    Ok(writer.finish())
}

// ---------------------------------------------------------------------
// Codec implementations
// ---------------------------------------------------------------------
//
// One `parse` per codec serves a single-engine image (`view`) and a
// vrfset table alike: a fleet copies a dedicated table's id block into a
// one-engine image at load and parses that. `SECTIONS` is the layout the
// fleet, lint and `fibc inspect` read.

/// The first word of a `PARAMS` section, which must fit `T`.
fn first_param<T: TryFrom<u64>>(params: &[u64], what: &'static str) -> Result<T, ImageError> {
    let word = params.first().ok_or(ImageError::Malformed("params"))?;
    T::try_from(*word).map_err(|_| ImageError::Malformed(what))
}

impl<A: Address> ImageCodec<A> for SerializedDag<A> {
    const ENGINE: EngineKind = EngineKind::SerializedDag;
    const SECTIONS: Layout = &[
        (sections::PARAMS, "params"),
        (sections::SER_ENTRIES, "serialized.entries"),
        (sections::SER_NODES, "serialized.nodes"),
    ];
    type Ref<'i> = SerializedDagRef<'i, A>;

    fn write_sections(&self, writer: &mut ImageWriter) -> Result<(), ImageError> {
        writer.section(sections::PARAMS, &[u64::from(self.lambda())]);
        writer.section(sections::SER_ENTRIES, self.entry_words());
        writer.section(sections::SER_NODES, self.node_words());
        Ok(())
    }

    fn parse(image: &FibImage) -> Result<Self::Ref<'_>, ImageError> {
        let lambda = first_param(image.section(sections::PARAMS)?, "λ out of range")?;
        let entries = image.section(sections::SER_ENTRIES)?;
        let nodes = image.section(sections::SER_NODES)?;
        image.validated::<A, Self, _>(|| {
            SerializedDagRef::<A>::from_parts(lambda, entries, nodes)
                .map_err(ImageError::Malformed)?;
            Ok(())
        })?;
        SerializedDagRef::from_parts_trusted(lambda, entries, nodes).map_err(ImageError::Malformed)
    }

    fn resident_size_bytes(&self) -> usize {
        self.size_bytes()
    }
}

impl<A: Address> ImageCodec<A> for VarStrideDag<A> {
    const ENGINE: EngineKind = EngineKind::VsDag;
    const SECTIONS: Layout = &[
        (sections::PARAMS, "params"),
        (sections::VS_NODES, "vsdag.nodes"),
        (sections::VS_BLOCKS, "vsdag.blocks"),
        (sections::VS_RUNS, "vsdag.runs"),
    ];
    type Ref<'i> = VarStrideDagRef<'i, A>;

    fn write_sections(&self, writer: &mut ImageWriter) -> Result<(), ImageError> {
        writer.section(
            sections::PARAMS,
            &[
                u64::from(self.root_ref()),
                self.node_count() as u64,
                self.slot_count() as u64,
                self.block_count() as u64,
                self.run_count() as u64,
                u64::from(self.run_width()),
            ],
        );
        writer.section(sections::VS_NODES, self.node_words());
        writer.section(sections::VS_BLOCKS, self.block_words());
        writer.section(sections::VS_RUNS, self.run_words());
        Ok(())
    }

    fn parse(image: &FibImage) -> Result<Self::Ref<'_>, ImageError> {
        // All four sections before any word is read: an image of the flat
        // layout (three `PARAMS` words, slots in the retired 0x42) stops at
        // the missing block table, by name.
        let params = image.section(sections::PARAMS)?;
        let nodes = image.section(sections::VS_NODES)?;
        let blocks = image.section(sections::VS_BLOCKS)?;
        let runs = image.section(sections::VS_RUNS)?;
        let &[root, node_count, slots, block_count, run_count, run_width, ..] = params else {
            return Err(ImageError::Malformed("params"));
        };
        let count =
            |word: u64, what| usize::try_from(word).map_err(|_| ImageError::Malformed(what));
        let shape = VsShape {
            root: u32::try_from(root).map_err(|_| ImageError::Malformed("root out of range"))?,
            slots: count(slots, "slot count out of range")?,
            runs: count(run_count, "run count out of range")?,
            run_width: u32::try_from(run_width)
                .map_err(|_| ImageError::Malformed("run width out of range"))?,
        };
        if nodes.len() != count(node_count, "node count out of range")? {
            return Err(ImageError::Malformed("node directory length mismatch"));
        }
        if blocks.len() != count(block_count, "block count out of range")? {
            return Err(ImageError::Malformed("block table length mismatch"));
        }
        image.validated::<A, Self, _>(|| {
            VarStrideDagRef::<A>::from_parts(nodes, blocks, runs, shape)
                .map_err(ImageError::Malformed)?;
            Ok(())
        })?;
        VarStrideDagRef::from_parts_trusted(nodes, blocks, runs, shape)
            .map_err(ImageError::Malformed)
    }

    fn resident_size_bytes(&self) -> usize {
        self.size_bytes()
    }
}

impl<A: Address> ImageCodec<A> for PrefixDag<A> {
    const ENGINE: EngineKind = EngineKind::PrefixDag;
    const SECTIONS: Layout = &[
        (sections::PARAMS, "params"),
        (sections::PDAG_NODES, "pdag.nodes"),
    ];
    type Ref<'i> = PrefixDagRef<'i, A>;

    fn write_sections(&self, writer: &mut ImageWriter) -> Result<(), ImageError> {
        let (words, root) = self.write_packed();
        writer.section(
            sections::PARAMS,
            &[u64::from(root), u64::from(self.lambda())],
        );
        writer.section(sections::PDAG_NODES, &words);
        Ok(())
    }

    fn parse(image: &FibImage) -> Result<Self::Ref<'_>, ImageError> {
        let root = first_param(image.section(sections::PARAMS)?, "root out of range")?;
        let nodes = image.section(sections::PDAG_NODES)?;
        image.validated::<A, Self, _>(|| {
            PrefixDagRef::<A>::from_parts(nodes, root).map_err(ImageError::Malformed)?;
            Ok(())
        })?;
        PrefixDagRef::from_parts_trusted(nodes, root).map_err(ImageError::Malformed)
    }

    /// The compacted arena bytes (16 per live node) — the exact payload
    /// the image stores, matching [`PrefixDag::size_bytes`].
    fn resident_size_bytes(&self) -> usize {
        self.size_bytes()
    }
}

impl<A: Address> ImageCodec<A> for XbwFib<A> {
    const ENGINE: EngineKind = EngineKind::Xbw;
    const SECTIONS: Layout = &[
        (sections::PARAMS, "params"),
        (sections::XBW_SI, "xbw.s_i"),
        (sections::XBW_SA, "xbw.s_alpha"),
        (sections::XBW_LABELS, "xbw.labels"),
    ];
    type Ref<'i> = XbwFibRef<'i, A>;

    fn write_sections(&self, writer: &mut ImageWriter) -> Result<(), ImageError> {
        self.write_image_sections(writer);
        Ok(())
    }

    /// The view borrows the root table the image's record keeps: its
    /// first view derives it.
    fn parse(image: &FibImage) -> Result<Self::Ref<'_>, ImageError> {
        XbwFibRef::parse(image)
    }

    fn resident_size_bytes(&self) -> usize {
        self.size_bytes()
    }
}

// ---------------------------------------------------------------------
// What the engine table generates for images
// ---------------------------------------------------------------------

/// Work over one engine type that a run-time [`EngineKind`] picks —
/// `fibc compile` builds and encodes `E`, `fibc serve` serves an image
/// through `E`'s view. [`EngineKind::visit`] is the one place a kind
/// becomes a type.
pub trait EngineVisitor<A: Address> {
    /// What a visit returns.
    type Output;

    /// Does the work with `E`, the engine the visited kind names.
    fn visit<E>(self) -> Self::Output
    where
        E: ImageCodec<A> + crate::FibBuild<A> + Send + Sync + 'static;
}

/// [`engine_table`](crate::engine) consumer: the image-kind enum with its
/// [`EngineKind::visit`], the type-erased view and its dispatch, from the
/// rows that carry an `image` column and the `containers` block.
macro_rules! impl_image_kinds {
    (
        engines { $(
            $owned:ident |$e:ident| $walk:expr, $name:literal, $tier:ident, $size:expr
            $(, image $view:ident, $kind:ident = $id:literal, $cli:literal)? ;
        )* }
        containers { $( $ckind:ident = $cid:literal, $ccli:literal, $why:literal ; )* }
    ) => {
        /// The engine a FIB image encodes. The discriminant is the header's
        /// engine byte and [`Self::name`] the value `fibc --engine` takes;
        /// both are fixed once assigned.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum EngineKind {
            $($(
                #[doc = concat!("[`", stringify!($owned), "`], reported as `", $name, "`.")]
                $kind = $id,
            )?)*
            $(
                #[doc = concat!("The `", $ccli, "` container: ", $why, ".")]
                $ckind = $cid,
            )*
        }

        impl EngineKind {
            /// Every kind, engines first, in table order.
            pub const ALL: &'static [Self] = &[$($(Self::$kind,)?)* $(Self::$ckind,)*];

            /// The engine's [`ImageCodec::SECTIONS`]; empty for a
            /// container kind, whose layout is its own module's.
            #[must_use]
            pub fn sections(self) -> Layout {
                match self {
                    // The layout does not depend on the address family.
                    $($( Self::$kind => <$owned<u32> as ImageCodec<u32>>::SECTIONS, )?)*
                    $( Self::$ckind => &[], )*
                }
            }

            /// Decodes the header byte.
            #[must_use]
            pub fn from_u8(v: u8) -> Option<Self> {
                match v {
                    $($( $id => Some(Self::$kind), )?)*
                    $( $cid => Some(Self::$ckind), )*
                    _ => None,
                }
            }

            /// Stable lower-case name (accepted by `fibc --engine`).
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $($( Self::$kind => $cli, )?)*
                    $( Self::$ckind => $ccli, )*
                }
            }

            /// Parses [`Self::name`].
            #[must_use]
            pub fn parse(name: &str) -> Option<Self> {
                match name {
                    $($( $cli => Some(Self::$kind), )?)*
                    $( $ccli => Some(Self::$ckind), )*
                    _ => None,
                }
            }

            /// Runs `visitor` with the owned engine type this kind names.
            ///
            /// # Errors
            /// [`ImageError::Unsupported`] for a container kind, which
            /// names no single engine.
            pub fn visit<A, V>(self, visitor: V) -> Result<V::Output, ImageError>
            where
                A: Address + Send + Sync + 'static,
                V: EngineVisitor<A>,
            {
                Ok(match self {
                    $($( Self::$kind => visitor.visit::<$owned<A>>(), )?)*
                    $( Self::$ckind => return Err(ImageError::Unsupported($why)), )*
                })
            }
        }

        /// A type-erased view over whatever engine an image encodes — what
        /// `fibc serve` and inspection tooling dispatch on. It forwards all
        /// of [`FibLookup`], so a kernel or a traced walk the concrete view
        /// has is reached through the erased one too.
        #[derive(Clone, Copy, Debug)]
        pub enum AnyView<'a, A: Address> {
            $($(
                #[doc = concat!("A `", $cli, "` image.")]
                $kind($view<'a, A>),
            )?)*
        }

        impl<'i, A: Address> AnyView<'i, A> {
            /// The view of a `kind` engine, [`ImageCodec::parse`]d from
            /// `image`'s sections ([`any_view`]'s dispatch).
            fn parse(kind: EngineKind, image: &'i FibImage) -> Result<Self, ImageError> {
                Ok(match kind {
                    $($( EngineKind::$kind => Self::$kind($owned::<A>::parse(image)?), )?)*
                    $( EngineKind::$ckind => return Err(ImageError::Unsupported($why)), )*
                })
            }
        }

        impl<A: Address> FibLookup<A> for AnyView<'_, A> {
            fn name(&self) -> &'static str {
                match self {
                    $($( Self::$kind(v) => FibLookup::<A>::name(v), )?)*
                }
            }

            #[inline]
            fn lookup(&self, addr: A) -> Option<NextHop> {
                match self {
                    $($( Self::$kind(v) => FibLookup::<A>::lookup(v, addr), )?)*
                }
            }

            fn lookup_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]) {
                match self {
                    $($( Self::$kind(v) => FibLookup::<A>::lookup_batch(v, addrs, out), )?)*
                }
            }

            fn size_bytes(&self) -> usize {
                match self {
                    $($( Self::$kind(v) => FibLookup::<A>::size_bytes(v), )?)*
                }
            }

            fn lookup_traced(&self, addr: A, sink: &mut dyn FnMut(u64, u32)) -> Option<NextHop> {
                match self {
                    $($( Self::$kind(v) => FibLookup::<A>::lookup_traced(v, addr, sink), )?)*
                }
            }

            fn traces_memory(&self) -> bool {
                match self {
                    $($( Self::$kind(v) => FibLookup::<A>::traces_memory(v), )?)*
                }
            }
        }
    };
}

crate::engine::engine_table!(impl_image_kinds);

/// Assembles the engine-appropriate view for whatever `image` encodes:
/// the erased [`ImageCodec::view`].
///
/// # Errors
/// Any [`ImageError`].
pub fn any_view<A: Address>(image: &FibImage) -> Result<AnyView<'_, A>, ImageError> {
    let kind = image.engine()?;
    image.expect::<A>(kind)?;
    AnyView::parse(kind, image)
}

impl FibImage {
    /// Borrows the optional [`sections::HOT_SLAB`] section as a validated
    /// slab view; `Ok(None)` when the image carries no slab.
    ///
    /// # Errors
    /// [`ImageError::Malformed`] when a slab section is present but fails
    /// validation.
    pub fn hot_slab(&self) -> Result<Option<HotSlabRef<'_>>, ImageError> {
        match self.section(sections::HOT_SLAB) {
            Err(ImageError::MissingSection(_)) => Ok(None),
            Err(e) => Err(e),
            Ok(words) => HotSlabRef::from_words(words)
                .map(Some)
                .map_err(|e| ImageError::Malformed(e.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildConfig, FibBuild};

    /// Builds the visited engine over a table and reports the section ids
    /// its image carries beside the layout its codec declares.
    struct Emitted<'t>(&'t BinaryTrie<u32>);

    impl EngineVisitor<u32> for Emitted<'_> {
        type Output = (Vec<u32>, Layout);

        fn visit<E>(self) -> Self::Output
        where
            E: ImageCodec<u32> + FibBuild<u32> + Send + Sync + 'static,
        {
            let engine = E::build(self.0, &BuildConfig::default());
            let bytes = write_image(&engine, None, 0).expect("every codec has an encoding");
            let image = FibImage::from_bytes(&bytes).expect("the image loads");
            let ids = image.section_table().iter().map(|e| e.id).collect();
            (ids, E::SECTIONS)
        }
    }

    /// `SECTIONS` is what a vrfset table's slots, lint and `fibc inspect`
    /// read, so it must be exactly what `write_sections` emits, in order.
    #[test]
    fn every_codec_writes_exactly_its_sections_in_order() {
        let mut trie = BinaryTrie::new();
        for (addr, len, hop) in [(0, 0, 1), (0x0A00_0000, 8, 2), (0x0A01_0000, 16, 3)] {
            trie.insert(Prefix::new(addr, len), NextHop::new(hop));
        }
        for &kind in EngineKind::ALL {
            let Ok((written, layout)) = kind.visit(Emitted(&trie)) else {
                assert_eq!(kind, EngineKind::VrfSet, "only the container has no codec");
                continue;
            };
            let declared: Vec<u32> = layout.iter().map(|&(id, _)| id).collect();
            assert_eq!(written, declared, "{}", kind.name());
            assert_eq!(kind.sections(), layout, "{}", kind.name());
            assert!(layout.len() <= sections::VRF_TABLE_STRIDE as usize);
        }
    }
}
