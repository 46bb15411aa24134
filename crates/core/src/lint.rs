//! Deep structural analysis of `fibimage/v1` files — the engine behind
//! `fibc lint`.
//!
//! The load path ([`FibImage::from_bytes`] + the per-engine `view`
//! constructors) validates what it must to serve lookups safely:
//! header sanity, checksum, section bounds, child ranges. This module
//! goes further, re-deriving redundant structure from the raw words and
//! cross-checking it against the stored directories — on purpose
//! *independently* of the loader, so a bug in the loader's parse cannot
//! hide the same bug here:
//!
//! * section-table hygiene: duplicate ids, payloads overlapping each
//!   other or the header/table blocks;
//! * prefix-DAG shape: children in range, acyclicity (it is a *DAG*
//!   claim), and reachability of every packed node from the root;
//! * wavelet-tree shape: child tags valid, child indices strictly
//!   decreasing (the builder pushes children first — any other order
//!   can loop a descent);
//! * rank directories: the plain `S_I` bit vector's line counts,
//!   intra-line prefix counts, select samples, and tail padding
//!   recomputed from the data bits
//!   ([`fib_succinct::RsBitVecRef::audit`]) — the showcase class,
//!   because a corrupted count word passes every size check the loader
//!   makes and then silently misroutes — and, for an RRR `S_I` and every
//!   wavelet node vector, the superblock and sub-sample directory and
//!   the offset stream re-derived from the classes
//!   ([`fib_succinct::RrrVecRef::audit`], the same audit an image's
//!   first view runs);
//! * variable-stride DAG shape: every directory entry's stride within
//!   the legal `[1, 16]` band, the per-node block spans tiling the block
//!   table contiguously, and every block's run rank re-derived from the
//!   running popcount of the run-start bitmaps — a rank off by one passes
//!   every size check and then silently answers from the wrong run;
//! * routes payload: prefix lengths and address widths within family;
//! * hot-slab payload: the [`sections::HOT_SLAB`] parse invariants plus
//!   semantic cross-validation — every pinned `(block, next hop)` entry
//!   is re-derived from the routes payload (block purity *and* answer)
//!   and, independently, compared against the engine view's own lookup;
//! * header claims: route count vs the routes payload, prefix count vs
//!   the engine's own parameters, the resident-size claim vs the actual
//!   payload bytes.
//!
//! Every issue carries a stable kebab-case `code` so tooling (and the
//! corpus tests) can assert on classes, not message strings.

use fib_succinct::{IntVecRef, RrrVecRef, RsBitVecRef};
use fib_trie::Address;

use crate::hot::{key_addr, HotSlabRef};
use crate::image::{any_view, sections, EngineKind, FibImage, ImageError, SectionEntry};
use crate::vrf::{CompiledVrfSet, VrfSetStats};
use crate::FibLookup;

/// Word-size of the header and the alignment unit of section payloads.
const BLOCK_WORDS: usize = 8;
/// The packed prefix-DAG's null child reference.
const PDAG_NONE: u32 = u32::MAX;

/// One structural finding in a FIB image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintIssue {
    /// Stable kebab-case class code (what tests and tooling match on).
    pub code: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for LintIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

fn issue(code: &'static str, detail: impl Into<String>) -> LintIssue {
    LintIssue {
        code,
        detail: detail.into(),
    }
}

/// Maps a load-path error to its stable lint code.
#[must_use]
pub fn load_error_code(e: &ImageError) -> &'static str {
    match e {
        ImageError::Io(_) => "image-io",
        ImageError::Truncated => "image-truncated",
        ImageError::BadMagic => "image-bad-magic",
        ImageError::BadVersion(_) => "image-bad-version",
        ImageError::FamilyMismatch { .. } => "image-family-mismatch",
        ImageError::EngineMismatch { .. } => "image-engine-mismatch",
        ImageError::UnknownEngine(_) => "image-unknown-engine",
        ImageError::ChecksumMismatch => "image-checksum-mismatch",
        ImageError::MissingSection(_) => "image-missing-section",
        ImageError::Malformed(_) => "image-malformed",
        ImageError::Unsupported(_) => "image-unsupported",
    }
}

/// Lints raw image bytes: load errors become a single typed issue, a
/// loadable image gets the full deep pass of [`lint_image`].
#[must_use]
pub fn lint_bytes(bytes: &[u8]) -> Vec<LintIssue> {
    match FibImage::from_bytes(bytes) {
        Ok(image) => lint_image(&image),
        Err(e) => vec![issue(load_error_code(&e), e.to_string())],
    }
}

/// Runs every deep pass over an already-loaded image. Returns all
/// issues found (an empty vector is a clean bill).
#[must_use]
pub fn lint_image(image: &FibImage) -> Vec<LintIssue> {
    let mut issues = Vec::new();
    header_pass(image, &mut issues);
    sections_pass(image, &mut issues);
    routes_pass(image, &mut issues);
    match image.engine() {
        Ok(EngineKind::PrefixDag) => pdag_pass(image, &mut issues),
        Ok(EngineKind::Xbw) => xbw_pass(image, &mut issues),
        Ok(EngineKind::VrfSet) => vrf_pass(image, &mut issues),
        Ok(EngineKind::VsDag) => vsdag_pass(image, &mut issues),
        // serialized structure is fully covered by its validating
        // view, exercised in view_pass below.
        Ok(_) | Err(_) => {}
    }
    view_pass(image, &mut issues);
    match image.family() {
        4 => hot_slab_pass::<u32>(image, &mut issues),
        6 => hot_slab_pass::<u128>(image, &mut issues),
        _ => {}
    }
    issues
}

// ---------------------------------------------------------------------
// Generic passes
// ---------------------------------------------------------------------

fn header_pass(image: &FibImage, issues: &mut Vec<LintIssue>) {
    if !matches!(image.family(), 4 | 6) {
        issues.push(issue(
            "image-bad-family",
            format!("family byte is {}, expected 4 or 6", image.family()),
        ));
    }
    if let Err(e) = image.engine() {
        issues.push(issue("image-unknown-engine", e.to_string()));
    }
}

/// Padded word range a section occupies (payloads are block-aligned and
/// block-padded by the writer).
fn padded_range(e: &SectionEntry) -> (usize, usize) {
    (
        e.offset,
        e.offset + e.len.div_ceil(BLOCK_WORDS) * BLOCK_WORDS,
    )
}

fn sections_pass(image: &FibImage, issues: &mut Vec<LintIssue>) {
    let table = image.section_table();
    let table_blocks = (table.len() * 2).div_ceil(BLOCK_WORDS) * BLOCK_WORDS;
    let payload_base = BLOCK_WORDS + table_blocks;
    for (i, a) in table.iter().enumerate() {
        if a.offset < payload_base {
            issues.push(issue(
                "section-in-header",
                format!(
                    "section {:#x} starts at word {} inside the header/table (payloads begin at {payload_base})",
                    a.id, a.offset
                ),
            ));
        }
        for b in &table[i + 1..] {
            if b.id == a.id {
                issues.push(issue(
                    "section-duplicate",
                    format!("section id {:#x} appears more than once", a.id),
                ));
            }
            let (a0, a1) = padded_range(a);
            let (b0, b1) = padded_range(b);
            if a0 < b1 && b0 < a1 && a.len > 0 && b.len > 0 {
                issues.push(issue(
                    "section-overlap",
                    format!(
                        "sections {:#x} (words {a0}..{a1}) and {:#x} (words {b0}..{b1}) overlap",
                        a.id, b.id
                    ),
                ));
            }
        }
    }
}

fn routes_pass(image: &FibImage, issues: &mut Vec<LintIssue>) {
    let Ok(words) = image.section(sections::ROUTES) else {
        return;
    };
    if words.len() % 3 != 0 {
        issues.push(issue(
            "routes-malformed",
            format!(
                "routes section is {} words, not a multiple of 3",
                words.len()
            ),
        ));
        return;
    }
    let width: u32 = if image.family() == 4 { 32 } else { 128 };
    for (i, route) in words.chunks_exact(3).enumerate() {
        let addr = (u128::from(route[0]) << 64) | u128::from(route[1]);
        let len = (route[2] & 0xFF) as u8;
        if u32::from(len) > width {
            issues.push(issue(
                "routes-malformed",
                format!("route {i}: prefix length {len} exceeds family width {width}"),
            ));
        }
        if width < 128 && addr >> width != 0 {
            issues.push(issue(
                "routes-malformed",
                format!("route {i}: address has bits above the family width"),
            ));
        }
    }
    let count = (words.len() / 3) as u64;
    if count != image.route_count() {
        issues.push(issue(
            "route-count-mismatch",
            format!(
                "header claims {} routes, routes section carries {count}",
                image.route_count()
            ),
        ));
    }
}

// ---------------------------------------------------------------------
// Prefix-DAG: in-range children, acyclicity, reachability
// ---------------------------------------------------------------------

fn pdag_pass(image: &FibImage, issues: &mut Vec<LintIssue>) {
    let (Ok(params), Ok(nodes)) = (
        image.section(sections::PARAMS),
        image.section(sections::PDAG_NODES),
    ) else {
        return; // view_pass reports the missing section
    };
    if nodes.len() % 2 != 0 {
        issues.push(issue(
            "image-malformed",
            "pdag node section has an odd word count",
        ));
        return;
    }
    let n = nodes.len() / 2;
    let Some(root) = params.first().and_then(|&r| u32::try_from(r).ok()) else {
        issues.push(issue("image-malformed", "pdag params lack a root"));
        return;
    };
    if root != PDAG_NONE && root as usize >= n {
        issues.push(issue(
            "pdag-root-out-of-range",
            format!("root {root} with only {n} packed nodes"),
        ));
        return;
    }
    let out_of_range = children_out_of_range(nodes);
    if out_of_range > 0 {
        issues.push(issue(
            "pdag-child-out-of-range",
            format!("{out_of_range} child reference(s) point past the {n} packed nodes"),
        ));
        return; // range violations make the walks below meaningless
    }
    if root == PDAG_NONE {
        if n > 0 {
            issues.push(issue(
                "pdag-unreachable",
                format!("root is ⊥ but {n} nodes are packed"),
            ));
        }
        return;
    }
    let mut color = vec![WHITE; n];
    if let Some((node, c)) = walk_arena(nodes, root, &mut color) {
        issues.push(issue(
            "pdag-cycle",
            format!("node {c} is its own ancestor (edge from node {node})"),
        ));
    }
    let unreached = color.iter().filter(|&&c| c == WHITE).count();
    if unreached > 0 {
        issues.push(issue(
            "pdag-unreachable",
            format!("{unreached} of {n} packed nodes unreachable from the root"),
        ));
    }
}

/// Child references of a packed pDAG record arena (`left | right << 32`,
/// `label`) that point past its last node.
fn children_out_of_range(nodes: &[u64]) -> usize {
    let n = nodes.len() / 2;
    (nodes.iter().step_by(2))
        .flat_map(|&w| [w as u32, (w >> 32) as u32])
        .filter(|&c| c != PDAG_NONE && c as usize >= n)
        .count()
}

/// Three-colour marks of [`walk_arena`]: unseen, on the current path, done.
const WHITE: u8 = 0;
const GRAY: u8 = 1;
const BLACK: u8 = 2;

/// Iterative three-colour DFS from `root` over a packed pDAG record arena
/// whose children are all in range, marking `color`: a gray hit closes a
/// cycle, and a node still white after every root is walked with the
/// same `color` is reached by none. Returns the first cycle edge,
/// `(node, child)`.
fn walk_arena(nodes: &[u64], root: u32, color: &mut [u8]) -> Option<(u32, u32)> {
    let mut cycle = None;
    // (node, next child to expand: 0 = left, 1 = right, 2 = retire)
    let mut stack: Vec<(u32, u8)> = vec![(root, 0)];
    color[root as usize] = GRAY;
    while let Some((node, branch)) = stack.pop() {
        if branch == 2 {
            color[node as usize] = BLACK;
            continue;
        }
        stack.push((node, branch + 1));
        let c = (nodes[2 * node as usize] >> (32 * u32::from(branch))) as u32;
        if c == PDAG_NONE {
            continue;
        }
        match color[c as usize] {
            GRAY => cycle = cycle.or(Some((node, c))),
            WHITE => {
                color[c as usize] = GRAY;
                stack.push((c, 0));
            }
            _ => {}
        }
    }
    cycle
}

// ---------------------------------------------------------------------
// XBW-b: rank-directory audits, wavelet shape, string agreement
// ---------------------------------------------------------------------

fn xbw_pass(image: &FibImage, issues: &mut Vec<LintIssue>) {
    let (Ok(params), Ok(si_words), Ok(sa_words)) = (
        image.section(sections::PARAMS),
        image.section(sections::XBW_SI),
        image.section(sections::XBW_SA),
    ) else {
        return; // view_pass reports the missing section
    };
    if params.len() < 4 {
        issues.push(issue("image-malformed", "xbw params section too short"));
        return;
    }
    let (si_kind, sa_kind) = (params[0], params[1]);
    if params[2] != image.prefix_count() {
        issues.push(issue(
            "prefix-count-mismatch",
            format!(
                "header claims {} leaves, xbw params record {}",
                image.prefix_count(),
                params[2]
            ),
        ));
    }
    let si_ones = match si_kind {
        0 => match RsBitVecRef::from_words(si_words) {
            Ok((view, _)) => {
                if let Err(e) = view.audit() {
                    issues.push(issue(
                        "rank-directory-mismatch",
                        format!("S_I rank directory: {}", e.0),
                    ));
                }
                Some(view.count_ones())
            }
            Err(e) => {
                issues.push(issue("view-malformed", format!("S_I: {}", e.0)));
                None
            }
        },
        1 => match RrrVecRef::from_words(si_words) {
            Ok((view, _)) => {
                if let Err(e) = view.audit() {
                    issues.push(issue(
                        "rank-directory-mismatch",
                        format!("S_I (rrr) directory: {}", e.0),
                    ));
                }
                Some(view.count_ones())
            }
            Err(e) => {
                issues.push(issue("view-malformed", format!("S_I (rrr): {}", e.0)));
                None
            }
        },
        k => {
            issues.push(issue(
                "image-malformed",
                format!("unknown S_I storage kind {k}"),
            ));
            None
        }
    };
    let sa_len = match sa_kind {
        0 => match IntVecRef::from_words(sa_words) {
            Ok((view, _)) => Some(view.len()),
            Err(e) => {
                issues.push(issue("view-malformed", format!("S_α: {}", e.0)));
                None
            }
        },
        1 => wavelet_pass(sa_words, issues),
        k => {
            issues.push(issue(
                "image-malformed",
                format!("unknown S_α storage kind {k}"),
            ));
            None
        }
    };
    if let (Some(ones), Some(len)) = (si_ones, sa_len) {
        if ones != len {
            issues.push(issue(
                "xbw-leaf-count-mismatch",
                format!("S_I has {ones} leaves but S_α holds {len} symbols"),
            ));
        }
    }
}

/// Raw re-parse of a serialized wavelet tree: meta block, 4-word node
/// table, per-node payloads. Deliberately does not go through
/// `WaveletTreeRef::from_words` first — the point is to name *which*
/// invariant a corrupt table breaks, where the loader only refuses.
/// Returns the sequence length when the shape is sound enough to know it.
fn wavelet_pass(words: &[u64], issues: &mut Vec<LintIssue>) -> Option<usize> {
    let before = issues.len();
    if words.len() < BLOCK_WORDS {
        issues.push(issue("view-malformed", "wavelet run shorter than its meta"));
        return None;
    }
    let len = words[0] as usize;
    let n_nodes = words[1] as usize;
    let root = words[2];
    // Node vectors are RRR, backing code 1; the writer emits no other.
    let backing = words[4];
    if backing != 1 {
        issues.push(issue(
            "view-malformed",
            format!("wavelet backing code {backing} is not RRR (1)"),
        ));
        return None;
    }
    let table_end = n_nodes
        .checked_mul(4)
        .and_then(|t| BLOCK_WORDS.checked_add(t));
    if table_end.is_none_or(|end| end > words.len()) {
        issues.push(issue("view-malformed", "wavelet node table truncated"));
        return None;
    }
    let unpack = |w: u64| -> (u64, u64) { (w >> 62, w & ((1u64 << 62) - 1)) };
    let (root_tag, root_val) = unpack(root);
    match root_tag {
        1 if root_val as usize >= n_nodes => {
            issues.push(issue(
                "wavelet-root-out-of-range",
                format!("root node {root_val} with only {n_nodes} nodes"),
            ));
        }
        3 => issues.push(issue("wavelet-child-tag", "root has an invalid tag")),
        _ => {}
    }
    for idx in 0..n_nodes {
        let rec = &words[BLOCK_WORDS + idx * 4..BLOCK_WORDS + idx * 4 + 4];
        for (side, &packed) in ["left", "right"].iter().zip(&rec[..2]) {
            let (tag, val) = unpack(packed);
            match tag {
                3 => issues.push(issue(
                    "wavelet-child-tag",
                    format!("node {idx}: {side} child has an invalid tag"),
                )),
                1 if val as usize >= idx => issues.push(issue(
                    "wavelet-child-no-decrease",
                    format!(
                        "node {idx}: {side} child {val} does not strictly decrease — \
                         a descent through it could revisit or loop"
                    ),
                )),
                _ => {}
            }
        }
        let payload_off = rec[2] as usize;
        let Some(payload) = words.get(payload_off..) else {
            issues.push(issue(
                "view-malformed",
                format!("node {idx}: payload offset {payload_off} out of range"),
            ));
            continue;
        };
        match RrrVecRef::from_words(payload) {
            Ok((bits, _)) => {
                if let Err(e) = bits.audit() {
                    issues.push(issue(
                        "rank-directory-mismatch",
                        format!("wavelet node {idx} (rrr) directory: {}", e.0),
                    ));
                }
            }
            Err(e) => issues.push(issue(
                "view-malformed",
                format!("wavelet node {idx} (rrr): {}", e.0),
            )),
        }
    }
    (issues.len() == before).then_some(len)
}

// ---------------------------------------------------------------------
// Variable-stride DAG: stride bounds, block tiling, run ranks
// ---------------------------------------------------------------------

/// Legal stride band for a vsdag directory entry.
const VS_MAX_STRIDE: u64 = 16;

/// Deep pass over a [`EngineKind::VsDag`] image. Re-derives the block
/// tiling and the run ranks from the raw words — independently of the
/// vsdag view's load validation — so a corrupt image the
/// view refuses still yields the *named* class of damage:
///
/// * `vsdag-stride-out-of-range` — a directory entry's stride field is
///   outside `[1, 16]`; the builder can never emit one, so this is
///   always corruption (the corpus pins exactly this mutation);
/// * `vsdag-slot-coverage` — the per-node spans of `⌈2^stride / 32⌉`
///   blocks do not tile the block table contiguously and cover the
///   declared slots: a first-block word off the running sum, a block
///   section shorter or longer than the spans need (truncation), strides
///   that do not sum to the declared slot count, a node whose slot 0
///   starts no run, or a run starting past a short node's last slot;
/// * `vsdag-rank-mismatch` — a block's rank half is off the running
///   count of run starts. The checksum can be valid and every size
///   right; lookups through that block silently answer from a
///   neighbouring run (the `rank-directory-mismatch` class);
/// * `vsdag-run-out-of-range` — the bitmaps start more runs than the
///   image declares, or fewer, or the run section is not the declared
///   count at the declared width (which must be 16 or 32).
fn vsdag_pass(image: &FibImage, issues: &mut Vec<LintIssue>) {
    let (Ok(params), Ok(nodes), Ok(blocks), Ok(runs)) = (
        image.section(sections::PARAMS),
        image.section(sections::VS_NODES),
        image.section(sections::VS_BLOCKS),
        image.section(sections::VS_RUNS),
    ) else {
        return; // view_pass reports the missing section
    };
    let &[_, _, n_slots, n_blocks, n_runs, run_width, ..] = params else {
        issues.push(issue("image-malformed", "vsdag params section too short"));
        return;
    };
    if blocks.len() as u64 != n_blocks {
        issues.push(issue(
            "vsdag-slot-coverage",
            format!(
                "block section holds {} words, the image declares {n_blocks} blocks",
                blocks.len()
            ),
        ));
        return;
    }
    let run_words = match run_width {
        16 => n_runs.div_ceil(4),
        32 => n_runs.div_ceil(2),
        _ => {
            issues.push(issue(
                "vsdag-run-out-of-range",
                format!("run width {run_width} is neither 16 nor 32"),
            ));
            return;
        }
    };
    if runs.len() as u64 != run_words {
        issues.push(issue(
            "vsdag-run-out-of-range",
            format!(
                "run section holds {} words, the declared {n_runs} {run_width}-bit runs need {run_words}",
                runs.len()
            ),
        ));
    }
    let mut next_block = 0u64;
    let mut slots = 0u64;
    let mut started = 0u64;
    for (i, &node) in nodes.iter().enumerate() {
        let stride = node >> 32;
        let first = u64::from(node as u32);
        if stride == 0 || stride > VS_MAX_STRIDE {
            issues.push(issue(
                "vsdag-stride-out-of-range",
                format!("node {i}: stride field {stride} outside [1, {VS_MAX_STRIDE}]"),
            ));
            return; // span accounting below is meaningless now
        }
        if first != next_block {
            issues.push(issue(
                "vsdag-slot-coverage",
                format!(
                    "node {i}: first block {first} breaks the contiguous tiling (expected {next_block})"
                ),
            ));
            return;
        }
        let width = 1u64 << stride;
        let span = width.div_ceil(32);
        if next_block + span > n_blocks {
            issues.push(issue(
                "vsdag-slot-coverage",
                format!(
                    "node {i}: span ends at block {}, past the declared {n_blocks}",
                    next_block + span
                ),
            ));
            return;
        }
        let head = blocks[next_block as usize] as u32;
        if head & 1 == 0 || (width < 32 && head >> width != 0) {
            issues.push(issue(
                "vsdag-slot-coverage",
                format!("node {i}: run-start bitmap {head:#x} does not cover its {width} slots"),
            ));
            return;
        }
        for b in next_block..next_block + span {
            let block = blocks[b as usize];
            let (rank, expected) = ((block >> 32) as u32, (started as u32).wrapping_sub(1));
            if rank != expected {
                issues.push(issue(
                    "vsdag-rank-mismatch",
                    format!(
                        "block {b} (node {i}): rank {rank} but {started} runs start before it (expected {expected})"
                    ),
                ));
                return;
            }
            started += u64::from((block as u32).count_ones());
        }
        if started > n_runs {
            issues.push(issue(
                "vsdag-run-out-of-range",
                format!("node {i}: its runs end at {started}, past the declared {n_runs}"),
            ));
            return;
        }
        next_block += span;
        slots += width;
    }
    if next_block != n_blocks {
        issues.push(issue(
            "vsdag-slot-coverage",
            format!("node spans tile {next_block} blocks, the image declares {n_blocks}"),
        ));
    }
    if slots != n_slots {
        issues.push(issue(
            "vsdag-slot-coverage",
            format!("node strides cover {slots} slots, the image declares {n_slots}"),
        ));
    }
    if started != n_runs {
        issues.push(issue(
            "vsdag-run-out-of-range",
            format!("the bitmaps start {started} runs, the image declares {n_runs}"),
        ));
    }
}

// ---------------------------------------------------------------------
// VRF set: directory hygiene, shared-arena shape, dedicated sections
// ---------------------------------------------------------------------

/// Deep pass over a [`EngineKind::VrfSet`] image: re-derives the
/// directory and shared-arena invariants from the raw words,
/// independently of [`CompiledVrfSet::from_image`]'s own load
/// validation. (`view_pass` then loads the set, so every dedicated
/// engine's structure gets its usual load-path scrutiny too.)
fn vrf_pass(image: &FibImage, issues: &mut Vec<LintIssue>) {
    let Ok(dir) = image.section(sections::VRF_DIR) else {
        issues.push(issue(
            "vrf-dir-malformed",
            "vrfset image lacks a VRF_DIR section",
        ));
        return;
    };
    let Ok(arena) = image.section(sections::VRF_PDAG) else {
        issues.push(issue(
            "vrf-dir-malformed",
            "vrfset image lacks the shared VRF_PDAG arena",
        ));
        return;
    };
    let Some(&count) = dir.first() else {
        issues.push(issue("vrf-dir-malformed", "directory has no count word"));
        return;
    };
    let records = (count as usize).saturating_mul(crate::vrf::VRF_DIR_RECORD_WORDS);
    if dir.len() - 1 != records {
        issues.push(issue(
            "vrf-dir-malformed",
            format!(
                "directory holds {} record words; {count} tables need {records}",
                dir.len() - 1
            ),
        ));
        return;
    }
    if arena.len() % 2 != 0 {
        issues.push(issue(
            "vrf-arena-malformed",
            "shared arena has an odd word count",
        ));
        return;
    }
    let n_nodes = arena.len() / 2;
    let out_of_range = children_out_of_range(arena);
    if out_of_range > 0 {
        issues.push(issue(
            "vrf-arena-malformed",
            format!("{out_of_range} arena child reference(s) point past the {n_nodes} nodes"),
        ));
    }
    let mut prev_id: Option<u32> = None;
    // Shared tables whose root is in range: `(index, id, root, claimed
    // reachable nodes)`, for the arena walks below.
    let mut shared = Vec::new();
    // Σ routes, Σ standalone bytes, Σ reachable nodes: `None` once one
    // overflows, which only a hostile directory can make happen.
    let mut sums = Some((0u64, 0u64, 0u64));
    for (index, record) in dir[1..]
        .chunks_exact(crate::vrf::VRF_DIR_RECORD_WORDS)
        .enumerate()
    {
        let id = record[0] as u32;
        if prev_id.is_some_and(|p| p >= id) {
            issues.push(issue(
                "vrf-dir-malformed",
                format!("table {index}: id {id} does not strictly ascend"),
            ));
        }
        prev_id = Some(id);
        sums = sums.and_then(|(routes, solo, reachable)| {
            Some((
                routes.checked_add(record[2])?,
                solo.checked_add(record[4].checked_mul(16)?)?,
                reachable.checked_add(record[3])?,
            ))
        });
        let choice = u8::try_from(record[0] >> 32)
            .ok()
            .and_then(crate::vrf::VrfEngineChoice::from_u8);
        let Some(choice) = choice else {
            issues.push(issue(
                "vrf-dir-malformed",
                format!(
                    "table {index} (vrf {id}): unknown engine choice {:#x}",
                    record[0] >> 32
                ),
            ));
            continue;
        };
        match choice.engine_kind() {
            None => {
                let root = record[1] as u32;
                if root != PDAG_NONE && root as usize >= n_nodes {
                    issues.push(issue(
                        "vrf-root-out-of-range",
                        format!(
                            "table {index} (vrf {id}): root {root} with only {n_nodes} arena nodes"
                        ),
                    ));
                } else {
                    shared.push((index, id, root, record[3]));
                }
            }
            Some(kind) => {
                let base = crate::vrf::vrf_section_base(index);
                for slot in 0..kind.sections().len() as u32 {
                    if image.section(base + slot).is_err() {
                        issues.push(issue(
                            "vrf-dangling-section",
                            format!(
                                "table {index} (vrf {id}, {}): section {:#x} missing",
                                choice.name(),
                                base + slot
                            ),
                        ));
                    }
                }
            }
        }
    }
    if out_of_range == 0 {
        vrf_arena_pass(arena, &shared, issues);
    }
    match sums {
        None => issues.push(issue(
            "vrf-dir-malformed",
            "directory route or node counts overflow when summed",
        )),
        Some((route_sum, ..)) if route_sum != image.route_count() => issues.push(issue(
            "route-count-mismatch",
            format!(
                "header claims {} routes, directory tables sum to {route_sum}",
                image.route_count()
            ),
        )),
        Some(_) => {}
    }
}

/// The shared arena's structure, walked from every shared table's root
/// (`shared` as `vrf_pass` collects it, children in range): no node is
/// its own ancestor, every node is reached from some root — the compiler
/// packs exactly what the shared roots reach — and each table reaches
/// the node count its directory record claims.
fn vrf_arena_pass(arena: &[u64], shared: &[(usize, u32, u32, u64)], issues: &mut Vec<LintIssue>) {
    let n_nodes = arena.len() / 2;
    let mut reached = vec![false; n_nodes];
    let mut cycle = None;
    for &(index, id, root, claimed) in shared {
        let mut color = vec![WHITE; n_nodes];
        if root != PDAG_NONE {
            cycle = cycle.or(walk_arena(arena, root, &mut color));
        }
        let mut reaches = 0u64;
        for (seen, &c) in reached.iter_mut().zip(&color) {
            *seen |= c != WHITE;
            reaches += u64::from(c != WHITE);
        }
        if reaches != claimed {
            issues.push(issue(
                "vrf-dir-malformed",
                format!(
                    "table {index} (vrf {id}): claims {claimed} reachable nodes, reaches {reaches}"
                ),
            ));
        }
    }
    if let Some((node, c)) = cycle {
        issues.push(issue(
            "vrf-arena-cycle",
            format!("arena node {c} is its own ancestor (edge from node {node})"),
        ));
    }
    let unreached = reached.iter().filter(|&&seen| !seen).count();
    if unreached > 0 {
        issues.push(issue(
            "vrf-arena-unreachable",
            format!("{unreached} of {n_nodes} arena nodes unreachable from every shared root"),
        ));
    }
}

// ---------------------------------------------------------------------
// View assembly + size-claim drift
// ---------------------------------------------------------------------

fn view_pass(image: &FibImage, issues: &mut Vec<LintIssue>) {
    let Ok(kind) = image.engine() else {
        return; // already reported; a view cannot be built
    };
    // A vrfset view would only repeat what `vrf_pass` found.
    let vrf_set = kind == EngineKind::VrfSet;
    if !matches!(image.family(), 4 | 6) || (vrf_set && !issues.is_empty()) {
        return;
    }
    let set_size = |set: VrfSetStats| set.resident_bytes() as usize;
    let view_size = match (vrf_set, image.family()) {
        (true, 4) => CompiledVrfSet::<u32>::from_image(image).map(|v| set_size(v.stats)),
        (true, _) => CompiledVrfSet::<u128>::from_image(image).map(|v| set_size(v.stats)),
        (false, 4) => any_view::<u32>(image).map(|view| view.size_bytes()),
        (false, _) => any_view::<u128>(image).map(|view| view.size_bytes()),
    };
    let view_size = match view_size {
        Ok(size) => size,
        Err(e) => return issues.push(issue("view-malformed", e.to_string())),
    };
    // A hot slab rides along in the resident-size claim (it is served,
    // not decoded away); parse failures are hot_slab_pass's to report.
    let view_size = view_size
        + match image.hot_slab() {
            Ok(Some(slab)) => slab.size_bytes(),
            _ => 0,
        };
    // The header's resident-size claim must track the engine's actual
    // view accounting. Small images carry fixed serialization overhead
    // (select directories, node tables, block padding) that the resident
    // estimate legitimately omits, so the tolerance is 50 % plus an
    // absolute 1 KiB of slack — enough that only a corrupted or
    // dishonest claim fires, not format overheads.
    let claimed = image.claimed_size_bytes() as usize;
    let drift = claimed.abs_diff(view_size);
    if drift > view_size / 2 + 1024 {
        issues.push(issue(
            "size-claim-drift",
            format!("header claims {claimed} resident bytes, the view accounts {view_size}"),
        ));
    }
}

// ---------------------------------------------------------------------
// Hot slab: parse hygiene + entry/next-hop cross-validation
// ---------------------------------------------------------------------

/// Deep pass over an optional [`sections::HOT_SLAB`] payload.
///
/// Hygiene first: the section must satisfy every [`HotSlabRef`] parse
/// invariant (`hot-slab-malformed`) and its block depth must fit the
/// image family's address width. Then semantics: a slab answer is a
/// *claim* that one next hop covers an entire depth-`D` address block,
/// so each pinned entry is re-derived from the routes payload — the
/// block must still be pure (`hot-slab-impure-block`) and resolve to the
/// stored hop (`hot-slab-answer-mismatch`) — and, independently of the
/// routes, checked against the engine view's own lookup of the block
/// base (`hot-slab-answer-mismatch` again): a slab that disagrees with
/// the structure it fronts would short-circuit lookups to wrong hops.
fn hot_slab_pass<A: Address>(image: &FibImage, issues: &mut Vec<LintIssue>) {
    let Ok(words) = image.section(sections::HOT_SLAB) else {
        return; // the section is optional
    };
    let slab = match HotSlabRef::from_words(words) {
        Ok(slab) => slab,
        Err(e) => {
            issues.push(issue("hot-slab-malformed", e.0));
            return;
        }
    };
    if slab.depth() > A::WIDTH {
        issues.push(issue(
            "hot-slab-malformed",
            format!(
                "slab depth {} exceeds family width {}",
                slab.depth(),
                A::WIDTH
            ),
        ));
        return;
    }
    let routes = image.routes::<A>().ok();
    let view = any_view::<A>(image).ok();
    for (key, hop) in slab.entries() {
        let base: A = key_addr(key);
        if let Some(trie) = &routes {
            match trie.block_resolution(base, slab.depth()) {
                None => issues.push(issue(
                    "hot-slab-impure-block",
                    format!(
                        "slab block {key:#018x}/{} spans more than one answer in the routes payload",
                        slab.depth()
                    ),
                )),
                Some(want) if want != hop => issues.push(issue(
                    "hot-slab-answer-mismatch",
                    format!(
                        "slab block {key:#018x}/{} pins {hop:?}, routes resolve {want:?}",
                        slab.depth()
                    ),
                )),
                Some(_) => {}
            }
        }
        if let Some(view) = &view {
            let want = view.lookup(base);
            if want != hop {
                issues.push(issue(
                    "hot-slab-answer-mismatch",
                    format!(
                        "slab block {key:#018x}/{} pins {hop:?}, the engine view answers {want:?}",
                        slab.depth()
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::write_image;
    use crate::{BuildConfig, FibBuild, PrefixDag, SerializedDag};
    use fib_trie::{BinaryTrie, NextHop, Prefix};

    fn small_fib() -> BinaryTrie<u32> {
        let mut trie = BinaryTrie::new();
        for (i, (addr, len)) in [
            (0x0A00_0000u32, 8u8),
            (0x0A01_0000, 16),
            (0x0A01_0100, 24),
            (0xC0A8_0000, 16),
            (0x8000_0000, 1),
        ]
        .iter()
        .enumerate()
        {
            trie.insert(Prefix::new(*addr, *len), NextHop::new(i as u32 % 3));
        }
        trie
    }

    fn repair_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes[56..64].fill(0);
        let checksum = fib_succinct::fnv1a(&bytes);
        bytes[56..64].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn honest_images_lint_clean() {
        let trie = small_fib();
        let ser: SerializedDag<u32> = FibBuild::build(&trie, &BuildConfig::default());
        let bytes = write_image(&ser, Some(&trie), 1).unwrap();
        assert_eq!(lint_bytes(&bytes), Vec::new());
    }

    #[test]
    fn load_errors_become_typed_issues() {
        let issues = lint_bytes(&[0u8; 16]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].code, "image-bad-magic");
    }

    #[test]
    fn pdag_cycle_and_unreachable_are_detected() {
        let trie = small_fib();
        let dag: PrefixDag<u32> = FibBuild::build(&trie, &BuildConfig::default());
        let good = write_image(&dag, None, 0).unwrap();
        let image = FibImage::from_bytes(&good).unwrap();
        let entry = image
            .section_table()
            .iter()
            .find(|e| e.id == sections::PDAG_NODES)
            .copied()
            .unwrap();
        assert!(entry.len >= 4, "need at least two packed nodes");

        // Point the last node's left child back at the root: a cycle.
        let mut bad = good.clone();
        let last = (entry.offset + entry.len - 2) * 8;
        bad[last..last + 4].copy_from_slice(&0u32.to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(issues.iter().any(|i| i.code == "pdag-cycle"), "{issues:?}");

        // Cut the root's children: the rest of the pack goes unreachable.
        let mut bad = good;
        let root_word = entry.offset * 8;
        bad[root_word..root_word + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(
            issues.iter().any(|i| i.code == "pdag-unreachable"),
            "{issues:?}"
        );
    }

    #[test]
    fn a_wavelet_backing_other_than_rrr_is_refused() {
        let trie = small_fib();
        let xbw = crate::XbwFib::build(&trie, crate::XbwStorage::Entropy);
        let good = write_image(&xbw, None, 0).unwrap();
        assert_eq!(lint_bytes(&good), Vec::new());
        let image = FibImage::from_bytes(&good).unwrap();
        let sa = image
            .section_table()
            .iter()
            .find(|e| e.id == sections::XBW_SA)
            .copied()
            .unwrap();
        // Meta word 4 is the node backing; RRR's 1 is the only one written.
        let backing = (sa.offset + 4) * 8;
        assert_eq!(good[backing], 1);
        let mut bad = good;
        bad[backing] = 0;
        let bad = repair_checksum(bad);
        let issues = lint_bytes(&bad);
        assert!(
            issues
                .iter()
                .any(|i| i.code == "view-malformed" && i.detail.contains("backing")),
            "{issues:?}"
        );
        let image = FibImage::from_bytes(&bad).unwrap();
        assert!(any_view::<u32>(&image).is_err());
    }

    #[test]
    fn issue_renders_code_colon_detail() {
        let i = issue("some-code", "what happened");
        assert_eq!(i.to_string(), "some-code: what happened");
    }

    #[test]
    fn vrf_images_lint_clean_and_catch_bad_roots() {
        use crate::vrf::{compile_vrf_set, write_vrf_image, VrfPolicy, VrfTable};
        let t1 = small_fib();
        let mut t2 = small_fib();
        t2.insert(Prefix::new(0x0B00_0000, 8), NextHop::new(1));
        let tables = [VrfTable { id: 1, trie: &t1 }, VrfTable { id: 2, trie: &t2 }];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        let good = write_vrf_image(&set, 5).unwrap();
        assert_eq!(lint_bytes(&good), Vec::new());

        // Point table 1's root past the arena.
        let image = FibImage::from_bytes(&good).unwrap();
        let entry = image
            .section_table()
            .iter()
            .find(|e| e.id == sections::VRF_DIR)
            .copied()
            .unwrap();
        let root_word = (entry.offset + 1 + crate::vrf::VRF_DIR_RECORD_WORDS + 1) * 8;
        let mut bad = good.clone();
        bad[root_word..root_word + 8].copy_from_slice(&0xFFFF_FFF0u64.to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(
            issues.iter().any(|i| i.code == "vrf-root-out-of-range"),
            "{issues:?}"
        );

        // Shrink the directory's count word: length no longer matches.
        let mut bad = good;
        let count_word = entry.offset * 8;
        bad[count_word..count_word + 8].copy_from_slice(&7u64.to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(
            issues.iter().any(|i| i.code == "vrf-dir-malformed"),
            "{issues:?}"
        );
    }

    /// A one-table fleet's clean image and its shared arena's section
    /// entry, for the arena mutations below.
    fn one_table_fleet() -> (Vec<u8>, SectionEntry) {
        use crate::vrf::{compile_vrf_set, write_vrf_image, VrfPolicy, VrfTable};
        let trie = small_fib();
        let tables = [VrfTable { id: 1, trie: &trie }];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        let good = write_vrf_image(&set, 0).unwrap();
        assert_eq!(lint_bytes(&good), Vec::new());
        let image = FibImage::from_bytes(&good).unwrap();
        let entry = image
            .section_table()
            .iter()
            .find(|e| e.id == sections::VRF_PDAG)
            .copied()
            .unwrap();
        assert!(entry.len >= 4, "need at least two arena nodes");
        (good, entry)
    }

    #[test]
    fn vrf_arena_cycle_is_detected() {
        // Point the last arena node's left child back at the root, node 0.
        let (mut bad, entry) = one_table_fleet();
        let last = (entry.offset + entry.len - 2) * 8;
        bad[last..last + 4].copy_from_slice(&0u32.to_le_bytes());
        let bad = repair_checksum(bad);
        let issues = lint_bytes(&bad);
        assert!(
            issues.iter().any(|i| i.code == "vrf-arena-cycle"),
            "{issues:?}"
        );
        // The loader checks child ranges only, so the cyclic arena loads.
        // Served, it may answer wrongly, but every walk ends: each is
        // bounded by the address width. Writing it back out ends too.
        let image = FibImage::from_bytes(&bad).unwrap();
        let set = CompiledVrfSet::<u32>::from_image(&image).expect("child ranges are in bounds");
        let keys: Vec<(u32, u32)> = (0..512u32)
            .map(|i| (1, i.wrapping_mul(0x9E37_79B9)))
            .chain([(1, 0), (1, u32::MAX), (1, 0x0A01_0101)])
            .collect();
        let scalar: Vec<_> = keys.iter().map(|&(vrf, a)| set.lookup(vrf, a)).collect();
        let mut batch = vec![None; keys.len()];
        let mut scratch = crate::vrf::VrfBatchScratch::new();
        set.lookup_batch(&keys, &mut batch, &mut scratch);
        assert_eq!(batch, scalar, "the two walks read the same records");
        // The sample does cross the bent edge: 10.1.1.1 leaves the last
        // node (its /24) for the root and walks on past the honest depth.
        let honest = one_table_fleet().0;
        let honest = CompiledVrfSet::<u32>::from_image(&FibImage::from_bytes(&honest).unwrap());
        let honest = honest.unwrap();
        let depth = |set: &CompiledVrfSet<u32>, addr| {
            let table = set.table(1).unwrap();
            set.shared_view(table).lookup_with_depth(addr).1
        };
        assert!(depth(&set, 0x0A01_0101) > depth(&honest, 0x0A01_0101));
        crate::vrf::write_vrf_image(&set, 0).expect("the arena writes back out");
    }

    #[test]
    fn vrf_arena_orphans_and_a_wrong_reachable_count_are_detected() {
        // Cut the root's children: the rest of the arena is reached by no
        // table, and the table reaches one node, not what it claims.
        let (mut bad, entry) = one_table_fleet();
        let root_word = entry.offset * 8;
        bad[root_word..root_word + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        let has = |code| issues.iter().any(|i| i.code == code);
        assert!(has("vrf-arena-unreachable"), "{issues:?}");
        assert!(has("vrf-dir-malformed"), "{issues:?}");
    }

    #[test]
    fn vrf_dir_counts_that_overflow_are_malformed_not_a_panic() {
        use crate::vrf::{compile_vrf_set, write_vrf_image, VrfPolicy, VrfTable};
        let t1 = small_fib();
        let tables = [VrfTable { id: 1, trie: &t1 }, VrfTable { id: 2, trie: &t1 }];
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
        let good = write_vrf_image(&set, 0).unwrap();
        let dir = FibImage::from_bytes(&good).unwrap().section_table()[1];
        assert_eq!(dir.id, sections::VRF_DIR);
        // Record word 4 is the standalone node count, charged at 16 bytes a
        // node; a second record's reachable count makes the sum overflow.
        let record_words = crate::vrf::VRF_DIR_RECORD_WORDS;
        let word = |record: usize, w: usize| (dir.offset + 1 + record * record_words + w) * 8;
        for (at, value) in [(word(0, 4), 1u64 << 60), (word(1, 3), u64::MAX)] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let bad = repair_checksum(bad);
            let issues = lint_bytes(&bad);
            assert!(
                issues.iter().any(|i| i.code == "vrf-dir-malformed"),
                "{issues:?}"
            );
            let image = FibImage::from_bytes(&bad).unwrap();
            assert_eq!(
                CompiledVrfSet::<u32>::from_image(&image).err(),
                Some(ImageError::Malformed("vrf dir counts overflow"))
            );
        }
        // A table count whose record words overflow is a length mismatch.
        let mut bad = good;
        let count = dir.offset * 8;
        bad[count..count + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let bad = repair_checksum(bad);
        let issues = lint_bytes(&bad);
        assert!(
            issues.iter().any(|i| i.code == "vrf-dir-malformed"),
            "{issues:?}"
        );
        let image = FibImage::from_bytes(&bad).unwrap();
        assert_eq!(
            CompiledVrfSet::<u32>::from_image(&image).err(),
            Some(ImageError::Malformed("vrf dir length"))
        );
    }

    #[test]
    fn vsdag_images_lint_clean_and_name_their_damage() {
        use crate::vsdag::{VarStrideDag, VsParams};
        let trie = small_fib();
        let dag = VarStrideDag::from_trie(&trie, VsParams::default());
        let good = write_image(&dag, Some(&trie), 1).unwrap();
        assert_eq!(lint_bytes(&good), Vec::new());

        let image = FibImage::from_bytes(&good).unwrap();
        let entry = image
            .section_table()
            .iter()
            .find(|e| e.id == sections::VS_NODES)
            .copied()
            .unwrap();

        // Blow the first node's stride field out of the legal band.
        let mut bad = good.clone();
        let stride_bytes = entry.offset * 8 + 4;
        bad[stride_bytes..stride_bytes + 4].copy_from_slice(&0x3Fu32.to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(
            issues.iter().any(|i| i.code == "vsdag-stride-out-of-range"),
            "{issues:?}"
        );

        // Shrink the block section's declared length: truncation.
        let blocks_pos = image
            .section_table()
            .iter()
            .position(|e| e.id == sections::VS_BLOCKS)
            .unwrap();
        let len_word = (8 + blocks_pos * 2 + 1) * 8;
        let mut bad = good.clone();
        let packed = u64::from_le_bytes(bad[len_word..len_word + 8].try_into().unwrap());
        let shrunk = (packed & 0xFFFF_FFFF) | ((packed >> 32).saturating_sub(1) << 32);
        bad[len_word..len_word + 8].copy_from_slice(&shrunk.to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(
            issues.iter().any(|i| i.code == "vsdag-slot-coverage"),
            "{issues:?}"
        );

        // Bump the last block's rank: sizes and checksum stay right, the
        // slots of that block would answer from the next run over.
        let blocks = image.section_table()[blocks_pos];
        let rank_bytes = (blocks.offset + blocks.len - 1) * 8 + 4;
        let mut bad = good.clone();
        let rank = u32::from_le_bytes(bad[rank_bytes..rank_bytes + 4].try_into().unwrap());
        bad[rank_bytes..rank_bytes + 4].copy_from_slice(&rank.wrapping_add(1).to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(
            issues.iter().any(|i| i.code == "vsdag-rank-mismatch"),
            "{issues:?}"
        );

        // Declare one run fewer than the bitmaps start.
        let params = image
            .section_table()
            .iter()
            .find(|e| e.id == sections::PARAMS)
            .copied()
            .unwrap();
        let runs_word = (params.offset + 4) * 8;
        let mut bad = good;
        let n_runs = u64::from_le_bytes(bad[runs_word..runs_word + 8].try_into().unwrap());
        bad[runs_word..runs_word + 8].copy_from_slice(&(n_runs - 1).to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(
            issues.iter().any(|i| i.code == "vsdag-run-out-of-range"),
            "{issues:?}"
        );
    }

    #[test]
    fn vrf_dangling_dedicated_section_is_detected() {
        use crate::vrf::{compile_vrf_set, vrf_section_base, write_vrf_image, VrfPolicy, VrfTable};
        use std::collections::BTreeMap;
        let t1 = small_fib();
        let t2 = small_fib();
        let tables = [VrfTable { id: 1, trie: &t1 }, VrfTable { id: 2, trie: &t2 }];
        // An extreme weight forces table 0 onto a dedicated engine.
        let set = compile_vrf_set(
            &tables,
            &BuildConfig::default(),
            &VrfPolicy::Auto {
                weights: BTreeMap::from([(1, 0.99), (2, 0.01)]),
            },
        );
        assert!(
            set.tables[0].choice() != crate::vrf::VrfEngineChoice::Shared,
            "weight 0.99 must place table 0 off the shared arena"
        );
        let good = write_vrf_image(&set, 0).unwrap();
        assert_eq!(lint_bytes(&good), Vec::new());

        // Rename the dedicated params section in the section table: the
        // directory now references a section that is not there.
        let image = FibImage::from_bytes(&good).unwrap();
        let table_pos = image
            .section_table()
            .iter()
            .position(|e| e.id == vrf_section_base(0))
            .unwrap();
        let id_word = (8 + table_pos * 2) * 8;
        let mut bad = good;
        bad[id_word..id_word + 8].copy_from_slice(&0x0FFFu64.to_le_bytes());
        let issues = lint_bytes(&repair_checksum(bad));
        assert!(
            issues.iter().any(|i| i.code == "vrf-dangling-section"),
            "{issues:?}"
        );
    }
}
