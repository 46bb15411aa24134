//! The lint corpus: committed hand-corrupted FIB images, each paired
//! with the typed diagnostic `fibc lint` must produce for it.
//!
//! `tests/corpus/MANIFEST` lists `<file> <expected-code>` pairs
//! (`clean` for images that must produce no issues). The corpus is
//! *generated* — `FIB_CORPUS_REGEN=1 cargo test -q --test corpus`
//! rebuilds every file deterministically — and *committed*, so the lint
//! contract is pinned against whatever bytes are in the tree, not
//! whatever the current builders emit.
//!
//! The star exhibit is `rank-directory.img`: its checksum is valid, the
//! loader accepts it, every size check passes — but a rank-line count
//! word is off by one, so lookups through it would silently misroute.
//! Only the deep cross-validation pass catches it.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use fibcomp::core::image::sections;
use fibcomp::core::lint::lint_bytes;
use fibcomp::core::{
    compile_vrf_set, hot_key, vrf_section_base, write_image, write_image_hot, write_vrf_image,
    BuildConfig, FibBuild, FibImage, HotConfig, HotSlab, ImageCodec, ImageError, PrefixDag,
    SerializedDag, VrfEngineChoice, VrfPolicy, VrfTable, XbwFib, XbwStorage,
};
use fibcomp::trie::BinaryTrie;
use fibcomp::workload::rng::{Random, Xoshiro256};
use fibcomp::workload::FibSpec;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn repair_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes[56..64].fill(0);
    let checksum = fibcomp::succinct::fnv1a(&bytes);
    bytes[56..64].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Byte offset of a section's payload, in the image the bytes encode.
fn section_byte_offset(bytes: &[u8], id: u32) -> usize {
    let image = FibImage::from_bytes(bytes).expect("base image loads");
    image
        .section_table()
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("section {id:#x} present"))
        .offset
        * 8
}

fn read_word(bytes: &[u8], byte_off: usize) -> u64 {
    u64::from_le_bytes(bytes[byte_off..byte_off + 8].try_into().expect("8 bytes"))
}

fn write_word(bytes: &mut [u8], byte_off: usize, value: u64) {
    bytes[byte_off..byte_off + 8].copy_from_slice(&value.to_le_bytes());
}

/// Builds the whole corpus deterministically: `(file, bytes, expected)`
/// where `expected` is a lint code or `"clean"`.
fn build_corpus() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let trie: BinaryTrie<u32> =
        FibSpec::dfz_like(600).generate(&mut Xoshiro256::seed_from_u64(0x0C0F_FEE0));
    let config = BuildConfig::default();
    let ser: SerializedDag<u32> = FibBuild::build(&trie, &config);
    let ser_img = write_image(&ser, Some(&trie), 1).unwrap();
    let xbw_s: XbwFib<u32> = XbwFib::build(&trie, XbwStorage::Succinct);
    let xbw_s_img = write_image(&xbw_s, None, 1).unwrap();
    let xbw_e: XbwFib<u32> = XbwFib::build(&trie, XbwStorage::Entropy);
    let xbw_e_img = write_image(&xbw_e, None, 1).unwrap();
    let dag: PrefixDag<u32> = FibBuild::build(&trie, &config);
    let pdag_img = write_image(&dag, None, 1).unwrap();

    let mut corpus = vec![
        ("clean-serialized.img", ser_img.clone(), "clean"),
        ("clean-xbw-succinct.img", xbw_s_img.clone(), "clean"),
        ("clean-xbw-entropy.img", xbw_e_img.clone(), "clean"),
        ("clean-pdag.img", pdag_img.clone(), "clean"),
    ];

    // Load-path classes: each stops at its own typed error.
    corpus.push(("truncated.img", ser_img[..128].to_vec(), "image-truncated"));
    let mut bad = ser_img.clone();
    bad[0] ^= 0xFF;
    corpus.push(("bad-magic.img", bad, "image-bad-magic"));
    let mut bad = ser_img.clone();
    bad[8] = 0xEE; // version byte inside header word 1
    corpus.push(("bad-version.img", repair_checksum(bad), "image-bad-version"));
    let mut bad = ser_img.clone();
    bad[200] ^= 0x10;
    corpus.push(("checksum-flip.img", bad, "image-checksum-mismatch"));
    let mut bad = ser_img.clone();
    bad[11] = 0x7F; // engine byte inside header word 1
    corpus.push((
        "unknown-engine.img",
        repair_checksum(bad),
        "image-unknown-engine",
    ));

    // Section-table hygiene: slide the second section onto the first.
    let mut bad = ser_img.clone();
    let loc0 = read_word(&bad, (8 + 1) * 8);
    let loc1 = read_word(&bad, (8 + 3) * 8);
    write_word(
        &mut bad,
        (8 + 3) * 8,
        (loc0 & 0xFFFF_FFFF) | (loc1 & !0xFFFF_FFFF),
    );
    corpus.push((
        "section-overlap.img",
        repair_checksum(bad),
        "section-overlap",
    ));

    // The showcase: bump one rank-line absolute count inside S_I. The
    // checksum is repaired, the loader's size checks all pass, lookups
    // would misroute — only the deep audit sees it.
    let mut bad = xbw_s_img.clone();
    let si = section_byte_offset(&xbw_s_img, sections::XBW_SI);
    let line1_word0 = si + 8 * 8 + 8 * 8; // skip rsvec meta block, then line 0
    let v = read_word(&bad, line1_word0);
    write_word(&mut bad, line1_word0, v + 1);
    corpus.push((
        "rank-directory.img",
        repair_checksum(bad),
        "rank-directory-mismatch",
    ));

    // Wavelet child that fails to strictly decrease (self-loop).
    let mut bad = xbw_e_img.clone();
    let sa = section_byte_offset(&xbw_e_img, sections::XBW_SA);
    let n_nodes = read_word(&bad, sa + 8) as usize;
    assert!(n_nodes >= 2, "entropy image has a real wavelet tree");
    let idx = n_nodes - 1;
    let rec = sa + 8 * 8 + idx * 4 * 8;
    write_word(&mut bad, rec, (1u64 << 62) | idx as u64);
    corpus.push((
        "wavelet-child.img",
        repair_checksum(bad),
        "wavelet-child-no-decrease",
    ));

    // pDAG with a back edge: last packed node's left child -> root.
    let mut bad = pdag_img.clone();
    let nodes = section_byte_offset(&pdag_img, sections::PDAG_NODES);
    let image = FibImage::from_bytes(&pdag_img).unwrap();
    let entry = image
        .section_table()
        .iter()
        .find(|e| e.id == sections::PDAG_NODES)
        .copied()
        .unwrap();
    let last_children = nodes + (entry.len - 2) * 8;
    let v = read_word(&bad, last_children);
    write_word(&mut bad, last_children, v & !0xFFFF_FFFF); // left = 0 (root)
    corpus.push(("pdag-cycle.img", repair_checksum(bad), "pdag-cycle"));

    // pDAG whose root has no children: the rest of the pack is orphaned.
    let mut bad = pdag_img.clone();
    write_word(&mut bad, nodes, u64::MAX);
    corpus.push((
        "pdag-unreachable.img",
        repair_checksum(bad),
        "pdag-unreachable",
    ));

    // A route with an impossible prefix length.
    let mut bad = ser_img.clone();
    let routes = section_byte_offset(&ser_img, sections::ROUTES);
    let v = read_word(&bad, routes + 2 * 8);
    write_word(&mut bad, routes + 2 * 8, (v & !0xFF) | 200);
    corpus.push((
        "routes-malformed.img",
        repair_checksum(bad),
        "routes-malformed",
    ));

    // A resident-size claim wildly off the actual payload.
    let mut bad = ser_img.clone();
    let claimed = read_word(&bad, 5 * 8);
    write_word(&mut bad, 5 * 8, claimed * 4 + 1024);
    corpus.push(("size-drift.img", repair_checksum(bad), "size-claim-drift"));

    // Hot-slab classes: a serialized image with a pinned hot slab, and
    // the same image with one pinned answer flipped — the slab then
    // disagrees with both the routes payload and the engine view, which
    // only the semantic cross-validation pass can see (the slab still
    // parses and the checksum is repaired).
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0707);
    let config4 = HotConfig::for_width(32);
    let mut counts = std::collections::BTreeMap::new();
    for _ in 0..2048 {
        let addr = u32::random(&mut rng);
        *counts.entry(hot_key(addr, config4.depth)).or_insert(0u64) += 1;
    }
    let heat: Vec<(u64, u64)> = counts.into_iter().collect();
    let (slab, stats) = HotSlab::compile(&trie, &heat, &config4);
    assert!(stats.promoted > 0, "corpus slab pinned at least one block");
    let hot_img = write_image_hot(&ser, Some(&trie), 1, &slab).unwrap();
    corpus.push(("clean-hot-serialized.img", hot_img.clone(), "clean"));

    let mut bad = hot_img;
    let slab_off = section_byte_offset(&bad, sections::HOT_SLAB);
    let cap = read_word(&bad, slab_off + 8) as usize;
    let pinned = (0..cap)
        .map(|i| slab_off + (8 + 2 * i) * 8)
        .find(|&off| read_word(&bad, off) & 1 == 1 && read_word(&bad, off + 8) != u64::MAX)
        .expect("slab has a pinned real next hop");
    let hop = read_word(&bad, pinned + 8);
    write_word(&mut bad, pinned + 8, hop + 1);
    corpus.push((
        "hot-slab-mismatch.img",
        repair_checksum(bad),
        "hot-slab-answer-mismatch",
    ));

    // VRF-set classes: a three-tenant fleet sharing one arena. The clean
    // image pins the VRF_DIR contract; the corrupt pair exercise the two
    // failure modes the directory pass exists for — a root index pointing
    // past the shared arena, and a dedicated table whose sections were
    // dropped from the section table (id zapped, geometry intact, so only
    // the directory walk notices).
    let mut tenant_b = trie.clone();
    let mut tenant_c = trie.clone();
    for (i, (p, _)) in trie.iter().enumerate().take(40) {
        if i % 2 == 0 {
            tenant_b.insert(p, fibcomp::trie::NextHop::new(77));
        } else {
            tenant_c.remove(p);
        }
    }
    let vrf_tables = [
        VrfTable { id: 1, trie: &trie },
        VrfTable {
            id: 5,
            trie: &tenant_b,
        },
        VrfTable {
            id: 9,
            trie: &tenant_c,
        },
    ];
    let vrf_set = compile_vrf_set(&vrf_tables, &config, &VrfPolicy::Shared);
    let vrf_img = write_vrf_image(&vrf_set, 1).unwrap();
    corpus.push(("clean-vrfset.img", vrf_img.clone(), "clean"));

    // Directory record 0's root word → one past the arena.
    let mut bad = vrf_img.clone();
    let dir_off = section_byte_offset(&vrf_img, sections::VRF_DIR);
    let n_nodes = {
        let image = FibImage::from_bytes(&vrf_img).unwrap();
        image.section(sections::VRF_PDAG).unwrap().len() as u64 / 2
    };
    write_word(&mut bad, dir_off + 2 * 8, n_nodes + 17);
    corpus.push((
        "vrf-root-range.img",
        repair_checksum(bad),
        "vrf-root-out-of-range",
    ));

    // A fleet with table 0 pinned on a dedicated serialized engine;
    // zapping its section-table ids leaves the directory claiming
    // sections the image no longer exposes. Pinned (not Auto) so the
    // corpus bytes survive cost-model retunes.
    let hot_set = compile_vrf_set(
        &vrf_tables,
        &config,
        &VrfPolicy::Pinned {
            choices: BTreeMap::from([(1, VrfEngineChoice::Serialized)]),
        },
    );
    assert_eq!(
        hot_set.tables[0].choice(),
        VrfEngineChoice::Serialized,
        "corpus fleet pins a dedicated table"
    );
    let hot_vrf_img = write_vrf_image(&hot_set, 1).unwrap();
    let mut bad = hot_vrf_img.clone();
    let section_count = FibImage::from_bytes(&hot_vrf_img)
        .unwrap()
        .section_table()
        .len();
    let doomed = u64::from(vrf_section_base(0));
    for s in 0..section_count {
        if read_word(&bad, (8 + 2 * s) * 8) == doomed {
            write_word(&mut bad, (8 + 2 * s) * 8, 0x0EEE);
        }
    }
    corpus.push((
        "vrf-dropped-section.img",
        repair_checksum(bad),
        "vrf-dangling-section",
    ));

    // Variable-stride DAG classes: the clean image pins the VS_NODES /
    // VS_BLOCKS / VS_RUNS codec; the corrupt ones hit the deep-pass
    // codes. A stride field of 31 can never be emitted by the DP (band is
    // [1, 16]); shrinking the declared slot count leaves the node spans
    // covering more than the image admits to, exactly like a truncated
    // download; and a block rank one too high is the vsdag's
    // `rank-directory.img` — checksum repaired, every size right, and the
    // last 32 slots of the table would answer from the run next door.
    let vs: fibcomp::core::VarStrideDag<u32> = FibBuild::build(&trie, &config);
    let vs_img = write_image(&vs, Some(&trie), 1).unwrap();
    corpus.push(("clean-vsdag.img", vs_img.clone(), "clean"));

    let mut bad = vs_img.clone();
    let nodes_off = section_byte_offset(&vs_img, sections::VS_NODES);
    let node0 = read_word(&bad, nodes_off);
    write_word(&mut bad, nodes_off, (31u64 << 32) | (node0 & 0xFFFF_FFFF));
    corpus.push((
        "vsdag-stride-range.img",
        repair_checksum(bad),
        "vsdag-stride-out-of-range",
    ));

    let mut bad = vs_img.clone();
    let params_off = section_byte_offset(&vs_img, sections::PARAMS);
    let n_slots = read_word(&bad, params_off + 2 * 8);
    assert!(n_slots > 16, "corpus vsdag has a real slot table");
    write_word(&mut bad, params_off + 2 * 8, n_slots - 16);
    corpus.push((
        "vsdag-slot-truncated.img",
        repair_checksum(bad),
        "vsdag-slot-coverage",
    ));

    let mut bad = vs_img.clone();
    let last_block = section_byte_offset(&vs_img, sections::VS_BLOCKS) + (vs.block_count() - 1) * 8;
    let block = read_word(&bad, last_block);
    write_word(&mut bad, last_block, block + (1 << 32));
    corpus.push((
        "vsdag-rank-drift.img",
        repair_checksum(bad),
        "vsdag-rank-mismatch",
    ));

    // The layout before runs: a directory over a flat table of 32-bit
    // slots in section 0x42, three PARAMS words. No current builder can
    // emit it, so the committed bytes are the source — regeneration
    // writes back what it read. What is pinned is that the loader refuses
    // it by name (the blocks are missing) instead of walking slot words
    // as if they were blocks.
    let legacy = fs::read(corpus_dir().join("vsdag-legacy-layout.img"))
        .expect("tests/corpus/vsdag-legacy-layout.img is committed");
    corpus.push(("vsdag-legacy-layout.img", legacy, "view-malformed"));

    // `S_α` symbols past the label map, which `XbwFibRef::leaf` would
    // index out of bounds: a δ = 3 succinct image (2-bit symbols, so 3
    // fits the width) whose first packed symbol is 3, and an entropy image
    // whose first wavelet leaf names symbol δ. The view refuses both.
    let mut three: BinaryTrie<u32> = BinaryTrie::new();
    for (prefix, hop) in [("0.0.0.0/0", 1), ("10.0.0.0/8", 2), ("12.0.0.0/8", 3)] {
        three.insert(prefix.parse().unwrap(), fibcomp::trie::NextHop::new(hop));
    }
    let xbw3 = write_image(&XbwFib::build(&three, XbwStorage::Succinct), None, 1).unwrap();
    let labels = FibImage::from_bytes(&xbw3)
        .unwrap()
        .section(sections::XBW_LABELS)
        .unwrap()
        .len();
    assert_eq!(labels, 3, "three next hops, no ⊥");
    let mut bad = xbw3;
    let sa = section_byte_offset(&bad, sections::XBW_SA);
    assert_eq!(read_word(&bad, sa), 2, "2-bit symbols");
    let v = read_word(&bad, sa + 8 * 8); // past the meta block
    write_word(&mut bad, sa + 8 * 8, v | 3);
    corpus.push((
        "xbw-symbol-range.img",
        repair_checksum(bad),
        "view-malformed",
    ));

    let delta = FibImage::from_bytes(&xbw_e_img)
        .unwrap()
        .section(sections::XBW_LABELS)
        .unwrap()
        .len();
    let mut bad = xbw_e_img.clone();
    let sa = section_byte_offset(&xbw_e_img, sections::XBW_SA);
    let n_nodes = read_word(&bad, sa + 8) as usize;
    let leaf = (0..2 * n_nodes)
        .map(|child| sa + 8 * 8 + (child / 2 * 4 + child % 2) * 8)
        .find(|&at| read_word(&bad, at) >> 62 == 2)
        .expect("a wavelet node has a leaf child");
    write_word(&mut bad, leaf, (2u64 << 62) | delta as u64);
    corpus.push((
        "xbw-wavelet-leaf.img",
        repair_checksum(bad),
        "view-malformed",
    ));

    // An entropy image whose RRR `S_I` superblock 0 claims an offset
    // position of 2^32 − 1 bits: every size check passes, and a lookup
    // that reads the entry indexes far past the offset stream. The view's
    // directory audit refuses it.
    let mut bad = xbw_e_img.clone();
    let si = section_byte_offset(&xbw_e_img, sections::XBW_SI);
    let (len, off_bits) = (
        read_word(&bad, si) as usize,
        read_word(&bad, si + 16) as usize,
    );
    let sup0 = si + 8 * (8 + (len.div_ceil(63) * 6).div_ceil(64) + off_bits.div_ceil(64));
    let v = read_word(&bad, sup0);
    assert_eq!(v, 0, "superblock 0: no ones before it, offset position 0");
    write_word(&mut bad, sup0, u64::from(u32::MAX) << 32);
    corpus.push((
        "xbw-rrr-directory.img",
        repair_checksum(bad),
        "view-malformed",
    ));

    corpus
}

fn assert_lints_to(name: &str, bytes: &[u8], expected: &str) {
    let issues = lint_bytes(bytes);
    if expected == "clean" {
        assert!(issues.is_empty(), "{name}: expected clean, got {issues:?}");
    } else {
        assert!(
            issues.iter().any(|i| i.code == expected),
            "{name}: expected a `{expected}` issue, got {issues:?}"
        );
    }
}

/// The generator's own expectations hold — independent of what is on
/// disk, every constructed corruption produces its intended diagnostic.
#[test]
fn generated_corpus_lints_as_expected() {
    for (name, bytes, expected) in build_corpus() {
        assert_lints_to(name, &bytes, expected);
    }
}

/// Regenerates `tests/corpus/` when `FIB_CORPUS_REGEN=1`; otherwise
/// verifies every committed file against the MANIFEST. The committed
/// bytes are the contract: lint behavior is pinned against them even if
/// the builders' output drifts.
#[test]
fn committed_corpus_matches_manifest() {
    let dir = corpus_dir();
    if std::env::var("FIB_CORPUS_REGEN").as_deref() == Ok("1") {
        fs::create_dir_all(&dir).unwrap();
        let mut manifest = String::new();
        for (name, bytes, expected) in build_corpus() {
            // Only what changed is rewritten: the other tests of this file
            // read the directory while this one runs.
            if fs::read(dir.join(name)).ok().as_ref() != Some(&bytes) {
                fs::write(dir.join(name), &bytes).unwrap();
            }
            manifest.push_str(&format!("{name} {expected}\n"));
        }
        fs::write(dir.join("MANIFEST"), manifest).unwrap();
        return;
    }
    let manifest = fs::read_to_string(dir.join("MANIFEST"))
        .expect("tests/corpus/MANIFEST is committed (regen with FIB_CORPUS_REGEN=1)");
    let mut entries = 0;
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let (name, expected) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("malformed MANIFEST line: {line}"));
        let bytes = fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("corpus file {name} unreadable: {e}"));
        assert_lints_to(name, &bytes, expected);
        entries += 1;
    }
    assert!(entries >= 10, "corpus has shrunk to {entries} entries");
}

/// The `fibc lint` binary agrees with the library: exit 0 + "clean" on
/// honest images, non-zero + the typed code on corrupt ones.
#[test]
fn fibc_lint_binary_agrees_with_library() {
    let dir = corpus_dir();
    if !dir.join("MANIFEST").exists() {
        panic!("tests/corpus/MANIFEST missing (regen with FIB_CORPUS_REGEN=1)");
    }
    let fibc = env!("CARGO_BIN_EXE_fibc");

    let clean = Command::new(fibc)
        .args(["lint"])
        .arg(dir.join("clean-serialized.img"))
        .output()
        .expect("fibc runs");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(clean.status.success(), "clean image failed lint: {stdout}");
    assert!(
        stdout.contains("lint: clean"),
        "unexpected output: {stdout}"
    );

    let dirty = Command::new(fibc)
        .args(["lint"])
        .arg(dir.join("rank-directory.img"))
        .output()
        .expect("fibc runs");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(
        !dirty.status.success(),
        "corrupt image passed lint: {stdout}"
    );
    assert!(
        stdout.contains("rank-directory-mismatch"),
        "expected typed code in output, got: {stdout}"
    );
}

/// The pre-run-collapse vsdag layout stops at a typed missing-section
/// error for the block table, on every view — it is refused, not
/// misread, and a refused view leaves no record to read.
#[test]
fn legacy_vsdag_layout_is_refused_by_name() {
    let bytes = fs::read(corpus_dir().join("vsdag-legacy-layout.img")).expect("committed");
    let image = FibImage::from_bytes(&bytes).expect("header, checksum and section table are fine");
    type Vs = fibcomp::core::VarStrideDag<u32>;
    let missing = ImageError::MissingSection(sections::VS_BLOCKS);
    for _ in 0..2 {
        assert_eq!(
            <Vs as ImageCodec<u32>>::view(&image).err(),
            Some(missing.clone())
        );
    }
}
