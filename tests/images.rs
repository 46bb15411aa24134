//! FIB-image integration tests: roundtrip equivalence for every Table 2
//! engine on IPv4 and IPv6, zero-copy pointer-range assertions, size
//! accounting, robustness against corrupt files, and the record an image
//! keeps of its validation.

use fibcomp::core::image::sections;
use fibcomp::core::{
    any_view, write_image, AnyView, BuildConfig, EngineKind, FibBuild, FibImage, FibLookup,
    ImageCodec, ImageError, ImageWriter, MultibitDag, PrefixDag, SerializedDag, VarStrideDag,
    XbwFib, XbwStorage,
};
use fibcomp::trie::{Address, BinaryTrie, NextHop, Prefix4, Prefix6};
use fibcomp::workload::rng::{Rng, Xoshiro256};
use fibcomp::workload::{traces, FibSpec};

fn rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

fn v4_fib(routes: usize, seed: u64) -> BinaryTrie<u32> {
    FibSpec::dfz_like(routes).generate(&mut rng(seed))
}

fn v6_fib() -> BinaryTrie<u128> {
    let mut trie: BinaryTrie<u128> = BinaryTrie::new();
    trie.insert("::/0".parse::<Prefix6>().unwrap(), NextHop::new(1));
    let mut r = rng(0x6666);
    for i in 0..3000u64 {
        let base = (0x2001_0db8u128 << 96) | (u128::from(i) << 76);
        let len = 32 + (r.random::<u64>() % 33) as u8;
        trie.insert(
            fibcomp::trie::Prefix::new(base | (u128::from(r.random::<u64>()) << 8), len),
            NextHop::new((r.random::<u64>() % 12) as u32),
        );
    }
    trie
}

/// Writes `engine` to an image, loads it back, and checks: header fields,
/// lookup equivalence on every probe (scalar and batched), the traced
/// walk's access offsets and sizes on every probe, and route restoration.
fn assert_roundtrip<A, E>(engine: &E, trie: &BinaryTrie<A>, keys: &[A])
where
    A: Address,
    E: ImageCodec<A>,
{
    let bytes = write_image(engine, Some(trie), 7).expect("image encodes");
    assert_eq!(bytes.len() % 64, 0, "file length is whole blocks");
    let image = FibImage::from_bytes(&bytes).expect("image loads");
    assert_eq!(image.engine().unwrap() as u8, E::ENGINE as u8);
    assert_eq!(image.family(), if A::WIDTH == 32 { 4 } else { 6 });
    assert_eq!(image.epoch(), 7);
    assert_eq!(image.route_count() as usize, trie.len());
    let view = E::view(&image).expect("view assembles");
    for &key in keys {
        assert_eq!(
            view.lookup(key),
            engine.lookup(key),
            "{} image diverges at {:#x}",
            engine.name(),
            key.to_u128()
        );
    }
    let mut owned_out = vec![None; keys.len()];
    let mut image_out = vec![Some(NextHop::new(u32::MAX - 1)); keys.len()];
    engine.lookup_batch(keys, &mut owned_out);
    view.lookup_batch(keys, &mut image_out);
    assert_eq!(owned_out, image_out, "{} batch diverges", engine.name());
    // The view walks what the owned engine walks: key by key, the same
    // memory accesses, at the same offsets with the same sizes.
    let (mut owned_walk, mut image_walk) = (Vec::new(), Vec::new());
    for &key in keys {
        owned_walk.clear();
        image_walk.clear();
        engine.lookup_traced(key, &mut |offset, size| owned_walk.push((offset, size)));
        view.lookup_traced(key, &mut |offset, size| image_walk.push((offset, size)));
        assert_eq!(
            owned_walk,
            image_walk,
            "{} image walk diverges at {:#x}",
            engine.name(),
            key.to_u128()
        );
    }
    // The routes section restores the control FIB exactly.
    let restored = image.routes::<A>().expect("routes decode");
    assert_eq!(restored.len(), trie.len());
    for &key in keys {
        assert_eq!(restored.lookup(key), trie.lookup(key));
    }
    // The type-erased view agrees too (what `fibc serve` uses) — and is
    // as traceable as the concrete view it wraps.
    let erased = any_view::<A>(&image).expect("any_view assembles");
    assert_eq!(
        erased.traces_memory(),
        view.traces_memory(),
        "{} erased view forgets tracing",
        engine.name()
    );
    for &key in keys.iter().take(64) {
        assert_eq!(erased.lookup(key), engine.lookup(key));
        let mut accesses = 0usize;
        let traced = erased.lookup_traced(key, &mut |_, _| accesses += 1);
        assert_eq!(traced, engine.lookup(key), "{} traced", engine.name());
        assert_eq!(
            accesses > 0,
            view.traces_memory(),
            "{} traced walk reported {accesses} accesses",
            engine.name()
        );
    }
}

fn engines_v4(trie: &BinaryTrie<u32>) -> impl Iterator<Item = (&'static str, Vec<u8>)> + '_ {
    let config = BuildConfig::default();
    let xbw_s: XbwFib<u32> = XbwFib::build(trie, XbwStorage::Succinct);
    let xbw_e: XbwFib<u32> = XbwFib::build(trie, XbwStorage::Entropy);
    let dag: PrefixDag<u32> = FibBuild::build(trie, &config);
    let ser: SerializedDag<u32> = FibBuild::build(trie, &config);
    let mb = MultibitDag::from_trie(trie, config.stride);
    let vs: VarStrideDag<u32> = FibBuild::build(trie, &config);
    [
        ("xbw-succinct", write_image(&xbw_s, Some(trie), 0).unwrap()),
        ("xbw-entropy", write_image(&xbw_e, Some(trie), 0).unwrap()),
        ("pdag", write_image(&dag, Some(trie), 0).unwrap()),
        ("serialized", write_image(&ser, Some(trie), 0).unwrap()),
        ("multibit", write_image(&mb, Some(trie), 0).unwrap()),
        ("vsdag", write_image(&vs, Some(trie), 0).unwrap()),
    ]
    .into_iter()
}

#[test]
fn every_engine_roundtrips_on_ipv4() {
    let trie = v4_fib(12_000, 1);
    let keys = traces::uniform::<u32, _>(&mut rng(2), 3000);
    let config = BuildConfig::default();
    assert_roundtrip(&XbwFib::build(&trie, XbwStorage::Succinct), &trie, &keys);
    assert_roundtrip(&XbwFib::build(&trie, XbwStorage::Entropy), &trie, &keys);
    assert_roundtrip::<u32, PrefixDag<u32>>(&FibBuild::build(&trie, &config), &trie, &keys);
    assert_roundtrip::<u32, SerializedDag<u32>>(&FibBuild::build(&trie, &config), &trie, &keys);
    assert_roundtrip(&MultibitDag::from_trie(&trie, config.stride), &trie, &keys);
    assert_roundtrip::<u32, VarStrideDag<u32>>(&FibBuild::build(&trie, &config), &trie, &keys);
}

#[test]
fn every_engine_roundtrips_on_ipv6() {
    let trie = v6_fib();
    let mut keys = traces::uniform::<u128, _>(&mut rng(3), 2000);
    // Bias half the probes into the routed region.
    for (i, key) in keys.iter_mut().enumerate().take(1000) {
        *key = (0x2001_0db8u128 << 96) | (*key & ((1u128 << 76) - 1)) | ((i as u128) << 76);
    }
    let config = BuildConfig::default();
    assert_roundtrip(&XbwFib::build(&trie, XbwStorage::Succinct), &trie, &keys);
    assert_roundtrip(&XbwFib::build(&trie, XbwStorage::Entropy), &trie, &keys);
    assert_roundtrip::<u128, PrefixDag<u128>>(&FibBuild::build(&trie, &config), &trie, &keys);
    assert_roundtrip::<u128, SerializedDag<u128>>(&FibBuild::build(&trie, &config), &trie, &keys);
    assert_roundtrip(&MultibitDag::from_trie(&trie, config.stride), &trie, &keys);
    assert_roundtrip::<u128, VarStrideDag<u128>>(&FibBuild::build(&trie, &config), &trie, &keys);
}

/// The zero-copy guarantee, asserted by pointer ranges: every word the
/// views read lives inside the image's single load buffer.
#[test]
fn loaded_views_borrow_from_the_image_arena() {
    let trie = v4_fib(4_000, 4);
    let config = BuildConfig::default();
    let within = |range: std::ops::Range<usize>, arena: std::ops::Range<*const u64>| {
        assert!(
            range.start >= arena.start as usize && range.end <= arena.end as usize,
            "view payload {range:?} outside the arena {arena:?}"
        );
    };

    let ser: SerializedDag<u32> = FibBuild::build(&trie, &config);
    let image = FibImage::from_bytes(&write_image(&ser, None, 0).unwrap()).unwrap();
    let view = <SerializedDag<u32> as ImageCodec<u32>>::view(&image).unwrap();
    within(view.payload_ptr_range(), image.words().as_ptr_range());

    let mb = MultibitDag::from_trie(&trie, config.stride);
    let image = FibImage::from_bytes(&write_image(&mb, None, 0).unwrap()).unwrap();
    let view = <MultibitDag<u32> as ImageCodec<u32>>::view(&image).unwrap();
    within(view.payload_ptr_range(), image.words().as_ptr_range());

    let dag: PrefixDag<u32> = FibBuild::build(&trie, &config);
    let image = FibImage::from_bytes(&write_image(&dag, None, 0).unwrap()).unwrap();
    let view = <PrefixDag<u32> as ImageCodec<u32>>::view(&image).unwrap();
    within(view.payload_ptr_range(), image.words().as_ptr_range());

    let vs: VarStrideDag<u32> = FibBuild::build(&trie, &config);
    let image = FibImage::from_bytes(&write_image(&vs, None, 0).unwrap()).unwrap();
    let view = <VarStrideDag<u32> as ImageCodec<u32>>::view(&image).unwrap();
    within(view.payload_ptr_range(), image.words().as_ptr_range());

    for storage in [XbwStorage::Succinct, XbwStorage::Entropy] {
        let xbw = XbwFib::build(&trie, storage);
        let image = FibImage::from_bytes(&write_image(&xbw, None, 0).unwrap()).unwrap();
        let view = <XbwFib<u32> as ImageCodec<u32>>::view(&image).unwrap();
        for range in view.payload_ptr_ranges() {
            within(range, image.words().as_ptr_range());
        }
        // The load buffer is 64-byte aligned, so interleaved rank lines
        // keep their single-cache-line guarantee when served from disk.
        assert_eq!(image.words().as_ptr() as usize % 64, 0);
    }
}

/// The engine's own size accounting and the image payload must agree
/// within a few percent — this is the drift alarm for both.
#[test]
fn image_payload_tracks_engine_size_bytes() {
    // Large enough that the image's fixed metadata (8-word meta blocks,
    // wavelet node tables, block padding) amortizes below the tolerance.
    let trie = v4_fib(40_000, 5);
    for (name, bytes) in engines_v4(&trie) {
        let image = FibImage::from_bytes(&bytes).unwrap();
        let payload_bytes: usize = image
            .section_table()
            .iter()
            .filter(|e| e.id != sections::ROUTES && e.id != sections::PARAMS)
            .map(|e| e.len * 8)
            .sum();
        let claimed = image.claimed_size_bytes() as usize;
        assert!(claimed > 0, "{name}: empty size claim");
        let drift = payload_bytes.abs_diff(claimed) as f64 / claimed as f64;
        assert!(
            drift < 0.05,
            "{name}: image payload {payload_bytes} B vs claimed size_bytes {claimed} B \
             ({:.1}% drift)",
            drift * 100.0
        );
    }
}

/// Corrupt images must fail loudly with a typed error — never panic,
/// never misroute.
#[test]
fn corrupt_images_fail_loudly() {
    let trie = v4_fib(2_000, 6);
    let ser: SerializedDag<u32> = FibBuild::build(&trie, &BuildConfig::default());
    let good = write_image(&ser, Some(&trie), 3).unwrap();

    // Truncation at every interesting boundary.
    for cut in [0usize, 7, 8, 63, 64, 128, good.len() / 2, good.len() - 1] {
        let got = FibImage::from_bytes(&good[..cut]);
        assert!(
            matches!(got, Err(ImageError::Truncated | ImageError::BadMagic)),
            "cut {cut}: {got:?}"
        );
    }
    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert_eq!(
        FibImage::from_bytes(&bad).unwrap_err(),
        ImageError::BadMagic
    );
    // Bad version (checksum repaired so the version check is what fires).
    let mut bad = good.clone();
    bad[8] = 0xEE;
    let repaired = repair_checksum(bad);
    assert_eq!(
        FibImage::from_bytes(&repaired).unwrap_err(),
        ImageError::BadVersion(0xEE)
    );
    // Wrong address family: a v4 image refused by a v6 view.
    let image = FibImage::from_bytes(&good).unwrap();
    assert!(matches!(
        <SerializedDag<u128> as ImageCodec<u128>>::view(&image),
        Err(ImageError::FamilyMismatch {
            image: 4,
            expected: 6
        })
    ));
    assert!(matches!(
        image.routes::<u128>(),
        Err(ImageError::FamilyMismatch { .. })
    ));
    // Wrong engine.
    assert!(matches!(
        <MultibitDag<u32> as ImageCodec<u32>>::view(&image),
        Err(ImageError::EngineMismatch { .. })
    ));
    // A single flipped payload byte breaks the checksum.
    for pos in [65usize, 200, good.len() - 2] {
        let mut bad = good.clone();
        bad[pos] ^= 0x10;
        assert_eq!(
            FibImage::from_bytes(&bad).unwrap_err(),
            ImageError::ChecksumMismatch,
            "flip at {pos}"
        );
    }
    // Flipping the checksum itself (header word 7) also fails.
    let mut bad = good.clone();
    bad[56] ^= 0x01;
    assert_eq!(
        FibImage::from_bytes(&bad).unwrap_err(),
        ImageError::ChecksumMismatch
    );
    // Unknown engine id (checksum repaired so the engine check fires):
    // one never assigned, and the retired id 4 of the stride-`s` multibit
    // DAG, which must stay unknown rather than be read as something else.
    for id in [0x7Fu8, 4] {
        let mut bad = good.clone();
        bad[11] = id; // engine byte inside header word 1
        let repaired = repair_checksum(bad);
        let image = FibImage::from_bytes(&repaired).unwrap();
        assert_eq!(image.engine().unwrap_err(), ImageError::UnknownEngine(id));
        assert!(any_view::<u32>(&image).is_err());
    }
}

/// Recomputes the trailer checksum after deliberate header edits, so
/// tests can reach the validation that sits *behind* the checksum.
fn repair_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes[56..64].fill(0);
    let checksum = fibcomp::succinct::fnv1a(&bytes);
    bytes[56..64].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

#[test]
fn engine_kind_names_roundtrip() {
    for kind in [
        EngineKind::Xbw,
        EngineKind::PrefixDag,
        EngineKind::SerializedDag,
        EngineKind::VrfSet,
        EngineKind::VsDag,
    ] {
        assert_eq!(EngineKind::parse(kind.name()), Some(kind));
        assert_eq!(EngineKind::from_u8(kind as u8), Some(kind));
    }
    assert_eq!(EngineKind::parse("bogus"), None);
    // Retired with the stride-`s` multibit DAG; never reassigned.
    assert_eq!(EngineKind::from_u8(4), None);
    assert_eq!(EngineKind::parse("multibit"), None);
    // Retired with the LC-trie's image codec; never reassigned.
    assert_eq!(EngineKind::from_u8(5), None);
    assert_eq!(EngineKind::parse("lctrie"), None);
}

#[test]
fn image_file_roundtrip_via_disk() {
    let dir = std::env::temp_dir().join(format!("fibimg-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trie = v4_fib(1_000, 9);
    let ser: SerializedDag<u32> = FibBuild::build(&trie, &BuildConfig::default());
    let path = dir.join("t.img");
    std::fs::write(&path, write_image(&ser, Some(&trie), 1).unwrap()).unwrap();
    let keys = traces::uniform::<u32, _>(&mut rng(10), 500);
    let image = FibImage::load(&path).unwrap();
    let view = <SerializedDag<u32> as ImageCodec<u32>>::view(&image).unwrap();
    let hits = keys.iter().filter(|&&k| view.lookup(k).is_some()).count();
    let expected = keys.iter().filter(|&&k| ser.lookup(k).is_some()).count();
    assert_eq!(hits, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefix4_prefix6_image_probes() {
    // A tiny, fully hand-checkable FIB on both families.
    let mut t4: BinaryTrie<u32> = BinaryTrie::new();
    t4.insert("0.0.0.0/0".parse::<Prefix4>().unwrap(), NextHop::new(1));
    t4.insert("10.0.0.0/8".parse::<Prefix4>().unwrap(), NextHop::new(2));
    let ser: SerializedDag<u32> = FibBuild::build(&t4, &BuildConfig::default());
    let image = FibImage::from_bytes(&write_image(&ser, Some(&t4), 0).unwrap()).unwrap();
    let view = <SerializedDag<u32> as ImageCodec<u32>>::view(&image).unwrap();
    assert_eq!(view.lookup(0x0A00_0001u32), Some(NextHop::new(2)));
    assert_eq!(view.lookup(0x0B00_0001u32), Some(NextHop::new(1)));
}

/// An IPv4 image of `engine` holding `sections`, in order.
fn image_of(engine: EngineKind, sections: &[(u32, Vec<u64>)]) -> FibImage {
    let mut writer = ImageWriter::new::<u32>(engine, 0, 0);
    for (id, words) in sections {
        writer.section(*id, words);
    }
    FibImage::from_bytes(&writer.finish()).expect("written images load")
}

/// `image`'s section `id`, copied out.
fn section(image: &FibImage, id: u32) -> Vec<u64> {
    image.section(id).expect("section present").to_vec()
}

/// A view that fails leaves no record: the image fails every later view,
/// typed or erased, as its first one failed.
#[test]
fn a_failed_first_view_fails_every_later_view() {
    let trie = v4_fib(2_000, 11);
    let dag: PrefixDag<u32> = FibBuild::build(&trie, &BuildConfig::default());
    let good = FibImage::from_bytes(&write_image(&dag, None, 0).unwrap()).unwrap();
    // The last node's left child one past the arena: only the child scan
    // sees it.
    let mut nodes = section(&good, sections::PDAG_NODES);
    let (last, n_nodes) = (nodes.len() - 2, nodes.len() as u64 / 2);
    nodes[last] = nodes[last] & !0xFFFF_FFFF | n_nodes;
    let bad = image_of(
        EngineKind::PrefixDag,
        &[
            (sections::PARAMS, section(&good, sections::PARAMS)),
            (sections::PDAG_NODES, nodes),
        ],
    );
    let want = Some(ImageError::Malformed("pdag child out of range"));
    for _ in 0..3 {
        assert_eq!(<PrefixDag<u32> as ImageCodec<u32>>::view(&bad).err(), want);
        assert_eq!(any_view::<u32>(&bad).err(), want);
    }
}

/// The record is the validating codec's own. An image carrying a pDAG's
/// sections beside a vsdag's (one `PARAMS`, whose first word both read
/// as their root) that a pDAG view validated still gets the vsdag's full
/// scan from the vsdag's parse, on every parse.
#[test]
fn another_codecs_parse_of_a_validated_image_still_scans() {
    type Vs = VarStrideDag<u32>;
    type Dag = PrefixDag<u32>;
    let trie = v4_fib(2_000, 12);
    let config = BuildConfig::default();
    let dag: Dag = FibBuild::build(&trie, &config);
    let vs: Vs = FibBuild::build(&trie, &config);
    let dag = FibImage::from_bytes(&write_image(&dag, None, 0).unwrap()).unwrap();
    let vs = FibImage::from_bytes(&write_image(&vs, None, 0).unwrap()).unwrap();
    let both = |edit_blocks: fn(&mut Vec<u64>)| {
        let mut params = section(&vs, sections::PARAMS);
        params[0] = section(&dag, sections::PARAMS)[0];
        let mut blocks = section(&vs, sections::VS_BLOCKS);
        edit_blocks(&mut blocks);
        image_of(
            EngineKind::PrefixDag,
            &[
                (sections::PARAMS, params),
                (sections::PDAG_NODES, section(&dag, sections::PDAG_NODES)),
                (sections::VS_NODES, section(&vs, sections::VS_NODES)),
                (sections::VS_BLOCKS, blocks),
                (sections::VS_RUNS, section(&vs, sections::VS_RUNS)),
            ],
        )
    };
    // Clean sections: each codec validates and keeps its own record.
    let clean = both(|_| {});
    for _ in 0..2 {
        assert!(<Dag as ImageCodec<u32>>::view(&clean).is_ok());
        assert!(<Vs as ImageCodec<u32>>::parse(&clean).is_ok());
    }
    // The last block's run rank one too high: only the vsdag's scan sees
    // it. A fresh image's parse names the damage; so does the parse of
    // one a pDAG view validated first, every time.
    let bump_rank = |blocks: &mut Vec<u64>| *blocks.last_mut().unwrap() += 1 << 32;
    let want = <Vs as ImageCodec<u32>>::parse(&both(bump_rank)).err();
    assert!(matches!(want, Some(ImageError::Malformed(_))), "{want:?}");
    let hostile = both(bump_rank);
    assert!(<Dag as ImageCodec<u32>>::view(&hostile).is_ok());
    for _ in 0..2 {
        assert_eq!(<Vs as ImageCodec<u32>>::parse(&hostile).err(), want);
        assert!(<Dag as ImageCodec<u32>>::view(&hostile).is_ok());
    }
}

/// The words an erased view borrows.
fn borrowed(view: &AnyView<'_, u32>) -> Vec<std::ops::Range<usize>> {
    match view {
        AnyView::Xbw(v) => v.payload_ptr_ranges(),
        AnyView::PrefixDag(v) => vec![v.payload_ptr_range()],
        AnyView::SerializedDag(v) => vec![v.payload_ptr_range()],
        AnyView::VsDag(v) => vec![v.payload_ptr_range()],
    }
}

/// Every later view of a validated image, erased or typed, borrows the
/// words its first view did. A clone shares the record but not the
/// buffer: its views borrow its own words and answer alike.
#[test]
fn later_views_of_a_validated_image_borrow_the_same_words() {
    let trie = v4_fib(2_000, 13);
    let keys = traces::uniform::<u32, _>(&mut rng(14), 500);
    for (name, bytes) in engines_v4(&trie) {
        let image = FibImage::from_bytes(&bytes).unwrap();
        let first = any_view::<u32>(&image).unwrap();
        let arena = image.words().as_ptr_range();
        for range in borrowed(&first) {
            assert!(range.start >= arena.start as usize && range.end <= arena.end as usize);
        }
        for _ in 0..2 {
            assert_eq!(
                borrowed(&any_view(&image).unwrap()),
                borrowed(&first),
                "{name}"
            );
        }
        let typed = match image.engine().unwrap() {
            EngineKind::Xbw => {
                AnyView::Xbw(<XbwFib<u32> as ImageCodec<u32>>::view(&image).unwrap())
            }
            EngineKind::PrefixDag => {
                AnyView::PrefixDag(<PrefixDag<u32> as ImageCodec<u32>>::view(&image).unwrap())
            }
            EngineKind::SerializedDag => AnyView::SerializedDag(
                <SerializedDag<u32> as ImageCodec<u32>>::view(&image).unwrap(),
            ),
            EngineKind::VsDag => {
                AnyView::VsDag(<VarStrideDag<u32> as ImageCodec<u32>>::view(&image).unwrap())
            }
            EngineKind::VrfSet => unreachable!("a one-engine image"),
        };
        assert_eq!(borrowed(&typed), borrowed(&first), "{name}");
        let clone = image.clone();
        let cloned = any_view::<u32>(&clone).unwrap();
        let arena = clone.words().as_ptr_range();
        for range in borrowed(&cloned) {
            assert!(range.start >= arena.start as usize && range.end <= arena.end as usize);
        }
        for &key in &keys {
            assert_eq!(cloned.lookup(key), first.lookup(key), "{name} {key:#x}");
        }
    }
}
