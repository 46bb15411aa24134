//! Multi-tenant VRF sets: canonical-form interning properties and
//! differential checks of every VRF against its uncompressed oracle.
//!
//! Two families of guarantees back the shared-arena compiler:
//!
//! * **Interning counts** — hash-consing is observable through
//!   [`fibcomp::core::VrfSetStats`]: a duplicated table contributes zero
//!   new unique nodes and lands on the *same* arena root, and the unique
//!   count never exceeds the sum of standalone folded sizes.
//! * **Answer equivalence** — every compiled VRF answers bit-identically
//!   to its own `BinaryTrie` oracle, for IPv4 and IPv6, under uniform and
//!   Zipf key streams, both scalar and through the VRF-bucketed batch
//!   path, and across a publish while another thread still holds the
//!   snapshot it replaces.
//! * **A full compile's answers under churn, its bytes at compaction** —
//!   a publish re-interns only what changed in the tables that changed,
//!   into the arena it keeps; after every publish the installed set must
//!   answer, count its tables exactly on demand and charge its statistics
//!   (all but free slots, and the stored counts a compaction will renew)
//!   as a from-scratch `compile_vrf_set` over the current oracles,
//!   however the updates between two publishes fall across the fleet;
//!   its image, compacted as it is written, must be the full compile's
//!   byte for byte; and a publish that compacts installs the full
//!   compile's set itself.
//! * **Publishes that cost what changed** — the exact counters of
//!   [`fibcomp::router::RouterStats`]: records written into the
//!   readers' sets, recycled sets, compactions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

use fibcomp::core::lint::lint_bytes;
use fibcomp::core::{
    compile_vrf_set, vrf_section_base, write_vrf_image, BuildConfig, CompiledVrfSet, FibBuild,
    FibImage, PrefixDag, VrfEngineChoice, VrfPolicy, VrfTable,
};
use fibcomp::router::{VrfBatchScratch, VrfSetRouter};
use fibcomp::trie::{Address, BinaryTrie, NextHop, Prefix};
use fibcomp::workload::rng::{Rng, Xoshiro256};
use fibcomp::workload::traces::{self, ZipfTrace};
use fibcomp::workload::vrf::{fleet_weights, instance_fleet};
use fibcomp::workload::{FibSpec, VrfFleetSpec};

const CASES: u64 = 16;

fn arb_prefix<A: Address>(rng: &mut impl Rng) -> Prefix<A> {
    let addr = A::from_u128(rng.random::<u128>() >> (128 - u32::from(A::WIDTH)));
    Prefix::new(addr, rng.random_range(0..=u32::from(A::WIDTH)) as u8)
}

fn arb_routes<A: Address>(rng: &mut impl Rng, max: usize) -> Vec<(Prefix<A>, NextHop)> {
    let n = rng.random_range(1..max);
    (0..n)
        .map(|_| (arb_prefix(rng), NextHop::new(rng.random_range(0..6u32))))
        .collect()
}

/// Folded node count of a table compiled on its own (a one-table set).
fn solo_nodes<A: Address + Send + Sync + 'static>(
    trie: &BinaryTrie<A>,
    config: &BuildConfig,
) -> u64 {
    let tables = [VrfTable { id: 0, trie }];
    compile_vrf_set(&tables, config, &VrfPolicy::Shared)
        .stats
        .unique_nodes
}

#[test]
fn interning_counts_hold_for_arbitrary_overlapping_tables() {
    let config = BuildConfig::default();
    for case in 0..CASES {
        let mut rng = Xoshiro256::for_case("vrf_interning_counts", case);
        // Three tables over a shared base plus private deltas, and a
        // fourth that is an exact clone of the second.
        let base: Vec<(Prefix<u32>, NextHop)> = arb_routes(&mut rng, 160);
        let mut tries: Vec<BinaryTrie<u32>> = Vec::new();
        for _ in 0..3 {
            let mut t: BinaryTrie<u32> = base.iter().copied().collect();
            for (p, nh) in arb_routes::<u32>(&mut rng, 24) {
                t.insert(p, nh);
            }
            tries.push(t);
        }
        tries.push(tries[1].clone());

        let tables: Vec<VrfTable<'_, u32>> = tries
            .iter()
            .enumerate()
            .map(|(i, trie)| VrfTable { id: i as u32, trie })
            .collect();
        let set = compile_vrf_set(&tables, &config, &VrfPolicy::Shared);

        // A duplicated table is a pure alias: same root, zero new nodes.
        assert_eq!(
            set.tables[1].root, set.tables[3].root,
            "case {case}: clone of table 1 must intern to the same root"
        );
        let without_clone = compile_vrf_set(&tables[..3], &config, &VrfPolicy::Shared);
        assert_eq!(
            set.stats.unique_nodes, without_clone.stats.unique_nodes,
            "case {case}: adding a clone must not grow the arena"
        );

        // Interning can only remove nodes relative to standalone folds,
        // and the per-table view of the arena is exactly the standalone
        // fold (canonical forms are unique).
        let solo: u64 = tries.iter().map(|t| solo_nodes(t, &config)).sum();
        assert!(
            set.stats.unique_nodes <= solo,
            "case {case}: unique {} exceeds standalone sum {solo}",
            set.stats.unique_nodes
        );
        assert_eq!(
            set.stats.total_nodes, solo,
            "case {case}: per-table reachable counts must match standalone folds"
        );
        assert!(
            set.stats.sharing_ratio() >= 1.0,
            "case {case}: sharing ratio below 1"
        );
    }
}

#[test]
fn identical_fleets_collapse_to_one_table() {
    let mut rng = Xoshiro256::for_case("vrf_identical_fleet", 0);
    let base: BinaryTrie<u32> = FibSpec::dfz_like(400).generate(&mut rng);
    // overlap = 1.0 → zero churn events: every VRF is bit-identical.
    let fleet = VrfFleetSpec {
        tables: 6,
        overlap: 1.0,
        seed: 7,
    }
    .generate(&base);
    let tables: Vec<VrfTable<'_, u32>> = fleet
        .iter()
        .enumerate()
        .map(|(i, trie)| VrfTable { id: i as u32, trie })
        .collect();
    let set = compile_vrf_set(&tables, &BuildConfig::default(), &VrfPolicy::Shared);
    assert_eq!(
        set.stats.unique_nodes,
        solo_nodes(&base, &BuildConfig::default())
    );
    for t in &set.tables[1..] {
        assert_eq!(t.root, set.tables[0].root);
    }
    assert!((set.stats.sharing_ratio() - 6.0).abs() < 1e-9);
}

/// Uniform and per-table Zipf keys for a fleet, tagged with VRF ids.
fn fleet_keys<A: Address>(
    oracles: &BTreeMap<u32, BinaryTrie<A>>,
    rng: &mut impl Rng,
    per_vrf: usize,
) -> Vec<(u32, A)> {
    let mut keys = Vec::new();
    for (&vrf, trie) in oracles {
        for addr in traces::uniform::<A, _>(rng, per_vrf) {
            keys.push((vrf, addr));
        }
        // A table withdrawn down to empty has no prefixes to rank.
        if !trie.is_empty() {
            let zipf = ZipfTrace::new(trie, 1.0);
            for _ in 0..per_vrf {
                keys.push((vrf, zipf.sample(rng)));
            }
        }
    }
    // Shuffle so the batch path sees interleaved VRFs, not sorted runs.
    for i in (1..keys.len()).rev() {
        let j = rng.random_range(0..=i as u64) as usize;
        keys.swap(i, j);
    }
    keys
}

/// Every key answered by the snapshot — scalar and batch — must match
/// the uncompressed oracle for its VRF.
fn assert_matches_oracles<A: Address + Send + Sync + 'static>(
    snapshot: &fibcomp::router::VrfSnapshot<A>,
    oracles: &BTreeMap<u32, BinaryTrie<A>>,
    keys: &[(u32, A)],
    tag: &str,
) {
    for &(vrf, addr) in keys {
        assert_eq!(
            snapshot.lookup(vrf, addr),
            oracles[&vrf].lookup(addr),
            "{tag}: vrf {vrf} addr {:#x}",
            addr.to_u128()
        );
    }
    let mut out = vec![None; keys.len()];
    let mut scratch = VrfBatchScratch::new();
    snapshot.lookup_batch(keys, &mut out, &mut scratch);
    for (&(vrf, addr), got) in keys.iter().zip(&out) {
        assert_eq!(
            *got,
            oracles[&vrf].lookup(addr),
            "{tag} batch: vrf {vrf} addr {:#x}",
            addr.to_u128()
        );
    }
}

fn differential_across_rebuild<A: Address + Send + Sync + 'static>(tag: &str) {
    let mut rng = Xoshiro256::for_case("vrf_differential", 0);
    let base: BinaryTrie<A> = FibSpec::dfz_like(500).generate(&mut rng);
    let fleet = VrfFleetSpec {
        tables: 6,
        overlap: 0.9,
        seed: 0xF1B,
    }
    .generate(&base);

    let mut router: VrfSetRouter<A> = VrfSetRouter::new(BuildConfig::default(), VrfPolicy::Shared);
    let mut oracles: BTreeMap<u32, BinaryTrie<A>> = BTreeMap::new();
    for (i, table) in fleet.into_iter().enumerate() {
        oracles.insert(i as u32, table.clone());
        router.insert_vrf(i as u32, table);
    }
    let snapshot = router.publish();
    let keys = fleet_keys(&oracles, &mut rng, 64);
    assert_matches_oracles(&snapshot, &oracles, &keys, &format!("{tag} initial"));

    // Mutate half the fleet, then publish while a second thread holds the
    // snapshot the publish replaces and keeps answering from it for the
    // oracles it was cut from.
    let before = oracles.clone();
    for vrf in [0u32, 2, 4] {
        for (p, nh) in arb_routes::<A>(&mut rng, 20) {
            router.announce(vrf, p, nh);
            oracles.get_mut(&vrf).unwrap().insert(p, nh);
        }
        let victim = oracles[&vrf].iter().next().map(|(p, _)| p);
        if let Some(p) = victim {
            router.withdraw(vrf, p);
            oracles.get_mut(&vrf).unwrap().remove(p);
        }
    }
    let published = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            let mut rounds = 0u32;
            loop {
                // Checked once more after the publish returned.
                let after = published.load(SeqCst);
                assert_matches_oracles(&snapshot, &before, &keys, &format!("{tag} held"));
                rounds += 1;
                if after {
                    return rounds;
                }
            }
        });
        router.publish();
        published.store(true, SeqCst);
        assert!(holder.join().expect("holder thread panicked") >= 1);
    });

    let mut reader = router.reader();
    let fresh_keys = fleet_keys(&oracles, &mut rng, 64);
    assert_matches_oracles(
        reader.snapshot(),
        &oracles,
        &fresh_keys,
        &format!("{tag} post-rebuild"),
    );
}

#[test]
fn every_vrf_matches_its_oracle_across_a_background_rebuild_v4() {
    differential_across_rebuild::<u32>("v4");
}

#[test]
fn every_vrf_matches_its_oracle_across_a_background_rebuild_v6() {
    differential_across_rebuild::<u128>("v6");
}

/// A pinned fleet with every placement — shared, serialized, xbw and vsdag
/// — through the whole image path: compiled, written, loaded back into the
/// set that was compiled, answering as the oracles do, written again to
/// the same bytes and lint-clean; and with any one section of any
/// dedicated table dropped, lint names the dangling section.
fn every_placement_roundtrips<A: Address + Send + Sync + 'static>(tag: &str) {
    use VrfEngineChoice::{Serialized, Shared, VsDag, Xbw};
    let mut rng = Xoshiro256::for_case("vrf_every_placement", 0);
    let base: BinaryTrie<A> = FibSpec::dfz_like(400).generate(&mut rng);
    let fleet = VrfFleetSpec {
        tables: 5,
        overlap: 0.9,
        seed: 0x5EC7,
    }
    .generate(&base);
    let oracles: BTreeMap<u32, BinaryTrie<A>> = (0..).step_by(3).zip(fleet).collect();
    let tables: Vec<VrfTable<'_, A>> = oracles
        .iter()
        .map(|(id, trie)| VrfTable { id: *id, trie })
        .collect();
    let choices = BTreeMap::from([
        (0, Serialized),
        (3, Shared),
        (6, Xbw),
        (9, Shared),
        (12, VsDag),
    ]);
    let policy = VrfPolicy::Pinned {
        choices: choices.clone(),
    };
    let set = compile_vrf_set(&tables, &BuildConfig::default(), &policy);
    let placed: BTreeMap<_, _> = set.tables.iter().map(|t| (t.id, t.choice())).collect();
    assert_eq!(placed, choices, "{tag}");

    let bytes = write_vrf_image(&set, 3).expect("a fleet image");
    let image = FibImage::from_bytes(&bytes).expect("the image loads");
    let loaded = CompiledVrfSet::<A>::from_image(&image).expect("the set loads");
    assert_sets_identical(&loaded, &set, tag);
    assert_eq!(
        write_vrf_image(&loaded, 3).expect("a fleet image"),
        bytes,
        "{tag}: a loaded set writes the bytes it was loaded from"
    );
    let keys = fleet_keys(&oracles, &mut rng, 256);
    for &(vrf, addr) in &keys {
        let want = oracles[&vrf].lookup(addr);
        let at = format!("{tag}: vrf {vrf} addr {:#x}", addr.to_u128());
        assert_eq!(set.lookup(vrf, addr), want, "{at}");
        assert_eq!(loaded.lookup(vrf, addr), want, "{at} (image)");
    }
    let mut out = vec![None; keys.len()];
    loaded.lookup_batch(&keys, &mut out, &mut VrfBatchScratch::new());
    for (&(vrf, addr), got) in keys.iter().zip(&out) {
        let at = format!("{tag}: vrf {vrf} addr {:#x}", addr.to_u128());
        assert_eq!(*got, oracles[&vrf].lookup(addr), "{at} (image batch)");
    }
    assert_eq!(lint_bytes(&bytes), Vec::new(), "{tag}");

    for (index, table) in set.tables.iter().enumerate() {
        let Some(kind) = table.choice().engine_kind() else {
            continue;
        };
        for slot in 0..kind.sections().len() as u32 {
            let doomed = vrf_section_base(index) + slot;
            let pos = (image.section_table().iter())
                .position(|e| e.id == doomed)
                .unwrap_or_else(|| panic!("{tag}: section {doomed:#x} written"));
            let mut bad = bytes.clone();
            let id_word = (8 + 2 * pos) * 8;
            bad[id_word..id_word + 8].copy_from_slice(&0x0EEEu64.to_le_bytes());
            bad[56..64].fill(0);
            let checksum = fibcomp::succinct::fnv1a(&bad);
            bad[56..64].copy_from_slice(&checksum.to_le_bytes());
            let issues = lint_bytes(&bad);
            assert!(
                issues.iter().any(|i| i.code == "vrf-dangling-section"),
                "{tag}: {} table {index} without {doomed:#x}: {issues:?}",
                kind.name()
            );
        }
    }
}

#[test]
fn every_dedicated_engine_roundtrips_through_a_fleet_image_v4() {
    every_placement_roundtrips::<u32>("v4");
}

#[test]
fn every_dedicated_engine_roundtrips_through_a_fleet_image_v6() {
    every_placement_roundtrips::<u128>("v6");
}

/// A table's `solo_nodes` is its standalone packed pDAG's node count,
/// though the compiler reads it off the fold it interns and writes no
/// image: v4 and v6 fleets (an empty table among them), all shared and
/// with a dedicated table, at barriers below, at and above the root
/// array's eight levels and at W.
fn solo_nodes_count_the_standalone_image<A: Address + Send + Sync + 'static>(tag: &str) {
    let mut rng = Xoshiro256::for_case("vrf_solo_nodes", 0);
    let base: BinaryTrie<A> = FibSpec::dfz_like(300).generate(&mut rng);
    let mut fleet = VrfFleetSpec {
        tables: 4,
        overlap: 0.8,
        seed: 0x5010,
    }
    .generate(&base);
    fleet.push(BinaryTrie::new());
    let tables: Vec<VrfTable<'_, A>> = (0..)
        .zip(&fleet)
        .map(|(id, trie)| VrfTable { id, trie })
        .collect();
    let pinned = BTreeMap::from([(1, VrfEngineChoice::Xbw)]);
    for lambda in [0, 4, 8, 11, A::WIDTH] {
        let config = BuildConfig::with_lambda(lambda);
        let want: Vec<u64> = fleet
            .iter()
            .map(|trie| (PrefixDag::build(trie, &config).write_packed().0.len() / 2) as u64)
            .collect();
        let policies = [
            VrfPolicy::Shared,
            VrfPolicy::Pinned {
                choices: pinned.clone(),
            },
        ];
        for policy in &policies {
            let set = compile_vrf_set(&tables, &config, policy);
            let got: Vec<u64> = set.tables.iter().map(|t| t.solo_nodes).collect();
            assert_eq!(got, want, "{tag} λ {lambda} {policy:?}");
        }
    }
}

#[test]
fn solo_nodes_count_the_standalone_image_v4() {
    solo_nodes_count_the_standalone_image::<u32>("v4");
}

#[test]
fn solo_nodes_count_the_standalone_image_v6() {
    solo_nodes_count_the_standalone_image::<u128>("v6");
}

/// The `Auto` placements of the fleet CI compiles (`fibc compile --vrfs 64
/// --instance taz --scale 0.02 --overlap 0.9 --vrf-policy auto --vrf-skew
/// 1.2`, seed 3851): hot tables on dedicated serialized engines, the
/// rest on the shared arena. The cost model prices each table's marginal
/// arena nodes, counted in id order, so a change to how the compiler
/// interns moves this vector.
#[test]
fn auto_placement_of_the_ci_fleet_is_pinned() {
    let fleet = instance_fleet("taz", 0.02, 64, 0.9, 3851).expect("taz is an instance");
    let tables: Vec<VrfTable<'_, u32>> = (0..)
        .zip(&fleet)
        .map(|(id, trie)| VrfTable { id, trie })
        .collect();
    let policy = VrfPolicy::Auto {
        weights: (0..).zip(fleet_weights(64, 1.2)).collect(),
    };
    let set = compile_vrf_set(&tables, &BuildConfig::default(), &policy);
    let placed: String = (set.tables.iter())
        .map(|t| match t.choice() {
            VrfEngineChoice::Shared => 'S',
            VrfEngineChoice::Serialized => 'R',
            VrfEngineChoice::Xbw => 'X',
            VrfEngineChoice::VsDag => 'V',
        })
        .collect();
    assert_eq!(
        placed,
        "RRRRRRRRRRRRRRRRRRSRSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSS"
    );
}

/// The two fleets CI compiles — `fibc compile --vrfs 64 --instance taz
/// --scale 0.02 --overlap 0.9`, all shared and under `--vrf-policy auto
/// --vrf-skew 1.2` (nineteen dedicated serialized tables) — load back into
/// the sets compiled, and write the bytes they were loaded from.
#[test]
fn the_ci_fleets_load_back_into_the_sets_compiled() {
    let fleet = instance_fleet("taz", 0.02, 64, 0.9, 3851).expect("taz is an instance");
    let tables: Vec<VrfTable<'_, u32>> = (0..)
        .zip(&fleet)
        .map(|(id, trie)| VrfTable { id, trie })
        .collect();
    let auto = VrfPolicy::Auto {
        weights: (0..).zip(fleet_weights(64, 1.2)).collect(),
    };
    for policy in [VrfPolicy::Shared, auto] {
        let set = compile_vrf_set(&tables, &BuildConfig::default(), &policy);
        let bytes = write_vrf_image(&set, 0).expect("a fleet image");
        let image = FibImage::from_bytes(&bytes).expect("the image loads");
        let loaded = CompiledVrfSet::<u32>::from_image(&image).expect("the set loads");
        let tag = format!("{policy:?}");
        assert_sets_identical(&loaded, &set, &tag);
        let again = write_vrf_image(&loaded, 0).expect("a fleet image");
        assert!(again == bytes, "{tag}: the loaded set writes other bytes");
    }
}

/// A pinned fleet with every placement, installed in a router as a
/// restart from per-table routes would: two tables change, a shared and a
/// dedicated one, and the publish rebuilds those two alone — the
/// serialized and xbw tables and the other shared one are carried — and
/// writes the image a from-scratch compile over the same tables writes,
/// answering as the oracles do.
fn a_pinned_fleet_republishes_as_the_compiled_one<A: Address + Send + Sync + 'static>(tag: &str) {
    use VrfEngineChoice::{Serialized, Shared, VsDag, Xbw};
    let mut rng = Xoshiro256::for_case("vrf_loaded_basis", 0);
    let base: BinaryTrie<A> = FibSpec::dfz_like(400).generate(&mut rng);
    let fleet = VrfFleetSpec {
        tables: 5,
        overlap: 0.9,
        seed: 0xB0A7,
    }
    .generate(&base);
    let mut oracles: BTreeMap<u32, BinaryTrie<A>> = (0..).zip(fleet).collect();
    let policy = VrfPolicy::Pinned {
        choices: BTreeMap::from([
            (0, Serialized),
            (1, Shared),
            (2, Xbw),
            (3, Shared),
            (4, VsDag),
        ]),
    };
    let config = BuildConfig::default();
    let mut router = VrfSetRouter::new(config, policy.clone());
    for (&id, trie) in &oracles {
        router.insert_vrf(id, trie.clone());
    }
    router.publish();

    let changed = [1, 4];
    for vrf in changed {
        for (prefix, hop) in arb_routes::<A>(&mut rng, 24) {
            oracles.get_mut(&vrf).expect("a table").insert(prefix, hop);
            router.announce(vrf, prefix, hop);
        }
    }
    let before = router.stats();
    let snapshot = router.publish();
    let after = router.stats();
    assert_eq!(
        (after.tables_refolded - before.tables_refolded) as usize,
        changed.len(),
        "{tag}: the changed tables alone are rebuilt"
    );
    assert_eq!(after.tables_carried - before.tables_carried, 3, "{tag}");
    let full = compile_fleet(&oracles, &config, &policy);
    assert_answers_as(snapshot.set(), &full, tag);
    assert!(
        write_vrf_image(snapshot.set(), 2).expect("a fleet image")
            == write_vrf_image(&full, 2).expect("a fleet image"),
        "{tag}: the republished set writes other bytes"
    );
    let keys = fleet_keys(&oracles, &mut rng, 128);
    assert_matches_oracles(&snapshot, &oracles, &keys, tag);
}

#[test]
fn a_pinned_fleet_republishes_as_the_compiled_one_v4() {
    a_pinned_fleet_republishes_as_the_compiled_one::<u32>("v4");
}

#[test]
fn a_pinned_fleet_republishes_as_the_compiled_one_v6() {
    a_pinned_fleet_republishes_as_the_compiled_one::<u128>("v6");
}

/// A clean table is carried, a changed one re-interned, and a table the
/// fleet no longer lists dropped, nodes and all: with VRF 1 dedicated
/// (its engine the very one built before) and VRFs 2 and 3 shared, each
/// publish writes the image of a full compile over the tables it holds.
#[test]
fn a_publish_carries_clean_tables_and_equals_a_full_compile() {
    let mut rng = Xoshiro256::for_case("vrf_carry_clean", 0);
    let base: BinaryTrie<u32> = FibSpec::dfz_like(300).generate(&mut rng);
    let fleet = VrfFleetSpec {
        tables: 3,
        overlap: 0.9,
        seed: 0xCA7,
    }
    .generate(&base);
    let mut oracles: BTreeMap<u32, BinaryTrie<u32>> = (1..).zip(fleet).collect();
    let policy = VrfPolicy::Pinned {
        choices: BTreeMap::from([(1, VrfEngineChoice::Serialized)]),
    };
    let config = BuildConfig::default();
    let mut router = VrfSetRouter::new(config, policy.clone());
    for (&id, trie) in &oracles {
        router.insert_vrf(id, trie.clone());
    }
    let first = router.publish();

    for (prefix, hop) in arb_routes::<u32>(&mut rng, 24) {
        oracles.get_mut(&2).expect("VRF 2").insert(prefix, hop);
        router.announce(2, prefix, hop);
    }
    let victim = oracles[&2].iter().nth(3).map(|(p, _)| p).expect("a route");
    oracles.get_mut(&2).expect("VRF 2").remove(victim);
    assert!(router.withdraw(2, victim).is_some());
    let next = router.publish();
    let stats = router.stats();
    // VRF 2 alone is re-folded: VRF 1 keeps the engine the first publish
    // built, VRF 3 its records and root array.
    assert_eq!((stats.tables_refolded, stats.tables_carried), (3 + 1, 2));
    let array = |snapshot: &fibcomp::router::VrfSnapshot<u32>| {
        let table = snapshot.set().table(3).expect("VRF 3");
        table.root_array().map(std::ptr::from_ref)
    };
    assert_eq!(array(&first), array(&next), "VRF 3's root array is shared");
    let full = compile_fleet(&oracles, &config, &policy);
    assert_answers_as(next.set(), &full, "one changed");
    assert!(write_vrf_image(next.set(), 0).unwrap() == write_vrf_image(&full, 0).unwrap());
    let keys = fleet_keys(&oracles, &mut rng, 128);
    assert_matches_oracles(&next, &oracles, &keys, "one changed");

    assert!(router.remove_vrf(2));
    oracles.remove(&2);
    let shrunk = router.publish();
    let full = compile_fleet(&oracles, &config, &policy);
    assert_answers_as(shrunk.set(), &full, "VRF 2 dropped");
    assert!(write_vrf_image(shrunk.set(), 0).unwrap() == write_vrf_image(&full, 0).unwrap());
}

/// Under `Auto` a table moves when the fleet around it does: cold VRF 1
/// first brings its own nodes and leaves the arena; once VRF 0, a copy of
/// it, brings them instead, VRF 1 adds none, and the cost model moves it
/// onto the shared arena — untouched, but folded in again, and served
/// from there as the full compile serves it.
#[test]
fn a_table_the_policy_moves_is_refolded() {
    let mut rng = Xoshiro256::for_case("vrf_policy_moves", 0);
    let base: BinaryTrie<u32> = FibSpec::dfz_like(400).generate(&mut rng);
    let hot: BinaryTrie<u32> = FibSpec::dfz_like(100).generate(&mut rng);
    let policy = VrfPolicy::Auto {
        weights: BTreeMap::from([(0, 0.001), (1, 0.001), (5, 1.0)]),
    };
    let config = BuildConfig::default();
    let mut oracles = BTreeMap::from([(1, base.clone()), (5, hot)]);
    let mut router = VrfSetRouter::new(config, policy.clone());
    for (&id, trie) in &oracles {
        router.insert_vrf(id, trie.clone());
    }
    let choice = |snapshot: &fibcomp::router::VrfSnapshot<u32>, id| {
        snapshot.set().table(id).map(|t| t.choice())
    };
    let before = router.publish();
    assert_ne!(choice(&before, 1), Some(VrfEngineChoice::Shared));

    oracles.insert(0, base.clone());
    router.insert_vrf(0, base);
    let moved = router.publish();
    assert_eq!(choice(&moved, 1), Some(VrfEngineChoice::Shared));
    assert_eq!(moved.vrf_epoch(1), Some(1), "VRF 1 itself did not change");
    let full = compile_fleet(&oracles, &config, &policy);
    assert_answers_as(moved.set(), &full, "moved");
    assert!(write_vrf_image(moved.set(), 0).unwrap() == write_vrf_image(&full, 0).unwrap());
    let keys = fleet_keys(&oracles, &mut rng, 128);
    assert_matches_oracles(&moved, &oracles, &keys, "moved");
}

/// A pinned router places each table by its VRF id: VRF 1 leaving and
/// VRFs 4 and 5 arriving leave VRFs 2 and 3 on the engines they are
/// pinned to, and put the unpinned newcomers on the shared arena.
fn pins_follow_the_vrf_id<A: Address + Send + Sync + 'static>(tag: &str) {
    use VrfEngineChoice::{Serialized, Shared, Xbw};
    let mut rng = Xoshiro256::for_case("vrf_pins_follow_ids", 0);
    let base: BinaryTrie<A> = FibSpec::dfz_like(300).generate(&mut rng);
    let fleet = VrfFleetSpec {
        tables: 5,
        overlap: 0.9,
        seed: 0x1D5,
    }
    .generate(&base);
    let mut arrivals = (1..).zip(fleet);
    let policy = VrfPolicy::Pinned {
        choices: BTreeMap::from([(1, Shared), (2, Xbw), (3, Serialized)]),
    };
    let mut router = VrfSetRouter::new(BuildConfig::default(), policy);
    let mut oracles = BTreeMap::new();
    let mut publish_and_place = |router: &mut VrfSetRouter<A>, arrive: usize, leave: &[u32]| {
        for (id, table) in arrivals.by_ref().take(arrive) {
            oracles.insert(id, table.clone());
            router.insert_vrf(id, table);
        }
        for id in leave {
            oracles.remove(id);
            assert!(router.remove_vrf(*id));
        }
        let snapshot = router.publish();
        let keys = fleet_keys(&oracles, &mut rng, 32);
        assert_matches_oracles(&snapshot, &oracles, &keys, tag);
        (snapshot.set().tables.iter())
            .map(|t| (t.id, t.choice()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        publish_and_place(&mut router, 3, &[]),
        [(1, Shared), (2, Xbw), (3, Serialized)],
        "{tag}"
    );
    assert_eq!(
        publish_and_place(&mut router, 1, &[1]),
        [(2, Xbw), (3, Serialized), (4, Shared)],
        "{tag}: VRF 1 out, VRF 4 in"
    );
    assert_eq!(
        publish_and_place(&mut router, 1, &[]),
        [(2, Xbw), (3, Serialized), (4, Shared), (5, Shared)],
        "{tag}: VRF 5 in"
    );
}

#[test]
fn pins_follow_the_vrf_id_v4() {
    pins_follow_the_vrf_id::<u32>("v4");
}

#[test]
fn pins_follow_the_vrf_id_v6() {
    pins_follow_the_vrf_id::<u128>("v6");
}

/// Field-for-field equality of two compiled sets: arena words, every
/// table's directory record and root array, and the aggregate statistics.
fn assert_sets_identical<A: Address>(got: &CompiledVrfSet<A>, want: &CompiledVrfSet<A>, tag: &str) {
    assert_eq!(got.arena, want.arena, "{tag}: arena words");
    let record = |set: &CompiledVrfSet<A>| -> Vec<_> {
        set.tables
            .iter()
            .map(|t| {
                (
                    t.id,
                    t.choice(),
                    t.root,
                    t.routes,
                    t.reachable_nodes,
                    t.solo_nodes,
                    t.root_array().copied(),
                )
            })
            .collect()
    };
    assert_eq!(record(got), record(want), "{tag}: table records");
    assert_eq!(got.stats, want.stats, "{tag}: stats");
}

/// What a kept arena's set shares with the full compile `want` whatever
/// its record order: every table's id, placement, routes, exact reachable
/// count and solo count, and the statistics but for free slots, with the
/// reachable total the exact counts sum to. (The compile's stored counts
/// are exact; a kept set's may be its last compaction's.)
fn assert_answers_as<A: Address>(got: &CompiledVrfSet<A>, want: &CompiledVrfSet<A>, tag: &str) {
    let record = |set: &CompiledVrfSet<A>| -> Vec<_> {
        (set.tables.iter().zip(set.reachable_counts()))
            .map(|(t, reachable)| (t.id, t.choice(), t.routes, reachable, t.solo_nodes))
            .collect()
    };
    assert_eq!(record(got), record(want), "{tag}: table records");
    let exact: Vec<u64> = want.tables.iter().map(|t| t.reachable_nodes).collect();
    assert_eq!(
        want.reachable_counts(),
        exact,
        "{tag}: a compile counts exactly"
    );
    let free = got.stats.free_slots;
    let stats = fibcomp::core::VrfSetStats {
        free_slots: 0,
        total_nodes: got.reachable_counts().iter().sum(),
        ..got.stats
    };
    assert_eq!(stats, want.stats, "{tag}: stats ({free} free slots aside)");
    assert_eq!(
        got.stats.resident_bytes(),
        want.stats.resident_bytes() + 16 * free,
        "{tag}: a free slot is resident"
    );
}

/// `compile_vrf_set` over `oracles`.
fn compile_fleet<A: Address + Send + Sync + 'static>(
    oracles: &BTreeMap<u32, BinaryTrie<A>>,
    config: &BuildConfig,
    policy: &VrfPolicy,
) -> CompiledVrfSet<A> {
    let tables: Vec<VrfTable<'_, A>> = (oracles.iter())
        .map(|(id, trie)| VrfTable { id: *id, trie })
        .collect();
    compile_vrf_set(&tables, config, policy)
}

/// A control plane under churn, mirrored in plain oracles the router
/// never sees.
struct ChurnHarness<A: Address + Send + Sync + 'static> {
    router: VrfSetRouter<A>,
    oracles: BTreeMap<u32, BinaryTrie<A>>,
    config: BuildConfig,
    policy: VrfPolicy,
    rng: Xoshiro256,
    publishes: u64,
}

impl<A: Address + Send + Sync + 'static> ChurnHarness<A> {
    fn new(config: BuildConfig, policy: &VrfPolicy, rng: Xoshiro256) -> Self {
        Self {
            router: VrfSetRouter::new(config, policy.clone()),
            oracles: BTreeMap::new(),
            config,
            policy: policy.clone(),
            rng,
            publishes: 0,
        }
    }

    fn insert_vrf(&mut self, vrf: u32, table: BinaryTrie<A>) {
        self.oracles.insert(vrf, table.clone());
        self.router.insert_vrf(vrf, table);
    }

    fn announce(&mut self, vrf: u32, prefix: Prefix<A>, next_hop: NextHop) {
        self.router.announce(vrf, prefix, next_hop);
        self.oracles
            .entry(vrf)
            .or_default()
            .insert(prefix, next_hop);
    }

    fn withdraw(&mut self, vrf: u32, prefix: Prefix<A>) {
        self.router.withdraw(vrf, prefix);
        if let Some(table) = self.oracles.get_mut(&vrf) {
            table.remove(prefix);
        }
    }

    /// A burst of announces and withdraws into one VRF.
    fn burst(&mut self, vrf: u32) {
        for (prefix, next_hop) in arb_routes::<A>(&mut self.rng, 24) {
            self.announce(vrf, prefix, next_hop);
        }
        let victims: Vec<Prefix<A>> = self.oracles[&vrf]
            .iter()
            .step_by(7)
            .take(5)
            .map(|(p, _)| p)
            .collect();
        for prefix in victims {
            self.withdraw(vrf, prefix);
        }
    }

    /// Publishes and checks the installed set against a from-scratch
    /// compile and every oracle — answers, table records, statistics —
    /// and its image, which the set writes compacted, against the full
    /// compile's: the same bytes, loading back into the full compile's
    /// set. Returns the installed snapshot.
    fn publish_and_check(&mut self, tag: &str) -> std::sync::Arc<fibcomp::router::VrfSnapshot<A>> {
        let snapshot = self.router.publish();
        self.publishes += 1;
        assert_eq!(
            self.router.epoch(),
            self.publishes,
            "{tag}: one epoch per publish"
        );

        let scratch = compile_fleet(&self.oracles, &self.config, &self.policy);
        assert_answers_as(snapshot.set(), &scratch, tag);
        for table in &snapshot.set().tables {
            let pinned = self.policy.fixed_choice(table.id);
            assert_eq!(Some(table.choice()), pinned, "{tag}: VRF {}", table.id);
        }
        let keys = fleet_keys(&self.oracles, &mut self.rng, 24);
        assert_matches_oracles(&snapshot, &self.oracles, &keys, tag);

        let bytes = write_vrf_image(snapshot.set(), snapshot.epoch()).expect("a fleet image");
        let want = write_vrf_image(&scratch, snapshot.epoch()).expect("a fleet image");
        assert!(bytes == want, "{tag}: the image is not the full compile's");
        let image = FibImage::from_bytes(&bytes).expect("the image loads");
        let loaded = CompiledVrfSet::<A>::from_image(&image).expect("the set loads");
        assert_sets_identical(&loaded, &scratch, &format!("{tag} image"));
        for &(vrf, addr) in &keys {
            assert_eq!(
                loaded.lookup(vrf, addr),
                snapshot.lookup(vrf, addr),
                "{tag} image: vrf {vrf} addr {:#x}",
                addr.to_u128()
            );
        }
        snapshot
    }
}

/// The churn sequence: bursts into rotating VRFs, a new id, a removed id,
/// a table withdrawn down to empty, and two bursts between one publish and
/// the next. Returns how many of its publishes moved an entropy-chosen λ
/// of some table (0 under a fixed one).
fn churn_answers_as_a_full_compile<A: Address + Send + Sync + 'static>(
    family: &str,
    config: BuildConfig,
    policy: &VrfPolicy,
) -> usize {
    const TABLES: u32 = 6;
    let tag = |step: &str| format!("{family} {:?} {policy:?}: {step}", config.lambda);
    let mut rng = Xoshiro256::for_case("vrf_churn_bit_identity", 0);
    let base: BinaryTrie<A> = FibSpec::dfz_like(300).generate(&mut rng);
    let fleet = VrfFleetSpec {
        tables: TABLES as usize,
        overlap: 0.9,
        seed: 0xC4,
    }
    .generate(&base);
    let mut h = ChurnHarness::new(config, policy, rng);
    for (id, table) in fleet.into_iter().enumerate() {
        h.insert_vrf(id as u32, table);
    }
    let barriers = |h: &ChurnHarness<A>| -> Vec<u8> {
        (h.oracles.values())
            .map(|trie| config.lambda_for(trie))
            .collect()
    };
    let mut moves = 0;
    let mut publish = |h: &mut ChurnHarness<A>, step: &str, before: Vec<u8>| {
        h.publish_and_check(&tag(step));
        moves += usize::from(before != barriers(h));
    };
    let before = barriers(&h);
    publish(&mut h, "first publish", before);

    for round in 0..2 * TABLES {
        let before = barriers(&h);
        h.burst(round % TABLES);
        publish(&mut h, &format!("burst {round}"), before);
    }

    // A new id, by announce into a VRF the router has never seen.
    let before = barriers(&h);
    h.burst(40);
    publish(&mut h, "announce into a new id", before);
    let before = barriers(&h);
    h.burst(3);
    publish(&mut h, "burst beside the new id", before);

    // A whole table installed at once, and one removed: the tables
    // around them keep their ids, their oracles and their placements.
    let donor = h.oracles[&1].clone();
    h.insert_vrf(17, donor);
    publish(&mut h, "insert_vrf", Vec::new());
    for gone in [1, 40] {
        assert!(h.router.remove_vrf(gone));
        h.oracles.remove(&gone);
        publish(&mut h, &format!("remove_vrf {gone}"), Vec::new());
    }

    // A table withdrawn down to empty stays in the fleet, answering None.
    let doomed: Vec<Prefix<A>> = h.oracles[&4].iter().map(|(p, _)| p).collect();
    let before = barriers(&h);
    for prefix in doomed {
        h.withdraw(4, prefix);
    }
    assert!(h.oracles[&4].is_empty());
    publish(&mut h, "table withdrawn to empty", before);
    let before = barriers(&h);
    h.burst(4);
    publish(&mut h, "burst into the emptied table", before);

    // A second burst lands, in another table, before the first is
    // published: one publish carries both.
    let before = barriers(&h);
    h.burst(0);
    h.burst(5);
    publish(&mut h, "two bursts between publishes", before);

    // A publish with nothing to do changes nothing.
    let before = h.router.stats();
    h.router.publish();
    assert_eq!(h.router.stats(), before);
    assert_eq!(h.router.epoch(), h.publishes);
    // The sequence above went through the carry-over path, not around it.
    assert_eq!(before.epochs, h.publishes + 1, "the publishes and epoch 0");
    assert!(
        before.tables_carried > 2 * before.tables_refolded,
        "{}: {before:?}",
        tag("most tables are carried")
    );
    moves
}

/// `Shared`, and a pinned fleet with a dedicated `Serialized` table from
/// the start and a dedicated `Xbw` one installed by `insert_vrf`.
fn churn_policies() -> [VrfPolicy; 2] {
    let choices = BTreeMap::from([(2, VrfEngineChoice::Serialized), (17, VrfEngineChoice::Xbw)]);
    [VrfPolicy::Shared, VrfPolicy::Pinned { choices }]
}

/// The churn at fixed barriers from the root down to the host bits, the
/// default λ 11 first. At λ 0 the root itself is a folded node, which an
/// update can move onto a record the arena already holds. A pinned
/// `Serialized` table needs λ ≤ 25 (`SerializedDag::from_dag`), so above
/// that `Shared` runs alone.
fn churn_at_barriers<A: Address + Send + Sync + 'static>(family: &str, barriers: &[u8]) {
    for &lambda in barriers {
        let policies = churn_policies().into_iter();
        for policy in policies.filter(|p| lambda <= 25 || matches!(p, VrfPolicy::Shared)) {
            churn_answers_as_a_full_compile::<A>(family, BuildConfig::with_lambda(lambda), &policy);
        }
    }
}

#[test]
fn every_publish_answers_as_a_full_compile_and_compacts_to_its_bytes_v4() {
    churn_at_barriers::<u32>("v4", &[11, 0, 1, 8, 32]);
}

#[test]
fn every_publish_answers_as_a_full_compile_and_compacts_to_its_bytes_v6() {
    churn_at_barriers::<u128>("v6", &[11, 0, 128]);
}

/// The same churn under an entropy-chosen λ: a table whose barrier moves
/// has its pDAG rebuilt at the new one, and the sequence moves some.
#[test]
fn every_publish_answers_as_a_full_compile_under_an_entropy_barrier() {
    let moves = churn_answers_as_a_full_compile::<u32>(
        "v4",
        BuildConfig::entropy_barrier(),
        &VrfPolicy::Shared,
    );
    assert!(moves > 0, "no publish moved a table's barrier");
}

/// A fleet of `tables` overlapping dfz-like tables in a shared router,
/// published once, with its oracles.
fn published_fleet(tables: usize, routes: usize, overlap: f64, seed: u64) -> ChurnHarness<u32> {
    let mut rng = Xoshiro256::for_case("vrf_publish_counters", seed);
    let base: BinaryTrie<u32> = FibSpec::dfz_like(routes).generate(&mut rng);
    let fleet = VrfFleetSpec {
        tables,
        overlap,
        seed,
    }
    .generate(&base);
    let mut h = ChurnHarness::new(BuildConfig::default(), &VrfPolicy::Shared, rng);
    for (id, table) in (0..).zip(fleet) {
        h.insert_vrf(id, table);
    }
    h.publish_and_check("first publish");
    h
}

/// A publish costs what changed, counted exactly: after the first, which
/// writes every record, each 24-announce BGP burst into one VRF of eight
/// adds under 5 % of the arena's records to the buffer the set before it
/// read, and shares the rest; a publish with nothing dirty writes nothing.
#[test]
fn a_publish_writes_only_what_changed() {
    let mut h = published_fleet(8, 10_000, 0.5, 1);
    let first = h.router.stats();
    assert_eq!((first.recycled, first.compactions), (0, 1));
    assert_eq!(
        first.records_written,
        (h.router.reader().snapshot().set().arena.len() / 2) as u64,
        "the first publish copies every record"
    );
    let stream = fibcomp::workload::updates::bgp_sequence(&mut h.rng, &h.oracles[&3], 4000);
    let mut announces = stream.iter().filter_map(|op| match *op {
        fibcomp::workload::updates::UpdateOp::Announce(p, nh) => Some((p, nh)),
        fibcomp::workload::updates::UpdateOp::Withdraw(_) => None,
    });
    let mut previous = h.router.reader().snapshot().clone();
    for round in 0..13 {
        let vrf = round % 8;
        for (prefix, hop) in announces.by_ref().take(24) {
            h.announce(vrf, prefix, hop);
        }
        let before = h.router.stats();
        let snapshot = h.router.publish();
        let written = h.router.stats().records_written - before.records_written;
        let records = (snapshot.set().arena.len() / 2) as u64;
        assert!(
            20 * written < records,
            "burst {round}: {written} of {records} records written"
        );
        let (now, then) = (&snapshot.set().arena, &previous.set().arena);
        assert!(
            now.as_ptr() == then.as_ptr() && now[..then.len()] == then[..],
            "burst {round}: the set extends the buffer the set before it read"
        );
        previous = snapshot;
    }
    let steady = h.router.stats();
    assert_eq!(steady.recycled, 13, "{steady:?}");
    assert_eq!(steady.compactions, 1, "BGP bursts compact nothing");

    h.router.publish();
    assert_eq!(h.router.stats(), steady, "nothing dirty, nothing written");
    h.publishes = h.router.epoch();
    h.burst(2);
    h.publish_and_check("after the bursts");
}

/// The two control planes split one update stream alike: a single-table
/// pDAG router and a one-VRF fleet, fed the same BGP stream and published
/// at the same points, count the same updates in place, declined and
/// unchanged, and cut the same epochs — a publish after only unchanged
/// updates cuts none on either side.
#[test]
fn both_control_planes_split_updates_alike() {
    use fibcomp::router::{Router, RouterConfig, RouterStats};
    use fibcomp::workload::updates::{bgp_sequence, UpdateOp};

    let mut rng = Xoshiro256::for_case("vrf_update_split", 0);
    let table: BinaryTrie<u32> = FibSpec::dfz_like(2_000).generate(&mut rng);
    let stream = bgp_sequence(&mut rng, &table, 3_000);
    let config = RouterConfig {
        build: BuildConfig::default(),
        publish_every: None,
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(table.clone(), config);
    let mut fleet = VrfSetRouter::new(config.build, VrfPolicy::Shared);
    fleet.insert_vrf(0, table);
    fleet.publish();
    let split = |stats: RouterStats| {
        let RouterStats {
            updates,
            in_place,
            declined,
            unchanged,
            epochs,
            ..
        } = stats;
        [updates, in_place, declined, unchanged, epochs]
    };
    let delta = |now: RouterStats, then: [u64; 5]| -> Vec<u64> {
        split(now).iter().zip(then).map(|(n, t)| n - t).collect()
    };
    let (router_base, fleet_base) = (split(router.stats()), split(fleet.stats()));
    // One-update bursts first, so that some publish follows nothing but
    // an unchanged update; then bursts of 97.
    let bursts: Vec<_> = (stream.chunks(1).take(200))
        .chain(stream[200..].chunks(97))
        .collect();
    for (i, burst) in bursts.iter().enumerate() {
        for op in *burst {
            match *op {
                UpdateOp::Announce(prefix, next_hop) => {
                    router.announce(prefix, next_hop);
                    fleet.announce(0, prefix, next_hop);
                }
                UpdateOp::Withdraw(prefix) => {
                    router.withdraw(prefix);
                    fleet.withdraw(0, prefix);
                }
            }
        }
        router.publish();
        fleet.publish();
        assert_eq!(
            delta(router.stats(), router_base),
            delta(fleet.stats(), fleet_base),
            "burst {i}: (updates, in place, declined, unchanged, epochs)"
        );
    }
    let counted = delta(fleet.stats(), fleet_base);
    assert_eq!(counted[0], stream.len() as u64);
    assert!(counted[3] > 0, "the stream re-announced no route unchanged");
    assert!(
        counted[4] < bursts.len() as u64,
        "every burst cut an epoch: {counted:?}"
    );
}

/// A burst that changes no route in its VRF — same-hop re-announces and
/// withdraws of prefixes the VRF does not hold — leaves the VRF clean:
/// the publish after it hands back the snapshot already served, at the
/// same epoch, and refolds no table; the burst is counted unchanged.
#[test]
fn a_burst_that_changes_no_route_publishes_nothing() {
    let mut h = published_fleet(4, 2_000, 0.5, 3);
    let held: Vec<(Prefix<u32>, NextHop)> = h.oracles[&2].iter().step_by(3).collect();
    let absent: Vec<Prefix<u32>> = (0..64u32)
        .map(|i| Prefix::new(0xE000_0000 | i << 8, 24))
        .filter(|&p| h.oracles[&2].exact_match(p).is_none())
        .collect();
    assert!(!held.is_empty() && !absent.is_empty());
    let noops = (held.len() + absent.len()) as u64;
    let served = h.router.publish();
    let (epoch, before) = (h.router.epoch(), h.router.stats());
    for (prefix, hop) in held {
        assert_eq!(h.router.announce(2, prefix, hop), Some(hop));
    }
    for prefix in absent {
        assert_eq!(h.router.withdraw(2, prefix), None);
    }
    let snapshot = h.router.publish();
    assert!(std::sync::Arc::ptr_eq(&snapshot, &served), "a new set");
    assert_eq!(h.router.epoch(), epoch);
    let counted = fibcomp::router::RouterStats {
        updates: before.updates + noops,
        unchanged: before.unchanged + noops,
        ..before
    };
    assert_eq!(h.router.stats(), counted);
    h.burst(2);
    h.publish_and_check("a burst after the no-ops");
}

/// A set published between compactions counts exactly on demand: each
/// shared table reaches the nodes a one-table compile of its oracle
/// holds, a dedicated one none. Its stored counts are what the docs say:
/// a re-interned table's is the last compaction's, and a table new to the
/// arena is counted as it arrives.
fn counts_between_compactions_are_exact_on_demand<A: Address + Send + Sync + 'static>(tag: &str) {
    let mut rng = Xoshiro256::for_case("vrf_counts_on_demand", 0);
    let base: BinaryTrie<A> = FibSpec::dfz_like(1500).generate(&mut rng);
    let fleet = VrfFleetSpec {
        tables: 4,
        overlap: 0.9,
        seed: 0xC0C0,
    }
    .generate(&base);
    let policy = VrfPolicy::Pinned {
        choices: BTreeMap::from([(1, VrfEngineChoice::Serialized)]),
    };
    let config = BuildConfig::default();
    let mut h = ChurnHarness::new(config, &policy, rng);
    for (id, table) in (0..).zip(fleet) {
        h.insert_vrf(id, table);
    }
    let compacted = h.publish_and_check(&format!("{tag} first publish"));
    let compacted: Vec<u64> = (compacted.set().tables.iter())
        .map(|t| t.reachable_nodes)
        .collect();
    let donor = h.oracles[&2].clone();
    h.insert_vrf(9, donor);
    for vrf in [0, 1, 2] {
        h.burst(vrf);
    }
    let before = h.router.stats();
    let snapshot = h.publish_and_check(&format!("{tag} bursts"));
    let after = h.router.stats();
    assert_eq!(
        (after.recycled - before.recycled, after.compactions),
        (1, before.compactions),
        "{tag}: the publish recycles, it does not compact"
    );
    let set = snapshot.set();
    let on_demand = set.reachable_counts();
    for (table, &count) in set.tables.iter().zip(&on_demand) {
        let want = match table.choice() {
            VrfEngineChoice::Shared => solo_nodes(&h.oracles[&table.id], &config),
            _ => 0,
        };
        assert_eq!(count, want, "{tag}: VRF {} counts its own fold", table.id);
    }
    let stored: Vec<u64> = set.tables.iter().map(|t| t.reachable_nodes).collect();
    let mut want = compacted;
    want.push(on_demand[4]);
    assert_eq!(
        stored, want,
        "{tag}: re-interned tables keep the compaction's counts, a new one is counted"
    );
    assert_ne!(stored, on_demand, "{tag}: the bursts moved some count");
}

#[test]
fn counts_between_compactions_are_exact_on_demand_v4() {
    counts_between_compactions_are_exact_on_demand::<u32>("v4");
}

#[test]
fn counts_between_compactions_are_exact_on_demand_v6() {
    counts_between_compactions_are_exact_on_demand::<u128>("v6");
}

/// Withdrawing tables route by route frees arena records; the publish
/// whose free slots pass a quarter of the arena compacts it, and the set
/// it installs is then the full compile's, word for word. Publishes
/// before it hold free slots and answer as the full compile does.
#[test]
fn a_churn_past_a_quarter_free_compacts_to_a_full_compile() {
    let mut h = published_fleet(4, 1500, 0.3, 2);
    let mut held_free = false;
    for round in 0.. {
        assert!(
            round < 200,
            "free slots never passed a quarter of the arena"
        );
        let vrf = 1 + round % 3;
        let doomed: Vec<Prefix<u32>> = h.oracles[&vrf]
            .iter()
            .step_by(4)
            .take(40)
            .map(|(p, _)| p)
            .collect();
        for prefix in doomed {
            h.withdraw(vrf, prefix);
        }
        let before = h.router.stats();
        let snapshot = h.publish_and_check(&format!("withdrawals {round}"));
        let set = snapshot.set();
        if h.router.stats().compactions > before.compactions {
            assert!(held_free, "a publish before the compaction held free slots");
            assert_eq!(set.stats.free_slots, 0);
            let full = compile_fleet(&h.oracles, &h.config, &h.policy);
            assert_sets_identical(set, &full, "compacted");
            break;
        }
        let slots = (set.arena.len() / 2) as u64;
        assert!(
            4 * set.stats.free_slots <= slots,
            "round {round}: past a quarter, not compacted"
        );
        held_free |= set.stats.free_slots > 0;
    }
}

/// A sync whose records outgrow the arena's log before its free slots
/// pass a quarter grows the log into a buffer twice the size instead of
/// compacting: the readers move to the new buffer (a compaction by the
/// counters, every record written), the set keeps its free slots and
/// interning order, a set held from before still answers for its own
/// epoch, and the next burst appends to the grown buffer again.
#[test]
fn a_fleet_log_that_fills_mid_sync_grows_and_moves_readers() {
    let mut h = published_fleet(2, 1500, 0.5, 3);
    let held = h.router.reader().snapshot().clone();
    let then = h.oracles.clone();
    let keys = fleet_keys(&then, &mut h.rng, 64);

    // A table four times the size of either, sharing nothing with them,
    // and a burst that frees some records in the same sync.
    let mut rng = Xoshiro256::for_case("vrf_log_growth", 0);
    let big: BinaryTrie<u32> = FibSpec::dfz_like(6000).generate(&mut rng);
    h.insert_vrf(2, big);
    h.burst(0);
    let before = h.router.stats();
    let snapshot = h.publish_and_check("growth");
    let after = h.router.stats();
    let set = snapshot.set();
    assert!(set.stats.free_slots > 0, "grown, not compacted");
    let full = compile_fleet(&h.oracles, &h.config, &h.policy);
    assert_ne!(set.arena, full.arena, "grown, not compacted");
    assert_eq!(
        (after.compactions, after.recycled),
        (before.compactions + 1, before.recycled),
        "the readers moved to a new buffer"
    );
    assert_eq!(
        after.records_written - before.records_written,
        (set.arena.len() / 2) as u64,
        "a new buffer: every record written"
    );
    assert_ne!(set.arena.as_ptr(), held.set().arena.as_ptr());
    assert_matches_oracles(&held, &then, &keys, "held across the growth");

    h.burst(1);
    let grown = snapshot;
    let snapshot = h.publish_and_check("after the growth");
    let next = h.router.stats();
    assert_eq!(
        (next.compactions, next.recycled),
        (after.compactions, after.recycled + 1),
        "the burst after it appends"
    );
    let (now, then) = (&snapshot.set().arena, &grown.set().arena);
    assert!(now.as_ptr() == then.as_ptr() && now[..then.len()] == then[..]);
}
