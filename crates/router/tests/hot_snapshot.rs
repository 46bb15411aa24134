//! A hot epoch snapshot is gated by its `HotFront`, and answers exactly as
//! the control FIB does in both gate modes — through `lookup`,
//! `lookup_batch` and `lookup_stream`, on an owned engine and on the
//! zero-copy view of an image that carries the slab.

use fib_core::{write_image_hot, HotConfig, ImageCodec, SerializedDag};
use fib_router::{EpochSnapshot, Router, RouterConfig};
use fib_trie::{BinaryTrie, NextHop};
use fib_workload::rng::{Rng, Xoshiro256};
use fib_workload::{FibSpec, HeatMap};

/// One probing window of the gate and one re-arm evaluation, in lookups
/// (`fib_core::hot`'s `GATE_WINDOW`, `GATE_REARM_WINDOW` × `GATE_SAMPLE`).
const WINDOW: usize = 4096;
const REARM: usize = 512 * 64;

fn config() -> RouterConfig {
    RouterConfig {
        publish_every: None,
        ..RouterConfig::default()
    }
}

/// A router serving a hot epoch, and the sampled keys its slab answers.
fn hot_router() -> (Router<u32, SerializedDag<u32>>, Vec<u32>) {
    let mut rng = Xoshiro256::seed_from_u64(5);
    let control: BinaryTrie<u32> = FibSpec::dfz_like(2000).generate(&mut rng);
    let mut router = Router::new(control, config());
    let heat = HeatMap::new(1, 24, 4096);
    let keys: Vec<u32> = (0..20_000)
        .map(|_| rng.next_u64() as u32 & 0xFF3F_00FF)
        .collect();
    for &key in &keys {
        heat.sketch(0).record(key);
    }
    let (snap, _, stats) = router.publish_hot(&heat, &HotConfig::for_width(32));
    assert!(stats.promoted > 0, "no pure block to pin");
    // Keep only keys the slab answers: traffic with a 100 % hit rate.
    let slab = snap
        .hot_slab()
        .expect("hot publish attaches the slab")
        .as_ref();
    let pinned: Vec<u32> = keys
        .into_iter()
        .filter(|&key| slab.probe_addr(key).is_some())
        .collect();
    assert!(pinned.len() > 1000, "only {} slab-only keys", pinned.len());
    (router, pinned)
}

/// Serves `keys` (cycled to `count`) through all three entry points and
/// compares every answer with the control FIB.
fn serve_and_compare<E: ImageCodec<u32>>(
    snap: &EpochSnapshot<E>,
    control: &BinaryTrie<u32>,
    keys: &[u32],
    count: usize,
) {
    let keys: Vec<u32> = keys.iter().copied().cycle().take(count).collect();
    let want: Vec<Option<NextHop>> = keys.iter().map(|&key| control.lookup(key)).collect();
    let mut out = vec![None; 256];
    for (chunk, want) in keys.chunks(256).zip(want.chunks(256)) {
        snap.lookup_batch(chunk, &mut out);
        assert_eq!(&out[..chunk.len()], want, "lookup_batch");
        out.fill(Some(NextHop::new(u32::MAX - 1)));
        snap.lookup_stream(chunk, &mut out);
        assert_eq!(&out[..chunk.len()], want, "lookup_stream");
    }
    for (&key, &want) in keys.iter().zip(&want).take(WINDOW) {
        assert_eq!(snap.lookup(key), want, "lookup at {key:#010x}");
    }
}

/// Drives the snapshot's gate through probing → bypassed → re-armed,
/// checking answers in each mode.
fn drive_both_gate_modes<E: ImageCodec<u32>>(
    snap: &EpochSnapshot<E>,
    control: &BinaryTrie<u32>,
    pinned: &[u32],
) {
    assert_eq!(snap.hot_bypassed(), Some(false), "a fresh gate probes");
    serve_and_compare(snap, control, pinned, 2 * WINDOW);
    assert_eq!(
        snap.hot_bypassed(),
        Some(false),
        "slab-only keys keep it probing"
    );

    // Uniform keys all but never hit a few thousand /24 blocks: below
    // any threshold the calibration can produce (its floor is 5 %).
    let mut rng = Xoshiro256::seed_from_u64(9);
    let uniform: Vec<u32> = (0..2 * WINDOW).map(|_| rng.next_u64() as u32).collect();
    serve_and_compare(snap, control, &uniform, uniform.len());
    assert_eq!(
        snap.hot_bypassed(),
        Some(true),
        "uniform keys bypass the probe"
    );
    serve_and_compare(snap, control, &uniform, uniform.len());
    serve_and_compare(snap, control, pinned, WINDOW);

    // The batch paths keep sampling while bypassed, so a shift back onto
    // the pinned blocks re-arms the probe.
    serve_and_compare(snap, control, pinned, 2 * REARM);
    assert_eq!(snap.hot_bypassed(), Some(false), "slab-only keys re-arm it");
}

#[test]
fn owned_hot_snapshot_is_gated_and_equivalent_in_both_modes() {
    let (router, pinned) = hot_router();
    let snap = router.snapshot();
    assert!(!snap.is_image_backed());
    drive_both_gate_modes(&snap, router.control(), &pinned);
}

#[test]
fn image_backed_hot_snapshot_is_gated_and_equivalent_in_both_modes() {
    let (router, pinned) = hot_router();
    let served = router.snapshot();
    let bytes = write_image_hot(
        served.engine().expect("owned engine"),
        Some(router.control()),
        served.epoch(),
        served.hot_slab().expect("hot epoch"),
    )
    .expect("serialized dag has an image codec");
    let spool = std::env::temp_dir().join(format!("fib-hot-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).expect("spool dir");
    let name = format!("epoch-{:016x}.img", served.epoch());
    std::fs::write(spool.join(name), bytes).expect("stage image");

    let restored = Router::<u32, SerializedDag<u32>>::warm_restart(&spool, config())
        .expect("the staged image restarts");
    let snap = restored.snapshot();
    assert!(snap.is_image_backed());
    assert_eq!(
        snap.hot_slab(),
        served.hot_slab(),
        "the image's slab is served again"
    );
    drive_both_gate_modes(&snap, restored.control(), &pinned);
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn plain_snapshots_carry_no_gate() {
    let (mut router, _) = hot_router();
    router.announce("203.0.113.0/24".parse().unwrap(), NextHop::new(3));
    let snap = router.publish();
    assert!(snap.hot_slab().is_none());
    assert_eq!(snap.hot_bypassed(), None);
}
