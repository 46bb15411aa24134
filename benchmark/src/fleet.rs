//! The `vrf-fleet` workload: sixteen taz-derived VRFs compiled into one
//! shared arena by `VrfSetRouter`, a forwarding thread resolving mixed
//! `(vrf, addr)` batches beside a control thread that announces a burst
//! into one VRF and republishes — a full recompile of the fleet.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fib_core::{compile_vrf_set, BuildConfig, FibEntropy, VrfPolicy, VrfTable};
use fib_router::{VrfBatchScratch, VrfDataPlane, VrfSetRouter, VrfSnapshot};
use fib_trie::NextHop;
use fib_workload::updates::UpdateOp;
use fib_workload::{instance_fleet, mixed_keys};

use crate::loops::{Control, Counters, Plane, BATCH};
use crate::micro::{
    memory_profile, ns_per_key, ns_per_ring_key, oracle_update_ns, packed_walk, repeat_set_up,
};
use crate::phases::{note_agreement, BurstFeed, Phases};
use crate::plan::{update_stream, Plan, Seeds};
use crate::report::Outcome;

/// VRFs in the fleet.
const TABLES: usize = 16;
/// Share of the base table every VRF keeps.
const OVERLAP: f64 = 0.9;
/// Updates per burst; each burst lands in one VRF and ends in a publish.
const BURST: usize = 100;

type Key = (u32, u32);

struct FleetSetup {
    router: VrfSetRouter<u32>,
    ring: Arc<Vec<Key>>,
    updates: Vec<UpdateOp<u32>>,
    first_publish_s: f64,
}

/// Fleet generation + key ring + update stream + first compile + first
/// publish.
fn set_up(plan: &Plan, seeds: Seeds) -> FleetSetup {
    let fleet = instance_fleet("taz", 0.5 * plan.scale, TABLES, OVERLAP, seeds.table)
        .expect("taz is a paper instance");
    let ring = Arc::new(mixed_keys::<u32>(TABLES, None, seeds.keys, plan.ring_len));
    let updates = update_stream(&fleet[0], seeds.updates, plan.update_len);
    let mut router = VrfSetRouter::new(BuildConfig::default(), VrfPolicy::Shared);
    for (id, table) in fleet.into_iter().enumerate() {
        router.insert_vrf(id as u32, table);
    }
    let started = Instant::now();
    router.publish();
    FleetSetup {
        router,
        ring,
        updates,
        first_publish_s: started.elapsed().as_secs_f64(),
    }
}

/// The forwarding thread's reader: `VrfDataPlane::snapshot()` at the
/// pickup boundary, the snapshot's bucketed `lookup_batch` at the lookup
/// boundary (together they are `VrfDataPlane::lookup_batch`).
struct FleetPlane {
    reader: VrfDataPlane<u32>,
    snapshot: Arc<VrfSnapshot<u32>>,
    scratch: VrfBatchScratch<u32>,
}

impl FleetPlane {
    fn new(mut reader: VrfDataPlane<u32>) -> Self {
        let snapshot = Arc::clone(reader.snapshot());
        Self {
            reader,
            snapshot,
            scratch: VrfBatchScratch::new(),
        }
    }
}

impl Plane for FleetPlane {
    type Key = Key;

    #[inline]
    fn get(&mut self) -> u64 {
        let current = self.reader.snapshot();
        if !Arc::ptr_eq(current, &self.snapshot) {
            self.snapshot = Arc::clone(current);
        }
        self.snapshot.epoch()
    }

    /// The handle does not expose its publication generation; the epoch
    /// of the snapshot it holds changes exactly when it refreshes.
    #[inline]
    fn generation(&self) -> u64 {
        self.snapshot.epoch()
    }

    #[inline]
    fn lookup(&mut self, keys: &[Key], out: &mut [Option<NextHop>]) {
        self.snapshot.lookup_batch(keys, out, &mut self.scratch);
    }
}

/// The control thread's handle. Burst `n` lands in VRF `n mod 16`.
struct FleetControl<'r> {
    router: &'r mut VrfSetRouter<u32>,
    reader: VrfDataPlane<u32>,
}

fn vrf_of(burst: usize) -> u32 {
    (burst % TABLES) as u32
}

impl Control for FleetControl<'_> {
    fn apply(&mut self, burst: usize, op: &UpdateOp<u32>) {
        match *op {
            UpdateOp::Announce(prefix, next_hop) => {
                self.router.announce(vrf_of(burst), prefix, next_hop);
            }
            UpdateOp::Withdraw(prefix) => {
                self.router.withdraw(vrf_of(burst), prefix);
            }
        }
    }

    fn publish(&mut self) {
        self.router.publish();
    }

    fn visible(&mut self, burst: usize, op: &UpdateOp<u32>) -> bool {
        let (vrf, addr) = (vrf_of(burst), op.prefix().addr());
        let oracle = self.router.oracle(vrf).and_then(|t| t.lookup(addr));
        self.reader.lookup(vrf, addr) == oracle
    }

    /// Every publish that follows an update is an epoch and a full
    /// recompile; the fleet router has no in-place path and no spool.
    fn counters(&self) -> Counters {
        Counters {
            epochs: self.router.epoch(),
            rebuilds: self.router.epoch(),
            ..Counters::default()
        }
    }
}

/// Checks `keys` through the published fleet's batch path against each
/// VRF's oracle; returns the mismatches.
fn mismatches(router: &VrfSetRouter<u32>, keys: &[Key]) -> u64 {
    let mut reader = router.reader();
    let mut scratch = VrfBatchScratch::new();
    let mut out = vec![None; BATCH];
    let mut wrong = 0u64;
    for chunk in keys.chunks(BATCH) {
        reader.lookup_batch(chunk, &mut out, &mut scratch);
        wrong += chunk
            .iter()
            .zip(&out)
            .filter(|&(&(vrf, addr), &answer)| {
                answer != router.oracle(vrf).and_then(|t| t.lookup(addr))
            })
            .count() as u64;
    }
    wrong
}

/// Runs the workload.
#[must_use]
pub fn run(plan: &Plan, seed: u64) -> Outcome {
    let seeds = Seeds::derive(seed);
    let mut out = Outcome::new("vrf-fleet", seed, plan.quick);

    let (min_reps, budget) = plan.setup_reps();
    let (setup_s, setup) = repeat_set_up(min_reps, budget, || set_up(plan, seeds));
    let FleetSetup {
        mut router,
        ring,
        updates,
        first_publish_s,
    } = setup;
    let check_keys = &ring[..plan.check_keys.min(ring.len())];

    out.check(check_keys.len() as u64, mismatches(&router, check_keys));

    // Sizes, taken before any update so they depend on the seed alone.
    let served = Arc::clone(router.reader().snapshot());
    let stats = served.set().stats;
    let fib_bytes = stats.resident_bytes() as f64;
    if plan.end_to_end {
        let entropy_bits: f64 = (0..TABLES as u32)
            .filter_map(|vrf| router.oracle(vrf))
            .map(|table| FibEntropy::of_trie(table).entropy_bits())
            .sum();
        out.set("setup_s", setup_s);
        out.set("fib_bytes", fib_bytes);
        out.set("size_over_entropy", 8.0 * fib_bytes / entropy_bits);
    }

    if plan.per_layer {
        fleet_layers(plan, seeds, &router, &served, &updates, &ring, &mut out);
        out.set("vrf.compile_s", first_publish_s);
        out.set("vrf.sharing_ratio", stats.sharing_ratio());
        out.set(
            "vrf.saved_pct",
            stats.bytes_saved() as f64 / stats.independent_bytes.max(1) as f64 * 100.0,
        );
    }
    drop(served);

    // The compile a per-layer run times between passes builds from the
    // tables set-up generated (bursts change a few hundred of 3 million
    // routes).
    let tables: Vec<_> = (0..TABLES as u32)
        .filter(|_| plan.per_layer)
        .filter_map(|id| router.oracle(id).cloned().map(|trie| (id, trie)))
        .collect();
    let compile = || {
        let tables: Vec<VrfTable<'_, u32>> = tables
            .iter()
            .map(|(id, trie)| VrfTable { id: *id, trie })
            .collect();
        black_box(compile_vrf_set(
            &tables,
            &BuildConfig::default(),
            &VrfPolicy::Shared,
        ));
    };
    let reader = router.reader();
    let new_plane = || FleetPlane::new(reader.clone());
    Phases {
        plan,
        new_plane: &new_plane,
        ring: &ring,
        heat: None,
        control: FleetControl {
            reader: reader.clone(),
            router: &mut router,
        },
        feed: BurstFeed::new(&updates, BURST),
        concurrent: true,
        product_pass: None,
        fixed_bursts: 2,
        compile: &compile,
    }
    .run(&mut out);

    if plan.per_layer {
        out.set("vrf.republish_s", out.get("router.publish_ms_p50") / 1e3);
        let predicted = out.get("workload.fill_ns")
            + out.get("snapcell.get_ns") / BATCH as f64
            + out.get("engine.stream_ns");
        note_agreement(&mut out, predicted);
    }

    out.check(check_keys.len() as u64, mismatches(&router, check_keys));
    out
}

/// Micro-measurements of the compiled set and of the layers around it.
fn fleet_layers(
    plan: &Plan,
    seeds: Seeds,
    router: &VrfSetRouter<u32>,
    served: &VrfSnapshot<u32>,
    updates: &[UpdateOp<u32>],
    ring: &[Key],
    out: &mut Outcome,
) {
    let per_pass = plan.micro_keys;
    let mut answers = vec![None; per_pass];
    out.set(
        "engine.scalar_ns",
        ns_per_ring_key(ring, per_pass, |keys| {
            for (&(vrf, addr), slot) in keys.iter().zip(answers.iter_mut()) {
                *slot = served.lookup(black_box(vrf), black_box(addr));
            }
            black_box(&answers);
        }),
    );
    // The set has one batched path (VRF-bucketed `lookup_batch`); it is
    // what the forwarding loop calls, so it stands for the stream figure.
    let mut scratch = VrfBatchScratch::new();
    let mut batch_out = vec![None; BATCH];
    let batch = ns_per_ring_key(ring, per_pass, |keys| {
        for chunk in keys.chunks(BATCH) {
            served.lookup_batch(black_box(chunk), &mut batch_out, &mut scratch);
            black_box(&batch_out);
        }
    });
    out.set("engine.batch_ns", batch);
    out.set("engine.stream_ns", batch);

    // Every VRF is a root into the one shared arena: replay the walk
    // over it (16 bytes per node record).
    let set = served.set();
    let check_keys = &ring[..plan.check_keys.min(ring.len())];
    let memory = memory_profile(check_keys.len(), |i, sink| {
        let (vrf, addr) = check_keys[i];
        let root = set.table(vrf).map_or(u32::MAX, |table| table.root);
        packed_walk(&set.arena, root, addr, sink).1
    });
    memory.record(out);

    out.set(
        "workload.gen_ns",
        ns_per_key(per_pass, || {
            black_box(mixed_keys::<u32>(TABLES, None, seeds.keys, per_pass));
        }),
    );
    let mut reader = router.reader();
    let calls = 1usize << 20;
    out.set(
        "snapcell.get_ns",
        ns_per_key(calls, || {
            for _ in 0..calls {
                black_box(reader.snapshot());
            }
        }),
    );
    if let Some(table) = router.oracle(0) {
        let sample = &updates[..updates.len().min(50_000)];
        out.set("trie.update_ns", oracle_update_ns(table, sample));
    }
}
