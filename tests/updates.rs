//! Dynamic behaviour: the folded FIB must track its control FIB exactly
//! under arbitrary update storms, at every barrier setting, with reference
//! counts staying consistent throughout — whether the updates are applied
//! directly or through the `FibUpdate` trait and the router core.

use fibcomp::core::{FibLookup, FibUpdate, PrefixDag, SerializedDag};
use fibcomp::router::{Router, RouterConfig};
use fibcomp::trie::{BinaryTrie, NextHop, Prefix4, RouteTable};
use fibcomp::workload::rng::{Rng, Xoshiro256};
use fibcomp::workload::updates::{bgp_sequence, random_sequence, UpdateOp};
use fibcomp::workload::{traces, FibSpec};

fn rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

/// Applies an update sequence through the `FibUpdate` trait (every op must
/// be accepted in place).
fn apply_in_place<E: FibUpdate<u32>>(engine: &mut E, seq: &[UpdateOp<u32>]) {
    for op in seq {
        match *op {
            UpdateOp::Announce(p, nh) => {
                engine.try_insert(p, nh).expect("in-place insert");
            }
            UpdateOp::Withdraw(p) => {
                engine.try_remove(p).expect("in-place remove");
            }
        }
    }
}

fn assert_dag_tracks_control(dag: &PrefixDag<u32>, keys: &[u32]) {
    for &k in keys {
        assert_eq!(
            dag.lookup(k),
            dag.control().lookup(k),
            "divergence at {k:#010x}"
        );
    }
}

#[test]
fn random_storm_across_barriers() {
    let base: BinaryTrie<u32> = FibSpec::dfz_like(2_000).generate(&mut rng(1));
    let seq: Vec<UpdateOp<u32>> = random_sequence(&mut rng(2), 1_500, 5);
    let keys = traces::uniform::<u32, _>(&mut rng(3), 1500);
    for lambda in [0u8, 5, 11, 20, 32] {
        let mut dag = PrefixDag::from_trie(&base, lambda);
        for (i, op) in seq.iter().enumerate() {
            match *op {
                UpdateOp::Announce(p, nh) => {
                    dag.insert(p, nh);
                }
                UpdateOp::Withdraw(p) => {
                    dag.remove(p);
                }
            }
            if i % 250 == 0 {
                dag.assert_invariants();
            }
        }
        dag.assert_invariants();
        assert_dag_tracks_control(&dag, &keys);
        // Serialization of the post-churn DAG still agrees.
        if lambda <= 25 {
            let ser = SerializedDag::from_dag(&dag);
            for &k in keys.iter().step_by(7) {
                assert_eq!(ser.lookup(k), dag.lookup(k), "λ={lambda} at {k:#x}");
            }
        }
    }
}

#[test]
fn bgp_storm_tracks_control() {
    let base: BinaryTrie<u32> = FibSpec::dfz_like(10_000).generate(&mut rng(4));
    let seq = bgp_sequence(&mut rng(5), &base, 5_000);
    let mut dag = PrefixDag::from_trie(&base, 11);
    apply_in_place(&mut dag, &seq);
    dag.assert_invariants();
    assert_dag_tracks_control(&dag, &traces::uniform::<u32, _>(&mut rng(6), 3000));
}

#[test]
fn router_epochs_track_direct_dag_updates() {
    // The same feed through the router core and through direct DAG calls
    // must land on identical forwarding functions at every publish.
    let base: BinaryTrie<u32> = FibSpec::dfz_like(5_000).generate(&mut rng(13));
    let seq = bgp_sequence(&mut rng(14), &base, 3_000);
    let keys = traces::uniform::<u32, _>(&mut rng(15), 1_000);
    let config = RouterConfig {
        publish_every: None,
        ..RouterConfig::default()
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(base.clone(), config);
    let mut dag = PrefixDag::from_trie(&base, 11);
    for (i, op) in seq.iter().enumerate() {
        match *op {
            UpdateOp::Announce(p, nh) => {
                dag.insert(p, nh);
                router.announce(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                dag.remove(p);
                router.withdraw(p);
            }
        }
        if (i + 1) % 750 == 0 {
            let snapshot = router.publish();
            for &k in &keys {
                assert_eq!(snapshot.lookup(k), dag.lookup(k), "divergence at {k:#x}");
            }
        }
    }
}

#[test]
fn router_tracks_oracle_through_short_prefix_burst() {
    // Routes shorter than /8 each cover many first-byte blocks and sit
    // above the default λ = 11 barrier; a BGP-like feed never draws them.
    // Interleave announces and withdrawals of such covers with ordinary
    // churn and check the published epoch's batch path key by key.
    let base: BinaryTrie<u32> = FibSpec::dfz_like(3_000).generate(&mut rng(16));
    let churn = bgp_sequence(&mut rng(17), &base, 1_000);
    let config = RouterConfig {
        publish_every: None,
        ..RouterConfig::default()
    };
    let mut router: Router<u32, PrefixDag<u32>> = Router::new(base.clone(), config);
    let mut oracle = base;
    let mut r = rng(19);
    let mut covers: Vec<Prefix4> = Vec::new();
    for (i, op) in churn.iter().enumerate() {
        match *op {
            UpdateOp::Announce(p, nh) => {
                oracle.insert(p, nh);
                router.announce(p, nh);
            }
            UpdateOp::Withdraw(p) => {
                oracle.remove(p);
                router.withdraw(p);
            }
        }
        if i % 10 == 0 {
            let p = Prefix4::new(r.random(), r.random_range(1..8));
            let nh = NextHop::new(r.random_range(0..6));
            oracle.insert(p, nh);
            router.announce(p, nh);
            covers.push(p);
        }
        if i % 25 == 24 {
            let p = covers.swap_remove(r.random_range(0..covers.len()));
            oracle.remove(p);
            router.withdraw(p);
        }
    }
    assert!(covers.iter().any(|&p| oracle.exact_match(p).is_some()));
    let snapshot = router.publish();
    let keys = traces::uniform::<u32, _>(&mut rng(18), 2_000);
    let mut batched = vec![None; keys.len()];
    snapshot.lookup_batch(&keys, &mut batched);
    for (&k, &got) in keys.iter().zip(&batched) {
        assert_eq!(got, oracle.lookup(k), "divergence at {k:#x}");
    }
}

#[test]
fn dag_insert_remove_returns_match_route_table() {
    // The DAG's insert/remove return values must behave like a map,
    // matching RouteTable (the oracle) operation by operation.
    let mut dag = PrefixDag::from_trie(&BinaryTrie::new(), 8);
    let mut table: RouteTable<u32> = RouteTable::new();
    let mut r = rng(7);
    for _ in 0..2_000 {
        let p = Prefix4::new(r.random(), r.random_range(0..=32));
        if r.random::<f64>() < 0.7 {
            let nh = NextHop::new(r.random_range(0..6));
            assert_eq!(dag.insert(p, nh), table.insert(p, nh), "insert {p}");
        } else {
            assert_eq!(dag.remove(p), table.remove(p), "remove {p}");
        }
    }
    assert_eq!(dag.len(), table.len());
    dag.assert_invariants();
}

#[test]
fn rebuild_equals_incremental() {
    // Folding the final control FIB from scratch must give the same
    // structure counts as the incrementally maintained DAG (canonicity of
    // hash-consing).
    let base: BinaryTrie<u32> = FibSpec::dfz_like(3_000).generate(&mut rng(8));
    let seq: Vec<UpdateOp<u32>> = random_sequence(&mut rng(9), 2_000, 4);
    let mut dag = PrefixDag::from_trie(&base, 9);
    apply_in_place(&mut dag, &seq);
    let fresh = PrefixDag::from_trie(dag.control(), 9);
    assert_eq!(
        dag.stats(),
        fresh.stats(),
        "incremental fold must be canonical"
    );
    assert_eq!(dag.model_size_bits(), fresh.model_size_bits());
}

#[test]
fn idempotent_reannouncement_is_a_noop_structurally() {
    let base: BinaryTrie<u32> = FibSpec::dfz_like(1_000).generate(&mut rng(10));
    let mut dag = PrefixDag::from_trie(&base, 8);
    let before = dag.stats();
    // Re-announce every route with its existing next-hop.
    let routes: Vec<_> = base.iter().collect();
    for (p, nh) in routes {
        assert_eq!(dag.insert(p, nh), Some(nh));
    }
    dag.assert_invariants();
    assert_eq!(
        dag.stats(),
        before,
        "identical announcements must not change the fold"
    );
}

#[test]
fn insert_then_remove_round_trips_to_baseline() {
    let base: BinaryTrie<u32> = FibSpec::dfz_like(1_000).generate(&mut rng(11));
    let mut dag = PrefixDag::from_trie(&base, 6);
    let baseline = dag.stats();
    let mut r = rng(12);
    let fresh: Vec<Prefix4> = (0..200)
        .map(|_| Prefix4::new(r.random(), r.random_range(6..=32)))
        .filter(|p| base.exact_match(*p).is_none())
        .collect();
    for &p in &fresh {
        dag.insert(p, NextHop::new(99));
    }
    for &p in &fresh {
        dag.remove(p);
    }
    dag.assert_invariants();
    assert_eq!(
        dag.stats(),
        baseline,
        "adding and removing must restore the fold"
    );
}
