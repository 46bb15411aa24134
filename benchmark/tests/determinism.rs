//! The seed alone fixes the inputs and every metric marked exact: two
//! runs with one seed agree bit for bit on them, however the machine's
//! speed moved the time-bound passes; another seed gives other inputs.

use fib_benchmark::plan::{key_ring, taz, update_stream, Plan, Seeds, TABLE_SEED};
use fib_benchmark::registry::{END_TO_END, PER_LAYER, WORKLOADS};
use fib_benchmark::run_workload;
use fib_workload::loadgen::KeyModel;

#[test]
fn one_seed_gives_bit_identical_exact_metrics() {
    let plan = Plan::new(0.6, true, true, true);
    for workload in WORKLOADS {
        let first = run_workload(workload.name, &plan, 7).expect("workload runs");
        let second = run_workload(workload.name, &plan, 7).expect("workload runs");
        assert_eq!(first.failed + second.failed, 0, "{}", workload.name);
        let mut exact = 0;
        for def in END_TO_END.iter().chain(PER_LAYER).filter(|d| d.exact) {
            assert_eq!(
                first.get(def.name).to_bits(),
                second.get(def.name).to_bits(),
                "{} on {}: {} vs {}",
                def.name,
                workload.name,
                first.get(def.name),
                second.get(def.name)
            );
            exact += usize::from(first.values.contains_key(def.name));
        }
        assert!(
            exact >= 10,
            "{} measured {exact} exact metrics",
            workload.name
        );
    }
}

#[test]
fn another_seed_gives_another_ring_and_update_stream() {
    let (a, b) = (Seeds::derive(1), Seeds::derive(2));
    assert_ne!(a, b);
    assert_eq!(a, Seeds::derive(1));
    assert_eq!(
        (a.table, b.table),
        (TABLE_SEED, TABLE_SEED),
        "the table is the workload, not an input of the run"
    );
    let table = taz(0.01, a.table);
    let ring = |seeds: Seeds| key_ring(KeyModel::Zipf { s: 1.0 }, &table, seeds.keys, 4096);
    assert_eq!(ring(a), ring(a));
    assert_ne!(ring(a), ring(b));
    let updates = |seeds: Seeds| update_stream(&table, seeds.updates, 1024);
    assert_eq!(updates(a), updates(a));
    assert_ne!(updates(a), updates(b));
}
