//! The declared surface and the emitted surface are one and the same:
//! `BENCHMARK.json` is the registry's manifest verbatim, every name obeys
//! the driver's limits, and a run emits exactly the declared names.

use std::collections::HashSet;

use fib_benchmark::plan::Plan;
use fib_benchmark::registry::{manifest_json, Better, END_TO_END, PER_LAYER, WORKLOADS};
use fib_benchmark::run_workload;

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_registry_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        manifest_json(),
        "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

#[test]
fn declared_names_units_and_bounds_obey_the_contract() {
    let mut seen = HashSet::new();
    for workload in WORKLOADS {
        assert!(well_formed(workload.name), "{}", workload.name);
        assert!(
            seen.insert(workload.name),
            "{} declared twice",
            workload.name
        );
        assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(def.name), "{}", def.name);
        assert!(seen.insert(def.name), "{} declared twice", def.name);
        assert!(
            !def.unit.is_empty()
                && def.unit.len() <= 16
                && def
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit of {}",
            def.name
        );
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for def in END_TO_END {
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", def.name);
    }
    assert!(PER_LAYER.iter().all(|def| def.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|def| def.name == "setup_s")
        .expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = END_TO_END
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
}

#[test]
fn a_run_emits_exactly_the_declared_names() {
    let plan = Plan::new(0.6, true, true, true);
    let outcome = run_workload("churn-spool", &plan, 3).expect("workload runs");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);
    let declared: HashSet<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|def| def.name)
        .collect();
    for name in outcome.values.keys() {
        assert!(declared.contains(name), "{name} emitted but not declared");
    }
    // Every end-to-end metric is measured, and none reads zero.
    for def in END_TO_END {
        assert!(
            outcome.get(def.name) > 0.0,
            "{} is missing or zero",
            def.name
        );
    }
    // Beside a control thread the lookup rate is the whole pass: no
    // slice that could escape a publish is ever picked.
    assert!(outcome.rate_slices.is_empty());
    assert_eq!(outcome.get("lookup_mlps"), outcome.mean_mlps);
    // The driver's line carries each table whole, whatever the workload
    // engages, and nothing else.
    for (end_to_end, per_layer) in [(true, false), (false, true)] {
        let line = outcome.result_line(end_to_end, per_layer);
        for def in END_TO_END {
            assert_eq!(line.contains(&format!("\"{}\":", def.name)), end_to_end);
        }
        for def in PER_LAYER {
            assert_eq!(line.contains(&format!("\"{}\":", def.name)), per_layer);
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    }
    assert!(outcome.table(true, true).contains("QUICK"));
}
