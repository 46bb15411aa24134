//! The traced pass: spans nest, children do not overlap, and on the
//! workload where per-batch overhead matters most they account for
//! nearly all of the traced wall time.

use fib_benchmark::plan::Plan;
use fib_benchmark::run_workload;
use fib_benchmark::trace::{check_nesting, SpanKind, NO_PARENT};

#[test]
fn serve_uniform_spans_nest_and_cover_the_traced_wall_time() {
    let plan = Plan::new(1.8, true, false, true);
    let outcome = run_workload("serve-uniform", &plan, 11).expect("workload runs");
    assert_eq!(outcome.failed, 0);
    check_nesting(&outcome.spans).expect("spans nest");
    let batches = outcome
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Batch)
        .count();
    assert!(batches > 100, "traced pass recorded {batches} batches");
    assert!(outcome
        .spans
        .iter()
        .all(|s| (s.parent == NO_PARENT) == matches!(s.kind, SpanKind::Batch | SpanKind::Burst)));
    let cover = outcome.get("runtime.span_cover");
    assert!((0.9..=1.0).contains(&cover), "span_cover {cover}");
    // Self time of a batch is what its children leave uncovered.
    assert!(outcome.get("runtime.unattributed_ns") < outcome.get("runtime.wall_ns"));
}

#[test]
fn churn_spans_come_from_both_threads_and_still_nest() {
    let plan = Plan::new(1.2, true, false, true);
    let outcome = run_workload("churn-inplace", &plan, 11).expect("workload runs");
    assert_eq!(outcome.failed, 0);
    check_nesting(&outcome.spans).expect("spans nest");
    for kind in [
        SpanKind::Batch,
        SpanKind::Lookup,
        SpanKind::Burst,
        SpanKind::Publish,
    ] {
        assert!(
            outcome.spans.iter().any(|s| s.kind == kind),
            "no {} span",
            kind.name()
        );
    }
    assert!(outcome.get("runtime.span_cover") >= 0.9);
    assert!(outcome.get("snapcell.refreshes") >= 1.0);
}
