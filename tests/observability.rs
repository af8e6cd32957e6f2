//! Observability-layer integration tests: trace span/counter/gauge
//! structure for the full pipeline, cross-policy determinism of the
//! deterministic mapping methods, opt-in invariant audits across the
//! mini corpus, and negative tests pinning a corrupted hierarchy to the
//! failing phase by name.

use multilevel_coarsen::graph::suite;
use multilevel_coarsen::partition::{fm_bisect, spectral_bisect, FmConfig, SpectralConfig};
use multilevel_coarsen::prelude::*;

fn traced_opts(method: MapMethod, cm: ConstructMethod, validate: bool) -> CoarsenOptions {
    let trace = if validate {
        TraceCollector::enabled_with_validation()
    } else {
        TraceCollector::enabled()
    };
    CoarsenOptions {
        method,
        construction: ConstructOptions::with_method(cm),
        seed: 42,
        trace,
        ..Default::default()
    }
}

#[test]
fn coarsen_trace_has_spans_counters_and_gauges_per_level() {
    let g = multilevel_coarsen::graph::generators::grid2d(32, 32);
    let opts = traced_opts(MapMethod::Hec, ConstructMethod::Hash, false);
    let h = coarsen(&ExecPolicy::host(), &g, &opts);
    assert!(
        h.num_levels() >= 2,
        "grid should coarsen through several levels"
    );
    for lvl in 0..h.num_levels() {
        for path in [
            format!("mapping/hec/level{lvl}"),
            format!("construct/hash/level{lvl}"),
        ] {
            assert!(
                h.trace
                    .spans
                    .iter()
                    .any(|s| s.path == path && s.seconds >= 0.0),
                "missing span {path}"
            );
        }
        for gauge in [
            "nv",
            "ne",
            "compression",
            "matched_frac",
            "max_coarse_degree",
        ] {
            let path = format!("level/{lvl}/{gauge}");
            assert!(h.trace.gauge(&path).is_some(), "missing gauge {path}");
        }
        // The per-level nv gauge must agree with the hierarchy itself.
        let nv = h.trace.gauge(&format!("level/{lvl}/nv")).unwrap();
        assert_eq!(nv as usize, h.levels[lvl].graph.n());
    }
    assert!(h.trace.counter("mapping/edges_scanned") >= g.adj().len() as u64);
    // Grids stay below the skew threshold; the vertex-centric row build
    // reads the fine adjacency exactly once per level, as mapping does.
    assert_eq!(
        h.trace.counter("construct/edges_scanned"),
        h.trace.counter("mapping/edges_scanned")
    );
    assert!(h.trace.counter("mapping/passes") as usize >= h.num_levels());
    // No audits were requested, and the aggregate mapping time covers all
    // levels (span_seconds stops at `/` boundaries).
    assert!(h.trace.audits.is_empty());
    assert!(h.trace.span_seconds("mapping") > 0.0);
}

#[test]
fn skewed_construction_reads_the_fine_adjacency_once_per_level() {
    // Hub-heavy input: the degree-based skew optimization engages, and its
    // mirror half comes from a transpose of the coarse rows, not from a
    // second read of the fine adjacency.
    let (g, _) = multilevel_coarsen::graph::cc::largest_component(
        &multilevel_coarsen::graph::generators::rmat(11, 8, 0.57, 0.19, 0.19, 3),
    );
    assert!(g.skew_ratio() > ConstructOptions::default().degree_dedup_skew_threshold);
    for cm in [
        ConstructMethod::Sort,
        ConstructMethod::Hash,
        ConstructMethod::Hybrid,
    ] {
        let h = coarsen(
            &ExecPolicy::host(),
            &g,
            &traced_opts(MapMethod::Hec, cm, false),
        );
        // Mapping counts each level's fine adjacency once (a discarded
        // last level included), so equality pins construction to 1×.
        let scanned = h.trace.counter("construct/edges_scanned");
        assert!(scanned >= g.adj().len() as u64, "{cm:?}");
        assert_eq!(scanned, h.trace.counter("mapping/edges_scanned"), "{cm:?}");
    }
}

#[test]
fn partition_results_carry_full_pipeline_traces() {
    let g = multilevel_coarsen::graph::generators::grid2d(24, 24);
    let policy = ExecPolicy::host();

    let opts = traced_opts(MapMethod::Hec, ConstructMethod::Sort, false);
    let r = fm_bisect(&policy, &g, &opts, &FmConfig::default(), 42);
    for path in [
        "partition/fm/coarsen",
        "partition/fm/refine",
        "fm/pass0",
        "mapping/hec/level0",
    ] {
        assert!(
            r.trace.spans.iter().any(|s| s.path == path),
            "fm trace missing span {path}"
        );
    }
    assert!(r.trace.span_seconds("partition/fm") > 0.0);

    let opts = traced_opts(MapMethod::Hec, ConstructMethod::Sort, false);
    let r = spectral_bisect(&policy, &g, &opts, &SpectralConfig::default(), 42);
    for path in [
        "partition/spectral/coarsen",
        "partition/spectral/refine",
        "fiedler/coarsest",
    ] {
        assert!(
            r.trace.spans.iter().any(|s| s.path == path),
            "spectral trace missing {path}"
        );
    }
    assert!(r.trace.counter("fiedler/power_iterations") > 0);
    // The JSON-lines export round-trips basic shape: one object per line.
    let jsonl = r.trace.to_jsonl_string();
    assert!(jsonl.lines().count() >= r.trace.spans.len());
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad JSONL line: {line}"
        );
    }
}

#[test]
fn deterministic_methods_agree_across_policies() {
    // HEC and MIS2 resolve ties by vertex index, so every execution policy
    // (1 worker or N) must produce bit-identical hierarchies per seed.
    for ng in suite::mini_suite(42) {
        for method in [MapMethod::Hec, MapMethod::Mis2] {
            let opts = CoarsenOptions {
                method,
                seed: 7,
                trace: TraceCollector::disabled(),
                ..Default::default()
            };
            let baseline = coarsen(&ExecPolicy::serial(), &ng.graph, &opts);
            for policy in ExecPolicy::all_test_policies() {
                let h = coarsen(&policy, &ng.graph, &opts);
                assert_eq!(
                    h.num_levels(),
                    baseline.num_levels(),
                    "{}/{method:?}/{policy}: level count",
                    ng.name
                );
                for (lvl, (a, b)) in h.levels.iter().zip(&baseline.levels).enumerate() {
                    assert_eq!(
                        a.mapping.map, b.mapping.map,
                        "{}/{method:?}/{policy}: mapping at level {lvl}",
                        ng.name
                    );
                    assert_eq!(
                        a.graph, b.graph,
                        "{}/{method:?}/{policy}: graph at level {lvl}",
                        ng.name
                    );
                }
            }
        }
    }
}

#[test]
fn audits_pass_for_every_method_and_construction_on_mini_suite() {
    let policy = ExecPolicy::host();
    for ng in suite::mini_suite(42) {
        for method in MapMethod::TABLE4 {
            for cm in ConstructMethod::ALL {
                let opts = traced_opts(method, cm, true);
                let h = coarsen(&policy, &ng.graph, &opts);
                assert!(
                    !h.trace.audits.is_empty(),
                    "{}/{method:?}/{cm:?}: validation recorded no audits",
                    ng.name
                );
                if let Some(fail) = h.trace.first_failed_audit() {
                    panic!(
                        "{}/{method:?}/{cm:?}: audit {} failed in {}: {}",
                        ng.name, fail.check, fail.phase, fail.detail
                    );
                }
            }
        }
    }
}

#[test]
fn corrupted_mapping_is_pinned_to_its_phase() {
    let g = multilevel_coarsen::graph::generators::grid2d(24, 24);
    let policy = ExecPolicy::serial();
    let mut h = coarsen(&policy, &g, &CoarsenOptions::default());
    assert!(h.num_levels() >= 2);
    h.levels[1].mapping.map[0] = u32::MAX;
    let trace = TraceCollector::enabled_with_validation();
    audit_hierarchy(&policy, &trace, &h);
    let fail = trace
        .report()
        .first_failed_audit()
        .cloned()
        .expect("corruption not detected");
    assert_eq!(fail.phase, "mapping/level1");
    assert_eq!(fail.check, "mapping-complete");
}

#[test]
fn corrupted_row_ptr_is_pinned_to_its_phase() {
    let g = multilevel_coarsen::graph::generators::grid2d(24, 24);
    let policy = ExecPolicy::serial();
    let mut h = coarsen(&policy, &g, &CoarsenOptions::default());
    // Rebuild level 0's coarse graph with a non-monotone row_ptr. The last
    // entry stays correct, so construction accepts it — only the audit's
    // CSR well-formedness check can catch it.
    let c = &h.levels[0].graph;
    let mut xadj = c.xadj_vec();
    assert!(xadj.len() > 3);
    xadj.swap(1, 2);
    assert!(xadj[1] > xadj[2], "swap must break monotonicity");
    let vwgt = c.vwgt().to_vec();
    let mut bad = Csr::from_parts(xadj, c.adj().to_vec(), c.wgt().to_vec());
    bad.set_vwgt(vwgt);
    h.levels[0].graph = bad;

    let trace = TraceCollector::enabled_with_validation();
    audit_hierarchy(&policy, &trace, &h);
    let fail = trace
        .report()
        .first_failed_audit()
        .cloned()
        .expect("corruption not detected");
    assert_eq!(fail.phase, "construct/level0");
    assert_eq!(fail.check, "csr-wellformed");
}

#[test]
fn env_var_enables_validation_and_names_the_failing_phase() {
    // MLCG_VALIDATE=1 must be enough to get audits through the default
    // options path — the repro binary relies on this.
    std::env::set_var("MLCG_VALIDATE", "1");
    let trace = TraceCollector::from_env();
    std::env::remove_var("MLCG_VALIDATE");
    assert!(trace.validate_enabled());

    let g = multilevel_coarsen::graph::generators::grid2d(16, 16);
    let policy = ExecPolicy::serial();
    let mut h = coarsen(&policy, &g, &CoarsenOptions::default());
    h.levels[0].mapping.map[3] = (h.levels[0].mapping.n_coarse + 5) as u32;
    audit_hierarchy(&policy, &trace, &h);
    let report = trace.report();
    let fail = report
        .first_failed_audit()
        .expect("corruption not detected");
    assert_eq!(fail.phase, "mapping/level0");
    assert!(
        !fail.detail.is_empty(),
        "failure should carry a diagnostic detail"
    );
}

#[test]
fn disabled_collector_records_nothing_through_the_full_pipeline() {
    let g = multilevel_coarsen::graph::generators::grid2d(16, 16);
    let opts = CoarsenOptions {
        trace: TraceCollector::disabled(),
        ..Default::default()
    };
    let r = fm_bisect(&ExecPolicy::host(), &g, &opts, &FmConfig::default(), 42);
    assert!(r.trace.is_empty(), "disabled tracing must record nothing");
}
