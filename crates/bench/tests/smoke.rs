//! Smoke tests for the reproduction harness: the corpus-free experiments
//! run end-to-end, and every experiment name dispatches.

use mlcg_bench::{exp, Ctx};

#[test]
fn fig1_and_fig2_run_without_a_corpus() {
    let ctx = Ctx {
        runs: 1,
        ..Default::default()
    };
    assert_eq!(exp::run("fig1", &ctx), Some(0));
    assert_eq!(exp::run("fig2", &ctx), Some(0));
    // The DOT outputs land under target/repro.
    assert!(
        std::path::Path::new("target/repro/fig2-heavy-digraph.dot").exists()
            || std::path::Path::new("../../target/repro/fig2-heavy-digraph.dot").exists()
    );
}

#[test]
fn unknown_experiment_is_rejected() {
    let ctx = Ctx::default();
    assert_eq!(exp::run("not-an-experiment", &ctx), None);
}

#[test]
fn all_experiment_names_are_known() {
    // Dispatch-table consistency: every name in ALL resolves (we don't run
    // the heavy ones here, just verify fig/cheap entries and the parse).
    for name in exp::ALL {
        assert!(
            [
                "table1",
                "table2",
                "table3",
                "table4",
                "table5",
                "table6",
                "fig1",
                "fig2",
                "fig3-left",
                "fig3-mid",
                "fig3-right",
                "ablate-dedup",
                "bench-coarsen",
                "bench-fm",
                "bench-ingest",
                "bench-kway",
                "bench-map",
                "bench-parref",
                "extended-methods",
                "trace",
            ]
            .contains(&name),
            "unexpected experiment {name}"
        );
    }
}

#[test]
fn gated_benches_report_every_baseline_member() {
    // No timing or heap value can exceed an infinite noise threshold, so
    // exit code 0 holds only if every graph, variant and gated member of
    // the committed baseline is still reported.
    for name in ["fm", "parref", "kway", "ingest", "coarsen", "map"] {
        let baseline = format!(
            "{}/../../baselines/BENCH_{name}_quick.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let ctx = Ctx {
            quick: true,
            runs: 1,
            baseline: Some(baseline),
            noise: f64::INFINITY,
            ..Default::default()
        };
        assert_eq!(
            exp::run(&format!("bench-{name}"), &ctx),
            Some(0),
            "bench-{name}"
        );
    }
}
