//! Output schema: every run prints every metric of its kind, by the name
//! and unit `BENCHMARK.json` declares, with finite values; a traced run
//! replays at least one op and the layers it ran report non-zero figures.
//!
//! The benchmark runs one run per process; here six share one, so only
//! the first can rely on the process-wide heap high-water mark.

use mlcg_e2ebench::run::{
    run, Options, Report, END_TO_END, NOT_PARTITIONED, PER_LAYER, WARMUP_OPS,
};
use mlcg_e2ebench::workload::{GraphSpec, Workload};
use mlcg_par::ExecPolicy;
use std::path::PathBuf;

#[test]
fn every_metric_is_printed_with_its_unit() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let declared = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let compact: String = declared.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(compact.contains(&format!("\"name\":\"{}\"", w.name())));
    }

    let policy = ExecPolicy::host();
    let mut first = true;
    for w in Workload::ALL {
        let graph = match w {
            Workload::MeshKway8 => GraphSpec::Box27 { side: 12 },
            Workload::KronCoarsen => GraphSpec::Rmat { scale: 11 },
        };
        for (trace, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let opts = Options {
                workload: w,
                graph,
                seed: 11,
                seconds: 0.0,
                trace,
                workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
            };
            let report = run(&opts, &policy).expect("run");
            let what = format!("{} trace={trace}", w.name());
            assert_eq!(report.failed, 0, "{what}: {:?}", report.problems);
            if first {
                assert!(report.correct, "{what}: {:?}", report.problems);
                first = false;
            } else {
                let heap_only = report.problems.iter().all(|p| p.contains("high-water"));
                assert!(heap_only, "{what}: {:?}", report.problems);
            }
            assert!(report.attempted > WARMUP_OPS, "{what}");
            assert!(report.timed_ops >= 1, "{what}");
            if trace {
                assert!(report.traced_ops >= 1, "{what}: no traced op ran");
                let mut ran = vec![
                    "mapping.s",
                    "mapping.passes",
                    "construct.s",
                    "construct.entries_per_s",
                    "multilevel.s",
                    "multilevel.levels",
                    "multilevel.coarsest_n",
                    "bench.warmup_s",
                    "bench.trace_overhead",
                ];
                if w.partitions() {
                    ran.extend(["io.ingest_s", "io.read_mb_per_s", "cc.s", "fm.s"]);
                    ran.extend(["kway.s", "kway.bisections", "kway.imbalance_worst"]);
                    ran.push("kwayref.s");
                }
                for name in ran {
                    assert!(value(&report, name) > 0.0, "{what}: {name} reads 0");
                }
            } else if w.partitions() {
                let cut = value(&report, "cut_ratio");
                assert!(cut > 0.0 && cut < 1.0, "{what}: cut_ratio {cut}");
                assert!(value(&report, "imbalance_max") >= 1.0, "{what}");
            } else {
                assert_eq!(value(&report, "cut_ratio"), NOT_PARTITIONED, "{what}");
                assert_eq!(value(&report, "imbalance_max"), NOT_PARTITIONED, "{what}");
            }
            let printed: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(printed, expected, "{what}");
            assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{what}");
            let json = report.json();
            for (name, unit) in expected {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(json.contains(&entry), "{what}: {json}");
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{what}");
            }
            assert!(json.starts_with("{\"correct\": "), "{json}");
            assert!(json.contains("\"failed\": 0, \"metrics\": {"), "{json}");
        }
    }
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not printed"))
        .value
}
