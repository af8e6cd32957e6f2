//! `bench-coarsen` — coarse-graph construction benchmark and gate.
//!
//! The suite is split into a *regular* half (grid, path — uniform degrees,
//! the skew optimization stays off) and a *skewed* half (rmat, star — hub
//! aggregates, the degree-dedup optimization engages and hub rows are
//! split across workers). For each graph and each of the five
//! [`ConstructMethod`]s this times one coarse-graph construction on the
//! host policy (median of `--runs`), plus a `hierarchy` variant that runs
//! the full multilevel driver and reports the summed per-level
//! construction seconds — the number the level-reused
//! `ConstructWorkspace` improves.
//!
//! Peak heap comes from an untimed [`mlcg_par::mem::measure`] run under
//! the *serial* policy: allocator scopes attribute on the allocating
//! thread only, so the serial run captures the full construction envelope
//! (grouping arrays, row runs, workspaces) deterministically, where a
//! host-policy run would silently drop worker-side allocations.
//!
//! Star graphs use a synthetic grouped-leaves mapping (hub alone, leaves
//! in groups of 8) rather than a HEC mapping: HEC collapses a star in one
//! step, while the grouped mapping produces the adversarial shape the
//! split-row merge exists for — one coarse row holding most of the work.
//!
//! Results go to `target/repro/BENCH_coarsen.json`; `--baseline FILE`
//! gates every variant's `seconds` and `peak_bytes` like the other bench
//! gates.

use crate::harness::{header, median_time, row, Ctx};
use mlcg_coarsen::{
    coarsen, construct_coarse_graph, find_mapping, CoarsenOptions, ConstructMethod,
    ConstructOptions, MapMethod, Mapping,
};
use mlcg_graph::cc::largest_component;
use mlcg_graph::generators as gen;
use mlcg_graph::Csr;
use mlcg_par::{ExecPolicy, TraceCollector};
use std::path::PathBuf;

struct Variant {
    key: String,
    seconds: f64,
    peak_bytes: u64,
}

/// Floor for recorded timings: the gate is relative
/// (`current > baseline * (1 + noise)`), so a near-zero median in the
/// committed baseline would fail on any positive current value. 10 µs is
/// far below every real suite timing and far above timer noise.
const SECONDS_FLOOR: f64 = 1e-5;

struct Entry {
    name: String,
    class: &'static str, // "regular" | "skewed"
    n: usize,
    m: usize,
    variants: Vec<Variant>,
}

/// Leaves in groups of `group`, the hub alone: the coarse graph is again a
/// star, and aggregate 0's row holds half of all member work.
fn star_mapping(n: usize, group: usize) -> Mapping {
    let map: Vec<u32> = (0..n as u32)
        .map(|u| {
            if u == 0 {
                0
            } else {
                1 + (u - 1) / group as u32
            }
        })
        .collect();
    let n_coarse = (*map.iter().max().unwrap() + 1) as usize;
    Mapping { map, n_coarse }
}

fn suite(ctx: &Ctx) -> Vec<(String, &'static str, Csr)> {
    if ctx.quick {
        vec![
            ("grid2d-64x64".into(), "regular", gen::grid2d(64, 64)),
            ("path-4096".into(), "regular", gen::path(4096)),
            (
                "rmat-10".into(),
                "skewed",
                largest_component(&gen::rmat(10, 8, 0.57, 0.19, 0.19, ctx.seed)).0,
            ),
            ("star-8192".into(), "skewed", gen::star(8192)),
        ]
    } else {
        vec![
            ("grid2d-512x512".into(), "regular", gen::grid2d(512, 512)),
            ("path-65536".into(), "regular", gen::path(65536)),
            (
                "rmat-15".into(),
                "skewed",
                largest_component(&gen::rmat(15, 8, 0.57, 0.19, 0.19, ctx.seed)).0,
            ),
            ("star-262144".into(), "skewed", gen::star(262144)),
        ]
    }
}

/// Run the construction benchmark, write `BENCH_coarsen.json`, and (with
/// `--baseline FILE`) gate seconds and peak bytes against a committed
/// baseline. Returns the process exit code (nonzero on regression).
pub fn run(ctx: &Ctx) -> i32 {
    let host = ctx.host();
    let serial = ExecPolicy::serial();
    let mut entries = Vec::new();

    for (name, class, g) in suite(ctx) {
        let mapping = if name.starts_with("star") {
            star_mapping(g.n(), 8)
        } else {
            find_mapping(&serial, &g, MapMethod::SeqHec, ctx.seed).0
        };
        let mut variants = Vec::new();
        let mut reference: Option<Csr> = None;

        for method in ConstructMethod::ALL {
            let opts = ConstructOptions::with_method(method);
            // Warm-up (pool spin-up, page faults) doubles as the suite's
            // cross-method identity check.
            let warm = construct_coarse_graph(&host, &g, &mapping, &opts);
            match &reference {
                None => reference = Some(warm),
                Some(r) => assert_eq!(
                    &warm,
                    r,
                    "{name}: {} disagrees with {}",
                    method.name(),
                    ConstructMethod::ALL[0].name()
                ),
            }
            let (_, seconds) = median_time(ctx.runs, || {
                construct_coarse_graph(&host, &g, &mapping, &opts)
            });
            let seconds = seconds.max(SECONDS_FLOOR);
            // Untimed serial run for deterministic full-envelope heap
            // attribution (see module docs).
            let (_, mem) =
                mlcg_par::mem::measure(|| construct_coarse_graph(&serial, &g, &mapping, &opts));
            variants.push(Variant {
                key: method.name().to_string(),
                seconds,
                peak_bytes: mem.peak_bytes,
            });
        }

        // Full multilevel driver with the default construction: summed
        // per-level construction seconds — the workspace-reuse number.
        let copts = CoarsenOptions {
            seed: ctx.seed,
            trace: TraceCollector::disabled(),
            ..Default::default()
        };
        let _ = coarsen(&host, &g, &copts);
        let (h, _) = median_time(ctx.runs, || coarsen(&host, &g, &copts));
        let seconds: f64 = h
            .stats
            .construct_seconds
            .iter()
            .sum::<f64>()
            .max(SECONDS_FLOOR);
        let (_, mem) = mlcg_par::mem::measure(|| coarsen(&serial, &g, &copts));
        variants.push(Variant {
            key: "hierarchy".to_string(),
            seconds,
            peak_bytes: mem.peak_bytes,
        });

        entries.push(Entry {
            name,
            class,
            n: g.n(),
            m: g.m(),
            variants,
        });
    }

    header(&["graph", "class", "n", "m", "variant", "seconds", "peak"]);
    for e in &entries {
        for v in &e.variants {
            row(&[
                e.name.clone(),
                e.class.to_string(),
                e.n.to_string(),
                e.m.to_string(),
                v.key.clone(),
                format!("{:.5}", v.seconds),
                mlcg_par::mem::fmt_bytes(v.peak_bytes),
            ]);
        }
    }

    // Hand-rolled JSON (the workspace is dependency-free).
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"bench-coarsen\",\n");
    json.push_str(&format!("  \"quick\": {},\n", ctx.quick));
    json.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    json.push_str(&format!("  \"runs\": {},\n", ctx.runs));
    json.push_str("  \"graphs\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"class\": \"{}\", \"n\": {}, \"m\": {}",
            e.name, e.class, e.n, e.m
        ));
        for v in &e.variants {
            json.push_str(&format!(
                ", \"{}\": {{\"seconds\": {:.6}, \"peak_bytes\": {}, \"bytes_per_edge\": {:.2}}}",
                v.key,
                v.seconds,
                v.peak_bytes,
                v.peak_bytes as f64 / e.m.max(1) as f64
            ));
        }
        json.push_str(&format!(
            "}}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let dir = PathBuf::from("target/repro");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_coarsen.json");
    std::fs::write(&path, &json).unwrap();
    println!("bench-coarsen: results written to {}", path.display());

    match &ctx.baseline {
        Some(baseline) => crate::compare::run_baseline_gate(baseline, &json, ctx.noise),
        None => 0,
    }
}
