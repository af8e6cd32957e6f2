//! One measurement loop for the gated `bench-*` experiments.
//!
//! Each gated experiment is its suites, a few setup asserts, and one
//! closure per variant; this module owns the rest. For every suite graph
//! and variant, [`Bench::variant`]:
//!
//! 1. runs the variant once under the bench's heap policy as a warm-up,
//!    then once more inside [`mem::measure`] for `peak_bytes`. Allocator
//!    scopes attribute on the allocating thread only, so the
//!    construction and mapping benches measure under the serial policy to
//!    capture the whole envelope deterministically;
//! 2. runs it once under the host policy as a warm-up, then `--runs`
//!    times on the clock, and records the median seconds: the wall time of
//!    the call, or the seconds the variant reports for itself;
//! 3. computes the variant's quality fields (cut, imbalance, ...) from the
//!    last run's output after the clock stops;
//! 4. with `--trace`, runs it once more under a trace collector and the
//!    dispatch profiler and emits the report.
//!
//! [`Bench::finish`] prints one table, writes
//! `target/repro/BENCH_<name>.json`, and with `--baseline FILE` gates the
//! results through [`crate::compare::compare_bench`].

use crate::harness::{header, row, Ctx};
use mlcg_graph::cc::largest_component;
use mlcg_graph::generators as gen;
use mlcg_graph::Csr;
use mlcg_par::timer::median;
use mlcg_par::{mem, ExecPolicy, Timer, TraceCollector};
use std::fmt::{Display, Write as _};
use std::path::Path;

/// Floor for recorded timings: the gate is relative
/// (`current > baseline * (1 + noise)`), so a near-zero median in the
/// committed baseline would fail on any positive current value. 10 µs is
/// far below every real suite timing and far above timer noise.
const SECONDS_FLOOR: f64 = 1e-5;

/// A generator family of the gated suites.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `grid2d-SxS`: a square 2-D grid of side `S` (regular).
    Grid,
    /// `path-N` (regular).
    Path,
    /// `rmat-S`: the largest component of a scale-`S` R-MAT graph with
    /// edge factor 8, seeded by `--seed` (skewed).
    Rmat,
    /// `star-N`: one hub joined to `N - 1` leaves (skewed).
    Star,
}

impl Family {
    fn build(self, size: usize, seed: u64) -> SuiteGraph {
        let (name, class, g) = match self {
            Family::Grid => (
                format!("grid2d-{size}x{size}"),
                "regular",
                gen::grid2d(size, size),
            ),
            Family::Path => (format!("path-{size}"), "regular", gen::path(size)),
            Family::Rmat => (
                format!("rmat-{size}"),
                "skewed",
                largest_component(&gen::rmat(size as u32, 8, 0.57, 0.19, 0.19, seed)).0,
            ),
            Family::Star => (format!("star-{size}"), "skewed", gen::star(size)),
        };
        SuiteGraph { name, class, g }
    }
}

/// A suite: `(family, size)` pairs, generated in order.
pub type Suite = [(Family, usize)];

/// The quick suite of the refinement and ingest benches.
pub const QUICK: &Suite = &[(Family::Grid, 64), (Family::Rmat, 10), (Family::Path, 4096)];

/// A regular half (grid, path) and a skewed half (rmat, star): the quick
/// suite of the construction and mapping benches.
pub const QUICK_HALVES: &Suite = &[
    (Family::Grid, 64),
    (Family::Path, 4096),
    (Family::Rmat, 10),
    (Family::Star, 8192),
];

/// The full suite of the construction and mapping benches.
pub const FULL_HALVES: &Suite = &[
    (Family::Grid, 512),
    (Family::Path, 65536),
    (Family::Rmat, 15),
    (Family::Star, 262144),
];

/// Generate `quick` under `--quick`, else `full`.
pub fn graphs(ctx: &Ctx, quick: &Suite, full: &Suite) -> Vec<SuiteGraph> {
    let suite = if ctx.quick { quick } else { full };
    suite
        .iter()
        .map(|&(family, size)| family.build(size, ctx.seed))
        .collect()
}

/// One generated suite graph.
pub struct SuiteGraph {
    /// Results key, e.g. `grid2d-64x64`.
    pub name: String,
    /// `regular` (grid, path) or `skewed` (rmat, star).
    pub class: &'static str,
    /// The graph.
    pub g: Csr,
}

/// What a variant reports about one run's output, computed off the clock.
#[derive(Default)]
pub struct Report {
    /// Seconds the variant timed itself (one phase of a larger call);
    /// `None` records the wall time of the whole call.
    pub seconds: Option<f64>,
    /// Quality members written next to the timing, e.g. `("cut", "64")`.
    pub fields: Vec<(&'static str, String)>,
}

impl Report {
    /// A report carrying only quality fields.
    pub fn fields(fields: Vec<(&'static str, String)>) -> Self {
        Report {
            seconds: None,
            fields,
        }
    }

    /// A report carrying only the variant's own seconds.
    pub fn own_seconds(seconds: f64) -> Self {
        Report {
            seconds: Some(seconds),
            fields: Vec::new(),
        }
    }
}

struct Record {
    key: String,
    seconds: f64,
    peak_bytes: u64,
    fields: Vec<(&'static str, String)>,
}

struct Entry {
    name: String,
    class: &'static str,
    n: usize,
    m: usize,
    variants: Vec<Record>,
}

/// Results of one gated experiment, filled variant by variant.
pub struct Bench<'c> {
    ctx: &'c Ctx,
    name: &'static str,
    heap_policy: ExecPolicy,
    per_vertex: bool,
    params: Vec<(&'static str, String)>,
    graphs: Vec<Entry>,
}

impl<'c> Bench<'c> {
    /// The experiment `name` (`bench-fm` writes `BENCH_fm.json`), measuring
    /// peak heap under `heap_policy`.
    pub fn new(ctx: &'c Ctx, name: &'static str, heap_policy: ExecPolicy) -> Self {
        Bench {
            ctx,
            name,
            heap_policy,
            per_vertex: false,
            params: Vec::new(),
            graphs: Vec::new(),
        }
    }

    /// Normalize peak heap per vertex (`bytes_per_vertex`) instead of per
    /// edge (`bytes_per_edge`).
    pub fn per_vertex(mut self) -> Self {
        self.per_vertex = true;
        self
    }

    /// A top-level results member recording one setting of the bench.
    pub fn param(mut self, key: &'static str, value: impl Display) -> Self {
        self.params.push((key, value.to_string()));
        self
    }

    /// Start the results of `graph`; later variants are recorded under it.
    pub fn graph(&mut self, graph: &SuiteGraph) {
        self.graphs.push(Entry {
            name: graph.name.clone(),
            class: graph.class,
            n: graph.g.n(),
            m: graph.g.m(),
            variants: Vec::new(),
        });
    }

    /// Measure one variant on the current graph (see the module docs).
    /// `run` gets the policy and trace sink of each call; `report` reads a
    /// timed run's output. Returns the last timed output and the measured
    /// peak heap bytes.
    pub fn variant<T>(
        &mut self,
        key: &str,
        mut run: impl FnMut(&ExecPolicy, &TraceCollector) -> T,
        report: impl Fn(&T) -> Report,
    ) -> (T, u64) {
        let ctx = self.ctx;
        let off = TraceCollector::disabled();
        // Heap first: a variant that reuses a workspace must be measured
        // after exactly one warm-up, or its peak drops by whatever the
        // earlier calls already grew.
        run(&self.heap_policy, &off);
        let (_, heap) = mem::measure(|| run(&self.heap_policy, &off));
        let host = ctx.host();
        run(&host, &off);
        let mut samples = Vec::with_capacity(ctx.runs);
        let mut last = None;
        for _ in 0..ctx.runs.max(1) {
            let t = Timer::start();
            let out = run(&host, &off);
            let wall = t.seconds();
            let r = report(&out);
            samples.push(r.seconds.unwrap_or(wall));
            last = Some((out, r.fields));
        }
        let (out, fields) = last.expect("at least one timed run");
        let entry = self
            .graphs
            .last_mut()
            .expect("Bench::graph starts every graph before its variants");
        if ctx.trace_enabled() {
            let trace = ctx.trace_collector();
            let _profile = mlcg_par::profile::install(&trace);
            run(&host, &trace);
            let label = format!("{}/{}/{key}", self.name, entry.name);
            ctx.emit_trace(&label, &trace.report());
        }
        entry.variants.push(Record {
            key: key.to_string(),
            seconds: median(&mut samples).max(SECONDS_FLOOR),
            peak_bytes: heap.peak_bytes,
            fields,
        });
        (out, heap.peak_bytes)
    }

    /// Print the results table, write `target/repro/BENCH_<name>.json`,
    /// and with `--baseline FILE` gate it. Returns the process exit code
    /// (nonzero on regression).
    pub fn finish(self) -> i32 {
        header(&[
            "graph", "class", "n", "m", "variant", "seconds", "peak", "fields",
        ]);
        for e in &self.graphs {
            for v in &e.variants {
                let fields: Vec<String> =
                    v.fields.iter().map(|(k, x)| format!("{k}={x}")).collect();
                row(&[
                    e.name.clone(),
                    e.class.to_string(),
                    e.n.to_string(),
                    e.m.to_string(),
                    v.key.clone(),
                    format!("{:.5}", v.seconds),
                    mem::fmt_bytes(v.peak_bytes),
                    fields.join(" "),
                ]);
            }
        }
        let json = self.json();
        let short = self.name.trim_start_matches("bench-");
        let path = Path::new("target/repro").join(format!("BENCH_{short}.json"));
        std::fs::create_dir_all("target/repro").expect("create target/repro");
        std::fs::write(&path, &json).expect("write the bench results");
        println!("{}: results written to {}", self.name, path.display());
        match &self.ctx.baseline {
            Some(baseline) => crate::compare::run_baseline_gate(baseline, &json, self.ctx.noise),
            None => 0,
        }
    }

    /// The results document (hand-rolled JSON: the workspace is
    /// dependency-free).
    fn json(&self) -> String {
        let per = if self.per_vertex { "vertex" } else { "edge" };
        let mut head = format!(
            "{{\n  \"experiment\": \"{}\",\n  \"quick\": {},\n  \"seed\": {},\n  \"runs\": {},\n",
            self.name, self.ctx.quick, self.ctx.seed, self.ctx.runs
        );
        for (key, value) in &self.params {
            let _ = writeln!(head, "  \"{key}\": {value},");
        }
        let graphs: Vec<String> = self
            .graphs
            .iter()
            .map(|e| {
                let units = if self.per_vertex { e.n } else { e.m };
                let mut s = format!(
                    "    {{\"name\": \"{}\", \"class\": \"{}\", \"n\": {}, \"m\": {}",
                    e.name, e.class, e.n, e.m
                );
                for v in &e.variants {
                    let _ = write!(
                        s,
                        ", \"{}\": {{\"seconds\": {:.6}, \"peak_bytes\": {}, \"bytes_per_{per}\": {:.2}",
                        v.key,
                        v.seconds,
                        v.peak_bytes,
                        v.peak_bytes as f64 / units.max(1) as f64
                    );
                    for (key, value) in &v.fields {
                        let _ = write!(s, ", \"{key}\": {value}");
                    }
                    s.push('}');
                }
                s + "}"
            })
            .collect();
        format!("{head}  \"graphs\": [\n{}\n  ]\n}}\n", graphs.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_the_median_of_reported_seconds_and_the_last_fields() {
        let ctx = Ctx {
            runs: 3,
            ..Default::default()
        };
        let mut bench = Bench::new(&ctx, "bench-test", ExecPolicy::serial());
        bench.graph(&Family::Path.build(4, 0));
        // Calls 0-2 are the heap warm-up, the heap measurement and the
        // host warm-up; calls 3-5 are timed and report 3, 1 and 2 s.
        let reported = [0.0, 0.0, 0.0, 3.0, 1.0, 2.0];
        let mut calls = 0;
        let (last, _) = bench.variant(
            "v",
            |_, _| {
                calls += 1;
                calls - 1
            },
            |&i| Report {
                seconds: Some(reported[i]),
                fields: vec![("call", i.to_string())],
            },
        );
        assert_eq!(last, 5);
        let v = &bench.graphs[0].variants[0];
        assert_eq!(v.seconds, 2.0);
        assert_eq!(v.fields, vec![("call", "5".to_string())]);
    }
}
