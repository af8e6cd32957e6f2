//! One benchmark run: set-up, warm-up, then closed-loop ops for the run's
//! duration, with every op checked. The untraced run reports the
//! end-to-end metrics; the traced run alternates untraced ops with traced
//! replays and reports the per-layer metrics.

use crate::check::{check_output, Quality};
use crate::replay::{replay_op, Replay};
use crate::stats::{median, quantile, ratio};
use crate::workload::{
    coarsen_options, op_seeds, prepare, run_op, GraphSpec, Input, Output, Workload,
};
use mlcg_graph::Csr;
use mlcg_par::{mem, ExecPolicy};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics and their units, printed by the untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("edges_per_s", "1/s"),
    ("peak_heap_bytes", "bytes"),
    ("cut_ratio", "ratio"),
    ("imbalance_max", "ratio"),
];

/// Per-layer metrics and their units, printed by the traced run. A layer
/// the workload does not run reports 0. Per-op figures are medians over the
/// run's traced ops; `kway.component_splits` is summed over them,
/// `kwayref.cut_gain` is the share of the summed pre-refinement cut the
/// post-pass removed, `kway.imbalance_worst` is the worst op of the run,
/// and the `bench.*` figures describe the run (`bench.uncovered_frac` is
/// its worst traced op).
pub const PER_LAYER: [(&str, &str); 22] = [
    ("io.ingest_s", "s"),
    ("io.read_mb_per_s", "MB/s"),
    ("cc.s", "s"),
    ("mapping.s", "s"),
    ("mapping.passes", "count"),
    ("mapping.pass1_resolved_frac", "ratio"),
    ("construct.s", "s"),
    ("construct.entries_per_s", "1/s"),
    ("multilevel.s", "s"),
    ("multilevel.overhead_s", "s"),
    ("multilevel.levels", "count"),
    ("multilevel.coarsest_n", "count"),
    ("fm.s", "s"),
    ("kway.s", "s"),
    ("kway.bisections", "count"),
    ("kway.component_splits", "count"),
    ("kway.imbalance_worst", "ratio"),
    ("kwayref.s", "s"),
    ("kwayref.cut_gain", "ratio"),
    ("bench.warmup_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.uncovered_frac", "ratio"),
];

/// From-scratch input preparations per untraced run; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 9;

/// Per-op records reserved before the ops start, so the benchmark
/// allocates nothing lasting while ops run. An op's speed depends on the
/// heap layout around it: re-preparing the input mid-run moved it in the
/// heap and was measured to switch the following ops between two speeds
/// about 20% apart. Hence all preparations also happen before the first op.
const RESERVED_OPS: usize = 1 << 16;

/// Ops run before timing starts, excluded from latency and `setup_s`.
pub const WARMUP_OPS: usize = 2;

/// `cut_ratio` and `imbalance_max` of a workload that partitions nothing.
/// Every run prints every end-to-end metric and none may read 0, so these
/// workloads print this fixed value: partition quality does not exist
/// there, and a figure derived from the hierarchy would move with the
/// level at which coarsening happens to stop.
pub const NOT_PARTITIONED: f64 = 1.0;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its input graph.
    pub graph: GraphSpec,
    /// Seed of the input graph and of the per-op seed sequence.
    pub seed: u64,
    /// How long the ops run, after set-up and warm-up.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory for the partition workload's METIS file.
    pub workdir: PathBuf,
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Clone, Debug)]
pub struct Report {
    /// No op failed and the heap high-water mark was set by the ops.
    pub correct: bool,
    /// Ops attempted, warm-up included.
    pub attempted: usize,
    /// Ops that panicked, returned an error or failed their check.
    pub failed: usize,
    /// Ops whose latency was recorded.
    pub timed_ops: usize,
    /// Traced replays that passed their check.
    pub traced_ops: usize,
    /// Vertices and edges of the input graph.
    pub input_size: (usize, usize),
    /// The worst op's imbalance (`imbalance_max` reports the 90th
    /// percentile over ops); 0 when no op partitions.
    pub worst_imbalance: f64,
    /// Metrics in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Human-readable problems (first failures, heap-measurement problems).
    pub problems: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Removes the run's input file when the run ends, however it ends.
struct WorkFile(PathBuf);

impl Drop for WorkFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Failure accounting across a run.
#[derive(Default)]
pub struct Tally {
    /// Ops recorded.
    pub attempted: usize,
    /// Ops recorded as failed.
    pub failed: usize,
    /// The first few failures' descriptions.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one op; `Err` counts it as failed. Returns the `Ok` value.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.problems.len() < 3 {
                    self.problems.push(e);
                }
                None
            }
        }
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Run `op` on the clock; a panic or an error becomes `Err`.
pub fn timed<O>(op: impl FnOnce() -> std::io::Result<O>) -> (f64, Result<O, String>) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(op));
    let seconds = t.elapsed().as_secs_f64();
    let out = match out {
        Ok(Ok(o)) => Ok(o),
        Ok(Err(e)) => Err(format!("op returned an error: {e}")),
        Err(p) => Err(format!("op panicked: {}", panic_message(p))),
    };
    (seconds, out)
}

/// Check an op's output off the clock; a panic in the check fails it too.
/// Returns the output with the check's result.
pub fn checked<O, Q>(
    out: Result<O, String>,
    check: impl FnOnce(&O) -> Result<Q, String>,
) -> Result<(O, Q), String> {
    let out = out?;
    let q = catch_unwind(AssertUnwindSafe(|| check(&out)))
        .unwrap_or_else(|p| Err(format!("check panicked: {}", panic_message(p))))?;
    Ok((out, q))
}

/// What last raised the process-wide heap high-water mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Activity {
    Setup,
    Op,
    Check,
}

/// Tracks which activity last raised the heap high-water mark. The mark
/// counts every thread but cannot be reset, so `peak_heap_bytes` is the
/// ops' peak only when an op raised it last.
#[derive(Default)]
struct HeapWatch {
    last_raise: Option<Activity>,
}

impl HeapWatch {
    fn watch<R>(&mut self, what: Activity, f: impl FnOnce() -> R) -> R {
        let before = mem::peak_bytes();
        let out = f();
        if mem::peak_bytes() > before {
            self.last_raise = Some(what);
        }
        out
    }
}

/// One from-scratch preparation of the run's input, timed into `times`.
fn prepare_timed(
    opts: &Options,
    path: &Path,
    heap: &mut HeapWatch,
    times: &mut Vec<f64>,
) -> std::io::Result<Input> {
    heap.watch(Activity::Setup, || {
        let t = Instant::now();
        let input = prepare(opts.workload, opts.graph, opts.seed, path)?;
        times.push(t.elapsed().as_secs_f64());
        Ok(input)
    })
}

/// The untraced op: [`run_op`] in a run, a fake in the self-tests.
pub type OpFn = fn(Workload, &Input, &ExecPolicy, u64) -> std::io::Result<Output>;

/// One untraced op, checked off the clock. Returns its latency and
/// partition quality when it passed.
fn untraced_op(
    op: OpFn,
    w: Workload,
    input: &Input,
    policy: &ExecPolicy,
    seed: u64,
    heap: &mut HeapWatch,
    tally: &mut Tally,
) -> Option<(f64, Option<Quality>)> {
    let (seconds, out) = heap.watch(Activity::Op, || timed(|| op(w, input, policy, seed)));
    let copts = coarsen_options(w.method(), seed);
    let result = heap.watch(Activity::Check, || {
        checked(out, |o| check_output(policy, input.graph(), &copts, o))
    });
    tally.record(result).map(|(_, q)| (seconds, q))
}

/// Run one benchmark run and build its report.
pub fn run(opts: &Options, policy: &ExecPolicy) -> std::io::Result<Report> {
    run_with(opts, policy, run_op)
}

/// [`run`] with `op` as the untraced op.
pub fn run_with(opts: &Options, policy: &ExecPolicy, op: OpFn) -> std::io::Result<Report> {
    let w = opts.workload;
    std::fs::create_dir_all(&opts.workdir)?;
    let file = WorkFile(
        opts.workdir
            .join(format!("{}-{}.graph", w.name(), std::process::id())),
    );
    let mut heap = HeapWatch::default();
    let mut setup_times = Vec::new();
    let mut input = prepare_timed(opts, &file.0, &mut heap, &mut setup_times)?;
    let setup_reps = if opts.trace { 1 } else { SETUP_REPS };
    while setup_times.len() < setup_reps {
        // Each preparation starts from nothing.
        drop(std::mem::replace(&mut input, Input::Graph(Csr::empty())));
        input = prepare_timed(opts, &file.0, &mut heap, &mut setup_times)?;
    }
    let mut latencies = Vec::with_capacity(RESERVED_OPS);
    let mut qualities: Vec<Quality> = Vec::with_capacity(RESERVED_OPS);
    let mut traced: Vec<[f64; PER_LAYER.len()]> =
        Vec::with_capacity(if opts.trace { RESERVED_OPS } else { 0 });
    let mut traced_wall = Vec::with_capacity(traced.capacity());
    let mut uncovered = Vec::with_capacity(traced.capacity());
    // Heap baseline: the input and the records are in place, no op has run.
    let live0 = mem::live_bytes();
    let mut seeds = op_seeds(opts.seed);
    let mut tally = Tally::default();

    let t = Instant::now();
    for _ in 0..WARMUP_OPS {
        let seed = seeds.next().expect("endless seed stream");
        untraced_op(op, w, &input, policy, seed, &mut heap, &mut tally);
    }
    let warmup_s = t.elapsed().as_secs_f64();

    let budget = opts.seconds.max(0.0);
    // The run ends on ops attempted, not passed, so it ends even when every
    // op fails; past the warm-up it runs one untraced op and, if traced,
    // one traced replay, however short the budget.
    let min_attempted = WARMUP_OPS + if opts.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut component_splits = 0usize;
    let (mut cut_before, mut cut_after) = (0u64, 0u64);
    let mut edges = 0usize;
    let mut next_traced = false;
    while start.elapsed().as_secs_f64() < budget || tally.attempted < min_attempted {
        let seed = seeds.next().expect("endless seed stream");
        if opts.trace && next_traced {
            let (_, out) = timed(|| replay_op(w, &input, policy, seed));
            let copts = coarsen_options(w.method(), seed);
            let result = checked(out, |r: &Replay| {
                check_output(policy, input.graph(), &copts, &r.output)
            });
            if let Some((r, q)) = tally.record(result) {
                traced.push(layer_figures(&r));
                component_splits += r.counts.component_splits;
                if let Some((before, after)) = r.counts.refine_cuts {
                    cut_before += before;
                    cut_after += after;
                }
                qualities.extend(q);
                traced_wall.push(r.tracer.root_duration());
                uncovered.push(ratio(r.tracer.self_times()[0], r.tracer.root_duration()));
            }
        } else if let Some((seconds, q)) =
            untraced_op(op, w, &input, policy, seed, &mut heap, &mut tally)
        {
            latencies.push(seconds);
            qualities.extend(q);
            edges += input.edges();
        }
        next_traced = !next_traced;
    }

    let mut problems = std::mem::take(&mut tally.problems);
    let worst = qualities.iter().map(|q| q.imbalance).fold(0.0, f64::max);
    let metrics = if opts.trace {
        PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, &entry)| {
                let value = match entry.0 {
                    "kway.component_splits" => component_splits as f64,
                    "kway.imbalance_worst" => worst,
                    "kwayref.cut_gain" => {
                        ratio(cut_before as f64 - cut_after as f64, cut_before as f64)
                    }
                    "bench.warmup_s" => warmup_s,
                    "bench.trace_overhead" => ratio(median(&traced_wall), median(&latencies)),
                    "bench.uncovered_frac" => uncovered.iter().copied().fold(0.0, f64::max),
                    _ => median(&traced.iter().map(|f| f[i]).collect::<Vec<_>>()),
                };
                metric(entry, value)
            })
            .collect()
    } else {
        if heap.last_raise != Some(Activity::Op) {
            problems.push(format!(
                "the heap high-water mark was last raised by {:?}, not by an op",
                heap.last_raise
            ));
        }
        let total_s: f64 = latencies.iter().sum();
        let (cut_ratio, imbalance_max) = if w.partitions() {
            let cut: Vec<f64> = qualities.iter().map(|q| q.cut_ratio).collect();
            let imbalance: Vec<f64> = qualities.iter().map(|q| q.imbalance).collect();
            (median(&cut), quantile(&imbalance, 0.9))
        } else {
            (NOT_PARTITIONED, NOT_PARTITIONED)
        };
        vec![
            metric(END_TO_END[0], median(&setup_times)),
            metric(END_TO_END[1], median(&latencies)),
            metric(END_TO_END[2], quantile(&latencies, 0.9)),
            metric(END_TO_END[3], ratio(edges as f64, total_s)),
            metric(
                END_TO_END[4],
                mem::peak_bytes().saturating_sub(live0) as f64,
            ),
            metric(END_TO_END[5], cut_ratio),
            metric(END_TO_END[6], imbalance_max),
        ]
    };
    let heap_ok = opts.trace || heap.last_raise == Some(Activity::Op);
    Ok(Report {
        correct: tally.failed == 0 && heap_ok,
        attempted: tally.attempted,
        failed: tally.failed,
        timed_ops: latencies.len(),
        traced_ops: traced.len(),
        input_size: (input.vertices(), input.edges()),
        worst_imbalance: worst,
        metrics,
        problems,
    })
}

fn metric((name, unit): (&'static str, &'static str), value: f64) -> Metric {
    Metric { name, value, unit }
}

/// Per-op layer figures of one replay, in [`PER_LAYER`] order (0 for the
/// run-level entries).
fn layer_figures(r: &Replay) -> [f64; PER_LAYER.len()] {
    let tr = &r.tracer;
    let c = &r.counts;
    let io_s = tr.self_time("io");
    let construct_s = tr.self_time("construct");
    let (levels, coarsest_n) = c.first_hierarchy.unwrap_or((0, 0));
    [
        io_s,
        ratio(c.ingest_bytes as f64 / 1e6, io_s),
        tr.self_time("cc"),
        tr.self_time("mapping"),
        c.map_passes as f64,
        ratio(c.pass1_resolved as f64, c.mapped_vertices as f64),
        construct_s,
        ratio(c.construct_entries as f64, construct_s),
        tr.total_time("multilevel"),
        tr.self_time("multilevel"),
        levels as f64,
        coarsest_n as f64,
        tr.self_time("fm"),
        tr.self_time("kway"),
        c.bisections as f64,
        0.0,
        0.0,
        tr.self_time("kwayref"),
        0.0,
        0.0,
        0.0,
        0.0,
    ]
}
