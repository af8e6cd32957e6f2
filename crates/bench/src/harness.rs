//! Shared harness utilities: run context, corpus caching, timing,
//! table formatting.

use mlcg_graph::suite::{self, NamedGraph};
use mlcg_par::timer::{geomean, median};
use mlcg_par::{ExecPolicy, Timer, TraceCollector, TraceConfig, TraceReport};

/// Options common to every experiment.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Corpus scale: 0 is the laptop default, each +1 doubles vertex counts.
    pub scale: u32,
    /// Timed repetitions; medians are reported (the paper uses 10 runs).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Lower the power-iteration caps (smoke-test mode).
    pub fast: bool,
    /// Shrink the `bench-*` suites for CI smoke runs.
    pub quick: bool,
    /// Collect and emit pipeline traces (spans/counters/gauges) as
    /// JSON-lines plus a human-readable tree.
    pub trace: bool,
    /// Write each traced run as a Chrome trace-event JSON file (implies
    /// trace collection). `MLCG_TRACE_OUT` supplies a default.
    pub trace_out: Option<String>,
    /// Baseline `BENCH_*.json` to compare timing results against; a
    /// regression makes the experiment exit nonzero.
    pub baseline: Option<String>,
    /// Relative noise threshold for baseline comparison: current timings
    /// beyond `baseline * (1 + noise)` count as regressions.
    pub noise: f64,
    /// Traces emitted so far (derives distinct `--trace-out` file names
    /// when one experiment emits several reports). Leave at the default.
    pub emitted: std::cell::Cell<usize>,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            scale: 0,
            runs: 3,
            seed: 42,
            fast: false,
            quick: false,
            trace: false,
            trace_out: None,
            baseline: None,
            noise: 0.25,
            emitted: std::cell::Cell::new(0),
        }
    }
}

impl Ctx {
    /// Parse `--scale/--runs/--seed/--fast/--quick` style arguments.
    pub fn from_args(args: &[String]) -> Ctx {
        let mut ctx = Ctx::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => ctx.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
                "--runs" => ctx.runs = it.next().and_then(|v| v.parse().ok()).unwrap_or(3).max(1),
                "--seed" => ctx.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(42),
                "--fast" => ctx.fast = true,
                "--quick" => ctx.quick = true,
                "--trace" => ctx.trace = true,
                "--trace-out" => ctx.trace_out = it.next().cloned(),
                "--baseline" => ctx.baseline = it.next().cloned(),
                "--noise" => {
                    ctx.noise = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(ctx.noise)
                        .max(0.0)
                }
                other => eprintln!("warning: ignoring unknown option {other}"),
            }
        }
        ctx
    }

    /// The Chrome-trace output path: `--trace-out`, falling back to the
    /// `MLCG_TRACE_OUT` environment variable.
    pub fn trace_out(&self) -> Option<String> {
        self.trace_out.clone().or_else(|| {
            std::env::var("MLCG_TRACE_OUT")
                .ok()
                .filter(|s| !s.is_empty())
        })
    }

    /// Generate the full 20-graph corpus at this context's scale.
    pub fn corpus(&self) -> Vec<NamedGraph> {
        eprintln!("generating corpus (scale {}) ...", self.scale);
        let t = Timer::start();
        let corpus = suite::suite(self.scale, self.seed);
        eprintln!("corpus ready in {:.1}s", t.seconds());
        corpus
    }

    /// The "GPU" execution policy of the reproduction (device-sim).
    pub fn device(&self) -> ExecPolicy {
        ExecPolicy::device_sim()
    }

    /// The multicore execution policy.
    pub fn host(&self) -> ExecPolicy {
        ExecPolicy::host()
    }

    /// A trace collector honoring `--trace` (and `MLCG_TRACE` /
    /// `MLCG_VALIDATE` from the environment). With neither the flag nor
    /// the env vars set, this is a disabled collector with zero recording
    /// overhead.
    pub fn trace_collector(&self) -> TraceCollector {
        let mut cfg = TraceConfig::from_env();
        cfg.enabled |= self.trace || self.trace_out().is_some();
        TraceCollector::with_config(cfg)
    }

    /// Whether trace output is in effect, via `--trace`, `--trace-out`,
    /// `MLCG_TRACE=1`, `MLCG_TRACE_OUT`, or `MLCG_VALIDATE=1` (audit
    /// results are reported through the same channel, so validation alone
    /// also turns emission on).
    pub fn trace_enabled(&self) -> bool {
        let env = TraceConfig::from_env();
        self.trace || self.trace_out().is_some() || env.enabled || env.validate
    }

    /// Emit a non-empty trace report: JSON-lines on stdout (prefixed by a
    /// `# trace <label>` comment line) followed by the aggregated span
    /// tree. With `--trace-out FILE` (or `MLCG_TRACE_OUT`), additionally
    /// writes the report as Chrome trace-event JSON — the first report of
    /// the experiment goes to `FILE` verbatim; subsequent reports get
    /// `-2`, `-3`, ... inserted before the extension so nothing is
    /// clobbered. No output when the report is empty or tracing is off.
    pub fn emit_trace(&self, label: &str, report: &TraceReport) {
        if !self.trace_enabled() || report.is_empty() {
            return;
        }
        println!("# trace {label}");
        print!("{}", report.to_jsonl_string());
        println!("{}", report.render_tree());
        if let Some(base) = self.trace_out() {
            let k = self.emitted.get() + 1;
            self.emitted.set(k);
            let path = if k == 1 {
                base
            } else {
                match base.rsplit_once('.') {
                    Some((stem, ext)) => format!("{stem}-{k}.{ext}"),
                    None => format!("{base}-{k}"),
                }
            };
            match std::fs::write(&path, report.to_chrome_trace()) {
                Ok(()) => println!("# chrome trace ({label}) written to {path}"),
                Err(e) => eprintln!("warning: could not write chrome trace {path}: {e}"),
            }
        }
    }
}

/// Run `f` `runs` times and return `(last_result, median_seconds)`.
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(runs >= 1);
    let mut samples = Vec::with_capacity(runs);
    let mut out = None;
    for _ in 0..runs {
        let t = Timer::start();
        out = Some(f());
        samples.push(t.seconds());
    }
    (out.unwrap(), median(&mut samples))
}

/// Geometric mean helper re-exported for the experiment modules.
pub fn geo(xs: &[f64]) -> f64 {
    geomean(xs)
}

/// Micro-bench runner for the plain-`main` bench binaries: one warm-up
/// call, then `runs` timed iterations; prints and returns the median
/// seconds.
pub fn microbench<T>(group: &str, name: &str, runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = f(); // warm-up (pool spin-up, allocator, caches)
    let (_, med) = median_time(runs.max(1), &mut f);
    println!("{group}/{name}: {:.3} ms (median of {runs})", med * 1e3);
    med
}

/// Print a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a markdown-style header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Format seconds with 3 significant decimals (as the paper's tables do).
pub fn secs(s: f64) -> String {
    format!("{s:.3}")
}

/// Format a ratio with two decimals; `NaN` prints as `OOM`-style dash.
pub fn ratio(r: f64) -> String {
    if r.is_finite() {
        format!("{r:.2}")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_parses_args() {
        let args: Vec<String> = ["--scale", "2", "--runs", "5", "--seed", "7", "--fast"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ctx = Ctx::from_args(&args);
        assert_eq!(ctx.scale, 2);
        assert_eq!(ctx.runs, 5);
        assert_eq!(ctx.seed, 7);
        assert!(ctx.fast);
    }

    #[test]
    fn ctx_defaults() {
        let ctx = Ctx::from_args(&[]);
        assert_eq!(ctx.scale, 0);
        assert_eq!(ctx.runs, 3);
        assert!(!ctx.fast);
    }

    #[test]
    fn median_time_returns_result() {
        let (v, t) = median_time(3, || 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(ratio(2.5), "2.50");
        assert_eq!(ratio(f64::NAN), "-");
        assert_eq!(ratio(f64::INFINITY), "-");
    }
}
