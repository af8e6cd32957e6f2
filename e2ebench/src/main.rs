//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark run and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

use mlcg_e2ebench::run::{run, Options};
use mlcg_e2ebench::workload::Workload;
use mlcg_par::ExecPolicy;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: e2ebench --workload <mesh-kway8|kron-coarsen> \
--seed <n> --seconds <s> --trace <0|1>";

fn fail(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}\n{USAGE}");
    exit(2);
}

/// Pins glibc malloc's mmap and trim thresholds; returns whether it did.
///
/// By default glibc raises its mmap threshold each time the process frees a
/// large mapped block, and trims the heap top when enough of it is free.
/// Which of an op's large arrays then come from fresh, page-faulting
/// mappings and which reuse heap memory depends on the process's history:
/// in one `kron-coarsen` run about half the ops page-faulted ~7,000 times
/// and took ~10% longer than the rest, which put the median op between two
/// speeds. Pinned (arrays up to 32 MiB from the heap, the heap never
/// trimmed), every op after the first reuses the memory the ones before it
/// freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets allocator parameters; it is called before
    // this process starts a second thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc() -> bool {
    false
}

fn main() {
    let malloc_pinned = pin_malloc();
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 55.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        let bad = |what: &str| -> ! { fail(&format!("bad value for {what}")) };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(Workload::parse(&v).unwrap_or_else(|| bad("--workload")));
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| bad("--seed")),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| bad("--seconds")),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("--trace"),
                }
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload else {
        fail("--workload is required")
    };

    // Pin the pool to one participant per CPU before anything sizes it:
    // the default, max(nproc, 4), time-slices spinning participants on
    // small machines.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("MLCG_THREADS", nproc.to_string());
    let pinned = mlcg_par::pool::configured_workers();
    let policy = ExecPolicy::host();

    let opts = Options {
        workload,
        graph: workload.graph(),
        seed,
        seconds,
        trace,
        workdir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work"),
    };
    println!(
        "e2ebench: workload {} ({:?}), seed {seed}, {} run, pool pinned to {pinned} \
         participants via MLCG_THREADS (nproc {nproc}), malloc thresholds {}",
        workload.name(),
        opts.graph,
        if trace { "traced" } else { "untraced" },
        if malloc_pinned {
            "pinned"
        } else {
            "left at their defaults"
        },
    );
    let report = match run(&opts, &policy) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            exit(1);
        }
    };
    for p in &report.problems {
        eprintln!("e2ebench: {p}");
    }
    println!(
        "input: {} vertices, {} edges; ops: {} timed, {} traced, {} attempted, {} failed \
         ({:.2}% failed)",
        report.input_size.0,
        report.input_size.1,
        report.timed_ops,
        report.traced_ops,
        report.attempted,
        report.failed,
        100.0 * report.failed as f64 / report.attempted.max(1) as f64
    );
    if !trace && report.timed_ops < 100 {
        eprintln!(
            "e2ebench: only {} timed ops; latency_p90_s has fewer than 10 samples beyond it",
            report.timed_ops
        );
    }
    if workload.partitions() {
        println!("worst op imbalance: {}", report.worst_imbalance);
    }
    for m in &report.metrics {
        println!("  {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
}
