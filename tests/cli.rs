//! End-to-end checks of the `mlcg` binary: malformed or out-of-range
//! option values exit with code 2 instead of running with a default, and
//! the partitioning commands succeed on a small generated graph.

use multilevel_coarsen::graph::{generators, io};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Write a small grid graph in METIS format under Cargo's temporary
/// directory for integration tests; `name` keeps concurrently running
/// tests apart.
fn graph_file(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}.graph"));
    io::write_metis(&generators::grid2d(12, 10), &path).expect("write test graph");
    path
}

fn mlcg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlcg"))
        .args(args)
        .output()
        .expect("run mlcg")
}

#[test]
fn malformed_numbers_are_rejected() {
    let path = graph_file("malformed");
    let g = path.to_str().unwrap();
    for args in [
        ["bisect", g, "--seed", "abc"],
        ["kway", g, "-k", "zero"],
        ["coarsen", g, "--cutoff", "x"],
    ] {
        let out = mlcg(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid value"), "{args:?}: {err}");
    }
}

#[test]
fn zero_parts_are_rejected() {
    let path = graph_file("zero-k");
    let out = mlcg(&["kway", path.to_str().unwrap(), "-k", "0"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn parallel_refinement_is_unknown() {
    let path = graph_file("refine");
    let out = mlcg(&["bisect", path.to_str().unwrap(), "--refine", "parallel"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown refinement"), "{err}");
}

#[test]
fn bisect_and_kway_report_a_cut() {
    let path = graph_file("partition");
    let g = path.to_str().unwrap();
    for args in [
        &["bisect", g, "--policy", "serial"][..],
        &["kway", g, "-k", "4", "--policy", "serial"][..],
    ] {
        let out = mlcg(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(stdout.contains("cut ="), "{args:?}: {stdout}");
    }
}
