//! Benchmark self-tests: the traced replay reproduces the untraced op, and
//! the checker turns corrupted outputs into failed ops.

use mlcg_e2ebench::check::{check_hierarchy, check_kway};
use mlcg_e2ebench::replay::replay_op;
use mlcg_e2ebench::run::{checked, run_with, timed, OpFn, Options, Tally, WARMUP_OPS};
use mlcg_e2ebench::workload::{
    coarsen_options, op_seeds, prepare, run_op, GraphSpec, Input, Output, Workload, K,
};
use mlcg_par::ExecPolicy;
use std::path::PathBuf;

/// Small inputs: a 10³ 27-point mesh and an R-MAT graph on 2^10 vertices.
fn small(w: Workload) -> GraphSpec {
    match w {
        Workload::MeshKway8 => GraphSpec::Box27 { side: 10 },
        Workload::KronCoarsen => GraphSpec::Rmat { scale: 10 },
    }
}

/// Each test uses its own seed, so concurrent tests never share a file.
fn small_input(w: Workload, seed: u64) -> Input {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{seed}-{}.graph",
        w.name(),
        std::process::id()
    ));
    prepare(w, small(w), seed, &path).expect("prepare small input")
}

fn assert_same(a: &Output, b: &Output, what: &str) {
    match (a, b) {
        (
            Output::Kway {
                graph: ga,
                result: ra,
            },
            Output::Kway {
                graph: gb,
                result: rb,
            },
        ) => {
            assert!(ga == gb, "{what}: partitioned graphs differ");
            assert_eq!(ra.part, rb.part, "{what}: labels differ");
            assert_eq!(ra.cut, rb.cut, "{what}: cuts differ");
            assert_eq!(ra.imbalance.to_bits(), rb.imbalance.to_bits(), "{what}");
        }
        (Output::Hierarchy(ha), Output::Hierarchy(hb)) => {
            assert!(ha.fine == hb.fine, "{what}: finest graphs differ");
            assert_eq!(
                ha.num_levels(),
                hb.num_levels(),
                "{what}: level counts differ"
            );
            for (i, (la, lb)) in ha.levels.iter().zip(&hb.levels).enumerate() {
                assert_eq!(la.mapping, lb.mapping, "{what}: level {i} mappings differ");
                assert!(la.graph == lb.graph, "{what}: level {i} graphs differ");
                assert_eq!(
                    la.map_stats.passes, lb.map_stats.passes,
                    "{what}: level {i}"
                );
            }
        }
        _ => panic!("{what}: output kinds differ"),
    }
}

#[test]
fn serial_replay_reproduces_untraced_ops_bit_for_bit() {
    let policy = ExecPolicy::serial();
    for w in Workload::ALL {
        let input = small_input(w, 3);
        for seed in op_seeds(3).take(3) {
            let plain = run_op(w, &input, &policy, seed).expect("untraced op");
            let replay = replay_op(w, &input, &policy, seed).expect("traced op");
            assert_same(&plain, &replay.output, &format!("{} seed {seed}", w.name()));
            // The replay covers the op with layer spans.
            let spans = replay.tracer.spans();
            assert_eq!(spans[0].name, "op");
            assert!(spans.len() > 2, "{}: only {} spans", w.name(), spans.len());
            assert!(spans.iter().skip(1).all(|s| s.parent.is_some()));
        }
        if let Input::File { path, .. } = &input {
            std::fs::remove_file(path).expect("remove small input");
        }
    }
}

#[test]
fn replay_counts_match_the_layers_it_ran() {
    let policy = ExecPolicy::serial();
    let input = small_input(Workload::MeshKway8, 5);
    let seed = op_seeds(5).next().unwrap();
    let r = replay_op(Workload::MeshKway8, &input, &policy, seed).unwrap();
    // An 8-way recursive bisection runs 7 bisections, each a hierarchy.
    assert_eq!(r.counts.bisections, K - 1);
    let multilevel = r
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "multilevel")
        .count();
    assert_eq!(multilevel, K - 1);
    let (before, after) = r.counts.refine_cuts.expect("refinement ran");
    assert!(
        after <= before,
        "refinement raised the cut {before} -> {after}"
    );
    assert!(r.counts.map_passes >= 1 && r.counts.ingest_bytes > 0);
    if let Input::File { path, .. } = &input {
        std::fs::remove_file(path).unwrap();
    }
}

/// Feed one (possibly corrupted) output through the run's accounting.
fn account<O, Q>(tally: &mut Tally, out: O, check: impl FnOnce(&O) -> Result<Q, String>) -> bool {
    let (_, out) = timed(|| Ok(out));
    tally.record(checked(out, check)).is_some()
}

#[test]
fn corrupted_partitions_count_as_failed_ops() {
    let policy = ExecPolicy::host();
    let input = small_input(Workload::MeshKway8, 7);
    let seed = op_seeds(7).next().unwrap();
    let Output::Kway { graph, result } =
        run_op(Workload::MeshKway8, &input, &policy, seed).unwrap()
    else {
        panic!("partition workload returns a partition");
    };
    let mut tally = Tally::default();
    assert!(account(&mut tally, result.clone(), |r| check_kway(
        &graph, r, K
    )));

    let mut out_of_range = result.clone();
    out_of_range.part[0] = K as u32;
    let mut emptied = result.clone();
    for p in emptied.part.iter_mut() {
        if *p == 7 {
            *p = 6;
        }
    }
    let mut off_by_one = result.clone();
    off_by_one.cut += 1;
    for (bad, expect) in [
        (out_of_range, "outside"),
        (emptied, "empty"),
        (off_by_one, "edge_cut"),
    ] {
        let err = check_kway(&graph, &bad, K).unwrap_err();
        assert!(err.contains(expect), "expected {expect:?} in {err:?}");
        assert!(!account(&mut tally, bad, |r| check_kway(&graph, r, K)));
    }
    assert_eq!((tally.attempted, tally.failed), (4, 3));
    if let Input::File { path, .. } = &input {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn corrupted_hierarchies_and_panics_count_as_failed_ops() {
    let policy = ExecPolicy::host();
    let w = Workload::KronCoarsen;
    let Input::Graph(g) = small_input(w, 9) else {
        panic!("the coarsening workload holds its input in memory");
    };
    let seed = op_seeds(9).next().unwrap();
    let opts = coarsen_options(w.method(), seed);
    let h = mlcg_coarsen::coarsen(&policy, &g, &opts);
    assert!(h.num_levels() >= 1);
    let mut tally = Tally::default();
    assert!(account(&mut tally, h.clone(), |h| check_hierarchy(
        &policy, &g, h, &opts
    )));

    let mut bad_id = h.clone();
    bad_id.levels[0].mapping.map[0] = bad_id.levels[0].mapping.n_coarse as u32;
    let err = check_hierarchy(&policy, &g, &bad_id, &opts).unwrap_err();
    assert!(err.contains("out of range"), "{err}");
    assert!(!account(&mut tally, bad_id, |h| check_hierarchy(
        &policy, &g, h, &opts
    )));

    let mut lost_weight = h.clone();
    let last = lost_weight.levels.len() - 1;
    let mut vwgt = lost_weight.levels[last].graph.vwgt().to_vec();
    vwgt[0] += 1;
    lost_weight.levels[last].graph.set_vwgt(vwgt);
    let err = check_hierarchy(&policy, &g, &lost_weight, &opts).unwrap_err();
    assert!(err.contains("vertex weight"), "{err}");

    let mut early_stop = h.clone();
    early_stop.levels.truncate(0);
    let err = check_hierarchy(&policy, &g, &early_stop, &opts).unwrap_err();
    assert!(err.contains("above the cutoff"), "{err}");

    let (_, out) = timed(|| -> std::io::Result<u32> { panic!("injected") });
    assert!(tally.record(checked(out, |_| Ok(()))).is_none());
    assert_eq!((tally.attempted, tally.failed), (3, 2));
}

fn failing_op(_: Workload, _: &Input, _: &ExecPolicy, _: u64) -> std::io::Result<Output> {
    Err(std::io::Error::other("injected failure"))
}

fn panicking_op(_: Workload, _: &Input, _: &ExecPolicy, _: u64) -> std::io::Result<Output> {
    panic!("injected panic")
}

#[test]
fn a_run_whose_every_op_fails_ends_and_is_not_correct() {
    let policy = ExecPolicy::serial();
    for (w, op) in [
        (Workload::KronCoarsen, failing_op as OpFn),
        (Workload::MeshKway8, panicking_op),
    ] {
        for seconds in [0.0, 0.05] {
            let opts = Options {
                workload: w,
                graph: small(w),
                seed: 13,
                seconds,
                trace: false,
                workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
            };
            let report = run_with(&opts, &policy, op).expect("run");
            let what = format!("{} for {seconds} s", w.name());
            assert!(!report.correct, "{what}");
            assert!(report.attempted > WARMUP_OPS, "{what}");
            assert_eq!(report.failed, report.attempted, "{what}");
            assert_eq!(report.timed_ops, 0, "{what}");
            assert!(report.problems[0].contains("injected"), "{what}");
            assert!(report.json().starts_with("{\"correct\": false, "), "{what}");
        }
    }
}
