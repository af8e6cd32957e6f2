//! Property suite for graph IO and the streaming ingest substrate.
//!
//! Covers: write→read roundtrips for all three formats over the
//! {grid2d, rmat, path} generator families (unit- and random-weighted),
//! streamed ≡ in-memory bit-identity across chunk sizes, merge modes and
//! every test execution policy (both on suite graphs and on
//! proplite-randomized edge multisets with duplicates and self-loops),
//! file ingestion at randomized chunk sizes with staging-bound checks,
//! and malformed-input negatives (truncated size line, id ≥ 2³²,
//! zero weight, asymmetric METIS). The one-pass METIS reader is pinned to
//! the builder-based semantics (kept here as `reference_metis`) on valid
//! files, and mutation-fuzzed: a mutant is rejected with `InvalidData` or
//! read as the graph the reference reads, never a panic.

use mlcg_graph::builder::{from_edges_weighted, from_edges_with_mode, EDGE_ITEM_BYTES};
use mlcg_graph::cc::largest_component;
use mlcg_graph::io;
use mlcg_graph::stream::{build_csr, IngestOptions, SliceSource};
use mlcg_graph::{generators, Csr, MergeMode, VId, Weight};
use mlcg_par::proplite::run_cases;
use mlcg_par::ExecPolicy;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mlcg-io-props-{}-{name}", std::process::id()));
    p
}

/// The three generator families the issue names. Every vertex of each
/// graph has degree ≥ 1 (rmat is reduced to its largest component), so
/// edge-list roundtrips preserve the vertex count.
fn suite() -> Vec<(String, Csr)> {
    vec![
        ("grid2d-12x9".to_string(), generators::grid2d(12, 9)),
        (
            "rmat-7".to_string(),
            largest_component(&generators::rmat(7, 6, 0.45, 0.22, 0.22, 1)).0,
        ),
        ("path-40".to_string(), generators::path(40)),
    ]
}

/// Deterministically re-weight a unit graph so the weighted roundtrip
/// exercises non-trivial weights.
fn reweight(g: &Csr) -> Csr {
    let mut edges: Vec<(VId, VId, Weight)> = Vec::new();
    for u in 0..g.n() as VId {
        for (v, _) in g.edges(u) {
            if v > u {
                edges.push((u, v, (u as u64 * 31 + v as u64 * 17) % 9 + 1));
            }
        }
    }
    from_edges_weighted(g.n(), &edges)
}

/// Each undirected edge once, as the builder's input convention.
fn upper_edges(g: &Csr) -> Vec<(VId, VId, Weight)> {
    let mut edges = Vec::with_capacity(g.m());
    for u in 0..g.n() as VId {
        for (v, w) in g.edges(u) {
            if v > u {
                edges.push((u, v, w));
            }
        }
    }
    edges
}

#[test]
fn roundtrip_matrix_all_formats_and_families() {
    for (name, base) in suite() {
        for (wname, g) in [("unit", base.clone()), ("weighted", reweight(&base))] {
            let ctx = format!("{name}-{wname}");

            let p = tmp(&format!("rt-{ctx}.mtx"));
            io::write_matrix_market(&g, &p).unwrap();
            assert_eq!(io::read_matrix_market(&p).unwrap(), g, "mtx {ctx}");
            std::fs::remove_file(&p).ok();

            let p = tmp(&format!("rt-{ctx}.graph"));
            io::write_metis(&g, &p).unwrap();
            assert_eq!(io::read_metis(&p).unwrap(), g, "metis {ctx}");
            std::fs::remove_file(&p).ok();

            let p = tmp(&format!("rt-{ctx}.txt"));
            io::write_edge_list(&g, &p).unwrap();
            assert_eq!(io::read_edge_list(&p).unwrap(), g, "edge list {ctx}");
            std::fs::remove_file(&p).ok();
        }
    }
}

#[test]
fn streamed_equals_in_memory_on_suite_graphs() {
    for (name, g) in suite() {
        let edges = upper_edges(&g);
        for chunk_edges in [1usize, 64, 1 << 20] {
            for policy in ExecPolicy::all_test_policies() {
                let label = format!("{name} chunk {chunk_edges} policy {policy}");
                let mut src = SliceSource::new(g.n(), &edges);
                let opts = IngestOptions {
                    chunk_edges,
                    policy,
                };
                let (streamed, stats) = build_csr(&mut src, MergeMode::Sum, &opts).unwrap();
                assert_eq!(streamed, g, "{label}");
                assert!(stats.offsets_are_u32, "{label}");
                assert_eq!(
                    stats.peak_staging_bytes,
                    chunk_edges * EDGE_ITEM_BYTES,
                    "staging bounded by chunk, not m: {label}"
                );
            }
        }
    }
}

/// Cross-check of the allocator-backed staging meter: the streamed
/// builder's measured peak heap must equal the predictable budget — the
/// chunk staging buffer plus the finished CSR — within 10%, at several
/// pinned chunkings. Serial policy so every allocation lands on the
/// measuring thread's scope.
#[test]
fn streamed_peak_heap_matches_staging_plus_csr() {
    let g = generators::grid2d(64, 64);
    let edges = upper_edges(&g);
    for chunk_edges in [256usize, 1024, 4096] {
        let opts = IngestOptions {
            chunk_edges,
            policy: ExecPolicy::serial(),
        };
        let ((streamed, stats), mem) = mlcg_par::mem::measure(|| {
            let mut src = SliceSource::new(g.n(), &edges);
            build_csr(&mut src, MergeMode::Sum, &opts).unwrap()
        });
        assert_eq!(streamed, g, "chunk {chunk_edges}");
        assert_eq!(stats.peak_staging_bytes, chunk_edges * EDGE_ITEM_BYTES);
        let expected = (stats.peak_staging_bytes + streamed.heap_bytes()) as f64;
        let ratio = mem.peak_bytes as f64 / expected;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "chunk {chunk_edges}: measured peak {} vs staging+CSR budget {} (ratio {ratio:.3})",
            mem.peak_bytes,
            expected as u64
        );
    }
}

#[test]
fn streamed_equals_in_memory_on_random_multisets() {
    run_cases(20, 0x10_77, |gen| {
        let n = gen.usize_in(1, 300);
        let m = gen.usize_in(0, 2000);
        // Raw multiset: duplicates, self-loops, isolated vertices likely.
        let edges: Vec<(VId, VId, Weight)> = (0..m)
            .map(|_| {
                (
                    gen.below(n as u64) as VId,
                    gen.below(n as u64) as VId,
                    gen.below(9) + 1,
                )
            })
            .collect();
        let chunk_edges = gen.usize_in(1, 2 * m.max(1));
        for mode in [MergeMode::Unit, MergeMode::Sum, MergeMode::Max] {
            let reference = from_edges_with_mode(&ExecPolicy::serial(), n, &edges, mode);
            reference.validate().unwrap();
            for policy in ExecPolicy::all_test_policies() {
                let label = format!("n={n} m={m} chunk={chunk_edges} mode={mode:?} {policy}");
                let mut src = SliceSource::new(n, &edges);
                let opts = IngestOptions {
                    chunk_edges,
                    policy,
                };
                let (streamed, _) = build_csr(&mut src, mode, &opts).unwrap();
                assert_eq!(streamed, reference, "{label}");
            }
        }
    });
}

#[test]
fn file_ingest_streamed_at_random_chunk_sizes() {
    let (name, g) = suite().swap_remove(1); // rmat: the irregular one
    let pm = tmp(&format!("chunked-{name}.mtx"));
    let pg = tmp(&format!("chunked-{name}.graph"));
    let pt = tmp(&format!("chunked-{name}.txt"));
    io::write_matrix_market(&g, &pm).unwrap();
    io::write_metis(&g, &pg).unwrap();
    io::write_edge_list(&g, &pt).unwrap();
    run_cases(12, 0xC4_11, |gen| {
        let opts = IngestOptions {
            chunk_edges: gen.usize_in(1, 2 * g.m()),
            policy: ExecPolicy::serial(),
        };
        for p in [&pm, &pg, &pt] {
            let (got, stats) = io::ingest_auto(p, &opts).unwrap();
            assert_eq!(got, g, "{} chunk {}", p.display(), opts.chunk_edges);
            // METIS is read in one pass straight into the CSR: no staging.
            let staged = if p == &pg {
                0
            } else {
                opts.chunk_edges * EDGE_ITEM_BYTES
            };
            assert_eq!(
                stats.peak_staging_bytes,
                staged,
                "staging bound for {}",
                p.display()
            );
            assert!(stats.offsets_are_u32);
        }
    });
    for p in [pm, pg, pt] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn malformed_inputs_rejected() {
    // Truncated Matrix Market size line.
    let p = tmp("neg-trunc.mtx");
    std::fs::write(
        &p,
        "%%MatrixMarket matrix coordinate pattern general\n4 4\n",
    )
    .unwrap();
    assert!(io::read_matrix_market(&p).is_err(), "truncated size line");
    std::fs::remove_file(&p).ok();

    // Matrix Market body shorter than the declared nnz.
    let p = tmp("neg-short.mtx");
    std::fs::write(
        &p,
        "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n",
    )
    .unwrap();
    assert!(io::read_matrix_market(&p).is_err(), "missing entries");
    std::fs::remove_file(&p).ok();

    // Edge-list id at/above the u32 id space.
    let p = tmp("neg-hugeid.txt");
    std::fs::write(&p, format!("0 {}\n", u32::MAX as u64)).unwrap();
    assert!(io::read_edge_list(&p).is_err(), "id >= 2^32 - 1");
    std::fs::remove_file(&p).ok();

    // Zero weight: edge list and METIS.
    let p = tmp("neg-zerow.txt");
    std::fs::write(&p, "0 1 0\n").unwrap();
    assert!(io::read_edge_list(&p).is_err(), "edge-list zero weight");
    std::fs::remove_file(&p).ok();

    let p = tmp("neg-zerow.graph");
    std::fs::write(&p, "2 1 001\n2 0\n1 0\n").unwrap();
    assert!(io::read_metis(&p).is_err(), "metis zero weight");
    std::fs::remove_file(&p).ok();

    // METIS: edges present only in the lower triangle.
    let p = tmp("neg-lower.graph");
    std::fs::write(&p, "2 1\n\n1\n").unwrap();
    assert!(io::read_metis(&p).is_err(), "lower-triangle-only metis");
    std::fs::remove_file(&p).ok();
}

/// The builder-based METIS semantics, kept as the reference: `lines()`
/// plus `split_whitespace`, each upper-triangle entry into the builder
/// (the lower-triangle ones only counted), then the header's `m` checked
/// against the built graph. It accepts some asymmetric files whose entry
/// counts balance; the one-pass reader rejects those.
fn reference_metis(path: &Path) -> std::io::Result<Csr> {
    use std::io::{BufRead, Error, ErrorKind};
    fn bad(msg: &str) -> Error {
        Error::new(ErrorKind::InvalidData, msg.to_string())
    }
    fn parse<T: std::str::FromStr>(tok: Option<&str>) -> std::io::Result<T> {
        tok.ok_or_else(|| bad("missing field"))?
            .parse()
            .map_err(|_| bad("unparsable field"))
    }
    let mut lines = std::io::BufReader::new(std::fs::File::open(path)?).lines();
    let header = loop {
        let line = lines.next().ok_or_else(|| bad("empty file"))??;
        if !(line.trim().is_empty() || line.starts_with('%')) {
            break line;
        }
    };
    let mut it = header.split_whitespace();
    let n: usize = parse(it.next())?;
    let m: usize = parse(it.next())?;
    let has_ewgt = match it.next().unwrap_or("0") {
        "0" | "00" | "000" => false,
        "1" | "01" | "001" => true,
        _ => return Err(bad("unsupported METIS fmt")),
    };
    let (mut u, mut upper, mut lower) = (0usize, 0usize, 0usize);
    let mut edges = Vec::new();
    for line in lines {
        let line = line?;
        if line.starts_with('%') {
            continue;
        }
        if u >= n {
            if !line.trim().is_empty() {
                return Err(bad("too many vertex lines"));
            }
            continue;
        }
        let mut it = line.split_whitespace();
        while let Some(tok) = it.next() {
            let v: usize = tok.parse().map_err(|_| bad("bad adjacency"))?;
            let w: Weight = if has_ewgt { parse(it.next())? } else { 1 };
            if v == 0 || v > n || w == 0 || v - 1 == u {
                return Err(bad("bad entry"));
            }
            if v - 1 > u {
                upper += 1;
                edges.push((u as VId, (v - 1) as VId, w));
            } else {
                lower += 1;
            }
        }
        u += 1;
    }
    if u != n || upper != m || lower != m {
        return Err(bad("line or entry count mismatch"));
    }
    let g = from_edges_weighted(n, &edges);
    if g.m() != m {
        return Err(bad("edge count mismatch"));
    }
    Ok(g)
}

/// A graph as METIS text: with `fmt 001` edge weights, or unweighted.
fn metis_text(g: &Csr, weighted: bool) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "{} {}{}\n",
        g.n(),
        g.m(),
        if weighted { " 001" } else { "" }
    );
    for u in 0..g.n() as VId {
        let row: Vec<String> = g
            .edges(u)
            .map(|(v, w)| {
                if weighted {
                    format!("{} {w}", v + 1)
                } else {
                    format!("{}", v + 1)
                }
            })
            .collect();
        writeln!(s, "{}", row.join(" ")).unwrap();
    }
    s
}

/// Read `bytes` as a METIS file with both readers.
fn read_both(name: &str, bytes: &[u8]) -> (std::io::Result<Csr>, std::io::Result<Csr>) {
    let p = tmp(name);
    std::fs::write(&p, bytes).unwrap();
    let got = io::read_metis(&p);
    let reference = reference_metis(&p);
    std::fs::remove_file(&p).ok();
    (got, reference)
}

/// Valid files that are not what `write_metis` writes: comments between
/// vertex lines, CRLF endings, tabs and vertical whitespace, `+`-signed
/// ids and weights, unsorted rows, empty lines for isolated vertices,
/// trailing blank lines, no final newline.
const HAND_WRITTEN: [(&str, &str); 6] = [
    (
        "comments",
        "% a triangle and an isolated vertex\n\n4 3\n% row 1\n2 3\n% row 2\n1 3\n1 2\n\n% done\n",
    ),
    ("crlf", "3 2 1\r\n2 4 3 1\r\n1 4\r\n1 1\r\n"),
    ("tabs", "3\t2 \t001\n2\t5\x0b3 6\n1\x0c5\n1 6\r\n"),
    ("signed", "3 2\n+2 3\n+1\n1\n"),
    ("unsorted", "4 4 1\n4 1 3 2 2 5\n3 7 1 5\n2 7 1 2\n1 1\n"),
    ("tail", "5 2\n2\n1\n\n5\n4\n\n\n\n"),
];

#[test]
fn metis_reader_equals_the_reference_on_valid_files() {
    let mut files: Vec<(String, String)> = Vec::new();
    for (name, base) in suite() {
        files.push((format!("{name}-unit-fmt0"), metis_text(&base, false)));
        files.push((format!("{name}-unit-fmt1"), metis_text(&base, true)));
        files.push((
            format!("{name}-weighted"),
            metis_text(&reweight(&base), true),
        ));
    }
    let box27 = generators::grid3d(24, 24, 24, generators::Stencil::Box27);
    files.push(("box27-24".to_string(), metis_text(&box27, true)));
    let rmat10 = largest_component(&generators::rmat(10, 8, 0.57, 0.19, 0.19, 3)).0;
    files.push((
        "rmat-10-weighted".to_string(),
        metis_text(&reweight(&rmat10), true),
    ));
    for (name, text) in HAND_WRITTEN {
        files.push((name.to_string(), text.to_string()));
    }
    let last = files[0].1.trim_end().to_string();
    files.push(("no-final-newline".to_string(), last));
    for (name, text) in &files {
        let (got, reference) = read_both(&format!("valid-{name}.graph"), text.as_bytes());
        let got = got.unwrap_or_else(|e| panic!("{name}: {e}"));
        got.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got, reference.unwrap(), "{name}");
    }
    let g = read_both("valid-check.graph", HAND_WRITTEN[4].1.as_bytes())
        .0
        .unwrap();
    assert_eq!(g.neighbors(0), &[1, 2, 3], "unsorted row read sorted");
    assert_eq!(g.weights(0), &[5, 2, 1]);
}

/// The reader's peak heap is the finished CSR plus a row cursor per
/// vertex and its line buffers: it stages no edges.
#[test]
fn metis_read_peaks_at_the_csr() {
    let g = generators::grid3d(24, 24, 24, generators::Stencil::Box27);
    let p = tmp("peak-box27-24.graph");
    io::write_metis(&g, &p).unwrap();
    let (got, mem) = mlcg_par::mem::measure(|| io::read_metis(&p).unwrap());
    std::fs::remove_file(&p).ok();
    assert_eq!(got, g);
    assert!(
        mem.peak_bytes as usize <= got.heap_bytes() + (256 << 10),
        "peak {} B against a {} B graph",
        mem.peak_bytes,
        got.heap_bytes()
    );
}

/// Apply one random mutation: flip a byte, truncate, delete, duplicate or
/// swap a line, or replace a token by `0`, `n + 1` or a 21-digit number.
fn mutate(gen: &mut mlcg_par::proplite::Gen, text: &[u8], n: usize) -> Vec<u8> {
    let mut bytes = text.to_vec();
    let mut lines: Vec<Vec<u8>> = text
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    let pick = |gen: &mut mlcg_par::proplite::Gen, len: usize| gen.below(len as u64) as usize;
    match gen.below(6) {
        0 => {
            let i = pick(gen, bytes.len());
            bytes[i] ^= 1 + gen.below(255) as u8;
            bytes
        }
        1 => {
            bytes.truncate(gen.usize_in(0, bytes.len() + 1));
            bytes
        }
        2 => {
            lines.remove(pick(gen, lines.len()));
            lines.concat()
        }
        3 => {
            let i = pick(gen, lines.len());
            lines.insert(i, lines[i].clone());
            lines.concat()
        }
        4 => {
            let (i, j) = (pick(gen, lines.len()), pick(gen, lines.len()));
            lines.swap(i, j);
            lines.concat()
        }
        _ => {
            let is_space = |b: &u8| b" \t\n\x0b\x0c\r".contains(b);
            let starts: Vec<usize> = (0..bytes.len())
                .filter(|&i| !is_space(&bytes[i]) && (i == 0 || is_space(&bytes[i - 1])))
                .collect();
            let s = starts[pick(gen, starts.len())];
            let e = (s..bytes.len())
                .find(|&i| is_space(&bytes[i]))
                .unwrap_or(bytes.len());
            let token = match gen.below(3) {
                0 => "0".to_string(),
                1 => (n + 1).to_string(),
                _ => "123456789012345678901".to_string(),
            };
            bytes.splice(s..e, token.bytes());
            bytes
        }
    }
}

#[test]
fn metis_mutants_are_rejected_or_read_as_the_reference_reads_them() {
    let small = [
        generators::path(12),
        generators::grid2d(5, 4),
        largest_component(&generators::rmat(6, 4, 0.45, 0.22, 0.22, 5)).0,
    ];
    let mut bases: Vec<(usize, Vec<u8>)> = Vec::new();
    for g in &small {
        bases.push((g.n(), metis_text(g, false).into_bytes()));
        bases.push((g.n(), metis_text(&reweight(g), true).into_bytes()));
    }
    for (_, text) in HAND_WRITTEN {
        let n = text
            .lines()
            .find(|l| !l.trim().is_empty() && !l.starts_with('%'));
        let n = n
            .and_then(|l| l.split_whitespace().next()?.parse().ok())
            .unwrap();
        bases.push((n, text.as_bytes().to_vec()));
    }
    let (mut accepted, mut rejected) = (0usize, 0usize);
    run_cases(600, 0x3E_71_5F, |gen| {
        let (n, base) = &bases[gen.below(bases.len() as u64) as usize];
        let mut bytes = mutate(gen, base, *n);
        if gen.below(4) == 0 {
            bytes = mutate(gen, &bytes, *n);
        }
        let p = tmp(&format!("mutant-{:x}.graph", gen.seed));
        std::fs::write(&p, &bytes).unwrap();
        let got = std::panic::catch_unwind(|| io::read_metis(&p))
            .unwrap_or_else(|_| panic!("reader panicked on {:?}", String::from_utf8_lossy(&bytes)));
        match got {
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                rejected += 1;
            }
            Ok(g) => {
                g.validate().unwrap();
                let reference = reference_metis(&p).unwrap_or_else(|e| {
                    panic!(
                        "reference rejects an accepted mutant ({e}): {:?}",
                        String::from_utf8_lossy(&bytes)
                    )
                });
                assert_eq!(g, reference, "{:?}", String::from_utf8_lossy(&bytes));
                accepted += 1;
            }
        }
        std::fs::remove_file(&p).ok();
    });
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}
