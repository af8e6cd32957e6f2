//! Output pins for the generators: FNV-1a hashes of every generated graph
//! on a fixed matrix.
//!
//! Every generator builds its graph through `builder::from_edges_unit`, so
//! these pins hold the sampler and the unit-weight build to the exact
//! graphs they produced when the pins were recorded: the offsets' width,
//! the offsets, the sorted adjacency, the edge weights and the vertex
//! weights. The matrix covers both `suite::mini_suite` graphs for two
//! seeds, `gen::rmat` at two scales, `grid3d` with each stencil (Box27 is
//! the `mesh-kway8` input's shape) and one small instance of every other
//! generator.
//!
//! A change meant to keep every generated graph bit-identical (a faster
//! sampler, a leaner build) must leave every pin in place; a change meant
//! to move graphs re-pins the cases it moves and says which. On a mismatch
//! the test prints the whole table in the form of [`PINS`].

use mlcg_graph::cc::largest_component;
use mlcg_graph::generators as gen;
use mlcg_graph::suite::mini_suite;
use mlcg_graph::Csr;

/// FNV-1a over the offsets' width tag (0 for `u32`, 1 for wide), then the
/// offsets, adjacency, edge weights and vertex weights as little-endian
/// words.
fn fnv(g: &Csr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&[u8::from(!g.offsets_are_u32())]);
    let off = g.offsets();
    for i in 0..off.len() {
        eat(&(off.get(i) as u64).to_le_bytes());
    }
    for &v in g.adj() {
        eat(&v.to_le_bytes());
    }
    for &w in g.wgt() {
        eat(&w.to_le_bytes());
    }
    for &w in g.vwgt() {
        eat(&w.to_le_bytes());
    }
    h
}

fn graphs() -> Vec<(String, Csr)> {
    let mut out: Vec<(String, Csr)> = Vec::new();
    for seed in [7u64, 42] {
        for ng in mini_suite(seed) {
            out.push((format!("mini/{}/s{seed}", ng.name), ng.graph));
        }
    }
    out.push(("rmat-10".into(), gen::rmat(10, 8, 0.57, 0.19, 0.19, 5)));
    out.push((
        "rmat-12".into(),
        gen::rmat(12, 14, 0.57, 0.19, 0.19, 11 ^ 0xa),
    ));
    out.push((
        "rmat-11-orkut".into(),
        gen::rmat(11, 12, 0.45, 0.22, 0.22, 3),
    ));
    out.push((
        "rmat-11-lcc".into(),
        largest_component(&gen::rmat(11, 8, 0.57, 0.19, 0.19, 21)).0,
    ));
    for (name, stencil) in [
        ("star7", gen::Stencil::Star7),
        ("box27", gen::Stencil::Box27),
        ("box125", gen::Stencil::Box125),
    ] {
        out.push((format!("grid3d-{name}"), gen::grid3d(9, 8, 7, stencil)));
    }
    out.push(("grid2d".into(), gen::grid2d(31, 17)));
    out.push(("road".into(), gen::road(20, 15, 4, 0.08, 2)));
    out.push(("banded".into(), gen::banded(3000, 30, 16, 4)));
    out.push(("rgg".into(), gen::rgg(3000, 15.0, 1)));
    out.push(("delaunay".into(), gen::delaunay_like(40, 30, 3)));
    out.push(("ba".into(), gen::ba(3000, 6, 11)));
    out.push(("copying".into(), gen::copying(3000, 8, 0.6, 13)));
    out.push((
        "cliques-overlay".into(),
        gen::cliques_overlay(2000, 600, 20, 12),
    ));
    out.push(("small-world".into(), gen::small_world(2000, 9, 0.3, 14)));
    out.push((
        "with-hubs".into(),
        gen::with_hubs(&gen::small_world(2000, 9, 0.3, 14), 12, 400, 15),
    ));
    out.push(("kmer-paths".into(), gen::kmer_paths(60, 40, 40, 8)));
    out.push(("mycielskian".into(), gen::mycielskian(8)));
    out.push(("path".into(), gen::path(50)));
    out.push(("cycle".into(), gen::cycle(33)));
    out.push(("star".into(), gen::star(40)));
    out.push(("complete".into(), gen::complete(12)));
    out
}

/// Pins recorded before the unit-weight build stopped staging weights and
/// R-MAT stopped branching on its quadrant draw.
const PINS: &[(&str, u64)] = &[
    ("mini/delaunay/s7", 0x8e539a0f0e71d0e6),
    ("mini/kron/s7", 0x3dfd21631d8cb137),
    ("mini/delaunay/s42", 0xacd6ed765eb866e9),
    ("mini/kron/s42", 0x5090423755728907),
    ("rmat-10", 0x76238d1b89671877),
    ("rmat-12", 0xbcac34e3967d38be),
    ("rmat-11-orkut", 0x078b722fcb5d68d9),
    ("rmat-11-lcc", 0x675174cf03809fad),
    ("grid3d-star7", 0xd67a19375e97742e),
    ("grid3d-box27", 0x94c93d22d98c403b),
    ("grid3d-box125", 0xf88d5186517863db),
    ("grid2d", 0x1f2dd7e6637e60c6),
    ("road", 0x96217db839f24f24),
    ("banded", 0x2950ec906e7b1d61),
    ("rgg", 0x91b275b552534d7a),
    ("delaunay", 0xff0040cd91ac5696),
    ("ba", 0xf75d215f10b36370),
    ("copying", 0x8df0f60ae62d6ce8),
    ("cliques-overlay", 0xffd77cf5041e9ff5),
    ("small-world", 0x24fd75efd1690584),
    ("with-hubs", 0xaa317bd43ccaea9f),
    ("kmer-paths", 0xa97cfa45bdff8f16),
    ("mycielskian", 0x8ce93d4041857ebe),
    ("path", 0xe565eca37bc76f2d),
    ("cycle", 0xf4fb58684ef08e9c),
    ("star", 0xe50ad79d8f9cab57),
    ("complete", 0x80757be4e9fe79bf),
];

#[test]
fn generated_graphs_match_their_pins() {
    let cases: Vec<(String, u64)> = graphs()
        .into_iter()
        .map(|(name, g)| {
            g.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let h = fnv(&g);
            (name, h)
        })
        .collect();
    let table: String = cases
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", {hash:#018x}),\n"))
        .collect();
    let mismatched: Vec<&str> = cases
        .iter()
        .filter(|(name, hash)| !PINS.contains(&(name.as_str(), *hash)))
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        mismatched.is_empty() && cases.len() == PINS.len(),
        "{} of {} cases moved off their pins: {mismatched:?}\n\
         computed table:\n{table}",
        mismatched.len(),
        cases.len()
    );
}
