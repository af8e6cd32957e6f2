//! Output pins for the mapping phase: FNV-1a hashes of every method's
//! `(map, n_coarse)` on a fixed graph matrix, under
//! `ExecPolicy::serial()`.
//!
//! The matrix is the mapping test battery (the graphs every method's unit
//! tests run: a path, a cycle, a star, a clique, a grid, a Delaunay-like
//! mesh, a small R-MAT, two vertices, and isolated strays next to a path)
//! plus the R-MAT scale-9 largest component and star-8192, for all 11
//! methods with seeds 7 and 42.
//!
//! A change meant to keep every mapping bit-identical (a new write
//! primitive, a shared phase function) must leave every pin in place; a
//! change meant to move labels re-pins the cases it moves and says which.
//! On a mismatch the test prints the whole table in the form of [`PINS`].

use mlcg_coarsen::{find_mapping, MapMethod};
use mlcg_graph::cc::largest_component;
use mlcg_graph::{builder, generators as gen, Csr};
use mlcg_par::ExecPolicy;

const METHODS: [MapMethod; 11] = [
    MapMethod::Hec,
    MapMethod::Hec2,
    MapMethod::Hec3,
    MapMethod::Hem,
    MapMethod::MtMetis,
    MapMethod::Gosh,
    MapMethod::GoshHec,
    MapMethod::Mis2,
    MapMethod::Suitor,
    MapMethod::SeqHec,
    MapMethod::SeqHem,
];

const SEEDS: [u64; 2] = [7, 42];

/// FNV-1a over the labels' little-endian bytes, then `n_coarse`'s.
fn fnv(map: &[u32], n_coarse: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = map
        .iter()
        .flat_map(|l| l.to_le_bytes())
        .chain((n_coarse as u64).to_le_bytes());
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("path", gen::path(50)),
        ("cycle", gen::cycle(33)),
        ("star", gen::star(40)),
        ("complete", gen::complete(12)),
        ("grid", gen::grid2d(12, 9)),
        (
            "delaunay",
            largest_component(&gen::delaunay_like(15, 15, 3)).0,
        ),
        (
            "rmat",
            largest_component(&gen::rmat(8, 6, 0.57, 0.19, 0.19, 5)).0,
        ),
        ("two-vertex", gen::path(2)),
        (
            "strays",
            builder::from_edges_unit(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (6, 7)]),
        ),
        (
            "rmat-9",
            largest_component(&gen::rmat(9, 8, 0.57, 0.19, 0.19, 5)).0,
        ),
        ("star-8192", gen::star(8192)),
    ]
}

/// Pins recorded before the mapping kernels moved onto `mlcg_par`'s safe
/// disjoint-write primitives, HEC2 onto a schedule-deterministic proposer
/// minimum, and GOSH-HEC onto HEC3's phase function; all three changes
/// left every pin in place.
const PINS: &[(&str, u64)] = &[
    ("hec/path/s7", 0x989af1ba9b1f9b6f),
    ("hec/path/s42", 0x8f74ec4de83665ce),
    ("hec2/path/s7", 0xebfece219c63f10a),
    ("hec2/path/s42", 0x15420b42c2f0ae94),
    ("hec3/path/s7", 0xebfece219c63f10a),
    ("hec3/path/s42", 0xebfece219c63f10a),
    ("hem/path/s7", 0x72e8f2117b72a445),
    ("hem/path/s42", 0x64698affe140898b),
    ("mtmetis/path/s7", 0x72e8f2117b72a445),
    ("mtmetis/path/s42", 0x64698affe140898b),
    ("gosh/path/s7", 0x18d32b2afb7d3aa2),
    ("gosh/path/s42", 0x4b775ef93fad9c97),
    ("goshec/path/s7", 0xebfece219c63f10a),
    ("goshec/path/s42", 0xebfece219c63f10a),
    ("mis2/path/s7", 0x409f6d689d135d21),
    ("mis2/path/s42", 0x0b8cf807e578544f),
    ("suitor/path/s7", 0x69341341a2310cc8),
    ("suitor/path/s42", 0xae8807cf90714ffd),
    ("seq-hec/path/s7", 0xdf8c1e69c560ba35),
    ("seq-hec/path/s42", 0x0d97a978c09399a7),
    ("seq-hem/path/s7", 0xa83aa18045700f25),
    ("seq-hem/path/s42", 0x5429664306070822),
    ("hec/cycle/s7", 0x6e163545c5d5825e),
    ("hec/cycle/s42", 0x8a4e0751a6cea6f0),
    ("hec2/cycle/s7", 0x1a98cc6941615807),
    ("hec2/cycle/s42", 0x0a61e7e245fde5ab),
    ("hec3/cycle/s7", 0x1a98cc6941615807),
    ("hec3/cycle/s42", 0x1a98cc6941615807),
    ("hem/cycle/s7", 0xbab292875fd02912),
    ("hem/cycle/s42", 0xc53e7f3acf875a24),
    ("mtmetis/cycle/s7", 0xbab292875fd02912),
    ("mtmetis/cycle/s42", 0xc53e7f3acf875a24),
    ("gosh/cycle/s7", 0x21e1d9c0571bc140),
    ("gosh/cycle/s42", 0x45ea9a53a1f32cef),
    ("goshec/cycle/s7", 0x1a98cc6941615807),
    ("goshec/cycle/s42", 0x1a98cc6941615807),
    ("mis2/cycle/s7", 0x99a7c66519983e84),
    ("mis2/cycle/s42", 0x0b9dd3a055c5b9fd),
    ("suitor/cycle/s7", 0x7f0617eb525f47fc),
    ("suitor/cycle/s42", 0xc2a6acf24438a387),
    ("seq-hec/cycle/s7", 0x0f5b7949af9cf8f6),
    ("seq-hec/cycle/s42", 0x67951a4ac26c58a7),
    ("seq-hem/cycle/s7", 0x82aa45cd326dfdf2),
    ("seq-hem/cycle/s42", 0x5c2c84c885e6a617),
    ("hec/star/s7", 0x16dfaf1758a41c24),
    ("hec/star/s42", 0x16dfaf1758a41c24),
    ("hec2/star/s7", 0x16dfaf1758a41c24),
    ("hec2/star/s42", 0x16dfaf1758a41c24),
    ("hec3/star/s7", 0x16dfaf1758a41c24),
    ("hec3/star/s42", 0x16dfaf1758a41c24),
    ("hem/star/s7", 0xc639c31d7a2e4f85),
    ("hem/star/s42", 0x42aa34f32193b065),
    ("mtmetis/star/s7", 0x6d9d1073c5734c71),
    ("mtmetis/star/s42", 0x7425e9f42d46e271),
    ("gosh/star/s7", 0x16dfaf1758a41c24),
    ("gosh/star/s42", 0x16dfaf1758a41c24),
    ("goshec/star/s7", 0x16dfaf1758a41c24),
    ("goshec/star/s42", 0x16dfaf1758a41c24),
    ("mis2/star/s7", 0x16dfaf1758a41c24),
    ("mis2/star/s42", 0x16dfaf1758a41c24),
    ("suitor/star/s7", 0xe82bf3bb99324145),
    ("suitor/star/s42", 0xa11be640ef96a965),
    ("seq-hec/star/s7", 0x16dfaf1758a41c24),
    ("seq-hec/star/s42", 0x16dfaf1758a41c24),
    ("seq-hem/star/s7", 0xb2eadc1704e00c75),
    ("seq-hem/star/s42", 0xf81e705a86eaf0f5),
    ("hec/complete/s7", 0x6bc65ccdeced9b64),
    ("hec/complete/s42", 0x6bc65ccdeced9b64),
    ("hec2/complete/s7", 0x6bc65ccdeced9b64),
    ("hec2/complete/s42", 0x6bc65ccdeced9b64),
    ("hec3/complete/s7", 0x6bc65ccdeced9b64),
    ("hec3/complete/s42", 0x6bc65ccdeced9b64),
    ("hem/complete/s7", 0xeae79cb47377e423),
    ("hem/complete/s42", 0x3c937196e1638303),
    ("mtmetis/complete/s7", 0xeae79cb47377e423),
    ("mtmetis/complete/s42", 0x3c937196e1638303),
    ("gosh/complete/s7", 0x6bc65ccdeced9b64),
    ("gosh/complete/s42", 0x6bc65ccdeced9b64),
    ("goshec/complete/s7", 0x6bc65ccdeced9b64),
    ("goshec/complete/s42", 0x6bc65ccdeced9b64),
    ("mis2/complete/s7", 0x6bc65ccdeced9b64),
    ("mis2/complete/s42", 0x6bc65ccdeced9b64),
    ("suitor/complete/s7", 0x300c0a7b048c3b83),
    ("suitor/complete/s42", 0x6477659ae149cd93),
    ("seq-hec/complete/s7", 0x6bc65ccdeced9b64),
    ("seq-hec/complete/s42", 0x6bc65ccdeced9b64),
    ("seq-hem/complete/s7", 0x6940d0128ec41d53),
    ("seq-hem/complete/s42", 0x3c937196e1638303),
    ("hec/grid/s7", 0x56cd26472313e756),
    ("hec/grid/s42", 0x8b5d2675f0a398cf),
    ("hec2/grid/s7", 0x523c7463b4d554c5),
    ("hec2/grid/s42", 0x523c7463b4d554c5),
    ("hec3/grid/s7", 0xbf0bbe07aff4a929),
    ("hec3/grid/s42", 0xbf0bbe07aff4a929),
    ("hem/grid/s7", 0x94df7762ecd1d678),
    ("hem/grid/s42", 0x0e47d6fce173031d),
    ("mtmetis/grid/s7", 0x94df7762ecd1d678),
    ("mtmetis/grid/s42", 0x0e47d6fce173031d),
    ("gosh/grid/s7", 0x17c326137dda0830),
    ("gosh/grid/s42", 0x210690d1a5ed5a7c),
    ("goshec/grid/s7", 0xbf0bbe07aff4a929),
    ("goshec/grid/s42", 0xbf0bbe07aff4a929),
    ("mis2/grid/s7", 0xf14052a09f9d72dc),
    ("mis2/grid/s42", 0x4b662b1e8db4d543),
    ("suitor/grid/s7", 0x2819bf78b6a3bb1c),
    ("suitor/grid/s42", 0xb70cde37d4f82e79),
    ("seq-hec/grid/s7", 0x19ea6db5eced1d7a),
    ("seq-hec/grid/s42", 0xc28b553e71d72378),
    ("seq-hem/grid/s7", 0xffadde3a7e85ee5a),
    ("seq-hem/grid/s42", 0x024d78c9f4ad31da),
    ("hec/delaunay/s7", 0x0c1a699aaec2227c),
    ("hec/delaunay/s42", 0x9a7d43fb20c61263),
    ("hec2/delaunay/s7", 0x6e561e97ae37e3da),
    ("hec2/delaunay/s42", 0x914428b7f6f4cbd1),
    ("hec3/delaunay/s7", 0x6e561e97ae37e3da),
    ("hec3/delaunay/s42", 0x6e561e97ae37e3da),
    ("hem/delaunay/s7", 0x5155a01471624700),
    ("hem/delaunay/s42", 0xd7c550edc9f983a3),
    ("mtmetis/delaunay/s7", 0x5155a01471624700),
    ("mtmetis/delaunay/s42", 0xd7c550edc9f983a3),
    ("gosh/delaunay/s7", 0x039ff6055b7cfb08),
    ("gosh/delaunay/s42", 0x3de6a747da056066),
    ("goshec/delaunay/s7", 0x6e561e97ae37e3da),
    ("goshec/delaunay/s42", 0x6e561e97ae37e3da),
    ("mis2/delaunay/s7", 0x137599b54b71730c),
    ("mis2/delaunay/s42", 0x91648e3dc9072d31),
    ("suitor/delaunay/s7", 0xbc458a2f33cbabd5),
    ("suitor/delaunay/s42", 0x7a965fc3194a1182),
    ("seq-hec/delaunay/s7", 0xe9141a1387b36d35),
    ("seq-hec/delaunay/s42", 0xe381186826992cb0),
    ("seq-hem/delaunay/s7", 0x4e913a837f89b111),
    ("seq-hem/delaunay/s42", 0x6e30cebb8c4ee6b0),
    ("hec/rmat/s7", 0xfecab006ccf455ce),
    ("hec/rmat/s42", 0x4f58fc7ff0fb2249),
    ("hec2/rmat/s7", 0x29c8af0f452c346a),
    ("hec2/rmat/s42", 0x0b657dc1fd5104da),
    ("hec3/rmat/s7", 0xd4051121154eded3),
    ("hec3/rmat/s42", 0xd4051121154eded3),
    ("hem/rmat/s7", 0xd98375d9bb068868),
    ("hem/rmat/s42", 0x64894839ed33483d),
    ("mtmetis/rmat/s7", 0xed28883eaa662b44),
    ("mtmetis/rmat/s42", 0xf5477e9d355e129f),
    ("gosh/rmat/s7", 0x0bb5eb6f8207cd2b),
    ("gosh/rmat/s42", 0x0bb5eb6f8207cd2b),
    ("goshec/rmat/s7", 0xa1f2eec5f804be13),
    ("goshec/rmat/s42", 0x8f51caae35cb2373),
    ("mis2/rmat/s7", 0x331eaf974973e73a),
    ("mis2/rmat/s42", 0x8f4da47905a11074),
    ("suitor/rmat/s7", 0x0640bc18cac688c6),
    ("suitor/rmat/s42", 0xb4d0a0b5c4775f6f),
    ("seq-hec/rmat/s7", 0x657d03e333c94c56),
    ("seq-hec/rmat/s42", 0x1065fcd879b28575),
    ("seq-hem/rmat/s7", 0xc86e22bc1407f7f2),
    ("seq-hem/rmat/s42", 0x0a138b47a7d8f25c),
    ("hec/two-vertex/s7", 0x692558b056101a44),
    ("hec/two-vertex/s42", 0x692558b056101a44),
    ("hec2/two-vertex/s7", 0x692558b056101a44),
    ("hec2/two-vertex/s42", 0x692558b056101a44),
    ("hec3/two-vertex/s7", 0x692558b056101a44),
    ("hec3/two-vertex/s42", 0x692558b056101a44),
    ("hem/two-vertex/s7", 0x692558b056101a44),
    ("hem/two-vertex/s42", 0x692558b056101a44),
    ("mtmetis/two-vertex/s7", 0x692558b056101a44),
    ("mtmetis/two-vertex/s42", 0x692558b056101a44),
    ("gosh/two-vertex/s7", 0x692558b056101a44),
    ("gosh/two-vertex/s42", 0x692558b056101a44),
    ("goshec/two-vertex/s7", 0x692558b056101a44),
    ("goshec/two-vertex/s42", 0x692558b056101a44),
    ("mis2/two-vertex/s7", 0x692558b056101a44),
    ("mis2/two-vertex/s42", 0x692558b056101a44),
    ("suitor/two-vertex/s7", 0x692558b056101a44),
    ("suitor/two-vertex/s42", 0x692558b056101a44),
    ("seq-hec/two-vertex/s7", 0x692558b056101a44),
    ("seq-hec/two-vertex/s42", 0x692558b056101a44),
    ("seq-hem/two-vertex/s7", 0x692558b056101a44),
    ("seq-hem/two-vertex/s42", 0x692558b056101a44),
    ("hec/strays/s7", 0xe1856b0c9eb40467),
    ("hec/strays/s42", 0x75537fae4c8cb6b6),
    ("hec2/strays/s7", 0x0c44cb37f91be6d4),
    ("hec2/strays/s42", 0xdd37c32990ccfb93),
    ("hec3/strays/s7", 0x0c44cb37f91be6d4),
    ("hec3/strays/s42", 0x0c44cb37f91be6d4),
    ("hem/strays/s7", 0xe07456d87bcbb5b7),
    ("hem/strays/s42", 0xb9202d326c2e72f5),
    ("mtmetis/strays/s7", 0xe07456d87bcbb5b7),
    ("mtmetis/strays/s42", 0xb9202d326c2e72f5),
    ("gosh/strays/s7", 0x482ee97333608796),
    ("gosh/strays/s42", 0xd862e2f02ad35a36),
    ("goshec/strays/s7", 0x0c44cb37f91be6d4),
    ("goshec/strays/s42", 0x0c44cb37f91be6d4),
    ("mis2/strays/s7", 0xd862e2f02ad35a36),
    ("mis2/strays/s42", 0xd862e2f02ad35a36),
    ("suitor/strays/s7", 0xb9202d326c2e72f5),
    ("suitor/strays/s42", 0xe07456d87bcbb5b7),
    ("seq-hec/strays/s7", 0x42c53ec180f0f1a7),
    ("seq-hec/strays/s42", 0xd862e2f02ad35a36),
    ("seq-hem/strays/s7", 0x54c61792a1433cb5),
    ("seq-hem/strays/s42", 0x577694bd14994e42),
    ("hec/rmat-9/s7", 0x75f43539d2b531aa),
    ("hec/rmat-9/s42", 0x9ba6086533809ff7),
    ("hec2/rmat-9/s7", 0xe888ebd0c3e20825),
    ("hec2/rmat-9/s42", 0x08f10dda4d794eff),
    ("hec3/rmat-9/s7", 0x25dcb750c5c71fdd),
    ("hec3/rmat-9/s42", 0x25dcb750c5c71fdd),
    ("hem/rmat-9/s7", 0xe6d69791adec000c),
    ("hem/rmat-9/s42", 0xfc391fb8dad9e5ff),
    ("mtmetis/rmat-9/s7", 0x80a5118c01fd69b5),
    ("mtmetis/rmat-9/s42", 0xca4ee3d47052eda4),
    ("gosh/rmat-9/s7", 0xdc6550568c53d5c3),
    ("gosh/rmat-9/s42", 0x22b320ce83297792),
    ("goshec/rmat-9/s7", 0x426fec3d52c95325),
    ("goshec/rmat-9/s42", 0xc31e8975bc72d006),
    ("mis2/rmat-9/s7", 0x33299ca232638c16),
    ("mis2/rmat-9/s42", 0xdba1edc12a93e483),
    ("suitor/rmat-9/s7", 0xdb9b6160dc536440),
    ("suitor/rmat-9/s42", 0xc42df669e6c5bb6a),
    ("seq-hec/rmat-9/s7", 0xe09d04c305c3df43),
    ("seq-hec/rmat-9/s42", 0xbad953e4d8067a14),
    ("seq-hem/rmat-9/s7", 0xaa16c5e32c9c004d),
    ("seq-hem/rmat-9/s42", 0xc6ec0052b3191343),
    ("hec/star-8192/s7", 0xcdd0e8d6ab34efa4),
    ("hec/star-8192/s42", 0xcdd0e8d6ab34efa4),
    ("hec2/star-8192/s7", 0xcdd0e8d6ab34efa4),
    ("hec2/star-8192/s42", 0xcdd0e8d6ab34efa4),
    ("hec3/star-8192/s7", 0xcdd0e8d6ab34efa4),
    ("hec3/star-8192/s42", 0xcdd0e8d6ab34efa4),
    ("hem/star-8192/s7", 0xaa3d01de14134465),
    ("hem/star-8192/s42", 0x955e7e7ade8000b5),
    ("mtmetis/star-8192/s7", 0xdd060c1e9ac8c815),
    ("mtmetis/star-8192/s42", 0x6f0cb1b0c8ddc515),
    ("gosh/star-8192/s7", 0xcdd0e8d6ab34efa4),
    ("gosh/star-8192/s42", 0xcdd0e8d6ab34efa4),
    ("goshec/star-8192/s7", 0xcdd0e8d6ab34efa4),
    ("goshec/star-8192/s42", 0xcdd0e8d6ab34efa4),
    ("mis2/star-8192/s7", 0xcdd0e8d6ab34efa4),
    ("mis2/star-8192/s42", 0xcdd0e8d6ab34efa4),
    ("suitor/star-8192/s7", 0x30c065112f0c2f35),
    ("suitor/star-8192/s42", 0xa6506199bbff4e75),
    ("seq-hec/star-8192/s7", 0xcdd0e8d6ab34efa4),
    ("seq-hec/star-8192/s42", 0xcdd0e8d6ab34efa4),
    ("seq-hem/star-8192/s7", 0x8abbd762d43926e9),
    ("seq-hem/star-8192/s42", 0x3ed93982c2450c81),
];

#[test]
fn mapping_outputs_match_their_pins() {
    let serial = ExecPolicy::serial();
    let mut cases = Vec::new();
    for (gname, g) in graphs() {
        for method in METHODS {
            for seed in SEEDS {
                let (m, _) = find_mapping(&serial, &g, method, seed);
                let name = format!("{}/{gname}/s{seed}", method.name());
                cases.push((name, fnv(&m.map, m.n_coarse)));
            }
        }
    }
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
