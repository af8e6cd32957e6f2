//! Parallel edge-list → CSR construction.
//!
//! Generators and file readers produce each undirected edge once, possibly
//! with duplicates and self-loops (RMAT in particular emits both). The
//! builder symmetrizes, drops self-loops, merges duplicates, and sorts each
//! adjacency — producing a graph that satisfies every [`Csr`] invariant.
//!
//! The construction is organised as a two-pass chunked protocol
//! ([`StreamCsrBuilder`]): pass 1 counts directed entries per vertex over
//! any sequence of edge chunks, pass 2 replays the same chunks and scatters
//! into the final arrays through per-vertex cursors. Both passes run on the
//! calling thread; the offset scan and the per-row sort and merge of
//! [`finish`](StreamCsrBuilder::finish) run under the policy. The in-memory
//! entry points below feed the whole slice as one chunk, and
//! [`crate::stream`] feeds file readers chunk-by-chunk — both paths run the
//! identical count/scatter/sort/merge phases, so a streamed build is
//! bit-identical to an in-memory build of the same edge multiset (the merge
//! operators are commutative and associative, and every adjacency is sorted
//! before merging, so chunk boundaries and scheduling cannot show through).
//!
//! A chunk is a slice of any [`EdgeItem`]: `(u, v)` pairs are unit edges,
//! `(u, v, w)` triples carry a weight, so [`from_edges_unit`] hands its
//! pairs over without widening them into triples.
//!
//! The builder only does the work its [`MergeMode`] needs. A
//! [`MergeMode::Unit`] build stages no weights at all: it scatters ids
//! only, sorts and dedups each row's `u32` ids in place, and its weights
//! come out as one array of ones sized to the final graph. The weighted
//! modes scatter each weight next to its id and sort rows longer than the
//! insertion-sort cutoff through one scratch buffer per participant,
//! reused across that participant's rows.
//!
//! The builder's transient footprint is kept close to the output graph's
//! own size: scatter cursors and deduplicated-degree counts use `u32` words
//! whenever the entry count fits (mirroring [`Offsets`]' width rule), and
//! duplicate compaction runs in place instead of into a second copy of the
//! adjacency. The heap-telemetry suite (`bench-ingest` with tracing)
//! cross-checks the whole-build peak against `staging + Csr::heap_bytes()`.

use crate::csr::{Csr, Offsets, VId, Weight};
use mlcg_par::scan::{exclusive_scan, ScanElem};
use mlcg_par::sort::insertion_sort_pairs;
use mlcg_par::{parallel_fold_chunks, ExecPolicy};

/// Build an unweighted (all weights 1) undirected graph from an edge list.
/// Duplicate edges collapse to a single unit-weight edge; self-loops drop.
pub fn from_edges_unit(n: usize, edges: &[(VId, VId)]) -> Csr {
    build(&ExecPolicy::serial(), n, edges, MergeMode::Unit)
}

/// Build a weighted undirected graph; duplicate edges have weights summed.
pub fn from_edges_weighted(n: usize, edges: &[(VId, VId, Weight)]) -> Csr {
    build(&ExecPolicy::serial(), n, edges, MergeMode::Sum)
}

/// In-memory build with an explicit duplicate-merge mode. The reference
/// semantics the streamed path is property-tested against.
pub fn from_edges_with_mode(
    policy: &ExecPolicy,
    n: usize,
    edges: &[(VId, VId, Weight)],
    mode: MergeMode,
) -> Csr {
    build(policy, n, edges, mode)
}

/// How duplicate edges are merged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeMode {
    /// Keep weight 1 no matter how many copies appear (unweighted input).
    Unit,
    /// Sum the weights of all copies.
    Sum,
    /// Keep the maximum weight across copies. This is the correct merge for
    /// Matrix Market `general` files that store both triangles of a
    /// symmetric matrix: the `(i,j,w)` / `(j,i,w)` pair must collapse to
    /// `w`, not `2w`.
    Max,
}

/// One edge of a chunk: its two endpoints and its weight.
pub trait EdgeItem: Copy {
    /// The edge's endpoints.
    fn ends(self) -> (VId, VId);
    /// The edge's weight (ignored by a [`MergeMode::Unit`] build).
    fn weight(self) -> Weight;
}

/// A unit edge.
impl EdgeItem for (VId, VId) {
    fn ends(self) -> (VId, VId) {
        self
    }
    fn weight(self) -> Weight {
        1
    }
}

/// A weighted edge.
impl EdgeItem for (VId, VId, Weight) {
    fn ends(self) -> (VId, VId) {
        (self.0, self.1)
    }
    fn weight(self) -> Weight {
        self.2
    }
}

/// Bytes of one staged edge item — the unit "auxiliary bytes" are measured
/// in. `(u32, u32, u64)` packs to 16 bytes.
pub const EDGE_ITEM_BYTES: usize = std::mem::size_of::<(VId, VId, Weight)>();

/// Rows up to this long sort by insertion; longer weighted rows sort
/// through the participant's scratch buffer.
const INSERTION_CUTOFF: usize = 24;

/// Scatter-phase per-vertex write cursors. The narrow arm is used whenever
/// the total entry count fits in `u32` (the same rule [`Offsets`] applies),
/// halving the cursor array — on a graph whose offsets narrow, the wide
/// cursors would otherwise be the largest transient the builder holds.
enum Cursors {
    Narrow(Vec<u32>),
    Wide(Vec<usize>),
}

enum Phase {
    Counting,
    Scattering { cursors: Cursors },
}

/// Two-pass chunked CSR builder.
///
/// Protocol: construct with the exact vertex count, feed every edge chunk
/// through [`count_chunk`](Self::count_chunk), call
/// [`begin_scatter`](Self::begin_scatter), replay the *same* edge multiset
/// through [`scatter_chunk`](Self::scatter_chunk) (any chunking, any
/// order), then [`finish`](Self::finish). Feeding different edges in the
/// two passes is detected: scatter panics if a vertex receives more entries
/// than counted, and `finish` panics if any vertex received fewer.
pub struct StreamCsrBuilder {
    n: usize,
    mode: MergeMode,
    /// Counting: directed-entry counts (n+1). Scattering: offsets (n+1).
    xadj: Vec<usize>,
    adj: Vec<VId>,
    /// Scattered weights; stays empty under [`MergeMode::Unit`].
    wgt: Vec<Weight>,
    phase: Phase,
}

impl StreamCsrBuilder {
    /// Start a build for a graph with exactly `n` vertices.
    pub fn new(n: usize, mode: MergeMode) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 id space");
        StreamCsrBuilder {
            n,
            mode,
            xadj: vec![0usize; n + 1],
            adj: Vec::new(),
            wgt: Vec::new(),
            phase: Phase::Counting,
        }
    }

    /// Pass 1: count the directed entries contributed by one edge chunk
    /// (both endpoints, self-loops skipped).
    pub fn count_chunk<E: EdgeItem>(&mut self, chunk: &[E]) {
        assert!(
            matches!(self.phase, Phase::Counting),
            "count_chunk after begin_scatter"
        );
        let n = self.n;
        for &e in chunk.iter().take(64) {
            // Cheap spot check; full bounds are asserted during counting.
            let ((u, v), w) = (e.ends(), e.weight());
            debug_assert!(
                (u as usize) < n && (v as usize) < n && w > 0,
                "edge ({u},{v},{w}) out of range for n={n}"
            );
        }
        let counts = &mut self.xadj[..n];
        for &e in chunk {
            let (u, v) = e.ends();
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            if u != v {
                counts[u as usize] += 1;
                counts[v as usize] += 1;
            }
        }
    }

    /// Turn the counts into offsets and allocate the staging adjacency
    /// (and, in a weighted mode, its weights).
    pub fn begin_scatter(&mut self, policy: &ExecPolicy) {
        assert!(
            matches!(self.phase, Phase::Counting),
            "begin_scatter called twice"
        );
        let total = exclusive_scan(policy, &mut self.xadj);
        self.xadj[self.n] = total;
        self.adj = vec![0; total];
        if self.mode != MergeMode::Unit {
            self.wgt = vec![0; total];
        }
        let cursors = if total <= u32::MAX as usize {
            Cursors::Narrow(self.xadj[..self.n].iter().map(|&x| x as u32).collect())
        } else {
            Cursors::Wide(self.xadj[..self.n].to_vec())
        };
        self.phase = Phase::Scattering { cursors };
    }

    /// Pass 2: scatter one edge chunk (both directions) through the
    /// per-vertex cursors.
    pub fn scatter_chunk<E: EdgeItem>(&mut self, chunk: &[E]) {
        let Phase::Scattering { cursors } = &mut self.phase else {
            panic!("scatter_chunk before begin_scatter");
        };
        let (xadj, adj) = (&self.xadj, &mut self.adj);
        let wgt = (self.mode != MergeMode::Unit).then_some(&mut self.wgt[..]);
        match cursors {
            Cursors::Narrow(c) => scatter_with(chunk, xadj, c, adj, wgt),
            Cursors::Wide(c) => scatter_with(chunk, xadj, c, adj, wgt),
        }
    }

    /// Sort each adjacency, merge duplicates according to the mode, compact
    /// in place and produce the final [`Csr`].
    pub fn finish(self, policy: &ExecPolicy) -> Csr {
        let StreamCsrBuilder {
            n,
            mode,
            xadj,
            adj,
            wgt,
            phase,
        } = self;
        let Phase::Scattering { cursors } = phase else {
            panic!("finish before begin_scatter");
        };
        match cursors {
            Cursors::Narrow(c) => assert_filled(&c, &xadj),
            Cursors::Wide(c) => assert_filled(&c, &xadj),
        }

        // Deduplicated degrees (and the offsets scanned from them) are kept
        // at the width the final graph will use, so the finish phase never
        // materializes a full-width offset array that Offsets::from_usize
        // would immediately discard.
        let total = xadj[n];
        if total <= u32::MAX as usize {
            let (off, adj, wgt) = finish_arrays::<u32>(policy, xadj, adj, wgt, mode);
            Csr::from_offsets(Offsets::U32(off), adj, wgt)
        } else {
            let (off, adj, wgt) = finish_arrays::<usize>(policy, xadj, adj, wgt, mode);
            Csr::from_offsets(Offsets::from_usize(off), adj, wgt)
        }
    }
}

/// Integer word used for scatter cursors and deduplicated
/// degrees/offsets — `u32` when the entry count fits, matching the final
/// [`Offsets`] width.
trait Word: ScanElem {
    fn from_usize(x: usize) -> Self;
    fn to_usize(self) -> usize;
}

impl Word for u32 {
    fn from_usize(x: usize) -> Self {
        x as u32
    }
    fn to_usize(self) -> usize {
        self as usize
    }
}

impl Word for usize {
    fn from_usize(x: usize) -> Self {
        x
    }
    fn to_usize(self) -> usize {
        self
    }
}

/// The torn-source check of `finish`: every vertex's cursor reached the
/// end of its counted segment.
fn assert_filled<C: Word>(cur: &[C], xadj: &[usize]) {
    for (u, &c) in cur.iter().enumerate() {
        assert!(
            c.to_usize() == xadj[u + 1],
            "edge source changed between passes (vertex {u} underfull)"
        );
    }
}

/// Scatter one chunk, both directions of each edge, through the cursors
/// `cur` into `adj` and, in a weighted build, `wgt`. The bounds asserts
/// keep each claimed slot inside its vertex's counted segment, so a
/// source that yields more edges in pass 2 than in pass 1 panics instead
/// of writing into the next vertex's segment; for the same reason a
/// narrow cursor never passes the total, which fits in `u32`.
fn scatter_with<E: EdgeItem, C: Word>(
    chunk: &[E],
    xadj: &[usize],
    cur: &mut [C],
    adj: &mut [VId],
    mut wgt: Option<&mut [Weight]>,
) {
    let n = cur.len();
    for &e in chunk {
        let (u, v) = e.ends();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge endpoint out of range"
        );
        if u == v {
            continue;
        }
        for (x, y) in [(u, v), (v, u)] {
            let p = cur[x as usize].to_usize();
            assert!(
                p < xadj[x as usize + 1],
                "edge source changed between passes (vertex {x} overfull)"
            );
            cur[x as usize] = C::from_usize(p + 1);
            adj[p] = y;
            if let Some(wgt) = wgt.as_deref_mut() {
                wgt[p] = e.weight();
            }
        }
    }
}

/// Sort/merge every adjacency in place and compact out the dropped
/// duplicates, returning `(scanned offsets, adj, wgt)` with the offsets at
/// width `D`. A unit build's weights are made here, once, at the final
/// size.
fn finish_arrays<D: Word>(
    policy: &ExecPolicy,
    xadj: Vec<usize>,
    mut adj: Vec<VId>,
    mut wgt: Vec<Weight>,
    mode: MergeMode,
) -> (Vec<D>, Vec<VId>, Vec<Weight>) {
    let n = xadj.len() - 1;
    let total = xadj[n];

    let mut new_deg: Vec<D> = vec![D::default(); n + 1];
    merge_rows(policy, &xadj, &mut adj, &mut wgt, &mut new_deg[..n], mode);
    let new_total = exclusive_scan(policy, &mut new_deg).to_usize();
    new_deg[n] = D::from_usize(new_total);

    // Compact the surviving entries to the front — in place, so the build
    // never holds a second copy of the adjacency. Every destination lies
    // at-or-left-of its source, but a vertex's destination range can
    // overlap an *earlier* vertex's source range, so the moves must run in
    // vertex order: a parallel schedule could overwrite entries a lagging
    // earlier vertex still has to read. The sweep is one bandwidth-bound
    // pass and only runs when duplicates or self-loops were actually
    // dropped.
    if new_total < total {
        let weighted = mode != MergeMode::Unit;
        for u in 0..n {
            let src = xadj[u];
            let dst = new_deg[u].to_usize();
            let len = new_deg[u + 1].to_usize() - dst;
            if len == 0 || dst == src {
                continue;
            }
            adj.copy_within(src..src + len, dst);
            if weighted {
                wgt.copy_within(src..src + len, dst);
            }
        }
        adj.truncate(new_total);
        wgt.truncate(new_total);
        adj.shrink_to_fit();
        wgt.shrink_to_fit();
    }
    drop(xadj);
    if mode == MergeMode::Unit {
        wgt = vec![1; new_total];
    }
    (new_deg, adj, wgt)
}

/// Sort and merge each row `u` (entries `xadj[u]..xadj[u + 1]`) in place
/// under `mode`, writing its deduplicated length to `deg[u]`. Each
/// participant sorts long weighted rows through one scratch buffer that it
/// reuses for all of its rows.
fn merge_rows<D: Word>(
    policy: &ExecPolicy,
    xadj: &[usize],
    adj: &mut [VId],
    wgt: &mut [Weight],
    deg: &mut [D],
    mode: MergeMode,
) {
    let weighted = mode != MergeMode::Unit;
    let rows = deg.len();
    let adj_base = adj.as_mut_ptr() as usize;
    let wgt_base = wgt.as_mut_ptr() as usize;
    let deg_base = deg.as_mut_ptr() as usize;
    let fold = |scratch: &mut Vec<(VId, Weight)>, r: std::ops::Range<usize>| {
        let (s, e) = (xadj[r.start], xadj[r.end]);
        // SAFETY: the chunks of one dispatch are disjoint vertex ranges, so
        // their entry spans `xadj[r.start]..xadj[r.end]` and their `deg`
        // slots are disjoint too, and all lie inside the slices borrowed
        // above (the weights only in a weighted build, where `wgt` holds
        // every entry).
        let (a, x, d) = unsafe {
            (
                std::slice::from_raw_parts_mut((adj_base as *mut VId).add(s), e - s),
                if weighted {
                    std::slice::from_raw_parts_mut((wgt_base as *mut Weight).add(s), e - s)
                } else {
                    &mut []
                },
                std::slice::from_raw_parts_mut((deg_base as *mut D).add(r.start), r.len()),
            )
        };
        for (slot, u) in d.iter_mut().zip(r) {
            let row = xadj[u] - s..xadj[u + 1] - s;
            let len = if weighted {
                merge_weighted(&mut a[row.clone()], &mut x[row], scratch, mode)
            } else {
                dedup_ids(&mut a[row])
            };
            *slot = D::from_usize(len);
        }
    };
    parallel_fold_chunks(policy, rows, Vec::new, fold);
}

/// Sort a unit row's ids and drop the repeats; returns the kept length.
fn dedup_ids(a: &mut [VId]) -> usize {
    a.sort_unstable();
    let mut out = 0usize;
    for i in 0..a.len() {
        if out == 0 || a[i] != a[out - 1] {
            a[out] = a[i];
            out += 1;
        }
    }
    out
}

/// Sort a weighted row by id and merge each run of equal ids into one
/// entry under `mode`; returns the kept length.
fn merge_weighted(
    a: &mut [VId],
    x: &mut [Weight],
    scratch: &mut Vec<(VId, Weight)>,
    mode: MergeMode,
) -> usize {
    if a.len() <= INSERTION_CUTOFF {
        insertion_sort_pairs(a, x);
    } else {
        scratch.clear();
        scratch.extend(a.iter().copied().zip(x.iter().copied()));
        scratch.sort_unstable_by_key(|&(v, _)| v);
        for ((v, w), &(sv, sw)) in a.iter_mut().zip(x.iter_mut()).zip(scratch.iter()) {
            (*v, *w) = (sv, sw);
        }
    }
    let mut out = 0usize;
    let mut i = 0usize;
    while i < a.len() {
        let v = a[i];
        let mut w = x[i];
        i += 1;
        while i < a.len() && a[i] == v {
            w = match mode {
                MergeMode::Max => w.max(x[i]),
                _ => w + x[i],
            };
            i += 1;
        }
        a[out] = v;
        x[out] = w;
        out += 1;
    }
    out
}

fn build<E: EdgeItem>(policy: &ExecPolicy, n: usize, edges: &[E], mode: MergeMode) -> Csr {
    let mut b = StreamCsrBuilder::new(n, mode);
    b.count_chunk(edges);
    b.begin_scatter(policy);
    b.scatter_chunk(edges);
    b.finish(policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_loop_removal() {
        // Duplicates (0,1)x3, a reversed duplicate (1,0), and a self loop.
        let g = from_edges_unit(3, &[(0, 1), (0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        g.validate().unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.find_edge(0, 1), Some(1), "unit mode collapses duplicates");
        assert_eq!(g.find_edge(1, 2), Some(1));
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn weighted_duplicates_sum() {
        let g = from_edges_weighted(2, &[(0, 1, 3), (1, 0, 4)]);
        g.validate().unwrap();
        assert_eq!(g.find_edge(0, 1), Some(7));
    }

    #[test]
    fn max_merge_keeps_single_weight() {
        // The Matrix Market general-file shape: both triangles present.
        let policy = ExecPolicy::serial();
        let g = from_edges_with_mode(&policy, 2, &[(0, 1, 5), (1, 0, 5)], MergeMode::Max);
        g.validate().unwrap();
        assert_eq!(g.find_edge(0, 1), Some(5), "max merge must not double");
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(5);
        let n = 2000usize;
        let edges: Vec<(VId, VId)> = (0..30_000)
            .map(|_| {
                (
                    rng.next_below(n as u64) as VId,
                    rng.next_below(n as u64) as VId,
                )
            })
            .collect();
        let serial = from_edges_unit(n, &edges);
        let weighted: Vec<(VId, VId, Weight)> = edges.iter().map(|&(u, v)| (u, v, 1)).collect();
        for policy in ExecPolicy::all_test_policies() {
            let par = from_edges_with_mode(&policy, n, &weighted, MergeMode::Unit);
            assert_eq!(serial, par, "policy {policy}");
        }
        serial.validate().unwrap();
    }

    #[test]
    fn chunked_feed_matches_single_chunk() {
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(9);
        let n = 500usize;
        let edges: Vec<(VId, VId, Weight)> = (0..5_000)
            .map(|_| {
                (
                    rng.next_below(n as u64) as VId,
                    rng.next_below(n as u64) as VId,
                    rng.next_below(9) + 1,
                )
            })
            .collect();
        let policy = ExecPolicy::serial();
        let whole = from_edges_weighted(n, &edges);
        for chunk in [1usize, 7, 64, 4096] {
            let mut b = StreamCsrBuilder::new(n, MergeMode::Sum);
            for c in edges.chunks(chunk) {
                b.count_chunk(c);
            }
            b.begin_scatter(&policy);
            // Replay in reverse chunk order: the result must not care.
            for c in edges.chunks(chunk).rev() {
                b.scatter_chunk(c);
            }
            let g = b.finish(&policy);
            assert_eq!(g, whole, "chunk size {chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "changed between passes")]
    fn pass_mismatch_detected() {
        let policy = ExecPolicy::serial();
        let mut b = StreamCsrBuilder::new(3, MergeMode::Sum);
        b.count_chunk(&[(0, 1, 1)]);
        b.begin_scatter(&policy);
        b.scatter_chunk(&[(0, 1, 1), (1, 2, 1)]);
    }

    /// Test-local reference: an ordered map per row, merged edge by edge
    /// under `mode`, with none of the builder's phases.
    fn reference(n: usize, edges: &[(VId, VId, Weight)], mode: MergeMode) -> Csr {
        let mut rows = vec![std::collections::BTreeMap::<VId, Weight>::new(); n];
        for &(u, v, w) in edges {
            if u == v {
                continue;
            }
            let w = if mode == MergeMode::Unit { 1 } else { w };
            for (a, b) in [(u, v), (v, u)] {
                let slot = rows[a as usize].entry(b).or_insert(0);
                *slot = match mode {
                    MergeMode::Unit => 1,
                    MergeMode::Sum => *slot + w,
                    MergeMode::Max => (*slot).max(w),
                };
            }
        }
        let mut xadj = vec![0usize];
        let (mut adj, mut wgt) = (Vec::new(), Vec::new());
        for row in rows {
            for (v, w) in row {
                adj.push(v);
                wgt.push(w);
            }
            xadj.push(adj.len());
        }
        Csr::from_parts(xadj, adj, wgt)
    }

    /// Hubs 0..4 each take 300 edges into vertices 0..40 (rows far past
    /// the insertion cutoff, most entries repeats, a few self-loops), over
    /// a sparse random background.
    fn duplicate_heavy_edges(n: usize, seed: u64) -> Vec<(VId, VId, Weight)> {
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
        let mut edges = Vec::new();
        for hub in 0..4 {
            for _ in 0..300 {
                edges.push((hub, rng.next_below(40) as VId, rng.next_below(9) + 1));
            }
        }
        for _ in 0..800 {
            let (u, v) = (rng.next_below(n as u64), rng.next_below(n as u64));
            edges.push((v as VId, u as VId, rng.next_below(9) + 1));
        }
        rng.shuffle(&mut edges);
        edges
    }

    /// Feed `edges` to a streamed build in chunks of `chunk`, scattering
    /// the chunks in reverse order.
    fn streamed<E: EdgeItem>(
        policy: &ExecPolicy,
        n: usize,
        edges: &[E],
        chunk: usize,
        mode: MergeMode,
    ) -> Csr {
        let mut b = StreamCsrBuilder::new(n, mode);
        for c in edges.chunks(chunk) {
            b.count_chunk(c);
        }
        b.begin_scatter(policy);
        for c in edges.chunks(chunk).rev() {
            b.scatter_chunk(c);
        }
        b.finish(policy)
    }

    #[test]
    fn long_duplicate_heavy_rows_match_the_reference() {
        let n = 300;
        for seed in [1u64, 2] {
            let edges = duplicate_heavy_edges(n, seed);
            let pairs: Vec<(VId, VId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
            let unit = reference(n, &edges, MergeMode::Unit);
            assert!(unit.degree(0) > INSERTION_CUTOFF, "hub rows must be long");
            assert_eq!(from_edges_unit(n, &pairs), unit, "seed {seed}");
            for policy in ExecPolicy::all_test_policies() {
                for chunk in [1usize, 7, 64, 1000, edges.len()] {
                    let label = format!("seed {seed} {policy} chunk {chunk}");
                    let g = streamed(&policy, n, &pairs, chunk, MergeMode::Unit);
                    assert_eq!(g, unit, "unit pairs, {label}");
                    for mode in [MergeMode::Unit, MergeMode::Sum, MergeMode::Max] {
                        let g = streamed(&policy, n, &edges, chunk, mode);
                        assert_eq!(g, reference(n, &edges, mode), "{mode:?}, {label}");
                    }
                }
            }
        }
    }

    /// The panic message of a build whose scatter pass sees `scatter`
    /// after its count pass saw `count`.
    fn torn_build(policy: &ExecPolicy, count: &[(VId, VId)], scatter: &[(VId, VId)]) -> String {
        let run = || {
            let mut b = StreamCsrBuilder::new(64, MergeMode::Unit);
            b.count_chunk(count);
            b.begin_scatter(policy);
            b.scatter_chunk(scatter);
            b.finish(policy)
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("a torn source must panic");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(p) => p.downcast::<&str>().map(|m| m.to_string()).unwrap(),
        }
    }

    #[test]
    fn torn_unit_sources_panic_under_every_policy() {
        let edges: Vec<(VId, VId)> = (0..200u32).map(|i| (i % 64, (i * 7 + 3) % 64)).collect();
        let mut more = edges.clone();
        more.push((5, 9));
        for policy in ExecPolicy::all_test_policies() {
            let over = torn_build(&policy, &edges, &more);
            assert!(over.contains("changed between passes") && over.contains("overfull"));
            let under = torn_build(&policy, &more, &edges);
            assert!(under.contains("changed between passes") && under.contains("underfull"));
        }
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = from_edges_unit(5, &[(0, 1)]);
        g.validate().unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        from_edges_unit(2, &[(0, 5)]);
    }

    #[test]
    fn empty_edge_list() {
        let g = from_edges_unit(3, &[]);
        g.validate().unwrap();
        assert_eq!(g.m(), 0);
        assert_eq!(g.n(), 3);
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = from_edges_unit(6, &[(0, 5), (0, 2), (0, 4), (0, 1), (0, 3)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
    }
}
