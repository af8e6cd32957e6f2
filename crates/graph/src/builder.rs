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
//! into the final arrays through atomic per-vertex cursors. The in-memory
//! entry points below feed the whole slice as one chunk, and
//! [`crate::stream`] feeds file readers chunk-by-chunk — both paths run the
//! identical count/scatter/sort/merge phases, so a streamed build is
//! bit-identical to an in-memory build of the same edge multiset (the merge
//! operators are commutative and associative, and every adjacency is sorted
//! before merging, so chunk boundaries and scheduling cannot show through).
//!
//! The builder's transient footprint is kept close to the output graph's
//! own size: scatter cursors and deduplicated-degree counts use `u32` words
//! whenever the entry count fits (mirroring [`Offsets`]' width rule), and
//! duplicate compaction runs in place instead of into a second copy of the
//! adjacency. The heap-telemetry suite (`bench-ingest` with tracing)
//! cross-checks the whole-build peak against `staging + Csr::heap_bytes()`.

use crate::csr::{Csr, Offsets, VId, Weight};
use mlcg_par::atomic::{as_atomic_u32, as_atomic_usize};
use mlcg_par::scan::{exclusive_scan, ScanElem};
use mlcg_par::sort::insertion_sort_pairs;
use mlcg_par::{parallel_for, ExecPolicy};
use std::sync::atomic::Ordering;

/// Build an unweighted (all weights 1) undirected graph from an edge list.
/// Duplicate edges collapse to a single unit-weight edge; self-loops drop.
pub fn from_edges_unit(n: usize, edges: &[(VId, VId)]) -> Csr {
    let weighted: Vec<(VId, VId, Weight)> = edges.iter().map(|&(u, v)| (u, v, 1)).collect();
    build(&ExecPolicy::serial(), n, &weighted, MergeMode::Unit)
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

/// Bytes of one staged edge item — the unit "auxiliary bytes" are measured
/// in. `(u32, u32, u64)` packs to 16 bytes.
pub const EDGE_ITEM_BYTES: usize = std::mem::size_of::<(VId, VId, Weight)>();

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
    pub fn count_chunk(&mut self, policy: &ExecPolicy, chunk: &[(VId, VId, Weight)]) {
        assert!(
            matches!(self.phase, Phase::Counting),
            "count_chunk after begin_scatter"
        );
        let n = self.n;
        for &(u, v, w) in chunk.iter().take(64) {
            // Cheap spot check; full bounds are asserted during counting.
            debug_assert!(
                (u as usize) < n && (v as usize) < n && w > 0,
                "edge ({u},{v},{w}) out of range for n={n}"
            );
        }
        let view = as_atomic_usize(&mut self.xadj[..n]);
        parallel_for(policy, chunk.len(), |i| {
            let (u, v, _) = chunk[i];
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            if u != v {
                view[u as usize].fetch_add(1, Ordering::Relaxed);
                view[v as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Turn the counts into offsets and allocate the staging adjacency.
    pub fn begin_scatter(&mut self, policy: &ExecPolicy) {
        assert!(
            matches!(self.phase, Phase::Counting),
            "begin_scatter called twice"
        );
        let total = exclusive_scan(policy, &mut self.xadj);
        self.xadj[self.n] = total;
        self.adj = vec![0; total];
        self.wgt = vec![0; total];
        let cursors = if total <= u32::MAX as usize {
            Cursors::Narrow(self.xadj[..self.n].iter().map(|&x| x as u32).collect())
        } else {
            Cursors::Wide(self.xadj[..self.n].to_vec())
        };
        self.phase = Phase::Scattering { cursors };
    }

    /// Pass 2: scatter one edge chunk (both directions) through atomic
    /// per-vertex cursors.
    pub fn scatter_chunk(&mut self, policy: &ExecPolicy, chunk: &[(VId, VId, Weight)]) {
        let n = self.n;
        let Phase::Scattering { cursors } = &mut self.phase else {
            panic!("scatter_chunk before begin_scatter");
        };
        let xadj = &self.xadj;
        let adj_base = self.adj.as_mut_ptr() as usize;
        let wgt_base = self.wgt.as_mut_ptr() as usize;
        // A narrow cursor cannot wrap: legitimate claims are bounded by the
        // total (≤ u32::MAX by construction), and a torn source drives at
        // most one out-of-bounds claim per racing thread before the bounds
        // assert panics.
        match cursors {
            Cursors::Narrow(c) => {
                let cur = as_atomic_u32(c);
                scatter_with(policy, chunk, n, xadj, adj_base, wgt_base, |u| {
                    cur[u].fetch_add(1, Ordering::Relaxed) as usize
                });
            }
            Cursors::Wide(c) => {
                let cur = as_atomic_usize(c);
                scatter_with(policy, chunk, n, xadj, adj_base, wgt_base, |u| {
                    cur[u].fetch_add(1, Ordering::Relaxed)
                });
            }
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
        match &cursors {
            Cursors::Narrow(c) => {
                for u in 0..n {
                    assert!(
                        c[u] as usize == xadj[u + 1],
                        "edge source changed between passes (vertex {u} underfull)"
                    );
                }
            }
            Cursors::Wide(c) => {
                for u in 0..n {
                    assert!(
                        c[u] == xadj[u + 1],
                        "edge source changed between passes (vertex {u} underfull)"
                    );
                }
            }
        }
        drop(cursors);

        // Deduplicated degrees (and the offsets scanned from them) are kept
        // at the width the final graph will use, so the finish phase never
        // materializes a full-width offset array that Offsets::from_usize
        // would immediately discard.
        let total = xadj[n];
        if total <= u32::MAX as usize {
            let (off, adj, wgt) = finish_arrays::<u32>(policy, n, xadj, adj, wgt, mode);
            Csr::from_offsets(Offsets::U32(off), adj, wgt)
        } else {
            let (off, adj, wgt) = finish_arrays::<usize>(policy, n, xadj, adj, wgt, mode);
            Csr::from_offsets(Offsets::from_usize(off), adj, wgt)
        }
    }
}

/// Integer word used for deduplicated degrees/offsets — `u32` when the
/// entry count fits, matching the final [`Offsets`] width.
trait DegWord: ScanElem {
    fn from_usize(x: usize) -> Self;
    fn to_usize(self) -> usize;
}

impl DegWord for u32 {
    fn from_usize(x: usize) -> Self {
        x as u32
    }
    fn to_usize(self) -> usize {
        self as usize
    }
}

impl DegWord for usize {
    fn from_usize(x: usize) -> Self {
        x
    }
    fn to_usize(self) -> usize {
        self
    }
}

/// Scatter one chunk through a width-specific `claim` (atomic fetch-add on
/// the matching cursor array). Monomorphized per width — no per-edge
/// dispatch.
fn scatter_with(
    policy: &ExecPolicy,
    chunk: &[(VId, VId, Weight)],
    n: usize,
    xadj: &[usize],
    adj_base: usize,
    wgt_base: usize,
    claim: impl Fn(usize) -> usize + Sync,
) {
    parallel_for(policy, chunk.len(), move |i| {
        let (u, v, w) = chunk[i];
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge endpoint out of range"
        );
        if u == v {
            return;
        }
        // SAFETY: cursor slots are globally unique (fetch_add), and the
        // bounds asserts guarantee each claimed slot lies inside the
        // vertex's counted segment — a source that yields more edges in
        // pass 2 than pass 1 panics instead of writing out of bounds.
        unsafe {
            let a = adj_base as *mut VId;
            let x = wgt_base as *mut Weight;
            let pu = claim(u as usize);
            assert!(
                pu < xadj[u as usize + 1],
                "edge source changed between passes (vertex {u} overfull)"
            );
            a.add(pu).write(v);
            x.add(pu).write(w);
            let pv = claim(v as usize);
            assert!(
                pv < xadj[v as usize + 1],
                "edge source changed between passes (vertex {v} overfull)"
            );
            a.add(pv).write(u);
            x.add(pv).write(w);
        }
    });
}

/// Sort/merge every adjacency in place and compact out the dropped
/// duplicates, returning `(scanned offsets, adj, wgt)` with the offsets at
/// width `D`.
fn finish_arrays<D: DegWord>(
    policy: &ExecPolicy,
    n: usize,
    xadj: Vec<usize>,
    mut adj: Vec<VId>,
    mut wgt: Vec<Weight>,
    mode: MergeMode,
) -> (Vec<D>, Vec<VId>, Vec<Weight>) {
    let total = xadj[n];

    // Sort each adjacency and merge duplicates in place, recording the
    // deduplicated degree.
    let mut new_deg: Vec<D> = vec![D::default(); n + 1];
    {
        let adj_base = adj.as_mut_ptr() as usize;
        let wgt_base = wgt.as_mut_ptr() as usize;
        let deg_base = new_deg.as_mut_ptr() as usize;
        let xadj_ref = &xadj;
        parallel_for(policy, n, move |u| {
            let s = xadj_ref[u];
            let e = xadj_ref[u + 1];
            // SAFETY: vertex segments are disjoint.
            let (a, x) = unsafe {
                (
                    std::slice::from_raw_parts_mut((adj_base as *mut VId).add(s), e - s),
                    std::slice::from_raw_parts_mut((wgt_base as *mut Weight).add(s), e - s),
                )
            };
            sort_pairs(a, x);
            let mut out = 0usize;
            let mut i = 0usize;
            while i < a.len() {
                let v = a[i];
                // Unit mode pins the weight outright so the result is
                // deterministic even if the input mixes weights.
                let mut w = if mode == MergeMode::Unit { 1 } else { x[i] };
                i += 1;
                while i < a.len() && a[i] == v {
                    match mode {
                        MergeMode::Sum => w += x[i],
                        MergeMode::Max => w = w.max(x[i]),
                        MergeMode::Unit => {}
                    }
                    i += 1;
                }
                a[out] = v;
                x[out] = w;
                out += 1;
            }
            unsafe {
                (deg_base as *mut D).add(u).write(D::from_usize(out));
            }
        });
    }

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
        for u in 0..n {
            let src = xadj[u];
            let dst = new_deg[u].to_usize();
            let len = new_deg[u + 1].to_usize() - dst;
            if len == 0 || dst == src {
                continue;
            }
            adj.copy_within(src..src + len, dst);
            wgt.copy_within(src..src + len, dst);
        }
        adj.truncate(new_total);
        wgt.truncate(new_total);
        adj.shrink_to_fit();
        wgt.shrink_to_fit();
    }
    drop(xadj);
    (new_deg, adj, wgt)
}

fn build(policy: &ExecPolicy, n: usize, edges: &[(VId, VId, Weight)], mode: MergeMode) -> Csr {
    let mut b = StreamCsrBuilder::new(n, mode);
    b.count_chunk(policy, edges);
    b.begin_scatter(policy);
    b.scatter_chunk(policy, edges);
    b.finish(policy)
}

fn sort_pairs(a: &mut [VId], x: &mut [Weight]) {
    if a.len() <= 24 {
        insertion_sort_pairs(a, x);
    } else {
        let mut idx: Vec<u32> = (0..a.len() as u32).collect();
        idx.sort_unstable_by_key(|&i| a[i as usize]);
        let na: Vec<VId> = idx.iter().map(|&i| a[i as usize]).collect();
        let nx: Vec<Weight> = idx.iter().map(|&i| x[i as usize]).collect();
        a.copy_from_slice(&na);
        x.copy_from_slice(&nx);
    }
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
                b.count_chunk(&policy, c);
            }
            b.begin_scatter(&policy);
            // Replay in reverse chunk order: the result must not care.
            for c in edges.chunks(chunk).rev() {
                b.scatter_chunk(&policy, c);
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
        b.count_chunk(&policy, &[(0, 1, 1)]);
        b.begin_scatter(&policy);
        b.scatter_chunk(&policy, &[(0, 1, 1), (1, 2, 1)]);
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
