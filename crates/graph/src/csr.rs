//! The compressed-sparse-row graph type.

use std::fmt;
use std::ops::Range;

/// Vertex identifier. `u32` bounds the workspace to 4.29 B vertices, which
/// comfortably covers the paper's corpus while halving index memory traffic.
pub type VId = u32;
/// Edge weight. Coarse weights are exact integer sums of fine weights.
pub type Weight = u64;
/// Vertex weight (aggregate size in a multilevel hierarchy).
pub type VWeight = u64;

/// Width-adaptive row-offset array.
///
/// The coarsening kernels are memory-bandwidth bound, so offset width is
/// a measurable cost on every row lookup. Offsets are stored as `u32`
/// whenever every value fits (`2m + 1 < 2³²`, true for anything short of
/// a ~4.29 B-entry adjacency) and as full `usize` otherwise. The width is
/// a pure function of the stored values, so equal graphs always compare
/// equal regardless of how they were built.
#[derive(Clone, PartialEq, Eq)]
pub enum Offsets {
    /// Narrow offsets: every value `< 2³²`. Halves offset-array traffic.
    U32(Vec<u32>),
    /// Full-width offsets for adjacencies with `2³² − 1` entries or more.
    Wide(Vec<usize>),
}

impl Offsets {
    /// Convert a full-width offset array, narrowing to `u32` when every
    /// value fits. This is the only constructor graph code should need;
    /// [`Offsets::widen`] exists for benchmarking the wide path.
    pub fn from_usize(xadj: Vec<usize>) -> Offsets {
        if xadj.iter().all(|&x| x <= u32::MAX as usize) {
            Offsets::U32(xadj.into_iter().map(|x| x as u32).collect())
        } else {
            Offsets::Wide(xadj)
        }
    }

    /// Force the wide representation in place (no-op if already wide).
    /// Used by `bench-ingest` to measure the u32-vs-usize SpMV gap.
    pub fn widen(&mut self) {
        if let Offsets::U32(v) = self {
            *self = Offsets::Wide(v.iter().map(|&x| x as usize).collect());
        }
    }

    /// Number of stored offsets (`n + 1` for a CSR with `n` rows).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Offsets::U32(v) => v.len(),
            Offsets::Wide(v) => v.len(),
        }
    }

    /// True when no offsets are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th offset as a `usize`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        match self {
            Offsets::U32(v) => v[i] as usize,
            Offsets::Wide(v) => v[i],
        }
    }

    /// The half-open range `offsets[i]..offsets[i + 1]` of row `i`.
    #[inline]
    pub fn range(&self, i: usize) -> Range<usize> {
        match self {
            Offsets::U32(v) => v[i] as usize..v[i + 1] as usize,
            Offsets::Wide(v) => v[i]..v[i + 1],
        }
    }

    /// The final offset (total entry count); `None` when empty.
    #[inline]
    pub fn last(&self) -> Option<usize> {
        match self {
            Offsets::U32(v) => v.last().map(|&x| x as usize),
            Offsets::Wide(v) => v.last().copied(),
        }
    }

    /// Whether the narrow `u32` representation is in use.
    #[inline]
    pub fn is_u32(&self) -> bool {
        matches!(self, Offsets::U32(_))
    }

    /// Heap bytes held by the offset array.
    pub fn bytes(&self) -> usize {
        match self {
            Offsets::U32(v) => v.len() * std::mem::size_of::<u32>(),
            Offsets::Wide(v) => v.len() * std::mem::size_of::<usize>(),
        }
    }

    /// Materialize as a full-width vector (interop / test helper; the
    /// accessors above avoid this copy on hot paths).
    pub fn to_vec(&self) -> Vec<usize> {
        match self {
            Offsets::U32(v) => v.iter().map(|&x| x as usize).collect(),
            Offsets::Wide(v) => v.clone(),
        }
    }

    /// Index of the first adjacent non-monotone pair, if any.
    pub fn first_non_monotone(&self) -> Option<usize> {
        (0..self.len().saturating_sub(1)).find(|&i| self.get(i) > self.get(i + 1))
    }
}

impl fmt::Debug for Offsets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Offsets::U32(v) => write!(f, "Offsets::U32(len={})", v.len()),
            Offsets::Wide(v) => write!(f, "Offsets::Wide(len={})", v.len()),
        }
    }
}

/// An undirected graph in CSR form.
///
/// Invariants (checked by [`Csr::validate`]):
/// - `xadj` has `n + 1` monotone entries with `xadj[n] == adj.len()`;
/// - every undirected edge `{u, v}` is stored twice (in `u`'s and `v`'s
///   adjacency) with equal positive weight;
/// - no self-loops, no duplicate entries within a vertex's adjacency;
/// - `vwgt` has `n` positive entries.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    xadj: Offsets,
    adj: Vec<VId>,
    wgt: Vec<Weight>,
    vwgt: Vec<VWeight>,
}

impl Csr {
    /// Assemble a graph from raw CSR arrays with unit vertex weights.
    ///
    /// Callers are expected to uphold the type's invariants; `debug_assert`s
    /// and [`Csr::validate`] (used throughout the test suite) check them.
    pub fn from_parts(xadj: Vec<usize>, adj: Vec<VId>, wgt: Vec<Weight>) -> Self {
        let n = xadj.len().saturating_sub(1);
        let vwgt = vec![1; n];
        Self::from_parts_weighted(xadj, adj, wgt, vwgt)
    }

    /// Assemble a graph from raw CSR arrays with explicit vertex weights.
    pub fn from_parts_weighted(
        xadj: Vec<usize>,
        adj: Vec<VId>,
        wgt: Vec<Weight>,
        vwgt: Vec<VWeight>,
    ) -> Self {
        debug_assert!(!xadj.is_empty(), "xadj must have n+1 entries");
        debug_assert_eq!(*xadj.last().unwrap(), adj.len());
        debug_assert_eq!(adj.len(), wgt.len());
        debug_assert_eq!(vwgt.len(), xadj.len() - 1);
        Csr {
            xadj: Offsets::from_usize(xadj),
            adj,
            wgt,
            vwgt,
        }
    }

    /// Assemble a graph from a pre-built offset array (unit vertex weights).
    ///
    /// The builder uses this to hand over narrow offsets directly instead of
    /// materializing a full-width `Vec<usize>` just to have
    /// [`Offsets::from_usize`] throw it away. Callers must uphold the width
    /// rule (`U32` iff every value fits) so structural equality keeps
    /// working; the `debug_assert` checks it.
    pub fn from_offsets(xadj: Offsets, adj: Vec<VId>, wgt: Vec<Weight>) -> Self {
        debug_assert!(!xadj.is_empty(), "xadj must have n+1 entries");
        debug_assert_eq!(xadj.last().unwrap(), adj.len());
        debug_assert_eq!(adj.len(), wgt.len());
        debug_assert!(
            xadj.is_u32() || xadj.last().unwrap() > u32::MAX as usize,
            "width rule violated: narrowable offsets stored wide"
        );
        let n = xadj.len() - 1;
        let vwgt = vec![1; n];
        Csr {
            xadj,
            adj,
            wgt,
            vwgt,
        }
    }

    /// Exact heap bytes of the four CSR arrays (offsets, adjacency, edge
    /// weights, vertex weights), assuming capacity equals length — true for
    /// graphs produced by the builder and generators. This is the
    /// denominator-free "resident graph size" the memory benchmarks report
    /// bytes-per-edge against.
    pub fn heap_bytes(&self) -> usize {
        self.xadj.bytes()
            + self.adj.len() * std::mem::size_of::<VId>()
            + self.wgt.len() * std::mem::size_of::<Weight>()
            + self.vwgt.len() * std::mem::size_of::<VWeight>()
    }

    /// The empty graph.
    pub fn empty() -> Self {
        Csr {
            xadj: Offsets::from_usize(vec![0]),
            adj: vec![],
            wgt: vec![],
            vwgt: vec![],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges `m` (each stored twice internally).
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Number of directed adjacency entries (`2m`).
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.adj.len()
    }

    /// Graph size measure `2m + n` used by the paper's Fig. 3 normalization.
    #[inline]
    pub fn size(&self) -> usize {
        self.adj.len() + self.n()
    }

    /// The half-open adjacency range of vertex `u` in [`Csr::adj`] /
    /// [`Csr::wgt`]. This is the primitive every other row accessor is
    /// built on; it reads two offsets of whatever width the graph stores.
    #[inline]
    pub fn row_range(&self, u: VId) -> std::ops::Range<usize> {
        self.xadj.range(u as usize)
    }

    /// Degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: VId) -> usize {
        let r = self.row_range(u);
        r.end - r.start
    }

    /// Neighbors of `u`.
    #[inline]
    pub fn neighbors(&self, u: VId) -> &[VId] {
        &self.adj[self.row_range(u)]
    }

    /// Edge weights aligned with [`Csr::neighbors`].
    #[inline]
    pub fn weights(&self, u: VId) -> &[Weight] {
        &self.wgt[self.row_range(u)]
    }

    /// Iterate `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn edges(&self, u: VId) -> impl Iterator<Item = (VId, Weight)> + '_ {
        let r = self.row_range(u);
        self.adj[r.clone()]
            .iter()
            .copied()
            .zip(self.wgt[r].iter().copied())
    }

    /// The width-adaptive row-offset array (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &Offsets {
        &self.xadj
    }

    /// Whether the offsets use the narrow `u32` representation
    /// (`2m + 1 < 2³²`).
    #[inline]
    pub fn offsets_are_u32(&self) -> bool {
        self.xadj.is_u32()
    }

    /// Materialize the offsets as a full-width vector. Interop/test
    /// helper — hot paths use [`Csr::row_range`] / [`Csr::degree`] /
    /// [`Csr::edges`] so the narrow representation stays narrow.
    pub fn xadj_vec(&self) -> Vec<usize> {
        self.xadj.to_vec()
    }

    /// Flat adjacency array (`2m` entries).
    #[inline]
    pub fn adj(&self) -> &[VId] {
        &self.adj
    }

    /// Flat edge-weight array (`2m` entries).
    #[inline]
    pub fn wgt(&self) -> &[Weight] {
        &self.wgt
    }

    /// Vertex weights (`n` entries).
    #[inline]
    pub fn vwgt(&self) -> &[VWeight] {
        &self.vwgt
    }

    /// Replace the vertex weights (used when lifting aggregates).
    pub fn set_vwgt(&mut self, vwgt: Vec<VWeight>) {
        assert_eq!(vwgt.len(), self.n());
        self.vwgt = vwgt;
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> VWeight {
        self.vwgt.iter().sum()
    }

    /// Sum of all edge weights, counting each undirected edge once.
    pub fn total_edge_weight(&self) -> Weight {
        self.wgt.iter().sum::<Weight>() / 2
    }

    /// Maximum vertex degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as VId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.adj.len() as f64 / self.n() as f64
        }
    }

    /// Degree-skew ratio `Δ / (2m/n)` — the paper's regular/skewed split key.
    pub fn skew_ratio(&self) -> f64 {
        let avg = self.avg_degree();
        if avg == 0.0 {
            0.0
        } else {
            self.max_degree() as f64 / avg
        }
    }

    /// Check all structural invariants; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if self.xadj.get(0) != 0 {
            return Err("xadj[0] != 0".into());
        }
        if self.xadj.first_non_monotone().is_some() {
            return Err("xadj not monotone".into());
        }
        if self.xadj.last().unwrap() != self.adj.len() {
            return Err("xadj[n] != adj.len()".into());
        }
        if self.adj.len() != self.wgt.len() {
            return Err("adj/wgt length mismatch".into());
        }
        if self.vwgt.len() != n {
            return Err("vwgt length mismatch".into());
        }
        if !self.adj.len().is_multiple_of(2) {
            return Err("odd number of directed entries".into());
        }
        for u in 0..n as VId {
            let mut prev: Option<VId> = None;
            for (v, w) in self.edges(u) {
                if v as usize >= n {
                    return Err(format!("edge target {v} out of range at vertex {u}"));
                }
                if v == u {
                    return Err(format!("self-loop at vertex {u}"));
                }
                if w == 0 {
                    return Err(format!("zero edge weight on ({u},{v})"));
                }
                if let Some(p) = prev {
                    if v <= p {
                        return Err(format!("adjacency of {u} not strictly sorted"));
                    }
                }
                prev = Some(v);
            }
        }
        if self.vwgt.contains(&0) {
            return Err("zero vertex weight".into());
        }
        // Symmetry with matching weights: adjacency is sorted, so use binary
        // search from the far endpoint.
        for u in 0..n as VId {
            for (v, w) in self.edges(u) {
                match self.find_edge(v, u) {
                    Some(w2) if w2 == w => {}
                    Some(w2) => return Err(format!("asymmetric weight on ({u},{v}): {w} vs {w2}")),
                    None => return Err(format!("missing reverse edge ({v},{u})")),
                }
            }
        }
        Ok(())
    }

    /// Weight of edge `(u, v)` if present. Adjacency must be sorted (it is
    /// for all graphs built by this workspace).
    pub fn find_edge(&self, u: VId, v: VId) -> Option<Weight> {
        let nbrs = self.neighbors(u);
        nbrs.binary_search(&v).ok().map(|i| self.weights(u)[i])
    }

    /// A human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "n={} m={} avg_deg={:.1} max_deg={} skew={:.1}",
            self.n(),
            self.m(),
            self.avg_degree(),
            self.max_degree(),
            self.skew_ratio()
        )
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Csr({})", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges_unit;

    fn triangle() -> Csr {
        from_edges_unit(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.total_edge_weight(), 3);
        assert_eq!(g.size(), 9);
        g.validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        g.validate().unwrap();
    }

    #[test]
    fn find_edge_present_and_absent() {
        let g = triangle();
        assert_eq!(g.find_edge(0, 1), Some(1));
        assert_eq!(g.find_edge(1, 0), Some(1));
        let g2 = from_edges_unit(4, &[(0, 1), (2, 3)]);
        assert_eq!(g2.find_edge(0, 3), None);
    }

    #[test]
    fn skew_ratio_star() {
        // A star: hub degree n-1, leaves degree 1.
        let n = 11u32;
        let edges: Vec<(VId, VId)> = (1..n).map(|v| (0, v)).collect();
        let g = from_edges_unit(n as usize, &edges);
        assert_eq!(g.max_degree(), 10);
        assert!((g.avg_degree() - 20.0 / 11.0).abs() < 1e-12);
        assert!(g.skew_ratio() > 5.0);
    }

    #[test]
    fn validate_catches_self_loop() {
        let g = Csr::from_parts(vec![0, 1], vec![0], vec![1]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_asymmetry() {
        // Edge 0->1 present, 1->0 missing.
        let g = Csr::from_parts(vec![0, 1, 1], vec![1], vec![1]);
        assert!(g.validate().unwrap_err().contains("odd number"));
    }

    #[test]
    fn validate_catches_weight_mismatch() {
        let g = Csr::from_parts(vec![0, 1, 2], vec![1, 0], vec![2, 3]);
        assert!(g.validate().unwrap_err().contains("asymmetric weight"));
    }

    #[test]
    fn row_range_matches_neighbors() {
        let g = triangle();
        for u in 0..3u32 {
            let r = g.row_range(u);
            assert_eq!(r.end - r.start, g.degree(u));
            assert_eq!(&g.adj()[r], g.neighbors(u));
        }
    }

    #[test]
    fn offsets_narrow_on_small_graphs() {
        let g = triangle();
        assert!(g.offsets_are_u32(), "2m + 1 < 2^32 must select u32");
        assert_eq!(g.xadj_vec(), vec![0, 2, 4, 6]);
        assert_eq!(g.offsets().bytes(), 4 * 4);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn offsets_width_selection_rule() {
        // Representable max stays narrow; one past it goes wide. (Content
        // rule only — these are not valid CSR offsets.)
        let narrow = Offsets::from_usize(vec![0, u32::MAX as usize]);
        assert!(narrow.is_u32());
        assert_eq!(narrow.get(1), u32::MAX as usize);
        let wide = Offsets::from_usize(vec![0, u32::MAX as usize + 1]);
        assert!(!wide.is_u32());
        assert_eq!(wide.get(1), u32::MAX as usize + 1);
    }

    #[test]
    fn widen_preserves_values() {
        let g = triangle();
        let mut o = g.offsets().clone();
        o.widen();
        assert!(!o.is_u32());
        assert_eq!(o.to_vec(), g.xadj_vec());
        assert_eq!(o.range(1), g.row_range(1));
        o.widen(); // idempotent
        assert!(!o.is_u32());
    }

    #[test]
    fn non_monotone_offsets_detected() {
        let o = Offsets::from_usize(vec![0, 3, 2, 4]);
        assert_eq!(o.first_non_monotone(), Some(1));
        assert_eq!(
            Offsets::from_usize(vec![0, 1, 4]).first_non_monotone(),
            None
        );
    }

    #[test]
    fn vertex_weights_roundtrip() {
        let mut g = triangle();
        assert_eq!(g.total_vwgt(), 3);
        g.set_vwgt(vec![2, 3, 4]);
        assert_eq!(g.total_vwgt(), 9);
        g.validate().unwrap();
    }
}
