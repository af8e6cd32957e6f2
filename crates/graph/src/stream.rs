//! Chunked, memory-bounded edge ingestion.
//!
//! An [`EdgeSource`] yields a graph's edge multiset a bounded chunk at a
//! time and can be rewound, which is exactly what the two-pass
//! [`StreamCsrBuilder`] protocol needs:
//! pass 1 streams every chunk through the degree counter, the source is
//! reset, and pass 2 streams the same chunks through the scatter phase. At
//! no point does more than one chunk of raw edges live in memory, so the
//! auxiliary footprint of a build is `chunk_edges ×
//! `[`crate::builder::EDGE_ITEM_BYTES`]` bytes regardless of the graph's
//! total edge count.
//!
//! The result is bit-identical to handing the whole edge list to the
//! in-memory builder: both run the same count/scatter/sort/merge phases,
//! and the merge operators are chunking- and order-invariant.

use crate::builder::{MergeMode, StreamCsrBuilder};
use crate::csr::{Csr, VId, Weight};
use mlcg_par::ExecPolicy;
use std::io;

/// A rewindable, chunk-at-a-time producer of weighted edges.
///
/// Sources must yield the same edge multiset on every pass (chunk
/// boundaries may differ); the builder panics if the two passes disagree.
/// Self-loops may be yielded — the builder drops them — and duplicates are
/// merged according to the build's [`MergeMode`].
pub trait EdgeSource {
    /// Exact number of vertices; every yielded endpoint must be `< n`.
    fn n(&self) -> usize;

    /// Rewind to the first edge. Called once before each pass.
    fn reset(&mut self) -> io::Result<()>;

    /// Clear `out` and fill it with up to `max` edges. Returns the number
    /// of edges produced; `0` signals end of stream.
    fn next_chunk(&mut self, out: &mut Vec<(VId, VId, Weight)>, max: usize) -> io::Result<usize>;
}

/// Knobs for a streamed build. The METIS reader
/// ([`crate::io::read_metis`]) stages no edges and runs on the calling
/// thread, so it ignores both.
pub struct IngestOptions {
    /// Edges held in memory at once. The auxiliary footprint of a build is
    /// `chunk_edges × EDGE_ITEM_BYTES` bytes (16 MiB at the default).
    pub chunk_edges: usize,
    /// Execution policy for the offset scan and the per-row sort and
    /// merge; counting and scattering run on the calling thread.
    pub policy: ExecPolicy,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            chunk_edges: 1 << 20,
            policy: ExecPolicy::host(),
        }
    }
}

/// What a streamed build observed. For a METIS file, which is read in one
/// pass without staging, the file is one chunk of `m` edges.
#[derive(Clone, Debug)]
pub struct IngestStats {
    /// Vertices in the produced graph.
    pub n: usize,
    /// Undirected edges after symmetrize/dedup/loop-drop.
    pub m: usize,
    /// Directed CSR entries (`2m`).
    pub directed_entries: usize,
    /// Raw edges yielded by the source in one pass (`m` for METIS).
    pub edges_streamed: u64,
    /// Chunks the source was split into (one pass; `1` for METIS).
    pub chunks: u64,
    /// High-water mark of staged edge bytes (chunk buffer; `0` for METIS,
    /// whose entries go straight into the final arrays).
    pub peak_staging_bytes: usize,
    /// Whether the final offsets engaged the narrow `u32` representation.
    pub offsets_are_u32: bool,
}

/// Stream `src` through the two-pass builder and produce a [`Csr`]
/// bit-identical to the in-memory build of the same edge multiset.
pub fn build_csr(
    src: &mut dyn EdgeSource,
    mode: MergeMode,
    opts: &IngestOptions,
) -> io::Result<(Csr, IngestStats)> {
    assert!(opts.chunk_edges > 0, "chunk_edges must be positive");
    let mut b = StreamCsrBuilder::new(src.n(), mode);
    // The chunk buffer is the build's only staging; its footprint is
    // measured by the tracking allocator rather than computed, so the
    // reported number is what the process actually held (sources never
    // grow the buffer past its capacity — `next_chunk` is bounded by
    // `max`, and the debug assert below catches an overfilling source).
    let (mut buf, staging) =
        mlcg_par::mem::measure(|| Vec::<(VId, VId, Weight)>::with_capacity(opts.chunk_edges));
    let peak_staging_bytes = staging.peak_bytes as usize;

    let (mut edges_streamed, mut chunks) = (0u64, 0u64);
    src.reset()?;
    loop {
        let k = src.next_chunk(&mut buf, opts.chunk_edges)?;
        if k == 0 {
            break;
        }
        debug_assert!(
            buf.len() == k && k <= opts.chunk_edges,
            "source overfilled chunk"
        );
        edges_streamed += k as u64;
        chunks += 1;
        b.count_chunk(&buf);
    }

    b.begin_scatter(&opts.policy);
    src.reset()?;
    loop {
        let k = src.next_chunk(&mut buf, opts.chunk_edges)?;
        if k == 0 {
            break;
        }
        b.scatter_chunk(&buf);
    }

    // Release the staging buffer before the sort/merge/compact phase so the
    // build's true high-water mark is the scatter arrays, not scatter plus a
    // dead chunk buffer.
    drop(buf);
    let g = b.finish(&opts.policy);
    let stats = IngestStats {
        n: g.n(),
        m: g.m(),
        directed_entries: g.num_entries(),
        edges_streamed,
        chunks,
        peak_staging_bytes,
        offsets_are_u32: g.offsets_are_u32(),
    };
    Ok((g, stats))
}

/// An in-memory slice as an [`EdgeSource`] — the reference source for
/// property tests and for benchmarking the streaming overhead in
/// isolation from file IO.
pub struct SliceSource<'a> {
    n: usize,
    edges: &'a [(VId, VId, Weight)],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Wrap a slice of edges over `n` vertices.
    pub fn new(n: usize, edges: &'a [(VId, VId, Weight)]) -> Self {
        SliceSource { n, edges, pos: 0 }
    }
}

impl EdgeSource for SliceSource<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn reset(&mut self) -> io::Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next_chunk(&mut self, out: &mut Vec<(VId, VId, Weight)>, max: usize) -> io::Result<usize> {
        out.clear();
        let k = max.min(self.edges.len() - self.pos);
        out.extend_from_slice(&self.edges[self.pos..self.pos + k]);
        self.pos += k;
        Ok(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges_with_mode, EDGE_ITEM_BYTES};

    fn random_edges(n: usize, m: usize, seed: u64) -> Vec<(VId, VId, Weight)> {
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
        (0..m)
            .map(|_| {
                (
                    rng.next_below(n as u64) as VId,
                    rng.next_below(n as u64) as VId,
                    rng.next_below(9) + 1,
                )
            })
            .collect()
    }

    #[test]
    fn streamed_equals_in_memory_across_chunkings() {
        let n = 300;
        let edges = random_edges(n, 4000, 3);
        for mode in [MergeMode::Unit, MergeMode::Sum, MergeMode::Max] {
            let reference = from_edges_with_mode(&ExecPolicy::serial(), n, &edges, mode);
            for chunk_edges in [1usize, 3, 64, 100_000] {
                let mut src = SliceSource::new(n, &edges);
                let opts = IngestOptions {
                    chunk_edges,
                    policy: ExecPolicy::serial(),
                };
                let (g, stats) = build_csr(&mut src, mode, &opts).unwrap();
                assert_eq!(g, reference, "mode {mode:?} chunk {chunk_edges}");
                assert_eq!(stats.edges_streamed, 4000);
                assert_eq!(stats.chunks, 4000u64.div_ceil(chunk_edges as u64));
                assert_eq!(
                    stats.peak_staging_bytes,
                    chunk_edges * EDGE_ITEM_BYTES,
                    "staging must be bounded by the chunk, not total m"
                );
            }
        }
    }

    #[test]
    fn stats_describe_final_graph() {
        let edges = [(0, 1, 2), (1, 0, 3), (2, 2, 9), (1, 2, 1)];
        let mut src = SliceSource::new(3, &edges);
        let opts = IngestOptions {
            chunk_edges: 2,
            policy: ExecPolicy::serial(),
        };
        let (g, stats) = build_csr(&mut src, MergeMode::Sum, &opts).unwrap();
        g.validate().unwrap();
        assert_eq!(stats.n, 3);
        assert_eq!(stats.m, 2, "loop dropped, duplicate merged");
        assert_eq!(stats.directed_entries, 4);
        assert_eq!(stats.edges_streamed, 4);
        assert!(stats.offsets_are_u32);
        assert_eq!(g.find_edge(0, 1), Some(5));
    }

    #[test]
    fn empty_source_yields_edgeless_graph() {
        let mut src = SliceSource::new(4, &[]);
        let (g, stats) = build_csr(&mut src, MergeMode::Unit, &IngestOptions::default()).unwrap();
        g.validate().unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(stats.chunks, 0);
    }
}
