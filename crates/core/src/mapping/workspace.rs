//! Level-reused scratch for the mapping phase, mirroring
//! [`crate::construct::ConstructWorkspace`]: every `n`-sized array a
//! mapping algorithm needs — ownership, heavy neighbors, queues,
//! permutation scratch, MIS-2 tiebreak arrays, the relabel flag — lives
//! here, so a hierarchy pays the mapping allocation envelope once and
//! levels after the first only shrink into existing capacity.
//!
//! Only *capacity* survives between uses. Every algorithm re-initializes
//! the prefixes it reads (`clear` + `resize`, or a snapshot
//! `clear` + `extend_from_slice`), so results are bit-identical to a
//! fresh workspace — the property `mapping_props.rs` pins.
//!
//! The raw label array that becomes [`super::Mapping::map`] is
//! deliberately *not* pooled: it escapes as the output, so pooling it
//! would just force a copy. Likewise [`mlcg_par::sort::par_radix_sort_pairs`]
//! keeps its internal ping-pong buffers; those are documented as
//! per-call in DESIGN §5h.

/// Pooled buffers for [`super::find_mapping_in`]. Construct once per
/// hierarchy (the multilevel driver keeps one next to its
/// `ConstructWorkspace`) and thread through every level.
#[derive(Debug, Default)]
pub struct MapWorkspace {
    /// HEC's reservation slots, MIS-2 state, HEC2's proposer array,
    /// suitor-of — any `u32`-per-vertex working state.
    pub(crate) own: Vec<u32>,
    /// Heavy-neighbor array `H[u]`.
    pub(crate) heavy: Vec<u32>,
    /// Visit order / retry queue / suitor work stack.
    pub(crate) queue: Vec<u32>,
    /// Compaction destination (ping-pong partner of `queue`) and two-hop
    /// candidate list.
    pub(crate) qscratch: Vec<u32>,
    /// Inverted permutation (random priority positions) for HEC3-style
    /// representative selection; HEC's pending positions in `P`.
    pub(crate) pos: Vec<u32>,
    /// Round-start snapshot of the label array (HEC3 phases 3–4, GOSH
    /// center selection, MIS-2 aggregation).
    pub(crate) snap: Vec<u32>,
    /// u64 sort keys for permutation generation and twin hashing.
    pub(crate) perm_keys: Vec<u64>,
    /// MIS-2 random priorities.
    pub(crate) prio: Vec<u64>,
    /// MIS-2 distance-1 max-propagation sweep / suitor offer weights.
    pub(crate) t1: Vec<u64>,
    /// MIS-2 distance-2 max-propagation sweep / suitor offer priorities.
    pub(crate) t2: Vec<u64>,
    /// MIS-2 distance-1-of-MIS flags.
    pub(crate) near: Vec<u8>,
    /// Relabel flag + prefix-sum array (see [`super::util::relabel`]).
    pub(crate) flag: Vec<u32>,
    /// Per-block survivor counts for [`mlcg_par::filter`] compactions.
    pub(crate) fcounts: Vec<usize>,
}

impl MapWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset `buf` to `n` copies of `value` (capacity-preserving).
    pub(crate) fn filled(buf: &mut Vec<u32>, n: usize, value: u32) {
        buf.clear();
        buf.resize(n, value);
    }

    /// Reset `buf` to a copy of `src` (capacity-preserving snapshot).
    pub(crate) fn snapshot(buf: &mut Vec<u32>, src: &[u32]) {
        buf.clear();
        buf.extend_from_slice(src);
    }
}
