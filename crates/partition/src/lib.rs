#![warn(missing_docs)]
//! # mlcg-partition — multilevel graph bisection
//!
//! The paper's evaluation vehicle: multilevel bisection with either
//! *spectral* refinement (power iteration on the graph Laplacian, stopping
//! at a 1e-10 iterate difference) or sequential *Fiduccia–Mattheyses*
//! refinement, on top of any `mlcg-coarsen` hierarchy.
//!
//! Also provides the *Metis-like* and *mt-Metis-like* baselines the
//! reproduction compares against (DESIGN.md §3.3): the same multilevel
//! driver assembled from HEM / HEM+two-hop coarsening, greedy graph
//! growing initial partitioning, and FM refinement.

pub mod fm;
pub mod ggg;
pub mod kway;
pub mod kwayref;
pub mod metislike;
pub mod parref;
pub mod result;
pub mod spectral;

pub use fm::{
    fm_bisect, fm_bisect_frac, fm_refine, fm_refine_frac_full_scan, fm_uncoarsen_frac_full_scan,
    fm_uncoarsen_frac_hybrid, FmConfig, FmRefineOutcome,
};
pub use kway::{
    kway_empty_parts, kway_imbalance, kway_partition, kway_partition_cfg, KwayConfig, KwayResult,
};
pub use kwayref::{kway_direct_refine, KwayRefineConfig};
pub use metislike::{metis_like, mtmetis_like};
pub use parref::{
    parallel_refine_rounds, rounds_then_polish, ParRefConfig, ParRefOutcome, ParRefWorkspace,
};
pub use result::audit_partition;
pub use result::PartitionResult;
pub use spectral::{spectral_bisect, SpectralConfig};
