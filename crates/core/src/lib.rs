#![warn(missing_docs)]
//! # mlcg-coarsen — multilevel graph coarsening
//!
//! The paper's primary contribution, reproduced in full: parallel
//! fine-to-coarse *mapping* algorithms and parallel *coarse-graph
//! construction* strategies, composed by a multilevel driver.
//!
//! ## Mapping algorithms ([`mapping`])
//!
//! | Method | Paper reference | Notes |
//! |---|---|---|
//! | [`MapMethod::Hec`] | Algorithm 4 | parallel Heavy Edge Coarsening by deterministic reservations (same labels under every policy) |
//! | [`MapMethod::Hec2`] | Algorithm 9 (ext. report) | race-free two-array variant, no 2-cycle collapse; each target keeps its earliest proposer by fetch-min (same labels under every policy) |
//! | [`MapMethod::Hec3`] | Algorithm 5 | pseudoforest view: root marking + pointer jumping |
//! | [`MapMethod::Hem`] | Algorithm 10 (ext.) | multi-pass heavy-edge *matching*, H recomputed per pass |
//! | [`MapMethod::MtMetis`] | Algorithms 11–13 (ext.) | HEM plus two-hop matching: leaves, twins, relatives |
//! | [`MapMethod::Gosh`] | Algorithm 15 (ext.) | degree-ordered MIS-style aggregation with a high-degree guard |
//! | [`MapMethod::GoshHec`] | Algorithm 16 (ext.) | new GOSH+HEC hybrid: weighted heavy neighbors, skips high-degree adjacencies |
//! | [`MapMethod::Mis2`] | Algorithm 14 (ext.) | Bell et al. distance-2 maximal independent set aggregation |
//! | [`MapMethod::Suitor`] | future work (§V) | Suitor approximate weighted matching; [`mapping::suitor::b_suitor`] generalizes to b-matching |
//! | [`MapMethod::SeqHec`] / [`MapMethod::SeqHem`] | Algorithms 3 / 2 | sequential references |
//!
//! ## Construction strategies ([`construct`])
//!
//! Vertex-centric construction (Algorithm 6) with sort-based or hash-based
//! per-vertex deduplication and the paper's degree-based deduplication
//! optimization for skewed graphs; SpGEMM `P·A·Pᵀ` construction; and the
//! global-sort baseline.
//!
//! ## Driver ([`multilevel`])
//!
//! Algorithm 1: coarsen to a 50-vertex cutoff, discarding a final graph
//! that collapses below 10 vertices, recording per-level phase timings.

pub mod ace;
pub mod audit;
pub mod construct;
pub mod mapping;
pub mod multilevel;

pub use ace::{ace_coarsen, AceLevel, AceOptions};
pub use audit::audit_hierarchy;
pub use construct::{
    construct_coarse_graph, construct_coarse_graph_in, ConstructMethod, ConstructOptions,
    ConstructWorkspace,
};
pub use mapping::{find_mapping, find_mapping_in, MapMethod, MapStats, MapWorkspace, Mapping};
pub use multilevel::{coarsen, CoarsenOptions, CoarsenStats, Hierarchy, Level};
