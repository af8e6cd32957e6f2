//! # mlcg-bench — reproduction harness
//!
//! One regeneration routine per table and figure of the paper (see
//! DESIGN.md §2 for the experiment index and EXPERIMENTS.md for recorded
//! outputs). The `repro` binary dispatches to [`exp`]:
//!
//! ```text
//! cargo run --release -p mlcg-bench --bin repro -- <experiment> [options]
//!
//! experiments: table1 table2 table3 table4 table5 table6
//!              fig1 fig2 fig3-left fig3-mid fig3-right
//!              ablate-dedup extended-methods trace all
//! gated:       bench-fm bench-parref bench-kway bench-ingest
//!              bench-coarsen bench-map
//! options:     --scale <k>      corpus size (default 0; +1 doubles n)
//!              --runs <r>       timed repetitions, median reported (default 3)
//!              --seed <s>       RNG seed (default 42)
//!              --fast           lower power-iteration caps for quick smoke runs
//!              --quick          shrink benchmark suites for CI smoke runs
//!              --trace          emit pipeline traces (JSON-lines + span tree)
//!              --trace-out <f>  also write each traced run as Chrome
//!                               trace-event JSON (implies --trace)
//!              --baseline <f>   compare results against a committed
//!                               BENCH_*.json; exit 1 on regression
//!              --noise <x>      baseline noise threshold (default 0.25
//!                               = 25% slower counts as a regression)
//! ```
//!
//! The six gated experiments share one measurement loop, results writer
//! and baseline gate ([`gated`]).
//!
//! Environment: `MLCG_TRACE=1` enables tracing without the flag;
//! `MLCG_TRACE_OUT=<f>` supplies a default Chrome-trace output path;
//! `MLCG_VALIDATE=1` additionally runs opt-in invariant audits between
//! pipeline phases and records them as trace events.

pub mod compare;
pub mod exp;
pub mod gated;
pub mod harness;

pub use harness::Ctx;
