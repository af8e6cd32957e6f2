//! End-to-end benchmark for the coarsening and partitioning pipeline, with
//! per-layer attribution measured from outside the program.
//!
//! Two closed-loop workloads ([`workload::Workload`]) each run one op
//! after another on the host pool. The untraced run ([`run::run`] with
//! `trace = false`) calls the same public entry points a user calls and
//! checks every op's output. The traced run replays the same ops through
//! the public per-layer calls ([`replay`]) with the benchmark's own spans
//! ([`spans`]) around them, and reports each layer's self time and counts.
//! No span is added inside the program and its `TraceCollector` stays off.

pub mod check;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
