//! The two workloads: their inputs, built from the seed through program
//! code, and the untraced op a user would run on them.

use mlcg_coarsen::{coarsen, CoarsenOptions, Hierarchy, MapMethod};
use mlcg_graph::stream::IngestOptions;
use mlcg_graph::{cc, generators as gen, io, Csr};
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_partition::{kway_partition, FmConfig, KwayResult};
use std::path::{Path, PathBuf};

/// Part count of the partition workload.
pub const K: usize = 8;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Ingest a 27-point-stencil mesh from a METIS file, take its largest
    /// component, and partition it 8 ways with all defaults.
    MeshKway8,
    /// Coarsen the `kron` R-MAT graph (held in memory) with HEC.
    KronCoarsen,
}

/// How a workload's input graph is generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// `side`³ grid with the 27-point stencil. The `cubecoup-sim` corpus
    /// graph is side 24 at corpus scale 0 and side 30 at scale 1.
    Box27 {
        /// Vertices per dimension.
        side: usize,
    },
    /// Graph500 R-MAT (a = 0.57, b = c = 0.19, edge factor 14) on
    /// `2^scale` vertices. The `kron` corpus graph is scale 16 at corpus
    /// scale 0.
    Rmat {
        /// log2 of the vertex count before taking the largest component.
        scale: u32,
    },
}

impl GraphSpec {
    /// Generate the graph (before taking its largest component). Uses the
    /// same generator call and seed mixing as the corpus.
    pub fn generate(self, seed: u64) -> Csr {
        match self {
            GraphSpec::Box27 { side } => gen::grid3d(side, side, side, gen::Stencil::Box27),
            GraphSpec::Rmat { scale } => gen::rmat(scale, 14, 0.57, 0.19, 0.19, seed ^ 0xa),
        }
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::MeshKway8, Workload::KronCoarsen];

    /// The name the command line and the metrics use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshKway8 => "mesh-kway8",
            Workload::KronCoarsen => "kron-coarsen",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The input size the benchmark runs. `mesh-kway8` runs one size below
    /// cubecoup-sim scale 1, so one run holds at least 100 ops; see
    /// README.md.
    pub fn graph(self) -> GraphSpec {
        match self {
            Workload::MeshKway8 => GraphSpec::Box27 { side: 24 },
            Workload::KronCoarsen => GraphSpec::Rmat { scale: 16 },
        }
    }

    /// Whether an op partitions its input (and so has a cut and a
    /// balance).
    pub fn partitions(self) -> bool {
        self == Workload::MeshKway8
    }

    /// Mapping method of the workload's coarsening: HEC, the default, on
    /// both.
    pub fn method(self) -> MapMethod {
        MapMethod::Hec
    }
}

/// A prepared input: a METIS file for the partition workload, an
/// in-memory graph for the coarsening workload.
pub enum Input {
    /// Graph written to disk; each op ingests it.
    File {
        /// Where the file is.
        path: PathBuf,
        /// File size.
        bytes: u64,
        /// Vertices of the written graph.
        n: usize,
        /// Undirected edges of the written graph.
        m: usize,
    },
    /// Graph held in memory.
    Graph(Csr),
}

impl Input {
    /// The in-memory graph, if the input is held in memory.
    pub fn graph(&self) -> Option<&Csr> {
        match self {
            Input::Graph(g) => Some(g),
            Input::File { .. } => None,
        }
    }

    /// Vertices of the input graph.
    pub fn vertices(&self) -> usize {
        match self {
            Input::File { n, .. } => *n,
            Input::Graph(g) => g.n(),
        }
    }

    /// Undirected edges of the input graph.
    pub fn edges(&self) -> usize {
        match self {
            Input::File { m, .. } => *m,
            Input::Graph(g) => g.m(),
        }
    }
}

/// Build a workload's input from the seed: the generator, then
/// `cc::largest_component`, then (partition workload only)
/// `io::write_metis` to `path`.
pub fn prepare(w: Workload, spec: GraphSpec, seed: u64, path: &Path) -> std::io::Result<Input> {
    let raw = spec.generate(seed);
    let (g, _) = cc::largest_component(&raw);
    drop(raw);
    match w {
        Workload::MeshKway8 => {
            io::write_metis(&g, path)?;
            let bytes = std::fs::metadata(path)?.len();
            Ok(Input::File {
                path: path.to_path_buf(),
                bytes,
                n: g.n(),
                m: g.m(),
            })
        }
        Workload::KronCoarsen => Ok(Input::Graph(g)),
    }
}

/// What one op returns.
pub enum Output {
    /// A k-way partition of `graph` (the ingested largest component).
    Kway {
        /// The graph that was partitioned.
        graph: Csr,
        /// The partition.
        result: KwayResult,
    },
    /// A coarsening hierarchy of the in-memory input.
    Hierarchy(Hierarchy),
}

/// Coarsening options of one op: the defaults with the op's seed, and the
/// program's own trace collector explicitly off.
pub fn coarsen_options(method: MapMethod, seed: u64) -> CoarsenOptions {
    CoarsenOptions {
        method,
        seed,
        trace: TraceCollector::disabled(),
        ..CoarsenOptions::default()
    }
}

/// Streaming-ingest options under `policy` (default chunking).
pub fn ingest_options(policy: &ExecPolicy) -> IngestOptions {
    IngestOptions {
        policy: policy.clone(),
        ..IngestOptions::default()
    }
}

/// One untraced op, exactly as a user runs it: `mlcg kway <file> -k 8`
/// for the partition workload, `coarsen()` for the others.
pub fn run_op(
    w: Workload,
    input: &Input,
    policy: &ExecPolicy,
    seed: u64,
) -> std::io::Result<Output> {
    match input {
        Input::File { path, .. } => {
            let (raw, _) = io::ingest_auto(path, &ingest_options(policy))?;
            let (graph, _) = cc::largest_component(&raw);
            drop(raw);
            let result = kway_partition(
                policy,
                &graph,
                K,
                &coarsen_options(w.method(), seed),
                &FmConfig::default(),
                seed,
            );
            Ok(Output::Kway { graph, result })
        }
        Input::Graph(g) => Ok(Output::Hierarchy(coarsen(
            policy,
            g,
            &coarsen_options(w.method(), seed),
        ))),
    }
}

/// The fixed per-op seed sequence of a run seed (SplitMix64 stream).
pub fn op_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = mlcg_par::rng::SplitMix64::new(seed);
    std::iter::repeat_with(move || rng.next_u64())
}
