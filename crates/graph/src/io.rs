//! Graph file I/O: Matrix Market, METIS, and DOT.
//!
//! The paper's corpus comes from the SuiteSparse collection (Matrix Market
//! files) and OGB; these readers let a user of this library run the same
//! pipelines on real downloaded data. DOT export is used by the Fig. 1/2
//! reproductions.
//!
//! A METIS file is already a CSR (line `u` is row `u`), so [`read_metis`]
//! reads it once, sequentially, straight into the final arrays: no edge
//! staging, no builder, and it ignores [`IngestOptions`]. Its tokens are
//! separated by ASCII whitespace.
//!
//! Matrix Market files and edge lists are edge lists, so their readers are
//! [`stream::EdgeSource`]s: the file is parsed a bounded chunk of edges at
//! a time and fed through the two-pass
//! [`StreamCsrBuilder`](crate::builder::StreamCsrBuilder), so ingesting a
//! graph never materializes its full edge list. [`ingest_auto`] exposes the
//! chunk-size knob and the [`stream::IngestStats`] telemetry.

use crate::builder::MergeMode;
use crate::csr::{Csr, Offsets, VId, Weight};
use crate::stream::{self, EdgeSource, IngestOptions, IngestStats};
use std::io::{self, BufRead, BufWriter, Write as _};
use std::path::{Path, PathBuf};

type FileLines = io::Lines<io::BufReader<std::fs::File>>;
type Edge = (VId, VId, Weight);

// ---------------------------------------------------------------------------
// Matrix Market
// ---------------------------------------------------------------------------

/// Streaming [`EdgeSource`] over a Matrix Market coordinate file.
///
/// Accepts `matrix coordinate (pattern|integer|real) (general|symmetric)`.
/// Real weights are rounded to positive integers (minimum 1); diagonal
/// entries are dropped by the builder. Entries are canonicalized to
/// `(min, max)` so that `general` files storing both triangles collapse the
/// `(i,j,w)` / `(j,i,w)` pair under a max-merge to `w` — not the doubled
/// `2w` a sum-merge would produce. The entry count is checked against the
/// header's `nnz` at end of file.
pub struct MatrixMarketSource {
    path: PathBuf,
    n: usize,
    nnz: usize,
    pattern: bool,
    lines: FileLines,
    seen: usize,
    done: bool,
}

impl MatrixMarketSource {
    /// Open and parse the header and size line.
    pub fn open(path: &Path) -> io::Result<Self> {
        let (n, nnz, pattern, lines) = Self::open_past_header(path)?;
        Ok(MatrixMarketSource {
            path: path.to_path_buf(),
            n,
            nnz,
            pattern,
            lines,
            seen: 0,
            done: false,
        })
    }

    fn open_past_header(path: &Path) -> io::Result<(usize, usize, bool, FileLines)> {
        let file = std::fs::File::open(path)?;
        let mut lines = io::BufReader::new(file).lines();
        let header = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty file"))??;
        let h = header.to_ascii_lowercase();
        if !h.starts_with("%%matrixmarket matrix coordinate") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported MatrixMarket header: {header}"),
            ));
        }
        let pattern = h.contains("pattern");

        let mut size_line = None;
        for line in lines.by_ref() {
            let line = line?;
            if line.starts_with('%') || line.trim().is_empty() {
                continue;
            }
            size_line = Some(line);
            break;
        }
        let size_line = size_line
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing size line"))?;
        let mut it = size_line.split_whitespace();
        let rows: usize = parse(it.next())?;
        let cols: usize = parse(it.next())?;
        let nnz: usize = parse(it.next())?;
        Ok((rows.max(cols), nnz, pattern, lines))
    }
}

impl EdgeSource for MatrixMarketSource {
    fn n(&self) -> usize {
        self.n
    }

    fn reset(&mut self) -> io::Result<()> {
        let (n, nnz, pattern, lines) = Self::open_past_header(&self.path)?;
        debug_assert!(n == self.n && nnz == self.nnz && pattern == self.pattern);
        self.lines = lines;
        self.seen = 0;
        self.done = false;
        Ok(())
    }

    fn next_chunk(&mut self, out: &mut Vec<Edge>, max: usize) -> io::Result<usize> {
        out.clear();
        if self.done {
            return Ok(0);
        }
        while out.len() < max {
            let Some(line) = self.lines.next() else {
                self.done = true;
                if self.seen != self.nnz {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "entry count mismatch: header says {}, found {}",
                            self.nnz, self.seen
                        ),
                    ));
                }
                break;
            };
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let i: usize = parse(it.next())?;
            let j: usize = parse(it.next())?;
            if i == 0 || j == 0 || i > self.n || j > self.n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad entry: {t}"),
                ));
            }
            let w: Weight = if self.pattern {
                1
            } else {
                let raw: f64 = parse(it.next())?;
                (raw.abs().round() as u64).max(1)
            };
            self.seen += 1;
            // Canonical (min, max): a general file's mirrored pair becomes
            // an exact duplicate, which the max-merge collapses without
            // doubling. Diagonals pass through; the builder drops them.
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            out.push(((a - 1) as VId, (b - 1) as VId, w));
        }
        Ok(out.len())
    }
}

/// Read an undirected graph from a Matrix Market file (streamed).
pub fn read_matrix_market(path: &Path) -> io::Result<Csr> {
    let mut src = MatrixMarketSource::open(path)?;
    Ok(stream::build_csr(&mut src, MergeMode::Max, &IngestOptions::default())?.0)
}

/// Write a graph as `matrix coordinate integer symmetric` Matrix Market.
pub fn write_matrix_market(g: &Csr, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "%%MatrixMarket matrix coordinate integer symmetric")?;
    writeln!(w, "{} {} {}", g.n(), g.n(), g.m())?;
    for u in 0..g.n() as VId {
        for (v, wt) in g.edges(u) {
            if v < u {
                // Lower triangle only (row >= col), 1-based.
                writeln!(w, "{} {} {}", u + 1, v + 1, wt)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// METIS
// ---------------------------------------------------------------------------

/// Read a METIS `.graph` file in one sequential pass, straight into the
/// CSR. Supports `fmt` `0`/`00`/`000` (unweighted) and `1`/`01`/`001`
/// (edge weights); vertex-weight formats are rejected.
///
/// A METIS file already is a CSR: line `u` lists row `u`. The reader reads
/// each line once into a reused byte buffer and appends its entries to the
/// final `adj`/`wgt`, with no edge staging and no builder, so it ignores
/// [`IngestOptions`] (both `chunk_edges` and `policy`). Tokens are separated
/// by the ASCII bytes `char::is_whitespace` accepts (space, `\t`, `\n`,
/// VT, FF, `\r`), ids and weights may carry a leading `+`, lines starting
/// with `%` are comments, and a row may list its neighbors in any order: it
/// is sorted in place.
///
/// The file must describe a symmetric graph exactly, or the read fails with
/// [`io::ErrorKind::InvalidData`] instead of silently dropping entries:
/// - exactly `n` vertex lines, ids in `1..=n`, no self loop, no zero
///   weight, no neighbor listed twice in one row;
/// - upper-triangle (`v > u`) and lower-triangle (`v < u`) entries each
///   number the header's `m`;
/// - every entry `(u, v, w)` meets its mirror `(v, u, w)`.
///
/// Every reservation is capped by the file's length (an entry takes at
/// least two bytes and a vertex line at least one), so a header that
/// overstates `n` or `m` cannot size an allocation.
pub fn read_metis(path: &Path) -> io::Result<Csr> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let mut r = io::BufReader::new(file);
    let mut line = Vec::new();

    // Header: the first line that is neither blank nor a comment.
    let mut header_bytes = 0u64;
    let (n, m, has_ewgt) = loop {
        line.clear();
        let k = r.read_until(b'\n', &mut line)?;
        if k == 0 {
            return Err(invalid("empty file"));
        }
        header_bytes += k as u64;
        utf8(&line)?;
        let mut it = line.split(|&b| is_space(b)).filter(|t| !t.is_empty());
        let Some(first) = it.next().filter(|_| !line.starts_with(b"%")) else {
            continue;
        };
        let n = number_field(Some(first))?;
        let m = number_field(it.next())?;
        let has_ewgt = match it.next().unwrap_or(b"0") {
            b"0" | b"00" | b"000" => false,
            b"1" | b"01" | b"001" => true,
            fmt => {
                return Err(invalid(format!(
                    "unsupported METIS fmt {} (vertex weights not supported)",
                    String::from_utf8_lossy(fmt)
                )))
            }
        };
        break (n, m, has_ewgt);
    };
    if n > u64::from(VId::MAX) {
        return Err(invalid(format!(
            "vertex count {n} exceeds the u32 id space"
        )));
    }
    let n = n as usize;

    let body = len.saturating_sub(header_bytes);
    let entries = usize::try_from(m.saturating_mul(2).min(body / 2 + 1)).unwrap_or(usize::MAX);
    let rows = usize::try_from(body).map_or(n, |b| b.min(n));
    let mut adj: Vec<VId> = Vec::with_capacity(entries);
    let mut wgt: Vec<Weight> = Vec::with_capacity(entries);
    let mut xadj = Offsets::U32(Vec::with_capacity(rows + 1));
    xadj.push(0);
    // `mirror[x]`: the first upper entry of row `x` whose mirror has not
    // been seen. Mirrors of row `x`'s upper entries arrive in ascending row
    // order, so each match advances the cursor by one.
    let mut mirror: Vec<usize> = Vec::with_capacity(rows);
    let (mut nums, mut scratch) = (Vec::new(), Vec::new());
    let (mut upper, mut lower) = (0u64, 0u64);
    // The first entry found without its mirror. It is reported after the
    // count check, so a file whose counts disagree gets the count message.
    let mut unpaired: Option<String> = None;

    loop {
        line.clear();
        if r.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.starts_with(b"%") {
            utf8(&line)?;
            continue;
        }
        let u = mirror.len();
        if u == n {
            if !line.iter().all(|&b| is_space(b)) {
                return Err(invalid("too many vertex lines"));
            }
            continue;
        }
        let start = adj.len();
        let complete = numbers(&line, &mut nums);
        let mut it = nums.iter().copied();
        loop {
            let Some(v) = it.next() else {
                if complete {
                    break;
                }
                return Err(invalid("bad adjacency"));
            };
            let w = if !has_ewgt {
                1
            } else if let Some(w) = it.next() {
                w
            } else if complete {
                return Err(invalid("missing field"));
            } else {
                return Err(invalid("unparsable field"));
            };
            if v == 0 || v > n as u64 {
                return Err(invalid("vertex id out of range"));
            }
            if w == 0 {
                return Err(invalid("zero edge weight"));
            }
            if v - 1 == u as u64 {
                return Err(invalid(format!(
                    "self loop on vertex {v} (METIS forbids them)"
                )));
            }
            adj.push((v - 1) as VId);
            wgt.push(w);
        }
        let end = adj.len();
        sort_row(u, &mut adj[start..], &mut wgt[start..], &mut scratch)?;
        let split = start + adj[start..].partition_point(|&v| (v as usize) < u);
        lower += (split - start) as u64;
        upper += (end - split) as u64;
        if unpaired.is_none() {
            unpaired = (start..split).find_map(|i| {
                let x = adj[i] as usize;
                let c = mirror[x];
                // Row `x`'s next upper neighbor still unmatched; `n` if none.
                let y = if c < xadj.get(x + 1) {
                    adj[c] as usize
                } else {
                    n
                };
                if y == u && wgt[c] == wgt[i] {
                    mirror[x] += 1;
                    return None;
                }
                let (x1, u1) = (x + 1, u + 1);
                Some(if y == u {
                    format!(
                        "asymmetric edge weight: vertex {x1} lists {u1} with weight {}, \
                         vertex {u1} lists {x1} with weight {}",
                        wgt[c], wgt[i]
                    )
                } else {
                    // `y < u`: row `y` is read and never listed `x`.
                    // Otherwise row `x` never lists `u`.
                    let (a, b) = if y < u { (x1, y + 1) } else { (u1, x1) };
                    format!(
                        "unpaired adjacency entry: vertex {a} lists {b} \
                         but vertex {b} does not list {a}"
                    )
                })
            });
        }
        mirror.push(split);
        xadj.push(end);
    }

    let u = mirror.len();
    if u != n {
        return Err(invalid(format!("expected {n} vertex lines, found {u}")));
    }
    if upper != m || lower != m {
        return Err(invalid(format!(
            "adjacency entry count mismatch: {upper} upper / {lower} lower triangle \
             entries, header declares m = {m}; asymmetric or mis-declared file"
        )));
    }
    if let Some(msg) = unpaired {
        return Err(invalid(msg));
    }
    // Free the working buffers before `from_offsets` allocates the vertex
    // weights, so the row cursors and the vertex weights are never held
    // at once.
    drop((r, line, mirror, nums, scratch));
    Ok(Csr::from_offsets(xadj, adj, wgt))
}

/// Reject a line that is not UTF-8 text, as `BufRead::lines` does. Vertex
/// lines need no check: one that parses holds only separators, digits and
/// `+`.
fn utf8(line: &[u8]) -> io::Result<()> {
    std::str::from_utf8(line)
        .map(drop)
        .map_err(|_| invalid("stream did not contain valid UTF-8"))
}

/// The ASCII bytes `char::is_whitespace` accepts, METIS's separators:
/// `\t`, `\n`, VT, FF, `\r` and space.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Parse a line's tokens as [`number`]s into `out`, in one pass over its
/// bytes. Stops at the first token that is not a number and returns
/// `false`; `out` then holds the numbers before it.
fn numbers(line: &[u8], out: &mut Vec<u64>) -> bool {
    // A token of at most 19 plain digits cannot overflow, so its value is
    // folded on the fly; any other token goes through `number`.
    let value = |tok: &[u8], x: u64, plain: bool| {
        if plain && tok.len() <= 19 {
            Some(x)
        } else {
            number(tok)
        }
    };
    out.clear();
    let (mut x, mut len, mut plain) = (0u64, 0usize, true);
    for (i, &b) in line.iter().enumerate() {
        let d = b.wrapping_sub(b'0');
        if d <= 9 {
            x = x.wrapping_mul(10).wrapping_add(u64::from(d));
            len += 1;
        } else if !is_space(b) {
            plain = false;
            len += 1;
        } else if len > 0 {
            let Some(v) = value(&line[i - len..i], x, plain) else {
                return false;
            };
            out.push(v);
            (x, len, plain) = (0, 0, true);
        }
    }
    // The last token, when no separator ends the line.
    len == 0
        || value(&line[line.len() - len..], x, plain)
            .map(|v| out.push(v))
            .is_some()
}

/// A decimal `u64` with an optional leading `+`, as `str::parse` reads it.
fn number(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |x, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        x.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// [`number`] on a field that must be present, with [`parse`]'s messages.
fn number_field(tok: Option<&[u8]>) -> io::Result<u64> {
    number(tok.ok_or_else(|| invalid("missing field"))?).ok_or_else(|| invalid("unparsable field"))
}

/// Sort row `u`'s entries by neighbor, carrying the weights, and reject a
/// neighbor listed twice. Rows written by [`write_metis`] are already
/// sorted and skip the copy.
fn sort_row(
    u: usize,
    adj: &mut [VId],
    wgt: &mut [Weight],
    scratch: &mut Vec<(VId, Weight)>,
) -> io::Result<()> {
    if adj.windows(2).all(|p| p[0] < p[1]) {
        return Ok(());
    }
    scratch.clear();
    scratch.extend(adj.iter().copied().zip(wgt.iter().copied()));
    scratch.sort_unstable_by_key(|&(v, _)| v);
    for ((a, w), &(v, x)) in adj.iter_mut().zip(wgt.iter_mut()).zip(scratch.iter()) {
        (*a, *w) = (v, x);
    }
    match adj.windows(2).find(|p| p[0] == p[1]) {
        Some(p) => Err(invalid(format!(
            "vertex {} lists neighbor {} twice",
            u + 1,
            p[0] + 1
        ))),
        None => Ok(()),
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write a graph in METIS format with edge weights (`fmt 001`).
pub fn write_metis(g: &Csr, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{} {} 001", g.n(), g.m())?;
    for u in 0..g.n() as VId {
        let mut first = true;
        for (v, wt) in g.edges(u) {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{} {}", v + 1, wt)?;
            first = false;
        }
        writeln!(w)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Edge list
// ---------------------------------------------------------------------------

/// Streaming [`EdgeSource`] over a whitespace-separated edge list: one
/// `u v [w]` triple per line, 0-based ids, `#` or `%` comments.
///
/// Opening performs a sizing pass that determines `n = max_id + 1` and
/// validates every line (ids must be `< u32::MAX`, explicit weights must
/// be positive), so the two builder passes are the second and third reads
/// of the file. Self-loop ids count toward `n` even though the loops
/// themselves are dropped — a file containing only `7 7` produces an
/// 8-vertex edgeless graph, not an empty one.
pub struct EdgeListSource {
    path: PathBuf,
    n: usize,
    lines: FileLines,
    done: bool,
}

impl EdgeListSource {
    /// Open and size the file (first of three passes).
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let mut max_id = 0u64;
        let mut seen_any = false;
        for line in io::BufReader::new(file).lines() {
            let line = line?;
            if let Some((u, v, _)) = parse_edge_list_line(&line)? {
                max_id = max_id.max(u).max(v);
                seen_any = true;
            }
        }
        let n = if seen_any { max_id as usize + 1 } else { 0 };
        let lines = io::BufReader::new(std::fs::File::open(path)?).lines();
        Ok(EdgeListSource {
            path: path.to_path_buf(),
            n,
            lines,
            done: false,
        })
    }
}

impl EdgeSource for EdgeListSource {
    fn n(&self) -> usize {
        self.n
    }

    fn reset(&mut self) -> io::Result<()> {
        self.lines = io::BufReader::new(std::fs::File::open(&self.path)?).lines();
        self.done = false;
        Ok(())
    }

    fn next_chunk(&mut self, out: &mut Vec<Edge>, max: usize) -> io::Result<usize> {
        out.clear();
        if self.done {
            return Ok(0);
        }
        while out.len() < max {
            let Some(line) = self.lines.next() else {
                self.done = true;
                break;
            };
            let line = line?;
            if let Some((u, v, w)) = parse_edge_list_line(&line)? {
                // Self-loops pass through; the builder drops them but their
                // endpoints already grew `n` during the sizing pass.
                out.push((u as VId, v as VId, w));
            }
        }
        Ok(out.len())
    }
}

/// Parse one edge-list line; `Ok(None)` for comments and blanks.
fn parse_edge_list_line(line: &str) -> io::Result<Option<(u64, u64, Weight)>> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let u: u64 = parse(it.next())?;
    let v: u64 = parse(it.next())?;
    if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("vertex id exceeds supported u32 id space: {t}"),
        ));
    }
    let w: Weight = match it.next() {
        Some(tok) => tok
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad weight"))?,
        None => 1,
    };
    if w == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("zero edge weight: {t}"),
        ));
    }
    Ok(Some((u, v, w)))
}

/// Read a whitespace-separated edge list (streamed): one `u v [w]` triple
/// per line, 0-based ids, `#` or `%` comments. The vertex count is one
/// past the largest id seen — including ids seen only in self-loops or
/// duplicate lines.
pub fn read_edge_list(path: &Path) -> io::Result<Csr> {
    let mut src = EdgeListSource::open(path)?;
    Ok(stream::build_csr(&mut src, MergeMode::Sum, &IngestOptions::default())?.0)
}

/// Write a graph as a `u v w` edge list (each undirected edge once).
pub fn write_edge_list(g: &Csr, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# {} vertices, {} edges", g.n(), g.m())?;
    for u in 0..g.n() as VId {
        for (v, wt) in g.edges(u) {
            if v > u {
                writeln!(w, "{u} {v} {wt}")?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Infer a reader from the file extension: `.mtx` (Matrix Market),
/// `.graph`/`.metis` (METIS), anything else as an edge list.
pub fn read_auto(path: &Path) -> io::Result<Csr> {
    ingest_auto(path, &IngestOptions::default()).map(|(g, _)| g)
}

/// [`read_auto`] with explicit streaming options, returning the ingest
/// telemetry (chunk count, peak staging bytes, offset width) alongside the
/// graph. A METIS file is read by [`read_metis`] in one pass, which ignores
/// `chunk_edges` and `policy`; its stats read `edges_streamed = m`,
/// `chunks = 1` and `peak_staging_bytes = 0`.
pub fn ingest_auto(path: &Path, opts: &IngestOptions) -> io::Result<(Csr, IngestStats)> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("mtx") => {
            let mut src = MatrixMarketSource::open(path)?;
            stream::build_csr(&mut src, MergeMode::Max, opts)
        }
        Some("graph") | Some("metis") => {
            let g = read_metis(path)?;
            let stats = IngestStats {
                n: g.n(),
                m: g.m(),
                directed_entries: g.num_entries(),
                edges_streamed: g.m() as u64,
                chunks: 1,
                peak_staging_bytes: 0,
                offsets_are_u32: g.offsets_are_u32(),
            };
            Ok((g, stats))
        }
        _ => {
            let mut src = EdgeListSource::open(path)?;
            stream::build_csr(&mut src, MergeMode::Sum, opts)
        }
    }
}

/// Render a graph in Graphviz DOT, optionally coloring vertices by an
/// aggregate/partition label. Intended for small illustration graphs.
pub fn to_dot(g: &Csr, labels: Option<&[u32]>) -> String {
    const PALETTE: [&str; 10] = [
        "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854", "#ffd92f", "#e5c494", "#b3b3b3",
        "#1f78b4", "#33a02c",
    ];
    let mut s = String::from("graph G {\n  node [style=filled];\n");
    for u in 0..g.n() as VId {
        if let Some(lab) = labels {
            let color = PALETTE[lab[u as usize] as usize % PALETTE.len()];
            s.push_str(&format!(
                "  {u} [fillcolor=\"{color}\" label=\"{u}\\na{}\"];\n",
                lab[u as usize]
            ));
        } else {
            s.push_str(&format!("  {u};\n"));
        }
    }
    for u in 0..g.n() as VId {
        for (v, w) in g.edges(u) {
            if v > u {
                s.push_str(&format!("  {u} -- {v} [label=\"{w}\"];\n"));
            }
        }
    }
    s.push_str("}\n");
    s
}

fn parse<T: std::str::FromStr>(tok: Option<&str>) -> io::Result<T> {
    tok.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing field"))?
        .parse::<T>()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "unparsable field"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{delaunay_like, rmat};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mlcg-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn matrix_market_roundtrip() {
        let g = delaunay_like(12, 12, 3);
        let p = tmp("mm.mtx");
        write_matrix_market(&g, &p).unwrap();
        let g2 = read_matrix_market(&p).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn metis_roundtrip_weighted() {
        let g =
            crate::builder::from_edges_weighted(4, &[(0, 1, 5), (1, 2, 2), (2, 3, 9), (0, 3, 1)]);
        let p = tmp("g.graph");
        write_metis(&g, &p).unwrap();
        let g2 = read_metis(&p).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn metis_roundtrip_large() {
        let g = rmat(9, 6, 0.57, 0.19, 0.19, 4);
        let p = tmp("rmat.graph");
        write_metis(&g, &p).unwrap();
        let g2 = read_metis(&p).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mm_pattern_general_symmetrizes() {
        let p = tmp("pat.mtx");
        std::fs::write(
            &p,
            "%%MatrixMarket matrix coordinate pattern general\n% comment\n3 3 4\n1 2\n2 1\n2 3\n1 1\n",
        )
        .unwrap();
        let g = read_matrix_market(&p).unwrap();
        g.validate().unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2); // (1,2) dedup'd, (1,1) dropped
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mm_general_both_triangles_not_doubled() {
        // Regression: a general file storing both (i,j,w) and (j,i,w) must
        // produce weight w, not 2w.
        let p = tmp("gen.mtx");
        std::fs::write(
            &p,
            "%%MatrixMarket matrix coordinate integer general\n3 3 5\n1 2 5\n2 1 5\n2 3 7\n3 2 7\n1 3 2\n",
        )
        .unwrap();
        let g = read_matrix_market(&p).unwrap();
        g.validate().unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.find_edge(0, 1), Some(5), "mirrored pair must not double");
        assert_eq!(g.find_edge(1, 2), Some(7));
        assert_eq!(g.find_edge(0, 2), Some(2), "one-triangle entry unchanged");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mm_entry_count_mismatch_rejected() {
        let p = tmp("short.mtx");
        std::fs::write(
            &p,
            "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 2\n2 3\n",
        )
        .unwrap();
        let err = read_matrix_market(&p).unwrap_err();
        assert!(err.to_string().contains("entry count mismatch"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mm_truncated_size_line_rejected() {
        let p = tmp("trunc.mtx");
        std::fs::write(
            &p,
            "%%MatrixMarket matrix coordinate pattern general\n3 3\n",
        )
        .unwrap();
        assert!(read_matrix_market(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bad_header_rejected() {
        let p = tmp("bad.mtx");
        std::fs::write(&p, "%%MatrixMarket matrix array real general\n1 1\n1.0\n").unwrap();
        assert!(read_matrix_market(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn metis_entry_count_mismatch_rejected() {
        // Header claims 2 edges but only one (mirrored) edge is present.
        let p = tmp("badcount.graph");
        std::fs::write(&p, "3 2\n2\n1\n\n").unwrap();
        let err = read_metis(&p).unwrap_err();
        assert!(err.to_string().contains("entry count"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn metis_lower_triangle_only_rejected() {
        // Regression: edge listed only on the higher endpoint's line used
        // to be silently dropped by the v-1 > u filter.
        let p = tmp("lower.graph");
        std::fs::write(&p, "2 1\n\n1\n").unwrap();
        let err = read_metis(&p).unwrap_err();
        assert!(err.to_string().contains("entry count"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn metis_double_listed_edge_rejected() {
        // Entries total 2m, but one side lists the edge twice and the
        // mirror never appears — caught as a neighbor listed twice.
        let p = tmp("dup.graph");
        std::fs::write(&p, "3 1\n2 2\n\n\n").unwrap();
        assert!(read_metis(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    /// Write `body` to a fresh file and read it as METIS.
    fn read_metis_text(name: &str, body: &str) -> io::Result<Csr> {
        let p = tmp(name);
        std::fs::write(&p, body).unwrap();
        let res = read_metis(&p);
        std::fs::remove_file(&p).ok();
        res
    }

    #[test]
    fn metis_unpaired_entry_rejected() {
        // Regression: both entry counts equal m = 2, yet {1,3} appears only
        // on line 3 and {1,2} only on line 1; this used to read as the
        // path 1-2-3.
        let err = read_metis_text("unpaired.graph", "3 2\n2\n3\n1 2\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("vertex 1 lists 2 but vertex 2 does not list 1"),
            "{err}"
        );
    }

    #[test]
    fn metis_mirror_weight_mismatch_rejected() {
        // Regression: this used to read with weight 3, dropping the 5.
        let err = read_metis_text("wmismatch.graph", "2 1 1\n2 3\n1 5\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("weight 3") && msg.contains("weight 5"),
            "{msg}"
        );
    }

    #[test]
    fn metis_vertex_count_past_u32_rejected() {
        // Regression: this used to panic in `StreamCsrBuilder::new`.
        let err = read_metis_text("bign32.graph", "5000000000 0\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("u32 id space"), "{err}");
    }

    #[test]
    fn metis_header_cannot_size_an_allocation() {
        // Regression: the header's n used to size the offsets, and a 16 MiB
        // edge chunk was staged whatever the file's length.
        for (name, body) in [
            ("bigm.graph", "2 4000000000\n2\n1\n"),
            ("bign.graph", "4000000000 0\n"),
        ] {
            let (res, mem) = mlcg_par::mem::measure(|| read_metis_text(name, body));
            let err = res.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(mem.peak_bytes < 1 << 20, "{name}: peak {}", mem.peak_bytes);
        }
    }

    #[test]
    fn metis_unsorted_row_is_sorted_and_duplicate_rejected() {
        let g = read_metis_text("unsorted.graph", "3 2 1\n3 4 2 7\n1 7\n1 4\n").unwrap();
        g.validate().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.weights(0), &[7, 4]);
        let err = read_metis_text("dup2.graph", "2 1\n2 2\n1 1\n").unwrap_err();
        assert!(err.to_string().contains("lists neighbor 2 twice"), "{err}");
    }

    #[test]
    fn numbers_read_tokens_as_str_parse_does() {
        const PIECES: [&str; 16] = [
            "0",
            "1",
            "7",
            "9",
            "+",
            "-",
            "a",
            " ",
            "\t",
            "\r",
            "\x0b",
            "\x0c",
            "\n",
            "18446744073709551615",
            "18446744073709551616",
            "0000000000000000000000042",
        ];
        mlcg_par::proplite::run_cases(500, 0x9A_25, |gen| {
            let line: String = (0..gen.usize_in(0, 12))
                .map(|_| PIECES[gen.below(PIECES.len() as u64) as usize])
                .collect();
            let mut want = (true, Vec::new());
            for tok in line.split_whitespace() {
                match tok.parse::<u64>() {
                    Ok(x) => want.1.push(x),
                    Err(_) => {
                        want.0 = false;
                        break;
                    }
                }
            }
            let mut got = Vec::new();
            let complete = numbers(line.as_bytes(), &mut got);
            assert_eq!((complete, got), want, "{line:?}");
        });
    }

    #[test]
    fn metis_vertex_weight_fmt_rejected() {
        let p = tmp("vwgt.graph");
        std::fs::write(&p, "2 1 011\n1 2\n1 1\n").unwrap();
        let err = read_metis(&p).unwrap_err();
        assert!(err.to_string().contains("fmt"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn edge_list_roundtrip() {
        let g =
            crate::builder::from_edges_weighted(5, &[(0, 1, 3), (1, 2, 1), (3, 4, 9), (0, 4, 2)]);
        let p = tmp("el.txt");
        write_edge_list(&g, &p).unwrap();
        let g2 = read_edge_list(&p).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn edge_list_default_weight_and_comments() {
        let p = tmp("el2.txt");
        std::fs::write(&p, "# comment\n0 1\n% another\n1 2 5\n2 2\n").unwrap();
        let g = read_edge_list(&p).unwrap();
        g.validate().unwrap();
        assert_eq!(g.find_edge(0, 1), Some(1));
        assert_eq!(g.find_edge(1, 2), Some(5));
        assert_eq!(g.m(), 2); // self loop dropped
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn edge_list_self_loops_only_keeps_vertex_count() {
        // Regression: a file of self-loops used to come back as the empty
        // graph, losing every vertex the ids implied.
        let p = tmp("loops.txt");
        std::fs::write(&p, "# loops only\n7 7\n2 2 9\n").unwrap();
        let g = read_edge_list(&p).unwrap();
        g.validate().unwrap();
        assert_eq!(g.n(), 8, "max id 7 implies 8 vertices");
        assert_eq!(g.m(), 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn edge_list_comments_only_is_empty() {
        let p = tmp("comments.txt");
        std::fs::write(&p, "# nothing\n% here\n").unwrap();
        let g = read_edge_list(&p).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn edge_list_huge_id_rejected() {
        let p = tmp("huge.txt");
        std::fs::write(&p, format!("0 {}\n", u32::MAX as u64 + 7)).unwrap();
        let err = read_edge_list(&p).unwrap_err();
        assert!(err.to_string().contains("id space"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn edge_list_zero_weight_rejected() {
        let p = tmp("zerow.txt");
        std::fs::write(&p, "0 1 0\n").unwrap();
        let err = read_edge_list(&p).unwrap_err();
        assert!(err.to_string().contains("zero edge weight"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn read_auto_dispatches_on_extension() {
        let g = crate::generators::path(5);
        let p1 = tmp("auto.graph");
        write_metis(&g, &p1).unwrap();
        assert_eq!(read_auto(&p1).unwrap(), g);
        let p2 = tmp("auto.mtx");
        write_matrix_market(&g, &p2).unwrap();
        assert_eq!(read_auto(&p2).unwrap(), g);
        let p3 = tmp("auto.txt");
        write_edge_list(&g, &p3).unwrap();
        assert_eq!(read_auto(&p3).unwrap(), g);
        for p in [p1, p2, p3] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn ingest_auto_reports_stats() {
        let g = rmat(8, 6, 0.45, 0.25, 0.2, 11);
        let p = tmp("stats.mtx");
        write_matrix_market(&g, &p).unwrap();
        let opts = IngestOptions {
            chunk_edges: 64,
            policy: mlcg_par::ExecPolicy::serial(),
        };
        let (g2, stats) = ingest_auto(&p, &opts).unwrap();
        assert_eq!(g, g2, "streamed read must equal the written graph");
        assert_eq!(stats.m, g.m());
        assert_eq!(stats.edges_streamed, g.m() as u64);
        assert_eq!(stats.chunks, (g.m() as u64).div_ceil(64));
        assert!(stats.offsets_are_u32);
        assert_eq!(
            stats.peak_staging_bytes,
            64 * crate::builder::EDGE_ITEM_BYTES
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ingest_auto_reports_one_unstaged_chunk_for_metis() {
        let g = rmat(8, 6, 0.45, 0.25, 0.2, 11);
        let p = tmp("stats.graph");
        write_metis(&g, &p).unwrap();
        let opts = IngestOptions {
            chunk_edges: 64,
            policy: mlcg_par::ExecPolicy::serial(),
        };
        let (g2, stats) = ingest_auto(&p, &opts).unwrap();
        assert_eq!(g, g2);
        assert_eq!((stats.n, stats.m), (g.n(), g.m()));
        assert_eq!(stats.directed_entries, g.num_entries());
        assert_eq!(stats.edges_streamed, g.m() as u64);
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.peak_staging_bytes, 0);
        assert!(stats.offsets_are_u32);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn dot_contains_edges_and_colors() {
        let g = crate::generators::path(3);
        let dot = to_dot(&g, Some(&[0, 0, 1]));
        assert!(dot.contains("0 -- 1"));
        assert!(dot.contains("1 -- 2"));
        assert!(dot.contains("fillcolor"));
    }
}
