//! Sequential Fiduccia–Mattheyses refinement and the FM-based multilevel
//! bisection driver.
//!
//! The paper's FM implementation is sequential ("we are unaware of FM
//! parallelizations for massively multithreaded architectures"); only the
//! coarsening phase is parallel. Each pass greedily moves the
//! best-gain balance-feasible vertex, locking moved vertices, and rolls
//! back to the best prefix — the classic linear-time heuristic, here with
//! an indexed max-heap over weighted gains that each move updates in place
//! (`crate::gainheap`).
//!
//! [`fm_refine`] is the one sequential boundary FM, for any number of
//! parts: bisection refines under [`Balance::split`], the k-way post-pass
//! (`crate::kwayref`) under its entry cap. Its gain model is picked once
//! per call from the part count, so the move loop never branches on `k`.
//!
//! Refinement is *boundary-driven*: a pass computes gains and heap-seeds
//! only the frontier (vertices with at least one cut edge, plus anything
//! whose stored gain a move invalidated), so a pass costs
//! `O(boundary + moved · deg)` instead of the `O(n + m)` full rebuild the
//! reference implementation ([`fm_refine_frac_full_scan`]) performs. The
//! multilevel driver seeds each level's frontier from the coarser level's
//! final boundary (see [`mlcg_coarsen::Hierarchy::project_frontier`]), so
//! uncoarsening never rescans interior vertices whose aggregate was
//! interior one level down.

use crate::gainheap::GainHeap;
use crate::parref::{
    default_crossover, part_loads, rounds_then_polish, ParRefWorkspace, PartScratch,
};
use crate::result::{audit_partition, PartitionResult};
use mlcg_coarsen::{coarsen, CoarsenOptions, Hierarchy};
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{Csr, VId};
use mlcg_par::{ExecPolicy, TraceCollector};

/// Maximum passes per refinement, for [`fm_refine`] and the full-scan
/// oracle alike.
const MAX_PASSES: usize = 8;

/// FM tuning parameters.
#[derive(Clone, Debug)]
pub struct FmConfig {
    /// Allowed imbalance: a move is feasible while the heavier side stays
    /// at or below `(1 + epsilon) · total/2` (always at least `⌈total/2⌉`,
    /// so unit-weight graphs can reach exact balance).
    pub epsilon: f64,
    /// Additionally allow the heavier side one maximum-vertex-weight of
    /// slack. Exact balance is often unreachable on coarse graphs with
    /// heavy aggregates, and forcing it can destroy the cut; the
    /// multilevel driver enables this on every level except the finest
    /// (Metis-style progressive tightening).
    pub vertex_slack: bool,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            epsilon: 0.02,
            vertex_slack: false,
        }
    }
}

impl FmConfig {
    /// This configuration with [`FmConfig::vertex_slack`] enabled.
    pub fn with_vertex_slack(&self) -> Self {
        FmConfig {
            vertex_slack: true,
            ..self.clone()
        }
    }

    /// The bisection envelope this configuration sets on `g`, part 0
    /// targeting `frac` of the vertex weight.
    pub(crate) fn split(&self, g: &Csr, frac: f64) -> Balance {
        Balance::split(g, self.epsilon, self.vertex_slack, frac)
    }
}

/// Outcome of one boundary-driven refinement.
#[derive(Clone, Debug, Default)]
pub struct FmRefineOutcome {
    /// Final weighted edge cut.
    pub cut: u64,
    /// Final boundary: every vertex with at least one cut edge. The
    /// multilevel driver projects this down one level (every fine vertex
    /// whose aggregate is listed here) to seed the next refinement.
    pub boundary: Vec<u32>,
}

/// Per-part weight caps: the balance envelope every refiner enforces.
/// [`Balance::split`] gives a bisection's two sides their own targets,
/// [`Balance::uniform`] gives `k` parts one shared cap around `total/k`.
#[derive(Clone, Debug)]
pub struct Balance {
    /// Final partitions must keep each part at or below its strict cap.
    pub(crate) strict: Vec<u64>,
    /// During a pass or round, moves may wander one max-vertex beyond the
    /// strict cap (otherwise a perfectly balanced start could never move
    /// anything); best-prefix selection and the rounds' repair restore
    /// strict balance.
    pub(crate) loose: Vec<u64>,
}

impl Balance {
    /// Two sides, part 0 targeting `frac` of the total vertex weight.
    /// Each side may exceed its target by `epsilon`, never gets less than
    /// its rounded-up share (so exact balance stays reachable on integer
    /// weights), and gains one max-vertex of slack with `vertex_slack`.
    pub fn split(g: &Csr, epsilon: f64, vertex_slack: bool, frac: f64) -> Balance {
        assert!((0.0..=1.0).contains(&frac), "frac must be in [0, 1]");
        let total = g.total_vwgt();
        let t0 = ((total as f64 * frac).round() as u64).min(total);
        let sides = [
            (t0 as f64, total as f64 * frac),
            ((total - t0) as f64, total as f64 * (1.0 - frac)),
        ];
        Balance::from_targets(g, epsilon, vertex_slack, &sides)
    }

    /// `k` parts sharing one cap around `total/k`, under the same
    /// epsilon, rounded-up share and vertex-slack rules as
    /// [`Balance::split`].
    pub fn uniform(g: &Csr, k: usize, epsilon: f64, vertex_slack: bool) -> Balance {
        let target = g.total_vwgt() as f64 / k as f64;
        Balance::from_targets(g, epsilon, vertex_slack, &vec![(target, target); k])
    }

    /// Caps from per-part `(target, share)` weights.
    fn from_targets(g: &Csr, epsilon: f64, vertex_slack: bool, parts: &[(f64, f64)]) -> Balance {
        let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1);
        let strict: Vec<u64> = parts
            .iter()
            .map(|&(target, share)| {
                let cap = ((target * (1.0 + epsilon)).floor() as u64).max(share.ceil() as u64);
                cap + if vertex_slack { max_vwgt } else { 0 }
            })
            .collect();
        let loose = strict.iter().map(|&s| s + max_vwgt).collect();
        Balance { strict, loose }
    }

    /// Raise every strict cap to at least `floor`; the loose caps keep
    /// their one max-vertex of headroom.
    pub(crate) fn at_least(mut self, floor: u64) -> Balance {
        for (s, l) in self.strict.iter_mut().zip(&mut self.loose) {
            let headroom = *l - *s;
            *s = (*s).max(floor);
            *l = *s + headroom;
        }
        self
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.strict.len()
    }

    /// Total weight above the strict caps, summed over parts (0 when
    /// feasible).
    pub fn excess(&self, wpart: &[u64]) -> u64 {
        wpart
            .iter()
            .zip(&self.strict)
            .map(|(&w, &s)| w.saturating_sub(s))
            .sum()
    }
}

/// Boundary-driven FM refinement under `bal` — the one sequential
/// refiner, for any `bal.parts() ≥ 2`. Mutates `part` (labels in
/// `0..bal.parts()`) and returns the final cut and boundary.
///
/// With `w(u, q)` the weight of `u`'s edges into part `q`, a vertex in
/// part `p` has `gain(u) = max_{q≠p} w(u, q) − w(u, p)`: for two parts,
/// external minus internal weight, read directly; for more, derived from
/// a compact per-vertex neighbor-part weight map kept as neighbors move.
///
/// Each pass computes gains and heap-seeds only the *frontier*: the
/// current boundary plus every vertex whose stored gain a move (committed
/// *or* rolled back) invalidated, so a pass costs
/// `O(boundary + moved · deg)` rather than `O(n + m)`. `seed_frontier`,
/// when given, replaces the first pass's full vertex scan; it must cover
/// every vertex with a cut edge (a superset is fine).
///
/// One rule set serves every `k`:
///
/// - *Repair seeding.* While a part is over its strict cap at pass start,
///   every vertex of that part is seeded, cut edge or not (a degenerate
///   everything-on-one-side start has an *empty* boundary).
/// - *Target.* A popped vertex moves to its best-alternative part if that
///   fits under the loose cap, else to the best connected part that fits,
///   else — when it has no cut edge or its part is over its strict cap —
///   to the least-loaded part that fits. For two parts all three read
///   "the other side if it fits".
/// - *Passes.* A pass keeps the best `(excess, cut)` prefix and rolls back
///   the rest; it aborts after `(2·boundary).max(64)` moves without a new
///   best prefix. Refinement stops after a pass that keeps no move, or
///   after 8 passes.
/// - *Count guard.* No move may empty a part.
///
/// Each pass records a `{layer}/pass{N}` span and a
/// `{layer}/boundary_size` gauge; its moves feed `{layer}/moves_committed`
/// and the rolled-back ones `{layer}/moves_rolled_back`.
pub fn fm_refine(
    g: &Csr,
    part: &mut [u32],
    bal: &Balance,
    seed_frontier: Option<&[u32]>,
    layer: &'static str,
    trace: &TraceCollector,
) -> FmRefineOutcome {
    let n = g.n();
    assert_eq!(part.len(), n);
    match bal.parts() {
        2 if n > 0 => {
            let model = TwoWay {
                key: vec![(0, 0); n],
            };
            refine(model, g, part, bal, seed_frontier, layer, trace)
        }
        k if k > 2 && n > 0 => {
            let model = KWay {
                k,
                conn: vec![Vec::new(); n],
                key: vec![(0, 0); n],
                best_to: vec![k as u32; n],
                sc: PartScratch::default(),
            };
            refine(model, g, part, bal, seed_frontier, layer, trace)
        }
        _ => FmRefineOutcome::default(),
    }
}

/// How [`fm_refine`] keeps each vertex's best move. Every model stores a
/// vertex's `(gain, ext)` key — the gain of its best-alternative move,
/// which orders the heap, and the weight of its cut edges.
trait GainModel {
    /// Rebuild `u`'s state from its adjacency.
    fn build(&mut self, g: &Csr, part: &[u32], u: usize);
    /// A neighbor of `v`, in part `pv`, moved `from → to` over an edge of
    /// weight `w`.
    fn shift(&mut self, v: usize, pv: u32, from: u32, to: u32, w: u64);
    /// `u`'s `(gain, ext)`.
    fn key(&self, u: usize) -> (i64, u64);
    /// The part `u`, in `from` with weight `vw`, moves to under the target
    /// rule (see [`fm_refine`]), and that move's gain.
    fn target(&self, u: usize, from: u32, vw: u64, wpart: &[u64], bal: &Balance) -> Option<Move>;
}

/// A move target: the destination part and the move's gain.
struct Move {
    to: u32,
    gain: i64,
}

/// Two parts: external minus internal weight.
struct TwoWay {
    key: Vec<(i64, u64)>,
}

impl GainModel for TwoWay {
    fn build(&mut self, g: &Csr, part: &[u32], u: usize) {
        let (mut gain, mut ext) = (0i64, 0u64);
        for (v, w) in g.edges(u as VId) {
            if part[u] == part[v as usize] {
                gain -= w as i64;
            } else {
                gain += w as i64;
                ext += w;
            }
        }
        self.key[u] = (gain, ext);
    }

    fn shift(&mut self, v: usize, pv: u32, from: u32, _: u32, w: u64) {
        // The (u, v) edge changed cut status for v as well.
        let (gain, ext) = &mut self.key[v];
        if pv == from {
            *gain += 2 * w as i64;
            *ext += w;
        } else {
            *gain -= 2 * w as i64;
            *ext -= w;
        }
    }

    fn key(&self, u: usize) -> (i64, u64) {
        self.key[u]
    }

    fn target(&self, u: usize, from: u32, vw: u64, wpart: &[u64], bal: &Balance) -> Option<Move> {
        let to = 1 - from;
        let gain = self.key[u].0;
        (wpart[to as usize] + vw <= bal.loose[to as usize]).then_some(Move { to, gain })
    }
}

/// More than two parts: per-vertex neighbor-part weight maps and the
/// best-alternative target derived from them.
struct KWay {
    k: usize,
    /// `conn[u]` lists `(part, weight)` for every part `u` touches, own
    /// part included; adjusted in O(|conn|) per neighbor move.
    conn: Vec<Vec<(u32, u64)>>,
    key: Vec<(i64, u64)>,
    /// Best-alternative target; `k` is the sentinel for "no external
    /// connectivity".
    best_to: Vec<u32>,
    sc: PartScratch,
}

impl KWay {
    /// Derive `u`'s key and best-alternative target from its map.
    fn refresh(&mut self, u: usize, pu: u32) {
        let (mut own, mut total) = (0u64, 0u64);
        let mut best: Option<(u64, u32)> = None;
        for &(q, w) in &self.conn[u] {
            total += w;
            if q == pu {
                own = w;
            } else if best.is_none_or(|(bw, bq)| w > bw || (w == bw && q < bq)) {
                best = Some((w, q));
            }
        }
        let (wq, q) = best.unwrap_or((0, self.k as u32));
        self.key[u] = (wq as i64 - own as i64, total - own);
        self.best_to[u] = q;
    }
}

impl GainModel for KWay {
    fn build(&mut self, g: &Csr, part: &[u32], u: usize) {
        self.sc.begin(self.k);
        for (v, w) in g.edges(u as VId) {
            self.sc.add(part[v as usize], w);
        }
        let list = &mut self.conn[u];
        list.clear();
        list.extend(self.sc.touched.iter().map(|&q| (q, self.sc.get(q))));
        self.refresh(u, part[u]);
    }

    fn shift(&mut self, v: usize, pv: u32, from: u32, to: u32, w: u64) {
        let list = &mut self.conn[v];
        if let Some(pos) = list.iter().position(|e| e.0 == from) {
            list[pos].1 -= w;
            if list[pos].1 == 0 {
                list.swap_remove(pos);
            }
        }
        match list.iter_mut().find(|e| e.0 == to) {
            Some(e) => e.1 += w,
            None => list.push((to, w)),
        }
        self.refresh(v, pv);
    }

    fn key(&self, u: usize) -> (i64, u64) {
        self.key[u]
    }

    fn target(&self, u: usize, from: u32, vw: u64, wpart: &[u64], bal: &Balance) -> Option<Move> {
        let fits = |q: u32| wpart[q as usize] + vw <= bal.loose[q as usize];
        let (to, gain) = (self.best_to[u], self.key[u].0);
        if (to as usize) < self.k && fits(to) {
            return Some(Move { to, gain });
        }
        let mut own = 0u64;
        let mut best: Option<(u64, u32)> = None;
        for &(q, w) in &self.conn[u] {
            if q == from {
                own = w;
            } else if fits(q) && best.is_none_or(|(bw, bq)| w > bw || (w == bw && q < bq)) {
                best = Some((w, q));
            }
        }
        if let Some((w, to)) = best {
            let gain = w as i64 - own as i64;
            return Some(Move { to, gain });
        }
        if self.key[u].1 > 0 && wpart[from as usize] <= bal.strict[from as usize] {
            return None;
        }
        let gain = -(own as i64);
        (0..self.k as u32)
            .filter(|&q| q != from && fits(q))
            .min_by_key(|&q| wpart[q as usize])
            .map(|to| Move { to, gain })
    }
}

/// The pass loop of [`fm_refine`] over one gain model.
fn refine<M: GainModel>(
    mut model: M,
    g: &Csr,
    part: &mut [u32],
    bal: &Balance,
    seed_frontier: Option<&[u32]>,
    layer: &'static str,
    trace: &TraceCollector,
) -> FmRefineOutcome {
    let n = g.n();
    let (mut wpart, mut counts) = part_loads(g, part, bal.parts());
    // Only vertices with a cut edge (`ext > 0`) are heap-eligible outside
    // repair seeding: moving an interior vertex is pure hill-climbing and
    // re-scans the graph one cascade at a time — the O(n + m) behaviour
    // this refiner exists to avoid.
    //
    // Outside a seeded frontier a vertex's first touch must be a full
    // build, not a shift of an uninitialized key. Once known, a key is
    // kept fresh by the frontier invariant (any neighbor move
    // re-frontiers the vertex).
    let mut known: Vec<bool> = vec![false; n];
    let mut locked: Vec<bool> = vec![false; n];
    // Holds exactly the unlocked move candidates, each at its current gain.
    let mut heap = GainHeap::new(n);
    // stamp[u] == epoch marks membership in the frontier being built for
    // the *next* pass (and dedups the initial seed at epoch 1).
    let mut stamp: Vec<u32> = vec![0; n];
    let mut epoch: u32 = 1;
    let mut frontier: Vec<u32> = Vec::new();
    let mut cut = entry_frontier(g, part, seed_frontier, &mut stamp, epoch, &mut frontier) as i64;
    // The pass's committed `(vertex, previous part)` moves.
    let mut moves: Vec<(u32, u32)> = Vec::new();

    for pass in 0..MAX_PASSES {
        let span = trace.span(|| format!("{layer}/pass{pass}"));
        epoch += 1;
        let mut next: Vec<u32> = Vec::new();
        heap.clear();
        // Only boundary members enter the heap; an interior member keeps
        // its fresh key until a neighbor's move pushes it.
        let mut boundary_size = 0usize;
        for &u in &frontier {
            let ui = u as usize;
            model.build(g, part, ui);
            known[ui] = true;
            locked[ui] = false;
            let (gain, ext) = model.key(ui);
            if ext > 0 {
                heap.upsert(u, gain);
                boundary_size += 1;
                if stamp[ui] != epoch {
                    stamp[ui] = epoch;
                    next.push(u);
                }
            }
        }
        trace.gauge_usize(|| format!("{layer}/boundary_size"), boundary_size);
        if bal.excess(&wpart) > 0 {
            for u in 0..n {
                let p = part[u] as usize;
                if wpart[p] > bal.strict[p] && stamp[u] != epoch {
                    stamp[u] = epoch;
                    next.push(u as u32);
                    model.build(g, part, u);
                    known[u] = true;
                    locked[u] = false;
                    heap.upsert(u as u32, model.key(u).0);
                }
            }
        }

        // The empty prefix is the baseline, so an unbalanced start can
        // also be repaired.
        let mut best_key = (bal.excess(&wpart), cut);
        let mut best_len = 0usize;
        moves.clear();
        // The abort stops a pass from sweeping the cut line across the
        // whole graph only to roll it all back; productive sequences
        // reset the count and keep going.
        let abort_limit = (2 * boundary_size).max(64);
        let mut since_best = 0usize;

        while let Some((_, u)) = heap.pop() {
            let ui = u as usize;
            let from = part[ui];
            let vw = g.vwgt()[ui];
            if counts[from as usize] <= 1 {
                continue;
            }
            // An infeasible vertex waits for a neighbor move to re-admit it.
            let Some(Move { to, gain }) = model.target(ui, from, vw, &wpart, bal) else {
                continue;
            };
            locked[ui] = true;
            part[ui] = to;
            wpart[from as usize] -= vw;
            wpart[to as usize] += vw;
            counts[from as usize] -= 1;
            counts[to as usize] += 1;
            cut -= gain;
            moves.push((u, from));
            if stamp[ui] != epoch {
                stamp[ui] = epoch;
                next.push(u);
            }
            let key = (bal.excess(&wpart), cut);
            if key < best_key {
                best_key = key;
                best_len = moves.len();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= abort_limit {
                    // Safe before this move's neighbor updates: the move
                    // is past the best prefix, so the rollback restores
                    // part[u], and u was stamped into `next` at commit.
                    break;
                }
            }
            // Every neighbor's stored key goes stale when u moves (even a
            // locked one, whose update is skipped), so all of them join
            // the next pass's frontier — this also covers staleness left
            // behind by the end-of-pass rollback.
            for (v, w) in g.edges(u) {
                let vi = v as usize;
                if stamp[vi] != epoch {
                    stamp[vi] = epoch;
                    next.push(v);
                }
                if locked[vi] {
                    continue;
                }
                if known[vi] {
                    model.shift(vi, part[vi], from, to, w);
                } else {
                    // part[u] has already moved, so the build includes it.
                    model.build(g, part, vi);
                    known[vi] = true;
                }
                // A vertex whose last cut edge just disappeared drops out.
                match model.key(vi) {
                    (gain, ext) if ext > 0 => heap.upsert(v, gain),
                    _ => heap.remove(v),
                }
            }
        }
        if trace.is_enabled() {
            trace.counter_add(&format!("{layer}/moves_committed"), moves.len() as u64);
            let rolled_back = (moves.len() - best_len) as u64;
            trace.counter_add(&format!("{layer}/moves_rolled_back"), rolled_back);
        }
        for &(u, from) in moves[best_len..].iter().rev() {
            let ui = u as usize;
            let (to, vw) = (part[ui] as usize, g.vwgt()[ui]);
            part[ui] = from;
            wpart[to] -= vw;
            wpart[from as usize] += vw;
            counts[to] -= 1;
            counts[from as usize] += 1;
        }
        cut = best_key.1;
        debug_assert_eq!(cut, edge_cut(g, part) as i64, "incremental cut drifted");
        span.finish();
        frontier = next;
        // A pass that repaired balance at an equal or higher cut still
        // counts: the next pass can improve the cut from there.
        if best_len == 0 {
            break;
        }
    }
    // By the frontier invariant, the last built frontier covers every
    // vertex that can still have a cut edge.
    frontier.retain(|&u| {
        g.edges(u)
            .any(|(v, _)| part[u as usize] != part[v as usize])
    });
    FmRefineOutcome {
        cut: cut as u64,
        boundary: frontier,
    }
}

/// Seed a refinement frontier and return the entry cut. The frontier is
/// `seed` deduplicated through `stamp` (members are stamped `epoch`), or
/// every vertex when `seed` is `None`.
///
/// A seed must cover every vertex with a cut edge (a superset is fine;
/// debug builds check it). Both endpoints of a cut edge are then in the
/// frontier, so summing external weight over it counts each cut edge
/// exactly twice: with a thin seeded frontier that is the difference
/// between an `O(m)` edge scan and `O(frontier · deg)` per level.
/// Label-agnostic, so every refiner seeds through it.
pub(crate) fn entry_frontier(
    g: &Csr,
    part: &[u32],
    seed: Option<&[u32]>,
    stamp: &mut [u32],
    epoch: u32,
    frontier: &mut Vec<u32>,
) -> u64 {
    let n = g.n();
    frontier.clear();
    frontier.reserve(seed.map_or(n, <[u32]>::len));
    match seed {
        Some(seed) => {
            debug_assert!(
                seed_covers_boundary(g, part, seed),
                "seed frontier misses a boundary vertex"
            );
            for &u in seed {
                let ui = u as usize;
                assert!(ui < n, "seed frontier vertex {u} out of range");
                if stamp[ui] != epoch {
                    stamp[ui] = epoch;
                    frontier.push(u);
                }
            }
        }
        None => {
            for u in 0..n as u32 {
                stamp[u as usize] = epoch;
                frontier.push(u);
            }
        }
    }
    let mut ext_total: u64 = 0;
    for &u in frontier.iter() {
        for (v, w) in g.edges(u) {
            if part[u as usize] != part[v as usize] {
                ext_total += w;
            }
        }
    }
    debug_assert_eq!(ext_total % 2, 0, "frontier missed a cut edge endpoint");
    let cut = ext_total / 2;
    debug_assert_eq!(cut, edge_cut(g, part));
    cut
}

/// Debug-build check that a seed frontier covers the current boundary.
fn seed_covers_boundary(g: &Csr, part: &[u32], seed: &[u32]) -> bool {
    let mut in_seed = vec![false; g.n()];
    for &u in seed {
        if let Some(s) = in_seed.get_mut(u as usize) {
            *s = true;
        }
    }
    (0..g.n()).all(|u| {
        in_seed[u]
            || g.neighbors(u as VId)
                .iter()
                .all(|&v| part[v as usize] == part[u])
    })
}

/// The pre-boundary reference implementation: rebuilds every gain and
/// heap-seeds all `n` vertices on every pass, costing `O(n + m)` per pass.
/// Kept as the baseline for the boundary-equivalence property tests and
/// the `bench_partition` full-scan/boundary comparison; production callers
/// use [`fm_refine`].
pub fn fm_refine_frac_full_scan(g: &Csr, part: &mut [u32], cfg: &FmConfig, frac: f64) -> u64 {
    let n = g.n();
    assert_eq!(part.len(), n);
    let bal = cfg.split(g, frac);
    if n == 0 {
        return 0;
    }

    let mut cut = edge_cut(g, part) as i64;
    let mut wpart = part_loads(g, part, 2).0;

    let mut gain: Vec<i64> = vec![0; n];
    let mut locked: Vec<bool> = vec![false; n];
    let mut heap = GainHeap::new(n);

    for _pass in 0..MAX_PASSES {
        // (Re)compute gains: external minus internal weight.
        for u in 0..n {
            let mut gsum = 0i64;
            for (v, w) in g.edges(u as VId) {
                if part[u] == part[v as usize] {
                    gsum -= w as i64;
                } else {
                    gsum += w as i64;
                }
            }
            gain[u] = gsum;
            locked[u] = false;
        }
        heap.clear();
        for (u, &gu) in gain.iter().enumerate() {
            heap.upsert(u as u32, gu);
        }

        let mut best_key = (bal.excess(&wpart), cut);
        let mut best_len = 0usize;
        let mut moves: Vec<u32> = Vec::new();

        while let Some((_, u)) = heap.pop() {
            let u = u as usize;
            let from = part[u] as usize;
            let to = 1 - from;
            if wpart[to] + g.vwgt()[u] > bal.loose[to] {
                continue; // balance-infeasible right now
            }
            locked[u] = true;
            part[u] = to as u32;
            wpart[from] -= g.vwgt()[u];
            wpart[to] += g.vwgt()[u];
            cut -= gain[u];
            moves.push(u as u32);
            let key = (bal.excess(&wpart), cut);
            if key < best_key {
                best_key = key;
                best_len = moves.len();
            }
            for (v, w) in g.edges(u as VId) {
                let v = v as usize;
                if locked[v] {
                    continue;
                }
                if part[v] as usize == from {
                    gain[v] += 2 * w as i64;
                } else {
                    gain[v] -= 2 * w as i64;
                }
                heap.upsert(v as u32, gain[v]);
            }
        }
        for &u in &moves[best_len..] {
            let u = u as usize;
            let from = part[u] as usize;
            let to = 1 - from;
            part[u] = to as u32;
            wpart[from] -= g.vwgt()[u];
            wpart[to] += g.vwgt()[u];
        }
        cut = best_key.1;
        debug_assert_eq!(cut, edge_cut(g, part) as i64, "incremental cut drifted");
        if best_len == 0 {
            break; // no progress: neither cut nor balance improved
        }
    }
    cut as u64
}

/// Full-scan counterpart of [`fm_uncoarsen_frac_traced`] under the serial
/// policy: the identical multilevel driver, but every level refines with
/// [`fm_refine_frac_full_scan`] (gains rebuilt and the heap re-seeded
/// over all `n` vertices each pass). Kept as the measurement baseline
/// for the boundary-driven refiner — `bench_partition` and the
/// equivalence property tests compare against it on the same hierarchy
/// and seed.
pub fn fm_uncoarsen_frac_full_scan(
    h: &Hierarchy,
    cfg: &FmConfig,
    frac: f64,
    seed: u64,
) -> (Vec<u32>, u64) {
    let coarse_cfg = cfg.with_vertex_slack();
    let coarsest = h.coarsest();
    let mut part = crate::ggg::greedy_graph_growing_frac(coarsest, seed, frac);
    let mut cut = fm_refine_frac_full_scan(coarsest, &mut part, &coarse_cfg, frac);
    if h.num_levels() == 0 {
        cut = fm_refine_frac_full_scan(coarsest, &mut part, cfg, frac);
    }
    for level in (0..h.num_levels()).rev() {
        part = h.interpolate_level(level, &part);
        let level_cfg = if level == 0 { cfg } else { &coarse_cfg };
        cut = fm_refine_frac_full_scan(h.graph_above(level), &mut part, level_cfg, frac);
    }
    (part, cut)
}

/// Multilevel bisection with parallel coarsening, greedy-graph-growing
/// initial partitioning, and sequential FM refinement at every level —
/// the paper's Table VI partitioner.
///
/// ```
/// use mlcg_partition::{fm_bisect, FmConfig};
/// use mlcg_coarsen::CoarsenOptions;
/// use mlcg_par::ExecPolicy;
///
/// let g = mlcg_graph::generators::grid2d(16, 8);
/// let r = fm_bisect(&ExecPolicy::host(), &g, &CoarsenOptions::default(),
///                   &FmConfig::default(), 42);
/// assert!(r.cut >= 8);             // optimal balanced cut of a 16x8 grid
/// assert!(r.imbalance <= 1.05);
/// ```
pub fn fm_bisect(
    policy: &ExecPolicy,
    g: &Csr,
    coarsen_opts: &CoarsenOptions,
    cfg: &FmConfig,
    seed: u64,
) -> PartitionResult {
    fm_bisect_frac(policy, g, coarsen_opts, cfg, 0.5, seed)
}

/// [`fm_bisect`] with part 0 targeting `frac` of the vertex weight
/// (recursive k-way partitioning uses 3:2-style splits for odd k).
pub fn fm_bisect_frac(
    policy: &ExecPolicy,
    g: &Csr,
    coarsen_opts: &CoarsenOptions,
    cfg: &FmConfig,
    frac: f64,
    seed: u64,
) -> PartitionResult {
    let trace = coarsen_opts.trace.clone();
    let span = trace.timed_span(|| "partition/fm/coarsen".to_string());
    let h = coarsen(policy, g, coarsen_opts);
    let coarsen_seconds = span.finish();
    let span = trace.timed_span(|| "partition/fm/refine".to_string());
    let part = fm_uncoarsen_frac_traced(policy, &h, cfg, frac, seed, &trace);
    let refine_seconds = span.finish();
    // Allowed imbalance on the finest level: the target share plus the
    // epsilon slack and at most one vertex of rounding, relative to total/2.
    let total = g.total_vwgt().max(1) as f64;
    let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1) as f64;
    let cap = 2.0 * frac.max(1.0 - frac) * (1.0 + cfg.epsilon) + 2.0 * max_vwgt / total + 1e-9;
    audit_partition(&trace, "partition/fm", g, &part, cap);
    PartitionResult::new(g, part, coarsen_seconds, refine_seconds, h.num_levels())
        .with_trace(trace.report())
}

/// The uncoarsening half: initial partition on the coarsest graph (part 0
/// targeting `frac` of the vertex weight), then project + FM-refine level
/// by level, with an execution policy and a trace sink threaded into every
/// per-level refinement. Under the serial policy this is the pure
/// sequential boundary-driven path.
///
/// Delegates to [`fm_uncoarsen_frac_hybrid`] with the default crossover,
/// so coarse levels whose projected frontier crosses the threshold refine
/// with parallel rounds before the sequential boundary pass.
pub fn fm_uncoarsen_frac_traced(
    policy: &ExecPolicy,
    h: &Hierarchy,
    cfg: &FmConfig,
    frac: f64,
    seed: u64,
    trace: &TraceCollector,
) -> Vec<u32> {
    fm_uncoarsen_frac_hybrid(policy, h, cfg, None, frac, seed, trace)
}

/// The hybrid uncoarsening driver: initial partition on the coarsest
/// graph, then project + refine level by level, choosing the refiner per
/// level with a crossover heuristic.
///
/// The coarsest level refines from a full scan; every finer level seeds
/// its frontier by projecting the coarser level's final boundary (a fine
/// vertex can be on the boundary only if its aggregate is), so per-level
/// refinement cost tracks the boundary, not the graph. Every level but the
/// finest refines with [`FmConfig::vertex_slack`]; the finest tightens to
/// `cfg`. A hierarchy with no levels has no finest level to tighten on,
/// so its coarsest graph — the input itself — gets one more refinement
/// under `cfg`, seeded from the slack refinement's boundary.
///
/// Each finer level is one [`rounds_then_polish`] step at the crossover
/// `crossover` or, when `None`, [`default_crossover`]: parallel rounds,
/// then the sequential boundary FM, once the projected frontier reaches
/// it under a parallel policy, and the sequential FM alone below it —
/// always on the finest levels, where the boundary is thin. One
/// [`ParRefWorkspace`] serves every level.
pub fn fm_uncoarsen_frac_hybrid(
    policy: &ExecPolicy,
    h: &Hierarchy,
    cfg: &FmConfig,
    crossover: Option<usize>,
    frac: f64,
    seed: u64,
    trace: &TraceCollector,
) -> Vec<u32> {
    let _mem = trace.heap_scope(|| "fm".to_string());
    let coarse_cfg = cfg.with_vertex_slack();
    let coarsest = h.coarsest();
    let mut part = crate::ggg::greedy_graph_growing_frac(coarsest, seed, frac);
    let bal = coarse_cfg.split(coarsest, frac);
    let mut outcome = fm_refine(coarsest, &mut part, &bal, None, "fm", trace);
    if h.num_levels() == 0 {
        let bal = cfg.split(coarsest, frac);
        fm_refine(
            coarsest,
            &mut part,
            &bal,
            Some(&outcome.boundary),
            "fm",
            trace,
        );
    }
    let crossover = crossover.unwrap_or_else(|| default_crossover(policy));
    let mut ws = ParRefWorkspace::new();
    for level in (0..h.num_levels()).rev() {
        part = h.interpolate_level(level, &part);
        let frontier = h.project_frontier_ids(level, &outcome.boundary);
        let g = h.graph_above(level);
        let level_cfg = if level == 0 { cfg } else { &coarse_cfg };
        outcome = rounds_then_polish(
            policy,
            g,
            &mut part,
            &level_cfg.split(g, frac),
            crossover,
            Some(&frontier),
            &mut ws,
            ("parref", "fm"),
            trace,
        );
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;
    use mlcg_graph::metrics::{imbalance, part_weights};
    use mlcg_par::rng::Xoshiro256pp;

    #[test]
    fn fm_never_worsens_and_greatly_improves_alternating_path() {
        let g = gen::path(20);
        // Worst-case alternating partition (cut 19). Flat FM is a local
        // heuristic, so it need not reach the optimum of 1 from an
        // adversarial start — but it must improve drastically and stay
        // balanced.
        let mut part: Vec<u32> = (0..20).map(|i| i % 2).collect();
        let before = edge_cut(&g, &part);
        let trace = TraceCollector::disabled();
        let bal = FmConfig::default().split(&g, 0.5);
        let after = fm_refine(&g, &mut part, &bal, None, "fm", &trace).cut;
        assert!(after <= before);
        assert_eq!(after, edge_cut(&g, &part));
        assert!(after <= 5, "cut {after} after refinement of {before}");
        let (w0, w1) = part_weights(&g, &part);
        assert_eq!(w0, w1);
    }

    #[test]
    fn multilevel_fm_finds_the_optimal_path_cut() {
        // The multilevel driver escapes flat FM's local optima: a balanced
        // path bisection cuts exactly one edge.
        let g = gen::path(64);
        let r = fm_bisect(
            &ExecPolicy::serial(),
            &g,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            11,
        );
        assert_eq!(r.cut, 1);
        let (w0, w1) = part_weights(&g, &r.part);
        assert_eq!(w0, w1);
    }

    #[test]
    fn balance_repair_pass_does_not_terminate_refinement() {
        // Regression for the pass-termination bug: the old loop broke
        // whenever a pass failed to strictly reduce the cut, even when the
        // pass had just repaired balance — freezing the cut at its
        // pre-repair value. From the unbalanced start [0,1,1,1,1,0] on a
        // 6-path, pass 1 repairs 2:4 to 3:3 at the unchanged cut of 2;
        // only a second pass can slide the boundary to the optimal cut 1.
        let g = gen::path(6);
        let mut part = vec![0, 1, 1, 1, 1, 0];
        let trace = TraceCollector::enabled();
        let bal = Balance::split(&g, 0.0, false, 0.5);
        let cut = fm_refine(&g, &mut part, &bal, None, "fm", &trace).cut;
        let (w0, w1) = part_weights(&g, &part);
        assert_eq!((w0, w1), (3, 3), "balance repaired");
        assert_eq!(cut, 1, "second pass reaches the optimal path cut");
        let report = trace.report();
        assert!(
            report.spans.iter().any(|s| s.path == "fm/pass1"),
            "refinement stopped after the repairing pass"
        );
    }

    #[test]
    fn bisection_never_empties_a_side() {
        // Vertex slack lets either side take both vertices of a 2-path,
        // and emptying a side would remove the one cut edge; the count
        // guard forbids it.
        let g = gen::path(2);
        let mut part = vec![0, 1];
        let bal = Balance::split(&g, 0.02, true, 0.5);
        let cut = fm_refine(&g, &mut part, &bal, None, "fm", &TraceCollector::disabled()).cut;
        assert_eq!(part, [0, 1], "a side was emptied");
        assert_eq!(cut, 1);
    }

    #[test]
    fn level_less_bisections_meet_the_strict_cap() {
        // Graphs at or below the coarsening cutoff have no level 0 to
        // tighten the slack balance on; the driver must still end inside
        // the caller's strict caps.
        let mut graphs = Vec::new();
        for n in [10usize, 11, 17, 30, 50] {
            graphs.push(gen::path(n));
            graphs.push(gen::cycle(n));
            graphs.push(gen::star(n));
        }
        for n in [10usize, 11, 20] {
            graphs.push(gen::complete(n));
        }
        let cfg = FmConfig::default();
        for g in &graphs {
            for seed in 0..5 {
                let r = fm_bisect(
                    &ExecPolicy::serial(),
                    g,
                    &CoarsenOptions::default(),
                    &cfg,
                    seed,
                );
                assert_eq!(r.levels, 0, "n = {} coarsened", g.n());
                let (w0, w1) = part_weights(g, &r.part);
                let bal = cfg.split(g, 0.5);
                assert_eq!(
                    bal.excess(&[w0, w1]),
                    0,
                    "n = {} seed {seed}: sides {w0}/{w1} exceed {:?}",
                    g.n(),
                    bal.strict
                );
            }
        }
    }

    #[test]
    fn fm_respects_balance_limit() {
        let g = gen::complete(10);
        // FM would love to move everything to one side (cut -> 0); the
        // balance limit must prevent it.
        let mut part: Vec<u32> = (0..10).map(|i| u32::from(i >= 5)).collect();
        let bal = Balance::split(&g, 0.0, false, 0.5);
        fm_refine(&g, &mut part, &bal, None, "fm", &TraceCollector::disabled());
        let (w0, w1) = part_weights(&g, &part);
        assert_eq!(
            w0.max(w1),
            5,
            "epsilon 0 forbids any imbalance on even totals"
        );
    }

    #[test]
    fn fm_improves_random_partitions_on_grid() {
        let g = gen::grid2d(16, 8);
        let mut rng = Xoshiro256pp::new(3);
        let mut part: Vec<u32> = (0..g.n()).map(|_| rng.next_below(2) as u32).collect();
        // Make it balanced first (random may be off by a few).
        let ones: i64 = part.iter().map(|&p| p as i64).sum::<i64>()
            - (g.n() as i64 - part.iter().map(|&p| p as i64).sum::<i64>());
        let mut excess = ones / 2;
        for p in part.iter_mut() {
            if excess > 0 && *p == 1 {
                *p = 0;
                excess -= 1;
            } else if excess < 0 && *p == 0 {
                *p = 1;
                excess += 1;
            }
        }
        let before = edge_cut(&g, &part);
        let trace = TraceCollector::disabled();
        let bal = FmConfig::default().split(&g, 0.5);
        let after = fm_refine(&g, &mut part, &bal, None, "fm", &trace).cut;
        assert!(
            after < before / 2,
            "FM should drastically improve random cuts: {before} -> {after}"
        );
    }

    #[test]
    fn fm_bisect_grid_quality() {
        // A 16x8 grid's optimal balanced bisection cuts 8 edges.
        let g = gen::grid2d(16, 8);
        let r = fm_bisect(
            &ExecPolicy::serial(),
            &g,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            7,
        );
        assert!(r.cut <= 16, "grid cut {} far from optimal 8", r.cut);
        assert!(r.imbalance <= 1.05, "imbalance {}", r.imbalance);
        assert_eq!(r.cut, edge_cut(&g, &r.part));
    }

    #[test]
    fn fm_bisect_separates_barbell() {
        // Two cliques joined by one edge: the optimal cut is 1.
        let mut edges = Vec::new();
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                edges.push((i, j));
                edges.push((i + 10, j + 10));
            }
        }
        edges.push((0, 10));
        let g = mlcg_graph::builder::from_edges_unit(20, &edges);
        let r = fm_bisect(
            &ExecPolicy::serial(),
            &g,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            3,
        );
        assert_eq!(r.cut, 1, "FM must find the barbell bridge");
        assert!((imbalance(&g, &r.part) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fm_handles_weighted_coarse_vertices() {
        let mut g = gen::path(6);
        g.set_vwgt(vec![5, 1, 1, 1, 1, 5]);
        let mut part = vec![0, 0, 0, 1, 1, 1];
        let bal = Balance::split(&g, 0.1, false, 0.5);
        let cut = fm_refine(&g, &mut part, &bal, None, "fm", &TraceCollector::disabled()).cut;
        assert_eq!(cut, edge_cut(&g, &part));
        let (w0, w1) = part_weights(&g, &part);
        assert!(w0.max(w1) <= 8, "weights {w0}/{w1} exceed the 10% slack");
    }
}
