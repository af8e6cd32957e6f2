//! The frontier round engine: parallel boundary refinement for any number
//! of parts — the paper's "fully parallel partitioning with FM-based
//! refinement" future-work direction.
//!
//! Coarse-grained rounds in the spirit of mt-Metis, made *frontier-based*:
//! a round scans only the current frontier — seeded from the projected
//! coarse boundary during uncoarsening (or every vertex), then maintained
//! incrementally (boundary members stay, movers and their neighbors join)
//! — so a round costs `O(frontier + moved · deg)`, not `O(n + m)`. All
//! per-vertex scratch lives in a [`ParRefWorkspace`] reused across rounds
//! *and* levels; the round loop allocates nothing proportional to `n`.
//!
//! One driver, [`rounds_then_polish`], runs the engine and then polishes
//! with the sequential boundary FM ([`crate::fm::fm_refine`]) from the
//! rounds' final frontier, mirroring how production partitioners combine
//! the two. It serves two callers under their own trace, gauge and kernel
//! names: bisection (`parref/*` rounds and an `fm/*` polish, on every
//! hybrid uncoarsening level and in the spectral FM polish) and the k-way
//! post-pass [`crate::kwayref::kway_direct_refine`] (`kwayref/*`).
//!
//! # Round structure and determinism
//!
//! Rounds alternate a *parity class*: even rounds admit only moves with
//! `from < to`, odd rounds only `from > to` (for a bisection, side 0 → 1
//! then 1 → 0), so two neighbors can never swap labels inside one round.
//! Each round is three phases:
//!
//! 1. a parallel **gain** dispatch over the frontier finds each vertex's
//!    best parity-admissible target against the round-start partition
//!    (`part` is read-only for the whole dispatch). With `w(u, q)` the
//!    weight of `u`'s edges into part `q`, a vertex in part `p` has
//!    `gain(u) = max_{q≠p} w(u, q) − w(u, p)`; for k = 2 that is external
//!    minus internal weight, read directly, while k > 2 accumulates a
//!    compact per-vertex neighbor-part weight map;
//! 2. a **sequential claim** scan admits the positive-gain candidates in
//!    frontier order while their target stays under its loose cap, so the
//!    mover set is a pure function of (graph, partition, round) and the
//!    engine is bit-identical across execution policies;
//! 3. a parallel **apply** dispatch prices the movers against the still
//!    untouched round-start labels — their gains plus the interference
//!    correction — and the movers flip while the next frontier is built.
//!
//! # Interference algebra
//!
//! Simultaneous movers interfere only along mover–mover edges. For an edge
//! `(u, v)` of weight `w` with both endpoints moving (`p → t` labels per
//! endpoint), the correction to `new_cut = cut − Σ gain + corr` is
//!
//! ```text
//! corr(u, v) = w · ([tu≠tv] + [pu≠pv] − [tu≠pv] − [pu≠tv])
//! ```
//!
//! For bisection (`pu = pv`, `tu = tv`) this reduces to `−2w` per internal
//! mover edge: both endpoint gains counted the edge as internal while it
//! stays uncut, so same-direction movers can only do better than their
//! predictions and a bisection round never worsens the cut. With `k > 2`
//! the correction can be *positive* (e.g. `a→b` adjacent to `b→c`), so the
//! wholesale round rollback is a real path. The apply dispatch sums the
//! ordered-pair terms (each unordered edge contributes twice — the
//! expression is symmetric in `u` and `v`) and halves the total. No
//! `edge_cut` recount happens in the round loop (debug builds assert the
//! tracked cut against one).
//!
//! # Balance, repair and rollback
//!
//! The caller's [`Balance`] gives every part a strict and a loose cap;
//! claims may wander up to the loose cap, one max-vertex past the strict
//! one, so perfectly balanced partitions can trade. A sequential repair
//! then moves best-gain vertices off over-strict parts until the excess is
//! back to its entry value — so a feasible entry ends inside the envelope,
//! while pre-existing infeasibility is left for the sequential FM that
//! follows (its best-prefix selection repairs balance while jointly
//! optimizing the cut, which greedy excess reduction on a dense graph
//! cannot). The whole refinement rolls back to its entry state — replaying
//! the move log in reverse — if it would end lexicographically worse in
//! `(excess, cut)` than the entry partition. A per-part vertex count guards
//! every move, so no part is ever emptied.

use crate::fm::{entry_frontier, fm_refine, Balance, FmRefineOutcome};
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{Csr, VId};
use mlcg_par::exec::HOST_GRAIN;
use mlcg_par::{parallel_for, profile, Backend, ExecPolicy, TraceCollector};
use std::cell::RefCell;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Maximum parity-alternating rounds per refinement.
const MAX_ROUNDS: usize = 12;

/// The frontier size at which refinement under `policy` runs parallel
/// rounds before the sequential FM: `HOST_GRAIN × workers`. A smaller
/// frontier cannot amortize waking the pool (see the dispatch-latency
/// findings in DESIGN §8).
pub fn default_crossover(policy: &ExecPolicy) -> usize {
    HOST_GRAIN.saturating_mul(policy.threads.max(1))
}

/// Compact per-part weight map, epoch-stamped so clearing between
/// vertices costs O(parts touched), not O(k).
#[derive(Default)]
pub(crate) struct PartScratch {
    wt: Vec<u64>,
    stamp: Vec<u32>,
    pub(crate) touched: Vec<u32>,
    epoch: u32,
}

impl PartScratch {
    pub(crate) fn begin(&mut self, k: usize) {
        if self.wt.len() < k {
            self.wt.resize(k, 0);
            self.stamp.resize(k, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    pub(crate) fn add(&mut self, p: u32, w: u64) {
        let pi = p as usize;
        if self.stamp[pi] != self.epoch {
            self.stamp[pi] = self.epoch;
            self.wt[pi] = 0;
            self.touched.push(p);
        }
        self.wt[pi] += w;
    }

    pub(crate) fn get(&self, p: u32) -> u64 {
        let pi = p as usize;
        if self.stamp[pi] == self.epoch {
            self.wt[pi]
        } else {
            0
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<PartScratch> = RefCell::new(PartScratch::default());
}

/// Per-part vertex weights and vertex counts of a labeling in `0..k`.
pub(crate) fn part_loads(g: &Csr, part: &[u32], k: usize) -> (Vec<u64>, Vec<usize>) {
    let mut wpart = vec![0u64; k];
    let mut counts = vec![0usize; k];
    for (u, &p) in part.iter().enumerate() {
        assert!((p as usize) < k, "label {p} out of range for k={k}");
        wpart[p as usize] += g.vwgt()[u];
        counts[p as usize] += 1;
    }
    (wpart, counts)
}

/// Reusable per-vertex scratch for [`parallel_refine_rounds`], carried
/// across rounds and across uncoarsening levels so the round loop never
/// allocates `O(n)`.
///
/// All stamps are epoch-based: bumping an epoch invalidates every mark
/// without touching memory (arrays are wiped only on the ~never-taken
/// `u32` epoch wraparound).
#[derive(Default)]
pub struct ParRefWorkspace {
    /// `moved_stamp[u] == round_epoch` marks `u` as a mover this round;
    /// written only by the sequential claim, read by the apply dispatch.
    moved_stamp: Vec<u32>,
    /// Target label of `u` while it is a candidate or mover this round,
    /// written by the gain dispatch (one frontier slot per vertex).
    target: Vec<AtomicU32>,
    /// `dedup_stamp[u] == dedup_epoch` marks membership in `frontier`.
    dedup_stamp: Vec<u32>,
    /// Per-frontier-index round verdict: 0 drop (interior), 1 keep
    /// (boundary), 2 mover, 3 candidate awaiting the claim. Sized to the
    /// frontier, not the graph.
    code: Vec<AtomicU8>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Every committed `(vertex, previous label)` in order (rounds and
    /// repair); replaying in reverse restores the entry partition exactly.
    move_log: Vec<(u32, u32)>,
    round_epoch: u32,
    dedup_epoch: u32,
}

impl ParRefWorkspace {
    /// An empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the per-vertex arrays to cover `n` vertices (epochs persist,
    /// so previously stamped entries stay invalidated).
    fn ensure(&mut self, n: usize) {
        if self.moved_stamp.len() < n {
            self.moved_stamp.resize(n, 0);
            self.target.resize_with(n, AtomicU32::default);
            self.dedup_stamp.resize(n, 0);
        }
    }

    fn bump_round(&mut self) -> u32 {
        if self.round_epoch == u32::MAX {
            self.moved_stamp.fill(0);
            self.round_epoch = 0;
        }
        self.round_epoch += 1;
        self.round_epoch
    }

    fn bump_dedup(&mut self) -> u32 {
        if self.dedup_epoch == u32::MAX {
            self.dedup_stamp.fill(0);
            self.dedup_epoch = 0;
        }
        self.dedup_epoch += 1;
        self.dedup_epoch
    }
}

/// Outcome of one frontier-based parallel refinement at a fixed level.
#[derive(Clone, Debug)]
pub struct ParRefOutcome {
    /// Final weighted edge cut (incrementally tracked; equals
    /// `edge_cut(g, part)`).
    pub cut: u64,
    /// Final frontier: a superset of the boundary, valid as a
    /// `seed_frontier` for the sequential FM polish or for projection one
    /// level down.
    pub frontier: Vec<u32>,
}

/// Frontier-based parallel refinement rounds at a fixed level, for
/// `bal.parts() ≥ 2` labels — the engine behind [`rounds_then_polish`].
///
/// `part` must hold labels in `0..bal.parts()`. `seed_frontier`, when
/// given, must cover every vertex with a cut edge (a superset is fine);
/// `None` seeds all of `0..n`. The loop hands off to the caller's
/// sequential polish once a rebuilt frontier drops below `handoff` (`0`
/// runs the rounds to convergence). Each round emits a
/// `{layer}/frontier_size` gauge and bumps the `{layer}/rounds` counter
/// (`{layer}/round_rollbacks` when interference undoes a round); the
/// dispatches are profiled as `par_for/{layer}/gain` and
/// `par_for/{layer}/apply`.
#[allow(clippy::too_many_arguments)]
pub fn parallel_refine_rounds(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    bal: &Balance,
    handoff: usize,
    seed_frontier: Option<&[u32]>,
    ws: &mut ParRefWorkspace,
    layer: &'static str,
    trace: &TraceCollector,
) -> ParRefOutcome {
    let n = g.n();
    let k = bal.parts();
    assert_eq!(part.len(), n);
    if n == 0 || k < 2 {
        return ParRefOutcome {
            cut: 0,
            frontier: Vec::new(),
        };
    }
    let _kernel = profile::kernel(layer);
    let count = |what: &str| {
        if trace.is_enabled() {
            trace.counter_add(&format!("{layer}/{what}"), 1);
        }
    };
    let (mut wpart, mut counts) = part_loads(g, part, k);

    ws.ensure(n);
    ws.move_log.clear();
    let epoch = ws.bump_dedup();
    // The only cut derivation in the function — the round loop maintains
    // it incrementally.
    let mut cut = entry_frontier(
        g,
        part,
        seed_frontier,
        &mut ws.dedup_stamp,
        epoch,
        &mut ws.frontier,
    );
    let entry_key = (bal.excess(&wpart), cut);

    let mut empty_streak = 0usize;
    for round in 0..MAX_ROUNDS {
        let flen = ws.frontier.len();
        if flen == 0 {
            break;
        }
        // Dynamic crossover: a frontier this small no longer pays for a
        // round — leave the residue to the caller's sequential polish.
        if round > 0 && flen < handoff {
            break;
        }
        trace.gauge_usize(|| format!("{layer}/frontier_size"), flen);
        count("rounds");
        let epoch = ws.bump_round();
        if ws.code.len() < flen {
            ws.code.resize_with(flen, AtomicU8::default);
        }
        let upward = round % 2 == 0;
        let ext_sum = AtomicU64::new(0);
        {
            // Phase 1: parallel gain pass against the round-start labels.
            let _k = profile::kernel("gain");
            let (frontier, code, target) = (&ws.frontier, &ws.code, &ws.target);
            let part_ro: &[u32] = part;
            parallel_for(policy, flen, |i| {
                let u = frontier[i] as usize;
                let (extw, best) = best_move(g, part_ro, u, k, upward);
                if cfg!(debug_assertions) {
                    ext_sum.fetch_add(extw, Ordering::Relaxed);
                }
                let verdict = match best {
                    Some(q) => {
                        target[u].store(q, Ordering::Relaxed);
                        3
                    }
                    None => u8::from(extw > 0),
                };
                code[i].store(verdict, Ordering::Relaxed);
            });
        }
        // The frontier-covers-boundary invariant makes the summed external
        // weight exactly twice the tracked cut, every round.
        debug_assert_eq!(
            ext_sum.load(Ordering::Relaxed),
            2 * cut,
            "frontier no longer covers the boundary"
        );

        // Phase 2: sequential claim in frontier order against live part
        // weights; the count guard keeps every part non-empty.
        let mut movers = 0usize;
        for i in 0..flen {
            if ws.code[i].load(Ordering::Relaxed) != 3 {
                continue;
            }
            let u = ws.frontier[i] as usize;
            let from = part[u] as usize;
            let to = ws.target[u].load(Ordering::Relaxed) as usize;
            let vw = g.vwgt()[u];
            if counts[from] <= 1 || wpart[to] + vw > bal.loose[to] {
                ws.code[i].store(1, Ordering::Relaxed);
                continue;
            }
            wpart[from] -= vw;
            wpart[to] += vw;
            counts[from] -= 1;
            counts[to] += 1;
            ws.moved_stamp[u] = epoch;
            ws.code[i].store(2, Ordering::Relaxed);
            movers += 1;
        }
        if movers == 0 {
            rebuild_frontier(g, part, ws, flen, false);
            empty_streak += 1;
            if empty_streak >= 2 {
                break; // neither parity class has admissible moves left
            }
            continue;
        }
        empty_streak = 0;

        // Phase 3: parallel pricing of the movers. `part` still holds the
        // round-start labels, so each mover's gain and its interference
        // terms over ordered mover–mover pairs (each unordered edge
        // contributes twice; halved below) read a stable partition.
        let gain_sum = AtomicI64::new(0);
        let corr = AtomicI64::new(0);
        {
            let _k = profile::kernel("apply");
            let (frontier, code, target) = (&ws.frontier, &ws.code, &ws.target);
            let moved: &[u32] = &ws.moved_stamp;
            let part_ro: &[u32] = part;
            parallel_for(policy, flen, |i| {
                if code[i].load(Ordering::Relaxed) != 2 {
                    return;
                }
                let u = frontier[i] as usize;
                let (pu, tu) = (part_ro[u], target[u].load(Ordering::Relaxed));
                let (mut gain, mut s) = (0i64, 0i64);
                for (v, w) in g.edges(u as VId) {
                    let vi = v as usize;
                    let pv = part_ro[vi];
                    if pv == tu {
                        gain += w as i64;
                    } else if pv == pu {
                        gain -= w as i64;
                    }
                    if moved[vi] == epoch {
                        let tv = target[vi].load(Ordering::Relaxed);
                        let d = i64::from(tu != tv) + i64::from(pu != pv)
                            - i64::from(tu != pv)
                            - i64::from(pu != tv);
                        s += w as i64 * d;
                    }
                }
                gain_sum.fetch_add(gain, Ordering::Relaxed);
                if s != 0 {
                    corr.fetch_add(s, Ordering::Relaxed);
                }
            });
        }
        let corr2 = corr.load(Ordering::Relaxed);
        debug_assert_eq!(corr2.rem_euclid(2), 0, "unpaired interference term");
        let new_cut = cut as i64 - gain_sum.load(Ordering::Relaxed) + corr2 / 2;
        if new_cut < 0 || new_cut as u64 > cut {
            // Positive interference (move chains like a→b next to b→c)
            // made the round a net loss. No label has flipped yet: return
            // the claimed weight and keep the movers as frontier members.
            for i in 0..flen {
                if ws.code[i].load(Ordering::Relaxed) == 2 {
                    let u = ws.frontier[i] as usize;
                    let (from, to) = (part[u] as usize, ws.target[u].load(Ordering::Relaxed));
                    let vw = g.vwgt()[u];
                    wpart[from] += vw;
                    wpart[to as usize] -= vw;
                    counts[from] += 1;
                    counts[to as usize] -= 1;
                }
            }
            count("round_rollbacks");
            rebuild_frontier(g, part, ws, flen, false);
            break;
        }
        cut = new_cut as u64;
        rebuild_frontier(g, part, ws, flen, true);
        debug_assert_eq!(cut, edge_cut(g, part), "incremental cut drifted");
    }

    // Balance repair to the entry excess (see the module docs): a feasible
    // entry must leave inside the envelope, while pre-existing
    // infeasibility is left for the sequential polish.
    if bal.excess(&wpart) > entry_key.0 {
        repair_balance(
            g,
            part,
            &mut wpart,
            &mut counts,
            bal,
            entry_key.0,
            &mut cut,
            ws,
        );
    }
    // Repair moves can raise the cut; if the end state is lexicographically
    // worse than the entry in (excess, cut), undo everything — replaying
    // the move log restores the entry partition exactly.
    if (bal.excess(&wpart), cut) > entry_key {
        for &(u, from) in ws.move_log.iter().rev() {
            part[u as usize] = from;
        }
        let epoch = ws.bump_dedup();
        cut = entry_frontier(
            g,
            part,
            seed_frontier,
            &mut ws.dedup_stamp,
            epoch,
            &mut ws.frontier,
        );
    }
    debug_assert_eq!(cut, edge_cut(g, part), "final cut drifted");
    ParRefOutcome {
        cut,
        frontier: ws.frontier.clone(),
    }
}

/// External weight of `u` and its best parity-admissible move target
/// (`upward`: a higher label), if that move has a positive gain.
fn best_move(g: &Csr, part: &[u32], u: usize, k: usize, upward: bool) -> (u64, Option<u32>) {
    let pu = part[u];
    if k == 2 {
        // Two parts: own and external weight directly, no part map.
        let (mut own, mut ext) = (0u64, 0u64);
        for (v, w) in g.edges(u as VId) {
            if part[v as usize] == pu {
                own += w;
            } else {
                ext += w;
            }
        }
        let admissible = (pu == 0) == upward;
        return (ext, (admissible && ext > own).then_some(1 - pu));
    }
    SCRATCH.with(|sc| {
        let mut sc = sc.borrow_mut();
        sc.begin(k);
        let mut ext = 0u64;
        for (v, w) in g.edges(u as VId) {
            let pv = part[v as usize];
            sc.add(pv, w);
            if pv != pu {
                ext += w;
            }
        }
        if ext == 0 {
            return (0, None);
        }
        let own = sc.get(pu);
        let mut best: Option<(u64, u32)> = None;
        for &q in &sc.touched {
            let admissible = if upward { pu < q } else { q < pu };
            if !admissible {
                continue;
            }
            let wq = sc.get(q);
            if best.is_none_or(|(bw, bq)| wq > bw || (wq == bw && q < bq)) {
                best = Some((wq, q));
            }
        }
        (ext, best.filter(|&(wq, _)| wq > own).map(|(_, q)| q))
    })
}

/// Build the next frontier in `O(frontier + moved · deg)`: boundary
/// members stay, movers stay, and when the round was `applied` each mover
/// flips to its target, joins the move log with its source label, and
/// brings its neighbors in. Dropped members are interior vertices not
/// adjacent to any mover, whose external weight cannot have changed.
fn rebuild_frontier(
    g: &Csr,
    part: &mut [u32],
    ws: &mut ParRefWorkspace,
    flen: usize,
    applied: bool,
) {
    let epoch = ws.bump_dedup();
    let ParRefWorkspace {
        frontier,
        next,
        dedup_stamp,
        code,
        target,
        move_log,
        ..
    } = ws;
    next.clear();
    for i in 0..flen {
        let u = frontier[i];
        let c = code[i].load(Ordering::Relaxed);
        if c == 0 {
            continue;
        }
        if dedup_stamp[u as usize] != epoch {
            dedup_stamp[u as usize] = epoch;
            next.push(u);
        }
        if c == 2 && applied {
            move_log.push((u, part[u as usize]));
            part[u as usize] = target[u as usize].load(Ordering::Relaxed);
            for (v, _) in g.edges(u) {
                if dedup_stamp[v as usize] != epoch {
                    dedup_stamp[v as usize] = epoch;
                    next.push(v);
                }
            }
        }
    }
    std::mem::swap(frontier, next);
}

/// Sequential greedy balance repair: while the total excess exceeds
/// `target_excess`, move the best-gain vertex off an over-limit part into
/// a target that strictly reduces the excess. Candidates come from the
/// frontier first (it contains the movers that caused any overshoot); a
/// full scan is the fallback for degenerate entries whose over-limit parts
/// have no frontier vertex. Every move is logged and the frontier is
/// extended to keep covering the boundary.
#[allow(clippy::too_many_arguments)]
fn repair_balance(
    g: &Csr,
    part: &mut [u32],
    wpart: &mut [u64],
    counts: &mut [usize],
    bal: &Balance,
    target_excess: u64,
    cut: &mut u64,
    ws: &mut ParRefWorkspace,
) {
    let k = bal.parts();
    let mut sc = PartScratch::default();
    loop {
        let excess = bal.excess(wpart);
        if excess <= target_excess {
            return;
        }
        let mut best: Option<(i64, u32, u32)> = None;
        let mut scan = |candidates: &mut dyn Iterator<Item = u32>,
                        best: &mut Option<(i64, u32, u32)>| {
            for u in candidates {
                let ui = u as usize;
                let p = part[ui] as usize;
                if wpart[p] <= bal.strict[p] || counts[p] <= 1 {
                    continue;
                }
                let vw = g.vwgt()[ui];
                sc.begin(k);
                for (v, w) in g.edges(u) {
                    sc.add(part[v as usize], w);
                }
                let own = sc.get(p as u32) as i64;
                let shed = vw.min(wpart[p] - bal.strict[p]);
                for (q, &wq) in wpart.iter().enumerate() {
                    if q == p {
                        continue;
                    }
                    let sq = bal.strict[q];
                    let grown = (wq + vw).saturating_sub(sq) - wq.saturating_sub(sq);
                    if grown >= shed {
                        continue; // move would not reduce the excess
                    }
                    let gain = sc.get(q as u32) as i64 - own;
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        *best = Some((gain, u, q as u32));
                    }
                }
            }
        };
        scan(&mut ws.frontier.iter().copied(), &mut best);
        if best.is_none() {
            scan(&mut (0..g.n() as u32), &mut best);
        }
        let Some((gain, u, to)) = best else {
            return; // no move reduces the excess (infeasible weights)
        };
        let ui = u as usize;
        let from = part[ui] as usize;
        part[ui] = to;
        let vw = g.vwgt()[ui];
        wpart[from] -= vw;
        wpart[to as usize] += vw;
        counts[from] -= 1;
        counts[to as usize] += 1;
        *cut = (*cut as i64 - gain) as u64;
        ws.move_log.push((u, from as u32));
        // Keep the frontier covering the boundary: the move can create
        // cut edges at u and its neighbors.
        let epoch = ws.dedup_epoch;
        for v in std::iter::once(u).chain(g.neighbors(u).iter().copied()) {
            if ws.dedup_stamp[v as usize] != epoch {
                ws.dedup_stamp[v as usize] = epoch;
                ws.frontier.push(v);
            }
        }
    }
}

/// One refinement through the crossover, for any `bal.parts() ≥ 2`: on a
/// parallel policy whose entry frontier (`seed_frontier`, or all `n`
/// vertices) holds at least `crossover` vertices — normally
/// [`default_crossover`] — the frontier rounds strip the bulk positive
/// gains, handing off once the frontier shrinks below `crossover`, and the
/// sequential boundary FM polishes from their final frontier; below it the
/// sequential FM runs alone. Both run under `bal`.
///
/// `layers` names the `(rounds, polish)` trace layers: `("parref", "fm")`
/// for a bisection (each level of [`crate::fm::fm_uncoarsen_frac_hybrid`]
/// and the spectral FM polish), `("kwayref", "kwayref")` for
/// [`crate::kwayref::kway_direct_refine`].
#[allow(clippy::too_many_arguments)]
pub fn rounds_then_polish(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    bal: &Balance,
    crossover: usize,
    seed_frontier: Option<&[u32]>,
    ws: &mut ParRefWorkspace,
    layers: (&'static str, &'static str),
    trace: &TraceCollector,
) -> FmRefineOutcome {
    let (rounds, polish) = layers;
    let entry = seed_frontier.map_or(g.n(), <[u32]>::len);
    if policy.backend == Backend::Serial || entry < crossover {
        return fm_refine(g, part, bal, seed_frontier, polish, trace);
    }
    let out = {
        let _mem = trace.heap_scope(|| rounds.to_string());
        parallel_refine_rounds(
            policy,
            g,
            part,
            bal,
            crossover,
            seed_frontier,
            ws,
            rounds,
            trace,
        )
    };
    fm_refine(g, part, bal, Some(&out.frontier), polish, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;
    use mlcg_graph::metrics::part_weights;
    use mlcg_par::rng::Xoshiro256pp;

    /// Rounds to convergence over every vertex under `bal`.
    fn rounds(policy: &ExecPolicy, g: &Csr, part: &mut [u32], bal: &Balance) -> ParRefOutcome {
        let trace = TraceCollector::disabled();
        let mut ws = ParRefWorkspace::new();
        parallel_refine_rounds(policy, g, part, bal, 0, None, &mut ws, "parref", &trace)
    }

    /// A 50/50 split without vertex slack.
    fn halves(g: &Csr, epsilon: f64) -> Balance {
        Balance::split(g, epsilon, false, 0.5)
    }

    /// Random k-labeling with per-part vertex counts balanced to within
    /// one (so unit-weight entries are balance-feasible).
    fn balanced_kpart(n: usize, k: usize, seed: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = Xoshiro256pp::new(seed);
        for i in (1..n).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        let mut part = vec![0u32; n];
        for (i, &u) in order.iter().enumerate() {
            part[u as usize] = (i % k) as u32;
        }
        part
    }

    #[test]
    fn never_worsens_the_cut() {
        let g = gen::grid2d(20, 20);
        let mut rng = Xoshiro256pp::new(5);
        for policy in ExecPolicy::all_test_policies() {
            let mut part: Vec<u32> = (0..g.n()).map(|_| rng.next_below(2) as u32).collect();
            // Balance roughly first.
            let ones = part.iter().filter(|&&p| p == 1).count();
            let mut fix = ones as i64 - (g.n() / 2) as i64;
            for p in part.iter_mut() {
                if fix > 0 && *p == 1 {
                    *p = 0;
                    fix -= 1;
                } else if fix < 0 && *p == 0 {
                    *p = 1;
                    fix += 1;
                }
            }
            let before = edge_cut(&g, &part);
            let after = rounds(&policy, &g, &mut part, &halves(&g, 0.02)).cut;
            assert!(after <= before, "{policy}: {before} -> {after}");
            assert_eq!(after, edge_cut(&g, &part));
        }
    }

    #[test]
    fn respects_balance_envelope() {
        let g = gen::complete(16);
        let mut part: Vec<u32> = (0..16).map(|i| u32::from(i >= 8)).collect();
        let bal = halves(&g, 0.0);
        let out = rounds(&ExecPolicy::host(), &g, &mut part, &bal);
        let trace = TraceCollector::disabled();
        fm_refine(&g, &mut part, &bal, Some(&out.frontier), "fm", &trace);
        let (w0, w1) = part_weights(&g, &part);
        assert_eq!(w0.max(w1), 8, "eps 0 requires exact balance on even totals");
    }

    #[test]
    fn no_polish_still_repairs_to_the_envelope() {
        // Regression: a refiner whose claims may reach one max-vertex past
        // the strict limit must not ship that overshoot. The repair phase
        // must restore the strict envelope — here eps 0 on an even total,
        // so exact balance — without worsening the cut.
        let g = gen::complete(16);
        for policy in ExecPolicy::all_test_policies() {
            let mut part: Vec<u32> = (0..16).map(|i| u32::from(i >= 8)).collect();
            let before = edge_cut(&g, &part);
            let after = rounds(&policy, &g, &mut part, &halves(&g, 0.0)).cut;
            let (w0, w1) = part_weights(&g, &part);
            assert_eq!(
                w0.max(w1),
                8,
                "{policy}: eps 0, no polish must still end balanced ({w0}/{w1})"
            );
            assert!(
                after <= before,
                "{policy}: cut worsened {before} -> {after}"
            );
            assert_eq!(after, edge_cut(&g, &part));
        }
    }

    #[test]
    fn workspace_reuse_across_graphs_is_clean() {
        // One workspace across differently-sized graphs and repeated
        // levels: stale stamps from earlier runs must never leak.
        let mut ws = ParRefWorkspace::new();
        let trace = TraceCollector::disabled();
        let policy = ExecPolicy::host();
        for &(w, h) in &[(20usize, 20usize), (8, 8), (16, 16)] {
            let g = gen::grid2d(w, h);
            let mut rng = Xoshiro256pp::new((w * h) as u64);
            let mut part: Vec<u32> = (0..g.n()).map(|_| rng.next_below(2) as u32).collect();
            let before = edge_cut(&g, &part);
            let bal = Balance::split(&g, 0.02, true, 0.5);
            let out = parallel_refine_rounds(
                &policy, &g, &mut part, &bal, 0, None, &mut ws, "parref", &trace,
            );
            assert_eq!(out.cut, edge_cut(&g, &part));
            assert!(out.cut <= before);
        }
    }

    #[test]
    fn empty_graph() {
        let g = mlcg_graph::Csr::empty();
        let mut part: Vec<u32> = vec![];
        let out = rounds(&ExecPolicy::host(), &g, &mut part, &halves(&g, 0.02));
        assert_eq!(out.cut, 0);
    }

    #[test]
    fn rounds_never_worsen_and_match_edge_cut() {
        let g = gen::grid2d(12, 12);
        for k in [2usize, 3, 5, 8] {
            let part0 = balanced_kpart(g.n(), k, 7 + k as u64);
            let before = edge_cut(&g, &part0);
            let bal = Balance::uniform(&g, k, 0.02, false);
            for policy in ExecPolicy::all_test_policies() {
                let mut p = part0.clone();
                let cut = rounds(&policy, &g, &mut p, &bal).cut;
                assert_eq!(cut, edge_cut(&g, &p), "{policy}: k={k} cut drifted");
                assert!(cut <= before, "{policy}: k={k} worsened {before} -> {cut}");
                // Feasible entry (unit weights, counts balanced) must
                // leave the strict envelope intact.
                let (w, _) = part_loads(&g, &p, k);
                assert_eq!(
                    bal.excess(&w),
                    0,
                    "{policy}: k={k} weights {w:?} exceed {:?}",
                    bal.strict
                );
            }
        }
    }

    #[test]
    fn rounds_are_deterministic_across_policies() {
        let g = gen::grid2d(16, 16);
        for k in [2usize, 3, 8] {
            let part0 = balanced_kpart(g.n(), k, 21);
            let bal = Balance::uniform(&g, k, 0.02, false);
            let mut results: Vec<Vec<u32>> = Vec::new();
            for policy in ExecPolicy::all_test_policies() {
                let mut p = part0.clone();
                rounds(&policy, &g, &mut p, &bal);
                results.push(p);
            }
            for r in &results[1..] {
                assert_eq!(
                    &results[0], r,
                    "k={k}: the sequential claim must make rounds policy-independent"
                );
            }
        }
    }

    #[test]
    fn lexicographic_never_worse_on_random_graphs() {
        // Stress the repair and rollback guards under absolute uniform
        // caps: arbitrary unbalanced starts on skewed graphs, every
        // policy; the (excess, cut) key must never end worse than the
        // entry and the tracked cut must stay exact.
        for seed in 0..12u64 {
            let (g, _) =
                mlcg_graph::cc::largest_component(&gen::rmat(6, 5, 0.45, 0.22, 0.22, seed));
            let k = 2 + (seed as usize % 7);
            let mut rng = Xoshiro256pp::new(seed ^ 0xabc);
            let part0: Vec<u32> = (0..g.n())
                .map(|_| rng.next_below(k as u64) as u32)
                .collect();
            let bal = Balance::uniform(&g, k, 0.02, false);
            let entry = (
                bal.excess(&part_loads(&g, &part0, k).0),
                edge_cut(&g, &part0),
            );
            for policy in ExecPolicy::all_test_policies() {
                let mut p = part0.clone();
                let cut = rounds(&policy, &g, &mut p, &bal).cut;
                assert_eq!(cut, edge_cut(&g, &p), "seed {seed} {policy}: drifted");
                let (w, _) = part_loads(&g, &p, k);
                assert!(
                    (bal.excess(&w), cut) <= entry,
                    "seed {seed} {policy}: ended worse than entry"
                );
            }
        }
    }
}
