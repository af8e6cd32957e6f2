//! Direct k-way boundary refinement — the `parref` frontier round
//! engine and the sequential boundary FM, generalized to move vertices
//! between all `k` labels jointly.
//!
//! Recursive bisection never revisits a cut once a later split changes
//! its context; this module refines the finished k-way labeling as a
//! post-pass (see `crate::kway::kway_partition_cfg`). The bisection
//! machinery carries over with three generalizations:
//!
//! - the mover stamp becomes a `(from, to)` label pair,
//! - the per-vertex gain becomes *best-alternative-part*: with
//!   `w(u, q)` the weight of `u`'s edges into part `q`, a vertex in
//!   part `p` has `gain(u) = max_{q≠p} w(u, q) − w(u, p)`, computed
//!   from a compact per-vertex neighbor-part weight map,
//! - the two-sided balance budget becomes a uniform per-part capacity
//!   (`total/k` scaled by epsilon), with the same lexicographic
//!   `(excess, cut)` accept and reverse move-log rollback.
//!
//! # Round structure and determinism
//!
//! Bisection rounds alternate a single move direction; k-way rounds
//! alternate a *parity class*: even rounds admit only moves with
//! `from < to`, odd rounds only `from > to`, so two neighbors can never
//! swap labels inside one round. Each round is three phases:
//!
//! 1. a parallel **gain** dispatch over the frontier computes each
//!    vertex's best parity-admissible positive-gain target,
//! 2. a **sequential selection** scan claims per-part weight budgets in
//!    frontier order — replacing `parref`'s atomically raced budget
//!    with a deterministic claim, so the mover set is a pure function
//!    of (graph, partition, round) and the engine is bit-identical
//!    across execution policies,
//! 3. a parallel **apply** dispatch flips the movers and accumulates
//!    the interference correction.
//!
//! # Interference algebra
//!
//! Gains are computed against the round-start partition, so
//! simultaneous movers interfere only along mover–mover edges. For an
//! edge `(u, v)` of weight `w` with both endpoints moving
//! (`p → t` labels per endpoint), the correction to
//! `new_cut = cut − Σ gain + corr` is
//!
//! ```text
//! corr(u, v) = w · ([tu≠tv] + [pu≠pv] − [tu≠pv] − [pu≠tv])
//! ```
//!
//! For bisection (`pu = pv`, `tu = tv`) this reduces to the familiar
//! `−2w` per internal mover edge — interference can only help. With
//! `k > 2` the correction can be *positive* (e.g. `a→b` adjacent to
//! `b→c`), so unlike `parref` a round can worsen the cut and the
//! wholesale round rollback is a real path, not just a defensive
//! guard. The apply dispatch sums the ordered-pair terms (each
//! unordered edge contributes twice — the expression is symmetric in
//! `u` and `v`) and halves the total.
//!
//! A per-part vertex count guards every move so the refiner can never
//! empty a part: a labeling with zero empty parts keeps zero empty
//! parts, and degenerate inputs (`n < k`, heavy singleton parts) pass
//! through untouched rather than collapsing.

use crate::fm::seed_covers_boundary;
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{Csr, VId};
use mlcg_par::atomic::as_atomic_u32;
use mlcg_par::exec::HOST_GRAIN;
use mlcg_par::{parallel_for, profile, Backend, ExecPolicy, TraceCollector};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Maximum parity-alternating parallel rounds.
const MAX_ROUNDS: usize = 12;
/// Maximum passes of the sequential boundary refiner.
const MAX_PASSES: usize = 8;

/// Direct k-way refinement tuning.
#[derive(Clone, Debug)]
pub struct KwayRefineConfig {
    /// Allowed imbalance of any part versus `total/k`.
    pub epsilon: f64,
    /// Grant every part one max-vertex of extra strict slack (the k-way
    /// analogue of [`crate::fm::FmConfig::vertex_slack`]).
    pub vertex_slack: bool,
    /// Raise the strict cap to the entry's heaviest part when that
    /// exceeds the epsilon cap. The refiner then starts feasible by
    /// construction and refines *cut only*: the cut never worsens and no
    /// part ever outgrows `max(epsilon cap, entry max)`, so the
    /// imbalance is never worse than the entry's — the posture a
    /// post-pass over recursive bisection wants, where the recursion's
    /// per-level epsilon compounds past the flat k-way envelope. With
    /// `false`, the epsilon cap is absolute and the refiner additionally
    /// *repairs* entry overages, trading cut for balance under the
    /// lexicographic `(excess, cut)` key.
    pub entry_slack: bool,
    /// Vertex count at which [`kway_direct_refine`] engages parallel
    /// rounds under a parallel policy. `None` derives
    /// `HOST_GRAIN × workers`, matching
    /// [`crate::parref::ParRefConfig::crossover_frontier`].
    pub crossover_frontier: Option<usize>,
    /// Stop the round loop once the rebuilt frontier drops below this
    /// size and hand the residue to the sequential polish (`0` never
    /// hands off).
    pub handoff_frontier: usize,
}

impl Default for KwayRefineConfig {
    fn default() -> Self {
        KwayRefineConfig {
            epsilon: 0.02,
            vertex_slack: false,
            entry_slack: true,
            crossover_frontier: None,
            handoff_frontier: 0,
        }
    }
}

impl KwayRefineConfig {
    /// The size at which [`kway_direct_refine`] switches from the
    /// sequential boundary pass to parallel rounds under `policy`.
    pub fn crossover_threshold(&self, policy: &ExecPolicy) -> usize {
        self.crossover_frontier
            .unwrap_or_else(|| HOST_GRAIN.saturating_mul(policy.threads.max(1)))
    }
}

/// Uniform per-part weight caps: every part shares the same strict and
/// loose limit around the `total/k` target (the k-way analogue of
/// `fm::Balance`, which keys two per-side targets off `frac`).
struct KwayBalance {
    /// Final partitions must keep every part at or below this.
    strict: u64,
    /// During a round or pass, claims may wander one max-vertex past
    /// the strict limit; selection and repair restore strict balance.
    loose: u64,
}

impl KwayBalance {
    /// `floor` is a lower bound on the strict cap — the entry's heaviest
    /// part under [`KwayRefineConfig::entry_slack`], `0` otherwise.
    fn new(g: &Csr, k: usize, cfg: &KwayRefineConfig, floor: u64) -> KwayBalance {
        let total = g.total_vwgt();
        let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1);
        let target = total as f64 / k as f64;
        // Epsilon slack around the uniform target, but never below the
        // rounded-up share (so exact balance stays reachable on integer
        // weights), plus one max-vertex of slack on request.
        let mut strict = ((target * (1.0 + cfg.epsilon)).floor() as u64).max(target.ceil() as u64);
        if cfg.vertex_slack {
            strict += max_vwgt;
        }
        strict = strict.max(floor);
        KwayBalance {
            strict,
            loose: strict + max_vwgt,
        }
    }

    /// Total weight above the strict cap, summed over parts (0 when
    /// feasible).
    fn excess(&self, wpart: &[u64]) -> u64 {
        wpart.iter().map(|&w| w.saturating_sub(self.strict)).sum()
    }
}

/// Compact per-part weight map, epoch-stamped so clearing between
/// vertices costs O(parts touched), not O(k).
#[derive(Default)]
struct PartScratch {
    wt: Vec<u64>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    epoch: u32,
}

impl PartScratch {
    fn begin(&mut self, k: usize) {
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

    fn add(&mut self, p: u32, w: u64) {
        let pi = p as usize;
        if self.stamp[pi] != self.epoch {
            self.stamp[pi] = self.epoch;
            self.wt[pi] = 0;
            self.touched.push(p);
        }
        self.wt[pi] += w;
    }

    fn get(&self, p: u32) -> u64 {
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

/// Reusable per-vertex scratch for [`kway_parallel_refine_rounds`] — the
/// k-way counterpart of [`crate::parref::ParRefWorkspace`], with the
/// mover stamp widened to a `(from, to)` label pair.
#[derive(Default)]
struct KwayRefWorkspace {
    /// `moved_stamp[u] == round_epoch` marks `u` as a mover this round;
    /// written only by the sequential selection phase, read by the
    /// parallel apply dispatch.
    moved_stamp: Vec<u32>,
    /// Mover source label (valid while `moved_stamp[u]` is current).
    mover_from: Vec<u32>,
    /// Mover target label (valid while `moved_stamp[u]` is current).
    mover_to: Vec<u32>,
    /// `dedup_stamp[u] == dedup_epoch` marks membership in `frontier`.
    dedup_stamp: Vec<u32>,
    /// Per-frontier-index round verdict: 0 drop (interior), 1 keep
    /// (boundary), 2 mover, 3 candidate awaiting selection.
    code: Vec<AtomicU8>,
    /// Candidate target part per frontier index (valid when code is 3).
    cand_to: Vec<AtomicU32>,
    /// Candidate gain per frontier index (valid when code is 3).
    cand_gain: Vec<AtomicI64>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Every committed `(vertex, previous label)` in order; replaying in
    /// reverse restores the entry partition exactly.
    move_log: Vec<(u32, u32)>,
    round_epoch: u32,
    dedup_epoch: u32,
}

impl KwayRefWorkspace {
    fn ensure(&mut self, n: usize) {
        if self.moved_stamp.len() < n {
            self.moved_stamp.resize(n, 0);
            self.mover_from.resize(n, 0);
            self.mover_to.resize(n, 0);
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

/// Frontier-based parallel k-way refinement rounds — the engine behind
/// [`kway_direct_refine`].
///
/// `part` must hold labels in `0..k`. `seed_frontier`, when given, must
/// cover every vertex with a cut edge (a superset is fine); `None`
/// seeds all of `0..n`. Each round emits a `kwayref/frontier_size`
/// gauge and bumps the `kwayref/rounds` counter; the dispatches are
/// profiled as `par_for/kwayref/gain` and `par_for/kwayref/apply`.
///
/// The whole refinement rolls back — replaying the move log in
/// reverse — if it would end lexicographically worse in `(excess, cut)`
/// than the entry partition, and no move ever empties a part, so entry
/// feasibility and label coverage are preserved.
///
/// Returns the final cut (tracked incrementally; equals
/// `edge_cut(g, part)`) and the final frontier, a superset of the k-way
/// boundary that can seed [`kway_refine_boundary_traced`].
#[allow(clippy::too_many_arguments)]
fn kway_parallel_refine_rounds(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    k: usize,
    cfg: &KwayRefineConfig,
    seed_frontier: Option<&[u32]>,
    ws: &mut KwayRefWorkspace,
    trace: &TraceCollector,
) -> (u64, Vec<u32>) {
    let n = g.n();
    assert_eq!(part.len(), n);
    assert!(k >= 1, "k must be positive");
    if n == 0 || k < 2 {
        return (0, Vec::new());
    }
    let _kernel = profile::kernel("kwayref");

    let mut wpart = vec![0u64; k];
    let mut counts = vec![0usize; k];
    for (u, &p) in part.iter().enumerate() {
        assert!((p as usize) < k, "label {p} out of range for k={k}");
        wpart[p as usize] += g.vwgt()[u];
        counts[p as usize] += 1;
    }
    let floor = if cfg.entry_slack {
        wpart.iter().copied().max().unwrap_or(0)
    } else {
        0
    };
    let bal = KwayBalance::new(g, k, cfg, floor);

    ws.ensure(n);
    ws.move_log.clear();

    // Seed the frontier, deduped by stamp.
    {
        let epoch = ws.bump_dedup();
        ws.frontier.clear();
        match seed_frontier {
            Some(seed) => {
                debug_assert!(
                    seed_covers_boundary(g, part, seed),
                    "seed frontier misses a boundary vertex"
                );
                for &u in seed {
                    let ui = u as usize;
                    assert!(ui < n, "seed frontier vertex {u} out of range");
                    if ws.dedup_stamp[ui] != epoch {
                        ws.dedup_stamp[ui] = epoch;
                        ws.frontier.push(u);
                    }
                }
            }
            None => {
                for u in 0..n as u32 {
                    ws.dedup_stamp[u as usize] = epoch;
                    ws.frontier.push(u);
                }
            }
        }
    }

    // Entry cut from external weight over the frontier (it covers the
    // boundary, so every cut edge is counted at both endpoints).
    let mut ext_total: u64 = 0;
    for &u in &ws.frontier {
        for (v, w) in g.edges(u) {
            if part[u as usize] != part[v as usize] {
                ext_total += w;
            }
        }
    }
    debug_assert_eq!(ext_total % 2, 0, "frontier missed a cut edge endpoint");
    let mut cut = ext_total / 2;
    debug_assert_eq!(cut, edge_cut(g, part));
    let entry_key = (bal.excess(&wpart), cut);

    let mut empty_streak = 0usize;
    for round in 0..MAX_ROUNDS {
        let flen = ws.frontier.len();
        if flen == 0 {
            break;
        }
        if round > 0 && flen < cfg.handoff_frontier {
            break;
        }
        trace.gauge_usize(|| "kwayref/frontier_size".to_string(), flen);
        trace.counter_add("kwayref/rounds", 1);
        let epoch = ws.bump_round();
        if ws.code.len() < flen {
            ws.code.resize_with(flen, AtomicU8::default);
            ws.cand_to.resize_with(flen, AtomicU32::default);
            ws.cand_gain.resize_with(flen, AtomicI64::default);
        }
        // Parity class: even rounds move to higher labels, odd rounds
        // to lower — no two neighbors can swap inside one round.
        let upward = round % 2 == 0;
        let ext_sum = AtomicU64::new(0);
        {
            // Phase 1: parallel gain pass. `part` is read-only here, so
            // every gain is computed against the round-start partition.
            let _k = profile::kernel("gain");
            let frontier = &ws.frontier;
            let code = &ws.code;
            let cand_to = &ws.cand_to;
            let cand_gain = &ws.cand_gain;
            let part_ro: &[u32] = part;
            parallel_for(policy, flen, |i| {
                SCRATCH.with(|sc| {
                    let mut sc = sc.borrow_mut();
                    sc.begin(k);
                    let u = frontier[i] as usize;
                    let pu = part_ro[u];
                    let mut extw = 0u64;
                    for (v, w) in g.edges(u as VId) {
                        let pv = part_ro[v as usize];
                        sc.add(pv, w);
                        if pv != pu {
                            extw += w;
                        }
                    }
                    ext_sum.fetch_add(extw, Ordering::Relaxed);
                    if extw == 0 {
                        code[i].store(0, Ordering::Relaxed);
                        return;
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
                    match best {
                        Some((wq, q)) if wq > own => {
                            cand_to[i].store(q, Ordering::Relaxed);
                            cand_gain[i].store(wq as i64 - own as i64, Ordering::Relaxed);
                            code[i].store(3, Ordering::Relaxed);
                        }
                        _ => code[i].store(1, Ordering::Relaxed),
                    }
                });
            });
        }
        debug_assert_eq!(
            ext_sum.load(Ordering::Relaxed),
            2 * cut,
            "frontier no longer covers the boundary"
        );

        // Phase 2: sequential deterministic selection. Claims per-part
        // budgets in frontier order against live part weights; the
        // count guard keeps every part non-empty.
        let mut gain_sum = 0i64;
        let mut mover_count = 0usize;
        for i in 0..flen {
            if ws.code[i].load(Ordering::Relaxed) != 3 {
                continue;
            }
            let u = ws.frontier[i] as usize;
            let from = part[u];
            let to = ws.cand_to[i].load(Ordering::Relaxed);
            let vw = g.vwgt()[u];
            if counts[from as usize] <= 1 || wpart[to as usize] + vw > bal.loose {
                ws.code[i].store(1, Ordering::Relaxed);
                continue;
            }
            wpart[from as usize] -= vw;
            wpart[to as usize] += vw;
            counts[from as usize] -= 1;
            counts[to as usize] += 1;
            ws.moved_stamp[u] = epoch;
            ws.mover_from[u] = from;
            ws.mover_to[u] = to;
            ws.code[i].store(2, Ordering::Relaxed);
            gain_sum += ws.cand_gain[i].load(Ordering::Relaxed);
            mover_count += 1;
        }

        if mover_count == 0 {
            rebuild_frontier(g, ws, flen, false);
            empty_streak += 1;
            if empty_streak >= 2 {
                break; // neither parity class has admissible moves left
            }
            continue;
        }
        empty_streak = 0;

        // Phase 3: parallel apply. Flip the movers and sum interference
        // terms over ordered mover–mover edge pairs (each unordered
        // edge contributes twice; halved below). Mover identity and
        // labels come from the stamps written by the selection scan, so
        // the concurrent part[] stores never feed back into this pass.
        let corr = AtomicI64::new(0);
        {
            let _k = profile::kernel("apply");
            let frontier = &ws.frontier;
            let code = &ws.code;
            let moved: &[u32] = &ws.moved_stamp;
            let mfrom: &[u32] = &ws.mover_from;
            let mto: &[u32] = &ws.mover_to;
            let part_atomic = as_atomic_u32(part);
            parallel_for(policy, flen, |i| {
                if code[i].load(Ordering::Relaxed) != 2 {
                    return;
                }
                let u = frontier[i] as usize;
                let (pu, tu) = (mfrom[u], mto[u]);
                part_atomic[u].store(tu, Ordering::Relaxed);
                let mut s = 0i64;
                for (v, w) in g.edges(u as VId) {
                    let vi = v as usize;
                    if moved[vi] == epoch {
                        let (pv, tv) = (mfrom[vi], mto[vi]);
                        let d = i64::from(tu != tv) + i64::from(pu != pv)
                            - i64::from(tu != pv)
                            - i64::from(pu != tv);
                        s += w as i64 * d;
                    }
                }
                if s != 0 {
                    corr.fetch_add(s, Ordering::Relaxed);
                }
            });
        }
        let corr2 = corr.load(Ordering::Relaxed);
        debug_assert_eq!(corr2.rem_euclid(2), 0, "unpaired interference term");
        let new_cut = cut as i64 - gain_sum + corr2 / 2;
        if new_cut < 0 || new_cut as u64 > cut {
            // Positive interference (move chains like a→b next to b→c)
            // made the round a net loss: restore the movers wholesale.
            for i in 0..flen {
                if ws.code[i].load(Ordering::Relaxed) == 2 {
                    let u = ws.frontier[i] as usize;
                    let (from, to) = (ws.mover_from[u], ws.mover_to[u]);
                    part[u] = from;
                    let vw = g.vwgt()[u];
                    wpart[from as usize] += vw;
                    wpart[to as usize] -= vw;
                    counts[from as usize] += 1;
                    counts[to as usize] -= 1;
                }
            }
            trace.counter_add("kwayref/round_rollbacks", 1);
            rebuild_frontier(g, ws, flen, false);
            break;
        }
        cut = new_cut as u64;
        debug_assert_eq!(cut, edge_cut(g, part), "incremental k-way cut drifted");
        rebuild_frontier(g, ws, flen, true);
    }

    // Balance repair to the entry excess, exactly as in the bisection
    // engine: a feasible entry must leave inside the envelope, while
    // pre-existing infeasibility is left for the sequential polish
    // (whose best-prefix selection repairs balance while jointly
    // optimizing the cut).
    if bal.excess(&wpart) > entry_key.0 {
        repair_balance(
            g,
            part,
            &mut wpart,
            &mut counts,
            &bal,
            k,
            entry_key.0,
            &mut cut,
            ws,
        );
    }
    if (bal.excess(&wpart), cut) > entry_key {
        for &(u, from) in ws.move_log.iter().rev() {
            let ui = u as usize;
            let cur = part[ui] as usize;
            part[ui] = from;
            let vw = g.vwgt()[ui];
            wpart[cur] -= vw;
            wpart[from as usize] += vw;
        }
        cut = entry_key.1;
        let epoch = ws.bump_dedup();
        ws.frontier.clear();
        match seed_frontier {
            Some(seed) => {
                for &u in seed {
                    if ws.dedup_stamp[u as usize] != epoch {
                        ws.dedup_stamp[u as usize] = epoch;
                        ws.frontier.push(u);
                    }
                }
            }
            None => {
                for u in 0..n as u32 {
                    ws.dedup_stamp[u as usize] = epoch;
                    ws.frontier.push(u);
                }
            }
        }
    }
    debug_assert_eq!(cut, edge_cut(g, part), "final k-way cut drifted");
    (cut, ws.frontier.clone())
}

/// Build the next frontier in `O(frontier + moved · deg)`: boundary
/// members stay, movers stay, and (when the round was `applied`) the
/// movers' neighbors join and the movers are appended to the move log
/// with their source labels.
fn rebuild_frontier(g: &Csr, ws: &mut KwayRefWorkspace, flen: usize, applied: bool) {
    let epoch = ws.bump_dedup();
    let KwayRefWorkspace {
        frontier,
        next,
        dedup_stamp,
        code,
        move_log,
        mover_from,
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
            move_log.push((u, mover_from[u as usize]));
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

/// Sequential greedy k-way balance repair: while the total excess
/// exceeds `target_excess`, move the best-gain vertex off an over-limit
/// part into a target that strictly reduces the excess. Frontier
/// candidates first; a full scan is the fallback for degenerate entries
/// whose over-limit parts have no frontier vertex.
#[allow(clippy::too_many_arguments)]
fn repair_balance(
    g: &Csr,
    part: &mut [u32],
    wpart: &mut [u64],
    counts: &mut [usize],
    bal: &KwayBalance,
    k: usize,
    target_excess: u64,
    cut: &mut u64,
    ws: &mut KwayRefWorkspace,
) {
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
                if wpart[p] <= bal.strict || counts[p] <= 1 {
                    continue;
                }
                let vw = g.vwgt()[ui];
                sc.begin(k);
                for (v, w) in g.edges(u) {
                    sc.add(part[v as usize], w);
                }
                let own = sc.get(p as u32) as i64;
                let shed = vw.min(wpart[p] - bal.strict);
                for (q, &wq) in wpart.iter().enumerate() {
                    if q == p {
                        continue;
                    }
                    let grown =
                        (wq + vw).saturating_sub(bal.strict) - wq.saturating_sub(bal.strict);
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
        // Keep the frontier covering the boundary after the flip.
        let epoch = ws.dedup_epoch;
        if ws.dedup_stamp[ui] != epoch {
            ws.dedup_stamp[ui] = epoch;
            ws.frontier.push(u);
        }
        for (v, _) in g.edges(u) {
            if ws.dedup_stamp[v as usize] != epoch {
                ws.dedup_stamp[v as usize] = epoch;
                ws.frontier.push(v);
            }
        }
    }
}

/// Per-vertex state of the sequential k-way refiner: the compact
/// neighbor-part weight maps plus the derived gain/target/ext values
/// the heap is keyed on.
struct SeqState {
    /// `conn[u]` lists `(part, weight)` for every part `u` touches, own
    /// part included; adjusted in O(|conn|) per neighbor move.
    conn: Vec<Vec<(u32, u64)>>,
    gain: Vec<i64>,
    /// Best-alternative target; `k` is the sentinel for "no external
    /// connectivity".
    best_to: Vec<u32>,
    ext: Vec<u64>,
    gain_known: Vec<bool>,
    version: Vec<u32>,
    locked: Vec<bool>,
}

impl SeqState {
    fn new(n: usize, k: usize) -> SeqState {
        SeqState {
            conn: vec![Vec::new(); n],
            gain: vec![0; n],
            best_to: vec![k as u32; n],
            ext: vec![0; n],
            gain_known: vec![false; n],
            version: vec![0; n],
            locked: vec![false; n],
        }
    }

    /// Recompute gain/best_to/ext for `u` from its conn map.
    fn refresh(&mut self, u: usize, pu: u32, k: usize) {
        let mut own = 0u64;
        let mut total = 0u64;
        let mut best: Option<(u64, u32)> = None;
        for &(q, w) in &self.conn[u] {
            total += w;
            if q == pu {
                own = w;
                continue;
            }
            if best.is_none_or(|(bw, bq)| w > bw || (w == bw && q < bq)) {
                best = Some((w, q));
            }
        }
        self.ext[u] = total - own;
        match best {
            Some((w, q)) => {
                self.gain[u] = w as i64 - own as i64;
                self.best_to[u] = q;
            }
            None => {
                self.gain[u] = -(own as i64);
                self.best_to[u] = k as u32;
            }
        }
    }

    /// Rebuild `conn[u]` from the adjacency, then refresh.
    fn build(&mut self, g: &Csr, part: &[u32], u: usize, k: usize, sc: &mut PartScratch) {
        sc.begin(k);
        for (v, w) in g.edges(u as VId) {
            sc.add(part[v as usize], w);
        }
        let list = &mut self.conn[u];
        list.clear();
        for &q in &sc.touched {
            list.push((q, sc.get(q)));
        }
        self.gain_known[u] = true;
        self.refresh(u, part[u], k);
    }

    /// A neighbor of `v` moved `from → to` over an edge of weight `w`:
    /// shift the weight between the two conn entries and refresh.
    fn adjust(&mut self, v: usize, from: u32, to: u32, w: u64, pv: u32, k: usize) {
        {
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
        }
        self.refresh(v, pv, k);
    }
}

/// Boundary-driven sequential k-way FM — the polish half of
/// [`kway_direct_refine`], and the whole refiner below the crossover.
///
/// The bisection refiner's structure carries over: passes heap-seed
/// only the frontier, gains stay fresh through the frontier invariant
/// (any neighbor flip re-frontiers a vertex for recomputation), the
/// best `(excess, cut)` prefix is kept and the rest rolled back, and an
/// abort limit of `(2·boundary).max(64)` unproductive moves bounds each
/// pass. The gain becomes best-alternative-part over a compact
/// per-vertex neighbor-part weight map, maintained incrementally as
/// neighbors move. While a part exceeds its strict cap, the pass
/// additionally seeds that part's vertices and admits
/// connectivity-free least-loaded targets, so balance repair works from
/// any start; a per-part vertex count guard never empties a part. Each
/// pass records a `kwayref/pass{N}` span and a `kwayref/boundary_size`
/// gauge; rollbacks feed `kwayref/moves_rolled_back`. Returns the final
/// cut.
fn kway_refine_boundary_traced(
    g: &Csr,
    part: &mut [u32],
    k: usize,
    cfg: &KwayRefineConfig,
    seed_frontier: Option<&[u32]>,
    trace: &TraceCollector,
) -> u64 {
    let n = g.n();
    assert_eq!(part.len(), n);
    assert!(k >= 1, "k must be positive");
    if n == 0 || k < 2 {
        return 0;
    }
    let mut wpart = vec![0u64; k];
    let mut counts = vec![0usize; k];
    for (u, &p) in part.iter().enumerate() {
        assert!((p as usize) < k, "label {p} out of range for k={k}");
        wpart[p as usize] += g.vwgt()[u];
        counts[p as usize] += 1;
    }
    let floor = if cfg.entry_slack {
        wpart.iter().copied().max().unwrap_or(0)
    } else {
        0
    };
    let bal = KwayBalance::new(g, k, cfg, floor);

    let mut st = SeqState::new(n, k);
    let mut sc = PartScratch::default();
    let mut stamp: Vec<u32> = vec![0; n];
    let mut epoch: u32 = 0;

    let mut frontier: Vec<u32> = match seed_frontier {
        Some(seed) => {
            debug_assert!(
                seed_covers_boundary(g, part, seed),
                "seed frontier misses a boundary vertex"
            );
            epoch += 1;
            let mut f = Vec::with_capacity(seed.len());
            for &u in seed {
                let ui = u as usize;
                assert!(ui < n, "seed frontier vertex {u} out of range");
                if stamp[ui] != epoch {
                    stamp[ui] = epoch;
                    f.push(u);
                }
            }
            f
        }
        None => (0..n as u32).collect(),
    };

    // Entry cut from external weight over the boundary-covering frontier.
    let mut ext_total: u64 = 0;
    for &u in &frontier {
        for (v, w) in g.edges(u) {
            if part[u as usize] != part[v as usize] {
                ext_total += w;
            }
        }
    }
    debug_assert_eq!(ext_total % 2, 0, "frontier missed a cut edge endpoint");
    let mut cut = (ext_total / 2) as i64;
    debug_assert_eq!(cut, edge_cut(g, part) as i64);

    for pass in 0..MAX_PASSES {
        let span = trace.span(|| format!("kwayref/pass{pass}"));
        epoch += 1;
        let mut next: Vec<u32> = Vec::new();
        let mut heap: BinaryHeap<(i64, u32, u32)> = BinaryHeap::new();
        let mut boundary_size = 0usize;
        for &fu in &frontier {
            let u = fu as usize;
            st.build(g, part, u, k, &mut sc);
            st.locked[u] = false;
            if st.ext[u] > 0 {
                heap.push((st.gain[u], fu, st.version[u]));
                boundary_size += 1;
                if stamp[u] != epoch {
                    stamp[u] = epoch;
                    next.push(fu);
                }
            }
        }
        trace.gauge_usize(|| "kwayref/boundary_size".to_string(), boundary_size);
        if bal.excess(&wpart) > 0 {
            // Balance-repair fallback: seed every vertex of any
            // over-limit part, interior vertices included.
            for u in 0..n {
                let p = part[u] as usize;
                if wpart[p] > bal.strict && stamp[u] != epoch {
                    stamp[u] = epoch;
                    next.push(u as u32);
                    st.build(g, part, u, k, &mut sc);
                    st.locked[u] = false;
                    heap.push((st.gain[u], u as u32, st.version[u]));
                }
            }
        }

        let mut best_key = (bal.excess(&wpart), cut);
        let mut best_len = 0usize;
        let mut moves: Vec<(u32, u32)> = Vec::new();
        let abort_limit = (2 * boundary_size).max(64);
        let mut since_best = 0usize;

        while let Some((gval, uu, ver)) = heap.pop() {
            let u = uu as usize;
            if st.locked[u] || ver != st.version[u] || gval != st.gain[u] {
                continue; // stale entry
            }
            let from = part[u];
            if counts[from as usize] <= 1 {
                continue; // moving the last vertex would empty the part
            }
            let vw = g.vwgt()[u];
            // Target: the stored best-alternative if budget-feasible,
            // else the best feasible conn entry; while the source part
            // is over its strict cap, also admit a connectivity-free
            // least-loaded target so repair can move interior vertices.
            let stored = st.best_to[u];
            let (to, tgain) = if (stored as usize) < k && wpart[stored as usize] + vw <= bal.loose {
                (stored, st.gain[u])
            } else {
                let mut own = 0u64;
                let mut bestc: Option<(u64, u32)> = None;
                for &(q, w) in &st.conn[u] {
                    if q == from {
                        own = w;
                        continue;
                    }
                    if wpart[q as usize] + vw > bal.loose {
                        continue;
                    }
                    if bestc.is_none_or(|(bw, bq)| w > bw || (w == bw && q < bq)) {
                        bestc = Some((w, q));
                    }
                }
                match bestc {
                    Some((w, q)) => (q, w as i64 - own as i64),
                    None if wpart[from as usize] > bal.strict => {
                        let mut bq: Option<u32> = None;
                        for q in 0..k as u32 {
                            if q == from || wpart[q as usize] + vw > bal.loose {
                                continue;
                            }
                            if bq.is_none_or(|b| wpart[q as usize] < wpart[b as usize]) {
                                bq = Some(q);
                            }
                        }
                        match bq {
                            Some(q) => (q, -(own as i64)),
                            None => continue,
                        }
                    }
                    None => continue,
                }
            };
            // Commit the move.
            st.locked[u] = true;
            part[u] = to;
            wpart[from as usize] -= vw;
            wpart[to as usize] += vw;
            counts[from as usize] -= 1;
            counts[to as usize] += 1;
            cut -= tgain;
            moves.push((uu, from));
            if stamp[u] != epoch {
                stamp[u] = epoch;
                next.push(uu);
            }
            let key = (bal.excess(&wpart), cut);
            if key < best_key {
                best_key = key;
                best_len = moves.len();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= abort_limit {
                    break;
                }
            }
            // Shift the (u, v) edge weight in every neighbor's conn map
            // and re-frontier them for the next pass.
            for (v, w) in g.edges(u as VId) {
                let vi = v as usize;
                if stamp[vi] != epoch {
                    stamp[vi] = epoch;
                    next.push(v);
                }
                if st.locked[vi] {
                    continue;
                }
                if st.gain_known[vi] {
                    st.adjust(vi, from, to, w, part[vi], k);
                } else {
                    // First touch outside the seeded frontier: full
                    // build (part[u] already flipped, so the fresh map
                    // includes this move).
                    st.build(g, part, vi, k, &mut sc);
                }
                st.version[vi] += 1;
                if st.ext[vi] > 0 {
                    heap.push((st.gain[vi], v, st.version[vi]));
                }
            }
        }
        // Roll back past the best prefix.
        trace.counter_add("kwayref/moves_rolled_back", (moves.len() - best_len) as u64);
        for &(uu, from) in moves[best_len..].iter().rev() {
            let u = uu as usize;
            let cur = part[u];
            part[u] = from;
            let vw = g.vwgt()[u];
            wpart[cur as usize] -= vw;
            wpart[from as usize] += vw;
            counts[cur as usize] -= 1;
            counts[from as usize] += 1;
        }
        cut = best_key.1;
        debug_assert_eq!(cut, edge_cut(g, part) as i64, "incremental cut drifted");
        span.finish();
        frontier = next;
        if best_len == 0 {
            break;
        }
    }
    cut as u64
}

/// Refine a finished k-way labeling in place; returns the final cut.
///
/// Under a parallel policy on a graph at or above
/// [`KwayRefineConfig::crossover_threshold`], the frontier-based
/// parallel rounds run first (handing off once the frontier shrinks
/// below the threshold), then the sequential k-way boundary FM polishes
/// from the rounds' final frontier. Below
/// the crossover the sequential refiner runs alone, keeping small and
/// deep-recursion inputs on the dispatch-free fast path.
pub fn kway_direct_refine(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    k: usize,
    cfg: &KwayRefineConfig,
    trace: &TraceCollector,
) -> u64 {
    let n = g.n();
    assert_eq!(part.len(), n);
    if n == 0 || k < 2 {
        return 0;
    }
    let _mem = trace.heap_scope(|| "kwayref".to_string());
    let threshold = cfg.crossover_threshold(policy);
    if policy.backend != Backend::Serial && n >= threshold {
        let mut rounds_cfg = cfg.clone();
        if rounds_cfg.handoff_frontier == 0 {
            rounds_cfg.handoff_frontier = threshold;
        }
        let mut ws = KwayRefWorkspace::default();
        let (_, frontier) =
            kway_parallel_refine_rounds(policy, g, part, k, &rounds_cfg, None, &mut ws, trace);
        kway_refine_boundary_traced(g, part, k, cfg, Some(&frontier), trace)
    } else {
        kway_refine_boundary_traced(g, part, k, cfg, None, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;
    use mlcg_par::rng::Xoshiro256pp;

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

    fn strict_bound(g: &Csr, k: usize, epsilon: f64) -> u64 {
        let total = g.total_vwgt();
        let target = total as f64 / k as f64;
        ((target * (1.0 + epsilon)).floor() as u64).max(target.ceil() as u64)
    }

    #[test]
    fn rounds_never_worsen_and_match_edge_cut() {
        let g = gen::grid2d(12, 12);
        for k in [2usize, 3, 5, 8] {
            let part0 = balanced_kpart(g.n(), k, 7 + k as u64);
            let before = edge_cut(&g, &part0);
            let cfg = KwayRefineConfig::default();
            for policy in ExecPolicy::all_test_policies() {
                let mut p = part0.clone();
                let mut ws = KwayRefWorkspace::default();
                let (cut, _) = kway_parallel_refine_rounds(
                    &policy,
                    &g,
                    &mut p,
                    k,
                    &cfg,
                    None,
                    &mut ws,
                    &TraceCollector::disabled(),
                );
                assert_eq!(cut, edge_cut(&g, &p), "{policy}: k={k} cut drifted");
                assert!(
                    cut <= before,
                    "{policy}: k={k} worsened {before} -> {}",
                    cut
                );
                // Feasible entry (unit weights, counts balanced) must
                // leave the strict envelope intact.
                let bound = strict_bound(&g, k, cfg.epsilon);
                let mut w = vec![0u64; k];
                for (u, &pp) in p.iter().enumerate() {
                    w[pp as usize] += g.vwgt()[u];
                }
                assert!(
                    w.iter().all(|&x| x <= bound),
                    "{policy}: k={k} weights {w:?} exceed {bound}"
                );
            }
        }
    }

    #[test]
    fn rounds_are_deterministic_across_policies() {
        let g = gen::grid2d(16, 16);
        for k in [3usize, 8] {
            let part0 = balanced_kpart(g.n(), k, 21);
            let cfg = KwayRefineConfig::default();
            let mut results: Vec<Vec<u32>> = Vec::new();
            for policy in ExecPolicy::all_test_policies() {
                let mut p = part0.clone();
                let mut ws = KwayRefWorkspace::default();
                kway_parallel_refine_rounds(
                    &policy,
                    &g,
                    &mut p,
                    k,
                    &cfg,
                    None,
                    &mut ws,
                    &TraceCollector::disabled(),
                );
                results.push(p);
            }
            for r in &results[1..] {
                assert_eq!(
                    &results[0], r,
                    "k={k}: selection must make rounds policy-independent"
                );
            }
        }
    }

    #[test]
    fn sequential_refiner_improves_and_keeps_envelope() {
        // 18x18 keeps floor(target·eps) >= 1 for every k here: with zero
        // slack (target·eps < 1) any single move trips the excess key and
        // improvement from a random start is not guaranteed.
        let g = gen::grid2d(18, 18);
        for k in [2usize, 4, 6] {
            let mut part = balanced_kpart(g.n(), k, 3);
            let before = edge_cut(&g, &part);
            let cfg = KwayRefineConfig::default();
            let cut = kway_refine_boundary_traced(
                &g,
                &mut part,
                k,
                &cfg,
                None,
                &TraceCollector::disabled(),
            );
            assert_eq!(cut, edge_cut(&g, &part), "k={k} cut drifted");
            assert!(cut < before, "k={k}: no improvement {before}");
            let bound = strict_bound(&g, k, cfg.epsilon);
            let mut w = vec![0u64; k];
            for (u, &pp) in part.iter().enumerate() {
                w[pp as usize] += g.vwgt()[u];
            }
            assert!(
                w.iter().all(|&x| x <= bound),
                "k={k} weights {w:?} exceed {bound}"
            );
            // Every part still populated.
            let mut used = part.clone();
            used.sort_unstable();
            used.dedup();
            assert_eq!(used.len(), k, "k={k} dropped a label");
        }
    }

    #[test]
    fn never_empties_a_part() {
        // Singleton parts are pinned by the count guard even when the
        // balance budget would admit the merge.
        let g = gen::path(3);
        let mut part = vec![0u32, 1, 2];
        let before = part.clone();
        let cut = kway_direct_refine(
            &ExecPolicy::serial(),
            &g,
            &mut part,
            5,
            &KwayRefineConfig::default(),
            &TraceCollector::disabled(),
        );
        assert_eq!(part, before, "singleton parts must not merge");
        assert_eq!(cut, edge_cut(&g, &part));

        // A heavy center in its own part stays there.
        let mut star = gen::star(9);
        let mut vw = vec![1u64; star.n()];
        vw[0] = 1000;
        star.set_vwgt(vw);
        let mut p: Vec<u32> = (0..star.n() as u32).map(|u| u % 4).collect();
        kway_direct_refine(
            &ExecPolicy::serial(),
            &star,
            &mut p,
            4,
            &KwayRefineConfig::default(),
            &TraceCollector::disabled(),
        );
        let mut used = p.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 4, "labels {p:?}");
    }

    #[test]
    fn lexicographic_never_worse_on_random_graphs() {
        // Stress the rollback guards in repair mode (`entry_slack:
        // false`, absolute epsilon cap): arbitrary unbalanced starts on
        // skewed graphs, every policy; the (excess, cut) key must never
        // end worse than the entry and the tracked cut must stay exact.
        for seed in 0..12u64 {
            let (g, _) =
                mlcg_graph::cc::largest_component(&gen::rmat(6, 5, 0.45, 0.22, 0.22, seed));
            let k = 2 + (seed as usize % 7);
            let mut rng = Xoshiro256pp::new(seed ^ 0xabc);
            let part0: Vec<u32> = (0..g.n())
                .map(|_| rng.next_below(k as u64) as u32)
                .collect();
            let cfg = KwayRefineConfig {
                entry_slack: false,
                ..Default::default()
            };
            let bal = KwayBalance::new(&g, k, &cfg, 0);
            let mut w0 = vec![0u64; k];
            for (u, &p) in part0.iter().enumerate() {
                w0[p as usize] += g.vwgt()[u];
            }
            let entry = (bal.excess(&w0), edge_cut(&g, &part0));
            for policy in ExecPolicy::all_test_policies() {
                let mut p = part0.clone();
                let mut ws = KwayRefWorkspace::default();
                let (cut, _) = kway_parallel_refine_rounds(
                    &policy,
                    &g,
                    &mut p,
                    k,
                    &cfg,
                    None,
                    &mut ws,
                    &TraceCollector::disabled(),
                );
                assert_eq!(cut, edge_cut(&g, &p), "seed {seed} {policy}: drifted");
                let mut w = vec![0u64; k];
                for (u, &pp) in p.iter().enumerate() {
                    w[pp as usize] += g.vwgt()[u];
                }
                assert!(
                    (bal.excess(&w), cut) <= entry,
                    "seed {seed} {policy}: ended worse than entry"
                );
            }
        }
    }

    #[test]
    fn entry_slack_never_worsens_cut_or_imbalance() {
        // Production posture (`entry_slack: true`, the default): the
        // strict cap is raised to the entry's heaviest part when that
        // exceeds the epsilon cap, so refinement starts feasible, the
        // cut is monotonically non-worsening, and no part ever outgrows
        // max(epsilon cap, entry max).
        for seed in 0..12u64 {
            let (g, _) =
                mlcg_graph::cc::largest_component(&gen::rmat(6, 5, 0.45, 0.22, 0.22, seed));
            let k = 2 + (seed as usize % 7);
            let mut rng = Xoshiro256pp::new(seed ^ 0x517);
            let part0: Vec<u32> = (0..g.n())
                .map(|_| rng.next_below(k as u64) as u32)
                .collect();
            let cfg = KwayRefineConfig::default();
            let mut w0 = vec![0u64; k];
            for (u, &p) in part0.iter().enumerate() {
                w0[p as usize] += g.vwgt()[u];
            }
            let cap = strict_bound(&g, k, cfg.epsilon).max(w0.iter().copied().max().unwrap_or(0));
            let before = edge_cut(&g, &part0);
            for policy in ExecPolicy::all_test_policies() {
                let mut p = part0.clone();
                let cut =
                    kway_direct_refine(&policy, &g, &mut p, k, &cfg, &TraceCollector::disabled());
                assert_eq!(cut, edge_cut(&g, &p), "seed {seed} {policy}: drifted");
                assert!(
                    cut <= before,
                    "seed {seed} {policy}: cut worsened {before} -> {cut}"
                );
                let mut w = vec![0u64; k];
                for (u, &pp) in p.iter().enumerate() {
                    w[pp as usize] += g.vwgt()[u];
                }
                assert!(
                    w.iter().all(|&x| x <= cap),
                    "seed {seed} {policy}: weights {w:?} exceed cap {cap}"
                );
            }
        }
    }

    #[test]
    fn k_below_two_is_a_no_op() {
        let g = gen::grid2d(4, 4);
        let mut part = vec![0u32; g.n()];
        let cut = kway_direct_refine(
            &ExecPolicy::host(),
            &g,
            &mut part,
            1,
            &KwayRefineConfig::default(),
            &TraceCollector::disabled(),
        );
        assert_eq!(cut, 0);
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn crossover_engages_rounds_and_counts_them() {
        let g = gen::grid2d(24, 24);
        let mut part = balanced_kpart(g.n(), 4, 5);
        let trace = TraceCollector::enabled();
        let cfg = KwayRefineConfig {
            crossover_frontier: Some(1),
            ..Default::default()
        };
        let cut = kway_direct_refine(&ExecPolicy::host(), &g, &mut part, 4, &cfg, &trace);
        assert_eq!(cut, edge_cut(&g, &part));
        let report = trace.report();
        assert!(
            report.counter("kwayref/rounds") > 0,
            "forced crossover must run parallel rounds"
        );
    }
}
