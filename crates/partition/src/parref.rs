//! Parallel boundary refinement — the paper's "fully parallel
//! partitioning with FM-based refinement" future-work direction.
//!
//! Classic coarse-grained parallel refinement (in the spirit of
//! mt-Metis): rounds alternate move direction, so every move in a round
//! goes from the same source side. Frontier vertices whose FM gain is
//! positive (computed against the round-start partition, which no thread
//! mutates during the gain pass) move, subject to an atomically claimed
//! weight budget that caps how far the target side may grow.
//!
//! The refiner is *frontier-based*: a round scans only the current
//! frontier — seeded from the projected coarse boundary during
//! uncoarsening, then maintained incrementally (pre-move boundary members
//! stay, movers and their neighbors join) — so a round costs
//! `O(frontier + moved · deg)`, not `O(n + m)`. All per-vertex scratch
//! (mover stamps, dedup stamps, frontier arrays, the move log) lives in a
//! [`ParRefWorkspace`] reused across rounds *and* levels; the round loop
//! allocates nothing proportional to `n`.
//!
//! The cut is tracked incrementally. A round's actual cut delta is
//! derived from the predicted per-move gains plus an interference
//! correction over the movers only: for `S` the set of same-direction
//! movers,
//!
//! ```text
//! new_cut = cut − Σ_{u∈S} gain(u) − 2 · w(S, S)
//! ```
//!
//! because an edge inside `S` is counted as internal (−w) by *both*
//! endpoint gains while its actual cut contribution never changes —
//! simultaneous same-direction movers can only do *better* than their
//! individual predictions. Both terms are nonnegative (only positive
//! gains move), so a round provably never worsens the cut; the wholesale
//! round rollback is kept as a defensive guard on the arithmetic, not as
//! an expected path. No `edge_cut` recount happens anywhere in the round
//! loop (debug builds assert the tracked cut against a recount).
//!
//! Rounds leave at most one `max_vwgt` of balance overshoot (the claimed
//! budget extends one max-vertex past the strict limit so perfectly
//! balanced partitions can trade). A final sequential repair phase moves
//! best-gain vertices off the over-limit side until the excess is back to
//! its entry value — so a feasible entry ends inside the envelope, while
//! pre-existing infeasibility is left for the sequential FM pass that
//! follows in every multilevel driver (its best-prefix selection repairs
//! balance while jointly optimizing the cut, which greedy excess
//! reduction on a dense graph cannot). The whole refinement rolls back to
//! its entry state — replaying the move log — if it would end
//! lexicographically worse in `(excess, cut)` than the entry partition.
//! [`rounds_then_polish`] follows the rounds with a sequential FM polish
//! seeded by the final frontier, which removes the last few percent,
//! mirroring how production partitioners combine the two.

use crate::fm::{fm_refine, seed_covers_boundary, Balance, FmConfig, FmRefineOutcome};
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{Csr, VId};
use mlcg_par::atomic::as_atomic_u32;
use mlcg_par::exec::HOST_GRAIN;
use mlcg_par::{parallel_for, profile, Backend, ExecPolicy, TraceCollector};
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Maximum alternating-direction rounds per refinement.
const MAX_ROUNDS: usize = 12;

/// Parallel refinement tuning.
#[derive(Clone, Debug)]
pub struct ParRefConfig {
    /// Allowed imbalance of the heavier side vs `total/2`.
    pub epsilon: f64,
    /// Frontier size above which the hybrid multilevel driver runs
    /// parallel rounds before the sequential boundary pass. `None`
    /// derives the threshold from the dispatch economics:
    /// `HOST_GRAIN × workers` (a smaller frontier can't amortize waking
    /// the pool — see the PR 4 wakeup findings in DESIGN §8).
    pub crossover_frontier: Option<usize>,
    /// Stop the round loop once the rebuilt frontier drops below this
    /// size and hand the residue to the sequential polish.
    /// [`rounds_then_polish`] sets this to its crossover threshold so the
    /// crossover holds *per round*, not just at entry — once the frontier
    /// has shrunk past the point where a dispatch pays for itself, further
    /// rounds only delay the polish. `0` (the default) never hands off:
    /// the rounds run to convergence.
    pub handoff_frontier: usize,
}

impl Default for ParRefConfig {
    fn default() -> Self {
        ParRefConfig {
            epsilon: 0.02,
            crossover_frontier: None,
            handoff_frontier: 0,
        }
    }
}

impl ParRefConfig {
    /// The frontier size at which the hybrid driver switches from the
    /// sequential boundary pass to parallel rounds under `policy`.
    pub fn crossover_threshold(&self, policy: &ExecPolicy) -> usize {
        self.crossover_frontier
            .unwrap_or_else(|| HOST_GRAIN.saturating_mul(policy.threads.max(1)))
    }
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
    /// `moved_stamp[u] == round_epoch` marks `u` as a mover this round.
    moved_stamp: Vec<AtomicU32>,
    /// `dedup_stamp[u] == dedup_epoch` marks membership in `frontier`.
    dedup_stamp: Vec<u32>,
    /// Per-frontier-index round verdict: 0 drop (interior), 1 keep
    /// (boundary), 2 mover. Sized to the frontier, not the graph.
    code: Vec<AtomicU8>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Every committed flip (rounds and repair), in order; replaying the
    /// flips restores the entry partition exactly.
    move_log: Vec<u32>,
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
            self.moved_stamp.resize_with(n, || AtomicU32::new(0));
            self.dedup_stamp.resize(n, 0);
        }
    }

    fn bump_round(&mut self) -> u32 {
        if self.round_epoch == u32::MAX {
            for s in &self.moved_stamp {
                s.store(0, Ordering::Relaxed);
            }
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
    /// `seed_frontier` for [`fm_refine`] or for projection one level down.
    pub frontier: Vec<u32>,
}

/// Frontier-based parallel refinement rounds at a fixed level — the
/// engine behind [`rounds_then_polish`].
///
/// `seed_frontier`, when given, must cover every vertex with a cut edge
/// (a superset is fine); `None` seeds all of `0..n`. `vertex_slack`
/// mirrors [`FmConfig::vertex_slack`]: coarse levels grant the heavier
/// side one max-vertex of extra slack. Each round emits a
/// `parref/frontier_size` gauge and bumps the `parref/rounds` counter;
/// the fused dispatches are profiled as `par_for/parref/gain` and
/// `par_for/parref/apply`.
#[allow(clippy::too_many_arguments)]
pub fn parallel_refine_rounds(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    cfg: &ParRefConfig,
    frac: f64,
    vertex_slack: bool,
    seed_frontier: Option<&[u32]>,
    ws: &mut ParRefWorkspace,
    trace: &TraceCollector,
) -> ParRefOutcome {
    let n = g.n();
    assert_eq!(part.len(), n);
    if n == 0 {
        return ParRefOutcome {
            cut: 0,
            frontier: Vec::new(),
        };
    }
    let _kernel = profile::kernel("parref");
    let _mem = trace.heap_scope(|| "parref".to_string());
    let bal = Balance::new(g, cfg.epsilon, vertex_slack, frac);

    let mut wpart = [0u64; 2];
    for (u, &p) in part.iter().enumerate() {
        wpart[p as usize] += g.vwgt()[u];
    }

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

    // Entry cut from external weight over the frontier: the frontier
    // covers the boundary, so each cut edge is counted at both endpoints.
    // This is the only cut derivation in the function — the round loop
    // maintains it incrementally.
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
        // Dynamic crossover: a frontier this small no longer pays for a
        // round — leave the residue to the caller's sequential polish.
        if round > 0 && flen < cfg.handoff_frontier {
            break;
        }
        let from = (round % 2) as u32;
        let to = 1 - from;
        trace.gauge_usize(|| "parref/frontier_size".to_string(), flen);
        trace.counter_add("parref/rounds", 1);
        let epoch = ws.bump_round();
        if ws.code.len() < flen {
            ws.code.resize_with(flen, AtomicU8::default);
        }
        // Budget: how much weight the target side may still absorb. One
        // extra max-vertex of slack past the strict limit lets perfectly
        // balanced partitions trade (the opposite round direction — or
        // the final repair phase — restores them).
        let budget = AtomicU64::new(bal.loose[to as usize].saturating_sub(wpart[to as usize]));
        let ext_sum = AtomicU64::new(0);
        let gain_sum = AtomicI64::new(0);
        let mover_count = AtomicUsize::new(0);
        {
            // Fused gain-compute + budget-claim dispatch over the frontier
            // array. `part` is read-only here, so every gain is computed
            // against the round-start partition by construction — no
            // snapshot copy needed.
            let _k = profile::kernel("gain");
            let frontier = &ws.frontier;
            let code = &ws.code;
            let moved = &ws.moved_stamp;
            let part_ro: &[u32] = part;
            parallel_for(policy, flen, |i| {
                let u = frontier[i] as usize;
                let pu = part_ro[u];
                let mut gain = 0i64;
                let mut extw = 0u64;
                for (v, w) in g.edges(u as VId) {
                    if part_ro[v as usize] == pu {
                        gain -= w as i64;
                    } else {
                        gain += w as i64;
                        extw += w;
                    }
                }
                ext_sum.fetch_add(extw, Ordering::Relaxed);
                code[i].store(u8::from(extw > 0), Ordering::Relaxed);
                if pu != from || gain <= 0 {
                    return;
                }
                // Positive gain implies a cut edge, so u is boundary.
                // Claim weight from the budget.
                let vw = g.vwgt()[u];
                let mut cur = budget.load(Ordering::Relaxed);
                loop {
                    if cur < vw {
                        return;
                    }
                    match budget.compare_exchange_weak(
                        cur,
                        cur - vw,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(now) => cur = now,
                    }
                }
                moved[u].store(epoch, Ordering::Relaxed);
                code[i].store(2, Ordering::Relaxed);
                gain_sum.fetch_add(gain, Ordering::Relaxed);
                mover_count.fetch_add(1, Ordering::Relaxed);
            });
        }
        // The frontier-covers-boundary invariant makes the summed external
        // weight exactly twice the tracked cut, every round.
        debug_assert_eq!(
            ext_sum.load(Ordering::Relaxed),
            2 * cut,
            "frontier no longer covers the boundary"
        );

        if mover_count.load(Ordering::Relaxed) == 0 {
            // Nothing to move in this direction; shrink the frontier to
            // its boundary members and try the other direction once more.
            rebuild_frontier(g, ws, flen, false);
            empty_streak += 1;
            if empty_streak >= 2 {
                break; // neither direction has positive-gain moves left
            }
            continue;
        }
        empty_streak = 0;

        // Fused apply dispatch: flip the movers and accumulate the
        // interference term — for each mover, the weight of its edges to
        // other movers (each mover–mover edge is counted twice, which is
        // exactly the 2·w(S,S) the cut algebra needs). Mover identity
        // comes from the epoch stamps written by the gain pass, so the
        // concurrent part[] stores never feed back into this scan.
        let moved_w = AtomicU64::new(0);
        let interference = AtomicU64::new(0);
        {
            let _k = profile::kernel("apply");
            let frontier = &ws.frontier;
            let code = &ws.code;
            let moved = &ws.moved_stamp;
            let part_atomic = as_atomic_u32(part);
            parallel_for(policy, flen, |i| {
                if code[i].load(Ordering::Relaxed) != 2 {
                    return;
                }
                let u = frontier[i] as usize;
                part_atomic[u].store(to, Ordering::Relaxed);
                moved_w.fetch_add(g.vwgt()[u], Ordering::Relaxed);
                let mut s = 0u64;
                for (v, w) in g.edges(u as VId) {
                    if moved[v as usize].load(Ordering::Relaxed) == epoch {
                        s += w;
                    }
                }
                interference.fetch_add(s, Ordering::Relaxed);
            });
        }
        let moved_weight = moved_w.load(Ordering::Relaxed);
        wpart[from as usize] -= moved_weight;
        wpart[to as usize] += moved_weight;
        // Incremental cut: predicted gains plus the interference
        // correction (see the module docs for the derivation). Both terms
        // are nonnegative, so this can only decrease the cut; the rollback
        // below is a defensive guard, not an expected path.
        let new_cut = cut as i64
            - gain_sum.load(Ordering::Relaxed)
            - interference.load(Ordering::Relaxed) as i64;
        if new_cut < 0 || new_cut as u64 > cut || wpart[to as usize] > bal.loose[to as usize] {
            for i in 0..flen {
                if ws.code[i].load(Ordering::Relaxed) == 2 {
                    part[ws.frontier[i] as usize] = from;
                }
            }
            wpart[from as usize] += moved_weight;
            wpart[to as usize] -= moved_weight;
            rebuild_frontier(g, ws, flen, false);
            break;
        }
        cut = new_cut as u64;
        debug_assert_eq!(cut, edge_cut(g, part), "incremental cut drifted");
        rebuild_frontier(g, ws, flen, true);
    }

    // Balance repair: rounds may leave up to one max-vertex of overshoot
    // past the strict envelope (the budget's trade slack). Move best-gain
    // vertices off the over-limit side until the excess is back down to
    // its entry value — 0 for a feasible entry, so the rounds alone end
    // inside the envelope. Pre-existing infeasibility (an interpolated
    // partition can exceed the finer level's strict limits, whose vertex
    // slack shrinks with the finer max_vwgt) is deliberately NOT repaired
    // here: greedy excess-reduction on a dense graph moves vertices at
    // ruinous gains, while the sequential FM polish that follows in
    // `rounds_then_polish` repairs balance through its best-prefix
    // selection, jointly optimizing the cut.
    if bal.excess(&wpart) > entry_key.0 {
        repair_balance(g, part, &mut wpart, &bal, entry_key.0, &mut cut, ws);
    }
    // Repair moves can raise the cut; if the end state is lexicographically
    // worse than the entry in (excess, cut), undo everything — replaying
    // the move log restores the entry partition exactly, which by
    // assumption satisfied the better key.
    if (bal.excess(&wpart), cut) > entry_key {
        for &u in ws.move_log.iter().rev() {
            let ui = u as usize;
            let side = part[ui] as usize;
            part[ui] = 1 - part[ui];
            wpart[side] -= g.vwgt()[ui];
            wpart[1 - side] += g.vwgt()[ui];
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
    debug_assert_eq!(cut, edge_cut(g, part), "final cut drifted");
    ParRefOutcome {
        cut,
        frontier: ws.frontier.clone(),
    }
}

/// Build the next frontier in `O(frontier + moved · deg)`: pre-move
/// boundary members stay, movers stay, and (when the round was `applied`)
/// movers' neighbors join and the movers are appended to the move log.
/// Dropped members are interior vertices not adjacent to any mover, whose
/// external weight cannot have changed.
fn rebuild_frontier(g: &Csr, ws: &mut ParRefWorkspace, flen: usize, applied: bool) {
    let epoch = ws.bump_dedup();
    let ParRefWorkspace {
        frontier,
        next,
        dedup_stamp,
        code,
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
            move_log.push(u);
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

/// Sequential greedy balance repair: while the excess exceeds
/// `target_excess`, move the best-gain vertex whose move strictly reduces
/// the excess. Candidates come from the frontier first (it contains the
/// movers that caused any overshoot); a full scan is the fallback for
/// degenerate entries whose over-limit side has no frontier vertex.
/// Every move is logged and the frontier is extended to keep covering
/// the boundary.
fn repair_balance(
    g: &Csr,
    part: &mut [u32],
    wpart: &mut [u64; 2],
    bal: &Balance,
    target_excess: u64,
    cut: &mut u64,
    ws: &mut ParRefWorkspace,
) {
    loop {
        let excess = bal.excess(wpart);
        if excess <= target_excess {
            return;
        }
        let mut best: Option<(i64, u32)> = None;
        let scan = |candidates: &mut dyn Iterator<Item = u32>, best: &mut Option<(i64, u32)>| {
            for u in candidates {
                let ui = u as usize;
                let side = part[ui] as usize;
                if wpart[side] <= bal.strict[side] {
                    continue; // not on an over-limit side
                }
                let vw = g.vwgt()[ui];
                let moved = [
                    wpart[0] - if side == 0 { vw } else { 0 } + if side == 1 { vw } else { 0 },
                    wpart[1] - if side == 1 { vw } else { 0 } + if side == 0 { vw } else { 0 },
                ];
                if bal.excess(&moved) >= excess {
                    continue; // move would not reduce the excess
                }
                let mut gain = 0i64;
                for (v, w) in g.edges(u) {
                    if part[v as usize] as usize == side {
                        gain -= w as i64;
                    } else {
                        gain += w as i64;
                    }
                }
                if best.is_none() || gain > best.unwrap().0 {
                    *best = Some((gain, u));
                }
            }
        };
        scan(&mut ws.frontier.iter().copied(), &mut best);
        if best.is_none() {
            scan(&mut (0..g.n() as u32), &mut best);
        }
        let Some((gain, u)) = best else {
            return; // no move reduces the excess (infeasible weights)
        };
        let ui = u as usize;
        let side = part[ui] as usize;
        part[ui] = 1 - part[ui];
        wpart[side] -= g.vwgt()[ui];
        wpart[1 - side] += g.vwgt()[ui];
        *cut = (*cut as i64 - gain) as u64;
        ws.move_log.push(u);
        // Keep the frontier covering the boundary: the flip can create
        // cut edges at u and its neighbors.
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

/// One bisection refinement through the crossover. On a parallel policy
/// whose entry frontier (`seed_frontier`, or all `n` vertices when `None`)
/// holds at least `crossover` vertices, the frontier rounds strip the bulk
/// positive gains first, handing off once the frontier shrinks below
/// `crossover`; the sequential boundary FM then polishes from the rounds'
/// final frontier. Below the crossover the sequential FM runs alone from
/// `seed_frontier`.
///
/// This is the per-level step of the hybrid uncoarsening
/// ([`crate::fm::fm_uncoarsen_frac_hybrid`]) and the spectral FM polish.
/// The crossover is normally [`ParRefConfig::crossover_threshold`].
#[allow(clippy::too_many_arguments)]
pub fn rounds_then_polish(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    fm_cfg: &FmConfig,
    crossover: usize,
    frac: f64,
    seed_frontier: Option<&[u32]>,
    ws: &mut ParRefWorkspace,
    trace: &TraceCollector,
) -> FmRefineOutcome {
    let entry = seed_frontier.map_or(g.n(), <[u32]>::len);
    if policy.backend == Backend::Serial || entry < crossover {
        return fm_refine(g, part, fm_cfg, frac, seed_frontier, trace);
    }
    let cfg = ParRefConfig {
        epsilon: fm_cfg.epsilon,
        handoff_frontier: crossover,
        ..ParRefConfig::default()
    };
    let rounds = parallel_refine_rounds(
        policy,
        g,
        part,
        &cfg,
        frac,
        fm_cfg.vertex_slack,
        seed_frontier,
        ws,
        trace,
    );
    fm_refine(g, part, fm_cfg, frac, Some(&rounds.frontier), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;
    use mlcg_graph::metrics::part_weights;
    use mlcg_par::rng::Xoshiro256pp;

    /// Flat rounds over every vertex at a 50/50 split, no vertex slack.
    fn rounds(policy: &ExecPolicy, g: &Csr, part: &mut [u32], cfg: &ParRefConfig) -> ParRefOutcome {
        let trace = TraceCollector::disabled();
        let mut ws = ParRefWorkspace::new();
        parallel_refine_rounds(policy, g, part, cfg, 0.5, false, None, &mut ws, &trace)
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
            let after = rounds(&policy, &g, &mut part, &ParRefConfig::default()).cut;
            assert!(after <= before, "{policy}: {before} -> {after}");
            assert_eq!(after, edge_cut(&g, &part));
        }
    }

    #[test]
    fn respects_balance_envelope() {
        let g = gen::complete(16);
        let mut part: Vec<u32> = (0..16).map(|i| u32::from(i >= 8)).collect();
        let cfg = ParRefConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        let out = rounds(&ExecPolicy::host(), &g, &mut part, &cfg);
        let polish = FmConfig {
            max_passes: 2,
            epsilon: 0.0,
            vertex_slack: false,
        };
        let trace = TraceCollector::disabled();
        fm_refine(&g, &mut part, &polish, 0.5, Some(&out.frontier), &trace);
        let (w0, w1) = part_weights(&g, &part);
        assert_eq!(w0.max(w1), 8, "eps 0 requires exact balance on even totals");
    }

    #[test]
    fn no_polish_still_repairs_to_the_envelope() {
        // Regression: the pre-rewrite refiner's budget granted one
        // max-vertex of slack past the limit and never repaired it, so
        // the rounds alone could return a partition exceeding the epsilon
        // envelope by up to max_vwgt. The repair phase must restore the
        // strict envelope — here eps 0 on an even total, so exact
        // balance — without worsening the cut.
        let g = gen::complete(16);
        for policy in ExecPolicy::all_test_policies() {
            let mut part: Vec<u32> = (0..16).map(|i| u32::from(i >= 8)).collect();
            let before = edge_cut(&g, &part);
            let cfg = ParRefConfig {
                epsilon: 0.0,
                ..Default::default()
            };
            let after = rounds(&policy, &g, &mut part, &cfg).cut;
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
        let cfg = ParRefConfig::default();
        for &(w, h) in &[(20usize, 20usize), (8, 8), (16, 16)] {
            let g = gen::grid2d(w, h);
            let mut rng = Xoshiro256pp::new((w * h) as u64);
            let mut part: Vec<u32> = (0..g.n()).map(|_| rng.next_below(2) as u32).collect();
            let before = edge_cut(&g, &part);
            let out = parallel_refine_rounds(
                &policy, &g, &mut part, &cfg, 0.5, true, None, &mut ws, &trace,
            );
            assert_eq!(out.cut, edge_cut(&g, &part));
            assert!(out.cut <= before);
        }
    }

    #[test]
    fn empty_graph() {
        let g = mlcg_graph::Csr::empty();
        let mut part: Vec<u32> = vec![];
        let out = rounds(&ExecPolicy::host(), &g, &mut part, &Default::default());
        assert_eq!(out.cut, 0);
    }
}
