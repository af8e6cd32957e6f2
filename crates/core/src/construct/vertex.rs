//! Vertex-centric coarse-graph construction (the paper's Algorithm 6),
//! built one coarse row at a time.
//!
//! Algorithm 6 scatters every fine adjacency entry into a staging array
//! keyed by coarse row, deduplicates each segment, and — with the
//! degree-based skew optimization — transposes the surviving half back
//! into both directions; every stage re-reads or re-sorts what the last
//! one wrote. Here each coarse row is built once, from its aggregate's
//! members, in three steps:
//!
//! 1. **Group** (`group` kernel). A stable counting sort of `map` lists
//!    each aggregate's fine members; a row pass sums member degrees into
//!    each row's *work*, prefix-summed for balancing.
//! 2. **Build rows** (`rows`). Rows are cut into tasks of about equal
//!    work, claimed dynamically. A task reads each member's adjacency
//!    exactly once and folds the row's `(neighbour, weight)` pairs in a
//!    per-participant accumulator picked by [`Dedup`]: sort the pairs once
//!    and merge runs (a bitonic network under device-sim); open
//!    addressing; or, for [`Dedup::Hybrid`], hashing only rows longer than
//!    [`HYBRID_HASH_CUTOFF`]. A row whose work exceeds one task's share is
//!    split by member range and its sorted pieces are merged (`merge`), so
//!    hub aggregates never serialize one worker.
//! 3. **Place** (`place`). A scan of the row lengths gives the output
//!    offsets, and a parallel copy moves each task's rows into the CSR.
//!
//! The degree-based skew optimization keeps its knob and its meaning: each
//! row accumulates only its kept half — entries whose far aggregate has
//! more member-degree work (ties on aggregate id) — and the mirror half
//! comes from a deterministic counting transpose (`transpose`) that writes
//! every row's mirror entries, already sorted, straight into the output.
//! `place` then merges the kept run in from the back: no atomics, no
//! re-sort. Either way the fine adjacency is read once per level.
//!
//! The output is the canonical coarse graph (sorted rows, exact `u64`
//! weight sums), so it is bit-identical across policies, flavours, skew
//! thresholds, and workspace reuse. All level scratch lives in
//! [`ConstructWorkspace`].
//!
//! Level-0 build seconds, staged pipeline → one-pass row build (HEC
//! mappings; 2-worker host policy on a 2-core x86-64 VM; per round the
//! median of 15 builds, then the median of 5 alternating rounds):
//!
//! | graph | sort | hash | hybrid |
//! |---|---|---|---|
//! | kron: R-MAT 2¹⁶ LCC, skew path | 0.108 → 0.026 | 0.106 → 0.031 | 0.104 → 0.029 |
//! | rmat-15 LCC, skew path | 0.031 → 0.0068 | 0.029 → 0.0084 | 0.028 → 0.0070 |
//! | mesh: 27-point 24³, plain path | 0.016 → 0.0066 | 0.014 → 0.0086 | 0.017 → 0.0068 |
//! | grid 512², plain path | 0.040 → 0.032 | 0.048 → 0.042 | 0.039 → 0.033 |
//! | path 2¹⁶, plain path | 0.0032 → 0.0038 | 0.0037 → 0.0046 | 0.0031 → 0.0034 |
//!
//! The path row is the one loss: with two edges per vertex the per-vertex
//! passes and the aggregate-order reads of member adjacency dominate.

use super::{ConstructOptions, ConstructWorkspace};
use crate::mapping::Mapping;
use mlcg_graph::{Csr, Offsets, VId, Weight};
use mlcg_par::scan::exclusive_scan;
use mlcg_par::{
    parallel_for_chunks, parallel_for_mut, parallel_for_weighted, parallel_for_weighted_mut, pool,
    profile, ExecPolicy, TraceCollector,
};
use std::ops::Range;
use std::sync::Mutex;

/// Per-row accumulator flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dedup {
    /// Sort the row's pairs, then merge runs of equal neighbours.
    Sort,
    /// Open-addressing hash table accumulating weights per neighbour.
    Hash,
    /// Per-row choice: hash long rows (where duplication dominates), sort
    /// short ones — the paper's future-work hybrid.
    Hybrid,
}

/// Raw row length above which [`Dedup::Hybrid`] switches to hashing: long
/// rows come from aggregates with many incident fine edges, exactly where
/// the duplication factor grows. Chosen by a {32, 64, 128, 256, 512}
/// sweep of median hybrid-construct time on rmat-15 LCC and grid-512 with
/// SeqHec mappings; methodology in DESIGN §8.
pub const HYBRID_HASH_CUTOFF: usize = 256;

/// Row-build tasks per participant: enough for dynamic claiming to even
/// out rows whose work estimate misses their real cost.
const TASKS_PER_THREAD: usize = 8;

/// Per-block histograms (counting sorts) and per-participant accumulators
/// (vertex weights) are used when the combined footprint
/// (`n_coarse × participants` words) stays within a small multiple of the
/// traversal size itself; beyond that the memory would outgrow the pass
/// it serves.
pub(crate) fn use_histograms(threads: usize, nc: usize, n: usize) -> bool {
    threads > 1 && nc.saturating_mul(threads) <= (4 * n).max(1 << 16)
}

/// Level-reused scratch of the row build (see
/// [`ConstructWorkspace`]). Buffers are `clear()`+`resize()`d per use, so
/// only capacity survives a call.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Member offsets per aggregate (`nc + 1`).
    start: Vec<usize>,
    /// Fine vertices grouped by aggregate, ascending within each.
    members: Vec<VId>,
    /// Exclusive prefix of per-row work (member-degree sums), `nc + 1`;
    /// once the rows are built, the output offsets.
    wpre: Vec<usize>,
    /// Per-block histograms, then cursors, of the counting sorts.
    hist: Vec<usize>,
    tasks: Vec<Task>,
    /// Task ranges of rows split into several pieces.
    splits: Vec<Range<usize>>,
    /// One finished run per task.
    runs: Vec<Run>,
    /// Pooled per-participant accumulators.
    accs: Vec<Acc>,
}

/// A row-build task: rows `rows`, restricted to member positions
/// `members` (whole rows, or one piece of a split row).
struct Task {
    rows: Range<usize>,
    members: Range<usize>,
}

/// A task's finished rows: sorted, merged entries back to back, row
/// `rows.start + i` holding the next `lens[i]` (a row has fewer entries
/// than `n_coarse`, so `u32` always fits).
#[derive(Default)]
struct Run {
    rows: Range<usize>,
    lens: Vec<u32>,
    adj: Vec<VId>,
    wgt: Vec<Weight>,
}

impl Run {
    fn reset(&mut self, rows: Range<usize>) {
        self.rows = rows;
        self.lens.clear();
        self.adj.clear();
        self.wgt.clear();
    }

    /// `(row, entry range)` of every row in the run.
    fn rows(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let mut at = 0;
        self.rows.clone().zip(&self.lens).map(move |(c, &l)| {
            at += l as usize;
            (c, at - l as usize..at)
        })
    }

    /// Append `pairs`, sorted by neighbour, as the next row, summing the
    /// weights of equal neighbours.
    fn push_row(&mut self, pairs: &[(VId, Weight)]) {
        let base = self.adj.len();
        if let Some(&(v0, _)) = pairs.first() {
            // Branch-free merge into zeroed slots: `o` advances on every new
            // neighbour, and each pair adds its weight at `o`.
            self.adj.resize(base + pairs.len(), 0);
            self.wgt.resize(base + pairs.len(), 0);
            let (adj, wgt) = (&mut self.adj[base..], &mut self.wgt[base..]);
            let (mut o, mut last) = (0, v0);
            for &(v, w) in pairs {
                o += (v != last) as usize;
                last = v;
                adj[o] = v;
                wgt[o] += w;
            }
            self.adj.truncate(base + o + 1);
            self.wgt.truncate(base + o + 1);
        }
        self.lens.push((self.adj.len() - base) as u32);
    }
}

/// Per-participant row accumulator: a grow-only pair buffer (a row's
/// pairs are its first `len` slots) and the hash arena, plus a locally
/// counted probe total flushed once per level.
#[derive(Default)]
struct Acc {
    buf: Vec<(VId, Weight)>,
    table: Vec<(VId, Weight)>,
    collisions: u64,
}

impl Acc {
    /// Gather the `(neighbour, weight)` pairs of row `c` from `members`
    /// (whose degrees sum to `work`) that `keep` accepts, branch-free:
    /// every entry is written, and only kept ones advance the length.
    /// Returns the pair count.
    fn gather(
        &mut self,
        g: &Csr,
        map: &[u32],
        members: &[VId],
        work: usize,
        c: usize,
        keep: impl Fn(usize) -> bool,
    ) -> usize {
        if self.buf.len() < work {
            self.buf.resize(work, (0, 0));
        }
        let buf = &mut self.buf[..work];
        let (adj, wgt, xadj) = (g.adj(), g.wgt(), g.offsets());
        let mut len = 0;
        for &u in members {
            let r = xadj.range(u as usize);
            for (&v, &w) in adj[r.clone()].iter().zip(&wgt[r]) {
                let cv = map[v as usize] as usize;
                buf[len] = (cv as VId, w);
                len += ((cv != c) & keep(cv)) as usize;
            }
        }
        len
    }

    /// Reduce the first `len` pairs to one sorted entry per neighbour
    /// (equal neighbours left adjacent, summed by [`Run::push_row`]);
    /// returns the surviving count.
    fn dedup(&mut self, len: usize, dedup: Dedup, device: bool) -> usize {
        let hash = match dedup {
            Dedup::Sort => false,
            Dedup::Hash => true,
            Dedup::Hybrid => len > HYBRID_HASH_CUTOFF,
        };
        let len = if hash && len > 1 {
            self.hash_merge(len)
        } else {
            len
        };
        sort_pairs(device, &mut self.buf, len);
        len
    }

    /// Open-addressing accumulate-by-neighbour of the first `len` pairs;
    /// leaves the distinct pairs (unsorted) at the front of the buffer and
    /// returns their count. `collisions` counts probe steps past an
    /// occupied slot holding a *different* neighbour.
    fn hash_merge(&mut self, len: usize) -> usize {
        const EMPTY: VId = VId::MAX;
        let cap = (2 * len).next_power_of_two();
        let mask = cap - 1;
        self.table.clear();
        self.table.resize(cap, (EMPTY, 0));
        for &(v, w) in &self.buf[..len] {
            let mut slot = (mlcg_par::rng::mix(v as u64) as usize) & mask;
            loop {
                let s = &mut self.table[slot];
                if s.0 == EMPTY {
                    *s = (v, w);
                    break;
                }
                if s.0 == v {
                    s.1 += w;
                    break;
                }
                self.collisions += 1;
                slot = (slot + 1) & mask;
            }
        }
        let mut d = 0;
        for &s in &self.table {
            if s.0 != EMPTY {
                self.buf[d] = s;
                d += 1;
            }
        }
        d
    }
}

/// Sort the first `len` pairs of `buf` by neighbour: pattern-defeating
/// quicksort on the host; under device-sim a bitonic network, the shape a
/// GPU team-level sort runs. Equal neighbours end up adjacent in any order.
fn sort_pairs(device: bool, buf: &mut Vec<(VId, Weight)>, len: usize) {
    if !device || len <= 16 {
        buf[..len].sort_unstable_by_key(|p| p.0);
        return;
    }
    let m = len.next_power_of_two();
    if buf.len() < m {
        buf.resize(m, (0, 0));
    }
    // Coarse ids are < n_coarse <= u32::MAX, so this padding sinks to the tail.
    buf[len..m].fill((VId::MAX, 0));
    let pairs = &mut buf[..m];
    let mut k = 2;
    while k <= m {
        let mut j = k / 2;
        while j >= 1 {
            for i in 0..m {
                let l = i ^ j;
                if l > i && (pairs[i].0 > pairs[l].0) == (i & k == 0) {
                    pairs.swap(i, l);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Pass 1 of a stable parallel counting sort over `nblocks` ordered blocks
/// into `nbuckets` buckets: `count(b, h)` adds block `b`'s items to its
/// own zeroed histogram row `h`. Returns the histogram rows with the
/// column totals in `offs[..nbuckets]` (`offs[nbuckets] = 0`, so an
/// exclusive scan leaves the grand total there).
fn block_counts<'h>(
    policy: &ExecPolicy,
    items: usize,
    nblocks: usize,
    nbuckets: usize,
    hist: &'h mut Vec<usize>,
    offs: &mut Vec<usize>,
    count: impl Fn(usize, &mut [usize]) + Sync,
) -> Vec<&'h mut [usize]> {
    hist.clear();
    hist.resize(nblocks * nbuckets, 0);
    let mut rows: Vec<&mut [usize]> = hist.chunks_mut(nbuckets).collect();
    parallel_for_weighted_mut(policy, items, &mut rows, |b, h| count(b, h));
    offs.clear();
    offs.resize(nbuckets + 1, 0);
    let view: &[&mut [usize]] = &rows;
    parallel_for_mut(policy, &mut offs[..nbuckets], |k, o| {
        *o = view.iter().map(|h| h[k]).sum();
    });
    rows
}

/// Pass 2, after the caller scanned `offs` into bucket starts: each
/// histogram row becomes its block's first slot in every bucket, so a fill
/// that visits every block's items in order places each bucket stably —
/// the same layout under every policy and schedule.
fn block_cursors(policy: &ExecPolicy, rows: &mut [&mut [usize]], offs: &[usize]) {
    let nbuckets = offs.len() - 1;
    let bases: Vec<usize> = rows.iter_mut().map(|h| h.as_mut_ptr() as usize).collect();
    parallel_for_chunks(policy, nbuckets, |r| {
        for k in r {
            let mut at = offs[k];
            for &b in &bases {
                // SAFETY: column `k` of every row is touched only by the
                // chunk holding `k`; the rows are exclusively borrowed.
                unsafe {
                    let p = (b as *mut usize).add(k);
                    let c = *p;
                    *p = at;
                    at += c;
                }
            }
        }
    });
}

/// Cut rows into tasks of about `share` work each; a row above one share
/// is split by member range (its task range is recorded in `splits`).
fn plan(share: usize, xadj: &Offsets, sc: &mut Scratch) {
    let Scratch {
        start,
        members,
        wpre,
        tasks,
        splits,
        ..
    } = sc;
    let nc = start.len() - 1;
    tasks.clear();
    splits.clear();
    let mut r = 0;
    while r < nc {
        if wpre[r + 1] - wpre[r] > share {
            let first = tasks.len();
            let (mut lo, mut acc) = (start[r], 0);
            for (i, &u) in members.iter().enumerate().take(start[r + 1]).skip(start[r]) {
                acc += xadj.range(u as usize).len();
                if acc >= share {
                    tasks.push(Task {
                        rows: r..r + 1,
                        members: lo..i + 1,
                    });
                    (lo, acc) = (i + 1, 0);
                }
            }
            if lo < start[r + 1] {
                tasks.push(Task {
                    rows: r..r + 1,
                    members: lo..start[r + 1],
                });
            }
            if tasks.len() - first > 1 {
                splits.push(first..tasks.len());
            }
            r += 1;
        } else {
            // Whole rows while the cumulative work stays within one share.
            let limit = wpre[r].saturating_add(share);
            let end = r + wpre[r + 1..].partition_point(|&w| w <= limit);
            tasks.push(Task {
                rows: r..end,
                members: start[r]..start[end],
            });
            r = end;
        }
    }
}

/// Build the coarse graph of `mapping`. The trace sink receives
/// `construct/edges_scanned` (the fine adjacency, read once) and
/// `construct/hash_collisions`; `ws` supplies the level-reused scratch.
pub fn construct(
    policy: &ExecPolicy,
    g: &Csr,
    mapping: &Mapping,
    dedup: Dedup,
    opts: &ConstructOptions,
    trace: &TraceCollector,
    ws: &mut ConstructWorkspace,
) -> Csr {
    let _k = profile::kernel("construct");
    let n = g.n();
    let nc = mapping.n_coarse;
    if nc == 0 {
        return Csr::from_offsets(Offsets::U32(vec![0]), Vec::new(), Vec::new());
    }
    let map = &mapping.map;
    let (adj, xadj) = (g.adj(), g.offsets());
    let use_opt = g.skew_ratio() > opts.degree_dedup_skew_threshold;
    let device = policy.is_device();
    let team = |items: usize| {
        if pool::in_worker() {
            1
        } else {
            policy.effective_threads(items)
        }
    };
    trace.counter_add("construct/edges_scanned", adj.len() as u64);
    let sc = &mut ws.rows;

    // Step 1: group members by aggregate, then sum each row's work.
    {
        let _k = profile::kernel("group");
        let t = team(n);
        let nblocks = if use_histograms(t, nc, n) { t } else { 1 };
        let block = |b: usize| b * n / nblocks..(b + 1) * n / nblocks;
        let mut rows = block_counts(
            policy,
            n,
            nblocks,
            nc,
            &mut sc.hist,
            &mut sc.start,
            |b, h| {
                for u in block(b) {
                    h[map[u] as usize] += 1;
                }
            },
        );
        exclusive_scan(policy, &mut sc.start);
        block_cursors(policy, &mut rows, &sc.start);
        sc.members.clear();
        sc.members.resize(n, 0);
        let base = sc.members.as_mut_ptr() as usize;
        parallel_for_weighted_mut(policy, n, &mut rows, |b, cur| {
            for u in block(b) {
                let c = map[u] as usize;
                // SAFETY: counting-sort slots are unique, and `members`
                // is exclusively borrowed for the dispatch.
                unsafe { (base as *mut VId).add(cur[c]).write(u as VId) };
                cur[c] += 1;
            }
        });
        sc.wpre.clear();
        sc.wpre.resize(nc + 1, 0);
        let (start, members) = (&sc.start, &sc.members);
        parallel_for_mut(policy, &mut sc.wpre[..nc], |c, w| {
            *w = members[start[c]..start[c + 1]]
                .iter()
                .map(|&u| xadj.range(u as usize).len())
                .sum();
        });
        exclusive_scan(policy, &mut sc.wpre);
    }

    // Step 2: build rows over tasks of about equal work.
    let t = team(adj.len());
    let share = if t > 1 {
        adj.len().div_ceil(t * TASKS_PER_THREAD).max(1)
    } else {
        usize::MAX
    };
    plan(share, xadj, sc);
    let Scratch {
        start,
        members,
        wpre,
        hist,
        tasks,
        splits,
        runs,
        accs,
    } = sc;
    if runs.len() < tasks.len() {
        runs.resize_with(tasks.len(), Run::default);
    }
    let runs = &mut runs[..tasks.len()];
    let accs_m = Mutex::new(std::mem::take(accs));
    let with_acc = |f: &mut dyn FnMut(&mut Acc)| {
        let mut acc = accs_m.lock().expect("acc pool").pop().unwrap_or_default();
        f(&mut acc);
        accs_m.lock().expect("acc pool").push(acc);
    };
    {
        let _k = profile::kernel("rows");
        // Row rank for the skew path's kept half: member-degree work,
        // ties on aggregate id.
        let rank = |c: usize| ((wpre[c + 1] - wpre[c]) as u128) << 64 | c as u128;
        let (start, members, tasks) = (&*start, &*members, &*tasks);
        parallel_for_weighted_mut(policy, adj.len(), runs, |ti, run| {
            let task = &tasks[ti];
            run.reset(task.rows.clone());
            with_acc(&mut |acc| {
                for c in task.rows.clone() {
                    let lo = start[c].max(task.members.start);
                    let hi = start[c + 1].min(task.members.end);
                    let piece = &members[lo..hi];
                    let work = if hi - lo == start[c + 1] - start[c] {
                        wpre[c + 1] - wpre[c]
                    } else {
                        piece.iter().map(|&u| xadj.range(u as usize).len()).sum()
                    };
                    let len = if use_opt {
                        let rc = rank(c);
                        acc.gather(g, map, piece, work, c, |cv| rc < rank(cv))
                    } else {
                        acc.gather(g, map, piece, work, c, |_| true)
                    };
                    let len = acc.dedup(len, dedup, device);
                    run.push_row(&acc.buf[..len]);
                }
            });
        });
    }
    if !splits.is_empty() {
        // Merge each split row's sorted pieces into its first piece's run;
        // the later pieces become empty runs.
        let _k = profile::kernel("merge");
        let mut groups: Vec<&mut [Run]> = Vec::with_capacity(splits.len());
        let mut rest = &mut runs[..];
        let mut at = 0;
        for s in splits.iter() {
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(s.start - at);
            let (group, tail) = tail.split_at_mut(s.len());
            groups.push(group);
            (rest, at) = (tail, s.end);
        }
        parallel_for_weighted_mut(policy, adj.len(), &mut groups, |_, group| {
            with_acc(&mut |acc| {
                acc.buf.clear();
                for piece in group.iter() {
                    acc.buf
                        .extend(piece.adj.iter().copied().zip(piece.wgt.iter().copied()));
                }
                // The pieces are sorted runs; a stable sort merges them in
                // O(len · log pieces).
                acc.buf.sort_by_key(|p| p.0);
                let row = group[0].rows.clone();
                group[0].reset(row.clone());
                group[0].push_row(&acc.buf);
                for piece in &mut group[1..] {
                    piece.reset(row.end..row.end);
                }
            });
        });
    }
    let mut acc_pool = accs_m.into_inner().expect("acc pool");
    let collisions: u64 = acc_pool
        .iter_mut()
        .map(|a| std::mem::take(&mut a.collisions))
        .sum();
    *accs = acc_pool;
    trace.counter_add("construct/hash_collisions", collisions);

    // Step 3: offsets from the row lengths (kept runs plus, on the skew
    // path, mirror counts), then fill the output. The work prefix is dead
    // now; its buffer holds the offsets.
    let runs: &[Run] = runs;
    let offs = wpre;
    let add_kept = |offs: &mut [usize]| {
        for run in runs {
            for (c, k) in run.rows() {
                offs[c] += k.len();
            }
        }
    };
    let (mut out_adj, mut out_wgt): (Vec<VId>, Vec<Weight>);
    if use_opt {
        let _k = profile::kernel("transpose");
        let kept: usize = runs.iter().map(|r| r.adj.len()).sum();
        let t = team(kept);
        let nblocks = if use_histograms(t, nc, n) { t } else { 1 };
        let block = |b: usize| &runs[b * runs.len() / nblocks..(b + 1) * runs.len() / nblocks];
        let mut rows = block_counts(policy, kept, nblocks, nc, hist, offs, |b, h| {
            for run in block(b) {
                for &cv in &run.adj {
                    h[cv as usize] += 1;
                }
            }
        });
        add_kept(offs);
        let total = exclusive_scan(policy, offs);
        block_cursors(policy, &mut rows, offs);
        (out_adj, out_wgt) = (vec![0; total], vec![0; total]);
        let (ab, wb) = (out_adj.as_mut_ptr() as usize, out_wgt.as_mut_ptr() as usize);
        parallel_for_weighted_mut(policy, kept, &mut rows, |b, cur| {
            for run in block(b) {
                for (c, k) in run.rows() {
                    for e in k {
                        let cv = run.adj[e] as usize;
                        // SAFETY: counting-sort slots are unique, and the
                        // output is exclusively owned by this function.
                        unsafe {
                            (ab as *mut VId).add(cur[cv]).write(c as VId);
                            (wb as *mut Weight).add(cur[cv]).write(run.wgt[e]);
                        }
                        cur[cv] += 1;
                    }
                }
            }
        });
    } else {
        offs.clear();
        offs.resize(nc + 1, 0);
        add_kept(offs);
        let total = exclusive_scan(policy, offs);
        (out_adj, out_wgt) = (vec![0; total], vec![0; total]);
    }
    {
        let _k = profile::kernel("place");
        let total = out_adj.len();
        let (ab, wb) = (out_adj.as_mut_ptr() as usize, out_wgt.as_mut_ptr() as usize);
        let offs: &[usize] = offs;
        parallel_for_weighted(policy, total, runs.len(), |ti| {
            let run = &runs[ti];
            let (r0, r1) = (run.rows.start, run.rows.end);
            // SAFETY: runs cover disjoint row ranges, so their output
            // ranges are disjoint; the output is exclusively owned here.
            let (oa, ow) = unsafe {
                (
                    std::slice::from_raw_parts_mut(
                        (ab as *mut VId).add(offs[r0]),
                        offs[r1] - offs[r0],
                    ),
                    std::slice::from_raw_parts_mut(
                        (wb as *mut Weight).add(offs[r0]),
                        offs[r1] - offs[r0],
                    ),
                )
            };
            if !use_opt {
                oa.copy_from_slice(&run.adj);
                ow.copy_from_slice(&run.wgt);
                return;
            }
            for (c, k) in run.rows() {
                let (lo, hi) = (offs[c] - offs[r0], offs[c + 1] - offs[r0]);
                merge_kept(
                    &mut oa[lo..hi],
                    &mut ow[lo..hi],
                    &run.adj[k.clone()],
                    &run.wgt[k],
                );
            }
        });
    }
    let xadj = if offs[nc] <= u32::MAX as usize {
        Offsets::U32(offs.iter().map(|&o| o as u32).collect())
    } else {
        Offsets::Wide(offs.clone())
    };
    Csr::from_offsets(xadj, out_adj, out_wgt)
}

/// Merge the sorted kept run into a row whose leading slots already hold
/// its sorted mirror entries. The two halves have disjoint neighbours, so
/// merging from the back never overwrites an unread mirror entry.
fn merge_kept(adj: &mut [VId], wgt: &mut [Weight], kadj: &[VId], kwgt: &[Weight]) {
    let (mut i, mut j) = (adj.len() - kadj.len(), kadj.len());
    while j > 0 {
        let k = i + j - 1;
        if i > 0 && adj[i - 1] > kadj[j - 1] {
            (adj[k], wgt[k]) = (adj[i - 1], wgt[i - 1]);
            i -= 1;
        } else {
            (adj[k], wgt[k]) = (kadj[j - 1], kwgt[j - 1]);
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::testkit;
    use mlcg_graph::builder::from_edges_weighted;

    /// Serial, untraced, fresh-workspace build with default options.
    fn build(g: &Csr, map: Vec<u32>, dedup: Dedup) -> Csr {
        let n_coarse = (*map.iter().max().unwrap() + 1) as usize;
        let mapping = Mapping { map, n_coarse };
        mapping.validate().unwrap();
        construct(
            &ExecPolicy::serial(),
            g,
            &mapping,
            dedup,
            &ConstructOptions::default(),
            &TraceCollector::disabled(),
            &mut ConstructWorkspace::new(),
        )
    }

    #[test]
    fn tiny_known_coarse_graph() {
        // Path 0-1-2-3 with weights 5,3,7; aggregates {0,1} and {2,3}.
        let g = from_edges_weighted(4, &[(0, 1, 5), (1, 2, 3), (2, 3, 7)]);
        for dedup in [Dedup::Sort, Dedup::Hash] {
            let c = build(&g, vec![0, 0, 1, 1], dedup);
            assert_eq!(c.n(), 2);
            assert_eq!(c.m(), 1);
            assert_eq!(c.find_edge(0, 1), Some(3), "{dedup:?}");
        }
    }

    #[test]
    fn parallel_weight_merge() {
        // Two aggregates joined by multiple fine edges: weights must sum.
        let g = from_edges_weighted(
            6,
            &[
                (0, 3, 1),
                (1, 4, 2),
                (2, 5, 4),
                (0, 1, 9),
                (1, 2, 9),
                (3, 4, 9),
                (4, 5, 9),
            ],
        );
        let c = build(&g, vec![0, 0, 0, 1, 1, 1], Dedup::Sort);
        assert_eq!(c.find_edge(0, 1), Some(7), "1+2+4 parallel fine edges");
    }

    #[test]
    fn all_methods_agree_on_battery() {
        for (_, g) in crate::mapping::testkit::battery() {
            if g.n() >= 2 {
                testkit::cross_check(&g, &testkit::mapped(&g, 5));
            }
        }
    }
}
