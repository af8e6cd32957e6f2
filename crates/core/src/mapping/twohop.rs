//! mt-Metis-style two-hop matching (the paper's Algorithms 11–13, here for
//! both CPU and the device-sim policy).
//!
//! After HEM, if the unmatched fraction exceeds a threshold (we use the
//! mt-Metis engagement ratio of 0.25), vertices that share a neighbor are
//! matched even though they are not adjacent, in three escalating classes:
//!
//! 1. **leaves** — degree-1 vertices hanging off the same vertex;
//! 2. **twins** — vertices with identical adjacency lists (degree-capped);
//! 3. **relatives** — any two unmatched vertices adjacent to the same
//!    intermediary (skipping very high-degree intermediaries).
//!
//! Each later class runs only if the previous classes left the unmatched
//! ratio above the threshold, mirroring mt-Metis.

use super::hem::{finalize_singletons, hem_raw};
use super::util::relabel;
use super::workspace::MapWorkspace;
use super::{MapStats, Mapping, UNMAPPED};
use mlcg_graph::{Csr, VId};
use mlcg_par::atomic::as_atomic_u32;
use mlcg_par::filter::filter_range_in;
use mlcg_par::rng::mix;
use mlcg_par::sort::par_radix_sort_pairs;
use mlcg_par::{parallel_count, parallel_for, parallel_for_mut, profile, ExecPolicy};
use std::sync::atomic::Ordering;

/// Engage two-hop stages while `unmatched / n` exceeds this (mt-Metis').
pub const UNMATCHED_RATIO: f64 = 0.25;
/// Twins are only sought among vertices of at most this degree.
pub const TWIN_DEGREE_CAP: usize = 64;
/// Relatives skip intermediaries with more neighbors than this.
pub const RELATIVE_DEGREE_CAP: usize = 1024;

const FREE: u32 = u32::MAX;

/// HEM followed by threshold-gated leaf, twin, and relative matching,
/// with the mt-Metis thresholds, through a level-reused workspace.
pub(crate) fn mtmetis(
    policy: &ExecPolicy,
    g: &Csr,
    seed: u64,
    ws: &mut MapWorkspace,
) -> (Mapping, MapStats) {
    let n = g.n();
    let (mut raw, mut stats) = hem_raw(policy, g, seed, ws);
    let unmatched = |m: &[u32]| parallel_count(policy, n, |u| m[u] == UNMAPPED);
    if unmatched(&raw) as f64 > UNMATCHED_RATIO * n as f64 {
        match_leaves(policy, g, &mut raw);
        stats.passes += 1;
        if unmatched(&raw) as f64 > UNMATCHED_RATIO * n as f64 {
            match_twins(policy, g, &mut raw, ws);
            stats.passes += 1;
            if unmatched(&raw) as f64 > UNMATCHED_RATIO * n as f64 {
                match_relatives(policy, g, &mut raw, ws);
                stats.passes += 1;
            }
        }
    }
    (relabel(policy, finalize_singletons(raw), ws), stats)
}

/// Pair unmatched degree-1 vertices that hang off the same vertex
/// (Algorithm 11). A leaf has exactly one incident vertex, so iterating
/// over intermediaries partitions the candidates — no claiming needed.
pub fn match_leaves(policy: &ExecPolicy, g: &Csr, m: &mut [u32]) {
    let _k = profile::kernel("leaves");
    let n = g.n();
    let m_at = as_atomic_u32(m);
    parallel_for(policy, n, |h| {
        let mut prev: Option<u32> = None;
        for &v in g.neighbors(h as VId) {
            // A leaf's single incident vertex is `h`, so only this
            // iteration can write these slots — relaxed atomics suffice.
            if m_at[v as usize].load(Ordering::Relaxed) != UNMAPPED || g.degree(v) != 1 {
                continue;
            }
            match prev.take() {
                None => prev = Some(v),
                Some(a) => {
                    let label = a.min(v);
                    m_at[a as usize].store(label, Ordering::Relaxed);
                    m_at[v as usize].store(label, Ordering::Relaxed);
                }
            }
        }
    });
}

/// Pair unmatched vertices with *identical* adjacency lists
/// (Algorithm 12) among vertices of degree at most [`TWIN_DEGREE_CAP`].
/// Candidates are gathered with a parallel compaction into `ws.qscratch`,
/// hashed by adjacency into `ws.perm_keys`, sorted by hash, and
/// equal-hash runs are verified and paired.
pub fn match_twins(policy: &ExecPolicy, g: &Csr, m: &mut [u32], ws: &mut MapWorkspace) {
    let _k = profile::kernel("twins");
    let n = g.n();
    filter_range_in(
        policy,
        n,
        |u| m[u as usize] == UNMAPPED && (2..=TWIN_DEGREE_CAP).contains(&g.degree(u)),
        &mut ws.fcounts,
        &mut ws.qscratch,
    );
    let candidates = &mut ws.qscratch;
    if candidates.len() < 2 {
        return;
    }
    let keys = &mut ws.perm_keys;
    keys.clear();
    keys.resize(candidates.len(), 0);
    {
        let cand = &*candidates;
        parallel_for_mut(policy, keys, |i, key| {
            let u = cand[i];
            let mut acc = 0xcbf29ce484222325u64 ^ g.degree(u) as u64;
            for &v in g.neighbors(u) {
                acc = mix(acc ^ v as u64);
            }
            *key = acc;
        });
    }
    par_radix_sort_pairs(policy, keys, candidates);
    // Sequential pairing within equal-hash runs (runs are tiny).
    let mut i = 0;
    while i < candidates.len() {
        let mut j = i + 1;
        while j < candidates.len() && keys[j] == keys[i] {
            j += 1;
        }
        let run = &candidates[i..j];
        let mut used = vec![false; run.len()];
        for a_idx in 0..run.len() {
            if used[a_idx] || m[run[a_idx] as usize] != UNMAPPED {
                continue;
            }
            for b_idx in (a_idx + 1)..run.len() {
                if used[b_idx] || m[run[b_idx] as usize] != UNMAPPED {
                    continue;
                }
                let (a, b) = (run[a_idx], run[b_idx]);
                if g.neighbors(a) == g.neighbors(b) {
                    let label = a.min(b);
                    m[a as usize] = label;
                    m[b as usize] = label;
                    used[a_idx] = true;
                    used[b_idx] = true;
                    break;
                }
            }
        }
        i = j;
    }
}

/// Pair any two unmatched vertices adjacent to the same intermediary
/// (Algorithm 13), skipping intermediaries of degree above
/// [`RELATIVE_DEGREE_CAP`]. A vertex may appear under several
/// intermediaries, so ownership is claimed with a CAS array (pooled in
/// `ws.own`) before the (sequential per intermediary) pairing.
pub fn match_relatives(policy: &ExecPolicy, g: &Csr, m: &mut [u32], ws: &mut MapWorkspace) {
    let _k = profile::kernel("relatives");
    let n = g.n();
    MapWorkspace::filled(&mut ws.own, n, FREE);
    let c_at = as_atomic_u32(&mut ws.own);
    let m_at = as_atomic_u32(m);
    parallel_for(policy, n, |h| {
        if g.degree(h as VId) > RELATIVE_DEGREE_CAP {
            return;
        }
        let mut prev: Option<u32> = None;
        for &v in g.neighbors(h as VId) {
            if m_at[v as usize].load(Ordering::Acquire) != UNMAPPED {
                continue;
            }
            if c_at[v as usize]
                .compare_exchange(FREE, h as u32, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue; // claimed under another intermediary
            }
            match prev.take() {
                None => prev = Some(v),
                Some(a) => {
                    // Both slots are exclusively claimed via `c`.
                    let label = a.min(v);
                    m_at[a as usize].store(label, Ordering::Release);
                    m_at[v as usize].store(label, Ordering::Release);
                }
            }
        }
        if let Some(a) = prev {
            c_at[a as usize].store(FREE, Ordering::Release);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{find_mapping, testkit, MapMethod};
    use mlcg_graph::builder::from_edges_unit;
    use mlcg_graph::generators as gen;

    #[test]
    fn battery() {
        testkit::run_battery(MapMethod::MtMetis);
    }

    #[test]
    fn still_a_matching() {
        for (name, g) in testkit::battery() {
            let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::MtMetis, 5);
            let max = m.aggregate_sizes().into_iter().max().unwrap_or(0);
            assert!(
                max <= 2,
                "{name}: two-hop matching still pairs, got size {max}"
            );
        }
    }

    #[test]
    fn leaves_fix_the_star_stall() {
        let g = gen::star(41); // hub + 40 leaves
        let (hem_m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hem, 3);
        let (th_m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::MtMetis, 3);
        assert!(
            th_m.n_coarse < hem_m.n_coarse / 2 + 2,
            "two-hop {} vs HEM {}",
            th_m.n_coarse,
            hem_m.n_coarse
        );
        // Hub pairs with one leaf (HEM), remaining 39 leaves pair among
        // themselves (19 pairs + 1 leftover singleton) = 21 aggregates.
        assert_eq!(th_m.n_coarse, 21);
    }

    #[test]
    fn leaf_pairs_share_their_intermediary() {
        let g = gen::star(20);
        let mut m = vec![UNMAPPED; g.n()];
        m[0] = 0; // pretend the hub is matched so only leaves remain
        match_leaves(&ExecPolicy::serial(), &g, &mut m);
        let mut pair_count = 0;
        let mut groups = std::collections::HashMap::new();
        for (u, &l) in m.iter().enumerate().skip(1) {
            if l != UNMAPPED {
                *groups.entry(l).or_insert(0) += 1;
                let _ = u;
            }
        }
        for (_, c) in groups {
            assert_eq!(c, 2);
            pair_count += 1;
        }
        assert!(
            pair_count >= 9,
            "19 leaves should form 9 pairs, got {pair_count}"
        );
    }

    #[test]
    fn twins_match_identical_neighborhoods() {
        // 0 and 1 both adjacent to exactly {2, 3} — twins (not adjacent).
        let g = from_edges_unit(4, &[(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut m = vec![UNMAPPED; 4];
        m[2] = 2;
        m[3] = 2; // block the direct matching
        match_twins(&ExecPolicy::serial(), &g, &mut m, &mut MapWorkspace::new());
        assert_eq!(m[0], m[1], "twins must pair");
        assert_ne!(m[0], UNMAPPED);
    }

    #[test]
    fn twins_require_exact_equality() {
        // 0 ~ {2,3}, 1 ~ {2,4}: common neighbor but not twins.
        let g = from_edges_unit(5, &[(0, 2), (0, 3), (1, 2), (1, 4)]);
        let mut m = vec![UNMAPPED; 5];
        m[2] = 2;
        m[3] = 3;
        m[4] = 4;
        match_twins(&ExecPolicy::serial(), &g, &mut m, &mut MapWorkspace::new());
        assert_eq!(m[0], UNMAPPED);
        assert_eq!(m[1], UNMAPPED);
    }

    #[test]
    fn relatives_pair_through_intermediary() {
        // Path 0-1-2: 0 and 2 are relatives through 1.
        let g = gen::path(3);
        let mut m = vec![UNMAPPED; 3];
        m[1] = 1;
        match_relatives(&ExecPolicy::serial(), &g, &mut m, &mut MapWorkspace::new());
        assert_eq!(m[0], m[2]);
        assert_ne!(m[0], UNMAPPED);
    }

    #[test]
    fn relatives_never_double_match() {
        // Dense bipartite-ish graph where many intermediaries see the same
        // unmatched candidates.
        let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(9, 10, 0.5, 0.2, 0.2, 8));
        for policy in ExecPolicy::all_test_policies() {
            let mut m = vec![UNMAPPED; g.n()];
            match_relatives(&policy, &g, &mut m, &mut MapWorkspace::new());
            // Every non-UNMAPPED label names a group of exactly 2.
            let mut counts = std::collections::HashMap::new();
            for &l in m.iter().filter(|&&l| l != UNMAPPED) {
                *counts.entry(l).or_insert(0usize) += 1;
            }
            for (l, c) in counts {
                assert_eq!(c, 2, "label {l} has {c} members under {policy}");
            }
        }
    }

    #[test]
    fn better_than_hem_on_skewed_graphs() {
        let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(10, 6, 0.6, 0.18, 0.18, 4));
        let p = ExecPolicy::serial();
        let (hm, _) = find_mapping(&p, &g, MapMethod::Hem, 9);
        let (tm, _) = find_mapping(&p, &g, MapMethod::MtMetis, 9);
        assert!(
            tm.n_coarse <= hm.n_coarse,
            "two-hop should never coarsen less: {} vs {}",
            tm.n_coarse,
            hm.n_coarse
        );
    }
}
