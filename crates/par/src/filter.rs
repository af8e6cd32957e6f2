//! Order-stable parallel compaction: keep the elements of an index
//! sequence that satisfy a predicate, preserving their order.
//!
//! The sequential equivalent is `Vec::retain`, which sits on the critical
//! path of every mapping pass (Algorithm 4's requeue of unresolved
//! vertices). The parallel form decomposes the input into *fixed* blocks —
//! one per dispatch slot, claimed through [`parallel_for_weighted_mut`] and
//! [`parallel_for_weighted`] so the profiler tags them `par_for` — counts
//! survivors per block, exclusive-scans the (tiny) per-block counts
//! sequentially, and scatters each block's survivors to its precomputed
//! offset. Fixed blocks make the output independent of the schedule: every
//! element's destination is a function of the input alone, so the result
//! is bit-identical to `retain` under every policy and thread count.

use crate::{parallel_for_weighted, parallel_for_weighted_mut, pool, profile, ExecPolicy};

/// Block count for the two passes: a few blocks per effective thread keeps
/// the tail balanced without making the sequential scan over block counts
/// noticeable.
fn block_count(policy: &ExecPolicy, n: usize) -> usize {
    (policy.effective_threads(n) * 4).clamp(1, n.max(1))
}

/// Core of the compaction: `get(i)` materializes element `i` of the
/// conceptual source sequence of length `n`.
fn filter_impl<G, P>(
    policy: &ExecPolicy,
    n: usize,
    get: G,
    pred: P,
    counts: &mut Vec<usize>,
    dst: &mut Vec<u32>,
) where
    G: Fn(usize) -> u32 + Sync,
    P: Fn(u32) -> bool + Sync,
{
    let _k = profile::kernel("compact");
    dst.clear();
    if n == 0 {
        return;
    }
    if policy.effective_threads(n) <= 1 || pool::in_worker() {
        dst.extend((0..n).map(&get).filter(|&u| pred(u)));
        return;
    }
    let nblocks = block_count(policy, n);
    let block = n.div_ceil(nblocks);
    counts.clear();
    counts.resize(nblocks, 0);
    parallel_for_weighted_mut(policy, n, counts, |b, c| {
        *c = (b * block..((b + 1) * block).min(n))
            .filter(|&i| pred(get(i)))
            .count();
    });
    // Exclusive scan of the per-block counts: nblocks is O(threads), so
    // sequential is both simplest and fastest.
    let mut total = 0usize;
    for c in counts.iter_mut() {
        let x = *c;
        *c = total;
        total += x;
    }
    dst.resize(total, 0);
    {
        let base = dst.as_mut_ptr() as usize;
        let counts_ref = &counts[..];
        let (get_ref, pred_ref) = (&get, &pred);
        parallel_for_weighted(policy, n, nblocks, move |b| {
            let lo = b * block;
            let hi = ((b + 1) * block).min(n);
            let mut at = counts_ref[b];
            for i in lo..hi {
                let u = get_ref(i);
                if pred_ref(u) {
                    // SAFETY: blocks write disjoint output ranges
                    // [counts[b], counts[b+1]).
                    unsafe {
                        (base as *mut u32).add(at).write(u);
                    }
                    at += 1;
                }
            }
        });
    }
}

/// Write the elements of `src` satisfying `pred` into `dst`, in order —
/// the allocation-free form. `counts` is per-block scratch; both buffers
/// keep their capacity across calls.
pub fn filter_indices_in<P>(
    policy: &ExecPolicy,
    src: &[u32],
    pred: P,
    counts: &mut Vec<usize>,
    dst: &mut Vec<u32>,
) where
    P: Fn(u32) -> bool + Sync,
{
    filter_impl(policy, src.len(), |i| src[i], pred, counts, dst);
}

/// [`filter_indices_in`] over the implicit sequence `0..n` (candidate
/// selection over all vertex ids without materializing them first).
pub fn filter_range_in<P>(
    policy: &ExecPolicy,
    n: usize,
    pred: P,
    counts: &mut Vec<usize>,
    dst: &mut Vec<u32>,
) where
    P: Fn(u32) -> bool + Sync,
{
    assert!(n <= u32::MAX as usize, "filter_range_in: n exceeds u32");
    filter_impl(policy, n, |i| i as u32, pred, counts, dst);
}

/// Allocating convenience form of [`filter_indices_in`].
pub fn filter_indices<P>(policy: &ExecPolicy, src: &[u32], pred: P) -> Vec<u32>
where
    P: Fn(u32) -> bool + Sync,
{
    let mut counts = Vec::new();
    let mut dst = Vec::new();
    filter_indices_in(policy, src, pred, &mut counts, &mut dst);
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::hash_index;

    #[test]
    fn matches_retain_across_policies_and_sizes() {
        for policy in ExecPolicy::all_test_policies() {
            for n in [0usize, 1, 2, 7, 100, 4097, 100_000] {
                let src: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
                let pred = |u: u32| !hash_index(9, u as u64).is_multiple_of(3);
                let mut expect = src.clone();
                expect.retain(|&u| pred(u));
                let got = filter_indices(&policy, &src, pred);
                assert_eq!(got, expect, "n={n} policy={policy}");
            }
        }
    }

    #[test]
    fn range_form_matches_explicit_sequence() {
        for policy in ExecPolicy::all_test_policies() {
            let n = 50_000usize;
            let pred = |u: u32| u % 7 < 3;
            let explicit: Vec<u32> = (0..n as u32).collect();
            let a = filter_indices(&policy, &explicit, pred);
            let mut counts = Vec::new();
            let mut b = Vec::new();
            filter_range_in(&policy, n, pred, &mut counts, &mut b);
            assert_eq!(a, b, "{policy}");
        }
    }

    #[test]
    fn buffers_are_reused_without_stale_output() {
        let policy = ExecPolicy::host();
        let mut counts = Vec::new();
        let mut dst = Vec::new();
        let big: Vec<u32> = (0..10_000).collect();
        filter_indices_in(&policy, &big, |_| true, &mut counts, &mut dst);
        assert_eq!(dst.len(), big.len());
        // A later, smaller, sparser call through the same buffers.
        let small: Vec<u32> = (0..100).collect();
        filter_indices_in(&policy, &small, |u| u < 10, &mut counts, &mut dst);
        assert_eq!(dst, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn all_and_none() {
        let policy = ExecPolicy::device_sim();
        let src: Vec<u32> = (0..33_000).collect();
        assert_eq!(filter_indices(&policy, &src, |_| true), src);
        assert!(filter_indices(&policy, &src, |_| false).is_empty());
    }
}
