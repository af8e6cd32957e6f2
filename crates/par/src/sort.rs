//! Parallel and per-segment sorts.
//!
//! Two families, mirroring the paper's per-architecture kernel choices:
//!
//! - [`par_radix_sort_pairs`]: a parallel least-significant-digit radix sort
//!   on `u64` keys with an arbitrary `Copy` payload. This is the host-side
//!   workhorse (the paper uses radix sort on the CPU) and also backs the
//!   sort-based parallel random permutation and the global-sort construction
//!   baseline.
//! - [`bitonic_sort_pairs`] / [`insertion_sort_pairs`]: small fixed-network
//!   and insertion sorts for short per-vertex segments, standing in for the
//!   team-level bitonic sorts the paper uses on the GPU.

use crate::scan::exclusive_scan;
use crate::{parallel_for_weighted_op, profile, ExecPolicy};

const RADIX_BITS: usize = 8;
const RADIX: usize = 1 << RADIX_BITS;
const SEQ_SORT_CUTOFF: usize = 1 << 14;

/// Static per-pass profiler labels (`64 / RADIX_BITS` passes at most), so
/// labelling a pass never allocates.
const PASS_LABELS: [&str; 8] = [
    "pass0", "pass1", "pass2", "pass3", "pass4", "pass5", "pass6", "pass7",
];

/// Stable parallel LSD radix sort of `(keys, vals)` pairs by key.
///
/// Only as many 8-bit digit passes as the maximum key needs are performed.
pub fn par_radix_sort_pairs<V: Copy + Default + Send + Sync>(
    policy: &ExecPolicy,
    keys: &mut Vec<u64>,
    vals: &mut Vec<V>,
) {
    let n = keys.len();
    assert_eq!(n, vals.len(), "par_radix_sort_pairs: length mismatch");
    if n <= 1 {
        return;
    }
    if n < SEQ_SORT_CUTOFF || policy.effective_threads(n) <= 1 {
        seq_sort_pairs(keys, vals);
        return;
    }

    let max_key = crate::reduce::parallel_reduce_max(policy, n, |i| keys[i]);
    let passes = ((64 - max_key.leading_zeros() as usize).max(1)).div_ceil(RADIX_BITS);

    let threads = policy.effective_threads(n);
    let nblocks = (threads * 4).min(n);
    let block = n.div_ceil(nblocks);
    let nblocks = n.div_ceil(block);

    let mut kbuf: Vec<u64> = vec![0; n];
    let mut vbuf: Vec<V> = vec![V::default(); n];
    // counts[v * nblocks + b]: occurrences of digit v in block b. Laid out
    // digit-major so the exclusive scan directly yields stable scatter bases.
    let mut counts: Vec<usize> = vec![0; RADIX * nblocks];

    // Label every pass for the dispatch profiler; the block loops size
    // their team by the pair count and are tagged `par_blocks` — a plain
    // `parallel_for` over the few dozen blocks would fall below the policy
    // grain and run each pass inline.
    let _k = profile::kernel("radix_sort");
    let mut src_is_orig = true;
    for pass in 0..passes {
        let _k = profile::kernel(PASS_LABELS[pass.min(PASS_LABELS.len() - 1)]);
        let shift = pass * RADIX_BITS;
        counts.iter_mut().for_each(|c| *c = 0);
        {
            let _k = profile::kernel("count");
            let (src_k, _src_v, _dst_k, _dst_v) =
                buffers(&mut *keys, &mut *vals, &mut kbuf, &mut vbuf, src_is_orig);
            let counts_base = counts.as_mut_ptr() as usize;
            parallel_for_weighted_op(policy, n, nblocks, "par_blocks", move |b| {
                let start = b * block;
                let end = ((b + 1) * block).min(n);
                // SAFETY: each block writes a disjoint column of `counts`.
                let cp = counts_base as *mut usize;
                for &k in &src_k[start..end] {
                    let d = ((k >> shift) as usize) & (RADIX - 1);
                    unsafe {
                        *cp.add(d * nblocks + b) += 1;
                    }
                }
            });
        }
        exclusive_scan(&ExecPolicy::serial(), &mut counts);
        {
            let _k = profile::kernel("scatter");
            let (src_k, src_v, dst_k, dst_v) =
                buffers(&mut *keys, &mut *vals, &mut kbuf, &mut vbuf, src_is_orig);
            let dst_k_base = dst_k.as_mut_ptr() as usize;
            let dst_v_base = dst_v.as_mut_ptr() as usize;
            let counts_ref = &counts;
            parallel_for_weighted_op(policy, n, nblocks, "par_blocks", move |b| {
                let start = b * block;
                let end = ((b + 1) * block).min(n);
                let mut cursors = [0usize; RADIX];
                for (d, cur) in cursors.iter_mut().enumerate() {
                    *cur = counts_ref[d * nblocks + b];
                }
                // SAFETY: scatter targets are globally unique by construction
                // of the per-(digit, block) cursor ranges.
                unsafe {
                    let kd = dst_k_base as *mut u64;
                    let vd = dst_v_base as *mut V;
                    for i in start..end {
                        let k = src_k[i];
                        let d = ((k >> shift) as usize) & (RADIX - 1);
                        let pos = cursors[d];
                        cursors[d] += 1;
                        kd.add(pos).write(k);
                        vd.add(pos).write(src_v[i]);
                    }
                }
            });
        }
        src_is_orig = !src_is_orig;
    }
    if !src_is_orig {
        // Result currently lives in the scratch buffers.
        std::mem::swap(keys, &mut kbuf);
        std::mem::swap(vals, &mut vbuf);
    }
}

/// Split (keys, vals, kbuf, vbuf) into (src_k, src_v, dst_k, dst_v).
#[allow(clippy::type_complexity)]
fn buffers<'a, V>(
    keys: &'a mut [u64],
    vals: &'a mut [V],
    kbuf: &'a mut [u64],
    vbuf: &'a mut [V],
    src_is_orig: bool,
) -> (&'a [u64], &'a [V], &'a mut [u64], &'a mut [V]) {
    if src_is_orig {
        (keys, vals, kbuf, vbuf)
    } else {
        (kbuf, vbuf, keys, vals)
    }
}

/// Sequential fallback: sort pairs by key, stable.
///
/// The permutation is materialized with `usize` indices, so any slice the
/// address space can hold sorts correctly. (This path is reachable with
/// arbitrarily large `n` via `par_radix_sort_pairs` on a single-thread
/// policy; the previous `u32` index vector would have truncated beyond
/// 2^32 entries and permuted garbage.)
pub fn seq_sort_pairs<V: Copy>(keys: &mut [u64], vals: &mut [V]) {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    idx.sort_by_key(|&i| keys[i]);
    apply_permutation(&idx, keys, vals);
}

fn apply_permutation<V: Copy>(idx: &[usize], keys: &mut [u64], vals: &mut [V]) {
    let ks: Vec<u64> = idx.iter().map(|&i| keys[i]).collect();
    let vs: Vec<V> = idx.iter().map(|&i| vals[i]).collect();
    keys.copy_from_slice(&ks);
    vals.copy_from_slice(&vs);
}

/// In-place insertion sort of `(keys, vals)` pairs by key — the base case
/// for per-vertex segments.
pub fn insertion_sort_pairs<K: Copy + Ord, V: Copy>(keys: &mut [K], vals: &mut [V]) {
    for i in 1..keys.len() {
        let (k, v) = (keys[i], vals[i]);
        let mut j = i;
        while j > 0 && keys[j - 1] > k {
            keys[j] = keys[j - 1];
            vals[j] = vals[j - 1];
            j -= 1;
        }
        keys[j] = k;
        vals[j] = v;
    }
}

/// Bitonic sort of `(keys, vals)` pairs by key, using caller-provided
/// scratch so per-vertex calls do not allocate. This is the device-sim dedup
/// sort: the network shape matches what a GPU team-level bitonic sort runs.
///
/// The scratch slices must each hold at least `keys.len().next_power_of_two()`
/// elements.
pub fn bitonic_sort_pairs<V: Copy + Default>(
    keys: &mut [u32],
    vals: &mut [V],
    scratch_k: &mut Vec<u32>,
    scratch_v: &mut Vec<V>,
) {
    let n = keys.len();
    debug_assert_eq!(n, vals.len());
    if n <= 1 {
        return;
    }
    let m = n.next_power_of_two();
    scratch_k.clear();
    scratch_k.extend_from_slice(keys);
    scratch_k.resize(m, u32::MAX); // +inf padding sinks to the tail
    scratch_v.clear();
    scratch_v.extend_from_slice(vals);
    scratch_v.resize(m, V::default());

    let sk = &mut scratch_k[..m];
    let sv = &mut scratch_v[..m];
    let mut k = 2;
    while k <= m {
        let mut j = k / 2;
        while j >= 1 {
            for i in 0..m {
                let l = i ^ j;
                if l > i {
                    let ascending = (i & k) == 0;
                    if (sk[i] > sk[l]) == ascending {
                        sk.swap(i, l);
                        sv.swap(i, l);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    keys.copy_from_slice(&sk[..n]);
    vals.copy_from_slice(&sv[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn random_pairs(n: usize, seed: u64) -> (Vec<u64>, Vec<u32>) {
        let mut rng = Xoshiro256pp::new(seed);
        let keys: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 40)).collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        (keys, vals)
    }

    fn check_sorted_and_consistent(orig_keys: &[u64], keys: &[u64], vals: &[u32]) {
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
        // Every (key, val) pair must come from the input.
        for (&k, &v) in keys.iter().zip(vals) {
            assert_eq!(orig_keys[v as usize], k, "payload decoupled from key");
        }
        let mut seen: Vec<u32> = vals.to_vec();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..vals.len() as u32).collect::<Vec<_>>(),
            "vals not a permutation"
        );
    }

    #[test]
    fn radix_sort_matches_reference() {
        for policy in ExecPolicy::all_test_policies() {
            for n in [0usize, 1, 2, 100, 5000, 70_000] {
                let (orig_keys, orig_vals) = random_pairs(n, 42 + n as u64);
                let mut keys = orig_keys.clone();
                let mut vals = orig_vals.clone();
                par_radix_sort_pairs(&policy, &mut keys, &mut vals);
                check_sorted_and_consistent(&orig_keys, &keys, &vals);
            }
        }
    }

    #[test]
    fn radix_sort_is_stable() {
        // Many duplicate keys; payload carries the original index.
        let policy = ExecPolicy {
            backend: crate::Backend::Host,
            threads: 4,
            grain: 16,
        };
        let n = 50_000;
        let mut rng = Xoshiro256pp::new(7);
        let mut keys: Vec<u64> = (0..n).map(|_| rng.next_below(8)).collect();
        let mut vals: Vec<u32> = (0..n as u32).collect();
        par_radix_sort_pairs(&policy, &mut keys, &mut vals);
        for w in keys.windows(2).zip(vals.windows(2)) {
            let (kw, vw) = w;
            if kw[0] == kw[1] {
                assert!(vw[0] < vw[1], "stability violated");
            }
        }
    }

    #[test]
    fn radix_sort_handles_max_keys() {
        let policy = ExecPolicy::host();
        let mut keys = vec![u64::MAX, 0, u64::MAX - 1, 5];
        let mut vals = vec![0u32, 1, 2, 3];
        par_radix_sort_pairs(&policy, &mut keys, &mut vals);
        assert_eq!(keys, vec![0, 5, u64::MAX - 1, u64::MAX]);
        assert_eq!(vals, vec![1, 3, 2, 0]);
    }

    #[test]
    fn insertion_sort_small() {
        let mut keys = vec![5u32, 3, 9, 1, 3];
        let mut vals = vec![50u64, 30, 90, 10, 31];
        insertion_sort_pairs(&mut keys, &mut vals);
        assert_eq!(keys, vec![1, 3, 3, 5, 9]);
        assert_eq!(vals, vec![10, 30, 31, 50, 90]);
    }

    #[test]
    fn bitonic_sorts_all_lengths() {
        let mut sk = Vec::new();
        let mut sv = Vec::new();
        let mut rng = Xoshiro256pp::new(3);
        for n in 0..130usize {
            let mut keys: Vec<u32> = (0..n).map(|_| rng.next_below(1000) as u32).collect();
            let mut vals: Vec<u64> = keys.iter().map(|&k| k as u64 * 10).collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            bitonic_sort_pairs(&mut keys, &mut vals, &mut sk, &mut sv);
            assert_eq!(keys, expect, "n={n}");
            assert!(
                keys.iter().zip(&vals).all(|(&k, &v)| v == k as u64 * 10),
                "n={n}"
            );
        }
    }
}
