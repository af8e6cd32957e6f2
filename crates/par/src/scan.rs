//! Parallel prefix sums (scans).
//!
//! Classic two-phase blocked scan: per-block sums in parallel, a short
//! sequential scan over the block sums, then a parallel fix-up pass. Used by
//! the coarse-graph construction (`ParPrefixSums` in the paper's
//! Algorithm 6) to turn degree counts into CSR row offsets.

use crate::{parallel_for_weighted_mut_op, parallel_for_weighted_op, profile, ExecPolicy};
use std::ops::AddAssign;

/// Trait bound for scannable element types.
pub trait ScanElem: Copy + Default + AddAssign + Send + Sync {}
impl<T: Copy + Default + AddAssign + Send + Sync> ScanElem for T {}

/// In-place *exclusive* prefix sum; returns the grand total.
///
/// `[3,1,4,1]` becomes `[0,3,4,8]` and `9` is returned.
pub fn exclusive_scan<T: ScanElem>(policy: &ExecPolicy, data: &mut [T]) -> T {
    scan_impl(policy, data, false)
}

/// In-place *inclusive* prefix sum; returns the grand total.
///
/// `[3,1,4,1]` becomes `[3,4,8,9]` and `9` is returned.
pub fn inclusive_scan<T: ScanElem>(policy: &ExecPolicy, data: &mut [T]) -> T {
    scan_impl(policy, data, true)
}

fn scan_impl<T: ScanElem>(policy: &ExecPolicy, data: &mut [T], inclusive: bool) -> T {
    let n = data.len();
    if n == 0 {
        return T::default();
    }
    let threads = policy.effective_threads(n);
    if threads <= 1 {
        return seq_scan(data, inclusive);
    }

    // Fixed block decomposition (independent of the dynamic claimer) so the
    // fix-up pass knows each block's offset. The block loops claim one
    // block at a time with the team sized by the *element* count, tagged
    // `par_blocks` — a plain `parallel_for` over the few dozen blocks
    // would fall below the policy grain and run the whole scan inline.
    let nblocks = (threads * 4).min(n);
    let block = n.div_ceil(nblocks);
    let nblocks = n.div_ceil(block);
    let _k = profile::kernel("scan");
    let mut sums: Vec<T> = vec![T::default(); nblocks];
    {
        let _k = profile::kernel("block_sums");
        let data: &[T] = data;
        parallel_for_weighted_mut_op(policy, n, &mut sums, "par_blocks", |b, sum| {
            let mut acc = T::default();
            for &v in &data[b * block..((b + 1) * block).min(n)] {
                acc += v;
            }
            *sum = acc;
        });
    }
    let total = seq_scan(&mut sums, false);
    {
        let _k = profile::kernel("fixup");
        let base = data.as_mut_ptr() as usize;
        let sums_ref = &sums;
        parallel_for_weighted_op(policy, n, nblocks, "par_blocks", move |b| {
            let start = b * block;
            let end = ((b + 1) * block).min(n);
            let mut acc = sums_ref[b];
            // SAFETY: blocks are disjoint read-modify-writes.
            unsafe {
                let d = base as *mut T;
                for i in start..end {
                    let v = *d.add(i);
                    if inclusive {
                        acc += v;
                        d.add(i).write(acc);
                    } else {
                        d.add(i).write(acc);
                        acc += v;
                    }
                }
            }
        });
    }
    total
}

fn seq_scan<T: ScanElem>(data: &mut [T], inclusive: bool) -> T {
    let mut acc = T::default();
    for v in data.iter_mut() {
        let x = *v;
        if inclusive {
            acc += x;
            *v = acc;
        } else {
            *v = acc;
            acc += x;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_exclusive(v: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(v.len());
        let mut acc = 0;
        for &x in v {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn exclusive_matches_reference() {
        for policy in ExecPolicy::all_test_policies() {
            for n in [0usize, 1, 2, 7, 1000, 65_537] {
                let v: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 13).collect();
                let (expect, total) = reference_exclusive(&v);
                let mut data = v.clone();
                let t = exclusive_scan(&policy, &mut data);
                assert_eq!(t, total, "total mismatch n={n} policy={policy}");
                assert_eq!(data, expect, "scan mismatch n={n} policy={policy}");
            }
        }
    }

    #[test]
    fn inclusive_matches_reference() {
        for policy in ExecPolicy::all_test_policies() {
            let v: Vec<u32> = (0..50_000u32).map(|i| i % 5).collect();
            let mut expect = v.clone();
            let mut acc = 0u32;
            for e in expect.iter_mut() {
                acc += *e;
                *e = acc;
            }
            let mut data = v.clone();
            let t = inclusive_scan(&policy, &mut data);
            assert_eq!(t, acc);
            assert_eq!(data, expect);
        }
    }

    #[test]
    fn scan_usize_offsets_for_csr() {
        // The coarse-graph-construction use case: degrees -> row offsets.
        let policy = ExecPolicy::host();
        let degrees = vec![2usize, 0, 3, 1, 4];
        let mut offsets = degrees.clone();
        let total = exclusive_scan(&policy, &mut offsets);
        assert_eq!(offsets, vec![0, 2, 2, 5, 6]);
        assert_eq!(total, 10);
    }
}
