//! Sort-based parallel random permutation (`ParGenPerm` in the paper's
//! Algorithm 4): assign each index an independent pseudo-random key and sort
//! by it. Deterministic for a fixed seed regardless of thread count.

use crate::rng::hash_index;
use crate::sort::par_radix_sort_pairs;
use crate::{parallel_for, parallel_for_mut, profile, ExecPolicy};
use std::sync::atomic::Ordering;

/// A uniformly random permutation of `0..n` (as `u32` labels).
pub fn random_permutation(policy: &ExecPolicy, n: usize, seed: u64) -> Vec<u32> {
    let mut keys = Vec::new();
    let mut out = Vec::new();
    random_permutation_in(policy, n, seed, &mut keys, &mut out);
    out
}

/// [`random_permutation`] into caller-owned buffers: `keys` is sort
/// scratch, `out` receives the permutation. Both keep their capacity, so a
/// level loop pays the generation allocations once.
pub fn random_permutation_in(
    policy: &ExecPolicy,
    n: usize,
    seed: u64,
    keys: &mut Vec<u64>,
    out: &mut Vec<u32>,
) {
    assert!(
        n <= u32::MAX as usize,
        "random_permutation: n exceeds u32 range"
    );
    let _k = profile::kernel("gen_perm");
    keys.clear();
    keys.resize(n, 0);
    {
        let _k = profile::kernel("keys");
        parallel_for_mut(policy, keys, |i, k| *k = hash_index(seed, i as u64));
    }
    out.clear();
    out.resize(n, 0);
    {
        let _k = profile::kernel("ids");
        parallel_for_mut(policy, out, |i, x| *x = i as u32);
    }
    par_radix_sort_pairs(policy, keys, out);
}

/// Inverse of a permutation: `out[p[i]] = i`.
pub fn invert_permutation(policy: &ExecPolicy, p: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    invert_permutation_in(policy, p, &mut out);
    out
}

/// [`invert_permutation`] into a caller-owned buffer.
pub fn invert_permutation_in(policy: &ExecPolicy, p: &[u32], out: &mut Vec<u32>) {
    let _k = profile::kernel("invert_perm");
    let n = p.len();
    out.clear();
    out.resize(n, 0);
    {
        let view = crate::atomic::as_atomic_u32(out);
        parallel_for(policy, n, |i| {
            view[p[i] as usize].store(i as u32, Ordering::Relaxed);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(p: &[u32]) -> bool {
        let mut seen = vec![false; p.len()];
        for &x in p {
            if (x as usize) >= p.len() || seen[x as usize] {
                return false;
            }
            seen[x as usize] = true;
        }
        true
    }

    #[test]
    fn produces_valid_permutations() {
        for policy in ExecPolicy::all_test_policies() {
            for n in [0usize, 1, 2, 100, 40_000] {
                let p = random_permutation(&policy, n, 123);
                assert_eq!(p.len(), n);
                assert!(is_permutation(&p), "n={n} policy={policy}");
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed_across_policies() {
        let a = random_permutation(&ExecPolicy::serial(), 10_000, 99);
        for policy in ExecPolicy::all_test_policies() {
            let b = random_permutation(&policy, 10_000, 99);
            assert_eq!(a, b, "permutation must not depend on the policy");
        }
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let a = random_permutation(&ExecPolicy::serial(), 1000, 1);
        let b = random_permutation(&ExecPolicy::serial(), 1000, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn permutation_is_unbiased_at_position_zero() {
        // Over many seeds, the first element should be roughly uniform.
        let n = 16usize;
        let trials = 4000;
        let mut counts = vec![0usize; n];
        for seed in 0..trials {
            let p = random_permutation(&ExecPolicy::serial(), n, seed);
            counts[p[0] as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expect * 0.5 && (c as f64) < expect * 1.5,
                "position-0 value {i} count {c} vs expected {expect}"
            );
        }
    }

    #[test]
    fn inverse_round_trips() {
        for policy in ExecPolicy::all_test_policies() {
            let p = random_permutation(&policy, 5000, 7);
            let inv = invert_permutation(&policy, &p);
            for i in 0..p.len() {
                assert_eq!(inv[p[i] as usize], i as u32);
                assert_eq!(p[inv[i] as usize], i as u32);
            }
        }
    }
}
