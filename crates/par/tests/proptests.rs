//! Property-based tests for the parallel substrate: each primitive must
//! agree exactly with its obvious sequential reference under every
//! execution policy (`Serial`, `Host`, `DeviceSim`).
//!
//! Randomized via the dependency-free [`mlcg_par::proplite`] harness; a
//! failing case prints the seed that reproduces it.

use mlcg_par::perm::{invert_permutation, random_permutation};
use mlcg_par::proplite::run_cases;
use mlcg_par::scan::{exclusive_scan, inclusive_scan};
use mlcg_par::sort::{bitonic_sort_pairs, insertion_sort_pairs, par_radix_sort_pairs};
use mlcg_par::{
    parallel_count, parallel_for_mut, parallel_reduce_max, parallel_reduce_min,
    parallel_reduce_sum, ExecPolicy,
};

#[test]
fn reduce_sum_matches_iterator() {
    run_cases(64, 0xA1, |g| {
        let values = g.vec_u64(2000, 1000);
        let expect: u64 = values.iter().sum();
        for policy in ExecPolicy::all_test_policies() {
            assert_eq!(
                parallel_reduce_sum(&policy, values.len(), |i| values[i]),
                expect
            );
        }
    });
}

#[test]
fn reduce_extrema_match() {
    run_cases(64, 0xA2, |g| {
        let mut values = g.vec_u64(2000, u64::MAX / 2);
        if values.is_empty() {
            values.push(g.below(u64::MAX / 2));
        }
        let max = *values.iter().max().unwrap();
        let min = *values.iter().min().unwrap();
        for policy in ExecPolicy::all_test_policies() {
            assert_eq!(
                parallel_reduce_max(&policy, values.len(), |i| values[i]),
                max
            );
            assert_eq!(
                parallel_reduce_min(&policy, values.len(), |i| values[i]),
                min
            );
        }
    });
}

#[test]
fn count_matches_filter() {
    run_cases(64, 0xA3, |g| {
        let values: Vec<u32> = g.vec_u64(2000, 10).into_iter().map(|v| v as u32).collect();
        let expect = values.iter().filter(|&&v| v.is_multiple_of(3)).count();
        for policy in ExecPolicy::all_test_policies() {
            assert_eq!(
                parallel_count(&policy, values.len(), |i| values[i].is_multiple_of(3)),
                expect
            );
        }
    });
}

#[test]
fn scans_match_reference() {
    run_cases(64, 0xA4, |g| {
        let values = g.vec_u64(3000, 100);
        let mut excl_ref = Vec::with_capacity(values.len());
        let mut incl_ref = Vec::with_capacity(values.len());
        let mut acc = 0u64;
        for &v in &values {
            excl_ref.push(acc);
            acc += v;
            incl_ref.push(acc);
        }
        for policy in ExecPolicy::all_test_policies() {
            let mut a = values.clone();
            let t = exclusive_scan(&policy, &mut a);
            assert_eq!(t, acc);
            assert_eq!(a, excl_ref);
            let mut b = values.clone();
            let t = inclusive_scan(&policy, &mut b);
            assert_eq!(t, acc);
            assert_eq!(b, incl_ref);
        }
    });
}

#[test]
fn radix_sort_matches_std() {
    run_cases(64, 0xA5, |g| {
        let keys = g.vec_u64_any(3000);
        let mut expect = keys.clone();
        expect.sort_unstable();
        for policy in ExecPolicy::all_test_policies() {
            let mut k = keys.clone();
            let mut v: Vec<u32> = (0..keys.len() as u32).collect();
            par_radix_sort_pairs(&policy, &mut k, &mut v);
            assert_eq!(k, expect);
            // Payloads still pair with their original keys.
            for (i, &payload) in v.iter().enumerate() {
                assert_eq!(keys[payload as usize], k[i]);
            }
        }
    });
}

#[test]
fn bitonic_matches_std() {
    run_cases(64, 0xA6, |g| {
        let keys = g.vec_u32_any(200);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut k = keys.clone();
        let mut v: Vec<u64> = keys.iter().map(|&x| x as u64).collect();
        let (mut sk, mut sv) = (Vec::new(), Vec::new());
        bitonic_sort_pairs(&mut k, &mut v, &mut sk, &mut sv);
        assert_eq!(k, expect);
        for (&key, &val) in k.iter().zip(&v) {
            assert_eq!(val, key as u64);
        }
    });
}

#[test]
fn insertion_sort_matches_std() {
    run_cases(64, 0xA7, |g| {
        let keys = g.vec_u32_any(64);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut k = keys.clone();
        let mut v: Vec<u8> = vec![0; k.len()];
        insertion_sort_pairs(&mut k, &mut v);
        assert_eq!(k, expect);
    });
}

#[test]
fn permutations_are_valid_and_invertible() {
    run_cases(48, 0xA8, |g| {
        let n = g.usize_in(0, 5000);
        let seed = g.u64();
        for policy in ExecPolicy::all_test_policies() {
            let p = random_permutation(&policy, n, seed);
            let mut seen = vec![false; n];
            for &x in &p {
                assert!(!seen[x as usize], "duplicate entry in permutation");
                seen[x as usize] = true;
            }
            let inv = invert_permutation(&policy, &p);
            for i in 0..n {
                assert_eq!(inv[p[i] as usize] as usize, i);
            }
        }
    });
}

#[test]
fn fill_writes_everything() {
    run_cases(48, 0xA9, |g| {
        let n = g.usize_in(0, 5000);
        let value = g.u64() as u32;
        for policy in ExecPolicy::all_test_policies() {
            let mut buf = vec![!value; n];
            parallel_for_mut(&policy, &mut buf, |_, x| *x = value);
            assert!(buf.iter().all(|&x| x == value));
        }
    });
}
