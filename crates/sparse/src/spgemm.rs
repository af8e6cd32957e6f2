//! Parallel sparse matrix–matrix multiplication (SpGEMM).
//!
//! A miniature of the Kokkos Kernels design the paper calls twice for the
//! `P·A·Pᵀ` construction path: a *symbolic* phase computes the exact number
//! of nonzeros per output row, then a *numeric* phase fills values using a
//! per-row sparse accumulator (here a stamped dense marker reused across
//! the rows of a chunk, which plays the role of Kokkos Kernels' local
//! hashmap accumulator). Output rows are sorted by column.

use crate::matrix::CsrMatrix;
use mlcg_par::scan::exclusive_scan;
use mlcg_par::sort::insertion_sort_pairs;
use mlcg_par::{parallel_for_chunks, parallel_for_chunks_mut, profile, ExecPolicy};

/// `C = A · B`, exact (no numerically cancelled zeros are dropped).
pub fn spgemm(policy: &ExecPolicy, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.n_cols, b.n_rows, "spgemm: inner dimension mismatch");
    let n = a.n_rows;
    let m = b.n_cols;
    let _k = profile::kernel("spgemm");

    // --- symbolic: exact nnz per output row ---
    let mut row_nnz = vec![0usize; n + 1];
    {
        let _k = profile::kernel("symbolic");
        parallel_for_chunks_mut(policy, &mut row_nnz[..n], |range, out| {
            // Stamped dense marker, shared by all rows of this chunk.
            let mut marker = vec![u32::MAX; m];
            for (i, slot) in range.zip(out) {
                let stamp = i as u32;
                let mut cnt = 0usize;
                let (acols, _) = a.row(i);
                for &k in acols {
                    let (bcols, _) = b.row(k as usize);
                    for &c in bcols {
                        if marker[c as usize] != stamp {
                            marker[c as usize] = stamp;
                            cnt += 1;
                        }
                    }
                }
                *slot = cnt;
            }
        });
    }
    let nnz = exclusive_scan(policy, &mut row_nnz);
    let row_ptr = row_nnz;

    // --- numeric: fill with a stamped accumulator, then sort each row ---
    let mut col_idx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    {
        let _k = profile::kernel("numeric");
        let col_base = col_idx.as_mut_ptr() as usize;
        let val_base = values.as_mut_ptr() as usize;
        let row_ptr_ref = &row_ptr;
        parallel_for_chunks(policy, n, move |range| {
            let mut marker = vec![u32::MAX; m];
            let mut pos = vec![0u32; m];
            for i in range {
                let stamp = i as u32;
                let start = row_ptr_ref[i];
                let mut len = 0usize;
                // SAFETY: each row writes only its own [start, start+len)
                // output range; rows are disjoint.
                let (ccols, cvals) = unsafe {
                    let end = row_ptr_ref[i + 1];
                    (
                        std::slice::from_raw_parts_mut(
                            (col_base as *mut u32).add(start),
                            end - start,
                        ),
                        std::slice::from_raw_parts_mut(
                            (val_base as *mut f64).add(start),
                            end - start,
                        ),
                    )
                };
                let (acols, avals) = a.row(i);
                for (&k, &av) in acols.iter().zip(avals) {
                    let (bcols, bvals) = b.row(k as usize);
                    for (&c, &bv) in bcols.iter().zip(bvals) {
                        let cu = c as usize;
                        if marker[cu] != stamp {
                            marker[cu] = stamp;
                            pos[cu] = len as u32;
                            ccols[len] = c;
                            cvals[len] = av * bv;
                            len += 1;
                        } else {
                            cvals[pos[cu] as usize] += av * bv;
                        }
                    }
                }
                debug_assert_eq!(len, ccols.len(), "symbolic/numeric nnz mismatch");
                sort_row(ccols, cvals);
            }
        });
    }
    CsrMatrix {
        n_rows: n,
        n_cols: m,
        row_ptr: mlcg_graph::Offsets::from_usize(row_ptr),
        col_idx,
        values,
    }
}

fn sort_row(cols: &mut [u32], vals: &mut [f64]) {
    if cols.len() <= 24 {
        insertion_sort_pairs(cols, vals);
    } else {
        let mut idx: Vec<u32> = (0..cols.len() as u32).collect();
        idx.sort_unstable_by_key(|&i| cols[i as usize]);
        let nc: Vec<u32> = idx.iter().map(|&i| cols[i as usize]).collect();
        let nv: Vec<f64> = idx.iter().map(|&i| vals[i as usize]).collect();
        cols.copy_from_slice(&nc);
        vals.copy_from_slice(&nv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::transpose;
    use mlcg_graph::builder::from_edges_weighted;
    use mlcg_graph::generators::rmat;
    use mlcg_par::rng::Xoshiro256pp;

    fn dense_mul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let (n, k, m) = (a.len(), b.len(), b[0].len());
        let mut c = vec![vec![0.0; m]; n];
        for i in 0..n {
            for l in 0..k {
                if a[i][l] != 0.0 {
                    for j in 0..m {
                        c[i][j] += a[i][l] * b[l][j];
                    }
                }
            }
        }
        c
    }

    fn random_matrix(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for _ in 0..rows {
            let mut cs: Vec<u32> = (0..nnz_per_row)
                .map(|_| rng.next_below(cols as u64) as u32)
                .collect();
            cs.sort_unstable();
            cs.dedup();
            for &c in &cs {
                col_idx.push(c);
                values.push((rng.next_below(9) + 1) as f64);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n_rows: rows,
            n_cols: cols,
            row_ptr: mlcg_graph::Offsets::from_usize(row_ptr),
            col_idx,
            values,
        }
    }

    #[test]
    fn matches_dense_reference() {
        for policy in ExecPolicy::all_test_policies() {
            let a = random_matrix(30, 20, 5, 1);
            let b = random_matrix(20, 25, 4, 2);
            let c = spgemm(&policy, &a, &b);
            c.validate().unwrap();
            let expect = dense_mul(&a.to_dense(), &b.to_dense());
            assert_eq!(c.to_dense(), expect, "policy {policy}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let policy = ExecPolicy::serial();
        let a = random_matrix(15, 15, 4, 3);
        let i = CsrMatrix::identity(15);
        assert_eq!(spgemm(&policy, &a, &i).to_dense(), a.to_dense());
        assert_eq!(spgemm(&policy, &i, &a).to_dense(), a.to_dense());
    }

    #[test]
    fn rows_are_sorted_and_deduplicated() {
        let policy = ExecPolicy::serial();
        let a = random_matrix(40, 30, 8, 5);
        let c = spgemm(&policy, &a, &transpose(&a));
        for i in 0..c.n_rows {
            let (cols, _) = c.row(i);
            assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "row {i} unsorted or duplicated"
            );
        }
    }

    #[test]
    fn pap_t_collapses_aggregates() {
        // Path 0-1-2-3 with mapping {0,1}->0, {2,3}->1: PAP^T must be
        // [[2w01, w12], [w12, 2w23]] counting internal edges on the diagonal.
        let g = from_edges_weighted(4, &[(0, 1, 5), (1, 2, 3), (2, 3, 7)]);
        let a = CsrMatrix::from_graph(&g);
        let p = CsrMatrix::prolongation(&[0, 0, 1, 1], 2);
        let policy = ExecPolicy::serial();
        let pa = spgemm(&policy, &p, &a);
        let papt = spgemm(&policy, &pa, &transpose(&p));
        let d = papt.to_dense();
        assert_eq!(d[0], vec![10.0, 3.0]);
        assert_eq!(d[1], vec![3.0, 14.0]);
    }

    #[test]
    fn larger_graph_pap_t_preserves_total_weight() {
        let g = rmat(8, 6, 0.5, 0.2, 0.2, 9);
        let a = CsrMatrix::from_graph(&g);
        let n = g.n();
        // Arbitrary contiguous mapping into n/3 aggregates.
        let nc = n.div_ceil(3);
        let mapping: Vec<u32> = (0..n).map(|u| (u / 3) as u32).collect();
        let p = CsrMatrix::prolongation(&mapping, nc);
        let policy = ExecPolicy::host();
        let pa = spgemm(&policy, &p, &a);
        let papt = spgemm(&policy, &pa, &transpose(&p));
        let total_in: f64 = a.values.iter().sum();
        let total_out: f64 = papt.values.iter().sum();
        assert!(
            (total_in - total_out).abs() < 1e-9,
            "PAP^T must conserve total weight"
        );
    }
}
