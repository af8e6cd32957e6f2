//! Parallel SpMV, transpose, and small dense-vector helpers.

use crate::matrix::CsrMatrix;
use mlcg_par::{parallel_for_mut, profile, ExecPolicy};

/// Parallel sparse matrix–vector product `y = A·x`.
pub fn spmv(policy: &ExecPolicy, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.n_cols, "spmv: x length");
    assert_eq!(y.len(), a.n_rows, "spmv: y length");
    let _k = profile::kernel("spmv");
    parallel_for_mut(policy, y, |i, yi| {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c as usize];
        }
        *yi = acc;
    });
}

/// Transpose by counting sort over columns. Output rows are sorted when the
/// input rows are (counting sort is stable in row order).
pub fn transpose(a: &CsrMatrix) -> CsrMatrix {
    let mut row_ptr = vec![0usize; a.n_cols + 1];
    for &c in &a.col_idx {
        row_ptr[c as usize + 1] += 1;
    }
    for i in 0..a.n_cols {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut col_idx = vec![0u32; a.nnz()];
    let mut values = vec![0.0; a.nnz()];
    let mut cursor = row_ptr.clone();
    for i in 0..a.n_rows {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            let p = cursor[c as usize];
            col_idx[p] = i as u32;
            values[p] = v;
            cursor[c as usize] += 1;
        }
    }
    CsrMatrix {
        n_rows: a.n_cols,
        n_cols: a.n_rows,
        row_ptr: mlcg_graph::Offsets::from_usize(row_ptr),
        col_idx,
        values,
    }
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|&v| v * v).sum::<f64>().sqrt()
}

/// Dot product.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Scale `x` in place so its 2-norm is 1; returns the original norm.
/// Zero vectors are left unchanged.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        let inv = 1.0 / n;
        for v in x.iter_mut() {
            *v *= inv;
        }
    }
    n
}

/// Remove the component of `x` along the (unnormalized) all-ones vector:
/// `x -= mean(x)`.
pub fn deflate_constant(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::builder::from_edges_weighted;

    #[test]
    fn spmv_matches_dense() {
        let g = from_edges_weighted(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 5)]);
        let a = CsrMatrix::from_graph(&g);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut y = vec![0.0; 4];
        for policy in ExecPolicy::all_test_policies() {
            spmv(&policy, &a, &x, &mut y);
            let d = a.to_dense();
            for i in 0..4 {
                let expect: f64 = (0..4).map(|j| d[i][j] * x[j]).sum();
                assert!((y[i] - expect).abs() < 1e-12, "row {i} policy {policy}");
            }
        }
    }

    #[test]
    fn transpose_involution_and_shape() {
        let p = CsrMatrix::prolongation(&[0, 1, 0, 2, 1, 2, 2], 3);
        let pt = transpose(&p);
        assert_eq!(pt.n_rows, 7);
        assert_eq!(pt.n_cols, 3);
        let ptt = transpose(&pt);
        assert_eq!(ptt.to_dense(), p.to_dense());
    }

    #[test]
    fn transpose_of_symmetric_graph_is_identity_op() {
        let g = from_edges_weighted(5, &[(0, 1, 2), (1, 2, 3), (3, 4, 7), (0, 4, 1)]);
        let a = CsrMatrix::from_graph(&g);
        let at = transpose(&a);
        assert_eq!(a.to_dense(), at.to_dense());
    }

    #[test]
    fn vector_helpers() {
        let mut x = vec![3.0, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-12);
        assert!((dot(&x, &x) - 25.0).abs() < 1e-12);
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-12);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);

        let mut z = vec![1.0, 2.0, 3.0];
        deflate_constant(&mut z);
        assert!(z.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
