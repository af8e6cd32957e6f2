//! CSR sparse matrix over `f64`.

use mlcg_graph::{Csr, Offsets, VId};

/// A general (possibly rectangular) sparse matrix in CSR form.
///
/// Row offsets share the graph crate's width-adaptive [`Offsets`]: `u32`
/// whenever every offset fits (always, short of ~4.29 B nonzeros), full
/// `usize` otherwise — SpMV is bandwidth bound, so the narrow offsets are
/// a measurable win (`bench-ingest` tracks the gap).
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Width-adaptive row offsets, `n_rows + 1` entries.
    pub row_ptr: Offsets,
    /// Column indices, `nnz` entries (sorted within each row for matrices
    /// produced by this crate).
    pub col_idx: Vec<u32>,
    /// Nonzero values aligned with `col_idx`.
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The columns/values of one row.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.row_ptr.range(i);
        (&self.col_idx[r.clone()], &self.values[r])
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: Offsets::from_usize((0..=n).collect()),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Adjacency matrix of a weighted graph (weights cast to `f64`). The
    /// graph's offsets are cloned width-preserving — no widening copy.
    pub fn from_graph(g: &Csr) -> Self {
        CsrMatrix {
            n_rows: g.n(),
            n_cols: g.n(),
            row_ptr: g.offsets().clone(),
            col_idx: g.adj().to_vec(),
            values: g.wgt().iter().map(|&w| w as f64).collect(),
        }
    }

    /// Graph Laplacian `L = D − A` (includes the diagonal).
    pub fn laplacian(g: &Csr) -> Self {
        let n = g.n();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(g.num_entries() + n);
        let mut values = Vec::with_capacity(g.num_entries() + n);
        row_ptr.push(0);
        for u in 0..n as VId {
            let deg_w: f64 = g.weights(u).iter().map(|&w| w as f64).sum();
            let mut placed_diag = false;
            for (v, w) in g.edges(u) {
                if !placed_diag && v > u {
                    col_idx.push(u);
                    values.push(deg_w);
                    placed_diag = true;
                }
                col_idx.push(v);
                values.push(-(w as f64));
            }
            if !placed_diag {
                col_idx.push(u);
                values.push(deg_w);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: Offsets::from_usize(row_ptr),
            col_idx,
            values,
        }
    }

    /// The shifted operator `σI − L` whose dominant eigenvector (after
    /// deflating the constant vector) is the Fiedler vector. `σ` is the
    /// Gershgorin bound `max_u 2·deg_w(u)` plus one.
    pub fn shifted_laplacian(g: &Csr) -> (Self, f64) {
        let mut l = Self::laplacian(g);
        let sigma = 1.0
            + (0..g.n() as VId)
                .map(|u| 2.0 * g.weights(u).iter().map(|&w| w as f64).sum::<f64>())
                .fold(0.0f64, f64::max);
        // σI − L: negate everything and add σ on the diagonal.
        for i in 0..l.n_rows {
            for k in l.row_ptr.range(i) {
                l.values[k] = -l.values[k];
                if l.col_idx[k] as usize == i {
                    l.values[k] += sigma;
                }
            }
        }
        (l, sigma)
    }

    /// The prolongation matrix `P` of a fine-to-coarse mapping: `n_c × n`
    /// with `P[map[u], u] = 1`. Rows are built by counting sort, so columns
    /// are sorted within each row.
    pub fn prolongation(mapping: &[u32], n_coarse: usize) -> Self {
        let n = mapping.len();
        let mut row_ptr = vec![0usize; n_coarse + 1];
        for &m in mapping {
            debug_assert!((m as usize) < n_coarse, "mapping label out of range");
            row_ptr[m as usize + 1] += 1;
        }
        for i in 0..n_coarse {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; n];
        let mut cursor = row_ptr.clone();
        for (u, &m) in mapping.iter().enumerate() {
            col_idx[cursor[m as usize]] = u as u32;
            cursor[m as usize] += 1;
        }
        CsrMatrix {
            n_rows: n_coarse,
            n_cols: n,
            row_ptr: Offsets::from_usize(row_ptr),
            col_idx,
            values: vec![1.0; n],
        }
    }

    /// Dense form, for small test matrices.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.n_cols]; self.n_rows];
        for (i, drow) in d.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                drow[c as usize] += v;
            }
        }
        d
    }

    /// Structural sanity checks (offsets monotone, indices in range).
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.n_rows + 1 {
            return Err("row_ptr length".into());
        }
        if self.row_ptr.get(0) != 0 || self.row_ptr.last().unwrap() != self.col_idx.len() {
            return Err("row_ptr ends".into());
        }
        if self.row_ptr.first_non_monotone().is_some() {
            return Err("row_ptr not monotone".into());
        }
        if self.col_idx.len() != self.values.len() {
            return Err("col/val length mismatch".into());
        }
        if self.col_idx.iter().any(|&c| c as usize >= self.n_cols) {
            return Err("column index out of range".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::builder::from_edges_weighted;

    #[test]
    fn identity_dense() {
        let i3 = CsrMatrix::identity(3);
        i3.validate().unwrap();
        assert_eq!(
            i3.to_dense(),
            vec![
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0]
            ]
        );
    }

    #[test]
    fn laplacian_of_weighted_path() {
        // 0 -5- 1 -2- 2
        let g = from_edges_weighted(3, &[(0, 1, 5), (1, 2, 2)]);
        let l = CsrMatrix::laplacian(&g);
        l.validate().unwrap();
        let d = l.to_dense();
        assert_eq!(d[0], vec![5.0, -5.0, 0.0]);
        assert_eq!(d[1], vec![-5.0, 7.0, -2.0]);
        assert_eq!(d[2], vec![0.0, -2.0, 2.0]);
        // Rows sum to zero.
        for row in &d {
            assert!(row.iter().sum::<f64>().abs() < 1e-12);
        }
    }

    #[test]
    fn shifted_laplacian_is_psd_diagonal_dominant() {
        let g = from_edges_weighted(4, &[(0, 1, 1), (1, 2, 3), (2, 3, 1), (0, 3, 2)]);
        let (m, sigma) = CsrMatrix::shifted_laplacian(&g);
        let d = m.to_dense();
        for (i, row) in d.iter().enumerate() {
            let off: f64 = row
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &v)| v.abs())
                .sum();
            assert!(
                row[i] >= off,
                "row {i} not diagonally dominant (sigma {sigma})"
            );
            assert!(row[i] > 0.0);
        }
    }

    #[test]
    fn prolongation_rows_partition_columns() {
        let p = CsrMatrix::prolongation(&[0, 1, 0, 2, 1], 3);
        p.validate().unwrap();
        assert_eq!(p.n_rows, 3);
        assert_eq!(p.n_cols, 5);
        assert_eq!(p.row(0).0, &[0, 2]);
        assert_eq!(p.row(1).0, &[1, 4]);
        assert_eq!(p.row(2).0, &[3]);
        assert_eq!(p.nnz(), 5);
    }

    #[test]
    fn from_graph_matches_adjacency() {
        let g = from_edges_weighted(3, &[(0, 1, 4), (1, 2, 6)]);
        let a = CsrMatrix::from_graph(&g);
        let d = a.to_dense();
        assert_eq!(d[0][1], 4.0);
        assert_eq!(d[1][0], 4.0);
        assert_eq!(d[1][2], 6.0);
        assert_eq!(d[0][0], 0.0);
    }
}
