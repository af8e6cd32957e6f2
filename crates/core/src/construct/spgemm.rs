//! SpGEMM-based coarse-graph construction: `A_c = P · A · Pᵀ` via two
//! sparse matrix products (the paper's linear-algebra viewpoint, calling
//! the Kokkos Kernels SpGEMM twice — here our [`mlcg_sparse`] substrate).

use crate::mapping::Mapping;
use mlcg_graph::{Csr, Weight};
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_sparse::{spgemm, transpose, CsrMatrix};

/// Build the coarse graph through the `P·A·Pᵀ` triple product, dropping the
/// diagonal (intra-aggregate weight). The two sparse products (the
/// dominant transient of this strategy — `P·A` is as large as the fine
/// matrix) are wrapped in a heap scope recorded on `trace` as
/// `mem/spgemm/{peak,net}_bytes`.
pub fn construct(policy: &ExecPolicy, g: &Csr, mapping: &Mapping, trace: &TraceCollector) -> Csr {
    let mem = trace.heap_scope(|| "spgemm".to_string());
    let a = CsrMatrix::from_graph(g);
    let p = CsrMatrix::prolongation(&mapping.map, mapping.n_coarse);
    let pa = spgemm(policy, &p, &a);
    // Each product scans its right operand's rows once per phase
    // (symbolic + numeric): 2·nnz(A) for P·A, then 2·nnz(P·A) for
    // (P·A)·Pᵀ — this strategy reads strictly more than the adjacency.
    trace.counter_add("construct/edges_scanned", 2 * (a.nnz() + pa.nnz()) as u64);
    let papt = spgemm(policy, &pa, &transpose(&p));
    drop((pa, a, p));
    drop(mem);

    // Convert back to an integer-weighted graph, dropping the diagonal.
    // Values are sums of integer fine weights, so rounding is exact.
    let nc = mapping.n_coarse;
    let mut xadj = Vec::with_capacity(nc + 1);
    let mut adj: Vec<u32> = Vec::with_capacity(papt.nnz());
    let mut wgt: Vec<Weight> = Vec::with_capacity(papt.nnz());
    xadj.push(0);
    for i in 0..nc {
        let (cols, vals) = papt.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            if c as usize != i {
                adj.push(c);
                wgt.push(v.round() as Weight);
            }
        }
        xadj.push(adj.len());
    }
    Csr::from_parts(xadj, adj, wgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct_coarse_graph, ConstructMethod, ConstructOptions};
    use crate::mapping::Mapping;
    use mlcg_graph::builder::from_edges_weighted;

    #[test]
    fn matches_vertex_centric_on_small_case() {
        let g = from_edges_weighted(5, &[(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 6)]);
        let mapping = Mapping {
            map: vec![0, 0, 1, 1, 2],
            n_coarse: 3,
        };
        let policy = ExecPolicy::serial();
        let via_spgemm = construct_coarse_graph(
            &policy,
            &g,
            &mapping,
            &ConstructOptions::with_method(ConstructMethod::Spgemm),
        );
        let via_sort = construct_coarse_graph(
            &policy,
            &g,
            &mapping,
            &ConstructOptions::with_method(ConstructMethod::Sort),
        );
        assert_eq!(via_spgemm, via_sort);
        via_spgemm.validate().unwrap();
        // {0,1}-{2,3} edge: fine (1,2) w=3. {2,3}-{4}: (3,4) w=5. {0,1}-{4}: (0,4) w=6.
        assert_eq!(via_spgemm.find_edge(0, 1), Some(3));
        assert_eq!(via_spgemm.find_edge(1, 2), Some(5));
        assert_eq!(via_spgemm.find_edge(0, 2), Some(6));
    }

    #[test]
    fn diagonal_is_dropped() {
        let g = from_edges_weighted(3, &[(0, 1, 4), (1, 2, 1)]);
        let mapping = Mapping {
            map: vec![0, 0, 1],
            n_coarse: 2,
        };
        let c = construct(
            &ExecPolicy::serial(),
            &g,
            &mapping,
            &TraceCollector::disabled(),
        );
        c.validate().unwrap(); // validate() rejects self-loops
        assert_eq!(c.find_edge(0, 1), Some(1));
    }
}
