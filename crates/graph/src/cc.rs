//! Connected components and largest-component extraction.
//!
//! The paper preprocesses every input graph by extracting the largest
//! connected component and relabeling vertex identifiers; the coarsening
//! algorithms then assume connectivity (HEC's heavy neighbor "always
//! exists"). We use a sequential union–find with path halving and union by
//! size — linear in practice and robust for any topology.

use crate::csr::{Csr, VId, Weight};

/// Union–find over `0..n`.
pub struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let g = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = g;
            x = g;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns false if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }
}

/// Component labels (contiguous from 0) and the component count.
pub fn components(g: &Csr) -> (Vec<u32>, usize) {
    let n = g.n();
    let mut dsu = Dsu::new(n);
    for u in 0..n as VId {
        for &v in g.neighbors(u) {
            if v > u {
                dsu.union(u, v);
            }
        }
    }
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    for u in 0..n as u32 {
        let r = dsu.find(u) as usize;
        if label[r] == u32::MAX {
            label[r] = next;
            next += 1;
        }
        label[u as usize] = label[r];
    }
    (label, next as usize)
}

/// True if the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Csr) -> bool {
    g.n() <= 1 || components(g).1 == 1
}

/// Extract the subgraph induced by `ids` (strictly ascending, so the
/// relabeled adjacency stays sorted), relabeling vertex `ids[i]` to `i`.
/// Vertex and edge weights carry over. Returns the subgraph and the
/// old→new id map (`u32::MAX` for dropped vertices).
pub fn induced_subgraph(g: &Csr, ids: &[u32]) -> (Csr, Vec<u32>) {
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "induced_subgraph: ids must be ascending"
    );
    let mut newid = vec![u32::MAX; g.n()];
    for (i, &u) in ids.iter().enumerate() {
        newid[u as usize] = i as u32;
    }
    let nc = ids.len();
    let mut xadj = vec![0usize; nc + 1];
    for (i, &u) in ids.iter().enumerate() {
        xadj[i + 1] = g
            .neighbors(u)
            .iter()
            .filter(|&&v| newid[v as usize] != u32::MAX)
            .count();
    }
    for i in 0..nc {
        xadj[i + 1] += xadj[i];
    }
    let mut adj: Vec<VId> = Vec::with_capacity(xadj[nc]);
    let mut wgt: Vec<Weight> = Vec::with_capacity(xadj[nc]);
    let mut vwgt = Vec::with_capacity(nc);
    for &u in ids {
        for (v, w) in g.edges(u) {
            if newid[v as usize] != u32::MAX {
                adj.push(newid[v as usize]);
                wgt.push(w);
            }
        }
        vwgt.push(g.vwgt()[u as usize]);
    }
    (Csr::from_parts_weighted(xadj, adj, wgt, vwgt), newid)
}

/// Extract the largest connected component, relabeling vertices to
/// `0..n_c` in order of their original identifiers. Vertex and edge weights
/// are carried over. Returns the subgraph and the old→new id map
/// (`u32::MAX` for dropped vertices).
pub fn largest_component(g: &Csr) -> (Csr, Vec<u32>) {
    let n = g.n();
    if n == 0 {
        return (Csr::empty(), vec![]);
    }
    let (label, ncomp) = components(g);
    if ncomp == 1 {
        return (g.clone(), (0..n as u32).collect());
    }
    let mut sizes = vec![0usize; ncomp];
    for &l in &label {
        sizes[l as usize] += 1;
    }
    let biggest = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .map(|(i, _)| i as u32)
        .unwrap();

    let ids: Vec<u32> = (0..n as u32)
        .filter(|&u| label[u as usize] == biggest)
        .collect();
    induced_subgraph(g, &ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges_unit;

    #[test]
    fn single_component() {
        let g = from_edges_unit(4, &[(0, 1), (1, 2), (2, 3)]);
        let (label, k) = components(&g);
        assert_eq!(k, 1);
        assert!(label.iter().all(|&l| l == 0));
        assert!(is_connected(&g));
    }

    #[test]
    fn two_components_and_isolated() {
        let g = from_edges_unit(5, &[(0, 1), (2, 3)]);
        let (label, k) = components(&g);
        assert_eq!(k, 3); // {0,1}, {2,3}, {4}
        assert_eq!(label[0], label[1]);
        assert_eq!(label[2], label[3]);
        assert_ne!(label[0], label[2]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn largest_component_extraction() {
        // Component A: path 0-1-2 (3 vertices); component B: edge 3-4.
        let g = from_edges_unit(5, &[(0, 1), (1, 2), (3, 4)]);
        let (lcc, map) = largest_component(&g);
        lcc.validate().unwrap();
        assert_eq!(lcc.n(), 3);
        assert_eq!(lcc.m(), 2);
        assert_eq!(map[3], u32::MAX);
        assert_eq!(map[4], u32::MAX);
        assert_eq!(map[0], 0);
        assert!(is_connected(&lcc));
    }

    #[test]
    fn connected_graph_passthrough() {
        let g = from_edges_unit(3, &[(0, 1), (1, 2)]);
        let (lcc, map) = largest_component(&g);
        assert_eq!(lcc, g);
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn weights_survive_extraction() {
        let g = crate::builder::from_edges_weighted(4, &[(0, 1, 9), (2, 3, 1), (1, 0, 1)]);
        // component {0,1} has total weight 10 on its edge; {2,3} has 1.
        let (lcc, _) = largest_component(&g);
        // Both components have 2 vertices; ties broken by first max — either
        // is acceptable, but weights must be intact.
        assert_eq!(lcc.n(), 2);
        let w = lcc.find_edge(0, 1).unwrap();
        assert!(w == 10 || w == 1);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Csr::empty()));
        let (lcc, map) = largest_component(&Csr::empty());
        assert_eq!(lcc.n(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn dsu_union_find_basics() {
        let mut d = Dsu::new(4);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(2, 3));
        assert_ne!(d.find(0), d.find(2));
        assert!(d.union(0, 3));
        assert_eq!(d.find(1), d.find(2));
    }
}
