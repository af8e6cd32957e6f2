//! Heavy-edge classification for the Fig. 2 reproduction.
//!
//! Running sequential HEC labels each heavy edge `⟨u, H[u]⟩` as a *create*
//! edge (a new coarse vertex is born), an *inherit* edge (`u` joins the
//! aggregate of its already-mapped heavy neighbor) or a *skip* edge (`u`
//! was already mapped when visited). The paper's Fig. 2 (left) shows this
//! labeling; Fig. 2 (right) shows the heavy-neighbor digraph — a
//! pseudoforest whose non-zero in-degree vertices become HEC3's roots.

use super::util::heavy_neighbors;
use super::UNMAPPED;
use mlcg_graph::Csr;
use mlcg_par::perm::random_permutation;
use mlcg_par::ExecPolicy;

/// Classification of one heavy edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeClass {
    /// Both endpoints unmapped at visit time: a coarse vertex is created.
    Create,
    /// The heavy neighbor was mapped: the vertex inherits its label.
    Inherit,
    /// The vertex was already mapped: nothing happens.
    Skip,
}

/// Per-vertex heavy edge with its class, in visit order.
#[derive(Clone, Debug)]
pub struct ClassifiedEdge {
    /// The visited vertex.
    pub u: u32,
    /// Its heavy neighbor `H[u]`.
    pub v: u32,
    /// What the sequential algorithm did with this edge.
    pub class: EdgeClass,
}

/// Replay sequential HEC and record each heavy edge's class; also returns
/// the heavy-neighbor array (the Fig. 2-right digraph).
///
/// The replay itself is inherently sequential, but the heavy-neighbor scan
/// and the visit permutation run under the caller's `policy` — both are
/// deterministic across policies, so the classification is too (asserted
/// by `identical_across_policies`).
pub fn classify_heavy_edges(
    policy: &ExecPolicy,
    g: &Csr,
    seed: u64,
) -> (Vec<ClassifiedEdge>, Vec<u32>) {
    let n = g.n();
    let mut h = Vec::new();
    heavy_neighbors(policy, g, &mut h);
    let p = random_permutation(policy, n, seed);
    let mut m = vec![UNMAPPED; n];
    let mut next = 0u32;
    let mut out = Vec::with_capacity(n);
    for &u in &p {
        let v = h[u as usize];
        let class = if m[u as usize] != UNMAPPED {
            EdgeClass::Skip
        } else if m[v as usize] != UNMAPPED {
            m[u as usize] = m[v as usize];
            EdgeClass::Inherit
        } else {
            m[v as usize] = next;
            m[u as usize] = next;
            next += 1;
            EdgeClass::Create
        };
        out.push(ClassifiedEdge { u, v, class });
    }
    (out, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::demo::fig1_graph;
    use mlcg_graph::generators as gen;

    #[test]
    fn classes_cover_all_vertices() {
        let g = fig1_graph();
        let (edges, h) = classify_heavy_edges(&ExecPolicy::serial(), &g, 42);
        assert_eq!(edges.len(), g.n());
        assert_eq!(h.len(), g.n());
        // Every vertex appears exactly once as `u`.
        let mut seen = vec![false; g.n()];
        for e in &edges {
            assert!(!seen[e.u as usize]);
            seen[e.u as usize] = true;
            assert_eq!(e.v, h[e.u as usize]);
        }
    }

    #[test]
    fn first_edge_is_create_and_counts_are_consistent() {
        let g = fig1_graph();
        let (edges, _) = classify_heavy_edges(&ExecPolicy::serial(), &g, 7);
        assert_eq!(
            edges[0].class,
            EdgeClass::Create,
            "first visit always creates"
        );
        let creates = edges
            .iter()
            .filter(|e| e.class == EdgeClass::Create)
            .count();
        let skips = edges.iter().filter(|e| e.class == EdgeClass::Skip).count();
        let inherits = edges
            .iter()
            .filter(|e| e.class == EdgeClass::Inherit)
            .count();
        assert_eq!(creates + skips + inherits, g.n());
        // Every create maps two vertices; every inherit maps one; skips map
        // none. Total mapped = n.
        assert_eq!(2 * creates + inherits, g.n());
    }

    #[test]
    fn heavy_digraph_is_a_pseudoforest() {
        // Out-degree exactly one, and (our tie-break) no cycles longer
        // than 2.
        let g = fig1_graph();
        let (_, h) = classify_heavy_edges(&ExecPolicy::serial(), &g, 3);
        for u in 0..g.n() {
            let mut slow = u;
            let mut fast = h[u] as usize;
            let mut steps = 0;
            while slow != fast && steps < g.n() {
                slow = h[slow] as usize;
                fast = h[h[fast] as usize] as usize;
                steps += 1;
            }
            // Any cycle reachable from u must have length 2.
            let start = slow;
            let mut len = 1;
            let mut cur = h[start] as usize;
            while cur != start {
                cur = h[cur] as usize;
                len += 1;
                assert!(len <= g.n());
            }
            assert_eq!(len, 2, "cycle through {start} has length {len}");
        }
    }

    #[test]
    fn identical_across_policies() {
        // Both inputs to the replay (heavy neighbors, permutation) are
        // schedule-deterministic, so every policy yields the same
        // classification bit for bit.
        for g in [fig1_graph(), gen::grid2d(13, 11), gen::star(20)] {
            let (ref_edges, ref_h) = classify_heavy_edges(&ExecPolicy::serial(), &g, 42);
            for policy in ExecPolicy::all_test_policies() {
                let (edges, h) = classify_heavy_edges(&policy, &g, 42);
                assert_eq!(h, ref_h, "heavy array differs under {policy}");
                assert_eq!(edges.len(), ref_edges.len());
                for (a, b) in edges.iter().zip(&ref_edges) {
                    assert_eq!(
                        (a.u, a.v, a.class),
                        (b.u, b.v, b.class),
                        "classification differs under {policy}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_edges_appear_on_stars() {
        // On a star, after the hub pairs with a leaf, later leaves inherit;
        // the hub's own edge (if visited later) is a skip.
        let g = gen::star(10);
        let mut saw_skip_or_inherit = false;
        let (edges, _) = classify_heavy_edges(&ExecPolicy::serial(), &g, 5);
        for e in &edges[1..] {
            if matches!(e.class, EdgeClass::Skip | EdgeClass::Inherit) {
                saw_skip_or_inherit = true;
            }
        }
        assert!(saw_skip_or_inherit);
    }
}
