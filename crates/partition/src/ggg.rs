//! Greedy graph growing — the initial partitioner used with FM refinement
//! (as in the paper and in Metis).
//!
//! Grow a region from a random seed vertex, repeatedly absorbing the
//! frontier vertex whose move reduces the cut the most (FM gain), until
//! the region holds half the vertex weight. Several restarts keep the best
//! bisection.

use crate::gainheap::GainHeap;
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{Csr, VId};
use mlcg_par::rng::Xoshiro256pp;

/// Number of random restarts.
const RESTARTS: usize = 4;

/// Compute a balanced bisection by greedy region growing; labels are 0 for
/// the grown region and 1 for the remainder.
pub fn greedy_graph_growing(g: &Csr, seed: u64) -> Vec<u32> {
    greedy_graph_growing_frac(g, seed, 0.5)
}

/// [`greedy_graph_growing`] with the grown region targeting `frac` of the
/// total vertex weight.
pub fn greedy_graph_growing_frac(g: &Csr, seed: u64, frac: f64) -> Vec<u32> {
    let n = g.n();
    if n == 0 {
        return vec![];
    }
    assert!((0.0..=1.0).contains(&frac));
    let mut rng = Xoshiro256pp::new(seed);
    let total = g.total_vwgt();
    let t0 = ((total as f64 * frac).round() as u64).min(total);
    // Rank restarts by (imbalance excess, cut): growth can overshoot the
    // target by up to one vertex, so prefer the most balanced low-cut
    // result.
    let mut best: Option<((u64, u64), Vec<u32>)> = None;
    for _ in 0..RESTARTS {
        let start = rng.next_below(n as u64) as u32;
        let part = grow_from(g, start, t0);
        let cut = edge_cut(g, &part);
        let (w0, w1) = mlcg_graph::metrics::part_weights(g, &part);
        let key = (
            w0.saturating_sub(t0).max(w1.saturating_sub(total - t0)),
            cut,
        );
        if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
            best = Some((key, part));
        }
    }
    best.unwrap().1
}

fn grow_from(g: &Csr, start: u32, target: u64) -> Vec<u32> {
    let n = g.n();
    let mut part = vec![1u32; n];
    // Gain of absorbing each outside vertex: edges into the region become
    // internal. Starts at -(weighted degree), so the heap orders the
    // frontier by the true FM gain of moving into the region.
    let mut gain: Vec<i64> = (0..n)
        .map(|u| -(g.weights(u as VId).iter().sum::<u64>() as i64))
        .collect();
    // Holds exactly the frontier: outside vertices with a region neighbor.
    let mut heap = GainHeap::new(n);
    let mut weight = 0u64;

    let mut add = |u: u32, part: &mut [u32], heap: &mut GainHeap| {
        part[u as usize] = 0;
        weight += g.vwgt()[u as usize];
        for (v, w) in g.edges(u) {
            let v = v as usize;
            if part[v] == 0 {
                continue;
            }
            gain[v] += 2 * w as i64;
            heap.upsert(v as u32, gain[v]);
        }
        weight
    };

    let mut grown = add(start, &mut part, &mut heap);
    while grown < target {
        // Classic GGG: absorb the best-gain frontier vertex outright; the
        // final overshoot is at most one vertex weight and FM repairs it.
        // An exhausted frontier (a disconnected graph) absorbs the first
        // vertex still outside.
        let next = match heap.pop() {
            Some((_, u)) => u,
            None => match (0..n as u32).find(|&u| part[u as usize] != 0) {
                Some(u) => u,
                None => break,
            },
        };
        grown = add(next, &mut part, &mut heap);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;
    use mlcg_graph::metrics::{imbalance, part_weights};

    #[test]
    fn grows_balanced_region_on_grid() {
        let g = gen::grid2d(10, 10);
        let part = greedy_graph_growing(&g, 5);
        let (w0, w1) = part_weights(&g, &part);
        assert!(w0 >= 45 && w1 >= 45, "weights {w0}/{w1}");
    }

    #[test]
    fn region_is_connected() {
        let g = gen::grid2d(8, 8);
        let part = greedy_graph_growing(&g, 9);
        // Check part-0 connectivity by BFS within the region.
        let seed = (0..g.n()).find(|&u| part[u] == 0).unwrap() as u32;
        let mut seen = vec![false; g.n()];
        let mut q = std::collections::VecDeque::from([seed]);
        seen[seed as usize] = true;
        let mut count = 1;
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u) {
                if part[v as usize] == 0 && !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    q.push_back(v);
                }
            }
        }
        assert_eq!(count, part.iter().filter(|&&p| p == 0).count());
    }

    #[test]
    fn weighted_vertices_respected() {
        let mut g = gen::path(6);
        g.set_vwgt(vec![1, 1, 4, 4, 1, 1]);
        let part = greedy_graph_growing(&g, 3);
        let (w0, w1) = part_weights(&g, &part);
        assert!(w0.max(w1) as f64 <= 1.6 * 6.0, "weights {w0}/{w1}");
        let _ = imbalance(&g, &part);
    }

    #[test]
    fn barbell_cut_found() {
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j));
                edges.push((i + 6, j + 6));
            }
        }
        edges.push((0, 6));
        let g = mlcg_graph::builder::from_edges_unit(12, &edges);
        let part = greedy_graph_growing(&g, 1);
        assert_eq!(edge_cut(&g, &part), 1);
    }

    #[test]
    fn single_vertex_graph() {
        let g = gen::path(1);
        let part = greedy_graph_growing(&g, 1);
        assert_eq!(part.len(), 1);
    }
}
