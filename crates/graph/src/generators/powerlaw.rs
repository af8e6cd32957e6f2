//! Skewed-degree generators: RMAT/Kronecker, preferential attachment,
//! copying models, clique overlays, small worlds, and hub injection.
//!
//! These model the paper's *skewed* group: kron21 (stochastic Kronecker),
//! Orkut/hollywood09 (social, near-cliques), ic04/citation (web/citation
//! copying structure), ogbn-products (co-purchase), ppa (dense with hubs),
//! and vas_stokes_4M (stencil rows plus a few extremely dense rows).

use crate::builder::from_edges_unit;
use crate::csr::{Csr, VId};
use mlcg_par::rng::Xoshiro256pp;

/// RMAT / stochastic-Kronecker generator (Graph500 style) with parameter
/// noise. `n = 2^scale` vertices and `edge_factor * n` sampled edges
/// (duplicates and loops are discarded by the builder, so the final count
/// is somewhat lower — as with real Kronecker graphs).
///
/// Each level draws one `r` in `[0, 1)` and picks the quadrant with the
/// cumulative bounds `a ≤ a + b ≤ a + b + c`: `r ≥ a + b` sets the row
/// bit, and `a ≤ r < a + b` or `r ≥ a + b + c` sets the column bit. Both
/// bits come from comparisons, not branches: the draw is random, so a
/// branch on it would mispredict on most levels.
pub fn rmat(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> Csr {
    let n = 1usize << scale;
    let d = 1.0 - a - b - c;
    assert!(d >= 0.0, "rmat: probabilities must sum to <= 1");
    let (ab, abc) = (a + b, a + b + c);
    let mut rng = Xoshiro256pp::new(seed);
    let m = edge_factor * n;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v): (VId, VId) = (0, 0);
        for _ in 0..scale {
            let r = rng.next_f64();
            u = (u << 1) | VId::from(r >= ab);
            v = (v << 1) | VId::from((r >= a && r < ab) | (r >= abc));
        }
        edges.push((u, v));
    }
    from_edges_unit(n, &edges)
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_attach` existing vertices sampled proportionally to degree (via the
/// repeated-endpoint trick).
pub fn ba(n: usize, m_attach: usize, seed: u64) -> Csr {
    assert!(n > m_attach && m_attach >= 1);
    let mut rng = Xoshiro256pp::new(seed);
    let mut edges: Vec<(VId, VId)> = Vec::with_capacity(n * m_attach);
    // Flat list of edge endpoints: sampling uniformly from it is sampling
    // vertices proportionally to degree.
    let mut endpoints: Vec<VId> = Vec::with_capacity(2 * n * m_attach);
    // Seed clique over the first m_attach + 1 vertices.
    for i in 0..=m_attach {
        for j in 0..i {
            edges.push((j as VId, i as VId));
            endpoints.push(j as VId);
            endpoints.push(i as VId);
        }
    }
    for u in (m_attach + 1)..n {
        for _ in 0..m_attach {
            let t = endpoints[rng.next_below(endpoints.len() as u64) as usize];
            edges.push((t, u as VId));
            endpoints.push(t);
            endpoints.push(u as VId);
        }
    }
    from_edges_unit(n, &edges)
}

/// Copying model (web-crawl / citation structure): each new vertex picks a
/// random prototype and copies each of the prototype's links with
/// probability `p_copy`, otherwise linking to a uniform random vertex;
/// `out_deg` links are created per vertex. Produces power-law in-degrees
/// and many near-duplicate neighborhoods (twins — important for two-hop
/// matching).
pub fn copying(n: usize, out_deg: usize, p_copy: f64, seed: u64) -> Csr {
    assert!(n > out_deg + 1);
    let mut rng = Xoshiro256pp::new(seed);
    // Store each vertex's out-links for prototype copying.
    let mut out: Vec<Vec<VId>> = Vec::with_capacity(n);
    let mut edges: Vec<(VId, VId)> = Vec::new();
    let seedn = out_deg + 1;
    for i in 0..seedn {
        let links: Vec<VId> = (0..seedn as VId).filter(|&j| j as usize != i).collect();
        for &j in &links {
            if (j as usize) > i {
                edges.push((i as VId, j));
            }
        }
        out.push(links);
    }
    for u in seedn..n {
        let proto = rng.next_below(u as u64) as usize;
        let mut links = Vec::with_capacity(out_deg);
        for k in 0..out_deg {
            let target = if rng.next_f64() < p_copy && k < out[proto].len() {
                out[proto][k]
            } else {
                rng.next_below(u as u64) as VId
            };
            links.push(target);
            edges.push((u as VId, target));
        }
        out.push(links);
    }
    from_edges_unit(n, &edges)
}

/// Clique-overlay ("movie") model for co-star / co-author structure:
/// `n_cliques` groups, each a clique over `2..=max_clique` members drawn
/// from a Zipf-tilted popularity distribution. hollywood09-like: strong
/// local density, heavy skew, large near-cliques that stress two-hop
/// matching exactly as the paper observed on Orkut/kron21.
pub fn cliques_overlay(n: usize, n_cliques: usize, max_clique: usize, seed: u64) -> Csr {
    let mut rng = Xoshiro256pp::new(seed);
    let mut edges: Vec<(VId, VId)> = Vec::new();
    let mut members: Vec<VId> = Vec::new();
    for _ in 0..n_cliques {
        let k = 2 + rng.next_below((max_clique - 1) as u64) as usize;
        members.clear();
        for _ in 0..k {
            // Zipf-ish popularity: square a uniform to bias to low ids.
            let r = rng.next_f64();
            let v = ((r * r) * n as f64) as usize;
            members.push(v.min(n - 1) as VId);
        }
        members.sort_unstable();
        members.dedup();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                edges.push((members[i], members[j]));
            }
        }
    }
    from_edges_unit(n, &edges)
}

/// Watts–Strogatz small world: ring lattice of degree `2k`, each edge
/// rewired with probability `p`. ppa-like base (dense, low diameter).
pub fn small_world(n: usize, k: usize, p: f64, seed: u64) -> Csr {
    assert!(n > 2 * k + 1);
    let mut rng = Xoshiro256pp::new(seed);
    let mut edges = Vec::with_capacity(n * k);
    for u in 0..n {
        for d in 1..=k {
            let v = (u + d) % n;
            if rng.next_f64() < p {
                let w = rng.next_below(n as u64) as usize;
                edges.push((u as VId, w as VId));
            } else {
                edges.push((u as VId, v as VId));
            }
        }
    }
    from_edges_unit(n, &edges)
}

/// Inject `n_hubs` high-degree vertices into an existing graph: each hub
/// gains `hub_deg` random extra neighbors. vas-stokes-like (regular rows
/// plus a few extremely dense rows).
pub fn with_hubs(g: &Csr, n_hubs: usize, hub_deg: usize, seed: u64) -> Csr {
    let mut rng = Xoshiro256pp::new(seed);
    let n = g.n();
    let mut edges: Vec<(VId, VId)> = Vec::with_capacity(g.m() + n_hubs * hub_deg);
    for u in 0..n as VId {
        for &v in g.neighbors(u) {
            if v > u {
                edges.push((u, v));
            }
        }
    }
    for _ in 0..n_hubs {
        let hub = rng.next_below(n as u64) as VId;
        for _ in 0..hub_deg {
            let v = rng.next_below(n as u64) as VId;
            edges.push((hub, v));
        }
    }
    from_edges_unit(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::largest_component;
    use crate::metrics::DegreeStats;

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(12, 8, 0.57, 0.19, 0.19, 21);
        g.validate().unwrap();
        let (lcc, _) = largest_component(&g);
        let s = DegreeStats::of(&lcc);
        assert!(s.is_skewed(), "rmat skew ratio {}", s.skew);
        assert!(
            s.skew > 15.0,
            "kron-like graphs should be strongly skewed: {}",
            s.skew
        );
    }

    #[test]
    fn ba_powerlaw_hubs() {
        let g = ba(3000, 4, 7);
        g.validate().unwrap();
        assert!(crate::cc::is_connected(&g));
        assert!(
            g.max_degree() > 40,
            "BA should grow hubs: {}",
            g.max_degree()
        );
        // m is close to n * m_attach (a few duplicate samples collapse).
        assert!(
            g.m() >= 3000 * 4 - 300 && g.m() <= 3000 * 4 + 10,
            "m = {}",
            g.m()
        );
    }

    #[test]
    fn copying_has_twins_and_skew() {
        let g = copying(4000, 6, 0.7, 13);
        g.validate().unwrap();
        let (lcc, _) = largest_component(&g);
        assert!(DegreeStats::of(&lcc).skew > 5.0);
    }

    #[test]
    fn cliques_overlay_dense_neighborhoods() {
        let g = cliques_overlay(2000, 800, 20, 5);
        g.validate().unwrap();
        let (lcc, _) = largest_component(&g);
        assert!(lcc.n() > 100);
        assert!(DegreeStats::of(&lcc).is_skewed());
    }

    #[test]
    fn small_world_regularish() {
        let g = small_world(2000, 5, 0.1, 9);
        g.validate().unwrap();
        assert!(crate::cc::is_connected(&g));
        let s = DegreeStats::of(&g);
        assert!((s.avg_degree - 10.0).abs() < 1.0);
    }

    #[test]
    fn hubs_raise_max_degree() {
        let base = small_world(2000, 5, 0.05, 3);
        let g = with_hubs(&base, 3, 500, 4);
        g.validate().unwrap();
        assert!(g.max_degree() > 200, "hub degree {}", g.max_degree());
        assert!(DegreeStats::of(&g).is_skewed());
    }

    #[test]
    fn generators_deterministic() {
        assert_eq!(
            rmat(8, 4, 0.57, 0.19, 0.19, 1),
            rmat(8, 4, 0.57, 0.19, 0.19, 1)
        );
        assert_eq!(ba(500, 3, 2), ba(500, 3, 2));
        assert_eq!(copying(500, 4, 0.5, 3), copying(500, 4, 0.5, 3));
    }
}
