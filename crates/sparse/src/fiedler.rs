//! Fiedler vector via deflated power iteration.
//!
//! The paper's spectral refinement computes the eigenvector of the second
//! smallest Laplacian eigenvalue with power iteration, stopping when "the
//! difference of the 2-norm of the iterates" drops below 1e-10. We iterate
//! on the shifted operator `B = σI − L` (so the target eigenvector becomes
//! dominant once the constant vector is deflated) and stop when
//! `‖x_{k+1} − x_k‖₂ < tol` between normalized iterates, with an iteration
//! cap reported to the caller.

use crate::matrix::CsrMatrix;
use crate::ops::{deflate_constant, norm2, normalize, spmv};
use mlcg_graph::Csr;
use mlcg_par::rng::Xoshiro256pp;
use mlcg_par::ExecPolicy;

/// Outcome of a power iteration run.
#[derive(Clone, Debug)]
pub struct PowerIterResult {
    /// The (normalized, mean-free) Fiedler estimate.
    pub vector: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Rayleigh-quotient estimate of the Fiedler value λ₂.
    pub lambda2: f64,
}

/// Compute the Fiedler vector of a connected weighted graph from a random
/// start (seeded).
pub fn fiedler_vector(
    policy: &ExecPolicy,
    g: &Csr,
    tol: f64,
    max_iters: usize,
    seed: u64,
) -> PowerIterResult {
    let n = g.n();
    let mut rng = Xoshiro256pp::new(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
    fiedler_from(policy, g, x0, tol, max_iters)
}

/// Compute the Fiedler vector starting from a given guess — the multilevel
/// spectral method seeds each level with the interpolated coarse vector.
pub fn fiedler_from(
    policy: &ExecPolicy,
    g: &Csr,
    mut x: Vec<f64>,
    tol: f64,
    max_iters: usize,
) -> PowerIterResult {
    let n = g.n();
    assert_eq!(x.len(), n);
    if n == 0 {
        return PowerIterResult {
            vector: x,
            iterations: 0,
            converged: true,
            lambda2: 0.0,
        };
    }
    let (b, sigma) = CsrMatrix::shifted_laplacian(g);
    deflate_constant(&mut x);
    if normalize(&mut x) == 0.0 {
        // Degenerate start (e.g. constant guess): fall back to a fixed ramp.
        x = (0..n).map(|i| i as f64 - (n as f64 - 1.0) / 2.0).collect();
        normalize(&mut x);
    }
    let mut y = vec![0.0; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut mu = 0.0; // dominant eigenvalue estimate of B
    while iterations < max_iters {
        spmv(policy, &b, &x, &mut y);
        deflate_constant(&mut y);
        mu = normalize(&mut y);
        if mu == 0.0 {
            // x was (numerically) in the deflated null space; re-randomize.
            let mut rng = Xoshiro256pp::new(iterations as u64 + 1);
            y.iter_mut().for_each(|v| *v = rng.next_f64() - 0.5);
            deflate_constant(&mut y);
            normalize(&mut y);
        }
        iterations += 1;
        // Eigenvectors are sign-ambiguous; compare up to sign.
        let diff_pos: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, c)| (a - c) * (a - c))
            .sum::<f64>();
        let diff_neg: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, c)| (a + c) * (a + c))
            .sum::<f64>();
        let diff = diff_pos.min(diff_neg).sqrt();
        std::mem::swap(&mut x, &mut y);
        if diff < tol {
            converged = true;
            break;
        }
    }
    PowerIterResult {
        vector: x,
        iterations,
        converged,
        lambda2: sigma - mu,
    }
}

/// Residual `‖L·x − λ₂·x‖₂` — a convergence quality check used in tests and
/// the experiment harness.
pub fn residual(policy: &ExecPolicy, g: &Csr, r: &PowerIterResult) -> f64 {
    let l = CsrMatrix::laplacian(g);
    let mut lx = vec![0.0; g.n()];
    spmv(policy, &l, &r.vector, &mut lx);
    for (i, v) in lx.iter_mut().enumerate() {
        *v -= r.lambda2 * r.vector[i];
    }
    norm2(&lx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::builder::from_edges_unit;
    use mlcg_graph::generators::{cycle, grid2d, path};
    use mlcg_graph::VId;

    const TOL: f64 = 1e-10;

    #[test]
    fn path_fiedler_is_monotone() {
        // The Fiedler vector of a path is a discrete cosine: strictly
        // monotone along the path.
        let g = path(20);
        let r = fiedler_vector(&ExecPolicy::serial(), &g, TOL, 20_000, 7);
        assert!(r.converged, "iterations: {}", r.iterations);
        let v = &r.vector;
        let increasing = v.windows(2).all(|w| w[0] < w[1]);
        let decreasing = v.windows(2).all(|w| w[0] > w[1]);
        assert!(increasing || decreasing, "not monotone: {v:?}");
    }

    #[test]
    fn path_lambda2_matches_closed_form() {
        // λ₂ of the path P_n is 2(1 − cos(π/n)) = 4 sin²(π/2n).
        let n = 16;
        let g = path(n);
        let r = fiedler_vector(&ExecPolicy::serial(), &g, TOL, 50_000, 3);
        let expect = 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
        assert!(r.converged);
        assert!(
            (r.lambda2 - expect).abs() < 1e-6,
            "λ₂ {} vs {expect}",
            r.lambda2
        );
    }

    #[test]
    fn cycle_lambda2() {
        // λ₂ of the cycle C_n is 2(1 − cos(2π/n)).
        let n = 12;
        let g = cycle(n);
        let r = fiedler_vector(&ExecPolicy::serial(), &g, TOL, 50_000, 5);
        let expect = 2.0 * (1.0 - (2.0 * std::f64::consts::PI / n as f64).cos());
        assert!(
            (r.lambda2 - expect).abs() < 1e-5,
            "λ₂ {} vs {expect}",
            r.lambda2
        );
    }

    #[test]
    fn grid_fiedler_splits_long_axis() {
        // On an 8x4 grid, signing by the Fiedler vector should separate the
        // two 4x4 halves along the long axis.
        let g = grid2d(8, 4);
        let r = fiedler_vector(&ExecPolicy::host(), &g, TOL, 100_000, 11);
        assert!(r.converged);
        let v = &r.vector;
        // All vertices in column x share a sign that flips between x<4 and x>=4.
        let sign = |x: usize, y: usize| v[y * 8 + x] >= 0.0;
        let left = sign(0, 0);
        for y in 0..4 {
            for x in 0..2 {
                assert_eq!(sign(x, y), left, "({x},{y})");
            }
            for x in 6..8 {
                assert_eq!(sign(x, y), !left, "({x},{y})");
            }
        }
    }

    #[test]
    fn residual_is_small_after_convergence() {
        let g = grid2d(6, 6);
        let p = ExecPolicy::serial();
        let r = fiedler_vector(&p, &g, TOL, 100_000, 13);
        assert!(r.converged);
        assert!(
            residual(&p, &g, &r) < 1e-6,
            "residual {}",
            residual(&p, &g, &r)
        );
    }

    #[test]
    fn warm_start_converges_faster() {
        let g = grid2d(10, 10);
        let p = ExecPolicy::serial();
        let cold = fiedler_vector(&p, &g, 1e-8, 100_000, 17);
        let warm = fiedler_from(&p, &g, cold.vector.clone(), 1e-8, 100_000);
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations / 4 + 2,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn weighted_barbell_cuts_the_bridge() {
        // Two triangles joined by a light bridge: the Fiedler sign must
        // separate the triangles.
        let g = from_edges_unit(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let r = fiedler_vector(&ExecPolicy::serial(), &g, TOL, 50_000, 19);
        let v = &r.vector;
        for i in 0..3 {
            for j in 3..6 {
                assert!(
                    (v[i] >= 0.0) != (v[j as usize] >= 0.0)
                        || v[i].abs() < 1e-9
                        || v[j as usize].abs() < 1e-9,
                    "triangles not separated: {v:?}"
                );
            }
        }
        let _ = 0 as VId;
    }
}
