//! Laplacian spectrum estimation (Table II metric `µ`): the second-largest
//! eigenvalue of `L = D − A`, computed matrix-free with deflated power
//! iteration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpp_graph::NeighborAccess;

/// Default number of power-iteration steps. The Laplacians of the paper's
/// graphs have well-separated top eigenvalues, so convergence is fast; the
/// tolerance check below usually exits much earlier.
pub const DEFAULT_ITERS: usize = 600;

/// Relative convergence tolerance on the Rayleigh quotient.
pub const DEFAULT_TOL: f64 = 1e-10;

/// Multiplies `y = L x` where `L = D − A`, without materializing `L`.
fn laplacian_mul<G: NeighborAccess>(g: &G, x: &[f64], y: &mut [f64]) {
    for u in g.node_ids() {
        let ui = u as usize;
        let mut acc = g.degree(u) as f64 * x[ui];
        for &v in g.neighbors(u) {
            acc -= x[v as usize];
        }
        y[ui] = acc;
    }
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
    if norm > 0.0 {
        for a in v.iter_mut() {
            *a /= norm;
        }
    }
    norm
}

fn orthogonalize_against(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let dot: f64 = v.iter().zip(b).map(|(a, c)| a * c).sum();
        for (a, c) in v.iter_mut().zip(b) {
            *a -= dot * c;
        }
    }
}

/// Power iteration for the dominant eigenpair of `L`, deflated against
/// `basis` (previously found eigenvectors). Returns `(eigenvalue, vector)`.
fn dominant_eigenpair<G: NeighborAccess>(
    g: &G,
    basis: &[Vec<f64>],
    iters: usize,
    tol: f64,
    seed: u64,
) -> (f64, Vec<f64>) {
    let n = g.node_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    orthogonalize_against(&mut x, basis);
    normalize(&mut x);
    let mut y = vec![0.0f64; n];
    let mut lambda = 0.0f64;
    for _ in 0..iters {
        laplacian_mul(g, &x, &mut y);
        orthogonalize_against(&mut y, basis);
        let new_lambda: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let norm = normalize(&mut y);
        std::mem::swap(&mut x, &mut y);
        if norm == 0.0 {
            return (0.0, x);
        }
        if (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1.0) {
            return (new_lambda, x);
        }
        lambda = new_lambda;
    }
    (lambda, x)
}

/// Largest eigenvalue `λ₁` of the Laplacian.
#[must_use]
pub fn largest_laplacian_eigenvalue<G: NeighborAccess>(g: &G, seed: u64) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    dominant_eigenpair(g, &[], DEFAULT_ITERS, DEFAULT_TOL, seed).0
}

/// Second-largest eigenvalue `λ₂` of the Laplacian (the paper's `µ`),
/// via deflation: find `(λ₁, v₁)`, then power-iterate orthogonally to `v₁`.
///
/// For Laplacians with a repeated top eigenvalue (e.g. complete graphs),
/// deflation correctly returns the same value again.
#[must_use]
pub fn second_largest_laplacian_eigenvalue<G: NeighborAccess>(g: &G, seed: u64) -> f64 {
    if g.node_count() < 2 {
        return 0.0;
    }
    let (l1, v1) = dominant_eigenpair(g, &[], DEFAULT_ITERS, DEFAULT_TOL, seed);
    let (l2, _) = dominant_eigenpair(g, &[v1], DEFAULT_ITERS, DEFAULT_TOL, seed ^ 0x9e37_79b9);
    // Numerical guard: λ₂ can't exceed λ₁.
    l2.min(l1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};

    const EPS: f64 = 1e-6;

    #[test]
    fn complete_graph_spectrum() {
        // K_n Laplacian eigenvalues: 0 plus n with multiplicity n-1 —
        // the top two are both n.
        let g = complete_graph(6);
        assert!((largest_laplacian_eigenvalue(&g, 1) - 6.0).abs() < EPS);
        assert!((second_largest_laplacian_eigenvalue(&g, 1) - 6.0).abs() < EPS);
    }

    #[test]
    fn star_spectrum() {
        // S_n (n leaves): eigenvalues {0, 1^(n-1), n+1}.
        let g = star_graph(5);
        assert!((largest_laplacian_eigenvalue(&g, 2) - 6.0).abs() < EPS);
        assert!((second_largest_laplacian_eigenvalue(&g, 2) - 1.0).abs() < EPS);
    }

    #[test]
    fn path3_spectrum() {
        // P_3: eigenvalues {0, 1, 3}.
        let g = path_graph(3);
        assert!((largest_laplacian_eigenvalue(&g, 3) - 3.0).abs() < EPS);
        assert!((second_largest_laplacian_eigenvalue(&g, 3) - 1.0).abs() < EPS);
    }

    #[test]
    fn cycle4_spectrum() {
        // C_4: eigenvalues {0, 2, 2, 4}.
        let g = cycle_graph(4);
        assert!((largest_laplacian_eigenvalue(&g, 4) - 4.0).abs() < EPS);
        assert!((second_largest_laplacian_eigenvalue(&g, 4) - 2.0).abs() < EPS);
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(
            largest_laplacian_eigenvalue(&tpp_graph::Graph::new(0), 0),
            0.0
        );
        assert_eq!(
            second_largest_laplacian_eigenvalue(&tpp_graph::Graph::new(1), 0),
            0.0
        );
        // Two isolated nodes: L = 0.
        let g = tpp_graph::Graph::new(2);
        assert!(largest_laplacian_eigenvalue(&g, 0).abs() < EPS);
    }

    #[test]
    fn eigenvalue_bounds_on_random_graph() {
        // 0 <= λ2 <= λ1 <= 2 * max_degree (Laplacian bound: λ1 <= 2 d_max,
        // tighter λ1 <= max(d_u + d_v) over edges).
        let g = tpp_graph::generators::erdos_renyi_gnp(80, 0.08, 5);
        let l1 = largest_laplacian_eigenvalue(&g, 6);
        let l2 = second_largest_laplacian_eigenvalue(&g, 6);
        assert!(l2 <= l1 + EPS);
        assert!(l1 <= 2.0 * g.max_degree() as f64 + EPS);
        assert!(l2 >= 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = tpp_graph::generators::barabasi_albert(100, 3, 8);
        let a = second_largest_laplacian_eigenvalue(&g, 42);
        let b = second_largest_laplacian_eigenvalue(&g, 42);
        assert_eq!(a, b);
    }
}
