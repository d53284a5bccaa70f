//! Parameters of the `P(α,β)` power-law random graph model.
//!
//! Equation (2) of the paper:
//!
//! ```text
//! Δ   = ⌊e^{α/β}⌋                    (maximum degree)
//! |V| = ζ(β, Δ) · e^α
//! Σdeg = ζ(β−1, Δ) · e^α             (degree sum = 2|E|)
//! ```
//!
//! The paper's Eq. (2) prints `|E| = ζ(β−1,Δ)·e^α` — that quantity is the
//! *degree sum*; we expose both [`PlrgParams::degree_sum`] and the halved
//! [`PlrgParams::edges`].

use crate::zeta::partial_zeta;

/// The `(α, β)` pair defining one power-law random graph family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlrgParams {
    /// `α` — the logarithm of the graph size (vertical intercept).
    pub alpha: f64,
    /// `β` — the log-log decay rate of the degree distribution.
    pub beta: f64,
}

impl PlrgParams {
    /// Creates parameters; both must be positive and finite.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        Self { alpha, beta }
    }

    /// Maximum degree `Δ = ⌊e^{α/β}⌋`.
    pub fn max_degree(&self) -> u64 {
        (self.alpha / self.beta).exp().floor() as u64
    }

    /// Expected number of vertices with degree exactly `x`:
    /// `n_x = ⌊e^α / x^β⌋` (the paper rounds down when realising the
    /// degree sequence; the continuous value is exposed for the formulas).
    pub fn count_with_degree(&self, x: u64) -> f64 {
        if x == 0 || x > self.max_degree() {
            return 0.0;
        }
        (self.alpha - self.beta * (x as f64).ln()).exp()
    }

    /// Expected `|V| = ζ(β, Δ)·e^α`.
    pub fn vertices(&self) -> f64 {
        partial_zeta(self.beta, self.max_degree()) * self.alpha.exp()
    }

    /// Expected degree sum `ζ(β−1, Δ)·e^α` (twice the edge count).
    pub fn degree_sum(&self) -> f64 {
        partial_zeta(self.beta - 1.0, self.max_degree()) * self.alpha.exp()
    }

    /// Expected `|E| = degree_sum / 2`.
    pub fn edges(&self) -> f64 {
        self.degree_sum() / 2.0
    }

    /// Expected average degree `degree_sum / |V|`.
    pub fn avg_degree(&self) -> f64 {
        self.degree_sum() / self.vertices()
    }

    /// Solves for `α` such that the expected vertex count is `n`.
    ///
    /// `|V|(α)` is strictly increasing in `α`, so a bisection on
    /// `α ∈ [ln n / 4, ln n + ln ζ(β) + 4]` converges quickly.
    pub fn fit_alpha(n: f64, beta: f64) -> Self {
        assert!(n >= 1.0, "need at least one vertex");
        let mut lo = 0.05_f64;
        let mut hi = n.ln() + 8.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let v = PlrgParams { alpha: mid, beta }.vertices();
            if v < n {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        PlrgParams {
            alpha: 0.5 * (lo + hi),
            beta,
        }
    }

    /// Solves for `(α, β)` matching a target vertex count *and* average
    /// degree. Average degree is strictly decreasing in `β` at fixed
    /// expected `|V|`, so this is a nested bisection. Used to build the
    /// synthetic analogues of the paper's datasets.
    pub fn fit_vertices_and_avg_degree(n: f64, avg_degree: f64) -> Self {
        assert!(avg_degree > 0.0);
        let mut lo = 1.05_f64; // β ↓ ⇒ heavier tail ⇒ larger avg degree
        let mut hi = 4.5_f64;
        for _ in 0..100 {
            let beta = 0.5 * (lo + hi);
            let p = Self::fit_alpha(n, beta);
            if p.avg_degree() > avg_degree {
                lo = beta;
            } else {
                hi = beta;
            }
        }
        Self::fit_alpha(n, 0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_ten_million_vertices() {
        // Table 2 fixes |V| = 10M and sweeps β.
        for beta in [1.7, 2.0, 2.7] {
            let p = PlrgParams::fit_alpha(1e7, beta);
            let v = p.vertices();
            assert!((v - 1e7).abs() / 1e7 < 1e-6, "β={beta}: |V|={v}");
            assert!(p.max_degree() > 1);
        }
    }

    #[test]
    fn edge_counts_shrink_with_beta() {
        // Table 9: β=1.7 → 215M edges, β=2.7 → 15M edges at |V|=10M.
        let e17 = PlrgParams::fit_alpha(1e7, 1.7).edges();
        let e27 = PlrgParams::fit_alpha(1e7, 2.7).edges();
        assert!(e17 > e27 * 5.0);
        // Within a factor ~2 of the paper's 215M/2 (their |E| is a degree
        // sum) — the shape is what matters.
        assert!(e17 > 5e7 && e17 < 3e8, "edges at beta=1.7: {e17}");
    }

    #[test]
    fn count_with_degree_matches_formula() {
        let p = PlrgParams::new(10.0, 2.0);
        assert!((p.count_with_degree(1) - 10.0f64.exp()).abs() < 1e-6);
        assert!((p.count_with_degree(10) - 10.0f64.exp() / 100.0).abs() < 1e-6);
        assert_eq!(p.count_with_degree(0), 0.0);
        assert_eq!(p.count_with_degree(p.max_degree() + 1), 0.0);
    }

    #[test]
    fn fit_avg_degree_converges() {
        // DBLP analogue: 425k vertices, average degree 4.92.
        let p = PlrgParams::fit_vertices_and_avg_degree(425_000.0, 4.92);
        assert!((p.vertices() - 425_000.0).abs() / 425_000.0 < 1e-4);
        assert!(
            (p.avg_degree() - 4.92).abs() < 0.05,
            "avg={}",
            p.avg_degree()
        );
    }

    #[test]
    fn fit_high_avg_degree() {
        // Twitter analogue: avg degree 78.12.
        let p = PlrgParams::fit_vertices_and_avg_degree(100_000.0, 78.12);
        assert!(
            (p.avg_degree() - 78.12).abs() / 78.12 < 0.02,
            "avg={}",
            p.avg_degree()
        );
    }

    #[test]
    fn vertices_monotone_in_alpha() {
        let a = PlrgParams::new(8.0, 2.0).vertices();
        let b = PlrgParams::new(9.0, 2.0).vertices();
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn rejects_bad_beta() {
        let _ = PlrgParams::new(1.0, -1.0);
    }
}
