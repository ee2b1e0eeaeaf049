//! Kubo–Greenwood conductivity by two-dimensional KPM.
//!
//! The zero-temperature, zero-frequency Kubo–Greenwood conductivity is
//!
//! ```text
//! sigma(E)  ∝  Tr[ v delta(E - H) v delta(E - H) ]
//! ```
//!
//! with `v = i [H, X]` the velocity operator. Expanding *both* delta
//! functions in Chebyshev polynomials gives the double-moment form
//!
//! ```text
//! sigma(E~) = sum_{n,m} mu_nm g_n g_m h_n(E~) h_m(E~),
//! h_n(E~)   = T_n(E~) * (2 - delta_{n0}) / (pi sqrt(1 - E~^2))
//! mu_nm     = Tr[ v T_n(H~) v T_m(H~) ] / D
//! ```
//!
//! — the 2D KPM of Weiße et al. 2006, Sec. IV.C (the algorithm behind
//! modern codes like KITE). For a real symmetric `H` on a lattice, `v` is
//! purely imaginary: writing `v = i W` with `W` real antisymmetric,
//! `mu_nm = -Tr[W T_n W T_m]/D` stays entirely in real arithmetic.
//!
//! Cost: `O(N^2 D)` per random vector (one inner Chebyshev recursion per
//! outer moment) — quadratically more than the DoS, which is why the
//! conductivity is the canonical "needs acceleration" KPM workload.

use crate::error::KpmError;
use crate::kernels::KernelType;
use crate::moments::KpmParams;
use crate::random::fill_random_vector;
use kpm_linalg::csr::CsrMatrix;
use kpm_linalg::op::LinearOp;
use kpm_linalg::tiled::TiledOp;
use kpm_linalg::vecops;
use rayon::prelude::*;

/// Builds `W = -i v = [X, H]` (real antisymmetric) for a 1D position
/// operator: `W_ij = (x_i - x_j) H_ij` with `x` the site coordinate along
/// the transport direction.
///
/// Periodic wrap-around bonds need the *minimum-image* displacement, which
/// the caller encodes directly in `positions` semantics: this function
/// applies the minimum-image rule with period `period` (pass `None` for
/// open boundaries).
///
/// # Panics
/// Panics if `positions.len() != h.nrows()`.
pub fn velocity_operator(h: &CsrMatrix, positions: &[f64], period: Option<f64>) -> CsrMatrix {
    assert_eq!(positions.len(), h.nrows(), "one position per site");
    let mut row_ptr = Vec::with_capacity(h.nrows() + 1);
    let mut col_idx = Vec::with_capacity(h.nnz());
    let mut values = Vec::with_capacity(h.nnz());
    row_ptr.push(0);
    for i in 0..h.nrows() {
        for (j, v) in h.row_entries(i) {
            let mut dx = positions[i] - positions[j];
            if let Some(l) = period {
                // Minimum image: wrap displacements into (-l/2, l/2].
                dx -= (dx / l).round() * l;
            }
            let w = dx * v;
            if w != 0.0 {
                col_idx.push(j);
                values.push(w);
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw(h.nrows(), h.ncols(), row_ptr, col_idx, values)
        .expect("velocity operator construction")
}

/// The `N x N` double-moment matrix `mu_nm = -Tr[W T_n(H~) W T_m(H~)]/D`,
/// estimated stochastically.
#[derive(Debug, Clone)]
pub struct DoubleMoments {
    /// Row-major `N x N` moments.
    pub mu: Vec<f64>,
    /// Expansion order `N`.
    pub order: usize,
}

impl DoubleMoments {
    /// Element `mu_nm`.
    pub fn get(&self, n: usize, m: usize) -> f64 {
        self.mu[n * self.order + m]
    }

    /// Exact merge of per-realization double-moment vectors (row-major
    /// `order x order`, each already normalized by `D`) in the order given.
    ///
    /// The reduction is `mu += per[idx] / total` accumulated in canonical
    /// `idx = s * R + r` order — the same statement [`double_moments`] has
    /// always executed, factored out so a distributed run can replay it:
    /// shard workers return their realizations' vectors untouched, the
    /// coordinator concatenates shards canonically and merges, and the
    /// result is bitwise identical to the single-process run. Summation
    /// order matters (floating point is not associative), which is why
    /// partial *sums* are never combined — only per-realization terms.
    ///
    /// # Panics
    /// Panics if `per_realization` is empty or any vector is not
    /// `order * order` long.
    pub fn merge_realizations(per_realization: &[Vec<f64>], order: usize) -> Self {
        let total = per_realization.len();
        assert!(total > 0, "cannot merge zero realizations");
        let mut mu = vec![0.0; order * order];
        for p in per_realization {
            assert_eq!(p.len(), order * order, "double-moment vector length");
            for (acc, v) in mu.iter_mut().zip(p) {
                *acc += v / total as f64;
            }
        }
        DoubleMoments { mu, order }
    }
}

/// Estimates the double moments for conductivity.
///
/// `h_scaled` must already be rescaled into `[-1, 1]`; `w` is the real
/// antisymmetric part of the velocity operator (from
/// [`velocity_operator`], *unscaled* — velocity matrix elements carry the
/// physical hopping, not the rescaled one).
///
/// Uses `params.num_moments` for `N` and the stochastic fields for the
/// random-vector ensemble.
///
/// # Errors
/// Parameter validation errors.
///
/// # Panics
/// Panics if dimensions disagree.
pub fn double_moments<A: LinearOp + Sync>(
    h_scaled: &A,
    w: &CsrMatrix,
    params: &KpmParams,
) -> Result<DoubleMoments, KpmError> {
    let _span = kpm_obs::span("kpm.moments");
    let per = double_moments_partial(h_scaled, w, params, 0..params.total_realizations())?;
    Ok(DoubleMoments::merge_realizations(&per, params.num_moments))
}

/// The per-realization double-moment vectors (row-major `order x order`,
/// normalized by `D`) for the realization index range `range` of the full
/// `S x R` ensemble — the worker half of a distributed Kubo run
/// ([`DoubleMoments::merge_realizations`] is the coordinator half, and
/// [`double_moments`] is the two glued together over the full range).
///
/// Entry `i` of the result is realization `range.start + i`; values are
/// independent of how the full index range is partitioned because each
/// realization's recursion touches only its own `(s, r)`-keyed vectors.
///
/// # Errors
/// Parameter validation errors, or an invalid `range`.
///
/// # Panics
/// Panics if dimensions disagree.
pub fn double_moments_partial<A: LinearOp + Sync>(
    h_scaled: &A,
    w: &CsrMatrix,
    params: &KpmParams,
    range: std::ops::Range<usize>,
) -> Result<Vec<Vec<f64>>, KpmError> {
    params.validate()?;
    let d = h_scaled.dim();
    assert_eq!(w.nrows(), d, "velocity operator dimension");
    if range.is_empty() || range.end > params.total_realizations() {
        return Err(KpmError::InvalidParameter(format!(
            "realization range {range:?} invalid for {} total realizations",
            params.total_realizations()
        )));
    }
    let n_mom = params.num_moments;
    let r_per_s = params.num_random;

    let per: Vec<Vec<f64>> = range
        .into_par_iter()
        .map(|idx| {
            let (s, r) = (idx / r_per_s, idx % r_per_s);
            let mut rvec = vec![0.0; d];
            fill_random_vector(params.distribution, params.seed, s, r, &mut rvec);

            // Left chain: |l_n> = T_n(H~) W |r>, accumulated against
            // <r| W on the fly. mu_nm contribution
            // = -<r| W T_n W T_m |r>/D: compute |b_m> = T_m|r> rolling in
            // the outer loop, apply W, then run the inner recursion.
            let mut mu = vec![0.0; n_mom * n_mom];

            // Outer recursion over m: b_m = T_m(H~) |r>.
            let mut b_prev = rvec.clone();
            let mut b_cur = vec![0.0; d];
            h_scaled.apply(&b_prev, &mut b_cur);
            let mut b_scratch = vec![0.0; d];

            // <wl| = <r| W  (W antisymmetric: (W^T r) = -W r).
            let mut wr = vec![0.0; d];
            w.spmv(&rvec, &mut wr);
            let wl: Vec<f64> = wr.iter().map(|&v| -v).collect();

            let mut wb = vec![0.0; d];
            let mut l_prev = vec![0.0; d];
            let mut l_cur = vec![0.0; d];
            let mut l_scratch = vec![0.0; d];
            for m in 0..n_mom {
                let b_m: &[f64] = if m == 0 { &b_prev } else { &b_cur };
                // |wb> = W T_m |r>.
                w.spmv(b_m, &mut wb);
                // Inner recursion over n on |wb>, contracting with <wl|.
                l_prev.copy_from_slice(&wb);
                h_scaled.apply(&l_prev, &mut l_cur);
                mu[m] += -vecops::dot(&wl, &l_prev) / d as f64; // n = 0
                if n_mom > 1 {
                    mu[n_mom + m] += -vecops::dot(&wl, &l_cur) / d as f64; // n = 1
                }
                for n in 2..n_mom {
                    h_scaled.apply(&l_cur, &mut l_scratch);
                    vecops::chebyshev_combine_inplace(&l_scratch, &mut l_prev);
                    std::mem::swap(&mut l_prev, &mut l_cur);
                    mu[n * n_mom + m] += -vecops::dot(&wl, &l_cur) / d as f64;
                }
                // Advance the outer recursion (skip after the last m).
                if m + 1 < n_mom && m >= 1 {
                    h_scaled.apply(&b_cur, &mut b_scratch);
                    vecops::chebyshev_combine_inplace(&b_scratch, &mut b_prev);
                    std::mem::swap(&mut b_prev, &mut b_cur);
                }
            }
            kpm_obs::counter_add("kpm.realizations", 1);
            mu
        })
        .collect();
    Ok(per)
}

/// Exact double moments from a full eigendecomposition (ground truth for
/// tests): `mu_nm = (1/D) sum_{k,q} (W_kq)^2 T_n(e_q) T_m(e_k)` where
/// `W_kq` are eigenbasis matrix elements of `W` and `e` the rescaled
/// eigenvalues.
pub fn exact_double_moments(
    rescaled_eigs: &[f64],
    w_eigenbasis: &kpm_linalg::DenseMatrix,
    order: usize,
) -> DoubleMoments {
    let d = rescaled_eigs.len();
    let tn: Vec<Vec<f64>> =
        rescaled_eigs.iter().map(|&e| crate::chebyshev::t_all(order, e)).collect();
    let mut mu = vec![0.0; order * order];
    for k in 0..d {
        for q in 0..d {
            let w2 = w_eigenbasis.get(k, q).powi(2);
            if w2 == 0.0 {
                continue;
            }
            for n in 0..order {
                let tnq = tn[q][n];
                for m in 0..order {
                    mu[n * order + m] += w2 * tnq * tn[k][m] / d as f64;
                }
            }
        }
    }
    DoubleMoments { mu, order }
}

/// Reconstructs `sigma(E~)` on the given rescaled energies from double
/// moments, with Jackson (or other) damping applied on both indices.
pub fn conductivity(
    moments: &DoubleMoments,
    kernel: KernelType,
    rescaled_energies: &[f64],
) -> Vec<f64> {
    let n = moments.order;
    let g = kernel.coefficients(n);
    rescaled_energies
        .iter()
        .map(|&x| {
            assert!(x > -1.0 && x < 1.0, "energy {x} outside (-1, 1)");
            let t = crate::chebyshev::t_all(n, x);
            let weight = std::f64::consts::PI * (1.0 - x * x).sqrt();
            // h_n(x) = g_n T_n(x) (2 - delta_n0) / weight.
            let h: Vec<f64> =
                (0..n).map(|k| g[k] * t[k] * if k == 0 { 1.0 } else { 2.0 } / weight).collect();
            let mut s = 0.0;
            for (i, &hi) in h.iter().enumerate() {
                let row = &moments.mu[i * n..(i + 1) * n];
                s += hi * vecops::dot(row, &h);
            }
            s
        })
        .collect()
}

/// A reconstructed Kubo–Greenwood conductivity on the original energy
/// axis.
#[derive(Debug, Clone)]
pub struct Conductivity {
    /// Energies (original axis).
    pub energies: Vec<f64>,
    /// `sigma(energies[i])` (arbitrary units — no `e^2/h` prefactor).
    pub sigma: Vec<f64>,
}

/// Kubo–Greenwood conductivity estimator — the
/// [`Estimator`](crate::estimator::Estimator) for
/// `sigma(E)` via 2D KPM.
///
/// Owns the (unscaled) velocity operator `W` and the evaluation energies on
/// the original axis; the bounds/rescale plumbing and the `E -> E~` map are
/// handled by the trait methods.
#[derive(Debug, Clone)]
pub struct KuboEstimator {
    params: KpmParams,
    w: CsrMatrix,
    energies: Vec<f64>,
}

impl KuboEstimator {
    /// Creates an estimator for `sigma` at `energies` (original axis), with
    /// velocity operator `w` (see [`velocity_operator`]).
    pub fn new(params: KpmParams, w: CsrMatrix, energies: Vec<f64>) -> Self {
        Self { params, w, energies }
    }

    /// The velocity operator.
    pub fn velocity(&self) -> &CsrMatrix {
        &self.w
    }

    /// The evaluation energies (original axis).
    pub fn energies(&self) -> &[f64] {
        &self.energies
    }
}

impl crate::estimator::Estimator for KuboEstimator {
    type Moments = DoubleMoments;
    type Output = Conductivity;

    fn params(&self) -> &KpmParams {
        &self.params
    }

    /// Stochastic double moments `mu_nm` of the rescaled Hamiltonian.
    fn moments<A: TiledOp + Sync>(&self, op: &A) -> Result<DoubleMoments, KpmError> {
        double_moments(op, &self.w, &self.params)
    }

    fn reconstruct(
        &self,
        moments: DoubleMoments,
        a_plus: f64,
        a_minus: f64,
    ) -> Result<Conductivity, KpmError> {
        if a_minus <= 0.0 {
            return Err(KpmError::InvalidParameter(format!(
                "a_minus must be positive, got {a_minus}"
            )));
        }
        let _span = kpm_obs::span("kpm.reconstruct");
        let mut rescaled = Vec::with_capacity(self.energies.len());
        for &e in &self.energies {
            let x = (e - a_plus) / a_minus;
            if !(x > -1.0 && x < 1.0) {
                return Err(KpmError::InvalidParameter(format!(
                    "energy {e} maps to {x}, outside the open interval (-1, 1)"
                )));
            }
            rescaled.push(x);
        }
        let sigma = conductivity(&moments, self.params.kernel, &rescaled);
        Ok(Conductivity { energies: self.energies.clone(), sigma })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::KpmParams;
    use crate::random::Distribution;
    use kpm_lattice::{Boundary, HypercubicLattice, OnSite, TightBinding};
    use kpm_linalg::eigen::jacobi_eigen;
    use kpm_linalg::gershgorin::gershgorin_csr;
    use kpm_linalg::op::RescaledOp;
    use kpm_linalg::DenseMatrix;

    fn chain(l: usize, disorder: f64) -> (CsrMatrix, Vec<f64>) {
        let onsite = if disorder == 0.0 {
            OnSite::Uniform(0.0)
        } else {
            OnSite::Disorder { width: disorder, seed: 3 }
        };
        let h = TightBinding::new(HypercubicLattice::chain(l, Boundary::Periodic), 1.0, onsite)
            .build_csr();
        let pos: Vec<f64> = (0..l).map(|i| i as f64).collect();
        (h, pos)
    }

    #[test]
    fn velocity_operator_is_antisymmetric_with_unit_displacements() {
        let (h, pos) = chain(8, 0.0);
        let w = velocity_operator(&h, &pos, Some(8.0));
        // W_ij = -W_ji.
        for i in 0..8 {
            for (j, v) in w.row_entries(i) {
                assert!((v + w.get(j, i)).abs() < 1e-14, "({i}, {j})");
                // |dx| = 1 with minimum image, |H_ij| = 1 => |W| = 1.
                assert!((v.abs() - 1.0).abs() < 1e-14);
            }
        }
        // Diagonal absent (dx = 0).
        assert_eq!(w.nnz(), h.nnz());
    }

    #[test]
    fn minimum_image_handles_wraparound_bond() {
        let (h, pos) = chain(6, 0.0);
        let w = velocity_operator(&h, &pos, Some(6.0));
        // Bond 0 <-> 5: raw dx = -5, minimum image +1.
        assert!((w.get(0, 5).abs() - 1.0).abs() < 1e-14);
        // Without the period the wrap bond gets |dx| = 5.
        let w_open = velocity_operator(&h, &pos, None);
        assert!((w_open.get(0, 5).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stochastic_double_moments_match_exact() {
        let (h, pos) = chain(32, 2.0);
        let b = gershgorin_csr(&h).padded(0.01);
        let hs = RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let w = velocity_operator(&h, &pos, Some(32.0));
        let order = 8;
        let params = KpmParams::new(order)
            .with_random_vectors(24, 8)
            .with_distribution(Distribution::Gaussian)
            .with_seed(10);
        let est = double_moments(&hs, &w, &params).unwrap();

        // Exact: eigendecompose, transform W into the eigenbasis.
        let (eigs, vecs) = jacobi_eigen(&h.to_dense()).unwrap();
        let scaled: Vec<f64> = eigs.iter().map(|&e| hs.to_rescaled(e)).collect();
        let wd = w.to_dense();
        let n = 32;
        // W_eig = V^T W V.
        let mut wv = DenseMatrix::zeros(n, n);
        for k in 0..n {
            let col: Vec<f64> = (0..n).map(|i| vecs.get(i, k)).collect();
            let mut out = vec![0.0; n];
            wd.matvec(&col, &mut out);
            for (i, &v) in out.iter().enumerate() {
                wv.set(i, k, v);
            }
        }
        let mut w_eig = DenseMatrix::zeros(n, n);
        for a in 0..n {
            for bq in 0..n {
                let mut acc = 0.0;
                for i in 0..n {
                    acc += vecs.get(i, a) * wv.get(i, bq);
                }
                w_eig.set(a, bq, acc);
            }
        }
        let exact = exact_double_moments(&scaled, &w_eig, order);
        for i in 0..order {
            for j in 0..order {
                let tol = 0.35 * (1.0 + exact.get(i, j).abs());
                assert!(
                    (est.get(i, j) - exact.get(i, j)).abs() < tol,
                    "mu_{i}{j}: {} vs {}",
                    est.get(i, j),
                    exact.get(i, j)
                );
            }
        }
        // The dominant element must be reproduced tightly.
        let rel = (est.get(0, 0) - exact.get(0, 0)).abs() / exact.get(0, 0).abs();
        assert!(rel < 0.1, "mu_00 relative error {rel}");
    }

    #[test]
    fn sharded_double_moments_merge_bitwise_to_full_run() {
        let (h, pos) = chain(24, 1.5);
        let b = gershgorin_csr(&h).padded(0.01);
        let hs = RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let w = velocity_operator(&h, &pos, Some(24.0));
        let params = KpmParams::new(6)
            .with_random_vectors(3, 2)
            .with_distribution(Distribution::Gaussian)
            .with_seed(8);
        let full = double_moments(&hs, &w, &params).unwrap();
        let total = params.total_realizations();
        for shards in [1usize, 2, 4, 6] {
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for range in crate::moments::split_even(total, shards) {
                rows.extend(double_moments_partial(&hs, &w, &params, range).unwrap());
            }
            let merged = DoubleMoments::merge_realizations(&rows, params.num_moments);
            assert_eq!(merged.mu, full.mu, "{shards} shards");
            assert_eq!(merged.order, full.order);
        }
    }

    #[test]
    fn double_moments_are_symmetric() {
        // mu_nm = mu_mn by the cyclic trace and symmetry of H.
        let (h, pos) = chain(24, 1.0);
        let b = gershgorin_csr(&h).padded(0.01);
        let hs = RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let w = velocity_operator(&h, &pos, Some(24.0));
        let params =
            KpmParams::new(6).with_random_vectors(16, 4).with_distribution(Distribution::Gaussian);
        let mu = double_moments(&hs, &w, &params).unwrap();
        for n in 0..6 {
            for m in 0..6 {
                let (a, bb) = (mu.get(n, m), mu.get(m, n));
                assert!((a - bb).abs() < 0.15 * (1.0 + a.abs()), "mu_{n}{m} {a} vs mu_{m}{n} {bb}");
            }
        }
    }

    #[test]
    fn clean_chain_conductivity_is_positive_and_symmetric() {
        let (h, pos) = chain(128, 0.0);
        let b = gershgorin_csr(&h).padded(0.01);
        let hs = RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let w = velocity_operator(&h, &pos, Some(128.0));
        let params = KpmParams::new(16).with_random_vectors(8, 4).with_seed(2);
        let mu = double_moments(&hs, &w, &params).unwrap();
        let xs: Vec<f64> = (-8..=8).map(|i| i as f64 * 0.1).collect();
        let sigma = conductivity(&mu, KernelType::Jackson, &xs);
        // Positive in the band (it is a |matrix element|^2 density).
        for (x, s) in xs.iter().zip(&sigma) {
            assert!(*s > -0.05, "sigma({x}) = {s}");
        }
        // Particle-hole symmetric chain: sigma(x) ~ sigma(-x).
        for i in 0..xs.len() / 2 {
            let (a, bb) = (sigma[i], sigma[xs.len() - 1 - i]);
            assert!((a - bb).abs() < 0.2 * (a.abs() + bb.abs() + 0.1), "{a} vs {bb}");
        }
    }

    #[test]
    fn disorder_suppresses_conductivity() {
        let run = |wdis: f64| {
            let (h, pos) = chain(128, wdis);
            let b = gershgorin_csr(&h).padded(0.01);
            let hs = RescaledOp::new(&h, b.a_plus(), b.a_minus());
            let w = velocity_operator(&h, &pos, Some(128.0));
            let params = KpmParams::new(16).with_random_vectors(8, 4).with_seed(21);
            let mu = double_moments(&hs, &w, &params).unwrap();
            conductivity(&mu, KernelType::Jackson, &[0.0])[0]
        };
        let clean = run(0.0);
        let dirty = run(8.0);
        assert!(dirty < 0.6 * clean, "disorder must suppress sigma: clean {clean}, dirty {dirty}");
    }

    #[test]
    fn kubo_estimator_matches_manual_pipeline() {
        use crate::estimator::Estimator;
        let (h, pos) = chain(64, 1.0);
        let w = velocity_operator(&h, &pos, Some(64.0));
        let params = KpmParams::new(12).with_random_vectors(6, 2).with_seed(4);
        let energies = vec![-1.0, 0.0, 0.7];

        let via_trait =
            KuboEstimator::new(params.clone(), w.clone(), energies.clone()).compute(&h).unwrap();

        // Manual: identical bounds (Gershgorin, padded by params.padding),
        // double moments, and reconstruction on the mapped energies.
        let b = gershgorin_csr(&h).padded(params.padding);
        let hs = RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let mu = double_moments(&hs, &w, &params).unwrap();
        let xs: Vec<f64> = energies.iter().map(|&e| (e - b.a_plus()) / b.a_minus()).collect();
        let manual = conductivity(&mu, KernelType::Jackson, &xs);

        assert_eq!(via_trait.energies, energies);
        for (a, m) in via_trait.sigma.iter().zip(&manual) {
            assert!((a - m).abs() < 1e-12 * (1.0 + m.abs()), "{a} vs {m}");
        }
    }

    #[test]
    fn kubo_estimator_rejects_energy_outside_band() {
        use crate::estimator::Estimator;
        let (h, pos) = chain(16, 0.0);
        let w = velocity_operator(&h, &pos, Some(16.0));
        let est = KuboEstimator::new(KpmParams::new(8).with_random_vectors(2, 1), w, vec![99.0]);
        assert!(matches!(est.compute(&h), Err(KpmError::InvalidParameter(_))));
    }
}
