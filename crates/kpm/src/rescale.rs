//! Spectral rescaling: `H~ = (H - a_+ I) / a_-` (the paper's Eq. 8–9).
//!
//! The Chebyshev machinery requires the spectrum inside `[-1, 1]`; this
//! module chooses the affine map from either Gershgorin bounds (the paper's
//! method — guaranteed, sometimes loose) or a Lanczos estimate (tight,
//! padded for safety), and wraps the operator.

use crate::error::KpmError;
use kpm_linalg::csr::CsrMatrix;
use kpm_linalg::dense::DenseMatrix;
use kpm_linalg::ell::EllMatrix;
use kpm_linalg::gershgorin::{gershgorin_csr, gershgorin_dense, gershgorin_ell, SpectralBounds};
use kpm_linalg::op::{LinearOp, RescaledOp};
use kpm_linalg::sparse::SparseMatrix;
use kpm_linalg::stencil::StencilOp;

/// How to obtain spectral bounds before rescaling.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BoundsMethod {
    /// Gershgorin discs — the paper's choice. Requires concrete matrix
    /// storage (dense or CSR).
    #[default]
    Gershgorin,
    /// Lanczos Ritz-value estimate with `steps` matvecs, available for any
    /// [`LinearOp`].
    Lanczos {
        /// Maximum Krylov steps.
        steps: usize,
    },
    /// Caller-provided bounds.
    Explicit {
        /// Known lower bound.
        lower: f64,
        /// Known upper bound.
        upper: f64,
    },
}

/// Operators whose spectral bounds we know how to compute.
pub trait Boundable: LinearOp {
    /// Spectral bounds by the requested method.
    ///
    /// # Errors
    /// [`KpmError::InvalidParameter`] if the method cannot be applied to
    /// this operator type.
    fn spectral_bounds(&self, method: BoundsMethod) -> Result<SpectralBounds, KpmError>;
}

impl Boundable for DenseMatrix {
    fn spectral_bounds(&self, method: BoundsMethod) -> Result<SpectralBounds, KpmError> {
        match method {
            BoundsMethod::Gershgorin => Ok(gershgorin_dense(self)),
            other => generic_bounds(self, other),
        }
    }
}

impl Boundable for CsrMatrix {
    fn spectral_bounds(&self, method: BoundsMethod) -> Result<SpectralBounds, KpmError> {
        match method {
            BoundsMethod::Gershgorin => Ok(gershgorin_csr(self)),
            other => generic_bounds(self, other),
        }
    }
}

impl Boundable for EllMatrix {
    fn spectral_bounds(&self, method: BoundsMethod) -> Result<SpectralBounds, KpmError> {
        match method {
            BoundsMethod::Gershgorin => Ok(gershgorin_ell(self)),
            other => generic_bounds(self, other),
        }
    }
}

impl Boundable for StencilOp {
    fn spectral_bounds(&self, method: BoundsMethod) -> Result<SpectralBounds, KpmError> {
        match method {
            BoundsMethod::Gershgorin => Ok(self.gershgorin_bounds()),
            other => generic_bounds(self, other),
        }
    }
}

impl Boundable for SparseMatrix {
    fn spectral_bounds(&self, method: BoundsMethod) -> Result<SpectralBounds, KpmError> {
        match method {
            BoundsMethod::Gershgorin => Ok(self.gershgorin_bounds()),
            other => generic_bounds(self, other),
        }
    }
}

impl<A: Boundable> Boundable for &A {
    fn spectral_bounds(&self, method: BoundsMethod) -> Result<SpectralBounds, KpmError> {
        (**self).spectral_bounds(method)
    }
}

/// Bounds for operators without concrete storage (Lanczos or explicit only).
pub fn generic_bounds<A: LinearOp>(
    op: &A,
    method: BoundsMethod,
) -> Result<SpectralBounds, KpmError> {
    match method {
        BoundsMethod::Gershgorin => Err(KpmError::InvalidParameter(
            "Gershgorin bounds need concrete matrix storage; use Lanczos or Explicit".into(),
        )),
        BoundsMethod::Lanczos { steps } => crate::bounds::lanczos_contained(op, steps),
        BoundsMethod::Explicit { lower, upper } => {
            if lower.is_nan() || upper.is_nan() || lower >= upper {
                return Err(KpmError::InvalidParameter(format!(
                    "explicit bounds must satisfy lower < upper, got [{lower}, {upper}]"
                )));
            }
            Ok(SpectralBounds::new(lower, upper))
        }
    }
}

/// Builds the rescaled operator with relative safety padding `eps`
/// (conventionally ~0.01): the affine map is computed from bounds widened so
/// the spectrum sits strictly inside `(-1, 1)`.
///
/// # Errors
/// [`KpmError::DegenerateSpectrum`] when the (padded) half-width is zero.
pub fn rescale<A: LinearOp>(
    op: A,
    bounds: SpectralBounds,
    eps: f64,
) -> Result<RescaledOp<A>, KpmError> {
    let _span = kpm_obs::span("kpm.rescale");
    let (a_plus, a_minus) = rescale_map(bounds, eps)?;
    Ok(RescaledOp::new(op, a_plus, a_minus))
}

/// The `(a_plus, a_minus)` affine map [`rescale`] builds from `bounds` and
/// padding `eps` — for callers that need the map but not the operator.
///
/// # Errors
/// [`KpmError::DegenerateSpectrum`] when the (padded) half-width is zero.
pub fn rescale_map(bounds: SpectralBounds, eps: f64) -> Result<(f64, f64), KpmError> {
    let padded = bounds.padded(eps);
    let a_minus = padded.a_minus();
    if a_minus <= 0.0 {
        return Err(KpmError::DegenerateSpectrum);
    }
    Ok((padded.a_plus(), a_minus))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_linalg::eigen::jacobi_eigenvalues;
    use kpm_linalg::op::DiagonalOp;

    fn chain(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| if i.abs_diff(j) == 1 { -1.0 } else { 0.0 })
    }

    #[test]
    fn gershgorin_bounds_via_trait() {
        let m = chain(10);
        let b = m.spectral_bounds(BoundsMethod::Gershgorin).unwrap();
        assert_eq!(b.lower, -2.0);
        assert_eq!(b.upper, 2.0);
    }

    #[test]
    fn lanczos_bounds_via_trait_tighter() {
        let m = chain(32);
        let g = m.spectral_bounds(BoundsMethod::Gershgorin).unwrap();
        let l = m.spectral_bounds(BoundsMethod::Lanczos { steps: 40 }).unwrap();
        assert!(l.lower >= g.lower - 1e-9);
        assert!(l.upper <= g.upper + 1e-9);
        assert!(l.width() < g.width(), "Lanczos must be tighter on the open chain");
    }

    #[test]
    fn explicit_bounds_validated() {
        let m = chain(4);
        assert!(m.spectral_bounds(BoundsMethod::Explicit { lower: -3.0, upper: 3.0 }).is_ok());
        assert!(matches!(
            m.spectral_bounds(BoundsMethod::Explicit { lower: 1.0, upper: 1.0 }),
            Err(KpmError::InvalidParameter(_))
        ));
    }

    #[test]
    fn generic_operator_rejects_gershgorin() {
        let d = DiagonalOp::new(vec![1.0, 2.0]);
        assert!(matches!(
            generic_bounds(&d, BoundsMethod::Gershgorin),
            Err(KpmError::InvalidParameter(_))
        ));
        assert!(generic_bounds(&d, BoundsMethod::Lanczos { steps: 10 }).is_ok());
    }

    #[test]
    fn rescaled_spectrum_strictly_inside_unit_interval() {
        let m = chain(12);
        let b = m.spectral_bounds(BoundsMethod::Gershgorin).unwrap();
        let r = rescale(&m, b, 0.01).unwrap();
        let eig = jacobi_eigenvalues(&m).unwrap();
        for &e in &eig {
            let x = r.to_rescaled(e);
            assert!(x > -1.0 && x < 1.0, "eigenvalue {e} mapped to {x}");
        }
    }

    #[test]
    fn degenerate_spectrum_with_zero_padding_fails() {
        let d = DiagonalOp::new(vec![2.0, 2.0]);
        let b = SpectralBounds::new(2.0, 2.0);
        assert_eq!(rescale(&d, b, 0.0).unwrap_err(), KpmError::DegenerateSpectrum);
        // With padding it succeeds.
        assert!(rescale(&d, b, 0.01).is_ok());
    }

    #[test]
    fn csr_bounds_agree_with_dense() {
        let h = kpm_lattice::paper_cubic_hamiltonian();
        let b = h.spectral_bounds(BoundsMethod::Gershgorin).unwrap();
        assert_eq!((b.lower, b.upper), (-6.0, 6.0));
    }
}
