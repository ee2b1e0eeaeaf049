//! Reference densities from the analytic spectrum of clean periodic
//! hypercubic lattices, and the distances a benchmark run is judged by.

use kpm::{DosEstimator, Estimator, KpmParams, MomentStats};
use kpm_lattice::LatticeSpec;

/// Eigenvalues of the clean periodic nearest-neighbour lattice with hopping
/// `t` (`H_ij = -t` on bonds): `E(k) = -2t sum_d cos(2 pi k_d / L_d)`.
/// `None` for lattices without that closed form here (honeycomb) or with a
/// side below 3, where a periodic bond would be doubled.
pub fn periodic_spectrum(spec: &LatticeSpec, t: f64) -> Option<Vec<f64>> {
    let dims = match *spec {
        LatticeSpec::Chain(l) => vec![l],
        LatticeSpec::Square(a, b) => vec![a, b],
        LatticeSpec::Cubic(a, b, c) => vec![a, b, c],
        LatticeSpec::Honeycomb(..) => return None,
    };
    if dims.iter().any(|&l| l < 3) {
        return None;
    }
    let mut energies = vec![0.0];
    for &l in &dims {
        let band: Vec<f64> = (0..l)
            .map(|k| -2.0 * t * (2.0 * std::f64::consts::PI * k as f64 / l as f64).cos())
            .collect();
        energies = energies.iter().flat_map(|&e| band.iter().map(move |&b| e + b)).collect();
    }
    Some(energies)
}

/// Exact Chebyshev moments of `spectrum` under the rescale `(a_plus,
/// a_minus)`.
pub fn exact_moments(spectrum: &[f64], a_plus: f64, a_minus: f64, n: usize) -> Vec<f64> {
    let rescaled: Vec<f64> = spectrum.iter().map(|e| (e - a_plus) / a_minus).collect();
    kpm::moments::exact_moments(&rescaled, n)
}

/// The reference density: exact moments through the estimator's own
/// damping and reconstruction, so it shares rescale, kernel, `N` and grid
/// with the run it is compared to.
pub fn reference_dos(
    params: &KpmParams,
    exact: &[f64],
    a_plus: f64,
    a_minus: f64,
) -> Result<kpm::Dos, String> {
    let stats = MomentStats { mean: exact.to_vec(), std_err: vec![0.0; exact.len()], samples: 1 };
    DosEstimator::new(params.clone()).reconstruct(stats, a_plus, a_minus).map_err(|e| e.to_string())
}

/// `energy,rho` rows of a DoS CSV.
pub fn read_csv(path: &str) -> Result<(Vec<f64>, Vec<f64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = text.lines();
    if lines.next() != Some("energy,rho") {
        return Err(format!("{path}: missing 'energy,rho' header"));
    }
    let (mut energies, mut rho) = (Vec::new(), Vec::new());
    for line in lines {
        let (e, r) = line.split_once(',').ok_or_else(|| format!("{path}: bad row '{line}'"))?;
        let parse = |s: &str| s.parse::<f64>().map_err(|_| format!("{path}: bad number '{s}'"));
        energies.push(parse(e)?);
        rho.push(parse(r)?);
    }
    Ok((energies, rho))
}

/// L1 distance `int |rho - rho_ref| dE` by the trapezoid rule on the shared
/// grid. Errors when the grids differ.
pub fn l1_distance(energies: &[f64], rho: &[f64], reference: &kpm::Dos) -> Result<f64, String> {
    if energies.len() != reference.energies.len() {
        return Err(format!(
            "grid has {} points, reference {}",
            energies.len(),
            reference.energies.len()
        ));
    }
    for (e, r) in energies.iter().zip(&reference.energies) {
        if (e - r).abs() > 1e-9 * r.abs().max(1.0) {
            return Err(format!("grid energy {e} differs from reference {r}"));
        }
    }
    let diff: Vec<f64> = rho.iter().zip(&reference.rho).map(|(a, b)| (a - b).abs()).collect();
    Ok(energies
        .windows(2)
        .zip(diff.windows(2))
        .map(|(e, d)| 0.5 * (d[0] + d[1]) * (e[1] - e[0]))
        .sum())
}

/// Gauss–Chebyshev integral of a density given on the estimator's grid:
/// the quadrature `kpm::Dos::integrate` uses, recomputed from the CSV.
pub fn gauss_chebyshev_integral(energies: &[f64], rho: &[f64], a_plus: f64, a_minus: f64) -> f64 {
    let sum: f64 = energies
        .iter()
        .zip(rho)
        .map(|(e, r)| {
            let x = (e - a_plus) / a_minus;
            r * std::f64::consts::PI * (1.0 - x * x).max(0.0).sqrt() * a_minus
        })
        .sum();
    sum / energies.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_spectrum_is_the_cosine_band() {
        let e = periodic_spectrum(&LatticeSpec::Chain(8), 1.0).unwrap();
        assert_eq!(e.len(), 8);
        assert!((e[0] + 2.0).abs() < 1e-15 && (e[4] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn spectrum_matches_dense_diagonalization() {
        use kpm_lattice::{Boundary, OnSite};
        let spec = LatticeSpec::Square(4, 3);
        let csr = spec.build(1.0, OnSite::Uniform(0.0), Boundary::Periodic);
        let mut exact = kpm_linalg::eigen::jacobi_eigenvalues(&csr.to_dense()).unwrap();
        let mut ours = periodic_spectrum(&spec, 1.0).unwrap();
        exact.sort_by(f64::total_cmp);
        ours.sort_by(f64::total_cmp);
        for (a, b) in exact.iter().zip(&ours) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }
}
