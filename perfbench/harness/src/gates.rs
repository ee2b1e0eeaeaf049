//! Correctness gates, and the `check-dos` subcommand that applies them to
//! the CSV files of the one-shot workloads.

use crate::exact;
use crate::report::{array, num, numbers, object, string};
use crate::Opts;
use kpm::{DosEstimator, Estimator, KpmParams};
use kpm_lattice::{Boundary, LatticeSpec, OnSite};
use kpm_linalg::MatrixFormat;

/// Chance that a correct run fails the moment gate somewhere among its
/// moments.
pub const FALSE_ALARM: f64 = 1e-3;

/// The moment gate's band, in reported standard errors, for `moments`
/// moments each estimated from `samples` realizations: the two-sided
/// Student-t quantile with `samples - 1` degrees of freedom at
/// `FALSE_ALARM / moments` per moment. The standard error is itself
/// estimated from the samples, so `(mean - exact) / std_err` follows t, not
/// the normal law; with 1024 moments the band is 4.9 when samples are many,
/// 5.2 at 112 samples and 5.8 at 42.
pub fn sigma_band(moments: usize, samples: usize) -> f64 {
    let target = FALSE_ALARM / moments.max(1) as f64;
    let dof = samples.saturating_sub(1).max(1) as f64;
    let (mut lo, mut hi) = (0.0, 1e3);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if t_tail(mid, dof) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Two-sided tail `P(|T| > c)` of Student's t with `dof` degrees of freedom.
/// Simpson's rule on the density under `t = tan(theta)`, which maps the real
/// line onto a finite interval, normalised by the same rule over all of it.
fn t_tail(c: f64, dof: f64) -> f64 {
    let g = |theta: f64| {
        let t = theta.tan();
        let cos = theta.cos();
        if cos <= 0.0 {
            return 0.0;
        }
        (1.0 + t * t / dof).powf(-(dof + 1.0) / 2.0) / (cos * cos)
    };
    let simpson = |a: f64, b: f64| {
        let n = 4096;
        let h = (b - a) / n as f64;
        let inner: f64 =
            (1..n).map(|i| g(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 }).sum();
        (g(a) + inner + g(b)) * h / 3.0
    };
    let half_pi = std::f64::consts::FRAC_PI_2;
    simpson(c.atan(), half_pi) / simpson(0.0, half_pi)
}

/// Absolute slack for moments whose standard error is zero (e.g. `mu_0` of
/// normalized start vectors), where only rounding separates them from the
/// exact value.
pub const ROUNDING_SLACK: f64 = 1e-12;

/// Largest tolerated deviation of the reconstructed DoS integral from 1.
pub const INTEGRAL_TOL: f64 = 1e-3;

/// Outcome of [`moment_gate`].
#[derive(Debug, Clone, Copy)]
pub struct MomentVerdict {
    pub ok: bool,
    /// Largest `|mean - exact| / std_err` over moments with `std_err > 0`.
    pub max_z: f64,
    /// First moment outside the band, if any.
    pub first_bad: Option<usize>,
}

/// Every estimated moment must lie within `band` standard errors of its
/// exact value, in units of the standard error the estimator itself
/// reports.
pub fn moment_gate(mean: &[f64], std_err: &[f64], exact: &[f64], band: f64) -> MomentVerdict {
    let mut verdict = MomentVerdict { ok: mean.len() == exact.len(), max_z: 0.0, first_bad: None };
    for (n, ((m, s), e)) in mean.iter().zip(std_err).zip(exact).enumerate() {
        let dev = (m - e).abs();
        if *s > 0.0 {
            verdict.max_z = verdict.max_z.max(dev / s);
        }
        // A NaN deviation or error compares as `None` and fails.
        let within = matches!(
            dev.partial_cmp(&(band * s + ROUNDING_SLACK)),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        );
        if !within {
            verdict.ok = false;
            verdict.first_bad.get_or_insert(n);
        }
    }
    verdict
}

/// A completion's moments must equal the solo reference run bit for bit: the
/// first `got.len()` reference moments (a cached or lower-order result is a
/// bitwise prefix of a longer run).
pub fn completion_gate(got: &[f64], reference: &[f64]) -> bool {
    got.len() <= reference.len()
        && got.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The reconstructed density must integrate to 1 within [`INTEGRAL_TOL`].
pub fn integral_gate(integral: f64) -> bool {
    (integral - 1.0).abs() <= INTEGRAL_TOL
}

/// `check-dos`: gates and `dos_err` for `kpm dos` CSVs written under
/// `--csv-dir` as `<seed>.csv`, one per seed in `--seeds`.
///
/// The first seed is also recomputed in this process through the library
/// (`DosEstimator::compute`, default plan): its CSV must reproduce that
/// run's density, and each of its moments must pass [`moment_gate`] at
/// [`sigma_band`]. `--inject moment` perturbs one recomputed moment to one
/// standard error beyond the band before the gate, to show the gate fails.
pub fn check_dos(opts: &Opts) -> Result<String, String> {
    let spec = LatticeSpec::parse(opts.req("lattice")?).map_err(|e| e.to_string())?;
    let format: MatrixFormat = opts.str_or("format", "csr").parse()?;
    let params = KpmParams::new(opts.num("moments", 256)?)
        .with_random_vectors(opts.num("random", 14)?, opts.num("sets", 1)?);
    let seeds: Vec<u64> = opts
        .req("seeds")?
        .split(',')
        .map(|s| s.parse().map_err(|_| format!("bad seed '{s}'")))
        .collect::<Result<_, _>>()?;
    let dir = opts.req("csv-dir")?;
    let inject = opts.str_or("inject", "none");

    let h = spec.build_format(1.0, OnSite::Uniform(0.0), Boundary::Periodic, format);
    let spectrum = exact::periodic_spectrum(&spec, 1.0)
        .ok_or("check-dos needs a clean periodic chain, square or cubic lattice")?;

    let mut failures: Vec<String> = Vec::new();
    let mut max_z: f64 = 0.0;
    let mut band_used = f64::NAN;
    let mut reference: Option<(kpm::Dos, Vec<f64>)> = None;
    let (mut dos_err, mut integrals) = (Vec::new(), Vec::new());
    let mut failed_runs = 0usize;
    for (i, &seed) in seeds.iter().enumerate() {
        let before = failures.len();
        let path = format!("{dir}/{seed}.csv");
        let (energies, rho) = match exact::read_csv(&path) {
            Ok(v) => v,
            Err(e) => {
                failures.push(e);
                failed_runs += 1;
                continue;
            }
        };
        if reference.is_none() {
            let run = DosEstimator::new(params.clone().with_seed(seed))
                .compute(&h)
                .map_err(|e| e.to_string())?;
            let mu = exact::exact_moments(&spectrum, run.a_plus, run.a_minus, params.num_moments);
            let ref_dos = exact::reference_dos(&params, &mu, run.a_plus, run.a_minus)?;
            reference = Some((ref_dos, mu));
            if i == 0 {
                let (_, mu) = reference.as_ref().expect("reference built above");
                let mut mean = run.moments.mean.clone();
                let band = sigma_band(mean.len(), run.moments.samples);
                band_used = band;
                if inject == "moment" {
                    // Push the middle moment further out on the side it
                    // already deviates to, so it lands beyond the band.
                    let n = mean.len() / 2;
                    let side = if mean[n] >= mu[n] { 1.0 } else { -1.0 };
                    mean[n] += side * ((band + 1.0) * run.moments.std_err[n] + 1e-9);
                }
                let verdict = moment_gate(&mean, &run.moments.std_err, mu, band);
                max_z = max_z.max(verdict.max_z);
                if !verdict.ok {
                    failures.push(format!(
                        "seed {seed}: moment {} outside {band:.2} sigma of exact",
                        verdict.first_bad.map_or(-1, |n| n as i64)
                    ));
                }
                let same = rho.len() == run.rho.len()
                    && rho
                        .iter()
                        .zip(&run.rho)
                        .all(|(a, b)| (a - b).abs() <= 1e-12 * b.abs().max(1e-12));
                if !same {
                    failures.push(format!("seed {seed}: CSV differs from the library run"));
                }
            }
        }
        let (ref_dos, _) = reference.as_ref().expect("reference built for the first CSV");
        match exact::l1_distance(&energies, &rho, ref_dos) {
            Ok(d) => dos_err.push(d),
            Err(e) => failures.push(format!("seed {seed}: {e}")),
        }
        let integral =
            exact::gauss_chebyshev_integral(&energies, &rho, ref_dos.a_plus, ref_dos.a_minus);
        if !integral_gate(integral) {
            failures.push(format!(
                "seed {seed}: DoS integral {integral} not within {INTEGRAL_TOL} of 1"
            ));
        }
        integrals.push(integral);
        failed_runs += usize::from(failures.len() > before);
    }
    Ok(object(&[
        ("checked", seeds.len().to_string()),
        ("failed", failed_runs.to_string()),
        ("failures", array(failures.iter().map(|f| string(f)))),
        ("dos_err", numbers(&dos_err)),
        ("integral", numbers(&integrals)),
        ("max_z", num(max_z)),
        ("band", num(band_used)),
        ("dim", h.nrows().to_string()),
        ("stored_entries", h.nnz().to_string()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moment_gate_accepts_noise_within_the_band_and_rejects_a_perturbed_moment() {
        let exact = vec![1.0, 0.0, -0.3, 0.1];
        let std_err = vec![0.0, 0.01, 0.01, 0.02];
        let mut mean = vec![1.0, 0.03, -0.33, 0.15];
        assert!(moment_gate(&mean, &std_err, &exact, 5.0).ok);
        mean[2] = -0.3 - 0.0501;
        let v = moment_gate(&mean, &std_err, &exact, 5.0);
        assert!(!v.ok);
        assert_eq!(v.first_bad, Some(2));
    }

    #[test]
    fn moment_gate_allows_only_rounding_where_the_error_is_zero() {
        assert!(moment_gate(&[1.0 + 1e-15], &[0.0], &[1.0], 5.0).ok);
        assert!(!moment_gate(&[1.0 + 1e-9], &[0.0], &[1.0], 5.0).ok);
        assert!(!moment_gate(&[f64::NAN], &[0.1], &[1.0], 5.0).ok);
    }

    #[test]
    fn t_tail_matches_closed_forms() {
        // One degree of freedom is the Cauchy law: P(|T| > 1) = 1/2.
        assert!((t_tail(1.0, 1.0) - 0.5).abs() < 1e-9);
        assert!((t_tail(0.0, 7.0) - 1.0).abs() < 1e-9);
        // Many degrees of freedom approach the normal law: P(|Z| > 3) = 2.6998e-3.
        assert!((t_tail(3.0, 1e6) / 2.6998e-3 - 1.0).abs() < 1e-3);
    }

    #[test]
    fn sigma_band_widens_as_samples_shrink() {
        // Normal two-sided quantile at 1e-3 / 1024 is 4.89.
        assert!((sigma_band(1024, 1_000_000) - 4.89).abs() < 0.01);
        let (b112, b42) = (sigma_band(1024, 112), sigma_band(1024, 42));
        assert!(b112 > 4.9 && b42 > b112 && b42 < 6.5, "{b112} {b42}");
    }

    #[test]
    fn completion_gate_is_bitwise_and_prefix_aware() {
        let reference = vec![1.0, 0.25, -0.125, 0.5];
        assert!(completion_gate(&reference[..2], &reference));
        assert!(completion_gate(&reference, &reference));
        let mut flipped = reference.clone();
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ 1);
        assert!(!completion_gate(&flipped, &reference), "one ulp is a mismatch");
        assert!(
            !completion_gate(&[1.0, 0.25, -0.125, 0.5, 0.0], &reference),
            "longer than reference"
        );
    }

    #[test]
    fn integral_gate_band() {
        assert!(integral_gate(1.0009) && integral_gate(0.9991));
        assert!(!integral_gate(1.002) && !integral_gate(f64::NAN));
    }
}
