//! Integration tests for the row-tiled execution engine: tiled-fused vs
//! untiled-serial agreement across random lattices/formats/tile sizes,
//! bitwise thread-count determinism through `stochastic_moments`, and the
//! shard range-slicing contract at tiled dimensions.
//!
//! `ExecPolicy` / the thread budget are process-global, so every test that
//! mutates them serializes on [`POLICY_LOCK`] and restores the defaults on
//! drop; the engine-level property test uses only explicit arguments and
//! needs no lock.

use kpm::prelude::*;
use kpm::random::fill_random_vector;
use kpm_lattice::spec::LatticeSpec;
use kpm_lattice::{Boundary, OnSite};
use kpm_linalg::op::RescaledOp;
use kpm_linalg::tiled::{fused_block_moments_doubling, fused_block_moments_plain};
use kpm_linalg::{MatrixFormat, SparseMatrix};
use proptest::prelude::*;
use std::sync::Mutex;

static POLICY_LOCK: Mutex<()> = Mutex::new(());

/// Holds the policy lock and restores `Auto` / auto-threads on drop, so a
/// panicking test cannot leak a tiled policy into its neighbours.
struct PolicyGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Drop for PolicyGuard {
    fn drop(&mut self) {
        set_exec_policy(ExecPolicy::Auto);
        set_thread_budget(0);
        set_moments_precision(MomentPrecision::F64);
        set_tuning_enabled(true);
        kpm::tune::store().clear_memory();
    }
}

fn policy_guard() -> PolicyGuard {
    PolicyGuard(POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

fn lattice(spec: &str, fmt: MatrixFormat) -> SparseMatrix {
    LatticeSpec::parse(spec).unwrap().build_format(
        1.0,
        OnSite::Uniform(0.0),
        Boundary::Periodic,
        fmt,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tiled fused engine agrees with the untiled blocked recursion to
    /// 1e-12 relative for random lattices, storage formats, tile sizes, and
    /// worker counts — for both recursions. (The two are *not* bitwise
    /// equal: the per-tile dot accumulation associates differently from
    /// `vecops::dot`.)
    #[test]
    fn tiled_fused_agrees_with_untiled_serial(
        lx in 2usize..5,
        ly in 2usize..5,
        lz in 2usize..4,
        fmt_idx in 0usize..3,
        tile_rows in 1usize..70,
        threads in 1usize..5,
        doubling in any::<bool>(),
        seed in 0u64..512,
    ) {
        let fmt = [MatrixFormat::Csr, MatrixFormat::Ell, MatrixFormat::Stencil][fmt_idx];
        let h = lattice(&format!("cubic:{lx},{ly},{lz}"), fmt);
        let d = h.dim();
        let op = RescaledOp::new(h, 0.0, 8.0);
        let (k, n) = (3usize, 14usize);
        let mut r0 = vec![0.0; d * k];
        fill_random_vector(Distribution::Rademacher, seed, 0, 0, &mut r0);

        let recursion = if doubling { Recursion::Doubling } else { Recursion::Plain };
        let reference = block_vector_moments(&op, &r0, k, n, recursion);
        let (tiled, _stats) = if doubling {
            fused_block_moments_doubling(&op, &r0, k, n, threads, tile_rows)
        } else {
            fused_block_moments_plain(&op, &r0, k, n, threads, tile_rows)
        };

        for (j, (t, r)) in tiled.iter().zip(&reference).enumerate() {
            prop_assert_eq!(t.len(), n);
            for m in 0..n {
                let scale = r[m].abs().max(d as f64);
                prop_assert!(
                    (t[m] - r[m]).abs() <= 1e-12 * scale,
                    "col {} moment {}: tiled {} vs reference {}",
                    j, m, t[m], r[m]
                );
            }
        }
    }
}

/// On the paper's Fig. 5 lattice (`cubic:10,10,10`, D = 1000, N = 256) the
/// tiled plans reproduce the untiled estimator to 1e-12 relative, and the
/// tiled moments are bitwise identical for any thread budget — the pinned
/// acceptance criterion for the engine.
#[test]
fn fig5_config_tiled_matches_untiled_and_is_thread_stable() {
    let _g = policy_guard();
    let h = lattice("cubic:10,10,10", MatrixFormat::Ell);
    let op = RescaledOp::new(h, 0.0, 8.0);
    let params = KpmParams::new(256).with_random_vectors(2, 1).with_seed(42);

    // `Realizations` forces the historical untiled family (D = 1000 is
    // below the realization-parallel cutoff, so it runs fully serial).
    set_exec_policy(ExecPolicy::Realizations);
    let reference = stochastic_moments(&op, &params);

    set_exec_policy(ExecPolicy::Rows);
    let tiled: Vec<MomentStats> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            set_thread_budget(t);
            stochastic_moments(&op, &params)
        })
        .collect();

    for r in &tiled[1..] {
        assert_eq!(r.mean, tiled[0].mean, "tiled moments must be bitwise thread-stable");
        assert_eq!(r.std_err, tiled[0].std_err);
    }
    assert_eq!(tiled[0].samples, reference.samples);
    for (m, (&t, &r)) in tiled[0].mean.iter().zip(&reference.mean).enumerate() {
        let scale = r.abs().max(1.0);
        assert!((t - r).abs() <= 1e-12 * scale, "moment {m}: tiled {t} vs untiled {r}");
    }
}

/// The Lanczos bounds probe is sequential by construction, so a full DoS
/// run under `--bounds lanczos` — probe, rescale, moments, reconstruct —
/// is bitwise identical across exec policies and thread budgets.
#[test]
fn lanczos_bounds_dos_is_bitwise_across_plans_and_threads() {
    let _g = policy_guard();
    // Disordered operator: the one place Lanczos actually moves the window.
    let h = LatticeSpec::parse("chain:96").unwrap().build_format(
        1.0,
        OnSite::Disorder { width: 6.0, seed: 3 },
        Boundary::Periodic,
        MatrixFormat::Csr,
    );
    let params = KpmParams::new(64)
        .with_random_vectors(3, 2)
        .with_seed(11)
        .with_bounds(BoundsMethod::Lanczos { steps: 32 });
    let dos_under = |policy: ExecPolicy, threads: usize| {
        set_exec_policy(policy);
        set_thread_budget(threads);
        DosEstimator::new(params.clone()).compute(&h).unwrap()
    };
    let reference = dos_under(ExecPolicy::Realizations, 1);
    for policy in [ExecPolicy::Realizations, ExecPolicy::Rows, ExecPolicy::Hybrid] {
        for threads in [1usize, 2, 4] {
            let dos = dos_under(policy, threads);
            let same_bits = |a: &[f64], b: &[f64]| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            assert!(
                same_bits(&dos.rho, &reference.rho)
                    && same_bits(&dos.energies, &reference.energies),
                "{policy:?} x {threads} threads must reproduce the reference bitwise"
            );
        }
    }
}

/// `Rows` and `Hybrid` are scheduling choices over the same tiled value
/// family: for a fixed seed they produce bitwise-identical statistics, for
/// any thread budget.
#[test]
fn rows_and_hybrid_policies_are_bitwise_identical() {
    let _g = policy_guard();
    let h = lattice("chain:600", MatrixFormat::Csr);
    let op = RescaledOp::new(h, 0.0, 3.0);
    let params = KpmParams::new(32).with_random_vectors(3, 2).with_seed(11);

    let runs: Vec<MomentStats> = [
        (ExecPolicy::Rows, 1usize),
        (ExecPolicy::Rows, 2),
        (ExecPolicy::Rows, 4),
        (ExecPolicy::Hybrid, 2),
        (ExecPolicy::Hybrid, 4),
    ]
    .iter()
    .map(|&(p, t)| {
        set_exec_policy(p);
        set_thread_budget(t);
        stochastic_moments(&op, &params)
    })
    .collect();

    for r in &runs[1..] {
        assert_eq!(r.mean, runs[0].mean);
        assert_eq!(r.std_err, runs[0].std_err);
        assert_eq!(r.samples, runs[0].samples);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Calibration never changes the value family: for every profile the
    /// tuner can emit on a tiled-dimension operator (`Rows` or `Hybrid`,
    /// any canonical-grid tile height, any outer split) and every thread
    /// budget, the moments with the profile installed are **bitwise
    /// identical** to the cold-start (static prior) run.
    #[test]
    fn calibrated_profiles_preserve_bitwise_moments(
        hybrid in any::<bool>(),
        tile_mult in 1usize..5,
        outer in 2usize..5,
        threads in 1usize..5,
        seed in 0u64..128,
    ) {
        let _g = policy_guard();
        let h = lattice("chain:600", MatrixFormat::Csr);
        let op = RescaledOp::new(h, 0.0, 3.0);
        let params = KpmParams::new(16).with_random_vectors(3, 2).with_seed(seed);
        set_thread_budget(threads);

        // Cold start: empty store, Auto falls back to the static prior.
        kpm::tune::store().clear_memory();
        let cold = stochastic_moments(&op, &params);

        // Install a measured profile for the exact shape `plan_for` keys on.
        let chunks = realization_chunk_count(&params, 0..params.total_realizations());
        let shape = ProbeShape {
            dim: op.dim(),
            entries: op.model_entries(),
            chunks,
            threads: kpm::exec::effective_threads(),
        };
        let profile = ExecProfile {
            shape,
            policy: if hybrid { ExecPolicy::Hybrid } else { ExecPolicy::Rows },
            outer: if hybrid { outer } else { 0 },
            tile_rows: tile_mult * kpm_linalg::DEFAULT_TILE_ROWS,
            probe_nanos: 1,
            origin: kpm::tune::ProfileOrigin::Measured,
        };
        prop_assert!(kpm::tune::store().insert(profile));
        let calibrated = stochastic_moments(&op, &params);
        kpm::tune::store().clear_memory();

        prop_assert_eq!(&cold.mean, &calibrated.mean,
            "calibrated run must be bitwise identical to cold start");
        prop_assert_eq!(&cold.std_err, &calibrated.std_err);
    }
}

/// Below `ROW_MIN_DIM` the tuner only ever records the untiled prior; a
/// present profile is bitwise identical to the cold-start run there too.
#[test]
fn small_dim_prior_profile_is_bitwise_stable() {
    let _g = policy_guard();
    let h = lattice("chain:100", MatrixFormat::Csr);
    let op = RescaledOp::new(h, 0.0, 3.0);
    let params = KpmParams::new(16).with_random_vectors(2, 2).with_seed(5);

    kpm::tune::store().clear_memory();
    let cold = stochastic_moments(&op, &params);

    // `ensure_profile` on a small dim records the prior without probing.
    let chunks = realization_chunk_count(&params, 0..params.total_realizations());
    let profile = kpm::tune::ensure_profile(&op, chunks);
    assert_eq!(profile.policy, ExecPolicy::Realizations);
    assert_eq!(profile.origin, kpm::tune::ProfileOrigin::Prior);
    let with_profile = stochastic_moments(&op, &params);

    assert_eq!(cold.mean, with_profile.mean);
    assert_eq!(cold.std_err, with_profile.std_err);
}

/// The mixed-precision moments path (f32 recursion state, f64 dot
/// accumulation) is off by default and stays within its documented error
/// budget on the paper's flagship lattice: every normalized moment within
/// `1e-4` absolute of the f64 reference (`mu_0 = 1` sets the scale).
#[test]
fn mixed_precision_is_opt_in_and_within_error_budget() {
    let _g = policy_guard();
    assert_eq!(
        kpm::exec::moments_precision(),
        MomentPrecision::F64,
        "mixed precision must be off by default"
    );
    let h = lattice("cubic:10,10,10", MatrixFormat::Ell);
    let op = RescaledOp::new(h, 0.0, 8.0);
    let params = KpmParams::new(64).with_random_vectors(2, 1).with_seed(42);
    let reference = stochastic_moments(&op, &params);

    set_moments_precision(MomentPrecision::MixedF32);
    let mixed = stochastic_moments(&op, &params);
    set_moments_precision(MomentPrecision::F64);

    assert_ne!(mixed.mean, reference.mean, "the mixed path must actually run");
    let budget = 1e-4; // documented bound, DESIGN §12
    let mut worst = 0.0f64;
    for (m, (&a, &b)) in mixed.mean.iter().zip(&reference.mean).enumerate() {
        let err = (a - b).abs();
        worst = worst.max(err);
        assert!(err <= budget, "moment {m}: |{a} - {b}| = {err} exceeds budget {budget}");
    }
    // The bound is not vacuous: f32 rounding is visible but far inside it.
    assert!(worst > 0.0);
}

/// The shard contract survives the tiled engine: slicing the realization
/// ensemble into ranges (as the distributed workers do) reproduces the
/// full-range per-realization moments bitwise, even though a cut through a
/// realization set narrows the block the tiled kernels sweep.
#[test]
fn sharded_ranges_merge_bitwise_under_tiled_plans() {
    let _g = policy_guard();
    set_exec_policy(ExecPolicy::Rows);
    set_thread_budget(3);
    let h = lattice("chain:520", MatrixFormat::Ell);
    let op = RescaledOp::new(h, 0.0, 3.0);
    let params = KpmParams::new(24).with_random_vectors(3, 2).with_seed(7);

    let total = params.total_realizations();
    let full = per_realization_moments(&op, &params, 0..total);
    for shards in [2usize, 3, 5] {
        let mut merged = Vec::new();
        for range in split_even(total, shards) {
            merged.extend(per_realization_moments(&op, &params, range));
        }
        assert_eq!(merged, full, "{shards} shards must reproduce the full run bitwise");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `Hybrid` scheduler called directly — the policy layer caps
    /// `outer` at the core count, so this is the only way to reach wide
    /// splits on a small machine. For every `outer` in 1..=5 and `inner` in
    /// {1, 2}, over realization ranges that cut through sets and do not
    /// divide evenly by `outer`, both recursions give moments bitwise equal
    /// to `Rows` on one thread.
    #[test]
    fn hybrid_column_runs_are_bitwise_equal_to_rows(
        r_per_s in 2usize..6,
        sets in 1usize..4,
        cut in (0usize..1000, 0usize..1000),
        outer in 1usize..=5,
        inner in 1usize..=2,
        tile_mult in 1usize..3,
        doubling in any::<bool>(),
        seed in 0u64..256,
    ) {
        let h = lattice("chain:600", MatrixFormat::Csr);
        let op = RescaledOp::new(h, 0.0, 3.0);
        let recursion = if doubling { Recursion::Doubling } else { Recursion::Plain };
        let params = KpmParams::new(20)
            .with_random_vectors(r_per_s, sets)
            .with_seed(seed)
            .with_recursion(recursion);
        let total = params.total_realizations();
        let (a, b) = (cut.0 % total, cut.1 % total);
        let range = a.min(b)..a.max(b) + 1;
        let tile_rows = tile_mult * kpm_linalg::DEFAULT_TILE_ROWS;

        let run = |plan| {
            kpm::moments::per_realization_moments_with_plan(&op, &params, range.clone(), plan)
        };
        let rows = run(ExecPlan::Rows { threads: 1, tile_rows });
        let hybrid = run(ExecPlan::Hybrid { outer, inner, tile_rows });
        prop_assert_eq!(hybrid.len(), range.len());
        prop_assert_eq!(hybrid, rows, "outer={} inner={} range={:?}", outer, inner, range);
    }
}
