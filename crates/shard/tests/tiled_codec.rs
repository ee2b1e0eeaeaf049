//! Distributed merge on top of the row-tiled engine.
//!
//! A `chain:600` job crosses the row-parallel cutoff (`ROW_MIN_DIM`), so
//! under the default `Auto` policy every worker computes its shard through
//! the fused tiled kernels. The merged statistics must still be bitwise
//! identical to a single-worker run after the per-realization moments
//! round-trip through the shard wire codec.

use kpm_shard::{ShardJob, ShardedEngine};

#[test]
fn local_workers_merge_bitwise_on_tiled_dimensions() {
    let spec =
        kpm_serve::JobSpec::parse("lattice=chain:600 moments=24 random=3 sets=2 seed=11").unwrap();
    let job = ShardJob::Dos(spec);
    let single = ShardedEngine::local(1).run_job(&job).unwrap().into_stats().unwrap();
    assert_eq!(single.samples, 6);
    for n in [2usize, 3, 4] {
        let multi = ShardedEngine::local(n).run_job(&job).unwrap().into_stats().unwrap();
        assert_eq!(multi.mean, single.mean, "{n} workers must merge bitwise");
        assert_eq!(multi.std_err, single.std_err);
        assert_eq!(multi.samples, single.samples);
    }
}

/// Calibrated planning through the shard codec path: whether the profile
/// store is cold (each worker probes its own slice) or pre-seeded with a
/// measured profile for a different-but-value-safe plan, the merged
/// statistics stay bitwise identical — shards only ever tune *within* the
/// value family, never across it.
#[test]
fn calibrated_profiles_keep_sharded_merges_bitwise() {
    let spec =
        kpm_serve::JobSpec::parse("lattice=chain:600 moments=24 random=3 sets=2 seed=11").unwrap();
    let job = ShardJob::Dos(spec);

    kpm::tune::store().clear_memory();
    let cold = ShardedEngine::local(3).run_job(&job).unwrap().into_stats().unwrap();

    // Seed measured profiles steering every worker-slice shape onto a
    // Hybrid plan with a double-height canonical tile. Worker slices of 6
    // realizations over R = 3 produce 1- or 2-chunk shapes; the shape's
    // entry count is the operator's own (forwarded unchanged through the
    // rescaled wrapper the workers actually profile).
    use kpm_linalg::LinearOp as _;
    let probe_spec =
        kpm_serve::JobSpec::parse("lattice=chain:600 moments=24 random=3 sets=2 seed=11").unwrap();
    let (dim, entries) = match &probe_spec.build_matrix() {
        kpm_serve::job::JobMatrix::Sparse(h) => (h.dim(), h.model_entries()),
        kpm_serve::job::JobMatrix::Dense(h) => (h.dim(), h.model_entries()),
    };
    let threads = kpm::exec::effective_threads();
    for chunks in 1..=2usize {
        let profile = kpm::ExecProfile {
            shape: kpm::ProbeShape { dim, entries, chunks, threads },
            policy: kpm::ExecPolicy::Hybrid,
            outer: 2,
            tile_rows: 2 * kpm_linalg::DEFAULT_TILE_ROWS,
            probe_nanos: 1,
            origin: kpm::tune::ProfileOrigin::Measured,
        };
        assert!(kpm::tune::store().insert(profile));
    }
    let calibrated = ShardedEngine::local(3).run_job(&job).unwrap().into_stats().unwrap();
    kpm::tune::store().clear_memory();

    assert_eq!(calibrated.mean, cold.mean, "calibration must not change merged bits");
    assert_eq!(calibrated.std_err, cold.std_err);
}
