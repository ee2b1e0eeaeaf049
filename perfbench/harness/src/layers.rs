//! Per-layer timings of public library functions, each under a span of the
//! benchmark's own: lattice assembly, this machine's memory bandwidth (the
//! roofline anchor), SpMM per storage format, the fused Chebyshev step, and
//! the execution-profile probe.
//!
//! Byte counts are computed from array sizes (every matrix entry, index and
//! vector element read or written once), not measured.

use crate::report::{median, num, object, string, Spans};
use crate::Opts;
use kpm::random::SplitMix64;
use kpm::{BoundsMethod, KpmParams, Recursion};
use kpm_lattice::{Boundary, LatticeSpec, OnSite};
use kpm_linalg::tiled::fused_block_moments_plain;
use kpm_linalg::{BlockOp, MatrixFormat, SparseMatrix, DEFAULT_TILE_ROWS};
use std::hint::black_box;
use std::time::Instant;

/// Block width of the paper's runs (`R = 14` random vectors per set).
const R: usize = 14;

/// Shapes of one layer run. `tiny` keeps the smoke test fast; the metric
/// names stay the same.
struct Sizes {
    fig5: LatticeSpec,
    lattice48: LatticeSpec,
    dense_dim: usize,
    triad_bytes: usize,
    fused_steps_fig5: usize,
    fused_steps_l48: usize,
    reps: usize,
}

fn sizes(tiny: bool, triad_bytes: usize) -> Sizes {
    if tiny {
        Sizes {
            fig5: LatticeSpec::Cubic(6, 6, 6),
            lattice48: LatticeSpec::Cubic(12, 12, 12),
            dense_dim: 64,
            triad_bytes: triad_bytes.min(4 << 20),
            fused_steps_fig5: 16,
            fused_steps_l48: 4,
            reps: 2,
        }
    } else {
        Sizes {
            fig5: LatticeSpec::Cubic(10, 10, 10),
            lattice48: LatticeSpec::Cubic(48, 48, 48),
            dense_dim: 512,
            triad_bytes,
            fused_steps_fig5: 256,
            fused_steps_l48: 32,
            reps: 5,
        }
    }
}

fn build(spec: &LatticeSpec, format: MatrixFormat) -> SparseMatrix {
    spec.build_format(1.0, OnSite::Uniform(0.0), Boundary::Periodic, format)
}

fn random_block(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| 2.0 * rng.next_unit() - 1.0).collect()
}

/// Median seconds of `reps` calls of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// STREAM triad `a = b + s c` on one thread, best of three passes, with
/// each array `bytes` long: 24 bytes move per element.
fn triad_gbs(bytes: usize) -> f64 {
    let n = (bytes / 8).max(1);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..3 {
        let s = black_box(0.5 + pass as f64);
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    24.0 * n as f64 / best / 1e9
}

/// Computed bytes one `apply_block` of width `k` moves: stored matrix data
/// plus one read of `x` and one write of `y`.
fn spmm_bytes(h: &SparseMatrix, k: usize) -> f64 {
    let d = h.nrows() as f64;
    let word = std::mem::size_of::<usize>() as f64;
    let matrix = match h {
        SparseMatrix::Csr(m) => m.nnz() as f64 * (8.0 + word) + (d + 1.0) * word,
        SparseMatrix::Ell(m) => m.padded_entries() as f64 * (8.0 + word) + d * word,
        // Matrix-free: only the on-site diagonal is stored.
        SparseMatrix::Stencil(_) => d * 8.0,
    };
    matrix + 2.0 * d * k as f64 * 8.0
}

fn spmm_gbs<A: BlockOp + ?Sized>(op: &A, bytes: f64, reps: usize) -> f64 {
    let d = op.dim();
    let x = random_block(d * R, 11);
    let mut y = vec![0.0; d * R];
    op.apply_block(&x, &mut y, R);
    let secs = timed(reps, || {
        op.apply_block(black_box(&x), &mut y, R);
        black_box(&mut y);
    });
    bytes / secs / 1e9
}

/// Fused and split per-step times (µs) of the plain block recursion on the
/// Gershgorin-rescaled operator, one thread.
fn step_us(h: &SparseMatrix, steps: usize, reps: usize) -> Result<(f64, f64), String> {
    let bounds = kpm::bounds::resolve(h, BoundsMethod::Gershgorin).map_err(|e| e.to_string())?;
    let op =
        kpm::rescale::rescale(h, bounds, KpmParams::new(2).padding).map_err(|e| e.to_string())?;
    let r0 = random_block(h.nrows() * R, 5);
    let fused = timed(reps, || {
        black_box(fused_block_moments_plain(&op, &r0, R, steps, 1, DEFAULT_TILE_ROWS));
    });
    let split = timed(reps, || {
        black_box(kpm::moments::block_vector_moments(&op, &r0, R, steps, Recursion::Plain));
    });
    Ok((fused / steps as f64 * 1e6, split / steps as f64 * 1e6))
}

/// `layers`: every library-level metric of the ledger, as
/// `{"metrics": {...}, "spans": [...], ...}`.
pub fn run(opts: &Opts) -> Result<String, String> {
    let tiny = opts.str_or("scale", "full") == "tiny";
    let s = sizes(tiny, opts.req_num("triad-bytes")?);
    let mut spans = Spans::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| metrics.push((name.to_string(), v));

    let root = spans.open("layers", "ladder");
    let l = spans.open("lattice", "ladder");
    let (_, csr) = spans.time("lattice.build.csr", "fig5", || {
        timed(s.reps, || drop(black_box(build(&s.fig5, MatrixFormat::Csr))))
    });
    let (_, stencil) = spans.time("lattice.build.stencil", "lattice48", || {
        timed(s.reps, || drop(black_box(build(&s.lattice48, MatrixFormat::Stencil))))
    });
    spans.close(l);
    put("lattice.build_s.csr", csr);
    put("lattice.build_s.stencil", stencil);

    let l = spans.open("linalg", "ladder");
    let (triad, _) = spans.time("linalg.triad", "roofline", || triad_gbs(s.triad_bytes));
    put("linalg.triad_gbs", triad);
    for (name, format) in
        [("csr", MatrixFormat::Csr), ("ell", MatrixFormat::Ell), ("stencil", MatrixFormat::Stencil)]
    {
        let h = build(&s.lattice48, format);
        let bytes = spmm_bytes(&h, R);
        let (gbs, _) =
            spans.time(&format!("linalg.spmm.{name}"), "lattice48", || spmm_gbs(&h, bytes, s.reps));
        put(&format!("linalg.spmm_gbs.{name}"), gbs);
        put(&format!("linalg.spmm_frac.{name}"), gbs / triad);
    }
    let dense = kpm_lattice::dense_random_symmetric(s.dense_dim, 1.0, 7);
    let dense_bytes =
        (s.dense_dim * s.dense_dim) as f64 * 8.0 + 2.0 * (s.dense_dim * R) as f64 * 8.0;
    let (gbs, _) =
        spans.time("linalg.spmm.dense", "dense512", || spmm_gbs(&dense, dense_bytes, s.reps));
    put("linalg.spmm_gbs.dense", gbs);

    let h5 = build(&s.fig5, MatrixFormat::Csr);
    let h48 = build(&s.lattice48, MatrixFormat::Stencil);
    let (r5, _) =
        spans.time("linalg.fused_step", "fig5", || step_us(&h5, s.fused_steps_fig5, s.reps));
    let (fused5, _) = r5?;
    let (r48, _) = spans
        .time("linalg.fused_step", "lattice48", || step_us(&h48, s.fused_steps_l48, s.reps.min(3)));
    let (fused48, split48) = r48?;
    put("linalg.fused_step_us.fig5", fused5);
    put("linalg.fused_step_us.lattice48", fused48);
    put("linalg.fused_over_split", fused48 / split48);
    spans.close(l);

    // The profile store is per process and empty here, so the first
    // `ensure_profile` on an operator shape runs the probe sweep.
    let params = KpmParams::new(1024).with_random_vectors(R, 8);
    let chunks = kpm::moments::realization_chunk_count(&params, 0..params.total_realizations());
    let (_, probe) =
        spans.time("kpm.tune.probe", "fig5", || black_box(kpm::ensure_profile(&h5, chunks)));
    put("kpm.tune_probe_s", probe);
    spans.close(root);

    let body: Vec<(&str, String)> = metrics.iter().map(|(k, v)| (k.as_str(), num(*v))).collect();
    Ok(object(&[
        ("metrics", object(&body)),
        ("spans", spans.to_json()),
        ("triad_array_bytes", s.triad_bytes.to_string()),
        ("bytes", string("computed")),
        ("threads", "1".into()),
    ]))
}
