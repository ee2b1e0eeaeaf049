//! Execution-plan ablation: realization-parallel vs row-tiled vs hybrid.
//!
//! Sweeps thread budgets {1, 2, 4, 8} across the three explicit policies on
//! the paper's Fig. 5 lattice (10x10x10, D = 1000 — *below* the old
//! realization-parallel cutoff, so `realizations` runs fully serial there)
//! and on a 48x48x48 lattice (D = 110,592, out of cache). A second section
//! pits the fused single-sweep Chebyshev step against the split
//! matvec-then-combine schedule at one thread, isolating the memory-traffic
//! saving (32 B vs 48 B of vector traffic per row per column) from any
//! parallel speedup.
//!
//! Results land in `results/ablation_exec.csv`. The machine may have fewer
//! cores than the requested budget, so each row records the requested
//! budget, the worker threads the engine actually spawns, and the host's
//! core count — speedups should be judged against `cores`, while the
//! fused-vs-split rows are meaningful even on one core.
//!
//! The criterion group also times one fused step per block width the plans
//! produce — 14 and 7 (the per-thread column runs of Fig. 5's
//! `Hybrid{2,1}` plan) and 2 (the narrowest serve-mix job) — on CSR, ELL,
//! stencil and a dense 512 x 512 matrix (the mixes' `dense:512`).

use criterion::{BenchmarkId, Criterion};
use kpm::moments::block_vector_moments;
use kpm::prelude::*;
use kpm::random::fill_random_vector;
use kpm_lattice::{dense_random_symmetric, Boundary, HypercubicLattice, OnSite, TightBinding};
use kpm_linalg::op::RescaledOp;
use kpm_linalg::tiled::{fused_block_moments_plain, TiledOp};
use kpm_linalg::{MatrixFormat, SparseMatrix, DEFAULT_TILE_ROWS};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 42;
const R: usize = 14; // the paper's random vectors per set
const THREADS: [usize; 4] = [1, 2, 4, 8];
const POLICIES: [ExecPolicy; 3] = [ExecPolicy::Realizations, ExecPolicy::Rows, ExecPolicy::Hybrid];
/// Block widths of the per-width fused-step benches (see the module docs).
const STEP_WIDTHS: [usize; 3] = [2, 7, 14];

fn cubic(l: usize) -> RescaledOp<SparseMatrix> {
    cubic_format(l, MatrixFormat::Ell)
}

fn cubic_format(l: usize, format: MatrixFormat) -> RescaledOp<SparseMatrix> {
    let tb = TightBinding::new(
        HypercubicLattice::cubic(l, l, l, Boundary::Periodic),
        1.0,
        OnSite::Uniform(0.0),
    )
    .store_zero_diagonal(true);
    let m = tb.build_format(format);
    let bounds = m.spectral_bounds(BoundsMethod::Gershgorin).expect("bounds");
    rescale(m, bounds, 0.01).expect("rescale")
}

/// Benches `n - 1` fused plain steps at each of [`STEP_WIDTHS`], one thread.
fn bench_fused_widths<A: TiledOp + Sync>(
    group: &mut criterion::BenchmarkGroup,
    name: &str,
    op: &A,
    n: usize,
) {
    for k in STEP_WIDTHS {
        let block = start_block(op.dim(), k);
        group.bench_function(format!("fused_step_{name}_k{k}"), |b| {
            b.iter(|| black_box(fused_block_moments_plain(op, &block, k, n, 1, DEFAULT_TILE_ROWS)));
        });
    }
}

fn start_block(dim: usize, r: usize) -> Vec<f64> {
    let mut block = vec![0.0; dim * r];
    for (j, col) in block.chunks_exact_mut(dim).enumerate() {
        fill_random_vector(Distribution::Rademacher, SEED, 0, j, col);
    }
    block
}

/// Min-of-`reps` wall time in seconds.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn time_it(f: impl FnMut()) -> f64 {
    time_reps(3, f)
}

fn write_results_csv() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cases = [("cubic:10,10,10", 10usize, 256usize), ("cubic:48,48,48", 48, 32)];
    let mut rows =
        vec!["variant,lattice,dim,policy,plan,threads,workers,cores,num_moments,r,seconds"
            .to_string()];

    for (label, l, n) in cases {
        let op = cubic(l);
        let d = op.dim();
        let params = KpmParams::new(n).with_random_vectors(R, 1).with_seed(SEED);
        for policy in POLICIES {
            set_exec_policy(policy);
            for threads in THREADS {
                set_thread_budget(threads);
                let plan = kpm::exec::plan(d, 1);
                let workers = match plan {
                    ExecPlan::Rows { threads, tile_rows } => {
                        threads.clamp(1, d.div_ceil(tile_rows))
                    }
                    ExecPlan::Hybrid { inner, tile_rows, .. } => {
                        inner.clamp(1, d.div_ceil(tile_rows))
                    }
                    _ => 1,
                };
                let secs = time_it(|| {
                    black_box(stochastic_moments(&op, &params));
                });
                rows.push(format!(
                    "plan_sweep,{label},{d},{},{},{threads},{workers},{cores},{n},{R},{secs:.6}",
                    policy.as_str(),
                    plan.name()
                ));
            }
        }
        set_exec_policy(ExecPolicy::Auto);
        set_thread_budget(0);
    }

    // Fused single-sweep vs split schedule, one worker. At D = 1000 the
    // vectors are cache-resident, so this isolates kernel quality; at 48^3
    // they are not, and the fused step's one-fewer pass over the vectors
    // shows up directly. Interleaved min-of-7 / min-of-3 to ride out
    // noisy-neighbor drift on shared hosts.
    for (label, l, n, reps) in
        [("cubic:10,10,10", 10usize, 256usize, 7usize), ("cubic:48,48,48", 48, 64, 3)]
    {
        let op = cubic(l);
        let d = op.dim();
        let block = start_block(d, R);
        let mut split = f64::INFINITY;
        let mut fused = f64::INFINITY;
        for _ in 0..reps {
            split = split.min(time_reps(1, || {
                black_box(block_vector_moments(&op, &block, R, n, Recursion::Plain));
            }));
            fused = fused.min(time_reps(1, || {
                black_box(fused_block_moments_plain(&op, &block, R, n, 1, DEFAULT_TILE_ROWS));
            }));
        }
        rows.push(format!(
            "fused_vs_split,{label},{d},split,serial,1,1,{cores},{n},{R},{split:.6}"
        ));
        rows.push(format!("fused_vs_split,{label},{d},fused,rows,1,1,{cores},{n},{R},{fused:.6}"));
    }

    // `cargo bench` runs with the package directory as cwd; anchor the
    // output at the workspace root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation_exec.csv"), rows.join("\n") + "\n")
        .expect("write ablation_exec.csv");
}

fn bench_exec_plans(c: &mut Criterion) {
    let op = cubic(10);
    let params = KpmParams::new(256).with_random_vectors(R, 1).with_seed(SEED);
    let mut group = c.benchmark_group("ablation_exec");
    group.sample_size(10);
    for policy in POLICIES {
        set_exec_policy(policy);
        for threads in [1usize, 4] {
            set_thread_budget(threads);
            group.bench_with_input(BenchmarkId::new(policy.as_str(), threads), &threads, |b, _| {
                b.iter(|| black_box(stochastic_moments(&op, &params)));
            });
        }
    }
    set_exec_policy(ExecPolicy::Auto);
    set_thread_budget(0);

    let d = op.dim();
    let block = start_block(d, R);
    group.bench_function("split_1thread", |b| {
        b.iter(|| black_box(block_vector_moments(&op, &block, R, 256, Recursion::Plain)));
    });
    group.bench_function("fused_1thread", |b| {
        b.iter(|| black_box(fused_block_moments_plain(&op, &block, R, 256, 1, DEFAULT_TILE_ROWS)));
    });
    for (name, format) in
        [("csr", MatrixFormat::Csr), ("ell", MatrixFormat::Ell), ("stencil", MatrixFormat::Stencil)]
    {
        bench_fused_widths(&mut group, name, &cubic_format(10, format), 64);
    }
    let dense = dense_random_symmetric(512, 1.0, 7);
    let bounds = dense.spectral_bounds(BoundsMethod::Gershgorin).expect("bounds");
    bench_fused_widths(&mut group, "dense512", &rescale(dense, bounds, 0.01).expect("rescale"), 8);
    group.finish();
}

fn main() {
    write_results_csv();
    let mut c = Criterion::default();
    bench_exec_plans(&mut c);
}
