//! Chebyshev moment computation — the computational core of the KPM.
//!
//! `mu_n = Tr[T_n(H~)] / D` is estimated stochastically (the paper's
//! Eq. 16/19): for each of `S * R` random vectors `|r>`, run the recursion
//!
//! ```text
//! |r_0> = |r>,   |r_1> = H~ |r_0>,   |r_{n+2}> = 2 H~ |r_{n+1}> - |r_n>
//! ```
//!
//! and accumulate `mu~_n = <r_0 | r_n>`; the estimate is the mean of
//! `mu~_n / D` over realizations. Two recursion strategies are provided:
//!
//! * [`Recursion::Plain`] — the paper's loop: one matvec and one dot per
//!   moment (`N - 1` matvecs for `N` moments).
//! * [`Recursion::Doubling`] — the product identity
//!   `2 T_m T_n = T_{m+n} + T_{m-n}` yields
//!   `mu_{2k} = 2 <r_k|r_k> - mu_0` and `mu_{2k+1} = 2 <r_{k+1}|r_k> - mu_1`,
//!   halving the matvec count (Weiße et al. 2006, Sec. II.D). The paper does
//!   not use this; we include it as a measured ablation.
//!
//! Stochastic estimation is a multiple-right-hand-side problem: every step
//! applies the same `H~` to all `R` vectors of a realization set. The
//! stochastic driver therefore carries each set as one `D x R` column-block
//! through [`kpm_linalg::BlockOp::apply_block`] — three `D x R` buffers
//! pointer-swapped exactly like the single-vector scheme, one matrix sweep
//! amortized over `R` right-hand sides. Per-realization RNG streams are
//! keyed `(s, r)` as before and every block column performs bitwise the
//! same arithmetic as the scalar recursion, so results are bitwise
//! identical to the one-vector-at-a-time path.

use crate::error::KpmError;
use crate::exec::{self, ExecPlan};
use crate::kernels::KernelType;
use crate::random::{fill_random_vector, Distribution};
use crate::rescale::BoundsMethod;
use kpm_linalg::block::BlockOp;
use kpm_linalg::op::LinearOp;
use kpm_linalg::tiled::{self, TiledOp};
use kpm_linalg::vecops;
use rayon::prelude::*;

/// Which Chebyshev recursion to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recursion {
    /// One matvec per moment (the paper's Fig. 3 loop).
    Plain,
    /// Moment doubling: one matvec per *two* moments.
    Doubling,
}

/// All knobs of a KPM run. Mirrors the paper's parameter set:
/// `N` = `num_moments`, `R` = `num_random`, `S` = `num_realizations`,
/// `H_SIZE` = the operator dimension.
#[derive(Debug, Clone)]
pub struct KpmParams {
    /// Truncation order `N` of the Chebyshev expansion.
    pub num_moments: usize,
    /// Random vectors per realization set, `R`.
    pub num_random: usize,
    /// Realization sets, `S` (outer average of the paper's Eq. 16).
    pub num_realizations: usize,
    /// Master seed; realization `(s, r)` derives its own stream from it.
    pub seed: u64,
    /// Component distribution of the random vectors.
    pub distribution: Distribution,
    /// Recursion strategy.
    pub recursion: Recursion,
    /// Damping kernel for reconstruction.
    pub kernel: KernelType,
    /// How spectral bounds are obtained.
    pub bounds: BoundsMethod,
    /// Relative safety padding applied to the bounds (Eq. 8 rescaling).
    pub padding: f64,
    /// Number of reconstruction grid points (Chebyshev–Gauss abscissas).
    pub grid_points: usize,
}

impl KpmParams {
    /// Defaults around `num_moments`: `R = 8`, `S = 2`, Rademacher vectors,
    /// plain recursion, Jackson kernel, Gershgorin bounds, 1% padding, and
    /// a `2 N` reconstruction grid (rounded up to a power of two).
    pub fn new(num_moments: usize) -> Self {
        Self {
            num_moments,
            num_random: 8,
            num_realizations: 2,
            seed: 0x6b70_6d5f_7365,
            distribution: Distribution::Rademacher,
            recursion: Recursion::Plain,
            kernel: KernelType::Jackson,
            bounds: BoundsMethod::Gershgorin,
            padding: 0.01,
            grid_points: (2 * num_moments).next_power_of_two(),
        }
    }

    /// Sets `R` and `S` — the paper's Fig. 5–8 use `R = 14, S = 128` (or
    /// the swap; only the product matters to cost and accuracy).
    pub fn with_random_vectors(mut self, num_random: usize, num_realizations: usize) -> Self {
        self.num_random = num_random;
        self.num_realizations = num_realizations;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the component distribution.
    pub fn with_distribution(mut self, d: Distribution) -> Self {
        self.distribution = d;
        self
    }

    /// Sets the recursion strategy.
    pub fn with_recursion(mut self, r: Recursion) -> Self {
        self.recursion = r;
        self
    }

    /// Sets the damping kernel.
    pub fn with_kernel(mut self, k: KernelType) -> Self {
        self.kernel = k;
        self
    }

    /// Sets the bounds method.
    pub fn with_bounds(mut self, b: BoundsMethod) -> Self {
        self.bounds = b;
        self
    }

    /// Sets the rescaling padding.
    pub fn with_padding(mut self, eps: f64) -> Self {
        self.padding = eps;
        self
    }

    /// Sets the reconstruction grid size.
    pub fn with_grid_points(mut self, k: usize) -> Self {
        self.grid_points = k;
        self
    }

    /// Total number of independent random-vector realizations, `S * R`.
    pub fn total_realizations(&self) -> usize {
        self.num_random * self.num_realizations
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    /// [`KpmError::TooFewMoments`] for `num_moments < 2`,
    /// [`KpmError::GridTooSmall`] for `grid_points < num_moments`,
    /// [`KpmError::NonFinitePadding`] for NaN/infinite padding, and
    /// [`KpmError::InvalidParameter`] naming any other offending field.
    pub fn validate(&self) -> Result<(), KpmError> {
        if self.num_moments < 2 {
            return Err(KpmError::TooFewMoments { got: self.num_moments });
        }
        if self.num_random == 0 || self.num_realizations == 0 {
            return Err(KpmError::InvalidParameter(
                "num_random and num_realizations must be positive".into(),
            ));
        }
        if self.grid_points < self.num_moments {
            return Err(KpmError::GridTooSmall {
                grid_points: self.grid_points,
                num_moments: self.num_moments,
            });
        }
        if !self.padding.is_finite() {
            return Err(KpmError::NonFinitePadding(self.padding));
        }
        if self.padding < 0.0 {
            return Err(KpmError::InvalidParameter(format!(
                "padding must be nonnegative, got {}",
                self.padding
            )));
        }
        Ok(())
    }
}

/// Stochastic moment estimate with per-moment standard errors.
#[derive(Debug, Clone)]
pub struct MomentStats {
    /// Mean moments `mu_0 .. mu_{N-1}`.
    pub mean: Vec<f64>,
    /// Standard error of each mean across realizations (zero when only one
    /// realization was drawn).
    pub std_err: Vec<f64>,
    /// Number of realizations averaged.
    pub samples: usize,
}

impl MomentStats {
    /// Truncation order of this estimate (number of stored moments).
    pub fn num_moments(&self) -> usize {
        self.mean.len()
    }

    /// The first `n` moments as a stand-alone estimate.
    ///
    /// Chebyshev moments of order `< n` do not depend on the truncation
    /// order: a run at `N' > n` performs the identical recursion steps and
    /// the identical index-ordered reduction for the leading `n` entries, so
    /// `truncated(n)` of the longer run is bitwise equal to a fresh run at
    /// `n` with the same parameters. This is what lets a moment cache serve
    /// lower-order requests from a higher-order entry (kernel damping is
    /// applied at reconstruction time, never stored here).
    ///
    /// # Panics
    /// Panics if `n > self.num_moments()` or `n < 2`.
    pub fn truncated(&self, n: usize) -> Self {
        assert!(n >= 2, "need at least two moments");
        assert!(n <= self.mean.len(), "cannot truncate {} moments to {n}", self.mean.len());
        Self {
            mean: self.mean[..n].to_vec(),
            std_err: self.std_err[..n].to_vec(),
            samples: self.samples,
        }
    }

    /// Largest standard error across all moments — a one-number convergence
    /// indicator (zero for deterministic single-vector runs).
    pub fn max_std_err(&self) -> f64 {
        self.std_err.iter().fold(0.0, |m, &e| m.max(e))
    }

    /// Exact merge of per-realization normalized moment vectors into a
    /// [`MomentStats`], in the order given.
    ///
    /// This is *the* reduction of the stochastic estimator: a streaming
    /// Welford pass (mean plus sum of squared deviations) over the
    /// realizations in canonical `idx = s * R + r` order. It is factored out
    /// so that a distributed run can regenerate it exactly — shard workers
    /// return their realizations' `mu~_n / D` vectors untouched, the
    /// coordinator concatenates the shards in canonical order and calls this
    /// function, and the result is bitwise identical to a single-process
    /// [`stochastic_moments`] run (which is itself implemented on top of
    /// this merge). Floating-point summation is not associative, so the
    /// merge deliberately re-runs the sequential reduction instead of
    /// combining partial Welford states.
    ///
    /// # Panics
    /// Panics if `per_realization` is empty or the vectors have unequal
    /// lengths.
    pub fn merge_realizations(per_realization: &[Vec<f64>]) -> Self {
        let total = per_realization.len();
        assert!(total > 0, "cannot merge zero realizations");
        let n = per_realization[0].len();
        let mut mean = vec![0.0; n];
        let mut m2 = vec![0.0; n]; // sum of squared deviations (Welford)
        for (count, mu) in per_realization.iter().enumerate() {
            assert_eq!(mu.len(), n, "realization {count} has wrong moment count");
            let k = (count + 1) as f64;
            for i in 0..n {
                let delta = mu[i] - mean[i];
                mean[i] += delta / k;
                m2[i] += delta * (mu[i] - mean[i]);
            }
        }
        let std_err = if total > 1 {
            m2.iter().map(|&s| (s / (total as f64 - 1.0)).sqrt() / (total as f64).sqrt()).collect()
        } else {
            vec![0.0; n]
        };
        MomentStats { mean, std_err, samples: total }
    }
}

/// Cuts `0..total` into at most `parts` contiguous, non-empty ranges whose
/// lengths differ by at most one (`k * total / parts` boundaries); one
/// range per index when `parts > total`. Set boundaries are ignored — the
/// [`ExecPlan::Hybrid`] column runs use it, and tests use it as an
/// arbitrary partition.
///
/// # Panics
/// Panics if `total == 0` or `parts == 0`.
pub fn split_even(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(total > 0, "cannot split zero realizations");
    assert!(parts > 0, "need at least one part");
    let parts = parts.min(total);
    (0..parts).map(|k| (k * total / parts)..((k + 1) * total / parts)).collect()
}

/// Narrowest piece [`shard_plan`] cuts a realization set into. Per column,
/// a `K = 2` fused step costs 2.4–5x a `K = 14` one, while from about seven
/// columns up it is within 20% of it on CSR and ELL (DESIGN §8), so a
/// narrower piece loses more per column than a second worker gains.
pub const MIN_SHARD_COLS: usize = 8;

/// Deterministic, set-aligned partition of `total` realizations (sets of
/// `r_per_set` consecutive indices, `idx = s * R + r`) into at most
/// `max_shards` contiguous, non-empty ranges covering `0..total`.
///
/// A shard is a run of whole sets, so a worker advances each set as one
/// `R`-wide block. With at least `max_shards` sets, the sets are grouped
/// into `max_shards` near-equal runs. With fewer, each set is cut into
/// `min(max_shards / sets, R / MIN_SHARD_COLS).max(1)` near-equal pieces:
/// the paper's `R = 14` set stays whole, an `R = 64` set can split up to
/// eight ways. A short last set (`total` not a multiple of `R`) counts as
/// a set.
///
/// The plan is a pure function of its inputs — no RNG, no timing — so
/// every node of a distributed run, and a restarted coordinator, derives
/// the identical partition. The slicing never changes a bit of the merge:
/// [`per_realization_moments`] is independent of how a range cuts sets.
///
/// # Panics
/// Panics if `r_per_set`, `total` or `max_shards` is zero.
pub fn shard_plan(
    r_per_set: usize,
    total: usize,
    max_shards: usize,
) -> Vec<std::ops::Range<usize>> {
    assert!(r_per_set > 0, "need at least one realization per set");
    assert!(total > 0, "cannot shard zero realizations");
    assert!(max_shards > 0, "need at least one shard");
    let sets = total.div_ceil(r_per_set);
    let set_start = |s: usize| (s * r_per_set).min(total);
    if sets >= max_shards {
        return split_even(sets, max_shards)
            .into_iter()
            .map(|g| set_start(g.start)..set_start(g.end))
            .collect();
    }
    let pieces = (max_shards / sets).min(r_per_set / MIN_SHARD_COLS).max(1);
    (0..sets)
        .flat_map(|s| {
            let base = set_start(s);
            let width = set_start(s + 1) - base;
            let pieces = pieces.min(width / MIN_SHARD_COLS).max(1);
            split_even(width, pieces).into_iter().map(move |p| base + p.start..base + p.end)
        })
        .collect()
}

/// Groups a realization index range into per-set `(s, r_lo..r_hi)` chunks —
/// the work units [`per_realization_moments`] plans over. Exposed so the
/// serving layers can derive the chunk count a job will use (the calibrated
/// profile key includes it) without duplicating the grouping rule.
pub fn realization_chunks(
    r_per_s: usize,
    range: std::ops::Range<usize>,
) -> Vec<(usize, std::ops::Range<usize>)> {
    let mut chunks: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut idx = range.start;
    while idx < range.end {
        let s = idx / r_per_s;
        let r_lo = idx % r_per_s;
        let r_hi = (range.end - s * r_per_s).min(r_per_s);
        chunks.push((s, r_lo..r_hi));
        idx = s * r_per_s + r_hi;
    }
    chunks
}

/// The number of planning chunks a `params` run over `range` produces —
/// `realization_chunks(...).len()` without the allocation's contents
/// mattering. Serve workers and shard compute threads feed this to
/// [`crate::tune::ensure_profile`].
pub fn realization_chunk_count(params: &KpmParams, range: std::ops::Range<usize>) -> usize {
    if range.is_empty() {
        return 0;
    }
    realization_chunks(params.num_random, range).len()
}

/// The normalized per-realization moment vectors `mu~_n / D` for the
/// realization index range `range` (canonical `idx = s * R + r` indexing)
/// of the full `S x R` ensemble described by `params`.
///
/// Entry `i` of the result is realization `range.start + i`. Realizations
/// sharing a set `s` advance together as one `D x k` block — and because
/// each block column is bitwise identical to the scalar recursion
/// (the [`block_vector_moments`] contract), the values are independent of
/// how `range` slices through realization sets. This is the worker half of
/// the distributed estimator; [`MomentStats::merge_realizations`] is the
/// coordinator half, and [`stochastic_moments`] is literally the two glued
/// together over the full range.
///
/// The plan comes from [`exec::plan_for`]; it is traced as a `kpm.exec`
/// span labelled with its name (plus the reason, when an explicit policy
/// was downgraded) and `kpm.exec.plan.<name>` /
/// `kpm.exec.downgrade.<requested>.<resolved>` counters.
///
/// # Panics
/// Panics if parameters are invalid, `range` is empty, or
/// `range.end > params.total_realizations()`.
pub fn per_realization_moments<A: TiledOp + Sync>(
    op: &A,
    params: &KpmParams,
    range: std::ops::Range<usize>,
) -> Vec<Vec<f64>> {
    check_range(params, &range);
    let d = op.dim();
    // Mixed precision is value-affecting and opt-in: it runs the untiled
    // f32-state recursion serially per chunk (one value family, documented
    // in DESIGN §12), bypassing the calibrated planner entirely.
    if exec::moments_precision() == exec::MomentPrecision::MixedF32 {
        if kpm_obs::enabled() {
            kpm_obs::counter_add("kpm.exec.plan.mixed", 1);
        }
        let _exec_span = kpm_obs::span_labeled("kpm.exec", "mixed");
        return realization_chunks(params.num_random, range)
            .iter()
            .flat_map(|(s, rs)| {
                let block = start_block(params, d, *s, rs);
                let per_column =
                    block_vector_moments_mixed(op, &block, rs.len(), params.num_moments);
                kpm_obs::counter_add("kpm.realizations", rs.len() as u64);
                normalized(per_column, d)
            })
            .collect();
    }

    let chunks = realization_chunk_count(params, range.clone());
    let policy = exec::exec_policy();
    let plan = exec::plan_for(d, op.model_entries(), chunks);
    let downgrade = exec::downgrade(policy, &plan, d, chunks);
    if kpm_obs::enabled() {
        kpm_obs::counter_add(&format!("kpm.exec.plan.{}", plan.name()), 1);
        if downgrade.is_some() {
            let name = format!("kpm.exec.downgrade.{}.{}", policy.as_str(), plan.name());
            kpm_obs::counter_add(&name, 1);
        }
    }
    let label = match &downgrade {
        Some(why) => format!("{} ({} downgraded: {why})", plan.name(), policy.as_str()),
        None => plan.name().to_string(),
    };
    let _exec_span = kpm_obs::span_labeled("kpm.exec", &label);
    per_realization_moments_with_plan(op, params, range, plan)
}

/// [`per_realization_moments`] under an explicit `plan`, with no policy
/// lookup and no plan tracing — the scheduler itself, for benches and
/// tests.
///
/// Every plan yields the same bits within its value family: the tiled
/// plans (`Rows`, `Hybrid`) agree bitwise with each other for every
/// thread split, because each tiled column's stream, combine and segment
/// dots depend neither on the block width nor on the worker count.
///
/// # Panics
/// As [`per_realization_moments`].
pub fn per_realization_moments_with_plan<A: TiledOp + Sync>(
    op: &A,
    params: &KpmParams,
    range: std::ops::Range<usize>,
    plan: ExecPlan,
) -> Vec<Vec<f64>> {
    check_range(params, &range);
    let d = op.dim();
    let n = params.num_moments;

    // One set's slice `(s, r_lo..r_hi)` as one D x (r_hi - r_lo) block
    // through the untiled blocked recursion.
    let run_chunk = |(s, rs): &(usize, std::ops::Range<usize>)| -> Vec<Vec<f64>> {
        let block = start_block(params, d, *s, rs);
        let per_column = block_vector_moments(op, &block, rs.len(), n, params.recursion);
        kpm_obs::counter_add("kpm.realizations", rs.len() as u64);
        normalized(per_column, d)
    };

    // Same chunk, but through the row-tiled fused engine: the recursion,
    // the Chebyshev combine, and the moment dots run in one pass per sweep,
    // parallelized across the matrix dimension.
    let run_chunk_tiled = |(s, rs): &(usize, std::ops::Range<usize>),
                           threads: usize,
                           tile_rows: usize|
     -> Vec<Vec<f64>> {
        let k = rs.len();
        let block = start_block(params, d, *s, rs);
        let (per_column, stats) = match params.recursion {
            Recursion::Plain => {
                tiled::fused_block_moments_plain(op, &block, k, n, threads, tile_rows)
            }
            Recursion::Doubling => {
                tiled::fused_block_moments_doubling(op, &block, k, n, threads, tile_rows)
            }
        };
        if kpm_obs::enabled() {
            kpm_obs::counter_add("kpm.exec.tiles", stats.tiles);
            kpm_obs::counter_add("kpm.exec.steal", stats.steals);
            kpm_obs::counter_add("kpm.spmm.sweeps", stats.sweeps);
            kpm_obs::counter_add("kpm.spmm.rows", stats.sweeps * d as u64);
            kpm_obs::counter_add(&format!("kpm.spmm.width.{k}"), stats.sweeps);
        }
        kpm_obs::counter_add("kpm.realizations", k as u64);
        normalized(per_column, d)
    };

    let chunks_of = |run: std::ops::Range<usize>| realization_chunks(params.num_random, run);
    match plan {
        ExecPlan::Serial => chunks_of(range).iter().flat_map(run_chunk).collect(),
        ExecPlan::Realizations => {
            let chunks = chunks_of(range);
            let per_chunk: Vec<Vec<Vec<f64>>> =
                (0..chunks.len()).into_par_iter().map(|i| run_chunk(&chunks[i])).collect();
            per_chunk.into_iter().flatten().collect()
        }
        ExecPlan::Rows { threads, tile_rows } => {
            chunks_of(range).iter().flat_map(|c| run_chunk_tiled(c, threads, tile_rows)).collect()
        }
        ExecPlan::Hybrid { outer, inner, tile_rows } => column_runs(outer, range, |run| {
            chunks_of(run).iter().flat_map(|c| run_chunk_tiled(c, inner, tile_rows)).collect()
        }),
    }
}

/// Cuts `range` into at most `outer` near-equal contiguous runs
/// ([`split_even`] boundaries) and maps `f` over them, one thread per run
/// (the calling thread takes the first), with no synchronization between
/// runs until they are joined. Results are concatenated in run order, so
/// the output — and the canonical realization-order reduction downstream —
/// does not depend on scheduling. The [`ExecPlan::Hybrid`] scheduler; the
/// tuner's probe times it too.
///
/// # Panics
/// Panics if `range` is empty or `outer == 0`; re-raises a run's panic.
pub(crate) fn column_runs<T: Send>(
    outer: usize,
    range: std::ops::Range<usize>,
    f: impl Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let base = range.start;
    let mut runs = split_even(range.len(), outer).into_iter().map(|r| base + r.start..base + r.end);
    let first = runs.next().expect("split_even yields at least one run");
    std::thread::scope(|scope| {
        let f = &f;
        let rest: Vec<_> = runs.map(|run| scope.spawn(move || f(run))).collect();
        let mut out = f(first);
        for handle in rest {
            out.extend(handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// The range checks shared by both moment entry points.
fn check_range(params: &KpmParams, range: &std::ops::Range<usize>) {
    params.validate().expect("invalid KPM parameters");
    assert!(!range.is_empty(), "empty realization range");
    assert!(
        range.end <= params.total_realizations(),
        "range {range:?} exceeds {} total realizations",
        params.total_realizations()
    );
}

/// The `D x rs.len()` start block of set `s`: column `j` is realization
/// `(s, rs.start + j)`'s random vector.
fn start_block(params: &KpmParams, d: usize, s: usize, rs: &std::ops::Range<usize>) -> Vec<f64> {
    let mut block = vec![0.0; d * rs.len()];
    for (j, r) in rs.clone().enumerate() {
        fill_random_vector(params.distribution, params.seed, s, r, &mut block[j * d..(j + 1) * d]);
    }
    block
}

/// Divides raw moments `<r|T_n|r>` by `d`, giving the `mu~_n / D` vectors.
fn normalized(mut per_column: Vec<Vec<f64>>, d: usize) -> Vec<Vec<f64>> {
    let inv_d = 1.0 / d as f64;
    for m in per_column.iter_mut().flatten() {
        *m *= inv_d;
    }
    per_column
}

/// Computes the moments `<r_0|T_n(H~)|r_0>` (not normalized by `D`) for one
/// start vector, by the requested recursion.
///
/// # Panics
/// Panics if `r0.len() != op.dim()` or `num_moments < 2`.
pub fn single_vector_moments<A: LinearOp>(
    op: &A,
    r0: &[f64],
    num_moments: usize,
    recursion: Recursion,
) -> Vec<f64> {
    assert_eq!(r0.len(), op.dim(), "start vector length");
    assert!(num_moments >= 2, "need at least two moments");
    match recursion {
        Recursion::Plain => plain_moments(op, r0, num_moments),
        Recursion::Doubling => doubling_moments(op, r0, num_moments),
    }
}

fn plain_moments<A: LinearOp>(op: &A, r0: &[f64], n: usize) -> Vec<f64> {
    let d = r0.len();
    let mut mu = Vec::with_capacity(n);
    let mut prev = r0.to_vec(); // r_0
    let mut cur = vec![0.0; d]; // r_1
    op.apply(&prev, &mut cur);
    mu.push(vecops::dot(r0, &prev)); // mu~_0
    mu.push(vecops::dot(r0, &cur)); // mu~_1
    let mut scratch = vec![0.0; d];
    for _ in 2..n {
        // r_{n+2} = 2 H r_{n+1} - r_n, reusing `prev` as the output buffer —
        // the same pointer-swap scheme the paper's GPU code uses. The
        // combine and the moment dot run fused in one pass.
        op.apply(&cur, &mut scratch);
        let mu_n = vecops::chebyshev_combine_dot(&scratch, &mut prev, r0);
        std::mem::swap(&mut prev, &mut cur);
        mu.push(mu_n);
    }
    mu
}

fn doubling_moments<A: LinearOp>(op: &A, r0: &[f64], n: usize) -> Vec<f64> {
    let d = r0.len();
    let mut mu = vec![0.0; n];
    let mut prev = r0.to_vec(); // r_{k-1}, starts as r_0
    let mut cur = vec![0.0; d]; // r_k, starts as r_1
    op.apply(&prev, &mut cur);
    let mu0 = vecops::dot(r0, r0);
    let mu1 = vecops::dot(&cur, r0);
    mu[0] = mu0;
    if n > 1 {
        mu[1] = mu1;
    }
    let mut scratch = vec![0.0; d];
    let mut k = 1usize;
    while 2 * k < n {
        // mu_{2k} = 2 <r_k|r_k> - mu_0
        mu[2 * k] = 2.0 * vecops::dot(&cur, &cur) - mu0;
        if 2 * k + 1 < n {
            // r_{k+1} = 2 H r_k - r_{k-1}; the combine is fused with the
            // cross dot <r_{k+1}|r_k> (dotting against `cur` = r_k before the
            // swap — multiplication is commutative, so the product sequence
            // is bitwise the one the unfused path computed).
            op.apply(&cur, &mut scratch);
            let cross = vecops::chebyshev_combine_dot(&scratch, &mut prev, &cur);
            std::mem::swap(&mut prev, &mut cur);
            // mu_{2k+1} = 2 <r_{k+1}|r_k> - mu_1
            mu[2 * k + 1] = 2.0 * cross - mu1;
        }
        k += 1;
    }
    mu
}

/// One blocked matrix sweep, instrumented: `kpm.spmm.sweeps` counts block
/// applications, `kpm.spmm.rows` the rows streamed, and
/// `kpm.spmm.width.<k>` forms a per-block-width histogram in the trace
/// counters.
fn apply_block_counted<A: BlockOp + ?Sized>(op: &A, x: &[f64], y: &mut [f64], k: usize) {
    op.apply_block(x, y, k);
    if kpm_obs::enabled() {
        kpm_obs::counter_add("kpm.spmm.sweeps", 1);
        kpm_obs::counter_add("kpm.spmm.rows", op.dim() as u64);
        kpm_obs::counter_add(&format!("kpm.spmm.width.{k}"), 1);
    }
}

/// Computes the moments `<r_j|T_n(H~)|r_j>` (not normalized by `D`) for all
/// `k` columns of a `D x k` start block in one recursion: each step is a
/// single [`BlockOp::apply_block`] sweep amortized over the whole block.
///
/// Column `j` of the result is bitwise identical to
/// [`single_vector_moments`] on `block[j * D..(j + 1) * D]`: per column the
/// blocked recursion performs exactly the same arithmetic in the same
/// order, and the [`BlockOp`] contract guarantees the same for the operator
/// application.
///
/// # Panics
/// Panics if `block.len() != op.dim() * k`, `k == 0`, or `num_moments < 2`.
pub fn block_vector_moments<A: BlockOp + ?Sized>(
    op: &A,
    block: &[f64],
    k: usize,
    num_moments: usize,
    recursion: Recursion,
) -> Vec<Vec<f64>> {
    assert!(k > 0, "block must have at least one column");
    assert_eq!(block.len(), op.dim() * k, "start block length");
    assert!(num_moments >= 2, "need at least two moments");
    match recursion {
        Recursion::Plain => block_plain_moments(op, block, k, num_moments),
        Recursion::Doubling => block_doubling_moments(op, block, k, num_moments),
    }
}

/// [`block_vector_moments`] with the mixed-precision recursion: every
/// Chebyshev state vector is rounded to f32 storage precision after each
/// step — the paper's single-precision bandwidth saving, modeled on the CPU
/// — while every moment dot still accumulates in f64. Plain recursion only
/// (moment doubling would square the rounding error for the high moments).
///
/// Value-affecting and strictly opt-in: [`per_realization_moments`] only
/// dispatches here under `MomentPrecision::MixedF32`, and the error-budget
/// test in `kpm/tests/exec_plans.rs` pins its deviation from the f64 path
/// on the paper's lattices.
///
/// # Panics
/// Panics if `block.len() != op.dim() * k`, `k == 0`, or `num_moments < 2`.
pub fn block_vector_moments_mixed<A: BlockOp + ?Sized>(
    op: &A,
    block: &[f64],
    k: usize,
    num_moments: usize,
) -> Vec<Vec<f64>> {
    assert!(k > 0, "block must have at least one column");
    assert_eq!(block.len(), op.dim() * k, "start block length");
    assert!(num_moments >= 2, "need at least two moments");
    let d = op.dim();
    let n = num_moments;
    let quantize = |v: &mut [f64]| {
        for x in v.iter_mut() {
            *x = *x as f32 as f64;
        }
    };
    let mut r0 = block.to_vec();
    quantize(&mut r0);
    let mut mu: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
    let mut prev = r0.clone(); // R_0, already at storage precision
    let mut cur = vec![0.0; d * k]; // R_1
    apply_block_counted(op, &prev, &mut cur, k);
    quantize(&mut cur);
    for (j, mu_j) in mu.iter_mut().enumerate() {
        let col = j * d..(j + 1) * d;
        mu_j.push(vecops::dot(&r0[col.clone()], &prev[col.clone()])); // mu~_0
        mu_j.push(vecops::dot(&r0[col.clone()], &cur[col])); // mu~_1
    }
    let mut scratch = vec![0.0; d * k];
    for _ in 2..n {
        apply_block_counted(op, &cur, &mut scratch, k);
        // R_{n+2} = 2 H R_{n+1} - R_n, stored back at f32 precision; the
        // dot against R_0 runs over the rounded state but sums in f64.
        for (p, &s) in prev.iter_mut().zip(scratch.iter()) {
            *p = ((2.0 * s - *p) as f32) as f64;
        }
        for (j, mu_j) in mu.iter_mut().enumerate() {
            let col = j * d..(j + 1) * d;
            mu_j.push(vecops::dot(&r0[col.clone()], &prev[col]));
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    mu
}

fn block_plain_moments<A: BlockOp + ?Sized>(
    op: &A,
    r0: &[f64],
    k: usize,
    n: usize,
) -> Vec<Vec<f64>> {
    let d = op.dim();
    let mut mu: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
    let mut prev = r0.to_vec(); // R_0
    let mut cur = vec![0.0; d * k]; // R_1
    apply_block_counted(op, &prev, &mut cur, k);
    for (j, mu_j) in mu.iter_mut().enumerate() {
        let col = j * d..(j + 1) * d;
        mu_j.push(vecops::dot(&r0[col.clone()], &prev[col.clone()])); // mu~_0
        mu_j.push(vecops::dot(&r0[col.clone()], &cur[col])); // mu~_1
    }
    let mut scratch = vec![0.0; d * k];
    for _ in 2..n {
        // R_{n+2} = 2 H R_{n+1} - R_n for the whole block, reusing `prev`
        // as the output — the paper's Fig. 3 pointer swap, widened to R
        // columns so the matrix is streamed once per step. The combine and
        // the per-column moment dots run fused, one pass per column.
        apply_block_counted(op, &cur, &mut scratch, k);
        for (j, mu_j) in mu.iter_mut().enumerate() {
            let col = j * d..(j + 1) * d;
            mu_j.push(vecops::chebyshev_combine_dot(
                &scratch[col.clone()],
                &mut prev[col.clone()],
                &r0[col],
            ));
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    mu
}

fn block_doubling_moments<A: BlockOp + ?Sized>(
    op: &A,
    r0: &[f64],
    k: usize,
    n: usize,
) -> Vec<Vec<f64>> {
    let d = op.dim();
    let mut mu: Vec<Vec<f64>> = vec![vec![0.0; n]; k];
    let mut prev = r0.to_vec(); // R_{m-1}, starts as R_0
    let mut cur = vec![0.0; d * k]; // R_m, starts as R_1
    apply_block_counted(op, &prev, &mut cur, k);
    let mut mu0 = vec![0.0; k];
    let mut mu1 = vec![0.0; k];
    for j in 0..k {
        let col = j * d..(j + 1) * d;
        mu0[j] = vecops::dot(&r0[col.clone()], &r0[col.clone()]);
        mu1[j] = vecops::dot(&cur[col.clone()], &r0[col]);
        mu[j][0] = mu0[j];
        if n > 1 {
            mu[j][1] = mu1[j];
        }
    }
    let mut scratch = vec![0.0; d * k];
    let mut m = 1usize;
    while 2 * m < n {
        for (j, mu_j) in mu.iter_mut().enumerate() {
            let col = j * d..(j + 1) * d;
            // mu_{2m} = 2 <r_m|r_m> - mu_0
            mu_j[2 * m] = 2.0 * vecops::dot(&cur[col.clone()], &cur[col]) - mu0[j];
        }
        if 2 * m + 1 < n {
            // R_{m+1} = 2 H R_m - R_{m-1}; per column the combine fuses with
            // the cross dot <r_{m+1}|r_m> (against `cur` = R_m before the
            // swap; commutative products, bitwise unchanged).
            apply_block_counted(op, &cur, &mut scratch, k);
            for (j, mu_j) in mu.iter_mut().enumerate() {
                let col = j * d..(j + 1) * d;
                let cross = vecops::chebyshev_combine_dot(
                    &scratch[col.clone()],
                    &mut prev[col.clone()],
                    &cur[col],
                );
                // mu_{2m+1} = 2 <r_{m+1}|r_m> - mu_1
                mu_j[2 * m + 1] = 2.0 * cross - mu1[j];
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        m += 1;
    }
    mu
}

/// Off-diagonal (pair) moments `<l | T_n(H~) | r0>` — the ingredients of
/// matrix-element Green's functions `G_ij(omega)` (feed the result to
/// [`crate::green::evaluate`]). Only the plain recursion applies:
/// the doubling identities require `l == r0`.
///
/// # Panics
/// Panics on dimension mismatch or `num_moments < 2`.
pub fn pair_vector_moments<A: LinearOp>(
    op: &A,
    l: &[f64],
    r0: &[f64],
    num_moments: usize,
) -> Vec<f64> {
    assert_eq!(l.len(), op.dim(), "left vector length");
    assert_eq!(r0.len(), op.dim(), "right vector length");
    assert!(num_moments >= 2, "need at least two moments");
    let d = r0.len();
    let mut mu = Vec::with_capacity(num_moments);
    let mut prev = r0.to_vec();
    let mut cur = vec![0.0; d];
    op.apply(&prev, &mut cur);
    mu.push(vecops::dot(l, &prev));
    mu.push(vecops::dot(l, &cur));
    let mut scratch = vec![0.0; d];
    for _ in 2..num_moments {
        op.apply(&cur, &mut scratch);
        let mu_n = vecops::chebyshev_combine_dot(&scratch, &mut prev, l);
        std::mem::swap(&mut prev, &mut cur);
        mu.push(mu_n);
    }
    mu
}

/// Stochastic trace estimation of the normalized moments
/// `mu_n = Tr[T_n(H~)]/D` over `S * R` random vectors (the paper's step
/// (1)–(3), Fig. 3). Each realization set's `R` vectors advance together as
/// one `D x R` block ([`block_vector_moments`]), so the matrix is streamed
/// once per moment step instead of once per vector. Sets are independent
/// and run in parallel when the dimension is large enough to amortize the
/// fork-join overhead ([`vecops::use_parallel`]); results are reduced in a
/// fixed `(s, r)` order so the output is deterministic for a given seed
/// regardless of thread count — and bitwise identical to the serial,
/// one-vector-at-a-time path.
///
/// The operator must already be rescaled into `[-1, 1]`.
///
/// # Panics
/// Panics if parameters are invalid (call [`KpmParams::validate`] first for
/// a recoverable error).
pub fn stochastic_moments<A: TiledOp + Sync>(op: &A, params: &KpmParams) -> MomentStats {
    params.validate().expect("invalid KPM parameters");
    let _span = kpm_obs::span("kpm.moments");
    // Compute every realization, then run the canonical index-ordered
    // reduction — exactly the two halves a distributed run performs on
    // workers and coordinator, so sharded and single-process results are
    // bitwise identical by construction.
    let per_realization = per_realization_moments(op, params, 0..params.total_realizations());
    MomentStats::merge_realizations(&per_realization)
}

/// Exact moments `mu_n = (1/D) sum_k T_n(e_k)` from a full (already
/// rescaled) spectrum — the ground truth the stochastic estimator is tested
/// against.
///
/// # Panics
/// Panics if any eigenvalue lies outside `[-1, 1]` or the spectrum is empty.
pub fn exact_moments(rescaled_eigenvalues: &[f64], num_moments: usize) -> Vec<f64> {
    assert!(!rescaled_eigenvalues.is_empty(), "spectrum must be nonempty");
    let mut mu = vec![0.0; num_moments];
    for &e in rescaled_eigenvalues {
        assert!(
            (-1.0..=1.0).contains(&e),
            "eigenvalue {e} outside [-1, 1]; rescale the spectrum first"
        );
        // Accumulate T_n(e) by the recursion.
        let mut tm = 1.0;
        let mut tc = e;
        mu[0] += 1.0;
        if num_moments > 1 {
            mu[1] += e;
        }
        for slot in mu.iter_mut().skip(2) {
            let tn = 2.0 * e * tc - tm;
            tm = tc;
            tc = tn;
            *slot += tn;
        }
    }
    let inv = 1.0 / rescaled_eigenvalues.len() as f64;
    for m in mu.iter_mut() {
        *m *= inv;
    }
    mu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chebyshev;
    use kpm_linalg::op::{DiagonalOp, IdentityOp};

    #[test]
    fn params_builder_and_validation() {
        let p = KpmParams::new(128)
            .with_random_vectors(14, 128)
            .with_seed(7)
            .with_recursion(Recursion::Doubling)
            .with_padding(0.02)
            .with_grid_points(512);
        assert_eq!(p.total_realizations(), 1792);
        assert!(p.validate().is_ok());
        assert!(KpmParams::new(1).validate().is_err());
        assert!(KpmParams::new(8).with_random_vectors(0, 1).validate().is_err());
        assert!(KpmParams::new(8).with_grid_points(0).validate().is_err());
        assert!(KpmParams::new(8).with_padding(f64::NAN).validate().is_err());
    }

    #[test]
    fn validate_rejects_too_few_moments_with_specific_variant() {
        assert_eq!(KpmParams::new(0).validate(), Err(KpmError::TooFewMoments { got: 0 }));
        assert_eq!(KpmParams::new(1).validate(), Err(KpmError::TooFewMoments { got: 1 }));
        assert!(KpmParams::new(2).validate().is_ok());
    }

    #[test]
    fn validate_rejects_grid_smaller_than_expansion_order() {
        assert_eq!(
            KpmParams::new(64).with_grid_points(32).validate(),
            Err(KpmError::GridTooSmall { grid_points: 32, num_moments: 64 })
        );
        // Equality is the boundary: a grid exactly as fine as the expansion
        // order is accepted.
        assert!(KpmParams::new(64).with_grid_points(64).validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_finite_padding_with_specific_variant() {
        assert!(matches!(
            KpmParams::new(8).with_padding(f64::NAN).validate(),
            Err(KpmError::NonFinitePadding(eps)) if eps.is_nan()
        ));
        assert_eq!(
            KpmParams::new(8).with_padding(f64::INFINITY).validate(),
            Err(KpmError::NonFinitePadding(f64::INFINITY))
        );
        // Negative-but-finite padding stays an InvalidParameter.
        assert!(matches!(
            KpmParams::new(8).with_padding(-0.1).validate(),
            Err(KpmError::InvalidParameter(_))
        ));
        assert!(KpmParams::new(8).with_padding(0.0).validate().is_ok());
    }

    #[test]
    fn single_vector_moments_on_diagonal_operator() {
        // For H = diag(a) and r0 = e_0 scaled: <r0|T_n(H)|r0> = r0_0^2 T_n(a_0).
        let a = 0.37;
        let op = DiagonalOp::new(vec![a, -0.5]);
        let r0 = vec![2.0, 0.0];
        let mu = single_vector_moments(&op, &r0, 16, Recursion::Plain);
        for (n, &m) in mu.iter().enumerate() {
            assert!((m - 4.0 * chebyshev::t(n, a)).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn doubling_matches_plain() {
        let diag: Vec<f64> = (0..24).map(|i| ((i as f64) * 0.41).sin() * 0.9).collect();
        let op = DiagonalOp::new(diag);
        let mut r0 = vec![0.0; 24];
        fill_random_vector(Distribution::Gaussian, 5, 0, 0, &mut r0);
        for n in [2usize, 3, 7, 8, 33, 64] {
            let plain = single_vector_moments(&op, &r0, n, Recursion::Plain);
            let doubled = single_vector_moments(&op, &r0, n, Recursion::Doubling);
            for i in 0..n {
                assert!(
                    (plain[i] - doubled[i]).abs() < 1e-9 * (1.0 + plain[i].abs()),
                    "n = {n}, i = {i}: {} vs {}",
                    plain[i],
                    doubled[i]
                );
            }
        }
    }

    #[test]
    fn block_recursion_matches_scalar_per_column_bitwise() {
        // The K = 1 case and every wider block must reproduce the scalar
        // recursion bit for bit, for both recursion strategies.
        let d = 24;
        let op = DiagonalOp::new((0..d).map(|i| ((i as f64) * 0.41).sin() * 0.9).collect());
        for recursion in [Recursion::Plain, Recursion::Doubling] {
            for k in [1usize, 2, 5] {
                let mut block = vec![0.0; d * k];
                for (j, col) in block.chunks_exact_mut(d).enumerate() {
                    fill_random_vector(Distribution::Gaussian, 77, 0, j, col);
                }
                let blocked = block_vector_moments(&op, &block, k, 17, recursion);
                for (j, col_mu) in blocked.iter().enumerate() {
                    let scalar =
                        single_vector_moments(&op, &block[j * d..(j + 1) * d], 17, recursion);
                    assert_eq!(col_mu, &scalar, "{recursion:?}, k = {k}, column {j}");
                }
            }
        }
    }

    #[test]
    fn stochastic_block_path_is_bitwise_equal_to_scalar_seed_path() {
        // Replays the historical one-vector-at-a-time driver (loop over
        // idx = s * R + r, scalar recursion, index-ordered Welford) and
        // demands bitwise agreement with the blocked implementation.
        let d = 40;
        let op = DiagonalOp::new((0..d).map(|i| (i as f64 * 0.77).sin() * 0.8).collect());
        let p = KpmParams::new(16)
            .with_random_vectors(4, 3)
            .with_distribution(Distribution::Gaussian)
            .with_seed(13);
        let stats = stochastic_moments(&op, &p);

        let n = p.num_moments;
        let total = p.total_realizations();
        let mut mean = vec![0.0; n];
        let mut m2 = vec![0.0; n];
        for idx in 0..total {
            let (s, r) = (idx / p.num_random, idx % p.num_random);
            let mut r0 = vec![0.0; d];
            fill_random_vector(p.distribution, p.seed, s, r, &mut r0);
            let mut mu = single_vector_moments(&op, &r0, n, p.recursion);
            let inv_d = 1.0 / d as f64;
            for m in mu.iter_mut() {
                *m *= inv_d;
            }
            let count = (idx + 1) as f64;
            for i in 0..n {
                let delta = mu[i] - mean[i];
                mean[i] += delta / count;
                m2[i] += delta * (mu[i] - mean[i]);
            }
        }
        let std_err: Vec<f64> =
            m2.iter().map(|&s| (s / (total as f64 - 1.0)).sqrt() / (total as f64).sqrt()).collect();
        assert_eq!(stats.mean, mean, "blocked driver must match the scalar seed path bitwise");
        assert_eq!(stats.std_err, std_err);
    }

    #[test]
    fn split_even_partitions_exactly() {
        for total in [1usize, 2, 7, 12, 100] {
            for shards in [1usize, 2, 3, 5, 8, 200] {
                let plan = split_even(total, shards);
                assert_eq!(plan.len(), shards.min(total));
                assert_eq!(plan[0].start, 0);
                assert_eq!(plan.last().unwrap().end, total);
                for w in plan.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                for r in &plan {
                    assert!(!r.is_empty(), "no empty shard in {plan:?}");
                }
                // Balanced: lengths differ by at most one.
                let lens: Vec<usize> = plan.iter().map(|r| r.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced plan {plan:?}");
            }
        }
    }

    #[test]
    fn shard_plan_keeps_sets_whole() {
        // The paper's fig. 5 shape (S = 3, R = 14) under a cap of four:
        // one R-wide shard per set, never a piece of one.
        assert_eq!(shard_plan(14, 42, 4), vec![0..14, 14..28, 28..42]);
        // One set of the paper's width stays one shard.
        assert_eq!(shard_plan(14, 14, 4), vec![0..14]);
        // More sets than shards: whole sets, grouped near-evenly.
        assert_eq!(shard_plan(3, 30, 4), vec![0..6, 6..15, 15..21, 21..30]);
        // A wide set is cut, but never below MIN_SHARD_COLS columns.
        assert_eq!(shard_plan(64, 64, 4), vec![0..16, 16..32, 32..48, 48..64]);
        assert_eq!(shard_plan(16, 16, 4), vec![0..8, 8..16]);
        assert_eq!(
            shard_plan(64, 128, 8),
            vec![0..16, 16..32, 32..48, 48..64, 64..80, 80..96, 96..112, 112..128]
        );
        // A short last set counts as a set.
        assert_eq!(shard_plan(4, 10, 8), vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn sharded_per_realization_ranges_merge_bitwise_to_full_run() {
        // Any partition of the index range, merged canonically, must equal
        // the single-pass estimator bit for bit — the distributed-run
        // contract, checked here without any transport in the way.
        let d = 40;
        let op = DiagonalOp::new((0..d).map(|i| (i as f64 * 0.77).sin() * 0.8).collect());
        let p = KpmParams::new(16)
            .with_random_vectors(4, 3)
            .with_distribution(Distribution::Gaussian)
            .with_seed(13);
        let full = stochastic_moments(&op, &p);
        let total = p.total_realizations();
        for shards in [1usize, 2, 3, 5, 7, 12] {
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for range in split_even(total, shards) {
                rows.extend(per_realization_moments(&op, &p, range));
            }
            let merged = MomentStats::merge_realizations(&rows);
            assert_eq!(merged.mean, full.mean, "{shards} shards");
            assert_eq!(merged.std_err, full.std_err, "{shards} shards");
            assert_eq!(merged.samples, full.samples);
        }
    }

    #[test]
    fn per_realization_moments_are_independent_of_range_slicing() {
        // Realization idx has one value no matter which range produced it,
        // even when a range cuts through the middle of a realization set.
        let d = 32;
        let op = DiagonalOp::new((0..d).map(|i| (i as f64 * 0.41).sin() * 0.9).collect());
        let p = KpmParams::new(12)
            .with_random_vectors(5, 2)
            .with_distribution(Distribution::Uniform)
            .with_seed(77);
        let total = p.total_realizations();
        let whole = per_realization_moments(&op, &p, 0..total);
        for (start, end) in [(0usize, 3usize), (2, 7), (4, 10), (9, 10)] {
            let part = per_realization_moments(&op, &p, start..end);
            for (i, row) in part.iter().enumerate() {
                assert_eq!(row, &whole[start + i], "idx {} via {start}..{end}", start + i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty realization range")]
    fn per_realization_moments_reject_empty_range() {
        let op = DiagonalOp::new(vec![0.1, 0.2]);
        let _ = per_realization_moments(&op, &KpmParams::new(4), 3..3);
    }

    #[test]
    fn merge_realizations_single_sample_has_zero_std_err() {
        let merged = MomentStats::merge_realizations(&[vec![1.0, -0.5]]);
        assert_eq!(merged.mean, vec![1.0, -0.5]);
        assert_eq!(merged.std_err, vec![0.0, 0.0]);
        assert_eq!(merged.samples, 1);
    }

    #[test]
    fn identity_moments_are_all_one() {
        // T_n(1) = 1, and Rademacher gives <r|r> = D exactly.
        let op = IdentityOp::new(32);
        // Identity has spectrum {1}: rescaling would be degenerate, so feed
        // a pre-scaled operator directly (spectrum at 1 is allowed edge).
        let params = KpmParams::new(8).with_random_vectors(4, 2);
        let stats = stochastic_moments(&op, &params);
        for (n, &m) in stats.mean.iter().enumerate() {
            assert!((m - 1.0).abs() < 1e-12, "mu_{n} = {m}");
        }
        assert_eq!(stats.samples, 8);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn stochastic_matches_exact_on_diagonal_spectrum() {
        let d = 256;
        let eigs: Vec<f64> = (0..d).map(|i| -0.95 + 1.9 * i as f64 / (d - 1) as f64).collect();
        let op = DiagonalOp::new(eigs.clone());
        let n = 32;
        let exact = exact_moments(&eigs, n);
        let params = KpmParams::new(n).with_random_vectors(16, 8).with_seed(11);
        let stats = stochastic_moments(&op, &params);
        for i in 0..n {
            let tol = 6.0 * stats.std_err[i] + 5e-3;
            assert!(
                (stats.mean[i] - exact[i]).abs() < tol,
                "mu_{i}: {} vs exact {} (err {})",
                stats.mean[i],
                exact[i],
                stats.std_err[i]
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn rademacher_is_exact_on_diagonal_operators() {
        // With xi_i = +-1, <r|T_n(diag)|r> = sum_i xi_i^2 T_n(d_i) is exact:
        // zero variance, independent of the seed. A nice structural check.
        let eigs: Vec<f64> = (0..32).map(|i| (i as f64 * 0.61).sin() * 0.9).collect();
        let op = DiagonalOp::new(eigs.clone());
        let stats = stochastic_moments(&op, &KpmParams::new(12).with_random_vectors(3, 2));
        let exact = exact_moments(&eigs, 12);
        for i in 0..12 {
            assert!((stats.mean[i] - exact[i]).abs() < 1e-12);
            assert!(stats.std_err[i] < 1e-12);
        }
    }

    #[test]
    fn error_bars_shrink_with_more_realizations() {
        // Gaussian vectors (Rademacher would be variance-free on a diagonal
        // operator — see rademacher_is_exact_on_diagonal_operators).
        let d = 64;
        let eigs: Vec<f64> = (0..d).map(|i| (i as f64 / d as f64) * 1.6 - 0.8).collect();
        let op = DiagonalOp::new(eigs);
        let few = stochastic_moments(
            &op,
            &KpmParams::new(16).with_random_vectors(4, 2).with_distribution(Distribution::Gaussian),
        );
        let many = stochastic_moments(
            &op,
            &KpmParams::new(16)
                .with_random_vectors(4, 32)
                .with_distribution(Distribution::Gaussian),
        );
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&many.std_err) < avg(&few.std_err),
            "{} vs {}",
            avg(&many.std_err),
            avg(&few.std_err)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let op = DiagonalOp::new((0..40).map(|i| (i as f64 * 0.77).sin() * 0.8).collect());
        let p = KpmParams::new(24)
            .with_random_vectors(6, 3)
            .with_distribution(Distribution::Gaussian)
            .with_seed(99);
        let a = stochastic_moments(&op, &p);
        let b = stochastic_moments(&op, &p);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std_err, b.std_err);
        let c = stochastic_moments(&op, &p.clone().with_seed(100));
        assert_ne!(a.mean, c.mean);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn gaussian_and_uniform_agree_with_rademacher_within_error() {
        let d = 128;
        let eigs: Vec<f64> = (0..d).map(|i| -0.9 + 1.8 * i as f64 / (d - 1) as f64).collect();
        let op = DiagonalOp::new(eigs.clone());
        let exact = exact_moments(&eigs, 12);
        for dist in [Distribution::Gaussian, Distribution::Uniform] {
            let p = KpmParams::new(12).with_random_vectors(32, 8).with_distribution(dist);
            let stats = stochastic_moments(&op, &p);
            for i in 0..12 {
                let tol = 8.0 * stats.std_err[i] + 1e-2;
                assert!(
                    (stats.mean[i] - exact[i]).abs() < tol,
                    "{dist:?} mu_{i}: {} vs {}",
                    stats.mean[i],
                    exact[i]
                );
            }
        }
    }

    #[test]
    fn truncated_prefix_is_bitwise_equal_to_shorter_run() {
        // The moment-cache contract: mu_0..mu_{n-1} of a longer run are
        // bitwise identical to a fresh run truncated at n.
        let op = DiagonalOp::new((0..48).map(|i| (i as f64 * 0.53).sin() * 0.85).collect());
        for recursion in [Recursion::Plain, Recursion::Doubling] {
            let base = KpmParams::new(40)
                .with_random_vectors(5, 3)
                .with_distribution(Distribution::Gaussian)
                .with_recursion(recursion)
                .with_seed(321);
            let long = stochastic_moments(&op, &base);
            for n in [2usize, 13, 24, 40] {
                let short = stochastic_moments(&op, &KpmParams { num_moments: n, ..base.clone() });
                let cut = long.truncated(n);
                assert_eq!(cut.mean, short.mean, "{recursion:?} mean prefix, n = {n}");
                assert_eq!(cut.std_err, short.std_err, "{recursion:?} std_err prefix, n = {n}");
                assert_eq!(cut.samples, short.samples);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncated_rejects_extension() {
        let stats = MomentStats { mean: vec![1.0; 4], std_err: vec![0.0; 4], samples: 1 };
        let _ = stats.truncated(8);
    }

    #[test]
    fn pair_moments_diagonal_case_matches_single_vector() {
        let op = DiagonalOp::new((0..20).map(|i| (i as f64 * 0.31).sin() * 0.9).collect());
        let mut r0 = vec![0.0; 20];
        fill_random_vector(Distribution::Gaussian, 2, 0, 0, &mut r0);
        let single = single_vector_moments(&op, &r0, 24, Recursion::Plain);
        let pair = pair_vector_moments(&op, &r0, &r0, 24);
        assert_eq!(single, pair, "l = r0 must reduce to the diagonal case");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index spans several arrays in assertions
    fn pair_moments_match_spectral_decomposition() {
        // <i|T_n(H)|j> = sum_k v_ki T_n(e_k) v_kj from exact eigenvectors.
        let h = kpm_lattice::dense_random_symmetric(12, 1.0, 4);
        let b = kpm_linalg::gershgorin::gershgorin_dense(&h).padded(0.01);
        let op = kpm_linalg::op::RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let (eigs, vecs) = kpm_linalg::eigen::jacobi_eigen(&h).unwrap();

        let (i, j) = (2usize, 7usize);
        let mut ei = vec![0.0; 12];
        let mut ej = vec![0.0; 12];
        ei[i] = 1.0;
        ej[j] = 1.0;
        let mu = pair_vector_moments(&op, &ei, &ej, 16);
        for n in 0..16 {
            let exact: f64 = (0..12)
                .map(|k| {
                    let scaled = (eigs[k] - b.a_plus()) / b.a_minus();
                    vecs.get(i, k) * crate::chebyshev::t(n, scaled) * vecs.get(j, k)
                })
                .sum();
            assert!((mu[n] - exact).abs() < 1e-9, "n = {n}: {} vs {exact}", mu[n]);
        }
    }

    #[test]
    fn pair_moments_are_symmetric_in_l_and_r() {
        // H symmetric => <l|T_n(H)|r> = <r|T_n(H)|l>.
        let h = kpm_lattice::dense_random_symmetric(10, 1.0, 6);
        let b = kpm_linalg::gershgorin::gershgorin_dense(&h).padded(0.01);
        let op = kpm_linalg::op::RescaledOp::new(&h, b.a_plus(), b.a_minus());
        let l: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let r: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).cos()).collect();
        let lr = pair_vector_moments(&op, &l, &r, 12);
        let rl = pair_vector_moments(&op, &r, &l, 12);
        for n in 0..12 {
            assert!((lr[n] - rl[n]).abs() < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn exact_moments_of_symmetric_spectrum_kill_odd_orders() {
        let eigs: Vec<f64> = vec![-0.8, -0.3, 0.3, 0.8];
        let mu = exact_moments(&eigs, 10);
        for n in (1..10).step_by(2) {
            assert!(mu[n].abs() < 1e-14, "odd moment mu_{n} = {}", mu[n]);
        }
        assert_eq!(mu[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "outside [-1, 1]")]
    fn exact_moments_reject_unscaled_spectrum() {
        let _ = exact_moments(&[2.0], 4);
    }
}
