//! Execution planning: choosing *how* to parallelize a moments run.
//!
//! The stochastic estimator has two independent axes of parallelism:
//!
//! * **Realizations** — the `R * S` random-vector columns are
//!   embarrassingly parallel (Weiße et al., §II.D). The untiled engine
//!   fans whole realization chunks out (gated on [`vecops::par_min_dim`]);
//!   the tiled [`ExecPlan::Hybrid`] plan gives each thread its own
//!   contiguous run of columns, the CPU analogue of the paper's one thread
//!   block per realization, with no synchronization between runs.
//! * **Rows** — within one realization block, the matrix dimension can be
//!   split into tiles whose fused Chebyshev steps run on the row-tiled
//!   engine ([`kpm_linalg::tiled`]), the CPU analogue of the paper's
//!   in-kernel GPU parallelism. Every step ends at a barrier, which only
//!   pays once a lone chunk leaves nothing else to split.
//!
//! [`plan`] picks a strategy from `(D, chunk count, thread budget)`: from
//! `D >= ROW_MIN_DIM` on, [`ExecPolicy::Auto`] gives every thread its own
//! column run whenever there are at least two chunks and two threads, and
//! row-tiles a lone chunk (one set, as every serve job is) across all
//! threads.
//!
//! # Determinism
//!
//! The *value family* of the result depends only on `(dim, policy,
//! tile rows)` — never on the thread budget or the chunk count:
//!
//! * [`ExecPolicy::Realizations`] (and [`ExecPlan::Serial`]) run the
//!   untiled blocked recursion — bitwise identical to the scalar path.
//! * [`ExecPolicy::Rows`] and [`ExecPolicy::Hybrid`] run the tiled engine,
//!   whose canonical tile-order reduction makes results bitwise independent
//!   of the thread count, and whose per-column arithmetic does not depend
//!   on the block width; Rows and Hybrid are bitwise identical to each
//!   other (they differ only in scheduling).
//! * [`ExecPolicy::Auto`] switches family on `dim` alone
//!   ([`ROW_MIN_DIM`]), so range-sliced shard workers and the single-process
//!   estimator still agree bitwise for every `dim`.
//!
//! An explicit policy that cannot run as asked (realization-parallel below
//! the cutoff, hybrid with one chunk or one thread) falls back to the plan
//! [`plan_with`] documents; [`downgrade`] names why, for the trace.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use kpm_linalg::vecops;

/// Smallest operator dimension at which the tiled row-parallel engine is
/// worth its barrier overhead under [`ExecPolicy::Auto`]. Below this even a
/// single tile is only a few microseconds of work per sweep.
pub const ROW_MIN_DIM: usize = 512;

/// User-facing execution-policy selector (the CLI's `--exec` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Choose per run from `(D, chunks, threads)`: row/hybrid parallelism
    /// for `D >= ROW_MIN_DIM`, the historical realization-parallel behavior
    /// otherwise.
    #[default]
    Auto,
    /// Realization-level parallelism only (the historical engine; untiled,
    /// bitwise identical to the scalar recursion).
    Realizations,
    /// Row-tiled parallelism within each realization chunk; chunks run one
    /// after another.
    Rows,
    /// One contiguous run of realization columns per thread, each run
    /// row-tiled on its own share of the threads, with no barrier between
    /// runs.
    Hybrid,
}

impl ExecPolicy {
    /// Canonical lower-case name (also the CLI token).
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecPolicy::Auto => "auto",
            ExecPolicy::Realizations => "realizations",
            ExecPolicy::Rows => "rows",
            ExecPolicy::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ExecPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(ExecPolicy::Auto),
            "realizations" => Ok(ExecPolicy::Realizations),
            "rows" => Ok(ExecPolicy::Rows),
            "hybrid" => Ok(ExecPolicy::Hybrid),
            other => Err(format!("unknown exec policy '{other}' (auto|realizations|rows|hybrid)")),
        }
    }
}

// Process-wide execution configuration. Serve workers, shard compute
// threads and the CLI all funnel through `stochastic_moments`, so a global
// (set once at startup) is the least invasive way to thread the choice
// everywhere without changing every signature.
static POLICY: AtomicU8 = AtomicU8::new(0); // discriminants of ExecPolicy
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0); // 0 = auto-detect

fn policy_to_u8(p: ExecPolicy) -> u8 {
    match p {
        ExecPolicy::Auto => 0,
        ExecPolicy::Realizations => 1,
        ExecPolicy::Rows => 2,
        ExecPolicy::Hybrid => 3,
    }
}

/// Sets the process-wide execution policy (e.g. from `--exec`).
pub fn set_exec_policy(p: ExecPolicy) {
    POLICY.store(policy_to_u8(p), Ordering::Relaxed);
}

/// The current process-wide execution policy.
pub fn exec_policy() -> ExecPolicy {
    match POLICY.load(Ordering::Relaxed) {
        1 => ExecPolicy::Realizations,
        2 => ExecPolicy::Rows,
        3 => ExecPolicy::Hybrid,
        _ => ExecPolicy::Auto,
    }
}

/// Sets the process-wide thread budget (e.g. from `--threads`); `0` restores
/// auto-detection.
pub fn set_thread_budget(threads: usize) {
    THREAD_BUDGET.store(threads, Ordering::Relaxed);
}

/// The thread budget in effect: the explicit [`set_thread_budget`] value if
/// set, else `RAYON_NUM_THREADS` (read once), else the machine parallelism —
/// always capped at the machine parallelism, because oversubscribing the
/// barrier-synchronized tile engine can only add scheduling latency, never
/// throughput (and the results are bitwise identical either way).
pub fn effective_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let budget = THREAD_BUDGET.load(Ordering::Relaxed);
    if budget > 0 {
        return budget.min(cores);
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    (*ENV.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(cores)
    }))
    .min(cores)
}

/// The `KPM_TILE_ROWS` environment override, if set *and valid*. Read once;
/// `0`, empty, and non-numeric values are rejected with a one-line stderr
/// warning (via [`vecops::positive_env_override`]) and treated as unset.
pub fn env_tile_rows() -> Option<usize> {
    static CACHED: OnceLock<Option<usize>> = OnceLock::new();
    *CACHED.get_or_init(|| vecops::positive_env_override("KPM_TILE_ROWS"))
}

/// Tile height used by the row-parallel plans when no calibrated profile is
/// in play: `KPM_TILE_ROWS` (validated, read once) or
/// [`kpm_linalg::DEFAULT_TILE_ROWS`].
pub fn tile_rows() -> usize {
    resolve_tile_rows(None)
}

/// Resolves the tile height with the documented precedence:
/// **environment override > calibrated profile > built-in prior.** The
/// profile value is what the autotuner measured as fastest; an explicit
/// `KPM_TILE_ROWS` always wins over it (the operator said so), and the
/// [`kpm_linalg::DEFAULT_TILE_ROWS`] prior backs both.
pub fn resolve_tile_rows(profile: Option<usize>) -> usize {
    env_tile_rows().or(profile).unwrap_or(kpm_linalg::DEFAULT_TILE_ROWS)
}

/// Arithmetic precision of the moments recursion.
///
/// `F64` is the default and the only value family the determinism contract
/// covers. `MixedF32` stores the recursion vectors in f32 (rounding each
/// Chebyshev step to storage precision) while accumulating every moment dot
/// in f64 — the paper's single-precision bandwidth win, modeled on the CPU.
/// It is value-affecting and therefore strictly opt-in; the error-budget
/// test in `kpm/tests/exec_plans.rs` pins its deviation from the f64 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MomentPrecision {
    /// Full f64 recursion (default).
    #[default]
    F64,
    /// f32 recursion state, f64 dot accumulation (opt-in).
    MixedF32,
}

impl MomentPrecision {
    /// Canonical lower-case name (also the CLI token).
    pub fn as_str(&self) -> &'static str {
        match self {
            MomentPrecision::F64 => "f64",
            MomentPrecision::MixedF32 => "mixed",
        }
    }
}

impl std::str::FromStr for MomentPrecision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f64" | "double" => Ok(MomentPrecision::F64),
            "mixed" | "mixed-f32" => Ok(MomentPrecision::MixedF32),
            other => Err(format!("unknown precision '{other}' (expected f64|mixed)")),
        }
    }
}

static PRECISION: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide moments precision (e.g. from `--precision`).
pub fn set_moments_precision(p: MomentPrecision) {
    PRECISION.store(p as u8, Ordering::Relaxed);
}

/// The moments precision in effect (default [`MomentPrecision::F64`]).
pub fn moments_precision() -> MomentPrecision {
    match PRECISION.load(Ordering::Relaxed) {
        1 => MomentPrecision::MixedF32,
        _ => MomentPrecision::F64,
    }
}

/// The concrete schedule [`plan`] resolved for one moments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPlan {
    /// Untiled recursion, chunks in sequence on the calling thread.
    Serial,
    /// Untiled recursion, chunks fanned out realization-parallel.
    Realizations,
    /// Tiled fused recursion inside each chunk; chunks in sequence.
    Rows {
        /// Worker threads per chunk.
        threads: usize,
        /// Tile height in rows.
        tile_rows: usize,
    },
    /// Tiled fused recursion over `outer` contiguous realization-column
    /// runs at once, each on its own thread group.
    Hybrid {
        /// Column runs in flight at once.
        outer: usize,
        /// Worker threads inside each run.
        inner: usize,
        /// Tile height in rows.
        tile_rows: usize,
    },
}

impl ExecPlan {
    /// Canonical plan name for counters and trace labels.
    pub fn name(&self) -> &'static str {
        match self {
            ExecPlan::Serial => "serial",
            ExecPlan::Realizations => "realizations",
            ExecPlan::Rows { .. } => "rows",
            ExecPlan::Hybrid { .. } => "hybrid",
        }
    }

    /// Whether this plan runs the tiled engine (the tiled value family) as
    /// opposed to the untiled blocked recursion.
    pub fn is_tiled(&self) -> bool {
        matches!(self, ExecPlan::Rows { .. } | ExecPlan::Hybrid { .. })
    }
}

/// The historical dispatch: realization-parallel iff the dimension clears
/// [`vecops::par_min_dim`] and there is more than one chunk.
fn untiled(dim: usize, chunks: usize) -> ExecPlan {
    if vecops::use_parallel(dim) && chunks > 1 {
        ExecPlan::Realizations
    } else {
        ExecPlan::Serial
    }
}

/// Resolves the execution plan for a moments run over `chunks` realization
/// chunks of a `dim`-dimensional operator, using [`exec_policy`] /
/// [`effective_threads`] / [`tile_rows`].
///
/// The choice of value family (tiled vs untiled) is a pure function of
/// `(dim, policy, tile rows)`: under [`ExecPolicy::Auto`] the family
/// switches on `dim >= ROW_MIN_DIM` alone, so slicing the realization range
/// differently (shard workers!) or changing the thread budget can never
/// change a single bit of the result.
pub fn plan(dim: usize, chunks: usize) -> ExecPlan {
    plan_with(exec_policy(), dim, chunks, effective_threads(), tile_rows())
}

/// [`plan`], but consulting the calibrated profile store first.
///
/// Under [`ExecPolicy::Auto`] this looks up the measured [`crate::tune`]
/// profile for `(dim, model entries, chunks, threads)` and uses its plan
/// when one exists; the static heuristic in [`plan_with`] is demoted to the
/// cold-start prior. Any explicit `--exec` policy (non-`Auto`) bypasses the
/// store entirely — the operator's word beats the tuner's. Profiles only
/// ever tune *within* the value family `Auto` would pick for `dim` (the
/// store refuses family-crossing entries), so calibration can never change
/// a bit of the result.
pub fn plan_for(dim: usize, model_entries: usize, chunks: usize) -> ExecPlan {
    let policy = exec_policy();
    let threads = effective_threads();
    if policy == ExecPolicy::Auto {
        if let Some(plan) = crate::tune::calibrated_plan(dim, model_entries, chunks, threads) {
            return plan;
        }
    }
    plan_with(policy, dim, chunks, threads, tile_rows())
}

/// [`plan`] with every input explicit — the deterministic core, also used
/// directly by benches and tests.
///
/// * `Realizations` — the historical untiled dispatch: realization-parallel
///   iff `dim` clears [`vecops::par_min_dim`] and there are two chunks,
///   else `Serial`.
/// * `Rows` — every chunk in turn, row-tiled across all `threads`.
/// * `Hybrid` — `Hybrid { outer: threads, inner: 1 }`: each thread runs
///   its own contiguous run of realization columns. With one chunk or one
///   thread there is nothing to split, and it runs as `Rows`.
/// * `Auto` — below [`ROW_MIN_DIM`] the `Realizations` dispatch (tiles would
///   be pure overhead, and small-D results stay bitwise identical to
///   previous releases); above it, `Hybrid` when `chunks >= 2` and
///   `threads >= 2`, else `Rows`. A lone chunk stays on `Rows`: halving a
///   14-column set only ties row tiling on the paper's lattice.
pub fn plan_with(
    policy: ExecPolicy,
    dim: usize,
    chunks: usize,
    threads: usize,
    tile_rows: usize,
) -> ExecPlan {
    let threads = threads.max(1);
    match policy {
        ExecPolicy::Realizations => untiled(dim, chunks),
        ExecPolicy::Auto if dim < ROW_MIN_DIM => untiled(dim, chunks),
        ExecPolicy::Rows => ExecPlan::Rows { threads, tile_rows },
        ExecPolicy::Hybrid | ExecPolicy::Auto => {
            if chunks >= 2 && threads >= 2 {
                ExecPlan::Hybrid { outer: threads, inner: 1, tile_rows }
            } else {
                ExecPlan::Rows { threads, tile_rows }
            }
        }
    }
}

/// Why an explicit `policy` resolved to a plan of another name, or `None`
/// when it ran as asked (`Auto` never downgrades: it asks for nothing in
/// particular). [`crate::moments::per_realization_moments`] counts each
/// downgrade as `kpm.exec.downgrade.<requested>.<resolved>` and puts the
/// reason on the `kpm.exec` span label.
pub fn downgrade(policy: ExecPolicy, plan: &ExecPlan, dim: usize, chunks: usize) -> Option<String> {
    if policy == ExecPolicy::Auto || policy.as_str() == plan.name() {
        return None;
    }
    Some(match plan {
        ExecPlan::Serial if !vecops::use_parallel(dim) => {
            format!("dim {dim} < par_min_dim {}", vecops::par_min_dim())
        }
        ExecPlan::Rows { threads: 1, .. } if chunks >= 2 => "one thread".to_string(),
        _ => "one chunk".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TR: usize = 128;

    #[test]
    fn policy_parsing_roundtrips() {
        for p in [ExecPolicy::Auto, ExecPolicy::Realizations, ExecPolicy::Rows, ExecPolicy::Hybrid]
        {
            assert_eq!(p.as_str().parse::<ExecPolicy>().unwrap(), p);
        }
        assert!("gpu".parse::<ExecPolicy>().is_err());
    }

    #[test]
    fn realizations_policy_reproduces_historical_dispatch() {
        // Small D or a single chunk: serial. Large D with chunks: parallel.
        assert_eq!(plan_with(ExecPolicy::Realizations, 1000, 8, 8, TR), ExecPlan::Serial);
        assert_eq!(plan_with(ExecPolicy::Realizations, 1 << 20, 1, 8, TR), ExecPlan::Serial);
        assert_eq!(plan_with(ExecPolicy::Realizations, 1 << 20, 8, 8, TR), ExecPlan::Realizations);
    }

    #[test]
    fn auto_keeps_tiny_operators_on_the_historical_path() {
        assert_eq!(plan_with(ExecPolicy::Auto, 256, 8, 8, TR), ExecPlan::Serial);
    }

    #[test]
    fn auto_rows_for_single_fat_chunk() {
        assert_eq!(
            plan_with(ExecPolicy::Auto, 110_592, 1, 8, TR),
            ExecPlan::Rows { threads: 8, tile_rows: TR }
        );
    }

    #[test]
    fn auto_hybrid_splits_the_budget() {
        // One column run per thread, whatever the chunk count.
        for chunks in [2, 10] {
            assert_eq!(
                plan_with(ExecPolicy::Auto, 1000, chunks, 8, TR),
                ExecPlan::Hybrid { outer: 8, inner: 1, tile_rows: TR }
            );
        }
    }

    #[test]
    fn auto_rows_when_threads_too_few_to_split() {
        // Two threads are enough to split (the paper's fig5 shape: three
        // sets); one thread or one chunk leaves nothing to split.
        assert_eq!(
            plan_with(ExecPolicy::Auto, 1000, 3, 2, TR),
            ExecPlan::Hybrid { outer: 2, inner: 1, tile_rows: TR }
        );
        assert_eq!(
            plan_with(ExecPolicy::Auto, 1000, 10, 1, TR),
            ExecPlan::Rows { threads: 1, tile_rows: TR }
        );
        assert_eq!(
            plan_with(ExecPolicy::Auto, 1000, 1, 2, TR),
            ExecPlan::Rows { threads: 2, tile_rows: TR }
        );
    }

    #[test]
    fn explicit_hybrid_runs_as_auto_and_degenerates_to_rows() {
        for (chunks, threads) in [(3, 2), (10, 8), (1, 2), (3, 1)] {
            assert_eq!(
                plan_with(ExecPolicy::Hybrid, 256, chunks, threads, TR),
                plan_with(ExecPolicy::Auto, 1000, chunks, threads, TR)
            );
        }
    }

    #[test]
    fn downgrades_name_the_reason() {
        let resolve = |policy, dim, chunks, threads| {
            let plan = plan_with(policy, dim, chunks, threads, TR);
            (plan.name(), downgrade(policy, &plan, dim, chunks))
        };
        let below = format!("dim 1000 < par_min_dim {}", vecops::par_min_dim());
        assert_eq!(resolve(ExecPolicy::Realizations, 1000, 3, 2), ("serial", Some(below)));
        assert_eq!(
            resolve(ExecPolicy::Realizations, 1 << 20, 1, 2),
            ("serial", Some("one chunk".into()))
        );
        assert_eq!(resolve(ExecPolicy::Hybrid, 1000, 1, 2), ("rows", Some("one chunk".into())));
        assert_eq!(resolve(ExecPolicy::Hybrid, 1000, 3, 1), ("rows", Some("one thread".into())));
        assert_eq!(resolve(ExecPolicy::Hybrid, 1000, 3, 2), ("hybrid", None));
        assert_eq!(resolve(ExecPolicy::Realizations, 1 << 20, 3, 2), ("realizations", None));
        assert_eq!(resolve(ExecPolicy::Auto, 1000, 1, 2), ("rows", None));
    }

    #[test]
    fn family_is_independent_of_chunks_and_threads() {
        // The tiled-vs-untiled family for a given (policy, dim) must not
        // change with chunk count or thread budget — shard range-slicing
        // bitwise contracts rest on this.
        for policy in
            [ExecPolicy::Auto, ExecPolicy::Realizations, ExecPolicy::Rows, ExecPolicy::Hybrid]
        {
            for dim in [4, 256, 512, 1000, 1 << 20] {
                let family = plan_with(policy, dim, 1, 1, TR).is_tiled();
                for chunks in [1, 2, 7, 64] {
                    for threads in [1, 2, 8, 32] {
                        assert_eq!(
                            plan_with(policy, dim, chunks, threads, TR).is_tiled(),
                            family,
                            "{policy} dim={dim} chunks={chunks} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_names_are_stable() {
        assert_eq!(ExecPlan::Serial.name(), "serial");
        assert_eq!(ExecPlan::Realizations.name(), "realizations");
        assert_eq!(ExecPlan::Rows { threads: 2, tile_rows: TR }.name(), "rows");
        assert_eq!(ExecPlan::Hybrid { outer: 2, inner: 2, tile_rows: TR }.name(), "hybrid");
        assert!(!ExecPlan::Serial.is_tiled());
        assert!(ExecPlan::Rows { threads: 1, tile_rows: TR }.is_tiled());
    }
}
