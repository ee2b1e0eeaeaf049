//! Worker pool: pulls jobs off the queue, executes them with panic
//! isolation, per-attempt timeout, and bounded exponential-backoff retry.
//!
//! Each compute attempt runs on a dedicated child thread behind
//! `catch_unwind`, so an injected (or real) panic marks the *job* failed
//! while the worker — and the pool — survives. A timed-out attempt is
//! abandoned (the child thread finishes into a dropped channel) and either
//! retried or reported as [`JobError::TimedOut`]. Only panics and timeouts
//! are retryable; KPM/engine errors are deterministic and fail immediately.

use crate::cache::{CachedMoments, Lookup, MomentCache};
use crate::job::{Backend, Fault, JobMatrix, JobSpec};
use crate::metrics::{bump, Metrics};
use crate::queue::{JobId, JobQueue};
use crate::{CacheStatus, JobOutcome, JobRecord, JobSuccess};
use kpm::prelude::*;
use kpm_stream::StreamKpmEngine;
use kpm_streamsim::GpuSpec;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a job (or one attempt of it) failed.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The compute step panicked (caught; pool unaffected).
    Panicked(String),
    /// The attempt exceeded the per-job timeout.
    TimedOut(Duration),
    /// KPM pipeline error (bad parameters, degenerate spectrum...).
    Kpm(String),
    /// Stream-engine error (device memory, launch...).
    Engine(String),
}

impl JobError {
    /// Whether another attempt could plausibly succeed.
    pub fn retryable(&self) -> bool {
        matches!(self, JobError::Panicked(_) | JobError::TimedOut(_))
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "panicked: {msg}"),
            JobError::TimedOut(t) => write!(f, "timed out after {t:?}"),
            JobError::Kpm(e) => write!(f, "kpm: {e}"),
            JobError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<KpmError> for JobError {
    fn from(e: KpmError) -> Self {
        JobError::Kpm(e.to_string())
    }
}

/// Retry/timeout policy for one worker.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPolicy {
    /// Wall-clock budget per attempt.
    pub timeout: Duration,
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// First backoff delay; doubles each retry.
    pub backoff_base: Duration,
}

pub(crate) struct WorkerContext {
    pub queue: Arc<JobQueue>,
    pub cache: Arc<MomentCache>,
    pub metrics: Arc<Metrics>,
    pub results: Arc<Mutex<BTreeMap<JobId, JobRecord>>>,
    pub policy: WorkerPolicy,
    pub engine: Option<Arc<dyn crate::MomentEngine>>,
    pub on_complete: Option<crate::CompletionHook>,
}

/// Worker main loop: drain the queue until it closes.
pub(crate) fn run_worker(ctx: Arc<WorkerContext>) {
    while let Some(job) = ctx.queue.pop() {
        ctx.metrics.queue_wait.record(job.enqueued.elapsed());
        let busy_start = Instant::now();
        let mut record = {
            let _span = if kpm_obs::enabled() {
                kpm_obs::span_labeled("serve.job", &job.spec.canonical())
            } else {
                kpm_obs::span("serve.job")
            };
            process(&ctx, job.id, &job.spec)
        };
        ctx.metrics.record_busy(busy_start.elapsed());
        match &record.outcome {
            JobOutcome::Completed(_) => bump(&ctx.metrics.completed),
            JobOutcome::Failed { .. } => bump(&ctx.metrics.failed),
            JobOutcome::Cancelled => bump(&ctx.metrics.cancelled),
        }
        // Deliver the terminal record to the front-end hook before it lands
        // in the report map; the hook contract (see [`crate::CompletionHook`])
        // is non-blocking handoff.
        if let Some(hook) = &ctx.on_complete {
            hook(&record);
            // The hook has delivered the moments and the report renders
            // only the summary: a long-running front-end must not hold
            // every job's moments, or its memory grows with each job.
            if let JobOutcome::Completed(s) = &mut record.outcome {
                s.moments.mean = Vec::new();
                s.moments.std_err = Vec::new();
            }
        }
        ctx.results.lock().expect("results lock").insert(job.id, record);
    }
}

fn process(ctx: &WorkerContext, id: JobId, spec: &JobSpec) -> JobRecord {
    let key = spec.cache_key();
    let n = spec.num_moments;
    let started = Instant::now();

    let (cached, cache_status) = match ctx.cache.lookup(key, n) {
        Lookup::Hit(hit) => {
            bump(&ctx.metrics.cache_hits);
            (Some(hit), CacheStatus::Hit)
        }
        Lookup::Stale { .. } => {
            bump(&ctx.metrics.cache_misses);
            (None, CacheStatus::Upgrade)
        }
        Lookup::Miss => {
            bump(&ctx.metrics.cache_misses);
            (None, CacheStatus::Miss)
        }
    };

    let moments = match cached {
        Some(hit) => Ok(hit),
        None => {
            // Count where uncached work actually lands (cache hits execute
            // on no device at all).
            match spec.device {
                kpm::DeviceSpec::Host => bump(&ctx.metrics.device_host),
                kpm::DeviceSpec::Sim { .. } => bump(&ctx.metrics.device_sim),
            }
            compute_with_retry(ctx, spec, key, cache_status)
        }
    };

    let outcome = match moments {
        Err((error, attempts)) => JobOutcome::Failed { error: error.to_string(), attempts },
        Ok(hit) => {
            let dos = match DosEstimator::new(spec.kpm_params()).reconstruct(
                hit.stats,
                hit.a_plus,
                hit.a_minus,
            ) {
                Ok(dos) => dos,
                Err(e) => {
                    return JobRecord {
                        id,
                        spec_line: spec.canonical(),
                        outcome: JobOutcome::Failed {
                            error: JobError::from(e).to_string(),
                            attempts: 1,
                        },
                    };
                }
            };
            let wrote = spec.out.clone();
            if let Some(path) = &wrote {
                if let Err(e) = write_dos_csv(path, &dos) {
                    return JobRecord {
                        id,
                        spec_line: spec.canonical(),
                        outcome: JobOutcome::Failed {
                            error: format!("writing {path}: {e}"),
                            attempts: 1,
                        },
                    };
                }
            }
            JobOutcome::Completed(JobSuccess {
                num_moments: n,
                dim: spec.model.dim(),
                integral: dos.integrate(),
                peak_energy: dos.peak_energy(),
                moments: dos.moments,
                a_plus: hit.a_plus,
                a_minus: hit.a_minus,
                cache: cache_status,
                duration: started.elapsed(),
                wrote,
            })
        }
    };
    JobRecord { id, spec_line: spec.canonical(), outcome }
}

/// Runs the uncached compute path with the retry policy; on success the
/// cache is inserted/upgraded and the (requested-order) moments returned.
fn compute_with_retry(
    ctx: &WorkerContext,
    spec: &JobSpec,
    key: u64,
    status: CacheStatus,
) -> Result<CachedMoments, (JobError, u32)> {
    let policy = ctx.policy;
    let mut attempt = 0;
    loop {
        let t0 = Instant::now();
        match run_attempt_with(spec, attempt, policy.timeout, ctx.engine.clone()) {
            Ok((stats, a_plus, a_minus)) => {
                ctx.metrics.exec_time.record(t0.elapsed());
                let report = ctx.cache.insert(key, stats.clone(), a_plus, a_minus);
                if report.upgraded || status == CacheStatus::Upgrade {
                    bump(&ctx.metrics.cache_upgrades);
                }
                for _ in 0..report.evicted {
                    bump(&ctx.metrics.cache_evictions);
                }
                return Ok(CachedMoments { stats, a_plus, a_minus });
            }
            Err(error) => {
                match &error {
                    JobError::Panicked(_) => bump(&ctx.metrics.panicked),
                    JobError::TimedOut(_) => bump(&ctx.metrics.timed_out),
                    _ => {}
                }
                if error.retryable() && attempt < policy.max_retries {
                    bump(&ctx.metrics.retried);
                    std::thread::sleep(policy.backoff_base * 2u32.pow(attempt));
                    attempt += 1;
                } else {
                    return Err((error, attempt + 1));
                }
            }
        }
    }
}

/// Thread name marking compute attempts, so the process-global panic hook
/// can tell an isolated (caught, reported) job panic from a real one.
pub(crate) const COMPUTE_THREAD: &str = "kpm-serve-compute";

/// Replaces the default panic hook with one that stays silent for
/// [`COMPUTE_THREAD`] threads — their panics are caught by [`run_attempt`]
/// and surface in the job record, so the default stderr backtrace would
/// only be noise on the serving surface. All other threads keep the
/// previous hook's behaviour. Installed once per process.
pub(crate) fn silence_compute_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name() != Some(COMPUTE_THREAD) {
                previous(info);
            }
        }));
    });
}

/// One attempt on a sacrificial thread — panic-isolated and time-bounded —
/// with an optional [`crate::MomentEngine`] replacing the local compute
/// path; the isolation machinery is identical either way, so an engine
/// panic still fails only the job, never the pool.
fn run_attempt_with(
    spec: &JobSpec,
    attempt: u32,
    timeout: Duration,
    engine: Option<Arc<dyn crate::MomentEngine>>,
) -> Result<(MomentStats, f64, f64), JobError> {
    let (tx, rx) = mpsc::channel();
    let spec = spec.clone();
    std::thread::Builder::new()
        .name(COMPUTE_THREAD.into())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| match &engine {
                Some(e) => e.compute(&spec, attempt),
                None => compute_raw_moments(&spec, attempt),
            }));
            let _ = tx.send(result);
        })
        .expect("spawn compute thread");
    match rx.recv_timeout(timeout) {
        Ok(Ok(result)) => result,
        // `&*` reaches the payload itself; a bare `&payload` would coerce
        // the Box into the `dyn Any` and every downcast would miss.
        Ok(Err(payload)) => Err(JobError::Panicked(panic_message(&*payload))),
        Err(RecvTimeoutError::Timeout) => Err(JobError::TimedOut(timeout)),
        // The child died without sending — treat like a panic.
        Err(RecvTimeoutError::Disconnected) => {
            Err(JobError::Panicked("compute thread vanished".into()))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The uncached compute path: build the Hamiltonian and run the stochastic
/// moment pipeline on the selected backend. Mirrors `kpm dos` exactly
/// (bounds → padded rescale → `stochastic_moments`), so batch results are
/// bitwise identical to one-shot CLI runs with the same spec and seed.
///
/// Public so correctness tests can compare cache-mediated results against
/// the direct path.
///
/// # Errors
/// [`JobError`] on KPM or engine failures (faults surface as panics, which
/// the caller isolates).
pub fn compute_raw_moments(
    spec: &JobSpec,
    attempt: u32,
) -> Result<(MomentStats, f64, f64), JobError> {
    match spec.fault {
        Some(Fault::Panic) => panic!("injected fault: panic"),
        Some(Fault::Flaky { until }) if attempt < until => {
            panic!("injected fault: flaky attempt {attempt}")
        }
        Some(Fault::SleepMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        _ => {}
    }
    let params = spec.kpm_params();
    params.validate()?;
    let matrix = spec.build_matrix();
    // Declare the operator identity for the bounds memo: repeat jobs on one
    // operator (any moments/kernel/seed) resolve spectral bounds from the
    // per-process cache instead of recomputing Gershgorin or re-running a
    // Lanczos probe.
    let _bounds_scope = kpm::OpKeyScope::enter(spec.op_key());
    match spec.backend {
        // The CPU backend submits through the job's device: `host` runs the
        // tiled engine directly, `sim[:n]` runs the identical functional
        // pipeline and additionally prices the run on the event-queue
        // device model — the numbers are bitwise equal either way.
        Backend::Cpu => {
            let device = spec.device.build();
            // Resolve (or probe) the calibrated execution profile for this
            // operator shape before the moments run: jobs sharing an
            // operator hash share a shape, so the first worker probes and
            // every later one hits the store (`kpm.tune.hit`) instead of
            // re-measuring. The rescaled wrapper forwards dim and entry
            // counts, so profiling the raw operator keys identically.
            let chunks =
                kpm::moments::realization_chunk_count(&params, 0..params.total_realizations());
            let run = match &matrix {
                JobMatrix::Sparse(h) => {
                    kpm::tune::ensure_profile(h, chunks);
                    device.submit(kpm::DeviceOp::Sparse(h), &params)?
                }
                JobMatrix::Dense(h) => {
                    kpm::tune::ensure_profile(h, chunks);
                    device.submit(kpm::DeviceOp::Dense(h), &params)?
                }
            };
            Ok((run.moments, run.a_plus, run.a_minus))
        }
        Backend::Stream => {
            let mut engine = StreamKpmEngine::new(GpuSpec::tesla_c2050());
            let result = match &matrix {
                // The stream engine models CSR transfers, so materialize
                // whatever format the spec chose as concrete CSR storage.
                JobMatrix::Sparse(h) => engine.compute_moments_csr(&h.to_csr(), &params),
                JobMatrix::Dense(h) => engine.compute_moments_dense(h, &params),
            }
            .map_err(|e| JobError::Engine(e.to_string()))?;
            Ok((result.moments, result.a_plus, result.a_minus))
        }
    }
}

fn write_dos_csv(path: &str, dos: &kpm::Dos) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "energy,rho")?;
    for (e, r) in dos.energies.iter().zip(&dos.rho) {
        writeln!(f, "{e},{r}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(line: &str) -> JobSpec {
        JobSpec::parse(line).unwrap()
    }

    fn run_attempt(
        spec: &JobSpec,
        attempt: u32,
        timeout: Duration,
    ) -> Result<(MomentStats, f64, f64), JobError> {
        run_attempt_with(spec, attempt, timeout, None)
    }

    #[test]
    fn cpu_and_direct_pipeline_agree() {
        // compute_raw_moments must match the DosEstimator pipeline bitwise.
        let job = spec("lattice=chain:32 moments=24 random=3 sets=2 seed=5");
        let (stats, a_plus, a_minus) = compute_raw_moments(&job, 0).unwrap();
        let JobMatrix::Sparse(h) = job.build_matrix() else { panic!("expected sparse") };
        let dos = kpm::DosEstimator::new(job.kpm_params()).compute(&h).unwrap();
        assert_eq!(stats.mean, dos.moments.mean);
        assert_eq!((a_plus, a_minus), (dos.a_plus, dos.a_minus));
    }

    #[test]
    fn sim_device_matches_host_device_bitwise() {
        // The sim backend runs the identical functional pipeline; only the
        // clock differs — the contract that lets the cache mask the device.
        let host = spec("lattice=chain:32 moments=24 random=3 sets=2 seed=5");
        let sim = spec("lattice=chain:32 moments=24 random=3 sets=2 seed=5 device=sim:4");
        let (a, a_plus, a_minus) = compute_raw_moments(&host, 0).unwrap();
        let (b, b_plus, b_minus) = compute_raw_moments(&sim, 0).unwrap();
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std_err, b.std_err);
        assert_eq!((a_plus, a_minus), (b_plus, b_minus));
        assert_eq!(host.cache_key(), sim.cache_key());
    }

    #[test]
    fn stream_backend_produces_moments() {
        let job = spec("lattice=chain:24 moments=16 random=2 sets=1 backend=stream");
        let (stats, _, a_minus) = compute_raw_moments(&job, 0).unwrap();
        assert_eq!(stats.num_moments(), 16);
        assert!(a_minus > 0.0);
        assert!((stats.mean[0] - 1.0).abs() < 1e-9, "mu_0 ~ 1");
    }

    #[test]
    fn injected_panic_is_isolated_by_run_attempt() {
        let job = spec("lattice=chain:8 moments=8 fault=panic");
        match run_attempt(&job, 0, Duration::from_secs(5)) {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("injected fault")),
            other => panic!("expected panic isolation, got {other:?}"),
        }
    }

    #[test]
    fn flaky_fault_succeeds_on_later_attempt() {
        let job = spec("lattice=chain:8 moments=8 random=1 sets=1 fault=flaky:2");
        assert!(matches!(run_attempt(&job, 0, Duration::from_secs(5)), Err(JobError::Panicked(_))));
        assert!(matches!(run_attempt(&job, 1, Duration::from_secs(5)), Err(JobError::Panicked(_))));
        assert!(run_attempt(&job, 2, Duration::from_secs(5)).is_ok());
    }

    #[test]
    fn sleep_fault_triggers_timeout() {
        let job = spec("lattice=chain:8 moments=8 fault=sleep:5000");
        match run_attempt(&job, 0, Duration::from_millis(50)) {
            Err(JobError::TimedOut(t)) => assert_eq!(t, Duration::from_millis(50)),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn retryability_classification() {
        assert!(JobError::Panicked("x".into()).retryable());
        assert!(JobError::TimedOut(Duration::from_secs(1)).retryable());
        assert!(!JobError::Kpm("x".into()).retryable());
        assert!(!JobError::Engine("x".into()).retryable());
    }
}
