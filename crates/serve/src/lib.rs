//! Batched KPM job execution with a content-addressed moment cache.
//!
//! This crate turns the one-shot KPM pipeline into a small serving system:
//! jobs (density-of-states runs described by [`job::JobSpec`] lines) enter
//! a bounded priority [`queue`], a pool of [`worker`] threads executes them
//! with panic isolation, per-job timeouts, and bounded retry, and raw
//! Chebyshev moments land in a [`cache`] keyed by the job's physical
//! content — so duplicate specs, lower-order repeats, and kernel variations
//! are served without recomputation. [`metrics`] counts everything.
//!
//! The cache exploits two structural facts of the KPM (see
//! [`kpm::MomentStats::truncated`]): moments of order `< N` are a bitwise
//! prefix of any longer run with the same parameters, and kernel damping is
//! a post-processing step. Moments are therefore cached raw at the highest
//! order seen, and reconstruction re-applies the requested kernel per job.
//!
//! # Quickstart
//!
//! ```
//! use kpm_serve::{BatchConfig, BatchService, JobSpec};
//!
//! let service = BatchService::start(BatchConfig { workers: 2, ..BatchConfig::default() });
//! for line in ["lattice=chain:64 moments=64", "lattice=chain:64 moments=32 kernel=fejer"] {
//!     service.submit(JobSpec::parse(line).unwrap()).unwrap();
//! }
//! let report = service.finish();
//! assert_eq!(report.completed(), 2);
//! // The second job is a prefix of the first: one compute, one cache hit.
//! ```

pub mod cache;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod worker;

pub use cache::MomentCache;
pub use job::{Backend, Fault, JobParseError, JobSpec, ModelSpec, Priority};
pub use metrics::Metrics;
pub use queue::{JobId, JobQueue, QueueFull};
pub use worker::{JobError, WorkerPolicy};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Pluggable moment-computation backend for the worker pool.
///
/// The pool's default compute path is [`worker::compute_raw_moments`]; an
/// engine replaces it (behind the same panic isolation, timeout, and retry
/// machinery) — this is how distributed sharding slots in behind the
/// existing queue and cache. `compute` must return exactly what the local
/// path would for the same spec: the raw stochastic [`kpm::MomentStats`]
/// plus the rescale parameters `(a_plus, a_minus)`. Cache compatibility
/// depends on that bitwise faithfulness, since merged results are stored
/// under the same content-addressed [`JobSpec`] key as local ones.
pub trait MomentEngine: Send + Sync {
    /// Computes raw moments for `spec` (attempt index for fault/retry
    /// bookkeeping).
    ///
    /// # Errors
    /// [`JobError`] classified like the local path: only panics/timeouts
    /// are retryable.
    fn compute(
        &self,
        spec: &JobSpec,
        attempt: u32,
    ) -> Result<(kpm::MomentStats, f64, f64), JobError>;
}

/// How a completed job's moments were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache (exact or prefix reuse).
    Hit,
    /// Computed fresh; no usable entry existed.
    Miss,
    /// Computed fresh at a higher order, upgrading an existing entry.
    Upgrade,
}

impl CacheStatus {
    fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Upgrade => "upgrade",
        }
    }
}

/// A successfully completed job.
#[derive(Debug, Clone)]
pub struct JobSuccess {
    /// Truncation order served.
    pub num_moments: usize,
    /// Hamiltonian dimension.
    pub dim: usize,
    /// Integral of the reconstructed DoS (~1).
    pub integral: f64,
    /// Energy of the DoS maximum.
    pub peak_energy: f64,
    /// The raw moments behind the reconstruction (bitwise comparable to a
    /// one-shot run with the same spec). A service started with a
    /// [`CompletionHook`] hands them to the hook and keeps empty `mean` and
    /// `std_err` in its report.
    pub moments: kpm::MomentStats,
    /// Rescaling centre the moments were computed with — carried so a
    /// remote consumer can reconstruct on the original energy axis.
    pub a_plus: f64,
    /// Rescaling half-width the moments were computed with.
    pub a_minus: f64,
    /// Where the moments came from.
    pub cache: CacheStatus,
    /// Wall-clock from dequeue to completion.
    pub duration: Duration,
    /// CSV path written, if the job requested one.
    pub wrote: Option<String>,
}

/// Terminal state of one job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Finished with a result.
    Completed(JobSuccess),
    /// Exhausted its attempts (or failed terminally).
    Failed {
        /// Last error, rendered.
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Still queued when the service was aborted.
    Cancelled,
}

/// One job's identity and terminal state.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submission-order id.
    pub id: JobId,
    /// Canonical spec line.
    pub spec_line: String,
    /// What happened.
    pub outcome: JobOutcome,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads (0 = one per available core, capped at 8).
    pub workers: usize,
    /// Maximum queued jobs before submissions are rejected.
    pub queue_capacity: usize,
    /// Wall-clock budget per compute attempt.
    pub timeout: Duration,
    /// Retries after the first attempt (panics/timeouts only).
    pub max_retries: u32,
    /// First retry delay; doubles per retry.
    pub backoff_base: Duration,
    /// Moment-cache entries kept in memory.
    pub cache_capacity: usize,
    /// Spill directory for the cache (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            timeout: Duration::from_secs(300),
            max_retries: 2,
            backoff_base: Duration::from_millis(20),
            cache_capacity: 128,
            cache_dir: None,
        }
    }
}

/// Final report of a service run.
#[derive(Debug)]
pub struct BatchReport {
    /// All job records, in submission order.
    pub records: Vec<JobRecord>,
    /// Rendered metrics block.
    pub metrics_text: String,
    /// Cache entries spilled to disk at shutdown.
    pub cache_flushed: usize,
}

impl BatchReport {
    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.outcome, JobOutcome::Completed(_))).count()
    }

    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.outcome, JobOutcome::Failed { .. })).count()
    }

    /// Number of cancelled jobs.
    pub fn cancelled(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.outcome, JobOutcome::Cancelled)).count()
    }

    /// Human-readable per-job table plus the metrics block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let header = format!(
            "  {:>4} {:>9} {:>8} {:>10} {:>10}  spec",
            "job", "status", "cache", "integral", "ms"
        );
        let _ = writeln!(out, "{header}");
        for r in &self.records {
            match &r.outcome {
                JobOutcome::Completed(s) => {
                    let _ = writeln!(
                        out,
                        "  {:>4} {:>9} {:>8} {:>10.5} {:>10.1}  {}",
                        r.id,
                        "ok",
                        s.cache.as_str(),
                        s.integral,
                        s.duration.as_secs_f64() * 1e3,
                        r.spec_line,
                    );
                }
                JobOutcome::Failed { error, attempts } => {
                    let _ = writeln!(
                        out,
                        "  {:>4} {:>9} {:>8} {:>10} {:>10}  {} ({error}; {attempts} attempts)",
                        r.id, "FAILED", "-", "-", "-", r.spec_line,
                    );
                }
                JobOutcome::Cancelled => {
                    let _ = writeln!(
                        out,
                        "  {:>4} {:>9} {:>8} {:>10} {:>10}  {}",
                        r.id, "cancelled", "-", "-", "-", r.spec_line,
                    );
                }
            }
        }
        out.push('\n');
        out.push_str(&self.metrics_text);
        out
    }
}

/// Callback invoked by a worker thread the moment a job reaches a terminal
/// state (completed or failed), before the record lands in the final
/// report without its moments. This is the delivery path for asynchronous front-ends (the net
/// server pushes completion frames from it), so implementations must not
/// block: hand the record off to a queue or channel and return.
pub type CompletionHook = Arc<dyn Fn(&JobRecord) + Send + Sync>;

/// The running service: queue + worker pool + cache + metrics.
pub struct BatchService {
    queue: Arc<JobQueue>,
    cache: Arc<MomentCache>,
    metrics: Arc<Metrics>,
    results: Arc<Mutex<BTreeMap<JobId, JobRecord>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    submitted: Mutex<Vec<(JobId, String)>>,
}

impl BatchService {
    /// Starts the worker pool. An existing cache spill directory is loaded
    /// (a warm start); load errors are ignored, not fatal.
    pub fn start(config: BatchConfig) -> Self {
        Self::start_with_engine(config, None)
    }

    /// Starts the worker pool with an optional [`MomentEngine`] replacing
    /// the local compute path (`None` behaves exactly like [`start`](Self::start)).
    pub fn start_with_engine(config: BatchConfig, engine: Option<Arc<dyn MomentEngine>>) -> Self {
        Self::start_full(config, engine, None)
    }

    /// Starts the worker pool with an optional engine and an optional
    /// [`CompletionHook`] that observes every terminal job record as it is
    /// produced (asynchronous delivery for network front-ends).
    pub fn start_full(
        config: BatchConfig,
        engine: Option<Arc<dyn MomentEngine>>,
        on_complete: Option<CompletionHook>,
    ) -> Self {
        worker::silence_compute_panics();
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism().map_or(2, |n| n.get().min(8))
        };
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let cache = Arc::new(MomentCache::new(config.cache_capacity, config.cache_dir.clone()));
        let _ = cache.load();
        let metrics = Arc::new(Metrics::default());
        let results = Arc::new(Mutex::new(BTreeMap::new()));
        let ctx = Arc::new(worker::WorkerContext {
            queue: Arc::clone(&queue),
            cache: Arc::clone(&cache),
            metrics: Arc::clone(&metrics),
            results: Arc::clone(&results),
            policy: WorkerPolicy {
                timeout: config.timeout,
                max_retries: config.max_retries,
                backoff_base: config.backoff_base,
            },
            engine,
            on_complete,
        });
        let handles = (0..workers)
            .map(|i| {
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("kpm-serve-worker-{i}"))
                    .spawn(move || worker::run_worker(ctx))
                    .expect("spawn worker")
            })
            .collect();
        Self { queue, cache, metrics, results, workers: handles, submitted: Mutex::new(Vec::new()) }
    }

    /// Submits a job.
    ///
    /// # Errors
    /// [`QueueFull`] under backpressure — resubmit after `retry_after`.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, QueueFull> {
        let line = spec.canonical();
        match self.queue.submit(spec) {
            Ok(id) => {
                metrics::bump(&self.metrics.submitted);
                self.submitted.lock().expect("submitted lock").push((id, line));
                Ok(id)
            }
            Err(full) => {
                metrics::bump(&self.metrics.rejected);
                Err(full)
            }
        }
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Live metrics handle.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The moment cache behind the worker pool (e.g. to register a
    /// [`cache::UpgradeObserver`] for streaming-refinement telemetry).
    pub fn cache(&self) -> &MomentCache {
        &self.cache
    }

    /// Machine-readable metrics snapshot: versioned JSON carrying the same
    /// canonical `serve.*` counter names that a `--trace` session records,
    /// plus queue-depth and latency gauges. Safe to call while the service
    /// is running (counters are atomics; values are a point-in-time sample).
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\"version\":1,\"kind\":\"serve-metrics\",\"counters\":{");
        for (i, (name, value)) in self.metrics.counters(self.queue.depth()).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", kpm_obs::json::quote(name));
        }
        out.push_str("}}");
        out
    }

    /// Graceful shutdown: stop accepting jobs, drain the queue, join the
    /// workers, flush the cache, and report.
    pub fn finish(self) -> BatchReport {
        self.queue.close();
        self.shutdown(Vec::new())
    }

    /// Abort: cancel everything still queued (marked [`JobOutcome::Cancelled`]),
    /// wait only for in-flight jobs, flush the cache, and report.
    pub fn abort(self) -> BatchReport {
        let cancelled = self.queue.cancel_pending();
        for _ in &cancelled {
            metrics::bump(&self.metrics.cancelled);
        }
        let cancelled_records = cancelled
            .into_iter()
            .map(|j| JobRecord {
                id: j.id,
                spec_line: j.spec.canonical(),
                outcome: JobOutcome::Cancelled,
            })
            .collect();
        self.shutdown(cancelled_records)
    }

    fn shutdown(self, extra: Vec<JobRecord>) -> BatchReport {
        for handle in self.workers {
            let _ = handle.join();
        }
        let mut map = std::mem::take(&mut *self.results.lock().expect("results lock"));
        for record in extra {
            map.insert(record.id, record);
        }
        // Anything submitted but untracked (shouldn't happen) is surfaced
        // rather than silently dropped.
        for (id, line) in self.submitted.lock().expect("submitted lock").drain(..) {
            map.entry(id).or_insert(JobRecord {
                id,
                spec_line: line,
                outcome: JobOutcome::Failed { error: "lost by the service".into(), attempts: 0 },
            });
        }
        let cache_flushed = self.cache.flush().unwrap_or(0);
        BatchReport {
            records: map.into_values().collect(),
            metrics_text: self.metrics.render(self.queue.depth()),
            cache_flushed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> BatchConfig {
        BatchConfig {
            workers: 2,
            timeout: Duration::from_secs(30),
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..BatchConfig::default()
        }
    }

    fn job(line: &str) -> JobSpec {
        JobSpec::parse(line).unwrap()
    }

    #[test]
    fn duplicate_jobs_hit_the_cache() {
        let service = BatchService::start(quick_config());
        for _ in 0..3 {
            service.submit(job("lattice=chain:32 moments=32 random=2 sets=1")).unwrap();
        }
        let report = service.finish();
        assert_eq!(report.completed(), 3);
        let hits = report
            .records
            .iter()
            .filter(
                |r| matches!(&r.outcome, JobOutcome::Completed(s) if s.cache == CacheStatus::Hit),
            )
            .count();
        // Workers race on the first compute, but at least one duplicate must
        // be served from the cache, and all moments must be identical.
        assert!(hits >= 1, "expected cache hits\n{}", report.render());
        let moments: Vec<_> = report
            .records
            .iter()
            .filter_map(|r| match &r.outcome {
                JobOutcome::Completed(s) => Some(&s.moments.mean),
                _ => None,
            })
            .collect();
        assert!(moments.windows(2).all(|w| w[0] == w[1]), "bitwise-equal moments");
    }

    #[test]
    fn panicking_job_fails_but_pool_survives() {
        let service = BatchService::start(BatchConfig { max_retries: 0, ..quick_config() });
        service.submit(job("lattice=chain:16 moments=16 fault=panic")).unwrap();
        service.submit(job("lattice=chain:16 moments=16 random=2 sets=1")).unwrap();
        let report = service.finish();
        assert_eq!(report.completed(), 1, "{}", report.render());
        assert_eq!(report.failed(), 1);
        assert!(report.render().contains("FAILED"));
    }

    #[test]
    fn flaky_job_recovers_via_retry() {
        let service = BatchService::start(BatchConfig { max_retries: 2, ..quick_config() });
        service.submit(job("lattice=chain:16 moments=16 random=1 sets=1 fault=flaky:2")).unwrap();
        let report = service.finish();
        assert_eq!(report.completed(), 1, "{}", report.render());
        assert!(report.metrics_text.contains("retried 2"), "{}", report.metrics_text);
    }

    #[test]
    fn abort_cancels_pending_jobs() {
        // One worker + a slow first job: later jobs are still queued when we
        // abort and must come back cancelled.
        let service = BatchService::start(BatchConfig {
            workers: 1,
            timeout: Duration::from_secs(30),
            ..BatchConfig::default()
        });
        service.submit(job("lattice=chain:16 moments=16 random=1 sets=1 fault=sleep:300")).unwrap();
        for _ in 0..4 {
            service.submit(job("lattice=chain:16 moments=16 random=1 sets=1")).unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        let report = service.abort();
        assert!(report.cancelled() >= 1, "{}", report.render());
        assert_eq!(report.records.len(), 5);
    }

    #[test]
    fn cache_counters_match_direct_lookup_replay_over_ten_jobs() {
        // The same 10-job sequence, replayed directly against a fresh
        // MomentCache with the worker's bookkeeping rules, must predict the
        // service's hit/miss/upgrade counters exactly (workers = 1 makes the
        // service process jobs in submission order, so the interleavings
        // coincide).
        use crate::cache::Lookup;
        let lines = [
            "lattice=chain:32 moments=32 random=2 sets=1", // miss (compute)
            "lattice=chain:32 moments=32 random=2 sets=1", // hit (exact)
            "lattice=chain:32 moments=32 random=2 sets=1", // hit
            "lattice=chain:32 moments=32 random=2 sets=1", // hit
            "lattice=chain:32 moments=16 random=2 sets=1", // hit (prefix)
            "lattice=chain:32 moments=64 random=2 sets=1", // miss -> upgrade
            "lattice=chain:32 moments=64 random=2 sets=1", // hit
            "lattice=chain:48 moments=32 random=2 sets=1", // miss
            "lattice=chain:48 moments=32 random=2 sets=1", // hit
            "lattice=chain:16 moments=32 random=2 sets=1", // miss
        ];

        let (mut hits, mut misses, mut upgrades) = (0u64, 0u64, 0u64);
        let cache = MomentCache::new(128, None);
        for line in &lines {
            let spec = job(line);
            let key = spec.cache_key();
            match cache.lookup(key, spec.num_moments) {
                Lookup::Hit(_) => hits += 1,
                lookup => {
                    misses += 1;
                    let stale = matches!(lookup, Lookup::Stale { .. });
                    let (stats, a_plus, a_minus) = worker::compute_raw_moments(&spec, 0).unwrap();
                    let report = cache.insert(key, stats, a_plus, a_minus);
                    if report.upgraded || stale {
                        upgrades += 1;
                    }
                }
            }
        }
        assert_eq!((hits, misses, upgrades), (6, 4, 1), "replay bookkeeping");

        let service = BatchService::start(BatchConfig { workers: 1, ..quick_config() });
        for line in &lines {
            service.submit(job(line)).unwrap();
        }
        let json = service.metrics_json();
        assert!(json.starts_with("{\"version\":1,\"kind\":\"serve-metrics\""), "{json}");
        let report = service.finish();
        assert_eq!(report.completed(), 10, "{}", report.render());
        for needle in [format!("hits {hits} | misses {misses}"), format!("upgrades {upgrades}")] {
            assert!(
                report.metrics_text.contains(&needle),
                "missing '{needle}' in:\n{}",
                report.metrics_text
            );
        }
    }

    #[test]
    fn custom_engine_replaces_compute_and_stays_cache_compatible() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountingEngine(AtomicUsize);
        impl MomentEngine for CountingEngine {
            fn compute(
                &self,
                spec: &JobSpec,
                attempt: u32,
            ) -> Result<(kpm::MomentStats, f64, f64), JobError> {
                self.0.fetch_add(1, Ordering::SeqCst);
                worker::compute_raw_moments(spec, attempt)
            }
        }
        let engine = Arc::new(CountingEngine(AtomicUsize::new(0)));
        let service = BatchService::start_with_engine(
            BatchConfig { workers: 1, ..quick_config() },
            Some(engine.clone() as Arc<dyn MomentEngine>),
        );
        let line = "lattice=chain:32 moments=24 random=2 sets=1 seed=5";
        service.submit(job(line)).unwrap();
        service.submit(job(line)).unwrap(); // duplicate: cache, not engine
        let report = service.finish();
        assert_eq!(report.completed(), 2, "{}", report.render());
        assert_eq!(engine.0.load(Ordering::SeqCst), 1, "duplicate must be a cache hit");
        // Engine-computed moments are bitwise the local pipeline's.
        let direct = worker::compute_raw_moments(&job(line), 0).unwrap();
        for r in &report.records {
            let JobOutcome::Completed(s) = &r.outcome else { panic!("completed") };
            assert_eq!(s.moments.mean, direct.0.mean);
        }
    }

    #[test]
    fn completion_hook_sees_every_terminal_record_before_finish() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(JobId, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let service = BatchService::start_full(
            BatchConfig { workers: 1, max_retries: 0, ..quick_config() },
            None,
            Some(Arc::new(move |record: &JobRecord| {
                let ok = matches!(record.outcome, JobOutcome::Completed(_));
                sink.lock().unwrap().push((record.id, ok));
            })),
        );
        let ok_id = service.submit(job("lattice=chain:16 moments=16 random=1 sets=1")).unwrap();
        let bad_id = service.submit(job("lattice=chain:16 moments=16 fault=panic")).unwrap();
        let report = service.finish();
        assert_eq!(report.completed(), 1);
        assert_eq!(report.failed(), 1);
        // Both terminal outcomes were delivered to the hook, in worker order
        // (one worker = submission order), and the success carries the
        // rescale parameters a remote consumer needs.
        assert_eq!(*seen.lock().unwrap(), vec![(ok_id, true), (bad_id, false)]);
        let success = report
            .records
            .iter()
            .find_map(|r| match &r.outcome {
                JobOutcome::Completed(s) => Some(s),
                _ => None,
            })
            .unwrap();
        assert!(success.a_minus > 0.0, "rescale half-width travels with the record");
    }

    #[test]
    fn hooked_service_report_keeps_the_summary_but_not_the_moments() {
        use std::sync::Mutex;
        let delivered: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&delivered);
        let service = BatchService::start_full(
            BatchConfig { workers: 1, ..quick_config() },
            None,
            Some(Arc::new(move |record: &JobRecord| {
                if let JobOutcome::Completed(s) = &record.outcome {
                    sink.lock().unwrap().push(s.moments.mean.len());
                }
            })),
        );
        service.submit(job("lattice=chain:16 moments=16 random=1 sets=1")).unwrap();
        let report = service.finish();
        assert_eq!(*delivered.lock().unwrap(), vec![16], "the hook gets the moments");
        let JobOutcome::Completed(s) = &report.records[0].outcome else { panic!("completed") };
        assert_eq!((s.num_moments, s.moments.mean.len(), s.moments.std_err.len()), (16, 0, 0));
        assert!((s.integral - 1.0).abs() < 1e-2, "summary kept: {}", report.render());
    }

    #[test]
    fn backpressure_rejects_and_reports() {
        let service = BatchService::start(BatchConfig {
            workers: 1,
            queue_capacity: 2,
            ..BatchConfig::default()
        });
        // A long sleeper occupies the worker; fill the queue behind it.
        service.submit(job("lattice=chain:8 moments=8 fault=sleep:400")).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut rejected = 0;
        for _ in 0..4 {
            if service.submit(job("lattice=chain:8 moments=8 random=1 sets=1")).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected >= 2, "queue of 2 cannot hold 4 extra jobs");
        let report = service.finish();
        assert!(report.metrics_text.contains(&format!("rejected {rejected}")));
    }
}
