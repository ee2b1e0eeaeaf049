//! The coordinator: dispatch shards, survive workers, merge exactly.
//!
//! [`run`] partitions a job's realization units into deterministic,
//! set-aligned shards ([`kpm::shard_plan`]), dispatches them to workers
//! over any [`Endpoint`]s, and merges the returned per-realization rows in
//! canonical order — so the merged moments are bitwise identical to a
//! single-process run no matter how many workers, how the shards were
//! split, or which workers died along the way.
//!
//! Fault model:
//! - **Crash**: the connection drops; the pump reports it and every shard
//!   the worker held goes back to pending with exponential backoff.
//! - **Hang**: the connection stays open but heartbeat pongs stop; after
//!   `heartbeat_timeout` without any frame the worker is declared dead and
//!   treated as crashed.
//! - **Straggler**: a shard in flight longer than `speculative_after` is
//!   duplicated onto an idle worker; the first result wins and duplicates
//!   are dropped by shard id.
//!
//! Deterministic failures (a worker *reports* an error, or returns
//! malformed rows) abort the run: every worker computes the same function,
//! so retrying elsewhere would fail identically. The run completes as long
//! as at least one worker survives.

use crate::error::ShardError;
use crate::job::{MergedMoments, ShardJob};
use crate::transport::Endpoint;
use crate::wire::Frame;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pump-thread poll granularity (bounds shutdown latency only).
const PUMP_POLL: Duration = Duration::from_millis(100);
/// Main-loop event wait (bounds heartbeat/dispatch latency only).
const EVENT_POLL: Duration = Duration::from_millis(20);

/// Scheduling and fault-tolerance knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShardPolicy {
    /// Cap on shards per worker (> 1 keeps reassignment granular). The
    /// plan keeps realization sets whole ([`kpm::shard_plan`]), so a job
    /// with few narrow sets runs as fewer, wider shards.
    pub shards_per_worker: usize,
    /// How often the coordinator pings every live worker.
    pub heartbeat_interval: Duration,
    /// Silence longer than this declares a worker dead.
    pub heartbeat_timeout: Duration,
    /// In-flight longer than this triggers a speculative duplicate.
    pub speculative_after: Duration,
    /// Dispatch attempts per shard before the run fails.
    pub max_attempts: u32,
    /// First reassignment backoff; doubles per attempt.
    pub backoff_base: Duration,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            shards_per_worker: 2,
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_secs(3),
            speculative_after: Duration::from_secs(30),
            max_attempts: 8,
            backoff_base: Duration::from_millis(25),
        }
    }
}

struct WorkerState {
    peer: String,
    tx: Arc<dyn crate::transport::FrameSink>,
    alive: bool,
    last_seen: Instant,
    /// Shard ids dispatched to this worker and not yet answered.
    inflight: Vec<u32>,
    /// Whether this connection has seen the job's [`Frame::SpecAnnounce`].
    /// The spec line travels once per worker; every shard after that —
    /// including speculative re-dispatches — is an O(1) [`Frame::RequestRef`],
    /// so re-dispatch traffic no longer scales with spec size.
    announced: bool,
}

struct ShardState {
    range: Range<usize>,
    rows: Option<Vec<Vec<f64>>>,
    attempts: u32,
    eligible_at: Instant,
    /// Workers currently holding this shard (first is the primary; any
    /// later entries are speculative duplicates).
    assigned: Vec<usize>,
    dispatched_at: Instant,
    primary: Option<usize>,
}

enum Event {
    Frame(usize, Frame),
    Closed(usize),
}

/// Runs `job` across `endpoints` under `policy`; returns moments bitwise
/// identical to the single-process pipeline.
///
/// # Errors
/// [`ShardError::Job`] for an invalid job or empty worker list,
/// [`ShardError::AllWorkersDead`] when no worker survives,
/// [`ShardError::ShardFailed`] when one shard exhausts its attempts, and
/// [`ShardError::Worker`]/[`ShardError::Protocol`] for deterministic
/// worker failures.
pub fn run(
    job: &ShardJob,
    endpoints: Vec<Endpoint>,
    policy: &ShardPolicy,
) -> Result<MergedMoments, ShardError> {
    job.validate()?;
    if endpoints.is_empty() {
        return Err(ShardError::Job("a distributed run needs at least one worker".into()));
    }
    let _span = kpm_obs::span("shard.run");

    let stop = Arc::new(AtomicBool::new(false));
    let (ev_tx, ev_rx) = mpsc::channel();
    let mut workers = Vec::with_capacity(endpoints.len());
    let mut pumps = Vec::with_capacity(endpoints.len());
    for (i, ep) in endpoints.into_iter().enumerate() {
        let Endpoint { peer, tx, mut rx } = ep;
        workers.push(WorkerState {
            peer,
            tx,
            alive: true,
            last_seen: Instant::now(),
            inflight: Vec::new(),
            announced: false,
        });
        let evt = ev_tx.clone();
        let stop = Arc::clone(&stop);
        pumps.push(
            std::thread::Builder::new()
                .name(format!("kpm-shard-pump-{i}"))
                .spawn(move || loop {
                    match rx.recv_timeout(PUMP_POLL) {
                        Ok(Some(frame)) => {
                            if evt.send(Event::Frame(i, frame)).is_err() {
                                break;
                            }
                        }
                        Ok(None) => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        Err(_) => {
                            let _ = evt.send(Event::Closed(i));
                            break;
                        }
                    }
                })
                .expect("spawn shard pump thread"),
        );
    }
    drop(ev_tx);

    let mut coordinator = Coordinator::new(job, policy, workers);
    let rows = coordinator.drive(&ev_rx);

    // Wind down: stop the pumps, tell surviving workers we are done.
    stop.store(true, Ordering::Relaxed);
    for w in coordinator.workers.iter().filter(|w| w.alive) {
        let _ = w.tx.send(&Frame::Shutdown);
    }
    drop(coordinator); // closes the endpoints so pumps blocked on TCP exit too
    for p in pumps {
        let _ = p.join();
    }

    let rows = rows?;
    let _merge_span = kpm_obs::span("shard.merge");
    job.merge(&rows)
}

struct Coordinator<'a> {
    job: &'a ShardJob,
    policy: &'a ShardPolicy,
    workers: Vec<WorkerState>,
    shards: Vec<ShardState>,
    done: usize,
    nonce: u64,
    job_id: u64,
    spec_line: String,
    inflight_peak: u64,
}

impl<'a> Coordinator<'a> {
    fn new(job: &'a ShardJob, policy: &'a ShardPolicy, workers: Vec<WorkerState>) -> Self {
        let now = Instant::now();
        let shards = job
            .shard_plan(workers.len() * policy.shards_per_worker)
            .into_iter()
            .map(|range| ShardState {
                range,
                rows: None,
                attempts: 0,
                eligible_at: now,
                assigned: Vec::new(),
                dispatched_at: now,
                primary: None,
            })
            .collect();
        Self {
            job,
            policy,
            workers,
            shards,
            done: 0,
            nonce: 0,
            job_id: job.spec().content_hash(),
            spec_line: job.canonical(),
            inflight_peak: 0,
        }
    }

    fn drive(&mut self, events: &mpsc::Receiver<Event>) -> Result<Vec<Vec<f64>>, ShardError> {
        let mut last_ping = Instant::now();
        while self.done < self.shards.len() {
            let now = Instant::now();
            // Hung-worker detection.
            for i in 0..self.workers.len() {
                if self.workers[i].alive
                    && now.duration_since(self.workers[i].last_seen) > self.policy.heartbeat_timeout
                {
                    self.kill_worker(i, now);
                }
            }
            if !self.workers.iter().any(|w| w.alive) {
                return Err(ShardError::AllWorkersDead {
                    pending: self.shards.iter().filter(|s| s.rows.is_none()).count(),
                });
            }
            // Heartbeats.
            if now.duration_since(last_ping) >= self.policy.heartbeat_interval {
                last_ping = now;
                for i in 0..self.workers.len() {
                    if self.workers[i].alive {
                        self.nonce += 1;
                        let ping = Frame::Ping { nonce: self.nonce };
                        if self.workers[i].tx.send(&ping).is_err() {
                            self.kill_worker(i, now);
                        }
                    }
                }
            }
            // Dispatch every pending, eligible shard.
            for k in 0..self.shards.len() {
                let s = &self.shards[k];
                if s.rows.is_some() || !s.assigned.is_empty() || s.eligible_at > now {
                    continue;
                }
                if s.attempts >= self.policy.max_attempts {
                    return Err(ShardError::ShardFailed { shard: k as u32, attempts: s.attempts });
                }
                if let Some(w) = self.pick_worker(&[]) {
                    self.dispatch(k, w, now);
                }
            }
            // Speculative duplicates for stragglers.
            for k in 0..self.shards.len() {
                let s = &self.shards[k];
                if s.rows.is_none()
                    && s.assigned.len() == 1
                    && now.duration_since(s.dispatched_at) > self.policy.speculative_after
                {
                    let holders = s.assigned.clone();
                    if let Some(w) = self.pick_worker(&holders) {
                        kpm_obs::counter_add("shard.speculative", 1);
                        self.dispatch(k, w, now);
                    }
                }
            }
            // Drain events.
            match events.recv_timeout(EVENT_POLL) {
                Ok(ev) => {
                    self.handle(ev)?;
                    while let Ok(ev) = events.try_recv() {
                        self.handle(ev)?;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Every pump exited: no frame can ever arrive again.
                    let now = Instant::now();
                    for i in 0..self.workers.len() {
                        self.kill_worker(i, now);
                    }
                }
            }
        }
        kpm_obs::counter_add("shard.inflight.peak", self.inflight_peak);
        let rows =
            self.shards.iter_mut().flat_map(|s| s.rows.take().expect("all shards done")).collect();
        Ok(rows)
    }

    fn handle(&mut self, ev: Event) -> Result<(), ShardError> {
        match ev {
            Event::Closed(i) => {
                self.kill_worker(i, Instant::now());
                Ok(())
            }
            Event::Frame(i, frame) => {
                self.workers[i].last_seen = Instant::now();
                match frame {
                    Frame::Pong { .. } => Ok(()),
                    Frame::Result(res) => self.accept_result(i, res),
                    Frame::WorkerError { shard, message, .. } => {
                        Err(ShardError::Worker { shard, message })
                    }
                    // Coordinator-bound frames only; anything else is noise.
                    _ => Ok(()),
                }
            }
        }
    }

    fn accept_result(&mut self, i: usize, res: crate::wire::ShardResult) -> Result<(), ShardError> {
        let k = res.shard as usize;
        if k >= self.shards.len() {
            return Err(ShardError::Protocol(format!(
                "worker {} answered unknown shard {k}",
                self.workers[i].peer
            )));
        }
        self.workers[i].inflight.retain(|&s| s != res.shard);
        if self.shards[k].rows.is_some() {
            return Ok(()); // speculative loser (or a ghost from a revived worker)
        }
        let s = &mut self.shards[k];
        let want_rows = s.range.len();
        let want_len = self.job.moment_len();
        if res.rows.len() != want_rows || res.rows.iter().any(|r| r.len() != want_len) {
            return Err(ShardError::Protocol(format!(
                "worker {} returned malformed rows for shard {k}",
                self.workers[i].peer
            )));
        }
        if s.primary.is_some_and(|p| p != i) {
            kpm_obs::counter_add("shard.speculative_wins", 1);
        }
        s.rows = Some(res.rows);
        s.assigned.retain(|&w| w != i);
        self.done += 1;
        kpm_obs::counter_add("shard.completed", 1);
        Ok(())
    }

    /// Marks a worker dead and returns its unfinished shards to pending
    /// with exponential backoff.
    fn kill_worker(&mut self, i: usize, now: Instant) {
        if !self.workers[i].alive {
            return;
        }
        self.workers[i].alive = false;
        kpm_obs::counter_add("shard.workers.dead", 1);
        let lost = std::mem::take(&mut self.workers[i].inflight);
        for shard in lost {
            let s = &mut self.shards[shard as usize];
            s.assigned.retain(|&w| w != i);
            if s.rows.is_none() && s.assigned.is_empty() {
                let exp = s.attempts.min(10);
                s.eligible_at = now + self.policy.backoff_base * 2u32.saturating_pow(exp);
                kpm_obs::counter_add("shard.reassigned", 1);
            }
        }
    }

    /// The live worker with the least in-flight work, excluding `exclude`;
    /// `None` when every live worker is excluded (or none is live).
    fn pick_worker(&self, exclude: &[usize]) -> Option<usize> {
        (0..self.workers.len())
            .filter(|i| self.workers[*i].alive && !exclude.contains(i))
            .min_by_key(|i| self.workers[*i].inflight.len())
    }

    fn dispatch(&mut self, k: usize, w: usize, now: Instant) {
        let request = {
            let s = &mut self.shards[k];
            s.attempts += 1;
            s.assigned.push(w);
            if s.primary.is_none() || s.assigned.len() == 1 {
                s.primary = Some(w);
            }
            s.dispatched_at = now;
            Frame::RequestRef {
                job: self.job_id,
                shard: k as u32,
                start: s.range.start as u64,
                end: s.range.end as u64,
            }
        };
        self.workers[w].inflight.push(k as u32);
        let inflight_total: usize = self.workers.iter().map(|x| x.inflight.len()).sum();
        self.inflight_peak = self.inflight_peak.max(inflight_total as u64);
        kpm_obs::counter_add("shard.dispatched", 1);
        // The full spec line travels once per connection; every dispatch
        // after that (re-dispatch, speculation) is shard-range only.
        if !self.workers[w].announced {
            let announce = Frame::SpecAnnounce { job: self.job_id, spec: self.spec_line.clone() };
            if self.workers[w].tx.send(&announce).is_err() {
                self.kill_worker(w, now);
                return;
            }
            self.workers[w].announced = true;
            kpm_obs::counter_add("shard.spec.announced", 1);
        }
        if self.workers[w].tx.send(&request).is_err() {
            self.kill_worker(w, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;
    use crate::worker::{serve_endpoint_with, WorkerFault};
    use kpm_serve::worker::compute_raw_moments;
    use kpm_serve::JobSpec;

    fn spawn_workers(faults: &[Option<WorkerFault>]) -> Vec<Endpoint> {
        faults
            .iter()
            .enumerate()
            .map(|(i, fault)| {
                let (coord, worker) = loopback_pair(&format!("local-{i}"));
                let fault = *fault;
                std::thread::Builder::new()
                    .name(format!("kpm-shard-local-{i}"))
                    .spawn(move || serve_endpoint_with(worker, fault))
                    .expect("spawn local worker");
                coord
            })
            .collect()
    }

    fn fast_policy() -> ShardPolicy {
        ShardPolicy {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(600),
            backoff_base: Duration::from_millis(5),
            ..ShardPolicy::default()
        }
    }

    const LINE: &str = "lattice=chain:48 moments=16 random=3 sets=2 seed=11";

    fn reference_mean() -> Vec<f64> {
        compute_raw_moments(&JobSpec::parse(LINE).unwrap(), 0).unwrap().0.mean
    }

    #[test]
    fn distributed_run_is_bitwise_identical_for_any_worker_count() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let reference = reference_mean();
        for n in [1usize, 2, 4] {
            let endpoints = spawn_workers(&vec![None; n]);
            let merged = run(&job, endpoints, &fast_policy()).unwrap();
            let stats = merged.into_stats().unwrap();
            assert_eq!(stats.mean, reference, "{n} workers must match single-process bitwise");
        }
    }

    #[test]
    fn run_survives_a_worker_dying_mid_job_with_identical_bytes() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let endpoints = spawn_workers(&[Some(WorkerFault::DieAfterRequests(1)), None, None]);
        let merged = run(&job, endpoints, &fast_policy()).unwrap();
        assert_eq!(merged.into_stats().unwrap().mean, reference_mean());
    }

    #[test]
    fn run_survives_a_hung_worker_via_heartbeat_timeout() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let endpoints = spawn_workers(&[Some(WorkerFault::HangAfterRequests(0)), None]);
        let merged = run(&job, endpoints, &fast_policy()).unwrap();
        assert_eq!(merged.into_stats().unwrap().mean, reference_mean());
    }

    #[test]
    fn all_workers_dead_is_reported() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let endpoints = spawn_workers(&[
            Some(WorkerFault::DieAfterRequests(0)),
            Some(WorkerFault::DieAfterRequests(0)),
        ]);
        match run(&job, endpoints, &fast_policy()) {
            Err(ShardError::AllWorkersDead { pending }) => assert!(pending > 0),
            other => panic!("expected AllWorkersDead, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_worker_error_aborts_the_run() {
        // A worker that reports an error for every request (a real worker
        // only does this for deterministic compute failures, which retry
        // cannot fix — so the run must abort, not reassign).
        let (coord, worker) = loopback_pair("broken");
        std::thread::spawn(move || {
            let mut worker = worker;
            while let Ok(Some(frame)) = worker.rx.recv_timeout(Duration::from_secs(10)) {
                match frame {
                    Frame::RequestRef { job, shard, .. } => {
                        let reply = Frame::WorkerError {
                            job,
                            shard,
                            message: "kpm: degenerate spectrum".into(),
                        };
                        let _ = worker.tx.send(&reply);
                    }
                    Frame::Ping { nonce } => {
                        let _ = worker.tx.send(&Frame::Pong { nonce });
                    }
                    Frame::Shutdown => break,
                    _ => {}
                }
            }
        });
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        match run(&job, vec![coord], &fast_policy()) {
            Err(ShardError::Worker { message, .. }) => {
                assert!(message.contains("degenerate"), "{message}");
            }
            other => panic!("expected ShardError::Worker, got {other:?}"),
        }
    }

    #[test]
    fn spec_is_announced_once_per_worker_for_many_shards() {
        use std::sync::atomic::AtomicUsize;
        let announces = Arc::new(AtomicUsize::new(0));
        let (coord, worker) = loopback_pair("counting");
        let count = Arc::clone(&announces);
        std::thread::spawn(move || {
            let mut worker = worker;
            let mut specs: std::collections::HashMap<u64, ShardJob> = Default::default();
            while let Ok(Some(frame)) = worker.rx.recv_timeout(Duration::from_secs(10)) {
                match frame {
                    Frame::SpecAnnounce { job, spec } => {
                        count.fetch_add(1, Ordering::SeqCst);
                        specs.insert(job, ShardJob::parse(&spec).unwrap());
                    }
                    Frame::RequestRef { job, shard, start, end } => {
                        let rows =
                            specs[&job].compute_partial(start as usize..end as usize).unwrap();
                        let reply = Frame::Result(crate::wire::ShardResult { job, shard, rows });
                        let _ = worker.tx.send(&reply);
                    }
                    Frame::Ping { nonce } => {
                        let _ = worker.tx.send(&Frame::Pong { nonce });
                    }
                    Frame::Shutdown => break,
                    _ => {}
                }
            }
        });
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        let merged = run(&job, vec![coord], &fast_policy()).unwrap();
        assert_eq!(merged.into_stats().unwrap().mean, reference_mean());
        // Two shards were dispatched (shards_per_worker = 2), one announce.
        assert_eq!(announces.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_worker_list_is_rejected() {
        let job = ShardJob::parse(&format!("dos {LINE}")).unwrap();
        assert!(matches!(run(&job, Vec::new(), &ShardPolicy::default()), Err(ShardError::Job(_))));
    }

    #[test]
    fn ldos_and_kubo_jobs_run_distributed_bitwise() {
        let ldos = ShardJob::parse("ldos:5 lattice=chain:32 moments=16").unwrap();
        let merged = run(&ldos, spawn_workers(&[None, None]), &fast_policy()).unwrap();
        let direct = ldos.compute_partial(0..1).unwrap();
        assert_eq!(merged.into_stats().unwrap().mean, direct[0]);

        let kubo = ShardJob::parse("kubo lattice=chain:16 moments=6 random=2 sets=2").unwrap();
        let merged = run(&kubo, spawn_workers(&[None, None, None]), &fast_policy()).unwrap();
        let mut rows = Vec::new();
        for range in kpm::split_even(kubo.total_units(), 1) {
            rows.extend(kubo.compute_partial(range).unwrap());
        }
        let direct = kubo.merge(&rows).unwrap().into_double().unwrap();
        assert_eq!(merged.into_double().unwrap().mu, direct.mu);
    }
}
