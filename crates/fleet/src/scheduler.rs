//! The fleet scheduler: many jobs, many workers, locality-aware placement,
//! journaled merges.
//!
//! One drive thread owns all state. Worker connections feed it frames
//! through pump threads (the shard coordinator's pattern); submissions,
//! joins, and stats queries arrive on the same event channel from
//! [`FleetClient`] handles. Per job the scheduler is exactly the shard
//! coordinator — fixed deterministic shard plan, canonical-order merge,
//! heartbeat death detection, backoff reassignment, speculative duplicates
//! — so every job's moments stay bitwise identical to a single-process
//! run. The drive thread's per-event work is O(live jobs): finished jobs
//! leave the job table, the journal image and every worker's announce set.
//! What the fleet adds across jobs:
//!
//! - **Locality-aware routing**: each worker's warm state (advertised via
//!   [`Frame::InventoryQuery`] at join, then tracked incrementally from
//!   results) is scored against each pending shard — warm moment rows
//!   (weight 4) beat a warm assembled operator (2) beat a tuned-process
//!   signal (1) beat cold — so repeat jobs land where their work already
//!   lives.
//! - **Cross-job balancing ("stealing")**: a warm worker whose queue runs
//!   deeper than an idle worker's by `STEAL_DEPTH` loses the shard to
//!   the idle one. The frozen `(seed, s, r)` RNG contract makes the result
//!   identical wherever it runs, so stealing is free of determinism cost.
//! - **Restartable merges**: accepted rows are journaled (fsync) *before*
//!   they count ([`crate::journal`]); a restarted scheduler pre-fills
//!   shards from the replayed journal and resumes without recomputing.
//!   The in-memory image holds only replayed rows and rows of unfinished
//!   jobs; a finished job's duplicate is served by the workers' bounded
//!   inventories through warm-row placement instead.

use crate::error::FleetError;
use crate::journal::{Journal, Replayed};
use kpm_shard::transport::Endpoint;
use kpm_shard::wire::{Frame, RowRun};
use kpm_shard::{MergedMoments, ShardJob};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Pump-thread poll granularity (bounds shutdown latency only).
const PUMP_POLL: Duration = Duration::from_millis(100);
/// Drive-loop event wait (bounds heartbeat/dispatch latency only).
const EVENT_POLL: Duration = Duration::from_millis(20);
/// Queue-depth gap at which an idle worker steals a shard from the warm
/// worker the locality score preferred.
const STEAL_DEPTH: usize = 2;

/// Scheduling knobs. The shard plan depends only on the job and
/// `shards_per_job` — not on the worker count — so a restarted fleet
/// produces the same shard ranges and journal replay aligns exactly.
#[derive(Debug, Clone, Copy)]
pub struct FleetPolicy {
    /// Upper bound on the shards a job is cut into. Shards are runs of
    /// whole realization sets ([`kpm::shard_plan`]), so a one-set job with
    /// the paper's `R = 14` runs as one shard whatever the bound.
    pub shards_per_job: usize,
    /// How often every live worker is pinged.
    pub heartbeat_interval: Duration,
    /// Silence longer than this declares a worker dead.
    pub heartbeat_timeout: Duration,
    /// In-flight longer than this triggers a speculative duplicate.
    pub speculative_after: Duration,
    /// Dispatch attempts per shard before its job fails.
    pub max_attempts: u32,
    /// First reassignment backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Whether placement scores worker warm state (off = least-loaded).
    pub locality: bool,
    /// How long a freshly joined worker may go un-inventoried before the
    /// scheduler dispatches to it anyway.
    pub inventory_wait: Duration,
    /// How long the fleet tolerates zero live workers before failing the
    /// jobs that are pending (a joining worker resets the clock).
    pub no_worker_grace: Duration,
    /// Test hook: simulate a coordinator crash (stop without replying or
    /// shutting workers down) after this many results were journaled.
    pub kill_after_results: Option<usize>,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        Self {
            shards_per_job: 4,
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_secs(3),
            speculative_after: Duration::from_secs(30),
            max_attempts: 8,
            backoff_base: Duration::from_millis(25),
            locality: true,
            inventory_wait: Duration::from_millis(300),
            no_worker_grace: Duration::from_secs(5),
            kill_after_results: None,
        }
    }
}

/// Counters the fleet accumulates; also exported as `fleet.*` obs
/// counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// Jobs merged and acknowledged.
    pub jobs_completed: u64,
    /// Jobs that terminally failed.
    pub jobs_failed: u64,
    /// Placements routed to a worker holding warm moment rows.
    pub place_warm_rows: u64,
    /// Placements routed to a worker holding the assembled operator.
    pub place_warm_op: u64,
    /// Placements routed to a tuned (profiled) worker, all else cold.
    pub place_warm_profile: u64,
    /// Placements with no warm state anywhere.
    pub place_cold: u64,
    /// Shards an idle worker took although locality preferred another.
    pub steals: u64,
    /// Bytes appended to the journal by this scheduler.
    pub journal_bytes: u64,
    /// Rows recovered from a previous scheduler's journal.
    pub replayed_rows: u64,
    /// Shards pre-filled (journal replay or duplicate submission).
    pub prefilled_shards: u64,
    /// Workers that joined over the fleet's lifetime.
    pub workers_joined: u64,
    /// Workers declared dead.
    pub workers_dead: u64,
}

impl FleetStats {
    /// One-line JSON rendering for `--stats` output and logs.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\"kind\":\"fleet-stats\"");
        let mut put = |k: &str, v: u64| {
            let _ = write!(s, ",\"{k}\":{v}");
        };
        put("jobs_completed", self.jobs_completed);
        put("jobs_failed", self.jobs_failed);
        put("place_warm_rows", self.place_warm_rows);
        put("place_warm_op", self.place_warm_op);
        put("place_warm_profile", self.place_warm_profile);
        put("place_cold", self.place_cold);
        put("steals", self.steals);
        put("journal_bytes", self.journal_bytes);
        put("replayed_rows", self.replayed_rows);
        put("prefilled_shards", self.prefilled_shards);
        put("workers_joined", self.workers_joined);
        put("workers_dead", self.workers_dead);
        s.push('}');
        s
    }
}

/// Messages from [`Fleet`]/[`FleetClient`] handles to the drive thread.
enum FleetMsg {
    Submit { line: String, reply: Sender<Result<MergedMoments, FleetError>> },
    Join(Endpoint),
    Stats { reply: Sender<FleetStats> },
    Shutdown,
}

enum Event {
    Frame(usize, Frame),
    Closed(usize),
    Msg(FleetMsg),
}

/// A running fleet scheduler. Dropping it shuts the drive thread down.
pub struct Fleet {
    tx: Sender<Event>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Fleet {
    /// Starts a scheduler over `endpoints`, replaying `journal_dir` if one
    /// is given (and journaling into it from then on).
    ///
    /// # Errors
    /// [`FleetError::Journal`] when the journal cannot be opened.
    pub fn start(
        endpoints: Vec<Endpoint>,
        policy: FleetPolicy,
        journal_dir: Option<&Path>,
    ) -> Result<Fleet, FleetError> {
        let (journal, replayed) = match journal_dir {
            Some(dir) => {
                let (j, r) = Journal::open(dir)?;
                (Some(j), r)
            }
            None => (None, Replayed::default()),
        };
        let (tx, rx) = mpsc::channel();
        let ev_tx = tx.clone();
        let handle = std::thread::Builder::new()
            .name("kpm-fleet-drive".into())
            .spawn(move || Scheduler::new(policy, journal, replayed, ev_tx).drive(&rx))
            .map_err(|e| FleetError::Journal(e.to_string()))?;
        let fleet = Fleet { tx, handle: Some(handle) };
        for ep in endpoints {
            fleet.join_worker(ep)?;
        }
        Ok(fleet)
    }

    /// A clonable submission handle (usable from any thread).
    pub fn client(&self) -> FleetClient {
        FleetClient { tx: self.tx.clone() }
    }

    /// Adds a worker connection to the running fleet.
    ///
    /// # Errors
    /// [`FleetError::Stopped`] when the scheduler is gone.
    pub fn join_worker(&self, endpoint: Endpoint) -> Result<(), FleetError> {
        self.tx.send(Event::Msg(FleetMsg::Join(endpoint))).map_err(|_| FleetError::Stopped)
    }

    /// Snapshot of the fleet counters.
    ///
    /// # Errors
    /// [`FleetError::Stopped`] when the scheduler is gone.
    pub fn stats(&self) -> Result<FleetStats, FleetError> {
        let (tx, rx) = mpsc::channel();
        self.tx.send(Event::Msg(FleetMsg::Stats { reply: tx })).map_err(|_| FleetError::Stopped)?;
        rx.recv().map_err(|_| FleetError::Stopped)
    }

    /// Stops the scheduler: live workers get a shutdown frame, pending
    /// submissions fail with [`FleetError::Stopped`]. Returns the final
    /// counters when the drive thread is still answering.
    pub fn shutdown(mut self) -> Option<FleetStats> {
        let stats = self.stats().ok();
        self.stop();
        stats
    }

    fn stop(&mut self) {
        let _ = self.tx.send(Event::Msg(FleetMsg::Shutdown));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Clonable handle that submits jobs to a running [`Fleet`].
#[derive(Clone)]
pub struct FleetClient {
    tx: Sender<Event>,
}

impl FleetClient {
    /// Submits a canonical shard-job line and blocks for the merged
    /// moments.
    ///
    /// # Errors
    /// [`FleetError`] per job (invalid line, worker failure, no workers) or
    /// [`FleetError::Stopped`] when the scheduler died first.
    pub fn submit(&self, line: &str) -> Result<MergedMoments, FleetError> {
        self.submit_async(line)?.recv().map_err(|_| FleetError::Stopped)?
    }

    /// Submits without blocking; the receiver yields the job's outcome.
    /// Concurrent submissions are what multi-job scheduling feeds on.
    ///
    /// # Errors
    /// [`FleetError::Stopped`] when the scheduler is gone.
    pub fn submit_async(
        &self,
        line: &str,
    ) -> Result<Receiver<Result<MergedMoments, FleetError>>, FleetError> {
        let (tx, rx) = mpsc::channel();
        self.tx
            .send(Event::Msg(FleetMsg::Submit { line: line.to_string(), reply: tx }))
            .map_err(|_| FleetError::Stopped)?;
        Ok(rx)
    }
}

// --- drive-thread state -------------------------------------------------

struct WorkerSt {
    peer: String,
    tx: std::sync::Arc<dyn kpm_shard::transport::FrameSink>,
    alive: bool,
    last_seen: Instant,
    joined_at: Instant,
    /// `(job seq, shard)` pairs dispatched and unanswered.
    inflight: Vec<(u32, u32)>,
    /// Live job seqs whose spec line this connection has received.
    announced: HashSet<u32>,
    /// Warm-state model: advertised at join, then updated from results.
    inv_seen: bool,
    inv_ops: HashSet<u64>,
    /// Coalesced runs of cached rows, oldest first, covering at most
    /// [`ROW_MODEL_CAP`] rows (the worker evicts oldest-first too).
    inv_rows: VecDeque<RowRun>,
    inv_tuned: bool,
}

/// Rows the warm-state model tracks per worker: the worker's default
/// inventory bound, past which its oldest rows are gone anyway.
const ROW_MODEL_CAP: u64 = kpm_shard::inventory::DEFAULT_ROW_CAP as u64;

impl WorkerSt {
    /// Records that the worker now holds `run`, merging it into an
    /// abutting run of the same row family and length and dropping the
    /// oldest runs past [`ROW_MODEL_CAP`] rows.
    fn note_rows(&mut self, run: RowRun) {
        let covered = |r: &RowRun| {
            r.key == run.key && r.n >= run.n && r.start <= run.start && r.end >= run.end
        };
        if self.inv_rows.iter().any(covered) {
            return;
        }
        let abuts = |r: &&mut RowRun| {
            r.key == run.key && r.n == run.n && (r.end == run.start || r.start == run.end)
        };
        match self.inv_rows.iter_mut().find(abuts) {
            Some(r) => {
                r.start = r.start.min(run.start);
                r.end = r.end.max(run.end);
            }
            None => self.inv_rows.push_back(run),
        }
        let mut held: u64 = self.inv_rows.iter().map(|r| r.end - r.start).sum();
        while held > ROW_MODEL_CAP {
            let old = self.inv_rows.pop_front().expect("rows held");
            held -= old.end - old.start;
        }
    }
}

struct ShardSt {
    range: Range<usize>,
    rows: Option<Vec<Vec<f64>>>,
    attempts: u32,
    eligible_at: Instant,
    assigned: Vec<usize>,
    dispatched_at: Instant,
}

struct JobSt {
    job: ShardJob,
    line: String,
    /// Content hash of the canonical line — the journal key, stable across
    /// restarts and shared by duplicate submissions.
    hash: u64,
    op_key: u64,
    row_key: u64,
    need: usize,
    prefix: bool,
    shards: Vec<ShardSt>,
    done: usize,
    reply: Option<Sender<Result<MergedMoments, FleetError>>>,
}

enum Flow {
    Continue,
    Stop,
    /// `kill_after_results` tripped: vanish like a crash (no replies, no
    /// worker shutdown frames).
    Killed,
}

struct Scheduler {
    policy: FleetPolicy,
    journal: Option<Journal>,
    /// In-memory journal image: job hash → idx → row. Seeded from replay,
    /// extended by accepted results of unfinished jobs — pre-fills a
    /// restarted job and a duplicate submitted while the first still runs.
    /// A job's entry goes when the job completes or fails.
    journaled: HashMap<u64, HashMap<u64, Vec<f64>>>,
    recorded_jobs: HashSet<u64>,
    workers: Vec<WorkerSt>,
    /// Unfinished jobs by seq; a job leaves when it completes or fails.
    jobs: BTreeMap<usize, JobSt>,
    next_seq: usize,
    ev_tx: Sender<Event>,
    stats: FleetStats,
    nonce: u64,
    results_journaled: usize,
    all_dead_since: Option<Instant>,
}

impl Scheduler {
    fn new(
        policy: FleetPolicy,
        journal: Option<Journal>,
        replayed: Replayed,
        ev_tx: Sender<Event>,
    ) -> Self {
        let stats = FleetStats { replayed_rows: replayed.row_count(), ..FleetStats::default() };
        Scheduler {
            policy,
            journal,
            journaled: replayed.rows,
            recorded_jobs: replayed.jobs.keys().copied().collect(),
            workers: Vec::new(),
            jobs: BTreeMap::new(),
            next_seq: 0,
            ev_tx,
            stats,
            nonce: 0,
            results_journaled: 0,
            all_dead_since: None,
        }
    }

    fn drive(&mut self, events: &Receiver<Event>) {
        let mut last_ping = Instant::now();
        loop {
            let now = Instant::now();
            // Hung-worker detection.
            for i in 0..self.workers.len() {
                if self.workers[i].alive
                    && now.duration_since(self.workers[i].last_seen) > self.policy.heartbeat_timeout
                {
                    self.kill_worker(i, now);
                }
            }
            self.fail_if_workerless(now);
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
            self.dispatch_pending(now);
            self.dispatch_speculative(now);
            // Drain events.
            match events.recv_timeout(EVENT_POLL) {
                Ok(ev) => {
                    match self.handle(ev) {
                        Flow::Continue => {}
                        Flow::Stop => return self.wind_down(),
                        Flow::Killed => return,
                    }
                    while let Ok(ev) = events.try_recv() {
                        match self.handle(ev) {
                            Flow::Continue => {}
                            Flow::Stop => return self.wind_down(),
                            Flow::Killed => return,
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // Every handle (Fleet + clients) is gone: nothing can ever
                // submit or join again.
                Err(RecvTimeoutError::Disconnected) => return self.wind_down(),
            }
        }
    }

    fn wind_down(&mut self) {
        for w in self.workers.iter().filter(|w| w.alive) {
            let _ = w.tx.send(&Frame::Shutdown);
        }
        // Dropping `self.workers` closes the endpoints; pumps exit on their
        // dead connections or failed event sends.
    }

    fn handle(&mut self, ev: Event) -> Flow {
        match ev {
            Event::Closed(i) => {
                self.kill_worker(i, Instant::now());
                Flow::Continue
            }
            Event::Msg(FleetMsg::Shutdown) => Flow::Stop,
            Event::Msg(FleetMsg::Stats { reply }) => {
                let _ = reply.send(self.stats.clone());
                Flow::Continue
            }
            Event::Msg(FleetMsg::Join(ep)) => {
                self.join(ep);
                Flow::Continue
            }
            Event::Msg(FleetMsg::Submit { line, reply }) => {
                self.submit(&line, reply);
                Flow::Continue
            }
            Event::Frame(i, frame) => {
                self.workers[i].last_seen = Instant::now();
                match frame {
                    Frame::Pong { .. } => Flow::Continue,
                    Frame::Inventory(report) => {
                        let w = &mut self.workers[i];
                        w.inv_ops = report.ops.into_iter().collect();
                        w.inv_rows.clear();
                        for run in report.rows {
                            w.note_rows(run);
                        }
                        w.inv_tuned = w.inv_tuned || !report.profiles.is_empty();
                        w.inv_seen = true;
                        Flow::Continue
                    }
                    Frame::Result(res) => self.accept_result(i, res),
                    Frame::WorkerError { job, shard, message } => {
                        self.fail_job(
                            job as usize,
                            FleetError::Shard(format!("worker failed shard {shard}: {message}")),
                        );
                        Flow::Continue
                    }
                    _ => Flow::Continue,
                }
            }
        }
    }

    fn join(&mut self, ep: Endpoint) {
        let Endpoint { peer, tx, mut rx } = ep;
        let i = self.workers.len();
        let now = Instant::now();
        self.workers.push(WorkerSt {
            peer,
            tx,
            alive: true,
            last_seen: now,
            joined_at: now,
            inflight: Vec::new(),
            announced: HashSet::new(),
            inv_seen: false,
            inv_ops: HashSet::new(),
            inv_rows: VecDeque::new(),
            inv_tuned: false,
        });
        self.stats.workers_joined += 1;
        self.all_dead_since = None;
        let evt = self.ev_tx.clone();
        std::thread::Builder::new()
            .name(format!("kpm-fleet-pump-{i}"))
            .spawn(move || loop {
                match rx.recv_timeout(PUMP_POLL) {
                    Ok(Some(frame)) => {
                        if evt.send(Event::Frame(i, frame)).is_err() {
                            break;
                        }
                    }
                    Ok(None) => continue,
                    Err(_) => {
                        let _ = evt.send(Event::Closed(i));
                        break;
                    }
                }
            })
            .expect("spawn fleet pump thread");
        // Ask for the warm-state inventory; placement prefers answered
        // workers until `inventory_wait` expires.
        if self.workers[i].tx.send(&Frame::InventoryQuery).is_err() {
            self.kill_worker(i, now);
        }
    }

    fn submit(&mut self, line: &str, reply: Sender<Result<MergedMoments, FleetError>>) {
        let job = match ShardJob::parse(line) {
            Ok(j) => j,
            Err(e) => {
                let _ = reply.send(Err(e.into()));
                return;
            }
        };
        let canonical = job.canonical();
        let hash = kpm::tune::fnv1a(canonical.as_bytes());
        let now = Instant::now();
        let need = job.moment_len();
        if let (Some(journal), false) = (self.journal.as_mut(), self.recorded_jobs.contains(&hash))
        {
            if let Err(e) = journal.record_job(hash, &canonical) {
                let _ = reply.send(Err(e));
                return;
            }
            self.recorded_jobs.insert(hash);
        }
        let mut shards: Vec<ShardSt> = job
            .shard_plan(self.policy.shards_per_job)
            .into_iter()
            .map(|range| ShardSt {
                range,
                rows: None,
                attempts: 0,
                eligible_at: now,
                assigned: Vec::new(),
                dispatched_at: now,
            })
            .collect();
        // Pre-fill from the journal image: rows this hash already has —
        // replayed from a previous scheduler, or accepted moments ago for a
        // duplicate of a job that is still running.
        let mut done = 0;
        if let Some(rows) = self.journaled.get(&hash) {
            for s in &mut shards {
                let warm: Option<Vec<Vec<f64>>> = s
                    .range
                    .clone()
                    .map(|idx| rows.get(&(idx as u64)).filter(|r| r.len() == need).cloned())
                    .collect();
                if let Some(w) = warm {
                    s.rows = Some(w);
                    done += 1;
                    self.stats.prefilled_shards += 1;
                    kpm_obs::counter_add("fleet.journal.prefilled", 1);
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let complete = done == shards.len();
        self.jobs.insert(
            seq,
            JobSt {
                op_key: job.op_key(),
                row_key: job.row_key(),
                prefix: job.prefix_extendable(),
                line: canonical,
                job,
                hash,
                need,
                shards,
                done,
                reply: Some(reply),
            },
        );
        kpm_obs::counter_add("fleet.jobs.submitted", 1);
        if complete {
            self.complete_job(seq);
        }
    }

    /// Takes a finished job out of every per-job table: the job map, the
    /// journal image, and the workers' announce sets. In-flight duplicates
    /// of its shards stay listed until their results arrive and are
    /// dropped as stale.
    fn retire(&mut self, seq: usize) -> Option<JobSt> {
        let j = self.jobs.remove(&seq)?;
        self.journaled.remove(&j.hash);
        for w in &mut self.workers {
            w.announced.remove(&(seq as u32));
        }
        Some(j)
    }

    fn complete_job(&mut self, seq: usize) {
        let Some(mut j) = self.retire(seq) else { return };
        let rows: Vec<Vec<f64>> =
            j.shards.iter_mut().flat_map(|s| s.rows.take().expect("all shards done")).collect();
        let result = j.job.merge(&rows).map_err(FleetError::from);
        if result.is_ok() {
            self.stats.jobs_completed += 1;
            kpm_obs::counter_add("fleet.jobs.completed", 1);
        } else {
            self.stats.jobs_failed += 1;
            kpm_obs::counter_add("fleet.jobs.failed", 1);
        }
        if let Some(reply) = j.reply.take() {
            let _ = reply.send(result);
        }
    }

    fn fail_job(&mut self, seq: usize, err: FleetError) {
        let Some(mut j) = self.retire(seq) else { return };
        self.stats.jobs_failed += 1;
        kpm_obs::counter_add("fleet.jobs.failed", 1);
        if let Some(reply) = j.reply.take() {
            let _ = reply.send(Err(err));
        }
        for w in &mut self.workers {
            w.inflight.retain(|&(job, _)| job as usize != seq);
        }
    }

    fn accept_result(&mut self, i: usize, res: kpm_shard::wire::ShardResult) -> Flow {
        let seq = res.job as usize;
        self.workers[i]
            .inflight
            .retain(|&(job, shard)| (job, shard) != (res.job as u32, res.shard));
        let Some(j) = self.jobs.get_mut(&seq) else { return Flow::Continue };
        let k = res.shard as usize;
        if k >= j.shards.len() || j.shards[k].rows.is_some() {
            return Flow::Continue; // duplicate, speculative loser, or stale
        }
        let want_rows = j.shards[k].range.len();
        if res.rows.len() != want_rows || res.rows.iter().any(|r| r.len() != j.need) {
            let peer = self.workers[i].peer.clone();
            self.fail_job(
                seq,
                FleetError::Shard(format!("worker {peer} returned malformed rows for shard {k}")),
            );
            return Flow::Continue;
        }
        // Journal before ack: the shard only counts once its rows are
        // durable, which is what makes a coordinator restart resumable.
        let j = self.jobs.get_mut(&seq).expect("live job");
        let start = j.shards[k].range.start as u64;
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.record_rows(j.hash, start, &res.rows) {
                self.fail_job(seq, e);
                return Flow::Continue;
            }
            self.stats.journal_bytes = journal.bytes_written();
        }
        let image = self.journaled.entry(j.hash).or_default();
        for (off, row) in res.rows.iter().enumerate() {
            image.insert(start + off as u64, row.clone());
        }
        // Update the worker's warm-state model: it now demonstrably holds
        // this operator and these rows.
        let (op_key, row_key, need) = (j.op_key, j.row_key, j.need);
        let end = j.shards[k].range.end as u64;
        let w = &mut self.workers[i];
        w.inv_ops.insert(op_key);
        w.note_rows(RowRun { key: row_key, start, end, n: need as u32 });
        let j = self.jobs.get_mut(&seq).expect("live job");
        j.shards[k].rows = Some(res.rows);
        j.shards[k].assigned.clear();
        j.done += 1;
        self.results_journaled += 1;
        kpm_obs::counter_add("fleet.shards.completed", 1);
        if j.done == j.shards.len() {
            self.complete_job(seq);
        }
        if self.policy.kill_after_results.is_some_and(|k| self.results_journaled >= k) {
            return Flow::Killed;
        }
        Flow::Continue
    }

    fn kill_worker(&mut self, i: usize, now: Instant) {
        if !self.workers[i].alive {
            return;
        }
        self.workers[i].alive = false;
        self.stats.workers_dead += 1;
        kpm_obs::counter_add("fleet.workers.dead", 1);
        let lost = std::mem::take(&mut self.workers[i].inflight);
        for (job, shard) in lost {
            let Some(j) = self.jobs.get_mut(&(job as usize)) else { continue };
            let s = &mut j.shards[shard as usize];
            s.assigned.retain(|&w| w != i);
            if s.rows.is_none() && s.assigned.is_empty() {
                let exp = s.attempts.min(10);
                s.eligible_at = now + self.policy.backoff_base * 2u32.saturating_pow(exp);
                kpm_obs::counter_add("fleet.shards.reassigned", 1);
            }
        }
    }

    fn fail_if_workerless(&mut self, now: Instant) {
        if self.workers.iter().any(|w| w.alive) {
            self.all_dead_since = None;
            return;
        }
        if self.jobs.is_empty() {
            self.all_dead_since = None;
            return;
        }
        let since = *self.all_dead_since.get_or_insert(now);
        if now.duration_since(since) < self.policy.no_worker_grace {
            return; // a worker may still join (or the fleet just started)
        }
        let pending: Vec<(usize, usize)> = self
            .jobs
            .iter()
            .map(|(&seq, j)| (seq, j.shards.iter().filter(|s| s.rows.is_none()).count()))
            .collect();
        for (seq, left) in pending {
            self.fail_job(seq, FleetError::NoWorkers { pending: left });
        }
        self.all_dead_since = Some(now);
    }

    /// Locality score of placing one shard of `job` on worker `w`:
    /// warm rows (4) + warm operator (2) + tuned process (1).
    fn score(job: &JobSt, w: &WorkerSt, range: &Range<usize>) -> u32 {
        let rows_warm = w.inv_rows.iter().any(|r| {
            r.key == job.row_key
                && (r.n as usize == job.need || (job.prefix && r.n as usize > job.need))
                && r.start < range.end as u64
                && r.end > range.start as u64
        });
        let op_warm = w.inv_ops.contains(&job.op_key);
        u32::from(rows_warm) * 4 + u32::from(op_warm) * 2 + u32::from(w.inv_tuned)
    }

    fn count_placement(&mut self, score: u32) {
        let (field, name) = if score >= 4 {
            (&mut self.stats.place_warm_rows, "fleet.place.warm_rows")
        } else if score >= 2 {
            (&mut self.stats.place_warm_op, "fleet.place.warm_op")
        } else if score >= 1 {
            (&mut self.stats.place_warm_profile, "fleet.place.warm_profile")
        } else {
            (&mut self.stats.place_cold, "fleet.place.cold")
        };
        *field += 1;
        kpm_obs::counter_add(name, 1);
    }

    /// Picks a worker for one shard: the best-scoring warm worker, unless
    /// its queue is [`STEAL_DEPTH`] deeper than an idle lower-scoring
    /// worker's — then the idle worker steals the shard.
    fn pick_worker(&mut self, seq: usize, range: &Range<usize>, now: Instant) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.workers.len())
            .filter(|&i| {
                let w = &self.workers[i];
                w.alive
                    && (w.inv_seen || now.duration_since(w.joined_at) >= self.policy.inventory_wait)
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let least =
            *candidates.iter().min_by_key(|&&i| self.workers[i].inflight.len()).expect("non-empty");
        if !self.policy.locality {
            return Some(least);
        }
        let job = &self.jobs[&seq];
        let best = *candidates
            .iter()
            .max_by_key(|&&i| {
                (
                    Self::score(job, &self.workers[i], range),
                    std::cmp::Reverse(self.workers[i].inflight.len()),
                )
            })
            .expect("non-empty");
        let best_score = Self::score(job, &self.workers[best], range);
        let least_score = Self::score(job, &self.workers[least], range);
        if best_score > least_score
            && self.workers[best].inflight.len() >= self.workers[least].inflight.len() + STEAL_DEPTH
        {
            // Backlog beats affinity: the idle worker takes the shard.
            self.stats.steals += 1;
            kpm_obs::counter_add("fleet.steals", 1);
            self.count_placement(least_score);
            return Some(least);
        }
        self.count_placement(best_score);
        Some(best)
    }

    fn dispatch_pending(&mut self, now: Instant) {
        let live: Vec<usize> = self.jobs.keys().copied().collect();
        for seq in live {
            for k in 0..self.jobs[&seq].shards.len() {
                let s = &self.jobs[&seq].shards[k];
                if s.rows.is_some() || !s.assigned.is_empty() || s.eligible_at > now {
                    continue;
                }
                if s.attempts >= self.policy.max_attempts {
                    let attempts = s.attempts;
                    self.fail_job(
                        seq,
                        FleetError::Shard(format!(
                            "shard {k} failed after {attempts} dispatch attempts"
                        )),
                    );
                    break;
                }
                let range = s.range.clone();
                if let Some(w) = self.pick_worker(seq, &range, now) {
                    self.dispatch(seq, k, w, now);
                }
            }
        }
    }

    fn dispatch_speculative(&mut self, now: Instant) {
        let live: Vec<usize> = self.jobs.keys().copied().collect();
        for seq in live {
            for k in 0..self.jobs[&seq].shards.len() {
                let s = &self.jobs[&seq].shards[k];
                if s.rows.is_none()
                    && s.assigned.len() == 1
                    && now.duration_since(s.dispatched_at) > self.policy.speculative_after
                {
                    let holder = s.assigned[0];
                    let other = (0..self.workers.len())
                        .filter(|&i| i != holder && self.workers[i].alive)
                        .min_by_key(|&i| self.workers[i].inflight.len());
                    if let Some(w) = other {
                        kpm_obs::counter_add("fleet.speculative", 1);
                        self.dispatch(seq, k, w, now);
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, seq: usize, k: usize, w: usize, now: Instant) {
        let job = self.jobs.get_mut(&seq).expect("live job");
        let s = &mut job.shards[k];
        s.attempts += 1;
        s.assigned.push(w);
        s.dispatched_at = now;
        let request = Frame::RequestRef {
            job: seq as u64,
            shard: k as u32,
            start: s.range.start as u64,
            end: s.range.end as u64,
        };
        // Spec travels once per (worker, job); every shard after that is an
        // O(1) reference.
        let announce = (!self.workers[w].announced.contains(&(seq as u32)))
            .then(|| Frame::SpecAnnounce { job: seq as u64, spec: job.line.clone() });
        self.workers[w].inflight.push((seq as u32, k as u32));
        kpm_obs::counter_add("fleet.dispatched", 1);
        if let Some(announce) = announce {
            if self.workers[w].tx.send(&announce).is_err() {
                self.kill_worker(w, now);
                return;
            }
            self.workers[w].announced.insert(seq as u32);
        }
        if self.workers[w].tx.send(&request).is_err() {
            self.kill_worker(w, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_shard::transport::loopback_pair;
    use kpm_shard::worker::{serve_endpoint_with, WorkerFault};
    use std::sync::{Arc, Mutex};

    fn spawn_workers(n: usize) -> Vec<Endpoint> {
        (0..n)
            .map(|i| {
                let (coord, worker) = loopback_pair(&format!("fleet-local-{i}"));
                std::thread::Builder::new()
                    .name(format!("kpm-fleet-local-{i}"))
                    .spawn(move || serve_endpoint_with(worker, None))
                    .expect("spawn local worker");
                coord
            })
            .collect()
    }

    fn fast_policy() -> FleetPolicy {
        FleetPolicy {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(600),
            backoff_base: Duration::from_millis(5),
            inventory_wait: Duration::from_millis(100),
            no_worker_grace: Duration::from_millis(1500),
            ..FleetPolicy::default()
        }
    }

    const LINE_A: &str = "dos lattice=chain:48 moments=16 random=3 sets=2 seed=11";
    const LINE_B: &str = "dos lattice=chain:32 moments=12 random=2 sets=2 seed=7";

    fn reference(line: &str) -> Vec<f64> {
        let job = ShardJob::parse(line).unwrap();
        let rows = job.compute_partial(0..job.total_units()).unwrap();
        job.merge(&rows).unwrap().into_stats().unwrap().mean
    }

    #[test]
    fn concurrent_jobs_merge_bitwise_identically() {
        let fleet = Fleet::start(spawn_workers(3), fast_policy(), None).unwrap();
        let client = fleet.client();
        let rx_a = client.submit_async(LINE_A).unwrap();
        let rx_b = client.submit_async(LINE_B).unwrap();
        let a = rx_a.recv().unwrap().unwrap().into_stats().unwrap();
        let b = rx_b.recv().unwrap().unwrap().into_stats().unwrap();
        assert_eq!(a.mean, reference(LINE_A));
        assert_eq!(b.mean, reference(LINE_B));
        let stats = fleet.shutdown().unwrap();
        assert_eq!(stats.jobs_completed, 2);
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn repeat_submission_is_served_from_warm_rows() {
        let fleet = Fleet::start(spawn_workers(2), fast_policy(), None).unwrap();
        let client = fleet.client();
        let first = client.submit(LINE_A).unwrap().into_stats().unwrap();
        let again = client.submit(LINE_A).unwrap().into_stats().unwrap();
        assert_eq!(first.mean, again.mean);
        assert_eq!(first.mean, reference(LINE_A));
        let stats = fleet.shutdown().unwrap();
        // The finished job left the journal image, so the duplicate went to
        // the workers that hold its rows.
        assert_eq!(stats.prefilled_shards, 0);
        assert!(stats.place_warm_rows > 0, "{stats:?}");
    }

    /// A worker without an inventory that logs every range it is asked
    /// for, so the log is exactly the dispatched shard plan.
    fn recording_worker(log: Arc<Mutex<Vec<Range<usize>>>>) -> Endpoint {
        let (coord, mut worker) = loopback_pair("fleet-recording");
        std::thread::spawn(move || {
            let mut specs: HashMap<u64, ShardJob> = HashMap::new();
            loop {
                let reply = match worker.rx.recv_timeout(Duration::from_secs(10)) {
                    Ok(Some(Frame::SpecAnnounce { job, spec })) => {
                        specs.insert(job, ShardJob::parse(&spec).unwrap());
                        continue;
                    }
                    Ok(Some(Frame::RequestRef { job, shard, start, end })) => {
                        let range = start as usize..end as usize;
                        log.lock().unwrap().push(range.clone());
                        let rows = specs[&job].compute_partial(range).unwrap();
                        Frame::Result(kpm_shard::wire::ShardResult { job, shard, rows })
                    }
                    Ok(Some(Frame::Ping { nonce })) => Frame::Pong { nonce },
                    Ok(Some(Frame::InventoryQuery)) => Frame::Inventory(Default::default()),
                    Ok(Some(Frame::Shutdown)) | Err(_) => break,
                    Ok(_) => continue,
                };
                if worker.tx.send(&reply).is_err() {
                    break;
                }
            }
        });
        coord
    }

    #[test]
    fn paper_sets_dispatch_as_whole_r_wide_shards() {
        // S = 3 sets of the paper's R = 14 under the default cap of four
        // shards: one 14-wide shard per set, never a piece of one.
        let line = "dos lattice=chain:40 moments=12 random=14 sets=3 seed=5";
        let log = Arc::new(Mutex::new(Vec::new()));
        let endpoints = (0..2).map(|_| recording_worker(Arc::clone(&log))).collect();
        let fleet = Fleet::start(endpoints, fast_policy(), None).unwrap();
        let merged = fleet.client().submit(line).unwrap().into_stats().unwrap();
        assert_eq!(merged.mean, reference(line));
        drop(fleet);
        let mut ranges = log.lock().unwrap().clone();
        ranges.sort_by_key(|r| r.start);
        assert_eq!(ranges, vec![0..14, 14..28, 28..42]);
    }

    #[test]
    fn finished_jobs_leave_the_journal_image_and_job_table() {
        let (tx, rx) = mpsc::channel();
        let mut scheduler = Scheduler::new(fast_policy(), None, Replayed::default(), tx.clone());
        let drive = std::thread::spawn(move || {
            scheduler.drive(&rx);
            scheduler
        });
        for ep in spawn_workers(2) {
            tx.send(Event::Msg(FleetMsg::Join(ep))).unwrap();
        }
        let client = FleetClient { tx: tx.clone() };
        let rx_a = client.submit_async(LINE_A).unwrap();
        let rx_b = client.submit_async(LINE_B).unwrap();
        assert_eq!(rx_a.recv().unwrap().unwrap().into_stats().unwrap().mean, reference(LINE_A));
        assert_eq!(rx_b.recv().unwrap().unwrap().into_stats().unwrap().mean, reference(LINE_B));
        assert!(client.submit("dos lattice=blob:9").is_err());
        client.submit(LINE_A).unwrap();
        tx.send(Event::Msg(FleetMsg::Shutdown)).unwrap();
        let scheduler = drive.join().unwrap();
        assert!(scheduler.journaled.is_empty(), "no --journal: nothing may stay imaged");
        assert!(scheduler.jobs.is_empty());
        assert!(scheduler.workers.iter().all(|w| w.announced.is_empty()));
        assert_eq!(scheduler.stats.jobs_completed, 3);
    }

    #[test]
    fn worker_row_model_coalesces_and_stays_bounded() {
        let (coord, _worker) = loopback_pair("row-model");
        let now = Instant::now();
        let mut w = WorkerSt {
            peer: coord.peer,
            tx: coord.tx,
            alive: true,
            last_seen: now,
            joined_at: now,
            inflight: Vec::new(),
            announced: HashSet::new(),
            inv_seen: true,
            inv_ops: HashSet::new(),
            inv_rows: VecDeque::new(),
            inv_tuned: false,
        };
        let run = |key, start, end| RowRun { key, start, end, n: 16 };
        // Abutting results of one row family fuse into one run, in either
        // order; a repeat of held rows adds nothing.
        w.note_rows(run(1, 14, 28));
        w.note_rows(run(1, 0, 14));
        w.note_rows(run(1, 28, 42));
        w.note_rows(run(1, 14, 28));
        assert_eq!(Vec::from(w.inv_rows.clone()), vec![run(1, 0, 42)]);
        // Another family (or another length) is its own run.
        w.note_rows(run(2, 0, 14));
        w.note_rows(RowRun { n: 32, ..run(1, 42, 56) });
        assert_eq!(w.inv_rows.len(), 3);
        // An unbounded stream of distinct jobs keeps the model at the
        // worker's row cap, oldest runs dropped first.
        for key in 3..10_000u64 {
            w.note_rows(run(key, 0, 14));
        }
        let held: u64 = w.inv_rows.iter().map(|r| r.end - r.start).sum();
        assert!(held <= ROW_MODEL_CAP, "{held} rows modeled");
        assert_eq!(w.inv_rows.back(), Some(&run(9_999, 0, 14)));
        assert!(w.inv_rows.iter().all(|r| r.key > 2), "oldest runs go first");
    }

    #[test]
    fn invalid_job_fails_without_poisoning_the_fleet() {
        let fleet = Fleet::start(spawn_workers(1), fast_policy(), None).unwrap();
        let client = fleet.client();
        assert!(matches!(client.submit("dos lattice=blob:9"), Err(FleetError::Job(_))));
        let ok = client.submit(LINE_B).unwrap().into_stats().unwrap();
        assert_eq!(ok.mean, reference(LINE_B));
        drop(fleet);
    }

    #[test]
    fn worker_join_mid_run_serves_jobs() {
        let fleet = Fleet::start(Vec::new(), fast_policy(), None).unwrap();
        let client = fleet.client();
        let rx = client.submit_async(LINE_B).unwrap();
        let mut eps = spawn_workers(1);
        fleet.join_worker(eps.remove(0)).unwrap();
        let stats = rx.recv().unwrap().unwrap().into_stats().unwrap();
        assert_eq!(stats.mean, reference(LINE_B));
        drop(fleet);
    }

    #[test]
    fn fleet_without_workers_fails_jobs_after_grace() {
        let policy = FleetPolicy { no_worker_grace: Duration::from_millis(200), ..fast_policy() };
        let fleet = Fleet::start(Vec::new(), policy, None).unwrap();
        match fleet.client().submit(LINE_B) {
            Err(FleetError::NoWorkers { pending }) => assert!(pending > 0),
            other => panic!("expected NoWorkers, got {other:?}"),
        }
        drop(fleet);
    }

    #[test]
    fn dying_worker_does_not_change_the_merged_bytes() {
        let mut endpoints = spawn_workers(2);
        let (coord, worker) = loopback_pair("fleet-dying");
        std::thread::spawn(move || {
            serve_endpoint_with(worker, Some(WorkerFault::DieAfterRequests(1)))
        });
        endpoints.push(coord);
        let fleet = Fleet::start(endpoints, fast_policy(), None).unwrap();
        let merged = fleet.client().submit(LINE_A).unwrap().into_stats().unwrap();
        assert_eq!(merged.mean, reference(LINE_A));
        drop(fleet);
    }

    #[test]
    fn kill_and_restart_resumes_from_the_journal_bitwise() {
        let dir = std::env::temp_dir().join(format!("kpm-fleet-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // First coordinator: crashes (by injection) after two journaled
        // results — mid-job, as six sets make four shards.
        let line = "dos lattice=chain:48 moments=16 random=3 sets=6 seed=11";
        let policy = FleetPolicy { kill_after_results: Some(2), ..fast_policy() };
        let fleet = Fleet::start(spawn_workers(2), policy, Some(&dir)).unwrap();
        let rx = fleet.client().submit_async(line).unwrap();
        assert!(rx.recv().is_err(), "the killed coordinator must not answer");
        drop(fleet);
        // Restarted coordinator: replays the journal, computes only what is
        // missing, and the merge is bitwise identical.
        let fleet = Fleet::start(spawn_workers(2), fast_policy(), Some(&dir)).unwrap();
        let merged = fleet.client().submit(line).unwrap().into_stats().unwrap();
        assert_eq!(merged.mean, reference(line));
        let stats = fleet.shutdown().unwrap();
        assert!(stats.replayed_rows > 0, "journal must have been replayed");
        assert!(stats.prefilled_shards > 0, "replayed rows must pre-fill shards");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn locality_routes_repeat_jobs_to_warm_workers() {
        // Two workers; the same spec three times with different seeds so
        // rows cannot be reused but the assembled operator can. With
        // locality on, warm-op placements must appear.
        let fleet = Fleet::start(spawn_workers(2), fast_policy(), None).unwrap();
        let client = fleet.client();
        for seed in 1..=3 {
            let line = format!("dos lattice=chain:40 moments=12 random=2 sets=2 seed={seed}");
            client.submit(&line).unwrap();
        }
        let stats = fleet.shutdown().unwrap();
        assert!(
            stats.place_warm_op + stats.place_warm_rows > 0,
            "repeat operators must route warm: {stats:?}"
        );
    }

    #[test]
    fn stats_json_renders_all_counters() {
        let json =
            FleetStats { jobs_completed: 2, steals: 1, ..FleetStats::default() }.render_json();
        assert!(json.contains("\"kind\":\"fleet-stats\""));
        assert!(json.contains("\"jobs_completed\":2"));
        assert!(json.contains("\"steals\":1"));
        assert!(json.contains("\"journal_bytes\":0"));
    }
}
