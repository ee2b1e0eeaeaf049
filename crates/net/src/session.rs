//! Server-side sessions: one reader thread and one writer thread per
//! connection, a process-wide registry routing job completions back to the
//! stream that submitted them.
//!
//! The split matters for isolation. Worker threads finish jobs and call the
//! [`kpm_serve::CompletionHook`]; that hook must never block on a client's
//! socket, or one stalled reader would back up the whole pool. So the hook
//! only resolves the job in the registry, runs the per-stream FIFO reorder
//! buffer, and hands pre-encoded frames to the session's writer over an
//! unbounded channel — the writer thread alone does blocking socket writes,
//! and a slow client slows only itself.

use crate::protocol::{self, Completion, NetFrame};
use crate::stream::StreamFifo;
use crate::NetConfig;
use kpm_obs::{Counter, Gauge};
use kpm_serve::queue::JobId;
use kpm_serve::{BatchService, JobOutcome, JobRecord, JobSpec};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Front-end metrics, reported by the `Stats` command alongside the serve
/// counters (and mirrored into `--trace` sessions like all
/// [`kpm_obs::Counter`]s).
pub(crate) struct NetMetrics {
    pub sessions_opened: Counter,
    pub submissions_accepted: Counter,
    pub submissions_rejected: Counter,
    pub jobs_delivered: Counter,
    pub stats_requests: Counter,
    pub cache_refinements: Counter,
    pub sessions_open: Gauge,
    pub jobs_inflight: Gauge,
}

impl Default for NetMetrics {
    fn default() -> Self {
        Self {
            sessions_opened: Counter::new("net.sessions.opened"),
            submissions_accepted: Counter::new("net.submissions.accepted"),
            submissions_rejected: Counter::new("net.submissions.rejected"),
            jobs_delivered: Counter::new("net.jobs.delivered"),
            stats_requests: Counter::new("net.stats.requests"),
            cache_refinements: Counter::new("net.cache.refinements"),
            sessions_open: Gauge::new("net.sessions.open"),
            jobs_inflight: Gauge::new("net.jobs.inflight"),
        }
    }
}

/// Where one submitted sub-job must be delivered.
struct Pending {
    session: u64,
    stream: String,
    seq: u64,
    tag: u64,
    step: u32,
    of: u32,
}

/// One live connection, as seen by the routing layer.
pub(crate) struct SessionHandle {
    /// Pre-encoded frames for the writer thread, in delivery order.
    tx: mpsc::Sender<Vec<u8>>,
    /// Per-stream reorder buffers.
    streams: Mutex<HashMap<String, StreamFifo>>,
    /// Sub-jobs admitted but not yet handed to the writer.
    inflight: AtomicUsize,
    /// Socket clone so the server can force the reader out at shutdown.
    socket: TcpStream,
}

/// Routing state shared between session readers and the completion hook.
///
/// Deliberately does NOT hold the [`BatchService`]: the service owns the
/// completion hook, the hook holds this registry, and a back-reference
/// would leak the service through the cycle.
#[derive(Default)]
pub(crate) struct Registry {
    sessions: Mutex<HashMap<u64, Arc<SessionHandle>>>,
    jobs: Mutex<HashMap<JobId, Pending>>,
    pub(crate) metrics: NetMetrics,
}

impl Registry {
    /// Force-closes every live session socket (readers unblock with an IO
    /// error) and forgets them; queued writer frames are flushed by the
    /// writer threads as they drain.
    pub(crate) fn shutdown_sessions(&self) {
        let mut sessions = self.sessions.lock().expect("sessions lock");
        for session in sessions.values() {
            let _ = session.socket.shutdown(std::net::Shutdown::Both);
        }
        sessions.clear();
    }

    /// The versioned `net-stats` JSON document: serve metrics nested under
    /// `"serve"`, front-end counters and gauges under `"net"`.
    pub(crate) fn stats_json(&self, service: &BatchService) -> String {
        let m = &self.metrics;
        let mut out = String::from("{\"version\":1,\"kind\":\"net-stats\",\"serve\":");
        out.push_str(&service.metrics_json());
        out.push_str(",\"net\":{\"counters\":{");
        let counters = [
            &m.sessions_opened,
            &m.submissions_accepted,
            &m.submissions_rejected,
            &m.jobs_delivered,
            &m.stats_requests,
            &m.cache_refinements,
        ];
        for (i, c) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", kpm_obs::json::quote(c.name()), c.get());
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in [&m.sessions_open, &m.jobs_inflight].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", kpm_obs::json::quote(g.name()), g.get());
        }
        out.push_str("}}}");
        out
    }
}

/// Completion-hook entry point: route a terminal job record to its stream.
///
/// Runs on a worker thread; must not block beyond the short registry and
/// stream locks (the socket write happens on the session's writer thread).
pub(crate) fn deliver(registry: &Registry, record: &JobRecord) {
    let Some(pending) = registry.jobs.lock().expect("jobs lock").remove(&record.id) else {
        // Not a net-submitted job (or its session is long gone).
        return;
    };
    let frame = completion_frame(&pending, record);
    release(registry, pending.session, &pending.stream, pending.seq, frame);
}

/// Runs the FIFO buffer for `(session, stream)` and hands every releasable
/// frame to the session writer.
fn release(registry: &Registry, session_id: u64, stream: &str, seq: u64, frame: Vec<u8>) {
    let Some(session) = registry.sessions.lock().expect("sessions lock").get(&session_id).cloned()
    else {
        return; // client disconnected; drop the frame
    };
    // Send while holding the stream's lock: two workers releasing
    // consecutive seqs must also enqueue them in that order (the channel
    // send does not block).
    let mut streams = session.streams.lock().expect("streams lock");
    let Some(fifo) = streams.get_mut(stream) else { return };
    for frame in fifo.complete(seq, frame) {
        session.inflight.fetch_sub(1, Ordering::SeqCst);
        registry.metrics.jobs_inflight.dec();
        registry.metrics.jobs_delivered.inc();
        let _ = session.tx.send(frame);
    }
}

fn completion_frame(pending: &Pending, record: &JobRecord) -> Vec<u8> {
    let frame = match &record.outcome {
        JobOutcome::Completed(s) => NetFrame::Completion(Completion {
            stream: pending.stream.clone(),
            seq: pending.seq,
            tag: pending.tag,
            step: pending.step,
            of: pending.of,
            n: s.num_moments as u32,
            samples: s.moments.samples as u64,
            a_plus: s.a_plus,
            a_minus: s.a_minus,
            integral: s.integral,
            peak_energy: s.peak_energy,
            mean: s.moments.mean.clone(),
            std_err: s.moments.std_err.clone(),
        }),
        JobOutcome::Failed { error, .. } => NetFrame::JobFailed {
            stream: pending.stream.clone(),
            seq: pending.seq,
            tag: pending.tag,
            step: pending.step,
            of: pending.of,
            error: error.clone(),
        },
        JobOutcome::Cancelled => NetFrame::JobFailed {
            stream: pending.stream.clone(),
            seq: pending.seq,
            tag: pending.tag,
            step: pending.step,
            of: pending.of,
            error: "cancelled at shutdown".into(),
        },
    };
    protocol::encode(&frame)
}

/// Everything a session reader needs from the server.
pub(crate) struct SessionContext {
    pub service: Arc<BatchService>,
    pub registry: Arc<Registry>,
    pub config: NetConfig,
    /// Serializes the capacity check + ladder submission across sessions,
    /// so one submission's ladder is admitted (or refused) atomically.
    pub submit_lock: Arc<Mutex<()>>,
    /// Queue capacity the service was configured with (for admission).
    pub queue_capacity: usize,
}

/// Runs one connection to completion. Returns when the client says
/// [`NetFrame::Goodbye`], disconnects, or breaks protocol.
pub(crate) fn run_session(socket: TcpStream, id: u64, ctx: &SessionContext) {
    let _ = socket.set_nodelay(true);
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let writer_socket = match socket.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = std::thread::Builder::new()
        .name(format!("kpm-net-writer-{id}"))
        .spawn(move || run_writer(writer_socket, rx))
        .expect("spawn session writer");

    let handle = Arc::new(SessionHandle {
        tx,
        streams: Mutex::new(HashMap::new()),
        inflight: AtomicUsize::new(0),
        socket: match socket.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
    });
    ctx.registry.sessions.lock().expect("sessions lock").insert(id, Arc::clone(&handle));
    ctx.registry.metrics.sessions_opened.inc();
    ctx.registry.metrics.sessions_open.inc();

    let mut reader = socket;
    loop {
        match protocol::read_frame(&mut reader) {
            Ok(NetFrame::Submit { stream, tag, spec, refine_steps }) => {
                handle_submit(ctx, id, &handle, stream, tag, &spec, refine_steps);
            }
            Ok(NetFrame::Stats { tag }) => {
                ctx.registry.metrics.stats_requests.inc();
                let json = ctx.registry.stats_json(&ctx.service);
                let _ = handle.tx.send(protocol::encode(&NetFrame::StatsReply { tag, json }));
            }
            Ok(NetFrame::Goodbye) => {
                // Drain: every admitted sub-job reaches the writer queue
                // before the Bye does, so the client sees all completions
                // first. Worker timeouts bound how long this can take.
                while handle.inflight.load(Ordering::SeqCst) > 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                let _ = handle.tx.send(protocol::encode(&NetFrame::Bye));
                break;
            }
            // A server-originated frame arriving at the server, or a
            // broken/absent client: either way the session is over.
            Ok(_) | Err(_) => break,
        }
    }

    if ctx.registry.sessions.lock().expect("sessions lock").remove(&id).is_some() {
        ctx.registry.metrics.sessions_open.dec();
    }
    drop(handle); // last strong ref (barring an in-flight deliver) → writer channel closes
    let _ = writer.join();
}

/// Admission control + ladder fan-out for one `Submit`.
fn handle_submit(
    ctx: &SessionContext,
    session_id: u64,
    handle: &Arc<SessionHandle>,
    stream: String,
    tag: u64,
    spec_line: &str,
    refine_steps: u32,
) {
    let reject = |retry_after_ms: u64, reason: String| {
        ctx.registry.metrics.submissions_rejected.inc();
        let _ =
            handle.tx.send(protocol::encode(&NetFrame::Rejected { tag, retry_after_ms, reason }));
    };

    let spec = match JobSpec::parse(spec_line) {
        Ok(spec) => spec,
        Err(e) => return reject(0, format!("bad spec: {e}")),
    };
    let ladder = crate::refine_ladder(spec.num_moments, refine_steps);
    let steps = ladder.len();

    // Fairness: a single session may not occupy more than its in-flight
    // budget, so a flooding client is shed while others keep submitting.
    if handle.inflight.load(Ordering::SeqCst) + steps > ctx.config.max_inflight_per_session {
        return reject(100, "per-session in-flight cap reached".into());
    }

    // Admission is atomic per ladder: either every step fits the queue
    // bound or the whole submission is refused with a backoff hint scaled
    // to the backlog (mirroring the queue's own retry-after convention).
    let admit = ctx.submit_lock.lock().expect("submit lock");
    let depth = ctx.service.queue_depth();
    if depth + steps > ctx.queue_capacity {
        drop(admit);
        let retry_after_ms = 50 * depth.max(1) as u64;
        return reject(retry_after_ms, format!("queue full ({depth}/{})", ctx.queue_capacity));
    }

    // Reserve delivery order now, so wire order within the stream matches
    // admission order no matter how execution interleaves.
    let seqs: Vec<u64> = {
        let mut streams = handle.streams.lock().expect("streams lock");
        let fifo = streams.entry(stream.clone()).or_default();
        (0..steps).map(|_| fifo.reserve()).collect()
    };
    handle.inflight.fetch_add(steps, Ordering::SeqCst);
    for _ in 0..steps {
        ctx.registry.metrics.jobs_inflight.inc();
    }
    ctx.registry.metrics.submissions_accepted.inc();
    // Accepted goes on the writer queue before any submission below can
    // produce a completion frame, so the client always sees it first.
    let _ = handle.tx.send(protocol::encode(&NetFrame::Accepted { tag, steps: steps as u32 }));

    for (step, (&n, &seq)) in ladder.iter().zip(&seqs).enumerate() {
        let mut sub = spec.clone();
        sub.num_moments = n;
        if step + 1 < steps {
            sub.out = None; // only the final order writes the requested CSV
        }
        let pending = Pending {
            session: session_id,
            stream: stream.clone(),
            seq,
            tag,
            step: step as u32,
            of: steps as u32,
        };
        // Hold the jobs lock across submit + insert: a worker could finish
        // the job before the insert otherwise, and the completion would
        // find no routing entry (deliver() blocks on this lock briefly).
        let mut jobs = ctx.registry.jobs.lock().expect("jobs lock");
        match ctx.service.submit(sub) {
            Ok(job_id) => {
                jobs.insert(job_id, pending);
            }
            Err(full) => {
                // Should not happen under the capacity pre-check; keep the
                // stream's seq accounting intact with a synthetic failure.
                drop(jobs);
                let frame = protocol::encode(&NetFrame::JobFailed {
                    stream: stream.clone(),
                    seq,
                    tag,
                    step: step as u32,
                    of: steps as u32,
                    error: format!("queue full at submit (retry after {:?})", full.retry_after),
                });
                release(&ctx.registry, session_id, &stream, seq, frame);
            }
        }
    }
    drop(admit);
}

/// Writer loop: drains pre-encoded frames onto the socket until the channel
/// closes (session over) or a write fails (client gone). Blocking writes
/// live only here — see the module docs.
fn run_writer(mut socket: TcpStream, rx: mpsc::Receiver<Vec<u8>>) {
    use std::io::Write as _;
    while let Ok(frame) = rx.recv() {
        if socket.write_all(&frame).is_err() {
            // Client is unreachable; drain silently so senders never block.
            for _ in rx.iter() {}
            return;
        }
    }
    let _ = socket.flush();
}
