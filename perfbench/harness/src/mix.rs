//! The `serve-mix` / `fleet-mix` client: a seeded stream of job lines sent
//! over one KPNT session in a closed loop, then every completion checked
//! bit for bit against a solo reference run of its spec.
//!
//! The orchestrator starts the server and talks to this process over
//! stdin/stdout, one command per line:
//!
//! - `probe ADDR`: connect, send `Stats`, wait for the `StatsReply`, print
//!   `stats-ok` (the server's set-up time ends there), disconnect.
//! - `mix ADDR`: run the closed loop for `--seconds`, then print the result
//!   document and exit.

use crate::exact;
use crate::gates::completion_gate;
use crate::report::{array, num, numbers, object, string};
use crate::Opts;
use kpm::random::SplitMix64;
use kpm::{DosEstimator, Estimator, MomentStats};
use kpm_lattice::Boundary;
use kpm_net::{Completion, NetClient, NetFrame};
use kpm_serve::{JobSpec, ModelSpec};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Write};
use std::time::Instant;

/// Base specs of the pool, with their default moment order. Each cold job
/// draws one and a fresh seed, which makes a new cache key. The orders keep
/// the cost of a cold job (stored entries x R x N) of every base within a
/// factor of three of the paper's lattice.
const POOL: [(&str, usize); 7] = [
    // The paper's 10^3 cubic lattice.
    ("lattice=cubic:10,10,10 random=14 sets=1", 256),
    ("lattice=square:48,48 random=8 sets=1", 256),
    ("lattice=honeycomb:24,24 bounds=lanczos random=8 sets=1", 256),
    ("lattice=chain:4096 format=ell random=4 sets=1", 256),
    ("lattice=cubic:24,24,24 format=stencil random=4 sets=1", 64),
    ("lattice=cubic:10,10,10 disorder=2 device=sim random=14 sets=1", 256),
    ("lattice=dense:512 random=2 sets=1", 64),
];

/// Repeats pick among this many most recent keys, 1.5 times the server's
/// 16-entry cache, so a repeat often finds its entry evicted. At this size
/// about 40% of the server's verdicts are reads (hits) and the rest writes
/// (misses and upgrades): both paths of the cache carry load, LRU
/// evictions happen throughout, and the median job is a computed one, not
/// at the gap between hit and miss latencies where `latency_p50_s` would
/// jump between runs.
const RECENT_KEYS: usize = 24;

/// A prefix repeat asks for a quarter of the key's highest order, the step
/// below in `kpm submit --refine`'s ladder (`kpm_net::refine_ladder`).
const PREFIX_DIVISOR: usize = 4;

/// An upgrade doubles the key's order, up to one ladder step (four times)
/// above the base order, so the work a key can accumulate stays bounded
/// however long a run is.
const MAX_UPGRADE: usize = 4;

/// `Stats` round trips timed at the start of a mix (`net.rtt_us`).
const RTT_PROBES: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// New spec: a cache miss.
    Cold,
    /// The same line again.
    Exact,
    /// A lower order of an earlier spec (cache prefix read).
    Prefix,
    /// Same order, other damping kernel (kernels are not part of the key).
    Kernel,
    /// A higher order of an earlier spec (in-place upgrade write).
    Upgrade,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Exact => "exact",
            Kind::Prefix => "prefix",
            Kind::Kernel => "kernel",
            Kind::Upgrade => "upgrade",
        }
    }
}

struct KeyState {
    base: usize,
    seed: u64,
    max_n: usize,
    last_n: usize,
    last_kernel: &'static str,
}

/// Job kinds per deck of 100 jobs. No recorded job stream exists to copy
/// shares from, so each of the five kinds gets the same share. Dealing
/// shuffled decks (and the pool's bases in shuffled rounds) fixes the
/// composition of every run, so seeds differ in order and keys, not in how
/// much work a run holds.
const DECK: [(Kind, usize); 5] = [
    (Kind::Cold, 20),
    (Kind::Exact, 20),
    (Kind::Prefix, 20),
    (Kind::Kernel, 20),
    (Kind::Upgrade, 20),
];

/// The seeded job stream. The same seed gives the same lines.
pub struct Stream {
    rng: SplitMix64,
    seed: u64,
    keys: Vec<KeyState>,
    kinds: Vec<Kind>,
    bases: Vec<usize>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: SplitMix64::new(seed ^ 0x6b70_6d5f_6d69_7800),
            seed,
            keys: Vec::new(),
            kinds: Vec::new(),
            bases: Vec::new(),
        }
    }

    /// Fisher–Yates with the stream's generator.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.rng.next_u64() % (i as u64 + 1)) as usize);
        }
    }

    fn line(&self, key: usize, n: usize, kernel: &str) -> String {
        let k = &self.keys[key];
        format!("{} moments={n} seed={} kernel={kernel}", POOL[k.base].0, k.seed)
    }

    /// Next job: `(kind, line)`.
    pub fn next_job(&mut self) -> (Kind, String) {
        if self.kinds.is_empty() {
            let mut deck: Vec<Kind> =
                DECK.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect();
            self.shuffle(&mut deck);
            self.kinds = deck;
        }
        let dealt = self.kinds.pop().expect("deck refilled above");
        let kind = if self.keys.is_empty() { Kind::Cold } else { dealt };
        if kind == Kind::Cold {
            if self.bases.is_empty() {
                let mut round: Vec<usize> = (0..POOL.len()).collect();
                self.shuffle(&mut round);
                self.bases = round;
            }
            let base = self.bases.pop().expect("round refilled above");
            let seed = self.seed.wrapping_mul(1_000_003).wrapping_add(self.keys.len() as u64);
            let n = POOL[base].1;
            self.keys.push(KeyState { base, seed, max_n: n, last_n: n, last_kernel: "jackson" });
            return (kind, self.line(self.keys.len() - 1, n, "jackson"));
        }
        let recent = self.keys.len().min(RECENT_KEYS);
        let key = self.keys.len() - 1 - (self.rng.next_u64() % recent as u64) as usize;
        let k = &self.keys[key];
        let (n, kernel) = match kind {
            Kind::Exact => (k.last_n, k.last_kernel),
            Kind::Prefix => ((k.max_n / PREFIX_DIVISOR).max(16), "jackson"),
            Kind::Kernel => {
                (k.last_n, if k.last_kernel == "jackson" { "lorentz:4" } else { "jackson" })
            }
            _ => ((k.max_n * 2).min(POOL[k.base].1 * MAX_UPGRADE), k.last_kernel),
        };
        let k = &mut self.keys[key];
        k.max_n = k.max_n.max(n);
        k.last_n = n;
        k.last_kernel = kernel;
        (kind, self.line(key, n, kernel))
    }
}

enum Outcome {
    Pending,
    Done(Completion),
    Rejected(String),
    Failed(String),
}

struct Job {
    kind: Kind,
    spec: JobSpec,
    submit_s: f64,
    accept_s: f64,
    done_s: f64,
    outcome: Outcome,
}

fn stats_roundtrip(client: &mut NetClient, tag: u64) -> Result<String, String> {
    client.stats(tag).map_err(|e| e.to_string())?;
    loop {
        match client.recv().map_err(|e| e.to_string())? {
            NetFrame::StatsReply { tag: t, json } if t == tag => return Ok(json),
            NetFrame::Bye => return Err("server closed during a stats round trip".into()),
            _ => {}
        }
    }
}

/// `mix`: see the module docs.
pub fn run(opts: &Opts) -> Result<String, String> {
    let seed: u64 = opts.num("seed", 1)?;
    let seconds: f64 = opts.num("seconds", 10.0)?;
    let window: usize = opts.num("window", 2)?;
    let inject = opts.str_or("inject", "none").to_string();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (cmd, addr) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        match cmd {
            "probe" => {
                let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
                stats_roundtrip(&mut client, 0)?;
                println!("stats-ok");
                std::io::stdout().flush().map_err(|e| e.to_string())?;
            }
            "mix" => return mix(addr, seed, seconds, window, &inject),
            other => return Err(format!("unknown command '{other}'")),
        }
    }
    Err("stdin closed before a mix command".into())
}

fn mix(addr: &str, seed: u64, seconds: f64, window: usize, inject: &str) -> Result<String, String> {
    let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
    let mut rtt_us = Vec::with_capacity(RTT_PROBES);
    for i in 0..RTT_PROBES {
        let t = Instant::now();
        stats_roundtrip(&mut client, 1 + i as u64)?;
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let mut stream = Stream::new(seed);
    let mut jobs: Vec<Job> = Vec::new();
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut inflight = 0usize;
    loop {
        while inflight < window && now() < seconds {
            let (kind, line) = stream.next_job();
            let spec = JobSpec::parse(&line).map_err(|e| format!("{line}: {e}"))?;
            let tag = jobs.len() as u64;
            let submit_s = now();
            client.submit("mix", tag, &line, 1).map_err(|e| e.to_string())?;
            jobs.push(Job {
                kind,
                spec,
                submit_s,
                accept_s: f64::NAN,
                done_s: f64::NAN,
                outcome: Outcome::Pending,
            });
            inflight += 1;
        }
        if inflight == 0 {
            break;
        }
        let frame = client.recv().map_err(|e| e.to_string())?;
        let t = now();
        let n = jobs.len();
        let tag_index = |tag: u64| -> Result<usize, String> {
            usize::try_from(tag)
                .ok()
                .filter(|&i| i < n)
                .ok_or_else(|| format!("frame for unknown tag {tag}"))
        };
        let (tag, outcome) = match frame {
            NetFrame::Accepted { tag, .. } => {
                let i = tag_index(tag)?;
                jobs[i].accept_s = t;
                continue;
            }
            NetFrame::Rejected { tag, reason, .. } => (tag, Outcome::Rejected(reason)),
            NetFrame::Completion(c) => (c.tag, Outcome::Done(c)),
            NetFrame::JobFailed { tag, error, .. } => (tag, Outcome::Failed(error)),
            NetFrame::Bye => return Err("server closed the session during the mix".into()),
            _ => continue,
        };
        let job = &mut jobs[tag_index(tag)?];
        if !matches!(job.outcome, Outcome::Pending) {
            return Err(format!("second terminal frame for tag {tag}"));
        }
        job.done_s = t;
        job.outcome = outcome;
        inflight -= 1;
    }
    let elapsed_s = now();
    let stats_json = stats_roundtrip(&mut client, u64::MAX)?;
    client.goodbye().map_err(|e| e.to_string())?;
    while !matches!(client.recv().map_err(|e| e.to_string())?, NetFrame::Bye) {}
    drop(client);

    let ref_start = Instant::now();
    let check = verify(&jobs, inject)?;
    let ref_s = ref_start.elapsed().as_secs_f64();

    let rows = jobs.iter().zip(&check.status).zip(&check.digests).map(|((j, status), digest)| {
        let n = j.spec.num_moments;
        object(&[
            ("kind", string(j.kind.as_str())),
            ("canonical", string(&j.spec.canonical())),
            ("key", string(&format!("{:016x}", j.spec.cache_key()))),
            ("n", n.to_string()),
            ("submit_s", num(j.submit_s)),
            ("accept_s", num(j.accept_s)),
            ("done_s", num(j.done_s)),
            ("status", string(status)),
            ("digest", string(&format!("{digest:016x}"))),
        ])
    });
    Ok(object(&[
        ("jobs", array(rows)),
        ("elapsed_s", num(elapsed_s)),
        ("rtt_us", numbers(&rtt_us)),
        ("stats", stats_json),
        ("failures", array(check.failures.iter().map(|f| string(f)))),
        ("dos_err", numbers(&check.dos_err)),
        ("references", check.references.to_string()),
        ("reference_s", num(ref_s)),
        ("distinct_keys", check.distinct_keys.to_string()),
    ]))
}

struct Check {
    /// Per job: `ok`, `rejected`, `failed`, `check-failed` or `pending`.
    status: Vec<&'static str>,
    failures: Vec<String>,
    dos_err: Vec<f64>,
    /// Per job: FNV-1a over the bits of its checked moments (0 when not
    /// checked). The same seed gives the same digests on both mixes.
    digests: Vec<u64>,
    references: usize,
    distinct_keys: usize,
}

/// Checks every completion against a solo reference run of its spec at the
/// highest order the stream asked of its cache key, and measures `dos_err`
/// on the jobs whose lattice has an analytic spectrum.
fn verify(jobs: &[Job], inject: &str) -> Result<Check, String> {
    let mut top: HashMap<u64, &JobSpec> = HashMap::new();
    for j in jobs {
        let slot = top.entry(j.spec.cache_key()).or_insert(&j.spec);
        if j.spec.num_moments > slot.num_moments {
            *slot = &j.spec;
        }
    }
    let distinct_keys = top.len();
    let refs = reference_runs(&top)?;
    let mut check = Check {
        status: Vec::with_capacity(jobs.len()),
        failures: Vec::new(),
        dos_err: Vec::new(),
        digests: vec![0; jobs.len()],
        references: refs.len(),
        distinct_keys,
    };
    let mut dos_err = DosErr::default();
    let mut injected = false;
    for (tag, j) in jobs.iter().enumerate() {
        let c = match &j.outcome {
            Outcome::Done(c) => c,
            Outcome::Pending => {
                check.status.push("pending");
                check.failures.push(format!("job {tag}: no reply"));
                continue;
            }
            Outcome::Rejected(r) => {
                check.status.push("rejected");
                check.failures.push(format!("job {tag}: rejected: {r}"));
                continue;
            }
            Outcome::Failed(e) => {
                check.status.push("failed");
                check.failures.push(format!("job {tag}: failed: {e}"));
                continue;
            }
        };
        let key = j.spec.cache_key();
        let (stats, a_plus, a_minus) = &refs[&key];
        let mut mean = c.mean.clone();
        if inject == "completion" && !injected && mean.len() > 1 {
            mean[1] = f64::from_bits(mean[1].to_bits() ^ 1);
            injected = true;
        }
        let ok = mean.len() == j.spec.num_moments
            && completion_gate(&mean, &stats.mean)
            && c.a_plus.to_bits() == a_plus.to_bits()
            && c.a_minus.to_bits() == a_minus.to_bits();
        if !ok {
            check.status.push("check-failed");
            check.failures.push(format!("job {tag}: moments differ from the solo reference run"));
            continue;
        }
        check.status.push("ok");
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for b in mean.iter().flat_map(|m| m.to_bits().to_le_bytes()) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        check.digests[tag] = digest;
        if let Some(err) = dos_err.measure(j, c)? {
            check.dos_err.push(err);
        }
    }
    Ok(check)
}

/// Solo reference runs, one per cache key at its highest requested order.
fn reference_runs(
    top: &HashMap<u64, &JobSpec>,
) -> Result<HashMap<u64, (MomentStats, f64, f64)>, String> {
    top.iter()
        .map(|(key, spec)| {
            kpm_serve::worker::compute_raw_moments(spec, 0)
                .map(|solo| (*key, solo))
                .map_err(|e| format!("reference run of '{}': {e}", spec.canonical()))
        })
        .collect()
}

/// `dos_err` of completions on clean periodic hypercubic lattices, once
/// per distinct result (a repeat of the same canonical spec has the same
/// moments). Exact spectra and moments are shared across the jobs of one
/// lattice and rescale.
#[derive(Default)]
struct DosErr {
    spectra: HashMap<String, Option<Vec<f64>>>,
    exact: HashMap<(String, u64, u64), Vec<f64>>,
    seen: HashSet<String>,
}

impl DosErr {
    fn measure(&mut self, j: &Job, c: &Completion) -> Result<Option<f64>, String> {
        let ModelSpec::Lattice(lattice) = &j.spec.model else { return Ok(None) };
        if j.spec.disorder.is_some()
            || j.spec.boundary != Boundary::Periodic
            || !self.seen.insert(j.spec.canonical())
        {
            return Ok(None);
        }
        let name = format!("{lattice:?} {}", j.spec.hopping);
        let spectrum = self
            .spectra
            .entry(name.clone())
            .or_insert_with(|| exact::periodic_spectrum(lattice, j.spec.hopping));
        let Some(spectrum) = spectrum else { return Ok(None) };
        let n = c.mean.len();
        let mu = self.exact.entry((name, c.a_plus.to_bits(), c.a_minus.to_bits())).or_default();
        if mu.len() < n {
            // Exact moments of order < n do not depend on the order computed.
            *mu = exact::exact_moments(spectrum, c.a_plus, c.a_minus, n);
        }
        let params = j.spec.kpm_params();
        let reference = exact::reference_dos(&params, &mu[..n], c.a_plus, c.a_minus)?;
        let stats = MomentStats {
            mean: c.mean.clone(),
            std_err: c.std_err.clone(),
            samples: c.samples as usize,
        };
        let dos = DosEstimator::new(params)
            .reconstruct(stats, c.a_plus, c.a_minus)
            .map_err(|e| e.to_string())?;
        exact::l1_distance(&dos.energies, &dos.rho, &reference).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let (mut a, mut b, mut c) = (Stream::new(7), Stream::new(7), Stream::new(8));
        let la: Vec<String> = (0..200).map(|_| a.next_job().1).collect();
        let lb: Vec<String> = (0..200).map(|_| b.next_job().1).collect();
        let lc: Vec<String> = (0..200).map(|_| c.next_job().1).collect();
        assert_eq!(la, lb);
        assert_ne!(la, lc);
        for line in &la {
            JobSpec::parse(line).unwrap();
        }
    }

    #[test]
    fn every_kind_occurs_and_repeats_reuse_cache_keys() {
        let mut s = Stream::new(3);
        let jobs: Vec<(Kind, JobSpec)> =
            (0..400).map(|_| s.next_job()).map(|(k, l)| (k, JobSpec::parse(&l).unwrap())).collect();
        for kind in [Kind::Cold, Kind::Exact, Kind::Prefix, Kind::Kernel, Kind::Upgrade] {
            assert!(jobs.iter().any(|(k, _)| *k == kind), "{kind:?} missing");
        }
        let mut seen = std::collections::HashSet::new();
        for (kind, spec) in &jobs {
            let fresh = seen.insert(spec.cache_key());
            assert_eq!(fresh, *kind == Kind::Cold, "{kind:?}: {}", spec.canonical());
        }
    }
}
