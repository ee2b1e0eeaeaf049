#!/usr/bin/env python3
"""Benchmark of the kpm suite: time to a checked density of states on the
paper's lattices, and KPNT job mixes through `kpm serve` and `kpm fleet`.

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The script builds the `kpm` binary
and the helper in perfbench/harness, runs the workload for `--seconds`,
checks every output, and prints one JSON object as its last line of stdout:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; `--trace 1` runs the per-layer ladder
instead and writes the joined span trace under .perfbench/.

Workload provenance, samples and the machine fingerprint of every run go to
.perfbench/<workload>-<seed>-trace<0|1>.json.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))

# Whole-run watchdog: a hung child must not hold a run past 180 s. The first
# run in a checkout also builds; the limit starts after the build.
RUN_LIMIT_S = 170

# Set-up is timed several times per run and reported as the median. The
# one-shot workloads time SETUP_PER_DOS minimal `kpm dos` processes (about
# 2 ms each) before every full one, so the samples spread over the whole
# run: the host's speed shifts over hundreds of milliseconds, and samples
# taken in one block see only one state of it. Mixes time MIX_SETUPS server
# spawns (about 13 ms each).
SETUP_PER_DOS = 3
MIX_SETUPS = 5

# A full-scale one-shot run holds at least this many DoS processes, so its
# p90 has ten samples beyond it.
MIN_DOS = 100

# Closed-loop mixes: the server's in-memory moment cache holds this many
# entries, fewer than the distinct keys a run touches, so LRU evictions
# happen.
CACHE_CAPACITY = 16

# The one-shot workloads. `sets` for fig5 sizes one DoS to ~0.2 s on a
# 2-core machine, so a 25 s run holds more than MIN_DOS of them.
ONE_SHOT = {
    "fig5": {
        "why": "the paper's headline shape: D=1000 CSR cubic, N=1024; cache-resident "
        "14-column blocks, so exec-plan choice and barrier overhead dominate",
        "args": ["--lattice", "cubic:10,10,10", "--moments", "1024", "--random", "14", "--sets", "3"],
    },
    "lattice48": {
        "why": "48^3 stencil, one realization chunk: blocks spill L2, SpMM traffic "
        "dominates and Auto always resolves to rows (the plan-fix bypass)",
        "args": ["--lattice", "cubic:48,48,48", "--format", "stencil", "--moments", "256",
                 "--random", "14", "--sets", "1"],
    },
}

MIXES = {
    "serve-mix": {
        "why": "seeded stream, equal shares of cold/exact/prefix/kernel/upgrade jobs, to "
        "kpm serve --listen over KPNT; ~40% cache reads, rest writes: queue, both cache "
        "paths, net",
        "command": ["serve"],
    },
    "fleet-mix": {
        "why": "the same stream to kpm fleet --listen --local-workers 2: only the "
        "moment engine differs, so fleet dispatch and merge cost show in jobs_per_s",
        "command": ["fleet", "--local-workers", "2"],
    },
}

# Tiny shapes for the smoke test: same code path, seconds-scale run.
TINY = {
    "fig5": ["--lattice", "cubic:6,6,6", "--moments", "64", "--random", "4", "--sets", "2"],
    "lattice48": ["--lattice", "cubic:12,12,12", "--format", "stencil", "--moments", "32",
                  "--random", "4", "--sets", "1"],
}

END_TO_END = {
    "setup_s": "s",
    "time_to_dos_s": "s",
    "dos_err": "1",
    "cpu_s_per_op": "CPU-s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}

# Per-layer ledger: name -> (unit, better, end-to-end metric it should
# move, workload it moves it on). The 48^3 layers (L2-spilling blocks, one
# realization chunk) map onto `lattice48`, which BENCHMARK.json does not
# run: no metric of the contract shows them. Stencil storage itself runs in
# the mixes' job pool.
PLANS = ["auto", "realizations", "rows", "hybrid"]
L48 = "lattice48 (not in BENCHMARK.json)"
WORKLOAD_OF = {"fig5": "fig5", "lattice48": L48}
LAYERS = {
    "lattice.build_s.csr": ("s", "lower", "setup_s", "fig5"),
    "lattice.build_s.stencil": ("s", "lower", "time_to_dos_s", "serve-mix"),
    "linalg.triad_gbs": ("GB/s", "higher", "none (roofline anchor)", "-"),
    "linalg.spmm_gbs.csr": ("GB/s", "higher", "time_to_dos_s", "fig5"),
    "linalg.spmm_gbs.ell": ("GB/s", "higher", "time_to_dos_s", "serve-mix"),
    "linalg.spmm_gbs.stencil": ("GB/s", "higher", "time_to_dos_s", "serve-mix"),
    "linalg.spmm_frac.csr": ("1", "higher", "time_to_dos_s", "fig5"),
    "linalg.spmm_frac.ell": ("1", "higher", "time_to_dos_s", "serve-mix"),
    "linalg.spmm_frac.stencil": ("1", "higher", "time_to_dos_s", "serve-mix"),
    "linalg.spmm_gbs.dense": ("GB/s", "higher", "jobs_per_s", "serve-mix"),
    "linalg.fused_step_us.fig5": ("us", "lower", "time_to_dos_s", "fig5"),
    "linalg.fused_step_us.lattice48": ("us", "lower", "time_to_dos_s", L48),
    "linalg.fused_over_split": ("1", "lower", "time_to_dos_s", L48),
    "kpm.bounds_s.gershgorin": ("s", "lower", "setup_s", "fig5"),
    "kpm.bounds_s.lanczos": ("s", "lower", "time_to_dos_s", "serve-mix"),
    "kpm.tune_probe_s": ("s", "lower", "time_to_dos_s", "serve-mix"),
    **{f"kpm.moments_s.{shape}.{plan}.{t}": ("s", "lower", "time_to_dos_s", WORKLOAD_OF[shape])
       for shape in ONE_SHOT for plan in PLANS for t in ("t1", "tmax")},
    **{f"kpm.auto_over_best.{shape}.{t}": ("1", "lower", "time_to_dos_s", WORKLOAD_OF[shape])
       for shape in ONE_SHOT for t in ("t1", "tmax")},
    "kpm.thread_speedup.fig5": ("1", "higher", "time_to_dos_s", "fig5"),
    "kpm.thread_speedup.lattice48": ("1", "higher", "time_to_dos_s", L48),
    "kpm.steals_per_tile": ("1", "lower", "cpu_s_per_op", "fig5"),
    "kpm.reconstruct_s": ("s", "lower", "time_to_dos_s", "fig5"),
    "kpm.device.sim_over_host": ("1", "lower", "jobs_per_s", "serve-mix"),
    "obs.overhead_frac": ("1", "lower", "none (cost of --trace)", "fig5"),
    "serve.queue_wait_s.p50": ("s", "lower", "latency_p50_s", "serve-mix"),
    "serve.queue_wait_s.p90": ("s", "lower", "latency_p90_s", "serve-mix"),
    "serve.miss_s.p50": ("s", "lower", "jobs_per_s", "serve-mix"),
    "serve.hit_s.p50": ("s", "lower", "jobs_per_s", "serve-mix"),
    "serve.hit_ratio": ("1", "higher", "jobs_per_s", "serve-mix"),
    "serve.dup_miss_ratio": ("1", "lower", "cpu_s_per_op", "serve-mix"),
    "serve.upgrades": ("count", "higher", "jobs_per_s", "serve-mix"),
    "serve.evictions": ("count", "lower", "jobs_per_s", "serve-mix"),
    "serve.retries": ("count", "lower", "cpu_s_per_op", "serve-mix"),
    "net.rtt_us.p50": ("us", "lower", "latency_p50_s", "serve-mix"),
    "net.accept_us.p50": ("us", "lower", "latency_p50_s", "serve-mix"),
    "net.rejected": ("count", "lower", "failed (result line)", "serve-mix"),
    "fleet.miss_s.p50": ("s", "lower", "jobs_per_s", "fleet-mix"),
    "fleet.overhead_ratio": ("1", "lower", "jobs_per_s", "fleet-mix"),
    "fleet.place_cold": ("count", "lower", "jobs_per_s", "fleet-mix"),
    "fleet.place_warm_op": ("count", "higher", "jobs_per_s", "fleet-mix"),
    "fleet.place_warm_rows": ("count", "higher", "jobs_per_s", "fleet-mix"),
    "fleet.steals": ("count", "lower", "jobs_per_s", "fleet-mix"),
    "fleet.workers_dead": ("count", "lower", "jobs_per_s", "fleet-mix"),
    "shard.local2_over_local": ("1", "lower", "none today (baseline for folding shard into fleet)", "fig5"),
}


class Failure(Exception):
    """The benchmark could not run; no result line is printed."""


CHILDREN = []


def kill_children(*_):
    for p in CHILDREN:
        if p.poll() is None:
            p.kill()
    for p in CHILDREN:
        try:
            p.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass


def on_alarm(*_):
    kill_children()
    print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
    os._exit(3)


def spawn(argv, **kw):
    p = subprocess.Popen(argv, cwd=ROOT, **kw)
    CHILDREN.append(p)
    return p


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def quantile(xs, q):
    """Inclusive-method quantile (linear between order statistics)."""
    if len(xs) < 2:
        return xs[0] if xs else float("nan")
    v = sorted(xs)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ---------------------------------------------------------------- build

def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise Failure(f"{ROOT} is not a kpm source checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    OUT.mkdir(exist_ok=True)
    log = OUT / "build.log"
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "kpm-cli", "--bin", "kpm"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "perfbench/harness/Cargo.toml"],
    ):
        with open(log, "ab") as f:
            code = subprocess.call(cmd, cwd=ROOT, env=env, stdout=f, stderr=f)
        if code != 0:
            raise Failure(f"'{' '.join(cmd)}' failed (exit {code}); see {log}")
    kpm = target_dir() / "release" / "kpm"
    harness = target_dir() / "release" / "kpm-perfbench"
    return str(kpm), str(harness)


# ------------------------------------------------------------ processes

def run_measured(argv):
    """Runs a child to completion: (wall s, CPU s, peak RSS MB, exit code)."""
    t0 = time.perf_counter()
    p = spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, p.returncode


def harness_json(harness, args):
    p = spawn([harness, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = p.communicate()
    if p.returncode != 0:
        raise Failure(f"kpm-perfbench {args[0]} failed: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def read_trace(path):
    """A `--trace` JSON: spans and counters by name. Tolerates any schema
    version that keeps those two fields."""
    with open(path) as f:
        doc = json.load(f)
    return doc.get("spans", []), doc.get("counters", {}), doc


def span_us(spans, name):
    return sum(s.get("dur_us", 0) for s in spans if s.get("name") == name)


class Trace:
    """The benchmark's own spans, plus per-process lanes joined from the
    binary's `--trace` files."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []
        self.lanes = []

    def now_us(self):
        return (time.perf_counter() - self.t0) * 1e6

    def open(self, name, job):
        self.spans.append({"name": name, "job": job, "start_us": round(self.now_us()),
                           "end_us": None, "parent": self.stack[-1] if self.stack else None})
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, sid):
        assert self.stack.pop() == sid
        self.spans[sid]["end_us"] = round(self.now_us())

    def lane(self, label, start_us, parent, doc):
        self.lanes.append({"lane": label, "offset_us": round(start_us), "parent": parent,
                           "spans": doc.get("spans", []), "counters": doc.get("counters", {})})


def kpm_traced(tr, kpm, args, name, job, trace_path):
    """Runs `kpm ... --trace FILE` under a span and joins its trace as a
    lane. Returns (wall s, spans, counters)."""
    sid = tr.open(name, job)
    start = tr.now_us()
    wall, _, _, code = run_measured([kpm, *args, "--trace", str(trace_path)])
    tr.close(sid)
    if code != 0:
        raise Failure(f"kpm {' '.join(args)} exited {code}")
    spans, counters, doc = read_trace(trace_path)
    tr.lane(f"kpm {args[0]} ({job})", start, sid, doc)
    return wall, spans, counters


# --------------------------------------------------- one-shot workloads

def one_shot(name, args, kpm, harness):
    w = ONE_SHOT[name]
    shape = TINY[name] if args.scale == "tiny" else w["args"]
    minimal = list(shape)
    for key, val in (("--moments", "2"), ("--random", "1"), ("--sets", "1")):
        minimal[minimal.index(key) + 1] = val
    csv_dir = OUT / "csv" / f"{name}-{args.seed}"
    csv_dir.mkdir(parents=True, exist_ok=True)
    runs, seeds, setup = [], [], []
    start = time.perf_counter()
    floor = 3 if args.scale == "tiny" else MIN_DOS
    while time.perf_counter() - start < args.seconds or len(runs) < floor:
        setup += [run_measured([kpm, "dos", *minimal, "--seed", str(args.seed)])
                  for _ in range(SETUP_PER_DOS)]
        seed = args.seed * 1000 + len(runs)
        seeds.append(seed)
        runs.append(run_measured([kpm, "dos", *shape, "--seed", str(seed),
                                  "--out", str(csv_dir / f"{seed}.csv")]))
    elapsed = time.perf_counter() - start
    if any(s[3] != 0 for s in setup):
        raise Failure("minimal kpm dos failed")
    setup_s = sum(s[0] for s in setup)

    ok = [r for r in runs if r[3] == 0]
    def opt(key):
        return shape[shape.index(key) + 1]
    check = harness_json(harness, [
        "check-dos", "--lattice", opt("--lattice"),
        "--format", opt("--format") if "--format" in shape else "csr",
        "--moments", opt("--moments"), "--random", opt("--random"), "--sets", opt("--sets"),
        "--seeds", ",".join(str(s) for s, r in zip(seeds, runs) if r[3] == 0),
        "--csv-dir", str(csv_dir), "--inject", args.inject,
    ])
    for csv in csv_dir.glob("*.csv"):
        csv.unlink()
    walls = [r[0] for r in ok]
    metrics = {
        "setup_s": median([s[0] for s in setup]),
        "time_to_dos_s": median(walls),
        "dos_err": median(check["dos_err"]),
        "cpu_s_per_op": median([r[1] for r in ok]),
        "peak_rss_mb": median([r[2] for r in ok]),
        "jobs_per_s": len(ok) / (elapsed - setup_s),
        "latency_p50_s": median(walls),
        "latency_p90_s": quantile(walls, 0.9),
    }
    d = check["dim"]
    r = int(opt("--random"))
    llc, l2 = cache_bytes()
    provenance = {
        "why": w["why"], "seed": args.seed, "command": ["kpm", "dos", *shape],
        "dim": d, "stored_entries": check["stored_entries"],
        "block_bytes": d * r * 8, "live_block_bytes": 3 * d * r * 8,
        "l2_bytes": l2, "llc_bytes": llc,
        "samples": len(runs), "setup_samples": len(setup),
        "dos_err_max": max(check["dos_err"], default=float("nan")),
        "integral_worst": max((abs(i - 1) for i in check["integral"]), default=float("nan")),
        "moment_max_z": check["max_z"], "moment_band": check["band"],
        "failures": check["failures"],
        "walls_s": walls, "setup_walls_s": [s[0] for s in setup],
    }
    failed = (len(runs) - len(ok)) + check["failed"]
    return metrics, len(runs), failed, provenance


# ------------------------------------------------------------- mixes

class Server:
    """A `kpm serve|fleet --listen` process and its address."""

    def __init__(self, kpm, command, trace_path=None):
        extra = ["--trace", str(trace_path)] if trace_path else []
        self.out = open(OUT / "server.out", "w+")
        self.proc = spawn([kpm, *command, "--listen", "127.0.0.1:0", "--cache-dir", "none",
                           "--cache-capacity", str(CACHE_CAPACITY), *extra],
                          stdout=self.out, stderr=subprocess.PIPE, text=True)
        self.addr = None
        for line in self.proc.stderr:
            m = re.search(r"listening on (\S+)", line)
            if m:
                self.addr = m.group(1)
                break
        if self.addr is None:
            raise Failure(f"kpm {command[0]} --listen did not start")
        # Keep reading stderr so the server never blocks on a full pipe.
        self.drain = threading.Thread(target=lambda: self.proc.stderr.read())
        self.drain.start()

    def stop(self):
        """SIGINT drains the server; returns (CPU s, peak RSS MB, exit code,
        drain report)."""
        self.proc.send_signal(signal.SIGINT)
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.drain.join()
        self.out.seek(0)
        report = self.out.read()
        self.out.close()
        return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, self.proc.returncode, report


ROW = re.compile(r"^\s+(\d+)\s+(ok|FAILED|cancelled)\s+(\S+)\s+\S+\s+(\S+)\s+(.*)$")


def parse_drain(report):
    rows = []
    for line in report.splitlines():
        m = ROW.match(line)
        if m:
            rows.append({"id": int(m.group(1)), "status": m.group(2), "cache": m.group(3),
                         "ms": float(m.group(4)) if m.group(4) != "-" else float("nan"),
                         "spec": m.group(5).split(" (")[0]})
    rows.sort(key=lambda r: r["id"])
    fleet = None
    for line in report.splitlines():
        if line.startswith('{"kind":"fleet-stats"'):
            fleet = json.loads(line)
    return rows, fleet


def mix_run(name, args, kpm, harness, seconds, trace_path=None):
    """Set-up probes, then the closed loop. Returns the joined per-job rows
    and everything measured."""
    command = MIXES[name]["command"]
    client = spawn([harness, "mix", "--seed", str(args.seed), "--seconds", str(seconds),
                    "--window", str(NPROC), "--inject", args.inject],
                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    setups = []
    server = None
    for k in range(MIX_SETUPS):
        last = k == MIX_SETUPS - 1
        t0 = time.perf_counter()
        server = Server(kpm, command, trace_path if last else None)
        client.stdin.write(f"probe {server.addr}\n")
        client.stdin.flush()
        if client.stdout.readline().strip() != "stats-ok":
            raise Failure(f"{name}: stats probe failed: {client.stderr.read()}")
        setups.append(time.perf_counter() - t0)
        if not last:
            server.stop()
    client.stdin.write(f"mix {server.addr}\n")
    client.stdin.flush()
    out, err = client.communicate()
    cpu, rss, code, report = server.stop()
    if client.returncode != 0:
        raise Failure(f"{name}: mix client failed: {err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    rows, fleet = parse_drain(report)
    jobs = result["jobs"]
    accepted = [j for j in jobs if j["status"] != "rejected"]
    if len(rows) != len(accepted) or any(
            r["spec"] != j["canonical"] for r, j in zip(rows, accepted)):
        raise Failure(f"{name}: drain report does not match the submitted jobs")
    for r, j in zip(rows, accepted):
        j["cache"] = r["cache"]
        j["service_s"] = r["ms"] / 1e3
        j["latency_s"] = j["done_s"] - j["submit_s"]
    return {"jobs": jobs, "result": result, "setups": setups, "cpu_s": cpu, "rss_mb": rss,
            "exit": code, "fleet": fleet}


def mix(name, args, kpm, harness):
    m = mix_run(name, args, kpm, harness, args.seconds)
    jobs, result = m["jobs"], m["result"]
    done = [j for j in jobs if j["status"] == "ok"]
    lat = [j["latency_s"] for j in done]
    # A cold job asks for a spec no earlier job did, so both engines compute
    # it from scratch (a repeat the serve cache evicted may still be warm in
    # a fleet worker's moment rows).
    cold = [j["latency_s"] for j in done if j["kind"] == "cold"]
    metrics = {
        "setup_s": median(m["setups"]),
        "time_to_dos_s": median(cold),
        "dos_err": median(result["dos_err"]),
        "cpu_s_per_op": m["cpu_s"] / max(len(done), 1),
        "peak_rss_mb": m["rss_mb"],
        "jobs_per_s": len(done) / result["elapsed_s"],
        "latency_p50_s": median(lat),
        "latency_p90_s": quantile(lat, 0.9),
    }
    kinds = {}
    for j in jobs:
        kinds[j["kind"]] = kinds.get(j["kind"], 0) + 1
    caches = {}
    for j in jobs:
        caches[j.get("cache", "-")] = caches.get(j.get("cache", "-"), 0) + 1
    by_kind = {k: median([j["latency_s"] for j in done if j["kind"] == k]) for k in kinds}
    provenance = {
        "why": MIXES[name]["why"], "seed": args.seed,
        "loop": f"closed, {NPROC} submissions in flight on one KPNT session",
        "jobs": len(jobs),
        "kind_shares": {k: v / len(jobs) for k, v in sorted(kinds.items())},
        "server_cache_shares": {k: v / len(jobs) for k, v in sorted(caches.items())},
        "latency_p50_s_by_kind": by_kind,
        "distinct_keys": result["distinct_keys"], "cache_capacity": CACHE_CAPACITY,
        "reference_runs": result["references"],
        "reference_s": result["reference_s"], "failures": result["failures"],
        "server_exit": m["exit"], "fleet_stats": m["fleet"],
    }
    failed = len(jobs) - len(done) + (1 if m["exit"] != 0 else 0)
    return metrics, len(jobs), failed, provenance


# ------------------------------------------------------ traced ladder

def cache_bytes():
    """(LLC bytes, L2 bytes) of cpu0 from sysfs."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            text = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        if kind != "Instruction":
            sizes[level] = int(text.rstrip("KMG")) * mult
    if not sizes:
        return 0, 0
    return sizes[max(sizes)], sizes.get(2, 0)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_frac(before, after):
    """Share of CPU time the hypervisor took from this machine between two
    `cpu_ticks()` readings: runs slowed by a noisy host show it."""
    if not before or not after or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def fingerprint(triad_bytes=None):
    llc, l2 = cache_bytes()
    rev = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or rev
    except (OSError, subprocess.SubprocessError):
        pass
    fp = {"nproc": NPROC, "llc_bytes": llc, "l2_bytes": l2, "git_rev": rev}
    if triad_bytes is not None:
        fp["triad_array_bytes"] = triad_bytes
        fp["triad_arrays_over_llc"] = triad_bytes / llc if llc else None
    return fp


# Each triad array is at least four LLCs where that fits in this budget;
# on machines reporting a very large LLC the budget wins and the shortfall
# is recorded in the fingerprint.
TRIAD_BUDGET_BYTES = 256 << 20


def ladder(args, kpm, harness, tr, tmp):
    m = {}
    tiny = args.scale == "tiny"
    llc, _ = cache_bytes()
    triad = min(max(4 * llc, 64 << 20), TRIAD_BUDGET_BYTES)

    sid = tr.open("harness.layers", "ladder")
    start = tr.now_us()
    layers = harness_json(harness, ["layers", "--scale", args.scale, "--triad-bytes", str(triad)])
    tr.close(sid)
    tr.lane("kpm-perfbench layers", start, sid, layers)
    m.update(layers["metrics"])

    # Exec plans x threads through the CLI flags only. lattice48 runs at a
    # reduced moment order: plan ratios, not absolute time, are the point.
    shapes = {
        "fig5": TINY["fig5"] if tiny else ONE_SHOT["fig5"]["args"],
        "lattice48": TINY["lattice48"] if tiny else
        ["--lattice", "cubic:48,48,48", "--format", "stencil", "--moments", "32",
         "--random", "14", "--sets", "1"],
    }
    for shape, base in shapes.items():
        for t, threads in (("t1", 1), ("tmax", NPROC)):
            for plan in PLANS:
                # Min of two: one sample per plan is too noisy on a shared
                # machine to rank plans.
                best_us = None
                for _ in range(2):
                    _, spans, counters = kpm_traced(
                        tr, kpm, ["dos", *base, "--exec", plan, "--threads", str(threads)],
                        "kpm.moments", f"{shape}.{plan}.{t}", tmp / "plan.json")
                    us = span_us(spans, "kpm.moments")
                    best_us = us if best_us is None else min(best_us, us)
                m[f"kpm.moments_s.{shape}.{plan}.{t}"] = best_us / 1e6
                if shape == "fig5" and plan == "auto" and t == "tmax":
                    tiles = counters.get("kpm.exec.tiles", 0)
                    m["kpm.steals_per_tile"] = counters.get("kpm.exec.steal", 0) / tiles if tiles else 0.0
                    m["kpm.reconstruct_s"] = span_us(spans, "kpm.reconstruct") / 1e6
            best = min(m[f"kpm.moments_s.{shape}.{p}.{t}"] for p in PLANS[1:])
            m[f"kpm.auto_over_best.{shape}.{t}"] = m[f"kpm.moments_s.{shape}.auto.{t}"] / best
        m[f"kpm.thread_speedup.{shape}"] = (m[f"kpm.moments_s.{shape}.auto.t1"]
                                           / m[f"kpm.moments_s.{shape}.auto.tmax"])

    # Bounds: the outer kpm.rescale span encloses the provider's work.
    for method in ("gershgorin", "lanczos"):
        minimal = ["dos", "--lattice", "cubic:10,10,10", "--moments", "2", "--random", "1",
                   "--sets", "1", "--bounds", method]
        _, spans, _ = kpm_traced(tr, kpm, minimal, "kpm.bounds", method, tmp / "bounds.json")
        outer = [s for s in spans if s.get("name") == "kpm.rescale" and s.get("parent") == 0]
        m[f"kpm.bounds_s.{method}"] = (outer[0]["dur_us"] if outer else 0) / 1e6

    # Tracing overhead and the simulated device, as interleaved pairs.
    fig5 = shapes["fig5"]
    ratios = []
    for i in range(2 if tiny else 4):
        wall_t, _, _ = kpm_traced(tr, kpm, ["dos", *fig5, "--seed", str(i)], "obs.traced", "fig5",
                                  tmp / "obs.json")
        sid = tr.open("obs.untraced", "fig5")
        wall_u = run_measured([kpm, "dos", *fig5, "--seed", str(i)])[0]
        tr.close(sid)
        ratios.append(wall_t / wall_u)
    m["obs.overhead_frac"] = median(ratios) - 1.0

    disordered = ["dos", "--lattice", "cubic:10,10,10", "--disorder", "2", "--moments", "256",
                  "--random", "14", "--sets", "1"]
    ratios = []
    for _ in range(3):
        sim, _, _ = kpm_traced(tr, kpm, [*disordered, "--device", "sim"], "device", "sim",
                               tmp / "dev.json")
        host, _, _ = kpm_traced(tr, kpm, [*disordered, "--device", "host"], "device", "host",
                                tmp / "dev.json")
        ratios.append(sim / host)
    m["kpm.device.sim_over_host"] = median(ratios)

    ratios = []
    for _ in range(2):
        sharded, _, _ = kpm_traced(tr, kpm, ["dos", *fig5, "--local-workers", "2"], "shard",
                                   "local2", tmp / "shard.json")
        plain, _, _ = kpm_traced(tr, kpm, ["dos", *fig5], "shard", "local", tmp / "shard.json")
        ratios.append(sharded / plain)
    m["shard.local2_over_local"] = median(ratios)

    # Both mixes on the same seed and stream, at reduced length.
    mini = 1.0 if tiny else 3.0
    miss = {}
    digests = {}
    attempted = failed = 0
    for name in MIXES:
        sid = tr.open(f"mix.{name}", name)
        start = tr.now_us()
        r = mix_run(name, args, kpm, harness, mini, trace_path=tmp / f"{name}.json")
        tr.close(sid)
        _, _, doc = read_trace(tmp / f"{name}.json")
        tr.lane(f"kpm {name}", start, sid, doc)
        tr.lane(f"{name} jobs", start, sid, {"spans": [
            {"name": "job", "job": str(i), "kind": j["kind"], "cache": j.get("cache"),
             "start_us": round(j["submit_s"] * 1e6), "dur_us": round(j.get("latency_s", 0) * 1e6)}
            for i, j in enumerate(r["jobs"])]})
        jobs = [j for j in r["jobs"] if j["status"] == "ok"]
        # Cold jobs are misses on both engines and the same specs in both
        # mixes; other verdicts are client-side latency by cache status.
        miss[name] = median([j["latency_s"] for j in jobs if j["kind"] == "cold"])
        digests[name] = [j["digest"] for j in r["jobs"]]
        attempted += len(r["jobs"])
        failed += len(r["jobs"]) - len(jobs)
        if name == "serve-mix":
            hits = [j["latency_s"] for j in jobs if j["cache"] == "hit"]
            waits = [max(j["latency_s"] - j["service_s"], 0.0) for j in jobs]
            m["serve.queue_wait_s.p50"] = median(waits)
            m["serve.queue_wait_s.p90"] = quantile(waits, 0.9)
            m["serve.miss_s.p50"] = miss[name]
            m["serve.hit_s.p50"] = median(hits)
            m["serve.hit_ratio"] = len(hits) / max(len(jobs), 1)
            m["serve.dup_miss_ratio"] = dup_miss_ratio(jobs)
            counters = r["result"]["stats"]["serve"]["counters"]
            m["serve.upgrades"] = counters.get("serve.cache.upgrades", 0)
            m["serve.evictions"] = counters.get("serve.cache.evictions", 0)
            m["serve.retries"] = counters.get("serve.attempts.retried", 0)
            m["net.rtt_us.p50"] = median(r["result"]["rtt_us"])
            m["net.accept_us.p50"] = median([(j["accept_s"] - j["submit_s"]) * 1e6
                                             for j in r["jobs"]])
            m["net.rejected"] = r["result"]["stats"]["net"]["counters"].get(
                "net.submissions.rejected", 0)
        else:
            fleet = r["fleet"] or {}
            m["fleet.miss_s.p50"] = miss[name]
            m["fleet.place_cold"] = fleet.get("place_cold", 0)
            m["fleet.place_warm_op"] = fleet.get("place_warm_op", 0)
            m["fleet.place_warm_rows"] = fleet.get("place_warm_rows", 0)
            m["fleet.steals"] = fleet.get("steals", 0)
            m["fleet.workers_dead"] = fleet.get("workers_dead", 0)
    m["fleet.overhead_ratio"] = miss["fleet-mix"] / miss["serve-mix"]
    # Same seed, same stream: the jobs both mixes completed must carry the
    # same moment bits.
    common = list(zip(digests["serve-mix"], digests["fleet-mix"]))
    mismatched = sum(1 for a, b in common if a != b)
    failed += mismatched
    return m, triad, {"compared_jobs": len(common), "mismatched": mismatched}, attempted, failed


def dup_miss_ratio(jobs):
    """Misses on a cache key that an earlier, still unfinished job was
    already computing: duplicated work."""
    computed = [j for j in jobs if j["cache"] in ("miss", "upgrade")]
    dup = 0
    for j in computed:
        if any(o is not j and o["key"] == j["key"] and o["submit_s"] < j["submit_s"] < o["done_s"]
               for o in computed):
            dup += 1
    return dup / max(len(computed), 1)


def traced(args, kpm, harness):
    tr = Trace()
    tmp = OUT / "traces"
    tmp.mkdir(parents=True, exist_ok=True)
    root = tr.open("perfbench.ladder", args.workload)
    m, triad, digests, attempted, failed = ladder(args, kpm, harness, tr, tmp)
    tr.close(root)
    missing = [k for k in LAYERS if k not in m]
    if missing:
        raise Failure(f"ladder did not produce {missing}")
    doc = {
        "workload": args.workload, "seed": args.seed, "fingerprint": fingerprint(triad),
        "bytes": "SpMM and triad bytes are computed from array sizes, not measured",
        "metrics": {k: {"value": m[k], "unit": u, "better": b, "moves": mv, "on": wl}
                    for k, (u, b, mv, wl) in LAYERS.items()},
        "mix_digests": digests,
        "spans": tr.spans, "lanes": tr.lanes,
    }
    return {k: m[k] for k in LAYERS}, doc, attempted, failed


# ----------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*ONE_SHOT, *MIXES])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny: smoke-test shapes through the same code path")
    ap.add_argument("--inject", choices=["none", "moment", "completion"], default="none",
                    help="corrupt one checked value, to show the gates catch it")
    args = ap.parse_args()

    kpm, harness = build()
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    ticks = cpu_ticks()
    try:
        if args.trace:
            values, doc, attempted, failed = traced(args, kpm, harness)
            units = {k: LAYERS[k][0] for k in values}
        else:
            run = one_shot if args.workload in ONE_SHOT else mix
            values, attempted, failed, provenance = run(args.workload, args, kpm, harness)
            units = END_TO_END
            doc = {"workload": args.workload, "provenance": provenance,
                   "fingerprint": fingerprint(), "metrics": values}
    finally:
        kill_children()
    doc["host_steal_frac"] = steal_frac(ticks, cpu_ticks())
    with open(record, "w") as f:
        json.dump(doc, f, indent=1)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    bad = [k for k, v in metrics.items() if not isinstance(v["value"], (int, float))
           or v["value"] != v["value"]]
    if bad:
        raise Failure(f"metrics not measured: {bad}")
    for k, v in metrics.items():
        print(f"  {k:<40} {v['value']:.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        kill_children()
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
