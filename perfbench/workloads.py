"""The four workloads and the traced layer probes.

Each workload function takes the built binaries, the seed, the measured
seconds, whether to trace, and a scratch directory inside the checkout,
and returns a `Result`. Untraced runs give the end-to-end metrics; traced
runs give the per-layer metrics, measure the workload once untraced and
once traced for `bench.trace_overhead_pct`, and keep every span.
"""

import collections
import itertools
import json
import math
import os
import re
import signal
import socket
import subprocess
import threading
import time

import corpus
import stats
from trace import Tracer

Bins = collections.namedtuple(
    "Bins", "so proxy alloc_replay voted_client layers timed_exec")

# alloc_intensive: each profile at its own Figure 5(a) allocation count,
# replayed ALLOC_PASSES times per process so the allocator, not process
# start-up, dominates the job; ALLOC_VARIANTS seeded streams per profile.
ALLOC_SCALE = 1.0
ALLOC_PASSES = 10
ALLOC_VARIANTS = 4
# Empty-process pairs behind the preload workloads' setup_s, spread over
# the measured time.
SETUP_PAIRS = 160
# tool_corpus: seeded input sets cycled through the rounds.
TOOL_VARIANTS = 2

# The voted proxy as users run it, with the paper's three replicas.
REPLICAS = 3
POOL_DEPTH = 2
# The voted workloads run their client in PROXY_SEGMENTS equal segments,
# each on a proxy started PROXY_SETUPS times just before it: the setup_s
# samples are spread over the whole run.
PROXY_SEGMENTS = 4
PROXY_SETUPS = 4
# voted_short: open-loop rate and request sizes (at most one 4 KiB
# barrier chunk, the proxy's default --chunk).
SHORT_RATE = 20
SHORT_MAX_BYTES = 4096
SHORT_ARGS = ["--rate", str(SHORT_RATE), "--max-bytes", str(SHORT_MAX_BYTES)]
# voted_bulk: request sizes streamed back to back by one client.
BULK_MIN_BYTES = 2 << 20
BULK_MAX_BYTES = 8 << 20
# Length of the open-loop probe that traced runs of the other workloads
# use for the proxy-side per-layer metrics.
PROBE_SECONDS = 3.0
# Separate `layers init` processes behind preload.init_ms.
INIT_SAMPLES = 7


class Result:
    def __init__(self, tracer):
        self.tracer = tracer
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.end_to_end = {}  # name -> (value, unit), the result line
        self.per_layer = {}
        self.report = {}      # name -> {"value", "unit"}, the report line
        self.notes = []

    def problem(self, msg):
        """An outcome the benchmark cannot attribute to a counted failure."""
        self.correct = False
        self.notes.append(msg)

    def put(self, name, value, unit, end_to_end=False):
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        self.report[name] = {"value": value, "unit": unit}
        if end_to_end:
            self.end_to_end[name] = (value, unit)


# ---------------------------------------------------------------- processes

Run = collections.namedtuple("Run", "wall_s rss_kb code output err")


def timed_run(bins, argv, extra_env, stdin_path, scratch):
    """Runs `argv` to completion through `timed_exec`, which times it and
    reads its `ru_maxrss`; `extra_env` applies to the child only. The
    output is the child's stdout, or the file it wrote at `{out}`."""
    out_file = None
    if any("{out}" in a for a in argv):
        out_file = os.path.join(scratch, "job.file")
        if os.path.exists(out_file):
            os.remove(out_file)
        argv = [a.replace("{out}", out_file) for a in argv]
    stdout_path = os.path.join(scratch, "job.stdout")
    stderr_path = os.path.join(scratch, "job.stderr")
    report = os.path.join(scratch, "job.report")
    launcher = [bins.timed_exec, "--report", report]
    for k, v in extra_env.items():
        launcher += ["--env", f"{k}={v}"]
    with open(stdin_path or os.devnull, "rb") as fin, \
            open(stdout_path, "wb") as fout, open(stderr_path, "wb") as ferr:
        subprocess.run(launcher + ["--"] + argv, stdin=fin, stdout=fout,
                       stderr=ferr, env=BASE_ENV, check=True)
    with open(report) as f:
        rep = dict(kv.split("=") for kv in f.read().split())
    path = out_file if out_file else stdout_path
    output = b""
    if os.path.exists(path):
        with open(path, "rb") as f:
            output = f.read()
    with open(stderr_path, "rb") as f:
        err = f.read()[-300:].decode(errors="replace")
    return Run(int(rep["wall_ns"]) / 1e9, int(rep["maxrss_kb"]), int(rep["status"]),
               output, err)


# Every job runs in the C locale with nothing preloaded unless asked.
BASE_ENV = {k: v for k, v in os.environ.items() if k != "LD_PRELOAD"}
BASE_ENV["LC_ALL"] = "C"


def _envs(bins, seed):
    """Extra environment of the glibc run and of DieHard run `job`."""
    def diehard(job):
        return {"LD_PRELOAD": bins.so,
                "DIEHARD_SEED": str((seed * 1_000_003 + job) % (1 << 63) + 1)}
    return {}, diehard


class PreloadSetup:
    """setup_s of the preload workloads: an empty process under LD_PRELOAD
    minus the same process under glibc, median of SETUP_PAIRS interleaved
    pairs. The pairs are spread over the whole measured time (`keep_up`),
    so the median covers every state the host passed through in the run
    rather than the first second of it."""

    def __init__(self, bins, seed, scratch):
        self.bins, self.scratch = bins, scratch
        self.envs = _envs(bins, seed)
        self.diffs = []

    def sample(self):
        glibc, diehard = self.envs
        i = len(self.diffs)
        t = {}
        for dh in ((False, True) if i % 2 == 0 else (True, False)):
            r = timed_run(self.bins, [self.bins.alloc_replay, "empty"],
                          diehard(i) if dh else glibc, None, self.scratch)
            if r.code != 0:
                raise SystemExit(f"perfbench: empty process failed (preload={dh}): {r.err}")
            t[dh] = r.wall_s
        self.diffs.append(t[True] - t[False])

    def keep_up(self, share):
        """Samples until `share` of the run's pairs are taken."""
        while len(self.diffs) < SETUP_PAIRS * min(share, 1.0):
            self.sample()

    def value(self):
        self.keep_up(1.0)
        return stats.median(self.diffs)


def run_pairs(res, bins, seed, jobs, block, seconds, scratch, check, setup):
    """Runs `jobs` (an endless iterator of `(name, argv, stdin)`) under
    glibc and DieHard, alternating which goes first, in whole blocks of
    `block` jobs until `seconds` have passed, with the `PreloadSetup`
    pairs `setup` spread between the jobs. Returns one record per job.

    `check(job_name, glibc_run)` returns an error for a glibc run the
    benchmark cannot trust; DieHard runs count as failed when they exit
    non-zero, die by a signal, or print anything other than glibc did.
    """
    glibc, diehard = _envs(bins, seed)
    tr = res.tracer
    records = []
    t0 = time.perf_counter()
    for k, (name, argv, stdin) in enumerate(jobs):
        if k % block == 0 and time.perf_counter() - t0 >= seconds:
            break
        root = tr.begin(f"job.{name}", trace_id=k)
        runs = {}
        # Which allocator goes first flips from job to job and, since a
        # block can hold an even number of jobs, again from block to block,
        # so every job runs in both orders.
        for dh in ((False, True) if (k + k // block) % 2 == 0 else (True, False)):
            sid = tr.begin("diehard.process" if dh else "glibc.process", root, k)
            runs[dh] = timed_run(bins, argv, diehard(k) if dh else glibc, stdin, scratch)
            tr.end(sid)
        tr.end(root)
        gl, dh = runs[False], runs[True]
        problem = check(name, gl)
        if problem:
            res.problem(f"job {k} ({name}): {problem}")
        ok = dh.code == 0 and dh.output == gl.output
        res.attempted += 1
        if not ok:
            res.failed += 1
            why = f"exit {dh.code}" if dh.code != 0 else "output differs from glibc"
            res.notes.append(f"job {k} ({name}) failed under DieHard: {why} {dh.err.strip()}"[:300])
        records.append({"name": name, "gl": gl, "dh": dh, "ok": ok})
        setup.keep_up((time.perf_counter() - t0) / seconds)
    return records


def pair_metrics(res, records, setup, e2e=True):
    """The metrics shared by both preload workloads."""
    sd = stats.slowdowns([(r["gl"].wall_s, r["dh"].wall_s, r["ok"]) for r in records])
    ok = [r for r in records if r["ok"]]
    dh_ms = [r["dh"].wall_s * 1e3 for r in ok]
    res.put("setup_s", setup.value(), "s", e2e)
    res.put("setup_pairs", len(setup.diffs), "count")
    put_slowdown(res, sd, e2e)
    if ok:
        res.put("peak_rss_ratio", stats.median(
            [r["dh"].rss_kb / r["gl"].rss_kb for r in ok]), "ratio")
        put_latency(res, dh_ms)
    else:
        res.problem("no job succeeded under DieHard")
    res.put("jobs", len(records), "count")


def put_slowdown(res, sd, e2e):
    res.put("slowdown_p50", stats.median(sd), "ratio", e2e)
    res.put("slowdown_p90", stats.quantile(sd, 0.9), "ratio")


def put_latency(res, values_ms):
    """Median and highest reportable tail of a latency sample."""
    res.put("p50_ms", stats.median(values_ms), "ms")
    t = stats.tail(values_ms)
    if t is None:
        # Too short a run for a tail; the tail is a report-only metric.
        res.notes.append(f"only {len(values_ms)} samples: no percentile has "
                         f"{stats.TAIL_BEYOND} samples beyond it")
        return
    q, v = t
    res.put("tail_ms", v, "ms")
    res.put("tail_quantile", q, "quantile")
    res.put("samples", len(values_ms), "count")


# ------------------------------------------------------------ alloc_intensive

ALLOC_LINE = re.compile(r"checksum=(\w+) mallocs=(\d+) frees=(\d+)")
REPLAY_NS = re.compile(r"replay_ns=(\d+)")


# The Figure 5(a) profiles, in the order of the helpers' FIG5A. lindsay is
# left out: its planted uninitialized read makes its output depend on the
# allocator.
PROFILES = ["cfrac", "espresso", "p2c", "roboop"]


def alloc_intensive(bins, seed, seconds, trace, scratch):
    inputs = []
    for v in range(ALLOC_VARIANTS):
        for i, p in enumerate(PROFILES):
            path = os.path.join(scratch, f"{p}-{v}.ops")
            subprocess.run([bins.alloc_replay, "emit", "--profile", p,
                            "--scale", str(ALLOC_SCALE),
                            "--seed", str(stream_seed(seed, v * len(PROFILES) + i)),
                            "--out", path], check=True)
            inputs.append((f"{p}.v{v}", [bins.alloc_replay, "run", "--input", path,
                               "--passes", str(ALLOC_PASSES)], None))
    expected = {}

    def check(name, gl):
        m = ALLOC_LINE.fullmatch(gl.output.decode(errors="replace").strip())
        if gl.code != 0 or not m:
            return f"glibc run failed (exit {gl.code}): {gl.err.strip()}"
        # The same input must give the same output under glibc every time.
        if expected.setdefault(name, gl.output) != gl.output:
            return "glibc output changed between runs of the same input"
        return None

    def measure(res, secs, e2e):
        setup = PreloadSetup(bins, seed, scratch)
        records = run_pairs(res, bins, seed, itertools.cycle(inputs), len(inputs),
                            secs, scratch, check, setup)
        pair_metrics(res, records, setup, e2e)
        calls = replay_ns = 0
        for r in records:
            m = ALLOC_LINE.fullmatch(r["dh"].output.decode(errors="replace").strip())
            t = REPLAY_NS.search(r["dh"].err)
            if r["ok"] and m and t:
                calls += int(m.group(2)) + int(m.group(3))
                replay_ns += int(t.group(1))
        if replay_ns:
            res.put("alloc_mops", calls / replay_ns * 1e3, "Mcalls/s")
        res.put("profile_scale", ALLOC_SCALE, "x")
        res.put("passes_per_job", ALLOC_PASSES, "count")
        return res

    return run_workload(bins, seed, seconds, trace, scratch, measure)


def stream_seed(seed, job):
    """The op-stream seed of input `job` of a run with seed `seed`."""
    x = (seed * 0x9E3779B97F4A7C15 + job + 1) % (1 << 64)
    x ^= x >> 31
    return (x * 0xBF58476D1CE4E5B9) % (1 << 64)


# ---------------------------------------------------------------- tool_corpus

def tool_corpus(bins, seed, seconds, trace, scratch):
    work = os.path.join(scratch, "corpus")
    rounds = [corpus.make_jobs(work, seed, v) for v in range(TOOL_VARIANTS)]
    jobs = [j for r in rounds for j in r]

    def check(name, gl):
        if gl.code != 0:
            return f"glibc run failed (exit {gl.code}): {gl.err.strip()}"
        return None

    def measure(res, secs, e2e):
        setup = PreloadSetup(bins, seed, scratch)
        records = run_pairs(res, bins, seed, itertools.cycle(jobs), len(rounds[0]),
                            secs, scratch, check, setup)
        pair_metrics(res, records, setup, e2e)
        for name in sorted({r["name"] for r in records}):
            mine = [r for r in records if r["name"] == name]
            sd = stats.slowdowns([(r["gl"].wall_s, r["dh"].wall_s, r["ok"]) for r in mine])
            res.put(f"slowdown.{name}", stats.median(sd), "ratio")
        return res

    return run_workload(bins, seed, seconds, trace, scratch, measure)


# -------------------------------------------------------------- voted proxy

STATS_LINE = re.compile(r"handed_out=(\d+) .*cold=(\d+)")


class Proxy:
    """One `diehard-proxy` process, its stderr collected by a thread."""

    def __init__(self, bins):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            # No --seed: as users run it, every replica set draws fresh
            # heap seeds, so a run averages over many heap layouts instead
            # of timing one set of three seeds 800 times.
            [bins.proxy, "-n", str(REPLICAS), "--pool", str(POOL_DEPTH),
             "--preload", bins.so, "--", "cat"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.lines = []
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        line = self.wait_line(lambda l: "listening on" in l, 30)
        m = re.search(r"127\.0\.0\.1:(\d+)", line or "")
        if not m:
            self.stop()
            raise SystemExit("perfbench: diehard-proxy did not start listening")
        self.port = int(m.group(1))

    def _read(self):
        for line in self.p.stderr:
            with self.cond:
                self.lines.append(line.strip())
                self.cond.notify_all()
        with self.cond:
            self.cond.notify_all()

    def wait_line(self, pred, timeout):
        """The first stderr line that satisfies `pred`, or None."""
        deadline = time.perf_counter() + timeout
        with self.cond:
            while True:
                for l in self.lines:
                    if pred(l):
                        return l
                left = deadline - time.perf_counter()
                if left <= 0 or self.p.poll() is not None:
                    return None
                self.cond.wait(left)

    def stats_lines(self):
        with self.cond:
            return [l for l in self.lines if STATS_LINE.search(l)]

    def wait_stats(self, n, timeout=10):
        """The `n`-th stats line as `(handed_out, cold)`, or None."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            s = self.stats_lines()
            if len(s) >= n:
                m = STATS_LINE.search(s[n - 1])
                return int(m.group(1)), int(m.group(2))
            with self.cond:
                self.cond.wait(0.05)
        return None

    def children(self):
        try:
            with open(f"/proc/{self.p.pid}/task/{self.p.pid}/children") as f:
                return [int(x) for x in f.read().split()]
        except OSError:
            return []

    def wait_children(self, n, timeout=20):
        deadline = time.perf_counter() + timeout
        while len(self.children()) < n:
            if time.perf_counter() > deadline or self.p.poll() is not None:
                return False
            time.sleep(0.001)
        return True

    def stop(self):
        """Kills the proxy and its parked replicas and waits for all."""
        kids = self.children()
        self.p.kill()
        self.p.wait()
        for pid in kids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.perf_counter() + 10
        for pid in kids:
            while time.perf_counter() < deadline and _alive(pid):
                time.sleep(0.005)
        self.reader.join(10)


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def echo(port, payload):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)
        got = bytearray()
        while chunk := s.recv(65536):
            got += chunk
    return bytes(got) == payload


def start_proxy(bins):
    """Starts a proxy and times it from exec until the first connection
    served from a warm replica set. Returns `(proxy, seconds)`."""
    px = Proxy(bins)
    seen = 0
    for attempt in range(50):
        # Ready means primed: every pool set forked, so the probe meets an
        # idle reactor rather than one blocked spawning the next set.
        if not px.wait_children(POOL_DEPTH * REPLICAS):
            break
        if not echo(px.port, b"perfbench warm probe %d\n" % attempt):
            break
        seen += 1
        st = px.wait_stats(seen)
        if st is None:
            break
        if st[0] >= 1:
            return px, time.perf_counter() - px.t0
    px.stop()
    raise SystemExit("perfbench: the proxy never served a warm connection")


def ready_proxy(bins):
    """PROXY_SETUPS timed start-ups; keeps the last proxy, pool full.
    Returns `(proxy, [seconds of each start-up])`."""
    setups = []
    for i in range(PROXY_SETUPS):
        px, s = start_proxy(bins)
        setups.append(s)
        if i < PROXY_SETUPS - 1:
            px.stop()
    px.wait_children(POOL_DEPTH * REPLICAS, timeout=10)
    return px, setups


def run_client(bins, px, mode, seed, seconds, extra):
    before = len(px.stats_lines())
    argv = [bins.voted_client, mode, "--port", str(px.port), "--seed", str(seed),
            "--millis", str(int(seconds * 1000))] + extra
    t_launch = time.perf_counter()
    p = subprocess.run(argv, capture_output=True, text=True, timeout=seconds + 120)
    if p.returncode != 0:
        raise SystemExit(f"perfbench: voted_client failed: {p.stderr[-500:]}")
    lines = [json.loads(l) for l in p.stdout.splitlines() if l.startswith("{")]
    recs = [r for r in lines if not r.get("ref")]
    refs = [r for r in lines if r.get("ref")]
    # One stats line per retired connection: the pool's warm handoffs and
    # cold spawns during this client are the difference across it.
    last = px.wait_stats(before + len(recs)) if recs else None
    prior = px.wait_stats(before) if before else (0, 0)
    pool = None
    if last and prior:
        pool = (last[0] - prior[0], last[1] - prior[1])
    return recs, refs, pool, t_launch


def hit_ratio(pool):
    """Warm handoffs over connections from `(handed_out, cold)`, or None."""
    return pool[0] / max(pool[0] + pool[1], 1) if pool else None


def voted_run(res, bins, mode, seed, seconds, extra):
    """Runs the client in PROXY_SEGMENTS equal segments, each on its own
    freshly started proxy, with its own seeded requests. Connection ids
    run on across segments. Returns `(records, references, pool hit ratio,
    setup_s)`, setup_s the median over every segment's start-ups."""
    setups, recs, refs = [], [], []
    pool = (0, 0)
    for seg in range(PROXY_SEGMENTS):
        px, s = ready_proxy(bins)
        setups += s
        try:
            r, f, p, launched = run_client(bins, px, mode, stream_seed(seed, seg),
                                           seconds / PROXY_SEGMENTS, extra)
        finally:
            px.stop()
        base = 1 + max((x["id"] for x in recs), default=-1)
        for x in r:
            x["id"] += base
        for x in f:
            x["pair"] += base
        conn_spans(res.tracer, r, launched - res.tracer.t0, base)
        recs += r
        refs += f
        pool = (pool[0] + p[0], pool[1] + p[1]) if pool and p else None
    return recs, refs, hit_ratio(pool), stats.median(setups)


def conn_spans(tr, recs, offset, base_id):
    """Post-hoc spans of client connections: due -> end, split into the
    generator's lag, connect, time to first byte and drain."""
    for i, r in enumerate(recs):
        def ns(key, r=r):
            return offset + r[key] / 1e9 if r.get(key) is not None else None
        root = tr.add("voted.connection", ns("due"), ns("end"), None, base_id + i)
        tr.add("bench.gen_lag", ns("due"), ns("start"), root, base_id + i)
        if r.get("connected") is not None:
            tr.add("proxy.connect", ns("start"), ns("connected"), root, base_id + i)
        if r.get("first") is not None:
            tr.add("proxy.ttfb", ns("connected"), ns("first"), root, base_id + i)
            tr.add("proxy.drain", ns("first"), ns("end"), root, base_id + i)


def count_conns(res, recs, refs):
    bad = [r for r in refs if not r["ok"]]
    if bad or not refs:
        res.problem(f"{len(bad)} of {len(refs)} reference echoes failed")
    for r in recs:
        res.attempted += 1
        if not r["ok"]:
            res.failed += 1
            res.notes.append(f"connection failed: {r.get('err')}"[:300])


def paired_slowdowns(res, recs, refs, latency_ns):
    """Each connection's latency over its own reference echo (the same
    request through one direct `cat`). A connection the client found no
    idle gap for uses the run's median reference instead."""
    own = {r["pair"]: r["end"] - r["start"] for r in refs}
    med = stats.median(list(own.values()) or [math.nan])
    res.put("reference_ms", med / 1e6, "ms")
    res.put("paired_share", sum(r["id"] in own for r in recs) / max(len(recs), 1), "share")
    return stats.slowdowns([(own.get(r["id"], med), lat, r["ok"])
                            for r, lat in zip(recs, latency_ns)])


def stage_metrics(res, recs, hit):
    ok = [r for r in recs if r["ok"] and r.get("first") is not None]
    if not ok:
        return
    res.put("proxy.connect_us", stats.median(
        [(r["connected"] - r["start"]) / 1e3 for r in ok]), "us")
    res.put("proxy.ttfb_ms", stats.median(
        [(r["first"] - r["connected"]) / 1e6 for r in ok]), "ms")
    res.put("proxy.drain_ms", stats.median(
        [(r["end"] - r["first"]) / 1e6 for r in ok]), "ms")
    if hit is not None:
        res.put("pool.hit_ratio", hit, "ratio")


def gen_lag_metric(res, recs):
    lag = [v / 1e6 for v in stats.generator_lag(recs)]
    t = stats.tail(lag) or (1.0, max(lag))
    res.put("bench.gen_lag_p99_ms", t[1], "ms")


def voted_short(bins, seed, seconds, trace, scratch):
    def measure(res, secs, e2e):
        recs, refs, hit, setup = voted_run(res, bins, "short", seed, secs, SHORT_ARGS)
        count_conns(res, recs, refs)
        lat = stats.open_loop_latencies(recs)
        res.put("setup_s", setup, "s", e2e)
        put_slowdown(res, paired_slowdowns(res, recs, refs, lat), e2e)
        put_latency(res, [v / 1e6 for r, v in zip(recs, lat) if r["ok"]])
        if "p50_ms" in res.report:
            res.put("conn_p50_ms", res.report["p50_ms"]["value"], "ms")
        if "tail_ms" in res.report:
            res.put("conn_p99_ms", res.report["tail_ms"]["value"], "ms")
        res.put("rate", SHORT_RATE, "conn/s")
        stage_metrics(res, recs, hit)
        if recs:
            gen_lag_metric(res, recs)
        return res

    return run_workload(bins, seed, seconds, trace, scratch, measure)


def voted_bulk(bins, seed, seconds, trace, scratch):
    def measure(res, secs, e2e):
        recs, refs, hit, setup = voted_run(
            res, bins, "bulk", seed, secs,
            ["--min-bytes", str(BULK_MIN_BYTES), "--max-bytes", str(BULK_MAX_BYTES)])
        count_conns(res, recs, refs)
        ok = [r for r in recs if r["ok"]]
        res.put("setup_s", setup, "s", e2e)
        put_slowdown(res, paired_slowdowns(
            res, recs, refs, [r["end"] - r["start"] for r in recs]), e2e)
        put_latency(res, [(r["end"] - r["start"]) / 1e6 for r in ok])
        busy_ns = sum(r["end"] - r["start"] for r in ok)
        if busy_ns:
            res.put("bulk_MBps", sum(r["bytes"] for r in ok) / busy_ns * 1e3, "MB/s")
        stage_metrics(res, recs, hit)
        return res

    return run_workload(bins, seed, seconds, trace, scratch, measure)


# ------------------------------------------------------------- traced layers

PER_LAYER_UNITS = {
    "engine.pair_ns": "ns", "engine.probes_per_alloc": "probes",
    "sharded.pair_ns": "ns", "sharded.probes_per_alloc": "probes",
    "magazine.pair_ns": "ns", "preload.pair_ns": "ns", "glibc.pair_ns": "ns",
    "preload.vs_glibc": "ratio", "preload.calloc_ns": "ns",
    "preload.realloc_ns": "ns", "preload.large_pair_ns": "ns",
    "glibc.large_pair_ns": "ns", "preload.large_live_limit": "count",
    "preload.class_live_mb_limit": "MiB", "preload.init_ms": "ms",
    "pool.prime_set_ms": "ms", "pool.take_us": "us", "pool.hit_ratio": "ratio",
    "session.spawn_ms": "ms", "session.broadcast_us": "us",
    "session.replica_wait_us": "us", "session.pump_us": "us",
    "session.peak_buffered_kb": "KiB", "voter.vote_ns_per_kb": "ns/KiB",
    "voter.divergent_vote_ns_per_kb": "ns/KiB", "proxy.connect_us": "us",
    "proxy.ttfb_ms": "ms", "proxy.drain_ms": "ms",
    "bench.gen_lag_p99_ms": "ms", "bench.trace_overhead_pct": "%",
}


def helper(tr, argv, parent):
    """Runs one `layers` subcommand and adopts its spans under `parent`,
    all sharing one id: the subcommand's name."""
    offset = tr.now()
    p = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(argv[:2])} failed: {p.stderr[-500:]}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    tr.adopt(out.pop("spans", []), offset, parent, f"layers.{argv[1]}")
    return out


def layer_probes(res, bins, seed, workload):
    tr = res.tracer
    root = tr.begin("layers")
    lb = bins.layers
    inits = [helper(tr, [lb, "init", "--so", bins.so], root)["preload.init_ns"] / 1e6
             for _ in range(INIT_SAMPLES)]
    res.put("preload.init_ms", stats.median(inits), "ms")
    # The same op streams as alloc_intensive's first input of each profile.
    seeds = ",".join(str(stream_seed(seed, i)) for i in range(len(PROFILES)))
    for argv in ([lb, "alloc", "--so", bins.so, "--seeds", seeds,
                  "--scale", str(ALLOC_SCALE)],
                 [lb, "limits", "--so", bins.so],
                 [lb, "replicate", "--so", bins.so, "--seed", str(seed)]):
        for k, v in helper(tr, argv, root).items():
            if k in PER_LAYER_UNITS:
                res.put(k, v, PER_LAYER_UNITS[k])
            elif k == "failed_allocs" and v:
                res.problem(f"{int(v)} allocations failed in the layer replay")
    if workload != "voted_short":
        # The open-loop generator's lag (and, off the voted workloads, the
        # proxy's stage split) comes from a short probe at the same rate.
        px = Proxy(bins)
        try:
            px.wait_children(POOL_DEPTH * REPLICAS, timeout=10)
            recs, _, pool, launched = run_client(
                bins, px, "short", seed, PROBE_SECONDS, SHORT_ARGS)
        finally:
            px.stop()
        conn_spans(tr, recs, launched - tr.t0, 1 << 20)
        bad = [r for r in recs if not r["ok"]]
        if bad:
            res.problem(f"{len(bad)} probe connections failed: {bad[0].get('err')}")
        gen_lag_metric(res, recs)
        if workload != "voted_bulk":
            stage_metrics(res, recs, hit_ratio(pool))
    tr.end(root)


# ---------------------------------------------------------------- dispatch

def run_workload(bins, seed, seconds, trace, scratch, measure):
    """Untraced: one measured pass. Traced: an untraced and a traced pass
    of half the time each (their p50 gap is the tracing overhead), then
    the layer probes."""
    if not trace:
        return measure(Result(Tracer(False)), seconds, True)
    plain = measure(Result(Tracer(False)), seconds / 2, False)
    res = measure(Result(Tracer(True)), seconds / 2, False)
    if not plain.correct:
        res.problem("untraced pass: " + "; ".join(plain.notes[:3]))
    res.attempted += plain.attempted
    res.failed += plain.failed
    base, traced = plain.report.get("slowdown_p50"), res.report.get("slowdown_p50")
    if base and traced and base["value"]:
        res.put("bench.trace_overhead_pct",
                (traced["value"] / base["value"] - 1) * 100, "%")
    return res


def finish(workload):
    def run(bins, seed, seconds, trace, scratch):
        res = workload(bins, seed, seconds, trace, scratch)
        if trace:
            layer_probes(res, bins, seed, workload.__name__)
            for name, unit in PER_LAYER_UNITS.items():
                if name in res.report and res.report[name]["value"] is not None:
                    res.per_layer[name] = (res.report[name]["value"], unit)
                else:
                    res.problem(f"per-layer metric {name} was not measured")
        elif res.correct and len(res.end_to_end) != len(E2E):
            res.problem("missing end-to-end metrics: "
                        f"{sorted(set(E2E) - set(res.end_to_end))}")
        if res.attempted == 0:
            res.problem("nothing was attempted")
        return res
    return run


E2E = ("setup_s", "slowdown_p50")

WORKLOADS = {w.__name__: finish(w)
             for w in (alloc_intensive, tool_corpus, voted_short, voted_bulk)}
