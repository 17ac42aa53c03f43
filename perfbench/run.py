#!/usr/bin/env python3
"""The repo benchmark: drives the real datalog-unchained binary.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the CLI and the in-process layer timer from source (dune, into
.bench_build/), writes the workload's seeded inputs under .bench_work/,
and measures for about S seconds.  Every workload runs both surfaces on
its own data: ``run`` as a batch process at -j 1 and -j 2, and a
``serve`` child process driven by one client in a closed loop over one
Unix-socket connection.  Every output is checked against an oracle in
workloads.py.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from the layer timer (perfbench/layers) plus a "where the time
goes" table.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the metric table.
"""

import argparse
import bisect
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
CLI = ROOT / BUILD_DIR / "default" / "bin" / "datalog_cli.exe"
LAYERS = ROOT / BUILD_DIR / "default" / "perfbench" / "layers" / "layers.exe"
WORK = ROOT / ".bench_work"

BATCH_TIMEOUT = 170.0
START_TIMEOUT = 120.0
REQUEST_TIMEOUT = 60.0

# seconds of closed loop per second of batch run, round by round
SERVE_PER_BATCH = {"social-ingest": 1.0, "serve-mixed": 2.3}
# cold starts of serve, spread evenly over a run
COLD_STARTS = 12
# the speed probe runs every PROBE_EVERY seconds; a sample is scaled by
# (PROBE_REF_S / the median probe time within PROBE_NEAR_S of it) to the
# power SPEED_EXP
PROBE_EVERY, PROBE_NEAR_S, PROBE_REF_S, SPEED_EXP = 0.25, 1.5, 0.008, 0.8
BATCH_REPS_TRACED = 3
CHECK_EVERY = 4  # oracle-check every 4th materialized query (all other
#                  requests are checked in full)
REPLAY_OPS = 600  # schedule prefix replayed in-process by --trace 1

END_TO_END = {
    "run_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "query_p50_us": "us",
    "demand_query_p50_us": "us", "assert_p50_us": "us", "retract_p50_us": "us",
    "ops_per_s": "1/s",
}

PER_LAYER = {
    "parser.parse_ms": "ms", "instance.parse_facts_ms": "ms",
    "instance.parse_ns_per_fact": "ns", "intern.values": "count",
    "intern.hits": "count", "eval_ms": "ms", "fixpoint.round_ms": "ms",
    "eval.outside_rounds_ms": "ms", "fixpoint.rounds": "count",
    "fixpoint.tuples_derived": "count", "fixpoint.tuples_deduped": "count",
    "fixpoint.useful_frac": "ratio", "matcher.candidates": "count",
    "matcher.substs": "count", "matcher.selectivity": "ratio",
    "db.index_builds": "count", "db.index_memo_hits": "count",
    "print_ms": "ms", "print.bytes": "bytes", "par.eval_ms": "ms",
    "par.exchange_ms": "ms", "par.exchanged_tuples": "count",
    "par.shard_skew": "pct", "par.tasks": "count",
    "par.pool.fallbacks": "count", "gc.minor_mwords": "Mwords",
    "gc.major_collections": "count", "gc.top_heap_mb": "MB",
    "process.unattributed_ms": "ms", "attributed_frac": "ratio",
    "trace_overhead_frac": "ratio", "protocol.parse_request_us": "us",
    "parser.parse_atom_us": "us", "instance.batch_parse_us": "us",
    "engine.query_us": "us", "protocol.serialize_us": "us",
    "engine.assert_us": "us", "engine.retract_us": "us",
    "engine.demand_query_us": "us", "engine.create_ms": "ms",
    "daemon.handle_us": "us", "transport_us": "us",
    "serve.answer_facts": "count", "dred.overdeleted": "count",
    "dred.rederived": "count", "dred.rederive_frac": "ratio",
    "demand.cache.hits": "count", "demand.cache.misses": "count",
    "demand.plan.compiled": "count", "demand.rounds": "count",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics --------------------------------------------------------------

def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise BenchError("no samples")
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def percentile(xs, q):
    """Linear interpolation between closest ranks."""
    s = sorted(xs)
    if not s:
        raise BenchError("no samples")
    k = (len(s) - 1) * q
    i = int(k)
    return s[i] if i + 1 >= len(s) else s[i] + (s[i + 1] - s[i]) * (k - i)


class Tally:
    """Operations attempted and failed; a failure is a non-zero exit, an
    output that differs from the oracle, ok:false, or a wrong answer or
    count."""

    def __init__(self, corrupt=False):
        self.attempted = self.failed = 0
        self.corrupt = corrupt  # test hook: damage every checked output
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)
                log("FAILED: " + what)
        return ok

    def damage(self, data):
        if not self.corrupt:
            return data
        if isinstance(data, (bytes, str)):
            return data[:-2] if len(data) > 2 else data + data[:1]
        if isinstance(data, set):
            return data | {"X(corrupt)."}
        return data


# --- processes ----------------------------------------------------------------

CHILDREN = set()


def spawn(cmd, **kw):
    p = subprocess.Popen([str(c) for c in cmd], **kw)
    CHILDREN.add(p)
    return p


def reap(p, timeout):
    """Wait for p (killing it after ``timeout`` s); returns (exit code,
    peak RSS in KB) from wait4's rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            p.kill()
            _, status, ru = os.wait4(p.pid, 0)
            break
        time.sleep(0.002)
    p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.discard(p)
    return p.returncode, ru.ru_maxrss


def kill_children():
    for p in list(CHILDREN):
        try:
            p.kill()
            reap(p, 5)
        except (OSError, ChildProcessError):
            pass


def run_batch(work, batch, jobs):
    """One ``run`` process, stdout drained through a pipe: (wall s, exit
    code, stdout bytes, peak RSS KB)."""
    cmd = [CLI, "run", "-s", batch.engine, "-j", str(jobs), "batch.dl", "-f",
           "batch.facts"]
    if batch.answer:
        cmd += ["-a", batch.answer]
    with open(work / "run.err", "wb") as err:
        t0 = time.perf_counter()
        p = spawn(cmd, cwd=work, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(BATCH_TIMEOUT, p.kill)
        watchdog.start()
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.discard(p)
    return wall, p.returncode, out, ru.ru_maxrss


class ServerGone(Exception):
    pass


class Server:
    """A ``serve`` child on a Unix socket under ``work``, with one client
    connection.  ``close`` always leaves the child reaped and the socket
    file removed, killing a child that does not shut down."""

    def __init__(self, work, cmd=None, start_timeout=START_TIMEOUT,
                 request_timeout=REQUEST_TIMEOUT):
        self.sock_path = os.path.relpath(work / "srv.sock")
        if os.path.lexists(self.sock_path):
            os.unlink(self.sock_path)
        self.sock = self.rfile = None
        self.alive = True
        if cmd is None:
            cmd = [CLI, "serve", "serve.dl", "-f", "serve.facts", "--socket",
                   "srv.sock"]
        self.t0 = time.perf_counter()
        self.err = open(work / "serve.err", "wb")
        self.proc = spawn(cmd, cwd=work, stdout=subprocess.PIPE,
                          stderr=self.err)
        try:
            self._await_listening(start_timeout)
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(request_timeout)
            self.sock.connect(self.sock_path)
            self.rfile = self.sock.makefile("rb")
        except BaseException:
            self.close(graceful=False)
            raise

    def _await_listening(self, timeout):
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ServerGone("serve did not start within %.0f s" % timeout)
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise ServerGone("serve exited before listening")
                buf += chunk
        if not buf.startswith(b"listening on"):
            raise ServerGone("unexpected serve banner %r" % buf[:80])

    def request(self, line):
        """Send one request line; (round-trip seconds, response object)."""
        t0 = time.perf_counter()
        try:
            self.sock.sendall(line.encode())
            resp = self.rfile.readline()
        except OSError as e:  # includes socket timeouts
            raise ServerGone("request failed: %s" % e) from e
        dt = time.perf_counter() - t0
        if not resp:
            raise ServerGone("server closed the connection")
        return dt, json.loads(resp)

    def close(self, graceful=True):
        """Shut the child down; (exit code, peak RSS KB)."""
        if graceful and self.sock is not None:
            try:
                self.sock.settimeout(5)
                self.sock.sendall(b'{"op":"shutdown"}\n')
                self.rfile.readline()
            except OSError:
                pass
        for f in (self.rfile, self.sock, self.proc.stdout):
            if f is not None:
                f.close()
        try:
            return reap(self.proc, 10 if graceful else 0)
        finally:
            self.err.close()
            if os.path.lexists(self.sock_path):
                os.unlink(self.sock_path)


# --- inputs ---------------------------------------------------------------------

def prepare(name, seed, scale):
    batch, serve = W.build(name, seed, scale)
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    for fname, text in (("batch.dl", batch.program), ("batch.facts", batch.facts),
                        ("serve.dl", serve.program), ("serve.facts", serve.facts)):
        (work / fname).write_text(text)
    return work, batch, serve


def build():
    # no shared dune cache: the build writes only under BUILD_DIR
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=str(ROOT / BUILD_DIR / "cache"))
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./bin/datalog_cli.exe",
           "./perfbench/layers/layers.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e) from e
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace")[-3000:])


# --- the batch part --------------------------------------------------------------

class Batches:
    """``run`` processes at each job count, with their walls and peak RSS."""

    def __init__(self, work, batch, tally, jobs_list=(1,), tick=None):
        self.work, self.batch, self.tally = work, batch, tally
        self.tick = tick or (lambda: None)  # called before each run
        self.expected = batch.expected.encode()
        self.walls = {j: [] for j in jobs_list}
        self.starts = []  # perf_counter at the start of each run
        self.rss = []

    def rep(self):
        """One run at each job count, in turn."""
        for jobs, walls in self.walls.items():
            self.tick()
            self.starts.append(time.perf_counter())
            wall, code, out, kb = run_batch(self.work, self.batch, jobs)
            walls.append(wall)
            self.rss.append(kb)
            self.tally.check(code == 0, "run -j %d exited %d" % (jobs, code))
            self.tally.check(self.tally.damage(out) == self.expected,
                             "run -j %d output differs from the oracle" % jobs)


# --- the serve part --------------------------------------------------------------

KINDS = ("query", "demand", "assert", "retract")


def check_answer(tally, resp, expected, what):
    expected = tally.damage(expected)
    ok = (resp.get("ok") is True and resp.get("count") == len(expected)
          and set(resp.get("facts", ())) == expected)
    return tally.check(ok, what)


def check_write(tally, kind, resp, arg):
    field = "added" if kind == "assert" else "removed"
    n = resp.get(field) if resp.get("ok") is True else None
    if tally.corrupt:
        n = None
    return tally.check(n == 1, "%s %s: %s" % (kind, arg, resp))


def start(work, serve, tally, oracle):
    """Spawn ``serve`` and answer one probe query: (server, setup s)."""
    srv = Server(work)
    _, resp = srv.request(W.request("query", serve.atom(serve.probe)))
    setup = time.perf_counter() - srv.t0
    check_answer(tally, resp, oracle.answer(serve.probe), "probe query")
    return srv, setup


def stop(srv, tally):
    code, kb = srv.close()
    tally.check(code == 0, "serve exited %d" % code)
    return kb


class Session:
    """The closed loop: one server, one connection, the workload's request
    schedule sent one request at a time, checked against the oracle."""

    def __init__(self, work, serve, tally, tick=None):
        self.serve, self.tally = serve, tally
        self.tick = tick or (lambda: None)  # called before each request
        self.oracle = serve.oracle()
        self.srv, self.setup = start(work, serve, tally, self.oracle)
        self.requests = serve.requests()
        self.rtt = {k: [] for k in KINDS}
        self.log = []  # (perf_counter at send, kind, round trip s)
        self.sent = []
        self.queries = 0

    def until(self, deadline, max_ops=None):
        """Send requests until ``deadline`` (or ``max_ops`` in total)."""
        while self.srv.alive and time.perf_counter() < deadline and not (
                max_ops and len(self.sent) >= max_ops):
            self.tick()
            kind, arg, line = next(self.requests)
            t = time.perf_counter()
            try:
                dt, resp = self.srv.request(line)
            except ServerGone as e:
                self.tally.check(False, "%s: %s" % (line.strip(), e))
                self.srv.alive = False
                return
            self.rtt[kind].append(dt)
            self.log.append((t, kind, dt))
            self.sent.append(line)
            if kind in ("assert", "retract"):
                check_write(self.tally, kind, resp, arg)
                self.oracle.apply(kind, arg)
            elif kind == "demand" or self.queries % CHECK_EVERY == 0:
                check_answer(self.tally, resp, self.oracle.answer(arg),
                             "%s %s" % (kind, line.strip()))
            else:
                self.tally.check(resp.get("ok") is True, "query %s" % line.strip())
            self.queries += kind == "query"

    def close(self):
        """Check the whole view, stop the server; its peak RSS in KB."""
        try:
            if self.srv.alive:
                _, resp = self.srv.request(W.request("query", self.serve.view_atom))
                check_answer(self.tally, resp, self.oracle.view(), "final view")
        finally:
            return stop(self.srv, self.tally)


# --- --trace 0 ---------------------------------------------------------------------

def probe_kernel():
    """A fixed piece of Python work (hashing and storing small tuples, a
    sort, string formatting) that shares no code with the program: its
    time tracks the host's speed at the moment."""
    t0 = time.perf_counter()
    d = {}
    for i in range(5000):
        d[(i * 7919) % 3001, i & 255] = i
    "".join("T(v%d, v%d).\n" % k for k, _ in sorted(d.items())[:1000])
    return time.perf_counter() - t0


class Probe:
    """Runs probe_kernel when PROBE_EVERY seconds have passed since the
    last time; ``samples`` holds (perf_counter, kernel s)."""

    def __init__(self):
        self.samples = []
        self.due = 0.0

    def tick(self):
        now = time.perf_counter()
        if now >= self.due:
            self.samples.append((now, probe_kernel()))
            self.due = time.perf_counter() + PROBE_EVERY


def speed_scale(probes, ts, near=PROBE_NEAR_S, exp=SPEED_EXP):
    """For each time in ``ts``, (PROBE_REF_S / the median probe time
    within ``near`` s of it) ** ``exp``; with no probe that near, the
    first probe after it (or the last probe) stands in."""
    at = [t for t, _ in probes]
    out = []
    for t in ts:
        lo, hi = bisect.bisect_left(at, t - near), bisect.bisect_right(at, t + near)
        if lo == hi:
            i = min(bisect.bisect_left(at, t), len(at) - 1)
            lo, hi = i, i + 1
        out.append((PROBE_REF_S / median([dt for _, dt in probes[lo:hi]])) ** exp)
    return out


def reduce(data, near=PROBE_NEAR_S, exp=SPEED_EXP):
    """The timed metrics of one run from its raw samples (see
    end_to_end): each sample scaled by speed_scale, then medians."""
    probes = data["probes"]
    walls = [w * f for w, f in zip(data["walls"], speed_scale(probes, data["starts"], near, exp))]
    setups = [x * f for x, f in zip(data["setups"], speed_scale(
        probes, data["setup_at"], near, exp))]
    log = data["log"]
    scale = speed_scale(probes, [t for t, _, _ in log], near, exp)
    per = {k: [] for k in KINDS}
    for (_, kind, dt), f in zip(log, scale):
        per[kind].append(dt * f)
    return {
        "run_s": median(walls),
        "setup_s": median(setups),
        "query_p50_us": median(per["query"]) * 1e6,
        "demand_query_p50_us": median(per["demand"]) * 1e6,
        "assert_p50_us": median(per["assert"]) * 1e6,
        "retract_p50_us": median(per["retract"]) * 1e6,
        "ops_per_s": len(log) / sum(sum(v) for v in per.values()),
    }


def end_to_end(name, work, batch, serve, tally, seconds):
    """Rounds until ``seconds`` are up.  A round is one ``run`` process,
    then the closed loop for SERVE_PER_BATCH[name] times that run's wall;
    COLD_STARTS times in a run, evenly spread, a round also starts another
    server cold and stops it.  So every metric samples the whole run.

    The host is shared: other tenants slow the program by up to half, in
    spells from seconds to minutes, and every timing moves with them.  So
    the speed probe runs every PROBE_EVERY seconds, between batch runs and
    between requests, and every time is scaled by the probe times around
    it (see speed_scale): times are reported at the probe's reference
    speed.  The benchmark and everything it starts run on one CPU, so the
    probe and the program share a core.  The raw samples go to
    samples.json in the work directory."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    t_end = t0 + seconds
    probe = Probe()
    batches = Batches(work, batch, tally, tick=probe.tick)
    probe.tick()
    setup_at = [time.perf_counter()]
    session = Session(work, serve, tally, tick=probe.tick)
    setup_s, serve_rss = [session.setup], []
    try:
        while time.perf_counter() < t_end:
            batches.rep()
            if len(setup_s) <= COLD_STARTS * (time.perf_counter() - t0) / seconds:
                probe.tick()
                setup_at.append(time.perf_counter())
                srv, s = start(work, serve, tally, serve.oracle())
                setup_s.append(s)
                serve_rss.append(stop(srv, tally))
            session.until(min(t_end, time.perf_counter()
                              + batches.walls[1][-1] * SERVE_PER_BATCH[name]))
        probe.tick()
    finally:
        serve_rss.append(session.close())
    data = {"walls": batches.walls[1], "starts": batches.starts, "setups": setup_s,
            "setup_at": setup_at, "log": session.log, "probes": probe.samples}
    (work / "samples.json").write_text(json.dumps(data))
    print("samples: run %d, setup %d, %s, probes %d (median %.2f ms)" % (
        len(batches.walls[1]), len(setup_s),
        ", ".join("%s %d" % (k, len(v)) for k, v in session.rtt.items()),
        len(probe.samples), median([dt for _, dt in probe.samples]) * 1e3))
    values = reduce(data)
    values["peak_rss_mb"] = max(median(batches.rss), median(serve_rss)) / 1024
    return values


# --- --trace 1 ----------------------------------------------------------------------

def layers(*args):
    r = subprocess.run([str(LAYERS)] + [str(a) for a in args],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=BATCH_TIMEOUT)
    if r.returncode != 0:
        raise BenchError("layers %s failed:\n%s" % (args[0], r.stderr.decode()[-2000:]))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def per_layer(name, work, batch, serve, tally):
    # the CLI wall and the in-process layer calls, alternated and reduced
    # to medians, so that the layers can be attributed against the wall
    batches = Batches(work, batch, tally, jobs_list=(1,))
    runs = []
    for _ in range(BATCH_REPS_TRACED):
        batches.rep()
        runs.append(layers("batch", work / "batch.dl", work / "batch.facts",
                           batch.engine, batch.answer or "-"))
        tally.check(runs[-1]["print.bytes"] == len(batches.expected),
                    "layer render differs in size from the CLI output")
    m = {k: median([r[k] for r in runs]) for k in runs[0]}
    run_ms = median(batches.walls[1]) * 1e3
    parts = [("parse (Parser)", m["parser.parse_ms"]),
             ("load (Instance.parse_facts)", m["instance.parse_facts_ms"]),
             ("eval: fixpoint rounds", m["fixpoint.round_ms"]),
             ("eval: outside rounds", m["eval.outside_rounds_ms"]),
             ("print (Instance.pp)", m["print_ms"])]
    attributed = sum(v for _, v in parts)
    m["process.unattributed_ms"] = run_ms - attributed
    m["attributed_frac"] = attributed / run_ms

    # one real session for the client-side round trip, then the same
    # request lines replayed in-process
    session = Session(work, serve, tally)
    try:
        session.until(float("inf"), max_ops=REPLAY_OPS)
    finally:
        session.close()
    (work / "replay.txt").write_text("".join(session.sent))
    m.update(layers("serve", work / "serve.dl", work / "serve.facts",
                    work / "replay.txt"))
    query_rtt = median(session.rtt["query"]) * 1e6
    m["transport_us"] = query_rtt - m["daemon.handle_us"]

    rows = [("batch: run -j 1 (%s)" % name, run_ms)] + parts + [
        ("unattributed (process, file read, stdout)", m["process.unattributed_ms"])]
    print("where the time goes, %s, batch (ms; rows sum to the process wall)" % name)
    for label, v in rows:
        print("  %-44s %10.2f  %5.1f%%" % (label, v, 100 * v / run_ms))
    print("where the time goes, %s, serve query (us, medians)" % name)
    for label, v in (("client round trip", query_rtt),
                     ("Daemon.handle", m["daemon.handle_us"]),
                     ("  Protocol.parse_request", m["protocol.parse_request_us"]),
                     ("  Parser.parse_atom", m["parser.parse_atom_us"]),
                     ("  Engine.query", m["engine.query_us"]),
                     ("  serialize (Pretty.pp_fact + ok_response)",
                      m["protocol.serialize_us"]),
                     ("transport (socket + client)", m["transport_us"])):
        print("  %-44s %10.2f" % (label, v))
    return m


# --- main ----------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(W.SIZES), default="full",
                    help="input sizes; tiny is for the benchmark's own tests")
    ap.add_argument("--corrupt", action="store_true",
                    help="test hook: damage every output before it is checked")
    ap.add_argument("--no-build", action="store_true")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    try:
        if not args.no_build:
            build()
        if not (CLI.exists() and LAYERS.exists()):
            raise BenchError("binaries missing under %s" % BUILD_DIR)
        work, batch, serve = prepare(args.workload, args.seed, args.scale)
        tally = Tally(corrupt=args.corrupt)
        if args.trace:
            values = per_layer(args.workload, work, batch, serve, tally)
            units = PER_LAYER
        else:
            values = end_to_end(args.workload, work, batch, serve, tally,
                                args.seconds)
            units = END_TO_END
    except (BenchError, ServerGone) as e:
        log("benchmark error: %s" % e)
        return 1
    finally:
        kill_children()
    values["failed_frac"] = tally.failed / max(1, tally.attempted)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
