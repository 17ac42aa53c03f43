#!/usr/bin/env python3
"""The benchmark's own tests, at tiny input sizes.

    python3 perfbench/test_perfbench.py

Builds the program like run.py does, then checks that every named metric
is emitted with its unit on each workload, that inputs are a function of
the seed, that seeds share one DAG shape, that the writes of a schedule
leave that graph in place, that samples are scaled by the probes near
them, that a corrupted output is counted as a failure, and that a hung,
crashed or silent ``serve`` child is killed and its socket removed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--scale",
           "tiny", "--no-build"] + list(args)
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=170)
    return r.returncode, r.stdout.decode()


def result(*args):
    code, out = bench(*args)
    if code != 0:
        raise AssertionError("run.py %s exited %d" % (" ".join(args), code))
    return json.loads(out.strip().splitlines()[-1])


# a stand-in server: binds the socket, announces it, then misbehaves
FAKE_SERVER = r"""
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.bind("srv.sock"); s.listen(1)
print("listening on srv.sock", flush=True)
conn, _ = s.accept()
if sys.argv[1] == "crash":
    conn.recv(100)
    sys.exit(3)
time.sleep(600)
"""


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        run.build()
        cls.work = run.WORK / "selftest"
        cls.work.mkdir(parents=True, exist_ok=True)

    def test_every_metric_with_its_unit_on_every_workload(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                res = result("--workload", w["name"], "--seed", "3", "--trace", str(trace))
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], (w["name"], trace))
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, (w["name"], trace))
                if trace == 0:
                    for k, v in res["metrics"].items():
                        self.assertGreater(v["value"], 0, (w["name"], k))

    def test_seed_determines_inputs(self):
        def inputs(name, seed, scale="tiny"):
            batch, serve = W.build(name, seed, scale)
            reqs = serve.requests()
            lines = [next(reqs)[2] for _ in range(200)]
            return (batch.program, batch.facts, batch.expected, serve.program,
                    serve.facts, lines)

        for name in W.NAMES:
            self.assertEqual(inputs(name, 7), inputs(name, 7), name)
            self.assertNotEqual(inputs(name, 7), inputs(name, 8), name)
        self.assertEqual(inputs("serve-mixed", 7, "full"), inputs("serve-mixed", 7, "full"))

    def test_writes_leave_the_drawn_graph_in_place(self):
        _, serve = W.build("serve-mixed", 5, "tiny")
        base = set(serve.edges)
        live = set(base)
        reqs = serve.requests()
        for _ in range(3000):
            kind, arg, _ = next(reqs)
            if kind == "assert":
                self.assertNotIn(arg, live)
                live.add(arg)
            elif kind == "retract":
                self.assertIn(arg, live)
                self.assertNotIn(arg, base)
                live.remove(arg)
            self.assertLessEqual(len(live - base), W.TEMP_EDGES + 1)
        self.assertLessEqual(base, live)

    def test_seeds_share_the_dag_shape_and_name_it_apart(self):
        _, a = W.build("serve-mixed", 1, "tiny")
        _, b = W.build("serve-mixed", 2, "tiny")
        self.assertEqual(a.edges, b.edges)
        self.assertNotEqual(a.names, b.names)
        self.assertEqual(sorted(a.names), sorted(b.names))

    def test_speed_scale_follows_the_nearby_probes(self):
        ref = run.PROBE_REF_S
        probes = [(0.0, ref), (0.5, ref), (10.0, 2 * ref)]
        near, mid, slow = run.speed_scale(probes, [0.2, 5.0, 10.0], near=1.0, exp=0.8)
        self.assertAlmostEqual(near, 1.0)
        self.assertAlmostEqual(slow, 0.5 ** 0.8)
        # no probe within 1 s: the nearest one after it counts
        self.assertAlmostEqual(mid, 0.5 ** 0.8)

    def test_corrupted_output_counts_as_failure(self):
        for name in W.NAMES:
            res = result("--workload", name, "--seed", "3", "--corrupt")
            self.assertFalse(res["correct"], name)
            self.assertGreater(res["failed"], 0, name)
            self.assertLessEqual(res["failed"], res["attempted"], name)

    def fake(self, mode, **kw):
        return run.Server(self.work, cmd=[sys.executable, "-c", FAKE_SERVER, mode], **kw)

    def assert_cleaned(self, srv):
        self.assertIsNotNone(srv.proc.returncode)
        self.assertNotIn(srv.proc, run.CHILDREN)
        self.assertFalse(os.path.lexists(srv.sock_path))

    def test_hung_server_is_killed_and_socket_removed(self):
        srv = self.fake("hang", request_timeout=0.5)
        self.assertTrue(os.path.lexists(srv.sock_path))
        with self.assertRaises(run.ServerGone):
            srv.request(W.request("query", "T(v0, Y)"))
        srv.close(graceful=False)
        self.assertLess(srv.proc.returncode, 0)  # killed by a signal
        self.assert_cleaned(srv)

    def test_crashed_server_is_reaped_and_socket_removed(self):
        srv = self.fake("crash")
        with self.assertRaises(run.ServerGone):
            srv.request(W.request("query", "T(v0, Y)"))
        code, _ = srv.close()
        self.assertEqual(code, 3)
        self.assert_cleaned(srv)

    def test_silent_server_is_killed(self):
        before = set(run.CHILDREN)
        with self.assertRaises(run.ServerGone):
            run.Server(self.work, cmd=[sys.executable, "-c", "import time; time.sleep(600)"],
                       start_timeout=0.5)
        self.assertEqual(run.CHILDREN, before)
        self.assertFalse(os.path.lexists(os.path.relpath(self.work / "srv.sock")))

    def test_fails_without_the_program_sources(self):
        bare = self.work / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
                            "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=170)
        shutil.rmtree(bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, b"")


if __name__ == "__main__":
    unittest.main()
