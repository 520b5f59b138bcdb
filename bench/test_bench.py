"""Self-tests of the benchmark's instrumentation and verdict table.

    python3 -m unittest discover -s bench -p 'test_*.py'

Run from the root of a censym checkout.  Everything runs at n <= 4.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import censym  # noqa: E402
from censym import cli, frobenius, rings  # noqa: E402

import instrument  # noqa: E402
import reference  # noqa: E402
from run import EXPECTED, failed_jobs, spawn  # noqa: E402
from workloads import RAT_SIZES, SWEEP_RINGS, WITNESS_RINGS, cli_job  # noqa: E402

SMALL = range(1, 5)
ALL_RINGS = sorted(set(SWEEP_RINGS) | set(WITNESS_RINGS) | {"rat"})


def small_jobs(ring: str) -> list:
    return [cli_job(["verify", "--json", "--seed", "0", "--ring", ring, "--n", str(n)])
            for n in SMALL]


class CountingRingTest(unittest.TestCase):
    def test_counting_ring_is_the_same_ring(self):
        counter = instrument.RingCounter(rings)
        for lit in ALL_RINGS + ["c2:c2:zmod:9"]:
            plain = rings.ring_from_literal(lit)
            counted = counter.counting(plain)
            self.assertIsInstance(counted, type(plain))
            self.assertEqual(counted, plain)
            self.assertEqual(plain, counted)
            self.assertEqual(hash(counted), hash(plain))
            self.assertEqual(counted.literal(), lit)
            base = counted
            while isinstance(base, rings.GroupRingC2):
                self.assertIs(type(base), rings.GroupRingC2)
                base = base.base
            self.assertTrue(type(base).__name__.startswith("Counting"))
            self.assertEqual(counter.counting(counted), counted)

    def test_group_ring_counts_once_at_the_base(self):
        counter = instrument.RingCounter(rings)
        c2 = counter.counting(rings.ring_from_literal("c2:int"))
        self.assertEqual(c2.mul((1, 2), (3, 4)), (11, 10))
        self.assertEqual(c2.sub((5, 1), (2, 2)), (3, -1))
        self.assertEqual(counter.totals(), {"add": 4, "mul": 4, "sub": 0, "neg": 2, "inv": 0})
        q = counter.counting(rings.ring_from_literal("rat"))
        q.sub(q.one(), q.one())
        self.assertEqual(counter.totals()["sub"], 1)
        self.assertEqual(counter.totals()["add"], 4)

    def test_instrumented_passes_emit_identical_bytes(self):
        jobs = [job for lit in ALL_RINGS for job in small_jobs(lit)]
        runs = {mode: spawn(ROOT, mode, jobs, timeout=170)
                for mode in ("plain", "traced", "counted")}
        self.assertEqual(len({r["digest"] for r in runs.values()}), 1)
        self.assertTrue(all(r["restored"] for r in runs.values()))
        self.assertGreater(sum(runs["counted"]["ring_counts"].values()), 0)
        self.assertGreater(runs["traced"]["stats"]["matrices.Matrix.__mul__"][0], 0)


class TracerTest(unittest.TestCase):
    def test_wrap_then_unwrap_restores_every_binding(self):
        before = instrument.snapshot(censym)
        original = frobenius.verify_frobenius_system
        tracer = instrument.Tracer(censym)
        tracer.install()
        try:
            self.assertIsNot(cli.verify_frobenius_system, original)
            self.assertIs(cli.verify_frobenius_system, frobenius.verify_frobenius_system)
            self.assertIs(censym.verify_frobenius_system, frobenius.verify_frobenius_system)
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.job("n2", cli.main, ["verify", "--json", "--n", "2"])
            self.assertEqual(tracer.stats["frobenius.verify_frobenius_system"][0], 1)
            self.assertEqual(tracer.stats["job"][0], 1)
        finally:
            tracer.uninstall()
        after = instrument.snapshot(censym)
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])
        self.assertIs(cli.verify_frobenius_system, original)

    def test_self_times_add_up_to_the_job(self):
        tracer = instrument.Tracer(censym)
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.job("n3", cli.main, ["verify", "--json", "--n", "3", "--ring", "gf:2"])
        finally:
            tracer.uninstall()
        total = sum(v[2] for v in tracer.stats.values())
        self.assertAlmostEqual(total, tracer.stats["job"][1], delta=1e-6)


class ReferenceTest(unittest.TestCase):
    def test_sampler_samples_and_restores_the_alarm(self):
        before = signal.getsignal(signal.SIGALRM)
        with reference.Sampler() as sampler:
            end = time.monotonic() + 0.3
            while time.monotonic() < end:
                pass
        self.assertGreaterEqual(len(sampler.samples), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(reference.speed(sampler.samples), 0)

    def test_reference_times_are_reported(self):
        res = spawn(ROOT, "plain", small_jobs("gf:2")[:2], timeout=170)
        self.assertGreater(res["ref_wall_s"], 0)
        self.assertGreater(res["ref_setup_s"], 0)
        self.assertLess(res["started"], res["setup_end"])


class ExpectedTableTest(unittest.TestCase):
    def test_table_matches_a_fresh_run_at_small_sizes(self):
        with open(EXPECTED, encoding="utf-8") as fh:
            table = json.load(fh)
        rat_jobs = [cli_job(["verify", "--json", "--seed", "7", "--ring", "rat", "--n", str(n)])
                    for n in RAT_SIZES if n in SMALL]
        res = spawn(ROOT, "plain", rat_jobs, timeout=170)
        self.assertEqual(failed_jobs(res, rat_jobs, table["verify-rat"]), [])

        for lit in SWEEP_RINGS:
            want = table["verify-sweep"][f"verify --json --ring {lit}"]["verdicts"]
            res = spawn(ROOT, "plain", small_jobs(lit), timeout=170)
            for n, got in zip(SMALL, res["jobs"]):
                at_n = [v for v in want if json.loads(v[0].split(" ", 1)[1])["n"] == n]
                self.assertEqual(got["verdicts"], at_n, f"{lit} n={n}")
                self.assertEqual(got["exit"], 0)


if __name__ == "__main__":
    unittest.main()
