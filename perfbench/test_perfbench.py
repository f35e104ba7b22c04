#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Run from the repository root. Uses small fixed-work runs (--max-ops) of
the benchmarked configuration, so the whole suite takes a few minutes once
the benchmark is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as perfbench_run  # noqa: E402

RUN = [sys.executable, "perfbench/run.py"]


def run(workload, seed=7, trace=0, extra=(), cwd="."):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--"] + list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=cwd, timeout=600)
    lines = r.stdout.strip().split("\n")
    return r.returncode, lines


def result(lines):
    return json.loads(lines[-1])


def counts_line(lines):
    return [l for l in lines if l.startswith("counts ")]


class FailureAccounting(unittest.TestCase):
    def test_tampered_hvfs_count_as_failed(self):
        rc, lines = run("dp_forward",
                        extra=["--max-ops", "65536", "--tamper-frac", "0.01"])
        out = result(lines)
        self.assertEqual(rc, 0, lines)
        self.assertTrue(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertLess(out["metrics"]["ops_ok_frac"]["value"], 1.0)

    def test_unknown_renewals_count_as_failed(self):
        rc, lines = run("cp_setup",
                        extra=["--max-ops", "2000", "--unknown-renew-frac", "0.1"])
        out = result(lines)
        self.assertEqual(rc, 0, lines)
        self.assertTrue(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertLess(out["metrics"]["ops_ok_frac"]["value"], 1.0)


class SeededInputs(unittest.TestCase):
    CASES = {
        "dp_forward": ["--max-ops", "65536"],
        "cp_setup": ["--max-ops", "2000"],
        "cp_churn": ["--max-ops", "2000"],
    }

    def test_same_seed_gives_identical_counts(self):
        for workload, extra in self.CASES.items():
            with self.subTest(workload=workload):
                rc1, a = run(workload, seed=5, extra=extra)
                rc2, b = run(workload, seed=5, extra=extra)
                self.assertEqual((rc1, rc2), (0, 0), a + b)
                self.assertEqual(counts_line(a), counts_line(b))
                self.assertTrue(counts_line(a))
                self.assertEqual(
                    (result(a)["attempted"], result(a)["failed"]),
                    (result(b)["attempted"], result(b)["failed"]))


class TracedRun(unittest.TestCase):
    CASES = SeededInputs.CASES

    def test_traced_run_reports_every_layer_and_closes_ledgers(self):
        with open("BENCHMARK.json") as f:
            names = {m["name"] for m in json.load(f)["per_layer"]}
        for workload, extra in self.CASES.items():
            with self.subTest(workload=workload):
                rc, lines = run(workload, trace=1, extra=extra)
                out = result(lines)
                self.assertEqual(rc, 0, lines)
                self.assertTrue(out["correct"])
                self.assertEqual(set(out["metrics"]), names)
                ledger = ("dataplane.ledger.closure" if workload == "dp_forward"
                          else "cserv.ledger.closure")
                closure = out["metrics"][ledger]["value"]
                self.assertLess(abs(closure - 1), 0.1)
                # Parts and whole are timed independently, so the ratio is
                # a measurement, never exactly 1.
                self.assertNotEqual(closure, 1.0)


class LedgerCheck(unittest.TestCase):
    def test_an_open_ledger_fails_the_run(self):
        def measured(dp, cp):
            return {"dataplane.ledger.closure": {"value": dp, "unit": "ratio"},
                    "cserv.ledger.closure": {"value": cp, "unit": "ratio"}}

        self.assertEqual(perfbench_run.ledger_errors(measured(0.95, 1.04)), [])
        self.assertEqual(len(perfbench_run.ledger_errors(measured(0.85, 1.0))), 1)
        self.assertEqual(len(perfbench_run.ledger_errors(measured(0.99, 1.2))), 1)
        self.assertEqual(len(perfbench_run.ledger_errors(measured(0, 0))), 2)


class Packaging(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        tmp = os.path.join(".bench_build", "bare-checkout")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        shutil.copy("BENCHMARK.json", tmp)
        shutil.copytree("perfbench", os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            rc, lines = run("dp_forward", cwd=tmp)
            self.assertNotEqual(rc, 0)
            self.assertFalse(lines[-1].startswith("{"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
