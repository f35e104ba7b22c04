#!/usr/bin/env python3
"""Run one workload of the Colibri repository benchmark.

    python3 perfbench/run.py --workload dp_forward --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and with it the Colibri
libraries under src/) into .bench_build/, runs the benchmark binary, and
prints its report. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, each printed beforehand with the end-to-end metric it
is predicted to move where perfbench/predictions.json gives one. Layers a
workload does not exercise report 0. A traced run whose ledger does not
close within 10% fails.

Arguments after "--" go to the benchmark binary unchanged (see
perfbench/src/main.cpp), e.g. "-- --tamper-frac 0.01".

Exits 0 when the run's output checks pass, 1 when they fail, and 2 when
the benchmark cannot be built or run here.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "colibri_perfbench")
RUN_TIMEOUT_S = 170
# Per-layer metrics that decompose an end-to-end time: parts over whole.
LEDGERS = ("dataplane.ledger.closure", "cserv.ledger.closure")
LEDGER_TOLERANCE = 0.1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                   "BENCHMARK.json"):
        if not os.path.isfile(needed):
            fail("run from the repository root: %s is missing" % needed)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "colibri_perfbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail("build step failed: " + " ".join(cmd))


def ledger_errors(measured):
    """Ledgers among the measured metrics that do not close."""
    return ["%s = %.4f is not within %d%% of 1" %
            (name, measured[name]["value"], LEDGER_TOLERANCE * 100)
            for name in LEDGERS if name in measured
            and abs(measured[name]["value"] - 1) > LEDGER_TOLERANCE]


def load_predictions():
    """Per-layer metric name -> its row of perfbench/predictions.json."""
    with open("perfbench/predictions.json") as f:
        return {name: row for row in json.load(f) for name in row["metrics"]}


def run_binary(args, extra):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out after %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail("benchmark binary failed with exit code %d" % r.returncode)
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        cut = argv.index("--")
        argv, extra = argv[:cut], argv[cut + 1:]
    args = ap.parse_args(argv)

    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    predictions = load_predictions()

    notes, out = run_binary(args, extra)
    for line in notes:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = out["metrics"]
    correct = bool(out["correct"])
    metrics = {}
    for m in wanted:
        name = m["name"]
        got = measured.get(name)
        if got is None:
            if not args.trace:
                print("missing end-to-end metric " + name)
                correct = False
                continue
            got = {"value": 0, "unit": m["unit"]}
            status = "not exercised by " + args.workload
        else:
            status = "measured"
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            print("bad value or unit for %s: %r" % (name, got))
            correct = False
        metrics[name] = {"value": got["value"], "unit": m["unit"]}
        if args.trace:
            line = "layer %-42s %14.6g %-6s %s" % (name, got["value"],
                                                   m["unit"], status)
            p = predictions.get(name)
            if p:
                line += "; moves %s on %s; predicted no change on %s" % (
                    p["moves"], p["on"], p["no_change_on"])
            print(line)
    for err in ledger_errors(measured) if args.trace else []:
        print("ledger does not close: " + err)
        correct = False

    print(json.dumps({"correct": correct, "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
