#!/usr/bin/env python3
"""Entry point of the LFS benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload office-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, one table
    python3 perfbench/run.py --selftest              # watchdog self-test

It builds the harness from source with dune, runs one workload under a
hard time limit, and relays the harness's report.  A run measures a
fixed amount of work, so that the modelled figures depend on the seed
alone; --seconds is accepted for the common interface and not used.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "lfsbench.exe")
WORKLOADS = ["office-hot", "office-full", "churn-85"]
# Backstop behind the harness's own watchdog: a run that does not end
# by then is killed and reported as incorrect.
HARD_LIMIT_S = 170


def fail(msg, code):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (dune-project and lib/ "
             "not found in %s)" % os.getcwd(), 2)
    # No shared dune cache: the build stays inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/lfsbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed", 3)


def harness(args, limit):
    """Run the harness; return (stdout lines, exit code or None if killed)."""
    # A session of its own, so a kill reaches the processes the harness
    # forks as well.
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit)
        return out.splitlines(), proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return out.splitlines(), None


def run_one(workload, seed, trace):
    lines, code = harness(
        ["--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        HARD_LIMIT_S)
    body, last = lines[:-1], (lines[-1] if lines else "")
    for line in body:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if code is None or code != 0 or result is None:
        why = ("killed after %d s" % HARD_LIMIT_S if code is None
               else "harness exited with %s and no result" % code)
        print("PROBLEM " + why)
        return None
    # The harness reports values by name; the units, and which metrics
    # this mode must report, come from BENCHMARK.json.
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    values = result["metrics"]
    if set(values) != set(units):
        print("PROBLEM metrics differ from BENCHMARK.json: %s"
              % sorted(set(values) ^ set(units)))
        result["correct"] = False
    result["metrics"] = {k: {"value": v, "unit": units.get(k, "?")}
                         for k, v in values.items()}
    return result


def main_all(seed):
    """Every workload for one seed: one table of end-to-end metrics."""
    rows, ok = [], True
    for w in WORKLOADS:
        t0 = time.time()
        r = run_one(w, seed, 0)
        if r is None or not r["correct"]:
            ok = False
        rows.append((w, r, time.time() - t0))
    print()
    print("%-12s %-20s %16s  %s" % ("workload", "metric", "value", "unit"))
    for w, r, dt in rows:
        if r is None:
            print("%-12s %-20s %16s" % (w, "(no result)", "-"))
            continue
        for name, m in r["metrics"].items():
            print("%-12s %-20s %16.6g  %s" % (w, name, m["value"], m["unit"]))
        print("%-12s %-20s %16s  (%d attempted, %d failed, %.0f s)" % (
            w, "gate", "pass" if r["correct"] else "FAIL", r["attempted"],
            r["failed"], dt))
    summary = {w: r for w, r, _ in rows}
    print(json.dumps({"correct": ok, "seed": seed, "workloads": summary}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10,
                    help="accepted and not used: a run's work is fixed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload for --seed and print one table")
    ap.add_argument("--selftest", action="store_true",
                    help="check that the watchdog turns the known livelock "
                         "into a counted failure")
    a = ap.parse_args()
    if not (a.all or a.selftest or a.workload):
        ap.error("one of --workload, --all or --selftest is required")
    build()
    if a.selftest:
        lines, code = harness(["--selftest"], HARD_LIMIT_S)
        for line in lines:
            print(line)
        if code is None:
            print("selftest: FAIL, killed after %d s" % HARD_LIMIT_S)
            return 1
        return code
    if a.all:
        return main_all(a.seed)
    r = run_one(a.workload, a.seed, a.trace)
    if r is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
