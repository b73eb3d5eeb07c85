#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark results.

    # Alternate runs of two checkouts, seeds 1 to 10, then compare:
    python3 perfbench/compare.py run --parent ../lfs-parent --change . \\
        --save /tmp/cmp
    # Compare two result files made earlier (JSON lines):
    python3 perfbench/compare.py diff /tmp/cmp/parent.jsonl /tmp/cmp/change.jsonl
    # Run-to-run spread of one result file, against each metric's bound:
    python3 perfbench/compare.py spread /tmp/cmp/parent.jsonl

A result file holds one JSON object per line:
{"workload": ..., "seed": ..., "result": <the last line run.py printed>}.
Pairs are matched by workload and seed.  For each end-to-end metric and
workload, with the bound and direction from BENCHMARK.json:

  unresolved  the parent's or the change's spread (interquartile range
              over median) is wider than the bound, and not every run of
              the change reads better than every run of the parent;
  REGRESSION  the change's median is worse than the parent's by more
              than the bound;
  improved    all ten pairs are present, the change wins at least 9 of
              them (ties count for neither side), the medians differ by
              more than the parent's interquartile range, and no more
              operations failed;
  same        otherwise.

A metric missing from any run of a workload (a run that ended without
a result) is unresolved on that workload.

Exit status: 1 on a regression or an incorrect run, 2 when something is
unresolved, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The comparison rule: ten alternating pairs, seeds 1 to 10.
PAIRS = 10
SEED0 = 1


def load_spec(path=None):
    with open(path or os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def series(records, workload, metric):
    """Values by seed, or None when a run of the workload lacks it."""
    runs = [r for r in records if r["workload"] == workload]
    if any(metric not in r["result"]["metrics"] for r in runs):
        return None
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs}


def check_correct(records, label):
    bad = [r for r in records if not r["result"]["correct"]]
    for r in bad:
        print("%s: %s seed %d was not correct" % (label, r["workload"], r["seed"]))
    return not bad


def cmd_spread(args):
    spec = load_spec(args.spec)
    records = load(args.results)
    ok = check_correct(records, args.results)
    print("%-12s %-20s %12s %9s %7s %7s" % (
        "workload", "metric", "median", "spread", "bound", "<b/3"))
    for w in sorted({r["workload"] for r in records}):
        for m in spec["end_to_end"]:
            values = series(records, w, m["name"])
            if values is None:
                print("%-12s %-20s missing from some runs" % (w, m["name"]))
                continue
            xs = list(values.values())
            s = spread(xs)
            print("%-12s %-20s %12.6g %8.2f%% %6.0f%% %7s" % (
                w, m["name"], statistics.median(xs), 100 * s,
                100 * m["bound"], "yes" if s < m["bound"] / 3 else "NO"))
    return 0 if ok else 1


def verdict(p, c, bound, lower, fewer_failures):
    """Status of one metric on one workload from paired values."""
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    mp, mc = statistics.median(p), statistics.median(c)
    q1, _, q3 = quartiles(p)
    worse = ((mc - mp) if lower else (mp - mc)) / abs(mp) if mp else 0.0
    wins = sum(1 for a, b in zip(p, c) if better(b, a))
    all_better = all(better(b, a) for a in p for b in c)
    if max(spread(p), spread(c)) > bound and not all_better:
        status = "unresolved"
    elif worse > bound:
        status = "REGRESSION"
    elif (len(p) >= PAIRS and wins >= 0.9 * len(p)
          and abs(mc - mp) > (q3 - q1) and fewer_failures):
        status = "improved"
    else:
        status = "same"
    return status, mp, mc, worse, wins


def cmd_diff(args):
    spec = load_spec(args.spec)
    parent, change = load(args.parent), load(args.change)
    ok = check_correct(parent, "parent") & check_correct(change, "change")
    failed = {side: {w: sum(r["result"]["failed"] for r in recs
                            if r["workload"] == w)
                     for w in {r["workload"] for r in recs}}
              for side, recs in (("parent", parent), ("change", change))}
    statuses = []
    print("%-12s %-20s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "parent", "change", "worse", "wins", "status"))
    for w in sorted({r["workload"] for r in parent}):
        fewer = failed["change"].get(w, 0) <= failed["parent"].get(w, 0)
        for m in spec["end_to_end"]:
            ps, cs = series(parent, w, m["name"]), series(change, w, m["name"])
            if ps is None or cs is None:
                print("%-12s %-20s missing from some runs  unresolved"
                      % (w, m["name"]))
                statuses.append("unresolved")
                continue
            seeds = sorted(set(ps) & set(cs))
            if not seeds:
                print("%-12s %-20s no paired runs" % (w, m["name"]))
                statuses.append("unresolved")
                continue
            p = [ps[s] for s in seeds]
            c = [cs[s] for s in seeds]
            status, mp, mc, worse, wins = verdict(
                p, c, m["bound"], m["better"] == "lower", fewer)
            statuses.append(status)
            print("%-12s %-20s %12.6g %12.6g %+7.2f%% %3d/%-2d  %s" % (
                w, m["name"], mp, mc, 100 * worse, wins, len(seeds), status))
    if not ok or "REGRESSION" in statuses:
        return 1
    return 2 if "unresolved" in statuses else 0


def run_side(checkout, workload, seed, seconds):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return {"workload": workload, "seed": seed, "result": result}


def cmd_run(args):
    spec = load_spec(args.spec)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(args.save, exist_ok=True)
    paths = {s: os.path.join(args.save, s + ".jsonl") for s in ("parent", "change")}
    dirs = {"parent": args.parent, "change": args.change}
    for path in paths.values():
        open(path, "w").close()
    for i in range(PAIRS):
        seed = SEED0 + i
        # Alternate which side runs first, so drift in the host does not
        # favour one side.
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                rec = run_side(dirs[side], w, seed, spec["run_seconds"])
                with open(paths[side], "a") as f:
                    f.write(json.dumps(rec) + "\n")
                print("pair %d %-12s %-6s correct=%s" % (
                    i, w, side, rec["result"]["correct"]), flush=True)
    args.parent, args.change = paths["parent"], paths["change"]
    return cmd_diff(args)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--spec", help="BENCHMARK.json (default: the one beside perfbench/)")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="alternate paired runs of two checkouts, then diff")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workloads", nargs="*")
    r.add_argument("--save", required=True, help="directory for the result files")
    d = sub.add_parser("diff", help="compare two result files")
    d.add_argument("parent")
    d.add_argument("change")
    s = sub.add_parser("spread", help="run-to-run spread of one result file")
    s.add_argument("results")
    args = ap.parse_args()
    return {"run": cmd_run, "diff": cmd_diff, "spread": cmd_spread}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
