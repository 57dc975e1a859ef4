#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records bench/run.py appends to results.jsonl, one run
per line.  Runs are grouped by workload and trace mode and paired in file
order (the i-th base run with the i-th change run), so run the two commits
alternately, base first on even pairs and change first on odd ones.

For each workload and metric it prints both sides' median and quartiles,
the fraction of pairs the change won (ties count for neither side), and a
verdict:

- improved: at least ten pairs, the change wins at least 9/10 of them, and
  the medians differ by more than the base's own quartile spread;
- no worse within the bound: the change's median is no worse than the
  base's by more than the metric's bound in BENCHMARK.json, and both
  sides' quartile spreads are within that bound (or every change run reads
  better than every base run);
- worse: the spreads are within the bound and the median is worse by more;
- unresolved: anything else, including per-layer metrics, which have no
  bound, when they did not improve.

The bounded latencies are scaled to a reference host speed by a kernel
timed in the same process (see run.py), so a cost the program leaves in
the process, such as busy threads or a grown heap, slows the kernel too
and is partly divided out.  For the untraced runs it therefore also judges
the raw ops_per_s and op_p50_s of the detail line, with the same bounds,
and flags a metric whose raw verdict differs from its scaled one.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RAW = ("ops_per_s", "op_p50_s")  # also judged unscaled, from the detail line


def load(path):
    groups = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """Apply the pair-win and quartile-spread rule to one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - bmed)
    if len(pairs) >= 10 and win_frac >= 0.9 and gain > bq3 - bq1:
        return "improved", win_frac
    if bound is None:
        return "unresolved", win_frac
    scale = abs(bmed)
    worse_by = -gain / scale if scale else (0.0 if gain >= 0 else float("inf"))
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    every_run_better = min(sign * c for c in change) > max(sign * b for b in base)
    if spread > bound and not every_run_better:
        return "unresolved", win_frac
    if worse_by <= bound:
        return "no worse within the bound", win_frac
    return "worse", win_frac


def row(label, b, c, n, better, bound, unit):
    """Print one metric's line; returns its verdict."""
    v, won = verdict(b[:n], c[:n], better, bound)
    bq1, bm, bq3 = quartiles(b)
    cq1, cm, cq3 = quartiles(c)
    print(f"{label:58s} {bm:11.5g} [{bq1:.5g}, {bq3:.5g}] {cm:11.5g} [{cq1:.5g}, {cq3:.5g}]"
          f" {won:5.2f}  {v} ({unit}, {better} is better)")
    return v


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    meta = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        n = min(len(b_runs), len(c_runs))
        print(f"== {workload} (trace {trace}): {len(b_runs)} base runs, {len(c_runs)} change runs, {n} pairs")
        print(f"{'metric':58s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'won':>5s}  verdict")
        names = [m for m in b_runs[0]["metrics"] if m in c_runs[0]["metrics"] and m in meta]
        verdicts = {}
        for name in names:
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            verdicts[name] = row(name, b, c, n, *meta[name], b_runs[0]["metrics"][name]["unit"])
        for name in [m for m in RAW if m in verdicts and all(m in r.get("raw", {}) for r in b_runs + c_runs)]:
            b = [r["raw"][name] for r in b_runs]
            c = [r["raw"][name] for r in c_runs]
            raw = row(f"raw.{name}", b, c, n, *meta[name], b_runs[0]["metrics"][name]["unit"])
            if raw != verdicts[name]:
                print(f"  ^ raw and scaled {name} disagree: {raw} vs {verdicts[name]}")
        fails = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in (b_runs, c_runs)]
        print(f"{'failed / attempted':58s} {fails[0][0]} / {fails[0][1]}  vs  {fails[1][0]} / {fails[1][1]}")
    missing = set(base) ^ set(change)
    if missing:
        print(f"only on one side: {sorted(missing)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
