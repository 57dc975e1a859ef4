#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute):

    python3 bench/selftest.py

- a tiny run of every workload prints every metric BENCHMARK.json names,
  with its unit, untraced and traced, and every output passes its check;
- the traced run's layer self times account for the traced wall time;
- an injected wrong answer registers as a failed op on every workload;
- without the sources next to it the benchmark exits non-zero and prints
  no result;
- compare.py reaches each verdict on made-up results, and flags a raw
  latency whose verdict differs from the scaled one.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# In a tiny run, time spent between spans (the loop, capturing output) is
# not negligible next to the ops themselves.
ATTRIBUTION_SLACK = 0.05


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == RESULT_KEYS, f"result keys {sorted(res)}"
    return res


def expect_metrics(res, spec, where):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"{where}: metrics differ: missing {set(want) - set(got)}, " \
                        f"extra {set(got) - set(want)}, units {[(k, got[k], want[k]) for k in set(got) & set(want) if got[k] != want[k]]}"
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)) and v["value"] == v["value"], f"{where}: {k} = {v}"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        out = ["--out-dir", tmp]
        for w in bench["workloads"]:
            name = w["name"]
            base = [RUN, "--workload", name, "--seed", 3, "--seconds", 1, "--size", "tiny", *out]
            try:
                res = result_of(run([*base, "--trace", 0]))
                assert res["correct"] and res["failed"] == 0, f"{name}: {res}"
                expect_metrics(res, bench["end_to_end"], f"{name} trace 0")

                res = result_of(run([*base, "--trace", 1]))
                assert res["correct"] and res["failed"] == 0, f"{name} traced: {res}"
                expect_metrics(res, bench["per_layer"], f"{name} trace 1")
                m = {k: v["value"] for k, v in res["metrics"].items()}
                gap = 1.0 - m["trace.attributed_frac"]
                assert 0.0 <= gap <= max(m["trace.overhead_frac"], 0.0) + ATTRIBUTION_SLACK, \
                    f"{name}: self times cover {m['trace.attributed_frac']:.3f} of the traced wall " \
                    f"(overhead {m['trace.overhead_frac']:.3f})"

                res = result_of(run([*base, "--trace", 0, "--inject-fault"]))
                assert res["failed"] >= 1 and not res["correct"], f"{name}: injected fault not caught: {res}"
                print(f"ok  {name}")
            except AssertionError as exc:
                failures.append(str(exc))
                print(f"FAIL {name}: {exc}")

        bare = Path(tmp) / "bare"
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run([*bench["command"][1:], "--workload", bench["workloads"][0]["name"],
                    "--seed", 1, "--seconds", 1, "--trace", 0, "--out-dir", bare / "out"], cwd=bare)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
            print("FAIL bare directory")
        else:
            print("ok  bare directory exits", proc.returncode)

        try:
            check_compare(Path(tmp), bench)
            print("ok  compare verdicts")
        except AssertionError as exc:
            failures.append(str(exc))
            print(f"FAIL compare: {exc}")

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def check_compare(tmp, bench):
    """Ten made-up pairs per case; the change side of each case is chosen to
    land on one verdict."""
    metric = next(m for m in bench["end_to_end"] if m["name"] == "op_p50_s")
    bound = metric["bound"]
    jitter = [0.000, 0.004, -0.003, 0.002, -0.001, 0.003, -0.004, 0.001, -0.002, 0.0]
    base = [1.0 + j for j in jitter]
    cases = {
        "improved": [0.7 + j for j in jitter],
        "no worse within the bound": [1.0 + bound / 2 + j for j in jitter],
        "worse": [1.0 + 2 * bound + j for j in jitter],
        "unresolved": [1.0 + (3 * bound if i % 2 else -3 * bound) for i in range(10)],
    }

    def write(path, values, workload, raw=None):
        with open(path, "a") as fh:
            for i, v in enumerate(values):
                rec = {"workload": workload, "trace": 0, "failed": 0, "attempted": 1,
                       "metrics": {"op_p50_s": {"value": v, "unit": "s"}}}
                if raw is not None:
                    rec["raw"] = {"op_p50_s": raw[i]}
                fh.write(json.dumps(rec) + "\n")

    for verdict, change in cases.items():
        a, b = tmp / f"base-{len(verdict)}.jsonl", tmp / f"change-{len(verdict)}.jsonl"
        write(a, base, "w")
        write(b, change, "w")
        proc = run([BENCH / "compare.py", a, b])
        row = next(line for line in proc.stdout.splitlines() if line.startswith("op_p50_s"))
        assert proc.returncode == 0 and f" {verdict} (" in row, f"expected {verdict!r}: {row}"

    # scaled within the bound, raw worse by twice the bound: flagged
    a, b = tmp / "base-raw.jsonl", tmp / "change-raw.jsonl"
    write(a, base, "w", raw=base)
    write(b, base, "w", raw=cases["worse"])
    proc = run([BENCH / "compare.py", a, b])
    assert proc.returncode == 0 and "raw and scaled op_p50_s disagree: worse vs no worse" in proc.stdout, \
        f"raw disagreement not flagged: {proc.stdout}"


if __name__ == "__main__":
    sys.exit(main())
