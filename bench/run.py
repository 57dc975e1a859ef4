#!/usr/bin/env python3
"""Closed-loop benchmark of entactic: one client, one process, one workload.

    python3 bench/run.py --workload cut-scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

The workloads are described in BENCHMARK.json and bench/workloads.py.  A run
times three cold set-ups, each in a fresh interpreter (import entactic,
generate and write the inputs, run one warm-up op), sets up once more in its
own process, then runs whole passes over a fixed list of op slots for about
--seconds, then checks every output.  Every pass has the same mix of op
classes; pass p uses input variant p % workloads.VARIANTS.

Every latency is scaled to a reference host speed.  On a shared host, other
tenants slow everything down by up to ~1.7x, in phases of seconds to
minutes, which moved plain medians by +-20% between 20-60 s runs.  A fixed
numpy and interpreter kernel, timed every quarter second between ops, slows
down with them: an op's latency times CAL_REF_S over the kernel's time
around the op kept the same medians within +-5%.  The raw seconds are in
the detail line.  The latency statistics are taken over every op of the
timed passes.

With --trace 0 the last line of standard output is the end-to-end result;
with --trace 1 the run makes its passes untraced for half of --seconds,
repeats as many passes traced, and reports per-layer metrics from the
traced passes.  Each run also appends a full record (metrics, sample counts,
the environment) to <out-dir>/results.jsonl, which bench/compare.py reads.
"""

import argparse
import bisect
import contextlib
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    try:
        _cap = min(int(os.environ.get(_var, NPROC)), NPROC)
    except ValueError:
        _cap = NPROC
    os.environ[_var] = str(max(_cap, 1))

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ["reproduce", "cut-scan", "convert", "certify"]
SETUP_REPEATS = 3
MIN_BEYOND_TAIL = 10  # samples a full run leaves beyond its tail percentile

# The calibration kernel's time on an uncontended 2-vCPU x86_64 host
# (numpy 2.4, OpenBLAS 0.3.31, 2 threads): latencies are reported as if
# every op ran at that host's speed.
CAL_REF_S = 0.013
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "certified_frac": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: small inputs, for the self-test")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one output before checking, to prove the checks bite")
    p.add_argument("--out-dir", default=str(ROOT / ".bench_out"),
                   help="where results.jsonl and trace spans are written")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and exit without output; the parent run times this for setup_s")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Environment


def _blas():
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{info.get('name')} {info.get('version')}"
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        import ctypes

        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return vendor, threads


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy

    vendor, threads = _blas()
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Host-speed calibration


class Calibration:
    """Times a fixed kernel between ops and turns a wall-clock interval into
    seconds at the reference speed.  The kernel mixes what entactic spends
    its time on: a batched complex SVD, many small numpy calls (contractions
    and 2x2 eigensolves), a nonnegative least-squares solve and a JSON round
    trip, with no entactic code."""

    def __init__(self):
        import numpy as np
        from scipy.optimize import nnls

        rng = np.random.default_rng(12345)
        self._np = np
        self._nnls = nnls
        self._a = np.abs(rng.normal(size=(128, 160)))
        self._b = self._a @ np.abs(rng.normal(size=160)) + rng.normal(size=128)
        self._mats = rng.normal(size=(16, 64, 64)) + 1j * rng.normal(size=(16, 64, 64))
        self._small = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
        self._vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        self._data = [[float(i), 2.0 * i] for i in range(1000)]
        self.starts = []
        self.times = []

    def sample(self):
        np = self._np
        t0 = time.perf_counter()
        np.linalg.svd(self._mats, compute_uv=False)
        for _ in range(150):
            m = np.tensordot(np.tensordot(self._small, self._vec, axes=([3], [0])),
                             self._vec.conj(), axes=([2], [0])).reshape(2, 2)
            np.linalg.eigh(m + m.conj().T)
        self._nnls(self._a, self._b)
        json.loads(json.dumps(self._data))
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def due(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= CAL_EVERY_S:
            self.sample()

    def spent(self, start, end):
        """Kernel seconds spent inside [start, end]."""
        return sum(t for s, t in zip(self.starts, self.times) if start <= s < end)

    def scale(self, start, end):
        """Reference seconds for the wall interval [start, end]: its length
        times CAL_REF_S over the median kernel time of the samples within
        CAL_WINDOW_S of it, counting at least the one just before and the
        one just after."""
        i = max(bisect.bisect_right(self.starts, start) - 1, 0)
        j = min(bisect.bisect_left(self.starts, end), len(self.starts) - 1)
        lo = min(i, bisect.bisect_left(self.starts, start - CAL_WINDOW_S))
        hi = max(j, bisect.bisect_right(self.starts, end + CAL_WINDOW_S) - 1)
        return (end - start) * CAL_REF_S / statistics.median(self.times[lo:hi + 1])


# ---------------------------------------------------------------------------
# The closed loop


def run_passes(workloads, plan, cal, budget_s, passes=None, tracer=None, min_ops=0):
    """Run whole passes, one op at a time, with calibration samples between
    ops.  Without a fixed pass count, stop once at least min_ops ops ran and
    another pass would overshoot the budget by more than stopping now
    undershoots it.  Returns ([(op, start, end, output)], passes,
    start, end)."""
    records = []
    start = time.perf_counter()
    p = 0
    while True:
        for op in plan.passes[p % len(plan.passes)]:
            cal.due()
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                out = workloads.run_op(op)
            except Exception as exc:  # a raising op is a failed op, not a failed run
                out = exc
            records.append((op, t0, time.perf_counter(), out))
        p += 1
        elapsed = time.perf_counter() - start
        if passes is not None:
            if p >= passes:
                break
        elif elapsed + elapsed / p / 2 >= budget_s and len(records) >= min_ops:
            break
    end = time.perf_counter()
    cal.sample()
    return records, p, start, end


def latencies(records, cal):
    """The reference-speed latency of every op."""
    return [cal.scale(t0, t1) for _, t0, t1, _ in records]


def tail_rank(percentile, n):
    """Nearest rank (1-based) of a percentile among n samples."""
    return max(math.ceil(percentile * n / 100), 1)


def min_ops_for_tail(percentile):
    """The fewest samples that leave MIN_BEYOND_TAIL beyond the percentile."""
    n = MIN_BEYOND_TAIL
    while n - tail_rank(percentile, n) < MIN_BEYOND_TAIL:
        n += 1
    return n


def check_all(plan, records, inject):
    """Check every output; returns (failed, certified, queries, reasons)."""
    failed = certified = queries = 0
    reasons = []
    for op, _, _, out in records:
        if inject and not isinstance(out, BaseException):
            swapped = plan.inject(op, out)
            if swapped is not None:
                op, out = swapped
                inject = False
        res = plan.check(op, out)
        if not res.ok:
            failed += 1
            reasons.append(res.reason)
        if res.certified is not None:
            queries += 1
            certified += bool(res.certified)
    return failed, certified, queries, reasons


def cold_setup_seconds(args, cal):
    """Reference-speed times of SETUP_REPEATS set-ups, each in a fresh
    interpreter, from process start to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
           "--out-dir", args.out_dir, "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        cal.sample()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        t1 = time.perf_counter()
        cal.sample()
        times.append(cal.scale(t0, t1))
    return times


def set_up(args, workdir):
    """Generate and write the inputs, run one warm-up op; returns the plan."""
    import numpy as np
    import workloads

    plan = workloads.PLANS[args.workload](np.random.default_rng(args.seed), args.size, workdir)
    workloads.run_op(plan.warmup)
    return plan


def single(args):
    if not (SRC / "entactic" / "__init__.py").is_file():
        print(f"error: no entactic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entactic

    if not Path(entactic.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported entactic from {entactic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import tracing

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            set_up(args, Path(tmp))
        return 0

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    cal = Calibration()
    setup_times = None if tracer else cold_setup_seconds(args, cal)
    tail_p = workloads.TAIL_PERCENTILE[args.workload]

    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        # this process's own set-up, warm or traced; not part of setup_s
        with tracer.installed() if tracer else contextlib.nullcontext():
            plan = set_up(args, Path(tmp))

        if tracer is None:
            min_ops = min_ops_for_tail(tail_p) if args.size == "full" else 0
            records, passes, t0, t1 = run_passes(workloads, plan, cal, args.seconds, min_ops=min_ops)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            plain, passes, _, _ = run_passes(workloads, plan, cal, args.seconds / 2)
            with tracer.installed():
                traced, _, t0, t1 = run_passes(workloads, plan, cal, None, passes=passes, tracer=tracer)
            records = plain + traced

        failed, certified, queries, reasons = check_all(plan, records, args.inject_fault)

    attempted = len(records)
    wall = t1 - t0
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "seconds": args.seconds, "passes": passes,
              "fail_frac": failed / attempted, "failures": reasons[:5],
              "env": environment(args.seed),
              "calibration": {"ref_s": CAL_REF_S, "samples": len(cal.times),
                              "median_s": statistics.median(cal.times)}}
    if tracer is None:
        lat = latencies(records, cal)
        rank = tail_rank(tail_p, attempted)
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": attempted / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": sorted(lat)[rank - 1],
            "peak_rss_mb": peak_rss_mb,
            "certified_frac": certified / queries if queries else 0.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        classes = {}
        for (op, _, _, _), x in zip(records, lat):
            classes.setdefault(op.label, []).append(x)
        raw = [b - a for _, a, b, _ in records]
        detail.update({
            "samples": {"ops": attempted, "slots": len(plan.passes[0]), "passes": passes,
                        "setup": SETUP_REPEATS, "certifier_queries": queries},
            "op_tail": {"percentile": tail_p, "samples_beyond": attempted - rank},
            "raw": {"ops_per_s": attempted / sum(raw), "op_p50_s": statistics.median(raw)},
            "op_classes": {k: [len(v), statistics.median(v)] for k, v in sorted(classes.items())},
            "setup_runs_s": setup_times, "timed_wall_s": wall,
        })
    else:
        spans_path = out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        overhead = sum(latencies(traced, cal)) / sum(latencies(plain, cal)) - 1.0
        layers = tracing.layer_metrics(tracer.spans, passes, len(traced),
                                       wall - cal.spent(t0, t1), overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        detail.update({"samples": {"ops": len(traced), "passes": passes, "spans": len(tracer.spans)},
                       "traced_wall_s": wall, "spans_file": str(spans_path)})

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**detail, **result}) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after another; prints each
    metric with its unit."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--out-dir", args.out_dir]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:58s} {m['value']:.6g} {m['unit']}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
