"""The four closed-loop workloads.

Each `plan_*` function draws its inputs from a seeded generator, writes the
pure states as state JSON (and the mixed states as density JSON) into a
work directory, and returns a `Plan`: the op slots of one pass for each
input set (VARIANTS sets of the same op classes; reproduce has one), a
warm-up op, and the check each output must pass.  Ops reach the program only through `cli.run_command` or,
for the certifier, which has no CLI command, through `measures` calls on
states loaded from JSON.  Checks run after the timed phase.

Every pass has the same mix of op classes, so the slots of a pass fix the
shape of the latency distribution that run.py takes its percentiles from:
the counts below put the median and the workload's tail percentile inside a
block of ops of one class, or between classes of nearly equal cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from itertools import combinations, count
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from entactic import catalog, cli, linalg, measures, witnesses

VARIANTS = 6  # distinct input sets; pass p uses variant p % VARIANTS, so inputs recur after 6 passes
GBS_TOL = 1e-10
RBS_TOL = 1e-9
WITNESS_TARGET_TOL = 1e-9
BISECTION_TOL = 2e-6


@dataclass
class Op:
    label: str
    call: tuple  # ("cli", [argv, ...]) | ("certify", rho) | ("bisect", rho, mixer, bisect_tol)
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    certified: bool | None = None  # None: not a certifier query
    reason: str = ""


@dataclass
class Plan:
    passes: list[list[Op]]  # one list of op slots per input variant
    warmup: Op
    check: Callable[[Op, object], Outcome]
    inject: Callable[[Op, object], Optional[tuple[Op, object]]]  # None: leave this op alone


def run_op(op: Op):
    """Execute one op; the return value is checked later."""
    kind = op.call[0]
    if kind == "cli":
        outs = []
        for argv in op.call[1]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.run_command(list(argv))
            outs.append((rc, buf.getvalue()))
        return outs
    if kind == "certify":
        return measures.fs_certificate(op.call[1])
    if kind == "bisect":
        return measures.robustness_fs_upper_via_mix(op.call[1], op.call[2], bisect_tol=op.call[3])
    raise ValueError(f"unknown op kind {kind}")


# ---------------------------------------------------------------------------
# Input generation and serialization


def haar_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def product_vector(rng, n, d):
    v = haar_vector(rng, d)
    for _ in range(n - 1):
        v = np.kron(v, haar_vector(rng, d))
    return v


def _pairs(z):
    return [[x.real, x.imag] for x in z.tolist()]


def write_state(path: Path, n, d, amps) -> str:
    path.write_text(json.dumps({"n": n, "d": d, "amplitudes": _pairs(amps)}))
    return str(path)


def load_density(path: Path, n, d, matrix):
    m = (matrix + matrix.conj().T) / 2
    m = m / np.trace(m).real
    path.write_text(json.dumps({"n": n, "d": d, "entries": _pairs(m.reshape(-1))}))
    return linalg.density_from_json(path.read_text())


def cut_references(amps, n, d):
    """(G_BS, min-cut pure robustness) from the eigenvalues of the smaller
    marginal on every cut: an independent route to what the CLI computes
    by SVD of the cut matrices."""
    t = np.asarray(amps).reshape((d,) * n)
    top, rob = 0.0, math.inf
    for k in range(1, n // 2 + 1):
        for side in combinations(range(n), k):
            if 2 * k == n and 0 not in side:
                continue  # an equal split is the same cut as its complement
            rest = [p for p in range(n) if p not in side]
            a = t.transpose(list(side) + rest).reshape(d**k, -1)
            lam = np.linalg.eigvalsh(a @ a.conj().T)
            top = max(top, float(lam[-1]))
            rob = min(rob, float(np.sum(np.sqrt(np.clip(lam, 0.0, None))) ** 2 - 1.0))
    return 1.0 - top, rob


def _cli_json(out, i=0):
    rc, text = out[i]
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)


def _checked(fn):
    """Turn exceptions raised while reading an output into a failed check."""
    def check(op, out):
        if isinstance(out, BaseException):
            return Outcome(False, None, f"{op.label}: raised {type(out).__name__}: {out}")
        try:
            return fn(op, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome(False, None, f"{op.label}: {type(exc).__name__}: {exc}")
    return check


def _fail(op, why, certified=None):
    return Outcome(False, certified, f"{op.label}: {why}")


# ---------------------------------------------------------------------------
# cut-scan: measure --kind gbs / rbs-upper over all 2^(n-1) - 1 cuts

CUT_KINDS = ("gbs", "rbs-upper")
# Sorted by latency a pass is: qutrits, 9 qubits | 10 qubits (median) |
# cluster 11, Haar 11 | ghz 12 | Haar 12; the 85th percentile falls between
# Haar 11 rbs-upper and ghz 12 gbs, which cost the same.  A 13-qubit op
# (about 5 s) is left out: it alone would outlast a pass, and a run must hold
# several passes so that its tail has ten samples beyond it.
CUT_SCAN = {
    # (n, d, states per pass); every state is measured with both kinds
    "full": {
        "haar": [(12, 2, 1), (11, 2, 2), (10, 2, 3), (9, 2, 2), (7, 3, 1), (6, 3, 1)],
        # closed forms: ghz(n, d) has G_BS = 1 - 1/d and R = d - 1; the linear
        # cluster state has a rank-2 flat cut, so G_BS = 1/2 and R = 1
        "catalog": [("ghz", ["12", "2"]), ("ghz", ["7", "3"]), ("cluster", ["11"]), ("cluster", ["9"])],
        "warmup": (10, 2),
    },
    "tiny": {
        "haar": [(7, 2, 1), (6, 2, 1), (3, 3, 1)],
        "catalog": [("ghz", ["4", "2"]), ("cluster", ["5"])],
        "warmup": (5, 2),
    },
}


def _closed_form(name, params):
    if name == "ghz":
        d = int(params[1])
        return 1.0 - 1.0 / d, float(d - 1)
    return 0.5, 1.0


def plan_cut_scan(rng, size, workdir: Path) -> Plan:
    spec = CUT_SCAN[size]
    passes = []
    for v in range(VARIANTS):
        ops = []

        def add(label, path, ref):
            for kind in CUT_KINDS:
                ops.append(Op(f"{label}-{kind}", ("cli", [["measure", "--kind", kind, "--in", path]]),
                              {"kind": kind, "ref": ref}))

        for n, d, count in spec["haar"]:
            for j in range(count):
                amps = haar_vector(rng, d**n)
                path = write_state(workdir / f"cut-{v}-{n}-{d}-{j}.json", n, d, amps)
                add(f"haar-{n}-{d}", path, {"amps": amps, "n": n, "d": d})
        for name, params in spec["catalog"]:
            psi = catalog.build(name, params)
            path = write_state(workdir / f"cut-{v}-{name}-{'-'.join(params)}.json",
                               psi.n, psi.d, psi.amplitudes)
            add(f"{name}-{'-'.join(params)}", path, {"closed": _closed_form(name, params)})
        passes.append(ops)
    n, d = spec["warmup"]
    path = write_state(workdir / "cut-warmup.json", n, d, haar_vector(rng, d**n))
    warmup = Op("warmup", ("cli", [["measure", "--kind", "gbs", "--in", path]]))

    refs = {}

    def reference(ref):
        if "closed" in ref:
            return ref["closed"]
        key = id(ref["amps"])
        if key not in refs:
            refs[key] = cut_references(ref["amps"], ref["n"], ref["d"])
        return refs[key]

    @_checked
    def check(op, out):
        res = _cli_json(out)
        if not isinstance(res.get("certificate"), str) or "|" not in res["certificate"]:
            return _fail(op, f"no cut certificate in {res}", False)
        g_ref, r_ref = reference(op.meta["ref"])
        value = float(res["value"])
        if op.meta["kind"] == "gbs":
            if abs(value - g_ref) > GBS_TOL:
                return _fail(op, f"gbs {value!r} vs reference {g_ref!r}", False)
        else:
            if abs(value - r_ref) > RBS_TOL:
                return _fail(op, f"rbs-upper {value!r} vs reference {r_ref!r}", False)
            if value < g_ref / (1.0 - g_ref) - RBS_TOL:
                return _fail(op, f"rbs-upper {value!r} below g/(1-g) = {g_ref / (1 - g_ref)!r}", False)
        return Outcome(True, True)

    def inject(op, out):
        rc, text = out[0]
        res = json.loads(text)
        res["value"] += 1e-6
        return op, [(rc, json.dumps(res))]

    return Plan(passes, warmup, check, inject)


# ---------------------------------------------------------------------------
# convert: convert --theory bsp --build --verify N on Haar pairs

CONVERT = {
    # sorted by latency: 3-5 qutrits and 5-6 qubits | 7 qubits (median) |
    # 5 qutrits, 8 qubits (equal cost; the 75th percentile falls between
    # them) | 9 qubits
    "full": {"sizes": [(9, 2)] * 2 + [(8, 2)] + [(7, 2)] * 2 + [(6, 2)] * 2
             + [(5, 2), (3, 3), (4, 3)] + [(5, 3)] * 2,
             "verify": 100000, "warmup": (5, 2)},
    "tiny": {"sizes": [(3, 2), (4, 2), (2, 3)], "verify": 1000, "warmup": (3, 2)},
}


def plan_convert(rng, size, workdir: Path) -> Plan:
    spec = CONVERT[size]
    samples = spec["verify"]

    def pair_op(label, n, d):
        src, tgt = haar_vector(rng, d**n), haar_vector(rng, d**n)
        a = write_state(workdir / f"{label}-from.json", n, d, src)
        b = write_state(workdir / f"{label}-to.json", n, d, tgt)
        seed = int(rng.integers(2**31 - 1))
        argv = ["convert", "--from", a, "--to", b, "--theory", "bsp", "--build",
                "--verify", str(samples), "--seed", str(seed)]
        return Op(f"haar-{n}-{d}", ("cli", [argv]), {"src": src, "tgt": tgt, "n": n, "d": d})

    passes = []
    for v in range(VARIANTS):
        passes.append([pair_op(f"conv-{v}-{j}", n, d) for j, (n, d) in enumerate(spec["sizes"])])
    warmup = pair_op("conv-warmup", *spec["warmup"])

    @_checked
    def check(op, out):
        res = _cli_json(out)
        p_max = float(res["p_max"])
        if not 0.0 < p_max <= 1.0:
            return _fail(op, f"p_max {p_max!r} outside (0, 1]", False)
        if res["built"]["p"] != p_max:
            return _fail(op, f"built p {res['built']['p']!r} != p_max {p_max!r}", False)
        pres = res["preservation"]
        if pres["samples"] != samples or pres["violations"] != 0:
            return _fail(op, f"audit {pres}", False)
        if pres["worst_overlap_margin"] < 0 or pres["worst_ratio_margin"] < 0:
            return _fail(op, f"negative audit margin {pres}", False)
        m = op.meta
        g_ref, _ = cut_references(m["src"], m["n"], m["d"])
        _, r_ref = cut_references(m["tgt"], m["n"], m["d"])
        if abs(res["g_source"] - g_ref) > GBS_TOL or abs(res["r_target"] - r_ref) > RBS_TOL:
            return _fail(op, f"g_source/r_target {res['g_source']!r}/{res['r_target']!r} "
                             f"vs reference {g_ref!r}/{r_ref!r}", False)
        return Outcome(True, True)

    def inject(op, out):
        rc, text = out[0]
        res = json.loads(text)
        res["preservation"]["violations"] = 1
        return op, [(rc, json.dumps(res))]

    return Plan(passes, warmup, check, inject)


# ---------------------------------------------------------------------------
# reproduce: reproduce --all plus both witness checks, over a small seed pool

REPRODUCE = {
    "full": {"seeds": 12, "select": None, "claims": 12},
    "tiny": {"seeds": 2, "select": "gbs-ghz-grid,twirl-projection", "claims": 2},
}


def plan_reproduce(rng, size, workdir: Path) -> Plan:
    spec = REPRODUCE[size]
    # the op's cost depends on the seed, so a pass spans many seeds; seeds
    # repeat across passes, so every op is also a determinism probe
    seeds = [int(s) for s in rng.integers(2**31 - 1, size=spec["seeds"])]

    def op(seed):
        sel = ["--all"] if spec["select"] is None else ["--select", spec["select"]]
        s = str(seed)
        return Op(f"reproduce-{seed}", ("cli", [
            ["reproduce", *sel, "--seed", s],
            ["witness", "--name", "ghz", "--check", "--seed", s],
            ["witness", "--name", "w", "--check", "--seed", s],
        ]), {"seed": seed})

    passes = [[op(s) for s in seeds]]
    warmup = op(seeds[0])
    first_report = {}

    @_checked
    def check(op, out):
        if any(rc != 0 for rc, _ in out):
            return _fail(op, f"exit codes {[rc for rc, _ in out]}", False)
        text = out[0][1]
        rep = json.loads(text)
        if rep["all_pass"] is not True or len(rep["claims"]) != spec["claims"]:
            failing = [c["id"] for c in rep["claims"] if not c["pass"]]
            return _fail(op, f"claims failing {failing} of {len(rep['claims'])}", False)
        seed = op.meta["seed"]
        if first_report.setdefault(seed, text) != text:
            return _fail(op, f"reproduce --seed {seed} not byte-identical across runs", False)
        tol = witnesses.ADMISSION_TOL
        for i in (1, 2):
            w = _cli_json(out, i)
            lo, hi = w["optimizer_range"]
            if lo < -tol or hi > 1.0 + tol:
                return _fail(op, f"witness {w['name']} optimizer_range {lo!r}, {hi!r}", False)
            if abs(w["trace_on_target"] + 2.0) > WITNESS_TARGET_TOL:
                return _fail(op, f"witness {w['name']} trace_on_target {w['trace_on_target']!r}", False)
        return Outcome(True, True)

    def inject(op, out):
        rc, text = out[1]
        w = json.loads(text)
        w["trace_on_target"] = -1.9
        return op, [out[0], (rc, json.dumps(w)), out[2]]

    return Plan(passes, warmup, check, inject)


# ---------------------------------------------------------------------------
# certify: fs_certificate on a labelled suite, and robustness bisections
#
# Labels come from how a state is built:
# - products, mixtures of products (with or without white noise) and
#   diagonal states are fully separable by construction;
# - a GHZ-symmetric point is fully separable iff |l+ - l-| <= l/3
#   (exact criterion for the family); points within 1e-3 of the boundary
#   are redrawn so float rounding cannot flip the label;
# - p W + (1 - p) I/8 with p < 1/(1 + 2^(2n-1)) = 1/33 is fully separable
#   (Braunstein et al., PRL 83, 1054 (1999): every n-qubit state that close
#   to I/2^n is a mixture of products);
# - a Haar pure state is entangled with probability one;
# - p W + (1 - p) I/8 with p > 1/5 has tr(W_wit rho) = (1 - 5p)/2 < 0 for
#   the shipped W witness (range [0, 1] on FS), so it is entangled;
# - p GHZ + (1 - p) I/8 with p > 1/5 has a negative partial transpose.

SEP, ENT = "separable", "entangled"
EXACT_BISECT_TOL = 1e-6  # the library default; the expected values are checked to 2e-6
# 14 instead of 24 steps, so that a run holds one more pass; every step
# still reaches the fit
FIT_BISECT_TOL = 1e-3
CERTIFY = {
    # Sorted by latency a full pass (34 ops) is: 14 exact-route queries |
    # 6 bisections on exact routes, 4-6 ms each (median) | 5 diagonal and
    # 2-qubit queries that reach the fit | 8 fit queries on 2-4 qubits,
    # 0.2-0.5 s, two of them three-qubit product mixtures of equal cost
    # (ops 28-29, so the 82nd percentile) | one bisection whose steps reach
    # the fit (tilted GHZ toward I/8).  As many ops lie below the bisection
    # block as above it.
    "full": {"qubits": (2, 3, 4), "exact_repeat": 2, "fit_bisection": True, "noisy_bisections": 3,
             "extra": [("haar-pure", 3), ("product-pure", 4)]},
    "tiny": {"qubits": (2, 3), "exact_repeat": 1, "fit_bisection": False, "noisy_bisections": 1,
             "extra": []},
}


def _proj(v):
    return np.outer(v, v.conj())


def _ghz_symmetric_point(rng, inside):
    while True:
        lp, lm, lr = rng.dirichlet([1.0, 1.0, 1.0])
        margin = lr / 3 - abs(lp - lm)
        if abs(margin) > 1e-3 and (margin > 0) == inside:
            g = catalog.ghz(3, 2).amplitudes
            gm = catalog.ghz_minus().amplitudes
            middle = np.eye(8) - _proj(g) - _proj(gm)
            return lp * _proj(g) + lm * _proj(gm) + lr * middle / 6


def plan_certify(rng, size, workdir: Path) -> Plan:
    spec = CERTIFY[size]
    w_vec = catalog.w_state().amplitudes
    ghz_vec = catalog.ghz(3, 2).amplitudes
    eye8 = np.eye(8) / 8
    counter = count()

    def query(label, n, matrix, truth):
        rho = load_density(workdir / f"rho-{next(counter)}.json", n, 2, matrix)
        return Op(f"{label}-{n}", ("certify", rho), {"label": truth})

    def product_mixture(n, noise):
        D = 2**n
        weights = rng.dirichlet(np.ones(2 * n))
        m = sum(w * _proj(product_vector(rng, n, 2)) for w in weights)
        return (1 - noise) * m + noise * np.eye(D) / D

    suite = {
        "diagonal": (lambda n: np.diag(rng.dirichlet(np.ones(2**n))).astype(complex), SEP),
        "product-pure": (lambda n: _proj(product_vector(rng, n, 2)), SEP),
        "product-mix": (lambda n: product_mixture(n, 0.0), SEP),
        "product-mix-noise": (lambda n: product_mixture(n, 0.1), SEP),
        "haar-pure": (lambda n: _proj(haar_vector(rng, 2**n)), ENT),
    }

    def build_pass():
        ops = []
        for label, n in [(label, n) for n in spec["qubits"] for label in suite] + spec["extra"]:
            make, truth = suite[label]
            ops.append(query(label, n, make(n), truth))
        for _ in range(spec["exact_repeat"]):
            ops.append(query("ghz-symmetric-in", 3, _ghz_symmetric_point(rng, True), SEP))
            ops.append(query("ghz-symmetric-out", 3, _ghz_symmetric_point(rng, False), ENT))
            p = rng.uniform(0.005, 0.03)
            ops.append(query("w-heavy-noise", 3, p * _proj(w_vec) + (1 - p) * eye8, SEP))
            p = rng.uniform(0.6, 0.95)
            ops.append(query("w-light-noise", 3, p * _proj(w_vec) + (1 - p) * eye8, ENT))
            p = rng.uniform(0.6, 0.95)
            ops.append(query("ghz-light-noise", 3, p * _proj(ghz_vec) + (1 - p) * eye8, ENT))
        ops.append(Op("bisect-w-mixer", ("bisect", w_rho, w_mixer, EXACT_BISECT_TOL), {"expect": 2.0}))
        # GHZ + white noise is fully separable iff its GHZ weight is <= 1/5
        ops.append(Op("bisect-ghz-white", ("bisect", ghz_rho, white, EXACT_BISECT_TOL), {"expect": 4.0}))
        ops.append(Op("bisect-w-white", ("bisect", w_rho, white, EXACT_BISECT_TOL)))
        for _ in range(spec["noisy_bisections"]):
            # p GHZ + (1 - p) I/8 mixed with s I/8 has GHZ weight p/(1 + s),
            # which reaches 1/5 at s = 5p - 1
            p = rng.uniform(0.6, 0.95)
            rho = load_density(workdir / f"rho-{next(counter)}.json", 3, 2,
                               p * _proj(ghz_vec) + (1 - p) * eye8)
            ops.append(Op("bisect-ghz-noise-white", ("bisect", rho, white, EXACT_BISECT_TOL),
                          {"expect": 5 * p - 1}))
        if spec["fit_bisection"]:
            ops.append(Op("bisect-tilted-ghz-white", ("bisect", tilted_rho, white, FIT_BISECT_TOL)))
        return ops

    white = load_density(workdir / "white-3.json", 3, 2, np.eye(8, dtype=complex))
    w_mixer = load_density(workdir / "w-mixer.json", 3, 2, measures.w_robustness_mixer().entries)
    w_rho = load_density(workdir / "w.json", 3, 2, _proj(w_vec))
    ghz_rho = load_density(workdir / "ghz.json", 3, 2, _proj(ghz_vec))
    # Every step of this bisection reaches the fit.  How many steps end in
    # the fit's slow `unknown` depends on the state, so the state is fixed:
    # Haar states made its cost vary 0.9-2.8 s from one draw to the next.
    tilted_rho = load_density(workdir / "tilted-ghz.json", 3, 2,
                              _proj(catalog.psi_ghz_plus(0.4, 0.6, 0.8).amplitudes))
    passes = [build_pass() for _ in range(VARIANTS)]
    warmup = query("warmup-diagonal", 2, np.diag(rng.dirichlet(np.ones(4))).astype(complex), SEP)

    @_checked
    def check(op, out):
        if op.call[0] == "certify":
            verdict, label = out.verdict, op.meta["label"]
            certified = verdict != measures.UNKNOWN
            if (verdict == measures.CERTIFIED_FS and label == ENT) or (
                    verdict == measures.CERTIFIED_NOT_FS and label == SEP):
                return _fail(op, f"{verdict} via {out.route} contradicts label {label}", certified)
            return Outcome(True, certified)
        rho, mixer = op.call[1], op.call[2]
        s = float(out)
        m = (rho.entries + s * mixer.entries) / (1.0 + s)
        mix = linalg.DensityMatrix(rho.n, rho.d, (m + m.conj().T) / 2)
        if measures.fs_certificate(mix).verdict != measures.CERTIFIED_FS:
            return _fail(op, f"returned mixture at s = {s!r} is not certified FS")
        if "expect" in op.meta and abs(s - op.meta["expect"]) > BISECTION_TOL:
            return _fail(op, f"robustness {s!r} vs {op.meta['expect']}")
        return Outcome(True)

    def inject(op, out):
        if op.call[0] != "certify" or out.verdict == measures.UNKNOWN:
            return None
        flipped = ENT if op.meta["label"] == SEP else SEP
        return replace(op, meta={**op.meta, "label": flipped}), out

    return Plan(passes, warmup, check, inject)


# The percentile op_tail_s reports, fixed per workload so that a faster
# commit, which makes more passes, reports the same one.  Each lies inside a
# block of ops of one cost (see the slot lists above); a full run makes
# enough passes to leave at least ten samples beyond it.
TAIL_PERCENTILE = {"reproduce": 75, "cut-scan": 85, "convert": 75, "certify": 82}

PLANS = {
    "reproduce": plan_reproduce,
    "cut-scan": plan_cut_scan,
    "convert": plan_convert,
    "certify": plan_certify,
}
