"""Spans around calls into entactic's public functions, recorded from outside.

`Tracer.installed()` swaps each traced function for a wrapper in every
entactic module that holds it (a name imported with `from .linalg import
schmidt_spectrum` is a separate binding from `linalg.schmidt_spectrum`, so
both are patched), and puts the originals back on exit.  Spans stay in
memory until the run ends; `layer_metrics` turns them into per-layer counts
and self times.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

from entactic import catalog, cli, conversion, ghz_symmetric, linalg, measures, report, witnesses

# (layer name, owner, attribute).  conversion.bs_mixer is the private
# _bs_mixer_details because that is what the CLI calls.
LAYERS = [
    ("linalg.schmidt_spectrum", linalg, "schmidt_spectrum"),
    ("linalg.DensityMatrix.validate", linalg.DensityMatrix, "__post_init__"),
    ("linalg.min_pt_eigenvalue", linalg, "min_pt_eigenvalue"),
    ("linalg.is_ppt", linalg, "is_ppt"),
    ("linalg.state_from_json", linalg, "state_from_json"),
    ("linalg.apply_channel", linalg, "apply_channel"),
    ("catalog.build", catalog, "build"),
    ("measures.geometric_bs", measures, "geometric_bs"),
    ("measures.robustness_bs_upper", measures, "robustness_bs_upper"),
    ("measures.geometric_fs", measures, "geometric_fs"),
    ("measures.fs_certificate", measures, "fs_certificate"),
    ("measures.robustness_fs_upper_via_mix", measures, "robustness_fs_upper_via_mix"),
    ("witnesses.witness_range_over_fs", witnesses, "witness_range_over_fs"),
    ("ghz_symmetric.twirl", ghz_symmetric, "twirl"),
    ("ghz_symmetric.symmetric_robustness", ghz_symmetric, "symmetric_robustness"),
    ("conversion.max_probability", conversion, "max_probability"),
    ("conversion.bs_mixer", conversion, "_bs_mixer_details"),
    ("conversion.build_filter_map", conversion, "build_filter_map"),
    ("conversion.verify_preservation_sampled", conversion, "verify_preservation_sampled"),
    ("conversion.ghz_to_any_bsp", conversion, "ghz_to_any_bsp"),
    ("cli.run_command", cli, "run_command"),
]

# Layers whose work happens in set-up rather than in the measured ops.
SETUP_LAYERS = {"catalog.build"}

CERTIFIER_ROUTES = [
    "ghz-symmetric-polytope",
    "npt-cut",
    "symmetric-ppt",
    "diagonal-family",
    "decomposition-fit",
    "none",
]
FIT_ROUTES = {"decomposition-fit", "none"}  # routes reached only after the fit ran

CLAIM_IDS = [cid for cid, *_ in report.REGISTRY]


def _note(name, result):
    """Per-call detail recorded with the span: the certifier's route and the
    audit's sample count."""
    if name == "measures.fs_certificate":
        return result.route
    if name == "conversion.verify_preservation_sampled":
        return result.samples
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    note: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.op = -1  # id of the op in flight; -1 during set-up
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                note = _note(name, result) if result is not None else None
                self.spans[idx] = Span(name, start, end, parent, self.op, note)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "entactic" or key.startswith("entactic."))
        ]
        undo = []
        for name, owner, attr in LAYERS:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is orig
            ]
            for holder in holders:
                setattr(holder, attr, wrapped)
                undo.append((holder, attr, orig))
        registry = list(report.REGISTRY)
        report.REGISTRY[:] = [
            (cid, desc, ref, self._wrap(f"report.claim.{cid}", fn))
            for cid, desc, ref, fn in registry
        ]
        try:
            yield self
        finally:
            report.REGISTRY[:] = registry
            for holder, attr, orig in reversed(undo):
                setattr(holder, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "note": s.note,
                }) + "\n")


def self_times(spans):
    """Span duration minus the time covered by its direct children (spans
    nest strictly: one client, one thread)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans, passes, ops, traced_wall, overhead):
    """Per-layer metrics, per pass over the workload's op slots, from the
    traced passes; the set-up layers count one traced set-up instead.
    Returns {name: (value, unit)}."""
    selfs = self_times(spans)
    timed = [i for i, s in enumerate(spans) if s.op >= 0]
    setup = [i for i, s in enumerate(spans) if s.op < 0]

    def per(x, base):
        return x / base if base else 0.0

    out = {}
    for name, _, _ in LAYERS:
        if name in SETUP_LAYERS:
            idx, scale, unit = [i for i in setup if spans[i].name == name], 1, "setup"
        else:
            idx, scale, unit = [i for i in timed if spans[i].name == name], passes, "pass"
        out[f"{name}.calls"] = (per(len(idx), scale), f"calls/{unit}")
        out[f"{name}.self_s"] = (per(sum(selfs[i] for i in idx), scale), f"s/{unit}")

    calls = sum(1 for i in timed if spans[i].name == "linalg.schmidt_spectrum")
    out["linalg.schmidt_spectrum.calls_per_op"] = (per(calls, ops), "calls/op")
    cert = [i for i in timed if spans[i].name == "measures.fs_certificate"]
    for route in CERTIFIER_ROUTES:
        out[f"measures.fs_certificate.route.{route}"] = (
            per(sum(1 for i in cert if spans[i].note == route), passes), "calls/pass")
    out["measures.fs_certificate.fit_s"] = (
        per(sum(spans[i].end - spans[i].start for i in cert if spans[i].note in FIT_ROUTES),
            passes), "s/pass")
    mixes = sum(1 for i in timed if spans[i].name == "measures.robustness_fs_upper_via_mix")
    inner = sum(1 for i in cert if _has_ancestor(spans, i, "measures.robustness_fs_upper_via_mix"))
    out["measures.robustness_fs_upper_via_mix.certifier_calls_per_op"] = (per(inner, mixes), "calls/op")
    audits = [i for i in timed if spans[i].name == "conversion.verify_preservation_sampled"]
    out["conversion.audit_samples_per_s"] = (
        per(sum(spans[i].note or 0 for i in audits),
            sum(spans[i].end - spans[i].start for i in audits)), "samples/s")
    for cid in CLAIM_IDS:
        out[f"report.claim.{cid}.s"] = (
            per(sum(spans[i].end - spans[i].start for i in timed
                    if spans[i].name == f"report.claim.{cid}"), passes), "s/pass")
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.attributed_frac"] = (per(sum(selfs[i] for i in timed), traced_wall), "ratio")
    return out
