"""The bench tracer patches library functions by name; a name it lists that
the library no longer has would only fail when the bench runs."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from entactic import conversion, measures

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it loads
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACING_MODULE = load_tracing()
TRACED = TRACING_MODULE.LAYERS
# The certifier routes the tracer does not count, and the names it counts
# that no route returns any more.  Its list changes only with the benchmark,
# so these sets record the drift; a route renamed on either side fails below.
UNCOUNTED_ROUTES = {"ghz-corner", "two-qubit-ppt", "near-identity", "single-party"}
STALE_ROUTES = {"ghz-symmetric-polytope", "diagonal-family"}


@pytest.mark.parametrize("name, owner, attr", TRACED, ids=[name for name, *_ in TRACED])
def test_every_traced_name_resolves(name, owner, attr):
    # the tracer reads owner.__dict__[attr], so an inherited or re-exported
    # name does not count
    assert callable(owner.__dict__[attr])


def test_the_notes_the_tracer_reads_exist():
    # tracing._note reads the certifier's route and the audit's sample count
    assert "route" in [f.name for f in dataclasses.fields(measures.CertResult)]
    assert "samples" in [f.name for f in dataclasses.fields(conversion.PreservationReport)]


def test_the_tracer_counts_every_route_but_the_named_ones():
    routes = {name for name, _ in measures.FS_ROUTES} | {measures.UNKNOWN_ROUTE}
    assert UNCOUNTED_ROUTES <= routes and not STALE_ROUTES & routes
    assert set(TRACING_MODULE.CERTIFIER_ROUTES) == (routes - UNCOUNTED_ROUTES) | STALE_ROUTES
