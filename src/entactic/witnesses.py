"""Witness operators and the dual robustness lower bound.

A witness admitted to the dual program must take values in [0, 1] on every
fully separable state; then minus its expectation value on a target state
lower-bounds the separability robustness.  The two shipped witnesses detect
the GHZ and W states with value -2, matching the exact robustness 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Optional

import numpy as np

from .catalog import ghz, ghz_minus, w_bar, w_state
from .ghz_symmetric import GhzSymmetricParams, polytope_vertices
from .linalg import NORM_TOL, DensityMatrix, PureState, ShapeError, kron_vectors
from .measures import DEFAULT_SEED, maximize_over_products

ADMISSION_TOL = 1e-8


@dataclass(frozen=True)
class Witness:
    operator: np.ndarray
    name: str
    n: int
    d: int
    verified_range: Optional[tuple[float, float]] = None

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        dim = self.d**self.n
        if op.shape != (dim, dim):
            raise ShapeError(
                f"witness '{self.name}' on n={self.n}, d={self.d} needs a {dim}x{dim} operator, "
                f"got shape {op.shape}"
            )
        if not np.isfinite(op).all():
            raise ValueError(f"witness '{self.name}' operator has non-finite entries")
        if np.max(np.abs(op - op.conj().T)) > NORM_TOL:
            raise ValueError("witness operator must be Hermitian")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)

    def expectation(self, rho: DensityMatrix) -> float:
        if (rho.n, rho.d) != (self.n, self.d):
            raise ShapeError(
                f"witness '{self.name}' acts on n={self.n}, d={self.d}; "
                f"the state has n={rho.n}, d={rho.d}"
            )
        return float(np.real(np.trace(self.operator @ rho.entries)))


def _proj(v):
    return np.outer(v, v.conj())


@cache
def ghz_robustness_witness() -> Witness:
    """(2/3) 1 - (8/3) GHZ + (4/3) GHZ-; detects GHZ with value -2.

    Verified on the fully separable set by exact evaluation at the four
    vertices of the GHZ-symmetric separability polytope (the twirl reduces
    the general case to that family), plus a numerical optimizer sweep.
    Built on the first call; every call returns that one read-only witness.
    """
    op = (
        (2.0 / 3.0) * np.eye(8)
        - (8.0 / 3.0) * _proj(ghz(3, 2).amplitudes)
        + (4.0 / 3.0) * _proj(ghz_minus().amplitudes)
    )
    lo, hi = _ghz_witness_vertex_range()
    return Witness(
        op,
        name="ghz",
        n=3,
        d=2,
        verified_range=(float(lo), float(hi)),
    )


@cache
def w_robustness_witness() -> Witness:
    """|000><000| - 3 W + |001><001| + |010><010| + |100><100| + 3 Wbar.

    Detects W with value -2; on product states its traceless part is the
    symmetric trilinear form (1/2) cos(6a), hence values stay in [0, 1].
    Built on the first call; every call returns that one read-only witness.
    """
    op = np.zeros((8, 8), dtype=complex)
    op[0, 0] = 1.0
    for i in (1, 2, 4):
        op[i, i] += 1.0
    op -= 3.0 * _proj(w_state().amplitudes)
    op += 3.0 * _proj(w_bar().amplitudes)
    return Witness(
        op,
        name="w",
        n=3,
        d=2,
        verified_range=(0.0, 1.0),
    )


# ---------------------------------------------------------------------------
# Exact rational evaluations on the structured families


def ghz_witness_value_symmetric(params: GhzSymmetricParams) -> Fraction:
    """tr(witness * rho(l+, l-, l)), exact: (2/3) - (8/3) l+ + (4/3) l-."""
    lp, lm, _ = params.as_fractions()
    return Fraction(2, 3) - Fraction(8, 3) * lp + Fraction(4, 3) * lm


def _ghz_witness_vertex_range() -> tuple[Fraction, Fraction]:
    vals = [ghz_witness_value_symmetric(v) for v in polytope_vertices()]
    return min(vals), max(vals)


def w_witness_value_diag(w000, w111, ww, wwb) -> Fraction:
    """tr(witness * rho) for rho diagonal in {000, 111, W, Wbar}, exact.

    The four projectors give witness values 1, 0, -2, 3 respectively.
    """
    coeffs = (Fraction(1), Fraction(0), Fraction(-2), Fraction(3))
    weights = (Fraction(w000), Fraction(w111), Fraction(ww), Fraction(wwb))
    return sum(c * w for c, w in zip(coeffs, weights))


def w_robustness_lower_exact() -> Fraction:
    """Exact dual bound for the W state: -tr(witness W) = 2."""
    return -w_witness_value_diag(0, 0, 1, 0)


# ---------------------------------------------------------------------------
# Product-state optimization and the dual bound


def witness_range_over_fs(
    w: Witness, seed: int = DEFAULT_SEED
) -> tuple[float, float, PureState, PureState]:
    """Extrema of tr(w * product projector) over product pure states.

    With w = sum_z l_z |a_z><a_z| from its eigendecomposition, the maximum is
    the product-state maximum with weights l_z and the minimum minus the one
    with weights -l_z.  Both come from one optimizer batch over the weight
    rows [l, -l], which shares the seed's start points.  No step mixes
    restarts, so each extreme is bit for bit its own single-row call, and
    adding restarts never changes an existing one.  Returns (min, max,
    minimizer, maximizer).
    """
    lam, vecs = np.linalg.eigh(np.asarray(w.operator))
    hi, lo = maximize_over_products(vecs.T, np.stack([lam, -lam]), w.n, w.d, seed)

    def assemble(res):
        v = kron_vectors(res.certificate)
        return PureState(w.n, w.d, v / np.linalg.norm(v))

    return -lo.value, hi.value, assemble(lo), assemble(hi)


def robustness_lower_from_witness(rho: DensityMatrix, w: Witness) -> float:
    """max(0, -tr(w rho)); valid only for witnesses verified in [0, 1]."""
    if w.verified_range is None:
        raise ValueError(f"witness '{w.name}' has no verified range")
    lo, hi = w.verified_range
    if lo < -ADMISSION_TOL or hi > 1.0 + ADMISSION_TOL:
        raise ValueError(
            f"witness '{w.name}' range [{lo}, {hi}] not within [0, 1]"
        )
    return max(0.0, -w.expectation(rho))


def symmetric_triform_value(alpha: float, beta: float = 0.0) -> float:
    """<aaa| (w - 1/2) |aaa> for |a> = cos(a)|0> + e^(ib) sin(a)|1>.

    Evaluates the matrix element directly; equals (1/2) cos(6a) for every
    value of the phase b (the independence is part of the contract).
    """
    a = np.array([math.cos(alpha), np.exp(1j * beta) * math.sin(alpha)])
    v = kron_vectors([a, a, a])
    op = np.asarray(w_robustness_witness().operator) - np.eye(8) / 2
    return float(np.real(v.conj() @ op @ v))
