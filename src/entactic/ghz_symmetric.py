"""The GHZ-symmetric 3-qubit family rho(l+, l-, l).

The family is diagonal in the basis {GHZ, GHZ-, middle computational states}:
a weight l+ on the GHZ projector, l- on the phase-flipped GHZ projector and
a uniform weight l/6 on the six middle basis states.  Full separability is
an exact polytope condition, |l+ - l-| <= l/3, which gives the restricted
robustness in closed form, in exact rational arithmetic.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .catalog import ghz, ghz_minus
from .linalg import NORM_TOL, PSD_TOL, DensityMatrix

Rat = Fraction

# The family's basis, built once: GHZ and its phase flip GHZ-.
_GHZ = ghz(3, 2).amplitudes
_GHZ_MINUS = ghz_minus().amplitudes


def _as_fraction(x) -> Fraction:
    # Fraction(float) is exact on binary rationals, which is what we want:
    # the closed form then answers for the float input, not a rounding of it.
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class GhzSymmetricParams:
    """Weight triple (l+, l-, l) of a GHZ-symmetric state, checked within
    the bounds a `DensityMatrix` is: PSD_TOL on the sign of each eigenvalue,
    l+, l- and l/6, and NORM_TOL on the sum."""

    lambda_plus: float
    lambda_minus: float
    lambda_rest: float

    def __post_init__(self):
        vals = (self.lambda_plus, self.lambda_minus, self.lambda_rest)
        if min(self.lambda_plus, self.lambda_minus, self.lambda_rest / 6) < -PSD_TOL:
            raise ValueError(f"negative weight in {vals}")
        # summed in Fractions, as a weight beyond the float range has no float sum
        total = sum(map(_as_fraction, vals))
        if abs(total - 1) > NORM_TOL:
            shown = float(total) if total <= sys.float_info.max else "more than the largest float"
            raise ValueError(f"weights sum to {shown}, expected 1")

    def as_fractions(self) -> tuple[Fraction, Fraction, Fraction]:
        return (
            _as_fraction(self.lambda_plus),
            _as_fraction(self.lambda_minus),
            _as_fraction(self.lambda_rest),
        )

    def as_floats(self) -> tuple[float, float, float]:
        return (
            float(self.lambda_plus),
            float(self.lambda_minus),
            float(self.lambda_rest),
        )


def params_to_density(p: GhzSymmetricParams) -> DensityMatrix:
    lp, lm, lr = p.as_floats()
    g, gm = _GHZ, _GHZ_MINUS
    m = lp * np.outer(g, g.conj()) + lm * np.outer(gm, gm.conj())
    for i in range(1, 7):
        m[i, i] += lr / 6
    return DensityMatrix.by_construction(3, 2, m)


def twirl(rho: DensityMatrix) -> tuple[float, float, float]:
    """Project a 3-qubit state onto the GHZ-symmetric family: its weights
    (l+, l-, l) as floats.

    Reads off the two GHZ-basis overlaps; the middle weight is fixed by
    normalization.  States already in the family are fixed points.
    """
    if (rho.n, rho.d) != (3, 2):
        raise ValueError("twirl is defined for 3-qubit states")
    g, gm = _GHZ, _GHZ_MINUS
    lp = float(np.real(g.conj() @ rho.entries @ g))
    lm = float(np.real(gm.conj() @ rho.entries @ gm))
    lp, lm = max(lp, 0.0), max(lm, 0.0)
    return lp, lm, 1.0 - lp - lm


# The fully separable polytope in x = (l+, l-), with l = 1 - l+ - l- fixed by
# normalization, as exact rows a.x <= b: the separability rows
# |l+ - l-| <= l/3, then the positivity of the three weights.
_FS_ROWS = (
    ((Rat(4, 3), Rat(-2, 3)), Rat(1, 3)),
    ((Rat(-2, 3), Rat(4, 3)), Rat(1, 3)),
    ((Rat(-1), Rat(0)), Rat(0)),
    ((Rat(0), Rat(-1)), Rat(0)),
    ((Rat(1), Rat(1)), Rat(1)),
)


def polytope_vertices() -> list[GhzSymmetricParams]:
    """Vertices of the fully separable GHZ-symmetric polytope."""
    return [GhzSymmetricParams(lp, lm, 1 - lp - lm) for lp, lm in _lp_vertices(_FS_ROWS)]


@functools.cache
def _boundary_mixers() -> tuple[GhzSymmetricParams, GhzSymmetricParams]:
    """The mixers of `symmetric_robustness`, for l+ > l- and for l+ < l-:
    the polytope's vertices on a separability row with l+ = 0, and with
    l- = 0, each unique."""
    on_row = [
        v for v in polytope_vertices()
        if any(a1 * v.lambda_plus + a2 * v.lambda_minus == b for (a1, a2), b in _FS_ROWS[:2])
    ]
    (plus_zero,) = [v for v in on_row if v.lambda_plus == 0]
    (minus_zero,) = [v for v in on_row if v.lambda_minus == 0]
    return plus_zero, minus_zero


def symmetric_robustness(
    target: GhzSymmetricParams,
) -> tuple[Fraction, GhzSymmetricParams]:
    """Minimal s such that (target + s sigma) / (1 + s) is fully separable
    for some fully separable GHZ-symmetric sigma; returns (s, sigma).

    Closed form, with D = l+ - l- of the target: s = 2(|D| - l/3) outside
    the polytope, so s == 0 exactly when |D| <= l/3, also for weights that
    sum to 1 only within NORM_TOL.  Write mu = s sigma; the cost sum(mu)
    is at least |mu+ - mu-| + mu_l, the two separability conditions force
    mu_l >= (3|D| - l)/2, and the bound grows with mu_l, so it is attained
    only there, with mu+ = 0 if D > 0 (mu- = 0 if D < 0): sigma is the
    polytope's vertex on a separability row with l+ = 0 (l- = 0), which is
    (0, 1/4, 3/4) ((1/4, 0, 3/4)).
    """
    tp, tm, tl = target.as_fractions()
    dt = tp - tm
    s = 2 * (abs(dt) - tl / 3)
    if s <= 0:
        return Rat(0), target
    plus_zero, minus_zero = _boundary_mixers()
    return s, plus_zero if dt > 0 else minus_zero


# ---------------------------------------------------------------------------
# Exact vertex enumeration (Fractions)


def _lp_vertices(rows):
    """All vertices of {x in Q^2 : a.x <= b for (a, b) in rows}, exact: the
    feasible meeting points of two boundary lines, each once, by Cramer's
    rule; parallel lines meet in no single point."""
    verts = []
    for ((a1, a2), b), ((c1, c2), e) in combinations(rows, 2):
        det = a1 * c2 - a2 * c1
        if det == 0:
            continue
        x = ((b * c2 - a2 * e) / det, (a1 * e - b * c1) / det)
        if x not in verts and all(u * x[0] + v * x[1] <= w for (u, v), w in rows):
            verts.append(x)
    return verts


def unique_fs_mixer_for_ghz() -> GhzSymmetricParams:
    """The unique fully separable GHZ-symmetric sigma whose 1:2 mixture
    with the GHZ state stays fully separable.

    Certifies uniqueness by exact vertex enumeration of the feasible
    region: the solution polytope must collapse to a single point.
    """
    # (GHZ + 2 sigma)/3 sits at x' = ((1 + 2 l+)/3, 2 l-/3), so it meets a
    # row a.x <= b iff (2/3) a.x <= b - a[0]/3: the separability rows again
    mixture = tuple((tuple(2 * c / 3 for c in a), b - a[0] / 3) for a, b in _FS_ROWS[:2])
    verts = _lp_vertices(_FS_ROWS + mixture)
    if len(verts) != 1:
        raise RuntimeError(f"feasible set is not a single point: {verts}")
    lp, lm = verts[0]
    return GhzSymmetricParams(lp, lm, 1 - lp - lm)
