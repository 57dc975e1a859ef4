"""The GHZ-symmetric 3-qubit family rho(l+, l-, l).

The family is diagonal in the basis {GHZ, GHZ-, middle computational states}:
a weight l+ on the GHZ projector, l- on the phase-flipped GHZ projector and
a uniform weight l/6 on the six middle basis states.  Full separability is
an exact polytope condition, |l+ - l-| <= l/3, which makes the restricted
robustness a tiny linear program that we solve in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .catalog import ghz, ghz_minus
from .linalg import DensityMatrix

Rat = Fraction


def _as_fraction(x) -> Fraction:
    # Fraction(float) is exact on binary rationals, which is what we want:
    # the LP then certifies the float input itself, not a rounding of it.
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class GhzSymmetricParams:
    """Weight triple (l+, l-, l) of a GHZ-symmetric state."""

    lambda_plus: float
    lambda_minus: float
    lambda_rest: float

    def __post_init__(self):
        vals = (self.lambda_plus, self.lambda_minus, self.lambda_rest)
        if min(vals) < -1e-12:
            raise ValueError(f"negative weight in {vals}")
        if abs(float(sum(vals)) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(sum(vals))}, expected 1")

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
    g = ghz(3, 2).amplitudes
    gm = ghz_minus().amplitudes
    m = lp * np.outer(g, g.conj()) + lm * np.outer(gm, gm.conj())
    for i in range(1, 7):
        m[i, i] += lr / 6
    return DensityMatrix.by_construction(3, 2, m)


def twirl(rho: DensityMatrix) -> GhzSymmetricParams:
    """Project a 3-qubit state onto the GHZ-symmetric family.

    Reads off the two GHZ-basis overlaps; the middle weight is fixed by
    normalization.  States already in the family are fixed points.
    """
    if (rho.n, rho.d) != (3, 2):
        raise ValueError("twirl is defined for 3-qubit states")
    g = ghz(3, 2).amplitudes
    gm = ghz_minus().amplitudes
    lp = float(np.real(g.conj() @ rho.entries @ g))
    lm = float(np.real(gm.conj() @ rho.entries @ gm))
    lp, lm = max(lp, 0.0), max(lm, 0.0)
    return GhzSymmetricParams(lp, lm, 1.0 - lp - lm)


def is_fs_symmetric(p: GhzSymmetricParams, tol: float = 0.0) -> bool:
    lp, lm, lr = p.as_fractions()
    return abs(lp - lm) <= lr / 3 + _as_fraction(tol)


def polytope_vertices() -> list[GhzSymmetricParams]:
    """Vertices of the fully separable GHZ-symmetric polytope."""
    return [
        GhzSymmetricParams(Rat(0), Rat(0), Rat(1)),
        GhzSymmetricParams(Rat(0), Rat(1, 4), Rat(3, 4)),
        GhzSymmetricParams(Rat(1, 2), Rat(1, 2), Rat(0)),
        GhzSymmetricParams(Rat(1, 4), Rat(0), Rat(3, 4)),
    ]


# ---------------------------------------------------------------------------
# Exact vertex-enumeration LP solver (dimensions 2 and 3, Fractions)


def _solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    k = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][k] for r in range(k)]


def _lp_vertices(constraints):
    """All vertices of {x : a.x <= b for (a, b) in constraints}, exact."""
    dim = len(constraints[0][0])
    verts = []
    for combo in combinations(range(len(constraints)), dim):
        rows = [constraints[i][0] for i in combo]
        rhs = [constraints[i][1] for i in combo]
        x = _solve_square(rows, rhs)
        if x is None:
            continue
        if all(sum(a * xi for a, xi in zip(av, x)) <= b for av, b in constraints):
            if x not in verts:
                verts.append(x)
    return verts


def _lp_minimize(constraints, objective):
    """Exact minimum of objective.x over the constraint polyhedron.

    Assumes the polyhedron is pointed and the objective is bounded below
    on it, so the optimum is attained at an enumerated vertex.
    """
    verts = _lp_vertices(constraints)
    if not verts:
        raise RuntimeError("LP infeasible")
    best, best_x = None, None
    for x in verts:
        val = sum(c * xi for c, xi in zip(objective, x))
        if best is None or val < best:
            best, best_x = val, x
    return best, best_x


def symmetric_robustness(
    target: GhzSymmetricParams,
) -> tuple[Fraction, GhzSymmetricParams]:
    """Minimal s such that (target + s sigma) / (1 + s) is fully separable
    for some fully separable GHZ-symmetric sigma; returns (s, sigma).

    Solved exactly: with mu = s * sigma unnormalized, both separability
    conditions are linear in mu, and s = sum(mu) is the objective of a
    3-variable rational LP solved by vertex enumeration.
    """
    tp, tm, tl = target.as_fractions()
    dt = tp - tm
    third = Rat(1, 3)
    # variables mu = (mu+, mu-, mul); all constraints a.mu <= b
    cons = [
        ((Rat(1), Rat(-1), -third), Rat(0)),  # mixer FS, upper
        ((Rat(-1), Rat(1), -third), Rat(0)),  # mixer FS, lower
        ((Rat(1), Rat(-1), -third), tl / 3 - dt),  # mixture FS, upper
        ((Rat(-1), Rat(1), -third), tl / 3 + dt),  # mixture FS, lower
        ((Rat(-1), Rat(0), Rat(0)), Rat(0)),
        ((Rat(0), Rat(-1), Rat(0)), Rat(0)),
        ((Rat(0), Rat(0), Rat(-1)), Rat(0)),
    ]
    s, mu = _lp_minimize(cons, (Rat(1), Rat(1), Rat(1)))
    if s == 0:
        return Rat(0), target
    mixer = GhzSymmetricParams(mu[0] / s, mu[1] / s, mu[2] / s)
    return s, mixer


def unique_fs_mixer_for_ghz() -> GhzSymmetricParams:
    """The unique fully separable GHZ-symmetric sigma whose 1:2 mixture
    with the GHZ state stays fully separable.

    Certifies uniqueness by exact vertex enumeration of the feasible
    region: the solution polytope must collapse to a single point.
    """
    # variables (l+, l-); l = 1 - l+ - l- eliminated by normalization
    third = Rat(1, 3)
    cons = [
        # |l+ - l-| <= (1 - l+ - l-) / 3
        ((Rat(4, 3), Rat(-2, 3)), third),
        ((Rat(-2, 3), Rat(4, 3)), third),
        # |1/3 + (2/3)(l+ - l-)| <= (2/9)(1 - l+ - l-)
        ((Rat(2, 3) + Rat(2, 9), Rat(-2, 3) + Rat(2, 9)), Rat(2, 9) - third),
        ((Rat(-2, 3) + Rat(2, 9), Rat(2, 3) + Rat(2, 9)), Rat(2, 9) + third),
        # positivity of all three weights
        ((Rat(-1), Rat(0)), Rat(0)),
        ((Rat(0), Rat(-1)), Rat(0)),
        ((Rat(1), Rat(1)), Rat(1)),
    ]
    verts = _lp_vertices(cons)
    if len(verts) != 1:
        raise RuntimeError(f"feasible set is not a single point: {verts}")
    lp, lm = verts[0]
    return GhzSymmetricParams(lp, lm, 1 - lp - lm)
