"""Entanglement measures and separability certificates.

Geometric measures for the biseparable free set (closed form over cuts) and
the fully separable one (alternating product-state optimization), bipartite
pure-state robustness, and upper bounds on the fully separable robustness
through certified mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.optimize import nnls

from . import ghz_symmetric as gs
from .catalog import w_bar, w_state
from .linalg import (
    Bipartition,
    DensityMatrix,
    PureState,
    all_bipartitions,
    haar_vectors,
    kron_vectors,
    min_pt_eigenvalue,
    schmidt_spectrum,
)

CERTIFIED_FS = "certified_fs"
CERTIFIED_NOT_FS = "certified_not_fs"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class OptimizerOptions:
    restarts: int = 32
    max_iterations: int = 500
    tolerance: float = 1e-12
    seed: int = 2024

    def __post_init__(self):
        if self.restarts < 1 or self.tolerance <= 0:
            raise ValueError("restarts must be >= 1 and tolerance > 0")


@dataclass(frozen=True)
class MeasureResult:
    value: float
    certificate: object = None
    iterations: int = 0
    converged: bool = True


@dataclass(frozen=True)
class FsCertifierOptions:
    ppt_tol: float = 1e-10
    structure_tol: float = 1e-10
    fit_terms: int = 20
    fit_tol: float = 1e-6
    fit_rounds: int = 8
    fit_dictionary: int = 600
    seed: int = 2024


@dataclass(frozen=True)
class CertResult:
    verdict: str
    route: str
    detail: dict = field(default_factory=dict)


class RobustnessCapError(RuntimeError):
    """No mixing weight below the configured cap makes the state free."""


# ---------------------------------------------------------------------------
# Geometric measures


def _best_cut(psi: PureState, score) -> tuple[float, Bipartition]:
    """The smallest score(psi, cut) over all cuts and the first cut attaining it."""
    if psi.n < 2:
        raise ValueError(f"a state needs at least 2 parties to have a cut, got n={psi.n}")
    return min(((score(psi, cut), cut) for cut in all_bipartitions(psi.n)), key=lambda t: t[0])


def geometric_bs(psi: PureState) -> MeasureResult:
    """1 - (largest Schmidt value over all cuts); closed form, deterministic."""
    neg_l1, cut = _best_cut(psi, lambda psi, cut: -float(schmidt_spectrum(psi, cut).values[0]))
    return MeasureResult(value=1.0 + neg_l1, certificate=cut)


def maximize_over_products(
    terms: np.ndarray, weights, n: int, d: int, opts: OptimizerOptions = OptimizerOptions()
) -> MeasureResult:
    """Maximize sum_z w_z |<a_z|x_1 ... x_n>|^2 over product states.

    `terms` holds the vectors a_z as rows.  Alternating single-party updates
    (higher-order power iteration): with every party but k fixed the
    objective is x_k^dag M x_k, M = sum_z w_z b_z b_z^dag for the contractions
    b_z of a_z with the other local vectors, so the top eigenvector of M is
    the optimal update and its eigenvalue the new value.  All seeded restarts
    advance together; a restart whose sweep gained less than the tolerance
    is frozen and leaves the batch.  Returns the best restart's value, local
    vectors, sweep count and convergence flag.
    """
    rng = np.random.default_rng(opts.seed)
    x = np.array([[haar_vectors(rng, d) for _ in range(n)] for _ in range(opts.restarts)])
    a = np.asarray(terms, dtype=complex)
    w = np.asarray(weights, dtype=float)
    value = np.full(opts.restarts, -math.inf)
    sweeps = np.zeros(opts.restarts, dtype=int)
    converged = np.zeros(opts.restarts, dtype=bool)
    active = np.arange(opts.restarts)
    for sweep in range(1, opts.max_iterations + 1):
        xs = x[active]
        ones = np.ones((active.size, 1))
        for k in range(n):
            left = kron_vectors([ones] + [xs[:, j].conj() for j in range(k)])
            right = kron_vectors([ones] + [xs[:, j].conj() for j in range(k + 1, n)])
            t = a.reshape(-1, right.shape[1]) @ right.T
            b = np.einsum("zlia,al->azi", t.reshape(len(a), left.shape[1], d, -1), left)
            lam, vec = np.linalg.eigh(np.einsum("z,azi,azj->aij", w, b, b.conj()))
            xs[:, k] = vec[:, :, -1]
        gain = lam[:, -1] - value[active]
        x[active], value[active], sweeps[active] = xs, lam[:, -1], sweep
        done = gain < opts.tolerance
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    best = int(np.argmax(value))
    return MeasureResult(
        value=float(value[best]),
        certificate=list(x[best]),
        iterations=int(sweeps[best]),
        converged=bool(converged[best]),
    )


def geometric_fs(psi: PureState, opts: OptimizerOptions = OptimizerOptions()) -> MeasureResult:
    """1 - squared maximal overlap with product states.

    The product-state maximum with the state as its only term; the
    certificate is the best restart's list of local vectors.
    """
    res = maximize_over_products(psi.amplitudes[None], [1.0], psi.n, psi.d, opts)
    return replace(res, value=max(0.0, 1.0 - res.value))


def robustness_bipartite_pure(psi: PureState, cut: Bipartition) -> float:
    """(sum of Schmidt coefficients)^2 - 1 across the cut."""
    vals = schmidt_spectrum(psi, cut).values
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2 - 1.0)


def robustness_bs_upper(psi: PureState) -> MeasureResult:
    """Upper bound on the biseparable robustness: the minimum over cuts of
    the bipartite pure-state robustness."""
    value, cut = _best_cut(psi, robustness_bipartite_pure)
    return MeasureResult(value=value, certificate=cut)


# ---------------------------------------------------------------------------
# Fixed fully separable 3-qubit states in the diagonal {000, 111, W, Wbar}
# family, used for the W-state robustness bound.


def diag_family_state(w000, w111, ww, wwb) -> DensityMatrix:
    """Mixture of |000>, |111>, W and Wbar projectors with given weights."""
    weights = [float(w) for w in (w000, w111, ww, wwb)]
    if min(weights) < -1e-14 or abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"bad weight vector {weights}")
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = weights[0]
    m[7, 7] = weights[1]
    w = w_state().amplitudes
    wb = w_bar().amplitudes
    m += weights[2] * np.outer(w, w.conj())
    m += weights[3] * np.outer(wb, wb.conj())
    return DensityMatrix.by_construction(3, 2, m)


def w_robustness_mixer() -> DensityMatrix:
    """The fully separable state whose 1:2 mixture with the W state is the
    separability boundary point; gives the tight upper bound 2."""
    return diag_family_state(
        Fraction(9, 16), Fraction(3, 16), Fraction(1, 16), Fraction(3, 16)
    )


def w_robustness_boundary() -> DensityMatrix:
    """(W + 2 * mixer) / 3: the fully separable boundary mixture itself."""
    return diag_family_state(
        Fraction(3, 8), Fraction(1, 8), Fraction(3, 8), Fraction(1, 8)
    )


# ---------------------------------------------------------------------------
# Full-separability certification


def _is_permutation_symmetric(rho: DensityMatrix, tol: float) -> bool:
    n, d = rho.n, rho.d
    t = rho.entries.reshape((d,) * (2 * n))
    for perm in permutations(range(n)):
        p = list(perm) + [n + i for i in perm]
        if np.max(np.abs(t.transpose(p) - t)) > tol:
            return False
    return True


def _fit_product_decomposition(rho: DensityMatrix, opts: FsCertifierOptions):
    """Heuristic constructive fit: nonnegative mixture of random product
    projectors, refined by nonnegative least squares over a dictionary.

    Sufficient-only: a small residual certifies separability constructively,
    a large one proves nothing.
    """
    rng = np.random.default_rng(opts.seed)
    n, d, dim = rho.n, rho.d, rho.dim
    target = np.concatenate([rho.entries.real.reshape(-1), rho.entries.imag.reshape(-1)])

    def columns(states):
        cols = np.empty((2 * dim * dim, len(states)))
        for j, v in enumerate(states):
            p = np.outer(v, v.conj())
            cols[:, j] = np.concatenate([p.real.reshape(-1), p.imag.reshape(-1)])
        return cols

    # seed the dictionary with computational-basis products plus random draws
    states = []
    for i in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        states.append(v)
    best_x, best_states, best_res = None, None, math.inf
    for _ in range(opts.fit_rounds):
        while len(states) < opts.fit_dictionary:
            states.append(kron_vectors([haar_vectors(rng, d) for _ in range(n)]))
        a = columns(states)
        x, res = nnls(a, target)
        if res < best_res:
            best_x, best_states, best_res = x, list(states), res
        if res < opts.fit_tol:
            break
        # keep the heavy terms, resample the rest near them
        order = np.argsort(x)[::-1]
        keep = [states[i] for i in order[: opts.fit_terms] if x[i] > 1e-12]
        states = list(keep)
        for v in keep:
            for _ in range(4):
                noise = kron_vectors([haar_vectors(rng, d) for _ in range(n)])
                u = v + 0.15 * noise
                states.append(u / np.linalg.norm(u))
    terms = [
        (float(p), v) for p, v in zip(best_x, best_states) if p > 1e-12
    ]
    return best_res, terms


def fs_certificate(
    rho: DensityMatrix, opts: FsCertifierOptions = FsCertifierOptions()
) -> CertResult:
    """Decide full separability where a sufficient route applies.

    Routes, in order: exact criterion on the GHZ-symmetric family; negative
    partial transpose across any cut; symmetric 3-qubit + PPT; constructive
    product-decomposition fit.  (Members of the diagonal {000, 111, W, Wbar}
    family are permutation symmetric, so the first three routes decide them.)
    Returns UNKNOWN when no route fires; that is a value, not an error.
    """
    cuts = all_bipartitions(rho.n)

    if (rho.n, rho.d) == (3, 2):
        params = gs.twirl(rho)
        recon = gs.params_to_density(params)
        if np.max(np.abs(recon.entries - rho.entries)) <= opts.structure_tol:
            fs = gs.is_fs_symmetric(params, tol=opts.ppt_tol)
            return CertResult(
                CERTIFIED_FS if fs else CERTIFIED_NOT_FS,
                route="ghz-symmetric-polytope",
                detail={"params": params.as_floats()},
            )

    for cut in cuts:
        lam = min_pt_eigenvalue(rho, sorted(cut.parties))
        if lam < -opts.ppt_tol:
            return CertResult(
                CERTIFIED_NOT_FS,
                route="npt-cut",
                detail={"cut": str(cut), "min_eigenvalue": lam},
            )

    if (rho.n, rho.d) == (3, 2) and _is_permutation_symmetric(rho, opts.structure_tol):
        # all cuts already verified PPT above; for symmetric 3-qubit states
        # PPT is sufficient for full separability
        return CertResult(CERTIFIED_FS, route="symmetric-ppt", detail={})

    res, terms = _fit_product_decomposition(rho, opts)
    if res < opts.fit_tol:
        return CertResult(
            CERTIFIED_FS,
            route="decomposition-fit",
            detail={"residual": res, "terms": len(terms)},
        )
    return CertResult(UNKNOWN, route="none", detail={"fit_residual": res})


def robustness_fs_upper_via_mix(
    psi: DensityMatrix,
    mixer: DensityMatrix,
    s_max: float = 16.0,
    bisect_tol: float = 1e-6,
) -> float:
    """Minimal s (bisection) with (psi + s mixer) / (1 + s) certified fully
    separable.  Upper-bounds the separability robustness for this mixer."""
    cert = fs_certificate(mixer)
    if cert.verdict != CERTIFIED_FS:
        raise ValueError(f"mixer not certified fully separable: {cert.verdict}")

    def mix(s):
        m = (psi.entries + s * mixer.entries) / (1.0 + s)
        return DensityMatrix.by_construction(psi.n, psi.d, (m + m.conj().T) / 2)

    if fs_certificate(psi).verdict == CERTIFIED_FS:
        return 0.0
    if fs_certificate(mix(s_max)).verdict != CERTIFIED_FS:
        raise RobustnessCapError(f"no certified mixture below s = {s_max}")
    lo, hi = 0.0, s_max
    while hi - lo > bisect_tol:
        mid = (lo + hi) / 2
        if fs_certificate(mix(mid)).verdict == CERTIFIED_FS:
            hi = mid
        else:
            lo = mid
    return hi


def ppt_all_cuts_min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest partial-transpose eigenvalue over all canonical cuts."""
    return min(
        min_pt_eigenvalue(rho, sorted(cut.parties)) for cut in all_bipartitions(rho.n)
    )
