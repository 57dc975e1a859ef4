"""Constructive state-conversion channels and their verification.

Any resource state can be filtered into any other with probability bounded
by the source's geometric measure and the target's robustness; the channel
is a measure-and-prepare map whose free-set preservation reduces to a scalar
inequality per free input, which we verify by seeded sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import ghz
from .linalg import (
    Bipartition,
    DensityMatrix,
    PureState,
    ShapeError,
    all_bipartitions,
    cut_matrix,
    from_cut_order,
    kron_vectors,
    partial_transpose,
)
from .measures import DEFAULT_SEED, geometric_bs, geometric_fs, robustness_bs_upper

FSP = "FSP"
BSP = "BSP"

_P_SLACK = 1e-12
_CLAMP_TOL = 1e-9
AUDIT_TOL = 1e-9  # slack on both preservation inequalities before a violation
OVERLAP_FLOOR = 1e-15  # a free input overlapping psi1 at most this bounds no mixing weight
FREE_SOURCE_TOL = 1e-9  # a source whose geometric measure is at most this is free
# the biseparable mixer: a target whose robustness bound is below
# FREE_TARGET_TOL is its own mixer; Schmidt coefficients at or below
# SCHMIDT_CUTOFF are dropped; the boundary mixture must be PPT within
# BOUNDARY_PPT_TOL
FREE_TARGET_TOL = 1e-12
SCHMIDT_CUTOFF = 1e-14
BOUNDARY_PPT_TOL = 1e-8
# build_filter_map refuses FSP with this; `convert --build` refuses before it measures
FSP_BUILD_REFUSAL = (
    "building an FSP map needs a certified separable mixer; only the BSP route is automated"
)


class FreeSourceError(ValueError):
    """The source state is free, so no filtering conversion exists."""


@dataclass(frozen=True)
class ConversionCertificate:
    """The one record of a conversion psi1 -> psi2 of one (n, d) system: the
    source's geometric measure, the target's robustness bound and the
    largest certified probability."""

    psi1: PureState
    psi2: PureState
    g_source: float
    r_target: float
    p_max: float
    theory: str
    provenance: dict = field(default_factory=dict)

    @property
    def deterministic(self) -> bool:
        return self.p_max == 1.0


@dataclass(frozen=True)
class PreparationMap:
    """Filter-and-prepare channel (cert.psi1, p, cert.psi2, mixer) with its
    CPTP completion; its audit reads the certificate's quantities, and
    mixer_cut is the cut the mixer was built across."""

    cert: ConversionCertificate
    p: float
    mixer: DensityMatrix
    mixer_cut: Bipartition

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        psi2 = self.cert.psi2
        if (self.mixer.n, self.mixer.d) != (psi2.n, psi2.d):
            raise ShapeError("mixer and target (n, d) differ")


@dataclass(frozen=True)
class PreservationReport:
    samples: int
    violations: int
    worst_overlap_margin: float
    worst_ratio_margin: float


def max_probability(
    psi1: PureState,
    psi2: PureState,
    theory: str,
    seed: int = DEFAULT_SEED,
    r_upper: Optional[float] = None,
) -> ConversionCertificate:
    """Largest conversion probability certified by the measure inequality:
    p <= g / ((1 - g) r) with g the source's geometric measure and r an
    upper bound on the target's robustness (from above, to stay sound); an
    FSP bound is supplied as `r_upper`, finite and >= 0, and a BSP bound is
    always computed, so BSP refuses `r_upper`."""
    if theory not in (FSP, BSP):
        raise ValueError(f"theory must be FSP or BSP, got {theory}")
    if (psi1.n, psi1.d) != (psi2.n, psi2.d):
        raise ShapeError(
            f"source (n, d) = ({psi1.n}, {psi1.d}) and target "
            f"(n, d) = ({psi2.n}, {psi2.d}) differ"
        )
    if theory == FSP:
        if r_upper is None:
            raise ValueError("FSP conversion needs a certified robustness upper bound")
        r = float(r_upper)
        if not 0.0 <= r < math.inf:
            raise ValueError(f"robustness upper bound must be finite and >= 0, got {r}")
    elif r_upper is not None:
        raise ValueError("r_upper applies only to FSP; the BSP bound is computed")
    g = (geometric_bs(psi1) if theory == BSP else geometric_fs(psi1, seed)).value
    if g <= FREE_SOURCE_TOL:
        raise FreeSourceError("source state is free within tolerance")
    provenance = {"g_route": "cut-enumeration" if theory == BSP else "product-optimizer"}
    if theory == BSP:
        r_res = robustness_bs_upper(psi2)
        r = r_res.value
        provenance["r_route"] = f"min-cut-schmidt:{r_res.certificate}"
    else:
        provenance["r_route"] = "supplied-upper-bound"
    if r <= 0:
        # a free target needs no resource accounting; any p works
        p_max = 1.0
    else:
        p_max = g / ((1.0 - g) * r)
    if p_max >= 1.0 - _CLAMP_TOL:
        p_max = 1.0
    return ConversionCertificate(
        psi1=psi1,
        psi2=psi2,
        g_source=g,
        r_target=r,
        p_max=p_max,
        theory=theory,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Robustness-achieving biseparable mixer


def _bs_mixer_details(psi2: PureState):
    """Mixer, robustness value and cut realizing the biseparable bound.

    Across the minimizing cut with Schmidt form sum_i a_i |u_i>|v_i>, the
    separable state sum_{i != j} (a_i a_j / s) |u_i v_j><u_i v_j| brings the
    state to the separable boundary at exactly s = (sum a_i)^2 - 1.

    The boundary mixture's partial transpose X across the cut must have no
    eigenvalue below -BOUNDARY_PPT_TOL, and as the transpose takes
    |u_i v_j><u_k v_l| to |conj(u_k) v_j><conj(u_i) v_l|, X lives on the
    span of the r^2 orthonormal products conj(u_k) (x) v_j of the r kept
    Schmidt vectors, the columns of W.  By Weyl's inequality lambda_min(X) is
    at least lambda_min(W^dag X W) (or 0, if smaller and r^2 < D) less the
    Frobenius norm of X - W W^dag X W W^dag, which `_boundary_pt_floor`
    computes in O(D^2 r^2), with no eigendecomposition of X.
    """
    bound = robustness_bs_upper(psi2)
    cut: Bipartition = bound.certificate
    s = bound.value
    if s < FREE_TARGET_TOL:
        return psi2.density(), 0.0, cut
    u, sv, vh = np.linalg.svd(cut_matrix(psi2, cut), full_matrices=False)
    keep = sv > SCHMIDT_CUTOFF
    u, sv, vh = u[:, keep], sv[keep], vh[keep, :]
    # row (i, j) is the product vector u_i v_j, weighted a_i a_j off the diagonal
    products = (u.T[:, None, :, None] * vh[None, :, None, :]).reshape(len(sv) ** 2, -1)
    weights = np.outer(sv, sv)
    np.fill_diagonal(weights, 0.0)
    mix = (products.T * weights.reshape(-1)) @ products.conj()
    mix = from_cut_order(mix / s, cut, psi2.d)
    mix = (mix + mix.conj().T) / 2
    mixer = DensityMatrix.by_construction(psi2.n, psi2.d, mix)
    # the boundary mixture must be PPT across the construction cut
    boundary = DensityMatrix.by_construction(
        psi2.n,
        psi2.d,
        (psi2.density().entries + s * mixer.entries) / (1.0 + s),
    )
    if _boundary_pt_floor(boundary, cut, u, vh) < -BOUNDARY_PPT_TOL:
        raise RuntimeError("mixer construction failed the boundary PPT check")
    return mixer, float(s), cut


def _boundary_pt_floor(boundary: DensityMatrix, cut: Bipartition, u, vh) -> float:
    """A lower bound on the smallest eigenvalue of X, the partial transpose
    of `boundary` across the cut, from the kept Schmidt vectors u_k (the
    columns of u) and v_j (the rows of vh): with W's orthonormal columns
    conj(u_k) (x) v_j in party order, C = W^dag X W and E = X - W C W^dag,
    it is lambda_min(C), or 0 when that is smaller and r^2 < D, less the
    Frobenius norm of E.
    """
    r, dim = u.shape[1], boundary.dim
    rows = from_cut_order(np.arange(dim), cut, boundary.d)
    w = (u.conj()[:, None, :, None] * vh.T[None, :, None, :]).reshape(dim, r * r)[rows]
    wh = w.conj().T
    x = partial_transpose(boundary, sorted(cut.parties))
    c = wh @ (x @ w)
    c = (c + c.conj().T) / 2
    # x becomes E in place, so the check holds no D x D array beyond it and W C W^dag
    x -= (w @ c) @ wh
    lam = float(np.linalg.eigvalsh(c)[0])
    if r * r < dim:
        lam = min(lam, 0.0)
    return lam - math.sqrt(np.vdot(x, x).real)


# ---------------------------------------------------------------------------
# Map construction


def build_filter_map(cert: ConversionCertificate, p: float) -> PreparationMap:
    """Assemble the channel after checking p against the certificate; the
    mixer is the target's robustness-achieving biseparable state across its
    minimizing cut.  Only the BSP map is built: an FSP map would need a
    certified fully separable mixer."""
    if cert.theory != BSP:
        raise ValueError(FSP_BUILD_REFUSAL)
    if p > cert.p_max + _P_SLACK:
        raise ValueError(f"p = {p} exceeds certified maximum {cert.p_max}")
    mixer, _, mixer_cut = _bs_mixer_details(cert.psi2)
    return PreparationMap(cert=cert, p=p, mixer=mixer, mixer_cut=mixer_cut)


def ghz_to_any_bsp(psi: PureState) -> PreparationMap:
    """Deterministic map taking the generalized GHZ state to psi.

    Always exists: the target's biseparable robustness never exceeds d - 1,
    which is exactly the source's conversion budget.
    """
    source = ghz(psi.n, psi.d)
    cert = max_probability(source, psi, BSP)
    if not cert.deterministic:
        raise RuntimeError(f"budget violated: p_max = {cert.p_max} < 1")
    return build_filter_map(cert, 1.0)


# ---------------------------------------------------------------------------
# Free-state sampling and preservation verification


def _batch_free_overlaps(psi1: PureState, theory: str, k: int, rng) -> np.ndarray:
    """Squared overlaps tr(psi1 sigma) for k random free pure states.

    Draw order, which fixes the states a seed samples.  FSP: for each party
    in order, standard normals of shape (2, k, d): the real parts of its k
    local vectors, then their imaginary parts; the vectors stay unnormalized
    and each overlap is divided by the product of their squared norms.  BSP:
    the per-cut sample counts, one `rng.multinomial(k, uniform)` over
    `all_bipartitions`; then for each cut in that order that got m > 0 of
    them, the smaller side's m vectors as standard normals of shape
    (2, m, dS), real parts before imaginary ones, then m uniforms
    (`rng.random`) for the larger side's overlaps.  A BSP seed thus names,
    per sample, the cut, the smaller-side vector and the larger side's
    overlap with it, not a larger-side vector; the overlaps come grouped by
    cut, in cut order.
    """
    n, d = psi1.n, psi1.d
    if theory == FSP:
        x, norms = np.broadcast_to(psi1.tensor(), (k,) + (d,) * n), 1.0
        for _ in range(n):
            g = rng.standard_normal((2, k, d))
            x = np.einsum("ki...,ki->k...", x, g[0] - 1j * g[1])
            norms = norms * np.einsum("tkj,tkj->k", g, g)
        return np.abs(x) ** 2 / norms
    cuts = all_bipartitions(n)
    counts = rng.multinomial(k, np.full(len(cuts), 1.0 / len(cuts)))
    blocks = [
        _cut_free_overlaps(cut_matrix(psi1, cut), m, rng) for cut, m in zip(cuts, counts) if m
    ]
    return np.concatenate(blocks) if blocks else np.empty(0)


def _cut_free_overlaps(a_mat: np.ndarray, m: int, rng) -> np.ndarray:
    """|conj(l)^T A conj(r)|^2 / (|l|^2 |r|^2) for the cut matrix A and m
    Haar-random products l (x) r across the cut, drawing only the smaller
    side's l, as unnormalized complex Gaussian vectors; the rows of A, the
    side holding party 1, are that side when the cut is balanced.

    With v = A^T conj(l) fixed, |<v|r>|^2 / |v|^2 ~ Beta(1, D - 1) for Haar
    r in C^D whatever the direction of v (take v = e_1: |g_1|^2 / |g|^2 for
    i.i.d. complex Gaussians is Exp / (Exp + Gamma(D - 1))), so the overlap
    is l^dag G l / |l|^2 times a Beta(1, D - 1) draw, with G = A A^dag the
    Gram matrix of the smaller side from one GEMM, never from an SVD.
    """
    if a_mat.shape[0] > a_mat.shape[1]:
        a_mat = a_mat.T
    gram = a_mat @ a_mat.conj().T
    # with l = x + iy, l^dag G l = [x|y] H [x|y]^T for the real symmetric form H
    form = np.vstack([np.hstack([gram.real, -gram.imag]), np.hstack([gram.imag, gram.real])])
    xy = np.concatenate(rng.standard_normal((2, m, a_mat.shape[0])), axis=1)
    quad = np.einsum("kj,kj->k", xy @ form, xy)
    norms = np.einsum("kj,kj->k", xy, xy)
    # inverse CDF of Beta(1, D - 1): 1 - (1 - U)^(1 / (D - 1))
    beta = -np.expm1(np.log1p(-rng.random(m)) / (a_mat.shape[1] - 1))
    # G is PSD; a rank-deficient G can round the form slightly below 0
    return np.maximum(quad, 0.0) / norms * beta


def _extremal_free_overlap(prep_map: PreparationMap, seed: int) -> float:
    """Overlap of psi1 with the best free state we can name: the top Schmidt
    product across the best cut (BSP) or the product certificate of the
    optimizer seeded with `seed` (FSP).  Deterministic probe prepended to the
    random samples."""
    psi1 = prep_map.cert.psi1
    if prep_map.cert.theory == BSP:
        cut: Bipartition = geometric_bs(psi1).certificate
        u, _, vh = np.linalg.svd(cut_matrix(psi1, cut), full_matrices=False)
        vec = from_cut_order(kron_vectors([u[:, 0], vh[0, :]]), cut, psi1.d)
    else:
        vec = kron_vectors(geometric_fs(psi1, seed).certificate)
    return float(abs(np.vdot(psi1.amplitudes, vec)) ** 2)


def verify_preservation_sampled(
    prep_map: PreparationMap,
    samples: int,
    seed: int,
) -> PreservationReport:
    """Sample random free inputs and check the two preservation inequalities:
    the filter overlap never exceeds 1 - g, and the output's mixing weight
    toward the mixer never drops below the target's robustness bound, each
    up to AUDIT_TOL.

    Sample 0 is a deterministic extremal probe (the free state maximizing
    the filter overlap), so p above the certified maximum is always caught.
    Samples 1 to samples - 1 come from `np.random.default_rng(seed)` in the
    draw order `_batch_free_overlaps` states: for BSP, the multinomial cut
    counts, then per cut the smaller side's normals (2, m, dS) and m
    uniforms.  A seed names, per sample, the cut, the smaller-side vector
    and the larger side's overlap, whose law is exactly Beta(1, D - 1) for
    a Haar vector in C^D.  No BSP sample can beat the probe: each overlap is
    at most the largest Gram eigenvalue of its cut, at most 1 - g.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cert = prep_map.cert
    rng = np.random.default_rng(seed)
    q = np.empty(samples)
    q[0] = _extremal_free_overlap(prep_map, seed)
    if samples > 1:
        q[1:] = _batch_free_overlaps(cert.psi1, cert.theory, samples - 1, rng)
    g, r, p = cert.g_source, cert.r_target, prep_map.p
    overlap_margin = (1.0 - g) + AUDIT_TOL - q
    pos = q > OVERLAP_FLOOR
    s_out = np.full(samples, math.inf)
    s_out[pos] = (1.0 / p) * (1.0 / q[pos] - 1.0)
    ratio_margin = s_out - (r - AUDIT_TOL)
    bad = (overlap_margin < 0) | (ratio_margin < 0)
    finite_ratio = ratio_margin[np.isfinite(ratio_margin)]
    return PreservationReport(
        samples=samples,
        violations=int(np.count_nonzero(bad)),
        worst_overlap_margin=float(np.min(overlap_margin)),
        worst_ratio_margin=float(np.min(finite_ratio)) if finite_ratio.size else math.inf,
    )


# ---------------------------------------------------------------------------
# Closed-form robustness bound for the tilted-GHZ family


# The bound stays within the W state's conversion budget 5/4 iff c >= 3/7;
# a bound above the budget by at most BUDGET_TOL still counts as within it.
W_BUDGET = 1.25
BUDGET_TOL = 1e-12
GHZ_PLUS_DETERMINISTIC_THRESHOLD = 3.0 / 7.0


def ghz_plus_bound_report(alpha: float, beta: float, gamma: float) -> dict:
    """Evaluate the bound (4 - c) / (2 (1 + c)) with c = cos(a) cos(b) cos(g),
    an upper bound on the separability robustness of the tilted-GHZ state
    obtained by pushing the exact GHZ boundary mixture through local
    filters, and flag parameter choices whose bound exceeds the budget 5/4
    even though they are sometimes quoted as feasible."""
    c = math.cos(alpha) * math.cos(beta) * math.cos(gamma)
    bound = (4.0 - c) / (2.0 * (1.0 + c))
    within = bound <= W_BUDGET + BUDGET_TOL
    return {
        "cos_product": c,
        "bound": bound,
        "budget": W_BUDGET,
        "within_budget": within,
        "threshold": GHZ_PLUS_DETERMINISTIC_THRESHOLD,
        "flag": None
        if within
        else "bound exceeds the 5/4 budget; deterministic conversion not certified "
        "for these angles (requires cos-product >= 3/7)",
    }
