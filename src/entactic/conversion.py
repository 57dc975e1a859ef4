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
    all_bipartitions,
    apply_channel,
    cut_matrix,
    from_cut_order,
    haar_vectors,
    is_ppt,
    kron_vectors,
)
from .measures import (
    CERTIFIED_FS,
    OptimizerOptions,
    fs_certificate,
    geometric_bs,
    geometric_fs,
    robustness_bs_upper,
)

FSP = "FSP"
BSP = "BSP"

_P_SLACK = 1e-12
_CLAMP_TOL = 1e-9
AUDIT_TOL = 1e-9  # slack on both preservation inequalities before a violation


class FreeSourceError(ValueError):
    """The source state is free, so no filtering conversion exists."""


@dataclass(frozen=True)
class ConversionCertificate:
    g_source: float
    r_target: float
    p_max: float
    deterministic: bool
    theory: str
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PreparationMap:
    """Filter-and-prepare channel (psi1, p, psi2, mixer) with its CPTP
    completion; carries the quantities needed to audit preservation."""

    psi1: PureState
    p: float
    psi2: PureState
    mixer: DensityMatrix
    theory: str
    g_source: float
    r_target: float
    mixer_cut: Optional[Bipartition] = None

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        shapes = {(s.n, s.d) for s in (self.psi1, self.psi2)} | {
            (self.mixer.n, self.mixer.d)
        }
        if len(shapes) != 1:
            raise ValueError(f"inconsistent shapes {shapes}")


@dataclass(frozen=True)
class PreservationReport:
    samples: int
    violations: int
    worst_overlap_margin: float
    worst_ratio_margin: float
    theory: str


def max_probability(
    psi1: PureState,
    psi2: PureState,
    theory: str,
    opts: OptimizerOptions = OptimizerOptions(),
    r_upper: Optional[float] = None,
) -> ConversionCertificate:
    """Largest conversion probability certified by the measure inequality:
    p <= g / ((1 - g) r) with g the source's geometric measure and r an
    upper bound on the target's robustness (from above, to stay sound)."""
    if theory not in (FSP, BSP):
        raise ValueError(f"theory must be FSP or BSP, got {theory}")
    g = (geometric_bs(psi1) if theory == BSP else geometric_fs(psi1, opts)).value
    if g <= 1e-9:
        raise FreeSourceError("source state is free within tolerance")
    provenance = {"g_route": "cut-enumeration" if theory == BSP else "product-optimizer"}
    if theory == BSP:
        r_res = robustness_bs_upper(psi2)
        r = r_res.value
        provenance["r_route"] = f"min-cut-schmidt:{r_res.certificate}"
    else:
        if r_upper is None:
            raise ValueError("FSP conversion needs a certified robustness upper bound")
        r = float(r_upper)
        provenance["r_route"] = "supplied-upper-bound"
    if r <= 0:
        # a free target needs no resource accounting; any p works
        p_max = 1.0
    else:
        p_max = g / ((1.0 - g) * r)
    if p_max >= 1.0 - _CLAMP_TOL:
        p_max = 1.0
    return ConversionCertificate(
        g_source=g,
        r_target=r,
        p_max=p_max,
        deterministic=(p_max == 1.0),
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
    """
    bound = robustness_bs_upper(psi2)
    cut: Bipartition = bound.certificate
    s = bound.value
    if s < 1e-12:
        return psi2.density(), 0.0, cut
    u, sv, vh = np.linalg.svd(cut_matrix(psi2, cut), full_matrices=False)
    keep = sv > 1e-14
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
    if not is_ppt(boundary, sorted(cut.parties), tol=1e-8):
        raise RuntimeError("mixer construction failed the boundary PPT check")
    return mixer, float(s), cut


# ---------------------------------------------------------------------------
# Map construction


def build_filter_map(
    cert: ConversionCertificate,
    psi1: PureState,
    psi2: PureState,
    p: float,
    mixer: DensityMatrix,
    mixer_cut: Optional[Bipartition] = None,
    mixer_certified: bool = False,
) -> PreparationMap:
    """Assemble the channel after checking p against the certificate and the
    mixer against the relevant free-set certificate."""
    if p > cert.p_max + _P_SLACK:
        raise ValueError(f"p = {p} exceeds certified maximum {cert.p_max}")
    if cert.theory == FSP and not mixer_certified:
        res = fs_certificate(mixer)
        if res.verdict != CERTIFIED_FS:
            raise ValueError(f"mixer not certified fully separable: {res.verdict}")
    if cert.theory == BSP and not mixer_certified:
        if mixer_cut is None or not is_ppt(mixer, sorted(mixer_cut.parties), tol=1e-8):
            raise ValueError("biseparable mixer needs a PPT construction cut")
    return PreparationMap(
        psi1=psi1,
        p=p,
        psi2=psi2,
        mixer=mixer,
        theory=cert.theory,
        g_source=cert.g_source,
        r_target=cert.r_target,
        mixer_cut=mixer_cut,
    )


def ghz_to_any_bsp(psi: PureState) -> PreparationMap:
    """Deterministic map taking the generalized GHZ state to psi.

    Always exists: the target's biseparable robustness never exceeds d - 1,
    which is exactly the source's conversion budget.
    """
    source = ghz(psi.n, psi.d)
    cert = max_probability(source, psi, BSP)
    if not cert.deterministic:
        raise RuntimeError(f"budget violated: p_max = {cert.p_max} < 1")
    mixer, _, cut = _bs_mixer_details(psi)
    return build_filter_map(
        cert, source, psi, 1.0, mixer, mixer_cut=cut, mixer_certified=True
    )


# ---------------------------------------------------------------------------
# Free-state sampling and preservation verification


def random_free_state(theory: str, n: int, d: int, seed) -> PureState:
    """One random free pure state: a product of Haar-like local vectors for
    the fully separable set, or a random cut with Haar vectors on each side
    (entanglement inside the blocks allowed) for the biseparable set."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if theory == FSP:
        return PureState(n, d, kron_vectors([haar_vectors(rng, d) for _ in range(n)]))
    cuts = all_bipartitions(n)
    cut = cuts[rng.integers(len(cuts))]
    left = haar_vectors(rng, d ** len(cut.parties))
    right = haar_vectors(rng, d ** len(cut.complement))
    return PureState(n, d, from_cut_order(kron_vectors([left, right]), cut, d))


def _batch_free_overlaps(psi1: PureState, theory: str, k: int, rng) -> np.ndarray:
    """Squared overlaps tr(psi1 sigma) for k random free pure states."""
    n, d = psi1.n, psi1.d
    if theory == FSP:
        t = psi1.tensor()
        x = np.tensordot(haar_vectors(rng, d, k).conj(), t, axes=([1], [0]))
        for _ in range(n - 1):
            a = haar_vectors(rng, d, k).conj()
            x = np.einsum("ki...,ki->k...", x, a)
        return np.abs(x) ** 2
    cuts = all_bipartitions(n)
    assignment = rng.integers(len(cuts), size=k)
    out = np.empty(k)
    for ci, cut in enumerate(cuts):
        idx = np.flatnonzero(assignment == ci)
        if idx.size == 0:
            continue
        a_mat = cut_matrix(psi1, cut)
        left = haar_vectors(rng, a_mat.shape[0], idx.size)
        right = haar_vectors(rng, a_mat.shape[1], idx.size)
        c = np.einsum("ki,ij,kj->k", left.conj(), a_mat, right.conj())
        out[idx] = np.abs(c) ** 2
    return out


def _extremal_free_overlap(prep_map: PreparationMap, seed: int) -> float:
    """Overlap of psi1 with the best free state we can name: the top Schmidt
    product across the best cut (BSP) or the product certificate of the
    optimizer seeded with `seed` (FSP).  Deterministic probe prepended to the
    random samples."""
    psi1 = prep_map.psi1
    if prep_map.theory == BSP:
        cut: Bipartition = geometric_bs(psi1).certificate
        u, _, vh = np.linalg.svd(cut_matrix(psi1, cut), full_matrices=False)
        vec = from_cut_order(kron_vectors([u[:, 0], vh[0, :]]), cut, psi1.d)
    else:
        vec = kron_vectors(geometric_fs(psi1, OptimizerOptions(seed=seed)).certificate)
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
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    q = np.empty(samples)
    q[0] = _extremal_free_overlap(prep_map, seed)
    if samples > 1:
        q[1:] = _batch_free_overlaps(prep_map.psi1, prep_map.theory, samples - 1, rng)
    g, r, p = prep_map.g_source, prep_map.r_target, prep_map.p
    overlap_margin = (1.0 - g) + AUDIT_TOL - q
    pos = q > 1e-15
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
        theory=prep_map.theory,
    )


# ---------------------------------------------------------------------------
# Closed-form robustness bound for the tilted-GHZ family


def ghz_plus_robustness_bound(alpha: float, beta: float, gamma: float) -> float:
    """(4 - c) / (2 (1 + c)) with c = cos(a) cos(b) cos(g): an upper bound
    on the separability robustness of the tilted-GHZ state, obtained by
    pushing the exact GHZ boundary mixture through local filters."""
    c = math.cos(alpha) * math.cos(beta) * math.cos(gamma)
    return (4.0 - c) / (2.0 * (1.0 + c))


# The bound stays within the W state's conversion budget 5/4 iff c >= 3/7.
GHZ_PLUS_DETERMINISTIC_THRESHOLD = 3.0 / 7.0


def ghz_plus_bound_report(alpha: float, beta: float, gamma: float) -> dict:
    """Evaluate the bound and flag parameter choices whose bound exceeds the
    budget 5/4 even though they are sometimes quoted as feasible."""
    c = math.cos(alpha) * math.cos(beta) * math.cos(gamma)
    bound = ghz_plus_robustness_bound(alpha, beta, gamma)
    return {
        "cos_product": c,
        "bound": bound,
        "budget": 1.25,
        "within_budget": bound <= 1.25 + 1e-12,
        "threshold": GHZ_PLUS_DETERMINISTIC_THRESHOLD,
        "flag": None
        if bound <= 1.25 + 1e-12
        else "bound exceeds the 5/4 budget; deterministic conversion not certified "
        "for these angles (requires cos-product >= 3/7)",
    }
