"""Constructive state-conversion channels and their verification.

Any resource state can be filtered into any other with probability bounded
by the source's geometric measure and the target's robustness; the channel
is a measure-and-prepare map whose free-set preservation reduces to a scalar
inequality per free input, which we verify by seeded sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    schmidt_spectrum,
)
from .measures import DEFAULT_SEED, geometric_bs, geometric_fs, robustness_bs_upper

FSP = "FSP"
BSP = "BSP"

# a closed-form ratio within this of its exact threshold meets it: a p_max this close
# below 1 is 1, and a tilted-GHZ bound this close above W_BUDGET is within it; the largest
# p_max gap over GHZ(n, d) -> GHZ(n, d), cluster(n), AME(4, 3), d^n <= 4^11, n <= 12, is 7.8e-16
BUDGET_TOL = 1e-12
AUDIT_TOL = 1e-9  # slack on both preservation inequalities before a violation
OVERLAP_FLOOR = 1e-15  # a free input overlapping psi1 at most this bounds no mixing weight
FREE_SOURCE_TOL = 1e-9  # a source whose geometric measure is at most this is free
# the biseparable mixer: a target whose robustness bound is below
# FREE_TARGET_TOL is mixed with its top Schmidt product; Schmidt coefficients
# at or below SCHMIDT_CUTOFF are dropped; the boundary mixture must be PPT
# within BOUNDARY_PPT_TOL
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
    CPTP completion; its audit reads the certificate's quantities.  A BSP
    mixer is a `SchmidtMixer`; an FSP one, which a caller supplies, a DensityMatrix."""

    cert: ConversionCertificate
    p: float
    mixer: DensityMatrix | SchmidtMixer

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
    # a free target needs no resource accounting; any p works
    p_max = g / ((1.0 - g) * r) if r > 0 else 1.0
    if p_max >= 1.0 - BUDGET_TOL:
        p_max = 1.0
    return ConversionCertificate(psi1, psi2, g, r, p_max, theory, provenance)


# ---------------------------------------------------------------------------
# Robustness-achieving biseparable mixer


@dataclass(frozen=True, eq=False)
class SchmidtMixer:
    """sum_{i, j} (weights[i, j] / s) |u_i v_j><u_i v_j| across `cut`, kept
    as the columns u_i of `u` (on the cut's parties), the rows v_j of `vh`,
    their Schmidt coefficients and the weights, which sum to s and which the
    boundary check reads as stored; `entries` is built from them on first read."""

    n: int
    d: int
    cut: Bipartition
    u: np.ndarray
    vh: np.ndarray
    coefficients: np.ndarray
    weights: np.ndarray
    s: float

    @cached_property
    def entries(self) -> np.ndarray:
        u, vh = self.u, self.vh
        # row (i, j) is the product vector u_i v_j in cut order
        products = (u.T[:, None, :, None] * vh[None, :, None, :]).reshape(self.weights.size, -1)
        mix = (products.T * self.weights.reshape(-1)) @ products.conj()
        mix = from_cut_order(mix / self.s, self.cut, self.d)
        mix = (mix + mix.conj().T) / 2
        mix.setflags(write=False)
        return mix


def _bs_mixer_details(psi2: PureState) -> SchmidtMixer:
    """The biseparable mixer realizing the target's robustness bound s.

    Across the minimizing cut with Schmidt form sum_i a_i |u_i>|v_i>, the
    separable state M = sum_{i != j} (a_i a_j / s) |u_i v_j><u_i v_j|
    (Vidal & Tarrach, PRA 59, 141 (1999)) brings the state to the separable
    boundary at exactly s = (sum a_i)^2 - 1.  M is a `SchmidtMixer` with
    weights w_ij = a_i a_j (0 for i = j).  A free target (s below
    FREE_TARGET_TOL) gets its top Schmidt product, weight 1 over s = 1:
    exactly biseparable and within FREE_TARGET_TOL of it, so unchecked.

    The check: let psi = sum_i a_i |u_i v_i> over the kept a_i.  As the
    transpose takes |u_i v_j><u_k v_l| to |conj(u_k) v_j><conj(u_i) v_l|,
    (1 + s) times the partial transpose of (psi + s M) / (1 + s) is, in the
    orthonormal basis conj(u_k) v_j, a_i^2 + w_ii on each (i, i),
    [[w_ik, a_i a_k], [a_i a_k, w_ki]] on each pair {ik, ki}, and 0 off the
    r^2 products: a_i^2, and 0 and 2 a_i a_k per pair.  The target is psi
    plus delta, the memoized spectrum's coefficients less the kept ones (the
    dropped ones whole; factors from another cut fail here).  The partial
    transpose keeps the Frobenius norm, so by Weyl's inequality the
    closed-form minimum, from the stored weights, less 2|delta| + |delta|^2
    bounds the boundary's spectrum; it must be >= -BOUNDARY_PPT_TOL.
    """
    bound = robustness_bs_upper(psi2)
    cut: Bipartition = bound.certificate
    s = bound.value
    u, sv, vh = np.linalg.svd(cut_matrix(psi2, cut), full_matrices=False)
    if s < FREE_TARGET_TOL:
        return SchmidtMixer(psi2.n, psi2.d, cut, u[:, :1], vh[:1], sv[:1], np.ones((1, 1)), 1.0)
    keep = sv > SCHMIDT_CUTOFF
    weights = np.outer(sv[keep], sv[keep])
    np.fill_diagonal(weights, 0.0)
    mixer = SchmidtMixer(psi2.n, psi2.d, cut, u[:, keep], vh[keep], sv[keep], weights, s)
    if _boundary_pt_floor_from_factors(psi2, mixer) < -BOUNDARY_PPT_TOL:
        raise RuntimeError("mixer construction failed the boundary PPT check")
    return mixer


def _boundary_pt_floor_from_factors(psi2: PureState, mixer: SchmidtMixer) -> float:
    """The check's lower bound on the boundary's partial transpose spectrum."""
    a, w, r = mixer.coefficients, mixer.weights, mixer.coefficients.size
    exact = np.sqrt(schmidt_spectrum(psi2, mixer.cut))
    delta = math.hypot(*(exact[:r] - a[: exact.size]), *exact[r:], *a[exact.size :])
    pairs = (w + w.T) / 2 - np.hypot((w - w.T) / 2, np.outer(a, a))
    lam = 0.0 if r * r < mixer.u.shape[0] * mixer.vh.shape[1] else math.inf
    lam = min(lam, np.min(a**2 + np.diag(w)), np.min(pairs[~np.eye(r, dtype=bool)], initial=lam))
    return lam / (1.0 + mixer.s) - 2.0 * delta - delta**2


# ---------------------------------------------------------------------------
# Map construction


def build_filter_map(cert: ConversionCertificate, p: float) -> PreparationMap:
    """Assemble the channel after checking p against the certificate; the
    mixer is the target's robustness-achieving biseparable state across its
    minimizing cut.  Only the BSP map is built: an FSP map would need a
    certified fully separable mixer."""
    if cert.theory != BSP:
        raise ValueError(FSP_BUILD_REFUSAL)
    if p > cert.p_max:
        raise ValueError(f"p = {p} exceeds certified maximum {cert.p_max}")
    return PreparationMap(cert=cert, p=p, mixer=_bs_mixer_details(cert.psi2))


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


def _batch_free_overlaps(
    psi1: PureState, theory: str, k: int, rng, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Squared overlaps tr(psi1 sigma) for k random free pure states, written
    into `out` (a fresh array when None) and returned.

    Draw order, which fixes the states a seed samples.  FSP: for each party
    in order, standard normals of shape (2, k, d): the real parts of its k
    local vectors, then their imaginary parts; the vectors stay unnormalized
    and each overlap is divided by the product of their squared norms.  BSP:
    the per-cut sample counts, one `rng.multinomial(k, uniform)` over
    `all_bipartitions`; then for each cut in that order that got m > 0 of
    them, with dS the dimension of its `Bipartition.side`: if m < dS,
    standard normals of shape (2, m, dS), the real parts of m vectors on
    that side before their imaginary parts; if m >= dS, standard
    exponentials of shape (m, dS), for each sample one weight per
    eigenvalue of that side's Gram matrix, in ascending order; then, on
    either branch, m uniforms (`rng.random`) for the other side's overlaps.
    A BSP seed thus names, per sample, the cut, the vector on its side (or
    its squared moduli in the Gram eigenbasis) and the other side's overlap
    with it, not a vector on the other side; the overlaps come grouped by
    cut, in cut order, each cut's block written in place.
    """
    n, d = psi1.n, psi1.d
    out = np.empty(k) if out is None else out
    if theory == FSP:
        x, norms = np.broadcast_to(psi1.tensor(), (k,) + (d,) * n), 1.0
        for _ in range(n):
            g = rng.standard_normal((2, k, d))
            x = np.einsum("ki...,ki->k...", x, g[0] - 1j * g[1])
            norms = norms * np.einsum("tkj,tkj->k", g, g)
        return np.divide(np.abs(x) ** 2, norms, out=out)
    cuts = all_bipartitions(n)
    counts = rng.multinomial(k, np.full(len(cuts), 1.0 / len(cuts)))
    for cut, m, end in zip(cuts, counts, np.cumsum(counts)):
        if m:
            a_mat = cut_matrix(psi1, cut)
            _cut_free_overlaps(a_mat if cut.side == cut.parties else a_mat.T, m, rng, out[end - m : end])
    return out


def _cut_free_overlaps(
    a_mat: np.ndarray, m: int, rng, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """|conj(l)^T A conj(r)|^2 / (|l|^2 |r|^2) for a cut matrix A and m
    Haar-random products l (x) r across the cut, drawing only the rows' l,
    as an unnormalized complex Gaussian vector.  Written into `out` (a fresh
    array when None) and returned.

    With v = A^T conj(l) fixed, |<v|r>|^2 / |v|^2 ~ Beta(1, D - 1) for Haar
    r in C^D whatever the direction of v (take v = e_1: |g_1|^2 / |g|^2 for
    i.i.d. complex Gaussians is Exp / (Exp + Gamma(D - 1))), so the overlap
    is l^dag G l / |l|^2 times a Beta(1, D - 1) draw, with G = A A^dag the
    Gram matrix of the rows.  For G = U diag(mu) U^dag, U^dag l has
    the law of l, whose squared moduli are i.i.d. exponentials E_i up to one
    common scale, so l^dag G l / |l|^2 = sum_i mu_i E_i / sum_i E_i.  Forming
    v = A^T conj(l) for each of m samples costs m dS D; G and its spectrum
    cost dS^2 D + O(dS^3).  So m < dS samples draw l and form v, and m >= dS
    read mu from `eigvalsh` of G, never from an SVD, and draw the E_i.
    """
    out = np.empty(m) if out is None else out
    small, large = a_mat.shape
    if m < small:
        g = rng.standard_normal((2, m, small))
        # |v|^2 as the sum of squares of the real and imaginary parts
        v = ((g[0] - 1j * g[1]) @ a_mat).view(np.float64)
        np.divide(np.einsum("kj,kj->k", v, v), np.einsum("tkj,tkj->k", g, g), out=out)
    else:
        # column 0 weighs E_i by mu_i, column 1 by 1: both sums from one GEMM
        weights = np.ones((small, 2))
        # G is PSD; a rank-deficient G can round an eigenvalue slightly below 0
        weights[:, 0] = np.maximum(np.linalg.eigvalsh(a_mat @ a_mat.conj().T), 0.0)
        num, den = (rng.standard_exponential((m, small)) @ weights).T
        np.divide(num, den, out=out)
    # inverse CDF of Beta(1, D - 1): 1 - (1 - U)^(1 / (D - 1)), formed in place
    beta = rng.random(m)
    np.negative(beta, out=beta)
    np.log1p(beta, out=beta)
    beta /= large - 1
    np.expm1(beta, out=beta)
    np.negative(beta, out=beta)
    out *= beta
    return out


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


def _audit_margins(q: np.ndarray, cert: ConversionCertificate, p: float):
    """The two preservation margins of each overlap in q: (1 - g) + AUDIT_TOL - q,
    and (1 / p)(1 / q - 1) - (r - AUDIT_TOL), the latter inf where
    q <= OVERLAP_FLOOR; a negative margin is a violation."""
    g, r = cert.g_source, cert.r_target
    pos = q > OVERLAP_FLOOR
    s_out = np.full(q.shape, math.inf)
    s_out[pos] = (1.0 / p) * (1.0 / q[pos] - 1.0)
    return (1.0 - g) + AUDIT_TOL - q, s_out - (r - AUDIT_TOL)


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
    counts, then per cut with m samples and a `side` of dimension dS either
    that side's normals (2, m, dS), if m < dS, or exponentials (m, dS)
    weighting its Gram eigenvalues, then m uniforms.  A seed names, per
    sample, the cut, the vector on its side and the other side's overlap,
    whose law is exactly Beta(1, D - 1) for a Haar vector in C^D.
    No BSP sample can beat the probe: each overlap is at most the largest
    Gram eigenvalue of its cut, at most 1 - g.

    The report is read from the largest overlap.  Correctly rounded
    subtraction and division are monotone, and so is multiplication by the
    positive constant 1 / p, so both margins (`_audit_margins`) are
    non-increasing in q, the ratio margin's inf below OVERLAP_FLOOR
    included.  Hence the worst overlap margin and the worst finite ratio
    margin are the margins at max(q), bit for bit, and no sample violates
    when max(q) does not.  Only when it does, or a margin at max(q) is nan
    (a nan overlap, or 1 / p = inf times 1 / q - 1 = 0), are the margins of
    the whole vector taken, to count the violations.  The worst ratio margin
    is inf when no sample has a finite one.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cert = prep_map.cert
    rng = np.random.default_rng(seed)
    q = np.empty(samples)
    q[0] = _extremal_free_overlap(prep_map, seed)
    if samples > 1:
        _batch_free_overlaps(cert.psi1, cert.theory, samples - 1, rng, q[1:])
    overlap, ratio = _audit_margins(q.max(keepdims=True), cert, prep_map.p)
    violations = 0
    if not (overlap[0] >= 0 and ratio[0] >= 0):
        overlap_all, ratio = _audit_margins(q, cert, prep_map.p)
        violations = int(np.count_nonzero((overlap_all < 0) | (ratio < 0)))
    finite_ratio = ratio[np.isfinite(ratio)]
    return PreservationReport(
        samples=samples,
        violations=violations,
        worst_overlap_margin=float(overlap[0]),
        worst_ratio_margin=float(np.min(finite_ratio)) if finite_ratio.size else math.inf,
    )


# ---------------------------------------------------------------------------
# Closed-form robustness bound for the tilted-GHZ family


# The bound stays within the W state's conversion budget iff c is at least
# the threshold, where it equals the budget.
W_BUDGET = 1.25
GHZ_PLUS_DETERMINISTIC_THRESHOLD = (4.0 - 2.0 * W_BUDGET) / (1.0 + 2.0 * W_BUDGET)


def ghz_plus_bound_report(alpha: float, beta: float, gamma: float) -> dict:
    """Evaluate the bound (4 - c) / (2 (1 + c)) with c = cos(a) cos(b) cos(g),
    an upper bound on the separability robustness of the tilted-GHZ state
    obtained by pushing the exact GHZ boundary mixture through local
    filters, and flag parameter choices whose bound exceeds W_BUDGET even
    though they are sometimes quoted as feasible.  Each angle must lie in
    [0, pi/2], where the cos-product c is in [0, 1]."""
    for x in (alpha, beta, gamma):
        if not 0.0 <= x <= math.pi / 2:
            raise ValueError(f"angles must lie in [0, pi/2], got {x}")
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
        else "bound exceeds the budget; deterministic conversion not certified "
        "for these angles (requires cos-product >= threshold)",
    }
