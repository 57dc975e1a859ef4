"""Entanglement measures and separability certificates.

Geometric measures for the biseparable free set (closed form over cuts) and
the fully separable one (alternating product-state optimization), bipartite
pure-state robustness, and upper bounds on the fully separable robustness
through certified mixtures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .catalog import w_bar, w_state
from .linalg import (
    NORM_TOL,
    PSD_TOL,
    Bipartition,
    DensityMatrix,
    PureState,
    ShapeError,
    all_bipartitions,
    cut_purity,
    eigenvalue_slack,
    haar_vector_draws,
    is_permutation_invariant,
    kron_vectors,
    min_pt_eigenvalue,
    npt_cut,
    ppt_threshold,
    schmidt_spectrum,
    vector_norms,
)

CERTIFIED_FS = "certified_fs"
CERTIFIED_NOT_FS = "certified_not_fs"
UNKNOWN = "unknown"

DEFAULT_SEED = 2024
# product-state optimizer: seeded restarts, sweep cap, and the per-sweep gain
# below which a restart counts as converged
RESTARTS = 32
MAX_SWEEPS = 500
SWEEP_TOL = 1e-12
# full-separability certifier: the fit's kept terms, threshold, rounds, size, seed
FIT_TERMS = 20
FIT_TOL = 1e-6
FIT_WEIGHT_FLOOR = 1e-12  # a fitted weight must exceed this to be kept or reported
FIT_ROUNDS = 8
FIT_DICTIONARY = 600
FIT_SEED = 2024
S_MAX = 16.0  # largest mixing weight the separable-mixture bisection tries
# the mixing ray's PPT threshold is rounded down by this relative margin
# before the search starts there, so rounding cannot place it above the
# threshold it computes
THRESHOLD_MARGIN = 1e-9
# cut pruning: a cut is skipped only when its purity bound clears the best
# score so far by more than this, so ties and near-ties are always scored
PRUNE_TOL = 1e-9


@dataclass(frozen=True)
class MeasureResult:
    value: float
    certificate: object = None
    iterations: int = 0
    converged: bool = True


@dataclass(frozen=True)
class CertResult:
    verdict: str
    route: str
    detail: dict = field(default_factory=dict)


class RobustnessCapError(RuntimeError):
    """No mixing weight up to S_MAX makes the state free."""


# ---------------------------------------------------------------------------
# Geometric measures


def _best_cut(psi: PureState, score, bound) -> tuple[float, Bipartition]:
    """The smallest score(psi, cut) over all cuts and the first cut attaining it.

    bound(P, r) is a lower bound on a cut's score from its purity
    P = tr rho_A^2 and the dimension r of its `side`.  The one-party
    cuts seed the best score; any other cut is scored only when its bound
    comes within PRUNE_TOL of the best so far.  A skipped cut thus scores
    strictly above the minimum, and the result is the one full enumeration
    gives.  Cuts are bounded by descending side size until those the
    bound failed to rule out outnumber those it ruled out by two (all cuts
    of GHZ tie); the rest are scored without bounding.  A purity is read
    from its cover's marginal (`cut_purity`), which is built on the first
    bound read from it and gives the purities of all the cover's cuts at
    once; bounding that stops after two cuts thus builds at most two.

    A state whose amplitude tensor is bit for bit invariant under every
    permutation of the parties (`linalg.is_permutation_invariant`) has one
    cut matrix, the same array, for every cut whose side holding party 1
    has m parties; so their spectra and scores are bitwise equal, and only
    the cuts {1..m}, m = 1..n-1, are scored, with no purity bound read.
    `all_bipartitions` lists cuts by ascending m, {1..m} first among its m,
    so the first of them attaining the minimum is the cut full enumeration
    returns.
    """
    n = psi.n
    if n < 2:
        raise ValueError(f"a state needs at least 2 parties to have a cut, got n={n}")
    if is_permutation_invariant(psi):
        firsts = (Bipartition(n, frozenset(range(1, m + 1))) for m in range(1, n))
        return min(((score(psi, cut), cut) for cut in firsts), key=lambda t: t[0])
    cuts = all_bipartitions(n)
    sides = [len(cut.side) for cut in cuts]
    scores = [None] * len(cuts)
    best = math.inf
    pruned = kept = 0
    for i in sorted(range(len(cuts)), key=lambda i: (sides[i] > 1, -sides[i])):
        if sides[i] > 1 and kept < pruned + 2:
            if bound(cut_purity(psi, cuts[i]), psi.d ** sides[i]) > best + PRUNE_TOL:
                pruned += 1
                continue
            kept += 1
        scores[i] = score(psi, cuts[i])
        best = min(best, scores[i])
    return min(((s, cut) for s, cut in zip(scores, cuts) if s is not None), key=lambda t: t[0])


def top_schmidt_bound(p: float, r: int) -> float:
    """Largest top value of a spectrum of length r with purity p = sum l^2:
    (1 + sqrt((r-1)(rp-1)))/r, attained by one value above r-1 equal ones;
    it never exceeds sqrt(p)."""
    return (1.0 + math.sqrt(max(0.0, (r - 1) * (r * p - 1)))) / r


def _kept_on_state(measure):
    """Keep measure(psi)'s result on the state, so that each state walks its
    cuts once per measure however often the measure is asked for."""

    @functools.wraps(measure)
    def kept(psi: PureState) -> MeasureResult:
        res = psi._measures.get(measure.__name__)
        if res is None:
            res = psi._measures[measure.__name__] = measure(psi)
        return res

    return kept


@_kept_on_state
def geometric_bs(psi: PureState) -> MeasureResult:
    """1 - (largest Schmidt value over all cuts); closed form, deterministic."""
    neg_l1, cut = _best_cut(
        psi,
        lambda psi, cut: -float(schmidt_spectrum(psi, cut)[0]),
        lambda p, r: -top_schmidt_bound(p, r),
    )
    return MeasureResult(value=1.0 + neg_l1, certificate=cut)


def maximize_over_products(
    terms: np.ndarray, weights, n: int, d: int, seed: int = DEFAULT_SEED
) -> MeasureResult | list[MeasureResult]:
    """Maximize sum_z w_z |<a_z|x_1 ... x_n>|^2 over product states.

    `terms` holds the vectors a_z as rows.  `weights` is one row of w_z, one
    per term, or a stack of G such rows over the same terms; the result is
    one MeasureResult, or a list of one per row.  Alternating single-party
    updates (higher-order power iteration): with every party but k fixed the
    objective is x_k^dag M x_k, M = sum_z w_z b_z b_z^dag for the
    contractions b_z of a_z with the other local vectors, so the top
    eigenvector of M is the optimal update and its eigenvalue the new value.

    The RESTARTS start points are drawn once from the seed; restart r
    starts from the same point for any RESTARTS.  Every row's restarts
    advance in one batch, each with its own weight row; a restart whose
    sweep gained less than SWEEP_TOL is frozen and leaves the batch.  No
    step mixes restarts, so a restart's trajectory is bit for bit that of
    the restart run alone: row g's result equals a call with row g alone,
    and adding restarts never changes an existing one.  Each result holds its row's best restart's
    value, local vectors, sweep count and convergence flag.  Fewer than one
    party, local dimension below 2, terms that are not rows of length d^n,
    and weights that are not finite or not one per term are a ValueError.
    """
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 parties of dimension d >= 2, got n = {n}, d = {d}")
    a = np.asarray(terms, dtype=complex)
    w = np.asarray(weights, dtype=float)
    if a.ndim != 2 or a.shape[1] != d**n:
        raise ValueError(f"terms must be rows of length d^n = {d**n}, got shape {a.shape}")
    if w.ndim not in (1, 2) or w.shape[-1] != len(a) or not w.size:
        raise ValueError(
            f"weights must be rows of {len(a)} entries, one per term, got shape {w.shape}"
        )
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    rows = np.atleast_2d(w)
    g = len(rows)
    # restart r of row i sits at i RESTARTS + r; every row starts from the same points
    rng = np.random.default_rng(seed)
    x = np.tile(haar_vector_draws(rng, d, (RESTARTS, n)), (g, 1, 1))
    # cast once, where einsum would cast real weights on every call
    rw = np.repeat(rows, RESTARTS, axis=0).astype(complex)
    value = np.full(g * RESTARTS, -math.inf)
    sweeps = np.zeros(g * RESTARTS, dtype=int)
    converged = np.zeros(g * RESTARTS, dtype=bool)
    active = np.arange(g * RESTARTS)
    for sweep in range(1, MAX_SWEEPS + 1):
        xs, ws = x[active], rw[active]
        xc = xs.conj()
        ones = np.ones((active.size, 1))
        for k in range(n):
            left = kron_vectors(xc[:, :k].transpose(1, 0, 2)) if k else ones
            right = kron_vectors(xc[:, k + 1 :].transpose(1, 0, 2)) if k < n - 1 else ones
            tails = a.reshape(-1, right.shape[1])  # axis 1 runs over parties k+1..n
            # einsum without optimize sums each restart's column on its own,
            # where a BLAS product rounds it by its place among the columns
            t = np.einsum("xr,ar->xa", tails, right)
            b = np.einsum("zlia,al->azi", t.reshape(len(a), left.shape[1], d, -1), left)
            lam, vec = np.linalg.eigh(np.einsum("az,azi,azj->aij", ws, b, b.conj()))
            xs[:, k] = vec[:, :, -1]
            xc[:, k] = xs[:, k].conj()
        gain = lam[:, -1] - value[active]
        x[active], value[active], sweeps[active] = xs, lam[:, -1], sweep
        done = gain < SWEEP_TOL
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    best = np.argmax(value.reshape(g, RESTARTS), axis=1) + RESTARTS * np.arange(g)
    results = [
        MeasureResult(
            value=float(value[i]),
            certificate=list(x[i]),
            iterations=int(sweeps[i]),
            converged=bool(converged[i]),
        )
        for i in best
    ]
    return results if w.ndim == 2 else results[0]


def geometric_fs(psi: PureState, seed: int = DEFAULT_SEED) -> MeasureResult:
    """1 - squared maximal overlap with product states.

    The product-state maximum with the state as its only term; the
    certificate is the best restart's list of local vectors.
    """
    res = maximize_over_products(psi.amplitudes[None], [1.0], psi.n, psi.d, seed)
    return replace(res, value=max(0.0, 1.0 - res.value))


def robustness_bipartite_pure(psi: PureState, cut: Bipartition) -> float:
    """(sum of Schmidt coefficients)^2 - 1 across the cut."""
    vals = schmidt_spectrum(psi, cut)
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2 - 1.0)


@_kept_on_state
def robustness_bs_upper(psi: PureState) -> MeasureResult:
    """Upper bound on the biseparable robustness: the minimum over cuts of
    the bipartite pure-state robustness.  A cut of purity P has robustness
    at least 1/P - 1, since (sum sqrt(l))^2 >= 1/P (Renyi entropies:
    H_1/2 >= H_2)."""
    value, cut = _best_cut(psi, robustness_bipartite_pure, lambda p, r: 1.0 / p - 1.0)
    return MeasureResult(value=value, certificate=cut)


# ---------------------------------------------------------------------------
# Fixed fully separable 3-qubit states in the diagonal {000, 111, W, Wbar}
# family, used for the W-state robustness bound.


def diag_family_state(w000, w111, ww, wwb) -> DensityMatrix:
    """Mixture of |000>, |111>, W and Wbar projectors with given weights."""
    weights = [float(w) for w in (w000, w111, ww, wwb)]
    if min(weights) < -PSD_TOL or abs(sum(weights) - 1.0) > NORM_TOL:
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


def _weight_outside_symmetric(rho: DensityMatrix) -> float:
    """tr((1 - P_sym) rho) for n qubits, where P_sym projects onto the
    symmetric subspace: on basis states of equal Hamming weight k it is
    1/C(n, k), elsewhere 0.  It is >= 0 for rho >= 0, and 0 exactly when
    P_sym rho P_sym = rho."""
    weights = np.bitwise_count(np.arange(rho.dim))
    sizes = np.array([math.comb(rho.n, int(k)) for k in weights])
    outside = np.eye(rho.dim) - (weights[:, None] == weights) / sizes[:, None]
    return float(np.vdot(outside, rho.entries).real)


def _hermitian_coordinates(entry, dim: int) -> np.ndarray:
    """The dim^2 isometric real coordinates of dim x dim Hermitian matrices.

    Rows, in order: the diagonal entries, then sqrt(2) Re and sqrt(2) Im of
    each strictly upper entry, so <c(X), c(Y)> = tr(XY) and |c(X)| is the
    Frobenius norm of X.  `entry(i, j)` returns the entries at index arrays
    i, j; entries of many matrices stack along a trailing axis, which
    becomes the column axis.
    """
    i, j = np.triu_indices(dim, 1)
    diag = np.arange(dim)
    upper = math.sqrt(2) * entry(i, j)
    return np.concatenate([entry(diag, diag).real, upper.real, upper.imag])


def _fit_product_decomposition(rho: DensityMatrix):
    """Heuristic constructive fit: nonnegative mixture of random product
    projectors, refined by nonnegative least squares over a dictionary.

    NNLS sees rho and each projector |v><v| in the dim^2 real coordinates
    of Hermitian matrices: the diagonal entries, then sqrt(2) times the real
    and the imaginary part of each strictly upper entry.  Their Euclidean
    inner product is tr(XY), so the residual compared with FIT_TOL is
    |rho - sigma|_F for the fitted mixture sigma.  Sufficient-only: a small
    residual certifies separability constructively, a large one proves
    nothing.
    """
    # imported here, as only this fit needs it: scipy.optimize costs ~0.4 s and 48 MB
    from scipy.optimize import nnls

    rng = np.random.default_rng(FIT_SEED)
    n, d, dim = rho.n, rho.d, rho.dim
    target = _hermitian_coordinates(lambda i, j: rho.entries[i, j], dim)

    def draw(count):
        """`count` product vectors as rows (none if count <= 0), drawn party by party."""
        parties = haar_vector_draws(rng, d, (max(count, 0), n))
        return kron_vectors(list(parties.transpose(1, 0, 2)))

    # seed the dictionary with computational-basis products plus random draws
    states = np.eye(dim, dtype=complex)
    best_x, best_states, best_res = None, None, math.inf
    for _ in range(FIT_ROUNDS):
        states = np.concatenate([states, draw(FIT_DICTIONARY - len(states))])
        # column j holds the coordinates of |v_j><v_j|, gathered entry by
        # entry from the vectors without the dim x dim x N outer product
        v = states.T
        a = _hermitian_coordinates(lambda i, j: v[i] * v[j].conj(), dim)
        x, res = nnls(a, target)
        if res < best_res:
            best_x, best_states, best_res = x, states, res
        if res < FIT_TOL:
            break
        # keep the heavy terms, resample the rest near them
        order = np.argsort(x)[::-1][:FIT_TERMS]
        keep = states[order[x[order] > FIT_WEIGHT_FLOOR]]
        u = np.repeat(keep, 4, axis=0) + 0.15 * draw(4 * len(keep))
        states = np.concatenate([keep, u / vector_norms(u)[:, None]])
    terms = [
        (float(p), v) for p, v in zip(best_x, best_states) if p > FIT_WEIGHT_FLOOR
    ]
    return best_res, terms


def _by_ghz_corner(rho: DensityMatrix, slack: float):
    """Exact, in Fractions of the entries, on n >= 2 qubits whose only
    coherence is c = rho[0, D-1] and whose diagonal d_j is >= 0 (Dur &
    Cirac, PRA 61, 042314 (2000)): NOT_FS when some d_j d_(D-1-j) < |c|^2,
    FS when every d_j >= |c|, as rho less a diagonal >= 0 is then D|c| times
    (I + e^(i arg c)|0..0><1..1| + h.c.)/D, an even mix of 3^(n-1) products."""
    m, diag, c = rho.entries, rho.entries.diagonal().real, rho.entries[0, -1]
    if rho.d == 2 and rho.n >= 2 and diag.min() >= 0:
        member = np.diag(diag + 0j)
        member[0, -1], member[-1, 0] = c, np.conj(c)
        if np.array_equal(member, m):
            d = [Fraction(x) for x in diag]
            c2 = Fraction(c.real) ** 2 + Fraction(c.imag) ** 2
            if any(d[j] * d[-1 - j] < c2 for j in range(1, rho.dim // 2)):
                return CERTIFIED_NOT_FS, {}
            if all(x * x >= c2 for x in d):
                return CERTIFIED_FS, {}


def _by_npt_cut(rho: DensityMatrix, slack: float):
    """NOT_FS when a partial transpose has an eigenvalue below -slack on
    some cut (`linalg.npt_cut`)."""
    npt = npt_cut(rho)
    if npt is not None:
        cut, lam = npt
        return CERTIFIED_NOT_FS, {"cut": str(cut), "min_eigenvalue": lam}


def _by_two_qubit_ppt(rho: DensityMatrix, slack: float):
    """On two qubits PPT is equivalent to separability (Horodecki, Horodecki
    & Horodecki, PLA 223, 1 (1996)); FS when the partial transpose's
    smallest eigenvalue is >= slack."""
    if (rho.n, rho.d) == (2, 2):
        lam = min_pt_eigenvalue(rho, [1])
        if lam >= slack:
            return CERTIFIED_FS, {"min_eigenvalue": lam}


def _by_near_identity(rho: DensityMatrix, slack: float):
    """An n-qubit rho with smallest eigenvalue mu is D mu I/D + (1 - D mu)
    rho1 with rho1 >= 0, which is fully separable when 1 - D mu <
    1/(1 + 2^(2n-1)) (Braunstein et al., PRL 83, 1054 (1999)); mu is
    lowered by the slack first."""
    if rho.d == 2:
        weight = 1.0 - rho.dim * (float(np.linalg.eigvalsh(rho.entries)[0]) - slack)
        radius = 1.0 / (1.0 + 2.0 ** (2 * rho.n - 1))
        if weight < radius:
            return CERTIFIED_FS, {"weight": weight, "radius": radius}


def _by_symmetric_ppt(rho: DensityMatrix, slack: float):
    """3 qubits supported on the symmetric subspace, tr((1 - P_sym) rho) <=
    slack, with no cut NPT beyond the slack (`linalg.npt_cut`); for 3-qubit
    states on the symmetric subspace PPT is sufficient for full
    separability (Eckert, Schliemann, Bruss & Lewenstein, Ann. Phys. 299, 88
    (2002)).  Permutation invariance alone does not meet that hypothesis:
    mixtures of P_sym and its complement have it."""
    if (rho.n, rho.d) == (3, 2) and _weight_outside_symmetric(rho) <= slack and npt_cut(rho) is None:
        return CERTIFIED_FS, {}


def _by_single_party(rho: DensityMatrix, slack: float):
    """Every one-party state is fully separable by definition."""
    if rho.n == 1:
        return CERTIFIED_FS, {}


def _by_decomposition_fit(rho: DensityMatrix, slack: float):
    """Constructive product-decomposition fit: FS when its residual is below
    FIT_TOL, else UNKNOWN.  Always decides, so it is the last row."""
    res, terms = _fit_product_decomposition(rho)
    if res < FIT_TOL:
        return CERTIFIED_FS, {"residual": res, "terms": len(terms)}
    return UNKNOWN, {"fit_residual": res}


# The certifier's routes in order; decide(rho, slack) returns (verdict,
# detail) when its route decides, else None.
FS_ROUTES = (
    ("ghz-corner", _by_ghz_corner),
    ("npt-cut", _by_npt_cut),
    ("two-qubit-ppt", _by_two_qubit_ppt),
    ("near-identity", _by_near_identity),
    ("symmetric-ppt", _by_symmetric_ppt),
    ("single-party", _by_single_party),
    ("decomposition-fit", _by_decomposition_fit),
)
UNKNOWN_ROUTE = "none"  # the route of an UNKNOWN result


def fs_certificate(rho: DensityMatrix) -> CertResult:
    """Decide full separability by the first row of FS_ROUTES that decides,
    each given the rounding slack `linalg.eigenvalue_slack(rho.entries)`.
    Each row checks its theorem's whole hypothesis, so the row order sets
    only the speed and the route name, never soundness.  The result carries
    that row's name, or UNKNOWN_ROUTE when the last row returns UNKNOWN;
    that is a value, not an error."""
    slack = eigenvalue_slack(rho.entries)
    for name, decide in FS_ROUTES:
        decided = decide(rho, slack)
        if decided is not None:
            verdict, detail = decided
            return CertResult(verdict, name if verdict != UNKNOWN else UNKNOWN_ROUTE, detail)


def robustness_fs_upper_via_mix(
    psi: DensityMatrix,
    mixer: DensityMatrix,
    bisect_tol: float = 1e-6,
) -> float:
    """Minimal s (bisection) with (psi + s mixer) / (1 + s) certified fully
    separable.  Upper-bounds the separability robustness for this mixer.

    psi and the mixer must share (n, d) (else ShapeError); the mixer must be
    certified first, then psi itself (s = 0).  The search starts at
    lo = max(s_ppt, 0) (1 - THRESHOLD_MARGIN), where s_ppt from
    `linalg.ppt_threshold` is a point below which every mixture has a
    negative partial transpose on some cut, so none is fully separable.
    lo >= S_MAX raises RobustnessCapError at once; otherwise the first probe
    is lo + bisect_tol (at least the next float above lo, at most S_MAX),
    returned when certified.  Else S_MAX must be certified and
    [probe, S_MAX] is bisected.  s_ppt only places the search: the returned
    s is always a point fs_certificate certified.

    The bisection stops once hi - lo <= bisect_tol, or once lo and hi are
    adjacent floats, so it ends for any finite bisect_tol > 0; any other
    bisect_tol is a ValueError.
    """
    if not (math.isfinite(bisect_tol) and bisect_tol > 0):
        raise ValueError(f"bisect_tol must be finite and > 0, got {bisect_tol!r}")
    if (psi.n, psi.d) != (mixer.n, mixer.d):
        raise ShapeError(
            f"state (n, d) = ({psi.n}, {psi.d}) and mixer (n, d) = ({mixer.n}, {mixer.d}) differ"
        )
    cert = fs_certificate(mixer)
    if cert.verdict != CERTIFIED_FS:
        raise ValueError(f"mixer not certified fully separable: {cert.verdict}")

    def certified(s):
        m = (psi.entries + s * mixer.entries) / (1.0 + s)
        rho = DensityMatrix.by_construction(psi.n, psi.d, (m + m.conj().T) / 2)
        return fs_certificate(rho).verdict == CERTIFIED_FS

    if fs_certificate(psi).verdict == CERTIFIED_FS:
        return 0.0
    lo = max(ppt_threshold(psi, mixer), 0.0) * (1.0 - THRESHOLD_MARGIN)
    if lo >= S_MAX:
        raise RobustnessCapError(f"no certified mixture below s = {S_MAX}: NPT up to s = {lo}")
    lo = min(max(lo + bisect_tol, math.nextafter(lo, math.inf)), S_MAX)
    if certified(lo):
        return lo
    if lo >= S_MAX or not certified(S_MAX):
        raise RobustnessCapError(f"no certified mixture below s = {S_MAX}")
    hi = S_MAX
    while hi - lo > bisect_tol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi
