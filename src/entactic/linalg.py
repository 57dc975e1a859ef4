"""Dense complex tensor algebra for n-qudit systems.

Parties are numbered 1..n. A computational-basis index is read as n base-d
digits with party 1 most significant; this convention is fixed globally so
that serialized states are unambiguous.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
PSD_TOL = 1e-10  # how far below 0 an input density matrix's eigenvalue may be
EIGVAL_ROUNDING = 4  # eigenvalue_slack's multiple of D eps |A|_F
# a mixing ray's PPT threshold is computed on each cut only on the range of
# the mixer's partial transpose where its eigenvalues are at least this, so
# whitening by them stays well conditioned (it amplifies rounding in the
# state's partial transpose by at most 1/PENCIL_FLOOR)
PENCIL_FLOOR = 1e-6


class ShapeError(ValueError):
    """Raised when operands do not share (n, d) metadata."""


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over n parties of local dimension d, held
    as a read-only copy; its cut purities, its Schmidt spectra and the
    results of the measures that walk its cuts are kept on it once computed."""

    n: int
    d: int
    amplitudes: np.ndarray
    _cuts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _purities: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _measures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.d < 2:
            raise ValueError(f"invalid system shape n={self.n}, d={self.d}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.d**self.n,):
            raise ValueError(
                f"expected {self.d**self.n} amplitudes, got {amps.shape}"
            )
        # vdot raises no floating-point warning: finite amplitudes can
        # overflow the norm to inf, which is then reported as not 1
        nrm = math.sqrt(np.vdot(amps, amps).real)
        if not math.isfinite(nrm) and not np.all(np.isfinite(amps)):
            raise ValueError("state has non-finite amplitudes")
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to an n-axis tensor, axis k = party k+1."""
        return self.amplitudes.reshape((self.d,) * self.n)

    def density(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix.by_construction(self.n, self.d, np.outer(v, v.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace Hermitian PSD matrix with (n, d) shape metadata."""

    n: int
    d: int
    entries: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.d < 2:
            raise ValueError(f"invalid system shape n={self.n}, d={self.d}")
        dim = self.d**self.n
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has non-finite entries")
        # finite entries can overflow a difference or the trace to inf, which fails its check
        with np.errstate(all="ignore"):
            if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
                raise ValueError("matrix not Hermitian")
            if abs(np.trace(m).real - 1.0) > NORM_TOL:
                raise ValueError(f"trace != 1: {np.trace(m).real}")
        lam = np.linalg.eigvalsh(m)[0]
        if lam < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {lam:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def by_construction(cls, n: int, d: int, entries: np.ndarray) -> "DensityMatrix":
        """A matrix that is a density matrix by how it was built from validated
        operands (a state's projector, a partial trace, a convex mixture),
        wrapped without the constructor's checks and their O(D^3) eigvalsh."""
        rho = object.__new__(cls)
        rho.__dict__.update(n=n, d=d, entries=np.asarray(entries, dtype=complex))
        rho.entries.setflags(write=False)
        return rho

    @property
    def dim(self) -> int:
        return self.d**self.n


@dataclass(frozen=True)
class Bipartition:
    """One unordered cut M | complement, stored canonically.

    The stored side is the one containing party 1, so each of the
    2^(n-1) - 1 cuts appears exactly once; `side` is the one with fewer
    parties, or the stored one on an equal split.
    """

    n: int
    parties: frozenset = field(default_factory=frozenset)
    side: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, every = frozenset(self.parties), frozenset(range(1, self.n + 1))
        if not m or not m < every:
            raise ValueError(f"cut must be a nonempty proper subset of 1..{self.n}")
        if 1 not in m:
            m = every - m
        object.__setattr__(self, "parties", m)
        object.__setattr__(self, "side", m if 2 * len(m) <= self.n else every - m)

    @property
    def complement(self) -> frozenset:
        return frozenset(range(1, self.n + 1)) - self.parties

    def __str__(self):
        a = ",".join(map(str, sorted(self.parties)))
        b = ",".join(map(str, sorted(self.complement)))
        return f"{{{a}}}|{{{b}}}"


@cache
def all_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """Every canonical cut of an n-party system (2^(n-1) - 1 of them), built
    once per n."""
    rest = range(2, n + 1)
    return tuple(
        Bipartition(n, frozenset((1,) + extra))
        for k in range(0, n - 1)
        for extra in combinations(rest, k)
    )


def vector_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of complex vectors along the last axis, bit for bit
    the ones `np.linalg.norm` gives each C-contiguous vector alone: the same
    dot product over its real and over its imaginary strided view."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def haar_vector_draws(rng: np.random.Generator, dim: int, shape: tuple = ()) -> np.ndarray:
    """prod(shape) Haar-random unit vectors in C^dim as an array of shape
    (*shape, dim), drawn as one block.

    Stream contract: the vectors come in C order, and each takes dim
    standard normals for its real part, then dim for its imaginary part, and
    is divided by its own `vector_norms` norm.  The result is thus bit for
    bit that of prod(shape) successive single draws."""
    g = rng.normal(size=(*shape, 2, dim))
    v = g[..., 0, :] + 1j * g[..., 1, :]
    return v / vector_norms(v)[..., None]


def kron_vectors(vecs: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of local vectors, the first one most significant.

    Leading axes are batch axes, empty ones included: local vectors of shape
    (..., d_k) give product vectors of shape (..., prod d_k).
    """
    out = vecs[0]
    for u in vecs[1:]:
        out = (out[..., :, None] * u[..., None, :]).reshape(*out.shape[:-1], out.shape[-1] * u.shape[-1])
    return out


def from_cut_order(array: np.ndarray, cut: Bipartition, d: int) -> np.ndarray:
    """Reorder a vector or square matrix whose tensor factors run over the
    cut's parties and then its complement into ascending party order."""
    n = cut.n
    order = sorted(cut.parties) + sorted(cut.complement)
    pos = [order.index(p) for p in range(1, n + 1)]
    if array.ndim == 2:
        pos = pos + [n + q for q in pos]
    return array.reshape((d,) * len(pos)).transpose(pos).reshape(array.shape)


def _check_subset(n: int, keep: Iterable[int]) -> tuple[int, ...]:
    keep = tuple(sorted(set(keep)))
    if not keep or any(p < 1 or p > n for p in keep):
        raise ValueError(f"party subset {keep} invalid for n={n}")
    return keep


def is_permutation_invariant(psi: PureState) -> bool:
    """Whether the amplitude tensor is bit for bit unchanged by every
    permutation of the parties: by the swap of parties 1 and 2 and by the
    cyclic shift of all parties, which generate S_n.  The float parts are
    compared as int64, so a -0.0 stored against a 0.0 is a difference."""
    n = psi.n
    if n < 2:
        return True
    t = psi.amplitudes.view(np.int64).reshape((psi.d,) * n + (2,))
    swap = [1, 0, *range(2, n + 1)]
    shift = [*range(1, n), 0, n]
    return np.array_equal(t, t.transpose(swap)) and np.array_equal(t, t.transpose(shift))


def _rows_first(psi: PureState, rows: Sequence[int]) -> np.ndarray:
    """The amplitudes as a d^|rows| x d^(n - |rows|) matrix, the parties of
    rows (ascending) indexing its rows and the others its columns."""
    rest = [p for p in range(1, psi.n + 1) if p not in rows]
    t = psi.tensor().transpose([p - 1 for p in list(rows) + rest])
    return t.reshape(psi.d ** len(rows), -1)


def cut_matrix(psi: PureState, cut: Bipartition) -> np.ndarray:
    """Amplitudes reshaped to a d^|M| x d^|complement| matrix for the cut."""
    return _rows_first(psi, sorted(cut.parties))


def schmidt_spectrum(psi: PureState, cut: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients across the cut, sorted descending, as a
    read-only array computed once per state."""
    vals = psi._cuts.get(cut)
    if vals is None:
        sv = np.linalg.svd(cut_matrix(psi, cut), compute_uv=False)
        vals = np.sort(sv**2)[::-1]
        # clip float dust so the sum-to-one invariant holds verbatim
        vals = vals / vals.sum()
        vals.setflags(write=False)
        psi._cuts[cut] = vals
    return vals


def cut_purity(psi: PureState, cut: Bipartition) -> float:
    """tr rho_A^2 of the cut's marginal, over the squared trace of the
    marginal it is read from so that it matches the normalized spectrum.

    It is read from the marginal of the cover `cover_plan` assigns the cut
    (a set of parties holding party 1 and the cut's `side` S): with
    rho_C expanded in an orthogonal product operator basis {P} whose local
    factors include the identity and with tr P^dag P = d^|C|,
    tr rho_S^2 = d^-|S| sum over supp P within S of |tr(rho_C P)|^2.  So one
    Gram product and one transform of that marginal give the purity of every
    cut assigned to the cover, and all of them are kept on the state."""
    p = psi._purities.get(cut)
    if p is None:
        cover = cover_plan(psi.n, psi.d).cover_of[cut]
        psi._purities.update(zip(cover.cuts, _cover_purities(psi, cover).tolist()))
        p = psi._purities[cut]
    return p


# Cut purities from cover marginals.  A cover of c parties costs about
# GRAM_S per complex multiply-add of its Gram product (d^(n+c) of them),
# SECTOR_S per entry of its d^c x d^c marginal for the transform and
# COVER_S besides; `cover_plan` picks c by these, on a 2-vCPU x86_64 host.
GRAM_S = 1.5e-10
SECTOR_S = 1.2e-8
COVER_S = 3e-5


@dataclass(frozen=True, eq=False)
class Cover:
    """A set of parties holding party 1 (ascending) and the cuts whose purity
    is read from its marginal: each one's `side` as a bit mask over
    the cover's parties (the first one most significant) and the factor
    d^-|side|."""

    parties: tuple
    cuts: tuple
    masks: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class CoverPlan:
    """The covers of `cover_plan` and the cover each cut is assigned to."""

    covers: tuple
    cover_of: dict = field(repr=False)


def _sets_holding_one(n: int, k: int) -> np.ndarray:
    """Bit masks (party p at bit p - 1) of the k-sets of parties 1..n that
    hold party 1, in the order `combinations` lists them; 32 bits suffice,
    since d^n amplitudes for n > 32 could not be held."""
    rest = list(combinations(range(1, n), k - 1))
    rest = np.array(rest, dtype=np.uint32).reshape(len(rest), k - 1)
    return 1 | (1 << rest).sum(1, dtype=np.uint32)


def _schonheim(v: int, k: int, t: int) -> int:
    """Schonheim's lower bound on the number of k-subsets of a v-set needed
    to cover each of its t-subsets."""
    b = 1
    for j in range(1, t + 1):
        b = -(-(v - t + j) * b // (k - t + j))
    return b


def _greedy_run(inc: np.ndarray, rare: bool) -> list[int]:
    """Rows of the incidence matrix inc (candidates x sets) covering every
    set, picked one at a time by most sets newly covered.  Ties go to the
    first row or, with rare, to the row whose new sets the fewest tied rows
    (of the first 64) also cover."""
    gains = inc.sum(1)
    open_ = np.ones(inc.shape[1], dtype=bool)
    chosen = []
    while open_.any():
        ties = np.flatnonzero(gains == gains.max())
        best = ties[0]
        if rare and len(ties) > 1:
            sub = inc[ties[:64]][:, open_]
            best = ties[np.argmax(sub @ (1.0 / np.maximum(sub.sum(0), 1)))]
        chosen.append(int(best))
        new = open_ & inc[best]
        open_ &= ~new
        gains = gains - inc[:, new].sum(1)
    return chosen


def _greedy_cover(sets: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """The candidate masks of the fewer of the two greedy runs that cover
    every set mask."""
    inc = (sets & ~cands[:, None]) == 0
    return cands[min((_greedy_run(inc, rare) for rare in (False, True)), key=len)]


@cache
def cover_plan(n: int, d: int) -> CoverPlan:
    """Covers for the cut purities of an n-party system, built once per
    (n, d), and the cover each cut is assigned to.

    A cut's `side` lies within an r-set holding party 1, r = ceil(n/2), so
    c-sets holding party 1 (r <= c < n) that cover every r-set holding it
    cover every cut.  The covers are those of the c whose cover count times
    its cost per cover is least; a c is searched only when Schonheim's bound
    on its count would not already cost more than the best found."""
    if n < 2:
        raise ValueError(f"a state needs at least 2 parties to have a cut, got n={n}")
    r = (n + 1) // 2
    sets = _sets_holding_one(n, r)
    best = math.inf
    for c in range(r, n):
        cost = GRAM_S * d ** (n + c) + SECTOR_S * d ** (2 * c) + COVER_S
        if _schonheim(n - 1, c - 1, r - 1) * cost < best:
            found = sets if c == r else _greedy_cover(sets, _sets_holding_one(n, c))
            if len(found) * cost < best:
                best, covers, size = len(found) * cost, found, c
    cuts = all_bipartitions(n)
    held = np.concatenate([_sets_holding_one(n, k) for k in range(1, n)])  # as in cuts
    sides = np.where(2 * np.bitwise_count(held) <= n, held, held ^ ((1 << n) - 1))  # cut.side
    owner = np.full(len(cuts), -1)
    for k, cover in enumerate(covers):
        owner[(owner < 0) & ((sides & ~cover) == 0)] = k
    # local[k, p - 1]: party p's bit in cover k's masks, 0 outside the cover
    members = (covers[:, None] >> np.arange(n)) & 1
    local = members << (size - np.cumsum(members, axis=1))
    on_side = (sides[:, None] >> np.arange(n)) & 1
    masks = (on_side * local[owner]).sum(1)
    scale = float(d) ** -on_side.sum(1)
    plan = []
    for k, cover in enumerate(covers.tolist()):
        idx = np.flatnonzero(owner == k)
        parties = tuple(p for p in range(1, n + 1) if cover >> (p - 1) & 1)
        plan.append(Cover(parties, tuple(cuts[i] for i in idx), masks[idx], scale[idx]))
    cover_of = {cut: plan[k] for cut, k in zip(cuts, owner.tolist())}
    return CoverPlan(tuple(plan), cover_of)


@cache
def _sector_tables(c: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For a d^c x d^c marginal g: the flat indices that gather
    v[k, x] = g[k, k + x] (digitwise mod d); the two Kronecker factors of
    Q^(x c) over the leading and trailing digits of k, where Q is real with
    Q Q^T = d and a first row of ones; and each index's nonzero digits as a
    mask, with the first digit most significant and doubled for the real
    and imaginary parts."""
    dim, weights = d**c, d ** np.arange(c - 1, -1, -1)
    digits = np.arange(dim)[:, None] // weights % d
    gather = np.arange(dim)[:, None] * dim
    for j in range(c):
        gather = gather + (digits[:, None, j] + digits[None, :, j]) % d * weights[j]
    # Helmert's rows, scaled by sqrt(d): ones, then (1, ..., 1, -i, 0, ...)
    q = np.ones((d, d))
    for i in range(1, d):
        q[i] = np.r_[np.ones(i), -i, np.zeros(d - i - 1)] * math.sqrt(d / (i * (i + 1)))
    factors = []
    for k in (c // 2, c - c // 2):
        f = np.ones((1, 1))
        for _ in range(k):
            f = np.kron(f, q)
        factors.append(f)
    support = (digits != 0) @ (1 << np.arange(c - 1, -1, -1))
    return gather, factors[0], factors[1], np.repeat(support, 2)


def _marginal_gram(psi: PureState, keep: Sequence[int]) -> np.ndarray:
    """A A^dag for A = `_rows_first(psi, keep)`: the marginal on keep."""
    a = _rows_first(psi, keep)
    return a @ a.conj().T


def _cover_purities(psi: PureState, cover: Cover) -> np.ndarray:
    """The purities of the cover's cuts from its marginal g: with
    v[k, x] = g[k, k + x], y = Q^(x c) v holds tr(g P) for the products
    P = X^x diag(q_z) of shifts and rows of Q, an orthogonal basis whose
    local factors include the identity (x = z = 0)."""
    c, d = len(cover.parties), psi.d
    gather, f1, f2, support = _sector_tables(c, d)
    y = _marginal_gram(psi, cover.parties).reshape(-1)[gather].view(float)
    y = f1 @ y.reshape(len(f1), -1)
    y = np.matmul(f2, y.reshape(len(f1), len(f2), -1)).reshape(d**c, -1)
    # y's rows are z and its columns (x, real or imaginary part), so y[0, 0]
    # is tr g; inside[s, 2i + part] says index i's nonzero digits lie within
    # cut s's side
    trace = y[0, 0]
    y *= y
    inside = ((support & ~cover.masks[:, None]) == 0).astype(float)
    return np.vecdot(inside[:, ::2] @ y, inside) * cover.scale / trace**2


def reduced_density(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace onto the given parties."""
    keep = _check_subset(rho.n, keep)
    n, d = rho.n, rho.d
    t = rho.entries.reshape((d,) * (2 * n))
    traced = [p for p in range(1, n + 1) if p not in keep]
    for p in sorted(traced, reverse=True):
        t = np.trace(t, axis1=p - 1, axis2=t.ndim // 2 + p - 1)
    dim = d ** len(keep)
    out = t.reshape(dim, dim)
    out = (out + out.conj().T) / 2
    return DensityMatrix.by_construction(len(keep), d, out)


def reduced_density_pure(psi: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Marginal of a pure state, without forming the full projector."""
    keep = _check_subset(psi.n, keep)
    m = _marginal_gram(psi, keep)
    m = (m + m.conj().T) / 2
    return DensityMatrix.by_construction(len(keep), psi.d, m)


def partial_transpose(rho: DensityMatrix, subset: Sequence[int]) -> np.ndarray:
    """Transpose the indices of the chosen parties; returns a Hermitian array."""
    subset = _check_subset(rho.n, subset)
    n, d = rho.n, rho.d
    t = rho.entries.reshape((d,) * (2 * n))
    perm = list(range(2 * n))
    for p in subset:
        perm[p - 1], perm[n + p - 1] = perm[n + p - 1], perm[p - 1]
    return t.transpose(perm).reshape(rho.dim, rho.dim)


def eigenvalue_slack(a: np.ndarray) -> float:
    """EIGVAL_ROUNDING D eps |A|_F, the bound on the rounding in every
    eigenvalue `np.linalg.eigvalsh` returns for the D x D Hermitian array a:
    it is backward stable, and the worst measured on rank-deficient product
    mixtures was 0.42 D eps |A|_F.  A partial transpose keeps the Frobenius
    norm, so one slack per state covers every cut."""
    return EIGVAL_ROUNDING * len(a) * sys.float_info.epsilon * math.sqrt(np.vdot(a, a).real)


def is_ppt(rho: DensityMatrix, subset: Sequence[int], tol: float = PSD_TOL) -> bool:
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return min_pt_eigenvalue(rho, subset) >= -tol


def min_pt_eigenvalue(rho: DensityMatrix, subset: Sequence[int]) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(rho, subset))[0])


def npt_cut(rho: DensityMatrix) -> tuple[Bipartition, float] | None:
    """The first cut in `all_bipartitions` order whose partial transpose has
    an eigenvalue below -eigenvalue_slack(rho), with that smallest
    eigenvalue, or None when no cut does.  The sweep stops at that cut; an
    eigenvalue beyond rounding below 0 proves the state is not fully
    separable."""
    slack = eigenvalue_slack(rho.entries)
    for cut in all_bipartitions(rho.n):
        lam = min_pt_eigenvalue(rho, sorted(cut.parties))
        if lam < -slack:
            return cut, lam
    return None


def ppt_threshold(rho: DensityMatrix, mixer: DensityMatrix) -> float:
    """A point below which every mixture (rho + s mixer) / (1 + s) has a
    negative partial transpose on some cut; -inf when rho has no cut.

    On a cut, let A and B be the partial transposes of rho and the mixer.
    The mixture's is (A + sB) / (1 + s), affine in s up to the positive
    factor.  From B = V diag(w) V^dag keep the eigenvectors with
    w >= PENCIL_FLOOR and let T = V w^(-1/2) on them, so T^dag B T = 1.
    Then (Tx)^dag (A + sB) (Tx) = x^dag (T^dag A T + s) x, which is negative
    for some x whenever s is below the top eigenvalue of T^dag (-A) T, the
    cut's threshold.  When every w is kept that is exactly where the cut
    turns PPT; on a smaller range it is a point below it.  The result is
    the largest threshold over the cuts.
    """
    best = -math.inf
    for cut in all_bipartitions(rho.n):
        subset = sorted(cut.parties)
        w, v = np.linalg.eigh(partial_transpose(mixer, subset))
        kept = w >= PENCIL_FLOOR
        t = v[:, kept] / np.sqrt(w[kept])
        s = float(np.linalg.eigvalsh(t.conj().T @ -partial_transpose(rho, subset) @ t)[-1])
        best = max(best, s)
    return best


def apply_channel(prep_map, rho: DensityMatrix) -> DensityMatrix:
    """Apply a filter-and-prepare channel.

    The map acts as
        rho -> p tr(psi1 rho) psi2 + tr[(1 - psi1) rho] mixer
               + (1 - p) tr(psi1 rho) mixer
    which is the CPTP completion of the probabilistic preparation branch.
    """
    psi1, psi2 = prep_map.cert.psi1, prep_map.cert.psi2
    if (psi1.n, psi1.d) != (rho.n, rho.d):
        raise ShapeError("channel and input dimensions differ")
    v = psi1.amplitudes
    q = float(np.real(v.conj() @ rho.entries @ v))
    q = min(max(q, 0.0), 1.0)
    p = prep_map.p
    out = (
        p * q * np.outer(psi2.amplitudes, psi2.amplitudes.conj())
        + ((1.0 - q) + (1.0 - p) * q) * prep_map.mixer.entries
    )
    out = (out + out.conj().T) / 2
    return DensityMatrix.by_construction(rho.n, rho.d, out)


# ---------------------------------------------------------------------------
# JSON wire format


def _to_wire(n: int, d: int, key: str, values: np.ndarray) -> str:
    """The JSON wire format: n, d, then the flat values as [re, im] pairs."""
    return json.dumps({"n": n, "d": d, key: [[z.real, z.imag] for z in values]})


def state_to_json(psi: PureState) -> str:
    return _to_wire(psi.n, psi.d, "amplitudes", psi.amplitudes)


def _parse_wire(text: str, kind: str, key: str, power: int) -> tuple[int, int, np.ndarray]:
    """(n, d, complex values) from the JSON wire format, with n >= 1, d >= 2
    and d**(power n) values; every shape error becomes a one-line
    ValueError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {kind} JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"malformed {kind} JSON: expected an object")
    for name in ("n", "d", key):
        if name not in obj:
            raise ValueError(f"malformed {kind} JSON: missing field '{name}'")
    for name in ("n", "d"):
        if not isinstance(obj[name], int) or isinstance(obj[name], bool):
            raise ValueError(f"malformed {kind} JSON: '{name}' must be an integer")
    n, d = obj["n"], obj["d"]
    if n < 1 or d < 2:
        raise ValueError(f"malformed {kind} JSON: n = {n}, d = {d}; need n >= 1 and d >= 2")
    try:
        values = np.array([_wire_complex(re, im) for re, im in obj[key]])
    except (TypeError, ValueError):
        raise ValueError(f"malformed {kind} JSON: '{key}' must be a list of [re, im] pairs") from None
    except OverflowError:
        raise ValueError(f"malformed {kind} JSON: a number in '{key}' is too large") from None
    # a count equal to d**k >= 2**k has more than k bits, so a shorter one is
    # refused without building d**k
    k = power * n
    if k >= values.size.bit_length() or d**k != values.size:
        raise ValueError(
            f"malformed {kind} JSON: n = {n}, d = {d} needs {d}^{k} {key}, got {values.size}"
        )
    return n, d, values


def _wire_complex(re, im) -> complex:
    if type(re) is bool or type(im) is bool:  # complex() would read them as 1 and 0
        raise TypeError("a boolean is not a number")
    return complex(re, im)


def state_from_json(text: str) -> PureState:
    n, d, amps = _parse_wire(text, "state", "amplitudes", 1)
    return PureState(n, d, amps)


def density_to_json(rho: DensityMatrix) -> str:
    return _to_wire(rho.n, rho.d, "entries", rho.entries.reshape(-1))


def density_from_json(text: str) -> DensityMatrix:
    n, d, flat = _parse_wire(text, "density", "entries", 2)
    return DensityMatrix(n, d, flat.reshape(d**n, d**n))
