"""Dense complex tensor algebra for n-qudit systems.

Parties are numbered 1..n. A computational-basis index is read as n base-d
digits with party 1 most significant; this convention is fixed globally so
that serialized states are unambiguous.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
PSD_TOL = 1e-10


class ShapeError(ValueError):
    """Raised when operands do not share (n, d) metadata."""


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over n parties of local dimension d, held
    as a read-only copy; its cut purities and Schmidt spectra are kept on it
    once computed."""

    n: int
    d: int
    amplitudes: np.ndarray
    _cuts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _purities: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    2^(n-1) - 1 cuts appears exactly once.
    """

    n: int
    parties: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        m = frozenset(self.parties)
        if not m or not m < set(range(1, self.n + 1)):
            raise ValueError(f"cut must be a nonempty proper subset of 1..{self.n}")
        if 1 not in m:
            m = frozenset(range(1, self.n + 1)) - m
        object.__setattr__(self, "parties", m)

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


def cut_matrix(psi: PureState, cut: Bipartition) -> np.ndarray:
    """Amplitudes reshaped to a d^|M| x d^|complement| matrix for the cut."""
    m = sorted(cut.parties)
    rest = sorted(cut.complement)
    t = psi.tensor().transpose([p - 1 for p in m + rest])
    return t.reshape(psi.d ** len(m), psi.d ** len(rest))


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
    """tr rho_A^2 of the cut's marginal, computed once per state: the squared
    Frobenius norm of the Gram matrix of the cut matrix's smaller side, over
    its squared trace so that it matches the normalized spectrum."""
    p = psi._purities.get(cut)
    if p is None:
        a = cut_matrix(psi, cut)
        g = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
        p = psi._purities[cut] = float(np.vdot(g, g).real / np.trace(g).real ** 2)
    return p


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
    rest = [p for p in range(1, psi.n + 1) if p not in keep]
    t = psi.tensor().transpose([p - 1 for p in list(keep) + rest])
    a = t.reshape(psi.d ** len(keep), psi.d ** len(rest))
    m = a @ a.conj().T
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


def is_ppt(rho: DensityMatrix, subset: Sequence[int], tol: float = PSD_TOL) -> bool:
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return min_pt_eigenvalue(rho, subset) >= -tol


def min_pt_eigenvalue(rho: DensityMatrix, subset: Sequence[int]) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(rho, subset))[0])


def npt_cut(rho: DensityMatrix, tol: float = PSD_TOL) -> tuple[Bipartition, float] | None:
    """The first cut in `all_bipartitions` order whose partial transpose has
    an eigenvalue below -tol, with that smallest eigenvalue, or None when
    every cut is PPT within tol.  The sweep stops at that cut; an NPT cut
    proves the state is not fully separable."""
    for cut in all_bipartitions(rho.n):
        lam = min_pt_eigenvalue(rho, sorted(cut.parties))
        if lam < -tol:
            return cut, lam
    return None


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


def state_to_json(psi: PureState) -> str:
    return json.dumps(
        {
            "n": psi.n,
            "d": psi.d,
            "amplitudes": [[z.real, z.imag] for z in psi.amplitudes],
        }
    )


def _parse_wire(text: str, kind: str, key: str) -> tuple[int, int, np.ndarray]:
    """(n, d, complex values) from the JSON wire format; every shape error
    becomes a one-line ValueError."""
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
    try:
        values = np.array([complex(re, im) for re, im in obj[key]])
    except (TypeError, ValueError):
        raise ValueError(f"malformed {kind} JSON: '{key}' must be a list of [re, im] pairs") from None
    return obj["n"], obj["d"], values


def state_from_json(text: str) -> PureState:
    n, d, amps = _parse_wire(text, "state", "amplitudes")
    return PureState(n, d, amps)


def density_to_json(rho: DensityMatrix) -> str:
    flat = rho.entries.reshape(-1)
    return json.dumps(
        {
            "n": rho.n,
            "d": rho.d,
            "entries": [[z.real, z.imag] for z in flat],
        }
    )


def density_from_json(text: str) -> DensityMatrix:
    n, d, flat = _parse_wire(text, "density", "entries")
    dim = d**n
    if flat.size != dim * dim:
        raise ValueError(f"malformed density JSON: expected {dim * dim} entries, got {flat.size}")
    return DensityMatrix(n, d, flat.reshape(dim, dim))
