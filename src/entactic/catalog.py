"""Constructors for the named states used throughout the package."""

from __future__ import annotations

import math

import numpy as np

from .linalg import NORM_TOL, PureState, kron_vectors


def _basis_index(digits, d):
    i = 0
    for x in digits:
        i = i * d + x
    return i


def ghz(n: int, d: int) -> PureState:
    """Generalized GHZ state: equal superposition of |i>^n over i < d."""
    if n < 2 or d < 2:
        raise ValueError(f"ghz requires n >= 2 and d >= 2, got ({n}, {d})")
    amps = np.zeros(d**n, dtype=complex)
    for i in range(d):
        amps[_basis_index([i] * n, d)] = 1.0 / math.sqrt(d)
    return PureState(n, d, amps)


def ghz_minus() -> PureState:
    """(|000> - |111>) / sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1 / math.sqrt(2)
    amps[7] = -1 / math.sqrt(2)
    return PureState(3, 2, amps)


def w_state() -> PureState:
    """(|001> + |010> + |100>) / sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = 1 / math.sqrt(3)
    return PureState(3, 2, amps)


def w_bar() -> PureState:
    """Bit-flipped W: (|110> + |101> + |011>) / sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[[3, 5, 6]] = 1 / math.sqrt(3)
    return PureState(3, 2, amps)


def psi_ghz_plus(alpha: float, beta: float, gamma: float) -> PureState:
    """sqrt(K) (|000> + |phiA phiB phiC>) with tilted local states.

    phiA = cos(alpha)|0> + sin(alpha)|1> and likewise for B, C;
    K = 1 / (2 (1 + cos a cos b cos c)).
    """
    for x in (alpha, beta, gamma):
        if not 0 < x <= math.pi / 2:
            raise ValueError("angles must lie in (0, pi/2]")
    locals_ = [
        np.array([math.cos(t), math.sin(t)], dtype=complex)
        for t in (alpha, beta, gamma)
    ]
    vec = kron_vectors(locals_)
    vec[0] += 1.0
    k = 1.0 / (2.0 * (1.0 + math.cos(alpha) * math.cos(beta) * math.cos(gamma)))
    return PureState(3, 2, math.sqrt(k) * vec)


def psi_w(x1: float, x2: float, x3: float) -> PureState:
    """sqrt(x1)|001> + sqrt(x2)|010> + sqrt(x3)|100>."""
    if min(x1, x2, x3) < 0 or abs(x1 + x2 + x3 - 1.0) > NORM_TOL:
        raise ValueError("weights must be nonnegative and sum to 1")
    amps = np.zeros(8, dtype=complex)
    amps[1] = math.sqrt(x1)
    amps[2] = math.sqrt(x2)
    amps[4] = math.sqrt(x3)
    return PureState(3, 2, amps)


def four_qubit_phi(p: float) -> PureState:
    """sqrt(p) |phi+>|phi+> + sqrt(1-p) |phi->|phi-> on qubit pairs 12|34."""
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    bell_p = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    bell_m = np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)
    amps = math.sqrt(p) * np.kron(bell_p, bell_p) + math.sqrt(1 - p) * np.kron(
        bell_m, bell_m
    )
    return PureState(4, 2, amps)


def fully_supported_example(n: int, d: int, eps: float) -> PureState:
    """GHZ-like state with unbalanced weights; every single-party marginal
    has full rank d, so the state is fully supported."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    amps = np.zeros(d**n, dtype=complex)
    amps[_basis_index([0] * n, d)] = math.sqrt(1 - eps)
    for i in range(1, d):
        amps[_basis_index([i] * n, d)] = math.sqrt(eps / (d - 1))
    return PureState(n, d, amps)


def cluster_state(n: int) -> PureState:
    """Linear cluster state: all qubits in |+>, controlled-phase on neighbors.

    Phase convention: CZ = diag(1, 1, 1, -1) on each neighboring pair.
    """
    if n < 3:
        raise ValueError(f"cluster state needs n >= 3, got {n}")
    amps = np.full(2**n, 2.0 ** (-n / 2), dtype=complex)
    for i in range(2**n):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        sign = sum(bits[k] * bits[k + 1] for k in range(n - 1))
        if sign % 2:
            amps[i] = -amps[i]
    return PureState(n, 2, amps)


def ame_4_3() -> PureState:
    """Four-qutrit state with every two-party marginal maximally mixed.

    Built from the linear code (i, j, i+j, i+2j) mod 3; the marginal
    property is checked by the `equivalence-class` report claim.
    """
    amps = np.zeros(81, dtype=complex)
    for i in range(3):
        for j in range(3):
            amps[_basis_index([i, j, (i + j) % 3, (i + 2 * j) % 3], 3)] = 1 / 3
    return PureState(4, 3, amps)


CATALOG = {
    "ghz": (ghz, (int, int)),
    "ghz-minus": (ghz_minus, ()),
    "w": (w_state, ()),
    "w-bar": (w_bar, ()),
    "psi-ghz-plus": (psi_ghz_plus, (float, float, float)),
    "psi-w": (psi_w, (float, float, float)),
    "four-qubit-phi": (four_qubit_phi, (float,)),
    "fully-supported": (fully_supported_example, (int, int, float)),
    "cluster": (cluster_state, (int,)),
    "ame-4-3": (ame_4_3, ()),
}


def build(name: str, params: list[str]) -> PureState:
    """Construct a catalog state from CLI-style string parameters."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog state '{name}'")
    fn, sig = CATALOG[name]
    if len(params) != len(sig):
        raise ValueError(f"'{name}' expects {len(sig)} parameter(s), got {len(params)}")
    return fn(*(t(p) for t, p in zip(sig, params)))
