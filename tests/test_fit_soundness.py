"""Known-answer soundness of the certifier on inputs that reach the
decomposition fit.

Each case states a fact about the input that holds by construction or by a
theorem, computed here without the certifier's own routes, and checks that
no verdict contradicts it.  Wherever the fit certifies, its residual is
recomputed from the returned terms as the Frobenius distance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entactic import measures
from entactic.linalg import DensityMatrix, kron_vectors, npt_cut

SEEDS = st.integers(0, 2**32 - 1)


def unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def product_vector(rng, n):
    return kron_vectors([unit(rng, 2) for _ in range(n)])


def mix_with_white(m, noise):
    dim = len(m)
    return (1 - noise) * m + noise * np.eye(dim) / dim


def min_pt_eigenvalue(m, n):
    """Smallest eigenvalue of the partial transpose of an n-qubit matrix
    over the cuts that split off one qubit (all cuts for n <= 3)."""
    t = m.reshape((2,) * (2 * n))
    lows = []
    for k in range(n if n > 2 else 1):
        axes = list(range(2 * n))
        axes[k], axes[n + k] = n + k, k
        lows.append(np.linalg.eigvalsh(t.transpose(axes).reshape(2**n, 2**n))[0])
    return min(lows)


def certify(n, m):
    """The certifier's verdict on m; a certified fit's residual must be the
    Frobenius distance from rho to the mixture of its returned terms."""
    rho = DensityMatrix(n, 2, m)
    res = measures.fs_certificate(rho)
    if res.route == "decomposition-fit":
        residual, terms = measures._fit_product_decomposition(rho)
        sigma = sum(p * np.outer(v, v.conj()) for p, v in terms)
        assert residual == res.detail["residual"]
        assert np.linalg.norm(rho.entries - sigma) == pytest.approx(residual, abs=1e-12)
    return res


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.sampled_from([0.0, 0.05, 0.3]), SEEDS)
def test_product_mixtures_are_never_certified_entangled(n, count, noise, seed):
    rng = np.random.default_rng(seed)
    vectors = [product_vector(rng, n) for _ in range(count)]
    m = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(count)), vectors))
    assert certify(n, mix_with_white(m, noise)).verdict != measures.CERTIFIED_NOT_FS


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.floats(0.0, 1.0), SEEDS)
def test_a_negative_partial_transpose_is_never_certified_separable(n, noise, seed):
    v = unit(np.random.default_rng(seed), 2**n)
    m = mix_with_white(np.outer(v, v.conj()), noise)
    if min_pt_eigenvalue(m, n) < 0:
        assert certify(n, m).verdict != measures.CERTIFIED_FS


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.floats(0.0, 1.0), SEEDS)
def test_two_qubit_verdicts_agree_with_the_ppt_criterion(rank, noise, seed):
    # on two qubits PPT is equivalent to separability (Horodecki, Horodecki
    # & Horodecki, PLA 223, 1 (1996)), so a certified verdict must be it
    rng = np.random.default_rng(seed)
    vectors = [unit(rng, 4) for _ in range(rank)]
    m = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(rank)), vectors))
    m = mix_with_white(m, noise)
    res = certify(2, m)
    if res.verdict != measures.UNKNOWN:
        separable = min_pt_eigenvalue(m, 2) >= 0
        assert (res.verdict == measures.CERTIFIED_FS) == separable


def shifts_upb_state() -> DensityMatrix:
    """(I - sum of the Shifts UPB projectors) / 4: PPT across every cut yet
    entangled, since no product vector lies in its range (Bennett et al.,
    PRL 82, 5385 (1999))."""
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    plus, minus = (zero + one) / math.sqrt(2), (zero - one) / math.sqrt(2)
    upb = [(zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus)]
    proj = sum(np.outer(v, v) for v in (kron_vectors(list(t)) for t in upb))
    return DensityMatrix(3, 2, (np.eye(8) - proj) / 4)


def test_shifts_upb_state_is_ppt_and_never_certified_fs():
    rho = shifts_upb_state()
    assert npt_cut(rho) is None
    assert measures.fs_certificate(rho).verdict != measures.CERTIFIED_FS


def local_unitary(rng, n):
    """A Kronecker product of n random one-qubit unitaries."""
    u = np.ones((1, 1))
    for _ in range(n):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u, q)
    return u


@settings(max_examples=8, deadline=None)
@given(SEEDS)
def test_local_unitary_images_of_the_shifts_upb_state_are_never_certified_fs(seed):
    # a local unitary maps the UPB to another UPB, so the image is still
    # PPT and entangled
    u = local_unitary(np.random.default_rng(seed), 3)
    m = u @ shifts_upb_state().entries @ u.conj().T
    assert certify(3, (m + m.conj().T) / 2).verdict != measures.CERTIFIED_FS
