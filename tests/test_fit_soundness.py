"""Known-answer soundness of the certifier, on inputs that reach the
decomposition fit and on inputs at the edges of its exact routes.

Each case states a fact about the input that holds by construction or by a
theorem, computed here without the certifier's own routes, and checks that
no verdict contradicts it.  Wherever the fit certifies, its residual is
recomputed from the returned terms as the Frobenius distance.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entactic import measures
from entactic.catalog import ghz, w_state
from entactic.ghz_symmetric import GhzSymmetricParams, params_to_density
from entactic.linalg import DensityMatrix, density_from_json, kron_vectors, npt_cut

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


def through_json(n, m):
    """m as the certify benchmark writes and reads a density: Hermitian part,
    unit trace, JSON [re, im] pairs, `density_from_json`."""
    m = (m + m.conj().T) / 2
    m = m / np.trace(m).real
    pairs = [[z.real, z.imag] for z in m.reshape(-1).tolist()]
    return density_from_json(json.dumps({"n": n, "d": 2, "entries": pairs}))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.booleans(), SEEDS)
def test_rank_deficient_product_mixtures_are_never_npt(n, pure, seed):
    # every partial transpose of a product mixture is PSD, so a computed
    # eigenvalue below 0 is rounding, which the slack must cover: the worst
    # of 4,500 such draws was 0.42 D eps |rho|_F, against EIGVAL_ROUNDING = 4
    rng = np.random.default_rng(seed)
    terms = 1 if pure else 2 * n
    vectors = [product_vector(rng, n) for _ in range(terms)]
    m = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(terms)), vectors))
    assert npt_cut(through_json(n, m)) is None


@pytest.mark.parametrize("offset", [-1e-9, -1e-12, 1e-12, 1e-9])
@pytest.mark.parametrize("sign", [1, -1])
def test_ghz_symmetric_points_are_certified_fs_only_inside_the_polytope(sign, offset):
    # l = 3/5 and l+ - l- = sign (l/3 + offset) in exact Fractions: fully
    # separable iff offset <= 0 (the polytope |l+ - l-| <= l/3 is exact for
    # the family), so the state is in the polytope or at least 1e-12 out
    lr = Fraction(3, 5)
    gap = sign * (lr / 3 + Fraction(str(offset)))
    rho = params_to_density(GhzSymmetricParams((1 - lr + gap) / 2, (1 - lr - gap) / 2, lr))
    res = measures.fs_certificate(rho)
    assert res.route == "ghz-symmetric-polytope"
    assert res.verdict == (measures.CERTIFIED_FS if offset < 0 else measures.CERTIFIED_NOT_FS)


SINGULAR_RAYS = {
    # Lemma 2's W ray and Lemma 1's GHZ ray, each fully separable exactly
    # from s = 2 on, where their partial transposes are singular
    "w": (w_state, measures.w_robustness_mixer),
    "ghz": (lambda: ghz(3, 2), lambda: params_to_density(GhzSymmetricParams(0.0, 0.25, 0.75))),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_RAYS))
def test_singular_rays_certify_nothing_beyond_rounding_below_two(monkeypatch, name):
    make_psi, make_mixer = SINGULAR_RAYS[name]
    certified = []
    certify = measures.fs_certificate

    def spy(rho):
        res = certify(rho)
        if res.verdict == measures.CERTIFIED_FS:
            certified.append(rho.entries)
        return res

    monkeypatch.setattr(measures, "fs_certificate", spy)
    s = measures.robustness_fs_upper_via_mix(make_psi().density(), make_mixer(), bisect_tol=1e-300)
    assert s >= 2 - 1e-12
    assert certified
    for m in certified:
        assert min_pt_eigenvalue(m, 3) >= -1e-11
