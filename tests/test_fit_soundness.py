"""Known-answer soundness of the certifier, on inputs that reach the
decomposition fit and on inputs at the edges of its exact routes.

Each case states a fact about the input that holds by construction or by a
theorem, computed here without the certifier's own routes, and checks that
no verdict contradicts it.  Wherever the fit certifies, its ball proof is
checked again from the reported t, residual and radius, with the residual
recomputed from the returned weights and local vectors.
"""

import json
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entactic import measures
from entactic.catalog import ghz, ghz_minus, w_state
from entactic.ghz_symmetric import GhzSymmetricParams, params_to_density
from entactic.linalg import (
    DensityMatrix,
    density_from_json,
    eigenvalue_slack,
    kron_vectors,
    npt_cut,
)

SEEDS = st.integers(0, 2**32 - 1)


def unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def product_vector(rng, n):
    return kron_vectors([unit(rng, 2) for _ in range(n)])


def mix_with_white(m, noise):
    dim = len(m)
    return (1 - noise) * m + noise * np.eye(dim) / dim


def partial_transpose(m, n, parties):
    """The n-qubit matrix m with the indices of `parties` (0-based) transposed."""
    axes = list(range(2 * n))
    for k in parties:
        axes[k], axes[n + k] = n + k, k
    return m.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def min_pt_eigenvalue(m, n):
    """Smallest eigenvalue of the partial transpose of an n-qubit matrix
    over every cut, each named by its side without the first qubit."""
    sides = [[k for k in range(1, n) if mask >> k & 1] for mask in range(2, 2**n, 2)]
    return min(np.linalg.eigvalsh(partial_transpose(m, n, side))[0] for side in sides)


def product_of(factors):
    """The Kronecker product of local vectors by np.kron."""
    w = np.ones(1)
    for f in factors:
        w = np.kron(w, f)
    return w


def check_ball_proof(rho, detail, target, terms):
    """A certified fit, checked apart from the route's own arithmetic:
    rho' = (rho - t I/D)/(1 - t) from the reported t is the fitted target,
    the mixture sigma of the returned weights and local vectors is within
    the reported residual of it, and that residual puts I/D + (1 - t) R/t
    inside the near-identity ball, in Fractions.  With |(1 - t) R/t|_F <=
    delta the operator has smallest eigenvalue >= 1/D - delta and trace <=
    1 + D delta, so its near-identity weight is <= 2 D delta/(1 + D delta)."""
    dim, t = rho.dim, detail["t"]
    shifted = (rho.entries - t * np.eye(dim) / dim) / (1 - t)
    assert np.array_equal(target, shifted)
    assert len(terms) == detail["terms"] and all(p > 0 for p, _ in terms)
    sigma = sum(p * np.outer(product_of(f), product_of(f).conj()) for p, f in terms)
    assert np.linalg.norm(shifted - sigma) <= detail["residual"]
    w = Fraction(1, 1 + 2 ** (2 * rho.n - 1))
    assert detail["radius"] == float(w)
    spread = dim * Fraction(detail["residual"]) * (1 - Fraction(t)) / Fraction(t)
    assert 2 * spread / (1 + spread) < w


def certify(n, m):
    """The certifier's verdict on m; every certified fit passes
    `check_ball_proof`, and no state with a smallest eigenvalue within the
    rounding slack reaches the fit."""
    rho = DensityMatrix(n, 2, m)
    fitted = []
    fit = measures._fit_product_decomposition

    def spy(target):
        res, terms = fit(target)
        fitted.append((target.entries, terms))
        return res, terms

    measures._fit_product_decomposition = spy
    try:
        res = measures.fs_certificate(rho)
    finally:
        measures._fit_product_decomposition = fit
    if fitted:
        assert np.linalg.eigvalsh(rho.entries)[0] > eigenvalue_slack(rho.entries)
    if res.route == "decomposition-fit":
        check_ball_proof(rho, res.detail, *fitted[0])
    return res


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.sampled_from([0.0, 0.05, 0.3, 0.7]), SEEDS)
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


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("rank", [1, 2, 4])
def test_one_party_states_are_certified_fs_without_the_fit(monkeypatch, d, rank):
    # a one-party state has no second party to be entangled with
    def fit(rho):
        raise AssertionError("the fit ran on a one-party state")

    monkeypatch.setattr(measures, "_fit_product_decomposition", fit)
    rng = np.random.default_rng(10 * d + rank)
    for _ in range(3):
        vectors = [unit(rng, d) for _ in range(rank)]
        m = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(rank)), vectors))
        res = measures.fs_certificate(DensityMatrix(1, d, m))
        assert res.verdict == measures.CERTIFIED_FS
        if rank == 1:
            assert res.route == "single-party"


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


@pytest.mark.parametrize("offset", [-1e-9, -1e-12, 1e-15, 3e-15, 1e-12, 1e-9])
@pytest.mark.parametrize("sign", [1, -1])
def test_ghz_symmetric_points_are_certified_fs_only_inside_the_polytope(sign, offset):
    # l = 3/5 and l+ - l- = sign (l/3 + offset) in exact Fractions: fully
    # separable iff offset <= 0 (the polytope |l+ - l-| <= l/3 is exact for
    # the family), so the state is in the polytope or at least 1e-15 out
    lr = Fraction(3, 5)
    gap = sign * (lr / 3 + Fraction(str(offset)))
    rho = params_to_density(GhzSymmetricParams((1 - lr + gap) / 2, (1 - lr - gap) / 2, lr))
    # outside, the float entries give the partial transpose on the first
    # qubit the 2 x 2 principal minor on {011, 100} below 0, in Fractions
    pt = partial_transpose(rho.entries, 3, [0])
    diagonal, c = Fraction(pt[3, 3].real) * Fraction(pt[4, 4].real), pt[3, 4]
    assert (diagonal < Fraction(c.real) ** 2 + Fraction(c.imag) ** 2) is (offset > 0)
    res = measures.fs_certificate(rho)
    assert res.route == "ghz-corner"
    assert res.verdict == (measures.CERTIFIED_FS if offset < 0 else measures.CERTIFIED_NOT_FS)


def ghz_symmetric_part(x):
    """The GHZ-symmetric part of a 3-qubit Hermitian x with the same trace:
    its GHZ and GHZ- overlaps, and the rest spread evenly over the middle
    basis states, with no weight clamped at 0."""
    g, gm = ghz(3, 2).amplitudes, ghz_minus().amplitudes
    lp, lm = (np.vdot(v, x @ v).real for v in (g, gm))
    middle = np.eye(8) - np.outer(g, g) - np.outer(gm, gm)
    return lp * np.outer(g, g) + lm * np.outer(gm, gm) + (np.trace(x).real - lp - lm) * middle / 6


@pytest.mark.parametrize("party", [0, 1, 2])
def test_a_state_off_the_ghz_family_by_rounding_is_not_certified_fs(party):
    # the polytope's boundary point l = 3/5, l+ - l- = 1/5 has a null vector
    # x of the partial transpose on `party`; moving it by 2e-10 times the
    # part of PT(|x><x|) outside the family makes <x|PT(rho)|x> < 0, while
    # the family part, and so the state's twirl, stays on the boundary
    rho0 = params_to_density(GhzSymmetricParams(Fraction(3, 10), Fraction(1, 10), Fraction(3, 5)))
    x = np.linalg.eigh(partial_transpose(rho0.entries, 3, [party]))[1][:, 0]
    off = partial_transpose(np.outer(x, x.conj()), 3, [party])
    m = rho0.entries - 2e-10 * (off - ghz_symmetric_part(off))
    assert np.linalg.eigvalsh(partial_transpose(m, 3, [party]))[0] < -1e-11
    assert certify(3, m).verdict != measures.CERTIFIED_FS


def corner_state(diagonal, corner):
    """diag(diagonal) with the corner pair corner, conj(corner)."""
    m = np.diag(np.asarray(diagonal, dtype=complex))
    m[0, -1], m[-1, 0] = corner, np.conj(corner)
    return m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.floats(0.0, 0.999), st.floats(0.0, 2 * math.pi), SEEDS)
def test_dur_cirac_states_are_decided_by_their_partial_transposes(n, shrink, phase, seed):
    # GHZ-diagonal states with lambda_j+ = lambda_j- for j != 0 (Dur &
    # Cirac, PRA 61, 042314 (2000)), up to a local phase: diagonal
    # (l0+ + l0-)/2 on the GHZ pair and l_j on the j-th middle pair, corner
    # e^(i phase) (l0+ - l0-)/2, here shrunk so that both verdicts occur.
    # Fully separable iff the partial transpose is PSD on every cut
    half = 2 ** (n - 1)
    weights = np.random.default_rng(seed).dirichlet(np.ones(half + 1))
    middle = weights[2:] / 2
    diagonal = np.concatenate([[(weights[0] + weights[1]) / 2], middle, middle[::-1],
                               [(weights[0] + weights[1]) / 2]])
    m = corner_state(diagonal, shrink * (weights[0] - weights[1]) / 2 * np.exp(1j * phase))
    low = min_pt_eigenvalue(m, n)
    # a draw within rounding of the boundary says nothing either way
    assume(abs(low) > 1e-12)
    res = certify(n, m)
    assert res.route == "ghz-corner"
    assert (res.verdict == measures.CERTIFIED_FS) == (low > 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("arg", [0.0, 1.0, -2.5])
def test_the_ghz_corner_mixer_is_the_mean_of_its_products(n, arg):
    # sigma = (I + (e^(i arg)|0..0><1..1| + h.c.))/D is the mean of the
    # 3^(n-1) products of (|0> + e^(i t_k)|1>)/sqrt(2), t_k in {0, 2pi/3,
    # 4pi/3} for k < n and t_n = -arg - sum t_k: the cube roots of unity
    # average every other coherence away
    dim = 2**n
    sigma = np.zeros((dim, dim), dtype=complex)
    for ts in product(2 * np.pi * np.arange(3) / 3, repeat=n - 1):
        phases = [*ts, -arg - sum(ts)]
        v = kron_vectors([np.array([1, np.exp(1j * t)]) / math.sqrt(2) for t in phases])
        sigma += np.outer(v, v.conj()) / 3 ** (n - 1)
    expected = corner_state(np.full(dim, 1 / dim), np.exp(1j * arg) / dim)
    assert np.max(np.abs(sigma - expected)) <= 1e-15


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


def symmetric_projector(n):
    """The projector onto the n-qubit symmetric subspace, built from its
    Dicke basis: 1/C(n, k) between basis states of Hamming weight k."""
    weights = np.bitwise_count(np.arange(2**n))
    return (weights[:, None] == weights) / np.array([math.comb(n, int(k)) for k in weights])[:, None]


@pytest.mark.parametrize("p", [0.2, 0.3])
def test_permutation_invariant_states_off_the_symmetric_subspace_skip_symmetric_ppt(p):
    # p P_sym/4 + (1 - p) P_sym_perp/4 commutes with every permutation of the
    # qubits but has weight 1 - p outside the symmetric subspace, so the
    # theorem behind symmetric-ppt does not apply to it
    sym = symmetric_projector(3)
    m = p * sym / 4 + (1 - p) * (np.eye(8) - sym) / 4
    assert min_pt_eigenvalue(m, 3) >= -1e-12
    assert certify(3, m).route != "symmetric-ppt"


def test_no_route_order_certifies_w_or_ghz_separable(monkeypatch):
    # each row checks its own theorem's hypothesis, so no order of the rows
    # before the fit may certify the NPT states W and GHZ_3
    *rows, fit = measures.FS_ROUTES
    assert fit[0] == "decomposition-fit"
    states = [w_state().density(), ghz(3, 2).density()]
    verdicts = set()
    for order in permutations(rows):
        monkeypatch.setattr(measures, "FS_ROUTES", (*order, fit))
        verdicts.update(measures.fs_certificate(rho).verdict for rho in states)
    assert verdicts == {measures.CERTIFIED_NOT_FS}


def test_symmetric_ppt_checks_its_own_ppt_premise():
    # W lies in the symmetric subspace but is NPT on every cut
    w = w_state().density()
    assert measures._weight_outside_symmetric(w) <= eigenvalue_slack(w.entries)
    low = np.linalg.eigvalsh(w.entries)[0]
    assert measures._by_symmetric_ppt(w, eigenvalue_slack(w.entries), low) is None


def with_min_eigenvalue(mu):
    """diag(mu, r, ..., r) on three qubits, r = (1 - mu)/7, with the
    coherence 2^-9 on |011><101|: off the GHZ corner and the symmetric
    subspace, and with smallest eigenvalue mu, alone on |000>.  Every
    partial transpose moves the coherence to a pair of basis states other
    than |000>, both of diagonal r, so no cut is NPT, and for small mu only
    the fit's row can decide it."""
    m = np.diag([mu] + [(1 - mu) / 7] * 7)
    m[3, 5] = m[5, 3] = 2.0**-9
    return DensityMatrix(3, 2, m)


def spied_fit(monkeypatch):
    """Record each target the fit is given, and run it."""
    targets = []
    fit = measures._fit_product_decomposition
    monkeypatch.setattr(measures, "_fit_product_decomposition", lambda rho: targets.append(rho) or fit(rho))
    return targets


@pytest.mark.parametrize("factor,fitted", [(0.5, False), (2.0, True)])
def test_the_fit_runs_only_above_the_slack(monkeypatch, factor, fitted):
    # the row reads the smallest eigenvalue once, against the slack: at or
    # below it no ball exists to be found, and the fit is not run
    slack = eigenvalue_slack(with_min_eigenvalue(0.0).entries)
    rho = with_min_eigenvalue(factor * slack)
    assert np.linalg.eigvalsh(rho.entries)[0] == pytest.approx(factor * slack, rel=1e-3)
    targets = spied_fit(monkeypatch)
    res = measures.fs_certificate(rho)
    assert (res.verdict, res.route) == (measures.UNKNOWN, "none")
    assert bool(targets) is fitted
    assert ("t" in res.detail) is fitted


@pytest.mark.parametrize("factor,capped", [(0.5, False), (2.0, True)])
def test_fit_shift_edges(monkeypatch, factor, capped):
    # t = min(D (low - slack)/2, FIT_SHIFT), here with D (low - slack)/2
    # placed at factor FIT_SHIFT; the fitted target is (rho - t I/D)/(1 - t)
    slack = eigenvalue_slack(with_min_eigenvalue(0.0).entries)
    rho = with_min_eigenvalue(slack + factor * measures.FIT_SHIFT / 4)
    low, slack = np.linalg.eigvalsh(rho.entries)[0], eigenvalue_slack(rho.entries)
    targets = spied_fit(monkeypatch)
    res = measures.fs_certificate(rho)
    t = res.detail["t"]
    assert t == min(8 * (low - slack) / 2, measures.FIT_SHIFT)
    assert (t == measures.FIT_SHIFT) is capped
    assert t == pytest.approx(min(factor, 1.0) * measures.FIT_SHIFT, rel=1e-6)
    assert np.array_equal(targets[0].entries, (rho.entries - t * np.eye(8) / 8) / (1 - t))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4]), st.booleans(), SEEDS)
def test_rank_deficient_product_states_skip_the_fit(n, pure, seed):
    # fewer product terms than D leave the smallest eigenvalue at 0, where
    # no separable ball around I/D fits, so the fit never runs on them
    def fit(rho):
        raise AssertionError("the fit ran on a rank-deficient state")

    rng = np.random.default_rng(seed)
    terms = 1 if pure else 2 * n
    vectors = [product_vector(rng, n) for _ in range(terms)]
    m = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(terms)), vectors))
    rho = through_json(n, m)
    saved = measures._fit_product_decomposition
    measures._fit_product_decomposition = fit
    try:
        res = measures.fs_certificate(rho)
    finally:
        measures._fit_product_decomposition = saved
    assert (res.verdict, res.route) == (measures.UNKNOWN, "none")
    assert res.detail["min_eigenvalue"] <= eigenvalue_slack(rho.entries)


def test_qudits_skip_the_fit(monkeypatch):
    # the row has a ball only for qubits, so a qudit state never reaches the fit
    def fit(rho):
        raise AssertionError("the fit ran on qudits")

    monkeypatch.setattr(measures, "_fit_product_decomposition", fit)
    res = measures.fs_certificate(DensityMatrix(2, 3, np.eye(9) / 9))
    assert (res.verdict, res.route, res.detail) == (measures.UNKNOWN, "none", {})


@pytest.mark.parametrize("n,noise", [(3, 0.6), (3, 0.8), (4, 0.95)])
def test_noisy_product_mixtures_certified_by_the_fit_pass_its_ball_check(n, noise):
    # 2n product terms in heavy white noise, beyond near-identity's ball:
    # the fit certifies them, and `certify` checks each proof again
    rng = np.random.default_rng(n)
    vectors = [product_vector(rng, n) for _ in range(2 * n)]
    m = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(2 * n)), vectors))
    res = certify(n, mix_with_white(m, noise))
    assert (res.verdict, res.route) == (measures.CERTIFIED_FS, "decomposition-fit")
