import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entactic import measures
from entactic.catalog import four_qubit_phi, ghz, w_state
from entactic.ghz_symmetric import GhzSymmetricParams, params_to_density
from entactic.linalg import Bipartition, DensityMatrix, PureState, all_bipartitions, schmidt_spectrum


def random_state(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return PureState(n, d, v / np.linalg.norm(v))


def random_product_state(n, d, seed):
    rng = np.random.default_rng(seed)
    v = np.ones(1, dtype=complex)
    for _ in range(n):
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = np.kron(v, u / np.linalg.norm(u))
    return PureState(n, d, v)


# --- geometric measures ----------------------------------------------------


def test_geometric_bs_ghz_closed_form():
    for n, d in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        res = measures.geometric_bs(ghz(n, d))
        assert res.value == pytest.approx((d - 1) / d, abs=1e-12)


def test_geometric_bs_w_state():
    # top Schmidt value across any 1|2 cut of W is 2/3
    assert measures.geometric_bs(w_state()).value == pytest.approx(1 / 3, abs=1e-12)


def test_geometric_bs_certificate_is_consistent():
    psi = random_state(3, 2, 17)
    res = measures.geometric_bs(psi)
    cut = res.certificate
    assert isinstance(cut, Bipartition)
    top = schmidt_spectrum(psi, cut).values[0]
    assert res.value == pytest.approx(1 - top, abs=1e-14)


def test_geometric_bs_zero_on_product():
    assert measures.geometric_bs(random_product_state(3, 2, 5)).value < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_geometric_fs_equals_geometric_bs_for_two_parties(d):
    # for two parties product and biseparable states coincide
    for seed in range(5):
        psi = random_state(2, d, 100 * d + seed)
        gfs = measures.geometric_fs(psi, measures.OptimizerOptions(seed=seed)).value
        assert gfs == pytest.approx(measures.geometric_bs(psi).value, abs=1e-10)


def test_maximize_over_products_best_restart_fields():
    res = measures.maximize_over_products(
        w_state().amplitudes[None], [1.0], 3, 2, measures.OptimizerOptions(seed=3)
    )
    assert res.value == pytest.approx(4 / 9, abs=1e-9)
    assert res.converged and 1 <= res.iterations <= 500
    prod = PureState(3, 2, np.kron(np.kron(*res.certificate[:2]), res.certificate[2]))
    assert abs(prod.overlap(w_state())) ** 2 == pytest.approx(res.value, abs=1e-12)


def test_geometric_fs_fixtures():
    opts = measures.OptimizerOptions(seed=7)
    assert measures.geometric_fs(ghz(3, 2), opts).value == pytest.approx(0.5, abs=1e-6)
    assert measures.geometric_fs(w_state(), opts).value == pytest.approx(5 / 9, abs=1e-6)


def test_geometric_fs_zero_on_product():
    res = measures.geometric_fs(random_product_state(3, 2, 1))
    assert res.value < 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_geometric_bs_below_fs(seed):
    psi = random_state(3, 2, seed)
    gbs = measures.geometric_bs(psi).value
    gfs = measures.geometric_fs(psi, measures.OptimizerOptions(restarts=8, seed=seed)).value
    assert gbs <= gfs + 1e-6


@pytest.mark.parametrize("seed", [3, 19])
def test_geometric_fs_local_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(3, 2, seed)
    us = []
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        us.append(q)
    u = np.kron(np.kron(us[0], us[1]), us[2])
    rotated = PureState(3, 2, u @ psi.amplitudes)
    opts = measures.OptimizerOptions(seed=seed)
    a = measures.geometric_fs(psi, opts).value
    b = measures.geometric_fs(rotated, opts).value
    assert abs(a - b) < 2e-6


def test_geometric_fs_deterministic_for_fixed_seed():
    psi = random_state(3, 2, 23)
    opts = measures.OptimizerOptions(seed=11)
    assert measures.geometric_fs(psi, opts).value == measures.geometric_fs(psi, opts).value


# --- robustness ------------------------------------------------------------


def test_robustness_bipartite_pure_bell():
    bell = ghz(2, 2)
    assert measures.robustness_bipartite_pure(bell, Bipartition(2, frozenset({1}))) == pytest.approx(1.0, abs=1e-12)


def test_robustness_bipartite_pure_vanishes_on_product():
    psi = random_product_state(2, 3, 2)
    assert measures.robustness_bipartite_pure(psi, Bipartition(2, frozenset({1}))) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_robustness_bipartite_pure_nonnegative(seed):
    psi = random_state(2, 3, seed)
    r = measures.robustness_bipartite_pure(psi, Bipartition(2, frozenset({1})))
    assert r >= -1e-12


def test_robustness_bs_upper_ghz_grid():
    for n, d in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        assert measures.robustness_bs_upper(ghz(n, d)).value == pytest.approx(d - 1, abs=1e-12)


def test_robustness_bs_upper_w_state():
    # (sum of sqrt of {2/3, 1/3})^2 - 1 across the best cut
    expected = (math.sqrt(2 / 3) + math.sqrt(1 / 3)) ** 2 - 1
    assert measures.robustness_bs_upper(w_state()).value == pytest.approx(expected, abs=1e-12)


def test_cut_measures_reject_one_party_states():
    psi = PureState(1, 2, np.array([1.0, 0.0]))
    for measure in (measures.geometric_bs, measures.robustness_bs_upper):
        with pytest.raises(ValueError, match="at least 2 parties"):
            measure(psi)


# --- diagonal family and its certified points ------------------------------


def test_diag_family_state_structure():
    rho = measures.diag_family_state(0.25, 0.25, 0.25, 0.25)
    m = rho.entries
    assert m[0, 0] == pytest.approx(0.25)
    assert m[7, 7] == pytest.approx(0.25)
    assert abs(np.trace(m) - 1.0) < 1e-12


def test_w_mixer_and_boundary_weights():
    tau = measures.w_robustness_mixer()
    eta = measures.w_robustness_boundary()
    w_rho = w_state().density()
    # eta = (W + 2 tau) / 3 entrywise
    mix = (w_rho.entries + 2.0 * tau.entries) / 3.0
    assert np.max(np.abs(mix - eta.entries)) < 1e-12


def test_mixer_and_boundary_are_ppt_across_all_cuts():
    for rho in (measures.w_robustness_mixer(), measures.w_robustness_boundary()):
        assert measures.ppt_all_cuts_min_eigenvalue(rho) >= -1e-10


# --- separability certification --------------------------------------------


def test_fs_certificate_symmetric_family_routes():
    inside = params_to_density(GhzSymmetricParams(0.1, 0.1, 0.8))
    res = measures.fs_certificate(inside)
    assert res.verdict == "certified_fs"
    assert res.route == "ghz-symmetric-polytope"
    outside = params_to_density(GhzSymmetricParams(0.9, 0.0, 0.1))
    assert measures.fs_certificate(outside).verdict == "certified_not_fs"


def test_fs_certificate_npt_cut():
    bell = ghz(2, 2)
    rho = DensityMatrix(3, 2, np.kron(bell.density().entries, np.diag([1.0, 0.0])))
    res = measures.fs_certificate(rho)
    assert res.verdict == "certified_not_fs"
    assert res.route == "npt-cut"


def test_fs_certificate_symmetric_ppt_route():
    res = measures.fs_certificate(measures.w_robustness_boundary())
    assert res.verdict == "certified_fs"
    assert res.route == "symmetric-ppt"
    res = measures.fs_certificate(measures.w_robustness_mixer())
    assert res.verdict == "certified_fs"
    # every member of the diagonal {000, 111, W, Wbar} family is permutation
    # symmetric, so the NPT and symmetric-PPT routes decide all of them
    rng = np.random.default_rng(11)
    for weights in rng.dirichlet(np.ones(4), size=40):
        res = measures.fs_certificate(measures.diag_family_state(*weights))
        assert (res.verdict, res.route) in {
            ("certified_fs", "symmetric-ppt"),
            ("certified_not_fs", "npt-cut"),
        }


def test_fs_certificate_unknown_is_a_value():
    # a GME-entangled state that no certified route rejects lands on unknown
    rng = np.random.default_rng(2)
    # full-rank mixed state built from random pure states; typically NPT
    psi = random_state(3, 2, 8)
    rho = 0.97 * psi.density().entries + 0.03 * np.eye(8) / 8
    res = measures.fs_certificate(DensityMatrix(3, 2, rho))
    assert res.verdict in ("certified_not_fs", "unknown")


def test_certificate_routes_never_contradict():
    fixtures = [
        params_to_density(GhzSymmetricParams(0.1, 0.1, 0.8)),
        params_to_density(GhzSymmetricParams(0.9, 0.0, 0.1)),
        measures.w_robustness_mixer(),
        measures.w_robustness_boundary(),
        ghz(3, 2).density(),
        w_state().density(),
    ]
    for rho in fixtures:
        verdicts = set()
        for seed in (0, 1):
            res = measures.fs_certificate(rho, measures.FsCertifierOptions(seed=seed))
            verdicts.add(res.verdict)
        assert not ({"certified_fs", "certified_not_fs"} <= verdicts)


# --- robustness upper bounds via certified mixing ---------------------------


def test_robustness_fs_upper_w_state():
    s = measures.robustness_fs_upper_via_mix(w_state().density(), measures.w_robustness_mixer())
    assert s == pytest.approx(2.0, abs=1e-6)


def test_robustness_fs_upper_ghz_symmetric_mixer():
    mixer = params_to_density(GhzSymmetricParams(0.0, 0.25, 0.75))
    s = measures.robustness_fs_upper_via_mix(ghz(3, 2).density(), mixer)
    assert s == pytest.approx(2.0, abs=1e-6)


def test_robustness_fs_upper_zero_for_free_state():
    rho = params_to_density(GhzSymmetricParams(0.1, 0.1, 0.8))
    mixer = params_to_density(GhzSymmetricParams(0.0, 0.25, 0.75))
    assert measures.robustness_fs_upper_via_mix(rho, mixer) == pytest.approx(0.0, abs=1e-6)


def test_robustness_fs_upper_rejects_uncertified_mixer():
    with pytest.raises(ValueError):
        measures.robustness_fs_upper_via_mix(w_state().density(), ghz(3, 2).density())


def test_robustness_fs_upper_cap_error():
    # a mixer that can never wash out GHZ within the default cap
    mixer = params_to_density(GhzSymmetricParams(0.0, 0.25, 0.75))
    with pytest.raises(measures.RobustnessCapError):
        measures.robustness_fs_upper_via_mix(ghz(3, 2).density(), mixer, s_max=1.0)
