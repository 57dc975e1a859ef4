import math
from fractions import Fraction

import numpy as np
import pytest

from entactic import measures, witnesses
from entactic.catalog import ghz, ghz_minus, w_bar, w_state
from entactic.ghz_symmetric import GhzSymmetricParams, polytope_vertices
from entactic.linalg import NORM_TOL, PureState, ShapeError


def test_witness_operator_must_be_hermitian():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        witnesses.Witness(m, name="bad", n=3, d=2)


@pytest.mark.parametrize("factor, ok", [(0.5, True), (2.0, False)])
def test_witness_hermiticity_tolerance_edges(factor, ok):
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = factor * NORM_TOL
    if ok:
        assert witnesses.Witness(m, name="near", n=3, d=2).operator[0, 1] == m[0, 1]
    else:
        with pytest.raises(ValueError, match="Hermitian"):
            witnesses.Witness(m, name="bad", n=3, d=2)


@pytest.mark.parametrize("op", [np.eye(4), np.zeros((8, 4)), np.zeros(8), np.eye(16)])
def test_witness_operator_must_be_d_to_the_n_square(op):
    with pytest.raises(ShapeError, match="needs a 8x8 operator") as exc:
        witnesses.Witness(op, "x", n=3, d=2)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_witness_operator_must_be_finite(bad):
    # nan > tol is False, so the Hermiticity check alone let a NaN through
    m = np.eye(8, dtype=complex)
    m[3, 3] = bad
    with pytest.raises(ValueError, match="non-finite") as exc:
        witnesses.Witness(m, "x", n=3, d=2)
    assert "\n" not in str(exc.value)


def test_shipped_witnesses_are_built_once():
    for make in (witnesses.ghz_robustness_witness, witnesses.w_robustness_witness):
        assert make() is make()
        assert not make().operator.flags.writeable


def test_ghz_witness_detects_ghz():
    w = witnesses.ghz_robustness_witness()
    assert w.expectation(ghz(3, 2).density()) == pytest.approx(-2.0, abs=1e-12)


def test_ghz_witness_vertex_values():
    # exact values at the four separability-polytope vertices: 2/3, 1, 0, 0
    vals = sorted(
        witnesses.ghz_witness_value_symmetric(v) for v in polytope_vertices()
    )
    assert vals == [Fraction(0), Fraction(0), Fraction(2, 3), Fraction(1)]


def test_ghz_witness_verified_range_from_vertices():
    w = witnesses.ghz_robustness_witness()
    assert w.verified_range == (0.0, 1.0)


def test_ghz_witness_value_on_ghz_minus():
    w = witnesses.ghz_robustness_witness()
    assert w.expectation(ghz_minus().density()) == pytest.approx(2.0, abs=1e-12)


def test_w_witness_detects_w():
    a = witnesses.w_robustness_witness()
    assert a.expectation(w_state().density()) == pytest.approx(-2.0, abs=1e-12)
    assert a.expectation(w_bar().density()) == pytest.approx(3.0, abs=1e-12)


def test_w_witness_diag_values_exact():
    assert witnesses.w_witness_value_diag(1, 0, 0, 0) == 1
    assert witnesses.w_witness_value_diag(0, 1, 0, 0) == 0
    assert witnesses.w_witness_value_diag(0, 0, 1, 0) == -2
    assert witnesses.w_witness_value_diag(0, 0, 0, 1) == 3


def test_exact_dual_bounds():
    ghz_params = GhzSymmetricParams(Fraction(1), Fraction(0), Fraction(0))
    assert -witnesses.ghz_witness_value_symmetric(ghz_params) == 2
    assert witnesses.w_robustness_lower_exact() == 2


def test_symmetric_triform_closed_form():
    for alpha in np.linspace(0.0, math.pi / 2, 64):
        for beta in np.linspace(0.0, 2 * math.pi, 8):
            val = witnesses.symmetric_triform_value(float(alpha), float(beta))
            assert val == pytest.approx(0.5 * math.cos(6 * alpha), abs=1e-10)


def test_witness_range_over_fs_stays_in_unit_interval():
    for w in (witnesses.ghz_robustness_witness(), witnesses.w_robustness_witness()):
        lo, hi, arg_lo, arg_hi = witnesses.witness_range_over_fs(w, seed=5)
        assert lo >= -1e-6
        assert hi <= 1.0 + 1e-6
        # the reported extremizers reproduce the reported extrema
        assert w.expectation(arg_lo.density()) == pytest.approx(lo, abs=1e-8)
        assert w.expectation(arg_hi.density()) == pytest.approx(hi, abs=1e-8)


def test_expectation_rejects_a_state_of_another_shape():
    with pytest.raises(ShapeError, match="n=3, d=2.*n=2, d=2"):
        witnesses.w_robustness_witness().expectation(ghz(2, 2).density())


def test_projector_witness_maximum_matches_geometric_fs():
    # max over products of <prod|psi><psi|prod> is 1 - G_FS(psi)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = PureState(3, 2, v / np.linalg.norm(v))
        w = witnesses.Witness(np.outer(psi.amplitudes, psi.amplitudes.conj()), "proj", 3, 2)
        _, hi, _, _ = witnesses.witness_range_over_fs(w, seed)
        assert hi == pytest.approx(1 - measures.geometric_fs(psi, seed).value, abs=1e-9)


def test_witness_sandwich_on_random_product_states():
    rng = np.random.default_rng(4)
    ops = [witnesses.ghz_robustness_witness(), witnesses.w_robustness_witness()]
    for _ in range(200):
        v = np.ones(1, dtype=complex)
        for _ in range(3):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = np.kron(v, u / np.linalg.norm(u))
        rho = PureState(3, 2, v).density()
        for w in ops:
            val = w.expectation(rho)
            assert -1e-10 <= val <= 1.0 + 1e-10


def test_robustness_lower_from_witness():
    w = witnesses.ghz_robustness_witness()
    assert witnesses.robustness_lower_from_witness(ghz(3, 2).density(), w) == pytest.approx(2.0, abs=1e-12)
    # clipped at zero for states the witness does not detect
    assert witnesses.robustness_lower_from_witness(ghz_minus().density(), w) == 0.0


def test_robustness_lower_rejects_unverified_witness():
    w = witnesses.Witness(np.eye(8) * 2.0, name="too-big", n=3, d=2, verified_range=(0.0, 2.0))
    with pytest.raises(ValueError):
        witnesses.robustness_lower_from_witness(ghz(3, 2).density(), w)
    w2 = witnesses.Witness(np.eye(8), name="unverified", n=3, d=2)
    with pytest.raises(ValueError):
        witnesses.robustness_lower_from_witness(ghz(3, 2).density(), w2)


@pytest.mark.parametrize("factor,admitted", [(0.5, True), (2.0, False)])
def test_admission_tolerance_edges(factor, admitted):
    excess = factor * witnesses.ADMISSION_TOL
    wit = witnesses.w_robustness_witness()
    for bounds in [(-excess, 1.0), (0.0, 1.0 + excess)]:
        w = witnesses.Witness(wit.operator, name="edge", n=3, d=2, verified_range=bounds)
        if admitted:
            assert witnesses.robustness_lower_from_witness(w_state().density(), w) == pytest.approx(2.0)
        else:
            with pytest.raises(ValueError, match="not within"):
                witnesses.robustness_lower_from_witness(w_state().density(), w)


def test_dual_bound_meets_primal_for_ghz_and_w():
    # lower bound from the witness equals the certified upper bound: value pinned
    w_lower = witnesses.robustness_lower_from_witness(
        w_state().density(), witnesses.w_robustness_witness()
    )
    w_upper = measures.robustness_fs_upper_via_mix(
        w_state().density(), measures.w_robustness_mixer()
    )
    assert w_lower == pytest.approx(2.0, abs=1e-12)
    assert w_upper == pytest.approx(2.0, abs=1e-6)
