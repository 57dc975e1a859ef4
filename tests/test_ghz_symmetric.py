from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entactic import ghz_symmetric as gs
from entactic.catalog import ghz, ghz_minus, w_state


def F(a, b=1):
    return Fraction(a, b)


def test_params_require_unit_sum():
    with pytest.raises(ValueError):
        gs.GhzSymmetricParams(F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        gs.GhzSymmetricParams(F(-1, 4), F(1, 4), F(1))


def test_weight_tolerance_at_both_edges():
    tol = Fraction(gs.WEIGHT_TOL)
    # a weight below zero by less than the tolerance is accepted
    gs.GhzSymmetricParams(-tol / 2, F(1, 2), F(1, 2) + tol / 2)
    with pytest.raises(ValueError, match="negative weight"):
        gs.GhzSymmetricParams(-2 * tol, F(1, 2), F(1, 2) + 2 * tol)
    # and so is a sum off by less than the tolerance, either way
    gs.GhzSymmetricParams(F(1, 4), F(1, 4), F(1, 2) + tol / 2)
    gs.GhzSymmetricParams(F(1, 4), F(1, 4), F(1, 2) - tol / 2)
    for off in (2 * tol, -2 * tol):
        with pytest.raises(ValueError, match="weights sum to"):
            gs.GhzSymmetricParams(F(1, 4), F(1, 4), F(1, 2) + off)


def test_params_to_density_diagonal_structure():
    rho = gs.params_to_density(gs.GhzSymmetricParams(F(1, 2), F(1, 4), F(1, 4)))
    m = rho.entries
    # middle block uniform at lambda/6, GHZ blocks carry the rest
    for i in range(1, 7):
        assert m[i, i] == pytest.approx(0.25 / 6)
    assert m[0, 0] == pytest.approx((0.5 + 0.25) / 2)
    assert m[0, 7] == pytest.approx((0.5 - 0.25) / 2)


def test_twirl_fixed_points_on_family():
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        p = gs.GhzSymmetricParams(*w)
        q = gs.twirl(gs.params_to_density(p)).as_floats()
        assert max(abs(a - b) for a, b in zip(w, q)) < 1e-12


def test_twirl_of_named_states():
    lp, lm, lr = gs.twirl(ghz(3, 2).density()).as_floats()
    assert (lp, lm) == (pytest.approx(1.0), pytest.approx(0.0))
    lp, lm, lr = gs.twirl(ghz_minus().density()).as_floats()
    assert (lp, lm) == (pytest.approx(0.0), pytest.approx(1.0))
    # W has no weight on |000> or |111>, so both GHZ overlaps vanish
    lp, lm, lr = gs.twirl(w_state().density()).as_floats()
    assert lp == pytest.approx(0.0, abs=1e-14)
    assert lm == pytest.approx(0.0, abs=1e-14)
    assert lr == pytest.approx(1.0)


def test_separability_criterion_exact():
    assert gs.is_fs_symmetric(gs.GhzSymmetricParams(F(1, 4), F(0), F(3, 4)))
    # boundary case: |l+ - l-| == l/3 exactly
    assert gs.is_fs_symmetric(gs.GhzSymmetricParams(F(1, 4), F(0), F(3, 4)))
    assert not gs.is_fs_symmetric(gs.GhzSymmetricParams(F(1, 4) + F(1, 100), F(0), F(3, 4) - F(1, 100)))
    assert not gs.is_fs_symmetric(gs.GhzSymmetricParams(F(1), F(0), F(0)))


def test_polytope_vertices():
    verts = {tuple(v.as_fractions()) for v in gs.polytope_vertices()}
    assert verts == {
        (F(0), F(0), F(1)),
        (F(0), F(1, 4), F(3, 4)),
        (F(1, 2), F(1, 2), F(0)),
        (F(1, 4), F(0), F(3, 4)),
    }
    for v in gs.polytope_vertices():
        assert gs.is_fs_symmetric(v)


# Robustness values frozen from an independent floating-point LP solve
# (scipy.optimize.linprog on the same constraint system); the rational path
# must agree to machine precision and return exact fractions.
ORACLE = [
    ((F(1), F(0), F(0)), F(2)),
    ((F(3, 5), F(1, 10), F(3, 10)), F(4, 5)),
    ((F(1, 2), F(0), F(1, 2)), F(2, 3)),
    ((F(7, 10), F(1, 5), F(1, 10)), F(14, 15)),
    ((F(7, 20), F(1, 20), F(3, 5)), F(1, 5)),
]


@pytest.mark.parametrize("target,expected", ORACLE)
def test_symmetric_robustness_against_lp_oracle(target, expected):
    s, mixer = gs.symmetric_robustness(gs.GhzSymmetricParams(*target))
    assert s == expected
    assert gs.is_fs_symmetric(mixer)


def test_symmetric_robustness_against_linprog():
    # an independent float LP over the same constraints, on mu = s * sigma:
    # mixer and mixture fully separable, all weights nonnegative, min sum(mu)
    from scipy.optimize import linprog

    rng = np.random.default_rng(17)
    for _ in range(50):
        tp, tm, tl = rng.dirichlet([0.5, 0.5, 0.5])
        dt = tp - tm
        a_ub = [[1, -1, -1 / 3], [-1, 1, -1 / 3], [1, -1, -1 / 3], [-1, 1, -1 / 3]]
        b_ub = [0, 0, tl / 3 - dt, tl / 3 + dt]
        lp = linprog([1, 1, 1], A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * 3)
        assert lp.status == 0
        s, mixer = gs.symmetric_robustness(gs.GhzSymmetricParams(tp, tm, tl))
        assert abs(float(s) - lp.fun) <= 1e-9
        if s > 0:
            assert np.allclose(mixer.as_floats(), lp.x / lp.fun, atol=1e-9)


def test_symmetric_robustness_of_ghz_is_the_unique_mixer():
    s, mixer = gs.symmetric_robustness(gs.GhzSymmetricParams(F(1), F(0), F(0)))
    assert s == 2
    assert mixer == gs.unique_fs_mixer_for_ghz()


def test_symmetric_robustness_zero_inside_polytope():
    s, _ = gs.symmetric_robustness(gs.GhzSymmetricParams(F(1, 10), F(1, 10), F(4, 5)))
    assert s == 0


def test_symmetric_robustness_mixture_lands_on_boundary():
    target = gs.GhzSymmetricParams(F(1), F(0), F(0))
    s, mixer = gs.symmetric_robustness(target)
    tp, tm, tr = target.as_fractions()
    mp, mm, mr = mixer.as_fractions()
    mix = gs.GhzSymmetricParams(
        (tp + s * mp) / (1 + s), (tm + s * mm) / (1 + s), (tr + s * mr) / (1 + s)
    )
    assert gs.is_fs_symmetric(mix)
    xp, xm, xr = mix.as_fractions()
    assert abs(xp - xm) == xr / 3  # exactly on the separability boundary


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_symmetric_robustness_certificate_property(seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet([1.0, 1.0, 1.0])
    lp = Fraction(w[0]).limit_denominator(10**6)
    lm = Fraction(w[1]).limit_denominator(10**6)
    target = gs.GhzSymmetricParams(lp, lm, 1 - lp - lm)
    s, mixer = gs.symmetric_robustness(target)
    assert s >= 0
    assert gs.is_fs_symmetric(mixer)
    tp, tm, tr = target.as_fractions()
    mp, mm, mr = mixer.as_fractions()
    mix = gs.GhzSymmetricParams(
        (tp + s * mp) / (1 + s), (tm + s * mm) / (1 + s), (tr + s * mr) / (1 + s)
    )
    assert gs.is_fs_symmetric(mix)
    if s == 0:
        assert gs.is_fs_symmetric(target)
    else:
        assert not gs.is_fs_symmetric(target)
        xp, xm, xr = mix.as_fractions()
        assert abs(xp - xm) == xr / 3  # the least s lands exactly on the boundary


def test_unique_fs_mixer_is_single_point():
    mixer = gs.unique_fs_mixer_for_ghz()
    assert tuple(mixer.as_fractions()) == (F(0), F(1, 4), F(3, 4))
