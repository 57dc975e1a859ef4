from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entactic import ghz_symmetric as gs
from entactic.catalog import ghz, ghz_minus, w_state
from entactic.linalg import NORM_TOL, PSD_TOL


def F(a, b=1):
    return Fraction(a, b)


def test_params_require_unit_sum():
    with pytest.raises(ValueError):
        gs.GhzSymmetricParams(F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        gs.GhzSymmetricParams(F(-1, 4), F(1, 4), F(1))


def test_weight_tolerance_at_both_edges():
    # a weight below zero by less than PSD_TOL is accepted
    below = Fraction(PSD_TOL)
    gs.GhzSymmetricParams(-below / 2, F(1, 2), F(1, 2) + below / 2)
    with pytest.raises(ValueError, match="negative weight"):
        gs.GhzSymmetricParams(-2 * below, F(1, 2), F(1, 2) + 2 * below)
    # and so is a sum off by less than NORM_TOL, either way
    tol = Fraction(NORM_TOL)
    gs.GhzSymmetricParams(F(1, 4), F(1, 4), F(1, 2) + tol / 2)
    gs.GhzSymmetricParams(F(1, 4), F(1, 4), F(1, 2) - tol / 2)
    for off in (2 * tol, -2 * tol):
        with pytest.raises(ValueError, match="weights sum to"):
            gs.GhzSymmetricParams(F(1, 4), F(1, 4), F(1, 2) + off)
    # the middle weight l is six eigenvalues l/6, so its edge is -6 PSD_TOL:
    # l = -3 PSD_TOL is accepted and l = -9 PSD_TOL refused
    gs.GhzSymmetricParams(F(1, 2) + 3 * below, F(1, 2), -3 * below)
    with pytest.raises(ValueError, match="negative weight"):
        gs.GhzSymmetricParams(F(1, 2) + 9 * below, F(1, 2), -9 * below)


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
        q = gs.twirl(gs.params_to_density(p))
        assert max(abs(a - b) for a, b in zip(w, q)) < 1e-12


def reference_twirl(rho):
    """The two GHZ-basis overlaps clamped at 0 and the middle weight by
    normalization, read back through a checked GhzSymmetricParams."""
    g, gm = ghz(3, 2).amplitudes, ghz_minus().amplitudes
    lp = max(float(np.real(g.conj() @ rho.entries @ g)), 0.0)
    lm = max(float(np.real(gm.conj() @ rho.entries @ gm)), 0.0)
    return gs.GhzSymmetricParams(lp, lm, 1.0 - lp - lm).as_floats()


def test_twirl_returns_the_checked_weights_as_floats():
    # GHZ, GHZ-, W and AC6's 100 Dirichlet points
    rng = np.random.default_rng(606)
    family = [gs.params_to_density(gs.GhzSymmetricParams(*rng.dirichlet([1.0, 1.0, 1.0])))
              for _ in range(100)]
    for rho in [ghz(3, 2).density(), ghz_minus().density(), w_state().density(), *family]:
        weights = gs.twirl(rho)
        assert type(weights) is tuple and [type(x) for x in weights] == [float] * 3
        assert weights == reference_twirl(rho)


def test_twirl_of_named_states():
    lp, lm, lr = gs.twirl(ghz(3, 2).density())
    assert (lp, lm) == (pytest.approx(1.0), pytest.approx(0.0))
    lp, lm, lr = gs.twirl(ghz_minus().density())
    assert (lp, lm) == (pytest.approx(0.0), pytest.approx(1.0))
    # W has no weight on |000> or |111>, so both GHZ overlaps vanish
    lp, lm, lr = gs.twirl(w_state().density())
    assert lp == pytest.approx(0.0, abs=1e-14)
    assert lm == pytest.approx(0.0, abs=1e-14)
    assert lr == pytest.approx(1.0)


def fs(p):
    """Membership in the fully separable polytope: zero restricted robustness."""
    return gs.symmetric_robustness(p)[0] == 0


def test_separability_criterion_exact():
    assert fs(gs.GhzSymmetricParams(F(1, 10), F(1, 10), F(4, 5)))
    # boundary case: |l+ - l-| == l/3 exactly
    assert fs(gs.GhzSymmetricParams(F(1, 4), F(0), F(3, 4)))
    assert not fs(gs.GhzSymmetricParams(F(1, 4) + F(1, 100), F(0), F(3, 4) - F(1, 100)))
    assert not fs(gs.GhzSymmetricParams(F(1), F(0), F(0)))


def test_separability_rows_give_the_homogeneous_criterion():
    # s == 0 is |l+ - l-| <= l/3 exactly, and s > 2 tol (the polytope
    # route's NOT_FS test) is |l+ - l-| > l/3 + tol exactly, also for
    # weights that sum to 1 only within NORM_TOL
    rng = np.random.default_rng(5)
    off = Fraction(NORM_TOL) / 2
    for _ in range(300):
        lp, lm = (F(int(x), 997) for x in rng.integers(0, 499, size=2))
        for lr in (1 - lp - lm, 1 - lp - lm + off, 1 - lp - lm - off):
            p = gs.GhzSymmetricParams(lp, lm, lr)
            s = gs.symmetric_robustness(p)[0]
            assert (s == 0) is (abs(lp - lm) <= lr / 3)
            for tol in (1e-9, abs(float(abs(lp - lm) - lr / 3))):
                assert (s > 2 * Fraction(tol)) is (abs(lp - lm) > lr / 3 + Fraction(tol))


def test_symmetric_robustness_mixers_are_polytope_vertices():
    verts = gs.polytope_vertices()
    for target in ((F(1), F(0), F(0)), (F(0), F(1), F(0))):
        _, mixer = gs.symmetric_robustness(gs.GhzSymmetricParams(*target))
        assert mixer in verts
        lp, lm, lr = mixer.as_fractions()
        # zero weight on the target's heavier GHZ projector, on the boundary
        assert (lp if target[0] else lm) == 0
        assert abs(lp - lm) == lr / 3


def test_polytope_vertices():
    verts = {tuple(v.as_fractions()) for v in gs.polytope_vertices()}
    assert verts == {
        (F(0), F(0), F(1)),
        (F(0), F(1, 4), F(3, 4)),
        (F(1, 2), F(1, 2), F(0)),
        (F(1, 4), F(0), F(3, 4)),
    }
    for v in gs.polytope_vertices():
        assert fs(v)


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
    assert fs(mixer)


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
    # on the boundary too, where the target is its own mixer
    target = gs.GhzSymmetricParams(F(1, 4), F(0), F(3, 4))
    assert gs.symmetric_robustness(target) == (0, target)


def test_symmetric_robustness_mixture_lands_on_boundary():
    target = gs.GhzSymmetricParams(F(1), F(0), F(0))
    s, mixer = gs.symmetric_robustness(target)
    tp, tm, tr = target.as_fractions()
    mp, mm, mr = mixer.as_fractions()
    mix = gs.GhzSymmetricParams(
        (tp + s * mp) / (1 + s), (tm + s * mm) / (1 + s), (tr + s * mr) / (1 + s)
    )
    assert fs(mix)
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
    assert fs(mixer)
    tp, tm, tr = target.as_fractions()
    mp, mm, mr = mixer.as_fractions()
    mix = gs.GhzSymmetricParams(
        (tp + s * mp) / (1 + s), (tm + s * mm) / (1 + s), (tr + s * mr) / (1 + s)
    )
    assert fs(mix)
    if s == 0:
        assert fs(target)
    else:
        assert not fs(target)
        xp, xm, xr = mix.as_fractions()
        assert abs(xp - xm) == xr / 3  # the least s lands exactly on the boundary


def test_unique_fs_mixer_is_single_point():
    mixer = gs.unique_fs_mixer_for_ghz()
    assert tuple(mixer.as_fractions()) == (F(0), F(1, 4), F(3, 4))


# --- exact vertex enumeration -------------------------------------------------


def _solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    k = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][k] for r in range(k)]


def general_lp_vertices(constraints):
    """The vertex enumeration for any number of variables: every square
    subsystem solved by elimination, feasible solutions kept once."""
    dim = len(constraints[0][0])
    verts = []
    for combo in combinations(range(len(constraints)), dim):
        x = _solve_square([constraints[i][0] for i in combo], [constraints[i][1] for i in combo])
        if x is None:
            continue
        if all(sum(a * xi for a, xi in zip(av, x)) <= b for av, b in constraints):
            if x not in verts:
                verts.append(x)
    return verts


def random_system(rng):
    """A random rational polygon in two variables about the origin: a box,
    random rows, a row parallel to one of them, one row written twice at two
    scales, and a row through a vertex, so that three lines meet there."""
    def frac(low):
        return F(int(rng.integers(low, 7)), int(rng.integers(1, 4)))

    rows = [((F(1), F(0)), F(5)), ((F(-1), F(0)), F(5)), ((F(0), F(1)), F(5)), ((F(0), F(-1)), F(5))]
    rows += [((frac(-6), frac(-6)), frac(1)) for _ in range(int(rng.integers(2, 6)))]
    (a1, a2), b = rows[4]
    scale = F(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    rows.append(((scale * a1, scale * a2), frac(1)))
    rows.append(((scale * a1, scale * a2), scale * b))
    verts = general_lp_vertices(rows)
    x = verts[int(rng.integers(len(verts)))]
    c = (frac(-6), frac(-6))
    rows.append((c, c[0] * x[0] + c[1] * x[1]))
    return [rows[i] for i in rng.permutation(len(rows))]


@pytest.mark.parametrize("seed", range(60))
def test_lp_vertices_match_general_elimination(seed):
    rows = random_system(np.random.default_rng(seed))
    got = gs._lp_vertices(rows)
    assert len(set(got)) == len(got)  # a point where three lines meet comes once
    assert set(got) == {tuple(x) for x in general_lp_vertices(rows)}


def test_unique_fs_mixer_refuses_a_region_that_is_not_one_point(monkeypatch):
    # the mixture row (GHZ + 2 sigma)/3 must meet l+ - l- <= l/3; without it
    # the region is the whole polytope, with four vertices
    binding = ((F(8, 9), F(-4, 9)), F(-1, 9))
    enumerate_vertices = gs._lp_vertices

    def without_binding_row(rows):
        assert binding in rows
        return enumerate_vertices([r for r in rows if r != binding])

    monkeypatch.setattr(gs, "_lp_vertices", without_binding_row)
    with pytest.raises(RuntimeError, match="feasible set is not a single point"):
        gs.unique_fs_mixer_for_ghz()
