import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entactic import linalg, measures, witnesses
from entactic.catalog import cluster_state, four_qubit_phi, ghz, ghz_minus, w_bar, w_state
from entactic.ghz_symmetric import GhzSymmetricParams, params_to_density
from entactic.linalg import (
    NORM_TOL,
    PSD_TOL,
    Bipartition,
    DensityMatrix,
    PureState,
    all_bipartitions,
    eigenvalue_slack,
    haar_vector_draws,
    kron_vectors,
    min_pt_eigenvalue,
    npt_cut,
    ppt_threshold,
    schmidt_spectrum,
)


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
    top = schmidt_spectrum(psi, cut)[0]
    assert res.value == pytest.approx(1 - top, abs=1e-14)


def test_geometric_bs_zero_on_product():
    assert measures.geometric_bs(random_product_state(3, 2, 5)).value < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_geometric_fs_equals_geometric_bs_for_two_parties(d):
    # for two parties product and biseparable states coincide
    for seed in range(5):
        psi = random_state(2, d, 100 * d + seed)
        gfs = measures.geometric_fs(psi, seed).value
        assert gfs == pytest.approx(measures.geometric_bs(psi).value, abs=1e-10)


def test_maximize_over_products_best_restart_fields():
    res = measures.maximize_over_products(
        w_state().amplitudes[None], [1.0], 3, 2, seed=3
    )
    assert res.value == pytest.approx(4 / 9, abs=1e-9)
    assert res.converged and 1 <= res.iterations <= measures.MAX_SWEEPS
    prod = PureState(3, 2, np.kron(np.kron(*res.certificate[:2]), res.certificate[2]))
    assert abs(np.vdot(prod.amplitudes, w_state().amplitudes)) ** 2 == pytest.approx(res.value, abs=1e-12)


@pytest.mark.parametrize("factor,frozen", [(0.5, True), (2.0, False)])
def test_sweep_tolerance_edges(monkeypatch, factor, frozen):
    # a product target is reached in the first sweep; every eigenvalue the
    # k-th sweep's updates return is then lifted by (k - 1) factor SWEEP_TOL,
    # so each later sweep gains factor SWEEP_TOL, up to rounding
    n, eigh, calls = 2, np.linalg.eigh, []

    def lifted(m):
        lam, vec = eigh(m)
        calls.append(m)
        return lam + (len(calls) - 1) // n * factor * measures.SWEEP_TOL, vec

    monkeypatch.setattr(np.linalg, "eigh", lifted)
    target = kron_vectors([np.array([1.0, 0.0]), np.array([0.6, 0.8])])
    res = measures.maximize_over_products(target[None], [1.0], n, 2)
    if frozen:
        # every restart is frozen after its second sweep
        assert (res.iterations, res.converged) == (2, True)
        assert len(calls) == 2 * n
    else:
        assert (res.iterations, res.converged) == (measures.MAX_SWEEPS, False)


def test_stacked_rows_freeze_apart(monkeypatch):
    # test_sweep_tolerance_edges with both cases as rows of one call: the
    # product target is weighted 1 in row 0 and 2 in row 1, and each sweep
    # lifts a top eigenvalue near 1 by 0.5 SWEEP_TOL and one near 2 by
    # 2 SWEEP_TOL, so row 0 freezes after sweep 2 and row 1 runs on
    n, eigh, calls = 2, np.linalg.eigh, []

    def lifted(m):
        lam, vec = eigh(m)
        calls.append(len(m))
        factor = np.where(lam[:, -1] > 1.5, 2.0, 0.5)[:, None]
        return lam + (len(calls) - 1) // n * factor * measures.SWEEP_TOL, vec

    monkeypatch.setattr(np.linalg, "eigh", lifted)
    target = kron_vectors([np.array([1.0, 0.0]), np.array([0.6, 0.8])])
    frozen, running = measures.maximize_over_products(target[None], [[1.0], [2.0]], n, 2)
    assert (frozen.iterations, frozen.converged) == (2, True)
    assert (running.iterations, running.converged) == (measures.MAX_SWEEPS, False)
    # row 0's restarts left the batch after its second sweep
    restarts = measures.RESTARTS
    assert calls == [2 * restarts] * (2 * n) + [restarts] * (n * (measures.MAX_SWEEPS - 2))


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
def test_stacked_weight_rows_equal_separate_calls_bit_for_bit(n, d):
    rng = np.random.default_rng(10 * n + d)
    lam, vecs = np.linalg.eigh(random_hermitian(d**n, rng))
    rows = np.stack([lam, -lam, rng.normal(size=d**n)])
    stacked = measures.maximize_over_products(vecs.T, rows, n, d, seed=n + d)
    assert len(stacked) == len(rows)
    for row, res in zip(rows, stacked):
        alone = measures.maximize_over_products(vecs.T, row, n, d, seed=n + d)
        assert (res.value, res.iterations, res.converged) == (
            alone.value, alone.iterations, alone.converged
        )
        assert all(np.array_equal(u, v) for u, v in zip(res.certificate, alone.certificate))


def _restart_inputs(name):
    """(terms, weight rows, n, d) for one input of the restart test."""
    if name == "w-witness":
        w = witnesses.w_robustness_witness()
        lam, vecs = np.linalg.eigh(np.asarray(w.operator))
        return vecs.T, np.stack([lam, -lam]), w.n, w.d
    psi = {"w": w_state(), "qutrit": random_state(3, 3, 33), "haar5": random_state(5, 2, 5)}[name]
    return psi.amplitudes[None], [[1.0]], psi.n, psi.d


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["w", "qutrit", "haar5", "w-witness"])
def test_adding_a_restart_never_changes_another(monkeypatch, name, seed):
    # restart r's start point is the same for any RESTARTS, so the best of
    # k + 1 restarts is the best of k bit for bit unless restart k beats it
    terms, rows, n, d = _restart_inputs(name)
    series = []
    for k in range(1, measures.RESTARTS + 1):
        monkeypatch.setattr(measures, "RESTARTS", k)
        series.append(measures.maximize_over_products(terms, rows, n, d, seed))
    for before, after in zip(series, series[1:]):
        for old, new in zip(before, after):
            kept = (new.value, new.iterations, new.converged) == (
                old.value, old.iterations, old.converged
            ) and all(np.array_equal(u, v) for u, v in zip(new.certificate, old.certificate))
            assert kept or new.value > old.value


@pytest.mark.parametrize("n,d", [(0, 2), (1, 1)])
def test_maximize_over_products_refuses_degenerate_shapes(n, d):
    with pytest.raises(ValueError, match="n >= 1 parties of dimension d >= 2") as exc:
        measures.maximize_over_products(np.ones((1, 1)), [1.0], n, d)
    assert "\n" not in str(exc.value)


def test_maximize_over_products_accepts_one_qubit():
    # the smallest accepted shape: the maximum of |<a|x>|^2 is |a|^2
    res = measures.maximize_over_products(np.array([[0.6, 0.8j]]), [1.0], 1, 2)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.converged


@pytest.mark.parametrize(
    "weights,match",
    [
        ([1.0, 2.0], "rows of 1 entries"),
        ([[1.0], [1.0, 2.0]], None),
        ([[1.0, 2.0]], "rows of 1 entries"),
        (1.0, "rows of 1 entries"),
        ([], "rows of 1 entries"),
        ([math.nan], "finite"),
        ([[1.0], [math.inf]], "finite"),
    ],
)
def test_maximize_over_products_refuses_bad_weights(weights, match):
    target = w_state().amplitudes[None]
    with pytest.raises(ValueError, match=match) as exc:
        measures.maximize_over_products(target, weights, 3, 2)
    assert "\n" not in str(exc.value)


def test_maximize_over_products_refuses_terms_of_another_length():
    with pytest.raises(ValueError, match="length d\\^n = 8") as exc:
        measures.maximize_over_products(np.ones((1, 4)), [1.0], 3, 2)
    assert "\n" not in str(exc.value)


def test_geometric_fs_fixtures():
    assert measures.geometric_fs(ghz(3, 2), seed=7).value == pytest.approx(0.5, abs=1e-6)
    assert measures.geometric_fs(w_state(), seed=7).value == pytest.approx(5 / 9, abs=1e-6)


def test_geometric_fs_zero_on_product():
    res = measures.geometric_fs(random_product_state(3, 2, 1))
    assert res.value < 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_geometric_bs_below_fs(seed):
    psi = random_state(3, 2, seed)
    gbs = measures.geometric_bs(psi).value
    gfs = measures.geometric_fs(psi, seed).value
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
    a = measures.geometric_fs(psi, seed).value
    b = measures.geometric_fs(rotated, seed).value
    assert abs(a - b) < 2e-6


def test_geometric_fs_deterministic_for_fixed_seed():
    psi = random_state(3, 2, 23)
    assert measures.geometric_fs(psi, 11).value == measures.geometric_fs(psi, 11).value


# --- the optimizer's outputs, pinned bit for bit ---------------------------
# Recorded as float.hex with each restart's contraction summed on its own, so
# they do not depend on which other restarts share the batch.  A change to the
# restarts' draws or to the order of any floating-point step moves them, and
# `eigh` still rounds as the LAPACK build does.  Certificates list each local
# vector's real and imaginary parts.

WITNESS_RANGE_PINS = {
    ("ghz", 0): ("-0x1.efe1c714e4325p-415", "0x1.ffffffffffff5p-1"),
    ("ghz", 7): ("-0x1.231f25884c3c8p-473", "0x1.ffffffffffffcp-1"),
    ("ghz", 2024): ("-0x1.fbc715b86b326p-758", "0x1.ffffffffffffap-1"),
    ("w", 0): ("-0x1.9000000000000p-51", "0x1.0000000000004p+0"),
    ("w", 7): ("-0x1.e000000000000p-51", "0x1.0000000000004p+0"),
    ("w", 2024): ("-0x1.f000000000000p-51", "0x1.0000000000006p+0"),
}
GEOMETRIC_FS_PINS = {
    ("ghz", 0): ("0x1.ffffffffffffap-2", 5, True,
        "-0x1.bd30b3cb75b4ep-230 0x0.0p+0 -0x1.c05b2a0c88aa0p-1 0x1.ee73d1a26ab66p-2 0x1.1beb3767c86d1p-371 0x0.0p+0 -0x1.ffae6c4929fd2p-1 -0x1.20fa9fa2321cap-5 0x0.0p+0 0x0.0p+0 -0x1.c8cc53bb2be30p-1 -0x1.ce8331aa5052bp-2"),
    ("ghz", 7): ("0x1.ffffffffffffap-2", 4, True,
        "-0x1.a82d76e651fe2p-108 0x0.0p+0 -0x1.455714a998dccp-1 0x1.8b585b31be9f3p-1 0x1.525cd51bfff49p-174 0x0.0p+0 -0x1.97b22e456cb88p-2 0x1.d5ab8ab76eb48p-1 -0x1.1852ec3785ed2p-281 0x0.0p+0 -0x1.d241d7b604960p-2 0x1.c7d86e1fee24ap-1"),
    ("ghz", 2024): ("0x1.ffffffffffffcp-2", 4, True,
        "0x1.4b94bfee497e7p-118 0x0.0p+0 -0x1.bc95500f5db4cp-1 0x1.fbe58590423d0p-2 -0x1.9a65cb6728c11p-191 0x0.0p+0 -0x1.9befeee69f864p-1 0x1.300f08e75dcefp-1 0x1.09c80a43f645fp-308 0x0.0p+0 -0x1.9dc534759326cp-2 -0x1.d457165002e28p-1"),
    ("w", 0): ("0x1.1c71c71c71cc7p-1", 13, True,
        "-0x1.a20bd6e0c267bp-1 0x0.0p+0 0x1.944aaaf1b4bb0p-5 0x1.26857a135afcfp-1 -0x1.a20bda5a9d9b1p-1 0x0.0p+0 0x1.944aa4388b980p-5 0x1.2685752d83b7ap-1 -0x1.a20bd563d5819p-1 0x0.0p+0 0x1.944aadd27cf90p-5 0x1.26857c2c17ee4p-1"),
    ("w", 7): ("0x1.1c71c71c71ceep-1", 14, True,
        "-0x1.a20bd6d2a805fp-1 0x0.0p+0 -0x1.e7c6adb2b03ecp-3 -0x1.0d475594a580ap-1 -0x1.a20bdb01e9122p-1 0x0.0p+0 -0x1.e7c6a3eed3d6cp-3 -0x1.0d47503093df7p-1 -0x1.a20bd5173cf50p-1 0x0.0p+0 -0x1.e7c6b1bd74f40p-3 -0x1.0d4757cfe3879p-1"),
    ("w", 2024): ("0x1.1c71c71c71ce7p-1", 15, True,
        "-0x1.a20bd95344e79p-1 0x0.0p+0 -0x1.18c9c56a6e2d1p-1 0x1.71a22d84016e3p-3 -0x1.a20bd95a59c5ep-1 0x0.0p+0 -0x1.18c9c560eae43p-1 0x1.71a22d777b81bp-3 -0x1.a20bd4aab626fp-1 0x0.0p+0 -0x1.18c9cbac6f818p-1 0x1.71a235c0e85d2p-3"),
    ("qutrit", 0): ("0x1.2d3bd360ec19cp-1", 17, True,
        "0x1.b1bbf162f7187p-1 0x0.0p+0 0x1.ff2a18a9a6fd0p-5 -0x1.8919feaf9cbc6p-5 -0x1.0bde840778c69p-1 -0x1.94ecf37efc438p-5 0x1.f6e02bf4a4538p-2 0x0.0p+0 0x1.0bf9482fc1e00p-2 0x1.688aab522e21ep-2 -0x1.749687046ebf0p-2 0x1.514b5ccf13166p-1 0x1.122b4a6ce4d24p-2 0x0.0p+0 -0x1.a89eee0494978p-4 0x1.953af513c39ebp-2 -0x1.48ad11df89e92p-2 -0x1.9f4cfd7e0d8e5p-1"),
    ("qutrit", 7): ("0x1.2d3bd360ec1a6p-1", 19, True,
        "0x1.b1bbfa7883a2ep-1 0x0.0p+0 0x1.ff2a39139e190p-5 -0x1.89196251c8f52p-5 -0x1.0bde7667ea09ap-1 -0x1.94ecaa7d2b0c6p-5 0x1.f6e03cfd19210p-2 0x0.0p+0 0x1.0bf945725c378p-2 0x1.688ab1f115d0ep-2 -0x1.749697bc27bcbp-2 0x1.514b509e4e539p-1 0x1.122b485357dacp-2 0x0.0p+0 -0x1.a89ed65f03630p-4 0x1.953b009ac4e5ap-2 -0x1.48ad0015d2c29p-2 -0x1.9f4cfeec97406p-1"),
    ("qutrit", 2024): ("0x1.2d3bd360ec1a7p-1", 23, True,
        "0x1.b1bbfa7706bf3p-1 0x0.0p+0 0x1.ff2a3909f4520p-5 -0x1.8919626e8f7b1p-5 -0x1.0bde766a304a6p-1 -0x1.94ecaa843e581p-5 0x1.f6e03cfa50275p-2 0x0.0p+0 0x1.0bf945727d72cp-2 0x1.688ab1efc8cc8p-2 -0x1.749697b9a834bp-2 0x1.514b50a05b13ap-1 0x1.122b48537432ap-2 0x0.0p+0 -0x1.a89ed663699f0p-4 0x1.953b0098b8ef4p-2 -0x1.48ad00186d0f6p-2 -0x1.9f4cfeec7c90ap-1"),
}


@pytest.mark.parametrize("name,seed", sorted(WITNESS_RANGE_PINS))
def test_witness_range_over_fs_is_pinned(name, seed):
    make = {"ghz": witnesses.ghz_robustness_witness, "w": witnesses.w_robustness_witness}[name]
    lo, hi, _, _ = witnesses.witness_range_over_fs(make(), seed)
    assert (lo.hex(), hi.hex()) == WITNESS_RANGE_PINS[name, seed]


@pytest.mark.parametrize("name,seed", sorted(GEOMETRIC_FS_PINS))
def test_geometric_fs_is_pinned(name, seed):
    psi = {"ghz": ghz(3, 2), "w": w_state(), "qutrit": random_state(3, 3, 33)}[name]
    res = measures.geometric_fs(psi, seed)
    cert = np.concatenate(res.certificate)
    flat = " ".join(f"{x.real.hex()} {x.imag.hex()}" for x in cert)
    assert (res.value.hex(), res.iterations, res.converged, flat) == GEOMETRIC_FS_PINS[name, seed]


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


# --- cut pruning ------------------------------------------------------------


def fresh(psi):
    """The same amplitudes with nothing computed on them yet."""
    return PureState(psi.n, psi.d, psi.amplitudes)


def enumerate_cuts(psi):
    """Both cut measures by full enumeration, scored as the measures score."""
    cuts = all_bipartitions(psi.n)
    neg_l1, gbs_cut = min(
        ((-float(schmidt_spectrum(psi, c)[0]), c) for c in cuts), key=lambda t: t[0]
    )
    rbs, rbs_cut = min(
        ((measures.robustness_bipartite_pure(psi, c), c) for c in cuts), key=lambda t: t[0]
    )
    return (1.0 + neg_l1, gbs_cut), (rbs, rbs_cut)


def product_of_blocks(sizes, d, seed):
    rng = np.random.default_rng(seed)
    v = np.ones(1, dtype=complex)
    for k in sizes:
        v = np.kron(v, haar_vector_draws(rng, d**k))
    return PureState(sum(sizes), d, v)


PRUNING_INPUTS = (
    [("haar", n, 2) for n in range(4, 11)]
    + [("haar", n, 3) for n in range(4, 7)]
    + [("ghz", n, d) for n, d in [(4, 2), (7, 2), (9, 2), (4, 3), (5, 3)]]
    + [("cluster", n, 2) for n in (4, 7, 9)]
    + [("w", 3, 2), ("blocks", (3, 3), 2), ("blocks", (2, 3, 2), 2), ("blocks", (2, 3), 3)]
    # the cover plan behind the purity bounds differs by the parity of n and by d
    + [("haar", 11, 2), ("haar", 12, 2), ("cluster", 12, 2), ("haar", 7, 3)]
)


def pruning_input(kind, n, d):
    if kind == "haar":
        return random_state(n, d, 1000 * d + n)
    if kind == "ghz":
        return ghz(n, d)
    if kind == "cluster":
        return cluster_state(n)
    if kind == "w":
        return w_state()
    return product_of_blocks(n, d, sum(n))


@pytest.mark.parametrize("kind,n,d", PRUNING_INPUTS)
def test_pruned_cut_measures_match_full_enumeration_bit_for_bit(kind, n, d):
    psi = pruning_input(kind, n, d)
    (gbs, gbs_cut), (rbs, rbs_cut) = enumerate_cuts(fresh(psi))
    gres, rres = measures.geometric_bs(fresh(psi)), measures.robustness_bs_upper(fresh(psi))
    assert (gres.value, gres.certificate) == (gbs, gbs_cut)
    assert (rres.value, rres.certificate) == (rbs, rbs_cut)
    if kind == "blocks":
        # the cut between the first block and the rest wins strictly, and no
        # one-party cut can: a multi-party cut the seed cannot supply
        assert gres.value == pytest.approx(0.0, abs=1e-12)
        assert gres.certificate == Bipartition(psi.n, frozenset(range(1, n[0] + 1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(lambda v: sum(v) > 1e-6))
def test_purity_bounds_hold_on_any_spectrum(weights):
    lam = np.sort(np.array(weights) / sum(weights))[::-1]
    p, r = float(np.sum(lam**2)), len(lam)
    top = measures.top_schmidt_bound(p, r)
    # far below PRUNE_TOL: rounding in a bound never prunes a winning cut
    assert lam[0] <= top + 1e-12
    assert top <= math.sqrt(p) + 1e-12
    assert float(np.sum(np.sqrt(lam)) ** 2) - 1.0 >= 1.0 / p - 1.0 - 1e-12


def test_top_schmidt_bound_is_attained():
    # one value above r - 1 equal ones meets the bound; a flat spectrum too
    lam = np.array([0.4] + [0.2] * 3)
    assert measures.top_schmidt_bound(float(np.sum(lam**2)), 4) == pytest.approx(0.4, abs=1e-15)
    assert measures.top_schmidt_bound(0.25, 4) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("factor,pruned", [(0.5, False), (2.0, True)])
def test_prune_tolerance_edges(factor, pruned):
    # every multi-party cut's bound sits factor * PRUNE_TOL above the seed's
    # best score: within the tolerance it is scored, beyond it skipped
    psi = random_state(4, 2, 21)
    one_party = [c for c in all_bipartitions(4) if min(len(c.parties), 4 - len(c.parties)) == 1]
    best = min(measures.robustness_bipartite_pure(fresh(psi), c) for c in one_party)
    measures._best_cut(
        psi,
        measures.robustness_bipartite_pure,
        lambda p, r: best + factor * measures.PRUNE_TOL,
    )
    assert len(psi._cuts) == (4 if pruned else 7)


def count_spectrum_svds(monkeypatch):
    svd, calls = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        if not kwargs.get("compute_uv", True):
            calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_haar_10_qubits_needs_only_the_one_party_spectra(monkeypatch, seed):
    svds = count_spectrum_svds(monkeypatch)
    psi = random_state(10, 2, seed)
    measures.geometric_bs(psi)
    assert len(svds) == 10
    measures.robustness_bs_upper(psi)
    assert len(svds) == 10


def count_marginal_grams(monkeypatch):
    gram, calls = linalg._marginal_gram, []

    def spy(psi, keep):
        calls.append(tuple(keep))
        return gram(psi, keep)

    monkeypatch.setattr(linalg, "_marginal_gram", spy)
    return calls


def ghz_flipped_on_party_2(n):
    """GHZ_n with X applied to party 2: the purities and ties of GHZ on
    every cut, but not invariant under swapping parties 1 and 2."""
    t = ghz(n, 2).tensor()[:, ::-1]
    return PureState(n, 2, t.reshape(-1))


def test_ghz_stops_bounding_after_two_cuts_it_cannot_rule_out(monkeypatch):
    # every cut of GHZ with X on party 2 has purity 1/2 and ties: two bounds
    # are read, from at most two cover marginals, then the remaining cuts are
    # scored as full enumeration scores them
    grams = count_marginal_grams(monkeypatch)
    svds = count_spectrum_svds(monkeypatch)
    for n in (8, 12):
        grams.clear()
        svds.clear()
        psi = ghz_flipped_on_party_2(n)
        assert not linalg.is_permutation_invariant(psi)
        measures.geometric_bs(psi)
        assert len(grams) <= 2
        assert len(svds) == len(all_bipartitions(n))
        measures.robustness_bs_upper(psi)
        assert len(grams) <= 2
        assert len(svds) == len(all_bipartitions(n))


def test_haar_12_qubits_reads_its_purities_from_at_most_110_marginals(monkeypatch):
    grams = count_marginal_grams(monkeypatch)
    psi = random_state(12, 2, 0)
    measures.geometric_bs(psi)
    measures.robustness_bs_upper(psi)
    assert 0 < len(grams) <= 110


def dicke(n, k):
    """The n-qubit Dicke state with k excitations: the even superposition of
    the basis states of Hamming weight k."""
    v = (np.bitwise_count(np.arange(2**n)) == k).astype(complex)
    return PureState(n, 2, v / np.linalg.norm(v))


SYMMETRIC_STATES = {
    **{f"ghz-{n}-{d}": (lambda n=n, d=d: ghz(n, d)) for n in range(2, 10) for d in (2, 3)},
    "ghz-minus": ghz_minus,
    "w": w_state,
    "w-bar": w_bar,
    "dicke-6-2": lambda: dicke(6, 2),
    # its two-party marginal has top eigenvalue 2/3 and its one-party ones
    # 1/2, so G_BS is attained only by cuts with two parties on each side
    "dicke-4-2": lambda: dicke(4, 2),
}
CUT_MEASURES = [measures.geometric_bs, measures.robustness_bs_upper]


def full_enumeration(monkeypatch, measure, psi):
    """The measure on a fresh copy of psi with the symmetry check off."""
    with monkeypatch.context() as m:
        m.setattr(measures, "is_permutation_invariant", lambda psi: False)
        return measure(fresh(psi))


@pytest.mark.parametrize("measure", CUT_MEASURES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", list(SYMMETRIC_STATES))
def test_symmetric_states_score_one_cut_per_size_as_full_enumeration_does(monkeypatch, name, measure):
    psi = SYMMETRIC_STATES[name]()
    assert linalg.is_permutation_invariant(psi)
    res = measure(psi)
    assert len(psi._cuts) == psi.n - 1
    ref = full_enumeration(monkeypatch, measure, psi)
    assert (res.value, res.certificate) == (ref.value, ref.certificate)


def ghz_off_by_one_ulp():
    # GHZ's nonzero amplitudes sit on basis states every permutation fixes,
    # so the amplitude moved is the zero on |0...01>
    amps = ghz(8, 2).amplitudes.copy()
    amps[1] = np.nextafter(0.0, 1.0)
    return PureState(8, 2, amps)


def symmetric_with_negative_zero():
    amps = ghz(5, 2).amplitudes.copy()
    amps[1] = complex(-0.0, 0.0)
    return PureState(5, 2, amps)


def cyclic_not_symmetric():
    # the cyclic shifts of |0011>: invariant under the shift of all parties,
    # not under the swap of parties 1 and 2
    amps = np.zeros(16, dtype=complex)
    amps[[0b0011, 0b0110, 0b1100, 0b1001]] = 0.5
    return PureState(4, 2, amps)


@pytest.mark.parametrize("make", [ghz_off_by_one_ulp, symmetric_with_negative_zero,
                                  lambda: ghz_flipped_on_party_2(6), cyclic_not_symmetric],
                         ids=["ulp", "negative-zero", "x-on-party-2", "cyclic-only"])
def test_states_not_bitwise_symmetric_take_the_full_path(monkeypatch, make):
    grams = count_marginal_grams(monkeypatch)
    psi = make()
    assert not linalg.is_permutation_invariant(psi)
    for measure in CUT_MEASURES:
        grams.clear()
        res = measure(fresh(psi))
        assert grams
        ref = full_enumeration(monkeypatch, measure, psi)
        assert (res.value, res.certificate) == (ref.value, ref.certificate)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_ghz_runs_one_spectrum_per_cut_size_and_no_marginal(monkeypatch, n):
    grams = count_marginal_grams(monkeypatch)
    svds = count_spectrum_svds(monkeypatch)
    psi = ghz(n, 2)
    measures.geometric_bs(psi)
    measures.robustness_bs_upper(psi)
    assert len(svds) == n - 1
    assert grams == []


# --- diagonal family and its certified points ------------------------------


def test_diag_family_state_structure():
    rho = measures.diag_family_state(0.25, 0.25, 0.25, 0.25)
    m = rho.entries
    assert m[0, 0] == pytest.approx(0.25)
    assert m[7, 7] == pytest.approx(0.25)
    assert abs(np.trace(m) - 1.0) < 1e-12


@pytest.mark.parametrize("factor, ok", [(0.5, True), (2.0, False)])
def test_diag_family_state_weight_tolerance_edges(factor, ok):
    sum_off = (0.25, 0.25, 0.25, 0.25 + factor * NORM_TOL)
    below = factor * PSD_TOL
    negative = (-below, 0.5, 0.25, 0.25 + below)
    for weights in (sum_off, negative):
        if ok:
            assert measures.diag_family_state(*weights).entries[0, 0] == weights[0]
        else:
            with pytest.raises(ValueError, match="bad weight vector"):
                measures.diag_family_state(*weights)


def test_w_mixer_and_boundary_weights():
    tau = measures.w_robustness_mixer()
    eta = measures.w_robustness_boundary()
    w_rho = w_state().density()
    # eta = (W + 2 tau) / 3 entrywise
    mix = (w_rho.entries + 2.0 * tau.entries) / 3.0
    assert np.max(np.abs(mix - eta.entries)) < 1e-12


def test_mixer_and_boundary_are_ppt_across_all_cuts():
    for rho in (measures.w_robustness_mixer(), measures.w_robustness_boundary()):
        assert npt_cut(rho) is None


# --- separability certification --------------------------------------------


def test_fs_certificate_symmetric_family_routes():
    inside = params_to_density(GhzSymmetricParams(0.1, 0.1, 0.8))
    res = measures.fs_certificate(inside)
    assert (res.verdict, res.route) == ("certified_fs", "ghz-corner")
    outside = params_to_density(GhzSymmetricParams(0.9, 0.0, 0.1))
    res = measures.fs_certificate(outside)
    assert (res.verdict, res.route) == ("certified_not_fs", "ghz-corner")


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
    # each fixture's known verdict, whichever route decides it
    fixtures = [
        (params_to_density(GhzSymmetricParams(0.1, 0.1, 0.8)), measures.CERTIFIED_FS),
        (params_to_density(GhzSymmetricParams(0.9, 0.0, 0.1)), measures.CERTIFIED_NOT_FS),
        (measures.w_robustness_mixer(), measures.CERTIFIED_FS),
        (measures.w_robustness_boundary(), measures.CERTIFIED_FS),
        (ghz(3, 2).density(), measures.CERTIFIED_NOT_FS),
        (w_state().density(), measures.CERTIFIED_NOT_FS),
    ]
    for rho, verdict in fixtures:
        assert measures.fs_certificate(rho).verdict == verdict


def product_mixture(n, terms, noise, seed):
    rng = np.random.default_rng(seed)
    m = np.zeros((2**n, 2**n), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        v = kron_vectors(haar_vector_draws(rng, 2, (n,)))
        m += w * np.outer(v, v.conj())
    return DensityMatrix(n, 2, (1 - noise) * m + noise * np.eye(2**n) / 2**n)


def reaches_the_fit():
    """|0+><0+|, |00><00| with a Hadamard on the last qubit, in exact
    entries: its coherence |00><01| lies off the GHZ corner, and its partial
    transpose has the eigenvalue 0, below the rounding slack, so no route
    before the fit decides it."""
    return DensityMatrix(2, 2, np.kron(np.diag([1.0, 0.0]), np.full((2, 2), 0.5)))


def test_decomposition_fit_is_pinned():
    # A change to the fit's rng order (FIT_SEED, the draw sequence) moves
    # these numbers.  The 2-qubit input is certified by the two-qubit-ppt
    # route before the fit, so the fit is called on it directly.
    rho = product_mixture(2, 4, 0.0, seed=2)
    assert measures.fs_certificate(rho).route == "two-qubit-ppt"
    res, terms = measures._fit_product_decomposition(rho)
    assert len(terms) == 16
    # an exact 16-term fit: the residual is rounding noise, not a figure
    assert res < 1e-15
    # this input passes every earlier route and reaches the fit
    res = measures.fs_certificate(product_mixture(3, 6, 0.1, seed=3))
    assert (res.verdict, res.route) == (measures.UNKNOWN, "none")
    assert res.detail["fit_residual"] == pytest.approx(0.0014989839326515649, rel=1e-6)


def test_certified_fits_report_the_frobenius_distance():
    # the certified fits of this module: the pinned input above and |00><00|
    # at the NPT route's tolerance edge
    for rho in (product_mixture(2, 4, 0.0, seed=2), DensityMatrix(2, 2, np.diag([1.0, 0, 0, 0]))):
        res, terms = measures._fit_product_decomposition(rho)
        sigma = sum(p * np.outer(v, v.conj()) for p, v in terms)
        assert res < measures.FIT_TOL
        assert np.linalg.norm(rho.entries - sigma) == pytest.approx(res, abs=1e-12)


def fake_nnls(monkeypatch, weights, residual):
    """Patch scipy's NNLS to return `weights` (then zeros) and `residual`,
    recording each matrix the fit passes it."""
    import scipy.optimize

    calls = []

    def nnls(a, b):
        calls.append(a)
        x = np.zeros(a.shape[1])
        x[: len(weights)] = weights
        return x, residual

    monkeypatch.setattr(scipy.optimize, "nnls", nnls)
    return calls


@pytest.mark.parametrize("factor,certified", [(0.5, True), (2.0, False)])
def test_fit_tolerance_edges(monkeypatch, factor, certified):
    calls = fake_nnls(monkeypatch, [1.0], factor * measures.FIT_TOL)
    res = measures.fs_certificate(reaches_the_fit())
    if certified:
        assert (res.verdict, res.route, len(calls)) == (measures.CERTIFIED_FS, "decomposition-fit", 1)
        assert res.detail == {"residual": factor * measures.FIT_TOL, "terms": 1}
    else:
        assert (res.verdict, res.route, len(calls)) == (measures.UNKNOWN, "none", measures.FIT_ROUNDS)


@pytest.mark.parametrize("factor,counted", [(0.5, False), (2.0, True)])
def test_fit_weight_floor_edges(monkeypatch, factor, counted):
    rho = reaches_the_fit()
    floor = measures.FIT_WEIGHT_FLOOR
    # reported: a certified fit counts only the terms above the floor
    fake_nnls(monkeypatch, [1.0, factor * floor], 0.0)
    assert measures.fs_certificate(rho).detail["terms"] == 1 + counted
    # kept: the next round's dictionary starts with the terms above the
    # floor, here |00> alone, and draws the rest afresh
    calls = fake_nnls(monkeypatch, [factor * floor], 1.0)
    measures._fit_product_decomposition(rho)
    first, second = calls[:2]
    # one row per real coordinate of a 4 x 4 Hermitian matrix
    assert first.flags.c_contiguous and first.shape == (16, measures.FIT_DICTIONARY)
    assert np.array_equal(second[:, 0], first[:, 0]) is counted


def test_fit_with_no_room_for_draws_uses_the_basis_alone(monkeypatch):
    # a dictionary already full with the computational basis draws nothing
    monkeypatch.setattr(measures, "FIT_DICTIONARY", 4)
    calls = fake_nnls(monkeypatch, [], 1.0)
    res, terms = measures._fit_product_decomposition(product_mixture(2, 4, 0.0, seed=2))
    assert (res, terms) == (1.0, [])
    # the diagonal comes first among the coordinates, so |k><k| maps to e_k
    basis = np.eye(16, 4)
    assert np.array_equal(calls[0], basis)
    # nothing is kept either, so every later round draws a whole dictionary
    assert len(calls) == measures.FIT_ROUNDS
    assert all(a.shape == (16, 4) and not np.array_equal(a, basis) for a in calls[1:])


def random_hermitian(dim, rng):
    """A Hermitian matrix of unit Frobenius norm."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g + g.conj().T
    return h / np.linalg.norm(h)


def coordinates(m):
    return measures._hermitian_coordinates(lambda i, j: m[i, j], len(m))


@pytest.mark.parametrize("dim", [4, 8, 16, 9])
def test_hermitian_coordinates_are_isometric(dim):
    rng = np.random.default_rng(dim)
    for _ in range(10):
        x, y = random_hermitian(dim, rng), random_hermitian(dim, rng)
        assert coordinates(x).shape == (dim * dim,)
        assert coordinates(x) @ coordinates(y) == pytest.approx(np.trace(x @ y).real, abs=1e-12)
        assert np.linalg.norm(coordinates(x)) == pytest.approx(np.linalg.norm(x), abs=1e-12)


def stacked_objective(rho, states, x):
    """The fit's objective in its former layout: every real, then every
    imaginary entry of rho - sum_j x_j |v_j><v_j|."""
    a = np.einsum("ki,kj->ijk", states, states.conj())
    b, m = rho.entries.reshape(-1), a.reshape(-1, len(states))
    return np.linalg.norm(np.concatenate([(m @ x - b).real, (m @ x - b).imag]))


@pytest.mark.parametrize("n,terms,noise,seed", [(2, 4, 0.0, 2), (3, 6, 0.1, 3)])
def test_coordinates_leave_the_objective_unchanged(n, terms, noise, seed):
    rho = product_mixture(n, terms, noise, seed)
    rng = np.random.default_rng(seed)
    states = kron_vectors(list(haar_vector_draws(rng, 2, (n, 50))))
    cols = measures._hermitian_coordinates(lambda i, j: states.T[i] * states.T[j].conj(), rho.dim)
    for x in (rng.dirichlet(np.ones(50)), np.zeros(50), rng.exponential(size=50)):
        objective = np.linalg.norm(cols @ x - coordinates(rho.entries))
        assert objective == pytest.approx(stacked_objective(rho, states, x), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_any_entry_off_the_corner_leaves_the_corner_family(monkeypatch, n):
    # membership has no tolerance: the smallest subnormal off the diagonal
    # and the corner pair, an imaginary diagonal part, or a corner pair one
    # ulp from conjugate sends an exact member on to the later routes
    monkeypatch.setattr(measures, "_fit_product_decomposition", lambda rho: (1.0, []))
    dim, tiny = 2**n, 5e-324
    member = np.eye(dim, dtype=complex) / dim
    member[0, -1] = member[-1, 0] = 1 / (2 * dim)
    assert measures.fs_certificate(DensityMatrix(n, 2, member)).route == "ghz-corner"
    moved = []
    for i, j in zip(*np.triu_indices(dim, 1)):
        if (i, j) != (0, dim - 1):
            m = member.copy()
            m[i, j] = m[j, i] = tiny
            moved.append(m)
    m = member.copy()
    m[1, 1] += 1j * tiny
    moved.append(m)
    m = member.copy()
    m[-1, 0] = np.nextafter(m[-1, 0].real, 1.0)
    moved.append(m)
    for m in moved:
        assert measures.fs_certificate(DensityMatrix(n, 2, m)).route != "ghz-corner"


@pytest.mark.parametrize("factor,symmetric", [(0.5, True), (2.0, False)])
def test_permutation_symmetry_tolerance_edges(monkeypatch, factor, symmetric):
    # the W mixer lies in the symmetric subspace; white noise of weight eps
    # puts eps/2 outside it and keeps every partial transpose PPT; the gate's
    # bound is the state's rounding slack, which the noise barely moves
    monkeypatch.setattr(measures, "_fit_product_decomposition", lambda rho: (1.0, []))
    mixer = measures.w_robustness_mixer().entries
    slack = eigenvalue_slack(mixer)
    eps = 2 * factor * slack
    rho = DensityMatrix(3, 2, (1 - eps) * mixer + eps * np.eye(8) / 8)
    # the mixer's own weight outside rounds to ~3e-17
    assert measures._weight_outside_symmetric(rho) == pytest.approx(factor * slack, abs=1e-16)
    res = measures.fs_certificate(rho)
    assert res.route == ("symmetric-ppt" if symmetric else "none")


def two_qubit_pt_min(lam):
    """A two-qubit state off the GHZ corner whose partial transpose has
    smallest eigenvalue exactly lam, for small lam, and |rho|_F^2 = 1/2 at
    lam = 0.  For lam < 0: diag(0, 1/2, 1/2, 0) plus -lam on the |01><10|
    coherence, the bit flip on the last qubit of a GHZ-corner state; the
    partial transpose moves -lam into the {00, 11} block
    [[0, -lam], [-lam, 0]], with eigenvalues -+lam.  For lam >= 0:
    diag(lam, 1/2, 1/4 - lam, 1/4) plus 1/4 on the |01><11| coherence,
    which the partial transpose keeps in the {01, 11} block, with
    eigenvalues (3 -+ sqrt 8)/8 > lam, so lam stays alone on |00>."""
    if lam < 0:
        m = np.diag([0.0, 0.5, 0.5, 0.0])
        m[1, 2] = m[2, 1] = -lam
    else:
        m = np.diag([lam, 0.5, 0.25 - lam, 0.25])
        m[1, 3] = m[3, 1] = 0.25
    return DensityMatrix(2, 2, m)


# the rounding slack of every two_qubit_pt_min(lam) at these sizes, up to a
# relative 1e-15
SLACK2 = eigenvalue_slack(two_qubit_pt_min(0.0).entries)


@pytest.mark.parametrize("factor,npt", [(0.5, False), (2.0, True)])
def test_npt_route_tolerance_edges(factor, npt):
    # within the slack below 0 the state is not called NPT; which later
    # route, if any, decides it is not this test's concern
    rho = two_qubit_pt_min(-factor * SLACK2)
    assert min_pt_eigenvalue(rho, [1]) == -factor * SLACK2
    assert (measures.fs_certificate(rho).route == "npt-cut") is npt


def no_fit(monkeypatch):
    """Make the fit a no-op that never certifies, so a state the exact
    routes leave ends on route "none"."""
    monkeypatch.setattr(measures, "_fit_product_decomposition", lambda rho: (1.0, []))


def test_two_qubit_ppt_route():
    rho = product_mixture(2, 4, 0.0, seed=2)
    res = measures.fs_certificate(rho)
    assert (res.verdict, res.route) == (measures.CERTIFIED_FS, "two-qubit-ppt")
    assert res.detail["min_eigenvalue"] >= eigenvalue_slack(rho.entries)


@pytest.mark.parametrize(
    "factor,route",
    [
        (2.0, "two-qubit-ppt"),
        (0.5, "none"),
        (0.0, "none"),
        # PPT within the slack but negative: neither NPT-certified nor PPT-certified
        (-0.5, "none"),
        (-2.0, "npt-cut"),
    ],
)
def test_two_qubit_ppt_margin_edges(monkeypatch, factor, route):
    no_fit(monkeypatch)
    rho = two_qubit_pt_min(factor * SLACK2)
    assert min_pt_eigenvalue(rho, [1]) == factor * SLACK2
    assert measures.fs_certificate(rho).route == route


def w_with_white(p):
    return DensityMatrix(3, 2, p * w_state().density().entries + (1 - p) * np.eye(8) / 8)


# the Braunstein et al. ball for n qubits: 1 - D mu < 1/(1 + 2^(2n - 1))
RADIUS3 = 1 / 33


@pytest.mark.parametrize("offset,near", [(-1e-9, True), (1e-9, False)])
def test_near_identity_route_on_w_with_white_noise(offset, near):
    # p W + (1 - p) I/8 has mu = (1 - p)/8, so 1 - D mu = p
    rho = w_with_white(RADIUS3 + offset)
    res = measures.fs_certificate(rho)
    assert res.verdict == measures.CERTIFIED_FS
    assert (res.route == "near-identity") is near
    if near:
        assert res.detail["radius"] == RADIUS3
        weight = RADIUS3 + offset + 8 * eigenvalue_slack(rho.entries)
        assert res.detail["weight"] == pytest.approx(weight, abs=1e-14)


def diagonal_with_min(mu):
    """diag(mu, r, ..., r) on three qubits, r = (1 - mu)/7 > mu, with the
    coherence 2^-9 on |001><110| to move it off the GHZ corner: the block
    [[r, 2^-9], [2^-9, r]] has eigenvalues r -+ 2^-9 > mu, so the smallest
    eigenvalue is mu, alone on the first diagonal entry."""
    m = np.diag([mu] + [(1 - mu) / 7] * 7)
    m[1, 6] = m[6, 1] = 2.0**-9
    return DensityMatrix(3, 2, m)


@pytest.mark.parametrize("factor,near", [(0.5, False), (2.0, True)])
def test_near_identity_margin_edges(monkeypatch, factor, near):
    no_fit(monkeypatch)
    # mu is lowered by the slack, so the tested weight is
    # 1 - 8 mu + 8 slack: with mu = (1 - RADIUS3)/8 + factor slack it is
    # RADIUS3 + 8 (1 - factor) slack, inside the ball only for factor > 1
    mu0 = (1 - RADIUS3) / 8
    slack = eigenvalue_slack(diagonal_with_min(mu0).entries)
    rho = diagonal_with_min(mu0 + factor * slack)
    assert eigenvalue_slack(rho.entries) == pytest.approx(slack, rel=1e-12)
    assert (measures.fs_certificate(rho).route == "near-identity") is near


def test_near_identity_route_on_four_qubits():
    rng = np.random.default_rng(4)
    v = haar_vector_draws(rng, 16)
    p = 0.5 / (1 + 2**7)
    rho = DensityMatrix(4, 2, p * np.outer(v, v.conj()) + (1 - p) * np.eye(16) / 16)
    res = measures.fs_certificate(rho)
    assert (res.verdict, res.route) == (measures.CERTIFIED_FS, "near-identity")
    assert res.detail["radius"] == 1 / (1 + 2**7)


def test_near_identity_route_is_for_qubits_only(monkeypatch):
    # the qubit ball does not apply to qutrits, so white noise falls through
    no_fit(monkeypatch)
    res = measures.fs_certificate(DensityMatrix(2, 3, np.eye(9) / 9))
    assert (res.verdict, res.route) == (measures.UNKNOWN, "none")


# one named input per route of fs_certificate, in route order, with the
# verdict and the sorted detail keys it gives
FS, NOT_FS = measures.CERTIFIED_FS, measures.CERTIFIED_NOT_FS
ROUTE_INPUTS = {
    "ghz-corner": (lambda: ghz(3, 2).density(), NOT_FS, []),
    "npt-cut": (lambda: w_state().density(), NOT_FS, ["cut", "min_eigenvalue"]),
    "two-qubit-ppt": (lambda: product_mixture(2, 4, 0.0, seed=2), FS, ["min_eigenvalue"]),
    "near-identity": (lambda: w_with_white(RADIUS3 / 2), FS, ["radius", "weight"]),
    "symmetric-ppt": (measures.w_robustness_boundary, FS, []),
    "single-party": (lambda: DensityMatrix(1, 3, np.diag([0.5, 0.3, 0.2])), FS, []),
    "decomposition-fit": (lambda: product_mixture(3, 6, 0.3, seed=0), FS, ["residual", "terms"]),
    "none": (lambda: product_mixture(3, 6, 0.1, seed=3), measures.UNKNOWN, ["fit_residual"]),
}


def test_every_route_has_a_named_input():
    routes = [name for name, _ in measures.FS_ROUTES] + [measures.UNKNOWN_ROUTE]
    assert list(ROUTE_INPUTS) == routes


@pytest.mark.parametrize("route", list(ROUTE_INPUTS))
def test_each_route_is_reached_by_its_named_input(route):
    make, verdict, keys = ROUTE_INPUTS[route]
    res = measures.fs_certificate(make())
    assert res.route == route
    assert res.verdict == verdict
    assert sorted(res.detail) == keys


def test_cli_import_leaves_scipy_unloaded_until_the_fit():
    code = (
        "import sys, numpy as np; import entactic.cli; "
        "from entactic import measures; from entactic.linalg import DensityMatrix; "
        "print('scipy.optimize' in sys.modules); "
        "measures.fs_certificate(DensityMatrix(2, 2, np.kron(np.diag([1.0, 0]), np.full((2, 2), 0.5)))); "
        "print('scipy.optimize' in sys.modules)"
    )
    src = str(Path(measures.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


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


def test_robustness_fs_upper_zero_for_one_party():
    psi = PureState(1, 3, np.array([0.6, 0.8j, 0.0])).density()
    mixer = DensityMatrix(1, 3, np.eye(3) / 3)
    assert measures.robustness_fs_upper_via_mix(psi, mixer) == 0.0


def test_robustness_fs_upper_rejects_uncertified_mixer():
    with pytest.raises(ValueError):
        measures.robustness_fs_upper_via_mix(w_state().density(), ghz(3, 2).density())


@pytest.mark.parametrize(
    "psi,mixer",
    [
        (ghz(3, 2), DensityMatrix(2, 2, np.eye(4) / 4)),
        (ghz(3, 2), DensityMatrix(4, 2, np.eye(16) / 16)),
        # the same 16 x 16 size under another tensor structure
        (ghz(2, 4), DensityMatrix(4, 2, np.eye(16) / 16)),
    ],
    ids=["smaller", "larger", "same-size"],
)
def test_robustness_fs_upper_rejects_a_mixer_of_another_system(monkeypatch, psi, mixer):
    def certify(rho):
        raise AssertionError("the certifier ran")

    monkeypatch.setattr(measures, "fs_certificate", certify)
    with pytest.raises(linalg.ShapeError, match=r"state \(n, d\) = .* and mixer \(n, d\) = .* differ"):
        measures.robustness_fs_upper_via_mix(psi.density(), mixer)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_robustness_fs_upper_rejects_a_tolerance_it_cannot_reach(monkeypatch, tol):
    white = DensityMatrix(3, 2, np.eye(8) / 8)
    calls = []
    monkeypatch.setattr(measures, "fs_certificate", lambda rho: calls.append(rho))
    with pytest.raises(ValueError, match="bisect_tol must be finite and > 0"):
        measures.robustness_fs_upper_via_mix(ghz(3, 2).density(), white, bisect_tol=tol)
    assert calls == []


def test_robustness_fs_upper_accepts_the_default_tolerance_at_the_edge(monkeypatch):
    # a free state returns before the loop, whatever the tolerance
    rho = params_to_density(GhzSymmetricParams(0.1, 0.1, 0.8))
    mixer = params_to_density(GhzSymmetricParams(0.0, 0.25, 0.75))
    steps = []
    certify = measures.fs_certificate
    monkeypatch.setattr(measures, "fs_certificate", lambda rho: steps.append(rho) or certify(rho))
    assert measures.robustness_fs_upper_via_mix(rho, mixer, bisect_tol=1e-6) == 0.0
    assert len(steps) == 2


def test_robustness_fs_upper_stops_at_adjacent_floats():
    # no gap between floats near 2 is below 1e-300, so only adjacency ends
    # this bisection; the polytope route decides every step, with no fit
    rho, mixer = ghz(3, 2).density(), params_to_density(GhzSymmetricParams(0.0, 0.25, 0.75))
    s = measures.robustness_fs_upper_via_mix(rho, mixer, bisect_tol=1e-300)
    assert s == pytest.approx(2.0, abs=1e-6)

    def verdict(t):
        m = (rho.entries + t * mixer.entries) / (1.0 + t)
        return measures.fs_certificate(DensityMatrix(3, 2, (m + m.conj().T) / 2)).verdict

    # the returned weight is certified and the float just below it is not
    assert verdict(s) == measures.CERTIFIED_FS
    assert verdict(np.nextafter(s, 0.0)) != measures.CERTIFIED_FS


def test_robustness_fs_upper_cap_error():
    # GHZ + s |000><000| keeps its |000><111| coherence with no weight on
    # |011> or |100>, so it is NPT for every s and the cap S_MAX is reached
    mixer = PureState(3, 2, np.eye(8)[0]).density()
    with pytest.raises(measures.RobustnessCapError, match=f"s = {measures.S_MAX}"):
        measures.robustness_fs_upper_via_mix(ghz(3, 2).density(), mixer)


def test_lemma2_search_lands_within_tolerance_of_two(monkeypatch):
    # the W mixer's partial transposes are singular; on their range the
    # ray's threshold is 2, and the first probe above it is certified
    psi, mixer = w_state().density(), measures.w_robustness_mixer()
    calls = []
    certify = measures.fs_certificate
    monkeypatch.setattr(measures, "fs_certificate", lambda rho: calls.append(rho) or certify(rho))
    s = measures.robustness_fs_upper_via_mix(psi, mixer)
    assert len(calls) == 3
    assert abs(s - 2.0) <= 1e-6
    m = (psi.entries + s * mixer.entries) / (1.0 + s)
    assert certify(DensityMatrix(3, 2, (m + m.conj().T) / 2)).verdict == measures.CERTIFIED_FS


SINGULAR_MIXERS = {
    # smallest partial-transpose eigenvalues about 1e-17 and 3.5e-17.  The
    # last value is the smallest float the search certifies at bisect_tol
    # 1e-300.  On the W ray it is 6.4e-14 below the exact 2: symmetric-ppt
    # certifies mixtures whose partial transposes lie within the rounding
    # slack below 0.  The GHZ ray stays on the exact ghz-corner route, and
    # its float mixture one ulp below 2 rounds onto the fully separable side
    "w-mixer": (w_state, measures.w_robustness_mixer, 1.9999999999999358),
    "ghz-symmetric": (
        lambda: ghz(3, 2),
        lambda: params_to_density(GhzSymmetricParams(0.0, 0.25, 0.75)),
        1.9999999999999998,
    ),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-300])
@pytest.mark.parametrize("name", sorted(SINGULAR_MIXERS))
def test_singular_mixers_place_the_search_at_two(monkeypatch, name, tol):
    make_psi, make_mixer, smallest = SINGULAR_MIXERS[name]
    psi, mixer = make_psi().density(), make_mixer()
    s_ppt = ppt_threshold(psi, mixer)
    assert s_ppt == pytest.approx(2.0, abs=1e-12)
    calls = []
    certify = measures.fs_certificate
    monkeypatch.setattr(measures, "fs_certificate", lambda rho: calls.append(rho) or certify(rho))
    s = measures.robustness_fs_upper_via_mix(psi, mixer, bisect_tol=tol)
    if tol == 1e-6:
        # the mixer, psi, and the first probe, certified
        assert s == s_ppt * (1 - measures.THRESHOLD_MARGIN) + tol
        assert len(calls) == 3
    else:
        # the probe just above the threshold fails, and [probe, S_MAX] is
        # bisected down to adjacent floats
        assert s == smallest


WHITE = DensityMatrix(3, 2, np.eye(8) / 8)


def noisy_ghz(p):
    return DensityMatrix(3, 2, p * ghz(3, 2).density().entries + (1 - p) * np.eye(8) / 8)


@pytest.mark.parametrize(
    "psi,s_ppt",
    [
        (ghz(3, 2).density(), 4.0),
        (w_state().density(), 8 * math.sqrt(2) / 3),
        (noisy_ghz(0.6), 2.0),
        (noisy_ghz(0.77), 5 * 0.77 - 1),
    ],
    ids=["ghz", "w", "ghz-0.6", "ghz-0.77"],
)
def test_search_starts_just_below_the_ppt_threshold(monkeypatch, psi, s_ppt):
    assert ppt_threshold(psi, WHITE) == pytest.approx(s_ppt, abs=1e-12)
    lo = ppt_threshold(psi, WHITE) * (1 - measures.THRESHOLD_MARGIN)
    m = (psi.entries + lo * WHITE.entries) / (1 + lo)
    lowest = min(np.linalg.eigvalsh(linalg.partial_transpose(DensityMatrix(3, 2, m), sorted(cut.parties)))[0]
                 for cut in all_bipartitions(3))
    assert lowest < 0
    # the mixer, psi, then the first probe at lo + bisect_tol, certified
    calls = []
    certify = measures.fs_certificate
    monkeypatch.setattr(measures, "fs_certificate", lambda rho: calls.append(rho) or certify(rho))
    s = measures.robustness_fs_upper_via_mix(psi, WHITE)
    assert len(calls) == 3
    assert s == lo + 1e-6
    assert abs(s - s_ppt) <= 1e-6


def skewed_mixer():
    """0.9 |000><000| + 0.1 I/8: GHZ's -1/2 block on {100, 011} is lifted by
    s/80 on each side, so the ray turns PPT at s = 40."""
    return DensityMatrix(3, 2, 0.9 * np.diag(np.eye(8)[0]) + 0.1 * np.eye(8) / 8)


def test_a_threshold_beyond_the_cap_raises_before_any_mixture(monkeypatch):
    assert ppt_threshold(ghz(3, 2).density(), skewed_mixer()) == pytest.approx(40.0, abs=1e-12)

    def fit(rho):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(measures, "_fit_product_decomposition", fit)
    calls = []
    certify = measures.fs_certificate
    monkeypatch.setattr(measures, "fs_certificate", lambda rho: calls.append(rho) or certify(rho))
    with pytest.raises(measures.RobustnessCapError, match=f"s = {measures.S_MAX}"):
        measures.robustness_fs_upper_via_mix(ghz(3, 2).density(), skewed_mixer())
    assert len(calls) == 2  # the mixer and psi


def stub_certifier(monkeypatch, psi, s_free):
    """Replace the certifier on the GHZ -> I/8 ray: the mixer is free, psi is
    not, and a mixture is certified iff its |000><111| entry 1/(2(1 + s))
    puts s at or above s_free.  Returns the list of certified-or-not calls
    and the verdict function."""
    calls = []

    def free(rho):
        return rho is WHITE or (rho is not psi and 0.5 / rho.entries[0, 7].real - 1 >= s_free)

    def certify(rho):
        calls.append(rho)
        return measures.CertResult(measures.CERTIFIED_FS if free(rho) else measures.CERTIFIED_NOT_FS, "stub")

    def verdict(t):
        m = (psi.entries + t * WHITE.entries) / (1.0 + t)
        return free(DensityMatrix.by_construction(3, 2, (m + m.conj().T) / 2))

    monkeypatch.setattr(measures, "fs_certificate", certify)
    return calls, verdict


@pytest.mark.parametrize("tol", [1e-6, 1e-300])
def test_a_failed_first_probe_bisects_up_to_the_cap(monkeypatch, tol):
    # s_ppt = 4, but the stub certifies only from 5 on: the probe at
    # 4 + tol fails, S_MAX is checked, and [probe, S_MAX] is bisected
    psi = ghz(3, 2).density()
    calls, verdict = stub_certifier(monkeypatch, psi, 5.0)
    s = measures.robustness_fs_upper_via_mix(psi, WHITE, bisect_tol=tol)
    lo = ppt_threshold(psi, WHITE) * (1 - measures.THRESHOLD_MARGIN)
    # at 1e-300, lo + tol rounds to lo, so the probe is the next float up
    probe = max(lo + tol, np.nextafter(lo, np.inf))

    def mixture(t):
        m = (psi.entries + t * WHITE.entries) / (1.0 + t)
        return (m + m.conj().T) / 2

    assert not np.array_equal(mixture(probe), mixture(lo))
    assert np.array_equal(calls[2].entries, mixture(probe))
    assert np.array_equal(calls[3].entries, mixture(measures.S_MAX))
    assert verdict(s) and 5.0 - 1e-12 <= s <= 5.0 + tol + 1e-12
    if tol == 1e-300:
        # no gap between floats near 5 is below 1e-300, so only adjacency
        # ends the bisection
        assert not verdict(np.nextafter(s, 0.0))


@pytest.mark.parametrize("factor,first_probe_certified", [(0.5, False), (2.0, True)])
def test_threshold_margin_edges(monkeypatch, factor, first_probe_certified):
    # with s_ppt placed exactly on the stub's boundary at 5, the first probe
    # lo + bisect_tol clears it iff bisect_tol exceeds the margin 5 * margin
    psi = ghz(3, 2).density()
    monkeypatch.setattr(measures, "ppt_threshold", lambda rho, mixer: 5.0)
    calls, verdict = stub_certifier(monkeypatch, psi, 5.0)
    tol = factor * 5.0 * measures.THRESHOLD_MARGIN
    s = measures.robustness_fs_upper_via_mix(psi, WHITE, bisect_tol=tol)
    assert (len(calls) == 3) is first_probe_certified
    assert verdict(s) and abs(s - 5.0) <= tol


@pytest.mark.parametrize("factor,certifier_calls", [(0.5, 4), (2.0, 2)])
def test_pencil_floor_edges_in_the_search(monkeypatch, factor, certifier_calls):
    # toward (1 - t)|000><000| + t I/8 the ray stays NPT up to s = 1/(2 lam)
    # with lam = t/8.  With lam kept, that is far above S_MAX and raises at
    # once; with only |000> kept the threshold is negative, so the search
    # probes bisect_tol, then checks S_MAX and raises there
    lam = factor * linalg.PENCIL_FLOOR
    mixer = DensityMatrix(3, 2, np.diag([1.0 - 7 * lam] + [lam] * 7))
    calls = []
    certify = measures.fs_certificate
    monkeypatch.setattr(measures, "fs_certificate", lambda rho: calls.append(rho) or certify(rho))
    with pytest.raises(measures.RobustnessCapError, match=f"s = {measures.S_MAX}"):
        measures.robustness_fs_upper_via_mix(ghz(3, 2).density(), mixer)
    assert len(calls) == certifier_calls


@pytest.mark.parametrize("s_free,returned", [(0.0, measures.S_MAX), (20.0, None)])
def test_the_first_probe_stops_at_the_cap(monkeypatch, s_free, returned):
    # lo just below S_MAX and a tolerance past it: the probe is S_MAX itself,
    # returned when certified and otherwise not tried a second time
    psi = ghz(3, 2).density()
    monkeypatch.setattr(measures, "ppt_threshold", lambda rho, mixer: measures.S_MAX - 1e-3)
    calls, verdict = stub_certifier(monkeypatch, psi, s_free)
    if returned is None:
        with pytest.raises(measures.RobustnessCapError):
            measures.robustness_fs_upper_via_mix(psi, WHITE, bisect_tol=1.0)
    else:
        assert measures.robustness_fs_upper_via_mix(psi, WHITE, bisect_tol=1.0) == returned
    assert len(calls) == 3
