"""Acceptance suite: one test per release criterion, at full scale.

Each test pins the criterion's stated tolerance.  The twirl criterion is
asserted against its overlap oracle (see tests for the derivation); the
derivation notes live alongside the repository, not in this file.
"""

import dataclasses
import json
import math
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from entactic import conversion, ghz_symmetric as gs, measures, witnesses
from entactic.catalog import (
    ame_4_3,
    cluster_state,
    four_qubit_phi,
    ghz,
    psi_ghz_plus,
    w_state,
)
from entactic.linalg import Bipartition, PureState, apply_channel, npt_cut, reduced_density_pure


def haar_state(n, d, rng):
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return PureState(n, d, v / np.linalg.norm(v))


def test_ac1_geometric_bs_closed_form():
    for n, d in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        value = measures.geometric_bs(ghz(n, d)).value
        assert abs(value - (d - 1) / d) <= 1e-12


def test_ac2_geometric_fs_optimizer():
    # default restart budget and seed
    assert abs(measures.geometric_fs(ghz(3, 2)).value - 0.5) <= 1e-6
    assert abs(measures.geometric_fs(w_state()).value - 5 / 9) <= 1e-6


def test_ac3_ghz_robustness_exact():
    target = gs.GhzSymmetricParams(Fraction(1), Fraction(0), Fraction(0))
    s, mixer = gs.symmetric_robustness(target)
    assert s == 2  # exact rational path
    assert tuple(mixer.as_fractions()) == (
        Fraction(0),
        Fraction(1, 4),
        Fraction(3, 4),
    )
    wit = witnesses.ghz_robustness_witness()
    assert witnesses.ghz_witness_value_symmetric(target) == -2
    assert witnesses.robustness_lower_from_witness(ghz(3, 2).density(), wit) == pytest.approx(
        2.0, abs=1e-12
    )


def test_ac4_w_robustness_and_witness():
    wit = witnesses.w_robustness_witness()
    assert witnesses.w_witness_value_diag(0, 0, 1, 0) == -2
    assert abs(wit.expectation(w_state().density()) + 2.0) <= 1e-12

    lo, hi, _, _ = witnesses.witness_range_over_fs(wit)
    assert lo >= -1e-6
    assert hi <= 1.0 + 1e-6

    for alpha in np.linspace(0.0, math.pi / 2, 64):
        for beta in np.linspace(0.0, 2 * math.pi, 8):
            val = witnesses.symmetric_triform_value(float(alpha), float(beta))
            assert abs(val - 0.5 * math.cos(6 * alpha)) <= 1e-10

    tau = measures.w_robustness_mixer()
    eta = measures.w_robustness_boundary()
    s = measures.robustness_fs_upper_via_mix(w_state().density(), tau)
    assert abs(s - 2.0) <= 1e-6
    mix = (w_state().density().entries + 2.0 * tau.entries) / 3.0
    assert np.max(np.abs(mix - eta.entries)) <= 1e-12
    for rho in (tau, eta):
        assert npt_cut(rho) is None


def test_ac5_unique_separable_mixer():
    mixer = gs.unique_fs_mixer_for_ghz()  # raises unless the set is one point
    assert tuple(mixer.as_fractions()) == (
        Fraction(0),
        Fraction(1, 4),
        Fraction(3, 4),
    )


def test_ac6_twirl_projection():
    lp, lm, lr = gs.twirl(ghz(3, 2).density())
    assert abs(lp - 1.0) <= 1e-12 and abs(lm) <= 1e-12 and abs(lr) <= 1e-12

    rng = np.random.default_rng(606)
    for _ in range(100):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        q = gs.twirl(gs.params_to_density(gs.GhzSymmetricParams(*w)))
        assert max(abs(a - b) for a, b in zip(w, q)) <= 1e-12

    # overlap oracle for W: both GHZ-basis overlaps are computed directly
    # from the amplitudes and fix the expected projection
    g = ghz(3, 2).amplitudes
    gm = np.zeros(8, dtype=complex)
    gm[0], gm[7] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    expected_lp = abs(np.vdot(g, w_state().amplitudes)) ** 2
    expected_lm = abs(np.vdot(gm, w_state().amplitudes)) ** 2
    lp, lm, lr = gs.twirl(w_state().density())
    assert abs(lp - expected_lp) <= 1e-12
    assert abs(lm - expected_lm) <= 1e-12
    assert abs(lr - (1.0 - expected_lp - expected_lm)) <= 1e-12


def test_ac7_ghz_universal_conversion():
    rng = np.random.default_rng(707)
    targets = [haar_state(3, 2, rng) for _ in range(50)]
    targets += [haar_state(3, 3, rng) for _ in range(10)]
    for k, psi in enumerate(targets):
        m = conversion.ghz_to_any_bsp(psi)
        assert m.p == 1.0
        out = apply_channel(m, ghz(psi.n, psi.d).density())
        assert np.max(np.abs(out.entries - psi.density().entries)) <= 1e-10
        rep = conversion.verify_preservation_sampled(m, 10_000, seed=707 + k)
        assert rep.violations == 0


def test_ac8_robustness_formulas():
    bell = ghz(2, 2)
    r = measures.robustness_bipartite_pure(bell, Bipartition(2, frozenset({1})))
    assert abs(r - 1.0) <= 1e-12
    for n, d in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        assert abs(measures.robustness_bs_upper(ghz(n, d)).value - (d - 1)) <= 1e-12


def test_ac9_counterexample_state():
    phi = four_qubit_phi(0.25)
    assert abs(measures.geometric_bs(phi).value - 0.25) <= 1e-12
    for k in range(1, 5):
        marg = reduced_density_pure(phi, [k]).entries
        assert np.max(np.abs(marg - np.eye(2) / 2)) <= 1e-12
    assert abs(measures.geometric_bs(four_qubit_phi(0.5)).value - 0.5) <= 1e-12


def test_ac10_maximal_equivalence_class():
    assert abs(measures.geometric_bs(cluster_state(4)).value - 0.5) <= 1e-10
    ame = ame_4_3()
    for pair in combinations(range(1, 5), 2):
        marg = reduced_density_pure(ame, pair).entries
        assert np.max(np.abs(marg - np.eye(9) / 9)) <= 1e-12
    assert abs(measures.geometric_bs(ame).value - 2 / 3) <= 1e-12


def test_ac11_tilted_ghz_bound():
    # the closed-form bound stays within the budget 5/4 exactly on c >= 3/7
    for c in np.linspace(3 / 7, 1.0, 50):
        bound = conversion.ghz_plus_bound_report(math.acos(float(c)), 0.0, 0.0)["bound"]
        assert bound <= 1.25 + 1e-12

    angle = math.acos(0.5 ** (1 / 3))  # cos-product 1/2 > 3/7
    bound = conversion.ghz_plus_bound_report(angle, angle, angle)["bound"]
    cert = conversion.max_probability(
        w_state(),
        psi_ghz_plus(angle, angle, angle),
        conversion.FSP,
        r_upper=bound,
    )
    assert cert.deterministic

    quoted = conversion.ghz_plus_bound_report(math.pi / 2, math.pi / 2, 0.1)
    assert abs(quoted["bound"] - 2.0) <= 1e-12
    assert quoted["flag"] is not None  # inconsistent quoted example is flagged


def test_ac12_conversion_bound_tightness():
    rng = np.random.default_rng(1212)
    pairs = 0
    attempts = 0
    while pairs < 200 and attempts < 1000:
        attempts += 1
        psi1 = haar_state(3, 2, rng)
        psi2 = haar_state(3, 2, rng)
        try:
            cert = conversion.max_probability(psi1, psi2, conversion.BSP)
        except conversion.FreeSourceError:
            continue
        at_max = conversion.build_filter_map(cert, cert.p_max)
        rep = conversion.verify_preservation_sampled(at_max, 10_000, seed=1212 + attempts)
        assert rep.violations == 0
        if cert.p_max < 1.0:
            over = dataclasses.replace(at_max, p=min(1.0, 1.5 * cert.p_max))
            rep_over = conversion.verify_preservation_sampled(over, 10_000, seed=1212 + attempts)
            assert rep_over.violations >= 1
        pairs += 1
    assert pairs == 200


def test_ac13_reproduce_determinism():
    cmd = [sys.executable, "-m", "entactic.cli", "reproduce", "--all", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical
    report = json.loads(first.stdout)
    assert report["all_pass"]
    assert len(report["claims"]) == 12
