import math
from itertools import combinations

import numpy as np
import pytest

from entactic.catalog import (
    CATALOG,
    ame_4_3,
    build,
    cluster_state,
    four_qubit_phi,
    fully_supported_example,
    ghz,
    ghz_minus,
    psi_ghz_plus,
    psi_w,
    w_bar,
    w_state,
)
from entactic.linalg import NORM_TOL, reduced_density_pure


def test_ghz_amplitudes():
    g = ghz(3, 2)
    assert g.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert g.amplitudes[7] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(g.amplitudes) == 2


def test_ghz_qutrit():
    g = ghz(3, 3)
    idx = [0, 13, 26]  # |000>, |111>, |222> in base 3
    assert np.allclose(g.amplitudes[idx], 1 / math.sqrt(3))
    assert np.count_nonzero(g.amplitudes) == 3


def test_ghz_minus_orthogonal_to_ghz():
    assert abs(np.vdot(ghz(3, 2).amplitudes, ghz_minus().amplitudes)) < 1e-15


def test_w_state_support():
    w = w_state()
    assert np.allclose(w.amplitudes[[1, 2, 4]], 1 / math.sqrt(3))
    assert np.count_nonzero(w.amplitudes) == 3


def test_w_bar_is_spin_flipped_w():
    wb = w_bar()
    assert np.allclose(wb.amplitudes[[3, 5, 6]], 1 / math.sqrt(3))
    assert abs(np.vdot(w_state().amplitudes, wb.amplitudes)) < 1e-15


def test_psi_ghz_plus_rejects_zero_angles():
    with pytest.raises(ValueError):
        psi_ghz_plus(0.0, 0.3, 0.3)


def test_psi_ghz_plus_right_angles_give_ghz_overlap():
    # at alpha = beta = gamma = pi/2 the second branch is |111>
    psi = psi_ghz_plus(math.pi / 2, math.pi / 2, math.pi / 2)
    assert abs(abs(np.vdot(psi.amplitudes, ghz(3, 2).amplitudes)) - 1.0) < 1e-12


def test_psi_ghz_plus_normalized_at_generic_angles():
    psi = psi_ghz_plus(0.3, 1.1, 1.4)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_psi_w_weights():
    psi = psi_w(0.5, 0.25, 0.25)
    assert psi.amplitudes[1] == pytest.approx(math.sqrt(0.5))
    assert psi.amplitudes[2] == pytest.approx(0.5)
    assert psi.amplitudes[4] == pytest.approx(0.5)


def test_psi_w_rejects_bad_weights():
    with pytest.raises(ValueError):
        psi_w(0.5, 0.2, 0.2)


@pytest.mark.parametrize("factor, ok", [(0.5, True), (2.0, False)])
def test_psi_w_weight_sum_tolerance_edges(factor, ok):
    x3 = 0.25 + factor * NORM_TOL
    if ok:
        assert psi_w(0.5, 0.25, x3).amplitudes[4] == math.sqrt(x3)
    else:
        with pytest.raises(ValueError, match="sum to 1"):
            psi_w(0.5, 0.25, x3)


def test_four_qubit_phi_marginals_maximally_mixed():
    for p in (0.25, 0.4, 0.5):
        phi = four_qubit_phi(p)
        for k in range(1, 5):
            marg = reduced_density_pure(phi, [k]).entries
            assert np.allclose(marg, np.eye(2) / 2, atol=1e-12)


def test_fully_supported_example_marginals_full_rank():
    psi = fully_supported_example(3, 2, 0.05)
    for k in range(1, 4):
        eig = np.linalg.eigvalsh(reduced_density_pure(psi, [k]).entries)
        assert np.min(eig) > 1e-3


def test_cluster_state_stabilizer_sign_pattern():
    c = cluster_state(4)
    # uniform magnitudes, signs given by products of neighboring bits
    assert np.allclose(np.abs(c.amplitudes), 0.25)
    bits = [[(i >> (3 - k)) & 1 for k in range(4)] for i in range(16)]
    for i, b in enumerate(bits):
        sign = (-1) ** (b[0] * b[1] + b[1] * b[2] + b[2] * b[3])
        assert c.amplitudes[i] == pytest.approx(sign * 0.25)


def test_ame_4_3_two_party_marginals():
    psi = ame_4_3()
    for pair in combinations(range(1, 5), 2):
        marg = reduced_density_pure(psi, pair).entries
        assert np.allclose(marg, np.eye(9) / 9, atol=1e-12)


def test_build_dispatch_and_params():
    psi = build("ghz", ["4", "3"])
    assert (psi.n, psi.d) == (4, 3)
    assert np.allclose(build("w", []).amplitudes, w_state().amplitudes)
    tilted = build("psi-ghz-plus", ["0.3", "0.4", "0.5"])
    assert abs(np.linalg.norm(tilted.amplitudes) - 1.0) < 1e-12


def test_build_rejects_unknown_name():
    with pytest.raises(KeyError):
        build("nonesuch", [])


def test_build_rejects_wrong_arity():
    with pytest.raises(ValueError):
        build("ghz", ["3"])


def test_catalog_registry_names():
    for name in ("ghz", "w", "cluster", "ame-4-3", "four-qubit-phi"):
        assert name in CATALOG
