import dataclasses
import math

import numpy as np
import pytest

from entactic import conversion, measures
from entactic.catalog import ghz, psi_ghz_plus, w_state
from entactic.linalg import Bipartition, PureState, all_bipartitions, apply_channel, is_ppt


def random_state(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return PureState(n, d, v / np.linalg.norm(v))


def product_state(n, d, seed):
    rng = np.random.default_rng(seed)
    v = np.ones(1, dtype=complex)
    for _ in range(n):
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = np.kron(v, u / np.linalg.norm(u))
    return PureState(n, d, v)


# --- conversion certificates ------------------------------------------------


def test_max_probability_w_to_ghz_bsp():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    # g = 1/3, r = 1: p_max = (1/3) / (2/3) = 1/2
    assert cert.g_source == pytest.approx(1 / 3, abs=1e-12)
    assert cert.r_target == pytest.approx(1.0, abs=1e-12)
    assert cert.p_max == pytest.approx(0.5, abs=1e-9)
    assert not cert.deterministic
    assert cert.theory == conversion.BSP


def test_max_probability_ghz_to_w_is_deterministic():
    cert = conversion.max_probability(ghz(3, 2), w_state(), conversion.BSP)
    # g = 1/2, budget 1 against r = 2 sqrt(2)/3 - ... < 1: p clamps to 1
    assert cert.p_max == 1.0
    assert cert.deterministic


def test_max_probability_rejects_free_source():
    with pytest.raises(conversion.FreeSourceError):
        conversion.max_probability(product_state(3, 2, 0), ghz(3, 2), conversion.BSP)


def test_max_probability_fsp_needs_r_upper():
    with pytest.raises(ValueError):
        conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP)


def test_max_probability_fsp_with_supplied_bound():
    cert = conversion.max_probability(
        w_state(), ghz(3, 2), conversion.FSP, measures.OptimizerOptions(seed=3), r_upper=2.0
    )
    # g = 5/9, r = 2: p_max = (5/9) / ((4/9) * 2) = 5/8
    assert cert.p_max == pytest.approx(5 / 8, abs=1e-6)
    assert cert.provenance["r_route"] == "supplied-upper-bound"


def test_max_probability_rejects_unknown_theory():
    with pytest.raises(ValueError):
        conversion.max_probability(w_state(), ghz(3, 2), "LOCC")


# --- mixer construction -----------------------------------------------------


def test_bs_mixer_reaches_separable_boundary():
    psi = random_state(3, 2, 21)
    mixer, s, cut = conversion._bs_mixer_details(psi)
    boundary = (psi.density().entries + s * mixer.entries) / (1 + s)
    assert is_ppt(
        type(mixer)(3, 2, (boundary + boundary.conj().T) / 2),
        sorted(cut.parties),
        tol=1e-8,
    )
    # the mixer itself is separable across the construction cut
    assert is_ppt(mixer, sorted(cut.parties), tol=1e-10)


def test_bs_mixer_for_product_target_is_the_target():
    psi = product_state(3, 2, 6)
    mixer, s, _ = conversion._bs_mixer_details(psi)
    assert s == 0.0
    assert np.allclose(mixer.entries, psi.density().entries, atol=1e-12)


# --- channel construction and application -----------------------------------


def test_build_filter_map_rejects_p_above_certificate():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    mixer, _, cut = conversion._bs_mixer_details(ghz(3, 2))
    with pytest.raises(ValueError):
        conversion.build_filter_map(
            cert, w_state(), ghz(3, 2), 0.9, mixer, mixer_cut=cut, mixer_certified=True
        )


def test_build_filter_map_checks_bsp_mixer_cut():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    mixer, _, cut = conversion._bs_mixer_details(ghz(3, 2))
    with pytest.raises(ValueError):
        conversion.build_filter_map(cert, w_state(), ghz(3, 2), 0.5, mixer, mixer_cut=None)
    m = conversion.build_filter_map(cert, w_state(), ghz(3, 2), 0.5, mixer, mixer_cut=cut)
    assert m.mixer_cut == cut


def test_preparation_map_rejects_bad_p():
    mixer, _, cut = conversion._bs_mixer_details(ghz(3, 2))
    with pytest.raises(ValueError):
        conversion.PreparationMap(
            psi1=w_state(),
            p=0.0,
            psi2=ghz(3, 2),
            mixer=mixer,
            theory=conversion.BSP,
            g_source=1 / 3,
            r_target=1.0,
        )


def test_ghz_to_any_bsp_hits_target_exactly():
    for seed, (n, d) in [(0, (3, 2)), (1, (3, 2)), (2, (3, 3)), (3, (4, 2))]:
        psi = random_state(n, d, seed)
        m = conversion.ghz_to_any_bsp(psi)
        assert m.p == 1.0
        out = apply_channel(m, ghz(n, d).density())
        assert np.max(np.abs(out.entries - psi.density().entries)) < 1e-10


def test_ghz_to_any_bsp_on_free_input_stays_free_shaped():
    psi = random_state(3, 2, 4)
    m = conversion.ghz_to_any_bsp(psi)
    rep = conversion.verify_preservation_sampled(m, 2000, seed=9)
    assert rep.violations == 0


# --- sampling and preservation audits ---------------------------------------


def test_random_free_state_fsp_is_product():
    psi = conversion.random_free_state(conversion.FSP, 3, 2, 5)
    from entactic.measures import geometric_bs

    assert geometric_bs(psi).value < 1e-12


def test_random_free_state_bsp_is_cut_product():
    psi = conversion.random_free_state(conversion.BSP, 3, 2, 5)
    from entactic.linalg import schmidt_spectrum

    tops = [schmidt_spectrum(psi, cut).values[0] for cut in all_bipartitions(3)]
    assert max(tops) > 1.0 - 1e-12


def test_batch_overlaps_match_single_draws():
    # the batched einsum path must agree in distribution with direct overlap
    psi = random_state(3, 2, 12)
    rng = np.random.default_rng(0)
    qs = conversion._batch_free_overlaps(psi, conversion.FSP, 500, rng)
    assert np.all(qs >= 0) and np.all(qs <= 1 + 1e-12)
    # overlaps with products cannot exceed the squared maximal product overlap
    gfs = measures.geometric_fs(psi, measures.OptimizerOptions(seed=1)).value
    assert np.max(qs) <= (1 - gfs) + 1e-6


def test_extremal_probe_attains_the_measure():
    psi = w_state()
    mixer, r, cut = conversion._bs_mixer_details(ghz(3, 2))
    cert = conversion.max_probability(psi, ghz(3, 2), conversion.BSP)
    m = conversion.build_filter_map(
        cert, psi, ghz(3, 2), cert.p_max, mixer, mixer_cut=cut, mixer_certified=True
    )
    probe = conversion._extremal_free_overlap(m, seed=0)
    assert probe == pytest.approx(1 - cert.g_source, abs=1e-9)


def test_fsp_probe_uses_the_audit_seed(monkeypatch):
    psi1 = random_state(3, 2, 21)
    m = conversion.PreparationMap(
        psi1=psi1,
        p=0.1,
        psi2=w_state(),
        mixer=measures.w_robustness_mixer(),
        theory=conversion.FSP,
        g_source=0.5,
        r_target=2.0,
    )
    seeds = []

    def spy(psi, opts=measures.OptimizerOptions()):
        seeds.append(opts.seed)
        return measures.geometric_fs(psi, opts)

    monkeypatch.setattr(conversion, "geometric_fs", spy)
    for seed in (0, 9):
        probe = conversion._extremal_free_overlap(m, seed)
        gfs = measures.geometric_fs(psi1, measures.OptimizerOptions(seed=seed)).value
        assert probe == pytest.approx(1 - gfs, abs=1e-12)
    conversion.verify_preservation_sampled(m, 1, seed=5)
    assert seeds == [0, 9, 5]


def test_preservation_fails_above_certified_p():
    psi2 = random_state(3, 2, 33)
    cert = conversion.max_probability(w_state(), psi2, conversion.BSP)
    mixer, _, cut = conversion._bs_mixer_details(psi2)
    if cert.p_max >= 1.0:
        pytest.skip("target too weak to exceed the budget")
    over = conversion.PreparationMap(
        psi1=w_state(),
        p=min(1.0, 1.5 * cert.p_max),
        psi2=psi2,
        mixer=mixer,
        theory=conversion.BSP,
        g_source=cert.g_source,
        r_target=cert.r_target,
        mixer_cut=cut,
    )
    rep = conversion.verify_preservation_sampled(over, 2000, seed=1)
    assert rep.violations >= 1


def test_preservation_report_fields():
    m = conversion.ghz_to_any_bsp(random_state(3, 2, 2))
    rep = conversion.verify_preservation_sampled(m, 50, seed=3)
    assert rep.samples == 50
    assert rep.theory == conversion.BSP
    assert math.isfinite(rep.worst_overlap_margin)
    with pytest.raises(ValueError):
        conversion.verify_preservation_sampled(m, 0, seed=3)


@pytest.mark.parametrize("excess, violations", [(0.5, 0), (2.0, 1)])
def test_audit_tolerance_edges(excess, violations):
    # a free input beyond either inequality by excess * AUDIT_TOL
    m = conversion.ghz_to_any_bsp(w_state())
    q = conversion._extremal_free_overlap(m, seed=0)
    slack = excess * conversion.AUDIT_TOL
    overlap_edge = dataclasses.replace(m, g_source=1 - q + slack, r_target=0.0)
    ratio_edge = dataclasses.replace(m, g_source=0.0, r_target=(1 / q - 1) / m.p + slack)
    for edge in (overlap_edge, ratio_edge):
        assert conversion.verify_preservation_sampled(edge, 1, seed=0).violations == violations


def test_each_cut_is_decomposed_once_per_state(monkeypatch):
    psi1, psi2 = random_state(4, 2, 31), random_state(4, 2, 32)
    svd, calls = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        calls.append((a.shape, a.tobytes(), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    cert = conversion.max_probability(psi1, psi2, conversion.BSP)
    mixer, _, cut = conversion._bs_mixer_details(psi2)
    m = conversion.build_filter_map(
        cert, psi1, psi2, cert.p_max, mixer, mixer_cut=cut, mixer_certified=True
    )
    conversion._extremal_free_overlap(m, seed=0)
    measures.geometric_bs(psi1)
    measures.robustness_bs_upper(psi2)
    spectra = [call for call in calls if not call[2]]
    assert len(spectra) == len(set(spectra)) == 2 * len(all_bipartitions(4))
    # Schmidt vectors only on the two best cuts: the mixer's and the probe's
    assert len([call for call in calls if call[2]]) == 2


# --- tilted-GHZ closed form -------------------------------------------------


def test_ghz_plus_bound_closed_form():
    # c = 1 gives (4-1)/4 = 3/4; c -> 0 gives 2
    assert conversion.ghz_plus_robustness_bound(0.0, 0.0, 0.0) == pytest.approx(0.75)
    assert conversion.ghz_plus_robustness_bound(math.pi / 2, 0.0, 0.0) == pytest.approx(2.0)


def test_ghz_plus_threshold():
    # at c = 3/7 the bound hits the budget 5/4 exactly
    alpha = math.acos(3 / 7)
    rep = conversion.ghz_plus_bound_report(alpha, 0.0, 0.0)
    assert rep["bound"] == pytest.approx(1.25, abs=1e-12)
    assert rep["within_budget"]
    assert rep["flag"] is None


def test_ghz_plus_report_flags_infeasible_angles():
    rep = conversion.ghz_plus_bound_report(math.pi / 2, math.pi / 2, 0.1)
    assert rep["bound"] == pytest.approx(2.0)
    assert not rep["within_budget"]
    assert rep["flag"] is not None


def test_w_to_tilted_ghz_deterministic_in_budget():
    angle = math.acos(0.5 ** (1 / 3))  # cos-product exactly 1/2
    bound = conversion.ghz_plus_robustness_bound(angle, angle, angle)
    cert = conversion.max_probability(
        w_state(),
        psi_ghz_plus(angle, angle, angle),
        conversion.FSP,
        measures.OptimizerOptions(seed=0),
        r_upper=bound,
    )
    assert cert.deterministic
