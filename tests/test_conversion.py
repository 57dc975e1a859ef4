import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from entactic import conversion, linalg, measures, report
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


def two_qubit_state(t):
    """cos(t)|00> + sin(t)|11>: G_BS = sin^2 t, robustness sin 2t."""
    return PureState(2, 2, np.array([math.cos(t), 0.0, 0.0, math.sin(t)]))


@pytest.mark.parametrize("factor,free", [(0.5, True), (2.0, False)])
def test_free_source_tolerance_edges(factor, free):
    src = two_qubit_state(math.asin(math.sqrt(factor * conversion.FREE_SOURCE_TOL)))
    if free:
        with pytest.raises(conversion.FreeSourceError):
            conversion.max_probability(src, ghz(2, 2), conversion.BSP)
    else:
        cert = conversion.max_probability(src, ghz(2, 2), conversion.BSP)
        assert cert.g_source == pytest.approx(factor * conversion.FREE_SOURCE_TOL, rel=1e-6)


def test_max_probability_fsp_needs_r_upper():
    with pytest.raises(ValueError):
        conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP)


def test_max_probability_fsp_with_supplied_bound():
    cert = conversion.max_probability(
        w_state(), ghz(3, 2), conversion.FSP, seed=3, r_upper=2.0
    )
    # g = 5/9, r = 2: p_max = (5/9) / ((4/9) * 2) = 5/8
    assert cert.p_max == pytest.approx(5 / 8, abs=1e-6)
    assert cert.provenance["r_route"] == "supplied-upper-bound"


@pytest.mark.parametrize(
    "r_upper,message",
    [(None, "needs a certified"), (math.nan, "finite and >= 0"), (-1.0, "finite and >= 0"),
     (math.inf, "finite and >= 0")],
)
def test_max_probability_checks_r_upper_before_measuring(monkeypatch, r_upper, message):
    def refuse(*args, **kwargs):
        raise AssertionError("measured before checking r_upper")

    for name in ("geometric_bs", "geometric_fs", "robustness_bs_upper"):
        monkeypatch.setattr(conversion, name, refuse)
    with pytest.raises(ValueError, match=message) as err:
        conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=r_upper)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("r_upper", [0.0, 0.5, 2.0])
def test_max_probability_bsp_refuses_r_upper(monkeypatch, r_upper):
    # the BSP bound is computed; a supplied one would be silently ignored
    def refuse(*args, **kwargs):
        raise AssertionError("measured before refusing r_upper")

    for name in ("geometric_bs", "geometric_fs", "robustness_bs_upper"):
        monkeypatch.setattr(conversion, name, refuse)
    with pytest.raises(ValueError, match="r_upper applies only to FSP") as err:
        conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP, r_upper=r_upper)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("factor,clamped", [(0.5, True), (2.0, False)])
def test_clamp_tolerance_edges(factor, clamped):
    # r_upper puts the FSP bound p_max = g / ((1 - g) r) factor * BUDGET_TOL below 1
    g = conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=1.0).g_source
    r = g / ((1.0 - g) * (1.0 - factor * conversion.BUDGET_TOL))
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=r)
    assert cert.deterministic is clamped
    if not clamped:
        assert cert.p_max == pytest.approx(1.0 - factor * conversion.BUDGET_TOL, abs=1e-15)


def test_clamp_keeps_a_p_max_1e_10_below_one():
    # a p_max of 1 - 1e-10 is reported as is; only rounding may lift it to 1
    g = conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=1.0).g_source
    r = g / ((1.0 - g) * (1.0 - 1e-10))
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=r)
    assert not cert.deterministic
    assert cert.p_max == pytest.approx(1.0 - 1e-10, abs=1e-15)


def test_max_probability_rejects_unknown_theory():
    with pytest.raises(ValueError):
        conversion.max_probability(w_state(), ghz(3, 2), "LOCC")


# --- mixer construction -----------------------------------------------------


def test_bs_mixer_reaches_separable_boundary():
    psi = random_state(3, 2, 21)
    mixer = conversion._bs_mixer_details(psi)
    s, cut = mixer.s, mixer.cut
    assert s == measures.robustness_bs_upper(psi).value
    boundary = (psi.density().entries + s * mixer.entries) / (1 + s)
    boundary = linalg.DensityMatrix(3, 2, (boundary + boundary.conj().T) / 2)
    assert linalg.min_pt_eigenvalue(boundary, sorted(cut.parties)) >= -1e-8
    # the mixer itself is separable across the construction cut
    assert is_ppt(linalg.DensityMatrix(3, 2, mixer.entries), sorted(cut.parties))


def test_bs_mixer_for_product_target_is_the_target():
    psi = product_state(3, 2, 6)
    mixer = conversion._bs_mixer_details(psi)
    assert measures.robustness_bs_upper(psi).value < conversion.FREE_TARGET_TOL
    assert np.allclose(mixer.entries, psi.density().entries, atol=1e-12)


@pytest.mark.parametrize("factor,free", [(0.5, True), (2.0, False)])
def test_free_target_tolerance_edges(factor, free):
    psi = two_qubit_state(math.asin(factor * conversion.FREE_TARGET_TOL) / 2)
    mixer = conversion._bs_mixer_details(psi)
    if free:
        assert measures.robustness_bs_upper(psi).value < conversion.FREE_TARGET_TOL
        # one product u_1 v_1 across the mixer's cut, within 1e-12 of the target
        assert mixer.u.shape[1] == mixer.vh.shape[0] == mixer.coefficients.size == 1
        assert mixer.weights.tolist() == [[1.0]] and mixer.s == 1.0
        assert np.max(np.abs(mixer.entries - psi.density().entries)) <= 1e-12
    else:
        assert mixer.s == pytest.approx(factor * conversion.FREE_TARGET_TOL, rel=1e-3)
        # the mixer holds only the cross products |01> and |10>
        assert mixer.entries[0, 0] == 0.0 and mixer.entries[1, 1].real > 0.4


FREE_TARGETS = [
    product_state(3, 2, 6),
    # free within FREE_TARGET_TOL, though entangled
    two_qubit_state(math.asin(0.5 * conversion.FREE_TARGET_TOL) / 2),
]


@pytest.mark.parametrize("psi", FREE_TARGETS)
def test_free_target_mixer_is_a_biseparable_pure_state(psi):
    mixer = conversion._bs_mixer_details(psi)
    assert np.linalg.matrix_rank(mixer.entries) == 1
    assert np.trace(mixer.entries).real == pytest.approx(1.0, abs=1e-15)
    rho = linalg.DensityMatrix.by_construction(psi.n, psi.d, mixer.entries)
    assert linalg.min_pt_eigenvalue(rho, sorted(mixer.cut.parties)) >= -1e-15


@pytest.mark.parametrize("factor,kept", [(0.5, False), (2.0, True)])
def test_schmidt_cutoff_edges(factor, kept):
    # two qutrits a|00> + a|11> + c|22>: the mixer's |02> weight a c / s is
    # there exactly when the coefficient c clears the cutoff
    c = factor * conversion.SCHMIDT_CUTOFF
    a = math.sqrt((1.0 - c * c) / 2)
    psi = PureState(2, 3, np.array([a, 0, 0, 0, a, 0, 0, 0, c]))
    mixer = conversion._bs_mixer_details(psi)
    assert mixer.s == pytest.approx(1.0, abs=1e-12)
    assert (mixer.entries[2, 2].real > 0) == kept


def record_floors(monkeypatch):
    """Spy on the boundary check: each call's mixer and floor."""
    floor, seen = conversion._boundary_pt_floor_from_factors, []

    def spy(psi, mixer):
        value = floor(psi, mixer)
        seen.append((mixer, value))
        return value

    monkeypatch.setattr(conversion, "_boundary_pt_floor_from_factors", spy)
    return seen


def corrupt_weights(monkeypatch, corruption):
    """Route the weights `_bs_mixer_details` stores through corruption(weights)."""
    make = conversion.SchmidtMixer

    def spy(n, d, cut, u, vh, coefficients, weights, s):
        return make(n, d, cut, u, vh, coefficients, corruption(weights.copy()), s)

    monkeypatch.setattr(conversion, "SchmidtMixer", spy)


def pt_minimum(psi, mixer):
    """The smallest eigenvalue of the materialized boundary mixture's full
    partial transpose across the mixer's cut, by eigvalsh."""
    boundary = (psi.density().entries + mixer.s * mixer.entries) / (1 + mixer.s)
    rho = linalg.DensityMatrix.by_construction(psi.n, psi.d, boundary)
    return linalg.min_pt_eigenvalue(rho, sorted(mixer.cut.parties))


def lower_first_pair_weight(t):
    """Lower w_01 so that the pair block [[w_01, a_0 a_1], [a_1 a_0, w_10]],
    over 1 + s, gets the eigenvalue -t: with w_10 = a_0 a_1 = w and
    T = t (1 + s), by x = (2 w T + T^2) / (w + T)."""

    def corruption(weights):
        # the weights a_i a_j sum to (sum a_i)^2 - 1 = s
        w, big_t = weights[0, 1], t * (1 + weights.sum())
        weights[0, 1] -= (2 * w * big_t + big_t**2) / (w + big_t)
        return weights

    return corruption


@pytest.mark.parametrize("factor,fails", [(0.5, False), (2.0, True)])
def test_boundary_ppt_tolerance_edges(monkeypatch, factor, fails):
    # one weight lowered until the boundary's partial transpose has the
    # eigenvalue -factor * BOUNDARY_PPT_TOL brings the floor to that value
    psi = random_state(3, 2, 21)
    delta = factor * conversion.BOUNDARY_PPT_TOL
    corrupt_weights(monkeypatch, lower_first_pair_weight(delta))
    seen = record_floors(monkeypatch)
    if fails:
        with pytest.raises(RuntimeError, match="boundary PPT"):
            conversion._bs_mixer_details(psi)
    else:
        assert conversion._bs_mixer_details(psi).s > 0
    (mixer, floor), = seen
    assert mixer.coefficients.size == 2
    assert floor == pytest.approx(-delta, abs=1e-15)
    assert pt_minimum(psi, mixer) == pytest.approx(-delta, abs=1e-15)


HAAR_TARGETS = [(n, 2, seed) for n in range(2, 7) for seed in range(3)] + [
    (n, 3, seed) for n in range(2, 5) for seed in range(3)
]


def test_boundary_floor_bounds_the_full_pt_spectrum(monkeypatch):
    seen = record_floors(monkeypatch)
    targets = [random_state(n, d, seed) for n, d, seed in HAAR_TARGETS]
    for psi in targets:
        conversion._bs_mixer_details(psi)
    assert len(seen) == len(HAAR_TARGETS) >= 20
    for psi, (mixer, floor) in zip(targets, seen):
        # the closed form is the full spectrum's minimum, less its charge
        assert floor == pytest.approx(pt_minimum(psi, mixer), abs=1e-15)


BELL = PureState(2, 2, np.array([1, 0, 0, 1]) / math.sqrt(2))


@pytest.mark.parametrize("psi", [BELL, random_state(2, 3, 5)])
def test_boundary_floor_is_the_pt_minimum_when_the_support_is_everything(monkeypatch, psi):
    seen = record_floors(monkeypatch)
    conversion._bs_mixer_details(psi)
    (mixer, floor), = seen
    assert mixer.coefficients.size**2 == psi.d**psi.n
    assert floor == pytest.approx(pt_minimum(psi, mixer), abs=1e-15)


@pytest.mark.parametrize("psi", [BELL, random_state(2, 3, 5), random_state(3, 2, 21)])
def test_boundary_floor_of_a_lifted_spectrum(monkeypatch, psi):
    # every weight raised by t (1 + s) lifts each block's spectrum by t, so
    # the floor reads t when the r^2 products span everything and 0 otherwise
    t = 1e-3
    corrupt_weights(monkeypatch, lambda weights: weights + t * (1 + weights.sum()))
    seen = record_floors(monkeypatch)
    conversion._bs_mixer_details(psi)
    (mixer, floor), = seen
    expected = t if mixer.coefficients.size**2 == psi.d**psi.n else 0.0
    assert floor == pytest.approx(expected, abs=1e-15)
    assert pt_minimum(psi, mixer) == pytest.approx(expected, abs=1e-15)


def qutrit_target(n, c, seed):
    """a|0>|f_0> + a|1>|f_1> + c|2>|f_2> with orthonormal Haar f_k on the
    other n - 1 qutrits: Schmidt coefficient c across the cut {1}."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3 ** (n - 1), 3)) + 1j * rng.normal(size=(3 ** (n - 1), 3))
    f = np.linalg.qr(g)[0].T
    a = math.sqrt((1.0 - c * c) / 2)
    return PureState(n, 3, np.concatenate([a * f[0], a * f[1], c * f[2]]))


@pytest.mark.parametrize("factor,rank", [(0.5, 2), (2.0, 3)])
@pytest.mark.parametrize("n", [2, 3])
def test_boundary_floor_with_a_coefficient_at_the_schmidt_cutoff(monkeypatch, n, factor, rank):
    # a dropped coefficient c leaves the target a component off the
    # factors, which the floor charges as 2 c + c^2
    c = factor * conversion.SCHMIDT_CUTOFF
    psi = qutrit_target(n, c, 8)
    seen = record_floors(monkeypatch)
    conversion._bs_mixer_details(psi)
    (mixer, floor), = seen
    assert mixer.cut == Bipartition(n, frozenset({1})) and mixer.coefficients.size == rank
    assert floor <= pt_minimum(psi, mixer) + 1e-15
    charged = 2 * c + c * c if rank == 2 else 0.0
    assert floor == pytest.approx(-charged, abs=1e-15)


def factors_from(psi, other):
    """`conversion.cut_matrix` with the matrix of the cut `other` in place
    of the one asked for, so the mixer's factors come from `other`."""
    return lambda state, cut: linalg.cut_matrix(psi, other)


def scale_first_pair_weight(weights, scale):
    weights[0, 1] *= scale
    return weights


@pytest.mark.parametrize("case", ["wrong weight", "negated weight", "wrong cut"])
@pytest.mark.parametrize("n,d,seed", [(3, 2, 0), (4, 2, 3), (3, 3, 2)])
def test_boundary_check_refuses_a_corrupted_mixer(monkeypatch, case, n, d, seed):
    psi = random_state(n, d, seed)
    cut = measures.robustness_bs_upper(psi).certificate
    other = next(c for c in all_bipartitions(n) if c != cut)
    if case == "wrong cut":
        monkeypatch.setattr(conversion, "cut_matrix", factors_from(psi, other))
    else:
        scale = 0.5 if case == "wrong weight" else -1.0
        corrupt_weights(monkeypatch, lambda weights: scale_first_pair_weight(weights, scale))
    seen = record_floors(monkeypatch)
    with pytest.raises(RuntimeError, match="boundary PPT"):
        conversion._bs_mixer_details(psi)
    (mixer, floor), = seen
    # refused by a margin far beyond BOUNDARY_PPT_TOL
    assert floor < -0.01
    if case != "wrong cut":
        # the full spectrum refuses these mixers too
        assert floor <= pt_minimum(psi, mixer) + 1e-15 and pt_minimum(psi, mixer) < -0.01


def old_mixer_entries(psi):
    """The mixer as built before it was kept as its factors: the rank-r^2
    GEMM in cut order, / s, reordered to party order, then hermitized."""
    bound = measures.robustness_bs_upper(psi)
    cut, s = bound.certificate, bound.value
    u, sv, vh = np.linalg.svd(linalg.cut_matrix(psi, cut), full_matrices=False)
    keep = sv > conversion.SCHMIDT_CUTOFF
    u, sv, vh = u[:, keep], sv[keep], vh[keep, :]
    products = (u.T[:, None, :, None] * vh[None, :, None, :]).reshape(len(sv) ** 2, -1)
    weights = np.outer(sv, sv)
    np.fill_diagonal(weights, 0.0)
    mix = (products.T * weights.reshape(-1)) @ products.conj()
    mix = linalg.from_cut_order(mix / s, cut, psi.d)
    return (mix + mix.conj().T) / 2


def test_materialized_mixer_is_the_old_construction():
    # bit for bit on the targets of the thm4 claim, at the seeds reproduce is run with
    for seed in (1, 7, 99, 2024, 12345):
        rng = np.random.default_rng(seed)
        for psi in report._haar_states(3, 2, rng, 4) + report._haar_states(3, 3, rng, 1):
            mixer = conversion._bs_mixer_details(psi)
            assert np.array_equal(mixer.entries, old_mixer_entries(psi))
    shapes = [(n, 2) for n in range(2, 10)] + [(n, 3) for n in range(2, 5)]
    for n, d in shapes:
        psi = random_state(n, d, 60 + n)
        mixer = conversion._bs_mixer_details(psi)
        assert np.max(np.abs(mixer.entries - old_mixer_entries(psi))) <= 1e-15


def test_a_build_holds_no_square_matrix():
    psi1, psi2 = random_state(11, 2, 41), random_state(11, 2, 42)
    cert = conversion.max_probability(psi1, psi2, conversion.BSP)
    tracemalloc.start()
    try:
        m = conversion.build_filter_map(cert, cert.p_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2048 x 2048 complex mixer alone is 67 MB
    assert peak < 16 * 2**20
    linalg.DensityMatrix(11, 2, m.mixer.entries)


def test_a_build_toward_a_product_target_holds_no_square_matrix(monkeypatch):
    psi1, psi2 = random_state(11, 2, 41), product_state(11, 2, 43)
    cert = conversion.max_probability(psi1, psi2, conversion.BSP)

    def refuse(self):
        raise AssertionError("built the target's density matrix")

    monkeypatch.setattr(PureState, "density", refuse)
    tracemalloc.start()
    try:
        m = conversion.build_filter_map(cert, cert.p_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the target as its own 2048 x 2048 mixer peaked at 64 MB
    assert peak < 2**20
    assert m.mixer.cut == measures.robustness_bs_upper(psi2).certificate


# --- channel construction and application -----------------------------------


def test_build_filter_map_rejects_p_above_certificate():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    with pytest.raises(ValueError, match="exceeds certified maximum"):
        conversion.build_filter_map(cert, 0.9)


def test_build_filter_map_carries_the_bs_mixer_and_cut(monkeypatch):
    details, calls = conversion._bs_mixer_details, []

    def spy(psi):
        calls.append(psi)
        return details(psi)

    # looked up as a module global at call time, so a patched binding is used
    monkeypatch.setattr(conversion, "_bs_mixer_details", spy)
    for psi1, psi2 in [(w_state(), ghz(3, 2)), (random_state(4, 2, 15), random_state(4, 2, 14))]:
        cert = conversion.max_probability(psi1, psi2, conversion.BSP)
        m = conversion.build_filter_map(cert, cert.p_max)
        assert m.cert is cert
        assert calls.pop() is psi2 and not calls
        mixer = details(psi2)
        assert m.mixer.cut == mixer.cut == measures.robustness_bs_upper(psi2).certificate
        assert np.array_equal(m.mixer.entries, mixer.entries)


def test_build_filter_map_refuses_fsp():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=2.0)
    with pytest.raises(ValueError, match="only the BSP route is automated") as err:
        conversion.build_filter_map(cert, 0.5)
    assert str(err.value) == conversion.FSP_BUILD_REFUSAL


@pytest.mark.parametrize("above,ok", [(False, True), (True, False)])
def test_build_filter_map_p_edges(above, ok):
    # p_max itself is accepted, and the next float above it is not
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    p = math.nextafter(cert.p_max, math.inf) if above else cert.p_max
    if ok:
        assert conversion.build_filter_map(cert, p).p == p
    else:
        with pytest.raises(ValueError, match="exceeds certified maximum"):
            conversion.build_filter_map(cert, p)


def test_preparation_map_rejects_bad_p():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    mixer = conversion._bs_mixer_details(ghz(3, 2))
    with pytest.raises(ValueError):
        conversion.PreparationMap(cert, p=0.0, mixer=mixer)


def test_preparation_map_holds_only_its_certificate_p_and_mixer():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    fields = [f.name for f in dataclasses.fields(conversion.PreparationMap)]
    assert fields == ["cert", "p", "mixer"]
    assert "deterministic" not in [f.name for f in dataclasses.fields(cert)]
    # deterministic follows p_max, so the two cannot disagree
    assert not cert.deterministic and cert.p_max < 1.0
    assert dataclasses.replace(cert, p_max=1.0).deterministic
    assert not dataclasses.replace(cert, p_max=0.999).deterministic
    # the mixer must act on the target's system
    with pytest.raises(linalg.ShapeError):
        conversion.PreparationMap(cert, p=0.5, mixer=ghz(4, 2).density())


@pytest.mark.parametrize("theory, r_upper", [(conversion.BSP, None), (conversion.FSP, 2.0)])
def test_max_probability_rejects_mismatched_systems_before_measuring(monkeypatch, theory, r_upper):
    def refuse(*args, **kwargs):
        raise AssertionError("measured a state of a mismatched pair")

    for name in ("geometric_bs", "geometric_fs", "robustness_bs_upper"):
        monkeypatch.setattr(conversion, name, refuse)
    for psi1, psi2 in [(ghz(3, 2), ghz(4, 2)), (ghz(3, 2), ghz(3, 3))]:
        with pytest.raises(linalg.ShapeError, match="differ"):
            conversion.max_probability(psi1, psi2, theory, r_upper=r_upper)


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


def test_batch_overlaps_match_single_draws():
    # the batched einsum path must agree in distribution with direct overlap
    psi = random_state(3, 2, 12)
    rng = np.random.default_rng(0)
    qs = conversion._batch_free_overlaps(psi, conversion.FSP, 500, rng)
    assert np.all(qs >= 0) and np.all(qs <= 1 + 1e-12)
    # overlaps with products cannot exceed the squared maximal product overlap
    gfs = measures.geometric_fs(psi, seed=1).value
    assert np.max(qs) <= (1 - gfs) + 1e-6


def test_batch_bsp_overlaps_stay_below_the_bs_measure():
    # a biseparable pure state overlaps psi by at most 1 - G_BS (exact)
    psi = random_state(4, 2, 13)
    rng = np.random.default_rng(0)
    qs = conversion._batch_free_overlaps(psi, conversion.BSP, 500, rng)
    gbs = measures.geometric_bs(psi).value
    assert np.all(qs >= 0) and np.all(qs <= 1 - gbs + 1e-12)


def count_stream_haar(rng, dim, count):
    """count Haar vectors as rows, drawn as both audit samplers draw: count *
    dim normals for the real parts, then count * dim for the imaginary parts;
    each row is divided by its np.linalg.norm."""
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def reference_fsp_overlaps(psi1, k, rng):
    """The FSP sampler as first written: normalized Haar vectors per party,
    in party order, contracted with psi1 one party at a time."""
    x = np.tensordot(count_stream_haar(rng, psi1.d, k).conj(), psi1.tensor(), axes=([1], [0]))
    for _ in range(psi1.n - 1):
        x = np.einsum("ki...,ki->k...", x, count_stream_haar(rng, psi1.d, k).conj())
    return np.abs(x) ** 2


@pytest.mark.parametrize(
    "n, d, k",
    [(n, 2, 20_000) for n in range(2, 7)] + [(3, 3, 20_000), (4, 3, 20_000), (3, 2, 1), (3, 2, 0)],
)
def test_fsp_sampler_keeps_the_reference_stream(n, d, k):
    psi = random_state(n, d, 60 + n + d)
    rng_ref, rng_new = np.random.default_rng(k + n), np.random.default_rng(k + n)
    expected = reference_fsp_overlaps(psi, k, rng_ref)
    got = conversion._batch_free_overlaps(psi, conversion.FSP, k, rng_new)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    # the same product states sampled: the same numbers drawn, in the same order
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def two_sided_bsp_overlaps(a_mat, m, rng):
    """The BSP sampler as first written, for one cut: normalized Haar vectors
    on both sides and one three-operand einsum.  It is the oracle for the
    law of the one-sided sampler."""
    left = count_stream_haar(rng, a_mat.shape[0], m)
    right = count_stream_haar(rng, a_mat.shape[1], m)
    return np.abs(np.einsum("ki,ij,kj->k", left.conj(), a_mat, right.conj())) ** 2


def reference_bsp_overlaps(psi1, k, rng):
    """The BSP draw order written out: the multinomial cut counts, then for
    each cut with m > 0 samples and a smaller side of dimension dS, the rows
    on a balanced cut: if m < dS, that side's normals (2, m, dS) and the
    ratio |A^T conj(l)|^2 / |l|^2 formed explicitly; if m >= dS, exponentials
    (m, dS) weighting the squared singular values of A in ascending order;
    then m uniforms.  The overlap is the ratio times the inverse-CDF
    Beta(1, D - 1) draw."""
    cuts = all_bipartitions(psi1.n)
    counts = rng.multinomial(k, [1 / len(cuts)] * len(cuts))
    out = [np.empty(0)]
    for cut, m in zip(cuts, counts):
        if m == 0:
            continue
        a_mat = linalg.cut_matrix(psi1, cut)
        if a_mat.shape[0] > a_mat.shape[1]:
            a_mat = a_mat.T
        if m < a_mat.shape[0]:
            g = rng.standard_normal((2, m, a_mat.shape[0]))
            small = g[0] + 1j * g[1]
            v = small.conj() @ a_mat
            ratio = np.sum(np.abs(v) ** 2, axis=1) / np.sum(np.abs(small) ** 2, axis=1)
        else:
            mu = np.linalg.svd(a_mat, compute_uv=False)[::-1] ** 2
            e = rng.standard_exponential((m, a_mat.shape[0]))
            ratio = np.sum(e * mu, axis=1) / np.sum(e, axis=1)
        beta = -np.expm1(np.log1p(-rng.random(m)) / (a_mat.shape[1] - 1))
        out.append(ratio * beta)
    return np.concatenate(out)


class RecordingRng:
    """A generator that logs each draw's method and its size or count."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def logged(*args):
            self.calls.append((name, args[0]))
            return draw(*args)

        return logged


@pytest.mark.parametrize(
    "n, d, k",
    # k = 1 and k = 0; fewer samples than cuts (3 at n = 3, 7 at n = 4);
    # n = 4 has balanced 4 x 4 cuts, where the rows are the explicit side;
    # at k = 40 on 5 qubits some cuts draw normals and others exponentials
    [(3, 2, 5000), (3, 3, 5000), (4, 2, 5000), (3, 2, 2), (3, 3, 1), (4, 2, 5), (3, 2, 0),
     (5, 2, 40)],
)
def test_bsp_sampler_pins_its_draw_order(n, d, k):
    psi = random_state(n, d, 40 + n + d)
    cuts = all_bipartitions(n)
    rng_ref, rng_new = RecordingRng(k), RecordingRng(k)
    expected = reference_bsp_overlaps(psi, k, rng_ref)
    got = conversion._batch_free_overlaps(psi, conversion.BSP, k, rng_new)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    # the same draws, call for call, and the generator left in the same state
    assert rng_new.calls == rng_ref.calls
    assert rng_new.rng.bit_generator.state == rng_ref.rng.bit_generator.state
    counts = np.random.default_rng(k).multinomial(k, [1 / len(cuts)] * len(cuts))
    assert len(rng_new.calls) == 1 + 2 * np.count_nonzero(counts)
    if k > 1000:
        # every cut got samples, the balanced ones too: both their sides are
        # 4, so only the values tell that the rows were drawn
        assert counts.min() > 0
    if k == 40:
        assert {"standard_normal", "standard_exponential"} <= {name for name, _ in rng_new.calls}


@pytest.mark.parametrize(
    "psi",
    [random_state(3, 2, 71), random_state(4, 2, 72), random_state(2, 3, 73),
     random_state(3, 3, 74), w_state()],
)
def test_bsp_sampler_keeps_the_two_sided_law(psi):
    # per cut, the one-sided overlaps follow the two-sided sampler's law,
    # whose mean is E|<l|A|r>|^2 = tr(A A^dag) / (dA dB) = 1 / (dA dB)
    from scipy.stats import ks_2samp

    m = 4000
    rng_new, rng_old = np.random.default_rng(psi.n * psi.d), np.random.default_rng(99)
    for cut in all_bipartitions(psi.n):
        a_mat = linalg.cut_matrix(psi, cut)
        new = conversion._cut_free_overlaps(a_mat, m, rng_new)
        old = two_sided_bsp_overlaps(a_mat, m, rng_old)
        assert ks_2samp(new, old).pvalue > 1e-3, cut
        stderr = np.std(new, ddof=1) / math.sqrt(m)
        assert abs(np.mean(new) - 1 / a_mat.size) < 5 * stderr, cut


@pytest.mark.parametrize(
    "n, d, parties",
    [(4, 2, {1, 2}), (6, 2, {1, 2, 3}), (4, 3, {1, 2}), (5, 2, {1, 2, 3})],
)
def test_bsp_sampler_below_the_gram_keeps_the_two_sided_law(n, d, parties):
    # m = dS - 1 samples per call draw the smaller side's vectors, not Gram
    # weights; 4000 of them from repeated calls follow the two-sided law,
    # with its mean 1 / (dA dB).  The cut matrix is oriented as the audit
    # orients it, the cut's `side` as rows, so the 5-qubit case draws on the
    # transpose of its cut matrix
    from scipy.stats import ks_2samp

    cut = Bipartition(n, frozenset(parties))
    a_mat = linalg.cut_matrix(random_state(n, d, 78 + n + d), cut)
    a_mat = a_mat if cut.side == cut.parties else a_mat.T
    m, total = min(a_mat.shape) - 1, 4000
    rng_new, rng_old = np.random.default_rng(n * d), np.random.default_rng(98)
    calls = -(-total // m)
    new = np.concatenate([conversion._cut_free_overlaps(a_mat, m, rng_new) for _ in range(calls)])
    new = new[:total]
    old = two_sided_bsp_overlaps(a_mat, total, rng_old)
    assert ks_2samp(new, old).pvalue > 1e-3
    stderr = np.std(new, ddof=1) / math.sqrt(total)
    assert abs(np.mean(new) - 1 / a_mat.size) < 5 * stderr


@pytest.mark.parametrize("n, d, parties", [(4, 2, {1, 2}), (3, 3, {1}), (5, 2, {1, 2})])
def test_bsp_sampler_branches_at_the_smaller_dimension(n, d, parties):
    # fewer samples than dS draw the vectors; dS or more, one Gram weight
    # per eigenvalue; the larger side's uniforms come last on both branches
    a_mat = linalg.cut_matrix(random_state(n, d, 79), Bipartition(n, frozenset(parties)))
    ds = min(a_mat.shape)
    below, at = RecordingRng(0), RecordingRng(1)
    conversion._cut_free_overlaps(a_mat, ds - 1, below)
    conversion._cut_free_overlaps(a_mat, ds, at)
    assert below.calls == [("standard_normal", (2, ds - 1, ds)), ("random", ds - 1)]
    assert at.calls == [("standard_exponential", (ds, ds)), ("random", ds)]


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (4, 3)])
def test_bsp_audit_draws_on_each_cuts_side(n, d):
    # each cut with m samples draws normals (2, m, d^|side|) or exponentials
    # (m, d^|side|), then m uniforms; k = 5, 40 and 400 reach both branches
    psi = random_state(n, d, 80 + n + d)
    cuts = all_bipartitions(n)
    branches = set()
    for k in (5, 40, 400):
        rng = RecordingRng(k)
        conversion._batch_free_overlaps(psi, conversion.BSP, k, rng)
        counts = np.random.default_rng(k).multinomial(k, [1 / len(cuts)] * len(cuts))
        drawn = [(cut, m) for cut, m in zip(cuts, counts) if m]
        assert rng.calls[0] == ("multinomial", k) and len(rng.calls) == 1 + 2 * len(drawn)
        for (cut, m), (name, shape), uniforms in zip(drawn, rng.calls[1::2], rng.calls[2::2]):
            ds = d ** len(cut.side)
            if m < ds:
                assert (name, shape) == ("standard_normal", (2, m, ds))
            else:
                assert (name, shape) == ("standard_exponential", (m, ds))
            assert uniforms == ("random", m)
            branches.add(name)
    assert branches == {"standard_normal", "standard_exponential"}


def test_bsp_sampler_takes_no_decomposition(monkeypatch):
    # the audit stays independent of the Schmidt spectra behind g: it takes
    # no SVD and reads no memoized spectrum, only its own Gram eigenvalues
    def refuse(*args, **kwargs):
        raise AssertionError("the audit took a Schmidt decomposition")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(linalg, "schmidt_spectrum", refuse)
    monkeypatch.setattr(conversion, "schmidt_spectrum", refuse)
    psi = random_state(5, 2, 75)
    # 2000 samples take the Gram branch on all 15 cuts, 20 the normals on some
    for k in (2000, 20):
        qs = conversion._batch_free_overlaps(psi, conversion.BSP, k, np.random.default_rng(0))
        assert qs.shape == (k,)


@pytest.mark.parametrize("psi", [ghz(4, 2), ghz(3, 3), product_state(4, 2, 76)])
def test_bsp_overlaps_are_nonnegative_on_rank_deficient_marginals(psi):
    # exact zeros in GHZ(4, 2)'s Grams; eigvalsh rounds some of the product
    # state's below 0; 20000 samples take the Gram branch on every cut, and
    # 5 leave some cut fewer samples than its dS, so it draws the vectors
    gbs = measures.geometric_bs(psi).value
    for k in (20_000, 5):
        qs = conversion._batch_free_overlaps(psi, conversion.BSP, k, np.random.default_rng(1))
        assert np.all(qs >= 0) and np.all(qs <= 1 - gbs + 1e-12)


def test_bsp_overlaps_clip_the_rounded_form_at_zero():
    # a product state's 2 x 8 cut matrix is u w^T, so its Gram has rank 1,
    # and eigvalsh rounds the zero eigenvalue to about -1e-16; weight every
    # sample on that eigenvalue alone and the clipped overlap is exactly 0
    a_mat = linalg.cut_matrix(product_state(4, 2, 77), Bipartition(4, frozenset({1})))
    assert np.linalg.eigvalsh(a_mat @ a_mat.conj().T)[0] < 0
    rng = np.random.default_rng(3)

    class ZeroEigenvalueDraws:
        random = rng.random

        def standard_exponential(self, shape):
            e = np.zeros(shape)
            e[:, 0] = rng.standard_exponential(shape[0])
            return e

    qs = conversion._cut_free_overlaps(a_mat, 1000, ZeroEigenvalueDraws())
    assert np.all(qs == 0)


@pytest.mark.parametrize(
    "psi1, psi2",
    [(w_state(), ghz(3, 2))]
    + [(random_state(n, d, 2 * j), random_state(n, d, 2 * j + 1))
       for j, (n, d) in enumerate([(3, 2), (4, 2), (3, 3), (7, 2)], start=25)],
)
def test_the_probe_sets_the_worst_margins(psi1, psi2):
    # sampled free inputs never beat the extremal probe, so a BSP audit at
    # p_max reports the margins of its sample 0 whatever the sample count;
    # 300 samples over the 63 cuts of 7 qubits leave most 3 | 4 cuts fewer
    # than their dS = 8, so those cuts draw vectors, not Gram weights
    cert = conversion.max_probability(psi1, psi2, conversion.BSP)
    m = conversion.build_filter_map(cert, cert.p_max)
    for seed, samples in ((0, 10_000), (7, 10_000), (0, 300), (7, 300)):
        many = conversion.verify_preservation_sampled(m, samples, seed)
        one = conversion.verify_preservation_sampled(m, 1, seed)
        assert many.violations == one.violations == 0
        assert many.worst_overlap_margin == one.worst_overlap_margin
        assert many.worst_ratio_margin == one.worst_ratio_margin


def test_extremal_probe_attains_the_measure():
    psi = w_state()
    cert = conversion.max_probability(psi, ghz(3, 2), conversion.BSP)
    m = conversion.build_filter_map(cert, cert.p_max)
    probe = conversion._extremal_free_overlap(m, seed=0)
    assert probe == pytest.approx(1 - cert.g_source, abs=1e-9)


def test_fsp_probe_uses_the_audit_seed(monkeypatch):
    psi1 = random_state(3, 2, 21)
    cert = conversion.max_probability(psi1, w_state(), conversion.FSP, r_upper=2.0)
    m = conversion.PreparationMap(cert, p=0.1, mixer=measures.w_robustness_mixer())
    seeds = []

    def spy(psi, seed=measures.DEFAULT_SEED):
        seeds.append(seed)
        return measures.geometric_fs(psi, seed)

    monkeypatch.setattr(conversion, "geometric_fs", spy)
    for seed in (0, 9):
        probe = conversion._extremal_free_overlap(m, seed)
        gfs = measures.geometric_fs(psi1, seed).value
        assert probe == pytest.approx(1 - gfs, abs=1e-12)
    conversion.verify_preservation_sampled(m, 1, seed=5)
    assert seeds == [0, 9, 5]


def test_preservation_fails_above_certified_p():
    psi2 = random_state(3, 2, 33)
    cert = conversion.max_probability(w_state(), psi2, conversion.BSP)
    mixer = conversion._bs_mixer_details(psi2)
    if cert.p_max >= 1.0:
        pytest.skip("target too weak to exceed the budget")
    over = conversion.PreparationMap(cert, p=min(1.0, 1.5 * cert.p_max), mixer=mixer)
    rep = conversion.verify_preservation_sampled(over, 2000, seed=1)
    assert rep.violations >= 1


def test_preservation_report_fields():
    m = conversion.ghz_to_any_bsp(random_state(3, 2, 2))
    rep = conversion.verify_preservation_sampled(m, 50, seed=3)
    assert rep.samples == 50
    assert math.isfinite(rep.worst_overlap_margin)
    with pytest.raises(ValueError):
        conversion.verify_preservation_sampled(m, 0, seed=3)


@pytest.mark.parametrize("excess, violations", [(0.5, 0), (2.0, 1)])
def test_audit_tolerance_edges(excess, violations):
    # a free input beyond either inequality by excess * AUDIT_TOL
    m = conversion.ghz_to_any_bsp(w_state())
    q = conversion._extremal_free_overlap(m, seed=0)
    slack = excess * conversion.AUDIT_TOL
    overlap_edge = dataclasses.replace(
        m, cert=dataclasses.replace(m.cert, g_source=1 - q + slack, r_target=0.0)
    )
    ratio_edge = dataclasses.replace(
        m, cert=dataclasses.replace(m.cert, g_source=0.0, r_target=(1 / q - 1) / m.p + slack)
    )
    for edge in (overlap_edge, ratio_edge):
        assert conversion.verify_preservation_sampled(edge, 1, seed=0).violations == violations


def test_each_cut_is_decomposed_once_per_state(monkeypatch):
    psi1, psi2 = random_state(4, 2, 31), random_state(4, 2, 32)
    svd, calls = np.linalg.svd, []
    cut_matrix, built = linalg.cut_matrix, []
    best_cut, walks = measures._best_cut, []

    def spy(a, *args, **kwargs):
        calls.append((a.shape, a.tobytes(), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def spy_cut_matrix(psi, cut):
        built.append((id(psi), cut))
        return cut_matrix(psi, cut)

    def spy_best_cut(psi, score, bound):
        # the score names the measure: a lambda of geometric_bs, or
        # robustness_bipartite_pure for robustness_bs_upper
        walks.append((id(psi), score.__qualname__))
        return best_cut(psi, score, bound)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(measures, "_best_cut", spy_best_cut)
    # the cut matrices that spectra and purities are taken from
    monkeypatch.setattr(linalg, "cut_matrix", spy_cut_matrix)
    cert = conversion.max_probability(psi1, psi2, conversion.BSP)
    m = conversion.build_filter_map(cert, cert.p_max)
    conversion._extremal_free_overlap(m, seed=0)
    spectra = [call for call in calls if not call[2]]
    # at most one spectrum per (state, cut), though each measure ran twice
    assert len(spectra) == len(set(spectra)) <= 2 * len(all_bipartitions(4))
    # a Gram and a spectrum at most on each (state, cut)
    assert max(built.count(key) for key in built) <= 2
    done = len(calls), len(built)
    measures.geometric_bs(psi1)
    measures.robustness_bs_upper(psi2)
    # repeated measures take no new SVD and no new Gram
    assert (len(calls), len(built)) == done
    # Schmidt vectors only on the two best cuts: the mixer's and the probe's
    assert len([call for call in calls if call[2]]) == 2
    # one walk over the cuts per (state, measure): the certificate's, whose
    # results the mixer, the probe and the repeated measures read
    assert sorted(walks) == sorted(
        [(id(psi1), "geometric_bs.<locals>.<lambda>"), (id(psi2), "robustness_bipartite_pure")]
    )


@pytest.mark.parametrize("factor, audited", [(0.5, False), (2.0, True)])
def test_overlap_floor_edges(monkeypatch, factor, audited):
    # a free input overlapping psi1 at most OVERLAP_FLOOR bounds no mixing weight
    m = conversion.ghz_to_any_bsp(w_state())
    q = factor * conversion.OVERLAP_FLOOR
    monkeypatch.setattr(conversion, "_extremal_free_overlap", lambda prep_map, seed: q)
    rep = conversion.verify_preservation_sampled(m, 1, seed=0)
    assert rep.violations == 0
    assert math.isfinite(rep.worst_ratio_margin) is audited


def reference_report(q, cert, p):
    # the reduction as it stood before the report was read from max(q):
    # both margins of every sample, then one count and two minima
    g, r = cert.g_source, cert.r_target
    overlap_margin = (1.0 - g) + conversion.AUDIT_TOL - q
    pos = q > conversion.OVERLAP_FLOOR
    s_out = np.full(q.size, math.inf)
    s_out[pos] = (1.0 / p) * (1.0 / q[pos] - 1.0)
    ratio_margin = s_out - (r - conversion.AUDIT_TOL)
    bad = (overlap_margin < 0) | (ratio_margin < 0)
    finite_ratio = ratio_margin[np.isfinite(ratio_margin)]
    return conversion.PreservationReport(
        samples=q.size,
        violations=int(np.count_nonzero(bad)),
        worst_overlap_margin=float(np.min(overlap_margin)),
        worst_ratio_margin=float(np.min(finite_ratio)) if finite_ratio.size else math.inf,
    )


def audited_overlaps(m, samples, seed):
    # the probe, then the samples in the audit's draw order
    q = np.empty(samples)
    q[0] = conversion._extremal_free_overlap(m, seed)
    if samples > 1:
        rng = np.random.default_rng(seed)
        q[1:] = conversion._batch_free_overlaps(m.cert.psi1, m.cert.theory, samples - 1, rng)
    return q


def audited_map(theory, over):
    # p = p_max, or 1.5 p_max, above the certificate
    if theory == conversion.BSP:
        cert = conversion.max_probability(random_state(4, 2, 61), random_state(4, 2, 62), theory)
        mixer = conversion._bs_mixer_details(cert.psi2)
    else:
        psi1 = random_state(3, 2, 21)
        cert = conversion.max_probability(psi1, w_state(), theory, r_upper=2.0)
        mixer = measures.w_robustness_mixer()
    assert cert.p_max < 2 / 3
    return conversion.PreparationMap(cert, p=1.5 * cert.p_max if over else cert.p_max, mixer=mixer)


@pytest.mark.parametrize("samples", [1, 2, 2000, 10**5])
@pytest.mark.parametrize("over", [False, True], ids=["p_max", "1.5p_max"])
@pytest.mark.parametrize("theory", [conversion.BSP, conversion.FSP])
def test_the_report_from_max_q_is_the_full_reduction(theory, over, samples):
    m = audited_map(theory, over)
    rep = conversion.verify_preservation_sampled(m, samples, seed=11)
    assert rep == reference_report(audited_overlaps(m, samples, 11), m.cert, m.p)
    # above p_max the probe itself violates
    assert (rep.violations >= 1) is over


def probe_at(edge, cert):
    at = (1.0 - cert.g_source) + conversion.AUDIT_TOL
    return {
        "overlap-edge": at,
        "one-ulp-below": np.nextafter(at, 0.0),
        "one-ulp-above": np.nextafter(at, 2.0),
        "overlap-floor": conversion.OVERLAP_FLOOR,
    }[edge]


@pytest.mark.parametrize("edge", ["overlap-edge", "one-ulp-below", "one-ulp-above", "overlap-floor"])
@pytest.mark.parametrize("samples", [1, 2, 2000])
@pytest.mark.parametrize("theory", [conversion.BSP, conversion.FSP])
def test_the_report_from_max_q_at_the_probe_edges(monkeypatch, theory, samples, edge):
    # r = 0 leaves the overlap inequality the only one a probe below 1 can fail
    m = audited_map(theory, False)
    m = dataclasses.replace(m, cert=dataclasses.replace(m.cert, r_target=0.0))
    probe = probe_at(edge, m.cert)
    monkeypatch.setattr(conversion, "_extremal_free_overlap", lambda prep_map, seed: probe)
    rep = conversion.verify_preservation_sampled(m, samples, seed=4)
    assert rep == reference_report(audited_overlaps(m, samples, 4), m.cert, m.p)
    assert (rep.violations >= 1) is (edge == "one-ulp-above")


def test_an_audit_holds_one_sample_vector():
    cert = conversion.max_probability(random_state(7, 2, 63), random_state(7, 2, 64), conversion.BSP)
    m = conversion.build_filter_map(cert, cert.p_max)
    conversion.verify_preservation_sampled(m, 10, seed=0)
    tracemalloc.start()
    try:
        rep = conversion.verify_preservation_sampled(m, 10**5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.violations == 0
    # the 10^5 overlaps take 8e5 bytes; a reduction over every sample's
    # margins peaked at 5.4 times that
    assert peak < 2 * 8 * 10**5


# --- tilted-GHZ closed form -------------------------------------------------


def test_ghz_plus_bound_closed_form():
    # c = 1 gives (4-1)/4 = 3/4; c -> 0 gives 2
    assert conversion.ghz_plus_bound_report(0.0, 0.0, 0.0)["bound"] == pytest.approx(0.75)
    assert conversion.ghz_plus_bound_report(math.pi / 2, 0.0, 0.0)["bound"] == pytest.approx(2.0)


def test_ghz_plus_threshold():
    # at c = 3/7 the bound hits the budget 5/4 exactly
    alpha = math.acos(3 / 7)
    rep = conversion.ghz_plus_bound_report(alpha, 0.0, 0.0)
    assert rep["bound"] == pytest.approx(1.25, abs=1e-12)
    assert rep["within_budget"]
    assert rep["flag"] is None


@pytest.mark.parametrize("factor, within", [(0.5, True), (2.0, False)])
def test_ghz_plus_budget_tolerance_edges(factor, within):
    # (4 - c) / (2 (1 + c)) = 5/4 + e at c = (3/2 - 2e) / (7/2 + 2e)
    e = factor * conversion.BUDGET_TOL
    alpha = math.acos((1.5 - 2 * e) / (3.5 + 2 * e))
    rep = conversion.ghz_plus_bound_report(alpha, 0.0, 0.0)
    assert rep["bound"] == pytest.approx(conversion.W_BUDGET + e, abs=1e-15)
    assert rep["within_budget"] is within
    assert (rep["flag"] is None) is within


def test_ghz_plus_threshold_is_where_the_bound_meets_the_budget():
    assert conversion.GHZ_PLUS_DETERMINISTIC_THRESHOLD == 3.0 / 7.0


@pytest.mark.parametrize("angle", [0.0, math.pi / 2])
def test_ghz_plus_bound_accepts_both_range_edges(angle):
    rep = conversion.ghz_plus_bound_report(angle, angle, angle)
    assert 0.0 <= rep["cos_product"] <= 1.0


@pytest.mark.parametrize(
    "angles",
    [(-5e-324, 0.0, 0.0), (0.0, math.nextafter(math.pi / 2, 4), 0.0), (math.pi, 0.0, 0.0),
     (2.0, 0.1, 0.1), (0.0, 0.0, math.nan), (math.inf, 0.0, 0.0)],
)
def test_ghz_plus_bound_refuses_angles_outside_the_family(angles):
    # (pi, 0, 0) has cos-product -1, and 2.0 is an angle psi_ghz_plus refuses
    with pytest.raises(ValueError, match=r"angles must lie in \[0, pi/2\]") as err:
        conversion.ghz_plus_bound_report(*angles)
    assert "\n" not in str(err.value)


def test_ghz_plus_report_flags_infeasible_angles():
    rep = conversion.ghz_plus_bound_report(math.pi / 2, math.pi / 2, 0.1)
    assert rep["bound"] == pytest.approx(2.0)
    assert not rep["within_budget"]
    assert rep["flag"] is not None


def test_w_to_tilted_ghz_deterministic_in_budget():
    angle = math.acos(0.5 ** (1 / 3))  # cos-product exactly 1/2
    bound = conversion.ghz_plus_bound_report(angle, angle, angle)["bound"]
    cert = conversion.max_probability(
        w_state(),
        psi_ghz_plus(angle, angle, angle),
        conversion.FSP,
        seed=0,
        r_upper=bound,
    )
    assert cert.deterministic
