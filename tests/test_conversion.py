import dataclasses
import itertools
import math

import numpy as np
import pytest

from entactic import conversion, linalg, measures
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
    # r_upper puts the FSP bound p_max = g / ((1 - g) r) factor * _CLAMP_TOL below 1
    g = conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=1.0).g_source
    r = g / ((1.0 - g) * (1.0 - factor * conversion._CLAMP_TOL))
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=r)
    assert cert.deterministic is clamped
    if not clamped:
        assert cert.p_max == pytest.approx(1.0 - factor * conversion._CLAMP_TOL, abs=1e-15)


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


@pytest.mark.parametrize("factor,free", [(0.5, True), (2.0, False)])
def test_free_target_tolerance_edges(factor, free):
    psi = two_qubit_state(math.asin(factor * conversion.FREE_TARGET_TOL) / 2)
    mixer, s, _ = conversion._bs_mixer_details(psi)
    if free:
        assert s == 0.0 and np.array_equal(mixer.entries, psi.density().entries)
    else:
        assert s == pytest.approx(factor * conversion.FREE_TARGET_TOL, rel=1e-3)
        # the mixer holds only the cross products |01> and |10>
        assert mixer.entries[0, 0] == 0.0 and mixer.entries[1, 1].real > 0.4


@pytest.mark.parametrize("factor,kept", [(0.5, False), (2.0, True)])
def test_schmidt_cutoff_edges(factor, kept):
    # two qutrits a|00> + a|11> + c|22>: the mixer's |02> weight a c / s is
    # there exactly when the coefficient c clears the cutoff
    c = factor * conversion.SCHMIDT_CUTOFF
    a = math.sqrt((1.0 - c * c) / 2)
    psi = PureState(2, 3, np.array([a, 0, 0, 0, a, 0, 0, 0, c]))
    mixer, s, _ = conversion._bs_mixer_details(psi)
    assert s == pytest.approx(1.0, abs=1e-12)
    assert (mixer.entries[2, 2].real > 0) == kept


def record_floors(monkeypatch):
    """Spy on the boundary check: each call's boundary, cut, kept Schmidt
    rank and floor."""
    floor, seen = conversion._boundary_pt_floor, []

    def spy(boundary, cut, u, vh):
        value = floor(boundary, cut, u, vh)
        seen.append((boundary, cut, u.shape[1], value))
        return value

    monkeypatch.setattr(conversion, "_boundary_pt_floor", spy)
    return seen


def pt_minimum(boundary, cut):
    """The smallest eigenvalue of the full partial transpose, by eigvalsh."""
    return linalg.min_pt_eigenvalue(boundary, sorted(cut.parties))


def party_order_product(a, b, cut, d):
    return linalg.from_cut_order(linalg.kron_vectors([a, b]), cut, d)


def subtract_from_pt(monkeypatch, vec, delta):
    """Make the check's partial transpose delta |vec><vec| smaller."""
    pt = conversion.partial_transpose
    monkeypatch.setattr(
        conversion,
        "partial_transpose",
        lambda rho, subset: pt(rho, subset) - delta * np.outer(vec, vec.conj()),
    )


def pt_kernel_vectors(psi, cut):
    """Unit vectors that the boundary's partial transpose maps to 0: one on
    the support (conj(u_0) v_1 - conj(u_1) v_0) / sqrt(2), and one off it, a
    product with a Schmidt vector of zero weight on the larger side."""
    u, sv, vh = np.linalg.svd(linalg.cut_matrix(psi, cut))  # every Schmidt vector
    on = party_order_product(u[:, 0].conj(), vh[1], cut, psi.d)
    on = (on - party_order_product(u[:, 1].conj(), vh[0], cut, psi.d)) / math.sqrt(2)
    r = len(sv)
    if u.shape[0] > r:
        off = party_order_product(u[:, r].conj(), vh[0], cut, psi.d)
    else:
        off = party_order_product(u[:, 0].conj(), vh[r], cut, psi.d)
    return on, off


@pytest.mark.parametrize("factor,fails", [(0.5, False), (2.0, True)])
def test_boundary_ppt_tolerance_edges(monkeypatch, factor, fails):
    # an eigenvalue -factor * BOUNDARY_PPT_TOL, on the Schmidt support or off it,
    # brings the floor to that value
    psi = random_state(3, 2, 21)
    cut = measures.robustness_bs_upper(psi).certificate
    delta = factor * conversion.BOUNDARY_PPT_TOL
    for vec in pt_kernel_vectors(psi, cut):
        with monkeypatch.context() as patch:
            subtract_from_pt(patch, vec, delta)
            seen = record_floors(patch)
            if fails:
                with pytest.raises(RuntimeError, match="boundary PPT"):
                    conversion._bs_mixer_details(psi)
            else:
                assert conversion._bs_mixer_details(psi)[1] > 0
            (boundary, _, rank, floor), = seen
            assert rank == 2
            shifted = conversion.partial_transpose(boundary, sorted(cut.parties))
            assert np.linalg.eigvalsh(shifted)[0] == pytest.approx(-delta, abs=1e-13)
            assert floor == pytest.approx(-delta, abs=1e-13)


HAAR_TARGETS = [(n, 2, seed) for n in range(2, 7) for seed in range(3)] + [
    (n, 3, seed) for n in range(2, 5) for seed in range(3)
]


def test_boundary_floor_bounds_the_full_pt_spectrum(monkeypatch):
    seen = record_floors(monkeypatch)
    for n, d, seed in HAAR_TARGETS:
        conversion._bs_mixer_details(random_state(n, d, seed))
    assert len(seen) == len(HAAR_TARGETS) >= 20
    for boundary, cut, _, floor in seen:
        assert -1e-12 <= floor <= pt_minimum(boundary, cut) + 1e-12


BELL = PureState(2, 2, np.array([1, 0, 0, 1]) / math.sqrt(2))


@pytest.mark.parametrize("psi", [BELL, random_state(2, 3, 5)])
def test_boundary_floor_is_the_pt_minimum_when_the_support_is_everything(monkeypatch, psi):
    seen = record_floors(monkeypatch)
    conversion._bs_mixer_details(psi)
    (boundary, cut, rank, floor), = seen
    assert rank**2 == boundary.dim
    assert floor == pytest.approx(pt_minimum(boundary, cut), abs=1e-12)


@pytest.mark.parametrize("psi", [BELL, random_state(2, 3, 5), random_state(3, 2, 21)])
def test_boundary_floor_of_a_lifted_spectrum(psi):
    # X + t I has smallest eigenvalue t > 0: the floor keeps it when W spans
    # everything, and otherwise reads 0 less |t (I - W W^dag)|_F
    cut = measures.robustness_bs_upper(psi).certificate
    mixer, s, _ = conversion._bs_mixer_details(psi)
    u, _, vh = np.linalg.svd(linalg.cut_matrix(psi, cut), full_matrices=False)
    dim, t = psi.d**psi.n, 1e-3
    lifted = linalg.DensityMatrix.by_construction(
        psi.n, psi.d, (psi.density().entries + s * mixer.entries) / (1 + s) + t * np.eye(dim)
    )
    expected = t if u.shape[1] ** 2 == dim else -t * math.sqrt(dim - u.shape[1] ** 2)
    assert conversion._boundary_pt_floor(lifted, cut, u, vh) == pytest.approx(expected, abs=1e-12)


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
    # a dropped coefficient leaves the target a component off the support,
    # which the floor counts in |E|
    psi = qutrit_target(n, factor * conversion.SCHMIDT_CUTOFF, 8)
    seen = record_floors(monkeypatch)
    conversion._bs_mixer_details(psi)
    (boundary, cut, kept, floor), = seen
    assert cut == Bipartition(n, frozenset({1})) and kept == rank
    assert -1e-12 <= floor <= pt_minimum(boundary, cut) + 1e-12


def corrupt_mixer(monkeypatch, corruption):
    """Route the mixer, the one square matrix `_bs_mixer_details` reorders,
    through `corruption(matrix in cut order, cut, d)`."""
    reorder = linalg.from_cut_order

    def spy(array, cut, d):
        return corruption(array, cut, d) if array.ndim == 2 else reorder(array, cut, d)

    monkeypatch.setattr(conversion, "from_cut_order", spy)


def mixer_across(psi, cut):
    """The robustness mixer across `cut`, summed product by product in
    party order, with unit trace."""
    u, sv, vh = np.linalg.svd(linalg.cut_matrix(psi, cut), full_matrices=False)
    mix = np.zeros((psi.d**psi.n,) * 2, dtype=complex)
    for i, j in itertools.permutations(range(len(sv)), 2):
        p = party_order_product(u[:, i], vh[j], cut, psi.d)
        mix += sv[i] * sv[j] * np.outer(p, p.conj())
    return mix / np.trace(mix).real


def negate_first_weight(psi, cut):
    u, _, vh = np.linalg.svd(linalg.cut_matrix(psi, cut), full_matrices=False)
    p = linalg.kron_vectors([u[:, 0], vh[1]])

    def corruption(array, cut, d):
        weight = np.vdot(p, array @ p)
        return linalg.from_cut_order(array - 2 * weight * np.outer(p, p.conj()), cut, d)

    return corruption


@pytest.mark.parametrize("case", ["cut order", "negated weight", "wrong cut"])
@pytest.mark.parametrize("n,d,seed", [(3, 2, 0), (4, 2, 3), (3, 3, 2)])
def test_boundary_check_refuses_a_corrupted_mixer(monkeypatch, case, n, d, seed):
    psi = random_state(n, d, seed)
    cut = measures.robustness_bs_upper(psi).certificate
    # the cut's parties do not come first, so cut order is not party order
    assert cut.parties != set(range(1, len(cut.parties) + 1))
    other = next(c for c in all_bipartitions(n) if c != cut)
    corruption = {
        "cut order": lambda array, cut, d: array,
        "negated weight": negate_first_weight(psi, cut),
        "wrong cut": lambda array, cut, d: mixer_across(psi, other),
    }[case]
    corrupt_mixer(monkeypatch, corruption)
    seen = record_floors(monkeypatch)
    with pytest.raises(RuntimeError, match="boundary PPT"):
        conversion._bs_mixer_details(psi)
    (boundary, _, _, floor), = seen
    # the old full-spectrum check refused these mixers too
    assert floor <= pt_minimum(boundary, cut) < -0.1


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
        mixer, _, cut = details(psi2)
        assert m.mixer_cut == cut == measures.robustness_bs_upper(psi2).certificate
        assert np.array_equal(m.mixer.entries, mixer.entries)


def test_build_filter_map_refuses_fsp():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.FSP, r_upper=2.0)
    with pytest.raises(ValueError, match="only the BSP route is automated") as err:
        conversion.build_filter_map(cert, 0.5)
    assert str(err.value) == conversion.FSP_BUILD_REFUSAL


@pytest.mark.parametrize("factor,ok", [(0.5, True), (2.0, False)])
def test_p_slack_edges(factor, ok):
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    p = cert.p_max + factor * conversion._P_SLACK
    if ok:
        assert conversion.build_filter_map(cert, p).p == p
    else:
        with pytest.raises(ValueError, match="exceeds certified maximum"):
            conversion.build_filter_map(cert, p)


def test_preparation_map_rejects_bad_p():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    mixer, _, cut = conversion._bs_mixer_details(ghz(3, 2))
    with pytest.raises(ValueError):
        conversion.PreparationMap(cert, p=0.0, mixer=mixer, mixer_cut=cut)


def test_preparation_map_holds_only_its_certificate_p_and_mixer():
    cert = conversion.max_probability(w_state(), ghz(3, 2), conversion.BSP)
    fields = [f.name for f in dataclasses.fields(conversion.PreparationMap)]
    assert fields == ["cert", "p", "mixer", "mixer_cut"]
    assert "deterministic" not in [f.name for f in dataclasses.fields(cert)]
    # deterministic follows p_max, so the two cannot disagree
    assert not cert.deterministic and cert.p_max < 1.0
    assert dataclasses.replace(cert, p_max=1.0).deterministic
    assert not dataclasses.replace(cert, p_max=0.999).deterministic
    # the mixer must act on the target's system
    with pytest.raises(linalg.ShapeError):
        conversion.PreparationMap(
            cert, p=0.5, mixer=ghz(4, 2).density(), mixer_cut=all_bipartitions(3)[0]
        )


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
    each cut with m > 0 samples the smaller side's normals (2, m, dS), the
    rows on a balanced cut, and m uniforms.  The overlap is |A^T conj(l)|^2 /
    |l|^2, formed explicitly, times the inverse-CDF Beta(1, D - 1) draw."""
    cuts = all_bipartitions(psi1.n)
    counts = rng.multinomial(k, [1 / len(cuts)] * len(cuts))
    out = [np.empty(0)]
    for cut, m in zip(cuts, counts):
        if m == 0:
            continue
        a_mat = linalg.cut_matrix(psi1, cut)
        if a_mat.shape[0] > a_mat.shape[1]:
            a_mat = a_mat.T
        g = rng.standard_normal((2, m, a_mat.shape[0]))
        small = g[0] + 1j * g[1]
        v = small.conj() @ a_mat
        beta = -np.expm1(np.log1p(-rng.random(m)) / (a_mat.shape[1] - 1))
        out.append(np.sum(np.abs(v) ** 2, axis=1) / np.sum(np.abs(small) ** 2, axis=1) * beta)
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
    # n = 4 has balanced 4 x 4 cuts, where the rows are the explicit side
    [(3, 2, 5000), (3, 3, 5000), (4, 2, 5000), (3, 2, 2), (3, 3, 1), (4, 2, 5), (3, 2, 0)],
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


def test_bsp_sampler_takes_no_decomposition(monkeypatch):
    # the audit stays independent of the Schmidt spectra behind g
    def refuse(*args, **kwargs):
        raise AssertionError("the audit decomposed a matrix")

    for name in ("svd", "eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    psi = random_state(5, 2, 75)
    qs = conversion._batch_free_overlaps(psi, conversion.BSP, 2000, np.random.default_rng(0))
    assert qs.shape == (2000,)


@pytest.mark.parametrize("psi", [ghz(4, 2), ghz(3, 3), product_state(4, 2, 76)])
def test_bsp_overlaps_are_nonnegative_on_rank_deficient_marginals(psi):
    qs = conversion._batch_free_overlaps(psi, conversion.BSP, 20_000, np.random.default_rng(1))
    gbs = measures.geometric_bs(psi).value
    assert np.all(qs >= 0) and np.all(qs <= 1 - gbs + 1e-12)


def test_bsp_overlaps_clip_the_rounded_form_at_zero():
    # a product state's 2 x 8 cut matrix is u w^T: a smaller-side vector
    # orthogonal to u overlaps it exactly 0, and the Gram form rounds that
    # to about -1e-16 on most such vectors
    a_mat = linalg.cut_matrix(product_state(4, 2, 76), Bipartition(4, frozenset({1})))
    u = a_mat[:, 0] / np.linalg.norm(a_mat[:, 0])
    rng = np.random.default_rng(3)

    class OrthogonalDraws:
        random = rng.random

        def standard_normal(self, shape):
            g = rng.standard_normal(shape)
            small = g[0] + 1j * g[1]
            small -= np.outer(small @ u.conj(), u)
            return np.stack([small.real, small.imag])

    qs = conversion._cut_free_overlaps(a_mat, 1000, OrthogonalDraws())
    assert np.all(qs >= 0) and np.max(qs) < 1e-15


@pytest.mark.parametrize(
    "psi1, psi2",
    [(w_state(), ghz(3, 2))]
    + [(random_state(n, d, 2 * j), random_state(n, d, 2 * j + 1))
       for j, (n, d) in enumerate([(3, 2), (4, 2), (3, 3)], start=25)],
)
def test_the_probe_sets_the_worst_margins(psi1, psi2):
    # sampled free inputs never beat the extremal probe, so a BSP audit at
    # p_max reports the margins of its sample 0 whatever the sample count
    cert = conversion.max_probability(psi1, psi2, conversion.BSP)
    m = conversion.build_filter_map(cert, cert.p_max)
    for seed in (0, 7):
        many = conversion.verify_preservation_sampled(m, 10_000, seed)
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
    # the mixer is fully separable, so separable across any cut
    m = conversion.PreparationMap(
        cert, p=0.1, mixer=measures.w_robustness_mixer(), mixer_cut=all_bipartitions(3)[0]
    )
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
    mixer, _, cut = conversion._bs_mixer_details(psi2)
    if cert.p_max >= 1.0:
        pytest.skip("target too weak to exceed the budget")
    over = conversion.PreparationMap(cert, p=min(1.0, 1.5 * cert.p_max), mixer=mixer, mixer_cut=cut)
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

    def spy(a, *args, **kwargs):
        calls.append((a.shape, a.tobytes(), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def spy_cut_matrix(psi, cut):
        built.append((id(psi), cut))
        return cut_matrix(psi, cut)

    monkeypatch.setattr(np.linalg, "svd", spy)
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


@pytest.mark.parametrize("factor, audited", [(0.5, False), (2.0, True)])
def test_overlap_floor_edges(monkeypatch, factor, audited):
    # a free input overlapping psi1 at most OVERLAP_FLOOR bounds no mixing weight
    m = conversion.ghz_to_any_bsp(w_state())
    q = factor * conversion.OVERLAP_FLOOR
    monkeypatch.setattr(conversion, "_extremal_free_overlap", lambda prep_map, seed: q)
    rep = conversion.verify_preservation_sampled(m, 1, seed=0)
    assert rep.violations == 0
    assert math.isfinite(rep.worst_ratio_margin) is audited


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
