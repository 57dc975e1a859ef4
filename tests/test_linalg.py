import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entactic import linalg
from entactic.linalg import (
    Bipartition,
    DensityMatrix,
    PureState,
    all_bipartitions,
    apply_channel,
    cut_matrix,
    density_from_json,
    density_to_json,
    haar_vector_draws,
    is_ppt,
    min_pt_eigenvalue,
    npt_cut,
    partial_transpose,
    reduced_density,
    reduced_density_pure,
    schmidt_spectrum,
    state_from_json,
    state_to_json,
    vector_norms,
)


def random_state(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return PureState(n, d, v / np.linalg.norm(v))


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))


def test_pure_state_rejects_bad_dimension():
    with pytest.raises(ValueError):
        PureState(2, 2, np.array([1.0, 0.0, 0.0]))


def test_density_matrix_rejects_nonhermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(ValueError):
        DensityMatrix(2, 2, m / np.trace(m))


def test_density_matrix_rejects_negative():
    m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(2, 2, m)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_constructors_reject_non_finite_values(bad):
    # NaN fails every comparison, so it would pass the norm and trace tests
    with pytest.raises(ValueError, match="non-finite"):
        PureState(2, 2, np.array([bad, 1.0, 0.0, 0.0]))
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(2, 2, m)


@pytest.mark.parametrize("factor,ok", [(0.5, True), (2.0, False)])
def test_norm_tolerance_edges(factor, ok):
    # the state's norm, and the matrix's trace and Hermiticity, may each
    # stray from exact by NORM_TOL
    excess = factor * linalg.NORM_TOL
    trace = np.diag([0.5 + excess, 0.5, 0.0, 0.0]).astype(complex)
    skew = np.eye(4, dtype=complex) / 4
    skew[0, 1] = excess
    checks = [
        (lambda: PureState(2, 2, np.array([1.0 + excess, 0.0, 0.0, 0.0])), "not normalized"),
        (lambda: DensityMatrix(2, 2, trace), "trace"),
        (lambda: DensityMatrix(2, 2, skew), "not Hermitian"),
    ]
    for make, message in checks:
        if ok:
            make()
        else:
            with pytest.raises(ValueError, match=message):
                make()


@pytest.mark.parametrize("factor,ok", [(0.5, True), (2.0, False)])
def test_psd_tolerance_edges(factor, ok):
    m = np.diag([1.0 + factor * linalg.PSD_TOL, -factor * linalg.PSD_TOL, 0.0, 0.0])
    if ok:
        assert DensityMatrix(2, 2, m).entries[1, 1] == -factor * linalg.PSD_TOL
    else:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(2, 2, m)


def test_bipartition_canonicalizes_to_contain_party_one():
    cut = Bipartition(3, frozenset({2, 3}))
    assert 1 in cut.parties
    assert cut.parties == frozenset({1})


def test_bipartition_rejects_trivial():
    with pytest.raises(ValueError):
        Bipartition(3, frozenset())
    with pytest.raises(ValueError):
        Bipartition(3, frozenset({1, 2, 3}))


def test_all_bipartitions_counts():
    # 2^(n-1) - 1 nontrivial cuts with party 1 pinned to the first block
    assert len(all_bipartitions(3)) == 3
    assert len(all_bipartitions(4)) == 7
    assert len({b.parties for b in all_bipartitions(4)}) == 7


def test_all_bipartitions_is_built_once_per_n():
    cuts = all_bipartitions(5)
    assert isinstance(cuts, tuple) and len(cuts) == 15
    assert all_bipartitions(5) is cuts


@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2)]))
@settings(max_examples=40, deadline=None)
def test_schmidt_spectrum_sums_to_one(seed, shape):
    n, d = shape
    psi = random_state(n, d, seed)
    for cut in all_bipartitions(n):
        spec = schmidt_spectrum(psi, cut)
        assert abs(sum(spec) - 1.0) < 1e-12
        assert all(v >= -1e-15 for v in spec)
        assert list(spec) == sorted(spec, reverse=True)


def test_schmidt_matches_reduced_eigenvalues():
    psi = random_state(3, 2, 11)
    cut = Bipartition(3, frozenset({1, 3}))
    spec = schmidt_spectrum(psi, cut)
    eig = sorted(np.linalg.eigvalsh(reduced_density_pure(psi, [1, 3]).entries), reverse=True)
    # the spectrum carries min(dim_A, dim_B) entries; the rest vanish
    assert np.allclose(spec, eig[: len(spec)], atol=1e-12)
    assert np.allclose(eig[len(spec):], 0.0, atol=1e-12)


def test_cut_matrix_shape():
    psi = random_state(4, 2, 0)
    m = cut_matrix(psi, Bipartition(4, frozenset({1, 2})))
    assert m.shape == (4, 4)


def test_kron_product_and_marginals():
    a = random_state(1, 2, 1)
    b = random_state(2, 2, 2)
    ab = PureState(3, 2, np.kron(a.amplitudes, b.amplitudes))
    assert ab.n == 3
    marg = reduced_density_pure(ab, [1])
    assert np.allclose(marg.entries, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12)


def test_reduced_density_trace_and_consistency():
    psi = random_state(3, 3, 5)
    rho = psi.density()
    r12 = reduced_density(rho, [1, 2])
    assert abs(np.trace(r12.entries) - 1.0) < 1e-12
    assert np.allclose(r12.entries, reduced_density_pure(psi, [1, 2]).entries, atol=1e-12)
    # tracing in stages agrees with tracing at once
    r1 = reduced_density(r12, [1])
    assert np.allclose(r1.entries, reduced_density_pure(psi, [1]).entries, atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_partial_transpose_involution_and_trace(seed):
    psi = random_state(3, 2, seed)
    rho = psi.density()
    pt = partial_transpose(rho, [2])
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
    # transposing the same party twice returns the original matrix
    twice = pt.reshape((2,) * 6).swapaxes(1, 4).reshape(8, 8)
    assert np.allclose(twice, rho.entries, atol=1e-12)


def test_ppt_detects_bell_state():
    bell = PureState(2, 2, np.array([1, 0, 0, 1]) / math.sqrt(2))
    rho = bell.density()
    assert not is_ppt(rho, [2])
    assert min_pt_eigenvalue(rho, [2]) < -0.4


def test_ppt_on_product_state():
    rho = random_state(1, 2, 3).density()
    sig = random_state(1, 2, 4).density()
    prod = DensityMatrix(2, 2, np.kron(rho.entries, sig.entries))
    assert is_ppt(prod, [2])


def counted_min_pt(monkeypatch, value=None):
    """Patch linalg.min_pt_eigenvalue with a spy that records each cut it is
    asked about, returning `value` if given, else the true eigenvalue."""
    asked = []

    def spy(rho, subset):
        asked.append(frozenset(subset))
        return min_pt_eigenvalue(rho, subset) if value is None else value

    monkeypatch.setattr(linalg, "min_pt_eigenvalue", spy)
    return asked


def test_npt_cut_stops_at_the_first_npt_cut(monkeypatch):
    # party 1 in |0>, parties 2 and 3 in a Bell pair: {1}|{2,3} is a product
    # cut, {1,2}|{3} the first NPT one in all_bipartitions order
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    rho = PureState(3, 2, np.kron([1, 0], bell)).density()
    asked = counted_min_pt(monkeypatch)
    cut, lam = npt_cut(rho)
    assert cut == Bipartition(3, frozenset({1, 2})) == all_bipartitions(3)[1]
    assert lam == pytest.approx(-0.5, abs=1e-12)
    assert asked == [frozenset({1}), frozenset({1, 2})]


def test_npt_cut_sweeps_every_cut_of_a_ppt_state(monkeypatch):
    sig = [random_state(1, 2, s).density().entries for s in range(3)]
    prod = DensityMatrix(3, 2, np.kron(np.kron(sig[0], sig[1]), sig[2]))
    asked = counted_min_pt(monkeypatch)
    assert npt_cut(prod) is None
    assert asked == [cut.parties for cut in all_bipartitions(3)]


@pytest.mark.parametrize("factor,npt", [(0.5, False), (1.0, False), (2.0, True)])
def test_npt_cut_tolerance_edges(monkeypatch, factor, npt):
    # an eigenvalue of exactly -tol still counts as PPT
    rho = DensityMatrix(2, 2, np.eye(4) / 4)
    for tol in (linalg.PSD_TOL, 1e-6):
        counted_min_pt(monkeypatch, -factor * tol)
        found = npt_cut(rho, tol=tol)
        assert (found is not None) is npt
        if npt:
            assert found == (all_bipartitions(2)[0], -factor * tol)


def test_state_json_roundtrip():
    psi = random_state(3, 2, 9)
    text = state_to_json(psi)
    data = json.loads(text)
    assert data["n"] == 3 and data["d"] == 2
    back = state_from_json(text)
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


def test_density_json_roundtrip():
    rho = random_state(2, 2, 13).density()
    back = density_from_json(density_to_json(rho))
    assert np.allclose(back.entries, rho.entries, atol=1e-15)


def test_state_json_diagnostics():
    with pytest.raises(ValueError):
        state_from_json("{}")
    with pytest.raises(ValueError):
        state_from_json('{"n": 2, "d": 2, "amplitudes": [[1, 0]]}')
    # json.loads accepts NaN; the state constructor must not
    with pytest.raises(ValueError, match="non-finite"):
        state_from_json('{"n": 1, "d": 2, "amplitudes": [[NaN, 0], [0, 0]]}')
    with pytest.raises(ValueError, match="non-finite"):
        density_from_json(
            '{"n": 1, "d": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, NaN]]}'
        )


def test_apply_channel_output_is_density():
    from entactic.catalog import ghz, w_state
    from entactic.conversion import ghz_to_any_bsp

    m = ghz_to_any_bsp(w_state())
    out = apply_channel(m, ghz(3, 2).density())
    assert abs(np.trace(out.entries) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(out.entries)) > -1e-10


def test_pure_state_copies_its_amplitudes():
    buf = np.array([1, 0, 0, 0], dtype=complex)
    view = buf[:]
    psi = PureState(2, 2, buf)
    view[0] = 5
    assert psi.amplitudes[0] == 1
    assert not psi.amplitudes.flags.writeable


def test_matrices_made_by_construction_pass_the_public_checks(monkeypatch):
    # every site that skips the constructor's checks, fed back through them
    from entactic import conversion, ghz_symmetric, measures
    from entactic.catalog import w_state

    rng = np.random.default_rng(2024)
    made = []
    for n, d in [(3, 2), (2, 3), (4, 2)]:
        psi = random_state(n, d, int(rng.integers(10**6)))
        rho = psi.density()
        keep = sorted(rng.choice(np.arange(1, n + 1), size=n - 1, replace=False))
        made += [rho, reduced_density(rho, keep), reduced_density_pure(psi, keep)]
        wider = random_state(n + 2, d, int(rng.integers(10**6)))
        mixed = reduced_density_pure(wider, range(1, n + 1))
        made += [mixed, apply_channel(conversion.ghz_to_any_bsp(psi), mixed)]
    for _ in range(5):
        made.append(measures.diag_family_state(*rng.dirichlet(np.ones(4))))
        params = ghz_symmetric.GhzSymmetricParams(*rng.dirichlet(np.ones(3)))
        made.append(ghz_symmetric.params_to_density(params))

    certify = measures.fs_certificate

    def certify_spy(rho, *args):
        made.append(rho)  # the bisection's mixtures
        return certify(rho, *args)

    monkeypatch.setattr(measures, "fs_certificate", certify_spy)
    measures.robustness_fs_upper_via_mix(
        w_state().density(), measures.w_robustness_mixer(), bisect_tol=1e-2
    )

    floor = conversion._boundary_pt_floor

    def floor_spy(rho, *args):
        made.append(rho)  # the boundary mixture
        return floor(rho, *args)

    monkeypatch.setattr(conversion, "_boundary_pt_floor", floor_spy)
    for seed in range(3):
        made.append(conversion._bs_mixer_details(random_state(4, 2, seed))[0])

    assert len(made) > 40
    for rho in made:
        DensityMatrix(rho.n, rho.d, np.array(rho.entries))


def test_internal_density_matrices_skip_the_eigendecomposition(monkeypatch):
    psi = random_state(10, 2, 1)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    rho = psi.density()
    reduced_density(rho, [1, 2])
    reduced_density_pure(psi, [3, 4])
    with pytest.raises(AssertionError):
        DensityMatrix(rho.n, rho.d, rho.entries)


def single_draws_loop(rng, dim, count):
    """The per-vector loop that block draws replace: each vector takes dim
    real parts, then dim imaginary parts, and its own np.linalg.norm."""
    out = []
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out.append(v / np.linalg.norm(v))
    return np.array(out, dtype=complex).reshape(count, dim)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (600, 4)])
def test_haar_vector_draws_are_successive_single_draws_bit_for_bit(d, shape):
    count = math.prod(shape)
    rngs = [np.random.default_rng(17) for _ in range(3)]
    oracle = single_draws_loop(rngs[0], d, count)
    block = haar_vector_draws(rngs[1], d, shape)
    singles = np.array([haar_vector_draws(rngs[2], d) for _ in range(count)], dtype=complex)
    assert_same_bits(block, oracle.reshape(*shape, d))
    assert_same_bits(singles.reshape(count, d), oracle)
    # every stream stops at the same place, so later draws agree too
    tails = [rng.normal(size=4) for rng in rngs]
    assert_same_bits(tails[1], tails[0])
    assert_same_bits(tails[2], tails[0])


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 27])
def test_vector_norms_match_np_linalg_norm_per_row_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    # shaped like the certifier fit's resampled rows: a sum of two arrays
    u = rng.normal(size=(200, dim)) + 1j * rng.normal(size=(200, dim))
    u = np.repeat(u[:50], 4, axis=0) + 0.15 * u
    oracle = np.array([np.linalg.norm(row) for row in u])
    assert_same_bits(vector_norms(u), oracle)
    assert_same_bits(vector_norms(u.reshape(50, 4, dim)), oracle.reshape(50, 4))
