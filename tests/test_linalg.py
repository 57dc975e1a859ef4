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
    eigenvalue_slack,
    haar_vector_draws,
    is_ppt,
    kron_vectors,
    min_pt_eigenvalue,
    npt_cut,
    partial_transpose,
    ppt_threshold,
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


@pytest.mark.parametrize("n,d", [(0, 2), (1, 1), (-1, 2), (-3, 1)])
def test_density_matrix_rejects_a_shape_that_is_no_system(n, d):
    # each of these would otherwise ask for a 1 x 1 or a fractional matrix
    with pytest.raises(ValueError, match=f"invalid system shape n={n}, d={d}"):
        DensityMatrix(n, d, np.ones((1, 1)))


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


@pytest.mark.parametrize("n", range(2, 13))
def test_bipartition_side_is_the_smaller_side(n):
    # the side with fewer parties, and the side holding party 1 on an equal split
    for cut in all_bipartitions(n):
        k = len(cut.parties)
        assert cut.side in (cut.parties, cut.complement)
        assert len(cut.side) == min(k, n - k)
        if 2 * k == n:
            assert cut.side == cut.parties


@pytest.mark.parametrize(
    "n, given, side",
    [(4, {3, 4}, {1, 2}), (4, {2}, {2}), (5, {3, 4, 5}, {1, 2}), (5, {1, 2, 3}, {4, 5}),
     (5, {2, 3, 4, 5}, {1})],
)
def test_bipartition_side_of_a_cut_built_by_hand(n, given, side):
    cut = Bipartition(n, frozenset(given))
    assert cut.side == side
    # side is derived, so it takes no part in a cut's identity
    assert cut == Bipartition(n, cut.complement) and hash(cut) == hash(Bipartition(n, cut.complement))


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


# --- cut purities from cover marginals ---------------------------------------


def gram_purity(psi, cut):
    """The cut's purity from its own Gram matrix: the squared Frobenius norm
    of the smaller side's marginal over its squared trace."""
    a = cut_matrix(psi, cut)
    g = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    return float(np.vdot(g, g).real / np.trace(g).real ** 2)


def haar_blocks(sizes, d, seed):
    rng = np.random.default_rng(seed)
    v = np.ones(1, dtype=complex)
    for k in sizes:
        v = np.kron(v, haar_vector_draws(rng, d**k))
    return PureState(sum(sizes), d, v)


def purity_inputs():
    from entactic.catalog import cluster_state, ghz, w_state

    cases = [(f"haar-{n}-2", lambda n=n: random_state(n, 2, n)) for n in range(2, 13)]
    cases += [(f"haar-{n}-3", lambda n=n: random_state(n, 3, n)) for n in range(2, 8)]
    cases += [(f"ghz-{n}-{d}", lambda n=n, d=d: ghz(n, d)) for n, d in [(2, 2), (9, 2), (12, 2), (5, 3)]]
    cases += [("w", w_state), ("cluster-11", lambda: cluster_state(11))]
    cases += [
        (f"blocks-{'-'.join(map(str, sizes))}-{d}", lambda sizes=sizes, d=d: haar_blocks(sizes, d, 3))
        for sizes, d in [((3, 3), 2), ((2, 5, 4), 2), ((1, 1, 1), 2), ((2, 3), 3)]
    ]
    return [pytest.param(make, id=name) for name, make in cases]


@pytest.mark.parametrize("make", purity_inputs())
def test_cut_purity_matches_the_per_cut_gram_formula(make):
    psi = make()
    for cut in all_bipartitions(psi.n):
        assert abs(linalg.cut_purity(psi, cut) - gram_purity(psi, cut)) <= 1e-14


# the cover counts a greedy search reached for c = ceil(n/2) + 1 on qubits
COVER_COUNT_CAP = {9: 22, 10: 30, 11: 59, 12: 110}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", range(2, 15))
def test_cover_plan_covers_every_cut_once(n, d):
    plan = linalg.cover_plan(n, d)
    assert linalg.cover_plan(n, d) is plan
    seen = []
    for cover in plan.covers:
        assert cover.parties[0] == 1 and list(cover.parties) == sorted(set(cover.parties))
        assert len(cover.parties) < n
        for cut, mask, scale in zip(cover.cuts, cover.masks, cover.scale):
            assert cut.side <= set(cover.parties)
            assert plan.cover_of[cut] is cover
            bits = [cover.parties[len(cover.parties) - 1 - j] for j in range(len(cover.parties)) if mask >> j & 1]
            assert set(bits) == cut.side and scale == float(d) ** -len(cut.side)
            seen.append(cut)
    assert sorted(seen, key=str) == sorted(all_bipartitions(n), key=str)
    if d == 2 and n in COVER_COUNT_CAP:
        assert len(plan.covers) <= COVER_COUNT_CAP[n]


def test_cover_plan_needs_a_cut():
    with pytest.raises(ValueError, match="at least 2 parties"):
        linalg.cover_plan(1, 2)



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


def dephased_bell(b):
    """(|00><00| + |11><11|)/2 + b (|00><11| + |11><00|).  Its partial
    transpose's {01, 10} block is [[0, b], [b, 0]], a Hadamard-conjugated
    diag(b, -b), so its smallest eigenvalue is exactly -|b|."""
    m = np.diag([0.5, 0.0, 0.0, 0.5])
    m[0, 3] = m[3, 0] = b
    return DensityMatrix(2, 2, m)


@pytest.mark.parametrize("factor,npt", [(0.5, False), (1.0, False), (2.0, True)])
def test_npt_cut_tolerance_edges(factor, npt):
    # an eigenvalue of exactly -slack still counts as PPT; b this small
    # leaves the Frobenius norm, and so the slack, as at b = 0
    slack = eigenvalue_slack(dephased_bell(0.0).entries)
    rho = dephased_bell(factor * slack)
    assert eigenvalue_slack(rho.entries) == slack
    assert min_pt_eigenvalue(rho, [1]) == -factor * slack
    found = npt_cut(rho)
    assert (found is not None) is npt
    if npt:
        assert found == (all_bipartitions(2)[0], -factor * slack)


def test_eigenvalue_slack_is_one_per_state():
    # EIGVAL_ROUNDING D eps |A|_F, the same for every partial transpose
    rho = random_state(3, 2, 5).density()
    slack = linalg.EIGVAL_ROUNDING * 8 * np.finfo(float).eps * np.linalg.norm(rho.entries)
    assert eigenvalue_slack(rho.entries) == pytest.approx(slack, rel=1e-15)
    for cut in all_bipartitions(3):
        pt = partial_transpose(rho, sorted(cut.parties))
        assert eigenvalue_slack(pt) == pytest.approx(slack, rel=1e-14)


WHITE3 = DensityMatrix(3, 2, np.eye(8) / 8)


def ghz3():
    v = np.zeros(8)
    v[[0, 7]] = 1 / math.sqrt(2)
    return PureState(3, 2, v).density()


def w3():
    v = np.zeros(8)
    v[[1, 2, 4]] = 1 / math.sqrt(3)
    return PureState(3, 2, v).density()


def test_ppt_threshold_closed_forms():
    # (rho + s I/8)/(1 + s) turns PPT where s/8 lifts rho's most negative
    # partial-transpose eigenvalue to 0: -1/2 for GHZ, -sqrt(2)/3 for W, and
    # -p/2 + (1 - p)/8 for p GHZ + (1 - p) I/8
    assert ppt_threshold(ghz3(), WHITE3) == pytest.approx(4.0, abs=1e-12)
    assert ppt_threshold(w3(), WHITE3) == pytest.approx(8 * math.sqrt(2) / 3, abs=1e-12)
    for p in (0.25, 0.6, 0.77, 0.95, 1.0):
        rho = DensityMatrix(3, 2, p * ghz3().entries + (1 - p) * WHITE3.entries)
        assert ppt_threshold(rho, WHITE3) == pytest.approx(5 * p - 1, abs=1e-12)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (3, 2), (4, 3)])
def test_ppt_threshold_separates_npt_from_ppt_mixtures(n, seed):
    # toward a product state mixed with white noise, whose partial
    # transposes are all >= 1/(2D): just below the threshold some cut is
    # NPT, just above it every cut is PPT
    rho = random_state(n, 2, seed).density()
    product = random_state(1, 2, seed).density().entries
    for k in range(1, n):
        product = np.kron(product, random_state(1, 2, seed + k).density().entries)
    mixer = DensityMatrix(n, 2, (product + np.eye(2**n) / 2**n) / 2)
    s = ppt_threshold(rho, mixer)

    def lowest(t):
        m = DensityMatrix.by_construction(n, 2, (rho.entries + t * mixer.entries) / (1 + t))
        return min(min_pt_eigenvalue(m, sorted(cut.parties)) for cut in all_bipartitions(n))

    assert s > 0
    assert lowest(s * (1 - 1e-6)) < 0 <= lowest(s * (1 + 1e-6))


def white_toward_000(lam):
    """(1 - t)|000><000| + t I/8 with t = 8 lam: diagonal, so its partial
    transpose is itself, with smallest eigenvalue lam."""
    m = np.diag([1.0 - 8 * lam + lam] + [lam] * 7)
    return DensityMatrix(3, 2, m)


@pytest.mark.parametrize("factor,whole_range", [(0.5, False), (2.0, True)])
def test_ppt_threshold_floor_edges(factor, whole_range):
    lam = factor * linalg.PENCIL_FLOOR
    s = ppt_threshold(ghz3(), white_toward_000(lam))
    if whole_range:
        # GHZ's -1/2 block on {100, 011} is lifted by s lam on each side
        assert s == pytest.approx(0.5 / lam, rel=1e-9)
    else:
        # only |000> is kept, where GHZ's partial transpose is +1/2
        assert s == pytest.approx(-0.5 / (1 - 7 * lam), rel=1e-12)


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (2, 3)])
def test_ppt_threshold_on_a_singular_mixer_is_still_npt_below(n, d):
    # 1-3 random product terms make partial transposes of rank at most 3,
    # so every cut's threshold comes from the range of the mixer's alone
    rng = np.random.default_rng(100 * n + d)
    positive = 0
    for _ in range(40):
        rho = random_state(n, d, int(rng.integers(10**6))).density()
        local = haar_vector_draws(rng, d, (n, int(rng.integers(1, 4))))
        products = kron_vectors(list(local))
        weights = rng.dirichlet(np.ones(len(products)))
        mixer = DensityMatrix(n, d, (weights * products.T) @ products.conj())
        s = ppt_threshold(rho, mixer)
        if s <= 0:
            continue
        positive += 1
        t = s * (1 - 1e-6)
        m = DensityMatrix.by_construction(n, d, (rho.entries + t * mixer.entries) / (1 + t))
        assert min(min_pt_eigenvalue(m, sorted(cut.parties)) for cut in all_bipartitions(n)) < 0
    assert positive >= 5


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
    # a shape that is no system, or a count that does not fit it, is named
    with pytest.raises(ValueError, match=r"^malformed density JSON: n = -3, d = 1; need n >= 1 and d >= 2$"):
        density_from_json('{"n": -3, "d": 1, "entries": [[1, 0]]}')
    with pytest.raises(ValueError, match=r"^malformed density JSON: n = 1, d = 2 needs 2\^2 entries, got 3$"):
        density_from_json('{"n": 1, "d": 2, "entries": [[1, 0], [0, 0], [0, 0]]}')
    # refused from the count alone, without building 3**n
    huge = r"^malformed state JSON: n = 100000000, d = 3 needs 3\^100000000 amplitudes, got 1$"
    with pytest.raises(ValueError, match=huge):
        state_from_json('{"n": 100000000, "d": 3, "amplitudes": [[1, 0]]}')
    # JSON true and false are no numbers, though complex() would read them
    # as 1 and 0; an integer beyond the float range is refused in one line
    pairs = r"^malformed state JSON: 'amplitudes' must be a list of \[re, im\] pairs$"
    with pytest.raises(ValueError, match=pairs):
        state_from_json('{"n": 1, "d": 2, "amplitudes": [[true, false], [0, 0]]}')
    with pytest.raises(ValueError, match=pairs):
        state_from_json('{"n": 1, "d": 2, "amplitudes": [[1, 0], [0, false]]}')
    with pytest.raises(ValueError, match=r"^malformed density JSON: 'entries' must be"):
        density_from_json('{"n": 1, "d": 2, "entries": [[1, 0], [0, 0], [0, 0], [true, 0]]}')
    big = "1" + "0" * 400
    with pytest.raises(ValueError, match=r"^malformed state JSON: a number in 'amplitudes' is too large$"):
        state_from_json(f'{{"n": 1, "d": 2, "amplitudes": [[{big}, 0], [0, 0]]}}')
    with pytest.raises(ValueError, match=r"^malformed density JSON: a number in 'entries' is too large$"):
        density_from_json(f'{{"n": 1, "d": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, -{big}]]}}')


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
    # at this tolerance the first probe is the next float above the
    # threshold, which is not certified, so the ray is bisected to the cap
    measures.robustness_fs_upper_via_mix(
        w_state().density(), measures.w_robustness_mixer(), bisect_tol=1e-300
    )

    for seed in range(3):
        # the biseparable mixer, materialized from its factors
        made.append(conversion._bs_mixer_details(random_state(4, 2, seed)))

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
