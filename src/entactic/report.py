"""Claim registry for the reproduce suite.

Each claim recomputes one headline number with this package and compares it
against the expected value at a pinned tolerance.  Claim refs match the
acceptance-test identifiers (AC1..AC12) so reports and tests cross-link.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import conversion, ghz_symmetric as gs, measures, witnesses
from .catalog import (
    ame_4_3,
    cluster_state,
    four_qubit_phi,
    ghz,
    psi_ghz_plus,
    w_state,
)
from .linalg import (
    Bipartition,
    PureState,
    apply_channel,
    haar_vector_draws,
    npt_cut,
    reduced_density_pure,
)
from .measures import geometric_bs, geometric_fs, robustness_bipartite_pure


def _compare(expected, computed, tol):
    if isinstance(expected, bool):
        return expected == computed
    if isinstance(expected, (int, float)):
        return isinstance(computed, (int, float)) and abs(expected - computed) <= tol
    if isinstance(expected, (list, tuple)):
        return len(expected) == len(computed) and all(
            _compare(e, c, tol) for e, c in zip(expected, computed)
        )
    return expected == computed


def _haar_states(n, d, rng, count) -> list[PureState]:
    return [PureState(n, d, v) for v in haar_vector_draws(rng, d**n, (count,))]


def _ghz_params(lp, lm, lr):
    return gs.GhzSymmetricParams(Fraction(lp), Fraction(lm), Fraction(lr))


def _claim_gbs_ghz_grid(seed):
    grid = [(3, 2), (4, 2), (3, 3), (4, 3)]
    expected = [(d - 1) / d for _, d in grid]
    computed = [geometric_bs(ghz(n, d)).value for n, d in grid]
    return expected, computed, 1e-12


@functools.cache
def _run_w() -> PureState:
    """The W state the claims of one `run_claims` call share, so that its
    product-state optimum at the run's seed, kept on the state by
    `geometric_fs`, is computed once per run; `run_claims` clears it."""
    return w_state()


def _claim_gfs_optimizer(seed):
    expected = [0.5, 5.0 / 9.0]
    computed = [
        geometric_fs(ghz(3, 2), seed).value,
        geometric_fs(_run_w(), seed).value,
    ]
    return expected, computed, 1e-6


def _claim_lemma1(seed):
    s, mixer = gs.symmetric_robustness(_ghz_params(1, 0, 0))
    wit = witnesses.ghz_robustness_witness()
    trace_exact = witnesses.ghz_witness_value_symmetric(_ghz_params(1, 0, 0))
    dual = witnesses.robustness_lower_from_witness(ghz(3, 2).density(), wit)
    expected = [2.0, [0.0, 0.25, 0.75], -2.0, True, 2.0]
    computed = [
        float(s),
        [float(x) for x in mixer.as_fractions()],
        float(trace_exact),
        bool(trace_exact == -2 and s == 2),
        dual,
    ]
    return expected, computed, 1e-12


def _claim_lemma2(seed):
    trace_exact = witnesses.w_robustness_lower_exact()
    mixer = measures.w_robustness_mixer()
    boundary = measures.w_robustness_boundary()
    w_rho = w_state().density()
    mix2 = (w_rho.entries + 2.0 * mixer.entries) / 3.0
    entry_err = float(np.max(np.abs(mix2 - boundary.entries)))
    s = measures.robustness_fs_upper_via_mix(w_rho, mixer)
    grid_err = max(
        abs(
            witnesses.symmetric_triform_value(a, b)
            - 0.5 * math.cos(6 * a)
        )
        for a in np.linspace(0, math.pi / 2, 16)
        for b in np.linspace(0, 2 * math.pi, 4)
    )
    # no partial transpose of either state has an eigenvalue below rounding
    # (linalg.eigenvalue_slack)
    ppt = npt_cut(mixer) is None and npt_cut(boundary) is None
    expected = [2.0, 2.0, 0.0, 0.0, True]
    computed = [
        float(trace_exact),
        float(s),
        entry_err,
        float(grid_err),
        ppt,
    ]
    return expected, computed, 2e-6


def _claim_thm3_unique(seed):
    mixer = gs.unique_fs_mixer_for_ghz()
    lp, lm, lr = mixer.as_fractions()
    expected = [[0.0, 0.25, 0.75], True]
    computed = [
        [float(lp), float(lm), float(lr)],
        bool((lp, lm, lr) == (0, Fraction(1, 4), Fraction(3, 4))),
    ]
    return expected, computed, 0.0


def _claim_twirl(seed):
    rng = np.random.default_rng(seed)
    t_ghz = gs.twirl(ghz(3, 2).density())
    worst = 0.0
    for _ in range(100):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        p = gs.GhzSymmetricParams(*w)
        q = gs.twirl(gs.params_to_density(p))
        worst = max(worst, max(abs(a - b) for a, b in zip(w, q)))
    # overlap oracle: the W state has no weight on |000> or |111>, so both
    # GHZ-basis overlaps vanish and the twirl lands on the pure middle block
    t_w = gs.twirl(w_state().density())
    g = ghz(3, 2).amplitudes
    oracle_lp = abs(np.vdot(g, w_state().amplitudes)) ** 2
    expected = [[1.0, 0.0, 0.0], 0.0, [float(oracle_lp), 0.0, 1.0]]
    computed = [list(t_ghz), worst, list(t_w)]
    return expected, computed, 1e-12


def _claim_thm4_sample(seed):
    rng = np.random.default_rng(seed)
    targets = _haar_states(3, 2, rng, 4) + _haar_states(3, 3, rng, 1)
    worst_err, violations = 0.0, 0
    for psi in targets:
        m = conversion.ghz_to_any_bsp(psi)
        out = apply_channel(m, ghz(psi.n, psi.d).density())
        worst_err = max(
            worst_err, float(np.max(np.abs(out.entries - psi.density().entries)))
        )
        rep = conversion.verify_preservation_sampled(m, 2000, seed=seed)
        violations += rep.violations
    expected = [0.0, 0]
    computed = [worst_err, violations]
    return expected, computed, 1e-10


def _claim_robustness_formulas(seed):
    bell = ghz(2, 2)
    vals = [robustness_bipartite_pure(bell, Bipartition(2, frozenset({1})))]
    expected = [1.0]
    for n, d in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        vals.append(measures.robustness_bs_upper(ghz(n, d)).value)
        expected.append(float(d - 1))
    return expected, vals, 1e-12


def _claim_counterexample(seed):
    phi = four_qubit_phi(0.25)
    marg_err = max(
        float(np.max(np.abs(reduced_density_pure(phi, [k]).entries - np.eye(2) / 2)))
        for k in range(1, 5)
    )
    expected = [0.25, 0.5, 0.0]
    computed = [
        geometric_bs(phi).value,
        geometric_bs(four_qubit_phi(0.5)).value,
        marg_err,
    ]
    return expected, computed, 1e-12


def _claim_equivalence_class(seed):
    ame = ame_4_3()
    from itertools import combinations

    marg_err = max(
        float(np.max(np.abs(reduced_density_pure(ame, pair).entries - np.eye(9) / 9)))
        for pair in combinations(range(1, 5), 2)
    )
    expected = [0.5, 2.0 / 3.0, 0.0]
    computed = [
        geometric_bs(cluster_state(4)).value,
        geometric_bs(ame).value,
        marg_err,
    ]
    return expected, computed, 1e-10


def _claim_prop1(seed):
    # feasible family point: alpha = beta = gamma with cos-product 1/2
    angle = math.acos(0.5 ** (1 / 3))
    good = conversion.ghz_plus_bound_report(angle, angle, angle)
    cert = conversion.max_probability(
        _run_w(),
        psi_ghz_plus(angle, angle, angle),
        conversion.FSP,
        seed,
        r_upper=good["bound"],
    )
    quoted = conversion.ghz_plus_bound_report(math.pi / 2, math.pi / 2, 0.1)
    expected = [True, True, 2.0, True]
    computed = [
        bool(good["within_budget"]),
        bool(cert.deterministic),
        quoted["bound"],
        bool(quoted["flag"] is not None),
    ]
    return expected, computed, 1e-12


def _claim_eq4_consistency(seed):
    rng = np.random.default_rng(seed)
    pairs, at_max_viol, above_max_ok = 0, 0, True
    k = 0
    while pairs < 10 and k < 100:
        k += 1
        psi1, psi2 = _haar_states(3, 2, rng, 2)
        try:
            cert = conversion.max_probability(psi1, psi2, conversion.BSP)
        except conversion.FreeSourceError:
            continue
        m = conversion.build_filter_map(cert, cert.p_max)
        rep = conversion.verify_preservation_sampled(m, 2000, seed=seed + k)
        at_max_viol += rep.violations
        if cert.p_max < 1.0:
            m2 = replace(m, p=min(1.0, 1.5 * cert.p_max))
            rep2 = conversion.verify_preservation_sampled(m2, 2000, seed=seed + k)
            above_max_ok = above_max_ok and rep2.violations >= 1
        pairs += 1
    expected = [0, True]
    computed = [at_max_viol, bool(above_max_ok)]
    return expected, computed, 0.0


REGISTRY = [
    ("gbs-ghz-grid", "closed-form biseparable geometric measure of GHZ(n,d)", "AC1", _claim_gbs_ghz_grid),
    ("gfs-optimizer", "product-state optimizer on GHZ and W", "AC2", _claim_gfs_optimizer),
    ("lemma1-ghz-robustness", "symmetric robustness and witness bound for GHZ", "AC3", _claim_lemma1),
    ("lemma2-w-robustness", "witness bound and certified mixture for W", "AC4", _claim_lemma2),
    ("thm3-unique-mixer", "uniqueness of the separable mixer for GHZ", "AC5", _claim_thm3_unique),
    ("twirl-projection", "twirl fixed points and overlap oracle", "AC6", _claim_twirl),
    ("thm4-ghz-universal", "deterministic GHZ-to-anything channel, sampled audit", "AC7", _claim_thm4_sample),
    ("robustness-formulas", "bipartite pure robustness closed forms", "AC8", _claim_robustness_formulas),
    ("counterexample-4qubit", "maximally mixed marginals without maximal measure", "AC9", _claim_counterexample),
    ("equivalence-class", "cluster and AME members of the maximal class", "AC10", _claim_equivalence_class),
    ("prop1-tilted-ghz", "closed-form bound and budget threshold for tilted GHZ", "AC11", _claim_prop1),
    ("eq4-consistency", "conversion probability bound tightness probe", "AC12", _claim_eq4_consistency),
]


def run_claims(selection, seed: int, timing: bool = False) -> dict:
    """Execute the selected claims; returns the report structure."""
    import time

    known = {cid for cid, *_ in REGISTRY}
    unknown = set(selection or []) - known
    if unknown:
        raise KeyError(f"unknown claim id(s): {sorted(unknown)}")
    claims = []
    _run_w.cache_clear()
    try:
        for cid, desc, ref, fn in REGISTRY:
            if selection is not None and cid not in selection:
                continue
            t0 = time.perf_counter()
            expected, computed, tol = fn(seed)
            entry = {
                "id": cid,
                "description": desc,
                "ref": ref,
                "expected": expected,
                "computed": computed,
                "tolerance": tol,
                "pass": _compare(expected, computed, tol),
            }
            if timing:
                entry["wall_time"] = time.perf_counter() - t0
            claims.append(entry)
    finally:
        _run_w.cache_clear()
    return {
        "schema_version": 1,
        "seed": seed,
        "claims": claims,
        "all_pass": all(c["pass"] for c in claims),
    }
