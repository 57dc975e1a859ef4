import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from entactic.cli import run_command
from entactic.linalg import (
    DensityMatrix,
    PureState,
    density_to_json,
    state_from_json,
    state_to_json,
)
from entactic.catalog import ghz, w_state


@pytest.fixture()
def ghz_file(tmp_path):
    path = tmp_path / "ghz32.json"
    path.write_text(state_to_json(ghz(3, 2)))
    return str(path)


@pytest.fixture()
def w_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(state_to_json(w_state()))
    return str(path)


def run_json(capsys, argv):
    rc = run_command(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out.strip().splitlines()[-1])


def test_catalog_roundtrip(capsys):
    rc, data = run_json(capsys, ["catalog", "ghz", "3", "2"])
    assert rc == 0
    psi = state_from_json(json.dumps(data))
    assert np.allclose(psi.amplitudes, ghz(3, 2).amplitudes)


def test_catalog_unknown_params_is_usage_error(capsys):
    assert run_command(["catalog", "ghz", "3"]) == 1  # arity failure at build time
    assert run_command(["catalog", "nonesuch"]) == 2  # rejected by argparse choices


def test_measure_gbs(capsys, ghz_file):
    rc, data = run_json(capsys, ["measure", "--kind", "gbs", "--in", ghz_file])
    assert rc == 0
    assert data["value"] == pytest.approx(0.5, abs=1e-12)


def test_measure_gfs(capsys, w_file):
    rc, data = run_json(capsys, ["measure", "--kind", "gfs", "--in", w_file, "--seed", "3"])
    assert rc == 0
    assert data["value"] == pytest.approx(5 / 9, abs=1e-6)


HAAR_QUTRITS = np.random.default_rng(8).normal(size=(27, 2)) @ np.array([1, 1j])


@pytest.mark.parametrize(
    "psi", [w_state(), PureState(3, 3, HAAR_QUTRITS / np.linalg.norm(HAAR_QUTRITS))]
)
def test_measure_gfs_prints_the_product_state_it_found(capsys, tmp_path, psi):
    path = tmp_path / "psi.json"
    path.write_text(state_to_json(psi))
    rc, data = run_json(capsys, ["measure", "--kind", "gfs", "--in", str(path), "--seed", "3"])
    assert rc == 0 and data["certificate"] == "product-state"
    vectors = [np.array([complex(re, im) for re, im in vec]) for vec in data["vectors"]]
    assert [vec.shape for vec in vectors] == [(psi.d,)] * psi.n
    product = vectors[0]
    for vec in vectors[1:]:
        product = np.kron(product, vec)
    overlap = abs(np.vdot(product, psi.amplitudes)) ** 2
    assert 1 - overlap == pytest.approx(data["value"], abs=1e-12)


def test_measure_rpure_needs_cut(capsys, ghz_file):
    assert run_command(["measure", "--kind", "rpure", "--in", ghz_file]) == 2
    assert capsys.readouterr().err == "error: --kind rpure requires --cut\n"
    rc, data = run_json(
        capsys, ["measure", "--kind", "rpure", "--in", ghz_file, "--cut", "1"]
    )
    assert rc == 0
    assert data["value"] == pytest.approx(1.0, abs=1e-9)


def test_measure_missing_file_exit_one(capsys):
    assert run_command(["measure", "--kind", "gbs", "--in", "/no/such/file.json"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--kind", "gbs", "--in", "{dir}"],
        ["reproduce", "--all", "--out", "{dir}"],
    ],
)
def test_directory_in_place_of_a_file_exit_one(tmp_path, capsys, argv):
    # any OSError from the file system is one error line, not a traceback
    assert run_command([a.format(dir=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# an integer literal no float can hold
BIG = "1" + "0" * 400


def test_measure_malformed_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "d": 2, "amplitudes": [[1, 0]]}')
    assert run_command(["measure", "--kind", "gbs", "--in", str(bad)]) == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "d": 2, "amplitudes": 5}',
        '{"n": 3, "d": 2, "amplitudes": [[1, 0, 0]]}',
        '{"n": 3, "d": 2, "amplitudes": [1, 0]}',
        '{"n": 3, "d": 2, "amplitudes": [[1, 0], [0]]}',
        '{"n": "three", "d": 2, "amplitudes": [[1, 0]]}',
        '{"n": 2.5, "d": 2, "amplitudes": [[1, 0]]}',
        '[3, 2]',
        '{"n": 0, "d": 2, "amplitudes": [[1, 0]]}',
        '{"n": 2, "d": 3, "amplitudes": [[1, 0]]}',
        # refused from the count alone, without building 3**n
        '{"n": 10000000, "d": 3, "amplitudes": [[1, 0]]}',
        '{"n": 100000000, "d": 3, "amplitudes": [[1, 0]]}',
        # booleans are no amplitudes; an integer beyond the float range is refused
        '{"n": 2, "d": 2, "amplitudes": [[true, false], [0, 0], [0, 0], [0, 0]]}',
        pytest.param(
            '{"n": 2, "d": 2, "amplitudes": [[' + BIG + ', 0], [0, 0], [0, 0], [0, 0]]}',
            id="amplitude-beyond-float-range",
        ),
    ],
)
def test_measure_malformed_state_shapes_exit_one(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_command(["measure", "--kind", "gbs", "--in", str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed state JSON")


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 1, "d": 2, "entries": 5}',
        '{"n": 1, "d": 2, "entries": [[1, 0], [0, 0], [0, 0]]}',
        '{"n": true, "d": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
        '{"n": -3, "d": 1, "entries": [[1, 0]]}',
        '{"n": 0, "d": 2, "entries": [[1, 0]]}',
        '{"n": 1, "d": 1, "entries": [[1, 0]]}',
        '{"n": -1, "d": 2, "entries": [[1, 0]]}',
        '{"n": 1, "d": 2, "entries": [[1, 0], [0, 0], [0, 0], [false, 0]]}',
        pytest.param(
            '{"n": 1, "d": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, ' + BIG + "]]}",
            id="entry-beyond-float-range",
        ),
    ],
)
def test_malformed_density_shapes_exit_one(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_command(["witness", "--name", "w", "--eval", str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed density JSON")


@pytest.mark.parametrize("kind", ["gbs", "rbs-upper"])
def test_measure_one_party_state_exit_one(tmp_path, capsys, kind):
    path = tmp_path / "one.json"
    path.write_text('{"n": 1, "d": 2, "amplitudes": [[1, 0], [0, 0]]}')
    assert run_command(["measure", "--kind", kind, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "at least 2 parties" in err[0]


@pytest.mark.parametrize("argv", [["twirl", "--in"], ["witness", "--name", "w", "--eval"]])
def test_state_or_density_input_reports_the_state_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "d": 2, "amplitudes": 5}')
    assert run_command(argv + [str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed state JSON")


@pytest.mark.parametrize(
    "pair", ["[true, false]", "[0, true]", pytest.param(f"[{BIG}, 0]", id="beyond-float-range")]
)
def test_twirl_refuses_amplitudes_that_are_no_floats(tmp_path, capsys, pair):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "d": 2, "amplitudes": [' + pair + ", [0, 0]" * 7 + "]}")
    assert run_command(["twirl", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed state JSON")


def one_line_error(capsys, argv):
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def test_non_finite_amplitudes_exit_one(tmp_path, capsys):
    # NaN must not load: G_FS would read 0.0 and call the state a product state
    nan_file = tmp_path / "nan.json"
    nan_file.write_text('{"n": 3, "d": 2, "amplitudes": [[NaN, 0]' + ", [0, 0]" * 7 + "]}")
    err = one_line_error(capsys, ["measure", "--kind", "gfs", "--in", str(nan_file)])
    assert "non-finite" in err
    assert "non-finite" in one_line_error(capsys, ["catalog", "psi-w", "0.5", "0.5", "nan"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["measure", "--kind", "gbs", "--in"],
         '{"n": 2, "d": 2, "amplitudes": [[1e200, 0], [0, 0], [0, 0], [0, 0]]}',
         "error: state not normalized: |norm - 1| = inf"),
        (["twirl", "--in"],
         '{"n": 1, "d": 2, "entries": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}',
         "error: trace != 1: inf"),
        (["twirl", "--in"],
         '{"n": 1, "d": 2, "entries": [[0.5, 0], [1e308, 0], [-1e308, 0], [0.5, 0]]}',
         "error: matrix not Hermitian"),
    ],
    ids=["norm", "trace", "hermitian"],
)
def test_overflowing_input_is_one_line_without_warnings(tmp_path, capsys, argv, text, message):
    # a finite input whose norm, trace or Hermitian residual overflows; any
    # numpy warning is raised here as an error
    path = tmp_path / "big.json"
    path.write_text(text)
    assert one_line_error(capsys, argv + [str(path)]) == message


@pytest.mark.parametrize(
    "argv",
    [
        # sizes beyond any 64-bit address space, so the allocation fails
        # whatever the host's overcommit policy
        ["catalog", "ghz", "50", "2"],
        ["convert", "--from", "W", "--to", "GHZ", "--theory", "bsp", "--build",
         "--verify", str(10**15)],
    ],
    ids=["catalog", "convert"],
)
def test_memory_error_is_one_line(capsys, w_file, ghz_file, argv):
    argv = [{"W": w_file, "GHZ": ghz_file}.get(a, a) for a in argv]
    assert one_line_error(capsys, argv).startswith("error: Unable to allocate")


def test_twirl_command(tmp_path, capsys, ghz_file):
    rc, data = run_json(capsys, ["twirl", "--in", ghz_file])
    assert rc == 0
    assert data["lambda_plus"] == pytest.approx(1.0, abs=1e-12)
    # the same state as a density matrix
    rho_file = tmp_path / "ghz32-rho.json"
    rho_file.write_text(density_to_json(ghz(3, 2).density()))
    rc, from_rho = run_json(capsys, ["twirl", "--in", str(rho_file)])
    assert rc == 0 and from_rho == data


def test_twirl_takes_a_state_negative_within_psd_tol(tmp_path, capsys):
    # (1 + eps)|GHZ><GHZ| - eps|001><001| loads (its eigenvalue -eps is
    # within PSD_TOL), so its twirl must load too
    eps = 5e-11
    g = ghz(3, 2).amplitudes
    m = (1 + eps) * np.outer(g, g.conj())
    m[1, 1] -= eps
    path = tmp_path / "below.json"
    path.write_text(density_to_json(DensityMatrix(3, 2, m)))
    rc, data = run_json(capsys, ["twirl", "--in", str(path)])
    assert rc == 0
    assert data["lambda_rest"] == pytest.approx(-eps, abs=1e-15)


def test_twirl_takes_middle_weights_negative_within_psd_tol(tmp_path, capsys):
    # (1 + 6 eps)|GHZ><GHZ| - eps (the six middle projectors) loads, each
    # eigenvalue -eps within PSD_TOL, though its middle weight l = -6 eps is not
    eps = 5e-11
    g = ghz(3, 2).amplitudes
    m = (1 + 6 * eps) * np.outer(g, g.conj())
    m[range(1, 7), range(1, 7)] -= eps
    path = tmp_path / "middle.json"
    path.write_text(density_to_json(DensityMatrix(3, 2, m)))
    rc, data = run_json(capsys, ["twirl", "--in", str(path)])
    assert rc == 0
    assert data["lambda_rest"] == pytest.approx(-6 * eps, abs=1e-14)


def test_symmetric_robustness_exact_output(capsys):
    rc, data = run_json(capsys, ["symmetric-robustness", "--params", "1,0,0"])
    assert rc == 0
    assert data["value"]["exact"] == [2, 1]
    assert data["mixer"]["lambda_minus"]["exact"] == [1, 4]
    assert data["mixer"]["lambda_rest"]["exact"] == [3, 4]


def test_symmetric_robustness_fraction_params(capsys):
    rc, data = run_json(capsys, ["symmetric-robustness", "--params", "1/2,0,1/2"])
    assert rc == 0
    assert data["value"]["exact"] == [2, 3]


def test_symmetric_robustness_bad_params(capsys):
    assert run_command(["symmetric-robustness", "--params", "1,0"]) == 1


def test_symmetric_robustness_zero_denominator(capsys):
    err = one_line_error(capsys, ["symmetric-robustness", "--params", "1/0,0,0"])
    assert "zero denominator" in err


def test_symmetric_robustness_params_beyond_the_float_range(capsys):
    # the weights are exact Fractions, and their sum is checked as one
    err = one_line_error(capsys, ["symmetric-robustness", "--params", "1e400,0,0"])
    assert err == "error: weights sum to more than the largest float, expected 1"


def test_witness_eval_on_wrong_shape(tmp_path, capsys):
    bell = tmp_path / "bell.json"
    bell.write_text(state_to_json(ghz(2, 2)))
    err = one_line_error(capsys, ["witness", "--name", "w", "--eval", str(bell)])
    assert "n=3, d=2" in err and "n=2, d=2" in err


def test_witness_command(capsys, w_file):
    rc, data = run_json(capsys, ["witness", "--name", "w", "--eval", w_file])
    assert rc == 0
    assert data["dual_lower_bound"] == pytest.approx(2.0, abs=1e-9)
    assert data["verified_range"] == [0.0, 1.0]


def test_convert_command(capsys, w_file, ghz_file):
    rc, data = run_json(
        capsys,
        ["convert", "--from", w_file, "--to", ghz_file, "--theory", "bsp",
         "--build", "--verify", "300", "--seed", "5"],
    )
    assert rc == 0
    assert data["p_max"] == pytest.approx(0.5, abs=1e-9)
    assert data["preservation"]["violations"] == 0


def strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("case", ["audited", "tiny-p", "all-below-floor"])
def test_convert_prints_only_json(monkeypatch, capsys, w_file, ghz_file, case):
    # 1 / p overflows at p = 5e-324, and no overlap at or below OVERLAP_FLOOR
    # bounds a mixing weight: neither leaves a finite ratio margin, printed as null
    from entactic import conversion

    argv = ["convert", "--from", w_file, "--to", ghz_file, "--theory", "bsp", "--build",
            "--verify", "10", "--seed", "1"]
    if case == "tiny-p":
        argv += ["--p", "5e-324"]
    if case == "all-below-floor":
        floor = conversion.OVERLAP_FLOOR
        monkeypatch.setattr(conversion, "_extremal_free_overlap", lambda prep_map, seed: floor)
        argv[argv.index("--verify") + 1] = "1"
    assert run_command(argv) == 0
    pres = strict_json(capsys.readouterr().out)["preservation"]
    assert pres["violations"] == 0
    if case == "audited":
        assert isinstance(pres["worst_ratio_margin"], float) and pres["worst_ratio_margin"] >= 0
    else:
        assert pres["worst_ratio_margin"] is None


def test_the_parser_is_built_once_and_parses_each_run_afresh(capsys, w_file, ghz_file):
    from entactic import cli

    parser = cli.build_parser()
    argv = ["convert", "--from", w_file, "--to", ghz_file, "--theory", "bsp",
            "--build", "--verify", "3"]
    first = run_command(argv), capsys.readouterr()
    # a usage error, a run that sets --seed and --p, then the first run again
    assert run_command(argv[:6] + ["--verify", "3"]) == 2
    assert run_command(argv + ["--seed", "5", "--p", "0.25"]) == 0
    capsys.readouterr()
    assert (run_command(argv), capsys.readouterr()) == first
    assert cli.build_parser() is parser


@pytest.mark.parametrize("r_upper", ["nan", "-1", "inf"])
def test_convert_fsp_rejects_bad_r_upper(capsys, w_file, ghz_file, r_upper):
    # NaN and inf would print as invalid JSON, -1 as a bound below the least robustness 0
    argv = ["convert", "--from", w_file, "--to", ghz_file, "--theory", "fsp", "--r-upper", r_upper]
    assert "finite and >= 0" in one_line_error(capsys, argv)


def usage_error(capsys, argv):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "extra, flag",
    [(["--p", "0.3"], "--p"), (["--verify", "100"], "--verify"),
     (["--verify", "100", "--p", "0.3"], "--p")],
)
def test_convert_p_and_verify_require_build(monkeypatch, capsys, w_file, ghz_file, extra, flag):
    from entactic import conversion

    def refuse(*args, **kwargs):
        raise AssertionError("measured although the flags were refused")

    monkeypatch.setattr(conversion, "max_probability", refuse)
    argv = ["convert", "--from", w_file, "--to", ghz_file, "--theory", "bsp"] + extra
    assert usage_error(capsys, argv) == f"error: {flag} requires --build\n"


@pytest.mark.parametrize("extra", [[], ["--build", "--verify", "100"]])
def test_convert_r_upper_requires_fsp(monkeypatch, capsys, w_file, ghz_file, extra):
    from entactic import conversion

    def refuse(*args, **kwargs):
        raise AssertionError("measured although --r-upper was refused")

    monkeypatch.setattr(conversion, "max_probability", refuse)
    argv = ["convert", "--from", w_file, "--to", ghz_file, "--theory", "bsp",
            "--r-upper", "0.5"] + extra
    assert usage_error(capsys, argv) == "error: --r-upper requires --theory fsp\n"


@pytest.mark.parametrize("kind", ["gbs", "gfs", "rbs-upper"])
def test_measure_cut_requires_rpure(monkeypatch, capsys, ghz_file, kind):
    from entactic import cli

    def refuse(path):
        raise AssertionError("read the state although --cut was refused")

    monkeypatch.setattr(cli, "_load_state", refuse)
    argv = ["measure", "--kind", kind, "--in", ghz_file, "--cut", "1,2"]
    assert usage_error(capsys, argv) == "error: --cut requires --kind rpure\n"


@pytest.mark.parametrize("text", ["1,x", "x", "0", "-1", "1.5", "1,", ",1", "1,,2", " 1", ""])
def test_measure_malformed_cut_is_a_usage_error(monkeypatch, capsys, ghz_file, text):
    from entactic import cli

    def refuse(path):
        raise AssertionError("read the state although --cut was malformed")

    monkeypatch.setattr(cli, "_load_state", refuse)
    argv = ["measure", "--kind", "rpure", "--in", ghz_file, "--cut", text]
    assert usage_error(capsys, argv) == (
        f"error: --cut must be comma-separated positive integers such as 1,2, got {text!r}\n"
    )


def test_measure_rpure_multi_party_cut(capsys, ghz_file):
    rc, data = run_json(capsys, ["measure", "--kind", "rpure", "--in", ghz_file, "--cut", "1,3"])
    assert rc == 0
    assert data["cut"] == "{1,3}|{2}"
    assert data["value"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_convert_verify_below_one_is_a_usage_error(capsys, w_file, ghz_file, samples):
    argv = ["convert", "--from", w_file, "--to", ghz_file, "--theory", "bsp", "--build",
            "--verify", samples]
    assert usage_error(capsys, argv) == f"error: --verify must be >= 1, got {samples}\n"


def test_convert_help_says_p_and_verify_require_build(capsys):
    assert run_command(["convert", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default p_max (requires --build)" in text
    assert "free inputs (requires --build)" in text


def test_convert_build_accepts_the_printed_p_max_and_not_one_ulp_more(tmp_path, capsys):
    rng = np.random.default_rng(11)
    paths = []
    for name in ("from", "to"):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(state_to_json(PureState(3, 2, v / np.linalg.norm(v))))
    argv = ["convert", "--from", str(paths[0]), "--to", str(paths[1]), "--theory", "bsp"]
    rc, data = run_json(capsys, argv)
    assert rc == 0 and data["p_max"] < 1
    p_max = data["p_max"]
    rc, built = run_json(capsys, argv + ["--build", "--p", repr(p_max)])
    assert rc == 0 and built["built"]["p"] == p_max
    above = math.nextafter(p_max, math.inf)
    err = one_line_error(capsys, argv + ["--build", "--p", repr(above)])
    assert "exceeds certified maximum" in err


def test_convert_free_source_exit_one(tmp_path, capsys):
    prod = tmp_path / "prod.json"
    amps = np.zeros(8)
    amps[0] = 1.0
    from entactic.linalg import PureState

    prod.write_text(state_to_json(PureState(3, 2, amps)))
    ghz_path = tmp_path / "g.json"
    ghz_path.write_text(state_to_json(ghz(3, 2)))
    rc = run_command(["convert", "--from", str(prod), "--to", str(ghz_path), "--theory", "bsp"])
    assert rc == 1


@pytest.mark.parametrize(
    "extra", [["--theory", "bsp"], ["--theory", "bsp", "--build"], ["--theory", "fsp", "--r-upper", "2"]]
)
def test_convert_mismatched_systems_exit_one(tmp_path, capsys, ghz_file, extra):
    ghz4 = tmp_path / "ghz42.json"
    ghz4.write_text(state_to_json(ghz(4, 2)))
    err = one_line_error(capsys, ["convert", "--from", ghz_file, "--to", str(ghz4)] + extra)
    assert err == "error: source (n, d) = (3, 2) and target (n, d) = (4, 2) differ"


def test_reproduce_selection(capsys):
    rc, data = run_json(capsys, ["reproduce", "--select", "gbs-ghz-grid", "--seed", "7"])
    assert rc == 0
    assert data["schema_version"] == 1
    assert len(data["claims"]) == 1
    assert data["claims"][0]["pass"]


def test_reproduce_without_a_selection_is_a_usage_error(capsys):
    # neither --all nor --select: argparse refuses, nothing runs
    assert run_command(["reproduce", "--seed", "7"]) == 2
    assert run_command(["reproduce", "--all", "--select", "gbs-ghz-grid"]) == 2
    assert capsys.readouterr().out == ""
    # a --select naming no claim id is one error line, not an empty pass
    for value in ["", ","]:
        assert run_command(["reproduce", "--select", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --select names no claim ids\n"


def test_reproduce_unknown_selection(capsys):
    assert run_command(["reproduce", "--select", "nonesuch"]) == 1
    # the KeyError's message, not its repr with quotes around it
    assert capsys.readouterr().err == "error: unknown claim id(s): ['nonesuch']\n"


def test_reproduce_deterministic_output(capsys):
    rc1 = run_command(["reproduce", "--all", "--seed", "7"])
    out1 = capsys.readouterr().out
    rc2 = run_command(["reproduce", "--all", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_convert_fsp_build_refuses_before_measuring(monkeypatch, capsys, w_file, ghz_file):
    from entactic import conversion

    def refuse(*args, **kwargs):
        raise AssertionError("computed a certificate for a map that cannot be built")

    monkeypatch.setattr(conversion, "max_probability", refuse)
    argv = ["convert", "--from", w_file, "--to", ghz_file, "--theory", "fsp", "--build",
            "--r-upper", "2"]
    assert one_line_error(capsys, argv) == (
        "error: building an FSP map needs a certified separable mixer; "
        "only the BSP route is automated"
    )


@pytest.mark.parametrize(
    "argv,note",
    [
        (["catalog", "ghz", "3", "2"], "ghz: n=3 d=2"),
        (["measure", "--kind", "gbs", "--in", "{ghz}"], "gbs = 0.5"),
        # GHZ's rest weight is rounding noise, so the note quotes the JSON's
        (["twirl", "--in", "{ghz}"], "twirl -> (1, 0, {lambda_rest:.6g})"),
        (["symmetric-robustness", "--params", "1,0,0"], "s = 2"),
        (["convert", "--from", "{w}", "--to", "{ghz}", "--theory", "bsp"], "p_max = 0.5"),
    ],
)
def test_verbose_adds_only_the_stderr_summary(capsys, w_file, ghz_file, argv, note):
    argv = [a.format(w=w_file, ghz=ghz_file) for a in argv]
    assert run_command(argv) == 0
    quiet = capsys.readouterr()
    assert run_command(["--verbose"] + argv) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    assert loud.err == note.format(**json.loads(quiet.out)) + "\n"


def test_verbose_reproduce_adds_one_line_per_claim(capsys):
    argv = ["reproduce", "--select", "gbs-ghz-grid,robustness-formulas", "--seed", "7"]
    assert run_command(argv) == 0
    quiet = capsys.readouterr()
    assert run_command(["--verbose"] + argv) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    assert loud.err.splitlines() == [
        "[pass] AC1   gbs-ghz-grid",
        "[pass] AC8   robustness-formulas",
    ]


def test_reproduce_timing_adds_only_wall_times(capsys):
    argv = ["reproduce", "--select", "gbs-ghz-grid,twirl-projection,robustness-formulas",
            "--seed", "7"]
    _, plain = run_json(capsys, argv)
    _, timed = run_json(capsys, argv + ["--timing"])
    for claim in timed["claims"]:
        assert isinstance(claim.pop("wall_time"), float)
    assert timed == plain


def readme_cli_lines():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


def test_readme_cli_block_runs(monkeypatch, tmp_path, capsys):
    # every line of the README's CLI block, in order, in an empty directory
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert lines and all(line.startswith("entactic ") for line in lines)
    for line in lines:
        argv = shlex.split(line)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        assert run_command(argv) == 0, line
        out = capsys.readouterr().out
        if target:
            Path(target).write_text(out)
    assert json.loads(Path("report.json").read_text())["all_pass"]


def test_unknown_flag_exit_two(capsys):
    assert run_command(["measure", "--bogus"]) == 2


def test_claim_registry_traceability():
    from entactic.report import REGISTRY

    ids = [cid for cid, *_ in REGISTRY]
    assert len(ids) == len(set(ids))
    valid_refs = {f"AC{k}" for k in range(1, 13)}
    for _, _, ref, _ in REGISTRY:
        assert ref in valid_refs


@pytest.mark.parametrize("factor,ppt", [(0.5, True), (2.0, False)])
def test_lemma2_claim_ppt_floor_edges(monkeypatch, factor, ppt):
    # the claim's PPT check on the W mixer and boundary allows eigenvalues
    # down to minus each state's rounding slack
    from entactic import linalg, measures, report
    from entactic.linalg import eigenvalue_slack

    monkeypatch.setattr(
        linalg, "min_pt_eigenvalue", lambda rho, subset: -factor * eigenvalue_slack(rho.entries)
    )
    monkeypatch.setattr(measures, "robustness_fs_upper_via_mix", lambda psi, mixer: 2.0)
    _, computed, _ = report._claim_lemma2(7)
    assert computed[-1] is ppt


def test_env_seed_default(monkeypatch, capsys, w_file):
    monkeypatch.setenv("ENTACTIC_SEED", "11")
    rc, data = run_json(capsys, ["measure", "--kind", "gfs", "--in", w_file])
    assert rc == 0
    assert data["value"] == pytest.approx(5 / 9, abs=1e-6)


def test_env_seed_non_integer_exit_two(monkeypatch, capsys, w_file):
    monkeypatch.setenv("ENTACTIC_SEED", "abc")
    assert run_command(["measure", "--kind", "gfs", "--in", w_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: ENTACTIC_SEED must be an integer, got 'abc'"
    ]
    # an explicit --seed wins over the environment
    rc, data = run_json(capsys, ["measure", "--kind", "gfs", "--in", w_file, "--seed", "3"])
    assert rc == 0


SEEDED_COMMANDS = [
    ["measure", "--kind", "gfs", "--in", "W"],
    ["witness", "--name", "ghz", "--check"],
    ["convert", "--from", "W", "--to", "GHZ", "--theory", "bsp", "--build", "--verify", "10"],
    ["reproduce", "--all"],
]


@pytest.fixture()
def nothing_computed(monkeypatch):
    from entactic import cli, conversion, witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("read or computed although the seed was refused")

    for module, name in [(cli, "_load_state"), (cli, "_load_any"), (cli, "run_claims"),
                         (conversion, "max_probability"), (witnesses, "witness_range_over_fs")]:
        monkeypatch.setattr(module, name, refuse)


def with_files(argv, w_file, ghz_file):
    return [{"W": w_file, "GHZ": ghz_file}.get(a, a) for a in argv]


@pytest.mark.parametrize("argv", SEEDED_COMMANDS)
def test_negative_seed_is_a_usage_error(nothing_computed, capsys, w_file, ghz_file, argv):
    argv = with_files(argv, w_file, ghz_file) + ["--seed", "-1"]
    assert usage_error(capsys, argv) == "error: --seed must be non-negative, got -1\n"


@pytest.mark.parametrize("argv", SEEDED_COMMANDS)
def test_negative_env_seed_is_a_usage_error(
    monkeypatch, nothing_computed, capsys, w_file, ghz_file, argv
):
    monkeypatch.setenv("ENTACTIC_SEED", "-1")
    argv = with_files(argv, w_file, ghz_file)
    assert usage_error(capsys, argv) == "error: ENTACTIC_SEED must be non-negative, got '-1'\n"


def test_seed_zero_runs(monkeypatch, capsys, w_file):
    # an explicit --seed wins over a negative ENTACTIC_SEED, which is not read
    monkeypatch.setenv("ENTACTIC_SEED", "-1")
    rc, data = run_json(capsys, ["measure", "--kind", "gfs", "--in", w_file, "--seed", "0"])
    assert rc == 0
    assert data["value"] == pytest.approx(5 / 9, abs=1e-6)
