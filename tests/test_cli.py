import json

import numpy as np
import pytest

from entactic.cli import run_command
from entactic.linalg import density_to_json, state_from_json, state_to_json
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


def test_measure_rpure_needs_cut(capsys, ghz_file):
    assert run_command(["measure", "--kind", "rpure", "--in", ghz_file]) == 1
    rc, data = run_json(
        capsys, ["measure", "--kind", "rpure", "--in", ghz_file, "--cut", "1"]
    )
    assert rc == 0
    assert data["value"] == pytest.approx(1.0, abs=1e-9)


def test_measure_missing_file_exit_one(capsys):
    assert run_command(["measure", "--kind", "gbs", "--in", "/no/such/file.json"]) == 1


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


def test_twirl_command(tmp_path, capsys, ghz_file):
    rc, data = run_json(capsys, ["twirl", "--in", ghz_file])
    assert rc == 0
    assert data["lambda_plus"] == pytest.approx(1.0, abs=1e-12)
    # the same state as a density matrix
    rho_file = tmp_path / "ghz32-rho.json"
    rho_file.write_text(density_to_json(ghz(3, 2).density()))
    rc, from_rho = run_json(capsys, ["twirl", "--in", str(rho_file)])
    assert rc == 0 and from_rho == data


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


def test_reproduce_selection(capsys):
    rc, data = run_json(capsys, ["reproduce", "--select", "gbs-ghz-grid", "--seed", "7"])
    assert rc == 0
    assert data["schema_version"] == 1
    assert len(data["claims"]) == 1
    assert data["claims"][0]["pass"]


def test_reproduce_empty_selection_exits_zero(capsys):
    rc, data = run_json(capsys, ["reproduce", "--seed", "7"])
    assert rc == 0
    assert data["claims"] == []
    assert data["all_pass"]


def test_reproduce_unknown_selection(capsys):
    assert run_command(["reproduce", "--select", "nonesuch"]) == 1


def test_reproduce_deterministic_output(capsys):
    rc1 = run_command(["reproduce", "--all", "--seed", "7"])
    out1 = capsys.readouterr().out
    rc2 = run_command(["reproduce", "--all", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_unknown_flag_exit_two(capsys):
    assert run_command(["measure", "--bogus"]) == 2


def test_claim_registry_traceability():
    from entactic.report import REGISTRY

    ids = [cid for cid, *_ in REGISTRY]
    assert len(ids) == len(set(ids))
    valid_refs = {f"AC{k}" for k in range(1, 13)}
    for _, _, ref, _ in REGISTRY:
        assert ref in valid_refs


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
