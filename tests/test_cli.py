"""Exit codes, output schemas and determinism of the command-line surface."""

import csv
import io
import json

import pytest
from numpy.testing import assert_allclose

from symcov import cli
from symcov.cli import main
from symcov.covariance import covariance_matrix, min_eigenvalue
from symcov.states import state_from_payload, w_state
from symcov.tensors import correlation_tensor

W6 = '{"family":"w","n_qubits":6}'
GHZ6 = '{"family":"ghz","n_qubits":6}'


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_exit_code_entangled(capsys):
    code, payload = _run_json(capsys, ["test", "--state", W6, "--k", "2"])
    assert code == 0
    assert payload["entangled"] is True


def test_exit_code_not_detected(capsys):
    code, payload = _run_json(capsys, ["test", "--state", GHZ6, "--k", "1"])
    assert code == 1
    assert payload["entangled"] is False


def test_exit_code_usage_error_oversized_group(capsys):
    code = main(["test", "--state", GHZ6, "--k", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


def test_exit_code_usage_error_malformed_json(capsys):
    code = main(["test", "--state", '{"family":', "--k", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "desc",
    [
        '{"family":"ghz","n_qubits":4.7}',
        '{"family":"w","n_qubits":true}',
        '{"family":"dicke","n_qubits":4,"p":1.9}',
        '{"family":"product","n_qubits":2,"theta":NaN}',
        '{"family":"noisy","x":true,"base":{"family":"w","n_qubits":4}}',
        '{"family":"w","n_qubits":4,"x":0.5}',
    ],
)
def test_exit_code_usage_error_coercible_description(capsys, desc):
    code = main(["state", "--state", desc])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_large_product_state_is_not_detected(capsys):
    # C(100, 50) does not fit uint64; the state must still build
    desc = '{"family":"product","n_qubits":100,"theta":1.0}'
    code = main(["test", "--state", desc, "--k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["entangled"] is False
    assert captured.err == ""


def test_exit_code_usage_error_missing_file(capsys):
    code = main(["state", "--state", "/nonexistent/state.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_state_json_payload_roundtrip(capsys):
    code, payload = _run_json(capsys, ["state", "--state", W6])
    assert code == 0
    rho = state_from_payload(payload)
    assert_allclose(rho.dicke_matrix, w_state(6).dicke_matrix)


def test_state_reads_description_from_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(W6)
    code, payload = _run_json(capsys, ["state", "--state", str(path)])
    assert code == 0
    assert payload["n_qubits"] == 6


def test_state_csv_format(capsys):
    code = main(["state", "--state", '{"family":"ghz","n_qubits":2}', "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 9
    corner = next(r for r in rows if r["row"] == "0" and r["col"] == "2")
    assert float(corner["re"]) == pytest.approx(0.5)


def test_tensor_payload_matches_library(capsys):
    code, payload = _run_json(capsys, ["tensor", "--state", W6, "--l", "2"])
    assert code == 0
    assert payload["order"] == 2
    assert payload["encoding"] == "base3-xyz"
    expected = correlation_tensor(w_state(6), 2).values.reshape(-1)
    assert_allclose(payload["values"], expected, atol=1e-12)


def test_tensor_csv_uses_axis_strings(capsys):
    code = main(["tensor", "--state", W6, "--l", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["index"] for r in rows] == ["x", "y", "z"]


def test_cov_payload(capsys):
    code, payload = _run_json(capsys, ["cov", "--state", W6, "--k", "1"])
    assert code == 0
    cm = covariance_matrix(w_state(6), 1)
    assert_allclose(payload["c_block"], cm.c_block, atol=1e-12)
    assert_allclose(payload["a_block"], cm.a_block, atol=1e-12)
    assert payload["min_eigenvalue"] == pytest.approx(min_eigenvalue(cm))


def test_test_command_csv(capsys):
    code = main(["test", "--state", W6, "--k", "3", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert rows[0]["entangled"] == "True"


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["test", "--state", W6, "--k", "2", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["entangled"] is True


def test_scan_command_smoke(capsys):
    code, payload = _run_json(
        capsys,
        [
            "scan",
            "--state", '{"family":"noisy","base":{"family":"ghz","n_qubits":2}}',
            "--k", "1",
            "--grid", "16",
            "--tol", "1e-4",
            "--reference", "0.25",
        ],
    )
    assert code == 0
    assert payload["threshold"] == pytest.approx(0.25, abs=1e-4)
    assert payload["agrees"] is True
    assert payload["detector"]["kind"] == "min_eig"


def test_scan_rejects_fixed_x(capsys):
    code = main(
        [
            "scan",
            "--state", '{"family":"noisy","x":0.5,"base":{"family":"ghz","n_qubits":2}}',
            "--k", "1",
        ]
    )
    assert code == 2
    assert "free" in capsys.readouterr().err


def test_scan_not_detected_exit_code(capsys):
    code = main(
        [
            "scan",
            "--state", '{"family":"noisy","base":{"family":"ghz","n_qubits":6}}',
            "--k", "1",
            "--grid", "8",
            "--tol", "1e-3",
        ]
    )
    assert code == 1


def test_validate_theorem_deterministic(capsys):
    argv = ["validate-theorem", "--n", "4", "--samples", "6", "--seed", "31"]
    code_a = main(argv)
    out_a = capsys.readouterr().out
    code_b = main(argv)
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["violations"] == 0
    assert payload["seed"] == 31
    assert payload["most_negative"] >= -1e-9


def test_validate_theorem_single_product_term(capsys):
    code, payload = _run_json(
        capsys,
        ["validate-theorem", "--n", "4", "--samples", "1", "--terms", "1", "--seed", "5"],
    )
    assert code == 0
    assert payload["violations"] == 0
    assert abs(payload["most_negative"]) <= 1e-12


NOISY_GHZ4 = '{"family":"noisy","base":{"family":"ghz","n_qubits":4}}'

# one cheap invocation per command, without --format
COMMANDS = {
    "state": ["state", "--state", '{"family":"w","n_qubits":3}'],
    "tensor": ["tensor", "--state", '{"family":"w","n_qubits":4}', "--l", "2"],
    "cov": ["cov", "--state", '{"family":"w","n_qubits":4}', "--k", "1"],
    "test": ["test", "--state", W6, "--k", "2"],
    "scan": ["scan", "--state", NOISY_GHZ4, "--k", "2", "--detector", "diag",
             "--index", "xy", "--reference", "0.0625"],
    "validate-theorem": ["validate-theorem", "--n", "4", "--samples", "2", "--seed", "3"],
    "reproduce": ["reproduce"],
}

CSV_HEADERS = {
    "state": "row,col,re,im",
    "tensor": "index,value",
    "cov": "block,row,col,value",
    "test": "n_qubits,k,min_eigenvalue,entangled,tolerance,"
            "certificate_type,certificate_indices,certificate_value",
    "scan": "detector,k,index,threshold,bracket_lo,bracket_hi,reference_value,agrees",
    "validate-theorem": "n_qubits,samples,terms,seed,blocks_checked,violations,"
                        "most_negative,tolerance",
    "reproduce": "name,reference,computed,abs_delta,status,note",
}

TABLE_HEADER = (
    "quantity                                            reference       computed"
    "    |delta| status            note"
)


@pytest.fixture(scope="module")
def reproduce_rows():
    return cli._reproduce_rows()


@pytest.fixture
def fast_reproduce(monkeypatch, reproduce_rows):
    # the rendering under test does not depend on recomputing the rows
    monkeypatch.setattr(cli, "_reproduce_rows", lambda: reproduce_rows)
    return reproduce_rows


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"reproduce"}))
def test_table_format_only_on_reproduce(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main(COMMANDS[command] + ["--format", "table"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert "invalid choice: 'table'" in captured.err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_csv_header(capsys, fast_reproduce, command):
    code = main(COMMANDS[command] + ["--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == CSV_HEADERS[command]


def test_reproduce_table_has_one_line_per_row(capsys, fast_reproduce):
    assert main(["reproduce", "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == TABLE_HEADER
    assert len(lines) == 1 + len(fast_reproduce)
    for line, row in zip(lines[1:], fast_reproduce):
        assert line.startswith(row["name"])
        assert row["status"] in line


@pytest.mark.parametrize(
    "argv",
    [
        COMMANDS["test"],
        COMMANDS["test"] + ["--format", "csv"],
        COMMANDS["cov"] + ["--format", "csv"],
        ["reproduce", "--format", "json"],
        ["reproduce", "--format", "csv"],
        ["reproduce", "--format", "table"],
    ],
)
def test_output_file_holds_stdout_bytes(tmp_path, capsys, fast_reproduce, argv):
    code = main(argv)
    stdout = capsys.readouterr().out
    target = tmp_path / "result.out"
    assert main(argv + ["--output", str(target)]) == code
    assert capsys.readouterr().out == ""
    written = target.read_bytes().decode("utf-8")
    assert written == stdout
    assert written.endswith("\n") and not written.endswith("\n\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--state", W6, "--k", "2", "--tol", "nan"],
        ["test", "--state", W6, "--k", "2", "--tol", "inf"],
        ["validate-theorem", "--n", "4", "--samples", "2", "--tol", "nan"],
        ["validate-theorem", "--n", "4", "--samples", "2", "--tol", "0"],
        ["scan", "--state", NOISY_GHZ4, "--k", "2", "--tol", "nan"],
        ["scan", "--state", NOISY_GHZ4, "--k", "2", "--tol", "inf"],
    ],
)
def test_non_finite_tolerance_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_scan_rejects_unknown_family_key(capsys):
    desc = '{"family":"noisy","base":{"family":"ghz","n_qubits":4},"y":0.5}'
    code = main(["scan", "--state", desc, "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: unknown key 'y' in a 'noisy' description\n"
