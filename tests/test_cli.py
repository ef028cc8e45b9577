"""Exit codes, output schemas and determinism of the command-line surface."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from symcov import cli, oracle
from symcov.cli import main
from symcov.covariance import covariance_matrix, min_eigenvalue, report_to_payload, test_entanglement
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


def _single_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return lines[0]


def test_missing_description_file_reports_os_error(capsys):
    assert main(["test", "--state", "/nonexistent/state.json", "--k", "1"]) == 2
    assert _single_error(capsys) == (
        "error: [Errno 2] No such file or directory: '/nonexistent/state.json'"
    )


@pytest.mark.parametrize(
    "text, kind",
    [("null", "null"), ("42", "number"), ('[{"family":"w","n_qubits":4}]', "array")],
)
def test_non_object_description_is_usage_error(capsys, text, kind):
    assert main(["test", "--state", text, "--k", "1"]) == 2
    assert _single_error(capsys) == (
        f"error: a state description must be a JSON object, got {kind}"
    )


@pytest.mark.parametrize("text", ["[" * 5000 + "]" * 5000, '{"a":' * 5000 + "1" + "}" * 5000])
def test_deeply_nested_description_is_usage_error(capsys, text):
    assert main(["state", "--state", text]) == 2
    assert _single_error(capsys) == "error: state description is nested too deeply"


def test_non_object_description_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("[" + W6 + "]")
    assert main(["test", "--state", str(path), "--k", "1"]) == 2
    assert _single_error(capsys) == "error: a state description must be a JSON object, got array"


@pytest.mark.parametrize(
    "argv, order",
    [
        (["test", "--state", '{"family":"ghz","n_qubits":14}', "--k", "7"], 14),
        (["tensor", "--state", '{"family":"w","n_qubits":20}', "--l", "13"], 13),
    ],
)
def test_order_cap_names_the_moment_order(capsys, argv, order):
    assert main(argv) == 2
    assert _single_error(capsys) == (
        f"error: moment order {order} exceeds the largest supported order 12"
    )


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


@pytest.mark.parametrize("reference", ["nan", "inf", "-inf"])
def test_scan_refuses_non_finite_reference(capsys, reference):
    # NaN would print as invalid JSON, and inf would land in the CSV
    code = main(["scan", "--state", NOISY_GHZ4, "--k", "2", f"--reference={reference}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: reference must be finite, got {float(reference)}\n"


def test_scan_rejects_unknown_family_key(capsys):
    desc = '{"family":"noisy","base":{"family":"ghz","n_qubits":4},"y":0.5}'
    code = main(["scan", "--state", desc, "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: unknown key 'y' in a 'noisy' description\n"


def _assert_one_error_line(captured):
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


NESTED_NOISY_BASE = '{"family":"noisy","x":0.3,"base":{"family":"ghz","n_qubits":4}}'


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--state", '{"family":"noisy","x":0.5,"base":' + NESTED_NOISY_BASE + "}", "--k", "1"],
        ["scan", "--state", '{"family":"noisy","base":' + NESTED_NOISY_BASE + "}", "--k", "1"],
    ],
    ids=["test", "scan"],
)
def test_nested_noisy_description_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    _assert_one_error_line(captured)
    assert "ghz, w, dicke or product" in captured.err


@pytest.mark.parametrize(
    "exc",
    [
        ArithmeticError("imaginary residual 1e-3 exceeds tolerance"),
        oracle.ConsistencyError("oracle moments should be real"),
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        MemoryError(),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_computation_failure_exits_3(capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "test_entanglement", fail)
    code = main(["test", "--state", W6, "--k", "2"])
    captured = capsys.readouterr()
    assert code == 3
    _assert_one_error_line(captured)
    assert captured.err == f"error: {str(exc) or type(exc).__name__}\n"


# --- one parser per process -------------------------------------------------


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_parser_once(capsys, monkeypatch, fresh_parser):
    calls = []
    build_parser = cli.build_parser

    def counting_build_parser():
        calls.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for command in ("state", "tensor", "cov", "test", "validate-theorem"):
        assert main(COMMANDS[command]) == 0
    assert main(["test", "--state", GHZ6, "--k", "1"]) == 1
    assert main(["test", "--state", GHZ6, "--k", "4"]) == 2
    capsys.readouterr()
    assert len(calls) == 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def _stdout(capsys, argv):
    main(argv)
    return capsys.readouterr().out


def test_test_tolerance_does_not_leak_between_calls(capsys, fresh_parser):
    loose = json.loads(_stdout(capsys, COMMANDS["test"] + ["--tol", "1e-3"]))
    plain = json.loads(_stdout(capsys, COMMANDS["test"]))
    expected = report_to_payload(test_entanglement(w_state(6), 2))["tolerance"]
    assert plain["tolerance"] == expected
    assert loose["tolerance"] != expected


def test_scan_grid_does_not_leak_between_calls(capsys, fresh_parser):
    first = _stdout(capsys, COMMANDS["scan"])
    coarse = _stdout(capsys, COMMANDS["scan"] + ["--grid", "16"])
    assert _stdout(capsys, COMMANDS["scan"]) == first
    assert coarse != first


def test_format_does_not_leak_between_calls(capsys, fresh_parser):
    csv_text = _stdout(capsys, COMMANDS["test"] + ["--format", "csv"])
    assert csv_text.splitlines()[0] == CSV_HEADERS["test"]
    assert json.loads(_stdout(capsys, COMMANDS["test"]))["entangled"] is True


def test_usage_error_after_success(capsys, fresh_parser):
    assert main(COMMANDS["test"]) == 0
    capsys.readouterr()
    code = main(["test", "--state", '{"family":', "--k", "1"])
    assert code == 2
    _assert_one_error_line(capsys.readouterr())


# --- fuzzing main ----------------------------------------------------------


def _mostly(valid, invalid):
    """valid in about four draws of five, invalid in the rest."""
    return st.integers(0, 4).flatmap(lambda draw: invalid if draw == 4 else valid)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(), st.lists(st.integers(0, 3), max_size=2)
)
_N = _mostly(st.one_of(st.sampled_from([4, 8, 12, 16]), st.integers(2, 16)), st.one_of(st.integers(-1, 1), _JUNK))
_ANGLE = _mostly(st.floats(-4.0, 4.0), _JUNK)
_PURE = st.one_of(
    st.fixed_dictionaries({"family": st.sampled_from(["ghz", "w"]), "n_qubits": _N}),
    st.fixed_dictionaries(
        {"family": st.just("dicke"), "n_qubits": _N, "p": _mostly(st.integers(0, 8), _JUNK)}
    ),
    st.fixed_dictionaries(
        {"family": st.just("product"), "n_qubits": _N, "theta": _ANGLE}, optional={"phi": _ANGLE}
    ),
)


def _noisy(base, x):
    return st.fixed_dictionaries({"family": st.just("noisy"), "base": _mostly(base, _JUNK), **x})


_X = {"x": _mostly(st.floats(0.0, 1.0), st.one_of(st.floats(-0.5, 1.5), _JUNK))}
_DESCRIPTION = st.one_of(
    _PURE,
    _noisy(_PURE, _X),
    _noisy(_noisy(_PURE, _X), _X),
    st.dictionaries(st.sampled_from(["family", "n_qubits", "x", "base", "y"]), _JUNK, max_size=3),
)
_SCAN_DESCRIPTION = _mostly(_noisy(_PURE, {}), _DESCRIPTION)


def _inline(descriptions):
    """Descriptions as inline JSON, whole or cut short; text not starting with "{"
    would be read as a file path, so malformed text keeps that brace."""
    texts = descriptions.map(json.dumps)
    cut = texts.flatmap(lambda text: st.integers(1, len(text) - 1).map(lambda i: text[:i]))
    return _mostly(texts, st.one_of(cut, st.text(max_size=8).map(lambda text: "{" + text))).map(
        lambda text: ["--state", text]
    )


def _flag(name, valid):
    """A flag with a well-typed value, or one argparse refuses."""
    return _mostly(valid.map(str), st.sampled_from(["", "x", "1.5", "nan"])).map(
        lambda value: [name, value]
    )


def _optional(flag):
    return st.one_of(st.just([]), flag)


_FORMAT = _optional(st.sampled_from(["json", "csv"]).map(lambda f: ["--format", f]))
_TOL = _flag("--tol", _mostly(st.just(1e-9), st.sampled_from([0.0, -1.0, float("nan"), float("inf")])))
_K = _flag("--k", _mostly(st.integers(1, 4), st.integers(-1, 0)))


def _command(name, *flags):
    return st.tuples(st.just([name]), *flags, _FORMAT).map(lambda parts: sum(parts, []))


# N <= 16, k <= 4, l <= 8; scans keep a coarse grid and bracket so each call stays cheap
_ARGV = st.one_of(
    _command("state", _inline(_DESCRIPTION)),
    _command("tensor", _inline(_DESCRIPTION), _flag("--l", _mostly(st.integers(1, 8), st.integers(-1, 0)))),
    _command("cov", _inline(_DESCRIPTION), _K),
    _command("test", _inline(_DESCRIPTION), _K, _optional(_TOL)),
    _command(
        "scan",
        _inline(_SCAN_DESCRIPTION),
        _K,
        _optional(_flag("--detector", st.sampled_from(["min_eig", "diag", "moment_diag"]))),
        _optional(st.text("xyzw", min_size=1, max_size=4).map(lambda index: ["--index", index])),
        _flag("--grid", _mostly(st.sampled_from([8, 16]), st.just(4))),
        _flag("--tol", _mostly(st.sampled_from([1e-2, 1e-3]), st.sampled_from([0.0, float("nan")]))),
    ),
    _command(
        "validate-theorem",
        _flag("--n", _mostly(st.integers(2, 8), st.integers(-1, 1))),
        _flag("--samples", st.integers(0, 2)),
        _optional(_flag("--terms", st.integers(0, 3))),
        _optional(_TOL),
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_main_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused a flag: usage, then its error line
            assert exc.code == 2
            assert out.getvalue() == ""
            assert sum(": error: " in line for line in err.getvalue().splitlines()) == 1
            return
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert out.getvalue() and err.getvalue() == ""
