"""Command-line surface: build states, dump tensors, test negativity, scan thresholds.

Exit codes are a stable contract: 0 = entangled / success, 1 = not detected
(or an expected reproduction failure), 2 = usage or input error, 3 = the
computation failed (an arithmetic consistency check, a linear-algebra routine
or an allocation).  Data goes to the output stream, diagnostics to the error
stream, never mixed; codes 2 and 3 print one ``error:`` line and no data.
:func:`main` may be called any number of times in one process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import oracle
from .covariance import covariance_matrix, min_eigenvalue, report_to_payload, test_entanglement
from .scanner import (
    Detector,
    _bracket_sign_change,
    analytic_thresholds,
    detector_value,
    scan_threshold,
    scan_to_payload,
)
from .states import (
    SymmetricState,
    _description_family,
    _noisy_base,
    ghz_state,
    noisy_family,
    state_from_description,
    state_to_payload,
    w_state,
)
from .tensors import MultiIndex, correlation_tensor, tensor_to_payload

EXIT_OK = 0
EXIT_NOT_DETECTED = 1
EXIT_USAGE = 2
EXIT_COMPUTATION = 3


def _load_description(text: str) -> dict[str, Any]:
    """Parse a state description given inline as JSON or as a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    with open(text, "r", encoding="utf-8") as handle:
        return json.load(handle)


# What a command hands to main: exit code, JSON payload, and a builder of the
# CSV/table rows that main calls only when one of those formats is asked for.
Outcome = tuple[int, Any, Callable[[], list[dict[str, Any]]]]


def _csv_text(rows: list[dict[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _load_state(args: argparse.Namespace) -> SymmetricState:
    return state_from_description(_load_description(args.state))


def cmd_state(args: argparse.Namespace) -> Outcome:
    rho = _load_state(args)
    m = rho.dicke_matrix
    return EXIT_OK, state_to_payload(rho), lambda: [
        {"row": r, "col": c, "re": float(m[r, c].real), "im": float(m[r, c].imag)}
        for r in range(m.shape[0])
        for c in range(m.shape[1])
    ]


def cmd_tensor(args: argparse.Namespace) -> Outcome:
    tensor = correlation_tensor(_load_state(args), args.l)
    payload = tensor_to_payload(tensor)
    return EXIT_OK, payload, lambda: [
        {"index": str(MultiIndex.from_code(tensor.order, i)), "value": v}
        for i, v in enumerate(payload["values"])
    ]


def cmd_cov(args: argparse.Namespace) -> Outcome:
    rho = _load_state(args)
    cm = covariance_matrix(rho, args.k)
    payload = {
        "n_qubits": rho.n_qubits,
        "k": cm.k,
        "c_block": [[float(v) for v in row] for row in cm.c_block],
        "a_block": [[float(v) for v in row] for row in cm.a_block],
        "min_eigenvalue": min_eigenvalue(cm),
    }
    return EXIT_OK, payload, lambda: [
        {
            "block": name,
            "row": str(MultiIndex.from_code(cm.k, r)),
            "col": str(MultiIndex.from_code(cm.k, c)),
            "value": float(block[r, c]),
        }
        for name, block in (("c", cm.c_block), ("a", cm.a_block))
        for r in range(block.shape[0])
        for c in range(block.shape[1])
    ]


def cmd_test(args: argparse.Namespace) -> Outcome:
    report = test_entanglement(_load_state(args), args.k, tol=args.tol)
    payload = report_to_payload(report)
    cert = payload["certificate"] or {}
    row = {
        "n_qubits": payload["n_qubits"],
        "k": payload["k"],
        "min_eigenvalue": payload["min_eigenvalue"],
        "entangled": payload["entangled"],
        "tolerance": payload["tolerance"],
        "certificate_type": cert.get("type", ""),
        "certificate_indices": ";".join(cert.get("indices", [])),
        "certificate_value": cert.get("value", ""),
    }
    return (EXIT_OK if report.entangled else EXIT_NOT_DETECTED), payload, lambda: [row]


def cmd_scan(args: argparse.Namespace) -> Outcome:
    desc = _load_description(args.state)
    if _description_family(desc) != "noisy":
        raise ValueError("scan expects a 'noisy' family description with x left free")
    if desc.get("x") is not None:
        raise ValueError("scan requires the mixing parameter x to be left free")
    index = None if args.index is None else MultiIndex.from_string(args.index)
    result = scan_threshold(
        noisy_family(state_from_description(_noisy_base(desc))),
        Detector(kind=args.detector, k=args.k, index=index),
        tol=args.tol,
        grid=args.grid,
        family_desc=desc,
    )
    payload = scan_to_payload(result, reference_value=args.reference, tol=args.tol)
    bracket = payload["bracket"] or (None, None)
    row = {
        "detector": payload["detector"]["kind"],
        "k": payload["detector"]["k"],
        "index": payload["detector"]["index"] or "",
        "threshold": payload["threshold"],
        "bracket_lo": bracket[0],
        "bracket_hi": bracket[1],
        "reference_value": payload["reference_value"],
        "agrees": payload["agrees"],
    }
    code = EXIT_OK if result.threshold is not None else EXIT_NOT_DETECTED
    return code, payload, lambda: [row]


def cmd_validate_theorem(args: argparse.Namespace) -> Outcome:
    if args.samples < 1:
        raise ValueError(f"need at least one sample, got {args.samples}")
    if not 0.0 < args.tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {args.tol}")
    values: list[float] = []
    for i in range(args.samples):
        terms = args.terms or (i % 5) + 1
        _, rho = oracle.sample_separable(args.n, terms, oracle.derive_seed(args.seed, i))
        values += [min_eigenvalue(covariance_matrix(rho, k)) for k in range(1, args.n // 2 + 1)]
    violations = sum(value < -args.tol for value in values)
    payload = {
        "n_qubits": args.n,
        "samples": args.samples,
        "terms": args.terms or "1..5 cycling",
        "seed": args.seed,
        "blocks_checked": len(values),
        "violations": violations,
        "most_negative": float(min(values, default=np.inf)),
        "tolerance": args.tol,
    }
    return (EXIT_OK if violations == 0 else EXIT_NOT_DETECTED), payload, lambda: [payload]


# ---------------------------------------------------------------------------
# Reproduction suite
# ---------------------------------------------------------------------------

STATUS_PASS = "pass"
STATUS_FAIL = "FAIL"
STATUS_KNOWN = "known-discrepant"


def _row(
    name: str, reference: float, computed: float, ok: bool,
    known_discrepant: bool = False, note: str = "",
) -> dict[str, Any]:
    status = (STATUS_KNOWN if known_discrepant else STATUS_PASS) if ok else STATUS_FAIL
    return {
        "name": name,
        "reference": reference,
        "computed": computed,
        "abs_delta": abs(computed - reference),
        "status": status,
        "note": note,
    }


def _within_two_sig_figs(computed: float, reference: float) -> bool:
    scale = 10.0 ** (np.floor(np.log10(abs(reference))) - 1)
    return abs(computed - reference) <= 0.5 * scale


def _oracle_agrees(
    rho: SymmetricState, k: int, expected: float, atol: float, code: Optional[int] = None
) -> bool:
    """Brute-force cross-check in the full 2^N space.

    Compares the oracle's covariance block against expected: its least
    eigenvalue, or its diagonal entry at code when one is given.
    """
    c_block, _ = oracle.covariance_oracle(oracle.embed_full(rho), k)
    value = np.linalg.eigvalsh(c_block)[0] if code is None else c_block[code, code]
    return abs(float(value) - expected) <= atol


def _threshold_row(
    name: str, base: SymmetricState, detector: Detector, reference: float,
    tolerance: Optional[float],
) -> dict[str, Any]:
    """Scan the noisy family of base; a None tolerance compares two significant figures."""
    threshold = scan_threshold(noisy_family(base), detector, tol=1e-6).threshold
    ok = threshold is not None and (
        _within_two_sig_figs(threshold, reference)
        if tolerance is None
        else abs(threshold - reference) <= tolerance
    )
    return _row(
        name,
        reference,
        float("nan") if threshold is None else threshold,
        ok,
        note="compared at two significant figures" if tolerance is None else "",
    )


def _pairwise_ppt_threshold(
    family: Callable[[float], SymmetricState], tol: float = 1e-6, grid: int = 64
) -> Optional[float]:
    """Threshold where the 2-qubit marginal's partial transpose turns negative."""

    def value(x: float) -> float:
        fs = oracle.ptrace_full(oracle.embed_full(family(x)), 2)
        return oracle.ppt_min_eigenvalue(fs)

    bracket, _ = _bracket_sign_change(value, tol, grid)
    return None if bracket is None else (bracket[0] + bracket[1]) / 2.0


def _ghz_index(k: int) -> MultiIndex:
    """(x, ..., x, y): the GHZ diagonal that turns negative at the largest partition."""
    return MultiIndex(("x",) * (k - 1) + ("y",))


def _reproduce_rows() -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []

    # GHZ least eigenvalue of the top-order covariance block
    for n in (2, 4, 6, 8):
        rho, reference = ghz_state(n), -(2.0 ** (n / 2 - 1))
        report = test_entanglement(rho, n // 2)
        ok = abs(report.min_eigenvalue - reference) <= 1e-9
        ok = ok and (n > 6 or _oracle_agrees(rho, n // 2, reference, 1e-9))
        rows.append(
            _row(f"GHZ_{n} least eigenvalue of C^({n})", reference, report.min_eigenvalue, ok)
        )

    # GHZ diagonal entry at (x, ..., x, y); the reference branches on N/2 parity
    for n in (2, 4, 6, 8):
        rho, k = ghz_state(n), n // 2
        index = _ghz_index(k)
        computed = detector_value(rho, Detector("diag", k, index))
        ok = abs(computed + 1.0) <= 1e-9
        name = f"GHZ_{n} diagonal C[{index}, {index}]"
        if k % 2 == 0:
            rows.append(_row(name, -1.0, computed, ok))
            continue
        ok = ok and (n > 6 or _oracle_agrees(rho, k, computed, 1e-10, index.code()))
        rows.append(
            _row(
                name,
                -2.0,
                computed,
                ok,
                known_discrepant=True,
                note="reference formula for odd N/2 disagrees with direct "
                "computation; computed value confirmed by brute force",
            )
        )

    # W diagonal entry at (z, ..., z) for the largest partition
    for n in (2, 4, 6, 8):
        index = MultiIndex(("z",) * (n // 2))
        computed = detector_value(w_state(n), Detector("diag", n // 2, index))
        rows.append(
            _row(f"W_{n} diagonal C[{index}, {index}] at 2k=N", -1.0, computed,
                 abs(computed + 1.0) <= 1e-9)
        )

    # W least-eigenvalue closed form; direct computation disagrees at every k
    for n, k in ((4, 1), (4, 2), (6, 1), (6, 2), (6, 3)):
        rho = w_state(n)
        report = test_entanglement(rho, k)
        formula = -2.0 * k * (k - 1) / n**2
        diag_bound = -4.0 * k**2 / n**2
        ok = (
            report.entangled
            and report.min_eigenvalue <= diag_bound + 1e-9
            and _oracle_agrees(rho, k, report.min_eigenvalue, 1e-9)
        )
        rows.append(
            _row(
                f"W_{n} least-eigenvalue closed form at k={k}",
                formula,
                report.min_eigenvalue,
                ok,
                known_discrepant=abs(report.min_eigenvalue - formula) > 1e-9,
                note="closed form is inconsistent with the diagonal value "
                f"{diag_bound:g} confirmed by brute force",
            )
        )

    # noisy-state least-eigenvalue thresholds at the largest partition, then
    # the closed-form diagonal thresholds 1/N^2 (GHZ) and 1/(N+2) (W moments)
    scans = [
        (f"noisy-{label} N={n} least-eigenvalue threshold", build(n),
         Detector("min_eig", n // 2), reference, tolerance)
        for label, build, cases in (
            ("GHZ", ghz_state, {2: (0.25, 1e-4), 4: (0.0625, 1e-4), 6: (0.014, None)}),
            ("W", w_state, {2: (0.25, 1e-4), 4: (0.0899, 5e-4), 6: (0.042, None)}),
        )
        for n, (reference, tolerance) in cases.items()
    ]
    for n in (2, 4, 6, 8):
        k, forms = n // 2, analytic_thresholds(n)
        scans.append((f"noisy-GHZ N={n} diagonal threshold", ghz_state(n),
                      Detector("diag", k, _ghz_index(k)), forms.ghz_diag, 1e-6))
        scans.append((f"noisy-W N={n} moment-diagonal threshold", w_state(n),
                      Detector("moment_diag", k, MultiIndex(("z",) * k)), forms.w_diag, 1e-6))
    rows += [_threshold_row(*scan) for scan in scans]

    # noisy-W two-qubit threshold: published closed form vs direct computation
    for n in (4, 6, 8):
        family = noisy_family(w_state(n))
        result = scan_threshold(family, Detector("min_eig", 1), tol=1e-6)
        ppt_threshold = _pairwise_ppt_threshold(family, tol=1e-6)
        ok = (
            result.threshold is not None
            and ppt_threshold is not None
            and abs(result.threshold - ppt_threshold) <= 2e-6
        )
        rows.append(
            _row(
                f"noisy-W N={n} two-qubit threshold",
                analytic_thresholds(n).w_pair,
                result.threshold if result.threshold is not None else float("nan"),
                ok,
                known_discrepant=True,
                note="closed form disagrees with direct computation; computed "
                f"threshold matches the partial-transpose threshold {ppt_threshold:.6f}",
            )
        )
    return rows


def _format_reproduce_table(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'quantity':<48} {'reference':>12} {'computed':>14} {'|delta|':>10} {'status':<17} note"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<48} {row['reference']:>12.6g} {row['computed']:>14.8g} "
            f"{row['abs_delta']:>10.2e} {row['status']:<17} {row['note']}"
        )
    return "\n".join(lines)


def cmd_reproduce(args: argparse.Namespace) -> Outcome:
    rows = _reproduce_rows()
    failed = any(row["status"] == STATUS_FAIL for row in rows)
    return (EXIT_NOT_DETECTED if failed else EXIT_OK), {"rows": rows}, lambda: rows


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the whole command line; each call builds a new one."""
    parser = argparse.ArgumentParser(
        prog="symcov",
        description="Entanglement tests for permutation-symmetric multiqubit "
        "states via negativity of inter-group covariance matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str,
        handler: Callable[[argparse.Namespace], Outcome],
        help: str,
        state: bool = True,
        formats: Sequence[str] = ("json", "csv"),
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        if state:
            p.add_argument(
                "--state", required=True,
                help="state description as inline JSON or a path to a JSON file",
            )
        p.add_argument("--output", help="write the result to this path instead of stdout")
        p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(handler=handler)
        return p

    command("state", cmd_state, "build a state and dump its Dicke matrix")

    p_tensor = command("tensor", cmd_tensor, "dump an order-l correlation tensor")
    p_tensor.add_argument("--l", type=int, required=True, help="tensor order")

    p_cov = command("cov", cmd_cov, "dump the covariance blocks for group size k")
    p_cov.add_argument("--k", type=int, required=True, help="qubits per group")

    p_test = command("test", cmd_test, "run the negativity entanglement test")
    p_test.add_argument("--k", type=int, required=True, help="qubits per group")
    p_test.add_argument("--tol", type=float, default=1e-9, help="negativity tolerance")

    p_scan = command("scan", cmd_scan, "scan a noisy family for its threshold")
    p_scan.add_argument("--k", type=int, required=True, help="qubits per group")
    p_scan.add_argument(
        "--detector", choices=("min_eig", "diag", "moment_diag"), default="min_eig"
    )
    p_scan.add_argument("--index", help="multi-index for diagonal detectors, e.g. 'zz'")
    p_scan.add_argument("--tol", type=float, default=1e-6, help="bracket width target")
    p_scan.add_argument("--grid", type=int, default=64, help="initial grid points")
    p_scan.add_argument(
        "--reference", type=float, default=None,
        help="optional reference threshold to compare against",
    )

    p_thm = command(
        "validate-theorem", cmd_validate_theorem,
        "sample separable states and confirm their covariance blocks stay PSD", state=False,
    )
    p_thm.add_argument("--n", type=int, default=6, help="number of qubits")
    p_thm.add_argument("--samples", type=int, default=100, help="number of samples")
    p_thm.add_argument(
        "--terms", type=int, default=0,
        help="mixture terms per sample (0 cycles through 1..5)",
    )
    p_thm.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_thm.add_argument("--tol", type=float, default=1e-9, help="negativity tolerance")

    command(
        "reproduce", cmd_reproduce,
        "recompute the published reference values and report pass/fail per row",
        state=False, formats=("json", "csv", "table"),
    )
    return parser


def _render(fmt: str, payload: Any, rows: Callable[[], list[dict[str, Any]]]) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        return _csv_text(rows())
    return _format_reproduce_table(rows())  # "table" is offered by reproduce only


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built on the first call and reused after it.

    Parsing leaves the parser unchanged, so one instance serves every call.
    The handlers are bound when it is built: to stub a command, patch what
    its handler calls (as the tests do with ``_reproduce_rows``), not the
    ``cmd_*`` function itself.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, payload, rows = args.handler(args)
        text = _render(args.format, payload, rows)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    # LinAlgError derives from ValueError, so it must be caught first
    except (ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_COMPUTATION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
