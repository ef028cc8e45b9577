"""Command-line surface: build states, dump tensors, test negativity, scan thresholds.

Exit codes are a stable contract: 0 = entangled / success, 1 = not detected
(or an expected reproduction failure), 2 = usage or input error.  Data goes to
the output stream, diagnostics to the error stream, never mixed.
"""

from __future__ import annotations

import argparse
import csv
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
    noisy_family,
    state_from_description,
    state_to_payload,
)
from .tensors import MultiIndex, correlation_tensor, tensor_to_payload

EXIT_OK = 0
EXIT_NOT_DETECTED = 1
EXIT_USAGE = 2


def _load_description(text: str) -> dict[str, Any]:
    """Parse a state description given inline as JSON or as a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    with open(text, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _csv_rows(rows: list[dict[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _state_csv(rho: SymmetricState) -> str:
    rows = []
    m = rho.dicke_matrix
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            rows.append(
                {"row": r, "col": c, "re": float(m[r, c].real), "im": float(m[r, c].imag)}
            )
    return _csv_rows(rows)


def cmd_state(args: argparse.Namespace) -> int:
    rho = state_from_description(_load_description(args.state))
    if args.format == "csv":
        _emit(args, _state_csv(rho))
    else:
        _emit(args, json.dumps(state_to_payload(rho), indent=2))
    return EXIT_OK


def cmd_tensor(args: argparse.Namespace) -> int:
    rho = state_from_description(_load_description(args.state))
    tensor = correlation_tensor(rho, args.l)
    if args.format == "csv":
        rows = [
            {"index": str(MultiIndex.from_code(tensor.order, i)), "value": v}
            for i, v in enumerate(tensor_to_payload(tensor)["values"])
        ]
        _emit(args, _csv_rows(rows))
    else:
        _emit(args, json.dumps(tensor_to_payload(tensor), indent=2))
    return EXIT_OK


def cmd_cov(args: argparse.Namespace) -> int:
    rho = state_from_description(_load_description(args.state))
    cm = covariance_matrix(rho, args.k)
    if args.format == "csv":
        rows = []
        for block_name, block in (("c", cm.c_block), ("a", cm.a_block)):
            for r in range(block.shape[0]):
                for c in range(block.shape[1]):
                    rows.append(
                        {
                            "block": block_name,
                            "row": str(MultiIndex.from_code(cm.k, r)),
                            "col": str(MultiIndex.from_code(cm.k, c)),
                            "value": float(block[r, c]),
                        }
                    )
        _emit(args, _csv_rows(rows))
    else:
        payload = {
            "n_qubits": rho.n_qubits,
            "k": cm.k,
            "c_block": [[float(v) for v in row] for row in cm.c_block],
            "a_block": [[float(v) for v in row] for row in cm.a_block],
            "min_eigenvalue": min_eigenvalue(cm),
        }
        _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    rho = state_from_description(_load_description(args.state))
    report = test_entanglement(rho, args.k, tol=args.tol)
    payload = report_to_payload(report)
    if args.format == "csv":
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
        _emit(args, _csv_rows([row]))
    else:
        _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK if report.entangled else EXIT_NOT_DETECTED


def _build_detector(args: argparse.Namespace) -> Detector:
    index = None
    if args.index is not None:
        index = MultiIndex.from_string(args.index)
    return Detector(kind=args.detector, k=args.k, index=index)


def cmd_scan(args: argparse.Namespace) -> int:
    desc = _load_description(args.state)
    if desc.get("family") != "noisy":
        raise ValueError("scan expects a 'noisy' family description with x left free")
    if desc.get("x") is not None:
        raise ValueError("scan requires the mixing parameter x to be left free")
    base = state_from_description(desc["base"])
    detector = _build_detector(args)
    result = scan_threshold(
        noisy_family(base),
        detector,
        tol=args.tol,
        grid=args.grid,
        family_desc=desc,
    )
    payload = scan_to_payload(result, reference_value=args.reference, tol=args.tol)
    if args.format == "csv":
        row = {
            "detector": payload["detector"]["kind"],
            "k": payload["detector"]["k"],
            "index": payload["detector"]["index"] or "",
            "threshold": payload["threshold"],
            "bracket_lo": None if result.bracket is None else result.bracket[0],
            "bracket_hi": None if result.bracket is None else result.bracket[1],
            "reference_value": payload["reference_value"],
            "agrees": payload["agrees"],
        }
        _emit(args, _csv_rows([row]))
    else:
        _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK if result.threshold is not None else EXIT_NOT_DETECTED


def cmd_validate_theorem(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"need at least one sample, got {args.samples}")
    worst = np.inf
    violations = 0
    checked = 0
    for i in range(args.samples):
        sub_seed = oracle.derive_seed(args.seed, i)
        terms = args.terms if args.terms else (i % 5) + 1
        _, rho = oracle.sample_separable(args.n, terms, sub_seed)
        for k in range(1, args.n // 2 + 1):
            value = min_eigenvalue(covariance_matrix(rho, k))
            worst = min(worst, value)
            checked += 1
            if value < -args.tol:
                violations += 1
    payload = {
        "n_qubits": args.n,
        "samples": args.samples,
        "terms": args.terms or "1..5 cycling",
        "seed": args.seed,
        "blocks_checked": checked,
        "violations": violations,
        "most_negative": float(worst),
        "tolerance": args.tol,
    }
    if args.format == "csv":
        _emit(args, _csv_rows([payload]))
    else:
        _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK if violations == 0 else EXIT_NOT_DETECTED


# ---------------------------------------------------------------------------
# Reproduction suite
# ---------------------------------------------------------------------------

STATUS_PASS = "pass"
STATUS_FAIL = "FAIL"
STATUS_KNOWN = "known-discrepant"


def _row(
    name: str,
    reference: Optional[float],
    computed: float,
    ok: bool,
    known_discrepant: bool = False,
    note: str = "",
) -> dict[str, Any]:
    delta = None if reference is None else abs(computed - reference)
    if known_discrepant:
        status = STATUS_KNOWN if ok else STATUS_FAIL
    else:
        status = STATUS_PASS if ok else STATUS_FAIL
    return {
        "name": name,
        "reference": reference,
        "computed": computed,
        "abs_delta": delta,
        "status": status,
        "note": note,
    }


def _within_two_sig_figs(computed: float, reference: float) -> bool:
    scale = 10.0 ** (np.floor(np.log10(abs(reference))) - 1)
    return abs(computed - reference) <= 0.5 * scale


def _pairwise_ppt_threshold(
    family: Callable[[float], SymmetricState], tol: float = 1e-6, grid: int = 64
) -> Optional[float]:
    """Threshold where the 2-qubit marginal's partial transpose turns negative."""

    def value(x: float) -> float:
        fs = oracle.ptrace_full(oracle.embed_full(family(x)), 2)
        return oracle.ppt_min_eigenvalue(fs)

    bracket, _ = _bracket_sign_change(value, tol, grid)
    return None if bracket is None else (bracket[0] + bracket[1]) / 2.0


def _reproduce_rows() -> list[dict[str, Any]]:
    from .states import ghz_state, w_state

    rows: list[dict[str, Any]] = []

    # GHZ least eigenvalue of the top-order covariance block
    for n in (2, 4, 6, 8):
        report = test_entanglement(ghz_state(n), n // 2)
        reference = -(2.0 ** (n / 2 - 1))
        ok = abs(report.min_eigenvalue - reference) <= 1e-9
        if n <= 6:
            c_oracle, _ = oracle.covariance_oracle(oracle.embed_full(ghz_state(n)), n // 2)
            ok = ok and abs(float(np.linalg.eigvalsh(c_oracle)[0]) - reference) <= 1e-9
        rows.append(
            _row(
                f"GHZ_{n} least eigenvalue of C^({n})",
                reference,
                report.min_eigenvalue,
                ok,
            )
        )

    # GHZ diagonal entry at (x, ..., x, y); the reference branches on N/2 parity
    for n in (2, 4, 6, 8):
        k = n // 2
        index = MultiIndex(("x",) * (k - 1) + ("y",))
        computed = detector_value(ghz_state(n), Detector("diag", k, index))
        if k % 2 == 0:
            rows.append(
                _row(f"GHZ_{n} diagonal C[{index}, {index}]", -1.0, computed,
                     abs(computed + 1.0) <= 1e-9)
            )
        else:
            ok = abs(computed + 1.0) <= 1e-9
            if n <= 6:
                c_oracle, _ = oracle.covariance_oracle(oracle.embed_full(ghz_state(n)), k)
                code = index.code()
                ok = ok and abs(float(c_oracle[code, code]) - computed) <= 1e-10
            rows.append(
                _row(
                    f"GHZ_{n} diagonal C[{index}, {index}]",
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
        k = n // 2
        index = MultiIndex(("z",) * k)
        computed = detector_value(w_state(n), Detector("diag", k, index))
        rows.append(
            _row(f"W_{n} diagonal C[{index}, {index}] at 2k=N", -1.0, computed,
                 abs(computed + 1.0) <= 1e-9)
        )

    # W least-eigenvalue closed form; direct computation disagrees at every k
    for n, k in ((4, 1), (4, 2), (6, 1), (6, 2), (6, 3)):
        report = test_entanglement(w_state(n), k)
        formula = -2.0 * k * (k - 1) / n**2
        diag_bound = -4.0 * k**2 / n**2
        ok = report.entangled and report.min_eigenvalue <= diag_bound + 1e-9
        if n <= 6:
            c_oracle, _ = oracle.covariance_oracle(oracle.embed_full(w_state(n)), k)
            ok = ok and abs(float(np.linalg.eigvalsh(c_oracle)[0]) - report.min_eigenvalue) <= 1e-9
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

    # noisy-state least-eigenvalue thresholds at the largest partition
    noisy_cases = (
        ("GHZ", ghz_state, {2: (0.25, 1e-4), 4: (0.0625, 1e-4), 6: (0.014, None)}),
        ("W", w_state, {2: (0.25, 1e-4), 4: (0.0899, 5e-4), 6: (0.042, None)}),
    )
    for label, build, cases in noisy_cases:
        for n, (reference, tolerance) in cases.items():
            result = scan_threshold(
                noisy_family(build(n)), Detector("min_eig", n // 2), tol=1e-6
            )
            computed = result.threshold
            if tolerance is None:
                ok = computed is not None and _within_two_sig_figs(computed, reference)
                note = "compared at two significant figures"
            else:
                ok = computed is not None and abs(computed - reference) <= tolerance
                note = ""
            rows.append(
                _row(
                    f"noisy-{label} N={n} least-eigenvalue threshold",
                    reference,
                    computed if computed is not None else float("nan"),
                    ok,
                    note=note,
                )
            )

    # closed-form diagonal thresholds
    for n in (2, 4, 6, 8):
        forms = analytic_thresholds(n)
        ghz_scan = scan_threshold(
            noisy_family(ghz_state(n)),
            Detector("diag", n // 2, MultiIndex(("x",) * (n // 2 - 1) + ("y",))),
            tol=1e-6,
        )
        rows.append(
            _row(
                f"noisy-GHZ N={n} diagonal threshold",
                forms.ghz_diag,
                ghz_scan.threshold,
                ghz_scan.threshold is not None
                and abs(ghz_scan.threshold - forms.ghz_diag) <= 1e-6,
            )
        )
        w_scan = scan_threshold(
            noisy_family(w_state(n)),
            Detector("moment_diag", n // 2, MultiIndex(("z",) * (n // 2))),
            tol=1e-6,
        )
        rows.append(
            _row(
                f"noisy-W N={n} moment-diagonal threshold",
                forms.w_diag,
                w_scan.threshold,
                w_scan.threshold is not None
                and abs(w_scan.threshold - forms.w_diag) <= 1e-6,
            )
        )

    # noisy-W two-qubit threshold: published closed form vs direct computation
    for n in (4, 6, 8):
        forms = analytic_thresholds(n)
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
                forms.w_pair,
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
        ref = "-" if row["reference"] is None else f"{row['reference']:.6g}"
        delta = "-" if row["abs_delta"] is None else f"{row['abs_delta']:.2e}"
        lines.append(
            f"{row['name']:<48} {ref:>12} {row['computed']:>14.8g} "
            f"{delta:>10} {row['status']:<17} {row['note']}"
        )
    return "\n".join(lines)


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = _reproduce_rows()
    if args.format == "csv":
        _emit(args, _csv_rows(rows))
    elif args.format == "json":
        _emit(args, json.dumps({"rows": rows}, indent=2))
    else:
        _emit(args, _format_reproduce_table(rows))
    failed = any(row["status"] == STATUS_FAIL for row in rows)
    return EXIT_NOT_DETECTED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcov",
        description="Entanglement tests for permutation-symmetric multiqubit "
        "states via negativity of inter-group covariance matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, state: bool = True) -> None:
        if state:
            p.add_argument(
                "--state", required=True,
                help="state description as inline JSON or a path to a JSON file",
            )
        p.add_argument("--output", help="write the result to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")

    p_state = sub.add_parser("state", help="build a state and dump its Dicke matrix")
    add_common(p_state)
    p_state.set_defaults(handler=cmd_state)

    p_tensor = sub.add_parser("tensor", help="dump an order-l correlation tensor")
    add_common(p_tensor)
    p_tensor.add_argument("--l", type=int, required=True, help="tensor order")
    p_tensor.set_defaults(handler=cmd_tensor)

    p_cov = sub.add_parser("cov", help="dump the covariance blocks for group size k")
    add_common(p_cov)
    p_cov.add_argument("--k", type=int, required=True, help="qubits per group")
    p_cov.set_defaults(handler=cmd_cov)

    p_test = sub.add_parser("test", help="run the negativity entanglement test")
    add_common(p_test)
    p_test.add_argument("--k", type=int, required=True, help="qubits per group")
    p_test.add_argument("--tol", type=float, default=1e-9, help="negativity tolerance")
    p_test.set_defaults(handler=cmd_test)

    p_scan = sub.add_parser("scan", help="scan a noisy family for its threshold")
    add_common(p_scan)
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
    p_scan.set_defaults(handler=cmd_scan)

    p_thm = sub.add_parser(
        "validate-theorem",
        help="sample separable states and confirm their covariance blocks stay PSD",
    )
    add_common(p_thm, state=False)
    p_thm.add_argument("--n", type=int, default=6, help="number of qubits")
    p_thm.add_argument("--samples", type=int, default=100, help="number of samples")
    p_thm.add_argument(
        "--terms", type=int, default=0,
        help="mixture terms per sample (0 cycles through 1..5)",
    )
    p_thm.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_thm.add_argument("--tol", type=float, default=1e-9, help="negativity tolerance")
    p_thm.set_defaults(handler=cmd_validate_theorem)

    p_rep = sub.add_parser(
        "reproduce",
        help="recompute the published reference values and report pass/fail per row",
    )
    add_common(p_rep, state=False)
    p_rep.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
