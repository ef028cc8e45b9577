"""Spans around symcov's layer functions, recorded from outside the library.

Modules import functions by name (``from .covariance import covariance_matrix``),
so each traced function is rebound in every symcov module that holds it, not
only where it is defined.  Spans stay in memory; ``write`` saves them when the
run ends.  ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

# Layer boundaries that get spans.  In the CLI only ``main`` is traced, so its
# self time is the CLI's own parsing, payload building and JSON emission.
# The oracle's per-string helpers stay inside correlation_tensor_oracle's self
# time, which is what a one-transform oracle would replace.
TRACED = {
    "states": ("reduced_state", "state_from_description"),
    "tensors": ("correlation_tensor",),
    "covariance": (
        "covariance_matrix",
        "principal_minor_search",
        "test_entanglement",
        "min_eigenvalue",
    ),
    "scanner": ("scan_threshold", "detector_value"),
    "oracle": (
        "embed_full",
        "correlation_tensor_oracle",
        "covariance_oracle",
        "ptrace_full",
        "sample_separable",
        "ppt_min_eigenvalue",
    ),
    "cli": ("main",),
}

# Second-level span key taken from an argument: (prefix, parameter name).
SUBKEYS = {
    "covariance.covariance_matrix": ("k", "k"),
    "tensors.correlation_tensor": ("l", "order"),
}

SPAN_FIELDS = ("id", "parent", "op", "name", "sub", "n_qubits", "start_ns", "end_ns", "returned_none")


class Tracer:
    """Records one span per traced call while ``enabled``; ``op`` tags the request."""

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._next = 0
        self._restore: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        targets: dict[int, tuple[Callable[..., Any], Callable[..., Any]]] = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"symcov.{layer}"]
            for name in names:
                fn = getattr(module, name)  # a renamed layer function fails loudly
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "symcov" and not modname.startswith("symcov."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        subkey = SUBKEYS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            returned_none = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned_none = result is None
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                sub = None
                if subkey is not None:
                    value = args[1] if len(args) > 1 else kwargs.get(subkey[1])
                    sub = f"{subkey[0]}{value}"
                n = getattr(args[0], "n_qubits", None) if args else None
                self.spans.append((sid, parent, self.op, name, sub, n, start, end, returned_none))

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"covariance.covariance_matrix.k{k}.self_s", "s", "lower") for k in range(1, 6)]
    specs += [
        ("covariance.covariance_matrix.k4.n12.mean_s", "s", "lower"),
        ("covariance.covariance_matrix.k5.n12.mean_s", "s", "lower"),
        ("covariance.principal_minor_search.calls", "count", "lower"),
        ("covariance.principal_minor_search.self_s", "s", "lower"),
        ("covariance.principal_minor_search.hit_ratio", "ratio", "higher"),
        ("covariance.test_entanglement.self_s", "s", "lower"),
        ("covariance.min_eigenvalue.calls", "count", "lower"),
        ("covariance.min_eigenvalue.self_s", "s", "lower"),
    ]
    for order in range(1, 11):
        specs += [
            (f"tensors.correlation_tensor.l{order}.calls", "count", "lower"),
            (f"tensors.correlation_tensor.l{order}.self_s", "s", "lower"),
        ]
    specs += [
        ("scanner.scan_threshold.calls", "count", "lower"),
        ("scanner.scan_threshold.self_s", "s", "lower"),
        ("scanner.detector_value.calls", "count", "lower"),
        ("scanner.evals_per_scan", "count", "lower"),
    ]
    specs += [
        (f"oracle.{name}.self_s", "s", "lower")
        for name in ("embed_full", "correlation_tensor_oracle", "covariance_oracle",
                     "ptrace_full", "sample_separable")
    ]
    specs.append(("oracle.ppt_min_eigenvalue.calls", "count", "lower"))
    for name in ("reduced_state", "state_from_description"):
        specs += [(f"states.{name}.calls", "count", "lower"), (f"states.{name}.self_s", "s", "lower")]
    specs += [
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.ops_ratio", "ratio", "higher"),
    ]
    return specs


def aggregate(spans: list[tuple[Any, ...]]) -> dict[str, Any]:
    """Calls, self time, hits and inclusive durations per span name and sub-key."""
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[1] >= 0:
            child_ns[span[1]] += span[7] - span[6]
    scans = {span[0] for span in spans if span[3] == "scanner.scan_threshold"}
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    hits: Counter[str] = Counter()
    inclusive: dict[str, list[int]] = defaultdict(list)
    evals_in_scans = 0
    for sid, parent, _op, name, sub, n, start, end, returned_none in spans:
        own = end - start - child_ns[sid]
        keys = (name, f"{name}.{sub}") if sub else (name,)
        for key in keys:
            calls[key] += 1
            self_ns[key] += own
        if returned_none is False:
            hits[name] += 1
        if sub is not None:
            inclusive[f"{name}.{sub}.n{n}"].append(end - start)
        if name == "scanner.detector_value" and parent in scans:
            evals_in_scans += 1
    return {
        "calls": calls,
        "self_ns": self_ns,
        "hits": hits,
        "inclusive_ns": inclusive,
        "evals_in_scans": evals_in_scans,
    }


def layer_metrics(agg: dict[str, Any], passes: int, ops_ratio: float) -> dict[str, float]:
    """Per-layer metrics; calls and self times are per pass of the operation list."""
    calls, self_ns = agg["calls"], agg["self_ns"]

    def mean_s(key: str) -> float:
        samples = agg["inclusive_ns"].get(key, [])
        return sum(samples) / len(samples) / 1e9 if samples else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name, _unit, _better in layer_metric_specs():
        if name == "covariance.principal_minor_search.hit_ratio":
            key = "covariance.principal_minor_search"
            values[name] = ratio(agg["hits"][key], calls[key])
        elif name == "scanner.evals_per_scan":
            values[name] = ratio(agg["evals_in_scans"], calls["scanner.scan_threshold"])
        elif name == "trace.ops_ratio":
            values[name] = ops_ratio
        elif name.endswith(".mean_s"):
            values[name] = mean_s(name[: -len(".mean_s")])
        elif name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]] / passes
        else:
            values[name] = self_ns[name[: -len(".self_s")]] / 1e9 / passes
    return values
