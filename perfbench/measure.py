"""Closed-loop measurement of one workload: one client, one request at a time.

The loop runs whole passes of the workload's operation list until the time
spent inside operations reaches the run length.  Checks, input generation and
the oracle references stay outside the timed region.

Every operation is timed between two runs of the calibration probe (probe.py),
and its latency is scaled to the reference speed by the median of the probes
around it.  The metrics are computed from scaled latencies, and the run length
counts scaled time, so a run in a fast or slow phase of the host makes the
same passes and reads the same; the report keeps the unscaled figures and the
host speed beside them.
"""

from __future__ import annotations

import gc
import gzip
import json
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np
from scipy.special import betainc

import benchenv
import probe
import workloads
from tracer import Tracer, aggregate, layer_metrics

# The tail is the nearest-rank percentile with TAIL_PER_PASS[workload] samples
# per pass beyond it (rounded up over the run).  Passes of a workload have the
# same mix, so this is the same quantile however many passes a run fits, and a
# faster commit is not judged at a higher one.  The counts are 10 / p for the
# fewest passes p a 30 s run makes (certify 5, inspect 5, scan 3), so a run of
# that length has at least ten samples beyond its tail.  verify's 10 / 4 would
# put the rank inside its one-per-pass N = 8 order-7 tensor check, a class
# whose single latencies scatter by tens of percent; 4 per pass puts it inside
# the class below (N = 8 order-6 tensor and k = 3 block checks and the N = 8
# validate-theorem batch, 0.3-0.4 s each) for any pass count, at about p95
# with 16 samples beyond in a 30 s run.
TAIL_PER_PASS = {"certify": 2.0, "inspect": 2.0, "scan": 10 / 3, "verify": 4.0}
SETUP_REPEATS = 7
PROBE_WINDOW = 16

# Layer baseline recorded in ROADMAP.md ("Recent") that a traced run is held
# against: covariance_matrix at N = 12, and detector evaluations per scan.  A
# value outside is reported as a gap; the workloads are not tuned to close it.
SANITY = {
    "covariance.covariance_matrix.k5.n12.mean_s": (0.2, 0.3),
    "covariance.covariance_matrix.k4.n12.mean_s": (0.005, 0.02),
    "scanner.evals_per_scan": (70.0, 90.0),
}


@dataclass
class Record:
    op: workloads.Op
    start_ns: int
    latency_ns: int
    probe_index: int  # index, in the run's probe times, of the one just before it
    problem: Optional[str]
    output: Any
    scaled_s: float = 0.0
    probe_s: float = 0.0  # that probe time
    host_probe_s: float = 0.0  # the median probe time it was scaled by


def run_passes(workload: str, seed: int, expect: workloads.Expect, cache: workloads.OracleCache,
               small: bool, seconds: float = 0.0, passes: Optional[int] = None,
               tracer: Optional[Tracer] = None, first_pass: int = 0) -> tuple[list[Record], int]:
    """Whole passes from ``first_pass`` on, until ``seconds`` of scaled operation
    time, or exactly ``passes`` passes; returns the records and the passes made.

    The run length counts each operation as soon as the probe after it is
    timed; the final scaling, with probes on both sides, follows the loop.
    """
    records: list[Record] = []
    probes: list[float] = []
    measured_s = 0.0
    done = 0
    while done < passes if passes is not None else measured_s < seconds:
        pending: Optional[Record] = None
        for op in workloads.make_pass(workload, seed, first_pass + done, expect, cache, small):
            # Collect the previous request's and the checks' garbage here, so
            # that a collection it triggers does not land in the next request.
            gc.collect()
            probes.append(probe.probe_s())
            if pending is not None:
                measured_s += _scale(pending, probes)
            if tracer is not None:
                tracer.op += 1
                tracer.enabled = True
            start = time.perf_counter_ns()
            try:
                out, problem = op.run(), None
            except Exception as exc:  # a raising operation is a failed one
                out, problem = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.enabled = False
            if problem is None:
                problem = _checked(op.check, out)
            keep = out if op.late_check is not None and problem is None else None
            pending = Record(op, start, latency, len(probes) - 1, problem, keep)
            records.append(pending)
        if pending is not None:
            gc.collect()
            probes.append(probe.probe_s())
            measured_s += _scale(pending, probes)
        done += 1
    for record in records:
        _scale(record, probes)
    return records, done


def _scale(record: Record, probes: list[float]) -> float:
    """Scale ``record``'s latency by the median of the probes around it; returns the result.

    The window is PROBE_WINDOW probes on each side, as far as they are timed
    yet: a single millisecond probe scatters more than the host's speed
    drifts over a few seconds.
    """
    i = record.probe_index
    window = probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
    record.probe_s = probes[i]
    record.host_probe_s = statistics.median(window)
    record.scaled_s = probe.scale(record.latency_ns / 1e9, window)
    return record.scaled_s


def _checked(check: Any, out: Any) -> Optional[str]:
    try:
        return check(out)
    except Exception as exc:  # a malformed output fails its operation
        return f"check raised {type(exc).__name__}: {exc}"


def write_ops(path: Path, records: list[Record]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for r in records:
            handle.write(json.dumps({"props": r.op.props, "start_ns": r.start_ns,
                                     "latency_ns": r.latency_ns, "probe_s": r.probe_s,
                                     "host_probe_s": r.host_probe_s,
                                     "scaled_s": r.scaled_s}, default=str) + "\n")


def late_checks(records: list[Record]) -> None:
    for record in records:
        if record.op.late_check is not None and record.problem is None:
            record.problem = _checked(record.op.late_check, record.output)
        record.output = None


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: a Beta-weighted mean of all order statistics.

    The operation mix puts gaps between classes of latency, and a sample
    median on such a gap jumps from one class to the next with small noise;
    this estimate moves smoothly instead.  It uses scipy.special, which symcov
    loads already; scipy.stats would add about 35 MB to peak_rss_mb.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    half = (n + 1) / 2.0
    weights = np.diff(betainc(half, half, np.arange(n + 1) / n))
    return float(weights @ x)


def _latency_stats(workload: str, seconds: list[float], passes: int) -> dict[str, float]:
    latencies = sorted(seconds)
    count = len(latencies)
    rank = max(1, count - math.ceil(TAIL_PER_PASS[workload] * passes))
    return {
        "ops_per_s": count / sum(latencies),
        "latency_p50_ms": harrell_davis_median(latencies) * 1e3,
        "sample_median_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[rank - 1] * 1e3,
        "tail_percentile": 100.0 * rank / count,
        "tail_samples_beyond": count - rank,
        "measured_s": sum(latencies),
    }


def summarize(workload: str, records: list[Record], passes: int) -> dict[str, Any]:
    """Latency figures at the reference speed, with the unscaled ones beside them."""
    timing = _latency_stats(workload, [r.scaled_s for r in records], passes)
    raw = _latency_stats(workload, [r.latency_ns / 1e9 for r in records], passes)
    probes = [r.host_probe_s for r in records]
    timing.update(
        tail_per_pass=TAIL_PER_PASS[workload],
        samples=len(records),
        passes=passes,
        unscaled=raw,
        probe_median_s=statistics.median(probes),
        host_speed=probe.REFERENCE_S / statistics.median(probes),
    )
    return timing


def input_properties(records: list[Record]) -> dict[str, Any]:
    """Counts by family, N, k, detector and kind, plus the shares ROADMAP items use.

    verify also gets each kind's share of operation time.
    """
    props = [r.op.props for r in records]
    total = len(props)
    report: dict[str, Any] = {"operations": total}
    for key in ("kind", "family", "n", "k", "order", "detector"):
        counts = Counter(str(p[key]) for p in props if key in p)
        if counts:
            report[f"by_{key}"] = dict(sorted(counts.items()))
    detected = [p["detected"] for p in props if "detected" in p]
    if detected:
        report["share_not_detected"] = detected.count(False) / len(detected)
    kinds: dict[str, float] = {}
    for r in records:
        if "kind" in r.op.props:
            kind = r.op.props["kind"]
            kinds[kind] = kinds.get(kind, 0.0) + r.scaled_s
    if kinds:
        report["share_of_time_by_kind"] = {
            kind: seconds / sum(kinds.values()) for kind, seconds in sorted(kinds.items())
        }
    if any("detector" in p for p in props):
        report["share_by_detector"] = {
            d: c / total for d, c in report["by_detector"].items()
        }
    elif any("family" in p for p in props):
        report["share_k_ge_4"] = sum(1 for p in props if p.get("k", 0) >= 4) / total
    return report


def sanity(metrics: dict[str, float]) -> dict[str, Any]:
    out = {}
    for name, (lo, hi) in SANITY.items():
        value = metrics.get(name, 0.0)
        if value == 0.0:
            status = "not exercised"
        elif lo <= value <= hi:
            status = "within baseline"
        else:
            status = "GAP: outside baseline"
        out[name] = {"value": value, "baseline": [lo, hi], "status": status}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expect: workloads.Expect = workloads.EXPECT, small: bool = False,
                 setup_repeats: int = SETUP_REPEATS,
                 spans_path: Optional[Path] = None,
                 ops_path: Optional[Path] = None) -> dict[str, Any]:
    """Measure one workload; returns metrics, counts and the full report.

    A traced run writes its spans to ``spans_path`` when given, an untraced
    run its operations (inputs, start, latency, probe times) to ``ops_path``.
    """
    cache = workloads.OracleCache()
    benchenv.fill_caches()
    warm, _ = run_passes(workload, seed, expect, cache, small=True, passes=1)
    # Objects alive after import and warm-up are never garbage; frozen, they
    # are not rescanned, so the collection before each request stays cheap
    # (a full scan costs about 20 ms with numpy and scipy loaded).
    gc.collect()
    gc.freeze()
    report: dict[str, Any] = {"workload": workload, "seed": seed, "trace": trace,
                              "warmup_ops": len(warm)}
    metrics: dict[str, float]
    if not trace:
        setup = benchenv.measure_setup(setup_repeats)
        records, passes = run_passes(workload, seed, expect, cache, small, seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        late_checks(records)
        timing = summarize(workload, records, passes)
        metrics = {
            "ops_per_s": timing["ops_per_s"],
            "latency_p50_ms": timing["latency_p50_ms"],
            "latency_tail_ms": timing["latency_tail_ms"],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        report.update(timing=timing, setup=setup)
        if ops_path is not None:
            write_ops(ops_path, records)
    else:
        # Each pass runs twice, untraced and with spans on, so that both timings
        # see the same phases of the host; half the run length each.  The
        # second run of a pass is a little faster, so the order alternates and
        # the pass count is even.
        plain: list[Record] = []
        traced: list[Record] = []
        tracer = Tracer()
        passes = 0
        while sum(r.scaled_s for r in plain) < seconds / 2.0 or passes % 2:
            for with_spans in (passes % 2 == 1, passes % 2 == 0):
                if not with_spans:
                    plain += run_passes(workload, seed, expect, cache, small, passes=1,
                                        first_pass=passes)[0]
                    continue
                tracer.install()
                try:
                    traced += run_passes(workload, seed, expect, cache, small, passes=1,
                                         tracer=tracer, first_pass=passes)[0]
                finally:
                    tracer.uninstall()
            passes += 1
        records = plain + traced
        late_checks(records)
        plain_timing = summarize(workload, plain, passes)
        traced_timing = summarize(workload, traced, passes)
        ops_ratio = traced_timing["ops_per_s"] / plain_timing["ops_per_s"]
        metrics = layer_metrics(aggregate(tracer.spans), passes, ops_ratio)
        report.update(timing=plain_timing, traced_timing=traced_timing,
                      spans=len(tracer.spans), sanity=sanity(metrics))
        if spans_path is not None:
            tracer.write(spans_path)
    failed = [r for r in records if r.problem is not None]
    report.update(
        attempted=len(records),
        failed=len(failed),
        failed_ratio=len(failed) / len(records),
        failures=[{"props": r.op.props, "problem": r.problem} for r in failed[:20]],
        inputs=input_properties(plain if trace else records),
        metrics=metrics,
    )
    return report
