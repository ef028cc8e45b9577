"""Self-check of the benchmark on a tiny seeded pass of every workload.

    python3 perfbench/selfcheck.py

Checks that the metrics BENCHMARK.json names are the ones the benchmark
reports, with the same units, in both modes, for every workload it can run
(BENCHMARK.json may list a subset); that every end-to-end value is
finite and positive; that the tiny passes fail no operation; and that a
deliberately wrong expected value raises failed_ratio.  Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import benchenv

SEED = 7


def main() -> int:
    if not benchenv.have_sources():
        print(f"error: no symcov sources under {benchenv.SRC}", file=sys.stderr)
        return 2
    benchenv.pin_threads()
    benchenv.import_symcov()
    import measure
    import run
    import workloads
    from tracer import layer_metric_specs

    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    declared = {
        0: {(m["name"], m["unit"]) for m in spec["end_to_end"]},
        1: {(m["name"], m["unit"]) for m in spec["per_layer"]},
    }
    produced = {
        0: set(run.UNITS.items()),
        1: {(name, unit) for name, unit, _ in layer_metric_specs()},
    }
    for trace in (0, 1):
        if declared[trace] != produced[trace]:
            problems.append(f"trace {trace}: BENCHMARK.json and benchmark disagree on "
                            f"{sorted(declared[trace] ^ produced[trace])}")
    unknown = {w["name"] for w in spec["workloads"]} - set(run.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")

    def tiny(workload: str, trace: int, expect: workloads.Expect = workloads.EXPECT) -> dict:
        return measure.run_workload(workload, SEED, 0.01, bool(trace), expect=expect,
                                    small=True, setup_repeats=1)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            report = tiny(workload, trace)
            reported = set(report["metrics"])
            wanted = {name for name, _ in declared[trace]}
            if reported != wanted:
                problems.append(f"{workload} trace {trace}: metrics differ by "
                                f"{sorted(reported ^ wanted)}")
            for name, value in report["metrics"].items():
                if not math.isfinite(value) or (trace == 0 and value <= 0.0):
                    problems.append(f"{workload} trace {trace}: {name} = {value}")
            if report["failed"]:
                problems.append(f"{workload} trace {trace}: {report['failures']}")
            print(f"{workload} trace {trace}: {len(reported)} metrics, "
                  f"{report['attempted']} operations, {report['failed']} failed")

    wrong = {
        "scan": dataclasses.replace(workloads.EXPECT, ghz_diag=lambda n: 1.0 / n**2 + 0.01),
        "verify": dataclasses.replace(workloads.EXPECT, oracle_atol=-1.0),
    }
    for workload, expect in wrong.items():
        report = tiny(workload, 0, expect)
        print(f"{workload} with a wrong expected value: failed_ratio {report['failed_ratio']:.3f}")
        if not report["failed_ratio"] > 0.0:
            problems.append(f"{workload}: a wrong expected value left failed_ratio at 0")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
