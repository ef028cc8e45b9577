"""symcov benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from anywhere; the benchmark finds the checkout from its own location and
imports symcov from the checkout's src/.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report (environment, input
properties, tail percentile, failures, sanity check) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``, with the operations of an
untraced run or the spans of a traced one beside it.
"""

from __future__ import annotations

import argparse
import json
import sys

import benchenv

WORKLOADS = ("certify", "inspect", "scan", "verify")
OUT_DIR = benchenv.ROOT / ".bench_out"
UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_summary(report: dict, units: dict[str, str]) -> None:
    print(f"symcov benchmark: workload={report['workload']} seed={report['seed']} "
          f"trace={int(report['trace'])}")
    timing = report["timing"]
    print(f"  {timing['samples']} operations in {timing['passes']} passes, "
          f"{timing['measured_s']:.3f} s measured, one closed-loop client")
    for name, value in report["metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':<46} {report['failed_ratio']:>14.6g} "
          f"({report['failed']}/{report['attempted']})")
    if not report["trace"]:
        print(f"  latency_tail_ms is p{timing['tail_percentile']:.2f} of {timing['samples']} "
              f"samples, {timing['tail_samples_beyond']} beyond it")
    else:
        print(f"  traced ops_per_s {report['traced_timing']['ops_per_s']:.6g} vs untraced "
              f"{timing['ops_per_s']:.6g} ({report['spans']} spans)")
        for name, entry in report["sanity"].items():
            print(f"  sanity {name}: {entry['value']:.6g} vs {entry['baseline']} {entry['status']}")
    inputs = report["inputs"]
    shares = {k: v for k, v in inputs.items() if k.startswith("share")}
    print(f"  inputs: {json.dumps(shares, sort_keys=True)}")
    for problem in report["failures"][:5]:
        print(f"  FAILED {problem['props']}: {problem['problem']}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not benchenv.have_sources():
        print(f"error: no symcov sources under {benchenv.SRC}", file=sys.stderr)
        return 2
    threads = benchenv.pin_threads()
    benchenv.import_symcov()
    import measure
    from tracer import layer_metric_specs

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = measure.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=OUT_DIR / f"{stem}-spans.jsonl.gz" if args.trace else None,
        ops_path=None if args.trace else OUT_DIR / f"{stem}-ops.jsonl.gz",
    )
    report["environment"] = benchenv.describe(args.seed, threads)
    units = UNITS if not args.trace else {n: u for n, u, _ in layer_metric_specs()}
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    _print_summary(report, units)
    print(f"  report: {report_path.relative_to(benchenv.ROOT)}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
