"""Run one workload of the NCS benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 ncsbench/run.py --workload rpc-1k --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``BENCHMARK.json`` for names, units and
directions).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every delivered byte checked out; without the
library's sources next to this directory the command prints no result
and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

UNITS_FILE = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("rpc-1k", "stream-1m", "mixed")


def _declared_units(trace: bool) -> dict:
    with open(UNITS_FILE) as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The library reads NCS_* variables (tracing, X-ray, faults, data
    # plane, pressure limits); none of them may change what is measured.
    for key in [key for key in os.environ if key.startswith("NCS_")]:
        del os.environ[key]
    # One CPU for the whole process, before any thread starts (threads
    # inherit it): the library's threads then hand work over without
    # cross-CPU wake-ups whose cost depends on where the scheduler
    # happened to put each thread, and the steal the run sees is that
    # CPU's alone.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    from ncsbench import bench

    trace = bool(args.trace)
    units = _declared_units(trace)
    trace_path = None
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.json"
        )
    result = bench.run(args.workload, args.seed, args.seconds, trace,
                       trace_path=trace_path)

    print(f"ncsbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(result.provenance, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:34s} {result.metrics[name]:14.4f} {unit}")
    for name, value in result.notes.items():
        print(f"  ({name} {value:.6g})" if isinstance(value, float)
              else f"  ({name} {value})")
    print(f"  (operations attempted {result.attempted}, failed {result.failed})")
    for error in result.errors:
        print(f"  failure: {error}")
    if trace_path is not None:
        print(f"  (spans written to {os.path.relpath(trace_path, ROOT)})")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
