"""The repository's end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-unique --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics and writes a
Chrome trace plus a self-time table under ``.perfbench-out/``.  The
metric table goes to standard output; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ["compile-unique", "compile-repeat", "kernel-exec",
                  "oneshot-cli"]


def _arguments(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _catalogue(trace: bool) -> dict:
    """``{metric: unit}`` of the run's metric list in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def _report(name: str, seed: int, trace: bool, outcome) -> dict:
    from perfbench.layers import MOVES

    units = _catalogue(trace)
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(outcome.metrics))}, unlisted "
            f"{sorted(set(outcome.metrics) - set(units))}")
    samples = outcome.samples
    failed = sum(1 for s in samples if not s.ok)
    kinds = {}
    for sample in samples:
        kinds[sample.request.klass] = kinds.get(sample.request.klass, 0) + 1
    print(f"workload {name}  seed {seed}  "
          f"{'traced' if trace else 'untraced'}  "
          f"requests {len(samples)}  failed {failed} "
          f"(failed_frac {failed / max(1, len(samples)):.4f}, "
          f"wrong outputs {outcome.wrong})")
    print("mix: " + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())))
    ok = [s for s in samples if s.ok]
    print(f"latency samples {len(ok)}; about {len(ok) // 10} lie beyond p90")
    for klass in sorted(kinds):
        latencies = sorted((s.end - s.start) * 1e3 for s in ok
                           if s.request.klass == klass)
        if latencies:
            print(f"  {klass:20} n {len(latencies):4d}  p50 "
                  f"{latencies[len(latencies) // 2]:9.1f} ms")
    for sample in [s for s in samples if not s.ok][:5]:
        print(f"  failure: {sample.request.key}: {sample.error}")
    for line in outcome.notes:
        print(line)
    print(f"{'metric':40} {'value':>14} unit")
    for metric, value in outcome.metrics.items():
        moves = f"   -> {MOVES[metric]}" if metric in MOVES else ""
        print(f"{metric:40} {value:14.4f} {units[metric]}{moves}")
    return {
        "correct": outcome.wrong == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in outcome.metrics.items()},
    }


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "benchmarks" / "generate.py").is_file():
        print("perfbench: run from a checkout of the repository "
              "(src/repro and benchmarks/ are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Byte-compile once up front so no measured process pays for it.
    for directory in ("src", "benchmarks", "perfbench"):
        compileall.compile_dir(str(ROOT / directory), quiet=1)

    from perfbench import workloads

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = _report(args.workload, args.seed, bool(args.trace), outcome)
    print(f"wall {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
