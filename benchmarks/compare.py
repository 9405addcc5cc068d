"""Benchmark regression gate: compare a fresh run against a committed
``BENCH_*.json`` baseline.

Tracked scenarios are flattened to ``name -> seconds``:

* per-size phase timings: ``"<num_ops>ops/<phase>"`` (print, parse, the
  pass combinations, the full pipeline);
* the cache scenario: ``"cache/cold"`` and ``"cache/warm"``;
* the interpreter scenarios: ``"interp/<name>"``;
* the tiered-execution scenarios: ``"jit/<name>"`` / ``"vector/<name>"``;
* the lowering scenarios: ``"lower/<name>"`` (pipeline, lowered-CFG
  execution, exporter round trip);
* the static-analysis scenarios: ``"lint/listing-sweep"`` (cold) and
  ``"lint/listing-sweep-warm"`` (analysis-manager hits).

A scenario regresses when ``candidate > baseline * (1 + threshold)``.
Timings below ``--min-seconds`` in the *baseline* are skipped — at
micro-benchmark scale the gate would only measure scheduler noise.  The
exit status is the contract: 0 clean, 1 regression, 2 usage error — CI
fails the build on 1.

Independently of the baseline, the candidate's ``parse`` cost per op
must not grow with module size: µs/op at the largest size may be at
most :data:`PARSE_SCALING_LIMIT` times µs/op at the smallest.  A
previous-run-relative gate cannot see a layer drifting quadratic a
little at a time (5,000-op parse went 0.153 s in ``BENCH_2.json`` to
0.719 s in ``BENCH_6.json`` to 0.823 s in ``BENCH_10.json``, each step
under threshold); the scaling check fails both of those runs.

``--normalize`` corrects for *machine drift*: a committed baseline was
recorded on one host, CI re-times on another, and hosted runners vary
well beyond any useful threshold.  Each scenario's ratio is divided by
the **median ratio across all gated scenarios** before thresholding, so
a uniformly slower machine cancels out and only scenarios that regressed
*relative to the rest of the suite* fail.  The trade-off is explicit: a
change that slows every scenario by the same factor is invisible to the
normalized gate (the suite spans print/parse/pass/cache scenarios, so a
real regression is very rarely that uniform); the raw median drift is
printed so it can be eyeballed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional

#: Default tolerated slowdown before the gate fails (25%).
DEFAULT_THRESHOLD = 0.25

#: Baseline timings shorter than this are too noisy to gate on.
DEFAULT_MIN_SECONDS = 0.005

#: Largest tolerated growth of parse µs/op from the smallest module size
#: of a run to its largest.
PARSE_SCALING_LIMIT = 1.5


def flatten_scenarios(results: Dict) -> Dict[str, float]:
    """``scenario name -> seconds`` for every tracked timing in a
    ``BENCH_*.json`` payload."""
    scenarios: Dict[str, float] = {}
    for record in results.get("records", ()):
        size = record.get("config", {}).get("num_ops", record.get("num_ops"))
        for phase, seconds in record.get("timings_s", {}).items():
            scenarios[f"{size}ops/{phase}"] = seconds
    cache = results.get("concurrency", {}).get("cache", {})
    for phase in ("cold", "warm"):
        if f"{phase}_s" in cache:
            scenarios[f"cache/{phase}"] = cache[f"{phase}_s"]
    interp = results.get("interp", {})
    for record in interp.get("records", ()):
        name = record.get("name")
        seconds = record.get("seconds")
        if name is not None and seconds is not None:
            scenarios[f"interp/{name}"] = seconds
    # Families whose record names already carry their prefix
    # ("lint/listing-sweep", "process/batch-jobs4",
    # "disk/warm-fresh-process", "serve/round-trip",
    # "jit/vecadd-exec", "vector/gemm-exec", "lower/pipeline-gemm").
    for family in ("static", "process", "serve", "jit", "lower"):
        for record in results.get(family, {}).get("records", ()):
            name = record.get("name")
            seconds = record.get("seconds")
            if name is not None and seconds is not None:
                scenarios[name] = seconds
    return scenarios


def per_op_scaling(results: Dict) -> Optional[Dict[str, float]]:
    """Parse µs/op at a run's smallest and largest module size.

    ``None`` when the run timed parsing at fewer than two sizes (a
    smoke run).  Sizes are the records' measured op counts.
    """
    points = []
    for record in results.get("records", ()):
        seconds = record.get("timings_s", {}).get("parse")
        ops = record.get("num_ops") or record.get("config", {}).get("num_ops")
        if seconds is not None and ops:
            points.append((ops, seconds / ops * 1e6))
    if len({ops for ops, _ in points}) < 2:
        return None
    points.sort()
    (small_ops, small_us), (large_ops, large_us) = points[0], points[-1]
    return {"small_ops": small_ops, "small_us": small_us,
            "large_ops": large_ops, "large_us": large_us,
            "ratio": large_us / small_us if small_us > 0 else 0.0}


def scenarios_missing_from_baseline(baseline: Dict,
                                    candidate: Dict) -> List[str]:
    """Tracked scenarios the candidate has but the baseline lacks.

    A non-empty result means the committed ``BENCH_*.json`` predates a
    scenario family (e.g. a fresh run with ``--interp`` compared against
    a pre-interpreter baseline) — the gate reports that clearly instead
    of silently not gating the new scenarios.
    """
    baseline_names = set(flatten_scenarios(baseline))
    return sorted(name for name in flatten_scenarios(candidate)
                  if name not in baseline_names)


def scenarios_missing_from_candidate(baseline: Dict,
                                     candidate: Dict) -> List[str]:
    """Tracked baseline scenarios the candidate run did not produce.

    These stay ungated (partial re-runs are a legitimate workflow), but
    the gate prints them so a runner invocation that silently dropped a
    scenario family (e.g. a missing ``--interp``) is visible in the log.
    """
    candidate_names = set(flatten_scenarios(candidate))
    return sorted(name for name in flatten_scenarios(baseline)
                  if name not in candidate_names)


def compare(baseline: Dict, candidate: Dict,
            threshold: float = DEFAULT_THRESHOLD,
            min_seconds: float = DEFAULT_MIN_SECONDS,
            normalize: bool = False) -> List[Dict]:
    """Rows for every scenario present in both payloads.

    Each row carries ``name``, ``baseline_s``, ``candidate_s``, ``ratio``,
    ``gated_ratio`` (drift-corrected when ``normalize``) and ``status``
    (``ok`` / ``regression`` / ``skipped``).
    """
    baseline_scenarios = flatten_scenarios(baseline)
    candidate_scenarios = flatten_scenarios(candidate)
    rows: List[Dict] = []
    for name, base_seconds in sorted(baseline_scenarios.items()):
        cand_seconds = candidate_scenarios.get(name)
        if cand_seconds is None:
            continue
        ratio = (cand_seconds / base_seconds) if base_seconds > 0 else 0.0
        rows.append({
            "name": name,
            "baseline_s": base_seconds,
            "candidate_s": cand_seconds,
            "ratio": ratio,
            "gated": base_seconds >= min_seconds,
        })
    gated_ratios = [row["ratio"] for row in rows if row["gated"]]
    drift = (statistics.median(gated_ratios)
             if normalize and gated_ratios else 1.0)
    for row in rows:
        row["drift"] = drift
        row["gated_ratio"] = row["ratio"] / drift if drift > 0 else 0.0
        if not row["gated"]:
            row["status"] = "skipped"
        elif row["gated_ratio"] > 1.0 + threshold:
            row["status"] = "regression"
        else:
            row["status"] = "ok"
        del row["gated"]
    return rows


def format_table(rows: List[Dict], normalized: bool = False) -> str:
    width = max([len(row["name"]) for row in rows] + [8])
    header = (f"{'scenario':<{width}}  {'baseline':>10}  {'candidate':>10}"
              f"  {'ratio':>7}")
    if normalized:
        header += f"  {'adj':>7}"
    lines = [header + "  status"]
    for row in rows:
        line = (f"{row['name']:<{width}}  {row['baseline_s']:>9.4f}s"
                f"  {row['candidate_s']:>9.4f}s  {row['ratio']:>6.2f}x")
        if normalized:
            line += f"  {row['gated_ratio']:>6.2f}x"
        lines.append(line + f"  {row['status']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.compare",
        description="Fail on >threshold slowdown vs a BENCH_*.json "
                    "baseline.")
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("candidate", help="freshly produced results JSON")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="tolerated fractional slowdown "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--min-seconds", type=float,
                        default=DEFAULT_MIN_SECONDS,
                        help="skip scenarios whose baseline is shorter "
                             "than this (default 0.005)")
    parser.add_argument("--normalize", action="store_true",
                        help="divide each ratio by the median ratio across "
                             "gated scenarios before thresholding, "
                             "cancelling machine drift between the "
                             "baseline host and this one")
    parser.add_argument("--allow-new-scenarios", action="store_true",
                        help="tolerate candidate scenarios absent from the "
                             "baseline (they are reported but not gated); "
                             "without this flag a stale baseline is a "
                             "usage error")
    args = parser.parse_args(argv)

    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(args.candidate, "r", encoding="utf-8") as handle:
            candidate = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"benchmarks.compare: {exc}", file=sys.stderr)
        return 2

    missing = scenarios_missing_from_baseline(baseline, candidate)
    if missing:
        message = (
            f"benchmarks.compare: baseline {args.baseline!r} lacks "
            f"{len(missing)} scenario(s) present in the fresh run: "
            f"{', '.join(missing)} — regenerate the baseline "
            "(commit a new BENCH_<pr>.json) or pass "
            "--allow-new-scenarios to leave them ungated")
        if not args.allow_new_scenarios:
            print(message, file=sys.stderr)
            return 2
        print(message.replace("benchmarks.compare:",
                              "benchmarks.compare: note:"))
    unproduced = scenarios_missing_from_candidate(baseline, candidate)
    if unproduced:
        print("benchmarks.compare: note: candidate did not produce "
              f"{len(unproduced)} baseline scenario(s), left ungated: "
              f"{', '.join(unproduced)}")

    rows = compare(baseline, candidate, threshold=args.threshold,
                   min_seconds=args.min_seconds, normalize=args.normalize)
    if not rows:
        print("benchmarks.compare: no common scenarios between baseline "
              "and candidate", file=sys.stderr)
        return 2
    print(format_table(rows, normalized=args.normalize))
    if args.normalize:
        print(f"\nmedian machine drift: {rows[0]['drift']:.2f}x "
              "(ratios above are thresholded after dividing by this)")
    scaling = per_op_scaling(candidate)
    superlinear = scaling is not None \
        and scaling["ratio"] > PARSE_SCALING_LIMIT
    if scaling is not None:
        print(f"\nparse scaling: {scaling['small_us']:.1f} us/op at "
              f"{scaling['small_ops']} ops, {scaling['large_us']:.1f} us/op "
              f"at {scaling['large_ops']} ops ({scaling['ratio']:.2f}x, "
              f"limit {PARSE_SCALING_LIMIT:.2f}x)")
    regressions = [row for row in rows if row["status"] == "regression"]
    if regressions:
        names = ", ".join(row["name"] for row in regressions)
        print(f"\nFAIL: {len(regressions)} scenario(s) regressed more than "
              f"{args.threshold:.0%}: {names}", file=sys.stderr)
    if superlinear:
        print(f"\nFAIL: parse cost per op grows {scaling['ratio']:.2f}x "
              f"from {scaling['small_ops']} to {scaling['large_ops']} ops "
              f"(limit {PARSE_SCALING_LIMIT:.2f}x): a superlinear parser",
              file=sys.stderr)
    if regressions or superlinear:
        return 1
    print(f"\nOK: no scenario regressed more than {args.threshold:.0%} "
          f"({sum(1 for row in rows if row['status'] == 'skipped')} "
          "skipped as sub-threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
