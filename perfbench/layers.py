"""Per-layer figures of a traced run, and what each should move.

Metric names, units and directions live in ``BENCHMARK.json`` only;
``MOVES`` adds, for every per-layer metric, the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional

from .trace import BOOKKEEPING, ROOT, TOOL_MAIN

PASSES = ["canonicalize", "cse", "host-raising", "host-device-propagation",
          "loop-internalization", "sycl-licm", "detect-reduction", "dce"]
LOWER_PASSES = ["lower-sycl-accessors", "lower-affine", "convert-scf-to-cf",
                "convert-arith-to-llvm", "convert-memref-to-llvm",
                "convert-func-to-llvm"]
EXEC_CLASSES = ["vecadd", "gemm-host", "gemm-internalized", "lowered"]
TIERS = ["interp", "jit", "vector"]

_STARTUP = "latency_p50_ms on oneshot-cli; setup_s everywhere"
_COMPILE_THROUGHPUT = "throughput_rps on compile-unique"
_REPEAT_P50 = "latency_p50_ms on compile-repeat"
_KERNEL_COUNTS = "kernel_ops/kernel_bytes on kernel-exec"
_KERNEL_P90 = "latency_p90_ms on kernel-exec"
_KERNEL_WORK = "throughput_rps and setup_s on kernel-exec"

#: Per-layer metric -> the end-to-end metric and workload it should move.
MOVES: Dict[str, str] = {
    "tools.startup.import_ms": _STARTUP,
    "tools.startup.numpy_loaded": _STARTUP,
    "ir.parser.ms": "latency_p90_ms/throughput_rps on compile-unique; "
                    "latency_p50_ms on compile-repeat",
    "ir.parser.us_per_op.small":
        "latency_p50_ms on compile-repeat (modules of at most 600 ops)",
    "ir.parser.us_per_op.large":
        "latency_p90_ms on compile-unique (modules of at least 2400 ops)",
    "ir.verifier.ms": _COMPILE_THROUGHPUT,
    "ir.verifier.calls": _COMPILE_THROUGHPUT,
    "ir.printer.ms": _COMPILE_THROUGHPUT,
    "ir.fingerprint.ms": _REPEAT_P50,
    "transforms.compile_cache.hit_ratio": _REPEAT_P50,
    "transforms.compile_cache.hit_ms": _REPEAT_P50,
    "transforms.compile_cache.store_ms":
        "latency_p50_ms on compile-repeat; throughput_rps on compile-unique",
    "transforms.compile_cache.evictions": _REPEAT_P50,
    **{f"transforms.{name}.ms": _COMPILE_THROUGHPUT for name in PASSES},
    **{f"transforms.{name}.applied": _KERNEL_COUNTS for name in PASSES},
    "transforms.ops_out_ratio": _KERNEL_COUNTS,
    "transforms.lower_to_llvm.ms": _KERNEL_P90,
    "transforms.disk_cache.hit_ratio": "latency_p50_ms on oneshot-cli",
    "transforms.disk_cache.load_ms": "latency_p50_ms on oneshot-cli",
    "analysis.manager.hit_ratio": _COMPILE_THROUGHPUT,
    **{f"interp.engine.exec_ms.{name}":
       _KERNEL_P90 if name == "lowered" else "latency_p50_ms on kernel-exec"
       for name in EXEC_CLASSES},
    **{f"interp.engine.tier_share.{name}": _KERNEL_P90 for name in TIERS},
    "interp.engine.fallbacks": _KERNEL_P90,
    "interp.jit.compile_ms": _KERNEL_WORK,
    "interp.jit.cache_hit_ratio": _KERNEL_WORK,
    **{f"interp.exec.mops_per_s.{name}": "throughput_rps on kernel-exec"
       for name in TIERS},
    "interp.inputs_ms": _KERNEL_WORK,
    "kernel_ops": "generated-code run time on kernel-exec",
    "kernel_bytes": "generated-code memory traffic on kernel-exec",
    "serve.protocol.read_ms": _REPEAT_P50,
    "serve.protocol.write_ms": _REPEAT_P50,
    "serve.protocol.response_kb": _REPEAT_P50,
    "serve.wait_ms": "latency_p90_ms on compile-unique",
    "serve.client.retries": "failed_frac everywhere",
    "trace.coverage": "health check, not a target",
    "trace.overhead": "health check, not a target",
}


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` style)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(spans: List[tuple], samples: Iterable, *,
                  status_delta: Optional[dict] = None,
                  startup: Dict[str, float],
                  kernel_counts: Dict[str, float],
                  untraced_rps: float, traced_rps: float) -> Dict[str, float]:
    """Every per-layer metric from one traced phase.

    ``spans`` are the traced process's spans with ``request`` set to the
    client's request id; ``samples`` are that phase's client samples.
    Unless the name says otherwise a figure is a mean per request.
    """
    samples = [s for s in samples if s.ok]
    by_request = {s.request_id: s for s in samples}
    spans = [s for s in spans if s[5] in by_request]
    names = {s[0]: s[2] for s in spans}
    roots = {s[5]: s for s in spans if s[2] in (ROOT, TOOL_MAIN)}
    count = len(roots) or 1
    grouped: Dict[str, List[tuple]] = {}
    for span in spans:
        grouped.setdefault(span[2], []).append(span)

    def total_ms(name: str) -> float:
        return sum(_ms(s[4] - s[3]) for s in grouped.get(name, ()))

    metrics: Dict[str, float] = {
        "tools.startup.import_ms": startup["import_ms"],
        "tools.startup.numpy_loaded": startup["numpy_loaded"],
        "kernel_ops": kernel_counts.get("ops", 0.0),
        "kernel_bytes": kernel_counts.get("bytes", 0.0),
    }

    # -- IR layers --------------------------------------------------------
    metrics["ir.parser.ms"] = total_ms("ir.parser") / count
    per_op: Dict[str, List[float]] = {"small": [], "large": []}
    for span in grouped.get("ir.parser", ()):
        root = roots.get(span[5])
        request = by_request[span[5]].request if root else None
        if request is None or span[1] != root[0] or \
                request.klass not in ("compile", "repro-opt"):
            continue
        ops = request.ops
        bucket = "small" if ops <= 600 else "large" if ops >= 2400 else None
        if bucket:
            per_op[bucket].append((span[4] - span[3]) / 1e3 / ops)
    for bucket, values in per_op.items():
        metrics[f"ir.parser.us_per_op.{bucket}"] = \
            statistics.fmean(values) if values else 0.0
    metrics["ir.verifier.ms"] = total_ms("ir.verifier") / count
    metrics["ir.verifier.calls"] = len(grouped.get("ir.verifier", ())) / count
    metrics["ir.printer.ms"] = sum(
        _ms(s[4] - s[3]) for s in grouped.get("ir.printer", ())
        if names.get(s[1]) != "ir.fingerprint") / count
    metrics["ir.fingerprint.ms"] = total_ms("ir.fingerprint") / count

    # -- pass manager and caches -----------------------------------------
    managers = [s[7] for s in grouped.get("transforms.pass_manager", ())]
    hits = sum(a["applied"].get("cache.hits", 0) for a in managers)
    misses = sum(a["applied"].get("cache.misses", 0) for a in managers)
    metrics["transforms.compile_cache.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["transforms.compile_cache.hit_ms"] = _ratio(
        sum(a["timings"].get("compile-cache: hit", 0.0) for a in managers)
        * 1e3, hits)
    stores = grouped.get("transforms.compile_cache.store", ())
    metrics["transforms.compile_cache.store_ms"] = _ratio(
        total_ms("transforms.compile_cache.store"), len(stores))
    cache = (status_delta or {}).get("cache", {})
    metrics["transforms.compile_cache.evictions"] = \
        float(cache.get("evictions", 0))
    for name in PASSES:
        metrics[f"transforms.{name}.ms"] = sum(
            a["timings"].get(name, 0.0) for a in managers) * 1e3 / count
        metrics[f"transforms.{name}.applied"] = sum(
            a["applied"].get(name, 0) for a in managers) / count
    metrics["transforms.ops_out_ratio"] = _ratio(
        sum(a["ops_out"] for a in managers),
        sum(a["ops_in"] for a in managers))
    metrics["transforms.lower_to_llvm.ms"] = sum(
        a["timings"].get(name, 0.0) for a in managers
        for name in LOWER_PASSES) * 1e3 / count
    loads = grouped.get("transforms.disk_cache.load", ())
    metrics["transforms.disk_cache.hit_ratio"] = _ratio(
        sum(1 for s in loads if s[7].get("hit")), len(loads))
    metrics["transforms.disk_cache.load_ms"] = _ratio(
        total_ms("transforms.disk_cache.load"), len(loads))
    analyses = (status_delta or {}).get("analyses", {})
    metrics["analysis.manager.hit_ratio"] = _ratio(
        analyses.get("hits", 0),
        analyses.get("hits", 0) + analyses.get("misses", 0))

    # -- execution --------------------------------------------------------
    executions = grouped.get("interp.engine.execute", ())
    for klass in EXEC_CLASSES:
        of_class = [s for s in executions
                    if by_request[s[5]].request.klass == klass]
        metrics[f"interp.engine.exec_ms.{klass}"] = _ratio(
            sum(_ms(s[4] - s[3]) for s in of_class), len(of_class))
    executed = [s for s in samples
                if s.request.fields.get("method") == "execute"]
    for tier in TIERS:
        on_tier = [s for s in executions if s[7].get("tier") == tier]
        metrics[f"interp.engine.tier_share.{tier}"] = _ratio(
            len(on_tier), len(executions))
        metrics[f"interp.exec.mops_per_s.{tier}"] = _ratio(
            sum(s[7]["ops"] for s in on_tier) / 1e6,
            sum((s[4] - s[3]) / 1e9 for s in on_tier))
    metrics["interp.engine.fallbacks"] = _ratio(
        sum(s.result.get("fallbacks", 0) for s in executed
            if isinstance(s.result, dict)), len(executed))
    compiles = grouped.get("interp.jit.compile", ())
    metrics["interp.jit.compile_ms"] = _ratio(
        total_ms("interp.jit.compile"), len(compiles))
    executables = (status_delta or {}).get("executables", {})
    metrics["interp.jit.cache_hit_ratio"] = _ratio(
        executables.get("hits", 0),
        executables.get("hits", 0) + executables.get("misses", 0))
    metrics["interp.inputs_ms"] = _ratio(total_ms("interp.inputs"),
                                         len(executed))

    # -- serving ----------------------------------------------------------
    metrics["serve.protocol.read_ms"] = total_ms("serve.protocol.read") / count
    metrics["serve.protocol.write_ms"] = \
        total_ms("serve.protocol.write") / count
    metrics["serve.protocol.response_kb"] = sum(
        s[7].get("bytes", 0) for s in grouped.get("serve.protocol.write", ())
    ) / 1024.0 / count
    waits = [(sample.end - sample.start) * 1e3 - _ms(root[4] - root[3])
             for rid, root in roots.items() if root[2] == ROOT
             for sample in (by_request[rid],)]
    metrics["serve.wait_ms"] = statistics.fmean(waits) if waits else 0.0
    metrics["serve.client.retries"] = float(sum(s.retries for s in samples))

    # -- health -----------------------------------------------------------
    covered = wall = 0
    for rid, root in roots.items():
        children = [s for s in spans if s[1] == root[0]]
        bookkeeping = sum(s[4] - s[3] for s in children
                          if s[2] == BOOKKEEPING)
        covered += sum(s[4] - s[3] for s in children) - bookkeeping
        wall += root[4] - root[3] - bookkeeping
    metrics["trace.coverage"] = _ratio(covered, wall)
    metrics["trace.overhead"] = 1.0 - _ratio(traced_rps, untraced_rps)
    return metrics
