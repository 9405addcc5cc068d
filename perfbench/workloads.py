"""The four workloads: set-up, the measured window, oracles and metrics.

Daemon workloads (compile-unique, compile-repeat, kernel-exec) drive one
``repro-served`` subprocess from two closed-loop client connections;
oneshot-cli runs one fresh ``repro-opt``/``repro-run`` process at a
time.  An untraced run reports the end-to-end metrics.  A traced run
measures half its window untraced and half against a daemon (or tool
processes) with span recording installed, and reports the per-layer
metrics; the throughput ratio of the two halves is the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.ir import parse_module, verify
from repro.serve import CompileService

from . import inputs
from .drive import (
    ROOT,
    Daemon,
    Sample,
    closed_loop,
    reaped_children_peak_rss_mb,
    run_process,
)
from .inputs import Request
from .layers import layer_metrics, percentile
from .trace import chrome_trace, format_self_times, load_spans, self_times

#: Set-ups per untraced run; ``setup_s`` takes their median.
SETUP_RUNS = 5
#: Client connections of the daemon workloads.
CLIENTS = 2
#: Where traced runs leave their Chrome trace and self-time table.
OUT_DIR = ROOT / ".perfbench-out"


@dataclass
class Outcome:
    samples: List[Sample]
    metrics: Dict[str, float]
    wrong: int
    notes: List[str] = field(default_factory=list)


# -- oracles ----------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _reference(kind: str, size: int):
    return inputs.reference(kind, size)


def consume_compile(request: Request, response: dict):
    return response["text"]


def consume_execute(request: Request, response: dict) -> dict:
    name, expected = _reference(*request.oracle)
    counters = response.get("counters", {})
    return {"correct": inputs.matches(expected,
                                      response["memory"].get(name, ())),
            "ops": counters.get("ops", 0),
            "bytes": counters.get("bytes_read", 0)
            + counters.get("bytes_written", 0),
            "fallbacks": len(response.get("remarks", ()))}


def _reparses(text: str) -> bool:
    try:
        verify(parse_module(text, filename="<output>"))
    except Exception:  # noqa: BLE001 - any failure is a wrong output
        return False
    return True


def check_compile(samples: List[Sample], cold: Dict[str, str]) -> int:
    """Every output re-parses and verifies, and every output for an
    input seen before is byte-identical to that input's first (cold)
    output.  Marks wrong samples; returns how many there were."""
    wrong = 0
    parsed: Dict[str, bool] = {}
    for sample in sorted(samples, key=lambda s: s.start):
        if not sample.ok:
            continue
        text = sample.result
        if text not in parsed:
            parsed[text] = _reparses(text)
        expected = cold.setdefault(sample.request.key, text)
        if not parsed[text] or text != expected:
            sample.ok, sample.error = False, "wrong output"
            wrong += 1
    return wrong


def check_execute(samples: List[Sample], cold) -> int:
    wrong = 0
    for sample in samples:
        if sample.ok and not sample.result["correct"]:
            sample.ok, sample.error = False, "wrong output"
            wrong += 1
    return wrong


# -- daemon workloads ---------------------------------------------------------
@dataclass
class DaemonWorkload:
    #: ``inputs(seed)`` -> ``(warm-up requests, request stream)``.
    inputs: Callable[[int], Tuple[List[Request], Iterator[Request]]]
    consume: Callable[[Request, dict], object]
    check: Callable[[List[Sample], dict], int]


def _unique_inputs(seed: int):
    return inputs.compile_unique_warm_up(seed), inputs.compile_unique(seed)


WORKLOADS: Dict[str, DaemonWorkload] = {
    "compile-unique": DaemonWorkload(_unique_inputs, consume_compile,
                                     check_compile),
    "compile-repeat": DaemonWorkload(inputs.compile_repeat, consume_compile,
                                     check_compile),
    "kernel-exec": DaemonWorkload(inputs.kernel_exec, consume_execute,
                                  check_execute),
}
ALL_WORKLOADS = [*WORKLOADS, "oneshot-cli"]


def _set_up(work: Path, requests: List[Request], consume,
            spans: Optional[Path] = None) -> Tuple[Daemon, Dict[str, object]]:
    """Launch a daemon and send each warm-up request once; returns the
    daemon and ``{key: consumed response}``."""
    daemon = Daemon.start(work, spans=spans)
    results = {}
    try:
        with daemon.client(5) as client:
            for request in requests:
                if request.key not in results:
                    results[request.key] = consume(
                        request, client.request(**request.fields))
    except BaseException:
        daemon.kill()
        raise
    return daemon, results


def _throughput(samples: List[Sample]) -> float:
    ok = sum(1 for s in samples if s.ok)
    span = max(s.end for s in samples) - min(s.start for s in samples)
    return ok / span if span > 0 else 0.0


def end_to_end(samples: List[Sample], setup_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    latencies = [(s.end - s.start) * 1e3 for s in samples if s.ok]
    if not latencies:
        raise RuntimeError("no request succeeded")
    return {"setup_s": setup_s,
            "throughput_rps": _throughput(samples),
            "latency_p50_ms": percentile(latencies, 0.5),
            "latency_p90_ms": percentile(latencies, 0.9),
            "peak_rss_mb": peak_rss_mb}


def _kernel_counts(cycle: List[Request], warm: Dict[str, object]):
    """Mean dynamic ops / bytes per request of one request cycle."""
    results = [warm[r.key] for r in cycle if isinstance(warm.get(r.key),
                                                        dict)]
    if not results:
        return {}
    return {"ops": statistics.fmean(r["ops"] for r in results),
            "bytes": statistics.fmean(r["bytes"] for r in results)}


def _status(daemon: Daemon) -> dict:
    with daemon.client(7) as client:
        return client.status()


def _delta(after, before):
    if isinstance(after, dict):
        return {key: _delta(value, before.get(key, 0)
                            if isinstance(before, dict) else 0)
                for key, value in after.items()}
    if isinstance(after, (int, float)) and not isinstance(after, bool):
        return after - (before if isinstance(before, (int, float)) else 0)
    return after


@dataclass
class Phase:
    samples: List[Sample]
    wrong: int
    #: Warm-up responses by request key, as ``consume`` kept them.
    cold: Dict[str, object]
    #: Daemon ``status`` counters accumulated during the window.
    status: dict


def _drive(daemon: Daemon, cold: Dict[str, object],
           workload: DaemonWorkload, stream: Iterator[Request],
           seconds: float) -> Phase:
    """Run the closed-loop window against a warmed-up ``daemon``, stop
    the daemon and judge the outputs."""
    try:
        before = _status(daemon)
        samples = closed_loop(daemon, stream, seconds, workload.consume,
                              clients=CLIENTS)
        after = _status(daemon)
    finally:
        daemon.stop()
    wrong = workload.check(samples, dict(cold))
    return Phase(samples, wrong, cold, _delta(after, before))


def run_daemon(name: str, seed: int, seconds: float, trace: bool,
               work: Path) -> Outcome:
    workload = WORKLOADS[name]

    if not trace:
        warm, stream = workload.inputs(seed)
        setups = []
        for attempt in range(SETUP_RUNS):
            start = time.perf_counter()
            daemon, cold = _set_up(work, warm, workload.consume)
            setups.append(time.perf_counter() - start)
            if attempt < SETUP_RUNS - 1:
                daemon.stop()
        phase = _drive(daemon, cold, workload, stream, seconds)
        metrics = end_to_end(phase.samples, statistics.median(setups),
                             reaped_children_peak_rss_mb())
        return Outcome(phase.samples, metrics, phase.wrong)

    half = seconds / 2.0
    warm, stream = workload.inputs(seed)
    untraced = _drive(*_set_up(work, warm, workload.consume), workload,
                      stream, half)
    spans_path = work / "daemon-spans.json"
    warm, stream = workload.inputs(seed)
    traced = _drive(*_set_up(work, warm, workload.consume, spans_path),
                    workload, stream, half)
    spans = load_spans(str(spans_path))
    kernel = _kernel_counts(warm, traced.cold) \
        if name == "kernel-exec" else {}
    metrics = layer_metrics(
        spans, traced.samples, status_delta=traced.status,
        startup=probe_startup(), kernel_counts=kernel,
        untraced_rps=_throughput(untraced.samples),
        traced_rps=_throughput(traced.samples))
    notes = write_trace(name, seed, {"repro-served": spans}, traced.samples)
    notes.insert(0, _halves(untraced.samples, traced.samples))
    return Outcome(untraced.samples + traced.samples, metrics,
                   untraced.wrong + traced.wrong, notes)


# -- oneshot-cli --------------------------------------------------------------
def _oneshot_setup(seed: int, work: Path, attempt: int):
    """Generate the inputs, write them, and prime a fresh disk cache
    through the daemon's service; returns what the window needs."""
    cache = work / f"cache-{attempt}"
    shutil.rmtree(cache, ignore_errors=True)
    pool, stream = inputs.oneshot(seed)
    service = CompileService(cache_dir=str(cache))
    expected: Dict[str, Optional[str]] = {}
    for request in pool:
        (work / f"{request.key}.mlir").write_text(request.fields["ir"],
                                                  encoding="utf-8")
        response = service.handle({"id": 0, **request.fields},
                                  lambda event: None)
        if not response.get("ok"):
            raise RuntimeError(f"priming {request.key} failed: "
                               f"{response.get('error')}")
        expected[request.key] = response.get("text")
    return stream, expected, cache


def _tool_argv(request: Request, work: Path,
               cache: Path) -> Tuple[str, List[str]]:
    path = str(work / f"{request.key}.mlir")
    if request.klass == "repro-opt":
        return "repro_opt", [path, "--pipeline", "sycl-mlir",
                             "--cache-dir", str(cache)]
    fields = request.fields
    extent = "x".join(map(str, fields["global_size"]))
    argv = [path, "--entry", fields["entry"],
            "--global-size", extent,
            "--local-size", "x".join(map(str, fields["local_size"])),
            "--pipeline", "sycl-mlir", "--print-buffers",
            "--cache-dir", str(cache)]
    for name in fields["buffers"]:
        argv += ["--buffer", f"{name}={extent}"]
    return "repro_run", argv


_BUFFER_LINE = re.compile(r"^(\w+) = \[(.*?)(?:, \.\.\. \((\d+) values\))?\]$",
                          re.M)


def _check_run_output(request: Request, stdout: str) -> bool:
    """``repro-run --print-buffers`` shows each buffer at six significant
    digits, and a buffer longer than 32 values only as a prefix.  The
    whole result buffer must be shown and match NumPy."""
    name, expected = _reference(*request.oracle)
    for match in _BUFFER_LINE.finditer(stdout):
        if match.group(1) != name:
            continue
        shown = [float(v) for v in match.group(2).split(", ")]
        return match.group(3) is None and len(shown) == len(expected) and \
            all(abs(v - e) <= 1e-4 * abs(e) + 1e-4
                for v, e in zip(shown, expected))
    return False


def _oneshot_window(stream, expected, cache, seconds, work: Path,
                    traced: bool):
    samples: List[Sample] = []
    spans: List[tuple] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        request = next(stream)
        tool, argv = _tool_argv(request, work, cache)
        index = len(samples) + 1
        if traced:
            spans_path = work / f"cli-spans-{index}.json"
            command = [sys.executable, str(ROOT / "perfbench" /
                                           "traced_entry.py"),
                       str(spans_path), tool, *argv]
        else:
            command = [sys.executable, "-m", f"repro.tools.{tool}", *argv]
        result = run_process(command)
        sample = Sample(0, index, request, result.start, result.end,
                        ok=result.code == 0,
                        error=None if result.code == 0
                        else result.stderr[-200:])
        if sample.ok:
            if tool == "repro_opt":
                good = result.stdout == expected[request.key]
            else:
                good = _check_run_output(request, result.stdout)
            sample.result = {"correct": good}
        if traced:
            # Span ids restart in every process: offset them apart.
            offset = index * 1_000_000
            for span in load_spans(str(spans_path)):
                parent = None if span[1] is None else span[1] + offset
                spans.append((span[0] + offset, parent, *span[2:5], index,
                              *span[6:]))
        samples.append(sample)
    return samples, spans


def run_oneshot(seed: int, seconds: float, trace: bool,
                work: Path) -> Outcome:
    if not trace:
        setups = []
        for attempt in range(SETUP_RUNS):
            start = time.perf_counter()
            prepared = _oneshot_setup(seed, work, attempt)
            setups.append(time.perf_counter() - start)
        samples, _ = _oneshot_window(*prepared, seconds, work, traced=False)
        wrong = check_execute(samples, None)
        metrics = end_to_end(samples, statistics.median(setups),
                             reaped_children_peak_rss_mb())
        return Outcome(samples, metrics, wrong)

    half = seconds / 2.0
    untraced, _ = _oneshot_window(*_oneshot_setup(seed, work, 0), half,
                                  work, traced=False)
    samples, spans = _oneshot_window(*_oneshot_setup(seed, work, 1), half,
                                     work, traced=True)
    wrong = check_execute(untraced, None) + check_execute(samples, None)
    metrics = layer_metrics(
        spans, samples, startup=probe_startup(), kernel_counts={},
        untraced_rps=_throughput(untraced), traced_rps=_throughput(samples))
    notes = write_trace("oneshot-cli", seed, {"tool processes": spans},
                        samples)
    notes.insert(0, _halves(untraced, samples))
    return Outcome(untraced + samples, metrics, wrong, notes)


# -- traced-run helpers ------------------------------------------------------
def _halves(untraced: List[Sample], traced: List[Sample]) -> str:
    return (f"untraced half: {len(untraced)} requests, "
            f"{_throughput(untraced):.3f} req/s; traced half: "
            f"{len(traced)} requests, {_throughput(traced):.3f} req/s")


def probe_startup(runs: int = 3) -> Dict[str, float]:
    """Median import time of ``repro.tools.repro_opt`` in fresh
    interpreters, and whether that import loads NumPy."""
    code = ("import sys, time; start = time.perf_counter(); "
            "import repro.tools.repro_opt; "
            "print(time.perf_counter() - start, int('numpy' in sys.modules))")
    values, numpy_loaded = [], 0
    for _ in range(runs):
        result = run_process([sys.executable, "-c", code])
        seconds, loaded = result.stdout.split()
        values.append(float(seconds) * 1e3)
        numpy_loaded = max(numpy_loaded, int(loaded))
    return {"import_ms": statistics.median(values),
            "numpy_loaded": float(numpy_loaded)}


def write_trace(name: str, seed: int, processes: Dict[str, List[tuple]],
                samples: List[Sample]) -> List[str]:
    """Write the Chrome trace and the self-time table; return the table
    lines for the report."""
    OUT_DIR.mkdir(exist_ok=True)
    client_spans = [(0, None, "client.request", int(s.start * 1e9),
                     int(s.end * 1e9), s.request_id, s.client,
                     {"class": s.request.klass, "ok": s.ok})
                    for s in samples]
    stem = OUT_DIR / f"{name}-seed{seed}"
    trace_path = stem.with_suffix(".trace.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace({**processes, "benchmark client":
                                client_spans}), handle)
    requests = {s.request_id for s in samples if s.ok}
    spans = [span for spans in processes.values() for span in spans
             if span[5] in requests]
    roots = [span for span in spans if span[1] is None]
    wall_ms = sum((span[4] - span[3]) / 1e6 for span in roots)
    table = format_self_times(self_times(spans), wall_ms)
    stem.with_suffix(".layers.txt").write_text(table + "\n",
                                               encoding="utf-8")
    return [f"trace: {trace_path.relative_to(ROOT)}", table]


def run(name: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Outcome:
    if name == "oneshot-cli":
        return run_oneshot(seed, seconds, trace, work)
    return run_daemon(name, seed, seconds, trace, work)
