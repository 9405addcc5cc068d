"""Span recording around the repository's public entry points.

The traced run wraps the functions the daemon and the CLI tools call
(parse, verify, print, the pass manager, the compile/disk caches, the
execution engine, JIT codegen, input synthesis and the wire protocol)
and records one span per call.  Nothing here replays the server's call
sequence: whatever the program really calls is what shows up, so a
layer the program stops calling disappears from the trace.

Spans nest through a thread-local stack and carry the id of the request
whose handler opened the root span.  They stay in memory and are
written once, when the traced process ends.

No ``PassInstrumentation`` is attached anywhere: an instrumented pass
manager bypasses the compile cache, which would change what is measured.
"""

from __future__ import annotations

import functools
import json
import re
import threading
import time
from typing import Callable, Dict, List, Optional

#: Span name of the daemon's per-request root (``CompileService.handle``).
ROOT = "serve.handle"
#: Span name of a CLI tool's ``main``.
TOOL_MAIN = "tools.main"
#: Time the tracer itself spends counting ops; excluded from coverage.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span store: ``(id, parent, name, start, end, request,
    thread, args)`` with times in ``perf_counter_ns`` units."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request=None) -> list:
        stack = self._stack()
        with self._lock:
            self._next += 1
            span_id = self._next
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[3]
        frame = [span_id, name, time.perf_counter_ns(), request,
                 parent[0] if parent else None, {}, time.thread_time_ns()]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        span_id, name, start, request, parent, args, cpu = frame
        # Busy time of the span's thread; the rest of the wall time is
        # waiting (for the GIL, the socket or a lock).
        args["cpu_ns"] = time.thread_time_ns() - cpu
        self.spans.append((span_id, parent, name, start, end, request,
                           threading.get_ident(), args))

    def wrap(self, function: Callable, name: str,
             after: Optional[Callable] = None,
             request_of: Optional[Callable] = None) -> Callable:
        """``function`` recording a ``name`` span per call; ``after(args,
        kwargs, result, span_args)`` may annotate the span."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            request = request_of(args, kwargs) if request_of else None
            frame = self.begin(name, request)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(frame)
            if after is not None:
                after(args, kwargs, result, frame[5])
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _count_ops(tracer: Tracer, op) -> int:
    frame = tracer.begin(BOOKKEEPING)
    try:
        return sum(1 for _ in op.walk())
    finally:
        tracer.end(frame)


#: Statistic names that count work a pass actually did.
APPLIED_STATISTICS: Dict[str, tuple] = {
    "canonicalize": ("ops_folded", "identities_simplified",
                     "dead_ops_erased"),
    "cse": ("ops_eliminated",),
    "host-raising": None,  # every statistic counts a raised call
    "host-device-propagation": None,  # every statistic counts a rewrite
    "loop-internalization": ("loops_internalized",),
    "sycl-licm": ("ops_hoisted",),
    "detect-reduction": ("reductions_detected",),
    "dce": ("dead_ops_erased",),
}


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro.*`` module global that names ``original``."""
    import sys

    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer with spans."""
    import importlib

    for name in ("repro.serve.server", "repro.serve.protocol",
                 "repro.tools.repro_opt", "repro.tools.repro_run",
                 "repro.transforms.compile_cache",
                 "repro.transforms.disk_cache",
                 "repro.transforms.pass_manager",
                 "repro.transforms.pipelines", "repro.interp.engine",
                 "repro.interp.jit", "repro.interp.differential",
                 "repro.interp.vectorize"):
        importlib.import_module(name)
    from repro.interp import differential, engine, jit
    from repro.ir import Printer, parse_module, verify
    from repro.serve import protocol, server
    from repro.transforms.compile_cache import CompileCache
    from repro.transforms.disk_cache import DiskCache
    from repro.transforms.pass_manager import PassManager
    from repro.transforms.pipelines import check_pass_pipeline

    for original, name in ((parse_module, "ir.parser"),
                           (verify, "ir.verifier"),
                           (check_pass_pipeline, "transforms.pipeline_check"),
                           (differential.synthesize_spec, "interp.inputs"),
                           (jit.compile_executable, "interp.jit.compile")):
        _patch_everywhere(original, tracer.wrap(original, name))

    def _read(stream):
        # Wait for the first byte of the next request outside the span:
        # an idle connection is not protocol work.
        peek = getattr(stream, "peek", None)
        if peek is not None:
            peek(1)
        frame = tracer.begin("serve.protocol.read")
        message = None
        try:
            message = protocol.read_message(stream)
            return message
        finally:
            if isinstance(message, dict):
                frame[3] = message.get("id")
            tracer.end(frame)

    class _Counting:
        def __init__(self, stream):
            self.stream = stream
            self.written = 0

        def write(self, data):
            self.written += len(data)
            return self.stream.write(data)

        def flush(self):
            return self.stream.flush()

    def _write(stream, message):
        counting = _Counting(stream)
        frame = tracer.begin("serve.protocol.write", message.get("id"))
        try:
            protocol.write_message(counting, message)
        finally:
            tracer.end(frame)
            frame[5]["bytes"] = counting.written

    server.read_message = _read
    server.write_message = _write

    def _request_id(args, kwargs):
        request = args[1] if len(args) > 1 else kwargs.get("request")
        return request.get("id") if isinstance(request, dict) else None

    def _after_handle(args, kwargs, result, span_args):
        request = args[1] if len(args) > 1 else kwargs.get("request")
        span_args["method"] = request.get("method")
        span_args["ok"] = bool(result.get("ok"))

    server.CompileService.handle = tracer.wrap(
        server.CompileService.handle, ROOT, after=_after_handle,
        request_of=_request_id)

    Printer.print_module = tracer.wrap(Printer.print_module, "ir.printer")

    original_key_for = CompileCache.__dict__["key_for"].__func__
    CompileCache.key_for = staticmethod(
        tracer.wrap(original_key_for, "ir.fingerprint"))
    CompileCache.lookup = tracer.wrap(
        CompileCache.lookup, "transforms.compile_cache.lookup")
    CompileCache.store = tracer.wrap(
        CompileCache.store, "transforms.compile_cache.store")

    def _after_load(args, kwargs, result, span_args):
        span_args["hit"] = result is not None

    DiskCache.load = tracer.wrap(DiskCache.load,
                                 "transforms.disk_cache.load",
                                 after=_after_load)
    DiskCache.store = tracer.wrap(DiskCache.store,
                                  "transforms.disk_cache.store")

    run = PassManager.run

    def _run(self, op, report=None):
        ops_in = _count_ops(tracer, op)
        frame = tracer.begin("transforms.pass_manager")
        try:
            result = run(self, op, report)
        finally:
            tracer.end(frame)
        span_args = frame[5]
        span_args["ops_in"] = ops_in
        span_args["ops_out"] = _count_ops(tracer, op)
        timings: Dict[str, float] = {}
        for key, seconds in result.timings.items():
            name = re.sub(r"^\d+: ", "", key)
            timings[name] = timings.get(name, 0.0) + seconds
        span_args["timings"] = timings
        applied: Dict[str, int] = {}
        for statistic in result.statistics:
            if statistic.pass_name == "compile-cache":
                applied[f"cache.{statistic.name}"] = statistic.value
                continue
            wanted = APPLIED_STATISTICS.get(statistic.pass_name, ())
            if wanted is None or statistic.name in wanted:
                applied[statistic.pass_name] = \
                    applied.get(statistic.pass_name, 0) + statistic.value
        span_args["applied"] = applied
        return result

    PassManager.run = _run

    def _after_execute(args, kwargs, result, span_args):
        span_args["tier"] = result.tier
        span_args["ops"] = result.counters.get("ops", 0)
        span_args["bytes"] = result.counters.get("bytes_read", 0) + \
            result.counters.get("bytes_written", 0)

    engine.ExecutionEngine.execute = tracer.wrap(
        engine.ExecutionEngine.execute, "interp.engine.execute",
        after=_after_execute)


def load_spans(path: str) -> List[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


def chrome_trace(processes: Dict[str, List[tuple]]) -> dict:
    """Chrome trace-event JSON (``ph: X`` complete events, microseconds)
    for spans grouped by process label; opens in Perfetto."""
    events = []
    for pid, (label, spans) in enumerate(sorted(processes.items()), 1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for span_id, parent, name, start, end, request, tid, args in spans:
            event_args = {"request": request, "span": span_id,
                          "parent": parent}
            event_args.update(args)
            events.append({"ph": "X", "name": name, "pid": pid,
                           "tid": tid % 100000, "ts": start / 1000.0,
                           "dur": (end - start) / 1000.0,
                           "args": event_args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans: List[tuple]) -> Dict[str, List[float]]:
    """``{name: [calls, total ms, self ms, self busy ms]}``: self time is
    a span's duration minus the time its direct children cover; busy
    time counts only the thread's CPU time."""
    children: Dict[int, List[int]] = {}
    for span_id, parent, name, start, end, request, tid, args in spans:
        if parent is not None:
            row = children.setdefault(parent, [0, 0])
            row[0] += end - start
            row[1] += args.get("cpu_ns", 0)
    table: Dict[str, List[float]] = {}
    for span_id, parent, name, start, end, request, tid, args in spans:
        wall, busy = children.get(span_id, (0, 0))
        row = table.setdefault(name, [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) / 1e6
        row[2] += (end - start - wall) / 1e6
        row[3] += (args.get("cpu_ns", 0) - busy) / 1e6
    return table


def format_self_times(table: Dict[str, List[float]],
                      wall_ms: float) -> str:
    lines = [f"{'layer':36} {'calls':>6} {'total ms':>10} {'self ms':>10} "
             f"{'busy ms':>10} {'self %':>7}"]
    for name, (calls, total, own, busy) in sorted(
            table.items(), key=lambda item: -item[1][2]):
        share = 100.0 * own / wall_ms if wall_ms else 0.0
        lines.append(f"{name:36} {calls:6d} {total:10.1f} {own:10.1f} "
                     f"{busy:10.1f} {share:6.1f}%")
    return "\n".join(lines)
