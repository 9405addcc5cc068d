"""Benchmark runner: times the compiler's hot phases over synthetic IR.

For every configuration the runner generates a module (deterministic per
seed), then times, each on a freshly generated copy:

* ``print``   — :class:`repro.ir.Printer` on the module;
* ``parse``   — :func:`repro.ir.parse_module` of the printed text;
* ``canonicalize`` / ``cse`` / ``canonicalize+cse`` — the optimization
  passes through :class:`repro.transforms.PassManager`, so the per-pass
  numbers come from ``CompileReport.timings`` (keyed by pipeline
  position, ``"0: canonicalize"``, so duplicate passes stay distinct);
* ``pipeline:adaptivecpp-aot`` — a full named pipeline end to end.

Results are written as JSON (``BENCH_2.json`` by convention — the number
is the PR that produced it) so later PRs can extend the trajectory.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.dialects import all_dialects  # noqa: F401 - registers ops/types
from repro.ir import Printer, parse_module, verify
from repro.transforms.canonicalize import CanonicalizePass
from repro.transforms.compile_cache import CompileCache
from repro.transforms.cse import CSEPass
from repro.transforms.pass_manager import CompileReport, PassManager
from repro.transforms.pipelines import build_named_pipeline, parse_pass_pipeline

from .generate import GeneratorConfig, count_ops, generate_module

#: Default size ladder; ``--smoke`` keeps only the first entry.
DEFAULT_SIZES = (500, 2000, 5000)

#: The per-function pipeline used by the concurrency scenarios.
CONCURRENCY_PIPELINE = "builtin.module(func.func(canonicalize,cse,dce))"


def _time(callable_: Callable[[], object], repeats: int,
          setup: Optional[Callable[[], object]] = None) -> float:
    """Best-of-``repeats`` wall time in seconds.

    ``setup`` runs outside the timed region before every repeat and its
    return value is passed to ``callable_`` — pass timings must not charge
    for regenerating the input module.
    """
    best = float("inf")
    for _ in range(repeats):
        argument = setup() if setup is not None else None
        start = time.perf_counter()
        if setup is not None:
            callable_(argument)
        else:
            callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _time_passes(config: GeneratorConfig, passes,
                 repeats: int) -> float:
    return _time(lambda module: PassManager(list(passes)).run(module),
                 repeats, setup=lambda: generate_module(config))


def _run_passes(config: GeneratorConfig, passes) -> CompileReport:
    module = generate_module(config)
    return PassManager(list(passes)).run(module)


def bench_config(config: GeneratorConfig, repeats: int = 3,
                 check: bool = False) -> Dict:
    """Benchmark one generator configuration; returns a JSON-able record."""
    module = generate_module(config)
    if check:
        verify(module)
    num_ops = count_ops(module)
    text = Printer().print_module(module)

    timings: Dict[str, float] = {}
    timings["print"] = _time(lambda: Printer().print_module(module), repeats)
    timings["parse"] = _time(lambda: parse_module(text), repeats)
    timings["canonicalize"] = _time_passes(
        config, [CanonicalizePass()], repeats)
    timings["cse"] = _time_passes(config, [CSEPass()], repeats)
    timings["canonicalize+cse"] = _time_passes(
        config, [CanonicalizePass(), CSEPass()], repeats)
    timings["pipeline:adaptivecpp-aot"] = _time(
        lambda module: build_named_pipeline("adaptivecpp-aot").run(module),
        repeats, setup=lambda: generate_module(config))

    # Per-pass breakdown for the combined run (CompileReport.timings).
    report = _run_passes(config, [CanonicalizePass(), CSEPass()])
    pass_timings = dict(report.timings)
    statistics = {f"{s.pass_name}.{s.name}": s.value
                  for s in report.statistics}

    record: Dict = {
        "config": config.describe(),
        "num_ops": num_ops,
        "ir_bytes": len(text),
        "timings_s": timings,
        "pass_timings_s": pass_timings,
        "statistics": statistics,
    }
    return record


def bench_cache(config: GeneratorConfig, repeats: int = 3) -> Dict:
    """Cache scenario: cold compile (miss + store) vs warm compile (hit).

    Every repeat regenerates the input module, so the warm timing is a
    true fingerprint-keyed lookup + splice on fresh, structurally
    identical IR — the batch-driver situation ``repro-opt
    --split-input-file`` hits.
    """
    def manager_with(cache: CompileCache) -> PassManager:
        manager = parse_pass_pipeline(CONCURRENCY_PIPELINE)
        manager.cache = cache
        return manager

    def cold_setup():
        # Fresh cache per repeat: always a miss.
        return (manager_with(CompileCache()), generate_module(config))

    cold = _time(lambda pair: pair[0].run(pair[1]), repeats,
                 setup=cold_setup)

    warm_cache = CompileCache()
    primer = manager_with(warm_cache)
    primer.run(generate_module(config))
    warm_manager = manager_with(warm_cache)
    warm = _time(lambda m: warm_manager.run(m), repeats,
                 setup=lambda: generate_module(config))
    return {
        "config": config.describe(),
        "pipeline": CONCURRENCY_PIPELINE,
        "cold_s": cold,
        "warm_s": warm,
        "speedup": (cold / warm) if warm > 0 else 0.0,
        "cache": warm_cache.describe(),
    }


def bench_static(repeats: int = 3, num_ops: int = 8000,
                 num_kernels: int = 32, seed: int = 0) -> Dict:
    """The BENCH_6 scenario family: the full lint-rule sweep over the
    kernel listings plus a synthetic module, cold vs warm.

    Cold runs give every sweep a fresh :class:`AnalysisManager`; the warm
    run reuses one whose entries were primed on the same (unchanged)
    modules, so the delta is exactly the analysis-manager hit path the
    pass managers and ``repro-lint`` depend on.
    """
    from repro.analysis import AnalysisManager, run_lint

    from .kernels import build_gemm_module, build_vecadd_module

    modules = [build_vecadd_module(256)[0], build_gemm_module(8, 4)[0]]
    config = GeneratorConfig(num_ops=num_ops, num_kernels=num_kernels,
                             nesting_depth=1, seed=seed)
    modules.append(generate_module(config))

    def sweep(manager: "AnalysisManager") -> int:
        return sum(len(run_lint(module, am=manager)) for module in modules)

    records: List[Dict] = []
    records.append({
        "name": "lint/listing-sweep",
        "seconds": _time(lambda manager: sweep(manager), repeats,
                         setup=AnalysisManager),
    })

    warm_manager = AnalysisManager()
    findings = sweep(warm_manager)  # prime the cache
    records.append({
        "name": "lint/listing-sweep-warm",
        "seconds": _time(lambda: sweep(warm_manager), repeats),
    })

    cold, warm = (record["seconds"] for record in records)
    return {
        "modules": len(modules),
        "findings": findings,
        "records": records,
        "warm_speedup": (cold / warm) if warm > 0 else 0.0,
        "analysis_manager": warm_manager.describe(),
    }


def bench_process(repeats: int = 3, jobs: int = 4,
                  num_segments: int = 6, segment_ops: int = 1500,
                  seed: int = 0) -> Dict:
    """The BENCH_7 scenario family: supervised process batches.

    * ``process/batch-serial`` vs ``process/batch-jobs{N}`` — whole
      segments compiled in workers, the parent only stitching printed
      text (the ``repro-opt --split-input-file --jobs N`` path);
    * ``process/batch-faulty`` — the same batch with one injected
      transient worker fault, pricing a supervised recovery.

    ``cpu_count`` is recorded alongside: on a single-CPU host the
    process tier cannot beat serial (transport is pure overhead), and
    the honest sub-1x numbers only mean something next to the core
    count they were measured on.
    """
    import os

    from repro.faults import fault_plan
    from repro.transforms.executor import (
        ExecutorOptions,
        SupervisedExecutor,
        WorkUnit,
    )

    records: List[Dict] = []
    # One printed module per segment; the serial reference is the same
    # parse/run/print loop in-process.
    segment_texts = [
        Printer().print_module(generate_module(GeneratorConfig(
            num_ops=segment_ops, num_kernels=4, nesting_depth=1,
            seed=seed + index))) + "\n"
        for index in range(num_segments)
    ]

    def compile_batch_serial() -> None:
        manager = parse_pass_pipeline(CONCURRENCY_PIPELINE)
        for text in segment_texts:
            module = parse_module(text)
            manager.run(module)
            Printer().print_module(module)

    batch_serial = _time(compile_batch_serial, repeats)
    records.append({"name": "process/batch-serial",
                    "seconds": batch_serial})

    def compile_batch_process() -> None:
        executor = SupervisedExecutor(ExecutorOptions(jobs=jobs))
        try:
            units = [WorkUnit(uid=index, label=f"segment{index}",
                              text=text, spec=CONCURRENCY_PIPELINE)
                     for index, text in enumerate(segment_texts)]
            executor.run_units(
                units,
                lambda unit, attempts, events: (_ for _ in ()).throw(
                    RuntimeError("benchmark unit degraded")))
        finally:
            executor.close()

    batch_process = _time(compile_batch_process, repeats)
    records.append({"name": f"process/batch-jobs{jobs}",
                    "seconds": batch_process})

    with fault_plan("executor.worker@segment0=transient"):
        faulty = _time(compile_batch_process, repeats)
    records.append({"name": "process/batch-faulty", "seconds": faulty})

    return {
        "pipeline": CONCURRENCY_PIPELINE,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "num_segments": num_segments,
        "records": records,
        "speedup_vs_serial": {
            f"batch-jobs{jobs}": (batch_serial / batch_process)
            if batch_process > 0 else 0.0,
        },
    }


def run_concurrency_suite(repeats: int = 3, num_functions: int = 64,
                          num_ops: int = 4000, seed: int = 0) -> Dict:
    """The BENCH_4 scenario family: compile-cache hits."""
    config = GeneratorConfig(num_ops=num_ops, num_kernels=num_functions,
                             nesting_depth=1, seed=seed)
    return {"cache": bench_cache(config, repeats=repeats)}


def run_suite(sizes=DEFAULT_SIZES, repeats: int = 3, check: bool = False,
              nesting_depth: int = 2, duplicate_density: float = 0.25,
              num_kernels: int = 2, seed: int = 0,
              concurrency: bool = False,
              concurrency_functions: int = 64,
              concurrency_ops: int = 4000,
              interp: bool = False, interp_smoke: bool = False,
              jit: bool = False, lower: bool = False,
              static: bool = False, process: bool = False,
              process_jobs: int = 4, process_segments: int = 6,
              process_segment_ops: int = 1500,
              serve: bool = False, serve_ops: int = 2000,
              serve_clients: int = 4,
              serve_requests_per_client: int = 3) -> Dict:
    records: List[Dict] = []
    for size in sizes:
        config = GeneratorConfig(
            num_ops=size, nesting_depth=nesting_depth,
            duplicate_density=duplicate_density,
            num_kernels=num_kernels, seed=seed)
        records.append(bench_config(config, repeats=repeats, check=check))
    results = {
        "schema": "repro-bench/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "records": records,
    }
    if concurrency:
        results["concurrency"] = run_concurrency_suite(
            repeats=repeats, num_functions=concurrency_functions,
            num_ops=concurrency_ops, seed=seed)
    if interp:
        from .interp_bench import run_interp_suite

        results["interp"] = run_interp_suite(repeats=repeats,
                                             smoke=interp_smoke)
    if jit:
        from .jit_bench import run_jit_suite

        results["jit"] = run_jit_suite(repeats=repeats,
                                       smoke=interp_smoke)
    if lower:
        from .lower_bench import run_lower_suite

        results["lower"] = run_lower_suite(repeats=repeats,
                                           smoke=interp_smoke)
    if static:
        results["static"] = bench_static(repeats=repeats, seed=seed)
    if process:
        results["process"] = bench_process(
            repeats=repeats, jobs=process_jobs,
            num_segments=process_segments,
            segment_ops=process_segment_ops, seed=seed)
    if serve:
        from .serve_bench import bench_serve

        results["serve"] = bench_serve(
            repeats=repeats, num_ops=serve_ops, clients=serve_clients,
            requests_per_client=serve_requests_per_client, seed=seed)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.runner",
        description="Time parse/print/canonicalize/CSE/pipeline phases.")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write JSON results to FILE (default: stdout)")
    parser.add_argument("--sizes", default=None,
                        help="comma-separated op counts "
                             f"(default: {','.join(map(str, DEFAULT_SIZES))})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes + 1 repeat + verification, for CI")
    parser.add_argument("--concurrency", action="store_true",
                        help="also run the compile-cache hit scenario "
                             "family (the BENCH_4 scenarios)")
    parser.add_argument("--interp", action="store_true",
                        help="also run the interpreter execution and "
                             "differential scenario family (the BENCH_5 "
                             "scenarios)")
    parser.add_argument("--jit", action="store_true",
                        help="also run the tiered-execution scenario "
                             "family: jit and vector tiers on the "
                             "BENCH_5 kernels (the BENCH_9 scenarios)")
    parser.add_argument("--lower", action="store_true",
                        help="also run the lowering scenario family: "
                             "the lower-to-llvm pipeline, lowered-CFG "
                             "execution and the --emit=mlir exporter "
                             "(the BENCH_10 scenarios)")
    parser.add_argument("--static", action="store_true",
                        help="also run the lint-sweep / analysis-manager "
                             "warm-vs-cold scenario family (the BENCH_6 "
                             "scenarios)")
    parser.add_argument("--process", action="store_true",
                        help="also run the supervised process-batch "
                             "scenario family (the BENCH_7 scenarios)")
    parser.add_argument("--serve", action="store_true",
                        help="also run the compile-service / disk-cache "
                             "scenario family (the BENCH_8 scenarios)")
    parser.add_argument("--functions", type=int, default=64,
                        help="function count for the cache scenarios "
                             "(default 64)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="embed FILE's results under 'baseline' "
                             "(a previous BENCH_*.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        sizes: List[int] = [200]
        repeats = 1
        check = True
        concurrency_functions = min(args.functions, 8)
        concurrency_ops = 600
        process_segments = 2
        process_segment_ops = 300
        serve_ops = 400
        serve_requests = 2
    else:
        sizes = ([int(s) for s in args.sizes.split(",")]
                 if args.sizes else list(DEFAULT_SIZES))
        repeats = args.repeats
        check = False
        concurrency_functions = args.functions
        concurrency_ops = 4000
        process_segments = 6
        process_segment_ops = 1500
        serve_ops = 2000
        serve_requests = 3

    results = run_suite(sizes=sizes, repeats=repeats, check=check,
                        concurrency=args.concurrency,
                        concurrency_functions=concurrency_functions,
                        concurrency_ops=concurrency_ops,
                        interp=args.interp, interp_smoke=args.smoke,
                        jit=args.jit, lower=args.lower,
                        static=args.static, process=args.process,
                        process_segments=process_segments,
                        process_segment_ops=process_segment_ops,
                        serve=args.serve, serve_ops=serve_ops,
                        serve_requests_per_client=serve_requests)
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            results["baseline"] = json.load(handle)

    payload = json.dumps(results, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        summary = []
        for record in results["records"]:
            summary.append(
                f"{record['num_ops']} ops: canonicalize+cse "
                f"{record['timings_s']['canonicalize+cse']:.4f}s")
        if "concurrency" in results:
            cached = results["concurrency"]["cache"]
            summary.append(
                f"cache: cold {cached['cold_s']:.4f}s, "
                f"warm {cached['warm_s']:.4f}s "
                f"({cached['speedup']:.1f}x on hit)")
        if "interp" in results:
            from .interp_bench import summarize

            line = summarize(results)
            if line:
                summary.append(line)
        if "jit" in results:
            from .jit_bench import summarize as summarize_jit

            line = summarize_jit(results)
            if line:
                summary.append(line)
        if "lower" in results:
            from .lower_bench import summarize as summarize_lower

            line = summarize_lower(results)
            if line:
                summary.append(line)
        if "process" in results:
            process = results["process"]
            timings = {record["name"]: record["seconds"]
                       for record in process["records"]}
            speedups = process["speedup_vs_serial"]
            jobs = process["jobs"]
            summary.append(
                f"process batch (jobs={jobs}, "
                f"{process['cpu_count']} cpu): "
                f"serial {timings['process/batch-serial']:.4f}s, "
                f"jobs {timings[f'process/batch-jobs{jobs}']:.4f}s "
                f"({speedups[f'batch-jobs{jobs}']:.2f}x), "
                f"faulty {timings['process/batch-faulty']:.4f}s")
        if "serve" in results:
            serve = results["serve"]
            timings = {record["name"]: record["seconds"]
                       for record in serve["records"]}
            summary.append(
                f"serve: disk cold {timings['disk/cold-fresh-process']:.4f}s, "
                f"warm {timings['disk/warm-fresh-process']:.4f}s "
                f"({serve['disk_warm_speedup']:.2f}x); "
                f"one-shot {timings['serve/one-shot-process']:.4f}s, "
                f"daemon {timings['serve/round-trip']:.4f}s "
                f"({serve['daemon_speedup_vs_one_shot']:.1f}x); "
                f"{serve['concurrent_requests_per_second']:.1f} req/s "
                f"at {serve['clients']} clients")
        if "static" in results:
            static = results["static"]
            timings = {record["name"]: record["seconds"]
                       for record in static["records"]}
            summary.append(
                f"lint sweep ({static['modules']} modules): "
                f"cold {timings['lint/listing-sweep']:.4f}s, "
                f"warm {timings['lint/listing-sweep-warm']:.4f}s "
                f"({static['warm_speedup']:.1f}x on analysis hits)")
        print("\n".join(summary), file=sys.stderr)
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
