"""Benchmark harness for the reproduction's compiler infrastructure.

``benchmarks.generate`` builds synthetic-but-valid IR modules with tunable
op count, loop nesting depth, CSE-duplicate density and SYCL-style kernel
shapes; ``benchmarks.runner`` times parse / print / canonicalize / CSE /
full-pipeline runs over them and emits a ``BENCH_<n>.json`` trajectory
file.

Run it with::

    PYTHONPATH=src:. python -m benchmarks.runner --out BENCH_2.json
    PYTHONPATH=src:. python -m benchmarks.runner --smoke   # CI-sized
"""

from .generate import GeneratorConfig, generate_module

__all__ = ["GeneratorConfig", "generate_module"]
