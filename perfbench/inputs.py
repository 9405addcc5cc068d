"""Seeded inputs for every workload, and the oracles that judge outputs.

Everything a workload sends is built here from ``--seed`` alone: the
same seed gives byte-identical request streams.  The seed chooses module
contents and request order; the *shape* of each mix (size bins, class
proportions, which pool entry is most popular) is fixed, so runs with
different seeds do comparable work and their timings can be compared.

Module generators are reused from ``benchmarks/`` (``generate.py`` for
synthetic compile inputs, ``kernels.py`` for vecadd/GEMM kernels).  The
combined host+device modules are new: an ``llvm.func`` host calling the
Itanium-mangled DPC++ runtime entry points, with the kernel in a nested
``kernels`` module.

The oracles do not use the compiler under test.  Kernel inputs are
recomputed from the documented synthesis rule (``_fill`` below mirrors
``repro.interp.differential._fill_array``: the element at flat index
``i`` of argument ``arg`` of function ``fn`` is
``((crc32("fn:arg") + 29 i) % 23 - 11) * 0.375``) and the reference
result comes from NumPy.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from benchmarks.generate import GeneratorConfig, count_ops, generate_module
from benchmarks.kernels import build_gemm_module, build_vecadd_module
from repro.dialects import builtin
from repro.dialects.llvm import (
    LLVMAllocaOp,
    LLVMCallOp,
    LLVMConstantOp,
    LLVMFuncOp,
    LLVMReturnOp,
)
from repro.ir import Printer, i64
from repro.transforms.pipelines import build_named_pipeline, dump_pass_pipeline

#: The daemon accepts pipeline specs, not names, so requests carry the
#: canonical spec of the named pipelines.
SYCL_MLIR = dump_pass_pipeline(build_named_pipeline("sycl-mlir"))
LOWER_TO_LLVM = dump_pass_pipeline(build_named_pipeline("lower-to-llvm"))


def _inner(spec: str) -> str:
    return spec[len("builtin.module("):-1]


#: ``sycl-mlir`` followed by ``lower-to-llvm`` in one spec.
SYCL_MLIR_THEN_LOWER = (
    f"builtin.module({_inner(SYCL_MLIR)},{_inner(LOWER_TO_LLVM)})")

# -- DPC++ runtime entry points (Itanium mangling, as DPC++ emits them) ------
_RANGE_CTOR = {
    1: "_ZN4sycl3_V15rangeILi1EEC2ImEET_",
    2: "_ZN4sycl3_V15rangeILi2EEC2ImEET_S4_",
}
_ND_RANGE_CTOR = "_ZN4sycl3_V18nd_rangeILi2EEC2ENS0_5rangeILi2EEES3_"
_BUFFER_CTOR = (
    "_ZN4sycl3_V16bufferIfLi{d}ENS0_6detail17aligned_allocatorIfEEvEC2ERKNS0"
    "_5rangeILi{d}EEERKNS0_13property_listE")
_ACCESSOR_CTOR = (
    "_ZN4sycl3_V18accessorIfLi{d}ELNS0_6access4modeE1024ELNS2_6targetE2014"
    "ELNS2_11placeholderE0ENS0_3ext6oneapi22accessor_property_listIJEEEEC2"
    "IfLi{d}ENS0_6detail17aligned_allocatorIfEEvEERNS0_6bufferIT_XT0_ET1_vEE"
    "RNS0_7handlerE")
_PARALLEL_FOR = {
    "range": "_ZN4sycl3_V17handler12parallel_forI{k}EEvNS0_5rangeILi{d}EEE",
    "nd_range":
        "_ZN4sycl3_V17handler12parallel_forI{k}EEvNS0_8nd_rangeILi{d}EEE",
}


def _mangled_name(name: str) -> str:
    return f"{len(name)}{name}"


def host_device_module(kernel_module, kernel: str, buffers: List[str],
                       global_size: Tuple[int, ...],
                       local_size: Optional[Tuple[int, ...]] = None):
    """A combined module: an ``llvm.func @main`` host that builds ranges,
    buffers and accessors through DPC++ constructors and launches
    ``kernel`` with ``handler::parallel_for``; the device code sits in
    the nested ``kernels`` module (``kernel_module``)."""
    dims = len(global_size)
    top = builtin.ModuleOp.build()
    host = LLVMFuncOp.build("main", [])
    top.append(host)
    body = host.body
    one = body.append(LLVMConstantOp.build(1, i64())).result

    def obj(name):
        return body.append(LLVMAllocaOp.build(one, name)).result

    def const(value):
        return body.append(LLVMConstantOp.build(value, i64())).result

    def range_obj(name, extents):
        value = obj(name)
        body.append(LLVMCallOp.build(
            _RANGE_CTOR[dims], [value] + [const(e) for e in extents]))
        return value

    global_range = range_obj("global_range", global_size)
    launch_range = global_range
    if local_size is not None:
        local_range = range_obj("local_range", local_size)
        launch_range = obj("nd_range")
        body.append(LLVMCallOp.build(
            _ND_RANGE_CTOR, [launch_range, global_range, local_range]))
    handler = obj("handler")
    accessors = []
    for name in buffers:
        buffer = obj(f"buf{name}")
        body.append(LLVMCallOp.build(_BUFFER_CTOR.format(d=dims),
                                     [buffer, global_range]))
        accessor = obj(f"acc{name}")
        body.append(LLVMCallOp.build(_ACCESSOR_CTOR.format(d=dims),
                                     [accessor, buffer, handler]))
        accessors.append(accessor)
    form = "nd_range" if local_size is not None else "range"
    body.append(LLVMCallOp.build(
        _PARALLEL_FOR[form].format(k=_mangled_name(kernel), d=dims),
        [handler, launch_range] + accessors))
    body.append(LLVMReturnOp.build())
    top.append(kernel_module)
    return top


# -- oracles ----------------------------------------------------------------
def _fill(function: str, argument: str, count: int) -> np.ndarray:
    seed = zlib.crc32(f"{function}:{argument}".encode("utf-8"))
    index = np.arange(count, dtype=np.int64)
    return (((seed + index * 29) % 23) - 11) * 0.375


def reference(kind: str, size: int) -> Tuple[str, np.ndarray]:
    """``(buffer name, expected contents)`` of one kernel execution."""
    if kind == "vecadd":
        return "c", _fill("vecadd", "a", size) + _fill("vecadd", "b", size)
    count = size * size
    a = _fill("gemm", "A", count).reshape(size, size)
    b = _fill("gemm", "B", count).reshape(size, size)
    c0 = _fill("gemm", "C", count).reshape(size, size)
    return "C", (c0 + a @ b).reshape(-1)


def matches(expected: np.ndarray, values) -> bool:
    got = np.asarray(values, dtype=np.float64)
    return got.shape == expected.shape and bool(
        np.allclose(got, expected, rtol=1e-4, atol=1e-6))


# -- requests ---------------------------------------------------------------
@dataclass
class Request:
    """One request of a workload's stream."""

    #: Class label: ``compile`` or an execution class (``vecadd``,
    #: ``gemm-host``, ``gemm-internalized``, ``lowered``), or for
    #: oneshot-cli the tool (``repro-opt``/``repro-run``).
    klass: str
    #: Protocol fields (method plus payload) sent to the daemon.
    fields: Dict[str, object]
    #: Operation count of the input module.
    ops: int
    #: Identity of the input: requests with one key send the same bytes.
    key: str
    #: ``(kind, size)`` for the NumPy oracle of an execution.
    oracle: Optional[Tuple[str, int]] = None


def _compile_request(config: GeneratorConfig, key: str) -> Request:
    module = generate_module(config)
    return Request("compile", {"method": "compile",
                               "ir": Printer().print_module(module),
                               "passes": SYCL_MLIR},
                   ops=count_ops(module), key=key)


def _renamed(request: Request, tag: str, key: str) -> Request:
    """``request`` with every function symbol prefixed by ``tag``.  The
    generated modules reference no symbols, so this is a new, valid input
    whose fingerprint differs from every other while its compile work
    (parse, verify, passes, print) is that of the original."""
    text = request.fields["ir"].replace('sym_name = "', f'sym_name = "{tag}_')
    return Request(request.klass, {**request.fields, "ir": text},
                   ops=request.ops, key=key)


#: compile-unique's op range; sizes are log-uniform over it.
UNIQUE_OPS = (250, 3000)
#: Size strata per block: each block of eight modules has one from every
#: stratum, so every stretch of the stream covers the whole size range.
#: Kernel counts 1-8 and nesting depths 1-2 (four each) are spread over
#: a block the same way, each list shuffled independently by the seed.
UNIQUE_STRATA = 8
#: Blocks of base modules generated before the window.  The stream
#: cycles through the bases and renames every function on each pass
#: (``_renamed``), so no input repeats and nothing is generated while
#: the window runs, however fast the compiler gets.
UNIQUE_BLOCKS = 6


def compile_unique(seed: int) -> Iterator[Request]:
    """Endless stream of distinct modules (no input repeats)."""
    rng = random.Random(f"compile-unique:{seed}")
    low, high = UNIQUE_OPS
    bases = []
    for _ in range(UNIQUE_BLOCKS):
        strata = list(range(UNIQUE_STRATA))
        kernels = list(range(1, UNIQUE_STRATA + 1))
        depths = [1, 2] * (UNIQUE_STRATA // 2)
        for values in (strata, kernels, depths):
            rng.shuffle(values)
        for stratum, num_kernels, depth in zip(strata, kernels, depths):
            share = (stratum + rng.random()) / UNIQUE_STRATA
            config = GeneratorConfig(
                num_ops=int(low * (high / low) ** share),
                num_kernels=num_kernels, nesting_depth=depth,
                seed=rng.getrandbits(32))
            bases.append(_compile_request(config, key=f"base-{len(bases)}"))

    def stream() -> Iterator[Request]:
        for lap in itertools.count():
            for base in bases:
                yield _renamed(base, f"lap{lap}",
                               key=f"unique-{seed}-{lap}-{base.key}")

    return stream()


def compile_unique_warm_up(seed: int) -> List[Request]:
    """Two mid-sized modules, distinct from every streamed one."""
    rng = random.Random(f"compile-unique-warm-up:{seed}")
    return [_compile_request(
        GeneratorConfig(num_ops=800, num_kernels=2, nesting_depth=1,
                        seed=rng.getrandbits(32)),
        key=f"warm-up-{index}") for index in range(2)]


#: compile-repeat's hot pool, in popularity order (rank 1 first).  The
#: ranks are fixed so every seed spends the same share on each size.
REPEAT_POOL_OPS = [900, 600, 1200, 450, 1500, 750, 300, 1050]
#: Zipf exponent of the pool draw.
REPEAT_ZIPF = 1.1
#: One request in this many is an edited file: a pool module changed in
#: a way never sent before.
REPEAT_EDIT_EVERY = 8


def _zipf_quota(block: int) -> List[int]:
    weights = [1.0 / (rank ** REPEAT_ZIPF)
               for rank in range(1, len(REPEAT_POOL_OPS) + 1)]
    total = sum(weights)
    quota = [max(1, round(block * w / total)) for w in weights]
    quota[0] += block - sum(quota)
    return quota


def compile_repeat(seed: int) -> Tuple[List[Request], Iterator[Request]]:
    """``(pool, stream)``: the warm-up pool and the request stream drawing
    from it with Zipf weights; every eighth request is an edited file
    (the next pool module in turn with its functions renamed, so it
    misses the cache)."""
    rng = random.Random(f"compile-repeat:{seed}")
    pool = [_compile_request(GeneratorConfig(
        num_ops=ops, num_kernels=1 + index % 4, nesting_depth=1 + index % 2,
        seed=rng.getrandbits(32)), f"pool-{index}")
        for index, ops in enumerate(REPEAT_POOL_OPS)]

    def stream() -> Iterator[Request]:
        edits = 0
        block = (REPEAT_EDIT_EVERY - 1) * 10  # pool draws per 80 requests
        while True:
            draws = [index for index, count in enumerate(_zipf_quota(block))
                     for _ in range(count)]
            rng.shuffle(draws)
            for position, index in enumerate(draws):
                yield pool[index]
                if position % (REPEAT_EDIT_EVERY - 1) == REPEAT_EDIT_EVERY - 2:
                    yield _renamed(pool[edits % len(pool)], f"edit{edits}",
                                   key=f"edit-{edits}")
                    edits += 1

    return pool, stream()


def _execute_request(klass: str, module, entry: str, passes: str,
                     global_size, local_size, buffers, oracle) -> Request:
    fields = {"method": "execute", "ir": Printer().print_module(module),
              "entry": entry, "tier": "auto", "passes": passes,
              "global_size": list(global_size),
              "buffers": {name: list(global_size) for name in buffers}}
    if local_size:
        fields["local_size"] = list(local_size)
    key = f"{klass}-{entry}-{'x'.join(map(str, global_size))}"
    return Request(klass, fields, ops=count_ops(module), key=key,
                   oracle=oracle)


def _host_gemm(size: int, group: int):
    """GEMM launched from host code over an ``nd_range`` of ``size`` x
    ``size`` items in ``group`` x ``group`` work-groups."""
    kernels, _ = build_gemm_module(size, group)
    # The host launch supplies the work-group size; the kernel must not
    # carry it already or host-device propagation has no work.
    del kernels.lookup_symbol("gemm").attributes["sycl.work_group_size"]
    return host_device_module(kernels, "gemm", ["A", "B", "C"],
                              (size, size), (group, group))


def kernel_pool() -> List[Request]:
    """kernel-exec's modules; a cycle sends each once."""
    pool = []
    for size in (4096, 65536):
        kernels, _, _ = build_vecadd_module(size)
        module = host_device_module(kernels, "vecadd", ["a", "b", "c"],
                                    (size,))
        pool.append(_execute_request(
            "vecadd", module, "vecadd", SYCL_MLIR, (size,), None, "abc",
            ("vecadd", size)))
    for size, group in ((16, 4), (32, 8)):
        pool.append(_execute_request(
            "gemm-host", _host_gemm(size, group), "gemm", SYCL_MLIR,
            (size, size), (group, group), "ABC", ("gemm", size)))
    for size, group in ((16, 4), (32, 8)):
        module, _ = build_gemm_module(size, group)
        pool.append(_execute_request(
            "gemm-internalized", module, "gemm", SYCL_MLIR, (size, size),
            (group, group), "ABC", ("gemm", size)))
    module, _, _ = build_vecadd_module(2048)
    pool.append(_execute_request(
        "lowered", module, "vecadd", SYCL_MLIR_THEN_LOWER, (2048,), None,
        "abc", ("vecadd", 2048)))
    module, _ = build_gemm_module(12, 4)
    pool.append(_execute_request(
        "lowered", module, "gemm", SYCL_MLIR_THEN_LOWER, (12, 12), (4, 4),
        "ABC", ("gemm", 12)))
    return pool


def kernel_exec(seed: int) -> Tuple[List[Request], Iterator[Request]]:
    """``(pool, stream)``: every cycle sends each pool module once, in a
    seeded order."""
    rng = random.Random(f"kernel-exec:{seed}")
    pool = kernel_pool()

    def stream() -> Iterator[Request]:
        while True:
            order = list(pool)
            rng.shuffle(order)
            yield from order

    return pool, stream()


#: oneshot-cli: ops of the ``repro-opt`` inputs, and the GEMM size and
#: work-group size run by ``repro-run``.  ``repro-run --print-buffers``
#: prints at most 32 values per buffer; a 4x4 GEMM's 16 fit, so the
#: oracle sees the whole result.
ONESHOT_OPT_OPS = 800
ONESHOT_GEMM = (4, 2)


def oneshot(seed: int) -> Tuple[List[Request], Iterator[Request]]:
    """``(pool, stream)`` for fresh-process runs: two ``repro-opt``
    inputs and one host+device GEMM for ``repro-run``, cycled in a
    seeded order."""
    rng = random.Random(f"oneshot-cli:{seed}")
    pool = []
    for index in range(2):
        config = GeneratorConfig(num_ops=ONESHOT_OPT_OPS,
                                 num_kernels=2 + index,
                                 nesting_depth=1 + index,
                                 seed=rng.getrandbits(32))
        request = _compile_request(config, key=f"opt-{index}")
        request.klass = "repro-opt"
        pool.append(request)
    size, group = ONESHOT_GEMM
    pool.append(_execute_request(
        "repro-run", _host_gemm(size, group), "gemm", SYCL_MLIR,
        (size, size), (group, group), "ABC", ("gemm", size)))

    def stream() -> Iterator[Request]:
        while True:
            order = list(pool)
            rng.shuffle(order)
            yield from order

    return pool, stream()
