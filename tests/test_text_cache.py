"""Compile-cache entries hold printed text, not IR object trees.

The contract under test (``docs/concurrency.md``): an entry is the
optimized module printed with ``loc(...)`` trailers; a hit parses it
into a private module and prints byte-identically to the cold compile;
an entry whose text does not materialize is evicted (and, when it came
from disk, recovered there too) and the compile runs cold.  Host+device
modules whose kernels carry DPC++-mangled names round-trip through both
tiers, so a fresh daemon on a primed store serves them warm.
"""

import dataclasses

import pytest

from repro.ir import Operation, Printer, parse_module, verify
from repro.serve.server import CompileService
from repro.transforms import (
    CachedCompile,
    CompileCache,
    DiskCache,
    build_named_pipeline,
)
from repro.transforms.pipelines import shipped_pipeline_names

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

LISTINGS = {
    "listing1": build_listing1_function,
    "listing2": build_listing2_function,
    "listing3": build_listing3_function,
}


def _host_device_vecadd():
    from benchmarks.kernels import build_vecadd_module
    from perfbench.inputs import host_device_module

    kernels, _, _ = build_vecadd_module(64)
    return host_device_module(kernels, "vecadd", ["a", "b", "c"], (64,))


def _run(build, pipeline, cache):
    """Compile a fresh ``build()`` module; ``(plain text, located text,
    report)``."""
    module = build()
    manager = build_named_pipeline(pipeline)
    manager.cache = cache
    report = manager.run(module)
    return (Printer().print_module(module),
            Printer(print_locations=True).print_module(module), report)


def _only_entry(cache):
    assert len(cache) == 1
    return next(iter(cache._entries.values()))


class TestMemoryHitIsByteIdentical:
    @pytest.mark.parametrize("pipeline", shipped_pipeline_names())
    @pytest.mark.parametrize("name", sorted(LISTINGS))
    def test_listing(self, name, pipeline):
        def build():
            return wrap_in_module(LISTINGS[name]()[0])

        cache = CompileCache()
        cold = _run(build, pipeline, cache)
        warm = _run(build, pipeline, cache)
        assert warm[2].get_statistic("compile-cache", "hits") == 1
        assert warm[:2] == cold[:2]

    def test_mangled_host_device_module(self):
        cache = CompileCache()
        cold = _run(_host_device_vecadd, "sycl-mlir", cache)
        # Host raising reads the kernel name behind its length prefix.
        assert "kernel = @kernels::@vecadd," in cold[0]
        warm = _run(_host_device_vecadd, "sycl-mlir", cache)
        assert warm[2].get_statistic("compile-cache", "hits") == 1
        assert warm[2].get_statistic("compile-cache", "recovered") == 0
        assert warm[:2] == cold[:2]


    def test_unregistered_ops_hit(self):
        text = (
            '"builtin.module"() : () -> () ({\n'
            '  "func.func"() {function_type = () -> (), sym_name = "f"}'
            ' : () -> () ({\n'
            '    %0 = "test.thing"() : () -> (i32)\n'
            '    "func.return"() : () -> ()\n'
            '  })\n'
            '})')

        def build():
            return parse_module(text, allow_unregistered=True)

        cache = CompileCache()
        cold = _run(build, "sycl-mlir", cache)
        warm = _run(build, "sycl-mlir", cache)
        assert warm[2].get_statistic("compile-cache", "hits") == 1
        assert warm[2].get_statistic("compile-cache", "recovered") == 0
        assert warm[:2] == cold[:2]


class TestEntryShape:
    def test_entry_holds_text_and_no_operation(self):
        cache = CompileCache()
        _, located, _ = _run(lambda: build_gemm_module()[0], "sycl-mlir",
                             cache)
        entry = _only_entry(cache)
        assert isinstance(entry, CachedCompile)
        assert entry.text == located
        for field in dataclasses.fields(entry):
            value = getattr(entry, field.name)
            assert not isinstance(value, Operation), field.name
        materialized = entry.materialize()
        verify(materialized)
        assert Printer(print_locations=True).print_module(materialized) \
            == located
        # Every materialization is a private module.
        assert entry.materialize() is not materialized

    def test_store_writes_the_same_text_through(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=disk)
        _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        key, entry = next(iter(cache._entries.items()))
        assert disk.load(key)["text"] == entry.text

    def test_read_through_promotes_text_without_parsing(self, tmp_path,
                                                        monkeypatch):
        cold = _run(lambda: build_gemm_module()[0], "sycl-mlir",
                    CompileCache(disk=DiskCache(tmp_path)))
        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=disk)
        key = cache.key_for(build_gemm_module()[0],
                            build_named_pipeline("sycl-mlir").to_spec())

        def no_parsing(*args, **kwargs):
            raise AssertionError("read-through parsed the entry")

        with monkeypatch.context() as patch:
            patch.setattr("repro.ir.parser.Parser.__init__", no_parsing)
            entry = cache.lookup(key)
        assert entry is not None and entry.from_disk
        assert entry.text == cold[1]
        assert disk.stats.hits == 1
        assert len(cache) == 1  # promoted


class TestCorruptTextRecovers:
    def test_unparseable_memory_text_recompiles_cold(self):
        cache = CompileCache()
        cold = _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        entry = _only_entry(cache)
        entry.text = entry.text[:len(entry.text) // 2]
        healed = _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        assert healed[:2] == cold[:2]
        assert healed[2].get_statistic("compile-cache", "recovered") == 1
        assert healed[2].get_statistic("compile-cache", "hits") == 0
        assert any("compile-cache: recovered from corrupt entry" in remark
                   for remark in healed[2].remarks)
        # Evicted, then re-stored by the cold run: the next run hits.
        assert cache.stats.evictions == 1
        assert _only_entry(cache).text == cold[1]
        clean = _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        assert clean[2].get_statistic("compile-cache", "hits") == 1
        assert clean[:2] == cold[:2]

    def test_undefined_value_in_memory_text_recompiles_cold(self):
        cache = CompileCache()
        cold = _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        entry = _only_entry(cache)
        entry.text = entry.text.replace("(%", "(%undefined_", 1)
        healed = _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        assert healed[:2] == cold[:2]
        assert healed[2].get_statistic("compile-cache", "recovered") == 1

    def test_unparseable_disk_text_is_recovered_in_both_tiers(self, tmp_path):
        cold = _run(lambda: build_gemm_module()[0], "sycl-mlir",
                    CompileCache(disk=DiskCache(tmp_path)))
        # A disk entry whose text passes its fingerprint but not the
        # parser (a printer/parser drift between versions).
        poison = DiskCache(tmp_path)
        module = build_gemm_module()[0]
        spec = build_named_pipeline("sycl-mlir").to_spec()
        key = CompileCache.key_for(module, spec)
        assert poison.store(key, '"builtin.module"() : () -> () ({')

        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=disk)
        healed = _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        assert healed[:2] == cold[:2]
        assert healed[2].get_statistic("compile-cache", "recovered") == 1
        assert disk.stats.hits == 1
        assert disk.stats.corrupt_recoveries == 1
        assert disk.stats.stores == 1  # the cold run repaired the store
        assert disk.load(key)["text"] == cold[1]

    def test_memory_corruption_leaves_disk_counters_alone(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=disk)
        _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        entry = _only_entry(cache)
        entry.text = "garbage"
        _run(lambda: build_gemm_module()[0], "sycl-mlir", cache)
        assert disk.stats.corrupt_recoveries == 0


class TestPrimedStoreServesKernelExecModules:
    """The kernel-exec modules, host+device ones included, survive a
    daemon restart: every optimized module re-parses, and a fresh
    service on the same store serves all of them from disk."""

    def test_fresh_service_hits_every_module(self, tmp_path):
        from perfbench.inputs import kernel_pool

        requests = [{"method": "compile", "ir": r.fields["ir"],
                     "passes": r.fields["passes"]} for r in kernel_pool()]
        assert len(requests) == 8

        def compile_all(service):
            outputs = []
            for request in requests:
                done = service.handle(request, lambda event: None)
                assert done["ok"], done
                outputs.append(done["text"])
            return outputs

        cold = compile_all(CompileService(cache_dir=str(tmp_path)))
        for text in cold:
            reparsed = parse_module(text)
            verify(reparsed)
            assert Printer().print_module(reparsed) + "\n" == text
        assert sum("kernel = @kernels::@" in text for text in cold) == 4

        fresh = CompileService(cache_dir=str(tmp_path))
        warm = compile_all(fresh)
        assert warm == cold
        disk = fresh.cache.describe()["disk"]
        assert disk["hits"] == 8
        assert disk["corrupt_recoveries"] == 0
