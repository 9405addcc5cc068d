"""The compile cache and ``repro-opt`` batch mode.

The contract under test (see ``docs/concurrency.md``):

* a ``--jobs 4`` process batch prints byte-identical IR to the serial
  batch, with identical statistics totals (and list order) and the same
  position-keyed timing buckets; a single module, and any run the
  workers cannot reproduce hands-off (exported syntax, instrumentation,
  lint), compiles in-process;
* a cache hit splices IR structurally equal to a cold compile and
  replays the cold run's statistics;
* a ``--jobs N`` process batch shares the ``--cache-dir`` disk cache
  with its workers: a repeated run hits, byte-identical to the first
  run and to the serial batch;
* instrumented runs bypass the cache.
"""

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.generate import GeneratorConfig, generate_module  # noqa: E402
from repro.ir import Printer, parse_module, verify  # noqa: E402
from repro.tools import repro_lint, repro_run  # noqa: E402
from repro.tools.repro_opt import main as repro_opt  # noqa: E402
from repro.transforms import (  # noqa: E402
    CompileCache,
    CompileReport,
    parse_pass_pipeline,
)

from .helpers import (  # noqa: E402
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

PIPELINE = "builtin.module(func.func(canonicalize,cse,dce))"


def _listing_module():
    return wrap_in_module(*[build()[0] for build in (
        build_listing1_function,
        build_listing2_function,
        build_listing3_function,
    )])


def _synthetic_module():
    return generate_module(GeneratorConfig(num_ops=600, num_kernels=8,
                                           seed=11))


def _run(module, cache=None):
    manager = parse_pass_pipeline(PIPELINE)
    manager.cache = cache
    return manager.run(module)


def _listing_segments():
    """One batch segment per paper listing."""
    return [wrap_in_module(build()[0]) for build in (
        build_listing1_function,
        build_listing2_function,
        build_listing3_function,
    )]


def _synthetic_segments():
    """Three distinct generated modules (distinct texts: no dedup)."""
    return [generate_module(GeneratorConfig(num_ops=300, num_kernels=4,
                                            seed=seed))
            for seed in (11, 12, 13)]


_STAT_RE = re.compile(r"^  ([^:]+): (\S+) = (\d+)$", re.MULTILINE)
_TIMING_ROW_RE = re.compile(r"^ +[0-9.]+ \( *[0-9.]+%\)  (.+)$",
                            re.MULTILINE)


def _compile_batch(tmp_path, capsys, segments, *extra, name="out.mlir"):
    """Compile ``segments`` as one ``--split-input-file`` batch; returns
    ``(printed output, stderr)``."""
    batch = tmp_path / "batch.mlir"
    batch.write_text("// -----\n".join(
        Printer().print_module(module) + "\n" for module in segments),
        encoding="utf-8")
    out = tmp_path / name
    rc = repro_opt([str(batch), "--split-input-file", "-o", str(out),
                    *extra])
    err = capsys.readouterr().err
    assert rc == 0, err
    return out.read_text(encoding="utf-8"), err


def _pass_statistics(err):
    """``--report`` statistics in report order, minus the batch
    dispatch and cache bookkeeping that only one side records."""
    return [(pass_name, name, int(value))
            for pass_name, name, value in _STAT_RE.findall(err)
            if pass_name not in ("process-tier", "compile-cache")]


class TestParallelDeterminism:
    @pytest.mark.parametrize("build_segments",
                             [_listing_segments, _synthetic_segments])
    def test_jobs4_output_byte_identical_to_serial(self, tmp_path, capsys,
                                                   build_segments):
        serial, _ = _compile_batch(tmp_path, capsys, build_segments(),
                                   "--passes", PIPELINE,
                                   name="serial.mlir")
        parallel, err = _compile_batch(tmp_path, capsys, build_segments(),
                                       "--passes", PIPELINE, "--jobs", "4",
                                       "--report", name="parallel.mlir")
        assert "process-tier: segments = 3" in err
        assert parallel == serial
        for segment in parallel.split("// -----\n"):
            verify(parse_module(segment))

    def test_statistics_totals_and_order_identical(self, tmp_path, capsys):
        _, serial_err = _compile_batch(
            tmp_path, capsys, _synthetic_segments(), "--passes", PIPELINE,
            "--no-cache", "--report", name="serial.mlir")
        _, parallel_err = _compile_batch(
            tmp_path, capsys, _synthetic_segments(), "--passes", PIPELINE,
            "--no-cache", "--report", "--jobs", "4", name="parallel.mlir")
        serial_stats = _pass_statistics(serial_err)
        assert serial_stats
        assert _pass_statistics(parallel_err) == serial_stats

    def test_timing_keys_stable_across_job_counts(self, tmp_path, capsys):
        _, serial_err = _compile_batch(
            tmp_path, capsys, _synthetic_segments(), "--passes", PIPELINE,
            "--timing", name="serial.mlir")
        _, parallel_err = _compile_batch(
            tmp_path, capsys, _synthetic_segments(), "--passes", PIPELINE,
            "--timing", "--jobs", "4", name="parallel.mlir")
        serial_keys = set(_TIMING_ROW_RE.findall(serial_err)) - {"Total"}
        parallel_keys = set(_TIMING_ROW_RE.findall(parallel_err)) - {"Total"}
        assert serial_keys == parallel_keys
        # Position-keyed: one bucket per scheduled slot, "N: name".
        assert parallel_keys and all(": " in key for key in parallel_keys)

    def test_named_pipeline_parallel_matches_serial(self, tmp_path, capsys):
        serial, _ = _compile_batch(tmp_path, capsys, _synthetic_segments(),
                                   "--pipeline", "dpcpp",
                                   name="serial.mlir")
        parallel, err = _compile_batch(tmp_path, capsys,
                                       _synthetic_segments(),
                                       "--pipeline", "dpcpp", "--jobs", "4",
                                       "--report", name="parallel.mlir")
        assert "process-tier: segments = 3" in err
        assert parallel == serial

    def test_single_function_module_stays_serial(self, tmp_path, capsys):
        # One module can only go to one worker, so --jobs never ships it.
        single = [wrap_in_module(build_listing1_function()[0])]
        reference, _ = _compile_batch(tmp_path, capsys, single,
                                      "--passes", PIPELINE,
                                      name="serial.mlir")
        output, err = _compile_batch(
            tmp_path, capsys, [wrap_in_module(build_listing1_function()[0])],
            "--passes", PIPELINE, "--jobs", "4", "--report",
            name="parallel.mlir")
        assert "process-tier" not in err
        assert output == reference


class TestWorkerLocalCloning:
    def test_sycl_mlir_pipeline_with_reduction_listings(self, tmp_path,
                                                        capsys):
        # The paper listing modules exercise the cloning passes
        # (DetectReduction rewrites reduction loops), here inside the
        # worker processes.
        serial, _ = _compile_batch(tmp_path, capsys, _listing_segments(),
                                   "--pipeline", "sycl-mlir",
                                   name="serial.mlir")
        parallel, err = _compile_batch(tmp_path, capsys,
                                       _listing_segments(),
                                       "--pipeline", "sycl-mlir",
                                       "--jobs", "4", "--report",
                                       name="parallel.mlir")
        assert "process-tier: segments = 3" in err
        assert parallel == serial


class TestProcessBatchEligibility:
    """Runs whose output or diagnostics the workers cannot reproduce
    hands-off compile in-process under ``--jobs``, with serial output."""

    @pytest.mark.parametrize("flags", [
        ["--emit=mlir"],
        ["--verify-each"],
        ["--lint"],
        ["--print-ir-after-all"],
    ], ids=lambda flags: flags[0].lstrip("-"))
    def test_falls_back_to_in_process(self, tmp_path, capsys, flags):
        serial, _ = _compile_batch(tmp_path, capsys, _listing_segments(),
                                   "--passes", PIPELINE, *flags,
                                   name="serial.mlir")
        output, err = _compile_batch(tmp_path, capsys, _listing_segments(),
                                     "--passes", PIPELINE, *flags,
                                     "--jobs", "4", "--report",
                                     name="jobs.mlir")
        assert "process-tier" not in err
        assert output == serial


class TestRemovedThreadTierOptions:
    """The thread tier's switches are gone: passing one is a usage
    error, never a silent no-op."""

    @pytest.mark.parametrize("main, argv", [
        (repro_opt, ["--parallel-tier", "thread", "--passes", "cse"]),
        (repro_lint.main, ["--jobs", "2", "in.mlir"]),
        (repro_run.main, ["--jobs", "2", "in.mlir"]),
    ], ids=["repro-opt --parallel-tier", "repro-lint --jobs",
            "repro-run --jobs"])
    def test_option_is_a_usage_error(self, capsys, main, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCompileCache:
    def test_hit_is_structurally_equal_to_cold_compile(self):
        cache = CompileCache()
        cold, warm, reference = (_synthetic_module(), _synthetic_module(),
                                 _synthetic_module())
        _run(reference)
        _run(cold, cache=cache)
        _run(warm, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert Printer().print_module(warm) == \
            Printer().print_module(reference)
        assert Printer().print_module(cold) == \
            Printer().print_module(reference)
        verify(warm)

    def test_hit_replays_cold_statistics(self):
        cache = CompileCache()
        cold_report = _run(_synthetic_module(), cache=cache)
        warm_report = _run(_synthetic_module(), cache=cache)
        cold = {(s.pass_name, s.name): s.value
                for s in cold_report.statistics
                if s.pass_name != "compile-cache"}
        warm = {(s.pass_name, s.name): s.value
                for s in warm_report.statistics
                if s.pass_name != "compile-cache"}
        assert cold == warm
        assert warm_report.get_statistic("compile-cache", "hits") == 1
        assert cold_report.get_statistic("compile-cache", "misses") == 1

    def test_hit_records_its_own_timing_bucket(self):
        cache = CompileCache()
        _run(_synthetic_module(), cache=cache)
        warm_report = _run(_synthetic_module(), cache=cache)
        # Statistics replay the cold compile; the timing table accounts
        # for the warm segment through the dedicated hit bucket.
        assert "compile-cache: hit" in warm_report.timings
        assert warm_report.timings["compile-cache: hit"] > 0.0

    def test_key_distinguishes_pipelines(self):
        cache = CompileCache()
        module_a, module_b = _synthetic_module(), _synthetic_module()
        for module, spec in ((module_a, "builtin.module(func.func(cse))"),
                             (module_b, "builtin.module(func.func(dce))")):
            manager = parse_pass_pipeline(spec)
            manager.cache = cache
            manager.run(module)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_lru_eviction_is_bounded(self):
        cache = CompileCache(max_entries=1)
        manager = parse_pass_pipeline(PIPELINE)
        manager.cache = cache
        manager.run(_synthetic_module())
        manager.run(_listing_module())
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_parallel_and_cached_runs_compose(self, tmp_path, capsys):
        # A --jobs N batch hands --cache-dir to its workers: the second
        # run hits the disk tier, and every run prints the serial bytes.
        batch = tmp_path / "batch.mlir"
        batch.write_text("// -----\n".join(
            Printer().print_module(wrap_in_module(build()[0])) + "\n"
            for build in (build_listing1_function, build_listing2_function,
                          build_listing3_function)), encoding="utf-8")
        cache_dir = tmp_path / "cache"

        def compile_batch(name, *extra):
            out = tmp_path / name
            rc = repro_opt([str(batch), "--split-input-file",
                            "--passes", "canonicalize,cse", "--report",
                            "-o", str(out), *extra])
            assert rc == 0
            return out.read_text(encoding="utf-8"), capsys.readouterr().err

        serial, _ = compile_batch("serial.mlir", "--no-cache")
        cold, cold_err = compile_batch("cold.mlir", "--jobs", "2",
                                       "--cache-dir", str(cache_dir))
        warm, warm_err = compile_batch("warm.mlir", "--jobs", "2",
                                       "--cache-dir", str(cache_dir))
        assert "process-tier: segments = 3" in warm_err
        assert "disk cache: 0 hits, 3 misses" in cold_err
        assert "3 entries" in cold_err
        assert "disk cache: 3 hits, 0 misses" in warm_err
        assert warm == cold == serial


class TestCacheInstrumentationBypass:
    def test_cache_not_consulted_while_instrumented(self):
        from repro.transforms import PassInstrumentation

        cache = CompileCache()
        seen = []

        class Probe(PassInstrumentation):
            def run_before_pass(self, pass_, op):
                seen.append(pass_.NAME)

        for _ in range(2):
            manager = parse_pass_pipeline(PIPELINE)
            manager.cache = cache
            manager.add_instrumentation(Probe())
            manager.run(_listing_module())
        # Both runs executed for real (hooks fired twice per pipeline),
        # and the cache was never consulted.
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        assert len(seen) == 2 * len(parse_pass_pipeline(PIPELINE).passes) * 3

    def test_print_ir_after_all_prints_every_segment(self, tmp_path,
                                                     capsys):
        text = Printer().print_module(
            wrap_in_module(build_listing1_function()[0])) + "\n"
        batch = tmp_path / "batch.mlir"
        batch.write_text(text + "// -----\n" + text, encoding="utf-8")
        rc = repro_opt([str(batch), "--split-input-file",
                        "--passes", "cse", "--print-ir-after-all",
                        "-o", str(tmp_path / "out.mlir")])
        assert rc == 0
        dumps = capsys.readouterr().err.count("IR Dump After")
        assert dumps == 2  # one per segment — the hit path would skip one

    def test_instrumented_batch_reports_no_dead_cache(self, tmp_path,
                                                      capsys):
        # --verify-each disables caching; --report must not print a
        # "0 hits, 0 misses" line implying a cache was active.
        text = Printer().print_module(
            wrap_in_module(build_listing1_function()[0])) + "\n"
        batch = tmp_path / "batch.mlir"
        batch.write_text(text + "// -----\n" + text, encoding="utf-8")
        rc = repro_opt([str(batch), "--split-input-file", "--verify-each",
                        "--passes", "cse", "--report",
                        "-o", str(tmp_path / "out.mlir")])
        assert rc == 0
        assert "compile cache" not in capsys.readouterr().err

    def test_hits_never_rewrite_ssa_names_of_later_segments(self,
                                                            tmp_path):
        # Structurally identical segments spelled with different value
        # names must keep their own names in the output, cache or not.
        first = Printer().print_module(
            wrap_in_module(build_listing1_function()[0])) + "\n"
        second = first.replace("%v1", "%renamed1").replace("%v2",
                                                           "%renamed2")
        assert "%renamed1" in second
        batch = tmp_path / "batch.mlir"
        batch.write_text(first + "// -----\n" + second, encoding="utf-8")
        outputs = {}
        for flag, label in (((), "cached"), (("--no-cache",), "nocache")):
            out = tmp_path / f"{label}.mlir"
            rc = repro_opt([str(batch), "--split-input-file",
                            "--passes", "cse", *flag, "-o", str(out)])
            assert rc == 0
            outputs[label] = out.read_text(encoding="utf-8")
        assert outputs["cached"] == outputs["nocache"]
        cached_segments = outputs["cached"].split("// -----")
        assert "%renamed1" in cached_segments[1]
        assert "%renamed1" not in cached_segments[0]


class TestBatchDriver:
    def test_split_input_file_shares_cache(self, tmp_path, capsys):
        text = Printer().print_module(_listing_module()) + "\n"
        batch = tmp_path / "batch.mlir"
        batch.write_text(text + "// -----\n" + text, encoding="utf-8")
        out = tmp_path / "out.mlir"
        rc = repro_opt([str(batch), "--split-input-file",
                        "--passes", "canonicalize,cse", "-o", str(out),
                        "--report"])
        assert rc == 0
        stderr = capsys.readouterr().err
        assert "compile cache: 1 hits, 1 misses" in stderr
        segments = [segment for segment in
                    out.read_text(encoding="utf-8").split("// -----")
                    if segment.strip()]
        assert len(segments) == 2
        assert segments[0].strip() == segments[1].strip()

    def test_multiple_inputs_compile_in_order(self, tmp_path):
        first = tmp_path / "first.mlir"
        second = tmp_path / "second.mlir"
        first.write_text(
            Printer().print_module(
                wrap_in_module(build_listing1_function()[0])) + "\n",
            encoding="utf-8")
        second.write_text(
            Printer().print_module(
                wrap_in_module(build_listing2_function()[0])) + "\n",
            encoding="utf-8")
        out = tmp_path / "out.mlir"
        rc = repro_opt([str(first), str(second), "--passes", "canonicalize",
                        "-o", str(out)])
        assert rc == 0
        content = out.read_text(encoding="utf-8")
        assert content.count("// -----") == 1
        assert content.index('"foo"') < content.index('"non_uniform"')

    def test_single_input_skips_the_cache(self, tmp_path, capsys):
        # One segment can never hit, so the fingerprint + template-clone
        # cost is skipped entirely (no cache line in --report).
        source = tmp_path / "in.mlir"
        source.write_text(
            Printer().print_module(
                wrap_in_module(build_listing1_function()[0])) + "\n",
            encoding="utf-8")
        rc = repro_opt([str(source), "--passes", "cse", "--report",
                        "-o", str(tmp_path / "out.mlir")])
        assert rc == 0
        assert "compile cache" not in capsys.readouterr().err

    def test_jobs_rejects_nonpositive(self, capsys):
        assert repro_opt(["--jobs", "0", "--passes", "cse"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestReportMerge:
    def test_merge_without_renumbering_sums_same_buckets(self):
        target = CompileReport(timings={"0: canonicalize": 1.0})
        other = CompileReport(timings={"0: canonicalize": 2.0})
        target.merge(other, renumber_timings=False)
        assert target.timings == {"0: canonicalize": 3.0}

    def test_merge_default_still_renumbers(self):
        target = CompileReport(timings={"0: canonicalize": 1.0})
        other = CompileReport(timings={"0: canonicalize": 2.0})
        target.merge(other)
        assert target.timings == {"0: canonicalize": 1.0,
                                  "1: canonicalize": 2.0}
