"""Chaos suite: the fault-tolerance contract of the process batch.

Every fault class the supervisor claims to survive is injected
deterministically (:mod:`repro.faults`) at every injection point into a
three-segment ``repro-opt --split-input-file --jobs 4`` batch, and the
test asserts the *batch still succeeds with output byte-identical to the
serial batch* — recovery by bounded retry, by pool rebuild, or by
degradation to an in-process run (of one segment or of the whole
batch), never by silent corruption and never by failing a compile
serial would pass.  Batch-mode error isolation and the graceful-Ctrl-C
contract of the CLIs ride along (see ``docs/robustness.md``).
"""

import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.faults import (  # noqa: E402
    FAULT_PLAN_ENV,
    FaultPlan,
    TransientFault,
    active_fault_plan,
    fault_plan,
    fault_point,
    install_fault_plan,
)
from repro.ir import Printer, parse_module, verify  # noqa: E402
from repro.transforms import (  # noqa: E402
    CompileCache,
    parse_pass_pipeline,
)
from repro.transforms.executor import (  # noqa: E402
    CorruptResult,
    ExecutorOptions,
    SupervisedExecutor,
    WorkUnit,
    _compile_work_unit,
    validate_segment_result,
)
from repro.tools import repro_lint, repro_opt, repro_run  # noqa: E402

from .helpers import (  # noqa: E402
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

PIPELINE = "builtin.module(func.func(canonicalize,cse,dce))"

#: Snappy supervision policy for direct executor tests: small backoff.
FAST = dict(jobs=4, deadline=30.0, max_retries=2, backoff=0.01)


def _listing_module():
    return wrap_in_module(*[build()[0] for build in (
        build_listing1_function,
        build_listing2_function,
        build_listing3_function,
    )])


def _serial_print():
    module = _listing_module()
    parse_pass_pipeline(PIPELINE).run(module)
    return Printer().print_module(module)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    yield
    install_fault_plan(None)


@pytest.fixture(scope="module")
def serial_text():
    return _serial_print()


class TestFaultPlan:
    def test_parse_round_trips(self):
        spec = ("executor.worker@foo:2=hang/30;compile-cache.hit=corrupt;"
                "executor.worker:*=transient")
        plan = FaultPlan.parse(spec)
        assert plan.to_spec() == spec
        rule = plan.rules[0]
        assert (rule.point, rule.key, rule.occurrence, rule.kind,
                rule.arg) == ("executor.worker", "foo", 2, "hang", "30")
        assert plan.rules[2].occurrence is None

    def test_unknown_kind_and_missing_point_raise(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("executor.worker=explode")
        with pytest.raises(ValueError, match="lacks '=kind'"):
            FaultPlan.parse("executor.worker")
        with pytest.raises(ValueError, match="lacks a point name"):
            FaultPlan.parse("=crash")

    def test_occurrence_counters_are_per_key(self):
        plan = FaultPlan.parse("p@b:1=transient")
        assert plan.check("p", key="a") is None       # a: occurrence 0
        assert plan.check("p", key="b") is None       # b: occurrence 0
        rule = plan.check("p", key="b")               # b: occurrence 1
        assert rule is not None and rule.kind == "transient"
        assert [(f.key, f.occurrence) for f in plan.fires] == [("b", 1)]

    def test_explicit_occurrence_overrides_counters(self):
        plan = FaultPlan.parse("p@k:3=corrupt")
        assert plan.check("p", key="k", occurrence=2) is None
        assert plan.check("p", key="k", occurrence=3) is not None

    def test_transient_raises_and_corrupt_returns(self):
        with fault_plan("a=transient;b=corrupt") as plan:
            with pytest.raises(TransientFault):
                fault_point("a")
            assert fault_point("b") == "corrupt"
            assert fault_point("b") is None  # occurrence 0 already spent
            assert [f.kind for f in plan.fires] == ["transient", "corrupt"]

    def test_env_activation_reparses_on_change(self, monkeypatch):
        assert active_fault_plan() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "p=transient")
        first = active_fault_plan()
        assert first is not None and first.rules[0].point == "p"
        monkeypatch.setenv(FAULT_PLAN_ENV, "q=crash")
        second = active_fault_plan()
        assert second is not first and second.rules[0].point == "q"
        assert second.rules[0].kind == "crash"
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert active_fault_plan() is None
        install_fault_plan(first)
        assert active_fault_plan() is first


#: The batch the chaos cases compile: one segment per paper listing.
BATCH = "batch.mlir"
#: The fault-plan key of the segment the cases inject faults into.
SEGMENT = f"{BATCH} (segment 2)"

_STAT_RE = re.compile(r"^  ([^:]+): (\S+) = (\d+)$", re.MULTILINE)


def _write_listing_batch(directory):
    path = directory / BATCH
    path.write_text("// -----\n".join(
        Printer().print_module(wrap_in_module(build()[0])) + "\n"
        for build in (build_listing1_function, build_listing2_function,
                      build_listing3_function)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def serial_batch(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serial")
    out = directory / "out.mlir"
    assert repro_opt.main([str(_write_listing_batch(directory)),
                           "--split-input-file", "--passes", PIPELINE,
                           "-o", str(out)]) == 0
    return out.read_text(encoding="utf-8")


class TestProcessTier:
    """The failure matrix, on the batch segments ``--jobs 4`` ships."""

    @pytest.fixture
    def run_batch(self, tmp_path, monkeypatch, capsys, serial_batch):
        """Compile the listing batch at ``--jobs 4`` under ``spec`` as
        the active fault plan, assert byte-identity with the serial
        batch, and return ``(statistics, stderr)``."""
        monkeypatch.chdir(tmp_path)
        _write_listing_batch(tmp_path)

        def run(spec=None, *extra):
            if spec is not None:
                install_fault_plan(FaultPlan.parse(spec))
            try:
                rc = repro_opt.main([BATCH, "--split-input-file",
                                     "--passes", PIPELINE, "--jobs", "4",
                                     "--report", "-o", "out.mlir", *extra])
            finally:
                install_fault_plan(None)
            err = capsys.readouterr().err
            assert rc == 0, err
            assert (tmp_path / "out.mlir").read_text(encoding="utf-8") \
                == serial_batch
            stats = {(pass_name, name): int(value) for pass_name, name, value
                     in _STAT_RE.findall(err)}
            return stats, err

        return run

    def test_byte_identical_to_serial(self, run_batch):
        stats, _err = run_batch()
        assert stats[("process-tier", "segments")] == 3

    def test_transient_fault_is_retried(self, run_batch):
        stats, err = run_batch(f"executor.worker@{SEGMENT}=transient")
        assert stats[("process-tier", "transient_retries")] == 1
        assert stats[("process-tier", "recovered_units")] == 1
        assert f"unit '{SEGMENT}': recovered after 1 failed attempt(s)" \
            in err
        assert "retrying (attempt 2)" in err

    def test_worker_crash_rebuilds_pool(self, run_batch):
        stats, err = run_batch(f"executor.worker@{SEGMENT}=crash")
        assert stats[("process-tier", "worker_crashes")] >= 1
        assert stats[("process-tier", "pool_rebuilds")] == 1
        assert "worker pool restarted after worker crash" in err

    def test_hang_is_bounded_by_deadline(self, run_batch):
        start = time.monotonic()
        stats, err = run_batch(f"executor.worker@{SEGMENT}=hang/60",
                               "--deadline", "0.75")
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # nowhere near the injected 60s sleep
        assert stats[("process-tier", "hangs")] == 1
        assert stats[("process-tier", "pool_rebuilds")] == 1
        assert "deadline exceeded" in err

    def test_corrupt_worker_result_is_detected(self, run_batch):
        stats, err = run_batch(f"executor.worker.result@{SEGMENT}=corrupt")
        assert stats[("process-tier", "corrupt_results")] == 1
        assert stats[("process-tier", "recovered_units")] == 1
        assert "corrupt result" in err

    def test_corrupt_at_splice_is_detected(self, run_batch):
        stats, _err = run_batch(f"executor.splice@{SEGMENT}=corrupt")
        assert stats[("process-tier", "corrupt_results")] == 1

    def test_retry_exhaustion_degrades_unit_to_serial(self, run_batch):
        stats, err = run_batch(f"executor.worker@{SEGMENT}:*=transient")
        assert stats[("process-tier", "degraded_units")] == 1
        # The retry budget (max_retries=2) bounds the attempts: first
        # try plus two retries, then the serial fallback.
        assert stats[("process-tier", "transient_retries")] == 3
        assert "degraded to in-process serial run" in err

    def test_dispatch_failure_degrades_to_in_process_batch(self,
                                                           run_batch):
        stats, err = run_batch("process-tier.dispatch=transient")
        assert stats[("process-tier", "degraded")] == 1
        assert "process-tier: degraded to in-process batch" in err


class TestSegmentWorker:
    """The worker entry point, driven in-process: what each segment
    payload returns is what the supervisor validates and stitches."""

    @staticmethod
    def _payload(text, **fields):
        unit = WorkUnit(uid=0, label=SEGMENT, text=text, spec=PIPELINE,
                        verify=True, filename=BATCH, **fields)
        return unit, SupervisedExecutor()._payload(unit, attempt=0)

    @staticmethod
    def _listing_text():
        return Printer().print_module(
            wrap_in_module(build_listing2_function()[0])) + "\n"

    def test_result_matches_serial_print(self):
        unit, payload = self._payload(self._listing_text())
        outcome = _compile_work_unit(payload)
        assert outcome["ok"], outcome
        module = wrap_in_module(build_listing2_function()[0])
        parse_pass_pipeline(PIPELINE).run(module)
        assert validate_segment_result(unit, outcome) == \
            Printer().print_module(module) + "\n"
        assert outcome["statistics"]
        assert "cache_stats" not in outcome

    def test_worker_opens_the_shared_disk_cache(self, tmp_path):
        texts = []
        for expected in ({"hits": 0, "misses": 1}, {"hits": 1, "misses": 0}):
            _unit, payload = self._payload(self._listing_text(),
                                           cache_dir=str(tmp_path))
            outcome = _compile_work_unit(payload)
            assert outcome["ok"], outcome
            disk = outcome["cache_stats"]["disk"]
            assert (disk["hits"], disk["misses"]) == \
                (expected["hits"], expected["misses"])
            texts.append(outcome["text"])
        assert texts[0] == texts[1]

    def test_parse_error_is_a_deterministic_failure(self):
        _unit, payload = self._payload("not IR at all\n")
        outcome = _compile_work_unit(payload)
        assert not outcome["ok"]
        assert outcome["transient"] is False
        assert "ParseError" in outcome["diagnostic"]["message"]

    def test_transient_fault_is_flagged_for_retry(self):
        install_fault_plan(FaultPlan.parse(
            f"executor.worker@{SEGMENT}=transient"))
        _unit, payload = self._payload(self._listing_text())
        install_fault_plan(None)
        # The plan rides in the payload, as it does to a fresh worker.
        assert payload["fault_plan"]
        outcome = _compile_work_unit(payload)
        assert not outcome["ok"]
        assert outcome["transient"] is True

    @pytest.mark.parametrize("tamper, message", [
        (lambda outcome: outcome.update(text="  \n"),
         "empty worker result"),
        (lambda outcome: outcome.update(text=outcome["text"] + "// x\n"),
         "fingerprint mismatch"),
    ], ids=["empty", "fingerprint"])
    def test_validation_rejects_tampered_result(self, tamper, message):
        unit, payload = self._payload(self._listing_text())
        outcome = _compile_work_unit(payload)
        tamper(outcome)
        with pytest.raises(CorruptResult, match=message):
            validate_segment_result(unit, outcome)


class TestCacheSelfHealing:
    def test_corrupt_hit_evicts_and_recompiles(self, serial_text):
        manager = parse_pass_pipeline(PIPELINE)
        manager.cache = CompileCache()
        manager.run(_listing_module())  # cold: populates the cache
        assert manager.cache.stats.misses == 1
        module = _listing_module()
        with fault_plan("compile-cache.hit=corrupt"):
            report = manager.run(module)
        assert Printer().print_module(module) == serial_text
        assert report.get_statistic("compile-cache", "recovered") == 1
        assert any("compile-cache: recovered from corrupt entry" in remark
                   for remark in report.remarks)
        # The poisoned entry is gone and the recovery compile re-stored
        # a fresh one, which serves the next run cleanly.
        assert manager.cache.stats.evictions == 1
        assert len(manager.cache) == 1
        manager2 = parse_pass_pipeline(PIPELINE)
        manager2.cache = manager.cache
        module = _listing_module()
        clean = manager2.run(module)
        assert Printer().print_module(module) == serial_text
        assert clean.get_statistic("compile-cache", "hits") == 1
        assert clean.get_statistic("compile-cache", "recovered") == 0


def _write_batch(tmp_path, segments, name="batch.mlir"):
    path = tmp_path / name
    path.write_text("// -----\n".join(segments), encoding="utf-8")
    return path


def _segment_texts():
    return [Printer().print_module(wrap_in_module(build()[0])) + "\n"
            for build in (build_listing1_function,
                          build_listing3_function)]


def _broken_verify_segment():
    """A segment that parses but fails verification (use-before-def)."""
    from repro.dialects import arith
    from repro.dialects.func import FuncOp, ReturnOp
    from repro.ir import Builder, InsertionPoint, i32

    f = FuncOp.build("bad", [])
    body = Builder(InsertionPoint.at_end(f.body))
    c = body.insert(arith.ConstantOp.build(1, i32()))
    add = body.insert(arith.AddIOp.build(c.result, c.result))
    body.insert(ReturnOp.build())
    add.move_before(c)
    return Printer().print_module(wrap_in_module(f)) + "\n"


class TestBatchIsolation:
    @pytest.mark.parametrize("tier_args", [
        [], ["--jobs", "4"],
    ], ids=["serial", "process"])
    def test_parse_error_does_not_abort_batch(self, tmp_path, capsys,
                                              tier_args):
        good1, good2 = _segment_texts()
        path = _write_batch(tmp_path, [good1, "not IR at all\n", good2])
        out_path = tmp_path / "out.mlir"
        rc = repro_opt.main([str(path), "--split-input-file",
                             "--passes", PIPELINE,
                             "-o", str(out_path)] + tier_args)
        captured = capsys.readouterr()
        assert rc == 1
        assert "segment 2): parse error" in captured.err
        out = out_path.read_text(encoding="utf-8")
        pieces = out.split("// -----\n")
        assert len(pieces) == 3
        assert "FAILED" in pieces[1]
        assert '"func.func"' in pieces[0] and '"func.func"' in pieces[2]

    def test_verification_failure_is_isolated(self, tmp_path, capsys):
        good1, good2 = _segment_texts()
        path = _write_batch(tmp_path,
                            [good1, _broken_verify_segment(), good2])
        out_path = tmp_path / "out.mlir"
        rc = repro_opt.main([str(path), "--split-input-file",
                             "--passes", PIPELINE, "-o", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "segment 2): verification failed" in captured.err
        pieces = out_path.read_text(encoding="utf-8").split("// -----\n")
        assert len(pieces) == 3 and "FAILED" in pieces[1]

    def test_verification_failure_is_isolated_under_jobs(self, tmp_path,
                                                         capsys):
        # The worker fails the segment deterministically; the parent
        # recompiles it in-process, which reports it like serial does.
        good1, good2 = _segment_texts()
        path = _write_batch(tmp_path,
                            [good1, _broken_verify_segment(), good2])
        out_path = tmp_path / "out.mlir"
        rc = repro_opt.main([str(path), "--split-input-file",
                             "--passes", PIPELINE, "--jobs", "4",
                             "--report", "-o", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "segment 2): verification failed" in captured.err
        assert "process-tier: segments = 3" in captured.err
        pieces = out_path.read_text(encoding="utf-8").split("// -----\n")
        assert len(pieces) == 3 and "FAILED" in pieces[1]
        assert '"func.func"' in pieces[0] and '"func.func"' in pieces[2]

    def test_single_input_parse_error_still_aborts(self, tmp_path, capsys):
        path = tmp_path / "bad.mlir"
        path.write_text("not IR\n", encoding="utf-8")
        rc = repro_opt.main([str(path), "--passes", PIPELINE])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAILED" not in captured.out


class TestProcessBatchCLI:
    def _compile(self, tmp_path, capsys, extra, name="out.mlir"):
        good1, good2 = _segment_texts()
        path = _write_batch(tmp_path, [good1, good2, good1])
        out_path = tmp_path / name
        rc = repro_opt.main([str(path), "--split-input-file",
                             "--passes", PIPELINE,
                             "-o", str(out_path)] + extra)
        return rc, out_path.read_text(encoding="utf-8"), \
            capsys.readouterr().err

    def test_output_matches_serial_and_reports_tier(self, tmp_path,
                                                    capsys):
        rc, serial_out, _ = self._compile(tmp_path, capsys, [],
                                          name="serial.mlir")
        assert rc == 0
        rc, process_out, err = self._compile(
            tmp_path, capsys,
            ["--jobs", "4", "--report"], name="process.mlir")
        assert rc == 0
        assert process_out == serial_out
        assert "process-tier: segments = 2" in err
        assert "process-tier: deduped-segments = 1" in err

    def test_report_shows_recovery_events(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "executor.worker=transient")
        rc, _out, err = self._compile(
            tmp_path, capsys,
            ["--jobs", "4", "--report"])
        assert rc == 0
        assert "transient_retries" in err
        assert "recovered after 1 failed attempt(s)" in err


class TestGracefulInterrupt:
    def test_repro_opt_interrupt_exits_130(self, tmp_path, capsys,
                                           monkeypatch):
        path = tmp_path / "in.mlir"
        path.write_text(_segment_texts()[0], encoding="utf-8")

        def boom(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro_opt, "parse_module", boom)
        rc = repro_opt.main([str(path), "--passes", PIPELINE])
        assert rc == 130
        assert "repro-opt: interrupted" in capsys.readouterr().err

    def test_repro_run_interrupt_exits_130(self, tmp_path, capsys,
                                           monkeypatch):
        path = tmp_path / "in.mlir"
        path.write_text(_segment_texts()[0], encoding="utf-8")

        def boom(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro_run, "parse_module", boom)
        rc = repro_run.main([str(path)])
        assert rc == 130
        assert "repro-run: interrupted" in capsys.readouterr().err

    def test_repro_lint_interrupt_exits_130(self, tmp_path, capsys,
                                            monkeypatch):
        path = tmp_path / "in.mlir"
        path.write_text(_segment_texts()[0], encoding="utf-8")

        def boom(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro_lint, "parse_module", boom)
        rc = repro_lint.main([str(path)])
        assert rc == 130
        assert "repro-lint: interrupted" in capsys.readouterr().err


class TestWorkerErrorRendering:
    def test_deterministic_worker_error_reproduces_in_process(self):
        # A pass error is not retried: the unit degrades to the serial
        # fallback, which reproduces the error with native semantics —
        # here there is none (the pipeline is sound), so exercise the
        # rendering through a worker that cannot parse its unit text.
        # Simplest deterministic error: ship a transient on every
        # attempt of one unit *and* verify the remaining units still
        # land — covered above; here assert the error path renders a
        # located diagnostic for a genuinely broken worker reply.
        from repro.transforms.executor import (
            SupervisedExecutor,
            WorkUnit,
        )

        executor = SupervisedExecutor(ExecutorOptions(**FAST))
        fallback_calls = []

        def fallback(unit, attempts, events):
            fallback_calls.append((unit.label, attempts))
            from repro.transforms.executor import WorkResult
            return WorkResult(unit=unit, text=None, attempts=attempts + 1,
                              degraded=True, events=events)

        try:
            unit = WorkUnit(uid=0, label="broken",
                            text="this does not parse", spec="canonicalize")
            results = executor.run_units([unit], fallback)
        finally:
            executor.close()
        result = results[0]
        assert result.degraded
        assert fallback_calls == [("broken", 0)]
        assert any("worker error" in event and "ParseError" in event
                   for event in result.events)


class TestDaemonSignalContract:
    """``repro-served`` follows the CLI signal rules as a subprocess:
    Ctrl-C (SIGINT) exits 130, a supervisor's SIGTERM exits 0 — and in
    both cases the daemon announces itself on stdout first, so the test
    only signals a server that is actually listening."""

    @staticmethod
    def _spawn_daemon():
        import os
        import re
        import subprocess

        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                 / "src")}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.repro_served",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        banner = process.stdout.readline()
        match = re.search(r"listening on .*:(\d+)$", banner.strip())
        assert match, banner
        return process, int(match.group(1))

    def test_sigint_exits_130(self):
        import signal

        process, _port = self._spawn_daemon()
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 130
        assert "repro-served: interrupted" in process.stderr.read()

    def test_sigterm_exits_0(self):
        import signal

        process, _port = self._spawn_daemon()
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert "repro-served: terminated" in process.stderr.read()

    def test_client_shutdown_request_exits_0(self):
        import os
        import subprocess

        daemon, port = self._spawn_daemon()
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                 / "src")}
        client = subprocess.run(
            [sys.executable, "-m", "repro.tools.repro_client",
             "--port", str(port), "--shutdown"],
            capture_output=True, text=True, env=env, timeout=60)
        assert client.returncode == 0, client.stderr
        assert daemon.wait(timeout=30) == 0
