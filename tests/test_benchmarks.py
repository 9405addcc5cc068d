"""Smoke tests for the benchmark harness (tiny sizes, CI-friendly)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.generate import (  # noqa: E402
    GeneratorConfig,
    count_ops,
    generate_module,
)
from benchmarks import compare as bench_compare  # noqa: E402
from benchmarks.runner import bench_config, main as runner_main  # noqa: E402
from repro.ir import Printer, parse_module, verify  # noqa: E402


class TestGenerator:
    def test_generated_module_is_valid_and_sized(self):
        config = GeneratorConfig(num_ops=200, num_kernels=2, seed=3)
        module = generate_module(config)
        verify(module)
        assert abs(count_ops(module) - 200) < 60

    def test_generation_is_deterministic(self):
        config = GeneratorConfig(num_ops=120, seed=7)
        first = Printer().print_module(generate_module(config))
        second = Printer().print_module(generate_module(config))
        assert first == second

    def test_generated_module_round_trips(self):
        config = GeneratorConfig(num_ops=100, num_kernels=1)
        text = Printer().print_module(generate_module(config))
        assert Printer().print_module(parse_module(text)) == text


class TestRunner:
    def test_bench_config_record_shape(self):
        record = bench_config(GeneratorConfig(num_ops=80, num_kernels=1),
                              repeats=1, check=True)
        assert record["num_ops"] > 0
        for phase in ("print", "parse", "canonicalize", "cse",
                      "canonicalize+cse", "pipeline:adaptivecpp-aot"):
            assert record["timings_s"][phase] >= 0.0
        # Pass timings are keyed by pipeline position ("0: canonicalize")
        # so duplicate passes stay distinguishable.
        assert any(key.endswith("canonicalize")
                   for key in record["pass_timings_s"])

    def test_smoke_run_emits_json(self, tmp_path):
        out = tmp_path / "bench.json"
        assert runner_main(["--smoke", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["records"][0]["num_ops"] > 0

    def test_concurrency_suite_shape(self, tmp_path):
        out = tmp_path / "bench.json"
        assert runner_main(["--smoke", "--concurrency", "--functions", "4",
                            "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        cache = payload["concurrency"]["cache"]
        assert cache["cold_s"] > 0 and cache["warm_s"] > 0
        assert cache["cache"]["hits"] >= 1


class TestCompareGate:
    def _payload(self, scale=1.0):
        return {
            "records": [{
                "config": {"num_ops": 500},
                "timings_s": {"canonicalize+cse": 0.1 * scale,
                              "parse": 0.2 * scale},
            }],
            "concurrency": {
                "cache": {"cold_s": 0.5 * scale, "warm_s": 0.05 * scale},
            },
        }

    def test_flatten_tracks_all_scenario_families(self):
        scenarios = bench_compare.flatten_scenarios(self._payload())
        assert set(scenarios) == {
            "500ops/canonicalize+cse", "500ops/parse",
            "cache/cold", "cache/warm",
        }

    def test_identical_runs_pass(self, tmp_path, capsys):
        rc = self._run_main(tmp_path, self._payload(), self._payload())
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_slowdown_beyond_threshold_fails(self, tmp_path, capsys):
        rc = self._run_main(tmp_path, self._payload(),
                            self._payload(scale=1.5))
        assert rc == 1
        captured = capsys.readouterr()
        assert "regression" in captured.out
        assert "FAIL" in captured.err

    def test_speedup_passes(self, tmp_path):
        assert self._run_main(tmp_path, self._payload(),
                              self._payload(scale=0.5)) == 0

    def test_sub_threshold_timings_are_skipped(self, tmp_path, capsys):
        baseline = {"records": [{"config": {"num_ops": 10},
                                 "timings_s": {"parse": 0.0001}}]}
        candidate = {"records": [{"config": {"num_ops": 10},
                                  "timings_s": {"parse": 0.01}}]}
        rc = self._run_main(tmp_path, baseline, candidate)
        assert rc == 0
        assert "skipped" in capsys.readouterr().out

    def test_no_common_scenarios_is_a_usage_error(self, tmp_path):
        assert self._run_main(tmp_path, {"records": []},
                              {"records": []}) == 2

    def test_flatten_tracks_interp_scenarios(self):
        payload = self._payload()
        payload["interp"] = {"records": [
            {"name": "vecadd-exec", "seconds": 0.02, "ops": 1000},
            {"name": "differential-gemm", "seconds": 0.05},
        ]}
        scenarios = bench_compare.flatten_scenarios(payload)
        assert scenarios["interp/vecadd-exec"] == 0.02
        assert scenarios["interp/differential-gemm"] == 0.05

    def test_baseline_missing_candidate_scenario_is_a_clear_error(
            self, tmp_path, capsys):
        # A fresh run that gained a scenario family (e.g. --interp) must
        # not be silently half-gated against a stale baseline.
        candidate = self._payload()
        candidate["interp"] = {"records": [
            {"name": "vecadd-exec", "seconds": 0.02}]}
        rc = self._run_main(tmp_path, self._payload(), candidate)
        assert rc == 2
        err = capsys.readouterr().err
        assert "interp/vecadd-exec" in err
        assert "regenerate the baseline" in err

    def test_allow_new_scenarios_downgrades_to_note(self, tmp_path, capsys):
        candidate = self._payload()
        candidate["interp"] = {"records": [
            {"name": "vecadd-exec", "seconds": 0.02}]}
        rc = self._run_main(tmp_path, self._payload(), candidate,
                            "--allow-new-scenarios")
        assert rc == 0
        out = capsys.readouterr().out
        assert "note" in out and "interp/vecadd-exec" in out

    def test_unproduced_baseline_scenarios_are_noted(self, tmp_path,
                                                     capsys):
        # Baseline scenarios the candidate run didn't produce stay
        # ungated (partial re-runs are legitimate) but must be visible.
        baseline = self._payload()
        baseline["interp"] = {"records": [
            {"name": "vecadd-exec", "seconds": 0.02}]}
        rc = self._run_main(tmp_path, baseline, self._payload())
        assert rc == 0
        out = capsys.readouterr().out
        assert "did not produce" in out and "interp/vecadd-exec" in out

    def test_interp_smoke_run_emits_records(self, tmp_path):
        out = tmp_path / "bench.json"
        assert runner_main(["--smoke", "--interp", "--sizes", "60",
                            "--out", str(out)]) == 0
        records = json.loads(out.read_text())["interp"]["records"]
        names = {record["name"] for record in records}
        assert {"vecadd-exec", "gemm-exec", "differential-gemm"} <= names
        by_name = {record["name"]: record for record in records}
        assert by_name["vecadd-exec"]["ops"] > 0
        assert by_name["vecadd-exec"]["ops_per_second"] > 0

    def test_lower_smoke_runs_lowered_cfgs_on_both_tiers(self):
        from benchmarks.lower_bench import run_lower_suite

        records = {record["name"]: record for record in
                   run_lower_suite(repeats=1, smoke=True)["records"]}
        for label in ("vecadd", "gemm"):
            assert records[f"lower/exec-{label}"]["tier"] == "interp"
            jit = records[f"lower/exec-jit-{label}"]
            assert jit["tier"] == "jit"
            assert jit["ops"] == records[f"lower/exec-{label}"]["ops"]

    def test_normalize_cancels_uniform_machine_drift(self, tmp_path):
        # A uniformly 1.5x-slower machine passes under --normalize ...
        rc = self._run_main(tmp_path, self._payload(),
                            self._payload(scale=1.5), "--normalize")
        assert rc == 0

    def test_normalize_still_catches_relative_regressions(self, tmp_path,
                                                          capsys):
        # ... but a scenario slowed far beyond the suite median fails.
        slow = self._payload(scale=1.5)
        slow["records"][0]["timings_s"]["parse"] = 0.2 * 1.5 * 2.0
        rc = self._run_main(tmp_path, self._payload(), slow, "--normalize")
        assert rc == 1
        assert "500ops/parse" in capsys.readouterr().err

    @staticmethod
    def _sized_payload(parse_us_per_op):
        """Records at 500 and 5000 ops with the given parse µs/op."""
        return {"records": [
            {"num_ops": ops, "config": {"num_ops": ops},
             "timings_s": {"parse": ops * us * 1e-6}}
            for ops, us in zip((500, 5000), parse_us_per_op)]}

    def test_flat_parse_scaling_passes(self, tmp_path, capsys):
        payload = self._sized_payload((30.0, 40.0))
        assert self._run_main(tmp_path, payload, payload) == 0
        assert "parse scaling: 30.0 us/op at 500 ops" in \
            capsys.readouterr().out

    def test_superlinear_parse_fails_without_any_regression(self, tmp_path,
                                                             capsys):
        # Identical to its baseline, so the 25% rule passes; the
        # per-op growth alone fails the gate.
        payload = self._sized_payload((30.0, 60.0))
        assert self._run_main(tmp_path, payload, payload) == 1
        assert "superlinear parser" in capsys.readouterr().err

    def test_scaling_check_fails_the_quadratic_committed_runs(self):
        root = Path(__file__).resolve().parent.parent
        ratios = {name: bench_compare.per_op_scaling(json.loads(
            (root / name).read_text()))["ratio"]
            for name in ("BENCH_2.json", "BENCH_6.json", "BENCH_10.json")}
        assert ratios["BENCH_2.json"] <= bench_compare.PARSE_SCALING_LIMIT
        assert ratios["BENCH_6.json"] > bench_compare.PARSE_SCALING_LIMIT
        assert ratios["BENCH_10.json"] > bench_compare.PARSE_SCALING_LIMIT

    def test_single_size_run_has_no_scaling_check(self):
        assert bench_compare.per_op_scaling(self._payload()) is None

    @staticmethod
    def _run_main(tmp_path, baseline, candidate, *extra):
        baseline_path = tmp_path / "baseline.json"
        candidate_path = tmp_path / "candidate.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        candidate_path.write_text(json.dumps(candidate), encoding="utf-8")
        return bench_compare.main([str(baseline_path), str(candidate_path),
                                   *extra])
