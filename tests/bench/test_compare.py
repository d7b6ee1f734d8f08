"""Benchmark regression comparison: rules, exit codes, CLI wiring."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs.profile import compare_bench, load_bench


def parallel_doc():
    """A BENCH_parallel-shaped document: runs keyed by ``workers``."""
    return {
        "bench": "parallel_speedup",
        "scale": "smoke",
        "cpu_count": 4,
        "host": "ci-runner",
        "worker_counts": [1, 2],
        "entries": [{
            "program": "dining(3)",
            "strategy": "dfs",
            "depth_bound": 400,
            "preemption_bound": 3,
            "cpu_count": 4,
            "runs": [
                {"workers": 1, "seconds": 0.5, "ok": True,
                 "executions": 250, "transitions": 4000, "speedup": 1.0},
                {"workers": 2, "seconds": 0.4, "ok": True,
                 "executions": 250, "transitions": 4000, "speedup": 1.25},
            ],
        }],
    }


def dpor_doc():
    """A BENCH_dpor-shaped document: flat entries, no runs."""
    return {
        "bench": "dpor_reduction",
        "scale": "smoke",
        "cpu_count": 4,
        "host": "ci-runner",
        "entries": [{
            "program": "lanes(3)", "depth_bound": 300, "policy": "fair",
            "strategy": "dpor", "seconds": 0.128, "ok": True,
            "executions": 409, "transitions": 3137, "deadlocks": 0,
            "violations": 0,
        }],
    }


class TestCompareRules:
    def test_identical_documents_pass(self):
        comparison = compare_bench(parallel_doc(), parallel_doc())
        assert comparison.ok
        assert comparison.exit_code == 0
        assert not comparison.regressions

    def test_injected_20_percent_regression_fails(self):
        current = parallel_doc()
        run = current["entries"][0]["runs"][0]
        run["seconds"] = round(run["seconds"] * 1.25, 3)  # > 20% slower
        comparison = compare_bench(parallel_doc(), current)
        assert comparison.exit_code == 1
        assert any(v.metric == "seconds" for v in comparison.regressions)

    def test_slowdown_within_tolerance_passes(self):
        current = parallel_doc()
        run = current["entries"][0]["runs"][0]
        run["seconds"] = round(run["seconds"] * 1.15, 3)
        assert compare_bench(parallel_doc(), current).ok

    def test_improvement_is_reported_not_gated(self):
        current = parallel_doc()
        current["entries"][0]["runs"][0]["seconds"] = 0.3
        comparison = compare_bench(parallel_doc(), current)
        assert comparison.ok
        assert comparison.improvements

    def test_speedup_collapse_fails(self):
        # Higher is better: a speedup dropping past tolerance regresses.
        current = parallel_doc()
        current["entries"][0]["runs"][1]["speedup"] = 0.9
        comparison = compare_bench(parallel_doc(), current)
        assert comparison.exit_code == 1
        assert any(v.metric == "speedup" for v in comparison.regressions)

    def test_determinism_contract_is_exact(self):
        # One execution of drift is a regression, no tolerance applies,
        # in a run (BENCH_parallel) and in a flat entry (BENCH_dpor).
        current = parallel_doc()
        current["entries"][0]["runs"][0]["executions"] = 251
        comparison = compare_bench(parallel_doc(), current)
        assert any(v.metric == "executions"
                   for v in comparison.regressions)
        current = dpor_doc()
        current["entries"][0]["transitions"] = 3138
        comparison = compare_bench(dpor_doc(), current)
        assert [v.metric for v in comparison.regressions] == ["transitions"]

    def test_sub_noise_floor_seconds_never_gate(self):
        baseline, current = parallel_doc(), parallel_doc()
        baseline["entries"][0]["runs"][0]["seconds"] = 0.004
        current["entries"][0]["runs"][0]["seconds"] = 0.012  # 3x but tiny
        assert compare_bench(baseline, current).ok

    def test_provenance_drift_warns_without_failing(self):
        current = parallel_doc()
        current["host"] = "laptop"
        current["cpu_count"] = 1
        comparison = compare_bench(parallel_doc(), current)
        assert comparison.ok
        drifts = [v for v in comparison.values if v.status == "drift"]
        assert {v.metric for v in drifts} == {"host", "cpu_count"}

    def test_missing_entry_warns(self):
        current = parallel_doc()
        current["entries"] = []
        comparison = compare_bench(parallel_doc(), current)
        assert comparison.ok
        assert any("missing" in w for w in comparison.warnings)

    def test_summary_mentions_the_verdict(self):
        text = compare_bench(parallel_doc(), parallel_doc()).summary()
        assert "result: OK" in text


class TestLoadAndCli:
    def write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_load_bench_rejects_non_bench_json(self, tmp_path):
        path = self.write(tmp_path, "x.json", {"not": "a bench"})
        with pytest.raises(ValueError, match="entries"):
            load_bench(path)

    def test_cli_exit_zero_on_identical(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", parallel_doc())
        code = main(["bench", "compare", base, base])
        assert code == 0
        assert "result: OK" in capsys.readouterr().out

    def test_cli_exit_nonzero_on_regression(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", parallel_doc())
        current_doc = copy.deepcopy(parallel_doc())
        current_doc["entries"][0]["runs"][0]["seconds"] = 0.7
        current = self.write(tmp_path, "current.json", current_doc)
        code = main(["bench", "compare", base, current])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_tolerance_flag(self, tmp_path):
        base = self.write(tmp_path, "base.json", parallel_doc())
        current_doc = copy.deepcopy(parallel_doc())
        current_doc["entries"][0]["runs"][0]["seconds"] = 0.7  # +40%
        current = self.write(tmp_path, "current.json", current_doc)
        assert main(["bench", "compare", base, current,
                     "--tolerance", "0.5"]) == 0

    def test_cli_missing_file_is_a_clean_error(self, tmp_path):
        base = self.write(tmp_path, "base.json", parallel_doc())
        with pytest.raises(SystemExit, match="cannot load"):
            main(["bench", "compare", base, str(tmp_path / "nope.json")])

    def test_committed_baselines_load(self):
        # The repo-root BENCH files must stay valid compare inputs.
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent.parent
        for name in ("BENCH_parallel.json", "BENCH_dpor.json"):
            document = load_bench(str(root / name))
            comparison = compare_bench(document, document)
            assert comparison.exit_code == 0
