"""Repro-file (schedule persistence) tests."""

import json

import pytest

from repro.checker import Checker
from repro.core.policies import nonfair_policy
from repro.engine.executor import ExecutorConfig
from repro.engine.persistence import (
    load_and_replay,
    load_schedule,
    save_schedule,
    schedule_to_dict,
)
from repro.engine.results import Outcome
from repro.engine.strategies import explore_dfs
from repro.runtime.api import check
from repro.runtime.program import VMProgram
from repro.sync.atomics import SharedVar


def racy_program():
    def setup(env):
        x = SharedVar(0, name="x")

        def writer():
            yield from x.set(1)
            yield from x.set(2)

        def reader():
            value = yield from x.get()
            check(value != 1, "saw intermediate")

        env.spawn(writer, name="w")
        env.spawn(reader, name="r")

    return VMProgram(setup, name="racy")


@pytest.fixture
def found(tmp_path):
    program = racy_program()
    result = explore_dfs(program, nonfair_policy(), ExecutorConfig())
    assert result.found_violation
    return program, result.violations[0], tmp_path


class TestRoundTrip:
    def test_save_load_replay(self, found):
        program, record, tmp_path = found
        path = save_schedule(tmp_path / "bug.json", program, record,
                             policy_name="nonfair",
                             config=ExecutorConfig())
        replayed = load_and_replay(path, racy_program(), nonfair_policy())
        assert replayed.outcome is Outcome.VIOLATION
        assert "saw intermediate" in str(replayed.violation)

    def test_payload_contents(self, found):
        program, record, _ = found
        payload = schedule_to_dict(program, record, policy_name="nonfair")
        assert payload["program"] == "racy"
        assert payload["outcome"] == "violation"
        assert payload["schedule"] == record.schedule
        assert "saw intermediate" in payload["violation"]
        json.dumps(payload)  # must be serializable

    def test_config_restored_from_file(self, found):
        program, record, tmp_path = found
        path = save_schedule(
            tmp_path / "bug.json", program, record,
            config=ExecutorConfig(depth_bound=77, preemption_bound=3),
        )
        payload = load_schedule(path)
        assert payload["config"]["depth_bound"] == 77
        assert payload["config"]["preemption_bound"] == 3
        # load_and_replay with config=None uses the stored one.
        replayed = load_and_replay(path, racy_program(), nonfair_policy())
        assert replayed.outcome is Outcome.VIOLATION

    def test_icb_record_replays_under_its_sweep_bound(self, tmp_path):
        # ICB finds the race in sweep cb=1; its decisions index the
        # options bound 1 left, which bound 3 (the ceiling) changes.
        checker = Checker(racy_program(), strategy="icb", preemption_bound=3)
        record = checker.run().violation
        assert record.preemption_bound == 1
        path = save_schedule(tmp_path / "bug.json", racy_program(), record,
                             config=checker.config)
        assert load_schedule(path)["config"]["preemption_bound"] == 1
        replayed = load_and_replay(path, racy_program(),
                                   checker.policy_factory, checker.config)
        assert replayed.outcome is Outcome.VIOLATION
        assert replayed.schedule == record.schedule


class TestValidation:
    def test_wrong_program_rejected(self, found):
        program, record, tmp_path = found
        path = save_schedule(tmp_path / "bug.json", program, record)
        other = VMProgram(lambda env: None, name="other")
        with pytest.raises(ValueError):
            load_and_replay(path, other, nonfair_policy())

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "schedule": []}))
        with pytest.raises(ValueError):
            load_schedule(path)

    def test_missing_schedule_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 1}))
        with pytest.raises(ValueError):
            load_schedule(path)


class TestAtomicity:
    """A repro file is written atomically; a torn file loads loudly."""

    def test_save_leaves_no_tmp_file(self, found):
        program, record, tmp_path = found
        save_schedule(tmp_path / "bug.json", program, record)
        save_schedule(tmp_path / "bug.json", program, record)  # overwrite
        assert [p.name for p in tmp_path.iterdir()] == ["bug.json"]

    def test_truncated_file_raises_clear_value_error(self, found):
        program, record, tmp_path = found
        path = save_schedule(tmp_path / "bug.json", program, record)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulate a torn write
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_schedule(path)

    def test_non_object_payload_raises_clear_value_error(self, tmp_path):
        path = tmp_path / "bug.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_schedule(path)
