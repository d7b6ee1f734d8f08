"""Checkpoint serialization and the atomic store."""

import json
import random

import pytest

from repro.engine.results import (
    Decision,
    DivergenceKind,
    DivergenceReport,
    ExecutionResult,
    ExplorationResult,
    Outcome,
)
from repro.resilience.checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    exploration_from_state,
    exploration_to_state,
    freeze_rng,
    load_checkpoint,
    record_from_state,
    record_to_state,
    thaw_rng,
)
from repro.runtime.errors import AssertionViolation, TaskCrash


class TestRngRoundTrip:
    def test_resumed_rng_continues_the_same_stream(self):
        rng = random.Random(42)
        rng.random()  # advance past the seed state
        frozen = freeze_rng(rng)
        expected = [rng.random() for _ in range(10)]

        fresh = random.Random()
        thaw_rng(fresh, frozen)
        assert [fresh.random() for _ in range(10)] == expected

    def test_frozen_state_is_json_serializable(self):
        frozen = freeze_rng(random.Random(7))
        assert json.loads(json.dumps(frozen)) == frozen


class TestRecordRoundTrip:
    def test_violation_record(self):
        record = ExecutionResult(
            outcome=Outcome.VIOLATION,
            decisions=[Decision("thread", 1, 3, None),
                       Decision("data", 0, 2, None)],
            steps=12,
            preemptions=2,
            violation=AssertionViolation("x broke"),
            preemption_bound=3,
        )
        restored = record_from_state(record_to_state(record))
        assert restored.outcome is Outcome.VIOLATION
        assert restored.schedule == [1, 0]
        # The bound its options were indexed under, for Checker.replay.
        assert restored.preemption_bound == 3
        assert [d.options for d in restored.decisions] == [3, 2]
        assert isinstance(restored.violation, AssertionViolation)
        assert "x broke" in str(restored.violation)

    def test_divergence_and_crash_fields(self):
        record = ExecutionResult(
            outcome=Outcome.CRASHED,
            decisions=[],
            steps=3,
            crash=TaskCrash("thread 'w' crashed"),
            divergence=DivergenceReport(
                kind=DivergenceKind.LIVELOCK, culprits=("a", "b"),
                window=64, detail="spin"),
            abort_reason=None,
        )
        restored = record_from_state(record_to_state(record))
        assert isinstance(restored.crash, TaskCrash)
        assert restored.divergence.kind is DivergenceKind.LIVELOCK
        assert restored.divergence.culprits == ("a", "b")

    def test_state_is_json_serializable(self):
        record = ExecutionResult(outcome=Outcome.TERMINATED,
                                 decisions=[Decision("thread", 0, 2, None)],
                                 steps=5)
        state = record_to_state(record)
        assert json.loads(json.dumps(state)) == state


class TestExplorationRoundTrip:
    def test_counts_and_outcomes_survive(self):
        result = ExplorationResult(program_name="p", policy_name="fair",
                                   strategy_name="dfs", executions=17,
                                   transitions=230)
        result.outcomes[Outcome.TERMINATED] = 15
        result.outcomes[Outcome.DEADLOCK] = 2
        result.stop_reason = "max-executions"
        result.limit_hit = True
        restored = exploration_from_state(exploration_to_state(result))
        assert restored.executions == 17
        assert restored.transitions == 230
        assert restored.outcomes[Outcome.TERMINATED] == 15
        assert restored.outcomes[Outcome.DEADLOCK] == 2
        assert restored.stop_reason == "max-executions"
        assert restored.limit_hit


class TestCheckpointStore:
    def payload(self):
        return {"program": "p", "strategy": "dfs",
                "state": {"strategy": "dfs", "frontier": {"guide": [1, 0]}}}

    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "search.ckpt")
        path = store.save(self.payload())
        loaded = load_checkpoint(path)
        assert loaded["program"] == "p"
        assert loaded["state"]["frontier"] == {"guide": [1, 0]}
        assert loaded["format"] == FORMAT_VERSION

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path / "search.ckpt")
        store.save(self.payload())
        store.save(self.payload())  # overwrite goes through the same dance
        # The overwrite rotates the last snapshot to .prev (recovery
        # fodder); the only other file is the checkpoint itself — no
        # .tmp survives a completed save.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "search.ckpt", "search.ckpt.prev"]

    def test_creates_missing_parent_directories(self, tmp_path):
        store = CheckpointStore(tmp_path / "deep" / "nested" / "s.ckpt")
        path = store.save(self.payload())
        assert path.exists()

    def test_truncated_file_raises_value_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "search.ckpt")
        path = store.save(self.payload())
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # simulate a torn write
        with pytest.raises(ValueError, match="truncated or corrupt"):
            store.load()

    def test_wrong_format_version_rejected(self, tmp_path):
        path = tmp_path / "search.ckpt"
        path.write_text(json.dumps({"format": 999, "state": {}}))
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            load_checkpoint(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "search.ckpt"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_checkpoint(path)

    def test_missing_strategy_state_rejected(self, tmp_path):
        path = tmp_path / "search.ckpt"
        path.write_text(json.dumps({"format": FORMAT_VERSION}))
        with pytest.raises(ValueError, match="no strategy state"):
            load_checkpoint(path)

    def test_open_sweeps_stale_tmp_from_killed_write(self, tmp_path):
        # A run killed between serializing and os.replace leaves
        # search.ckpt.tmp behind; the next open must clean it up without
        # touching the (valid) checkpoint itself.
        store = CheckpointStore(tmp_path / "search.ckpt")
        path = store.save(self.payload())
        stale = tmp_path / "search.ckpt.tmp"
        stale.write_text("{half a snapsho")
        reopened = CheckpointStore(tmp_path / "search.ckpt")
        assert not stale.exists()
        assert reopened.load()["program"] == "p"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["search.ckpt"]
        assert path.exists()

    def test_open_without_checkpoint_still_sweeps_tmp(self, tmp_path):
        # Repeated interrupted runs can orphan a tmp file even when no
        # checkpoint was ever completed.
        stale = tmp_path / "fresh.ckpt.tmp"
        stale.write_text("")
        store = CheckpointStore(tmp_path / "fresh.ckpt")
        assert not stale.exists()
        assert not store.exists()
