"""Replay and coverage-tracker tests."""

import pytest

from repro.checker import Checker
from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.coverage import CoverageTracker
from repro.engine.replay import replay_schedule
from repro.engine.results import Outcome
from repro.engine.strategies import explore_dfs
from repro.runtime.api import check, pause
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


class TestReplay:
    def test_replays_violation_exactly(self):
        program = racy_program()
        result = explore_dfs(program, nonfair_policy())
        found = result.violations[0]
        replayed = replay_schedule(program, found.decisions, nonfair_policy())
        assert replayed.outcome is Outcome.VIOLATION
        assert str(replayed.violation) == str(found.violation)
        assert replayed.schedule == found.schedule

    def test_replays_from_plain_indices(self):
        program = racy_program()
        result = explore_dfs(program, nonfair_policy())
        found = result.violations[0]
        replayed = replay_schedule(program, found.schedule, nonfair_policy())
        assert replayed.outcome is Outcome.VIOLATION

    def test_full_trace_recorded(self):
        program = racy_program()
        result = explore_dfs(program, nonfair_policy())
        found = result.violations[0]
        replayed = replay_schedule(program, found.decisions, nonfair_policy())
        assert len(replayed.trace) == replayed.steps

    @pytest.mark.parametrize("strategy", ["dfs", "por", "dpor"])
    def test_one_trace_format_for_every_strategy(self, strategy):
        checker = Checker(racy_program(), strategy=strategy, fairness=False)
        found = checker.run().violation
        assert {step.thread_name for step in found.trace} == {"w", "r"}
        # The search's trace is the one the plain replay records.
        assert checker.replay(found).trace == found.trace


class TestCoverageTracker:
    def test_records_new_states(self):
        tracker = CoverageTracker()
        assert tracker.record("a")
        assert not tracker.record("a")
        assert tracker.record("b")
        assert tracker.count == 2
        assert tracker.seen("a")
        assert not tracker.seen("c")

    def test_none_signature_ignored(self):
        tracker = CoverageTracker()
        assert not tracker.record(None)
        assert tracker.count == 0

    def test_history_checkpoints(self):
        tracker = CoverageTracker()
        tracker.record("a")
        tracker.end_execution()
        tracker.record("b")
        tracker.record("c")
        tracker.end_execution()
        assert tracker.history == [(1, 1), (2, 3)]

    def test_missing_from(self):
        ours = CoverageTracker()
        reference = CoverageTracker()
        for sig in ("a", "b"):
            reference.record(sig)
        ours.record("a")
        assert ours.missing_from(reference) == frozenset({"b"})
