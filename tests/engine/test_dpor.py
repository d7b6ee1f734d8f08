"""Unit tests of the source-DPOR strategy mechanics.

The coverage *oracle* tests (test_dpor_coverage.py) prove the reduction
sound; this file exercises the machinery around it: race counters,
checkpoint round-trips, replayability of its records, and the
explicit-transition-system resource path.
"""

from repro.checker import Checker
from repro.core.policies import fair_policy, nonfair_policy
from repro.engine.results import Outcome
from repro.engine.strategies import DporStrategy, ExplorationLimits
from repro.engine.strategies.dpor import (
    _races,
    _vector_clocks,
    _wakeup_sequence,
)
from repro.obs import Observer
from repro.runtime.program import VMProgram
from repro.statespace import TransitionSystemProgram, random_partitioned_system
from repro.sync.atomics import SharedVar
from repro.sync.mutex import Mutex
from repro.workloads.dining import dining_philosophers

LIMITS = ExplorationLimits(stop_on_first_violation=False,
                           stop_on_first_divergence=False)


def counter_program():
    def setup(env):
        x = SharedVar(0, name="x")

        def bump():
            value = yield from x.get()
            yield from x.set(value + 1)

        env.spawn(bump, name="a")
        env.spawn(bump, name="b")
        env.set_state_fn(lambda: x.peek())

    return VMProgram(setup, name="counter")


def abba_program():
    def setup(env):
        a, b = Mutex(name="a"), Mutex(name="b")

        def left():
            yield from a.acquire()
            yield from b.acquire()
            yield from b.release()
            yield from a.release()

        def right():
            yield from b.acquire()
            yield from a.acquire()
            yield from a.release()
            yield from b.release()

        env.spawn(left, name="L")
        env.spawn(right, name="R")
        env.set_state_fn(lambda: (a.owner_name(), b.owner_name()))

    return VMProgram(setup, name="abba")


class TestRaceAnalysis:
    """Vector clocks and race detection on hand-written event lists."""

    def test_program_order_is_not_a_race(self):
        tids = ["t", "t"]
        resources = [("x",), ("x",)]
        clocks = _vector_clocks(tids, resources)
        assert _races(tids, resources, clocks) == []

    def test_adjacent_dependent_pair_races(self):
        tids = ["t", "u"]
        resources = [("x",), ("x",)]
        clocks = _vector_clocks(tids, resources)
        assert _races(tids, resources, clocks) == [(0, 1)]

    def test_independent_steps_never_race(self):
        tids = ["t", "u"]
        resources = [("x",), ("y",)]
        clocks = _vector_clocks(tids, resources)
        assert _races(tids, resources, clocks) == []

    def test_transitive_hb_masks_far_race(self):
        # t(x) -> u(x,y) -> v(y): t and v are ordered only through u,
        # so only the adjacent pairs race.
        tids = ["t", "u", "v"]
        resources = [("x",), ("x", "y"), ("y",)]
        clocks = _vector_clocks(tids, resources)
        assert _races(tids, resources, clocks) == [(0, 1), (1, 2)]

    def test_wakeup_sequence_skips_dependents_of_i(self):
        # race (0, 3); step 1 depends on 0 (same resource) and is not
        # part of notdep(0); independent step 2 is.
        tids = ["t", "u", "v", "w"]
        resources = [("x",), ("x",), ("z",), ("x",)]
        clocks = _vector_clocks(tids, resources)
        idxs, initials = _wakeup_sequence(0, 3, tids, resources, clocks)
        assert idxs == [2, 3]
        assert initials == ["v", "w"]


class TestCounters:
    def run_with_observer(self, program, policy_factory):
        observer = Observer()
        result = DporStrategy(program, policy_factory, depth_bound=500,
                              limits=LIMITS, observer=observer).explore()
        return result, observer.metrics

    def test_races_detected_on_shared_counter(self):
        result, metrics = self.run_with_observer(counter_program(),
                                                 nonfair_policy())
        assert result.complete
        assert metrics.counter("dpor.races_detected").value > 0

    def test_lock_handover_on_abba(self):
        result, metrics = self.run_with_observer(abba_program(),
                                                 nonfair_policy())
        assert result.outcomes[Outcome.DEADLOCK] > 0
        assert metrics.counter("dpor.lock_handovers").value > 0

    def test_fairness_composition_runs_clean(self):
        # Under the fair policy the insertion guards must consult the
        # schedulable set; the search still terminates and finds the
        # deadlock.
        result, metrics = self.run_with_observer(abba_program(),
                                                 fair_policy())
        assert result.complete
        assert result.outcomes[Outcome.DEADLOCK] > 0


class TestCheckpointResume:
    def test_round_trip_matches_uninterrupted_run(self):
        program = dining_philosophers(2)
        baseline = DporStrategy(program, nonfair_policy(), depth_bound=300,
                                limits=LIMITS).explore()
        assert baseline.complete

        first = DporStrategy(
            program, nonfair_policy(), depth_bound=300,
            limits=ExplorationLimits(max_executions=5,
                                     stop_on_first_violation=False,
                                     stop_on_first_divergence=False))
        partial = first.explore()
        assert partial.stop_reason == "max-executions"
        state = first.state_dict()

        second = DporStrategy(program, nonfair_policy(), depth_bound=300,
                              limits=LIMITS)
        second.load_state_dict(state)
        resumed = second.explore()
        assert resumed.complete
        assert resumed.executions == baseline.executions
        assert resumed.transitions == baseline.transitions
        assert dict(resumed.outcomes) == dict(baseline.outcomes)

    def test_rejects_foreign_checkpoint(self):
        program = dining_philosophers(2)
        strategy = DporStrategy(program, nonfair_policy(), depth_bound=300)
        try:
            strategy.load_state_dict({"strategy": "dfs", "frontier": {}})
        except ValueError as exc:
            assert "dfs" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("foreign checkpoint accepted")


class TestCheckerIntegration:
    def test_replay_reproduces_deadlock(self):
        checker = Checker(abba_program(), strategy="dpor", fairness=False)
        result = checker.run()
        assert result.exploration.deadlocks
        record = result.exploration.deadlocks[0]
        replayed = checker.replay(record)
        assert replayed.outcome is Outcome.DEADLOCK
        assert [d.chosen for d in replayed.decisions] == \
            [d.chosen for d in record.decisions]

    def test_prefix_confinement_rejected(self):
        try:
            DporStrategy(dining_philosophers(2), nonfair_policy(),
                         prefix=[0])
        except ValueError as exc:
            assert "prefix" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("prefix accepted")


class TestExplicitSystems:
    def test_partitioned_system_verdicts_match_dfs(self):
        for seed in (0, 1, 2, 3, 4):
            program = TransitionSystemProgram(
                random_partitioned_system(seed))
            dpor = Checker(program, strategy="dpor", fairness=False,
                           depth_bound=200).run()
            dfs = Checker(program, strategy="dfs", fairness=False,
                          depth_bound=200).run()
            assert dpor.ok == dfs.ok
            assert dpor.exploration.executions <= dfs.exploration.executions

    def test_declared_footprints_reduce(self):
        # Across a handful of seeds the honest footprints must buy a
        # strict reduction at least once (they nearly always do).
        reduced = False
        for seed in range(6):
            program = TransitionSystemProgram(
                random_partitioned_system(seed))
            dpor = Checker(program, strategy="dpor", fairness=False,
                           depth_bound=200).run()
            dfs = Checker(program, strategy="dfs", fairness=False,
                          depth_bound=200).run()
            if dpor.exploration.executions < dfs.exploration.executions:
                reduced = True
        assert reduced
