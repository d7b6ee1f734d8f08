"""Strategy × option conformance: every strategy honours every option.

Each cell runs one ``Checker`` option on a small program made to expose
it, under each of the six strategies, and requires the verdict ``dfs``
reaches.  A strategy that dropped the option — never ran a monitor,
pruned where the fair checker reports divergence, ignored the
preemption bound — would reach a different verdict.

The second half checks replay fidelity: every record a full ``por`` or
``dpor`` search produces replays through ``replay_schedule`` to the same
thread sequence and outcome.
"""

import time

import pytest

from repro.checker import Checker
from repro.engine.monitors import never
from repro.engine.replay import replay_schedule
from repro.engine.results import Outcome
from repro.engine.strategies import (
    DporStrategy,
    ExplorationLimits,
    SleepSetStrategy,
)
from repro.runtime.api import check, choose, pause
from repro.runtime.program import VMProgram
from repro.sync.atomics import AtomicCell, SharedVar

STRATEGIES = ["dfs", "bfs", "random", "icb", "por", "dpor"]
REDUCERS = {"por": SleepSetStrategy, "dpor": DporStrategy}


def monitored_program():
    """Two independent flips; the monitor forbids both flags up at once,
    which only an interleaving reaches."""

    def setup(env):
        x, y = SharedVar(0, name="x"), SharedVar(0, name="y")

        def flip(var):
            yield from var.set(1)
            yield from var.set(0)

        env.spawn(flip, x, name="a")
        env.spawn(flip, y, name="b")
        env.add_monitor(never(lambda: x.peek() and y.peek(), "both raised"))

    return VMProgram(setup, name="monitored")


def choice_program():
    """The bug needs ``choose(3)`` to return 2."""

    def setup(env):
        x = SharedVar(0, name="x")

        def picker():
            lane = yield from choose(3)
            yield from x.set(lane)

        def reader():
            value = yield from x.get()
            check(value != 2, "lane 2 observed")

        env.spawn(picker, name="p")
        env.spawn(reader, name="r")

    return VMProgram(setup, name="choice")


def spinning_program():
    """A thread spinning without yielding on a flag nobody sets: every
    execution diverges, and the fair checker reports it."""

    def setup(env):
        flag = SharedVar(0, name="flag")

        def spinner():
            while (yield from flag.get()) == 0:
                pass

        def bystander():
            yield from pause()

        env.spawn(spinner, name="s")
        env.spawn(bystander, name="b")

    return VMProgram(setup, name="spinning")


def late_bug_program():
    """The violation lies past the depth bound: only random completion
    reaches it."""

    def setup(env):
        def worker():
            for _ in range(30):
                yield from pause()
            check(False, "worker reached its end")

        def other():
            yield from pause()

        env.spawn(worker, name="w")
        env.spawn(other, name="o")

    return VMProgram(setup, name="late-bug")


def racy_program():
    """Seeing the intermediate write takes one preemption of ``w``."""

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


def slow_program():
    """Each step takes wall time, so every execution overruns a tight
    budget."""

    def setup(env):
        def sleeper():
            for _ in range(3):
                time.sleep(0.01)
                yield from pause()

        env.spawn(sleeper, name="s")
        env.spawn(sleeper, name="t")

    return VMProgram(setup, name="slow")


def crashing_program():
    """The reader raises a plain exception under one interleaving."""

    def setup(env):
        x = SharedVar(0, name="x")

        def writer():
            yield from x.set(1)

        def reader():
            value = yield from x.get()
            if value == 1:
                raise ValueError("reader crashed")

        env.spawn(writer, name="w")
        env.spawn(reader, name="r")

    return VMProgram(setup, name="crashing")


#: option -> (program factory, Checker keyword arguments, dfs's verdict).
OPTIONS = {
    "monitor": (monitored_program, {}, "violation"),
    "choose": (choice_program, {}, "violation"),
    "fair-divergence": (spinning_program, dict(depth_bound=40),
                        "divergence"),
    "nonfair-completion": (late_bug_program,
                           dict(fairness=False, depth_bound=10),
                           "violation"),
    "preemption-bound-0": (racy_program, dict(preemption_bound=0), "pass"),
    "preemption-bound-1": (racy_program, dict(preemption_bound=1),
                           "violation"),
    "execution-budget": (slow_program,
                         dict(execution_budget_seconds=0.005), "aborted"),
    "capture-crashes": (crashing_program, dict(max_crashes=1), "crash"),
}


def verdict(result) -> str:
    exploration = result.exploration
    if exploration.violations or exploration.deadlocks:
        return "violation"
    if exploration.crashes:
        return "crash"
    if result.livelock is not None or result.gs_violation is not None:
        return "divergence"
    if exploration.aborted_executions:
        return "aborted"
    return "pass"


def run(option, strategy):
    factory, kwargs, _ = OPTIONS[option]
    checker = Checker(factory(), strategy=strategy, random_executions=30,
                      seed=1, **kwargs)
    return checker, checker.run()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_strategy_reaches_the_dfs_verdict(option, strategy):
    checker, result = run(option, strategy)
    assert verdict(result) == OPTIONS[option][2]
    record = result.violation or result.crashed or result.divergence
    if record is not None:
        # The counterexample is one the plain executor reproduces.
        replayed = checker.replay(record)
        assert replayed.outcome is record.outcome
        assert [d.chosen for d in replayed.decisions] == \
            [d.chosen for d in record.decisions]


@pytest.mark.parametrize("strategy", ["por", "dpor"])
def test_preemption_bound_is_counted(strategy):
    _, result = run("preemption-bound-1", strategy)
    assert result.violation.preemptions == 1


# ----------------------------------------------------------------------
# replay fidelity
# ----------------------------------------------------------------------
def lost_update_program():
    """Two unlocked read-modify-write increments, the second finisher
    checking the total, beside a third thread whose writes are
    independent of both (sleep sets prune its permutations)."""

    def setup(env):
        counter = SharedVar(0, name="counter")
        finished = AtomicCell(0, name="finished")
        other = SharedVar(0, name="other")

        def bump():
            value = yield from counter.get()
            yield from counter.set(value + 1)
            if (yield from finished.fetch_add(1)) == 1:
                total = yield from counter.get()
                check(total == 2, "lost update")

        def bystander():
            yield from other.set(1)
            yield from other.set(2)

        env.spawn(bump, name="b0")
        env.spawn(bump, name="b1")
        env.spawn(bystander, name="o")

    return VMProgram(setup, name="lost-update")


@pytest.mark.parametrize("strategy", ["por", "dpor"])
def test_every_record_replays(strategy):
    records = []
    checker = Checker(lost_update_program(), depth_bound=100)
    search = REDUCERS[strategy](
        checker.program, checker.policy_factory, config=checker.config,
        limits=ExplorationLimits(stop_on_first_violation=False,
                                 stop_on_first_divergence=False),
        listener=records.append)
    assert search.explore().complete
    assert any(r.outcome is Outcome.VIOLATION for r in records)
    for record in records:
        replayed = replay_schedule(checker.program, record.decisions,
                                   checker.policy_factory, checker.config)
        chosen = [d.chosen for d in record.decisions]
        assert [d.chosen for d in replayed.decisions][:len(chosen)] == chosen
        if record.outcome is not Outcome.VISITED_PRUNED:
            # A sleep-blocked record ends at a sleep-set cut, which a
            # plain replay does not make; it replays its whole prefix.
            assert len(replayed.decisions) == len(chosen)
            assert replayed.outcome is record.outcome
