"""The benchmark's workloads and the verdict oracle of each.

Each workload is one ``Checker(...).run()`` on a program from the paper.
``repro`` is imported inside the functions, so the runner can list the
workloads without importing the package under test.  Why each workload
was chosen is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Dict, List

#: The benchmark's workloads, in the order ``run.py`` documents them.
WORKLOADS = ("search", "livelock", "coverage")

#: Worker processes of the ``parallel`` configuration: the ``search``
#: configuration on the parallel pool, which the traced ``search`` run
#: measures (the 2-core reference host's ``nproc``; fixed so that
#: results do not depend on the host).
PARALLEL_WORKERS = 2

#: (executions, transitions) of the full bounded search of ``search``,
#: recorded when the benchmark was defined.  DFS enumerates the bounded
#: execution tree, so these depend only on the program and the bounds;
#: ``parallel`` must merge to the same totals.
SEARCH_TOTALS = (13979, 363564)

#: Reachable states of ``work_stealing_queue(items=1, stealers=1)``
#: according to the stateful ground truth
#: (``repro.statespace.stateful.stateful_state_count``); the unfair
#: random-completion search covered all of them on every seed tried.
COVERAGE_STATES = 26


def build(name: str, seed: int, observer=None):
    """The configured ``Checker`` of workload (or of ``"parallel"``)
    ``name`` for ``seed``."""
    from repro import Checker

    if name in ("search", "parallel"):
        from repro.workloads.dining import dining_philosophers

        return Checker(
            dining_philosophers(3), strategy="dfs", depth_bound=400,
            preemption_bound=3, seed=seed, observer=observer,
            workers=PARALLEL_WORKERS if name == "parallel" else 1,
        )
    if name == "livelock":
        from repro.workloads.dining import dining_philosophers_livelock

        return Checker(
            dining_philosophers_livelock(3), strategy="dpor",
            depth_bound=400, seed=seed, observer=observer,
        )
    if name == "coverage":
        from repro.workloads.wsq import work_stealing_queue

        return Checker(
            work_stealing_queue(items=1, stealers=1), fairness=False,
            depth_bound=30, preemption_bound=1, collect_coverage=True,
            seed=seed, observer=observer,
        )
    raise ValueError(f"unknown workload {name!r}")


def counts(result) -> Dict[str, int]:
    """The deterministic totals of one run (they must repeat per seed)."""
    exploration = result.exploration
    return {
        "executions": exploration.executions,
        "transitions": exploration.transitions,
        "states": exploration.states_covered or 0,
    }


def check(name: str, checker, result) -> List[str]:
    """Problems with the verdict of workload ``name``; empty when correct."""
    exploration = result.exploration
    problems: List[str] = []
    if name in ("search", "parallel", "coverage"):
        if not result.ok:
            problems.append("verdict is FAIL, expected PASS")
        if not exploration.complete:
            problems.append("bounded search did not complete")
    if name in ("search", "parallel"):
        totals = (exploration.executions, exploration.transitions)
        if totals != SEARCH_TOTALS:
            problems.append(
                f"(executions, transitions) = {totals}, expected the "
                f"serial search totals {SEARCH_TOTALS}")
    if name == "coverage":
        covered = exploration.states_covered or 0
        if covered < COVERAGE_STATES:
            problems.append(f"covered {covered} states, baseline "
                            f"{COVERAGE_STATES}")
    if name == "livelock":
        problems.extend(_check_livelock(checker, result))
    return problems


def _check_livelock(checker, result) -> List[str]:
    from repro.engine.replay import replay_schedule
    from repro.engine.results import DivergenceKind, Outcome

    record = result.livelock
    if record is None:
        return ["no livelock reported"]
    replayed = replay_schedule(checker.program, record.decisions,
                               checker.policy_factory, checker.config)
    if (replayed.outcome is not Outcome.DIVERGENCE
            or replayed.divergence is None
            or replayed.divergence.kind is not DivergenceKind.LIVELOCK):
        return [f"livelock schedule replays to {replayed.outcome.value} "
                f"({replayed.divergence}), not to a livelock"]
    return []
