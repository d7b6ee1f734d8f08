"""Sleep-set partial-order reduction (the paper's Section 5 outlook).

The paper notes that partial-order reduction "can be used to significantly
reduce the set of all fair schedules of fair-terminating programs, an
interesting avenue of future research".  This module implements the
classic sleep-set algorithm (Godefroid) on top of the stateless engine:

* when a state is expanded, each explored thread is added to the *sleep
  set* seen by its later siblings;
* a child inherits the sleep set filtered by **independence** with the
  executed transition — two transitions of different threads are
  independent iff both declare resource sets
  (:meth:`repro.runtime.ops.Operation.resources`) and those sets are
  disjoint;
* sleeping threads are not scheduled, pruning executions that only
  permute independent transitions.

Sleep sets preserve deadlocks and safety violations.  Soundness relies on
the runtime contract that all shared effects go through operations (plain
Python code between scheduling points is thread-local) — the same
contract the precise-signature machinery uses.  A safety or temporal
monitor reads shared state after every step, outside any footprint, so
an execution with monitors treats every pair of steps as dependent.

The sleep sets ride along the one executor loop
(:func:`repro.engine.executor.run_execution`) as a :class:`SleepSets`
hook, which source-DPOR (:mod:`repro.engine.strategies.dpor`) shares.
Decisions index the full sorted schedulable set, as every strategy's do,
so any record replays with ``replay_schedule``.  Because the search is
stateless, the sleep sets along a replayed prefix are recomputed from the
guide: at a decision with chosen index ``k``, the already-explored
siblings are exactly ``options[:k]``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig, GuidedChooser
from repro.engine.results import ExecutionResult, ExplorationResult
from repro.engine.strategies.base import ExplorationLimits
from repro.engine.strategies.dfs import DfsStrategy

Resources = Optional[Tuple]


def footprints(instance) -> Callable[[object], Resources]:
    """Per-thread resource footprint of the next transition in
    ``instance`` (None = unknown).

    VM programs expose it through the pending operation; explicit
    transition systems through :meth:`pending_resources` when their
    threads declare footprints (``None`` otherwise — no reduction, every
    pair conservatively dependent).
    """
    getter = getattr(instance, "pending_resources", None)
    if getter is not None:
        return getter
    tasks = getattr(instance, "task", None)
    if tasks is None:
        return _unknown_footprint

    def footprint(tid) -> Resources:
        op = tasks(tid).pending
        return None if op is None else op.resources()

    return footprint


def dependent(res_a: Resources, res_b: Resources) -> bool:
    """Dependence of two steps of *different* threads by footprint."""
    if res_a is None or res_b is None:
        return True
    return bool(set(res_a) & set(res_b))


def _unknown_footprint(tid) -> Resources:
    return None


def bounded_config(config: Optional[ExecutorConfig],
                   depth_bound: Optional[int]) -> ExecutorConfig:
    """The executor configuration of a partial-order strategy: without a
    ``config`` the depth bound prunes, as the reducers always have."""
    config = config or ExecutorConfig(on_depth_exceeded="prune")
    if depth_bound is None:
        return config
    return dataclasses.replace(config, depth_bound=depth_bound)


class SleepSets:
    """:func:`~repro.engine.executor.run_execution` hook carrying sleep
    sets along one execution.

    ``guide`` is the decision-index prefix the chooser replays.  Inside
    it the chooser decides.  Beyond it, a ``tail`` of thread ids starting
    at step ``forced_from`` is forced one step at a time (DPOR's wakeup
    sequences) until a forced thread is not among the options; after
    that the candidates are the options not asleep, so the chooser's
    default (index 0) takes the first of them.  Per executed step the
    hook records the options the chooser indexed and the sleep set
    entering that node (inherited plus the siblings already explored
    there).

    ``pinned`` is the length of a shard prefix.  A pinned decision can
    name a sleeping thread — the planner partitions the full tree, not
    the reduced one — and the subtree below it is then outside the
    reduced tree (``outside``), except for the sleep-blocked execution
    at a node where every option sleeps, which the all-zeros shard below
    that node owns.
    """

    def __init__(self, guide: Sequence[int], *, pinned: int = 0,
                 tail: Sequence = (), forced_from: int = 0,
                 observer=None) -> None:
        self.guide = guide
        self.pinned = pinned
        self.tail = tail
        self.forced_from = forced_from
        self.observer = observer
        self.outside = False
        #: Sleep set of the current state, inherited from its parent.
        self.sleep: FrozenSet = frozenset()
        #: Per executed step: the options the chooser indexed ...
        self.options: List[list] = []
        #: ... and the sleep set entering that node.
        self.sleeps: List[FrozenSet] = []
        self._footprint: Callable[[object], Resources] = _unknown_footprint
        self._node: Tuple = ((), frozenset())
        self._entering: FrozenSet = frozenset()
        self._executed: Resources = None

    # ------------------------------------------------------------------
    def begin(self, instance, extras, monitored: bool) -> None:
        if not monitored:
            self._footprint = footprints(instance)
        if extras:
            self.sleep = extras["sleep"]
            self.options = list(extras["options"])
            self.sleeps = list(extras["sleeps"])

    def extras(self) -> dict:
        return {"sleep": self.sleep, "options": tuple(self.options),
                "sleeps": tuple(self.sleeps)}

    def choices(self, position: int, steps: int, options: list,
                enabled) -> list:
        self._node = (options, enabled)
        sleep = self.sleep
        if position < len(self.guide):
            index = self.guide[position]
            if index < len(options) and options[index] in sleep:
                owner = (all(t in sleep for t in options)
                         and not any(self.guide[position:self.pinned]))
                self.outside = not owner
                return []
            return options
        forced = steps - self.forced_from
        if 0 <= forced < len(self.tail):
            wanted = self.tail[forced]
            if wanted in options:
                return [wanted]
            # Wakeup tail made infeasible by the policy (fairness
            # priorities shifted) or the preemption bound: the default
            # extension takes over.
            self.tail = ()
            if self.observer is not None:
                self.observer.dpor_wakeup_abandoned()
        if not sleep:
            return options
        return [t for t in options if t not in sleep]

    def before_step(self, instance, tid) -> None:
        options = self._node[0]
        # The siblings explored before ``tid`` here are ``options[:k]``.
        entering = self.sleep.union(options[:options.index(tid)])
        self.options.append(options)
        self.sleeps.append(entering)
        self._entering = entering
        self._executed = self._footprint(tid)

    def after_step(self, instance, tid) -> None:
        entering = self._entering
        if not entering:
            self.sleep = entering
            return
        executed = self._executed
        footprint = self._footprint
        self.sleep = frozenset(
            u for u in entering
            if u != tid and not dependent(footprint(u), executed))

    def finish(self, instance, outcome, completed_randomly: bool) -> None:
        """Sleep sets alone collect nothing at the end."""


class SleepSetStrategy(DfsStrategy):
    """Depth-first search with sleep-set partial-order reduction.

    The frontier is plain DFS's (guide) frontier; the sleep sets
    themselves are recomputed deterministically from the guide on every
    execution, so they need no checkpoint state of their own.  The
    prefix-snapshot cache applies as for DFS, each snapshot carrying the
    walk's sleep sets in its extras.  Random completion derives its
    generator from the decision prefix (not the frontier's), so every
    record replays with ``replay_schedule``.
    """

    name = "por"

    def __init__(
        self,
        program: Program,
        policy_factory: PolicyFactory,
        *,
        depth_bound: Optional[int] = None,
        limits: Optional[ExplorationLimits] = None,
        prefix: Optional[List[int]] = None,
        coverage: Optional[CoverageTracker] = None,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
        observer=None,
        resilience=None,
        config: Optional[ExecutorConfig] = None,
    ) -> None:
        super().__init__(
            program,
            policy_factory,
            bounded_config(config, depth_bound),
            limits,
            coverage=coverage,
            listener=listener,
            strategy_name="dfs+sleepsets",
            prefix=prefix,
            observer=observer,
            resilience=resilience,
        )
        self._walk: Optional[SleepSets] = None

    def _run_once(self) -> Optional[ExecutionResult]:
        walk = self._walk = SleepSets(self.guide, pinned=len(self.prefix))
        record = self._execute(GuidedChooser(self.guide),
                               snapshot_cache=self.snapshot_cache, hook=walk)
        if walk.outside:
            self.guide = None
            return None
        return record

    def _next_guide(self, record: ExecutionResult) -> Optional[List[int]]:
        """The next guide in DFS order, skipping siblings asleep at their
        node (:func:`~repro.engine.strategies.base.next_dfs_guide` over
        the reduced tree)."""
        decisions, walk = record.decisions, self._walk
        step = len(walk.options)
        for i in range(len(decisions) - 1, -1, -1):
            decision = decisions[i]
            index = decision.index + 1
            if decision.kind == "thread":
                step -= 1
                options, sleep = walk.options[step], walk.sleeps[step]
                while index < decision.options and options[index] in sleep:
                    index += 1
            if index < decision.options:
                return [d.index for d in decisions[:i]] + [index]
        return None


def explore_dfs_sleepsets(
    program: Program,
    policy_factory: PolicyFactory,
    *,
    depth_bound: Optional[int] = None,
    limits: Optional[ExplorationLimits] = None,
    coverage: Optional[CoverageTracker] = None,
    listener: Optional[Callable[[ExecutionResult], None]] = None,
    observer=None,
    resilience=None,
    config: Optional[ExecutorConfig] = None,
) -> ExplorationResult:
    """Depth-first search with sleep-set partial-order reduction."""
    return SleepSetStrategy(
        program,
        policy_factory,
        depth_bound=depth_bound,
        limits=limits,
        coverage=coverage,
        listener=listener,
        observer=observer,
        resilience=resilience,
        config=config,
    ).explore()
