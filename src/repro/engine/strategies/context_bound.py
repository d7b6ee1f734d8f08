"""Context-bounded search (Musuvathi & Qadeer, PLDI 2007) + fairness.

A *preemption* is a context switch forced by the scheduler while the
current thread is still enabled.  Context-bounded search explores only
executions with at most ``c`` preemptions; empirically most bugs need very
few.  Table 2 of the fair-scheduling paper evaluates ``cb = 1..3``.

Integration with fairness (Section 4): a switch forced by the priority
relation — the running thread is enabled but no longer schedulable — is
**not** counted against the bound, otherwise fair search would be unsound
at small bounds.  The accounting itself lives in the executor; this module
provides the strategy wrappers and the iterative sweep.

Checkpointing: an ICB snapshot holds the current bound, the serialized
results of every finished sweep, and the in-flight inner DFS frontier, so
``--resume`` picks the sweep back up mid-bound.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig
from repro.engine.results import ExecutionResult, ExplorationResult
from repro.engine.strategies.base import ExplorationLimits, SearchStrategy
from repro.engine.strategies.dfs import DfsStrategy
from repro.resilience.checkpoint import (
    exploration_from_state,
    exploration_to_state,
)


def merge_sweeps(program_name: str, policy_name: str,
                 sweeps) -> ExplorationResult:
    """Fold the per-bound results of an ICB sweep into one summary."""
    merged = ExplorationResult(
        program_name=program_name,
        policy_name=policy_name,
        strategy_name=f"icb(<= {len(sweeps) - 1})",
    )
    for result in sweeps:
        merged.absorb(result)
        merged.wall_seconds += result.wall_seconds
        merged.limit_hit = merged.limit_hit or result.limit_hit
    merged.complete = all(result.complete for result in sweeps)
    if sweeps:
        merged.stop_reason = sweeps[-1].stop_reason
    if sweeps and sweeps[-1].states_covered is not None:
        merged.states_covered = sweeps[-1].states_covered
    return merged


class IcbStrategy(SearchStrategy):
    """Iterative context bounding: DFS sweeps at bounds 0, 1, ..., max.

    Unlike the single-frontier strategies, :meth:`explore` returns the
    *list* of per-bound :class:`ExplorationResult`\\ s (the callers merge
    them with :func:`merge_sweeps`).  Each sweep is an inner
    :class:`DfsStrategy` whose ``root`` points back here, so checkpoints
    taken mid-sweep capture the whole sweep history plus the in-flight
    DFS frontier.
    """

    name = "icb"

    def __init__(
        self,
        program: Program,
        policy_factory: PolicyFactory,
        max_bound: int,
        config: Optional[ExecutorConfig] = None,
        limits: Optional[ExplorationLimits] = None,
        *,
        coverage: Optional[CoverageTracker] = None,
        stop_on_violation: bool = True,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
        observer=None,
        resilience=None,
    ) -> None:
        if max_bound < 0:
            raise ValueError("preemption bound must be non-negative")
        super().__init__(
            program,
            policy_factory,
            config or ExecutorConfig(),
            limits,
            coverage=coverage,
            listener=listener,
            observer=observer,
            resilience=resilience,
        )
        self.max_bound = max_bound
        self.stop_on_violation = stop_on_violation
        self.bound = 0
        #: Serialized results of finished sweeps (JSON round-trippable).
        self.completed: List[dict] = []
        self._current_inner: Optional[DfsStrategy] = None
        self._inner_state: Optional[dict] = None

    # ------------------------------------------------------------------
    def _completed_executions(self) -> int:
        return sum(int(state.get("executions", 0))
                   for state in self.completed)

    def _make_inner(self, bound: int) -> DfsStrategy:
        config = dataclasses.replace(self.config, preemption_bound=bound)
        limits = self.limits
        if limits is not None and limits.max_executions is not None:
            # The execution budget is a property of the whole sweep
            # sequence; charge this sweep only what the finished sweeps
            # left over, so ``max_executions`` bounds the merged total
            # (and resume-with-raised-cap slices each bound exactly).
            remaining = max(0, limits.max_executions
                            - self._completed_executions())
            limits = dataclasses.replace(limits, max_executions=remaining)
        inner = DfsStrategy(
            self.program,
            self.policy_factory,
            config,
            limits,
            coverage=self.coverage,
            listener=self.listener,
            strategy_name=f"cb={bound}",
            observer=self.observer,
            resilience=self.resilience,
        )
        inner.root = self
        return inner

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {
            "strategy": self.name,
            "frontier": {
                "bound": self.bound,
                "max_bound": self.max_bound,
                "completed": self.completed,
            },
        }
        if self._current_inner is not None:
            state["inner"] = self._current_inner.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        recorded = state.get("strategy")
        if recorded != self.name:
            raise ValueError(
                f"checkpoint was written by strategy {recorded!r}, "
                f"cannot resume it with {self.name!r}"
            )
        frontier = state.get("frontier") or {}
        self.bound = frontier.get("bound", 0)
        self.max_bound = frontier.get("max_bound", self.max_bound)
        self.completed = list(frontier.get("completed", []))
        self._inner_state = state.get("inner")

    # ------------------------------------------------------------------
    def explore(self) -> List[ExplorationResult]:
        results = [exploration_from_state(s) for s in self.completed]
        while self.bound <= self.max_bound:
            inner = self._make_inner(self.bound)
            if self._inner_state is not None:
                inner.load_state_dict(self._inner_state)
                self._inner_state = None
            self._current_inner = inner
            result = inner.explore()
            self._current_inner = None
            results.append(result)
            if result.interrupted:
                break
            if result.limit_hit and not result.complete:
                # A resource limit cut the sweep short.  Keep the bound
                # in flight — exactly like an interrupt — so a resumed
                # search continues this sweep from its frontier instead
                # of recording a truncated sweep and skipping to the
                # next bound (which would explore a different space).
                break
            self.completed.append(exploration_to_state(result))
            if self.observer is not None:
                self.observer.icb_sweep(self.bound, result)
            self.bound += 1
            if self.stop_on_violation and result.found_violation:
                break
        return results


def explore_context_bounded(
    program: Program,
    policy_factory: PolicyFactory,
    bound: int,
    config: Optional[ExecutorConfig] = None,
    limits: Optional[ExplorationLimits] = None,
    *,
    coverage: Optional[CoverageTracker] = None,
    listener: Optional[Callable[[ExecutionResult], None]] = None,
    observer=None,
    resilience=None,
) -> ExplorationResult:
    """DFS over all executions with at most ``bound`` preemptions."""
    if bound < 0:
        raise ValueError("preemption bound must be non-negative")
    config = dataclasses.replace(config or ExecutorConfig(),
                                 preemption_bound=bound)
    return DfsStrategy(
        program,
        policy_factory,
        config,
        limits,
        coverage=coverage,
        listener=listener,
        strategy_name=f"cb={bound}",
        observer=observer,
        resilience=resilience,
    ).explore()


def iterative_context_bounding(
    program: Program,
    policy_factory: PolicyFactory,
    max_bound: int,
    config: Optional[ExecutorConfig] = None,
    limits: Optional[ExplorationLimits] = None,
    *,
    coverage: Optional[CoverageTracker] = None,
    stop_on_violation: bool = True,
    observer=None,
    resilience=None,
) -> List[ExplorationResult]:
    """Run searches with bounds 0, 1, ..., ``max_bound`` in order.

    Returns one :class:`ExplorationResult` per bound; stops early at the
    first bound that finds a violation when ``stop_on_violation`` is set.
    """
    return IcbStrategy(
        program,
        policy_factory,
        max_bound,
        config,
        limits,
        coverage=coverage,
        stop_on_violation=stop_on_violation,
        observer=observer,
        resilience=resilience,
    ).explore()
