"""Breadth-first exploration.

Section 3 of the paper notes the nondeterministic scheduler "is easy to
augment ... with a queue to perform breadth-first search".  Stateless BFS
replays one execution per *node* of the choice tree (not per leaf), which
makes it considerably more expensive than DFS; it is provided for
completeness and for finding shortest counterexamples.

Unlike DFS, the BFS frontier (the queue of pending prefixes) can grow
large; checkpoints serialize the whole queue, so ``--checkpoint-interval``
matters more here than for the other strategies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import ExecutorConfig, GuidedChooser
from repro.engine.results import ExecutionResult, ExplorationResult
from repro.engine.snapshots import PrefixSnapshotCache
from repro.engine.strategies.base import ExplorationLimits, SearchStrategy


class BfsStrategy(SearchStrategy):
    """Level-by-level search over the choice tree.

    Every queue entry is a decision prefix; running it discovers the
    branching factor at its frontier, producing one child prefix per
    alternative.  Prefixes that turn out to be complete executions are
    leaves.  The head of the queue is only popped once its execution has
    been folded in, so a checkpoint taken between the two re-runs the
    head on resume instead of losing it.
    """

    name = "bfs"

    def __init__(
        self,
        program: Program,
        policy_factory: PolicyFactory,
        config: Optional[ExecutorConfig] = None,
        limits: Optional[ExplorationLimits] = None,
        *,
        prefix: Optional[List[int]] = None,
        coverage: Optional[CoverageTracker] = None,
        listener: Optional[Callable[[ExecutionResult], None]] = None,
        observer=None,
        resilience=None,
    ) -> None:
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
        # A prefix roots the level-order walk at one subtree node; the
        # queue can never leave the subtree because children only extend
        # their parent's guide.
        self.queue: deque = deque([list(prefix or [])])
        #: Prefix-snapshot cache.  BFS revisits prefixes level by level
        #: with no lexicographic order, so there is no sound eager
        #: invalidation — the LRU memory budget is the only bound.
        self.snapshot_cache = PrefixSnapshotCache.from_config(
            self.config, program, observer=observer)

    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return bool(self.queue)

    def _run_once(self) -> ExecutionResult:
        return self._execute(GuidedChooser(self.queue[0]),
                             snapshot_cache=self.snapshot_cache)

    def _advance(self, record: ExecutionResult) -> None:
        guide: List[int] = self.queue.popleft()
        if len(record.decisions) > len(guide):
            frontier = record.decisions[len(guide)]
            for alternative in range(frontier.options):
                self.queue.append(guide + [alternative])

    # ------------------------------------------------------------------
    def _frontier_state(self) -> dict:
        return {"queue": [list(guide) for guide in self.queue]}

    def _load_frontier(self, state: dict) -> None:
        self.queue = deque(list(guide) for guide in state.get("queue", []))


def explore_bfs(
    program: Program,
    policy_factory: PolicyFactory,
    config: Optional[ExecutorConfig] = None,
    limits: Optional[ExplorationLimits] = None,
    *,
    coverage: Optional[CoverageTracker] = None,
    listener: Optional[Callable[[ExecutionResult], None]] = None,
    observer=None,
    resilience=None,
) -> ExplorationResult:
    """Search the choice tree level by level."""
    return BfsStrategy(
        program,
        policy_factory,
        config,
        limits,
        coverage=coverage,
        listener=listener,
        observer=observer,
        resilience=resilience,
    ).explore()
