"""Source-DPOR with wakeup trees (ROADMAP item 4).

Sleep sets (:mod:`repro.engine.strategies.por`) prune *within* the
explored tree but still enumerate every branch of it; dynamic
partial-order reduction only *creates* branches where two executed
transitions actually raced.  This module implements the source-set
variant of Abdulla, Aronis, Jonsson and Sagonas ("Optimal dynamic
partial order reduction", POPL 2014) on top of the stateless engine:

* after every execution, a happens-before relation over the recorded
  steps is computed with vector clocks — two steps of different threads
  are dependent iff either declares no resource set
  (:meth:`repro.runtime.ops.Operation.resources`) or the sets intersect;
* each *race* — a happens-before-adjacent dependent pair ``(i, j)`` of
  different threads — asks for the reversal to be explored from the
  state before step ``i``; the candidate continuation is the **wakeup
  sequence** ``notdep(i) · tid(j)``: the steps between ``i`` and ``j``
  that do not depend on ``i``, followed by ``j`` itself;
* the sequence is inserted at node ``i`` only if none of its **weak
  initials** (threads whose first step in the sequence has no dependent
  predecessor inside it) is already asleep, already explored, or already
  queued there — the wakeup-tree guard that keeps the search from
  re-running sleep-set-blocked permutations;
* sleep sets still ride along every execution, so a branch whose entire
  schedulable set is asleep stops immediately (``VISITED_PRUNED``).

Fairness composition: backtrack points are chosen among what the
*policy* deems schedulable at the insertion node, never the raw enabled
set.  A thread the fair scheduler blocks (its priority is lower and it
yielded) is not a valid race partner *at that node* — scheduling it
would diverge from any schedule the fair search can produce.  When the
preferred initial of a wakeup sequence is fairness-blocked, another weak
initial (which commutes to the front) is used; when none is schedulable
the insertion is skipped and counted (``dpor.fairness_skipped``) — the
reversal is not lost, it reappears at a node where the thread is
schedulable, exactly like the paper's fair scheduler re-enables
low-priority threads once the spinning thread yields control.

Every execution runs through the one executor loop
(:func:`repro.engine.executor.run_execution`) with a :class:`DporWalk`
hook — the sleep-set hook POR uses, plus the per-step footprints the
race analysis reads.  The stack replays through an ordinary decision
guide and the wakeup tail is forced thread by thread, so recorded
:class:`~repro.engine.results.Decision` entries index the full sorted
schedulable set and a DPOR record replays with the ordinary
``replay_schedule``/``Checker.replay`` machinery.  Data choices
(``choose()``) never race; their values are enumerated per step.

The prefix-snapshot cache is deliberately declined: race detection needs
the resource footprint of *every* step, and resource sets are
``id()``-based — only valid within one program instance.  A restored
prefix re-executes on a fresh instance (`snapshots.py`), so footprints
recorded before the restore could neither be trusted nor recovered.
Correctness first; the cache keeps accelerating the enumerative
strategies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.coverage import CoverageTracker
from repro.engine.executor import (
    ExecutorConfig,
    GuidedChooser,
    run_execution,
    sorted_options,
)
from repro.engine.results import ExecutionResult, ExplorationResult, Outcome
from repro.engine.strategies.base import ExplorationLimits, SearchStrategy
from repro.engine.strategies.por import (
    Resources,
    SleepSets,
    bounded_config,
    dependent as _dependent,
)


def _alive_pending(instance, footprint) -> List[Tuple]:
    """``(tid, resources)`` of every thread that has not finished."""
    tasks = getattr(instance, "task", None)
    if tasks is not None:
        alive = [tid for tid in instance.thread_ids()
                 if not tasks(tid).done and tasks(tid).pending is not None]
    else:
        live = getattr(instance, "live_threads", None)
        alive = live() if live is not None else ()
    return [(tid, footprint(tid)) for tid in sorted_options(alive)]


class DporWalk(SleepSets):
    """The sleep-set hook plus what the race analysis reads: per-step
    thread, footprint and enabled set, and the pending operations left
    at the end of the execution.

    ``stack`` nodes replay through the guide; their ``done`` siblings
    join the sleep set entering the node.  The wakeup ``tail`` beyond
    the stack is forced thread by thread.
    """

    def __init__(self, guide: Sequence[int], stack: Sequence[dict],
                 tail: Sequence, *, observer=None,
                 on_final_state: Optional[Callable] = None) -> None:
        super().__init__(guide, tail=tail, forced_from=len(stack),
                         observer=observer)
        self.dones = [node["done"] for node in stack]
        self.on_final_state = on_final_state
        self.tids: List = []
        self.resources: List[Resources] = []
        #: Raw enabled set at each step — distinguishes a race partner the
        #: fair policy blocked from one the program itself disabled.
        self.enableds: List[frozenset] = []
        #: ``(tid, resources)`` of threads still alive at the end of the
        #: execution — blocked at a deadlock/terminal state, or cut short
        #: by a violation.  Their pending operations never executed, so
        #: the executed-pair race analysis cannot see them; they race
        #: like FG-DPOR's next-transitions instead.
        self.final_pending: List[Tuple] = []

    def before_step(self, instance, tid) -> None:
        options, enabled = self._node
        step = len(self.tids)
        entering = self.sleep
        if step < len(self.dones):
            entering = entering.union(self.dones[step])
        executed = self._footprint(tid)
        self.options.append(options)
        self.sleeps.append(entering)
        self.tids.append(tid)
        self.resources.append(executed)
        self.enableds.append(enabled)
        self._entering = entering
        self._executed = executed

    def finish(self, instance, outcome, completed_randomly: bool) -> None:
        if outcome is Outcome.VISITED_PRUNED:
            # Everything schedulable is asleep: this branch only permutes
            # independent transitions of an explored execution.  Its
            # *blocked pending* operations are new information though —
            # the equivalent explored execution reached this
            # configuration mid-run (where pending ops are never
            # analyzed) or with different guard values, so a race
            # against a never-executed transition can be visible here
            # and nowhere else.  The insertion guards drop the redundant
            # ones.
            if self.observer is not None:
                self.observer.dpor_sleep_blocked()
        if not completed_randomly and outcome in (
                Outcome.TERMINATED, Outcome.DEADLOCK, Outcome.VISITED_PRUNED,
                Outcome.VIOLATION, Outcome.CRASHED):
            # Threads still alive here never executed their pending
            # operation; it must race like an executed step would
            # (explicit systems report no-enabled as TERMINATED even
            # when threads are merely blocked — collect on both paths).
            # A violating or crashing step did execute.  (A random
            # completion's final state lies past the analyzed steps.)
            cut = (self.tids[-1:] if outcome in (Outcome.VIOLATION,
                                                 Outcome.CRASHED) else ())
            self.final_pending = [
                (u, res) for u, res
                in _alive_pending(instance, self._footprint) if u not in cut]
        if self.on_final_state is not None and outcome in (
                Outcome.TERMINATED, Outcome.DEADLOCK):
            self.on_final_state(instance, outcome)


def _run_once_dpor(
    program: Program,
    policy,
    stack: Sequence[dict],
    tail: Sequence,
    config: ExecutorConfig,
    *,
    coverage: Optional[CoverageTracker] = None,
    observer=None,
    on_final_state: Optional[Callable] = None,
) -> Tuple[ExecutionResult, DporWalk]:
    """One execution: replay the ``stack`` through the guide, force the
    wakeup ``tail``, then extend with the first thread not asleep."""
    guide: List[int] = []
    for node in stack:
        guide.append(node["schedulable"].index(node["choice"]))
        guide.extend(index for index, _ in node["data"])
    walk = DporWalk(guide, stack, tail, observer=observer,
                    on_final_state=on_final_state)
    record = run_execution(program, policy, GuidedChooser(guide), config,
                           coverage=coverage, observer=observer, hook=walk)
    return record, walk


def _data_per_step(decisions) -> List[List[List[int]]]:
    """``[index, options]`` of the data choices made inside each step."""
    per_step: List[List[List[int]]] = []
    for decision in decisions:
        if decision.kind == "thread":
            per_step.append([])
        else:
            per_step[-1].append([decision.index, decision.options])
    return per_step


def _next_data(data: List[List[int]]) -> bool:
    """Advance a step's data choices to their next combination (the
    deepest choice with an untried value); False when exhausted."""
    for j in range(len(data) - 1, -1, -1):
        index, options = data[j]
        if index + 1 < options:
            data[j] = [index + 1, options]
            del data[j + 1:]
            return True
    return False


# ----------------------------------------------------------------------
# happens-before / race analysis
# ----------------------------------------------------------------------
def _vector_clocks(tids: Sequence, resources: Sequence[Resources]) -> List[Dict]:
    """clocks[j][t] = last step index of thread ``t`` happening before
    (or equal to) step ``j``; -1/absent when none does."""
    clocks: List[Dict] = []
    last_of_thread: Dict = {}
    for j, tid in enumerate(tids):
        clocks.append(_step_clock(tids, resources, clocks, j,
                                  last_of_thread.get(tid)))
        last_of_thread[tid] = j
    return clocks


def _step_clock(tids: Sequence, resources: Sequence[Resources],
                clocks: Sequence[Dict], j: int, prev: Optional[int]) -> Dict:
    """Vector clock of step ``j``: program-order after ``prev`` (its
    thread's previous step, if any), dependence-after every earlier step
    that touches its footprint."""
    tid, res = tids[j], resources[j]
    clock: Dict = dict(clocks[prev]) if prev is not None else {}
    for i in range(j - 1, -1, -1):
        if tids[i] == tid:
            continue
        if clock.get(tids[i], -1) >= i:
            continue  # already ordered transitively
        if _dependent(resources[i], res):
            for t, v in clocks[i].items():
                if clock.get(t, -1) < v:
                    clock[t] = v
            if clock.get(tids[i], -1) < i:
                clock[tids[i]] = i
    clock[tid] = j
    return clock


def _adjacent(tids: Sequence, resources: Sequence[Resources],
              clocks: Sequence[Dict], j: int) -> List[int]:
    """Race partners of step ``j``: the happens-before-adjacent dependent
    steps of other threads, nearest first.

    Scanning predecessors of ``j`` from nearest to farthest, a ``covered``
    clock accumulates everything reachable through an already-visited
    predecessor; a dependent pair only races when ``i`` reaches ``j``
    *directly*, not through an intermediate step.
    """
    tid, res = tids[j], resources[j]
    reaches = clocks[j].get
    covered: Dict = {}
    partners: List[int] = []
    for i in range(j - 1, -1, -1):
        other = tids[i]
        if reaches(other, -1) < i:
            continue  # concurrent with j: no edge to reverse
        if covered.get(other, -1) >= i:
            continue  # reaches j only through a later step
        if other != tid and _dependent(resources[i], res):
            partners.append(i)
        for t, v in clocks[i].items():
            if covered.get(t, -1) < v:
                covered[t] = v
    return partners


def _races(tids: Sequence, resources: Sequence[Resources],
           clocks: Sequence[Dict]) -> List[Tuple[int, int]]:
    """Happens-before-adjacent dependent pairs of different threads."""
    return [(i, j) for j in range(len(tids))
            for i in _adjacent(tids, resources, clocks, j)]


def _weak_initials(seq_tids: Sequence, seq_res: Sequence[Resources]) -> List:
    """Threads whose first step in the sequence has no dependent
    predecessor inside it — they commute to the front."""
    initials: List = []
    seen: Set = set()
    for pos, tid in enumerate(seq_tids):
        if tid in seen:
            continue
        seen.add(tid)
        if not any(_dependent(seq_res[h], seq_res[pos])
                   for h in range(pos)):
            initials.append(tid)
    return initials


def _wakeup_sequence(i: int, j: int, tids: Sequence,
                     resources: Sequence[Resources],
                     clocks: Sequence[Dict]) -> Tuple[List[int], List]:
    """``notdep(i) · j`` for race ``(i, j)``: the step indices between the
    two that do not happen-after ``i``, then ``j``; plus the weak initials
    of that sequence."""
    idxs = [k for k in range(i + 1, j)
            if clocks[k].get(tids[i], -1) < i] + [j]
    initials = _weak_initials([tids[k] for k in idxs],
                              [resources[k] for k in idxs])
    return idxs, initials


class DporStrategy(SearchStrategy):
    """Source-DPOR with wakeup trees.

    The frontier is an explicit stack of nodes along the last execution:
    each carries the branch currently being explored (``choice``), the
    data choices made inside that step (``data``), the siblings already
    finished there (``done``), the options the chooser indexed there
    (``schedulable``), and the queued wakeup sequences.  Backtracking
    first tries the next data value of the deepest step that has one
    (data nondeterminism is explored exhaustively, like DFS), then pops
    the deepest node with a queued sequence and forces its tids verbatim
    — the wakeup *tail* beyond the stack — so the reversal is reached
    without re-exploring the sleep-blocked permutations in between.
    """

    name = "dpor"

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
        on_final_state: Optional[Callable] = None,
    ) -> None:
        super().__init__(
            program,
            policy_factory,
            bounded_config(config, depth_bound),
            limits,
            coverage=coverage,
            listener=listener,
            observer=observer,
            resilience=resilience,
        )
        if prefix:
            raise ValueError(
                "source-DPOR cannot be confined to a decision prefix: "
                "backtrack points are discovered dynamically and may land "
                "inside any prefix; parallel plans use a single shard")
        self.on_final_state = on_final_state
        #: One dict per node of the current exploration path.
        self.stack: List[dict] = []
        #: Forced wakeup-sequence suffix beyond the stack.
        self.tail: List = []
        self.exhausted = False
        self._walk: Optional[DporWalk] = None

    def strategy_label(self) -> str:
        return "source-dpor"

    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return not self.exhausted

    def _run_once(self) -> ExecutionResult:
        record, self._walk = _run_once_dpor(
            self.program,
            self.policy_factory(),
            self.stack,
            self.tail,
            self.config,
            coverage=self.coverage,
            observer=self.observer,
            on_final_state=self.on_final_state,
        )
        return record

    def _advance(self, record: ExecutionResult) -> None:
        walk, self._walk = self._walk, None
        del self.stack[len(walk.tids):]  # defensive; replay covers stack
        data = _data_per_step(record.decisions)
        for k in range(len(self.stack), len(walk.tids)):
            self.stack.append({
                "choice": walk.tids[k],
                "done": [],
                "wakeups": [],
                "schedulable": list(walk.options[k]),
            })
        for node, chosen in zip(self.stack, data):
            node["data"] = chosen
        self._insert_backtracks(walk)
        self._backtrack()

    def _insert_backtracks(self, meta: DporWalk) -> None:
        tids, resources = meta.tids, meta.resources
        if not tids:
            return
        clocks = _vector_clocks(tids, resources)
        for i, j in _races(tids, resources, clocks):
            if self.observer is not None:
                self.observer.dpor_race_detected()
            self._reverse(meta, tids, resources, clocks, i, j)
        # A violation or blocking cut this execution short: threads with
        # a pending-but-never-executed operation race against the
        # executed steps they depend on, like FG-DPOR's next-transition
        # rule.  Without this, the branches behind a first violation (or
        # a blocked lock attempt) would never be scheduled at all.  The
        # pending operation races as a virtual final step of its thread.
        # Its partners have none of the thread's own steps happening
        # after them (the covered-scan of :func:`_adjacent`), so the
        # wakeup sequence carries every executed step of the thread and
        # the forced run re-arms exactly the pending operation.
        end = len(tids)
        last_of_thread = {tid: k for k, tid in enumerate(tids)}
        for u, res_u in meta.final_pending:
            vtids, vres = list(tids) + [u], list(resources) + [res_u]
            vclocks = list(clocks)
            vclocks.append(_step_clock(vtids, vres, clocks, end,
                                       last_of_thread.get(u)))
            partners = _adjacent(vtids, vres, vclocks, end)
            if partners and self.observer is not None:
                self.observer.dpor_race_detected()
            for i in partners:
                self._reverse(meta, vtids, vres, vclocks, i, end)

    def _reverse(self, meta: DporWalk, tids, resources, clocks, i: int,
                 j: int) -> None:
        """Queue the reversal of race ``(i, j)``."""
        status = self._queue_wakeup(meta, tids, resources, clocks, i, j)
        # Lock handover: when the racing thread is *disabled* at node
        # ``i`` (a release/acquire pair — the acquire can never move
        # before the release), the reversal that exists is handing the
        # whole critical section over, i.e. scheduling ``j`` before the
        # earlier dependent step of another thread (typically the
        # matching acquire).  Walk back to it.
        back = i
        while status == "disabled":
            back = next(
                (k for k in range(back - 1, -1, -1)
                 if tids[k] != tids[j]
                 and _dependent(resources[k], resources[j])),
                None)
            if back is None:
                if self.observer is not None:
                    self.observer.dpor_wakeup_pruned()
                break
            status = self._queue_wakeup(meta, tids, resources, clocks, back,
                                       j)
            if status == "inserted" and self.observer is not None:
                self.observer.dpor_handover()

    def _queue_wakeup(self, meta: DporWalk, tids, resources, clocks,
                      i: int, j: int) -> str:
        """Queue the wakeup sequence for race ``(i, j)`` at node ``i``.

        Returns ``"inserted"``, ``"pruned"`` (redundant — an equivalent
        reordering is asleep, explored, or already queued), ``"skipped"``
        (every viable initial is fairness-blocked), or ``"disabled"``
        (the racing thread is not even enabled there — handover needed).
        """
        idxs, initials = _wakeup_sequence(i, j, tids, resources, clocks)
        node = self.stack[i]
        wi = set(initials)
        if wi & meta.sleeps[i]:
            # Some reordering with the same first step was already
            # explored from this node — the reversal is redundant.
            if self.observer is not None:
                self.observer.dpor_wakeup_pruned()
            return "pruned"
        heads = {w[0] for w in node["wakeups"]}
        if wi & (set(node["done"]) | heads | {meta.tids[i]}):
            if self.observer is not None:
                self.observer.dpor_wakeup_pruned()
            return "pruned"
        schedulable = set(node["schedulable"])
        order = [tids[k] for k in idxs]
        if order[0] not in schedulable:
            # Any weak initial commutes to the front of the sequence.
            front = next((t for t in initials if t in schedulable), None)
            if front is None:
                if not (wi & meta.enableds[i]):
                    return "disabled"
                # Enabled but not schedulable: the fair policy blocked
                # it here, so no fair schedule takes this branch at this
                # node — exactly the pruning the fair DFS applies too.
                if self.observer is not None:
                    self.observer.dpor_fairness_skipped()
                return "skipped"
            pos = order.index(front)
            order = [order[pos]] + order[:pos] + order[pos + 1:]
        node["wakeups"].append(order)
        return "inserted"

    def _backtrack(self) -> None:
        for k in range(len(self.stack) - 1, -1, -1):
            node = self.stack[k]
            if _next_data(node["data"]):
                del self.stack[k + 1:]
                self.tail = []
                return
            node["done"].append(node["choice"])
            if node["wakeups"]:
                sequence = node["wakeups"].pop(0)
                node["choice"] = sequence[0]
                node["data"] = []
                del self.stack[k + 1:]
                self.tail = list(sequence[1:])
                return
            self.stack.pop()
        self.tail = []
        self.exhausted = True

    def _announce(self) -> None:
        if self.observer is not None and not self.exhausted:
            self.observer.backtrack(len(self.stack))

    # ------------------------------------------------------------------
    def _frontier_state(self) -> dict:
        return {
            "stack": [dict(node) for node in self.stack],
            "tail": list(self.tail),
            "exhausted": self.exhausted,
        }

    def _load_frontier(self, state: dict) -> None:
        self.stack = [
            {
                "choice": node["choice"],
                "data": [list(d) for d in node.get("data", [])],
                "done": list(node.get("done", [])),
                "wakeups": [list(w) for w in node.get("wakeups", [])],
                "schedulable": list(node.get("schedulable", [])),
            }
            for node in state.get("stack", [])
        ]
        self.tail = list(state.get("tail", []))
        self.exhausted = bool(state.get("exhausted", False))


def explore_source_dpor(
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
    on_final_state: Optional[Callable] = None,
) -> ExplorationResult:
    """Source-DPOR with wakeup trees, run to exhaustion."""
    return DporStrategy(
        program,
        policy_factory,
        depth_bound=depth_bound,
        limits=limits,
        coverage=coverage,
        listener=listener,
        observer=observer,
        resilience=resilience,
        config=config,
        on_final_state=on_final_state,
    ).explore()
