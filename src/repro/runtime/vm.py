"""The deterministic cooperative virtual machine.

One :class:`VirtualMachine` is one execution of a program under test.  It
owns the tasks, exposes the paper's state predicates (``ES``, ``yield(t)``)
by inspecting pending operations, and performs transitions on behalf of the
exploration engine.  It implements
:class:`repro.core.model.ProgramInstance`, the interface Algorithm 1 and the
search strategies are written against.

The VM is *stateless-checker friendly*: generator frames cannot be copied,
so there is no in-place rollback.  The engine revisits program states by
building a fresh VM (through a :class:`repro.runtime.program.VMProgram`
factory) and replaying choices.  Because every transition is deterministic,
the VM *does* support the engine's replay-log snapshot protocol
(:mod:`repro.engine.snapshots`): :meth:`fast_forward` drives a fresh VM
through a recorded decision prefix without the engine loop around it, which
is what the ``supports_snapshot`` capability flag advertises.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.model import ProgramInstance, StepInfo
from repro.runtime.errors import ScheduleError
from repro.runtime.task import Task, TaskState
from repro.statespace.canonical import canonicalize


class VirtualMachine(ProgramInstance):
    """A live execution of a multithreaded program."""

    #: The VM's transitions are a pure function of the decision sequence,
    #: so the engine may restore prefix states via :meth:`fast_forward`
    #: (the native thread runtime sets this False and always fully
    #: replays).
    supports_snapshot = True

    def __init__(self) -> None:
        self._tasks: Dict[int, Task] = {}
        self._next_tid = 0
        self.step_count = 0
        #: Set by the engine; resolves ``choose(n)`` operations.
        self.data_choice_handler: Optional[Callable[[int], int]] = None
        #: Optional manual state extraction (Section 4.2.1 of the paper).
        self._state_fn: Optional[Callable[[], Any]] = None
        self._spawned_this_step: List[int] = []
        #: Zero-argument safety monitors run by the engine after each step.
        self.monitors: List[Callable[[], None]] = []
        #: Temporal liveness monitors (engine observes them every step and
        #: consults them when an execution diverges).
        self.temporal_monitors: List[Any] = []
        #: Cache of the enabled set; invalidated by every transition and
        #: spawn (the only mutations of shared state).
        self._enabled_cache: Optional[FrozenSet[int]] = None

    # ------------------------------------------------------------------
    # Construction API (used by program setup code and CreateThreadOp)
    # ------------------------------------------------------------------
    def spawn_task(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
                   kwargs: Optional[dict] = None, name: Optional[str] = None) -> Task:
        tid = self._next_tid
        self._next_tid += 1
        task_name = name if name is not None else f"{getattr(fn, '__name__', 'task')}-{tid}"
        gen = fn(*args, **(kwargs or {}))
        if not hasattr(gen, "send"):
            raise TypeError(
                f"thread body {fn!r} must be a generator function "
                f"(use 'yield from' on sync operations)"
            )
        task = Task(tid, task_name, gen)
        self._tasks[tid] = task
        self._spawned_this_step.append(tid)
        self._enabled_cache = None
        return task

    def set_state_fn(self, fn: Callable[[], Any]) -> None:
        """Install manual state extraction for coverage measurement."""
        self._state_fn = fn

    # ------------------------------------------------------------------
    # ProgramInstance interface
    # ------------------------------------------------------------------
    def thread_ids(self) -> FrozenSet[int]:
        return frozenset(self._tasks)

    def task(self, tid: int) -> Task:
        return self._tasks[tid]

    def tasks(self) -> Tuple[Task, ...]:
        return tuple(self._tasks[tid] for tid in sorted(self._tasks))

    def is_enabled(self, tid: int) -> bool:
        task = self._tasks[tid]
        if task.state is not TaskState.READY or task.pending is None:
            return False
        return task.pending.enabled(self, task)

    def enabled_threads(self) -> FrozenSet[int]:
        if self._enabled_cache is None:
            self._enabled_cache = frozenset(
                tid for tid in self._tasks if self.is_enabled(tid)
            )
        return self._enabled_cache

    def is_yielding(self, tid: int) -> bool:
        task = self._tasks[tid]
        if not self.is_enabled(tid):
            return False
        return task.pending.is_yielding(self, task)

    def has_live_threads(self) -> bool:
        return any(t.state is TaskState.READY for t in self._tasks.values())

    def step(self, tid: int) -> StepInfo:
        """Execute one transition of thread ``tid``.

        The transition is: execute the pending operation, then run the task
        to its next scheduling point.  Property violations raised by either
        part propagate to the engine (the task is marked failed first, so a
        caller that catches the violation sees a consistent VM).
        """
        task = self._tasks.get(tid)
        if task is None:
            raise ScheduleError(f"no such thread: {tid}")
        if not self.is_enabled(tid):
            raise ScheduleError(
                f"thread {task.name!r} is not enabled (pending "
                f"{task.pending.describe() if task.pending else 'nothing'})"
            )
        enabled_before = self.enabled_threads()
        op = task.pending
        yielded = op.is_yielding(self, task)
        op_desc = op.describe()
        self._spawned_this_step = []
        self._enabled_cache = None
        try:
            value = op.execute(self, task)
            task.advance(value)
        finally:
            self._enabled_cache = None
            self.step_count += 1
        return StepInfo(
            tid=tid,
            enabled_before=enabled_before,
            enabled_after=self.enabled_threads(),
            yielded=yielded,
            spawned=tuple(self._spawned_this_step),
            operation=op_desc,
        )

    def fast_forward(self, decisions, *,
                     per_step: Optional[Callable[["VirtualMachine"], None]] = None) -> int:
        """Replay a recorded decision prefix without the engine loop.

        This is the reference implementation of the replay-log snapshot
        restore; :meth:`repro.runtime.native.NativeInstance.fast_forward`
        mirrors it for real OS threads.

        ``decisions`` is a sequence of engine
        :class:`~repro.engine.results.Decision` records: ``"thread"``
        decisions name the tid to step (``chosen``), ``"data"`` decisions
        carry the value the prefix's ``choose()`` calls returned and are
        fed back in recorded order through a temporary data-choice
        handler.  ``per_step`` (engine-supplied) runs after each
        transition, before the VM-local monitors.

        Returns the number of transitions executed.  Raises whatever the
        replayed prefix raises — a clean prefix replays cleanly, so any
        exception here means the program broke the determinism contract
        and the caller must fall back to a full replay.
        """
        data_values = [d.chosen for d in decisions if d.kind == "data"]
        cursor = 0

        def feed(n: int) -> int:
            nonlocal cursor
            if cursor >= len(data_values):
                raise ScheduleError(
                    "fast-forward requested more data choices than the "
                    "snapshot recorded"
                )
            value = data_values[cursor]
            cursor += 1
            return value

        saved_handler = self.data_choice_handler
        self.data_choice_handler = feed
        executed = 0
        try:
            for decision in decisions:
                if decision.kind != "thread":
                    continue
                self.step(decision.chosen)
                if per_step is not None:
                    per_step(self)
                for monitor in self.monitors:
                    monitor()
                for temporal in self.temporal_monitors:
                    temporal.observe()
                executed += 1
        finally:
            self.data_choice_handler = saved_handler
        return executed

    # ------------------------------------------------------------------
    # Data nondeterminism
    # ------------------------------------------------------------------
    def request_data_choice(self, n: int) -> int:
        if self.data_choice_handler is None:
            raise ScheduleError(
                "choose() used outside the exploration engine; "
                "run the program through a Checker or an explorer"
            )
        value = self.data_choice_handler(n)
        if not 0 <= value < n:
            raise ScheduleError(f"data choice {value} out of range({n})")
        return value

    # ------------------------------------------------------------------
    # Coverage support
    # ------------------------------------------------------------------
    def state_signature(self) -> Optional[Hashable]:
        """Manual state extraction if installed, else a generic abstraction.

        The generic fallback combines, per task: name, lifecycle state,
        pending-operation description and the generator's bytecode offset.
        It is sound for coverage *counting* within one process but coarser
        than the manual extraction the paper uses for its two measured
        programs; those workloads install precise signatures.
        """
        if self._state_fn is not None:
            return canonicalize(self._state_fn())
        return self._task_signature(include_frames=True)

    def precise_signature(self) -> Hashable:
        """Manual extraction *plus* per-task lifecycle and pending ops.

        Used as the visited key of the stateful ground-truth search: two VM
        states with equal precise signatures must behave identically, which
        holds whenever the installed state function captures all shared
        state and thread bodies keep no behavior-relevant generator locals
        across scheduling points (the contract of the measured workloads).
        """
        return (self.state_signature(), self._task_signature())

    def _task_signature(self, include_frames: bool = False) -> Hashable:
        parts = []
        for tid in sorted(self._tasks):
            task = self._tasks[tid]
            pending = task.pending.describe() if task.pending else "-"
            if include_frames:
                frame = getattr(task._gen, "gi_frame", None)
                lasti = frame.f_lasti if frame is not None else -1
                parts.append((task.name, task.state.value, pending, lasti))
            else:
                parts.append((task.name, task.state.value, pending))
        return tuple(parts)
