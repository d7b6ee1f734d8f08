"""Native-thread runtime: CHESS-style control of real OS threads.

The generator VM (:mod:`repro.runtime.vm`) is the primary substrate, but
CHESS itself controls *real* threads: every synchronization call traps
into the scheduler, which serializes the program so exactly one thread
runs between scheduling points.  CPython makes this practical — the GIL
already serializes bytecode, so a pair of semaphores per thread gives a
fully deterministic handshake.

Thread bodies here are **plain functions** (no generators, no ``yield
from``); they call blocking methods on the ``Native*`` primitives, which
publish the same :class:`~repro.runtime.ops.Operation` descriptors the VM
uses and block until the exploration engine schedules them.  The engine
is completely unaware of the difference: :class:`NativeProgram` instances
implement the same :class:`~repro.core.model.ProgramInstance` interface,
so every policy and strategy — fair scheduling included — applies
unchanged.

Determinism contract: code between scheduling points must be
deterministic and must touch shared state only through the ``Native*``
primitives (the same contract CHESS imposes via instrumentation).

Example::

    from repro import Checker
    from repro.runtime.native import NativeMutex, NativeProgram, native_env

    def make_program():
        def setup(env):
            lock = NativeMutex(name="L")

            def worker():
                lock.acquire()
                lock.release()

            env.spawn(worker, name="w1")
            env.spawn(worker, name="w2")

        return NativeProgram(setup, name="native-demo")

    assert Checker(make_program()).run().ok
"""

from __future__ import annotations

import threading
from typing import Any, Callable, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.model import ProgramInstance, Program, StepInfo
from repro.runtime.errors import (
    ExecutionHung,
    PropertyViolation,
    ScheduleError,
    TaskCrash,
)
from repro.runtime.ops import ChooseOp, Operation, StartOp, YieldOp
from repro.runtime.task import TaskState
from repro.sync.atomics import _LoadOp, _StoreOp, AtomicCell
from repro.sync.event import _EventSetOp, _EventWaitOp, Event
from repro.sync.mutex import (
    Mutex,
    MutexAcquireOp,
    MutexReleaseOp,
    MutexTryAcquireOp,
)
from repro.sync.semaphore import _SemReleaseOp, _SemWaitOp, Semaphore

_current = threading.local()


class _ExecutionAborted(BaseException):
    """Raised inside controlled threads to unwind them at teardown.

    Derives from BaseException so user ``except Exception`` blocks cannot
    swallow it.
    """


class _NativeTask:
    """Controller-side record of one controlled OS thread."""

    def __init__(self, tid: int, name: str, runtime: "NativeInstance",
                 fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.tid = tid
        self.name = name
        self.state = TaskState.READY
        self.pending: Optional[Operation] = None
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._runtime = runtime
        self._go = threading.Semaphore(0)
        self._ready = threading.Semaphore(0)
        self._op_result: Any = None
        self._aborted = False
        self.hung = False
        self._thread = threading.Thread(
            target=self._run, args=(fn, args), name=name, daemon=True,
        )

    @property
    def done(self) -> bool:
        return self.state is not TaskState.READY

    @property
    def failed(self) -> bool:
        return self.state is TaskState.FAILED

    # ------------------------------------------------------------------
    # Thread side
    # ------------------------------------------------------------------
    def _run(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        _current.task = self
        try:
            self.perform(StartOp())
            self.result = fn(*args)
            self.state = TaskState.FINISHED
        except _ExecutionAborted:
            self.state = TaskState.FAILED
        except BaseException as exc:  # noqa: BLE001 - report to controller
            self.exception = exc
            self.state = TaskState.FAILED
        finally:
            self.pending = None
            _current.task = None
            self._ready.release()  # wake the controller one last time

    def perform(self, op: Operation) -> Any:
        """Publish an operation and block until the engine schedules it."""
        self.pending = op
        self._ready.release()
        self._go.acquire()
        if self._aborted:
            raise _ExecutionAborted()
        return self._op_result

    # ------------------------------------------------------------------
    # Controller side
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()
        self._ready.acquire()  # wait until the StartOp is published

    def resume_with(self, value: Any,
                    timeout: Optional[float] = None) -> None:
        """Hand the operation result to the thread; wait for it to reach
        its next scheduling point (or finish).

        With a ``timeout``, a thread that fails to come back in time is
        marked hung and :class:`ExecutionHung` is raised — cooperative
        cancellation for the execution watchdog.  The thread itself keeps
        running (Python cannot kill it); teardown in :meth:`abort` then
        detects whether it ever unwound.
        """
        self.pending = None
        self._op_result = value
        self._go.release()
        if timeout is None:
            self._ready.acquire()
            return
        if not self._ready.acquire(timeout=timeout):
            self.hung = True
            raise ExecutionHung(
                f"thread {self.name!r} did not reach its next scheduling "
                f"point within {timeout:g}s",
                tid=self.tid,
            )

    def abort(self, join_timeout: float = 5.0) -> bool:
        """Unwind the thread at teardown; True if it is still alive after
        (a leaked thread the caller should report)."""
        if self.state is TaskState.READY and (self.pending is not None
                                              or self.hung):
            self._aborted = True
            self._go.release()
        self._thread.join(timeout=join_timeout)
        return self._thread.is_alive()


def current_task() -> _NativeTask:
    task = getattr(_current, "task", None)
    if task is None:
        raise ScheduleError(
            "native primitives may only be used inside threads spawned "
            "through a NativeProgram"
        )
    return task


def _perform(op: Operation) -> Any:
    return current_task().perform(op)


class NativeInstance(ProgramInstance):
    """One execution of a native-thread program."""

    def __init__(self, setup: Callable[["NativeEnv"], Any]) -> None:
        self._tasks: dict = {}
        self._next_tid = 0
        self.data_choice_handler: Optional[Callable[[int], int]] = None
        self._state_fn: Optional[Callable[[], Any]] = None
        self._spawned_this_step: List[int] = []
        self.monitors: List[Callable[[], None]] = []
        self.temporal_monitors: List[Any] = []
        self._closed = False
        #: Per-step wall-clock timeout set by the executor's watchdog;
        #: None (the default) blocks indefinitely, as before.
        self.step_timeout: Optional[float] = None
        #: Optional telemetry observer (set by the executor); used to
        #: report leaked threads at teardown.
        self.observer: Any = None
        #: Upper bound on the per-thread join at teardown.
        self.join_timeout: float = 5.0
        #: Names of threads that survived :meth:`close` (hung in user
        #: code that never unwound).
        self.leaked_threads: Tuple[str, ...] = ()
        setup(NativeEnv(self))

    # ------------------------------------------------------------------
    def spawn_task(self, fn: Callable[..., Any], args: Tuple[Any, ...] = (),
                   kwargs: Optional[dict] = None,
                   name: Optional[str] = None) -> _NativeTask:
        if kwargs:
            fn_orig = fn
            fn = lambda *a: fn_orig(*a, **kwargs)  # noqa: E731
        tid = self._next_tid
        self._next_tid += 1
        task_name = name if name is not None else \
            f"{getattr(fn, '__name__', 'thread')}-{tid}"
        task = _NativeTask(tid, task_name, self, fn, args)
        self._tasks[tid] = task
        self._spawned_this_step.append(tid)
        task.start()
        return task

    def set_state_fn(self, fn: Callable[[], Any]) -> None:
        self._state_fn = fn

    # ------------------------------------------------------------------
    # ProgramInstance interface
    # ------------------------------------------------------------------
    def thread_ids(self) -> FrozenSet[int]:
        return frozenset(self._tasks)

    def task(self, tid: int):
        return self._tasks[tid]

    def is_enabled(self, tid: int) -> bool:
        task = self._tasks[tid]
        if task.done or task.pending is None:
            return False
        return task.pending.enabled(self, task)

    def enabled_threads(self) -> FrozenSet[int]:
        return frozenset(t for t in self._tasks if self.is_enabled(t))

    def is_yielding(self, tid: int) -> bool:
        task = self._tasks[tid]
        return (self.is_enabled(tid)
                and task.pending.is_yielding(self, task))

    def has_live_threads(self) -> bool:
        return any(not t.done for t in self._tasks.values())

    def step(self, tid: int) -> StepInfo:
        task = self._tasks.get(tid)
        if task is None or not self.is_enabled(tid):
            raise ScheduleError(f"thread {tid} is not enabled")
        enabled_before = self.enabled_threads()
        op = task.pending
        yielded = op.is_yielding(self, task)
        op_desc = op.describe()
        self._spawned_this_step = []
        value = op.execute(self, task)
        task.resume_with(value, timeout=self.step_timeout)
        if task.failed and task.exception is not None:
            exc = task.exception
            if isinstance(exc, PropertyViolation):
                if exc.tid is None:
                    exc.tid = tid
                raise exc
            raise TaskCrash(
                f"thread {task.name!r} crashed: {exc!r}", tid=tid,
                original=exc,
            ) from exc
        return StepInfo(
            tid=tid,
            enabled_before=enabled_before,
            enabled_after=self.enabled_threads(),
            yielded=yielded,
            spawned=tuple(self._spawned_this_step),
            operation=op_desc,
        )

    def request_data_choice(self, n: int) -> int:
        if self.data_choice_handler is None:
            raise ScheduleError("choose() used outside the engine")
        return self.data_choice_handler(n)

    # ------------------------------------------------------------------
    def fast_forward(self, decisions, *,
                     per_step: Optional[Callable[["NativeInstance"], None]] = None) -> int:
        """Replay a recorded decision prefix without the engine loop.

        The native runtime's prefix-snapshot restore.  Real OS threads
        cannot be checkpointed in-process — ``fork(2)`` preserves only
        the calling thread, so a forked image of this instance would
        lose every controlled thread parked in its semaphore handshake —
        but they don't need to be: the determinism contract makes the
        instance state a function of the decision sequence alone, so
        driving a *fresh* set of threads through the recorded
        transitions reproduces it exactly.  What the snapshot saves is
        every engine-side cost of the prefix (policy updates, chooser,
        trace recording, coverage hashing, observer hooks), which on the
        native runtime sits on top of two thread handshakes per step —
        the most expensive replay in the repo and the one the cache
        helps most.

        Semantics mirror :meth:`repro.runtime.vm.VirtualMachine.fast_forward`:
        ``"thread"`` decisions name the tid to step, ``"data"`` decisions
        carry the values the prefix's ``choose()`` calls returned and are
        fed back in recorded order through a temporary data-choice
        handler.  Raises whatever the replayed prefix raises — any
        exception means the program broke the determinism contract and
        the caller must fall back to a full replay.
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

    def state_signature(self) -> Optional[Hashable]:
        from repro.statespace.canonical import canonicalize

        pendings = tuple(
            (task.name, task.state.value,
             task.pending.describe() if task.pending else "-")
            for _, task in sorted(self._tasks.items())
        )
        if self._state_fn is not None:
            return (canonicalize(self._state_fn()), pendings)
        return pendings

    def precise_signature(self) -> Hashable:
        return self.state_signature()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Abort all still-blocked threads (end of one exploration run).

        Threads that fail to unwind within ``join_timeout`` are recorded
        in :attr:`leaked_threads` and reported through the observer — a
        leaked OS thread is a real resource loss worth surfacing, not
        something to time out on silently.
        """
        if self._closed:
            return
        self._closed = True
        timeout = self.join_timeout
        if self.step_timeout is not None:
            # Under a watchdog, teardown should not out-wait the budget.
            timeout = min(timeout, self.step_timeout)
        leaked = tuple(task.name for task in self._tasks.values()
                       if task.abort(join_timeout=timeout))
        self.leaked_threads = leaked
        if leaked and self.observer is not None:
            self.observer.thread_leaked(leaked)


class NativeEnv:
    """Setup-time facade (mirrors :class:`repro.runtime.program.ProgramEnv`)."""

    def __init__(self, instance: NativeInstance) -> None:
        self._instance = instance

    def spawn(self, fn: Callable[..., Any], *args: Any,
              name: Optional[str] = None, **kwargs: Any) -> _NativeTask:
        return self._instance.spawn_task(fn, args, kwargs, name)

    def set_state_fn(self, fn: Callable[[], Any]) -> None:
        self._instance.set_state_fn(fn)

    def add_monitor(self, monitor: Callable[[], None]) -> None:
        self._instance.monitors.append(monitor)

    def add_temporal_monitor(self, monitor: Any) -> None:
        self._instance.temporal_monitors.append(monitor)


class NativeProgram(Program):
    """Program factory over real threads."""

    #: Prefix snapshots apply here the same way they do on the VM: a
    #: cached entry is restored by instantiating fresh threads and
    #: driving them through the recorded decision log with
    #: :meth:`NativeInstance.fast_forward`.  The threads themselves are
    #: re-executed (in-process checkpointing of OS threads is impossible;
    #: see ``fast_forward``'s docstring on why ``fork(2)`` cannot help),
    #: but all engine-side prefix costs are skipped — and because each
    #: native step pays two semaphore handshakes, that replayed prefix
    #: is the most expensive in the repo, making the cache's savings
    #: largest exactly here.  Any restore failure falls back to a full
    #: replay, as everywhere else.
    supports_snapshot = True

    def __init__(self, setup: Callable[[NativeEnv], Any],
                 name: str = "native-program") -> None:
        self._setup = setup
        self.name = name

    def instantiate(self) -> NativeInstance:
        return NativeInstance(self._setup)


# ----------------------------------------------------------------------
# Blocking primitives for controlled threads
# ----------------------------------------------------------------------

def spawn(fn: Callable[..., Any], *args: Any,
          name: Optional[str] = None) -> _NativeTask:
    """Spawn a controlled thread from inside a controlled thread."""
    from repro.runtime.ops import CreateThreadOp

    return _perform(CreateThreadOp(fn, args, None, name))


def join(task: _NativeTask, timeout: Optional[float] = None) -> bool:
    from repro.runtime.ops import JoinOp

    return _perform(JoinOp(task, timeout))


def yield_now() -> None:
    _perform(YieldOp("yield"))


def sleep(duration: float = 1.0) -> None:
    _perform(YieldOp(f"sleep({duration:g})"))


def choose(n: int) -> int:
    return _perform(ChooseOp(n))


class NativeMutex:
    """Blocking facade over :class:`repro.sync.mutex.Mutex`."""

    def __init__(self, name: Optional[str] = None) -> None:
        self._impl = Mutex(name)
        self.name = self._impl.name

    def acquire(self, timeout: Optional[float] = None) -> bool:
        return _perform(MutexAcquireOp(self._impl, timeout))

    def try_acquire(self) -> bool:
        return _perform(MutexTryAcquireOp(self._impl))

    def release(self) -> None:
        _perform(MutexReleaseOp(self._impl))

    def held(self) -> bool:
        return self._impl.held()

    def owner_name(self) -> Optional[str]:
        return self._impl.owner_name()

    def state_signature(self) -> Any:
        return self._impl.state_signature()


class NativeSharedVar:
    """Blocking facade over :class:`repro.sync.atomics.SharedVar`."""

    def __init__(self, value: Any = None, name: Optional[str] = None) -> None:
        self._impl = AtomicCell(value, name)
        self.name = self._impl.name

    def get(self) -> Any:
        return _perform(_LoadOp(self._impl))

    def set(self, value: Any) -> None:
        _perform(_StoreOp(self._impl, value))

    def peek(self) -> Any:
        return self._impl.peek()

    def state_signature(self) -> Any:
        return self._impl.state_signature()


class NativeSemaphore:
    """Blocking facade over :class:`repro.sync.semaphore.Semaphore`."""

    def __init__(self, initial: int = 0, maximum: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        self._impl = Semaphore(initial, maximum, name)
        self.name = self._impl.name

    def wait(self, timeout: Optional[float] = None) -> bool:
        return _perform(_SemWaitOp(self._impl, timeout))

    def release(self, n: int = 1) -> None:
        _perform(_SemReleaseOp(self._impl, n))

    def count(self) -> int:
        return self._impl.count()


class NativeEvent:
    """Blocking facade over :class:`repro.sync.event.Event`."""

    def __init__(self, signaled: bool = False, auto_reset: bool = False,
                 name: Optional[str] = None) -> None:
        self._impl = Event(signaled, auto_reset, name)
        self.name = self._impl.name

    def wait(self, timeout: Optional[float] = None) -> bool:
        return _perform(_EventWaitOp(self._impl, timeout))

    def set(self) -> None:
        _perform(_EventSetOp(self._impl))

    def is_signaled(self) -> bool:
        return self._impl.is_signaled()
