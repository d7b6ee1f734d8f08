"""Program factories for the VM runtime.

A :class:`VMProgram` bundles a *setup function* that builds one fresh
execution: it creates the shared objects, spawns the initial threads, and
optionally installs manual state extraction.  The exploration engine calls
:meth:`VMProgram.instantiate` once per explored execution — the setup
function must therefore be deterministic and self-contained (no module-level
mutable state).

Example::

    from repro import VMProgram, sync

    def counter_program():
        def setup(env):
            lock = sync.Mutex(name="lock")
            cell = sync.SharedVar(0, name="n")

            def worker():
                yield from lock.acquire()
                v = yield from cell.get()
                yield from cell.set(v + 1)
                yield from lock.release()

            env.spawn(worker, name="w1")
            env.spawn(worker, name="w2")
            env.set_state_fn(lambda: (cell.peek(), lock.owner_name()))

        return VMProgram(setup, name="counter")
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.core.model import Program
from repro.runtime.task import Task
from repro.runtime.vm import VirtualMachine


class ProgramEnv:
    """Handed to the setup function; the only sanctioned way to touch the VM
    during program construction."""

    def __init__(self, vm: VirtualMachine) -> None:
        self._vm = vm

    def spawn(self, fn: Callable[..., Any], *args: Any,
              name: Optional[str] = None, **kwargs: Any) -> Task:
        """Create an initial thread running the generator function ``fn``."""
        return self._vm.spawn_task(fn, args, kwargs, name)

    def set_state_fn(self, fn: Callable[[], Any]) -> None:
        """Install manual state extraction (for coverage experiments).

        ``fn`` returns any structure; it is canonicalized (heap
        canonicalization per Iosif 2001) before being hashed.
        """
        self._vm.set_state_fn(fn)

    def add_monitor(self, monitor: Callable[[], None]) -> None:
        """Install a safety monitor checked after every transition.

        The monitor raises
        :class:`~repro.runtime.errors.PropertyViolation` to fail the
        execution; see :mod:`repro.engine.monitors` for helpers.
        """
        self._vm.monitors.append(monitor)

    def add_temporal_monitor(self, monitor: Any) -> None:
        """Install a liveness monitor (see :mod:`repro.engine.liveness`)."""
        self._vm.temporal_monitors.append(monitor)

    @property
    def vm(self) -> VirtualMachine:
        return self._vm


class VMProgram(Program):
    """A replayable multithreaded program defined by a setup function."""

    def __init__(self, setup: Callable[[ProgramEnv], Any],
                 name: str = "program") -> None:
        self._setup = setup
        self.name = name

    def instantiate(self) -> VirtualMachine:
        vm = VirtualMachine()
        self._setup(ProgramEnv(vm))
        return vm

    def __repr__(self) -> str:
        return f"VMProgram({self.name!r})"


def program(name: str = "program") -> Callable[[Callable[[ProgramEnv], Any]], VMProgram]:
    """Decorator sugar: turn a setup function into a :class:`VMProgram`.

    ::

        @program("spinloop")
        def spinloop(env):
            ...
    """

    def wrap(setup: Callable[[ProgramEnv], Any]) -> VMProgram:
        return VMProgram(setup, name=name)

    return wrap
