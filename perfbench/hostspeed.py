"""Host-speed probes, so that times can be reported at a fixed CPU speed.

The reference host is a 2-vCPU VM on shared hardware. Its CPU speed
switches between regimes up to 2x apart, sometimes within one sample
(see "Noise" in ``perfbench/README.md``). A raw wall time there measures
the host as much as the program.

So a timed sample also probes the host while it runs. An interval timer
(``SIGALRM``) interrupts the process every ``PERIOD_S`` seconds, and the
handler times one probe: a fixed toy model-checking search in pure
Python that touches nothing of ``repro``. The probe's duration against
``REFERENCE_PROBE_S`` gives the host's speed at that moment. A phase of the sample (set-up, or
``Checker.run()``) is then reported as its wall time net of the probes,
times the mean speed of the probes inside it: the seconds it would have
taken at the reference speed. The probe cannot use ``repro``, or a
change that makes ``repro`` faster would also make the host look faster
and cancel itself out.

A tight arithmetic loop was tried as the probe first. It slowed more
than the checker in the host's slow regime, so the reported times came
out 3-10% lower there; the toy search tracks the checker within about
2% across the regimes seen.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: Seconds between two probes.
PERIOD_S = 0.05
#: Steps of one probe (1.5-3 ms on the reference host).
PROBE_STEPS = 400
#: Seconds of one probe at the reference speed: about its duration in
#: the reference host's faster regime.
REFERENCE_PROBE_S = 0.0015


class _ToyState:
    """A state of the probe's toy program: program counters, shared
    counters and held locks."""

    __slots__ = ("pcs", "memory", "locks")

    def __init__(self, pcs, memory, locks) -> None:
        self.pcs = pcs
        self.memory = memory
        self.locks = locks

    def enabled(self):
        out = []
        for tid, ops in enumerate(_TOY_THREADS):
            pc = self.pcs[tid]
            if pc < len(ops) and not (ops[pc][0] == "acquire"
                                      and ops[pc][1] in self.locks):
                out.append(tid)
        return out

    def step(self, tid: int) -> "_ToyState":
        kind, name = _TOY_THREADS[tid][self.pcs[tid]]
        pcs = list(self.pcs)
        pcs[tid] += 1
        memory = dict(self.memory)
        locks = self.locks
        if kind == "acquire":
            locks = locks | {name}
        elif kind == "release":
            locks = locks - {name}
        else:
            memory[name] = memory.get(name, 0) + 1
        return _ToyState(tuple(pcs), memory, locks)

    def signature(self):
        return self.pcs, tuple(sorted(self.memory.items())), self.locks


#: Three threads, each incrementing a shared and a private counter under
#: one of two locks.
_TOY_THREADS = [
    [("acquire", f"l{tid % 2}"), ("add", "x"), ("add", f"y{tid}"),
     ("release", f"l{tid % 2}")]
    for tid in range(3)
]


def probe(steps: int = PROBE_STEPS) -> int:
    """A small stateless model checker: depth-first search over the
    interleavings of ``_TOY_THREADS``, restarted until ``steps`` steps
    were taken.  It does what ``repro``'s checker does in miniature, so
    a change of the host's speed slows it about as much."""
    seen = set()
    stack = []
    taken = 0
    while taken < steps:
        if not stack:
            stack.append((_ToyState((0, 0, 0), {}, frozenset()), []))
        state, schedule = stack.pop()
        seen.add(state.signature())
        for tid in state.enabled():
            stack.append((state.step(tid), schedule + [tid]))
            taken += 1
    return len(seen)


class HostSpeed:
    """Probes the host every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self) -> None:
        #: (``time.monotonic()`` at the probe's start, its duration).
        self.probes: List[Tuple[float, float]] = []
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Probe now. Called at the end of a phase too, so that every
        phase holds at least one probe."""
        if self._busy:  # an alarm inside a probe: skip it
            return
        self._busy = True
        started = time.monotonic()
        probe()
        self.probes.append((started, time.monotonic() - started))
        self._busy = False

    def phase(self, start: float, end: float) -> Tuple[float, float]:
        """(wall seconds net of probes, mean speed of the probes) of the
        ``time.monotonic()`` interval from ``start`` to ``end``; the speed
        is 1.0 at the reference and lower on a slower host.  Call
        ``sample()`` just before reading ``end``, so that the phase holds
        at least one probe."""
        inside = [d for t, d in self.probes if start <= t < end]
        net = (end - start) - sum(inside)
        return net, sum(REFERENCE_PROBE_S / d for d in inside) / len(inside)
