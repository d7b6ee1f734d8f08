"""Algorithm 1 of the paper: the fair, demonic scheduler state machine.

The scheduler maintains, per state, the priority relation ``P`` plus three
auxiliary per-thread predicates describing the current *window* of each
thread (a window of ``t`` spans from just after one yielding transition of
``t`` to just after the next):

* ``S(t)`` — threads scheduled since the last yield of ``t``;
* ``E(t)`` — threads continuously enabled since the last yield of ``t``;
* ``D(t)`` — threads disabled by some transition of ``t`` in the window.

On a yielding transition of ``t`` the scheduler computes::

    H = (E(t) ∪ D(t)) \\ S(t)

— the threads ``t`` should have given a chance to but did not — and adds
the edges ``{t} × H`` to ``P``, deprioritizing the yielding thread.
Scheduling ``t`` removes all edges with sink ``t``.

Initialization matches the paper exactly: ``E(u) = ∅`` and
``D(u) = S(u) = Tid``, which guarantees the *first* yield of any thread adds
no edges.  We represent the ``D = S = Tid`` phase with a closed-window flag
(``_window_open[u] = False``); this also generalizes soundly to dynamic
thread creation (threads created mid-execution start with a closed window,
exactly the paper's convention applied at creation time).

The class is deliberately independent of any particular program
representation: callers feed it the observations of each transition
(:class:`repro.core.model.StepInfo`) and ask it for the schedulable set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable

from repro.core.model import StepInfo
from repro.core.priority import PriorityRelation

Tid = Hashable

_EMPTY: FrozenSet = frozenset()


class FairSchedulerState:
    """Mutable state of Algorithm 1 for one execution.

    The per-thread window sets ``E``/``D``/``S`` are stored as immutable
    frozensets replaced copy-on-write: an update that changes nothing
    costs a set comparison, an update that changes something rebinds one
    dict slot to a fresh frozenset.  The introspection accessors
    (``continuously_enabled`` and friends) can therefore return the
    stored sets as they are.
    """

    __slots__ = ("priority", "_E", "_D", "_S", "_window_open", "_check_acyclic")

    def __init__(
        self,
        threads: Iterable[Tid] = (),
        *,
        check_acyclic: bool = False,
    ) -> None:
        self.priority = PriorityRelation()
        self._E: Dict[Tid, FrozenSet[Tid]] = {}
        self._D: Dict[Tid, FrozenSet[Tid]] = {}
        self._S: Dict[Tid, FrozenSet[Tid]] = {}
        self._window_open: Dict[Tid, bool] = {}
        self._check_acyclic = check_acyclic
        for t in threads:
            self.register_thread(t)

    # ------------------------------------------------------------------
    def register_thread(self, t: Tid) -> None:
        """Install the paper's initial values for a (possibly new) thread."""
        if t in self._window_open:
            return
        self._E[t] = _EMPTY
        self._D[t] = _EMPTY
        self._S[t] = _EMPTY
        # Closed window encodes D(t) = S(t) = Tid: the first yield of t
        # opens the window and adds no priority edges.
        self._window_open[t] = False

    def known_threads(self) -> FrozenSet[Tid]:
        return frozenset(self._window_open)

    # ------------------------------------------------------------------
    def schedulable(self, enabled: FrozenSet[Tid]) -> FrozenSet[Tid]:
        """Line 7: ``T = ES \\ pre(P, ES)``."""
        return self.priority.schedulable(enabled)

    # ------------------------------------------------------------------
    def observe_step(self, info: StepInfo) -> None:
        """Lines 13–29 of Algorithm 1, applied after executing ``info.tid``."""
        t = info.tid
        if t not in self._window_open:  # defensive: auto-register strangers
            self.register_thread(t)
        for spawned in info.spawned:
            self.register_thread(spawned)

        # Line 13: next.P := curr.P \ (Tid × {t}) — drop edges with sink t.
        self.priority.remove_sink(t)

        enabled_after = info.enabled_after

        # Lines 14–22: update E, D, S for every thread's open window.
        # Copy-on-write: a window set is replaced only when it actually
        # changes.
        for u, is_open in self._window_open.items():
            if not is_open:
                continue  # closed window: E stays ∅, D = S = Tid implicitly
            E = self._E[u]
            if not E <= enabled_after:
                self._E[u] = E & enabled_after
            S = self._S[u]
            if t not in S:
                self._S[u] = S | {t}
        if self._window_open.get(t):
            disabled_now = info.enabled_before - enabled_after
            if disabled_now and not disabled_now <= self._D[t]:
                self._D[t] = self._D[t] | disabled_now

        # Lines 23–29: yielding transition ends t's window.
        if info.yielded:
            if self._window_open[t]:
                # H = (E(t) ∪ D(t)) \ S(t).  Note t ∈ S(t) (line 21 above),
                # so t never deprioritizes itself and P stays acyclic
                # together with the sink-removal at line 13 (Theorem 3).
                blame = (self._E[t] | self._D[t]) - self._S[t]
                self.priority.add_edges(t, blame)
                if self._check_acyclic and not self.priority.is_acyclic():
                    raise AssertionError(
                        "priority relation became cyclic — Theorem 3 broken"
                    )
            else:
                self._window_open[t] = True
            self._E[t] = frozenset(enabled_after)
            self._D[t] = _EMPTY
            self._S[t] = _EMPTY

    # ------------------------------------------------------------------
    # Introspection (used by tests and the Figure 4 emulation harness).
    # ------------------------------------------------------------------
    def window_open(self, t: Tid) -> bool:
        return self._window_open.get(t, False)

    def continuously_enabled(self, t: Tid) -> FrozenSet[Tid]:
        """``E(t)`` (empty while the window is closed, as in the paper)."""
        return self._E.get(t, _EMPTY)

    def disabled_by(self, t: Tid) -> FrozenSet[Tid]:
        """``D(t)``; ``Tid`` (all known threads) while the window is closed."""
        if not self._window_open.get(t, False):
            return self.known_threads()
        return self._D[t]

    def scheduled_since_yield(self, t: Tid) -> FrozenSet[Tid]:
        """``S(t)``; ``Tid`` while the window is closed."""
        if not self._window_open.get(t, False):
            return self.known_threads()
        return self._S[t]

    def snapshot(self) -> Dict[str, object]:
        """A readable dump of (P, E, D, S) for traces and the Fig. 4 test."""
        return {
            "P": sorted(self.priority.edges(), key=repr),
            "E": {t: sorted(self.continuously_enabled(t), key=repr)
                  for t in self.known_threads()},
            "D": {t: sorted(self.disabled_by(t), key=repr)
                  for t in self.known_threads()},
            "S": {t: sorted(self.scheduled_since_yield(t), key=repr)
                  for t in self.known_threads()},
        }

    def __repr__(self) -> str:
        return f"FairSchedulerState(P={self.priority!r})"
