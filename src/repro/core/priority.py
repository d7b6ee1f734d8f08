"""Acyclic priority relation over threads (the relation ``P`` of Algorithm 1).

The fair scheduler of Musuvathi & Qadeer (PLDI 2008) maintains a relation
``P ⊆ Tid × Tid`` in every state.  An edge ``(t, u) ∈ P`` means thread ``t``
has *lower* priority than thread ``u``: ``t`` may be scheduled only in states
where ``u`` is disabled.  Formally the set of schedulable threads is::

    T = ES \\ pre(P, ES)       where  pre(R, X) = {x | ∃y. (x, y) ∈ R ∧ y ∈ X}

Theorem 3 of the paper shows that the algorithm keeps ``P`` acyclic, which
guarantees ``T = ∅  ⇔  ES = ∅`` (the fair scheduler never reports a false
deadlock).  :meth:`PriorityRelation.is_acyclic` lets tests check that
invariant directly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Set, Tuple

Tid = Hashable

_EMPTY: FrozenSet = frozenset()


class PriorityRelation:
    """A mutable binary relation on thread ids, stored as out-edge sets.

    ``self._out[t]`` is the set of threads ``u`` with ``(t, u)`` in the
    relation, i.e. the threads that currently outrank ``t``.

    The out-edge sets are stored as *immutable* frozensets and replaced
    (never mutated in place) on every update, so :meth:`copy` and
    :meth:`successors` can hand them out without a defensive copy.
    """

    __slots__ = ("_out",)

    def __init__(self, edges: Iterable[Tuple[Tid, Tid]] = ()) -> None:
        self._out: Dict[Tid, FrozenSet[Tid]] = {}
        for t, u in edges:
            self.add_edge(t, u)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, t: Tid, u: Tid) -> None:
        """Add the edge ``(t, u)``: deprioritize ``t`` below ``u``."""
        if t == u:
            raise ValueError("a thread cannot be deprioritized below itself")
        current = self._out.get(t, _EMPTY)
        if u not in current:
            self._out[t] = current | {u}

    def add_edges(self, t: Tid, targets: Iterable[Tid]) -> None:
        """Add edges ``{t} × targets`` (line 25 of Algorithm 1)."""
        targets = frozenset(targets) - {t}
        if targets:
            current = self._out.get(t, _EMPTY)
            if not targets <= current:
                self._out[t] = current | targets

    def remove_sink(self, t: Tid) -> None:
        """Remove every edge whose sink is ``t`` (line 13 of Algorithm 1).

        Scheduling ``t`` lowers its relative priority: threads that were
        waiting for ``t`` to be disabled are released.
        """
        for src in list(self._out):
            targets = self._out[src]
            if t in targets:
                remaining = targets - {t}
                if remaining:
                    self._out[src] = remaining
                else:
                    del self._out[src]

    def clear(self) -> None:
        self._out.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def successors(self, t: Tid) -> FrozenSet[Tid]:
        """Threads that currently outrank ``t``."""
        return self._out.get(t, _EMPTY)

    def blocked(self, enabled: FrozenSet[Tid]) -> Set[Tid]:
        """``pre(P, enabled)``: threads blocked by an enabled higher-priority
        thread."""
        return {
            t
            for t, targets in self._out.items()
            if not targets.isdisjoint(enabled)
        }

    def schedulable(self, enabled: FrozenSet[Tid]) -> FrozenSet[Tid]:
        """``T = enabled \\ pre(P, enabled)`` (line 7 of Algorithm 1)."""
        if not self._out:  # hot path: empty relation blocks nothing
            return enabled if isinstance(enabled, frozenset) \
                else frozenset(enabled)
        blocked = self.blocked(enabled)
        if not blocked:
            return enabled if isinstance(enabled, frozenset) \
                else frozenset(enabled)
        return frozenset(enabled) - blocked

    def edges(self) -> Iterator[Tuple[Tid, Tid]]:
        for t, targets in self._out.items():
            for u in targets:
                yield (t, u)

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._out.values())

    def __contains__(self, edge: Tuple[Tid, Tid]) -> bool:
        t, u = edge
        return u in self._out.get(t, ())

    def __bool__(self) -> bool:
        return any(self._out.values())

    def is_acyclic(self) -> bool:
        """Check acyclicity by iterated sink elimination (Theorem 3 invariant)."""
        out = {t: set(targets) for t, targets in self._out.items() if targets}
        nodes: Set[Tid] = set(out)
        for targets in out.values():
            nodes.update(targets)
        while nodes:
            # A "maximal" node has no outgoing edge inside the remaining graph.
            sinks = {n for n in nodes if not (out.get(n, set()) & nodes)}
            if not sinks:
                return False
            nodes -= sinks
        return True

    def copy(self) -> "PriorityRelation":
        clone = PriorityRelation()
        # Values are immutable frozensets: a shallow dict copy is a full
        # copy as far as any caller can observe.
        clone._out = {t: targets for t, targets in self._out.items() if targets}
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PriorityRelation):
            return NotImplemented
        return set(self.edges()) == set(other.edges())

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("PriorityRelation is unhashable")

    def __repr__(self) -> str:
        pairs = sorted(self.edges(), key=repr)
        inner = ", ".join(f"({t!r}, {u!r})" for t, u in pairs)
        return f"PriorityRelation({{{inner}}})"
