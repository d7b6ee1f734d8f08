"""Prefix-snapshot caching for the exploration hot path.

Stateless search pays for its statelessness on every backtrack: the next
execution shares a long decision prefix with the previous one, and the
engine re-executes that prefix from step 0 just to get back to the
frontier.  For a deterministic runtime that replay is pure overhead —
the prefix state is a function of the decision sequence alone — so the
engine can *snapshot* its bookkeeping at decision-depth intervals and
later fast-forward a fresh instance through the recorded prefix without
paying for the policy computation, chooser, trace recording, coverage
hashing or observer hooks of the full loop.

A :class:`PrefixSnapshot` is a **replay-log snapshot**: it does not
capture Python generator frames (CPython cannot copy them, and thread
bodies close over shared objects), it captures everything *around* the
program instance — the recorded :class:`~repro.engine.results.Decision`
prefix, the scheduling policy's persistent state, the executor's
counters and trace tail, and (when coverage is on) the prefix's state
signatures.  Restoring one instantiates the program afresh and drives
it through the recorded transitions with ``fast_forward`` (implemented
by both :class:`~repro.runtime.vm.VirtualMachine` and
:class:`~repro.runtime.native.NativeInstance`), which skips every
engine-side cost of the prefix.  The result is bit-for-bit identical to
a full replay: same decisions, same coverage totals, same policy state,
same trace tail.

Policy state is captured through the persistent-snapshot protocol
(:meth:`~repro.core.policies.SchedulingPolicy.snapshot_state` /
``restore_state``): built-in policies store their mutable state as
dicts of immutable frozensets replaced copy-on-write, so a capture is a
few shallow dict copies whose values are *shared* between the live
policy, the cache, and every other entry captured while that state was
unchanged — O(changed), not O(state).  Policies that do not implement
the protocol fall back to ``copy.deepcopy`` (correct, just slower).

Applicability is gated by the ``supports_snapshot`` capability flag on
the program (True for :class:`~repro.runtime.program.VMProgram` and
:class:`~repro.runtime.native.NativeProgram`; any program without the
flag transparently falls back to full replay).

The cache is bounded two ways: LRU order with a memory budget (entry
sizes are estimated, not measured; an entry estimated over the whole
budget is refused outright and counted as ``oversized``), and — for
strategies that visit guides in lexicographic order (DFS, sleep-set
POR, each ICB sweep) — eager invalidation of entries that can never
match a future guide (:meth:`PrefixSnapshotCache.invalidate_not_prefix_of`).
Lookups walk a prefix trie keyed by decision indices, so the cost is
O(len(guide)) regardless of how many entries are cached.  See
``docs/performance.md``.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.results import Decision, TraceStep

#: Rough per-item cost estimates (bytes) for the memory budget.  These
#: deliberately overestimate: the budget is a safety rail, not an
#: accounting system.
_DECISION_BYTES = 120
_TRACE_STEP_BYTES = 400
_SIGNATURE_BYTES = 120
_BASE_BYTES = 2048  # entry + captured policy state


@dataclass
class PrefixSnapshot:
    """Engine state at one prefix of one execution (see module docstring)."""

    #: The decision-index prefix this snapshot belongs to (the cache key).
    key: Tuple[int, ...]
    #: The recorded decisions, verbatim — replayed into the resumed
    #: execution's decision list so cached and uncached runs report
    #: identical decision sequences.
    decisions: Tuple[Decision, ...]
    #: Transitions executed in the prefix.
    steps: int
    #: The policy's ``snapshot_state()`` value at the snapshot point —
    #: a persistent, structurally shared value (None is legal: the
    #: nonfair policy is stateless).
    policy_state: object = None
    #: Deep copy of the whole policy, only for policies that do not
    #: implement the snapshot protocol.  ``None`` on the fast path.
    policy_fallback: object = None
    preemptions: int = 0
    yields: int = 0
    last_tid: object = None
    last_was_yield: bool = False
    #: Trace tail (already bounded by the executor's trace window).
    trace: Tuple[TraceStep, ...] = ()
    #: State signatures of the prefix states (only recorded when coverage
    #: tracking is on; replayed into the tracker on restore so coverage
    #: totals cannot drift).
    signatures: Optional[Tuple[object, ...]] = None
    #: The executor hook's extras (POR's sleep sets ride here).
    extras: Dict[str, object] = field(default_factory=dict)

    def restore_policy(self, policy: object) -> object:
        """Return a policy carrying this snapshot's state.

        On the fast path the captured persistent state is applied to
        ``policy`` — the fresh per-execution instance the strategy
        already built — in O(changed), and that same object is returned.
        Fallback entries (policies without the protocol) return a deep
        copy of the captured policy instead.
        """
        if self.policy_fallback is not None:
            return copy.deepcopy(self.policy_fallback)
        policy.restore_state(self.policy_state)
        return policy

    def estimated_bytes(self) -> int:
        total = _BASE_BYTES
        total += _DECISION_BYTES * len(self.decisions)
        total += _TRACE_STEP_BYTES * len(self.trace)
        if self.signatures is not None:
            total += _SIGNATURE_BYTES * len(self.signatures)
        return total


class _TrieNode:
    """One node of the decision-prefix trie (children keyed by decision
    index)."""

    __slots__ = ("children", "entry")

    def __init__(self) -> None:
        self.children: Dict[int, "_TrieNode"] = {}
        self.entry: Optional[PrefixSnapshot] = None


class PrefixSnapshotCache:
    """LRU cache of :class:`PrefixSnapshot` entries, keyed by prefix.

    One cache belongs to one strategy (or one ICB sweep, or one parallel
    shard) — entries are only valid under the exact executor
    configuration they were captured with, so caches are never shared
    across configurations.

    Entries live in two structures kept in lockstep: an ``OrderedDict``
    for LRU order, and a prefix trie for O(len(guide)) lookups and
    prefix-structured invalidation.
    """

    def __init__(
        self,
        interval: int = 16,
        *,
        memory_budget_bytes: int = 64 << 20,
        observer=None,
    ) -> None:
        if interval < 1:
            raise ValueError("snapshot interval must be positive")
        self.interval = interval
        self.memory_budget_bytes = memory_budget_bytes
        self._observer = observer
        self._entries: "OrderedDict[Tuple[int, ...], PrefixSnapshot]" = OrderedDict()
        self._root = _TrieNode()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.refreshes = 0
        self.oversized = 0
        self.evictions = 0
        self.failures = 0
        #: Estimated size of the entry created by the most recent
        #: :meth:`capture` (0 when the call only refreshed an existing
        #: key, or refused an oversized entry).  Read by the executor's
        #: cost accounting.
        self.last_capture_bytes = 0
        #: What the most recent :meth:`capture` did: "stored",
        #: "refreshed", or "oversized".
        self.last_capture_outcome = "stored"
        #: Trie nodes visited by the most recent :meth:`lookup` (tested
        #: to stay O(len(guide)) however many entries are cached).
        self.last_lookup_nodes = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config, program,
                    observer=None) -> Optional["PrefixSnapshotCache"]:
        """Build a cache for one strategy, or None when inapplicable.

        Returns None unless the config asks for snapshotting *and* the
        program declares the ``supports_snapshot`` capability (a program
        without it silently falls back to full replay, as documented).
        """
        if config is None or not getattr(config, "snapshot_cache", False):
            return None
        if not getattr(program, "supports_snapshot", False):
            return None
        return cls(
            interval=getattr(config, "snapshot_interval", 16),
            memory_budget_bytes=(
                getattr(config, "snapshot_memory_mb", 64) << 20),
            observer=observer,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def estimated_bytes(self) -> int:
        return self._bytes

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "estimated_bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
            "refreshes": self.refreshes,
            "oversized": self.oversized,
            "evictions": self.evictions,
            "failures": self.failures,
        }

    # ------------------------------------------------------------------
    # Trie maintenance (every entry lives at the trie node reached by
    # walking its key from the root).
    # ------------------------------------------------------------------
    def _trie_insert(self, snapshot: PrefixSnapshot) -> None:
        node = self._root
        for index in snapshot.key:
            child = node.children.get(index)
            if child is None:
                child = node.children[index] = _TrieNode()
            node = child
        node.entry = snapshot

    def _trie_remove(self, key: Tuple[int, ...]) -> None:
        path: List[Tuple[_TrieNode, int]] = []
        node = self._root
        for index in key:
            child = node.children.get(index)
            if child is None:
                return  # not present (defensive)
            path.append((node, index))
            node = child
        node.entry = None
        # Prune now-empty nodes bottom-up so dead branches don't slow
        # future lookups or leak memory.
        while path and node.entry is None and not node.children:
            parent, index = path.pop()
            del parent.children[index]
            node = parent

    @staticmethod
    def _collect_subtree(node: _TrieNode,
                         out: List[PrefixSnapshot]) -> None:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.entry is not None:
                out.append(current.entry)
            stack.extend(current.children.values())

    # ------------------------------------------------------------------
    def lookup(self, guide: Sequence[int], *,
               need_signatures: bool = False) -> Optional[PrefixSnapshot]:
        """The deepest snapshot whose key is a prefix of ``guide``.

        A single walk down the prefix trie: O(len(guide)) regardless of
        entry count (``last_lookup_nodes`` records the nodes visited).

        ``need_signatures`` restricts the match to entries that recorded
        coverage signatures (a coverage-tracking run cannot restore from
        an entry captured without them — the totals would drift).
        """
        best: Optional[PrefixSnapshot] = None
        node = self._root
        visited = 0
        for index in guide:
            node = node.children.get(index)
            if node is None:
                break
            visited += 1
            entry = node.entry
            if entry is not None and not (need_signatures
                                          and entry.signatures is None):
                best = entry
        self.last_lookup_nodes = visited
        if best is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(best.key)
        return best

    def capture(
        self,
        *,
        decisions: Sequence[Decision],
        steps: int,
        policy: object,
        preemptions: int = 0,
        yields: int = 0,
        last_tid: object = None,
        last_was_yield: bool = False,
        trace: Sequence[TraceStep] = (),
        signatures: Optional[Sequence[object]] = None,
        extras: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Store a snapshot of the current executor state; returns True
        when a new entry was created.

        False means the call was a no-op for the cache's contents:
        either the key was already cached (only its LRU position is
        refreshed — no policy state is captured) or the entry's
        estimated size exceeds the whole memory budget, in which case it
        is refused rather than stored (an entry the budget cannot hold
        would otherwise pin the cache over budget forever).  The
        ``last_capture_outcome`` attribute distinguishes the cases for
        the caller's cost accounting.
        """
        key = tuple(d.index for d in decisions)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.last_capture_bytes = 0
            self.last_capture_outcome = "refreshed"
            self.refreshes += 1
            return False
        try:
            policy_state = policy.snapshot_state()
            policy_fallback = None
        except (AttributeError, NotImplementedError):
            policy_state = None
            policy_fallback = copy.deepcopy(policy)
        snapshot = PrefixSnapshot(
            key=key,
            decisions=tuple(decisions),
            steps=steps,
            policy_state=policy_state,
            policy_fallback=policy_fallback,
            preemptions=preemptions,
            yields=yields,
            last_tid=last_tid,
            last_was_yield=last_was_yield,
            trace=tuple(trace),
            signatures=(tuple(signatures) if signatures is not None
                        else None),
            extras=dict(extras or {}),
        )
        estimated = snapshot.estimated_bytes()
        if estimated > self.memory_budget_bytes:
            self.last_capture_bytes = 0
            self.last_capture_outcome = "oversized"
            self.oversized += 1
            if self._observer is not None:
                self._observer.snapshot_oversized(estimated)
            return False
        self._entries[key] = snapshot
        self._trie_insert(snapshot)
        self.last_capture_bytes = estimated
        self.last_capture_outcome = "stored"
        self._bytes += estimated
        self.stored += 1
        if self._observer is not None:
            self._observer.snapshot_stored(len(self._entries), self._bytes)
        self._evict_over_budget()
        return True

    def _evict_over_budget(self) -> None:
        # Oversized entries are refused at capture time, so evicting
        # oldest-first always terminates with the cache within budget.
        evicted = 0
        while self._bytes > self.memory_budget_bytes and self._entries:
            key, entry = self._entries.popitem(last=False)
            self._trie_remove(key)
            self._bytes -= entry.estimated_bytes()
            evicted += 1
        if evicted:
            self.evictions += evicted
            if self._observer is not None:
                self._observer.snapshot_evicted(evicted)

    # ------------------------------------------------------------------
    def invalidate_not_prefix_of(self, guide: Sequence[int]) -> int:
        """Drop every entry whose key is not a prefix of ``guide``.

        Sound *and* complete for strategies that visit guides in
        lexicographic order (DFS, POR, each ICB sweep): after
        backtracking to ``guide``, every future execution's decision
        sequence starts with ``guide``, and all cached keys come from
        lexicographically earlier executions — an entry that diverges
        from ``guide`` diverges downward and can never match again.

        Survivors are exactly the keys along the guide path plus the
        subtree below its end (keys *extending* the guide), so this is a
        single walk pruning the diverging side-branches.
        """
        guide = tuple(guide)
        dead: List[PrefixSnapshot] = []
        node = self._root
        for index in guide:
            for branch in list(node.children):
                if branch != index:
                    self._collect_subtree(node.children.pop(branch), dead)
            node = node.children.get(index)
            if node is None:
                break
        for entry in dead:
            del self._entries[entry.key]
            self._bytes -= entry.estimated_bytes()
        if dead:
            self.evictions += len(dead)
            if self._observer is not None:
                self._observer.snapshot_evicted(len(dead))
        return len(dead)

    def clear(self, *, failure: bool = False) -> None:
        """Drop everything (end of a subtree, or a failed fast-forward —
        the latter means the program broke the determinism contract, so
        no cached prefix can be trusted)."""
        if failure:
            self.failures += 1
        self._entries.clear()
        self._root = _TrieNode()
        self._bytes = 0
