"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps the public entry point of each layer of ``repro`` (a
class attribute, or a module-level function in every ``repro`` module
that imported it) with a function that records one span per call: its
name, start, end and parent span.  Nothing under ``src/`` changes; the
wrappers exist only in the traced sample process, between
:meth:`Tracer.install` and :meth:`Tracer.uninstall`.

Spans live in four flat ``array`` columns (about 24 bytes a span, a few
million spans per traced search) and are written out by :meth:`dump`
after the run.  A layer's *self time* is the sum over its spans of the
span's duration minus the durations of its direct children, so the self
times of all layers add up to the root span (``Checker.run``) exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: (per-layer metric, entry point).  An entry point is
#: ``module:Class.attribute`` or ``module:function``; a module function
#: is replaced in every loaded ``repro`` module that imported it, because
#: callers look it up in their own module namespace.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("checker.self_s", "repro.checker:Checker.run"),
    ("runtime.instantiate_s", "repro.runtime.program:VMProgram.instantiate"),
    ("runtime.step_s", "repro.runtime.vm:VirtualMachine.step"),
    ("runtime.enabled_s", "repro.runtime.vm:VirtualMachine.enabled_threads"),
    ("core.schedulable_s", "repro.core.policies:FairPolicy.schedulable"),
    ("core.schedulable_s", "repro.core.policies:NonfairPolicy.schedulable"),
    ("core.observe_step_s", "repro.core.policies:FairPolicy.observe_step"),
    ("core.observe_step_s", "repro.core.policies:NonfairPolicy.observe_step"),
    ("core.register_thread_s",
     "repro.core.policies:FairPolicy.register_thread"),
    ("core.register_thread_s",
     "repro.core.policies:NonfairPolicy.register_thread"),
    ("executor.loop_s", "repro.engine.executor:run_execution"),
    ("executor.chooser_s", "repro.engine.executor:GuidedChooser.pick"),
    ("executor.chooser_s", "repro.engine.executor:RandomChooser.pick"),
    ("strategies.advance_s", "repro.engine.strategies.dfs:DfsStrategy._advance"),
    ("strategies.advance_s", "repro.engine.strategies.bfs:BfsStrategy._advance"),
    ("strategies.advance_s",
     "repro.engine.strategies.random_walk:RandomWalkStrategy._advance"),
    ("strategies.advance_s",
     "repro.engine.strategies.por:SleepSetStrategy._advance"),
    ("strategies.advance_s",
     "repro.engine.strategies.dpor:DporStrategy._advance"),
    ("strategies.dpor_loop_s", "repro.engine.strategies.dpor:_run_once_dpor"),
    ("coverage.signature_s", "repro.runtime.vm:VirtualMachine.state_signature"),
    ("coverage.record_s", "repro.engine.coverage:CoverageTracker.record"),
    ("snapshots.capture_s",
     "repro.engine.snapshots:PrefixSnapshotCache.capture"),
    ("snapshots.lookup_s",
     "repro.engine.snapshots:PrefixSnapshotCache.lookup"),
)

#: Every self-time metric, in report order; they sum to the root span.
SELF_TIME_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(
    metric for metric, _ in ENTRY_POINTS))

_GUIDED_PICK = "repro.engine.executor:GuidedChooser.pick"


class Tracer:
    """Span store plus the install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = [entry for _, entry in ENTRY_POINTS]
        self.metric_of: List[str] = [metric for metric, _ in ENTRY_POINTS]
        self.kind = array("i")      # index into ``names``
        self.parent = array("i")    # index of the parent span, -1 at a root
        self.start = array("d")     # time.perf_counter() at entry
        self.end = array("d")       # time.perf_counter() at exit
        #: Guided-chooser picks that followed a recorded guide (replayed
        #: decisions rather than fresh ones).
        self.replayed_decisions = 0
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object, bool]] = []
        # Forked workers (the parallel pool) must run untraced: their
        # spans could not reach this process anyway.
        os.register_at_fork(after_in_child=self.uninstall)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every entry point with its span-recording wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for kind, entry in enumerate(self.names):
            module_name, _, attr_path = entry.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr_path:
                class_name, attr = attr_path.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, attr, kind, entry == _GUIDED_PICK)
                continue
            original = getattr(module, attr_path)
            for name, loaded in list(sys.modules.items()):
                if (name.split(".")[0] == "repro"
                        and getattr(loaded, attr_path, None) is original):
                    self._patch(loaded, attr_path, kind, False)

    def uninstall(self) -> None:
        """Put every original entry point back (idempotent)."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # it was inherited from a base class

    def _patch(self, owner, attr: str, kind: int, count_guided: bool) -> None:
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, kind, count_guided))
        self._patches.append((owner, attr, original, owned))

    def _wrap(self, fn: Callable, kind: int, count_guided: bool) -> Callable:
        kinds, parents, starts, ends = (self.kind, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if count_guided:
                chooser = args[0]
                # Reads the chooser's cursor; GuidedChooser has no public
                # accessor that does not copy the whole guide.
                if chooser._cursor < len(chooser._guide):
                    tracer.replayed_decisions += 1
            index = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------------
    def span_counts(self) -> Counter:
        """Number of spans per entry point."""
        counts = Counter(self.kind)
        return Counter({self.names[k]: n for k, n in counts.items()})

    def self_times(self) -> Dict[str, float]:
        """Self seconds per metric of :data:`SELF_TIME_METRICS`."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                child[parent] += duration
        per_kind = [0.0] * len(self.names)
        for kind, duration, inner in zip(self.kind, durations, child):
            per_kind[kind] += duration - inner
        totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for kind, seconds in enumerate(per_kind):
            totals[self.metric_of[kind]] += seconds
        return totals

    def root_seconds(self) -> float:
        """Summed duration of the root spans (the traced ``Checker.run``)."""
        return sum(e - s for p, s, e in zip(self.parent, self.start, self.end)
                   if p < 0)

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four columns
        as native-endian binary arrays in header order."""
        header = {
            "names": self.names,
            "metrics": self.metric_of,
            "spans": len(self.kind),
            "columns": [["kind", "i"], ["parent", "i"], ["start", "d"],
                        ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.kind, self.parent, self.start, self.end):
                column.tofile(out)
