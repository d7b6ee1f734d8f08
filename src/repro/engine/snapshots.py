"""Placeholder for the removed prefix-snapshot cache.

The checker is stateless: every execution re-executes its decision
prefix from the initial state, and nothing in ``repro`` imports this
module.  :class:`PrefixSnapshotCache` exists only because the benchmark's
span tracer (``perfbench/tracer.py``) wraps its ``capture`` and
``lookup`` methods by name and reports them as the ``snapshots.*``
per-layer rows, which read 0.  The module goes when a benchmark change
drops those two rows from the tracer.
"""

from __future__ import annotations


class PrefixSnapshotCache:
    """Tracer entry points only; never instantiated."""

    def capture(self, *args, **kwargs):
        raise NotImplementedError("the prefix-snapshot cache was removed")

    def lookup(self, *args, **kwargs):
        raise NotImplementedError("the prefix-snapshot cache was removed")
