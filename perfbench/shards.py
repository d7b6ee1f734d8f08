"""Shard timing for the traced ``parallel`` run, through the public
``Observer`` hooks the parallel coordinator calls."""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict

from repro.obs.observer import Observer


class ShardClock(Observer):
    """Times each shard from ``shard_started`` to ``shard_finished``.

    Both hooks run in the coordinator when it receives the worker's
    message, so a shard's time includes the queue hop; worker busy time
    is the sum over the shards a worker ran.
    """

    def __init__(self) -> None:
        super().__init__()
        self._started: Dict[int, float] = {}
        self.busy: Dict[int, float] = defaultdict(float)
        self.shards = 0

    def shard_started(self, shard: int, worker: int,
                      description: str) -> None:
        super().shard_started(shard, worker, description)
        self._started[shard] = time.perf_counter()

    def shard_finished(self, shard: int, worker: int, executions: int,
                       transitions: int, found_violation: bool) -> None:
        super().shard_finished(shard, worker, executions, transitions,
                               found_violation)
        started = self._started.pop(shard, None)
        if started is not None:
            self.busy[worker] += time.perf_counter() - started
        self.shards += 1

    def shard_metrics(self, workers: int) -> Dict[str, float]:
        """``parallel.*`` metrics; imbalance is the busiest worker over
        the mean of all ``workers`` (idle ones count as 0 s)."""
        total = sum(self.busy.values())
        mean = total / workers
        return {
            "parallel.worker_busy_s": total,
            "parallel.imbalance": (max(self.busy.values()) / mean
                                   if mean > 0 else 0.0),
            "parallel.shards": self.shards,
        }
