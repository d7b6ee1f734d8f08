"""Wedged-worker detection: a SIGSTOPped worker mid-shard.

Before heartbeats, a stopped worker passed every ``proc.is_alive()``
check while holding its shard forever — the merge barrier hung until an
operator noticed.  These tests pin the recovery contract: silence past
``wedge_timeout`` kills the worker, requeues the shard, emits
``worker.wedged``, and the merged totals are identical to an unfaulted
run.
"""

import time

import pytest

from repro.chaos.faults import FaultPlan, FaultRule, fault_plan
from repro.checker import Checker
from repro.obs import CollectingSink, Observer, WorkerWedged
from repro.workloads.dining import dining_philosophers


def parallel_checker(observer=None, *, wedge_timeout=1.0):
    return Checker(dining_philosophers(2), depth_bound=60,
                   workers=2, shard_target=8, handle_signals=False,
                   wedge_timeout=wedge_timeout, observer=observer)


class TestWedgeDetection:
    def test_sigstopped_worker_is_detected_and_requeued(self):
        baseline = parallel_checker().run()
        sink = CollectingSink()
        observer = Observer(sink=sink)
        plan = FaultPlan(rules=[FaultRule(point="worker.execution",
                                          kind="worker-stall",
                                          match={"worker": 0})])
        with fault_plan(plan):
            result = parallel_checker(observer).run()

        # Detection: the wedge was observed and warned about.
        assert observer.metrics.counter("workers.wedged").value >= 1
        assert any("wedged" in w for w in result.warnings)
        wedged = [e for e in sink.events if isinstance(e, WorkerWedged)]
        assert wedged and wedged[0].worker == 0
        assert wedged[0].requeued

        # Recovery: the stalled shard was re-explored; nothing lost.
        assert result.ok == baseline.ok
        assert (result.exploration.executions
                == baseline.exploration.executions)
        assert (result.exploration.transitions
                == baseline.exploration.transitions)
        assert result.exploration.outcomes == baseline.exploration.outcomes

    def test_clock_stall_is_treated_as_a_wedge(self):
        """A worker whose heartbeat thread dies but whose work continues
        still gets recycled — liveness is judged by the clock alone."""
        baseline = parallel_checker().run()
        observer = Observer()
        plan = FaultPlan(rules=[FaultRule(point="worker.heartbeat",
                                          kind="clock-stall",
                                          match={"worker": 0})])
        with fault_plan(plan):
            result = parallel_checker(observer, wedge_timeout=0.5).run()
        # Either the worker finished its shards before the timeout (its
        # real work never stops) or it was recycled as wedged — both end
        # with full totals.
        assert (result.exploration.executions
                == baseline.exploration.executions)
        assert result.exploration.outcomes == baseline.exploration.outcomes

    def test_wedge_detection_can_be_disabled(self):
        """``wedge_timeout=None`` keeps the old semantics (no liveness
        policing) for debugger-friendly runs."""
        result = Checker(dining_philosophers(2), depth_bound=60,
                         workers=2, shard_target=4, handle_signals=False,
                         wedge_timeout=None).run()
        assert result.ok


class TestHealthyRunsUnaffected:
    def test_no_spurious_wedges_under_tight_timeout(self):
        """Healthy workers heartbeat fast enough that even an aggressive
        timeout never kills them."""
        observer = Observer()
        result = parallel_checker(observer, wedge_timeout=0.75).run()
        assert observer.metrics.counter("workers.wedged").value == 0
        assert result.ok
        assert not any("wedged" in w for w in result.warnings)


class StalledObserver(Observer):
    """Sleeps 2 s in the first ``shard_started``: the workers keep
    streaming while the coordinator reads nothing."""

    stalled = False

    def shard_started(self, shard, worker, description):
        super().shard_started(shard, worker, description)
        if not self.stalled:
            self.stalled = True
            time.sleep(2.0)


@pytest.mark.chaos
class TestKillWhileTheCoordinatorStalls:
    def test_replacements_of_a_killed_worker_never_wedge(self):
        """A worker SIGKILLed mid-send must not take a lock its
        replacements need: every run merges the baseline totals and no
        worker is ever found wedged."""

        def checker(**kwargs):
            return Checker(dining_philosophers(3), depth_bound=400,
                           preemption_bound=2, handle_signals=False,
                           **kwargs)

        baseline = checker().run().exploration
        plan = FaultPlan(rules=[FaultRule(point="worker.execution",
                                          kind="worker-kill", at=400,
                                          match={"worker": 0})])
        for run in range(10):
            observer = StalledObserver()
            with fault_plan(plan):
                merged = checker(workers=2, wedge_timeout=5.0,
                                 observer=observer).run().exploration
            assert observer.metrics.counter("workers.crashed").value >= 1
            assert observer.metrics.counter("workers.wedged").value == 0, \
                f"run {run}"
            assert (merged.executions, merged.transitions) == \
                (baseline.executions, baseline.transitions), f"run {run}"
            assert merged.outcomes == baseline.outcomes, f"run {run}"
