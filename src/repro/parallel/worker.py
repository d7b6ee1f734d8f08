"""The worker side of parallel exploration.

A worker owns one shard at a time: it rebuilds the strategy confined to
the shard (prefix subtree or walk-index range), explores it with the full
resilience armor (watchdog budgets, crash capture, quarantine), and
streams compact per-execution telemetry plus one final serialized
:class:`~repro.engine.results.ExplorationResult` back to the coordinator.

Everything here is usable in two modes:

* :func:`run_shard` — in-process, used by the coordinator's inline
  fallback (platforms without ``fork``) and by unit tests;
* :func:`worker_main` — the target of a forked worker process, reading
  shards from its private pipe to the coordinator until it reads EOF.

Workers ignore SIGINT/SIGTERM: operator signals are the *coordinator's*
to handle (it sends ``"stop"`` down every busy worker's pipe so each
winds down gracefully and a final merged checkpoint can be flushed).
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
import traceback
from typing import Callable, List, Optional, Tuple

from repro.chaos.faults import fault_at
from repro.engine.coverage import CoverageTracker
from repro.engine.strategies import (
    BfsStrategy,
    DfsStrategy,
    DporStrategy,
    ExplorationLimits,
    RandomWalkStrategy,
    SleepSetStrategy,
)
from repro.parallel.shard import Shard
from repro.resilience import ResilienceController, ResilienceOptions
from repro.resilience.checkpoint import exploration_to_state
from repro.resilience.quarantine import CrashQuarantine


def build_shard_strategy(
    program,
    policy_factory,
    config,
    limits: ExplorationLimits,
    strategy_name: str,
    shard: Shard,
    *,
    seed: int = 0,
    bound: Optional[int] = None,
    coverage: Optional[CoverageTracker] = None,
    listener: Optional[Callable] = None,
    resilience=None,
    observer=None,
):
    """The strategy object exploring exactly one shard's slice of work.

    ``bound`` is the preemption bound of the current ICB sweep (None for
    the other strategies); the shard itself carries the prefix or range.
    ``observer`` is a worker-local :class:`repro.obs.Observer` whose
    phase timers and spans travel back to the coordinator with the shard
    result (None keeps the worker's hot path telemetry-free).
    """
    if strategy_name in ("dfs", "icb"):
        cfg = config
        label = "dfs"
        if strategy_name == "icb":
            cfg = dataclasses.replace(config, preemption_bound=bound)
            label = f"cb={bound}"
        return DfsStrategy(
            program, policy_factory, cfg, limits,
            prefix=list(shard.prefix), strategy_name=label,
            coverage=coverage, listener=listener, resilience=resilience,
            observer=observer,
        )
    if strategy_name == "bfs":
        return BfsStrategy(
            program, policy_factory, config, limits,
            prefix=list(shard.prefix),
            coverage=coverage, listener=listener, resilience=resilience,
            observer=observer,
        )
    if strategy_name in ("por", "dpor"):
        # DPOR's plan is the single root shard, and it rejects any other
        # prefix itself.
        reducer = SleepSetStrategy if strategy_name == "por" else DporStrategy
        return reducer(
            program, policy_factory, config=config, limits=limits,
            prefix=list(shard.prefix), coverage=coverage, listener=listener,
            resilience=resilience, observer=observer,
        )
    if strategy_name == "random":
        return RandomWalkStrategy(
            program, policy_factory, config, limits,
            executions=shard.count, seed=seed, start=shard.start,
            coverage=coverage, listener=listener, resilience=resilience,
            observer=observer,
        )
    raise ValueError(f"strategy {strategy_name!r} cannot be sharded")


def run_shard(
    program,
    policy_factory,
    config,
    limits: ExplorationLimits,
    strategy_name: str,
    shard: Shard,
    *,
    seed: int = 0,
    bound: Optional[int] = None,
    collect_coverage: bool = False,
    on_execution: Optional[Callable] = None,
    stop_check: Optional[Callable[[], Optional[str]]] = None,
    controller: Optional[ResilienceController] = None,
    telemetry: bool = False,
) -> Tuple[dict, List[object], Optional[dict]]:
    """Explore one shard; returns ``(exploration_state, signatures,
    extras)``.

    ``on_execution(record)`` streams per-execution telemetry;
    ``stop_check()`` returning a reason requests a graceful stop at the
    next iteration boundary (a ``"stop"`` from the coordinator, or the
    inline mode's global limit bookkeeping).

    ``telemetry`` enables a shard-local :class:`repro.obs.Observer`:
    ``extras`` then carries the shard's phase-timer totals and wall-clock
    spans (serialized) for the coordinator to merge; otherwise ``extras``
    is None and the exploration hot path stays telemetry-free.
    """
    coverage = CoverageTracker() if collect_coverage else None
    if controller is None and stop_check is not None:
        controller = ResilienceController(
            ResilienceOptions(handle_signals=False), program=program)

    def listener(record):
        if on_execution is not None:
            on_execution(record)
        if stop_check is not None:
            reason = stop_check()
            if reason is not None:
                controller.request_stop(reason)

    observer = None
    if telemetry:
        from repro.obs import Observer

        observer = Observer()

    strategy = build_shard_strategy(
        program, policy_factory, config, limits, strategy_name, shard,
        seed=seed, bound=bound, coverage=coverage, listener=listener,
        resilience=controller, observer=observer,
    )
    extras: Optional[dict] = None
    if observer is not None:
        with observer.spans.measure(
                f"shard {shard.index} executing", "executing",
                shard=shard.index, detail=shard.describe(),
                strategy=strategy_name):
            result = strategy.explore()
        extras = {
            "phase_timers": observer.timers.to_dict(),
            "spans": observer.spans.to_state(),
        }
    else:
        result = strategy.explore()
    signatures = sorted(coverage.signatures(), key=repr) if coverage else []
    return exploration_to_state(result), signatures, extras


def _start_heartbeat(worker_id: int, send: Callable,
                     interval: float) -> None:
    """Liveness beacon: a daemon thread that sends ``("heartbeat",)`` up
    the worker's pipe every ``interval`` seconds until the pipe closes.

    The coordinator treats prolonged silence as a *wedged* worker
    (SIGSTOP, livelocked user code): a stopped process keeps its pipe
    open, so only the heartbeat can tell it from a busy one.  The chaos
    ``clock-stall`` fault kills just this thread, simulating a worker
    whose work continues but whose liveness signal died.
    """

    def beat() -> None:
        while True:
            time.sleep(interval)
            rule = fault_at("worker.heartbeat", worker=worker_id)
            if rule is not None and rule.kind == "clock-stall":
                return
            try:
                send(("heartbeat",))
            except OSError:
                return

    threading.Thread(target=beat, daemon=True,
                     name=f"repro-heartbeat-{worker_id}").start()


def worker_main(
    worker_id: int,
    program,
    policy_factory,
    config,
    limits: ExplorationLimits,
    strategy_name: str,
    seed: int,
    resilience_options: Optional[ResilienceOptions],
    collect_coverage: bool,
    telemetry: bool,
    conn,
    wedge_timeout: Optional[float] = None,
) -> None:
    """Entry point of one forked worker process.

    ``conn`` is the worker's end of its private duplex pipe.  Down it
    come ``(bound, shard_state)`` tasks and ``"stop"``; up it go
    ``start``/``execution``/``heartbeat``/``done``/``error`` messages.
    EOF on it — the coordinator closed its end or died — ends the
    worker.  With a ``wedge_timeout`` the worker heartbeats ten times
    per timeout, at least every 0.5 s.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    lock = threading.Lock()

    def send(message) -> None:
        # The main and heartbeat threads share the pipe.
        with lock:
            conn.send(message)

    if wedge_timeout is not None:
        _start_heartbeat(worker_id, send, min(0.5, wedge_timeout / 10))
    options = resilience_options or ResilienceOptions()
    options = dataclasses.replace(options, checkpoint_path=None,
                                  handle_signals=False)
    controller = ResilienceController(
        options, program=program,
        policy_name=getattr(policy_factory(), "name", ""), config=config)
    # Per-worker quarantine filenames so two workers crashing at once
    # never race for the same crash-NNNN.json slot.
    controller.quarantine = CrashQuarantine(
        options.quarantine_dir, prefix=f"crash-w{worker_id}")
    try:
        while True:
            item = conn.recv()
            if item == "stop":  # raced the end of its shard: nothing to stop
                continue
            bound, shard_state = item
            shard = Shard.from_state(shard_state)
            send(("start", shard.index))

            def on_execution(record, index=shard.index):
                # Chaos fault point: a worker-kill rule SIGKILLs, a
                # worker-stall rule SIGSTOPs this process right here,
                # mid-shard — the coordinator must recover either way.
                fault_at("worker.execution", worker=worker_id,
                         shard=index)
                send(("execution", record.outcome.value, record.steps,
                      record.preemptions, record.hit_depth_bound))

            try:
                state, signatures, extras = run_shard(
                    program, policy_factory, config, limits, strategy_name,
                    shard, seed=seed, bound=bound,
                    collect_coverage=collect_coverage,
                    on_execution=on_execution,
                    # Anything readable mid-shard, "stop" or EOF, ends it.
                    stop_check=lambda: "coordinator" if conn.poll() else None,
                    controller=controller, telemetry=telemetry,
                )
                reply = ("done", shard.index, state, signatures, extras)
            except Exception:
                reply = ("error", shard.index, traceback.format_exc())
            send(reply)
    except (EOFError, OSError):
        pass  # the coordinator is gone or done: nothing left to work for
