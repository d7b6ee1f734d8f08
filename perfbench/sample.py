"""One sample of one workload, in a fresh interpreter.

    python3 perfbench/sample.py --workload search --seed 0 \
        --spawned-at <time.monotonic() of the parent> \
        [--trace | --shards | --setup-only]

Imports ``repro`` from ``src/``, builds the workload's ``Checker``, times
``Checker.run()``, checks the verdict and prints one JSON object on
stdout.  ``run.py`` starts it; it is not meant to be run by hand.

``setup_s`` is measured from the parent's ``time.monotonic()`` just
before it started this process to the moment ``run()`` is called; on
Linux ``time.monotonic`` reads the system-wide ``CLOCK_MONOTONIC``, so
the two processes share the clock.  ``verdict_s`` is the wall time of
``run()``.  Untraced and set-up-only samples of a workload (not of
``parallel``) probe the host's speed while they run (``hostspeed.py``)
and report both times at the reference speed; ``setup_wall_s`` and
``verdict_wall_s`` are the raw wall times net of the probes.  Other
samples are not probed and report only ``verdict_wall_s``.  With
``--trace`` the layer wrappers of ``tracer.py`` are installed around
``run()`` only, the per-layer metrics are added to the output, and the
spans are written to ``perfbench/out/<workload>.spans``.  With
``--shards`` the ``Checker`` gets the shard-timing observer of
``shards.py`` and the output carries the ``parallel.*`` metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(tracer, result) -> dict:
    from repro.engine.results import Outcome

    metrics = dict(tracer.self_times())
    spans = tracer.span_counts()
    steps = spans["repro.runtime.vm:VirtualMachine.step"]
    enabled = spans["repro.runtime.vm:VirtualMachine.enabled_threads"]
    exploration = result.exploration
    executions = exploration.executions
    pruned = (exploration.outcomes[Outcome.DEPTH_PRUNED]
              + exploration.outcomes[Outcome.VISITED_PRUNED])
    metrics.update({
        "runtime.steps": steps,
        "runtime.enabled_calls_per_step": enabled / steps if steps else 0.0,
        "executor.executions": spans["repro.engine.executor:run_execution"],
        "executor.replayed_decisions": tracer.replayed_decisions,
        "strategies.useful_ratio": ((executions - pruned) / executions
                                    if executions else 0.0),
        "coverage.states": exploration.states_covered or 0,
        "checker.executions": executions,
        "checker.transitions": exploration.transitions,
        "trace.wall_s": tracer.root_seconds(),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--shards", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    host = None
    if not (args.trace or args.shards) and args.workload != "parallel":
        from hostspeed import HostSpeed

        host = HostSpeed()
        host.start()
    sys.path.insert(0, os.path.join(REPO, "src"))
    import workloads

    shard_clock = None
    if args.shards:
        from shards import ShardClock

        shard_clock = ShardClock()
    checker = workloads.build(args.workload, args.seed, observer=shard_clock)
    out = {}
    if host is not None:
        host.sample()
        wall, speed = host.phase(args.spawned_at, time.monotonic())
        out.update(setup_s=wall * speed, setup_wall_s=wall)
    if args.setup_only:
        if host is not None:
            host.stop()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import SELF_TIME_METRICS, Tracer

        tracer = Tracer()
        tracer.install()
    started = time.monotonic()
    try:
        result = checker.run()
        if host is not None:
            host.sample()
        finished = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
        if host is not None:
            host.stop()
    wall = finished - started
    if host is not None:
        wall, speed = host.phase(started, finished)
        out.update(verdict_s=wall * speed, host_speed=speed)

    out.update({
        "verdict_wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "counts": workloads.counts(result),
        "problems": workloads.check(args.workload, checker, result),
    })
    if shard_clock is not None:
        out["layers"] = shard_clock.shard_metrics(checker.workers)
    if tracer is not None:
        layers = _layer_metrics(tracer, result)
        attributed = sum(layers[name] for name in SELF_TIME_METRICS)
        if abs(attributed - layers["trace.wall_s"]) > 1e-6 * wall:
            out["problems"].append(
                f"layer self times sum to {attributed:.6f}s, traced "
                f"Checker.run wall is {layers['trace.wall_s']:.6f}s")
        out["layers"] = layers
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"{args.workload}.spans"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
