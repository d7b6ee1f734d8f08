"""Time to verdict of fair stateless model checking on paper workloads.

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0

Run from the repository root.  Workloads (see perfbench/README.md):
``search``, ``livelock`` and ``coverage``.

Every sample is a fresh interpreter (``sample.py``) that imports
``repro`` from ``src/``, builds the workload's ``Checker`` and times one
``Checker.run()``, then checks the verdict.  Samples repeat until
``--seconds`` have passed and at least three were taken.

``--trace 0`` prints the end-to-end metrics: medians of ``setup_s``
(over the samples and ``SETUP_SAMPLES`` more set-up-only ones),
``verdict_s`` and ``peak_rss_mb`` over the samples, plus the failed-run
share.  Both times are at the reference CPU speed (``hostspeed.py``);
the raw wall times and the host's speed are printed beside them.
``--trace 1`` repeats rounds of one untraced sample and one traced
sample and prints the per-layer metrics, medians over rounds.  A
``search`` round also runs the same search on the parallel pool, once
untraced (for the speed-up) and once with the shard-timing observer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A sample fails
when its verdict check fails, it raises, or it does not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import SELF_TIME_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metrics of the traced run, with units.  The ``_s`` self
#: times come from the tracer and sum to ``trace.wall_s``.
PER_LAYER = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "runtime.steps": "count",
    "runtime.enabled_calls_per_step": "ratio",
    "executor.executions": "count",
    "executor.replayed_decisions": "count",
    "strategies.useful_ratio": "ratio",
    "coverage.states": "count",
    "checker.executions": "count",
    "checker.transitions": "count",
    "parallel.worker_busy_s": "s",
    "parallel.imbalance": "ratio",
    "parallel.shards": "count",
    "parallel.speedup": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

MIN_SAMPLES = 3
#: Set-up-only samples per ``--trace 0`` run, on top of the full ones.
SETUP_SAMPLES = 9
#: Stop starting samples after this many seconds, so the run exits
#: within 180 s even on a slow host.
RUN_BUDGET_S = 165.0


class Sample:
    """Outcome of one ``sample.py`` process."""

    def __init__(self, workload: str, data: Optional[dict], error: str,
                 wall: float) -> None:
        self.workload = workload
        self.data = data
        self.error = error
        self.wall = wall

    @property
    def ok(self) -> bool:
        return self.data is not None and not self.data.get("problems")

    def describe_failure(self) -> str:
        if self.data is None:
            return self.error
        return "; ".join(self.data.get("problems", []))


def spawn(workload: str, seed: int, mode: str, timeout: float) -> Sample:
    """Run ``sample.py`` in its own process group; kill the whole group
    (the parallel workers too) if it overruns ``timeout``."""
    command = [sys.executable, os.path.join(HERE, "sample.py"),
               "--workload", workload, "--seed", str(seed)]
    if mode != "untraced":
        command.append(f"--{mode}")
    started = time.monotonic()
    command += ["--spawned-at", repr(started)]
    proc = subprocess.Popen(command, cwd=REPO, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return Sample(workload, None, f"no verdict within {timeout:.0f}s",
                      time.monotonic() - started)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        last = stderr.strip().splitlines()[-1:] or ["no output"]
        return Sample(workload, None,
                      f"exit code {proc.returncode}: {last[0]}", wall)
    return Sample(workload, json.loads(stdout.strip().splitlines()[-1]), "",
                  wall)


def time_left(started: float) -> float:
    return RUN_BUDGET_S - (time.monotonic() - started)


def consistent_counts(samples: List[Sample]) -> bool:
    """Counts must repeat exactly for one workload and seed."""
    seen = {json.dumps(s.data["counts"], sort_keys=True)
            for s in samples if s.data is not None}
    return len(seen) <= 1


def report_failures(samples: List[Sample]) -> None:
    for index, sample in enumerate(samples):
        if not sample.ok:
            print(f"  sample {index} ({sample.workload}) FAILED: "
                  f"{sample.describe_failure()}")


def run_untraced(workload: str, seed: int, seconds: float,
                 started: float) -> Optional[dict]:
    setups = [spawn(workload, seed, "setup-only", time_left(started))
              for _ in range(SETUP_SAMPLES)]
    samples: List[Sample] = []
    while len(samples) < MIN_SAMPLES or time.monotonic() - started < seconds:
        if samples and time_left(started) < 1.5 * samples[-1].wall:
            break
        samples.append(spawn(workload, seed, "untraced", time_left(started)))
    timed = [s for s in samples if s.ok] or [s for s in samples if s.data]
    if not timed:
        report_failures(samples + setups)
        return None
    set_up = timed + [s for s in setups if s.ok]
    failed = sum(not s.ok for s in samples + setups)
    attempted = len(samples) + len(setups)
    counts_repeat = consistent_counts(samples)
    print(f"workload {workload}, seed {seed}: {len(samples)} samples and "
          f"{len(setups)} set-up-only samples, each a fresh process, "
          f"untraced; medians; times at the reference CPU speed")
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [s.data[name] for s in (set_up if name == "setup_s"
                                         else timed)]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:<12} median {metrics[name]['value']:10.4f} {unit:<4} "
              f"n={len(values)}  samples "
              + " ".join(f"{v:.4f}" for v in values))
    # The raw wall times (net of the probes) and the host's speed.
    for name, group, unit in (("setup_wall_s", set_up, "s"),
                              ("verdict_wall_s", timed, "s"),
                              ("host_speed", timed, "x ref")):
        values = [s.data[name] for s in group]
        print(f"  {name:<14} median {statistics.median(values):8.4f} "
              f"{unit:<5} range {min(values):.4f}-{max(values):.4f}")
    print(f"  {'failed_runs':<12} {failed / attempted:10.4f} ratio "
          f"({failed} of {attempted} runs failed)")
    print(f"  counts {timed[0].data['counts']}"
          + ("" if counts_repeat else " -- NOT REPEATED across samples"))
    report_failures(samples + setups)
    return {"correct": failed == 0 and counts_repeat,
            "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(workload: str, seed: int, seconds: float,
               started: float) -> Optional[dict]:
    plan = [(workload, "untraced"), (workload, "trace")]
    if workload == "search":
        plan += [("parallel", "untraced"), ("parallel", "shards")]
    rounds = []
    samples: List[Sample] = []
    while not rounds or time.monotonic() - started < seconds:
        if rounds and time_left(started) < 1.5 * sum(s.wall
                                                     for s in rounds[-1]):
            break
        current = [spawn(name, seed, mode, time_left(started))
                   for name, mode in plan]
        samples += current
        rounds.append(current)
        if not all(s.ok for s in current):
            break  # report the failure instead of repeating it
    failed = sum(not s.ok for s in samples)
    # One round's samples run one search, so their totals must agree;
    # for ``search`` that makes the parallel totals equal the serial ones.
    counts_repeat = consistent_counts(samples)
    good = [r for r in rounds if all(s.data is not None for s in r)]
    if not good:
        report_failures(samples)
        return None

    values = {name: [] for name in PER_LAYER}
    for round_ in good:
        base, traced = round_[0], round_[1]
        layers = dict(traced.data["layers"])
        layers["trace.overhead_ratio"] = (traced.data["verdict_wall_s"]
                                          / base.data["verdict_wall_s"])
        if len(round_) == 4:
            pooled, observed = round_[2], round_[3]
            layers.update(observed.data["layers"])
            layers["parallel.speedup"] = (base.data["verdict_wall_s"]
                                          / pooled.data["verdict_wall_s"])
        for name in PER_LAYER:
            values[name].append(layers.get(name, 0))
    metrics = {name: {"value": statistics.median(v), "unit": PER_LAYER[name]}
               for name, v in values.items()}
    for name, unit in PER_LAYER.items():
        if unit == "count" and len(set(values[name])) > 1:
            counts_repeat = False
            print(f"  {name} NOT REPEATED across rounds: {values[name]}")

    wall = metrics["trace.wall_s"]["value"]
    print(f"workload {workload}, seed {seed}: {len(good)} traced rounds; "
          f"medians over rounds; self-time share of the traced "
          f"Checker.run wall ({wall:.4f} s)")
    for name in sorted(SELF_TIME_METRICS, key=lambda n: -metrics[n]["value"]):
        value = metrics[name]["value"]
        print(f"  {name:<32} {value:14.4f} s      {100 * value / wall:6.2f}%")
    attributed = sum(metrics[name]["value"] for name in SELF_TIME_METRICS)
    print(f"  {'(sum of the self times)':<32} {attributed:14.4f} s      "
          f"(closure is checked exactly in every traced sample)")
    for name, unit in PER_LAYER.items():
        if name not in SELF_TIME_METRICS:
            print(f"  {name:<32} {metrics[name]['value']:14.4f} {unit}")
    print(f"  spans written to "
          f"{os.path.relpath(os.path.join(HERE, 'out'), REPO)}/"
          f"{workload}.spans")
    report_failures(samples)
    return {"correct": failed == 0 and counts_repeat,
            "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print("error: run from the repository root; src/repro is missing",
              file=sys.stderr)
        return 2
    # Untimed warm-up: fills the bytecode caches so that setup_s measures
    # what a user pays on every run, not the first compilation.
    warm = spawn(args.workload, args.seed, "setup-only", 60.0)
    if warm.data is None:
        print(f"error: cannot set up {args.workload}: {warm.error}",
              file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds, started)
    if result is None:
        print("error: no sample produced a verdict", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
