"""Replay recorded schedules — counterexample reproduction.

Because every execution is fully determined by its decision sequence, a
violation or livelock found by the search can be replayed exactly, with
full trace recording, for debugging.  The same policy (and configuration)
used during the search must be supplied: the fair policy shapes the
schedulable sets, so decision indices are only meaningful relative to it.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

from repro.core.model import Program
from repro.core.policies import PolicyFactory
from repro.engine.executor import ExecutorConfig, GuidedChooser, run_execution
from repro.engine.results import Decision, ExecutionResult


def record_config(config: ExecutorConfig,
                  record: ExecutionResult) -> ExecutorConfig:
    """``config`` under the preemption bound ``record`` ran with, when the
    record carries one.  Its thread decisions index the options that bound
    left, so an ICB record replays under its own sweep's bound, not the
    checker's ceiling."""
    if record.preemption_bound is None:
        return config
    return dataclasses.replace(config,
                               preemption_bound=record.preemption_bound)


def replay_schedule(
    program: Program,
    schedule: Union[Sequence[int], Sequence[Decision]],
    policy_factory: PolicyFactory,
    config: Optional[ExecutorConfig] = None,
    *,
    trace_window: int = 100_000,
) -> ExecutionResult:
    """Re-run an execution from its recorded schedule with a full trace.

    ``schedule`` is either a plain list of decision indices
    (``ExecutionResult.schedule``) or the decision list itself.
    """
    indices = [
        d.index if isinstance(d, Decision) else int(d) for d in schedule
    ]
    config = dataclasses.replace(
        config or ExecutorConfig(), trace_window=trace_window,
    )
    return run_execution(
        program,
        policy_factory(),
        GuidedChooser(indices),
        config,
    )


def explain_deadlock(
    program: Program,
    record: ExecutionResult,
    policy_factory: PolicyFactory,
    config: Optional[ExecutorConfig] = None,
) -> str:
    """Replay a deadlocked execution and describe who waits on what.

    Returns one line per live thread with the operation it is blocked on
    — the wait-for information a user needs to see the cycle.
    """
    config = dataclasses.replace(
        config or ExecutorConfig(), keep_instance=True,
    )
    replayed = replay_schedule(program, record.decisions, policy_factory,
                               config, trace_window=4096)
    instance = replayed.final_instance
    if instance is None:
        return "no final state available"
    lines = []
    task_getter = getattr(instance, "task", None)
    for tid in sorted(instance.thread_ids(), key=repr):
        task = task_getter(tid) if task_getter is not None else None
        if task is None or task.done:
            continue
        pending = task.pending.describe() if task.pending else "nothing"
        lines.append(f"  {task.name} blocked on {pending}")
    closer = getattr(instance, "close", None)
    if closer is not None:
        closer()
    if not lines:
        return "no blocked threads (the execution did not deadlock)"
    return "deadlock wait-for set:\n" + "\n".join(lines)
