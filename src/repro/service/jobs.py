"""Job model: what the checking service schedules, runs, and persists.

A *job* is one checking request — a program factory reference plus a
checker configuration — owned by a client and tagged with a priority
class.  The service multiplexes many jobs over a bounded worker fleet in
execution-count *quanta* (docs/service.md), so a job's lifecycle is a
small state machine:

    QUEUED ──▶ RUNNING ──▶ DONE | FAILED | CANCELLED
      │                         ▲
      └─────────────────────────┘  (rejected / cancelled before start)

``RUNNING`` covers the whole sliced execution: between quanta the job
waits in the scheduler but remains ``RUNNING`` to its client.  Every
transition is persisted through the job store before it is observable,
so a restarted server resumes exactly where the durable state says.

``DONE`` means the check itself finished — the *verdict* ("pass" or
"fail") says what it found.  ``FAILED`` is reserved for infrastructure
errors (unresolvable factory, invalid config, crash of the service
worker), which are bugs in the request or the service, not the program
under test.
"""

from __future__ import annotations

import enum
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class JobState(str, enum.Enum):
    """Lifecycle states of one checking job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Legal state-machine transitions (enforced by :meth:`JobRecord.transition`).
_TRANSITIONS = {
    JobState.QUEUED: {JobState.RUNNING, JobState.CANCELLED, JobState.FAILED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.CANCELLED},
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.CANCELLED: set(),
}

#: Priority classes and their deficit-round-robin weights: for every
#: quantum a ``bulk`` job receives, ``default`` jobs receive up to 3 and
#: ``smoke`` jobs up to 6 (docs/service.md#fairness).
PRIORITY_WEIGHTS: Dict[str, int] = {"smoke": 6, "default": 3, "bulk": 1}

#: Checker keyword arguments a job config may set.  Everything else —
#: checkpointing, quarantine, signal handling, observers — belongs to
#: the service, and silently accepting unknown keys would hide typos
#: ("max_execution") as unconfigured runs.
ALLOWED_CONFIG_KEYS = frozenset({
    "fairness", "k_yield", "strategy", "preemption_bound", "depth_bound",
    "nonfair_completion", "max_executions", "max_seconds",
    "stop_on_first_violation", "stop_on_first_divergence",
    "random_executions", "seed", "workers", "shard_target",
    "execution_budget_seconds", "max_crashes",
})


def new_job_id() -> str:
    """A collision-resistant job id, sortable by submission time."""
    return f"job-{int(time.time() * 1000):013x}-{uuid.uuid4().hex[:8]}"


def _validate_job_id(job_id: str) -> None:
    # Job ids become directory names; reject anything that could escape
    # the jobs root or collide with bookkeeping files.
    if (not job_id or job_id != os.path.basename(job_id)
            or job_id.startswith(".") or "/" in job_id or "\\" in job_id):
        raise ValueError(f"invalid job id {job_id!r}")


@dataclass
class JobSpec:
    """The immutable request half of a job."""

    #: Factory reference ``package.module:factory`` (same form the CLI
    #: ``check`` command takes); resolved inside the service worker.
    program: str
    #: Positional factory arguments (JSON values).
    factory_args: List[object] = field(default_factory=list)
    #: Checker keyword arguments (subset: :data:`ALLOWED_CONFIG_KEYS`).
    config: Dict[str, object] = field(default_factory=dict)
    #: Priority class: ``smoke`` | ``default`` | ``bulk``.
    priority: str = "default"
    #: Client identity for rate limiting / per-client caps.
    client: str = "anonymous"
    #: Event-stream verbosity of ``events.jsonl``: ``lifecycle`` (default,
    #: exploration milestones + job transitions), ``executions`` (adds
    #: per-execution start/finish), or ``decisions`` (everything — heavy).
    stream: str = "lifecycle"

    def validate(self) -> None:
        if ":" not in self.program:
            raise ValueError(
                f"program spec must look like 'package.module:factory', "
                f"got {self.program!r}"
            )
        if self.priority not in PRIORITY_WEIGHTS:
            raise ValueError(
                f"unknown priority {self.priority!r} "
                f"(expected one of {', '.join(sorted(PRIORITY_WEIGHTS))})"
            )
        unknown = set(self.config) - ALLOWED_CONFIG_KEYS
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        if not isinstance(self.client, str) or not self.client:
            raise ValueError("client must be a non-empty string")
        if self.stream not in ("lifecycle", "executions", "decisions"):
            raise ValueError(
                f"unknown stream mode {self.stream!r} "
                f"(expected lifecycle, executions, or decisions)"
            )

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "factory_args": list(self.factory_args),
            "config": dict(self.config),
            "priority": self.priority,
            "client": self.client,
            "stream": self.stream,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            program=data.get("program", ""),
            factory_args=list(data.get("factory_args", [])),
            config=dict(data.get("config", {})),
            priority=data.get("priority", "default"),
            client=data.get("client", "anonymous"),
            stream=data.get("stream", "lifecycle"),
        )


@dataclass
class JobRecord:
    """The mutable, durable half of a job (persisted as ``job.json``)."""

    id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    #: Progress counters, updated after every quantum.
    executions: int = 0
    transitions: int = 0
    quanta: int = 0
    #: "pass" / "fail" once DONE; None before.
    verdict: Optional[str] = None
    #: Human-readable cause for FAILED / CANCELLED states.
    error: Optional[str] = None
    #: Set by a cancel request; the running quantum stops at its next
    #: execution boundary and the job finalizes as CANCELLED.
    cancel_requested: bool = False
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_job_id(self.id)

    # ------------------------------------------------------------------
    def transition(self, target: JobState) -> None:
        """Move to ``target``, enforcing the lifecycle state machine."""
        if target is self.state:
            return
        if target not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"job {self.id}: illegal transition "
                f"{self.state.value} -> {target.value}"
            )
        self.state = target
        now = time.time()
        if target is JobState.RUNNING and self.started_at is None:
            self.started_at = now
        if target.terminal:
            self.finished_at = now

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state.value,
            "executions": self.executions,
            "transitions": self.transitions,
            "quanta": self.quanta,
            "verdict": self.verdict,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        return cls(
            id=data["id"],
            spec=JobSpec.from_dict(data.get("spec", {})),
            state=JobState(data.get("state", "queued")),
            executions=data.get("executions", 0),
            transitions=data.get("transitions", 0),
            quanta=data.get("quanta", 0),
            verdict=data.get("verdict"),
            error=data.get("error"),
            cancel_requested=data.get("cancel_requested", False),
            created_at=data.get("created_at", 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
        )
