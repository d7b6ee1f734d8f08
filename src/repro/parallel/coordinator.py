"""The coordinator: plans shards, drives the worker pool, merges results.

One :class:`ParallelCoordinator` runs one parallel search.  The control
flow is strategy-shaped:

* dfs / bfs / por / random — a single *phase*: plan the shards, feed
  them to the pool, merge in shard order;
* icb — one phase per preemption bound ``0..max_bound`` (the sweeps are
  inherently sequential: bound *b+1* only runs when bound *b* found no
  violation), each phase prefix-sharded and merged like a DFS phase,
  the per-bound results folded with the existing
  :func:`~repro.engine.strategies.merge_sweeps`.

Determinism: the shard plan never depends on the worker count, shards
are merged in shard-index order, and the BFS preamble (the planner's
interior probe records) is folded first — so the merged totals of a
counted sweep (no early-stop limits) are byte-identical no matter how
many workers ran them.  With ``stop_on_first_violation`` the *verdict*
is deterministic but the totals are not (workers race to the stop
message), exactly as a serial early stop depends on where the violation
sits in visit order.

Each worker talks to the coordinator over one private duplex pipe, so
no lock is shared between processes, and EOF on a worker's end is its
death notice.  Failure semantics (docs/parallel.md): a worker that dies
mid-shard is replaced (with exponential backoff under repeated deaths)
and its shard requeued; a worker that stops *heartbeating* —
SIGSTOPped, livelocked — is detected by the wedge timeout, SIGKILLed,
and treated exactly like a crash; a shard that kills its worker more
than ``DEFAULT_MAX_SHARD_ATTEMPTS`` times is quarantined (surfaced as a
warning and an incomplete merged result).  First violation wins: the
winning worker's shard stops via its own limits, everyone else is sent
``"stop"``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
from multiprocessing import util
from multiprocessing.connection import wait
from types import SimpleNamespace
from typing import Dict, List, Optional, Set

from repro.engine.coverage import CoverageTracker
from repro.engine.replay import replay_schedule
from repro.engine.results import ExplorationResult, Outcome
from repro.engine.strategies import Aggregator, ExplorationLimits, merge_sweeps
from repro.parallel.shard import (
    DEFAULT_SHARD_TARGET,
    Shard,
    ShardPlan,
    plan_prefix_shards,
    plan_range_shards,
)
from repro.parallel.worker import run_shard, worker_main
from repro.resilience.checkpoint import (
    exploration_from_state,
    exploration_to_state,
)

#: Attempts before a worker-killing shard is quarantined.
DEFAULT_MAX_SHARD_ATTEMPTS = 2

#: Seconds the coordinator waits for in-flight shards after a stop.
_DRAIN_SECONDS = 30.0

#: Default seconds of heartbeat silence before a worker counts as wedged.
DEFAULT_WEDGE_TIMEOUT = 30.0

#: Exponential-backoff schedule for worker respawns: first replacement
#: is immediate (a lone crash shouldn't stall the pool), repeated deaths
#: back off up to the cap so a crash-looping workload can't fork-bomb.
_RESPAWN_BACKOFF_START = 0.1
_RESPAWN_BACKOFF_CAP = 5.0

#: Held from pipe creation until the worker's end is closed here, so a
#: coordinator on another thread (the checking service runs jobs on
#: several) cannot fork in between: its worker would keep a copy of
#: that end open and hide this worker's death.
_SPAWN_LOCK = threading.Lock()

#: Strategies the coordinator knows how to shard.
PARALLEL_STRATEGIES = ("dfs", "icb", "bfs", "random", "por", "dpor")


def _fork_context():
    """The fork multiprocessing context, or None when unavailable.

    Programs hold closures (not picklable), so workers must inherit them
    by forking; platforms without fork fall back to inline execution of
    the same shard plan (identical totals, no parallelism).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class ParallelCoordinator:
    """Shards one search across a pool of forked worker processes."""

    #: What ``ResilienceController`` records as the checkpoint's strategy.
    name = "parallel"

    def __init__(
        self,
        program,
        policy_factory,
        config,
        limits: ExplorationLimits,
        *,
        strategy: str = "dfs",
        workers: int = 2,
        shard_target: Optional[int] = None,
        seed: int = 0,
        random_executions: int = 200,
        max_bound: int = 2,
        coverage: Optional[CoverageTracker] = None,
        observer=None,
        resilience=None,
        resilience_options=None,
        wedge_timeout: Optional[float] = DEFAULT_WEDGE_TIMEOUT,
    ) -> None:
        if strategy not in PARALLEL_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r} "
                f"(expected one of {', '.join(PARALLEL_STRATEGIES)})"
            )
        if workers < 1:
            raise ValueError("workers must be positive")
        self.program = program
        self.policy_factory = policy_factory
        self.config = config
        self.limits = limits
        self.strategy = strategy
        self.workers = workers
        self.shard_target = shard_target or DEFAULT_SHARD_TARGET
        self.seed = seed
        self.random_executions = random_executions
        self.max_bound = max_bound
        self.coverage = coverage
        self.observer = observer
        self.resilience = resilience
        self.resilience_options = resilience_options
        #: Workers heartbeat up their pipes; one silent for longer than
        #: ``wedge_timeout`` is *wedged* (SIGSTOP, livelock — its pipe
        #: open but no progress), SIGKILLed, and its shard requeued like
        #: a crashed worker's.  ``None`` disables the detector and the
        #: heartbeats.
        self.wedge_timeout = wedge_timeout
        self.warnings: List[str] = []

        self.policy_name = getattr(policy_factory(), "name", "")
        #: Per-shard limits: global caps are enforced here, not in the
        #: workers (a per-shard max_executions would multiply the cap).
        self.shard_limits = dataclasses.replace(
            limits, max_executions=None, max_seconds=None)

        # Run state -------------------------------------------------------
        self._stop_reason: Optional[str] = None
        self._streamed_executions = 0
        self._crashes = 0
        self._signatures: Set[object] = set()
        self._start_time = 0.0

        # Checkpoint state ------------------------------------------------
        self._completed_phases: List[dict] = []
        self._phase_index = 0
        self._plan_state: Optional[dict] = None
        self._shard_states: Dict[int, dict] = {}
        # Shards cut short by a coordinated stop: folded into the merge
        # of the stopped run, but never checkpointed — a resume must
        # re-run them from scratch.
        self._partial_states: Dict[int, dict] = {}

        # Pool state ------------------------------------------------------
        self._ctx = _fork_context()
        self._procs: List[SimpleNamespace] = []
        self._next_worker_id = 0
        #: Monotonic deadlines of replacement workers not yet forked
        #: (exponential backoff after repeated deaths).
        self._pending_respawns: List[float] = []
        self._respawn_backoff = 0.0

    # ------------------------------------------------------------------
    # labels and phases
    # ------------------------------------------------------------------
    def _phase_bounds(self) -> List[Optional[int]]:
        if self.strategy == "icb":
            return list(range(self.max_bound + 1))
        return [None]

    def _phase_label(self, bound: Optional[int]) -> str:
        if self.strategy == "icb":
            return f"cb={bound}"
        if self.strategy == "por":
            return "dfs+sleepsets"
        if self.strategy == "dpor":
            return "source-dpor"
        if self.strategy == "random":
            return f"random(n={self.random_executions})"
        return self.strategy

    def strategy_label(self) -> str:
        if self.strategy == "icb":
            return f"icb(<= {self.max_bound})"
        return self._phase_label(None)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _probe(self, prefix: List[int], bound: Optional[int]):
        """One planner probe: the guided replay of ``prefix``, extended
        with first alternatives.  Every strategy's decisions index the
        full schedulable set, so its branching factors are the
        strategy's own (a sleeping alternative becomes an empty shard)."""
        config = self.config
        if bound is not None:
            config = dataclasses.replace(config, preemption_bound=bound)
        return replay_schedule(self.program, prefix, self.policy_factory,
                               config, trace_window=config.trace_window)

    def _plan_phase(self, bound: Optional[int]) -> ShardPlan:
        if self.observer is None:
            return self._plan_shards(bound)
        with self.observer.spans.measure(
                f"plan {self._phase_label(bound)}", "planned") as span:
            plan = self._plan_shards(bound)
        span.args["shards"] = len(plan.shards)
        span.args["probes"] = plan.probes
        return plan

    def _plan_shards(self, bound: Optional[int]) -> ShardPlan:
        if self.strategy == "random":
            return plan_range_shards(self.random_executions,
                                     target=self.shard_target)
        if self.strategy == "dpor":
            # Source-DPOR discovers its backtrack points *dynamically* —
            # the subtree below a prefix depends on races seen elsewhere,
            # so a prefix partition is not exhaustive for it.  The whole
            # search runs as one shard: no speedup, but the parallel API
            # (checkpointing, worker supervision, identical totals at any
            # worker count) still applies.
            return ShardPlan(kind="prefix",
                             shards=[Shard(index=0, kind="prefix",
                                           prefix=())])
        return plan_prefix_shards(
            lambda prefix: self._probe(prefix, bound),
            target=self.shard_target,
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {
            "strategy": "parallel",
            "inner": self.strategy,
            "phase": self._phase_index,
            "completed_phases": list(self._completed_phases),
            "completed_shards": {str(i): s
                                 for i, s in self._shard_states.items()},
            "shard_target": self.shard_target,
            "aggregator": {"executions": self._merged_executions()},
        }
        if self._plan_state is not None:
            state["plan"] = self._plan_state
        return state

    def _merged_executions(self) -> int:
        total = sum(s.get("executions", 0)
                    for s in self._completed_phases)
        total += sum(s.get("executions", 0)
                     for s in self._shard_states.values())
        return total

    def load_state_dict(self, state: dict) -> None:
        recorded = state.get("strategy")
        if recorded != "parallel":
            raise ValueError(
                f"checkpoint was written by strategy {recorded!r}, "
                f"cannot resume it with a parallel search"
            )
        inner = state.get("inner")
        if inner != self.strategy:
            raise ValueError(
                f"parallel checkpoint was written for strategy {inner!r}, "
                f"cannot resume it with {self.strategy!r}"
            )
        self._phase_index = state.get("phase", 0)
        self._completed_phases = list(state.get("completed_phases", []))
        self._shard_states = {
            int(i): s
            for i, s in (state.get("completed_shards") or {}).items()
        }
        self.shard_target = state.get("shard_target", self.shard_target)
        self._plan_state = state.get("plan")

    def _checkpoint(self, *, force: bool = False) -> None:
        if self.resilience is None:
            return
        if force:
            self.resilience.flush_checkpoint(self)
        else:
            self.resilience.maybe_checkpoint(self)

    # ------------------------------------------------------------------
    # the pool
    # ------------------------------------------------------------------
    @property
    def inline(self) -> bool:
        return self._ctx is None

    def _pool_start(self) -> None:
        if not self.inline:
            for _ in range(self.workers):
                self._spawn_worker()

    def _spawn_worker(self) -> None:
        """Fork a worker that talks to the coordinator over one private
        duplex pipe.

        The coordinator, not the worker, records which shard a worker
        holds (``entry.shard``), so a worker that dies gives its shard
        back even if it never sent a byte.  Every fork drops its copy of
        the coordinator's end, so a worker reads EOF once the coordinator
        closes that end or dies.
        """
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        with _SPAWN_LOCK:
            conn, child_conn = self._ctx.Pipe()
            util.register_after_fork(conn, lambda end: end.close())
            proc = self._ctx.Process(
                target=worker_main,
                args=(worker_id, self.program, self.policy_factory,
                      self.config, self.shard_limits, self.strategy,
                      self.seed, self.resilience_options,
                      self.coverage is not None, self.observer is not None,
                      child_conn, self.wedge_timeout),
                daemon=True,
            )
            proc.start()
            child_conn.close()
        self._procs.append(SimpleNamespace(id=worker_id, proc=proc,
                                           conn=conn, shard=None,
                                           last_seen=time.monotonic()))

    @staticmethod
    def _send(entry, message) -> None:
        try:
            entry.conn.send(message)
        except OSError:  # the worker died; EOF on its pipe reports it
            pass

    def _retire(self, entry, *, kill: bool = False) -> None:
        """Drop a worker from the pool and reap it.  ``kill`` SIGKILLs it
        first: SIGTERM stays pending on a SIGSTOPped process."""
        self._procs.remove(entry)
        entry.conn.close()
        if kill:
            entry.proc.kill()
        entry.proc.join(timeout=5.0)

    def _schedule_respawn(self) -> None:
        """Queue a replacement worker with exponential backoff.

        The first death respawns immediately; each further death before
        the backoff resets doubles the delay up to the cap, so a workload
        that kills every worker it touches cannot fork-bomb the host.
        The backoff resets once any worker completes a shard.
        """
        self._pending_respawns.append(
            time.monotonic() + self._respawn_backoff)
        self._respawn_backoff = min(
            _RESPAWN_BACKOFF_CAP,
            self._respawn_backoff * 2 or _RESPAWN_BACKOFF_START)

    def _maybe_respawn(self) -> None:
        now = time.monotonic()
        due = [d for d in self._pending_respawns if d <= now]
        if not due:
            return
        self._pending_respawns = [d for d in self._pending_respawns
                                  if d > now]
        for _ in due:
            self._spawn_worker()

    def _pool_stop(self) -> None:
        """Close every pipe, which tells each worker to exit, and reap
        them; a worker still running after 10 s is killed."""
        for entry in self._procs:
            entry.conn.close()
        deadline = time.monotonic() + 10.0
        for entry in list(self._procs):
            entry.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            self._retire(entry, kill=entry.proc.is_alive())

    # ------------------------------------------------------------------
    # global stop conditions
    # ------------------------------------------------------------------
    def _check_global_limits(self) -> None:
        if self._stop_reason is not None:
            return
        if self.resilience is not None:
            reason = self.resilience.stop_requested()
            if reason is not None:
                self._stop_reason = reason
                return
        limits = self.limits
        if (limits.max_executions is not None
                and self._streamed_executions >= limits.max_executions):
            self._stop_reason = "max-executions"
        elif (limits.max_seconds is not None
              and time.perf_counter() - self._start_time
              >= limits.max_seconds):
            self._stop_reason = "max-seconds"
        elif (limits.max_crashes is not None
              and self._crashes >= limits.max_crashes):
            self._stop_reason = "max-crashes"

    def _check_shard_result(self, result: ExplorationResult) -> None:
        """Early-stop rules a serial search applies per execution, applied
        here at shard granularity."""
        if self._stop_reason is not None:
            return
        if (self.limits.stop_on_first_violation
                and result.found_violation):
            self._stop_reason = "violation"
        elif (self.limits.stop_on_first_divergence
              and result.divergences):
            self._stop_reason = "divergence"

    # ------------------------------------------------------------------
    # streaming telemetry
    # ------------------------------------------------------------------
    def _on_streamed_execution(self, outcome_value: str, steps: int,
                               preemptions: int,
                               hit_depth_bound: bool) -> None:
        self._streamed_executions += 1
        if self.observer is not None:
            self.observer.execution_started()
            self.observer.execution_finished(SimpleNamespace(
                outcome=Outcome(outcome_value), steps=steps,
                preemptions=preemptions, hit_depth_bound=hit_depth_bound,
            ))
        self._checkpoint()
        self._check_global_limits()

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> ExplorationResult:
        """Run (or resume) the sharded search; returns the merged result."""
        self._start_time = time.perf_counter()
        if self.observer is not None:
            self.observer.exploration_started(
                self.program.name, self.policy_name, self.strategy_label())
        bounds = self._phase_bounds()
        phase_results: List[ExplorationResult] = [
            exploration_from_state(s) for s in self._completed_phases]
        resume_phase = self._phase_index
        resume_plan, resume_shards = self._plan_state, self._shard_states
        self._pool_start()
        try:
            for index in range(len(phase_results), len(bounds)):
                bound = bounds[index]
                self._phase_index = index
                if index == resume_phase and resume_plan is not None:
                    plan = ShardPlan.from_state(resume_plan)
                    done = dict(resume_shards)
                    resume_plan, resume_shards = None, {}
                else:
                    plan = self._plan_phase(bound)
                    done = {}
                self._plan_state = plan.to_state()
                self._shard_states = done
                result = self._run_phase(bound, plan)
                phase_results.append(result)
                if self._stop_reason is None:
                    # Only a phase that ran to its natural end counts as
                    # completed; a stopped phase keeps its plan and shard
                    # states in the checkpoint so a resume re-enters it.
                    self._completed_phases.append(
                        exploration_to_state(result))
                    self._plan_state = None
                    self._shard_states = {}
                self._partial_states = {}
                if self.observer is not None and self.strategy == "icb":
                    self.observer.icb_sweep(bound, result)
                self._checkpoint(force=True)
                if self._stop_reason is not None:
                    break
                if (self.strategy == "icb"
                        and self.limits.stop_on_first_violation
                        and result.found_violation):
                    break
        finally:
            self._pool_stop()

        merged = self._merge_run(phase_results)
        if self.observer is not None:
            if merged.interrupted and self.resilience is not None:
                self.observer.search_interrupted(
                    self.resilience.stop_signal or "request")
            self._reconcile_metrics(merged)
            self.observer.exploration_finished(merged)
        return merged

    # ------------------------------------------------------------------
    def _run_phase(self, bound: Optional[int],
                   plan: ShardPlan) -> ExplorationResult:
        pending = [s for s in plan.shards
                   if s.index not in self._shard_states]
        merged = Aggregator(self.program.name, self.policy_name,
                            self._phase_label(bound), self.shard_limits)
        if self.strategy == "bfs":
            # Stateless BFS counts one execution per tree node; the
            # planner's interior probes are exactly the nodes above the
            # shard cut, so they belong in the totals — and a probe that
            # found a violation already decides the search.
            for record in plan.preamble:
                self._streamed_executions += 1
                reason = merged.add(record)
                if self._stop_reason is None:
                    self._stop_reason = reason
        self._check_global_limits()
        quarantined: List[Shard] = []
        if self._stop_reason is None and pending:
            if self.inline:
                self._run_phase_inline(bound, pending)
            else:
                quarantined = self._run_phase_pool(bound, pending)
        return self._merge_phase(merged.result, bound, plan, quarantined)

    def _run_phase_inline(self, bound: Optional[int],
                          pending: List[Shard]) -> None:
        """Fallback without fork: same plan, same merge, one process."""
        for shard in pending:
            if self._stop_reason is not None:
                break
            if self.observer is not None:
                self.observer.shard_started(shard.index, 0,
                                            shard.describe())
                self.observer.spans.instant(
                    f"shard {shard.index} assigned", "assigned",
                    shard=shard.index, worker=0)
            state, signatures, extras = run_shard(
                self.program, self.policy_factory, self.config,
                self.shard_limits, self.strategy, shard,
                seed=self.seed, bound=bound,
                collect_coverage=self.coverage is not None,
                on_execution=lambda r: self._on_streamed_execution(
                    r.outcome.value, r.steps, r.preemptions,
                    r.hit_depth_bound),
                stop_check=lambda: self._stop_reason,
                telemetry=self.observer is not None,
            )
            self._finish_shard(shard.index, 0, state, signatures,
                               extras=extras)

    def _run_phase_pool(self, bound: Optional[int],
                        pending: List[Shard]) -> List[Shard]:
        by_index = {s.index: s for s in pending}
        todo = list(pending)  # dispatch order = shard order
        outstanding = {s.index for s in pending}
        attempts: Dict[int, int] = {}
        quarantined: List[Shard] = []

        def lost(worker_id: int, shard_index: Optional[int], *,
                 wedged: bool = False, silent: float = 0.0) -> None:
            """A worker raised, died or wedged holding ``shard_index``.
            Until the run is stopping, the shard is requeued, and
            quarantined once it has failed too often; after a stop the
            verdict is decided, so the failure is only counted."""
            self._crashes += 1
            index = -1 if shard_index is None else shard_index
            requeued = False
            if self._stop_reason is None and shard_index in outstanding:
                attempts[index] = attempts.get(index, 0) + 1
                if attempts[index] <= DEFAULT_MAX_SHARD_ATTEMPTS:
                    requeued = True
                    todo.append(by_index[shard_index])
                else:
                    outstanding.discard(shard_index)
                    quarantined.append(by_index[shard_index])
                    self.warnings.append(
                        f"shard {shard_index} "
                        f"({by_index[shard_index].describe()}) "
                        f"quarantined after {attempts[index]} "
                        f"worker crashes; merged results exclude it"
                    )
            if self.observer is not None:
                if wedged:
                    self.observer.worker_wedged(worker_id, index, silent,
                                                requeued)
                else:
                    self.observer.worker_crashed(worker_id, index,
                                                 requeued)
                if requeued:
                    self.observer.spans.instant(
                        f"shard {shard_index} requeued", "requeued",
                        shard=shard_index, worker=worker_id)
            self._check_global_limits()

        while outstanding and self._stop_reason is None:
            # Keep the pool at full strength, with backoff on respawns.
            for _ in range(self.workers - len(self._procs)
                           - len(self._pending_respawns)):
                self._schedule_respawn()
            self._maybe_respawn()
            for entry in self._procs:
                if not todo:
                    break
                if entry.shard is not None:
                    continue
                shard = todo.pop(0)
                entry.shard = shard.index
                self._send(entry, (bound, shard.to_state()))
                if self.observer is not None:
                    self.observer.spans.instant(
                        f"shard {shard.index} assigned", "assigned",
                        shard=shard.index, worker=entry.id)
            self._supervise(outstanding, lost)

        if self._stop_reason is not None and outstanding:
            # Coordinated stop: tell the busy workers, then collect the
            # partial shard results still in flight.
            for entry in self._procs:
                if entry.shard is not None:
                    self._send(entry, "stop")
            deadline = time.monotonic() + _DRAIN_SECONDS
            while (any(entry.shard is not None for entry in self._procs)
                   and time.monotonic() < deadline):
                self._supervise(outstanding, lost)
        return quarantined

    def _supervise(self, outstanding: Set[int], lost) -> None:
        """One pass over the pool: wait up to 0.1 s, handle one message
        from each worker that sent one, and hand the shard of every dead
        or wedged worker to ``lost``."""
        # Silence is judged as of the pass start, so time the coordinator
        # itself spends below (a slow observer) never counts against a
        # worker.
        now = time.monotonic()
        by_conn = {entry.conn: entry for entry in self._procs}
        for conn in wait(list(by_conn), timeout=0.1):
            entry = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # EOF on a worker's pipe is its death notice.
                self._retire(entry)
                lost(entry.id, entry.shard)
                continue
            entry.last_seen = time.monotonic()
            kind = message[0]
            if kind == "start":
                if self.observer is not None:
                    self.observer.shard_started(message[1], entry.id, "")
            elif kind == "execution":
                self._on_streamed_execution(*message[1:])
            elif kind == "done":
                _, shard_index, state, signatures, extras = message
                entry.shard = None
                # A completed shard proves the pool is healthy again.
                self._respawn_backoff = 0.0
                outstanding.discard(shard_index)
                self._finish_shard(shard_index, entry.id, state,
                                   signatures, extras)
            elif kind == "error":
                _, shard_index, text = message
                entry.shard = None
                self.warnings.append(
                    f"worker {entry.id} failed on shard {shard_index}: "
                    f"{text.strip().splitlines()[-1]}"
                )
                lost(entry.id, shard_index)
        if self.wedge_timeout is not None:
            # A SIGSTOPped or livelocked worker keeps its pipe open but
            # goes heartbeat-silent.
            for entry in list(self._procs):
                silent = now - entry.last_seen
                if silent < self.wedge_timeout:
                    continue
                self._retire(entry, kill=True)
                self.warnings.append(
                    f"worker {entry.id} made no progress for "
                    f"{silent:.1f}s (wedged); killed"
                )
                lost(entry.id, entry.shard, wedged=True, silent=silent)
        self._check_global_limits()

    def _finish_shard(self, shard_index: int, worker_id: int, state: dict,
                      signatures, extras: Optional[dict] = None) -> None:
        self._signatures.update(signatures)
        if extras and self.observer is not None:
            # Fold the worker-local telemetry into the merged view: phase
            # timings aggregate (satellite of docs/parallel.md: --stats
            # under --workers N reports the pool's full engine time) and
            # spans land on the worker's own timeline lane.
            timers_state = extras.get("phase_timers")
            if timers_state:
                self.observer.timers.merge_state(timers_state)
            span_states = extras.get("spans")
            if span_states:
                lane = "inline" if self.inline else f"worker-{worker_id}"
                self.observer.spans.extend_from_state(
                    span_states, pid=worker_id + 1, lane_name=lane)
        if self.observer is not None:
            self.observer.spans.instant(
                f"shard {shard_index} merged", "merged",
                shard=shard_index, worker=worker_id)
        result = exploration_from_state(state)
        # Coordinated stops are not operator interrupts: the shard's
        # local "interrupted" must not leak into the merged verdict.
        # Such a shard was cut short, so it counts toward *this* run's
        # totals only — a resume re-runs it in full.
        if state.get("stop_reason") == "interrupted":
            state["stop_reason"] = None
            self._partial_states[shard_index] = state
        else:
            self._shard_states[shard_index] = state
        if self.observer is not None:
            self.observer.shard_finished(
                shard_index, worker_id, result.executions,
                result.transitions, result.found_violation)
        self._check_shard_result(result)
        self._checkpoint(force=True)

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def _merge_phase(self, merged: ExplorationResult,
                     bound: Optional[int], plan: ShardPlan,
                     quarantined: List[Shard]) -> ExplorationResult:
        """Fold the shard results, in shard order, into ``merged`` (which
        already holds the BFS preamble)."""
        all_complete = True
        for shard in plan.shards:
            state = self._shard_states.get(shard.index)
            if state is None:
                state = self._partial_states.get(shard.index)
            if state is None:
                all_complete = False
                continue
            result = exploration_from_state(state)
            merged.absorb(result, keep=self.limits.keep_records)
            all_complete = all_complete and result.complete
        merged.complete = (all_complete and not quarantined
                           and self._stop_reason is None
                           and self.strategy != "random")
        merged.stop_reason = self._stop_reason
        merged.limit_hit = self._stop_reason in (
            "max-executions", "max-seconds", "max-crashes")
        merged.wall_seconds = time.perf_counter() - self._start_time
        if self.coverage is not None:
            for signature in self._signatures:
                self.coverage.record(signature)
            merged.states_covered = self.coverage.count
        self._regenerate_traces(merged, bound)
        return merged

    def _merge_run(self,
                   phase_results: List[ExplorationResult]
                   ) -> ExplorationResult:
        if self.strategy == "icb":
            merged = merge_sweeps(self.program.name, self.policy_name,
                                  phase_results)
            merged.wall_seconds = time.perf_counter() - self._start_time
            merged.stop_reason = self._stop_reason
            merged.limit_hit = self._stop_reason in (
                "max-executions", "max-seconds", "max-crashes")
            return merged
        return phase_results[0]

    def _regenerate_traces(self, merged: ExplorationResult,
                           bound: Optional[int]) -> None:
        """Shard results travel trace-less (schedules replay
        deterministically); rebuild the traces of the records
        ``CheckResult.report`` prints."""
        config = self.config
        if bound is not None:
            config = dataclasses.replace(config, preemption_bound=bound)
        for records in (merged.violations, merged.deadlocks,
                        merged.divergences, merged.crashes):
            if not records or records[0].trace:
                continue
            record = records[0]
            try:
                replayed = replay_schedule(
                    self.program, record.schedule, self.policy_factory,
                    config)
            except Exception:  # pragma: no cover - replay divergence
                continue
            if replayed.outcome is record.outcome:
                records[0] = replayed

    # ------------------------------------------------------------------
    def _reconcile_metrics(self, merged: ExplorationResult) -> None:
        """Pin the streamed counters to the merged totals (crash-retry
        re-streams and drained messages would otherwise drift them)."""
        m = self.observer.metrics
        targets = {
            "executions": merged.executions,
            "transitions": merged.transitions,
            "violations": merged.outcomes.get(Outcome.VIOLATION, 0),
            "deadlocks": merged.outcomes.get(Outcome.DEADLOCK, 0),
            "crashes": merged.outcomes.get(Outcome.CRASHED, 0),
            "divergences": merged.outcomes.get(Outcome.DIVERGENCE, 0),
        }
        for name, value in targets.items():
            if value == 0 and not m.has_counter(name):
                # A serial run only creates counters it touches; keep
                # the exported metrics namespace identical.
                continue
            counter = m.counter(name)
            counter.inc(value - counter.value)
