"""Multi-tenant sweep scheduler over the one supervised executor.

Every sweep the daemon accepts — from however many clients — runs on
one :class:`repro.sim.parallel.Supervisor`, the executor one-shot
sweeps use: the same planner (:func:`repro.sim.parallel.plan_cells`:
specs validated at submit, cache then journal lookups, one task per
``(trace, spec family)`` for rate *and* detailed jobs), the same worker
entry (health events travel back with each result), and the same
:class:`repro.sim.parallel.TaskPolicy` supervision (per-task timeouts,
bounded retries with exponential backoff, pool reseeding after a killed
worker, in-daemon serial salvage, quarantine).  A cell computed by the
service is therefore bit-identical to the same cell from
``repro-bimode figure2``.  The scheduler keeps only what is
multi-tenant:

* **fair round-robin across clients** — dispatch cycles over clients
  with pending work, so one client's thousand-cell campaign cannot
  starve another's two-cell probe; within a client, higher-priority
  jobs dispatch first (FIFO within a priority);
* **admission control** — :meth:`submit` rejects new jobs with
  :class:`QueueFull` once the number of pending cells would exceed
  ``$REPRO_SERVICE_QUEUE_MAX`` (backpressure: the client retries);
* **per-request timeouts** — a job past its deadline (its own
  ``timeout`` or ``$REPRO_SERVICE_TIMEOUT``) fails with every completed
  cell preserved in its journal, so a resubmission resumes instead of
  restarting;
* **exactly-once cells** — identical ``(trace, spec)`` cells wanted by
  concurrent jobs are *single-flighted*: the first job's task computes
  the cell, every subscribed job receives the result, and the shared
  rate cache plus per-job journals make the dedupe durable across
  daemon restarts.  Cross-process, cold traces single-flight through
  the content-addressed trace store exactly as in one-shot sweeps;
* **graceful drain** — :meth:`drain` stops dispatch, lets in-flight
  tasks finish (their cells are journalled), re-persists unfinished
  jobs as ``queued``, and returns; a restarted daemon resumes them
  bit-identically.

The scheduler thread is the only driver of the supervisor; servers
talk to it through :meth:`submit` / :meth:`subscribe` under the
scheduler lock.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import health
from repro.faults import FaultInjected, fault_point
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, JobStore, ServiceJob
from repro.sim.parallel import (
    Supervisor,
    TaskPolicy,
    TraceRecipe,
    detailed_opts,
    plan_cells,
    store_cells,
)

__all__ = ["QueueFull", "SchedulerStopped", "SweepScheduler", "queue_max_from_env"]

Cell = Tuple[str, str]  # (trace key, spec)

#: Seconds between supervision ticks while tasks are in flight.
_TICK_S = 0.05

#: Default admission-control ceiling (pending cells) when the
#: ``$REPRO_SERVICE_QUEUE_MAX`` knob is unset.
_DEFAULT_QUEUE_MAX = 100_000


class QueueFull(RuntimeError):
    """Admission control rejected a job: the pending-cell queue is deep."""


class SchedulerStopped(RuntimeError):
    """The scheduler is draining or stopped and accepts no new jobs."""


def queue_max_from_env() -> int:
    """The ``$REPRO_SERVICE_QUEUE_MAX`` knob (pending cells)."""
    raw = os.environ.get("REPRO_SERVICE_QUEUE_MAX", "").strip()
    if not raw:
        return _DEFAULT_QUEUE_MAX
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_SERVICE_QUEUE_MAX must be an integer, got {raw!r}")
    return value if value > 0 else _DEFAULT_QUEUE_MAX


def service_timeout_from_env() -> Optional[float]:
    """The ``$REPRO_SERVICE_TIMEOUT`` knob (seconds per job; unset = none)."""
    raw = os.environ.get("REPRO_SERVICE_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SERVICE_TIMEOUT must be a number, got {raw!r}")
    return value if value > 0 else None


class _JobRuntime:
    """In-memory bookkeeping for one active job."""

    __slots__ = ("job", "journal", "remaining", "tkey_benches", "deadline", "subscribers")

    def __init__(self, job: ServiceJob, journal, tkey_benches, remaining, deadline):
        self.job = job
        self.journal = journal
        self.tkey_benches: Dict[str, List[str]] = tkey_benches
        self.remaining: Set[Cell] = remaining
        self.deadline: Optional[float] = deadline
        self.subscribers: List[Callable[[dict], None]] = []


class SweepScheduler:
    """Shared supervised pool scheduling jobs from many clients."""

    def __init__(
        self,
        store: Optional[JobStore] = None,
        cache=None,
        jobs: Optional[int] = None,
        policy: Optional[TaskPolicy] = None,
        queue_max: Optional[int] = None,
        default_timeout: Optional[float] = None,
    ):
        from repro.sim.parallel import effective_jobs
        from repro.sim.runner import ResultCache

        self.store = store if store is not None else JobStore()
        self.cache = cache if cache is not None else ResultCache()
        self.workers = max(1, effective_jobs(jobs))
        self.policy = policy if policy is not None else TaskPolicy.from_env()
        self.queue_max = queue_max if queue_max is not None else queue_max_from_env()
        self.default_timeout = (
            default_timeout if default_timeout is not None else service_timeout_from_env()
        )

        self._mu = threading.Lock()
        self._wake = threading.Event()
        self._jobs: Dict[str, _JobRuntime] = {}
        #: Per-client priority queues of (-priority, seq, task).
        self._queues: Dict[str, list] = {}
        #: Round-robin order over client ids with pending work.
        self._rr: List[str] = []
        self._rr_next = 0
        #: (tkey, spec) -> job ids waiting on that cell.  Presence of a
        #: cell here (still uncomputed) is the single-flight guarantee:
        #: at most one queued/in-flight task owns it.
        self._cell_subs: Dict[Cell, Set[str]] = {}
        self._seq = 0
        self._pending_cells = 0
        self._draining = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="sweep-scheduler", daemon=True
        )
        self._thread.start()

    def recover(self) -> List[str]:
        """Re-queue every job a previous daemon left unfinished.

        Their journals replay completed cells, so recovery re-simulates
        only what was in flight when the daemon died.  A manifest whose
        specs no longer validate fails its job, with the error, instead
        of stopping the daemon.
        """
        resumed = []
        for job in self.store.incomplete():
            job.state = QUEUED
            try:
                self._admit(job, enforce_admission=False)
            except (TypeError, ValueError) as exc:
                job.state = FAILED
                job.error = f"invalid job: {exc}"
                job.finished_at = time.time()
                self.store.save(job)
                health.emit(
                    "sweep-service",
                    "recovered",
                    "failed",
                    reason=f"{job.job_id}: {exc}",
                    severity="error",
                    job=job.job_id,
                )
                continue
            resumed.append(job.job_id)
        if resumed:
            health.emit(
                "sweep-service",
                "clean-start",
                "recovered",
                reason=f"resumed {len(resumed)} unfinished job(s) from manifests",
                severity="degraded",
                jobs=len(resumed),
            )
        return resumed

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: finish in-flight tasks, persist the rest.

        Queued (undispatched) work is *not* started; unfinished jobs are
        re-persisted as ``queued`` so the next daemon resumes them.
        Returns ``False`` if the scheduler thread failed to stop within
        ``timeout``.
        """
        with self._mu:
            self._draining = True
        self._wake.set()
        stopped = True
        if self._thread is not None:
            self._thread.join(timeout)
            stopped = not self._thread.is_alive()
        with self._mu:
            for rt in self._jobs.values():
                if not rt.job.terminal:
                    rt.job.state = QUEUED
                    self.store.save(rt.job)
        return stopped

    def stop(self) -> None:
        """Hard stop (tests): abandon everything without persisting."""
        with self._mu:
            self._draining = True
            self._stopped = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(5.0)

    # -- submission and subscription ----------------------------------------

    def submit(self, job: ServiceJob) -> ServiceJob:
        """Admit one job (admission control applies) and persist it."""
        return self._admit(job, enforce_admission=True)

    def _admit(self, job: ServiceJob, enforce_admission: bool) -> ServiceJob:
        if job.timeout is None:
            job.timeout = self.default_timeout
        if not job.submitted_at:
            job.submitted_at = time.time()
        journal = self.store.journal_for(job)

        with self._mu:
            if self._draining or self._stopped:
                raise SchedulerStopped("scheduler is draining; resubmit later")
            if job.job_id in self._jobs:
                return self._jobs[job.job_id].job

            plan = self._plan(job, journal)
            fresh = sum(len(task.specs) for task in plan.tasks)
            if enforce_admission and self._pending_cells + fresh > self.queue_max:
                health.emit(
                    "sweep-service",
                    "admitted",
                    "rejected",
                    reason=(
                        f"queue depth {self._pending_cells} + {fresh} new cells "
                        f"exceeds REPRO_SERVICE_QUEUE_MAX={self.queue_max}"
                    ),
                    severity="degraded",
                    job=job.job_id,
                )
                raise QueueFull(
                    f"queue is full ({self._pending_cells} cells pending, "
                    f"max {self.queue_max}); retry later"
                )

            for tkey, known in plan.known.items():
                for spec, value in known.items():
                    for name in plan.tkey_benches[tkey]:
                        job.results.setdefault(spec, {})[name] = value
            runtime = _JobRuntime(
                job,
                journal,
                plan.tkey_benches,
                set(plan.missing),
                (job.submitted_at + job.timeout) if job.timeout else None,
            )
            self._jobs[job.job_id] = runtime
            job.state = RUNNING if plan.missing else job.state
            job.total_cells = len(plan.tkey_benches) * len(set(plan.specs))
            job.completed_cells = job.total_cells - len(plan.missing)

            # Subscribe to every missing cell; tasks exist only for the
            # cells nobody else is already computing (single flight).
            for cell in plan.missing:
                self._cell_subs.setdefault(cell, set()).add(job.job_id)
            for task in plan.tasks:
                task.client = job.client
                task.priority = job.priority
                self._seq += 1
                task.seq = self._seq
                self._enqueue(task)
            self._pending_cells += fresh

        self.store.save(job)
        if not plan.missing:
            # Everything came from the cache/journal: complete inline.
            with self._mu:
                self._finalize(runtime)
        self._wake.set()
        return job

    def subscribe(self, job_id: str, callback: Callable[[dict], None]) -> Optional[dict]:
        """Stream events for one job; returns a terminal snapshot instead
        if the job already finished (or ``None`` for an unknown job)."""
        with self._mu:
            runtime = self._jobs.get(job_id)
            if runtime is not None and not runtime.job.terminal:
                runtime.subscribers.append(callback)
                return None
        job = self.store.load(job_id)
        if job is None:
            return {"event": "error", "error": f"unknown job {job_id!r}"}
        return self._done_event(job)

    def status(self, job_id: Optional[str] = None) -> List[dict]:
        """Manifest snapshots (without result payloads) for ``status``."""
        with self._mu:
            live = {jid: rt.job for jid, rt in self._jobs.items()}
        if job_id is not None:
            job = live.get(job_id) or self.store.load(job_id)
            return [job.to_dict(results=False)] if job is not None else []
        jobs = {job.job_id: job for job in self.store.list()}
        jobs.update(live)
        return [
            job.to_dict(results=False)
            for job in sorted(jobs.values(), key=lambda j: (j.submitted_at, j.job_id))
        ]

    def result(self, job_id: str) -> Optional[dict]:
        """A terminal job's full manifest (with results), else ``None``."""
        job = self.store.load(job_id)
        if job is None or not job.terminal:
            return None
        return job.to_dict()

    @property
    def pending_cells(self) -> int:
        with self._mu:
            return self._pending_cells

    # -- planning ------------------------------------------------------------

    def _plan(self, job: ServiceJob, journal):
        """The shared planner over one job (called under the lock).

        Invalid specs raise before anything is persisted; cells owned
        by another job's pending task become subscriptions, not tasks.
        """
        traces = {
            ref.name: TraceRecipe(name=ref.name, length=ref.length, seed=ref.seed)
            for ref in job.benchmarks
        }
        return plan_cells(
            job.kind,
            job.specs,
            traces,
            cache=self.cache,
            journal=journal,
            opts=detailed_opts() if job.kind == "detailed" else None,
            claimed=self._cell_subs,
        )

    # -- queues and fairness --------------------------------------------------

    def _enqueue(self, task) -> None:
        queue = self._queues.setdefault(task.client, [])
        heapq.heappush(queue, (-task.priority, task.seq, task))
        if task.client not in self._rr:
            self._rr.append(task.client)

    def _next_task(self):
        """Pop the next dispatchable task, fair round-robin over clients.

        Called under the lock.  Tasks whose every cell lost its
        subscribers (job timed out or failed) are skipped and their
        cells retired.
        """
        if not self._rr:
            return None
        for _ in range(len(self._rr)):
            self._rr_next %= len(self._rr)
            client = self._rr[self._rr_next]
            queue = self._queues.get(client, [])
            while queue:
                _, _, task = heapq.heappop(queue)
                live = []
                for spec in task.specs:
                    cell = (task.tkey, spec)
                    if self._cell_subs.get(cell):
                        live.append(spec)
                    elif cell in self._cell_subs:
                        # Every subscriber abandoned this cell: retire it.
                        del self._cell_subs[cell]
                        self._pending_cells -= 1
                if not live:
                    continue
                task.specs = tuple(live)
                if not queue:
                    del self._queues[client]
                    self._rr.pop(self._rr_next)
                else:
                    self._rr_next += 1
                return task
            # Empty queue for this client: retire it from the rotation.
            self._queues.pop(client, None)
            self._rr.pop(self._rr_next)
        return None

    # -- completion and delivery ----------------------------------------------

    def _notify(self, runtime: _JobRuntime, event: dict) -> None:
        for callback in list(runtime.subscribers):
            try:
                callback(event)
            except Exception:  # subscriber gone; drop it
                try:
                    runtime.subscribers.remove(callback)
                except ValueError:
                    pass

    def _done_event(self, job: ServiceJob) -> dict:
        return {"event": "done", "job": job.to_dict()}

    def _deliver(self, task, values: Dict[str, object]) -> None:
        """Fan one completed task's cells out to every subscribed job.

        Writes the shared cache, each job's journal (one append per
        job), progress events, and finalizes jobs whose last cell
        arrived.
        """
        tkey = task.tkey
        with self._mu:
            store_cells(task.kind, tkey, values, self.cache, None)
            per_job: Dict[str, Dict[str, object]] = {}
            for spec, value in values.items():
                cell = (tkey, spec)
                for job_id in self._cell_subs.pop(cell, ()):  # may be shared
                    runtime = self._jobs.get(job_id)
                    if runtime is not None and cell in runtime.remaining:
                        per_job.setdefault(job_id, {})[spec] = value
                self._pending_cells -= 1
            for job_id, cells in per_job.items():
                runtime = self._jobs[job_id]
                runtime.journal.record_many(tkey, cells)
                for spec, value in cells.items():
                    for bench_name in runtime.tkey_benches.get(tkey, ()):
                        runtime.job.results.setdefault(spec, {})[bench_name] = value
                    runtime.remaining.discard((tkey, spec))
                runtime.job.completed_cells = runtime.job.total_cells - len(
                    runtime.remaining
                )
                self._notify(
                    runtime,
                    {
                        "event": "progress",
                        "job_id": job_id,
                        "completed": runtime.job.completed_cells,
                        "total": runtime.job.total_cells,
                        "tkey": tkey,
                    },
                )
                if not runtime.remaining:
                    self._finalize(runtime)

    def _finalize(self, runtime: _JobRuntime) -> None:
        """Terminal transition; called under the lock."""
        job = runtime.job
        if job.terminal:
            return
        job.state = FAILED if (job.failures or job.error) else DONE
        if job.failures and not job.error:
            job.error = f"{len(job.failures)} cell(s) quarantined"
        job.finished_at = time.time()
        removed = 0
        try:
            removed = runtime.journal.compact()
        except OSError:  # pragma: no cover - compaction is best-effort
            pass
        self.store.save(job)
        if removed:
            health.emit(
                "sweep-service",
                "journal",
                "compacted",
                reason=f"{job.job_id}: dropped {removed} redundant line(s)",
                severity="info",
                job=job.job_id,
            )
        self._notify(runtime, self._done_event(job))
        runtime.subscribers.clear()
        # Terminal jobs live on disk only; evicting the runtime bounds
        # the daemon's memory over an unbounded job history.
        self._jobs.pop(job.job_id, None)

    def _fail_job(self, runtime: _JobRuntime, error: str) -> None:
        """Abandon a job (timeout); completed cells stay journalled.

        Called under the lock.  The job's pending cells lose their
        subscription; cells shared with other jobs keep flying, and
        cells nobody else wants are retired lazily at dispatch time.
        """
        job = runtime.job
        job.error = error
        for cell in list(runtime.remaining):
            subs = self._cell_subs.get(cell)
            if subs is not None:
                subs.discard(job.job_id)
        runtime.remaining.clear()
        self._finalize(runtime)
        health.emit(
            "sweep-service",
            "completed",
            "abandoned",
            reason=f"{job.job_id}: {error}",
            severity="error",
            job=job.job_id,
        )

    def _quarantine_task(self, task, exc: BaseException) -> None:
        """Give up on a task's cells for every subscribed job."""
        detail = f"{type(exc).__name__}: {exc}"
        health.emit(
            "sweep-service",
            "computed",
            "quarantined",
            reason=f"{task.tkey}: {detail}",
            severity="error",
            cells=len(task.specs),
            attempts=task.attempts,
        )
        with self._mu:
            for spec in task.specs:
                cell = (task.tkey, spec)
                for job_id in self._cell_subs.pop(cell, ()):
                    runtime = self._jobs.get(job_id)
                    if runtime is None or cell not in runtime.remaining:
                        continue
                    runtime.remaining.discard(cell)
                    runtime.job.failures.append(
                        {"tkey": task.tkey, "spec": spec, "error": detail}
                    )
                    runtime.job.completed_cells = runtime.job.total_cells - len(
                        runtime.remaining
                    )
                    if not runtime.remaining:
                        self._finalize(runtime)
                self._pending_cells -= 1

    # -- the supervision loop --------------------------------------------------

    def _requeue(self, task) -> None:
        with self._mu:
            self._enqueue(task)

    def _expire_jobs(self) -> None:
        """Fail every running job past its deadline (under the lock)."""
        now = time.time()
        for runtime in list(self._jobs.values()):
            if runtime.job.terminal or runtime.deadline is None:
                continue
            if now > runtime.deadline:
                self._fail_job(
                    runtime,
                    f"timed out after {runtime.job.timeout:g}s "
                    "(completed cells are journalled; resubmit to resume)",
                )

    def _loop(self) -> None:
        supervisor = Supervisor(
            self.workers,
            self.policy,
            "sweep-service",
            deliver=self._deliver,
            quarantine=self._quarantine_task,
            requeue=self._requeue,
        )
        try:
            while True:
                with self._mu:
                    if self._stopped:
                        return
                    draining = self._draining
                    self._expire_jobs()
                    todo = []
                    while not draining and len(supervisor.inflight) + len(todo) < self.workers:
                        task = self._next_task()
                        if task is None:
                            break
                        todo.append(task)
                if draining and not supervisor.inflight:
                    return
                for task in todo:
                    try:
                        fault_point(
                            "service.dispatch", bench=task.recipe.name, cells=len(task.specs)
                        )
                    except FaultInjected as exc:
                        # A per-task failure, not a pool failure: retry
                        # just this task.
                        supervisor.fail(task, exc, "dispatch-fault")
                    else:
                        supervisor.submit(task)
                if supervisor.inflight:
                    supervisor.poll(_TICK_S)
                elif not todo:
                    self._wake.wait(timeout=_TICK_S if draining else 0.2)
                    self._wake.clear()
        finally:
            supervisor.close(abandon=self._stopped)
