"""One supervised executor for every sweep: one-shot and service.

Design-space sweeps (specs x benchmarks) are embarrassingly parallel
across traces.  Every grid in the package — serial and pooled one-shot
sweeps (:func:`evaluate_matrix_parallel`, behind
:func:`repro.sim.runner.evaluate_matrix`; :func:`detailed_matrix`),
cold-store materialization (:func:`materialize_parallel`) and the sweep
daemon (:class:`repro.service.scheduler.SweepScheduler`) — runs through
the same three parts, parameterized by cell kind (``rates``,
``detailed`` or ``materialize``, see ``_CELLS``):

* **the planner** (:func:`plan_cells`) groups benchmarks by trace key,
  so identical ``(spec, trace)`` cells are simulated once, looks every
  cell up (result cache then journal for rates, journal for detailed)
  and groups the missing ones into tasks: one per ``(trace, spec
  family)`` — the fused planner's grouping — for a worker pool, one per
  trace when the task runs in-process, so per-trace work (the Section-4
  pc-code stream) happens once;
* **the supervisor** (:class:`Supervisor`) owns the
  ``ProcessPoolExecutor`` and runs each task under :class:`TaskPolicy`:
  a per-task timeout (``$REPRO_TASK_TIMEOUT``; the pool of an expired
  task is abandoned so stragglers cannot wedge a sweep), bounded
  retries with exponential backoff (``$REPRO_TASK_RETRIES``,
  ``$REPRO_TASK_BACKOFF``), a reseeded pool after a
  ``BrokenProcessPool`` (a worker killed mid-task), one final
  in-process attempt (serial salvage), then quarantine into a
  structured :class:`FailedCell`.  It runs tasks in-process when
  ``jobs == 1``, when the pool cannot be created, or when a trace has
  no :class:`TraceRecipe`;
* **the merger** (:func:`store_cells`) writes each completed task's
  cells into the result cache and the journal as it finishes; the
  journal is durable line by line, so a crash loses at most the
  in-flight tasks.

Tasks carry a :class:`TraceRecipe` — ``(name, length, seed)`` plus an
optional trace store root — rather than the trace arrays: workers map
the published trace out of the zero-copy store
(:class:`repro.traces.store.TraceStore`, shared OS page cache across
the pool) and materialize it on first use.  The one worker entry ships
the health events it recorded back with each result, so the parent's
:mod:`repro.health` log says which engine ran every family in every
process.  Pool workers restore the default ``SIGTERM`` action and exit
when their parent dies, so a ``kill -9``'d daemon leaves no orphans.

Workers never touch the result cache; the final matrix is assembled in
input order, deterministic regardless of completion order, and a cell
routes exactly as in a serial sweep, so serial, pooled and service
sweeps produce byte-identical tables.  Quarantined cells are omitted
from the matrix and listed on ``SweepResult.failures`` for every
``jobs`` value; figure-level callers refuse partial results.

Parallelism is controlled by the ``$REPRO_JOBS`` environment knob (or an
explicit ``jobs`` argument); unset means serial.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as _tb
from collections import deque
from contextlib import ExitStack
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import health
from repro.core.registry import check_specs
from repro.faults import fault_point
from repro.sim.fused import plan_families
from repro.sim.runner import evaluate_specs, trace_key
from repro.traces.record import BranchTrace

__all__ = [
    "TraceRecipe",
    "TaskPolicy",
    "FailedCell",
    "SweepResult",
    "Supervisor",
    "SweepPlan",
    "recipe_of",
    "parallel_jobs",
    "effective_jobs",
    "detailed_opts",
    "plan_cells",
    "store_cells",
    "materialize_parallel",
    "evaluate_matrix_parallel",
    "detailed_matrix",
]

Cell = Tuple[str, str]  # (trace key, spec)




@dataclass(frozen=True)
class TraceRecipe:
    """Everything a worker needs to materialize a benchmark trace.

    ``store_root`` (optional) pins the trace store the worker should
    materialize into/load from; ``None`` defers to the environment's
    default cache root, which pool workers inherit.
    """

    name: str
    length: int
    seed: int
    store_root: Optional[str] = None

    @property
    def tkey(self) -> str:
        """The same cache key :func:`repro.sim.runner.trace_key` derives
        from the materialized trace, computed without the arrays."""
        return f"{self.name}-n{self.length}-s{self.seed}"


def recipe_of(trace: BranchTrace) -> Optional[TraceRecipe]:
    """The trace's regeneration recipe, or ``None`` if it has none.

    Only generated workload traces (a registered profile name plus a
    ``profile_seed`` in metadata) can be rebuilt from a recipe; anything
    else must be evaluated in-process.
    """
    seed = trace.metadata.get("profile_seed")
    if seed is None or not trace.name:
        return None
    from repro.workloads.profiles import ALL_PROFILES

    if trace.name not in ALL_PROFILES:
        return None
    return TraceRecipe(name=trace.name, length=len(trace), seed=int(seed))


def parallel_jobs(default: int = 1) -> int:
    """Worker count from the ``$REPRO_JOBS`` knob.

    ``REPRO_JOBS=0`` (or ``auto``) means one worker per CPU; unset falls
    back to ``default`` (serial unless a caller opts in).
    """
    env = os.environ.get("REPRO_JOBS", "").strip()
    if not env:
        return max(1, default)
    if env.lower() == "auto":
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer or 'auto', got {env!r}")
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def effective_jobs(jobs: Optional[int]) -> int:
    """Resolve an explicit ``jobs`` argument against the env knob.

    ``None`` defers to ``$REPRO_JOBS``; ``0`` or negative means one
    worker per CPU, mirroring the knob's convention.
    """
    if jobs is None:
        return parallel_jobs()
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# -- supervision policy and fault reports -------------------------------------------


@dataclass(frozen=True)
class TaskPolicy:
    """Per-task supervision knobs for the worker pool.

    ``timeout`` is wall-clock seconds a task may run before its pool is
    abandoned and the task retried (``None`` disables); ``retries`` is
    how many *additional* pool attempts a failing task gets before the
    final in-parent serial attempt; ``backoff`` is the base of the
    exponential sleep between retries.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.1

    @classmethod
    def from_env(cls) -> "TaskPolicy":
        """Policy from ``$REPRO_TASK_TIMEOUT`` / ``_RETRIES`` / ``_BACKOFF``."""

        def _number(name: str, default: float) -> float:
            raw = os.environ.get(name, "").strip()
            if not raw:
                return default
            try:
                return float(raw)
            except ValueError:
                raise ValueError(f"{name} must be a number, got {raw!r}")

        timeout = _number("REPRO_TASK_TIMEOUT", 0.0)
        retries = int(_number("REPRO_TASK_RETRIES", 2))
        backoff = _number("REPRO_TASK_BACKOFF", 0.1)
        return cls(
            timeout=timeout if timeout > 0 else None,
            retries=max(0, retries),
            backoff=max(0.0, backoff),
        )


@dataclass(frozen=True)
class FailedCell:
    """A quarantined (benchmark, specs) task that exhausted every retry."""

    bench: str
    specs: Tuple[str, ...]
    error_type: str
    message: str
    traceback: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"{self.bench} x [{', '.join(self.specs)}]: {self.error_type}: "
            f"{self.message} (after {self.attempts} attempts)"
        )


class SweepResult(Dict[str, Dict[str, float]]):
    """An ``evaluate_matrix`` result dict plus fault metadata.

    Equality, iteration, and indexing behave exactly like the plain
    ``{spec: {bench: rate}}`` dict, so existing callers are unaffected;
    ``failures`` lists the quarantined cells (empty on a clean sweep).
    """

    def __init__(self, data=None, failures: Optional[Sequence[FailedCell]] = None):
        super().__init__(data or {})
        self.failures: List[FailedCell] = list(failures or [])

    @property
    def quarantined_benches(self) -> List[str]:
        return sorted({cell.bench for cell in self.failures})


# -- tasks and the worker entry ----------------------------------------------------


class _Task:
    """One supervised work item: a cell kind's function over ``specs``
    on one trace.

    ``recipe`` is what a pool worker needs; ``trace`` (when the caller
    already holds the arrays) is used in-process instead.  ``client``,
    ``priority`` and ``seq`` order the sweep service's fair queues.
    """

    __slots__ = (
        "kind",
        "tkey",
        "bench",
        "recipe",
        "trace",
        "specs",
        "opts",
        "client",
        "priority",
        "seq",
        "attempts",
    )

    def __init__(self, kind, tkey, bench, recipe, specs, opts=None, trace=None):
        self.kind = kind
        self.tkey = tkey
        self.bench = bench
        self.recipe: Optional[TraceRecipe] = recipe
        self.trace: Optional[BranchTrace] = trace
        self.specs: Tuple[str, ...] = tuple(specs)
        self.opts = opts
        self.client = ""
        self.priority = 0
        self.seq = 0
        self.attempts = 0


def _recipe_store(recipe: TraceRecipe):
    if recipe.store_root is None:
        return None
    from pathlib import Path

    from repro.traces.store import TraceStore

    return TraceStore(Path(recipe.store_root))


def _in_store(recipe: TraceRecipe) -> bool:
    store = _recipe_store(recipe)
    if store is None:
        from repro.workloads.suite import trace_store

        store = trace_store()
    return store.has(recipe.name, recipe.length, recipe.seed)


def _load_recipe(recipe: TraceRecipe) -> BranchTrace:
    from repro.workloads.suite import load_benchmark

    return load_benchmark(
        recipe.name,
        length=recipe.length,
        seed=recipe.seed,
        store=_recipe_store(recipe),
    )


def _rate_cells(specs: Sequence[str], trace: BranchTrace, opts) -> Dict[str, float]:
    return evaluate_specs(specs, trace, cache=None)


def _detailed_cells(
    specs: Sequence[str], trace: BranchTrace, opts: dict
) -> Dict[str, dict]:
    """Run and summarize the detailed simulation of each spec on one trace.

    Cells evaluate family-wise through the fused detailed passes
    (:func:`repro.sim.fused.family_detailed`): specs sharing a scheme
    share one pass's precomputed streams, and each lane's
    ``(predictions, counter_ids)`` is bit-identical to the scalar
    ``run_detailed`` path.  The heavy per-access attribution arrays
    never leave this function — each cell is reduced to its compact
    Section-4 summary dict
    (:func:`repro.analysis.summary.summarize_detailed`), kilobytes
    instead of tens of megabytes, which is what makes detailed cells
    shippable across the process pool and journallable as JSON.
    """
    from repro.analysis.bias import pc_code_stream
    from repro.analysis.summary import summarize_detailed
    from repro.core.interfaces import DetailedSimulation, SimulationResult
    from repro.sim.fused import family_detailed

    pc_codes = pc_code_stream(trace.pcs)  # per-trace, shared by every cell
    out: Dict[str, dict] = {}
    for family in plan_families(list(specs)):
        rows = family_detailed(family, trace)
        for spec in family.specs:
            fault_point("detailed", bench=trace.name or "anon", spec=spec)
            predictions, counter_ids, num_counters = rows[spec]
            detailed = DetailedSimulation(
                result=SimulationResult(
                    predictor_name=spec,
                    trace_name=trace.name,
                    predictions=predictions,
                    outcomes=trace.outcomes,
                ),
                counter_ids=counter_ids,
                num_counters=num_counters,
                pcs=trace.pcs,
            )
            out[spec] = summarize_detailed(
                detailed,
                threshold=opts["threshold"],
                include_bias_table=opts["include_bias_table"],
                pc_codes=pc_codes,
            )
    return out


def _materialized(specs, trace: BranchTrace, opts) -> None:
    """A materialize task has no cells: its product is the published
    trace.  The store's single-flight lock makes overlapping
    materializers generate at most once between them."""
    return None


#: Cell function per task kind: ``(specs, trace, opts) -> values``.
_CELLS: Dict[str, Callable] = {
    "rates": _rate_cells,
    "detailed": _detailed_cells,
    "materialize": _materialized,
}


def detailed_opts(
    threshold: Optional[float] = None, include_bias_table: bool = False
) -> dict:
    """Options of a detailed task (``threshold=None``: the paper's bias threshold)."""
    from repro.analysis.bias import BIAS_THRESHOLD

    return {
        "threshold": float(BIAS_THRESHOLD if threshold is None else threshold),
        "include_bias_table": bool(include_bias_table),
    }


def _worker_init(parent_pid: int) -> None:
    """Pool worker set-up: never trap the parent's signals, die with it.

    A forked worker inherits its parent's Python ``SIGTERM`` handler
    (the daemon's drain, a sweep journal's cache flush); the default
    action lets a plain ``kill`` reap it.  A parent that dies without
    shutting the pool down (``kill -9``) leaves idle workers blocked on
    the call queue forever, so a watchdog thread exits the worker once
    it has been re-parented.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def _watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=_watch, name="parent-watch", daemon=True).start()


def _run_task(kind: str, recipe: TraceRecipe, specs, opts):
    """The pool worker entry: map (or materialize) the trace, run the
    kind's cell function, and return ``(values, health events)`` so the
    parent records what ran in the worker."""
    fault_point("worker", bench=recipe.name)
    events: List[health.DegradationEvent] = []
    health.add_listener(events.append)
    try:
        values = _CELLS[kind](specs, _load_recipe(recipe), opts)
    finally:
        health.remove_listener(events.append)
    return values, events


# -- the supervisor ------------------------------------------------------------------


class Supervisor:
    """Owns the worker pool and drives tasks through it under a :class:`TaskPolicy`.

    A task runs in-process when ``workers == 0`` (a serial sweep), when
    it has no recipe, or once the pool cannot be created (one
    ``pool -> serial`` event).  A pool task that raises, dies with its
    worker (``BrokenProcessPool``: every in-flight task is charged, as
    the crash cannot be attributed) or outlives ``policy.timeout`` (its
    pool is abandoned; in-flight neighbours are requeued uncharged) is
    retried with exponential backoff.  After ``policy.retries`` retries
    it gets one final in-process attempt (serial salvage); a failed
    in-process attempt quarantines the task.

    The caller owns the cells: ``deliver(task, values)`` receives each
    completed task, ``quarantine(task, exc)`` each task that failed its
    final attempt, and ``requeue(task)`` each task due another attempt
    (default: this supervisor's own queue, drained by :meth:`run`).
    Health events carry the caller's ``component`` name.
    """

    def __init__(
        self,
        workers: int,
        policy: TaskPolicy,
        component: str,
        deliver: Callable,
        quarantine: Callable,
        requeue: Optional[Callable] = None,
    ):
        self.workers = workers
        self.policy = policy
        self.component = component
        self.deliver = deliver
        self.quarantine = quarantine
        self.queue: deque = deque()
        self.requeue = requeue if requeue is not None else self.queue.append
        self.inflight: Dict[object, Tuple[_Task, float]] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._serial = workers <= 0

    def run(self, tasks: Sequence[_Task]) -> None:
        """Drive ``tasks``, and every retry they earn, to completion."""
        self.queue.extend(tasks)
        tick = 0.05 if self.policy.timeout is not None else None
        try:
            while self.queue or self.inflight:
                while self.queue:
                    self.submit(self.queue.popleft())
                self.poll(tick)
        finally:
            self.close()

    def submit(self, task: _Task) -> None:
        """Start one task: in the pool, or in-process when it cannot go there."""
        if task.recipe is None or not self._ensure_pool():
            self._run_inline(task)
            return
        try:
            future = self._pool.submit(
                _run_task, task.kind, task.recipe, task.specs, task.opts
            )
        except RuntimeError as exc:  # a broken or shut-down pool
            self.requeue(task)  # never reached a worker: no attempt charged
            self._reseed(exc)
            return
        self.inflight[future] = (task, time.monotonic())

    def poll(self, tick: Optional[float]) -> None:
        """Wait up to ``tick`` seconds (``None``: until one finishes) and
        settle every finished, crashed or expired in-flight task."""
        if not self.inflight:
            return
        ready, _ = wait(list(self.inflight), timeout=tick, return_when=FIRST_COMPLETED)
        broken: Optional[BaseException] = None
        for future in ready:
            task, _started = self.inflight.pop(future)
            try:
                values, events = future.result()
            except BrokenProcessPool as exc:
                broken = exc
                self.fail(task, exc, "pool-broken")
            except Exception as exc:
                self.fail(task, exc, "worker-raised")
            else:
                for event in events:
                    health.record(event)
                self.deliver(task, values)
        if broken is not None:
            self._reseed(broken)
        elif self.policy.timeout is not None and self.inflight:
            self._expire()

    def fail(self, task: _Task, exc: BaseException, kind: str) -> None:
        """Charge ``task`` one failed attempt: retry it, or salvage it in-process."""
        task.attempts += 1
        health.emit(
            self.component,
            "worker-ok",
            kind,
            reason=f"{task.bench}: {type(exc).__name__}: {exc}",
            severity="degraded",
            attempt=task.attempts,
        )
        if task.attempts > self.policy.retries:
            self._run_inline(task)
            return
        if self.policy.backoff:
            time.sleep(self.policy.backoff * (2 ** (task.attempts - 1)))
        self.requeue(task)

    def close(self, abandon: bool = False) -> None:
        """Shut the pool down, waiting for in-flight work unless ``abandon``."""
        if abandon:
            self._abandon()
        elif self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> bool:
        if self._pool is None and not self._serial:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_worker_init,
                    initargs=(os.getpid(),),
                )
            except (OSError, ValueError, RuntimeError) as exc:
                # Restricted platform or spawn failure: everything from
                # here on runs in-process.
                health.emit(
                    self.component,
                    "pool",
                    "serial",
                    reason=f"{type(exc).__name__}: {exc}",
                    severity="degraded",
                )
                self._serial = True
        return self._pool is not None

    def _run_inline(self, task: _Task) -> None:
        """Run ``task`` in this process: its only attempt, or its final one."""
        try:
            trace = task.trace if task.trace is not None else _load_recipe(task.recipe)
            values = _CELLS[task.kind](task.specs, trace, task.opts)
        except Exception as exc:
            task.attempts += 1
            self.quarantine(task, exc)
            return
        if task.attempts:
            health.emit(
                self.component,
                "pool",
                "serial-salvage",
                reason=f"{task.bench} recovered after {task.attempts} failed attempts",
                severity="degraded",
                cells=len(task.specs),
            )
        self.deliver(task, values)

    def _reseed(self, exc: BaseException) -> None:
        """The pool is poisoned: charge every in-flight task, start afresh."""
        inflight, self.inflight = self.inflight, {}
        self._abandon()
        for task, _ in inflight.values():
            self.fail(task, exc, "pool-broken")

    def _expire(self) -> None:
        now = time.monotonic()
        expired = {
            future
            for future, (_, started) in self.inflight.items()
            if now - started > self.policy.timeout
        }
        if not expired:
            return
        inflight, self.inflight = self.inflight, {}
        self._abandon()
        for future, (task, _) in inflight.items():
            if future in expired:
                self.fail(
                    task,
                    TimeoutError(f"task exceeded REPRO_TASK_TIMEOUT={self.policy.timeout}s"),
                    "task-timeout",
                )
            else:
                # Innocent neighbours go back untouched: their pool is
                # being abandoned, not their work.
                self.requeue(task)

    def _abandon(self) -> None:
        """Tear the pool down without waiting on wedged or dying workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # ``shutdown`` drops the process table, so take it first.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - cleanup must never raise
                pass


# -- the planner and the merger ------------------------------------------------------


class SweepPlan:
    """A (spec x benchmark) grid split into known cells and tasks.

    ``known[tkey]`` holds the cells found in the cache or journal,
    ``missing`` every other cell, and ``tasks`` the work for the
    missing cells nobody has claimed yet.
    """

    def __init__(self, specs: List[str]):
        self.specs = specs
        self.tkey_benches: Dict[str, List[str]] = {}
        self.known: Dict[str, Dict[str, object]] = {}
        self.missing: List[Cell] = []
        self.tasks: List[_Task] = []


def _lookup(kind: str, tkey: str, spec: str, cache, journal):
    """A known cell: cache then journal for rates, journal for detailed."""
    rates = kind == "rates"
    hit = cache.get(spec, tkey) if rates and cache is not None else None
    if hit is None and journal is not None:
        hit = journal.lookup(tkey, spec)
        if hit is not None and rates and cache is not None:
            cache.put_many(tkey, {spec: hit})
    return hit


def plan_cells(
    kind: str,
    specs,
    traces: Mapping[str, object],
    cache=None,
    journal=None,
    pooled: bool = True,
    opts: Optional[dict] = None,
    claimed=(),
) -> SweepPlan:
    """Plan a sweep of ``kind`` cells over ``traces`` (benchmark ->
    trace or :class:`TraceRecipe`).

    Every spec is validated first (:func:`repro.core.registry.check_specs`):
    an invalid one raises, naming it, before any cell runs or anything
    is persisted.  Benchmarks sharing a trace key share its cells.  A
    trace's unknown cells not in ``claimed`` become one task per spec
    family when ``pooled`` and the trace has a recipe, else one task
    for the whole trace.
    """
    plan = SweepPlan(check_specs(specs))
    unique = list(dict.fromkeys(plan.specs))
    sources: Dict[str, Tuple[str, object]] = {}
    for bench, value in traces.items():
        tkey = trace_key(value)
        plan.tkey_benches.setdefault(tkey, []).append(bench)
        sources.setdefault(tkey, (bench, value))
    for tkey, (bench, value) in sources.items():
        known = plan.known[tkey] = {}
        fresh: List[str] = []
        for spec in unique:
            hit = _lookup(kind, tkey, spec, cache, journal)
            if hit is not None:
                known[spec] = hit
                continue
            plan.missing.append((tkey, spec))
            if (tkey, spec) not in claimed:
                fresh.append(spec)
        if not fresh:
            continue
        if isinstance(value, TraceRecipe):
            recipe, trace = value, None
        else:
            recipe, trace = recipe_of(value), value
        if pooled and recipe is not None:
            groups = [family.specs for family in plan_families(fresh)]
        else:
            groups = [fresh]
        for group in groups:
            plan.tasks.append(_Task(kind, tkey, bench, recipe, group, opts, trace))
    return plan


def store_cells(kind: str, tkey: str, values: Mapping[str, object], cache, journal) -> None:
    """Persist one task's cells: the rate cache (a detailed summary
    feeds its ``misprediction_rate``) and the journal."""
    if cache is not None:
        if kind != "rates":
            values = {spec: v["misprediction_rate"] for spec, v in values.items()}
        cache.put_many(tkey, values)
    if journal is not None:
        journal.record_many(tkey, values)


def _failed_cell(task: _Task, exc: BaseException) -> FailedCell:
    cell = FailedCell(
        bench=task.bench,
        specs=task.specs,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(_tb.format_exception(type(exc), exc, exc.__traceback__)),
        attempts=task.attempts,
    )
    health.emit(
        "sweep",
        "computed",
        "quarantined",
        reason=f"{cell.bench}: {cell.error_type}: {cell.message}",
        severity="error",
        cells=len(cell.specs),
        attempts=cell.attempts,
    )
    return cell


def _sweep(
    kind: str,
    specs,
    traces: Mapping[str, object],
    cache,
    progress,
    jobs: Optional[int],
    journal,
    policy: Optional[TaskPolicy],
    opts: Optional[dict] = None,
) -> SweepResult:
    """Plan, supervise and merge one one-shot sweep."""
    jobs = effective_jobs(jobs)
    pooled = jobs > 1
    per_bench: Dict[str, Dict[str, object]] = {bench: {} for bench in traces}
    failures: List[FailedCell] = []

    def merge(tkey: str, values: Mapping[str, object]) -> None:
        for bench in plan.tkey_benches[tkey]:
            per_bench[bench].update(values)
            if progress is not None:
                for spec, value in values.items():
                    progress(spec, bench, value)

    def deliver(task: _Task, values) -> None:
        if values is not None:  # None: a materialize task
            store_cells(kind, task.tkey, values, cache, journal)
            merge(task.tkey, values)

    def quarantine(task: _Task, exc: BaseException) -> None:
        # A failed materialize task only lost a head start: its trace's
        # cell tasks materialize on demand and carry any real failure.
        if task.kind != "materialize":
            failures.append(_failed_cell(task, exc))

    with ExitStack() as stack:
        if journal is not None:
            stack.enter_context(journal.guard(cache))
        if cache is not None:
            stack.enter_context(cache.deferred())  # one write per trace
        plan = plan_cells(kind, specs, traces, cache, journal, pooled=pooled, opts=opts)
        for tkey, known in plan.known.items():
            merge(tkey, known)
        tasks = plan.tasks
        if pooled:
            # Cold traces fan out across the pool ahead of their cell
            # tasks; a cell task reaching a still-cold trace joins the
            # store's single-flight wait.
            recipes = {task.tkey: task.recipe for task in tasks if task.trace is None}
            tasks = [
                _Task("materialize", tkey, recipe.name, recipe, ())
                for tkey, recipe in recipes.items()
                if not _in_store(recipe)
            ] + tasks
        Supervisor(
            min(jobs, len(tasks)) if pooled else 0,
            policy if policy is not None else TaskPolicy.from_env(),
            "parallel-pool",
            deliver,
            quarantine,
        ).run(tasks)
    return SweepResult(
        {
            spec: {
                bench: per_bench[bench][spec]
                for bench in traces
                if spec in per_bench[bench]
            }
            for spec in plan.specs
        },
        failures=failures,
    )


# -- the one-shot entry points -------------------------------------------------------


def materialize_parallel(
    names: Sequence[str],
    length=None,
    seed: int = 0,
    cache_dir=None,
    jobs: Optional[int] = None,
    policy: Optional[TaskPolicy] = None,
) -> None:
    """Materialize cold traces into the store over the worker pool.

    ``length`` is one length for every benchmark, a ``{name: length}``
    mapping, or ``None`` for each profile's default.  Each benchmark
    becomes one supervised materialize task (the full
    :class:`TaskPolicy` treatment); a task that fails its final
    in-process attempt raises.  The store's single-flight lock
    guarantees that overlapping attempts generate each trace at most
    once between them.
    """
    from repro.workloads.profiles import get_profile
    from repro.workloads.suite import trace_store

    jobs = effective_jobs(jobs)
    store_root = str(trace_store(cache_dir).root) if cache_dir is not None else None

    def _length(name: str) -> int:
        if isinstance(length, Mapping):
            return int(length[name])
        if length is not None:
            return int(length)
        return get_profile(name).default_length

    tasks = []
    for name in names:
        recipe = TraceRecipe(name, _length(name), seed, store_root=store_root)
        tasks.append(_Task("materialize", recipe.tkey, name, recipe, ()))

    def _raise(task: _Task, exc: BaseException) -> None:
        raise exc

    Supervisor(
        min(jobs, len(tasks)) if jobs > 1 else 0,
        policy if policy is not None else TaskPolicy.from_env(),
        "parallel-pool",
        lambda task, values: None,
        _raise,
    ).run(tasks)


def evaluate_matrix_parallel(
    specs: Sequence[str],
    traces: Mapping[str, BranchTrace],
    cache=None,
    progress=None,
    jobs: Optional[int] = None,
    journal=None,
    policy: Optional[TaskPolicy] = None,
) -> SweepResult:
    """Rates for every (spec, benchmark) pair: ``result[spec][bench]``.

    The executor behind :func:`repro.sim.runner.evaluate_matrix`, for
    any ``jobs``.  Identical ``(spec, trace)`` cells are simulated
    exactly once: benchmarks sharing a trace (and repeated specs in the
    grid) collapse onto one set of cells, and every completed cell fans
    back out to each requesting benchmark.  Cells already recorded in
    ``cache`` or ``journal`` are never recomputed; each completed task
    is merged (matrix + cache + journal) as soon as it finishes, so a
    crash or interrupt loses at most the in-flight tasks.  The cache
    is written once per trace at the end (SIGINT/SIGTERM flush it
    early when a journal guards the sweep).  Tasks that fail every
    attempt are quarantined on ``SweepResult.failures`` — their cells
    are omitted from the matrix rather than poisoning it.

    ``traces`` values may be :class:`TraceRecipe` instead of loaded
    arrays: a pooled sweep then fans cold-store materialization out
    into the pool as supervised tasks ahead of the cell tasks, and
    workers map the published trace instead of regenerating it.
    """
    return _sweep("rates", specs, traces, cache, progress, jobs, journal, policy)


def detailed_matrix(
    specs: Sequence[str],
    traces: Mapping[str, BranchTrace],
    cache=None,
    progress=None,
    jobs: Optional[int] = None,
    journal=None,
    policy: Optional[TaskPolicy] = None,
    threshold: Optional[float] = None,
    include_bias_table: bool = False,
) -> SweepResult:
    """Section-4 analysis sweep: ``{spec: {bench: summary}}``.

    The detailed counterpart of :func:`evaluate_matrix_parallel`, with
    the same planner, supervision and quarantine contract: every
    ``(spec, benchmark)`` cell runs a detailed (attribution) simulation
    and is reduced, in the process that ran it, to the compact summary
    dict of :func:`repro.analysis.summary.summarize_detailed`; cells of
    one scheme share a fused attribution pass
    (:func:`repro.sim.fused.family_detailed`).

    ``journal`` must be a :class:`repro.sim.journal.PayloadJournal`
    (cell values are summary dicts): journalled cells are never
    recomputed, and because summaries round-trip through JSON exactly,
    a resumed sweep's aggregates are bit-identical to an uninterrupted
    run.  When a rate ``cache`` is passed, each computed summary's
    ``misprediction_rate`` is fed into it as a byproduct, so later rate
    sweeps over the same cells hit for free.
    """
    opts = detailed_opts(threshold, include_bias_table)
    return _sweep("detailed", specs, traces, cache, progress, jobs, journal, policy, opts)
