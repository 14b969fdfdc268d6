"""The four workloads: cold set-up, the timed unit, and the serial replay.

A *unit* is one cold-cache pass over the workload's whole grid — one
``evaluate_matrix`` / ``detailed_matrix`` call, or for the service one
fresh daemon serving both clients' jobs.  Result caches and journals
start empty in every unit; traces are already in the store and the C
kernels already built.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import gate, grids


@dataclass
class Unit:
    """What one timed pass produced."""

    wall_s: float
    results: dict
    attempted: int
    failed: int
    job_latencies: List[float]
    peak_rss_bytes: float = 0.0
    #: distinct cells the sweep daemon computed (service workload only)
    daemon_cells: int = 0
    mismatches: List[str] = field(default_factory=list)


class Context:
    """Paths, seed and traces shared by a run's set-up, units and gate."""

    def __init__(self, checkout: Path, work: Path, seed: int, length_scale: float):
        self.checkout = checkout
        self.work = work
        self.seed = seed
        self.length_scale = length_scale
        self.store_root: Optional[Path] = None
        self.traces: Dict[str, object] = {}

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.work))

    def length(self, name: str) -> int:
        return grids.trace_length(name, self.length_scale)

    def child_env(self, cache_root: Path) -> Dict[str, str]:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache_root)
        env["PYTHONPATH"] = str(self.checkout / "src")
        return env

    def cold_setup(self, names: List[str]) -> dict:
        """One cold set-up in a fresh interpreter; returns its step times."""
        root = self.fresh_dir("setup")
        cmd = [
            sys.executable, str(self.checkout / "perfbench" / "coldstart.py"),
            "--root", str(root), "--seed", str(self.seed),
            "--length-scale", repr(self.length_scale), *names,
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, env=self.child_env(root), cwd=self.checkout,
            capture_output=True, text=True, timeout=170,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["wall_s"] = wall
        report["root"] = str(root)
        return report

    def use_store(self, root: Path, names: List[str]) -> None:
        """Point this process at a set-up's cache root and map its traces."""
        from repro.workloads.suite import load_benchmark

        os.environ["REPRO_CACHE_DIR"] = str(root)
        self.store_root = root
        self.traces = {
            name: load_benchmark(name, length=self.length(name), seed=self.seed)
            for name in names
        }


def branch_lanes(specs: List[str], traces: Dict[str, object]) -> int:
    return len(specs) * sum(len(trace) for trace in traces.values())


def _rates(matrix) -> dict:
    return {spec: dict(per) for spec, per in matrix.items()}


class Workload:
    """One named workload: its traces, grid, timed unit and gate."""

    name = ""
    suite = "cint95"
    specs: List[str] = []
    workers = 1
    oracle_prefix = 2_000
    detailed = False
    #: whether the grid runs in a separate daemon process
    daemon = False

    def trace_names(self) -> List[str]:
        from repro.workloads.suite import suite_names

        return suite_names(self.suite)

    def cells(self, ctx: Context) -> int:
        return len(self.specs) * len(ctx.traces)

    def branch_lanes(self, ctx: Context) -> int:
        return branch_lanes(self.specs, ctx.traces)

    def start_s(self) -> float:
        """Set-up paid per unit outside the cold set-up (the daemon start)."""
        return 0.0

    def run_unit(self, ctx: Context) -> Unit:
        cache_dir = ctx.fresh_dir("cache")
        t0 = time.perf_counter()
        matrix = self.sweep(ctx, cache_dir)
        wall = time.perf_counter() - t0
        failed = sum(len(cell.missing) for cell in matrix.failures)
        unit = Unit(
            wall_s=wall,
            results=_rates(matrix),
            attempted=self.cells(ctx),
            failed=failed,
            job_latencies=[wall],
        )
        unit.mismatches = self.check_unit(ctx, cache_dir, unit)
        return unit

    def sweep(self, ctx: Context, cache_dir: Path):
        raise NotImplementedError

    def check_unit(self, ctx: Context, cache_dir: Path, unit: Unit) -> List[str]:
        return gate.check_complete(unit.results, self.specs, list(ctx.traces), self.detailed)

    def replay(self, ctx: Context) -> dict:
        """Serial re-run of the (rates) grid, for kernel attribution of pooled workloads."""
        from repro.sim.runner import ResultCache, evaluate_matrix

        cache = ResultCache(ctx.fresh_dir("replay"))
        return _rates(evaluate_matrix(self.specs, ctx.traces, cache=cache, jobs=1))

    def merged(self, results: dict) -> dict:
        """A unit's results as one ``{spec: {bench: value}}`` matrix."""
        return results

    def prefix_check(self, ctx: Context) -> List[str]:
        prefixes = {name: trace[: self.oracle_prefix] for name, trace in ctx.traces.items()}
        if self.detailed:
            return gate.check_detailed_prefix(self.specs, prefixes)
        return gate.check_rates_prefix(self.specs, prefixes)

    def final_check(self, ctx: Context, results: dict) -> List[str]:
        """Checks against a reference computed once per run (none by default)."""
        return []


class PaperGrid(Workload):
    name = "paper_grid"
    suite = "all"
    oracle_prefix = 400

    def __init__(self):
        self.specs = grids.paper_specs()

    def sweep(self, ctx, cache_dir):
        from repro.sim.runner import ResultCache, evaluate_matrix

        return evaluate_matrix(self.specs, ctx.traces, cache=ResultCache(cache_dir), jobs=1)


class Section4Grid(Workload):
    name = "section4_grid"
    specs = grids.SECTION4_GRID
    oracle_prefix = 2_000
    detailed = True

    def sweep(self, ctx, cache_dir):
        from repro.sim.parallel import detailed_matrix
        from repro.sim.runner import ResultCache

        return detailed_matrix(self.specs, ctx.traces, cache=ResultCache(cache_dir), jobs=1)


class SchemeZooPool(Workload):
    name = "scheme_zoo_pool"
    specs = grids.PORTED_GRID
    workers = 2
    oracle_prefix = 1_500

    def sweep(self, ctx, cache_dir):
        from repro.sim.journal import SweepJournal
        from repro.sim.runner import ResultCache, evaluate_matrix

        return evaluate_matrix(
            self.specs, ctx.traces, cache=ResultCache(cache_dir), jobs=self.workers,
            journal=SweepJournal(cache_dir / "journal.jsonl"),
        )

    def check_unit(self, ctx, cache_dir, unit):
        """Every cell must also be in the sweep journal, JSON-exact."""
        from repro.sim.journal import SweepJournal
        from repro.sim.runner import trace_key

        out = super().check_unit(ctx, cache_dir, unit)
        journal = SweepJournal(cache_dir / "journal.jsonl")
        journalled = {spec: {} for spec in self.specs}
        for bench, trace in ctx.traces.items():
            for spec, value in journal.completed(trace_key(trace)).items():
                journalled.setdefault(spec, {})[bench] = value
        out += gate.compare_cells("journal", journalled, "sweep", unit.results)
        return out


class ServiceOverlap(Workload):
    """A fresh daemon per unit; two closed-loop clients, one job per size point."""

    name = "service_overlap"
    suite = "all"
    workers = 2
    daemon = True
    oracle_prefix = 400

    def __init__(self):
        self.specs = grids.paper_specs()
        self.clients = grids.service_clients()
        self._starts: List[float] = []

    def start_s(self) -> float:
        return statistics.median(self._starts) if self._starts else 0.0

    def run_unit(self, ctx):
        from repro.core.hardware import PAPER_SIZE_POINTS_KB
        from repro.service.client import ServiceClient

        root = ctx.fresh_dir("svc")
        (root / "store").symlink_to(ctx.store_root / "store", target_is_directory=True)
        (root / "ckernel").symlink_to(ctx.store_root / "ckernel", target_is_directory=True)
        address = os.path.relpath(root / "d.sock", ctx.checkout)
        daemon = Daemon(ctx, root, address, self.workers)
        self._starts.append(daemon.start())
        done: Dict[str, list] = {cid: [] for cid in self.clients}
        errors: List[str] = []

        def client_loop(cid: str, names: List[str]) -> None:
            client = ServiceClient(address, client_id=cid)
            benches = [{"name": n, "length": ctx.length(n)} for n in names]
            try:
                for kbytes in PAPER_SIZE_POINTS_KB:
                    t0 = time.perf_counter()
                    job_id = client.submit(grids.paper_specs_at(kbytes), benches, seed=ctx.seed)
                    job = client.wait(job_id, timeout=150)
                    done[cid].append((time.perf_counter() - t0, job))
            except Exception as exc:  # reported as a failed run, never swallowed
                errors.append(f"client {cid}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=client_loop, args=(cid, names), daemon=True)
            for cid, names in self.clients.items()
        ]
        try:
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.0, t0 + 170 - time.perf_counter()))
            wall = time.perf_counter() - t0
        finally:
            daemon.stop()
        if any(thread.is_alive() for thread in threads):
            errors.append("a client did not finish")

        results: Dict[str, dict] = {}
        latencies: List[float] = []
        attempted = failed = 0
        for cid, jobs in done.items():
            merged = results.setdefault(cid, {})
            for latency, job in jobs:
                latencies.append(latency)
                attempted += int(job.get("total_cells", 0))
                bad = job.get("state") != "done" or bool(job.get("failures"))
                failed += len(job.get("failures", ())) + int(bad)
                for spec, per in job.get("results", {}).items():
                    merged.setdefault(spec, {}).update(per)
        computed = sum(
            len(json.loads(path.read_text()))
            for path in (root / "results").glob("*.json")
        )
        unit = Unit(
            wall_s=wall,
            results=results,
            attempted=max(attempted, 1),
            failed=failed + len(errors),
            job_latencies=latencies,
            daemon_cells=computed,
            mismatches=errors,
        )
        for cid, names in self.clients.items():
            unit.mismatches += gate.check_complete(results.get(cid, {}), self.specs, names, False)
        return unit

    def merged(self, results):
        out: Dict[str, dict] = {spec: {} for spec in self.specs}
        for per_client in results.values():
            for spec, row in per_client.items():
                out.setdefault(spec, {}).update(row)
        return out

    def final_check(self, ctx, results):
        """The daemon's cells must equal a one-shot sweep over the same cells."""
        oneshot = self.replay(ctx)
        out = []
        for cid, names in self.clients.items():
            want = {spec: {n: oneshot[spec][n] for n in names} for spec in self.specs}
            out += gate.compare_cells(f"service client {cid}", results.get(cid, {}),
                                      "one-shot evaluate_matrix", want)
        return out


class Daemon:
    """A ``repro serve`` subprocess owned by one unit."""

    def __init__(self, ctx: Context, root: Path, address: str, workers: int):
        self.ctx = ctx
        self.root = root
        self.address = address
        self.workers = workers
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait until the daemon answers a ping; returns the seconds taken."""
        from repro.service.client import ServiceClient

        log = open(self.root / "daemon.log", "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "--jobs", str(self.workers),
                 "serve", "--socket", self.address],
                env=self.ctx.child_env(self.root), cwd=self.ctx.checkout,
                stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        client = ServiceClient(self.address, connect_timeout=1.0)
        while True:
            try:
                client.ping()
                return time.perf_counter() - t0
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() - t0 > timeout:
                    self.stop()
                    raise RuntimeError(
                        f"daemon did not start: {(self.root / 'daemon.log').read_text()}"
                    )
                time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill whatever is left of the process tree."""
        if self.proc is None or self.proc.poll() is not None:
            return
        tree = descendants(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for pid in tree:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child)
    return out


class RssSampler:
    """Peak resident memory of this process and all its descendants."""

    def __init__(self, interval: float = 0.005, rescan: float = 0.2):
        self.interval = interval
        self.rescan = rescan
        self._peak = 0
        self._mu = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def take_peak(self) -> int:
        """Peak bytes since the last call, then start a new window."""
        with self._mu:
            peak, self._peak = self._peak, 0
        return peak

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                return int(fh.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0

    def _run(self) -> None:
        me = os.getpid()
        pids = [me]
        next_scan = 0.0
        while True:
            now = time.monotonic()
            if now >= next_scan:
                pids = [me] + descendants(me)
                next_scan = now + self.rescan
            total = sum(self._rss(pid) for pid in pids)
            with self._mu:
                self._peak = max(self._peak, total)
            if self._stop.wait(self.interval):
                return


WORKLOADS = {
    cls.name: cls
    for cls in (PaperGrid, Section4Grid, SchemeZooPool, ServiceOverlap)
}
