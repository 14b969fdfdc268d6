"""End-to-end fault-tolerance tests for sweep execution.

These inject real faults — worker exceptions, hard worker kills,
stragglers, mid-sweep SIGINT, corrupted cache files — into real
``ProcessPoolExecutor`` sweeps and assert the supervision machinery's
contract: completed work is never discarded or recomputed, failed cells
are retried, salvaged serially, or quarantined, and an interrupted
journalled sweep resumes bit-identically.

Call counts are asserted through the cross-process fault-point trace
(``$REPRO_FAULT_TRACE``), so "benchmark X was simulated exactly once"
holds across the parent and every worker process.
"""

import pytest

from repro import faults, health
from repro.sim.journal import SweepJournal
from repro.sim.parallel import (
    FailedCell,
    TaskPolicy,
    evaluate_matrix_parallel,
)
from repro.sim.runner import ResultCache, evaluate_matrix, trace_key
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile

SPECS = [
    "gshare:index=8,hist=8",
    "gshare:index=8,hist=2",
    "bimode:dir=6,hist=6,choice=6",
]

#: SPECS spans one gshare family and one bi-mode family, and the
#: parallel planner ships one supervised task per (trace, family) —
#: so each benchmark's cells are simulated in exactly this many tasks.
FAMILIES = 2

BENCHES = ("gcc", "xlisp", "compress")


@pytest.fixture(scope="module")
def traces():
    return {
        name: generate_trace(get_profile(name), length=6_000, seed=7)
        for name in BENCHES
    }


@pytest.fixture(scope="module")
def serial_reference(traces):
    return evaluate_matrix(SPECS, traces, jobs=1)


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared-cache"))
    health.clear()
    yield
    health.clear()


class TestWorkerCrashSalvage:
    """ISSUE acceptance: one crashing worker must not discard, or force
    a recompute of, the benchmarks whose workers succeeded."""

    def test_completed_benches_not_recomputed(
        self, traces, serial_reference, tmp_path
    ):
        with faults.traced(tmp_path / "trace"):
            with faults.inject("worker:raise:bench=gcc,where=worker"):
                result = evaluate_matrix_parallel(
                    SPECS,
                    traces,
                    jobs=2,
                    policy=TaskPolicy(retries=1, backoff=0.0),
                )
        assert result == serial_reference
        assert result.failures == []

        counts = faults.trace_counts(tmp_path / "trace", site="evaluate")
        # every healthy benchmark was simulated exactly once per family
        # task, in its own worker — the gcc crash did not trigger any
        # recompute
        assert counts[("evaluate", "xlisp")] == FAMILIES
        assert counts[("evaluate", "compress")] == FAMILIES
        # gcc itself was only ever simulated by the in-parent salvage:
        # the injected fault fired at worker entry, before simulation
        assert counts[("evaluate", "gcc")] == FAMILIES
        # the worker-side attempts really happened (initial + 1 retry,
        # for each of gcc's family tasks)
        worker_hits = faults.trace_counts(tmp_path / "trace", site="worker")
        assert worker_hits[("worker", "gcc")] == 2 * FAMILIES

    def test_salvage_reported_as_degradation(self, traces):
        with faults.inject("worker:raise:bench=gcc,where=worker"):
            evaluate_matrix_parallel(
                SPECS, traces, jobs=2, policy=TaskPolicy(retries=0, backoff=0.0)
            )
        kinds = {e.actual for e in health.events(component="parallel-pool")}
        assert "worker-raised" in kinds
        assert "serial-salvage" in kinds


class TestQuarantine:
    """ISSUE acceptance: a cell failing every retry *and* the serial
    salvage is quarantined as exactly one structured FailedCell."""

    def test_exactly_one_failed_cell_per_family(self, traces, serial_reference):
        with faults.inject("evaluate:raise:bench=gcc"):
            result = evaluate_matrix_parallel(
                SPECS, traces, jobs=2, policy=TaskPolicy(retries=1, backoff=0.0)
            )

        # one quarantined cell per family task, together covering
        # exactly gcc's spec grid
        assert len(result.failures) == FAMILIES
        covered = set()
        for cell in result.failures:
            assert isinstance(cell, FailedCell)
            assert cell.bench == "gcc"
            assert cell.error_type == "FaultInjected"
            assert "injected fault" in cell.message
            assert "FaultInjected" in cell.traceback
            assert cell.attempts == 3  # 2 pool attempts + 1 serial salvage
            assert not covered & set(cell.specs)
            covered |= set(cell.specs)
        assert covered == set(SPECS)
        assert result.quarantined_benches == ["gcc"]

        # the quarantined benchmark is omitted from the matrix, not
        # poisoned with partial data …
        for spec in SPECS:
            assert "gcc" not in result[spec]
        # … and every other benchmark is still correct
        for spec in SPECS:
            for bench in ("xlisp", "compress"):
                assert result[spec][bench] == serial_reference[spec][bench]

        events = health.events(component="sweep", severity="error")
        assert len(events) == FAMILIES
        assert all(event.actual == "quarantined" for event in events)

    def test_serial_path_quarantines_too(self, traces, serial_reference):
        with faults.inject("evaluate:raise:bench=gcc"):
            result = evaluate_matrix_parallel(SPECS, traces, jobs=1)
        assert [cell.bench for cell in result.failures] == ["gcc"]
        for spec in SPECS:
            assert result[spec]["xlisp"] == serial_reference[spec]["xlisp"]


class TestFigureSweepsRefusePartialSuites:
    """One quarantine contract for every ``jobs``: the matrix reports
    failures, and figure-level callers raise instead of averaging over
    the benchmarks that survived."""

    KB = 1 / 64

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matrix_reports_failures(self, traces, serial_reference, jobs):
        with faults.inject("evaluate:raise:bench=gcc"):
            result = evaluate_matrix(SPECS, traces, jobs=jobs)
        assert result.quarantined_benches == ["gcc"]
        assert {spec for cell in result.failures for spec in cell.specs} == set(SPECS)
        for spec in SPECS:
            assert "gcc" not in result[spec]
            assert result[spec]["xlisp"] == serial_reference[spec]["xlisp"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_paper_sweep_raises_naming_cells(self, traces, jobs):
        from repro.analysis.sweep import bimode_spec, paper_sweep

        with faults.inject("evaluate:raise:bench=gcc"):
            with pytest.raises(RuntimeError, match="quarantined") as excinfo:
                paper_sweep(traces, kb_points=(self.KB,), cache=None, jobs=jobs)
        message = str(excinfo.value)
        assert "gcc x [" in message
        assert bimode_spec(self.KB) in message
        assert "FaultInjected" in message

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_best_gshare_raises(self, traces, jobs):
        from repro.analysis.sweep import best_gshare_at_size

        with faults.inject("evaluate:raise:bench=gcc"):
            with pytest.raises(RuntimeError, match="gcc x \\[gshare:"):
                best_gshare_at_size(self.KB, traces, jobs=jobs)


class TestKilledWorker:
    def test_hard_killed_worker_reseeds_pool(self, traces, serial_reference):
        # os._exit in the worker → BrokenProcessPool → fresh pool, retry;
        # gcc exhausts its pool attempts and is salvaged in-parent
        # (the exit action never fires outside a worker).
        with faults.inject("worker:exit:bench=gcc"):
            result = evaluate_matrix_parallel(
                SPECS, traces, jobs=2, policy=TaskPolicy(retries=2, backoff=0.0)
            )
        assert result == serial_reference
        assert result.failures == []
        kinds = {e.actual for e in health.events(component="parallel-pool")}
        assert "pool-broken" in kinds


class TestTimeout:
    def test_straggler_is_abandoned_and_salvaged(self, traces, serial_reference):
        # the gcc worker wedges for 30 s; the supervisor times it out,
        # abandons the pool, and the parent salvages the cell serially
        with faults.inject("worker:sleep:seconds=30,bench=gcc,where=worker"):
            result = evaluate_matrix_parallel(
                SPECS,
                traces,
                jobs=2,
                policy=TaskPolicy(timeout=0.5, retries=0, backoff=0.0),
            )
        assert result == serial_reference
        assert result.failures == []
        timeouts = [
            e
            for e in health.events(component="parallel-pool")
            if e.actual == "task-timeout"
        ]
        assert timeouts and "REPRO_TASK_TIMEOUT" in timeouts[0].reason


class TestCorruptCacheMidSweep:
    def test_sweep_survives_corrupted_cache_table(
        self, traces, serial_reference, tmp_path
    ):
        cache = ResultCache(tmp_path / "rc")
        first = evaluate_matrix(SPECS, traces, cache=cache, jobs=1)
        assert first == serial_reference

        victim = trace_key(traces["gcc"])
        path = faults.corrupt_cache_file(cache, victim)
        rerun = evaluate_matrix(SPECS, traces, cache=cache, jobs=1)
        assert rerun == serial_reference
        # the corrupt table was quarantined for inspection, not deleted
        quarantined = list(path.parent.glob(f"{victim}.json.corrupt-*"))
        assert len(quarantined) == 1
        assert health.events(component="result-cache", severity="degraded")


class TestInterruptAndResume:
    """ISSUE acceptance: SIGINT mid-Figure-3-sweep, then resume — the
    table is bit-identical and only incomplete cells are re-simulated."""

    KB_POINTS = (1 / 64, 1 / 32)

    def _sweep(self, traces, journal=None):
        from repro.analysis.sweep import paper_sweep

        return paper_sweep(
            traces, kb_points=self.KB_POINTS, cache=None, jobs=1, journal=journal
        )

    @staticmethod
    def _table(series):
        return {
            label: [(point.spec, point.per_benchmark) for point in sweep.points]
            for label, sweep in series.items()
        }

    def test_resume_is_bit_identical(self, traces, tmp_path):
        reference = self._table(self._sweep(traces))

        journal = SweepJournal(tmp_path / "fig3.jsonl")
        # SIGINT as the second benchmark starts simulating: the journal
        # then holds the bi-mode prepass plus the first benchmark only
        with faults.inject("evaluate:sigint:nth=2"):
            with pytest.raises(KeyboardInterrupt):
                self._sweep(traces, journal=journal)
        assert len(SweepJournal(journal.path)) > 0

        resumed_journal = SweepJournal(journal.path)
        with faults.traced(tmp_path / "trace"):
            resumed = self._table(self._sweep(traces, journal=resumed_journal))

        assert resumed == reference  # bit-identical, not approximately
        assert resumed_journal.resumed_cells > 0

        # only the interrupted and never-started benchmarks were
        # re-simulated; the completed first benchmark came entirely
        # from the journal
        counts = faults.trace_counts(tmp_path / "trace", site="evaluate")
        assert ("evaluate", "gcc") not in counts
        assert counts[("evaluate", "xlisp")] == 1
        assert counts[("evaluate", "compress")] == 1

    def test_parallel_resume_matches_serial(self, traces, tmp_path):
        journal = SweepJournal(tmp_path / "par.jsonl")
        with faults.inject("evaluate:sigint:nth=2"):
            with pytest.raises(KeyboardInterrupt):
                self._sweep(traces, journal=journal)

        from repro.analysis.sweep import paper_sweep

        resumed = self._table(
            paper_sweep(
                traces,
                kb_points=self.KB_POINTS,
                cache=None,
                jobs=2,
                journal=SweepJournal(journal.path),
            )
        )
        assert resumed == self._table(self._sweep(traces))
