"""In-process tests for the always-on sweep service.

Covers the job model, the wire protocol, the multi-tenant scheduler
(single-flight, fairness, admission control, crash recovery, fault
supervision), the socket server, and the CLI verbs.  The subprocess
kill -9 drill lives in ``test_service_daemon.py``; everything here runs
the daemon machinery inside the test process so coverage sees it.
"""

import json
import io
import os
import socket
import threading
import time

import pytest

from repro import faults, health
from repro.service import (
    BenchmarkRef,
    JobStore,
    QueueFull,
    SchedulerStopped,
    ServiceBusy,
    ServiceClient,
    ServiceError,
    ServiceJob,
    SweepScheduler,
    SweepServer,
)
from repro.service import protocol as proto
from repro.service.jobs import DONE, FAILED, QUEUED
from repro.service.scheduler import queue_max_from_env, service_timeout_from_env
from repro.sim.parallel import TaskPolicy

BENCH = "xlisp"
LENGTH = 4000
SPECS = [
    "gshare:index=8,hist=6",
    "bimode:dir=6,hist=6,choice=6",
    "bimodal:index=6",
]

FAST = TaskPolicy(timeout=None, retries=1, backoff=0.0)


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "2")
    for var in (
        "REPRO_FAULTS",
        "REPRO_FAULT_TRACE",
        "REPRO_SERVICE_QUEUE_MAX",
        "REPRO_SERVICE_TIMEOUT",
        "REPRO_HEALTH_JSON",
    ):
        monkeypatch.delenv(var, raising=False)
    health.clear()
    yield
    health.clear()


def make_job(store, specs=None, benches=(BENCH,), kind="rates", client="cli",
             priority=0, timeout=None, length=LENGTH, job_id=None):
    return ServiceJob(
        job_id=job_id or store.new_job_id(),
        client=client,
        kind=kind,
        specs=tuple(specs if specs is not None else SPECS),
        benchmarks=tuple(BenchmarkRef(b, length) for b in benches),
        priority=priority,
        timeout=timeout,
    )


def run_jobs(scheduler, jobs, timeout=180):
    """Submit every job, subscribe, start, and wait for all done events.

    Submitting before ``start()`` makes overlapping-grid planning
    deterministic (single-flight dedup happens at admission).
    """
    finals = {}
    flags = {}
    for job in jobs:
        scheduler.submit(job)
    for job in jobs:
        events = []
        flag = threading.Event()

        def callback(event, _events=events, _flag=flag):
            _events.append(event)
            if event.get("event") == "done":
                _flag.set()

        snapshot = scheduler.subscribe(job.job_id, callback)
        if snapshot is not None:
            events.append(snapshot)
            flag.set()
        flags[job.job_id] = (flag, events)
    scheduler.start()
    for job in jobs:
        flag, events = flags[job.job_id]
        assert flag.wait(timeout), f"{job.job_id} never finished"
        done = [e for e in events if e.get("event") == "done"][-1]
        finals[job.job_id] = (done["job"], events)
    return finals


def serial_rates(specs, bench=BENCH, length=LENGTH):
    """Reference rates via the one-shot (non-service) evaluation path."""
    from repro.sim.runner import evaluate_specs
    from repro.workloads.suite import load_benchmark

    trace = load_benchmark(bench, length=length, seed=0)
    return evaluate_specs(list(dict.fromkeys(specs)), trace, cache=None)


def evaluated_cells(root):
    """Total rate cells simulated, from the fault-trace evaluate site."""
    total = 0
    root = os.fspath(root)
    if not os.path.isdir(root):
        return 0
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name)) as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] == "evaluate":
                    for field in fields[1:]:
                        if field.startswith("cells="):
                            total += int(field[len("cells="):])
    return total


class TestEnvKnobs:
    def test_queue_max_default(self):
        assert queue_max_from_env() == 100_000

    def test_queue_max_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_QUEUE_MAX", "7")
        assert queue_max_from_env() == 7

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_queue_max_nonpositive_means_default(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SERVICE_QUEUE_MAX", raw)
        assert queue_max_from_env() == 100_000

    def test_queue_max_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_QUEUE_MAX", "lots")
        with pytest.raises(ValueError, match="REPRO_SERVICE_QUEUE_MAX"):
            queue_max_from_env()

    def test_timeout_unset_means_none(self):
        assert service_timeout_from_env() is None

    def test_timeout_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "2.5")
        assert service_timeout_from_env() == 2.5

    def test_timeout_nonpositive_means_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "0")
        assert service_timeout_from_env() is None

    def test_timeout_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SERVICE_TIMEOUT"):
            service_timeout_from_env()


class TestJobModel:
    def test_benchmark_ref_tkey(self):
        assert BenchmarkRef("gcc", 663015).tkey == "gcc-n663015-s0"
        assert BenchmarkRef("go", 100, seed=3).tkey == "go-n100-s3"

    def test_round_trip(self):
        job = ServiceJob(
            job_id="job-1",
            client="alice",
            kind="rates",
            specs=("a", "b"),
            benchmarks=(BenchmarkRef("gcc", 100), BenchmarkRef("go", 200, seed=1)),
            priority=2,
            timeout=30.0,
        )
        job.results = {"a": {"gcc": 0.125}}
        job.failures = [{"tkey": "go-n200-s1", "spec": "b", "error": "boom"}]
        back = ServiceJob.from_dict(job.to_dict())
        assert back == job

    def test_zero_timeout_loads_as_none(self):
        job = make_job(JobStore(root="/tmp/unused"))
        data = job.to_dict()
        data["timeout"] = 0
        assert ServiceJob.from_dict(data).timeout is None

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(kind="sideways"), "kind"),
            (dict(specs=()), "no specs"),
            (dict(benchmarks=()), "no benchmarks"),
        ],
    )
    def test_validation(self, kwargs, match):
        base = dict(
            job_id="j", client="c", kind="rates", specs=("s",),
            benchmarks=(BenchmarkRef("gcc", 10),),
        )
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            ServiceJob(**base)

    def test_store_save_load_list_forget(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        job = make_job(store)
        job.submitted_at = 5.0
        store.save(job)
        assert store.load(job.job_id) == job
        assert [j.job_id for j in store.list()] == [job.job_id]
        assert [j.job_id for j in store.incomplete()] == [job.job_id]
        job.state = DONE
        store.save(job)
        assert store.incomplete() == []
        store.forget(job.job_id)
        assert store.load(job.job_id) is None
        assert store.list() == []

    def test_load_corrupt_manifest_returns_none(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        store.jobs_dir.mkdir(parents=True)
        (store.jobs_dir / "job-x.json").write_text("{not json")
        assert store.load("job-x") is None
        assert store.list() == []

    def test_new_job_ids_unique(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        ids = {store.new_job_id() for _ in range(50)}
        assert len(ids) == 50

    def test_journal_kind_matches_job(self, tmp_path):
        from repro.sim.journal import PayloadJournal, SweepJournal

        store = JobStore(tmp_path / "svc")
        rates = make_job(store)
        detailed = make_job(store, kind="detailed")
        assert type(store.journal_for(rates)) is SweepJournal
        assert type(store.journal_for(detailed)) is PayloadJournal


class TestProtocol:
    def test_parse_unix_path(self, tmp_path):
        family, target = proto.parse_address(str(tmp_path / "x.sock"))
        assert family == "unix"
        assert target.endswith("x.sock")

    def test_parse_default_is_unix_under_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/rsvc-cache")
        family, target = proto.parse_address(None)
        assert family == "unix"
        assert target == "/tmp/rsvc-cache/service/serve.sock"

    def test_parse_tcp_string_and_tuple(self):
        assert proto.parse_address("tcp:127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))
        assert proto.parse_address("tcp::9000") == ("tcp", ("127.0.0.1", 9000))
        assert proto.parse_address(("localhost", 80)) == ("tcp", ("localhost", 80))

    def test_parse_tcp_bad_port(self):
        with pytest.raises(proto.ProtocolError, match="host:port"):
            proto.parse_address("tcp:localhost:soon")

    def test_parse_unix_path_too_long(self):
        with pytest.raises(proto.ProtocolError, match="too long"):
            proto.parse_address("/tmp/" + "x" * 200)

    def test_message_round_trip(self):
        buf = io.BytesIO()
        proto.write_message(buf, {"op": "ping", "n": 1})
        buf.seek(0)
        assert proto.read_message(buf) == {"op": "ping", "n": 1}
        assert proto.read_message(buf) is None  # EOF

    @pytest.mark.parametrize("raw", [b"junk\n", b"[1, 2]\n"])
    def test_malformed_messages(self, raw):
        with pytest.raises(proto.ProtocolError):
            proto.read_message(io.BytesIO(raw))


class TestScheduler:
    def test_job_completes_bit_identical(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=2, policy=FAST)
        try:
            job = make_job(store, benches=("xlisp", "compress"))
            finals = run_jobs(scheduler, [job])
        finally:
            scheduler.stop()
        final, events = finals[job.job_id]
        assert final["state"] == DONE
        assert final["completed_cells"] == final["total_cells"] == len(SPECS) * 2
        assert final["error"] == ""
        for bench in ("xlisp", "compress"):
            ref = serial_rates(SPECS, bench)
            for spec in SPECS:
                assert final["results"][spec][bench] == ref[spec]
        progress = [e for e in events if e.get("event") == "progress"]
        assert progress
        assert progress[-1]["completed"] == final["total_cells"]

    def test_overlapping_jobs_single_flight(self, tmp_path):
        """Satellite: two clients, overlapping grids, each shared cell
        simulated exactly once (proved via the fault trace)."""
        specs_b = [SPECS[0], SPECS[1], "gshare:index=9,hist=5"]
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=2, policy=FAST)
        trace_root = tmp_path / "ftrace"
        with faults.traced(trace_root):
            try:
                job_a = make_job(store, client="alice")
                job_b = make_job(store, specs=specs_b, client="bob")
                finals = run_jobs(scheduler, [job_a, job_b])
            finally:
                scheduler.stop()
        final_a, _ = finals[job_a.job_id]
        final_b, _ = finals[job_b.job_id]
        assert final_a["state"] == DONE and final_b["state"] == DONE
        union = list(dict.fromkeys(SPECS + specs_b))
        # exactly-once: evaluate-site cell counts cover the union once
        assert evaluated_cells(trace_root) == len(union)
        # overlapping cells are literally the same value in both jobs
        for spec in (SPECS[0], SPECS[1]):
            assert final_a["results"][spec][BENCH] == final_b["results"][spec][BENCH]
        ref = serial_rates(union)
        for final, specs in ((final_a, SPECS), (final_b, specs_b)):
            for spec in specs:
                assert final["results"][spec][BENCH] == ref[spec]

    def test_cached_resubmission_completes_inline(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=2, policy=FAST)
        try:
            first = make_job(store)
            finals = run_jobs(scheduler, [first])
        finally:
            scheduler.stop()
        assert finals[first.job_id][0]["state"] == DONE

        fresh = SweepScheduler(store=store, jobs=2, policy=FAST)  # never started
        again = make_job(store)
        trace_root = tmp_path / "ftrace"
        with faults.traced(trace_root):
            fresh.submit(again)
        assert again.state == DONE
        assert evaluated_cells(trace_root) == 0  # pure cache hits
        snapshot = fresh.subscribe(again.job_id, lambda e: None)
        assert snapshot is not None and snapshot["event"] == "done"
        assert snapshot["job"]["results"] == finals[first.job_id][0]["results"]

        rows = fresh.status()
        assert {r["job_id"] for r in rows} >= {first.job_id, again.job_id}
        assert all("results" not in r for r in rows)
        assert fresh.status(again.job_id)[0]["state"] == DONE
        assert fresh.status("job-missing") == []
        assert fresh.result(again.job_id)["results"]
        assert fresh.result("job-missing") is None
        unknown = fresh.subscribe("job-missing", lambda e: None)
        assert unknown["event"] == "error"
        fresh.stop()

    def test_recover_skips_journalled_cells(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        ref = serial_rates(SPECS)
        job = make_job(store, job_id="job-resume-1")
        tkey = job.benchmarks[0].tkey
        store.journal_for(job).record(tkey, SPECS[0], ref[SPECS[0]])
        store.save(job)  # state: queued -> a dead daemon's leftovers

        scheduler = SweepScheduler(store=store, jobs=2, policy=FAST)
        trace_root = tmp_path / "ftrace"
        with faults.traced(trace_root):
            try:
                assert scheduler.recover() == [job.job_id]
                events = []
                flag = threading.Event()

                def callback(event):
                    events.append(event)
                    if event.get("event") == "done":
                        flag.set()

                assert scheduler.subscribe(job.job_id, callback) is None
                scheduler.start()
                assert flag.wait(120)
            finally:
                scheduler.stop()
        final = [e for e in events if e.get("event") == "done"][-1]["job"]
        assert final["state"] == DONE
        # the journalled cell was not re-simulated
        assert evaluated_cells(trace_root) == len(SPECS) - 1
        for spec in SPECS:
            assert final["results"][spec][BENCH] == ref[spec]
        assert any(e.actual == "recovered" for e in health.events(component="sweep-service"))

    def test_queue_full_backpressure(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST, queue_max=2)
        try:
            scheduler.submit(make_job(store, specs=SPECS[:2]))  # fills the queue
            assert scheduler.pending_cells == 2
            with pytest.raises(QueueFull, match="queue is full"):
                scheduler.submit(make_job(store, specs=["gshare:index=9,hist=4"]))
            assert any(
                e.actual == "rejected" for e in health.events(component="sweep-service")
            )
        finally:
            scheduler.stop()

    def test_duplicate_submit_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST)
        try:
            job = make_job(store)
            scheduler.submit(job)
            before = scheduler.pending_cells
            assert scheduler.submit(job) is job
            assert scheduler.pending_cells == before
        finally:
            scheduler.stop()

    def test_priority_orders_within_client(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST)
        low = make_job(store, specs=["gshare:index=6,hist=4"], client="carol")
        high = make_job(store, specs=["gshare:index=7,hist=4"], client="carol",
                        priority=5)
        scheduler.submit(low)
        scheduler.submit(high)
        first = scheduler._next_task()
        second = scheduler._next_task()
        assert first.priority == 5 and first.specs == high.specs
        assert second.priority == 0 and second.specs == low.specs
        assert scheduler._next_task() is None
        scheduler.stop()

    def test_round_robin_across_clients(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST)
        # two batch families each -> two tasks per client
        scheduler.submit(make_job(
            store, specs=["gshare:index=6,hist=4", "bimodal:index=6"], client="alice"))
        scheduler.submit(make_job(
            store, specs=["gshare:index=7,hist=4", "bimodal:index=7"], client="bob"))
        order = []
        while True:
            task = scheduler._next_task()
            if task is None:
                break
            order.append(task.client)
        assert order == ["alice", "bob", "alice", "bob"]
        scheduler.stop()

    def test_job_timeout_fails_with_resume_hint(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1,
                                   policy=TaskPolicy(timeout=None, retries=0, backoff=0.0))
        with faults.inject("worker:sleep:seconds=0.6,where=worker"):
            try:
                job = make_job(store, specs=SPECS[:1], benches=("xlisp", "compress"),
                               timeout=0.3)
                finals = run_jobs(scheduler, [job], timeout=60)
            finally:
                scheduler.stop()
        final, _ = finals[job.job_id]
        assert final["state"] == FAILED
        assert "timed out" in final["error"]
        assert "resubmit to resume" in final["error"]
        assert any(e.actual == "abandoned" for e in health.events(severity="error"))

    def test_default_timeout_applies_to_jobs(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST,
                                   default_timeout=123.0)
        try:
            job = make_job(store)
            scheduler.submit(job)
            assert job.timeout == 123.0
        finally:
            scheduler.stop()

    def test_bad_spec_rejected_at_submit(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST)
        bad = "bimode:dir=6,meta=6"  # bimode has no "meta" option
        try:
            job = make_job(store, specs=["gshare:index=6,hist=4", bad])
            with pytest.raises(ValueError, match=r"bimode:dir=6,meta=6"):
                scheduler.submit(job)
            assert store.load(job.job_id) is None  # nothing persisted
            assert scheduler.pending_cells == 0
        finally:
            scheduler.stop()

    def test_failing_cells_quarantined_others_survive(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1,
                                   policy=TaskPolicy(timeout=None, retries=0, backoff=0.0))
        with faults.inject("evaluate:raise:bench=compress"):
            try:
                job = make_job(store, benches=("xlisp", "compress"))
                finals = run_jobs(scheduler, [job], timeout=120)
            finally:
                scheduler.stop()
        final, _ = finals[job.job_id]
        assert final["state"] == FAILED
        assert "quarantined" in final["error"]
        compress_tkey = BenchmarkRef("compress", LENGTH).tkey
        assert sorted(f["spec"] for f in final["failures"]) == sorted(SPECS)
        assert {f["tkey"] for f in final["failures"]} == {compress_tkey}
        ref = serial_rates(SPECS)
        for spec in SPECS:
            assert final["results"][spec] == {BENCH: ref[spec]}
        assert any(e.actual == "quarantined" for e in health.events(severity="error"))

    def test_recover_fails_job_whose_specs_no_longer_validate(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        job = make_job(store, specs=["bimode:dir=6,meta=6"], job_id="job-stale-1")
        store.save(job)  # an old manifest: queued, never validated
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST)
        try:
            assert scheduler.recover() == []
        finally:
            scheduler.stop()
        saved = store.load(job.job_id)
        assert saved.state == FAILED
        assert "bimode:dir=6,meta=6" in saved.error

    def test_dispatch_fault_retried(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST)
        with faults.inject("service.dispatch:raise:nth=1"):
            try:
                job = make_job(store, specs=SPECS[:1])
                finals = run_jobs(scheduler, [job], timeout=120)
            finally:
                scheduler.stop()
        final, _ = finals[job.job_id]
        assert final["state"] == DONE
        assert any(
            e.actual == "dispatch-fault"
            for e in health.events(component="sweep-service")
        )

    def test_dead_worker_salvaged_serially(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1, policy=FAST)
        with faults.inject("worker:exit:where=worker"):
            try:
                job = make_job(store, specs=SPECS[:1])
                finals = run_jobs(scheduler, [job], timeout=120)
            finally:
                scheduler.stop()
        final, _ = finals[job.job_id]
        assert final["state"] == DONE
        assert final["results"][SPECS[0]][BENCH] == serial_rates(SPECS[:1])[SPECS[0]]
        actuals = {e.actual for e in health.events(component="sweep-service")}
        assert "pool-broken" in actuals
        assert "serial-salvage" in actuals

    def test_pool_unavailable_runs_serial(self, tmp_path, monkeypatch):
        from repro.sim import parallel as executor_module

        class NoFork:
            def __init__(self, *args, **kwargs):
                raise OSError("no fork for you")

        # the one supervisor, shared with one-shot sweeps, owns the pool
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", NoFork)
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=2, policy=FAST)
        try:
            job = make_job(store)
            finals = run_jobs(scheduler, [job], timeout=120)
        finally:
            scheduler.stop()
        final, _ = finals[job.job_id]
        assert final["state"] == DONE
        ref = serial_rates(SPECS)
        for spec in SPECS:
            assert final["results"][spec][BENCH] == ref[spec]
        assert any(
            e.actual == "serial" for e in health.events(component="sweep-service")
        )

    def test_straggler_abandoned_and_salvaged(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=1,
                                   policy=TaskPolicy(timeout=0.25, retries=0, backoff=0.0))
        with faults.inject("worker:sleep:seconds=3,where=worker"):
            try:
                job = make_job(store, specs=SPECS[:1])
                finals = run_jobs(scheduler, [job], timeout=120)
            finally:
                scheduler.stop()
        final, _ = finals[job.job_id]
        assert final["state"] == DONE
        assert any(
            e.actual == "task-timeout"
            for e in health.events(component="sweep-service")
        )

    def test_drain_persists_and_restart_completes(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        benches = ("xlisp", "compress", "go")
        with faults.inject("worker:sleep:seconds=0.4,where=worker"):
            first = SweepScheduler(store=store, jobs=1, policy=FAST)
            job = make_job(store, benches=benches)
            first.submit(job)
            progressed = threading.Event()
            first.subscribe(
                job.job_id,
                lambda e: progressed.set() if e.get("event") == "progress" else None,
            )
            first.start()
            assert progressed.wait(60)
            assert first.drain(timeout=60)
            with pytest.raises(SchedulerStopped):
                first.submit(make_job(store, specs=["gshare:index=9,hist=2"]))

        saved = store.load(job.job_id)
        assert saved.state == QUEUED
        assert 0 < saved.completed_cells < saved.total_cells

        second = SweepScheduler(store=store, jobs=2, policy=FAST)
        trace_root = tmp_path / "ftrace"
        with faults.traced(trace_root):
            try:
                assert second.recover() == [job.job_id]
                events = []
                flag = threading.Event()

                def callback(event):
                    events.append(event)
                    if event.get("event") == "done":
                        flag.set()

                assert second.subscribe(job.job_id, callback) is None
                second.start()
                assert flag.wait(180)
            finally:
                second.stop()
        final = [e for e in events if e.get("event") == "done"][-1]["job"]
        assert final["state"] == DONE
        # restart resumed from the journal: only the unfinished cells ran
        assert evaluated_cells(trace_root) == saved.total_cells - saved.completed_cells
        for bench in benches:
            ref = serial_rates(SPECS, bench)
            for spec in SPECS:
                assert final["results"][spec][bench] == ref[spec]

    def test_detailed_job_returns_summaries(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        scheduler = SweepScheduler(store=store, jobs=2, policy=FAST)
        spec = "bimode:dir=6,hist=6,choice=6"
        try:
            job = make_job(store, specs=[spec], kind="detailed")
            finals = run_jobs(scheduler, [job], timeout=180)
        finally:
            scheduler.stop()
        final, _ = finals[job.job_id]
        assert final["state"] == DONE
        summary = final["results"][spec][BENCH]
        assert isinstance(summary, dict)
        assert summary["misprediction_rate"] == serial_rates([spec])[spec]


def start_server(tmp_path, name="s.sock", **kwargs):
    sock = str(tmp_path / name)
    server = SweepServer(
        address=sock,
        store=JobStore(tmp_path / "svc"),
        jobs=2,
        policy=FAST,
        **kwargs,
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"install_signals": False}, daemon=True
    )
    thread.start()
    assert server.wait_until_serving(30)
    return server, thread, sock


@pytest.fixture()
def service(tmp_path, isolated_env):
    server, thread, sock = start_server(tmp_path)
    yield server, sock
    server.drain()
    thread.join(30)
    assert not thread.is_alive()


class TestServer:
    def test_ping(self, service):
        _, sock = service
        response = ServiceClient(sock).ping()
        assert response["pong"] is True
        assert response["pid"] == os.getpid()
        assert response["pending_cells"] == 0

    def test_submit_and_wait_bit_identical(self, service):
        _, sock = service
        client = ServiceClient(sock, client_id="alice")
        events = []
        final = client.submit_and_wait(
            SPECS, [{"name": BENCH, "length": LENGTH}],
            on_event=events.append, timeout=180,
        )
        assert final["state"] == DONE
        ref = serial_rates(SPECS)
        for spec in SPECS:
            assert final["results"][spec][BENCH] == ref[spec]
        assert any(e.get("event") == "progress" for e in events)
        done = [e for e in events if e.get("event") == "done"][-1]
        assert isinstance(done.get("health"), list)

    def test_status_result_and_unknowns(self, service):
        _, sock = service
        client = ServiceClient(sock, client_id="bob")
        final = client.submit_and_wait(SPECS[:1], [{"name": BENCH, "length": LENGTH}],
                                       timeout=180)
        job_id = final["job_id"]
        assert any(j["job_id"] == job_id for j in client.status())
        (row,) = client.status(job_id)
        assert row["state"] == DONE and "results" not in row
        assert client.status("job-missing") == []
        assert client.result(job_id)["results"]
        assert client.result("job-missing") is None

    def test_resubmit_resumes_from_cache(self, service):
        _, sock = service
        client = ServiceClient(sock, client_id="carol")
        client.submit_and_wait(SPECS, [{"name": BENCH, "length": LENGTH}], timeout=180)
        response = client._request({
            "op": "submit", "client": "carol", "kind": "rates",
            "specs": SPECS, "benchmarks": [{"name": BENCH, "length": LENGTH}],
        })
        assert response["ok"]
        assert response["resumed_cells"] == response["total_cells"] == len(SPECS)

    def test_unknown_op_rejected(self, service):
        _, sock = service
        with pytest.raises(ServiceError, match="unknown op"):
            ServiceClient(sock)._check(ServiceClient(sock)._request({"op": "frobnicate"}))

    def test_protocol_junk_rejected(self, service):
        _, sock = service
        conn = proto.connect(sock, timeout=10)
        try:
            conn.sendall(b"this is not json\n")
            response = proto.read_message(conn.makefile("rb"))
        finally:
            conn.close()
        assert response["ok"] is False
        assert "malformed" in response["error"]

    def test_bad_submit_rejected(self, service):
        _, sock = service
        with pytest.raises(ServiceError, match="bad submit"):
            ServiceClient(sock, submit_retries=0).submit([], [BENCH])

    def test_wait_unknown_job(self, service):
        _, sock = service
        with pytest.raises(ServiceError, match="unknown job"):
            ServiceClient(sock).wait("job-missing", timeout=10)

    def test_submit_while_draining_is_retryable(self, service):
        server, sock = service
        server._draining.set()
        try:
            with pytest.raises(ServiceBusy, match="draining"):
                ServiceClient(sock, submit_retries=1, backoff=0.01).submit(
                    SPECS[:1], [{"name": BENCH, "length": LENGTH}]
                )
        finally:
            server._draining.clear()

    def test_health_op_reports_degradations(self, service):
        _, sock = service
        health.emit("pool", "worker-ok", "worker-raised", reason="boom")
        health.emit("cache", "write", "lost", severity="error", reason="disk")
        response = ServiceClient(sock)._check(ServiceClient(sock)._request({"op": "health"}))
        assert "worker-raised" in response["summary"]
        assert any("lost" in line for line in response["events"])

    def test_streaming_submit_heartbeats_and_health(self, service):
        _, sock = service
        with faults.inject("worker:sleep:seconds=1.3,where=worker"):
            conn = proto.connect(sock, timeout=30)
            try:
                wfile = conn.makefile("wb")
                rfile = conn.makefile("rb")
                proto.write_message(wfile, {
                    "op": "submit", "client": "raw", "kind": "rates",
                    "specs": SPECS[:1],
                    "benchmarks": [{"name": BENCH, "length": LENGTH}],
                    "wait": True,
                })
                ack = proto.read_message(rfile)
                assert ack["ok"] and ack["total_cells"] == 1
                conn.settimeout(60)
                names = []
                while True:
                    event = proto.read_message(rfile)
                    names.append(event["event"])
                    if event["event"] == "done":
                        break
            finally:
                conn.close()
        assert "heartbeat" in names  # worker slept past the 1s beat
        assert event["job"]["state"] == DONE
        assert isinstance(event["health"], list)

    def test_drain_request_stops_server(self, tmp_path):
        server, thread, sock = start_server(tmp_path, name="d.sock")
        client = ServiceClient(sock)
        final = client.submit_and_wait(SPECS[:1], [{"name": BENCH, "length": LENGTH}],
                                       timeout=180)
        assert final["state"] == DONE
        client.drain()
        thread.join(60)
        assert not thread.is_alive()
        assert not os.path.exists(sock)  # socket cleaned up on exit


class TestSocketOwnership:
    def test_owner_pid_parsing(self, tmp_path):
        pid_path = tmp_path / "s.pid"
        assert SweepServer._owner_pid(str(pid_path)) is None  # missing
        pid_path.write_text("garbage")
        assert SweepServer._owner_pid(str(pid_path)) is None
        pid_path.write_text("0")
        assert SweepServer._owner_pid(str(pid_path)) is None
        pid_path.write_text(" 123 ")
        assert SweepServer._owner_pid(str(pid_path)) == 123

    def test_alive(self):
        import multiprocessing

        assert SweepServer._alive(os.getpid()) is True
        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()
        assert SweepServer._alive(proc.pid) is False

    def test_dead_owner_socket_taken_over(self, tmp_path):
        import multiprocessing

        sock_path = tmp_path / "s.sock"
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(sock_path))
        leftover.listen(1)
        leftover.close()  # dead daemon: file remains, nobody accepts
        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()
        (tmp_path / "s.sock.pid").write_text(str(proc.pid))

        server, thread, sock = start_server(tmp_path)
        try:
            assert ServiceClient(sock).ping()["pong"]
            events = [
                e for e in health.events(component="sweep-service")
                if e.actual == "stale-socket-taken-over"
            ]
            assert len(events) == 1
            assert str(proc.pid) in events[0].reason
        finally:
            server.drain()
            thread.join(30)

    def test_live_owner_refused(self, tmp_path):
        sock_path = tmp_path / "s.sock"
        sock_path.touch()
        (tmp_path / "s.sock.pid").write_text(str(os.getpid()))
        server = SweepServer(address=str(sock_path), store=JobStore(tmp_path / "svc"))
        with pytest.raises(OSError, match="already serving"):
            server._make_server()
        assert sock_path.exists()  # the live owner's socket is untouched


class TestServiceCli:
    def test_submit_and_status(self, tmp_path, capsys):
        from repro.cli import main

        server, thread, sock = start_server(tmp_path)
        try:
            rc = main([
                "--length", str(LENGTH), "submit", SPECS[0],
                "--benchmarks", BENCH, "--socket", sock, "--client", "cli-test",
            ])
            out = capsys.readouterr().out
            assert rc == 0
            assert "submitted" in out
            assert "done" in out
            assert BENCH in out  # the rates table rendered

            assert main(["status", "--socket", sock]) == 0
            out = capsys.readouterr().out
            assert "cli-test" in out

            assert main(["status", "job-missing", "--socket", sock]) == 1
            assert "unknown job" in capsys.readouterr().out
        finally:
            server.drain()
            thread.join(30)

    def test_submit_no_wait(self, tmp_path, capsys):
        from repro.cli import main

        server, thread, sock = start_server(tmp_path)
        try:
            rc = main([
                "--length", str(LENGTH), "submit", SPECS[0],
                "--benchmarks", BENCH, "--socket", sock, "--no-wait",
            ])
            assert rc == 0
            assert "submitted" in capsys.readouterr().out
        finally:
            server.drain()
            thread.join(30)

    def test_journal_compact_cli(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sim.journal import SweepJournal

        root = tmp_path / "journals"
        journal = SweepJournal.for_name("fig2", root=root)
        journal.record_many("t1", {"a": 0.1, "b": 0.2})
        with open(journal.path, "a") as fh:
            fh.write("garbage\n")
        assert main(["journal", "compact", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "fig2.jsonl: 2 cells, dropped 1 line(s)" in out
        assert SweepJournal.for_name("fig2", root=root).corrupt_lines == 0

    def test_journal_compact_empty_root(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["journal", "compact", "--root", str(tmp_path / "none")]) == 0
        assert "no journals" in capsys.readouterr().out

    def test_journal_compact_named_missing(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["journal", "compact", "ghost", "--root", str(tmp_path)]) == 0
        assert "ghost.jsonl: missing" in capsys.readouterr().out

    def test_serve_runs_and_drains(self, tmp_path):
        from repro.cli import main

        sock = str(tmp_path / "cli.sock")
        outcome = {}

        def run():
            outcome["rc"] = main(["serve", "--socket", sock, "--queue-max", "10"])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        client = ServiceClient(sock)
        deadline = time.monotonic() + 30
        while True:
            try:
                client.ping()
                break
            except OSError:
                assert time.monotonic() < deadline, "serve CLI never came up"
                time.sleep(0.05)
        client.drain()
        thread.join(60)
        assert outcome.get("rc") == 0
