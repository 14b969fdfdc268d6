"""Parallel Section-4 analysis sweeps (``detailed_matrix``).

The detailed sweep is a first-class parallel workload: per-cell
supervised tasks, in-worker reduction to compact summary dicts, a
JSON-payload journal for crash-safe resume, and the same salvage /
quarantine ladder as the rate sweeps.  These tests assert the two
ISSUE acceptance properties — parallel, resumed, and fault-afflicted
sweeps all produce *bit-identical* aggregates — plus the journal's
payload round-trip contract.
"""

import pytest

from repro import faults, health
from repro.sim.engine import run_detailed
from repro.analysis.summary import summarize_detailed
from repro.core.registry import make_predictor
from repro.sim.journal import PayloadJournal
from repro.sim.parallel import TaskPolicy, detailed_matrix
from repro.sim.runner import ResultCache, trace_key
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile

#: The grid spans every family shape the planner produces: the fused
#: gshare/bi-mode attribution kernels, a counter-major ported scheme,
#: and a sequential-loop ported scheme — so each drill below
#: covers fused-detailed family tasks, not just the legacy pair.
SPECS = [
    "gshare:index=7,hist=7",
    "bimode:dir=6,hist=6,choice=5",
    "bimodal:index=7",
    "agree:index=6,hist=6",
    "perceptron:index=5,hist=6",
]

BENCHES = ("gcc", "xlisp", "compress")


@pytest.fixture(scope="module")
def traces():
    return {
        name: generate_trace(get_profile(name), length=5_000, seed=3)
        for name in BENCHES
    }


@pytest.fixture(scope="module")
def serial_reference(traces):
    return dict(detailed_matrix(SPECS, traces, jobs=1))


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared-cache"))
    health.clear()
    yield
    health.clear()


class TestPayloadJournal:
    def test_round_trips_summary_dicts(self, tmp_path):
        journal = PayloadJournal(tmp_path / "d.jsonl")
        payload = {"misprediction_rate": 0.125, "breakdown": {"wb": 0.01}}
        journal.record("t1", "gshare:index=8", payload)
        reread = PayloadJournal(journal.path)
        assert reread.lookup("t1", "gshare:index=8") == payload

    def test_rejects_non_dict_payloads(self, tmp_path):
        journal = PayloadJournal(tmp_path / "d.jsonl")
        with pytest.raises(ValueError):
            journal.record("t1", "gshare:index=8", 0.125)

    def test_corrupt_lines_skipped(self, tmp_path):
        journal = PayloadJournal(tmp_path / "d.jsonl")
        journal.record("t1", "a", {"x": 1})
        with open(journal.path, "a") as fh:
            fh.write('{"tkey": "t1", "spec": "b", "payload": 0.5}\n')  # not a dict
            fh.write("{torn")
        reread = PayloadJournal(journal.path)
        assert reread.lookup("t1", "a") == {"x": 1}
        assert reread.lookup("t1", "b") is None
        assert reread.corrupt_lines == 2

    def test_record_many_skips_journalled(self, tmp_path):
        journal = PayloadJournal(tmp_path / "d.jsonl")
        assert journal.record_many("t1", {"a": {"x": 1}, "b": {"y": 2}}) == 2
        assert journal.record_many("t1", {"a": {"x": 9}, "c": {"z": 3}}) == 1
        assert journal.lookup("t1", "a") == {"x": 1}  # first write wins


class TestDetailedMatrix:
    def test_serial_matches_direct_summaries(self, traces, serial_reference):
        for spec in SPECS:
            for bench in BENCHES:
                detailed = run_detailed(make_predictor(spec), traces[bench])
                assert serial_reference[spec][bench] == summarize_detailed(detailed)

    def test_parallel_matches_serial(self, traces, serial_reference):
        result = detailed_matrix(
            SPECS, traces, jobs=2, policy=TaskPolicy(retries=1, backoff=0.0)
        )
        assert dict(result) == serial_reference
        assert result.failures == []

    def test_rate_cache_fed_as_byproduct(self, traces, serial_reference, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        detailed_matrix(SPECS, traces, cache=cache, jobs=1)
        cache.flush()
        for spec in SPECS:
            for bench in BENCHES:
                assert cache.get(spec, trace_key(traces[bench])) == pytest.approx(
                    serial_reference[spec][bench]["misprediction_rate"]
                )

    def test_include_bias_table_round_trips(self, traces, tmp_path):
        journal = PayloadJournal(tmp_path / "bt.jsonl")
        small = {"gcc": traces["gcc"]}
        first = detailed_matrix(
            SPECS, small, jobs=1, journal=journal, include_bias_table=True
        )
        resumed = detailed_matrix(
            SPECS,
            small,
            jobs=1,
            journal=PayloadJournal(journal.path),
            include_bias_table=True,
        )
        assert dict(resumed) == dict(first)


class TestDetailedResume:
    def test_interrupted_sweep_resumes_bit_identical(
        self, traces, serial_reference, tmp_path
    ):
        journal = PayloadJournal(tmp_path / "det.jsonl")
        # nth lands mid-way through the *second* bench: the first
        # bench's five cells are journalled, the interrupt arrives with
        # work still outstanding
        with faults.inject("detailed:sigint:nth=7"):
            with pytest.raises(KeyboardInterrupt):
                detailed_matrix(SPECS, traces, jobs=1, journal=journal)
        done_before = len(PayloadJournal(journal.path))
        assert 0 < done_before < len(SPECS) * len(BENCHES)

        resumed_journal = PayloadJournal(journal.path)
        with faults.traced(tmp_path / "trace"):
            resumed = detailed_matrix(SPECS, traces, jobs=1, journal=resumed_journal)
        assert dict(resumed) == serial_reference  # bit-identical aggregates
        assert resumed_journal.resumed_cells == done_before

        # journalled cells were never recomputed
        counts = faults.trace_counts(tmp_path / "trace", site="detailed")
        assert sum(counts.values()) == len(SPECS) * len(BENCHES) - done_before


class TestDetailedFaults:
    def test_killed_worker_drill(self, traces, serial_reference):
        """ISSUE acceptance: a hard-killed worker mid-sweep must not
        change the aggregates — the pool reseeds, the cell retries or
        is salvaged serially."""
        with faults.inject("worker:exit:bench=gcc"):
            result = detailed_matrix(
                SPECS, traces, jobs=2, policy=TaskPolicy(retries=2, backoff=0.0)
            )
        assert dict(result) == serial_reference
        assert result.failures == []
        kinds = {e.actual for e in health.events(component="parallel-pool")}
        assert "pool-broken" in kinds

    def test_crashing_cell_salvaged_serially(self, traces, serial_reference, tmp_path):
        with faults.traced(tmp_path / "trace"):
            with faults.inject("worker:raise:bench=gcc,where=worker"):
                result = detailed_matrix(
                    SPECS, traces, jobs=2, policy=TaskPolicy(retries=0, backoff=0.0)
                )
        assert dict(result) == serial_reference
        assert result.failures == []
        # healthy benchmarks computed once; gcc cells recovered in-parent
        counts = faults.trace_counts(tmp_path / "trace", site="detailed")
        for spec in SPECS:
            assert counts[("detailed", "xlisp")] == len(SPECS)
            assert counts[("detailed", "gcc")] == len(SPECS)

    def test_persistent_failure_quarantined(self, traces, serial_reference):
        with faults.inject("detailed:raise:bench=gcc"):
            result = detailed_matrix(
                SPECS, traces, jobs=2, policy=TaskPolicy(retries=0, backoff=0.0)
            )
        assert result.quarantined_benches == ["gcc"]
        assert {cell.bench for cell in result.failures} == {"gcc"}
        for spec in SPECS:
            assert "gcc" not in result[spec]
            for bench in ("xlisp", "compress"):
                assert result[spec][bench] == serial_reference[spec][bench]
