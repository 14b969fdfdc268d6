"""Tests of the benchmark itself: contract, smoke runs, gate and tracer.

Run from the repository root (they are not part of the program's suite)::

    python3 -m pytest perfbench/tests -q

The smoke runs use short traces (``--length-scale 0.02``) and one set-up.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(CHECKOUT), str(CHECKOUT / "src")]

from perfbench import gate, spec, tracer  # noqa: E402
from perfbench.run import tail  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_spec_meets_the_contract():
    doc = spec.benchmark_json()
    assert list(doc) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) <= 64 * 1024


def _run(workload: str, trace: int, cwd: Path = CHECKOUT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
           "--length-scale", "0.02", "--setup-runs", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload):
    for trace, declared in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"])
        text = "\n".join(lines[:-1])
        for metric in spec.END_TO_END:
            assert re.search(rf"^{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                             text, re.M), metric["name"]
        if trace == 0:
            e2e = result["metrics"]
            assert all(e2e[m["name"]]["value"] > 0 for m in spec.END_TO_END)
            assert e2e["ok_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("paper_grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module", autouse=True)
def cache_root(tmp_path_factory):
    """Keep kernel builds and traces of the in-process tests in a temporary root."""
    import os

    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if saved is None:
        del os.environ["REPRO_CACHE_DIR"]
    else:
        os.environ["REPRO_CACHE_DIR"] = saved


@pytest.fixture(scope="module")
def prefixes():
    from repro.workloads.suite import load_benchmark

    trace = load_benchmark("compress", length=3_000, seed=5, use_cache=False)
    return {"compress": trace[:800], "compress-late": trace[2_000:]}


def _bump(value: float) -> float:
    return math.nextafter(value, 1.0)


def test_rates_gate_rejects_a_tampered_result(prefixes):
    from repro.sim.runner import evaluate_matrix

    specs = ["gshare:index=8,hist=6", "bimode:dir=7,hist=7,choice=7", "pag:hist=6,bht=6"]
    program = {s: dict(r) for s, r in evaluate_matrix(specs, prefixes, jobs=1).items()}
    assert gate.check_rates_prefix(specs, prefixes, program) == []
    tampered = json.loads(json.dumps(program))
    tampered[specs[1]]["compress"] = _bump(tampered[specs[1]]["compress"])
    found = gate.check_rates_prefix(specs, prefixes, tampered)
    assert any(specs[1] in line and "scalar" in line for line in found)
    assert any(specs[1] in line and "oracle" in line for line in found)
    del tampered[specs[0]]["compress-late"]
    assert gate.check_complete(tampered, specs, list(prefixes), False)


def test_detailed_gate_rejects_a_tampered_summary(prefixes):
    from repro.sim.parallel import detailed_matrix

    specs = ["gshare:index=8,hist=6", "yags:choice=6,cache=5,hist=3,tag=4"]
    program = {s: dict(r) for s, r in detailed_matrix(specs, prefixes, jobs=1).items()}
    assert gate.check_detailed_prefix(specs, prefixes, program) == []
    tampered = json.loads(json.dumps(program))
    tampered[specs[1]]["compress"]["class_changes"]["wb"] += 1
    found = gate.check_detailed_prefix(specs, prefixes, tampered)
    assert len(found) == 2 and all(specs[1] in line for line in found)


def test_compare_cells_reports_missing_and_changed_cells():
    a = {"s": {"x": 0.25, "y": 0.5}}
    assert gate.compare_cells("a", a, "b", json.loads(json.dumps(a))) == []
    assert gate.compare_cells("a", a, "b", {"s": {"x": 0.25}})
    assert gate.compare_cells("a", a, "b", {"s": {"x": 0.25, "y": _bump(0.5)}})


def test_digest_registry_rejects_a_changed_digest(tmp_path):
    registry = gate.DigestRegistry(tmp_path / "digests.json")
    assert registry.check("w|seed=1", "abc") == []
    assert registry.check("w|seed=1", "abc") == []
    assert registry.check("w|seed=1", "abd")
    assert registry.check("w|seed=2", "abd") == []


def test_tracer_self_time_excludes_children():
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            sum(range(20_000))
    (_, o0, o1, _), (_, i0, i1, parent) = t.spans
    assert parent == 0
    own = t.self_times()
    assert own["inner"] == pytest.approx(i1 - i0)
    assert own["outer"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert t.covered() == pytest.approx(o1 - o0)


def test_install_wraps_and_restores_the_layers(prefixes):
    from repro.sim import fused, runner

    before = (fused.family_rates, runner.family_rates, runner.ResultCache.put_many)
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        assert runner.family_rates is fused.family_rates is not before[0]
        runner.evaluate_specs(["gshare:index=8,hist=6"], prefixes["compress"],
                              cache=None)
    finally:
        uninstall()
    assert (fused.family_rates, runner.family_rates, runner.ResultCache.put_many) == before
    assert "sim.fused.family_rates.gshare" in t.self_times()
    assert t.counts["sim.fused.family_rates.gshare.lane_branches"] == 800


def test_tail_has_ten_samples_beyond_it():
    assert tail([4.0]) == 4.0
    assert tail([3.0, 1.0, 2.0]) == 2.5  # upper quartile stands in below eleven
    values = list(range(1, 21))
    assert tail(values) == 10
    assert sum(v > tail(values) for v in values) == 10
