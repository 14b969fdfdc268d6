"""Sweep entry points reject bad inputs before any cell runs.

``load_suite``, ``evaluate_matrix`` and ``detailed_matrix`` take a list;
a bare string would iterate into one-letter names, so each raises
``TypeError``.  Specs are parsed up front, so an invalid one raises a
``ValueError`` naming it, serially and on the pool alike, instead of
failing or being quarantined mid-sweep.
"""

import pytest

from repro import faults
from repro.sim.parallel import detailed_matrix
from repro.sim.runner import evaluate_matrix
from repro.workloads.suite import load_suite
from tests.conftest import make_toy_trace

GOOD = "gshare:index=6,hist=4"


def test_load_suite_rejects_a_bare_suite_name(tmp_path):
    with pytest.raises(TypeError, match="suite_names"):
        load_suite("cint95", length=1000, cache_dir=tmp_path)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sweep", [evaluate_matrix, detailed_matrix])
@pytest.mark.parametrize(
    "specs, error",
    [
        (GOOD, TypeError),
        ([GOOD, "tage:index=10"], ValueError),  # unknown scheme
        ([GOOD, "gshare:index=4,hist=9"], ValueError),  # bad geometry
    ],
)
def test_bad_specs_raise_before_any_cell(sweep, specs, error, jobs, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    traces = {"toy": make_toy_trace(length=300, seed=5)}
    named = specs if isinstance(specs, str) else specs[-1]
    with faults.traced(tmp_path / "trace"):
        with pytest.raises(error, match=named):
            sweep(specs, traces, jobs=jobs)
    assert faults.trace_counts(tmp_path / "trace") == {}
