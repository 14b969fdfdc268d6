"""Engine throughput microbenchmarks (pytest-benchmark timing proper).

Not a paper artifact: measures the simulator's branches/second for the
main predictors, the fused multi-lane gshare kernel, and the sweep
matrix driver, which together bound how long the figure benches take.
These use multiple rounds (real statistics) since each round is cheap.
"""

from __future__ import annotations

import pytest

from benchmarks.common import load_bench_trace
from repro.core.registry import make_predictor
from repro.sim import _cstep
from repro.sim.batch import GShareLane, gshare_family_rates
from repro.sim.engine import run
from repro.sim.runner import evaluate_matrix

TRACE_NAME = "xlisp"
SPECS = [
    "bimodal:index=12",
    "gshare:index=12,hist=12",
    "bimode:dir=11,hist=11,choice=11",
    "pas:hist=6,select=4,bht=10",
]

#: The gshare.best candidate family at one paper size (index_bits=12):
#: the workload the batch kernel exists to accelerate.
BATCH_LANES = [GShareLane(index_bits=12, history_bits=h) for h in range(13)]


@pytest.fixture(scope="module")
def trace():
    full = load_bench_trace(TRACE_NAME)
    return full[:100_000]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.benchmark(group="throughput")
def test_simulation_throughput(benchmark, spec, trace):
    predictor = make_predictor(spec)
    result = benchmark.pedantic(
        run, args=(predictor, trace), rounds=3, iterations=1
    )
    assert 0.0 <= result.misprediction_rate <= 1.0
    branches_per_second = len(trace) / benchmark.stats["mean"]
    print(f"\n{spec}: {branches_per_second / 1e6:.2f} M branches/s")
    # sanity floor: the harness is unusable below ~100 K branches/s
    assert branches_per_second > 100_000


needs_cc = pytest.mark.skipif(not _cstep.available(), reason="no C compiler")


@needs_cc
@pytest.mark.benchmark(group="throughput-batched")
def test_batched_kernel_throughput(benchmark, trace):
    """Lane-branches/second of the fused family kernel (13 lanes = one
    full history-length search at 12 index bits)."""
    rates = benchmark.pedantic(
        gshare_family_rates, args=(BATCH_LANES, trace), rounds=3, iterations=1
    )
    assert all(0.0 <= r <= 1.0 for r in rates)
    lane_branches_per_second = len(BATCH_LANES) * len(trace) / benchmark.stats["mean"]
    print(f"\nbatched x{len(BATCH_LANES)}: {lane_branches_per_second / 1e6:.2f} M lane-branches/s")
    # the whole point of the kernel: clearly faster than the ~6 M
    # branches/s scalar gshare loop on the same work
    assert lane_branches_per_second > 1_000_000


@needs_cc
@pytest.mark.benchmark(group="throughput-batched")
def test_batched_kernel_speedup_vs_scalar(benchmark, trace):
    """Wall-clock of the scalar engine over the same 13-configuration
    family, for a direct speedup readout against the batched group."""
    specs = [lane.spec for lane in BATCH_LANES]

    def scalar_family():
        return [run(make_predictor(s), trace).misprediction_rate for s in specs]

    scalar_rates = benchmark.pedantic(scalar_family, rounds=1, iterations=1)
    assert scalar_rates == gshare_family_rates(BATCH_LANES, trace)


@pytest.mark.benchmark(group="throughput-sweep")
def test_sweep_matrix_throughput(benchmark, trace):
    """Cells/second of the (uncached) sweep matrix driver on a
    mixed gshare + bi-mode spec set — the figure benches' inner loop."""
    specs = [lane.spec for lane in BATCH_LANES] + ["bimode:dir=11,hist=11,choice=11"]
    traces = {TRACE_NAME: trace}
    matrix = benchmark.pedantic(
        evaluate_matrix, args=(specs, traces), rounds=1, iterations=1
    )
    cells = len(specs) * len(traces)
    cells_per_second = cells / benchmark.stats["mean"]
    print(f"\nsweep matrix: {cells_per_second:.1f} cells/s ({cells} cells)")
    assert all(0.0 <= matrix[s][TRACE_NAME] <= 1.0 for s in specs)
