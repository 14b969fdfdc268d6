"""Trace-driven simulation: engine, batch kernels, metrics, cached and
process-parallel multi-run orchestration."""

from repro.sim.batch import GShareLane, gshare_family_rates, lane_for_spec
from repro.sim.engine import run, run_detailed, run_steps
from repro.sim.fetch import FetchEngine, FetchStats
from repro.sim.metrics import (
    branch_penalty_cpi,
    misprediction_rate,
    per_branch_rates,
    steady_state_rate,
    wilson_interval,
)
from repro.sim.parallel import (
    TraceRecipe,
    evaluate_matrix_parallel,
    parallel_jobs,
    recipe_of,
)
from repro.sim.runner import (
    ResultCache,
    evaluate,
    evaluate_matrix,
    evaluate_specs,
    trace_key,
)

__all__ = [
    "FetchEngine",
    "FetchStats",
    "GShareLane",
    "ResultCache",
    "TraceRecipe",
    "branch_penalty_cpi",
    "evaluate",
    "evaluate_matrix",
    "evaluate_matrix_parallel",
    "evaluate_specs",
    "gshare_family_rates",
    "lane_for_spec",
    "misprediction_rate",
    "parallel_jobs",
    "per_branch_rates",
    "recipe_of",
    "run",
    "run_detailed",
    "run_steps",
    "steady_state_rate",
    "trace_key",
    "wilson_interval",
]
