"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json``: ``python3
perfbench/run.py --write-spec`` regenerates the file from the tables
below, and the benchmark's tests fail when the committed file drifts
from them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10

WORKLOADS = [
    {
        "name": "paper_grid",
        "why": "full Figure-2/3/4 rate grid (124 specs x 14 traces) serial: "
        "the headline sweep, dominated by the fused gshare/bi-mode C loops; "
        "no Section-4 analysis",
    },
    {
        "name": "section4_grid",
        "why": "13-spec Section-4 detailed grid x CINT95 serial: per-scheme "
        "attribution kernels plus substream analysis; no fused rate loops",
    },
    {
        "name": "scheme_zoo_pool",
        "why": "39 ported non-gshare/bimode specs x CINT95 on a 2-worker pool "
        "with a sweep journal: many small families, supervised tasks, journal writes",
    },
    {
        "name": "service_overlap",
        "why": "fresh 2-worker sweep daemon, 2 closed-loop clients submitting the "
        "paper grid per size point over overlapping traces: dedup and cache reads",
    },
]

#: Family kinds of the sweep planner (``repro.sim.kernels.family_order``).
FAMILY_KINDS = [
    "gshare", "bimode", "bimodal", "gag", "gas", "gap", "gselect", "pag",
    "pas", "pap", "agree", "gskew", "tournament", "trimode", "yags",
    "perceptron", "biasfilter", "always-taken", "always-not-taken", "btfnt",
    "scalar",
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "branch_lanes_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
    {"name": "job_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "job_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _layer(name: str, unit: str, better: str) -> Dict[str, str]:
    return {"name": name, "unit": unit, "better": better}


def _per_layer() -> List[Dict[str, str]]:
    rows = [
        _layer("sim.fused.plan_s", "s", "lower"),
        _layer("sim.fused.families", "count", "lower"),
    ]
    for kind in FAMILY_KINDS:
        rows.append(_layer(f"sim.fused.family_rates.{kind}_s", "s", "lower"))
        rows.append(
            _layer(f"sim.fused.family_rates.{kind}_ns_per_lane_branch", "ns", "lower")
        )
    for kind in FAMILY_KINDS:
        rows.append(_layer(f"sim.fused.family_detailed.{kind}_s", "s", "lower"))
    rows += [
        _layer("analysis.bias.pc_code_stream_s", "s", "lower"),
        _layer("analysis.bias.analyze_substreams_s", "s", "lower"),
        _layer("analysis.interference.count_class_changes_s", "s", "lower"),
        _layer("analysis.bias.counter_bias_table_s", "s", "lower"),
        _layer("analysis.aliasing_s", "s", "lower"),
        _layer("analysis.summary_s", "s", "lower"),
        _layer("analysis.ns_per_access", "ns", "lower"),
        _layer("sim.runner.cache_put_s", "s", "lower"),
        _layer("sim.runner.cache_flush_s", "s", "lower"),
        _layer("sim.runner.cells_computed", "count", "lower"),
        _layer("sim.runner.cache_hits", "count", "higher"),
        _layer("sim.journal.record_s", "s", "lower"),
        _layer("sim.journal.lines", "count", "lower"),
        _layer("sim.parallel.pool_efficiency", "ratio", "higher"),
        _layer("service.client.submit_s", "s", "lower"),
        _layer("service.cells_requested", "count", "higher"),
        _layer("service.cells_computed", "count", "lower"),
        _layer("service.dedup_ratio", "ratio", "higher"),
        _layer("workloads.generate_s", "s", "lower"),
        _layer("traces.store.open_s", "s", "lower"),
        _layer("traces.store.bytes_per_branch", "B", "lower"),
        _layer("sim._cstep.build_s", "s", "lower"),
        _layer("service.server.start_s", "s", "lower"),
        _layer("trace.overhead_s", "s", "lower"),
        _layer("trace.unattributed_s", "s", "lower"),
    ]
    return rows


PER_LAYER = _per_layer()

END_TO_END_UNITS = {m["name"]: m["unit"] for m in END_TO_END}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in PER_LAYER}
WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, keys in contract order."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def write_benchmark_json(root: Path) -> Path:
    path = Path(root) / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
