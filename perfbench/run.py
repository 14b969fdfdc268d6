"""The repository benchmark: one workload per run, checked and measured.

Run from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Each run

1. sets up cold, several times, each in a fresh interpreter on an empty
   cache root — C kernel build, trace generation from ``--seed`` and
   store publish (``setup_s`` is the median; the service workload adds
   its daemon start);
2. checks every cell of the grid on a power-on prefix of its trace
   against the scalar engine and the dict oracle (this also warms the
   code paths before timing);
3. repeats cold-cache passes over the workload's grid for ``--seconds``
   (at least one), with peak memory of the whole process tree sampled;
4. checks the timed results: every pass identical, complete, equal to
   the same seed's digest from earlier runs in this checkout, and for
   the service equal to a one-shot sweep;
5. with ``--trace 1``, additionally runs one pass under the layer
   tracer (:mod:`perfbench.tracer`) — and for the pooled workloads a
   serial traced replay of the same grid, since worker-side work is
   invisible to the calling process — and reports per-layer metrics,
   the tracing overhead and the time no layer accounts for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, the in-run sample counts
and quartiles, and the run's provenance.  A run whose outputs are wrong
exits 1.  ``--workload all`` runs every workload in turn, each in its
own interpreter.  ``--write-spec`` regenerates ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

CHECKOUT = Path(__file__).resolve().parents[1]
WORK_DIR = ".perfbench_work"


def quartiles(values: List[float]) -> Dict[str, float]:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    upper quartile stands in (the one-shot workloads time two to four
    sweeps per run, and the maximum of so few is mostly noise).
    """
    values = sorted(values)
    if len(values) >= 11:
        return values[-11]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def provenance(ctx, workload, seed: int) -> dict:
    import numpy

    def first_line(cmd: List[str]) -> str:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return (out.stdout.strip().splitlines() or ["unknown"])[0]

    commit = "unknown"
    if (ctx.checkout / ".git").exists():
        commit = first_line(["git", "-C", str(ctx.checkout), "rev-parse", "HEAD"])
    src = hashlib.sha256()
    for path in sorted((ctx.checkout / "src" / "repro").rglob("*.py")):
        src.update(path.relative_to(ctx.checkout).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "compiler": first_line([shutil.which("cc") or "cc", "--version"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "seed": seed,
        "workload": workload.name,
        "traces": len(ctx.traces),
        "specs": len(workload.specs),
        "cells": workload.cells(ctx),
        "branch_lanes": workload.branch_lanes(ctx),
    }


def _layer_metrics(workload, setups, base_sweep_s, traced, kernel):
    """Per-layer metrics from the traced pass (``traced``: its tracer and
    unit) and the tracer that saw the kernels (``kernel``: tracer and
    wall seconds of the serial replay for pooled workloads)."""
    from perfbench import spec

    traced_tracer, traced_unit = traced
    traced_wall = traced_unit.wall_s
    kernel_tracer, kernel_wall = kernel
    own = traced_tracer.self_times()
    ksel = kernel_tracer.self_times()
    # The daemon's planner, cache and journal are invisible from the
    # client, so the service reports those layers from the replay.
    parent = kernel_tracer if workload.daemon else traced_tracer
    pself = parent.self_times()
    m: Dict[str, float] = {name: 0.0 for name in spec.PER_LAYER_UNITS}
    m["sim.fused.plan_s"] = pself.get("sim.fused.plan", 0.0)
    m["sim.fused.families"] = parent.counts.get("sim.fused.families", 0)
    kernel_s = 0.0
    for kind in spec.FAMILY_KINDS:
        for layer in ("family_rates", "family_detailed"):
            secs = ksel.get(f"sim.fused.{layer}.{kind}", 0.0)
            kernel_s += secs
            m[f"sim.fused.{layer}.{kind}_s"] = secs
        lanes = kernel_tracer.counts.get(f"sim.fused.family_rates.{kind}.lane_branches", 0)
        m[f"sim.fused.family_rates.{kind}_ns_per_lane_branch"] = (
            m[f"sim.fused.family_rates.{kind}_s"] * 1e9 / lanes if lanes else 0.0
        )
    analysis = {
        "analysis.bias.pc_code_stream_s": "analysis.bias.pc_code_stream",
        "analysis.bias.analyze_substreams_s": "analysis.bias.analyze_substreams",
        "analysis.interference.count_class_changes_s": "analysis.interference.count_class_changes",
        "analysis.bias.counter_bias_table_s": "analysis.bias.counter_bias_table",
        "analysis.aliasing_s": "analysis.aliasing",
        "analysis.summary_s": "analysis.summary",
    }
    for metric, layer in analysis.items():
        m[metric] = ksel.get(layer, 0.0)
    accesses = kernel_tracer.counts.get("analysis.accesses", 0)
    m["analysis.ns_per_access"] = (
        sum(m[metric] for metric in analysis) * 1e9 / accesses if accesses else 0.0
    )
    m["sim.runner.cache_put_s"] = pself.get("sim.runner.cache_put", 0.0)
    m["sim.runner.cache_flush_s"] = pself.get("sim.runner.cache_flush", 0.0)
    m["sim.runner.cells_computed"] = parent.counts.get("sim.runner.cells_computed", 0)
    m["sim.runner.cache_hits"] = parent.counts.get("sim.runner.cache_hits", 0)
    m["sim.journal.record_s"] = pself.get("sim.journal.record", 0.0)
    m["sim.journal.lines"] = parent.counts.get("sim.journal.lines", 0)
    m["sim.parallel.pool_efficiency"] = kernel_s / (workload.workers * base_sweep_s)
    if workload.daemon:
        requested = traced_tracer.counts.get("service.cells_requested", 0)
        computed = traced_unit.daemon_cells
        m["service.client.submit_s"] = own.get("service.client.submit", 0.0)
        m["service.cells_requested"] = requested
        m["service.cells_computed"] = computed
        m["service.dedup_ratio"] = 1.0 - computed / requested if requested else 0.0
        m["sim.runner.cells_computed"] = computed
        m["sim.runner.cache_hits"] = traced_tracer.counts.get("service.cache_hits", 0)
        m["service.server.start_s"] = workload.start_s()
    m["workloads.generate_s"] = statistics.median(s["generate_s"] for s in setups)
    m["traces.store.open_s"] = statistics.median(s["open_s"] for s in setups)
    m["traces.store.bytes_per_branch"] = statistics.median(
        s["stored_bytes"] / s["branches"] for s in setups
    )
    m["sim._cstep.build_s"] = statistics.median(s["build_s"] for s in setups)
    m["trace.overhead_s"] = traced_wall - base_sweep_s
    m["trace.unattributed_s"] = kernel_wall - kernel_tracer.covered()
    return m


def _traced_run(workload, ctx, setups, sweep_s: float, untraced_results: dict):
    """One pass under the tracer, plus a serial traced replay for pooled
    workloads; returns (per-layer metrics, notes, mismatches)."""
    from perfbench import gate, tracer

    def traced(fn):
        recorder = tracer.Tracer()
        uninstall = tracer.install(recorder)
        try:
            t0 = time.perf_counter()
            out = fn(ctx)
            return recorder, time.perf_counter() - t0, out
        finally:
            uninstall()

    traced_tracer, _, unit = traced(workload.run_unit)
    mismatches = list(unit.mismatches)
    mismatches += gate.compare_cells("traced pass", unit.results,
                                     "untraced passes", untraced_results)
    notes = [f"traced pass {unit.wall_s:.4f} s vs untraced median {sweep_s:.4f} s"]
    kernel = (traced_tracer, unit.wall_s)
    if workload.workers > 1:
        replay_tracer, replay_wall, replayed = traced(workload.replay)
        kernel = (replay_tracer, replay_wall)
        notes.append("kernel and analysis self-times come from a serial traced replay of "
                     "the same grid: pool workers and the daemon are not traced")
        mismatches += gate.compare_cells("serial replay", replayed, "timed passes",
                                         workload.merged(untraced_results))
    layers = _layer_metrics(workload, setups, sweep_s, (traced_tracer, unit), kernel)
    return layers, notes, mismatches


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 length_scale: float, setup_runs: int, work: Path) -> dict:
    from perfbench import gate, spec
    from perfbench.workloads import WORKLOADS, Context, RssSampler

    workload = WORKLOADS[name]()
    ctx = Context(CHECKOUT, work, seed, length_scale)
    names = workload.trace_names()
    phases = {}
    t_phase = time.perf_counter()
    setups = [ctx.cold_setup(names) for _ in range(setup_runs)]
    ctx.use_store(Path(setups[-1]["root"]), names)
    phases["setup"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    mismatches = workload.prefix_check(ctx)
    phases["prefix_check"] = time.perf_counter() - t_phase

    units = []
    t_phase = time.perf_counter()
    with RssSampler() as rss:
        while not units or time.perf_counter() - t_phase < seconds:
            unit = workload.run_unit(ctx)
            unit.peak_rss_bytes = rss.take_peak()
            units.append(unit)
    phases["measure"] = time.perf_counter() - t_phase

    t_phase = time.perf_counter()
    digests = {gate.digest(unit.results) for unit in units}
    if len(digests) != 1:
        mismatches.append(f"{len(digests)} different result digests across {len(units)} passes")
    for unit in units:
        mismatches += unit.mismatches
    mismatches += workload.final_check(ctx, units[0].results)
    phases["result_check"] = time.perf_counter() - t_phase

    walls = [unit.wall_s for unit in units]
    sweep_s = statistics.median(walls)
    setup_walls = [s["wall_s"] + workload.start_s() for s in setups]
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    latencies = [lat for unit in units for lat in unit.job_latencies]
    e2e = {
        "setup_s": statistics.median(setup_walls),
        "sweep_s": sweep_s,
        "branch_lanes_per_s": workload.branch_lanes(ctx) / sweep_s,
        "peak_rss_mb": max(unit.peak_rss_bytes for unit in units) / 1e6,
        "ok_ratio": 1.0 - failed / attempted,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail(latencies),
    }
    samples = {
        "setup_s": quartiles(setup_walls),
        "sweep_s": quartiles(walls),
        "peak_rss_mb": quartiles([unit.peak_rss_bytes / 1e6 for unit in units]),
        "job_latency_s": quartiles(latencies),
    }
    notes = ["phase seconds: " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items())]

    metrics_out = {k: {"value": v, "unit": spec.END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if trace:
        layers, trace_notes, trace_mismatches = _traced_run(
            workload, ctx, setups, sweep_s, units[0].results)
        metrics_out = {k: {"value": v, "unit": spec.PER_LAYER_UNITS[k]} for k, v in layers.items()}
        notes += trace_notes
        mismatches += trace_mismatches

    key = f"{name}|seed={seed}|scale={length_scale!r}"
    mismatches += gate.DigestRegistry(CHECKOUT / WORK_DIR / "digests.json").check(
        key, next(iter(digests)))
    return {
        "correct": not mismatches and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
        "end_to_end": e2e,
        "samples": samples,
        "mismatches": mismatches,
        "notes": notes,
        "provenance": provenance(ctx, workload, seed),
    }


def _isolate(work: Path) -> None:
    """Keep every file the run writes inside the checkout's work directory."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(work / "unused-cache")
    import tempfile

    tempfile.tempdir = str(tmp)


def _print_result(result: dict) -> None:
    from perfbench import spec

    for key, value in result["end_to_end"].items():
        print(f"{key:58s} {value:.6g} {spec.END_TO_END_UNITS[key]}")
    if "sweep_s" not in result["metrics"]:
        for key, metric in result["metrics"].items():
            print(f"{key:58s} {metric['value']:.6g} {metric['unit']}")
    for key, stats in result["samples"].items():
        print(f"samples {key}: n={stats['n']} median={stats['median']:.4f} "
              f"q1={stats['q1']:.4f} q3={stats['q3']:.4f}")
    for note in result["notes"]:
        print(f"note: {note}")
    for line in result["mismatches"]:
        print(f"MISMATCH {line}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def _run_all(args) -> int:
    from perfbench import spec

    status = 0
    for name in spec.WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--length-scale", repr(args.length_scale),
               "--setup-runs", str(args.setup_runs)]
        status |= subprocess.run(cmd, cwd=CHECKOUT).returncode
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(CHECKOUT))
    from perfbench import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length-scale", type=float, default=1.0,
                        help="trace length as a fraction of each profile's default "
                             "(smoke tests use a small one)")
    parser.add_argument("--setup-runs", type=int, default=3)
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        print(spec.write_benchmark_json(CHECKOUT))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"no program source under {CHECKOUT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    os.chdir(CHECKOUT)
    work = CHECKOUT / WORK_DIR / f"run-{os.getpid()}-{time.time_ns()}"
    _isolate(work)
    sys.path.insert(0, str(CHECKOUT / "src"))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.length_scale, args.setup_runs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
