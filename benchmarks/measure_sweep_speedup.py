"""Measure the sweep speedup of the batch kernels over the scalar engine.

Cold-cache measurements, all asserted bit-identical to the scalar
engine, printed and recorded in ``results/sweep_speedup.csv``:

* **Figure-3 sweep** — the full CINT95 paper sweep (every gshare.best
  candidate, the 1PHT points and bi-mode at all eight paper sizes),
  scalar per-cell baseline vs the production ``paper_sweep`` path
  (the fused family passes of :mod:`repro.sim.fused`).
* **Figure-2 bi-mode portion** — just the bi-mode specs of the sweep,
  across the *combined* CINT95 + IBS suite of both Figure-2 panels,
  scalar per-cell baseline vs one production ``evaluate_matrix`` call
  (one fused bi-mode family pass per trace).  This isolates what the
  bi-mode kernel buys; the acceptance bar is >= 2x.
* **Figure-7 detailed workload** — the full Section-4 breakdown bench
  (detailed attribution simulation + substream analysis for every
  Figure-7 cell, warm trace store), scalar ``simulate_detailed``
  baseline vs the batch attribution kernels
  (``REPRO_DETAILED_KERNEL=batch``); summaries asserted identical,
  acceptance bar >= 5x, machine-readable record in
  ``results/BENCH_detailed_kernel.json``.

The whole Figure-2/3/4 grid is timed end to end, with oracle and scalar
checks, by the ``paper_grid`` workload of ``perfbench/run.py``.

Not a pytest file on purpose — timing cold sweeps back-to-back is an
explicit measurement run::

    PYTHONPATH=src:. REPRO_BENCH_SCALE=0.1 python benchmarks/measure_sweep_speedup.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import bench_scale, emit_table, load_bench_suite, results_dir
from repro.analysis.sweep import (
    _candidate_specs,
    bimode_spec,
    gshare_1pht_spec,
    paper_sweep,
)
from repro.core.hardware import PAPER_SIZE_POINTS_KB
from repro.core.registry import make_predictor
from repro.sim.engine import run
from repro.sim.runner import ResultCache, evaluate_matrix


def sweep_spec_set():
    """Every unique spec the paper sweep evaluates, in sweep order."""
    specs = []
    for kbytes in PAPER_SIZE_POINTS_KB:
        specs.append(gshare_1pht_spec(kbytes))
        specs.extend(_candidate_specs(kbytes, None))
        specs.append(bimode_spec(kbytes))
    return list(dict.fromkeys(specs))


def series_cells(series):
    """Flatten a paper_sweep result into {(spec, bench): rate}."""
    cells = {}
    for sweep in series.values():
        for point in sweep.points:
            for bench, rate in point.per_benchmark.items():
                cells[(point.spec, bench)] = rate
    return cells


def measure_bimode_portion():
    """Scalar vs batched wall-clock for the Figure-2 bi-mode cells.

    Returns ``(baseline_s, batched_s, num_cells, mismatches)``.
    """
    specs = list(dict.fromkeys(bimode_spec(kb) for kb in PAPER_SIZE_POINTS_KB))
    traces = load_bench_suite("all")  # both Figure-2 panels: CINT95 + IBS

    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        batched = evaluate_matrix(specs, traces, cache=ResultCache(Path(tmp)))
        batched_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar = {
        (spec, bench): run(make_predictor(spec), trace).misprediction_rate
        for spec in specs
        for bench, trace in traces.items()
    }
    baseline_s = time.perf_counter() - t0

    mismatches = 0
    for spec in specs:
        for bench in traces:
            if batched[spec][bench] != scalar[(spec, bench)]:
                mismatches += 1
                print(f"MISMATCH {spec} on {bench}: "
                      f"batched={batched[spec][bench]} scalar={scalar[(spec, bench)]}")
    return baseline_s, batched_s, len(specs) * len(traces), mismatches


@contextmanager
def _env(**overrides):
    """Temporarily set (or unset, via ``None``) environment variables."""
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _scaled_length(name: str, scale: float) -> int:
    from repro.workloads.profiles import get_profile

    return max(20_000, int(get_profile(name).default_length * scale))


def _fresh_programs() -> None:
    """Drop the program cache so each timed path pays its own build."""
    from repro.workloads import generator

    generator._PROGRAM_CACHE.clear()


def measure_trace_pipeline():
    """Time the trace pipeline: generation, persistence, and load.

    Covers the PR-4 acceptance rows:

    * per-benchmark scalar vs fastgen generation wall-clock, traces
      asserted bit-identical;
    * the cold Figure-3 *trace-pipeline* portion — everything before the
      first simulated branch (generate + persist + load all CINT95
      traces) — old path (scalar gen + compressed ``.npz``) at scale
      0.1 vs new path (fastgen + mmap store) at scale 0.25;
    * warm trace load: ``.npz`` decompress-and-copy vs store mmap open.

    Returns ``(rows, summary, mismatches)`` where ``rows`` extend the
    ``sweep_speedup`` table and ``summary`` is the machine-readable
    payload for ``results/BENCH_trace_pipeline.json``.
    """
    import numpy as np

    from repro.traces.io import load_npz, save_npz
    from repro.traces.store import TraceStore
    from repro.workloads.generator import generate_trace
    from repro.workloads.profiles import get_profile
    from repro.workloads.suite import suite_names

    names = suite_names("cint95")
    new_scale, old_scale = 0.25, 0.1
    mismatches = 0

    # Warm the code paths once (C driver compile, numpy imports) so the
    # timings below measure the pipeline, not one-time process setup.
    with _env(REPRO_TRACEGEN="fast"):
        generate_trace(get_profile(names[0]), length=20_000, seed=987)

    # -- generation: scalar vs fastgen, bit-identity asserted ---------------
    # Program construction and the fastgen plan are one-time per-process
    # costs (cached), so warm them outside the timers; the cold-pipeline
    # section below charges them where a one-shot run really pays them.
    generation = []
    for name in names:
        length = _scaled_length(name, new_scale)
        profile = get_profile(name)
        with _env(REPRO_TRACEGEN="fast"):
            generate_trace(profile, length=20_000, seed=0)
        with _env(REPRO_TRACEGEN="scalar"):
            t0 = time.perf_counter()
            slow = generate_trace(profile, length=length, seed=0)
            scalar_s = time.perf_counter() - t0
        with _env(REPRO_TRACEGEN="fast"):
            t0 = time.perf_counter()
            fast = generate_trace(profile, length=length, seed=0)
            fast_s = time.perf_counter() - t0
        identical = bool(
            np.array_equal(slow.pcs, fast.pcs)
            and np.array_equal(slow.outcomes, fast.outcomes)
        )
        if not identical:
            mismatches += 1
            print(f"MISMATCH fastgen vs scalar on {name} (n={length})")
        generation.append(
            {
                "bench": name,
                "length": length,
                "scalar_s": round(scalar_s, 4),
                "fastgen_s": round(fast_s, 4),
                "speedup": round(scalar_s / fast_s, 2) if fast_s else None,
                "identical": identical,
            }
        )

    gen_scalar_s = sum(row["scalar_s"] for row in generation)
    gen_fast_s = sum(row["fastgen_s"] for row in generation)
    gen_identical = all(row["identical"] for row in generation)

    # -- cold pipeline: old npz path @ 0.1 vs new store path @ 0.25 ---------
    with tempfile.TemporaryDirectory() as tmp:
        npz_dir = Path(tmp)
        _fresh_programs()
        with _env(REPRO_TRACEGEN="scalar"):
            t0 = time.perf_counter()
            for name in names:
                length = _scaled_length(name, old_scale)
                trace = generate_trace(get_profile(name), length=length, seed=0)
                save_npz(trace, npz_dir / f"{name}.npz")
                load_npz(npz_dir / f"{name}.npz")
            old_cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for name in names:
            load_npz(npz_dir / f"{name}.npz")
        warm_npz_s = time.perf_counter() - t0
        npz_bytes = sum(
            (npz_dir / f"{name}.npz").stat().st_size for name in names
        )

        # Old-path traces double as the identity reference: the new
        # pipeline at the *same* lengths must publish identical bytes.
        cross_store = TraceStore(npz_dir / "cross-check-store")
        _fresh_programs()
        with _env(REPRO_TRACEGEN="fast"):
            for name in names:
                length = _scaled_length(name, old_scale)
                mapped = cross_store.materialize(name, length, 0)
                reference = load_npz(npz_dir / f"{name}.npz")
                if not (
                    np.array_equal(mapped.pcs, reference.pcs)
                    and np.array_equal(mapped.outcomes, reference.outcomes)
                ):
                    mismatches += 1
                    print(f"MISMATCH store pipeline vs npz pipeline on {name}")

    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        _fresh_programs()
        with _env(REPRO_TRACEGEN="fast"):
            t0 = time.perf_counter()
            for name in names:
                store.materialize(name, _scaled_length(name, new_scale), 0)
            new_cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for name in names:
            store.open(name, _scaled_length(name, new_scale), 0)
        warm_mmap_s = time.perf_counter() - t0

        store_bytes = sum(
            f.stat().st_size for f in Path(tmp).rglob("*") if f.is_file()
        )
        store_branches = sum(_scaled_length(name, new_scale) for name in names)

    summary = {
        "suite": "cint95",
        "generation": {
            "scale": new_scale,
            "per_bench": generation,
            "scalar_total_s": round(gen_scalar_s, 3),
            "fastgen_total_s": round(gen_fast_s, 3),
            "speedup": round(gen_scalar_s / gen_fast_s, 2),
            "identical": gen_identical,
        },
        "cold_pipeline": {
            "what": "generate + persist + load all CINT95 traces "
                    "(the pre-simulation portion of a cold Figure-3 sweep)",
            "old_path": {
                "scale": old_scale, "engine": "scalar", "format": "npz",
                "seconds": round(old_cold_s, 3),
            },
            "new_path": {
                "scale": new_scale, "engine": "fastgen", "format": "store",
                "seconds": round(new_cold_s, 3),
            },
            "new_faster": bool(new_cold_s < old_cold_s),
            "rates_identical_at_matched_lengths": mismatches == 0,
        },
        "warm_load": {
            "npz_decompress_s": round(warm_npz_s, 4),
            "store_mmap_open_s": round(warm_mmap_s, 4),
            "speedup": round(warm_npz_s / warm_mmap_s, 2) if warm_mmap_s else None,
        },
        "footprint": {
            "store_bytes_per_branch": round(store_bytes / store_branches, 2),
            "npz_bytes_per_branch": round(
                npz_bytes / sum(_scaled_length(n, old_scale) for n in names), 2
            ),
        },
    }

    verdict = "identical" if mismatches == 0 else "DIVERGED"
    rows = [
        ["tracegen scalar (CINT95 @ scale 0.25)",
         f"{gen_scalar_s:.2f}", "1.00x", verdict],
        ["tracegen fastgen (CINT95 @ scale 0.25)",
         f"{gen_fast_s:.2f}", f"{gen_scalar_s / gen_fast_s:.2f}x", verdict],
        ["cold trace pipeline: scalar gen + npz (scale 0.1)",
         f"{old_cold_s:.2f}", "1.00x", verdict],
        ["cold trace pipeline: fastgen + store (scale 0.25)",
         f"{new_cold_s:.2f}", f"{old_cold_s / new_cold_s:.2f}x", verdict],
        ["warm trace load: npz decompress (CINT95)",
         f"{warm_npz_s:.3f}", "1.00x", verdict],
        ["warm trace load: store mmap open (CINT95)",
         f"{warm_mmap_s:.3f}", f"{warm_npz_s / warm_mmap_s:.2f}x", verdict],
    ]
    return rows, summary, mismatches


def measure_detailed_kernel():
    """Old vs new pipeline wall-clock for the Figure-7 detailed workload.

    Runs every Figure-7 cell (detailed attribution simulation plus the
    full Section-4 summary reduction) on the warm-store gcc trace twice:

    * **baseline** — what the bench executed before the batched
      pipeline: the scalar per-branch ``simulate_detailed`` loop
      (``REPRO_DETAILED_KERNEL=scalar``) feeding the reference
      sort-based analysis (:mod:`repro.analysis.reference`);
    * **pipeline** — the batch attribution kernels feeding the
      counting-sort analysis with the per-trace PC dictionary shared
      across cells, i.e. exactly the per-worker path of
      :func:`repro.sim.parallel.detailed_matrix`.

    Asserts the two summary sets are identical — predictions, counter
    ids, and every derived aggregate.  Returns ``(rows, summary,
    mismatches)`` like :func:`measure_trace_pipeline`.
    """
    from benchmarks.bench_fig7_gcc_breakdown import BENCHMARK, SIZES, _schemes
    from benchmarks.common import detailed_scale, load_detailed_trace
    from repro.analysis.reference import summarize_detailed_reference
    from repro.sim.engine import run_detailed
    from repro.sim.parallel import _detailed_cells

    trace = load_detailed_trace(BENCHMARK)  # warm store from here on
    cells = [
        (1 << bits, label, spec)
        for bits, few in SIZES
        for label, spec in _schemes(bits, few)
    ]
    specs = [spec for _, _, spec in cells]
    opts = {"threshold": 0.9, "include_bias_table": False}

    with _env(REPRO_DETAILED_KERNEL="batch"):
        _detailed_cells(specs, trace, opts)  # warm (C build, imports)
        t0 = time.perf_counter()
        pipeline = _detailed_cells(specs, trace, opts)
        pipeline_s = time.perf_counter() - t0
    with _env(REPRO_DETAILED_KERNEL="scalar"):
        t0 = time.perf_counter()
        baseline = {
            spec: summarize_detailed_reference(
                run_detailed(make_predictor(spec), trace)
            )
            for spec in specs
        }
        baseline_s = time.perf_counter() - t0

    mismatches = 0
    for spec in specs:
        if pipeline[spec] != baseline[spec]:
            mismatches += 1
            print(f"MISMATCH detailed {spec} on {BENCHMARK}")

    speedup = baseline_s / pipeline_s if pipeline_s else float("inf")
    verdict = "identical" if mismatches == 0 else "DIVERGED"
    summary = {
        "what": "Figure-7 breakdown workload: detailed attribution "
                "simulation + Section-4 summary per cell, warm store",
        "benchmark": BENCHMARK,
        "trace_length": len(trace),
        "detailed_scale": detailed_scale(),
        "cells": len(cells),
        "baseline": "scalar simulate_detailed + reference sort-based analysis",
        "pipeline": "batch attribution kernels + counting-sort analysis, "
                    "shared per-trace PC codes",
        "baseline_s": round(baseline_s, 3),
        "pipeline_s": round(pipeline_s, 3),
        "speedup": round(speedup, 2),
        "summaries_identical": mismatches == 0,
        "per_cell": [
            {
                "spec": spec,
                "counters": counters,
                "scheme": label,
                "breakdown": pipeline[spec]["breakdown"],
            }
            for counters, label, spec in cells
        ],
    }
    rows = [
        [f"fig7 detailed scalar + reference analysis ({len(cells)} cells)",
         f"{baseline_s:.2f}", "1.00x", verdict],
        [f"fig7 detailed batch kernels + counting-sort analysis",
         f"{pipeline_s:.2f}", f"{speedup:.2f}x", verdict],
    ]
    return rows, summary, mismatches


def main() -> int:
    suite = "cint95"
    traces = load_bench_suite(suite)
    specs = sweep_spec_set()
    print(f"suite={suite}  scale={bench_scale():g}  specs={len(specs)}  "
          f"lengths={{{', '.join(f'{k}:{len(v)}' for k, v in traces.items())}}}")

    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        series = paper_sweep(
            traces, kb_points=PAPER_SIZE_POINTS_KB, cache=ResultCache(Path(tmp))
        )
        batched_s = time.perf_counter() - t0
    cells = len(specs) * len(traces)
    print(f"batched path: {batched_s:.2f}s ({cells} cells)")

    t0 = time.perf_counter()
    scalar = {
        (spec, bench): run(make_predictor(spec), trace).misprediction_rate
        for spec in specs
        for bench, trace in traces.items()
    }
    baseline_s = time.perf_counter() - t0
    print(f"scalar baseline: {baseline_s:.2f}s (same {cells} cells)")

    mismatches = 0
    for (spec, bench), rate in series_cells(series).items():
        if scalar[(spec, bench)] != rate:
            mismatches += 1
            print(f"MISMATCH {spec} on {bench}: "
                  f"batched={rate} scalar={scalar[(spec, bench)]}")

    speedup = baseline_s / batched_s if batched_s else float("inf")
    verdict = "identical" if mismatches == 0 else "DIVERGED"

    print("\nFigure-2 bi-mode portion (CINT95 + IBS, cold cache):")
    bm_base_s, bm_batch_s, bm_cells, bm_mismatches = measure_bimode_portion()
    bm_speedup = bm_base_s / bm_batch_s if bm_batch_s else float("inf")
    bm_verdict = "identical" if bm_mismatches == 0 else "DIVERGED"
    print(f"scalar {bm_base_s:.2f}s vs batched {bm_batch_s:.2f}s over {bm_cells} "
          f"cells -> {bm_speedup:.2f}x")

    print("\nTrace pipeline (generation / persistence / load):")
    tp_rows, tp_summary, tp_mismatches = measure_trace_pipeline()

    print("\nFigure-7 detailed workload (attribution + analysis, warm store):")
    dk_rows, dk_summary, dk_mismatches = measure_detailed_kernel()
    dk_speedup = dk_summary["speedup"]
    print(f"scalar+reference {dk_summary['baseline_s']:.2f}s vs batched pipeline "
          f"{dk_summary['pipeline_s']:.2f}s over {dk_summary['cells']} cells "
          f"-> {dk_speedup:.2f}x")

    emit_table(
        "sweep_speedup",
        f"Sweep wall-clock, cold cache, scale={bench_scale():g}; "
        f"fig3 = {len(specs)} specs x {len(traces)} CINT95 benchmarks, "
        f"fig2-bimode = {bm_cells} bi-mode cells over CINT95+IBS",
        ["path", "seconds", "speedup", "rates"],
        [
            ["fig3 scalar engine (per-cell)", f"{baseline_s:.2f}", "1.00x", verdict],
            ["fig3 production path (paper_sweep)", f"{batched_s:.2f}", f"{speedup:.2f}x", verdict],
            ["fig2 bi-mode scalar engine (per-cell)", f"{bm_base_s:.2f}", "1.00x", bm_verdict],
            ["fig2 bi-mode production path (evaluate_matrix)", f"{bm_batch_s:.2f}", f"{bm_speedup:.2f}x", bm_verdict],
        ] + tp_rows + dk_rows,
    )

    dk_path = results_dir() / "BENCH_detailed_kernel.json"
    dk_path.write_text(json.dumps(dk_summary, indent=2) + "\n")
    print(f"[written {dk_path}]")

    tp_summary["sweeps"] = {
        "scale": bench_scale(),
        "fig3_scalar_s": round(baseline_s, 2),
        "fig3_batched_s": round(batched_s, 2),
        "fig3_speedup": round(speedup, 2),
        "fig2_bimode_scalar_s": round(bm_base_s, 2),
        "fig2_bimode_batched_s": round(bm_batch_s, 2),
        "fig2_bimode_speedup": round(bm_speedup, 2),
        "rates_identical": mismatches + bm_mismatches == 0,
    }
    json_path = results_dir() / "BENCH_trace_pipeline.json"
    json_path.write_text(json.dumps(tp_summary, indent=2) + "\n")
    print(f"[written {json_path}]")

    gen_speedup = tp_summary["generation"]["speedup"]
    print(f"\nfig3 speedup: {speedup:.2f}x (target >= 3x)  "
          f"fig2 bi-mode speedup: {bm_speedup:.2f}x (target >= 2x)  "
          f"tracegen speedup: {gen_speedup:.2f}x (target >= 5x)  "
          f"fig7 detailed speedup: {dk_speedup:.2f}x (target >= 5x)  "
          f"mismatches="
          f"{mismatches + bm_mismatches + tp_mismatches + dk_mismatches}")
    if mismatches or bm_mismatches or tp_mismatches or dk_mismatches:
        return 1
    if speedup < 3.0 or bm_speedup < 2.0 or gen_speedup < 5.0 or dk_speedup < 5.0:
        print("WARNING: below target on this machine")
        return 2
    if not tp_summary["cold_pipeline"]["new_faster"]:
        print("WARNING: cold store pipeline @0.25 not faster than npz @0.1")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
