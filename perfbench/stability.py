"""Run-to-run spread of the end-to-end metrics, over several seeds.

Runs ``perfbench/run.py`` once per (workload, seed), serially, and for
each end-to-end metric reports the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread — the distance
between the quartiles as a share of the median — next to the metric's
bound.  Writes the record, with the host's provenance, to ``--out``::

    python3 perfbench/stability.py --seeds 101-110 --out perfbench/results/stability.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

CHECKOUT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "runs": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(CHECKOUT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    prov = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("provenance ")), {})
    notes = [line for line in lines if line.startswith(("samples ", "note: "))]
    return {"rc": proc.returncode, "wall_s": wall, "result": result, "provenance": prov,
            "notes": notes, "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def main(argv=None) -> int:
    sys.path.insert(0, str(CHECKOUT))
    from perfbench import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path,
                        help="an earlier --out record: flag medians worse than it by more "
                             "than the bound")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in spec.END_TO_END}
    better = {m["name"]: m["better"] for m in spec.END_TO_END + spec.PER_LAYER}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    record = {"seeds": seeds, "trace": args.trace, "seconds": args.seconds,
              "compared_with": str(args.compare) if args.compare else None, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.trace, args.seconds) for seed in seeds]
        failed = [r for r in runs if r["rc"] != 0 or not r["result"].get("correct")]
        values: Dict[str, List[float]] = {}
        for r in runs:
            for name, metric in r["result"].get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        metrics = {name: spread(vals) for name, vals in values.items() if len(vals) > 1}
        record["workloads"][workload] = {
            "runs": [{"seed": seed, "rc": r["rc"], "correct": r["result"].get("correct"),
                      "wall_s": r["wall_s"], "notes": r["notes"],
                      "values": {k: m["value"] for k, m in r["result"].get("metrics", {}).items()}}
                     for seed, r in zip(seeds, runs)],
            "failed_runs": len(failed),
            "metrics": metrics,
            "provenance": runs[0]["provenance"],
        }
        print(f"== {workload}: {len(runs)} runs, {len(failed)} failed, "
              f"longest {max(r['wall_s'] for r in runs):.1f} s", flush=True)
        for r in failed:
            print(f"   failed run rc={r['rc']}: {r['stderr'][-400:]}")
        ok &= not failed
        for name, stats in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] > bound / 3:
                flag = "  ABOVE bound/3"
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before and before["median"] and bound is not None:
                change = stats["median"] / before["median"] - 1
                worse = change if better[name] == "lower" else -change
                stats["vs_earlier"] = change
                flag += f"  vs earlier {change:+.4f}" + ("  WORSE than bound" if worse > bound else "")
                ok &= worse <= bound
            print(f"   {name:22s} median={stats['median']:.6g} spread={stats['spread']:.4f}"
                  f" bound={bound}{flag}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"written {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
