"""One cold set-up, run in a fresh interpreter on an empty cache root.

Builds the compiled step driver, generates the workload's traces from
the seed and publishes them to the trace store, then re-opens every
published trace the way a sweep does.  Prints one JSON line with the
time of each step::

    python3 perfbench/coldstart.py --root DIR --seed N --length-scale 1.0 compress gcc
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--length-scale", type=float, default=1.0)
    parser.add_argument("names", nargs="+")
    args = parser.parse_args(argv)

    os.environ["REPRO_CACHE_DIR"] = str(args.root)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    t0 = time.perf_counter()
    from perfbench.grids import trace_length
    from repro.sim import _cstep
    from repro.workloads.suite import load_benchmark, trace_store

    t1 = time.perf_counter()
    if not _cstep.available():
        print(f"compiled step driver unavailable: {_cstep.unavailable_reason()}",
              file=sys.stderr)
        return 1
    t2 = time.perf_counter()
    lengths = {name: trace_length(name, args.length_scale) for name in args.names}
    for name in args.names:
        load_benchmark(name, length=lengths[name], seed=args.seed)
    t3 = time.perf_counter()
    store = trace_store()
    opened = [store.open(name, lengths[name], args.seed) for name in args.names]
    if any(trace is None for trace in opened):
        print("a published trace could not be opened", file=sys.stderr)
        return 1
    t4 = time.perf_counter()
    stored = sum(
        path.stat().st_size
        for name in args.names
        for path in store.path(name, lengths[name], args.seed).iterdir()
    )
    print(json.dumps({
        "import_s": t1 - t0,
        "build_s": t2 - t1,
        "generate_s": t3 - t2,
        "open_s": t4 - t3,
        "total_s": t4 - T_START,
        "branches": sum(lengths.values()),
        "stored_bytes": stored,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
