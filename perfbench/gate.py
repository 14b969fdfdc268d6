"""The correctness gate: every check returns a list of mismatch strings.

An empty list means the outputs are right; any entry fails the run.
Cells are compared JSON-exact (``json.dumps`` of each value, so floats
must agree to the last bit and summary dicts in every field).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

#: Report at most this many mismatches per check; the count is exact.
SHOWN = 5


def _exact(value) -> str:
    return json.dumps(value, sort_keys=True)


def digest(results: Mapping) -> str:
    """Content digest of a result matrix, independent of dict order."""
    return hashlib.sha256(_exact(results).encode()).hexdigest()


def _summarize(label: str, bad: List[str]) -> List[str]:
    if len(bad) <= SHOWN:
        return bad
    return bad[:SHOWN] + [f"{label}: {len(bad) - SHOWN} more mismatching cells"]


def compare_cells(name_a: str, a: Mapping, name_b: str, b: Mapping) -> List[str]:
    """Every ``{spec: {bench: value}}`` cell of ``a`` and ``b`` must be JSON-exact."""
    bad = []
    for spec in sorted(set(a) | set(b)):
        row_a, row_b = a.get(spec, {}), b.get(spec, {})
        for bench in sorted(set(row_a) | set(row_b)):
            if bench not in row_a or bench not in row_b:
                bad.append(f"{spec} on {bench}: missing from "
                           f"{name_a if bench not in row_a else name_b}")
            elif _exact(row_a[bench]) != _exact(row_b[bench]):
                bad.append(f"{spec} on {bench}: {name_a}={_exact(row_a[bench])[:80]} "
                           f"{name_b}={_exact(row_b[bench])[:80]}")
    return _summarize(f"{name_a} vs {name_b}", bad)


def check_complete(results: Mapping, specs: Sequence[str], benches: Sequence[str],
                   detailed: bool) -> List[str]:
    """Every requested cell is present and well-formed, and no other cell is."""
    bad = []
    for spec in specs:
        row = results.get(spec, {})
        for bench in benches:
            value = row.get(bench)
            rate = value.get("misprediction_rate") if detailed and isinstance(value, dict) else value
            if not isinstance(rate, float) or not 0.0 <= rate <= 1.0:
                bad.append(f"{spec} on {bench}: no valid rate ({_exact(value)[:60]})")
        extra = set(row) - set(benches)
        if extra:
            bad.append(f"{spec}: unexpected benches {sorted(extra)}")
    extra_specs = set(results) - set(specs)
    if extra_specs:
        bad.append(f"unexpected specs {sorted(extra_specs)[:3]}")
    return _summarize("completeness", bad)


@contextmanager
def _env(**overrides):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def check_rates_prefix(specs: Sequence[str], prefixes: Mapping[str, object],
                       program: Optional[Mapping] = None) -> List[str]:
    """The program's rate of every cell on a power-on prefix equals the
    scalar engine's and the dict oracle's.  ``program`` defaults to a
    fresh serial ``evaluate_matrix`` over the prefixes."""
    from repro.core.registry import make_predictor
    from repro.sim.engine import run
    from repro.sim.runner import evaluate_matrix
    from repro.verify.oracle import oracle_rate

    if program is None:
        program = evaluate_matrix(list(specs), dict(prefixes), cache=None, jobs=1)
    scalar: Dict[str, dict] = {spec: {} for spec in specs}
    oracle: Dict[str, dict] = {spec: {} for spec in specs}
    for bench, prefix in prefixes.items():
        for spec in specs:
            scalar[spec][bench] = run(make_predictor(spec), prefix).misprediction_rate
            oracle[spec][bench] = oracle_rate(spec, prefix)
    return (compare_cells("program", dict(program), "scalar", scalar)
            + compare_cells("program", dict(program), "oracle", oracle))


def check_detailed_prefix(specs: Sequence[str], prefixes: Mapping[str, object],
                          program: Optional[Mapping] = None) -> List[str]:
    """The program's Section-4 summary of every cell on a power-on prefix
    equals the summary of the scalar engine's attribution and of the dict
    oracle's attribution.  ``program`` defaults to a fresh serial
    ``detailed_matrix`` over the prefixes."""
    from repro.analysis.summary import summarize_detailed
    from repro.core.interfaces import DetailedSimulation, SimulationResult
    from repro.core.registry import make_predictor
    from repro.sim.engine import run_detailed
    from repro.sim.parallel import detailed_matrix
    from repro.verify.oracle import oracle_detailed

    if program is None:
        program = detailed_matrix(list(specs), dict(prefixes), jobs=1)
    scalar: Dict[str, dict] = {spec: {} for spec in specs}
    oracle: Dict[str, dict] = {spec: {} for spec in specs}
    for bench, prefix in prefixes.items():
        for spec in specs:
            with _env(REPRO_DETAILED_KERNEL="scalar"):
                ref = run_detailed(make_predictor(spec), prefix)
            scalar[spec][bench] = summarize_detailed(ref)
            predictions, counter_ids = oracle_detailed(spec, prefix)
            oracle[spec][bench] = summarize_detailed(DetailedSimulation(
                result=SimulationResult(
                    predictor_name=spec, trace_name=prefix.name,
                    predictions=predictions, outcomes=prefix.outcomes,
                ),
                counter_ids=counter_ids,
                num_counters=ref.num_counters,
                pcs=prefix.pcs,
            ))
    return (compare_cells("program", dict(program), "scalar", scalar)
            + compare_cells("program", dict(program), "oracle", oracle))


class DigestRegistry:
    """Result digests per (workload, seed, scale), kept across runs in one checkout."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def check(self, key: str, value: str) -> List[str]:
        try:
            known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            known = {}
        if key in known:
            if known[key] != value:
                return [f"{key}: result digest {value[:12]} differs from an "
                        f"earlier run's {known[key][:12]}"]
            return []
        known[key] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)
        return []
